//! Property-based tests (S4 in `DESIGN.md`): parser round-trips, word
//! algebra, concatenation laws, and random-design engine agreement.

use asim2::prelude::*;
use proptest::prelude::*;
use rtl_core::{land, AluFn, WORD_MASK};
use rtl_lang::{parse_expr, Span};

proptest! {
    /// `parse ∘ pretty` is the identity on pretty-printed text.
    #[test]
    fn spec_pretty_parse_round_trip(seed in 0u64..500, size in 1usize..40) {
        let spec = asim2::machines::synth::random_spec(seed, size);
        let text = pretty(&spec);
        let spec2 = parse(&text).expect("pretty output parses");
        prop_assert_eq!(pretty(&spec2), text);
    }

    /// Engine agreement on arbitrary valid designs — the central safety
    /// property of the compiler.
    #[test]
    fn engines_agree_on_random_designs(seed in 500u64..600, size in 1usize..30) {
        let spec = asim2::machines::synth::random_spec(seed, size);
        let design = Design::elaborate(&spec).expect("random specs are valid");
        let mut interp = Interpreter::new(&design);
        let expected = run_captured(&mut interp, 20).expect("no runtime errors");
        let mut vm = Vm::new(&design);
        let got = run_captured(&mut vm, 20).expect("no runtime errors");
        prop_assert_eq!(got, expected);
    }

    /// A `random_spec` design lints as its rendered text does (see
    /// `built_specs_lint_as_their_text`).
    #[test]
    fn random_specs_lint_as_their_text(seed in 0u64..600, size in 1usize..40) {
        let spec = asim2::machines::synth::random_spec(seed, size);
        prop_assert_eq!(
            rtl_lint::lint_spec(&spec).counts(),
            rtl_lint::lint_source(&pretty(&spec)).counts()
        );
    }

    /// `land` is 32-bit two's-complement AND: matches the reference
    /// formula for every i64 pair.
    #[test]
    fn land_matches_reference(a in any::<i64>(), b in any::<i64>()) {
        let expected = ((a as i32) & (b as i32)) as i64;
        prop_assert_eq!(land(a, b), expected);
        // Commutative and idempotent.
        prop_assert_eq!(land(a, b), land(b, a));
        prop_assert_eq!(land(a, a), a as i32 as i64);
    }

    /// ALU bit functions agree with native operators on word-range values.
    #[test]
    fn alu_bit_functions(a in 0i64..=WORD_MASK, b in 0i64..=WORD_MASK) {
        prop_assert_eq!(AluFn::And.apply(a, b), a & b);
        prop_assert_eq!(AluFn::Or.apply(a, b), a | b);
        prop_assert_eq!(AluFn::Xor.apply(a, b), a ^ b);
        prop_assert_eq!(AluFn::Not.apply(a, 0), WORD_MASK - a);
        prop_assert_eq!(AluFn::Eq.apply(a, b), i64::from(a == b));
        prop_assert_eq!(AluFn::Lt.apply(a, b), i64::from(a < b));
    }

    /// Add/Sub are inverses; Shl is multiplication by a power of two
    /// modulo 2^31 (for non-zero distances, per the dologic quirk).
    #[test]
    fn alu_arithmetic(a in 0i64..=WORD_MASK, n in 1i64..31) {
        prop_assert_eq!(AluFn::Sub.apply(AluFn::Add.apply(a, 7), 7), a);
        let shifted = AluFn::Shl.apply(a, n);
        prop_assert_eq!(shifted, land(a.wrapping_shl(n as u32), WORD_MASK));
    }

    /// Concatenation law: evaluating `x.f.t` extracts exactly the field.
    #[test]
    fn subfield_extraction(value in 0i64..=WORD_MASK, from in 0u8..16, width in 1u8..8) {
        let to = from + width - 1;
        let text = format!("x.{from}.{to}");
        let expr = parse_expr(&text, Span::default()).unwrap();
        let names = {
            let d = Design::from_source("# p\nx .\nA x 0 0 0 .").unwrap();
            let mut m = std::collections::HashMap::new();
            m.insert("x".to_string(), d.find("x").unwrap());
            m
        };
        let r = rtl_core::resolve::resolve_expr(&expr, &names, "prop").unwrap();
        let expected = (value >> from) & ((1 << width) - 1);
        prop_assert_eq!(r.eval(&[value]), expected);
    }

    /// Concatenating two fields is shift-or.
    #[test]
    fn concatenation_is_shift_or(hi in 0i64..16, lo in 0i64..16) {
        let text = format!("{hi}.4,{lo}.4");
        let expr = parse_expr(&text, Span::default()).unwrap();
        let r = rtl_core::resolve::resolve_expr(
            &expr,
            &std::collections::HashMap::new(),
            "prop",
        ).unwrap();
        prop_assert_eq!(r.as_constant(), Some((hi << 4) | lo));
    }

    /// The number grammar accepts what it prints.
    #[test]
    fn number_round_trip(v in 0i64..=WORD_MASK) {
        prop_assert_eq!(rtl_lang::parse_number(&v.to_string()), Ok(v));
        prop_assert_eq!(rtl_lang::parse_number(&format!("${v:X}")), Ok(v));
        prop_assert_eq!(rtl_lang::parse_number(&format!("%{v:b}")), Ok(v));
    }

    /// The stack-machine assembler round-trips through its listing.
    #[test]
    fn assembler_listing_round_trip(words in proptest::collection::vec(0i64..(1 << 17), 1..40)) {
        use asim2::machines::stack::{asm, Instr};
        let program: Vec<Instr> = words.iter().map(|&w| Instr::decode(w)).collect();
        // Render as assembly and re-assemble. Operand-less listing lines
        // reassemble to operand 0, so compare re-encoded mnemonics.
        let listing: String = program
            .iter()
            .map(|i| format!("{i}\n"))
            .collect();
        let again = asm::assemble(&listing).expect("listing reassembles");
        let norm: Vec<Instr> = program
            .iter()
            .map(|i| if i.op.takes_operand() { *i } else { Instr::new(i.op, 0) })
            .collect();
        prop_assert_eq!(again, norm);
    }
}

/// Dependency-order property: every combinational component appears after
/// everything it reads (deterministic, so plain test over many seeds).
#[test]
fn topological_order_is_valid_for_many_seeds() {
    for seed in 0..40 {
        let spec = asim2::machines::synth::random_spec(seed, 30);
        let design = Design::elaborate(&spec).unwrap();
        let position: std::collections::HashMap<usize, usize> = design
            .comb_order()
            .iter()
            .enumerate()
            .map(|(pos, id)| (id.index(), pos))
            .collect();
        for &id in design.comb_order() {
            let comp = design.comp(id);
            for expr in comp.kind.expressions() {
                for dep in expr.comps() {
                    if let Some(&dep_pos) = position.get(&dep.index()) {
                        assert!(
                            dep_pos < position[&id.index()],
                            "seed {seed}: {} evaluated before its dependency {}",
                            design.name(id),
                            design.name(dep)
                        );
                    }
                }
            }
        }
    }
}

/// A built spec lints as its rendered text does: the builder gives every
/// declared name, component and expression its own span, so the report
/// tells its findings apart as it tells apart the parsed text's. Over
/// campaign cases at six sizes (a campaign lints the design it built),
/// one thread per size.
#[test]
fn built_specs_lint_as_their_text() {
    use asim2::cosim::{generate_case, GenOptions};
    std::thread::scope(|scope| {
        for size in [1, 5, 10, 30, 60, 120] {
            scope.spawn(move || {
                let options = GenOptions {
                    size,
                    ..GenOptions::default()
                };
                for seed in 0..300 {
                    let spec = generate_case(seed, &options).spec;
                    let text = rtl_lint::lint_source(&pretty(&spec)).counts();
                    let design =
                        Design::elaborate_with(spec, rtl_core::ElabOptions::default()).unwrap();
                    assert_eq!(
                        rtl_lint::lint_design(&design).counts(),
                        text,
                        "seed {seed} size {size}"
                    );
                }
            });
        }
    });
}
