//! Synthetic specifications: sized chains for the scaling benchmarks, and
//! the one seeded design generator behind property tests' random designs
//! and every campaign case.
//!
//! [`generate`] builds a valid-by-construction design from a seed:
//! memory addresses are bit-masked to the memory size, selector indices
//! to the case count, ALU functions stay in `0..=13`, and the stimulus
//! for an optional memory-mapped input port holds a word for every cycle
//! and then some. Such a design cannot fail at runtime, so engines that
//! run it must agree on every cycle, and any divergence is an engine
//! bug. Each source carries the value bound `rtl-lint` derives for it,
//! so subfield reads can be clamped below it and the design lints clean
//! too (no `field-oob` on a comparator output, for example).
//! [`random_spec`] asks for that; campaign cases
//! (`rtl_cosim::generate_case`) do not yet.
//!
//! Every expression the generator draws is built as a value (an
//! [`Expr`] of [`Part`]s over [`Ident`]s it already holds) and handed
//! to [`SpecBuilder`], so none is printed as text and parsed back; only
//! the fixed literals (`"0"`, `"c.0"`) are text. Tests check that each
//! built AST is what the parser reads from the design's rendering.

use crate::builder::SpecBuilder;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rtl_core::width::bits_needed;
use rtl_core::Word;
use rtl_lang::{Expr, Ident, Part, Spec};

/// Bound marker for a source whose value is not provably narrow.
const UNBOUNDED: u8 = 31;

/// A dependency chain of `n` ALUs hanging off one counter register —
/// every component must be evaluated every cycle, so simulation time
/// scales linearly with `n`. Used by the A3 scaling benchmark (the §5.2
/// claim that interpretation is "too slow for large projects").
pub fn chain(n: usize) -> Spec {
    assert!(n >= 1);
    let mut b = SpecBuilder::new(format!("synthetic chain of {n} alus"));
    b.trace("c");
    b.memory("c", "0", "next", "1", 1);
    b.alu("next", "4", "c.0.7", "1");
    b.alu("a0", "4", "c.0.7", "1");
    for i in 1..n {
        // Alternate add and xor to defeat trivial folding.
        let f = if i % 2 == 0 { "4" } else { "10" };
        let prev = field(Ident::new_unchecked(format!("a{}", i - 1)), 0, 15);
        b.alu(&format!("a{i}"), f, prev, "3");
    }
    b.finish()
}

/// A seeded random-but-valid design for differential property tests:
/// [`generate`] with no input port and clamped subfield reads, so the
/// design also lints clean.
pub fn random_spec(seed: u64, size: usize) -> Spec {
    generate(seed, size, 0, 0, "random design", true).0
}

/// The seeded design generator: the specification titled `"{title} seed
/// {seed} size {size}"` and, when it has an input port, its stimulus.
///
/// `size` combinational components (clamped to `1..=200`) hang off a
/// free-running counter, an input port (drawn roughly every
/// `1/io_every` designs; 0 never) and one to three memories. With
/// `clamp_fields`, each subfield read starts below its source's
/// provable bound, the one `rtl-lint` derives. Equal arguments give the
/// identical design and stimulus.
pub fn generate(
    seed: u64,
    size: usize,
    io_every: u32,
    cycles: u64,
    title: &str,
    clamp_fields: bool,
) -> (Spec, Vec<Word>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let size = size.clamp(1, 200);
    let mut b = SpecBuilder::new(format!("{title} seed {seed} size {size}"));

    // Driver: a free-running counter every expression can draw from.
    b.trace("c");
    b.memory("c", "0", "next", "1", 1);
    b.alu("next", "4", "c.0.11", "1");
    let mut sources: Vec<(Ident, u8)> = vec![(Ident::from("c"), UNBOUNDED)];

    // Optional memory-mapped input port, one word per cycle.
    let has_input = io_every > 0 && rng.random_range(0..io_every) == 0;
    if has_input {
        // Address 1 reads an integer; size 1 (input ops never index cells).
        b.memory("inp", "1", "0", "2", 1);
        b.trace("inp");
        sources.push((Ident::from("inp"), UNBOUNDED));
    }

    // A few memories: ROMs, registers and dynamically switched.
    for m in 0..rng.random_range(1..=3usize) {
        let name = format!("m{m}");
        let bits = rng.random_range(1..=4u8);
        let cells = 1u32 << bits;
        let addr = field("c", 0, bits - 1);
        let bound = match rng.random_range(0..3) {
            0 => {
                let init: Vec<Word> = (0..cells).map(|_| rng.random_range(0..1000)).collect();
                // A ROM's latch only ever holds an init value.
                let bound = init.iter().copied().map(bits_needed).max().unwrap_or(1);
                b.memory_init(&name, addr, "0", "0", init);
                bound
            }
            op => {
                let data = pick_expr(&mut rng, &sources, clamp_fields).0;
                let op = if op == 1 { "1" } else { "c.0" };
                b.memory(&name, addr, data, op, cells);
                UNBOUNDED
            }
        };
        b.trace(&name);
        sources.push((Ident::new_unchecked(name), bound));
    }

    // Combinational layers: selectors with masked indices, ALUs with
    // constant, in-range functions.
    for i in 0..size {
        let name = format!("x{i}");
        let bound = if rng.random_range(0..4) == 0 {
            let bits = rng.random_range(1..=3u32);
            let cases: Vec<(Expr, u8)> = (0..(1 << bits))
                .map(|_| pick_expr(&mut rng, &sources, clamp_fields))
                .collect();
            let source = &sources[rng.random_range(0..sources.len())].0;
            let bound = cases.iter().map(|(_, b)| *b).max().unwrap_or(UNBOUNDED);
            let select = field(source.clone(), 0, bits as u8 - 1);
            b.selector(&name, select, cases.into_iter().map(|(case, _)| case));
            bound
        } else {
            let f = rng.random_range(0..=13i64);
            let left = pick_expr(&mut rng, &sources, clamp_fields).0;
            let right = pick_expr(&mut rng, &sources, clamp_fields).0;
            b.alu(&name, Expr::constant(f), left, right);
            // zero (0), unused (11), eq (12) and lt (13) are 1-bit.
            if matches!(f, 0 | 11 | 12 | 13) {
                1
            } else {
                UNBOUNDED
            }
        };
        if rng.random_range(0..3) == 0 {
            b.trace(&name);
        }
        sources.push((Ident::new_unchecked(name), bound));
    }

    // Stimulus: one word per cycle for the input port, plus slack.
    let input = if has_input {
        (0..cycles + 8)
            .map(|_| rng.random_range(0..100_000))
            .collect()
    } else {
        Vec::new()
    };
    (b.finish(), input)
}

/// The one-part expression `name.from.to`.
fn field(name: impl Into<Ident>, from: u8, to: u8) -> Expr {
    Expr::single(Part::field(name, from, to))
}

/// A random concatenation over `sources` and constants, plus the
/// provable bound `rtl-lint` assigns it (UNBOUNDED when none):
/// `bits_needed` of the folded value for all-constant expressions,
/// otherwise the sum of part widths with the leftmost part allowed to
/// be unsized. With `clamp`, a subfield read starts below its source's
/// bound, so it is never entirely above it.
fn pick_expr(rng: &mut StdRng, sources: &[(Ident, u8)], clamp: bool) -> (Expr, u8) {
    let parts = rng.random_range(1..=3usize);
    let mut out = Vec::with_capacity(parts);
    // (value, width) of each part while all are constant; the fold
    // mirrors the resolver (and the lint's `const_value`).
    let mut consts: Option<Vec<(i64, Option<u8>)>> = Some(Vec::new());
    let mut total: u32 = 0;
    for i in 0..parts {
        // Only the leftmost part may be full width; everything to its
        // right must be sized or the concatenation overflows 31 bits.
        let sized = i > 0 || rng.random_range(0..2) == 0;
        if rng.random_range(0..3) == 0 {
            // Constant part.
            let v = rng.random_range(0..16i64);
            if sized {
                out.push(Part::sized(v, 4));
                total += 4;
            } else {
                out.push(Part::constant(v));
                total += u32::from(bits_needed(v));
            }
            if let Some(c) = &mut consts {
                c.push((v, sized.then_some(4)));
            }
        } else {
            consts = None;
            let (s, bound) = &sources[rng.random_range(0..sources.len())];
            if sized {
                let from = rng.random_range(0..4u8);
                let from = if clamp { from.min(bound - 1) } else { from };
                let to = from + rng.random_range(0..4u8);
                out.push(Part::field(s.clone(), from, to));
                total += u32::from(to - from + 1);
            } else {
                out.push(Part::reference(s.clone()));
                total += u32::from(*bound);
            }
        }
    }
    let bound = match consts {
        // All-constant: fold right-to-left exactly like the resolver.
        Some(parts) => {
            let (mut value, mut pos) = (0i64, 0u32);
            for (v, width) in parts.into_iter().rev() {
                match width {
                    Some(w) => {
                        value += v << pos;
                        pos += u32::from(w);
                    }
                    None => value += v << pos, // leftmost fills to bit 31
                }
            }
            bits_needed(value)
        }
        None if total >= u32::from(UNBOUNDED) => UNBOUNDED,
        None => u8::try_from(total.max(1)).unwrap_or(UNBOUNDED),
    };
    (Expr::from_parts(out), bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtl_core::Design;

    #[test]
    fn chains_elaborate_at_every_size() {
        for n in [1, 2, 16, 128] {
            let d = Design::elaborate(&chain(n)).unwrap_or_else(|e| panic!("n={n}: {e}"));
            assert_eq!(d.comb_order().len(), n + 1);
        }
    }

    #[test]
    fn random_specs_elaborate_for_many_seeds() {
        for seed in 0..50 {
            let spec = random_spec(seed, 20);
            Design::elaborate(&spec).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn random_specs_are_deterministic() {
        let a = rtl_lang::pretty(&random_spec(7, 30));
        let b = rtl_lang::pretty(&random_spec(7, 30));
        assert_eq!(a, b);
    }

    /// The generator's bytes are pinned: an edit that changes what any
    /// seed generates fails here, and must say so where it updates the
    /// digests.
    #[test]
    fn random_spec_bytes_are_pinned() {
        let pinned = [
            (1, 0x0e61_4614_90a7_b435),
            (2, 0x4101_ef8b_f234_12e4),
            (10, 0x2960_167e_2e9b_04ce),
            (30, 0xe8e1_80f7_6f36_edd8),
            (200, 0xef2b_ec4c_9a3e_9646),
        ];
        for (size, digest) in pinned {
            let mut fp = rtl_core::Fingerprint::new();
            for seed in 0..50 {
                fp.write_str(&rtl_lang::pretty(&random_spec(seed, size)));
            }
            let got = fp.finish();
            assert_eq!(got, digest, "size {size}: {got:#018x}");
        }
    }

    /// A shorter horizon keeps the design and cuts only the stimulus's
    /// tail, by the cycles it drops: the design never reads `cycles`,
    /// and the stimulus is drawn last. Shrinking relies on this to run
    /// one design on prefixes of one stimulus for every horizon.
    #[test]
    fn a_shorter_horizon_keeps_the_design_and_a_stimulus_prefix() {
        const FULL: u64 = 64;
        for seed in 0..20 {
            for size in [1, 7, 30] {
                for io_every in [1, 2] {
                    let (spec, input) = generate(seed, size, io_every, FULL, "t", false);
                    for cycles in [0, 1, 9, 40, FULL - 1] {
                        let (short_spec, short) =
                            generate(seed, size, io_every, cycles, "t", false);
                        let at = format!("seed {seed} size {size} io {io_every} cycles {cycles}");
                        assert_eq!(short_spec, spec, "{at}");
                        assert!(input.starts_with(&short), "{at}");
                        let cut = if input.is_empty() { 0 } else { FULL - cycles };
                        assert_eq!((input.len() - short.len()) as u64, cut, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn random_specs_differ_across_seeds() {
        let a = rtl_lang::pretty(&random_spec(1, 30));
        let b = rtl_lang::pretty(&random_spec(2, 30));
        assert_ne!(a, b);
    }
}
