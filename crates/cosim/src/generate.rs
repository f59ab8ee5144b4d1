//! Seeded fuzz cases: the campaign's view of [`synth::generate`], the
//! one seeded design generator. A case is a valid-by-construction
//! specification, often with a memory-mapped input port and the
//! stimulus that feeds it, so a fuzz case exercises the full engine
//! surface: combinational evaluation, memory capture and update, trace
//! formatting and the input path. Any divergence a fuzz run finds is an
//! engine bug, never a bad scenario.
//!
//! [`generate_case`] returns the builder's [`Spec`] itself, and a fuzz
//! case (and every shrink size probe) elaborates that AST directly: a
//! generated design has no reader, so it skips the pretty-print → lex →
//! parse round trip. Source text is a view of the same case,
//! [`generate_scenario`], rendered only where text is the artifact — the
//! corpus `.asim` file and its fingerprint. Both views elaborate to the
//! same design, and lint to the same counts (covered by tests).

use rtl_core::Word;
use rtl_lang::Spec;
use rtl_machines::{synth, Scenario};

/// Generator tuning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenOptions {
    /// Combinational components to generate (clamped to `1..=200`).
    pub size: usize,
    /// Cycle horizon of the generated scenario (also sizes the stimulus).
    pub cycles: u64,
    /// Generate a memory-mapped input port (with stimulus) roughly every
    /// `1/io_every` cases; 0 disables input entirely.
    pub io_every: u32,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            size: 30,
            cycles: 64,
            io_every: 2,
        }
    }
}

/// One generated fuzz case before rendering: the builder's specification
/// AST plus the run it is driven for. Its spans are the builder's, one
/// per node (see `SpecBuilder`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedCase {
    /// Scenario name (`fuzz/seed-N`).
    pub name: String,
    /// The specification, as the builder assembled it.
    pub spec: Spec,
    /// Cycle horizon.
    pub cycles: u64,
    /// Scripted input words for the memory-mapped input port, if any.
    pub input: Vec<Word>,
}

impl GeneratedCase {
    /// Renders the case as a text [`Scenario`]: the specification
    /// pretty-printed, everything else moved.
    pub fn into_scenario(self) -> Scenario {
        Scenario {
            name: self.name,
            source: rtl_lang::pretty(&self.spec),
            cycles: self.cycles,
            input: self.input,
        }
    }
}

/// Deterministically generates one scenario from a seed, as text: the
/// [`generate_case`] result pretty-printed. Identical seed and options
/// always produce the identical scenario, so a fuzz report identifies a
/// failing case by seed alone.
pub fn generate_scenario(seed: u64, options: &GenOptions) -> Scenario {
    generate_case(seed, options).into_scenario()
}

/// Deterministically generates one fuzz case from a seed, as the
/// builder's [`Spec`] and the stimulus: [`synth::generate`] titled
/// `cosim fuzz case`, without clamped subfield reads. Fuzz cases and
/// shrink size probes elaborate the spec directly (moved, with
/// [`Design::elaborate_with`](rtl_core::Design::elaborate_with));
/// [`generate_scenario`] is the same case rendered as text.
pub fn generate_case(seed: u64, options: &GenOptions) -> GeneratedCase {
    let GenOptions {
        size,
        cycles,
        io_every,
    } = *options;
    let (spec, input) = synth::generate(seed, size, io_every, cycles, "cosim fuzz case", false);
    GeneratedCase {
        name: format!("fuzz/seed-{seed}"),
        spec,
        cycles,
        input,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtl_lang::ComponentKind;

    #[test]
    fn generation_is_deterministic() {
        let a = generate_scenario(7, &GenOptions::default());
        let b = generate_scenario(7, &GenOptions::default());
        assert_eq!(a, b);
        let c = generate_scenario(8, &GenOptions::default());
        assert_ne!(a.source, c.source);
    }

    /// The bytes of every campaign case are pinned: its text and its
    /// stimulus for a grid of seeds, sizes, input rates and horizons.
    /// Changing what any seed generates changes campaign results, so it
    /// fails here, and must say so where it updates the digests.
    #[test]
    fn generated_case_bytes_are_pinned() {
        let pinned = [
            (0, 0x7a06_980d_8ec5_ae25),
            (1, 0x61b0_9b30_341b_e1ae),
            (2, 0xb69c_3dbd_51b9_e046),
        ];
        for (io_every, digest) in pinned {
            let mut fp = rtl_core::Fingerprint::new();
            for size in [1, 30, 200] {
                for cycles in [0, 1, 64, 300] {
                    let options = GenOptions {
                        size,
                        cycles,
                        io_every,
                    };
                    for seed in 0..20 {
                        let case = generate_case(seed, &options);
                        fp.write_str(&rtl_lang::pretty(&case.spec));
                        fp.write_u64(case.input.len() as u64);
                        for &word in &case.input {
                            fp.write_u64(word as u64);
                        }
                    }
                }
            }
            let got = fp.finish();
            assert_eq!(got, digest, "io_every {io_every}: {got:#018x}");
        }
    }

    /// Asserts that the value-built `built` is the AST the parser reads
    /// from its rendering, `parsed`: component by component and
    /// expression by expression, ignoring spans (the builder numbers
    /// tokens, the parser counts bytes).
    fn assert_same_ast(built: &Spec, parsed: &Spec, at: &str) {
        assert_eq!(
            (&built.title, built.cycles),
            (&parsed.title, parsed.cycles),
            "{at}"
        );
        let declared = |s: &Spec| -> Vec<(String, bool)> {
            s.declared
                .iter()
                .map(|d| (d.name.to_string(), d.traced))
                .collect()
        };
        assert_eq!(declared(built), declared(parsed), "{at}");
        assert_eq!(built.components.len(), parsed.components.len(), "{at}");
        for (b, p) in built.components.iter().zip(&parsed.components) {
            let at = format!("{at} component {}", b.name);
            assert_eq!(
                (&b.name, b.kind.letter()),
                (&p.name, p.kind.letter()),
                "{at}"
            );
            if let (ComponentKind::Memory(bm), ComponentKind::Memory(pm)) = (&b.kind, &p.kind) {
                assert_eq!((bm.size, &bm.init), (pm.size, &pm.init), "{at}");
            }
            let (be, pe) = (b.kind.expressions(), p.kind.expressions());
            assert_eq!(be.len(), pe.len(), "{at}");
            for (i, (x, y)) in be.iter().zip(&pe).enumerate() {
                assert_eq!(x.parts, y.parts, "{at} expression {i}");
            }
        }
    }

    /// Both generator paths build their expressions as values; each
    /// built AST must be exactly what the parser reads from its text.
    /// Campaign cases are checked in
    /// `builder_spec_elaborates_like_its_text`; this covers the clamped
    /// path, [`synth::random_spec`], over the same seeds and sizes.
    #[test]
    fn random_spec_ast_is_what_its_text_parses_to() {
        for size in [1, 30, 200] {
            for seed in 0..200 {
                let spec = synth::random_spec(seed, size);
                let text = rtl_lang::pretty(&spec);
                let parsed = rtl_lang::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
                assert_same_ast(&spec, &parsed, &format!("seed {seed} size {size}"));
            }
        }
    }

    /// The invariant fuzz cases rest on: the builder's `Spec` is the AST
    /// its rendered text parses to, elaborating it gives the design the
    /// text parses and elaborates to, and the text is the spec
    /// pretty-printed.
    #[test]
    fn builder_spec_elaborates_like_its_text() {
        use rtl_core::{design_fingerprint, Design, ElabOptions};
        for size in [1, 30, 200] {
            for io_every in [0, 1, 2] {
                let options = GenOptions {
                    size,
                    io_every,
                    ..GenOptions::default()
                };
                for seed in 0..200 {
                    let case = generate_case(seed, &options);
                    let scenario = generate_scenario(seed, &options);
                    let at = format!("seed {seed} size {size} io_every {io_every}");
                    assert_eq!(rtl_lang::pretty(&case.spec), scenario.source, "{at}");
                    let ast =
                        rtl_lang::parse(&scenario.source).unwrap_or_else(|e| panic!("{at}: {e}"));
                    assert_same_ast(&case.spec, &ast, &at);
                    assert_eq!(
                        (&case.name, case.cycles, &case.input),
                        (&scenario.name, scenario.cycles, &scenario.input),
                        "{at}"
                    );
                    let direct = Design::elaborate_with(case.spec, ElabOptions::default())
                        .unwrap_or_else(|e| panic!("{at}: {e}"));
                    let parsed = Design::from_source(&scenario.source)
                        .unwrap_or_else(|e| panic!("{at}: {e}"));
                    assert_eq!(
                        design_fingerprint(&direct),
                        design_fingerprint(&parsed),
                        "{at}"
                    );
                    assert_eq!(direct.comb_order(), parsed.comb_order(), "{at}");
                    assert_eq!(direct.memories(), parsed.memories(), "{at}");
                    assert_eq!(direct.traced(), parsed.traced(), "{at}");
                    assert_eq!(direct.warnings(), parsed.warnings(), "{at}");
                }
            }
        }
    }

    #[test]
    fn many_seeds_elaborate() {
        for seed in 0..60 {
            let s = generate_scenario(seed, &GenOptions::default());
            s.design()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", s.source));
        }
    }

    #[test]
    fn io_cases_carry_enough_stimulus() {
        let options = GenOptions {
            io_every: 1,
            ..GenOptions::default()
        };
        for seed in 0..10 {
            let s = generate_scenario(seed, &options);
            assert!(
                s.source.contains("M inp"),
                "io_every=1 must generate a port\n{}",
                s.source
            );
            assert!(
                s.input.len() as u64 >= s.cycles,
                "stimulus must cover the horizon"
            );
        }
    }

    #[test]
    fn io_can_be_disabled() {
        let options = GenOptions {
            io_every: 0,
            ..GenOptions::default()
        };
        for seed in 0..10 {
            let s = generate_scenario(seed, &options);
            assert!(!s.source.contains("M inp"));
            assert!(s.input.is_empty());
        }
    }
}
