//! The seeded scenario generator: valid-by-construction random ASIM II
//! specifications *with stimulus scripts*.
//!
//! Where [`rtl_machines::synth::random_spec`] generates closed designs for
//! property tests, this generator also wires in memory-mapped input fed by
//! a seeded stimulus script, so a fuzz case exercises the full engine
//! surface: combinational evaluation, memory capture/update, trace
//! formatting, and the input path. Every construction rule keeps the
//! design free of runtime errors — addresses are bit-masked to the memory
//! size, selector indices to the case count, ALU functions stay in
//! `0..=13`, and the stimulus script always holds enough words — so any
//! divergence a fuzz run finds is an engine bug, never a bad scenario.
//!
//! [`generate_case`] returns the builder's [`Spec`] itself, and a fuzz
//! case (and every shrink probe) elaborates that AST directly: a
//! generated design has no reader, so it skips the pretty-print → lex →
//! parse round trip. Source text is a view of the same case,
//! [`generate_scenario`], rendered only where text is the artifact — the
//! corpus `.asim` file and its fingerprint, and lint under an enabled
//! recorder. Both views elaborate to the same design (covered by tests).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rtl_core::Word;
use rtl_lang::Spec;
use rtl_machines::{Scenario, SpecBuilder};

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
/// AST plus the run it is driven for. Its spans are all
/// [`Span::default()`](rtl_lang::Span); nothing on the execution path
/// reads them.
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
/// builder's [`Spec`] and the stimulus. Fuzz cases and shrink probes
/// elaborate the spec directly (moved, with
/// [`Design::elaborate_with`](rtl_core::Design::elaborate_with));
/// [`generate_scenario`] is the same case rendered as text.
pub fn generate_case(seed: u64, options: &GenOptions) -> GeneratedCase {
    let mut rng = StdRng::seed_from_u64(seed);
    let size = options.size.clamp(1, 200);
    let mut b = SpecBuilder::new(format!("cosim fuzz case seed {seed} size {size}"));

    // Driver: a free-running counter every expression can draw from.
    b.trace("c");
    b.memory("c", "0", "next", "1", 1);
    b.alu("next", "4", "c.0.11", "1");
    let mut sources: Vec<String> = vec!["c".into()];

    // Optional memory-mapped input port, one word per cycle.
    let has_input = options.io_every > 0 && rng.random_range(0..options.io_every) == 0;
    if has_input {
        // Address 1 reads an integer; size 1 (input ops never index cells).
        b.memory("inp", "1", "0", "2", 1);
        b.trace("inp");
        sources.push("inp".into());
    }

    // A few internal memories: ROMs, registers, and dynamically-switched.
    let mem_count = rng.random_range(1..=3u32);
    for m in 0..mem_count {
        let name = format!("m{m}");
        let bits = rng.random_range(1..=4u8);
        let cells = 1u32 << bits;
        let addr = format!("c.0.{}", bits - 1);
        match rng.random_range(0..3) {
            0 => {
                let init: Vec<Word> = (0..cells).map(|_| rng.random_range(0..1000)).collect();
                b.memory_init(&name, &addr, "0", "0", init);
            }
            1 => {
                let data = pick_expr(&mut rng, &sources);
                b.memory(&name, &addr, &data, "1", cells);
            }
            _ => {
                let data = pick_expr(&mut rng, &sources);
                b.memory(&name, &addr, &data, "c.0", cells);
            }
        }
        b.trace(&name);
        sources.push(name);
    }

    // Combinational layers: ALUs with in-range functions, selectors with
    // masked indices.
    for i in 0..size {
        let name = format!("x{i}");
        if rng.random_range(0..4) == 0 {
            let bits = rng.random_range(1..=3u32);
            let cases: Vec<String> = (0..(1 << bits))
                .map(|_| pick_expr(&mut rng, &sources))
                .collect();
            let sel = format!("{}.0.{}", pick_source(&mut rng, &sources), bits - 1);
            b.selector(&name, &sel, cases);
        } else {
            let f = rng.random_range(0..=13i64).to_string();
            let left = pick_expr(&mut rng, &sources);
            let right = pick_expr(&mut rng, &sources);
            b.alu(&name, &f, &left, &right);
        }
        if rng.random_range(0..3) == 0 {
            b.trace(&name);
        }
        sources.push(name);
    }

    // Stimulus: one word per cycle for the input port, plus slack in case
    // a future edit adds a second port.
    let input = if has_input {
        (0..options.cycles + 8)
            .map(|_| rng.random_range(0..100_000i64))
            .collect()
    } else {
        Vec::new()
    };

    GeneratedCase {
        name: format!("fuzz/seed-{seed}"),
        spec: b.finish(),
        cycles: options.cycles,
        input,
    }
}

fn pick_source(rng: &mut StdRng, sources: &[String]) -> String {
    sources[rng.random_range(0..sources.len())].clone()
}

/// A concatenation expression over existing sources and constants; only
/// the leftmost part may be unsized (the 31-bit width budget).
fn pick_expr(rng: &mut StdRng, sources: &[String]) -> String {
    let parts = rng.random_range(1..=3usize);
    let mut out = Vec::with_capacity(parts);
    for i in 0..parts {
        let sized = i > 0 || rng.random_range(0..2) == 0;
        if rng.random_range(0..3) == 0 {
            let v = rng.random_range(0..16i64);
            if sized {
                out.push(format!("{v}.4"));
            } else {
                out.push(v.to_string());
            }
        } else {
            let s = pick_source(rng, sources);
            if sized {
                let from = rng.random_range(0..4u8);
                let to = from + rng.random_range(0..4u8);
                out.push(format!("{s}.{from}.{to}"));
            } else {
                out.push(s);
            }
        }
    }
    out.join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate_scenario(7, &GenOptions::default());
        let b = generate_scenario(7, &GenOptions::default());
        assert_eq!(a, b);
        let c = generate_scenario(8, &GenOptions::default());
        assert_ne!(a.source, c.source);
    }

    /// The invariant fuzz cases rest on: elaborating the builder's `Spec`
    /// gives the design the rendered text parses and elaborates to, and
    /// the text is the spec pretty-printed.
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
