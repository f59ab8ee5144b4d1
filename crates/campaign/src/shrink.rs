//! Shrinking divergent fuzz cases to minimal regression scenarios.
//!
//! A raw fuzz divergence is a haystack: a few hundred components driven
//! for a long horizon. Borrowing the binary-search discipline of
//! property-based shrinking (à la proptest), this module minimizes the
//! three knobs that matter, re-running the full lockstep comparison per
//! candidate and keeping only confirmed-diverging shrinks:
//!
//! 1. **generator size** — the smallest component count whose scenario
//!    still diverges (each probe regenerates the scenario from the same
//!    seed, so candidates stay valid by construction);
//! 2. **cycle horizon** — the shortest run that still reaches the
//!    divergence (bounded above by the observed divergence cycle);
//! 3. **stimulus length** — the shortest input-script prefix that still
//!    diverges.
//!
//! Divergence is not monotone in the size knob (a smaller design is a
//! different design), so as in all practical shrinkers the result is a
//! *locally* minimal diverging scenario, found greedily: the search only
//! ever moves to candidates that were re-run and confirmed to diverge.
//!
//! A shrink starts from a divergence already observed: the fuzz case's
//! own run, handed over by the campaign runner ([`shrink_from`]), or one
//! [`shrink_divergence`] runs first. It counts as the first of the
//! search's `attempts`, which therefore also count the case's own run.
//! Each size probe generates that size's [`Spec`](rtl_lang::Spec),
//! elaborates it (moved, no text round trip) and runs it through
//! [`rtl_cosim::run_design_names`]. The horizon and stimulus phases then
//! reuse the best size's design and stimulus: a shorter horizon
//! generates the same design and a prefix of the same stimulus (pinned
//! by `rtl_machines::synth`'s tests), so each of their probes runs that
//! one design on a slice. They run on lanes built once: one
//! [`Harness`] is prepared for the best size's design, and every probe
//! restarts its lanes at cycle 0 (a restarted run returns what a fresh
//! one would, statistics and counters included). Source text is
//! rendered once, for the minimal scenario the corpus saves, and the
//! minimal design travels with it in [`Shrunk::design`].

use crate::error::CampaignError;
use rtl_core::{Design, ElabOptions, EngineRegistry, Word};
use rtl_cosim::{
    generate_case, CosimOptions, CosimOutcome, DivergenceKind, DivergenceReport, GenOptions,
    GeneratedCase, Harness, ScenarioError,
};
use rtl_machines::Scenario;

/// A minimized divergence: the scenario to save, the divergence it still
/// produces, and how it was reached.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// The originating fuzz seed.
    pub seed: u64,
    /// The minimal scenario (named `corpus/seed-N`).
    pub scenario: Scenario,
    /// The minimal scenario's design, elaborated: what `scenario`'s
    /// source parses and elaborates to.
    pub design: Design,
    /// The divergence the minimal scenario produces.
    pub report: DivergenceReport,
    /// Final generator size (component count knob).
    pub size: usize,
    /// Final cycle horizon.
    pub cycles: u64,
    /// Final stimulus length.
    pub input_len: usize,
    /// Lockstep runs the search spent, the case's own run included.
    pub attempts: u32,
}

/// Shrinks the fuzz case identified by `seed` under the given generator
/// options: runs the case, then [`shrink_from`] its divergence. Returns
/// `Ok(None)` when the case does not diverge in the first place.
///
/// Deterministic: the result depends only on the arguments, so parallel
/// workers shrinking different cases stay order-independent.
///
/// # Errors
///
/// Lane construction/run failures; a scenario that fails to elaborate
/// (impossible for generated cases unless the generator invariant broke).
pub fn shrink_divergence(
    registry: &EngineRegistry,
    engines: &[String],
    seed: u64,
    generator: &GenOptions,
    cosim: &CosimOptions,
) -> Result<Option<Shrunk>, CampaignError> {
    let case = Candidate::generate(seed, generator.size, generator)?;
    match case.run(registry, engines, cosim)? {
        CosimOutcome::Divergence(first) => {
            shrink_from(registry, engines, seed, generator, cosim, &first)
        }
        CosimOutcome::Agreement { .. } => Ok(None),
    }
}

/// Shrinks the fuzz case identified by `seed`, given `first`, the
/// divergence its own run under `generator` produced (the case's run
/// counts as the first attempt). Returns `Ok(None)` when `first` is no
/// usable shrink: a divergence that also tripped a runtime halt, unless
/// mismatched errors are the divergence itself.
///
/// `first` is read only to decide whether to shrink and where the
/// horizon search starts; it is never saved. The case may have run with
/// options its probes do not take (a checkpoint or resume document, a
/// profile hook, a flight-tapped recorder), so the saved report always
/// comes from a run this search made.
///
/// # Errors
///
/// As [`shrink_divergence`].
pub fn shrink_from(
    registry: &EngineRegistry,
    engines: &[String],
    seed: u64,
    generator: &GenOptions,
    cosim: &CosimOptions,
    first: &DivergenceReport,
) -> Result<Option<Shrunk>, CampaignError> {
    if !usable(first) {
        return Ok(None);
    }
    let mut attempts = 1u32;

    // 1. Size: first-diverging binary search over [1, size]. The upper
    //    bound is always a confirmed-diverging size, so the result is too.
    //    The last diverging probe's design and full stimulus serve the
    //    later phases.
    let mut lo = 1usize;
    let mut best_size = generator.size.max(1);
    let mut best = None;
    while lo < best_size {
        let mid = lo + (best_size - lo) / 2;
        let case = Candidate::generate(seed, mid, generator)?;
        attempts += 1;
        match verdict(case.run(registry, engines, cosim)?) {
            Some(report) => {
                best_size = mid;
                best = Some((case, report));
            }
            None => lo = mid + 1,
        }
    }
    let (case, mut best_report) = match best {
        Some((case, report)) => (case, Some(report)),
        None => (Candidate::generate(seed, best_size, generator)?, None),
    };
    // Phases 2–3 probe that one design on one harness: its lanes are
    // built once, and every probe restarts them at cycle 0.
    let mut harness = Harness::prepare(registry, engines, &case.design, &case.name, cosim)?;
    let mut probe = |cycles: u64, input: &[Word]| {
        attempts += 1;
        harness.run(cycles, input).map(verdict)
    };

    // 2. Horizon: the divergence happened at cycle c, so any horizon
    //    > c reaches it (a shorter horizon only truncates the run). Search
    //    the first-diverging horizon in [1, c + 1].
    let observed = best_report.as_ref().unwrap_or(first).cycle;
    let observed = u64::try_from(observed).unwrap_or(case.cycles);
    let mut best_cycles = (observed + 1).min(case.cycles);
    match probe(best_cycles, case.stimulus(best_cycles))? {
        Some(report) => best_report = Some(report),
        // The horizon interacts with the stimulus length; fall back to
        // the full horizon if the tightened bound loses the divergence.
        None => best_cycles = case.cycles,
    }
    let mut lo = 1u64;
    while lo < best_cycles {
        let mid = lo + (best_cycles - lo) / 2;
        match probe(mid, case.stimulus(mid))? {
            Some(report) => {
                best_cycles = mid;
                best_report = Some(report);
            }
            None => lo = mid + 1,
        }
    }

    // 3. Stimulus: the shortest prefix of the input script that still
    //    diverges (an over-truncated script halts the lanes unanimously
    //    with input-exhausted instead of diverging, ending the search).
    let input = case.stimulus(best_cycles);
    let mut best_len = input.len();
    let mut lo = 0usize;
    while lo < best_len {
        let mid = lo + (best_len - lo) / 2;
        match probe(best_cycles, &input[..mid])? {
            Some(report) => {
                best_len = mid;
                best_report = Some(report);
            }
            None => lo = mid + 1,
        }
    }
    let input = input[..best_len].to_vec();

    let mut report = match best_report {
        Some(report) => report,
        // No probe diverged, so the minimal scenario is the case itself:
        // rerun it for its report. This is the first attempt's run, which
        // `first` stood in for, so it is not counted again.
        None => match verdict(harness.run(best_cycles, &input)?) {
            Some(report) => report,
            None => return Ok(None),
        },
    };
    // The lanes borrow the design `Shrunk` takes.
    drop(harness);
    let scenario = Scenario {
        name: format!("corpus/seed-{seed}"),
        source: rtl_lang::pretty(case.design.spec()),
        cycles: best_cycles,
        input,
    };
    report.scenario = scenario.name.clone();
    Ok(Some(Shrunk {
        seed,
        scenario,
        design: case.design,
        report,
        size: best_size,
        cycles: best_cycles,
        input_len: best_len,
        attempts,
    }))
}

/// A probe's verdict: the divergence, if it is a usable shrink.
fn verdict(outcome: CosimOutcome) -> Option<DivergenceReport> {
    match outcome {
        CosimOutcome::Divergence(report) if usable(&report) => Some(*report),
        _ => None,
    }
}

/// Whether a divergence is a valid shrink on its own: a comparison that
/// also tripped a runtime halt (e.g. an over-truncated stimulus
/// exhausting input on the divergence cycle) would archive a scenario
/// that *halts* for correct engines instead of agreeing — useless as a
/// regression gate. Error-kind divergences are the exception: there the
/// mismatched errors are the bug itself.
fn usable(report: &DivergenceReport) -> bool {
    matches!(report.kind, DivergenceKind::Error) || report.lanes.iter().all(|l| l.error.is_none())
}

/// One shrink candidate: a generated case with its spec elaborated.
struct Candidate {
    name: String,
    design: Design,
    cycles: u64,
    input: Vec<Word>,
}

impl Candidate {
    fn generate(
        seed: u64,
        size: usize,
        generator: &GenOptions,
    ) -> Result<Candidate, CampaignError> {
        let GeneratedCase {
            name,
            spec,
            cycles,
            input,
        } = generate_case(seed, &GenOptions { size, ..*generator });
        let design =
            Design::elaborate_with(spec, ElabOptions::default()).map_err(ScenarioError::from)?;
        Ok(Candidate {
            name,
            design,
            cycles,
            input,
        })
    }

    /// Runs the whole case: its full horizon and stimulus.
    fn run(
        &self,
        registry: &EngineRegistry,
        engines: &[String],
        cosim: &CosimOptions,
    ) -> Result<CosimOutcome, ScenarioError> {
        rtl_cosim::run_design_names(
            registry,
            engines,
            &self.design,
            &self.name,
            self.cycles,
            &self.input,
            cosim,
        )
    }

    /// The stimulus the case generates for a shorter `cycles` horizon:
    /// the same words, less one from the tail for every cycle cut (none
    /// without an input port).
    fn stimulus(&self, cycles: u64) -> &[Word] {
        debug_assert!(
            cycles <= self.cycles,
            "horizon {cycles} beyond {}",
            self.cycles
        );
        let cut = usize::try_from(self.cycles - cycles).unwrap_or(usize::MAX);
        &self.input[..self.input.len().saturating_sub(cut)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtl_cosim::fault::FaultyVmFactory;

    fn registry_with_fault(from_cycle: u64) -> EngineRegistry {
        let mut r = rtl_cosim::default_registry();
        r.register(Box::new(FaultyVmFactory::from_cycle(from_cycle)));
        r
    }

    fn names(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn agreeing_cases_do_not_shrink() {
        let registry = rtl_cosim::default_registry();
        let result = shrink_divergence(
            &registry,
            &names(&["interp", "vm"]),
            1,
            &GenOptions {
                size: 10,
                cycles: 24,
                ..GenOptions::default()
            },
            &CosimOptions::default(),
        )
        .unwrap();
        assert!(result.is_none());
    }

    #[test]
    fn injected_fault_shrinks_to_its_trigger_cycle() {
        // The faulty VM corrupts trace bytes from cycle 40 on; the minimal
        // reproduction is one component and a 41-cycle horizon.
        let registry = registry_with_fault(40);
        let generator = GenOptions {
            size: 30,
            cycles: 64,
            ..GenOptions::default()
        };
        let shrunk = shrink_divergence(
            &registry,
            &names(&["interp", "vm-fault"]),
            5,
            &generator,
            &CosimOptions::default(),
        )
        .unwrap()
        .expect("fault diverges");
        assert_eq!(shrunk.size, 1, "size shrinks to one component");
        assert_eq!(shrunk.cycles, 41, "horizon shrinks to trigger + 1");
        assert_eq!(shrunk.report.cycle, 40);
        assert_eq!(shrunk.scenario.name, "corpus/seed-5");
        assert!(shrunk.attempts < 40, "binary search, not linear scan");

        // Shrinking is deterministic.
        let again = shrink_divergence(
            &registry,
            &names(&["interp", "vm-fault"]),
            5,
            &generator,
            &CosimOptions::default(),
        )
        .unwrap()
        .unwrap();
        assert_eq!(again.scenario, shrunk.scenario);
        assert_eq!(again.attempts, shrunk.attempts);
    }

    /// Exact shrink results for a few fault-registry seeds. The probe
    /// count (`campaign/shrink_probes`) and the saved entry are part of a
    /// campaign's deterministic output, so they must not move when the
    /// probe path changes. The coarse-stride row reuses a harness across
    /// bisection rewinds, and the lint-oracle row across oracle
    /// comparators (its minimal design has static claims).
    #[test]
    fn shrink_results_are_pinned() {
        let stride = |compare_every| CosimOptions {
            compare_every,
            ..CosimOptions::default()
        };
        let oracle = CosimOptions {
            lint_oracle: true,
            ..CosimOptions::default()
        };
        // (seed, fault cycle, generator, cosim) -> (size, cycles,
        // input_len, attempts, divergence cycle, entry fingerprint)
        let cases = [
            (
                5,
                40,
                (30, 64, 2),
                stride(1),
                (1, 41, 0, 12, 40, 0xe06d_5a63_f483_7a4a),
            ),
            (
                3,
                40,
                (30, 64, 2),
                stride(1),
                (1, 41, 41, 18, 40, 0x74ac_205a_effd_5d25),
            ),
            (
                0,
                8,
                (20, 64, 1),
                stride(1),
                (1, 9, 9, 15, 8, 0x7f08_fe83_822f_46db),
            ),
            (
                7,
                40,
                (30, 64, 2),
                stride(16),
                (1, 41, 41, 18, 40, 0x460a_440b_b02b_dbc1),
            ),
            (
                4,
                8,
                (20, 64, 1),
                oracle,
                (1, 9, 9, 15, 8, 0x4575_b39a_ddf4_e26e),
            ),
        ];
        for (seed, fault, (size, cycles, io_every), cosim, want) in cases {
            let shrunk = shrink_divergence(
                &registry_with_fault(fault),
                &names(&["interp", "vm-fault"]),
                seed,
                &GenOptions {
                    size,
                    cycles,
                    io_every,
                },
                &cosim,
            )
            .unwrap()
            .expect("fault diverges");
            let got = (
                shrunk.size,
                shrunk.cycles,
                shrunk.input_len,
                shrunk.attempts,
                shrunk.report.cycle,
                crate::corpus::entry_fingerprint(&shrunk.scenario),
            );
            assert_eq!(got, want, "seed {seed}");
        }
    }

    /// The report a shrink saves is what its saved scenario reports when
    /// run afresh: no probe's leftovers (lane statistics in particular)
    /// reach it.
    #[test]
    fn the_saved_report_is_what_the_saved_scenario_reports() {
        let registry = registry_with_fault(rtl_cosim::DEFAULT_FAULT_CYCLE);
        let engines = names(&["interp", "vm-fault"]);
        let generator = GenOptions {
            size: 30,
            cycles: 64,
            io_every: 2,
        };
        for seed in 1..40 {
            let shrunk = shrink_divergence(
                &registry,
                &engines,
                seed,
                &generator,
                &CosimOptions::default(),
            )
            .unwrap()
            .expect("fault diverges");
            assert_eq!(
                fresh_report(&registry, &engines, 2, &shrunk),
                shrunk.report,
                "seed {seed}"
            );
        }
    }

    /// A handed report steers the search but is never saved, not even
    /// when no probe diverges and the minimal scenario is the case
    /// itself: that scenario is rerun for its report.
    #[test]
    fn a_handed_report_is_never_saved() {
        // One component, no input and a fault on the last cycle: only the
        // full case diverges, so every probe agrees.
        let registry = registry_with_fault(63);
        let engines = names(&["interp", "vm-fault"]);
        let generator = GenOptions {
            size: 1,
            cycles: 64,
            io_every: 0,
        };
        let cosim = CosimOptions::default();
        let honest = shrink_divergence(&registry, &engines, 2, &generator, &cosim)
            .unwrap()
            .expect("fault diverges");
        let case = generate_case(2, &generator);
        let design = Design::elaborate_with(case.spec, ElabOptions::default()).unwrap();
        let outcome =
            rtl_cosim::run_design_names(&registry, &engines, &design, &case.name, 64, &[], &cosim)
                .unwrap();
        let CosimOutcome::Divergence(mut handed) = outcome else {
            panic!("fault diverges");
        };
        // Doctored: an earlier cycle sends the horizon search astray, and
        // no lane statistics match a fresh run.
        handed.cycle = 5;
        for lane in &mut handed.lanes {
            lane.stats = None;
        }
        let shrunk = shrink_from(&registry, &engines, 2, &generator, &cosim, &handed)
            .unwrap()
            .expect("the case diverges");
        assert_eq!((shrunk.cycles, shrunk.input_len), (64, 0));
        assert_eq!(shrunk.scenario, honest.scenario);
        assert_eq!(shrunk.report, honest.report);
        assert_eq!(fresh_report(&registry, &engines, 0, &shrunk), shrunk.report);
    }

    /// The divergence `shrunk`'s generated case reports, run afresh on
    /// the saved horizon and stimulus.
    fn fresh_report(
        registry: &EngineRegistry,
        engines: &[String],
        io_every: u32,
        shrunk: &Shrunk,
    ) -> DivergenceReport {
        let generator = GenOptions {
            size: shrunk.size,
            cycles: shrunk.cycles,
            io_every,
        };
        let case = generate_case(shrunk.seed, &generator);
        assert_eq!(rtl_lang::pretty(&case.spec), shrunk.scenario.source);
        let design = Design::elaborate_with(case.spec, ElabOptions::default()).unwrap();
        match rtl_cosim::run_design_names(
            registry,
            engines,
            &design,
            &shrunk.scenario.name,
            shrunk.cycles,
            &shrunk.scenario.input,
            &CosimOptions::default(),
        )
        .unwrap()
        {
            CosimOutcome::Divergence(report) => *report,
            CosimOutcome::Agreement { .. } => {
                panic!("seed {}: the saved scenario agrees", shrunk.seed)
            }
        }
    }

    #[test]
    fn stimulus_shrinks_with_the_horizon() {
        // Force an input port (io_every = 1) and check the stimulus is
        // truncated to what the shrunk horizon consumes.
        let registry = registry_with_fault(8);
        let shrunk = shrink_divergence(
            &registry,
            &names(&["interp", "vm-fault"]),
            0,
            &GenOptions {
                size: 20,
                cycles: 64,
                io_every: 1,
            },
            &CosimOptions::default(),
        )
        .unwrap()
        .expect("fault diverges");
        assert_eq!(shrunk.cycles, 9);
        assert!(
            shrunk.input_len <= 10,
            "stimulus truncated to the horizon's consumption, got {}",
            shrunk.input_len
        );
    }
}
