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
//! Every probe takes the fuzz case's own path: generate the case's
//! [`Spec`](rtl_lang::Spec), elaborate it (moved, no text round trip)
//! and run it through [`rtl_cosim::run_design_names`]. Source text is
//! rendered once, for the minimal scenario the corpus saves.

use crate::error::CampaignError;
use rtl_core::{Design, ElabOptions, EngineRegistry, Word};
use rtl_cosim::{
    generate_case, CosimOptions, CosimOutcome, DivergenceReport, GenOptions, GeneratedCase,
    ScenarioError,
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
    /// The divergence the minimal scenario produces.
    pub report: DivergenceReport,
    /// Final generator size (component count knob).
    pub size: usize,
    /// Final cycle horizon.
    pub cycles: u64,
    /// Final stimulus length.
    pub input_len: usize,
    /// Lockstep re-runs the search spent.
    pub attempts: u32,
}

/// Shrinks the fuzz case identified by `seed` under the given generator
/// options. Returns `Ok(None)` when the case does not diverge in the
/// first place.
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
    let mut attempts = 0u32;
    let mut probe_input = |case: &Candidate, input: &[Word]| {
        attempts += 1;
        match run(registry, engines, case, input, cosim) {
            // A candidate is only a valid shrink if its divergence stands
            // on its own: a comparison that also tripped a runtime halt
            // (e.g. an over-truncated stimulus exhausting input on the
            // divergence cycle) would archive a scenario that *halts* for
            // correct engines instead of agreeing — useless as a
            // regression gate. Error-kind divergences are the exception:
            // there the mismatched errors are the bug itself.
            Ok(CosimOutcome::Divergence(report)) => {
                let usable = matches!(report.kind, rtl_cosim::DivergenceKind::Error)
                    || report.lanes.iter().all(|l| l.error.is_none());
                Ok(usable.then_some(*report))
            }
            Ok(CosimOutcome::Agreement { .. }) => Ok(None),
            Err(e) => Err(CampaignError::from(e)),
        }
    };
    let generate = |size: usize, cycles: u64| {
        Candidate::generate(
            seed,
            &GenOptions {
                size,
                cycles,
                io_every: generator.io_every,
            },
        )
    };
    // A size/horizon probe holds its design only while it runs.
    let mut probe = |size: usize, cycles: u64| -> Result<Option<DivergenceReport>, CampaignError> {
        let case = generate(size, cycles)?;
        probe_input(&case, &case.input)
    };

    let Some(mut best_report) = probe(generator.size, generator.cycles)? else {
        return Ok(None);
    };

    // 1. Size: first-diverging binary search over [1, size]. The upper
    //    bound is always a confirmed-diverging size, so the result is too.
    let mut lo = 1usize;
    let mut best_size = generator.size.max(1);
    while lo < best_size {
        let mid = lo + (best_size - lo) / 2;
        match probe(mid, generator.cycles)? {
            Some(report) => {
                best_size = mid;
                best_report = report;
            }
            None => lo = mid + 1,
        }
    }

    // 2. Horizon: the divergence happened at cycle c, so any horizon
    //    > c reaches it (a shorter horizon only truncates the run). Search
    //    the first-diverging horizon in [1, c + 1].
    let observed = u64::try_from(best_report.cycle).unwrap_or(generator.cycles);
    let mut best_cycles = (observed + 1).min(generator.cycles.max(1));
    match probe(best_size, best_cycles)? {
        Some(report) => best_report = report,
        // The horizon interacts with the stimulus length; fall back to
        // the full horizon if the tightened bound loses the divergence.
        None => best_cycles = generator.cycles.max(1),
    }
    let mut lo = 1u64;
    while lo < best_cycles {
        let mid = lo + (best_cycles - lo) / 2;
        match probe(best_size, mid)? {
            Some(report) => {
                best_cycles = mid;
                best_report = report;
            }
            None => lo = mid + 1,
        }
    }

    // 3. Stimulus: the shortest prefix of the input script that still
    //    diverges (an over-truncated script halts the lanes unanimously
    //    with input-exhausted instead of diverging, ending the search).
    let mut minimal = generate(best_size, best_cycles)?;
    let mut best_len = minimal.input.len();
    let mut lo = 0usize;
    while lo < best_len {
        let mid = lo + (best_len - lo) / 2;
        match probe_input(&minimal, &minimal.input[..mid])? {
            Some(report) => {
                best_len = mid;
                best_report = report;
            }
            None => lo = mid + 1,
        }
    }
    minimal.input.truncate(best_len);

    let input_len = minimal.input.len();
    let scenario = Scenario {
        name: format!("corpus/seed-{seed}"),
        source: rtl_lang::pretty(minimal.design.spec()),
        cycles: minimal.cycles,
        input: minimal.input,
    };
    best_report.scenario = scenario.name.clone();
    Ok(Some(Shrunk {
        seed,
        scenario,
        report: best_report,
        size: best_size,
        cycles: best_cycles,
        input_len,
        attempts,
    }))
}

fn run(
    registry: &EngineRegistry,
    engines: &[String],
    case: &Candidate,
    input: &[Word],
    cosim: &CosimOptions,
) -> Result<CosimOutcome, ScenarioError> {
    rtl_cosim::run_design_names(
        registry,
        engines,
        &case.design,
        &case.name,
        case.cycles,
        input,
        cosim,
    )
}

/// One shrink candidate: a generated case with its spec elaborated.
struct Candidate {
    name: String,
    design: Design,
    cycles: u64,
    input: Vec<Word>,
}

impl Candidate {
    fn generate(seed: u64, options: &GenOptions) -> Result<Candidate, CampaignError> {
        let GeneratedCase {
            name,
            spec,
            cycles,
            input,
        } = generate_case(seed, options);
        let design =
            Design::elaborate_with(spec, ElabOptions::default()).map_err(ScenarioError::from)?;
        Ok(Candidate {
            name,
            design,
            cycles,
            input,
        })
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
    /// probe path changes.
    #[test]
    fn shrink_results_are_pinned() {
        // (seed, fault cycle, generator) -> (size, cycles, input_len,
        // attempts, divergence cycle, entry fingerprint)
        let cases = [
            (
                5,
                40,
                (30, 64, 2),
                (1, 41, 0, 12, 40, 0xe06d_5a63_f483_7a4a),
            ),
            (
                3,
                40,
                (30, 64, 2),
                (1, 41, 41, 18, 40, 0x74ac_205a_effd_5d25),
            ),
            (0, 8, (20, 64, 1), (1, 9, 9, 15, 8, 0x7f08_fe83_822f_46db)),
        ];
        for (seed, fault, (size, cycles, io_every), want) in cases {
            let shrunk = shrink_divergence(
                &registry_with_fault(fault),
                &names(&["interp", "vm-fault"]),
                seed,
                &GenOptions {
                    size,
                    cycles,
                    io_every,
                },
                &CosimOptions::default(),
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
