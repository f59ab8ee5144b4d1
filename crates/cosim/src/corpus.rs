//! Runs the built-in scenario corpus through lockstep.

use crate::lockstep::CosimOptions;
use crate::report::{self, ScenarioResult};
use crate::stream::{run_scenario_names, ScenarioError};
use rtl_core::EngineRegistry;
use rtl_machines::scenarios;

/// Results for a corpus sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusReport {
    /// Engine lane names compared.
    pub engines: Vec<String>,
    /// Per-scenario results, in registry order.
    pub results: Vec<ScenarioResult>,
}

impl CorpusReport {
    /// `true` when every scenario agreed *and* ran its full horizon.
    /// Registered scenarios promise a clean run at their cycle count, so
    /// a unanimous halt is a failure even though the engines agree —
    /// otherwise a scenario halting at cycle 0 would verify nothing and
    /// still report green.
    pub fn clean(&self) -> bool {
        report::all_clean(&self.results)
    }

    /// Scenarios that ended in a unanimous halt.
    pub fn halts(&self) -> impl Iterator<Item = &ScenarioResult> {
        self.results.iter().filter(|r| r.stop.halt().is_some())
    }

    /// Scenarios whose engines diverged.
    pub fn divergences(&self) -> impl Iterator<Item = &ScenarioResult> {
        report::divergences(&self.results)
    }

    /// Total cycles verified across the corpus.
    pub fn total_cycles(&self) -> u64 {
        report::total_cycles(&self.results)
    }
}

impl std::fmt::Display for CorpusReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "cosim corpus sweep, engines [{}]",
            self.engines.join(", ")
        )?;
        report::write_results(f, &self.results)
    }
}

/// Locksteps every scenario in the built-in corpus across the named
/// registry lanes (stream lanes included — see
/// [`run_scenario_names`]). `cycles` re-targets each scenario's horizon
/// when given (stimulus scripts are extended to match, so longer sweeps
/// never exhaust input).
///
/// # Errors
///
/// Lane construction failures (unknown name, missing toolchain); runtime
/// disagreement is part of the report, not an `Err`.
pub fn run_corpus_names(
    registry: &EngineRegistry,
    names: &[String],
    cycles: Option<u64>,
    options: &CosimOptions,
) -> Result<CorpusReport, ScenarioError> {
    let mut results = Vec::new();
    for entry in scenarios::corpus() {
        let scenario = match cycles {
            Some(n) => entry.with_cycles(n),
            None => entry,
        };
        let outcome = match run_scenario_names(registry, names, &scenario, options) {
            Ok(outcome) => outcome,
            Err(ScenarioError::Load(_)) => {
                unreachable!("built-in scenarios are valid (covered by rtl-machines tests)")
            }
            Err(e) => return Err(e),
        };
        results.push(ScenarioResult::new(scenario.name, outcome));
    }
    Ok(CorpusReport {
        engines: names.to_vec(),
        results,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::registry;
    use rtl_core::{HaltKind, StopReason};

    fn interp_vm(cycles: u64, options: &CosimOptions) -> CorpusReport {
        let names = ["interp".to_string(), "vm".to_string()];
        run_corpus_names(registry(), &names, Some(cycles), options).unwrap()
    }

    #[test]
    fn halted_scenarios_fail_the_sweep() {
        let mut report = interp_vm(4, &CosimOptions::default());
        assert!(report.clean());
        report.results[0].stop = StopReason::Halt(HaltKind::InputExhausted { cycle: 0 });
        assert!(
            !report.clean(),
            "a halt verifies nothing and must not be green"
        );
        assert_eq!(report.halts().count(), 1);
    }

    #[test]
    fn cycle_override_above_registered_horizons_stays_clean() {
        // Regression: the override used to leave io/accumulator's stimulus
        // at its registered length, so any horizon above it exhausted
        // input and failed the sweep.
        let report = interp_vm(
            1100,
            &CosimOptions {
                compare_every: 64,
                ..CosimOptions::default()
            },
        );
        assert!(report.clean(), "{report}");
        for r in &report.results {
            assert_eq!(r.cycles, 1100, "{} fell short", r.name);
        }
    }

    #[test]
    fn corpus_agrees_briefly() {
        // Full-horizon sweeps run in the integration tests and the CLI;
        // keep the unit test quick with a short override.
        let report = interp_vm(48, &CosimOptions::default());
        assert!(report.clean(), "{report}");
        assert!(report.results.len() >= 12);
        assert!(report.to_string().contains("summary:"));
    }

    #[test]
    fn unknown_lane_names_error_up_front() {
        let err = run_corpus_names(
            registry(),
            &["interp".to_string(), "warp".to_string()],
            Some(4),
            &CosimOptions::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown engine"), "{err}");
    }
}
