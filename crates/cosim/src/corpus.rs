//! Runs the built-in scenario corpus through lockstep.

use crate::lockstep::{CosimOptions, CosimOutcome, DivergenceReport};
use crate::report::{all_clean, write_rows, ResultRow};
use crate::stream::{run_scenario_names, ScenarioError};
use rtl_core::{EngineRegistry, StopReason};
use rtl_machines::scenarios;

/// One corpus entry's lockstep result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusResult {
    /// Scenario registry name.
    pub name: String,
    /// Cycles verified.
    pub cycles: u64,
    /// How the scenario stopped: a clean cycle limit, or a structured
    /// unanimous halt.
    pub stop: StopReason,
    /// `Some` when engines diverged.
    pub divergence: Option<DivergenceReport>,
}

impl CorpusResult {
    fn row(&self) -> ResultRow<'_> {
        ResultRow {
            name: &self.name,
            cycles: self.cycles,
            stop: &self.stop,
            divergence: self.divergence.as_ref(),
        }
    }
}

/// Results for a corpus sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusReport {
    /// Engine lane names compared.
    pub engines: Vec<String>,
    /// Per-scenario results, in registry order.
    pub results: Vec<CorpusResult>,
}

impl CorpusReport {
    /// `true` when every scenario agreed *and* ran its full horizon.
    /// Registered scenarios promise a clean run at their cycle count, so
    /// a unanimous halt is a failure even though the engines agree —
    /// otherwise a scenario halting at cycle 0 would verify nothing and
    /// still report green.
    pub fn clean(&self) -> bool {
        all_clean(self.results.iter().map(CorpusResult::row))
    }

    /// Scenarios that ended in a unanimous halt.
    pub fn halts(&self) -> impl Iterator<Item = &CorpusResult> {
        self.results.iter().filter(|r| r.stop.halt().is_some())
    }

    /// Scenarios whose engines diverged.
    pub fn divergences(&self) -> impl Iterator<Item = &CorpusResult> {
        self.results.iter().filter(|r| r.divergence.is_some())
    }

    /// Total cycles verified across the corpus.
    pub fn total_cycles(&self) -> u64 {
        self.results.iter().map(|r| r.cycles).sum()
    }
}

impl std::fmt::Display for CorpusReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "cosim corpus sweep, engines [{}]",
            self.engines.join(", ")
        )?;
        let rows: Vec<ResultRow<'_>> = self.results.iter().map(CorpusResult::row).collect();
        write_rows(f, &rows)
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
        let (ran, stop, divergence) = match outcome {
            CosimOutcome::Agreement { cycles, stop, .. } => (cycles, stop, None),
            CosimOutcome::Divergence(report) => (
                u64::try_from(report.cycle).unwrap_or(0),
                StopReason::CycleLimit,
                Some(*report),
            ),
        };
        results.push(CorpusResult {
            name: scenario.name,
            cycles: ran,
            stop,
            divergence,
        });
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
    use rtl_core::HaltKind;

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
