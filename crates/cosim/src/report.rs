//! The one named lockstep result, shared by the corpus and fuzz reports:
//! a [`CosimOutcome`] is split into cycles, stop and divergence here and
//! nowhere else, and the status derivation, summary line and
//! halt/divergence dumps cannot drift apart between the two reports.

use crate::lockstep::{CosimOutcome, DivergenceReport};
use rtl_core::{LaneStats, StopReason};

/// One named scenario's lockstep result: a corpus scenario or a fuzz case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioResult {
    /// Scenario name (a registry name, or `fuzz/seed-N`).
    pub name: String,
    /// Cycles verified in lockstep (up to the divergence, when one
    /// occurred).
    pub cycles: u64,
    /// How the scenario stopped: a clean cycle limit, or a structured
    /// unanimous halt.
    pub stop: StopReason,
    /// Per-lane simulation statistics, for lanes whose engines keep them.
    pub stats: Vec<LaneStats>,
    /// `Some` when the engines diverged.
    pub divergence: Option<DivergenceReport>,
}

impl ScenarioResult {
    /// Splits a lockstep outcome under the scenario's name. A divergence
    /// verified the cycles before it and stops at no limit of its own.
    pub fn new(name: String, outcome: CosimOutcome) -> ScenarioResult {
        let stats = outcome.lane_stats();
        let (cycles, stop, divergence) = match outcome {
            CosimOutcome::Agreement { cycles, stop, .. } => (cycles, stop, None),
            CosimOutcome::Divergence(report) => (
                u64::try_from(report.cycle).unwrap_or(0),
                StopReason::CycleLimit,
                Some(*report),
            ),
        };
        ScenarioResult {
            name,
            cycles,
            stop,
            stats,
            divergence,
        }
    }

    /// Agreed over the full horizon: no divergence *and* a clean cycle
    /// limit (a unanimous halt verifies nothing past the halting cycle,
    /// and both the corpus and the generator promise halt-free horizons).
    pub fn clean(&self) -> bool {
        self.divergence.is_none() && self.stop.is_cycle_limit()
    }
}

/// Whether every result is clean.
pub(crate) fn all_clean(results: &[ScenarioResult]) -> bool {
    results.iter().all(ScenarioResult::clean)
}

/// The results whose engines diverged.
pub(crate) fn divergences(results: &[ScenarioResult]) -> impl Iterator<Item = &ScenarioResult> {
    results.iter().filter(|r| r.divergence.is_some())
}

/// Total cycles verified across the results.
pub(crate) fn total_cycles(results: &[ScenarioResult]) -> u64 {
    results.iter().map(|r| r.cycles).sum()
}

/// Writes the per-result lines, the summary line, and the full divergence
/// reports.
pub(crate) fn write_results(
    f: &mut std::fmt::Formatter<'_>,
    results: &[ScenarioResult],
) -> std::fmt::Result {
    for r in results {
        let status = match (&r.divergence, &r.stop) {
            (Some(_), _) => "DIVERGED",
            (None, StopReason::CycleLimit) => "ok",
            (None, StopReason::Halt(_)) => "halted",
            (None, StopReason::Error(_)) => "error",
        };
        writeln!(f, "  {:<22} {:>6} cycles  {status}", r.name, r.cycles)?;
        match &r.stop {
            StopReason::CycleLimit => {}
            StopReason::Halt(h) => writeln!(f, "    halt: {h}")?,
            StopReason::Error(e) => writeln!(f, "    error: {e}")?,
        }
    }
    let diverged = divergences(results).count();
    writeln!(
        f,
        "summary: {}/{} agreed, {} diverged, {} cycles verified",
        results.len() - diverged,
        results.len(),
        diverged,
        total_cycles(results),
    )?;
    for report in results.iter().filter_map(|r| r.divergence.as_ref()) {
        write!(f, "{report}")?;
    }
    Ok(())
}
