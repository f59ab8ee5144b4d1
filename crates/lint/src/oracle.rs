//! Dynamic cross-validation of static claims against the running
//! simulator.
//!
//! The lint passes make two kinds of *sound* claims about a design:
//! selector arms that can never fire ([`dead_arms`]) and memories whose
//! cells can never change ([`undriven_memories`]). Soundness means a
//! contradiction at runtime is not a style problem — it is a bug in the
//! analyzer or in the simulator, and the differential harness is exactly
//! the tool that finds which. [`OracleComparator`] plugs those claims
//! into the cosim [`Comparator`] seam: at every comparison point it
//! checks the undriven cells against the observed state and recomputes
//! the next combinational phase from the observed memory latches to
//! check every claimed-dead arm, raising [`DivergenceKind::Oracle`] on
//! disagreement.
//!
//! The recompute mirrors the interpreter's step semantics bit for bit:
//! components evaluate in combinational order over the latched outputs,
//! ALU functions apply [`AluFn::apply`] unmasked, selectors index with
//! `usize::try_from`. An observation at cycle `c` exposes the
//! end-of-cycle memory latches, which are precisely the inputs to cycle
//! `c + 1`'s combinational phase — so the oracle checks the select
//! indices the very next cycle would produce. Because the claims hold
//! for *all* input values, checking a cycle that may never execute can
//! never contradict a correct analyzer.

use crate::passes::{dead_arms, exact_bounds, undriven_memories};
use rtl_core::observe::{Comparator, DivergenceKind, Observation};
use rtl_core::{AluFn, Design, RKind, Recorder, Word};

/// The sound claims the static analyzer makes about one design — the
/// contract the [`OracleComparator`] enforces at runtime. Fields are
/// public so tests can inject deliberately-wrong claims and prove the
/// oracle catches a broken analyzer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StaticClaims {
    /// Per selector (by design index): arm indices that can never fire,
    /// sorted ascending.
    pub dead_arms: Vec<(usize, Vec<usize>)>,
    /// Per memory (by design index): the cell image the memory must hold
    /// forever (its init values padded with zeros to its size), because
    /// a constant-read operation never stores.
    pub undriven: Vec<(usize, Vec<Word>)>,
}

impl StaticClaims {
    /// Extracts every claim the shipped passes can prove about `design`.
    pub fn of(design: &Design) -> StaticClaims {
        StaticClaims {
            dead_arms: dead_arms(design, &exact_bounds(design.spec()))
                .into_iter()
                .map(|(index, dead, _)| (index, dead))
                .collect(),
            undriven: undriven_memories(design),
        }
    }

    /// `true` when there is nothing to cross-validate.
    pub fn is_empty(&self) -> bool {
        self.dead_arms.is_empty() && self.undriven.is_empty()
    }
}

/// A [reference-only](Comparator::reference_only) [`Comparator`] that
/// checks [`StaticClaims`] against each runtime observation instead of
/// comparing two lanes — the reference lane alone carries all the
/// evidence, so the harness calls it once per comparison point, with one
/// stepped lane or many. Emits `lint/oracle_checks` and
/// `lint/oracle_contradictions` counters when given an enabled
/// [`Recorder`], once per observed cycle: a run can compare at one cycle
/// twice (a halting cycle leaves the cycle counter where the comparison
/// before it saw it, and a bisection replay reaches again the cycle
/// whose comparison sent it back), and the repeat is checked but not
/// counted.
pub struct OracleComparator {
    claims: StaticClaims,
    recorder: Recorder,
    last_cycle: Option<Word>,
}

impl OracleComparator {
    /// Builds the oracle for one design's claims. `recorder` may be
    /// [`Recorder::disabled`].
    pub fn new(claims: StaticClaims, recorder: Recorder) -> OracleComparator {
        OracleComparator {
            claims,
            recorder,
            last_cycle: None,
        }
    }

    /// The claims under validation.
    pub fn claims(&self) -> &StaticClaims {
        &self.claims
    }

    fn check(&self, reference: &Observation<'_>) -> Option<DivergenceKind> {
        let design = reference.design();
        for (index, expected) in &self.claims.undriven {
            let id = design.id_at(*index);
            let cells = reference.cells(id);
            if cells != expected.as_slice() {
                let addr = cells
                    .iter()
                    .zip(expected)
                    .position(|(have, want)| have != want)
                    .unwrap_or(expected.len().min(cells.len()));
                return Some(DivergenceKind::Oracle {
                    component: design.name(id).to_string(),
                    claim: format!(
                        "statically-undriven memory changed at cell {addr} \
                         (cycle {})",
                        reference.cycle()
                    ),
                });
            }
        }
        if self.claims.dead_arms.is_empty() {
            return None;
        }
        self.check_dead_arms(reference)
    }

    /// Recomputes the next cycle's combinational phase from the observed
    /// memory latches and checks each select index against the dead-arm
    /// claims. Bails without a verdict when the observation is partial
    /// (an elided output) or the recompute itself would halt — the
    /// ordinary lenses own those outcomes.
    fn check_dead_arms(&self, reference: &Observation<'_>) -> Option<DivergenceKind> {
        let design = reference.design();
        let mut outputs = vec![0; design.len()];
        for &id in design.memories() {
            outputs[id.index()] = reference.output(id)?;
        }
        for &id in design.comb_order() {
            let value = match &design.comp(id).kind {
                RKind::Alu(a) => {
                    let fun = AluFn::from_word(a.funct.eval(&outputs))?;
                    fun.apply(a.left.eval(&outputs), a.right.eval(&outputs))
                }
                RKind::Selector(s) => {
                    let raw = s.select.eval(&outputs);
                    let idx = usize::try_from(raw).ok();
                    if let Some((_, dead)) = self
                        .claims
                        .dead_arms
                        .iter()
                        .find(|(index, _)| *index == id.index())
                    {
                        if idx.is_some_and(|i| dead.contains(&i)) {
                            return Some(DivergenceKind::Oracle {
                                component: design.name(id).to_string(),
                                claim: format!(
                                    "statically-dead arm {raw} fires on cycle {}",
                                    reference.cycle() + 1
                                ),
                            });
                        }
                    }
                    idx.and_then(|i| s.cases.get(i))?.eval(&outputs)
                }
                RKind::Memory(_) => continue,
            };
            outputs[id.index()] = value;
        }
        None
    }
}

impl Comparator for OracleComparator {
    fn name(&self) -> &str {
        "lint-oracle"
    }

    fn reference_only(&self) -> bool {
        true
    }

    fn compare(
        &mut self,
        reference: &Observation<'_>,
        _candidate: &Observation<'_>,
    ) -> Option<DivergenceKind> {
        // The verdict is computed every time (stateless in the
        // observation); only the *counters* dedupe a repeated cycle. A
        // harness that runs again builds a new oracle, so `last_cycle`
        // never spans two runs.
        let fresh = self.last_cycle != Some(reference.cycle());
        self.last_cycle = Some(reference.cycle());
        if fresh {
            self.recorder.count("lint", "oracle_checks", 1);
        }
        let verdict = self.check(reference);
        if fresh && verdict.is_some() {
            self.recorder.count("lint", "oracle_contradictions", 1);
        }
        verdict
    }
}
