//! Shrinking divergent fuzz cases to minimal regression scenarios.
//!
//! A raw fuzz divergence is a haystack: a few hundred components driven
//! for a long horizon. Borrowing the binary-search discipline of
//! property-based shrinking (à la proptest), this module minimizes the
//! three knobs that matter, deciding each candidate by the full lockstep
//! comparison and keeping only confirmed-diverging shrinks:
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
//! ever moves to candidates whose divergence is confirmed.
//!
//! A shrink starts from a divergence already observed: the fuzz case's
//! own run, handed over by the campaign runner ([`shrink_from`]), or one
//! [`shrink_divergence`] runs first. It counts as the first of the
//! search's `attempts`, which therefore also count the case's own run.
//! Each size probe generates that size's [`Spec`](rtl_lang::Spec),
//! elaborates it (moved, no text round trip) and runs it on a
//! [`Harness`] of its own. The horizon and stimulus phases then reuse
//! the best size's design and stimulus: a shorter horizon generates the
//! same design and a prefix of the same stimulus (pinned by
//! `rtl_machines::synth`'s tests), so each of their probes is that one
//! design over a prefix of one stimulus.
//!
//! Many of those probes are decided by a run the search already made.
//! A cycle is a pure function of the state and the input words read so
//! far, so a run with a shorter horizon, or over a stimulus prefix that
//! still holds every word the lanes read, repeats a longer run cycle for
//! cycle until it stops. The search keeps its first diverging run of the
//! best size's design as a *recording* — the size probe that found the
//! best size, or, when none did, the first phase 2–3 probe that diverges
//! (the horizon probe at c + 1 when it does) — with the most words any
//! lane had read through each cycle up to its divergence at cycle c
//! ([`Harness::words_read_through`]). A later probe the recording decides
//! is answered without running (`Recording::answer` has the rule): a
//! horizon h ≤ c agrees, and a longer one diverges with the recording's
//! report, when its stimulus holds the words read through cycle h − 1
//! (through c); at a coarser comparison stride, only where the probe
//! compares where the recorded run did. This is the outcome cache of
//! delta debugging (Zeller and Hildebrandt, 2002), filled by a prefix
//! argument instead of by lookups. The search visits the same candidates
//! in the same order either way, so every result is the one running them
//! all gives; only the lockstep work it counts (`session/cycles`,
//! `lockstep/*`, `lint/oracle_checks`) falls.
//!
//! The probes that do run share one [`Harness`], prepared at the first
//! of them (a shrink whose probes are all answered prepares none), and
//! every run restarts its lanes at cycle 0 (a restarted run returns what
//! a fresh one would, statistics and counters included). Source text is
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
    /// The divergence the minimal scenario produces: what a run of
    /// `scenario` reports, though not necessarily from such a run (it
    /// may be the recording's, which a run of `scenario` repeats).
    pub report: DivergenceReport,
    /// Final generator size (component count knob).
    pub size: usize,
    /// Final cycle horizon.
    pub cycles: u64,
    /// Final stimulus length.
    pub input_len: usize,
    /// Candidates decided, by a run or by the recording, the case's own
    /// run included.
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
    match rtl_cosim::run_design_names(
        registry,
        engines,
        &case.design,
        &case.name,
        case.cycles,
        &case.input,
        cosim,
    )? {
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
/// comes from a run this search made, or from its recording.
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
    //    later phases, and its run is their recording.
    let mut lo = 1usize;
    let mut best_size = generator.size.max(1);
    let mut best = None;
    while lo < best_size {
        let mid = lo + (best_size - lo) / 2;
        let case = Candidate::generate(seed, mid, generator)?;
        attempts += 1;
        match case.record(registry, engines, cosim)? {
            Some(recording) => {
                best_size = mid;
                best = Some((case, recording));
            }
            None => lo = mid + 1,
        }
    }
    let (case, recording) = match best {
        Some((case, recording)) => (case, Some(recording)),
        None => (Candidate::generate(seed, best_size, generator)?, None),
    };
    let mut best_report = recording.as_ref().map(|r| r.report.clone());
    let mut probes = Probes {
        registry,
        engines,
        cosim,
        case: &case,
        harness: None,
        recording,
        attempts,
    };

    // 2. Horizon: the divergence happened at cycle c, so any horizon
    //    > c reaches it (a shorter horizon only truncates the run). Search
    //    the first-diverging horizon in [1, c + 1].
    let observed = best_report.as_ref().unwrap_or(first).cycle;
    let observed = u64::try_from(observed).unwrap_or(case.cycles);
    let mut best_cycles = (observed + 1).min(case.cycles);
    match probes.decide(best_cycles, case.stimulus(best_cycles))? {
        Some(report) => best_report = Some(report),
        // The horizon interacts with the stimulus length; fall back to
        // the full horizon if the tightened bound loses the divergence.
        None => best_cycles = case.cycles,
    }
    let mut lo = 1u64;
    while lo < best_cycles {
        let mid = lo + (best_cycles - lo) / 2;
        match probes.decide(mid, case.stimulus(mid))? {
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
        match probes.decide(best_cycles, &input[..mid])? {
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
        None => match probes.run(best_cycles, &input)? {
            Some(report) => report,
            None => return Ok(None),
        },
    };
    let attempts = probes.attempts;
    // The lanes borrow the design `Shrunk` takes.
    drop(probes);
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

/// A usable diverging run of the best size's design, kept to decide
/// later probes of that design (see the [module docs](self)). Every
/// probe's stimulus, and the recorded run's, is a prefix of the case's.
struct Recording {
    /// The recorded run's horizon.
    cycles: u64,
    /// Its divergence, at cycle `c` = `report.cycle`.
    report: DivergenceReport,
    /// `reads[k]`: the most stimulus words any lane had read through
    /// cycle `k`, for every `k` in `0..=c`; `None` when the run recorded
    /// none (a harness with stream lanes), or its options read
    /// or write a file, which a probe left unrun would not.
    reads: Option<Vec<usize>>,
    /// The comparison stride of every run.
    stride: u64,
}

impl Recording {
    /// The recording of `harness`'s last run, a run of `cycles` cycles
    /// that diverged with `report`.
    fn of(
        harness: &Harness<'_>,
        cycles: u64,
        report: DivergenceReport,
        cosim: &CosimOptions,
    ) -> Self {
        let self_contained = cosim.checkpoint.is_none()
            && cosim.export_digests.is_none()
            && cosim.check_digests.is_none();
        let reads = u64::try_from(report.cycle)
            .ok()
            .filter(|_| self_contained)
            .and_then(|c| (0..=c).map(|k| harness.words_read_through(k)).collect());
        Recording {
            cycles,
            report,
            reads,
            stride: cosim.compare_every.max(1),
        }
    }

    /// The verdict of a probe of `cycles` cycles over the first `len`
    /// words of the case's stimulus, when the recorded run decides it.
    ///
    /// A probe repeats the recorded run through cycle k when its
    /// stimulus holds the words read through k. So, at stride 1, a
    /// horizon h ≤ c agrees when it holds the words read through h − 1,
    /// and a horizon c < h ≤ `cycles` diverges with the recorded report
    /// when it holds those read through c.
    ///
    /// At a coarser stride s a probe is answered only where each of its
    /// comparisons is one the recorded run made with the same verdict.
    /// That run compared at the multiples of s up to m = ⌊c/s⌋·s; when
    /// c > m, its bisection replay then compared every cycle up to c
    /// (agreeing) and c + 1 (diverging). A comparison that ends at a
    /// replayed point and spans several agreeing replay cycles agrees
    /// too: trace spans render piecewise, and every other lens reads the
    /// state at the point. So a horizon h ≤ c is answered when h is a
    /// multiple of s or h > m; and a longer one when c > m and its
    /// comparison after m falls at c + 1 (h = c + 1, or m + s = c + 1),
    /// whereupon it rewinds to m and replays exactly what the recorded
    /// run replayed. When c = m the replay may not have reproduced the
    /// divergence, so no longer horizon is answered.
    fn answer(&self, cycles: u64, len: usize) -> Option<Option<DivergenceReport>> {
        let reads = self.reads.as_ref()?;
        let c = reads.len() as u64 - 1;
        let s = self.stride;
        let m = c / s * s;
        let holds = |through: u64| len >= reads[usize::try_from(through).unwrap_or(usize::MAX)];
        if cycles <= c {
            let compared = cycles.is_multiple_of(s) || cycles > m;
            let holds = cycles == 0 || holds(cycles - 1);
            (compared && holds).then_some(None)
        } else if cycles <= self.cycles {
            let compared = s == 1 || (c > m && (cycles == c + 1 || m + s == c + 1));
            (compared && holds(c)).then(|| Some(self.report.clone()))
        } else {
            None
        }
    }
}

/// The horizon and stimulus probes of one design: answered by the
/// recording where it decides them, otherwise run on one harness,
/// prepared at the first run.
struct Probes<'a> {
    registry: &'a EngineRegistry,
    engines: &'a [String],
    cosim: &'a CosimOptions,
    case: &'a Candidate,
    harness: Option<Harness<'a>>,
    recording: Option<Recording>,
    /// Candidates decided so far, the search's earlier ones included.
    attempts: u32,
}

impl Probes<'_> {
    /// Decides one candidate, counting it as an attempt.
    fn decide(
        &mut self,
        cycles: u64,
        input: &[Word],
    ) -> Result<Option<DivergenceReport>, CampaignError> {
        self.attempts += 1;
        let answer = self
            .recording
            .as_ref()
            .and_then(|r| r.answer(cycles, input.len()));
        match answer {
            Some(verdict) => {
                #[cfg(test)]
                tests::ANSWERED.with(|answered| {
                    answered
                        .borrow_mut()
                        .push((cycles, input.to_vec(), verdict.clone()));
                });
                Ok(verdict)
            }
            None => self.run(cycles, input),
        }
    }

    /// Runs one candidate; the first that diverges becomes the recording
    /// when there is none yet.
    fn run(
        &mut self,
        cycles: u64,
        input: &[Word],
    ) -> Result<Option<DivergenceReport>, CampaignError> {
        let Candidate { design, name, .. } = self.case;
        let harness = match &mut self.harness {
            Some(harness) => harness,
            slot @ None => slot.insert(Harness::prepare(
                self.registry,
                self.engines,
                design,
                name,
                self.cosim,
            )?),
        };
        let report = verdict(harness.run(cycles, input)?);
        if let (None, Some(report)) = (&self.recording, &report) {
            self.recording = Some(Recording::of(harness, cycles, report.clone(), self.cosim));
        }
        Ok(report)
    }
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

    /// Runs the whole case, its full horizon and stimulus, on a harness
    /// of its own: the recording of that run when it diverges usably.
    fn record(
        &self,
        registry: &EngineRegistry,
        engines: &[String],
        cosim: &CosimOptions,
    ) -> Result<Option<Recording>, ScenarioError> {
        let mut harness = Harness::prepare(registry, engines, &self.design, &self.name, cosim)?;
        let report = verdict(harness.run(self.cycles, &self.input)?);
        Ok(report.map(|report| Recording::of(&harness, self.cycles, report, cosim)))
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
    use std::cell::RefCell;
    use std::collections::VecDeque;

    /// A candidate the recording answered: horizon, stimulus, verdict.
    type Answered = (u64, Vec<Word>, Option<DivergenceReport>);

    thread_local! {
        /// Every candidate this thread's shrinks answered from their
        /// recordings, in order.
        pub(super) static ANSWERED: RefCell<Vec<Answered>> = const { RefCell::new(Vec::new()) };
    }

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
    /// reach it, whether it comes from a run or from the recording. Rows
    /// cover both strides, the lint oracle, and cases with (`io_every`
    /// 1) and without (`io_every` 0) an input port.
    #[test]
    fn the_saved_report_is_what_the_saved_scenario_reports() {
        let registry = registry_with_fault(rtl_cosim::DEFAULT_FAULT_CYCLE);
        let engines = names(&["interp", "vm-fault"]);
        for (io_every, compare_every, lint_oracle) in [
            (2, 1, false),
            (2, 16, false),
            (2, 1, true),
            (1, 16, true),
            (0, 1, false),
            (0, 16, false),
        ] {
            let generator = GenOptions {
                size: 30,
                cycles: 64,
                io_every,
            };
            let cosim = CosimOptions {
                compare_every,
                lint_oracle,
                ..CosimOptions::default()
            };
            for seed in 1..40 {
                let shrunk = shrink_divergence(&registry, &engines, seed, &generator, &cosim)
                    .unwrap()
                    .expect("fault diverges");
                assert_eq!(
                    fresh_report(&registry, &engines, io_every, &shrunk, &cosim),
                    shrunk.report,
                    "seed {seed} io_every {io_every} stride {compare_every} oracle {lint_oracle}"
                );
            }
        }
    }

    /// Words an [`Ahead`] lane holds ahead of its engine: more than the
    /// 8 words of slack a generated stimulus has past its horizon's
    /// reads, so a probe's stimulus can run dry for this lane alone.
    const AHEAD: usize = 16;

    /// An interpreter lane that reads its input ahead of its engine: once
    /// the engine has read a word, the lane holds the next [`AHEAD`]
    /// words, and raises input-exhausted when the stimulus has fewer. So
    /// the lane before it reads each word some cycles later than it does:
    /// a rule that counted only lane 0's reads would answer for stimuli
    /// this lane runs dry on.
    struct Ahead<'d> {
        inner: Box<dyn rtl_core::Engine + 'd>,
        /// The words held after each cycle run, by cycle: a restore to
        /// cycle k takes the lane back to what it held there.
        held: Vec<VecDeque<Word>>,
    }

    /// The input an [`Ahead`] lane's engine reads: the held words first.
    struct Held<'i> {
        words: VecDeque<Word>,
        input: &'i mut dyn rtl_core::InputSource,
        read: bool,
    }

    impl rtl_core::InputSource for Held<'_> {
        fn read_char(&mut self) -> Result<Word, rtl_core::SimError> {
            self.read = true;
            self.words
                .pop_front()
                .map_or_else(|| self.input.read_char(), Ok)
        }

        fn read_int(&mut self) -> Result<Word, rtl_core::SimError> {
            self.read = true;
            self.words
                .pop_front()
                .map_or_else(|| self.input.read_int(), Ok)
        }
    }

    impl rtl_core::Engine for Ahead<'_> {
        fn design(&self) -> &Design {
            self.inner.design()
        }

        fn state(&self) -> &rtl_core::SimState {
            self.inner.state()
        }

        fn restore(&mut self, snapshot: &rtl_core::SimState) {
            self.inner.restore(snapshot);
            self.held
                .truncate(usize::try_from(snapshot.cycle()).unwrap_or(0));
        }

        fn observes_output(&self, id: rtl_core::CompId) -> bool {
            self.inner.observes_output(id)
        }

        fn stats(&self) -> Option<&rtl_core::SimStats> {
            self.inner.stats()
        }

        fn step(
            &mut self,
            trace: &mut rtl_core::TraceBuf<'_>,
            input: &mut dyn rtl_core::InputSource,
        ) -> Result<(), rtl_core::SimError> {
            let mut held = Held {
                words: self.held.last().cloned().unwrap_or_default(),
                input,
                read: false,
            };
            self.inner.step(trace, &mut held)?;
            if held.read || !held.words.is_empty() {
                while held.words.len() < AHEAD {
                    let word = held.input.read_int()?;
                    held.words.push_back(word);
                }
            }
            self.held.push(held.words);
            Ok(())
        }
    }

    struct AheadFactory;

    impl rtl_core::EngineFactory for AheadFactory {
        fn name(&self) -> &str {
            "ahead"
        }

        fn build<'d>(
            &self,
            design: &'d Design,
            options: &rtl_core::EngineOptions,
        ) -> Result<rtl_core::EngineLane<'d>, String> {
            let rtl_core::EngineLane::Stepped(inner) =
                rtl_cosim::registry().build("interp", design, options)?
            else {
                panic!("interp is a stepped lane");
            };
            Ok(rtl_core::EngineLane::Stepped(Box::new(Ahead {
                inner,
                held: Vec::new(),
            })))
        }
    }

    /// Every candidate a shrink answers from its recording is answered as
    /// a fresh run of it answers: the same verdict, and an equal report.
    #[test]
    fn an_answered_candidate_is_what_a_run_returns() {
        let mut answered = 0;
        for fault in [8, 40] {
            let mut registry = registry_with_fault(fault);
            registry.register(Box::new(AheadFactory));
            // At size 1 there is no size probe, so the recording is the
            // first phase 2–3 probe that diverges.
            let rows = [
                (30, names(&["interp", "vm-fault"])),
                (30, names(&["interp", "vm-fault", "ahead"])),
                (1, names(&["interp", "vm-fault"])),
            ];
            for (size, engines) in &rows {
                for io_every in [1, 2] {
                    for compare_every in [1, 16] {
                        for lint_oracle in [false, true] {
                            let generator = GenOptions {
                                size: *size,
                                cycles: 64,
                                io_every,
                            };
                            let cosim = CosimOptions {
                                compare_every,
                                lint_oracle,
                                ..CosimOptions::default()
                            };
                            for seed in 0..=40 {
                                let at = format!(
                                    "{engines:?} size {size} fault {fault} io_every {io_every} \
                                     stride {compare_every} oracle {lint_oracle} seed {seed}"
                                );
                                answered += check_answers(
                                    &registry, engines, seed, &generator, &cosim, &at,
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(answered > 0);
    }

    /// Shrinks one case and checks each candidate its recording answered
    /// against a fresh run; returns how many there were.
    fn check_answers(
        registry: &EngineRegistry,
        engines: &[String],
        seed: u64,
        generator: &GenOptions,
        cosim: &CosimOptions,
        at: &str,
    ) -> usize {
        ANSWERED.with(|answered| answered.borrow_mut().clear());
        let Some(shrunk) = shrink_divergence(registry, engines, seed, generator, cosim).unwrap()
        else {
            return 0;
        };
        let answered = ANSWERED.with(|answered| answered.take());
        let case = Candidate::generate(seed, shrunk.size, generator).unwrap();
        for (cycles, input, verdict) in &answered {
            let outcome = rtl_cosim::run_design_names(
                registry,
                engines,
                &case.design,
                &case.name,
                *cycles,
                input,
                cosim,
            )
            .unwrap();
            assert_eq!(
                &super::verdict(outcome),
                verdict,
                "{at}: horizon {cycles}, {} words",
                input.len()
            );
        }
        answered.len()
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
        assert_eq!(
            fresh_report(&registry, &engines, 0, &shrunk, &cosim),
            shrunk.report
        );
    }

    /// The divergence `shrunk`'s generated case reports, run afresh on
    /// the saved horizon and stimulus under `cosim`.
    fn fresh_report(
        registry: &EngineRegistry,
        engines: &[String],
        io_every: u32,
        shrunk: &Shrunk,
        cosim: &CosimOptions,
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
            cosim,
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
