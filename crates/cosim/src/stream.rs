//! Driving a scenario across registry lanes by *name*, including stream
//! lanes.
//!
//! Stepped lanes (interpreter, VM) run in per-cycle lockstep as usual —
//! one [`Lockstep`], whether one lane steps or several.
//! Stream lanes — the generated-Rust simulator binary run as a subprocess
//! — cannot be stepped, so they join differently: after the stepped lanes
//! agree over the full horizon, each stream lane replays the same
//! scenario in one shot and its stdout is compared byte-for-byte against
//! the trace the stepped lanes agreed on, rendered (the same bytes a
//! capture [`TraceSink`](rtl_core::TraceSink) would have seen). A single
//! stepped lane agrees with itself, so its own trace is that reference.
//! A mismatch is a [`DivergenceKind::Stream`] report with the divergence
//! cycle estimated from the last matching cycle header.
//!
//! Every run goes through a [`Harness`]: it builds the lanes once, and
//! each of its runs restarts them at cycle 0 ([`Lockstep::restart`]), so
//! a caller probing one design many times pays for the lane builds once.
//! Every [`CosimOptions`] field — lint oracle, digest export and check —
//! applies to every lane mix, except a checkpoint store: a resumed run
//! has no trace before its resume point to check stream lanes against,
//! so a mix with a stream lane never checkpoints.

use crate::lockstep::{CheckpointStore, CosimOptions, CosimOutcome, DivergenceReport, Lockstep};
use rtl_core::observe::TRACE_WINDOW_LINES;
use rtl_core::{
    Design, DivergenceKind, ElabError, EngineLane, EngineOptions, EngineRegistry, LaneReport,
    LoadError, StopReason, StreamEngine, Word,
};
use rtl_machines::Scenario;
use std::cell::{OnceCell, RefCell};
use std::rc::Rc;

/// Why a named-lane scenario run could not start.
#[derive(Debug)]
pub enum ScenarioError {
    /// The scenario's specification failed to parse/elaborate.
    Load(LoadError),
    /// A lane could not be built (unknown name, missing toolchain, or an
    /// unusable lane mix).
    Engine(String),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Load(e) => e.fmt(f),
            ScenarioError::Engine(e) => f.write_str(e),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<LoadError> for ScenarioError {
    fn from(e: LoadError) -> Self {
        ScenarioError::Load(e)
    }
}

impl From<ElabError> for ScenarioError {
    fn from(e: ElabError) -> Self {
        ScenarioError::Load(LoadError::Elab(e))
    }
}

/// Runs a [`Scenario`] through the named registry lanes: stepped lanes in
/// lockstep, stream lanes by full-stream comparison (see the [module
/// docs](self)). This is [`Scenario::design`] followed by
/// [`run_design_names`].
///
/// When the stepped lanes end in a unanimous halt, the halt outcome is
/// returned and stream lanes are left unverified — a crashed horizon has
/// no agreed trace to compare against.
///
/// # Errors
///
/// Specification load failures and lane construction failures; runtime
/// disagreement is part of the [`CosimOutcome`], not an `Err`.
pub fn run_scenario_names(
    registry: &EngineRegistry,
    names: &[String],
    scenario: &Scenario,
    options: &CosimOptions,
) -> Result<CosimOutcome, ScenarioError> {
    let design = scenario.design()?;
    run_design_names(
        registry,
        names,
        &design,
        &scenario.name,
        scenario.cycles,
        &scenario.input,
        options,
    )
}

/// Runs an elaborated design through the named registry lanes for
/// `cycles` cycles, feeding `input` to its memory-mapped input port:
/// [`Harness::prepare`] followed by one [`Harness::run`]. `name` labels
/// the run: it becomes a divergence report's `scenario` and a digest
/// log's scenario name.
///
/// # Errors
///
/// Lane construction failures; runtime disagreement is part of the
/// [`CosimOutcome`], not an `Err`.
pub fn run_design_names(
    registry: &EngineRegistry,
    names: &[String],
    design: &Design,
    name: &str,
    cycles: u64,
    input: &[Word],
    options: &CosimOptions,
) -> Result<CosimOutcome, ScenarioError> {
    Harness::prepare(registry, names, design, name, options)?.run(cycles, input)
}

/// Named registry lanes built once over one design, to run as often as a
/// caller needs — the one lockstep runner behind [`run_design_names`],
/// [`run_scenario_names`], fuzz cases and shrink probes.
/// [`prepare`](Harness::prepare) builds the lanes; the lint oracle's
/// [`StaticClaims`](rtl_lint::StaticClaims) are made once, by
/// [`lint`](Harness::lint) or the first run. Every [`run`](Harness::run)
/// starts the lanes at cycle 0 with a fresh stimulus and fresh
/// comparators. A run returns exactly what a fresh [`run_design_names`]
/// call with the same arguments returns: report, lane statistics and
/// emitted counters.
///
/// The stepped lanes always run in one [`Lockstep`], one lane or many,
/// so every [`CosimOptions`] field means the same for every lane mix.
/// With one stepped lane there is nothing to compare it with: its trace
/// is the agreed output the stream lanes are checked against, and only
/// the lenses that read the reference lane alone run (the lint oracle,
/// digest export and check).
pub struct Harness<'d> {
    design: &'d Design,
    name: &'d str,
    options: &'d CosimOptions,
    lockstep: Lockstep<'d>,
    streams: Vec<(&'d str, Box<dyn StreamEngine + 'd>)>,
    /// The first stepped lane's name: the side a stream report quotes.
    reference: &'d str,
    /// The lint oracle's claims, when the oracle is on and has any:
    /// drawn from [`lint`](Harness::lint)'s analysis when it ran,
    /// otherwise made at the first run.
    claims: OnceCell<Option<rtl_lint::StaticClaims>>,
    /// The digest stream every run checks the reference lane against.
    check_log: Option<crate::digest::DigestLog>,
    /// Where every run resumes from and saves its checkpoints: the
    /// options' store, unless the lane mix cannot resume.
    checkpoint: Option<&'d dyn CheckpointStore>,
}

impl<'d> Harness<'d> {
    /// Builds the named lanes over `design` and checks that `options`
    /// suit them. `name` labels every run (see [`run_design_names`]).
    ///
    /// # Errors
    ///
    /// Lane construction failures; a lane mix with no stepped lane, or a
    /// single stepped lane and no stream lane (which compares nothing);
    /// an unreadable [`CosimOptions::check_digests`] stream, or one
    /// recorded over another design or at another stride; and a
    /// [`CosimOptions::checkpoint`] store with stream lanes, which could
    /// not check the trace before a resume point, unless the store is
    /// [optional](CheckpointStore::optional): the harness then runs
    /// without it.
    pub fn prepare(
        registry: &EngineRegistry,
        names: &'d [String],
        design: &'d Design,
        name: &'d str,
        options: &'d CosimOptions,
    ) -> Result<Harness<'d>, ScenarioError> {
        let engine_options = EngineOptions {
            trace: options.trace,
            profile: options.profile.clone(),
        };
        let mut stepped = Vec::new();
        let mut streams: Vec<(&str, Box<dyn StreamEngine + 'd>)> = Vec::new();
        for lane in names {
            match registry
                .build(lane, design, &engine_options)
                .map_err(ScenarioError::Engine)?
            {
                EngineLane::Stepped(engine) => stepped.push((lane.as_str(), engine)),
                EngineLane::Stream(stream) => streams.push((lane.as_str(), stream)),
            }
        }
        let Some(&(reference, _)) = stepped.first() else {
            return Err(ScenarioError::Engine(
                "need at least one in-process engine (stream lanes are compared \
                 against the stepped lanes' agreed trace)"
                    .into(),
            ));
        };
        if stepped.len() == 1 && streams.is_empty() {
            return Err(ScenarioError::Engine(format!(
                "engine {reference:?} alone is not a comparison (add another lane)"
            )));
        }
        let mut lockstep = Lockstep::new(
            design,
            CosimOptions {
                retain_output: options.retain_output || !streams.is_empty(),
                ..options.clone()
            },
        );
        for (lane, engine) in stepped {
            lockstep.add_lane(lane, engine);
        }
        let check_log = options
            .check_digests
            .as_deref()
            .map(|path| check_log(path, design, options))
            .transpose()?;
        let checkpoint = match options.checkpoint.as_ref().map(|handle| &*handle.0) {
            Some(store) if !streams.is_empty() && !store.optional() => {
                return Err(ScenarioError::Engine(
                    "stream lanes cannot join a checkpointed lockstep run (a resumed run \
                     has no agreed trace before its resume point to compare them with)"
                        .into(),
                ));
            }
            Some(_) if !streams.is_empty() => None,
            store => store,
        };
        Ok(Harness {
            design,
            name,
            options,
            lockstep,
            streams,
            reference,
            claims: OnceCell::new(),
            check_log,
            checkpoint,
        })
    }

    /// Lints the design ([`rtl_lint::lint_design`]). Under
    /// [`CosimOptions::lint_oracle`] the oracle's claims come from this
    /// same analysis, so a run does not analyse the design again.
    pub fn lint(&self) -> rtl_lint::Report {
        let (report, claims) = rtl_lint::lint_with_claims(self.design);
        if self.options.lint_oracle {
            // Set before any run, or equal to what a run set.
            let _ = self.claims.set(Some(claims).filter(|c| !c.is_empty()));
        }
        report
    }

    /// Whether every run resumes from a document its checkpoint store
    /// holds: such a run repeats no work the run that saved it did.
    pub fn resumes(&self) -> bool {
        self.checkpoint.is_some_and(|store| store.resumes())
    }

    /// Runs the lanes from cycle 0 for `cycles` cycles, feeding `input`
    /// to the design's memory-mapped input port.
    ///
    /// # Errors
    ///
    /// Digest file and checkpoint store failures, a checkpoint the
    /// lockstep refuses to resume, and a stream lane that fails to run;
    /// runtime disagreement is part of the [`CosimOutcome`], not an
    /// `Err`.
    pub fn run(&mut self, cycles: u64, input: &[Word]) -> Result<CosimOutcome, ScenarioError> {
        let options = self.options;
        let lockstep = &mut self.lockstep;
        lockstep.restart(input);
        // Digest comparators join before any resume: they are part of the
        // harness identity a lockstep checkpoint fingerprints.
        let export_log = options.export_digests.as_ref().map(|_| {
            let log = Rc::new(RefCell::new(crate::digest::DigestLog::new(
                self.name.to_string(),
                rtl_core::design_fingerprint(self.design),
                options.compare_every,
            )));
            lockstep.add_comparator(Box::new(crate::digest::DigestRecorder::new(Rc::clone(
                &log,
            ))));
            log
        });
        let claims = self.claims.get_or_init(|| {
            options
                .lint_oracle
                .then(|| rtl_lint::StaticClaims::of(self.design))
                .filter(|c| !c.is_empty())
        });
        if let Some(claims) = claims {
            lockstep.add_comparator(Box::new(rtl_lint::OracleComparator::new(
                claims.clone(),
                options.recorder.clone(),
            )));
        }
        if let Some(log) = &self.check_log {
            lockstep.add_comparator(Box::new(crate::digest::DigestLane::new(log.clone())));
        }
        if let Some(store) = self.checkpoint.filter(|store| store.resumes()) {
            store
                .load()
                .and_then(|doc| lockstep.resume(&mut &doc[..]))
                .map_err(|e| ScenarioError::Engine(format!("cannot resume lockstep: {e}")))?;
        }
        let mut outcome = drive_lockstep(lockstep, cycles, options.compare_every, self.checkpoint)?;
        if let (Some(path), Some(log)) = (&options.export_digests, export_log) {
            log.borrow().save(path).map_err(|e| {
                ScenarioError::Engine(format!("cannot write digests {}: {e}", path.display()))
            })?;
        }

        let full_horizon = matches!(
            outcome,
            CosimOutcome::Agreement {
                stop: StopReason::CycleLimit,
                ..
            }
        );
        if full_horizon && !self.streams.is_empty() {
            let agreed = lockstep.agreed_output();
            for (lane, stream) in &mut self.streams {
                let got = stream
                    .run_stream(cycles, input)
                    .map_err(|e| ScenarioError::Engine(format!("stream lane {lane:?}: {e}")))?;
                if got != agreed {
                    return Ok(CosimOutcome::Divergence(Box::new(stream_report(
                        self.name,
                        self.reference,
                        &agreed,
                        lane,
                        &got,
                    ))));
                }
            }
        }

        if let CosimOutcome::Divergence(report) = &mut outcome {
            report.scenario = self.name.to_string();
        }
        Ok(outcome)
    }

    /// The most stimulus words any stepped lane had read by the end of
    /// cycle `cycle` of the last run (see
    /// [`Lockstep::words_read_through`]). A cycle is a pure function of
    /// the state and the words read so far, so a run over a prefix of
    /// that run's stimulus holding this many words steps its lanes
    /// through `cycle` exactly as that run did. `None` for a harness with
    /// stream lanes, whose verdict comes after the stepped lanes'.
    pub fn words_read_through(&self, cycle: u64) -> Option<usize> {
        self.streams
            .is_empty()
            .then(|| self.lockstep.words_read_through(cycle))
    }
}

/// The digest stream at `path`, checked to suit a run over `design` with
/// `options`.
fn check_log(
    path: &std::path::Path,
    design: &Design,
    options: &CosimOptions,
) -> Result<crate::digest::DigestLog, ScenarioError> {
    let log = crate::digest::DigestLog::load(path).map_err(|e| {
        ScenarioError::Engine(format!("cannot read digests {}: {e}", path.display()))
    })?;
    if log.design != rtl_core::design_fingerprint(design) {
        return Err(ScenarioError::Engine(format!(
            "digest stream {} was recorded over a different design",
            path.display()
        )));
    }
    if log.every != options.compare_every.max(1) {
        return Err(ScenarioError::Engine(format!(
            "digest stream {} was recorded at stride {}, this run compares every {} \
             (strides must match for the cycles to line up)",
            path.display(),
            log.every,
            options.compare_every.max(1)
        )));
    }
    Ok(log)
}

/// Drives a lockstep harness to `horizon` total verified cycles, saving
/// a checkpoint document to `checkpoint` after every chunk of
/// [`CheckpointStore::every`] cycles, rounded up to a whole number of
/// comparison strides so every comparison stays on the stride grid.
/// Agreement cycle counts are reported as *total* verified cycles
/// (resumed prefix included), so a resumed run's outcome is
/// byte-identical to an uninterrupted one.
fn drive_lockstep(
    lockstep: &mut Lockstep<'_>,
    horizon: u64,
    compare_every: u64,
    checkpoint: Option<&dyn CheckpointStore>,
) -> Result<CosimOutcome, ScenarioError> {
    let stride = compare_every.max(1);
    let every = checkpoint.and_then(|store| store.every());
    loop {
        let done = lockstep.verified_cycles();
        let remaining = horizon.saturating_sub(done);
        let chunk = match every {
            Some(every) => every
                .div_ceil(stride)
                .max(1)
                .saturating_mul(stride)
                .min(remaining),
            None => remaining,
        };
        match lockstep.run(chunk) {
            CosimOutcome::Agreement {
                stop: StopReason::CycleLimit,
                stats,
                ..
            } => {
                if let Some(store) = checkpoint.filter(|_| every.is_some()) {
                    lockstep.flush_profiles();
                    let mut doc = Vec::new();
                    lockstep
                        .checkpoint(&mut doc)
                        .and_then(|()| store.save(lockstep.verified_cycles(), &doc))
                        .map_err(|e| {
                            ScenarioError::Engine(format!("cannot save a lockstep checkpoint: {e}"))
                        })?;
                }
                if lockstep.verified_cycles() >= horizon {
                    return Ok(CosimOutcome::Agreement {
                        cycles: lockstep.verified_cycles(),
                        stop: StopReason::CycleLimit,
                        stats,
                    });
                }
            }
            CosimOutcome::Agreement { stop, stats, .. } => {
                return Ok(CosimOutcome::Agreement {
                    cycles: lockstep.verified_cycles(),
                    stop,
                    stats,
                });
            }
            divergence => return Ok(divergence),
        }
    }
}

fn stream_report(
    scenario: &str,
    reference_name: &str,
    agreed: &[u8],
    lane: &str,
    got: &[u8],
) -> DivergenceReport {
    let prefix = agreed.iter().zip(got).take_while(|(a, b)| a == b).count();
    let cycle = cycle_at(&agreed[..prefix]);
    let lane_view = |name: &str, bytes: &[u8]| {
        // Quote the stream around the first mismatching byte.
        let end = (prefix + 120).min(bytes.len());
        let text = String::from_utf8_lossy(&bytes[..end]);
        let lines: Vec<&str> = text.lines().collect();
        let start = lines.len().saturating_sub(TRACE_WINDOW_LINES);
        LaneReport {
            engine: name.to_string(),
            cycle,
            value: None,
            error: None,
            trace_window: lines[start..].iter().map(|s| s.to_string()).collect(),
            stats: None,
        }
    };
    DivergenceReport {
        scenario: scenario.to_string(),
        cycle,
        kind: DivergenceKind::Stream {
            lane: lane.to_string(),
        },
        lanes: vec![lane_view(reference_name, agreed), lane_view(lane, got)],
    }
}

/// The cycle a byte offset into an agreed trace falls in: the index of
/// the last `Cycle ` header starting a line in the identical prefix
/// (0 when the streams diverge before the first header — or when trace
/// text is off and no headers exist).
fn cycle_at(prefix: &[u8]) -> Word {
    let mut count: Word = 0;
    let mut at_line_start = true;
    let mut i = 0;
    while i < prefix.len() {
        if at_line_start && prefix[i..].starts_with(b"Cycle ") {
            count += 1;
        }
        at_line_start = prefix[i] == b'\n';
        i += 1;
    }
    count.saturating_sub(1).max(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::registry;
    use rtl_core::{HaltKind, Session, Until};
    use rtl_machines::scenarios;
    use std::sync::Arc;

    fn names(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cycle_estimation_counts_headers() {
        assert_eq!(cycle_at(b""), 0);
        assert_eq!(cycle_at(b"Cycle   0 x= 1\n"), 0);
        assert_eq!(cycle_at(b"Cycle   0 x= 1\nCycle   1 x= 2\nCyc"), 1);
        assert_eq!(cycle_at(b"no headers at all"), 0);
    }

    #[test]
    fn stepped_lanes_agree_by_name() {
        let scenario = scenarios::by_name("classic/counter")
            .unwrap()
            .with_cycles(32);
        let outcome = run_scenario_names(
            registry(),
            &names(&["interp", "vm", "vm-noopt"]),
            &scenario,
            &CosimOptions::default(),
        )
        .unwrap();
        assert!(outcome.agreed(), "{outcome:?}");
    }

    #[test]
    fn unknown_and_underpowered_lane_lists_error() {
        let scenario = scenarios::by_name("classic/counter")
            .unwrap()
            .with_cycles(8);
        let err = run_scenario_names(
            registry(),
            &names(&["warp", "vm"]),
            &scenario,
            &CosimOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ScenarioError::Engine(_)), "{err}");
    }

    #[test]
    fn halts_skip_stream_verification() {
        // Scripted input runs dry at cycle 2 — the stepped lanes halt
        // unanimously; the outcome is the structured halt.
        let mut scenario = scenarios::by_name("io/accumulator")
            .unwrap()
            .with_cycles(50);
        scenario.input.truncate(2);
        let outcome = run_scenario_names(
            registry(),
            &names(&["interp", "vm"]),
            &scenario,
            &CosimOptions::default(),
        )
        .unwrap();
        assert_eq!(outcome.halt(), Some(&HaltKind::InputExhausted { cycle: 2 }));
    }

    #[test]
    fn rust_stream_lane_agrees_on_a_scenario() {
        if !rtl_compile::rustc_available() {
            eprintln!("skipping: rustc not on PATH");
            return;
        }
        let scenario = scenarios::by_name("classic/counter")
            .unwrap()
            .with_cycles(24);
        let outcome = run_scenario_names(
            registry(),
            &names(&["interp", "vm", "rust"]),
            &scenario,
            &CosimOptions::default(),
        )
        .unwrap();
        assert!(outcome.agreed(), "{outcome:?}");
    }

    #[test]
    fn rust_stream_lane_exercises_scripted_input() {
        if !rtl_compile::rustc_available() {
            eprintln!("skipping: rustc not on PATH");
            return;
        }
        let scenario = scenarios::by_name("io/accumulator")
            .unwrap()
            .with_cycles(16);
        let outcome = run_scenario_names(
            registry(),
            &names(&["vm", "rust"]),
            &scenario,
            &CosimOptions::default(),
        )
        .unwrap();
        assert!(outcome.agreed(), "{outcome:?}");
    }

    /// A stream lane that runs the interpreter in-process: what a
    /// correct generated simulator prints.
    struct Echo<'d>(&'d Design);

    impl StreamEngine for Echo<'_> {
        fn run_stream(&mut self, cycles: u64, stimulus: &[Word]) -> Result<Vec<u8>, String> {
            let mut session = Session::over(rtl_interp::Interpreter::new(self.0))
                .capture()
                .scripted(stimulus.iter().copied())
                .build();
            session.run(Until::Cycles(cycles));
            Ok(session.output().to_vec())
        }
    }

    struct EchoFactory;

    impl rtl_core::EngineFactory for EchoFactory {
        fn name(&self) -> &str {
            "echo"
        }
        fn is_stepped(&self) -> bool {
            false
        }
        fn build<'d>(
            &self,
            design: &'d rtl_core::Design,
            _options: &EngineOptions,
        ) -> Result<EngineLane<'d>, String> {
            Ok(EngineLane::Stream(Box::new(Echo(design))))
        }
    }

    #[test]
    fn a_single_stepped_lane_harness_runs_like_fresh_ones() {
        // One stepped lane checked against a stream lane: each run puts
        // the lane back at cycle 0 and counts its statistics afresh.
        let mut reg = crate::engines::default_registry();
        reg.register(Box::new(EchoFactory));
        let scenario = scenarios::by_name("io/accumulator")
            .unwrap()
            .with_cycles(32);
        let design = scenario.design().unwrap();
        let lanes = names(&["vm", "echo"]);
        let options = CosimOptions::default();
        let input = &scenario.input[..];
        let mut harness =
            Harness::prepare(&reg, &lanes, &design, &scenario.name, &options).unwrap();
        for (cycles, input) in [
            (32, input),
            (5, &input[..5]),
            (32, &input[..3]),
            (32, input),
        ] {
            let fresh = run_design_names(
                &reg,
                &lanes,
                &design,
                &scenario.name,
                cycles,
                input,
                &options,
            )
            .unwrap();
            assert!(!fresh.lane_stats().is_empty());
            assert_eq!(
                harness.run(cycles, input).unwrap(),
                fresh,
                "{cycles} {input:?}"
            );
        }
    }

    /// The default registry with the `echo` stream lane added.
    fn echo_registry() -> EngineRegistry {
        let mut reg = crate::engines::default_registry();
        reg.register(Box::new(EchoFactory));
        reg
    }

    /// A counter-driven selector whose arm 4 can never fire: a design the
    /// lint oracle holds a claim about.
    const DEAD_ARM: &str =
        "# dead arm\nc* n s* .\nM c 0 n 1 1\nA n 4 c 1\nS s c.0.1 10 20 30 40 50 .\n";

    /// The counters one agreeing 64-cycle run of `lanes` over `design`
    /// emits under `options`.
    fn counters(lanes: &[&str], design: &Design, options: &CosimOptions) -> rtl_obs::Summary {
        let (recorder, log) = rtl_obs::Recorder::memory();
        let options = CosimOptions {
            recorder: recorder.clone(),
            ..options.clone()
        };
        let outcome = run_design_names(
            &echo_registry(),
            &names(lanes),
            design,
            "dead-arm",
            64,
            &[],
            &options,
        )
        .unwrap();
        assert!(outcome.agreed(), "{lanes:?}: {outcome:?}");
        recorder.flush();
        let mut summary = rtl_obs::Summary::new();
        summary.fold_text(&log.text(), "memory").unwrap();
        summary
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("asim2-stream-{}-{name}", std::process::id()))
    }

    #[test]
    fn a_single_stepped_lane_runs_the_lint_oracle() {
        let design = Design::from_source(DEAD_ARM).unwrap();
        let options = CosimOptions {
            lint_oracle: true,
            ..CosimOptions::default()
        };
        let single = counters(&["vm", "echo"], &design, &options);
        let pair = counters(&["vm", "interp"], &design, &options);
        assert_eq!(single.counter("lint", "oracle_checks"), Some(64));
        assert_eq!(
            single.counter("lint", "oracle_checks"),
            pair.counter("lint", "oracle_checks")
        );
    }

    #[test]
    fn reference_only_lenses_run_once_per_comparison_point() {
        let design = Design::from_source(DEAD_ARM).unwrap();
        let options = CosimOptions {
            lint_oracle: true,
            ..CosimOptions::default()
        };
        let three = counters(&["vm", "interp", "vm-noopt"], &design, &options);
        let two = counters(&["vm", "interp"], &design, &options);
        for (src, key) in [
            ("lint", "oracle_checks"),
            ("lockstep", "compare_lint-oracle"),
        ] {
            assert_eq!(three.counter(src, key), Some(64), "{src}/{key}");
            assert_eq!(
                three.counter(src, key),
                two.counter(src, key),
                "{src}/{key}"
            );
        }
        // A state lens still compares every candidate lane.
        assert_eq!(three.counter("lockstep", "compare_all"), Some(128));
    }

    #[test]
    fn a_single_stepped_lane_exports_the_digests_a_pair_does() {
        let design = Design::from_source(DEAD_ARM).unwrap();
        let export = |lanes: &[&str], name: &str| {
            let path = scratch(name);
            let options = CosimOptions {
                compare_every: 4,
                export_digests: Some(path.clone()),
                ..CosimOptions::default()
            };
            counters(lanes, &design, &options);
            let bytes = std::fs::read(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            bytes
        };
        let single = export(&["vm", "echo"], "single.digests");
        assert!(single.starts_with(crate::digest::FORMAT.as_bytes()));
        assert_eq!(single, export(&["vm", "interp"], "pair.digests"));
    }

    /// A store that keeps every document it is handed, and says whether
    /// its checkpoints only save work.
    struct Kept {
        optional: bool,
        docs: std::sync::Mutex<Vec<(u64, Vec<u8>)>>,
    }

    impl CheckpointStore for Kept {
        fn every(&self) -> Option<u64> {
            Some(16)
        }
        fn resumes(&self) -> bool {
            false
        }
        fn load(&self) -> std::io::Result<Vec<u8>> {
            Err(std::io::ErrorKind::NotFound.into())
        }
        fn save(&self, verified: u64, doc: &[u8]) -> std::io::Result<()> {
            self.docs.lock().unwrap().push((verified, doc.to_vec()));
            Ok(())
        }
        fn optional(&self) -> bool {
            self.optional
        }
    }

    /// A stream lane cannot join a resumed run, so a mix with one never
    /// checkpoints: a store that is asked for is refused by name before
    /// the lanes run, and one whose checkpoints only save work is left
    /// unused. A stepped mix saves a document every interval.
    #[test]
    fn a_stream_lane_mix_never_checkpoints() {
        let design = Design::from_source(DEAD_ARM).unwrap();
        let with = |optional: bool| {
            let store = Arc::new(Kept {
                optional,
                docs: Default::default(),
            });
            let options = CosimOptions {
                checkpoint: Some(crate::Checkpoints(store.clone())),
                ..CosimOptions::default()
            };
            (store, options)
        };
        let (_, asked) = with(false);
        let err = Harness::prepare(
            &echo_registry(),
            &names(&["vm", "echo"]),
            &design,
            "x",
            &asked,
        )
        .err()
        .expect("a stream lane refuses a checkpoint store");
        assert!(
            err.to_string()
                .contains("stream lanes cannot join a checkpointed"),
            "{err}"
        );

        let (cache, optional) = with(true);
        let plain = counters(&["vm", "echo"], &design, &CosimOptions::default());
        let unused = counters(&["vm", "echo"], &design, &optional);
        assert_eq!(
            unused.deterministic_section(),
            plain.deterministic_section()
        );
        assert!(cache.docs.lock().unwrap().is_empty());

        counters(&["vm", "interp"], &design, &optional);
        let saved: Vec<u64> = cache.docs.lock().unwrap().iter().map(|d| d.0).collect();
        assert_eq!(saved, [16, 32, 48, 64]);
    }

    #[test]
    fn a_corrupt_stream_is_reported_with_a_cycle_estimate() {
        struct GarbageStream;
        impl StreamEngine for GarbageStream {
            fn run_stream(&mut self, _cycles: u64, _stimulus: &[Word]) -> Result<Vec<u8>, String> {
                // Matches the counter trace for cycles 0..=1, then lies.
                Ok(b"Cycle   0 count= 0\nCycle   1 count= 1\nCycle   2 count= 9\n".to_vec())
            }
        }
        struct GarbageFactory;
        impl rtl_core::EngineFactory for GarbageFactory {
            fn name(&self) -> &str {
                "garbage"
            }
            fn is_stepped(&self) -> bool {
                false
            }
            fn build<'d>(
                &self,
                _design: &'d rtl_core::Design,
                _options: &EngineOptions,
            ) -> Result<EngineLane<'d>, String> {
                Ok(EngineLane::Stream(Box::new(GarbageStream)))
            }
        }
        let mut reg = crate::engines::default_registry();
        reg.register(Box::new(GarbageFactory));
        let scenario = scenarios::by_name("classic/counter")
            .unwrap()
            .with_cycles(3);
        let outcome = run_scenario_names(
            &reg,
            &names(&["interp", "vm", "garbage"]),
            &scenario,
            &CosimOptions::default(),
        )
        .unwrap();
        let CosimOutcome::Divergence(report) = outcome else {
            panic!("expected divergence, got {outcome:?}");
        };
        assert_eq!(
            report.kind,
            DivergenceKind::Stream {
                lane: "garbage".into()
            }
        );
        assert_eq!(report.cycle, 2, "{report}");
        assert_eq!(report.lanes.len(), 2);
    }
}
