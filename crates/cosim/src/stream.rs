//! Driving a scenario across registry lanes by *name*, including stream
//! lanes.
//!
//! Stepped lanes (interpreter, VM) run in per-cycle lockstep as usual.
//! Stream lanes — the generated-Rust simulator binary run as a subprocess
//! — cannot be stepped, so they join differently: after the stepped lanes
//! agree over the full horizon, each stream lane replays the same
//! scenario in one shot and its stdout is compared byte-for-byte against
//! the trace the stepped lanes agreed on (the same bytes a capture
//! [`TraceSink`](rtl_core::TraceSink) would have seen). A mismatch is a
//! [`DivergenceKind::Stream`] report with the divergence cycle estimated
//! from the last matching cycle header.

use crate::lockstep::{CosimOptions, CosimOutcome, DivergenceReport, Lockstep, LockstepCheckpoint};
use rtl_core::observe::TRACE_WINDOW_LINES;
use rtl_core::{
    Design, DivergenceKind, ElabError, EngineLane, EngineOptions, EngineRegistry, LaneReport,
    LaneStats, LoadError, Session, StopReason, StreamEngine, Until, Word,
};
use rtl_machines::Scenario;

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
/// `cycles` cycles, feeding `input` to its memory-mapped input port —
/// the one lockstep runner behind [`run_scenario_names`], fuzz cases and
/// shrink probes. `name` labels the run: it becomes a divergence
/// report's `scenario` and a digest log's scenario name.
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
    let engine_options = EngineOptions {
        trace: options.trace,
        profile: options.profile.clone(),
    };
    let mut stepped = Vec::new();
    let mut streams: Vec<(String, Box<dyn StreamEngine + '_>)> = Vec::new();
    for lane in names {
        match registry
            .build(lane, design, &engine_options)
            .map_err(ScenarioError::Engine)?
        {
            EngineLane::Stepped(engine) => stepped.push((lane.clone(), engine)),
            EngineLane::Stream(stream) => streams.push((lane.clone(), stream)),
        }
    }
    if stepped.is_empty() {
        return Err(ScenarioError::Engine(
            "need at least one in-process engine (stream lanes are compared \
             against the stepped lanes' agreed trace)"
                .into(),
        ));
    }

    // The agreed reference trace: from lockstep when two or more lanes
    // step, from a single captured session otherwise.
    let reference_name = stepped[0].0.clone();
    let (mut outcome, agreed) = if stepped.len() >= 2 {
        let mut lockstep = Lockstep::new(
            design,
            CosimOptions {
                retain_output: options.retain_output || !streams.is_empty(),
                ..options.clone()
            },
        );
        lockstep.stimulus(input.to_vec());
        for (lane, engine) in stepped {
            lockstep.add_lane(&lane, engine);
        }
        // Digest comparators join before any resume: they are part of the
        // harness identity a lockstep checkpoint fingerprints.
        let export_log = match &options.export_digests {
            Some(_) => {
                let log = std::rc::Rc::new(std::cell::RefCell::new(crate::digest::DigestLog::new(
                    name.to_string(),
                    rtl_core::design_fingerprint(design),
                    options.compare_every,
                )));
                lockstep.add_comparator(Box::new(crate::digest::DigestRecorder::new(
                    std::rc::Rc::clone(&log),
                )));
                Some(log)
            }
            None => None,
        };
        if options.lint_oracle {
            let claims = rtl_lint::StaticClaims::of(design);
            if !claims.is_empty() {
                lockstep.add_comparator(Box::new(rtl_lint::OracleComparator::new(
                    claims,
                    options.recorder.clone(),
                )));
            }
        }
        if let Some(path) = &options.check_digests {
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
            lockstep.add_comparator(Box::new(crate::digest::DigestLane::new(log)));
        }
        if let Some(path) = &options.resume {
            if !streams.is_empty() {
                return Err(ScenarioError::Engine(
                    "stream lanes cannot join a resumed lockstep run (the agreed trace \
                     before the resume point is not available for comparison)"
                        .into(),
                ));
            }
            lockstep.resume_from(path).map_err(|e| {
                ScenarioError::Engine(format!(
                    "cannot resume lockstep from {}: {e}",
                    path.display()
                ))
            })?;
        }
        let outcome = drive_lockstep(&mut lockstep, cycles, options.checkpoint.as_ref())?;
        if let (Some(path), Some(log)) = (&options.export_digests, export_log) {
            log.borrow().save(path).map_err(|e| {
                ScenarioError::Engine(format!("cannot write digests {}: {e}", path.display()))
            })?;
        }
        (outcome, lockstep.agreed_output())
    } else {
        let (lane, engine) = stepped.into_iter().next().expect("checked non-empty");
        if streams.is_empty() {
            return Err(ScenarioError::Engine(format!(
                "engine {lane:?} alone is not a comparison (add another lane)"
            )));
        }
        if options.resume.is_some() || options.checkpoint.is_some() {
            return Err(ScenarioError::Engine(
                "lockstep checkpoint/resume needs at least two stepped lanes".into(),
            ));
        }
        if options.export_digests.is_some() || options.check_digests.is_some() {
            return Err(ScenarioError::Engine(
                "digest export/check runs through the lockstep comparators and needs \
                 at least two stepped lanes"
                    .into(),
            ));
        }
        let mut session = Session::over(engine)
            .capture()
            .scripted(input.iter().copied())
            .recorder(options.recorder.clone())
            .build();
        let run = session.run(Until::Cycles(cycles));
        let stats = session
            .engine()
            .stats()
            .map(|s| LaneStats {
                lane: lane.clone(),
                stats: s.clone(),
            })
            .into_iter()
            .collect();
        let outcome = CosimOutcome::Agreement {
            cycles: run.cycles,
            stop: run.stop,
            stats,
        };
        (outcome, session.output().to_vec())
    };

    if let CosimOutcome::Agreement {
        stop: StopReason::CycleLimit,
        ..
    } = &outcome
    {
        for (lane, mut stream) in streams {
            let got = stream
                .run_stream(cycles, input)
                .map_err(|e| ScenarioError::Engine(format!("stream lane {lane:?}: {e}")))?;
            if got != agreed {
                return Ok(CosimOutcome::Divergence(Box::new(stream_report(
                    name,
                    &reference_name,
                    &agreed,
                    &lane,
                    &got,
                ))));
            }
        }
    }

    if let CosimOutcome::Divergence(report) = &mut outcome {
        report.scenario = name.to_string();
    }
    Ok(outcome)
}

/// Drives a lockstep harness to `horizon` total verified cycles, writing
/// the checkpoint document after every `checkpoint.every`-cycle chunk —
/// a kill at any instant leaves an atomically-published document a later
/// `--resume` picks up. Agreement cycle counts are reported as *total*
/// verified cycles (resumed prefix included), so a resumed run's outcome
/// is byte-identical to an uninterrupted one.
fn drive_lockstep(
    lockstep: &mut Lockstep<'_>,
    horizon: u64,
    checkpoint: Option<&LockstepCheckpoint>,
) -> Result<CosimOutcome, ScenarioError> {
    loop {
        let done = lockstep.verified_cycles();
        let remaining = horizon.saturating_sub(done);
        let chunk = match checkpoint {
            Some(ck) => ck.every.max(1).min(remaining),
            None => remaining,
        };
        match lockstep.run(chunk) {
            CosimOutcome::Agreement {
                stop: StopReason::CycleLimit,
                stats,
                ..
            } => {
                if let Some(ck) = checkpoint {
                    lockstep.checkpoint_to(&ck.path).map_err(|e| {
                        ScenarioError::Engine(format!(
                            "cannot write lockstep checkpoint {}: {e}",
                            ck.path.display()
                        ))
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
    use rtl_core::HaltKind;
    use rtl_machines::scenarios;

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
