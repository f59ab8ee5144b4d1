//! The traced replay: a workload's cases re-run through the program's
//! public layer calls in `run_one`'s order, with a span around each call.
//!
//! Per case: generate → (lint, where the program lints) → elaborate →
//! build each lane → lockstep → on divergence, shrink and corpus save →
//! publish the record. Spans stay in memory and are written out when the
//! run ends, as an `asim2-events v1` log that `asim2 metrics
//! trace-export` draws, plus a table with each span's parent and case.
//! The replay publishes its own case records; they must match the
//! untraced run's byte for byte, or the trace does not describe it.
//!
//! The probes here run untimed or outside the replay: each lane stepped
//! alone, and the program's own lockstep counters read through a memory
//! `Recorder`.

use crate::workload::{shard_dirs, Kind, Workload};
use rtl_campaign::corpus::{self, kind_label};
use rtl_campaign::state::LaneAccess;
use rtl_campaign::{campaign_registry, shrink_divergence, CampaignDir, CaseRecord, CaseStatus};
use rtl_core::{Design, EngineLane, EngineOptions, Recorder, Session, StopReason, Until};
use rtl_cosim::{generate_scenario, CosimOptions, CosimOutcome, FuzzOptions, Lockstep};
use rtl_machines::Scenario;
use rtl_obs::Event;
use std::hint::black_box;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// The root span of each case. Its children, one per layer call, are
/// named `generate`, `lint`, `elaborate`, `build.interp`, `build.vm`,
/// `lockstep`, `shrink`, `corpus` and `publish`.
pub const CASE: &str = "case";

/// One timed call.
pub struct SpanRec {
    pub name: &'static str,
    /// The case the call served: the id shared by a case's spans.
    pub case: u32,
    /// Index of the enclosing span in the same thread's list.
    pub parent: Option<usize>,
    /// Offsets from the replay's start.
    pub start: Duration,
    pub end: Duration,
}

impl SpanRec {
    pub fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Work counts the replay takes where the work happens.
#[derive(Default)]
pub struct Tally {
    /// Cycles verified in lockstep, over all cases.
    pub cycles: u64,
    pub shrink_calls: u64,
    /// Shrinks that reproduced the divergence (returned a minimal case).
    pub reproduced: u64,
    /// Lockstep re-runs the shrinks spent.
    pub probes: u64,
    /// Corpus saves that found an existing entry with the same scenario.
    pub dedup_hits: u64,
}

/// One replay thread's spans and counts.
pub struct ThreadTrace {
    pub spans: Vec<SpanRec>,
    /// Span boundaries in the order they happened: (offset, enter?, span).
    edges: Vec<(Duration, bool, usize)>,
    pub tally: Tally,
}

pub struct Replay {
    pub wall: Duration,
    pub threads: Vec<ThreadTrace>,
    /// Where the replay published each case range.
    pub parts: Vec<(CampaignDir, Range<u32>)>,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRec>,
    edges: Vec<(Duration, bool, usize)>,
}

impl Tracer {
    fn open(&mut self, name: &'static str, case: u32, parent: Option<usize>) -> usize {
        let start = self.epoch.elapsed();
        let index = self.spans.len();
        self.spans.push(SpanRec {
            name,
            case,
            parent,
            start,
            end: start,
        });
        self.edges.push((start, true, index));
        index
    }

    fn close(&mut self, index: usize) {
        let end = self.epoch.elapsed();
        self.spans[index].end = end;
        self.edges.push((end, false, index));
    }

    fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let case = self.spans[parent].case;
        let index = self.open(name, case, Some(parent));
        let out = f();
        self.close(index);
        out
    }
}

/// What every replay thread shares.
struct Ctx<'a> {
    w: &'a Workload,
    fuzz: FuzzOptions,
    /// Whether the program runs these cases under an enabled `Recorder`:
    /// only the fleet worker does, recording each lease into memory. The
    /// program lints each design only then.
    records: bool,
}

/// Replays every case of `w` into fresh directories under `root`, with
/// the workload's thread count, shard order and seed.
pub fn replay(w: &Workload, root: &Path) -> Result<Replay, String> {
    let parts: Vec<(CampaignDir, Range<u32>)> = match w.kind {
        Kind::ShrinkShard => shard_dirs(root)
            .into_iter()
            .map(CampaignDir::new)
            .zip(w.shard_ranges())
            .collect(),
        _ => vec![(CampaignDir::new(root.join("campaign")), 0..w.config.cases)],
    };
    let ctx = Ctx {
        w,
        fuzz: w.config.fuzz_options(),
        records: w.kind == Kind::FleetLease,
    };
    let epoch = Instant::now();
    let mut threads = Vec::new();
    for (dir, range) in &parts {
        dir.init(&w.config).map_err(|e| e.to_string())?;
        let next = AtomicU32::new(range.start);
        let results: Vec<Result<ThreadTrace, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..w.threads)
                .map(|_| scope.spawn(|| replay_thread(&ctx, dir, range.end, &next, epoch)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("replay thread panicked".into()))
                })
                .collect()
        });
        for result in results {
            threads.push(result?);
        }
    }
    Ok(Replay {
        wall: epoch.elapsed(),
        threads,
        parts,
    })
}

fn replay_thread(
    ctx: &Ctx<'_>,
    dir: &CampaignDir,
    end: u32,
    next: &AtomicU32,
    epoch: Instant,
) -> Result<ThreadTrace, String> {
    let registry = campaign_registry(None);
    let recorder = if ctx.records {
        Recorder::memory().0
    } else {
        Recorder::disabled()
    };
    let cosim = CosimOptions {
        recorder,
        ..ctx.fuzz.cosim.clone()
    };
    let mut tracer = Tracer {
        epoch,
        spans: Vec::new(),
        edges: Vec::new(),
    };
    let mut tally = Tally::default();
    loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= end {
            break;
        }
        replay_case(ctx, &registry, &cosim, dir, index, &mut tracer, &mut tally)?;
    }
    Ok(ThreadTrace {
        spans: tracer.spans,
        edges: tracer.edges,
        tally,
    })
}

fn replay_case(
    ctx: &Ctx<'_>,
    registry: &rtl_core::EngineRegistry,
    cosim: &CosimOptions,
    dir: &CampaignDir,
    index: u32,
    t: &mut Tracer,
    tally: &mut Tally,
) -> Result<(), String> {
    let config = &ctx.w.config;
    let seed = config.seed.wrapping_add(u64::from(index));
    let case = t.open(CASE, index, None);
    let scenario = t.time("generate", case, || {
        generate_scenario(seed, &config.generator)
    });
    if ctx.records {
        t.time("lint", case, || {
            black_box(rtl_lint::lint_source(&scenario.source).counts());
        });
    }
    let design = t
        .time("elaborate", case, || scenario.design())
        .map_err(|e| format!("case {index}: {e}"))?;
    let engine_options = EngineOptions {
        trace: cosim.trace,
        profile: cosim.profile.clone(),
    };
    let mut lanes = Vec::new();
    for name in &config.engines {
        let layer = if name.starts_with("vm") {
            "build.vm"
        } else {
            "build.interp"
        };
        match t.time(layer, case, || {
            registry.build(name, &design, &engine_options)
        })? {
            EngineLane::Stepped(engine) => lanes.push((name, engine)),
            EngineLane::Stream(_) => return Err(format!("{name}: stream lanes are not replayed")),
        }
    }
    let outcome = t.time("lockstep", case, || {
        let mut lockstep = Lockstep::new(&design, cosim.clone());
        lockstep.stimulus(scenario.input.clone());
        for (name, engine) in lanes {
            lockstep.add_lane(name, engine);
        }
        lockstep.run(scenario.cycles)
    });
    let lane_stats = outcome
        .lane_stats()
        .iter()
        .map(|s| LaneAccess {
            lane: s.lane.clone(),
            cycles: s.stats.cycles,
            accesses: s.stats.total_accesses(),
        })
        .collect();
    let (cycles, status) = match outcome {
        CosimOutcome::Agreement { cycles, stop, .. } => (
            cycles,
            match stop {
                StopReason::CycleLimit => CaseStatus::Agreed,
                StopReason::Halt(halt) => CaseStatus::Halted {
                    detail: halt.to_string(),
                },
                StopReason::Error(e) => CaseStatus::Error {
                    detail: e.to_string(),
                },
            },
        ),
        CosimOutcome::Divergence(report) => {
            let shrunk = t
                .time("shrink", case, || {
                    shrink_divergence(registry, &config.engines, seed, &config.generator, cosim)
                })
                .map_err(|e| format!("case {index}: shrink: {e}"))?;
            tally.shrink_calls += 1;
            let corpus = match &shrunk {
                Some(shrunk) => {
                    tally.reproduced += 1;
                    tally.probes += u64::from(shrunk.attempts);
                    let entry = t
                        .time("corpus", case, || {
                            corpus::save(
                                &dir.corpus(),
                                shrunk,
                                &config.engines,
                                config.compare_every,
                            )
                        })
                        .map_err(|e| format!("case {index}: corpus: {e}"))?;
                    if entry.name != format!("seed-{}", shrunk.seed) {
                        tally.dedup_hits += 1;
                    }
                    Some(entry.name)
                }
                None => None,
            };
            let cycle = u64::try_from(report.cycle).unwrap_or(0);
            (
                cycle,
                CaseStatus::Diverged {
                    cycle,
                    kind: kind_label(&report.kind),
                    corpus,
                },
            )
        }
    };
    tally.cycles += cycles;
    let record = CaseRecord {
        index,
        seed,
        cycles,
        lane_stats,
        status,
    };
    t.time("publish", case, || dir.write_case(&record))
        .map_err(|e| format!("case {index}: publish: {e}"))?;
    t.close(case);
    Ok(())
}

/// The workload's first `limit` cases, generated and elaborated as the
/// program does, for the probes.
pub fn probe_cases(w: &Workload, limit: u32) -> Result<Vec<(Scenario, Design)>, String> {
    (0..w.config.cases.min(limit))
        .map(|index| {
            let seed = w.config.seed.wrapping_add(u64::from(index));
            let scenario = generate_scenario(seed, &w.config.generator);
            let design = scenario.design().map_err(|e| e.to_string())?;
            Ok((scenario, design))
        })
        .collect()
}

/// Host nanoseconds per simulated cycle of each lane run alone through
/// `Session::run` (capture sink, scripted input), over `cases`, in
/// `config.engines` order.
pub fn step_probe(w: &Workload, cases: &[(Scenario, Design)]) -> Result<Vec<f64>, String> {
    let config = &w.config;
    let registry = campaign_registry(None);
    let options = EngineOptions::default();
    let mut nanos = vec![0f64; config.engines.len()];
    let mut cycles = vec![0u64; config.engines.len()];
    for (scenario, design) in cases {
        for (lane, name) in config.engines.iter().enumerate() {
            let EngineLane::Stepped(engine) = registry.build(name, design, &options)? else {
                return Err(format!("{name}: stream lanes are not probed"));
            };
            let mut session = Session::over(engine)
                .capture()
                .scripted(scenario.input.iter().copied())
                .build();
            let started = Instant::now();
            let run = session.run(Until::Cycles(scenario.cycles));
            nanos[lane] += started.elapsed().as_nanos() as f64;
            cycles[lane] += run.cycles;
            black_box(session.output());
        }
    }
    Ok(nanos
        .iter()
        .zip(&cycles)
        .map(|(ns, &c)| crate::stats::ratio(*ns, c as f64))
        .collect())
}

/// The program's own lockstep counters over `cases`, run untimed in
/// lockstep at `compare_every` with a memory `Recorder`: comparator
/// invocations (every lens) and bisection rewinds.
pub fn counter_probe(
    w: &Workload,
    cases: &[(Scenario, Design)],
    compare_every: u64,
) -> Result<(u64, u64), String> {
    let registry = campaign_registry(None);
    let (recorder, log) = Recorder::memory();
    let cosim = CosimOptions {
        recorder: recorder.clone(),
        compare_every,
        ..w.config.fuzz_options().cosim
    };
    let options = EngineOptions {
        trace: cosim.trace,
        profile: cosim.profile.clone(),
    };
    for (scenario, design) in cases {
        let mut lockstep = Lockstep::new(design, cosim.clone());
        lockstep.stimulus(scenario.input.clone());
        for name in &w.config.engines {
            let EngineLane::Stepped(engine) = registry.build(name, design, &options)? else {
                return Err(format!("{name}: stream lanes are not probed"));
            };
            lockstep.add_lane(name, engine);
        }
        black_box(lockstep.run(scenario.cycles));
    }
    recorder.flush();
    let (mut compares, mut rewinds) = (0, 0);
    for line in log.text().lines() {
        if let Ok(Event::Counter { src, key, n }) = Event::parse(line) {
            if src != "lockstep" {
                continue;
            }
            if key.starts_with("compare_") {
                compares += n;
            } else if key == "bisect_rewinds" {
                rewinds += n;
            }
        }
    }
    Ok((compares, rewinds))
}

/// The replay's spans as an `asim2-events v1` log: span enter/exit
/// events in the order they happened, ids unique across threads.
pub fn events_log(threads: &[ThreadTrace]) -> String {
    let mut edges: Vec<(Duration, bool, &SpanRec, u64)> = Vec::new();
    let mut base = 1u64;
    for thread in threads {
        for &(at, enter, index) in &thread.edges {
            edges.push((at, enter, &thread.spans[index], base + index as u64));
        }
        base += thread.spans.len() as u64;
    }
    // Stable: each thread's boundaries are already in order.
    edges.sort_by_key(|(at, ..)| *at);
    let mut text = Event::Meta {
        format: rtl_obs::FORMAT.into(),
    }
    .render();
    text.push('\n');
    for (_, enter, span, id) in edges {
        let (src, key) = ("replay".to_string(), span.name.to_string());
        let event = if enter {
            Event::SpanEnter { src, key, id }
        } else {
            Event::SpanExit {
                src,
                key,
                id,
                micros: span.dur().as_micros() as u64,
            }
        };
        text.push_str(&event.render());
        text.push('\n');
    }
    text
}

/// Every span with its parent and case, one per line.
pub fn spans_table(threads: &[ThreadTrace]) -> String {
    let mut text = String::from("thread\tspan\tparent\tcase\tname\tstart_ns\tend_ns\n");
    for (t, thread) in threads.iter().enumerate() {
        for (i, span) in thread.spans.iter().enumerate() {
            let parent = span.parent.map_or_else(|| "-".into(), |p| p.to_string());
            text.push_str(&format!(
                "{t}\t{i}\t{parent}\t{}\t{}\t{}\t{}\n",
                span.case,
                span.name,
                span.start.as_nanos(),
                span.end.as_nanos()
            ));
        }
    }
    text
}
