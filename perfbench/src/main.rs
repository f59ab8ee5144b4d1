//! # perfbench — the asim2 benchmark
//!
//! ```text
//! perfbench --workload <fixed-cost|long-horizon|shrink-shard|fleet-lease>
//!           --seconds S [--seed N] [--trace 0|1] [--smoke]
//! ```
//!
//! Run it from the repository root with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- ARGS`.
//! The seed defaults to 1; seed 104729 is held out for confirming a
//! claimed gain on inputs the change was not tuned on.
//!
//! `--trace 0` measures the end-to-end metrics. It executes the workload
//! repeatedly for `--seconds` (`run_seconds` in `BENCHMARK.json`), each
//! execution in a fresh child process and a fresh campaign directory, and
//! reports medians over executions, the time metrics scaled to the
//! reference host speed that a probe between executions measures (see
//! `calib`). `--smoke` shrinks every campaign and
//! executes it `MIN_EXECUTIONS` times whatever `--seconds` says.
//! `--trace 1` executes the workload once, untraced, then replays its
//! cases with a span around each layer call (see `replay`) and reports
//! the per-layer metrics. Both check the program's outputs: every
//! execution's `CampaignReport` digest must equal the one committed in
//! `expected-reports.tsv` for its seed and size (when the table has no
//! line for them: the single-machine `rtl_campaign::run` reference for
//! `shrink-shard` and `fleet-lease`, else the run's first execution),
//! `shrink-shard` and `fleet-lease` must equal that reference too, and
//! the replay's records must equal the untraced run's.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `failed` ÷ `attempted` is the `failed_ratio` end-to-end metric; it is
//! printed by name above the JSON line and kept out of `metrics`, whose
//! values must never be 0.
//!
//! Campaign directories live under `.bench_work/` in the repository root
//! and are removed when the run ends; the traced run's spans are kept in
//! `.bench_work/trace/<workload>-seed<N>/`.

mod calib;
mod host;
mod replay;
mod stats;
mod workload;

use rtl_campaign::json::Json;
use rtl_campaign::CampaignDir;
use stats::{mean, median, percentile, ratio};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{Kind, Workload};

const DEFAULT_SEED: u64 = 1;
/// Every run must end within this, builds excluded.
const RUN_BUDGET: Duration = Duration::from_secs(170);
/// Executions per `--trace 0` run, however short `--seconds` is.
const MIN_EXECUTIONS: usize = 3;
/// Cases the step and counter probes run (the workload's first ones).
const PROBE_CASES: u32 = 200;
/// The comparison stride of the counter probe that counts bisection
/// rewinds: at the workloads' own stride of 1 there is nothing to bisect.
const REWIND_STRIDE: u64 = 16;

struct Args {
    kind: Kind,
    seed: u64,
    /// Required except in child mode.
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    /// Internal: execute the workload once into this directory and exit.
    child: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut child = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kind =
                    Some(Kind::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            "--child" => child = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if seconds.is_none() && child.is_none() {
        return Err("--seconds is required".into());
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
        child,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seconds S [--seed N] \
                 [--trace 0|1] [--smoke]",
                Kind::ALL.map(Kind::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = Workload::new(args.kind, args.seed, args.smoke);
    if let Some(dir) = &args.child {
        return child(&w, dir);
    }
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a subdirectory of the repository")
        .to_path_buf();
    let work = Workdir(repo.join(".bench_work").join(format!(
        "{}-seed{}-{}",
        w.kind.name(),
        args.seed,
        std::process::id()
    )));
    let result = std::fs::create_dir_all(&work.0)
        .map_err(|e| format!("{}: {e}", work.0.display()))
        .and_then(|()| {
            println!("{}", host::stamp(&repo, &work.0));
            if args.trace {
                traced(&args, &w, &work.0, &repo)
            } else {
                untraced(&args, &w, &work.0)
            }
        });
    match result {
        Ok(result) => {
            println!("{}", result.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Removes a run's campaign directories when the run ends.
struct Workdir(PathBuf);

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The final result line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn print_metrics(&self) {
        for (name, unit, value) in &self.metrics {
            println!("{name} {value} {unit}");
        }
        println!(
            "failed_ratio {} failed/attempted ({} of {})",
            ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted
        );
    }
}

/// Child mode: one untraced execution, its measurements and report digest
/// written to `dir/result.json`. Standard output gets the execution's
/// line of `expected-reports.tsv`.
fn child(w: &Workload, dir: &Path) -> ExitCode {
    let ex = workload::execute(w, dir);
    let rss_mib = host::peak_rss_mib();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let gaps: Vec<f64> = ex
        .accepted
        .windows(2)
        .map(|pair| ms(pair[1] - pair[0]))
        .collect();
    let lease_ms = |p: u8| {
        ex.leases
            .as_ref()
            .and_then(|h| h.percentile(p))
            .map_or(0.0, |us| us as f64 / 1e3)
    };
    let (completed, cycles, digest, error) = match &ex.report {
        Ok(report) => (
            report.completed(),
            report.cycles_verified(),
            workload::digest(report),
            String::new(),
        ),
        Err(e) => (0, 0, String::new(), e.clone()),
    };
    let fields = [
        ("wall_s", ex.wall.as_secs_f64()),
        ("setup_s", ex.setup.unwrap_or(ex.wall).as_secs_f64()),
        ("completed", f64::from(completed)),
        ("cycles", cycles as f64),
        ("failed", f64::from(w.failed_cases(&ex.report))),
        ("rss_mib", rss_mib),
        ("cpu_s", ex.cpu_s),
        ("merge_ms", ex.merge.map_or(0.0, ms)),
        ("gap_p50_ms", percentile(&gaps, 50.0)),
        ("gap_p99_ms", percentile(&gaps, 99.0)),
        ("lease_p50_ms", lease_ms(50)),
        ("lease_p99_ms", lease_ms(99)),
        (
            "leases",
            ex.leases.as_ref().map_or(0.0, |h| h.count() as f64),
        ),
    ];
    let mut doc: Vec<(String, Json)> = fields
        .iter()
        .map(|(k, v)| (k.to_string(), Json::num(v)))
        .collect();
    doc.push(("digest".into(), Json::str(digest.clone())));
    doc.push(("error".into(), Json::str(error)));
    match std::fs::write(dir.join("result.json"), Json::Obj(doc).render()) {
        Ok(()) => {
            println!("{}", w.table_line(&digest));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench child: {}: {e}", dir.display());
            ExitCode::FAILURE
        }
    }
}

/// One child execution as the parent reads it back.
struct Sample {
    doc: Json,
    /// The host-speed probe's time beside this execution ÷
    /// `calib::REFERENCE`: above 1 when the host ran slow.
    host_scale: f64,
}

impl Sample {
    fn get(&self, key: &str) -> f64 {
        match self.doc.get(key) {
            Some(Json::Num(n)) => n.parse().unwrap_or(0.0),
            _ => 0.0,
        }
    }

    fn text(&self, key: &str) -> Option<&str> {
        self.doc
            .get(key)
            .and_then(Json::as_str)
            .filter(|e| !e.is_empty())
    }
}

/// Executes the workload once in a child process, in the fresh directory
/// `dir`, killing it if it outlives `deadline`.
fn spawn_child(args: &Args, w: &Workload, dir: &Path, deadline: Instant) -> Result<Sample, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        w.kind.name(),
        "--seed",
        &args.seed.to_string(),
        "--child",
    ])
    .arg(dir)
    .stdin(Stdio::null())
    .stdout(Stdio::null());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let mut process = cmd.spawn().map_err(|e| format!("spawn: {e}"))?;
    let status = loop {
        if let Some(status) = process.try_wait().map_err(|e| format!("wait: {e}"))? {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = process.kill();
            let _ = process.wait();
            return Err(format!(
                "{} execution ran past the time budget",
                w.kind.name()
            ));
        }
        // Coarse polling: the parent must not compete with the execution.
        std::thread::sleep(Duration::from_millis(20));
    };
    if !status.success() {
        return Err(format!("{} execution exited with {status}", w.kind.name()));
    }
    let text = std::fs::read_to_string(dir.join("result.json"))
        .map_err(|e| format!("child result: {e}"))?;
    Ok(Sample {
        doc: Json::parse(&text)?,
        host_scale: 1.0,
    })
}

/// A run's output checks, folded: whether all passed, and the cases that
/// failed. A failed check fails every case of the execution it checked.
struct Checks {
    passed: bool,
    failed: u64,
    cases: u64,
}

impl Checks {
    fn new(w: &Workload) -> Checks {
        Checks {
            passed: true,
            failed: 0,
            cases: u64::from(w.config.cases),
        }
    }

    /// The report digest every execution must have, printed with where
    /// it comes from: the committed table, else the single-machine
    /// `reference`, else the run's `first` execution. A reference that
    /// differs from the committed digest fails the run.
    fn expected(&mut self, w: &Workload, reference: Option<String>, first: &Sample) -> String {
        let (digest, source) = match (w.committed_digest(), reference) {
            (Some(committed), reference) => {
                if reference.is_some_and(|r| r != committed) {
                    self.fail("the single-machine reference differs from the committed digest");
                }
                (committed.to_string(), "committed")
            }
            (None, Some(reference)) => (reference, "single-machine reference"),
            (None, None) => (
                first.text("digest").unwrap_or_default().to_string(),
                "first execution; no committed digest for this seed",
            ),
        };
        println!("expected report digest {digest} ({source})");
        digest
    }

    /// Checks one execution: it must have succeeded with the `expected`
    /// report digest; its own failed cases count either way.
    fn execution(&mut self, sample: &Sample, expected: &str) {
        if let Some(e) = sample.text("error") {
            self.fail(&format!("execution failed: {e}"));
        } else if sample.text("digest") != Some(expected) {
            self.fail(&format!(
                "report digest {} differs from the expected {expected}",
                sample.text("digest").unwrap_or("-")
            ));
        } else {
            self.failed += sample.get("failed") as u64;
        }
    }

    fn fail(&mut self, why: &str) {
        println!("output check failed: {why}");
        self.passed = false;
        self.failed += self.cases;
    }
}

/// The end-to-end metrics, each the median over a run's executions.
const END_TO_END: [(&str, &str); 4] = [
    ("cases_per_s", "cases/s"),
    ("cycles_per_s", "cycles/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// One execution's value of an end-to-end metric as measured.
fn raw_metric(sample: &Sample, name: &str) -> f64 {
    match name {
        "cases_per_s" => ratio(sample.get("completed"), sample.get("wall_s")),
        "cycles_per_s" => ratio(sample.get("cycles"), sample.get("wall_s")),
        "setup_s" => sample.get("setup_s"),
        _ => sample.get("rss_mib"),
    }
}

/// One execution's value of an end-to-end metric as reported: the time
/// metrics scaled to the reference host speed (see `calib`).
fn metric_of(sample: &Sample, name: &str) -> f64 {
    let raw = raw_metric(sample, name);
    match name {
        "cases_per_s" | "cycles_per_s" => raw * sample.host_scale,
        "setup_s" => ratio(raw, sample.host_scale),
        _ => raw,
    }
}

/// Flushes dirty file-system state before the traced replay, whose
/// untraced execution keeps its records for the replay to compare with;
/// without this, their write-back lands in the replay's spans.
fn settle() {
    let _ = Command::new("sync")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
}

fn reference(w: &Workload, work: &Path) -> Result<Option<String>, String> {
    w.needs_reference()
        .then(|| workload::reference(w, &work.join("reference")))
        .transpose()
}

fn untraced(args: &Args, w: &Workload, work: &Path) -> Result<Outcome, String> {
    let started = Instant::now();
    let deadline = started + RUN_BUDGET;
    let reference = reference(w, work)?;
    // Each campaign directory is removed as soon as its execution ends,
    // before the kernel writes its files back, and nothing forces a
    // write-back between executions: a `sync` there made every
    // execution's files hit the disk, and the kernel's file-creation cost
    // on the sizing host then swung by an order of magnitude.
    let _ = std::fs::remove_dir_all(work.join("reference"));
    let seconds = if args.smoke {
        0.0
    } else {
        args.seconds.unwrap_or_default()
    };
    let measure_until = Instant::now() + Duration::from_secs_f64(seconds);
    let mut samples = Vec::new();
    // Host-speed probes before the first execution and after each one;
    // an execution's host scale is the mean of the two beside it.
    let mut before = calib::probe();
    while samples.len() < MIN_EXECUTIONS || Instant::now() < measure_until {
        let dir = work.join(format!("execution-{}", samples.len()));
        let mut sample = spawn_child(args, w, &dir, deadline)?;
        let _ = std::fs::remove_dir_all(&dir);
        let after = calib::probe();
        sample.host_scale = (before + after).as_secs_f64() / 2.0 / calib::REFERENCE.as_secs_f64();
        before = after;
        samples.push(sample);
    }
    let mut checks = Checks::new(w);
    let expected = checks.expected(w, reference, &samples[0]);
    for sample in &samples {
        checks.execution(sample, &expected);
    }
    let metrics = END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let values: Vec<f64> = samples.iter().map(|s| metric_of(s, name)).collect();
            (name, unit, median(&values))
        })
        .collect();
    let attempted = checks.cases * samples.len() as u64;
    let outcome = Outcome {
        correct: checks.passed,
        attempted,
        // Several checks may fail the same execution's cases.
        failed: checks.failed.min(attempted),
        metrics,
    };
    println!(
        "workload {} seed {}: {} executions of {} cases in {:.1} s; output check {}",
        w.kind.name(),
        args.seed,
        samples.len(),
        w.config.cases,
        started.elapsed().as_secs_f64(),
        if checks.passed { "passed" } else { "FAILED" }
    );
    let scales: Vec<f64> = samples.iter().map(|s| s.host_scale).collect();
    println!(
        "  host scale (probe time / {} ms): median {:.4}, executions {}",
        calib::REFERENCE.as_millis(),
        median(&scales),
        scales
            .iter()
            .map(|v| format!("{v:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for (name, unit, _) in &outcome.metrics {
        let values: Vec<String> = samples
            .iter()
            .map(|s| format!("{:.6}", metric_of(s, name)))
            .collect();
        let raw: Vec<f64> = samples.iter().map(|s| raw_metric(s, name)).collect();
        println!(
            "  executions: {name} ({unit}) {}; as measured, median {:.6}",
            values.join(" "),
            median(&raw)
        );
    }
    outcome.print_metrics();
    Ok(outcome)
}

fn traced(args: &Args, w: &Workload, work: &Path, repo: &Path) -> Result<Outcome, String> {
    let deadline = Instant::now() + RUN_BUDGET;
    let reference = reference(w, work)?;
    let untraced_root = work.join("untraced");
    settle();
    let sample = spawn_child(args, w, &untraced_root, deadline)?;
    let mut checks = Checks::new(w);
    let expected = checks.expected(w, reference, &sample);
    checks.execution(&sample, &expected);
    let output = w.output_dir(&untraced_root);

    settle();
    let replay = replay::replay(w, &work.join("replay"))?;
    let faithful = replay.parts.iter().all(|(dir, range)| {
        range.clone().all(|index| {
            std::fs::read(dir.case_path(index)).ok() == std::fs::read(output.case_path(index)).ok()
        })
    });
    if !faithful {
        checks.fail("the replayed records differ from the untraced run's");
    }

    let trace_dir =
        repo.join(".bench_work")
            .join("trace")
            .join(format!("{}-seed{}", w.kind.name(), args.seed));
    std::fs::create_dir_all(&trace_dir).map_err(|e| format!("{}: {e}", trace_dir.display()))?;
    let events = replay::events_log(&replay.threads);
    if let Err(e) = rtl_obs::trace_from_text(&events, "replay") {
        checks.fail(&format!("the span log does not export: {e}"));
    }
    std::fs::write(trace_dir.join("events.jsonl"), &events)
        .and_then(|()| {
            std::fs::write(
                trace_dir.join("spans.tsv"),
                replay::spans_table(&replay.threads),
            )
        })
        .map_err(|e| format!("{}: {e}", trace_dir.display()))?;

    let probe = replay::probe_cases(w, PROBE_CASES)?;
    let step = replay::step_probe(w, &probe)?;
    let (compares, _) = replay::counter_probe(w, &probe, w.config.compare_every)?;
    let (_, rewinds) = replay::counter_probe(w, &probe, REWIND_STRIDE)?;
    let layers = LayerTimes::of(&replay);
    let counters = (compares as f64, rewinds as f64);
    let metrics = per_layer(w, &sample, &replay, &layers, &step, counters, &output)?;
    println!(
        "workload {} seed {}: traced replay of {} cases in {:.2} s (untraced {:.2} s); \
         output check {}; spans in {}",
        w.kind.name(),
        args.seed,
        w.config.cases,
        replay.wall.as_secs_f64(),
        sample.get("wall_s"),
        if checks.passed { "passed" } else { "FAILED" },
        trace_dir.display()
    );
    if let Some((name, share)) = layers.largest() {
        println!(
            "largest layer: {name} ({:.1}% of replay case time)",
            share * 100.0
        );
    }
    let outcome = Outcome {
        correct: checks.passed,
        attempted: checks.cases,
        // Several checks may fail the same execution's cases.
        failed: checks.failed.min(checks.cases),
        metrics,
    };
    outcome.print_metrics();
    Ok(outcome)
}

/// Span durations of the replay, grouped by layer, in microseconds.
struct LayerTimes {
    spans: Vec<(&'static str, f64)>,
    case_us: f64,
}

impl LayerTimes {
    fn of(replay: &replay::Replay) -> LayerTimes {
        let mut spans = Vec::new();
        let mut case_us = 0.0;
        for thread in &replay.threads {
            for span in &thread.spans {
                let us = span.dur().as_secs_f64() * 1e6;
                if span.name == replay::CASE {
                    case_us += us;
                } else {
                    spans.push((span.name, us));
                }
            }
        }
        LayerTimes { spans, case_us }
    }

    fn of_layer(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, us)| *us)
            .collect()
    }

    fn total(&self, prefix: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(n, _)| n.split('.').next() == Some(prefix))
            .fold(0.0, |sum, (_, us)| sum + us)
    }

    /// A layer's share of replay case time (the `build` layer sums both
    /// lanes' builds).
    fn share(&self, layer: &str) -> f64 {
        ratio(self.total(layer), self.case_us)
    }

    /// Case time no layer span covers: the replay's own bookkeeping.
    fn unattributed(&self) -> f64 {
        ratio(
            self.case_us - self.spans.iter().fold(0.0, |sum, (_, us)| sum + us),
            self.case_us,
        )
    }

    fn largest(&self) -> Option<(&'static str, f64)> {
        SHARE_LAYERS
            .iter()
            .map(|&(layer, _)| (layer, self.share(layer)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// The layers whose share of case time is reported, with metric names.
const SHARE_LAYERS: [(&str, &str); 8] = [
    ("generate", "share.generate"),
    ("lint", "share.lint"),
    ("elaborate", "share.elaborate"),
    ("build", "share.build"),
    ("lockstep", "share.lockstep"),
    ("shrink", "share.shrink"),
    ("corpus", "share.corpus"),
    ("publish", "share.publish"),
];

/// Microseconds per call of `f` over `items`.
fn time_each<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let started = Instant::now();
    for item in items {
        f(item);
    }
    ratio(started.elapsed().as_secs_f64() * 1e6, items.len() as f64)
}

fn per_layer(
    w: &Workload,
    sample: &Sample,
    replay: &replay::Replay,
    layers: &LayerTimes,
    step: &[f64],
    (compares, rewinds): (f64, f64),
    output: &CampaignDir,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let calls = |name: &str| layers.of_layer(name).len() as f64;
    let per_call = |name: &str| mean(&layers.of_layer(name));
    let tally = |f: &dyn Fn(&replay::Tally) -> u64| -> f64 {
        replay.threads.iter().map(|t| f(&t.tally) as f64).sum()
    };
    let cycles = tally(&|t| t.cycles);
    let shrinks = tally(&|t| t.shrink_calls);
    let lockstep_ns = ratio(layers.total("lockstep") * 1e3, cycles);
    let step_ns = |lane: &str| {
        w.config
            .engines
            .iter()
            .zip(step)
            .filter(|(name, _)| name.starts_with(lane))
            .map(|(_, ns)| *ns)
            .sum::<f64>()
    };
    // Corpus saves in the order they happened, for the growth ratio.
    let mut saves: Vec<(std::time::Duration, f64)> = replay
        .threads
        .iter()
        .flat_map(|t| t.spans.iter())
        .filter(|s| s.name == "corpus")
        .map(|s| (s.start, s.dur().as_secs_f64() * 1e6))
        .collect();
    saves.sort_by_key(|(at, _)| *at);
    let saves: Vec<f64> = saves.into_iter().map(|(_, us)| us).collect();
    let tenth = saves.len() / 10;
    let save_growth = if tenth == 0 {
        0.0
    } else {
        ratio(mean(&saves[saves.len() - tenth..]), mean(&saves[..tenth]))
    };
    let publish = layers.of_layer("publish");

    // The state, dist and fleet layers, timed over the untraced run's
    // own published records.
    let cases = w.config.cases;
    let bodies: Vec<(u32, String)> = (0..cases)
        .filter_map(|i| {
            std::fs::read_to_string(output.case_path(i))
                .ok()
                .map(|b| (i, b))
        })
        .collect();
    let load_ms = median(
        &(0..3)
            .map(|_| {
                let started = Instant::now();
                let loaded = output.load_cases(cases).map(|r| r.len());
                std::hint::black_box(loaded).map(|_| started.elapsed().as_secs_f64() * 1e3)
            })
            .collect::<Result<Vec<f64>, _>>()
            .map_err(|e| e.to_string())?,
    );
    let dist = matches!(w.kind, Kind::ShrinkShard | Kind::FleetLease);
    let fleet = w.kind == Kind::FleetLease;
    let verify_us = if dist {
        time_each(&bodies, |(index, body)| {
            if let Ok(record) = rtl_dist::verify::parse_record(&w.config, *index, body) {
                let _ = std::hint::black_box(rtl_dist::verify::check_record(&w.config, &record));
            }
        })
    } else {
        0.0
    };
    let frames: Vec<rtl_fleet::Message> = bodies
        .iter()
        .filter(|_| fleet)
        .map(|(index, body)| rtl_fleet::Message::Record {
            index: *index,
            body: body.clone(),
        })
        .collect();
    let encoded: Vec<String> = frames.iter().map(rtl_fleet::protocol::encode).collect();
    let encode_us = time_each(&frames, |m| {
        std::hint::black_box(rtl_fleet::protocol::encode(m));
    });
    let decode_us = time_each(&encoded, |line| {
        let _ = std::hint::black_box(rtl_fleet::protocol::decode(line));
    });
    let merge_ms = sample.get("merge_ms");
    let wall = sample.get("wall_s");

    let mut metrics = vec![
        ("generate.calls", "count", calls("generate")),
        ("generate.us_per_call", "us", per_call("generate")),
        ("elaborate.calls", "count", calls("elaborate")),
        ("elaborate.us_per_call", "us", per_call("elaborate")),
        ("lint.calls", "count", calls("lint")),
        ("lint.us_per_call", "us", per_call("lint")),
        ("build.interp.us", "us", per_call("build.interp")),
        ("build.vm.us", "us", per_call("build.vm")),
        ("step.interp.ns_per_cycle", "ns/cycle", step_ns("interp")),
        ("step.vm.ns_per_cycle", "ns/cycle", step_ns("vm")),
        ("lockstep.ns_per_cycle", "ns/cycle", lockstep_ns),
        (
            "compare.ns_per_cycle",
            "ns/cycle",
            lockstep_ns - step_ns("interp") - step_ns("vm"),
        ),
        ("lockstep.compares", "count", compares),
        ("lockstep.bisect_rewinds", "count", rewinds),
        ("shrink.ms_per_call", "ms", per_call("shrink") / 1e3),
        (
            "shrink.probes_per_call",
            "count",
            ratio(tally(&|t| t.probes), shrinks),
        ),
        (
            "shrink.reproduced_ratio",
            "ratio",
            ratio(tally(&|t| t.reproduced), shrinks),
        ),
        ("corpus.save_us.p50", "us", percentile(&saves, 50.0)),
        ("corpus.save_us.p99", "us", percentile(&saves, 99.0)),
        ("corpus.save_growth", "ratio", save_growth),
        ("corpus.dedup_hits", "count", tally(&|t| t.dedup_hits)),
        ("publish.record_us.p50", "us", percentile(&publish, 50.0)),
        ("publish.record_us.p99", "us", percentile(&publish, 99.0)),
        ("state.load_cases_ms", "ms", load_ms),
        ("merge.ms", "ms", merge_ms),
        (
            "merge.us_per_record",
            "us",
            ratio(merge_ms * 1e3, f64::from(cases)),
        ),
        ("verify.us_per_record", "us", verify_us),
        ("protocol.encode_us", "us", encode_us),
        ("protocol.decode_us", "us", decode_us),
        ("fleet.accept_gap_ms.p50", "ms", sample.get("gap_p50_ms")),
        ("fleet.accept_gap_ms.p99", "ms", sample.get("gap_p99_ms")),
        ("fleet.lease_ms.p50", "ms", sample.get("lease_p50_ms")),
        ("fleet.lease_ms.p99", "ms", sample.get("lease_p99_ms")),
        ("fleet.leases", "count", sample.get("leases")),
        (
            "fleet.compute_share",
            "ratio",
            if fleet {
                ratio(replay.wall.as_secs_f64(), wall)
            } else {
                0.0
            },
        ),
        (
            "host.cpu_util",
            "ratio",
            ratio(sample.get("cpu_s"), wall * host::nproc() as f64),
        ),
        (
            "trace.overhead",
            "ratio",
            ratio(replay.wall.as_secs_f64(), wall),
        ),
        ("trace.unattributed_share", "ratio", layers.unattributed()),
    ];
    for (layer, name) in SHARE_LAYERS {
        metrics.push((name, "ratio", layers.share(layer)));
    }
    Ok(metrics)
}
