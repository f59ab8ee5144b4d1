//! The campaign runner: a work-stealing worker pool over per-case fuzz
//! lockstep, publishing case records as they complete.
//!
//! Determinism is the load-bearing property. Every case's outcome depends
//! only on `(config, index)` — each worker builds its own
//! [`EngineRegistry`] and each case derives its own seed — so the campaign
//! summary is identical across runs, worker counts and interruptions.
//! Workers *steal* case indices from one shared counter (the cheapest
//! work-stealing queue there is: cases are homogeneous, so a single atomic
//! head beats per-worker deques), and each worker publishes its case's
//! [bundle](crate::bundle) in the shared commit order before the
//! collector acknowledges it, which is what makes a kill at any instant
//! resumable.

use crate::bundle::{expected_seed, CaseBundle};
use crate::caselog::{Frames, Kind, LogWriter};
use crate::checkpoint::{CaseCheckpoint, LogCheckpoints};
use crate::config::CampaignConfig;
use crate::corpus::{self, kind_label, Archive, CorpusIndex, ReplayReport};
use crate::error::CampaignError;
use crate::shrink::shrink_from;
use crate::state::{CampaignDir, CaseRecord, CaseStatus, LaneAccess};
use rtl_compile::{BinaryCache, GeneratedRustFactory};
use rtl_core::{EngineRegistry, ProfileHook, StopReason};
use rtl_cosim::fault::FaultyVmFactory;
use rtl_cosim::{run_fuzz_case, Checkpoints, FuzzOptions};
use rtl_obs::{FlightRing, Recorder};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Run-time knobs that do **not** affect case outcomes (and are therefore
/// not persisted or fingerprinted).
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Worker threads. Any value produces the identical campaign.
    pub workers: usize,
    /// Stop after completing this many *new* cases — the programmatic
    /// interrupt (`campaign resume` finishes the rest).
    pub limit: Option<u32>,
    /// Checkpoint each case's lockstep run mid-flight, every
    /// [`CASE_CHECKPOINT_EVERY`](crate::CASE_CHECKPOINT_EVERY) cycles, as
    /// a frame of the worker's own log ([`checkpoint`](crate::checkpoint)):
    /// a kill inside one *giant* case resumes from the last checkpoint
    /// instead of recomputing the whole horizon, with the profile and
    /// flight ring it had there. A
    /// leftover checkpoint the lockstep refuses to resume is dropped (a
    /// `campaign/checkpoint_dropped` mark) and its case runs again from
    /// the start. A lane mix with a stream lane, which cannot resume,
    /// writes none. Off by default — worth it only when a single case
    /// runs long.
    pub case_checkpoint: bool,
    /// Run only the case indices in this half-open range — the
    /// distributed-shard hook (`rtl-dist`): each machine executes its
    /// slice of the same campaign, and because every case's outcome
    /// depends only on `(config, index)`, the union of the slices is
    /// bit-identical to a single-machine run. Cases outside the range are
    /// left unrun (the report shows them as gaps). A ranged
    /// [`resume`] reads only the range's case frames, so its cost follows
    /// the range, not the campaign: a completed record outside the range
    /// is reported as a gap too, and is never read.
    /// `None` runs everything.
    pub case_range: Option<std::ops::Range<u32>>,
    /// Telemetry tap (disabled/no-op by default), threaded into every
    /// worker's lockstep sessions. Deterministic counters
    /// (`campaign/cases_executed`, `campaign/cycles_verified`,
    /// `campaign/divergences`, `campaign/shrink_probes`, ...) fold to
    /// byte-identical totals across worker counts and kill+resume;
    /// spans and gauges are wall-clock. Recording never perturbs the
    /// campaign's report, manifest or case records.
    pub recorder: Recorder,
    /// Collect a per-case execution profile (`rtl-prof`): each case runs
    /// its lanes with a fresh collecting hook, publishes the snapshot as
    /// a profile frame in its [bundle](crate::bundle) (exported as
    /// `cases/case-N.profile`), and folds the counters into the recorder
    /// as deterministic `profile/<component>/<event>` deltas. Case
    /// outcomes, records and the campaign fingerprint are unaffected.
    pub profile: bool,
    /// Arm the divergence flight recorder: each case runs with a fresh
    /// bounded ring capturing its deterministic counter events in call
    /// order, and when a case ends abnormally (divergence, oracle
    /// contradiction, halt, harness error) the ring is dumped as a flight
    /// frame in the case's bundle (exported as
    /// `cases/case-N.flight.jsonl`), so the dump is byte-identical across
    /// worker counts and kill+resume. Agreed cases leave no dump.
    pub flight: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8),
            limit: None,
            case_checkpoint: false,
            case_range: None,
            recorder: Recorder::disabled(),
            profile: false,
            flight: false,
        }
    }
}

/// Live progress callbacks, invoked on the calling thread in completion
/// order (completion order is scheduling-dependent; the final report is
/// not).
pub trait Progress {
    /// One case just completed and its record is on disk.
    fn case_done(&mut self, record: &CaseRecord, done: u32, total: u32);
}

/// Ignores progress.
pub struct NoProgress;

impl Progress for NoProgress {
    fn case_done(&mut self, _record: &CaseRecord, _done: u32, _total: u32) {}
}

/// The result of a campaign run or resume.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The campaign configuration.
    pub config: CampaignConfig,
    /// The corpus replay performed before fuzzing (fresh runs over a
    /// pre-seeded corpus only).
    pub replay: Option<ReplayReport>,
    /// Every case record, by index; `None` where a case has not run yet
    /// (an interrupted campaign).
    pub records: Vec<Option<CaseRecord>>,
    /// Corpus entries added by *this* invocation, sorted.
    pub new_corpus: Vec<String>,
    /// Wall-clock time of this invocation (excluded from the
    /// `Display` rendering, which must stay deterministic).
    pub elapsed: Duration,
}

impl CampaignReport {
    /// Completed cases.
    pub fn completed(&self) -> u32 {
        self.records.iter().flatten().count() as u32
    }

    /// `true` when every case has a record.
    pub fn complete(&self) -> bool {
        self.completed() as usize == self.records.len()
    }

    /// Completed cases that agreed over their full horizon.
    pub fn agreed(&self) -> u32 {
        self.count(|s| matches!(s, CaseStatus::Agreed))
    }

    /// Completed cases whose lanes diverged.
    pub fn diverged(&self) -> u32 {
        self.count(|s| matches!(s, CaseStatus::Diverged { .. }))
    }

    /// Total cycles verified across completed cases.
    pub fn cycles_verified(&self) -> u64 {
        self.records.iter().flatten().map(|r| r.cycles).sum()
    }

    /// `true` when the campaign is complete, every case agreed, and no
    /// replayed corpus entry reproduced its divergence.
    pub fn clean(&self) -> bool {
        self.complete()
            && self.agreed() as usize == self.records.len()
            && self.replay.as_ref().is_none_or(ReplayReport::clean)
    }

    /// Total verified cycles per case status, in the fixed order
    /// `agreed, halted, diverged, error` — the denominator execution
    /// profiles need in the same document (profile events per *agreed*
    /// cycle is the meaningful ratio; diverged cases stop early).
    pub fn cycles_by_status(&self) -> [(&'static str, u64); 4] {
        let mut totals = [("agreed", 0), ("halted", 0), ("diverged", 0), ("error", 0)];
        for record in self.records.iter().flatten() {
            let slot = match &record.status {
                CaseStatus::Agreed => 0,
                CaseStatus::Halted { .. } => 1,
                CaseStatus::Diverged { .. } => 2,
                CaseStatus::Error { .. } => 3,
            };
            totals[slot].1 += record.cycles;
        }
        totals
    }

    fn count(&self, want: impl Fn(&CaseStatus) -> bool) -> u32 {
        self.records
            .iter()
            .flatten()
            .filter(|r| want(&r.status))
            .count() as u32
    }

    /// Per-lane totals aggregated over every completed case's persisted
    /// [`LaneAccess`] stats, sorted by lane name. Purely a function of the
    /// records, so the rendering stays deterministic (and identical
    /// between a single-machine run and a merged shard set).
    pub fn lane_totals(&self) -> Vec<LaneTotals> {
        aggregate_lanes(self.records.iter().flatten().map(|r| &r.lane_stats[..]))
    }
}

/// Aggregated per-lane statistics across a set of case records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneTotals {
    /// Engine lane name.
    pub lane: String,
    /// Cases this lane reported stats for.
    pub cases: u64,
    /// Total cycles the lane executed.
    pub cycles: u64,
    /// Total register/memory accesses the lane performed.
    pub accesses: u64,
}

/// Folds per-case [`LaneAccess`] stats into sorted per-lane totals
/// (shared by campaign, shard and replay reports).
pub fn aggregate_lanes<'a>(stats: impl IntoIterator<Item = &'a [LaneAccess]>) -> Vec<LaneTotals> {
    let mut lanes: std::collections::BTreeMap<&str, LaneTotals> = Default::default();
    for case in stats {
        for stat in case {
            let entry = lanes.entry(&stat.lane).or_insert_with(|| LaneTotals {
                lane: stat.lane.clone(),
                cases: 0,
                cycles: 0,
                accesses: 0,
            });
            entry.cases += 1;
            entry.cycles += stat.cycles;
            entry.accesses += stat.accesses;
        }
    }
    lanes.into_values().collect()
}

impl std::fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "campaign: {} cases from seed {}, engines [{}], {} cycles/case",
            self.config.cases,
            self.config.seed,
            self.config.engines.join(", "),
            self.config.generator.cycles,
        )?;
        if let Some(replay) = &self.replay {
            write!(f, "{replay}")?;
        }
        for record in self.records.iter().flatten() {
            match &record.status {
                CaseStatus::Agreed => {}
                CaseStatus::Halted { detail } => writeln!(
                    f,
                    "  case {} (seed {}): halted after {} cycles: {detail}",
                    record.index, record.seed, record.cycles
                )?,
                CaseStatus::Error { detail } => writeln!(
                    f,
                    "  case {} (seed {}): harness error: {detail}",
                    record.index, record.seed
                )?,
                CaseStatus::Diverged {
                    cycle,
                    kind,
                    corpus,
                } => {
                    write!(
                        f,
                        "  case {} (seed {}): DIVERGED at cycle {cycle} ({kind})",
                        record.index, record.seed
                    )?;
                    match corpus {
                        Some(name) => writeln!(f, " -> corpus {name}")?,
                        None => writeln!(f, " (shrink did not reproduce)")?,
                    }
                }
            }
        }
        for totals in self.lane_totals() {
            writeln!(
                f,
                "lane {}: {} cases, {} cycles, {} accesses",
                totals.lane, totals.cases, totals.cycles, totals.accesses
            )?;
        }
        let by_status = self.cycles_by_status();
        writeln!(
            f,
            "cycles by status: {}",
            by_status
                .iter()
                .map(|(tag, cycles)| format!("{tag} {cycles}"))
                .collect::<Vec<_>>()
                .join(", ")
        )?;
        let done = self.completed();
        write!(
            f,
            "summary: {}/{done} agreed, {} diverged, {} cycles verified",
            self.agreed(),
            self.diverged(),
            self.cycles_verified(),
        )?;
        if !self.complete() {
            write!(
                f,
                " ({done}/{} cases done, resume to continue)",
                self.records.len()
            )?;
        }
        writeln!(f)
    }
}

/// The registry campaign workers run against: every default lane, the
/// `vm-fault` self-test lane, and the `rust` stream lane re-registered
/// over the campaign's disk-backed binary cache.
pub fn campaign_registry(bin_cache: Option<Arc<BinaryCache>>) -> EngineRegistry {
    let mut registry = rtl_cosim::default_registry();
    registry.register(Box::new(FaultyVmFactory::default()));
    if let Some(cache) = bin_cache {
        registry.register(Box::new(GeneratedRustFactory::cached(cache)));
    }
    registry
}

/// Starts a fresh campaign in `dir` (which must not already hold one),
/// replaying any pre-seeded corpus first, then fuzzing all cases.
///
/// # Errors
///
/// An already-initialized directory, unknown engine names, corrupt
/// pre-seeded corpus entries, lane failures, or I/O.
pub fn run(
    dir: &CampaignDir,
    config: &CampaignConfig,
    options: &RunOptions,
    progress: &mut dyn Progress,
) -> Result<CampaignReport, CampaignError> {
    let cache = Arc::new(BinaryCache::at_dir(dir.bin_cache()));
    validate_engines(config, &campaign_registry(Some(Arc::clone(&cache))))?;
    dir.init(config)?;
    dir.sweep_orphans()?;

    // Pre-seeded regression scenarios replay before any fuzzing: a known
    // bug resurfacing is worth more than a new random case. The same scan
    // indexes them for deduplication.
    let corpus = Frames::scan(dir, 0..0, &[Kind::Corpus], |_, _| Ok(()))?;
    let entries = corpus.load_all()?;
    options
        .recorder
        .count("campaign", "corpus_replayed", entries.len() as u64);
    let replay = if entries.is_empty() {
        None
    } else {
        let registry = campaign_registry(Some(Arc::clone(&cache)));
        Some(corpus::replay(&registry, &entries, Some(&config.engines))?)
    };

    let records = vec![None; config.cases as usize];
    let index = corpus.index();
    let report = execute::<CampaignError>(
        Sink::Dir(dir, progress),
        config,
        options,
        cache,
        records,
        replay,
        &index,
        &BTreeMap::new(),
    )?;
    compact_when_complete(dir, options, &report)?;
    Ok(report)
}

/// Resumes the campaign in `dir`: validates the stored configuration's
/// fingerprint, loads completed case records, and runs only the gaps,
/// each from the latest checkpoint a kill left of it, if any.
/// An unranged resume takes the directory over and first
/// [sweeps](CampaignDir::sweep_orphans) orphaned temp files, and
/// [compacts](CampaignDir::compact) the record logs once the campaign is
/// complete. With `options.case_range` set, only that range's records
/// are loaded and nothing outside the range is touched.
///
/// # Errors
///
/// A missing or corrupt campaign, a fingerprint mismatch, lane failures,
/// or I/O.
pub fn resume(
    dir: &CampaignDir,
    options: &RunOptions,
    progress: &mut dyn Progress,
) -> Result<CampaignReport, CampaignError> {
    let config = dir.load()?;
    if options.case_range.is_none() {
        dir.sweep_orphans()?;
    }
    // Checkpoints are read only for a run that resumes from them.
    let kinds: &[Kind] = match options.case_checkpoint {
        true => &[
            Kind::Profile,
            Kind::Flight,
            Kind::Record,
            Kind::Corpus,
            Kind::Checkpoint,
        ],
        false => &Kind::BUNDLE,
    };
    let (records, frames) = dir.scan(config.cases, run_range(options, &config), kinds)?;
    let index = frames.index();
    let cache = Arc::new(BinaryCache::at_dir(dir.bin_cache()));
    validate_engines(&config, &campaign_registry(Some(Arc::clone(&cache))))?;
    let report = execute::<CampaignError>(
        Sink::Dir(dir, progress),
        &config,
        options,
        cache,
        records,
        None,
        &index,
        &frames.checkpoints,
    )?;
    compact_when_complete(dir, options, &report)?;
    Ok(report)
}

/// Runs the cases of `config` in `options.case_range` (all of them when
/// it is `None`) without a campaign directory: the pool threads move
/// each case's bundle to the collector, which hands it to `each` with
/// the case's record, on the calling thread, as the case finishes.
/// Nothing is written, so nothing resumes; the bundles are the bytes a
/// directory run publishes for the same cases. Nothing is archived
/// before the run, so every diverging case's bundle carries its own
/// corpus entry. `cache` holds the `rust` lane's binaries, so a caller
/// that runs many ranges compiles each design once.
///
/// # Errors
///
/// `options.case_checkpoint`, refused by name: a streamed run has no
/// log to keep checkpoints in. Unknown engine names, lane failures, or
/// the first error `each` returns: `each` is not called again, and the
/// pool stops once its threads finish the cases they are running.
pub fn run_streamed<E: From<CampaignError>>(
    config: &CampaignConfig,
    options: &RunOptions,
    cache: Arc<BinaryCache>,
    each: &mut dyn FnMut(&CaseRecord, CaseBundle) -> Result<(), E>,
) -> Result<CampaignReport, E> {
    if options.case_checkpoint {
        return Err(CampaignError::Config(
            "a streamed run takes no case checkpoints: it writes no log to keep them in".into(),
        )
        .into());
    }
    validate_engines(config, &campaign_registry(Some(Arc::clone(&cache))))?;
    execute(
        Sink::Stream(each),
        config,
        options,
        cache,
        vec![None; config.cases as usize],
        None,
        &CorpusIndex::default(),
        &BTreeMap::new(),
    )
}

/// Compacts the record logs once an unranged run leaves the campaign
/// complete. A ranged run owns only its range; its caller decides.
fn compact_when_complete(
    dir: &CampaignDir,
    options: &RunOptions,
    report: &CampaignReport,
) -> Result<(), CampaignError> {
    if options.case_range.is_none() && report.complete() {
        dir.compact(report.config.cases)?;
    }
    Ok(())
}

/// Replays the campaign's corpus standalone (the CI entry point).
///
/// # Errors
///
/// A corrupt corpus entry, lane failures, or I/O.
pub fn replay_corpus(
    dir: &CampaignDir,
    engines: Option<&[String]>,
) -> Result<ReplayReport, CampaignError> {
    let entries = Frames::scan(dir, 0..0, &[Kind::Corpus], |_, _| Ok(()))?.load_all()?;
    let cache = Arc::new(BinaryCache::at_dir(dir.bin_cache()));
    let registry = campaign_registry(Some(cache));
    corpus::replay(&registry, &entries, engines)
}

/// The case indices a run over `config` may touch: `options.case_range`
/// clipped to the campaign, or the whole campaign.
fn run_range(options: &RunOptions, config: &CampaignConfig) -> std::ops::Range<u32> {
    let range = options.case_range.clone().unwrap_or(0..config.cases);
    range.start..range.end.min(config.cases)
}

fn validate_engines(
    config: &CampaignConfig,
    registry: &EngineRegistry,
) -> Result<(), CampaignError> {
    registry
        .parse_list(&config.engines.join(","))
        .map(|_| ())
        .map_err(CampaignError::Config)
}

/// Why a worker's log is unusable: a thread panicked while writing it.
pub(crate) const LOG_POISONED: &str = "a worker's log writer panicked mid-write";

struct DoneCase {
    record: CaseRecord,
    corpus: Option<String>,
    /// The case's bundle, when no log holds it.
    bundle: Option<CaseBundle>,
}

/// Where the pool's case bundles go.
enum Sink<'a, E> {
    /// Each thread appends its bundles to a log of its own in the
    /// campaign directory; the collector reports progress.
    Dir(&'a CampaignDir, &'a mut dyn Progress),
    /// Each thread moves its bundles to the collector, which hands them
    /// to the caller.
    Stream(&'a mut dyn FnMut(&CaseRecord, CaseBundle) -> Result<(), E>),
}

/// Runs the pending cases of `records` on a pool of workers, each
/// deduplicating what it archives against `index` and, under
/// `--case-checkpoint`, resuming a case from its entry in `checkpoints`.
#[allow(clippy::too_many_arguments)]
fn execute<E: From<CampaignError>>(
    mut sink: Sink<'_, E>,
    config: &CampaignConfig,
    options: &RunOptions,
    cache: Arc<BinaryCache>,
    mut records: Vec<Option<CaseRecord>>,
    replay: Option<ReplayReport>,
    corpus_index: &CorpusIndex,
    checkpoints: &BTreeMap<u32, CaseCheckpoint>,
) -> Result<CampaignReport, E> {
    let started = Instant::now();
    let (hits_before, misses_before) = cache.stats();
    let dir = match &sink {
        Sink::Dir(dir, _) => Some(*dir),
        Sink::Stream(_) => None,
    };
    let mut fuzz = config.fuzz_options();
    // The recorder reaches every lane session and lockstep harness from
    // here; it is a run-time tap, so the config fingerprint is unchanged.
    fuzz.cosim.recorder = options.recorder.clone();
    let range = run_range(options, config);
    let mut pending: Vec<u32> = range
        .clone()
        .filter(|&i| records[i as usize].is_none())
        .collect();
    if let Some(limit) = options.limit {
        pending.truncate(limit as usize);
    }

    let next = AtomicU32::new(0);
    let abort = AtomicBool::new(false);
    let workers = options.workers.clamp(1, pending.len().max(1));
    options
        .recorder
        .gauge("campaign", "workers", workers as u64);
    let mut new_corpus = BTreeSet::new();
    let mut first_error: Option<E> = None;

    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<Result<DoneCase, CampaignError>>();
        for worker in 0..workers {
            let tx = tx.clone();
            let (pending, next, abort) = (&pending, &next, &abort);
            let (fuzz, cache) = (&fuzz, Arc::clone(&cache));
            let recorder = options.recorder.clone();
            scope.spawn(move || {
                let _worker_span = recorder.span("campaign", "worker");
                let mut claimed = 0u64;
                let registry = campaign_registry(Some(cache));
                // One log per thread: publishing a case is an append, and
                // so is each of its checkpoints.
                let log = dir.map(|dir| Arc::new(Mutex::new(LogWriter::new(dir))));
                loop {
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    let slot = next.fetch_add(1, Ordering::Relaxed) as usize;
                    let Some(&index) = pending.get(slot) else {
                        break;
                    };
                    claimed += 1;
                    let case_span = recorder.span("campaign", "case");
                    let result = run_one(
                        &registry,
                        config,
                        fuzz,
                        index,
                        log.as_ref(),
                        corpus_index,
                        options,
                        checkpoints.get(&index),
                    );
                    drop(case_span);
                    let failed = result.is_err();
                    if tx.send(result).is_err() || failed {
                        abort.store(true, Ordering::Relaxed);
                        break;
                    }
                }
                if let Some(Err(e)) = log.map(|log| log.lock().expect(LOG_POISONED).finish()) {
                    let _ = tx.send(Err(e.into()));
                }
                // Which worker claimed how many cases is scheduling
                // luck — a utilization gauge, never a counter.
                recorder.gauge("campaign", &format!("worker_{worker}_cases"), claimed);
            });
        }
        drop(tx);

        let mut done = records.iter().flatten().count() as u32;
        for result in rx {
            match result {
                Ok(case) => {
                    done += 1;
                    let handed = match (&mut sink, case.bundle) {
                        (Sink::Dir(_, progress), _) => {
                            progress.case_done(&case.record, done, config.cases);
                            Ok(())
                        }
                        (Sink::Stream(each), Some(bundle)) if first_error.is_none() => {
                            each(&case.record, bundle)
                        }
                        (Sink::Stream(_), _) => Ok(()),
                    };
                    if let Err(e) = handed {
                        abort.store(true, Ordering::Relaxed);
                        first_error.get_or_insert(e);
                    }
                    if let Some(name) = case.corpus {
                        new_corpus.insert(name);
                    }
                    let index = case.record.index as usize;
                    records[index] = Some(case.record);
                }
                Err(e) => {
                    abort.store(true, Ordering::Relaxed);
                    first_error.get_or_insert(e.into());
                }
            }
        }
    });

    if let Some(e) = first_error {
        return Err(e);
    }
    // Cache effectiveness for this invocation, when the engine set
    // compiles at all. Which worker wins a compile race can shift a hit
    // into a miss, so these are wall-clock gauges, not deterministic
    // counters.
    let (hits, misses) = cache.stats();
    let (hits, misses) = (hits - hits_before, misses - misses_before);
    if hits + misses > 0 {
        options.recorder.gauge("campaign", "bin_cache_hits", hits);
        options
            .recorder
            .gauge("campaign", "bin_cache_misses", misses);
    }
    Ok(CampaignReport {
        config: config.clone(),
        replay,
        records,
        new_corpus: new_corpus.into_iter().collect(),
        elapsed: started.elapsed(),
    })
}

/// What (if anything) triggers a flight dump for this record: a one-line
/// deterministic description of the abnormal ending, `None` for agreed
/// cases.
fn flight_trigger(record: &CaseRecord) -> Option<String> {
    let what = match &record.status {
        CaseStatus::Agreed => return None,
        CaseStatus::Halted { detail } => {
            format!("halted after {} cycles: {detail}", record.cycles)
        }
        CaseStatus::Error { detail } => format!("harness error: {detail}"),
        CaseStatus::Diverged { cycle, kind, .. } => {
            format!("diverged at cycle {cycle} ({kind})")
        }
    };
    Some(format!(
        "case {} (seed {}): {what}",
        record.index, record.seed
    ))
}

/// Renders a flight dump as a self-contained `asim2-events v1` log: the
/// meta header, the ring's events oldest-first, and a closing
/// `flight/trigger` mark naming what fired the dump.
fn render_flight(events: &[rtl_obs::Event], trigger: &str) -> String {
    let mut text = format!(
        "{}\n",
        rtl_obs::Event::Meta {
            format: rtl_obs::FORMAT.into()
        }
        .render()
    );
    for event in events {
        text.push_str(&event.render());
        text.push('\n');
    }
    text.push_str(
        &rtl_obs::Event::Mark {
            src: "flight".into(),
            key: "trigger".into(),
            detail: Some(trigger.into()),
        }
        .render(),
    );
    text.push('\n');
    text
}

/// Folds every completed case's profile into one aggregate
/// [`Profile`](rtl_core::Profile). Because each profile is a pure
/// function of `(config, index)`, the fold is byte-identical across
/// worker counts, kill+resume splits, and shard merges.
///
/// # Errors
///
/// A completed case without a profile (the campaign ran without
/// profiling), a corrupt profile, or I/O.
pub fn fold_profiles(
    dir: &CampaignDir,
    report: &CampaignReport,
) -> Result<rtl_core::Profile, CampaignError> {
    let cases = report.config.cases;
    let mut total = rtl_core::Profile::default();
    let frames = dir.frames(cases, 0..cases, &[Kind::Profile], |_, _| Ok(()))?;
    frames.each_case(0..cases, |index, [profile, _, _]| {
        if report.records[index as usize].is_none() {
            return Ok(());
        }
        let at = dir.profile_path(index);
        let text = profile.ok_or_else(|| {
            CampaignError::Config(format!(
                "{}: case {index} has no profile; run the campaign with profiling on",
                at.display()
            ))
        })?;
        let profile = rtl_core::Profile::parse(&text)
            .map_err(|e| CampaignError::Corrupt(format!("{}: {e}", at.display())))?;
        total.merge(&profile);
        Ok(())
    })?;
    Ok(total)
}

/// One run of a case: its fuzz options patched with a fresh profile
/// hook and flight ring, so its profile and flight log are its own
/// tally, a pure function of `(config, index)` whichever worker ran it
/// and whatever else this process ran (the lockstep run is
/// single-threaded, so the ring's order is too), and, under
/// `--case-checkpoint`, a checkpoint store in the worker's log that
/// resumes from `resume`.
struct CaseRun {
    patched: Option<FuzzOptions>,
    profile: Option<ProfileHook>,
    flight: Option<Arc<FlightRing>>,
}

impl CaseRun {
    fn new(
        fuzz: &FuzzOptions,
        index: u32,
        log: Option<&Arc<Mutex<LogWriter>>>,
        options: &RunOptions,
        resume: Option<&CaseCheckpoint>,
    ) -> CaseRun {
        let profile = options.profile.then(ProfileHook::collecting);
        let flight = options
            .flight
            .then(|| Arc::new(FlightRing::new(FlightRing::DEFAULT_CAP)));
        let patched = (options.case_checkpoint || options.profile || options.flight).then(|| {
            let mut patched = fuzz.clone();
            if let Some(hook) = &profile {
                patched.cosim.profile = hook.clone();
            }
            if let Some(ring) = &flight {
                patched.cosim.recorder = patched.cosim.recorder.with_flight(Arc::clone(ring));
            }
            if let (true, Some(log)) = (options.case_checkpoint, log) {
                patched.cosim.checkpoint = Some(Checkpoints::new(LogCheckpoints {
                    log: Arc::clone(log),
                    index,
                    profile: profile.clone().unwrap_or_default(),
                    flight: flight.clone(),
                    resume: resume.cloned(),
                }));
            }
            patched
        });
        CaseRun {
            patched,
            profile,
            flight,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_one(
    registry: &EngineRegistry,
    config: &CampaignConfig,
    fuzz: &FuzzOptions,
    index: u32,
    log: Option<&Arc<Mutex<LogWriter>>>,
    corpus_index: &CorpusIndex,
    options: &RunOptions,
    resume: Option<&CaseCheckpoint>,
) -> Result<DoneCase, CampaignError> {
    let recorder = &options.recorder;
    let mut run = CaseRun::new(fuzz, index, log, options, resume);
    let case = match run_fuzz_case(registry, run.patched.as_ref().unwrap_or(fuzz), index) {
        // A leftover checkpoint the harness refuses (an older format, a
        // document from another harness) costs a rerun of the case from
        // its start, with a fresh hook and ring, not the campaign.
        // Whether there is one depends on where a kill fell, so the drop
        // is a wall-clock mark.
        Err(e) if resume.is_some() => {
            let detail = format!("case {index}: {e}");
            recorder.mark("campaign", "checkpoint_dropped", Some(&detail));
            run = CaseRun::new(fuzz, index, log, options, None);
            run_fuzz_case(registry, run.patched.as_ref().unwrap_or(fuzz), index)?
        }
        case => case?,
    };
    let seed = expected_seed(config, index);
    // Snapshot the ring *now*, before any shrink probes can run: the dump
    // must hold only the case's own final events.
    let flight_snapshot = run.flight.as_ref().map(|ring| ring.snapshot());
    let (status, archived) = match case.divergence {
        None => {
            let status = match case.stop {
                StopReason::CycleLimit => CaseStatus::Agreed,
                StopReason::Halt(halt) => CaseStatus::Halted {
                    detail: halt.to_string(),
                },
                StopReason::Error(e) => CaseStatus::Error {
                    detail: e.to_string(),
                },
            };
            (status, None)
        }
        Some(report) => {
            recorder.count("campaign", "divergences", 1);
            // Shrink immediately (deterministic per case, so parallelism
            // is preserved), starting from the case's own divergence, and
            // archive the minimal reproduction.
            let shrunk = shrink_from(
                registry,
                &config.engines,
                seed,
                &config.generator,
                // Shrink probes run on the unpatched options: not the
                // case's checkpoint store (they re-run many *different*
                // candidate scenarios), its profile hook (hook clones
                // share one tally; probe work would pollute the case's
                // sidecar), or its flight-tapped recorder.
                &fuzz.cosim,
                &report,
            )?;
            let archived = match &shrunk {
                Some(shrunk) => {
                    recorder.count("campaign", "shrink_probes", u64::from(shrunk.attempts));
                    recorder.count("campaign", "corpus_entries", 1);
                    Some(corpus::render(
                        corpus_index,
                        shrunk,
                        &config.engines,
                        config.compare_every,
                    )?)
                }
                None => None,
            };
            let status = CaseStatus::Diverged {
                cycle: u64::try_from(report.cycle).unwrap_or(0),
                kind: kind_label(&report.kind),
                corpus: archived.as_ref().map(|archive| archive.name().to_string()),
            };
            (status, archived)
        }
    };
    let record = CaseRecord {
        index,
        seed,
        cycles: case.cycles,
        lane_stats: case.stats.iter().map(LaneAccess::from).collect(),
        status,
    };
    recorder.count("campaign", "cases_executed", 1);
    recorder.count("campaign", &format!("cases_{}", record.status.tag()), 1);
    recorder.count("campaign", "cycles_verified", record.cycles);
    // The counters reach the recorder as per-case deltas, the same scheme
    // lint counters use; only abnormal endings leave a flight dump.
    let profile = run.profile.map(|hook| {
        let snapshot = hook.snapshot();
        for (key, n) in snapshot.iter() {
            recorder.count("profile", key, n);
        }
        snapshot.render()
    });
    let flight = flight_snapshot.and_then(|events| {
        let trigger = flight_trigger(&record)?;
        recorder.count("campaign", "flight_dumps", 1);
        Some(render_flight(&events, &trigger))
    });
    let name = archived.as_ref().map(|archive| archive.name().to_string());
    let new_entry = match archived {
        Some(Archive::New(_, entry)) => Some(entry),
        _ => None,
    };
    let bundle = CaseBundle {
        index,
        record: record.to_json().render(),
        profile,
        flight,
        corpus: new_entry,
    };
    // Publish from the worker, so I/O overlaps across workers instead of
    // serializing in the collector. Once this returns, the case survives
    // a kill: a resume right after runs past it.
    let bundle = match log {
        Some(log) => {
            bundle.publish(&mut log.lock().expect(LOG_POISONED))?;
            None
        }
        None => Some(bundle),
    };
    Ok(DoneCase {
        record,
        corpus: name,
        bundle,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caselog::{Frame, FrameReader};
    use rtl_core::{
        Design, Engine, EngineFactory, EngineLane, EngineOptions, HaltKind, InputSource, SimError,
        SimState, TraceBuf,
    };
    use rtl_cosim::{CheckpointStore, FuzzReport, GenOptions};

    /// A lane that steps idly until the cycle of `halt`, then raises it.
    struct Halting<'d> {
        design: &'d Design,
        state: SimState,
        halt: HaltKind,
    }

    impl Engine for Halting<'_> {
        fn design(&self) -> &Design {
            self.design
        }

        fn state(&self) -> &SimState {
            &self.state
        }

        fn restore(&mut self, snapshot: &SimState) {
            self.state = snapshot.clone();
        }

        fn step(
            &mut self,
            _trace: &mut TraceBuf<'_>,
            _input: &mut dyn InputSource,
        ) -> Result<(), SimError> {
            if self.state.cycle() == self.halt.cycle() {
                let stop = StopReason::Halt(self.halt.clone());
                return Err(stop.into_error().expect("a halt is an error"));
            }
            self.state.bump_cycle();
            Ok(())
        }
    }

    struct HaltingFactory(&'static str, HaltKind);

    impl EngineFactory for HaltingFactory {
        fn name(&self) -> &str {
            self.0
        }

        fn build<'d>(
            &self,
            design: &'d Design,
            _options: &EngineOptions,
        ) -> Result<EngineLane<'d>, String> {
            Ok(EngineLane::Stepped(Box::new(Halting {
                design,
                state: SimState::new(design),
                halt: self.1.clone(),
            })))
        }
    }

    /// The wording of each runtime halt, pinned on every surface that
    /// prints it: the step error, the halt value, the session's stop
    /// reason, a campaign record's detail and a cosim report's `halt:`
    /// line. Two lanes raise the same halt, so lockstep reports a
    /// unanimous halt.
    #[test]
    fn every_surface_keeps_the_halt_wording() {
        let table = [
            (
                HaltKind::SelectorOutOfRange {
                    component: "mux".into(),
                    index: 9,
                    cases: 4,
                    cycle: 2,
                },
                "selector mux index 9 outside 0..4 at cycle 2",
            ),
            (
                HaltKind::AddressOutOfRange {
                    component: "ram".into(),
                    address: -1,
                    size: 8,
                    cycle: 3,
                },
                "memory ram address -1 outside 0..8 at cycle 3",
            ),
            (
                HaltKind::BadAluFunction {
                    component: "acc".into(),
                    funct: 14,
                    cycle: 1,
                },
                "alu acc function 14 outside 0..=13 at cycle 1",
            ),
            (
                HaltKind::InputExhausted { cycle: 0 },
                "input exhausted at cycle 0",
            ),
        ];
        for (halt, text) in table {
            let mut registry = EngineRegistry::new();
            registry.register(Box::new(HaltingFactory("halt-a", halt.clone())));
            registry.register(Box::new(HaltingFactory("halt-b", halt.clone())));
            let config = CampaignConfig {
                seed: 7,
                cases: 1,
                engines: vec!["halt-a".into(), "halt-b".into()],
                generator: rtl_cosim::GenOptions {
                    size: 4,
                    cycles: 8,
                    io_every: 0,
                },
                ..CampaignConfig::default()
            };
            let fuzz = config.fuzz_options();

            let case = run_fuzz_case(&registry, &fuzz, 0).unwrap();
            let stop = case.stop.clone();
            assert_eq!(stop, StopReason::Halt(halt.clone()));
            assert_eq!(stop.clone().into_error().unwrap().to_string(), text);
            assert_eq!(halt.to_string(), text);
            assert_eq!(stop.to_string(), format!("design halted: {text}"));
            let report = FuzzReport {
                options: fuzz.clone(),
                cases: vec![case],
            };
            let line = format!(
                "  fuzz/seed-7                 {} cycles  halted\n    halt: {text}\n",
                halt.cycle()
            );
            assert!(report.to_string().contains(&line), "{report}");

            let dir = CampaignDir::new(std::env::temp_dir().join(format!(
                "asim2-halt-wording-{}-{}",
                std::process::id(),
                halt.label()
            )));
            let _ = std::fs::remove_dir_all(dir.root());
            dir.init(&config).unwrap();
            let log = Arc::new(Mutex::new(LogWriter::new(&dir)));
            let done = run_one(
                &registry,
                &config,
                &fuzz,
                0,
                Some(&log),
                &CorpusIndex::default(),
                &RunOptions::default(),
                None,
            )
            .unwrap();
            let halted = CaseStatus::Halted {
                detail: text.to_string(),
            };
            assert_eq!(done.record.status, halted);
            log.lock().unwrap().finish().unwrap();
            let stored = dir.load_cases(1).unwrap().remove(0).unwrap();
            assert_eq!(stored.status, halted);
            let _ = std::fs::remove_dir_all(dir.root());
        }
    }

    /// A streamed run hands over, case by case and with its record, the
    /// bundle a directory run publishes for the same case, corpus entry
    /// and sidecars included; it refuses case checkpoints by name, and
    /// the first error of the caller's hand-over ends it.
    #[test]
    fn a_streamed_run_hands_over_the_bundles_a_directory_run_publishes() {
        let config = CampaignConfig {
            seed: 1,
            cases: 6,
            engines: vec!["interp".into(), "vm-fault".into()],
            generator: GenOptions {
                size: 10,
                cycles: 48,
                io_every: 2,
            },
            ..CampaignConfig::default()
        };
        let options = RunOptions {
            workers: 2,
            profile: true,
            flight: true,
            case_range: Some(1..5),
            ..RunOptions::default()
        };
        let root = std::env::temp_dir().join(format!("asim2-streamed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dir = CampaignDir::new(&root);
        run(&dir, &config, &options, &mut NoProgress).unwrap();
        let mut published = BTreeMap::new();
        CaseBundle::read_range(&dir, 0..6, |bundle| {
            published.insert(bundle.index, bundle);
            Ok(())
        })
        .unwrap();
        let _ = std::fs::remove_dir_all(&root);
        assert!(published.values().all(|b| b.corpus.is_some()));

        let cache = Arc::new(BinaryCache::in_memory());
        let mut streamed = BTreeMap::new();
        let mut keep = |record: &CaseRecord, bundle: CaseBundle| {
            assert_eq!(record.to_json().render(), bundle.record);
            streamed.insert(bundle.index, bundle);
            Ok::<_, CampaignError>(())
        };
        let report = run_streamed(&config, &options, Arc::clone(&cache), &mut keep).unwrap();
        assert_eq!(report.completed(), 4, "{report}");
        assert_eq!(streamed.keys().copied().collect::<Vec<_>>(), [1, 2, 3, 4]);
        assert_eq!(streamed, published);

        let checkpointed = RunOptions {
            case_checkpoint: true,
            ..options.clone()
        };
        let mut ignore = |_: &CaseRecord, _: CaseBundle| Ok::<_, CampaignError>(());
        let err = run_streamed(&config, &checkpointed, Arc::clone(&cache), &mut ignore);
        let err = err.unwrap_err().to_string();
        assert!(err.contains("takes no case checkpoints"), "{err}");

        let mut calls = 0;
        let mut refuse = |_: &CaseRecord, _: CaseBundle| {
            calls += 1;
            Err(CampaignError::Config("refused".into()))
        };
        let err = run_streamed(&config, &options, cache, &mut refuse).unwrap_err();
        assert_eq!(
            err.to_string(),
            CampaignError::Config("refused".into()).to_string()
        );
        assert_eq!(calls, 1);
    }

    /// `cases/` and `corpus/` of `dir`, relative path → bytes.
    fn tree(dir: &CampaignDir) -> BTreeMap<String, Vec<u8>> {
        let mut files = BTreeMap::new();
        for sub in [dir.cases(), dir.corpus()] {
            for dirent in std::fs::read_dir(&sub).unwrap() {
                let path = dirent.unwrap().path();
                let rel = path.strip_prefix(dir.root()).unwrap();
                files.insert(rel.display().to_string(), std::fs::read(&path).unwrap());
            }
        }
        files
    }

    /// A store that hands its saves to the case's log store and stops
    /// the run once one reaches `stop` verified cycles, so the worker's
    /// log ends as a kill right after that checkpoint leaves it.
    struct Killed {
        store: LogCheckpoints,
        stop: u64,
    }

    impl CheckpointStore for Killed {
        fn every(&self) -> Option<u64> {
            self.store.every()
        }
        fn resumes(&self) -> bool {
            false
        }
        fn load(&self) -> std::io::Result<Vec<u8>> {
            self.store.load()
        }
        fn save(&self, verified: u64, doc: &[u8]) -> std::io::Result<()> {
            self.store.save(verified, doc)?;
            match verified >= self.stop {
                true => Err(std::io::Error::other("killed")),
                false => Ok(()),
            }
        }
        fn optional(&self) -> bool {
            true
        }
    }

    /// Runs case `index` of `config` as a worker of `dir` runs it under
    /// `options` (which checkpoint), until its checkpoint at `stop`
    /// verified cycles, and returns the worker log that holds it.
    fn kill_after_checkpoint(
        registry: &EngineRegistry,
        config: &CampaignConfig,
        options: &RunOptions,
        dir: &CampaignDir,
        index: u32,
        stop: u64,
    ) -> std::path::PathBuf {
        let before = Frames::logs(dir).unwrap();
        let log = Arc::new(Mutex::new(LogWriter::new(dir)));
        let mut fuzz = config.fuzz_options();
        fuzz.cosim.recorder = options.recorder.clone();
        let run = CaseRun::new(&fuzz, index, Some(&log), options, None);
        let mut patched = run.patched.expect("a checkpointing run is patched");
        patched.cosim.checkpoint = Some(Checkpoints::new(Killed {
            store: LogCheckpoints {
                log,
                index,
                profile: run.profile.unwrap_or_default(),
                flight: run.flight,
                resume: None,
            },
            stop,
        }));
        let err = run_fuzz_case(registry, &patched, index).unwrap_err();
        assert!(err.to_string().contains("killed"), "{err}");
        let mut logs = Frames::logs(dir).unwrap();
        logs.retain(|log| !before.contains(log));
        assert_eq!(logs.len(), 1, "{logs:?}");
        logs.remove(0)
    }

    /// The frames of the log at `path`, each with its bytes.
    fn frames_of(path: &std::path::Path) -> Vec<(Frame, Vec<u8>)> {
        let log = std::fs::read(path).unwrap();
        let mut reader = FrameReader::new(&log[..], log.len() as u64);
        let mut frames = Vec::new();
        while let Some(frame) = reader.next(|_, _| false).unwrap() {
            let bytes = log[frame.offset as usize..frame.end() as usize].to_vec();
            frames.push((frame, bytes));
        }
        assert_eq!(reader.tail(), None);
        frames
    }

    /// A case killed right after its checkpoint at cycle 256 resumes
    /// from it to the very bundle an uninterrupted checkpointing run
    /// publishes: record, profile, flight log and corpus entry. Its
    /// record and profile also equal a plain run's; its flight log holds
    /// one `session/cycles` per 256-cycle chunk, so it does not. The case
    /// diverges at cycle 300, past its checkpoint, so it has a flight log
    /// and a corpus entry.
    #[test]
    fn a_case_killed_after_a_checkpoint_resumes_to_the_bundle_it_would_have_published() {
        let mut registry = campaign_registry(None);
        registry.register(Box::new(FaultyVmFactory::from_cycle(300)));
        let config = CampaignConfig {
            seed: 3,
            cases: 1,
            engines: vec!["interp".into(), "vm-fault".into()],
            generator: GenOptions {
                size: 10,
                cycles: 600,
                io_every: 2,
            },
            ..CampaignConfig::default()
        };
        let scratch = |name: &str| {
            let root =
                std::env::temp_dir().join(format!("asim2-case-kill-{}-{name}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            let dir = CampaignDir::new(root);
            dir.init(&config).unwrap();
            dir
        };
        // One run of case 0 into `dir`, resumed from `resume`: its bundle's
        // frames and the cycles its lanes stepped.
        let run_case = |dir: &CampaignDir, options: &RunOptions, resume| {
            let (recorder, memory) = Recorder::memory();
            let options = RunOptions {
                recorder,
                ..options.clone()
            };
            let before = Frames::logs(dir).unwrap();
            let log = Arc::new(Mutex::new(LogWriter::new(dir)));
            let mut fuzz = config.fuzz_options();
            fuzz.cosim.recorder = options.recorder.clone();
            let index = CorpusIndex::default();
            run_one(
                &registry,
                &config,
                &fuzz,
                0,
                Some(&log),
                &index,
                &options,
                resume,
            )
            .unwrap();
            log.lock().unwrap().finish().unwrap();
            options.recorder.flush();
            let mut summary = rtl_obs::Summary::new();
            summary.fold_text(&memory.text(), "memory").unwrap();
            let logs = Frames::logs(dir).unwrap();
            let new: Vec<_> = logs.iter().filter(|log| !before.contains(log)).collect();
            assert_eq!(new.len(), 1, "{logs:?}");
            let frames: BTreeMap<Kind, Vec<u8>> = frames_of(new[0])
                .into_iter()
                .map(|(frame, bytes)| (frame.kind, bytes))
                .collect();
            (frames, summary.counter("session", "cycles").unwrap())
        };
        let checkpointed = RunOptions {
            workers: 1,
            case_checkpoint: true,
            profile: true,
            flight: true,
            ..RunOptions::default()
        };

        let (whole, whole_cycles) = run_case(&scratch("whole"), &checkpointed, None);
        let kinds: Vec<Kind> = whole.keys().copied().collect();
        assert_eq!(
            kinds,
            [Kind::Profile, Kind::Flight, Kind::Record, Kind::Corpus]
        );

        let killed = scratch("killed");
        let tail = kill_after_checkpoint(&registry, &config, &checkpointed, &killed, 0, 256);
        let left: Vec<Kind> = frames_of(&tail).iter().map(|(f, _)| f.kind).collect();
        assert_eq!(left, [Kind::Checkpoint]);
        let mut scan = Frames::scan(&killed, 0..1, &[Kind::Checkpoint], |_, _| Ok(())).unwrap();
        let checkpoint = scan.checkpoints.remove(&0).expect("the scan finds it");
        assert_eq!(checkpoint.verified, 256);
        let (resumed, resumed_cycles) = run_case(&killed, &checkpointed, Some(&checkpoint));
        assert_eq!(resumed, whole, "the resumed case's bundle");
        assert!(
            resumed_cycles < whole_cycles,
            "{resumed_cycles} lane cycles: the case ran from its start"
        );

        let plain = RunOptions {
            case_checkpoint: false,
            ..checkpointed.clone()
        };
        let (plain, _) = run_case(&scratch("plain"), &plain, None);
        for kind in [Kind::Profile, Kind::Record, Kind::Corpus] {
            assert_eq!(plain[&kind], whole[&kind], "{}", kind.label());
        }
        assert_ne!(plain[&Kind::Flight], whole[&Kind::Flight]);
        for name in ["whole", "killed", "plain"] {
            let _ = std::fs::remove_dir_all(scratch(name).root());
        }
    }

    /// Every crash point of a one-write bundle and of a checkpoint
    /// append. A two-case campaign runs over its range, so nothing
    /// compacts and both bundles stay in one worker log. That log is cut
    /// at every frame boundary of its last frames and at the first,
    /// middle and last byte of each of them, and each cut resumes to the
    /// bytes and report of an uninterrupted run.
    ///
    /// * A diverging campaign with profiles and flight logs: the last
    ///   bundle's cuts leave whole corpus and sidecar frames with no
    ///   record, and whole sidecars with a torn record.
    /// * A long agreeing campaign under `case_checkpoint`, its last
    ///   case's checkpoint at cycle 512 put before that case's bundle:
    ///   the cuts leave a torn checkpoint (the case reruns from its
    ///   start), a whole one (it resumes from it) and a whole one before
    ///   a torn or whole bundle (which it is ignored beside, and dropped
    ///   by compaction).
    #[test]
    fn a_resume_after_any_cut_in_the_last_bundle_is_byte_identical() {
        let diverging = CampaignConfig {
            seed: 1,
            cases: 2,
            engines: vec!["interp".into(), "vm-fault".into()],
            generator: GenOptions {
                size: 10,
                cycles: 48,
                io_every: 2,
            },
            ..CampaignConfig::default()
        };
        let sidecars = RunOptions {
            workers: 1,
            profile: true,
            flight: true,
            ..RunOptions::default()
        };
        let agreeing = CampaignConfig {
            engines: vec!["interp".into(), "vm".into()],
            generator: GenOptions {
                size: 10,
                cycles: 600,
                io_every: 2,
            },
            ..diverging.clone()
        };
        let checkpointed = RunOptions {
            case_checkpoint: true,
            ..sidecars.clone()
        };
        let scratch = |name: &str| {
            let root = std::env::temp_dir()
                .join(format!("asim2-bundle-cuts-{}-{name}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            CampaignDir::new(root)
        };
        for (config, options) in [(&diverging, &sidecars), (&agreeing, &checkpointed)] {
            let reference_dir = scratch("reference");
            let reference = run(&reference_dir, config, options, &mut NoProgress).unwrap();
            assert!(reference.complete(), "{reference}");

            let ranged_dir = scratch("ranged");
            let ranged = RunOptions {
                case_range: Some(0..2),
                ..options.clone()
            };
            run(&ranged_dir, config, &ranged, &mut NoProgress).unwrap();
            let logs = Frames::logs(&ranged_dir).unwrap();
            assert_eq!(logs.len(), 1, "{logs:?}");
            let mut frames = frames_of(&logs[0]);
            let first = frames
                .iter()
                .position(|f| f.0.kind == Kind::Record)
                .unwrap();
            if options.case_checkpoint {
                let registry = campaign_registry(None);
                let killed = kill_after_checkpoint(&registry, config, options, &ranged_dir, 1, 512);
                let checkpoint = frames_of(&killed).remove(0);
                std::fs::remove_file(killed).unwrap();
                frames.insert(first + 1, checkpoint);
            }
            let kinds: Vec<Kind> = frames[first + 1..].iter().map(|f| f.0.kind).collect();
            let expected: &[Kind] = match options.case_checkpoint {
                true => &[Kind::Checkpoint, Kind::Profile, Kind::Record],
                false => &[Kind::Corpus, Kind::Profile, Kind::Flight, Kind::Record],
            };
            assert_eq!(kinds, expected);
            let log: Vec<u8> = frames.iter().flat_map(|f| f.1.clone()).collect();
            let mut at: usize = frames[..=first].iter().map(|f| f.1.len()).sum();
            let mut cuts = vec![log.len()];
            for (_, bytes) in &frames[first + 1..] {
                let end = at + bytes.len();
                cuts.extend([at, at + 1, (at + end) / 2, end - 1]);
                at = end;
            }

            for cut in cuts {
                let dir = scratch("cut");
                std::fs::create_dir_all(dir.cases()).unwrap();
                std::fs::create_dir_all(dir.corpus()).unwrap();
                std::fs::copy(ranged_dir.manifest(), dir.manifest()).unwrap();
                let name = logs[0].file_name().unwrap();
                std::fs::write(dir.cases().join(name), &log[..cut]).unwrap();
                let report = resume(&dir, options, &mut NoProgress).unwrap();
                assert_eq!(format!("{report}"), format!("{reference}"), "cut at {cut}");
                assert_eq!(tree(&dir), tree(&reference_dir), "cut at {cut}");
                let _ = std::fs::remove_dir_all(dir.root());
            }
            let _ = std::fs::remove_dir_all(reference_dir.root());
            let _ = std::fs::remove_dir_all(ranged_dir.root());
        }
    }
}
