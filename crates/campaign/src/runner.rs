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
use crate::caselog::{Frames, LogWriter};
use crate::config::CampaignConfig;
use crate::corpus::{self, kind_label, Archive, CorpusIndex, ReplayReport};
use crate::error::CampaignError;
use crate::shrink::shrink_from;
use crate::state::{CampaignDir, CaseRecord, CaseStatus, LaneAccess};
use rtl_compile::{BinaryCache, GeneratedRustFactory};
use rtl_core::{EngineRegistry, Recorder, StopReason};
use rtl_cosim::fault::FaultyVmFactory;
use rtl_cosim::{run_fuzz_case, FuzzOptions};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{mpsc, Arc};
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
    /// Checkpoint each case's lockstep run mid-flight
    /// (`cases/case-N.ckpt`, written every [`CASE_CHECKPOINT_EVERY`]
    /// cycles): a kill inside one *giant* case resumes from the last
    /// checkpoint instead of recomputing the whole horizon. A leftover
    /// checkpoint the lockstep refuses to resume is dropped (a
    /// `campaign/checkpoint_dropped` mark) and its case runs again from
    /// the start. Off by default — worth it only when a single case runs
    /// long.
    pub case_checkpoint: bool,
    /// Run only the case indices in this half-open range — the
    /// distributed-shard hook (`rtl-dist`): each machine executes its
    /// slice of the same campaign, and because every case's outcome
    /// depends only on `(config, index)`, the union of the slices is
    /// bit-identical to a single-machine run. Cases outside the range are
    /// left unrun (the report shows them as gaps). A ranged
    /// [`resume`] reads and sweeps only the range's case files, so its
    /// cost follows the range, not the campaign: a completed record
    /// outside the range is reported as a gap too, and is never read.
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
    /// outcomes, records and the campaign fingerprint are unaffected. Not
    /// combinable with `case_checkpoint`: a mid-case resume would only
    /// tally the post-resume cycles.
    pub profile: bool,
    /// Arm the divergence flight recorder: each case runs with a fresh
    /// bounded ring capturing its deterministic counter events in call
    /// order, and when a case ends abnormally (divergence, oracle
    /// contradiction, halt, harness error) the ring is dumped as a flight
    /// frame in the case's bundle (exported as
    /// `cases/case-N.flight.jsonl`), so the dump is byte-identical across
    /// worker counts and kill+resume. Agreed cases leave no dump. Not
    /// combinable with `case_checkpoint`: a case resumed mid-run would
    /// only capture its post-resume events.
    pub flight: bool,
}

/// The cycle cadence of `--case-checkpoint` lockstep checkpoints.
pub const CASE_CHECKPOINT_EVERY: u64 = 256;

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
    let corpus = Frames::scan(dir, 0..0, |_, _| Ok(()))?;
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
    let report = execute(
        dir, config, options, cache, records, replay, &index, progress,
    )?;
    compact_when_complete(dir, options, &report)?;
    Ok(report)
}

/// Resumes the campaign in `dir`: validates the stored configuration's
/// fingerprint, loads completed case records, and runs only the gaps.
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
    let (records, frames) = dir.scan(config.cases, run_range(options, &config))?;
    let index = frames.index();
    let cache = Arc::new(BinaryCache::at_dir(dir.bin_cache()));
    validate_engines(&config, &campaign_registry(Some(Arc::clone(&cache))))?;
    let report = execute(
        dir, &config, options, cache, records, None, &index, progress,
    )?;
    compact_when_complete(dir, options, &report)?;
    Ok(report)
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
    let entries = Frames::scan(dir, 0..0, |_, _| Ok(()))?.load_all()?;
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

struct DoneCase {
    record: CaseRecord,
    corpus: Option<String>,
}

/// Runs the pending cases of `records` on a pool of workers, each
/// deduplicating what it archives against `index`.
#[allow(clippy::too_many_arguments)]
fn execute(
    dir: &CampaignDir,
    config: &CampaignConfig,
    options: &RunOptions,
    cache: Arc<BinaryCache>,
    mut records: Vec<Option<CaseRecord>>,
    replay: Option<ReplayReport>,
    corpus_index: &CorpusIndex,
    progress: &mut dyn Progress,
) -> Result<CampaignReport, CampaignError> {
    let started = Instant::now();
    if options.case_checkpoint && (options.profile || options.flight) {
        let option = if options.profile { "profile" } else { "flight" };
        return Err(CampaignError::Config(format!(
            "the {option} option cannot be combined with per-case checkpointing: a case \
             resumed mid-run would only capture its post-resume part"
        )));
    }
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
    let case_checkpoint = options.case_checkpoint;
    let profile = options.profile;
    let flight = options.flight;
    // A kill between record publication and checkpoint removal can leave
    // a stale .ckpt next to a completed record; sweep those up front,
    // within the run's range only.
    for index in range {
        if records[index as usize].is_some() {
            let _ = std::fs::remove_file(case_checkpoint_path(dir, index));
        }
    }
    let workers = options.workers.clamp(1, pending.len().max(1));
    options
        .recorder
        .gauge("campaign", "workers", workers as u64);
    let mut new_corpus = BTreeSet::new();
    let mut first_error: Option<CampaignError> = None;

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
                // One log per thread: publishing a case is an append.
                let mut log = LogWriter::new(dir);
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
                        &mut log,
                        corpus_index,
                        case_checkpoint,
                        profile,
                        flight,
                        &recorder,
                    );
                    drop(case_span);
                    let failed = result.is_err();
                    if tx.send(result).is_err() || failed {
                        abort.store(true, Ordering::Relaxed);
                        break;
                    }
                }
                if let Err(e) = log.finish() {
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
                    progress.case_done(&case.record, done, config.cases);
                    if let Some(name) = case.corpus {
                        new_corpus.insert(name);
                    }
                    let index = case.record.index as usize;
                    records[index] = Some(case.record);
                }
                Err(e) => {
                    abort.store(true, Ordering::Relaxed);
                    first_error.get_or_insert(e);
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

/// The per-case lockstep checkpoint path (`--case-checkpoint`).
fn case_checkpoint_path(dir: &CampaignDir, index: u32) -> std::path::PathBuf {
    dir.cases().join(format!("case-{index:06}.ckpt"))
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
    let frames = dir.frames(cases, 0..cases, |_, _| Ok(()))?;
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

#[allow(clippy::too_many_arguments)]
fn run_one(
    registry: &EngineRegistry,
    config: &CampaignConfig,
    fuzz: &FuzzOptions,
    index: u32,
    log: &mut LogWriter,
    corpus_index: &CorpusIndex,
    case_checkpoint: bool,
    profile: bool,
    flight: bool,
    recorder: &Recorder,
) -> Result<DoneCase, CampaignError> {
    let dir = &log.dir().clone();
    // Thread the per-case lockstep checkpoint through: write it while the
    // case runs, resume from a leftover document (a kill mid-case) or
    // drop it if refused, and remove it once the record is durable.
    let ckpt_path = case_checkpoint_path(dir, index);
    // A *fresh* hook per case: the sidecar is the case's own tally, a
    // pure function of (config, index), regardless of which worker ran
    // it or what else this process executed.
    let profile_hook = profile.then(rtl_core::ProfileHook::collecting);
    // Likewise a fresh flight ring per case: the lockstep run is
    // single-threaded, so the captured counter order is a pure function
    // of (config, index).
    let flight_ring =
        flight.then(|| Arc::new(rtl_obs::FlightRing::new(rtl_obs::FlightRing::DEFAULT_CAP)));
    let fuzz_for_case;
    let fuzz = if case_checkpoint || profile_hook.is_some() || flight_ring.is_some() {
        let mut patched = fuzz.clone();
        if case_checkpoint {
            patched.cosim.checkpoint = Some(rtl_cosim::LockstepCheckpoint {
                path: ckpt_path.clone(),
                every: CASE_CHECKPOINT_EVERY,
            });
            if ckpt_path.exists() {
                patched.cosim.resume = Some(ckpt_path.clone());
            }
        }
        if let Some(hook) = &profile_hook {
            patched.cosim.profile = hook.clone();
        }
        if let Some(ring) = &flight_ring {
            patched.cosim.recorder = patched.cosim.recorder.with_flight(Arc::clone(ring));
        }
        fuzz_for_case = patched;
        &fuzz_for_case
    } else {
        fuzz
    };
    let case = match run_fuzz_case(registry, fuzz, index) {
        // A leftover checkpoint the harness refuses (an older format, a
        // torn document, a lane mix that cannot resume) costs a rerun of
        // the case from its start, not the campaign. Whether there is one
        // depends on where a kill fell, so the drop is a wall-clock mark.
        Err(e) if fuzz.cosim.resume.is_some() => {
            let detail = format!("case {index}: {e}");
            recorder.mark("campaign", "checkpoint_dropped", Some(&detail));
            let mut fresh = fuzz.clone();
            fresh.cosim.resume = None;
            run_fuzz_case(registry, &fresh, index)?
        }
        case => case?,
    };
    let seed = expected_seed(config, index);
    // Snapshot the ring *now*, before any shrink probes can run: the dump
    // must hold only the case's own final events.
    let flight_snapshot = flight_ring.as_ref().map(|ring| ring.snapshot());
    // Shrink probes must not inherit the case's checkpoint/resume paths
    // (they re-run many *different* candidate scenarios), its profile
    // hook (hook clones share one tally; probe work would pollute the
    // case's sidecar), or its flight-tapped recorder.
    let probe_cosim = rtl_cosim::CosimOptions {
        checkpoint: None,
        resume: None,
        profile: rtl_core::ProfileHook::disabled(),
        recorder: recorder.clone(),
        ..fuzz.cosim.clone()
    };
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
                &probe_cosim,
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
    let profile = profile_hook.map(|hook| {
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
    // Publish from the worker, so I/O overlaps across workers instead of
    // serializing in the collector. Once this returns, the case survives
    // a kill: a resume right after runs past it.
    let name = archived.as_ref().map(|archive| archive.name().to_string());
    let new_entry = match archived {
        Some(Archive::New(_, entry)) => Some(entry),
        _ => None,
    };
    CaseBundle {
        index,
        record: record.to_json().render(),
        profile,
        flight,
        corpus: new_entry,
    }
    .publish(log)?;
    if case_checkpoint {
        let _ = std::fs::remove_file(&ckpt_path);
    }
    Ok(DoneCase {
        record,
        corpus: name,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caselog::{FrameReader, Kind};
    use rtl_core::{
        Design, Engine, EngineFactory, EngineLane, EngineOptions, HaltKind, InputSource, SimError,
        SimState, TraceBuf,
    };
    use rtl_cosim::{FuzzReport, GenOptions};
    use std::collections::BTreeMap;

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
            let mut log = LogWriter::new(&dir);
            let done = run_one(
                &registry,
                &config,
                &fuzz,
                0,
                &mut log,
                &CorpusIndex::default(),
                false,
                false,
                false,
                &Recorder::disabled(),
            )
            .unwrap();
            let halted = CaseStatus::Halted {
                detail: text.to_string(),
            };
            assert_eq!(done.record.status, halted);
            log.finish().unwrap();
            let stored = dir.load_cases(1).unwrap().remove(0).unwrap();
            assert_eq!(stored.status, halted);
            let _ = std::fs::remove_dir_all(dir.root());
        }
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

    /// Every crash point of a one-write bundle. A two-case diverging
    /// campaign with profiles and flight logs runs over its range, so
    /// nothing compacts and both bundles stay in one worker log. That log
    /// is cut at every frame boundary of the last bundle and at the
    /// first, middle and last byte of each of its frames — among them
    /// whole corpus and sidecar frames with no record, and whole sidecars
    /// with a torn record — and each cut resumes to the bytes and report
    /// of an uninterrupted run.
    #[test]
    fn a_resume_after_any_cut_in_the_last_bundle_is_byte_identical() {
        let config = CampaignConfig {
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
        let options = RunOptions {
            workers: 1,
            profile: true,
            flight: true,
            ..RunOptions::default()
        };
        let scratch = |name: &str| {
            let root = std::env::temp_dir()
                .join(format!("asim2-bundle-cuts-{}-{name}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            CampaignDir::new(root)
        };
        let reference_dir = scratch("reference");
        let reference = run(&reference_dir, &config, &options, &mut NoProgress).unwrap();
        assert_eq!(reference.diverged(), 2, "{reference}");

        let ranged_dir = scratch("ranged");
        let ranged = RunOptions {
            case_range: Some(0..2),
            ..options.clone()
        };
        run(&ranged_dir, &config, &ranged, &mut NoProgress).unwrap();
        let logs = Frames::logs(&ranged_dir).unwrap();
        assert_eq!(logs.len(), 1, "{logs:?}");
        let log = std::fs::read(&logs[0]).unwrap();
        let mut reader = FrameReader::new(&log[..], log.len() as u64);
        let mut frames = Vec::new();
        while let Some(frame) = reader.next(|_, _| false).unwrap() {
            frames.push(frame);
        }
        let first = frames.iter().position(|f| f.kind == Kind::Record).unwrap();
        let bundle = &frames[first + 1..];
        let kinds: Vec<Kind> = bundle.iter().map(|f| f.kind).collect();
        assert_eq!(
            kinds,
            [Kind::Corpus, Kind::Profile, Kind::Flight, Kind::Record]
        );
        let mut cuts = vec![log.len()];
        for frame in bundle {
            let (start, end) = (frame.offset as usize, frame.end() as usize);
            cuts.extend([start, start + 1, (start + end) / 2, end - 1]);
        }
        let record = bundle[3];
        assert!(cuts.contains(&(record.offset as usize)), "no record");
        assert!(cuts.contains(&((record.offset + record.end()) as usize / 2)));

        for cut in cuts {
            let dir = scratch("cut");
            std::fs::create_dir_all(dir.cases()).unwrap();
            std::fs::create_dir_all(dir.corpus()).unwrap();
            std::fs::copy(ranged_dir.manifest(), dir.manifest()).unwrap();
            let name = logs[0].file_name().unwrap();
            std::fs::write(dir.cases().join(name), &log[..cut]).unwrap();
            let report = resume(&dir, &options, &mut NoProgress).unwrap();
            assert_eq!(format!("{report}"), format!("{reference}"), "cut at {cut}");
            assert_eq!(tree(&dir), tree(&reference_dir), "cut at {cut}");
            let _ = std::fs::remove_dir_all(dir.root());
        }
        let _ = std::fs::remove_dir_all(reference_dir.root());
        let _ = std::fs::remove_dir_all(ranged_dir.root());
    }
}
