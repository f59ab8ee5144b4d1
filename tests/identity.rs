//! The identity matrix: a campaign's bytes do not depend on how it ran.
//!
//! Every cell of config {diverging, diverging under the lint oracle,
//! diverging compared every 16 cycles} ×
//! surface {campaign, shard+merge, fleet} × workers {1, 2} ×
//! {uninterrupted, `limit` stop + resume, `limit` stop + torn tail +
//! resume, `limit` stop + torn corpus frame + resume, `limit` stop +
//! corpus frame without its record + resume} runs one diverging campaign with
//! profiles, the flight recorder and an in-memory `Recorder` on, so every
//! artifact kind appears: records, profile and flight sidecars, shrunk
//! corpus entries and deterministic counters. Against a single-machine
//! run of the same config, each cell must have
//!
//! * the same report text;
//! * the same `campaign.json`, `cases/` and `corpus/`, byte for byte —
//!   `cases/` holding one canonical `cases.log`, every case's profile,
//!   flight and record frames, and `corpus/` one canonical `corpus.log`;
//! * the same folded deterministic counter section, once the surface's
//!   own `merge/*` and `fleet/*` keys are set aside. Fleet cells must also
//!   agree with each other on `fleet/*`.
//!
//! A stopped cell first plants, in every directory it will take over,
//! the `.tmp-*` files that a kill between write and rename leaves
//! behind. No cell may leave one anywhere under its root, but for a
//! fleet worker's scratch: a worker writes and reads nothing there, so
//! a fleet cell plants there too and requires each scratch left exactly
//! as planted. A torn cell
//! instead appends half of a valid frame to a worker log, as a kill
//! mid-append leaves it, and creates an empty worker log, as a kill
//! between create and first append leaves it. Every case's bundle is one
//! append to its writer's `cases/` log, corpus frame first, so the two
//! corpus cells take a case the directory holds no record for and append
//! its corpus frame to a `cases/` worker log: half of it, as a kill early
//! in the bundle's write leaves it, or all of it, as a kill after the
//! corpus frame and before the record leaves it.
//!
//! One more cell kills a case mid-run: a campaign of 600-cycle cases
//! under `case_checkpoint`, with profiles, the flight recorder and the
//! lint oracle on, stops after one case, and the next case runs until
//! its checkpoint frame at cycle 256 is in its worker's log. The resume
//! carries that case on from it to the bytes, report and folded
//! deterministic counters of a plain single-machine run.

use rtl_campaign::caselog::{FrameReader, Kind, CANONICAL};
use rtl_campaign::{
    campaign_registry, corpus, CampaignConfig, CampaignDir, CampaignReport, Frames, LogCheckpoints,
    LogWriter, NoProgress, RunOptions,
};
use rtl_core::ProfileHook;
use rtl_cosim::{run_fuzz_case, CheckpointStore, Checkpoints};
use rtl_dist::{merge_with, run_shard, ShardPlan};
use rtl_fleet::{work, Controller, ControllerOptions, NoFleetProgress, WorkerOptions};
use rtl_obs::{FlightRing, Recorder, Summary};
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asim2-identity-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Six `interp,vm-fault` cases: each diverges at cycle 40, shrinks and
/// archives a corpus entry.
fn diverging() -> CampaignConfig {
    let mut config = CampaignConfig {
        seed: 1,
        cases: 6,
        engines: vec!["interp".into(), "vm-fault".into()],
        ..CampaignConfig::default()
    };
    config.generator.size = 10;
    config.generator.cycles = 48;
    config.generator.io_every = 2;
    config
}

/// The same campaign from another seed, cross-checked by the lint oracle.
fn oracle() -> CampaignConfig {
    CampaignConfig {
        seed: 2,
        lint_oracle: true,
        ..diverging()
    }
}

/// The same campaign from another seed, compared every 16 cycles: every
/// divergence is found by a bisection rewind, and a shrink answers fewer
/// of its probes from its recording than at stride 1.
fn coarse() -> CampaignConfig {
    CampaignConfig {
        seed: 3,
        compare_every: 16,
        ..diverging()
    }
}

/// `campaign.json`, `cases/` and `corpus/`, relative path → bytes.
fn tree(root: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    files.insert(
        "campaign.json".to_string(),
        std::fs::read(root.join("campaign.json")).expect("manifest exists"),
    );
    for sub in ["cases", "corpus"] {
        for dirent in std::fs::read_dir(root.join(sub)).unwrap() {
            let path = dirent.unwrap().path();
            let name = format!("{sub}/{}", path.file_name().unwrap().to_string_lossy());
            files.insert(name, std::fs::read(&path).unwrap());
        }
    }
    files
}

/// Plants the temp files a kill between write and rename leaves in a
/// campaign directory's `cases/` (a sidecar, the compacted record log)
/// and `corpus/` (the compacted corpus log).
fn plant_orphans(root: &Path) {
    for (sub, name) in [
        ("cases", ".tmp-424242-case-000005.json"),
        ("cases", ".tmp-424242-cases.log"),
        ("corpus", ".tmp-424242-corpus.log"),
    ] {
        std::fs::create_dir_all(root.join(sub)).unwrap();
        std::fs::write(root.join(sub).join(name), "{").unwrap();
    }
}

/// Appends the first half of a valid frame to a worker log of the
/// campaign directory at `root`, as a kill mid-append leaves it, and
/// creates an empty worker log. Returns whether a frame was torn.
fn plant_torn_tail(root: &Path) -> bool {
    let dir = CampaignDir::new(root);
    let logs = Frames::logs(&dir).unwrap();
    let torn = logs.iter().find_map(|log| {
        let bytes = std::fs::read(log).unwrap();
        let mut reader = FrameReader::new(&bytes[..], bytes.len() as u64);
        let frame = reader.next(|_, _| false).unwrap()?;
        let end = frame.end() as usize;
        Some((log, bytes[frame.offset as usize..end].to_vec()))
    });
    if let Some((log, frame)) = &torn {
        let mut file = std::fs::File::options().append(true).open(log).unwrap();
        std::io::Write::write_all(&mut file, &frame[..frame.len() / 2]).unwrap();
    }
    std::fs::write(dir.cases().join("worker-99.log"), b"").unwrap();
    torn.is_some()
}

/// The frames of the canonical log `sub/name` under `root`, each with
/// its bytes.
fn log_frames(root: &Path, sub: &str, name: &str) -> Vec<(Kind, Vec<u8>)> {
    let bytes = std::fs::read(root.join(sub).join(name)).unwrap();
    let mut reader = FrameReader::new(&bytes[..], bytes.len() as u64);
    let mut frames = Vec::new();
    while let Some(frame) = reader.next(|_, _| true).unwrap() {
        let end = frame.end() as usize;
        frames.push((frame.kind, bytes[frame.offset as usize..end].to_vec()));
    }
    assert_eq!(reader.tail(), None, "{sub}/{name} is whole");
    frames
}

/// The frames of a complete run's canonical corpus log, each with the
/// case whose divergence it archives.
fn corpus_frames(root: &Path, config: &CampaignConfig) -> Vec<(u32, Vec<u8>)> {
    let bytes = std::fs::read(root.join("corpus").join(corpus::CANONICAL)).unwrap();
    let mut reader = FrameReader::new(&bytes[..], bytes.len() as u64);
    let mut frames = Vec::new();
    while let Some(frame) = reader.next(|_, _| true).unwrap() {
        let (_, name, _) = corpus::decode_entry(reader.body()).unwrap();
        let seed: u64 = name.strip_prefix("seed-").unwrap().parse().unwrap();
        let end = frame.end() as usize;
        let index = u32::try_from(seed - config.seed).unwrap();
        frames.push((index, bytes[frame.offset as usize..end].to_vec()));
    }
    frames
}

/// Appends the corpus frame of the first case in `range` that the
/// campaign directory at `root` holds no record for — all of it when
/// `whole`, else its first half — to a `cases/` worker log there.
/// Returns whether such a case remained.
fn plant_entry(root: &Path, cell: &Cell, range: Range<u32>, whole: bool) -> bool {
    let dir = CampaignDir::new(root);
    let recorded =
        Frames::scan(&dir, 0..cell.config.cases, &[Kind::Record], |_, _| Ok(())).unwrap();
    let Some((_, frame)) = cell
        .entries
        .iter()
        .find(|(index, _)| range.contains(index) && !recorded.contains(*index))
    else {
        return false;
    };
    std::fs::create_dir_all(dir.cases()).unwrap();
    let log = Frames::logs(&dir)
        .unwrap()
        .into_iter()
        .find(|log| log.starts_with(dir.cases()) && !log.ends_with(CANONICAL))
        .unwrap_or_else(|| dir.cases().join("worker-98.log"));
    let bytes = if whole {
        &frame[..]
    } else {
        &frame[..frame.len() / 2]
    };
    let mut file = std::fs::File::options()
        .append(true)
        .create(true)
        .open(log)
        .unwrap();
    std::io::Write::write_all(&mut file, bytes).unwrap();
    true
}

/// Every file under `root`, at any depth, with its bytes.
fn files(root: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut found = BTreeMap::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for dirent in std::fs::read_dir(&dir).unwrap() {
            let path = dirent.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let bytes = std::fs::read(&path).unwrap();
                found.insert(path, bytes);
            }
        }
    }
    found
}

/// Every `.tmp-*` file under `root`, at any depth, but for the ones a
/// worker's scratch holds as the test planted them (`fleet` checks
/// those are left as planted).
fn orphans(root: &Path) -> Vec<PathBuf> {
    files(root)
        .into_keys()
        .filter(|path| {
            let top = path.strip_prefix(root).unwrap().iter().next().unwrap();
            let name = path.file_name().unwrap().to_string_lossy();
            !top.to_string_lossy().starts_with("scratch-") && name.starts_with(".tmp-")
        })
        .collect()
}

/// Run options with both sidecars on, recording into `recorder`.
fn options(workers: usize, limit: Option<u32>, recorder: &Recorder) -> RunOptions {
    RunOptions {
        workers,
        limit,
        recorder: recorder.clone(),
        profile: true,
        flight: true,
        ..RunOptions::default()
    }
}

/// How a cell's run is interrupted before it resumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Interrupt {
    /// It runs through.
    None,
    /// A `limit` stop, then orphaned temp files.
    Stop,
    /// A `limit` stop, then a torn tail frame and an empty worker log.
    Torn,
    /// A `limit` stop, then half the corpus frame of a case to run.
    TornEntry,
    /// A `limit` stop, then the whole corpus frame of a case to run,
    /// with no record naming it.
    Entry,
}

impl Interrupt {
    const ALL: [Interrupt; 5] = [
        Interrupt::None,
        Interrupt::Stop,
        Interrupt::Torn,
        Interrupt::TornEntry,
        Interrupt::Entry,
    ];

    /// Leaves what the interruption leaves in the directory at `root`,
    /// which runs the cases of `range` next; says whether a frame was
    /// planted there.
    fn plant(self, root: &Path, cell: &Cell, range: Range<u32>) -> bool {
        match self {
            Interrupt::None => false,
            Interrupt::Stop => {
                plant_orphans(root);
                false
            }
            Interrupt::Torn => plant_torn_tail(root),
            Interrupt::TornEntry => plant_entry(root, cell, range, false),
            Interrupt::Entry => plant_entry(root, cell, range, true),
        }
    }

    /// Whether the interruption plants a frame in a directory with cases
    /// left to run.
    fn plants_a_frame(self) -> bool {
        matches!(
            self,
            Interrupt::Torn | Interrupt::TornEntry | Interrupt::Entry
        )
    }
}

/// One cell's inputs.
struct Cell<'a> {
    config: &'a CampaignConfig,
    root: &'a Path,
    workers: usize,
    interrupt: Interrupt,
    recorder: &'a Recorder,
    /// The single-machine run's corpus frames, by case.
    entries: &'a [(u32, Vec<u8>)],
}

fn campaign(cell: &Cell) -> CampaignReport {
    let dir = CampaignDir::new(cell.root);
    let (config, workers, recorder) = (cell.config, cell.workers, cell.recorder);
    if cell.interrupt != Interrupt::None {
        let first = options(workers, Some(2), recorder);
        let partial = rtl_campaign::run(&dir, config, &first, &mut NoProgress).unwrap();
        assert_eq!(partial.completed(), 2, "{partial}");
        assert!(
            partial.to_string().contains("resume to continue"),
            "{partial}"
        );
        let planted = cell.interrupt.plant(cell.root, cell, 0..config.cases);
        assert_eq!(planted, cell.interrupt.plants_a_frame());
        rtl_campaign::resume(&dir, &options(workers, None, recorder), &mut NoProgress).unwrap()
    } else {
        rtl_campaign::run(
            &dir,
            config,
            &options(workers, None, recorder),
            &mut NoProgress,
        )
        .unwrap()
    }
}

/// Two shards per worker, so two workers split six cases unevenly; the
/// merge is handed the shard directories in reverse order.
fn shards(cell: &Cell) -> CampaignReport {
    let plan = ShardPlan::partition(cell.config.clone(), 2 * cell.workers as u32).unwrap();
    let (workers, recorder) = (cell.workers, cell.recorder);
    let mut dirs = Vec::new();
    for spec in &plan.shards {
        let dir = CampaignDir::new(cell.root.join(format!("shard-{}", spec.index)));
        if cell.interrupt != Interrupt::None && spec.cases() > 1 {
            let first = options(workers, Some(1), recorder);
            let partial = run_shard(&plan, spec.index, &dir, &first, &mut NoProgress).unwrap();
            assert!(partial.report.completed() < spec.cases(), "{partial}");
            let planted = cell.interrupt.plant(dir.root(), cell, spec.range());
            assert_eq!(planted, cell.interrupt.plants_a_frame());
        }
        let all = options(workers, None, recorder);
        run_shard(&plan, spec.index, &dir, &all, &mut NoProgress).unwrap();
        dirs.push(dir.root().to_path_buf());
    }
    dirs.reverse();
    let out = CampaignDir::new(cell.root.join("merged"));
    merge_with(&plan, &dirs, &out, recorder).unwrap()
}

/// Serves the campaign once to `workers` workers of `workers` threads.
/// Worker `i` keeps scratch directory `scratch-i` across serves.
fn serve(cell: &Cell, limit: Option<u32>, tag: &str) -> CampaignReport {
    let controller = Controller::bind("127.0.0.1:0").unwrap();
    let addr = controller.local_addr().unwrap().to_string();
    let options = ControllerOptions {
        token: "t".into(),
        lease: 2,
        limit,
        recorder: cell.recorder.clone(),
        profile: true,
        flight: true,
        ..ControllerOptions::default()
    };
    let dir = CampaignDir::new(cell.root.join("fleet"));
    let config = cell.config.clone();
    let serving =
        std::thread::spawn(move || controller.serve(&dir, &config, &options, &mut NoFleetProgress));
    let handles: Vec<_> = (0..cell.workers)
        .map(|i| {
            let options = WorkerOptions {
                token: "t".into(),
                name: format!("{tag}-w{i}"),
                threads: cell.workers,
                scratch: cell.root.join(format!("scratch-{i}")),
                ..WorkerOptions::default()
            };
            let addr = addr.clone();
            std::thread::spawn(move || work(&addr, &options))
        })
        .collect();
    for handle in handles {
        handle.join().unwrap().unwrap();
    }
    serving.join().unwrap().unwrap()
}

/// A limit of 3 rounds up to two whole leases of 2. What the
/// interruption plants in the controller's directory is planted in each
/// worker's scratch too, which a worker neither writes nor reads: the
/// second serve leaves every scratch exactly as planted, and the plants
/// reach neither the upload nor the outcome.
fn fleet(cell: &Cell) -> CampaignReport {
    let mut scratches = Vec::new();
    if cell.interrupt != Interrupt::None {
        let partial = serve(cell, Some(3), "first");
        assert_eq!(partial.completed(), 4, "{partial}");
        let cases = 0..cell.config.cases;
        let planted = cell
            .interrupt
            .plant(&cell.root.join("fleet"), cell, cases.clone());
        assert_eq!(planted, cell.interrupt.plants_a_frame());
        for i in 0..cell.workers {
            let scratch = cell.root.join(format!("scratch-{i}"));
            std::fs::create_dir_all(scratch.join("cases")).unwrap();
            cell.interrupt.plant(&scratch, cell, cases.clone());
            scratches.push((files(&scratch), scratch));
        }
    }
    let report = serve(cell, None, "second");
    for (planted, scratch) in scratches {
        assert_eq!(files(&scratch), planted, "{}", scratch.display());
    }
    report
}

/// The recorder's folded deterministic counter section, split into the
/// lines every surface shares and the surface's own `fleet/*` and
/// `merge/*` lines.
fn counters(recorder: &Recorder, log: &rtl_obs::MemoryLog) -> (String, String) {
    recorder.flush();
    let mut summary = Summary::new();
    summary.fold_text(&log.text(), "memory").unwrap();
    summary
        .deterministic_section()
        .lines()
        .map(|line| format!("{line}\n"))
        .partition(|line| !line.starts_with("  fleet/") && !line.starts_with("  merge/"))
}

#[test]
fn every_surface_worker_count_and_interruption_is_byte_identical() {
    type Surface = fn(&Cell) -> CampaignReport;
    let surfaces: [(&str, Surface, &str); 3] = [
        ("campaign", campaign, ""),
        ("shard", shards, "merged"),
        ("fleet", fleet, "fleet"),
    ];
    for (label, config) in [
        ("diverging", diverging()),
        ("oracle", oracle()),
        ("coarse", coarse()),
    ] {
        let single_root = scratch(&format!("{label}-single"));
        let (recorder, log) = Recorder::memory();
        let single = rtl_campaign::run(
            &CampaignDir::new(&single_root),
            &config,
            &options(1, None, &recorder),
            &mut NoProgress,
        )
        .unwrap();
        assert_eq!(single.diverged(), 6, "{label}: {single}");
        let reference = tree(&single_root);
        let logs: Vec<&String> = reference.keys().filter(|k| k.ends_with(".log")).collect();
        assert_eq!(
            logs,
            [
                &format!("cases/{CANONICAL}"),
                &format!("corpus/{}", corpus::CANONICAL)
            ],
            "{label}: one canonical log each"
        );
        assert_eq!(
            reference
                .keys()
                .filter(|k| k.starts_with("corpus/"))
                .count(),
            1
        );
        let entries = corpus_frames(&single_root, &config);
        assert_eq!(entries.len(), 6, "{label}: one entry per case");
        let names: Vec<String> = Frames::scan(
            &CampaignDir::new(&single_root),
            0..0,
            &[Kind::Corpus],
            |_, _| Ok(()),
        )
        .unwrap()
        .names()
        .map(str::to_string)
        .collect();
        assert_eq!(names.len(), 6, "{label}: {names:?}");
        let kinds: Vec<Kind> = log_frames(&single_root, "cases", CANONICAL)
            .into_iter()
            .map(|(kind, _)| kind)
            .collect();
        for kind in [Kind::Profile, Kind::Flight, Kind::Record] {
            assert_eq!(
                kinds.iter().filter(|&&k| k == kind).count(),
                6,
                "{label}: a {} frame per case in {kinds:?}",
                kind.label()
            );
        }
        let (reference_counters, own) = counters(&recorder, &log);
        assert_eq!(
            own, "",
            "{label}: a single machine has no fleet or merge keys"
        );
        for key in ["campaign/divergences 6", "profile/", "session/cycles"] {
            assert!(
                reference_counters.contains(key),
                "{label}: no {key}:\n{reference_counters}"
            );
        }
        // Only the lint-oracle config lints; the recorder and the flight
        // ring on both rows change nothing a case computes.
        let lint = if config.lint_oracle {
            reference_counters.contains("lint/designs_linted 6")
        } else {
            !reference_counters.contains("lint/")
        };
        assert!(lint, "{label}: lint counters\n{reference_counters}");

        let mut fleet_counters: Option<String> = None;
        for (surface, run, out) in surfaces {
            for workers in [1, 2] {
                for interrupt in Interrupt::ALL {
                    let name = format!("{label}-{surface}-w{workers}-{interrupt:?}");
                    let root = scratch(&name);
                    let (recorder, log) = Recorder::memory();
                    let cell = Cell {
                        config: &config,
                        root: &root,
                        workers,
                        interrupt,
                        recorder: &recorder,
                        entries: &entries,
                    };
                    let report = run(&cell);
                    assert_eq!(format!("{report}"), format!("{single}"), "{name} report");
                    let got = tree(&root.join(out));
                    assert_eq!(
                        got.keys().collect::<Vec<_>>(),
                        reference.keys().collect::<Vec<_>>(),
                        "{name} file set"
                    );
                    for (file, bytes) in &reference {
                        assert_eq!(&got[file], bytes, "{name}: {file} differs");
                    }
                    assert_eq!(orphans(&root), Vec::<PathBuf>::new(), "{name} orphans");
                    let (shared, own) = counters(&recorder, &log);
                    assert_eq!(shared, reference_counters, "{name} counters");
                    if surface == "fleet" {
                        let expected = fleet_counters.get_or_insert_with(|| {
                            for key in [
                                "fleet/leases_granted 3",
                                "fleet/cases_dispatched 6",
                                "fleet/records_accepted 6",
                                "fleet/corpus_accepted 6",
                            ] {
                                assert!(own.contains(key), "{name}: no {key}:\n{own}");
                            }
                            own.clone()
                        });
                        // A whole corpus frame already in the controller's
                        // directory is not accepted again.
                        let expected = match interrupt {
                            Interrupt::Entry => {
                                expected.replace("corpus_accepted 6", "corpus_accepted 5")
                            }
                            _ => expected.clone(),
                        };
                        assert_eq!(own, expected, "{name} fleet counters");
                    }
                    let _ = std::fs::remove_dir_all(&root);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&single_root);
    }
}

/// Stops a case's run right after its checkpoint at `stop` verified
/// cycles, as a kill there would.
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

/// Runs case `index` of `config` as a `case_checkpoint` worker of `dir`
/// runs it under `options` — a fresh profile hook and flight ring, and a
/// checkpoint store in a worker log of its own — until its checkpoint at
/// `stop` verified cycles is appended.
fn kill_mid_case(
    dir: &CampaignDir,
    config: &CampaignConfig,
    options: &RunOptions,
    index: u32,
    stop: u64,
) {
    let profile = ProfileHook::collecting();
    let ring = Arc::new(FlightRing::new(FlightRing::DEFAULT_CAP));
    let mut fuzz = config.fuzz_options();
    fuzz.cosim.profile = profile.clone();
    fuzz.cosim.recorder = options.recorder.with_flight(Arc::clone(&ring));
    fuzz.cosim.checkpoint = Some(Checkpoints::new(Killed {
        store: LogCheckpoints {
            log: Arc::new(Mutex::new(LogWriter::new(dir))),
            index,
            profile,
            flight: Some(ring),
            resume: None,
        },
        stop,
    }));
    let err = run_fuzz_case(&campaign_registry(None), &fuzz, index).unwrap_err();
    assert!(err.to_string().contains("killed"), "{err}");
}

/// The worker logs of `dir`, by content: a writer names its log by a
/// process-wide counter, so two runs in one process differ in their
/// names only.
fn worker_logs(dir: &CampaignDir) -> Vec<Vec<u8>> {
    let mut logs: Vec<Vec<u8>> = Frames::logs(dir)
        .unwrap()
        .iter()
        .map(|log| std::fs::read(log).unwrap())
        .collect();
    logs.sort();
    logs
}

#[test]
fn a_case_killed_mid_run_resumes_from_its_checkpoint_frame() {
    let mut config = CampaignConfig {
        seed: 5,
        cases: 3,
        lint_oracle: true,
        ..CampaignConfig::default()
    };
    config.generator.size = 10;
    config.generator.cycles = 600;
    config.generator.io_every = 2;
    let checkpointed = |workers: usize, limit: Option<u32>, recorder: &Recorder| RunOptions {
        case_checkpoint: true,
        ..options(workers, limit, recorder)
    };

    let plain_root = scratch("kill-plain");
    let (recorder, log) = Recorder::memory();
    let plain = rtl_campaign::run(
        &CampaignDir::new(&plain_root),
        &config,
        &options(1, None, &recorder),
        &mut NoProgress,
    )
    .unwrap();
    assert!(plain.clean(), "{plain}");
    let reference = tree(&plain_root);
    let (reference_counters, _) = counters(&recorder, &log);
    assert!(reference_counters.contains("lint/designs_linted 3"));

    // Uninterrupted, case checkpoints leave no trace: not in the worker
    // logs of a ranged run, which does not compact, nor after compaction.
    let mut ranged = Vec::new();
    for (label, case_checkpoint) in [("ranged-plain", false), ("ranged-ckpt", true)] {
        let root = scratch(&format!("kill-{label}"));
        let dir = CampaignDir::new(&root);
        let options = RunOptions {
            case_range: Some(0..config.cases),
            case_checkpoint,
            ..options(1, None, &Recorder::disabled())
        };
        rtl_campaign::run(&dir, &config, &options, &mut NoProgress).unwrap();
        ranged.push(worker_logs(&dir));
        dir.compact(config.cases).unwrap();
        assert_eq!(tree(&root), reference, "{label} compacted");
        let _ = std::fs::remove_dir_all(&root);
    }
    assert_eq!(ranged[0], ranged[1], "the worker logs differ");

    for workers in [1, 2] {
        let name = format!("kill-w{workers}");
        let root = scratch(&name);
        let dir = CampaignDir::new(&root);
        let (recorder, log) = Recorder::memory();
        let first = checkpointed(workers, Some(1), &recorder);
        let partial = rtl_campaign::run(&dir, &config, &first, &mut NoProgress).unwrap();
        assert_eq!(partial.completed(), 1, "{name}: {partial}");
        let index = partial.records.iter().position(Option::is_none).unwrap() as u32;
        kill_mid_case(&dir, &config, &first, index, 256);
        let resumed = rtl_campaign::resume(
            &dir,
            &checkpointed(workers, None, &recorder),
            &mut NoProgress,
        )
        .unwrap();
        assert_eq!(format!("{resumed}"), format!("{plain}"), "{name} report");
        assert_eq!(tree(&root), reference, "{name} tree");
        let (shared, _) = counters(&recorder, &log);
        assert_eq!(shared, reference_counters, "{name} counters");
        let _ = std::fs::remove_dir_all(&root);
    }
    let _ = std::fs::remove_dir_all(&plain_root);
}
