//! The identity matrix: a campaign's bytes do not depend on how it ran.
//!
//! Every cell of config {diverging, diverging under the lint oracle} ×
//! surface {campaign, shard+merge, fleet} × workers {1, 2} ×
//! {uninterrupted, `limit` stop + resume, `limit` stop + torn tail +
//! resume} runs one diverging campaign with
//! profiles, the flight recorder and an in-memory `Recorder` on, so every
//! artifact kind appears: records, profile and flight sidecars, shrunk
//! corpus entries and deterministic counters. Against a single-machine
//! run of the same config, each cell must have
//!
//! * the same report text;
//! * the same `campaign.json`, `cases/` and `corpus/`, byte for byte —
//!   `cases/` holding one canonical `cases.log` beside the sidecars;
//! * the same folded deterministic counter section, once the surface's
//!   own `merge/*` and `fleet/*` keys are set aside. Fleet cells must also
//!   agree with each other on `fleet/*`.
//!
//! A stopped cell first plants, in every directory it will take over,
//! the `.tmp-*` files that a kill between write and rename leaves
//! behind. No cell may leave one anywhere under its root. A torn cell
//! instead appends half of a valid frame to a worker log, as a kill
//! mid-append leaves it, and creates an empty worker log, as a kill
//! between create and first append leaves it.

use rtl_campaign::caselog::{CaseFrames, FrameReader, CANONICAL, HEADER};
use rtl_campaign::{CampaignConfig, CampaignDir, CampaignReport, NoProgress, RunOptions};
use rtl_dist::{merge_with, run_shard, ShardPlan};
use rtl_fleet::{work, Controller, ControllerOptions, NoFleetProgress, WorkerOptions};
use rtl_obs::{Recorder, Summary};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

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
/// campaign directory's `cases/` and `corpus/`.
fn plant_orphans(root: &Path) {
    for (sub, name) in [
        ("cases", ".tmp-424242-case-000005.json"),
        ("corpus", ".tmp-424242-seed-3.json"),
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
    let logs = CaseFrames::logs(&dir).unwrap();
    let torn = logs.iter().find_map(|log| {
        let bytes = std::fs::read(log).unwrap();
        let mut reader = FrameReader::new(&bytes[..], bytes.len() as u64);
        let frame = reader.next(|_| false).unwrap()?;
        let end = frame.offset as usize + HEADER + frame.len as usize;
        Some((log, bytes[frame.offset as usize..end].to_vec()))
    });
    if let Some((log, frame)) = &torn {
        let mut file = std::fs::File::options().append(true).open(log).unwrap();
        std::io::Write::write_all(&mut file, &frame[..frame.len() / 2]).unwrap();
    }
    std::fs::write(dir.cases().join("worker-99.log"), b"").unwrap();
    torn.is_some()
}

/// Every `.tmp-*` file under `root`, at any depth.
fn orphans(root: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for dirent in std::fs::read_dir(&dir).unwrap() {
            let path = dirent.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else if path
                .file_name()
                .unwrap()
                .to_string_lossy()
                .starts_with(".tmp-")
            {
                found.push(path);
            }
        }
    }
    found
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
}

impl Interrupt {
    /// Leaves what the interruption leaves in the directory at `root`;
    /// says whether a frame was torn there.
    fn plant(self, root: &Path) -> bool {
        match self {
            Interrupt::None => false,
            Interrupt::Stop => {
                plant_orphans(root);
                false
            }
            Interrupt::Torn => plant_torn_tail(root),
        }
    }
}

/// One cell's inputs.
struct Cell<'a> {
    config: &'a CampaignConfig,
    root: &'a Path,
    workers: usize,
    interrupt: Interrupt,
    recorder: &'a Recorder,
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
        let torn = cell.interrupt.plant(cell.root);
        assert_eq!(torn, cell.interrupt == Interrupt::Torn);
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
            let torn = cell.interrupt.plant(dir.root());
            assert_eq!(torn, cell.interrupt == Interrupt::Torn);
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

/// A limit of 3 rounds up to two whole leases of 2.
fn fleet(cell: &Cell) -> CampaignReport {
    if cell.interrupt != Interrupt::None {
        let partial = serve(cell, Some(3), "first");
        assert_eq!(partial.completed(), 4, "{partial}");
        let torn = cell.interrupt.plant(&cell.root.join("fleet"));
        assert_eq!(torn, cell.interrupt == Interrupt::Torn);
        for i in 0..cell.workers {
            cell.interrupt
                .plant(&cell.root.join(format!("scratch-{i}")));
        }
    }
    serve(cell, None, "second")
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
    for (label, config) in [("diverging", diverging()), ("oracle", oracle())] {
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
            [&format!("cases/{CANONICAL}")],
            "{label}: one canonical log"
        );
        for suffix in [".profile", ".flight.jsonl", ".asim", ".stim", ".ckpt"] {
            assert!(
                reference.keys().any(|name| name.ends_with(suffix)),
                "{label}: no {suffix} artifact in {:?}",
                reference.keys()
            );
        }
        let (reference_counters, own) = counters(&recorder, &log);
        assert_eq!(
            own, "",
            "{label}: a single machine has no fleet or merge keys"
        );
        for key in [
            "campaign/divergences 6",
            "lint/designs_linted 6",
            "profile/",
            "session/cycles",
        ] {
            assert!(
                reference_counters.contains(key),
                "{label}: no {key}:\n{reference_counters}"
            );
        }

        let mut fleet_counters: Option<String> = None;
        for (surface, run, out) in surfaces {
            for workers in [1, 2] {
                for interrupt in [Interrupt::None, Interrupt::Stop, Interrupt::Torn] {
                    let name = format!("{label}-{surface}-w{workers}-{interrupt:?}");
                    let root = scratch(&name);
                    let (recorder, log) = Recorder::memory();
                    let cell = Cell {
                        config: &config,
                        root: &root,
                        workers,
                        interrupt,
                        recorder: &recorder,
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
                            ] {
                                assert!(own.contains(key), "{name}: no {key}:\n{own}");
                            }
                            own.clone()
                        });
                        assert_eq!(&own, expected, "{name} fleet counters");
                    }
                    let _ = std::fs::remove_dir_all(&root);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&single_root);
    }
}
