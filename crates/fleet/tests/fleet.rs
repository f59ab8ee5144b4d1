//! End-to-end fleet campaigns under failure: a controller plus networked
//! workers must produce a campaign directory byte-identical to a
//! single-machine `campaign run` through worker death, reassignment and
//! silent workers. Identity across worker counts and a controller
//! stop+restart is the root `tests/identity.rs` matrix.

use rtl_campaign::{CampaignConfig, CampaignDir, CaseRecord, Frames, NoProgress, RunOptions};
use rtl_fleet::{
    work, Controller, ControllerOptions, FleetError, FleetProgress, NoFleetProgress, WorkerOptions,
};
use rtl_obs::{Recorder, Summary};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asim2-fleet-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_config(engines: &[&str], cases: u32) -> CampaignConfig {
    let mut config = CampaignConfig {
        seed: 1,
        cases,
        engines: engines.iter().map(|e| e.to_string()).collect(),
        ..CampaignConfig::default()
    };
    config.generator.size = 10;
    config.generator.cycles = 24;
    config.generator.io_every = 2;
    config
}

/// Serves a campaign on an OS-assigned localhost port in a thread.
fn serve(
    root: &Path,
    config: &CampaignConfig,
    options: ControllerOptions,
) -> (
    SocketAddr,
    std::thread::JoinHandle<Result<rtl_campaign::CampaignReport, FleetError>>,
) {
    let controller = Controller::bind("127.0.0.1:0").unwrap();
    let addr = controller.local_addr().unwrap();
    let dir = CampaignDir::new(root);
    let config = config.clone();
    let handle =
        std::thread::spawn(move || controller.serve(&dir, &config, &options, &mut NoFleetProgress));
    (addr, handle)
}

fn worker_options(token: &str, name: &str, scratch_dir: &Path) -> WorkerOptions {
    WorkerOptions {
        token: token.into(),
        name: name.into(),
        threads: 2,
        scratch: scratch_dir.to_path_buf(),
        ..WorkerOptions::default()
    }
}

/// Every file under `dir` (recursively), relative path → bytes.
fn tree(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(listing) = std::fs::read_dir(&d) else {
            continue;
        };
        for dirent in listing {
            let path = dirent.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path.strip_prefix(dir).unwrap().display().to_string();
                files.insert(rel, std::fs::read(&path).unwrap());
            }
        }
    }
    files
}

/// Asserts the fleet directory is byte-identical to the single-machine
/// one: manifest, case log and corpus log.
/// `bin-cache/` is excluded on both sides — it is a cache, not state.
fn assert_identical(single: &Path, fleet: &Path) {
    let filter = |t: BTreeMap<String, Vec<u8>>| -> BTreeMap<String, Vec<u8>> {
        t.into_iter()
            .filter(|(rel, _)| !rel.starts_with("bin-cache"))
            .collect()
    };
    let single_tree = filter(tree(single));
    let fleet_tree = filter(tree(fleet));
    let names = |t: &BTreeMap<String, Vec<u8>>| t.keys().cloned().collect::<Vec<_>>();
    assert_eq!(
        names(&single_tree),
        names(&fleet_tree),
        "file sets differ between {} and {}",
        single.display(),
        fleet.display()
    );
    for (rel, bytes) in &single_tree {
        assert_eq!(
            bytes, &fleet_tree[rel],
            "{rel} differs between single-machine and fleet"
        );
    }
}

/// A worker killed mid-lease (deliberately dropping its connection after
/// three record uploads) has its lease reassigned, and a replacement
/// worker finishes the campaign — still bit-identical.
#[test]
fn worker_death_mid_lease_is_reassigned_and_stays_bit_identical() {
    let config = small_config(&["interp", "vm"], 10);

    let single_root = scratch("kill-single");
    let single = rtl_campaign::run(
        &CampaignDir::new(&single_root),
        &config,
        &RunOptions::default(),
        &mut NoProgress,
    )
    .unwrap();

    let fleet_root = scratch("kill-fleet");
    let (addr, controller) = serve(
        &fleet_root,
        &config,
        ControllerOptions {
            token: "t".into(),
            lease: 4,
            ..ControllerOptions::default()
        },
    );

    // The doomed worker abandons its connection mid-lease.
    let mut doomed = worker_options("t", "doomed", &scratch("kill-w1"));
    doomed.abandon_after = Some(3);
    let err = work(&addr.to_string(), &doomed).unwrap_err();
    assert!(matches!(err, FleetError::Abandoned), "{err}");

    // A replacement (fresh name, fresh scratch) finishes everything,
    // including the abandoned lease's remaining cases.
    let replacement = worker_options("t", "replacement", &scratch("kill-w2"));
    let report = work(&addr.to_string(), &replacement).unwrap();
    assert!(report.cases >= 7, "replacement ran the reassigned work");

    let fleet = controller.join().unwrap().unwrap();
    assert!(fleet.complete(), "{fleet}");
    assert_eq!(format!("{single}"), format!("{fleet}"));
    assert_identical(&single_root, &fleet_root);
}

fn fold(summaries: &[String]) -> String {
    let mut summary = Summary::new();
    for (i, text) in summaries.iter().enumerate() {
        summary.fold_text(text, &format!("log{i}")).unwrap();
    }
    summary.deterministic_section()
}

/// Collects the `done` count reported with every accepted record.
struct Dones(Vec<u32>);

impl FleetProgress for Dones {
    fn record_accepted(&mut self, _worker: &str, _record: &CaseRecord, done: u32, _total: u32) {
        self.0.push(done);
    }
}

/// The controller's completed-case count rises by one per accepted
/// record and, when a campaign is served again, starts from the records
/// already on disk.
#[test]
fn accepted_records_count_up_from_the_records_on_disk() {
    let config = small_config(&["interp", "vm"], 8);
    let root = scratch("dones");
    let mut dones = Vec::new();
    for (phase, limit) in [(0, Some(4)), (1, None)] {
        let controller = Controller::bind("127.0.0.1:0").unwrap();
        let addr = controller.local_addr().unwrap();
        let (dir, config) = (CampaignDir::new(&root), config.clone());
        let serving = std::thread::spawn(move || {
            let options = ControllerOptions {
                token: "t".into(),
                lease: 4,
                limit,
                ..ControllerOptions::default()
            };
            let mut progress = Dones(Vec::new());
            controller
                .serve(&dir, &config, &options, &mut progress)
                .unwrap();
            progress.0
        });
        let scratch_dir = scratch(&format!("dones-w{phase}"));
        work(&addr.to_string(), &worker_options("t", "w", &scratch_dir)).unwrap();
        dones.extend(serving.join().unwrap());
    }
    assert_eq!(dones, (1..=8).collect::<Vec<u32>>());
}

/// The most logs a worker's scratch held whenever the controller
/// accepted a record.
struct ScratchLogs {
    scratch: CampaignDir,
    most: usize,
}

impl FleetProgress for ScratchLogs {
    fn record_accepted(&mut self, _worker: &str, _record: &CaseRecord, _done: u32, _total: u32) {
        let logs = Frames::logs(&self.scratch).unwrap();
        self.most = self.most.max(logs.len());
    }
}

/// A worker streams each case's bundle from its pool to the controller
/// and writes no log: however many leases a session runs, its scratch
/// holds no log at any record the controller accepts, whether or not
/// the bundles carry corpus entries. With the faulty lane every case
/// archives one.
#[test]
fn a_long_session_writes_no_log_to_the_worker_scratch() {
    let mut diverging = small_config(&["interp", "vm-fault"], 40);
    diverging.generator.cycles = 48;
    for (label, config) in [
        ("agreeing", small_config(&["interp", "vm"], 40)),
        ("diverging", diverging),
    ] {
        let root = scratch(&format!("long-{label}"));
        let scratch_dir = scratch(&format!("long-{label}-w"));
        let controller = Controller::bind("127.0.0.1:0").unwrap();
        let addr = controller.local_addr().unwrap();
        let (dir, served) = (CampaignDir::new(&root), config.clone());
        let scratch = CampaignDir::new(&scratch_dir);
        let serving = std::thread::spawn(move || {
            let options = ControllerOptions {
                token: "t".into(),
                lease: 2,
                ..ControllerOptions::default()
            };
            let mut progress = ScratchLogs { scratch, most: 0 };
            let report = controller
                .serve(&dir, &served, &options, &mut progress)
                .unwrap();
            (report, progress.most)
        });
        let worker = work(&addr.to_string(), &worker_options("t", "w", &scratch_dir)).unwrap();
        let (report, most) = serving.join().unwrap();
        assert!(report.complete(), "{label}: {report}");
        assert_eq!((worker.leases, worker.cases), (20, 40), "{label}");
        assert_eq!(most, 0, "{label}: {most} logs");
        let scratch = CampaignDir::new(&scratch_dir);
        assert_eq!(Frames::logs(&scratch).unwrap(), Vec::<PathBuf>::new());
        if label == "diverging" {
            assert_eq!(report.diverged(), 40, "{report}");
            let frames = Frames::scan(
                &CampaignDir::new(&root),
                0..0,
                &[rtl_campaign::caselog::Kind::Corpus],
                |_, _| Ok(()),
            );
            assert_eq!(frames.unwrap().names().count(), 40);
        }
    }
}

/// The flight logs `campaign export` renders from the campaign at
/// `root`, relative path → bytes.
fn flight_files(root: &Path) -> BTreeMap<String, Vec<u8>> {
    let out = root.with_extension("export");
    let _ = std::fs::remove_dir_all(&out);
    CampaignDir::new(root)
        .export(&CampaignDir::new(&out))
        .unwrap();
    let files = tree(&out)
        .into_iter()
        .filter(|(rel, _)| rel.ends_with(".flight.jsonl"))
        .collect();
    let _ = std::fs::remove_dir_all(&out);
    files
}

/// With the flight recorder armed fleet-wide, every diverging case gets
/// a flight log, which `campaign export` renders as
/// `cases/case-N.flight.jsonl`, and whose bytes are identical to
/// the single-machine run's — across worker counts {1, 2}, whether or
/// not the controller records (its workers then record too, or run
/// recorder-less), and across a worker killed mid-lease and replaced.
#[test]
fn flight_sidecars_are_deterministic_across_worker_counts_and_kill() {
    let mut config = small_config(&["interp", "vm-fault"], 6);
    config.generator.cycles = 48;

    let single_root = scratch("flight-single");
    let single = rtl_campaign::run(
        &CampaignDir::new(&single_root),
        &config,
        &RunOptions {
            workers: 2,
            flight: true,
            ..RunOptions::default()
        },
        &mut NoProgress,
    )
    .unwrap();
    assert!(single.diverged() > 0, "fault lane must diverge: {single}");
    let reference = flight_files(&single_root);
    assert!(
        !reference.is_empty(),
        "diverging cases must dump flight sidecars"
    );

    let fleet_options = || ControllerOptions {
        token: "t".into(),
        lease: 2,
        flight: true,
        ..ControllerOptions::default()
    };

    for (workers, recording) in [(1u32, false), (2, false), (2, true)] {
        let tag = format!("w{workers}{}", if recording { "-rec" } else { "" });
        let fleet_root = scratch(&format!("flight-{tag}"));
        let mut options = fleet_options();
        let log = recording.then(|| {
            let (recorder, log) = Recorder::memory();
            options.recorder = recorder;
            log
        });
        let (addr, controller) = serve(&fleet_root, &config, options);
        let handles: Vec<_> = (0..workers)
            .map(|i| {
                let options = worker_options(
                    "t",
                    &format!("fw{i}"),
                    &scratch(&format!("flight-{tag}-s{i}")),
                );
                let addr = addr.to_string();
                std::thread::spawn(move || work(&addr, &options))
            })
            .collect();
        for h in handles {
            h.join().unwrap().unwrap();
        }
        controller.join().unwrap().unwrap();
        if let Some(log) = log {
            assert!(
                fold(&[log.text()]).contains("campaign/cases_executed 6"),
                "a recording controller folds its workers' telemetry"
            );
        }
        assert_eq!(
            reference,
            flight_files(&fleet_root),
            "{tag} fleet flight sidecars drifted"
        );
        // The flight logs ride in the case log, so the whole tree —
        // records, corpus, manifest, flight logs — still matches.
        assert_identical(&single_root, &fleet_root);
    }

    // Kill + replace: the doomed worker abandons its connection after
    // three uploads; the replacement re-runs the abandoned lease. The
    // sidecars it republishes must be the same bytes.
    let fleet_root = scratch("flight-kill");
    let (addr, controller) = serve(&fleet_root, &config, fleet_options());
    let mut doomed = worker_options("t", "doomed", &scratch("flight-kill-w1"));
    doomed.abandon_after = Some(3);
    let err = work(&addr.to_string(), &doomed).unwrap_err();
    assert!(matches!(err, FleetError::Abandoned), "{err}");
    let replacement = worker_options("t", "replacement", &scratch("flight-kill-w2"));
    work(&addr.to_string(), &replacement).unwrap();
    controller.join().unwrap().unwrap();
    assert_eq!(
        reference,
        flight_files(&fleet_root),
        "kill+replace changed a flight sidecar"
    );
    assert_identical(&single_root, &fleet_root);
}

/// A half-dead worker — connected but silent — has its lease expired at
/// the deadline and the cases are reassigned to a live worker.
#[test]
fn silent_workers_lose_their_lease_at_the_deadline() {
    use rtl_fleet::protocol::{Framed, Message, PROTOCOL};

    let config = small_config(&["interp", "vm"], 4);
    let root = scratch("expiry");
    let (addr, controller) = serve(
        &root,
        &config,
        ControllerOptions {
            token: "t".into(),
            lease: 2,
            deadline: Duration::from_millis(150),
            grace: Duration::from_millis(200),
            ..ControllerOptions::default()
        },
    );

    // A raw protocol client takes a lease and goes silent.
    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut silent = Framed::new(stream).unwrap();
    let welcome = silent
        .call(&Message::Hello {
            protocol: PROTOCOL.into(),
            token: "t".into(),
            worker: "silent".into(),
            fingerprint: None,
            role: None,
        })
        .unwrap();
    // A controller without a recorder tells its workers not to record.
    assert!(
        matches!(welcome, Message::Welcome { metrics: false, .. }),
        "{welcome:?}"
    );
    let lease = silent.call(&Message::LeaseRequest).unwrap();
    assert!(
        matches!(
            lease,
            Message::Lease {
                start: 0,
                end: 2,
                ..
            }
        ),
        "{lease:?}"
    );

    // Past the deadline, a live worker picks up the whole campaign —
    // including the silent client's expired lease.
    std::thread::sleep(Duration::from_millis(300));
    let options = worker_options("t", "live", &scratch("expiry-w"));
    let report = work(&addr.to_string(), &options).unwrap();
    assert_eq!(report.cases, 4, "{report:?}");
    let fleet = controller.join().unwrap().unwrap();
    assert!(fleet.complete(), "{fleet}");
    drop(silent);
}
