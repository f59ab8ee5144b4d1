//! The identity matrix: a campaign's bytes do not depend on how it ran.
//!
//! Every cell of surface {campaign, shard+merge, fleet} × workers {1, 2}
//! × {uninterrupted, `limit` stop + resume} runs one diverging campaign
//! with profiles and the flight recorder on, so every artifact kind
//! appears: records, profile and flight sidecars, and shrunk corpus
//! entries. Each cell's `campaign.json`, `cases/` and `corpus/` must
//! equal a single-machine run's byte for byte, and its report must read
//! the same.

use rtl_campaign::{CampaignConfig, CampaignDir, CampaignReport, NoProgress, RunOptions};
use rtl_dist::{merge, run_shard, ShardPlan};
use rtl_fleet::{work, Controller, ControllerOptions, NoFleetProgress, WorkerOptions};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asim2-identity-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Six `interp,vm-fault` cases: each diverges at cycle 40, shrinks and
/// archives a corpus entry.
fn config() -> CampaignConfig {
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

/// Run options with both sidecars on.
fn options(workers: usize, limit: Option<u32>) -> RunOptions {
    RunOptions {
        workers,
        limit,
        profile: true,
        flight: true,
        ..RunOptions::default()
    }
}

fn campaign(root: &Path, workers: usize, interrupt: bool) -> CampaignReport {
    let dir = CampaignDir::new(root);
    if interrupt {
        let partial =
            rtl_campaign::run(&dir, &config(), &options(workers, Some(2)), &mut NoProgress)
                .unwrap();
        assert!(!partial.complete(), "{partial}");
        rtl_campaign::resume(&dir, &options(workers, None), &mut NoProgress).unwrap()
    } else {
        rtl_campaign::run(&dir, &config(), &options(workers, None), &mut NoProgress).unwrap()
    }
}

fn shards(root: &Path, workers: usize, interrupt: bool) -> CampaignReport {
    let plan = ShardPlan::partition(config(), 2).unwrap();
    let mut dirs = Vec::new();
    for spec in &plan.shards {
        let dir = CampaignDir::new(root.join(format!("shard-{}", spec.index)));
        if interrupt {
            let partial = run_shard(
                &plan,
                spec.index,
                &dir,
                &options(workers, Some(1)),
                &mut NoProgress,
            )
            .unwrap();
            assert!(partial.report.completed() < spec.cases(), "{partial}");
        }
        run_shard(
            &plan,
            spec.index,
            &dir,
            &options(workers, None),
            &mut NoProgress,
        )
        .unwrap();
        dirs.push(dir.root().to_path_buf());
    }
    merge(&plan, &dirs, &CampaignDir::new(root.join("merged"))).unwrap()
}

/// Serves the campaign once to `workers` one-thread workers.
fn serve(root: &Path, workers: usize, limit: Option<u32>, tag: &str) -> CampaignReport {
    let controller = Controller::bind("127.0.0.1:0").unwrap();
    let addr = controller.local_addr().unwrap().to_string();
    let options = ControllerOptions {
        token: "t".into(),
        lease: 2,
        limit,
        profile: true,
        flight: true,
        ..ControllerOptions::default()
    };
    let dir = CampaignDir::new(root.join("fleet"));
    let serving = std::thread::spawn(move || {
        controller.serve(&dir, &config(), &options, &mut NoFleetProgress)
    });
    let handles: Vec<_> = (0..workers)
        .map(|i| {
            let options = WorkerOptions {
                token: "t".into(),
                name: format!("{tag}-w{i}"),
                threads: 1,
                scratch: root.join(format!("{tag}-scratch-{i}")),
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

fn fleet(root: &Path, workers: usize, interrupt: bool) -> CampaignReport {
    if interrupt {
        let partial = serve(root, workers, Some(2), "first");
        assert!(!partial.complete(), "{partial}");
    }
    serve(root, workers, None, "second")
}

#[test]
fn every_surface_worker_count_and_interruption_is_byte_identical() {
    let single_root = scratch("single");
    let single = rtl_campaign::run(
        &CampaignDir::new(&single_root),
        &config(),
        &options(1, None),
        &mut NoProgress,
    )
    .unwrap();
    assert_eq!(single.diverged(), 6, "{single}");
    let reference = tree(&single_root);
    for suffix in [".profile", ".flight.jsonl", ".asim", ".stim", ".ckpt"] {
        assert!(
            reference.keys().any(|name| name.ends_with(suffix)),
            "no {suffix} artifact in {:?}",
            reference.keys()
        );
    }

    type Surface = fn(&Path, usize, bool) -> CampaignReport;
    let surfaces: [(&str, Surface, &str); 3] = [
        ("campaign", campaign, ""),
        ("shard", shards, "merged"),
        ("fleet", fleet, "fleet"),
    ];
    for (surface, run, out) in surfaces {
        for workers in [1, 2] {
            for interrupt in [false, true] {
                let cell = format!("{surface}-w{workers}-{interrupt}");
                let root = scratch(&cell);
                let report = run(&root, workers, interrupt);
                assert_eq!(format!("{report}"), format!("{single}"), "{cell} report");
                let got = tree(&root.join(out));
                assert_eq!(
                    got.keys().collect::<Vec<_>>(),
                    reference.keys().collect::<Vec<_>>(),
                    "{cell} file set"
                );
                for (name, bytes) in &reference {
                    assert_eq!(&got[name], bytes, "{cell}: {name} differs");
                }
                let _ = std::fs::remove_dir_all(&root);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&single_root);
}
