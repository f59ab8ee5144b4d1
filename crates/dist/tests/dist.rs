//! The distributed-campaign refusal and repair contract: merge refuses
//! drifted, incomplete, duplicated and corrupt shards before writing
//! anything, `run_shard` heals a kill between init and marker and refuses
//! foreign directories, and sidecars ride through the merge. Identity
//! with a single-machine run, across shard counts and kill+resume inside
//! a shard, is the root `tests/identity.rs` matrix.

use rtl_campaign::caselog::CANONICAL;
use rtl_campaign::{CampaignConfig, CampaignDir, CampaignError, NoProgress, RunOptions};
use rtl_cosim::GenOptions;
use rtl_dist::{merge, run_shard, ShardPlan};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch(name: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "asim2-dist-{}-{name}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quick_config(seed: u64, engines: &[&str], cycles: u64) -> CampaignConfig {
    CampaignConfig {
        seed,
        cases: 5,
        engines: engines.iter().map(|s| s.to_string()).collect(),
        generator: GenOptions {
            size: 6,
            cycles,
            ..GenOptions::default()
        },
        compare_every: 1,
        lint_oracle: false,
    }
}

/// Everything outcome-carrying in a campaign directory, as relative path
/// → bytes: the manifest, the record log and sidecars, every corpus file. The
/// `bin-cache/` (a rebuildable cache) and `shard.json` (shard-local
/// metadata by design) are excluded.
fn tree(root: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    files.insert(
        "campaign.json".to_string(),
        std::fs::read(root.join("campaign.json")).expect("manifest exists"),
    );
    for sub in ["cases", "corpus"] {
        let dir = root.join(sub);
        let Ok(listing) = std::fs::read_dir(&dir) else {
            continue;
        };
        for dirent in listing {
            let path = dirent.unwrap().path();
            if path.is_file() {
                let name = format!("{sub}/{}", path.file_name().unwrap().to_string_lossy());
                files.insert(name, std::fs::read(&path).unwrap());
            }
        }
    }
    files
}

#[test]
fn merge_refuses_drift_and_incompleteness() {
    let config = quick_config(0, &["interp", "vm"], 12);
    let plan = ShardPlan::partition(config.clone(), 2).unwrap();
    let a = CampaignDir::new(scratch("refuse-a"));
    let b = CampaignDir::new(scratch("refuse-b"));
    run_shard(&plan, 0, &a, &RunOptions::default(), &mut NoProgress).unwrap();

    // Shard 1 interrupted: merge refuses until it completes.
    run_shard(
        &plan,
        1,
        &b,
        &RunOptions {
            limit: Some(1),
            ..RunOptions::default()
        },
        &mut NoProgress,
    )
    .unwrap();
    let out = CampaignDir::new(scratch("refuse-out"));
    let dirs = vec![a.root().to_path_buf(), b.root().to_path_buf()];
    let err = merge(&plan, &dirs, &out).unwrap_err();
    assert!(err.to_string().contains("missing case"), "{err}");

    // The same directory twice: refused.
    let twice = vec![a.root().to_path_buf(), a.root().to_path_buf()];
    let err = merge(&plan, &twice, &out).unwrap_err();
    assert!(err.to_string().contains("more than once"), "{err}");

    // A directory from a different plan: refused.
    let other_plan = ShardPlan::partition(
        CampaignConfig {
            seed: 99,
            ..config.clone()
        },
        2,
    )
    .unwrap();
    let err = merge(&other_plan, &dirs, &out).unwrap_err();
    assert!(
        matches!(err, CampaignError::Config(_)),
        "drifted config must be refused, got {err}"
    );

    // Completing shard 1 heals the merge.
    run_shard(&plan, 1, &b, &RunOptions::default(), &mut NoProgress).unwrap();
    let merged = merge(&plan, &dirs, &out).unwrap();
    assert!(merged.clean(), "{merged}");

    // A record outside the shard's range poisons a future merge.
    let stray = CampaignDir::new(scratch("refuse-stray"));
    run_shard(&plan, 0, &stray, &RunOptions::default(), &mut NoProgress).unwrap();
    // Shard 1's records, appended as a worker log of shard 0's directory.
    std::fs::copy(
        b.cases().join(CANONICAL),
        stray.cases().join("worker-9.log"),
    )
    .unwrap();
    let out2 = CampaignDir::new(scratch("refuse-out2"));
    let err = merge(
        &plan,
        &[stray.root().to_path_buf(), b.root().to_path_buf()],
        &out2,
    )
    .unwrap_err();
    assert!(err.to_string().contains("outside"), "{err}");

    for dir in [&a, &b, &out, &stray, &out2] {
        let _ = std::fs::remove_dir_all(dir.root());
    }
}

#[test]
fn run_shard_heals_a_kill_between_init_and_marker() {
    // run_shard writes campaign.json, then shard.json — a kill between
    // the two leaves a manifest with an empty cases/ and no marker.
    // Re-running the same shard must heal that window, not refuse it.
    let config = quick_config(0, &["interp", "vm"], 12);
    let plan = ShardPlan::partition(config, 2).unwrap();
    let dir = CampaignDir::new(scratch("healed"));
    dir.init(&plan.config).unwrap(); // simulate the crash window
    assert!(!dir.root().join("shard.json").exists());
    let report = run_shard(&plan, 0, &dir, &RunOptions::default(), &mut NoProgress).unwrap();
    assert_eq!(report.report.agreed(), report.spec.cases(), "{report}");
    assert!(dir.root().join("shard.json").exists(), "marker rewritten");
    let _ = std::fs::remove_dir_all(dir.root());
}

#[test]
fn run_shard_refuses_foreign_directories() {
    let config = quick_config(0, &["interp", "vm"], 12);
    let plan = ShardPlan::partition(config.clone(), 2).unwrap();
    let dir = CampaignDir::new(scratch("foreign"));
    run_shard(&plan, 0, &dir, &RunOptions::default(), &mut NoProgress).unwrap();

    // Same directory, different shard index: refused.
    let err = run_shard(&plan, 1, &dir, &RunOptions::default(), &mut NoProgress).unwrap_err();
    assert!(err.to_string().contains("shard 0"), "{err}");

    // Same directory, different plan: refused.
    let other = ShardPlan::partition(CampaignConfig { seed: 7, ..config }, 2).unwrap();
    let err = run_shard(&other, 0, &dir, &RunOptions::default(), &mut NoProgress).unwrap_err();
    assert!(
        matches!(err, CampaignError::Config(_)),
        "foreign plan must be refused, got {err}"
    );

    // A plain (unsharded) campaign directory: refused, not silently
    // adopted.
    let plain = CampaignDir::new(scratch("plain"));
    rtl_campaign::run(
        &plain,
        &plan.config,
        &RunOptions::default(),
        &mut NoProgress,
    )
    .unwrap();
    let err = run_shard(&plan, 0, &plain, &RunOptions::default(), &mut NoProgress).unwrap_err();
    assert!(err.to_string().contains("shard.json"), "{err}");

    let _ = std::fs::remove_dir_all(dir.root());
    let _ = std::fs::remove_dir_all(plain.root());
}

/// Runs `config` as a 2-shard plan with `options` and returns the plan
/// and the shard directories.
fn run_two_shards(config: &CampaignConfig, options: &RunOptions) -> (ShardPlan, Vec<PathBuf>) {
    let plan = ShardPlan::partition(config.clone(), 2).unwrap();
    let dirs = plan
        .shards
        .iter()
        .map(|spec| {
            let dir = CampaignDir::new(scratch(&format!("bundle-shard{}", spec.index)));
            run_shard(&plan, spec.index, &dir, options, &mut NoProgress).unwrap();
            dir.root().to_path_buf()
        })
        .collect();
    (plan, dirs)
}

/// The files under `root/cases` whose names end in `suffix`.
fn case_files(root: &Path, suffix: &str) -> BTreeMap<String, Vec<u8>> {
    tree(root)
        .into_iter()
        .filter(|(name, _)| name.starts_with("cases/") && name.ends_with(suffix))
        .collect()
}

#[test]
fn merge_carries_flight_sidecars() {
    // Every vm-fault case diverges, so every case dumps a flight log.
    let mut config = quick_config(3, &["interp", "vm-fault"], 48);
    config.cases = 3;
    let flight = RunOptions {
        flight: true,
        ..RunOptions::default()
    };
    let single = CampaignDir::new(scratch("flight-single"));
    rtl_campaign::run(&single, &config, &flight, &mut NoProgress).unwrap();
    let reference = case_files(single.root(), ".flight.jsonl");
    assert_eq!(reference.len(), 3, "{:?}", reference.keys());

    let (plan, dirs) = run_two_shards(&config, &flight);
    let out = CampaignDir::new(scratch("flight-merged"));
    merge(&plan, &dirs, &out).unwrap();
    assert_eq!(case_files(out.root(), ".flight.jsonl"), reference);
    assert_eq!(tree(out.root()), tree(single.root()));
    for dir in dirs
        .iter()
        .map(PathBuf::as_path)
        .chain([single.root(), out.root()])
    {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn merge_refuses_a_corrupt_sidecar_before_writing_anything() {
    let mut config = quick_config(3, &["interp", "vm-fault"], 48);
    config.cases = 3;
    let options = RunOptions {
        profile: true,
        flight: true,
        ..RunOptions::default()
    };
    let (plan, dirs) = run_two_shards(&config, &options);
    let shard = CampaignDir::new(&dirs[0]);
    let index = plan.shards[0].start + 1;
    let out = CampaignDir::new(scratch("corrupt-out"));

    // A garbage profile sidecar.
    let profile = std::fs::read(shard.profile_path(index)).unwrap();
    std::fs::write(shard.profile_path(index), "garbage\n").unwrap();
    let err = merge(&plan, &dirs, &out).unwrap_err();
    assert!(matches!(err, CampaignError::Corrupt(_)), "{err}");
    assert!(err.to_string().contains("case-000001.profile"), "{err}");
    assert!(!out.root().exists(), "nothing may be written: {err}");
    std::fs::write(shard.profile_path(index), profile).unwrap();

    // A flight log with a line that is not an event.
    let mut flight = std::fs::read_to_string(shard.flight_path(index)).unwrap();
    flight.push_str("not an event\n");
    std::fs::write(shard.flight_path(index), flight).unwrap();
    let err = merge(&plan, &dirs, &out).unwrap_err();
    assert!(matches!(err, CampaignError::Corrupt(_)), "{err}");
    assert!(
        err.to_string().contains("case-000001.flight.jsonl"),
        "{err}"
    );
    assert!(!out.root().exists(), "nothing may be written: {err}");
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}
