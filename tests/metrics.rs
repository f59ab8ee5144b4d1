//! End-to-end checks for the observability layer: deterministic-counter
//! identity across worker counts and kill+resume, the no-perturbation
//! guarantee for `--metrics-out`, and the progress/quiet stderr
//! contract.

use proptest::prelude::*;
use rtl_obs::{Recorder, Summary};

fn run_cli(args: &[&str]) -> (i32, String, String) {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    let mut err = Vec::new();
    let code = asim_cli::run(&args, &mut out, &mut err);
    (
        code,
        String::from_utf8(out).unwrap(),
        String::from_utf8(err).unwrap(),
    )
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("asim2-metrics-it-{}-{name}", std::process::id()))
}

/// Runs a small campaign into `dir` with extra flags appended, returning
/// (code, stdout, stderr).
fn small_campaign(dir: &std::path::Path, extra: &[&str]) -> (i32, String, String) {
    let d = dir.to_str().unwrap().to_string();
    let mut args = vec![
        "campaign", "run", "--dir", &d, "--cases", "6", "--seed", "2", "--cycles", "24", "--size",
        "10",
    ];
    args.extend_from_slice(extra);
    run_cli(&args)
}

#[test]
fn det_counters_identical_across_worker_counts() {
    let (dir1, dir4) = (tmp("w1-dir"), tmp("w4-dir"));
    let (m1, m4) = (tmp("w1.jsonl"), tmp("w4.jsonl"));
    for p in [&dir1, &dir4] {
        let _ = std::fs::remove_dir_all(p);
    }
    let m1s = m1.to_str().unwrap().to_string();
    let m4s = m4.to_str().unwrap().to_string();

    let (code, out1, err) = small_campaign(&dir1, &["--workers", "1", "--metrics-out", &m1s]);
    assert_eq!(code, 0, "{err}");
    let (code, out4, err) = small_campaign(&dir4, &["--workers", "4", "--metrics-out", &m4s]);
    assert_eq!(code, 0, "{err}");
    assert_eq!(out1, out4, "worker count must not change the report");

    let (code, out, err) = run_cli(&["metrics", "summarize", "--check", &m1s, &m4s]);
    assert_eq!(code, 0, "{out}{err}");
    assert!(out.contains("identical across 2 runs"), "{out}");
    assert!(out.contains("campaign/cases_executed 6"), "{out}");
    assert!(out.contains("session/cycles"), "{out}");

    // The plain summary also renders the wall-clock section, flagged.
    let (code, summary, _) = run_cli(&["metrics", "summarize", &m1s]);
    assert_eq!(code, 0);
    assert!(summary.contains("non-deterministic"), "{summary}");

    for p in [&dir1, &dir4] {
        let _ = std::fs::remove_dir_all(p);
    }
    for p in [&m1, &m4] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn kill_resume_folds_to_the_uninterrupted_det_section() {
    let (dir_a, dir_b) = (tmp("resume-dir"), tmp("full-dir"));
    let (m1, m2, m3) = (tmp("part1.jsonl"), tmp("part2.jsonl"), tmp("full.jsonl"));
    for p in [&dir_a, &dir_b] {
        let _ = std::fs::remove_dir_all(p);
    }
    let m1s = m1.to_str().unwrap().to_string();
    let m2s = m2.to_str().unwrap().to_string();
    let m3s = m3.to_str().unwrap().to_string();

    // Interrupted run: 3 cases, then resume for the rest.
    let (code, _, err) = small_campaign(&dir_a, &["--limit", "3", "--metrics-out", &m1s]);
    assert_eq!(code, 0, "{err}");
    let d = dir_a.to_str().unwrap();
    let (code, _, err) = run_cli(&["campaign", "resume", "--dir", d, "--metrics-out", &m2s]);
    assert_eq!(code, 0, "{err}");

    // Uninterrupted reference run.
    let (code, _, err) = small_campaign(&dir_b, &["--metrics-out", &m3s]);
    assert_eq!(code, 0, "{err}");

    // The two partial logs fold to the same deterministic section as the
    // uninterrupted one.
    let group = format!("{m1s},{m2s}");
    let (code, out, err) = run_cli(&["metrics", "summarize", "--check", &group, &m3s]);
    assert_eq!(code, 0, "{out}{err}");

    for p in [&dir_a, &dir_b] {
        let _ = std::fs::remove_dir_all(p);
    }
    for p in [&m1, &m2, &m3] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn metrics_out_never_perturbs_campaign_outputs() {
    let (plain_dir, metered_dir) = (tmp("plain-dir"), tmp("metered-dir"));
    let metrics = tmp("perturb.jsonl");
    for p in [&plain_dir, &metered_dir] {
        let _ = std::fs::remove_dir_all(p);
    }
    let ms = metrics.to_str().unwrap().to_string();

    let (code, plain_out, _) = small_campaign(&plain_dir, &[]);
    assert_eq!(code, 0);
    let (code, metered_out, _) = small_campaign(&metered_dir, &["--metrics-out", &ms]);
    assert_eq!(code, 0);
    assert_eq!(
        plain_out, metered_out,
        "--metrics-out must not change the stdout report"
    );

    // Manifest and every case record stay bit-identical.
    let manifest = |d: &std::path::Path| std::fs::read(d.join("campaign.json")).unwrap();
    assert_eq!(manifest(&plain_dir), manifest(&metered_dir));
    let mut names: Vec<String> = std::fs::read_dir(plain_dir.join("cases"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert!(!names.is_empty());
    for name in names {
        assert_eq!(
            std::fs::read(plain_dir.join("cases").join(&name)).unwrap(),
            std::fs::read(metered_dir.join("cases").join(&name)).unwrap(),
            "case record {name} differs"
        );
    }

    for p in [&plain_dir, &metered_dir] {
        let _ = std::fs::remove_dir_all(p);
    }
    let _ = std::fs::remove_file(metrics);
}

/// `--lint-oracle` is the one lint switch: a campaign with `--metrics-out`
/// and `--flight` lints nothing without it (no `lint/` counter, no lint
/// line in any flight log), and with it emits exactly these counters.
#[test]
fn only_the_lint_oracle_lints() {
    for (label, extra, want) in [
        ("plain", &[][..], &[][..]),
        (
            "oracle",
            &["--lint-oracle"][..],
            &[
                "lint/designs_linted 6",
                "lint/field-oob 15",
                "lint/oracle_checks 1002",
            ][..],
        ),
    ] {
        let (dir, export, metrics) = (
            tmp(&format!("{label}-lint-dir")),
            tmp(&format!("{label}-lint-export")),
            tmp(&format!("{label}-lint.jsonl")),
        );
        for p in [&dir, &export] {
            let _ = std::fs::remove_dir_all(p);
        }
        let (d, e, m) = (
            dir.to_str().unwrap(),
            export.to_str().unwrap(),
            metrics.to_str().unwrap(),
        );
        let mut args = vec![
            "campaign",
            "run",
            "--dir",
            d,
            "--cases",
            "6",
            "--seed",
            "2",
            "--size",
            "10",
            "--cycles",
            "48",
            "--engines",
            "interp,vm-fault",
            "--metrics-out",
            m,
            "--flight",
        ];
        args.extend_from_slice(extra);
        let (code, out, err) = run_cli(&args);
        assert_eq!(code, 3, "{label}: every case diverges\n{out}{err}");
        let (code, summary, _) = run_cli(&["metrics", "summarize", m]);
        assert_eq!(code, 0, "{summary}");
        let got: Vec<&str> = summary
            .lines()
            .map(str::trim)
            .filter(|l| l.starts_with("lint/"))
            .collect();
        assert_eq!(got, want, "{label}: lint counters\n{summary}");

        let (code, _, err) = run_cli(&["campaign", "export", "--dir", d, "--out", e]);
        assert_eq!(code, 0, "{err}");
        let flights: Vec<String> = std::fs::read_dir(export.join("cases"))
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.to_string_lossy().ends_with(".flight.jsonl"))
            .map(|path| std::fs::read_to_string(path).unwrap())
            .collect();
        assert_eq!(flights.len(), 6, "{label}: a flight log per diverged case");
        for flight in flights {
            let linted = flight.contains("\"src\":\"lint\"");
            assert_eq!(linted, !want.is_empty(), "{label}: {flight}");
        }
        for p in [&dir, &export] {
            let _ = std::fs::remove_dir_all(p);
        }
        let _ = std::fs::remove_file(metrics);
    }
}

#[test]
fn check_flags_a_real_difference_with_exit_3() {
    let (dir_a, dir_b) = (tmp("diff-a"), tmp("diff-b"));
    let (ma, mb) = (tmp("diff-a.jsonl"), tmp("diff-b.jsonl"));
    for p in [&dir_a, &dir_b] {
        let _ = std::fs::remove_dir_all(p);
    }
    let mas = ma.to_str().unwrap().to_string();
    let mbs = mb.to_str().unwrap().to_string();

    let (code, _, err) = small_campaign(&dir_a, &["--metrics-out", &mas]);
    assert_eq!(code, 0, "{err}");
    // A different case count produces different deterministic counters.
    let db = dir_b.to_str().unwrap();
    let (code, _, err) = run_cli(&[
        "campaign",
        "run",
        "--dir",
        db,
        "--cases",
        "4",
        "--seed",
        "2",
        "--cycles",
        "24",
        "--size",
        "10",
        "--metrics-out",
        &mbs,
    ]);
    assert_eq!(code, 0, "{err}");

    let (code, _, err) = run_cli(&["metrics", "summarize", "--check", &mas, &mbs]);
    assert_eq!(code, 3, "{err}");
    assert!(err.contains("deterministic counters differ"), "{err}");

    for p in [&dir_a, &dir_b] {
        let _ = std::fs::remove_dir_all(p);
    }
    for p in [&ma, &mb] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn progress_and_quiet_control_stderr_only() {
    let dir = tmp("progress-dir");
    let _ = std::fs::remove_dir_all(&dir);

    // --progress=0: every case is due, so progress lines show up even on
    // a fast run; the rate line and the throughput line share stderr.
    let (code, _, err) = small_campaign(&dir, &["--progress=0"]);
    assert_eq!(code, 0, "{err}");
    assert!(err.contains("cases/s"), "{err}");
    assert!(err.contains("[6/6]"), "{err}");

    // --quiet: stderr stays empty on a clean run.
    let _ = std::fs::remove_dir_all(&dir);
    let (code, _, err) = small_campaign(&dir, &["--quiet"]);
    assert_eq!(code, 0, "{err}");
    assert!(err.is_empty(), "--quiet must silence stderr: {err:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_event_log_is_a_load_error() {
    let path = tmp("garbage.jsonl");
    std::fs::write(&path, "this is not an event log\n").unwrap();
    let ps = path.to_str().unwrap().to_string();
    let (code, _, err) = run_cli(&["metrics", "summarize", &ps]);
    assert_eq!(code, 2, "{err}");
    let _ = std::fs::remove_file(path);
}

proptest! {
    /// Splitting a counter stream across any number of per-worker logs —
    /// in any interleaving — folds to the identical deterministic
    /// section: the obs-level statement of the campaign's worker-count
    /// independence.
    #[test]
    fn split_counter_streams_fold_identically(
        raw in proptest::collection::vec(0u64..1_000_000, 1..40),
        workers in 1usize..5,
    ) {
        let srcs = ["campaign", "session", "lockstep", "merge"];
        let keys = ["cases_executed", "cycles", "divergences"];
        // The vendored proptest has no tuple strategies: decompose each
        // drawn word into (src, key, increment).
        let counts: Vec<(usize, usize, u64)> = raw
            .iter()
            .map(|&x| ((x % 4) as usize, ((x / 4) % 3) as usize, x / 12 % 100 + 1))
            .collect();

        // One log holding the whole stream.
        let (single, single_log) = Recorder::memory();
        for &(s, k, n) in &counts {
            single.count(srcs[s], keys[k], n);
        }
        single.flush();

        // The same stream dealt round-robin across `workers` logs.
        let sharded: Vec<_> = (0..workers).map(|_| Recorder::memory()).collect();
        for (i, &(s, k, n)) in counts.iter().enumerate() {
            sharded[i % workers].0.count(srcs[s], keys[k], n);
        }

        let mut reference = Summary::new();
        reference.fold_text(&single_log.text(), "single").unwrap();
        let mut folded = Summary::new();
        for (i, (recorder, log)) in sharded.iter().enumerate() {
            recorder.flush();
            folded.fold_text(&log.text(), &format!("worker{i}")).unwrap();
        }
        prop_assert_eq!(
            reference.deterministic_section(),
            folded.deterministic_section()
        );
    }
}

/// Binary-cache hits and misses depend on which worker wins a compile
/// race, so they are wall-clock gauges: the deterministic section that
/// `--check` compares never holds them.
#[test]
fn bin_cache_stats_stay_out_of_the_deterministic_section() {
    if !asim2::compile::rustc_available() {
        eprintln!("skipping: rustc not on PATH");
        return;
    }
    let dir = tmp("bin-cache-dir");
    let metrics = tmp("bin-cache.jsonl");
    let _ = std::fs::remove_dir_all(&dir);
    let m = metrics.to_str().unwrap().to_string();
    let d = dir.to_str().unwrap().to_string();
    let (code, _, err) = run_cli(&[
        "campaign",
        "run",
        "--dir",
        &d,
        "--cases",
        "2",
        "--seed",
        "3",
        "--cycles",
        "8",
        "--size",
        "6",
        "--engines",
        "interp,rust",
        "--workers",
        "2",
        "--metrics-out",
        &m,
    ]);
    assert_eq!(code, 0, "{err}");
    let (code, summary, err) = run_cli(&["metrics", "summarize", &m]);
    assert_eq!(code, 0, "{err}");
    let (deterministic, wall_clock) = summary
        .split_once("wall-clock")
        .expect("both sections are rendered");
    assert!(
        deterministic.contains("campaign/cases_executed 2"),
        "{summary}"
    );
    assert!(!deterministic.contains("bin_cache"), "{summary}");
    assert!(
        wall_clock.contains("gauge campaign/bin_cache_misses"),
        "{summary}"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&metrics);
}

/// `--case-checkpoint` is a run flag: it must not move what a run
/// compares. Its 256-cycle chunks are rounded up to whole comparison
/// strides, so a stride that does not divide 256 keeps every comparison
/// on the stride grid.
#[test]
fn case_checkpoints_keep_an_odd_stride_on_its_grid() {
    let mut metrics = Vec::new();
    for (label, extra) in [("plain", &[][..]), ("ckpt", &["--case-checkpoint"][..])] {
        let (dir, m) = (
            tmp(&format!("stride7-{label}-dir")),
            tmp(&format!("stride7-{label}.jsonl")),
        );
        let _ = std::fs::remove_dir_all(&dir);
        let (d, ms) = (dir.to_str().unwrap(), m.to_str().unwrap());
        let mut args = vec![
            "campaign",
            "run",
            "--dir",
            d,
            "--cases",
            "12",
            "--seed",
            "5",
            "--cycles",
            "600",
            "--compare-every",
            "7",
            "--engines",
            "interp,vm",
            "--metrics-out",
            ms,
        ];
        args.extend_from_slice(extra);
        let (code, out, err) = run_cli(&args);
        assert_eq!(code, 0, "{label}: {out}{err}");
        let _ = std::fs::remove_dir_all(&dir);
        metrics.push(m);
    }
    let (a, b) = (metrics[0].to_str().unwrap(), metrics[1].to_str().unwrap());
    let (code, out, err) = run_cli(&["metrics", "summarize", "--check", a, b]);
    assert_eq!(code, 0, "{out}{err}");
    let (_, summary, _) = run_cli(&["metrics", "summarize", b]);
    assert!(summary.contains("lockstep/compare_all 1032"), "{summary}");
    for m in metrics {
        let _ = std::fs::remove_file(m);
    }
}
