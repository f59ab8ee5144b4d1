//! End-to-end CLI checks through the library entry point (the binary is a
//! one-line wrapper over `asim_cli::run`).

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

fn write_spec(name: &str, content: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("asim2-it-{}-{name}.asim", std::process::id()));
    std::fs::write(&path, content).unwrap();
    path
}

#[test]
fn full_workflow_check_run_compile_netlist() {
    let (code, counter, _) = run_cli(&["spec", "counter"]);
    assert_eq!(code, 0);
    let path = write_spec("workflow", &counter);
    let path = path.to_str().unwrap();

    let (code, out, _) = run_cli(&["check", path, "-v"]);
    assert_eq!(code, 0);
    assert!(out.contains("components read."), "{out}");

    let (code, run_out, _) = run_cli(&["run", path]);
    assert_eq!(code, 0);
    assert!(
        run_out.contains("Cycle  16 count= 0"),
        "counter wraps: {run_out}"
    );

    let (code, rust, _) = run_cli(&["compile", path]);
    assert_eq!(code, 0);
    assert!(rust.contains("fn main()"), "{rust}");

    let (code, report, _) = run_cli(&["netlist", path]);
    assert_eq!(code, 0);
    assert!(report.contains("bill of materials"), "{report}");
}

#[test]
fn generated_sieve_spec_runs_through_the_cli() {
    let (code, sieve, _) = run_cli(&["spec", "sieve"]);
    assert_eq!(code, 0);
    let path = write_spec("sieve", &sieve);

    let (code, out, err) = run_cli(&["run", path.to_str().unwrap(), "--no-trace"]);
    assert_eq!(code, 0, "{err}");
    let primes: Vec<&str> = out.lines().collect();
    assert_eq!(primes.first(), Some(&"3"), "{out}");
    assert_eq!(primes.last(), Some(&"41"), "{out}");
}

#[test]
fn checkpoint_resume_is_byte_identical_to_an_uninterrupted_run() {
    // A free-running counter (no `= n` clause), driven by --cycles.
    let spec = write_spec(
        "ckpt",
        "# checkpoint counter\ncount* next .\nM count 0 next 1 1\nA next 4 count 1 .",
    );
    let spec = spec.to_str().unwrap();
    let ck = std::env::temp_dir().join(format!("asim2-it-{}-ckpt.state", std::process::id()));
    let ck = ck.to_str().unwrap();

    // Uninterrupted reference run: cycles 0..=100.
    let (code, full, err) = run_cli(&["run", spec, "--cycles", "100"]);
    assert_eq!(code, 0, "{err}");

    // The same run with periodic checkpoints must not perturb the trace;
    // the file is left at the last boundary (cycle 64).
    let (code, checkpointed, err) = run_cli(&[
        "run",
        spec,
        "--cycles",
        "100",
        "--checkpoint",
        ck,
        "--checkpoint-every",
        "64",
    ]);
    assert_eq!(code, 0, "{err}");
    assert_eq!(checkpointed, full, "checkpointing must not change the run");

    // Resuming from the checkpoint replays cycles 64..=100 byte-identically.
    let (code, resumed, err) = run_cli(&["run", spec, "--cycles", "100", "--resume", ck]);
    assert_eq!(code, 0, "{err}");
    assert!(resumed.starts_with("Cycle  64 "), "{resumed}");
    assert!(
        full.ends_with(&resumed),
        "resumed tail must be byte-identical to the uninterrupted run"
    );
    assert_eq!(
        full.lines().count(),
        resumed.lines().count() + 64,
        "resume picks up exactly at the checkpointed cycle"
    );

    // A checkpoint refuses to load over a different design.
    let other = write_spec("ckpt-other", "# other\nx y .\nA x 2 1 0\nA y 2 2 0 .");
    let (code, _, err) = run_cli(&[
        "run",
        other.to_str().unwrap(),
        "--cycles",
        "10",
        "--resume",
        ck,
    ]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("fingerprint"), "{err}");
}

#[test]
fn cosim_runs_the_generated_rust_subprocess_lane() {
    if !asim2::compile::rustc_available() {
        eprintln!("skipping: rustc not on PATH");
        return;
    }
    let (code, out, err) = run_cli(&[
        "cosim",
        "--scenario",
        "classic/counter",
        "--cycles",
        "48",
        "--engines",
        "interp,vm,rust",
    ]);
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("48 cycles verified, no divergence"), "{out}");
}

#[test]
fn campaign_end_to_end_run_interrupt_resume_replay() {
    let dir = std::env::temp_dir().join(format!("asim2-it-{}-campaign", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d = dir.to_str().unwrap();

    // Start a small parallel campaign, interrupted after 3 cases.
    let (code, out, err) = run_cli(&[
        "campaign",
        "run",
        "--dir",
        d,
        "--cases",
        "8",
        "--seed",
        "2",
        "--cycles",
        "24",
        "--size",
        "10",
        "--workers",
        "4",
        "--limit",
        "3",
    ]);
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("(3/8 cases done"), "{out}");
    assert!(err.contains("cases/s"), "throughput on stderr: {err}");

    // Resume completes the remaining cases; summary shows the full run.
    let (code, resumed, err) = run_cli(&["campaign", "resume", "--dir", d, "--workers", "2"]);
    assert_eq!(code, 0, "{err}");
    assert!(
        resumed.contains("summary: 8/8 agreed, 0 diverged"),
        "{resumed}"
    );

    // An empty corpus replays clean.
    let (code, replay, err) = run_cli(&["campaign", "replay", "--dir", d]);
    assert_eq!(code, 0, "{err}");
    assert!(replay.contains("corpus replay: 0 entries"), "{replay}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_archives_and_reproduces_an_injected_engine_bug() {
    let dir = std::env::temp_dir().join(format!("asim2-it-{}-campaign-bug", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d = dir.to_str().unwrap();

    // The vm-fault lane corrupts trace bytes from cycle 40: the campaign
    // finds the divergence, shrinks it, and archives a corpus entry.
    let (code, out, err) = run_cli(&[
        "campaign",
        "run",
        "--dir",
        d,
        "--cases",
        "1",
        "--seed",
        "9",
        "--cycles",
        "64",
        "--engines",
        "interp,vm-fault",
    ]);
    assert_eq!(code, 3, "{out}\n{err}");
    assert!(
        out.contains("DIVERGED at cycle 40 (trace) -> corpus seed-9"),
        "{out}"
    );
    // The entry is one frame of the compacted corpus log…
    let names: Vec<String> = std::fs::read_dir(dir.join("corpus"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names, ["corpus.log"]);

    // …which `campaign export` renders as the entry's four files, and the
    // exported specification runs on its stimulus.
    let exported = dir.join("exported");
    let (code, out, err) = run_cli(&[
        "campaign",
        "export",
        "--dir",
        d,
        "--out",
        exported.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("and 1 corpus entry to"), "{out}");
    for ext in ["asim", "stim", "ckpt", "json"] {
        assert!(
            exported.join(format!("corpus/seed-9.{ext}")).is_file(),
            "{ext}"
        );
    }
    let stim = std::fs::read(exported.join("corpus/seed-9.stim")).unwrap();
    let asim = exported.join("corpus/seed-9.asim");
    let args: Vec<String> = ["run", asim.to_str().unwrap(), "--cycles", "40"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let code = asim_cli::run_with_input(&args, &mut &stim[..], &mut out, &mut err);
    assert_eq!(code, 0, "{}", String::from_utf8_lossy(&err));
    assert!(String::from_utf8_lossy(&out).contains("Cycle  39"));

    // Replay reproduces it (exit 3); the healthy lane pair is clean.
    let (code, out, _) = run_cli(&["campaign", "replay", "--dir", d]);
    assert_eq!(code, 3);
    assert!(out.contains("REPRODUCED at cycle 40 (trace)"), "{out}");
    let (code, out, err) = run_cli(&["campaign", "replay", "--dir", d, "--engines", "interp,vm"]);
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("bug no longer reproduces"), "{out}");

    // An entry whose design_fp is not hex is refused as corrupt: exit 2.
    let frames = rtl_campaign::CorpusFrames::scan(&dir.join("corpus")).unwrap();
    let fingerprint = frames.fingerprints().next().unwrap();
    let mut files = frames.files("seed-9").unwrap().unwrap();
    let key = "\"design_fp\": \"";
    let start = files.meta.find(key).unwrap() + key.len();
    let end = start + files.meta[start..].find('"').unwrap();
    files.meta = format!("{}zz{}", &files.meta[..start], &files.meta[end..]);
    let body = rtl_campaign::corpus::encode_entry(fingerprint, "seed-9", &files).unwrap();
    let mut log = Vec::new();
    rtl_campaign::caselog::encode_frame(0, &body, &mut log).unwrap();
    std::fs::write(dir.join("corpus/corpus.log"), log).unwrap();
    let (code, _, err) = run_cli(&["campaign", "replay", "--dir", d]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("design_fp"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn figure_commands_work_from_the_top() {
    for fig in ["3.1", "4.1", "4.2", "4.3"] {
        let (code, out, err) = run_cli(&["fig", fig]);
        assert_eq!(code, 0, "fig {fig}: {err}");
        assert!(!out.is_empty(), "fig {fig} produced nothing");
    }
}
