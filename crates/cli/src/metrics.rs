//! `asim2 metrics` — folding, checking and exporting `asim2-events v1`
//! logs.
//!
//! `summarize FILE...` folds any number of logs into one
//! [`Summary`](rtl_obs::Summary) and prints it. With `--check`, each
//! positional argument is one *run* — either a single log file or a
//! comma-joined group of files (e.g. the per-shard logs of one
//! distributed campaign) — and the command exits 3 unless every run's
//! deterministic-counter section is byte-identical. Wall-clock spans,
//! gauges and marks never participate in the comparison.
//!
//! `trace-export FILE [--out F]` converts one log into Chrome
//! trace-event JSON (viewable in Perfetto or `chrome://tracing`); see
//! [`rtl_obs::trace`] for the timeline layout.
//!
//! `-` anywhere a FILE is accepted reads the log from stdin (read once,
//! reused if `-` appears in several run groups).

use crate::args::Arg;
use crate::{load_err, usage_err, Args, CliError};
use rtl_obs::{Event, Summary};
use std::io::{BufRead, Write};

pub(crate) fn metrics_cmd(
    args: &Args,
    stdin: &mut dyn BufRead,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    match args.name {
        "metrics summarize" => summarize_cmd(args, stdin, out),
        "metrics trace-export" => trace_export_cmd(args, stdin, out),
        _ => flight_cmd(args, stdin, out),
    }
}

/// Stdin, read at most once no matter how many `-` arguments reference
/// it, so one piped log can participate in several run groups.
struct StdinLog<'a> {
    stdin: &'a mut dyn BufRead,
    text: Option<String>,
}

impl<'a> StdinLog<'a> {
    fn new(stdin: &'a mut dyn BufRead) -> StdinLog<'a> {
        StdinLog { stdin, text: None }
    }

    fn text(&mut self) -> Result<&str, CliError> {
        if self.text.is_none() {
            let mut buf = String::new();
            self.stdin
                .read_to_string(&mut buf)
                .map_err(|e| load_err(format!("cannot read stdin: {e}")))?;
            self.text = Some(buf);
        }
        Ok(self.text.as_deref().expect("just filled"))
    }
}

fn summarize_cmd(
    args: &Args,
    stdin: &mut dyn BufRead,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    // Positionals before any `--group` are each their own run; every
    // `--group` starts a fresh run collecting the FILEs after it — the
    // spelled-out form of the comma-joined group syntax, which shells
    // with glob expansion can actually produce.
    let mut runs: Vec<String> = Vec::new();
    let mut group: Option<Vec<&str>> = None;
    for item in &args.items {
        match *item {
            Arg::Flag("--group", _) => {
                if let Some(files) = group.replace(Vec::new()) {
                    if files.is_empty() {
                        return Err(usage_err("--group needs at least one FILE after it"));
                    }
                    runs.push(files.join(","));
                }
            }
            Arg::Flag(..) => {}
            Arg::Positional(file) => match &mut group {
                Some(files) => files.push(file),
                None => runs.push(file.to_string()),
            },
        }
    }
    if let Some(files) = group.take() {
        if files.is_empty() {
            return Err(usage_err("--group needs at least one FILE after it"));
        }
        runs.push(files.join(","));
    }
    if runs.is_empty() {
        return Err(usage_err("metrics summarize needs at least one FILE"));
    }
    let mut piped = StdinLog::new(stdin);
    if args.has("--check") {
        let refs: Vec<&str> = runs.iter().map(String::as_str).collect();
        check_runs(&refs, &mut piped, out)
    } else {
        let summary = fold_group(&runs.join(","), &mut piped)?;
        let _ = write!(out, "{summary}");
        Ok(())
    }
}

/// Folds one run — a single path or a comma-joined group of paths, `-`
/// reading stdin.
fn fold_group(group: &str, piped: &mut StdinLog<'_>) -> Result<Summary, CliError> {
    let mut summary = Summary::new();
    for path in group.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        if path == "-" {
            summary
                .fold_text(piped.text()?, "stdin")
                .map_err(load_err)?;
        } else {
            summary
                .fold_file(std::path::Path::new(path))
                .map_err(load_err)?;
        }
    }
    if summary.files() == 0 {
        return Err(usage_err(format!("empty run group {group:?}")));
    }
    Ok(summary)
}

/// `--check`: every run's deterministic section must match the first's,
/// byte for byte.
fn check_runs(
    groups: &[&str],
    piped: &mut StdinLog<'_>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    if groups.len() < 2 {
        return Err(usage_err(
            "metrics summarize --check needs at least two runs to compare",
        ));
    }
    let mut baseline: Option<(String, &str)> = None;
    for group in groups {
        let section = fold_group(group, piped)?.deterministic_section();
        match &baseline {
            None => baseline = Some((section, group)),
            Some((expected, first)) if *expected != section => {
                let diff = first_difference(expected, &section);
                return Err(CliError {
                    code: 3,
                    message: format!(
                        "deterministic counters differ between {first:?} and {group:?}:\n\
                         {diff}"
                    ),
                });
            }
            Some(_) => {}
        }
    }
    let (section, _) = baseline.expect("at least two runs checked");
    let _ = writeln!(
        out,
        "deterministic counters identical across {} runs",
        groups.len()
    );
    let _ = write!(out, "{section}");
    Ok(())
}

/// Renders the first line where two deterministic sections disagree.
fn first_difference(a: &str, b: &str) -> String {
    let mut left = a.lines();
    let mut right = b.lines();
    loop {
        match (left.next(), right.next()) {
            (Some(l), Some(r)) if l == r => continue,
            (Some(l), Some(r)) => return format!("  first run: {l}\n  this run:  {r}"),
            (Some(l), None) => return format!("  first run: {l}\n  this run:  <missing>"),
            (None, Some(r)) => return format!("  first run: <missing>\n  this run:  {r}"),
            (None, None) => return "  (sections identical?)".into(),
        }
    }
}

/// `trace-export FILE... [--out F]` — event logs (or `-` for stdin) to
/// Chrome trace-event JSON. One FILE keeps the classic single-process
/// layout; several merge onto one timeline with a named track per log.
fn trace_export_cmd(
    args: &Args,
    stdin: &mut dyn BufRead,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let files = args.positionals();
    let out_path = args.values("--out").last().copied();
    if files.is_empty() {
        return Err(usage_err(
            "metrics trace-export needs at least one FILE (or -)",
        ));
    }
    let mut read_one = |file: &str| -> Result<(String, String), CliError> {
        if file == "-" {
            let mut piped = String::new();
            stdin
                .read_to_string(&mut piped)
                .map_err(|e| load_err(format!("cannot read stdin: {e}")))?;
            Ok(("stdin".to_string(), piped))
        } else {
            let read = std::fs::read_to_string(file)
                .map_err(|e| load_err(format!("cannot read {file}: {e}")))?;
            Ok((file.to_string(), read))
        }
    };
    let json = if files.len() == 1 {
        let (label, text) = read_one(files[0])?;
        rtl_obs::trace_from_text(&text, &label).map_err(load_err)?
    } else {
        if files.iter().filter(|f| **f == "-").count() > 1 {
            return Err(usage_err("`-` may appear at most once among the FILEs"));
        }
        let mut sources = Vec::new();
        for file in files {
            sources.push(read_one(file)?);
        }
        rtl_obs::trace_from_sources(&sources).map_err(load_err)?
    };
    match out_path {
        Some(path) => {
            std::fs::write(path, json).map_err(|e| load_err(format!("cannot write {path}: {e}")))?
        }
        None => {
            let _ = out.write_all(json.as_bytes());
        }
    }
    Ok(())
}

/// `flight FILE` — pretty-prints a `case-N.flight.jsonl` divergence
/// flight-recorder log, as `campaign export` renders it: the ring buffer
/// of events leading up to the trigger, then the trigger itself.
fn flight_cmd(args: &Args, stdin: &mut dyn BufRead, out: &mut dyn Write) -> Result<(), CliError> {
    let file = args
        .positional()
        .ok_or_else(|| usage_err("metrics flight needs one FILE (or -)"))?;
    let text = if file == "-" {
        let mut piped = String::new();
        stdin
            .read_to_string(&mut piped)
            .map_err(|e| load_err(format!("cannot read stdin: {e}")))?;
        piped
    } else {
        std::fs::read_to_string(file).map_err(|e| load_err(format!("cannot read {file}: {e}")))?
    };
    let mut events = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        events.push(Event::parse(line).map_err(|e| load_err(format!("{file}: {e}")))?);
    }
    let recorded = events
        .iter()
        .filter(|e| !matches!(e, Event::Meta { .. }))
        .count();
    if recorded == 0 {
        return Err(load_err(format!("{file}: no events in the flight log")));
    }
    let _ = writeln!(out, "flight recorder: {recorded} event(s)");
    for event in events {
        match event {
            Event::Meta { .. } => {}
            Event::Counter { src, key, n } => {
                let _ = writeln!(out, "  counter {src}/{key} +{n}");
            }
            Event::Gauge { src, key, value } => {
                let _ = writeln!(out, "  gauge   {src}/{key} = {value}");
            }
            Event::Mark { src, key, detail } if src == "flight" && key == "trigger" => {
                let _ = writeln!(out, "trigger: {}", detail.unwrap_or_default());
            }
            Event::Mark { src, key, detail } => match detail {
                Some(detail) => {
                    let _ = writeln!(out, "  mark    {src}/{key}: {detail}");
                }
                None => {
                    let _ = writeln!(out, "  mark    {src}/{key}");
                }
            },
            Event::SpanEnter { src, key, id } => {
                let _ = writeln!(out, "  span    {src}/{key} #{id} enter");
            }
            Event::SpanExit {
                src,
                key,
                id,
                micros,
            } => {
                let _ = writeln!(out, "  span    {src}/{key} #{id} exit ({micros}us)");
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use rtl_obs::Recorder;

    fn write_log(name: &str, build: impl Fn(&Recorder)) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("asim-metrics-test-{}-{name}", std::process::id()));
        let (recorder, log) = Recorder::memory();
        build(&recorder);
        recorder.flush();
        std::fs::write(&path, log.text()).unwrap();
        path
    }

    fn run_stdin(args: &[&str], stdin: &str) -> (Result<(), i32>, String) {
        let args: Vec<String> = std::iter::once("metrics")
            .chain(args.iter().copied())
            .map(str::to_string)
            .collect();
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let code = crate::run_with_input(&args, &mut stdin.as_bytes(), &mut out, &mut err);
        let result = if code == 0 { Ok(()) } else { Err(code) };
        (result, String::from_utf8(out).unwrap())
    }

    fn run(args: &[&str]) -> (Result<(), i32>, String) {
        run_stdin(args, "")
    }

    fn memory_log(build: impl Fn(&Recorder)) -> String {
        let (recorder, log) = Recorder::memory();
        build(&recorder);
        recorder.flush();
        log.text()
    }

    #[test]
    fn summarize_folds_files_and_groups() {
        let a = write_log("fold-a", |r| r.count("campaign", "cases_executed", 3));
        let b = write_log("fold-b", |r| r.count("campaign", "cases_executed", 4));
        let args = format!("{},{}", a.display(), b.display());
        let (result, out) = run(&["summarize", &args]);
        assert!(result.is_ok());
        assert!(out.contains("campaign/cases_executed 7"), "{out}");
        let _ = std::fs::remove_file(a);
        let _ = std::fs::remove_file(b);
    }

    #[test]
    fn summarize_reads_stdin() {
        let text = memory_log(|r| r.count("campaign", "cases_executed", 9));
        let (result, out) = run_stdin(&["summarize", "-"], &text);
        assert!(result.is_ok(), "{out}");
        assert!(out.contains("campaign/cases_executed 9"), "{out}");
    }

    #[test]
    fn check_compares_stdin_against_a_file() {
        let a = write_log("check-stdin", |r| r.count("campaign", "divergences", 1));
        let text = memory_log(|r| r.count("campaign", "divergences", 1));
        let a_str = a.display().to_string();
        let (result, out) = run_stdin(&["summarize", "--check", &a_str, "-"], &text);
        assert!(result.is_ok(), "{out}");
        assert!(out.contains("identical across 2 runs"), "{out}");
        let different = memory_log(|r| r.count("campaign", "divergences", 5));
        let (result, _) = run_stdin(&["summarize", "--check", &a_str, "-"], &different);
        assert_eq!(result, Err(3));
        let _ = std::fs::remove_file(a);
    }

    #[test]
    fn check_accepts_identical_and_rejects_different() {
        let a = write_log("check-a", |r| r.count("campaign", "divergences", 1));
        let b = write_log("check-b", |r| r.count("campaign", "divergences", 1));
        let c = write_log("check-c", |r| r.count("campaign", "divergences", 2));
        let a_str = a.display().to_string();
        let b_str = b.display().to_string();
        let c_str = c.display().to_string();
        let (result, out) = run(&["summarize", "--check", &a_str, &b_str]);
        assert!(result.is_ok(), "{out}");
        assert!(out.contains("identical across 2 runs"), "{out}");
        let (result, _) = run(&["summarize", "--check", &a_str, &c_str]);
        assert_eq!(result, Err(3));
        for p in [a, b, c] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn trace_export_writes_chrome_trace_json() {
        let text = memory_log(|r| {
            drop(r.span("campaign", "case"));
            r.mark("shard", "run", None);
        });
        let (result, out) = run_stdin(&["trace-export", "-"], &text);
        assert!(result.is_ok(), "{out}");
        assert!(out.starts_with("{\"traceEvents\":["), "{out}");
        assert!(out.contains("\"ph\":\"B\""), "{out}");
        assert!(out.contains("\"ph\":\"E\""), "{out}");
        assert!(out.contains("\"ph\":\"i\""), "{out}");
    }

    #[test]
    fn trace_export_to_a_file() {
        let log = write_log("trace-file", |r| drop(r.span("campaign", "case")));
        let out_path = std::env::temp_dir().join(format!(
            "asim-metrics-test-{}-trace.json",
            std::process::id()
        ));
        let log_str = log.display().to_string();
        let out_str = out_path.display().to_string();
        let (result, out) = run(&["trace-export", &log_str, "--out", &out_str]);
        assert!(result.is_ok(), "{out}");
        assert!(out.is_empty(), "{out}");
        let written = std::fs::read_to_string(&out_path).unwrap();
        assert!(written.contains("\"traceEvents\""), "{written}");
        let _ = std::fs::remove_file(log);
        let _ = std::fs::remove_file(out_path);
    }

    #[test]
    fn group_flag_equals_comma_syntax() {
        let a = write_log("group-a", |r| r.count("campaign", "cases_executed", 3));
        let b = write_log("group-b", |r| r.count("campaign", "cases_executed", 4));
        let c = write_log("group-c", |r| r.count("campaign", "cases_executed", 7));
        let (a_str, b_str, c_str) = (
            a.display().to_string(),
            b.display().to_string(),
            c.display().to_string(),
        );

        // `--group a b` is one folded run, same as the comma syntax —
        // but without comma-in-filename ambiguity.
        let comma = format!("{a_str},{b_str}");
        let (result, comma_out) = run(&["summarize", "--check", &comma, &c_str]);
        assert!(result.is_ok(), "{comma_out}");
        let (result, group_out) = run(&[
            "summarize",
            "--check",
            "--group",
            &a_str,
            &b_str,
            "--group",
            &c_str,
        ]);
        assert!(result.is_ok(), "{group_out}");
        assert_eq!(comma_out, group_out, "the two spellings fold identically");

        // Plain summarize accepts --group too.
        let (result, out) = run(&["summarize", "--group", &a_str, &b_str]);
        assert!(result.is_ok(), "{out}");
        assert!(out.contains("campaign/cases_executed 7"), "{out}");

        // A group that folds to a different total still fails the check.
        let (result, _) = run(&["summarize", "--check", "--group", &a_str, "--group", &c_str]);
        assert_eq!(result, Err(3));
        for p in [a, b, c] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn trace_export_merges_sources_onto_labelled_tracks() {
        let w1 = write_log("trace-w1", |r| {
            drop(r.span("campaign", "case"));
            r.mark("fleet", "lease", None);
        });
        let w2 = write_log("trace-w2", |r| drop(r.span("campaign", "case")));
        let (w1_str, w2_str) = (w1.display().to_string(), w2.display().to_string());
        let (result, out) = run(&["trace-export", &w1_str, &w2_str]);
        assert!(result.is_ok(), "{out}");
        // One Chrome trace, one named process track per source file.
        assert!(out.starts_with("{\"traceEvents\":["), "{out}");
        assert!(out.contains("process_name"), "{out}");
        assert!(out.contains(&w1_str) && out.contains(&w2_str), "{out}");
        let (result, again) = run(&["trace-export", &w1_str, &w2_str]);
        assert!(result.is_ok());
        assert_eq!(out, again, "merged trace is deterministic");
        let _ = std::fs::remove_file(w1);
        let _ = std::fs::remove_file(w2);
    }

    #[test]
    fn flight_pretty_prints_a_sidecar() {
        let text = memory_log(|r| {
            r.count("vm", "steps", 5);
            r.mark(
                "flight",
                "trigger",
                Some("case 3 (seed 9): diverged at cycle 40 (reg r2)"),
            );
        });
        let (result, out) = run_stdin(&["flight", "-"], &text);
        assert!(result.is_ok(), "{out}");
        assert!(out.contains("flight recorder: 2 event(s)"), "{out}");
        assert!(out.contains("counter vm/steps +5"), "{out}");
        assert!(
            out.contains("trigger: case 3 (seed 9): diverged at cycle 40 (reg r2)"),
            "{out}"
        );

        // An empty log is an error, not a silent no-op.
        let (result, _) = run_stdin(&["flight", "-"], "");
        assert_eq!(result, Err(2));
    }

    #[test]
    fn usage_errors() {
        assert_eq!(run(&[]).0, Err(1));
        assert_eq!(run(&["summarize"]).0, Err(1));
        assert_eq!(run(&["summarize", "--check", "one.jsonl"]).0, Err(1));
        assert_eq!(run(&["summarize", "--bogus", "x"]).0, Err(1));
        assert_eq!(run(&["frobnicate", "x"]).0, Err(1));
        assert_eq!(run(&["trace-export"]).0, Err(1));
        // Two FILEs is a multi-source export now; the missing files are
        // load errors, not a usage error.
        assert_eq!(run(&["trace-export", "a", "b"]).0, Err(2));
        assert_eq!(run(&["trace-export", "a", "--bogus"]).0, Err(1));
        assert_eq!(run(&["trace-export", "-", "-"]).0, Err(1));
        assert_eq!(run(&["summarize", "--group"]).0, Err(1));
        assert_eq!(run(&["summarize", "a.jsonl", "--group"]).0, Err(1));
        assert_eq!(run(&["flight"]).0, Err(1));
        assert_eq!(run(&["flight", "a", "b"]).0, Err(1));
        assert_eq!(run(&["flight", "--bogus", "a"]).0, Err(1));
    }

    #[test]
    fn corrupt_logs_exit_2() {
        let path = std::env::temp_dir().join(format!(
            "asim-metrics-test-{}-corrupt.jsonl",
            std::process::id()
        ));
        std::fs::write(&path, "not json\n").unwrap();
        let path_str = path.display().to_string();
        assert_eq!(run(&["summarize", &path_str]).0, Err(2));
        assert_eq!(run(&["trace-export", &path_str]).0, Err(2));
        let _ = std::fs::remove_file(path);
    }
}
