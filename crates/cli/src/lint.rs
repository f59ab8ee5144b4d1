//! `asim2 lint` — static semantic analysis of ASIM II specifications.
//!
//! Lints any number of spec files through the `rtl-lint` pipeline.
//! Errors are always denied; warnings are denied under `--deny
//! warnings`; individual codes can be waived with `--allow CODE`
//! (repeatable). Output is the deterministic text format or the
//! `asim2-lint v1` JSON document (`--format json`). Exit codes follow
//! the tool-wide convention: 0 clean, 1 usage, 2 unreadable file, 3
//! denied findings.

use crate::{load_err, usage_err, Args, CliError};
use rtl_lint::Report;
use std::io::Write;

pub(crate) fn lint_cmd(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    if let Some(other) = args.values("--deny").into_iter().find(|v| *v != "warnings") {
        return Err(usage_err(format!(
            "--deny takes \"warnings\" (errors are always denied), got {other:?}"
        )));
    }
    let deny_warnings = args.has("--deny");
    let formats = args.values("--format");
    if let Some(other) = formats.iter().find(|f| !matches!(**f, "text" | "json")) {
        return Err(usage_err(format!(
            "--format takes text or json, got {other:?}"
        )));
    }
    let format = formats.last().copied().unwrap_or("text");
    if args.has("--codes") {
        for code in rtl_lint::all_codes() {
            let _ = writeln!(out, "{code}");
        }
        return Ok(());
    }
    let files = args.positionals();
    if files.is_empty() {
        return Err(usage_err("lint needs at least one FILE (or --codes)"));
    }
    let allow = args.values("--allow");
    let known = rtl_lint::all_codes();
    if let Some(bad) = allow.iter().find(|code| !known.contains(code)) {
        return Err(usage_err(format!(
            "--allow {bad}: unknown lint code (asim2 lint --codes lists them)"
        )));
    }

    let mut reports: Vec<(&str, Report)> = Vec::new();
    for file in &files {
        let source = std::fs::read_to_string(file)
            .map_err(|e| load_err(format!("cannot read {file}: {e}")))?;
        reports.push((file, rtl_lint::lint_source(&source).allow(&allow)));
    }

    let (mut errors, mut warnings) = (0, 0);
    for (_, report) in &reports {
        errors += report.errors();
        warnings += report.warnings();
    }
    match format {
        "json" => {
            let entries: Vec<(&str, &Report)> = reports.iter().map(|(f, r)| (*f, r)).collect();
            let _ = write!(out, "{}", rtl_lint::render_json_document(&entries));
        }
        _ => {
            for (file, report) in &reports {
                let _ = write!(out, "{}", report.render_text(file));
            }
            let _ = writeln!(
                out,
                "{} file(s) linted: {errors} error(s), {warnings} warning(s)",
                files.len()
            );
        }
    }
    let denied = errors + if deny_warnings { warnings } else { 0 };
    if denied > 0 {
        Err(CliError {
            code: 3,
            message: format!("lint denied {denied} finding(s)"),
        })
    } else {
        Ok(())
    }
}
