//! Span-carrying diagnostics and their renderers.
//!
//! A [`Diagnostic`] is one finding: a stable code, a severity, the source
//! span it anchors to, a message, and optional notes pointing at related
//! locations. A [`Report`] is the sorted, deduplicated set of findings for
//! one specification; its ordering is deterministic (span, then code, then
//! message), so two lint runs over the same source render byte-identical
//! output in both the text and JSON formats.

use rtl_lang::Span;
use rtl_obs::json::Json;
use std::fmt::Write as _;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but runnable; denied only under `--deny warnings`.
    Warning,
    /// Ill-formed or guaranteed to fail at runtime; always denied.
    Error,
}

impl Severity {
    /// The lowercase label used in renderers (`warning` / `error`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable kebab-case code (`dead-arm`, `multi-driver`, ...); also the
    /// `lint/<code>` counter key in campaign telemetry.
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Source location the finding anchors to.
    pub span: Span,
    /// One-line description of the finding.
    pub message: String,
    /// Related locations or context, one line each.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A new diagnostic with no notes.
    pub fn new(
        code: &'static str,
        severity: Severity,
        span: Span,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            span,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    /// Adds a note line (builder style).
    #[must_use]
    pub fn note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// The deterministic ordering key: span start, span end, code, message.
    fn key(&self) -> (u32, u32, u32, u32, &'static str, &str) {
        (
            self.span.start.line,
            self.span.start.col,
            self.span.end.line,
            self.span.end.col,
            self.code,
            &self.message,
        )
    }
}

/// The findings for one linted specification, in deterministic order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Builds a report: sorts by (span, code, message) and drops exact
    /// duplicates, making rendering deterministic.
    ///
    /// Two findings with the same code and message at the same span are
    /// one finding, so counts rest on every node having its own span (see
    /// [`lint_spec`](crate::lint_spec)).
    pub fn new(mut diagnostics: Vec<Diagnostic>) -> Report {
        diagnostics.sort_by(|a, b| a.key().cmp(&b.key()));
        diagnostics.dedup();
        Report { diagnostics }
    }

    /// The findings, sorted.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// `true` when there are no findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.count_of(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.count_of(Severity::Warning)
    }

    fn count_of(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Drops findings whose code is in `allowed` (the CLI `--allow CODE`
    /// escape hatch).
    #[must_use]
    pub fn allow(&self, allowed: &[&str]) -> Report {
        Report {
            diagnostics: self
                .diagnostics
                .iter()
                .filter(|d| !allowed.contains(&d.code))
                .cloned()
                .collect(),
        }
    }

    /// Per-code finding counts, sorted by code — the shape fed into the
    /// deterministic `lint/<code>` campaign counters.
    pub fn counts(&self) -> Vec<(&'static str, u64)> {
        let mut counts: Vec<(&'static str, u64)> = Vec::new();
        for d in &self.diagnostics {
            match counts.iter_mut().find(|(code, _)| *code == d.code) {
                Some((_, n)) => *n += 1,
                None => counts.push((d.code, 1)),
            }
        }
        counts.sort_by_key(|&(code, _)| code);
        counts
    }

    /// Renders the findings as `file:line:col: severity[code]: message`
    /// lines with indented notes — the `asim2 lint` text format.
    pub fn render_text(&self, file: &str) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(
                out,
                "{file}:{}:{}: {}[{}]: {}",
                d.span.start.line, d.span.start.col, d.severity, d.code, d.message
            );
            for note in &d.notes {
                let _ = writeln!(out, "    note: {note}");
            }
        }
        out
    }

    /// One file entry of the JSON document. Fields: `file`, `errors`,
    /// `warnings`, `diagnostics` with per-finding `code`/`severity`/
    /// `line`/`col`/`end_line`/`end_col`/`message`/`notes`.
    pub fn to_json(&self, file: &str) -> Json {
        let diagnostics = self
            .diagnostics
            .iter()
            .map(|d| {
                Json::Obj(vec![
                    ("code".into(), Json::str(d.code)),
                    ("severity".into(), Json::str(d.severity.label())),
                    ("line".into(), Json::num(d.span.start.line)),
                    ("col".into(), Json::num(d.span.start.col)),
                    ("end_line".into(), Json::num(d.span.end.line)),
                    ("end_col".into(), Json::num(d.span.end.col)),
                    ("message".into(), Json::str(&d.message)),
                    (
                        "notes".into(),
                        Json::Arr(d.notes.iter().map(Json::str).collect()),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("file".into(), Json::str(file)),
            ("errors".into(), Json::num(self.errors())),
            ("warnings".into(), Json::num(self.warnings())),
            ("diagnostics".into(), Json::Arr(diagnostics)),
        ])
    }
}

/// The JSON document format line for `asim2 lint --format json`.
pub const JSON_FORMAT: &str = "asim2-lint v1";

/// Renders the full `asim2 lint --format json` document over any number
/// of (file, report) pairs. The document is deterministic: same inputs,
/// byte-identical output.
pub fn render_json_document(files: &[(&str, &Report)]) -> String {
    Json::Obj(vec![
        ("format".into(), Json::str(JSON_FORMAT)),
        (
            "files".into(),
            Json::Arr(
                files
                    .iter()
                    .map(|(file, report)| report.to_json(file))
                    .collect(),
            ),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtl_lang::{Pos, Span};

    fn span(line: u32, col: u32) -> Span {
        Span::point(Pos::new(line, col))
    }

    #[test]
    fn reports_sort_and_dedup() {
        let d1 = Diagnostic::new("b-code", Severity::Warning, span(2, 1), "later");
        let d2 = Diagnostic::new("a-code", Severity::Error, span(1, 5), "earlier");
        let report = Report::new(vec![d1.clone(), d2.clone(), d1.clone()]);
        assert_eq!(report.diagnostics(), &[d2, d1]);
        assert_eq!(report.errors(), 1);
        assert_eq!(report.warnings(), 1);
    }

    #[test]
    fn same_position_orders_by_code() {
        let d1 = Diagnostic::new("zz", Severity::Warning, span(1, 1), "m");
        let d2 = Diagnostic::new("aa", Severity::Warning, span(1, 1), "m");
        let report = Report::new(vec![d1.clone(), d2.clone()]);
        assert_eq!(report.diagnostics(), &[d2, d1]);
    }

    #[test]
    fn counts_fold_by_code() {
        let report = Report::new(vec![
            Diagnostic::new("dead-arm", Severity::Warning, span(1, 1), "a"),
            Diagnostic::new("dead-arm", Severity::Warning, span(2, 1), "b"),
            Diagnostic::new("addr-oob", Severity::Error, span(3, 1), "c"),
        ]);
        assert_eq!(report.counts(), vec![("addr-oob", 1), ("dead-arm", 2)]);
    }

    #[test]
    fn allow_filters_by_code() {
        let report = Report::new(vec![
            Diagnostic::new("dead-arm", Severity::Warning, span(1, 1), "a"),
            Diagnostic::new("addr-oob", Severity::Error, span(2, 1), "b"),
        ]);
        let filtered = report.allow(&["dead-arm"]);
        assert_eq!(filtered.diagnostics().len(), 1);
        assert_eq!(filtered.diagnostics()[0].code, "addr-oob");
    }

    #[test]
    fn text_rendering_carries_notes() {
        let report = Report::new(vec![Diagnostic::new(
            "multi-driver",
            Severity::Error,
            span(3, 1),
            "component x defined twice",
        )
        .note("first defined at line 2, col 1")]);
        let text = report.render_text("spec.asim");
        assert_eq!(
            text,
            "spec.asim:3:1: error[multi-driver]: component x defined twice\n    \
             note: first defined at line 2, col 1\n"
        );
    }

    #[test]
    fn json_escapes_special_characters() {
        let message = |m: &str| {
            let report = Report::new(vec![Diagnostic::new("c", Severity::Error, span(1, 1), m)]);
            render_json_document(&[("a.asim", &report)])
        };
        assert!(message("a\"b\\c\nd").contains("\"a\\\"b\\\\c\\nd\""));
        assert!(message("\u{1}").contains("\"\\u0001\""));
    }

    #[test]
    fn json_document_shape_is_stable() {
        let report = Report::new(vec![Diagnostic::new(
            "dead-arm",
            Severity::Warning,
            span(4, 2),
            "arm 3 can never fire",
        )]);
        let doc = render_json_document(&[("a.asim", &report)]);
        assert!(doc.contains("\"format\": \"asim2-lint v1\""), "{doc}");
        assert!(doc.contains("\"code\": \"dead-arm\""), "{doc}");
        let again = render_json_document(&[("a.asim", &report)]);
        assert_eq!(doc, again, "byte-identical across renders");
    }
}
