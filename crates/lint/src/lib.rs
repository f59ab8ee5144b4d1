//! `rtl-lint` — static semantic analysis of ASIM II specifications.
//!
//! Every spec the system touches (shipped machine specs, registry
//! scenarios, fuzz-generated designs in million-case campaigns) was
//! previously validated only by *running* it. This crate is the static
//! tier in front of execution:
//!
//! * [`Diagnostic`]/[`Report`] — span-carrying findings with
//!   deterministic ordering and text + JSON renderers (`asim2 lint`,
//!   format [`JSON_FORMAT`], built on the shared `rtl_obs::json` codec).
//! * [`LintPass`] — an open trait with ~10 shipped passes
//!   ([`default_passes`]): multi-driver races, combinational cycles with
//!   the full path, width truncation and constant overflow, dead and
//!   duplicate selector arms, constant out-of-range selects and
//!   addresses, undriven-read/unused-write/trace-undriven memory usage.
//! * [`lint_source`]/[`lint_spec`]/[`lint_design`] — the pipeline: parse,
//!   elaborate, run spec-level and design-level passes, and promote
//!   elaboration errors the passes did not already explain into coded
//!   diagnostics.
//! * [`StaticClaims`]/[`OracleComparator`] — dynamic cross-validation:
//!   the analyzer's sound claims (dead arms, undriven cells) checked
//!   against the running simulator through the cosim `Comparator` seam.
//!   A disagreement is a bug in the analyzer or the simulator, and the
//!   differential harness finds which.
//!
//! ```
//! let report = rtl_lint::lint_source(
//!     "# demo\nc bit x .\nM c 0 c 1 2\nA bit 12 c 1\nS x bit 5 6 7 .\n",
//! );
//! let codes: Vec<&str> =
//!     report.diagnostics().iter().map(|d| d.code).collect();
//! // bit = (c == 1) is 0 or 1, so arm 2 of selector x can never fire.
//! assert_eq!(codes, ["dead-arm"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod oracle;
pub mod passes;

pub use diag::{render_json_document, Diagnostic, Report, Severity, JSON_FORMAT};
pub use oracle::{OracleComparator, StaticClaims};
pub use passes::{default_passes, DeadArmReason, LintContext, LintPass};

use rtl_core::{Design, ElabError};
use rtl_lang::{Span, Spec};

/// Lints source text: parse errors become a single `parse-error`
/// diagnostic; otherwise the full [`lint_spec`] pipeline runs.
pub fn lint_source(source: &str) -> Report {
    match rtl_lang::parse(source) {
        Ok(spec) => lint_spec(&spec),
        Err(e) => Report::new(vec![Diagnostic::new(
            "parse-error",
            Severity::Error,
            e.span,
            e.kind.to_string(),
        )]),
    }
}

/// Lints a spec: elaborates it, runs every shipped pass (design-level
/// ones only when elaboration succeeds), and promotes an elaboration
/// error into a coded diagnostic if no pass already reported one.
/// Findings are told apart by their spans ([`Report::new`]): the parser
/// and `SpecBuilder` give every node its own.
pub fn lint_spec(spec: &Spec) -> Report {
    lint(spec, Design::elaborate(spec).as_ref())
}

/// Lints an elaborated design through the spec it keeps
/// ([`Design::spec`]), with no second elaboration.
pub fn lint_design(design: &Design) -> Report {
    lint(design.spec(), Ok(design))
}

fn lint(spec: &Spec, elaborated: Result<&Design, &ElabError>) -> Report {
    let widths = elaborated.map_or_else(|_| Vec::new(), rtl_core::width::infer);
    let cx = LintContext {
        spec,
        design: elaborated.ok(),
        widths: &widths,
        bounds: &passes::exact_bounds(spec),
    };
    let mut out = Vec::new();
    for pass in default_passes() {
        pass.run(&cx, &mut out);
    }
    if let Err(e) = elaborated {
        // The spec-level passes re-derive most elaboration errors with
        // richer detail; promote only when none of them fired, so the
        // load failure is never silent (TooManyCells is the one variant
        // no pass covers).
        if !out.iter().any(|d| d.severity == Severity::Error) {
            out.push(promote(spec, e));
        }
    }
    Report::new(out)
}

/// Maps an [`ElabError`] onto the lint code space, recovering a span from
/// the spec for the variants that do not carry one.
fn promote(spec: &Spec, error: &ElabError) -> Diagnostic {
    let at = |name: &str| {
        spec.components
            .iter()
            .find(|c| c.name.as_str() == name)
            .map_or_else(Span::default, |c| c.span)
    };
    match error {
        ElabError::ComponentNotFound { span, .. } => {
            Diagnostic::new("unknown-name", Severity::Error, *span, error.to_string())
        }
        ElabError::DuplicateComponent { span, .. } => {
            Diagnostic::new("multi-driver", Severity::Error, *span, error.to_string())
        }
        ElabError::TooManyBits { span, .. } => {
            Diagnostic::new("too-many-bits", Severity::Error, *span, error.to_string())
        }
        ElabError::CircularDependency { members } => Diagnostic::new(
            "comb-cycle",
            Severity::Error,
            members.first().map_or_else(Span::default, |m| at(m)),
            error.to_string(),
        ),
        ElabError::TracedUndefined { span, .. } => Diagnostic::new(
            "traced-undefined",
            Severity::Error,
            *span,
            error.to_string(),
        ),
        ElabError::TooManyCells { name, .. } => Diagnostic::new(
            "too-many-cells",
            Severity::Error,
            at(name),
            error.to_string(),
        ),
    }
}

/// Every diagnostic code the shipped passes and the pipeline can emit,
/// sorted — the vocabulary for `--allow`, documentation, and the
/// `lint/<code>` campaign counters.
pub fn all_codes() -> Vec<&'static str> {
    let mut codes = vec!["parse-error", "too-many-cells"];
    for pass in default_passes() {
        codes.extend_from_slice(pass.codes());
    }
    codes.sort_unstable();
    codes.dedup();
    codes
}
