//! Executing one shard of a planned campaign into a self-contained
//! directory.
//!
//! A shard directory *is* a campaign directory — its own `campaign.json`
//! (carrying the plan's full configuration), `cases/`, `corpus/` and
//! `bin-cache/` — plus one extra file, `shard.json`, pinning which slice
//! of which plan it executes. Nothing in it references any other machine:
//! ship the plan file to N hosts, run one shard on each, and rsync the
//! directories back for [`merge`](crate::merge::merge). (When the hosts
//! can reach each other live, `rtl-fleet` replaces this static
//! plan/ship/merge cycle with leases streamed from a controller — same
//! byte-identical end state, no manual partitioning.)
//!
//! `run_shard` is kill-anywhere resumable for free: it rides the campaign
//! state layer's case record logs, so invoking it again on an
//! interrupted directory runs exactly the missing cases of the shard's
//! range (`--limit` and `--case-checkpoint` compose the same way they do
//! for `campaign run`). A completed shard compacts its logs into one
//! canonical `cases/cases.log`.

use crate::fingerprint_hex;
use crate::plan::{ShardPlan, ShardSpec};
use rtl_campaign::{CampaignDir, CampaignError, CampaignReport, CaseStatus, Progress, RunOptions};
use rtl_obs::json::Json;
use rtl_obs::write_atomic;

/// The shard marker format line; bump on breaking changes.
pub const SHARD_FORMAT: &str = "asim2-shard v1";

/// A shard run's result: the underlying campaign report, scoped to the
/// shard's range. The report does the counting; the shard is complete
/// when [`CampaignReport::completed`] reaches [`ShardSpec::cases`].
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// The slice this shard is responsible for.
    pub spec: ShardSpec,
    /// The campaign report over the *whole* case range; indices outside
    /// [`spec`](ShardReport::spec) are structurally `None`.
    pub report: CampaignReport,
}

impl std::fmt::Display for ShardReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "shard {}: cases {}..{} of {} (seed {}, engines [{}])",
            self.spec.index,
            self.spec.start,
            self.spec.end,
            self.report.config.cases,
            self.report.config.seed,
            self.report.config.engines.join(", "),
        )?;
        // A ranged resume leaves every record outside the shard's range
        // `None`, so the wrapped report counts exactly the shard's cases.
        let report = &self.report;
        for record in report.records.iter().flatten() {
            match &record.status {
                CaseStatus::Agreed => {}
                CaseStatus::Halted { detail } => writeln!(
                    f,
                    "  case {} (seed {}): halted after {} cycles: {detail}",
                    record.index, record.seed, record.cycles
                )?,
                CaseStatus::Error { detail } => writeln!(
                    f,
                    "  case {} (seed {}): harness error: {detail}",
                    record.index, record.seed
                )?,
                CaseStatus::Diverged { cycle, kind, .. } => writeln!(
                    f,
                    "  case {} (seed {}): DIVERGED at cycle {cycle} ({kind})",
                    record.index, record.seed
                )?,
            }
        }
        for totals in report.lane_totals() {
            writeln!(
                f,
                "lane {}: {} cases, {} cycles, {} accesses",
                totals.lane, totals.cases, totals.cycles, totals.accesses
            )?;
        }
        let done = report.completed();
        write!(
            f,
            "shard summary: {}/{done} agreed, {} diverged, {} cycles verified",
            report.agreed(),
            report.diverged(),
            report.cycles_verified(),
        )?;
        if done < self.spec.cases() {
            write!(
                f,
                " ({done}/{} cases done, re-run this shard to continue)",
                self.spec.cases()
            )?;
        }
        writeln!(f)
    }
}

/// The `shard.json` path inside a shard directory.
pub fn marker_path(dir: &CampaignDir) -> std::path::PathBuf {
    dir.root().join("shard.json")
}

fn marker_json(plan: &ShardPlan, spec: &ShardSpec) -> Json {
    Json::Obj(vec![
        ("format".into(), Json::str(SHARD_FORMAT)),
        (
            "plan".into(),
            Json::str(fingerprint_hex(plan.fingerprint())),
        ),
        ("shard".into(), Json::num(spec.index)),
        ("start".into(), Json::num(spec.start)),
        ("end".into(), Json::num(spec.end)),
    ])
}

/// Loads and validates a shard directory's marker against a plan,
/// returning the spec it claims.
///
/// # Errors
///
/// A missing/corrupt marker, or one written under a different plan.
pub fn load_marker(dir: &CampaignDir, plan: &ShardPlan) -> Result<ShardSpec, CampaignError> {
    let path = marker_path(dir);
    let corrupt = |m: String| CampaignError::Corrupt(format!("{}: {m}", path.display()));
    let text = std::fs::read_to_string(&path).map_err(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            CampaignError::Config(format!(
                "{} is not a shard directory (missing shard.json)",
                dir.root().display()
            ))
        } else {
            CampaignError::Io(e)
        }
    })?;
    let doc = Json::parse(&text).map_err(corrupt)?;
    match doc.get("format").and_then(Json::as_str) {
        Some(SHARD_FORMAT) => {}
        other => {
            return Err(corrupt(format!(
                "unsupported shard format {other:?} (expected {SHARD_FORMAT:?})"
            )))
        }
    }
    let stored = doc
        .get("plan")
        .and_then(Json::as_str)
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| corrupt("missing plan fingerprint".into()))?;
    if stored != plan.fingerprint() {
        return Err(CampaignError::Config(format!(
            "{} was created under a different shard plan",
            dir.root().display()
        )));
    }
    let num = |name: &str| {
        doc.get(name)
            .and_then(Json::as_u64)
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| corrupt(format!("missing numeric field {name:?}")))
    };
    let spec = ShardSpec {
        index: num("shard")?,
        start: num("start")?,
        end: num("end")?,
    };
    if plan.spec(spec.index) != Some(&spec) {
        return Err(CampaignError::Config(format!(
            "{}: shard {} range {}..{} is not in the plan",
            path.display(),
            spec.index,
            spec.start,
            spec.end
        )));
    }
    Ok(spec)
}

/// Runs (or resumes) shard `index` of `plan` in `dir`. A fresh directory
/// is initialized as a campaign under the plan's config plus a
/// `shard.json` marker; an existing one must have been created under the
/// *same* plan and shard index — then only its missing cases run, after
/// orphaned temp files are [swept](CampaignDir::sweep_orphans). Once the
/// shard's range is complete, its record logs are
/// [compacted](CampaignDir::compact). `options.case_range` is overwritten
/// with the shard's range.
///
/// # Errors
///
/// An unknown shard index, a directory from a different plan or shard,
/// drifted configuration, lane failures, or I/O.
pub fn run_shard(
    plan: &ShardPlan,
    index: u32,
    dir: &CampaignDir,
    options: &RunOptions,
    progress: &mut dyn Progress,
) -> Result<ShardReport, CampaignError> {
    let spec = plan.spec(index).ok_or_else(|| {
        CampaignError::Config(format!(
            "no shard {index} in the plan ({} shards)",
            plan.shards.len()
        ))
    })?;
    let _span = options.recorder.span("shard", "run");
    options
        .recorder
        .mark("shard", "run", Some(&format!("shard {index}")));
    dir.open(&plan.config)?;
    // The marker always lands before any case runs, so a directory with
    // no marker and no case records is either fresh or was killed between
    // init and the marker write: write the marker. A directory with case
    // records and no marker is a foreign campaign and stays refused.
    if !marker_path(dir).exists()
        && dir
            .load_cases(plan.config.cases)?
            .iter()
            .all(Option::is_none)
    {
        write_atomic(
            &marker_path(dir),
            marker_json(plan, spec).render().as_bytes(),
        )?;
    }
    let marked = load_marker(dir, plan)?;
    if marked.index != index {
        return Err(CampaignError::Config(format!(
            "{} executes shard {}, not shard {index}",
            dir.root().display(),
            marked.index
        )));
    }
    dir.sweep_orphans()?;
    let scoped = RunOptions {
        case_range: Some(spec.range()),
        ..options.clone()
    };
    let report = rtl_campaign::resume(dir, &scoped, progress)?;
    // The shard owns only its range: once that is complete, its record
    // logs compact into the canonical log.
    if report.completed() == spec.cases() {
        dir.compact(plan.config.cases)?;
    }
    Ok(ShardReport {
        spec: spec.clone(),
        report,
    })
}
