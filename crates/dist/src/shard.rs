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
//! state layer's atomically-published case records, so invoking it again
//! on an interrupted directory runs exactly the missing cases of the
//! shard's range (`--limit` and `--case-checkpoint` compose the same way
//! they do for `campaign run`).

use crate::fingerprint_hex;
use crate::plan::{ShardPlan, ShardSpec};
use rtl_campaign::{CampaignDir, CampaignError, CampaignReport, CaseStatus, Progress, RunOptions};
use rtl_obs::json::Json;
use rtl_obs::write_atomic;

/// The shard marker format line; bump on breaking changes.
pub const SHARD_FORMAT: &str = "asim2-shard v1";

/// A shard run's result: the underlying campaign report, scoped to the
/// shard's range.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// The slice this shard is responsible for.
    pub spec: ShardSpec,
    /// The campaign report over the *whole* case range; indices outside
    /// [`spec`](ShardReport::spec) are structurally `None`.
    pub report: CampaignReport,
}

impl ShardReport {
    /// Records inside the shard's range, in index order.
    pub fn records(&self) -> impl Iterator<Item = &rtl_campaign::CaseRecord> {
        self.report.records[self.spec.start as usize..self.spec.end as usize]
            .iter()
            .flatten()
    }

    /// Completed cases in the shard's range.
    pub fn completed(&self) -> u32 {
        self.records().count() as u32
    }

    /// `true` when every case in the range has a record.
    pub fn complete(&self) -> bool {
        self.completed() == self.spec.cases()
    }

    /// Diverged cases in the shard's range.
    pub fn diverged(&self) -> u32 {
        self.records()
            .filter(|r| matches!(r.status, CaseStatus::Diverged { .. }))
            .count() as u32
    }

    /// Agreed cases in the shard's range.
    pub fn agreed(&self) -> u32 {
        self.records()
            .filter(|r| matches!(r.status, CaseStatus::Agreed))
            .count() as u32
    }

    /// Cycles verified in the shard's range.
    pub fn cycles_verified(&self) -> u64 {
        self.records().map(|r| r.cycles).sum()
    }

    /// `true` when the shard is complete and every case agreed.
    pub fn clean(&self) -> bool {
        self.complete() && self.agreed() == self.spec.cases()
    }
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
        for record in self.records() {
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
        for totals in rtl_campaign::aggregate_lanes(self.records().map(|r| &r.lane_stats[..])) {
            writeln!(
                f,
                "lane {}: {} cases, {} cycles, {} accesses",
                totals.lane, totals.cases, totals.cycles, totals.accesses
            )?;
        }
        write!(
            f,
            "shard summary: {}/{} agreed, {} diverged, {} cycles verified",
            self.agreed(),
            self.completed(),
            self.diverged(),
            self.cycles_verified(),
        )?;
        if !self.complete() {
            write!(
                f,
                " ({}/{} cases done, re-run this shard to continue)",
                self.completed(),
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
/// *same* plan and shard index — then only its missing cases run.
/// `options.case_range` is overwritten with the shard's range.
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
    if dir.manifest().exists() {
        // Resume path: the directory must belong to this plan and shard.
        let stored = dir.load()?;
        if stored.fingerprint() != plan.config.fingerprint() {
            return Err(CampaignError::Config(format!(
                "{} holds a campaign with a different configuration than the plan",
                dir.root().display()
            )));
        }
        // A kill between init and the marker write leaves a manifest with
        // no shard.json and — because the marker always lands before any
        // case runs — an empty cases/. That exact window is healed by
        // rewriting the marker; a directory with case records and no
        // marker is a foreign campaign and stays refused.
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
    } else {
        dir.init(&plan.config)?;
        write_atomic(
            &marker_path(dir),
            marker_json(plan, spec).render().as_bytes(),
        )?;
    }
    let scoped = RunOptions {
        case_range: Some(spec.range()),
        ..options.clone()
    };
    let report = rtl_campaign::resume(dir, &scoped, progress)?;
    Ok(ShardReport {
        spec: spec.clone(),
        report,
    })
}
