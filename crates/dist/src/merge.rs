//! Folding N shard directories back into one canonical campaign.
//!
//! The merge is deliberately boring: records are copied byte-verbatim
//! (they were produced deterministically from `(config, index)`, so the
//! merged `cases/` tree is bit-identical to a single-machine run's), and
//! the only judgment it exercises is *refusal* — drifted configurations,
//! markers from another plan, records outside a shard's range, records
//! whose seed contradicts the plan, and incomplete shards all stop the
//! merge before anything is written. Corpus entries are validated and
//! deduplicated by [`entry_fingerprint`](rtl_campaign::corpus), shards in
//! index order, so overlapping regression corpora collapse to one entry
//! each.

use crate::plan::ShardPlan;
use crate::shard::load_marker;
use rtl_campaign::{corpus, CampaignDir, CampaignError, CampaignReport, CaseRecord};
use rtl_core::Recorder;
use rtl_obs::write_atomic;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Validates shard directories against `plan` and merges them into
/// `out` (which must not already hold a campaign): manifest, verbatim
/// case records, and a deduplicated corpus. Directories may be passed in
/// any order; each plan shard must appear exactly once. Shard
/// `bin-cache/` directories are *not* merged — compiled binaries are a
/// cache, rebuilt on demand.
///
/// Returns the merged report — identical to what the equivalent
/// single-machine `campaign run` would have reported.
///
/// # Errors
///
/// Plan/directory mismatches, incomplete shards, out-of-range or
/// seed-mismatched records, corrupt corpus entries, an already-occupied
/// output directory, or I/O.
pub fn merge(
    plan: &ShardPlan,
    shard_dirs: &[PathBuf],
    out: &CampaignDir,
) -> Result<CampaignReport, CampaignError> {
    merge_with(plan, shard_dirs, out, &Recorder::disabled())
}

/// [`merge`] with a telemetry [`Recorder`]: counts merged case records
/// (`merge/records`) and deduplicated corpus entries
/// (`merge/corpus_entries`), and spans the whole merge (wall-clock).
///
/// # Errors
///
/// See [`merge`].
pub fn merge_with(
    plan: &ShardPlan,
    shard_dirs: &[PathBuf],
    out: &CampaignDir,
    recorder: &Recorder,
) -> Result<CampaignReport, CampaignError> {
    let started = Instant::now();
    let _span = recorder.span("merge", "merge");
    if shard_dirs.len() != plan.shards.len() {
        return Err(CampaignError::Config(format!(
            "the plan has {} shard(s), {} {} given",
            plan.shards.len(),
            shard_dirs.len(),
            if shard_dirs.len() == 1 {
                "directory"
            } else {
                "directories"
            }
        )));
    }

    // Pass 1: validate everything before writing anything.
    type Validated<'a> = (&'a Path, Vec<Option<CaseRecord>>);
    let mut by_index: Vec<Option<Validated<'_>>> = (0..plan.shards.len()).map(|_| None).collect();
    for root in shard_dirs {
        let dir = CampaignDir::new(root);
        let config = dir.load()?;
        if config.fingerprint() != plan.config.fingerprint() {
            return Err(CampaignError::Config(format!(
                "{}: campaign configuration differs from the plan",
                root.display()
            )));
        }
        let spec = load_marker(&dir, plan)?;
        if by_index[spec.index as usize].is_some() {
            return Err(CampaignError::Config(format!(
                "shard {} appears more than once (second copy: {})",
                spec.index,
                root.display()
            )));
        }
        let records = dir.load_cases(plan.config.cases)?;
        for (i, record) in records.iter().enumerate() {
            let index = i as u32;
            match record {
                Some(record) if !spec.range().contains(&index) => {
                    return Err(CampaignError::Corrupt(format!(
                        "{}: case {index} lies outside shard {}'s range {}..{}",
                        root.display(),
                        spec.index,
                        spec.start,
                        spec.end
                    )));
                }
                Some(record) => {
                    // Same invariants the fleet controller enforces on an
                    // uploaded record — one refusal surface, one message.
                    crate::verify::check_record(&plan.config, record)
                        .map_err(|m| CampaignError::Corrupt(format!("{}: {m}", root.display())))?;
                }
                None if spec.range().contains(&index) => {
                    return Err(CampaignError::Config(format!(
                        "{}: shard {} is missing case {index} — re-run it to completion \
                         before merging",
                        root.display(),
                        spec.index
                    )));
                }
                None => {}
            }
        }
        by_index[spec.index as usize] = Some((root.as_path(), records));
    }

    // Pass 2: write the canonical campaign.
    out.init(&plan.config)?;
    let mut merged: Vec<Option<CaseRecord>> = vec![None; plan.config.cases as usize];
    let mut seen_corpus: HashSet<u64> = HashSet::new();
    let mut new_corpus = Vec::new();
    for (slot, spec) in by_index.iter().zip(&plan.shards) {
        let (root, records) = slot.as_ref().expect("all shards matched in pass 1");
        let shard = CampaignDir::new(root);
        for index in spec.range() {
            // Byte-verbatim copy: the record file is the deterministic
            // artifact, so the merged tree diffs clean against a
            // single-machine run.
            let bytes = std::fs::read(shard.case_path(index))?;
            write_atomic(&out.case_path(index), &bytes)?;
            // Execution-profile sidecars (shards run with profiling)
            // ride along the same way: each is a pure function of
            // (config, index), so the merged fold stays bit-identical to
            // a single-machine profiled run.
            let profile = shard.profile_path(index);
            if profile.exists() {
                let bytes = std::fs::read(profile)?;
                write_atomic(&out.profile_path(index), &bytes)?;
            }
            merged[index as usize] = records[index as usize].clone();
        }
        // Corpus entries, validated on load (checkpoint recomputed) and
        // deduplicated across shards by scenario fingerprint.
        for entry in corpus::load_all(&shard.corpus())? {
            if !seen_corpus.insert(corpus::entry_fingerprint(&entry.scenario)) {
                continue;
            }
            for ext in ["asim", "stim", "ckpt", "json"] {
                let file = format!("{}.{ext}", entry.name);
                let bytes = std::fs::read(shard.corpus().join(&file))?;
                write_atomic(&out.corpus().join(&file), &bytes)?;
            }
            new_corpus.push(entry.name);
        }
    }
    new_corpus.sort();
    recorder.count("merge", "records", merged.iter().flatten().count() as u64);
    recorder.count("merge", "corpus_entries", new_corpus.len() as u64);
    Ok(CampaignReport {
        config: plan.config.clone(),
        replay: None,
        records: merged,
        new_corpus,
        elapsed: started.elapsed(),
    })
}
