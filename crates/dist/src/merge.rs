//! Folding N shard directories back into one canonical campaign.
//!
//! The merge is deliberately boring: every case's
//! [bundle](rtl_campaign::bundle) — record, sidecars and the corpus
//! entry the record names — is copied byte-verbatim (each was produced
//! deterministically from `(config, index)`, so the merged tree is
//! bit-identical to a single-machine run's), and the only judgment it
//! exercises is *refusal*. Drifted configurations, markers from another
//! plan, records outside a shard's range, incomplete shards, and any
//! bundle that fails [`CaseBundle::check`] stop the merge before
//! anything is written. The bundles are then read again (so memory holds
//! parsed records, not every sidecar) and published in the shared commit
//! order stated in [`rtl_campaign::bundle`]. Corpus entries are
//! deduplicated by [`entry_fingerprint`](rtl_campaign::corpus), so
//! overlapping regression corpora collapse to one entry each.

use crate::plan::ShardPlan;
use crate::shard::load_marker;
use rtl_campaign::{CampaignDir, CampaignError, CampaignReport, CaseBundle, CaseRecord};
use rtl_core::Recorder;
use std::collections::{BTreeSet, HashSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Validates shard directories against `plan` and merges them into
/// `out` (which must not already hold a campaign): manifest, and every
/// case's bundle — record, profile and flight sidecars, and the corpus
/// entry it names — with corpus entries deduplicated. Directories may be
/// passed in any order; each plan shard must appear exactly once. Shard
/// `bin-cache/` directories are *not* merged — compiled binaries are a
/// cache, rebuilt on demand.
///
/// Returns the merged report — identical to what the equivalent
/// single-machine `campaign run` would have reported.
///
/// # Errors
///
/// Plan/directory mismatches, incomplete shards, out-of-range records, a
/// bundle that fails its check (seed-mismatched record, corrupt sidecar
/// or corpus entry; the error names the file), an already-occupied
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

    // Pass 1: read and check every bundle before writing anything. Only
    // the parsed records stay in memory (sidecars can be large); pass 2
    // reads each bundle again to publish it.
    let cases = plan.config.cases as usize;
    let mut sources: Vec<Option<(&Path, Option<u64>)>> = vec![None; cases];
    let mut records: Vec<Option<CaseRecord>> = vec![None; cases];
    let mut seen_shards = vec![false; plan.shards.len()];
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
        if std::mem::replace(&mut seen_shards[spec.index as usize], true) {
            return Err(CampaignError::Config(format!(
                "shard {} appears more than once (second copy: {})",
                spec.index,
                root.display()
            )));
        }
        for index in 0..plan.config.cases {
            if !spec.range().contains(&index) {
                if dir.case_path(index).exists() {
                    return Err(CampaignError::Corrupt(format!(
                        "{}: case {index} lies outside shard {}'s range {}..{}",
                        root.display(),
                        spec.index,
                        spec.start,
                        spec.end
                    )));
                }
                continue;
            }
            let bundle = CaseBundle::read(&dir, index)?.ok_or_else(|| {
                CampaignError::Config(format!(
                    "{}: shard {} is missing case {index} — re-run it to completion \
                     before merging",
                    root.display(),
                    spec.index
                ))
            })?;
            // The same check the fleet controller runs on an upload. A
            // shard carries whichever sidecars it was run with.
            let (record, corpus_fp) = bundle
                .check(&plan.config, true, true)
                .map_err(|m| CampaignError::Corrupt(format!("{}/{m}", root.display())))?;
            sources[index as usize] = Some((root.as_path(), corpus_fp));
            records[index as usize] = Some(record);
        }
    }

    // Pass 2: publish the canonical campaign, in case order, so the first
    // case naming a scenario keeps its corpus entry.
    out.init(&plan.config)?;
    let mut seen_corpus: HashSet<u64> = HashSet::new();
    let mut new_corpus = BTreeSet::new();
    for (index, source) in sources.iter().enumerate() {
        let Some((root, corpus_fp)) = source else {
            continue;
        };
        let mut bundle =
            CaseBundle::read(&CampaignDir::new(root), index as u32)?.ok_or_else(|| {
                CampaignError::Corrupt(format!(
                    "{}: case {index} vanished during the merge",
                    root.display()
                ))
            })?;
        if corpus_fp.is_some_and(|fp| !seen_corpus.insert(fp)) {
            bundle.corpus = None;
        }
        bundle.publish(out)?;
        if let Some(entry) = &bundle.corpus {
            new_corpus.insert(entry.name.clone());
        }
    }
    recorder.count("merge", "records", records.iter().flatten().count() as u64);
    recorder.count("merge", "corpus_entries", new_corpus.len() as u64);
    Ok(CampaignReport {
        config: plan.config.clone(),
        replay: None,
        records,
        new_corpus: new_corpus.into_iter().collect(),
        elapsed: started.elapsed(),
    })
}
