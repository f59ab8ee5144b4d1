//! Folding N shard directories back into one canonical campaign.
//!
//! The merge is deliberately boring: every case's
//! [bundle](rtl_campaign::bundle) — record, profile and flight frames
//! and the corpus entry the record names — is copied byte-verbatim (each
//! was produced deterministically from `(config, index)`, so the merged
//! tree is bit-identical to a single-machine run's), and the only
//! judgment it exercises is *refusal*. Drifted configurations, markers
//! from another plan, frames outside a shard's range, incomplete shards,
//! and any bundle that fails [`CaseBundle::check`] stop the merge before
//! anything is written. One scan of each shard's logs finds and checks
//! its bundles; then the kept corpus frames and every case's frames
//! stream into one canonical `corpus/corpus.log` and `cases/cases.log`,
//! each read back from its shard on the way. No corpus entry or sidecar
//! is held in memory. Corpus entries are deduplicated by
//! [`entry_fingerprint`](rtl_campaign::corpus), so overlapping regression
//! corpora collapse to one entry each.

use crate::plan::ShardPlan;
use crate::shard::load_marker;
use rtl_campaign::{CampaignDir, CampaignError, CampaignReport, CaseBundle, CaseRecord, Frames};
use rtl_core::Recorder;
use std::collections::{BTreeSet, HashSet};
use std::path::PathBuf;
use std::time::Instant;

/// Validates shard directories against `plan` and merges them into
/// `out` (which must not already hold a campaign): manifest, and every
/// case's bundle — record, profile and flight frames, and the corpus
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
/// bundle that fails its check (seed-mismatched record, corrupt profile,
/// flight log or corpus entry; the error names the file an export renders
/// it as), an already-occupied
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

    // Read and check every bundle before writing anything. Only the
    // parsed records, the fingerprint and name of each case's corpus
    // entry and where each frame lies stay in memory (sidecars and
    // corpus entries can be large).
    let cases = plan.config.cases as usize;
    let mut records: Vec<Option<CaseRecord>> = vec![None; cases];
    let mut named: Vec<Option<(u64, String)>> = vec![None; cases];
    let mut scans: Vec<Option<Frames>> = shard_dirs.iter().map(|_| None).collect();
    let mut ranges = vec![None; plan.shards.len()];
    for (shard, root) in shard_dirs.iter().enumerate() {
        let dir = CampaignDir::new(root);
        let config = dir.load()?;
        if config.fingerprint() != plan.config.fingerprint() {
            return Err(CampaignError::Config(format!(
                "{}: campaign configuration differs from the plan",
                root.display()
            )));
        }
        let spec = load_marker(&dir, plan)?;
        if ranges[spec.index as usize].is_some() {
            return Err(CampaignError::Config(format!(
                "shard {} appears more than once (second copy: {})",
                spec.index,
                root.display()
            )));
        }
        let range = spec.range();
        ranges[spec.index as usize] = Some((shard, range.clone()));
        let scanned = CaseBundle::read_range(&dir, range.clone(), |bundle| {
            // The same check the fleet controller runs on an upload. A
            // shard carries whichever sidecars it was run with.
            let (record, corpus_fp) = bundle
                .check(&plan.config, true, true)
                .map_err(|m| CampaignError::Corrupt(format!("{}/{m}", root.display())))?;
            let index = bundle.index as usize;
            named[index] = corpus_fp.zip(bundle.corpus.map(|entry| entry.name));
            records[index] = Some(record);
            Ok(())
        })?;
        if let Some(index) = scanned.indices().find(|index| !range.contains(index)) {
            return Err(CampaignError::Corrupt(format!(
                "{}: case {index} lies outside shard {}'s range {}..{}",
                root.display(),
                spec.index,
                spec.start,
                spec.end
            )));
        }
        if let Some(index) = range.clone().find(|&index| !scanned.contains(index)) {
            return Err(CampaignError::Config(format!(
                "{}: shard {} is missing case {index} — re-run it to completion \
                 before merging",
                root.display(),
                spec.index
            )));
        }
        scans[shard] = Some(scanned);
    }

    // Publish the canonical campaign. In plan order, the first case
    // naming a scenario keeps its corpus entry; then the kept corpus
    // frames and every case's frames stream into the canonical logs.
    out.init(&plan.config)?;
    let mut seen_corpus: HashSet<u64> = HashSet::new();
    let mut new_corpus = BTreeSet::new();
    let mut frames = Frames::default();
    for (shard, range) in ranges.into_iter().flatten() {
        let keep: BTreeSet<String> = named[range.start as usize..range.end as usize]
            .iter()
            .flatten()
            .filter(|(fp, _)| seen_corpus.insert(*fp))
            .map(|(_, name)| name.clone())
            .collect();
        let scanned = scans[shard].take().expect("every shard was scanned");
        frames.absorb(scanned, |name| keep.contains(name));
        new_corpus.extend(keep);
    }
    frames.write_canonical(out)?;
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
