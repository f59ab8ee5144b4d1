//! # rtl-dist — distributed verification campaigns
//!
//! `rtl-campaign` scales verification across *cores*; this crate scales
//! it across *machines that share nothing*. A campaign becomes a
//! [`ShardPlan`] — a versioned, fingerprinted value that partitions the
//! case range so that case `i` keeps its global index and derived seed on
//! every machine — and each shard executes into a fully self-contained
//! directory ([`run_shard`]): its own `campaign.json`, `cases/`,
//! `corpus/`, `bin-cache/`, plus a `shard.json` marker tying it to the
//! plan. [`merge()`] folds the directories back into one canonical
//! campaign, checking and copying each case's bundle (record, profile,
//! flight log, corpus entry) byte-verbatim, deduplicating corpus entries by scenario
//! fingerprint, and refusing anything drifted or corrupt — so
//! the merged campaign is **bit-identical** to what one machine would
//! have produced, at any shard count.
//!
//! For cross-machine *lane* comparison without shipping traces, pair this
//! with [`rtl_cosim::digest`]: export a shard's reference-lane digest
//! stream (8 bytes per comparison interval) and replay it elsewhere as a
//! [`DigestLane`](rtl_cosim::DigestLane).
//!
//! ```
//! use rtl_campaign::{CampaignConfig, CampaignDir, NoProgress, RunOptions};
//! use rtl_cosim::GenOptions;
//! use rtl_dist::{merge, run_shard, ShardPlan};
//!
//! let root = std::env::temp_dir().join(format!("dist-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&root);
//! let config = CampaignConfig {
//!     cases: 4,
//!     generator: GenOptions { size: 8, cycles: 16, ..GenOptions::default() },
//!     ..CampaignConfig::default()
//! };
//! let plan = ShardPlan::partition(config, 2).unwrap();
//! let shards: Vec<_> = (0..2)
//!     .map(|i| {
//!         let dir = CampaignDir::new(root.join(format!("shard-{i}")));
//!         run_shard(&plan, i, &dir, &RunOptions::default(), &mut NoProgress).unwrap();
//!         dir.root().to_path_buf()
//!     })
//!     .collect();
//! let report = merge(&plan, &shards, &CampaignDir::new(root.join("merged"))).unwrap();
//! assert!(report.clean(), "{report}");
//! # let _ = std::fs::remove_dir_all(&root);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod merge;
pub mod plan;
pub mod shard;
pub mod verify;

pub use merge::{merge, merge_with};
pub use plan::{ShardPlan, ShardSpec};
pub use shard::{load_marker, run_shard, ShardReport, SHARD_FORMAT};
pub use verify::{check_record, expected_seed, parse_record};

/// Renders a fingerprint the way every asim2 manifest does.
pub(crate) fn fingerprint_hex(fp: u64) -> String {
    format!("{fp:016x}")
}
