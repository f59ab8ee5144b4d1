//! # rtl-campaign — parallel, resumable verification campaigns
//!
//! `rtl-cosim` proves engines agree on *one* scenario; this crate turns
//! that primitive into an industrial process. A **campaign** runs
//! thousands of fuzz cases across a work-stealing worker pool (one
//! [`EngineRegistry`](rtl_core::EngineRegistry) per worker, one derived
//! seed per case, so results are order-independent and bit-identical at
//! any worker count), records every case in a versioned on-disk state
//! that survives kills ([`state`]), and turns every divergence it finds
//! into a permanent asset: the case is [shrunk](shrink) to a minimal
//! reproduction and archived in a [`corpus`] of regression
//! scenarios that later campaigns and CI replay first.
//!
//! * [`config`] — the determinism contract: everything outcome-relevant,
//!   fingerprinted with the session-checkpoint hasher so a drifted resume
//!   is refused.
//! * [`state`] — `campaign.json` and the case records; stop the process
//!   anywhere, [`resume`] runs exactly the gaps.
//! * [`caselog`] — records and corpus entries as checksummed frames in
//!   per-worker append-only logs, compacted into one canonical log each.
//! * [`bundle`] — one case's artifacts (record, sidecars, the corpus
//!   entry it names) read, checked and published as one unit, in the one
//!   commit order every surface shares.
//! * [`shrink`] — binary-search minimization over generator size, cycle
//!   horizon and stimulus length, re-running lockstep per candidate.
//! * [`corpus`] — `.asim` + stimulus + a fingerprinted session checkpoint
//!   per entry, one log frame each, deduplicated by fingerprint;
//!   [`replay_corpus`] is the CI gate.
//! * [`runner`] — the pool itself, plus [`CampaignReport`].
//!
//! ```
//! use rtl_campaign::{run, CampaignConfig, CampaignDir, NoProgress, RunOptions};
//! use rtl_cosim::GenOptions;
//!
//! let root = std::env::temp_dir().join(format!("campaign-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&root);
//! let dir = CampaignDir::new(&root);
//! let config = CampaignConfig {
//!     cases: 4,
//!     generator: GenOptions { size: 8, cycles: 16, ..GenOptions::default() },
//!     ..CampaignConfig::default()
//! };
//! let report = run(
//!     &dir,
//!     &config,
//!     &RunOptions { workers: 2, ..RunOptions::default() },
//!     &mut NoProgress,
//! ).unwrap();
//! assert!(report.clean(), "{report}");
//! # let _ = std::fs::remove_dir_all(&root);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bundle;
pub mod caselog;
pub mod config;
pub mod corpus;
pub mod error;
pub mod json;
pub mod runner;
pub mod shrink;
pub mod state;

pub use bundle::{BundleEntry, CaseBundle, CorpusFiles};
pub use caselog::{CaseFrames, LogWriter};
pub use config::CampaignConfig;
pub use corpus::{
    Archive, CorpusEntry, CorpusFrames, CorpusIndex, ReplayOutcome, ReplayReport, ReplayResult,
};
pub use error::CampaignError;
// The `vm-fault` lane: deliberate trace corruption that proves the
// find→shrink→archive→replay pipeline end to end.
pub use rtl_cosim::fault::{FaultyVmFactory, DEFAULT_FAULT_CYCLE};
pub use runner::{
    aggregate_lanes, campaign_registry, fold_profiles, replay_corpus, resume, run, CampaignReport,
    LaneTotals, NoProgress, Progress, RunOptions, CASE_CHECKPOINT_EVERY,
};
pub use shrink::{shrink_divergence, shrink_from, Shrunk};
pub use state::{CampaignDir, CaseRecord, CaseStatus, LaneAccess};
