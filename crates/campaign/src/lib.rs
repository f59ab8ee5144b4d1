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
//! * [`caselog`] — every case artifact and corpus entry as a
//!   kind-tagged, checksummed frame in one append-only log per writer,
//!   read back by one scan and compacted into one canonical case log
//!   and one corpus log.
//! * [`checkpoint`] — a long case's mid-run lockstep checkpoints, as
//!   frames of its worker's log.
//! * [`bundle`] — one case's artifacts (record, profile, flight log, the
//!   corpus entry it names) read, checked and published as one unit, in
//!   one append.
//! * [`shrink`] — binary-search minimization over generator size, cycle
//!   horizon and stimulus length, re-running lockstep per candidate.
//! * [`corpus`] — `.asim` + stimulus + a fingerprinted session checkpoint
//!   per entry, one log frame each, deduplicated by fingerprint;
//!   [`replay_corpus`] is the CI gate.
//! * [`runner`] — the pool itself, over a campaign directory or
//!   streaming each case's bundle to its caller ([`run_streamed`]),
//!   plus [`CampaignReport`].
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
pub mod checkpoint;
pub mod config;
pub mod corpus;
pub mod error;
pub mod json;
pub mod runner;
pub mod shrink;
pub mod state;

pub use bundle::{BundleEntry, CaseBundle, CorpusFiles};
pub use caselog::{Frames, LogWriter};
pub use checkpoint::{CaseCheckpoint, LogCheckpoints, CASE_CHECKPOINT_EVERY};
pub use config::CampaignConfig;
pub use corpus::{Archive, CorpusEntry, CorpusIndex, ReplayOutcome, ReplayReport, ReplayResult};
pub use error::CampaignError;
// The `rust` lane's compiled-binary cache, which a streamed run is
// handed.
pub use rtl_compile::BinaryCache;
// The `vm-fault` lane: deliberate trace corruption that proves the
// find→shrink→archive→replay pipeline end to end.
pub use rtl_cosim::fault::{FaultyVmFactory, DEFAULT_FAULT_CYCLE};
pub use runner::{
    aggregate_lanes, campaign_registry, fold_profiles, replay_corpus, resume, run, run_streamed,
    CampaignReport, LaneTotals, NoProgress, Progress, RunOptions,
};
pub use shrink::{shrink_divergence, shrink_from, Shrunk};
pub use state::{CampaignDir, CaseRecord, CaseStatus, LaneAccess};
