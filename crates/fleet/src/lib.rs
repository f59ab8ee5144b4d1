//! # rtl-fleet — the live campaign control plane
//!
//! `rtl-dist` scales a campaign across machines that share nothing, but
//! its shards are static: someone partitions the case range up front,
//! carries directories around, and merges at the end. This crate replaces
//! that with a *live* control plane — one long-running **controller**
//! that owns the campaign directory and streams **leases** (contiguous
//! case ranges with deadlines) to networked **workers** over a versioned
//! TCP protocol — while keeping the property the whole stack is built on:
//! the finished campaign directory is **byte-identical** to what a
//! single-machine `campaign run` would have produced.
//!
//! The determinism argument is the same as everywhere else in the
//! workspace: a case's outcome (its record, its profile and flight log,
//! its shrunk corpus entry) is a pure function of `(config, index)`, so it
//! does not matter *which* worker executes it, *when*, or *how many
//! times* — the controller checks each case's bundle against the
//! campaign configuration, publishes it atomically in the shared commit
//! order, and deduplicates corpus entries by scenario fingerprint, all
//! through the same [`CaseBundle`](rtl_campaign::CaseBundle) code a shard
//! merge uses.
//!
//! The moving pieces:
//!
//! - [`protocol`] — `asim2-fleet v1`: newline-delimited compact-JSON
//!   frames, a typed [`Message`] set, and a refusal
//!   matrix with byte-stable error frames (wrong protocol version, wrong
//!   token, drifted manifest fingerprint, duplicate worker name).
//! - [`controller`] — [`Controller::serve`](controller::Controller):
//!   lease dispatch, heartbeat tracking, expiry + reassignment on worker
//!   death, checked publication of case bundles (record, profile,
//!   flight log, corpus entry) and telemetry into the standard campaign
//!   layout.
//! - [`worker`] — [`work`]: runs each lease on the `rtl-campaign` pool
//!   via `RunOptions.case_range` and streams every case bundle to the
//!   controller byte-verbatim as the case finishes — profile,
//!   flight-recorder log, corpus entry, record — writing no log of its
//!   own; and, when the controller records, its full local telemetry
//!   log (`events` frames the controller folds into one campaign-wide
//!   metrics stream).
//! - [`status`] — [`StatusClient`]: a read-only `role: "status"`
//!   handshake and the `asim2-fleet-status v1` live status document,
//!   for watching a campaign without joining it.
//!
//! Work-stealing falls out of the lease loop: a fast worker simply asks
//! again sooner, and a dead worker's lease expires back into the pool.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod error;
pub mod protocol;
pub mod status;
pub mod worker;

pub use controller::{Controller, ControllerOptions, FleetProgress, NoFleetProgress};
pub use error::FleetError;
pub use protocol::{Message, Refusal, MAX_FRAME, PROTOCOL};
pub use status::{StatusClient, STATUS_FORMAT};
pub use worker::{work, WorkerOptions, WorkerReport};
