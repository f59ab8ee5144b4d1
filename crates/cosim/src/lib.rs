//! # rtl-cosim — differential co-simulation and scenario fuzzing
//!
//! The [`Engine`](rtl_core::Engine) contract promises that the
//! interpreter, the bytecode VM and the generated simulators are
//! observationally identical. This crate is the subsystem that *enforces*
//! the promise:
//!
//! * [`lockstep`] — drives N engines over the same design and stimulus,
//!   every lane a [`Session`](rtl_core::Session), compared per interval
//!   by a pluggable [`Comparator`] set
//!   (trace bytes, cycle counters, outputs, memory cells, VCD waveform
//!   samples — see [`rtl_core::observe`]). On mismatch it produces a
//!   structured [`DivergenceReport`] pinpointing the first divergent
//!   cycle and component, with a trace window per engine. Comparison can
//!   run at a coarse interval (`compare_every`); the harness then rewinds
//!   the lanes through [`Engine::snapshot`](rtl_core::Engine::snapshot)/
//!   [`restore`](rtl_core::Engine::restore) and bisects to the exact
//!   cycle. A long case can also stop and restart mid-run through the
//!   [`Lockstep::checkpoint`]/[`Lockstep::resume`] document, kept in a
//!   [`CheckpointStore`].
//! * [`engines`] — assembles the *default* core
//!   [`EngineRegistry`](rtl_core::EngineRegistry): `interp`,
//!   `interp-faithful`, `vm`, `vm-noopt`, the `rust` generated-binary
//!   subprocess lane, and the deliberately broken `vm-fault` self-test
//!   lane ([`fault`]). Every lane is named by its registry name.
//! * [`stream`] — drives scenarios across registry lanes by name,
//!   comparing stream lanes (subprocess stdout) against the stepped
//!   lanes' agreed trace. A [`Harness`] builds a design's lanes once and
//!   runs them as often as a caller needs (a shrink's probes), each run
//!   from cycle 0.
//! * [`generate`] — seeded, deterministic fuzz cases from
//!   [`rtl_machines::synth::generate`]: valid random specifications
//!   *plus stimulus scripts* (memory-mapped input included), so lockstep
//!   doubles as a fuzzer.
//! * [`fuzz`] — the fuzz campaign driver and its structured report.
//! * [`corpus`] — runs the whole built-in
//!   [`rtl_machines::scenarios`] corpus through lockstep.
//! * [`digest`] — per-interval observation-fingerprint streams: export a
//!   reference lane's digests and replay them on another machine as a
//!   [`DigestLane`] comparison lane — cross-shard lockstep at 8 bytes
//!   per interval.
//! * [`wavedump`] — waveform-diff reporting: the divergent window of
//!   each lane rendered as side-by-side VCD documents.
//!
//! ```
//! use rtl_cosim::{registry, run_scenario_names, CosimOptions, CosimOutcome};
//! let scenario = rtl_machines::scenarios::by_name("classic/counter").unwrap();
//! let lanes = ["interp".to_string(), "vm".to_string()];
//! let outcome =
//!     run_scenario_names(registry(), &lanes, &scenario, &CosimOptions::default()).unwrap();
//! assert!(matches!(outcome, CosimOutcome::Agreement { .. }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod digest;
pub mod engines;
pub mod fault;
pub mod fuzz;
pub mod generate;
pub mod lockstep;
mod report;
pub mod stream;
pub mod wavedump;

pub use corpus::{run_corpus_names, CorpusReport};
pub use digest::{DigestLane, DigestLog, DigestRecorder};
pub use engines::{default_registry, registry};
pub use fault::{FaultyVmFactory, DEFAULT_FAULT_CYCLE};
pub use fuzz::{run_fuzz, run_fuzz_case, FuzzOptions, FuzzReport};
pub use generate::{generate_case, generate_scenario, GenOptions, GeneratedCase};
pub use lockstep::{
    CheckpointFiles, CheckpointStore, Checkpoints, CosimOptions, CosimOutcome, DivergenceReport,
    Lockstep,
};
pub use report::ScenarioResult;
pub use rtl_core::observe::{Comparator, CompareMode, DivergenceKind, LaneReport, LaneStats};
pub use stream::{run_design_names, run_scenario_names, Harness, ScenarioError};
