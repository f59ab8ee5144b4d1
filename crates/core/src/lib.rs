//! # rtl-core — semantics and elaboration for ASIM II designs
//!
//! This crate gives the ASIM II language its meaning:
//!
//! * the 31-bit word model and the fourteen ALU functions
//!   ([`word`]),
//! * name resolution and bit-field lowering ([`resolve`]),
//! * dependency analysis with precise circular-dependency diagnosis
//!   ([`graph`]),
//! * elaboration of a parsed [`Spec`](rtl_lang::Spec) into a simulatable
//!   [`Design`] ([`design`] — the cycle-semantics contract is documented
//!   there),
//! * the engine-agnostic simulation state ([`state`]), the trace as typed
//!   events and its one text rendering ([`trace`]), input abstraction
//!   ([`io`]) and the [`Engine`] trait that the interpreter and the
//!   compiled VM both implement,
//! * the driving layer: trace sinks ([`sink`]), the open engine registry
//!   ([`factory`]) and the [`Session`] API with structured stop reasons
//!   and on-disk checkpoints ([`session`]),
//! * the observation layer: [`Observation`] value snapshots and the open
//!   [`Comparator`] contract that differential harnesses plug into
//!   ([`observe`]),
//! * output-width inference for netlisting and codegen ([`width`]).
//!
//! ```
//! use rtl_core::Design;
//! let design = Design::from_source(
//!     "# a two component design\ncount* next .\n\
//!      M count 0 next 1 1\n\
//!      A next 4 count 1 .",
//! ).unwrap();
//! assert_eq!(design.comb_order().len(), 1);
//! assert_eq!(design.memories().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod design;
pub mod engine;
pub mod error;
pub mod factory;
pub mod graph;
pub mod io;
pub mod observe;
pub mod resolve;
pub mod session;
pub mod sink;
pub mod state;
pub mod stats;
pub mod trace;
pub mod vcd;
pub mod width;
pub mod word;

pub use design::{CompData, Design, ElabOptions, LoadError, RAlu, RKind, RMemory, RSelector};
pub use engine::{run_captured, Engine};
pub use error::{ElabError, SimError, Warning};
pub use factory::{EngineFactory, EngineLane, EngineOptions, EngineRegistry, StreamEngine};
pub use io::{InputSource, NoInput, ReaderInput, ScriptedInput};
pub use observe::{Comparator, CompareMode, DivergenceKind, LaneReport, LaneStats, Observation};
pub use resolve::{CompId, RExpr, RefMode, RefOp};
pub use rtl_obs::Recorder;
pub use rtl_prof::{CompMeta, LaneTally, Profile, ProfileHook};
pub use session::{
    design_fingerprint, read_checkpoint, write_checkpoint, Fingerprint, HaltKind, RunOutcome,
    Session, SessionBuilder, StopReason, Until,
};
pub use sink::{BufferSink, NullSink, TeeSink, TraceSink, WriteSink};
pub use state::SimState;
pub use stats::SimStats;
pub use trace::{TraceBuf, TraceEvent};
pub use word::{dologic, land, AluFn, MemOp, Word, WORD_MASK};
