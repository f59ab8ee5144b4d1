//! # asim2 — Computer Architecture Simulation Using a Register Transfer Language
//!
//! A complete Rust reproduction of **ASIM II** (Lester Bartel, Kansas
//! State University, 1986): a register-transfer-language toolkit whose
//! three primitives — ALU, selector, memory — describe "nearly any piece
//! of digital electronic equipment", together with the interpreter it was
//! benchmarked against, an optimizing compiler with three backends, two
//! fully worked reference machines, and hardware-construction support.
//!
//! This crate is a facade: it re-exports the workspace and hosts the
//! examples and cross-crate integration tests. The pieces:
//!
//! | crate | role |
//! |-------|------|
//! | [`lang`] | lexer, macros, parser, AST, pretty-printer |
//! | [`core`] | word semantics, elaboration, scheduling, simulation state |
//! | [`interp`] | ASIM — the table-driven interpreter baseline |
//! | [`compile`] | ASIM II — IR, optimizer, bytecode VM, Rust & Pascal codegen |
//! | [`machines`] | stack machine + sieve, tiny computer, example specs, scenario registry |
//! | [`hw`] | netlists, parts inventories, DOT export |
//! | [`cosim`] | differential co-simulation (lockstep + divergence reports) and scenario fuzzing |
//! | [`campaign`] | parallel, resumable fuzz/cosim campaigns with a persistent divergence corpus |
//! | [`dist`] | sharded campaigns across machines: shard plans, digest-lockstep lanes, corpus merge |
//! | [`fleet`] | live campaign control plane: TCP controller, networked workers, lease work-stealing |
//!
//! ```
//! use asim2::prelude::*;
//!
//! let design = Design::from_source(
//!     "# quickstart counter\n= 4\ncount* next .\n\
//!      M count 0 next 1 1\n\
//!      A next 4 count 1 .",
//! )?;
//! let mut sim = Interpreter::new(&design);
//! let trace = run_captured(&mut sim, 3).expect("counter has no runtime errors");
//! assert!(trace.contains("Cycle   2 count= 2"));
//! # Ok::<(), rtl_core::LoadError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rtl_campaign as campaign;
pub use rtl_compile as compile;
pub use rtl_core as core;
pub use rtl_cosim as cosim;
pub use rtl_dist as dist;
pub use rtl_fleet as fleet;
pub use rtl_hw as hw;
pub use rtl_interp as interp;
pub use rtl_lang as lang;
pub use rtl_machines as machines;

/// The most commonly used items, one `use` away.
pub mod prelude {
    pub use rtl_compile::{emit_pascal, emit_rust, EmitOptions, OptOptions, Vm};
    pub use rtl_core::{
        run_captured, Design, Engine, EngineOptions, EngineRegistry, HaltKind, InputSource,
        NoInput, RunOutcome, ScriptedInput, Session, SimError, StopReason, Until, Word,
    };
    pub use rtl_cosim::{registry, CosimOptions, CosimOutcome, Lockstep};
    pub use rtl_interp::Interpreter;
    pub use rtl_lang::{parse, pretty, Spec};
}
