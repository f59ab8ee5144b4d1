//! # rtl-bench — the thesis's evaluation tables
//!
//! Shared workloads for two one-shot timing binaries:
//!
//! * `src/bin/fig5_1_table.rs` — the full Figure 5.1 table including the
//!   `rustc` pipeline, printed next to the paper's numbers,
//! * `src/bin/ablation_table.rs` — one-shot text tables for the ablations.
//!
//! Throughput of the verification system itself is measured by the
//! repository's one benchmark harness, `perfbench/` (see its README).

#![forbid(unsafe_code)]

use rtl_core::{Design, Engine, Session, SimError, Until, Word};
use rtl_machines::stack::{self, SieveWorkload};

/// The standard Figure 5.1 workload: the sieve at size 20 (a cycle count
/// in the same few-thousand range as the thesis's 5545).
pub fn sieve() -> (SieveWorkload, Design) {
    sieve_sized(20)
}

/// A sieve workload of arbitrary size with its elaborated RTL design.
pub fn sieve_sized(size: Word) -> (SieveWorkload, Design) {
    let w = stack::sieve_workload(size);
    let spec = stack::rtl::spec(&w.program, Some(w.cycles));
    let design = Design::elaborate(&spec).expect("sieve spec elaborates");
    (w, design)
}

/// Runs an engine over the spec's cycle count with output discarded (a
/// null-sink [`Session`]), panicking on simulation errors (benchmarks
/// must not fail silently).
pub fn run_to_sink<E: Engine>(engine: &mut E) {
    if let Err(e) = Session::over(engine).build().run(Until::Spec).into_result() {
        panic!("benchmark workload failed: {e}");
    }
}

/// Runs an engine for exactly `cycles` iterations with output discarded.
///
/// # Errors
///
/// The first failing cycle's error.
pub fn run_cycles_to_sink<E: Engine>(engine: &mut E, cycles: u64) -> Result<(), SimError> {
    Session::over(engine)
        .build()
        .run(Until::Cycles(cycles))
        .into_result()
        .map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtl_compile::Vm;
    use rtl_interp::Interpreter;

    #[test]
    fn harness_workload_runs_on_both_engines() {
        let (w, design) = sieve_sized(5);
        let mut interp = Interpreter::new(&design);
        run_to_sink(&mut interp);
        let mut vm = Vm::new(&design);
        run_to_sink(&mut vm);
        assert_eq!(w.primes, vec![3, 5, 7, 11]);
    }
}
