//! Simulation statistics.
//!
//! "The register transfer execution will typically produce statistics
//! about the actual simulation, such as execution cycles required, memory
//! accesses, and other related information. This extra output is
//! invaluable when the designer desires to view the internal states of a
//! microprocessor" (§1.4). The counters are part of every
//! [`SimState`](crate::SimState): the interpreter and the VM count into
//! their state, so snapshots, restores and checkpoints carry them, and
//! the CLI prints them with `asim run --stats`.

use crate::design::Design;
use crate::resolve::CompId;
use std::fmt;

/// Per-memory access counters plus the cycle count, kept in the
/// [`SimState`](crate::SimState) they describe.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Cycles executed.
    pub cycles: u64,
    /// Cell reads per component (indexed by `CompId::index`; zero for
    /// combinational components).
    pub reads: Vec<u64>,
    /// Cell writes per component.
    pub writes: Vec<u64>,
    /// Input-device reads per component.
    pub inputs: Vec<u64>,
    /// Output-device writes per component.
    pub outputs: Vec<u64>,
}

impl SimStats {
    /// Zeroed counters sized for a design.
    pub fn new(design: &Design) -> Self {
        let n = design.len();
        SimStats {
            cycles: 0,
            reads: vec![0; n],
            writes: vec![0; n],
            inputs: vec![0; n],
            outputs: vec![0; n],
        }
    }

    /// Records one memory operation of the given kind. Counters saturate:
    /// a restored checkpoint may start them anywhere.
    #[inline]
    pub fn record(&mut self, id: CompId, op: crate::word::MemOp) {
        use crate::word::MemOp::*;
        let i = id.index();
        let counter = match op {
            Read => &mut self.reads[i],
            Write => &mut self.writes[i],
            Input => &mut self.inputs[i],
            Output => &mut self.outputs[i],
        };
        *counter = counter.saturating_add(1);
    }

    /// Total memory accesses of all kinds, saturating.
    pub fn total_accesses(&self) -> u64 {
        [&self.reads, &self.writes, &self.inputs, &self.outputs]
            .into_iter()
            .flatten()
            .fold(0, |total, &n| total.saturating_add(n))
    }

    /// Renders the report the CLI prints: one row per memory, plus totals.
    pub fn report(&self, design: &Design) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "simulation statistics: {} cycles", self.cycles);
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:>10} {:>8} {:>8}",
            "memory", "reads", "writes", "inputs", "outputs"
        );
        for &id in design.memories() {
            let i = id.index();
            let _ = writeln!(
                out,
                "{:<12} {:>10} {:>10} {:>8} {:>8}",
                design.name(id),
                self.reads[i],
                self.writes[i],
                self.inputs[i],
                self.outputs[i],
            );
        }
        let _ = writeln!(out, "total memory accesses: {}", self.total_accesses());
        out
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cycles, {} memory accesses",
            self.cycles,
            self.total_accesses()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::MemOp;

    #[test]
    fn counters_accumulate() {
        let d = Design::from_source("# s\nm n .\nM m 0 0 0 2\nM n 0 0 1 2 .").unwrap();
        let mut s = SimStats::new(&d);
        let m = d.find("m").unwrap();
        let n = d.find("n").unwrap();
        s.record(m, MemOp::Read);
        s.record(m, MemOp::Read);
        s.record(n, MemOp::Write);
        s.record(n, MemOp::Output);
        s.cycles = 2;
        assert_eq!(s.reads[m.index()], 2);
        assert_eq!(s.writes[n.index()], 1);
        assert_eq!(s.total_accesses(), 4);
        let report = s.report(&d);
        assert!(report.contains("2 cycles"), "{report}");
        assert!(report.contains("total memory accesses: 4"), "{report}");
        assert_eq!(s.to_string(), "2 cycles, 4 memory accesses");
    }
}
