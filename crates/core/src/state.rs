//! Simulation state shared by every engine.
//!
//! The state is deliberately engine-agnostic so that the interpreter, the
//! bytecode VM and (indirectly, via its printed trace) the generated code
//! can be compared cell-for-cell in differential tests.

use crate::design::{Design, RKind};
use crate::resolve::CompId;
use crate::stats::SimStats;
use crate::word::Word;

/// The mutable state of a simulation run.
///
/// * `outputs[i]` — component `i`'s visible output: the current-cycle value
///   for ALUs/selectors, the output latch (`temp…` in the generated Pascal)
///   for memories.
/// * cells — the backing storage of every memory, flattened.
/// * statistics — the §1.4 counters ([`SimStats`]): cycles executed and
///   accesses per memory. They are state like the rest, so a snapshot
///   holds the counters of the run up to it, a restore puts them back
///   and a checkpoint carries them.
///
/// All components start at zero ("All components are initialized to zero
/// before simulation begins"), except memory cells with initializer lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimState {
    outputs: Vec<Word>,
    cells: Vec<Word>,
    cell_off: Vec<u32>,
    cell_len: Vec<u32>,
    cycle: Word,
    stats: SimStats,
}

impl SimState {
    /// Fresh state for a design: outputs zeroed, memories initialized.
    pub fn new(design: &Design) -> Self {
        let n = design.len();
        let mut cell_off = vec![0u32; n];
        let mut cell_len = vec![0u32; n];
        let mut cells = Vec::new();
        for (id, comp) in design.iter() {
            if let RKind::Memory(m) = &comp.kind {
                cell_off[id.index()] = cells.len() as u32;
                cell_len[id.index()] = m.size;
                cells.extend_from_slice(&m.init);
            }
        }
        SimState {
            outputs: vec![0; n],
            cells,
            cell_off,
            cell_len,
            cycle: 0,
            stats: SimStats::new(design),
        }
    }

    /// Current cycle number (starts at 0).
    pub fn cycle(&self) -> Word {
        self.cycle
    }

    /// Advances the cycle counter and counts the cycle executed.
    pub fn bump_cycle(&mut self) {
        self.cycle += 1;
        self.stats.cycles = self.stats.cycles.saturating_add(1);
    }

    /// Sets the cycle counter — checkpoint restoration only; engines
    /// advance through [`bump_cycle`](SimState::bump_cycle).
    pub fn set_cycle(&mut self, cycle: Word) {
        self.cycle = cycle;
    }

    /// The run's statistics so far (§1.4).
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The statistics, for engines to count memory operations into
    /// ([`SimStats::record`]) and for checkpoint restoration.
    #[inline]
    pub fn stats_mut(&mut self) -> &mut SimStats {
        &mut self.stats
    }

    /// A component's visible output (combinational value or memory latch).
    #[inline]
    pub fn output(&self, id: CompId) -> Word {
        self.outputs[id.index()]
    }

    /// Sets a component's visible output.
    #[inline]
    pub fn set_output(&mut self, id: CompId, value: Word) {
        self.outputs[id.index()] = value;
    }

    /// The whole output array — the evaluation context for
    /// [`RExpr::eval`](crate::resolve::RExpr::eval).
    #[inline]
    pub fn outputs(&self) -> &[Word] {
        &self.outputs
    }

    /// The number of cells of memory `id` (0 for combinational components).
    #[inline]
    pub fn cell_count(&self, id: CompId) -> u32 {
        self.cell_len[id.index()]
    }

    /// Reads memory cell `addr` of component `id`.
    ///
    /// # Panics
    ///
    /// Panics when out of range; engines validate first and raise
    /// [`HaltKind::AddressOutOfRange`](crate::error::HaltKind) themselves.
    #[inline]
    pub fn cell(&self, id: CompId, addr: u32) -> Word {
        debug_assert!(addr < self.cell_len[id.index()]);
        self.cells[(self.cell_off[id.index()] + addr) as usize]
    }

    /// Writes memory cell `addr` of component `id`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    #[inline]
    pub fn set_cell(&mut self, id: CompId, addr: u32, value: Word) {
        debug_assert!(addr < self.cell_len[id.index()]);
        self.cells[(self.cell_off[id.index()] + addr) as usize] = value;
    }

    /// All cells of memory `id`, in address order.
    pub fn cells(&self, id: CompId) -> &[Word] {
        let off = self.cell_off[id.index()] as usize;
        let len = self.cell_len[id.index()] as usize;
        &self.cells[off..off + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design(src: &str) -> Design {
        Design::from_source(src).unwrap()
    }

    #[test]
    fn initialization() {
        let d = design("# s\na m n .\nA a 4 1 2\nM m 0 0 0 -3 7 8 9\nM n 0 0 0 2 .");
        let s = SimState::new(&d);
        let m = d.find("m").unwrap();
        let n = d.find("n").unwrap();
        let a = d.find("a").unwrap();
        assert_eq!(s.cells(m), [7, 8, 9]);
        assert_eq!(s.cells(n), [0, 0]);
        assert_eq!(s.output(a), 0);
        assert_eq!(
            s.output(m),
            0,
            "latches start at zero even when cells do not"
        );
        assert_eq!(s.cycle(), 0);
        assert_eq!(s.stats(), &SimStats::new(&d));
    }

    #[test]
    fn cell_access() {
        let d = design("# s\nm n .\nM m 0 0 0 3\nM n 0 0 0 2 .");
        let mut s = SimState::new(&d);
        let m = d.find("m").unwrap();
        let n = d.find("n").unwrap();
        s.set_cell(m, 2, 42);
        s.set_cell(n, 0, 7);
        assert_eq!(s.cell(m, 2), 42);
        assert_eq!(s.cell(n, 0), 7);
        assert_eq!(s.cells(m), [0, 0, 42], "memories do not alias");
        assert_eq!(s.cell_count(m), 3);
        assert_eq!(s.cell_count(n), 2);
    }

    #[test]
    fn states_compare_for_differential_tests() {
        let d = design("# s\nm .\nM m 0 0 0 2 .");
        let mut a = SimState::new(&d);
        let b = SimState::new(&d);
        assert_eq!(a, b);
        a.set_cell(d.find("m").unwrap(), 1, 5);
        assert_ne!(a, b);
        let mut c = b.clone();
        c.bump_cycle();
        assert_eq!(c.stats().cycles, 1, "the cycle is counted with the state");
        c.set_cycle(0);
        assert_ne!(c, b, "the counters are state too");
    }
}
