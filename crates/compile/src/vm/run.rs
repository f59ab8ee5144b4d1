//! The VM execution loop.

use super::{Instr, Program};
use crate::lower::{lower_with_trace, OptOptions};
use rtl_core::{
    land, AluFn, Design, Engine, HaltKind, InputSource, LaneTally, MemOp, ProfileHook, SimError,
    SimState, SimStats, TraceBuf, TraceEvent, Word, WORD_MASK,
};

/// The bytecode virtual machine. Implements [`Engine`], so it is a drop-in
/// replacement for the interpreter — just faster.
///
/// ```
/// use rtl_core::{Design, Engine, run_captured};
/// use rtl_compile::Vm;
/// let design = Design::from_source(
///     "# counter\ncount* next .\nM count 0 next 1 1\nA next 4 count 1 .",
/// ).unwrap();
/// let mut vm = Vm::new(&design);
/// let text = run_captured(&mut vm, 2).unwrap();
/// assert_eq!(text, "Cycle   0 count= 0\nCycle   1 count= 1\n");
/// ```
#[derive(Debug)]
pub struct Vm<'d> {
    design: &'d Design,
    program: Program,
    state: SimState,
    regs: Vec<Word>,
    scratch: Vec<[Word; 3]>,
    stats: SimStats,
    tally: Option<Box<LaneTally>>,
    /// Per component index: whether its visible output is maintained
    /// (latch elision, §5.4, stops maintaining dead memory latches).
    observed: Vec<bool>,
}

impl<'d> Vm<'d> {
    /// Compiles with full optimization and trace output on.
    pub fn new(design: &'d Design) -> Self {
        Self::with_options(design, OptOptions::full(), true)
    }

    /// Compiles with explicit optimization and trace settings.
    pub fn with_options(design: &'d Design, options: OptOptions, trace: bool) -> Self {
        let program = super::compile_program(&lower_with_trace(design, options, trace));
        Self::with_program(design, program)
    }

    /// Runs a pre-compiled program.
    pub fn with_program(design: &'d Design, program: Program) -> Self {
        let regs = vec![0; program.reg_count()];
        let scratch = vec![[0; 3]; program.mems.len()];
        let mut observed = vec![true; design.len()];
        // In reverse, so the first entry for a component wins.
        for m in program.mems.iter().rev() {
            observed[m.comp as usize] = m.latch_needed;
        }
        Vm {
            design,
            program,
            state: SimState::new(design),
            regs,
            scratch,
            stats: SimStats::new(design),
            tally: None,
            observed,
        }
    }

    /// Attaches an execution-profile tap: when `hook` is collecting,
    /// every subsequent cycle tallies per-component output stores, value
    /// changes, selector arms, dynamic ALU dispatches and memory-cell
    /// accesses (flushed into the hook when the VM drops). Counts
    /// reflect the *optimized* program — a const-folded ALU records no
    /// `op/<name>` dispatch and an elided latch no `change` — so VM
    /// profiles describe what the VM actually executed, not the
    /// interpreter's schedule. A disabled hook leaves the hot path
    /// untouched.
    pub fn attach_profile(&mut self, hook: &ProfileHook) {
        if hook.enabled() {
            self.tally = Some(Box::new(LaneTally::new(
                hook.clone(),
                self.design.profile_meta(),
            )));
        }
    }

    /// Accumulated simulation statistics (§1.4): cycle count and memory
    /// accesses per memory.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The compiled program (for inspection / disassembly).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Resets to cycle 0 / initial values, clearing statistics.
    pub fn reset(&mut self) {
        self.state = SimState::new(self.design);
        self.stats = SimStats::new(self.design);
    }

    fn comp_id(&self, index: u32) -> rtl_core::CompId {
        self.design.id_at(index as usize)
    }

    fn exec(&mut self) -> Result<(), SimError> {
        let design = self.design;
        let Vm {
            program,
            state,
            regs,
            scratch,
            tally,
            ..
        } = self;
        let instrs = &program.instrs;
        let tables = &program.tables;
        let mut pc = 0usize;
        while pc < instrs.len() {
            match instrs[pc] {
                Instr::Const { dst, value } => regs[dst as usize] = value,
                Instr::Output { dst, comp } => {
                    regs[dst as usize] = state.outputs()[comp as usize];
                }
                Instr::Field {
                    dst,
                    src,
                    mask,
                    rshift,
                } => {
                    regs[dst as usize] = land(regs[src as usize], mask) >> rshift;
                }
                Instr::ShlImm { dst, src, amount } => {
                    regs[dst as usize] = regs[src as usize].wrapping_shl(u32::from(amount));
                }
                Instr::Add { dst, a, b } => {
                    regs[dst as usize] = regs[a as usize].wrapping_add(regs[b as usize]);
                }
                Instr::Sub { dst, a, b } => {
                    regs[dst as usize] = regs[a as usize].wrapping_sub(regs[b as usize]);
                }
                Instr::Mul { dst, a, b } => {
                    regs[dst as usize] = regs[a as usize].wrapping_mul(regs[b as usize]);
                }
                Instr::And { dst, a, b } => {
                    regs[dst as usize] = land(regs[a as usize], regs[b as usize]);
                }
                Instr::Or { dst, a, b } => {
                    let (x, y) = (regs[a as usize], regs[b as usize]);
                    regs[dst as usize] = x.wrapping_add(y).wrapping_sub(land(x, y));
                }
                Instr::Xor { dst, a, b } => {
                    let (x, y) = (regs[a as usize], regs[b as usize]);
                    regs[dst as usize] = x.wrapping_add(y).wrapping_sub(land(x, y).wrapping_mul(2));
                }
                Instr::Eq { dst, a, b } => {
                    regs[dst as usize] = Word::from(regs[a as usize] == regs[b as usize]);
                }
                Instr::Lt { dst, a, b } => {
                    regs[dst as usize] = Word::from(regs[a as usize] < regs[b as usize]);
                }
                Instr::ShlLoop { dst, a, b } => {
                    regs[dst as usize] = AluFn::Shl.apply(regs[a as usize], regs[b as usize]);
                }
                Instr::Not { dst, src } => {
                    regs[dst as usize] = WORD_MASK - regs[src as usize];
                }
                Instr::Dologic { dst, f, l, r, comp } => {
                    let fv = regs[f as usize];
                    let fun = AluFn::from_word(fv).ok_or_else(|| HaltKind::BadAluFunction {
                        component: design.name(design.id_at(comp as usize)).to_string(),
                        funct: fv,
                        cycle: state.cycle(),
                    })?;
                    if let Some(t) = tally.as_deref_mut() {
                        t.op(comp as usize, fun.number() as usize);
                    }
                    regs[dst as usize] = fun.apply(regs[l as usize], regs[r as usize]);
                }
                Instr::Store { comp, src } => {
                    let id = design.id_at(comp as usize);
                    let value = regs[src as usize];
                    if let Some(t) = tally.as_deref_mut() {
                        t.eval(comp as usize);
                        if state.outputs()[comp as usize] != value {
                            t.change(comp as usize);
                        }
                    }
                    state.set_output(id, value);
                }
                Instr::StoreScratch { mem, slot, src } => {
                    scratch[mem as usize][slot as usize] = regs[src as usize];
                }
                Instr::Switch {
                    src,
                    comp,
                    table,
                    len,
                } => {
                    let idx = regs[src as usize];
                    let slot = usize::try_from(idx)
                        .ok()
                        .filter(|&i| i < len as usize)
                        .ok_or_else(|| HaltKind::SelectorOutOfRange {
                            component: design.name(design.id_at(comp as usize)).to_string(),
                            index: idx,
                            cases: len as usize,
                            cycle: state.cycle(),
                        })?;
                    if let Some(t) = tally.as_deref_mut() {
                        t.arm(comp as usize, slot);
                    }
                    pc = tables[table as usize + slot] as usize;
                    continue;
                }
                Instr::Jump { target } => {
                    pc = target as usize;
                    continue;
                }
            }
            pc += 1;
        }
        Ok(())
    }
}

impl Engine for Vm<'_> {
    fn design(&self) -> &Design {
        self.design
    }

    fn state(&self) -> &SimState {
        &self.state
    }

    fn restore(&mut self, snapshot: &SimState) {
        self.state = snapshot.clone();
    }

    fn stats(&self) -> Option<&SimStats> {
        Some(&self.stats)
    }

    fn observes_output(&self, id: rtl_core::CompId) -> bool {
        self.observed[id.index()]
    }

    fn step(
        &mut self,
        trace: &mut TraceBuf<'_>,
        input: &mut dyn InputSource,
    ) -> Result<(), SimError> {
        let cycle = self.state.cycle();

        // 1 + 3. Combinational phase and memory capture (one program).
        self.exec()?;

        // 2. Trace phase. (The program captured memory state *after* this
        // point in the original's ordering, but captures are pure, so
        // running them early is unobservable.)
        if self.program.trace {
            trace.push(TraceEvent::Cycle(cycle));
            for &t in &self.program.traced {
                let id = self.comp_id(t);
                trace.push(TraceEvent::Value(id, self.state.output(id)));
            }
            trace.push(TraceEvent::EndLine);
        }

        // 4. Memory update phase.
        for mi in 0..self.program.mems.len() {
            let m = self.program.mems[mi].clone();
            let id = self.comp_id(m.comp);
            let [addr, dyn_opn, data] = self.scratch[mi];
            let opn = m.const_opn.unwrap_or(dyn_opn);
            let op = MemOp::from_word(opn);
            self.stats.record(id, op);
            let latch = match op {
                MemOp::Read => {
                    let a = check_addr(self.design.name(id), addr, m.size, cycle)?;
                    if m.latch_needed {
                        self.state.cell(id, a)
                    } else {
                        self.state.output(id)
                    }
                }
                MemOp::Write => {
                    let a = check_addr(self.design.name(id), addr, m.size, cycle)?;
                    debug_assert!(m.has_data);
                    self.state.set_cell(id, a, data);
                    data
                }
                MemOp::Input => {
                    if addr != 0 && addr != 1 {
                        trace.push(TraceEvent::InputPrompt(addr));
                    }
                    trace.flush(self.design)?;
                    let value = match addr {
                        0 => input.read_char(),
                        _ => input.read_int(),
                    };
                    value.map_err(|e| match e {
                        SimError::Halt(HaltKind::InputExhausted { .. }) => {
                            HaltKind::InputExhausted { cycle }.into()
                        }
                        other => other,
                    })?
                }
                MemOp::Output => {
                    debug_assert!(m.has_data);
                    trace.push(TraceEvent::Output { addr, data });
                    data
                }
            };
            if let Some(t) = self.tally.as_deref_mut() {
                let ci = m.comp as usize;
                t.eval(ci);
                // Read/write addresses were validated by `check_addr`
                // above, so the cast is in range.
                match op {
                    MemOp::Read => t.read(ci, addr as usize),
                    MemOp::Write => t.write(ci, addr as usize),
                    MemOp::Input => t.input(ci),
                    MemOp::Output => t.output(ci),
                }
                if m.latch_needed && self.state.output(id) != latch {
                    t.change(ci);
                }
            }
            if m.latch_needed {
                self.state.set_output(id, latch);
            }
            if self.program.trace {
                use crate::ir::TraceDecision::*;
                let write = match m.trace_write {
                    Always => true,
                    Dynamic => rtl_core::word::traces_write(opn),
                    _ => false,
                };
                if write {
                    trace.push(TraceEvent::MemWrite {
                        mem: id,
                        addr,
                        value: latch,
                    });
                }
                let read = match m.trace_read {
                    Always => true,
                    Dynamic => rtl_core::word::traces_read(opn),
                    _ => false,
                };
                if read {
                    trace.push(TraceEvent::MemRead {
                        mem: id,
                        addr,
                        value: latch,
                    });
                }
            }
        }

        self.stats.cycles += 1;
        self.state.bump_cycle();
        Ok(())
    }
}

fn check_addr(name: &str, addr: Word, size: u32, cycle: Word) -> Result<u32, HaltKind> {
    if (0..Word::from(size)).contains(&addr) {
        Ok(addr as u32)
    } else {
        Err(HaltKind::AddressOutOfRange {
            component: name.to_string(),
            address: addr,
            size,
            cycle,
        })
    }
}
