//! The cycle interpreter.

use crate::lookup::{LookupMode, SymbolTable};
use crate::postfix::Program;
use rtl_core::{
    AluFn, CompId, Design, Engine, HaltKind, InputSource, LaneTally, MemOp, ProfileHook, RKind,
    SimError, SimState, SimStats, TraceBuf, TraceEvent, Word,
};

/// Interpreter configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterpOptions {
    /// Record cycle and memory trace events (`true` matches the original
    /// simulators; turn off for throughput experiments).
    pub trace: bool,
    /// Operand lookup discipline (see [`LookupMode`]). `Indexed` by
    /// default; `SymbolTable` reproduces the 1986 per-reference cost for
    /// the Figure 5.1 "ASIM" row.
    pub lookup: LookupMode,
}

impl InterpOptions {
    /// Trace on, indexed lookups — the default.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trace off (throughput experiments).
    pub fn quiet() -> Self {
        InterpOptions {
            trace: false,
            ..Self::default()
        }
    }

    /// The faithful 1986 configuration: trace on, symbol-table lookups.
    pub fn faithful() -> Self {
        InterpOptions {
            trace: true,
            lookup: LookupMode::SymbolTable,
        }
    }
}

impl Default for InterpOptions {
    fn default() -> Self {
        InterpOptions {
            trace: true,
            lookup: LookupMode::Indexed,
        }
    }
}

#[derive(Debug, Clone)]
enum CombStep {
    Alu {
        id: CompId,
        funct: Program,
        left: Program,
        right: Program,
    },
    Selector {
        id: CompId,
        select: Program,
        cases: Vec<Program>,
    },
}

#[derive(Debug, Clone)]
struct MemPlan {
    id: CompId,
    addr: Program,
    data: Program,
    opn: Program,
    size: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct MemScratch {
    addr: Word,
    opn: Word,
    data: Word,
}

/// The ASIM-style table interpreter: reads the specification into postfix
/// tables once, then re-interprets them every cycle.
///
/// ```
/// use rtl_core::{Design, Engine, run_captured};
/// use rtl_interp::Interpreter;
/// let design = Design::from_source(
///     "# counter\ncount* next .\nM count 0 next 1 1\nA next 4 count 1 .",
/// ).unwrap();
/// let mut sim = Interpreter::new(&design);
/// let text = run_captured(&mut sim, 3).unwrap();
/// assert_eq!(text, "Cycle   0 count= 0\nCycle   1 count= 1\nCycle   2 count= 2\n");
/// ```
#[derive(Debug)]
pub struct Interpreter<'d> {
    design: &'d Design,
    state: SimState,
    comb: Vec<CombStep>,
    mems: Vec<MemPlan>,
    scratch: Vec<MemScratch>,
    stack: Vec<Word>,
    symbols: Option<SymbolTable>,
    options: InterpOptions,
    tally: Option<Box<LaneTally>>,
}

impl<'d> Interpreter<'d> {
    /// Builds the interpretation tables for a design (tracing enabled).
    pub fn new(design: &'d Design) -> Self {
        Self::with_options(design, InterpOptions::default())
    }

    /// Builds with explicit options.
    pub fn with_options(design: &'d Design, options: InterpOptions) -> Self {
        let comb = design
            .comb_order()
            .iter()
            .map(|&id| match &design.comp(id).kind {
                RKind::Alu(a) => CombStep::Alu {
                    id,
                    funct: Program::from_rexpr(&a.funct),
                    left: Program::from_rexpr(&a.left),
                    right: Program::from_rexpr(&a.right),
                },
                RKind::Selector(s) => CombStep::Selector {
                    id,
                    select: Program::from_rexpr(&s.select),
                    cases: s.cases.iter().map(Program::from_rexpr).collect(),
                },
                RKind::Memory(_) => unreachable!("memories are not combinational"),
            })
            .collect();
        let mems: Vec<MemPlan> = design
            .memories()
            .iter()
            .map(|&id| {
                let m = design.memory(id);
                MemPlan {
                    id,
                    addr: Program::from_rexpr(&m.addr),
                    data: Program::from_rexpr(&m.data),
                    opn: Program::from_rexpr(&m.opn),
                    size: m.size,
                }
            })
            .collect();
        let scratch = vec![MemScratch::default(); mems.len()];
        let symbols = match options.lookup {
            LookupMode::Indexed => None,
            LookupMode::SymbolTable => Some(SymbolTable::new(design)),
        };
        Interpreter {
            design,
            state: SimState::new(design),
            comb,
            mems,
            scratch,
            stack: Vec::with_capacity(16),
            symbols,
            options,
            tally: None,
        }
    }

    /// Attaches an execution-profile tap: when `hook` is collecting,
    /// every subsequent cycle tallies per-component evaluations, value
    /// changes, selector arms, ALU functions and memory-cell accesses
    /// (flushed into the hook when the interpreter drops). A disabled
    /// hook leaves the hot path untouched.
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
        self.state.stats()
    }

    /// Total size of the interpretation tables in postfix operations —
    /// the interpreter analogue of the original's "Generate tables" phase
    /// output.
    pub fn table_size(&self) -> usize {
        let comb: usize = self
            .comb
            .iter()
            .map(|c| match c {
                CombStep::Alu {
                    funct, left, right, ..
                } => funct.len() + left.len() + right.len(),
                CombStep::Selector { select, cases, .. } => {
                    select.len() + cases.iter().map(Program::len).sum::<usize>()
                }
            })
            .sum();
        let mems: usize = self
            .mems
            .iter()
            .map(|m| m.addr.len() + m.data.len() + m.opn.len())
            .sum();
        comb + mems
    }

    /// A listing of the interpretation tables: every combinational step
    /// and memory plan with its postfix programs, in evaluation order.
    /// It shows what the tables hold, for inspection and for pinning
    /// what the table generator produces.
    pub fn tables(&self) -> String {
        format!("{:?}\n{:?}", self.comb, self.mems)
    }

    /// Resets all state to cycle 0 / initial values, clearing statistics.
    pub fn reset(&mut self) {
        self.state = SimState::new(self.design);
    }
}

impl Engine for Interpreter<'_> {
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
        Some(self.state.stats())
    }

    fn flush_profile(&mut self) {
        if let Some(tally) = self.tally.as_deref_mut() {
            tally.flush();
        }
    }

    fn step(
        &mut self,
        trace: &mut TraceBuf<'_>,
        input: &mut dyn InputSource,
    ) -> Result<(), SimError> {
        let cycle = self.state.cycle();

        // 1. Combinational phase, in dependency order.
        for step in &self.comb {
            match step {
                CombStep::Alu {
                    id,
                    funct,
                    left,
                    right,
                } => {
                    let f =
                        funct.eval(self.state.outputs(), &mut self.stack, self.symbols.as_ref());
                    let l = left.eval(self.state.outputs(), &mut self.stack, self.symbols.as_ref());
                    let r =
                        right.eval(self.state.outputs(), &mut self.stack, self.symbols.as_ref());
                    let fun = AluFn::from_word(f).ok_or_else(|| HaltKind::BadAluFunction {
                        component: self.design.name(*id).to_string(),
                        funct: f,
                        cycle,
                    })?;
                    let value = fun.apply(l, r);
                    if let Some(t) = self.tally.as_deref_mut() {
                        t.eval(id.index());
                        t.op(id.index(), fun.number() as usize);
                        if self.state.output(*id) != value {
                            t.change(id.index());
                        }
                    }
                    self.state.set_output(*id, value);
                }
                CombStep::Selector { id, select, cases } => {
                    let idx =
                        select.eval(self.state.outputs(), &mut self.stack, self.symbols.as_ref());
                    let arm = usize::try_from(idx)
                        .ok()
                        .filter(|&i| i < cases.len())
                        .ok_or_else(|| HaltKind::SelectorOutOfRange {
                            component: self.design.name(*id).to_string(),
                            index: idx,
                            cases: cases.len(),
                            cycle,
                        })?;
                    let v = cases[arm].eval(
                        self.state.outputs(),
                        &mut self.stack,
                        self.symbols.as_ref(),
                    );
                    if let Some(t) = self.tally.as_deref_mut() {
                        t.eval(id.index());
                        t.arm(id.index(), arm);
                        if self.state.output(*id) != v {
                            t.change(id.index());
                        }
                    }
                    self.state.set_output(*id, v);
                }
            }
        }

        // 2. Trace phase.
        if self.options.trace {
            trace.push(TraceEvent::Cycle(cycle));
            for &id in self.design.traced() {
                trace.push(TraceEvent::Value(id, self.state.output(id)));
            }
            trace.push(TraceEvent::EndLine);
        }

        // 3. Capture phase: evaluate every memory's address, operation and
        // data against pre-update latches (simultaneous-update semantics).
        for (plan, scratch) in self.mems.iter().zip(self.scratch.iter_mut()) {
            let symbols = self.symbols.as_ref();
            scratch.addr = plan
                .addr
                .eval(self.state.outputs(), &mut self.stack, symbols);
            scratch.opn = plan
                .opn
                .eval(self.state.outputs(), &mut self.stack, symbols);
            scratch.data = plan
                .data
                .eval(self.state.outputs(), &mut self.stack, symbols);
        }

        // 4. Update phase, in definition order.
        for (plan, scratch) in self.mems.iter().zip(self.scratch.iter()) {
            let name = self.design.name(plan.id);
            let addr = scratch.addr;
            let opn = scratch.opn;
            let op = MemOp::from_word(opn);
            self.state.stats_mut().record(plan.id, op);
            let latch = match op {
                MemOp::Read => {
                    let a = cell_index(name, addr, plan.size, cycle)?;
                    self.state.cell(plan.id, a)
                }
                MemOp::Write => {
                    let a = cell_index(name, addr, plan.size, cycle)?;
                    self.state.set_cell(plan.id, a, scratch.data);
                    scratch.data
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
                    trace.push(TraceEvent::Output {
                        addr,
                        data: scratch.data,
                    });
                    scratch.data
                }
            };
            if let Some(t) = self.tally.as_deref_mut() {
                let ci = plan.id.index();
                t.eval(ci);
                // Read/write addresses were validated by `cell_index`
                // above, so the cast is in range.
                match op {
                    MemOp::Read => t.read(ci, addr as usize),
                    MemOp::Write => t.write(ci, addr as usize),
                    MemOp::Input => t.input(ci),
                    MemOp::Output => t.output(ci),
                }
                if self.state.output(plan.id) != latch {
                    t.change(ci);
                }
            }
            self.state.set_output(plan.id, latch);
            if self.options.trace {
                let mem = plan.id;
                if rtl_core::word::traces_write(opn) {
                    trace.push(TraceEvent::MemWrite {
                        mem,
                        addr,
                        value: latch,
                    });
                }
                if rtl_core::word::traces_read(opn) {
                    trace.push(TraceEvent::MemRead {
                        mem,
                        addr,
                        value: latch,
                    });
                }
            }
        }

        // 5. Next cycle.
        self.state.bump_cycle();
        Ok(())
    }
}

fn cell_index(name: &str, addr: Word, size: u32, cycle: Word) -> Result<u32, HaltKind> {
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
