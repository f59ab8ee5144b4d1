//! IR → bytecode translation.

use super::{Instr, MemRt, Program, Reg, Slot};
use crate::ir::{CycleIr, IrExpr, OpnPlan, Step};

/// Compiles a lowered cycle to a flat bytecode program.
pub fn compile_program(ir: &CycleIr) -> Program {
    let (instrs, tables) = program_len(ir);
    let mut c = Compiler {
        instrs: Vec::with_capacity(instrs),
        tables: Vec::with_capacity(tables),
        ..Compiler::default()
    };

    for step in &ir.steps {
        match step {
            Step::Assign { id, expr } => {
                let r = c.emit_expr(expr);
                c.push(Instr::Store {
                    comp: id.index() as u32,
                    src: r,
                });
                c.reset_regs();
            }
            Step::Select { id, select, cases } => {
                let r = c.emit_expr(select);
                let switch_at = c.push_placeholder();
                // Compile each case; record entry points and patch a jump
                // to the continuation at the end of each.
                let mut entries = Vec::with_capacity(cases.len());
                let mut exits = Vec::with_capacity(cases.len());
                for case in cases {
                    entries.push(c.here());
                    let saved = c.next_reg;
                    let cr = c.emit_expr(case);
                    c.push(Instr::Store {
                        comp: id.index() as u32,
                        src: cr,
                    });
                    c.next_reg = saved;
                    exits.push(c.push_placeholder());
                }
                let after = c.here();
                let table = c.tables.len() as u32;
                c.tables.extend(entries);
                c.instrs[switch_at] = Instr::Switch {
                    src: r,
                    comp: id.index() as u32,
                    table,
                    len: cases.len() as u16,
                };
                for e in exits {
                    c.instrs[e] = Instr::Jump { target: after };
                }
                c.reset_regs();
            }
        }
    }

    // Memory captures.
    let mut mems = Vec::with_capacity(ir.mems.len());
    for (mi, m) in ir.mems.iter().enumerate() {
        let mem = mi as u16;
        let r = c.emit_expr(&m.addr);
        c.push(Instr::StoreScratch {
            mem,
            slot: Slot::Addr,
            src: r,
        });
        c.reset_regs();
        let const_opn = match &m.opn {
            OpnPlan::Const(op) => Some(*op),
            OpnPlan::Dynamic(e) => {
                let r = c.emit_expr(e);
                c.push(Instr::StoreScratch {
                    mem,
                    slot: Slot::Opn,
                    src: r,
                });
                c.reset_regs();
                None
            }
        };
        if let Some(data) = &m.data {
            let r = c.emit_expr(data);
            c.push(Instr::StoreScratch {
                mem,
                slot: Slot::Data,
                src: r,
            });
            c.reset_regs();
        }
        mems.push(MemRt {
            comp: m.id.index() as u32,
            size: m.size,
            const_opn,
            has_data: m.data.is_some(),
            latch_needed: m.latch_needed,
            trace_write: m.trace_write,
            trace_read: m.trace_read,
        });
    }

    debug_assert_eq!((c.instrs.len(), c.tables.len()), (instrs, tables));
    Program {
        instrs: c.instrs,
        tables: c.tables,
        reg_count: c.max_reg.max(1),
        mems,
        traced: ir.traced.iter().map(|t| t.index() as u32).collect(),
        trace: ir.trace,
    }
}

/// The instruction and jump-table lengths [`compile_program`] emits for
/// `ir`, so both vectors are sized once.
fn program_len(ir: &CycleIr) -> (usize, usize) {
    let (mut instrs, mut tables) = (0, 0);
    for step in &ir.steps {
        match step {
            // The expression, then its store.
            Step::Assign { expr, .. } => instrs += expr_len(expr) + 1,
            // The select and its switch; each case, its store and its jump.
            Step::Select { select, cases, .. } => {
                instrs += expr_len(select) + 1;
                instrs += cases.iter().map(|e| expr_len(e) + 2).sum::<usize>();
                tables += cases.len();
            }
        }
    }
    for m in &ir.mems {
        // Each evaluated expression, then its scratch store.
        let opn = match &m.opn {
            OpnPlan::Const(_) => None,
            OpnPlan::Dynamic(e) => Some(e),
        };
        instrs += [Some(&m.addr), opn, m.data.as_ref()]
            .into_iter()
            .flatten()
            .map(|e| expr_len(e) + 1)
            .sum::<usize>();
    }
    (instrs, tables)
}

/// The instructions [`Compiler::emit_expr`] emits for `e`: one per node,
/// except that a sum of `n` terms emits `n - 1` adds.
fn expr_len(e: &IrExpr) -> usize {
    use IrExpr::*;
    match e {
        Const(_) | Output(_) => 1,
        Field { inner, .. } | Shl { inner, .. } | Not(inner) => 1 + expr_len(inner),
        Sum(terms) => terms.iter().map(expr_len).sum::<usize>() + terms.len() - 1,
        Add(a, b)
        | Sub(a, b)
        | ShlLoop(a, b)
        | Mul(a, b)
        | And(a, b)
        | Or(a, b)
        | Xor(a, b)
        | Eq(a, b)
        | Lt(a, b) => 1 + expr_len(a) + expr_len(b),
        Dologic {
            funct, left, right, ..
        } => 1 + expr_len(funct) + expr_len(left) + expr_len(right),
    }
}

#[derive(Default)]
struct Compiler {
    instrs: Vec<Instr>,
    tables: Vec<u32>,
    next_reg: usize,
    max_reg: usize,
}

impl Compiler {
    fn here(&self) -> u32 {
        self.instrs.len() as u32
    }

    fn push(&mut self, i: Instr) {
        self.instrs.push(i);
    }

    fn push_placeholder(&mut self) -> usize {
        self.instrs.push(Instr::Jump { target: u32::MAX });
        self.instrs.len() - 1
    }

    fn alloc(&mut self) -> Reg {
        let r = self.next_reg;
        self.next_reg += 1;
        self.max_reg = self.max_reg.max(self.next_reg);
        assert!(r <= Reg::MAX as usize, "expression too deep for the VM");
        r as Reg
    }

    fn reset_regs(&mut self) {
        self.next_reg = 0;
    }

    fn emit_expr(&mut self, e: &IrExpr) -> Reg {
        match e {
            IrExpr::Const(v) => {
                let dst = self.alloc();
                self.push(Instr::Const { dst, value: *v });
                dst
            }
            IrExpr::Output(c) => {
                let dst = self.alloc();
                self.push(Instr::Output {
                    dst,
                    comp: c.index() as u32,
                });
                dst
            }
            IrExpr::Field {
                inner,
                mask,
                rshift,
            } => {
                let src = self.emit_expr(inner);
                let dst = self.alloc();
                self.push(Instr::Field {
                    dst,
                    src,
                    mask: *mask,
                    rshift: *rshift,
                });
                dst
            }
            IrExpr::Shl { inner, amount } => {
                let src = self.emit_expr(inner);
                let dst = self.alloc();
                self.push(Instr::ShlImm {
                    dst,
                    src,
                    amount: *amount,
                });
                dst
            }
            IrExpr::Sum(terms) => {
                let mut acc = self.emit_expr(&terms[0]);
                for t in &terms[1..] {
                    let r = self.emit_expr(t);
                    let dst = self.alloc();
                    self.push(Instr::Add { dst, a: acc, b: r });
                    acc = dst;
                }
                acc
            }
            IrExpr::Not(a) => {
                let src = self.emit_expr(a);
                let dst = self.alloc();
                self.push(Instr::Not { dst, src });
                dst
            }
            IrExpr::Add(a, b) => self.binary(a, b, |dst, a, b| Instr::Add { dst, a, b }),
            IrExpr::Sub(a, b) => self.binary(a, b, |dst, a, b| Instr::Sub { dst, a, b }),
            IrExpr::Mul(a, b) => self.binary(a, b, |dst, a, b| Instr::Mul { dst, a, b }),
            IrExpr::And(a, b) => self.binary(a, b, |dst, a, b| Instr::And { dst, a, b }),
            IrExpr::Or(a, b) => self.binary(a, b, |dst, a, b| Instr::Or { dst, a, b }),
            IrExpr::Xor(a, b) => self.binary(a, b, |dst, a, b| Instr::Xor { dst, a, b }),
            IrExpr::Eq(a, b) => self.binary(a, b, |dst, a, b| Instr::Eq { dst, a, b }),
            IrExpr::Lt(a, b) => self.binary(a, b, |dst, a, b| Instr::Lt { dst, a, b }),
            IrExpr::ShlLoop(a, b) => self.binary(a, b, |dst, a, b| Instr::ShlLoop { dst, a, b }),
            IrExpr::Dologic {
                funct,
                left,
                right,
                comp,
            } => {
                let f = self.emit_expr(funct);
                let l = self.emit_expr(left);
                let r = self.emit_expr(right);
                let dst = self.alloc();
                self.push(Instr::Dologic {
                    dst,
                    f,
                    l,
                    r,
                    comp: comp.index() as u32,
                });
                dst
            }
        }
    }

    fn binary(&mut self, a: &IrExpr, b: &IrExpr, ctor: fn(Reg, Reg, Reg) -> Instr) -> Reg {
        let ra = self.emit_expr(a);
        let rb = self.emit_expr(b);
        let dst = self.alloc();
        self.push(ctor(dst, ra, rb));
        dst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{lower, OptOptions};
    use rtl_core::Design;

    #[test]
    fn straight_line_for_alus() {
        let d = Design::from_source("# p\na b .\nA a 4 1 2\nA b 4 a 3 .").unwrap();
        let p = compile_program(&lower(&d, OptOptions::none()));
        assert!(!p.is_empty());
        assert!(p.tables.is_empty(), "no selectors, no tables");
        assert!(!p.disassemble().is_empty());
    }

    #[test]
    fn selector_builds_jump_table() {
        let d = Design::from_source("# p\ns m .\nS s m.0.1 1 2 3 4\nM m 0 0 0 2 .").unwrap();
        let p = compile_program(&lower(&d, OptOptions::full()));
        assert_eq!(p.tables.len(), 4);
        let switches = p
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::Switch { .. }))
            .count();
        assert_eq!(switches, 1);
        // All placeholder jumps were patched.
        for i in &p.instrs {
            if let Instr::Jump { target } = i {
                assert_ne!(*target, u32::MAX, "unpatched jump");
            }
        }
    }

    #[test]
    fn full_optimization_produces_fewer_instructions() {
        let src = "# p\nalu add m .\nA alu 4 m 3048\nA add 4 m 3048\nM m 0 alu 1 4 .";
        let d = Design::from_source(src).unwrap();
        let full = compile_program(&lower(&d, OptOptions::full()));
        let naive = compile_program(&lower(&d, OptOptions::none()));
        assert!(
            full.len() < naive.len(),
            "full {} < naive {}",
            full.len(),
            naive.len()
        );
    }
}
