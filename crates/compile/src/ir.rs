//! The compiler's intermediate representation.
//!
//! ASIM II's code generator specialized aggressively: a constant ALU
//! function became an inline operator instead of a `dologic` call, and a
//! constant memory operation collapsed the four-way `case` to a single arm
//! (§4.4). The IR makes those decisions explicit and testable; the bytecode
//! VM and both source backends consume it.

use rtl_core::{AluFn, CompId, RExpr, RefMode, RefOp, Word, WORD_MASK};

/// A pure expression over component outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrExpr {
    /// A literal value.
    Const(Word),
    /// A component's visible output (combinational value or memory latch).
    Output(CompId),
    /// `(land(inner, mask)) >> rshift` — a bit subfield in place.
    Field {
        /// Operand.
        inner: Box<IrExpr>,
        /// In-place mask.
        mask: Word,
        /// Low bit of the subfield.
        rshift: u8,
    },
    /// `inner << amount` — concatenation placement.
    Shl {
        /// Operand.
        inner: Box<IrExpr>,
        /// Shift distance.
        amount: u8,
    },
    /// Wrapping sum of the terms (concatenation assembly).
    Sum(Vec<IrExpr>),
    /// `mask - x` (ALU function 3).
    Not(Box<IrExpr>),
    /// `a + b` (function 4).
    Add(Box<IrExpr>, Box<IrExpr>),
    /// `a - b` (function 5).
    Sub(Box<IrExpr>, Box<IrExpr>),
    /// The iterated-doubling shift of function 6 (dynamic distance).
    ShlLoop(Box<IrExpr>, Box<IrExpr>),
    /// `a * b` (function 7).
    Mul(Box<IrExpr>, Box<IrExpr>),
    /// `land(a, b)` (function 8).
    And(Box<IrExpr>, Box<IrExpr>),
    /// Bitwise or (function 9).
    Or(Box<IrExpr>, Box<IrExpr>),
    /// Bitwise xor (function 10).
    Xor(Box<IrExpr>, Box<IrExpr>),
    /// `1` if equal (function 12).
    Eq(Box<IrExpr>, Box<IrExpr>),
    /// `1` if less (function 13).
    Lt(Box<IrExpr>, Box<IrExpr>),
    /// Full dynamic dispatch — the generic `dologic` procedure call the
    /// optimizer tries to avoid. `comp` names the ALU for runtime errors.
    Dologic {
        /// Function expression.
        funct: Box<IrExpr>,
        /// Left operand.
        left: Box<IrExpr>,
        /// Right operand.
        right: Box<IrExpr>,
        /// The ALU component (for error reporting).
        comp: CompId,
    },
}

impl IrExpr {
    /// Builds the IR for a resolved concatenation expression: one term
    /// per reference, plus the constant total when it is non-zero. A
    /// lone term (or a constant) is the expression itself; only two or
    /// more make a [`IrExpr::Sum`].
    pub fn from_rexpr(r: &RExpr) -> IrExpr {
        match (r.ops.as_slice(), r.const_total) {
            ([], total) => IrExpr::Const(total),
            ([op], 0) => term(op),
            (ops, total) => {
                let mut terms = Vec::with_capacity(ops.len() + usize::from(total != 0));
                terms.extend(ops.iter().map(term));
                if total != 0 {
                    terms.push(IrExpr::Const(total));
                }
                IrExpr::Sum(terms)
            }
        }
    }

    /// The constant value of an expression with no outputs, if foldable.
    pub fn as_const(&self) -> Option<Word> {
        match self {
            IrExpr::Const(v) => Some(*v),
            _ => None,
        }
    }

    /// Applies a constant ALU function to two IR operands, producing the
    /// specialized operator node (the §4.4 inlining).
    pub fn apply_fn(f: AluFn, left: IrExpr, right: IrExpr) -> IrExpr {
        let ctor: fn(Box<IrExpr>, Box<IrExpr>) -> IrExpr = match f {
            AluFn::Zero | AluFn::Unused => return IrExpr::Const(0),
            AluFn::Right => return right,
            AluFn::Left => return left,
            AluFn::Not => return IrExpr::Not(Box::new(left)),
            AluFn::Add => IrExpr::Add,
            AluFn::Sub => IrExpr::Sub,
            AluFn::Shl => IrExpr::ShlLoop,
            AluFn::Mul => IrExpr::Mul,
            AluFn::And => IrExpr::And,
            AluFn::Or => IrExpr::Or,
            AluFn::Xor => IrExpr::Xor,
            AluFn::Eq => IrExpr::Eq,
            AluFn::Lt => IrExpr::Lt,
        };
        ctor(Box::new(left), Box::new(right))
    }

    /// Recursively folds constant sub-expressions. `Dologic` with a
    /// constant function is *not* folded here — that is the inlining
    /// pass's job, so the two optimizations can be ablated independently.
    ///
    /// Folding works in place: a node that stays keeps its `Box`es and a
    /// [`IrExpr::Sum`] its term vector, so it allocates nothing; a node
    /// that folds to a constant frees its operands.
    pub fn fold(self) -> IrExpr {
        use IrExpr::*;
        match self {
            Const(_) | Output(_) => self,
            Field {
                mut inner,
                mask,
                rshift,
            } => match fold_in_place(&mut inner) {
                Some(v) => Const((rtl_core::land(v, mask)) >> rshift),
                None => Field {
                    inner,
                    mask,
                    rshift,
                },
            },
            Shl { mut inner, amount } => match fold_in_place(&mut inner) {
                Some(v) => Const(v.wrapping_shl(u32::from(amount))),
                None => Shl { inner, amount },
            },
            Sum(mut terms) => {
                let mut konst: Word = 0;
                terms.retain_mut(|t| match fold_in_place(t) {
                    Some(v) => {
                        konst = konst.wrapping_add(v);
                        false
                    }
                    None => true,
                });
                if terms.is_empty() {
                    Const(konst)
                } else {
                    // A non-zero constant came from a dropped term, so
                    // this push reuses its slot.
                    if konst != 0 {
                        terms.push(Const(konst));
                    }
                    if terms.len() == 1 {
                        terms.pop().expect("one term")
                    } else {
                        Sum(terms)
                    }
                }
            }
            Not(mut a) => match fold_in_place(&mut a) {
                Some(v) => Const(AluFn::Not.apply(v, 0)),
                None => Not(a),
            },
            Add(a, b) => binary(a, b, AluFn::Add, IrExpr::Add),
            Sub(a, b) => binary(a, b, AluFn::Sub, IrExpr::Sub),
            ShlLoop(a, b) => binary(a, b, AluFn::Shl, IrExpr::ShlLoop),
            Mul(a, b) => binary(a, b, AluFn::Mul, IrExpr::Mul),
            And(a, b) => binary(a, b, AluFn::And, IrExpr::And),
            Or(a, b) => binary(a, b, AluFn::Or, IrExpr::Or),
            Xor(a, b) => binary(a, b, AluFn::Xor, IrExpr::Xor),
            Eq(a, b) => binary(a, b, AluFn::Eq, IrExpr::Eq),
            Lt(a, b) => binary(a, b, AluFn::Lt, IrExpr::Lt),
            Dologic {
                mut funct,
                mut left,
                mut right,
                comp,
            } => {
                fold_in_place(&mut funct);
                fold_in_place(&mut left);
                fold_in_place(&mut right);
                Dologic {
                    funct,
                    left,
                    right,
                    comp,
                }
            }
        }
    }

    /// Counts IR nodes (used by optimization statistics and tests).
    pub fn node_count(&self) -> usize {
        use IrExpr::*;
        1 + match self {
            Const(_) | Output(_) => 0,
            Field { inner, .. } | Shl { inner, .. } | Not(inner) => inner.node_count(),
            Sum(ts) => ts.iter().map(IrExpr::node_count).sum(),
            Add(a, b)
            | Sub(a, b)
            | ShlLoop(a, b)
            | Mul(a, b)
            | And(a, b)
            | Or(a, b)
            | Xor(a, b)
            | Eq(a, b)
            | Lt(a, b) => a.node_count() + b.node_count(),
            Dologic {
                funct, left, right, ..
            } => funct.node_count() + left.node_count() + right.node_count(),
        }
    }
}

/// The term of one reference: the output, its subfield taken in place
/// and shifted to its position in the concatenation.
fn term(op: &RefOp) -> IrExpr {
    let base = IrExpr::Output(op.comp);
    match op.mode {
        RefMode::Field {
            mask,
            rshift,
            lshift,
        } => {
            let f = IrExpr::Field {
                inner: Box::new(base),
                mask,
                rshift,
            };
            shl(f, lshift)
        }
        RefMode::Raw { lshift } => shl(base, lshift),
    }
}

fn shl(e: IrExpr, amount: u8) -> IrExpr {
    if amount == 0 {
        e
    } else {
        IrExpr::Shl {
            inner: Box::new(e),
            amount,
        }
    }
}

/// Folds the expression in `slot` where it lies (its allocation is
/// reused) and returns its value if it folded to a constant.
fn fold_in_place(slot: &mut IrExpr) -> Option<Word> {
    *slot = std::mem::replace(slot, IrExpr::Const(0)).fold();
    slot.as_const()
}

fn binary(
    mut a: Box<IrExpr>,
    mut b: Box<IrExpr>,
    f: AluFn,
    ctor: fn(Box<IrExpr>, Box<IrExpr>) -> IrExpr,
) -> IrExpr {
    match (fold_in_place(&mut a), fold_in_place(&mut b)) {
        (Some(x), Some(y)) => IrExpr::Const(f.apply(x, y)),
        _ => ctor(a, b),
    }
}

/// Whether a memory emits a write/read trace line, decided at compile time
/// where possible (constant operation or too-narrow operation expression).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceDecision {
    /// The condition is constant-true: emit every cycle.
    Always,
    /// The condition can never hold: emit no code at all.
    Never,
    /// Test `op & 5 = 5` / `op & 9 = 8` at run time.
    Dynamic,
}

/// A memory's operation expression, specialized when constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpnPlan {
    /// Constant operation: the four-way dispatch disappears.
    Const(Word),
    /// Evaluated each cycle.
    Dynamic(IrExpr),
}

/// One combinational evaluation step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// `outputs[id] := expr` — an ALU (specialized or generic).
    Assign {
        /// Target component.
        id: CompId,
        /// Value expression.
        expr: IrExpr,
    },
    /// A selector: bounds-checked case dispatch.
    Select {
        /// Target component.
        id: CompId,
        /// Index expression.
        select: IrExpr,
        /// Case value expressions.
        cases: Vec<IrExpr>,
    },
}

impl Step {
    /// The component this step assigns.
    pub fn target(&self) -> CompId {
        match self {
            Step::Assign { id, .. } | Step::Select { id, .. } => *id,
        }
    }
}

/// A memory's per-cycle plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemPlan {
    /// The memory component.
    pub id: CompId,
    /// Cell count.
    pub size: u32,
    /// Address expression.
    pub addr: IrExpr,
    /// Operation (constant-specialized where possible).
    pub opn: OpnPlan,
    /// Data expression, present only when some reachable operation needs it
    /// (always for dynamic operations; writes/outputs for constant ones).
    pub data: Option<IrExpr>,
    /// Whether the output latch must be maintained (referenced by some
    /// expression, traced, or needed by trace lines). The §5.4 "future
    /// work" temp-elimination pass clears this when safe.
    pub latch_needed: bool,
    /// Write-trace emission decision.
    pub trace_write: TraceDecision,
    /// Read-trace emission decision.
    pub trace_read: TraceDecision,
}

/// The compiled form of one simulation cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleIr {
    /// Combinational steps in dependency order.
    pub steps: Vec<Step>,
    /// Memory plans in definition order.
    pub mems: Vec<MemPlan>,
    /// Components traced each cycle, in declaration order.
    pub traced: Vec<CompId>,
    /// Whether trace text is emitted at all.
    pub trace: bool,
}

impl CycleIr {
    /// Total IR node count across all steps and memory plans.
    pub fn node_count(&self) -> usize {
        let steps: usize = self
            .steps
            .iter()
            .map(|s| match s {
                Step::Assign { expr, .. } => expr.node_count(),
                Step::Select { select, cases, .. } => {
                    select.node_count() + cases.iter().map(IrExpr::node_count).sum::<usize>()
                }
            })
            .sum();
        let mems: usize = self
            .mems
            .iter()
            .map(|m| {
                m.addr.node_count()
                    + match &m.opn {
                        OpnPlan::Const(_) => 0,
                        OpnPlan::Dynamic(e) => e.node_count(),
                    }
                    + m.data.as_ref().map(IrExpr::node_count).unwrap_or(0)
            })
            .sum();
        steps + mems
    }
}

/// Re-export for backends that need the mask constant.
pub const MASK: Word = WORD_MASK;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_collapses_constants() {
        let e = IrExpr::Add(
            Box::new(IrExpr::Const(2)),
            Box::new(IrExpr::Mul(
                Box::new(IrExpr::Const(3)),
                Box::new(IrExpr::Const(4)),
            )),
        );
        assert_eq!(e.fold(), IrExpr::Const(14));
    }

    #[test]
    fn fold_keeps_dynamic_parts() {
        let d = rtl_core::Design::from_source("# f\nx .\nA x 0 0 0 .").unwrap();
        let x = d.find("x").unwrap();
        let e = IrExpr::Add(Box::new(IrExpr::Output(x)), Box::new(IrExpr::Const(0)));
        // Output + 0 is not algebraically simplified (only constant folding).
        assert_eq!(
            e.clone().fold(),
            IrExpr::Add(Box::new(IrExpr::Output(x)), Box::new(IrExpr::Const(0)))
        );
        assert_eq!(e.node_count(), 3);
    }

    #[test]
    fn fold_preserves_shift_quirk() {
        // ShlLoop(5, 0) folds to 0, not 5, per the dologic semantics.
        let e = IrExpr::ShlLoop(Box::new(IrExpr::Const(5)), Box::new(IrExpr::Const(0)));
        assert_eq!(e.fold(), IrExpr::Const(0));
    }

    #[test]
    fn sum_folding_merges_constants() {
        let d = rtl_core::Design::from_source("# f\nx .\nA x 0 0 0 .").unwrap();
        let x = d.find("x").unwrap();
        let e = IrExpr::Sum(vec![IrExpr::Const(5), IrExpr::Output(x), IrExpr::Const(7)]);
        assert_eq!(
            e.fold(),
            IrExpr::Sum(vec![IrExpr::Output(x), IrExpr::Const(12)])
        );
    }

    #[test]
    fn apply_fn_specializes() {
        let l = IrExpr::Const(1);
        let r = IrExpr::Const(2);
        assert_eq!(
            IrExpr::apply_fn(AluFn::Zero, l.clone(), r.clone()),
            IrExpr::Const(0)
        );
        assert_eq!(
            IrExpr::apply_fn(AluFn::Right, l.clone(), r.clone()),
            IrExpr::Const(2)
        );
        assert_eq!(
            IrExpr::apply_fn(AluFn::Left, l.clone(), r.clone()),
            IrExpr::Const(1)
        );
        assert!(matches!(
            IrExpr::apply_fn(AluFn::Add, l, r),
            IrExpr::Add(_, _)
        ));
    }
}
