//! Postfix ("polish string") programs — the interpreter's table format.
//!
//! ASIM, the predecessor this crate reproduces, "reads the specification
//! into tables, and produces a simulation run by interpreting the symbols
//! in the table" (§3.1); CDL, its ancestor, translated descriptions into "a
//! set of tables and a polish string program" (§2.1.1). We follow that
//! design: every expression becomes a flat postfix program evaluated with
//! an operand stack, re-dispatched on every cycle — deliberately *not*
//! specialized, because this engine is the paper's interpreted baseline.

use crate::lookup::SymbolTable;
use rtl_core::{land, CompId, RExpr, RefMode, Word};

/// One postfix operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Push a constant.
    Const(Word),
    /// Push a component's current output (combinational value or latch).
    Load(CompId),
    /// Pop, extract a bit field (`(v & mask) >> rshift << lshift`), push.
    Field {
        /// In-place mask of the subfield.
        mask: Word,
        /// Subfield low bit.
        rshift: u8,
        /// Concatenation position.
        lshift: u8,
    },
    /// Pop, shift left (bare reference placed mid-concatenation), push.
    Shift {
        /// Concatenation position.
        lshift: u8,
    },
    /// Pop `n` values, push their (wrapping) sum.
    Sum(u16),
}

/// A compiled postfix program; evaluation leaves exactly one value.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    ops: Vec<Op>,
}

impl Program {
    /// Translates a resolved expression into postfix form.
    pub fn from_rexpr(expr: &RExpr) -> Program {
        let mut ops = Vec::with_capacity(expr.ops.len() * 2 + 2);
        for r in &expr.ops {
            ops.push(Op::Load(r.comp));
            match r.mode {
                RefMode::Field {
                    mask,
                    rshift,
                    lshift,
                } => {
                    ops.push(Op::Field {
                        mask,
                        rshift,
                        lshift,
                    });
                }
                RefMode::Raw { lshift } => {
                    if lshift != 0 {
                        ops.push(Op::Shift { lshift });
                    }
                }
            }
        }
        let terms = expr.ops.len() + usize::from(expr.const_total != 0 || expr.ops.is_empty());
        if expr.const_total != 0 || expr.ops.is_empty() {
            ops.push(Op::Const(expr.const_total));
        }
        if terms > 1 {
            ops.push(Op::Sum(terms as u16));
        }
        Program { ops }
    }

    /// Number of operations (table size; reported by `asim check -v`).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the program is empty (never the case for real expressions).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Evaluates against the output array using `stack` as scratch space.
    /// With `symbols: Some(table)` every load re-resolves its reference by
    /// scanning the name table (the 1986 `findname` discipline — see
    /// [`LookupMode`](crate::lookup::LookupMode)); with `None` loads use
    /// their pre-resolved indices.
    ///
    /// # Panics
    ///
    /// Panics on malformed programs (cannot happen for programs built by
    /// [`Program::from_rexpr`]).
    #[inline]
    pub fn eval(
        &self,
        outputs: &[Word],
        stack: &mut Vec<Word>,
        symbols: Option<&SymbolTable>,
    ) -> Word {
        stack.clear();
        for op in &self.ops {
            match *op {
                Op::Const(c) => stack.push(c),
                Op::Load(id) => {
                    let index = match symbols {
                        None => id.index(),
                        Some(table) => table.find(table.name(id.index())),
                    };
                    stack.push(outputs[index]);
                }
                Op::Field {
                    mask,
                    rshift,
                    lshift,
                } => {
                    let v = stack.pop().expect("operand for field");
                    stack.push((land(v, mask) >> rshift) << lshift);
                }
                Op::Shift { lshift } => {
                    let v = stack.pop().expect("operand for shift");
                    stack.push(v.wrapping_shl(u32::from(lshift)));
                }
                Op::Sum(n) => {
                    let mut total: Word = 0;
                    for _ in 0..n {
                        total = total.wrapping_add(stack.pop().expect("operand for sum"));
                    }
                    stack.push(total);
                }
            }
        }
        stack.pop().expect("program result")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtl_core::resolve::resolve_expr;
    use rtl_lang::{parse_expr, Ident, Span};
    use std::collections::HashMap;

    fn compile(text: &str, names: &[&str]) -> Program {
        let table: HashMap<Ident, CompId> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (Ident::from(*n), crate::postfix::tests::id(i)))
            .collect();
        let e = parse_expr(text, Span::default()).unwrap();
        let r = resolve_expr(&e, &table, "test").unwrap();
        Program::from_rexpr(&r)
    }

    // CompId has a crate-private constructor in rtl-core; go through a
    // design-free back door for tests: build ids by index via a dummy design.
    pub(crate) fn id(index: usize) -> CompId {
        // Build a design with enough components and pull ids from it.
        let mut names = String::new();
        let mut comps = String::new();
        for i in 0..=index {
            names.push_str(&format!("c{i} "));
            comps.push_str(&format!("A c{i} 0 0 0\n"));
        }
        let src = format!("# ids\n{names}.\n{comps}.");
        let d = rtl_core::Design::from_source(&src).unwrap();
        d.find(&format!("c{index}")).unwrap()
    }

    fn eval(p: &Program, outputs: &[Word]) -> Word {
        let mut stack = Vec::new();
        p.eval(outputs, &mut stack, None)
    }

    #[test]
    fn constant_program() {
        let p = compile("42", &[]);
        assert_eq!(eval(&p, &[]), 42);
        let p = compile("0", &[]);
        assert_eq!(eval(&p, &[]), 0);
    }

    #[test]
    fn field_extraction() {
        let p = compile("ir.0.3", &["ir"]);
        assert_eq!(eval(&p, &[0b10110]), 0b0110);
    }

    #[test]
    fn concatenation_matches_rexpr_eval() {
        let p = compile("mem.3.4,#01,count.1", &["mem", "count"]);
        assert_eq!(eval(&p, &[0b11000, 0b10]), 0b11011);
    }

    #[test]
    fn raw_negative_passthrough() {
        let p = compile("neg", &["neg"]);
        assert_eq!(eval(&p, &[-9]), -9);
    }

    #[test]
    fn mid_concat_raw_shift() {
        let p = compile("x,#01", &["x"]);
        assert_eq!(eval(&p, &[3]), 13);
    }
}
