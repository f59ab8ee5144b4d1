//! Resolved expressions: name references bound to component ids, bit
//! subfields lowered to mask/shift operations.
//!
//! A parsed [`rtl_lang::Expr`] is a list of concatenation parts. At
//! elaboration time each part becomes either a constant contribution
//! (folded into [`RExpr::const_total`]) or a [`RefOp`] that extracts a bit
//! field from another component's output and places it at the part's
//! position, exactly mirroring the arithmetic the original compiler
//! emitted (`land(x, bits) div 2^from * 2^pos`).

use crate::error::ElabError;
use crate::word::{land, Word};
use rtl_lang::{Expr, Ident, Part};
use std::collections::HashMap;

/// Identifies a component within a [`Design`](crate::design::Design); the
/// index follows definition order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CompId(u32);

impl CompId {
    pub(crate) fn new(index: usize) -> Self {
        CompId(index as u32)
    }

    /// The definition-order index of the component.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for CompId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// How a reference extracts bits from the target's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefMode {
    /// `(value & mask) >> rshift << lshift` — a `.from[.to]` subfield.
    Field {
        /// Mask covering bits `from..=to` in place.
        mask: Word,
        /// The subfield's low bit (`from`).
        rshift: u8,
        /// Position of the part in the concatenation.
        lshift: u8,
    },
    /// `value << lshift` — a bare reference (no masking; negative values
    /// pass through, as in the original).
    Raw {
        /// Position of the part in the concatenation.
        lshift: u8,
    },
}

/// One resolved reference inside an expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefOp {
    /// The referenced component.
    pub comp: CompId,
    /// Bit extraction and placement.
    pub mode: RefMode,
}

impl RefOp {
    /// Extracts and places this reference's contribution given the
    /// referenced component's current output value.
    #[inline]
    pub fn apply(&self, value: Word) -> Word {
        match self.mode {
            RefMode::Field {
                mask,
                rshift,
                lshift,
            } => ((land(value, mask)) >> rshift) << lshift,
            RefMode::Raw { lshift } => value.wrapping_shl(lshift as u32),
        }
    }
}

/// A resolved expression: a constant plus a sum of shifted bit fields.
///
/// It holds only what evaluation needs. The parsed expression it was
/// resolved from stays in the design's [`Spec`](rtl_lang::Spec), in the
/// same slot of the same component (see
/// [`Design::source`](crate::design::Design::source)), so a design keeps
/// one copy of each expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RExpr {
    /// Sum of all constant parts, pre-shifted into position.
    pub const_total: Word,
    /// The reference parts.
    pub ops: Vec<RefOp>,
    /// Width of the concatenation in bits (31 when a full-width part is
    /// present).
    pub width: u8,
}

impl RExpr {
    /// `true` if the expression has no component references.
    pub fn is_constant(&self) -> bool {
        self.ops.is_empty()
    }

    /// The constant value, if [`RExpr::is_constant`].
    pub fn as_constant(&self) -> Option<Word> {
        self.is_constant().then_some(self.const_total)
    }

    /// Evaluates against `outputs`, the per-component output array
    /// (combinational values and memory latches alike).
    #[inline]
    pub fn eval(&self, outputs: &[Word]) -> Word {
        let mut total = self.const_total;
        for op in &self.ops {
            total = total.wrapping_add(op.apply(outputs[op.comp.index()]));
        }
        total
    }

    /// Iterates over the referenced component ids.
    pub fn comps(&self) -> impl Iterator<Item = CompId> + '_ {
        self.ops.iter().map(|o| o.comp)
    }
}

/// Resolves a parsed expression against the name table.
///
/// `referrer` names the component being elaborated (for diagnostics).
///
/// # Errors
///
/// * [`ElabError::ComponentNotFound`] for unknown names.
/// * [`ElabError::TooManyBits`] when the concatenation exceeds 31 bits —
///   including a full-width part that is not leftmost with nothing but
///   room behind it.
pub fn resolve_expr(
    expr: &Expr,
    names: &HashMap<Ident, CompId>,
    referrer: &str,
) -> Result<RExpr, ElabError> {
    let too_many = || ElabError::TooManyBits {
        expr: expr.to_string(),
        span: expr.span,
    };

    let mut const_total: Word = 0;
    let mut ops = Vec::new();
    let mut pos: u32 = 0; // `numbits` of the original

    for part in expr.parts.iter().rev() {
        match part {
            Part::Const { value, width } => match width {
                Some(w) => {
                    let w = u32::from(*w);
                    let mask = (1i64 << w) - 1;
                    const_total += (value & mask) << pos;
                    pos += w;
                }
                None => {
                    if pos > 30 {
                        return Err(too_many());
                    }
                    const_total += value << pos;
                    pos = 31;
                }
            },
            Part::Bits { value, width } => {
                const_total += value << pos.min(62);
                pos += u32::from(*width);
            }
            Part::Ref { name, from, to } => {
                let comp =
                    *names
                        .get(name.as_str())
                        .ok_or_else(|| ElabError::ComponentNotFound {
                            name: name.as_str().to_string(),
                            referrer: referrer.to_string(),
                            span: expr.span,
                        })?;
                match from {
                    Some(f) => {
                        let f = u32::from(*f);
                        let t = to.map(u32::from).unwrap_or(f);
                        debug_assert!(f <= t && t <= 30, "parser validated subfields");
                        let mask = (((1i64 << (t - f + 1)) - 1) << f) as Word;
                        ops.push(RefOp {
                            comp,
                            mode: RefMode::Field {
                                mask,
                                rshift: f as u8,
                                lshift: pos.min(62) as u8,
                            },
                        });
                        pos += t - f + 1;
                    }
                    None => {
                        if pos > 30 {
                            return Err(too_many());
                        }
                        ops.push(RefOp {
                            comp,
                            mode: RefMode::Raw { lshift: pos as u8 },
                        });
                        pos = 31;
                    }
                }
            }
        }
        if pos > 31 {
            return Err(too_many());
        }
    }

    Ok(RExpr {
        const_total,
        ops,
        width: pos.min(31) as u8,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtl_lang::{parse_expr, Span};

    fn names(list: &[&str]) -> HashMap<Ident, CompId> {
        list.iter()
            .enumerate()
            .map(|(i, n)| (Ident::from(*n), CompId::new(i)))
            .collect()
    }

    fn resolve(text: &str, tbl: &[&str]) -> Result<RExpr, ElabError> {
        let e = parse_expr(text, Span::default()).unwrap();
        resolve_expr(&e, &names(tbl), "test")
    }

    #[test]
    fn constant_folding() {
        let r = resolve("42", &[]).unwrap();
        assert_eq!(r.as_constant(), Some(42));
        assert_eq!(r.width, 31);

        // `1,rom.12,prog.0.3` from the thesis: constant 1 lands at bit 5.
        let r = resolve("1,rom.12,prog.0.3", &["rom", "prog"]).unwrap();
        assert_eq!(r.const_total, 32);
        assert_eq!(r.ops.len(), 2);
        assert_eq!(r.width, 31);
    }

    #[test]
    fn figure_3_1_semantics() {
        // `mem.3.4,#01,count.1`: with mem = 0b11000 (bits 3,4 set) and
        // count = 0b10 (bit 1 set) the result is 1 1 0 1 1 = 27.
        let r = resolve("mem.3.4,#01,count.1", &["mem", "count"]).unwrap();
        let outputs = [0b11000, 0b10];
        assert_eq!(r.eval(&outputs), 0b11011);
        assert_eq!(r.width, 5);
    }

    #[test]
    fn appendix_e_op_selector_index() {
        // `ir.0.3` compiles to `land(tempir, 15)` — mask 15, no shifts.
        let r = resolve("ir.0.3", &["ir"]).unwrap();
        assert_eq!(r.ops.len(), 1);
        assert_eq!(
            r.ops[0].mode,
            RefMode::Field {
                mask: 15,
                rshift: 0,
                lshift: 0
            }
        );
        assert_eq!(r.eval(&[0b10110]), 0b0110);
    }

    #[test]
    fn appendix_e_exit_alu_funct() {
        // `%110,rom.8` compiles to `land(rom, 256) div 256 + 12`.
        let r = resolve("%110,rom.8", &["rom"]).unwrap();
        assert_eq!(r.const_total, 12);
        assert_eq!(r.eval(&[0]), 12);
        assert_eq!(r.eval(&[256]), 13);
    }

    #[test]
    fn sized_constants_mask() {
        let r = resolve("255.4", &[]).unwrap();
        assert_eq!(r.as_constant(), Some(15));
        assert_eq!(r.width, 4);
        // Concatenation: `1.2,3.2` = 0b01_11.
        let r = resolve("1.2,3.2", &[]).unwrap();
        assert_eq!(r.as_constant(), Some(0b0111));
    }

    #[test]
    fn raw_refs_pass_negative_values() {
        let r = resolve("neg", &["neg"]).unwrap();
        assert_eq!(r.eval(&[-7]), -7);
    }

    #[test]
    fn raw_ref_in_mid_concat_shifts() {
        // `x,#01`: x fills bits 2.. — value multiplied by 4.
        let r = resolve("x,#01", &["x"]).unwrap();
        assert_eq!(r.eval(&[3]), 3 * 4 + 1);
    }

    #[test]
    fn unknown_name_is_reported_with_referrer() {
        let err = resolve("ghost.0", &[]).unwrap_err();
        match err {
            ElabError::ComponentNotFound { name, referrer, .. } => {
                assert_eq!(name, "ghost");
                assert_eq!(referrer, "test");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn too_many_bits() {
        // 32 one-bit fields over 31 bits.
        let text = (0..32).map(|_| "x.0").collect::<Vec<_>>().join(",");
        assert!(matches!(
            resolve(&text, &["x"]).unwrap_err(),
            ElabError::TooManyBits { .. }
        ));
        // Two full-width parts.
        assert!(matches!(
            resolve("x,y", &["x", "y"]).unwrap_err(),
            ElabError::TooManyBits { .. }
        ));
        // A full-width constant behind a full-width ref.
        assert!(matches!(
            resolve("5,x", &["x"]).unwrap_err(),
            ElabError::TooManyBits { .. }
        ));
        // Exactly 31 bits is fine.
        let text = (0..31).map(|_| "x.0").collect::<Vec<_>>().join(",");
        assert_eq!(resolve(&text, &["x"]).unwrap().width, 31);
    }

    #[test]
    fn eval_concatenates_left_to_right_msb_first() {
        // `a.0.1,b.0.1` → a in bits 2..3, b in bits 0..1.
        let r = resolve("a.0.1,b.0.1", &["a", "b"]).unwrap();
        assert_eq!(r.eval(&[0b10, 0b01]), 0b1001);
    }
}
