//! Output-width inference.
//!
//! The original compiler had a token-level `numberofbits` used to decide
//! whether a memory's operation expression could ever set the trace bits.
//! This module provides a proper monotone fixpoint inference over the
//! design: every component gets a width in `1..=31`, used by the hardware
//! netlister (to size flip-flops, adders and multiplexors like the
//! Appendix F parts list) and by code generators for trace-emission
//! decisions.

use crate::design::{Design, RKind};
use crate::word::{AluFn, Word};
use rtl_lang::{ComponentKind, Part};

/// Bits needed to represent a non-negative value (at least 1, capped at 31).
pub fn bits_needed(value: Word) -> u8 {
    if value <= 0 {
        1
    } else {
        (64 - value.leading_zeros()).min(31) as u8
    }
}

/// Infers output widths for every component, indexed by
/// [`CompId::index`](crate::resolve::CompId::index).
///
/// The inference is a monotone fixpoint: widths start at 1 and only grow,
/// so it terminates in at most `31 × n` rounds (bounded far lower in
/// practice).
///
/// ```
/// let d = rtl_core::Design::from_source(
///     "# w\nc n .\nM c 0 n 1 1\nA n 4 c 1 .",
/// ).unwrap();
/// let w = rtl_core::width::infer(&d);
/// // The counter feeds back through a +1 adder: both saturate at 31 bits.
/// assert_eq!(w[d.find("c").unwrap().index()], 31);
/// ```
pub fn infer(design: &Design) -> Vec<u8> {
    let n = design.len();
    let mut widths = vec![1u8; n];
    // Each round can only increase widths; cap rounds defensively.
    for _ in 0..(31 * n.max(1)) {
        let mut changed = false;
        for (id, comp) in design.iter() {
            let w = component_width(design, &comp.kind, &design.source(id).kind, &widths);
            if w > widths[id.index()] {
                widths[id.index()] = w;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    widths
}

/// The width of one component: `kind` is its resolved form, `source` the
/// parsed one the operand widths are read from.
fn component_width(design: &Design, kind: &RKind, source: &ComponentKind, widths: &[u8]) -> u8 {
    match (kind, source) {
        (RKind::Alu(a), ComponentKind::Alu(s)) => {
            let lw = expr_width(design, &s.left, widths);
            let rw = expr_width(design, &s.right, widths);
            match a.funct.as_constant().and_then(AluFn::from_word) {
                Some(AluFn::Zero) | Some(AluFn::Unused) => 1,
                Some(AluFn::Right) => rw,
                Some(AluFn::Left) => lw,
                Some(AluFn::Not) => 31,
                Some(AluFn::Add) | Some(AluFn::Sub) => add_bit(lw.max(rw)),
                Some(AluFn::Shl) => 31,
                Some(AluFn::Mul) => (u32::from(lw) + u32::from(rw)).min(31) as u8,
                Some(AluFn::And) => lw.min(rw),
                Some(AluFn::Or) | Some(AluFn::Xor) => lw.max(rw),
                Some(AluFn::Eq) | Some(AluFn::Lt) => 1,
                None => 31, // dynamic function: anything is possible
            }
        }
        (RKind::Selector(_), ComponentKind::Selector(s)) => s
            .cases
            .iter()
            .map(|c| expr_width(design, c, widths))
            .max()
            .unwrap_or(1),
        (RKind::Memory(m), ComponentKind::Memory(s)) => {
            let data = expr_width(design, &s.data, widths);
            let init = m.init.iter().copied().map(bits_needed).max().unwrap_or(1);
            data.max(init)
        }
        _ => unreachable!("a resolved component keeps the kind of its source"),
    }
}

fn add_bit(w: u8) -> u8 {
    w.saturating_add(1).min(31)
}

/// Width of a concatenation expression given current component widths.
pub fn expr_width(design: &Design, expr: &rtl_lang::Expr, widths: &[u8]) -> u8 {
    let mut total: u32 = 0;
    for part in &expr.parts {
        total += match part {
            Part::Const { value, width: None } => u32::from(bits_needed(*value)),
            Part::Const { width: Some(w), .. } => u32::from(*w),
            Part::Bits { width, .. } => u32::from(*width),
            Part::Ref {
                name, from: None, ..
            } => design
                .find(name.as_str())
                .map(|id| u32::from(widths[id.index()]))
                .unwrap_or(31),
            Part::Ref {
                from: Some(f), to, ..
            } => u32::from(to.unwrap_or(*f)) - u32::from(*f) + 1,
        };
    }
    total.clamp(1, 31) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    fn widths_of(src: &str) -> (Design, Vec<u8>) {
        let d = Design::from_source(src).unwrap();
        let w = infer(&d);
        (d, w)
    }

    fn width(src: &str, name: &str) -> u8 {
        let (d, w) = widths_of(src);
        w[d.find(name).unwrap().index()]
    }

    #[test]
    fn bits_needed_basics() {
        assert_eq!(bits_needed(0), 1);
        assert_eq!(bits_needed(1), 1);
        assert_eq!(bits_needed(2), 2);
        assert_eq!(bits_needed(255), 8);
        assert_eq!(bits_needed(256), 9);
        assert_eq!(bits_needed(-5), 1);
        assert_eq!(bits_needed(i64::MAX), 31, "capped");
    }

    #[test]
    fn register_width_follows_its_data() {
        // 4-bit field written into a register.
        assert_eq!(width("# w\nr m .\nM r 0 m.0.3 1 1\nM m 0 0 0 4 .", "r"), 4);
    }

    #[test]
    fn comparator_is_one_bit() {
        assert_eq!(width("# w\nc m .\nA c 12 m m\nM m 0 0 0 4 .", "c"), 1);
    }

    #[test]
    fn selector_takes_max_case_width() {
        assert_eq!(
            width("# w\ns m .\nS s m.0 m.0.2 m.0.6\nM m 0 0 0 4 .", "s"),
            7
        );
    }

    #[test]
    fn init_values_widen_roms() {
        assert_eq!(width("# w\nm .\nM m 0 0 0 -3 1 900 2 .", "m"), 10);
    }

    #[test]
    fn feedback_saturates() {
        // A counter with no mask grows to the full word.
        assert_eq!(width("# w\nc n .\nM c 0 n 1 1\nA n 4 c 1 .", "c"), 31);
    }

    #[test]
    fn masked_feedback_stays_narrow() {
        // A counter masked to two bits stays at 3 (add produces carry bit).
        assert_eq!(width("# w\nc n .\nM c 0 n 1 1\nA n 4 c.0.1 1 .", "n"), 3);
    }

    #[test]
    fn dynamic_alu_function_is_full_width() {
        assert_eq!(width("# w\na m .\nA a m m m\nM m 0 0 0 2 .", "a"), 31);
    }
}
