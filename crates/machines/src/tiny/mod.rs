//! The tiny computer of Appendix F.
//!
//! "A small 10 bit microprocessor with five instructions (load, store,
//! branch, branch on borrow, and subtract) and 128 bytes of program and
//! data memory" (§5.3). The opcode lives in bits 7–9 of the instruction
//! word and the operand address in bits 0–6 — the thesis's macros `~LD
//! 256 ~ST 384 ~BB 512 ~BR 640 ~SU 768` are exactly `opcode << 7`.
//!
//! Like the stack machine, the tiny computer exists at two levels: an
//! instruction-set simulator ([`iss`]) and a four-phase RTL implementation
//! ([`rtl`]), cross-checked cell-for-cell by the test suite.

pub mod iss;
pub mod rtl;

use rtl_core::Word;

/// Memory size in words.
pub const MEM_WORDS: usize = 128;

/// The accumulator is masked to 11 bits on every update (the Appendix F
/// specification writes `alu.0.10` into `ac`).
pub const AC_MASK: Word = 0x7FF;

/// The five opcodes (instruction-word bits 7–9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TinyOp {
    /// `ac := mem[addr]`.
    Ld = 2,
    /// `mem[addr] := ac`.
    St = 3,
    /// `if borrow then pc := addr`.
    Bb = 4,
    /// `pc := addr`.
    Br = 5,
    /// `borrow := ac < mem[addr]; ac := (ac - mem[addr]) & 0x7FF`.
    Su = 6,
}

impl TinyOp {
    /// Encodes an instruction word: `opcode << 7 | addr`.
    pub fn word(self, addr: Word) -> Word {
        assert!((0..128).contains(&addr), "address {addr} out of range");
        ((self as Word) << 7) | addr
    }

    /// Decodes bits 7–9; `None` for the undefined opcodes (which the
    /// machine treats as no-ops).
    pub fn decode(word: Word) -> Option<TinyOp> {
        match (word >> 7) & 7 {
            2 => Some(TinyOp::Ld),
            3 => Some(TinyOp::St),
            4 => Some(TinyOp::Bb),
            5 => Some(TinyOp::Br),
            6 => Some(TinyOp::Su),
            _ => None,
        }
    }
}

/// Data addresses used by the demo programs.
pub mod layout {
    /// Dividend / remainder.
    pub const A: i64 = 20;
    /// Divisor.
    pub const B: i64 = 21;
    /// Quotient.
    pub const Q: i64 = 22;
    /// The constant 2047 ≡ −1 (mod 2¹¹): subtracting it increments.
    pub const INC: i64 = 23;
}

/// Builds the 128-word memory image for the division demo: computes
/// `q := a div b` and `a := a mod b` by repeated subtraction, using the
/// subtract-2047 trick to increment (the machine has no add).
pub fn divider_image(a: Word, b: Word) -> Vec<Word> {
    assert!((0..=1000).contains(&a) && (1..=1000).contains(&b));
    use TinyOp::*;
    let mut mem = vec![0i64; MEM_WORDS];
    let code = [
        Ld.word(layout::A),   // 0: ac := a
        Su.word(layout::B),   // 1: ac := a - b, borrow := a < b
        Bb.word(8),           // 2: borrow? done
        St.word(layout::A),   // 3: a := ac
        Ld.word(layout::Q),   // 4: ac := q
        Su.word(layout::INC), // 5: ac := q + 1 (mod 2^11)
        St.word(layout::Q),   // 6: q := ac
        Br.word(0),           // 7: loop
        Br.word(8),           // 8: done: spin
    ];
    mem[..code.len()].copy_from_slice(&code);
    mem[layout::A as usize] = a;
    mem[layout::B as usize] = b;
    mem[layout::Q as usize] = 0;
    mem[layout::INC as usize] = 2047;
    mem
}

/// Builds a countdown image: decrements `a` until it borrows, leaving the
/// loop-trip count in `q`.
pub fn countdown_image(a: Word) -> Vec<Word> {
    divider_image(a, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_words_match_thesis_macros() {
        // ~LD 256 ~ST 384 ~BB 512 ~BR 640 ~SU 768
        assert_eq!(TinyOp::Ld.word(0), 256);
        assert_eq!(TinyOp::St.word(0), 384);
        assert_eq!(TinyOp::Bb.word(0), 512);
        assert_eq!(TinyOp::Br.word(0), 640);
        assert_eq!(TinyOp::Su.word(0), 768);
        assert_eq!(
            TinyOp::Ld.word(30),
            286,
            "LD+30 from the Appendix F listing"
        );
    }

    #[test]
    fn decode_round_trips() {
        for op in [TinyOp::Ld, TinyOp::St, TinyOp::Bb, TinyOp::Br, TinyOp::Su] {
            assert_eq!(TinyOp::decode(op.word(99)), Some(op));
        }
        assert_eq!(TinyOp::decode(0), None);
        assert_eq!(TinyOp::decode(7 << 7), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn address_range_checked() {
        TinyOp::Ld.word(128);
    }
}
