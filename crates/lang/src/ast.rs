//! The abstract syntax tree for ASIM II specifications.
//!
//! A [`Spec`] is the parsed form of a specification file: a title comment, an
//! optional cycle count, the declared-name list (with trace markers) and the
//! component list. Expressions ([`Expr`]) are bit-concatenations of
//! [`Part`]s, most-significant part first.

use crate::expr::MAX_BIT;
use crate::number::Word;
use crate::span::Span;
use std::fmt;

/// A component or declared name: letters followed by letters and digits.
/// Names are case-sensitive, as in the original (Pascal `strcmp`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ident(String);

impl Ident {
    /// Wraps a string as an identifier **without validating it**.
    ///
    /// Invariant: the caller must guarantee the string is already a valid
    /// name — an ASCII letter followed by letters and digits — because
    /// every consumer (resolver, pretty-printer, lint) relies on it. This
    /// constructor is for strings that are valid *by construction*, such
    /// as the concatenation of two validated identifiers during module
    /// flattening; any name originating in user input (spec text,
    /// bindings, CLI arguments) must go through [`Ident::parse`] instead.
    pub fn new_unchecked(s: impl Into<String>) -> Self {
        let s = s.into();
        debug_assert!(
            Ident::parse(&s).is_some(),
            "new_unchecked called with invalid identifier {s:?}"
        );
        Ident(s)
    }

    /// Validates and wraps a name: first char a letter, rest letters/digits.
    pub fn parse(s: &str) -> Option<Self> {
        let mut chars = s.chars();
        let first = chars.next()?;
        if !first.is_ascii_alphabetic() {
            return None;
        }
        if chars.all(|c| c.is_ascii_alphanumeric()) {
            Some(Ident(s.to_string()))
        } else {
            None
        }
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl PartialEq<str> for Ident {
    fn eq(&self, other: &str) -> bool {
        self.0 == other
    }
}

impl PartialEq<&str> for Ident {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
    }
}

impl From<&str> for Ident {
    fn from(s: &str) -> Self {
        Ident(s.to_string())
    }
}

/// One element of a bit-concatenation expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Part {
    /// A numeric constant. With `width: Some(w)` the low `w` bits are taken
    /// and the part is `w` bits wide; with `None` the constant fills the
    /// remaining word (it must be the leftmost part).
    Const {
        /// The constant value (`0 ..= 2^31 - 1`).
        value: Word,
        /// Explicit width in bits, if the source had a `.width` subfield.
        width: Option<u8>,
    },
    /// A `#`-prefixed bit string: both a value and an exact width.
    Bits {
        /// The value of the bit string.
        value: Word,
        /// Number of digits in the string (1..=31).
        width: u8,
    },
    /// A reference to another component's output. `name.f` selects bit `f`;
    /// `name.f.t` selects bits `f..=t` (bit 0 is the least significant);
    /// a bare `name` fills the remaining word.
    Ref {
        /// The referenced component.
        name: Ident,
        /// Low bit of the subfield.
        from: Option<u8>,
        /// High bit of the subfield.
        to: Option<u8>,
    },
}

impl Part {
    /// A full-width constant part.
    pub fn constant(value: Word) -> Self {
        Part::Const { value, width: None }
    }

    /// A constant masked to `width` bits.
    ///
    /// `width` must be `1..=31`, as the parser enforces for `value.width`
    /// (checked in debug builds).
    pub fn sized(value: Word, width: u8) -> Self {
        debug_assert!(
            (1..=31).contains(&width),
            "constant width {width} is not between 1 and 31"
        );
        Part::Const {
            value,
            width: Some(width),
        }
    }

    /// A bit string of `width` digits.
    pub fn bits(value: Word, width: u8) -> Self {
        Part::Bits { value, width }
    }

    /// A full-width reference to `name`.
    pub fn reference(name: impl Into<Ident>) -> Self {
        Part::Ref {
            name: name.into(),
            from: None,
            to: None,
        }
    }

    /// A single-bit reference `name.bit`.
    ///
    /// `bit` must be at most [`MAX_BIT`], as the parser enforces (checked
    /// in debug builds).
    pub fn bit(name: impl Into<Ident>, bit: u8) -> Self {
        debug_assert!(bit <= MAX_BIT, "bit position {bit} exceeds {MAX_BIT}");
        Part::Ref {
            name: name.into(),
            from: Some(bit),
            to: None,
        }
    }

    /// A bit-field reference `name.from.to`.
    ///
    /// Needs `from <= to <= MAX_BIT`, as the parser enforces (checked in
    /// debug builds).
    pub fn field(name: impl Into<Ident>, from: u8, to: u8) -> Self {
        debug_assert!(
            from <= to && to <= MAX_BIT,
            "subfield {from}..={to} is not within 0..={MAX_BIT}"
        );
        Part::Ref {
            name: name.into(),
            from: Some(from),
            to: Some(to),
        }
    }

    /// The width this part contributes to a concatenation, or `None` when it
    /// fills the remaining word (31-bit semantics of the original).
    pub fn width(&self) -> Option<u8> {
        match self {
            Part::Const { width, .. } => *width,
            Part::Bits { width, .. } => Some(*width),
            Part::Ref {
                from: Some(f),
                to: Some(t),
                ..
            } => Some(t - f + 1),
            Part::Ref {
                from: Some(_),
                to: None,
                ..
            } => Some(1),
            Part::Ref { from: None, .. } => None,
        }
    }

    /// The referenced component name, if this part is a reference.
    pub fn referenced(&self) -> Option<&Ident> {
        match self {
            Part::Ref { name, .. } => Some(name),
            _ => None,
        }
    }
}

impl fmt::Display for Part {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Part::Const { value, width: None } => write!(f, "{value}"),
            Part::Const {
                value,
                width: Some(w),
            } => write!(f, "{value}.{w}"),
            Part::Bits { value, width } => {
                write!(f, "#{value:0width$b}", width = *width as usize)
            }
            Part::Ref {
                name, from: None, ..
            } => write!(f, "{name}"),
            Part::Ref {
                name,
                from: Some(a),
                to: None,
            } => write!(f, "{name}.{a}"),
            Part::Ref {
                name,
                from: Some(a),
                to: Some(b),
            } => write!(f, "{name}.{a}.{b}"),
        }
    }
}

/// A bit-concatenation expression; `parts[0]` is the most significant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Expr {
    /// The parts, most significant first. Never empty.
    pub parts: Vec<Part>,
    /// Source location of the expression token.
    pub span: Span,
}

impl Expr {
    /// Builds an expression from parts (most significant first).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn from_parts(parts: Vec<Part>) -> Self {
        assert!(!parts.is_empty(), "an expression needs at least one part");
        Expr {
            parts,
            span: Span::default(),
        }
    }

    /// A single-part expression.
    pub fn single(part: Part) -> Self {
        Expr::from_parts(vec![part])
    }

    /// A constant expression.
    pub fn constant(value: Word) -> Self {
        Expr::single(Part::constant(value))
    }

    /// A bare reference expression.
    pub fn reference(name: impl Into<Ident>) -> Self {
        Expr::single(Part::reference(name))
    }

    /// Iterates over every referenced component name.
    pub fn references(&self) -> impl Iterator<Item = &Ident> {
        self.parts.iter().filter_map(Part::referenced)
    }

    /// `true` if the expression contains no component references.
    pub fn is_constant(&self) -> bool {
        self.parts.iter().all(|p| p.referenced().is_none())
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, p) in self.parts.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

/// An ALU component: `A name function left right`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alu {
    /// Selects one of the 14 ALU functions (Appendix A).
    pub funct: Expr,
    /// Left operand.
    pub left: Expr,
    /// Right operand.
    pub right: Expr,
}

/// A selector (multiplexor): `S name selector value0 ... valuen`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selector {
    /// The index expression.
    pub select: Expr,
    /// The case values; index `i` selects `cases[i]`.
    pub cases: Vec<Expr>,
}

/// A memory: `M name address data operation number [initial values]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Memory {
    /// Cell address (0-based).
    pub addr: Expr,
    /// Value stored on write / emitted on output.
    pub data: Expr,
    /// Operation word: `op & 3` is read/write/input/output, `op & 4` traces
    /// writes, `op & 8` traces reads.
    pub opn: Expr,
    /// Number of cells (always positive here; a negative count in the
    /// source sets `init`).
    pub size: u32,
    /// Initial cell values, when the source used a negative count.
    pub init: Option<Vec<Word>>,
}

/// What kind of component a [`Component`] is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComponentKind {
    /// Arithmetic/logic unit.
    Alu(Alu),
    /// Multiplexor.
    Selector(Selector),
    /// Memory, register or I/O port.
    Memory(Memory),
}

impl ComponentKind {
    /// The component letter used in source text.
    pub fn letter(&self) -> char {
        match self {
            ComponentKind::Alu(_) => 'A',
            ComponentKind::Selector(_) => 'S',
            ComponentKind::Memory(_) => 'M',
        }
    }

    /// Iterates over every expression inside the component, in source order.
    pub fn expressions(&self) -> Vec<&Expr> {
        match self {
            ComponentKind::Alu(a) => vec![&a.funct, &a.left, &a.right],
            ComponentKind::Selector(s) => {
                let mut v = vec![&s.select];
                v.extend(s.cases.iter());
                v
            }
            ComponentKind::Memory(m) => vec![&m.addr, &m.data, &m.opn],
        }
    }
}

/// A named component definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// The component name (also its output net).
    pub name: Ident,
    /// The definition.
    pub kind: ComponentKind,
    /// Source location of the defining tokens.
    pub span: Span,
}

/// An entry of the declared-name list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Declared {
    /// The declared name.
    pub name: Ident,
    /// `true` if the name carried a `*` (traced every cycle).
    pub traced: bool,
    /// Source location.
    pub span: Span,
}

/// A parsed specification file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    /// The first line of the file (starts with `#`).
    pub title: String,
    /// The `= n` cycle count, if present.
    pub cycles: Option<Word>,
    /// The declared-name list, in order (trace output follows this order).
    pub declared: Vec<Declared>,
    /// The components, in definition order (memory update order).
    pub components: Vec<Component>,
}

impl Spec {
    /// Looks up a component by name (first definition wins, as in the
    /// original `findname`).
    pub fn component(&self, name: &str) -> Option<&Component> {
        self.components.iter().find(|c| c.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ident_validation() {
        assert!(Ident::parse("alu").is_some());
        assert!(Ident::parse("r2d2").is_some());
        assert!(Ident::parse("2r").is_none());
        assert!(Ident::parse("").is_none());
        assert!(Ident::parse("a-b").is_none());
        assert!(Ident::parse("a.b").is_none());
    }

    #[test]
    fn part_widths() {
        assert_eq!(Part::constant(5).width(), None);
        assert_eq!(Part::sized(5, 4).width(), Some(4));
        assert_eq!(Part::bits(1, 2).width(), Some(2));
        assert_eq!(Part::reference("x").width(), None);
        assert_eq!(Part::bit("x", 3).width(), Some(1));
        assert_eq!(Part::field("x", 3, 4).width(), Some(2));
    }

    #[test]
    fn display_round_trip_texts() {
        assert_eq!(Part::constant(7).to_string(), "7");
        assert_eq!(Part::sized(7, 4).to_string(), "7.4");
        assert_eq!(Part::bits(1, 2).to_string(), "#01");
        assert_eq!(Part::bit("count", 1).to_string(), "count.1");
        assert_eq!(Part::field("mem", 3, 4).to_string(), "mem.3.4");

        // Figure 3.1: `mem.3.4, #01, count.1` (without blanks in tokens).
        let e = Expr::from_parts(vec![
            Part::field("mem", 3, 4),
            Part::bits(1, 2),
            Part::bit("count", 1),
        ]);
        assert_eq!(e.to_string(), "mem.3.4,#01,count.1");
    }

    #[test]
    fn expr_references() {
        let e = Expr::from_parts(vec![
            Part::field("mem", 3, 4),
            Part::bits(1, 2),
            Part::bit("count", 1),
        ]);
        let refs: Vec<_> = e.references().map(Ident::as_str).collect();
        assert_eq!(refs, ["mem", "count"]);
        assert!(!e.is_constant());
        assert!(Expr::constant(3).is_constant());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "constant width 0")]
    fn sized_part_rejects_zero_width() {
        let _ = Part::sized(1, 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "bit position 31")]
    fn bit_part_rejects_position_past_30() {
        let _ = Part::bit("x", 31);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "subfield 4..=3")]
    fn field_part_rejects_reversed_range() {
        let _ = Part::field("x", 4, 3);
    }

    #[test]
    #[should_panic(expected = "at least one part")]
    fn empty_expr_panics() {
        let _ = Expr::from_parts(vec![]);
    }
}
