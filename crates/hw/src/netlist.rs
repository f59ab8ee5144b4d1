//! Netlist extraction.
//!
//! "Essentially, ASIM II is a list of hardware components with the wiring
//! interconnection specified by the names of the components and their bit
//! fields" (§5.3). This module makes that wiring explicit: every reference
//! inside a component's expressions becomes a [`Net`] from the producer to
//! the consuming port, carrying its bit range.

use rtl_core::{CompId, Design};
use rtl_lang::{ComponentKind, Expr, Part};

/// Which input port of a component a net drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortRole {
    /// ALU function select.
    Funct,
    /// ALU left operand.
    Left,
    /// ALU right operand.
    Right,
    /// Selector index.
    Select,
    /// Selector case input `n`.
    Case(usize),
    /// Memory address.
    Addr,
    /// Memory data-in.
    Data,
    /// Memory operation.
    Opn,
}

impl std::fmt::Display for PortRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PortRole::Funct => f.write_str("funct"),
            PortRole::Left => f.write_str("left"),
            PortRole::Right => f.write_str("right"),
            PortRole::Select => f.write_str("select"),
            PortRole::Case(n) => write!(f, "case{n}"),
            PortRole::Addr => f.write_str("addr"),
            PortRole::Data => f.write_str("data"),
            PortRole::Opn => f.write_str("opn"),
        }
    }
}

/// The bit range a net carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitRange {
    /// The full output bus.
    Full,
    /// A single bit.
    Bit(u8),
    /// Bits `from ..= to`.
    Field(u8, u8),
}

impl std::fmt::Display for BitRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BitRange::Full => f.write_str("[*]"),
            BitRange::Bit(b) => write!(f, "[{b}]"),
            BitRange::Field(a, b) => write!(f, "[{a}..{b}]"),
        }
    }
}

/// One wire bundle: producer output bits into a consumer port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Net {
    /// Producing component.
    pub from: CompId,
    /// Consuming component.
    pub to: CompId,
    /// Consumer port.
    pub role: PortRole,
    /// Bits taken from the producer.
    pub bits: BitRange,
}

/// The extracted netlist plus inferred output widths.
#[derive(Debug, Clone)]
pub struct Netlist {
    /// All nets, in definition order of the consuming component.
    pub nets: Vec<Net>,
    /// Output width of each component (indexed by `CompId::index`).
    pub widths: Vec<u8>,
}

impl Netlist {
    /// Extracts the netlist of a design.
    ///
    /// ```
    /// let d = rtl_core::Design::from_source(
    ///     "# n\nc n .\nM c 0 n 1 1\nA n 4 c 1 .",
    /// ).unwrap();
    /// let nl = rtl_hw::netlist::Netlist::extract(&d);
    /// assert_eq!(nl.nets.len(), 2); // c -> n.left, n -> c.data
    /// ```
    pub fn extract(design: &Design) -> Netlist {
        let widths = rtl_core::width::infer(design);
        let mut nets = Vec::new();
        for (id, _) in design.iter() {
            let mut push = |expr: &Expr, role: PortRole| {
                collect_nets(design, id, expr, role, &mut nets);
            };
            match &design.source(id).kind {
                ComponentKind::Alu(a) => {
                    push(&a.funct, PortRole::Funct);
                    push(&a.left, PortRole::Left);
                    push(&a.right, PortRole::Right);
                }
                ComponentKind::Selector(s) => {
                    push(&s.select, PortRole::Select);
                    for (i, c) in s.cases.iter().enumerate() {
                        push(c, PortRole::Case(i));
                    }
                }
                ComponentKind::Memory(m) => {
                    push(&m.addr, PortRole::Addr);
                    push(&m.data, PortRole::Data);
                    push(&m.opn, PortRole::Opn);
                }
            }
        }
        Netlist { nets, widths }
    }

    /// Nets feeding a component.
    pub fn inputs_of(&self, id: CompId) -> impl Iterator<Item = &Net> {
        self.nets.iter().filter(move |n| n.to == id)
    }

    /// Nets driven by a component.
    pub fn outputs_of(&self, id: CompId) -> impl Iterator<Item = &Net> {
        self.nets.iter().filter(move |n| n.from == id)
    }

    /// Fan-out (number of consuming ports) per component.
    pub fn fanout(&self, id: CompId) -> usize {
        self.outputs_of(id).count()
    }
}

fn collect_nets(design: &Design, to: CompId, expr: &Expr, role: PortRole, nets: &mut Vec<Net>) {
    for part in &expr.parts {
        if let Part::Ref { name, from, to: hi } = part {
            let from_id = design
                .find(name.as_str())
                .expect("elaborated design has no dangling references");
            let bits = match (from, hi) {
                (None, _) => BitRange::Full,
                (Some(f), None) => BitRange::Bit(*f),
                (Some(f), Some(t)) => BitRange::Field(*f, *t),
            };
            nets.push(Net {
                from: from_id,
                to,
                role,
                bits,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtl_core::Design;

    fn design(src: &str) -> Design {
        Design::from_source(src).unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn roles_and_bits_are_recorded() {
        let d = design("# n\ns m a .\nS s m.0.1 a m.3 0 a\nA a 4 m 1\nM m 0 a.0.3 1 1 .");
        let nl = Netlist::extract(&d);
        let s = d.find("s").unwrap();
        let inputs: Vec<_> = nl.inputs_of(s).collect();
        assert_eq!(inputs.len(), 4, "select + three referencing cases");
        assert!(inputs
            .iter()
            .any(|n| n.role == PortRole::Select && n.bits == BitRange::Field(0, 1)));
        assert!(inputs
            .iter()
            .any(|n| n.role == PortRole::Case(1) && n.bits == BitRange::Bit(3)));

        let m = d.find("m").unwrap();
        let data: Vec<_> = nl
            .inputs_of(m)
            .filter(|n| n.role == PortRole::Data)
            .collect();
        assert_eq!(data.len(), 1);
        assert_eq!(data[0].bits, BitRange::Field(0, 3));
    }

    #[test]
    fn fanout_counts_consumers() {
        let d = design("# n\na b c .\nA a 2 1 0\nA b 4 a a\nA c 4 a 1 .");
        let nl = Netlist::extract(&d);
        assert_eq!(
            nl.fanout(d.find("a").unwrap()),
            3,
            "a feeds b twice and c once"
        );
        assert_eq!(nl.fanout(d.find("c").unwrap()), 0);
    }

    #[test]
    fn concatenation_yields_multiple_nets() {
        let d = design("# n\nx m .\nA x 2 m.0.3,m.8.11 0\nM m 0 0 0 2 .");
        let nl = Netlist::extract(&d);
        let x = d.find("x").unwrap();
        assert_eq!(nl.inputs_of(x).count(), 2);
    }
}
