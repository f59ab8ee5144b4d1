//! A programmatic builder for ASIM II specifications.
//!
//! The reference machines in this crate (the stack machine's 128-word
//! microcode ROM in particular) are far easier to author as Rust code than
//! as hand-written specification text. [`SpecBuilder`] assembles an
//! [`rtl_lang::Spec`] directly; [`SpecBuilder::source`] renders canonical
//! text via the pretty-printer, and the round-trip property (`parse ∘
//! pretty = id`) is covered by tests.

use rtl_lang::{
    parse_expr, Alu, Component, ComponentKind, Declared, Expr, Ident, Memory, Selector, Span, Spec,
    Word,
};

/// Builds a [`Spec`] incrementally.
///
/// Expression arguments are written in the specification language itself
/// (e.g. `"rom.3.4"`, `"%110,ir.0"`, `"4096"`), which keeps machine
/// definitions readable next to the thesis.
///
/// # Panics
///
/// Builder methods panic on malformed expression text or invalid names —
/// they are developer-facing constructors, like `Regex::new(...).unwrap()`
/// at start-up. Errors in the *assembled* spec (unknown references,
/// circular dependencies) surface through `Design::elaborate` as usual.
///
/// ```
/// use rtl_machines::builder::SpecBuilder;
/// let mut b = SpecBuilder::new("up counter");
/// b.cycles(8);
/// b.trace("count");
/// b.memory("count", "0", "next", "1", 1);
/// b.alu("next", "4", "count", "1");
/// let spec = b.build();
/// assert!(rtl_core::Design::elaborate(&spec).is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SpecBuilder {
    title: String,
    cycles: Option<Word>,
    traced: Vec<String>,
    components: Vec<Component>,
}

impl SpecBuilder {
    /// Starts a specification with a title (the `#` comment line).
    pub fn new(title: impl Into<String>) -> Self {
        SpecBuilder {
            title: format!("# {}", title.into()),
            ..Self::default()
        }
    }

    /// Sets the `= n` cycle count.
    pub fn cycles(&mut self, n: Word) -> &mut Self {
        self.cycles = Some(n);
        self
    }

    /// Marks a component for per-cycle tracing (the `*` suffix).
    pub fn trace(&mut self, name: &str) -> &mut Self {
        self.traced.push(name.to_string());
        self
    }

    /// Adds `A name funct left right`.
    pub fn alu(&mut self, name: &str, funct: &str, left: &str, right: &str) -> &mut Self {
        let kind = ComponentKind::Alu(Alu {
            funct: expr(funct),
            left: expr(left),
            right: expr(right),
        });
        self.push(name, kind)
    }

    /// Adds `S name select case0 case1 ...`.
    pub fn selector<S: AsRef<str>>(
        &mut self,
        name: &str,
        select: &str,
        cases: impl IntoIterator<Item = S>,
    ) -> &mut Self {
        let cases: Vec<Expr> = cases.into_iter().map(|c| expr(c.as_ref())).collect();
        assert!(!cases.is_empty(), "selector {name} needs at least one case");
        let kind = ComponentKind::Selector(Selector {
            select: expr(select),
            cases,
        });
        self.push(name, kind)
    }

    /// Adds `M name addr data opn size` (zero-initialized).
    pub fn memory(
        &mut self,
        name: &str,
        addr: &str,
        data: &str,
        opn: &str,
        size: u32,
    ) -> &mut Self {
        assert!(size >= 1, "memory {name} needs at least one cell");
        let kind = ComponentKind::Memory(Memory {
            addr: expr(addr),
            data: expr(data),
            opn: expr(opn),
            size,
            init: None,
        });
        self.push(name, kind)
    }

    /// Adds `M name addr data opn -n v0 ... vn-1` (initialized memory).
    pub fn memory_init(
        &mut self,
        name: &str,
        addr: &str,
        data: &str,
        opn: &str,
        init: Vec<Word>,
    ) -> &mut Self {
        assert!(!init.is_empty(), "memory {name} needs at least one cell");
        let size = init.len() as u32;
        let kind = ComponentKind::Memory(Memory {
            addr: expr(addr),
            data: expr(data),
            opn: expr(opn),
            size,
            init: Some(init),
        });
        self.push(name, kind)
    }

    fn push(&mut self, name: &str, kind: ComponentKind) -> &mut Self {
        let ident = Ident::parse(name).unwrap_or_else(|| panic!("invalid component name {name:?}"));
        assert!(
            !self.components.iter().any(|c| c.name == *name),
            "component {name} defined twice"
        );
        self.components.push(Component {
            name: ident,
            kind,
            span: Span::default(),
        });
        self
    }

    /// Finishes the specification, leaving the builder as it was. Every
    /// component is declared in the name list (in definition order), with
    /// `*` markers from [`SpecBuilder::trace`].
    pub fn build(&self) -> Spec {
        self.clone().finish()
    }

    /// Finishes the specification like [`SpecBuilder::build`], moving the
    /// components into the [`Spec`] instead of cloning them.
    pub fn finish(self) -> Spec {
        let declared = self
            .components
            .iter()
            .map(|c| Declared {
                name: c.name.clone(),
                traced: self.traced.iter().any(|t| c.name == t.as_str()),
                span: Span::default(),
            })
            .collect();
        Spec {
            title: self.title,
            cycles: self.cycles,
            declared,
            components: self.components,
        }
    }

    /// Renders the specification as canonical source text.
    pub fn source(&self) -> String {
        rtl_lang::pretty(&self.build())
    }
}

fn expr(text: &str) -> Expr {
    parse_expr(text, Span::default())
        .unwrap_or_else(|e| panic!("bad builder expression {text:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtl_core::Design;

    #[test]
    fn builder_output_round_trips_through_text() {
        let mut b = SpecBuilder::new("round trip");
        b.cycles(4);
        b.trace("count");
        b.memory("count", "0", "next", "1", 1);
        b.alu("next", "4", "count", "1");
        b.selector("mux", "count.0", ["next", "0"]);
        b.memory_init("rom", "count.0.1", "0", "0", vec![1, 2, 3, 4]);

        let text = b.source();
        let spec = rtl_lang::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(rtl_lang::pretty(&spec), text);
        let design = Design::elaborate(&spec).unwrap();
        assert_eq!(design.len(), 4);
        assert!(design.warnings().is_empty(), "builder declares everything");
    }

    #[test]
    #[should_panic(expected = "bad builder expression")]
    fn malformed_expression_panics() {
        SpecBuilder::new("x").alu("a", "4", "1+", "2");
    }

    #[test]
    #[should_panic(expected = "defined twice")]
    fn duplicate_name_panics() {
        SpecBuilder::new("x")
            .alu("a", "4", "1", "2")
            .alu("a", "4", "1", "2");
    }

    #[test]
    fn traced_components_carry_stars() {
        let mut b = SpecBuilder::new("t");
        b.trace("r");
        b.memory("r", "0", "0", "0", 1);
        assert!(b.source().contains("r* ."), "{}", b.source());
    }
}
