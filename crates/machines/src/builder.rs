//! A programmatic builder for ASIM II specifications.
//!
//! The reference machines in this crate (the stack machine's 128-word
//! microcode ROM in particular) are far easier to author as Rust code than
//! as hand-written specification text. [`SpecBuilder`] assembles an
//! [`rtl_lang::Spec`] directly; [`SpecBuilder::source`] renders canonical
//! text via the pretty-printer, and the round-trip property (`parse ∘
//! pretty = id`) is covered by tests.

use std::collections::HashSet;

use rtl_lang::{
    parse_expr, Alu, Component, ComponentKind, Declared, Expr, Ident, Memory, Selector, Span, Spec,
    Word,
};

/// An expression argument of a [`SpecBuilder`] method: text in the
/// specification language, parsed (and panicking when malformed), or an
/// [`Expr`] built as a value, used as it is.
pub trait IntoExpr {
    /// The argument as an expression.
    fn into_expr(self) -> Expr;
}

impl IntoExpr for &str {
    fn into_expr(self) -> Expr {
        parse_expr(self, Span::default())
            .unwrap_or_else(|e| panic!("bad builder expression {self:?}: {e}"))
    }
}

impl IntoExpr for Expr {
    fn into_expr(self) -> Expr {
        self
    }
}

/// Builds a [`Spec`] incrementally.
///
/// Expression arguments ([`IntoExpr`]) are written in the specification
/// language itself (e.g. `"rom.3.4"`, `"%110,ir.0"`, `"4096"`), which
/// keeps machine definitions readable next to the thesis, or are
/// [`Expr`] values, which a generator builds without printing text the
/// builder would parse back.
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
/// use rtl_lang::Expr;
/// let mut b = SpecBuilder::new("up counter");
/// b.cycles(8);
/// b.trace("count");
/// b.memory("count", "0", "next", "1", 1);
/// b.alu("next", "4", "count", Expr::constant(1));
/// let spec = b.build();
/// assert!(rtl_core::Design::elaborate(&spec).is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SpecBuilder {
    title: String,
    cycles: Option<Word>,
    traced: HashSet<String>,
    /// Names of `components`, so a duplicate is found without a scan.
    defined: HashSet<String>,
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
        self.traced.insert(name.to_string());
        self
    }

    /// Adds `A name funct left right`.
    pub fn alu(
        &mut self,
        name: &str,
        funct: impl IntoExpr,
        left: impl IntoExpr,
        right: impl IntoExpr,
    ) -> &mut Self {
        let kind = ComponentKind::Alu(Alu {
            funct: funct.into_expr(),
            left: left.into_expr(),
            right: right.into_expr(),
        });
        self.push(name, kind)
    }

    /// Adds `S name select case0 case1 ...`.
    pub fn selector(
        &mut self,
        name: &str,
        select: impl IntoExpr,
        cases: impl IntoIterator<Item = impl IntoExpr>,
    ) -> &mut Self {
        let cases: Vec<Expr> = cases.into_iter().map(IntoExpr::into_expr).collect();
        assert!(!cases.is_empty(), "selector {name} needs at least one case");
        let kind = ComponentKind::Selector(Selector {
            select: select.into_expr(),
            cases,
        });
        self.push(name, kind)
    }

    /// Adds `M name addr data opn size` (zero-initialized).
    pub fn memory(
        &mut self,
        name: &str,
        addr: impl IntoExpr,
        data: impl IntoExpr,
        opn: impl IntoExpr,
        size: u32,
    ) -> &mut Self {
        assert!(size >= 1, "memory {name} needs at least one cell");
        let kind = ComponentKind::Memory(Memory {
            addr: addr.into_expr(),
            data: data.into_expr(),
            opn: opn.into_expr(),
            size,
            init: None,
        });
        self.push(name, kind)
    }

    /// Adds `M name addr data opn -n v0 ... vn-1` (initialized memory).
    pub fn memory_init(
        &mut self,
        name: &str,
        addr: impl IntoExpr,
        data: impl IntoExpr,
        opn: impl IntoExpr,
        init: Vec<Word>,
    ) -> &mut Self {
        assert!(!init.is_empty(), "memory {name} needs at least one cell");
        let size = init.len() as u32;
        let kind = ComponentKind::Memory(Memory {
            addr: addr.into_expr(),
            data: data.into_expr(),
            opn: opn.into_expr(),
            size,
            init: Some(init),
        });
        self.push(name, kind)
    }

    fn push(&mut self, name: &str, kind: ComponentKind) -> &mut Self {
        let ident = Ident::parse(name).unwrap_or_else(|| panic!("invalid component name {name:?}"));
        assert!(
            self.defined.insert(name.to_string()),
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
                traced: self.traced.contains(c.name.as_str()),
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
