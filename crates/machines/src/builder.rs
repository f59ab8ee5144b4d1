//! A programmatic builder for ASIM II specifications.
//!
//! The reference machines in this crate (the stack machine's 128-word
//! microcode ROM in particular) are far easier to author as Rust code than
//! as hand-written specification text. [`SpecBuilder`] assembles an
//! [`rtl_lang::Spec`] directly; [`rtl_lang::pretty()`] renders it as
//! canonical text, and the round-trip property (`parse ∘ pretty = id`) is
//! covered by tests.

use std::collections::HashSet;

use rtl_lang::{
    parse_expr, Alu, Component, ComponentKind, Declared, Expr, Ident, Memory, Pos, Selector, Span,
    Spec, Word,
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
/// Each declared name, component and expression gets its own span (its
/// [`rtl_lang::pretty()`] line and token ordinal), so `rtl-lint` tells them apart.
///
/// ```
/// use rtl_machines::builder::SpecBuilder;
/// use rtl_lang::Expr;
/// let mut b = SpecBuilder::new("up counter");
/// b.cycles(8);
/// b.trace("count");
/// b.memory("count", "0", "next", "1", 1);
/// b.alu("next", "4", "count", Expr::constant(1));
/// let spec = b.finish();
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

    /// Sets the `= n` cycle count; call it before adding components.
    pub fn cycles(&mut self, n: Word) -> &mut Self {
        assert!(self.components.is_empty(), "set cycles before components");
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
            funct: self.slot(funct, 0),
            left: self.slot(left, 1),
            right: self.slot(right, 2),
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
        let cases: Vec<Expr> = (1..).zip(cases).map(|(k, e)| self.slot(e, k)).collect();
        assert!(!cases.is_empty(), "selector {name} needs at least one case");
        let kind = ComponentKind::Selector(Selector {
            select: self.slot(select, 0),
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
            addr: self.slot(addr, 0),
            data: self.slot(data, 1),
            opn: self.slot(opn, 2),
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
            addr: self.slot(addr, 0),
            data: self.slot(data, 1),
            opn: self.slot(opn, 2),
            size,
            init: Some(init),
        });
        self.push(name, kind)
    }

    /// `expr` as expression `slot` (0-based) of the component added next,
    /// spanned at its token: the letter and the name come first.
    fn slot(&self, expr: impl IntoExpr, slot: u32) -> Expr {
        let mut expr = expr.into_expr();
        expr.span = self.at(slot + 3);
        expr
    }

    /// Token `ordinal` of the line the next component renders on.
    fn at(&self, ordinal: u32) -> Span {
        let line = 3 + u32::from(self.cycles.is_some()) + self.components.len() as u32;
        Span::point(Pos::new(line, ordinal))
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
            span: self.at(1),
        });
        self
    }

    /// Finishes the specification. Every component is declared in the
    /// name list (in definition order), with `*` markers from
    /// [`SpecBuilder::trace`].
    pub fn finish(self) -> Spec {
        let line = 2 + u32::from(self.cycles.is_some());
        let declared = (1..)
            .zip(&self.components)
            .map(|(col, c)| Declared {
                name: c.name.clone(),
                traced: self.traced.contains(c.name.as_str()),
                span: Span::point(Pos::new(line, col)),
            })
            .collect();
        Spec {
            title: self.title,
            cycles: self.cycles,
            declared,
            components: self.components,
        }
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

        let built = b.finish();
        let text = rtl_lang::pretty(&built);
        let spec = rtl_lang::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(rtl_lang::pretty(&spec), text);
        let design = Design::elaborate(&spec).unwrap();
        assert_eq!(design.len(), 4);
        assert!(design.warnings().is_empty(), "builder declares everything");

        // Each built node sits on the line the parser reads it from, in
        // the parser's order along that line.
        let mut built_spans = Vec::new();
        let mut parsed_spans = Vec::new();
        for (s, spans) in [(&built, &mut built_spans), (&spec, &mut parsed_spans)] {
            spans.extend(s.declared.iter().map(|d| d.span));
            for c in &s.components {
                spans.push(c.span);
                spans.extend(c.kind.expressions().iter().map(|e| e.span));
            }
        }
        let lines = |spans: &[Span]| spans.iter().map(|s| s.start.line).collect::<Vec<_>>();
        assert_eq!(lines(&built_spans), lines(&parsed_spans));
        assert!(built_spans.windows(2).all(|w| w[0].start < w[1].start));
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

    /// `= n` moves every component down a line, so a component spanned
    /// before it would share its line with the declared names.
    #[test]
    #[should_panic(expected = "set cycles before components")]
    fn cycles_after_a_component_panics() {
        SpecBuilder::new("x").alu("a", "4", "1", "2").cycles(3);
    }

    #[test]
    fn traced_components_carry_stars() {
        let mut b = SpecBuilder::new("t");
        b.trace("r");
        b.memory("r", "0", "0", "0", 1);
        let text = rtl_lang::pretty(&b.finish());
        assert!(text.contains("r* ."), "{text}");
    }
}
