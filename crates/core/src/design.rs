//! Elaboration: turning a parsed [`Spec`] into a simulatable [`Design`].
//!
//! Elaboration resolves names, lowers expressions, computes the
//! combinational evaluation order, collects the trace list and performs the
//! original compiler's declaration checks (`checkdcl`).
//!
//! # Cycle semantics (the engine contract)
//!
//! Every engine in this repository — the ASIM-style interpreter, the
//! bytecode VM, and the generated Rust/Pascal programs — implements one
//! simulated cycle as:
//!
//! 1. **Combinational phase.** Evaluate every ALU and selector in
//!    [`Design::comb_order`]. References to ALUs/selectors read this
//!    cycle's freshly computed value; references to memories read the
//!    memory's *output latch* (the value latched at the end of the previous
//!    cycle — memories have a one-cycle delay, §4.3).
//! 2. **Trace phase.** Print `Cycle N` and the traced components' values in
//!    declaration-list order (memories show their latch).
//! 3. **Capture phase.** For every memory, evaluate its address and
//!    operation expressions against the current combinational values and
//!    *pre-update* latches.
//! 4. **Update phase.** For every memory in definition order, perform
//!    `op & 3`: read latches `cells[addr]`; write evaluates `data`, stores
//!    it and latches it (write-through); input latches a word from the
//!    input device; output evaluates `data`, sends it to the output device
//!    and latches it. **All `data` expressions read pre-update latches**
//!    (simultaneous update — divergence D1 in `DESIGN.md`). Write/read
//!    trace lines are emitted per memory when `op & 5 = 5` / `op & 9 = 8`.
//! 5. Increment the cycle counter.
//!
//! A specification's `= n` clause means "trace cycles `0 ..= n`", i.e.
//! `n + 1` iterations — the generated Pascal's `while cyclecount <= cycles`.

use crate::error::{ElabError, Warning};
use crate::graph::sort_combinational;
use crate::resolve::{resolve_expr, CompId, RExpr};
use crate::word::Word;
use rtl_lang::{ComponentKind, Ident, Spec};
use std::collections::HashMap;

/// The component limit of the original implementation (`maxcomponents`).
/// Informational only — this library does not enforce it (divergence D2).
pub const ORIGINAL_COMPONENT_LIMIT: usize = 500;

/// Elaboration options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElabOptions {
    /// Maximum number of cells a single memory may declare. Guards against
    /// accidentally allocating gigabytes from a typo'd specification.
    pub cell_limit: u32,
}

impl Default for ElabOptions {
    fn default() -> Self {
        ElabOptions {
            cell_limit: 1 << 24,
        }
    }
}

/// A resolved ALU.
#[derive(Debug, Clone, PartialEq)]
pub struct RAlu {
    /// Function-select expression.
    pub funct: RExpr,
    /// Left operand expression.
    pub left: RExpr,
    /// Right operand expression.
    pub right: RExpr,
}

/// A resolved selector.
#[derive(Debug, Clone, PartialEq)]
pub struct RSelector {
    /// Index expression.
    pub select: RExpr,
    /// Case value expressions.
    pub cases: Vec<RExpr>,
}

/// A resolved memory.
#[derive(Debug, Clone, PartialEq)]
pub struct RMemory {
    /// Address expression.
    pub addr: RExpr,
    /// Data expression.
    pub data: RExpr,
    /// Operation expression.
    pub opn: RExpr,
    /// Number of cells.
    pub size: u32,
    /// Initial cell values (zero-filled when the source had none).
    pub init: Vec<Word>,
}

/// A resolved component.
#[derive(Debug, Clone, PartialEq)]
pub enum RKind {
    /// ALU.
    Alu(RAlu),
    /// Selector.
    Selector(RSelector),
    /// Memory.
    Memory(RMemory),
}

impl RKind {
    /// `true` for memories.
    pub fn is_memory(&self) -> bool {
        matches!(self, RKind::Memory(_))
    }

    /// Every expression of the component, in source order.
    pub fn expressions(&self) -> Vec<&RExpr> {
        match self {
            RKind::Alu(a) => vec![&a.funct, &a.left, &a.right],
            RKind::Selector(s) => {
                let mut v = vec![&s.select];
                v.extend(s.cases.iter());
                v
            }
            RKind::Memory(m) => vec![&m.addr, &m.data, &m.opn],
        }
    }
}

/// A named, resolved component.
#[derive(Debug, Clone, PartialEq)]
pub struct CompData {
    /// The component name.
    pub name: Ident,
    /// Its resolved definition.
    pub kind: RKind,
}

/// A fully elaborated design, ready to simulate or compile.
#[derive(Debug, Clone)]
pub struct Design {
    spec: Spec,
    comps: Vec<CompData>,
    names: HashMap<String, CompId>,
    comb_order: Vec<CompId>,
    memories: Vec<CompId>,
    traced: Vec<CompId>,
    warnings: Vec<Warning>,
}

impl Design {
    /// Elaborates a parsed specification with default options. The
    /// [`Design`] keeps a copy of `spec`; a caller that owns its `Spec`
    /// avoids the copy with [`Design::elaborate_with`].
    ///
    /// ```
    /// let spec = rtl_lang::parse(
    ///     "# counter\ncount* next .\nM count 0 next 1 1\nA next 4 count 1 .",
    /// ).unwrap();
    /// let design = rtl_core::Design::elaborate(&spec).unwrap();
    /// assert_eq!(design.len(), 2);
    /// assert_eq!(design.comb_order().len(), 1);
    /// assert_eq!(design.memories().len(), 1);
    /// ```
    ///
    /// # Errors
    ///
    /// See [`ElabError`] — unknown names, duplicate definitions, over-wide
    /// concatenations, combinational cycles, traced-but-undefined names.
    pub fn elaborate(spec: &Spec) -> Result<Design, ElabError> {
        Self::elaborate_with(spec.clone(), ElabOptions::default())
    }

    /// Elaborates with explicit options. Takes ownership of `spec`, which
    /// the [`Design`] keeps (see [`Design::spec`]), so an owned spec is
    /// never copied.
    ///
    /// # Errors
    ///
    /// As [`Design::elaborate`], plus [`ElabError::TooManyCells`] per the
    /// configured limit.
    pub fn elaborate_with(spec: Spec, options: ElabOptions) -> Result<Design, ElabError> {
        // 1. Name table (first definition wins in the original's findname;
        // we reject duplicates outright).
        let mut names = HashMap::with_capacity(spec.components.len());
        for (i, c) in spec.components.iter().enumerate() {
            if names
                .insert(c.name.as_str().to_string(), CompId::new(i))
                .is_some()
            {
                return Err(ElabError::DuplicateComponent {
                    name: c.name.as_str().to_string(),
                    span: c.span,
                });
            }
        }

        // 2. Resolve expressions.
        let mut comps = Vec::with_capacity(spec.components.len());
        for c in &spec.components {
            let who = c.name.as_str();
            let r = |e| resolve_expr(e, &names, who);
            let kind = match &c.kind {
                ComponentKind::Alu(a) => RKind::Alu(RAlu {
                    funct: r(&a.funct)?,
                    left: r(&a.left)?,
                    right: r(&a.right)?,
                }),
                ComponentKind::Selector(s) => RKind::Selector(RSelector {
                    select: r(&s.select)?,
                    cases: s.cases.iter().map(r).collect::<Result<_, _>>()?,
                }),
                ComponentKind::Memory(m) => {
                    if m.size > options.cell_limit {
                        return Err(ElabError::TooManyCells {
                            name: who.to_string(),
                            size: m.size,
                            limit: options.cell_limit,
                        });
                    }
                    let init = match &m.init {
                        Some(v) => v.clone(),
                        None => vec![0; m.size as usize],
                    };
                    debug_assert_eq!(init.len(), m.size as usize);
                    RKind::Memory(RMemory {
                        addr: r(&m.addr)?,
                        data: r(&m.data)?,
                        opn: r(&m.opn)?,
                        size: m.size,
                        init,
                    })
                }
            };
            comps.push(CompData {
                name: c.name.clone(),
                kind,
            });
        }

        // 3. Memories in definition order.
        let memories: Vec<CompId> = comps
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind.is_memory())
            .map(|(i, _)| CompId::new(i))
            .collect();

        // 4. Combinational order.
        let comb_nodes: Vec<CompId> = comps
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.kind.is_memory())
            .map(|(i, _)| CompId::new(i))
            .collect();
        let mut node_of: Vec<Option<usize>> = vec![None; comps.len()];
        for (node, id) in comb_nodes.iter().enumerate() {
            node_of[id.index()] = Some(node);
        }
        let deps: Vec<Vec<usize>> = comb_nodes
            .iter()
            .map(|id| {
                let mut ds: Vec<usize> = comps[id.index()]
                    .kind
                    .expressions()
                    .iter()
                    .flat_map(|e| e.comps())
                    .filter_map(|c| node_of[c.index()])
                    .collect();
                ds.sort_unstable();
                ds.dedup();
                ds
            })
            .collect();
        let comb_order = sort_combinational(&comb_nodes, &deps, |node| {
            comps[comb_nodes[node].index()].name.as_str().to_string()
        })?;

        // 5. Trace list and declaration warnings (checkdcl).
        let mut traced = Vec::new();
        let mut warnings = Vec::new();
        let mut declared = vec![false; comps.len()];
        for d in &spec.declared {
            match names.get(d.name.as_str()) {
                Some(&id) => {
                    declared[id.index()] = true;
                    if d.traced {
                        traced.push(id);
                    }
                }
                None => {
                    if d.traced {
                        return Err(ElabError::TracedUndefined {
                            name: d.name.as_str().to_string(),
                            span: d.span,
                        });
                    }
                    warnings.push(Warning::DeclaredNotDefined(d.name.as_str().to_string()));
                }
            }
        }
        for (c, &is_declared) in comps.iter().zip(&declared) {
            if !is_declared {
                warnings.push(Warning::DefinedNotDeclared(c.name.as_str().to_string()));
            }
        }

        Ok(Design {
            spec,
            comps,
            names,
            comb_order,
            memories,
            traced,
            warnings,
        })
    }

    /// Parses and elaborates in one step.
    ///
    /// # Errors
    ///
    /// Returns a [`LoadError`] wrapping either phase's failure.
    pub fn from_source(source: &str) -> Result<Design, LoadError> {
        let spec = rtl_lang::parse(source)?;
        Ok(Design::elaborate_with(spec, ElabOptions::default())?)
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.comps.len()
    }

    /// `true` if the design has no components.
    pub fn is_empty(&self) -> bool {
        self.comps.is_empty()
    }

    /// Iterates over all components with their ids, in definition order.
    pub fn iter(&self) -> impl Iterator<Item = (CompId, &CompData)> {
        self.comps
            .iter()
            .enumerate()
            .map(|(i, c)| (CompId::new(i), c))
    }

    /// The component with the given id.
    pub fn comp(&self, id: CompId) -> &CompData {
        &self.comps[id.index()]
    }

    /// The id of the component at a definition-order index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn id_at(&self, index: usize) -> CompId {
        assert!(
            index < self.comps.len(),
            "component index {index} out of range"
        );
        CompId::new(index)
    }

    /// The component's name.
    pub fn name(&self, id: CompId) -> &str {
        self.comps[id.index()].name.as_str()
    }

    /// Looks a component up by name.
    pub fn find(&self, name: &str) -> Option<CompId> {
        self.names.get(name).copied()
    }

    /// ALUs and selectors in evaluation order.
    pub fn comb_order(&self) -> &[CompId] {
        &self.comb_order
    }

    /// Memories in definition (update) order.
    pub fn memories(&self) -> &[CompId] {
        &self.memories
    }

    /// Components traced each cycle, in declaration-list order.
    pub fn traced(&self) -> &[CompId] {
        &self.traced
    }

    /// Warnings from the declaration check.
    pub fn warnings(&self) -> &[Warning] {
        &self.warnings
    }

    /// The `= n` cycle count from the specification, if present.
    pub fn cycles(&self) -> Option<Word> {
        self.spec.cycles
    }

    /// The specification's title comment line.
    pub fn title(&self) -> &str {
        &self.spec.title
    }

    /// The parsed specification this design was elaborated from.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// Convenience: the resolved memory with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a memory.
    pub fn memory(&self, id: CompId) -> &RMemory {
        match &self.comps[id.index()].kind {
            RKind::Memory(m) => m,
            other => panic!("{} is not a memory: {other:?}", self.name(id)),
        }
    }

    /// Per-component shape metadata for a profiling
    /// [`LaneTally`](rtl_prof::LaneTally), in definition order — the
    /// shared index space every engine's tally uses, so profiles from
    /// different engines over the same design are directly comparable.
    pub fn profile_meta(&self) -> Vec<rtl_prof::CompMeta> {
        self.comps
            .iter()
            .map(|c| match &c.kind {
                RKind::Alu(_) => rtl_prof::CompMeta::comb(c.name.as_str()),
                RKind::Selector(s) => rtl_prof::CompMeta::selector(c.name.as_str(), s.cases.len()),
                RKind::Memory(m) => rtl_prof::CompMeta::memory(c.name.as_str(), m.size as usize),
            })
            .collect()
    }
}

/// Error from [`Design::from_source`]: either parsing or elaboration failed.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadError {
    /// The source did not parse.
    Parse(rtl_lang::ParseError),
    /// The parsed spec did not elaborate.
    Elab(ElabError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Parse(e) => e.fmt(f),
            LoadError::Elab(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<rtl_lang::ParseError> for LoadError {
    fn from(e: rtl_lang::ParseError) -> Self {
        LoadError::Parse(e)
    }
}

impl From<ElabError> for LoadError {
    fn from(e: ElabError) -> Self {
        LoadError::Elab(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design(src: &str) -> Design {
        Design::from_source(src).unwrap()
    }

    #[test]
    fn counter_elaborates() {
        let d = design("# c\ncount* next .\nM count 0 next 1 1\nA next 4 count 1 .");
        assert_eq!(d.len(), 2);
        assert_eq!(d.memories().len(), 1);
        assert_eq!(d.comb_order().len(), 1);
        assert_eq!(d.traced().len(), 1);
        assert_eq!(d.name(d.traced()[0]), "count");
        assert!(d.warnings().is_empty());
    }

    #[test]
    fn comb_order_respects_dependencies() {
        // `b` uses `a`, `a` uses memory `m` (no comb dependency).
        let d = design("# c\na b m .\nA b 4 a 1\nA a 2 m 0\nM m 0 b 1 1 .");
        let order: Vec<&str> = d.comb_order().iter().map(|&i| d.name(i)).collect();
        assert_eq!(order, ["a", "b"]);
    }

    #[test]
    fn circular_dependency_is_reported() {
        let err = Design::from_source("# c\na b .\nA a 4 b 1\nA b 4 a 1 .").unwrap_err();
        match err {
            LoadError::Elab(ElabError::CircularDependency { members }) => {
                assert_eq!(members, ["a", "b"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn memory_to_memory_reference_is_not_a_comb_edge() {
        // Two registers swapping contents — legal, no comb cycle.
        let d = design("# swap\na b .\nM a 0 b 1 1\nM b 0 a 1 1 .");
        assert!(d.comb_order().is_empty());
        assert_eq!(d.memories().len(), 2);
    }

    #[test]
    fn unknown_reference_is_an_error() {
        let err = Design::from_source("# c\nx .\nA x 4 ghost 1 .").unwrap_err();
        match err {
            LoadError::Elab(ElabError::ComponentNotFound { name, referrer, .. }) => {
                assert_eq!(name, "ghost");
                assert_eq!(referrer, "x");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn duplicate_definition_is_an_error() {
        let err = Design::from_source("# c\nx .\nA x 4 1 1\nA x 4 2 2 .").unwrap_err();
        assert!(matches!(
            err,
            LoadError::Elab(ElabError::DuplicateComponent { .. })
        ));
    }

    #[test]
    fn checkdcl_warnings() {
        let d = design("# c\nghost x .\nA x 4 1 1\nA extra 4 1 1 .");
        let texts: Vec<String> = d.warnings().iter().map(|w| w.to_string()).collect();
        assert_eq!(
            texts,
            [
                "Warning: ghost declared but not defined.",
                "Warning: extra defined but not declared."
            ]
        );
    }

    #[test]
    fn traced_undefined_is_an_error() {
        let err = Design::from_source("# c\nghost* .\n.").unwrap_err();
        assert!(matches!(
            err,
            LoadError::Elab(ElabError::TracedUndefined { .. })
        ));
    }

    #[test]
    fn memory_init_defaults_to_zero() {
        let d = design("# c\nm .\nM m 0 0 0 3 .");
        let m = d.memory(d.find("m").unwrap());
        assert_eq!(m.init, [0, 0, 0]);
    }

    #[test]
    fn memory_init_from_list() {
        let d = design("# c\nm .\nM m 0 0 0 -4 12 34 56 78 .");
        let m = d.memory(d.find("m").unwrap());
        assert_eq!(m.init, [12, 34, 56, 78]);
    }

    #[test]
    fn cell_limit_enforced() {
        let err = Design::elaborate_with(
            rtl_lang::parse("# c\nm .\nM m 0 0 0 100 .").unwrap(),
            ElabOptions { cell_limit: 10 },
        )
        .unwrap_err();
        assert!(matches!(err, ElabError::TooManyCells { .. }));
    }

    #[test]
    fn self_reference_in_memory_data_is_legal() {
        // A register may shift itself: data references its own latch.
        let d = design("# c\nr .\nM r 0 r.0.3 1 1 .");
        assert_eq!(d.memories().len(), 1);
    }

    #[test]
    fn selector_cases_create_dependencies() {
        let d = design("# c\ns a .\nS s a.0 a 0\nA a 2 1 0 .");
        let order: Vec<&str> = d.comb_order().iter().map(|&i| d.name(i)).collect();
        assert_eq!(order, ["a", "s"]);
    }
}
