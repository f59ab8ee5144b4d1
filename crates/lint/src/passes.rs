//! The open [`LintPass`] trait and the shipped pass set.
//!
//! Passes split into two tiers. *Spec passes* read only the parsed
//! [`Spec`], so they run even when elaboration fails — they are also the
//! richer diagnosis of most elaboration errors (all unknown names instead
//! of the first, the full combinational cycle path instead of the member
//! list). *Design passes* additionally see the elaborated
//! [`Design`] and its inferred output widths
//! ([`rtl_core::width::infer`]), which is what makes value-range
//! reasoning (dead selector arms, constant address checks, memory usage)
//! possible.
//!
//! Every claim a pass makes that the dynamic oracle cross-validates
//! (`dead-arm`, `undriven-read`) is *sound*: dead arms are only derived
//! from fully-masked select expressions (a concatenation of sized parts
//! is always in `[0, 2^total)`) or constant selects, never from the
//! heuristic width fixpoint, which over-narrows signed intermediates.

use crate::diag::{Diagnostic, Severity};
use rtl_core::width::bits_needed;
use rtl_core::word::land;
use rtl_core::{AluFn, Design, RKind, Word};
use rtl_lang::{Component, ComponentKind, Expr, Part, Spec};
use std::collections::{HashMap, HashSet};

/// Everything a pass may look at.
pub struct LintContext<'a> {
    /// The parsed specification.
    pub spec: &'a Spec,
    /// The elaborated design; `None` when elaboration failed (design
    /// passes must no-op then).
    pub design: Option<&'a Design>,
    /// Inferred output widths by [`rtl_core::resolve::CompId::index`];
    /// empty when `design` is `None`.
    pub widths: &'a [u8],
    /// The spec's [`exact_bounds`], computed once per lint.
    pub bounds: &'a HashMap<&'a str, u8>,
    /// The design's [`dead_arms`] under `bounds`, computed once per lint;
    /// empty when `design` is `None`.
    pub dead_arms: &'a [(usize, Vec<usize>, DeadArmReason)],
}

/// One analysis over a specification. Implementations push any findings
/// into `out`; ordering is restored by [`Report::new`](crate::Report).
pub trait LintPass {
    /// Short identifier for the pass (used in docs and debugging).
    fn name(&self) -> &'static str;
    /// The diagnostic codes this pass can emit.
    fn codes(&self) -> &'static [&'static str];
    /// Runs the analysis.
    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>);
}

/// The shipped pass set, in a fixed order.
pub fn default_passes() -> Vec<Box<dyn LintPass>> {
    vec![
        Box::new(MultiDriver),
        Box::new(UnknownName),
        Box::new(CombCycle),
        Box::new(DeclCheck),
        Box::new(ExprTooWide),
        Box::new(ConstTruncated),
        Box::new(FieldOob),
        Box::new(DeadArm),
        Box::new(ConstOob),
        Box::new(MemoryUsage),
    ]
}

/// `multi-driver`: two definitions drive the same named net. The original
/// compiler silently kept the first and generated broken Pascal; here both
/// write-write racing definitions are reported with their spans.
pub struct MultiDriver;

impl LintPass for MultiDriver {
    fn name(&self) -> &'static str {
        "multi-driver"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["multi-driver"]
    }

    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let mut first: HashMap<&str, &Component> = HashMap::new();
        for c in &cx.spec.components {
            match first.get(c.name.as_str()) {
                Some(original) => out.push(
                    Diagnostic::new(
                        "multi-driver",
                        Severity::Error,
                        c.span,
                        format!(
                            "component {} is defined twice: two drivers race on one net",
                            c.name
                        ),
                    )
                    .note(format!("first defined at {}", original.span)),
                ),
                None => {
                    first.insert(c.name.as_str(), c);
                }
            }
        }
    }
}

/// `unknown-name`: an expression references a name with no component
/// definition. Unlike elaboration (which stops at the first), every
/// unknown reference is reported.
pub struct UnknownName;

impl LintPass for UnknownName {
    fn name(&self) -> &'static str {
        "unknown-name"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["unknown-name"]
    }

    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let defined: HashSet<&str> = cx.spec.components.iter().map(|c| c.name.as_str()).collect();
        for c in &cx.spec.components {
            for expr in c.kind.expressions() {
                let mut seen: HashSet<&str> = HashSet::new();
                for name in expr.references() {
                    if !defined.contains(name.as_str()) && seen.insert(name.as_str()) {
                        out.push(Diagnostic::new(
                            "unknown-name",
                            Severity::Error,
                            expr.span,
                            format!("component {} references undefined name {}", c.name, name),
                        ));
                    }
                }
            }
        }
    }
}

/// `comb-cycle`: ALUs and selectors form a combinational loop. The
/// diagnostic carries the full cycle path (elaboration's
/// `CircularDependency` only lists the member set).
pub struct CombCycle;

impl LintPass for CombCycle {
    fn name(&self) -> &'static str {
        "comb-cycle"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["comb-cycle"]
    }

    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        // Combinational nodes and their comb-to-comb edges, in source order.
        let index: HashMap<&str, usize> = cx
            .spec
            .components
            .iter()
            .enumerate()
            .filter(|(_, c)| !matches!(c.kind, ComponentKind::Memory(_)))
            .map(|(i, c)| (c.name.as_str(), i))
            .collect();
        let n = cx.spec.components.len();
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, c) in cx.spec.components.iter().enumerate() {
            if matches!(c.kind, ComponentKind::Memory(_)) {
                continue;
            }
            for expr in c.kind.expressions() {
                for name in expr.references() {
                    if let Some(&j) = index.get(name.as_str()) {
                        if !edges[i].contains(&j) {
                            edges[i].push(j);
                        }
                    }
                }
            }
        }

        // Iterative DFS; a back edge to a gray node closes a cycle. Members
        // of a reported cycle turn black so each loop is reported once.
        let mut color = vec![0u8; n]; // 0 white, 1 gray, 2 black
        for start in 0..n {
            if color[start] != 0 || !index.contains_key(cx.spec.components[start].name.as_str()) {
                continue;
            }
            let mut path: Vec<usize> = vec![start];
            let mut next_edge: Vec<usize> = vec![0];
            color[start] = 1;
            while let Some(&node) = path.last() {
                let e = *next_edge.last().expect("parallel to path");
                if e >= edges[node].len() {
                    color[node] = 2;
                    path.pop();
                    next_edge.pop();
                    continue;
                }
                *next_edge.last_mut().expect("parallel to path") += 1;
                let target = edges[node][e];
                match color[target] {
                    0 => {
                        color[target] = 1;
                        path.push(target);
                        next_edge.push(0);
                    }
                    1 => {
                        let from = path
                            .iter()
                            .position(|&p| p == target)
                            .expect("gray nodes are on the path");
                        let cycle = &path[from..];
                        let names: Vec<&str> = cycle
                            .iter()
                            .map(|&i| cx.spec.components[i].name.as_str())
                            .collect();
                        let anchor = &cx.spec.components[cycle[0]];
                        let mut diag = Diagnostic::new(
                            "comb-cycle",
                            Severity::Error,
                            anchor.span,
                            format!(
                                "combinational cycle: {} -> {}",
                                names.join(" -> "),
                                names[0]
                            ),
                        );
                        for &i in cycle {
                            let c = &cx.spec.components[i];
                            diag =
                                diag.note(format!("cycle member {} defined at {}", c.name, c.span));
                        }
                        out.push(diag);
                        // Retire the whole loop; keep scanning the rest.
                        for &i in cycle {
                            color[i] = 2;
                        }
                        let keep = path.len() - cycle.len();
                        path.truncate(keep);
                        next_edge.truncate(keep);
                    }
                    _ => {}
                }
            }
        }
    }
}

/// `traced-undefined` / `declared-not-defined` / `defined-not-declared`:
/// the declaration list and the definitions must agree. A traced name
/// without a definition is an error (the original emitted malformed
/// Pascal); the other two mismatches mirror elaboration's warnings, with
/// spans attached.
pub struct DeclCheck;

impl LintPass for DeclCheck {
    fn name(&self) -> &'static str {
        "decl-check"
    }

    fn codes(&self) -> &'static [&'static str] {
        &[
            "traced-undefined",
            "declared-not-defined",
            "defined-not-declared",
        ]
    }

    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let defined: HashSet<&str> = cx.spec.components.iter().map(|c| c.name.as_str()).collect();
        let declared: HashSet<&str> = cx.spec.declared.iter().map(|d| d.name.as_str()).collect();
        for d in &cx.spec.declared {
            if defined.contains(d.name.as_str()) {
                continue;
            }
            if d.traced {
                out.push(Diagnostic::new(
                    "traced-undefined",
                    Severity::Error,
                    d.span,
                    format!("traced name {} is never defined", d.name),
                ));
            } else {
                out.push(Diagnostic::new(
                    "declared-not-defined",
                    Severity::Warning,
                    d.span,
                    format!("{} declared but not defined", d.name),
                ));
            }
        }
        for c in &cx.spec.components {
            if !declared.contains(c.name.as_str()) {
                out.push(Diagnostic::new(
                    "defined-not-declared",
                    Severity::Warning,
                    c.span,
                    format!("{} defined but not declared", c.name),
                ));
            }
        }
    }
}

/// `too-many-bits`: a concatenation exceeds the 31-bit word. Replicates
/// the resolver's position walk (rightmost part first; an unsized part
/// fills the word, so nothing may sit to its left) without needing names
/// to resolve.
pub struct ExprTooWide;

impl LintPass for ExprTooWide {
    fn name(&self) -> &'static str {
        "expr-too-wide"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["too-many-bits"]
    }

    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        for c in &cx.spec.components {
            for expr in c.kind.expressions() {
                let mut pos: u32 = 0;
                let mut over = false;
                for part in expr.parts.iter().rev() {
                    match part.width() {
                        Some(w) => pos += u32::from(w),
                        None if pos > 30 => over = true,
                        None => pos = 31,
                    }
                    if pos > 31 {
                        over = true;
                    }
                    if over {
                        break;
                    }
                }
                if over {
                    out.push(Diagnostic::new(
                        "too-many-bits",
                        Severity::Error,
                        expr.span,
                        format!("expression {expr} exceeds the 31-bit word"),
                    ));
                }
            }
        }
    }
}

/// `const-truncated`: a sized constant `V.w` whose value does not fit in
/// `w` bits — the resolver silently keeps the low bits, which is almost
/// always a typo in the constant or the width.
pub struct ConstTruncated;

impl LintPass for ConstTruncated {
    fn name(&self) -> &'static str {
        "const-truncated"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["const-truncated"]
    }

    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        for c in &cx.spec.components {
            for expr in c.kind.expressions() {
                for part in &expr.parts {
                    if let Part::Const {
                        value,
                        width: Some(w),
                    } = part
                    {
                        if bits_needed(*value) > *w {
                            let kept = value & ((1i64 << *w) - 1);
                            out.push(Diagnostic::new(
                                "const-truncated",
                                Severity::Warning,
                                expr.span,
                                format!(
                                    "constant {value} does not fit in {w} bit(s): \
                                     high bits are dropped, keeping {kept}"
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
}

/// Constant-folds an expression whose parts are all constants, using the
/// resolver's masking and placement rules.
fn const_value(expr: &Expr) -> Option<Word> {
    let mut total: Word = 0;
    let mut pos: u32 = 0;
    for part in expr.parts.iter().rev() {
        match part {
            Part::Const { value, width } => match width {
                Some(w) => {
                    let mask = (1i64 << u32::from(*w)) - 1;
                    total += (value & mask) << pos;
                    pos += u32::from(*w);
                }
                None => {
                    if pos > 30 {
                        return None;
                    }
                    total += value << pos;
                    pos = 31;
                }
            },
            Part::Bits { value, width } => {
                total += value << pos.min(62);
                pos += u32::from(*width);
            }
            Part::Ref { .. } => return None,
        }
        if pos > 31 {
            return None;
        }
    }
    Some(total)
}

/// Provable upper bounds on component outputs: `bounds[name] = w` means
/// the value is always in `[0, 2^w)`. Only constructions that cannot go
/// negative or exceed the bound qualify: comparison/zero ALUs, selectors
/// whose cases are all bounded (a fixpoint, so selector-of-selector
/// chains resolve), and ROMs (constant-read memories, whose latch only
/// ever holds an init value or the initial 0). The heuristic
/// [`rtl_core::width::infer`] fixpoint is deliberately *not* used here:
/// its widths over-narrow signed intermediates (`Sub` can go negative),
/// and these bounds back claims the dynamic oracle treats as sound.
pub fn exact_bounds(spec: &Spec) -> HashMap<&str, u8> {
    let mut bounds: HashMap<&str, u8> = HashMap::new();
    loop {
        let mut changed = false;
        for c in &spec.components {
            if bounds.contains_key(c.name.as_str()) {
                continue;
            }
            let bound = match &c.kind {
                ComponentKind::Alu(a) => match const_value(&a.funct).and_then(AluFn::from_word) {
                    Some(AluFn::Zero) | Some(AluFn::Unused) | Some(AluFn::Eq) | Some(AluFn::Lt) => {
                        Some(1)
                    }
                    _ => None,
                },
                ComponentKind::Selector(s) => s
                    .cases
                    .iter()
                    .map(|case| expr_bound(case, &bounds))
                    .collect::<Option<Vec<u8>>>()
                    .and_then(|widths| widths.into_iter().max()),
                ComponentKind::Memory(m) => {
                    let read_only = const_value(&m.opn).is_some_and(|op| land(op, 3) == 0);
                    match (&m.init, read_only) {
                        (Some(init), true) => Some(
                            init.iter()
                                .copied()
                                .map(bits_needed)
                                .max()
                                .unwrap_or(1)
                                .max(1),
                        ),
                        (None, true) => Some(1), // all cells hold 0
                        _ => None,
                    }
                }
            };
            if let Some(w) = bound.filter(|&w| w < 31) {
                bounds.insert(c.name.as_str(), w);
                changed = true;
            }
        }
        if !changed {
            return bounds;
        }
    }
}

/// `Some(b)` when an expression's value is provably in `[0, 2^b)`.
/// Sized parts are masked before placement, so they contribute their
/// width; the resolver only permits one unsized part and only leftmost,
/// where a constant contributes its magnitude and a bare reference its
/// exact component bound (if one is known).
fn expr_bound(expr: &Expr, bounds: &HashMap<&str, u8>) -> Option<u8> {
    if let Some(value) = const_value(expr) {
        return Some(bits_needed(value));
    }
    let mut total: u32 = 0;
    for (i, part) in expr.parts.iter().enumerate() {
        match part.width() {
            Some(w) => total += u32::from(w),
            None if i > 0 => return None,
            None => match part {
                Part::Const { value, .. } => total += u32::from(bits_needed(*value)),
                Part::Ref { name, .. } => total += u32::from(*bounds.get(name.as_str())?),
                Part::Bits { .. } => unreachable!("bit strings are always sized"),
            },
        }
    }
    u8::try_from(total.max(1)).ok().filter(|&b| b < 31)
}

/// `field-oob`: a subfield read entirely above a provable value bound —
/// `x.5.8` when `x` is a 1-bit comparator always reads 0. Only exact
/// bounds (see [`exact_bounds`]) are used, so the finding is sound even
/// for designs with signed intermediates.
pub struct FieldOob;

impl LintPass for FieldOob {
    fn name(&self) -> &'static str {
        "field-oob"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["field-oob"]
    }

    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        for c in &cx.spec.components {
            for expr in c.kind.expressions() {
                for part in &expr.parts {
                    let Part::Ref {
                        name,
                        from: Some(f),
                        to,
                    } = part
                    else {
                        continue;
                    };
                    let Some(&bound) = cx.bounds.get(name.as_str()) else {
                        continue;
                    };
                    if *f >= bound {
                        let t = to.unwrap_or(*f);
                        out.push(Diagnostic::new(
                            "field-oob",
                            Severity::Warning,
                            expr.span,
                            format!(
                                "bits {f}..{t} of {name} are always 0: \
                                 {name} never exceeds {bound} bit(s)"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// A selector arm the analyzer can prove unreachable, plus why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeadArmReason {
    /// The select expression's value is provably in `[0, 2^bits)` (see
    /// [`exact_bounds`]), so indices `2^bits..` can never occur.
    Masked {
        /// The provable bound, in bits, on the select expression.
        bits: u8,
    },
    /// The select expression is the constant `value`; every other arm is
    /// dead.
    Constant {
        /// The constant select value.
        value: Word,
    },
}

/// Statically-dead arms of one selector: the component name, the design
/// index, the dead arm indices (sorted), and the reasoning, given the
/// design's [`exact_bounds`]. Shared between the [`DeadArm`] pass and the
/// dynamic oracle so both trust the same claim.
pub fn dead_arms(
    design: &Design,
    bounds: &HashMap<&str, u8>,
) -> Vec<(usize, Vec<usize>, DeadArmReason)> {
    let mut claims = Vec::new();
    for (id, comp) in design.iter() {
        let (RKind::Selector(s), ComponentKind::Selector(source)) =
            (&comp.kind, &design.source(id).kind)
        else {
            continue;
        };
        let arms = s.cases.len();
        let claim = if let Some(value) = s.select.as_constant() {
            let live = usize::try_from(value).ok();
            let dead: Vec<usize> = (0..arms).filter(|&i| Some(i) != live).collect();
            Some((dead, DeadArmReason::Constant { value }))
        } else if let Some(bits) = expr_bound(&source.select, bounds) {
            let max = (1usize << bits) - 1;
            let dead: Vec<usize> = (max + 1..arms).collect();
            Some((dead, DeadArmReason::Masked { bits }))
        } else {
            None
        };
        if let Some((dead, reason)) = claim.filter(|(dead, _)| !dead.is_empty()) {
            claims.push((id.index(), dead, reason));
        }
    }
    claims
}

/// `dead-arm` / `dup-arm`: unreachable and degenerate selector arms.
/// `dead-arm` findings are exactly the claims the dynamic oracle
/// cross-validates at runtime.
pub struct DeadArm;

impl LintPass for DeadArm {
    fn name(&self) -> &'static str {
        "dead-arm"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["dead-arm", "dup-arm"]
    }

    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let Some(design) = cx.design else { return };
        for (index, dead, reason) in cx.dead_arms {
            let id = design.id_at(*index);
            let name = design.name(id);
            let ast = design.source(id);
            let ComponentKind::Selector(s) = &ast.kind else {
                continue;
            };
            for &arm in dead {
                let span = s.cases.get(arm).map_or(ast.span, |case| case.span);
                let why = match reason {
                    DeadArmReason::Masked { bits } => format!(
                        "the select value fits in {bits} bit(s), so the index \
                         never exceeds {}",
                        (1u32 << bits) - 1
                    ),
                    DeadArmReason::Constant { value } => {
                        format!("the select expression is the constant {value}")
                    }
                };
                out.push(Diagnostic::new(
                    "dead-arm",
                    Severity::Warning,
                    span,
                    format!("arm {arm} of selector {name} can never fire: {why}"),
                ));
            }
        }
        // Degenerate selectors: every arm identical, the select is noise.
        for c in &cx.spec.components {
            let ComponentKind::Selector(s) = &c.kind else {
                continue;
            };
            if s.cases.len() >= 2 && s.cases.iter().all(|case| case.parts == s.cases[0].parts) {
                out.push(Diagnostic::new(
                    "dup-arm",
                    Severity::Warning,
                    c.span,
                    format!(
                        "all {} arms of selector {} are identical: the select \
                         expression has no effect",
                        s.cases.len(),
                        c.name
                    ),
                ));
            }
        }
    }
}

/// `sel-const-oob` / `addr-oob`: constant expressions that guarantee a
/// runtime halt — a constant select outside the arm list, or a constant
/// cell address outside a memory that is constantly read or written
/// (input/output operations use the address as a device number, not a
/// cell index, so they are exempt).
pub struct ConstOob;

impl LintPass for ConstOob {
    fn name(&self) -> &'static str {
        "const-oob"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["sel-const-oob", "addr-oob"]
    }

    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let Some(design) = cx.design else { return };
        for (id, comp) in design.iter() {
            let name = design.name(id);
            let ast = design.source(id);
            match &comp.kind {
                RKind::Selector(s) => {
                    let arms = s.cases.len();
                    if let Some(value) = s.select.as_constant() {
                        let in_range = usize::try_from(value).is_ok_and(|v| v < arms);
                        if !in_range {
                            let span = match &ast.kind {
                                ComponentKind::Selector(sel) => sel.select.span,
                                _ => ast.span,
                            };
                            out.push(Diagnostic::new(
                                "sel-const-oob",
                                Severity::Error,
                                span,
                                format!(
                                    "selector {name} always evaluates select index {value}, \
                                     outside its {arms} arm(s): the simulation halts"
                                ),
                            ));
                        }
                    }
                }
                RKind::Memory(m) => {
                    let cell_op = m
                        .opn
                        .as_constant()
                        .is_some_and(|op| matches!(land(op, 3), 0 | 1));
                    if !cell_op {
                        continue;
                    }
                    if let Some(addr) = m.addr.as_constant() {
                        let in_range = (0..Word::from(m.size)).contains(&addr);
                        if !in_range {
                            let span = match &ast.kind {
                                ComponentKind::Memory(mem) => mem.addr.span,
                                _ => ast.span,
                            };
                            out.push(Diagnostic::new(
                                "addr-oob",
                                Severity::Error,
                                span,
                                format!(
                                    "memory {name} always addresses cell {addr}, outside \
                                     its {} cell(s): the simulation halts",
                                    m.size
                                ),
                            ));
                        }
                    }
                }
                RKind::Alu(_) => {}
            }
        }
    }
}

/// The memories a static analyzer can prove are never written: constant
/// read operations never store, so the cells keep their init values
/// forever. Returns `(design index, expected cells padded to size)` —
/// also the oracle's second claim set.
pub fn undriven_memories(design: &Design) -> Vec<(usize, Vec<Word>)> {
    let mut claims = Vec::new();
    for &id in design.memories() {
        let m = design.memory(id);
        if m.opn.as_constant().is_some_and(|op| land(op, 3) == 0) {
            let mut cells = m.init.clone();
            cells.resize(m.size as usize, 0);
            claims.push((id.index(), cells));
        }
    }
    claims
}

/// `undriven-read` / `unused-write` / `trace-undriven`: memory usage
/// analysis over the reference graph.
pub struct MemoryUsage;

impl LintPass for MemoryUsage {
    fn name(&self) -> &'static str {
        "memory-usage"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["undriven-read", "unused-write", "trace-undriven"]
    }

    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let Some(design) = cx.design else { return };
        // Who reads whom: references from *other* components' expressions.
        let mut referenced = vec![false; design.len()];
        for (id, comp) in design.iter() {
            for expr in comp.kind.expressions() {
                for target in expr.comps() {
                    if target != id {
                        referenced[target.index()] = true;
                    }
                }
            }
        }
        for &id in design.memories() {
            let m = design.memory(id);
            let name = design.name(id);
            let Some(op) = m.opn.as_constant() else {
                continue; // dynamic operation: anything can happen
            };
            let traced = design.traced().contains(&id);
            let zero_cells = m.init.iter().all(|&v| v == 0);
            let span = design.source(id).span;
            match land(op, 3) {
                0 => {
                    // Never written: every read latches an init value.
                    if zero_cells && referenced[id.index()] {
                        out.push(Diagnostic::new(
                            "undriven-read",
                            Severity::Warning,
                            span,
                            format!(
                                "memory {name} is read but never written and all its \
                                 cells are 0: every reference sees constant 0"
                            ),
                        ));
                    }
                    if zero_cells && traced {
                        let tspan = cx
                            .spec
                            .declared
                            .iter()
                            .find(|d| d.name.as_str() == name)
                            .map_or(span, |d| d.span);
                        out.push(Diagnostic::new(
                            "trace-undriven",
                            Severity::Warning,
                            tspan,
                            format!(
                                "{name} is traced every cycle but is never written and \
                                 holds only zeros: the trace column is constant"
                            ),
                        ));
                    }
                }
                1 | 2 => {
                    let emits = rtl_core::word::traces_write(op) || rtl_core::word::traces_read(op);
                    if !referenced[id.index()] && !traced && !emits {
                        let what = if land(op, 3) == 1 {
                            "written"
                        } else {
                            "read from input"
                        };
                        out.push(Diagnostic::new(
                            "unused-write",
                            Severity::Warning,
                            span,
                            format!(
                                "memory {name} is {what} every cycle but its value is \
                                 never referenced, traced, or output"
                            ),
                        ));
                    }
                }
                _ => {} // output ops are used by definition
            }
        }
    }
}
