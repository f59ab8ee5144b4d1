//! Lowering a [`Design`] to [`CycleIr`], with the thesis's optimizations
//! applied as independent, ablatable passes.

use crate::ir::{CycleIr, IrExpr, MemPlan, OpnPlan, Step, TraceDecision};
use rtl_core::{AluFn, Design, RKind};

/// Optimization switches, each corresponding to a design choice the thesis
/// discusses. [`OptOptions::full`] is what ASIM II shipped with (plus the
/// §5.4 future-work latch elision); [`OptOptions::none`] approximates a
/// naive code generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptOptions {
    /// §4.4: "If the function is a constant, code is generated which
    /// performs the function inline, rather than call the procedure."
    pub inline_const_alu: bool,
    /// §4.4: "if the memory operation is a constant, the case structure is
    /// eliminated and only the appropriate action is performed."
    pub inline_const_memop: bool,
    /// Constant folding over the lowered IR (subsumes the original's
    /// pre-shifted constant concatenation parts).
    pub fold_constants: bool,
    /// §5.4 future work: "heuristics to determine which memories do not
    /// need temporary variables in which to store results."
    pub elide_dead_latches: bool,
}

impl OptOptions {
    /// Everything on — the default.
    pub const fn full() -> Self {
        OptOptions {
            inline_const_alu: true,
            inline_const_memop: true,
            fold_constants: true,
            elide_dead_latches: true,
        }
    }

    /// Everything off — a naive translator.
    pub const fn none() -> Self {
        OptOptions {
            inline_const_alu: false,
            inline_const_memop: false,
            fold_constants: false,
            elide_dead_latches: false,
        }
    }
}

impl Default for OptOptions {
    fn default() -> Self {
        Self::full()
    }
}

/// Lowers a design to cycle IR with the given optimizations. Trace output
/// is on (matching the original simulators); backends and the VM can be
/// configured separately.
pub fn lower(design: &Design, options: OptOptions) -> CycleIr {
    let maybe_fold = |e: IrExpr| if options.fold_constants { e.fold() } else { e };

    // Combinational steps in dependency order.
    let mut steps = Vec::with_capacity(design.comb_order().len());
    for &id in design.comb_order() {
        match &design.comp(id).kind {
            RKind::Alu(a) => {
                let funct = IrExpr::from_rexpr(&a.funct);
                let left = maybe_fold(IrExpr::from_rexpr(&a.left));
                let right = maybe_fold(IrExpr::from_rexpr(&a.right));
                let expr = match (options.inline_const_alu, a.funct.as_constant()) {
                    (true, Some(f)) => match AluFn::from_word(f) {
                        Some(f) => maybe_fold(IrExpr::apply_fn(f, left, right)),
                        // A constant-but-invalid function: keep the dynamic
                        // dispatch so the runtime error still fires.
                        None => IrExpr::Dologic {
                            funct: Box::new(IrExpr::Const(f)),
                            left: Box::new(left),
                            right: Box::new(right),
                            comp: id,
                        },
                    },
                    _ => IrExpr::Dologic {
                        funct: Box::new(maybe_fold(funct)),
                        left: Box::new(left),
                        right: Box::new(right),
                        comp: id,
                    },
                };
                steps.push(Step::Assign { id, expr });
            }
            RKind::Selector(s) => {
                let select = maybe_fold(IrExpr::from_rexpr(&s.select));
                let cases = s
                    .cases
                    .iter()
                    .map(|c| maybe_fold(IrExpr::from_rexpr(c)))
                    .collect();
                steps.push(Step::Select { id, select, cases });
            }
            RKind::Memory(_) => unreachable!("memories are not combinational"),
        }
    }

    // Which memory latches are actually observable?
    let latch_used: Vec<bool> = latch_usage(design);

    let mut mems = Vec::with_capacity(design.memories().len());
    for &id in design.memories() {
        let m = design.memory(id);
        let addr = maybe_fold(IrExpr::from_rexpr(&m.addr));
        let data_ir = maybe_fold(IrExpr::from_rexpr(&m.data));

        let (opn, trace_write, trace_read, data) =
            match (options.inline_const_memop, m.opn.as_constant()) {
                (true, Some(op)) => {
                    let tw = decide(rtl_core::word::traces_write(op));
                    let tr = decide(rtl_core::word::traces_read(op));
                    // Reads and inputs never evaluate the data expression.
                    let needs_data = matches!(rtl_core::land(op, 3), 1 | 3);
                    (OpnPlan::Const(op), tw, tr, needs_data.then_some(data_ir))
                }
                _ => {
                    // Dynamic operation: the original only emitted trace
                    // checks when the operation expression was wide enough
                    // to reach the trace bits (`numberofbits`).
                    let w = m.opn.width;
                    let tw = if w >= 3 {
                        TraceDecision::Dynamic
                    } else {
                        TraceDecision::Never
                    };
                    let tr = if w >= 4 {
                        TraceDecision::Dynamic
                    } else {
                        TraceDecision::Never
                    };
                    (
                        OpnPlan::Dynamic(maybe_fold(IrExpr::from_rexpr(&m.opn))),
                        tw,
                        tr,
                        Some(data_ir),
                    )
                }
            };

        let traced_here = design.traced().contains(&id);
        let latch_needed = if options.elide_dead_latches {
            latch_used[id.index()]
                || traced_here
                || trace_write != TraceDecision::Never
                || trace_read != TraceDecision::Never
        } else {
            true
        };

        mems.push(MemPlan {
            id,
            size: m.size,
            addr,
            opn,
            data,
            latch_needed,
            trace_write,
            trace_read,
        });
    }

    CycleIr {
        steps,
        mems,
        traced: design.traced().to_vec(),
        trace: true,
    }
}

fn decide(cond: bool) -> TraceDecision {
    if cond {
        TraceDecision::Always
    } else {
        TraceDecision::Never
    }
}

/// `true` at index `i` if any expression anywhere in the design reads
/// component `i`'s output. For memories that means the latch is observable.
fn latch_usage(design: &Design) -> Vec<bool> {
    let mut used = vec![false; design.len()];
    for (_, comp) in design.iter() {
        for expr in comp.kind.expressions() {
            for c in expr.comps() {
                used[c.index()] = true;
            }
        }
    }
    used
}

/// Lowers with a specific trace setting.
pub fn lower_with_trace(design: &Design, options: OptOptions, trace: bool) -> CycleIr {
    let mut ir = lower(design, options);
    ir.trace = trace;
    ir
}

/// Compile-time statistics, for the `asim compile -v` report and the
/// optimization tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowerStats {
    /// Total IR nodes.
    pub nodes: usize,
    /// ALUs compiled to a generic `dologic` dispatch.
    pub generic_alus: usize,
    /// Memories with constant-specialized operations.
    pub const_memops: usize,
    /// Memories whose latch maintenance was elided.
    pub elided_latches: usize,
}

/// Computes statistics for a lowered cycle.
pub fn stats(ir: &CycleIr) -> LowerStats {
    fn count_dologic(e: &IrExpr) -> usize {
        use IrExpr::*;
        match e {
            Dologic {
                funct, left, right, ..
            } => 1 + count_dologic(funct) + count_dologic(left) + count_dologic(right),
            Const(_) | Output(_) => 0,
            Field { inner, .. } | Shl { inner, .. } | Not(inner) => count_dologic(inner),
            Sum(ts) => ts.iter().map(count_dologic).sum(),
            Add(a, b)
            | Sub(a, b)
            | ShlLoop(a, b)
            | Mul(a, b)
            | And(a, b)
            | Or(a, b)
            | Xor(a, b)
            | Eq(a, b)
            | Lt(a, b) => count_dologic(a) + count_dologic(b),
        }
    }
    let generic_alus = ir
        .steps
        .iter()
        .map(|s| match s {
            Step::Assign { expr, .. } => count_dologic(expr),
            Step::Select { select, cases, .. } => {
                count_dologic(select) + cases.iter().map(count_dologic).sum::<usize>()
            }
        })
        .sum();
    LowerStats {
        nodes: ir.node_count(),
        generic_alus,
        const_memops: ir
            .mems
            .iter()
            .filter(|m| matches!(m.opn, OpnPlan::Const(_)))
            .count(),
        elided_latches: ir.mems.iter().filter(|m| !m.latch_needed).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtl_core::Design;

    fn d(src: &str) -> Design {
        Design::from_source(src).unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn figure_4_1_inlining() {
        // `A add 4 left 3048` becomes an inline Add; `A alu compute left
        // 3048` stays a dologic call.
        let design = d("# fig41\nalu add compute left .\n\
             A alu compute left 3048\nA add 4 left 3048\n\
             A compute 0 0 0\nM left 0 0 0 1 .");
        let ir = lower(&design, OptOptions::full());
        let s = stats(&ir);
        assert_eq!(s.generic_alus, 1, "only `alu` needs dologic");

        let naive = lower(&design, OptOptions::none());
        // Without inlining every ALU is a dologic (alu, add, compute).
        assert_eq!(stats(&naive).generic_alus, 3);
    }

    #[test]
    fn const_memop_specialization() {
        let design = d("# m\nm c n .\nM c 0 n 1 1\nA n 4 c 1\nM m c c c 4 .");
        let ir = lower(&design, OptOptions::full());
        // `c` has constant op 1; `m` has dynamic op.
        assert_eq!(stats(&ir).const_memops, 1);
        let naive = lower(&design, OptOptions::none());
        assert_eq!(stats(&naive).const_memops, 0);
    }

    #[test]
    fn read_op_drops_data_expression() {
        let design = d("# m\nrom c n .\nM c 0 n 1 1\nA n 4 c 1\nM rom c 0 0 8 .");
        let ir = lower(&design, OptOptions::full());
        let rom = &ir.mems[1];
        assert!(matches!(rom.opn, OpnPlan::Const(0)));
        assert_eq!(rom.data, None, "reads never evaluate data");
    }

    #[test]
    fn latch_elision_is_conservative() {
        // `sink` is written but never read nor traced: latch elided.
        // `c` feeds `n`: latch kept.
        let design = d("# m\nc n sink .\nM c 0 n 1 1\nA n 4 c 1\nM sink 0 n 1 1 .");
        let ir = lower(&design, OptOptions::full());
        assert_eq!(stats(&ir).elided_latches, 1);
        assert!(ir.mems[0].latch_needed, "c is read by n");
        assert!(!ir.mems[1].latch_needed, "sink is write-only");

        // Tracing the sink forces the latch back.
        let design = d("# m\nc n sink* .\nM c 0 n 1 1\nA n 4 c 1\nM sink 0 n 1 1 .");
        let ir = lower(&design, OptOptions::full());
        assert_eq!(stats(&ir).elided_latches, 0);
    }

    #[test]
    fn narrow_dynamic_opn_never_traces() {
        // opn = c.0 (1 bit): can never set trace bits.
        let design = d("# m\nm c n .\nM c 0 n 1 1\nA n 4 c 1\nM m 0 c c.0 1 .");
        let ir = lower(&design, OptOptions::full());
        let m = &ir.mems[1];
        assert_eq!(m.trace_write, TraceDecision::Never);
        assert_eq!(m.trace_read, TraceDecision::Never);

        // opn = c.0.3 (4 bits): both dynamic.
        let design = d("# m\nm c n .\nM c 0 n 1 1\nA n 4 c 1\nM m 0 c c.0.3 1 .");
        let ir = lower(&design, OptOptions::full());
        let m = &ir.mems[1];
        assert_eq!(m.trace_write, TraceDecision::Dynamic);
        assert_eq!(m.trace_read, TraceDecision::Dynamic);
    }

    #[test]
    fn const_trace_bits_decide_statically() {
        let design = d("# m\nm c n .\nM c 0 n 1 1\nA n 4 c 1\nM m 0 c 5 1 .");
        let ir = lower(&design, OptOptions::full());
        let m = &ir.mems[1];
        assert_eq!(m.trace_write, TraceDecision::Always);
        assert_eq!(m.trace_read, TraceDecision::Never);
    }

    #[test]
    fn invalid_const_funct_stays_dynamic_for_the_error() {
        let design = d("# m\na .\nA a 14 0 0 .");
        let ir = lower(&design, OptOptions::full());
        assert_eq!(stats(&ir).generic_alus, 1);
    }

    #[test]
    fn folding_reduces_nodes() {
        let design = d("# m\na b .\nA a 4 %110,1.2 3\nA b 4 a 1 .");
        let full = lower(&design, OptOptions::full());
        let naive = lower(&design, OptOptions::none());
        assert!(full.node_count() < naive.node_count());
        // a = (6<<2 | 1) + 3 = 28 folded to a constant.
        match &full.steps[0] {
            Step::Assign { expr, .. } => assert_eq!(expr.as_const(), Some(28)),
            other => panic!("{other:?}"),
        }
    }
}
