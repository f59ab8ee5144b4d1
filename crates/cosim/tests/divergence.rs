//! Proof that the harness actually detects divergences: a deliberately
//! broken engine must be caught at exactly the cycle it misbehaves, with
//! the right report shape — and the interp-vs-VM pairing must stay clean
//! on generated scenarios (the property the whole subsystem guards).

use proptest::prelude::*;
use rtl_core::{
    Design, Engine, EngineLane, EngineOptions, HaltKind, InputSource, SimError, SimState,
    StopReason, TraceBuf, TraceEvent, Word,
};
use rtl_cosim::{
    generate_scenario, registry, run_scenario_names, CosimOptions, CosimOutcome, DivergenceKind,
    GenOptions, Lockstep,
};
use rtl_interp::Interpreter;

/// How the broken engine misbehaves.
#[derive(Clone, Copy)]
enum Fault {
    /// Corrupts one component's visible output from `at_cycle` on.
    Output,
    /// Writes garbage into the trace stream at `at_cycle`.
    Trace,
    /// Raises a runtime error at `at_cycle`.
    Error,
}

/// An interpreter wrapper that sabotages one cycle — the test double for
/// the harness itself.
struct BrokenEngine<'d> {
    inner: Interpreter<'d>,
    fault: Fault,
    at_cycle: Word,
}

impl<'d> BrokenEngine<'d> {
    fn new(design: &'d Design, fault: Fault, at_cycle: Word) -> Self {
        BrokenEngine {
            inner: Interpreter::new(design),
            fault,
            at_cycle,
        }
    }
}

impl Engine for BrokenEngine<'_> {
    fn design(&self) -> &Design {
        self.inner.design()
    }

    fn state(&self) -> &SimState {
        self.inner.state()
    }

    fn restore(&mut self, snapshot: &SimState) {
        self.inner.restore(snapshot);
    }

    fn step(
        &mut self,
        trace: &mut TraceBuf<'_>,
        input: &mut dyn InputSource,
    ) -> Result<(), SimError> {
        let cycle = self.inner.state().cycle();
        if cycle >= self.at_cycle {
            match self.fault {
                Fault::Error => {
                    return Err(SimError::BadAluFunction {
                        component: "sabotaged".into(),
                        funct: 99,
                        cycle,
                    });
                }
                Fault::Trace => {
                    self.inner.step(trace, input)?;
                    trace.push(TraceEvent::raw(&b"garbage\n"[..]));
                    return Ok(());
                }
                Fault::Output => {
                    self.inner.step(trace, input)?;
                    let id = self.inner.design().id_at(0);
                    let bad = self.inner.state().output(id) + 1000;
                    let mut corrupted = self.inner.snapshot();
                    corrupted.set_output(id, bad);
                    self.inner.restore(&corrupted);
                    return Ok(());
                }
            }
        }
        self.inner.step(trace, input)
    }
}

const COUNTER: &str = "# c\ncount* next .\nM count 0 next 1 1\nA next 4 count 1 .";

/// Adds default-registry lanes to a harness by name.
fn add_lanes<'d>(lockstep: &mut Lockstep<'d>, design: &'d Design, lanes: &[&str]) {
    for &name in lanes {
        let Ok(EngineLane::Stepped(engine)) =
            registry().build(name, design, &EngineOptions::default())
        else {
            panic!("{name} is a stepped registry lane");
        };
        lockstep.add_lane(name, engine);
    }
}

fn interp_vm() -> Vec<String> {
    vec!["interp".to_string(), "vm".to_string()]
}

fn broken_lockstep(fault: Fault, at_cycle: Word, options: CosimOptions) -> CosimOutcome {
    let design = Design::from_source(COUNTER).unwrap();
    let mut lockstep = Lockstep::new(&design, options);
    add_lanes(&mut lockstep, &design, &["vm"]);
    lockstep.add_lane(
        "broken",
        Box::new(BrokenEngine::new(&design, fault, at_cycle)),
    );
    lockstep.run(40)
}

#[test]
fn output_fault_is_caught_at_the_exact_cycle() {
    let outcome = broken_lockstep(Fault::Output, 17, CosimOptions::default());
    let CosimOutcome::Divergence(report) = outcome else {
        panic!("expected divergence, got {outcome:?}");
    };
    assert_eq!(report.cycle, 17, "{report}");
    // The counter's memory is component 0; its corrupted latch diverges.
    assert!(
        matches!(&report.kind, DivergenceKind::Output { component } if component == "count"),
        "{report}"
    );
    assert_eq!(report.lanes.len(), 2);
    let values: Vec<Option<Word>> = report.lanes.iter().map(|l| l.value).collect();
    assert_eq!(values[0].unwrap() + 1000, values[1].unwrap(), "{report}");
}

#[test]
fn trace_fault_is_caught_at_the_exact_cycle() {
    let outcome = broken_lockstep(Fault::Trace, 5, CosimOptions::default());
    let CosimOutcome::Divergence(report) = outcome else {
        panic!("expected divergence, got {outcome:?}");
    };
    assert_eq!(report.cycle, 5);
    assert_eq!(report.kind, DivergenceKind::Trace);
    // The broken lane's window shows the injected garbage.
    let broken = report.lanes.iter().find(|l| l.engine == "broken").unwrap();
    assert!(
        broken.trace_window.iter().any(|l| l == "garbage"),
        "{report}"
    );
}

#[test]
fn one_sided_error_is_a_divergence_not_a_halt() {
    let outcome = broken_lockstep(Fault::Error, 9, CosimOptions::default());
    let CosimOutcome::Divergence(report) = outcome else {
        panic!("expected divergence, got {outcome:?}");
    };
    assert_eq!(report.cycle, 9);
    assert_eq!(report.kind, DivergenceKind::Error);
    let broken = report.lanes.iter().find(|l| l.engine == "broken").unwrap();
    assert!(
        matches!(
            &broken.error,
            Some(SimError::BadAluFunction { component, .. }) if component == "sabotaged"
        ),
        "{report}"
    );
    let healthy = report.lanes.iter().find(|l| l.engine == "vm").unwrap();
    assert!(healthy.error.is_none());
}

#[test]
fn unanimous_halts_are_classified_structurally() {
    // Every engine runs the scripted input dry at the same cycle: the
    // outcome is an agreement whose StopReason is a *structured* halt —
    // a value to match on, not a string to grep.
    let design = Design::from_source("# io\ni .\nM i 1 0 2 1 .").unwrap();
    let mut lockstep = Lockstep::new(&design, CosimOptions::default());
    lockstep.stimulus(vec![5, 6, 7]);
    add_lanes(&mut lockstep, &design, &["interp", "vm"]);
    match lockstep.run(20) {
        CosimOutcome::Agreement {
            cycles,
            stop: StopReason::Halt(halt),
            ..
        } => {
            assert_eq!(cycles, 3);
            assert_eq!(halt, HaltKind::InputExhausted { cycle: 3 });
            assert_eq!(halt.label(), "input-exhausted");
        }
        other => panic!("expected a classified unanimous halt, got {other:?}"),
    }

    // And a design-level crash classifies by component, not by message.
    let design =
        Design::from_source("# bad\nc s n .\nM c 0 n 1 1\nA n 4 c 1\nS s c 1 2 .").unwrap();
    let mut lockstep = Lockstep::new(&design, CosimOptions::default());
    add_lanes(&mut lockstep, &design, &["interp", "vm"]);
    let outcome = lockstep.run(20);
    let halt = outcome.halt().expect("unanimous selector crash");
    assert!(
        matches!(
            halt,
            HaltKind::SelectorOutOfRange { component, index: 2, cases: 2, cycle: 2 }
                if component == "s"
        ),
        "{halt:?}"
    );
}

#[test]
fn coarse_comparison_bisects_to_the_same_cycle() {
    // Compare every 16 cycles; the fault at cycle 21 lands mid-interval,
    // so detection requires the checkpoint-rewind bisection path.
    for fault in [Fault::Output, Fault::Trace, Fault::Error] {
        let options = CosimOptions {
            compare_every: 16,
            ..CosimOptions::default()
        };
        let outcome = broken_lockstep(fault, 21, options);
        let CosimOutcome::Divergence(report) = outcome else {
            panic!("expected divergence");
        };
        assert_eq!(report.cycle, 21, "{report}");
    }
}

proptest! {
    /// The central safety property, now via the subsystem that owns it:
    /// interpreter and VM agree in lockstep on arbitrary generated
    /// scenarios (stimulus included) for a bounded cycle budget.
    #[test]
    fn interp_vs_vm_lockstep_on_generated_scenarios(seed in 0u64..300, size in 1usize..25) {
        let options = GenOptions { size, cycles: 24, ..GenOptions::default() };
        let scenario = generate_scenario(seed, &options);
        let outcome = run_scenario_names(registry(), &interp_vm(), &scenario, &CosimOptions::default())
            .expect("generated scenarios elaborate");
        prop_assert!(outcome.agreed(), "{scenario:?}: {outcome:?}");
    }

    /// Coarse comparison intervals never change the verdict on clean runs.
    #[test]
    fn comparison_stride_does_not_change_verdicts(seed in 0u64..40, stride in 1u64..32) {
        let scenario = generate_scenario(seed, &GenOptions { size: 10, cycles: 32, ..GenOptions::default() });
        let fine = run_scenario_names(registry(), &interp_vm(), &scenario, &CosimOptions::default())
            .unwrap();
        let coarse = run_scenario_names(
            registry(),
            &interp_vm(),
            &scenario,
            &CosimOptions { compare_every: stride, ..CosimOptions::default() },
        ).unwrap();
        prop_assert_eq!(fine.agreed(), coarse.agreed());
    }
}

/// A report's trace window as the byte-capturing harness quoted it: the
/// last 4096 bytes of the committed text (all of it under retention),
/// then the divergent span, cut into its last 8 lines.
fn byte_window(committed: &[u8], span: &[u8], retain: bool) -> Vec<String> {
    let start = if retain {
        0
    } else {
        committed.len().saturating_sub(4096)
    };
    let mut text = committed[start..].to_vec();
    text.extend_from_slice(span);
    let text = String::from_utf8_lossy(&text).into_owned();
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(8)..]
        .iter()
        .map(|line| line.to_string())
        .collect()
}

fn captured(design: &Design, cycles: u64) -> Vec<u8> {
    let Ok(EngineLane::Stepped(engine)) =
        registry().build("interp", design, &EngineOptions::default())
    else {
        panic!("interp is stepped");
    };
    let mut session = rtl_core::Session::over(engine).capture().build();
    assert!(session.run(rtl_core::Until::Cycles(cycles)).completed());
    session.output().to_vec()
}

/// Report windows and the agreed tail are exact long after the committed
/// trace was trimmed: at both strides, with and without retention, for
/// short lines and for lines so wide that the 4096-byte cut lands
/// mid-line, and at every point of a trim period.
#[test]
fn trace_windows_match_the_byte_harness_after_trimming() {
    let names: Vec<String> = (0..40).map(|i| format!("componentnumber{i:02}")).collect();
    let mut wide = format!(
        "# wide\n{} count next .\nM count 0 next 1 1\nA next 4 count 1\n",
        names
            .iter()
            .map(|n| format!("{n}*"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for (i, name) in names.iter().enumerate() {
        wide.push_str(&format!("A {name} 4 count {i}\n"));
    }
    wide.push('.');
    // Commits trim every few cycles (wide lines) or every ~70 (the
    // counter); the triggers cover a whole trim period of each.
    let wide_triggers: Vec<u64> = (120..=130).collect();
    let counter_triggers: Vec<u64> = (1000..=1070).step_by(5).collect();
    let cases = wide_triggers
        .into_iter()
        .map(|t| (wide.as_str(), t))
        .chain(counter_triggers.into_iter().map(|t| (COUNTER, t)));
    for (src, trigger) in cases {
        let design = Design::from_source(src).unwrap();
        let committed = captured(&design, trigger);
        let full = captured(&design, trigger + 1);
        let span = &full[committed.len()..];
        let mangled: Vec<u8> = span
            .iter()
            .map(|&b| if b == b'=' { b'#' } else { b })
            .collect();
        let mut fault_registry = rtl_cosim::default_registry();
        fault_registry.register(Box::new(rtl_cosim::FaultyVmFactory::from_cycle(trigger)));
        for stride in [1, 16] {
            for retain in [false, true] {
                let mut lockstep = Lockstep::new(
                    &design,
                    CosimOptions {
                        compare_every: stride,
                        retain_output: retain,
                        ..CosimOptions::default()
                    },
                );
                for name in ["interp", "vm-fault"] {
                    let Ok(EngineLane::Stepped(engine)) =
                        fault_registry.build(name, &design, &EngineOptions::default())
                    else {
                        panic!("{name} is stepped");
                    };
                    lockstep.add_lane(name, engine);
                }
                let CosimOutcome::Divergence(report) = lockstep.run(trigger + 20) else {
                    panic!("vm-fault must diverge");
                };
                let at = format!("trigger {trigger}, stride {stride}, retain {retain}");
                assert_eq!(report.cycle, trigger as Word, "{at}");
                assert_eq!(
                    report.lanes[0].trace_window,
                    byte_window(&committed, span, retain),
                    "{at}"
                );
                assert_eq!(
                    report.lanes[1].trace_window,
                    byte_window(&committed, &mangled, retain),
                    "{at}"
                );
                let agreed = lockstep.agreed_output();
                if retain {
                    assert_eq!(agreed, committed, "{at}");
                } else {
                    assert_eq!(agreed, committed[committed.len() - 4096..], "{at}");
                }
            }
        }
    }
}
