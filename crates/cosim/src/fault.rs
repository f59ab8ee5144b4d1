//! Deliberate fault injection: a broken engine lane for validating the
//! differential pipeline end to end.
//!
//! A verification subsystem that has never seen a bug is itself
//! unverified. The `vm-fault` lane wraps the production bytecode VM and,
//! from a trigger cycle on, corrupts what the lane *shows*: its trace
//! (each step's events are replaced by their rendering with `=` mangled
//! to `#`) and its observed architectural state (bit 0 of
//! the first observed component's output flipped, via a corrupted view —
//! the VM's real state is never touched). Every shipped
//! [`Comparator`](rtl_core::observe::Comparator) lens — trace bytes,
//! outputs, VCD samples, the composite — therefore sees the fault at the
//! *same first cycle*, and because the underlying state stays healthy,
//! checkpoint/rewind bisection still replays the divergence
//! byte-for-byte.

use rtl_core::trace::render_text;
use rtl_core::{
    CompId, Design, Engine, EngineFactory, EngineLane, EngineOptions, InputSource, SimError,
    SimState, SimStats, TraceBuf, TraceEvent, Word,
};

/// The default trigger cycle of the registered `vm-fault` lane.
pub const DEFAULT_FAULT_CYCLE: u64 = 40;

/// Builds the `vm-fault` lane: the full-optimization VM with trace and
/// observed-output corruption from a trigger cycle on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultyVmFactory {
    from_cycle: u64,
}

impl Default for FaultyVmFactory {
    fn default() -> Self {
        FaultyVmFactory {
            from_cycle: DEFAULT_FAULT_CYCLE,
        }
    }
}

impl FaultyVmFactory {
    /// A factory whose lanes corrupt their observable face from `cycle`
    /// on.
    pub fn from_cycle(cycle: u64) -> Self {
        FaultyVmFactory { from_cycle: cycle }
    }
}

impl EngineFactory for FaultyVmFactory {
    fn name(&self) -> &str {
        "vm-fault"
    }

    fn description(&self) -> &str {
        "deliberately faulty VM (trace + observed-output corruption past a trigger cycle) \
         for harness self-tests"
    }

    fn build<'d>(
        &self,
        design: &'d Design,
        options: &EngineOptions,
    ) -> Result<EngineLane<'d>, String> {
        let EngineLane::Stepped(inner) = rtl_compile::VmFactory::full().build(design, options)?
        else {
            unreachable!("the VM factory builds stepped lanes");
        };
        Ok(EngineLane::Stepped(Box::new(FaultInjector {
            inner,
            from_cycle: Word::try_from(self.from_cycle).unwrap_or(Word::MAX),
            view: None,
            scratch: TraceBuf::new(),
        })))
    }
}

/// Wraps any engine: from the trigger cycle on, each step's trace events
/// are replaced by their rendering with `=` mangled to `#` (one
/// [`TraceEvent::Raw`]), and its [`state`](Engine::state) is a
/// deterministically corrupted *view* (bit 0 of the first observed
/// component's output flipped). The inner engine's own state is never
/// modified, so restore/replay reproduces the fault exactly.
struct FaultInjector<'d> {
    inner: Box<dyn Engine + 'd>,
    from_cycle: Word,
    view: Option<SimState>,
    /// The inner engine's trace for one triggered step, before mangling.
    scratch: TraceBuf<'static>,
}

impl FaultInjector<'_> {
    /// The corrupted component: the first one the wrapped engine
    /// observes (deterministic per design).
    fn target(&self) -> Option<CompId> {
        self.inner
            .design()
            .iter()
            .map(|(id, _)| id)
            .find(|&id| self.inner.observes_output(id))
    }

    fn refresh_view(&mut self) {
        let state = self.inner.state();
        // The step that executes cycle `from_cycle` leaves the counter at
        // `from_cycle + 1`; the view corrupts from that same step on, so
        // state-based lenses fire at the identical first cycle as the
        // trace corruption.
        if state.cycle() > self.from_cycle {
            if let Some(id) = self.target() {
                let mut view = state.clone();
                view.set_output(id, state.output(id) ^ 1);
                self.view = Some(view);
                return;
            }
        }
        self.view = None;
    }
}

impl Engine for FaultInjector<'_> {
    fn design(&self) -> &Design {
        self.inner.design()
    }

    fn state(&self) -> &SimState {
        self.view.as_ref().unwrap_or_else(|| self.inner.state())
    }

    fn restore(&mut self, snapshot: &SimState) {
        // Snapshots and checkpoints are taken through `state()`, i.e. the
        // corrupted *view* when past the trigger. The corruption is an
        // involution (XOR 1 on one output), so invert it here before
        // handing the state to the real engine — otherwise a
        // checkpoint/restore round trip would fold the view's flip into
        // the engine's true state and the fault would stop being
        // replayable byte-for-byte.
        if snapshot.cycle() > self.from_cycle {
            if let Some(id) = self.target() {
                let mut clean = snapshot.clone();
                clean.set_output(id, snapshot.output(id) ^ 1);
                self.inner.restore(&clean);
                self.refresh_view();
                return;
            }
        }
        self.inner.restore(snapshot);
        self.refresh_view();
    }

    fn observes_output(&self, id: CompId) -> bool {
        self.inner.observes_output(id)
    }

    fn stats(&self) -> Option<&SimStats> {
        self.inner.stats()
    }

    fn flush_profile(&mut self) {
        self.inner.flush_profile();
    }

    fn step(
        &mut self,
        trace: &mut TraceBuf<'_>,
        input: &mut dyn InputSource,
    ) -> Result<(), SimError> {
        let result = if self.inner.state().cycle() >= self.from_cycle {
            let result = self.inner.step(&mut self.scratch, input);
            let mut text = render_text(self.inner.design(), self.scratch.events());
            self.scratch.clear();
            for byte in &mut text {
                if *byte == b'=' {
                    *byte = b'#';
                }
            }
            if !text.is_empty() {
                trace.push(TraceEvent::raw(text));
            }
            result
        } else {
            self.inner.step(trace, input)
        };
        self.refresh_view();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CosimOptions, CosimOutcome, Lockstep};
    use rtl_core::observe::CompareMode;
    use rtl_core::DivergenceKind;

    const COUNTER: &str = "# c\ncount* next .\nM count 0 next 1 1\nA next 4 count 1 .";

    fn fault_registry(from_cycle: u64) -> rtl_core::EngineRegistry {
        let mut registry = crate::engines::default_registry();
        registry.register(Box::new(FaultyVmFactory::from_cycle(from_cycle)));
        registry
    }

    fn build<'d>(
        registry: &rtl_core::EngineRegistry,
        name: &str,
        design: &'d Design,
    ) -> Box<dyn Engine + 'd> {
        let EngineLane::Stepped(engine) = registry
            .build(name, design, &EngineOptions::default())
            .unwrap()
        else {
            panic!("stepped");
        };
        engine
    }

    #[test]
    fn fault_diverges_exactly_at_its_trigger() {
        let design = Design::from_source(COUNTER).unwrap();
        let registry = fault_registry(7);
        let mut lockstep = Lockstep::new(&design, CosimOptions::default());
        lockstep.add_lane("interp", build(&registry, "interp", &design));
        lockstep.add_lane("vm-fault", build(&registry, "vm-fault", &design));
        let CosimOutcome::Divergence(report) = lockstep.run(20) else {
            panic!("fault must diverge");
        };
        assert_eq!(report.cycle, 7);
        assert_eq!(report.kind, DivergenceKind::Trace);
    }

    #[test]
    fn fault_agrees_below_its_trigger() {
        let design = Design::from_source(COUNTER).unwrap();
        let registry = fault_registry(50);
        // Lockstep entirely below the trigger: no divergence.
        let mut lockstep = Lockstep::new(&design, CosimOptions::default());
        lockstep.add_lane("interp", build(&registry, "interp", &design));
        lockstep.add_lane("vm-fault", build(&registry, "vm-fault", &design));
        assert!(lockstep.run(20).agreed());
    }

    #[test]
    fn every_lens_sees_the_fault_at_the_same_cycle() {
        // The acceptance property behind `--compare vcd`: trace bytes,
        // VCD samples, raw outputs and the composite all report the
        // identical first divergent cycle.
        let design = Design::from_source(COUNTER).unwrap();
        let registry = fault_registry(7);
        for mode in [
            CompareMode::Trace,
            CompareMode::Vcd,
            CompareMode::Outputs,
            CompareMode::All,
        ] {
            let mut lockstep = Lockstep::new(
                &design,
                CosimOptions {
                    compare: vec![mode],
                    ..CosimOptions::default()
                },
            );
            lockstep.add_lane("interp", build(&registry, "interp", &design));
            lockstep.add_lane("vm-fault", build(&registry, "vm-fault", &design));
            let CosimOutcome::Divergence(report) = lockstep.run(20) else {
                panic!("{mode}: fault must diverge");
            };
            assert_eq!(report.cycle, 7, "{mode}: first divergent cycle");
        }
    }

    #[test]
    fn checkpoint_resume_past_the_trigger_stays_replayable() {
        // Session::checkpoint serializes `state()` — past the trigger
        // that is the corrupted view. restore() must invert the flip, or
        // the view folds into the engine's real state on resume and the
        // resumed run diverges from an uninterrupted one.
        use rtl_core::{Session, Until};
        let design = Design::from_source(COUNTER).unwrap();
        let registry = fault_registry(3);

        let mut reference = Session::over(build(&registry, "vm-fault", &design))
            .capture()
            .build();
        assert!(reference.run(Until::Cycles(6)).completed());
        let mut doc = Vec::new();
        reference.checkpoint(&mut doc).unwrap();
        assert!(reference.run(Until::Cycles(4)).completed());

        let mut resumed = Session::over(build(&registry, "vm-fault", &design))
            .capture()
            .build();
        resumed.resume(&mut &doc[..]).unwrap();
        assert!(resumed.run(Until::Cycles(4)).completed());
        assert_eq!(
            resumed.state(),
            reference.state(),
            "a post-trigger checkpoint round trip must not compound the corruption"
        );
        assert!(
            reference.output_text().ends_with(&resumed.output_text()),
            "the resumed trace is the uninterrupted run's suffix"
        );
    }

    #[test]
    fn the_view_never_touches_the_real_state() {
        // Below the trigger the view is pass-through; past it, only the
        // observation is corrupted — restore() to a pre-trigger snapshot
        // clears it, which is what makes rewind-bisection replayable.
        let design = Design::from_source(COUNTER).unwrap();
        let registry = fault_registry(3);
        let mut engine = build(&registry, "vm-fault", &design);
        let mut healthy = build(&registry, "vm", &design);
        let before = engine.snapshot();
        for _ in 0..5 {
            engine
                .step(&mut TraceBuf::new(), &mut rtl_core::NoInput)
                .unwrap();
            healthy
                .step(&mut TraceBuf::new(), &mut rtl_core::NoInput)
                .unwrap();
        }
        let count = design.find("count").unwrap();
        assert_eq!(
            engine.state().output(count),
            healthy.state().output(count) ^ 1,
            "view corrupts bit 0 past the trigger"
        );
        engine.restore(&before);
        assert_eq!(engine.state().cycle(), 0, "restore clears the view");
        assert_eq!(engine.state().output(count), 0);
    }
}
