//! The engine abstraction: anything that can step a design one cycle.
//!
//! [`Engine`] is deliberately *only* the stepping contract — combinational
//! phase, trace, memory capture/update, cycle increment, plus
//! snapshot/restore for checkpointing. Everything about *driving* an
//! engine (cycle bounds, sinks, stimulus, stop classification,
//! checkpoint files) lives in [`Session`](crate::session); both
//! `rtl-interp` and `rtl-compile`'s bytecode VM implement `Engine`, and
//! the differential harness drives N of them in lock step.

use crate::design::Design;
use crate::error::SimError;
use crate::io::InputSource;
use crate::resolve::CompId;
use crate::session::{Session, StopReason, Until};
use crate::state::SimState;
use crate::stats::SimStats;
use crate::trace::TraceBuf;

/// A cycle-stepped simulation engine over a [`Design`].
pub trait Engine {
    /// The design being simulated.
    fn design(&self) -> &Design;

    /// The current simulation state.
    fn state(&self) -> &SimState;

    /// A point-in-time copy of the architectural state (outputs, memory
    /// cells, cycle counter) and the run's statistics so far. Pair with
    /// [`restore`](Engine::restore) to checkpoint long runs or bisect a
    /// divergence window: the cosim harness compares engines at a coarse
    /// interval, then rewinds to the last agreeing checkpoint and replays
    /// cycle-by-cycle.
    fn snapshot(&self) -> SimState {
        self.state().clone()
    }

    /// Rewinds the engine to a snapshot previously taken over the *same
    /// design*. Engine-private caches (registers, scratch, interpretation
    /// tables) are rebuilt or reused; the architectural state is restored,
    /// and the statistics come back with it, so a rewound or resumed run
    /// counts what an uninterrupted one does.
    fn restore(&mut self, snapshot: &SimState);

    /// Whether this engine maintains component `id`'s visible output.
    ///
    /// Optimizing engines may elide provably-unobservable state — the VM's
    /// §5.4 latch elision leaves dead memory latches at their initial
    /// value. Differential harnesses must compare a component only when
    /// every engine under test observes it.
    fn observes_output(&self, id: CompId) -> bool {
        let _ = id;
        true
    }

    /// Accumulated simulation statistics (§1.4), when the engine keeps
    /// them: those of its [`state`](Engine::state). `None` for engines
    /// that do not count.
    fn stats(&self) -> Option<&SimStats> {
        None
    }

    /// Folds the execution-profile counts this engine has kept since its
    /// last fold into its profile hook, so a snapshot of the hook covers
    /// the run so far (a lockstep checkpoint takes one). A no-op for an
    /// engine that does not profile.
    fn flush_profile(&mut self) {}

    /// Executes one cycle per the contract documented on
    /// [`design`](crate::design) (combinational phase, trace, memory
    /// capture, memory update, cycle increment).
    ///
    /// Trace and output are recorded as [`TraceEvent`]s into `trace`
    /// (never formatted here); memory-mapped input comes from `input`,
    /// and an engine calls [`TraceBuf::flush`] before every input read so
    /// a text sink shows the pending trace first. Drivers bind both once
    /// through a [`Session`](crate::session) instead of threading them.
    ///
    /// # Errors
    ///
    /// Runtime errors per [`SimError`]. The events recorded before the
    /// error stay in `trace`.
    ///
    /// [`TraceEvent`]: crate::trace::TraceEvent
    fn step(
        &mut self,
        trace: &mut TraceBuf<'_>,
        input: &mut dyn InputSource,
    ) -> Result<(), SimError>;
}

impl<E: Engine + ?Sized> Engine for &mut E {
    fn design(&self) -> &Design {
        (**self).design()
    }

    fn state(&self) -> &SimState {
        (**self).state()
    }

    fn snapshot(&self) -> SimState {
        (**self).snapshot()
    }

    fn restore(&mut self, snapshot: &SimState) {
        (**self).restore(snapshot);
    }

    fn observes_output(&self, id: CompId) -> bool {
        (**self).observes_output(id)
    }

    fn stats(&self) -> Option<&SimStats> {
        (**self).stats()
    }

    fn flush_profile(&mut self) {
        (**self).flush_profile();
    }

    fn step(
        &mut self,
        trace: &mut TraceBuf<'_>,
        input: &mut dyn InputSource,
    ) -> Result<(), SimError> {
        (**self).step(trace, input)
    }
}

impl<E: Engine + ?Sized> Engine for Box<E> {
    fn design(&self) -> &Design {
        (**self).design()
    }

    fn state(&self) -> &SimState {
        (**self).state()
    }

    fn snapshot(&self) -> SimState {
        (**self).snapshot()
    }

    fn restore(&mut self, snapshot: &SimState) {
        (**self).restore(snapshot);
    }

    fn observes_output(&self, id: CompId) -> bool {
        (**self).observes_output(id)
    }

    fn stats(&self) -> Option<&SimStats> {
        (**self).stats()
    }

    fn flush_profile(&mut self) {
        (**self).flush_profile();
    }

    fn step(
        &mut self,
        trace: &mut TraceBuf<'_>,
        input: &mut dyn InputSource,
    ) -> Result<(), SimError> {
        (**self).step(trace, input)
    }
}

/// Runs an engine for `iterations` cycles with no input, capturing the
/// trace/output text. Convenience for tests and examples; everything
/// larger should build a [`Session`] itself.
///
/// # Errors
///
/// Returns the text produced so far alongside the error.
pub fn run_captured<E: Engine>(
    engine: &mut E,
    iterations: u64,
) -> Result<String, (String, SimError)> {
    let mut session = Session::over(engine).capture().build();
    let outcome = session.run(Until::Cycles(iterations));
    let text = session.output_text();
    match outcome.stop {
        StopReason::CycleLimit => Ok(text),
        stop => Err((
            text,
            stop.into_error().expect("non-limit stops carry an error"),
        )),
    }
}
