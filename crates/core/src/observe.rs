//! Observations as values: what a differential harness *sees* of a lane,
//! and the open contract for comparing it.
//!
//! The reproduction's central claim is observational equivalence: every
//! execution tier must be indistinguishable *at the trace level*. This
//! module makes "what is observed" and "what counts as equal" first-class
//! values instead of a loop hard-wired into one harness:
//!
//! * [`Observation`] — a cheap, comparable snapshot of one lane at a
//!   comparison point: cycle counter, per-component visible outputs
//!   (respecting [`Engine::observes_output`]), memory cells, the trace
//!   span produced since the last agreed point — as values, the
//!   [`TraceEvent`]s the engine recorded, not text — and the lane's stop
//!   state. Fingerprintable with [`Fingerprint`]
//!   ([`Observation::fingerprint`], which hashes the *rendered* span, so
//!   a digest is a function of the bytes a text sink would have seen).
//! * [`Comparator`] — an open trait turning two observations into a
//!   [`DivergenceKind`] value (or agreement). Shipped lenses:
//!   [`TraceBytes`], [`CycleCounter`], [`Outputs`], [`Cells`],
//!   [`VcdDiff`] (width-masked waveform samples, built on the
//!   [`VcdSink`](crate::vcd::VcdSink) value format), [`Digest`]
//!   (observation fingerprints — 8 bytes per interval, the
//!   distributed-shard lens) and the [`All`] composite. Harnesses may
//!   implement their own (checksum lanes, sampled state, remote shards)
//!   without touching the lockstep driver.
//! * [`CompareMode`] — the value-level spec of a comparator set
//!   (`Clone`/`Eq`, parseable from `--compare trace,vcd,cells`), so
//!   configurations stay plain data.
//! * [`DivergenceKind`]/[`LaneReport`]/[`LaneStats`] — the report values
//!   comparators and harnesses produce.
//!
//! ```
//! use rtl_core::observe::{CompareMode, Observation};
//! use rtl_core::{Design, Engine, TraceEvent};
//!
//! let design = Design::from_source(
//!     "# counter\ncount* next .\nM count 0 next 1 1\nA next 4 count 1 .",
//! ).unwrap();
//! # struct Idle<'d>(&'d Design, rtl_core::SimState);
//! # impl rtl_core::Engine for Idle<'_> {
//! #     fn design(&self) -> &Design { self.0 }
//! #     fn state(&self) -> &rtl_core::SimState { &self.1 }
//! #     fn restore(&mut self, s: &rtl_core::SimState) { self.1 = s.clone(); }
//! #     fn step(
//! #         &mut self,
//! #         _trace: &mut rtl_core::TraceBuf<'_>,
//! #         _input: &mut dyn rtl_core::InputSource,
//! #     ) -> Result<(), rtl_core::SimError> {
//! #         self.1.bump_cycle();
//! #         Ok(())
//! #     }
//! # }
//! # let a = Idle(&design, rtl_core::SimState::new(&design));
//! # let b = Idle(&design, rtl_core::SimState::new(&design));
//! // Two lanes at a comparison point: identical trace spans, identical
//! // state — every shipped comparator agrees, and so do fingerprints.
//! let count = design.find("count").unwrap();
//! let span = [TraceEvent::Cycle(0), TraceEvent::Value(count, 0), TraceEvent::EndLine];
//! let left = Observation::new(&a as &dyn Engine, &span, None);
//! let right = Observation::new(&b as &dyn Engine, &span, None);
//! assert_eq!(left.rendered_trace(), b"Cycle   0 count= 0\n");
//! assert_eq!(left.fingerprint(), right.fingerprint());
//! let mut all = CompareMode::All.build();
//! assert!(all.compare(&left, &right).is_none(), "no divergence");
//! ```

use crate::design::Design;
use crate::engine::Engine;
use crate::error::SimError;
use crate::resolve::CompId;
use crate::session::{design_fingerprint, Fingerprint};
use crate::state::SimState;
use crate::stats::SimStats;
use crate::trace::{render_text, TraceEvent};
use crate::word::Word;

/// One lane's observable face at a comparison point — see the [module
/// docs](self). Cheap to build (it borrows the engine's state and the
/// trace span; nothing is copied or rendered) and comparable as a value
/// through the accessors or [`fingerprint`](Observation::fingerprint).
#[derive(Clone, Copy)]
pub struct Observation<'a> {
    engine: &'a dyn Engine,
    /// The engine's state, fetched once.
    state: &'a SimState,
    trace: &'a [TraceEvent],
    error: Option<&'a SimError>,
}

impl<'a> Observation<'a> {
    /// Observes an engine: `trace` is the span of trace events recorded
    /// since the last agreed comparison point, `error` the lane's sticky
    /// stop state (a runtime halt or harness error), if any.
    pub fn new(
        engine: &'a dyn Engine,
        trace: &'a [TraceEvent],
        error: Option<&'a SimError>,
    ) -> Self {
        Observation {
            engine,
            state: engine.state(),
            trace,
            error,
        }
    }

    /// The design under observation.
    pub fn design(&self) -> &'a Design {
        self.engine.design()
    }

    /// The lane's cycle counter.
    pub fn cycle(&self) -> Word {
        self.state.cycle()
    }

    /// Component `id`'s visible output — `None` when this lane's engine
    /// does not maintain it (optimizing engines may elide provably
    /// unobservable latches; comparators skip those).
    pub fn output(&self, id: CompId) -> Option<Word> {
        self.engine
            .observes_output(id)
            .then(|| self.state.output(id))
    }

    /// Memory `id`'s cells, in address order (empty for combinational
    /// components).
    pub fn cells(&self, id: CompId) -> &'a [Word] {
        self.state.cells(id)
    }

    /// The trace events recorded since the last agreed point.
    pub fn trace(&self) -> &'a [TraceEvent] {
        self.trace
    }

    /// The trace span rendered as text ([`trace::render`]), the bytes a
    /// text sink would have received.
    ///
    /// [`trace::render`]: crate::trace::render
    pub fn rendered_trace(&self) -> Vec<u8> {
        render_text(self.design(), self.trace)
    }

    /// The lane's stop state: a runtime error it raised, if any.
    pub fn error(&self) -> Option<&'a SimError> {
        self.error
    }

    /// Accumulated engine statistics, when the engine keeps them.
    pub fn stats(&self) -> Option<&'a SimStats> {
        self.engine.stats()
    }

    /// A stable [`Fingerprint`] over everything this observation exposes:
    /// cycle, observed outputs, memory cells, the *rendered* trace span
    /// and stop state.
    /// Two lanes at the same comparison point agree under every shipped
    /// comparator iff their fingerprints can agree (the fingerprint also
    /// folds in *which* components are observed).
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.write_u64(self.cycle() as u64);
        for (id, _) in self.design().iter() {
            match self.output(id) {
                Some(v) => {
                    fp.write(&[1]);
                    fp.write_u64(v as u64);
                }
                None => fp.write(&[0]),
            }
        }
        for &id in self.design().memories() {
            for &cell in self.cells(id) {
                fp.write_u64(cell as u64);
            }
        }
        fp.write(&self.rendered_trace());
        match self.error {
            Some(e) => fp.write_str(&e.to_string()),
            None => fp.write(&[0]),
        }
        fp.finish()
    }
}

impl std::fmt::Debug for Observation<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observation")
            .field("cycle", &self.cycle())
            .field("trace_events", &self.trace.len())
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

/// What diverged first between two lanes — the value a [`Comparator`]
/// produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DivergenceKind {
    /// Lanes raised different errors (or only some raised one).
    Error,
    /// Trace/output text differed.
    Trace,
    /// Cycle counters differed.
    CycleCounter,
    /// A component's visible output differed.
    Output {
        /// Component name.
        component: String,
    },
    /// A memory cell differed.
    Cells {
        /// Memory name.
        component: String,
        /// Cell address.
        addr: u32,
    },
    /// A component's width-masked VCD waveform sample differed (the
    /// [`VcdDiff`] lens).
    Vcd {
        /// Component name.
        component: String,
    },
    /// A stream lane's output (e.g. the generated-Rust subprocess stdout)
    /// differed from the trace the stepped lanes agreed on. The cycle is
    /// estimated from the last matching cycle header.
    Stream {
        /// The stream lane's registry name.
        lane: String,
    },
    /// Observation fingerprints differed (the [`Digest`] lens, or a
    /// remote digest-stream lane replayed across machines). The digest
    /// folds in every observable facet, so which one diverged is not
    /// recoverable — that is the price of comparing 8 bytes per interval
    /// instead of full values.
    Digest,
    /// A runtime observation contradicted a static-analyzer claim (the
    /// lint cross-validation oracle): a statically-dead selector arm
    /// fired, or a statically-undriven memory changed. A disagreement
    /// here is a bug in the analyzer or the simulator, not a lane
    /// mismatch — both lanes may agree perfectly.
    Oracle {
        /// Component the claim was about.
        component: String,
        /// The static claim that the runtime contradicted.
        claim: String,
    },
}

impl DivergenceKind {
    /// The diverging value as this lane observes it — the per-lane detail
    /// a [`LaneReport`] quotes. `None` for kinds without a single value
    /// (trace text, errors, stream output).
    pub fn lane_value(&self, observation: &Observation<'_>) -> Option<Word> {
        let design = observation.design();
        match self {
            DivergenceKind::Output { component } | DivergenceKind::Vcd { component } => {
                design.find(component).and_then(|id| observation.output(id))
            }
            DivergenceKind::Cells { component, addr } => design
                .find(component)
                .map(|id| observation.cells(id)[*addr as usize]),
            _ => None,
        }
    }
}

impl std::fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DivergenceKind::Error => f.write_str("runtime error mismatch"),
            DivergenceKind::Trace => f.write_str("trace text mismatch"),
            DivergenceKind::CycleCounter => f.write_str("cycle counter mismatch"),
            DivergenceKind::Output { component } => {
                write!(f, "output of component '{component}' differs")
            }
            DivergenceKind::Cells { component, addr } => {
                write!(f, "memory '{component}' cell {addr} differs")
            }
            DivergenceKind::Vcd { component } => {
                write!(f, "VCD waveform sample of component '{component}' differs")
            }
            DivergenceKind::Stream { lane } => {
                write!(
                    f,
                    "stream lane '{lane}' output differs from the agreed trace"
                )
            }
            DivergenceKind::Digest => f.write_str("observation digest mismatch"),
            DivergenceKind::Oracle { component, claim } => {
                write!(
                    f,
                    "runtime contradicts static analysis of '{component}': {claim}"
                )
            }
        }
    }
}

/// Lines of trailing trace text a divergence report quotes per lane
/// ([`LaneReport::trace_window`]).
pub const TRACE_WINDOW_LINES: usize = 8;

/// One engine's view at a divergence point — a value built from an
/// [`Observation`] (see [`LaneReport::from_observation`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneReport {
    /// Engine name (registry name, or the custom lane label).
    pub engine: String,
    /// The lane's cycle counter.
    pub cycle: Word,
    /// The diverging value in this lane (for output/cell/VCD kinds).
    pub value: Option<Word>,
    /// The lane's runtime error, if it raised one.
    pub error: Option<SimError>,
    /// The last few lines of the lane's trace text.
    pub trace_window: Vec<String>,
    /// The lane's accumulated simulation statistics, when its engine
    /// keeps them.
    pub stats: Option<SimStats>,
}

impl LaneReport {
    /// Builds the report value for one lane from its observation: the
    /// cycle, the kind-specific diverging value, the stop state, the
    /// statistics, and a trailing [`TRACE_WINDOW_LINES`]-line quote of
    /// `trace_text`.
    pub fn from_observation(
        name: &str,
        kind: &DivergenceKind,
        observation: &Observation<'_>,
        trace_text: &[u8],
    ) -> LaneReport {
        let text = String::from_utf8_lossy(trace_text);
        let lines: Vec<&str> = text.lines().collect();
        let start = lines.len().saturating_sub(TRACE_WINDOW_LINES);
        LaneReport {
            engine: name.to_string(),
            cycle: observation.cycle(),
            value: kind.lane_value(observation),
            error: observation.error().cloned(),
            trace_window: lines[start..].iter().map(|s| s.to_string()).collect(),
            stats: observation.stats().cloned(),
        }
    }
}

/// One lane's accumulated [`SimStats`], carried by agreement outcomes and
/// campaign case records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneStats {
    /// Engine name (registry name, or the custom lane label).
    pub lane: String,
    /// The lane's statistics at the end of the run.
    pub stats: SimStats,
}

/// Compares two lanes' error states — divergent unless both raised the
/// identical error (or neither raised one). Harnesses run this before any
/// [`Comparator`]: comparing the values of a crashed lane is meaningless.
pub fn stop_state(
    reference: &Observation<'_>,
    candidate: &Observation<'_>,
) -> Option<DivergenceKind> {
    (reference.error() != candidate.error()).then_some(DivergenceKind::Error)
}

/// An observational lens: decides whether two lanes' observations are
/// equivalent, and *what* diverged when they are not. Open by design —
/// the lockstep harness drives any set of comparators, shipped or custom.
/// `compare` takes `&mut self` so lenses may keep caches (see
/// [`VcdDiff`]).
pub trait Comparator {
    /// A stable name for configuration listings and reports.
    fn name(&self) -> &str;

    /// `None` when `candidate` is observationally equivalent to
    /// `reference` under this lens; otherwise the first divergence found.
    fn compare(
        &mut self,
        reference: &Observation<'_>,
        candidate: &Observation<'_>,
    ) -> Option<DivergenceKind>;
}

/// Compares the trace spans produced since the last agreed point *as the
/// bytes they render to* — the strictest lens, and the paper's own
/// equivalence notion. Values first: equal event spans render equal
/// bytes, so they agree without any text. Only when two spans differ as
/// values are both rendered and the bytes compared, which keeps the
/// verdict exactly the byte comparison's (`Output { addr: 0, data: 49 }`
/// and `Output { addr: 1, data: 1 }` both render `1\n` and agree).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceBytes;

impl Comparator for TraceBytes {
    fn name(&self) -> &str {
        "trace"
    }

    fn compare(
        &mut self,
        reference: &Observation<'_>,
        candidate: &Observation<'_>,
    ) -> Option<DivergenceKind> {
        if reference.trace() == candidate.trace() {
            return None;
        }
        (reference.rendered_trace() != candidate.rendered_trace()).then_some(DivergenceKind::Trace)
    }
}

/// Compares the cycle counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleCounter;

impl Comparator for CycleCounter {
    fn name(&self) -> &str {
        "cycles"
    }

    fn compare(
        &mut self,
        reference: &Observation<'_>,
        candidate: &Observation<'_>,
    ) -> Option<DivergenceKind> {
        (reference.cycle() != candidate.cycle()).then_some(DivergenceKind::CycleCounter)
    }
}

/// Compares every visible component output both lanes maintain. Equal
/// output arrays agree whichever components each lane observes, so the
/// per-component walk runs only when the arrays differ.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outputs;

impl Comparator for Outputs {
    fn name(&self) -> &str {
        "outputs"
    }

    fn compare(
        &mut self,
        reference: &Observation<'_>,
        candidate: &Observation<'_>,
    ) -> Option<DivergenceKind> {
        if reference.state.outputs() == candidate.state.outputs() {
            return None;
        }
        let design = reference.design();
        for (id, _) in design.iter() {
            if let (Some(a), Some(b)) = (reference.output(id), candidate.output(id)) {
                if a != b {
                    return Some(DivergenceKind::Output {
                        component: design.name(id).to_string(),
                    });
                }
            }
        }
        None
    }
}

/// Compares every memory cell: each memory as a slice, and address by
/// address only when the slices differ.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cells;

impl Comparator for Cells {
    fn name(&self) -> &str {
        "cells"
    }

    fn compare(
        &mut self,
        reference: &Observation<'_>,
        candidate: &Observation<'_>,
    ) -> Option<DivergenceKind> {
        let design = reference.design();
        for &id in design.memories() {
            let (a, b) = (reference.cells(id), candidate.cells(id));
            debug_assert_eq!(a.len(), b.len(), "same design, same memory sizes");
            if a == b {
                continue;
            }
            if let Some(addr) = a.iter().zip(b).position(|(x, y)| x != y) {
                return Some(DivergenceKind::Cells {
                    component: design.name(id).to_string(),
                    addr: addr as u32,
                });
            }
        }
        None
    }
}

/// Compares the lanes' waveforms the way a [`VcdSink`](crate::vcd::VcdSink)
/// records them: each observed output sampled at the cycle edge and
/// truncated to its inferred width ([`vcd::sample_bits`]) — the
/// "indistinguishable in the waveform viewer" lens. Optionally limited to
/// named signals, like [`VcdOptions::signals`](crate::vcd::VcdOptions).
///
/// [`vcd::sample_bits`]: crate::vcd::sample_bits
#[derive(Debug, Clone, Default)]
pub struct VcdDiff {
    signals: Vec<String>,
    /// Inferred widths, cached per design fingerprint (width inference is
    /// a fixpoint — far too expensive per comparison interval).
    widths: Option<(u64, Vec<u8>)>,
}

impl VcdDiff {
    /// A lens over every component.
    pub fn new() -> Self {
        Self::default()
    }

    /// A lens over the named signals only (empty = all components).
    pub fn with_signals(signals: Vec<String>) -> Self {
        VcdDiff {
            signals,
            widths: None,
        }
    }

    fn ensure_widths(&mut self, design: &Design) {
        let fp = design_fingerprint(design);
        if self.widths.as_ref().map(|(have, _)| *have) != Some(fp) {
            self.widths = Some((fp, crate::width::infer(design)));
        }
    }
}

impl Comparator for VcdDiff {
    fn name(&self) -> &str {
        "vcd"
    }

    fn compare(
        &mut self,
        reference: &Observation<'_>,
        candidate: &Observation<'_>,
    ) -> Option<DivergenceKind> {
        let design = reference.design();
        self.ensure_widths(design);
        // Borrow-friendly split: the cached widths slice and the signal
        // filter are disjoint fields.
        let VcdDiff { signals, widths } = self;
        let widths = &widths.as_ref().expect("filled above").1;
        for (id, comp) in design.iter() {
            if !signals.is_empty() && !signals.iter().any(|s| comp.name == s.as_str()) {
                continue;
            }
            if let (Some(a), Some(b)) = (reference.output(id), candidate.output(id)) {
                let width = widths[id.index()];
                if crate::vcd::sample_bits(a, width) != crate::vcd::sample_bits(b, width) {
                    return Some(DivergenceKind::Vcd {
                        component: design.name(id).to_string(),
                    });
                }
            }
        }
        None
    }
}

/// Compares the lanes' [`Observation::fingerprint`] digests — 8 bytes
/// per lane per interval, however large the design. This is the
/// distributed-shard lens: two machines can cross-check lanes by
/// exchanging digests instead of traces and memory images, and
/// [`Observation::fingerprint`] guarantees the digests can agree iff
/// every shipped value lens would. The trade-offs: a digest mismatch
/// ([`DivergenceKind::Digest`]) names the cycle but not the component,
/// and the fingerprint folds in *which* components a lane observes — so
/// this lens expects lanes with identical observation masks (an engine
/// that elides dead latches digests differently from one that does not,
/// even when every common value agrees). The value lenses skip
/// unobserved components instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest;

impl Comparator for Digest {
    fn name(&self) -> &str {
        "digest"
    }

    fn compare(
        &mut self,
        reference: &Observation<'_>,
        candidate: &Observation<'_>,
    ) -> Option<DivergenceKind> {
        (reference.fingerprint() != candidate.fingerprint()).then_some(DivergenceKind::Digest)
    }
}

/// The composite of the classic lockstep tuple, in severity order: trace
/// bytes, cycle counters, outputs, memory cells. The default comparator
/// set of the cosim harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct All;

impl Comparator for All {
    fn name(&self) -> &str {
        "all"
    }

    fn compare(
        &mut self,
        reference: &Observation<'_>,
        candidate: &Observation<'_>,
    ) -> Option<DivergenceKind> {
        TraceBytes
            .compare(reference, candidate)
            .or_else(|| CycleCounter.compare(reference, candidate))
            .or_else(|| Outputs.compare(reference, candidate))
            .or_else(|| Cells.compare(reference, candidate))
    }
}

/// The value-level spec of a comparator: plain data (`Copy`/`Eq`) so
/// harness configurations stay comparable and serializable, built into a
/// live [`Comparator`] with [`build`](CompareMode::build).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareMode {
    /// [`TraceBytes`].
    Trace,
    /// [`CycleCounter`].
    Cycles,
    /// [`Outputs`].
    Outputs,
    /// [`Cells`].
    Cells,
    /// [`VcdDiff`] over every component.
    Vcd,
    /// [`Digest`] — observation fingerprints, the distributed-shard lens.
    Digest,
    /// [`All`] — the classic trace/cycles/outputs/cells tuple.
    All,
}

impl CompareMode {
    /// Every mode, in listing order.
    pub const ALL: [CompareMode; 7] = [
        CompareMode::Trace,
        CompareMode::Cycles,
        CompareMode::Outputs,
        CompareMode::Cells,
        CompareMode::Vcd,
        CompareMode::Digest,
        CompareMode::All,
    ];

    /// The stable configuration name.
    pub fn name(self) -> &'static str {
        match self {
            CompareMode::Trace => "trace",
            CompareMode::Cycles => "cycles",
            CompareMode::Outputs => "outputs",
            CompareMode::Cells => "cells",
            CompareMode::Vcd => "vcd",
            CompareMode::Digest => "digest",
            CompareMode::All => "all",
        }
    }

    /// Parses one mode name.
    ///
    /// # Errors
    ///
    /// A message listing the known names.
    pub fn parse(name: &str) -> Result<CompareMode, String> {
        Self::ALL
            .into_iter()
            .find(|m| m.name() == name)
            .ok_or_else(|| {
                let known: Vec<&str> = Self::ALL.iter().map(|m| m.name()).collect();
                format!("unknown comparator {name:?} (known: {})", known.join(", "))
            })
    }

    /// Parses a comma-separated list (`"trace,vcd,cells"`), requiring at
    /// least one mode and rejecting duplicates.
    ///
    /// # Errors
    ///
    /// Unknown names, an empty list, or duplicates.
    pub fn parse_list(list: &str) -> Result<Vec<CompareMode>, String> {
        let modes: Vec<CompareMode> = list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(Self::parse)
            .collect::<Result<_, _>>()?;
        if modes.is_empty() {
            return Err("need at least one comparator (e.g. --compare trace,vcd)".into());
        }
        for (i, m) in modes.iter().enumerate() {
            if modes[..i].contains(m) {
                return Err(format!("duplicate comparator {:?}", m.name()));
            }
        }
        Ok(modes)
    }

    /// Builds the live comparator this mode names.
    pub fn build(self) -> Box<dyn Comparator> {
        match self {
            CompareMode::Trace => Box::new(TraceBytes),
            CompareMode::Cycles => Box::new(CycleCounter),
            CompareMode::Outputs => Box::new(Outputs),
            CompareMode::Cells => Box::new(Cells),
            CompareMode::Vcd => Box::new(VcdDiff::new()),
            CompareMode::Digest => Box::new(Digest),
            CompareMode::All => Box::new(All),
        }
    }
}

impl std::fmt::Display for CompareMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::InputSource;
    use crate::trace::TraceBuf;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// A stub engine over an arbitrary state, with a controllable
    /// observed-output mask.
    struct Stub<'d> {
        design: &'d Design,
        state: SimState,
        hidden: Vec<CompId>,
    }

    impl<'d> Stub<'d> {
        fn new(design: &'d Design) -> Self {
            Stub {
                design,
                state: SimState::new(design),
                hidden: Vec::new(),
            }
        }
    }

    impl Engine for Stub<'_> {
        fn design(&self) -> &Design {
            self.design
        }

        fn state(&self) -> &SimState {
            &self.state
        }

        fn restore(&mut self, snapshot: &SimState) {
            self.state = snapshot.clone();
        }

        fn observes_output(&self, id: CompId) -> bool {
            !self.hidden.contains(&id)
        }

        fn step(
            &mut self,
            _trace: &mut TraceBuf<'_>,
            _input: &mut dyn InputSource,
        ) -> Result<(), SimError> {
            self.state.bump_cycle();
            Ok(())
        }
    }

    const COUNTER: &str = "# c\ncount* next .\nM count 0 next 1 1\nA next 4 count 1 .";

    fn design() -> Design {
        Design::from_source(COUNTER).unwrap()
    }

    #[test]
    fn identical_lanes_agree_under_every_mode() {
        let d = design();
        let (a, b) = (Stub::new(&d), Stub::new(&d));
        let span = [TraceEvent::raw(&b"span"[..])];
        let left = Observation::new(&a, &span, None);
        let right = Observation::new(&b, &span, None);
        assert!(stop_state(&left, &right).is_none());
        for mode in CompareMode::ALL {
            let mut c = mode.build();
            assert_eq!(c.name(), mode.name());
            assert!(c.compare(&left, &right).is_none(), "{mode}");
        }
        assert_eq!(left.fingerprint(), right.fingerprint());
    }

    #[test]
    fn each_lens_sees_its_own_divergence() {
        let d = design();
        let count = d.find("count").unwrap();
        let a = Stub::new(&d);
        let mut b = Stub::new(&d);
        b.state.set_output(count, 5);
        b.state.set_cell(count, 0, 5);

        let (x, y) = ([TraceEvent::raw(&b"x"[..])], [TraceEvent::raw(&b"y"[..])]);
        let left = Observation::new(&a, &x, None);
        let right = Observation::new(&b, &y, None);
        assert_eq!(
            TraceBytes.compare(&left, &right),
            Some(DivergenceKind::Trace)
        );
        assert_eq!(
            Outputs.compare(&left, &right),
            Some(DivergenceKind::Output {
                component: "count".into()
            })
        );
        assert_eq!(
            Cells.compare(&left, &right),
            Some(DivergenceKind::Cells {
                component: "count".into(),
                addr: 0
            })
        );
        assert_eq!(
            VcdDiff::new().compare(&left, &right),
            Some(DivergenceKind::Vcd {
                component: "count".into()
            })
        );
        assert_eq!(
            Digest.compare(&left, &right),
            Some(DivergenceKind::Digest),
            "the digest folds in what every other lens sees"
        );
        // All reports the most severe lens first: the trace bytes.
        assert_eq!(All.compare(&left, &right), Some(DivergenceKind::Trace));
        assert_ne!(left.fingerprint(), right.fingerprint());

        // The diverging value is extractable per lane, as a value.
        let kind = DivergenceKind::Output {
            component: "count".into(),
        };
        assert_eq!(kind.lane_value(&left), Some(0));
        assert_eq!(kind.lane_value(&right), Some(5));
    }

    #[test]
    fn cycle_and_error_state_divergences() {
        let d = design();
        let a = Stub::new(&d);
        let mut b = Stub::new(&d);
        b.state.set_cycle(3);
        let left = Observation::new(&a, &[], None);
        let right = Observation::new(&b, &[], None);
        assert_eq!(
            CycleCounter.compare(&left, &right),
            Some(DivergenceKind::CycleCounter)
        );

        let e = SimError::Halt(crate::error::HaltKind::InputExhausted { cycle: 3 });
        let crashed = Observation::new(&b, &[], Some(&e));
        assert_eq!(stop_state(&left, &crashed), Some(DivergenceKind::Error));
        assert!(
            stop_state(&crashed, &crashed).is_none(),
            "identical errors agree"
        );
    }

    #[test]
    fn elided_outputs_are_skipped_not_compared() {
        let d = design();
        let count = d.find("count").unwrap();
        let a = Stub::new(&d);
        let mut b = Stub::new(&d);
        b.state.set_output(count, 9);
        b.hidden.push(count);
        let left = Observation::new(&a, &[], None);
        let right = Observation::new(&b, &[], None);
        assert_eq!(right.output(count), None, "elided latch is unobserved");
        assert!(Outputs.compare(&left, &right).is_none());
        assert!(VcdDiff::new().compare(&left, &right).is_none());
        // But cells still compare (state storage is never elided).
        assert!(Cells.compare(&left, &right).is_none());
    }

    #[test]
    fn vcd_diff_masks_to_inferred_widths() {
        // A 1-bit selector output: values 0 and 2 truncate to the same
        // sample bit, so the waveform lens sees no difference while the
        // raw output lens does.
        let d = Design::from_source("# w\nbit x .\nS bit x 0 1\nA x 2 1 1 .").unwrap();
        let bit = d.find("bit").unwrap();
        let a = Stub::new(&d);
        let mut b = Stub::new(&d);
        b.state.set_output(bit, 2);
        let left = Observation::new(&a, &[], None);
        let right = Observation::new(&b, &[], None);
        let mut vcd = VcdDiff::new();
        assert!(vcd.compare(&left, &right).is_none(), "masked equal");
        assert!(Outputs.compare(&left, &right).is_some(), "raw differs");
        // Signal filters narrow the lens.
        let mut filtered = VcdDiff::with_signals(vec!["x".into()]);
        assert!(filtered.compare(&left, &right).is_none());
    }

    #[test]
    fn mode_list_parsing() {
        assert_eq!(
            CompareMode::parse_list("trace, vcd ,cells").unwrap(),
            vec![CompareMode::Trace, CompareMode::Vcd, CompareMode::Cells]
        );
        for m in CompareMode::ALL {
            assert_eq!(CompareMode::parse(m.name()).unwrap(), m);
        }
        assert!(CompareMode::parse_list("").is_err(), "empty list");
        assert!(
            CompareMode::parse_list("trace,trace").is_err(),
            "duplicates"
        );
        assert!(CompareMode::parse_list("warp").is_err(), "unknown");
    }

    #[test]
    fn differently_shaped_spans_that_render_alike_agree() {
        let d = design();
        let (a, b) = (Stub::new(&d), Stub::new(&d));
        let char_one = [TraceEvent::Output { addr: 0, data: 49 }];
        let int_one = [TraceEvent::Output { addr: 1, data: 1 }];
        let left = Observation::new(&a, &char_one, None);
        let right = Observation::new(&b, &int_one, None);
        assert_ne!(left.trace(), right.trace(), "different values");
        assert!(TraceBytes.compare(&left, &right).is_none(), "same bytes");
        assert_eq!(left.fingerprint(), right.fingerprint());
    }

    /// SplitMix64: a seeded generator for the property below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A small random event, drawn from a narrow value range so distinct
    /// spans often render alike: char output above 0xFF, the
    /// `Output(0, '1')` / `Output(1, 1)` collision, and raw bytes that
    /// spell other events' text.
    fn event(rng: &mut Rng, ids: &[CompId]) -> TraceEvent {
        let word = |rng: &mut Rng| rng.below(3) as Word;
        let id = ids[rng.below(ids.len() as u64) as usize];
        match rng.below(10) {
            0 => TraceEvent::Cycle(word(rng)),
            1 => TraceEvent::Value(id, word(rng)),
            2 => TraceEvent::EndLine,
            3 => TraceEvent::MemWrite {
                mem: id,
                addr: word(rng),
                value: word(rng),
            },
            4 => TraceEvent::MemRead {
                mem: id,
                addr: word(rng),
                value: word(rng),
            },
            5 => TraceEvent::Output {
                addr: 0,
                data: [48, 49, 50, 49 + 256, 10][rng.below(5) as usize],
            },
            6 => TraceEvent::Output {
                addr: rng.below(3) as Word,
                data: word(rng),
            },
            7 => TraceEvent::InputPrompt(2 + word(rng)),
            _ => {
                let pieces: [&[u8]; 6] = [b"0", b"1", b"\n", b"Cycle   0", b" count= ", b"="];
                let mut bytes = Vec::new();
                for _ in 0..rng.below(3) {
                    bytes.extend_from_slice(pieces[rng.below(6) as usize]);
                }
                TraceEvent::raw(bytes)
            }
        }
    }

    #[test]
    fn trace_verdict_is_the_byte_verdict() {
        let d = design();
        let ids: Vec<CompId> = d.iter().map(|(id, _)| id).collect();
        let (a, b) = (Stub::new(&d), Stub::new(&d));
        let mut rng = Rng(17);
        let mut spans: Vec<Vec<TraceEvent>> = Vec::new();
        for _ in 0..400 {
            let len = rng.below(4) as usize;
            spans.push((0..len).map(|_| event(&mut rng, &ids)).collect());
        }
        let mut agreed_unequal = 0;
        for x in &spans {
            for y in &spans {
                let left = Observation::new(&a, x, None);
                let right = Observation::new(&b, y, None);
                let bytes_equal = left.rendered_trace() == right.rendered_trace();
                let verdict = TraceBytes.compare(&left, &right).is_none();
                assert_eq!(verdict, bytes_equal, "{x:?} vs {y:?}");
                assert_eq!(left.fingerprint() == right.fingerprint(), bytes_equal);
                agreed_unequal += usize::from(verdict && x != y);
            }
        }
        assert!(
            agreed_unequal > 0,
            "the property must meet value-unequal, byte-equal pairs"
        );
    }

    /// Two memories (4 and 3 cells), an ALU and a selector: every kind of
    /// component a state lens walks.
    const STATE_DESIGN: &str =
        "# p\nram rom acc sel .\nM ram 0 acc 1 4\nM rom 0 0 0 3\nA acc 4 ram 1\nS sel acc ram rom .";
    const COMPONENTS: usize = 4;
    const CELLS: usize = 7;

    /// The per-component output walk the [`Outputs`] fast path skips.
    fn walk_outputs(
        reference: &Observation<'_>,
        candidate: &Observation<'_>,
    ) -> Option<DivergenceKind> {
        let design = reference.design();
        design.iter().find_map(
            |(id, _)| match (reference.output(id), candidate.output(id)) {
                (Some(a), Some(b)) if a != b => Some(DivergenceKind::Output {
                    component: design.name(id).to_string(),
                }),
                _ => None,
            },
        )
    }

    /// The address-by-address walk the [`Cells`] fast path skips.
    fn walk_cells(
        reference: &Observation<'_>,
        candidate: &Observation<'_>,
    ) -> Option<DivergenceKind> {
        let design = reference.design();
        design.memories().iter().find_map(|&id| {
            let (a, b) = (reference.cells(id), candidate.cells(id));
            a.iter()
                .zip(b)
                .position(|(x, y)| x != y)
                .map(|addr| DivergenceKind::Cells {
                    component: design.name(id).to_string(),
                    addr: addr as u32,
                })
        })
    }

    proptest! {
        /// The slice fast paths of `Outputs` and `Cells` (and so `All`)
        /// give exactly the verdict, component and address of the walks
        /// they skip — also when lanes differ only where one of them does
        /// not observe.
        #[test]
        fn state_lens_fast_paths_keep_every_verdict(
            outputs in vec(0i64..3, COMPONENTS),
            flips in vec(0u8..6, COMPONENTS),
            hidden_a in vec(0u8..4, COMPONENTS),
            hidden_b in vec(0u8..4, COMPONENTS),
            only_hidden in any::<bool>(),
            cells in vec(0i64..3, CELLS),
            cell_flips in vec(0u8..6, CELLS),
            cycles in vec(0i64..2, 2),
        ) {
            let d = Design::from_source(STATE_DESIGN).unwrap();
            let (mut a, mut b) = (Stub::new(&d), Stub::new(&d));
            for (i, (id, _)) in d.iter().enumerate() {
                if hidden_a[i] == 0 {
                    a.hidden.push(id);
                }
                if hidden_b[i] == 0 {
                    b.hidden.push(id);
                }
                let hidden = a.hidden.contains(&id) || b.hidden.contains(&id);
                let flip = flips[i] == 0 && (hidden || !only_hidden);
                a.state.set_output(id, outputs[i]);
                b.state.set_output(id, outputs[i] ^ Word::from(flip));
            }
            let mut k = 0;
            for &id in d.memories() {
                for addr in 0..a.state.cell_count(id) {
                    a.state.set_cell(id, addr, cells[k]);
                    b.state.set_cell(id, addr, cells[k] ^ Word::from(cell_flips[k] == 0));
                    k += 1;
                }
            }
            prop_assert_eq!(k, CELLS);
            a.state.set_cycle(cycles[0]);
            b.state.set_cycle(cycles[1]);

            let (left, right) = (Observation::new(&a, &[], None), Observation::new(&b, &[], None));
            for (x, y) in [(&left, &right), (&right, &left)] {
                let outputs = walk_outputs(x, y);
                let cells = walk_cells(x, y);
                let all = (x.cycle() != y.cycle())
                    .then_some(DivergenceKind::CycleCounter)
                    .or_else(|| outputs.clone())
                    .or_else(|| cells.clone());
                prop_assert_eq!(Outputs.compare(x, y), outputs);
                prop_assert_eq!(Cells.compare(x, y), cells);
                prop_assert_eq!(All.compare(x, y), all);
            }
        }
    }
}
