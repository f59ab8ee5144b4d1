//! The session layer — *driving* a simulation, as opposed to stepping it.
//!
//! [`Engine`] is the stepping contract every execution tier implements;
//! [`Session`] is the driving contract every tool uses. A session binds an
//! engine, a [`TraceSink`] and a stimulus ([`InputSource`]) once, then
//! [`runs`](Session::run) to a bound and reports how the run stopped as a
//! *value*: [`RunOutcome`] carries the executed cycle count and a
//! [`StopReason`] — the cycle limit, a structured design halt
//! ([`HaltKind`]), or a harness error — instead of a stringified error.
//!
//! Sessions also own checkpointing: [`Session::checkpoint`] serializes the
//! architectural state and its statistics to a writer (a versioned,
//! design-fingerprinted format) and [`Session::resume`] restores them, so
//! long runs can stop and continue byte-identically, `--stats` report
//! included.
//!
//! ```
//! use rtl_core::{Design, Session, Until};
//! use rtl_core::session::StopReason;
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
//! #         trace: &mut rtl_core::TraceBuf<'_>,
//! #         _input: &mut dyn rtl_core::InputSource,
//! #     ) -> Result<(), rtl_core::SimError> {
//! #         trace.push(rtl_core::TraceEvent::Cycle(self.1.cycle()));
//! #         trace.push(rtl_core::TraceEvent::EndLine);
//! #         self.1.bump_cycle();
//! #         Ok(())
//! #     }
//! # }
//! # let engine = Idle(&design, rtl_core::SimState::new(&design));
//! let mut session = Session::over(engine).capture().build();
//! let outcome = session.run(Until::Cycles(3));
//! assert_eq!(outcome.cycles, 3);
//! assert_eq!(outcome.stop, StopReason::CycleLimit);
//! assert!(session.output_text().contains("Cycle   2"));
//! ```

use crate::design::Design;
use crate::engine::Engine;
use crate::error::{HaltKind, SimError};
use crate::factory::{EngineLane, EngineOptions, EngineRegistry};
use crate::io::{InputSource, NoInput, ScriptedInput};
use crate::sink::{BufferSink, NullSink, TraceSink};
use crate::state::SimState;
use crate::stats::SimStats;
use crate::trace::{TraceBuf, TraceEvent};
use crate::word::Word;
use rtl_obs::Recorder;
use std::io::{self, BufRead, Write};

/// How far [`Session::run`] should drive the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Until {
    /// Run `n` further cycles from wherever the session stands.
    Cycles(u64),
    /// Run until the cycle counter *exceeds* `last` — i.e. simulate cycles
    /// `0..=last`, the semantics of the specification's `= n` clause (the
    /// generated Pascal's `while cyclecount <= cycles`).
    Cycle(Word),
    /// The cycle bound requested by the specification's own `= n` clause;
    /// zero cycles if the spec has none.
    Spec,
}

/// How a [`Session::run`] stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// The requested cycle bound was reached; nothing went wrong.
    CycleLimit,
    /// The simulated design stopped itself: a structured runtime halt.
    Halt(HaltKind),
    /// The harness failed (I/O while writing trace) — a problem *outside*
    /// the design.
    Error(SimError),
}

impl StopReason {
    /// Classifies a step error: design halts become [`StopReason::Halt`],
    /// harness failures [`StopReason::Error`].
    pub fn from_error(error: SimError) -> StopReason {
        match error {
            SimError::Halt(halt) => StopReason::Halt(halt),
            error => StopReason::Error(error),
        }
    }

    /// `true` for [`StopReason::CycleLimit`].
    pub fn is_cycle_limit(&self) -> bool {
        matches!(self, StopReason::CycleLimit)
    }

    /// The halt classification, when the design halted.
    pub fn halt(&self) -> Option<&HaltKind> {
        match self {
            StopReason::Halt(h) => Some(h),
            _ => None,
        }
    }

    /// Converts back to the error world: `None` for a clean cycle limit.
    pub fn into_error(self) -> Option<SimError> {
        match self {
            StopReason::CycleLimit => None,
            StopReason::Halt(h) => Some(SimError::Halt(h)),
            StopReason::Error(e) => Some(e),
        }
    }
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::CycleLimit => f.write_str("cycle limit reached"),
            StopReason::Halt(h) => write!(f, "design halted: {h}"),
            StopReason::Error(e) => write!(f, "harness error: {e}"),
        }
    }
}

/// The result of a [`Session::run`]: how many cycles executed and why the
/// run stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Cycles executed by this call (not the engine's lifetime total).
    pub cycles: u64,
    /// Why the run stopped.
    pub stop: StopReason,
}

impl RunOutcome {
    /// `true` when the run reached its cycle bound cleanly.
    pub fn completed(&self) -> bool {
        self.stop.is_cycle_limit()
    }

    /// The halt classification, when the design halted.
    pub fn halt(&self) -> Option<&HaltKind> {
        self.stop.halt()
    }

    /// The executed cycle count, or the halting/harness error.
    ///
    /// # Errors
    ///
    /// Any stop other than the cycle limit, as a [`SimError`].
    pub fn into_result(self) -> Result<u64, SimError> {
        match self.stop.into_error() {
            None => Ok(self.cycles),
            Some(e) => Err(e),
        }
    }
}

/// Builds a [`Session`]: binds an engine (directly or by registry name), a
/// [`TraceSink`] (null by default) and a stimulus ([`NoInput`] by
/// default).
pub struct SessionBuilder<'d> {
    design: Option<&'d Design>,
    engine: Option<Box<dyn Engine + 'd>>,
    sink: Box<dyn TraceSink + 'd>,
    stimulus: Box<dyn InputSource + 'd>,
    recorder: Recorder,
}

impl<'d> SessionBuilder<'d> {
    fn empty() -> Self {
        SessionBuilder {
            design: None,
            engine: None,
            sink: Box::new(NullSink),
            stimulus: Box::new(NoInput),
            recorder: Recorder::disabled(),
        }
    }

    /// Starts from a design; pick the engine with
    /// [`engine_named`](SessionBuilder::engine_named) or
    /// [`engine`](SessionBuilder::engine).
    pub fn new(design: &'d Design) -> Self {
        SessionBuilder {
            design: Some(design),
            ..Self::empty()
        }
    }

    /// Binds an already-constructed engine (also accepts `&mut E` and
    /// boxed engines via the blanket [`Engine`] impls).
    pub fn engine(mut self, engine: impl Engine + 'd) -> Self {
        self.engine = Some(Box::new(engine));
        self
    }

    /// Builds and binds a registry engine over the builder's design.
    ///
    /// # Errors
    ///
    /// Unknown name, factory build failure, or a stream lane (stream
    /// engines cannot be stepped by a session).
    ///
    /// # Panics
    ///
    /// Panics when the builder was not created with
    /// [`SessionBuilder::new`] (no design to build over).
    pub fn engine_named(
        mut self,
        registry: &EngineRegistry,
        name: &str,
        options: &EngineOptions,
    ) -> Result<Self, String> {
        let design = self
            .design
            .expect("engine_named needs SessionBuilder::new(design)");
        match registry.build(name, design, options)? {
            EngineLane::Stepped(engine) => {
                self.engine = Some(engine);
                Ok(self)
            }
            EngineLane::Stream(_) => Err(format!(
                "engine {name:?} is a stream lane; it cannot be stepped by a Session"
            )),
        }
    }

    /// Binds a trace sink (replaces the default [`NullSink`]).
    pub fn sink(mut self, sink: impl TraceSink + 'd) -> Self {
        self.sink = Box::new(sink);
        self
    }

    /// Captures the trace in memory ([`BufferSink`]); read it back with
    /// [`Session::output`].
    pub fn capture(self) -> Self {
        self.sink(BufferSink::new())
    }

    /// Binds a stimulus source (replaces the default [`NoInput`]).
    pub fn stimulus(mut self, stimulus: impl InputSource + 'd) -> Self {
        self.stimulus = Box::new(stimulus);
        self
    }

    /// Scripts the stimulus from a word sequence ([`ScriptedInput`]).
    pub fn scripted(self, words: impl IntoIterator<Item = Word>) -> Self {
        self.stimulus(ScriptedInput::new(words))
    }

    /// Binds a telemetry [`Recorder`] (disabled by default). The session
    /// counts executed cycles (`session/cycles`, deterministic) and spans
    /// file-backed checkpoint/resume; a disabled recorder keeps all of it
    /// a no-op.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Finishes the session.
    ///
    /// # Panics
    ///
    /// Panics when no engine was bound — sessions drive engines, there is
    /// no default.
    pub fn build(self) -> Session<'d> {
        Session {
            engine: self
                .engine
                .expect("SessionBuilder needs an engine (engine() or engine_named())"),
            events: Vec::new(),
            sink: self.sink,
            stimulus: self.stimulus,
            recorder: self.recorder,
        }
    }
}

/// A bound simulation run: one engine, one trace sink, one stimulus.
/// See the [module docs](self).
pub struct Session<'d> {
    engine: Box<dyn Engine + 'd>,
    /// The step trace buffer's allocation, reused from step to step.
    events: Vec<TraceEvent>,
    sink: Box<dyn TraceSink + 'd>,
    stimulus: Box<dyn InputSource + 'd>,
    recorder: Recorder,
}

impl<'d> Session<'d> {
    /// A builder over a design (engine picked by registry name or bound
    /// directly).
    pub fn builder(design: &'d Design) -> SessionBuilder<'d> {
        SessionBuilder::new(design)
    }

    /// A builder over an already-constructed engine — the short path when
    /// you hold the engine (or a `&mut` borrow of it) yourself.
    pub fn over(engine: impl Engine + 'd) -> SessionBuilder<'d> {
        SessionBuilder::empty().engine(engine)
    }

    /// Executes one cycle and hands its trace events to the sink — also
    /// the events a failing step recorded before its error.
    ///
    /// # Errors
    ///
    /// The sink's I/O failure first, then the raw step error;
    /// [`run`](Session::run) is the classified driver.
    pub fn step(&mut self) -> Result<(), SimError> {
        let mut trace = TraceBuf::to_sink(std::mem::take(&mut self.events), &mut *self.sink);
        let stepped = self.engine.step(&mut trace, &mut *self.stimulus);
        let delivered = trace.flush(self.engine.design());
        self.events = trace.into_events();
        delivered?;
        stepped?;
        self.sink
            .end_cycle(self.engine.design(), self.engine.state())
            .map_err(SimError::from)
    }

    /// Drives the engine to a bound, classifying how the run stopped.
    pub fn run(&mut self, until: Until) -> RunOutcome {
        let mut executed = 0u64;
        let stop = loop {
            let keep_going = match until {
                Until::Cycles(n) => executed < n,
                Until::Cycle(last) => self.engine.state().cycle() <= last,
                Until::Spec => match self.engine.design().cycles() {
                    Some(last) => self.engine.state().cycle() <= last,
                    None => false,
                },
            };
            if !keep_going {
                break StopReason::CycleLimit;
            }
            match self.step() {
                Ok(()) => executed += 1,
                Err(e) => break StopReason::from_error(e),
            }
        };
        self.recorder.count("session", "cycles", executed);
        RunOutcome {
            cycles: executed,
            stop,
        }
    }

    /// The design under simulation.
    pub fn design(&self) -> &Design {
        self.engine.design()
    }

    /// The current cycle number.
    pub fn cycle(&self) -> Word {
        self.engine.state().cycle()
    }

    /// The current simulation state.
    pub fn state(&self) -> &SimState {
        self.engine.state()
    }

    /// The engine (for snapshots, stats, observability queries).
    pub fn engine(&self) -> &dyn Engine {
        &*self.engine
    }

    /// The engine, mutably (for restore).
    pub fn engine_mut(&mut self) -> &mut (dyn Engine + 'd) {
        &mut *self.engine
    }

    /// The stimulus source, mutably — interactive drivers read prompt
    /// answers from the same source that feeds memory-mapped input.
    pub fn stimulus_mut(&mut self) -> &mut (dyn InputSource + 'd) {
        &mut *self.stimulus
    }

    /// Replaces the stimulus source. Rewind/replay harnesses use this
    /// with [`resume`](Session::resume): restoring a checkpoint rolls the
    /// architectural state back, and the replayed scripted input must be
    /// re-supplied from the matching offset.
    pub fn set_stimulus(&mut self, stimulus: impl InputSource + 'd) {
        self.stimulus = Box::new(stimulus);
    }

    /// Writes text to the trace sink, verbatim — interactive drivers write
    /// their prompts to the same destination the trace goes to.
    ///
    /// # Errors
    ///
    /// I/O failure of the sink's destination.
    pub fn write_text(&mut self, text: &[u8]) -> Result<(), SimError> {
        self.sink
            .record(self.engine.design(), &[TraceEvent::raw(text)])
            .map_err(SimError::from)
    }

    /// The captured (rendered) trace bytes, when the sink buffers (see
    /// [`SessionBuilder::capture`]); empty otherwise.
    pub fn output(&self) -> &[u8] {
        self.sink.captured().unwrap_or(&[])
    }

    /// The captured trace as (lossy) text.
    pub fn output_text(&self) -> String {
        String::from_utf8_lossy(self.output()).into_owned()
    }

    /// Flushes the sink.
    ///
    /// # Errors
    ///
    /// I/O failure of the sink's destination.
    pub fn flush(&mut self) -> Result<(), SimError> {
        self.sink.flush().map_err(SimError::from)
    }

    /// Serializes the architectural state (cycle counter, outputs, memory
    /// cells, statistics) to a writer, fingerprinted against the design.
    /// See [`write_checkpoint`].
    ///
    /// # Errors
    ///
    /// I/O failure of the writer.
    pub fn checkpoint(&self, out: &mut dyn Write) -> io::Result<()> {
        write_checkpoint(self.engine.design(), self.engine.state(), out)
    }

    /// [`checkpoint`](Session::checkpoint) to a file path, published
    /// atomically (temp sibling + rename) so a kill mid-write leaves the
    /// previous checkpoint intact.
    ///
    /// # Errors
    ///
    /// File creation, write, or rename failure.
    pub fn checkpoint_to(&self, path: impl AsRef<std::path::Path>) -> io::Result<()> {
        let _span = self.recorder.span("session", "checkpoint");
        let mut doc = Vec::new();
        self.checkpoint(&mut doc)?;
        rtl_obs::write_atomic(path.as_ref(), &doc)
    }

    /// Restores the engine, statistics included, from a checkpoint
    /// previously written over the *same design*. The trace sink and
    /// stimulus are left untouched — resuming a run with scripted input is
    /// the caller's job (re-supply the stimulus from the right offset).
    ///
    /// # Errors
    ///
    /// I/O failure, a malformed document, a design-fingerprint mismatch,
    /// or an `asim2-checkpoint v1` document, which holds no statistics
    /// (all as [`io::Error`]).
    pub fn resume(&mut self, input: &mut dyn BufRead) -> io::Result<()> {
        let state = read_checkpoint(self.engine.design(), input)?;
        self.engine.restore(&state);
        Ok(())
    }

    /// [`resume`](Session::resume) from a file path.
    ///
    /// # Errors
    ///
    /// See [`Session::resume`].
    pub fn resume_from(&mut self, path: impl AsRef<std::path::Path>) -> io::Result<()> {
        let _span = self.recorder.span("session", "resume");
        let mut file = io::BufReader::new(std::fs::File::open(path)?);
        self.resume(&mut file)
    }
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("design", &self.engine.design().title())
            .field("cycle", &self.engine.state().cycle())
            .finish_non_exhaustive()
    }
}

const CHECKPOINT_MAGIC: &str = "asim2-checkpoint v2";

/// The largest cycle count a checkpoint may hold, 2^62: the bound on its
/// `cycle` line, on its statistics' cycle count and on a lockstep
/// checkpoint's `verified` line. A run resumed at the bound needs another
/// 2^62 cycles, far more than any run steps, before a cycle counter could
/// overflow, so a document past it is refused ([`check_cycle_count`])
/// rather than loaded into a state whose next step wraps.
pub const MAX_CHECKPOINT_CYCLE: Word = 1 << 62;

/// Refuses a cycle count read from a checkpoint's `what` line unless it
/// lies in `0..=`[`MAX_CHECKPOINT_CYCLE`].
///
/// # Errors
///
/// A negative count, or one past the bound.
pub fn check_cycle_count(what: &str, count: i128) -> io::Result<()> {
    if (0..=i128::from(MAX_CHECKPOINT_CYCLE)).contains(&count) {
        Ok(())
    } else {
        Err(malformed(format!(
            "checkpoint {what} {count} is out of range (0 to {MAX_CHECKPOINT_CYCLE})"
        )))
    }
}

/// The streaming FNV-1a hasher behind every stable on-disk fingerprint:
/// design fingerprints in checkpoints, and campaign configuration/corpus
/// fingerprints downstream. Stable across platforms, runs and Rust
/// versions — unlike `std::hash`, which promises none of that.
///
/// ```
/// use rtl_core::session::Fingerprint;
/// let mut fp = Fingerprint::new();
/// fp.write(b"hello");
/// fp.write_u64(7);
/// assert_eq!(fp.finish(), {
///     let mut again = Fingerprint::new();
///     again.write(b"hello");
///     again.write_u64(7);
///     again.finish()
/// });
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    hash: u64,
}

impl Fingerprint {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fingerprint {
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds a `u64` (little-endian).
    pub fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// Feeds a length-delimited string (NUL separator, so `"a","bc"` and
    /// `"ab","c"` hash differently).
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0]);
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

/// A stable fingerprint of a design's architectural shape (component
/// names, order, memory sizes) — checkpoints refuse to load over a
/// different design.
pub fn design_fingerprint(design: &Design) -> u64 {
    let mut fp = Fingerprint::new();
    fp.write_u64(design.len() as u64);
    for (id, comp) in design.iter() {
        fp.write_str(comp.name.as_str());
        if comp.kind.is_memory() {
            fp.write(&design.memory(id).size.to_le_bytes());
        }
    }
    fp.finish()
}

/// Writes the versioned checkpoint document: magic line, design
/// fingerprint, cycle counter, component outputs (design order), memory
/// cells (memory order, address order), and the statistics: `stats
/// CYCLES` followed by each counter list (`reads`, `writes`, `inputs`,
/// `outputs`) as its label and one value per component.
///
/// # Errors
///
/// I/O failure of the writer.
pub fn write_checkpoint(design: &Design, state: &SimState, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "{CHECKPOINT_MAGIC}")?;
    writeln!(out, "fingerprint {:016x}", design_fingerprint(design))?;
    writeln!(out, "cycle {}", state.cycle())?;
    write!(out, "outputs {}", design.len())?;
    for (id, _) in design.iter() {
        write!(out, " {}", state.output(id))?;
    }
    writeln!(out)?;
    let total: usize = design
        .memories()
        .iter()
        .map(|&id| state.cells(id).len())
        .sum();
    write!(out, "cells {total}")?;
    for &id in design.memories() {
        for &cell in state.cells(id) {
            write!(out, " {cell}")?;
        }
    }
    writeln!(out)?;
    let stats = state.stats();
    write!(out, "stats {}", stats.cycles)?;
    for (label, counts) in [
        ("reads", &stats.reads),
        ("writes", &stats.writes),
        ("inputs", &stats.inputs),
        ("outputs", &stats.outputs),
    ] {
        write!(out, " {label}")?;
        for n in counts {
            write!(out, " {n}")?;
        }
    }
    writeln!(out)
}

fn malformed(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

/// Reads one line (without its terminator) from a checkpoint stream,
/// failing with a "truncated before `what`" error at EOF. Checkpoint
/// documents have a fixed line count, so parsers consume exactly their
/// own document and leave the reader positioned after it — harnesses
/// (cosim's lockstep checkpoint) embed several documents in one stream
/// and interleave their own header lines using this same reader.
///
/// # Errors
///
/// I/O failure, or EOF before a line could be read.
pub fn read_doc_line(input: &mut dyn BufRead, what: &str) -> io::Result<String> {
    let mut line = String::new();
    if input.read_line(&mut line)? == 0 {
        return Err(malformed(format!("checkpoint truncated before {what}")));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Reads a checkpoint document back into a [`SimState`] for `design`.
/// Consumes exactly the document's own lines: the reader is left
/// positioned right after it, so documents can be embedded in a larger
/// stream (the lockstep checkpoint format relies on this).
///
/// # Errors
///
/// I/O failure, malformed document, fingerprint mismatch, or a cycle
/// count outside `0..=`[`MAX_CHECKPOINT_CYCLE`].
pub fn read_checkpoint(design: &Design, input: &mut dyn BufRead) -> io::Result<SimState> {
    let mut next = |what: &str| read_doc_line(input, what);

    let magic = next("magic")?;
    if magic == "asim2-checkpoint v1" {
        return Err(malformed(
            "an asim2-checkpoint v1 document holds no statistics and cannot be resumed; \
             run again from the start",
        ));
    }
    if magic != CHECKPOINT_MAGIC {
        return Err(malformed("not an asim2-checkpoint v2 document"));
    }
    let fp_line = next("fingerprint")?;
    let fp = fp_line
        .strip_prefix("fingerprint ")
        .and_then(|h| u64::from_str_radix(h.trim(), 16).ok())
        .ok_or_else(|| malformed("bad fingerprint line"))?;
    if fp != design_fingerprint(design) {
        return Err(malformed(
            "checkpoint was written over a different design (fingerprint mismatch)",
        ));
    }
    let cycle_line = next("cycle")?;
    let cycle: Word = cycle_line
        .strip_prefix("cycle ")
        .and_then(|c| c.trim().parse().ok())
        .ok_or_else(|| malformed("bad cycle line"))?;
    check_cycle_count("cycle", cycle.into())?;

    let parse_words = |line: &str, tag: &str, expect: usize| -> io::Result<Vec<Word>> {
        let rest = line
            .strip_prefix(tag)
            .ok_or_else(|| malformed(format!("expected {tag:?} line")))?;
        let mut it = rest.split_ascii_whitespace();
        let count: usize = it
            .next()
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| malformed(format!("bad {tag:?} count")))?;
        if count != expect {
            return Err(malformed(format!(
                "{tag:?} count {count} does not match the design's {expect}"
            )));
        }
        let words: Vec<Word> = it
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map_err(|_| malformed(format!("non-numeric value in {tag:?} line")))?;
        if words.len() != expect {
            return Err(malformed(format!(
                "{tag:?} has {} values, expected {expect}",
                words.len()
            )));
        }
        Ok(words)
    };

    let outputs = parse_words(&next("outputs")?, "outputs", design.len())?;
    let mut state = SimState::new(design);
    let total: usize = design
        .memories()
        .iter()
        .map(|&id| state.cells(id).len())
        .sum();
    let cells = parse_words(&next("cells")?, "cells", total)?;
    let stats =
        parse_stats(&next("stats")?, design).ok_or_else(|| malformed("bad statistics line"))?;
    check_cycle_count("statistics cycle count", stats.cycles.into())?;
    state.set_cycle(cycle);
    *state.stats_mut() = stats;
    for ((id, _), value) in design.iter().zip(outputs) {
        state.set_output(id, value);
    }
    let mut cursor = cells.into_iter();
    for &id in design.memories() {
        for addr in 0..state.cell_count(id) {
            state.set_cell(id, addr, cursor.next().expect("count checked above"));
        }
    }
    Ok(state)
}

/// Parses the statistics line [`write_checkpoint`] writes: `None` when
/// malformed.
fn parse_stats(line: &str, design: &Design) -> Option<SimStats> {
    let mut words = line.strip_prefix("stats ")?.split(' ');
    let mut stats = SimStats::new(design);
    stats.cycles = words.next()?.parse().ok()?;
    for (label, counts) in [
        ("reads", &mut stats.reads),
        ("writes", &mut stats.writes),
        ("inputs", &mut stats.inputs),
        ("outputs", &mut stats.outputs),
    ] {
        if words.next()? != label {
            return None;
        }
        for n in counts.iter_mut() {
            *n = words.next()?.parse().ok()?;
        }
    }
    words.next().is_none().then_some(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design(src: &str) -> Design {
        Design::from_source(src).unwrap()
    }

    const COUNTER: &str = "# c\ncount* next .\nM count 0 next 1 1\nA next 4 count 1 .";

    #[test]
    fn stop_reason_classifies_errors() {
        let halt = StopReason::from_error(SimError::Halt(HaltKind::InputExhausted { cycle: 7 }));
        assert_eq!(
            halt,
            StopReason::Halt(HaltKind::InputExhausted { cycle: 7 })
        );
        assert_eq!(halt.halt().unwrap().label(), "input-exhausted");
        assert_eq!(halt.halt().unwrap().cycle(), 7);

        let io = StopReason::from_error(SimError::Io("pipe".into()));
        assert!(matches!(io, StopReason::Error(SimError::Io(_))));
        assert!(!io.is_cycle_limit());
        assert!(StopReason::CycleLimit.into_error().is_none());
    }

    #[test]
    fn halt_kind_round_trips_through_sim_error() {
        let h = HaltKind::SelectorOutOfRange {
            component: "mux".into(),
            index: 9,
            cases: 4,
            cycle: 17,
        };
        let e = SimError::Halt(h.clone());
        assert_eq!(
            StopReason::from_error(e.clone()),
            StopReason::Halt(h.clone())
        );
        assert_eq!(StopReason::Halt(h.clone()).into_error(), Some(e.clone()));
        assert_eq!(h.to_string(), e.to_string(), "display wording preserved");
        assert!(StopReason::from_error(SimError::Io("x".into()))
            .halt()
            .is_none());
    }

    #[test]
    fn checkpoint_round_trips() {
        let d = design(COUNTER);
        let mut state = SimState::new(&d);
        state.set_cycle(42);
        let count = d.find("count").unwrap();
        state.set_output(count, 41);
        state.set_cell(count, 0, 41);
        state.bump_cycle();
        state.stats_mut().record(count, crate::word::MemOp::Write);

        let mut doc = Vec::new();
        write_checkpoint(&d, &state, &mut doc).unwrap();
        let text = String::from_utf8(doc.clone()).unwrap();
        assert!(text.starts_with(CHECKPOINT_MAGIC), "{text}");
        assert!(text.contains("cycle 43"), "{text}");
        assert!(text.contains("stats 1 reads"), "{text}");

        let restored = read_checkpoint(&d, &mut &doc[..]).unwrap();
        assert_eq!(restored, state);
        assert_eq!(restored.stats().writes[count.index()], 1);

        let v1 = text.replacen(CHECKPOINT_MAGIC, "asim2-checkpoint v1", 1);
        let err = read_checkpoint(&d, &mut v1.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("asim2-checkpoint v1"), "{err}");
    }

    #[test]
    fn checkpoint_rejects_other_designs_and_garbage() {
        let d = design(COUNTER);
        let other = design("# o\nx y .\nA x 2 1 0\nA y 2 2 0 .");
        let mut doc = Vec::new();
        write_checkpoint(&d, &SimState::new(&d), &mut doc).unwrap();
        let err = read_checkpoint(&other, &mut &doc[..]).unwrap_err();
        assert!(err.to_string().contains("fingerprint"), "{err}");
        assert!(read_checkpoint(&d, &mut &b"not a checkpoint"[..]).is_err());
        assert_ne!(design_fingerprint(&d), design_fingerprint(&other));
    }

    #[test]
    fn run_outcome_helpers() {
        let done = RunOutcome {
            cycles: 5,
            stop: StopReason::CycleLimit,
        };
        assert!(done.completed());
        assert_eq!(done.into_result().unwrap(), 5);

        let halted = RunOutcome {
            cycles: 2,
            stop: StopReason::Halt(HaltKind::InputExhausted { cycle: 2 }),
        };
        assert!(!halted.completed());
        assert!(halted.halt().is_some());
        assert!(matches!(
            halted.into_result(),
            Err(SimError::Halt(HaltKind::InputExhausted { cycle: 2 }))
        ));
    }
}
