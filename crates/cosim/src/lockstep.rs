//! The lockstep driver: N engines, one design, one stimulus, compared
//! every interval — rebuilt on the [`Session`] API.
//!
//! Each engine runs in its own *lane*, and each lane **is** a
//! [`Session`]: the sink (a shared buffer of trace *values*) and the
//! stimulus (a metered replay of the scripted input) are bound once, and
//! the lane is driven exclusively through [`Session::run`] — `Lockstep`
//! never calls [`Engine::step`] directly.
//!
//! Lanes keep the [`TraceEvent`]s their engines record and never format
//! them: the trace lens compares event spans and renders text only when
//! two spans differ as values (see
//! [`TraceBytes`](rtl_core::observe::TraceBytes)). Text is rendered only
//! where it is the artifact: a divergence report's trace windows, the
//! [`agreed_output`](Lockstep::agreed_output) a stream lane is checked
//! against, and digests.
//!
//! After every comparison interval the lanes' [`Observation`]s are
//! checked against lane 0 by the configured [`Comparator`] set (the
//! classic trace/cycles/outputs/cells tuple by default; see
//! [`CompareMode`]), and — at coarse strides — each lane's state is kept
//! as an [`Engine::snapshot`] value. When a coarse-interval comparison
//! fails, every lane rewinds to the last agreeing snapshot
//! ([`Engine::restore`] plus re-supplied stimulus) and replays one cycle
//! at a time, so the report always names the *first* divergent cycle
//! regardless of stride. A lens that reads only lane 0
//! ([`Comparator::reference_only`]: the lint oracle, digest recording and
//! checking) runs once per comparison point, so it also runs over a
//! single lane, whose trace each point commits as the agreed output.
//!
//! A divergence is reported once, from the verdict of the comparison
//! that found it: the report is built from that verdict without
//! comparing again, and after a bisection rewind it is rebuilt only when
//! the replay reproduces the divergence (an engine that checkpoint and
//! restore do not fully rewind keeps the coarse report).
//!
//! Lane statistics are per run. They are engine state: a snapshot holds
//! an engine's counters and [`Engine::restore`] puts them back, so a
//! rewind takes the replayed work back out and every [`CosimOutcome`]
//! carries the statistics a fresh stride-1 run would. A harness can also
//! run again from cycle 0 on the lanes it built: [`Lockstep::restart`]
//! puts every engine back in the state it was added in, counters
//! included, over a new stimulus.
//!
//! The harness also records, for each stimulus word of the run, the
//! cycle in which the first lane to read it did, keyed by read: an entry
//! is pushed when a lane's consumed count passes the record's length, so
//! the record never holds more entries than the stimulus has words, and
//! a design without an input port records nothing. A restart clears the
//! record, a bisection rewind cuts it back to the rewind point, and a
//! resume starts it afresh.
//! [`Lockstep::words_read_through`] answers from it how much of the
//! stimulus the run had read by a given cycle. A cycle is a pure
//! function of the state and the words read so far, so a run over a
//! stimulus prefix holding those words repeats this run up to that cycle.
//!
//! Because a lane's whole position is a value (engine state with its
//! statistics + stimulus offset + verified count), a lockstep run itself can
//! stop and restart mid-case: [`Lockstep::checkpoint`] writes every lane
//! to one document (each lane's state as a [`Session::checkpoint`]) and
//! [`Lockstep::resume`] restores it — the mechanism behind `asim2 cosim
//! --checkpoint/--resume` and `asim2 campaign run --case-checkpoint`,
//! which keep the documents in a [`CheckpointStore`]. A resumed run
//! reports the statistics an uninterrupted one would.

use rtl_core::observe::{stop_state, Comparator, CompareMode, Observation, TRACE_WINDOW_LINES};
use rtl_core::trace::render_text;
use rtl_core::{
    design_fingerprint, Design, DivergenceKind, Engine, Fingerprint, HaltKind, InputSource,
    LaneReport, LaneStats, Recorder, ScriptedInput, Session, SimError, SimState, StopReason,
    TraceEvent, TraceSink, Until, Word,
};
use std::cell::{Cell, RefCell};
use std::io::{self, BufRead, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;

/// Where a lockstep run keeps its mid-run checkpoints
/// ([`CosimOptions::checkpoint`]). A [`Harness`](crate::Harness) run
/// loads the document it resumes from, when the store holds one, before
/// its first cycle, and saves a [`Lockstep::checkpoint`] document every
/// [`every`](CheckpointStore::every) verified cycles.
/// [`CheckpointFiles`] keeps them as files (`asim2 cosim --checkpoint
/// --resume`); a campaign keeps each case's as a frame of its worker's
/// log.
pub trait CheckpointStore: Send + Sync {
    /// Save a document every this many verified cycles (at least 1);
    /// `None` for a store that only resumes.
    fn every(&self) -> Option<u64>;

    /// Whether the store holds a document to resume from.
    fn resumes(&self) -> bool;

    /// The document to resume from. A store may also put back what it
    /// saved alongside the document (a campaign case's profile tally and
    /// flight ring).
    ///
    /// # Errors
    ///
    /// The store cannot read it.
    fn load(&self) -> io::Result<Vec<u8>>;

    /// Keeps `doc`, the harness position after `verified` verified
    /// cycles, as the latest checkpoint.
    ///
    /// # Errors
    ///
    /// The store cannot keep it.
    fn save(&self, verified: u64, doc: &[u8]) -> io::Result<()>;

    /// Whether a lane mix that cannot resume runs without the store
    /// rather than being refused: `true` for a store whose checkpoints
    /// only save work. Stream lanes cannot join a resumed run, so a
    /// harness with a stream lane never checkpoints.
    fn optional(&self) -> bool {
        false
    }
}

/// A shared [`CheckpointStore`], as [`CosimOptions::checkpoint`] holds
/// it. Two compare equal when they are one store.
#[derive(Clone)]
pub struct Checkpoints(pub Arc<dyn CheckpointStore>);

impl Checkpoints {
    /// Shares `store`.
    pub fn new(store: impl CheckpointStore + 'static) -> Self {
        Checkpoints(Arc::new(store))
    }
}

impl PartialEq for Checkpoints {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for Checkpoints {}

impl std::fmt::Debug for Checkpoints {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpoints")
            .field("every", &self.0.every())
            .field("resumes", &self.0.resumes())
            .finish()
    }
}

/// Checkpoints kept as files: `save` is written every `every` cycles
/// through [`write_atomic`](rtl_obs::write_atomic), so a kill mid-write
/// never leaves a truncated document, and `resume` is read before the
/// run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointFiles {
    /// Where to write a document, and every how many verified cycles.
    pub save: Option<(PathBuf, u64)>,
    /// The document to resume from.
    pub resume: Option<PathBuf>,
}

/// An I/O error that names the file it was about.
fn at_path(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

impl CheckpointStore for CheckpointFiles {
    fn every(&self) -> Option<u64> {
        self.save.as_ref().map(|(_, every)| (*every).max(1))
    }

    fn resumes(&self) -> bool {
        self.resume.is_some()
    }

    fn load(&self) -> io::Result<Vec<u8>> {
        let path = self.resume.as_deref().ok_or(io::ErrorKind::NotFound)?;
        std::fs::read(path).map_err(|e| at_path(path, e))
    }

    fn save(&self, _verified: u64, doc: &[u8]) -> io::Result<()> {
        match &self.save {
            Some((path, _)) => rtl_obs::write_atomic(path, doc).map_err(|e| at_path(path, e)),
            None => Ok(()),
        }
    }
}

/// Lockstep configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CosimOptions {
    /// Compare lanes every N cycles (1 = every cycle). Coarser intervals
    /// amortize comparison cost on long runs; divergences are still
    /// pinpointed exactly by snapshot-rewind bisection.
    pub compare_every: u64,
    /// Run engines with trace output on and compare it byte-for-byte.
    pub trace: bool,
    /// Keep the full agreed trace so [`Lockstep::agreed_output`] can
    /// return it: each agreed span is rendered to text as it is
    /// committed. Off by default: long runs would otherwise grow
    /// O(cycles); with retention off, verified trace is dropped at each
    /// commit down to a small tail (kept for divergence-report trace
    /// windows).
    pub retain_output: bool,
    /// The comparator set, as values (see [`CompareMode`]); empty falls
    /// back to [`CompareMode::All`]. Lane error states are always
    /// compared first, regardless of this list.
    pub compare: Vec<CompareMode>,
    /// Where the run resumes from and saves its mid-run checkpoints
    /// (scenario drivers honor it; a bare [`Lockstep`] exposes the same
    /// through [`Lockstep::checkpoint`] and [`Lockstep::resume`]).
    pub checkpoint: Option<Checkpoints>,
    /// Record the reference lane's observation digest at every comparison
    /// interval and write the stream here after the run (see
    /// [`crate::digest`]) — the cheap cross-machine comparison artifact.
    pub export_digests: Option<PathBuf>,
    /// Replay a digest stream recorded by another run as an extra
    /// comparison lane: the reference lane must match the recorded
    /// digests cycle for cycle.
    pub check_digests: Option<PathBuf>,
    /// Telemetry tap (disabled/no-op by default): the harness counts the
    /// cycles its lanes executed (`session/cycles`, summed over lanes and
    /// emitted once per [`Lockstep::run`]; lane sessions themselves record
    /// nothing), comparator invocations per lens
    /// (`lockstep/compare_<lens>`: one per lens and candidate lane at
    /// each comparison point — one per point for a reference-only lens —
    /// bisection replays included; a divergence
    /// report reuses the verdict that found it and compares nothing
    /// more) and bisection rewinds (`lockstep/bisect_rewinds`). A [`Recorder`] never affects
    /// behavior, compares equal to every other recorder, and stays out
    /// of harness fingerprints.
    pub recorder: Recorder,
    /// Execution-profile tap (disabled/no-op by default): every stepped
    /// lane attaches a per-component tally to it, so the snapshot holds
    /// the *sum* over lanes. Counts are a pure function of the simulated
    /// work — bisection rewinds re-execute deterministically — so
    /// profiles stay byte-identical across runs. Like the recorder, a
    /// hook compares equal to every other hook and stays out of harness
    /// fingerprints.
    pub profile: rtl_core::ProfileHook,
    /// Cross-validate the static analyzer against the running lanes: when
    /// the design has sound lint claims (statically-dead selector arms,
    /// statically-undriven memories), scenario drivers attach the
    /// `rtl-lint` oracle comparator, and a runtime observation that
    /// contradicts a claim is reported as a
    /// [`DivergenceKind::Oracle`](rtl_core::DivergenceKind) divergence.
    pub lint_oracle: bool,
}

impl Default for CosimOptions {
    fn default() -> Self {
        CosimOptions {
            compare_every: 1,
            trace: true,
            retain_output: false,
            compare: vec![CompareMode::All],
            checkpoint: None,
            export_digests: None,
            check_digests: None,
            recorder: Recorder::disabled(),
            profile: rtl_core::ProfileHook::disabled(),
            lint_oracle: false,
        }
    }
}

/// The result of a lockstep run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CosimOutcome {
    /// Every comparison passed.
    Agreement {
        /// Cycles executed and verified.
        cycles: u64,
        /// How the run stopped: [`StopReason::CycleLimit`] for a full
        /// horizon, or a structured [`StopReason::Halt`] when *every*
        /// engine raised the identical runtime halt — agreement about
        /// failure, as a value.
        stop: StopReason,
        /// Per-lane simulation statistics, for lanes whose engines keep
        /// them ([`Engine::stats`]): the work of this run alone, since
        /// the lanes were added or last [restarted](Lockstep::restart),
        /// with replayed cycles counted once.
        stats: Vec<LaneStats>,
    },
    /// Lanes disagreed; the report pinpoints where and how.
    Divergence(Box<DivergenceReport>),
}

impl CosimOutcome {
    /// `true` for [`CosimOutcome::Agreement`].
    pub fn agreed(&self) -> bool {
        matches!(self, CosimOutcome::Agreement { .. })
    }

    /// The unanimous halt classification, when the lanes agreed about a
    /// runtime halt.
    pub fn halt(&self) -> Option<&HaltKind> {
        match self {
            CosimOutcome::Agreement { stop, .. } => stop.halt(),
            CosimOutcome::Divergence(_) => None,
        }
    }

    /// Per-lane statistics: the agreement field, or the divergence
    /// report's lane stats.
    pub fn lane_stats(&self) -> Vec<LaneStats> {
        match self {
            CosimOutcome::Agreement { stats, .. } => stats.clone(),
            CosimOutcome::Divergence(report) => report
                .lanes
                .iter()
                .filter_map(|l| {
                    l.stats.as_ref().map(|s| LaneStats {
                        lane: l.engine.clone(),
                        stats: s.clone(),
                    })
                })
                .collect(),
        }
    }
}

/// A structured first-divergence report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergenceReport {
    /// Scenario label (filled by the scenario/fuzz runners).
    pub scenario: String,
    /// First divergent cycle (0-based; the cycle whose execution first
    /// broke agreement).
    pub cycle: Word,
    /// What diverged.
    pub kind: DivergenceKind,
    /// Per-engine details, in lane order.
    pub lanes: Vec<LaneReport>,
}

impl std::fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "DIVERGENCE in {} at cycle {}: {}",
            self.scenario, self.cycle, self.kind
        )?;
        for lane in &self.lanes {
            write!(f, "  [{}] cycle {}", lane.engine, lane.cycle)?;
            if let Some(v) = lane.value {
                write!(f, ", value {v}")?;
            }
            if let Some(stats) = &lane.stats {
                write!(f, ", {} accesses", stats.total_accesses())?;
            }
            match &lane.error {
                Some(e) => writeln!(f, ", error: {e}")?,
                None => writeln!(f)?,
            }
        }
        for lane in &self.lanes {
            if lane.trace_window.is_empty() {
                continue;
            }
            writeln!(f, "  trace window [{}]:", lane.engine)?;
            for line in &lane.trace_window {
                writeln!(f, "    | {line}")?;
            }
        }
        Ok(())
    }
}

/// A [`TraceSink`] appending trace events into a buffer the harness also
/// holds — the lane's session records through it, the comparators read
/// (and, on rewind, truncate) the same values. Nothing is rendered, and
/// a step's events are moved in, not cloned.
struct LaneSink(Rc<RefCell<Vec<TraceEvent>>>);

impl TraceSink for LaneSink {
    fn record(&mut self, _design: &Design, events: &[TraceEvent]) -> io::Result<()> {
        self.0.borrow_mut().extend_from_slice(events);
        Ok(())
    }

    fn append(&mut self, _design: &Design, events: &mut Vec<TraceEvent>) -> io::Result<()> {
        self.0.borrow_mut().append(events);
        Ok(())
    }
}

/// The committed trace text a report quotes and
/// [`Lockstep::agreed_output`] returns without retention: the last
/// `TRACE_TAIL` bytes of everything the lanes agreed on.
const TRACE_TAIL: usize = 4096;

/// Committed events are trimmed to a report tail once a lane holds more
/// than this many. After a trim, a lane trims again only once its buffer
/// has doubled (with this as the floor), so each trim's rescan and move
/// is paid for by as many new events.
const TRIM_AT: usize = 1024;

/// The start of the shortest suffix of `committed` that renders to at
/// least `min_len` bytes *and* holds more than [`TRACE_WINDOW_LINES`]
/// newlines (both counted as lower bounds), or 0 when there is none.
///
/// Such a suffix gives a report the same window as the whole committed
/// text: its first newline ends the only line it may cut short, and the
/// lines after it are more than a window's worth. Its last
/// [`TRACE_TAIL`] bytes are the whole text's too, once `min_len` is
/// `TRACE_TAIL` — the bound commits trim to.
fn tail_start(committed: &[TraceEvent], min_len: usize) -> usize {
    let (mut len, mut newlines) = (0, 0);
    for (i, event) in committed.iter().enumerate().rev() {
        len += event.min_len();
        newlines += event.min_newlines();
        if len >= min_len && newlines > TRACE_WINDOW_LINES {
            return i;
        }
    }
    0
}

/// The last [`TRACE_TAIL`] bytes of `text`.
fn tail(text: &[u8]) -> &[u8] {
    &text[text.len().saturating_sub(TRACE_TAIL)..]
}

/// A [`ScriptedInput`] that reports how many words it has consumed
/// through a cell the harness also holds — the piece of lane state the
/// session checkpoint format deliberately leaves to the caller.
struct MeteredInput {
    inner: ScriptedInput,
    consumed: Rc<Cell<usize>>,
}

impl MeteredInput {
    /// Replays `words[offset..]`, with `consumed` preset to `offset`.
    fn from_offset(words: &[Word], offset: usize, consumed: Rc<Cell<usize>>) -> Self {
        consumed.set(offset);
        MeteredInput {
            inner: ScriptedInput::new(words[offset.min(words.len())..].iter().copied()),
            consumed,
        }
    }

    fn bump(&self) {
        self.consumed.set(self.consumed.get() + 1);
    }
}

impl InputSource for MeteredInput {
    fn read_char(&mut self) -> Result<Word, SimError> {
        let word = self.inner.read_char()?;
        self.bump();
        Ok(word)
    }

    fn read_int(&mut self) -> Result<Word, SimError> {
        let word = self.inner.read_int()?;
        self.bump();
        Ok(word)
    }
}

struct Lane<'d> {
    name: String,
    /// The lane *is* a session: engine + shared sink + metered stimulus,
    /// bound once.
    session: Session<'d>,
    /// The session's trace events (shared with [`LaneSink`]): a tail of
    /// committed events, then the span since the last agreed point.
    events: Rc<RefCell<Vec<TraceEvent>>>,
    /// Where the uncommitted span starts in `events`.
    committed: usize,
    /// Trim the committed events once the lane holds more than this many.
    trim_at: usize,
    /// Stimulus words consumed so far (shared with [`MeteredInput`]).
    consumed: Rc<Cell<usize>>,
    /// Sticky stop state: the error this lane raised, if any.
    error: Option<SimError>,
    /// The engine state the lane was added in: where a restart puts it.
    initial: SimState,
    /// The lane's engine state at the last agreeing comparison (refreshed
    /// only at coarse strides, where rewind can happen; `None` while that
    /// is the run's start, `initial`), with the stimulus offset that goes
    /// with it.
    check: Option<SimState>,
    check_consumed: usize,
}

impl Lane<'_> {
    /// The lane's observation over `events`, its borrowed event buffer.
    fn observe<'a>(&'a self, events: &'a [TraceEvent]) -> Observation<'a> {
        Observation::new(
            self.session.engine(),
            &events[self.committed..],
            self.error.as_ref(),
        )
    }

    fn snapshot(&mut self) {
        self.check = Some(self.session.engine().snapshot());
        self.check_consumed = self.consumed.get();
    }

    /// The text a report quotes for this lane: the committed text (all
    /// of it under retention, else its last [`TRACE_TAIL`] bytes)
    /// followed by the uncommitted span — rendered only from where the
    /// committed events stop mattering to the window ([`tail_start`]).
    fn report_text(&self, retain: bool) -> Vec<u8> {
        let events = self.events.borrow();
        let design = self.session.design();
        let start = tail_start(&events[..self.committed], 0);
        let committed = render_text(design, &events[start..self.committed]);
        let mut text = if retain {
            committed
        } else {
            tail(&committed).to_vec()
        };
        text.extend_from_slice(&render_text(design, &events[self.committed..]));
        text
    }
}

/// The lockstep harness. See the [module docs](self) for the comparison
/// discipline.
pub struct Lockstep<'d> {
    design: &'d Design,
    options: CosimOptions,
    comparators: Vec<Box<dyn Comparator>>,
    stimulus: Vec<Word>,
    lanes: Vec<Lane<'d>>,
    /// `reads[i]`: the cycle of the run in which the first lane to read
    /// stimulus word `i` read it.
    reads: Vec<u64>,
    /// Cycles verified equal so far; also the index of the next cycle.
    verified: u64,
    /// The agreed trace text, rendered from lane 0 at each commit — kept
    /// only under [`CosimOptions::retain_output`].
    agreed: Vec<u8>,
    /// Comparator invocations per lens since the last telemetry emit
    /// (parallel to `comparators`); aggregated locally so the hot
    /// comparison loop never allocates a counter key.
    compare_calls: Vec<u64>,
    /// Bisection rewinds since the last telemetry emit.
    rewinds: u64,
    /// Cycles executed by all lanes since the last telemetry emit.
    lane_cycles: u64,
    /// Whether a run or a resume moved the lanes since they were added or
    /// last restarted, so a restart must put their engines back.
    moved: bool,
}

impl<'d> Lockstep<'d> {
    /// A harness over one design with the given options and no lanes yet.
    /// The comparator set is built from [`CosimOptions::compare`]; add
    /// custom lenses with [`add_comparator`](Lockstep::add_comparator).
    pub fn new(design: &'d Design, options: CosimOptions) -> Self {
        let comparators = configured(&options);
        let compare_calls = vec![0; comparators.len()];
        Lockstep {
            design,
            options,
            comparators,
            stimulus: Vec::new(),
            lanes: Vec::new(),
            reads: Vec::new(),
            verified: 0,
            agreed: Vec::new(),
            compare_calls,
            rewinds: 0,
            lane_cycles: 0,
            moved: false,
        }
    }

    /// Sets the scripted input replayed into every lane. Call before
    /// adding lanes; [`restart`](Lockstep::restart) replaces it later.
    pub fn stimulus(&mut self, words: impl Into<Vec<Word>>) -> &mut Self {
        debug_assert!(self.lanes.is_empty(), "set stimulus before adding lanes");
        self.stimulus = words.into();
        self
    }

    /// Appends a custom [`Comparator`] after the configured set.
    pub fn add_comparator(&mut self, comparator: Box<dyn Comparator>) -> &mut Self {
        self.comparators.push(comparator);
        self.compare_calls.push(0);
        self
    }

    /// Adds an engine as a lane under a label — a registry lane built
    /// with [`EngineRegistry::build`](rtl_core::EngineRegistry::build)
    /// under its registry name, or a deliberately broken engine that tests
    /// the harness itself. The engine is wrapped in a [`Session`] (shared
    /// capture sink, metered stimulus) and driven only through it from
    /// here on. The lane session records no telemetry: the harness counts
    /// its cycles instead.
    pub fn add_lane(&mut self, name: &str, engine: Box<dyn Engine + 'd>) -> &mut Self {
        let events = Rc::new(RefCell::new(Vec::new()));
        let consumed = Rc::new(Cell::new(0usize));
        let initial = engine.snapshot();
        let session = Session::over(engine)
            .sink(LaneSink(Rc::clone(&events)))
            .stimulus(MeteredInput::from_offset(
                &self.stimulus,
                0,
                Rc::clone(&consumed),
            ))
            .build();
        self.lanes.push(Lane {
            name: name.to_string(),
            session,
            events,
            committed: 0,
            trim_at: TRIM_AT,
            consumed,
            error: None,
            initial,
            check: None,
            check_consumed: 0,
        });
        self
    }

    /// Puts the harness back at cycle 0 for a new run over `stimulus`,
    /// keeping the lanes it built: every engine is restored to the state
    /// it was added in and replays `stimulus` from its first word; trace
    /// events, read records, lane errors, rewind points, verified cycles
    /// and retained output are cleared, and lane statistics start again
    /// from zero. The
    /// comparator set is rebuilt from [`CosimOptions::compare`], so a
    /// stateful lens starts over too; custom comparators are dropped
    /// (add them again). Telemetry counts need no reset: every
    /// [`run`](Lockstep::run) ends by emitting its own.
    ///
    /// A run after a restart returns what a new harness with the same
    /// lanes returns over `stimulus`.
    pub fn restart(&mut self, stimulus: &[Word]) -> &mut Self {
        self.stimulus.clear();
        self.stimulus.extend_from_slice(stimulus);
        self.comparators = configured(&self.options);
        self.compare_calls = vec![0; self.comparators.len()];
        self.reads.clear();
        self.verified = 0;
        self.agreed.clear();
        let moved = std::mem::take(&mut self.moved);
        for lane in &mut self.lanes {
            if moved {
                lane.session.engine_mut().restore(&lane.initial);
            }
            let stimulus = MeteredInput::from_offset(&self.stimulus, 0, Rc::clone(&lane.consumed));
            lane.session.set_stimulus(stimulus);
            lane.events.borrow_mut().clear();
            lane.committed = 0;
            lane.trim_at = TRIM_AT;
            lane.error = None;
            lane.check = None;
            lane.check_consumed = 0;
        }
        self
    }

    /// Cycles verified equal so far (across [`run`](Lockstep::run) calls,
    /// and including any prefix restored by [`resume`](Lockstep::resume)).
    pub fn verified_cycles(&self) -> u64 {
        self.verified
    }

    /// The most stimulus words any lane had read by the end of cycle
    /// `cycle` of the current run (0-based; through the last cycle run
    /// when `cycle` is beyond it). Every word any lane read in cycles
    /// `0..=cycle` lies below this count, so a run over a stimulus prefix
    /// at least this long repeats the current run through `cycle`. Words
    /// read before a [`resume`](Lockstep::resume) point count as read at
    /// cycle 0: the document does not say when they were read.
    pub fn words_read_through(&self, cycle: u64) -> usize {
        self.reads.partition_point(|&at| at <= cycle)
    }

    /// Per-lane statistics of the current run, for lanes whose engines
    /// keep them (see [`CosimOutcome::Agreement::stats`]).
    pub fn lane_stats(&self) -> Vec<LaneStats> {
        self.lanes
            .iter()
            .filter_map(|l| {
                l.session.engine().stats().map(|stats| LaneStats {
                    lane: l.name.clone(),
                    stats: stats.clone(),
                })
            })
            .collect()
    }

    /// The trace/output text all lanes agreed on (up to the last verified
    /// comparison), rendered. Empty until the first successful
    /// comparison. The *full* run text is only available with
    /// [`CosimOptions::retain_output`] set; otherwise verified trace is
    /// dropped at commits and only the last 4096 bytes are returned.
    pub fn agreed_output(&self) -> Vec<u8> {
        if self.options.retain_output {
            return self.agreed.clone();
        }
        let lane = &self.lanes[0];
        let events = lane.events.borrow();
        let committed = &events[..lane.committed];
        let start = tail_start(committed, TRACE_TAIL);
        tail(&render_text(self.design, &committed[start..])).to_vec()
    }

    /// Runs up to `cycles` further cycles in lockstep. A single lane has
    /// no candidate to compare: each comparison point commits its trace
    /// as the agreed output and runs only the
    /// [reference-only](Comparator::reference_only) lenses.
    ///
    /// # Panics
    ///
    /// Panics when no lane was added.
    pub fn run(&mut self, cycles: u64) -> CosimOutcome {
        assert!(!self.lanes.is_empty(), "lockstep needs a lane");
        self.moved = true;
        let outcome = self.run_inner(cycles);
        self.emit_counters();
        outcome
    }

    /// Emits locally-aggregated deterministic counters as deltas (lane
    /// cycles, comparator invocations per lens, bisection rewinds) and resets
    /// the local tallies — folding sums deltas, so repeated `run` calls
    /// total correctly.
    fn emit_counters(&mut self) {
        let recorder = &self.options.recorder;
        if !recorder.enabled() {
            return;
        }
        recorder.count("session", "cycles", std::mem::take(&mut self.lane_cycles));
        for (comparator, calls) in self.comparators.iter().zip(self.compare_calls.iter_mut()) {
            let key = format!("compare_{}", comparator.name());
            recorder.count("lockstep", &key, std::mem::take(calls));
        }
        recorder.count(
            "lockstep",
            "bisect_rewinds",
            std::mem::take(&mut self.rewinds),
        );
    }

    fn run_inner(&mut self, cycles: u64) -> CosimOutcome {
        let granularity = self.options.compare_every.max(1);
        let mut executed = 0;
        while executed < cycles {
            let burst = granularity.min(cycles - executed);
            match self.burst(burst) {
                BurstResult::Agree => executed += burst,
                BurstResult::Halted(stopped) => {
                    let error = self.lanes[0]
                        .error
                        .clone()
                        .expect("unanimous halt carries the shared error");
                    return CosimOutcome::Agreement {
                        cycles: executed + stopped,
                        stop: StopReason::from_error(error),
                        stats: self.lane_stats(),
                    };
                }
                BurstResult::Diverged(stepped, kind) => {
                    // Report from the burst's own verdict. Past one cycle,
                    // rewind to the last agreeing checkpoint and replay one
                    // cycle at a time to find the exact divergence point;
                    // only a replay that diverges again replaces the
                    // report. An engine whose behavior checkpoint/resume
                    // does not fully restore may fail to reproduce, and
                    // the observed divergence is then still reported (at
                    // comparison granularity) rather than panic.
                    let mut report = self.build_report(kind);
                    if stepped > 1 {
                        self.rewind();
                        for _ in 0..stepped {
                            match self.burst(1) {
                                BurstResult::Agree => {}
                                BurstResult::Halted(_) => break,
                                BurstResult::Diverged(_, kind) => {
                                    report = self.build_report(kind);
                                    break;
                                }
                            }
                        }
                    }
                    return CosimOutcome::Divergence(Box::new(report));
                }
            }
        }
        CosimOutcome::Agreement {
            cycles: executed,
            stop: StopReason::CycleLimit,
            stats: self.lane_stats(),
        }
    }

    /// Drives every lane `cycles` further cycles through its session,
    /// then compares and (on agreement) commits.
    fn burst(&mut self, cycles: u64) -> BurstResult {
        let mut stepped = 0;
        for _ in 0..cycles {
            let cycle = self.verified + stepped;
            for lane in &mut self.lanes {
                if lane.error.is_some() {
                    continue;
                }
                let outcome = lane.session.run(Until::Cycles(1));
                self.lane_cycles += outcome.cycles;
                let consumed = lane.consumed.get();
                if consumed > self.reads.len() {
                    self.reads.resize(consumed, cycle);
                }
                if let Some(e) = outcome.stop.into_error() {
                    lane.error = Some(e);
                }
            }
            stepped += 1;
            if self.lanes.iter().any(|l| l.error.is_some()) {
                break;
            }
        }
        if let Some(kind) = self.compare() {
            return BurstResult::Diverged(stepped, kind);
        }
        self.commit();
        if self.lanes.iter().any(|l| l.error.is_some()) {
            // compare() passed, so every lane raised the identical error:
            // unanimous halt. The halting cycle itself did not complete.
            let stopped = stepped.saturating_sub(1);
            self.verified += stopped;
            return BurstResult::Halted(stopped);
        }
        self.verified += stepped;
        BurstResult::Agree
    }

    /// Compares all lanes against lane 0: the error-state pre-check
    /// first, then the configured comparators over each lane's
    /// [`Observation`] — a reference-only lens once, over lane 0 alone.
    /// `None` means agreement.
    fn compare(&mut self) -> Option<DivergenceKind> {
        let (first, rest) = self.lanes.split_first().expect("a lane");
        let first_events = first.events.borrow();
        let reference = first.observe(&first_events);

        // Error states are not an optional lens: comparing the values of
        // a crashed lane is meaningless, so this check always runs first.
        for lane in rest {
            let events = lane.events.borrow();
            if let Some(kind) = stop_state(&reference, &lane.observe(&events)) {
                return Some(kind);
            }
        }
        for (comparator, calls) in self
            .comparators
            .iter_mut()
            .zip(self.compare_calls.iter_mut())
        {
            if comparator.reference_only() {
                *calls += 1;
                if let Some(kind) = comparator.compare(&reference, &reference) {
                    return Some(kind);
                }
                continue;
            }
            for lane in rest {
                let events = lane.events.borrow();
                *calls += 1;
                if let Some(kind) = comparator.compare(&reference, &lane.observe(&events)) {
                    return Some(kind);
                }
            }
        }
        None
    }

    /// Commits an agreeing comparison: renders the agreed span into the
    /// retained text (when retaining), trims each lane's committed events
    /// down to a report tail, and refreshes the per-lane rewind points
    /// ([`Engine::snapshot`] at coarse strides).
    fn commit(&mut self) {
        if self.options.retain_output {
            let lane = &self.lanes[0];
            let events = lane.events.borrow();
            let span = &events[lane.committed..];
            rtl_core::trace::render(span, |id| self.design.name(id), &mut self.agreed)
                .expect("writing to a Vec cannot fail");
        }
        // Rewind only ever happens when a burst covered more than one
        // cycle, so at stride 1 the snapshots would be pure overhead (the
        // whole memory image per lane per cycle).
        let rewindable = self.options.compare_every > 1;
        for lane in &mut self.lanes {
            if rewindable {
                lane.snapshot();
            }
            let mut events = lane.events.borrow_mut();
            lane.committed = events.len();
            // Keep a tail for divergence-report trace windows; drop the
            // rest so long runs stay O(interval), not O(cycles).
            if lane.committed > lane.trim_at {
                let start = tail_start(&events, TRACE_TAIL);
                events.drain(..start);
                lane.committed -= start;
                lane.trim_at = TRIM_AT.max(2 * lane.committed);
            }
        }
    }

    /// Rewinds every lane to the last agreeing snapshot: engine state,
    /// statistics included, through [`Engine::restore`], stimulus
    /// re-supplied from the recorded offset, and uncommitted trace events
    /// and the reads after the snapshot dropped.
    fn rewind(&mut self) {
        self.rewinds += 1;
        let read = self.lanes.iter().map(|l| l.check_consumed).max();
        self.reads.truncate(read.unwrap_or(0));
        for lane in &mut self.lanes {
            let check = lane.check.as_ref().unwrap_or(&lane.initial);
            lane.session.engine_mut().restore(check);
            let stimulus = MeteredInput::from_offset(
                &self.stimulus,
                lane.check_consumed,
                Rc::clone(&lane.consumed),
            );
            lane.session.set_stimulus(stimulus);
            lane.events.borrow_mut().truncate(lane.committed);
            lane.error = None;
        }
    }

    /// The report of a divergence `kind`, the verdict of the comparison
    /// that just failed.
    fn build_report(&self, kind: DivergenceKind) -> DivergenceReport {
        let retain = self.options.retain_output;
        let lanes = self
            .lanes
            .iter()
            .map(|lane| {
                let events = lane.events.borrow();
                let text = lane.report_text(retain);
                LaneReport {
                    stats: lane.session.engine().stats().cloned(),
                    ..LaneReport::from_observation(&lane.name, &kind, &lane.observe(&events), &text)
                }
            })
            .collect();
        DivergenceReport {
            scenario: String::new(),
            cycle: Word::try_from(self.verified).unwrap_or(Word::MAX),
            kind,
            lanes,
        }
    }

    /// A stable fingerprint over the harness identity: design shape, lane
    /// names and order, stimulus script, the trace flag, and the
    /// comparator set (by name, custom lenses included). A lockstep
    /// checkpoint refuses to resume into a differently-assembled harness
    /// — in particular, cycles verified under a weak lens must not be
    /// re-reported as verified under a stronger one.
    fn harness_fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.write_str(LOCKSTEP_MAGIC);
        fp.write_u64(design_fingerprint(self.design));
        fp.write_u64(self.lanes.len() as u64);
        for lane in &self.lanes {
            fp.write_str(&lane.name);
        }
        fp.write_u64(self.stimulus.len() as u64);
        for &word in &self.stimulus {
            fp.write_u64(word as u64);
        }
        fp.write(&[u8::from(self.options.trace)]);
        fp.write_u64(self.comparators.len() as u64);
        for comparator in &self.comparators {
            fp.write_str(comparator.name());
        }
        fp.finish()
    }

    /// Serializes the whole harness position — verified cycle count and,
    /// per lane, the stimulus offset and the lane's [`Session::checkpoint`]
    /// document, which holds the run's statistics so far — so one long
    /// case can stop and restart mid-run. Call between
    /// [`run`](Lockstep::run) calls (the lanes are at an agreed point
    /// there).
    ///
    /// # Errors
    ///
    /// I/O failure of the writer.
    pub fn checkpoint(&self, out: &mut dyn Write) -> io::Result<()> {
        writeln!(out, "{LOCKSTEP_MAGIC}")?;
        writeln!(out, "fingerprint {:016x}", self.harness_fingerprint())?;
        writeln!(out, "verified {}", self.verified)?;
        for lane in &self.lanes {
            writeln!(out, "lane {} consumed {}", lane.name, lane.consumed.get())?;
            lane.session.checkpoint(out)?;
        }
        Ok(())
    }

    /// Folds every lane's execution-profile counts so far into the
    /// profile hook ([`Engine::flush_profile`]), so a snapshot of the
    /// hook taken with a checkpoint covers the run up to it.
    pub fn flush_profiles(&mut self) {
        for lane in &mut self.lanes {
            lane.session.engine_mut().flush_profile();
        }
    }

    /// Restores a harness position previously written by
    /// [`checkpoint`](Lockstep::checkpoint) over the *same* design, lane
    /// list and stimulus (validated by fingerprint). Call after adding
    /// all lanes and before [`run`](Lockstep::run); the lanes' trace
    /// buffers restart empty, so [`agreed_output`](Lockstep::agreed_output)
    /// only covers the resumed suffix. Lane statistics come back with the
    /// engine states, so a resumed run reports what an uninterrupted one
    /// does.
    ///
    /// # Errors
    ///
    /// I/O failure, a malformed document, a fingerprint/lane mismatch, a
    /// cycle count past [`rtl_core::MAX_CHECKPOINT_CYCLE`], or an
    /// `asim2-lockstep v1` or `v2` document, written by an older harness
    /// (all as [`io::Error`]).
    pub fn resume(&mut self, input: &mut dyn BufRead) -> io::Result<()> {
        let bad = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
        fn next(input: &mut dyn BufRead, what: &str) -> io::Result<String> {
            rtl_core::session::read_doc_line(input, what)
        }

        let magic = next(input, "magic")?;
        if magic == "asim2-lockstep v1" || magic == "asim2-lockstep v2" {
            return Err(bad(format!(
                "an {magic} checkpoint was written by an older harness and cannot be \
                 resumed; run the case again from its start"
            )));
        }
        if magic != LOCKSTEP_MAGIC {
            return Err(bad("not an asim2-lockstep v3 checkpoint".into()));
        }
        let fp = next(input, "fingerprint")?
            .strip_prefix("fingerprint ")
            .and_then(|h| u64::from_str_radix(h.trim(), 16).ok())
            .ok_or_else(|| bad("bad fingerprint line".into()))?;
        if fp != self.harness_fingerprint() {
            return Err(bad(
                "lockstep checkpoint was written by a different harness \
                 (design, lanes, stimulus or comparators differ)"
                    .into(),
            ));
        }
        let verified: u64 = next(input, "verified")?
            .strip_prefix("verified ")
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| bad("bad verified line".into()))?;
        rtl_core::session::check_cycle_count("verified", verified.into())?;

        // The document does not say when the words read so far were
        // read: they count as read at cycle 0.
        let mut read = 0;
        for lane in &mut self.lanes {
            let header = next(input, "lane header")?;
            let rest = header
                .strip_prefix("lane ")
                .ok_or_else(|| bad(format!("expected a lane header, got {header:?}")))?;
            let (name, consumed) = rest
                .rsplit_once(" consumed ")
                .ok_or_else(|| bad(format!("bad lane header {header:?}")))?;
            if name != lane.name {
                return Err(bad(format!(
                    "lane order mismatch: checkpoint has {name:?}, harness has {:?}",
                    lane.name
                )));
            }
            let consumed: usize = consumed
                .trim()
                .parse()
                .map_err(|_| bad(format!("bad consumed count in {header:?}")))?;
            if consumed > self.stimulus.len() {
                return Err(bad(format!(
                    "lane {name:?} consumed {consumed} stimulus words, only {} supplied",
                    self.stimulus.len()
                )));
            }
            // Session::resume consumes exactly its own document and
            // leaves the reader at the next lane header.
            lane.session.resume(input)?;
            let stimulus =
                MeteredInput::from_offset(&self.stimulus, consumed, Rc::clone(&lane.consumed));
            lane.session.set_stimulus(stimulus);
            lane.events.borrow_mut().clear();
            read = read.max(consumed);
            lane.committed = 0;
            lane.trim_at = TRIM_AT;
            lane.error = None;
            lane.snapshot();
        }
        self.reads.clear();
        self.reads.resize(read, 0);
        self.verified = verified;
        self.agreed.clear();
        self.moved = true;
        Ok(())
    }
}

const LOCKSTEP_MAGIC: &str = "asim2-lockstep v3";

/// The comparator set [`CosimOptions::compare`] names (empty means
/// [`CompareMode::All`]), freshly built.
fn configured(options: &CosimOptions) -> Vec<Box<dyn Comparator>> {
    let modes: &[CompareMode] = if options.compare.is_empty() {
        &[CompareMode::All]
    } else {
        &options.compare
    };
    modes.iter().map(|m| m.build()).collect()
}

enum BurstResult {
    /// All cycles ran and compared equal.
    Agree,
    /// Lanes agree, including an identical runtime error; carries the
    /// number of *completed* cycles in this burst.
    Halted(u64),
    /// Comparison failed; carries the cycles stepped in this burst and
    /// the comparison's verdict.
    Diverged(u64, DivergenceKind),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::registry;
    use rtl_core::{EngineLane, EngineOptions, TraceBuf};
    use rtl_obs::{Event, FlightRing};
    use std::sync::Arc;

    fn design(src: &str) -> Design {
        Design::from_source(src).unwrap()
    }

    /// Adds default-registry lanes by name, built with the harness's
    /// trace flag.
    fn add_lanes(ls: &mut Lockstep<'_>, names: &[&str]) {
        let options = EngineOptions {
            trace: ls.options.trace,
            ..EngineOptions::default()
        };
        for name in names {
            let Ok(EngineLane::Stepped(engine)) = registry().build(name, ls.design, &options)
            else {
                panic!("{name} is a stepped registry lane");
            };
            ls.add_lane(name, engine);
        }
    }

    const COUNTER: &str = "# c\ncount* next .\nM count 0 next 1 1\nA next 4 count 1 .";

    #[test]
    fn engines_agree_on_the_counter() {
        let d = design(COUNTER);
        let mut ls = Lockstep::new(&d, CosimOptions::default());
        add_lanes(&mut ls, &["interp", "vm"]);
        match ls.run(64) {
            CosimOutcome::Agreement {
                cycles: 64,
                stop: StopReason::CycleLimit,
                stats,
            } => {
                // Both tiers keep statistics; they count identically.
                assert_eq!(stats.len(), 2);
                assert!(stats.iter().all(|s| s.stats.cycles == 64), "{stats:?}");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(ls.verified_cycles(), 64);
    }

    #[test]
    fn all_four_tiers_agree_with_coarse_comparison() {
        let d = design(COUNTER);
        let mut ls = Lockstep::new(
            &d,
            CosimOptions {
                compare_every: 16,
                ..CosimOptions::default()
            },
        );
        add_lanes(&mut ls, &["interp", "interp-faithful", "vm", "vm-noopt"]);
        assert!(ls.run(100).agreed());
    }

    #[test]
    fn unanimous_runtime_errors_are_agreement() {
        // Selector goes out of range at cycle 2 in every engine.
        let d = design("# bad\nc s n .\nM c 0 n 1 1\nA n 4 c 1\nS s c 1 2 .");
        let mut ls = Lockstep::new(&d, CosimOptions::default());
        add_lanes(&mut ls, &["interp", "vm"]);
        match ls.run(50) {
            CosimOutcome::Agreement {
                cycles,
                stop: StopReason::Halt(halt),
                ..
            } => {
                assert_eq!(cycles, 2);
                assert_eq!(halt.label(), "selector-out-of-range");
                assert!(halt.to_string().contains("selector"), "{halt}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn scripted_input_is_replayed_per_lane() {
        let d = design("# io\ni* acc n .\nM i 1 0 2 1\nM acc 0 n 1 1\nA n 4 acc i .");
        let mut ls = Lockstep::new(&d, CosimOptions::default());
        ls.stimulus((1..=8).collect::<Vec<Word>>());
        add_lanes(&mut ls, &["interp", "vm"]);
        assert!(ls.run(8).agreed());
    }

    #[test]
    fn exhausted_input_halts_unanimously() {
        let d = design("# io\ni .\nM i 1 0 2 1 .");
        let mut ls = Lockstep::new(&d, CosimOptions::default());
        ls.stimulus(vec![5, 6]);
        add_lanes(&mut ls, &["interp", "vm"]);
        match ls.run(10) {
            CosimOutcome::Agreement {
                cycles: 2,
                stop: StopReason::Halt(halt),
                ..
            } => {
                assert_eq!(halt, HaltKind::InputExhausted { cycle: 2 });
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn coarse_stride_rewinds_scripted_input_too() {
        // An input-consuming design at a coarse stride: the rewind path
        // must re-supply the stimulus from the checkpoint offset, or the
        // replay runs dry / reads the wrong words.
        let d = design("# io\ni* acc n .\nM i 1 0 2 1\nM acc 0 n 1 1\nA n 4 acc i .");
        let mut ls = Lockstep::new(
            &d,
            CosimOptions {
                compare_every: 16,
                ..CosimOptions::default()
            },
        );
        ls.stimulus((1..=64).collect::<Vec<Word>>());
        add_lanes(&mut ls, &["interp", "vm"]);
        assert!(ls.run(48).agreed());
        assert_eq!(ls.verified_cycles(), 48);
    }

    #[test]
    fn checkpoint_resume_round_trips_mid_run() {
        let d = design(COUNTER);
        let drive = |stop_at: u64| -> (Vec<u8>, CosimOutcome) {
            let mut ls = Lockstep::new(
                &d,
                CosimOptions {
                    retain_output: true,
                    ..CosimOptions::default()
                },
            );
            add_lanes(&mut ls, &["interp", "vm"]);
            assert!(ls.run(stop_at).agreed());
            let mut doc = Vec::new();
            ls.checkpoint(&mut doc).unwrap();
            let outcome = ls.run(64 - stop_at);
            (doc, outcome)
        };
        let (doc, finished) = drive(24);

        // A fresh harness resumes from the document and finishes to the
        // identical outcome.
        let mut ls = Lockstep::new(
            &d,
            CosimOptions {
                retain_output: true,
                ..CosimOptions::default()
            },
        );
        add_lanes(&mut ls, &["interp", "vm"]);
        ls.resume(&mut &doc[..]).unwrap();
        assert_eq!(ls.verified_cycles(), 24);
        let resumed = ls.run(64 - 24);
        match (&finished, &resumed) {
            (
                CosimOutcome::Agreement {
                    cycles: a,
                    stop: sa,
                    ..
                },
                CosimOutcome::Agreement {
                    cycles: b,
                    stop: sb,
                    ..
                },
            ) => {
                assert_eq!(a, b);
                assert_eq!(sa, sb);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(ls.verified_cycles(), 64);
    }

    #[test]
    fn a_resumed_run_keeps_the_lane_stats_from_before_its_resume_point() {
        // Checkpoint after 24 of 64 cycles, resume on a fresh harness:
        // the lanes report 64 cycles, as an uninterrupted run does, and a
        // divergence after the resume point (at a coarse stride, so the
        // replay rewinds to the snapshot taken at resume) reports the
        // uninterrupted run's lane statistics too.
        let d = design(COUNTER);
        let harness = |compare_every: u64| {
            let mut ls = Lockstep::new(
                &d,
                CosimOptions {
                    compare_every,
                    ..CosimOptions::default()
                },
            );
            add_lanes(&mut ls, &["interp"]);
            let Ok(EngineLane::Stepped(inner)) =
                registry().build("vm", &d, &EngineOptions::default())
            else {
                panic!("vm is a stepped registry lane");
            };
            ls.add_lane("vm", Box::new(GarbageAfter { inner, at: 50 }));
            ls
        };
        for (compare_every, horizon) in [(1, 40), (1, 64), (16, 64)] {
            let uninterrupted = harness(compare_every).run(horizon);
            let mut first = harness(compare_every);
            assert!(first.run(24).agreed());
            let mut doc = Vec::new();
            first.checkpoint(&mut doc).unwrap();
            let mut resumed = harness(compare_every);
            resumed.resume(&mut &doc[..]).unwrap();
            let outcome = resumed.run(horizon - 24);
            let cycles: Vec<u64> = outcome
                .lane_stats()
                .iter()
                .map(|s| s.stats.cycles)
                .collect();
            let want = horizon.min(51);
            assert_eq!(cycles, [want, want], "stride {compare_every}");
            assert_eq!(
                outcome.lane_stats(),
                uninterrupted.lane_stats(),
                "stride {compare_every}"
            );
            if let CosimOutcome::Divergence(_) = &uninterrupted {
                assert_eq!(outcome, uninterrupted, "stride {compare_every}");
            }
        }
    }

    #[test]
    fn a_version_1_checkpoint_is_refused_by_name() {
        let d = design(COUNTER);
        let mut ls = Lockstep::new(&d, CosimOptions::default());
        add_lanes(&mut ls, &["interp", "vm"]);
        let mut doc = Vec::new();
        ls.checkpoint(&mut doc).unwrap();
        let doc = String::from_utf8(doc).unwrap();
        for old in ["asim2-lockstep v1", "asim2-lockstep v2"] {
            let doc = doc.replacen(LOCKSTEP_MAGIC, old, 1);
            let err = ls.resume(&mut doc.as_bytes()).unwrap_err();
            assert!(err.to_string().contains(old), "{err}");
            assert!(err.to_string().contains("older harness"), "{err}");
        }
    }

    #[test]
    fn resume_refuses_a_different_harness() {
        let d = design(COUNTER);
        let mut ls = Lockstep::new(&d, CosimOptions::default());
        add_lanes(&mut ls, &["interp", "vm"]);
        let mut doc = Vec::new();
        ls.checkpoint(&mut doc).unwrap();

        // Different lane list: refused.
        let mut other = Lockstep::new(&d, CosimOptions::default());
        add_lanes(&mut other, &["interp", "vm-noopt"]);
        let err = other.resume(&mut &doc[..]).unwrap_err();
        assert!(err.to_string().contains("different harness"), "{err}");

        // Garbage: refused.
        let mut same = Lockstep::new(&d, CosimOptions::default());
        add_lanes(&mut same, &["interp", "vm"]);
        assert!(same.resume(&mut &b"not a checkpoint"[..]).is_err());
    }

    #[test]
    fn comparator_sets_are_configurable() {
        // A custom comparator that always flags a cycle mismatch proves
        // the set is open; a [vcd]-only set proves selection works.
        struct AlwaysDiverges;
        impl Comparator for AlwaysDiverges {
            fn name(&self) -> &str {
                "always"
            }
            fn compare(
                &mut self,
                _reference: &Observation<'_>,
                _candidate: &Observation<'_>,
            ) -> Option<DivergenceKind> {
                Some(DivergenceKind::CycleCounter)
            }
        }
        let d = design(COUNTER);
        let mut ls = Lockstep::new(
            &d,
            CosimOptions {
                compare: vec![CompareMode::Vcd],
                ..CosimOptions::default()
            },
        );
        add_lanes(&mut ls, &["interp", "vm"]);
        assert!(ls.run(16).agreed(), "healthy lanes agree under vcd");

        let mut ls = Lockstep::new(&d, CosimOptions::default());
        add_lanes(&mut ls, &["interp", "vm"]);
        ls.add_comparator(Box::new(AlwaysDiverges));
        let CosimOutcome::Divergence(report) = ls.run(16) else {
            panic!("custom comparator must fire");
        };
        assert_eq!(report.kind, DivergenceKind::CycleCounter);
        assert_eq!(report.cycle, 0, "fires at the first comparison");
    }

    #[test]
    fn the_harness_counts_lane_cycles_once_per_run() {
        // Lane sessions record nothing; one `session/cycles` delta per
        // run carries every lane's cycles, so a flight ring is not
        // flooded with one event per lane per cycle.
        let ring = Arc::new(FlightRing::new(FlightRing::DEFAULT_CAP));
        let d = design(COUNTER);
        let mut ls = Lockstep::new(
            &d,
            CosimOptions {
                recorder: Recorder::disabled().with_flight(Arc::clone(&ring)),
                ..CosimOptions::default()
            },
        );
        add_lanes(&mut ls, &["interp", "vm"]);
        assert!(ls.run(300).agreed());
        let sessions: Vec<(String, u64)> = ring
            .snapshot()
            .into_iter()
            .filter_map(|event| match event {
                Event::Counter { src, key, n } if src == "session" => Some((key, n)),
                _ => None,
            })
            .collect();
        assert_eq!(sessions, [("cycles".to_string(), 600)]);
    }

    #[test]
    fn trimming_keeps_lane_buffers_bounded() {
        // A counter line is 3 events rendering at least 15 bytes, so a
        // 4096-byte report tail is about 820 events: a lane trims to
        // that and trims again once its buffer has doubled.
        let d = design(COUNTER);
        let mut ls = Lockstep::new(&d, CosimOptions::default());
        add_lanes(&mut ls, &["interp", "vm"]);
        let mut peak = 0;
        for _ in 0..100_000 {
            assert!(ls.run(1).agreed());
            for lane in &ls.lanes {
                peak = peak.max(lane.events.borrow().len());
            }
        }
        assert_eq!(ls.verified_cycles(), 100_000);
        assert!(peak <= 2 * TRIM_AT, "peak {peak} events");
    }

    /// An engine that appends a garbage line to its trace from cycle `at`
    /// on — the trace fault of the harness's divergence tests.
    struct GarbageAfter<'d> {
        inner: Box<dyn Engine + 'd>,
        at: Word,
    }

    impl Engine for GarbageAfter<'_> {
        fn design(&self) -> &Design {
            self.inner.design()
        }

        fn state(&self) -> &SimState {
            self.inner.state()
        }

        fn restore(&mut self, snapshot: &SimState) {
            self.inner.restore(snapshot);
        }

        fn stats(&self) -> Option<&rtl_core::SimStats> {
            self.inner.stats()
        }

        fn step(
            &mut self,
            trace: &mut TraceBuf<'_>,
            input: &mut dyn InputSource,
        ) -> Result<(), SimError> {
            let cycle = self.inner.state().cycle();
            self.inner.step(trace, input)?;
            if cycle >= self.at {
                trace.push(TraceEvent::raw(&b"garbage\n"[..]));
            }
            Ok(())
        }
    }

    #[test]
    fn late_divergence_reports_do_not_depend_on_retention() {
        // Trimmed buffers and the full retained text give the same report
        // windows and the same agreed-output tail.
        let d = design(COUNTER);
        let run = |retain_output: bool| {
            let mut ls = Lockstep::new(
                &d,
                CosimOptions {
                    retain_output,
                    ..CosimOptions::default()
                },
            );
            add_lanes(&mut ls, &["interp"]);
            let Ok(EngineLane::Stepped(inner)) =
                registry().build("interp", &d, &EngineOptions::default())
            else {
                panic!("interp is a stepped registry lane");
            };
            ls.add_lane("garbage", Box::new(GarbageAfter { inner, at: 20_000 }));
            let CosimOutcome::Divergence(report) = ls.run(30_000) else {
                panic!("the garbage lane must diverge");
            };
            (*report, ls.agreed_output())
        };
        let (retained, full_text) = run(true);
        let (trimmed, tail_text) = run(false);
        assert_eq!(retained, trimmed);
        assert_eq!(tail(&full_text), &tail_text[..]);
        assert_eq!(tail_text.len(), TRACE_TAIL);

        assert_eq!(trimmed.cycle, 20_000);
        assert_eq!(trimmed.kind, DivergenceKind::Trace);
        let lines = |from: Word| -> Vec<String> {
            (from..=20_000)
                .map(|c| format!("Cycle {c:>3} count= {c}"))
                .collect()
        };
        assert_eq!(trimmed.lanes[0].trace_window, lines(19_993));
        let mut garbage = lines(19_994);
        garbage.push("garbage".into());
        assert_eq!(trimmed.lanes[1].trace_window, garbage);
    }
}
