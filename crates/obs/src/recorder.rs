//! The [`Recorder`] handle instrumented code records through.
//!
//! A `Recorder` is either disabled (the default — every call is one
//! branch and a return) or backed by a shared sink that event lines are
//! appended to. Clones share the sink, so one handle can be fanned out
//! across worker threads and lanes.
//!
//! Counter increments are *coalesced*: they accumulate in an in-memory
//! map and are written out as delta events on [`Recorder::flush`] (and on
//! drop of the last handle). Folding sums deltas, so flushing more than
//! once — e.g. a run that is killed and resumed — still folds to the
//! same deterministic totals. Gauges, marks and spans are written
//! immediately in arrival order, which is fine because they are
//! wall-clock class and never compared bit-for-bit.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::event::{Event, FORMAT};

/// A cheap, clone-able telemetry handle. Disabled (no-op) by default.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
    /// Flight-recorder tap: when set, every counter increment is also
    /// pushed (uncoalesced, in call order) into the bounded ring.
    flight: Option<Arc<FlightRing>>,
}

/// A bounded ring buffer of the most recent deterministic counter
/// events — the divergence flight recorder's capture tap.
///
/// The ring holds [`Event`] values, not rendered lines, so a snapshot
/// can be re-rendered or re-tagged downstream. Pushes past the capacity
/// evict the oldest event. Only deterministic counters are captured
/// (wall-clock gauges/marks/spans would make the dump differ between
/// runs), so a snapshot of the ring is a pure function of the
/// instrumented code path — byte-identical across worker counts and
/// kill+resume for the same case.
pub struct FlightRing {
    cap: usize,
    events: Mutex<VecDeque<Event>>,
}

impl FlightRing {
    /// Default ring capacity: the last 256 events before the trigger.
    pub const DEFAULT_CAP: usize = 256;

    /// A ring holding at most `cap` events (at least 1).
    pub fn new(cap: usize) -> FlightRing {
        FlightRing {
            cap: cap.max(1),
            events: Mutex::new(VecDeque::new()),
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&self, event: Event) {
        if let Ok(mut events) = self.events.lock() {
            if events.len() == self.cap {
                events.pop_front();
            }
            events.push_back(event);
        }
    }

    /// Replaces the ring's contents with `events` (the newest `cap` of
    /// them): a run resumed from a checkpoint carries on from the ring
    /// the checkpoint saved.
    pub fn restore(&self, events: Vec<Event>) {
        if let Ok(mut ring) = self.events.lock() {
            let skip = events.len().saturating_sub(self.cap);
            *ring = events.into_iter().skip(skip).collect();
        }
    }

    /// The ring's current contents, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        match self.events.lock() {
            Ok(events) => events.iter().cloned().collect(),
            Err(_) => Vec::new(),
        }
    }
}

impl std::fmt::Debug for FlightRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRing")
            .field("cap", &self.cap)
            .finish()
    }
}

struct Inner {
    sink: Mutex<Box<dyn Write + Send>>,
    counters: Mutex<BTreeMap<(String, String), u64>>,
    next_span: AtomicU64,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// A `Recorder` is a run-time tap, not part of any configuration's
/// identity: two configurations that differ only in where (or whether)
/// they record are the same configuration. This lets options structs
/// that derive `Eq` carry a recorder without it entering comparisons or
/// fingerprints.
impl PartialEq for Recorder {
    fn eq(&self, _other: &Recorder) -> bool {
        true
    }
}

impl Eq for Recorder {}

impl Recorder {
    /// A disabled recorder: every call is a no-op.
    pub fn disabled() -> Recorder {
        Recorder::default()
    }

    /// Records to `path` as an `asim2-events v1` JSONL stream (the
    /// `meta` header line is written immediately).
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be created or the header cannot be
    /// written. After construction, recording is best-effort and I/O
    /// errors are swallowed.
    pub fn to_file(path: &Path) -> io::Result<Recorder> {
        let file = std::fs::File::create(path)?;
        Recorder::to_writer(Box::new(BufWriter::new(file)))
    }

    /// Records to an arbitrary sink. Writes the `meta` header line.
    ///
    /// # Errors
    ///
    /// Fails if the header line cannot be written.
    pub fn to_writer(mut sink: Box<dyn Write + Send>) -> io::Result<Recorder> {
        let header = Event::Meta {
            format: FORMAT.into(),
        };
        writeln!(sink, "{}", header.render())?;
        Ok(Recorder {
            inner: Some(Arc::new(Inner {
                sink: Mutex::new(sink),
                counters: Mutex::new(BTreeMap::new()),
                next_span: AtomicU64::new(1),
            })),
            flight: None,
        })
    }

    /// An enabled recorder writing to an in-memory buffer, plus a handle
    /// to read the buffer back — the testing workhorse.
    pub fn memory() -> (Recorder, MemoryLog) {
        let log = MemoryLog(Arc::new(Mutex::new(Vec::new())));
        let recorder =
            Recorder::to_writer(Box::new(log.clone())).expect("in-memory writes cannot fail");
        (recorder, log)
    }

    /// Whether this handle records anywhere — to a sink, a flight ring,
    /// or both. Instrumented code gates its emission on this.
    pub fn enabled(&self) -> bool {
        self.inner.is_some() || self.flight.is_some()
    }

    /// A clone of this handle with a flight-recorder ring attached:
    /// counter increments additionally land in `ring`, uncoalesced and
    /// in call order. The sink (if any) is shared with `self`.
    #[must_use]
    pub fn with_flight(&self, ring: Arc<FlightRing>) -> Recorder {
        Recorder {
            inner: self.inner.clone(),
            flight: Some(ring),
        }
    }

    /// Adds `n` to the deterministic counter `src/key`. Increments are
    /// coalesced until [`flush`](Recorder::flush). `n == 0` is a no-op.
    pub fn count(&self, src: &str, key: &str, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(ring) = &self.flight {
            ring.push(Event::Counter {
                src: src.into(),
                key: key.into(),
                n,
            });
        }
        let Some(inner) = &self.inner else { return };
        if let Ok(mut counters) = inner.counters.lock() {
            *counters.entry((src.into(), key.into())).or_insert(0) += n;
        }
    }

    /// Records the wall-clock gauge `src/key` at `value` (last wins).
    pub fn gauge(&self, src: &str, key: &str, value: u64) {
        let Some(inner) = &self.inner else { return };
        inner.write_line(&Event::Gauge {
            src: src.into(),
            key: key.into(),
            value,
        });
    }

    /// Records a one-shot wall-clock mark, optionally with free text.
    pub fn mark(&self, src: &str, key: &str, detail: Option<&str>) {
        let Some(inner) = &self.inner else { return };
        inner.write_line(&Event::Mark {
            src: src.into(),
            key: key.into(),
            detail: detail.map(str::to_owned),
        });
    }

    /// Opens a wall-clock span; the returned guard writes the exit event
    /// (with measured duration) when dropped.
    pub fn span(&self, src: &str, key: &str) -> Span {
        let Some(inner) = &self.inner else {
            return Span { live: None };
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        inner.write_line(&Event::SpanEnter {
            src: src.into(),
            key: key.into(),
            id,
        });
        Span {
            live: Some(LiveSpan {
                inner: Arc::clone(inner),
                src: src.into(),
                key: key.into(),
                id,
                start: Instant::now(),
            }),
        }
    }

    /// Re-emits an already-built event verbatim, bypassing counter
    /// coalescing — the seam a relay (e.g. the fleet controller folding
    /// remote workers' logs) uses to forward wall-clock events it did
    /// not originate. `meta` headers are skipped: the sink wrote its own
    /// when it opened.
    pub fn forward(&self, event: &Event) {
        let Some(inner) = &self.inner else { return };
        if matches!(event, Event::Meta { .. }) {
            return;
        }
        inner.write_line(event);
    }

    /// Allocates a span id from this recorder's sequence without opening
    /// a span — for relays that rewrite forwarded span events so remote
    /// ids cannot collide with local ones. Returns 0 when disabled.
    pub fn span_id(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.next_span.fetch_add(1, Ordering::Relaxed),
            None => 0,
        }
    }

    /// Writes coalesced counter deltas to the sink and flushes it.
    ///
    /// Safe to call more than once: deltas written by successive flushes
    /// sum to the same totals when folded.
    pub fn flush(&self) {
        let Some(inner) = &self.inner else { return };
        inner.flush();
    }
}

impl Inner {
    /// Best-effort: an event that cannot be written is dropped.
    fn write_line(&self, event: &Event) {
        if let Ok(mut sink) = self.sink.lock() {
            let _ = writeln!(sink, "{}", event.render());
        }
    }

    fn flush(&self) {
        let drained: Vec<((String, String), u64)> = match self.counters.lock() {
            Ok(mut counters) => std::mem::take(&mut *counters).into_iter().collect(),
            Err(_) => return,
        };
        for ((src, key), n) in drained {
            self.write_line(&Event::Counter { src, key, n });
        }
        if let Ok(mut sink) = self.sink.lock() {
            let _ = sink.flush();
        }
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Guard for an open span; writes the exit event on drop.
#[derive(Debug)]
pub struct Span {
    live: Option<LiveSpan>,
}

struct LiveSpan {
    inner: Arc<Inner>,
    src: String,
    key: String,
    id: u64,
    start: Instant,
}

impl std::fmt::Debug for LiveSpan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveSpan")
            .field("src", &self.src)
            .field("key", &self.key)
            .field("id", &self.id)
            .finish()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        let micros = u64::try_from(live.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        live.inner.write_line(&Event::SpanExit {
            src: live.src.clone(),
            key: live.key.clone(),
            id: live.id,
            micros,
        });
    }
}

/// Read-back handle for [`Recorder::memory`] logs.
#[derive(Clone)]
pub struct MemoryLog(Arc<Mutex<Vec<u8>>>);

impl MemoryLog {
    /// The log contents so far, as UTF-8 text.
    pub fn text(&self) -> String {
        let buf = self.0.lock().expect("memory log poisoned");
        String::from_utf8_lossy(&buf).into_owned()
    }
}

impl std::fmt::Debug for MemoryLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryLog").finish()
    }
}

impl Write for MemoryLog {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .expect("memory log poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn parse_lines(text: &str) -> Vec<Event> {
        text.lines().map(|l| Event::parse(l).unwrap()).collect()
    }

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let recorder = Recorder::disabled();
        assert!(!recorder.enabled());
        recorder.count("s", "k", 1);
        recorder.gauge("s", "k", 1);
        recorder.mark("s", "k", None);
        drop(recorder.span("s", "k"));
        recorder.flush();
    }

    #[test]
    fn header_is_written_immediately() {
        let (_recorder, log) = Recorder::memory();
        assert_eq!(
            parse_lines(&log.text()),
            vec![Event::Meta {
                format: FORMAT.into()
            }]
        );
    }

    #[test]
    fn counters_coalesce_until_flush() {
        let (recorder, log) = Recorder::memory();
        recorder.count("campaign", "cases_executed", 1);
        recorder.count("campaign", "cases_executed", 2);
        recorder.count("campaign", "cases_executed", 0); // no-op
        assert_eq!(parse_lines(&log.text()).len(), 1, "only the header yet");
        recorder.flush();
        let events = parse_lines(&log.text());
        assert!(events.contains(&Event::Counter {
            src: "campaign".into(),
            key: "cases_executed".into(),
            n: 3
        }));
    }

    #[test]
    fn multiple_flushes_emit_deltas() {
        let (recorder, log) = Recorder::memory();
        recorder.count("s", "k", 1);
        recorder.flush();
        recorder.count("s", "k", 2);
        recorder.flush();
        recorder.flush(); // empty flush writes nothing
        let total: u64 = parse_lines(&log.text())
            .iter()
            .filter_map(|e| match e {
                Event::Counter { n, .. } => Some(*n),
                _ => None,
            })
            .sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn spans_pair_enter_and_exit_by_id() {
        let (recorder, log) = Recorder::memory();
        let outer = recorder.span("campaign", "run");
        drop(recorder.span("campaign", "case"));
        drop(outer);
        let events = parse_lines(&log.text());
        let enters: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                Event::SpanEnter { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        let exits: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                Event::SpanExit { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(enters.len(), 2);
        let mut sorted_exits = exits.clone();
        sorted_exits.sort_unstable();
        let mut sorted_enters = enters.clone();
        sorted_enters.sort_unstable();
        assert_eq!(sorted_enters, sorted_exits);
    }

    #[test]
    fn clones_share_one_stream() {
        let (recorder, log) = Recorder::memory();
        let clone = recorder.clone();
        recorder.count("s", "k", 1);
        clone.count("s", "k", 1);
        recorder.flush();
        let events = parse_lines(&log.text());
        assert!(events.contains(&Event::Counter {
            src: "s".into(),
            key: "k".into(),
            n: 2
        }));
    }

    #[test]
    fn drop_flushes_pending_counters() {
        let (recorder, log) = Recorder::memory();
        recorder.count("s", "k", 5);
        drop(recorder);
        let events = parse_lines(&log.text());
        assert!(events.contains(&Event::Counter {
            src: "s".into(),
            key: "k".into(),
            n: 5
        }));
    }

    #[test]
    fn recorders_never_differ_for_eq_purposes() {
        let (enabled, _log) = Recorder::memory();
        assert_eq!(enabled, Recorder::disabled());
    }

    #[test]
    fn flight_ring_captures_counters_uncoalesced_in_order() {
        let ring = Arc::new(FlightRing::new(8));
        let recorder = Recorder::disabled().with_flight(Arc::clone(&ring));
        assert!(recorder.enabled(), "a flight tap alone enables the handle");
        recorder.count("s", "a", 1);
        recorder.count("s", "a", 2);
        recorder.count("s", "b", 3);
        recorder.count("s", "b", 0); // no-op
        let counter = |key: &str, n: u64| Event::Counter {
            src: "s".into(),
            key: key.into(),
            n,
        };
        assert_eq!(
            ring.snapshot(),
            vec![counter("a", 1), counter("a", 2), counter("b", 3)]
        );
        // Wall-clock events never enter the ring.
        recorder.gauge("s", "g", 1);
        recorder.mark("s", "m", None);
        drop(recorder.span("s", "sp"));
        assert_eq!(ring.snapshot().len(), 3);
    }

    #[test]
    fn flight_ring_is_bounded_and_keeps_the_newest() {
        let ring = Arc::new(FlightRing::new(2));
        let recorder = Recorder::disabled().with_flight(Arc::clone(&ring));
        for i in 1..=5u64 {
            recorder.count("s", "k", i);
        }
        let kept: Vec<u64> = ring
            .snapshot()
            .iter()
            .filter_map(|e| match e {
                Event::Counter { n, .. } => Some(*n),
                _ => None,
            })
            .collect();
        assert_eq!(kept, vec![4, 5]);
    }

    #[test]
    fn flight_tap_composes_with_a_sink() {
        let (recorder, log) = Recorder::memory();
        let ring = Arc::new(FlightRing::new(4));
        let tapped = recorder.with_flight(Arc::clone(&ring));
        tapped.count("s", "k", 2);
        tapped.flush();
        assert_eq!(ring.snapshot().len(), 1);
        assert!(parse_lines(&log.text()).contains(&Event::Counter {
            src: "s".into(),
            key: "k".into(),
            n: 2
        }));
    }

    #[test]
    fn forward_writes_verbatim_and_skips_meta() {
        let (recorder, log) = Recorder::memory();
        recorder.forward(&Event::Meta {
            format: "bogus".into(),
        });
        recorder.forward(&Event::Gauge {
            src: "w1/fleet".into(),
            key: "workers".into(),
            value: 2,
        });
        let events = parse_lines(&log.text());
        assert_eq!(events.len(), 2, "header + forwarded gauge: {events:?}");
        assert_eq!(
            events[1],
            Event::Gauge {
                src: "w1/fleet".into(),
                key: "workers".into(),
                value: 2
            }
        );
        // Disabled handles drop forwards and allocate id 0.
        Recorder::disabled().forward(&Event::Mark {
            src: "s".into(),
            key: "k".into(),
            detail: None,
        });
        assert_eq!(Recorder::disabled().span_id(), 0);
        assert_ne!(recorder.span_id(), 0);
    }
}
