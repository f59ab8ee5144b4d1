//! Trace sinks — where a simulation's trace goes.
//!
//! Engines record typed [`TraceEvent`]s (see [`trace`](crate::trace));
//! everything *driving* an engine hands them to a [`TraceSink`]. A sink
//! receives each step's events in emission order and, once per completed
//! cycle, a [`TraceSink::end_cycle`] callback with the post-step state —
//! the hook the VCD sink uses to sample waveforms. Text sinks render the
//! events with [`trace::render`](crate::trace::render); the others never
//! pay for text.
//!
//! Bundled sinks:
//!
//! * [`NullSink`] — discards everything (throughput runs),
//! * [`BufferSink`] — renders into memory (tests, captured runs),
//! * [`WriteSink`] — renders into any [`std::io::Write`] (stdout, files),
//! * [`TeeSink`] — duplicates into two sinks (capture *and* stream),
//! * [`VcdSink`](crate::vcd::VcdSink) — records a waveform per cycle.

use crate::design::Design;
use crate::state::SimState;
use crate::trace::{render, TraceEvent};
use std::io::{self, Write};

/// A destination for simulation trace events, with a per-cycle hook.
pub trait TraceSink {
    /// Receives trace events in emission order: one step's, or the part
    /// of a step before an input read. `design` names the components the
    /// events refer to. The default discards them — right for sinks that
    /// only sample state.
    ///
    /// # Errors
    ///
    /// I/O failure of the underlying destination; the session surfaces it
    /// as [`StopReason::Error`](crate::session::StopReason).
    fn record(&mut self, design: &Design, events: &[TraceEvent]) -> io::Result<()> {
        let _ = (design, events);
        Ok(())
    }

    /// Flushes buffered bytes to the underlying destination.
    ///
    /// # Errors
    ///
    /// I/O failure of the underlying destination.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Called by [`Session`](crate::session::Session) after every completed
    /// cycle with the design and post-step state. Sinks that only care
    /// about the trace ignore it.
    ///
    /// # Errors
    ///
    /// I/O failure of the underlying destination.
    fn end_cycle(&mut self, design: &Design, state: &SimState) -> io::Result<()> {
        let _ = (design, state);
        Ok(())
    }

    /// The rendered bytes captured so far, when this sink (or one it
    /// wraps) buffers them. `None` for pass-through sinks.
    fn captured(&self) -> Option<&[u8]> {
        None
    }
}

/// Discards everything — the right sink for throughput experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {}

/// Renders the trace into memory; [`TraceSink::captured`] returns it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BufferSink {
    bytes: Vec<u8>,
}

impl BufferSink {
    /// An empty capture buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The captured bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the sink, returning the captured bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// The captured bytes as (lossy) text.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.bytes).into_owned()
    }
}

impl TraceSink for BufferSink {
    fn record(&mut self, design: &Design, events: &[TraceEvent]) -> io::Result<()> {
        render(events, |id| design.name(id), &mut self.bytes)
    }

    fn captured(&self) -> Option<&[u8]> {
        Some(&self.bytes)
    }
}

/// Renders the trace into any [`std::io::Write`] (stdout, a file, a pipe).
#[derive(Debug)]
pub struct WriteSink<W: Write>(W);

impl<W: Write> WriteSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        WriteSink(writer)
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.0
    }
}

impl<W: Write> TraceSink for WriteSink<W> {
    fn record(&mut self, design: &Design, events: &[TraceEvent]) -> io::Result<()> {
        render(events, |id| design.name(id), &mut self.0)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

/// Duplicates every event (and cycle hook) into two sinks — capture a run
/// while also streaming it, or record a VCD alongside the text trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TeeSink<A: TraceSink, B: TraceSink> {
    first: A,
    second: B,
}

impl<A: TraceSink, B: TraceSink> TeeSink<A, B> {
    /// Tees into `first` and `second`, in that order.
    pub fn new(first: A, second: B) -> Self {
        TeeSink { first, second }
    }

    /// The first sink.
    pub fn first(&self) -> &A {
        &self.first
    }

    /// The second sink.
    pub fn second(&self) -> &B {
        &self.second
    }

    /// Consumes the tee, returning both sinks.
    pub fn into_parts(self) -> (A, B) {
        (self.first, self.second)
    }
}

impl<A: TraceSink, B: TraceSink> TraceSink for TeeSink<A, B> {
    fn record(&mut self, design: &Design, events: &[TraceEvent]) -> io::Result<()> {
        self.first.record(design, events)?;
        self.second.record(design, events)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.first.flush()?;
        self.second.flush()
    }

    fn end_cycle(&mut self, design: &Design, state: &SimState) -> io::Result<()> {
        self.first.end_cycle(design, state)?;
        self.second.end_cycle(design, state)
    }

    fn captured(&self) -> Option<&[u8]> {
        self.first.captured().or_else(|| self.second.captured())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design() -> Design {
        Design::from_source("# c\ncount* next .\nM count 0 next 1 1\nA next 4 count 1 .").unwrap()
    }

    fn line(design: &Design, cycle: i64) -> Vec<TraceEvent> {
        let count = design.find("count").unwrap();
        vec![
            TraceEvent::Cycle(cycle),
            TraceEvent::Value(count, cycle),
            TraceEvent::EndLine,
        ]
    }

    #[test]
    fn buffer_renders_events() {
        let d = design();
        let mut s = BufferSink::new();
        s.record(&d, &line(&d, 0)).unwrap();
        s.record(&d, &[TraceEvent::raw(&b"x"[..])]).unwrap();
        assert_eq!(s.bytes(), b"Cycle   0 count= 0\nx");
        assert_eq!(s.captured(), Some(s.bytes()));
        assert_eq!(s.text(), "Cycle   0 count= 0\nx");
        assert_eq!(s.into_bytes(), b"Cycle   0 count= 0\nx");
    }

    #[test]
    fn null_discards() {
        let d = design();
        let mut s = NullSink;
        s.record(&d, &line(&d, 0)).unwrap();
        assert_eq!(s.captured(), None);
    }

    #[test]
    fn write_sink_renders_through() {
        let d = design();
        let mut s = WriteSink::new(Vec::new());
        s.record(&d, &line(&d, 12)).unwrap();
        s.flush().unwrap();
        assert_eq!(s.into_inner(), b"Cycle  12 count= 12\n");
    }

    #[test]
    fn tee_duplicates_and_surfaces_capture() {
        let d = design();
        let mut t = TeeSink::new(BufferSink::new(), WriteSink::new(Vec::new()));
        t.record(&d, &[TraceEvent::Output { addr: 1, data: 12 }])
            .unwrap();
        assert_eq!(t.captured(), Some(&b"12\n"[..]));
        let (a, b) = t.into_parts();
        assert_eq!(a.bytes(), b"12\n");
        assert_eq!(b.into_inner(), b"12\n");
    }
}
