//! Trace as values, and the one text format.
//!
//! Every engine — interpreter, VM, generated Rust, generated Pascal — must
//! produce byte-identical output for the same design and inputs; the
//! differential test suite depends on it. In-process engines do not format
//! that text themselves: during [`Engine::step`](crate::Engine::step) they
//! record what they observed as typed [`TraceEvent`]s — a cycle header, a
//! traced [`Word`] by [`CompId`], a memory write or read, an output-device
//! event, an input prompt — into a [`TraceBuf`]. Whoever needs text renders
//! the events with [`render`], the single source of truth for the formats,
//! mirroring the `write` statements the original compiler emitted:
//!
//! * `Cycle ⟨count:3⟩ ⟨name⟩= ⟨value⟩ …` per cycle,
//! * ` Write to ⟨mem⟩ at ⟨addr⟩: ⟨value⟩` when `op & 5 = 5`,
//! * ` Read from ⟨mem⟩ at ⟨addr⟩: ⟨value⟩` when `op & 9 = 8`,
//! * output-device lines per the memory-mapped I/O rules of Appendix A.
//!
//! Text is rendered only where text is the artifact (a terminal, a capture
//! buffer, a report window, a digest). A lockstep harness keeps the values
//! and compares them; see [`TraceBytes`](crate::observe::TraceBytes).

use crate::design::Design;
use crate::resolve::CompId;
use crate::sink::TraceSink;
use crate::word::Word;
use std::io::{self, Write};

/// One thing an engine observed during a step, in emission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// The start of a cycle line: `Cycle ⟨n:3⟩` (width 3, right aligned,
    /// Pascal `cyclecount:3`).
    Cycle(Word),
    /// One traced value: ` ⟨name⟩= ⟨value⟩`.
    Value(CompId, Word),
    /// The end of the cycle line.
    EndLine,
    /// A memory write-trace line: ` Write to ⟨mem⟩ at ⟨addr⟩: ⟨value⟩`.
    MemWrite {
        /// The memory.
        mem: CompId,
        /// The cell address.
        addr: Word,
        /// The value written.
        value: Word,
    },
    /// A memory read-trace line: ` Read from ⟨mem⟩ at ⟨addr⟩: ⟨value⟩`.
    MemRead {
        /// The memory.
        mem: CompId,
        /// The cell address.
        addr: Word,
        /// The value read.
        value: Word,
    },
    /// An output-device event (`soutput`): address 0 prints the value as a
    /// character (its low byte), address 1 as an integer, anything else as
    /// a tagged line.
    Output {
        /// The device address.
        addr: Word,
        /// The value output.
        data: Word,
    },
    /// The prompt `sinput` prints before reading from a non-standard
    /// address: `Input from address ⟨addr⟩: `.
    InputPrompt(Word),
    /// Bytes rendered verbatim — for engines that write arbitrary text.
    Raw(Box<[u8]>),
}

impl TraceEvent {
    /// A [`TraceEvent::Raw`] event.
    pub fn raw(bytes: impl Into<Box<[u8]>>) -> TraceEvent {
        TraceEvent::Raw(bytes.into())
    }

    /// A lower bound on the number of newline bytes this event renders
    /// to (a character output of `\n` renders two; this counts one).
    pub fn min_newlines(&self) -> usize {
        match self {
            TraceEvent::Cycle(_) | TraceEvent::Value(..) | TraceEvent::InputPrompt(_) => 0,
            TraceEvent::EndLine
            | TraceEvent::MemWrite { .. }
            | TraceEvent::MemRead { .. }
            | TraceEvent::Output { .. } => 1,
            TraceEvent::Raw(bytes) => bytes.iter().filter(|&&b| b == b'\n').count(),
        }
    }

    /// A lower bound on the number of bytes this event renders to
    /// (one-byte names and one-digit numbers).
    pub fn min_len(&self) -> usize {
        match self {
            TraceEvent::Cycle(_) => "Cycle   0".len(),
            TraceEvent::Value(..) => " n= 0".len(),
            TraceEvent::EndLine => 1,
            TraceEvent::MemWrite { .. } => " Write to m at 0: 0\n".len(),
            TraceEvent::MemRead { .. } => " Read from m at 0: 0\n".len(),
            TraceEvent::Output { .. } => 2,
            TraceEvent::InputPrompt(_) => "Input from address 0: ".len(),
            TraceEvent::Raw(bytes) => bytes.len(),
        }
    }
}

/// Renders events as text: the one formatter behind every text surface.
/// `name` looks up a component's name (usually `|id| design.name(id)`);
/// it is called only for [`TraceEvent::Value`], [`TraceEvent::MemWrite`]
/// and [`TraceEvent::MemRead`].
///
/// ```
/// use rtl_core::trace::{render, TraceEvent};
/// let mut text = Vec::new();
/// let events = [TraceEvent::Output { addr: 0, data: 65 }, TraceEvent::Output { addr: 1, data: 7 }];
/// render(&events, |_| unreachable!("no named events"), &mut text).unwrap();
/// assert_eq!(text, b"A\n7\n");
/// ```
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn render<'n, W: Write + ?Sized>(
    events: &[TraceEvent],
    name: impl Fn(CompId) -> &'n str,
    out: &mut W,
) -> io::Result<()> {
    for event in events {
        match event {
            TraceEvent::Cycle(cycle) => write!(out, "Cycle {cycle:>3}")?,
            TraceEvent::Value(id, value) => write!(out, " {}= {value}", name(*id))?,
            TraceEvent::EndLine => out.write_all(b"\n")?,
            TraceEvent::MemWrite { mem, addr, value } => {
                writeln!(out, " Write to {} at {addr}: {value}", name(*mem))?;
            }
            TraceEvent::MemRead { mem, addr, value } => {
                writeln!(out, " Read from {} at {addr}: {value}", name(*mem))?;
            }
            TraceEvent::Output { addr: 0, data } => out.write_all(&[(data & 0xFF) as u8, b'\n'])?,
            TraceEvent::Output { addr: 1, data } => writeln!(out, "{data}")?,
            TraceEvent::Output { addr, data } => writeln!(out, "Output to address {addr}: {data}")?,
            TraceEvent::InputPrompt(addr) => write!(out, "Input from address {addr}: ")?,
            TraceEvent::Raw(bytes) => out.write_all(bytes)?,
        }
    }
    Ok(())
}

/// [`render`] with a design's component names, into a fresh buffer.
pub fn render_text(design: &Design, events: &[TraceEvent]) -> Vec<u8> {
    let mut text = Vec::new();
    render(events, |id| design.name(id), &mut text).expect("writing to a Vec cannot fail");
    text
}

/// The buffer an engine records a step's trace into (see the [module
/// docs](self)).
///
/// A detached buffer ([`TraceBuf::new`]) keeps every event until the
/// caller reads and clears them. A [`Session`](crate::Session) attaches its sink, and
/// [`flush`](TraceBuf::flush) hands the pending events to it — the session
/// flushes after every step, and engines flush before every input read so
/// a text sink shows the trace (and the prompt) before the read blocks.
#[derive(Default)]
pub struct TraceBuf<'s> {
    events: Vec<TraceEvent>,
    sink: Option<&'s mut dyn TraceSink>,
}

impl TraceBuf<'static> {
    /// An empty, detached buffer.
    pub fn new() -> Self {
        TraceBuf::default()
    }
}

impl<'s> TraceBuf<'s> {
    /// A buffer that flushes into `sink`, reusing `events`' allocation
    /// (its contents are discarded).
    pub fn to_sink(mut events: Vec<TraceEvent>, sink: &'s mut dyn TraceSink) -> Self {
        events.clear();
        TraceBuf {
            events,
            sink: Some(sink),
        }
    }

    /// Records one event.
    #[inline]
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// The pending events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Discards the pending events.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Hands the pending events to the attached sink, which renders them
    /// with `design`'s names if it is a text sink. A detached buffer keeps
    /// them.
    ///
    /// # Errors
    ///
    /// The sink's I/O failure; the pending events are dropped either way.
    pub fn flush(&mut self, design: &Design) -> io::Result<()> {
        let Some(sink) = self.sink.as_deref_mut() else {
            return Ok(());
        };
        if self.events.is_empty() {
            return Ok(());
        }
        let result = sink.record(design, &self.events);
        self.events.clear();
        result
    }

    /// The event allocation, for reuse by the next step.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl std::fmt::Debug for TraceBuf<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceBuf")
            .field("events", &self.events)
            .field("attached", &self.sink.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design() -> Design {
        Design::from_source("# d\npc ac ram .\nA pc 2 1 0\nA ac 2 1 0\nM ram 0 0 0 8 .").unwrap()
    }

    fn text(events: &[TraceEvent]) -> String {
        String::from_utf8(render_text(&design(), events)).unwrap()
    }

    #[test]
    fn cycle_line_format() {
        let d = design();
        let (pc, ac) = (d.find("pc").unwrap(), d.find("ac").unwrap());
        let line = [
            TraceEvent::Cycle(7),
            TraceEvent::Value(pc, 12),
            TraceEvent::Value(ac, 900),
            TraceEvent::EndLine,
        ];
        assert_eq!(text(&line), "Cycle   7 pc= 12 ac= 900\n");
    }

    #[test]
    fn cycle_width_is_three_but_grows() {
        assert_eq!(text(&[TraceEvent::Cycle(0)]), "Cycle   0");
        assert_eq!(text(&[TraceEvent::Cycle(99)]), "Cycle  99");
        assert_eq!(text(&[TraceEvent::Cycle(5545)]), "Cycle 5545");
    }

    #[test]
    fn memory_trace_lines() {
        let ram = design().find("ram").unwrap();
        let write = TraceEvent::MemWrite {
            mem: ram,
            addr: 5,
            value: 42,
        };
        let read = TraceEvent::MemRead {
            mem: ram,
            addr: 6,
            value: -1,
        };
        assert_eq!(text(&[write]), " Write to ram at 5: 42\n");
        assert_eq!(text(&[read]), " Read from ram at 6: -1\n");
    }

    #[test]
    fn output_events_per_address() {
        let output = |addr, data| text(&[TraceEvent::Output { addr, data }]);
        assert_eq!(output(0, 65), "A\n");
        assert_eq!(output(1, 1234), "1234\n");
        assert_eq!(output(4096, 13), "Output to address 4096: 13\n");
    }

    #[test]
    fn char_output_masks_to_a_byte() {
        assert_eq!(
            text(&[TraceEvent::Output {
                addr: 0,
                data: 65 + 256
            }]),
            "A\n"
        );
    }

    #[test]
    fn input_prompt_format() {
        assert_eq!(
            text(&[TraceEvent::InputPrompt(9)]),
            "Input from address 9: "
        );
    }

    #[test]
    fn raw_bytes_render_verbatim() {
        assert_eq!(text(&[TraceEvent::raw(&b"garbage\n"[..])]), "garbage\n");
    }

    #[test]
    fn lower_bounds_hold() {
        let d = design();
        let ram = d.find("ram").unwrap();
        let events = [
            TraceEvent::Cycle(0),
            TraceEvent::Value(ram, 0),
            TraceEvent::EndLine,
            TraceEvent::MemWrite {
                mem: ram,
                addr: 0,
                value: 0,
            },
            TraceEvent::MemRead {
                mem: ram,
                addr: 0,
                value: 0,
            },
            TraceEvent::Output { addr: 0, data: 10 },
            TraceEvent::Output { addr: 1, data: 0 },
            TraceEvent::InputPrompt(0),
            TraceEvent::raw(&b"a\nb\n"[..]),
        ];
        for event in &events {
            let rendered = render_text(&d, std::slice::from_ref(event));
            assert!(event.min_len() <= rendered.len(), "{event:?}");
            let newlines = rendered.iter().filter(|&&b| b == b'\n').count();
            assert!(event.min_newlines() <= newlines, "{event:?}");
        }
    }
}
