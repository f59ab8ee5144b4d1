//! Session-layer integration tests: the snapshot → run → restore → replay
//! property across *every registered in-process engine*, and the
//! checkpoint file format driven end to end through `Session`.

use asim2::core::{TraceEvent, TraceSink, WriteSink};
use asim2::cosim::{generate_scenario, GenOptions};
use asim2::prelude::*;
use proptest::prelude::*;

/// Every stepped lane in the default registry (stream lanes — the
/// generated-Rust subprocess — have no snapshot to exercise).
fn stepped_names() -> Vec<String> {
    let reg = registry();
    reg.names()
        .into_iter()
        .filter(|n| reg.get(n).expect("listed name resolves").is_stepped())
        .map(String::from)
        .collect()
}

#[test]
fn the_registry_has_every_inprocess_tier() {
    let names = stepped_names();
    for expected in ["interp", "interp-faithful", "vm", "vm-noopt"] {
        assert!(names.iter().any(|n| n == expected), "{names:?}");
    }
}

proptest! {
    /// For every registered engine: `snapshot` → run k cycles → `restore`
    /// → re-run k cycles is trace-byte-identical. This is the property
    /// `Session::checkpoint`/`resume` and the cosim rewind bisection both
    /// stand on. (Input-free scenarios: the stimulus cursor is not part of
    /// an engine snapshot — resuming scripted input is the driver's job.)
    #[test]
    fn snapshot_restore_replay_is_trace_identical(
        seed in 0u64..50,
        warmup in 0u64..16,
        k in 1u64..32,
    ) {
        let options = GenOptions { size: 12, cycles: 80, io_every: 0 };
        let scenario = generate_scenario(seed, &options);
        let design = scenario.design().expect("generated scenarios elaborate");
        for name in stepped_names() {
            let mut session = Session::builder(&design)
                .engine_named(registry(), &name, &EngineOptions::default())
                .expect("stepped lanes build")
                .capture()
                .build();
            prop_assert!(session.run(Until::Cycles(warmup)).completed(), "{name} warmup");

            let snap = session.engine().snapshot();
            let mark = session.output().len();
            prop_assert!(session.run(Until::Cycles(k)).completed(), "{name} first run");
            let first = session.output()[mark..].to_vec();
            let state_first = session.engine().snapshot();

            session.engine_mut().restore(&snap);
            let mark = session.output().len();
            prop_assert!(session.run(Until::Cycles(k)).completed(), "{name} replay");
            let second = session.output()[mark..].to_vec();

            prop_assert_eq!(&first, &second, "engine {} replay trace diverged", name);
            prop_assert_eq!(
                &state_first, &session.engine().snapshot(),
                "engine {} replay state diverged", name
            );
        }
    }

    /// The on-disk checkpoint round-trips through Session for every
    /// engine: write at cycle w, resume into a fresh session, and the
    /// continuation is byte-identical to the uninterrupted run.
    #[test]
    fn checkpoint_resume_matches_uninterrupted(seed in 0u64..20, w in 1u64..24) {
        let options = GenOptions { size: 10, cycles: 64, io_every: 0 };
        let scenario = generate_scenario(seed, &options);
        let design = scenario.design().expect("generated scenarios elaborate");
        for name in stepped_names() {
            let build = || {
                Session::builder(&design)
                    .engine_named(registry(), &name, &EngineOptions::default())
                    .expect("stepped lanes build")
                    .capture()
                    .build()
            };
            // Uninterrupted: w + 16 cycles.
            let mut full = build();
            prop_assert!(full.run(Until::Cycles(w + 16)).completed());

            // Interrupted: run w, checkpoint into memory, resume a fresh
            // session, run 16 more.
            let mut first = build();
            prop_assert!(first.run(Until::Cycles(w)).completed());
            let mut doc = Vec::new();
            first.checkpoint(&mut doc).expect("vec write");

            let mut resumed = build();
            resumed.resume(&mut &doc[..]).expect("checkpoint loads");
            prop_assert_eq!(resumed.cycle(), first.cycle(), "resume restores the cycle");
            prop_assert!(resumed.run(Until::Cycles(16)).completed());

            let expected_tail = &full.output()[first.output().len()..];
            prop_assert_eq!(
                resumed.output(), expected_tail,
                "engine {} resumed tail diverged", name
            );
            prop_assert_eq!(
                resumed.engine().stats(), full.engine().stats(),
                "engine {} resumed statistics differ", name
            );
        }
    }
}

/// `Session::checkpoint_to` publishes through a temp sibling and a
/// rename, so the previous checkpoint is never truncated in place: a
/// hard link to it still reads the old document whole afterwards (a kill
/// mid-write would leave that document in place). The write is still
/// timed as a `session/checkpoint` span.
#[test]
fn checkpoint_to_never_truncates_the_previous_checkpoint() {
    let dir = std::env::temp_dir().join(format!("asim2-session-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.ckpt");
    let held = dir.join("held.ckpt");
    let previous = "the previous checkpoint\n".repeat(64);
    std::fs::write(&path, &previous).unwrap();
    std::fs::hard_link(&path, &held).unwrap();

    let scenario = generate_scenario(
        1,
        &GenOptions {
            size: 10,
            cycles: 16,
            io_every: 0,
        },
    );
    let design = scenario.design().unwrap();
    let (recorder, log) = asim2::core::Recorder::memory();
    let mut session = Session::builder(&design)
        .engine_named(registry(), "vm", &EngineOptions::default())
        .unwrap()
        .recorder(recorder.clone())
        .build();
    assert!(session.run(Until::Cycles(16)).completed());
    session.checkpoint_to(&path).unwrap();

    let mut expected = Vec::new();
    session.checkpoint(&mut expected).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), expected);
    assert_eq!(std::fs::read_to_string(&held).unwrap(), previous);
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    files.sort();
    assert_eq!(files, ["held.ckpt", "run.ckpt"], "no temp sibling is left");
    recorder.flush();
    assert!(
        log.text().contains("\"key\":\"checkpoint\""),
        "{}",
        log.text()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A text sink whose rendered bytes an input source can see.
struct SharedText(std::rc::Rc<std::cell::RefCell<Vec<u8>>>);

impl TraceSink for SharedText {
    fn record(&mut self, design: &Design, events: &[TraceEvent]) -> std::io::Result<()> {
        let mut text = self.0.borrow_mut();
        asim2::core::trace::render(events, |id| design.name(id), &mut *text)
    }
}

/// An input source that records what the sink held at each read.
struct Witness {
    seen: std::rc::Rc<std::cell::RefCell<Vec<u8>>>,
    at_reads: std::rc::Rc<std::cell::RefCell<Vec<String>>>,
}

impl InputSource for Witness {
    fn read_char(&mut self) -> Result<Word, SimError> {
        self.read_int()
    }

    fn read_int(&mut self) -> Result<Word, SimError> {
        let mut at_reads = self.at_reads.borrow_mut();
        at_reads.push(String::from_utf8_lossy(&self.seen.borrow()).into_owned());
        Ok(at_reads.len() as Word)
    }
}

#[test]
fn pending_trace_reaches_a_text_sink_before_every_input_read() {
    let design = Design::from_source("# io\ni* o .\nM i 9 0 2 1\nM o 1 i 3 1 .").unwrap();
    for name in stepped_names() {
        let text = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let at_reads = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let witness = Witness {
            seen: std::rc::Rc::clone(&text),
            at_reads: std::rc::Rc::clone(&at_reads),
        };
        let mut session = Session::builder(&design)
            .engine_named(registry(), &name, &EngineOptions::default())
            .unwrap()
            .sink(SharedText(std::rc::Rc::clone(&text)))
            .stimulus(witness)
            .build();
        assert!(session.run(Until::Cycles(2)).completed(), "{name}");
        assert_eq!(
            *at_reads.borrow(),
            [
                "Cycle   0 i= 0\nInput from address 9: ",
                "Cycle   0 i= 0\nInput from address 9: 0\nCycle   1 i= 1\nInput from address 9: ",
            ],
            "{name}"
        );
    }
}

/// A writer that accepts `room` bytes, then fails.
struct Full {
    room: usize,
}

impl std::io::Write for Full {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if buf.len() > self.room {
            return Err(std::io::Error::other("device full"));
        }
        self.room -= buf.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_failing_text_sink_stops_the_run_after_the_last_delivered_cycle() {
    // "Cycle   N count= N\n" is 19 bytes for N < 10: 50 bytes of room hold
    // two whole lines, and the third cycle's write fails.
    let design =
        Design::from_source("# c\ncount* next .\nM count 0 next 1 1\nA next 4 count 1 .").unwrap();
    for name in stepped_names() {
        let mut session = Session::builder(&design)
            .engine_named(registry(), &name, &EngineOptions::default())
            .unwrap()
            .sink(WriteSink::new(Full { room: 50 }))
            .build();
        let outcome = session.run(Until::Cycles(10));
        assert_eq!(outcome.cycles, 2, "{name}");
        assert!(
            matches!(outcome.stop, StopReason::Error(SimError::Io(_))),
            "{name}: {:?}",
            outcome.stop
        );
    }
}
