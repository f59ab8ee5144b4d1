//! Garbage → error, never a panic, for the lockstep layer's decoders.
//!
//! One seeded mutation property over a valid document of each format the
//! lockstep layer reads back — a session checkpoint (`asim2-checkpoint
//! v2`), a lockstep checkpoint (`asim2-lockstep v3`) and a digest stream
//! (`asim2-digests v1`). Each mutant is a byte flip, a deletion, a
//! truncation or an over-long digit run. It must be refused with an
//! `Err`, or load and then run without a panic. Lockstep mutants resume
//! at a coarse stride, so a mutant that desynchronises one lane also
//! drives the bisection rewind to the snapshot taken at resume. The
//! statistics lines of both checkpoints are also cut at every byte and
//! flipped at every bit, and documents of retired versions are refused by
//! name.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtl_core::{Design, EngineLane, EngineOptions, Session, Until};
use rtl_cosim::{registry, CosimOptions, CosimOutcome, DigestLane, DigestLog, DigestRecorder};
use rtl_cosim::{Lockstep, DEFAULT_FAULT_CYCLE};
use std::cell::RefCell;
use std::rc::Rc;

/// A design with memory-mapped input and two memories, so every line of
/// a checkpoint (outputs, cells, stimulus offsets) carries numbers.
const ACCUMULATOR: &str = "# io\ni* acc n .\nM i 1 0 2 1\nM acc 0 n 1 1\nA n 4 acc i .";

const MUTANTS: u64 = 5000;
const STRIDE: u64 = 4;

fn stimulus() -> Vec<i64> {
    (1..=64).collect()
}

/// A byte flip, a deletion, a truncation, or an over-long run of one
/// digit inserted at a digit (so it lengthens an existing number).
fn mutate(doc: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut out = doc.to_vec();
    let at = rng.random_range(0..out.len());
    match rng.random_range(0..4u32) {
        0 => out[at] ^= 1 << rng.random_range(0..8u32),
        1 => {
            let end = (at + rng.random_range(1..=16usize)).min(out.len());
            out.drain(at..end);
        }
        2 => out.truncate(at),
        _ => {
            let digits: Vec<usize> = (0..out.len())
                .filter(|&i| out[i].is_ascii_digit())
                .collect();
            let at = digits[rng.random_range(0..digits.len())];
            let digit = b'0' + rng.random_range(0..10u8);
            let run = rng.random_range(10..=40usize);
            out.splice(at..at, std::iter::repeat_n(digit, run));
        }
    }
    out
}

fn harness<'d>(design: &'d Design, lanes: &[&str]) -> Lockstep<'d> {
    let mut lockstep = Lockstep::new(
        design,
        CosimOptions {
            compare_every: STRIDE,
            ..CosimOptions::default()
        },
    );
    lockstep.stimulus(stimulus());
    for &name in lanes {
        let Ok(EngineLane::Stepped(engine)) =
            registry().build(name, design, &EngineOptions::default())
        else {
            panic!("{name} is a stepped registry lane");
        };
        lockstep.add_lane(name, engine);
    }
    lockstep
}

#[test]
fn mutated_session_checkpoints_are_refused_or_resume_cleanly() {
    let design = Design::from_source(ACCUMULATOR).unwrap();
    let session = |design| {
        Session::builder(design)
            .engine_named(registry(), "vm", &EngineOptions::default())
            .unwrap()
            .capture()
            .scripted(stimulus())
            .build()
    };
    let mut valid = session(&design);
    valid.run(Until::Cycles(12));
    let mut doc = Vec::new();
    valid.checkpoint(&mut doc).unwrap();

    let mut rng = StdRng::seed_from_u64(0xc0ff_ee01);
    let mut resumed = 0;
    for _ in 0..MUTANTS {
        let mutant = mutate(&doc, &mut rng);
        let mut run = session(&design);
        if run.resume(&mut &mutant[..]).is_ok() {
            resumed += 1;
            run.run(Until::Cycles(16));
        }
    }
    assert!(resumed > 0, "no mutant resumed; the run path went untested");
}

#[test]
fn mutated_lockstep_checkpoints_are_refused_or_resume_cleanly() {
    let design = Design::from_source(ACCUMULATOR).unwrap();
    let mut valid = harness(&design, &["interp", "vm"]);
    assert!(valid.run(12).agreed());
    let mut doc = Vec::new();
    valid.checkpoint(&mut doc).unwrap();

    let mut rng = StdRng::seed_from_u64(0xc0ff_ee02);
    let (mut resumed, mut diverged) = (0, 0);
    for _ in 0..MUTANTS {
        let mutant = mutate(&doc, &mut rng);
        let mut lockstep = harness(&design, &["interp", "vm"]);
        if lockstep.resume(&mut &mutant[..]).is_ok() {
            resumed += 1;
            if let CosimOutcome::Divergence(_) = lockstep.run(16) {
                diverged += 1;
            }
        }
    }
    assert!(resumed > 0, "no mutant resumed; the run path went untested");
    assert!(
        diverged > 0,
        "no resumed mutant diverged; the rewind path went untested"
    );
}

/// Every cut of `doc` inside a statistics line, and every single-bit
/// flip there, as mutants.
fn statistics_line_mutants(doc: &[u8]) -> Vec<Vec<u8>> {
    let mut mutants = Vec::new();
    let mut start = 0;
    for line in doc.split_inclusive(|&b| b == b'\n') {
        if line.starts_with(b"stats ") {
            for at in start..start + line.len() {
                mutants.push(doc[..at].to_vec());
                for bit in 0..8 {
                    let mut flipped = doc.to_vec();
                    flipped[at] ^= 1 << bit;
                    mutants.push(flipped);
                }
            }
        }
        start += line.len();
    }
    mutants
}

#[test]
fn every_cut_and_flip_of_a_statistics_line_is_refused_or_resumes_cleanly() {
    let design = Design::from_source(ACCUMULATOR).unwrap();
    let session = |design| {
        Session::builder(design)
            .engine_named(registry(), "interp", &EngineOptions::default())
            .unwrap()
            .capture()
            .scripted(stimulus())
            .build()
    };
    let mut valid = session(&design);
    valid.run(Until::Cycles(12));
    let mut doc = Vec::new();
    valid.checkpoint(&mut doc).unwrap();
    let mutants = statistics_line_mutants(&doc);
    assert!(mutants.len() > 100, "{} mutants", mutants.len());
    let mut resumed = 0;
    for mutant in &mutants {
        let mut run = session(&design);
        if run.resume(&mut &mutant[..]).is_ok() {
            resumed += 1;
            run.run(Until::Cycles(16));
        }
    }
    assert!(resumed > 0, "no mutant resumed; the run path went untested");

    // Counters restored at their ceiling saturate rather than overflow.
    let text = String::from_utf8(doc).unwrap();
    let line = text.lines().find(|l| l.starts_with("stats ")).unwrap();
    let max = line
        .split(' ')
        .map(|w| match w.parse::<u64>() {
            Ok(_) => u64::MAX.to_string(),
            Err(_) => w.to_string(),
        })
        .collect::<Vec<_>>()
        .join(" ");
    let mut run = session(&design);
    run.resume(&mut text.replacen(line, &max, 1).as_bytes())
        .unwrap();
    assert!(run.run(Until::Cycles(16)).completed());
    let stats = run.engine().stats().unwrap();
    assert_eq!(stats.cycles, u64::MAX);
    assert_eq!(stats.total_accesses(), u64::MAX);

    let mut valid = harness(&design, &["interp", "vm"]);
    assert!(valid.run(12).agreed());
    let mut doc = Vec::new();
    valid.checkpoint(&mut doc).unwrap();
    let mutants = statistics_line_mutants(&doc);
    let mut resumed = 0;
    for mutant in &mutants {
        let mut lockstep = harness(&design, &["interp", "vm"]);
        if lockstep.resume(&mut &mutant[..]).is_ok() {
            resumed += 1;
            lockstep.run(16);
        }
    }
    assert!(resumed > 0, "no mutant resumed; the run path went untested");
}

#[test]
fn retired_checkpoint_versions_are_refused_by_name() {
    let design = Design::from_source(ACCUMULATOR).unwrap();
    let mut valid = harness(&design, &["interp", "vm"]);
    assert!(valid.run(12).agreed());
    let mut doc = Vec::new();
    valid.checkpoint(&mut doc).unwrap();
    let doc = String::from_utf8(doc).unwrap();
    for (current, old) in [
        ("asim2-lockstep v3", "asim2-lockstep v1"),
        ("asim2-lockstep v3", "asim2-lockstep v2"),
        ("asim2-checkpoint v2", "asim2-checkpoint v1"),
    ] {
        assert!(doc.contains(current), "{doc}");
        let mut lockstep = harness(&design, &["interp", "vm"]);
        let err = lockstep
            .resume(&mut doc.replace(current, old).as_bytes())
            .unwrap_err();
        assert!(err.to_string().contains(old), "{old}: {err}");
    }
}

#[test]
fn mutated_digest_streams_are_refused_or_replay_cleanly() {
    let design = Design::from_source(ACCUMULATOR).unwrap();
    let log = Rc::new(RefCell::new(DigestLog::new(
        "accumulator",
        rtl_core::design_fingerprint(&design),
        STRIDE,
    )));
    let mut valid = harness(&design, &["interp", "vm"]);
    valid.add_comparator(Box::new(DigestRecorder::new(Rc::clone(&log))));
    assert!(valid.run(48).agreed());
    let mut doc = Vec::new();
    log.borrow().write(&mut doc).unwrap();

    let mut rng = StdRng::seed_from_u64(0xc0ff_ee03);
    let mut replayed = 0;
    for _ in 0..MUTANTS {
        let mutant = mutate(&doc, &mut rng);
        if let Ok(log) = DigestLog::parse(&mut &mutant[..]) {
            replayed += 1;
            // vm-fault diverges past its trigger, so replays cover both
            // the agreeing and the bisecting path.
            let mut lockstep = harness(&design, &["interp", "vm-fault"]);
            lockstep.add_comparator(Box::new(DigestLane::new(log)));
            lockstep.run(DEFAULT_FAULT_CYCLE + 8);
        }
    }
    assert!(
        replayed > 0,
        "no mutant parsed; the replay path went untested"
    );
}
