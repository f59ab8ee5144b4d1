//! Garbage → error, never a panic, for two more on-disk decoders: event
//! log lines (`rtl_obs::Event::parse`, `asim2-events v1`) and execution
//! profiles (`rtl_prof::Profile::parse`, `asim2-profile v1`).
//!
//! One seeded mutation property over valid documents of each format. Each
//! mutant is a byte flip, a deletion, a truncation or an over-long digit
//! run; bytes that stop being UTF-8 are decoded lossily, as a reader of a
//! damaged file would. A mutant must be refused with an `Err`, or parse
//! to a value that then renders and summarizes without a panic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtl_obs::Event;
use rtl_prof::{Profile, ProfileHook};

const MUTANTS: u64 = 5000;

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

#[test]
fn mutated_event_lines_are_refused_or_parse_cleanly() {
    let valid = [
        Event::Meta {
            format: rtl_obs::FORMAT.into(),
        },
        Event::Counter {
            src: "campaign".into(),
            key: "cases_executed".into(),
            n: u64::MAX,
        },
        Event::Gauge {
            src: "campaign".into(),
            key: "worker_0_cases".into(),
            value: 21,
        },
        Event::Mark {
            src: "shard".into(),
            key: "run".into(),
            detail: Some("shard 0 \"quoted\" \\ tail".into()),
        },
        Event::Mark {
            src: "campaign".into(),
            key: "start".into(),
            detail: None,
        },
        Event::SpanEnter {
            src: "campaign".into(),
            key: "case".into(),
            id: 7,
        },
        Event::SpanExit {
            src: "campaign".into(),
            key: "case".into(),
            id: 7,
            micros: 1523,
        },
    ];
    let mut rng = StdRng::seed_from_u64(0xe7e7_0001);
    let mut parsed = 0;
    for event in &valid {
        let line = event.render();
        assert_eq!(Event::parse(&line).as_ref(), Ok(event), "{line}");
        for _ in 0..MUTANTS / valid.len() as u64 {
            let mutant = mutate(line.as_bytes(), &mut rng);
            if let Ok(event) = Event::parse(&String::from_utf8_lossy(&mutant)) {
                parsed += 1;
                let _ = (event.class(), event.render());
            }
        }
    }
    assert!(parsed > 0, "no mutant parsed; the value path went untested");
}

#[test]
fn mutated_profiles_are_refused_or_parse_cleanly() {
    let hook = ProfileHook::collecting();
    hook.add("alu", "eval", u64::MAX - 1000);
    hook.add("alu", "change", 12);
    hook.add("mux", "arm/3", 4);
    hook.add("ram", "read/0", 9);
    hook.add("ram", "write/15", 1);
    let doc = hook.snapshot().render();
    assert_eq!(Profile::parse(&doc).unwrap().render(), doc);

    let mut rng = StdRng::seed_from_u64(0xe7e7_0002);
    let mut parsed = 0;
    for _ in 0..MUTANTS {
        let mutant = mutate(doc.as_bytes(), &mut rng);
        if let Ok(profile) = Profile::parse(&String::from_utf8_lossy(&mutant)) {
            parsed += 1;
            let _ = (
                profile.total_events(),
                profile.components(),
                profile.render(),
            );
        }
    }
    assert!(parsed > 0, "no mutant parsed; the value path went untested");
}
