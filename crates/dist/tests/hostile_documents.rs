//! Garbage → error, never a panic, for the distributed-campaign decoders.
//!
//! One seeded mutation property over a valid document of each format a
//! shard or merge reads back from another machine: a shard plan
//! (`ShardPlan::load`), a shard marker (`rtl_dist::load_marker`) and a
//! real shrunk corpus entry (`corpus::entry_from_files`, one of its four
//! files mutated at a time). Each mutant is a byte flip, a deletion, a
//! truncation or an over-long digit run. It must return `Err` or a value,
//! never panic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtl_campaign::{corpus, CampaignConfig, CampaignDir, Frames, NoProgress, RunOptions};
use rtl_cosim::GenOptions;
use rtl_dist::{load_marker, run_shard, ShardPlan};
use std::path::PathBuf;

const MUTANTS: u64 = 5000;

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("asim2-dist-hostile-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
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

/// A config whose every case diverges at cycle 40 on the `vm-fault` lane.
fn config() -> CampaignConfig {
    CampaignConfig {
        seed: 3,
        cases: 4,
        engines: vec!["interp".into(), "vm-fault".into()],
        generator: GenOptions {
            size: 8,
            cycles: 48,
            ..GenOptions::default()
        },
        compare_every: 1,
        lint_oracle: false,
    }
}

#[test]
fn mutated_shard_plans_are_refused_or_load() {
    let root = scratch("plan");
    let path = root.join("plan.json");
    ShardPlan::partition(config(), 3)
        .unwrap()
        .save(&path)
        .unwrap();
    let doc = std::fs::read(&path).unwrap();
    let mut rng = StdRng::seed_from_u64(0xd157_0001);
    let mut loaded = 0;
    for _ in 0..MUTANTS {
        std::fs::write(&path, mutate(&doc, &mut rng)).unwrap();
        if let Ok(plan) = ShardPlan::load(&path) {
            loaded += 1;
            for spec in &plan.shards {
                let _ = (spec.cases(), spec.range());
            }
        }
    }
    assert!(loaded > 0, "no mutant loaded; the value path went untested");
    assert!(
        loaded < MUTANTS,
        "every mutant loaded; the refusals went untested"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn mutated_shard_markers_are_refused_or_load() {
    let root = scratch("marker");
    let plan = ShardPlan::partition(config(), 2).unwrap();
    let dir = CampaignDir::new(root.join("shard-1"));
    // `--limit 0`: the directory and its marker, no cases.
    let options = RunOptions {
        limit: Some(0),
        ..RunOptions::default()
    };
    run_shard(&plan, 1, &dir, &options, &mut NoProgress).unwrap();
    let marker = dir.root().join("shard.json");
    let doc = std::fs::read(&marker).unwrap();
    assert_eq!(load_marker(&dir, &plan).unwrap().index, 1);
    let mut rng = StdRng::seed_from_u64(0xd157_0002);
    let mut loaded = 0;
    for _ in 0..MUTANTS {
        std::fs::write(&marker, mutate(&doc, &mut rng)).unwrap();
        if load_marker(&dir, &plan).is_ok() {
            loaded += 1;
        }
    }
    assert!(loaded > 0, "no mutant loaded; the value path went untested");
    assert!(
        loaded < MUTANTS,
        "every mutant loaded; the refusals went untested"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn mutated_corpus_entries_are_refused_or_load() {
    let root = scratch("corpus");
    let dir = CampaignDir::new(&root);
    let report = rtl_campaign::run(&dir, &config(), &RunOptions::default(), &mut NoProgress)
        .expect("the campaign runs");
    assert!(report.diverged() > 0, "the fault lane diverges");
    let frames = Frames::scan(
        &dir,
        0..0,
        &[rtl_campaign::caselog::Kind::Corpus],
        |_, _| Ok(()),
    )
    .unwrap();
    let name = frames.names().next().expect("an entry").to_string();
    let files = frames.entry(&name).unwrap().expect("its documents").files;
    corpus::entry_from_files(&name, &files).expect("the shrunk entry loads");
    // An over-long divergence cycle is refused before the reference
    // replay runs to it.
    let mut far = files.clone();
    far.meta = far.meta.replacen("\"cycle\": ", "\"cycle\": 4000000000", 1);
    assert_ne!(far.meta, files.meta);
    let err = corpus::entry_from_files(&name, &far).unwrap_err();
    assert!(err.contains("past the horizon"), "{err}");

    let mut rng = StdRng::seed_from_u64(0xd157_0003);
    let mut loaded = 0;
    for i in 0..MUTANTS {
        let mut mutant = files.clone();
        let file = match i % 4 {
            0 => &mut mutant.meta,
            1 => &mut mutant.stim,
            2 => &mut mutant.ckpt,
            _ => &mut mutant.asim,
        };
        *file = String::from_utf8_lossy(&mutate(file.as_bytes(), &mut rng)).into_owned();
        if corpus::entry_from_files(&name, &mutant).is_ok() {
            loaded += 1;
        }
    }
    assert!(loaded > 0, "no mutant loaded; the value path went untested");
    assert!(
        loaded < MUTANTS,
        "every mutant loaded; the refusals went untested"
    );
    let _ = std::fs::remove_dir_all(&root);
}
