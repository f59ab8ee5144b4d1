//! Campaign acceptance tests: the injected-bug pipeline (find → shrink →
//! archive → replay), pre-seeded corpus replay, and the refusals of
//! drifted, foreign and corrupt state. Determinism across worker counts
//! and interrupt + resume is the root `tests/identity.rs` matrix.

use rtl_campaign::caselog::{FrameReader, CANONICAL, HEADER};
use rtl_campaign::{
    replay_corpus, resume, run, CampaignConfig, CampaignDir, CampaignError, CaseStatus, NoProgress,
    ReplayOutcome, RunOptions,
};
use rtl_cosim::GenOptions;
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asim2-campaign-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quick_config(cases: u32) -> CampaignConfig {
    CampaignConfig {
        seed: 1,
        cases,
        engines: vec!["interp".into(), "vm".into()],
        generator: GenOptions {
            size: 10,
            cycles: 24,
            ..GenOptions::default()
        },
        compare_every: 1,
        lint_oracle: false,
    }
}

/// A configuration comparing the interpreter against the deliberately
/// faulty VM: every case whose horizon crosses the trigger cycle (40)
/// diverges.
fn faulty_config(cases: u32) -> CampaignConfig {
    CampaignConfig {
        engines: vec!["interp".into(), "vm-fault".into()],
        generator: GenOptions {
            size: 10,
            cycles: 48,
            ..GenOptions::default()
        },
        ..quick_config(cases)
    }
}

fn opts(workers: usize) -> RunOptions {
    RunOptions {
        workers,
        ..RunOptions::default()
    }
}

#[test]
fn injected_bug_is_found_shrunk_archived_and_reproduced() {
    let root = scratch("bug");
    let dir = CampaignDir::new(&root);
    let report = run(&dir, &faulty_config(6), &opts(2), &mut NoProgress).unwrap();
    assert!(report.diverged() > 0, "{report}");
    assert!(!report.clean());
    assert!(
        !report.new_corpus.is_empty(),
        "divergences must be archived"
    );

    // Every diverged case points at its corpus entry.
    for record in report.records.iter().flatten() {
        if let CaseStatus::Diverged { corpus, cycle, .. } = &record.status {
            assert_eq!(
                corpus.as_deref(),
                Some(format!("seed-{}", record.seed).as_str())
            );
            assert_eq!(*cycle, 40, "the fault triggers at cycle 40");
        }
    }

    // The archived minimal scenarios reproduce the divergence on replay…
    let replayed = replay_corpus(&dir, None).unwrap();
    assert_eq!(
        replayed.reproduced().count(),
        report.new_corpus.len(),
        "{replayed}"
    );
    for result in &replayed.results {
        match &result.outcome {
            ReplayOutcome::Reproduced { cycle, kind } => {
                assert_eq!(
                    (*cycle, kind.as_str()),
                    (result.expected.0, result.expected.1.as_str())
                );
            }
            other => panic!("{}: {other:?}", result.name),
        }
    }

    // …and come back clean once the bug is "fixed" (healthy vm lane).
    let healthy: Vec<String> = vec!["interp".into(), "vm".into()];
    let fixed = replay_corpus(&dir, Some(&healthy)).unwrap();
    assert!(fixed.clean(), "{fixed}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn preseeded_corpus_replays_before_fuzzing() {
    // Campaign A (vs the faulty VM) builds a corpus; campaign B starts
    // from a copy of it and replays it first.
    let root_a = scratch("seed-a");
    let dir_a = CampaignDir::new(&root_a);
    run(&dir_a, &faulty_config(4), &opts(2), &mut NoProgress).unwrap();

    let root_b = scratch("seed-b");
    let dir_b = CampaignDir::new(&root_b);
    std::fs::create_dir_all(dir_b.corpus()).unwrap();
    for dirent in std::fs::read_dir(dir_a.corpus()).unwrap() {
        let path = dirent.unwrap().path();
        std::fs::copy(&path, dir_b.corpus().join(path.file_name().unwrap())).unwrap();
    }

    // Campaign B compares the healthy engines: the old divergences no
    // longer reproduce, the fresh fuzz cases agree.
    let report = run(&dir_b, &quick_config(4), &opts(2), &mut NoProgress).unwrap();
    let replay = report.replay.as_ref().expect("pre-seeded corpus replayed");
    assert!(!replay.results.is_empty());
    assert!(replay.clean(), "{replay}");
    assert!(report.clean(), "{report}");

    let _ = std::fs::remove_dir_all(&root_a);
    let _ = std::fs::remove_dir_all(&root_b);
}

#[test]
fn resume_refuses_a_drifted_configuration() {
    let root = scratch("drift");
    let dir = CampaignDir::new(&root);
    run(
        &dir,
        &quick_config(3),
        &RunOptions {
            workers: 1,
            limit: Some(1),
            ..RunOptions::default()
        },
        &mut NoProgress,
    )
    .unwrap();

    // Hand-edit the manifest to a different seed: the stored fingerprint
    // no longer matches the config, and resume refuses to continue.
    let manifest = std::fs::read_to_string(dir.manifest()).unwrap();
    let edited = manifest.replace("\"seed\": 1", "\"seed\": 2");
    assert_ne!(edited, manifest);
    std::fs::write(dir.manifest(), edited).unwrap();
    let err = resume(&dir, &opts(1), &mut NoProgress).unwrap_err();
    assert!(
        matches!(err, CampaignError::Config(_)),
        "expected config refusal, got: {err}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn run_refuses_unknown_engines_and_existing_campaigns() {
    let root = scratch("refuse");
    let dir = CampaignDir::new(&root);
    let bad = CampaignConfig {
        engines: vec!["interp".into(), "warp".into()],
        ..quick_config(2)
    };
    let err = run(&dir, &bad, &opts(1), &mut NoProgress).unwrap_err();
    assert!(err.to_string().contains("unknown engine"), "{err}");

    run(&dir, &quick_config(2), &opts(1), &mut NoProgress).unwrap();
    let err = run(&dir, &quick_config(2), &opts(1), &mut NoProgress).unwrap_err();
    assert!(err.to_string().contains("resume"), "{err}");
    let _ = std::fs::remove_dir_all(&root);
}

/// A ranged resume reads and sweeps only its own range: a corrupt record
/// and a stale checkpoint outside it are left alone, a stale checkpoint
/// beside a completed in-range record is swept, and the missing in-range
/// case reruns to the reference record. An unranged resume still reads
/// every record and refuses the corrupt one by name.
#[test]
fn ranged_resume_reads_and_sweeps_only_its_range() {
    let root = scratch("ranged");
    let dir = CampaignDir::new(&root);
    let reference = run(&dir, &quick_config(6), &opts(2), &mut NoProgress).unwrap();
    assert!(reference.complete(), "{reference}");

    // Flip one record byte of case 0's frame, the first of the canonical
    // log, and cut case 5's, its last, off at its frame boundary.
    let log = dir.cases().join(CANONICAL);
    let mut bytes = std::fs::read(&log).unwrap();
    let mut reader = FrameReader::new(&bytes[..], bytes.len() as u64);
    let mut offsets = Vec::new();
    while let Some(frame) = reader.next(|_| false).unwrap() {
        offsets.push((frame.index, frame.offset));
    }
    assert_eq!(
        offsets.iter().map(|f| f.0).collect::<Vec<_>>(),
        [0, 1, 2, 3, 4, 5]
    );
    bytes.truncate(offsets[5].1 as usize);
    bytes[HEADER + 2] ^= 0x20;
    std::fs::write(&log, bytes).unwrap();
    let stale_outside = dir.cases().join("case-000001.ckpt");
    let stale_inside = dir.cases().join("case-000004.ckpt");
    std::fs::write(&stale_outside, "stale").unwrap();
    std::fs::write(&stale_inside, "stale").unwrap();

    let ranged = resume(
        &dir,
        &RunOptions {
            workers: 1,
            case_range: Some(3..6),
            ..RunOptions::default()
        },
        &mut NoProgress,
    )
    .unwrap();
    assert!(ranged.records[..3].iter().all(Option::is_none));
    assert_eq!(ranged.records[3..], reference.records[3..]);
    assert!(stale_outside.exists(), "out-of-range checkpoint was swept");
    assert!(!stale_inside.exists(), "in-range stale checkpoint survived");

    let err = resume(&dir, &opts(1), &mut NoProgress).unwrap_err();
    assert!(
        matches!(&err, CampaignError::Corrupt(m)
            if m.contains("cases.log") && m.contains("(case 0) fails its checksum")),
        "expected corrupt-record refusal, got: {err}"
    );
    let _ = std::fs::remove_dir_all(&root);
}
