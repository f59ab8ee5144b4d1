//! The persistent divergence corpus: every bug a campaign ever found,
//! kept as a minimal, replayable regression scenario.
//!
//! One entry is four sibling files under the campaign's `corpus/`:
//!
//! ```text
//! <name>.asim  — the shrunk specification source
//! <name>.stim  — the stimulus script, one decimal word per line
//! <name>.ckpt  — the reference engine's state at the divergence cycle,
//!                in the fingerprinted session checkpoint format
//! <name>.json  — metadata: horizon, engines, the expected divergence,
//!                and shrink provenance
//! ```
//!
//! The `.ckpt` file reuses [`rtl_core::write_checkpoint`] verbatim: its
//! design fingerprint ties the checkpoint to the `.asim` next to it (a
//! corrupted or mismatched entry is rejected on load), and replays verify
//! the recomputed reference state byte-for-byte before trusting the entry.

use crate::bundle::{BundleEntry, CorpusFiles};
use crate::error::CampaignError;
use crate::shrink::Shrunk;
use crate::state::LaneAccess;
use rtl_core::{read_checkpoint, write_checkpoint, Design, Session, Until, Word};
use rtl_cosim::{CosimOptions, DivergenceKind, ScenarioResult};
use rtl_interp::Interpreter;
use rtl_machines::Scenario;
use rtl_obs::json::Json;
use std::path::Path;

/// The corpus metadata format line; bump on breaking changes.
pub const FORMAT: &str = "asim2-corpus v1";

/// A stable one-token label for a divergence kind (`trace`,
/// `output:x3`, `cells:m0@5`, `vcd:x3`, `stream:rust`, ...).
pub fn kind_label(kind: &DivergenceKind) -> String {
    match kind {
        DivergenceKind::Error => "error".into(),
        DivergenceKind::Trace => "trace".into(),
        DivergenceKind::CycleCounter => "cycle-counter".into(),
        DivergenceKind::Output { component } => format!("output:{component}"),
        DivergenceKind::Cells { component, addr } => format!("cells:{component}@{addr}"),
        DivergenceKind::Vcd { component } => format!("vcd:{component}"),
        DivergenceKind::Stream { lane } => format!("stream:{lane}"),
        DivergenceKind::Digest => "digest".into(),
        DivergenceKind::Oracle { component, .. } => format!("oracle:{component}"),
    }
}

/// A stable fingerprint of *which design and stimulus* a corpus entry
/// reproduces: the specification source text, the cycle horizon, and the
/// input script, hashed with the session-checkpoint FNV hasher. This —
/// not the shape-only
/// [`design_fingerprint`](rtl_core::design_fingerprint), which collides
/// across fuzz designs sharing a component-naming scheme — is the dedup
/// key: two entries with equal fingerprints reproduce the identical run,
/// so archiving both would only bloat the corpus. (Generated scenarios
/// embed their seed in the spec title, so within one campaign distinct
/// seeds never collide and dedup stays order-independent.)
pub fn entry_fingerprint(scenario: &Scenario) -> u64 {
    let mut fp = rtl_core::Fingerprint::new();
    fp.write_str("asim2-corpus-entry v1");
    fp.write_str(&scenario.source);
    fp.write_u64(scenario.cycles);
    fp.write_u64(scenario.input.len() as u64);
    for &word in &scenario.input {
        fp.write_u64(word as u64);
    }
    fp.finish()
}

/// One saved divergence-regression scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// Entry name (`seed-7`), also the file stem.
    pub name: String,
    /// The minimal scenario (source, horizon, stimulus).
    pub scenario: Scenario,
    /// The engine lanes the divergence was found between.
    pub engines: Vec<String>,
    /// The comparison stride it was found at.
    pub compare_every: u64,
    /// Expected first divergent cycle.
    pub cycle: u64,
    /// Expected divergence kind label (see [`kind_label`]).
    pub kind: String,
    /// Shrink provenance: originating fuzz seed.
    pub seed: u64,
    /// Shrink provenance: final generator size knob.
    pub size: usize,
}

/// Saves a shrunk divergence into the corpus directory — unless an entry
/// with the same [`entry_fingerprint`] already exists, in which case the
/// existing entry is returned instead of archiving a duplicate (merged
/// shard corpora and long campaigns re-finding a known bug would
/// otherwise accumulate identical reproductions under different names).
///
/// # Errors
///
/// File-system failure, or a scenario that no longer elaborates.
pub fn save(
    corpus_dir: &Path,
    shrunk: &Shrunk,
    engines: &[String],
    compare_every: u64,
) -> Result<CorpusEntry, CampaignError> {
    let (entry, new) = render(corpus_dir, shrunk, engines, compare_every)?;
    if let Some(new) = new {
        new.files.write(corpus_dir, &new.name)?;
    }
    Ok(entry)
}

/// [`save`] without the writes: the entry plus its rendered files, or the
/// existing entry with the same [`entry_fingerprint`] and no files. The
/// files include the reference checkpoint: the `interp` engine's
/// architectural state after the verified prefix (the cycles *before*
/// the divergence), in the session checkpoint format.
///
/// # Errors
///
/// A corrupt existing corpus, or a scenario that no longer elaborates.
pub fn render(
    corpus_dir: &Path,
    shrunk: &Shrunk,
    engines: &[String],
    compare_every: u64,
) -> Result<(CorpusEntry, Option<BundleEntry>), CampaignError> {
    let entry = CorpusEntry {
        name: format!("seed-{}", shrunk.seed),
        scenario: shrunk.scenario.clone(),
        engines: engines.to_vec(),
        compare_every,
        cycle: u64::try_from(shrunk.report.cycle).unwrap_or(0),
        kind: kind_label(&shrunk.report.kind),
        seed: shrunk.seed,
        size: shrunk.size,
    };
    let fp = entry_fingerprint(&entry.scenario);
    if let Some(existing) = find_by_fingerprint(corpus_dir, fp)? {
        return Ok((load_one(corpus_dir, &existing)?, None));
    }
    let design = entry
        .scenario
        .design()
        .map_err(|e| CampaignError::Corrupt(format!("corpus scenario: {e}")))?;
    let ckpt =
        String::from_utf8(reference_checkpoint(&design, &entry).map_err(CampaignError::Corrupt)?)
            .map_err(|_| CampaignError::Corrupt("reference checkpoint is not text".into()))?;
    let fingerprint = format!("{fp:016x}");
    let meta = Json::Obj(vec![
        ("format".into(), Json::str(FORMAT)),
        ("name".into(), Json::str(&entry.name)),
        ("design_fp".into(), Json::str(&fingerprint)),
        ("cycles".into(), Json::num(entry.scenario.cycles)),
        (
            "engines".into(),
            Json::Arr(entry.engines.iter().map(Json::str).collect()),
        ),
        ("compare_every".into(), Json::num(entry.compare_every)),
        (
            "divergence".into(),
            Json::Obj(vec![
                ("cycle".into(), Json::num(entry.cycle)),
                ("kind".into(), Json::str(&entry.kind)),
            ]),
        ),
        (
            "provenance".into(),
            Json::Obj(vec![
                ("seed".into(), Json::num(entry.seed)),
                ("size".into(), Json::num(entry.size)),
                ("input_len".into(), Json::num(entry.scenario.input.len())),
            ]),
        ),
    ]);
    let files = BundleEntry {
        name: entry.name.clone(),
        fingerprint,
        files: CorpusFiles {
            asim: entry.scenario.source.clone(),
            stim: render_stimulus(&entry.scenario.input),
            ckpt,
            meta: meta.render(),
        },
    };
    Ok((entry, Some(files)))
}

/// The reference (`interp`) state after the entry's verified prefix, as a
/// session checkpoint document. `design` is the entry's scenario,
/// elaborated by the caller.
fn reference_checkpoint(design: &Design, entry: &CorpusEntry) -> Result<Vec<u8>, String> {
    let mut session = Session::over(Interpreter::new(design))
        .scripted(entry.scenario.input.iter().copied())
        .build();
    // The divergence happened *at* entry.cycle, so every cycle before it
    // is verified common ground across the lanes.
    let outcome = session.run(Until::Cycles(entry.cycle));
    if !outcome.completed() {
        return Err(format!(
            "reference engine stopped before the divergence cycle: {}",
            outcome.stop
        ));
    }
    let mut doc = Vec::new();
    write_checkpoint(design, session.state(), &mut doc).map_err(|e| e.to_string())?;
    Ok(doc)
}

/// Every entry name under `corpus_dir`, sorted. A missing directory is an
/// empty corpus.
///
/// # Errors
///
/// File-system failure.
pub fn entry_names(corpus_dir: &Path) -> Result<Vec<String>, CampaignError> {
    let mut names = Vec::new();
    let listing = match std::fs::read_dir(corpus_dir) {
        Ok(listing) => listing,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(CampaignError::Io(e)),
    };
    for dirent in listing {
        let path = dirent?.path();
        if path.extension().is_some_and(|e| e == "json") {
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                // Skip dotfiles: a kill between write and rename can leave
                // write_atomic's `.tmp-*` sibling behind, and it must not
                // poison the corpus on the next load.
                if !stem.starts_with('.') {
                    names.push(stem.to_string());
                }
            }
        }
    }
    names.sort();
    Ok(names)
}

/// Loads every corpus entry under `corpus_dir`, sorted by name. A missing
/// directory is an empty corpus.
///
/// # Errors
///
/// A corrupt entry (bad metadata, missing sibling file, or a `.ckpt`
/// whose design fingerprint does not match its `.asim`).
pub fn load_all(corpus_dir: &Path) -> Result<Vec<CorpusEntry>, CampaignError> {
    entry_names(corpus_dir)?
        .iter()
        .map(|name| load_one(corpus_dir, name))
        .collect()
}

/// The name of the existing entry whose [`entry_fingerprint`] equals
/// `fp`, if any — the dedup probe. Reads the `design_fp` meta field.
fn find_by_fingerprint(corpus_dir: &Path, fp: u64) -> Result<Option<String>, CampaignError> {
    for name in entry_names(corpus_dir)? {
        let meta_path = corpus_dir.join(format!("{name}.json"));
        let corrupt = |e: String| CampaignError::Corrupt(format!("{}: {e}", meta_path.display()));
        let meta = Json::parse(&std::fs::read_to_string(&meta_path)?).map_err(corrupt)?;
        if stored_fingerprint(&meta).map_err(corrupt)? == fp {
            return Ok(Some(name));
        }
    }
    Ok(None)
}

/// The entry fingerprint a meta document records as `design_fp`, in the
/// one form [`render`] writes: exactly 16 lowercase hex digits.
fn stored_fingerprint(meta: &Json) -> Result<u64, String> {
    meta.get("design_fp")
        .and_then(Json::as_str)
        .filter(|h| h.len() == 16 && h.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')))
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| "design_fp is missing or not 16 lowercase hex digits".into())
}

fn load_one(corpus_dir: &Path, name: &str) -> Result<CorpusEntry, CampaignError> {
    let files = CorpusFiles::read(corpus_dir, name)?;
    entry_from_files(name, &files)
        .map_err(|e| CampaignError::Corrupt(format!("{}/{e}", corpus_dir.display())))
}

/// Parses and validates entry `name` from its files: the metadata schema,
/// the stored `design_fp` against the scenario files, and the stored
/// checkpoint against the reference state recomputed over the entry's
/// design, byte for byte.
///
/// # Errors
///
/// A message naming the broken rule.
pub fn entry_from_files(name: &str, files: &CorpusFiles) -> Result<CorpusEntry, String> {
    let meta = Json::parse(&files.meta).map_err(|e| format!("{name}.json: {e}"))?;
    let corrupt = |m: String| format!("{name}.json: {m}");
    match meta.get("format").and_then(Json::as_str) {
        Some(FORMAT) => {}
        other => {
            return Err(corrupt(format!(
                "unsupported corpus format {other:?} (expected {FORMAT:?})"
            )))
        }
    }
    let num = |field: &str| {
        meta.get(field)
            .and_then(Json::as_u64)
            .ok_or_else(|| corrupt(format!("missing numeric field {field:?}")))
    };
    let divergence = meta
        .get("divergence")
        .ok_or_else(|| corrupt("missing divergence".into()))?;
    let provenance = meta
        .get("provenance")
        .ok_or_else(|| corrupt("missing provenance".into()))?;
    let engines = meta
        .get("engines")
        .and_then(Json::as_arr)
        .ok_or_else(|| corrupt("missing engines".into()))?
        .iter()
        .map(|e| {
            e.as_str()
                .map(str::to_string)
                .ok_or_else(|| corrupt("engine names must be strings".into()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let input = parse_stimulus(&files.stim).map_err(|e| format!("{name}.stim: {e}"))?;
    let entry = CorpusEntry {
        name: name.to_string(),
        scenario: Scenario {
            name: format!("corpus/{name}"),
            source: files.asim.clone(),
            cycles: num("cycles")?,
            input,
        },
        engines,
        compare_every: num("compare_every")?,
        cycle: divergence
            .get("cycle")
            .and_then(Json::as_u64)
            .ok_or_else(|| corrupt("missing divergence.cycle".into()))?,
        kind: divergence
            .get("kind")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| corrupt("missing divergence.kind".into()))?,
        seed: provenance
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or_else(|| corrupt("missing provenance.seed".into()))?,
        size: provenance
            .get("size")
            .and_then(Json::as_u64)
            .and_then(|s| usize::try_from(s).ok())
            .ok_or_else(|| corrupt("missing provenance.size".into()))?,
    };

    // The reference replay below runs to the divergence cycle, so one
    // past the horizon would run a garbage number of cycles.
    if entry.cycle > entry.scenario.cycles {
        return Err(corrupt(format!(
            "divergence.cycle {} is past the horizon of {} cycles",
            entry.cycle, entry.scenario.cycles
        )));
    }

    // Integrity: the stored entry fingerprint must match the sibling
    // files it claims to describe.
    if stored_fingerprint(&meta).map_err(corrupt)? != entry_fingerprint(&entry.scenario) {
        return Err(corrupt(
            "entry fingerprint (design_fp) does not match the scenario files".into(),
        ));
    }

    // Integrity: the stored checkpoint must load over this entry's design
    // (the fingerprint ties .ckpt to .asim) and match the recomputed
    // reference state byte-for-byte.
    let design = entry
        .scenario
        .design()
        .map_err(|e| corrupt(format!("scenario does not elaborate: {e}")))?;
    let stored = files.ckpt.as_bytes();
    read_checkpoint(&design, &mut &stored[..]).map_err(|e| format!("{name}.ckpt: {e}"))?;
    if reference_checkpoint(&design, &entry)? != stored {
        return Err(format!(
            "{name}.ckpt: reference state differs from the recorded checkpoint"
        ));
    }
    Ok(entry)
}

/// How one corpus entry replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayOutcome {
    /// The divergence reproduced.
    Reproduced {
        /// First divergent cycle observed now.
        cycle: u64,
        /// Divergence kind label observed now.
        kind: String,
    },
    /// The lanes agreed over the full horizon — the recorded bug no
    /// longer reproduces.
    Clean,
    /// The lanes halted unanimously before the horizon.
    Halted {
        /// The halt rendered for the report.
        detail: String,
    },
}

/// One corpus entry's replay result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayResult {
    /// Entry name.
    pub name: String,
    /// Expected divergence (`cycle`, `kind`) from the metadata.
    pub expected: (u64, String),
    /// What happened now.
    pub outcome: ReplayOutcome,
    /// Per-lane statistics from the replay run, for lanes whose engines
    /// keep them.
    pub lane_stats: Vec<LaneAccess>,
}

/// A corpus replay sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Per-entry results, in name order.
    pub results: Vec<ReplayResult>,
}

impl ReplayReport {
    /// Entries whose divergence reproduced.
    pub fn reproduced(&self) -> impl Iterator<Item = &ReplayResult> {
        self.results
            .iter()
            .filter(|r| matches!(r.outcome, ReplayOutcome::Reproduced { .. }))
    }

    /// `true` when no entry reproduced its divergence (every recorded bug
    /// is fixed) and nothing halted.
    pub fn clean(&self) -> bool {
        self.results
            .iter()
            .all(|r| matches!(r.outcome, ReplayOutcome::Clean))
    }
}

impl std::fmt::Display for ReplayReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for r in &self.results {
            let status = match &r.outcome {
                ReplayOutcome::Reproduced { cycle, kind } => {
                    format!("REPRODUCED at cycle {cycle} ({kind})")
                }
                ReplayOutcome::Clean => "clean (bug no longer reproduces)".to_string(),
                ReplayOutcome::Halted { detail } => format!("halted: {detail}"),
            };
            writeln!(f, "  corpus/{:<16} {status}", r.name)?;
        }
        for totals in crate::runner::aggregate_lanes(self.results.iter().map(|r| &r.lane_stats[..]))
        {
            writeln!(
                f,
                "  replay lane {}: {} entries, {} cycles, {} accesses",
                totals.lane, totals.cases, totals.cycles, totals.accesses
            )?;
        }
        writeln!(
            f,
            "corpus replay: {} entries, {} reproduced",
            self.results.len(),
            self.reproduced().count(),
        )
    }
}

/// Replays corpus entries across the named lanes (each entry's own
/// recorded engine list when `engines` is `None`).
///
/// # Errors
///
/// Lane construction failures; reproduction is part of the report.
pub fn replay(
    registry: &rtl_core::EngineRegistry,
    entries: &[CorpusEntry],
    engines: Option<&[String]>,
) -> Result<ReplayReport, CampaignError> {
    let mut results = Vec::with_capacity(entries.len());
    for entry in entries {
        let lanes: Vec<String> = match engines {
            Some(list) => list.to_vec(),
            None => entry.engines.clone(),
        };
        let options = CosimOptions {
            compare_every: entry.compare_every.max(1),
            ..CosimOptions::default()
        };
        let outcome = rtl_cosim::run_scenario_names(registry, &lanes, &entry.scenario, &options)
            .map_err(CampaignError::from)?;
        let result = ScenarioResult::new(entry.name.clone(), outcome);
        let outcome = match &result.divergence {
            Some(report) => ReplayOutcome::Reproduced {
                cycle: result.cycles,
                kind: kind_label(&report.kind),
            },
            None => match result.stop.into_error() {
                None => ReplayOutcome::Clean,
                Some(e) => ReplayOutcome::Halted {
                    detail: e.to_string(),
                },
            },
        };
        results.push(ReplayResult {
            name: result.name,
            expected: (entry.cycle, entry.kind.clone()),
            outcome,
            lane_stats: result.stats.iter().map(LaneAccess::from).collect(),
        });
    }
    Ok(ReplayReport { results })
}

fn render_stimulus(words: &[Word]) -> String {
    let mut out = String::new();
    for w in words {
        out.push_str(&w.to_string());
        out.push('\n');
    }
    out
}

fn parse_stimulus(text: &str) -> Result<Vec<Word>, String> {
    text.split_ascii_whitespace()
        .map(|w| {
            w.parse::<Word>()
                .map_err(|_| format!("bad stimulus word {w:?}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shrink::shrink_divergence;
    use rtl_cosim::fault::FaultyVmFactory;
    use rtl_cosim::GenOptions;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("asim2-corpus-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fault_registry() -> rtl_core::EngineRegistry {
        let mut r = rtl_cosim::default_registry();
        r.register(Box::new(FaultyVmFactory::from_cycle(10)));
        r
    }

    fn engines() -> Vec<String> {
        vec!["interp".into(), "vm-fault".into()]
    }

    fn shrunk_fault_case(seed: u64) -> Shrunk {
        shrink_divergence(
            &fault_registry(),
            &engines(),
            seed,
            &GenOptions {
                size: 12,
                cycles: 32,
                ..GenOptions::default()
            },
            &CosimOptions::default(),
        )
        .unwrap()
        .expect("fault diverges")
    }

    #[test]
    fn save_load_replay_round_trip() {
        let dir = scratch("roundtrip");
        let shrunk = shrunk_fault_case(3);
        let saved = save(&dir, &shrunk, &engines(), 1).unwrap();
        assert_eq!(saved.name, "seed-3");
        for ext in ["asim", "stim", "ckpt", "json"] {
            assert!(dir.join(format!("seed-3.{ext}")).is_file(), "{ext} missing");
        }

        let loaded = load_all(&dir).unwrap();
        assert_eq!(loaded, vec![saved.clone()]);

        // Replaying with the faulty lane reproduces the divergence…
        let report = replay(&fault_registry(), &loaded, None).unwrap();
        assert_eq!(report.reproduced().count(), 1);
        assert!(!report.clean());
        match &report.results[0].outcome {
            ReplayOutcome::Reproduced { cycle, kind } => {
                assert_eq!(*cycle, saved.cycle);
                assert_eq!(*kind, saved.kind);
            }
            other => panic!("{other:?}"),
        }

        // …and replaying against the healthy VM comes back clean: the
        // archived scenario waits for a real regression.
        let healthy: Vec<String> = vec!["interp".into(), "vm".into()];
        let report = replay(&fault_registry(), &loaded, Some(&healthy)).unwrap();
        assert!(report.clean(), "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_designs_are_archived_once() {
        let dir = scratch("dedup");
        let shrunk = shrunk_fault_case(7);
        let first = save(&dir, &shrunk, &engines(), 1).unwrap();

        // The same shrunk divergence arriving again (a later campaign
        // re-finding the bug, or a shard merge folding overlapping
        // corpora) returns the existing entry instead of re-archiving.
        let again = save(&dir, &shrunk, &engines(), 1).unwrap();
        assert_eq!(again, first);

        // A differently-*named* duplicate (same scenario under another
        // seed label) still dedups: the key is the scenario content.
        let mut renamed = shrunk.clone();
        renamed.seed = 999_999;
        let deduped = save(&dir, &renamed, &engines(), 1).unwrap();
        assert_eq!(deduped.name, first.name, "existing entry wins");
        assert!(!dir.join("seed-999999.json").exists(), "no duplicate files");
        assert_eq!(load_all(&dir).unwrap().len(), 1);

        // A genuinely different scenario is archived alongside.
        let other = shrunk_fault_case(8);
        assert_ne!(
            entry_fingerprint(&other.scenario),
            entry_fingerprint(&shrunk.scenario)
        );
        save(&dir, &other, &engines(), 1).unwrap();
        assert_eq!(load_all(&dir).unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_entries_are_rejected() {
        let dir = scratch("tamper");
        let shrunk = shrunk_fault_case(4);
        save(&dir, &shrunk, &engines(), 1).unwrap();

        // Swap the specification for a different design: the stored
        // checkpoint's fingerprint no longer matches.
        let asim = dir.join("seed-4.asim");
        let source = std::fs::read_to_string(&asim).unwrap();
        std::fs::write(&asim, "# other\nx .\nA x 2 1 0 .").unwrap();
        let err = load_all(&dir).unwrap_err();
        assert!(
            err.to_string().contains("fingerprint") || err.to_string().contains("checkpoint"),
            "{err}"
        );
        std::fs::write(&asim, source).unwrap();
        assert_eq!(load_all(&dir).unwrap().len(), 1);

        // A missing, non-hex or numeric design_fp is refused at load, as a
        // shard merge refuses it, and stops the dedup probe too.
        let meta_path = dir.join("seed-4.json");
        let other = shrunk_fault_case(5);
        let Json::Obj(pairs) = Json::parse(&std::fs::read_to_string(&meta_path).unwrap()).unwrap()
        else {
            panic!("the meta is an object")
        };
        let with_design_fp = |value: Option<Json>| {
            let pairs = pairs.iter().filter_map(|(key, v)| match key.as_str() {
                "design_fp" => value.clone().map(|value| (key.clone(), value)),
                _ => Some((key.clone(), v.clone())),
            });
            Json::Obj(pairs.collect()).render()
        };
        for tampered in [
            with_design_fp(None),
            with_design_fp(Some(Json::str("zz"))),
            with_design_fp(Some(Json::num(12345u64))),
        ] {
            std::fs::write(&meta_path, &tampered).unwrap();
            let err = load_all(&dir).unwrap_err().to_string();
            assert!(err.contains("design_fp"), "{err}");
            let err = save(&dir, &other, &engines(), 1).unwrap_err();
            assert!(err.to_string().contains("design_fp"), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_corpus_directory_is_empty() {
        assert!(load_all(Path::new("/nonexistent/corpus"))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn interrupted_write_leftovers_do_not_poison_the_corpus() {
        let dir = scratch("leftover");
        let shrunk = shrunk_fault_case(6);
        save(&dir, &shrunk, &engines(), 1).unwrap();
        // A kill between write and rename leaves the temp sibling behind.
        std::fs::write(dir.join(".tmp-999-seed-9.json"), "{").unwrap();
        let loaded = load_all(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].name, "seed-6");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stimulus_text_round_trips() {
        assert_eq!(parse_stimulus("1\n-7\n300\n").unwrap(), vec![1, -7, 300]);
        assert_eq!(parse_stimulus("").unwrap(), Vec::<Word>::new());
        assert!(parse_stimulus("1 nope").is_err());
        assert_eq!(render_stimulus(&[5, -2]), "5\n-2\n");
    }
}
