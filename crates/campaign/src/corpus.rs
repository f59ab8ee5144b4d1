//! The persistent divergence corpus: every bug a campaign ever found,
//! kept as a minimal, replayable regression scenario.
//!
//! One entry is four documents:
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
//! A campaign keeps each entry as one checksummed frame in a log
//! ([`caselog`]): its body leads with the entry's [`entry_fingerprint`]
//! and carries the entry name and the four documents verbatim
//! ([`encode_entry`]). A run's writers append it to `cases/worker-N.log`
//! in the bundle of the case that found it; compaction streams every
//! entry, in name order, into `corpus/corpus.log` ([`CANONICAL`]). A
//! `corpus.log` copied into another campaign's `corpus/` pre-seeds it.
//! `asim2 campaign export` renders each entry back out as the four files
//! above.
//!
//! Archiving is deduplicated by fingerprint against a [`CorpusIndex`]
//! built once per run from one [scan](Frames::scan) of the logs, which
//! sees entries wherever they are. When two frames carry one name, the
//! later one ([`Frames::logs`] order) replaces the earlier, as a later
//! file replaced an earlier one.
//!
//! The `.ckpt` document reuses [`rtl_core::write_checkpoint`] verbatim:
//! its design fingerprint ties the checkpoint to the `.asim` beside it (a
//! corrupted or mismatched entry is rejected on load), and replays verify
//! the recomputed reference state byte-for-byte before trusting the entry.

use crate::bundle::{BundleEntry, CorpusFiles};
use crate::caselog::{self, Frames, Kind, FRAME_CAP, HEADER};
use crate::error::CampaignError;
use crate::shrink::Shrunk;
use crate::state::{CampaignDir, LaneAccess};
use rtl_core::{read_checkpoint, write_checkpoint, Design, Session, Until, Word};
use rtl_cosim::{CosimOptions, DivergenceKind, ScenarioResult};
use rtl_interp::Interpreter;
use rtl_machines::Scenario;
use rtl_obs::json::Json;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::SystemTime;

/// The corpus metadata format line; bump on breaking changes.
pub const FORMAT: &str = "asim2-corpus v1";

/// The canonical corpus log's file name under `corpus/`.
pub const CANONICAL: &str = "corpus.log";

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

/// Whether `name` is a plain file stem: an entry name becomes file names
/// when the corpus is exported, so nothing may escape the directory or
/// shadow a temp sibling.
pub fn plain_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

/// A corpus frame's body: the entry fingerprint (`u64`, little-endian),
/// then the name and the `.asim`, `.stim`, `.ckpt` and `.json` documents,
/// each as a `u32` little-endian byte length and its UTF-8 text.
///
/// # Errors
///
/// A document too long for a frame.
pub fn encode_entry(fingerprint: u64, name: &str, files: &CorpusFiles) -> io::Result<Vec<u8>> {
    let mut body = fingerprint.to_le_bytes().to_vec();
    for text in std::iter::once(name).chain(files.documents().map(|(_, text)| text)) {
        let len = u32::try_from(text.len())
            .ok()
            .filter(|&len| len <= FRAME_CAP)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("corpus entry {name} has a document over the frame cap"),
                )
            })?;
        body.extend_from_slice(&len.to_le_bytes());
        body.extend_from_slice(text.as_bytes());
    }
    Ok(body)
}

/// Decodes a corpus frame's body ([`encode_entry`]): the fingerprint,
/// the entry name and its documents. Every length is checked against
/// the bytes that remain, and against [`FRAME_CAP`], before anything is
/// allocated for it.
///
/// # Errors
///
/// A message naming the truncated, over-long, non-UTF-8 or missing part,
/// bytes after the last document, or a name that is not a plain file
/// stem.
pub fn decode_entry(body: &[u8]) -> Result<(u64, String, CorpusFiles), String> {
    let (fingerprint, mut rest) = match body.split_first_chunk::<8>() {
        Some((head, rest)) => (u64::from_le_bytes(*head), rest),
        None => return Err("the body is too short for its fingerprint".into()),
    };
    let mut text = |what: &str| -> Result<String, String> {
        let Some((len, after)) = rest.split_first_chunk::<4>() else {
            return Err(format!("the body ends before the {what}"));
        };
        let len = u32::from_le_bytes(*len);
        if len > FRAME_CAP || len as usize > after.len() {
            return Err(format!(
                "the {what} claims {len} bytes, {} remain",
                after.len()
            ));
        }
        let (bytes, after) = after.split_at(len as usize);
        rest = after;
        std::str::from_utf8(bytes)
            .map(str::to_string)
            .map_err(|_| format!("the {what} is not UTF-8"))
    };
    let name = text("name")?;
    let files = CorpusFiles {
        asim: text(".asim")?,
        stim: text(".stim")?,
        ckpt: text(".ckpt")?,
        meta: text(".json")?,
    };
    if !rest.is_empty() {
        return Err(format!("{} bytes follow the last document", rest.len()));
    }
    if !plain_name(&name) {
        return Err(format!("entry name {name:?} is not a plain file stem"));
    }
    Ok((fingerprint, name, files))
}

/// Checks one corpus frame for a scan ([`Frames::scan`]): it is keyed 0,
/// its body decodes, and its metadata's `design_fp` is the fingerprint
/// the body leads with. Returns the entry's name and fingerprint.
pub(crate) fn check_frame(key: u32, body: &[u8]) -> Result<(String, u64), String> {
    if key != 0 {
        return Err(format!("it is keyed {key}, not 0"));
    }
    let (fingerprint, name, files) = decode_entry(body)?;
    let meta = Json::parse(&files.meta).map_err(|m| format!("{name}.json: {m}"))?;
    if stored_fingerprint(&meta).map_err(|m| format!("{name}.json: {m}"))? != fingerprint {
        return Err(format!(
            "{name}.json: design_fp is not the fingerprint its frame is keyed by"
        ));
    }
    Ok((name, fingerprint))
}

/// The corpus entries a scan located, by name.
impl Frames {
    /// Every entry name, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Every entry's fingerprint, in name order.
    pub fn fingerprints(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.values().map(|located| located.fingerprint)
    }

    /// The deduplication index of the entries: fingerprint → name.
    pub fn index(&self) -> CorpusIndex {
        let by_fingerprint = self
            .entries
            .iter()
            .map(|(name, located)| (located.fingerprint, name.clone()))
            .collect();
        CorpusIndex(Mutex::new(by_fingerprint))
    }

    /// Entry `name`, read back from its log; `None` when there is no
    /// such entry.
    ///
    /// # Errors
    ///
    /// A frame that changed since the scan, or file-system failure.
    pub fn entry(&self, name: &str) -> Result<Option<BundleEntry>, CampaignError> {
        let Some(located) = self.entries.get(name) else {
            return Ok(None);
        };
        let mut reread = self.reread();
        let (_, _, files) =
            decode_entry(&reread.frame(&located.at)?[HEADER..]).map_err(CampaignError::Corrupt)?;
        Ok(Some(BundleEntry {
            name: name.to_string(),
            fingerprint: format!("{:016x}", located.fingerprint),
            files,
        }))
    }

    /// Reads every entry's documents back, in name order, for `each`.
    ///
    /// # Errors
    ///
    /// A frame that changed since the scan, an error from `each`, or
    /// file-system failure.
    pub fn each_entry(
        &self,
        mut each: impl FnMut(&str, CorpusFiles) -> Result<(), CampaignError>,
    ) -> Result<(), CampaignError> {
        let mut reread = self.reread();
        for (name, located) in &self.entries {
            let (_, _, files) = decode_entry(&reread.frame(&located.at)?[HEADER..])
                .map_err(CampaignError::Corrupt)?;
            each(name, files)?;
        }
        Ok(())
    }

    /// Loads every entry, sorted by name, each validated by
    /// [`entry_from_files`].
    ///
    /// # Errors
    ///
    /// A corrupt entry, or file-system failure.
    pub fn load_all(&self) -> Result<Vec<CorpusEntry>, CampaignError> {
        let mut entries = Vec::with_capacity(self.entries.len());
        self.each_entry(|name, files| {
            let entry = entry_from_files(name, &files).map_err(|e| {
                let log = &self.logs[self.entries[name].at.log];
                CampaignError::Corrupt(format!("{}: {e}", log.display()))
            })?;
            entries.push(entry);
            Ok(())
        })?;
        Ok(entries)
    }
}

/// The deduplication index of a corpus: entry fingerprint → entry name.
/// Built once per run from one scan ([`Frames::index`]), shared by
/// every thread that archives, and grown as they archive.
#[derive(Debug, Default)]
pub struct CorpusIndex(Mutex<HashMap<u64, String>>);

impl CorpusIndex {
    /// The name of the entry archived under `fingerprint`, if any.
    pub fn name_of(&self, fingerprint: u64) -> Option<String> {
        self.lock().get(&fingerprint).cloned()
    }

    /// Records `name` under `fingerprint`, unless an entry is already
    /// archived under it: then that entry's name.
    pub fn claim(&self, fingerprint: u64, name: &str) -> Option<String> {
        let mut map = self.lock();
        if let Some(existing) = map.get(&fingerprint) {
            return Some(existing.clone());
        }
        map.insert(fingerprint, name.to_string());
        None
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, String>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// What archiving a shrunk divergence comes to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Archive {
    /// An entry with the same [`entry_fingerprint`] is already archived,
    /// under this name.
    Existing(String),
    /// A new entry, and the documents its frame carries.
    New(Box<CorpusEntry>, BundleEntry),
}

impl Archive {
    /// The name of the entry that holds the divergence.
    pub fn name(&self) -> &str {
        match self {
            Archive::Existing(name) => name,
            Archive::New(entry, _) => &entry.name,
        }
    }
}

/// Saves a shrunk divergence into the corpus directory — unless an entry
/// with the same [`entry_fingerprint`] already exists, in which case the
/// existing entry is returned instead of archiving a duplicate (merged
/// shard corpora and long campaigns re-finding a known bug would
/// otherwise accumulate identical reproductions under different names).
///
/// `corpus_dir` is a campaign directory's `corpus/`: the entries still
/// in the campaign's case logs count too. Outside a run, a new entry is
/// one frame appended, unsynced, to this process's direct corpus log.
/// The process keeps one [`CorpusIndex`] per directory, built from one
/// scan and rebuilt only when a log that can hold entries changed under
/// it, so a save costs one directory listing, not a read of every entry.
///
/// # Errors
///
/// A corrupt existing corpus, file-system failure, or a reference run
/// that stops before the divergence cycle.
pub fn save(
    corpus_dir: &Path,
    shrunk: &Shrunk,
    engines: &[String],
    compare_every: u64,
) -> Result<CorpusEntry, CampaignError> {
    static DIRECT: Mutex<BTreeMap<PathBuf, Direct>> = Mutex::new(BTreeMap::new());
    let dir = CampaignDir::new(corpus_dir.parent().unwrap_or(Path::new("")));
    let scan = || Frames::scan(&dir, 0..0, &[Kind::Corpus], |_, _| Ok(()));
    let mut direct = DIRECT.lock().unwrap_or_else(PoisonError::into_inner);
    let seen = log_states(&dir)?;
    let current = match direct.get(corpus_dir) {
        Some(cached) if cached.seen == seen => cached,
        _ => {
            let index = scan()?.index();
            direct.insert(corpus_dir.to_path_buf(), Direct { seen, index });
            &direct[corpus_dir]
        }
    };
    match render(&current.index, shrunk, engines, compare_every)? {
        Archive::New(entry, new) => {
            let appended = new.body().and_then(|body| {
                std::fs::create_dir_all(corpus_dir)?;
                caselog::append_direct(corpus_dir, Kind::Corpus, 0, &body)
            });
            match appended
                .map_err(CampaignError::from)
                .and_then(|()| log_states(&dir))
            {
                Ok(seen) => {
                    if let Some(cached) = direct.get_mut(corpus_dir) {
                        cached.seen = seen;
                    }
                    Ok(*entry)
                }
                Err(e) => {
                    // The index claimed an entry that may not be there.
                    direct.remove(corpus_dir);
                    Err(e)
                }
            }
        }
        Archive::Existing(name) => {
            let existing = scan()?.entry(&name)?.ok_or_else(|| {
                CampaignError::Corrupt(format!(
                    "{}: corpus entry {name} went missing",
                    corpus_dir.display()
                ))
            })?;
            entry_from_files(&name, &existing.files)
                .map_err(|e| CampaignError::Corrupt(format!("{}: {e}", corpus_dir.display())))
        }
    }
}

/// What [`save`] keeps per corpus directory: the logs there as it last
/// saw them, and their index.
struct Direct {
    seen: Vec<(PathBuf, u64, Option<SystemTime>)>,
    index: CorpusIndex,
}

/// Every log of `dir` that can hold a corpus entry, with its length and
/// modification time. The direct logs under `cases/` hold records only
/// ([`CampaignDir::write_case`]), so a record published between two
/// saves does not cost the next one a rescan.
fn log_states(dir: &CampaignDir) -> Result<Vec<(PathBuf, u64, Option<SystemTime>)>, CampaignError> {
    let cases = dir.cases();
    Frames::logs(dir)?
        .into_iter()
        .filter(|log| !(log.starts_with(&cases) && caselog::is_direct(log)))
        .map(|log| {
            let meta = std::fs::metadata(&log)?;
            Ok((log, meta.len(), meta.modified().ok()))
        })
        .collect()
}

/// [`save`] without the write: the existing entry's name when `index`
/// already holds the divergence's [`entry_fingerprint`], else the new
/// entry and its documents, claimed in `index`. The documents include
/// the reference checkpoint: the `interp` engine's architectural state
/// after the verified prefix (the cycles *before* the divergence), in the
/// session checkpoint format, run over [`Shrunk::design`] (the scenario
/// text is not parsed back).
///
/// # Errors
///
/// A reference run that stops before the divergence cycle.
pub fn render(
    index: &CorpusIndex,
    shrunk: &Shrunk,
    engines: &[String],
    compare_every: u64,
) -> Result<Archive, CampaignError> {
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
    if let Some(existing) = index.name_of(fp) {
        return Ok(Archive::Existing(existing));
    }
    let ckpt = reference_checkpoint(&shrunk.design, &entry).map_err(CampaignError::Corrupt)?;
    let ckpt = String::from_utf8(ckpt)
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
    let bundled = BundleEntry {
        name: entry.name.clone(),
        fingerprint,
        files: CorpusFiles {
            asim: entry.scenario.source.clone(),
            stim: render_stimulus(&entry.scenario.input),
            ckpt,
            meta: meta.render(),
        },
    };
    if let Some(existing) = index.claim(fp, &entry.name) {
        return Ok(Archive::Existing(existing));
    }
    Ok(Archive::New(Box::new(entry), bundled))
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

/// The entry fingerprint a meta document records as `design_fp`, in the
/// one form [`render`] writes: exactly 16 lowercase hex digits.
fn stored_fingerprint(meta: &Json) -> Result<u64, String> {
    meta.get("design_fp")
        .and_then(Json::as_str)
        .filter(|h| h.len() == 16 && h.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')))
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| "design_fp is missing or not 16 lowercase hex digits".into())
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

    /// A fresh campaign directory with empty `cases/` and `corpus/`.
    fn scratch(name: &str) -> CampaignDir {
        let dir = CampaignDir::new(
            std::env::temp_dir().join(format!("asim2-corpus-{}-{name}", std::process::id())),
        );
        let _ = std::fs::remove_dir_all(dir.root());
        std::fs::create_dir_all(dir.cases()).unwrap();
        std::fs::create_dir_all(dir.corpus()).unwrap();
        dir
    }

    fn scan(dir: &CampaignDir) -> Result<Frames, CampaignError> {
        Frames::scan(dir, 0..0, &[Kind::Corpus], |_, _| Ok(()))
    }

    fn load_all(dir: &CampaignDir) -> Result<Vec<CorpusEntry>, CampaignError> {
        scan(dir)?.load_all()
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

    /// The entry a fresh index archives for `seed`'s divergence.
    fn rendered(seed: u64) -> BundleEntry {
        let archive = render(
            &CorpusIndex::default(),
            &shrunk_fault_case(seed),
            &engines(),
            1,
        );
        let Archive::New(_, entry) = archive.unwrap() else {
            panic!("an empty index archives anew")
        };
        entry
    }

    /// `entry`'s corpus frame, named `name` and keyed `key`.
    fn frame(entry: &BundleEntry, name: &str, key: u32) -> Vec<u8> {
        let fingerprint = u64::from_str_radix(&entry.fingerprint, 16).unwrap();
        let body = encode_entry(fingerprint, name, &entry.files).unwrap();
        let mut frame = Vec::new();
        caselog::encode_frame(Kind::Corpus, key, &body, &mut frame).unwrap();
        frame
    }

    /// The files directly under `dir`.
    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// Replaces the corpus of `dir` with one canonical log holding one
    /// entry, framed under `fingerprint`.
    fn rewrite(dir: &CampaignDir, fingerprint: u64, name: &str, files: &CorpusFiles) {
        let mut log = Vec::new();
        let body = encode_entry(fingerprint, name, files).unwrap();
        caselog::encode_frame(Kind::Corpus, 0, &body, &mut log).unwrap();
        for name in listing(&dir.corpus()) {
            std::fs::remove_file(dir.corpus().join(name)).unwrap();
        }
        std::fs::write(dir.corpus().join(CANONICAL), log).unwrap();
    }

    #[test]
    fn save_load_replay_round_trip() {
        let dir = scratch("roundtrip");
        let shrunk = shrunk_fault_case(3);
        let saved = save(&dir.corpus(), &shrunk, &engines(), 1).unwrap();
        assert_eq!(saved.name, "seed-3");
        // One frame in this process's direct log, and no file per entry.
        let files = listing(&dir.corpus());
        assert_eq!(files.len(), 1, "{files:?}");
        assert!(files[0].starts_with("worker-p") && files[0].ends_with(".log"));
        let frames = scan(&dir).unwrap();
        assert_eq!(frames.names().collect::<Vec<_>>(), ["seed-3"]);
        assert_eq!(frames.entry("seed-3").unwrap(), Some(rendered(3)));

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

        // Compaction leaves the one canonical log, and loads the same.
        dir.compact(0).unwrap();
        assert_eq!(listing(&dir.corpus()), [CANONICAL]);
        assert_eq!(load_all(&dir).unwrap(), vec![saved]);
        let _ = std::fs::remove_dir_all(dir.root());
    }

    #[test]
    fn duplicate_designs_are_archived_once() {
        let dir = scratch("dedup");
        let shrunk = shrunk_fault_case(7);
        let first = save(&dir.corpus(), &shrunk, &engines(), 1).unwrap();

        // The same shrunk divergence arriving again (a later campaign
        // re-finding the bug, or a shard merge folding overlapping
        // corpora) returns the existing entry instead of re-archiving.
        let again = save(&dir.corpus(), &shrunk, &engines(), 1).unwrap();
        assert_eq!(again, first);

        // A differently-*named* duplicate (same scenario under another
        // seed label) still dedups: the key is the scenario content.
        let mut renamed = shrunk.clone();
        renamed.seed = 999_999;
        let deduped = save(&dir.corpus(), &renamed, &engines(), 1).unwrap();
        assert_eq!(deduped.name, first.name, "existing entry wins");
        let frames = scan(&dir).unwrap();
        assert_eq!(
            frames.names().collect::<Vec<_>>(),
            ["seed-7"],
            "no duplicate"
        );
        assert_eq!(load_all(&dir).unwrap().len(), 1);

        // A genuinely different scenario is archived alongside.
        let other = shrunk_fault_case(8);
        assert_ne!(
            entry_fingerprint(&other.scenario),
            entry_fingerprint(&shrunk.scenario)
        );
        save(&dir.corpus(), &other, &engines(), 1).unwrap();
        assert_eq!(load_all(&dir).unwrap().len(), 2);

        // The index is built from the logs: a fresh one over a copy of
        // the compacted corpus deduplicates the same way.
        dir.compact(0).unwrap();
        let copy = scratch("dedup-copy");
        std::fs::copy(dir.corpus().join(CANONICAL), copy.corpus().join(CANONICAL)).unwrap();
        let index = scan(&copy).unwrap().index();
        let archive = render(&index, &renamed, &engines(), 1).unwrap();
        assert_eq!(archive, Archive::Existing("seed-7".into()));
        let _ = std::fs::remove_dir_all(dir.root());
        let _ = std::fs::remove_dir_all(copy.root());
    }

    /// An entry still in a case log, where a run's writer put it, is in
    /// the corpus for every reader, `save`'s index included.
    #[test]
    fn entries_in_case_logs_are_in_the_corpus() {
        let dir = scratch("case-logs");
        let entry = rendered(12);
        std::fs::write(
            dir.cases().join("worker-0.log"),
            frame(&entry, "seed-12", 0),
        )
        .unwrap();
        assert_eq!(scan(&dir).unwrap().names().collect::<Vec<_>>(), ["seed-12"]);
        let mut renamed = shrunk_fault_case(12);
        renamed.seed = 999_999;
        let saved = save(&dir.corpus(), &renamed, &engines(), 1).unwrap();
        assert_eq!(saved.name, "seed-12");
        assert_eq!(
            listing(&dir.corpus()),
            Vec::<String>::new(),
            "nothing saved"
        );
        let _ = std::fs::remove_dir_all(dir.root());
    }

    #[test]
    fn tampered_entries_are_rejected() {
        let dir = scratch("tamper");
        let shrunk = shrunk_fault_case(4);
        save(&dir.corpus(), &shrunk, &engines(), 1).unwrap();

        let frames = scan(&dir).unwrap();
        let fp = frames.fingerprints().next().unwrap();
        let good = frames.entry("seed-4").unwrap().unwrap().files;
        let tampered = |edit: &dyn Fn(&mut CorpusFiles)| {
            let mut files = good.clone();
            edit(&mut files);
            rewrite(&dir, fp, "seed-4", &files);
        };

        // Swap the specification for a different design: the stored
        // checkpoint's fingerprint no longer matches.
        tampered(&|files| files.asim = "# other\nx .\nA x 2 1 0 .".into());
        let err = load_all(&dir).unwrap_err();
        assert!(
            err.to_string().contains("fingerprint") || err.to_string().contains("checkpoint"),
            "{err}"
        );
        tampered(&|_| {});
        assert_eq!(load_all(&dir).unwrap().len(), 1);

        // A missing, non-hex or numeric design_fp, or one that is not the
        // frame's key, is refused at load, as a shard merge refuses it,
        // and stops deduplication too.
        let other = shrunk_fault_case(5);
        let Json::Obj(pairs) = Json::parse(&good.meta).unwrap() else {
            panic!("the meta is an object")
        };
        let with_design_fp = |value: Option<Json>| {
            let pairs = pairs.iter().filter_map(|(key, v)| match key.as_str() {
                "design_fp" => value.clone().map(|value| (key.clone(), value)),
                _ => Some((key.clone(), v.clone())),
            });
            Json::Obj(pairs.collect()).render()
        };
        for meta in [
            with_design_fp(None),
            with_design_fp(Some(Json::str("zz"))),
            with_design_fp(Some(Json::num(12345u64))),
            with_design_fp(Some(Json::str("0123456789abcdef"))),
        ] {
            tampered(&|files| files.meta = meta.clone());
            let err = load_all(&dir).unwrap_err().to_string();
            assert!(err.contains("design_fp"), "{err}");
            let err = save(&dir.corpus(), &other, &engines(), 1).unwrap_err();
            assert!(err.to_string().contains("design_fp"), "{err}");
        }
        let _ = std::fs::remove_dir_all(dir.root());
    }

    #[test]
    fn missing_corpus_directory_is_empty() {
        assert!(load_all(&CampaignDir::new("/nonexistent"))
            .unwrap()
            .is_empty());
    }

    /// What a kill leaves — half a frame at the end of a worker log, a
    /// compaction's temp file — is not an entry.
    #[test]
    fn torn_tails_and_temp_files_do_not_poison_the_corpus() {
        let dir = scratch("leftover");
        save(&dir.corpus(), &shrunk_fault_case(6), &engines(), 1).unwrap();
        let torn = frame(&rendered(9), "seed-9", 0);
        std::fs::write(dir.cases().join("worker-7.log"), &torn[..torn.len() / 2]).unwrap();
        std::fs::write(dir.corpus().join(format!(".tmp-999-{CANONICAL}")), "{").unwrap();
        let loaded = load_all(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].name, "seed-6");
        let _ = std::fs::remove_dir_all(dir.root());
    }

    /// A later frame for a name replaces an earlier one, as a later file
    /// replaced an earlier one; a corpus frame keyed like a case is
    /// refused.
    #[test]
    fn a_later_frame_for_a_name_replaces_an_earlier_one() {
        let dir = scratch("supersede");
        let (first, second) = (rendered(10), rendered(11));
        std::fs::write(dir.corpus().join(CANONICAL), frame(&first, "seed-10", 0)).unwrap();
        std::fs::write(
            dir.corpus().join("worker-1.log"),
            frame(&second, "seed-10", 0),
        )
        .unwrap();
        let frames = scan(&dir).unwrap();
        assert_eq!(frames.names().collect::<Vec<_>>(), ["seed-10"]);
        let entry = frames.entry("seed-10").unwrap().unwrap();
        assert_eq!(entry.files, second.files);
        let index = frames.index();
        let fp = |entry: &BundleEntry| u64::from_str_radix(&entry.fingerprint, 16).unwrap();
        assert_eq!(index.name_of(fp(&second)).as_deref(), Some("seed-10"));
        assert_eq!(index.name_of(fp(&first)), None);

        std::fs::write(
            dir.corpus().join("worker-2.log"),
            frame(&first, "seed-10", 3),
        )
        .unwrap();
        let err = scan(&dir).unwrap_err().to_string();
        assert!(err.contains("keyed 3, not 0"), "{err}");
        let _ = std::fs::remove_dir_all(dir.root());
    }

    #[test]
    fn stimulus_text_round_trips() {
        assert_eq!(parse_stimulus("1\n-7\n300\n").unwrap(), vec![1, -7, 300]);
        assert_eq!(parse_stimulus("").unwrap(), Vec::<Word>::new());
        assert!(parse_stimulus("1 nope").is_err());
        assert_eq!(render_stimulus(&[5, -2]), "5\n-2\n");
    }
}
