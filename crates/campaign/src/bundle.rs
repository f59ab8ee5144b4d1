//! One case's artifacts as one unit: the case record, its optional
//! profile and flight-recorder sidecars, and the corpus entry the record
//! names.
//!
//! Every surface moves case artifacts through this module. The runner
//! builds a bundle and [publishes](CaseBundle::publish) it; a shard
//! merge [reads](CaseBundle::read_range), [checks](CaseBundle::check) and
//! publishes each shard's bundles; the fleet worker reads its bundles and
//! uploads them, and the fleet controller checks and publishes what
//! arrives. So one set of refusal rules and one commit order hold for
//! campaign, shard and fleet alike.
//!
//! **Commit order.** A bundle is written sidecars → corpus entry →
//! record. Sidecars are files, each published atomically; the corpus
//! entry is one checksummed frame appended to the publishing thread's
//! corpus log, and the record one frame appended to its record log
//! ([`caselog`](crate::caselog)). The record frame is the commit point,
//! and the writer syncs its corpus log before its record log, so a
//! corpus entry is durable no later than the record that names it. A
//! case without a record is re-run, and because every artifact is a pure
//! function of `(config, index)`, a kill anywhere before the record frame
//! only leaves files that the re-run rewrites byte for byte, a whole
//! corpus frame that the re-run finds by its fingerprint and names again,
//! or a torn tail frame that the reader drops. Nothing ever commits a
//! record whose sidecars or corpus entry are not already written.
//!
//! Once a directory holds every case it owns, its worker logs are
//! compacted into the canonical `corpus/corpus.log`, one frame per entry
//! in name order, and `cases/cases.log`, one frame per case in index
//! order ([`CampaignDir::compact`]); a shard merge writes its output
//! logs the same way. `asim2 campaign export` renders the records and
//! the corpus entries back out as files.

use crate::caselog::{CaseFrames, LogWriter};
use crate::config::CampaignConfig;
use crate::corpus::{self, CorpusFrames};
use crate::error::CampaignError;
use crate::state::{CampaignDir, CaseRecord, CaseStatus};
use rtl_obs::json::Json;
use rtl_obs::write_atomic;
use std::io;
use std::ops::Range;
use std::path::Path;

/// The four documents of one corpus entry, as text (every corpus
/// artifact — spec, stimulus, session checkpoint, metadata — is a text
/// document).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusFiles {
    /// The shrunk `.asim` specification source.
    pub asim: String,
    /// The `.stim` stimulus script.
    pub stim: String,
    /// The `.ckpt` reference session checkpoint.
    pub ckpt: String,
    /// The `.json` entry metadata.
    pub meta: String,
}

impl CorpusFiles {
    /// The documents with the file extensions an export gives them, in
    /// the order a corpus frame carries them.
    pub fn documents(&self) -> [(&'static str, &str); 4] {
        [
            ("asim", &self.asim),
            ("stim", &self.stim),
            ("ckpt", &self.ckpt),
            ("json", &self.meta),
        ]
    }
}

/// The corpus entry a case record names: its files and the entry
/// fingerprint (hex) its producer claims for them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundleEntry {
    /// Entry name (`seed-N`), the file stem its documents export under.
    pub name: String,
    /// The claimed [`entry_fingerprint`](corpus::entry_fingerprint), hex.
    pub fingerprint: String,
    /// The entry's four documents.
    pub files: CorpusFiles,
}

impl BundleEntry {
    /// The body of the entry's corpus frame ([`corpus::encode_entry`]),
    /// keyed by its claimed fingerprint.
    ///
    /// # Errors
    ///
    /// A claimed fingerprint that is not hex, or a document too long for
    /// a frame.
    pub fn body(&self) -> io::Result<Vec<u8>> {
        let fingerprint = u64::from_str_radix(&self.fingerprint, 16).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("corpus entry {}: fingerprint is not hex", self.name),
            )
        })?;
        corpus::encode_entry(fingerprint, &self.name, &self.files)
    }
}

/// One case's artifacts, byte-verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseBundle {
    /// Global case index.
    pub index: u32,
    /// The case record's exact text.
    pub record: String,
    /// The execution-profile sidecar (`case-N.profile`), if any.
    pub profile: Option<String>,
    /// The flight-recorder sidecar (`case-N.flight.jsonl`), if any.
    pub flight: Option<String>,
    /// The corpus entry the record names, unless it is already published
    /// where the bundle goes.
    pub corpus: Option<BundleEntry>,
}

/// The seed the configuration derives for case `index`.
pub fn expected_seed(config: &CampaignConfig, index: u32) -> u64 {
    config.seed.wrapping_add(u64::from(index))
}

/// Validates one case record against the campaign configuration:
/// in-range index and the derived seed.
///
/// # Errors
///
/// A message naming the failed invariant.
pub fn check_record(config: &CampaignConfig, record: &CaseRecord) -> Result<(), String> {
    if record.index >= config.cases {
        return Err(format!(
            "case {} lies outside the campaign's {} case(s)",
            record.index, config.cases
        ));
    }
    let expected = expected_seed(config, record.index);
    if record.seed != expected {
        return Err(format!(
            "case {} records seed {}, the configuration derives {expected}",
            record.index, record.seed
        ));
    }
    Ok(())
}

/// Parses a case record from its text and validates it against the
/// configuration ([`check_record`]), additionally requiring the record to
/// describe the claimed `index`.
///
/// # Errors
///
/// Unparseable text, an index/claim mismatch, or a [`check_record`]
/// failure.
pub fn parse_record(config: &CampaignConfig, index: u32, text: &str) -> Result<CaseRecord, String> {
    let record = CaseRecord::from_json(&Json::parse(text)?)?;
    if record.index != index {
        return Err(format!(
            "record claims case {} but was uploaded for case {index}",
            record.index
        ));
    }
    check_record(config, &record)?;
    Ok(record)
}

impl CaseBundle {
    /// Reads the bundle of every case in `range` that has a record, in
    /// one scan of `dir`'s record logs ([`CaseFrames::scan`]): `each`
    /// gets the record, whichever sidecars exist and, given `dir`'s
    /// scanned `corpus`, the corpus entry the record names, in log order.
    /// Returns the scan, which locates every record frame.
    ///
    /// # Errors
    ///
    /// A corrupt log, a record that is not UTF-8, a record naming a
    /// corpus entry that is missing, an error from `each`, or I/O.
    pub fn read_range(
        dir: &CampaignDir,
        corpus: Option<&CorpusFrames>,
        cases: u32,
        range: Range<u32>,
        mut each: impl FnMut(CaseBundle) -> Result<(), CampaignError>,
    ) -> Result<CaseFrames, CampaignError> {
        CaseFrames::scan(dir, cases, range, |index, record| {
            let record = String::from_utf8(record.to_vec()).map_err(|_| {
                CampaignError::Corrupt(format!(
                    "{}: case {index}'s record is not UTF-8",
                    dir.cases().display()
                ))
            })?;
            each(CaseBundle::with_record(dir, corpus, index, record)?)
        })
    }

    /// Case `index`'s bundle around its record text: the sidecars on
    /// disk and, given the corpus, the entry the record names.
    fn with_record(
        dir: &CampaignDir,
        corpus: Option<&CorpusFrames>,
        index: u32,
        record: String,
    ) -> Result<CaseBundle, CampaignError> {
        // An unparseable record names no entry; `check` reports it.
        let named = corpus.and_then(|corpus| {
            let doc = Json::parse(&record).ok()?;
            Some((corpus, doc.get("corpus")?.as_str()?.to_string()))
        });
        let corpus = match named {
            None => None,
            Some((corpus, name)) => {
                let files = corpus.files(&name)?.ok_or_else(|| {
                    CampaignError::Corrupt(format!(
                        "{}: case {index} names corpus entry {name:?}, which is not there",
                        dir.corpus().display()
                    ))
                })?;
                let fingerprint = Json::parse(&files.meta)
                    .ok()
                    .and_then(|doc| {
                        doc.get("design_fp")
                            .and_then(Json::as_str)
                            .map(String::from)
                    })
                    .unwrap_or_default();
                Some(BundleEntry {
                    name,
                    fingerprint,
                    files,
                })
            }
        };
        Ok(CaseBundle {
            index,
            record,
            profile: read_optional(&dir.profile_path(index))?,
            flight: read_optional(&dir.flight_path(index))?,
            corpus,
        })
    }

    /// Checks every artifact before anything is published: the record
    /// describes this case, carries the seed `config` derives and is
    /// text in its canonical rendering; the profile sidecar parses, and only if the campaign collects profiles
    /// (`profile`); each flight line parses as an event, and only if the
    /// campaign arms the recorder (`flight`); and the corpus entry is the
    /// one the record names, under a plain file stem, loads with its
    /// reference checkpoint recomputed, and matches its claimed
    /// fingerprint. Returns the record and the entry's fingerprint.
    ///
    /// # Errors
    ///
    /// A message naming the offending record or file (relative to the
    /// campaign root) and the broken rule.
    pub fn check(
        &self,
        config: &CampaignConfig,
        profile: bool,
        flight: bool,
    ) -> Result<(CaseRecord, Option<u64>), String> {
        let at = CampaignDir::new("");
        let file = |path: std::path::PathBuf| path.display().to_string();
        let record_label = format!("{}: case {}", file(at.cases()), self.index);
        let record = parse_record(config, self.index, &self.record)
            .map_err(|e| format!("{record_label}: {e}"))?;
        // A published record's frame holds its canonical rendering, so
        // a frame's bytes stand for its record wherever it is compared.
        if record.to_json().render() != self.record {
            return Err(format!(
                "{record_label}: the record is not in its canonical rendering"
            ));
        }
        if let Some(text) = &self.profile {
            let path = file(at.profile_path(self.index));
            if !profile {
                return Err(format!(
                    "{path}: this campaign does not collect execution profiles"
                ));
            }
            rtl_core::Profile::parse(text).map_err(|e| format!("{path}: {e}"))?;
        }
        if let Some(text) = &self.flight {
            let path = file(at.flight_path(self.index));
            if !flight {
                return Err(format!(
                    "{path}: this campaign does not arm the flight recorder"
                ));
            }
            for (n, line) in text.lines().enumerate() {
                if !line.trim().is_empty() {
                    rtl_obs::Event::parse(line)
                        .map_err(|e| format!("{path}: line {}: {e}", n + 1))?;
                }
            }
        }
        let named = match &record.status {
            CaseStatus::Diverged { corpus, .. } => corpus.as_deref(),
            _ => None,
        };
        let fp = match (&self.corpus, named) {
            (None, None) => None,
            (None, Some(name)) => {
                return Err(format!(
                    "{record_label}: names corpus entry {name:?}, which did not come with it"
                ))
            }
            (Some(entry), Some(name)) if entry.name == name => {
                Some(check_entry(entry).map_err(|e| format!("{}/{e}", file(at.corpus())))?)
            }
            (Some(entry), _) => {
                return Err(format!(
                    "{record_label}: case {} does not name corpus entry {:?}",
                    self.index, entry.name
                ))
            }
        };
        Ok((record, fp))
    }

    /// Publishes the bundle into `log`'s directory in the commit order:
    /// [its sidecars](CaseBundle::publish_sidecars), the corpus frame,
    /// then the record frame.
    ///
    /// # Errors
    ///
    /// File-system failure.
    pub fn publish(&self, log: &mut LogWriter) -> io::Result<()> {
        self.publish_sidecars(log.dir())?;
        if let Some(entry) = &self.corpus {
            log.append_entry(&entry.body()?)?;
        }
        log.append(self.index, self.record.as_bytes())
    }

    /// Publishes the bundle's sidecar files into `dir`, the first step of
    /// the commit order. A shard merge calls it alone, then writes every
    /// corpus frame and every record frame into the canonical logs at
    /// once.
    ///
    /// # Errors
    ///
    /// File-system failure.
    pub fn publish_sidecars(&self, dir: &CampaignDir) -> io::Result<()> {
        if let Some(text) = &self.profile {
            write_atomic(&dir.profile_path(self.index), text.as_bytes())?;
        }
        if let Some(text) = &self.flight {
            write_atomic(&dir.flight_path(self.index), text.as_bytes())?;
        }
        Ok(())
    }
}

/// The corpus rules: a [plain file stem](corpus::plain_name), a full
/// load with the reference checkpoint recomputed, and the claimed
/// fingerprint.
fn check_entry(entry: &BundleEntry) -> Result<u64, String> {
    let name = &entry.name;
    if !corpus::plain_name(name) {
        return Err(format!("{name}: the entry name is not a plain file stem"));
    }
    let claimed = u64::from_str_radix(&entry.fingerprint, 16).map_err(|_| {
        format!(
            "{name}: claimed fingerprint {:?} is not hex",
            entry.fingerprint
        )
    })?;
    let loaded = corpus::entry_from_files(name, &entry.files)?;
    let fp = corpus::entry_fingerprint(&loaded.scenario);
    if fp != claimed {
        return Err(format!(
            "{name}: claimed fingerprint does not match the files"
        ));
    }
    Ok(fp)
}

/// A sidecar's text, or `None` when it does not exist.
fn read_optional(path: &Path) -> io::Result<Option<String>> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ok(Some(text)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}
