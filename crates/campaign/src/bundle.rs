//! One case's artifacts as one unit: the case record, its optional
//! profile and flight-recorder logs, and the corpus entry the record
//! names.
//!
//! Every surface moves case artifacts through this module. The runner
//! builds a bundle and [publishes](CaseBundle::publish) it; a shard
//! merge [reads](CaseBundle::read_range) and [checks](CaseBundle::check)
//! each shard's bundles; the fleet worker reads its bundles and uploads
//! them, and the fleet controller checks and publishes what arrives. So
//! one set of refusal rules and one commit order hold for campaign,
//! shard and fleet alike.
//!
//! **Commit order.** A bundle is one write to the publishing thread's
//! log ([`caselog`](crate::caselog)): the corpus frame, the profile
//! frame, the flight frame, then the record frame, which is the commit
//! point. A kill mid-write leaves whole frames and at most one torn
//! tail, which the reader drops. A case without a record is re-run, and
//! because every frame is a pure function of `(config, index)`, the
//! re-run writes the same bytes again: a leftover profile or flight
//! frame is an identical duplicate, and a leftover corpus frame is found
//! by its fingerprint and named again. Nothing ever commits a record
//! whose sidecars or corpus entry did not go out before it.
//!
//! Once a directory holds every case it owns, its worker logs are
//! compacted into the canonical `corpus/corpus.log`, one frame per entry
//! in name order, and `cases/cases.log`, each case's frames in index
//! order ([`CampaignDir::compact`]); a shard merge writes its output
//! logs the same way. `asim2 campaign export` renders the records,
//! sidecars and corpus entries back out as files.

use crate::caselog::{encode_frame, Frames, Kind, LogWriter};
use crate::config::CampaignConfig;
use crate::corpus;
use crate::error::CampaignError;
use crate::state::{CampaignDir, CaseRecord, CaseStatus};
use rtl_obs::json::Json;
use std::io;
use std::ops::Range;

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
    /// The execution profile, if any (exported as `case-N.profile`).
    pub profile: Option<String>,
    /// The flight-recorder log, if any (exported as
    /// `case-N.flight.jsonl`).
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
    /// case order, from one scan of `dir`'s logs ([`Frames::scan`]):
    /// `each` gets the record, whichever sidecars exist and the corpus
    /// entry the record names. Returns the scan.
    ///
    /// # Errors
    ///
    /// A corrupt log, a frame that is not UTF-8, a record naming a corpus
    /// entry that is missing, an error from `each`, or I/O.
    pub fn read_range(
        dir: &CampaignDir,
        range: Range<u32>,
        mut each: impl FnMut(CaseBundle) -> Result<(), CampaignError>,
    ) -> Result<Frames, CampaignError> {
        let frames = Frames::scan(dir, range.clone(), &Kind::BUNDLE, |_, _| Ok(()))?;
        frames.each_case(range, |index, [profile, flight, record]| {
            // Sidecars without a record are a bundle a kill cut short.
            let Some(record) = record else {
                return Ok(());
            };
            // An unparseable record names no entry; `check` reports it.
            let named = Json::parse(&record)
                .ok()
                .and_then(|doc| Some(doc.get("corpus")?.as_str()?.to_string()));
            let corpus = match named {
                None => None,
                Some(name) => Some(frames.entry(&name)?.ok_or_else(|| {
                    CampaignError::Corrupt(format!(
                        "{}: case {index} names corpus entry {name:?}, which is not there",
                        dir.root().display()
                    ))
                })?),
            };
            each(CaseBundle {
                index,
                record,
                profile,
                flight,
                corpus,
            })
        })?;
        Ok(frames)
    }

    /// Checks every artifact before anything is published: the record
    /// describes this case, carries the seed `config` derives and is
    /// text in its canonical rendering; the profile parses, and only if
    /// the campaign collects profiles (`profile`); each flight line parses
    /// as an event, and only if the campaign arms the recorder (`flight`);
    /// and the corpus entry is the
    /// one the record names, under a plain file stem, loads with its
    /// reference checkpoint recomputed, and matches its claimed
    /// fingerprint. Returns the record and the entry's fingerprint.
    ///
    /// # Errors
    ///
    /// A message naming the offending record, or the file an export
    /// renders the offending artifact as (relative to the campaign root),
    /// and the broken rule.
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
    /// its corpus, profile, flight and record frames in one append.
    ///
    /// # Errors
    ///
    /// A frame over the cap, or file-system failure.
    pub fn publish(&self, log: &mut LogWriter) -> io::Result<()> {
        log.append(|buf| {
            if let Some(entry) = &self.corpus {
                encode_frame(Kind::Corpus, 0, &entry.body()?, buf)?;
            }
            for (kind, text) in [(Kind::Profile, &self.profile), (Kind::Flight, &self.flight)] {
                if let Some(text) = text {
                    encode_frame(kind, self.index, text.as_bytes(), buf)?;
                }
            }
            encode_frame(Kind::Record, self.index, self.record.as_bytes(), buf)
        })
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
