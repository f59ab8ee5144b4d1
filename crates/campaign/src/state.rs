//! The versioned on-disk campaign state.
//!
//! A campaign directory holds:
//!
//! ```text
//! campaign.json        — format line, config fingerprint, configuration
//! cases/cases.log      — each case's profile, flight log and record, as frames by index
//! cases/worker-N.log   — the case bundles a run's writers appended, until compaction,
//!                        and a killed case's last checkpoint (`--case-checkpoint` only)
//! corpus/corpus.log    — shrunk divergence-regression scenarios, one frame per entry
//! */worker-p….log     — what one process published outside a run, until compaction
//! bin-cache/           — compiled `rust`-lane binaries, keyed by source hash
//! ```
//!
//! Stop the process at any point and `resume` picks up exactly the
//! missing cases: a case's bundle is one write of checksummed frames to
//! a log, record last ([`caselog`]), and a frame a kill tore is dropped,
//! so its case runs again. The manifest carries the
//! [`CampaignConfig::fingerprint`] so a resume with a drifted
//! configuration is refused instead of silently producing different
//! results, and the [`FORMAT`] line, so a directory laid out by another
//! version is refused by name.

use crate::caselog::{self, Frames, Kind};
use crate::config::CampaignConfig;
use crate::error::CampaignError;
use rtl_core::LaneStats;
use rtl_obs::json::Json;
use rtl_obs::write_atomic;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// The manifest format line; bump on breaking layout changes. Version 6
/// keeps the statistics in every session checkpoint: a corpus entry's
/// `.ckpt` and each lane of a case checkpoint.
pub const FORMAT: &str = "asim2-campaign v6";

/// The format lines of earlier layouts, refused by name, with what they
/// kept that this layout does not.
const RETIRED: [(&str, &str); 5] = [
    ("asim2-campaign v1", "one file per case record"),
    ("asim2-campaign v2", "four files per corpus entry"),
    ("asim2-campaign v3", "two files of sidecars per case"),
    ("asim2-campaign v4", "a file per case checkpoint"),
    ("asim2-campaign v5", "checkpoints without statistics"),
];

/// How one case ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseStatus {
    /// All lanes agreed over the full horizon.
    Agreed,
    /// All lanes agreed about a runtime halt (generator invariant broken —
    /// a campaign failure, though not an engine divergence).
    Halted {
        /// The halt rendered for the report.
        detail: String,
    },
    /// Lanes disagreed.
    Diverged {
        /// First divergent cycle.
        cycle: u64,
        /// What diverged (a stable label like `output:x3`).
        kind: String,
        /// The shrunk corpus entry saved for this divergence, if shrinking
        /// succeeded.
        corpus: Option<String>,
    },
    /// A harness error (I/O, subprocess failure) — the case verified
    /// nothing.
    Error {
        /// The error rendered for the report.
        detail: String,
    },
}

impl CaseStatus {
    /// The stable status tag used on disk and in summaries.
    pub fn tag(&self) -> &'static str {
        match self {
            CaseStatus::Agreed => "agreed",
            CaseStatus::Halted { .. } => "halted",
            CaseStatus::Diverged { .. } => "diverged",
            CaseStatus::Error { .. } => "error",
        }
    }
}

/// One lane's headline statistics in a case record — the §1.4 counters
/// cosim used to drop ([`Engine::stats`](rtl_core::Engine::stats)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneAccess {
    /// Engine lane name.
    pub lane: String,
    /// Cycles the lane executed (0 in records written before the field
    /// existed).
    pub cycles: u64,
    /// Total memory accesses (reads + writes + inputs + outputs).
    pub accesses: u64,
}

impl From<&LaneStats> for LaneAccess {
    /// The one fold of a lane's full statistics into its record headline.
    fn from(s: &LaneStats) -> Self {
        LaneAccess {
            lane: s.lane.clone(),
            cycles: s.stats.cycles,
            accesses: s.stats.total_accesses(),
        }
    }
}

/// One completed case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseRecord {
    /// Case index in `0..config.cases`.
    pub index: u32,
    /// The case's fuzz seed (`config.seed + index`, wrapping).
    pub seed: u64,
    /// Cycles verified in lockstep.
    pub cycles: u64,
    /// Per-lane simulation statistics, for lanes whose engines keep
    /// them: the whole run's, also for a case resumed mid-run via
    /// `--case-checkpoint` (its checkpoint carries the statistics so far).
    pub lane_stats: Vec<LaneAccess>,
    /// How the case ended.
    pub status: CaseStatus,
}

impl CaseRecord {
    /// Serializes the record.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("index".into(), Json::num(self.index)),
            ("seed".into(), Json::num(self.seed)),
            ("cycles".into(), Json::num(self.cycles)),
            (
                "lane_stats".into(),
                Json::Arr(
                    self.lane_stats
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("lane".into(), Json::str(&s.lane)),
                                ("cycles".into(), Json::num(s.cycles)),
                                ("accesses".into(), Json::num(s.accesses)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("status".into(), Json::str(self.status.tag())),
        ];
        match &self.status {
            CaseStatus::Agreed => {}
            CaseStatus::Halted { detail } | CaseStatus::Error { detail } => {
                pairs.push(("detail".into(), Json::str(detail)));
            }
            CaseStatus::Diverged {
                cycle,
                kind,
                corpus,
            } => {
                pairs.push(("divergence_cycle".into(), Json::num(cycle)));
                pairs.push(("divergence_kind".into(), Json::str(kind)));
                pairs.push((
                    "corpus".into(),
                    match corpus {
                        Some(name) => Json::str(name),
                        None => Json::Null,
                    },
                ));
            }
        }
        Json::Obj(pairs)
    }

    /// Deserializes a record.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed field.
    pub fn from_json(doc: &Json) -> Result<CaseRecord, String> {
        let num = |name: &str| {
            doc.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing numeric field {name:?}"))
        };
        let text = |name: &str| {
            doc.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field {name:?}"))
        };
        let status = match text("status")?.as_str() {
            "agreed" => CaseStatus::Agreed,
            "halted" => CaseStatus::Halted {
                detail: text("detail")?,
            },
            "error" => CaseStatus::Error {
                detail: text("detail")?,
            },
            "diverged" => CaseStatus::Diverged {
                cycle: num("divergence_cycle")?,
                kind: text("divergence_kind")?,
                corpus: match doc.get("corpus") {
                    Some(Json::Str(name)) => Some(name.clone()),
                    _ => None,
                },
            },
            other => return Err(format!("unknown status {other:?}")),
        };
        // Absent or malformed stats read as empty: records written before
        // the field existed stay loadable.
        let lane_stats = doc
            .get("lane_stats")
            .and_then(Json::as_arr)
            .map(|entries| {
                entries
                    .iter()
                    .filter_map(|e| {
                        Some(LaneAccess {
                            lane: e.get("lane")?.as_str()?.to_string(),
                            // Absent in pre-PR6 records: read as 0.
                            cycles: e.get("cycles").and_then(Json::as_u64).unwrap_or(0),
                            accesses: e.get("accesses")?.as_u64()?,
                        })
                    })
                    .collect()
            })
            .unwrap_or_default();
        Ok(CaseRecord {
            index: u32::try_from(num("index")?).map_err(|_| "index out of range")?,
            seed: num("seed")?,
            cycles: num("cycles")?,
            lane_stats,
            status,
        })
    }
}

/// The paths of a campaign directory.
#[derive(Debug, Clone)]
pub struct CampaignDir {
    root: PathBuf,
}

impl CampaignDir {
    /// Wraps a campaign root path (no I/O).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        CampaignDir { root: root.into() }
    }

    /// The root path.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// `campaign.json`.
    pub fn manifest(&self) -> PathBuf {
        self.root.join("campaign.json")
    }

    /// The case log directory.
    pub fn cases(&self) -> PathBuf {
        self.root.join("cases")
    }

    /// The divergence-regression corpus directory.
    pub fn corpus(&self) -> PathBuf {
        self.root.join("corpus")
    }

    /// The compiled-binary cache directory for the `rust` stream lane.
    pub fn bin_cache(&self) -> PathBuf {
        self.root.join("bin-cache")
    }

    /// Where `campaign export` renders one case record as a file (a
    /// campaign itself keeps its records in logs).
    pub fn case_path(&self, index: u32) -> PathBuf {
        self.cases().join(format!("case-{index:06}.json"))
    }

    /// Where `campaign export` renders one case's execution profile, for
    /// a case run with [`RunOptions::profile`](crate::RunOptions) on.
    pub fn profile_path(&self, index: u32) -> PathBuf {
        self.cases().join(format!("case-{index:06}.profile"))
    }

    /// Where `campaign export` renders one case's flight-recorder log,
    /// for a non-agreed case run with
    /// [`RunOptions::flight`](crate::RunOptions) on.
    pub fn flight_path(&self, index: u32) -> PathBuf {
        self.cases().join(format!("case-{index:06}.flight.jsonl"))
    }

    /// Initializes a fresh campaign directory and writes the manifest.
    /// The root may already exist (e.g. holding a pre-seeded `corpus/`),
    /// but an existing manifest means a campaign already lives here.
    ///
    /// # Errors
    ///
    /// An existing manifest, or file-system failure.
    pub fn init(&self, config: &CampaignConfig) -> Result<(), CampaignError> {
        if self.manifest().exists() {
            return Err(CampaignError::Config(format!(
                "{} already holds a campaign (use resume)",
                self.root.display()
            )));
        }
        std::fs::create_dir_all(&self.root)?;
        std::fs::create_dir_all(self.cases())?;
        std::fs::create_dir_all(self.corpus())?;
        let doc = Json::Obj(vec![
            ("format".into(), Json::str(FORMAT)),
            (
                "fingerprint".into(),
                Json::str(format!("{:016x}", config.fingerprint())),
            ),
            ("config".into(), config.to_json()),
        ]);
        write_atomic(&self.manifest(), doc.render().as_bytes())?;
        Ok(())
    }

    /// Opens the directory for `config`: initializes it when it holds no
    /// campaign, else loads the stored configuration, which must have
    /// `config`'s fingerprint. Returns the configuration now on disk.
    ///
    /// # Errors
    ///
    /// A stored campaign with a different fingerprint, corrupt state, or
    /// file-system failure.
    pub fn open(&self, config: &CampaignConfig) -> Result<CampaignConfig, CampaignError> {
        if !self.manifest().exists() {
            self.init(config)?;
            return Ok(config.clone());
        }
        let stored = self.load()?;
        if stored.fingerprint() != config.fingerprint() {
            return Err(CampaignError::Config(format!(
                "{} holds a campaign whose fingerprint {:016x} differs from the \
                 requested configuration's {:016x}",
                self.root.display(),
                stored.fingerprint(),
                config.fingerprint()
            )));
        }
        Ok(stored)
    }

    /// Loads and validates the manifest: format line, config, and the
    /// fingerprint recomputed from the config.
    ///
    /// # Errors
    ///
    /// Missing/corrupt manifest, version mismatch, or a fingerprint that
    /// does not match its own configuration (a hand-edited manifest).
    pub fn load(&self) -> Result<CampaignConfig, CampaignError> {
        let path = self.manifest();
        let text = std::fs::read_to_string(&path).map_err(|e| {
            if e.kind() == io::ErrorKind::NotFound {
                CampaignError::Config(format!(
                    "{} holds no campaign (missing campaign.json)",
                    self.root.display()
                ))
            } else {
                CampaignError::Io(e)
            }
        })?;
        let doc = Json::parse(&text)
            .map_err(|e| CampaignError::Corrupt(format!("{}: {e}", path.display())))?;
        let format = doc.get("format").and_then(Json::as_str);
        if let Some((old, files)) = RETIRED.iter().find(|(old, _)| format == Some(*old)) {
            return Err(CampaignError::Corrupt(format!(
                "{} holds an {old:?} campaign, which keeps {files}; this asim2 reads \
                 only {FORMAT:?} campaigns, which keep every case and corpus artifact in logs",
                self.root.display()
            )));
        }
        match format {
            Some(FORMAT) => {}
            Some(other) => {
                return Err(CampaignError::Corrupt(format!(
                    "unsupported campaign format {other:?} (expected {FORMAT:?})"
                )))
            }
            None => {
                return Err(CampaignError::Corrupt(
                    "campaign.json has no format line".into(),
                ))
            }
        }
        let config = doc
            .get("config")
            .ok_or_else(|| CampaignError::Corrupt("campaign.json has no config".into()))
            .and_then(|c| CampaignConfig::from_json(c).map_err(CampaignError::Corrupt))?;
        let stored = doc
            .get("fingerprint")
            .and_then(Json::as_str)
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| CampaignError::Corrupt("campaign.json has no fingerprint".into()))?;
        if stored != config.fingerprint() {
            return Err(CampaignError::Config(
                "campaign fingerprint does not match its configuration \
                 (manifest edited?)"
                    .into(),
            ));
        }
        Ok(config)
    }

    /// Removes the `.tmp-*` siblings that a kill between write and rename
    /// leaves in `cases/` (the compacted case log) and `corpus/` (the
    /// compacted corpus log). A process
    /// calls this once, when it takes the directory over: an orphan would
    /// otherwise survive into the finished tree and break its byte
    /// identity with an uninterrupted run.
    ///
    /// # Errors
    ///
    /// File-system failure; a missing subdirectory holds no orphans.
    pub fn sweep_orphans(&self) -> Result<(), CampaignError> {
        for sub in [self.cases(), self.corpus()] {
            let listing = match std::fs::read_dir(&sub) {
                Ok(listing) => listing,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(CampaignError::Io(e)),
            };
            for dirent in listing {
                let dirent = dirent?;
                if dirent.file_name().to_string_lossy().starts_with(".tmp-") {
                    std::fs::remove_file(dirent.path())?;
                }
            }
        }
        Ok(())
    }

    /// Publishes one case record as one frame appended, in one write,
    /// to this process's direct worker log. Any number of threads may
    /// call it on one directory. Like a file published through
    /// [`write_atomic`], it is not synced; a campaign run publishes
    /// through one [`LogWriter`](crate::LogWriter) per thread, which is.
    ///
    /// # Errors
    ///
    /// File-system failure.
    pub fn write_case(&self, record: &CaseRecord) -> Result<(), CampaignError> {
        caselog::append_direct(
            &self.cases(),
            Kind::Record,
            record.index,
            record.to_json().render().as_bytes(),
        )?;
        Ok(())
    }

    /// Loads every existing case record, indexed by case number; `None`
    /// where the case has not completed.
    ///
    /// # Errors
    ///
    /// A corrupt record or log, or file-system failure.
    pub fn load_cases(&self, cases: u32) -> Result<Vec<Option<CaseRecord>>, CampaignError> {
        Ok(self.scan(cases, 0..cases, &[Kind::Record])?.0)
    }

    /// [`load_cases`](CampaignDir::load_cases) reading only the records
    /// of `range`, every case outside it `None` and its frames stepped
    /// over unread, and returning the scan the records came from, which
    /// also reads the frames of the other `kinds` (see [`Frames::scan`]).
    ///
    /// # Errors
    ///
    /// A corrupt record or log, or file-system failure.
    pub fn scan(
        &self,
        cases: u32,
        range: Range<u32>,
        kinds: &[Kind],
    ) -> Result<(Vec<Option<CaseRecord>>, Frames), CampaignError> {
        let mut records = vec![None; cases as usize];
        let cases_dir = self.cases();
        let frames = self.frames(cases, range, kinds, |index, text| {
            let record = std::str::from_utf8(text)
                .map_err(|e| e.to_string())
                .and_then(Json::parse)
                .and_then(|doc| CaseRecord::from_json(&doc))
                .map_err(|e| {
                    CampaignError::Corrupt(format!("{}: case {index}: {e}", cases_dir.display()))
                })?;
            if record.index != index {
                return Err(CampaignError::Corrupt(format!(
                    "{}: the frame for case {index} records case {}",
                    cases_dir.display(),
                    record.index
                )));
            }
            records[index as usize] = Some(record);
            Ok(())
        })?;
        Ok((records, frames))
    }

    /// [`Frames::scan`] over this directory for a campaign of `cases`
    /// cases, `range` clipped to them: a frame for a case outside the
    /// campaign is corrupt.
    pub(crate) fn frames(
        &self,
        cases: u32,
        range: Range<u32>,
        kinds: &[Kind],
        visit: impl FnMut(u32, &[u8]) -> Result<(), CampaignError>,
    ) -> Result<Frames, CampaignError> {
        let frames = Frames::scan(self, range.start..range.end.min(cases), kinds, visit)?;
        if let Some(index) = frames.indices().next_back().filter(|&index| index >= cases) {
            return Err(CampaignError::Corrupt(format!(
                "{}: a frame for case {index}, outside the campaign's {cases} case(s)",
                self.cases().display()
            )));
        }
        Ok(frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caselog::LogWriter;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "asim2-campaign-state-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn init_load_and_refuse_double_init() {
        let root = scratch("init");
        let dir = CampaignDir::new(&root);
        let config = CampaignConfig::default();
        dir.init(&config).unwrap();
        assert_eq!(dir.load().unwrap(), config);
        let err = dir.init(&config).unwrap_err();
        assert!(err.to_string().contains("resume"), "{err}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn open_initializes_reopens_and_refuses_drift() {
        let root = scratch("open");
        let dir = CampaignDir::new(&root);
        let config = CampaignConfig::default();
        assert_eq!(dir.open(&config).unwrap(), config, "fresh");
        assert_eq!(dir.load().unwrap(), config);
        assert_eq!(dir.open(&config).unwrap(), config, "same config");
        let drifted = CampaignConfig {
            seed: config.seed + 1,
            ..config.clone()
        };
        let err = dir.open(&drifted).unwrap_err();
        let message = err.to_string();
        assert!(matches!(err, CampaignError::Config(_)), "{message}");
        for fp in [config.fingerprint(), drifted.fingerprint()] {
            assert!(message.contains(&format!("{fp:016x}")), "{message}");
        }
        assert_eq!(dir.load().unwrap(), config, "a refusal writes nothing");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn case_records_round_trip_and_resume_sees_gaps() {
        let root = scratch("cases");
        let dir = CampaignDir::new(&root);
        dir.init(&CampaignConfig::default()).unwrap();
        let records = [
            CaseRecord {
                index: 0,
                seed: 9,
                cycles: 64,
                lane_stats: vec![
                    LaneAccess {
                        lane: "interp".into(),
                        cycles: 64,
                        accesses: 128,
                    },
                    LaneAccess {
                        lane: "vm".into(),
                        cycles: 64,
                        accesses: 128,
                    },
                ],
                status: CaseStatus::Agreed,
            },
            CaseRecord {
                index: 2,
                seed: 11,
                cycles: 17,
                lane_stats: Vec::new(),
                status: CaseStatus::Diverged {
                    cycle: 17,
                    kind: "output:x3".into(),
                    corpus: Some("seed-11".into()),
                },
            },
            CaseRecord {
                index: 3,
                seed: 12,
                cycles: 5,
                lane_stats: Vec::new(),
                status: CaseStatus::Halted {
                    detail: "input exhausted at cycle 5".into(),
                },
            },
        ];
        for r in &records {
            dir.write_case(r).unwrap();
        }
        let loaded = dir.load_cases(5).unwrap();
        assert_eq!(loaded[0].as_ref(), Some(&records[0]));
        assert!(loaded[1].is_none(), "gap preserved");
        assert_eq!(loaded[2].as_ref(), Some(&records[1]));
        assert_eq!(loaded[3].as_ref(), Some(&records[2]));
        assert!(loaded[4].is_none());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_manifests_are_reported() {
        let root = scratch("corrupt");
        let dir = CampaignDir::new(&root);
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(dir.manifest(), "not json").unwrap();
        assert!(matches!(dir.load(), Err(CampaignError::Corrupt(_))));

        // A manifest whose fingerprint disagrees with its config.
        let doc = Json::Obj(vec![
            ("format".into(), Json::str(FORMAT)),
            ("fingerprint".into(), Json::str("0000000000000000")),
            ("config".into(), CampaignConfig::default().to_json()),
        ]);
        std::fs::write(dir.manifest(), doc.render()).unwrap();
        assert!(matches!(dir.load(), Err(CampaignError::Config(_))));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_record_with_a_duplicated_key_is_corrupt() {
        let root = scratch("dup-key");
        let dir = CampaignDir::new(&root);
        dir.init(&CampaignConfig::default()).unwrap();
        let record = CaseRecord {
            index: 0,
            seed: 9,
            cycles: 64,
            lane_stats: Vec::new(),
            status: CaseStatus::Agreed,
        };
        dir.write_case(&record).unwrap();
        assert_eq!(dir.load_cases(1).unwrap()[0].as_ref(), Some(&record));
        // A second `seed` after the first: a reader that let the first
        // (or the last) win would load a different case than was run.
        let text = record.to_json().render();
        let dup = text.replacen("\"seed\": 9,", "\"seed\": 9,\n  \"seed\": 10,", 1);
        assert_ne!(dup, text);
        std::fs::remove_dir_all(dir.cases()).unwrap();
        std::fs::create_dir_all(dir.cases()).unwrap();
        let mut log = LogWriter::new(&dir);
        log.append(|buf| caselog::encode_frame(Kind::Record, 0, dup.as_bytes(), buf))
            .unwrap();
        log.finish().unwrap();
        let err = dir.load_cases(1).unwrap_err();
        assert!(
            matches!(&err, CampaignError::Corrupt(m) if m.contains("duplicate key \"seed\"")),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
