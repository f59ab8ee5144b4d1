//! The versioned on-disk campaign state.
//!
//! A campaign directory holds:
//!
//! ```text
//! campaign.json      — format line, config fingerprint, configuration
//! cases/case-N.json  — one record per completed case, written atomically
//! corpus/            — shrunk divergence-regression scenarios (see corpus)
//! bin-cache/         — compiled `rust`-lane binaries, keyed by source hash
//! ```
//!
//! Stop the process at any point and `resume` picks up exactly the
//! missing cases: a record file either exists completely (it is published
//! with a write-to-temp + rename) or not at all. The manifest carries the
//! [`CampaignConfig::fingerprint`] so a resume with a drifted
//! configuration is refused instead of silently producing different
//! results.

use crate::config::CampaignConfig;
use crate::error::CampaignError;
use rtl_obs::json::Json;
use rtl_obs::write_atomic;
use std::io;
use std::path::{Path, PathBuf};

/// The manifest format line; bump on breaking layout changes.
pub const FORMAT: &str = "asim2-campaign v1";

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
    /// them. (For a case resumed mid-run via `--case-checkpoint`, only
    /// the post-resume portion is counted.)
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

    /// The per-case record directory.
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

    /// One case record's path.
    pub fn case_path(&self, index: u32) -> PathBuf {
        self.cases().join(format!("case-{index:06}.json"))
    }

    /// One case's execution-profile sidecar path (present only for cases
    /// run with [`RunOptions::profile`](crate::RunOptions) on; published
    /// atomically *before* the case record).
    pub fn profile_path(&self, index: u32) -> PathBuf {
        self.cases().join(format!("case-{index:06}.profile"))
    }

    /// One case's flight-recorder sidecar path (present only for
    /// non-agreed cases run with [`RunOptions::flight`](crate::RunOptions)
    /// on; published atomically *before* the case record, so worker
    /// counts and kill+resume cannot change a published dump).
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
        match doc.get("format").and_then(Json::as_str) {
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

    /// Publishes one case record atomically (temp file + rename), so an
    /// interrupt never leaves a half-written record behind.
    ///
    /// # Errors
    ///
    /// File-system failure.
    pub fn write_case(&self, record: &CaseRecord) -> Result<(), CampaignError> {
        write_atomic(
            &self.case_path(record.index),
            record.to_json().render().as_bytes(),
        )?;
        Ok(())
    }

    /// Loads every existing case record, indexed by case number; `None`
    /// where the case has not completed.
    ///
    /// # Errors
    ///
    /// A corrupt record, or file-system failure.
    pub fn load_cases(&self, cases: u32) -> Result<Vec<Option<CaseRecord>>, CampaignError> {
        let mut records = vec![None; cases as usize];
        for (index, slot) in records.iter_mut().enumerate() {
            let path = self.case_path(index as u32);
            let text = match std::fs::read_to_string(&path) {
                Ok(text) => text,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(CampaignError::Io(e)),
            };
            let record = Json::parse(&text)
                .and_then(|doc| CaseRecord::from_json(&doc))
                .map_err(|e| CampaignError::Corrupt(format!("{}: {e}", path.display())))?;
            if record.index != index as u32 {
                return Err(CampaignError::Corrupt(format!(
                    "{} records case {} (index/file mismatch)",
                    path.display(),
                    record.index
                )));
            }
            *slot = Some(record);
        }
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let text = std::fs::read_to_string(dir.case_path(0)).unwrap();
        let dup = text.replacen("\"seed\": 9,", "\"seed\": 9,\n  \"seed\": 10,", 1);
        assert_ne!(dup, text);
        std::fs::write(dir.case_path(0), dup).unwrap();
        let err = dir.load_cases(1).unwrap_err();
        assert!(
            matches!(&err, CampaignError::Corrupt(m) if m.contains("duplicate key \"seed\"")),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
