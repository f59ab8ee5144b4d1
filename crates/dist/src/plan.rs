//! The shard plan: a campaign's case range partitioned for machines that
//! share nothing.
//!
//! A [`ShardPlan`] is a *value* — versioned JSON, fingerprinted with the
//! same FNV hasher as the campaign manifest — that fixes everything the
//! shards must agree on up front: the full [`CampaignConfig`] and a
//! contiguous partition of `0..cases` into one half-open range per shard.
//! Case `i` keeps its global index and therefore its derived seed
//! (`config.seed + i`, wrapping) no matter which shard runs it, which is
//! the whole determinism argument: the union of the shards' case records
//! is bit-identical to a single-machine run at any shard count.

use crate::fingerprint_hex;
use rtl_campaign::{CampaignConfig, CampaignError};
use rtl_core::Fingerprint;
use rtl_obs::json::Json;
use std::path::Path;

/// The plan format line; bump on breaking changes.
pub const FORMAT: &str = "asim2-shard-plan v1";

/// One shard's slice of the case range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Shard index in `0..plan.shards.len()`.
    pub index: u32,
    /// First case index (inclusive).
    pub start: u32,
    /// One past the last case index.
    pub end: u32,
}

impl ShardSpec {
    /// The half-open case range.
    pub fn range(&self) -> std::ops::Range<u32> {
        self.start..self.end
    }

    /// Cases in this shard.
    pub fn cases(&self) -> u32 {
        self.end - self.start
    }
}

/// A versioned, fingerprinted partition of one campaign into independent
/// shards. See the [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// The full campaign configuration every shard runs under.
    pub config: CampaignConfig,
    /// The partition, in index order; ranges are contiguous and cover
    /// `0..config.cases` exactly.
    pub shards: Vec<ShardSpec>,
}

impl ShardPlan {
    /// Partitions `config.cases` into `shards` contiguous, balanced
    /// ranges (the first `cases % shards` shards get one extra case).
    /// Shards beyond the case count end up empty — legal, if pointless.
    ///
    /// # Errors
    ///
    /// Zero shards.
    pub fn partition(config: CampaignConfig, shards: u32) -> Result<ShardPlan, CampaignError> {
        if shards == 0 {
            return Err(CampaignError::Config(
                "a plan needs at least one shard".into(),
            ));
        }
        let base = config.cases / shards;
        let extra = config.cases % shards;
        let mut specs = Vec::with_capacity(shards as usize);
        let mut start = 0u32;
        for index in 0..shards {
            let len = base + u32::from(index < extra);
            specs.push(ShardSpec {
                index,
                start,
                end: start + len,
            });
            start += len;
        }
        Ok(ShardPlan {
            config,
            shards: specs,
        })
    }

    /// The shard at `index`.
    pub fn spec(&self, index: u32) -> Option<&ShardSpec> {
        self.shards.get(index as usize)
    }

    /// A stable fingerprint over the whole plan — the campaign config's
    /// own fingerprint plus the partition — using the campaign-manifest
    /// FNV hasher. Shard directories and merges refuse a plan whose
    /// fingerprint disagrees with what they were created under.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.write_str(FORMAT);
        fp.write_u64(self.config.fingerprint());
        fp.write_u64(self.shards.len() as u64);
        for spec in &self.shards {
            fp.write_u64(u64::from(spec.index));
            fp.write_u64(u64::from(spec.start));
            fp.write_u64(u64::from(spec.end));
        }
        fp.finish()
    }

    /// Serializes the plan.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("format".into(), Json::str(FORMAT)),
            (
                "fingerprint".into(),
                Json::str(fingerprint_hex(self.fingerprint())),
            ),
            ("config".into(), self.config.to_json()),
            (
                "shards".into(),
                Json::Arr(
                    self.shards
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("index".into(), Json::num(s.index)),
                                ("start".into(), Json::num(s.start)),
                                ("end".into(), Json::num(s.end)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Deserializes and validates a plan: format line, config, a
    /// partition that covers `0..cases` contiguously in index order, and
    /// a fingerprint that matches its own content.
    ///
    /// # Errors
    ///
    /// A message naming the missing/malformed field or broken invariant.
    pub fn from_json(doc: &Json) -> Result<ShardPlan, String> {
        match doc.get("format").and_then(Json::as_str) {
            Some(FORMAT) => {}
            other => {
                return Err(format!(
                    "unsupported shard-plan format {other:?} (expected {FORMAT:?})"
                ))
            }
        }
        let config =
            CampaignConfig::from_json(doc.get("config").ok_or("shard plan has no config")?)?;
        let mut shards = Vec::new();
        for entry in doc
            .get("shards")
            .and_then(Json::as_arr)
            .ok_or("shard plan has no shards array")?
        {
            let num = |name: &str| {
                entry
                    .get(name)
                    .and_then(Json::as_u64)
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| format!("shard entry missing field {name:?}"))
            };
            shards.push(ShardSpec {
                index: num("index")?,
                start: num("start")?,
                end: num("end")?,
            });
        }
        let plan = ShardPlan { config, shards };
        let mut expected_start = 0u32;
        for (i, spec) in plan.shards.iter().enumerate() {
            if spec.index as usize != i || spec.start != expected_start || spec.end < spec.start {
                return Err(format!(
                    "shard {i} range {}..{} does not continue the partition at {expected_start}",
                    spec.start, spec.end
                ));
            }
            expected_start = spec.end;
        }
        if plan.shards.is_empty() || expected_start != plan.config.cases {
            return Err(format!(
                "shard ranges cover {expected_start} of {} cases",
                plan.config.cases
            ));
        }
        let stored = doc
            .get("fingerprint")
            .and_then(Json::as_str)
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or("shard plan has no fingerprint")?;
        if stored != plan.fingerprint() {
            return Err("shard-plan fingerprint does not match its content (edited?)".into());
        }
        Ok(plan)
    }

    /// Writes the plan to a file, atomically.
    ///
    /// # Errors
    ///
    /// File-system failure.
    pub fn save(&self, path: &Path) -> Result<(), CampaignError> {
        rtl_obs::write_atomic(path, self.to_json().render().as_bytes())?;
        Ok(())
    }

    /// Loads and validates a plan file.
    ///
    /// # Errors
    ///
    /// A missing or corrupt plan.
    pub fn load(path: &Path) -> Result<ShardPlan, CampaignError> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                CampaignError::Config(format!("no shard plan at {}", path.display()))
            } else {
                CampaignError::Io(e)
            }
        })?;
        Json::parse(&text)
            .and_then(|doc| Self::from_json(&doc))
            .map_err(|e| CampaignError::Corrupt(format!("{}: {e}", path.display())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(cases: u32) -> CampaignConfig {
        CampaignConfig {
            cases,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn partition_is_contiguous_balanced_and_complete() {
        let plan = ShardPlan::partition(config(10), 4).unwrap();
        let ranges: Vec<(u32, u32)> = plan.shards.iter().map(|s| (s.start, s.end)).collect();
        assert_eq!(ranges, [(0, 3), (3, 6), (6, 8), (8, 10)]);
        assert_eq!(plan.spec(3).unwrap().cases(), 2);
        assert!(plan.spec(4).is_none());
        assert!(ShardPlan::partition(config(10), 0).is_err());
        // More shards than cases: trailing shards are empty but legal.
        let thin = ShardPlan::partition(config(2), 4).unwrap();
        assert_eq!(thin.shards[3].cases(), 0);
    }

    #[test]
    fn plan_round_trips_and_refuses_tampering() {
        let plan = ShardPlan::partition(config(100), 4).unwrap();
        let back = ShardPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.fingerprint(), plan.fingerprint());

        // A different partition of the same config fingerprints apart.
        let other = ShardPlan::partition(config(100), 5).unwrap();
        assert_ne!(other.fingerprint(), plan.fingerprint());

        // Tampered ranges are caught by the invariant check…
        let mut doc = plan.to_json();
        if let Json::Obj(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == "shards" {
                    if let Json::Arr(entries) = v {
                        entries.pop();
                    }
                }
            }
        }
        assert!(ShardPlan::from_json(&doc).is_err());

        // …and a hand-edited config by the fingerprint.
        let mut doc = plan.to_json();
        if let Json::Obj(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == "config" {
                    *v = config(101).to_json();
                }
            }
        }
        let err = ShardPlan::from_json(&doc).unwrap_err();
        assert!(
            err.contains("fingerprint") || err.contains("cover"),
            "{err}"
        );
    }

    #[test]
    fn save_load_round_trips() {
        let path = std::env::temp_dir().join(format!("asim2-plan-{}.json", std::process::id()));
        let plan = ShardPlan::partition(config(40), 3).unwrap();
        plan.save(&path).unwrap();
        assert_eq!(ShardPlan::load(&path).unwrap(), plan);
        let _ = std::fs::remove_file(&path);
        assert!(matches!(
            ShardPlan::load(&path),
            Err(CampaignError::Config(_))
        ));
    }
}
