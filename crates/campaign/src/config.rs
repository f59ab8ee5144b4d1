//! Campaign configuration: the determinism contract of a campaign.
//!
//! Everything that influences a case's *outcome* lives here and is hashed
//! into the campaign fingerprint — resuming with a different seed, case
//! count, engine list, generator tuning or comparison stride would
//! silently change results, so the state layer refuses it. Worker count is
//! deliberately *not* part of the fingerprint: per-case seeds make results
//! order-independent, so any parallelism must produce the identical
//! campaign.

use rtl_core::Fingerprint;
use rtl_cosim::{CosimOptions, FuzzOptions, GenOptions};
use rtl_obs::json::Json;

/// The persisted campaign configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Base seed; case `i` runs fuzz seed `seed + i` (wrapping).
    pub seed: u64,
    /// Number of fuzz cases.
    pub cases: u32,
    /// Engine lane names under comparison (any registry lane).
    pub engines: Vec<String>,
    /// Scenario generator tuning.
    pub generator: GenOptions,
    /// Lockstep comparison stride.
    pub compare_every: u64,
    /// Attach the `rtl-lint` cross-validation oracle to every case: a
    /// runtime observation contradicting a static claim (dead arm fires,
    /// undriven cell changes) is a divergence. Outcome-relevant, so it is
    /// fingerprinted — but only when set, keeping fingerprints of
    /// existing campaigns unchanged.
    pub lint_oracle: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0,
            cases: 100,
            engines: vec!["interp".into(), "vm".into()],
            generator: GenOptions::default(),
            compare_every: 1,
            lint_oracle: false,
        }
    }
}

impl CampaignConfig {
    /// The per-case [`FuzzOptions`] this configuration induces.
    pub fn fuzz_options(&self) -> FuzzOptions {
        FuzzOptions {
            seed: self.seed,
            cases: self.cases,
            engines: self.engines.clone(),
            generator: self.generator.clone(),
            cosim: CosimOptions {
                compare_every: self.compare_every.max(1),
                lint_oracle: self.lint_oracle,
                ..CosimOptions::default()
            },
        }
    }

    /// A stable fingerprint over every outcome-relevant field, using the
    /// same FNV-1a hasher as the session checkpoint format. Resume
    /// refuses a directory whose fingerprint disagrees.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.write_str("asim2-campaign v1");
        fp.write_u64(self.seed);
        fp.write_u64(u64::from(self.cases));
        fp.write_u64(self.engines.len() as u64);
        for engine in &self.engines {
            fp.write_str(engine);
        }
        fp.write_u64(self.generator.size as u64);
        fp.write_u64(self.generator.cycles);
        fp.write_u64(u64::from(self.generator.io_every));
        fp.write_u64(self.compare_every);
        if self.lint_oracle {
            // Folded only when set so fingerprints of campaigns recorded
            // before the oracle existed stay valid for resume.
            fp.write_str("lint-oracle");
        }
        fp.finish()
    }

    /// Serializes the configuration.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("seed".into(), Json::num(self.seed)),
            ("cases".into(), Json::num(self.cases)),
            (
                "engines".into(),
                Json::Arr(self.engines.iter().map(Json::str).collect()),
            ),
            ("size".into(), Json::num(self.generator.size)),
            ("cycles".into(), Json::num(self.generator.cycles)),
            ("io_every".into(), Json::num(self.generator.io_every)),
            ("compare_every".into(), Json::num(self.compare_every)),
            ("lint_oracle".into(), Json::Bool(self.lint_oracle)),
        ])
    }

    /// Deserializes a configuration.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed field.
    pub fn from_json(doc: &Json) -> Result<CampaignConfig, String> {
        let field = |name: &str| {
            doc.get(name)
                .ok_or_else(|| format!("missing field {name:?}"))
        };
        let num = |name: &str| {
            field(name)?
                .as_u64()
                .ok_or_else(|| format!("field {name:?} is not a number"))
        };
        let engines = field("engines")?
            .as_arr()
            .ok_or("field \"engines\" is not an array")?
            .iter()
            .map(|e| {
                e.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "engine names must be strings".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CampaignConfig {
            seed: num("seed")?,
            cases: u32::try_from(num("cases")?).map_err(|_| "cases out of range")?,
            engines,
            generator: GenOptions {
                size: usize::try_from(num("size")?).map_err(|_| "size out of range")?,
                cycles: num("cycles")?,
                io_every: u32::try_from(num("io_every")?).map_err(|_| "io_every out of range")?,
            },
            compare_every: num("compare_every")?,
            // Absent in documents written before the oracle existed.
            lint_oracle: doc
                .get("lint_oracle")
                .and_then(Json::as_bool)
                .unwrap_or(false),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_round_trips_through_json() {
        let config = CampaignConfig {
            seed: u64::MAX,
            cases: 7,
            engines: vec!["interp".into(), "vm-noopt".into()],
            generator: GenOptions {
                size: 12,
                cycles: 48,
                io_every: 3,
            },
            compare_every: 16,
            lint_oracle: true,
        };
        let back = CampaignConfig::from_json(&config.to_json()).unwrap();
        assert_eq!(back, config);

        // Documents written before the oracle existed have no
        // `lint_oracle` key; they deserialize with it off.
        let legacy = CampaignConfig {
            lint_oracle: false,
            ..config.clone()
        };
        let mut doc = legacy.to_json();
        if let Json::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "lint_oracle");
        }
        assert_eq!(CampaignConfig::from_json(&doc).unwrap(), legacy);
    }

    #[test]
    fn fingerprint_tracks_every_outcome_field() {
        let base = CampaignConfig::default();
        let fp = base.fingerprint();
        assert_eq!(fp, CampaignConfig::default().fingerprint(), "stable");
        let variants = [
            CampaignConfig {
                seed: 1,
                ..base.clone()
            },
            CampaignConfig {
                cases: 99,
                ..base.clone()
            },
            CampaignConfig {
                engines: vec!["interp".into(), "vm-noopt".into()],
                ..base.clone()
            },
            CampaignConfig {
                generator: GenOptions {
                    size: 31,
                    ..base.generator.clone()
                },
                ..base.clone()
            },
            CampaignConfig {
                compare_every: 2,
                ..base.clone()
            },
            CampaignConfig {
                lint_oracle: true,
                ..base.clone()
            },
        ];
        for v in variants {
            assert_ne!(v.fingerprint(), fp, "{v:?}");
        }
    }

    #[test]
    fn missing_fields_are_named() {
        let err = CampaignConfig::from_json(&Json::Obj(vec![])).unwrap_err();
        assert!(err.contains("missing field"), "{err}");
    }
}
