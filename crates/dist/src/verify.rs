//! Shared drift/refusal validation for distributed campaign artifacts.
//!
//! A shard merge and a fleet-controller upload enforce the same
//! invariants on a case record before trusting it: the index must lie in
//! the campaign's range, the file must record *its own* index, and the
//! recorded seed must be the one the campaign configuration derives
//! (`config.seed + index`, wrapping). Centralizing the checks keeps the
//! two refusal surfaces identical — a record a merge would refuse is a
//! record the controller refuses, with the same message.

use rtl_campaign::{CampaignConfig, CaseRecord};
use rtl_obs::json::Json;

/// The seed the configuration derives for case `index`.
pub fn expected_seed(config: &CampaignConfig, index: u32) -> u64 {
    config.seed.wrapping_add(u64::from(index))
}

/// Validates one case record against the campaign configuration:
/// in-range index and the derived seed.
///
/// # Errors
///
/// A message naming the failed invariant (stable text — both the shard
/// merge and the fleet controller surface it verbatim).
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

/// Parses a case record from its on-disk text and validates it against
/// the configuration ([`check_record`]), additionally requiring the
/// record to describe the claimed `index`.
///
/// # Errors
///
/// Unparseable text, an index/claim mismatch, or a [`check_record`]
/// failure.
pub fn parse_record(config: &CampaignConfig, index: u32, text: &str) -> Result<CaseRecord, String> {
    let doc = Json::parse(text)?;
    let record = CaseRecord::from_json(&doc)?;
    if record.index != index {
        return Err(format!(
            "record claims case {} but was uploaded for case {index}",
            record.index
        ));
    }
    check_record(config, &record)?;
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtl_campaign::{CaseRecord, CaseStatus};

    fn record(index: u32, seed: u64) -> CaseRecord {
        CaseRecord {
            index,
            seed,
            cycles: 4,
            lane_stats: Vec::new(),
            status: CaseStatus::Agreed,
        }
    }

    #[test]
    fn seed_and_range_invariants_are_enforced() {
        let config = CampaignConfig {
            seed: 10,
            cases: 3,
            ..CampaignConfig::default()
        };
        assert_eq!(expected_seed(&config, 2), 12);
        assert!(check_record(&config, &record(2, 12)).is_ok());
        let err = check_record(&config, &record(2, 99)).unwrap_err();
        assert!(err.contains("derives 12"), "{err}");
        let err = check_record(&config, &record(3, 13)).unwrap_err();
        assert!(err.contains("outside"), "{err}");
    }

    #[test]
    fn seed_wraps_like_the_runner() {
        let config = CampaignConfig {
            seed: u64::MAX,
            cases: 2,
            ..CampaignConfig::default()
        };
        assert_eq!(expected_seed(&config, 1), 0);
    }

    #[test]
    fn parsed_uploads_must_describe_their_claimed_case() {
        let config = CampaignConfig {
            seed: 0,
            cases: 5,
            ..CampaignConfig::default()
        };
        let text = record(1, 1).to_json().render();
        assert!(parse_record(&config, 1, &text).is_ok());
        let err = parse_record(&config, 2, &text).unwrap_err();
        assert!(err.contains("claims case 1"), "{err}");
        assert!(parse_record(&config, 1, "not json").is_err());
    }
}
