//! Shared drift/refusal validation for distributed campaign artifacts.
//!
//! A shard merge and a fleet-controller upload trust nothing they did not
//! check, and both check through one function,
//! [`CaseBundle::check`](rtl_campaign::CaseBundle::check): the record
//! (its index in the campaign's range, the index it claims, the seed the
//! configuration derives — `config.seed + index`, wrapping), the profile
//! and flight-recorder sidecars (each must parse), and the corpus entry
//! the record names (a plain file stem, a full load with the reference
//! checkpoint recomputed, the claimed fingerprint). So there is one
//! refusal surface for every artifact kind: a bundle a merge would refuse
//! is a bundle the controller refuses, with the same message. The record
//! rules are re-exported here under their historical names.

pub use rtl_campaign::bundle::{check_record, expected_seed, parse_record};

#[cfg(test)]
mod tests {
    use super::*;
    use rtl_campaign::{CampaignConfig, CaseRecord, CaseStatus};

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
