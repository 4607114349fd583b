//! Campaign artefacts that once crashed or slipped through
//! `campaign_from_tsv`, pinned as named regression cases. Each file under
//! `tests/data/` is a valid three-line artefact with one field (in
//! `user_conflict.tsv`, one user's fields; in
//! `target_idx_out_of_order.tsv`, the order of its two rows) doctored;
//! `campaign-tool summarize` must exit 1 on each, never abort or accept.

use edgescope_probe::records::{campaign_from_tsv, RecordError};

const LATITUDE_91: &str = include_str!("data/latitude_91.tsv");
const NAN_SHARE: &str = include_str!("data/nan_share.tsv");
const SHARE_7_5: &str = include_str!("data/share_7_5.tsv");
const SHARE_SUM_0_99: &str = include_str!("data/share_sum_0_99.tsv");
const USER_CONFLICT: &str = include_str!("data/user_conflict.tsv");
const TARGET_IDX_NOT_A_NUMBER: &str = include_str!("data/target_idx_not_a_number.tsv");
const TARGET_IDX_OUT_OF_ORDER: &str = include_str!("data/target_idx_out_of_order.tsv");

#[test]
fn latitude_91_is_a_record_error_not_a_panic() {
    // Reached the `GeoPoint::new` range assert and aborted the tool.
    assert_eq!(
        campaign_from_tsv(LATITUDE_91).unwrap_err(),
        RecordError::Malformed("line 2: latitude out of range: 91".into())
    );
    // Only the doctored field is at fault.
    let repaired = LATITUDE_91.replacen("\t91.0\t", "\t28.967891556222863\t", 1);
    assert_eq!(campaign_from_tsv(&repaired).unwrap().results.len(), 1);
}

#[test]
fn nan_hop_share_is_a_record_error() {
    // Was accepted, and the NaN flowed into the Table 2 share means.
    assert_eq!(
        campaign_from_tsv(NAN_SHARE).unwrap_err(),
        RecordError::Malformed("line 3: bad share1".into())
    );
    let repaired = NAN_SHARE.replacen("\tNaN\t", &format!("\t{}\t", share1_of(NAN_SHARE)), 1);
    assert_eq!(campaign_from_tsv(&repaired).unwrap().results.len(), 1);
}

/// The share1 that makes line 3's four hop shares sum to one: 1 minus
/// the other three.
fn share1_of(tsv: &str) -> f64 {
    let f: Vec<&str> = tsv.lines().nth(2).unwrap().split('\t').collect();
    1.0 - f[11..=13]
        .iter()
        .map(|s| s.parse::<f64>().unwrap())
        .sum::<f64>()
}

#[test]
fn hop_shares_that_do_not_sum_to_one_are_a_record_error() {
    // Was accepted: every share lies in [0, 1], but together they split
    // only 99 % of the RTT.
    assert_eq!(
        campaign_from_tsv(SHARE_SUM_0_99).unwrap_err(),
        RecordError::Malformed("line 3: hop shares sum to 0.9915448394001919".into())
    );
    // Too much is rejected as well.
    let over = SHARE_SUM_0_99.replacen("\t0.05\t", "\t0.07\t", 1);
    assert_eq!(
        campaign_from_tsv(&over).unwrap_err(),
        RecordError::Malformed("line 3: hop shares sum to 1.0115448394001918".into())
    );
    // The row's original share1 sums to one within the tolerance.
    let repaired =
        SHARE_SUM_0_99.replacen("\t0.05\t", &format!("\t{}\t", share1_of(SHARE_SUM_0_99)), 1);
    assert_eq!(campaign_from_tsv(&repaired).unwrap().results.len(), 1);
}

#[test]
fn out_of_range_coordinates_on_a_later_row_are_rejected_too() {
    // Only a user's first row builds the `GeoPoint`; the others must
    // still be checked.
    let valid = LATITUDE_91.replacen("\t91.0\t", "\t28.967891556222863\t", 1);
    let lines: Vec<&str> = valid.lines().collect();
    let mut f: Vec<&str> = lines[2].split('\t').collect();
    f[3] = "-181";
    let row = f.join("\t");
    let doctored = [lines[0], lines[1], &row].join("\n");
    assert_eq!(
        campaign_from_tsv(&doctored).unwrap_err(),
        RecordError::Malformed("line 3: longitude out of range: -181".into())
    );
}

#[test]
fn hop_share_outside_the_unit_interval_is_a_record_error() {
    // Was accepted: a share of 7.5 would be averaged into Table 2.
    assert_eq!(
        campaign_from_tsv(SHARE_7_5).unwrap_err(),
        RecordError::Malformed("line 3: share1 outside [0, 1]: 7.5".into())
    );
    assert_eq!(
        campaign_from_tsv(&SHARE_7_5.replacen("\t7.5\t", "\t-0.1\t", 1)).unwrap_err(),
        RecordError::Malformed("line 3: share1 outside [0, 1]: -0.1".into())
    );
    // Both ends of the interval are shares (with the rest of the row's
    // shares making up one RTT).
    let row: Vec<&str> = SHARE_7_5.lines().nth(2).unwrap().split('\t').collect();
    for (share1, share_rest) in [("0", "1"), ("1", "0")] {
        let mut f = row.clone();
        f[10..=13].copy_from_slice(&[share1, "0", "0", share_rest]);
        let lines: Vec<&str> = SHARE_7_5.lines().take(2).collect();
        let at_edge = [lines[0], lines[1], &f.join("\t")].join("\n");
        assert_eq!(
            campaign_from_tsv(&at_edge).unwrap().results.len(),
            1,
            "share1 = {share1}"
        );
    }
}

#[test]
fn a_user_whose_later_row_disagrees_is_a_record_error() {
    // Was accepted: the user was built from the Luzhou/5g first row and
    // the Beijing/wifi second row's user fields were dropped.
    assert_eq!(
        campaign_from_tsv(USER_CONFLICT).unwrap_err(),
        RecordError::Malformed("line 3: user 0 changes city, network or coordinates".into())
    );
    // Any one differing field is enough.
    let first: Vec<&str> = USER_CONFLICT.lines().nth(1).unwrap().split('\t').collect();
    let second: Vec<&str> = USER_CONFLICT.lines().nth(2).unwrap().split('\t').collect();
    for col in 1..=4 {
        let mut row = second.clone();
        row[1..=4].copy_from_slice(&first[1..=4]);
        row[col] = second[col];
        let lines: Vec<&str> = USER_CONFLICT.lines().take(2).collect();
        let doctored = [lines[0], lines[1], &row.join("\t")].join("\n");
        assert!(
            campaign_from_tsv(&doctored).is_err(),
            "column {col} differs"
        );
        row[col] = first[col];
        let agreed = [lines[0], lines[1], &row.join("\t")].join("\n");
        assert_eq!(campaign_from_tsv(&agreed).unwrap().results.len(), 1);
    }
}

#[test]
fn target_idx_that_is_not_a_number_is_a_record_error() {
    // Was accepted: column 7 was never read.
    assert_eq!(
        campaign_from_tsv(TARGET_IDX_NOT_A_NUMBER).unwrap_err(),
        RecordError::Malformed("line 3: bad target_idx".into())
    );
    let repaired = TARGET_IDX_NOT_A_NUMBER.replacen("\tbanana\t", "\t1\t", 1);
    assert_eq!(
        campaign_from_tsv(&repaired).unwrap().results[0].edge.len(),
        2
    );
}

#[test]
fn target_rows_out_of_order_are_a_record_error() {
    // Was accepted: the two edge rows are swapped, so the user's edge
    // targets loaded in the wrong order.
    assert_eq!(
        campaign_from_tsv(TARGET_IDX_OUT_OF_ORDER).unwrap_err(),
        RecordError::Malformed("line 2: edge target_idx 1 out of order (expected 0)".into())
    );
    let lines: Vec<&str> = TARGET_IDX_OUT_OF_ORDER.lines().collect();
    let repaired = [lines[0], lines[2], lines[1]].join("\n");
    assert_eq!(
        campaign_from_tsv(&repaired).unwrap().results[0].edge.len(),
        2
    );
    // A duplicated row and an index past the user's targets are rejected
    // too.
    let duplicated = [lines[0], lines[2], lines[2]].join("\n");
    assert_eq!(
        campaign_from_tsv(&duplicated).unwrap_err(),
        RecordError::Malformed("line 3: edge target_idx 0 out of order (expected 1)".into())
    );
    let past_the_end = repaired.replacen("\tedge\t1\t", "\tedge\t99\t", 1);
    assert_eq!(
        campaign_from_tsv(&past_the_end).unwrap_err(),
        RecordError::Malformed("line 3: edge target_idx 99 out of order (expected 1)".into())
    );
}

#[test]
fn network_names_are_exact_lower_case() {
    // The format writes `wifi`, `lte`, `5g` and `wired`; any other case
    // is not that network.
    let valid = LATITUDE_91.replacen("\t91.0\t", "\t28.967891556222863\t", 1);
    for (name, ok) in [
        ("wifi", true),
        ("lte", true),
        ("5g", true),
        ("wired", true),
        ("WiFi", false),
        ("LTE", false),
        ("5G", false),
        ("Wired", false),
        ("4g", false),
    ] {
        let doctored = valid.replace("\t5g\t", &format!("\t{name}\t"));
        match campaign_from_tsv(&doctored) {
            Ok(campaign) => {
                assert!(ok, "{name} was accepted");
                assert_eq!(
                    campaign.results[0].user.access.label().to_ascii_lowercase(),
                    name
                );
            }
            Err(e) => {
                assert!(!ok, "{name}: {e}");
                assert_eq!(e, RecordError::Malformed("line 2: bad network".into()));
            }
        }
    }
}
