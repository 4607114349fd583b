//! Campaign artefacts that once crashed or slipped through
//! `campaign_from_tsv`, pinned as named regression cases. Each file under
//! `tests/data/` is a valid three-line artefact with one field doctored;
//! `campaign-tool summarize` must exit 1 on each, never abort or accept.

use edgescope_probe::records::{campaign_from_tsv, RecordError};

const LATITUDE_91: &str = include_str!("data/latitude_91.tsv");
const NAN_SHARE: &str = include_str!("data/nan_share.tsv");

#[test]
fn latitude_91_is_a_record_error_not_a_panic() {
    // Reached the `GeoPoint::new` range assert and aborted the tool.
    assert_eq!(
        campaign_from_tsv(LATITUDE_91).unwrap_err(),
        RecordError::Malformed("line 2: latitude out of range: 91".into())
    );
    // Only the doctored field is at fault.
    let repaired = LATITUDE_91.replacen("\t91.0\t", "\t28.9\t", 1);
    assert_eq!(campaign_from_tsv(&repaired).unwrap().results.len(), 1);
}

#[test]
fn nan_hop_share_is_a_record_error() {
    // Was accepted, and the NaN flowed into the Table 2 share means.
    assert_eq!(
        campaign_from_tsv(NAN_SHARE).unwrap_err(),
        RecordError::Malformed("line 3: bad share1".into())
    );
    let repaired = NAN_SHARE.replacen("\tNaN\t", "\t0.05\t", 1);
    assert_eq!(campaign_from_tsv(&repaired).unwrap().results.len(), 1);
}

#[test]
fn out_of_range_coordinates_on_a_later_row_are_rejected_too() {
    // Only a user's first row builds the `GeoPoint`; the others must
    // still be checked.
    let valid = LATITUDE_91.replacen("\t91.0\t", "\t28.9\t", 1);
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
