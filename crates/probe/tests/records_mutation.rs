//! Seeded mutation test of the campaign artefact loader
//! (`records::campaign_from_tsv`).
//!
//! Small seeded campaigns are serialized with `campaign_to_tsv`, then
//! mutated by a splitmix64 stream: bit flips, truncation, byte insertion,
//! and line and field splicing (within one artefact and across two). The
//! loader must never panic on a mutated artefact, and whatever it accepts
//! must re-serialize to a TSV that loads back to the same campaign. A
//! failing case names its index and its input; the stream of case `i` is
//! seeded by `i` alone, so any case can be replayed. Std-only: no fuzzing
//! crate.

use edgescope_platform::deployment::Deployment;
use edgescope_probe::latency::{LatencyCampaign, LatencyConfig};
use edgescope_probe::records::{campaign_from_tsv, campaign_to_tsv};
use edgescope_probe::user::recruit;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::catch_unwind;

/// Mutated artefacts in the tier-1 run.
const CASES: usize = 3_000;

/// Mutated artefacts in the long run (`cargo test --release -p
/// edgescope-probe --test records_mutation -- --ignored`).
const LONG_CASES: usize = 1_000_000;

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Bytes that sit on the loader's decision points: separators, number
/// syntax, the non-finite spellings, and a byte that is not UTF-8 alone.
const INSERTABLE: &[u8] = b"\t\n\r 0123456789.-+eENaninf\xff";

/// A small campaign: 3 users against 4 edge sites and Huawei Cloud's 5
/// regions, 27 rows.
fn campaign_tsv(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let edge = Deployment::nep(&mut rng, 4);
    let cloud = Deployment::huawei_cloud();
    let users = recruit(&mut rng, 3);
    let cfg = LatencyConfig {
        pings_per_target: 5,
    };
    campaign_to_tsv(&LatencyCampaign::run(seed, &users, &edge, &cloud, &cfg, 1))
}

fn split_lines(bytes: &[u8]) -> Vec<Vec<u8>> {
    bytes.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect()
}

fn join_lines(lines: &[Vec<u8>]) -> Vec<u8> {
    lines.join(&b'\n')
}

/// Apply one mutation to `bytes`; `donor` is a second artefact to splice
/// lines and fields from.
fn mutate(rng: &mut SplitMix, bytes: &mut Vec<u8>, donor: &[u8]) {
    match rng.below(5) {
        // Bit flip.
        0 if !bytes.is_empty() => {
            let i = rng.below(bytes.len());
            bytes[i] ^= 1 << rng.below(8);
        }
        // Truncation.
        1 => {
            let at = rng.below(bytes.len() + 1);
            bytes.truncate(at);
        }
        // Byte insertion.
        2 => {
            let at = rng.below(bytes.len() + 1);
            let b = if rng.below(4) == 0 {
                rng.next() as u8
            } else {
                INSERTABLE[rng.below(INSERTABLE.len())]
            };
            bytes.insert(at, b);
        }
        // Line splice: delete, duplicate, swap, or take one from the donor.
        3 => {
            let mut lines = split_lines(bytes);
            let donor_lines = split_lines(donor);
            let i = rng.below(lines.len());
            let j = rng.below(lines.len());
            match rng.below(4) {
                0 => {
                    lines.remove(i);
                }
                1 => {
                    let line = lines[i].clone();
                    lines.insert(j, line);
                }
                2 => lines.swap(i, j),
                _ => lines[i] = donor_lines[rng.below(donor_lines.len())].clone(),
            }
            *bytes = join_lines(&lines);
        }
        // Field splice: a field takes the value of a field from another
        // line (and maybe another column, or the donor), or is dropped.
        _ => {
            let mut lines = split_lines(bytes);
            let source = if rng.below(2) == 0 {
                lines.clone()
            } else {
                split_lines(donor)
            };
            let i = rng.below(lines.len());
            let mut fields: Vec<Vec<u8>> = lines[i]
                .split(|&b| b == b'\t')
                .map(<[u8]>::to_vec)
                .collect();
            let k = rng.below(fields.len());
            if rng.below(8) == 0 {
                fields.remove(k);
            } else {
                let from = &source[rng.below(source.len())];
                let from_fields: Vec<&[u8]> = from.split(|&b| b == b'\t').collect();
                let col = if rng.below(2) == 0 && k < from_fields.len() {
                    k
                } else {
                    rng.below(from_fields.len())
                };
                fields[k] = from_fields[col].to_vec();
            }
            lines[i] = fields.join(&b'\t');
            *bytes = join_lines(&lines);
        }
    }
}

/// Run `cases` mutated artefacts through the loader; panics on the first
/// case that crashes it or breaks the round trip.
fn check(cases: usize) -> (usize, usize) {
    let artefacts: Vec<String> = (1..=4).map(campaign_tsv).collect();
    for tsv in &artefacts {
        let parsed = campaign_from_tsv(tsv).expect("an unmutated artefact loads");
        assert_eq!(campaign_to_tsv(&parsed), *tsv, "unmutated round trip");
    }
    let mut accepted = 0;
    for case in 0..cases {
        let mut rng = SplitMix(case as u64);
        let base = rng.below(artefacts.len());
        let donor = &artefacts[(base + 1 + rng.below(artefacts.len() - 1)) % artefacts.len()];
        let mut bytes = artefacts[base].clone().into_bytes();
        for _ in 0..1 + rng.below(3) {
            mutate(&mut rng, &mut bytes, donor.as_bytes());
        }
        let input = String::from_utf8_lossy(&bytes).into_owned();
        let loaded = catch_unwind(|| campaign_from_tsv(&input))
            .unwrap_or_else(|_| panic!("case {case}: loader panicked on {input:?}"));
        let Ok(campaign) = loaded else { continue };
        accepted += 1;
        let again = campaign_to_tsv(&campaign);
        let reloaded = campaign_from_tsv(&again).unwrap_or_else(|e| {
            panic!("case {case}: accepted {input:?} but its re-serialization fails: {e}")
        });
        assert_eq!(
            reloaded.results, campaign.results,
            "case {case}: {input:?} does not survive a round trip"
        );
    }
    (accepted, cases - accepted)
}

#[test]
fn mutated_artefacts_never_panic_and_accepted_ones_round_trip() {
    let (accepted, rejected) = check(CASES);
    // The mutations must exercise both outcomes, or the test checks
    // nothing: some leave a valid artefact (a flipped digit, a swapped
    // row of one user), most break it.
    assert!(
        accepted > 0 && rejected > accepted,
        "{accepted} accepted, {rejected} rejected"
    );
}

#[test]
#[ignore = "10^6 mutated artefacts; run in release with --ignored"]
fn a_million_mutated_artefacts_never_panic() {
    check(LONG_CASES);
}
