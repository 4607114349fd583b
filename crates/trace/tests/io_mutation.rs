//! Seeded mutation test of the trace artefact loaders
//! (`io::vm_table_from_tsv` and `io::series_from_bytes`).
//!
//! Small seeded datasets are serialized with `vm_table_to_tsv` and
//! `series_to_bytes`, then mutated by a splitmix64 stream: bit flips,
//! truncation, byte insertion, and splicing (lines and fields of the TSV,
//! 4-byte words of the binary, within one artefact and from a second
//! one).
//! A loader must never panic on a mutated artefact, and whatever it
//! accepts must re-serialize to bytes that parse back equal. A failing
//! case names its index and its input; the stream of case `i` is seeded
//! by `i` alone, so any case can be replayed. Std-only: no fuzzing crate.

use edgescope_trace::dataset::{TraceDataset, VmSeries};
use edgescope_trace::io::{series_from_bytes, series_to_bytes, vm_table_from_tsv, vm_table_to_tsv};
use edgescope_trace::series::TraceConfig;
use std::panic::catch_unwind;

/// Mutated artefacts per loader in the tier-1 run.
const CASES: usize = 3_000;

/// Mutated artefacts per loader in the long run (`cargo test --release
/// -p edgescope-trace --test io_mutation -- --ignored`).
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

/// Bytes that sit on the TSV loader's decision points: separators,
/// number syntax, the non-finite spellings, and a byte that is not UTF-8
/// alone.
const INSERTABLE: &[u8] = b"\t\n\r 0123456789.-+eENaninf\xff";

/// Four small datasets (two Azure-flavoured, two NEP-flavoured) over one
/// day of hourly CPU and two-hourly bandwidth samples.
fn datasets() -> Vec<TraceDataset> {
    let cfg = TraceConfig {
        days: 1,
        cpu_interval_min: 60,
        bw_interval_min: 120,
        start_weekday: 0,
    };
    (1..=4)
        .map(|seed| match seed % 2 {
            0 => TraceDataset::generate_nep(seed, 3, 3, cfg.clone(), 1).0,
            _ => TraceDataset::generate_azure(seed, 2, 3, cfg.clone(), 1),
        })
        .collect()
}

fn vm_tables() -> Vec<Vec<u8>> {
    let tables: Vec<Vec<u8>> = datasets()
        .iter()
        .map(|ds| vm_table_to_tsv(&ds.records).into_bytes())
        .collect();
    for tsv in &tables {
        let text = std::str::from_utf8(tsv).expect("TSV is UTF-8");
        let parsed = vm_table_from_tsv(text).expect("an unmutated table loads");
        assert_eq!(vm_table_to_tsv(&parsed), text, "unmutated round trip");
    }
    tables
}

fn series_artefacts() -> Vec<Vec<u8>> {
    let artefacts: Vec<Vec<u8>> = datasets()
        .iter()
        .map(|ds| {
            let series: Vec<VmSeries> = (0..ds.n_vms()).map(|i| ds.vm_series(i)).collect();
            series_to_bytes(&series)
        })
        .collect();
    for bytes in &artefacts {
        let parsed = series_from_bytes(bytes).expect("unmutated series load");
        assert_eq!(series_to_bytes(&parsed), *bytes, "unmutated round trip");
    }
    artefacts
}

/// Delete, duplicate or swap one of `parts`, or replace it with one of
/// `donor_parts`.
fn splice(rng: &mut SplitMix, parts: &mut Vec<Vec<u8>>, donor_parts: &[Vec<u8>]) {
    let i = rng.below(parts.len());
    let j = rng.below(parts.len());
    match rng.below(4) {
        0 => {
            parts.remove(i);
        }
        1 => {
            let part = parts[i].clone();
            parts.insert(j, part);
        }
        2 => parts.swap(i, j),
        _ => parts[i] = donor_parts[rng.below(donor_parts.len())].clone(),
    }
}

/// Apply one mutation to `bytes`. Bit flips, truncation and insertion
/// are shared; `text` picks the splice: lines and tab-separated fields
/// for the TSV, runs of 4-byte words (lengths and samples) for the
/// binary.
fn mutate(rng: &mut SplitMix, bytes: &mut Vec<u8>, donor: &[u8], text: bool) {
    match rng.below(4) {
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
            let b = if !text || rng.below(4) == 0 {
                rng.next() as u8
            } else {
                INSERTABLE[rng.below(INSERTABLE.len())]
            };
            bytes.insert(at, b);
        }
        _ if text => {
            let split = |b: &[u8], sep: u8| -> Vec<Vec<u8>> {
                b.split(|&c| c == sep).map(<[u8]>::to_vec).collect()
            };
            let mut lines = split(bytes, b'\n');
            if rng.below(2) == 0 {
                splice(rng, &mut lines, &split(donor, b'\n'));
            } else {
                // A field of one line is spliced with the fields of a
                // line of either artefact.
                let i = rng.below(lines.len());
                let from = if rng.below(2) == 0 {
                    split(bytes, b'\n')
                } else {
                    split(donor, b'\n')
                };
                let from_fields = split(&from[rng.below(from.len())], b'\t');
                let mut fields = split(&lines[i], b'\t');
                splice(rng, &mut fields, &from_fields);
                lines[i] = fields.join(&b'\t');
            }
            *bytes = lines.join(&b'\n');
        }
        _ => {
            let words = |b: &[u8]| -> Vec<Vec<u8>> { b.chunks(4).map(<[u8]>::to_vec).collect() };
            let mut parts = words(bytes);
            if parts.is_empty() {
                return;
            }
            splice(rng, &mut parts, &words(donor));
            *bytes = parts.concat();
        }
    }
}

/// Case `case`'s input: 1–3 mutations of one artefact, with another as
/// the donor, all drawn from the case's own stream.
fn mutated(case: usize, artefacts: &[Vec<u8>], text: bool) -> Vec<u8> {
    let mut rng = SplitMix(case as u64);
    let base = rng.below(artefacts.len());
    let donor = &artefacts[(base + 1 + rng.below(artefacts.len() - 1)) % artefacts.len()];
    let mut bytes = artefacts[base].clone();
    for _ in 0..1 + rng.below(3) {
        mutate(&mut rng, &mut bytes, donor, text);
    }
    bytes
}

/// Run `cases` mutated VM tables through the loader; panics on the first
/// case that crashes it or breaks the round trip. Returns (accepted,
/// rejected).
fn check_vm_table(cases: usize) -> (usize, usize) {
    let tables = vm_tables();
    let mut accepted = 0;
    for case in 0..cases {
        let input = String::from_utf8_lossy(&mutated(case, &tables, true)).into_owned();
        let loaded = catch_unwind(|| vm_table_from_tsv(&input))
            .unwrap_or_else(|_| panic!("case {case}: loader panicked on {input:?}"));
        let Ok(records) = loaded else { continue };
        accepted += 1;
        let again = vm_table_to_tsv(&records);
        let reloaded = vm_table_from_tsv(&again).unwrap_or_else(|e| {
            panic!("case {case}: accepted {input:?} but its re-serialization fails: {e}")
        });
        assert_eq!(
            reloaded, records,
            "case {case}: {input:?} does not survive a round trip"
        );
    }
    (accepted, cases - accepted)
}

/// As [`check_vm_table`] for the binary series. The format has one
/// encoding per value, so an accepted input must re-serialize to itself
/// byte for byte (bit patterns, not `==`, since a flipped exponent makes
/// a NaN sample).
fn check_series(cases: usize) -> (usize, usize) {
    let artefacts = series_artefacts();
    let mut accepted = 0;
    for case in 0..cases {
        let input = mutated(case, &artefacts, false);
        let loaded = catch_unwind(|| series_from_bytes(&input))
            .unwrap_or_else(|_| panic!("case {case}: loader panicked on {input:?}"));
        let Ok(series) = loaded else { continue };
        accepted += 1;
        let again = series_to_bytes(&series);
        assert_eq!(again, input, "case {case}: re-serialization differs");
        let reloaded = series_from_bytes(&again).unwrap_or_else(|e| {
            panic!("case {case}: accepted {input:?} but its re-serialization fails: {e}")
        });
        assert_eq!(
            series_to_bytes(&reloaded),
            again,
            "case {case}: does not survive a round trip"
        );
    }
    (accepted, cases - accepted)
}

/// The mutations must exercise both outcomes, or the test checks
/// nothing: some leave a valid artefact (a flipped digit or sample bit),
/// most break it.
fn assert_both_outcomes((accepted, rejected): (usize, usize)) {
    assert!(
        accepted > 0 && rejected > 0,
        "{accepted} accepted, {rejected} rejected"
    );
}

#[test]
fn mutated_vm_tables_never_panic_and_accepted_ones_round_trip() {
    assert_both_outcomes(check_vm_table(CASES));
}

#[test]
fn mutated_series_never_panic_and_accepted_ones_round_trip() {
    assert_both_outcomes(check_series(CASES));
}

#[test]
#[ignore = "10^6 mutated artefacts per loader; run in release with --ignored"]
fn a_million_mutated_trace_artefacts_never_panic() {
    check_vm_table(LONG_CASES);
    check_series(LONG_CASES);
}
