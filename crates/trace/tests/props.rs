//! Property-based tests of the trace generators and (de)serializers.

use edgescope_analysis::stats::select;
use edgescope_trace::app::AppCategory;
use edgescope_trace::flavor::FlavorParams;
use edgescope_trace::io::{series_from_bytes, series_to_bytes, vm_table_from_tsv, vm_table_to_tsv};
use edgescope_trace::per_vm;
use edgescope_trace::series::{TraceConfig, VmProfile};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn any_category(idx: usize) -> AppCategory {
    AppCategory::ALL[idx % AppCategory::ALL.len()]
}

/// Map a random code to an `f64` that is often an edge case: NaN of
/// either sign (quiet and signalling), ±0.0, ±inf, a value from a small
/// set (so duplicates are common), a subnormal, or arbitrary bits.
fn edgy_f64(code: u64) -> f64 {
    let rest = code >> 4;
    match code % 16 {
        0 => f64::from_bits(0x7ff8_0000_0000_0000 | (rest & 0xf)),
        1 => -f64::NAN,
        2 => f64::from_bits(0x7ff0_0000_0000_0001 + (rest & 0xf)),
        3 => 0.0,
        4 => -0.0,
        5 => f64::INFINITY,
        6 => f64::NEG_INFINITY,
        7..=10 => (rest % 5) as f64 - 2.0,
        11 => f64::from_bits(rest & 0x000f_ffff_ffff_ffff),
        _ => f64::from_bits(rest.rotate_left(7) ^ code),
    }
}

/// The sort-then-index definition selection replaces, kept only here as
/// the oracle.
fn sorted_rank(xs: &[f64], rank: usize) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cpu_series_always_valid(
        seed in 0u64..2000,
        cat in 0usize..10,
        util in 0.1..90.0f64,
        days in 1usize..10,
        interval in prop::sample::select(vec![1usize, 5, 10, 30, 60]),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = FlavorParams::edge_nep();
        let p = VmProfile::draw(&mut rng, &params, any_category(cat), util, 100.0);
        let cfg = TraceConfig { days, cpu_interval_min: interval, bw_interval_min: 60, start_weekday: 0 };
        let xs = p.cpu_series(&mut rng, &cfg);
        prop_assert_eq!(xs.len(), cfg.cpu_samples());
        for v in &xs {
            prop_assert!((0.0..=100.0).contains(v));
            prop_assert!(v.is_finite());
        }
    }

    #[test]
    fn bw_series_always_nonnegative(
        seed in 0u64..2000,
        cat in 0usize..10,
        sub in 1.0..1000.0f64,
        days in 1usize..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = FlavorParams::cloud_azure();
        let p = VmProfile::draw(&mut rng, &params, any_category(cat), 10.0, sub);
        let cfg = TraceConfig { days, cpu_interval_min: 60, bw_interval_min: 30, start_weekday: 0 };
        let xs = p.bw_series(&mut rng, &cfg);
        prop_assert_eq!(xs.len(), cfg.bw_samples());
        for v in &xs {
            prop_assert!(*v >= 0.0 && v.is_finite());
        }
        // Mean bandwidth stays below the subscription (customers
        // over-provision, §4.2).
        let mean = xs.iter().map(|&v| v as f64).sum::<f64>() / xs.len() as f64;
        prop_assert!(mean < sub * 1.5, "mean {mean} vs subscription {sub}");
    }

    #[test]
    fn series_parser_never_panics_on_noise(raw in prop::collection::vec(any::<u8>(), 0..400)) {
        // Corrupt/random input must produce Err or Ok, never a panic.
        let _ = series_from_bytes(&raw);
    }

    #[test]
    fn vm_table_parser_never_panics_on_noise(s in "\\PC*") {
        let _ = vm_table_from_tsv(&s);
    }

    #[test]
    fn series_truncation_always_detected(
        seed in 0u64..200,
        cut in 1usize..64,
    ) {
        let cfg = TraceConfig { days: 1, cpu_interval_min: 60, bw_interval_min: 120, start_weekday: 0 };
        let ds = edgescope_trace::dataset::TraceDataset::generate_azure(seed, 2, 3, cfg, 1);
        let series: Vec<_> = (0..ds.n_vms()).map(|i| ds.vm_series(i)).collect();
        let bytes = series_to_bytes(&series);
        prop_assume!(cut < bytes.len());
        prop_assert!(series_from_bytes(&bytes[..bytes.len() - cut]).is_err());
    }

    #[test]
    fn tsv_roundtrip_any_generated_population(seed in 0u64..500) {
        let cfg = TraceConfig { days: 1, cpu_interval_min: 60, bw_interval_min: 120, start_weekday: 0 };
        let ds = edgescope_trace::dataset::TraceDataset::generate_azure(seed, 3, 5, cfg, 1);
        let parsed = vm_table_from_tsv(&vm_table_to_tsv(&ds.records)).unwrap();
        prop_assert_eq!(parsed, ds.records);
    }

    #[test]
    fn selection_matches_sort_then_index(codes in prop::collection::vec(any::<u64>(), 1..96)) {
        let xs: Vec<f64> = codes.iter().map(|&c| edgy_f64(c)).collect();
        // Length 1, a middle prefix and the whole vector, at every rank.
        for len in [1, xs.len().div_ceil(2), xs.len()] {
            let xs = &xs[..len];
            for rank in 0..len {
                let got = select(&mut xs.to_vec(), rank);
                prop_assert_eq!(got.to_bits(), sorted_rank(xs, rank).to_bits(), "rank {} of {:?}", rank, xs);
            }
        }
    }

    #[test]
    fn series_p95_matches_sorted_p95(codes in prop::collection::vec(any::<u64>(), 1..400)) {
        let xs: Vec<f32> = codes.iter().map(|&c| edgy_f64(c) as f32).collect();
        let wide: Vec<f64> = xs.iter().map(|&v| v as f64).collect();
        let rank = (0.95 * (wide.len() - 1) as f64).round() as usize;
        prop_assert_eq!(per_vm::p95(&xs).to_bits(), sorted_rank(&wide, rank).to_bits());
        prop_assert_eq!(per_vm::p95(&xs[..1]).to_bits(), (xs[0] as f64).to_bits());
    }
}
