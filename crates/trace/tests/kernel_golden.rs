//! Golden bit-identity test of the series-synthesis kernel.
//!
//! Every series the trace generators synthesize is pinned by an FNV-64
//! hash of its `f32` bit patterns. The constants were computed from the
//! kernel after `series.rs`'s `kernel_equals_the_per_sample_formula`
//! had checked it, bit for bit, against `x(t)` evaluated one sample at a
//! time, so any change to the values, their order or the number of RNG
//! draws consumed fails here. Sampling
//! intervals cover one-minute CPU (1440 slots a day), the paper's 5/15
//! schema, hourly samples, and intervals that do not divide a day (7 and
//! 25 minutes), whose diurnal table repeats over several days.

use edgescope_trace::app::AppCategory;
use edgescope_trace::dataset::TraceDataset;
use edgescope_trace::series::{TraceConfig, VmProfile};
use edgescope_trace::StreamingTraceStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

fn hash_f32s<'a>(series: impl IntoIterator<Item = &'a [f32]>) -> u64 {
    let mut h = FNV_OFFSET;
    for xs in series {
        h = fnv(h, &(xs.len() as u64).to_le_bytes());
        for x in xs {
            h = fnv(h, &x.to_bits().to_le_bytes());
        }
    }
    h
}

fn hash_f64s(xs: &[f64]) -> u64 {
    xs.iter()
        .fold(FNV_OFFSET, |h, x| fnv(h, &x.to_bits().to_le_bytes()))
}

/// Hash of every VM's CPU series, regenerated from the dataset's seed.
fn cpu_hash(ds: &TraceDataset) -> u64 {
    let series: Vec<Vec<f32>> = (0..ds.n_vms()).map(|i| ds.cpu_series(i)).collect();
    hash_f32s(series.iter().map(Vec::as_slice))
}

/// Hash of every VM's bandwidth series, replayed from the dataset's
/// per-VM RNG states.
fn bw_hash(ds: &TraceDataset) -> u64 {
    let series: Vec<Vec<f32>> = (0..ds.n_vms()).map(|i| ds.bw_series(i)).collect();
    hash_f32s(series.iter().map(Vec::as_slice))
}

/// `(name, cpu interval, bw interval, days, start weekday)`: CPU at
/// {1, 5, 60, 7} min, bandwidth at {5, 15, 60, 25} min.
const CONFIGS: [(&str, usize, usize, usize, usize); 4] = [
    ("1/5", 1, 5, 9, 3),
    ("5/15", 5, 15, 9, 0),
    ("60/60", 60, 60, 9, 6),
    ("7/25", 7, 25, 4, 1),
];

fn config(cpu: usize, bw: usize, days: usize, start_weekday: usize) -> TraceConfig {
    TraceConfig {
        days,
        cpu_interval_min: cpu,
        bw_interval_min: bw,
        start_weekday,
    }
}

/// Every pinned hash, by name. On a mismatch the whole table is printed,
/// so a deliberate change to the generators can re-pin in one pass.
fn actual_hashes() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (name, cpu, bw, days, wd) in CONFIGS {
        let (nep, _) = TraceDataset::generate_nep(21, 6, 5, config(cpu, bw, days, wd), 1);
        out.push((format!("nep {name} cpu"), cpu_hash(&nep)));
        out.push((format!("nep {name} bw"), bw_hash(&nep)));
        let azure = TraceDataset::generate_azure(22, 3, 6, config(cpu, bw, days, wd), 1);
        out.push((format!("azure {name} cpu"), cpu_hash(&azure)));
        out.push((format!("azure {name} bw"), bw_hash(&azure)));
    }

    // The per-VM accessors behind Fig. 10.
    let (nep, _) = TraceDataset::generate_nep(23, 6, 5, config(5, 15, 9, 0), 1);
    out.push((
        "accessor mean_cpu".into(),
        hash_f64s(&nep.mean_cpu_per_vm()),
    ));
    out.push(("accessor p95_cpu".into(), hash_f64s(&nep.p95_cpu_per_vm())));
    out.push(("accessor cpu_cv".into(), hash_f64s(&nep.cpu_cv_per_vm())));
    let mean_bw: Vec<f64> = nep.bw_stats.iter().map(|s| s.mean).collect();
    out.push(("accessor mean_bw".into(), hash_f64s(&mean_bw)));

    // A noiseless profile must not consume a draw per sample; the next
    // draw after both series pins how many were taken.
    let profile = VmProfile {
        category: AppCategory::LiveStreaming,
        mean_util_pct: 12.0,
        diurnal_amp: 0.7,
        phase_h: 0.9,
        noise_cv: 0.0,
        bw_mean_mbps: 40.0,
        bw_drift_sigma: Some(0.4),
        day_amp_cv: 0.3,
    };
    let mut rng = StdRng::seed_from_u64(24);
    let cfg = config(5, 15, 9, 2);
    let cpu = profile.cpu_series(&mut rng, &cfg);
    let bw = profile.bw_series(&mut rng, &cfg);
    out.push(("noiseless cpu".into(), hash_f32s([cpu.as_slice()])));
    out.push(("noiseless bw".into(), hash_f32s([bw.as_slice()])));
    out.push(("noiseless next draw".into(), rng.gen::<u64>()));
    out
}

const EXPECTED: [(&str, u64); 23] = [
    ("nep 1/5 cpu", 0xd282cd711020b51e),
    ("nep 1/5 bw", 0xd9fb5d899df8ff8f),
    ("azure 1/5 cpu", 0x99301023c9e62fa3),
    ("azure 1/5 bw", 0x9563a64540af9dfb),
    ("nep 5/15 cpu", 0x987ceb837621e335),
    ("nep 5/15 bw", 0x7e1e8ad178e417f0),
    ("azure 5/15 cpu", 0x5dde1bd591366510),
    ("azure 5/15 bw", 0x08163613221f8634),
    ("nep 60/60 cpu", 0x7e1368f1130dd143),
    ("nep 60/60 bw", 0x4e022e98e5f1aa82),
    ("azure 60/60 cpu", 0x69991d6109d42d47),
    ("azure 60/60 bw", 0xf03f5b2361ea130b),
    ("nep 7/25 cpu", 0xef73595ccee8b87f),
    ("nep 7/25 bw", 0xcf52d0e26194f01b),
    ("azure 7/25 cpu", 0x91124d7bd8631b02),
    ("azure 7/25 bw", 0xc07c2c36ec12e618),
    ("accessor mean_cpu", 0x5e4f1490c2ed1fc4),
    ("accessor p95_cpu", 0x5b3b3cb8105401ce),
    ("accessor cpu_cv", 0x56e41a93f61b2d7e),
    ("accessor mean_bw", 0x1ce20b7c74ecc13d),
    ("noiseless cpu", 0xd276a3cbc7162c02),
    ("noiseless bw", 0x6a336f2753e3d458),
    ("noiseless next draw", 0xb2cf412e8be11431),
];

#[test]
fn series_and_accessors_match_pinned_hashes() {
    let actual = actual_hashes();
    let table: String = actual
        .iter()
        .map(|(name, h)| format!("    (\"{name}\", {h:#018x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = EXPECTED
        .iter()
        .map(|&(name, h)| (name.to_string(), h))
        .collect();
    assert_eq!(actual, expected, "actual hashes:\n{table}");
}

/// FNV-64 over the values of `stats`: its VM count, then per sketch its
/// count, its range (lower end and bucket total) and every bucket count,
/// zero bucket included. No field name enters the hash.
fn stats_hash(stats: &StreamingTraceStats) -> u64 {
    let mut h = fnv(FNV_OFFSET, &stats.n_vms.to_le_bytes());
    for sketch in [
        &stats.mean_cpu,
        &stats.p95_cpu,
        &stats.cpu_cv,
        &stats.mean_bw,
    ] {
        let buckets: Vec<u64> = sketch.bucket_counts().collect();
        h = fnv(h, &sketch.count().to_le_bytes());
        h = fnv(h, &sketch.min_value().to_bits().to_le_bytes());
        h = fnv(h, &(buckets.len() as u64).to_le_bytes());
        for b in buckets {
            h = fnv(h, &b.to_le_bytes());
        }
    }
    h
}

#[test]
fn streaming_stats_match_pinned_hashes() {
    let cfg = config(5, 15, 9, 0);
    let nep = StreamingTraceStats::of(&TraceDataset::generate_nep(23, 6, 5, cfg.clone(), 2).0);
    let azure = StreamingTraceStats::of(&TraceDataset::generate_azure(22, 3, 6, cfg, 2));
    assert_eq!(
        (stats_hash(&nep), stats_hash(&azure)),
        (0x570a_3b5f_2a16_7be6, 0x0932_d7c0_405b_b930),
        "actual: ({:#018x}, {:#018x})",
        stats_hash(&nep),
        stats_hash(&azure)
    );
}
