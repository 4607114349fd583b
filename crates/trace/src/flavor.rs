//! Population parameter sets: edge (NEP) vs. cloud (Azure-like).
//!
//! Every §4 contrast between NEP and Azure is encoded as a difference
//! between these two parameter sets; the generators in [`crate::population`]
//! and [`crate::series`] read them. Calibration targets are listed in the
//! crate docs.

use crate::app::AppCategory;
use rand::Rng;

/// Which platform a trace models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// NEP: the measured edge platform.
    EdgeNep,
    /// The Azure-2019-like public cloud.
    CloudAzure,
}

impl Flavor {
    /// Both flavors, in the order `trace-tool`'s usage text lists them.
    pub const ALL: [Flavor; 2] = [Flavor::EdgeNep, Flavor::CloudAzure];

    /// The flavor's name on the command line: `nep` or `azure`.
    pub fn name(self) -> &'static str {
        match self {
            Flavor::EdgeNep => "nep",
            Flavor::CloudAzure => "azure",
        }
    }

    /// The flavor whose [`Flavor::name`] is exactly `s`.
    pub fn parse(s: &str) -> Option<Flavor> {
        Flavor::ALL.into_iter().find(|f| f.name() == s)
    }
}

/// How a VM's memory is derived.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemMode {
    /// Memory proportional to cores (NEP's flavour: 4 GB/core, so the
    /// median 8-core VM has the Fig. 8 median of 32 GB).
    PerCore(u32),
    /// Memory drawn from its own `(GB, weight)` table, independent of
    /// cores (Azure's flavour: median 4 GB, 70 % ≤ 4 GB).
    Table(&'static [(u32, f64)]),
}

/// Distribution parameters of a VM population.
#[derive(Debug, Clone)]
pub struct FlavorParams {
    /// Which platform these parameters model.
    pub flavor: Flavor,
    /// Category mix for apps.
    pub category_mix: &'static [(AppCategory, f64)],
    /// `(cores, weight)` table for VM sizes.
    pub core_weights: &'static [(u32, f64)],
    /// Memory model.
    pub mem_mode: MemMode,
    /// Bounded-Pareto shape for per-app VM counts on `[1, max_vms_per_app]`.
    pub app_vms_alpha: f64,
    /// Upper bound of the per-app VM count.
    pub max_vms_per_app: f64,
    /// Storage log-normal: median GB and sigma (NEP: median 100, mean 650
    /// ⇒ sigma ≈ 1.93).
    pub storage_median_gb: f64,
    /// Log-normal sigma of the storage size.
    pub storage_sigma: f64,
    /// Mixture for per-VM mean CPU utilization (percent): probability of
    /// the "idle" component, then (median, sigma) of idle and busy
    /// log-normal components.
    pub idle_prob: f64,
    /// Median of the idle component, percent.
    pub idle_median_pct: f64,
    /// Log-normal sigma of the idle component.
    pub idle_sigma: f64,
    /// Median of the busy component, percent.
    pub busy_median_pct: f64,
    /// Log-normal sigma of the busy component.
    pub busy_sigma: f64,
    /// Within-app spread of per-VM mean utilization: log-normal parameters
    /// of the per-app sigma (drives Fig. 13a's gap CDF).
    pub within_app_sigma_median: f64,
    /// Spread (log-sigma) of the per-app sigma draw.
    pub within_app_sigma_spread: f64,
    /// Diurnal amplitude range `[lo, hi]` for interactive apps (drives CV
    /// and seasonality, Fig. 10b / §4.4).
    pub diurnal_amp: (f64, f64),
    /// Per-sample multiplicative noise CV of the CPU series.
    pub cpu_noise_cv: f64,
    /// Per-day amplitude jitter (CV of a daily multiplier on the diurnal
    /// swing) — day-to-day irregularity that caps seasonal strength at the
    /// paper's 0.42/0.26 levels instead of a metronomic 0.9+.
    pub day_amp_cv: f64,
    /// Probability a VM's bandwidth level drifts week over week (Fig. 12's
    /// erratic VMs).
    pub bw_drift_prob: f64,
    /// Weekly drift sigma (log-scale random walk).
    pub bw_drift_sigma: f64,
}

impl FlavorParams {
    /// NEP calibration.
    pub fn edge_nep() -> Self {
        FlavorParams {
            flavor: Flavor::EdgeNep,
            category_mix: AppCategory::EDGE_MIX,
            // Median 8 cores; ≈30 % ≤4 ("small"), ≈14 % >16 ("large").
            core_weights: &[
                (2, 0.06),
                (4, 0.24),
                (8, 0.34),
                (16, 0.22),
                (32, 0.10),
                (64, 0.04),
            ],
            mem_mode: MemMode::PerCore(4),
            // ≈9.6 % of apps at ≥50 VMs, max ≈1000 (Fig. 9).
            app_vms_alpha: 0.55,
            max_vms_per_app: 1000.0,
            storage_median_gb: 100.0,
            storage_sigma: 1.93,
            // ≈74 % of VMs under 10 % mean CPU; busy tail modest.
            idle_prob: 0.74,
            idle_median_pct: 3.0,
            idle_sigma: 0.75,
            busy_median_pct: 14.0,
            busy_sigma: 0.70,
            // 16.3 % of apps with >50× cross-VM gap.
            within_app_sigma_median: 0.74,
            within_app_sigma_spread: 0.685,
            // Strong human-driven diurnality: CV median ≈0.48, seasonality
            // ≈0.42.
            diurnal_amp: (0.5, 0.95),
            cpu_noise_cv: 0.20,
            day_amp_cv: 0.55,
            bw_drift_prob: 0.35,
            bw_drift_sigma: 0.45,
        }
    }

    /// Azure-2019 calibration.
    pub fn cloud_azure() -> Self {
        FlavorParams {
            flavor: Flavor::CloudAzure,
            category_mix: AppCategory::CLOUD_MIX,
            // Median 1 core, 90 % ≤4 (Fig. 8).
            core_weights: &[
                (1, 0.52),
                (2, 0.25),
                (4, 0.13),
                (8, 0.07),
                (16, 0.025),
                (32, 0.005),
            ],
            // Median 4 GB, 70 % ≤ 4 GB (Fig. 8).
            mem_mode: MemMode::Table(&[
                (1, 0.08),
                (2, 0.17),
                (4, 0.45),
                (8, 0.17),
                (16, 0.08),
                (32, 0.04),
                (64, 0.01),
            ]),
            app_vms_alpha: 0.70,
            max_vms_per_app: 1000.0,
            storage_median_gb: 64.0,
            storage_sigma: 1.2,
            // ≈47 % under 10 %; busy tail heavy (clouds run hot).
            idle_prob: 0.47,
            idle_median_pct: 3.5,
            idle_sigma: 0.75,
            busy_median_pct: 38.0,
            busy_sigma: 0.65,
            // Only ≈0.1 % of apps with >50× gap.
            within_app_sigma_median: 0.25,
            within_app_sigma_spread: 0.50,
            // Weak diurnality: CV median ≈0.24, seasonality ≈0.26.
            diurnal_amp: (0.12, 0.38),
            cpu_noise_cv: 0.16,
            day_amp_cv: 0.35,
            bw_drift_prob: 0.15,
            bw_drift_sigma: 0.25,
        }
    }
}

impl FlavorParams {
    /// Draw one VM size `(cores, mem_gb)`: cores from
    /// [`FlavorParams::core_weights`], then memory by
    /// [`FlavorParams::mem_mode`] (a second draw only for
    /// [`MemMode::Table`]), at least 1 GB.
    pub fn sample_size(&self, rng: &mut impl Rng) -> (u32, u32) {
        let cores = sample_weighted(rng, self.core_weights);
        let mem_gb = match self.mem_mode {
            MemMode::PerCore(per) => cores * per,
            MemMode::Table(t) => sample_weighted(rng, t),
        };
        (cores, mem_gb.max(1))
    }
}

/// One draw from a `(value, weight)` table.
fn sample_weighted(rng: &mut impl Rng, table: &[(u32, f64)]) -> u32 {
    let total: f64 = table.iter().map(|(_, w)| w).sum();
    let mut t = rng.gen::<f64>() * total;
    for (v, w) in table {
        t -= w;
        if t <= 0.0 {
            return *v;
        }
    }
    table.last().expect("empty weight table").0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_flavor_name_parses_back_and_names_are_distinct() {
        for (i, flavor) in Flavor::ALL.into_iter().enumerate() {
            assert_eq!(Flavor::parse(flavor.name()), Some(flavor));
            for other in &Flavor::ALL[i + 1..] {
                assert_ne!(flavor, *other);
                assert_ne!(flavor.name(), other.name());
            }
        }
        assert_eq!(Flavor::ALL.map(Flavor::name), ["nep", "azure"]);
        for junk in ["", "NEP", " azure", "cloud"] {
            assert_eq!(Flavor::parse(junk), None, "{junk:?}");
        }
    }

    fn weighted_median(weights: &[(u32, f64)]) -> u32 {
        let total: f64 = weights.iter().map(|(_, w)| w).sum();
        let mut acc = 0.0;
        for (v, w) in weights {
            acc += w;
            if acc >= total / 2.0 {
                return *v;
            }
        }
        weights.last().unwrap().0
    }

    #[test]
    fn core_medians_match_fig8() {
        assert_eq!(weighted_median(FlavorParams::edge_nep().core_weights), 8);
        assert_eq!(weighted_median(FlavorParams::cloud_azure().core_weights), 1);
    }

    #[test]
    fn azure_small_vm_share() {
        // 90 % of Azure VMs have ≤4 vCPUs.
        let w = FlavorParams::cloud_azure().core_weights;
        let le4: f64 = w.iter().filter(|(c, _)| *c <= 4).map(|(_, w)| w).sum();
        assert!((le4 - 0.90).abs() < 0.01, "≤4-core share {le4}");
    }

    #[test]
    fn weights_normalized() {
        for p in [FlavorParams::edge_nep(), FlavorParams::cloud_azure()] {
            let sum: f64 = p.core_weights.iter().map(|(_, w)| w).sum();
            assert!(
                (sum - 1.0).abs() < 1e-9,
                "{:?} core weights {sum}",
                p.flavor
            );
        }
    }

    #[test]
    fn nep_memory_richer() {
        let nep = FlavorParams::edge_nep();
        // median 8 cores × 4 GB/core = 32 GB, the Fig. 8 median.
        match nep.mem_mode {
            MemMode::PerCore(per) => assert_eq!(8 * per, 32),
            _ => panic!("NEP uses per-core memory"),
        }
    }

    #[test]
    fn azure_memory_table_matches_fig8() {
        match FlavorParams::cloud_azure().mem_mode {
            MemMode::Table(t) => {
                let total: f64 = t.iter().map(|(_, w)| w).sum();
                assert!((total - 1.0).abs() < 1e-9);
                let le4: f64 = t.iter().filter(|(g, _)| *g <= 4).map(|(_, w)| w).sum();
                assert!((le4 - 0.70).abs() < 0.02, "≤4 GB share {le4}");
                assert_eq!(weighted_median(t), 4);
            }
            _ => panic!("Azure uses a memory table"),
        }
    }

    #[test]
    fn storage_mean_over_median_ratio() {
        // log-normal mean/median = exp(σ²/2); NEP target 650/100 = 6.5.
        let p = FlavorParams::edge_nep();
        let ratio = (p.storage_sigma * p.storage_sigma / 2.0).exp();
        assert!((ratio - 6.5).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn edge_more_idle_and_more_diurnal() {
        let e = FlavorParams::edge_nep();
        let c = FlavorParams::cloud_azure();
        assert!(e.idle_prob > c.idle_prob);
        assert!(e.diurnal_amp.0 > c.diurnal_amp.1 / 2.0);
        assert!(e.within_app_sigma_median > c.within_app_sigma_median);
    }
}
