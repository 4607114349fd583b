//! CPU / bandwidth time-series generation.
//!
//! §2.1.2's schema: CPU utilization every minute, bandwidth every five
//! minutes. Each VM's series is
//!
//! ```text
//! x(t) = level · shape(t) · weekly(t) · drift(week) · noise(t)
//! ```
//!
//! where `shape` blends the app category's diurnal profile with a per-VM
//! amplitude (edge VMs are strongly human-driven, cloud VMs flat — the
//! §4.2/§4.4 CV and seasonality contrasts), `weekly` applies the category's
//! weekend factor, `drift` is an optional week-scale log random walk
//! (Fig. 12's erratic bandwidth VMs), and `noise` is log-normal
//! multiplicative noise. The deterministic part is normalized so the series
//! mean equals the VM's target mean.

use crate::app::AppCategory;
use crate::flavor::FlavorParams;
use edgescope_net::rng::{log_normal_mean_cv, standard_normal, LogNormalParams};
use rand::Rng;

/// Sampling configuration of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Trace length in days.
    pub days: usize,
    /// CPU sampling interval in minutes (paper: 1).
    pub cpu_interval_min: usize,
    /// Bandwidth sampling interval in minutes (paper: 5).
    pub bw_interval_min: usize,
    /// Weekday of day 0 (0 = Monday).
    pub start_weekday: usize,
}

impl TraceConfig {
    /// The paper's full three-month schema (92 days, 1-min CPU, 5-min
    /// bandwidth). ~130 k CPU samples per VM — use for targeted studies,
    /// not for whole-population sweeps.
    pub fn paper() -> Self {
        TraceConfig { days: 92, cpu_interval_min: 1, bw_interval_min: 5, start_weekday: 0 }
    }

    /// A four-week compact configuration (5-min CPU, 15-min bandwidth)
    /// that keeps whole-population experiments in memory while preserving
    /// every statistic the experiments read (means, CVs, half-hour
    /// windows, weekly averages).
    pub fn compact() -> Self {
        TraceConfig { days: 28, cpu_interval_min: 5, bw_interval_min: 15, start_weekday: 0 }
    }

    /// Number of CPU samples per VM.
    pub fn cpu_samples(&self) -> usize {
        self.samples_every(self.cpu_interval_min)
    }

    /// Number of bandwidth samples per VM.
    pub fn bw_samples(&self) -> usize {
        self.samples_every(self.bw_interval_min)
    }

    fn samples_every(&self, interval_min: usize) -> usize {
        self.days * MINUTES_PER_DAY / interval_min
    }

    /// Bandwidth samples per week (Fig. 12's weekly averages).
    pub fn bw_samples_per_week(&self) -> usize {
        7 * MINUTES_PER_DAY / self.bw_interval_min
    }

    /// CPU samples per half-hour prediction window (§4.4).
    pub fn cpu_samples_per_half_hour(&self) -> usize {
        (30 / self.cpu_interval_min).max(1)
    }

    fn weekday_of_day(&self, day: usize) -> usize {
        (self.start_weekday + day) % 7
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::compact()
    }
}

/// Per-VM temporal profile, drawn once per VM.
#[derive(Debug, Clone, PartialEq)]
pub struct VmProfile {
    /// Application category shaping the diurnal profile.
    pub category: AppCategory,
    /// Target mean CPU utilization, percent.
    pub mean_util_pct: f64,
    /// Diurnal amplitude in `[0, 1]` (0 = flat, 1 = full category profile).
    pub diurnal_amp: f64,
    /// Per-VM phase shift in hours (people in different cities wake at
    /// slightly different times).
    pub phase_h: f64,
    /// Per-sample multiplicative noise CV.
    pub noise_cv: f64,
    /// Mean bandwidth in Mbps (the *used* level, below the subscription).
    pub bw_mean_mbps: f64,
    /// Week-scale log random-walk sigma for bandwidth; `None` = stable VM.
    pub bw_drift_sigma: Option<f64>,
    /// CV of the per-day amplitude multiplier (day-to-day irregularity of
    /// the diurnal swing).
    pub day_amp_cv: f64,
}

impl VmProfile {
    /// Draw a profile for a VM of `category` with target mean utilization
    /// `mean_util_pct` and subscribed bandwidth `subscribed_mbps`.
    pub fn draw(
        rng: &mut impl Rng,
        params: &FlavorParams,
        category: AppCategory,
        mean_util_pct: f64,
        subscribed_mbps: f64,
    ) -> Self {
        let (lo, hi) = params.diurnal_amp;
        let amp_base = rng.gen_range(lo..=hi);
        // Non-interactive categories barely follow humans.
        let diurnal_amp = if category.interactive() { amp_base } else { amp_base * 0.3 };
        let drift = if rng.gen::<f64>() < params.bw_drift_prob {
            Some(params.bw_drift_sigma)
        } else {
            None
        };
        // Customers use 20–60 % of what they subscribed (over-provisioning,
        // §4.2).
        let bw_util = rng.gen_range(0.2..0.6);
        VmProfile {
            category,
            mean_util_pct: mean_util_pct.clamp(0.1, 95.0),
            diurnal_amp,
            phase_h: rng.gen_range(-1.5..1.5),
            noise_cv: params.cpu_noise_cv,
            bw_mean_mbps: subscribed_mbps * bw_util,
            bw_drift_sigma: drift,
            day_amp_cv: params.day_amp_cv,
        }
    }

    /// The deterministic shape of one trace day: the diurnal swing scaled
    /// by the day's amplitude factor, and the category's weekend factor
    /// on Saturdays and Sundays.
    fn day_shape(&self, cfg: &TraceConfig, day: usize, day_factor: f64) -> DayShape {
        let weekend = (cfg.weekday_of_day(day) >= 5).then(|| self.category.weekend_factor());
        DayShape { amp: (self.diurnal_amp * day_factor).clamp(0.0, 1.0), weekend }
    }

    /// The phase-shifted diurnal profile at every time of day a series
    /// sampled every `interval_min` minutes visits: sample `i` reads entry
    /// `i % len`. The pattern of sample times repeats every
    /// `1440 / gcd(1440, interval_min)` samples, so any interval works,
    /// including ones that do not divide a day.
    fn diurnal_table(&self, interval_min: usize) -> Vec<f64> {
        let period = MINUTES_PER_DAY / gcd(MINUTES_PER_DAY, interval_min);
        (0..period)
            .map(|k| {
                let h = (k * interval_min % MINUTES_PER_DAY) as f64 / 60.0;
                self.category.diurnal((h + self.phase_h).rem_euclid(24.0))
            })
            .collect()
    }

    /// Per-day amplitude factors for a trace.
    fn day_factors(&self, rng: &mut impl Rng, days: usize) -> Vec<f64> {
        (0..days.max(1))
            .map(|_| log_normal_mean_cv(rng, 1.0, self.day_amp_cv))
            .collect()
    }

    /// Mean of the realized shape for a concrete trace (given each day's
    /// amplitude factor) on a 15-minute grid — the exact normalization
    /// constant, so the series mean hits the target regardless of
    /// amplitude clamping or trace length.
    fn shape_mean_with(&self, cfg: &TraceConfig, factors: &[f64]) -> f64 {
        let grid = self.diurnal_table(15);
        let mut acc = 0.0;
        let mut n = 0;
        for (day, &f) in factors.iter().enumerate().take(cfg.days) {
            let shape = self.day_shape(cfg, day, f);
            for &d in &grid {
                acc += shape.at(d);
                n += 1;
            }
        }
        acc / n.max(1) as f64
    }

    /// The series kernel behind [`VmProfile::cpu_series`] and
    /// [`VmProfile::bw_series`]: `level` scaled by the normalized shape,
    /// an optional weekly drift walk (`drift_sigma`), and log-normal noise
    /// of CV `noise_cv` around `max(det, floor)`, mapped to storage by
    /// `finish`.
    ///
    /// Everything constant for the VM is computed once — the noise
    /// parameters, the diurnal profile per sample slot, and the day's
    /// shape per day — so each sample costs one normal draw, one `ln` and
    /// one `exp`. The arithmetic and the draws are those of the
    /// per-sample formula `x(t)` in the module docs, in the same order,
    /// so the output is bit-identical to evaluating it sample by sample
    /// (pinned by `tests/kernel_golden.rs`).
    #[allow(clippy::too_many_arguments)]
    fn series(
        &self,
        rng: &mut impl Rng,
        cfg: &TraceConfig,
        interval_min: usize,
        level: f64,
        drift_sigma: Option<f64>,
        noise_cv: f64,
        floor: f64,
        finish: impl Fn(f64) -> f32,
    ) -> Vec<f32> {
        let factors = self.day_factors(rng, cfg.days);
        let norm = level / self.shape_mean_with(cfg, &factors);
        // `log_normal_mean_cv` around each sample's mean, with the CV's
        // `ln` and `sqrt` hoisted. At unit mean `mu` is exactly `-σ²/2`, so
        // `ln(mean) + mu` is the per-sample `ln(mean) - σ²/2` bit for bit.
        // CV 0 returns the mean and consumes no draw.
        let noise = (noise_cv != 0.0).then(|| LogNormalParams::from_mean_cv(1.0, noise_cv));
        let table = self.diurnal_table(interval_min);
        let n = cfg.samples_every(interval_min);
        let mut out = Vec::with_capacity(n);
        let mut drift_level: f64 = 1.0;
        // Without drift `scale` stays `norm · 1.0`, which is `norm` exactly.
        let mut scale = norm * drift_level;
        let mut current_day = usize::MAX;
        let mut current_week = usize::MAX;
        let mut shape = DayShape { amp: 0.0, weekend: None };
        let mut slot = 0;
        for i in 0..n {
            let day = i * interval_min / MINUTES_PER_DAY;
            if day != current_day {
                current_day = day;
                shape = self.day_shape(cfg, day, factors[day]);
                if day / 7 != current_week {
                    current_week = day / 7;
                    if let Some(sigma) = drift_sigma {
                        // Log random walk, re-centred to keep E[level]
                        // bounded.
                        let step = log_normal_mean_cv(rng, 1.0, sigma);
                        drift_level = (drift_level * step).clamp(0.1, 10.0);
                        scale = norm * drift_level;
                    }
                }
            }
            let mean = (scale * shape.at(table[slot])).max(floor);
            out.push(finish(match &noise {
                Some(p) => (mean.ln() + p.mu + p.sigma * standard_normal(rng)).exp(),
                None => mean,
            }));
            slot += 1;
            if slot == table.len() {
                slot = 0;
            }
        }
        out
    }

    /// Generate the CPU series (percent, clamped to `[0, 100]`).
    pub fn cpu_series(&self, rng: &mut impl Rng, cfg: &TraceConfig) -> Vec<f32> {
        let (level, cv) = (self.mean_util_pct, self.noise_cv);
        self.series(rng, cfg, cfg.cpu_interval_min, level, None, cv, 1e-3, |v| {
            v.clamp(0.0, 100.0) as f32
        })
    }

    /// Generate the bandwidth series (Mbps, non-negative). Bandwidth is
    /// burstier than CPU (1.6× the noise CV) and may drift week to week.
    pub fn bw_series(&self, rng: &mut impl Rng, cfg: &TraceConfig) -> Vec<f32> {
        let (level, drift, cv) = (self.bw_mean_mbps, self.bw_drift_sigma, self.noise_cv * 1.6);
        self.series(rng, cfg, cfg.bw_interval_min, level, drift, cv, 1e-4, |v| v.max(0.0) as f32)
    }
}

const MINUTES_PER_DAY: usize = 24 * 60;

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// One day's shape parameters (see [`VmProfile::day_shape`]).
struct DayShape {
    amp: f64,
    weekend: Option<f64>,
}

impl DayShape {
    /// The shape at diurnal-profile value `d`.
    fn at(&self, d: f64) -> f64 {
        let s = (1.0 - self.amp) + self.amp * d;
        match self.weekend {
            Some(factor) => s * factor,
            None => s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flavor::FlavorParams;
    use edgescope_analysis::stats::{coefficient_of_variation, mean};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> TraceConfig {
        TraceConfig { days: 14, cpu_interval_min: 5, bw_interval_min: 15, start_weekday: 0 }
    }

    fn profile(seed: u64, flavor: &FlavorParams, cat: AppCategory, util: f64) -> (VmProfile, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = VmProfile::draw(&mut rng, flavor, cat, util, 100.0);
        (p, rng)
    }

    #[test]
    fn config_sample_counts() {
        let c = TraceConfig::paper();
        assert_eq!(c.cpu_samples(), 92 * 1440);
        assert_eq!(c.bw_samples(), 92 * 288);
        assert_eq!(c.cpu_samples_per_half_hour(), 30);
        assert_eq!(cfg().cpu_samples_per_half_hour(), 6);
    }

    #[test]
    fn cpu_series_hits_target_mean() {
        let (p, mut rng) = profile(1, &FlavorParams::edge_nep(), AppCategory::LiveStreaming, 8.0);
        let xs: Vec<f64> = p.cpu_series(&mut rng, &cfg()).iter().map(|&v| v as f64).collect();
        let m = mean(&xs);
        assert!((m - 8.0).abs() / 8.0 < 0.12, "mean {m}");
    }

    #[test]
    fn cpu_series_bounded() {
        let (p, mut rng) = profile(2, &FlavorParams::edge_nep(), AppCategory::CloudGaming, 60.0);
        for v in p.cpu_series(&mut rng, &cfg()) {
            assert!((0.0..=100.0).contains(&v));
        }
    }

    #[test]
    fn edge_series_more_variable_than_cloud() {
        // Fig. 10(b): edge CV ≈ 2× cloud CV.
        let mut edge_cvs = Vec::new();
        let mut cloud_cvs = Vec::new();
        for seed in 0..40 {
            let (p, mut rng) =
                profile(seed, &FlavorParams::edge_nep(), AppCategory::LiveStreaming, 8.0);
            let xs: Vec<f64> = p.cpu_series(&mut rng, &cfg()).iter().map(|&v| v as f64).collect();
            edge_cvs.push(coefficient_of_variation(&xs));
            let (p, mut rng) =
                profile(1000 + seed, &FlavorParams::cloud_azure(), AppCategory::WebService, 20.0);
            let xs: Vec<f64> = p.cpu_series(&mut rng, &cfg()).iter().map(|&v| v as f64).collect();
            cloud_cvs.push(coefficient_of_variation(&xs));
        }
        let e = mean(&edge_cvs);
        let c = mean(&cloud_cvs);
        assert!(e > 1.5 * c, "edge CV {e} vs cloud CV {c}");
    }

    #[test]
    fn weekend_modulation_visible() {
        let (p, mut rng) =
            profile(3, &FlavorParams::edge_nep(), AppCategory::OnlineEducation, 10.0);
        let c = cfg();
        let xs = p.cpu_series(&mut rng, &c);
        let per_day = 24 * 60 / c.cpu_interval_min;
        // Days 0–4 weekdays, 5–6 weekend (start Monday).
        let weekday: f64 = xs[..5 * per_day].iter().map(|&v| v as f64).sum::<f64>() / (5 * per_day) as f64;
        let weekend: f64 =
            xs[5 * per_day..7 * per_day].iter().map(|&v| v as f64).sum::<f64>() / (2 * per_day) as f64;
        assert!(weekday > 1.5 * weekend, "weekday {weekday} weekend {weekend}");
    }

    #[test]
    fn bw_drift_changes_weekly_levels() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut p = VmProfile::draw(
            &mut rng,
            &FlavorParams::edge_nep(),
            AppCategory::LiveStreaming,
            10.0,
            200.0,
        );
        p.bw_drift_sigma = Some(0.6);
        let c = TraceConfig { days: 28, cpu_interval_min: 5, bw_interval_min: 15, start_weekday: 0 };
        let xs = p.bw_series(&mut rng, &c);
        let per_week = 7 * 24 * 60 / c.bw_interval_min;
        let weekly: Vec<f64> = xs
            .chunks(per_week)
            .map(|w| w.iter().map(|&v| v as f64).sum::<f64>() / w.len() as f64)
            .collect();
        let max = edgescope_analysis::stats::peak_max(&weekly);
        let min = edgescope_analysis::stats::peak_min(&weekly);
        assert!(max / min > 1.3, "weekly levels {weekly:?}");

        // A stable VM's weekly levels stay close.
        p.bw_drift_sigma = None;
        let xs = p.bw_series(&mut rng, &c);
        let weekly: Vec<f64> = xs
            .chunks(per_week)
            .map(|w| w.iter().map(|&v| v as f64).sum::<f64>() / w.len() as f64)
            .collect();
        let max = edgescope_analysis::stats::peak_max(&weekly);
        let min = edgescope_analysis::stats::peak_min(&weekly);
        assert!(max / min < 1.3, "stable weekly levels {weekly:?}");
    }

    #[test]
    fn edge_seasonality_stronger() {
        // §4.4: NEP mean seasonal strength ≈0.42, Azure ≈0.26. Check the
        // ordering on hourly-resampled series.
        use edgescope_analysis::seasonality::seasonal_strength;
        use edgescope_analysis::timeseries::resample_mean;
        let c = cfg();
        let per_hour = 60 / c.cpu_interval_min;
        let mut edge = Vec::new();
        let mut cloud = Vec::new();
        for seed in 0..30 {
            let (p, mut rng) =
                profile(seed, &FlavorParams::edge_nep(), AppCategory::LiveStreaming, 8.0);
            let xs: Vec<f64> = p.cpu_series(&mut rng, &c).iter().map(|&v| v as f64).collect();
            edge.push(seasonal_strength(&resample_mean(&xs, per_hour), 24));
            let (p, mut rng) =
                profile(2000 + seed, &FlavorParams::cloud_azure(), AppCategory::WebService, 20.0);
            let xs: Vec<f64> = p.cpu_series(&mut rng, &c).iter().map(|&v| v as f64).collect();
            cloud.push(seasonal_strength(&resample_mean(&xs, per_hour), 24));
        }
        let e = mean(&edge);
        let cl = mean(&cloud);
        assert!(e > cl + 0.1, "edge seasonality {e} vs cloud {cl}");
    }

    #[test]
    fn deterministic_given_seed() {
        let flavor = FlavorParams::edge_nep();
        let gen = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = VmProfile::draw(&mut rng, &flavor, AppCategory::ContentDelivery, 12.0, 80.0);
            p.cpu_series(&mut rng, &cfg())
        };
        assert_eq!(gen(77), gen(77));
    }
}
