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
//!
//! ## Draw order
//! A series consumes its RNG in a fixed order: one log-normal day factor
//! per day, then sample by sample in time order — a drifting series's
//! weekly log-normal step at the first sample of each week, then the
//! sample's noise normal: one ziggurat draw ([`ziggurat_normal`]) per
//! noisy sample, and none at noise CV 0. Nothing is carried from one
//! sample to the next, so `bw_series` starts from exactly the RNG state
//! `cpu_series` left. Each noisy sample therefore costs one ziggurat
//! draw plus one `exp`.
//!
//! The kernel works in blocks of at most 256 samples: it draws a block's
//! drift steps and normals in the order above while it computes the
//! block's means, then applies the block's noise in one pass of
//! [`edgescope_obs::math::mul_exp`] (`mean · exp(μ + σz)`, vectorized).
//! Blocking moves no draw, so the series is the per-sample one.

use crate::app::AppCategory;
use crate::flavor::FlavorParams;
use edgescope_net::rng::{log_normal_mean_cv, ziggurat_normal, LogNormalParams};
use edgescope_obs::math;
use rand::Rng;

/// Sampling configuration of a trace.
///
/// The paper's schema samples CPU every minute and bandwidth every five
/// minutes over 92 days; every scale tier samples coarser (its own
/// config in `Scenario::new`), and [`TraceConfig::compact`] is the
/// default tier's.
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
    /// A four-week compact configuration (5-min CPU, 15-min bandwidth)
    /// that keeps whole-population experiments in memory while preserving
    /// every statistic the experiments read (means, CVs, half-hour
    /// windows, weekly averages).
    pub fn compact() -> Self {
        TraceConfig {
            days: 28,
            cpu_interval_min: 5,
            bw_interval_min: 15,
            start_weekday: 0,
        }
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
        let diurnal_amp = if category.interactive() {
            amp_base
        } else {
            amp_base * 0.3
        };
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
        DayShape {
            amp: (self.diurnal_amp * day_factor).clamp(0.0, 1.0),
            weekend,
        }
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
    /// Draws in the module docs' order: the day factors up front, then
    /// per sample the week's drift step (at a week's first sample) and
    /// the noise `z`, one [`ziggurat_normal`]. CV 0 draws nothing per
    /// sample.
    ///
    /// Everything constant for the VM is computed once — the noise
    /// parameters, the diurnal profile per sample slot, and the day's
    /// shape per day — so each noisy sample costs one ziggurat draw plus
    /// one `exp`: `mean · exp(μ + σz)`, applied to a [`BLOCK`] of means at
    /// a time by [`math::mul_exp`]. The per-sample test in this module
    /// evaluates `x(t)` one sample at a time (with libm's `exp`) and pins
    /// this loop to it bit for bit, across block boundaries too.
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
        // Unit-mean log-normal noise with the CV's `ln` and `sqrt` hoisted;
        // each sample multiplies its mean by one draw.
        let noise = (noise_cv != 0.0).then(|| LogNormalParams::from_mean_cv(1.0, noise_cv));
        let table = self.diurnal_table(interval_min);
        let n = cfg.samples_every(interval_min);
        let mut out = Vec::with_capacity(n);
        let mut drift_level: f64 = 1.0;
        // Without drift `scale` stays `norm · 1.0`, which is `norm` exactly.
        let mut scale = norm * drift_level;
        let mut current_day = usize::MAX;
        let mut current_week = usize::MAX;
        let mut shape = DayShape {
            amp: 0.0,
            weekend: None,
        };
        let mut slot = 0;
        let (mut means, mut zs) = ([0.0; BLOCK], [0.0; BLOCK]);
        for start in (0..n).step_by(BLOCK) {
            let len = BLOCK.min(n - start);
            for (b, mean) in means[..len].iter_mut().enumerate() {
                let day = (start + b) * interval_min / MINUTES_PER_DAY;
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
                *mean = (scale * shape.at(table[slot])).max(floor);
                if noise.is_some() {
                    zs[b] = ziggurat_normal(rng);
                }
                slot += 1;
                if slot == table.len() {
                    slot = 0;
                }
            }
            if let Some(p) = &noise {
                math::mul_exp(&mut means[..len], p.mu, p.sigma, &zs[..len]);
            }
            out.extend(means[..len].iter().map(|&v| finish(v)));
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
        self.series(rng, cfg, cfg.bw_interval_min, level, drift, cv, 1e-4, |v| {
            v.max(0.0) as f32
        })
    }
}

const MINUTES_PER_DAY: usize = 24 * 60;

/// Samples per block of [`VmProfile::series`]: the means and normals of
/// a block are drawn first, then its noise is applied in one
/// [`math::mul_exp`] pass.
const BLOCK: usize = 256;

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
    use edgescope_analysis::stats::{coefficient_of_variation, mean, median};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> TraceConfig {
        TraceConfig {
            days: 14,
            cpu_interval_min: 5,
            bw_interval_min: 15,
            start_weekday: 0,
        }
    }

    fn profile(
        seed: u64,
        flavor: &FlavorParams,
        cat: AppCategory,
        util: f64,
    ) -> (VmProfile, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = VmProfile::draw(&mut rng, flavor, cat, util, 100.0);
        (p, rng)
    }

    #[test]
    fn config_sample_counts() {
        // The paper's schema: 92 days, 1-min CPU, 5-min bandwidth.
        let c = TraceConfig {
            days: 92,
            cpu_interval_min: 1,
            bw_interval_min: 5,
            start_weekday: 0,
        };
        assert_eq!(c.cpu_samples(), 92 * 1440);
        assert_eq!(c.bw_samples(), 92 * 288);
        assert_eq!(c.cpu_samples_per_half_hour(), 30);
        assert_eq!(cfg().cpu_samples_per_half_hour(), 6);
    }

    #[test]
    fn cpu_series_hits_target_mean() {
        let (p, mut rng) = profile(
            1,
            &FlavorParams::edge_nep(),
            AppCategory::LiveStreaming,
            8.0,
        );
        let xs: Vec<f64> = p
            .cpu_series(&mut rng, &cfg())
            .iter()
            .map(|&v| v as f64)
            .collect();
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
            let (p, mut rng) = profile(
                seed,
                &FlavorParams::edge_nep(),
                AppCategory::LiveStreaming,
                8.0,
            );
            let xs: Vec<f64> = p
                .cpu_series(&mut rng, &cfg())
                .iter()
                .map(|&v| v as f64)
                .collect();
            edge_cvs.push(coefficient_of_variation(&xs));
            let (p, mut rng) = profile(
                1000 + seed,
                &FlavorParams::cloud_azure(),
                AppCategory::WebService,
                20.0,
            );
            let xs: Vec<f64> = p
                .cpu_series(&mut rng, &cfg())
                .iter()
                .map(|&v| v as f64)
                .collect();
            cloud_cvs.push(coefficient_of_variation(&xs));
        }
        let e = mean(&edge_cvs);
        let c = mean(&cloud_cvs);
        assert!(e > 1.5 * c, "edge CV {e} vs cloud CV {c}");
    }

    #[test]
    fn weekend_modulation_visible() {
        let (p, mut rng) = profile(
            3,
            &FlavorParams::edge_nep(),
            AppCategory::OnlineEducation,
            10.0,
        );
        let c = cfg();
        let xs = p.cpu_series(&mut rng, &c);
        let per_day = 24 * 60 / c.cpu_interval_min;
        // Days 0–4 weekdays, 5–6 weekend (start Monday).
        let weekday: f64 =
            xs[..5 * per_day].iter().map(|&v| v as f64).sum::<f64>() / (5 * per_day) as f64;
        let weekend: f64 = xs[5 * per_day..7 * per_day]
            .iter()
            .map(|&v| v as f64)
            .sum::<f64>()
            / (2 * per_day) as f64;
        assert!(
            weekday > 1.5 * weekend,
            "weekday {weekday} weekend {weekend}"
        );
    }

    #[test]
    fn bw_drift_changes_weekly_levels() {
        // One VM's weekly levels say little: a stable VM's max/min weekly
        // mean exceeds 1.3 for about one seed in four. Over 200 seeds the
        // medians separate: about 2.7 for a drifting VM (σ = 0.6) and
        // 1.22 for the same VM without drift.
        let c = TraceConfig {
            days: 28,
            cpu_interval_min: 5,
            bw_interval_min: 15,
            start_weekday: 0,
        };
        let weekly_spread = |p: &VmProfile, rng: &mut StdRng| {
            let weekly: Vec<f64> = p
                .bw_series(rng, &c)
                .chunks(c.bw_samples_per_week())
                .map(|w| w.iter().map(|&v| v as f64).sum::<f64>() / w.len() as f64)
                .collect();
            edgescope_analysis::stats::peak_max(&weekly)
                / edgescope_analysis::stats::peak_min(&weekly)
        };
        let (mut drifting, mut stable) = (Vec::new(), Vec::new());
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut p = VmProfile::draw(
                &mut rng,
                &FlavorParams::edge_nep(),
                AppCategory::LiveStreaming,
                10.0,
                200.0,
            );
            p.bw_drift_sigma = Some(0.6);
            drifting.push(weekly_spread(&p, &mut rng));
            p.bw_drift_sigma = None;
            stable.push(weekly_spread(&p, &mut rng));
        }
        let (d, s) = (median(&drifting), median(&stable));
        assert!(d > 2.0, "drifting VMs' median weekly max/min {d}");
        assert!(s < 1.3, "stable VMs' median weekly max/min {s}");
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
            let (p, mut rng) = profile(
                seed,
                &FlavorParams::edge_nep(),
                AppCategory::LiveStreaming,
                8.0,
            );
            let xs: Vec<f64> = p
                .cpu_series(&mut rng, &c)
                .iter()
                .map(|&v| v as f64)
                .collect();
            edge.push(seasonal_strength(&resample_mean(&xs, per_hour), 24));
            let (p, mut rng) = profile(
                2000 + seed,
                &FlavorParams::cloud_azure(),
                AppCategory::WebService,
                20.0,
            );
            let xs: Vec<f64> = p
                .cpu_series(&mut rng, &c)
                .iter()
                .map(|&v| v as f64)
                .collect();
            cloud.push(seasonal_strength(&resample_mean(&xs, per_hour), 24));
        }
        let e = mean(&edge);
        let cl = mean(&cloud);
        assert!(e > cl + 0.1, "edge seasonality {e} vs cloud {cl}");
    }

    /// `x(t)` of the module docs, evaluated one sample at a time with no
    /// table, no per-day hoisting and no loop shared with
    /// [`VmProfile::series`]: every sample recomputes its time of day,
    /// its day's amplitude and weekend factor, and its mean from the
    /// drift level, and draws its own noise normal. The drift walk
    /// belongs to one series.
    struct PerSample<'a> {
        profile: &'a VmProfile,
        cfg: &'a TraceConfig,
        interval_min: usize,
        factors: Vec<f64>,
        norm: f64,
        drift_sigma: Option<f64>,
        /// `(μ, σ)` of the unit-mean noise; `None` at CV 0.
        noise: Option<(f64, f64)>,
        floor: f64,
        drift_level: f64,
        week: Option<usize>,
    }

    impl<'a> PerSample<'a> {
        #[allow(clippy::too_many_arguments)]
        fn new(
            profile: &'a VmProfile,
            rng: &mut StdRng,
            cfg: &'a TraceConfig,
            interval_min: usize,
            level: f64,
            drift_sigma: Option<f64>,
            noise_cv: f64,
            floor: f64,
        ) -> Self {
            let factors: Vec<f64> = (0..cfg.days.max(1))
                .map(|_| log_normal_mean_cv(rng, 1.0, profile.day_amp_cv))
                .collect();
            let mut this = PerSample {
                profile,
                cfg,
                interval_min,
                factors,
                norm: 0.0,
                drift_sigma,
                noise: (noise_cv != 0.0).then(|| {
                    let sigma2 = (1.0 + noise_cv * noise_cv).ln();
                    (-sigma2 / 2.0, sigma2.sqrt())
                }),
                floor,
                drift_level: 1.0,
                week: None,
            };
            // Shape normalisation: the mean shape over every quarter hour
            // of the trace.
            let mut acc = 0.0;
            for day in 0..cfg.days {
                for q in 0..MINUTES_PER_DAY / 15 {
                    acc += this.shape(day, q * 15);
                }
            }
            this.norm = level / (acc / (cfg.days * MINUTES_PER_DAY / 15).max(1) as f64);
            this
        }

        /// Shape at minute-of-day `minute` of `day`.
        fn shape(&self, day: usize, minute: usize) -> f64 {
            let p = self.profile;
            let h = (minute as f64 / 60.0 + p.phase_h).rem_euclid(24.0);
            let amp = (p.diurnal_amp * self.factors[day]).clamp(0.0, 1.0);
            let s = (1.0 - amp) + amp * p.category.diurnal(h);
            if (self.cfg.start_weekday + day) % 7 >= 5 {
                s * p.category.weekend_factor()
            } else {
                s
            }
        }

        fn sample(&mut self, rng: &mut StdRng, t: usize) -> f64 {
            let minutes = t * self.interval_min;
            let day = minutes / MINUTES_PER_DAY;
            if self.week != Some(day / 7) {
                self.week = Some(day / 7);
                if let Some(sigma) = self.drift_sigma {
                    let step = log_normal_mean_cv(rng, 1.0, sigma);
                    self.drift_level = (self.drift_level * step).clamp(0.1, 10.0);
                }
            }
            let shape = self.shape(day, minutes % MINUTES_PER_DAY);
            let mean = (self.norm * self.drift_level * shape).max(self.floor);
            let Some((mu, sigma)) = self.noise else {
                return mean;
            };
            mean * (mu + sigma * ziggurat_normal(rng)).exp()
        }
    }

    /// CPU then bandwidth of `p` by the per-sample formula, on one stream.
    fn per_sample_series(p: &VmProfile, rng: &mut StdRng, cfg: &TraceConfig) -> [Vec<f32>; 2] {
        let (level, cv) = (p.mean_util_pct, p.noise_cv);
        let mut x = PerSample::new(p, rng, cfg, cfg.cpu_interval_min, level, None, cv, 1e-3);
        let cpu: Vec<f32> = (0..cfg.cpu_samples())
            .map(|t| x.sample(rng, t).clamp(0.0, 100.0) as f32)
            .collect();
        let (level, drift, cv) = (p.bw_mean_mbps, p.bw_drift_sigma, p.noise_cv * 1.6);
        let mut x = PerSample::new(p, rng, cfg, cfg.bw_interval_min, level, drift, cv, 1e-4);
        let bw: Vec<f32> = (0..cfg.bw_samples())
            .map(|t| x.sample(rng, t).max(0.0) as f32)
            .collect();
        [cpu, bw]
    }

    #[test]
    fn kernel_equals_the_per_sample_formula() {
        // `(cpu, bw, days, start weekday)`: the `tests/kernel_golden.rs`
        // configs; 3 days at 7-min CPU (617 samples, an odd count); and
        // 11-min bandwidth over 9 days, whose second week starts at
        // sample 917, mid-day, so a drift step lands between two noise
        // draws. Then series around the kernel's block length: 1 sample
        // a day for a day; 255 CPU and 257 bandwidth samples; 256 CPU
        // samples, and 15-min bandwidth over 16 days, whose weeks start
        // at samples 672 and 1344, inside the third and sixth blocks.
        let configs = [
            (1, 5, 9, 3),
            (5, 15, 9, 0),
            (60, 60, 9, 6),
            (7, 25, 4, 1),
            (7, 25, 3, 2),
            (10, 11, 9, 5),
            (1440, 1440, 1, 6),
            (96, 95, 17, 4),
            (90, 15, 16, 2),
        ];
        let mut checked = [0usize; 4];
        let mut lengths = std::collections::BTreeSet::new();
        for (cpu, bw, days, start_weekday) in configs {
            let c = TraceConfig {
                days,
                cpu_interval_min: cpu,
                bw_interval_min: bw,
                start_weekday,
            };
            lengths.extend([c.cpu_samples(), c.bw_samples()]);
            // A week after the first starting inside a block.
            let week_inside_a_block = (7..days).step_by(7).any(|day| {
                let first = (day * MINUTES_PER_DAY).div_ceil(bw);
                first % BLOCK != 0
            });
            for (k, (flavor, mix)) in [
                (FlavorParams::edge_nep(), AppCategory::EDGE_MIX),
                (FlavorParams::cloud_azure(), AppCategory::CLOUD_MIX),
            ]
            .into_iter()
            .enumerate()
            {
                for (j, &(cat, _)) in mix.iter().enumerate() {
                    let mut rng = StdRng::seed_from_u64((100 * k + j) as u64);
                    let util = 5.0 + 7.0 * j as f64;
                    let mut p = VmProfile::draw(&mut rng, &flavor, cat, util, 150.0);
                    // Every third VM drifts, every fifth is noiseless.
                    if j % 3 == 0 {
                        p.bw_drift_sigma = Some(flavor.bw_drift_sigma.max(0.3));
                    }
                    if j % 5 == 4 {
                        p.noise_cv = 0.0;
                    }
                    let mut reference_rng = rng.clone();
                    let want = per_sample_series(&p, &mut reference_rng, &c);
                    let got = [p.cpu_series(&mut rng, &c), p.bw_series(&mut rng, &c)];
                    for (w, g) in want.iter().zip(&got) {
                        assert_eq!(w.len(), g.len());
                        let first = w
                            .iter()
                            .zip(g)
                            .position(|(a, b)| a.to_bits() != b.to_bits());
                        let at = format!("{cat:?} at {cpu}/{bw}, {days} d");
                        assert_eq!(first, None, "{at}: first differing sample");
                    }
                    assert_eq!(rng, reference_rng, "{cat:?} at {cpu}/{bw}: draws consumed");
                    let drifting_noisy = p.bw_drift_sigma.is_some() && p.noise_cv != 0.0;
                    checked[0] += 1;
                    checked[1] += drifting_noisy as usize;
                    checked[2] += (p.noise_cv != 0.0 && c.cpu_samples() % 2 == 1) as usize;
                    checked[3] += (drifting_noisy && week_inside_a_block) as usize;
                }
            }
        }
        let categories = AppCategory::EDGE_MIX.len() + AppCategory::CLOUD_MIX.len();
        assert_eq!(
            checked[0],
            configs.len() * categories,
            "every config × every category"
        );
        assert!(
            checked[1] >= 12 && checked[2] >= 9 && checked[3] >= 6,
            "{checked:?}"
        );
        for len in [1, BLOCK - 1, BLOCK, BLOCK + 1] {
            assert!(lengths.contains(&len), "no series of {len} samples");
        }
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
