//! End-user demand model.
//!
//! Requests originate in cities, with volume proportional to population
//! times a category-shaped diurnal profile (§4.4: "services deployed on
//! edges follow end users' daily activities") and a per-city
//! attractiveness factor producing the geo-skew of §4.1.
//!
//! Both day loops (`simulate::simulate_day` and the campaign engine,
//! `core::engine`) draw demand once per interval:
//! [`DemandModel::fill_rates`] writes every city's noisy rate for one
//! hour of the day in city order, evaluating the diurnal level and the
//! noise parameters once for all cities.

use edgescope_net::rng::{log_normal_mean_cv, standard_normal, LogNormalParams};
use edgescope_platform::geo_china::CITIES;
use edgescope_trace::app::AppCategory;
use rand::Rng;

/// Per-city demand descriptor.
#[derive(Debug, Clone)]
pub struct CityDemand {
    /// Base requests per interval at the diurnal peak.
    pub peak_rps: f64,
}

/// Coefficient of variation of the per-city log-normal attractiveness
/// factor: 0.8 reproduces §4.1's geo-skew ("highly depends on the
/// geolocations").
const SKEW_CV: f64 = 0.8;

/// Relative per-interval noise of a city's demand.
const NOISE_CV: f64 = 0.15;

/// The demand model for one application.
#[derive(Debug, Clone)]
pub struct DemandModel {
    /// The application whose diurnal profile shapes demand.
    pub category: AppCategory,
    /// Per-city demand descriptors.
    pub cities: Vec<CityDemand>,
}

impl DemandModel {
    /// Build a demand model over the gazetteer: per-city peak demand is
    /// population-proportional with a log-normal attractiveness factor
    /// of CV 0.8 (the geo-skew of §4.1).
    pub fn new(rng: &mut impl Rng, category: AppCategory, total_peak_rps: f64) -> Self {
        assert!(total_peak_rps > 0.0, "demand must be positive");
        let mut cities: Vec<CityDemand> = CITIES
            .iter()
            .map(|c| {
                let attract = log_normal_mean_cv(rng, 1.0, SKEW_CV);
                CityDemand {
                    peak_rps: c.population_m * attract,
                }
            })
            .collect();
        let sum: f64 = cities.iter().map(|c| c.peak_rps).sum();
        for c in &mut cities {
            c.peak_rps *= total_peak_rps / sum;
        }
        DemandModel { category, cities }
    }

    /// Every city's demand at hour-of-day `h` (requests per interval),
    /// written into `rates` in city order. A city with positive base
    /// demand (peak × diurnal level) draws one log-normal noise factor
    /// of CV 0.15 from `rng`; a city at zero stays at zero and
    /// draws nothing. The diurnal level and the noise σ are computed
    /// once per call, so the draws equal per-city
    /// `log_normal_mean_cv(rng, base, NOISE_CV)` calls bit for bit.
    pub fn fill_rates(&self, rng: &mut impl Rng, h: f64, rates: &mut [f64]) {
        debug_assert_eq!(rates.len(), self.cities.len());
        let level = self.category.diurnal(h);
        let sigma2 = (1.0 + NOISE_CV * NOISE_CV).ln();
        let sigma = sigma2.sqrt();
        for (rate, c) in rates.iter_mut().zip(&self.cities) {
            let base = c.peak_rps * level;
            *rate = if base <= 0.0 {
                0.0
            } else {
                let noise = LogNormalParams {
                    mu: base.ln() - sigma2 / 2.0,
                    sigma,
                };
                noise.transform(standard_normal(rng))
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn model(seed: u64) -> DemandModel {
        let mut rng = StdRng::seed_from_u64(seed);
        DemandModel::new(&mut rng, AppCategory::LiveStreaming, 10_000.0)
    }

    #[test]
    fn peak_demand_normalized() {
        let m = model(1);
        let sum: f64 = m.cities.iter().map(|c| c.peak_rps).sum();
        assert!((sum - 10_000.0).abs() < 1e-6);
        assert_eq!(m.cities.len(), CITIES.len());
    }

    #[test]
    fn geo_skew_present() {
        let m = model(3);
        let mut rates: Vec<f64> = m.cities.iter().map(|c| c.peak_rps).collect();
        rates.sort_by(|a, b| b.total_cmp(a));
        // Top city clearly above the median city.
        assert!(rates[0] > 5.0 * rates[rates.len() / 2]);
    }

    #[test]
    fn rates_nonnegative_and_noisy() {
        let m = model(4);
        let mut rng = StdRng::seed_from_u64(5);
        let mut rates = vec![0.0; m.cities.len()];
        let mut first = Vec::new();
        for h in 0..24 {
            m.fill_rates(&mut rng, h as f64, &mut rates);
            assert!(rates.iter().all(|&r| r >= 0.0));
            first.push(rates[0]);
        }
        first.dedup();
        assert_eq!(first.len(), 24, "every hour draws fresh noise");
    }

    #[test]
    fn fill_rates_equals_per_city_draws_bit_for_bit() {
        for seed in [1u64, 7, 42, 0xdead_beef] {
            for category in AppCategory::ALL {
                let mut m = DemandModel::new(&mut StdRng::seed_from_u64(seed), category, 20_000.0);
                // A city with no demand keeps its rate at zero and draws
                // nothing, on both paths.
                m.cities[seed as usize % CITIES.len()].peak_rps = 0.0;
                let mut fast = StdRng::seed_from_u64(seed ^ 0x5eed);
                let mut slow = fast.clone();
                let mut rates = vec![f64::NAN; m.cities.len()];
                for step in 0..96 {
                    let h = step as f64 / 4.0;
                    m.fill_rates(&mut fast, h, &mut rates);
                    for (c, &got) in m.cities.iter().zip(&rates) {
                        let base = c.peak_rps * category.diurnal(h);
                        let want = if base <= 0.0 {
                            0.0
                        } else {
                            log_normal_mean_cv(&mut slow, base, NOISE_CV)
                        };
                        assert_eq!(got.to_bits(), want.to_bits(), "{category:?} h={h}");
                    }
                }
                assert_eq!(fast.gen::<u64>(), slow.gen::<u64>(), "streams diverged");
            }
        }
    }
}
