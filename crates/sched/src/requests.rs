//! End-user demand model.
//!
//! Requests originate in cities, with volume proportional to population
//! times a category-shaped diurnal profile (§4.4: "services deployed on
//! edges follow end users' daily activities") and a per-city
//! attractiveness factor producing the geo-skew of §4.1.

use edgescope_net::rng::log_normal_mean_cv;
use edgescope_platform::geo_china::{City, CITIES};
use edgescope_trace::app::AppCategory;
use rand::Rng;

/// Per-city demand descriptor.
#[derive(Debug, Clone)]
pub struct CityDemand {
    /// The originating city.
    pub city: City,
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
                    city: *c,
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

    /// Demand of one city at hour-of-day `h` (requests per interval).
    pub fn city_rate(&self, rng: &mut impl Rng, city_idx: usize, h: f64) -> f64 {
        let base = self.cities[city_idx].peak_rps * self.category.diurnal(h);
        if base <= 0.0 {
            return 0.0;
        }
        log_normal_mean_cv(rng, base, NOISE_CV)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
    fn city_rate_nonnegative_and_noisy() {
        let m = model(4);
        let mut rng = StdRng::seed_from_u64(5);
        for h in 0..24 {
            let r = m.city_rate(&mut rng, 0, h as f64);
            assert!(r >= 0.0);
        }
    }
}
