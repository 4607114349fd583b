//! Serverless/FaaS vs. peak-provisioned IaaS (§5.2 "Decomposing edge
//! services").
//!
//! The paper: elastic paradigms "help facilitate flexible resource
//! management and fine-grained billing … However, such elasticity comes
//! at a price. For example, serverless computing has been criticized for
//! its slow cold start", which "can barely meet the requirements for
//! ultra-low-delay edge applications."
//!
//! The model: a demand series (requests per interval) served either by
//!
//! * **IaaS**: a fixed fleet provisioned for the peak (+ headroom),
//!   billed per core-month whether used or not — §4.2's observed
//!   over-provisioning;
//! * **FaaS**: per-request function instances; warm instances persist for
//!   a keep-alive window; requests that miss a warm instance pay a cold
//!   start. Billed per core-second actually used (plus keep-alive).
//!
//! The calibration is one set of module constants, since `ext_elastic`
//! and the `edge_operations` example score every demand shape under the
//! same one: 15-minute intervals, 1 000 requests per core-interval, 30 %
//! IaaS headroom at 65 RMB/core-month, FaaS at 1.1e-4 RMB/core-second,
//! an 800 ms cold start over 8 ms warm service, and a keep-alive of
//! [`KEEPALIVE_INTERVALS`] intervals.

use edgescope_analysis::stats::peak_max;

/// Requests one core can serve per interval.
pub const REQ_PER_CORE_INTERVAL: f64 = 1000.0;
/// IaaS provisioning headroom above the observed peak.
const IAAS_HEADROOM: f64 = 0.3;
/// RMB per core-month (NEP's 65).
const IAAS_CORE_MONTH: f64 = 65.0;
/// FaaS price per core-second: 0.00011 RMB ≈ 285 RMB/core-month if
/// always on — the usual ~4x serverless premium over reserved cores.
const FAAS_CORE_SECOND: f64 = 1.1e-4;
/// Cold-start latency, ms.
const COLD_START_MS: f64 = 800.0;
/// Warm-service latency, ms.
pub const WARM_MS: f64 = 8.0;
/// Keep-alive window in intervals: instances stay warm this long after
/// serving.
pub const KEEPALIVE_INTERVALS: usize = 2;
/// Interval length in seconds (15 minutes).
const INTERVAL_S: f64 = 900.0;

/// Outcome of serving one demand series both ways.
#[derive(Debug, Clone)]
pub struct ElasticOutcome {
    /// IaaS monthly cost (RMB) for the provisioned fleet.
    pub iaas_cost_month: f64,
    /// FaaS monthly cost (RMB) for the consumed core-time.
    pub faas_cost_month: f64,
    /// Fleet size IaaS had to provision (cores).
    pub iaas_cores: f64,
    /// Mean IaaS fleet utilization over the series.
    pub iaas_utilization: f64,
    /// FaaS p95 request latency, ms (includes cold starts).
    pub faas_p95_ms: f64,
    /// Fraction of requests that hit a cold start.
    pub cold_fraction: f64,
}

impl ElasticOutcome {
    /// Cost ratio IaaS / FaaS (>1 ⇒ serverless cheaper).
    pub fn cost_ratio(&self) -> f64 {
        self.iaas_cost_month / self.faas_cost_month.max(1e-9)
    }
}

/// Evaluate a demand series (requests per interval).
pub fn evaluate(demand: &[f64]) -> ElasticOutcome {
    assert!(!demand.is_empty(), "need demand");
    let peak = peak_max(demand);
    let total_requests: f64 = demand.iter().sum();

    // --- IaaS ------------------------------------------------------------
    let iaas_cores = (peak * (1.0 + IAAS_HEADROOM) / REQ_PER_CORE_INTERVAL).ceil();
    let mean_demand_cores = total_requests / demand.len() as f64 / REQ_PER_CORE_INTERVAL;
    let iaas_utilization = if iaas_cores > 0.0 {
        mean_demand_cores / iaas_cores
    } else {
        0.0
    };
    // Scale the observed window to a 30-day month.
    let window_months = demand.len() as f64 * INTERVAL_S / (30.0 * 86_400.0);
    let iaas_cost_month = iaas_cores * IAAS_CORE_MONTH;

    // --- FaaS ------------------------------------------------------------
    let mut warm_cores: f64 = 0.0;
    let mut warm_ttl: usize = 0;
    let mut core_seconds = 0.0;
    let mut cold_requests = 0.0;
    let mut latencies: Vec<(f64, f64)> = Vec::new(); // (weight, ms)
    for &d in demand {
        let needed_cores = d / REQ_PER_CORE_INTERVAL;
        let cold_cores = (needed_cores - warm_cores).max(0.0);
        // Requests served by newly-started instances pay the cold start.
        let cold_req = if needed_cores > 0.0 {
            d * (cold_cores / needed_cores)
        } else {
            0.0
        };
        cold_requests += cold_req;
        latencies.push((cold_req, COLD_START_MS + WARM_MS));
        latencies.push((d - cold_req, WARM_MS));
        // Busy cores bill for the interval; keep-alive retains capacity.
        core_seconds += needed_cores.max(warm_cores.min(needed_cores)) * INTERVAL_S;
        if needed_cores >= warm_cores {
            warm_cores = needed_cores;
            warm_ttl = KEEPALIVE_INTERVALS;
        } else if warm_ttl > 0 {
            warm_ttl -= 1;
            // Keep-alive cores idle but billed at a fraction (providers
            // charge memory-time for warm pools; 25 % is representative).
            core_seconds += (warm_cores - needed_cores) * INTERVAL_S * 0.25;
        } else {
            warm_cores = needed_cores;
        }
    }
    let faas_cost_window = core_seconds * FAAS_CORE_SECOND;
    let faas_cost_month = faas_cost_window / window_months.max(1e-9);

    // Weighted p95 latency. `total_cmp` orders NaN after +inf (the
    // `analysis::stats` convention) so a NaN latency can never panic the
    // sort — it sinks to the tail where the 95th-percentile scan stops
    // before reaching it in any sane window.
    latencies.sort_by(|a, b| a.1.total_cmp(&b.1));
    let total_w: f64 = latencies.iter().map(|(w, _)| w).sum();
    let mut acc = 0.0;
    let mut faas_p95 = WARM_MS;
    for (w, l) in &latencies {
        acc += w;
        if acc >= 0.95 * total_w {
            faas_p95 = *l;
            break;
        }
    }

    ElasticOutcome {
        iaas_cost_month,
        faas_cost_month,
        iaas_cores,
        iaas_utilization,
        faas_p95_ms: faas_p95,
        cold_fraction: cold_requests / total_requests.max(1e-9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A diurnal demand series: `days` days of 15-min intervals with an
    /// evening peak.
    fn diurnal(days: usize, peak: f64, trough: f64) -> Vec<f64> {
        (0..days * 96)
            .map(|i| {
                let h = (i % 96) as f64 / 4.0;
                if (19.0..23.0).contains(&h) {
                    peak
                } else {
                    trough
                }
            })
            .collect()
    }

    #[test]
    fn serverless_cheaper_for_peaky_interactive_apps() {
        // The §5.2 promise: fine-grained billing beats peak provisioning
        // when peak >> mean.
        let demand = diurnal(30, 50_000.0, 2_000.0);
        let out = evaluate(&demand);
        assert!(
            out.cost_ratio() > 1.0,
            "IaaS {} vs FaaS {}",
            out.iaas_cost_month,
            out.faas_cost_month
        );
        assert!(
            out.iaas_utilization < 0.4,
            "IaaS over-provisioned: {}",
            out.iaas_utilization
        );
    }

    #[test]
    fn but_serverless_breaks_the_delay_sla() {
        // ... and the §5.2 caveat: cold starts wreck the tail.
        let demand = diurnal(30, 50_000.0, 2_000.0);
        let out = evaluate(&demand);
        assert!(
            out.faas_p95_ms > 100.0,
            "p95 {} must show cold starts",
            out.faas_p95_ms
        );
        assert!(out.cold_fraction > 0.0);
    }

    #[test]
    fn flat_demand_favours_iaas() {
        // Surveillance-style steady load: reserved cores cost less than
        // the serverless premium.
        let demand = vec![30_000.0; 96 * 30];
        let out = evaluate(&demand);
        assert!(
            out.cost_ratio() < 1.0,
            "flat load: IaaS {} vs FaaS {}",
            out.iaas_cost_month,
            out.faas_cost_month
        );
        assert!(out.iaas_utilization > 0.6);
        assert!(
            out.cold_fraction < 0.01,
            "steady load keeps everything warm"
        );
    }

    #[test]
    fn keepalive_window_spans_exactly_keepalive_intervals() {
        // A peak, `gap` low intervals, the same peak again. The first peak
        // always starts cold; the second finds its instances still warm
        // after a gap of KEEPALIVE_INTERVALS and cold one interval later.
        let (peak, low) = (20_000.0, 1_000.0);
        let cold_requests = |gap: usize| {
            let mut demand = vec![low; gap + 2];
            demand[0] = peak;
            demand[gap + 1] = peak;
            evaluate(&demand).cold_fraction * demand.iter().sum::<f64>()
        };
        let warm = cold_requests(KEEPALIVE_INTERVALS);
        assert!(
            (warm - peak).abs() < 1e-6,
            "gap {KEEPALIVE_INTERVALS}: {warm} cold requests"
        );
        let cold = cold_requests(KEEPALIVE_INTERVALS + 1);
        assert!(
            (cold - (2.0 * peak - low)).abs() < 1e-6,
            "gap {}: {cold} cold requests",
            KEEPALIVE_INTERVALS + 1
        );
    }

    #[test]
    fn costs_positive_and_fleet_covers_peak() {
        let demand = diurnal(7, 10_000.0, 500.0);
        let out = evaluate(&demand);
        assert!(out.iaas_cost_month > 0.0 && out.faas_cost_month > 0.0);
        assert!(out.iaas_cores * REQ_PER_CORE_INTERVAL >= 10_000.0);
    }
}
