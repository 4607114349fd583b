//! Dynamic cross-site VM migration.
//!
//! §4.2/§4.3 implications: "we envision that dynamic VM migration can
//! better balance the across-server resource usage", tempered by §5.2:
//! "it remains challenging because of the high migration delay and the
//! impacts on the app QoS". This module implements a threshold-triggered
//! rebalancer with that cost model:
//!
//! * a migration moves one VM from the most- to the least-loaded site
//!   among candidates within an RTT limit (moving far away would wreck
//!   the app's delay SLA);
//! * its cost = pre-copy transfer time (VM memory × dirty factor over the
//!   inter-site bandwidth) plus a stop-and-copy downtime;
//! * a migration budget caps how much disruption the operator accepts.
//!
//! The budget is [`rebalance`]'s one argument, since `ext_migration`
//! sweeps it. The rest of the policy is module constants: the
//! [`MAX_INTERSITE_RTT_MS`] limit (20 ms), a 0.2 target CV, 10 Gbps of
//! inter-site bandwidth, a 1.3 dirty-page factor and [`DOWNTIME_S`] of
//! downtime per migration.

use crate::gslb::base_one_way_ms;
use edgescope_analysis::stats::coefficient_of_variation;
use edgescope_net::geo::GeoPoint;

/// A migratable VM: its home site and load contribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedVm {
    /// Dense site index the VM currently lives on.
    pub site: usize,
    /// Load units this VM contributes to its site (e.g. mean CPU cores
    /// consumed, or Mbps).
    pub load: f64,
    /// Memory footprint in GB (drives migration cost).
    pub mem_gb: f64,
}

/// Rebalance only between sites whose RTT is at most this (ms): the
/// §4.3 constraint that inter-site scheduling must not hurt delay.
/// Province-internal distances sit within it.
pub const MAX_INTERSITE_RTT_MS: f64 = 20.0;
/// Stop migrating when the across-site load CV falls to this.
const TARGET_CV: f64 = 0.2;
/// Inter-site bandwidth available for migrations, Gbps.
const INTERSITE_GBPS: f64 = 10.0;
/// Pre-copy amplification (dirty pages re-sent).
const DIRTY_FACTOR: f64 = 1.3;
/// Stop-and-copy downtime per migration, seconds.
pub const DOWNTIME_S: f64 = 0.5;

/// One executed migration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationStep {
    /// Index into the VM slice.
    pub vm_idx: usize,
    /// Source site.
    pub from: usize,
    /// Destination site.
    pub to: usize,
    /// Total copy time, seconds.
    pub copy_s: f64,
}

/// Rebalancing outcome.
#[derive(Debug, Clone)]
pub struct MigrationOutcome {
    /// Across-site load CV before rebalancing.
    pub cv_before: f64,
    /// Across-site load CV after.
    pub cv_after: f64,
    /// Executed migrations, in order.
    pub steps: Vec<MigrationStep>,
    /// Total bytes moved, GB.
    pub moved_gb: f64,
    /// Total downtime inflicted, seconds.
    pub total_downtime_s: f64,
}

/// The Fig. 4 RTT approximation between two sites: twice the one-way
/// delay of the GSLB's candidate table.
fn intersite_rtt_ms(a: GeoPoint, b: GeoPoint) -> f64 {
    2.0 * base_one_way_ms(a.distance_km(&b))
}

/// Demote NaN below every real load so it loses a `max_by` selection
/// (totalOrder alone would rank NaN above +inf and hand it the win).
fn nan_loses(x: f64) -> f64 {
    if x.is_nan() {
        f64::NEG_INFINITY
    } else {
        x
    }
}

/// Greedy threshold rebalancer: repeatedly move the largest movable VM
/// from the hottest site to the coolest reachable site, while it improves
/// balance, for at most `max_migrations` moves (the operator's disruption
/// budget).
pub fn rebalance(
    site_geo: &[GeoPoint],
    vms: &mut [SchedVm],
    max_migrations: usize,
) -> MigrationOutcome {
    let n_sites = site_geo.len();
    assert!(n_sites >= 2, "need at least two sites");
    let mut site_load = vec![0.0f64; n_sites];
    for vm in vms.iter() {
        assert!(vm.site < n_sites, "vm references unknown site");
        site_load[vm.site] += vm.load;
    }
    let cv_before = coefficient_of_variation(&site_load);
    let mut steps = Vec::new();
    let mut moved_gb = 0.0;

    for _ in 0..max_migrations {
        let cv = coefficient_of_variation(&site_load);
        if cv <= TARGET_CV {
            break;
        }
        // Hottest and coolest-reachable site. Comparisons use
        // `total_cmp` so a NaN load can never panic the rebalancer;
        // under totalOrder NaN sorts *after* +inf, which already keeps
        // it out of the `min_by` below, but would let it win the hot
        // `max_by` — `nan_loses` demotes it to -inf so a poisoned site
        // is never chosen as the migration source either.
        let hot = (0..n_sites)
            .max_by(|&a, &b| nan_loses(site_load[a]).total_cmp(&nan_loses(site_load[b])))
            .unwrap();
        let cold = (0..n_sites)
            .filter(|&s| s != hot)
            .filter(|&s| intersite_rtt_ms(site_geo[hot], site_geo[s]) <= MAX_INTERSITE_RTT_MS)
            .min_by(|&a, &b| site_load[a].total_cmp(&site_load[b]));
        let Some(cold) = cold else { break };
        let gap = site_load[hot] - site_load[cold];
        if gap <= 0.0 {
            break;
        }
        // Largest VM on the hot site that still improves balance (moving
        // more than the gap would overshoot).
        let candidate = vms
            .iter()
            .enumerate()
            .filter(|(_, v)| v.site == hot && v.load > 0.0 && v.load < gap)
            // The filter above already drops NaN loads (both comparisons
            // are false for NaN), so plain total_cmp suffices here.
            .max_by(|a, b| a.1.load.total_cmp(&b.1.load))
            .map(|(i, _)| i);
        let Some(vm_idx) = candidate else { break };

        let vm = vms[vm_idx];
        let copy_s = vm.mem_gb * DIRTY_FACTOR * 8.0 / INTERSITE_GBPS;
        site_load[hot] -= vm.load;
        site_load[cold] += vm.load;
        vms[vm_idx].site = cold;
        moved_gb += vm.mem_gb * DIRTY_FACTOR;
        steps.push(MigrationStep {
            vm_idx,
            from: hot,
            to: cold,
            copy_s,
        });
    }

    let total_downtime_s = steps.len() as f64 * DOWNTIME_S;
    MigrationOutcome {
        cv_before,
        cv_after: coefficient_of_variation(&site_load),
        steps,
        moved_gb,
        total_downtime_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgescope_net::rng::log_normal_mean_cv;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The disruption budget these tests rebalance under.
    const BUDGET: usize = 200;

    /// A clustered metro: sites within ~30 km of each other.
    fn metro(n: usize) -> Vec<GeoPoint> {
        (0..n)
            .map(|i| GeoPoint::new(30.0 + 0.05 * i as f64, 114.0 + 0.07 * i as f64))
            .collect()
    }

    fn skewed_vms(rng: &mut StdRng, n_sites: usize, n_vms: usize) -> Vec<SchedVm> {
        (0..n_vms)
            .map(|_| {
                // Skew: most VMs land on the first two sites.
                let site = if rng.gen::<f64>() < 0.7 {
                    rng.gen_range(0..2)
                } else {
                    rng.gen_range(0..n_sites)
                };
                SchedVm {
                    site,
                    load: log_normal_mean_cv(rng, 4.0, 0.8),
                    mem_gb: [8.0, 16.0, 32.0, 64.0][rng.gen_range(0..4)],
                }
            })
            .collect()
    }

    #[test]
    fn rebalancing_reduces_cv() {
        let sites = metro(8);
        let mut rng = StdRng::seed_from_u64(1);
        let mut vms = skewed_vms(&mut rng, 8, 300);
        let out = rebalance(&sites, &mut vms, BUDGET);
        assert!(
            out.cv_before > 0.5,
            "setup must be imbalanced: {}",
            out.cv_before
        );
        assert!(
            out.cv_after < out.cv_before * 0.5,
            "after {} before {}",
            out.cv_after,
            out.cv_before
        );
        assert!(!out.steps.is_empty());
    }

    #[test]
    fn loads_conserved() {
        let sites = metro(6);
        let mut rng = StdRng::seed_from_u64(2);
        let mut vms = skewed_vms(&mut rng, 6, 200);
        let before: f64 = vms.iter().map(|v| v.load).sum();
        rebalance(&sites, &mut vms, BUDGET);
        let after: f64 = vms.iter().map(|v| v.load).sum();
        assert!((before - after).abs() < 1e-9);
    }

    #[test]
    fn migration_budget_respected() {
        let sites = metro(8);
        let mut rng = StdRng::seed_from_u64(3);
        let mut vms = skewed_vms(&mut rng, 8, 400);
        let out = rebalance(&sites, &mut vms, 5);
        assert!(out.steps.len() <= 5);
        assert!((out.total_downtime_s - out.steps.len() as f64 * DOWNTIME_S).abs() < 1e-9);
    }

    #[test]
    fn rtt_limit_blocks_distant_rebalancing() {
        // A loaded site, an idle one just inside the RTT limit (north)
        // and an idle one just beyond it (south): load flows to the
        // first only.
        let home = GeoPoint::new(30.0, 114.0);
        let sites = vec![home, GeoPoint::new(36.7, 114.0), GeoPoint::new(22.1, 114.0)];
        let near = intersite_rtt_ms(home, sites[1]);
        let far = intersite_rtt_ms(home, sites[2]);
        assert!(
            near < MAX_INTERSITE_RTT_MS && MAX_INTERSITE_RTT_MS < far,
            "near {near} far {far}"
        );
        let mut vms: Vec<SchedVm> = (0..50)
            .map(|_| SchedVm {
                site: 0,
                load: 2.0,
                mem_gb: 16.0,
            })
            .collect();
        let out = rebalance(&sites, &mut vms, BUDGET);
        assert!(
            out.steps.iter().any(|s| s.to == 1),
            "the site within the limit takes load"
        );
        for s in &out.steps {
            assert_ne!(s.to, 2, "a site {far:.1} ms away received a VM");
        }
    }

    #[test]
    fn copy_cost_scales_with_memory() {
        let sites = metro(2);
        let mut small = vec![
            SchedVm {
                site: 0,
                load: 10.0,
                mem_gb: 8.0,
            },
            SchedVm {
                site: 0,
                load: 1.0,
                mem_gb: 8.0,
            },
            SchedVm {
                site: 1,
                load: 0.1,
                mem_gb: 8.0,
            },
        ];
        let out_small = rebalance(&sites, &mut small, BUDGET);
        let mut large = vec![
            SchedVm {
                site: 0,
                load: 10.0,
                mem_gb: 64.0,
            },
            SchedVm {
                site: 0,
                load: 1.0,
                mem_gb: 64.0,
            },
            SchedVm {
                site: 1,
                load: 0.1,
                mem_gb: 64.0,
            },
        ];
        let out_large = rebalance(&sites, &mut large, BUDGET);
        if let (Some(a), Some(b)) = (out_small.steps.first(), out_large.steps.first()) {
            assert!(
                b.copy_s > 7.0 * a.copy_s,
                "64 GB must cost ~8x the 8 GB copy"
            );
        } else {
            panic!("both scenarios should migrate");
        }
    }

    #[test]
    fn already_balanced_noop() {
        let sites = metro(4);
        let mut vms: Vec<SchedVm> = (0..4)
            .flat_map(|s| {
                (0..10).map(move |_| SchedVm {
                    site: s,
                    load: 1.0,
                    mem_gb: 8.0,
                })
            })
            .collect();
        let out = rebalance(&sites, &mut vms, BUDGET);
        assert!(out.steps.is_empty());
        assert_eq!(out.cv_before, out.cv_after);
    }
}
