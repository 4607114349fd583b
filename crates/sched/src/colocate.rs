//! Colocation study: the paper's sales-ratio placement policy vs a
//! contention-aware variant, scored under a multi-tenant contention model.
//!
//! §2's documented policy minimizes sales ratio and observed CPU usage —
//! criteria that ignore *how many neighbours* a tenant gets. Under the
//! [`Contention`] model (CPU steal and bandwidth sharing grow with
//! colocation density) that blind spot is measurable: this module fills
//! the same deployment with the same VM request sequence under both
//! policies and reports what each tenant population experiences.

use edgescope_analysis::stats::{mean, percentile};
use edgescope_platform::contention::Contention;
use edgescope_platform::deployment::Deployment;
use edgescope_platform::placement::{PlacementPolicy, Scope, SubscriptionRequest};
use edgescope_platform::resources::VmSpec;
use rand::Rng;

/// A VM whose CPU-steal factor exceeds this is counted degraded (≥15%
/// compute inflation).
const DEGRADED_THRESHOLD: f64 = 1.15;

/// Config of one colocation study.
#[derive(Debug, Clone)]
pub struct ColocationConfig {
    /// The contention model scoring the resulting packings.
    pub contention: Contention,
    /// VMs to place (one subscription request each, anywhere-scope).
    pub n_vms: usize,
}

/// What one policy's tenant population experiences.
#[derive(Debug, Clone)]
pub struct ColocationOutcome {
    /// Policy label (`sales-ratio` / `contention-aware`).
    pub policy: &'static str,
    /// VMs actually placed (identical request sequences, so differences
    /// mean one policy ran out of feasible servers earlier).
    pub placed: usize,
    /// Mean CPU-steal factor across placed VMs (1.0 = no interference).
    pub mean_steal: f64,
    /// 95th-percentile CPU-steal factor.
    pub p95_steal: f64,
    /// Fraction of VMs whose steal factor exceeds the degraded threshold.
    pub degraded_fraction: f64,
    /// Mean fraction of nominal bandwidth available to a VM.
    pub mean_bw_share: f64,
    /// Mean colocation density over servers that host at least one VM.
    pub mean_density: f64,
}

/// Per-VM steal factors of a packed deployment under `contention`.
fn vm_steal_factors(dep: &Deployment, contention: &Contention) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    for site in &dep.sites {
        for server in &site.servers {
            let d = server.colocation_density();
            let steal = contention.cpu_steal_factor(d);
            let bw = contention.bw_available(d);
            for _ in server.vms() {
                out.push((steal, bw));
            }
        }
    }
    out
}

/// Mean colocation density over occupied servers.
fn occupied_density(dep: &Deployment) -> f64 {
    let occupied: Vec<f64> = dep
        .sites
        .iter()
        .flat_map(|s| &s.servers)
        .filter(|s| !s.vms().is_empty())
        .map(|s| s.colocation_density())
        .collect();
    mean(&occupied)
}

/// Score one packed deployment.
fn outcome(
    policy: &'static str,
    dep: &Deployment,
    placed: usize,
    cfg: &ColocationConfig,
) -> ColocationOutcome {
    let per_vm = vm_steal_factors(dep, &cfg.contention);
    if per_vm.is_empty() {
        return ColocationOutcome {
            policy,
            placed,
            mean_steal: 1.0,
            p95_steal: 1.0,
            degraded_fraction: 0.0,
            mean_bw_share: 1.0,
            mean_density: 0.0,
        };
    }
    let n = per_vm.len() as f64;
    let steals: Vec<f64> = per_vm.iter().map(|&(s, _)| s).collect();
    ColocationOutcome {
        policy,
        placed,
        mean_steal: mean(&steals),
        p95_steal: percentile(&steals, 95.0),
        degraded_fraction: steals.iter().filter(|&&s| s > DEGRADED_THRESHOLD).count() as f64 / n,
        mean_bw_share: per_vm.iter().map(|&(_, b)| b).sum::<f64>() / n,
        mean_density: occupied_density(dep),
    }
}

/// Fill a clone of `dep` with `specs` (one anywhere-scope request per VM)
/// under `policy`, returning the packed deployment and how many landed.
fn fill(dep: &Deployment, specs: &[VmSpec], policy: &PlacementPolicy) -> (Deployment, usize) {
    let mut working = dep.clone();
    let mut next_vm = 0u32;
    let mut placed = 0usize;
    for &spec in specs {
        let req = SubscriptionRequest {
            scope: Scope::Anywhere,
            spec,
        };
        if policy.place(&mut working, &req, &mut next_vm).is_ok() {
            placed += 1;
        }
    }
    (working, placed)
}

/// Run the study: the same world and VM sequence, one outcome per policy
/// (`sales-ratio` first, then `contention-aware`).
///
/// All randomness (the VM spec sequence) is drawn up front from `rng`, so
/// both policies see identical requests and the result is a pure function
/// of `(rng stream, dep, cfg)` — safe under the `--jobs` byte-identity
/// contract.
pub fn colocation_study(
    rng: &mut impl Rng,
    dep: &Deployment,
    cfg: &ColocationConfig,
) -> Vec<ColocationOutcome> {
    assert!(cfg.n_vms > 0, "need VMs to place");
    // The §2 subscription shapes: small web/app boxes up to mid-size
    // transcoder VMs, bandwidth irrelevant to packing.
    let menu = [
        VmSpec::new(2, 8, 50, 10.0),
        VmSpec::new(4, 16, 100, 20.0),
        VmSpec::new(8, 32, 100, 50.0),
        VmSpec::new(16, 64, 200, 100.0),
    ];
    let specs: Vec<VmSpec> = (0..cfg.n_vms)
        .map(|_| menu[rng.gen_range(0..menu.len())])
        .collect();

    let (packed_sales, placed_sales) = fill(dep, &specs, &PlacementPolicy::default());
    let (packed_aware, placed_aware) = fill(dep, &specs, &PlacementPolicy::contention_aware());
    vec![
        outcome("sales-ratio", &packed_sales, placed_sales, cfg),
        outcome("contention-aware", &packed_aware, placed_aware, cfg),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn world(seed: u64) -> Deployment {
        let mut rng = StdRng::seed_from_u64(seed);
        // Small servers so colocation density actually builds up.
        Deployment::nep_custom(&mut rng, 12, 4, 10)
    }

    #[test]
    fn study_is_deterministic() {
        let dep = world(3);
        let cfg = ColocationConfig {
            contention: Contention::moderate(),
            n_vms: 400,
        };
        let a = colocation_study(&mut StdRng::seed_from_u64(9), &dep, &cfg);
        let b = colocation_study(&mut StdRng::seed_from_u64(9), &dep, &cfg);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.policy, y.policy);
            assert_eq!(x.mean_steal, y.mean_steal);
            assert_eq!(x.degraded_fraction, y.degraded_fraction);
        }
    }

    #[test]
    fn contention_aware_never_worse_on_steal() {
        // Same world, same VMs: dodging dense servers cannot increase the
        // population's mean steal when both policies place everything.
        let dep = world(5);
        let cfg = ColocationConfig {
            contention: Contention::moderate(),
            n_vms: 300,
        };
        let out = colocation_study(&mut StdRng::seed_from_u64(11), &dep, &cfg);
        assert_eq!(out.len(), 2);
        let (sales, aware) = (&out[0], &out[1]);
        assert_eq!(sales.policy, "sales-ratio");
        assert_eq!(aware.policy, "contention-aware");
        assert_eq!(sales.placed, aware.placed, "identical request sequences");
        assert!(
            aware.mean_steal <= sales.mean_steal + 1e-9,
            "aware {} vs sales {}",
            aware.mean_steal,
            sales.mean_steal
        );
    }

    #[test]
    fn contention_off_reports_identity_factors() {
        let dep = world(6);
        let cfg = ColocationConfig {
            contention: Contention::off(),
            n_vms: 400,
        };
        for o in colocation_study(&mut StdRng::seed_from_u64(2), &dep, &cfg) {
            assert_eq!(o.mean_steal, 1.0);
            assert_eq!(o.p95_steal, 1.0);
            assert_eq!(o.degraded_fraction, 0.0);
            assert_eq!(o.mean_bw_share, 1.0);
        }
    }
}
