//! NEP's VM placement policy.
//!
//! §2 ("NEP operation"): a customer submits a geographic resource request —
//! *"I need 10 virtual machines in Guangdong province, each with 16 CPU
//! cores and 32GB memory"* — and NEP returns one feasible allocation,
//! favouring "the servers that are low in usage in terms of the sales
//! ratio and actual CPU usage (mean and max)".
//!
//! Here that request is ten single-VM [`SubscriptionRequest`]s, each
//! scoped to Guangdong: every product caller (the NEP population
//! generator, the colocation study, the fragmentation experiment) places
//! one VM per request, because VM specs vary per VM. [`PlacementPolicy::place`]
//! filters the feasible servers in the requested scope, scores each by an
//! equal-weight (`W_SALES`, `W_UTIL`) combination of CPU sales ratio and
//! observed CPU utilization, and allocates on the lowest-scoring one. Each
//! placed VM raises its server's sales ratio, so consecutive requests
//! spread across servers.

use crate::deployment::Deployment;
use crate::ids::{ServerId, SiteId, VmId};
use crate::resources::VmSpec;
use edgescope_obs as obs;

/// Weight of the CPU sales ratio in the server score. NEP names both
/// criteria; equal weighting is the neutral reading.
const W_SALES: f64 = 0.5;
/// Weight of the observed CPU utilization in the server score.
const W_UTIL: f64 = 0.5;

/// Geographic scope of a subscription request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Scope {
    /// Any site in the named province.
    Province(String),
    /// Anywhere on the platform.
    Anywhere,
}

/// A customer's request for one VM (§2's example shape, one VM at a time).
#[derive(Debug, Clone)]
pub struct SubscriptionRequest {
    /// Where the VM must land.
    pub scope: Scope,
    /// Resources of the VM.
    pub spec: VmSpec,
}

/// Why a placement failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// No site matches the scope.
    NoSuchScope,
    /// No server in scope has room for the VM.
    InsufficientCapacity,
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::NoSuchScope => write!(f, "no site matches the requested scope"),
            PlacementError::InsufficientCapacity => {
                write!(f, "insufficient capacity: no server in scope fits the VM")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// One placed VM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// The assigned VM id.
    pub vm: VmId,
    /// Hosting site.
    pub site: SiteId,
    /// Hosting server.
    pub server: ServerId,
}

/// The placement policy: the paper's two criteria at equal weight, plus
/// an optional colocation-density penalty.
#[derive(Debug, Clone, Default)]
pub struct PlacementPolicy {
    /// Weight of the server's colocation density
    /// ([`crate::site::Server::colocation_density`]) — 0.0 by default, so
    /// the paper's documented two-criterion policy is unchanged; the
    /// contention-aware policy raises it to dodge noisy-neighbour servers.
    pub w_coloc: f64,
}

impl PlacementPolicy {
    /// A contention-aware variant: the two documented criteria plus an
    /// equal-weight colocation-density penalty, so tenants land on servers
    /// with the fewest noisy neighbours.
    pub fn contention_aware() -> Self {
        PlacementPolicy { w_coloc: 1.0 }
    }

    /// Place one VM of `req.spec` in `req.scope`, mutating the
    /// deployment's allocation state. The VM id is `next_vm_id`, which is
    /// incremented on success; on an error nothing changes.
    ///
    /// Metrics (no-ops outside an `obs` scope):
    /// `platform.placement_requests`, `platform.placement_vms_placed`,
    /// `platform.placement_rejected_scope`,
    /// `platform.placement_rejected_capacity`.
    pub fn place(
        &self,
        deployment: &mut Deployment,
        req: &SubscriptionRequest,
        next_vm_id: &mut u32,
    ) -> Result<Placement, PlacementError> {
        obs::counter_inc("platform.placement_requests");
        let site_idxs: Vec<usize> = match &req.scope {
            Scope::Province(p) => deployment.sites_in_province(p),
            Scope::Anywhere => (0..deployment.sites.len()).collect(),
        };
        if site_idxs.is_empty() {
            obs::counter_inc("platform.placement_rejected_scope");
            return Err(PlacementError::NoSuchScope);
        }
        let Some((si, vi)) = self.best_server(deployment, &site_idxs, &req.spec) else {
            obs::counter_inc("platform.placement_rejected_capacity");
            return Err(PlacementError::InsufficientCapacity);
        };
        let vm = VmId(*next_vm_id);
        *next_vm_id += 1;
        let site = &mut deployment.sites[si];
        site.servers[vi].allocate(vm, req.spec);
        obs::counter_inc("platform.placement_vms_placed");
        Ok(Placement {
            vm,
            site: site.id,
            server: site.servers[vi].id,
        })
    }

    /// The lowest-scoring feasible server in scope, as
    /// `(site index, server index)`.
    fn best_server(
        &self,
        deployment: &Deployment,
        site_idxs: &[usize],
        spec: &VmSpec,
    ) -> Option<(usize, usize)> {
        let mut best: Option<(usize, usize, f64)> = None;
        for &si in site_idxs {
            for (vi, server) in deployment.sites[si].servers.iter().enumerate() {
                if !server.fits(spec) {
                    continue;
                }
                // The colocation term scores the server as the incoming
                // tenant would find it — *after* landing on it
                // (`density_with`), so neighbour count genuinely enters
                // the ordering instead of merely echoing the sales ratio.
                // With the default `w_coloc = 0` the term vanishes and the
                // documented two-criterion policy is bit-identical.
                let score = W_SALES * server.cpu_sales_ratio()
                    + W_UTIL * server.observed_cpu_util
                    + self.w_coloc * server.density_with(spec);
                if best.is_none_or(|(_, _, s)| score < s) {
                    best = Some((si, vi, score));
                }
            }
        }
        best.map(|(si, vi, _)| (si, vi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::Deployment;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_nep(seed: u64) -> Deployment {
        let mut rng = StdRng::seed_from_u64(seed);
        Deployment::nep(&mut rng, 60)
    }

    fn in_province(province: &str, spec: VmSpec) -> SubscriptionRequest {
        SubscriptionRequest {
            scope: Scope::Province(province.into()),
            spec,
        }
    }

    /// §2's example: ten 16-core/32 GB VMs in Guangdong, one request each.
    fn paper_requests() -> Vec<SubscriptionRequest> {
        (0..10)
            .map(|_| in_province("Guangdong", VmSpec::new(16, 32, 100, 50.0)))
            .collect()
    }

    #[test]
    fn paper_example_placement_succeeds() {
        let mut d = small_nep(1);
        let mut next = 0;
        let policy = PlacementPolicy::default();
        for (i, req) in paper_requests().iter().enumerate() {
            let p = policy
                .place(&mut d, req, &mut next)
                .expect("place a VM in Guangdong");
            assert_eq!(p.vm, VmId(i as u32));
            let site = d.sites.iter().find(|s| s.id == p.site).unwrap();
            assert_eq!(site.province(), "Guangdong");
            let server = site.servers.iter().find(|s| s.id == p.server).unwrap();
            assert!(server.vms().iter().any(|(v, _)| *v == p.vm));
        }
        assert_eq!(next, 10);
    }

    #[test]
    fn prefers_low_sales_servers() {
        let mut d = small_nep(2);
        // Pre-load every server of the first Guangdong site heavily.
        let gd = d.sites_in_province("Guangdong");
        assert!(gd.len() >= 2);
        let hot = gd[0];
        for (preload_vm, server) in (10_000..).zip(d.sites[hot].servers.iter_mut()) {
            let spec = VmSpec::new(server.capacity.cpu_cores - 1, 1, 1, 0.0);
            server.allocate(VmId(preload_vm), spec);
        }
        let mut next = 0;
        let hot_id = d.sites[hot].id;
        for _ in 0..5 {
            let req = in_province("Guangdong", VmSpec::new(1, 2, 10, 5.0));
            let p = PlacementPolicy::default()
                .place(&mut d, &req, &mut next)
                .unwrap();
            // Every placement avoids the saturated site.
            assert_ne!(p.site, hot_id);
        }
    }

    #[test]
    fn prefers_idle_servers_by_observed_util() {
        let mut d = small_nep(3);
        // Every Guangdong server is busy except one.
        let gd = d.sites_in_province("Guangdong");
        for &si in &gd {
            for server in &mut d.sites[si].servers {
                server.observed_cpu_util = 0.9;
            }
        }
        let idle = &mut d.sites[gd[gd.len() - 1]].servers[2];
        idle.observed_cpu_util = 0.0;
        let idle_id = idle.id;
        let mut next = 0;
        let req = in_province("Guangdong", VmSpec::new(1, 2, 10, 5.0));
        let p = PlacementPolicy::default()
            .place(&mut d, &req, &mut next)
            .unwrap();
        assert_eq!(p.server, idle_id);
    }

    #[test]
    fn insufficient_capacity_allocates_nothing() {
        let mut d = small_nep(4);
        // A VM larger than any server.
        let req = SubscriptionRequest {
            scope: Scope::Anywhere,
            spec: VmSpec::new(10_000, 192, 1000, 0.0),
        };
        let mut next = 0;
        let vm_count = |d: &Deployment| -> usize {
            d.sites
                .iter()
                .flat_map(|s| &s.servers)
                .map(|s| s.vms().len())
                .sum()
        };
        let before = vm_count(&d);
        assert_eq!(
            PlacementPolicy::default().place(&mut d, &req, &mut next),
            Err(PlacementError::InsufficientCapacity)
        );
        let after = vm_count(&d);
        assert_eq!(before, after, "failed placement must not leak allocations");
        assert_eq!(next, 0);
    }

    #[test]
    fn unknown_scope_errors() {
        let mut d = small_nep(5);
        let req = in_province("Narnia", VmSpec::new(1, 1, 1, 0.0));
        let mut next = 0;
        assert_eq!(
            PlacementPolicy::default().place(&mut d, &req, &mut next),
            Err(PlacementError::NoSuchScope)
        );
        assert_eq!(next, 0);
    }

    #[test]
    fn placement_counters_track_outcomes() {
        let ((), set) = obs::scoped(|| {
            let mut d = small_nep(7);
            let mut next = 0;
            let policy = PlacementPolicy::default();
            for req in &paper_requests() {
                policy
                    .place(&mut d, req, &mut next)
                    .expect("paper request fits");
            }
            let bad_scope = in_province("Narnia", VmSpec::new(1, 1, 1, 0.0));
            let _ = policy.place(&mut d, &bad_scope, &mut next);
            let too_big = SubscriptionRequest {
                scope: Scope::Anywhere,
                spec: VmSpec::new(10_000, 192, 1000, 0.0),
            };
            let _ = policy.place(&mut d, &too_big, &mut next);
        });
        assert_eq!(set.counter("platform.placement_requests"), 12);
        assert_eq!(set.counter("platform.placement_vms_placed"), 10);
        assert_eq!(set.counter("platform.placement_rejected_scope"), 1);
        assert_eq!(set.counter("platform.placement_rejected_capacity"), 1);
    }

    #[test]
    fn spreads_load_across_servers() {
        // With equal weights and empty servers, consecutive placements of
        // equal VMs should spread (each allocation raises the host's
        // score).
        let mut d = small_nep(6);
        let province = d.sites[0].province();
        let n_servers: usize = d
            .sites_in_province(province)
            .iter()
            .map(|&si| d.sites[si].servers.len())
            .sum();
        let mut next = 0;
        let mut servers: Vec<ServerId> = (0..n_servers.min(8))
            .map(|_| {
                let req = in_province(province, VmSpec::new(8, 16, 50, 0.0));
                PlacementPolicy::default()
                    .place(&mut d, &req, &mut next)
                    .unwrap()
                    .server
            })
            .collect();
        let placed = servers.len();
        servers.sort();
        servers.dedup();
        assert_eq!(servers.len(), placed, "each VM on a distinct server");
    }
}
