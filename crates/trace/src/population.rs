//! VM-population generation: the §2.1.2 VM table.
//!
//! Every app gets a customer, a category, a heavy-tailed VM count
//! (Fig. 9), and VMs sized per the flavour's tables (Fig. 8). NEP VMs are
//! placed onto a real [`Deployment`] through the §2 placement policy; cloud
//! VMs land in one of the cloud's regions (clouds centralize, §3.1's
//! "all clouds" baseline).

use crate::app::AppCategory;
use crate::flavor::{Flavor, FlavorParams};
use edgescope_net::rng::{bounded_pareto, log_normal, log_normal_mean_cv};
use edgescope_platform::deployment::Deployment;
use edgescope_platform::ids::{AppId, CustomerId, ServerId, SiteId, VmId};
use edgescope_platform::placement::{PlacementPolicy, Scope, SubscriptionRequest};
use edgescope_platform::resources::VmSpec;
use rand::Rng;

/// One row of the VM table.
#[derive(Debug, Clone, PartialEq)]
pub struct VmRecord {
    /// VM id (globally unique).
    pub vm: VmId,
    /// Owning app (same image = same app, 2).
    pub app: AppId,
    /// Owning customer.
    pub customer: CustomerId,
    /// Application category.
    pub category: AppCategory,
    /// Hosting site.
    pub site: SiteId,
    /// Hosting server.
    pub server: ServerId,
    /// Subscribed vCPU cores.
    pub cores: u32,
    /// Subscribed memory, GB.
    pub mem_gb: u32,
    /// Subscribed disk, GB.
    pub disk_gb: u32,
    /// Subscribed public bandwidth, Mbps.
    pub bandwidth_mbps: f64,
    /// Image id — same for all VMs of an app (§2's app definition).
    pub image_id: u32,
    /// Opaque OS tag (0 = linux-ish, 1 = windows-ish).
    pub os_type: u8,
}

fn sample_spec(rng: &mut impl Rng, params: &FlavorParams, category: AppCategory) -> VmSpec {
    let (cores, mem_gb) = params.sample_size(rng);
    let mu = params.storage_median_gb.ln();
    let disk_gb = log_normal(rng, mu, params.storage_sigma).clamp(10.0, 20_000.0) as u32;
    let bandwidth = log_normal_mean_cv(rng, category.bandwidth_intensity() * cores as f64, 0.5);
    VmSpec::new(cores, mem_gb, disk_gb.max(10), bandwidth)
}

/// Draw a per-app VM count from the flavour's bounded Pareto.
pub fn sample_app_vm_count(rng: &mut impl Rng, params: &FlavorParams) -> usize {
    bounded_pareto(rng, params.app_vms_alpha, 1.0, params.max_vms_per_app).round() as usize
}

/// Generate an NEP-flavoured population of `n_apps` apps placed on
/// `deployment` (whose allocation state is mutated). Apps request VMs in
/// 1–4 population-weighted provinces, exactly like §2's subscription flow;
/// requests that exceed a province's remaining capacity fall back to
/// `Anywhere`, and an app is truncated only if the whole platform is full.
pub fn generate_nep(
    rng: &mut impl Rng,
    params: &FlavorParams,
    deployment: &mut Deployment,
    n_apps: usize,
) -> Vec<VmRecord> {
    assert_eq!(
        params.flavor,
        Flavor::EdgeNep,
        "NEP generator needs edge params"
    );
    let policy = PlacementPolicy::default();
    let mut next_vm = 0u32;
    let mut records = Vec::new();

    // "New sites are added to NEP frequently" (§4.3) — the paper's
    // explanation for extreme cross-site skew. Model it: the last quarter
    // of sites come online only after 80 % of apps have subscribed, by
    // carrying a prohibitive placement score until then.
    let late_from = deployment.sites.len() - deployment.sites.len() / 4;
    for site in &mut deployment.sites[late_from..] {
        for server in &mut site.servers {
            server.observed_cpu_util = 1e6;
        }
    }
    let activation_app = n_apps * 4 / 5;

    // Province weights from the deployment itself (capacity follows
    // population already).
    let provinces: Vec<&'static str> = {
        let mut v: Vec<&'static str> = deployment.sites.iter().map(|s| s.province()).collect();
        v.sort_unstable();
        v.dedup();
        v
    };

    for app_idx in 0..n_apps {
        if app_idx == activation_app {
            // The late sites come online (and, being empty, immediately
            // become the placement policy's favourites — as in reality).
            for site in &mut deployment.sites[late_from..] {
                for server in &mut site.servers {
                    server.observed_cpu_util = 0.0;
                }
            }
        }
        let app = AppId(app_idx as u32);
        let customer = CustomerId(app_idx as u32 / 2); // customers run ~2 apps
        let category = AppCategory::sample(rng, params.category_mix);
        let total_vms = sample_app_vm_count(rng, params);
        let n_scopes = (1 + rng.gen_range(0..4usize)).min(provinces.len());
        let os_type = (rng.gen::<f64>() < 0.15) as u8;

        // Split the VM count across the chosen provinces.
        let mut remaining = total_vms;
        for s in 0..n_scopes {
            if remaining == 0 {
                break;
            }
            let take = if s == n_scopes - 1 {
                remaining
            } else {
                (remaining / (n_scopes - s)).clamp(1, remaining)
            };
            remaining -= take;
            let province = provinces[rng.gen_range(0..provinces.len())];
            // Specs vary per VM (commercial apps mix sizes; Fig. 8's CDF
            // is per-VM), so each VM is its own placement request.
            for _ in 0..take {
                let spec = sample_spec(rng, params, category);
                let mut req = SubscriptionRequest {
                    scope: Scope::Province(province.to_string()),
                    spec,
                };
                let p = match policy.place(deployment, &req, &mut next_vm) {
                    Ok(p) => p,
                    Err(_) => {
                        req.scope = Scope::Anywhere;
                        match policy.place(deployment, &req, &mut next_vm) {
                            Ok(p) => p,
                            Err(_) => {
                                // Platform full: skip VM.
                                edgescope_obs::counter_inc("trace.vm_requests_skipped");
                                continue;
                            }
                        }
                    }
                };
                records.push(VmRecord {
                    vm: p.vm,
                    app,
                    customer,
                    category,
                    site: p.site,
                    server: p.server,
                    cores: spec.cpu_cores,
                    mem_gb: spec.mem_gb,
                    disk_gb: spec.disk_gb,
                    bandwidth_mbps: spec.bandwidth_mbps,
                    image_id: app.0,
                    os_type,
                });
            }
        }
    }
    records
}

/// Generate a cloud-flavoured population of `n_apps` apps across
/// `n_regions` regions. Cloud customers centralize: each app picks ONE
/// region for all its VMs (§3.1: "most cloud customers cannot afford to
/// deploy their apps on every cloud site but only one in a centralized
/// manner").
pub fn generate_cloud(
    rng: &mut impl Rng,
    params: &FlavorParams,
    n_regions: u32,
    n_apps: usize,
) -> Vec<VmRecord> {
    assert_eq!(
        params.flavor,
        Flavor::CloudAzure,
        "cloud generator needs cloud params"
    );
    assert!(n_regions > 0, "need at least one region");
    let mut records = Vec::new();
    let mut next_vm = 0u32;
    let mut next_server = 0u32;
    for app_idx in 0..n_apps {
        let app = AppId(app_idx as u32);
        let customer = CustomerId(app_idx as u32); // clouds: many small customers
        let category = AppCategory::sample(rng, params.category_mix);
        let total_vms = sample_app_vm_count(rng, params);
        let region = SiteId(rng.gen_range(0..n_regions));
        let os_type = (rng.gen::<f64>() < 0.35) as u8;
        for i in 0..total_vms {
            let spec = sample_spec(rng, params, category);
            // Model ~40 VMs per cloud server slice; exact server identity
            // only matters for NEP's balance analysis.
            if i % 40 == 0 {
                next_server += 1;
            }
            records.push(VmRecord {
                vm: VmId(next_vm),
                app,
                customer,
                category,
                site: region,
                server: ServerId(next_server - 1),
                cores: spec.cpu_cores,
                mem_gb: spec.mem_gb,
                disk_gb: spec.disk_gb,
                bandwidth_mbps: spec.bandwidth_mbps,
                image_id: app.0,
                os_type,
            });
            next_vm += 1;
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgescope_analysis::stats::median;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn nep_records(seed: u64, n_apps: usize) -> Vec<VmRecord> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dep = Deployment::nep(&mut rng, 120);
        generate_nep(&mut rng, &FlavorParams::edge_nep(), &mut dep, n_apps)
    }

    fn cloud_records(seed: u64, n_apps: usize) -> Vec<VmRecord> {
        let mut rng = StdRng::seed_from_u64(seed);
        generate_cloud(&mut rng, &FlavorParams::cloud_azure(), 10, n_apps)
    }

    #[test]
    fn nep_core_median_is_8() {
        let recs = nep_records(1, 150);
        assert!(recs.len() > 500, "population size {}", recs.len());
        let cores: Vec<f64> = recs.iter().map(|r| r.cores as f64).collect();
        assert_eq!(median(&cores), 8.0);
        let mems: Vec<f64> = recs.iter().map(|r| r.mem_gb as f64).collect();
        assert_eq!(median(&mems), 32.0);
    }

    #[test]
    fn cloud_core_median_is_1() {
        let recs = cloud_records(2, 300);
        let cores: Vec<f64> = recs.iter().map(|r| r.cores as f64).collect();
        assert_eq!(median(&cores), 1.0);
        let le4 = cores.iter().filter(|&&c| c <= 4.0).count() as f64 / cores.len() as f64;
        assert!((le4 - 0.90).abs() < 0.04, "≤4 cores {le4}");
        let mems: Vec<f64> = recs.iter().map(|r| r.mem_gb as f64).collect();
        let mle4 = mems.iter().filter(|&&m| m <= 4.0).count() as f64 / mems.len() as f64;
        assert!((mle4 - 0.70).abs() < 0.05, "≤4 GB {mle4}");
    }

    #[test]
    fn nep_storage_median_and_mean() {
        let recs = nep_records(3, 200);
        let disks: Vec<f64> = recs.iter().map(|r| r.disk_gb as f64).collect();
        let med = median(&disks);
        let mean = disks.iter().sum::<f64>() / disks.len() as f64;
        assert!((med - 100.0).abs() < 35.0, "storage median {med}");
        assert!((400.0..1000.0).contains(&mean), "storage mean {mean}");
    }

    #[test]
    fn heavy_tailed_app_sizes() {
        // Fig. 9: ≈9.6 % of NEP apps and ≈6.1 % of cloud apps have ≥50 VMs.
        let mut rng = StdRng::seed_from_u64(4);
        let nep = FlavorParams::edge_nep();
        let counts: Vec<usize> = (0..4000)
            .map(|_| sample_app_vm_count(&mut rng, &nep))
            .collect();
        let frac50 = counts.iter().filter(|&&c| c >= 50).count() as f64 / counts.len() as f64;
        assert!((frac50 - 0.096).abs() < 0.02, "NEP ≥50-VM share {frac50}");
        assert!(counts.iter().all(|&c| (1..=1000).contains(&c)));

        let az = FlavorParams::cloud_azure();
        let counts: Vec<usize> = (0..4000)
            .map(|_| sample_app_vm_count(&mut rng, &az))
            .collect();
        let frac50 = counts.iter().filter(|&&c| c >= 50).count() as f64 / counts.len() as f64;
        assert!((frac50 - 0.061).abs() < 0.02, "cloud ≥50-VM share {frac50}");
    }

    #[test]
    fn nep_placement_is_consistent() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut dep = Deployment::nep(&mut rng, 120);
        let recs = generate_nep(&mut rng, &FlavorParams::edge_nep(), &mut dep, 100);
        // Every record's site hosts its server and the server hosts the VM.
        for r in &recs {
            let site = dep.sites.iter().find(|s| s.id == r.site).expect("site");
            let server = site
                .servers
                .iter()
                .find(|s| s.id == r.server)
                .expect("server");
            assert!(server.vms().iter().any(|(v, _)| *v == r.vm));
        }
        // VM ids are unique.
        let mut ids: Vec<u32> = recs.iter().map(|r| r.vm.0).collect();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn apps_share_image_ids() {
        let recs = nep_records(6, 50);
        for r in &recs {
            assert_eq!(r.image_id, r.app.0);
        }
    }

    #[test]
    fn cloud_apps_centralized_one_region() {
        let recs = cloud_records(7, 100);
        use std::collections::HashMap;
        let mut per_app: HashMap<u32, Vec<u32>> = HashMap::new();
        for r in &recs {
            per_app.entry(r.app.0).or_default().push(r.site.0);
        }
        for (_, sites) in per_app {
            let first = sites[0];
            assert!(sites.iter().all(|&s| s == first), "cloud app spans regions");
        }
    }

    #[test]
    fn nep_large_apps_span_sites() {
        let recs = nep_records(8, 200);
        use std::collections::HashMap;
        let mut per_app: HashMap<u32, Vec<u32>> = HashMap::new();
        for r in &recs {
            per_app.entry(r.app.0).or_default().push(r.site.0);
        }
        let multi = per_app
            .values()
            .filter(|sites| sites.len() >= 20)
            .filter(|sites| {
                let mut s = sites.to_vec();
                s.sort_unstable();
                s.dedup();
                s.len() > 1
            })
            .count();
        let large = per_app.values().filter(|s| s.len() >= 20).count();
        assert!(large > 0, "need some large apps");
        // A single-province app can occasionally fit inside one site, so
        // require most — not all — large apps to be geo-distributed.
        assert!(
            multi as f64 >= 0.8 * large as f64,
            "only {multi}/{large} large edge apps span several sites"
        );
    }
}
