//! The §4.5 "virtual baseline" and Table 3.
//!
//! "It works by clustering and merging the VMs' usage (both hardware and
//! bandwidth) of NEP into the site distribution of cloud platforms based
//! on geographical distances." For each of the heaviest apps we re-bill
//! its NEP trace under a cloud tariff: every NEP site's traffic moves to
//! the geographically nearest cloud region, the app's bandwidth is merged
//! per region, and the three cloud network models are priced against
//! NEP's own bill. Table 3 reports the distribution of
//! `cloud cost / NEP cost` ratios.

use crate::bill::{cloud_network_month, nep_app_bill, scale_to_month};
use crate::tariff::{CloudTariff, NepTariff, NetworkModel, Operator};
use edgescope_platform::deployment::Deployment;
use edgescope_trace::dataset::TraceDataset;
use std::collections::BTreeMap;

/// Distribution of cost ratios over the examined apps.
#[derive(Debug, Clone, PartialEq)]
pub struct CostRatios {
    /// Smallest per-app ratio.
    pub min: f64,
    /// Largest per-app ratio.
    pub max: f64,
    /// Mean ratio.
    pub mean: f64,
    /// Median ratio.
    pub median: f64,
}

impl CostRatios {
    fn of(ratios: &[f64]) -> Self {
        assert!(!ratios.is_empty(), "no ratios");
        CostRatios {
            min: edgescope_analysis::stats::peak_min(ratios),
            max: edgescope_analysis::stats::peak_max(ratios),
            mean: edgescope_analysis::stats::mean(ratios),
            median: edgescope_analysis::stats::median(ratios),
        }
    }
}

/// The Table 3 block for one virtual cloud.
#[derive(Debug, Clone, PartialEq)]
pub struct VirtualCloudReport {
    /// Which cloud tariff was used.
    pub cloud_name: &'static str,
    /// Per network model: the ratio distribution and the raw per-app
    /// ratios (for CDFs / deeper analysis).
    pub by_model: Vec<(NetworkModel, CostRatios, Vec<f64>)>,
    /// Mean share of the NEP bill that is network (the §4.5 "76 % on
    /// average" breakdown statistic).
    pub nep_network_share_mean: f64,
}

/// Operator assignment of a site (stable: alternating by site id, giving
/// the platform a realistic multi-operator mix).
fn operator_of(site_idx: u32) -> Operator {
    if site_idx.is_multiple_of(2) {
        Operator::Telecom
    } else {
        Operator::Cmcc
    }
}

/// How the virtual cloud bills an app's traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficGranularity {
    /// Merge the app's traffic per nearest region (the paper's
    /// "clustering and merging" description) — statistical multiplexing
    /// lowers reserved-bandwidth bills.
    MergedPerRegion,
    /// Bill each VM's own traffic (how cloud customers actually reserve
    /// per-VM bandwidth) — no multiplexing benefit.
    PerVm,
}

/// Compute Table 3's ratios for `n_heaviest` apps of an NEP trace against
/// one cloud, merging traffic per region (the paper's method).
pub fn table3_ratios(
    ds: &TraceDataset,
    dep: &Deployment,
    cloud: &CloudTariff,
    cloud_regions: &Deployment,
    n_heaviest: usize,
) -> VirtualCloudReport {
    table3_ratios_with(ds, dep, cloud, cloud_regions, n_heaviest, TrafficGranularity::MergedPerRegion)
}

/// [`table3_ratios`] with an explicit traffic-billing granularity.
pub fn table3_ratios_with(
    ds: &TraceDataset,
    dep: &Deployment,
    cloud: &CloudTariff,
    cloud_regions: &Deployment,
    n_heaviest: usize,
    granularity: TrafficGranularity,
) -> VirtualCloudReport {
    let nep = NepTariff::paper();
    let interval = ds.config.bw_interval_min;
    let days = ds.config.days as f64;
    let heavy = ds.heaviest_apps(n_heaviest);
    let by_app = ds.vms_per_app();

    // Pre-compute NEP-site → nearest-cloud-region mapping.
    let region_of: Vec<usize> = dep
        .sites
        .iter()
        .map(|s| cloud_regions.kth_nearest(s.geo(), 0).0)
        .collect();

    let mut ratios: BTreeMap<NetworkModel, Vec<f64>> =
        NetworkModel::ALL.iter().map(|m| (*m, Vec::new())).collect();
    let mut net_shares = Vec::new();

    for app in &heavy {
        let idxs = &by_app[app];

        // --- NEP side -------------------------------------------------
        let specs: Vec<(u32, u32, u32)> = idxs
            .iter()
            .map(|&i| {
                let r = &ds.records[i];
                (r.cores, r.mem_gb, r.disk_gb)
            })
            .collect();
        // Combine the app's bandwidth per NEP site.
        let mut site_bw: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for &i in idxs {
            let site = ds.records[i].site.0;
            let acc = site_bw
                .entry(site)
                .or_insert_with(|| vec![0.0; ds.bw_mbps[i].len()]);
            for (a, &v) in acc.iter_mut().zip(&ds.bw_mbps[i]) {
                *a += v as f64;
            }
        }
        let per_site: Vec<(String, Operator, Vec<f64>)> = site_bw
            .iter()
            .map(|(&site, bw)| {
                let city = dep.sites[site as usize].city.name.to_string();
                (city, operator_of(site), bw.clone())
            })
            .collect();
        let (nep_hw, nep_net) = nep_app_bill(&nep, &specs, &per_site, interval);
        let nep_total = nep_hw + nep_net;
        if nep_total <= 0.0 {
            continue;
        }
        net_shares.push(nep_net / nep_total);

        // --- Cloud side -------------------------------------------------
        let cloud_hw: f64 = specs
            .iter()
            .map(|&(c, m, d)| cloud.hardware_month(c, m, d))
            .sum();
        // The billable traffic aggregates: merged per nearest cloud
        // region, or each VM on its own.
        let aggregates: Vec<Vec<f64>> = match granularity {
            TrafficGranularity::MergedPerRegion => {
                let mut region_bw: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
                for (&site, bw) in &site_bw {
                    let region = region_of[site as usize];
                    let acc = region_bw.entry(region).or_insert_with(|| vec![0.0; bw.len()]);
                    for (a, &v) in acc.iter_mut().zip(bw) {
                        *a += v;
                    }
                }
                region_bw.into_values().collect()
            }
            TrafficGranularity::PerVm => idxs
                .iter()
                .map(|&i| ds.bw_mbps[i].iter().map(|&v| v as f64).collect())
                .collect(),
        };
        for model in NetworkModel::ALL {
            let mut cloud_net = 0.0;
            for bw in &aggregates {
                let c = cloud_network_month(cloud, model, bw, interval);
                cloud_net += match model {
                    // Integrated bills cover only `days` of trace; scale to
                    // a month. Reserved bandwidth is monthly by definition.
                    NetworkModel::OnDemandByBandwidth | NetworkModel::OnDemandByQuantity => {
                        scale_to_month(c, days)
                    }
                    NetworkModel::PreReservedFixed => c,
                };
            }
            ratios
                .get_mut(&model)
                .unwrap()
                .push((cloud_hw + cloud_net) / nep_total);
        }
    }

    VirtualCloudReport {
        cloud_name: cloud.name,
        by_model: NetworkModel::ALL
            .iter()
            .map(|m| (*m, CostRatios::of(&ratios[m]), ratios[m].clone()))
            .collect(),
        nep_network_share_mean: edgescope_analysis::stats::mean(&net_shares),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgescope_trace::series::TraceConfig;

    fn dataset() -> (TraceDataset, Deployment) {
        let cfg = TraceConfig { days: 10, cpu_interval_min: 30, bw_interval_min: 15, start_weekday: 0 };
        TraceDataset::generate_nep(11, 60, 60, cfg, 1)
    }

    #[test]
    fn table3_shape_and_ordering() {
        let (ds, dep) = dataset();
        let ali = Deployment::alicloud();
        let rep = table3_ratios(&ds, &dep, &CloudTariff::alicloud(), &ali, 20);
        assert_eq!(rep.by_model.len(), 3);
        for (model, r, raw) in &rep.by_model {
            assert_eq!(raw.len(), 20, "{model:?} app count");
            assert!(r.min <= r.median && r.median <= r.max);
            assert!(r.min > 0.0);
        }
    }

    #[test]
    fn cloud_costs_more_on_average() {
        // Table 3's headline: moving the heavy apps to the cloud costs
        // more under every network model, most under pre-reserved.
        let (ds, dep) = dataset();
        let ali = Deployment::alicloud();
        let rep = table3_ratios(&ds, &dep, &CloudTariff::alicloud(), &ali, 20);
        let mean_of = |m: NetworkModel| {
            rep.by_model.iter().find(|(mm, ..)| *mm == m).unwrap().1.mean
        };
        let od_bw = mean_of(NetworkModel::OnDemandByBandwidth);
        let od_q = mean_of(NetworkModel::OnDemandByQuantity);
        let fixed = mean_of(NetworkModel::PreReservedFixed);
        assert!(od_bw > 1.0, "on-demand-by-bandwidth mean {od_bw}");
        assert!(fixed >= od_bw * 0.8, "fixed {fixed} vs od {od_bw}");
        assert!(od_q > 1.0, "by-quantity mean {od_q}");
    }

    #[test]
    fn network_dominates_nep_bills() {
        // §4.5: network is ≈76 % of the NEP bill on average for the
        // heaviest apps (band: clearly more than half).
        let (ds, dep) = dataset();
        let ali = Deployment::alicloud();
        let rep = table3_ratios(&ds, &dep, &CloudTariff::alicloud(), &ali, 20);
        assert!(
            rep.nep_network_share_mean > 0.5,
            "network share {}",
            rep.nep_network_share_mean
        );
    }

    #[test]
    fn per_vm_billing_raises_reserved_ratio() {
        // The multiplexing effect: per-VM reservations cannot share the
        // cheap first-5-Mbps tier or smooth peaks, so the pre-reserved
        // ratio rises vs merged-per-region billing.
        let (ds, dep) = dataset();
        let ali = Deployment::alicloud();
        let merged = table3_ratios_with(
            &ds, &dep, &CloudTariff::alicloud(), &ali, 15, TrafficGranularity::MergedPerRegion,
        );
        let per_vm = table3_ratios_with(
            &ds, &dep, &CloudTariff::alicloud(), &ali, 15, TrafficGranularity::PerVm,
        );
        let fixed = |r: &VirtualCloudReport| {
            r.by_model
                .iter()
                .find(|(m, ..)| *m == NetworkModel::PreReservedFixed)
                .unwrap()
                .1
                .mean
        };
        assert!(
            fixed(&per_vm) > fixed(&merged),
            "per-VM {} vs merged {}",
            fixed(&per_vm),
            fixed(&merged)
        );
    }

    #[test]
    fn huawei_report_also_works() {
        let (ds, dep) = dataset();
        let hw = Deployment::huawei_cloud();
        let rep = table3_ratios(&ds, &dep, &CloudTariff::huawei(), &hw, 10);
        assert_eq!(rep.cloud_name, "Huawei Cloud (vCloud-2)");
        for (_, r, _) in &rep.by_model {
            assert!(r.mean.is_finite() && r.mean > 0.0);
        }
    }
}
