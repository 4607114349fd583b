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
use crate::tariff::{CloudTariff, NetworkModel, Operator};
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

/// Add a bandwidth series into the aggregate under `key`: an NEP site,
/// whose combined traffic Appendix D bills, or a cloud region. Sums run
/// in call order, and a NaN sample propagates into the aggregate's
/// sample at that timestep.
pub fn add_series<K: Ord>(aggregates: &mut BTreeMap<K, Vec<f64>>, key: K, bw: &[f64]) {
    let acc = aggregates.entry(key).or_insert_with(|| vec![0.0; bw.len()]);
    for (a, &v) in acc.iter_mut().zip(bw) {
        *a += v;
    }
}

/// A cloud network bill of one traffic aggregate, as a monthly cost.
fn cloud_net_month(
    cloud: &CloudTariff,
    model: NetworkModel,
    bw: &[f64],
    interval: usize,
    days: f64,
) -> f64 {
    let c = cloud_network_month(cloud, model, bw, interval);
    match model {
        // Integrated bills cover only `days` of trace; scale to a month.
        // Reserved bandwidth is monthly by definition.
        NetworkModel::OnDemandByBandwidth | NetworkModel::OnDemandByQuantity => {
            scale_to_month(c, days)
        }
        NetworkModel::PreReservedFixed => c,
    }
}

/// Compute Table 3's ratios for the `n_heaviest` apps of an NEP trace
/// against each of `views`, one report per view in order. A view is one
/// virtual cloud: its tariff, its region footprint, and how it bills
/// traffic.
///
/// Each heavy app's bandwidth series are regenerated once per call,
/// whatever the number of views, in VM index order. Each series is added
/// into its NEP site's aggregate and, for the [`TrafficGranularity::PerVm`]
/// views, billed on its own as soon as it is produced, so no per-VM
/// series outlives its turn.
pub fn table3_ratios(
    ds: &TraceDataset,
    dep: &Deployment,
    views: &[(&CloudTariff, &Deployment, TrafficGranularity)],
    n_heaviest: usize,
) -> Vec<VirtualCloudReport> {
    let interval = ds.config.bw_interval_min;
    let days = ds.config.days as f64;
    let heavy = ds.heaviest_apps(n_heaviest);
    let by_app = ds.vms_per_app();

    // Per view: NEP site → nearest cloud region.
    let region_of: Vec<Vec<usize>> = views
        .iter()
        .map(|(_, regions, _)| {
            dep.sites
                .iter()
                .map(|s| regions.nearest_sites(s.geo(), 1)[0].0)
                .collect()
        })
        .collect();

    // Per view, per network model: the per-app ratios.
    let mut ratios = vec![<[Vec<f64>; 3]>::default(); views.len()];
    let mut net_shares = Vec::new();

    for app in &heavy {
        let idxs = &by_app[app];
        let specs: Vec<(u32, u32, u32)> = idxs
            .iter()
            .map(|&i| {
                let r = &ds.records[i];
                (r.cores, r.mem_gb, r.disk_gb)
            })
            .collect();

        // Regenerate each VM once: per-site sums for NEP and the merged
        // views, per-VM bills for the per-VM views.
        let mut site_bw: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        let mut per_vm_net = vec![[0.0; 3]; views.len()];
        for &i in idxs {
            let bw: Vec<f64> = ds.bw_series(i).iter().map(|&v| v as f64).collect();
            for ((cloud, _, granularity), net) in views.iter().zip(&mut per_vm_net) {
                if *granularity == TrafficGranularity::PerVm {
                    for (model, n) in NetworkModel::ALL.into_iter().zip(net) {
                        *n += cloud_net_month(cloud, model, &bw, interval, days);
                    }
                }
            }
            add_series(&mut site_bw, ds.records[i].site.0, &bw);
        }

        // --- NEP side -------------------------------------------------
        let (sites, per_site): (Vec<u32>, Vec<_>) = site_bw
            .into_iter()
            .map(|(site, bw)| {
                let city = dep.sites[site as usize].city.name.to_string();
                (site, (city, operator_of(site), bw))
            })
            .unzip();
        let (nep_hw, nep_net) = nep_app_bill(&specs, &per_site, interval);
        let nep_total = nep_hw + nep_net;
        if nep_total <= 0.0 {
            continue;
        }
        net_shares.push(nep_net / nep_total);

        // --- Cloud side -------------------------------------------------
        for (v, (cloud, _, granularity)) in views.iter().enumerate() {
            let cloud_hw: f64 = specs
                .iter()
                .map(|&(c, m, d)| cloud.hardware_month(c, m, d))
                .sum();
            let cloud_net = match granularity {
                TrafficGranularity::PerVm => per_vm_net[v],
                TrafficGranularity::MergedPerRegion => {
                    let mut region_bw: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
                    for (&site, (_, _, bw)) in sites.iter().zip(&per_site) {
                        add_series(&mut region_bw, region_of[v][site as usize], bw);
                    }
                    NetworkModel::ALL.map(|model| {
                        region_bw.values().fold(0.0, |net, bw| {
                            net + cloud_net_month(cloud, model, bw, interval, days)
                        })
                    })
                }
            };
            for (r, net) in ratios[v].iter_mut().zip(cloud_net) {
                r.push((cloud_hw + net) / nep_total);
            }
        }
    }

    let nep_network_share_mean = edgescope_analysis::stats::mean(&net_shares);
    views
        .iter()
        .zip(ratios)
        .map(|((cloud, ..), by_model)| VirtualCloudReport {
            cloud_name: cloud.name,
            by_model: NetworkModel::ALL
                .into_iter()
                .zip(by_model)
                .map(|(m, raw)| (m, CostRatios::of(&raw), raw))
                .collect(),
            nep_network_share_mean,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgescope_trace::series::TraceConfig;

    fn dataset() -> (TraceDataset, Deployment) {
        let cfg = TraceConfig {
            days: 10,
            cpu_interval_min: 30,
            bw_interval_min: 15,
            start_weekday: 0,
        };
        TraceDataset::generate_nep(11, 60, 60, cfg, 1)
    }

    /// The report of one merged-per-region view.
    fn merged(
        ds: &TraceDataset,
        dep: &Deployment,
        cloud: &CloudTariff,
        regions: &Deployment,
        n: usize,
    ) -> VirtualCloudReport {
        let views = [(cloud, regions, TrafficGranularity::MergedPerRegion)];
        table3_ratios(ds, dep, &views, n).remove(0)
    }

    #[test]
    fn table3_shape_and_ordering() {
        let (ds, dep) = dataset();
        let ali = Deployment::alicloud();
        let rep = merged(&ds, &dep, &CloudTariff::alicloud(), &ali, 20);
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
        let rep = merged(&ds, &dep, &CloudTariff::alicloud(), &ali, 20);
        let mean_of = |m: NetworkModel| {
            rep.by_model
                .iter()
                .find(|(mm, ..)| *mm == m)
                .unwrap()
                .1
                .mean
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
        let rep = merged(&ds, &dep, &CloudTariff::alicloud(), &ali, 20);
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
        let tariff = CloudTariff::alicloud();
        let views = [
            (&tariff, &ali, TrafficGranularity::MergedPerRegion),
            (&tariff, &ali, TrafficGranularity::PerVm),
        ];
        let [merged, per_vm] = <[_; 2]>::try_from(table3_ratios(&ds, &dep, &views, 15)).unwrap();
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

    /// Several views in one call bill exactly as one call per view: the
    /// shared regeneration pass changes no summation order.
    #[test]
    fn one_call_over_views_equals_one_call_per_view() {
        let (ds, dep) = dataset();
        let (ali, hw) = (Deployment::alicloud(), Deployment::huawei_cloud());
        let (ali_t, hw_t) = (CloudTariff::alicloud(), CloudTariff::huawei());
        let views = [
            (&ali_t, &ali, TrafficGranularity::MergedPerRegion),
            (&hw_t, &hw, TrafficGranularity::PerVm),
            (&hw_t, &hw, TrafficGranularity::MergedPerRegion),
        ];
        let together = table3_ratios(&ds, &dep, &views, 12);
        for (view, report) in views.iter().zip(&together) {
            assert_eq!(&table3_ratios(&ds, &dep, &[*view], 12)[0], report);
        }
    }

    #[test]
    fn huawei_report_also_works() {
        let (ds, dep) = dataset();
        let hw = Deployment::huawei_cloud();
        let rep = merged(&ds, &dep, &CloudTariff::huawei(), &hw, 10);
        assert_eq!(rep.cloud_name, "Huawei Cloud (vCloud-2)");
        for (_, r, _) in &rep.by_model {
            assert!(r.mean.is_finite() && r.mean > 0.0);
        }
    }
}
