//! Assembled trace datasets with the accessors §4's analyses need.
//!
//! A [`TraceDataset`] bundles the VM table with each VM's folded CPU and
//! bandwidth statistics, and exposes the groupings the
//! paper's figures aggregate over: per-VM statistics (Fig. 10), per-app
//! VM groups (Figs. 9/13), and per-server / per-site resource roll-ups
//! (Fig. 11, computed exactly as the figure caption specifies: machine
//! CPU = core-weighted mean of its VMs' CPU, site CPU = mean over
//! machines, bandwidth = sums).
//!
//! Both series are folded as they are synthesized and then dropped. VM
//! `i`'s CPU series is a pure function of `(seed, i)`, so
//! [`TraceDataset::cpu_series`] regenerates it bit for bit for the few
//! consumers that read raw CPU samples (the prediction cohorts and
//! Fig. 13's zoom). Its bandwidth series is drawn after the CPU series
//! from the same stream, so the dataset keeps the 32-byte RNG state each
//! VM had after its CPU draws and [`TraceDataset::bw_series`] replays the
//! bandwidth alone, bit for bit, for §4.5's billing.

use crate::flavor::{Flavor, FlavorParams};
use crate::per_vm::{BwStats, CpuStats};
use crate::population::{generate_cloud, generate_nep, VmRecord};
use crate::series::{TraceConfig, VmProfile};
use edgescope_net::rng::{domains, entity_tag, log_normal, stream_rng};
use edgescope_obs as obs;
use edgescope_obs::pool::fan_out;
use edgescope_platform::deployment::Deployment;
use edgescope_platform::ids::{AppId, ServerId, SiteId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Per-VM time series.
#[derive(Debug, Clone, PartialEq)]
pub struct VmSeries {
    /// CPU utilization in percent, one sample per `cpu_interval_min`.
    pub cpu_util_pct: Vec<f32>,
    /// Public bandwidth in Mbps, one sample per `bw_interval_min`.
    pub bw_mbps: Vec<f32>,
}

/// A complete trace: VM table and folded CPU and bandwidth statistics,
/// aligned by index. Series are regenerated on demand
/// ([`TraceDataset::cpu_series`], [`TraceDataset::bw_series`],
/// [`TraceDataset::vm_series`]) from the seed, flavour parameters, app
/// table and per-VM post-CPU RNG states the dataset keeps.
#[derive(Debug, Clone)]
pub struct TraceDataset {
    /// Which platform this trace models.
    pub flavor: Flavor,
    /// Sampling configuration.
    pub config: TraceConfig,
    /// The VM table.
    pub records: Vec<VmRecord>,
    /// Per-VM CPU statistics, folded from each CPU series at synthesis.
    pub cpu_stats: Vec<CpuStats>,
    /// Per-VM bandwidth statistics, folded from each bandwidth series at
    /// synthesis.
    pub bw_stats: Vec<BwStats>,
    /// Each VM's RNG as it stood after its CPU draws: where its bandwidth
    /// series starts.
    bw_rng: Vec<StdRng>,
    seed: u64,
    params: FlavorParams,
    app_base: BTreeMap<AppId, (f64, f64)>,
}

/// Draw the per-app base utilization (percent) from the flavour's
/// idle/busy mixture.
fn draw_app_base_util(rng: &mut impl Rng, p: &FlavorParams) -> f64 {
    if rng.gen::<f64>() < p.idle_prob {
        log_normal(rng, p.idle_median_pct.ln(), p.idle_sigma)
    } else {
        log_normal(rng, p.busy_median_pct.ln(), p.busy_sigma)
    }
}

/// Draw the per-app within-app sigma (spread of its VMs' mean usage).
fn draw_within_sigma(rng: &mut impl Rng, p: &FlavorParams) -> f64 {
    log_normal(
        rng,
        p.within_app_sigma_median.ln(),
        p.within_app_sigma_spread,
    )
}

/// Per-app temporal identity: base utilization and within-app spread are
/// app-level draws (an app's VMs resemble each other). They come from a
/// single dedicated stream, drawn serially in record first-appearance
/// order, so the app table is independent of how the per-VM work is
/// split afterwards.
fn app_table(
    seed: u64,
    params: &FlavorParams,
    records: &[VmRecord],
) -> BTreeMap<AppId, (f64, f64)> {
    let mut app_rng = stream_rng(seed, entity_tag(domains::TRACE_APP, 0));
    let mut app_base: BTreeMap<AppId, (f64, f64)> = BTreeMap::new();
    for r in records {
        app_base.entry(r.app).or_insert_with(|| {
            (
                draw_app_base_util(&mut app_rng, params),
                draw_within_sigma(&mut app_rng, params),
            )
        });
    }
    app_base
}

/// VM `i`'s profile and the RNG positioned after its draw, from its own
/// `(seed, i)` stream: the CPU series comes next, then the bandwidth.
fn vm_profile_for(
    seed: u64,
    params: &FlavorParams,
    r: &VmRecord,
    (base, sigma): (f64, f64),
    i: usize,
) -> (StdRng, VmProfile) {
    let mut rng = stream_rng(seed, entity_tag(domains::TRACE_VM, i));
    // Mean-preserving within-app spread.
    let factor = log_normal(&mut rng, -sigma * sigma / 2.0, sigma);
    let mean_util = (base * factor).clamp(0.1, 95.0);
    let profile = VmProfile::draw(&mut rng, params, r.category, mean_util, r.bandwidth_mbps);
    (rng, profile)
}

/// One synthesized VM as a dataset keeps it: both series folded to their
/// statistics, plus the RNG state its bandwidth series started from.
struct FoldedVm {
    cpu: CpuStats,
    bw: BwStats,
    bw_rng: StdRng,
    cpu_samples: usize,
    bw_samples: usize,
}

impl FoldedVm {
    /// Record this VM in the `trace.*` counters.
    fn count(&self) {
        obs::counter_inc("trace.vms_generated");
        obs::counter_add("trace.cpu_samples", self.cpu_samples as u64);
        obs::counter_add("trace.bw_samples", self.bw_samples as u64);
    }
}

/// Synthesize VM `i` and fold both its series.
fn fold_vm(
    seed: u64,
    params: &FlavorParams,
    r: &VmRecord,
    base: (f64, f64),
    i: usize,
    config: &TraceConfig,
) -> FoldedVm {
    let (mut rng, profile) = vm_profile_for(seed, params, r, base, i);
    let cpu = profile.cpu_series(&mut rng, config);
    let bw_rng = rng.clone();
    let bw = profile.bw_series(&mut rng, config);
    FoldedVm {
        cpu: CpuStats::of(&cpu),
        bw: BwStats::of(&bw, config.bw_samples_per_week()),
        bw_rng,
        cpu_samples: cpu.len(),
        bw_samples: bw.len(),
    }
}

impl TraceDataset {
    /// Generate an NEP trace: builds a deployment of `n_sites`, places
    /// `n_apps` apps through the §2 policy, and synthesizes series over up
    /// to `jobs` worker threads. Returns the dataset together with the
    /// (now populated) deployment. The deployment, placement, and VM
    /// table are drawn serially, and each VM's series comes from its own
    /// RNG stream, so the dataset is byte-identical for every `jobs`
    /// value.
    pub fn generate_nep(
        seed: u64,
        n_sites: usize,
        n_apps: usize,
        config: TraceConfig,
        jobs: usize,
    ) -> (Self, Deployment) {
        let params = FlavorParams::edge_nep();
        let mut rng = StdRng::seed_from_u64(seed);
        // Workload studies use smaller sites (10–40 servers) so the placed
        // population reaches realistic sales ratios; the national latency
        // deployment keeps the paper's 10–180 range.
        let mut deployment = Deployment::nep_custom(&mut rng, n_sites, 10, 40);
        let records = generate_nep(&mut rng, &params, &mut deployment, n_apps);
        (
            Self::synthesize(seed, params, records, config, jobs),
            deployment,
        )
    }

    /// [`TraceDataset::generate_nep`] under its former name, kept while
    /// `perfbench/src/main.rs` calls it.
    #[doc(hidden)]
    pub fn generate_nep_jobs(
        seed: u64,
        n_sites: usize,
        n_apps: usize,
        config: TraceConfig,
        jobs: usize,
    ) -> (Self, Deployment) {
        Self::generate_nep(seed, n_sites, n_apps, config, jobs)
    }

    /// Generate an Azure-like cloud trace over `n_regions` regions with
    /// series synthesis fanned out over up to `jobs` worker threads (see
    /// [`TraceDataset::generate_nep`] for the determinism contract).
    pub fn generate_azure(
        seed: u64,
        n_regions: u32,
        n_apps: usize,
        config: TraceConfig,
        jobs: usize,
    ) -> Self {
        let params = FlavorParams::cloud_azure();
        let mut rng = StdRng::seed_from_u64(seed);
        let records = generate_cloud(&mut rng, &params, n_regions, n_apps);
        Self::synthesize(seed, params, records, config, jobs)
    }

    /// [`TraceDataset::generate_azure`] under its former name, kept while
    /// `perfbench/src/main.rs` calls it.
    #[doc(hidden)]
    pub fn generate_azure_jobs(
        seed: u64,
        n_regions: u32,
        n_apps: usize,
        config: TraceConfig,
        jobs: usize,
    ) -> Self {
        Self::generate_azure(seed, n_regions, n_apps, config, jobs)
    }

    fn synthesize(
        seed: u64,
        params: FlavorParams,
        records: Vec<VmRecord>,
        config: TraceConfig,
        jobs: usize,
    ) -> Self {
        let app_base = app_table(seed, &params, &records);
        // Each VM draws from its own stream, so VM `i`'s series is a
        // function of `(seed, i)` alone and the fan-out can run at any
        // worker count. Its series are folded and dropped inside the
        // worker: only one VM's series per worker are ever alive.
        let folded = fan_out(records.len(), jobs, |i| {
            let r = &records[i];
            fold_vm(seed, &params, r, app_base[&r.app], i, &config)
        });
        // Counted here rather than inside the fan-out: a per-VM metric
        // scope would hold one counter map per VM until the replay.
        folded.iter().for_each(FoldedVm::count);
        let (cpu_stats, (bw_stats, bw_rng)) = folded
            .into_iter()
            .map(|v| (v.cpu, (v.bw, v.bw_rng)))
            .unzip();
        TraceDataset {
            flavor: params.flavor,
            config,
            records,
            cpu_stats,
            bw_stats,
            bw_rng,
            seed,
            params,
            app_base,
        }
    }

    /// VM `i`'s profile, redrawn from its own stream.
    fn profile(&self, i: usize) -> (StdRng, VmProfile) {
        let r = &self.records[i];
        vm_profile_for(self.seed, &self.params, r, self.app_base[&r.app], i)
    }

    /// VM `i`'s CPU series, regenerated from the seed: bit-identical to
    /// the series its [`TraceDataset::cpu_stats`] row was folded from.
    /// Touches no `trace.*` counter.
    pub fn cpu_series(&self, i: usize) -> Vec<f32> {
        let (mut rng, profile) = self.profile(i);
        profile.cpu_series(&mut rng, &self.config)
    }

    /// VM `i`'s bandwidth series (Mbps), replayed from the RNG state its
    /// CPU draws left: bit-identical to the series its
    /// [`TraceDataset::bw_stats`] row was folded from, without redrawing
    /// the CPU series. Touches no `trace.*` counter.
    pub fn bw_series(&self, i: usize) -> Vec<f32> {
        let (_, profile) = self.profile(i);
        profile.bw_series(&mut self.bw_rng[i].clone(), &self.config)
    }

    /// VM `i`'s full series, both regenerated.
    pub fn vm_series(&self, i: usize) -> VmSeries {
        VmSeries {
            cpu_util_pct: self.cpu_series(i),
            bw_mbps: self.bw_series(i),
        }
    }

    /// Number of VMs.
    pub fn n_vms(&self) -> usize {
        self.records.len()
    }

    /// Mean CPU utilization per VM (percent).
    pub fn mean_cpu_per_vm(&self) -> Vec<f64> {
        self.cpu_stats.iter().map(|s| s.mean).collect()
    }

    /// 95th percentile of the CPU samples per VM — the paper's "P95 Max"
    /// curve of Fig. 10(a).
    pub fn p95_cpu_per_vm(&self) -> Vec<f64> {
        self.cpu_stats.iter().map(|s| s.p95).collect()
    }

    /// Across-time CPU coefficient of variation per VM (Fig. 10b).
    pub fn cpu_cv_per_vm(&self) -> Vec<f64> {
        self.cpu_stats.iter().map(|s| s.cv).collect()
    }

    /// VM indices per app, ordered by app id.
    pub fn vms_per_app(&self) -> BTreeMap<AppId, Vec<usize>> {
        let mut m: BTreeMap<AppId, Vec<usize>> = BTreeMap::new();
        for (i, r) in self.records.iter().enumerate() {
            m.entry(r.app).or_default().push(i);
        }
        m
    }

    /// VM indices per site.
    pub fn vms_per_site(&self) -> BTreeMap<SiteId, Vec<usize>> {
        let mut m: BTreeMap<SiteId, Vec<usize>> = BTreeMap::new();
        for (i, r) in self.records.iter().enumerate() {
            m.entry(r.site).or_default().push(i);
        }
        m
    }

    /// Fig. 11's machine metrics, keyed by `(site, server)`: each
    /// server's `(cpu, bw)`, the core-weighted mean CPU and the summed
    /// mean bandwidth of its VMs, both accumulated in record order.
    pub fn server_loads(&self) -> BTreeMap<(SiteId, ServerId), (f64, f64)> {
        let mut acc: BTreeMap<(SiteId, ServerId), (f64, f64, f64)> = BTreeMap::new();
        for (i, r) in self.records.iter().enumerate() {
            let e = acc.entry((r.site, r.server)).or_insert((0.0, 0.0, 0.0));
            e.0 += self.cpu_stats[i].mean * r.cores as f64;
            e.1 += r.cores as f64;
            e.2 += self.bw_stats[i].mean;
        }
        acc.into_iter()
            .map(|(key, (wsum, cores, bw))| (key, (wsum / cores, bw)))
            .collect()
    }

    /// Fig. 11(b) site metric: site CPU = mean over its machines' weighted
    /// CPU. Returns `(site, value)` pairs.
    pub fn site_cpu(&self) -> Vec<(SiteId, f64)> {
        let mut per_site: BTreeMap<SiteId, (f64, usize)> = BTreeMap::new();
        for ((site, _), (cpu, _)) in self.server_loads() {
            let e = per_site.entry(site).or_insert((0.0, 0));
            e.0 += cpu;
            e.1 += 1;
        }
        per_site
            .into_iter()
            .map(|(s, (sum, n))| (s, sum / n as f64))
            .collect()
    }

    /// Fig. 11(d) site bandwidth: summed over all VMs in the site.
    pub fn site_bw(&self) -> Vec<(SiteId, f64)> {
        self.vms_per_site()
            .into_iter()
            .map(|(s, idxs)| (s, self.total_bw(&idxs)))
            .collect()
    }

    /// Summed mean bandwidth of the VMs `idxs`, in their order.
    fn total_bw(&self, idxs: &[usize]) -> f64 {
        idxs.iter().map(|&i| self.bw_stats[i].mean).sum()
    }

    /// Per-app cross-VM usage gap: P95/P5 of the per-VM mean CPU of each
    /// app with at least `min_vms` VMs (Fig. 13a).
    pub fn app_usage_gaps(&self, min_vms: usize) -> Vec<f64> {
        let means = self.mean_cpu_per_vm();
        self.vms_per_app()
            .values()
            .filter(|idxs| idxs.len() >= min_vms)
            .map(|idxs| {
                let xs: Vec<f64> = idxs.iter().map(|&i| means[i]).collect();
                edgescope_analysis::imbalance::gap_p95_p5(&xs, 0.1)
            })
            .collect()
    }

    /// Total traffic volume per app (sum of mean bandwidth across VMs) —
    /// used to pick §4.5's "50 heaviest apps".
    pub fn heaviest_apps(&self, n: usize) -> Vec<AppId> {
        let mut totals: Vec<(AppId, f64)> = self
            .vms_per_app()
            .into_iter()
            .map(|(a, idxs)| (a, self.total_bw(&idxs)))
            .collect();
        // NaN totals are demoted below every real volume: heaviest-first
        // under the raw IEEE total order would rank NaN above +inf and
        // hand a poisoned app a top-50 slot.
        let key = |v: f64| if v.is_nan() { f64::NEG_INFINITY } else { v };
        totals.sort_by(|a, b| key(b.1).total_cmp(&key(a.1)));
        totals.into_iter().take(n).map(|(a, _)| a).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> TraceConfig {
        TraceConfig {
            days: 7,
            cpu_interval_min: 10,
            bw_interval_min: 30,
            start_weekday: 0,
        }
    }

    #[test]
    fn nep_dataset_shape() {
        let (ds, dep) = TraceDataset::generate_nep(1, 40, 40, small_cfg(), 1);
        assert!(ds.n_vms() > 100, "{} VMs", ds.n_vms());
        assert_eq!(ds.records.len(), ds.cpu_stats.len());
        assert_eq!(ds.records.len(), ds.bw_stats.len());
        assert_eq!(dep.n_sites(), 40);
        for i in 0..ds.n_vms() {
            let s = ds.vm_series(i);
            assert_eq!(s.cpu_util_pct.len(), ds.config.cpu_samples());
            assert_eq!(s.bw_mbps.len(), ds.config.bw_samples());
        }
    }

    #[test]
    fn azure_dataset_shape() {
        let ds = TraceDataset::generate_azure(2, 10, 60, small_cfg(), 1);
        assert!(ds.n_vms() > 100);
        assert_eq!(ds.flavor, Flavor::CloudAzure);
    }

    #[test]
    fn per_vm_stats_consistent() {
        let (ds, _) = TraceDataset::generate_nep(3, 30, 30, small_cfg(), 1);
        let means = ds.mean_cpu_per_vm();
        let p95s = ds.p95_cpu_per_vm();
        let cvs = ds.cpu_cv_per_vm();
        assert_eq!(means.len(), ds.n_vms());
        for i in 0..ds.n_vms() {
            assert!(means[i] >= 0.0 && means[i] <= 100.0);
            assert!(
                p95s[i] + 1e-9 >= means[i] * 0.5,
                "p95 can't sit far below mean"
            );
            assert!(cvs[i] >= 0.0);
        }
    }

    #[test]
    fn groupings_partition_vms() {
        let (ds, _) = TraceDataset::generate_nep(4, 30, 30, small_cfg(), 1);
        let by_app: usize = ds.vms_per_app().values().map(|v| v.len()).sum();
        let by_site: usize = ds.vms_per_site().values().map(|v| v.len()).sum();
        assert_eq!(by_app, ds.n_vms());
        assert_eq!(by_site, ds.n_vms());
    }

    #[test]
    fn heaviest_apps_sorted_by_traffic() {
        let (ds, _) = TraceDataset::generate_nep(6, 30, 40, small_cfg(), 1);
        let heavy = ds.heaviest_apps(5);
        assert_eq!(heavy.len(), 5);
        let totals: BTreeMap<AppId, f64> = ds
            .vms_per_app()
            .into_iter()
            .map(|(a, idxs)| (a, idxs.iter().map(|&i| ds.bw_stats[i].mean).sum()))
            .collect();
        for w in heavy.windows(2) {
            assert!(totals[&w[0]] >= totals[&w[1]]);
        }
    }

    #[test]
    fn deterministic_datasets() {
        let (a, _) = TraceDataset::generate_nep(9, 20, 10, small_cfg(), 1);
        let (b, _) = TraceDataset::generate_nep(9, 20, 10, small_cfg(), 1);
        assert_eq!(a.records, b.records);
        assert_eq!(a.cpu_stats, b.cpu_stats);
        assert_eq!(a.bw_stats, b.bw_stats);
        assert_eq!(a.vm_series(0), b.vm_series(0));
    }

    #[test]
    fn worker_count_never_changes_datasets_or_metrics() {
        let run_nep =
            |jobs: usize| obs::scoped(|| TraceDataset::generate_nep(10, 20, 10, small_cfg(), jobs));
        let ((serial, _), serial_metrics) = run_nep(1);
        for jobs in [2, 4] {
            let ((parallel, _), parallel_metrics) = run_nep(jobs);
            assert_eq!(serial.records, parallel.records, "records at jobs {jobs}");
            assert_eq!(
                serial.cpu_stats, parallel.cpu_stats,
                "CPU stats at jobs {jobs}"
            );
            assert_eq!(
                serial.bw_stats, parallel.bw_stats,
                "bandwidth stats at jobs {jobs}"
            );
            assert_eq!(
                serial.bw_rng, parallel.bw_rng,
                "bandwidth RNG states at jobs {jobs}"
            );
            assert_eq!(serial_metrics, parallel_metrics, "metrics at jobs {jobs}");
        }
        let az1 = TraceDataset::generate_azure(11, 5, 20, small_cfg(), 1);
        let az4 = TraceDataset::generate_azure(11, 5, 20, small_cfg(), 4);
        assert_eq!(az1.records, az4.records);
        assert_eq!(az1.cpu_stats, az4.cpu_stats);
        assert_eq!(az1.bw_stats, az4.bw_stats);
        assert_eq!(az1.bw_rng, az4.bw_rng);
    }
}
