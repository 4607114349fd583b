//! Calibration bands: the generated world must stay inside the paper's
//! reported statistics (with tolerances for a reduced-scale run). These
//! are the repository's regression guards — if a refactor drifts the
//! simulators away from the paper, these fail first.

use edgescope::analysis::stats::median;
use edgescope::trace::dataset::TraceDataset;
use edgescope::trace::series::TraceConfig;

fn traces() -> (TraceDataset, TraceDataset) {
    // A mid-size population: big enough for stable shares, short series
    // to stay fast.
    let cfg = TraceConfig {
        days: 7,
        cpu_interval_min: 10,
        bw_interval_min: 30,
        start_weekday: 0,
    };
    let (nep, _) = TraceDataset::generate_nep(1007, 50, 220, cfg.clone(), 1);
    let azure = TraceDataset::generate_azure(1008, 10, 220, cfg, 1);
    (nep, azure)
}

#[test]
fn fig8_vm_size_bands() {
    let (nep, azure) = traces();
    let med = |xs: &[f64]| median(xs);
    let nep_cores: Vec<f64> = nep.records.iter().map(|r| r.cores as f64).collect();
    let nep_mem: Vec<f64> = nep.records.iter().map(|r| r.mem_gb as f64).collect();
    let az_cores: Vec<f64> = azure.records.iter().map(|r| r.cores as f64).collect();
    let az_mem: Vec<f64> = azure.records.iter().map(|r| r.mem_gb as f64).collect();
    assert_eq!(med(&nep_cores), 8.0, "paper: NEP median 8 cores");
    assert_eq!(med(&nep_mem), 32.0, "paper: NEP median 32 GB");
    assert_eq!(med(&az_cores), 1.0, "paper: Azure median 1 core");
    assert_eq!(med(&az_mem), 4.0, "paper: Azure median 4 GB");
    let az_small = az_cores.iter().filter(|&&c| c <= 4.0).count() as f64 / az_cores.len() as f64;
    assert!(
        (az_small - 0.90).abs() < 0.05,
        "paper: 90% of Azure VMs <=4 cores, got {az_small}"
    );
}

#[test]
fn fig10_utilization_bands() {
    let (nep, azure) = traces();
    let under10 = |ds: &TraceDataset| {
        let m = ds.mean_cpu_per_vm();
        m.iter().filter(|&&x| x < 10.0).count() as f64 / m.len() as f64
    };
    let nep_idle = under10(&nep);
    let az_idle = under10(&azure);
    assert!(
        (nep_idle - 0.74).abs() < 0.15,
        "paper: 74% NEP VMs under 10%, got {nep_idle:.2}"
    );
    assert!(
        (az_idle - 0.47).abs() < 0.15,
        "paper: 47% Azure VMs under 10%, got {az_idle:.2}"
    );
    assert!(nep_idle > az_idle + 0.1, "edge idler than cloud");

    let nep_cv = median(&nep.cpu_cv_per_vm());
    let az_cv = median(&azure.cpu_cv_per_vm());
    assert!(
        (nep_cv - 0.48).abs() < 0.20,
        "paper CV 0.48, got {nep_cv:.2}"
    );
    assert!((az_cv - 0.24).abs() < 0.12, "paper CV 0.24, got {az_cv:.2}");
    assert!(nep_cv > 1.5 * az_cv, "edge CV ~2x cloud");
}

#[test]
fn fig13_gap_bands() {
    let (nep, azure) = traces();
    let nep_gaps = nep.app_usage_gaps(8);
    let az_gaps = azure.app_usage_gaps(8);
    assert!(nep_gaps.len() >= 10 && az_gaps.len() >= 10);
    let over50 = |g: &[f64]| g.iter().filter(|&&x| x > 50.0).count() as f64 / g.len() as f64;
    let nep50 = over50(&nep_gaps);
    let az50 = over50(&az_gaps);
    assert!(
        (0.03..0.35).contains(&nep50),
        "paper: 16.3% of NEP apps >50x, got {nep50:.2}"
    );
    assert!(az50 < 0.05, "paper: 0.1% of Azure apps >50x, got {az50:.2}");
}

#[test]
fn fig2_latency_bands() {
    use edgescope::experiments::latency_study::LatencyStudy;
    use edgescope::net::access::AccessNetwork;
    use edgescope::{Scale, Scenario};
    let mut scenario = Scenario::new(Scale::Quick, 1003);
    // More users than quick default for stable medians.
    let mut rng = scenario.rng(0xca11);
    scenario.users = edgescope::probe::user::recruit(&mut rng, 120);
    let study = LatencyStudy::run(&scenario, 1);
    let s = study.campaign.fig2a(AccessNetwork::Wifi);
    let me = median(&s.nearest_edge);
    let mc = median(&s.nearest_cloud);
    let ma = median(&s.all_clouds);
    assert!(
        (me - 16.1).abs() < 4.0,
        "paper WiFi edge 16.1 ms, got {me:.1}"
    );
    assert!(
        (1.15..1.9).contains(&(mc / me)),
        "paper ratio 1.47x, got {:.2}",
        mc / me
    );
    assert!(
        (2.0..3.2).contains(&(ma / me)),
        "paper all-clouds 2.49x, got {:.2}",
        ma / me
    );
}

#[test]
fn seasonality_ordering() {
    use edgescope::analysis::seasonality::seasonal_strength;
    use edgescope::analysis::stats::mean;
    use edgescope::analysis::timeseries::resample_mean;
    let (nep, azure) = traces();
    let strength = |ds: &TraceDataset| {
        let per_hour = 60 / ds.config.cpu_interval_min;
        let vals: Vec<f64> = (0..ds.n_vms())
            .step_by((ds.n_vms() / 40).max(1))
            .map(|i| {
                let xs: Vec<f64> = ds.cpu_series(i).iter().map(|&v| v as f64).collect();
                seasonal_strength(&resample_mean(&xs, per_hour), 24)
            })
            .collect();
        mean(&vals)
    };
    let s_nep = strength(&nep);
    let s_az = strength(&azure);
    assert!(
        s_nep > s_az + 0.1,
        "paper 0.42 vs 0.26; got {s_nep:.2} vs {s_az:.2}"
    );
}
