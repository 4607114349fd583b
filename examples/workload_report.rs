//! Operator-side workload study (§4): generate NEP and Azure-like traces,
//! print VM sizes, utilization, imbalance, predictability, and export the
//! VM table + series artefacts.
//!
//! ```sh
//! cargo run --release --example workload_report [n_apps]
//! ```

use edgescope::analysis::cdf::Cdf;
use edgescope::analysis::stats::{mean, median};
use edgescope::obs::cli::{self, Spec};
use edgescope::predict::eval::evaluate_holt_winters;
use edgescope::predict::window::Aggregation;
use edgescope::trace::dataset::TraceDataset;
use edgescope::trace::io::{series_to_bytes, vm_table_to_tsv};
use edgescope::trace::series::TraceConfig;
use std::process::ExitCode;

const USAGE: &str = "usage: workload_report [n_apps]";
const SPEC: Spec = Spec {
    values: &[],
    switches: &[],
    positionals: 1,
};

fn main() -> ExitCode {
    let n_apps = match cli::scan(&SPEC, std::env::args().skip(1))
        .and_then(|a| a.positional(0, "n_apps", cli::positive))
    {
        Ok(n) => n.unwrap_or(80),
        Err(e) => return e.exit(USAGE),
    };
    let cfg = TraceConfig {
        days: 14,
        cpu_interval_min: 10,
        bw_interval_min: 30,
        start_weekday: 0,
    };
    let (nep, _dep) = TraceDataset::generate_nep(5, 40, n_apps, cfg.clone(), 1);
    let azure = TraceDataset::generate_azure(6, 10, n_apps, cfg, 1);
    println!(
        "traces: NEP {} VMs, Azure {} VMs over 14 days\n",
        nep.n_vms(),
        azure.n_vms()
    );

    for (name, ds) in [("NEP", &nep), ("Azure", &azure)] {
        let cores: Vec<f64> = ds.records.iter().map(|r| r.cores as f64).collect();
        let mems: Vec<f64> = ds.records.iter().map(|r| r.mem_gb as f64).collect();
        let means = ds.mean_cpu_per_vm();
        let cvs = ds.cpu_cv_per_vm();
        let idle = means.iter().filter(|&&m| m < 10.0).count() as f64 / means.len() as f64;
        println!(
            "{name}: median {:.0} cores / {:.0} GB; mean CPU {:.1}% ({:.0}% of VMs under 10%); CPU CV median {:.2}",
            median(&cores),
            median(&mems),
            mean(&means),
            100.0 * idle,
            median(&cvs),
        );
    }

    // Per-app imbalance (Fig. 13a).
    let gaps = nep.app_usage_gaps(8);
    if !gaps.is_empty() {
        let c = Cdf::from_slice(&gaps);
        println!(
            "\nNEP per-app P95/P5 usage gap: median {:.1}x, worst {:.0}x over {} apps",
            c.median(),
            c.max(),
            gaps.len()
        );
    }

    // Predictability (Fig. 14, Holt-Winters, mean target) on a small
    // stratified cohort.
    let cohort: Vec<Vec<f64>> = (0..nep.n_vms())
        .step_by((nep.n_vms() / 6).max(1))
        .map(|i| nep.cpu_series(i).iter().map(|&v| v as f64).collect())
        .collect();
    let sphh = nep.config.cpu_samples_per_half_hour();
    let rep = evaluate_holt_winters(&cohort, sphh, Aggregation::Mean, 1);
    if !rep.rmse_per_vm.is_empty() {
        println!(
            "NEP Holt-Winters next-half-hour RMSE (median): {:.1} pp",
            rep.median_rmse()
        );
    }

    // Export the trace artefacts (the formats a dataset release would use).
    let out = std::env::temp_dir().join("edgescope_workload_report");
    std::fs::create_dir_all(&out).expect("create output dir");
    let tsv = vm_table_to_tsv(&nep.records);
    std::fs::write(out.join("nep_vm_table.tsv"), &tsv).expect("write tsv");
    // Both series are regenerated on demand; the dataset keeps only their
    // folded statistics.
    let series: Vec<_> = (0..nep.n_vms()).map(|i| nep.vm_series(i)).collect();
    let bin = series_to_bytes(&series);
    std::fs::write(out.join("nep_series.bin"), &bin).expect("write series");
    println!(
        "\nexported {} VM rows ({} KB TSV) and series ({} MB binary) to {}",
        nep.n_vms(),
        tsv.len() / 1024,
        bin.len() / (1024 * 1024),
        out.display()
    );
    ExitCode::SUCCESS
}
