//! Generate, inspect, and validate EdgeScope trace artefacts — the
//! release tooling a public dataset (the paper promises one) would ship
//! with.
//!
//! ```text
//! trace-tool generate --flavor nep|azure --apps N --days D --seed S --out DIR
//! trace-tool inspect  DIR        # summarize vm_table.tsv + series.bin
//! trace-tool validate DIR        # parse + invariant checks; exit 1 on failure
//! ```
//!
//! Flags take `--flag value` or `--flag=value`. A usage error exits 2; an
//! artefact that cannot be read, parsed or validated exits 1.

use edgescope_analysis::stats::{mean, select};
use edgescope_obs::cli::{self, Spec, UsageError};
use edgescope_trace::dataset::{TraceDataset, VmSeries};
use edgescope_trace::flavor::Flavor;
use edgescope_trace::io::{series_from_bytes, series_to_bytes, vm_table_from_tsv, vm_table_to_tsv};
use edgescope_trace::per_vm;
use edgescope_trace::population::VmRecord;
use edgescope_trace::series::TraceConfig;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:\n  trace-tool generate [--flavor nep|azure] [--apps N] [--days D] [--seed S] [--out DIR]\n  trace-tool inspect DIR\n  trace-tool validate DIR";

const GENERATE_SPEC: Spec = Spec {
    values: &["--flavor", "--apps", "--days", "--seed", "--out"],
    switches: &[],
    positionals: 0,
};
const DIR_SPEC: Spec = Spec {
    values: &[],
    switches: &[],
    positionals: 1,
};

fn flavor(s: &str) -> Result<Flavor, String> {
    Flavor::parse(s)
        .ok_or_else(|| format!("expected {}", Flavor::ALL.map(Flavor::name).join(" or ")))
}

fn generate(argv: impl Iterator<Item = String>) -> Result<(), Box<dyn Error>> {
    let a = cli::scan(&GENERATE_SPEC, argv)?;
    let flavor = a.get("--flavor", flavor)?.unwrap_or(Flavor::EdgeNep);
    let apps = a.get("--apps", cli::positive)?.unwrap_or(60);
    let days = a.get("--days", cli::positive)?.unwrap_or(14);
    let seed = a.value("--seed")?.unwrap_or(42);
    let out = Path::new(a.raw("--out").unwrap_or("trace_out"));
    let cfg = TraceConfig {
        days,
        cpu_interval_min: 5,
        bw_interval_min: 15,
        start_weekday: 0,
    };
    let ds = match flavor {
        Flavor::EdgeNep => TraceDataset::generate_nep(seed, 50, apps, cfg, 1).0,
        Flavor::CloudAzure => TraceDataset::generate_azure(seed, 10, apps, cfg, 1),
    };
    std::fs::create_dir_all(out)?;
    let tsv = vm_table_to_tsv(&ds.records);
    std::fs::write(out.join("vm_table.tsv"), &tsv)?;
    let series: Vec<_> = (0..ds.n_vms()).map(|i| ds.vm_series(i)).collect();
    let bin = series_to_bytes(&series);
    std::fs::write(out.join("series.bin"), &bin)?;
    println!(
        "generated {} trace: {} VMs, {days} days -> {} ({} KB tsv, {} MB series)",
        flavor.name(),
        ds.n_vms(),
        out.display(),
        tsv.len() / 1024,
        bin.len() / (1024 * 1024)
    );
    Ok(())
}

/// A trace directory and the artefacts read from it.
type Loaded = (PathBuf, Vec<VmRecord>, Vec<VmSeries>);

/// The artefacts in the one directory argument of `inspect` and `validate`.
fn load(argv: impl Iterator<Item = String>) -> Result<Loaded, Box<dyn Error>> {
    let a = cli::scan(&DIR_SPEC, argv)?;
    let dir = PathBuf::from(
        a.positionals()
            .first()
            .ok_or_else(|| UsageError("missing DIR".into()))?,
    );
    let tsv = std::fs::read_to_string(dir.join("vm_table.tsv"))
        .map_err(|e| format!("vm_table.tsv: {e}"))?;
    let records = vm_table_from_tsv(&tsv)?;
    let raw = std::fs::read(dir.join("series.bin")).map_err(|e| format!("series.bin: {e}"))?;
    let series = series_from_bytes(&raw)?;
    Ok((dir, records, series))
}

fn inspect(argv: impl Iterator<Item = String>) -> Result<(), Box<dyn Error>> {
    let (dir, records, series) = load(argv)?;
    println!("{}: {} VMs", dir.display(), records.len());
    // A table with no rows has no per-VM medians to report.
    if !records.is_empty() {
        let median = |mut xs: Vec<f64>| -> f64 {
            let rank = xs.len() / 2;
            select(&mut xs, rank)
        };
        let cores: Vec<f64> = records.iter().map(|r| r.cores as f64).collect();
        let mems: Vec<f64> = records.iter().map(|r| r.mem_gb as f64).collect();
        println!(
            "  median vCPU {:.0}, median memory {:.0} GB",
            median(cores),
            median(mems)
        );
    }
    let mut apps: Vec<u32> = records.iter().map(|r| r.app.0).collect();
    apps.sort_unstable();
    apps.dedup();
    println!("  {} apps; categories:", apps.len());
    let mut by_cat: std::collections::BTreeMap<&str, usize> = Default::default();
    for r in &records {
        *by_cat.entry(r.category.label()).or_default() += 1;
    }
    for (cat, n) in by_cat {
        println!("    {cat:<20} {n}");
    }
    if let Some(s) = series.first() {
        println!(
            "  series: {} cpu samples, {} bw samples per VM",
            s.cpu_util_pct.len(),
            s.bw_mbps.len()
        );
    }
    let means: Vec<f64> = series
        .iter()
        .map(|s| per_vm::mean(&s.cpu_util_pct))
        .collect();
    let idle = means.iter().filter(|&&m| m < 10.0).count();
    println!(
        "  mean CPU {:.1}% across VMs; {} of {} under 10%",
        mean(&means),
        idle,
        means.len()
    );
    Ok(())
}

fn validate(argv: impl Iterator<Item = String>) -> Result<(), Box<dyn Error>> {
    let (_, records, series) = load(argv)?;
    let violations = edgescope_trace::validate::validate(&records, &series);
    if violations.is_empty() {
        println!("ok: {} VMs, all invariants hold", records.len());
        Ok(())
    } else {
        for v in &violations {
            eprintln!("violation: {v}");
        }
        Err(format!("{} invariant violations", violations.len()).into())
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let result = match argv.next().as_deref() {
        Some("generate") => generate(argv),
        Some("inspect") => inspect(argv),
        Some("validate") => validate(argv),
        Some(other) => Err(UsageError(format!("unknown subcommand {other:?}")).into()),
        None => Err(UsageError("missing subcommand".into()).into()),
    };
    cli::exit_code(result, USAGE)
}
