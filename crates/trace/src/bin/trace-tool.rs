//! Generate, inspect, and validate EdgeScope trace artefacts — the
//! release tooling a public dataset (the paper promises one) would ship
//! with.
//!
//! ```text
//! trace-tool generate --flavor nep|azure --apps N --days D --seed S --out DIR
//! trace-tool inspect  DIR        # summarize vm_table.tsv + series.bin
//! trace-tool validate DIR        # parse + invariant checks; exit 1 on failure
//! ```

use edgescope_analysis::stats::select;
use edgescope_trace::dataset::TraceDataset;
use edgescope_trace::io::{series_from_bytes, series_to_bytes, vm_table_from_tsv, vm_table_to_tsv};
use edgescope_trace::per_vm;
use edgescope_trace::series::TraceConfig;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  trace-tool generate [--flavor nep|azure] [--apps N] [--days D] [--seed S] [--out DIR]\n  trace-tool inspect DIR\n  trace-tool validate DIR"
    );
    ExitCode::from(2)
}

struct Flags {
    flavor: String,
    apps: usize,
    days: usize,
    seed: u64,
    out: PathBuf,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        flavor: "nep".into(),
        apps: 60,
        days: 14,
        seed: 42,
        out: PathBuf::from("trace_out"),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--flavor" => f.flavor = take()?.clone(),
            "--apps" => f.apps = take()?.parse().map_err(|e| format!("--apps: {e}"))?,
            "--days" => f.days = take()?.parse().map_err(|e| format!("--days: {e}"))?,
            "--seed" => f.seed = take()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--out" => f.out = PathBuf::from(take()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if f.flavor != "nep" && f.flavor != "azure" {
        return Err(format!("unknown flavor {}", f.flavor));
    }
    if f.apps == 0 || f.days == 0 {
        return Err("--apps and --days must be positive".into());
    }
    Ok(f)
}

fn generate(f: &Flags) -> Result<(), String> {
    let cfg = TraceConfig {
        days: f.days,
        cpu_interval_min: 5,
        bw_interval_min: 15,
        start_weekday: 0,
    };
    let ds = if f.flavor == "nep" {
        TraceDataset::generate_nep(f.seed, 50, f.apps, cfg, 1).0
    } else {
        TraceDataset::generate_azure(f.seed, 10, f.apps, cfg, 1)
    };
    std::fs::create_dir_all(&f.out).map_err(|e| e.to_string())?;
    let tsv = vm_table_to_tsv(&ds.records);
    std::fs::write(f.out.join("vm_table.tsv"), &tsv).map_err(|e| e.to_string())?;
    let series: Vec<_> = (0..ds.n_vms()).map(|i| ds.vm_series(i)).collect();
    let bin = series_to_bytes(&series);
    std::fs::write(f.out.join("series.bin"), &bin).map_err(|e| e.to_string())?;
    println!(
        "generated {} trace: {} VMs, {} days -> {} ({} KB tsv, {} MB series)",
        f.flavor,
        ds.n_vms(),
        f.days,
        f.out.display(),
        tsv.len() / 1024,
        bin.len() / (1024 * 1024)
    );
    Ok(())
}

fn load(dir: &Path) -> Result<(Vec<edgescope_trace::population::VmRecord>, Vec<edgescope_trace::dataset::VmSeries>), String> {
    let tsv = std::fs::read_to_string(dir.join("vm_table.tsv"))
        .map_err(|e| format!("vm_table.tsv: {e}"))?;
    let records = vm_table_from_tsv(&tsv).map_err(|e| e.to_string())?;
    let raw = std::fs::read(dir.join("series.bin")).map_err(|e| format!("series.bin: {e}"))?;
    let series = series_from_bytes(&raw).map_err(|e| e.to_string())?;
    Ok((records, series))
}

fn inspect(dir: &Path) -> Result<(), String> {
    let (records, series) = load(dir)?;
    println!("{}: {} VMs", dir.display(), records.len());
    let median = |mut xs: Vec<f64>| -> f64 {
        let rank = xs.len() / 2;
        select(&mut xs, rank)
    };
    let cores: Vec<f64> = records.iter().map(|r| r.cores as f64).collect();
    let mems: Vec<f64> = records.iter().map(|r| r.mem_gb as f64).collect();
    println!("  median vCPU {:.0}, median memory {:.0} GB", median(cores), median(mems));
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
    let means: Vec<f64> = series.iter().map(|s| per_vm::mean(&s.cpu_util_pct)).collect();
    let idle = means.iter().filter(|&&m| m < 10.0).count();
    println!(
        "  mean CPU {:.1}% across VMs; {} of {} under 10%",
        means.iter().sum::<f64>() / means.len().max(1) as f64,
        idle,
        means.len()
    );
    Ok(())
}

fn validate(dir: &Path) -> Result<(), String> {
    let (records, series) = load(dir)?;
    let violations = edgescope_trace::validate::validate(&records, &series);
    if violations.is_empty() {
        println!("ok: {} VMs, all invariants hold", records.len());
        Ok(())
    } else {
        for v in &violations {
            eprintln!("violation: {v}");
        }
        Err(format!("{} invariant violations", violations.len()))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { return usage() };
    let result = match cmd.as_str() {
        "generate" => parse_flags(&args[1..]).and_then(|f| generate(&f)),
        "inspect" => match args.get(1) {
            Some(dir) => inspect(Path::new(dir)),
            None => return usage(),
        },
        "validate" => match args.get(1) {
            Some(dir) => validate(Path::new(dir)),
            None => return usage(),
        },
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
