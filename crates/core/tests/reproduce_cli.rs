//! The `reproduce` binary run end to end on one cheap experiment.

use std::process::Command;

/// The status banner names the tier as `EDGESCOPE_SCALE` and the bench
/// documents spell it (`quick`), not by its Rust variant (`Quick`).
#[test]
fn the_banner_names_the_tier_by_its_canonical_name() {
    let out_dir =
        std::env::temp_dir().join(format!("edgescope-reproduce-banner-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["--only", "table1", "--jobs", "1", "--log", "off"])
        .arg(&out_dir)
        .env("EDGESCOPE_SCALE", "quick")
        .env("EDGESCOPE_SEED", "42")
        .output()
        .expect("reproduce starts");
    let _ = std::fs::remove_dir_all(&out_dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let banner = format!(
        "edgescope reproduce: scale quick, seed 42, 1 experiment(s), 1 job(s), output {out_dir:?}\n"
    );
    assert!(stderr.starts_with(&banner), "{stderr}");
}
