//! `trace-tool` run end to end: `generate`'s `--flavor` values, and
//! `inspect` on a trace with no VMs.

use edgescope_trace::io::{series_to_bytes, vm_table_to_tsv};
use std::process::Command;

fn trace_tool(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_trace-tool"))
        .args(args)
        .output()
        .expect("trace-tool starts");
    let text = |b: Vec<u8>| String::from_utf8(b).expect("utf-8 output");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

#[test]
fn every_flavor_generates_under_its_name_and_others_are_rejected() {
    let dir = std::env::temp_dir().join(format!("edgescope-trace-tool-{}", std::process::id()));
    for name in ["nep", "azure"] {
        let out = dir.join(name);
        let out = out.to_str().unwrap();
        let (code, stdout, stderr) = trace_tool(&[
            "generate", "--flavor", name, "--apps", "2", "--days", "1", "--out", out,
        ]);
        assert_eq!(code, Some(0), "{stderr}");
        let want = format!("generated {name} trace: ");
        assert!(stdout.starts_with(&want), "{stdout}");
        assert!(stdout.contains(&format!(" days -> {out} (")), "{stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
    let (code, stdout, stderr) = trace_tool(&["generate", "--flavor", "NEP"]);
    assert_eq!(code, Some(2));
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("expected nep or azure"), "{stderr}");
}

#[test]
fn inspect_reports_a_trace_without_vms() {
    let dir = std::env::temp_dir().join(format!("edgescope-trace-empty-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // A header-only VM table and a series file that holds zero series.
    std::fs::write(dir.join("vm_table.tsv"), vm_table_to_tsv(&[])).unwrap();
    std::fs::write(dir.join("series.bin"), series_to_bytes(&[])).unwrap();
    let (code, stdout, stderr) = trace_tool(&["inspect", dir.to_str().unwrap()]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains(": 0 VMs\n"), "{stdout}");
    assert!(!stdout.contains("median"), "{stdout}");
    assert!(
        stdout.contains("  mean CPU 0.0% across VMs; 0 of 0 under 10%\n"),
        "{stdout}"
    );
}
