//! `trace-tool generate`'s `--flavor` values, run end to end.

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
