//! The golden artefact manifest: one line per artefact a quick-scale,
//! seed-42 `reproduce` run writes — each report's stdout render, every
//! CSV and `metrics.json` — with its FNV-64 and the experiment that
//! wrote it. A change that moves any byte of any artefact fails here and
//! names each moved file with its experiment and the study stage it
//! reads, so a draw-sequence change shows exactly what it touched.
//!
//! The manifest is `tests/golden/quick_seed42.manifest`. There is no
//! switch to regenerate it: a deliberate change pastes the observed
//! manifest this test prints on a mismatch and says why in CHANGES.md.

use edgescope::executor;
use edgescope::experiments::{registry, Needs};
use edgescope::obs::log::LogFormat;
use edgescope::{Scale, Scenario};

const MANIFEST: &str = include_str!("golden/quick_seed42.manifest");

const HEADER: &str = "# file\tfnv64\texperiment — reproduce at quick scale, world seed 42\n";

/// FNV-64 of a byte string (the hash every golden pin in the repo uses).
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The study stages an experiment reads, as `timings.csv` names them.
fn stages(needs: Needs) -> String {
    let named = [
        (needs.latency, "study:latency"),
        (
            needs.workload || needs.prediction || needs.streaming,
            "study:workload",
        ),
        (needs.prediction, "study:prediction"),
        (needs.streaming, "study:streaming"),
    ];
    let list: Vec<&str> = named
        .iter()
        .filter(|(on, _)| *on)
        .map(|(_, s)| *s)
        .collect();
    if list.is_empty() {
        "no study".into()
    } else {
        list.join("+")
    }
}

/// `(file, fnv64, experiment)` per artefact, in the order `reproduce`
/// writes them: per report its stdout render (`<id>.stdout`) then its
/// CSVs, and `metrics.json` last.
fn observed() -> Vec<(String, String, String)> {
    let exec = executor::run(
        &Scenario::new(Scale::Quick, 42),
        registry(),
        2,
        LogFormat::Off,
    );
    let mut rows = Vec::new();
    for r in &exec.reports {
        let render = format!("{}\n", r.render());
        rows.push((
            format!("{}.stdout", r.id),
            fnv64(render.as_bytes()),
            r.id.to_string(),
        ));
        for (name, csv) in &r.csv {
            rows.push((
                format!("{}_{name}.csv", r.id),
                fnv64(csv.as_bytes()),
                r.id.to_string(),
            ));
        }
    }
    rows.push((
        "metrics.json".into(),
        fnv64(exec.metrics_json().as_bytes()),
        "campaign".into(),
    ));
    rows.into_iter()
        .map(|(f, h, e)| (f, format!("{h:016x}"), e))
        .collect()
}

fn parse(manifest: &str) -> Vec<(String, String, String)> {
    manifest
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            assert_eq!(
                f.len(),
                3,
                "manifest line {l:?} needs file, fnv64, experiment"
            );
            (f[0].to_string(), f[1].to_string(), f[2].to_string())
        })
        .collect()
}

#[test]
fn quick_artefacts_match_the_golden_manifest() {
    let want = parse(MANIFEST);
    let got = observed();
    let needs_of = |experiment: &str| {
        registry()
            .iter()
            .find(|s| s.name == experiment)
            .map_or_else(|| "every stage".to_string(), |s| stages(s.needs))
    };
    let mut diffs = Vec::new();
    for (file, hash, experiment) in &got {
        match want.iter().find(|w| &w.0 == file) {
            Some(w) if &w.1 == hash => {}
            Some(_) => diffs.push(format!(
                "changed {file} ({experiment}, {})",
                needs_of(experiment)
            )),
            None => diffs.push(format!(
                "new     {file} ({experiment}, {})",
                needs_of(experiment)
            )),
        }
    }
    for (file, _, experiment) in &want {
        if !got.iter().any(|g| &g.0 == file) {
            diffs.push(format!(
                "missing {file} ({experiment}, {})",
                needs_of(experiment)
            ));
        }
    }
    if diffs.is_empty() && got == want {
        return;
    }
    let mut text = String::from(HEADER);
    for (file, hash, experiment) in &got {
        text.push_str(&format!("{file}\t{hash}\t{experiment}\n"));
    }
    panic!(
        "{} artefact(s) differ from tests/golden/quick_seed42.manifest{}:\n  {}\n\nobserved manifest:\n{text}",
        diffs.len(),
        if diffs.is_empty() { " (same bytes, different order)" } else { "" },
        diffs.join("\n  ")
    );
}
