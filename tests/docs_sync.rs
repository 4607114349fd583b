//! Docs-sync gates: the hand-written tables in EXPERIMENTS.md and
//! README.md must track the code they describe, or `reproduce --only`
//! users get steered to names that do not exist (and new experiments
//! silently skip documentation).

use edgescope::experiments::{registry, registry_for};
use edgescope::Scale;

fn read_doc(name: &str) -> String {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

#[test]
fn artefact_map_covers_every_registry_name() {
    // Every registry name must have a row in the EXPERIMENTS.md artefact
    // map (the `| `name` | ... |` table). Adding an experiment without
    // documenting it fails here.
    let md = read_doc("EXPERIMENTS.md");
    for spec in registry() {
        let cell = format!("| `{}` |", spec.name);
        assert!(
            md.contains(&cell),
            "EXPERIMENTS.md artefact map has no row for `{}` — document the new experiment",
            spec.name
        );
    }
}

#[test]
fn scenario_catalogue_covers_every_dynamic_experiment() {
    // Every `dyn_*` registry entry must have a catalogue row in
    // SCENARIOS.md (`| `name` | ... |`) — the same honesty gate as the
    // artefact map, scoped to the dynamic scenarios: adding a scenario
    // without cataloguing its events, streams and artefacts fails here.
    let md = read_doc("SCENARIOS.md");
    let dyn_specs: Vec<_> = registry()
        .into_iter()
        .filter(|s| s.name.starts_with("dyn_"))
        .collect();
    assert!(
        dyn_specs.len() >= 4,
        "the registry must keep its dynamic scenarios (found {})",
        dyn_specs.len()
    );
    for spec in dyn_specs {
        let cell = format!("| `{}` |", spec.name);
        assert!(
            md.contains(&cell),
            "SCENARIOS.md catalogue has no row for `{}` — catalogue the new scenario \
             (event timeline, affected entities, RNG streams, metrics, artefacts)",
            spec.name
        );
    }
    // The catalogue documents the engine's stream scheme, not just names.
    for needle in ["ENGINE_WORLD", "ENGINE_STEP", "ENGINE_PROBE", "EVENT"] {
        assert!(
            md.contains(needle),
            "SCENARIOS.md must document the `{needle}` RNG stream domain"
        );
    }
}

#[test]
fn scale_tiers_are_documented() {
    // Every parseable tier name appears in the scale-tier tables of both
    // EXPERIMENTS.md and README.md.
    for doc in ["EXPERIMENTS.md", "README.md"] {
        let md = read_doc(doc);
        for name in Scale::ALL.map(Scale::name) {
            assert!(
                md.contains(&format!("`{name}`")),
                "{doc} does not document the `{name}` scale tier"
            );
        }
    }
}

#[test]
fn metro_registry_is_a_subset_of_the_full_registry() {
    // `registry_for` may only narrow the registry, never invent specs —
    // otherwise the artefact-map gate above has a blind spot.
    let all: Vec<&str> = registry().iter().map(|s| s.name).collect();
    for scale in Scale::ALL {
        for spec in registry_for(scale) {
            assert!(
                all.contains(&spec.name),
                "{:?} not in registry()",
                spec.name
            );
        }
    }
}
