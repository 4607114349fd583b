//! One module per paper artefact, plus shared study state.
//!
//! The latency experiments (fig2/table2/fig3) share one crowd campaign
//! ([`latency_study::LatencyStudy`]); the workload experiments (fig8–
//! fig13, table3, sales) share one pair of traces
//! ([`workload_study::WorkloadStudy`]); the prediction experiments
//! (fig14, ext_predictors, ext_predictive) share one set of trained
//! forecasters ([`prediction_study::PredictionStudy`], built *from* the
//! workload study); the metro experiments (metro_latency,
//! metro_intersite, metro_workload) share one set of streaming sketch
//! aggregates ([`streaming_study::StreamingStudy`]). The [`registry`]
//! names every experiment (name == report id, e.g. `fig2a`) together
//! with the shared studies it [`Needs`]; the
//! [`crate::executor::run`] builds the needed studies once and fans
//! the runners out over worker threads. [`registry_for`] narrows the
//! registry by scale — at [`Scale::Metro`] only the streaming
//! experiments run, over the streaming study and the workload study it
//! sketches, which is what keeps the tier's memory bounded.

pub mod contention;
pub mod dyn_scenarios;
pub mod ext_billing;
pub mod ext_elastic;
pub mod ext_fragmentation;
pub mod ext_framesim;
pub mod ext_gslb;
pub mod ext_migration;
pub mod ext_predictive;
pub mod ext_predictors;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod latency_study;
pub mod metro;
pub mod prediction_study;
pub mod sales_rate;
pub mod streaming_study;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod workload_study;

use crate::report::ExperimentReport;
use crate::scenario::{Scale, Scenario};

/// The shared study state experiments draw on. The executor builds only
/// the studies the selected experiments [`Needs`] declare.
pub struct Studies {
    /// The crowd latency campaign (fig2/table2/fig3), if built.
    pub latency: Option<latency_study::LatencyStudy>,
    /// The NEP/Azure trace pair (fig8–fig13, table3, sales, ext_*), if
    /// built.
    pub workload: Option<workload_study::WorkloadStudy>,
    /// The trained forecasters (fig14, ext_predictors, ext_predictive),
    /// if built.
    pub prediction: Option<prediction_study::PredictionStudy>,
    /// The streaming sketch aggregates (metro_*), if built.
    pub streaming: Option<streaming_study::StreamingStudy>,
}

impl Studies {
    /// No studies built — enough for experiments with no [`Needs`].
    pub fn none() -> Self {
        Studies {
            latency: None,
            workload: None,
            prediction: None,
            streaming: None,
        }
    }

    /// The studies built, as the [`Needs`] they meet.
    pub fn built(&self) -> Needs {
        Needs {
            latency: self.latency.is_some(),
            workload: self.workload.is_some(),
            prediction: self.prediction.is_some(),
            streaming: self.streaming.is_some(),
        }
    }

    /// The latency study. Panics if the executor did not build it — a
    /// registry entry forgot to declare `Needs::latency`.
    pub fn latency(&self) -> &latency_study::LatencyStudy {
        self.latency
            .as_ref()
            .expect("latency study not built: spec must declare needs.latency")
    }

    /// The workload study. Panics if the executor did not build it — a
    /// registry entry forgot to declare `Needs::workload`.
    pub fn workload(&self) -> &workload_study::WorkloadStudy {
        self.workload
            .as_ref()
            .expect("workload study not built: spec must declare needs.workload")
    }

    /// The prediction study. Panics if the executor did not build it — a
    /// registry entry forgot to declare `Needs::prediction`.
    pub fn prediction(&self) -> &prediction_study::PredictionStudy {
        self.prediction
            .as_ref()
            .expect("prediction study not built: spec must declare needs.prediction")
    }

    /// The streaming study. Panics if the executor did not build it — a
    /// registry entry forgot to declare `Needs::streaming`.
    pub fn streaming(&self) -> &streaming_study::StreamingStudy {
        self.streaming
            .as_ref()
            .expect("streaming study not built: spec must declare needs.streaming")
    }
}

/// Which shared studies an experiment reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Needs {
    /// Reads the crowd latency campaign.
    pub latency: bool,
    /// Reads the NEP/Azure trace pair.
    pub workload: bool,
    /// Reads the trained forecasters (implies the executor also builds
    /// the workload study, the prediction study's input).
    pub prediction: bool,
    /// Reads the streaming sketch aggregates (implies the executor also
    /// builds the workload study, whose traces the streaming study
    /// sketches). The metro tier builds only these two studies.
    pub streaming: bool,
}

impl Needs {
    /// Field-wise OR of two requirement sets.
    pub fn union(self, other: Needs) -> Needs {
        Needs {
            latency: self.latency || other.latency,
            workload: self.workload || other.workload,
            prediction: self.prediction || other.prediction,
            streaming: self.streaming || other.streaming,
        }
    }

    /// The union of every spec's declared needs — what
    /// [`crate::executor::build_studies`] must build for a campaign over
    /// `specs`.
    pub fn of_specs(specs: &[ExperimentSpec]) -> Needs {
        specs
            .iter()
            .fold(Needs::default(), |acc, s| acc.union(s.needs))
    }
}

/// No shared study.
const NONE: Needs = Needs {
    latency: false,
    workload: false,
    prediction: false,
    streaming: false,
};
/// The latency campaign only.
const LAT: Needs = Needs {
    latency: true,
    ..NONE
};
/// The trace pair only.
const WL: Needs = Needs {
    workload: true,
    ..NONE
};
/// The trained forecasters only (the executor builds the trace pair
/// too, as the prediction study's input).
const PRED: Needs = Needs {
    prediction: true,
    ..NONE
};
/// The streaming sketch aggregates only (the executor builds the trace
/// pair too, as the streaming study's input).
const STREAM: Needs = Needs {
    streaming: true,
    ..NONE
};

/// The uniform runner signature every registry entry adapts to.
pub type Runner = fn(&Scenario, &Studies) -> ExperimentReport;

/// One named experiment: its registry name (== the report id it
/// produces), the shared studies it needs, and its runner.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentSpec {
    /// Registry name, matching the produced report id (`fig2a`,
    /// `table3`, …).
    pub name: &'static str,
    /// Shared studies the runner reads.
    pub needs: Needs,
    runner: Runner,
}

impl ExperimentSpec {
    /// A new spec. `name` must equal the id of the report `runner`
    /// returns.
    pub fn new(name: &'static str, needs: Needs, runner: Runner) -> Self {
        ExperimentSpec {
            name,
            needs,
            runner,
        }
    }

    /// Run the experiment. `studies` must hold whatever [`Needs`]
    /// declares.
    pub fn run(&self, scenario: &Scenario, studies: &Studies) -> ExperimentReport {
        (self.runner)(scenario, studies)
    }
}

/// Every experiment in paper order — 19 paper artefacts, 2 appendix
/// tables, 8 extensions, 3 contention/provider studies, 4 dynamic
/// scenarios, 3 metro-scale streaming analogues. Names match report
/// ids, so `reproduce --only fig2a,table3` selects by the ids printed
/// in reports and EXPERIMENTS.md; the `dyn_*` scenarios are
/// additionally catalogued in SCENARIOS.md.
pub fn registry() -> Vec<ExperimentSpec> {
    vec![
        ExperimentSpec::new("table1", NONE, |_, _| table1::run()),
        ExperimentSpec::new("fig2a", LAT, |_, st| fig2::run_a(st.latency())),
        ExperimentSpec::new("fig2b", LAT, |_, st| fig2::run_b(st.latency())),
        ExperimentSpec::new("table2", LAT, |_, st| table2::run(st.latency())),
        ExperimentSpec::new("fig3", LAT, |_, st| fig3::run(st.latency())),
        ExperimentSpec::new("fig4", NONE, |sc, _| fig4::run(sc)),
        ExperimentSpec::new("fig5", NONE, |sc, _| fig5::run(sc)),
        ExperimentSpec::new("fig6", NONE, |sc, _| fig6::run(sc)),
        ExperimentSpec::new("fig7", NONE, |sc, _| fig7::run(sc)),
        ExperimentSpec::new("table6", NONE, |sc, _| table6::run(sc)),
        ExperimentSpec::new("fig8", WL, |_, st| fig8::run(st.workload())),
        ExperimentSpec::new("fig9", WL, |_, st| fig9::run(st.workload())),
        ExperimentSpec::new("sales", WL, |_, st| sales_rate::run(st.workload())),
        ExperimentSpec::new("fig10", WL, |_, st| fig10::run(st.workload())),
        ExperimentSpec::new("fig11", WL, |_, st| fig11::run(st.workload())),
        ExperimentSpec::new("fig12", WL, |_, st| fig12::run(st.workload())),
        ExperimentSpec::new("fig13", WL, |_, st| fig13::run(st.workload())),
        ExperimentSpec::new("fig14", PRED, |_, st| fig14::run(st.prediction())),
        ExperimentSpec::new("table3", WL, |sc, st| table3::run(sc, st.workload())),
        ExperimentSpec::new("table4", NONE, |_, _| table4::run()),
        ExperimentSpec::new("table5", NONE, |_, _| table5::run()),
        ExperimentSpec::new("ext_gslb", NONE, |sc, _| ext_gslb::run(sc)),
        ExperimentSpec::new("ext_migration", WL, |_, st| {
            ext_migration::run(st.workload())
        }),
        ExperimentSpec::new("ext_elastic", NONE, |sc, _| ext_elastic::run(sc)),
        ExperimentSpec::new("ext_predictive", PRED, |sc, st| {
            ext_predictive::run(sc, st.prediction())
        }),
        ExperimentSpec::new("ext_predictors", PRED, |_, st| {
            ext_predictors::run(st.prediction())
        }),
        ExperimentSpec::new("ext_fragmentation", NONE, |sc, _| {
            ext_fragmentation::run(sc)
        }),
        ExperimentSpec::new("ext_billing", WL, |sc, st| {
            ext_billing::run(sc, st.workload())
        }),
        ExperimentSpec::new("ext_framesim", NONE, |sc, _| ext_framesim::run(sc)),
        ExperimentSpec::new("ctn_qoe_density", NONE, |sc, _| {
            contention::run_qoe_density(sc)
        }),
        ExperimentSpec::new("ctn_placement", NONE, |sc, _| contention::run_placement(sc)),
        ExperimentSpec::new("ctn_providers", NONE, |sc, _| contention::run_providers(sc)),
        ExperimentSpec::new("dyn_outage_qoe", NONE, |sc, _| {
            dyn_scenarios::run_outage(sc)
        }),
        ExperimentSpec::new("dyn_flashcrowd_admission", NONE, |sc, _| {
            dyn_scenarios::run_flashcrowd(sc)
        }),
        ExperimentSpec::new("dyn_drain_migration", NONE, |sc, _| {
            dyn_scenarios::run_drain(sc)
        }),
        ExperimentSpec::new("dyn_mobility_rtt", NONE, |sc, _| {
            dyn_scenarios::run_mobility(sc)
        }),
        ExperimentSpec::new("metro_latency", STREAM, |_, st| {
            metro::run_latency(st.streaming())
        }),
        ExperimentSpec::new("metro_intersite", STREAM, |_, st| {
            metro::run_intersite(st.streaming())
        }),
        ExperimentSpec::new("metro_workload", STREAM, |_, st| {
            metro::run_workload(st.streaming())
        }),
    ]
}

/// The registry an end-to-end run at `scale` should execute.
///
/// At [`Scale::Metro`] only the streaming experiments are selected: the
/// latency study would materialize the full crowd and its probe results
/// and blow the tier's memory budget, and the tier exists to measure the
/// streaming paths. Their studies are the streaming study and the
/// workload study it sketches, which keeps one folded row per trace VM
/// and no series. Every other scale runs the full [`registry`],
/// including the metro analogues. `metro_workload` sketches the very
/// traces fig8–fig13 read, so its statistics match fig10's within the
/// sketch accuracy. `metro_latency` and `metro_intersite` still recruit
/// and probe their own crowd and scan (tags `0x3e70`/`0x3e71`), so they
/// agree with the batch fig2/fig4 artefacts in distribution, not draw
/// for draw.
pub fn registry_for(scale: Scale) -> Vec<ExperimentSpec> {
    match scale {
        Scale::Metro => registry()
            .into_iter()
            .filter(|s| s.needs.streaming)
            .collect(),
        _ => registry(),
    }
}

/// Filter `specs` down to the comma-separated names in `only`
/// (case-insensitive, whitespace-tolerant), preserving registry order.
/// Unknown names — or a selection that matches nothing — error with the
/// list of valid names.
pub fn select_experiments(
    specs: Vec<ExperimentSpec>,
    only: &str,
) -> Result<Vec<ExperimentSpec>, String> {
    let wanted: Vec<String> = only
        .split(',')
        .map(|s| s.trim().to_ascii_lowercase())
        .filter(|s| !s.is_empty())
        .collect();
    let valid = || specs.iter().map(|s| s.name).collect::<Vec<_>>().join(", ");
    for w in &wanted {
        if !specs.iter().any(|s| s.name == w) {
            return Err(format!(
                "unknown experiment '{w}'; valid names: {}",
                valid()
            ));
        }
    }
    if wanted.is_empty() {
        return Err(format!(
            "--only selected no experiments; valid names: {}",
            valid()
        ));
    }
    Ok(specs
        .into_iter()
        .filter(|s| wanted.iter().any(|w| w == s.name))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    #[test]
    fn run_all_produces_every_artefact() {
        let scenario = Scenario::new(Scale::Quick, 42);
        let reports =
            crate::executor::run(&scenario, registry(), 1, edgescope_obs::log::LogFormat::Off)
                .reports;
        let ids: Vec<&str> = reports.iter().map(|r| r.id).collect();
        for want in [
            "table1",
            "fig2a",
            "fig2b",
            "table2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "table6",
            "fig8",
            "fig9",
            "sales",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "table3",
            "table4",
            "table5",
            "ext_gslb",
            "ext_migration",
            "ext_elastic",
            "ext_predictive",
            "ext_predictors",
            "ext_fragmentation",
            "ext_billing",
            "ext_framesim",
            "ctn_qoe_density",
            "ctn_placement",
            "ctn_providers",
            "dyn_outage_qoe",
            "dyn_flashcrowd_admission",
            "dyn_drain_migration",
            "dyn_mobility_rtt",
            "metro_latency",
            "metro_intersite",
            "metro_workload",
        ] {
            assert!(ids.contains(&want), "missing {want}; got {ids:?}");
        }
        for r in &reports {
            assert!(!r.render().is_empty());
        }
        // Registry names are the report ids, in the same order — the
        // contract `--only` and the timings rows rely on.
        let names: Vec<&str> = registry().iter().map(|s| s.name).collect();
        assert_eq!(names, ids);
    }

    #[test]
    fn selection_preserves_registry_order() {
        let picked = select_experiments(registry(), "table2, FIG2A").expect("valid names");
        let names: Vec<&str> = picked.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["fig2a", "table2"],
            "registry order, not request order"
        );
    }

    #[test]
    fn selection_rejects_unknown_names() {
        let err = select_experiments(registry(), "fig2a,fig99").unwrap_err();
        assert!(err.contains("fig99"), "names the offender: {err}");
        assert!(
            err.contains("fig2a") && err.contains("ext_framesim"),
            "lists valid names: {err}"
        );
        let err = select_experiments(registry(), " , ").unwrap_err();
        assert!(err.contains("no experiments"), "{err}");
    }

    #[test]
    fn selection_only_builds_what_it_needs() {
        let picked = select_experiments(registry(), "table1,table4").expect("valid");
        assert!(picked.iter().all(|s| s.needs == Needs::default()));
        let picked = select_experiments(registry(), "fig10").expect("valid");
        assert!(picked[0].needs.workload && !picked[0].needs.latency);
        // The prediction experiments declare only the prediction study;
        // the executor derives the workload build it requires as input.
        for name in ["fig14", "ext_predictors", "ext_predictive"] {
            let picked = select_experiments(registry(), name).expect("valid");
            assert!(
                picked[0].needs.prediction && !picked[0].needs.workload,
                "{name} needs the prediction study only"
            );
        }
    }

    #[test]
    fn metro_registry_selects_streaming_experiments_only() {
        let metro = registry_for(Scale::Metro);
        let names: Vec<&str> = metro.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["metro_latency", "metro_intersite", "metro_workload"]
        );
        assert!(metro.iter().all(|s| {
            s.needs.streaming && !s.needs.latency && !s.needs.workload && !s.needs.prediction
        }));
        // Every other scale runs the full registry, metro analogues
        // included.
        for scale in [Scale::Quick, Scale::Default, Scale::Paper] {
            assert_eq!(registry_for(scale).len(), registry().len(), "{scale:?}");
        }
    }
}
