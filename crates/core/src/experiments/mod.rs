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
//! with its [`Runner`]: a plain `fn` in the variant that names the one
//! shared study it reads, so each entry declares its study once and its
//! [`Needs`] follow from the type. The [`crate::executor::run`] builds
//! the needed studies once and fans the runners out over worker
//! threads. [`registry_for`] narrows the registry by scale — at
//! [`Scale::Metro`] only the streaming
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

/// What an experiment reads, as a plain `fn` over exactly that input:
/// the scenario alone, or the scenario and one shared study. The
/// variant is the experiment's one declaration of the study it reads;
/// [`ExperimentSpec::new`] derives the spec's [`Needs`] from it.
#[derive(Debug, Clone, Copy)]
pub enum Runner {
    /// Reads no shared study.
    Scenario(fn(&Scenario) -> ExperimentReport),
    /// Reads the crowd latency campaign.
    Latency(fn(&Scenario, &latency_study::LatencyStudy) -> ExperimentReport),
    /// Reads the NEP/Azure trace pair.
    Workload(fn(&Scenario, &workload_study::WorkloadStudy) -> ExperimentReport),
    /// Reads the trained forecasters.
    Prediction(fn(&Scenario, &prediction_study::PredictionStudy) -> ExperimentReport),
    /// Reads the streaming sketch aggregates.
    Streaming(fn(&Scenario, &streaming_study::StreamingStudy) -> ExperimentReport),
}

/// One named experiment: its registry name (== the report id it
/// produces), the shared studies its runner reads, and the runner.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentSpec {
    /// Registry name, matching the produced report id (`fig2a`,
    /// `table3`, …).
    pub name: &'static str,
    /// Shared studies the runner reads, derived from its variant.
    pub needs: Needs,
    runner: Runner,
}

impl ExperimentSpec {
    /// A new spec. `name` must equal the id of the report `runner`
    /// returns; the spec needs exactly the study `runner` reads.
    pub fn new(name: &'static str, runner: Runner) -> Self {
        let needs = Needs {
            latency: matches!(runner, Runner::Latency(_)),
            workload: matches!(runner, Runner::Workload(_)),
            prediction: matches!(runner, Runner::Prediction(_)),
            streaming: matches!(runner, Runner::Streaming(_)),
        };
        ExperimentSpec {
            name,
            needs,
            runner,
        }
    }

    /// Run the experiment on the one study its runner reads. `studies`
    /// must hold whatever [`Needs`] declares.
    pub fn run(&self, scenario: &Scenario, studies: &Studies) -> ExperimentReport {
        fn built<T>(study: &Option<T>) -> &T {
            study
                .as_ref()
                .expect("the executor builds every study its specs need")
        }
        match self.runner {
            Runner::Scenario(f) => f(scenario),
            Runner::Latency(f) => f(scenario, built(&studies.latency)),
            Runner::Workload(f) => f(scenario, built(&studies.workload)),
            Runner::Prediction(f) => f(scenario, built(&studies.prediction)),
            Runner::Streaming(f) => f(scenario, built(&studies.streaming)),
        }
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
        ExperimentSpec::new("table1", Runner::Scenario(|_| table1::run())),
        ExperimentSpec::new("fig2a", Runner::Latency(|_, lat| fig2::run_a(lat))),
        ExperimentSpec::new("fig2b", Runner::Latency(|_, lat| fig2::run_b(lat))),
        ExperimentSpec::new("table2", Runner::Latency(|_, lat| table2::run(lat))),
        ExperimentSpec::new("fig3", Runner::Latency(|_, lat| fig3::run(lat))),
        ExperimentSpec::new("fig4", Runner::Scenario(fig4::run)),
        ExperimentSpec::new("fig5", Runner::Scenario(fig5::run)),
        ExperimentSpec::new("fig6", Runner::Scenario(fig6::run)),
        ExperimentSpec::new("fig7", Runner::Scenario(fig7::run)),
        ExperimentSpec::new("table6", Runner::Scenario(table6::run)),
        ExperimentSpec::new("fig8", Runner::Workload(|_, wl| fig8::run(wl))),
        ExperimentSpec::new("fig9", Runner::Workload(|_, wl| fig9::run(wl))),
        ExperimentSpec::new("sales", Runner::Workload(|_, wl| sales_rate::run(wl))),
        ExperimentSpec::new("fig10", Runner::Workload(|_, wl| fig10::run(wl))),
        ExperimentSpec::new("fig11", Runner::Workload(|_, wl| fig11::run(wl))),
        ExperimentSpec::new("fig12", Runner::Workload(|_, wl| fig12::run(wl))),
        ExperimentSpec::new("fig13", Runner::Workload(|_, wl| fig13::run(wl))),
        ExperimentSpec::new("fig14", Runner::Prediction(|_, pred| fig14::run(pred))),
        ExperimentSpec::new("table3", Runner::Workload(table3::run)),
        ExperimentSpec::new("table4", Runner::Scenario(|_| table4::run())),
        ExperimentSpec::new("table5", Runner::Scenario(|_| table5::run())),
        ExperimentSpec::new("ext_gslb", Runner::Scenario(ext_gslb::run)),
        ExperimentSpec::new(
            "ext_migration",
            Runner::Workload(|_, wl| ext_migration::run(wl)),
        ),
        ExperimentSpec::new("ext_elastic", Runner::Scenario(ext_elastic::run)),
        ExperimentSpec::new("ext_predictive", Runner::Prediction(ext_predictive::run)),
        ExperimentSpec::new(
            "ext_predictors",
            Runner::Prediction(|_, pred| ext_predictors::run(pred)),
        ),
        ExperimentSpec::new(
            "ext_fragmentation",
            Runner::Scenario(ext_fragmentation::run),
        ),
        ExperimentSpec::new("ext_billing", Runner::Workload(ext_billing::run)),
        ExperimentSpec::new("ext_framesim", Runner::Scenario(ext_framesim::run)),
        ExperimentSpec::new(
            "ctn_qoe_density",
            Runner::Scenario(contention::run_qoe_density),
        ),
        ExperimentSpec::new("ctn_placement", Runner::Scenario(contention::run_placement)),
        ExperimentSpec::new("ctn_providers", Runner::Scenario(contention::run_providers)),
        ExperimentSpec::new(
            "dyn_outage_qoe",
            Runner::Scenario(dyn_scenarios::run_outage),
        ),
        ExperimentSpec::new(
            "dyn_flashcrowd_admission",
            Runner::Scenario(dyn_scenarios::run_flashcrowd),
        ),
        ExperimentSpec::new(
            "dyn_drain_migration",
            Runner::Scenario(dyn_scenarios::run_drain),
        ),
        ExperimentSpec::new(
            "dyn_mobility_rtt",
            Runner::Scenario(dyn_scenarios::run_mobility),
        ),
        ExperimentSpec::new(
            "metro_latency",
            Runner::Streaming(|_, st| metro::run_latency(st)),
        ),
        ExperimentSpec::new(
            "metro_intersite",
            Runner::Streaming(|_, st| metro::run_intersite(st)),
        ),
        ExperimentSpec::new(
            "metro_workload",
            Runner::Streaming(|_, st| metro::run_workload(st)),
        ),
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
