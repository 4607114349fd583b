//! Reproducibility: identical seeds produce identical results across the
//! whole pipeline — the property that makes EXPERIMENTS.md checkable.

use edgescope::executor;
use edgescope::experiments::registry;
use edgescope::obs::log::LogFormat;
use edgescope::{Scale, Scenario};

#[test]
fn parallel_execution_matches_serial_byte_for_byte() {
    // The gate for the parallel executor: for the same seed, `--jobs N`
    // must produce byte-identical report renders and CSV series to
    // `--jobs 1`, in the same (registry) order.
    let scenario = Scenario::new(Scale::Quick, 42);
    let serial = executor::run(&scenario, registry(), 1, LogFormat::Off);
    let parallel = executor::run(&scenario, registry(), 4, LogFormat::Off);

    let ids = |e: &edgescope::Execution| e.reports.iter().map(|r| r.id).collect::<Vec<_>>();
    assert_eq!(
        ids(&serial),
        ids(&parallel),
        "registry order must be preserved"
    );

    let renders =
        |e: &edgescope::Execution| e.reports.iter().map(|r| r.render()).collect::<Vec<_>>();
    assert_eq!(
        renders(&serial),
        renders(&parallel),
        "renders must be byte-identical"
    );

    let htmls = |e: &edgescope::Execution| {
        e.reports
            .iter()
            .map(|r| r.render_html())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        htmls(&serial),
        htmls(&parallel),
        "HTML must be byte-identical"
    );

    let csvs = |e: &edgescope::Execution| {
        e.reports
            .iter()
            .flat_map(|r| r.csv.iter().cloned())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        csvs(&serial),
        csvs(&parallel),
        "CSV series must be byte-identical"
    );

    // Timings are wall-clock (not comparable across runs), but the shape
    // is: one row per experiment, in registry order.
    for e in [&serial, &parallel] {
        let timed: Vec<&str> = e
            .scopes
            .iter()
            .filter(|s| s.kind == "experiment")
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(timed, ids(e), "one timing row per experiment");
        assert_eq!(
            e.timings_csv().lines().count(),
            1 + e.scopes.len() + 1,
            "timings.csv: header + stages + experiments + total"
        );
    }
    assert_eq!(serial.jobs, 1);
    assert_eq!(parallel.jobs, 4);

    // Metrics are part of the determinism contract too: per-scope counts
    // and totals must not depend on the worker count — the JSON document
    // (which deliberately omits the jobs count) is byte-identical.
    assert_eq!(
        serial.metrics_json(),
        parallel.metrics_json(),
        "metrics.json must be byte-identical across --jobs"
    );
    let totals = serial.totals();
    assert!(
        totals.counter("net.probes_sent") > 0,
        "campaign must send probes"
    );
    assert!(
        totals.counter("trace.vms_generated") > 0,
        "campaign must generate trace VMs"
    );
    assert!(
        totals.counter("platform.placement_requests") > 0,
        "campaign must place VMs"
    );
}

#[test]
fn study_builds_are_worker_count_invariant() {
    // The intra-study data-parallel gate: each study's artefacts must be
    // byte-identical at every `--jobs` value, because every entity (user,
    // VM series, source site) draws from its own RNG stream regardless of
    // which worker thread runs it.
    use edgescope::experiments::latency_study::LatencyStudy;
    use edgescope::experiments::workload_study::WorkloadStudy;
    use edgescope::probe::records::campaign_to_tsv;
    use edgescope::trace::io::{series_to_bytes, vm_table_to_tsv};

    let scenario = Scenario::new(Scale::Quick, 7);

    let latency_tsv = |jobs| campaign_to_tsv(&LatencyStudy::run(&scenario, jobs).campaign);
    let serial_tsv = latency_tsv(1);
    for jobs in [2, 4, 16] {
        assert_eq!(serial_tsv, latency_tsv(jobs), "latency TSV at jobs={jobs}");
    }

    // Every VM's full series: CPU regenerated from the seed, bandwidth
    // as the study holds it.
    let all_series = |ds: &edgescope::trace::dataset::TraceDataset| {
        let series: Vec<_> = (0..ds.n_vms()).map(|i| ds.vm_series(i)).collect();
        series_to_bytes(&series)
    };
    let workload = |jobs| {
        let w = WorkloadStudy::run(&scenario, jobs);
        (
            vm_table_to_tsv(&w.nep.records),
            all_series(&w.nep),
            vm_table_to_tsv(&w.azure.records),
            all_series(&w.azure),
        )
    };
    assert_eq!(workload(1), workload(4), "trace artefacts at jobs=4");
}

#[test]
fn prediction_study_is_worker_count_invariant() {
    // The prediction-study gate: every trained report — Holt-Winters,
    // LSTM and the baselines, both platforms, both targets — must carry
    // identical RMSE vectors at every worker count, because each series
    // trains from its own RNG stream regardless of which worker runs it.
    use edgescope::experiments::prediction_study::PredictionStudy;
    use edgescope::experiments::workload_study::WorkloadStudy;

    let scenario = Scenario::new(Scale::Quick, 7);
    let wl = WorkloadStudy::run(&scenario, 1);
    let serial = PredictionStudy::run(&scenario, &wl, 1);
    for jobs in [2, 4] {
        let parallel = PredictionStudy::run(&scenario, &wl, jobs);
        for (name, a, b) in [
            ("hw_max", &serial.hw_max, &parallel.hw_max),
            ("hw_mean", &serial.hw_mean, &parallel.hw_mean),
            ("lstm_max", &serial.lstm_max, &parallel.lstm_max),
            ("lstm_mean", &serial.lstm_mean, &parallel.lstm_mean),
            ("naive_mean", &serial.naive_mean, &parallel.naive_mean),
            (
                "seasonal_naive_mean",
                &serial.seasonal_naive_mean,
                &parallel.seasonal_naive_mean,
            ),
            (
                "seasonal_ar_mean",
                &serial.seasonal_ar_mean,
                &parallel.seasonal_ar_mean,
            ),
        ] {
            assert_eq!(a, b, "{name} at jobs={jobs}");
        }
    }
}

#[test]
fn prediction_evaluators_are_worker_count_invariant() {
    // Same property one layer down, against the predict-crate evaluators
    // the study wraps.
    use edgescope::experiments::prediction_study::{cohort, TAG};
    use edgescope::experiments::workload_study::WorkloadStudy;
    use edgescope::predict::eval::{
        evaluate_baseline, evaluate_holt_winters, evaluate_lstm, BaselineKind,
    };
    use edgescope::predict::lstm::LstmConfig;
    use edgescope::predict::window::Aggregation;

    let scenario = Scenario::new(Scale::Quick, 13);
    let wl = WorkloadStudy::run(&scenario, 1);
    let series = cohort(&wl.nep, 4);
    let sphh = wl.nep.config.cpu_samples_per_half_hour();
    let cfg = LstmConfig {
        epochs: 2,
        stride: 3,
        lookback: 12,
        seed: scenario.stream_seed(TAG),
        ..Default::default()
    };

    let hw1 = evaluate_holt_winters(&series, sphh, Aggregation::Max, 1);
    let lstm1 = evaluate_lstm(&series, sphh, Aggregation::Mean, &cfg, 1);
    let base1 = evaluate_baseline(
        &series,
        sphh,
        Aggregation::Mean,
        BaselineKind::SeasonalAr,
        1,
    );
    for jobs in [3, 8] {
        assert_eq!(
            hw1,
            evaluate_holt_winters(&series, sphh, Aggregation::Max, jobs),
            "holt-winters at jobs={jobs}"
        );
        assert_eq!(
            lstm1,
            evaluate_lstm(&series, sphh, Aggregation::Mean, &cfg, jobs),
            "lstm at jobs={jobs}"
        );
        assert_eq!(
            base1,
            evaluate_baseline(
                &series,
                sphh,
                Aggregation::Mean,
                BaselineKind::SeasonalAr,
                jobs
            ),
            "seasonal-AR at jobs={jobs}"
        );
    }
}

#[test]
fn prediction_seed_streams_are_pinned() {
    // Golden values: the exact seed derivation chain from scenario seed
    // to per-series LSTM stream. Any drift in the mixing constants, the
    // PREDICT_SERIES domain number or the study TAG silently changes
    // every trained model, so the integers themselves are pinned here.
    use edgescope::experiments::prediction_study::TAG;
    use edgescope::net::rng::{domains, entity_tag, stream_seed};

    assert_eq!(TAG, 0x9ed1);
    assert_eq!(domains::PREDICT_SERIES, 6);

    let base = Scenario::new(Scale::Quick, 42).stream_seed(TAG);
    assert_eq!(base, 0x1ce0_543e_042b_c219, "study base seed for seed=42");
    let per_series: Vec<u64> = (0..4)
        .map(|i| stream_seed(base, entity_tag(domains::PREDICT_SERIES, i)))
        .collect();
    assert_eq!(
        per_series,
        [
            0xcae4_cb92_410b_ba36,
            0x9c21_345c_6ec8_f4d1,
            0x461c_cebd_1098_df24,
            0x9e32_53f6_d67a_0462,
        ],
        "per-series seeds from the seed=42 base"
    );

    // A second base (arbitrary constant) pins the derivation itself,
    // independent of Scenario.
    let other: Vec<u64> = (0..3)
        .map(|i| stream_seed(0x5eed_ba5e, entity_tag(domains::PREDICT_SERIES, i)))
        .collect();
    assert_eq!(
        other,
        [
            0x6450_d3a4_5b6f_d879,
            0xeea5_94ba_7a30_c4db,
            0x6573_b9b0_f312_dacc
        ],
        "per-series seeds from a fixed base"
    );
}

#[test]
fn campaign_primitives_are_worker_count_invariant() {
    // Same property one layer down, against the probe-crate entry points
    // the studies wrap. The serial inter-site scan runs the same pair loop
    // as the streaming scan, which fans source sites out over workers:
    // both must find the same neighbours and pairs at every worker count.
    // The throughput campaign is serial; one seed gives one set of rows.
    use edgescope::probe::intersite::{intersite_scan, PAIR_PROBES};
    use edgescope::probe::stream::streaming_intersite_scan;
    use edgescope::probe::throughput::throughput_campaign;

    let scenario = Scenario::new(Scale::Quick, 13);
    let users = &scenario.users[..25.min(scenario.users.len())];
    let rows = throughput_campaign(5, users, &scenario.nep);
    assert_eq!(
        rows,
        throughput_campaign(5, users, &scenario.nep),
        "throughput rows"
    );

    let serial = intersite_scan(5, &scenario.nep);
    for jobs in [1, 4] {
        let stream = streaming_intersite_scan(5, &scenario.nep, PAIR_PROBES, jobs);
        assert_eq!(
            serial.neighbours, stream.neighbours,
            "inter-site neighbours at jobs={jobs}"
        );
        assert_eq!(
            serial.points.len() as u64,
            stream.pairs,
            "inter-site pairs at jobs={jobs}"
        );
    }
}

#[test]
fn metro_registry_is_worker_count_invariant_at_tiny_world() {
    // The metro tier's gate, on a CI-sized world: the streaming (sketch)
    // experiments selected by `registry_for(Scale::Metro)` must produce
    // byte-identical renders, CSVs and metrics at every `--jobs` value.
    // Sketch bucket counts merge integer-exactly in any order; the
    // floating-point moment/Pearson accumulators merge in constant-size
    // chunk order — this test is what keeps both properties honest at
    // the executor level.
    use edgescope::experiments::registry_for;
    use edgescope::trace::series::TraceConfig;

    let mut sizing = Scenario::new(Scale::Quick, 42).sizing;
    sizing.nep_sites = 30;
    sizing.n_users = 50;
    sizing.pings_per_target = 4;
    sizing.trace_sites = 12;
    sizing.trace_apps = 15;
    sizing.trace_config = TraceConfig {
        days: 7,
        cpu_interval_min: 10,
        bw_interval_min: 30,
        start_weekday: 0,
    };
    let scenario = Scenario::with_scale_sizing(Scale::Metro, sizing, 42);
    assert!(
        scenario.users.is_empty(),
        "metro scenarios never materialize the crowd"
    );

    let serial = executor::run(&scenario, registry_for(Scale::Metro), 1, LogFormat::Off);
    let parallel = executor::run(&scenario, registry_for(Scale::Metro), 4, LogFormat::Off);

    let ids = |e: &edgescope::Execution| e.reports.iter().map(|r| r.id).collect::<Vec<_>>();
    assert_eq!(
        ids(&serial),
        ["metro_latency", "metro_intersite", "metro_workload"]
    );
    assert_eq!(ids(&serial), ids(&parallel));

    let renders =
        |e: &edgescope::Execution| e.reports.iter().map(|r| r.render()).collect::<Vec<_>>();
    assert_eq!(
        renders(&serial),
        renders(&parallel),
        "renders must be byte-identical"
    );
    let csvs = |e: &edgescope::Execution| {
        e.reports
            .iter()
            .flat_map(|r| r.csv.iter().cloned())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        csvs(&serial),
        csvs(&parallel),
        "sketch CSVs must be byte-identical"
    );
    assert_eq!(
        serial.metrics_json(),
        parallel.metrics_json(),
        "metrics.json must be byte-identical across --jobs"
    );

    // The build went through the workload stage (the traces the
    // streaming study sketches) and the shared streaming stage, and the
    // stages recorded the campaign counters.
    let stage_names: Vec<&str> = serial
        .scopes
        .iter()
        .filter(|s| s.kind == "stage")
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(stage_names, ["study:workload", "study:streaming"]);
    let totals = serial.totals();
    assert!(totals.counter("net.probes_sent") > 0);
    assert_eq!(
        totals.counter("probe.sketch_users_complete")
            + totals.counter("probe.sketch_users_partial"),
        50
    );
    assert!(totals.counter("trace.vms_generated") > 0);
}

#[test]
fn logging_does_not_perturb_outputs() {
    // `--log json` writes spans to stderr; renders, CSVs and metrics must
    // stay byte-identical to a silent run.
    let scenario = Scenario::new(Scale::Quick, 42);
    let specs = edgescope::experiments::select_experiments(registry(), "table1,fig2a,fig3")
        .expect("known experiment names");
    let quiet = executor::run(&scenario, specs.clone(), 1, LogFormat::Off);
    let logged = executor::run(&scenario, specs, 1, LogFormat::Json);

    let renders =
        |e: &edgescope::Execution| e.reports.iter().map(|r| r.render()).collect::<Vec<_>>();
    assert_eq!(
        renders(&quiet),
        renders(&logged),
        "renders must ignore the log mode"
    );
    let csvs = |e: &edgescope::Execution| {
        e.reports
            .iter()
            .flat_map(|r| r.csv.iter().cloned())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        csvs(&quiet),
        csvs(&logged),
        "CSV series must ignore the log mode"
    );
    assert_eq!(
        quiet.metrics_json(),
        logged.metrics_json(),
        "metrics must ignore the log mode"
    );
}

#[test]
fn dynamic_scenarios_are_worker_count_invariant() {
    // The `dyn_*` experiments run the campaign engine — demand draws,
    // scheduling, panel probes and event randomness all derive from
    // `(seed, tag, entity)` streams, so `--jobs 1` and `--jobs 4` must
    // produce byte-identical artefacts (the full-registry test above
    // covers them too; this narrows the gate to the engine outputs so
    // a regression names the culprit directly).
    let scenario = Scenario::new(Scale::Quick, 42);
    let dyn_only = || {
        edgescope::experiments::select_experiments(
            registry(),
            "dyn_outage_qoe,dyn_flashcrowd_admission,dyn_drain_migration,dyn_mobility_rtt",
        )
        .expect("dyn_* names are in the registry")
    };
    assert_eq!(
        dyn_only().len(),
        4,
        "all four dynamic scenarios are registered"
    );
    let serial = executor::run(&scenario, dyn_only(), 1, LogFormat::Off);
    let parallel = executor::run(&scenario, dyn_only(), 4, LogFormat::Off);

    let renders =
        |e: &edgescope::Execution| e.reports.iter().map(|r| r.render()).collect::<Vec<_>>();
    assert_eq!(
        renders(&serial),
        renders(&parallel),
        "dyn renders must be byte-identical"
    );
    let csvs = |e: &edgescope::Execution| {
        e.reports
            .iter()
            .flat_map(|r| r.csv.iter().cloned())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        csvs(&serial),
        csvs(&parallel),
        "dyn CSVs must be byte-identical"
    );
    assert_eq!(
        serial.metrics_json(),
        parallel.metrics_json(),
        "engine.* metrics must be byte-identical across --jobs"
    );
    // The engine counters actually flowed through obs.
    let totals = serial.totals();
    assert!(
        totals.counter("engine.steps_run") > 0,
        "engine must run steps"
    );
    assert!(
        totals.counter("engine.events_activated") >= 4,
        "every scenario fires events"
    );
    // Every scenario ships a time series.
    for r in &serial.reports {
        assert!(
            r.csv.iter().any(|(n, _)| n == "timeline"),
            "{} ships a timeline",
            r.id
        );
    }
}

#[test]
fn contention_experiments_are_worker_count_invariant() {
    // The `ctn_*` experiments own the 0xc1a0–0xc1a5 tag block: links,
    // worlds, crowds and per-cell QoE sampling all derive from
    // `scenario.rng(tag)` streams, so `--jobs 1` and `--jobs 4` must be
    // byte-identical — and preset `off` must report undegraded service
    // at every density (the contention-off identity the pre-existing
    // artefacts rely on).
    let scenario = Scenario::new(Scale::Quick, 42);
    let ctn_only = || {
        edgescope::experiments::select_experiments(
            registry(),
            "ctn_qoe_density,ctn_placement,ctn_providers",
        )
        .expect("ctn_* names are in the registry")
    };
    assert_eq!(
        ctn_only().len(),
        3,
        "all three contention studies are registered"
    );
    let serial = executor::run(&scenario, ctn_only(), 1, LogFormat::Off);
    let parallel = executor::run(&scenario, ctn_only(), 4, LogFormat::Off);

    let renders =
        |e: &edgescope::Execution| e.reports.iter().map(|r| r.render()).collect::<Vec<_>>();
    assert_eq!(
        renders(&serial),
        renders(&parallel),
        "ctn renders must be byte-identical"
    );
    let csvs = |e: &edgescope::Execution| {
        e.reports
            .iter()
            .flat_map(|r| r.csv.iter().cloned())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        csvs(&serial),
        csvs(&parallel),
        "ctn CSVs must be byte-identical"
    );

    // The off-preset degraded curve is flat: the density knob must be
    // invisible while contention is disabled.
    let qoe = &serial.reports[0];
    assert_eq!(qoe.id, "ctn_qoe_density");
    let off_curve = &qoe
        .csv
        .iter()
        .find(|(n, _)| n == "off_degraded_vs_density")
        .expect("curve")
        .1;
    let degraded: Vec<&str> = off_curve
        .lines()
        .skip(1)
        .map(|l| l.split(',').nth(1).expect("xy row"))
        .collect();
    assert!(!degraded.is_empty());
    assert!(
        degraded.iter().all(|d| d == &degraded[0]),
        "off preset must be density-invariant: {degraded:?}"
    );
}

#[test]
fn same_seed_same_reports() {
    let run = |seed| {
        let scenario = Scenario::new(Scale::Quick, seed);
        executor::run(&scenario, registry(), 1, LogFormat::Off)
            .reports
            .iter()
            .map(|r| r.render())
            .collect::<Vec<String>>()
    };
    assert_eq!(run(42), run(42));
}

#[test]
fn different_seed_different_world() {
    let render = |seed| {
        let scenario = Scenario::new(Scale::Quick, seed);
        let study = edgescope::experiments::latency_study::LatencyStudy::run(&scenario, 1);
        edgescope::experiments::fig2::run_a(&study).render()
    };
    assert_ne!(
        render(1),
        render(2),
        "different seeds must differ somewhere"
    );
}

#[test]
fn trace_dataset_deterministic_through_io() {
    use edgescope::trace::dataset::TraceDataset;
    use edgescope::trace::io::{
        series_from_bytes, series_to_bytes, vm_table_from_tsv, vm_table_to_tsv,
    };
    use edgescope::trace::series::TraceConfig;
    let cfg = TraceConfig {
        days: 3,
        cpu_interval_min: 30,
        bw_interval_min: 60,
        start_weekday: 0,
    };
    let a = TraceDataset::generate_azure(9, 4, 10, cfg.clone(), 1);
    let b = TraceDataset::generate_azure(9, 4, 10, cfg, 4);
    assert_eq!(vm_table_to_tsv(&a.records), vm_table_to_tsv(&b.records));
    let all_series =
        |ds: &TraceDataset| (0..ds.n_vms()).map(|i| ds.vm_series(i)).collect::<Vec<_>>();
    let series_a = all_series(&a);
    let bytes_a = series_to_bytes(&series_a);
    assert_eq!(bytes_a, series_to_bytes(&all_series(&b)));
    // And the artefacts round-trip losslessly.
    assert_eq!(
        vm_table_from_tsv(&vm_table_to_tsv(&a.records)).unwrap(),
        a.records
    );
    assert_eq!(series_from_bytes(&bytes_a).unwrap(), series_a);
}

/// FNV-64 of a byte string (the hash the trace golden tests use too).
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Run `names` at quick scale, seed 42, on `jobs` workers and return the
/// campaign's `(metrics.json, timings.csv)` documents, exactly as
/// `reproduce` writes them.
fn campaign_documents(names: &str, jobs: usize) -> (String, String) {
    let specs = edgescope::experiments::select_experiments(registry(), names)
        .expect("known experiment names");
    let exec = executor::run(
        &Scenario::new(Scale::Quick, 42),
        specs,
        jobs,
        LogFormat::Off,
    );
    (exec.metrics_json(), exec.timings_csv())
}

/// Pinned FNV-64 of `metrics.json` for `table1,fig3,fig14,metro_latency`
/// at quick scale, seed 42. Re-pinned when the streaming study stopped
/// synthesizing its own trace pair: its scope lost the `trace.*` and
/// `platform.placement_*` counters, and the totals lost their share.
/// Re-pinned when the prediction scope gained the
/// `predict.lstm_train_samples` and `predict.lstm_optimizer_steps`
/// counters.
const QUICK_FOUR_STAGE_METRICS_FNV: u64 = 0x2434_e52d_838c_1617;

/// Pinned FNV-64 of the stdout render plus every CSV of the bandwidth
/// readers `fig11,fig12,table3,ext_billing` at quick scale, seed 42.
/// First computed when every VM's bandwidth series was still resident;
/// re-pinned at the polar-pair draw change and again at the ziggurat
/// draw change, each time after the per-sample kernel test in
/// `trace::series` passed.
const QUICK_BANDWIDTH_READERS_FNV: u64 = 0x0a2b_7a6d_0c20_c899;

#[test]
fn bandwidth_reader_artefacts_are_pinned() {
    let names = "fig11,fig12,table3,ext_billing";
    let specs = edgescope::experiments::select_experiments(registry(), names)
        .expect("known experiment names");
    let exec = executor::run(&Scenario::new(Scale::Quick, 42), specs, 2, LogFormat::Off);
    let mut bytes = Vec::new();
    for r in &exec.reports {
        // Exactly what `reproduce` prints, then each CSV it writes.
        bytes.extend_from_slice(format!("{}\n", r.render()).as_bytes());
        for (name, csv) in &r.csv {
            bytes.extend_from_slice(name.as_bytes());
            bytes.extend_from_slice(csv.as_bytes());
        }
    }
    let got = fnv64(&bytes);
    assert_eq!(
        got, QUICK_BANDWIDTH_READERS_FNV,
        "bandwidth readers drifted: got {got:#018x}"
    );
}

#[test]
fn four_stage_campaign_documents_are_pinned() {
    // table1 needs nothing, fig3 the latency study, fig14 the prediction
    // study (and so the workload study), metro_latency the streaming
    // study: every stage is built and timed once.
    let (metrics, timings) = campaign_documents("table1,fig3,fig14,metro_latency", 2);
    let got = fnv64(metrics.as_bytes());
    assert_eq!(
        got, QUICK_FOUR_STAGE_METRICS_FNV,
        "metrics.json drifted: got {got:#018x}"
    );

    // timings.csv: wall_ms is wall-clock, everything else is fixed.
    let shape: Vec<String> = timings
        .lines()
        .map(|l| l.rsplit_once(',').expect("four columns").0.to_string())
        .collect();
    assert_eq!(
        shape,
        [
            "name,kind,workers",
            "study:latency,stage,2",
            "study:workload,stage,2",
            "study:prediction,stage,2",
            "study:streaming,stage,2",
            "table1,experiment,1",
            "fig3,experiment,1",
            "fig14,experiment,1",
            "metro_latency,experiment,1",
            "total,total,2",
        ]
    );
    assert!(timings.lines().skip(1).all(|l| {
        l.rsplit_once(',')
            .and_then(|(_, ms)| ms.parse::<f64>().ok())
            .is_some_and(|ms| ms >= 0.0)
    }));
}
