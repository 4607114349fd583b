//! Extension experiment: frame-level jitter-buffer dynamics.
//!
//! §3.3.2 reports the jitter buffer's effect as two end points (no buffer
//! ≈400 ms; 2 MB ≈2 s and platform-agnostic). The frame simulator sweeps
//! the whole curve: buffer size vs. latency vs. stalls, on the edge VM
//! and the farthest cloud — the smoothness-latency trade-off a streaming
//! operator actually tunes.

use super::table6::qoe_links;
use crate::report::ExperimentReport;
use crate::scenario::Scenario;
use edgescope_analysis::table::Table;
use edgescope_net::access::AccessNetwork;
use edgescope_qoe::framesim::simulate_stream;
use edgescope_qoe::link::LinkProfile;

/// Buffer sizes swept, seconds of content (0 = no buffer).
const BUFFERS_S: [f64; 4] = [0.0, 0.4, 1.0, 1.6];

/// Run the sweep.
pub fn run(scenario: &Scenario) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "ext_framesim",
        "Extension: jitter-buffer dynamics (stalls vs latency, frame-level)",
    );
    let mut rng = scenario.rng(0xf5a3);
    let links = qoe_links(&mut rng, AccessNetwork::Wifi);
    let pairs: [(&str, &LinkProfile); 2] = [("Edge", &links[0]), ("Cloud-3", &links[3])];
    let mut t = Table::new(
        "30 s of 1080p@30 per cell",
        &["buffer", "VM", "mean latency ms", "p95 ms", "stalls/min"],
    );
    for buffer_s in BUFFERS_S {
        for (vm, link) in pairs {
            let mut rng = scenario.rng(0xf5a4); // same frame luck per cell
            let link = LinkProfile {
                jitter_cv: 0.15,
                ..*link
            };
            let out = simulate_stream(&mut rng, &link, buffer_s);
            t.row(vec![
                if buffer_s > 0.0 {
                    format!("{buffer_s:.1} s")
                } else {
                    "none".into()
                },
                vm.to_string(),
                format!("{:.0}", out.mean_latency_ms),
                format!("{:.0}", out.p95_latency_ms),
                format!("{:.1}", out.stalls_per_minute()),
            ]);
        }
    }
    report.tables.push(t);
    report.notes.push(
        "paper 3.3.2: without a buffer ~400 ms but spiky; with a 2 MB (~1.6 s) buffer the delay reaches ~2 s and the edge/cloud difference becomes trivial — here the whole trade-off curve".into(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scale, Scenario};

    #[test]
    fn buffer_sweep_tradeoff() {
        let scenario = Scenario::new(Scale::Quick, 37);
        let r = run(&scenario);
        let csv = r.tables[0].to_csv();
        let cell = |row: usize, col: usize| -> f64 {
            csv.lines()
                .nth(row + 1)
                .unwrap()
                .split(',')
                .nth(col)
                .unwrap()
                .parse()
                .unwrap()
        };
        // Rows: (none,Edge) (none,Cloud3) ... (1.6,Edge) (1.6,Cloud3).
        let unbuffered_edge_stalls = cell(0, 4);
        let buffered_edge_stalls = cell(6, 4);
        assert!(
            buffered_edge_stalls < unbuffered_edge_stalls,
            "buffer must smooth: {buffered_edge_stalls} vs {unbuffered_edge_stalls}"
        );
        let unbuffered_edge_lat = cell(0, 2);
        let buffered_edge_lat = cell(6, 2);
        assert!(
            buffered_edge_lat > unbuffered_edge_lat + 1000.0,
            "buffer costs latency"
        );
        // With the big buffer, edge and cloud converge.
        let gap = (cell(7, 2) - cell(6, 2)) / cell(6, 2);
        assert!(gap.abs() < 0.1, "buffered edge/cloud gap {gap}");
    }
}
