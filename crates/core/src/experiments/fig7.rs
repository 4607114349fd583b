//! Fig. 7: live-streaming delay on edge/cloud under different conditions,
//! plus the §3.3.2 breakdown.

use super::table6::{qoe_links, QOE_LABELS};
use crate::report::ExperimentReport;
use crate::scenario::Scenario;
use edgescope_analysis::stats::mean;
use edgescope_analysis::table::Table;
use edgescope_net::access::AccessNetwork;
use edgescope_qoe::streaming::{Player, StreamingPipeline};
use edgescope_qoe::video::Resolution;

/// Regenerate Fig. 7: per condition (network / resolution / transcoding),
/// the streaming delay against all four VMs; then the stage breakdown and
/// the jitter-buffer/ffplay side experiments.
pub fn run(scenario: &Scenario) -> ExperimentReport {
    let mut report = ExperimentReport::new("fig7", "Live streaming delay");
    let n = scenario.sizing.qoe_samples;
    let mut rng = scenario.rng(0xf177);

    let base = StreamingPipeline::paper_default();
    let conditions: [(&str, AccessNetwork, StreamingPipeline); 5] = [
        ("WiFi-1080p", AccessNetwork::Wifi, base),
        (
            "WiFi-720p",
            AccessNetwork::Wifi,
            StreamingPipeline {
                resolution: Resolution::R720p,
                ..base
            },
        ),
        (
            "WiFi-trans (720p->1080p)",
            AccessNetwork::Wifi,
            StreamingPipeline {
                resolution: Resolution::R720p,
                transcode_to: Some(Resolution::R1080p),
                ..base
            },
        ),
        ("LTE-1080p", AccessNetwork::Lte, base),
        ("5G-1080p", AccessNetwork::FiveG, base),
    ];

    let mut t = Table::new(
        "streaming delay (ms, mean)",
        &[
            "condition",
            "Edge",
            "Cloud-1",
            "Cloud-2",
            "Cloud-3",
            "edge gain vs Cloud-3",
        ],
    );
    for (label, access, pipeline) in conditions {
        let links = qoe_links(&mut rng, access);
        let mut means = Vec::with_capacity(4);
        for link in &links {
            let (samples, _) = pipeline.run(&mut rng, link, n);
            means.push(mean(&samples));
        }
        t.row(vec![
            label.to_string(),
            format!("{:.0}", means[0]),
            format!("{:.0}", means[1]),
            format!("{:.0}", means[2]),
            format!("{:.0}", means[3]),
            format!("{:.0}%", 100.0 * (1.0 - means[0] / means[3])),
        ]);
    }
    report.tables.push(t);

    // Breakdown on the edge VM, default condition.
    let links = qoe_links(&mut rng, AccessNetwork::Wifi);
    let (_, b) = base.run(&mut rng, &links[0], n * 2);
    let mut tb = Table::new("breakdown on edge VM (ms)", &["stage", "mean ms"]);
    for (stage, v) in [
        ("capture + ISP + sender stack", b.capture_isp_ms),
        ("sender encode", b.sender_encode_ms),
        ("network (RTMP up+down)", b.network_ms),
        ("server relay", b.server_ms),
        ("receiver decode", b.decode_ms),
        ("player render", b.player_render_ms),
    ] {
        tb.row(vec![stage.to_string(), format!("{v:.1}")]);
    }
    report.tables.push(tb);

    // Side experiments: jitter buffer and player software.
    let buffered = StreamingPipeline {
        jitter_buffer_mb: Some(2.0),
        ..base
    };
    let (jb_edge, _) = buffered.run(&mut rng, &links[0], n);
    let (jb_cloud, _) = buffered.run(&mut rng, &links[3], n);
    let ffplay = StreamingPipeline {
        player: Player::FFplay,
        ..base
    };
    let (ff, _) = ffplay.run(&mut rng, &links[0], n);
    let (mp, _) = base.run(&mut rng, &links[0], n);
    let mut tc = Table::new("side experiments", &["experiment", "delay ms"]);
    tc.row(vec![
        "2 MB jitter buffer, edge".into(),
        format!("{:.0}", mean(&jb_edge)),
    ]);
    tc.row(vec![
        "2 MB jitter buffer, Cloud-3".into(),
        format!("{:.0}", mean(&jb_cloud)),
    ]);
    tc.row(vec![
        "MPlayer receiver, edge".into(),
        format!("{:.0}", mean(&mp)),
    ]);
    tc.row(vec![
        "ffplay receiver, edge".into(),
        format!("{:.0}", mean(&ff)),
    ]);
    report.tables.push(tc);

    report
        .notes
        .push(format!("VM labels: {}", QOE_LABELS.join("/")));
    report.notes.push(
        "paper: ~400 ms baseline; edge gain <=24%; 720p saves ~67 ms; transcode ~2x; jitter buffer -> ~2 s; ffplay saves ~90 ms".into(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scale, Scenario};

    #[test]
    fn fig7_builds_all_tables() {
        let scenario = Scenario::new(Scale::Quick, 12);
        let r = run(&scenario);
        assert_eq!(r.tables.len(), 3);
        assert_eq!(r.tables[0].rows().len(), 5);
        assert_eq!(r.tables[1].rows().len(), 6);
        assert_eq!(r.tables[2].rows().len(), 4);
    }
}
