//! Fig. 6: cloud-gaming response delay under different networks (a),
//! client devices (b), and games (c), plus the server-side breakdown.

use super::table6::{qoe_links, QOE_LABELS};
use crate::report::ExperimentReport;
use crate::scenario::Scenario;
use edgescope_analysis::stats::{mean, std_dev};
use edgescope_analysis::table::Table;
use edgescope_net::access::AccessNetwork;
use edgescope_qoe::device::Device;
use edgescope_qoe::game::Game;
use edgescope_qoe::gaming::GamingPipeline;

/// Regenerate Fig. 6. Default setting: Samsung Note 10+, game Flare,
/// WiFi (the figure caption's default).
pub fn run(scenario: &Scenario) -> ExperimentReport {
    let mut report = ExperimentReport::new("fig6", "Cloud gaming response delay");
    let n = scenario.sizing.qoe_samples;
    let mut rng = scenario.rng(0xf166);

    // (a) networks x VM locations.
    let mut ta = Table::new(
        "(a) response delay by network (ms, mean +/- std)",
        &["network", "Edge", "Cloud-1", "Cloud-2", "Cloud-3"],
    );
    let pipeline = GamingPipeline::paper_default();
    for access in [
        AccessNetwork::Wifi,
        AccessNetwork::Lte,
        AccessNetwork::FiveG,
    ] {
        let links = qoe_links(&mut rng, access);
        let mut cells = vec![access.label().to_string()];
        for link in &links {
            let (samples, _) = pipeline.run(&mut rng, link, n);
            cells.push(format!("{:.0}+/-{:.0}", mean(&samples), std_dev(&samples)));
        }
        ta.row(cells);
    }
    report.tables.push(ta);

    // (b) devices (default network: WiFi, default VM: Edge).
    let links = qoe_links(&mut rng, AccessNetwork::Wifi);
    let mut tb = Table::new(
        "(b) by client device (WiFi, edge VM)",
        &["device", "mean ms"],
    );
    for device in Device::PHONES {
        let p = GamingPipeline {
            device,
            ..GamingPipeline::paper_default()
        };
        let (samples, _) = p.run(&mut rng, &links[0], n);
        tb.row(vec![
            device.name.to_string(),
            format!("{:.0}", mean(&samples)),
        ]);
    }
    report.tables.push(tb);

    // (c) games.
    let mut tc = Table::new(
        "(c) by game (WiFi, edge VM)",
        &["game", "mean ms", "std ms"],
    );
    for game in Game::ALL {
        let p = GamingPipeline {
            game,
            ..GamingPipeline::paper_default()
        };
        let (samples, _) = p.run(&mut rng, &links[0], n);
        tc.row(vec![
            game.name.to_string(),
            format!("{:.0}", mean(&samples)),
            format!("{:.0}", std_dev(&samples)),
        ]);
    }
    report.tables.push(tc);

    // Breakdown on the edge VM.
    let (_, b) = pipeline.run(&mut rng, &links[0], n * 2);
    let mut td = Table::new("breakdown on edge VM (ms)", &["stage", "mean ms"]);
    for (stage, v) in [
        ("input capture", b.input_ms),
        ("uplink", b.uplink_ms),
        ("server logic+render", b.server_ms),
        ("encode", b.encode_ms),
        ("downlink (frame)", b.downlink_ms),
        ("decode", b.decode_ms),
        ("display wait", b.display_ms),
    ] {
        td.row(vec![stage.to_string(), format!("{v:.1}")]);
    }
    report.tables.push(td);
    report.notes.push(format!(
        "server-side share {:.0}% — the paper's ~70 ms bottleneck; VM labels: {}",
        100.0 * b.server_share(),
        QOE_LABELS.join("/")
    ));
    report.notes.push(
        "paper: <100 ms with nearby VMs on WiFi; remote clouds add up to ~60 ms; decode <10 ms on all devices".into(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scale, Scenario};

    #[test]
    fn fig6_builds_all_panels() {
        let scenario = Scenario::new(Scale::Quick, 11);
        let r = run(&scenario);
        assert_eq!(r.tables.len(), 4);
        assert_eq!(r.tables[0].rows().len(), 3);
        assert_eq!(r.tables[1].rows().len(), 3);
        assert_eq!(r.tables[2].rows().len(), 3);
        assert_eq!(r.tables[3].rows().len(), 7);
    }
}
