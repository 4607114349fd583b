//! Application QoE study (§3.3): run the cloud-gaming and live-streaming
//! pipelines against an edge VM and three clouds, print means and stage
//! breakdowns, and sweep what the paper varies: GPU rendering and the
//! game for cloud gaming; resolution, transcoding, jitter buffer and
//! player software for live streaming. The VM, GamingAnywhere's stream
//! and the streaming devices are fixed, as in the paper's testbeds.
//!
//! ```sh
//! cargo run --release --example qoe_study
//! ```

use edgescope::analysis::stats::mean;
use edgescope::qoe::device::Device;
use edgescope::qoe::game::Game;
use edgescope::qoe::gaming::GamingPipeline;
use edgescope::qoe::link::LinkProfile;
use edgescope::qoe::streaming::{Player, StreamingPipeline};
use edgescope::qoe::video::Resolution;
use rand::SeedableRng;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(33);
    // Table 6's WiFi RTTs: edge 11.4 ms, clouds 16.6 / 40.9 / 55.1 ms.
    let vms = [
        ("Edge", 11.4),
        ("Cloud-1", 16.6),
        ("Cloud-2", 40.9),
        ("Cloud-3", 55.1),
    ];

    println!("== cloud gaming (Samsung Note 10+, Flare, WiFi) ==");
    let gaming = GamingPipeline::paper_default();
    for (name, rtt) in vms {
        let link = LinkProfile::with_rtt(rtt, 60.0);
        let (samples, b) = gaming.run(&mut rng, &link, 50);
        println!(
            "{name:<8} response {:>4.0} ms  (server {:.0} ms, network {:.0} ms, decode {:.1} ms)",
            mean(&samples),
            b.server_ms + b.encode_ms,
            b.uplink_ms + b.downlink_ms,
            b.decode_ms
        );
    }
    // Ablations the paper discusses: GPU rendering helps, the game
    // matters. The model has no core count: the game loop is
    // single-threaded, so extra vCPUs leave one session's delay alone.
    let edge = LinkProfile::with_rtt(11.4, 60.0);
    let gpu = GamingPipeline {
        gpu: true,
        ..gaming
    };
    let (g, _) = gpu.run(&mut rng, &edge, 50);
    println!("with GPU rendering: {:.0} ms", mean(&g));
    for game in Game::ALL {
        let p = GamingPipeline { game, ..gaming };
        let (s, _) = p.run(&mut rng, &edge, 50);
        println!("game {:<13} {:.0} ms", game.name, mean(&s));
    }

    println!("\n== live streaming (1080p over RTMP, same-city sender/receiver) ==");
    let streaming = StreamingPipeline::paper_default();
    for (name, rtt) in vms {
        let link = LinkProfile::with_rtt(rtt, 60.0);
        let (samples, b) = streaming.run(&mut rng, &link, 50);
        println!(
            "{name:<8} delay {:>4.0} ms  (capture {:.0}, network {:.0}, player {:.0})",
            mean(&samples),
            b.capture_isp_ms,
            b.network_ms,
            b.player_render_ms
        );
    }
    let sweeps: [(&str, StreamingPipeline); 4] = [
        (
            "720p stream",
            StreamingPipeline {
                resolution: Resolution::R720p,
                ..streaming
            },
        ),
        (
            "transcode 720p->1080p",
            StreamingPipeline {
                resolution: Resolution::R720p,
                transcode_to: Some(Resolution::R1080p),
                ..streaming
            },
        ),
        (
            "2 MB jitter buffer",
            StreamingPipeline {
                jitter_buffer_mb: Some(2.0),
                ..streaming
            },
        ),
        (
            "ffplay receiver",
            StreamingPipeline {
                player: Player::FFplay,
                ..streaming
            },
        ),
    ];
    for (label, p) in sweeps {
        let (s, _) = p.run(&mut rng, &edge, 50);
        println!("{label:<22} {:>5.0} ms", mean(&s));
    }
    println!(
        "\nreceiver decode at 1080p on {}: {:.1} ms",
        Device::MACBOOK_PRO16.name,
        Device::MACBOOK_PRO16.decode_ms(Resolution::R1080p)
    );
}
