//! Application categories and their temporal shapes.
//!
//! §4.1 lists NEP's dominant customers: "video live streaming, online
//! education, content delivery, video/audio communication, video
//! surveillance, and cloud gaming" — network-intensive and delay-critical.
//! Cloud platforms additionally host generic web services, dev/test boxes,
//! batch compute, and databases (the Azure dataset's long tail of small,
//! steady VMs).
//!
//! Each category carries a diurnal activity profile (when its users are
//! active), a weekend factor, a bandwidth intensity class, and a
//! "burstiness" used by the series generator.

use rand::Rng;

/// Application categories across both platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppCategory {
    /// Live video streaming.
    LiveStreaming,
    /// Online education (morning-peaked, 4.5's example).
    OnlineEducation,
    /// CDN-style content delivery.
    ContentDelivery,
    /// Video/audio communication.
    VideoConference,
    /// Around-the-clock camera streams.
    VideoSurveillance,
    /// Cloud gaming backends.
    CloudGaming,
    /// Generic web services (cloud-typical).
    WebService,
    /// Development/test boxes.
    DevTest,
    /// Batch compute jobs.
    BatchCompute,
    /// Databases.
    Database,
}

impl AppCategory {
    /// Categories hosted on NEP, with sampling weights (§4.1's "most
    /// popular ones", video-centric).
    pub const EDGE_MIX: &'static [(AppCategory, f64)] = &[
        (AppCategory::LiveStreaming, 0.28),
        (AppCategory::ContentDelivery, 0.22),
        (AppCategory::OnlineEducation, 0.14),
        (AppCategory::VideoConference, 0.13),
        (AppCategory::VideoSurveillance, 0.12),
        (AppCategory::CloudGaming, 0.11),
    ];

    /// Categories hosted on the Azure-like cloud, with weights: a long tail
    /// of small web/dev/batch VMs plus some video workloads.
    pub const CLOUD_MIX: &'static [(AppCategory, f64)] = &[
        (AppCategory::WebService, 0.34),
        (AppCategory::DevTest, 0.22),
        (AppCategory::BatchCompute, 0.16),
        (AppCategory::Database, 0.14),
        (AppCategory::ContentDelivery, 0.07),
        (AppCategory::LiveStreaming, 0.04),
        (AppCategory::VideoConference, 0.03),
    ];

    /// Every category, in declaration order.
    pub const ALL: [AppCategory; 10] = [
        AppCategory::LiveStreaming,
        AppCategory::OnlineEducation,
        AppCategory::ContentDelivery,
        AppCategory::VideoConference,
        AppCategory::VideoSurveillance,
        AppCategory::CloudGaming,
        AppCategory::WebService,
        AppCategory::DevTest,
        AppCategory::BatchCompute,
        AppCategory::Database,
    ];

    /// Human-readable label, the category's one spelling in every
    /// artefact and query.
    pub fn label(&self) -> &'static str {
        match self {
            AppCategory::LiveStreaming => "live-streaming",
            AppCategory::OnlineEducation => "online-education",
            AppCategory::ContentDelivery => "content-delivery",
            AppCategory::VideoConference => "video-conference",
            AppCategory::VideoSurveillance => "video-surveillance",
            AppCategory::CloudGaming => "cloud-gaming",
            AppCategory::WebService => "web-service",
            AppCategory::DevTest => "dev-test",
            AppCategory::BatchCompute => "batch-compute",
            AppCategory::Database => "database",
        }
    }

    /// The category whose [`AppCategory::label`] is exactly `s`.
    pub fn from_label(s: &str) -> Option<AppCategory> {
        AppCategory::ALL.into_iter().find(|c| c.label() == s)
    }

    /// Draw a category from a weighted mix.
    pub fn sample(rng: &mut impl Rng, mix: &[(AppCategory, f64)]) -> AppCategory {
        let total: f64 = mix.iter().map(|(_, w)| w).sum();
        let mut t = rng.gen::<f64>() * total;
        for (cat, w) in mix {
            t -= w;
            if t <= 0.0 {
                return *cat;
            }
        }
        mix.last().expect("empty mix").0
    }

    /// Diurnal activity at hour-of-day `h` (0–23, fractional allowed), in
    /// `[0, 1]`. 1 = the category's peak hour, small values = its trough.
    pub fn diurnal(&self, h: f64) -> f64 {
        // Smooth bump centred at `peak` with half-width `width` hours, on a
        // `floor` baseline.
        fn bump(h: f64, peak: f64, width: f64, floor: f64) -> f64 {
            let mut d = (h - peak).abs();
            if d > 12.0 {
                d = 24.0 - d;
            }
            let x = (1.0 - (d / width).powi(2)).max(0.0);
            floor + (1.0 - floor) * x * x
        }
        match self {
            // Evening entertainment peak.
            AppCategory::LiveStreaming => bump(h, 21.0, 7.0, 0.08),
            // §4.5's worked example: an education app with most traffic
            // 9:00–12:00.
            AppCategory::OnlineEducation => bump(h, 10.5, 3.0, 0.03),
            AppCategory::ContentDelivery => bump(h, 20.5, 8.0, 0.15),
            // Business-hours double hump approximated by one wide bump.
            AppCategory::VideoConference => bump(h, 14.0, 5.5, 0.05),
            // Cameras stream around the clock.
            AppCategory::VideoSurveillance => bump(h, 12.0, 24.0, 0.85),
            AppCategory::CloudGaming => bump(h, 21.5, 5.5, 0.06),
            AppCategory::WebService => bump(h, 15.0, 9.0, 0.35),
            // Dev boxes follow office hours loosely.
            AppCategory::DevTest => bump(h, 14.5, 6.0, 0.25),
            // Batch jobs run at night but irregularly (low amplitude here;
            // the series generator adds heavy noise for this category).
            AppCategory::BatchCompute => bump(h, 3.0, 8.0, 0.45),
            AppCategory::Database => bump(h, 15.0, 9.0, 0.45),
        }
    }

    /// Weekend activity multiplier.
    pub fn weekend_factor(&self) -> f64 {
        match self {
            AppCategory::LiveStreaming | AppCategory::CloudGaming => 1.25,
            AppCategory::ContentDelivery => 1.1,
            AppCategory::OnlineEducation | AppCategory::VideoConference => 0.45,
            AppCategory::VideoSurveillance => 1.0,
            AppCategory::WebService | AppCategory::Database => 0.8,
            AppCategory::DevTest | AppCategory::BatchCompute => 0.55,
        }
    }

    /// Relative bandwidth intensity: mean subscribed/used Mbps per vCPU.
    /// Video categories dominate (§4.5: bandwidth is 76 % of edge bills).
    pub fn bandwidth_intensity(&self) -> f64 {
        match self {
            AppCategory::LiveStreaming => 14.0,
            AppCategory::ContentDelivery => 18.0,
            AppCategory::OnlineEducation => 8.0,
            AppCategory::VideoConference => 7.0,
            AppCategory::VideoSurveillance => 10.0,
            AppCategory::CloudGaming => 6.0,
            AppCategory::WebService => 1.2,
            AppCategory::DevTest => 0.2,
            AppCategory::BatchCompute => 0.4,
            AppCategory::Database => 0.8,
        }
    }

    /// Whether this category's usage is driven by human activity (drives
    /// diurnal amplitude and thus CV/seasonality, §4.2/§4.4).
    pub fn interactive(&self) -> bool {
        !matches!(
            self,
            AppCategory::BatchCompute | AppCategory::VideoSurveillance | AppCategory::Database
        )
    }
}

impl std::fmt::Display for AppCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn every_label_parses_back_and_labels_are_distinct() {
        for (i, cat) in AppCategory::ALL.into_iter().enumerate() {
            assert_eq!(AppCategory::from_label(cat.label()), Some(cat));
            assert_eq!(AppCategory::from_label(&cat.label().to_uppercase()), None);
            for other in &AppCategory::ALL[i + 1..] {
                assert_ne!(cat, *other);
                assert_ne!(cat.label(), other.label());
            }
        }
    }

    #[test]
    fn diurnal_bounded() {
        for (cat, _) in AppCategory::EDGE_MIX.iter().chain(AppCategory::CLOUD_MIX) {
            for h in 0..24 {
                let v = cat.diurnal(h as f64);
                assert!((0.0..=1.0 + 1e-9).contains(&v), "{cat} at {h}: {v}");
            }
        }
    }

    #[test]
    fn education_peaks_in_the_morning() {
        let c = AppCategory::OnlineEducation;
        assert!(c.diurnal(10.5) > 0.95);
        assert!(c.diurnal(22.0) < 0.1);
        assert!(c.diurnal(10.5) / c.diurnal(16.0).max(1e-6) > 5.0);
    }

    #[test]
    fn streaming_peaks_in_the_evening() {
        let c = AppCategory::LiveStreaming;
        assert!(c.diurnal(21.0) > 0.9);
        assert!(c.diurnal(5.0) < 0.3);
    }

    #[test]
    fn surveillance_nearly_flat() {
        let c = AppCategory::VideoSurveillance;
        let vals: Vec<f64> = (0..24).map(|h| c.diurnal(h as f64)).collect();
        let max = edgescope_analysis::stats::peak_max(&vals);
        let min = edgescope_analysis::stats::peak_min(&vals);
        assert!(max / min < 1.3, "surveillance swing {max}/{min}");
    }

    #[test]
    fn diurnal_wraps_midnight() {
        // The evening bump must continue smoothly past midnight.
        let c = AppCategory::LiveStreaming;
        assert!(c.diurnal(23.9) > c.diurnal(12.0));
        assert!((c.diurnal(0.0) - c.diurnal(24.0)).abs() < 1e-9);
    }

    #[test]
    fn sample_respects_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let hits = (0..n)
            .filter(|_| {
                AppCategory::sample(&mut rng, AppCategory::EDGE_MIX) == AppCategory::LiveStreaming
            })
            .count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.28).abs() < 0.02, "live-streaming frac {frac}");
    }

    #[test]
    fn video_categories_dominate_bandwidth() {
        assert!(
            AppCategory::LiveStreaming.bandwidth_intensity()
                > 8.0 * AppCategory::WebService.bandwidth_intensity()
        );
    }
}
