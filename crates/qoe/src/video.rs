//! Video resolutions and their codec figures.

/// Resolutions used across §3.3's experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resolution {
    /// GamingAnywhere's default game resolution.
    R800x600,
    /// 1280x720.
    R720p,
    /// 1920x1080.
    R1080p,
}

impl Resolution {
    /// Pixel count.
    pub fn pixels(&self) -> u64 {
        match self {
            Resolution::R800x600 => 800 * 600,
            Resolution::R720p => 1280 * 720,
            Resolution::R1080p => 1920 * 1080,
        }
    }

    /// Typical encoded stream bitrate in Mbps (§3.3.2 streams 1080p at
    /// ≈5 Mbps).
    pub fn stream_bitrate_mbps(&self) -> f64 {
        match self {
            Resolution::R800x600 => 3.0,
            Resolution::R720p => 3.5,
            Resolution::R1080p => 5.0,
        }
    }

    /// Encoded size of one frame at `fps`, bytes.
    pub fn frame_bytes(&self, fps: f64) -> f64 {
        assert!(fps > 0.0, "fps must be positive");
        self.stream_bitrate_mbps() * 1e6 / 8.0 / fps
    }

    /// Relative pixel-processing cost vs. 1080p (drives capture / render /
    /// transcode scaling).
    pub fn scale_vs_1080p(&self) -> f64 {
        self.pixels() as f64 / Resolution::R1080p.pixels() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_by_pixels() {
        assert!(Resolution::R800x600.pixels() < Resolution::R720p.pixels());
        assert!(Resolution::R720p.pixels() < Resolution::R1080p.pixels());
    }

    #[test]
    fn frame_bytes_at_60fps() {
        // 5 Mbps / 60 fps ≈ 10.4 KB per frame.
        let b = Resolution::R1080p.frame_bytes(60.0);
        assert!((b - 10_416.0).abs() < 50.0, "frame bytes {b}");
    }

    #[test]
    fn scale_relative_to_1080p() {
        assert!((Resolution::R1080p.scale_vs_1080p() - 1.0).abs() < 1e-12);
        assert!(Resolution::R720p.scale_vs_1080p() < 0.5);
    }
}
