//! UE device profiles.
//!
//! §2.1.1's QoE devices: Samsung Note 10+ (Snapdragon 855, 5G), Xiaomi
//! Redmi Note 8 (SD 665), Nexus 6 (SD 805), and a MacBook Pro 16" 2019.
//! §3.3.1 found hardware decoding "fast enough for all the devices tested"
//! (<10 ms at 800×600) with the Note 10+ only slightly ahead, and all
//! phone screens at 60 Hz.

use crate::video::Resolution;

/// A user-equipment profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Device {
    /// Device display name.
    pub name: &'static str,
    /// Hardware decode time for one 1080p frame, ms.
    decode_1080p_ms: f64,
    /// Hardware encode time for one 1080p frame, ms (camera/UE side).
    encode_1080p_ms: f64,
    /// Display refresh rate, Hz.
    pub refresh_hz: f64,
    /// Camera capture + ISP + system-stack delay, ms (§3.3.2 estimates
    /// ≈140 ms on the phones).
    pub capture_isp_ms: f64,
}

impl Device {
    /// Samsung Galaxy Note 10+ (Snapdragon 855, 5G).
    pub const SAMSUNG_NOTE10P: Device = Device {
        name: "Samsung Note 10+",
        decode_1080p_ms: 7.0,
        encode_1080p_ms: 22.0,
        refresh_hz: 60.0,
        capture_isp_ms: 130.0,
    };

    /// Xiaomi Redmi Note 8 (Snapdragon 665).
    pub const XIAOMI_REDMI_NOTE8: Device = Device {
        name: "Xiaomi Redmi Note 8",
        decode_1080p_ms: 9.0,
        encode_1080p_ms: 25.0,
        refresh_hz: 60.0,
        capture_isp_ms: 140.0,
    };

    /// Google Nexus 6 (Snapdragon 805).
    pub const NEXUS6: Device = Device {
        name: "Nexus 6",
        decode_1080p_ms: 9.8,
        encode_1080p_ms: 28.0,
        refresh_hz: 60.0,
        capture_isp_ms: 150.0,
    };

    /// MacBook Pro 16-inch, 2019.
    pub const MACBOOK_PRO16: Device = Device {
        name: "MacBook Pro 16",
        decode_1080p_ms: 4.0,
        encode_1080p_ms: 12.0,
        refresh_hz: 60.0,
        capture_isp_ms: 90.0,
    };

    /// The paper's three phones, in Fig. 6(b)'s order.
    pub const PHONES: [Device; 3] = [
        Device::SAMSUNG_NOTE10P,
        Device::XIAOMI_REDMI_NOTE8,
        Device::NEXUS6,
    ];

    /// Hardware decode time for one frame at `res`, ms. Scales
    /// sub-linearly with pixels (fixed pipeline overheads dominate small
    /// frames).
    pub fn decode_ms(&self, res: Resolution) -> f64 {
        self.decode_1080p_ms * res.scale_vs_1080p().powf(0.7)
    }

    /// Hardware encode time for one frame at `res`, ms.
    pub fn encode_ms(&self, res: Resolution) -> f64 {
        self.encode_1080p_ms * res.scale_vs_1080p().powf(0.7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_under_10ms_at_gaming_resolution() {
        // §3.3.1: hardware decode <10 ms at 800×600 on every device.
        for d in Device::PHONES {
            let t = d.decode_ms(Resolution::R800x600);
            assert!(t < 10.0, "{}: {t} ms", d.name);
        }
    }

    #[test]
    fn note10_fastest_phone() {
        let n10 = Device::SAMSUNG_NOTE10P.decode_ms(Resolution::R1080p);
        for d in [Device::XIAOMI_REDMI_NOTE8, Device::NEXUS6] {
            assert!(n10 < d.decode_ms(Resolution::R1080p));
        }
    }

    #[test]
    fn all_phones_60hz() {
        for d in Device::PHONES {
            assert_eq!(d.refresh_hz, 60.0);
        }
    }

    #[test]
    fn sender_encode_around_25ms() {
        // §3.3.2: encoding ≈25 ms on the sender UE at 1080p.
        let t = Device::XIAOMI_REDMI_NOTE8.encode_ms(Resolution::R1080p);
        assert!((t - 25.0).abs() < 1.0, "encode {t}");
    }

    #[test]
    fn higher_resolution_costs_more() {
        let d = Device::SAMSUNG_NOTE10P;
        assert!(d.decode_ms(Resolution::R1080p) > d.decode_ms(Resolution::R720p));
    }
}
