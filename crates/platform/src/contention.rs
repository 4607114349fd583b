//! Multi-tenant contention: deterministic CPU-steal and bandwidth-sharing
//! factors as functions of colocation density.
//!
//! The paper measures isolated VMs, but real edge nodes colocate tenants,
//! and multi-tenancy evaluation work (Georgiou et al., PAPERS.md) shows
//! contention is a first-order effect on edge QoE. This module keeps the
//! model minimal and fully deterministic: given a server's *colocation
//! density* (how full it is relative to a comfortable tenant count), a
//! [`Contention`] config yields
//!
//! * a **CPU-steal factor** ≥ 1 — the multiplicative inflation of compute
//!   time (and hence server-side latency) a tenant observes, growing
//!   quadratically with density so a near-empty box is unaffected and a
//!   packed one degrades sharply;
//! * a **bandwidth share** ∈ (0, 1] — the fraction of the nominal link a
//!   tenant can sustain, shrinking linearly with density (fair-share NIC
//!   under load).
//!
//! The default config is [`Contention::off`], whose zero coefficients
//! return the identity factors for every density, NaN included —
//! experiments built before this model exists stay byte-identical. A
//! zero coefficient never reads the density.
//!
//! [`PRESETS`] is the one table of named configs: the `ctn_*` experiments
//! sweep it and serve's `contention=` parameter looks names up in it.

/// Contention config: how strongly colocation degrades CPU and bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Contention {
    /// CPU-steal coefficient: steal factor = `1 + cpu_steal · density²`.
    pub cpu_steal: f64,
    /// Bandwidth-sharing coefficient: share = `1 − bw_share · density`,
    /// floored at 0.05 so a packed server still moves *some* bytes.
    pub bw_share: f64,
}

/// Minimum bandwidth share a tenant keeps on a fully-packed server.
pub const MIN_BW_SHARE: f64 = 0.05;

/// The named presets in increasing interference, as the `ctn_*`
/// experiments sweep them and serve's `contention=` parameter names them.
pub const PRESETS: [(&str, Contention); 3] = [
    ("off", Contention::off()),
    ("moderate", Contention::moderate()),
    ("heavy", Contention::heavy()),
];

impl Contention {
    /// No contention (the default): identity factors at every density.
    pub const fn off() -> Self {
        Contention {
            cpu_steal: 0.0,
            bw_share: 0.0,
        }
    }

    /// Moderate interference, calibrated so a fully-packed server inflates
    /// compute by ~35% and halves per-tenant bandwidth.
    pub const fn moderate() -> Self {
        Contention {
            cpu_steal: 0.35,
            bw_share: 0.5,
        }
    }

    /// Heavy interference: ~80% compute inflation and an 80% bandwidth cut
    /// on a fully-packed server (noisy-neighbour worst case).
    pub const fn heavy() -> Self {
        Contention {
            cpu_steal: 0.8,
            bw_share: 0.8,
        }
    }

    /// CPU-steal factor at a colocation density in `[0, 1]`: ≥ 1, identity
    /// when the coefficient is zero or density 0. Quadratic in density —
    /// schedulers absorb light colocation, interference compounds when
    /// the box fills up.
    pub fn cpu_steal_factor(&self, density: f64) -> f64 {
        if self.cpu_steal == 0.0 {
            return 1.0;
        }
        let d = density.clamp(0.0, 1.0);
        1.0 + self.cpu_steal * d * d
    }

    /// Fraction of nominal bandwidth available at a colocation density in
    /// `[0, 1]`: in `(0, 1]`, identity when the coefficient is zero or
    /// density 0.
    ///
    /// Floored via `clamp`, not `f64::max` — `max(NaN, floor)` would
    /// silently launder a NaN density into the floor share, the exact bug
    /// class the `peak_max` sweep removed.
    pub fn bw_available(&self, density: f64) -> f64 {
        if self.bw_share == 0.0 {
            return 1.0;
        }
        let d = density.clamp(0.0, 1.0);
        (1.0 - self.bw_share * d).clamp(MIN_BW_SHARE, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_identity_everywhere() {
        let c = Contention::off();
        for d in [0.0, 0.3, 1.0, 7.0, -1.0] {
            assert_eq!(c.cpu_steal_factor(d), 1.0);
            assert_eq!(c.bw_available(d), 1.0);
        }
    }

    #[test]
    fn factors_monotone_in_density() {
        let c = Contention::moderate();
        let mut last_steal = 0.0;
        let mut last_bw = 2.0;
        for i in 0..=10 {
            let d = i as f64 / 10.0;
            let steal = c.cpu_steal_factor(d);
            let bw = c.bw_available(d);
            assert!(steal >= last_steal, "steal monotone at {d}");
            assert!(bw <= last_bw, "bw monotone at {d}");
            assert!(steal >= 1.0 && bw > 0.0 && bw <= 1.0);
            last_steal = steal;
            last_bw = bw;
        }
        // Calibration points at full density.
        assert!((c.cpu_steal_factor(1.0) - 1.35).abs() < 1e-12);
        assert!((c.bw_available(1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn density_is_clamped_and_bw_is_floored() {
        let h = Contention::heavy();
        assert_eq!(h.cpu_steal_factor(5.0), h.cpu_steal_factor(1.0));
        assert!(h.bw_available(1.0) >= MIN_BW_SHARE);
        let extreme = Contention {
            cpu_steal: 0.0,
            bw_share: 2.0,
        };
        assert_eq!(extreme.bw_available(1.0), MIN_BW_SHARE);
    }

    #[test]
    fn presets_are_named_in_increasing_interference() {
        let names: Vec<&str> = PRESETS.iter().map(|&(name, _)| name).collect();
        assert_eq!(names, ["off", "moderate", "heavy"]);
        assert_eq!(PRESETS[0].1, Contention::off());
        for pair in PRESETS.windows(2) {
            let ((_, lo), (_, hi)) = (pair[0], pair[1]);
            assert!(hi.cpu_steal_factor(0.8) > lo.cpu_steal_factor(0.8));
            assert!(hi.bw_available(0.8) < lo.bw_available(0.8));
        }
    }
}
