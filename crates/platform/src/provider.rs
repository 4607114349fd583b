//! Edge provider profiles.
//!
//! The paper studies one edge platform (NEP) against clouds, but EdgeBench
//! (Das et al., PAPERS.md) shows the interesting questions only appear
//! when ≥ 2 platforms are compared side by side. A [`ProviderProfile`]
//! bundles what a comparison of two edge platforms needs — site density,
//! servers-per-site range, a tariff multiplier, and a default
//! [`Contention`] — and builds the provider's edge deployment.
//!
//! Profile #1, [`ProviderProfile::NEP`], reproduces the paper's NEP
//! exactly (its deployment builder, unit tariffs, and no contention), so
//! registering it changes no existing artefact. Profile #2,
//! [`ProviderProfile::METRO_EDGE`], is a synthetic "metro edge" provider:
//! fewer but beefier sites concentrated where the users are, cheaper
//! bandwidth, and moderate multi-tenant contention — the classic
//! consolidation trade-off the contention experiments quantify.

use crate::contention::Contention;
use crate::deployment::Deployment;
use rand::Rng;

/// An edge provider: deployment shape + tariff scale + contention
/// defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProviderProfile {
    /// Site-count multiplier relative to the scenario's NEP site budget:
    /// 1.0 ⇒ as dense as NEP, 0.3 ⇒ fewer, bigger sites.
    pub site_density: f64,
    /// Servers per site, lower bound.
    pub min_servers: usize,
    /// Servers per site, upper bound.
    pub max_servers: usize,
    /// Multiplier applied to NEP's unit tariffs (bandwidth + hardware):
    /// 1.0 ⇒ the paper's price list.
    pub tariff_scale: f64,
    /// Default contention config for this provider's servers.
    pub contention: Contention,
}

impl ProviderProfile {
    /// Profile #1: the paper's NEP, verbatim — full site density, the
    /// "tens to hundreds" 10–180 server range, unit tariffs, no
    /// contention. [`Deployment::nep`] builds the paper's deployment
    /// through this profile.
    pub const NEP: ProviderProfile = ProviderProfile {
        site_density: 1.0,
        min_servers: 10,
        max_servers: 180,
        tariff_scale: 1.0,
        contention: Contention::off(),
    };

    /// Profile #2: a synthetic consolidated "metro edge" provider —
    /// roughly a third of NEP's sites, each 4–8× larger, 20% cheaper
    /// tariffs, and moderate multi-tenant contention. Denser packing buys
    /// the discount; the contention experiments price the interference it
    /// costs.
    pub const METRO_EDGE: ProviderProfile = ProviderProfile {
        site_density: 0.35,
        min_servers: 60,
        max_servers: 240,
        tariff_scale: 0.8,
        contention: Contention::moderate(),
    };

    /// Number of sites this profile deploys given the scenario's NEP site
    /// budget (always ≥ 1).
    pub fn n_sites(&self, base_sites: usize) -> usize {
        ((base_sites as f64 * self.site_density).round() as usize).max(1)
    }

    /// Build this provider's edge deployment. `base_sites` is the
    /// scenario's NEP site budget, scaled by [`site_density`]; the sites
    /// come from the shared population-weighted builder.
    ///
    /// [`site_density`]: ProviderProfile::site_density
    pub fn build_deployment(&self, rng: &mut impl Rng, base_sites: usize) -> Deployment {
        Deployment::nep_custom(
            rng,
            self.n_sites(base_sites),
            self.min_servers,
            self.max_servers,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn nep_profile_keeps_the_site_budget() {
        // At density 1 the NEP profile builds exactly the scenario's
        // site budget, so `Deployment::nep(rng, n)` has `n` sites.
        for base in 1..=600 {
            assert_eq!(ProviderProfile::NEP.n_sites(base), base);
        }
        let mut rng = StdRng::seed_from_u64(42);
        assert_eq!(Deployment::nep(&mut rng, 40).n_sites(), 40);
    }

    #[test]
    fn metro_edge_is_sparser_but_beefier() {
        let mut rng = StdRng::seed_from_u64(7);
        let me = ProviderProfile::METRO_EDGE;
        let dep = me.build_deployment(&mut rng, 40);
        assert_eq!(dep.n_sites(), me.n_sites(40));
        assert!(
            dep.n_sites() < 40 / 2,
            "consolidated: {} sites",
            dep.n_sites()
        );
        let mean_servers = dep.n_servers() as f64 / dep.n_sites() as f64;
        assert!(mean_servers >= 60.0, "big sites: {mean_servers}");
        assert_eq!(me.contention, Contention::moderate());
        assert!(me.tariff_scale < 1.0);
    }

    #[test]
    fn site_floor() {
        assert_eq!(
            ProviderProfile::METRO_EDGE.n_sites(1),
            1,
            "never zero sites"
        );
    }
}
