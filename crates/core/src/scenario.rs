//! The simulated world at configurable scales.
//!
//! A [`Scenario`] owns everything an experiment needs: the deployment
//! of each compared [`Platform`], the crowd, and the trace-generation
//! parameters. The
//! path and TCP models are `edgescope_net`'s constants and free
//! functions. Four scales ship:
//!
//! * [`Scale::Paper`] — the paper's campaign size (520 edge sites, 158
//!   users, 92-day traces at 1-min CPU). Minutes of CPU; use for final
//!   EXPERIMENTS.md numbers.
//! * [`Scale::Default`] — a reduction (≈150 sites, 100 users, 28-day
//!   compact traces) that preserves every statistic the paper reports.
//! * [`Scale::Quick`] — CI-sized.
//! * [`Scale::Metro`] — a what-if tier *above* the paper: hundreds of
//!   thousands of virtual users against thousands of edge sites, feasible
//!   on bounded memory because its experiments run the streaming
//!   (sketch-based) campaign variants only. A metro scenario never
//!   materializes the crowd — `users` is empty and the streaming
//!   campaigns recruit user *i* on the fly from its own RNG stream — so
//!   scenario memory stays flat in `n_users`. See ARCHITECTURE.md
//!   ("Scale tiers and memory model") and `BENCH_scale.json` for the
//!   measured peak-RSS contract.
//!
//! # Determinism contract
//!
//! Identical `(scale, seed)` inputs build identical worlds, and every
//! experiment's output is a pure function of the scenario. The key
//! mechanism is [`Scenario::rng`]: each experiment derives its own
//! `StdRng` from the world seed XOR-mixed with a per-experiment **tag**
//! (`seed ^ tag · φ`, with φ the 64-bit golden-ratio constant), so no
//! experiment ever advances another experiment's RNG stream.
//!
//! Tag allocation rules:
//!
//! * every experiment (and every shared study) owns a distinct tag,
//!   hard-coded at its call site — e.g. the latency campaign uses
//!   `0x1a7e`, the prediction study uses `0x9ed1`
//!   (`crate::experiments::prediction_study::TAG`), and the four
//!   dynamic scenarios own `0xd1a0`–`0xd1a3`
//!   (`crate::experiments::dyn_scenarios`); never reuse a tag across
//!   experiments;
//! * scenario *construction* consumes the raw seed directly (site
//!   placement, crowd recruitment) and happens before any experiment;
//! * an experiment needing several independent streams should derive
//!   them all from its own tag space (distinct constants), not by
//!   sharing a `StdRng` across logical stages.
//!
//! Because experiments share no mutable state and never observe each
//! other's RNG position, they are order-independent — which is what lets
//! [`crate::executor::run`] run them on parallel worker threads and
//! still produce byte-identical reports for any `--jobs` value
//! (asserted by `tests/determinism.rs`).
//!
//! The same contract extends *inside* the shared studies: the campaign
//! loops give every entity (virtual user, source site, VM) its own
//! stream via `edgescope_net::rng::stream_rng(seed, entity_tag(domain,
//! index))`, where the campaign seed comes from [`Scenario::stream_seed`]
//! with the experiment's tag. Entity draws are therefore independent of
//! both experiment order *and* intra-study worker count.

use edgescope_billing::tariff::CloudTariff;
use edgescope_net::path::PathModel;
use edgescope_obs::cli::Setting;
use edgescope_platform::deployment::Deployment;
use edgescope_platform::provider::ProviderProfile;
use edgescope_probe::user::{recruit, VirtualUser};
use edgescope_trace::series::TraceConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's campaign size (520 sites, 158 users, 92-day traces).
    Paper,
    /// A faithful but faster reduction.
    Default,
    /// CI-sized.
    Quick,
    /// Metro scale: 200 k streaming users against 2 000 edge sites on
    /// bounded memory (sketch campaigns only; the crowd is never
    /// materialized).
    Metro,
}

impl Scale {
    /// Every tier, in documentation order.
    pub const ALL: [Scale; 4] = [Scale::Quick, Scale::Default, Scale::Paper, Scale::Metro];

    /// The canonical tier name — bench documents record it so a reading
    /// names the scale it measured.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Default => "default",
            Scale::Quick => "quick",
            Scale::Metro => "metro",
        }
    }

    /// The tier whose [`Scale::name`] is `s`, in any case.
    pub fn parse(s: &str) -> Option<Scale> {
        Scale::ALL
            .into_iter()
            .find(|t| t.name().eq_ignore_ascii_case(s))
    }

    /// [`Scale::parse`] for a command line: an unknown name's error lists
    /// the valid tiers.
    pub fn from_arg(s: &str) -> Result<Scale, String> {
        Scale::parse(s)
            .ok_or_else(|| format!("valid tiers: {}", Scale::ALL.map(Scale::name).join(", ")))
    }
}

/// The world's tier: `--scale` (on `edgescope-serve`), then
/// `EDGESCOPE_SCALE`, then the binary's default. An unknown tier is a
/// usage error: a typo like `metro ` must not quietly run another tier
/// and overwrite its results.
pub const SCALE: Setting<Scale> = Setting {
    flag: "--scale",
    var: "EDGESCOPE_SCALE",
    parse: Scale::from_arg,
    strict: true,
};

/// RNG tag of the metro-edge deployment, which
/// [`Scenario::deployment`] builds on first use.
const METRO_EDGE_TAG: u64 = 0xc1a3;

/// One platform of the comparison: the paper's edge platform (NEP), a
/// synthetic consolidated metro-edge provider, and the two virtual
/// clouds, AliCloud (vCloud-1) and Huawei Cloud (vCloud-2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// The paper's edge platform.
    Nep,
    /// The synthetic consolidated edge provider.
    MetroEdge,
    /// AliCloud's China regions (vCloud-1).
    AliCloud,
    /// Huawei Cloud's China regions (vCloud-2).
    Huawei,
}

impl Platform {
    /// Every platform: the edge platforms, then the clouds.
    pub const ALL: [Platform; 4] = [Self::Nep, Self::MetroEdge, Self::AliCloud, Self::Huawei];

    /// The canonical name, as serve's `deployment` and `provider`
    /// parameters and the `ctn_providers` artefacts spell it.
    pub fn name(self) -> &'static str {
        match self {
            Platform::Nep => "nep",
            Platform::MetroEdge => "metroedge",
            Platform::AliCloud => "alicloud",
            Platform::Huawei => "huawei",
        }
    }

    /// The edge provider's profile; `None` for a cloud.
    pub fn profile(self) -> Option<ProviderProfile> {
        match self {
            Platform::Nep => Some(ProviderProfile::NEP),
            Platform::MetroEdge => Some(ProviderProfile::METRO_EDGE),
            Platform::AliCloud | Platform::Huawei => None,
        }
    }

    /// The cloud's price list; `None` for an edge platform, which bills
    /// under NEP's tariff.
    pub fn tariff(self) -> Option<CloudTariff> {
        match self {
            Platform::Nep | Platform::MetroEdge => None,
            Platform::AliCloud => Some(CloudTariff::alicloud()),
            Platform::Huawei => Some(CloudTariff::huawei()),
        }
    }
}

/// Scale-dependent sizing knobs.
#[derive(Debug, Clone)]
pub struct Sizing {
    /// Edge sites in the latency deployment.
    pub nep_sites: usize,
    /// Crowd size.
    pub n_users: usize,
    /// Echo probes per target (paper: 30).
    pub pings_per_target: usize,
    /// Sites of the (smaller) deployment used for trace generation — the
    /// workload analysis needs populated sites, not national scale.
    pub trace_sites: usize,
    /// Apps in the workload traces.
    pub trace_apps: usize,
    /// Trace sampling configuration.
    pub trace_config: TraceConfig,
    /// VMs per platform evaluated in the Fig. 14 prediction study.
    pub predict_vms: usize,
    /// QoE samples per condition (paper: 50).
    pub qoe_samples: usize,
    /// Apps examined in Table 3 (paper: 50 heaviest).
    pub table3_apps: usize,
}

/// The simulated world.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// World seed; identical seeds give identical worlds.
    pub seed: u64,
    /// The chosen scale.
    pub scale: Scale,
    /// Scale-dependent sizing knobs.
    pub sizing: Sizing,
    /// The NEP edge deployment.
    pub nep: Deployment,
    /// AliCloud's 12 China regions (vCloud-1).
    pub alicloud: Deployment,
    /// Huawei Cloud's 5 China regions (vCloud-2).
    pub huawei: Deployment,
    /// The recruited crowd.
    pub users: Vec<VirtualUser>,
    /// The path model as a value, kept while `perfbench/src/main.rs`
    /// passes `&sc.path_model`; every other caller uses the free functions
    /// of `edgescope_net::path`.
    #[doc(hidden)]
    pub path_model: PathModel,
    /// The metro-edge deployment, once [`Scenario::deployment`] built it.
    metro_edge: OnceLock<Deployment>,
}

impl Scenario {
    /// Build a scenario at a scale with a seed. Identical inputs ⇒
    /// identical world.
    pub fn new(scale: Scale, seed: u64) -> Self {
        let sizing = match scale {
            Scale::Paper => Sizing {
                nep_sites: 520,
                n_users: 158,
                pings_per_target: 30,
                trace_sites: 120,
                trace_apps: 200,
                trace_config: TraceConfig {
                    days: 92,
                    cpu_interval_min: 5,
                    bw_interval_min: 5,
                    start_weekday: 0,
                },
                predict_vms: 40,
                qoe_samples: 50,
                table3_apps: 50,
            },
            Scale::Default => Sizing {
                nep_sites: 150,
                n_users: 100,
                pings_per_target: 30,
                trace_sites: 60,
                trace_apps: 120,
                trace_config: TraceConfig::compact(),
                predict_vms: 16,
                qoe_samples: 50,
                table3_apps: 30,
            },
            Scale::Quick => Sizing {
                nep_sites: 60,
                n_users: 40,
                pings_per_target: 15,
                trace_sites: 30,
                trace_apps: 40,
                trace_config: TraceConfig {
                    days: 14,
                    cpu_interval_min: 10,
                    bw_interval_min: 30,
                    start_weekday: 0,
                },
                predict_vms: 4,
                qoe_samples: 25,
                table3_apps: 15,
            },
            Scale::Metro => Sizing {
                nep_sites: 2000,
                n_users: 200_000,
                // 4 probes per target bound wall-clock at 200 k users;
                // the sketch campaign still folds millions of probes.
                pings_per_target: 4,
                trace_sites: 300,
                trace_apps: 600,
                trace_config: TraceConfig {
                    days: 30,
                    cpu_interval_min: 5,
                    bw_interval_min: 15,
                    start_weekday: 0,
                },
                // The batch-only studies never run at metro scale
                // (`registry_for(Scale::Metro)` selects the streaming
                // experiments only); these knobs just keep the struct
                // total.
                predict_vms: 16,
                qoe_samples: 50,
                table3_apps: 30,
            },
        };
        Self::with_scale_sizing(scale, sizing, seed)
    }

    /// Build a scenario at an explicit `(scale, sizing)` pair — the
    /// general constructor behind [`Scenario::new`]. Tests use it to run
    /// the metro
    /// (streaming) experiment set on a tiny world.
    ///
    /// At [`Scale::Metro`] the crowd is *not* materialized: `users` stays
    /// empty (the streaming campaigns recruit user `i` from the
    /// `(stream_seed, entity_tag(LATENCY_USER, i))` stream on the fly),
    /// which keeps scenario memory flat in `sizing.n_users`. All other
    /// scales recruit the crowd from the raw world seed exactly as
    /// before.
    pub fn with_scale_sizing(scale: Scale, sizing: Sizing, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let nep = Deployment::nep(&mut rng, sizing.nep_sites);
        let users = if scale == Scale::Metro {
            Vec::new()
        } else {
            recruit(&mut rng, sizing.n_users)
        };
        Scenario {
            seed,
            scale,
            sizing,
            nep,
            alicloud: Deployment::alicloud(),
            huawei: Deployment::huawei_cloud(),
            users,
            path_model: PathModel,
            metro_edge: OnceLock::new(),
        }
    }

    /// `platform`'s deployment. The metro-edge deployment is built from
    /// the NEP site budget on its own tag (`METRO_EDGE_TAG`) the first
    /// time it is asked for, so a world that never asks (the metro tier)
    /// never builds it.
    pub fn deployment(&self, platform: Platform) -> &Deployment {
        match platform {
            Platform::Nep => &self.nep,
            Platform::MetroEdge => self.metro_edge.get_or_init(|| {
                let mut rng = self.rng(METRO_EDGE_TAG);
                ProviderProfile::METRO_EDGE.build_deployment(&mut rng, self.sizing.nep_sites)
            }),
            Platform::AliCloud => &self.alicloud,
            Platform::Huawei => &self.huawei,
        }
    }

    /// A fresh RNG derived from the scenario seed and a per-experiment
    /// tag, so experiments are independent of each other's execution
    /// order (and thus safe to run on parallel workers — see the module
    /// docs for the tag allocation rules).
    pub fn rng(&self, tag: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The campaign seed for a tagged, data-parallel study: the base
    /// value the campaign loops split into per-entity streams
    /// (`edgescope_net::rng::stream_rng`). Same tag-allocation rules as
    /// [`Scenario::rng`].
    pub fn stream_seed(&self, tag: u64) -> u64 {
        edgescope_net::rng::stream_seed(self.seed, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_parse() {
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("Default"), Some(Scale::Default));
        assert_eq!(Scale::parse("QUICK"), Some(Scale::Quick));
        assert_eq!(Scale::parse("QuIcK"), Some(Scale::Quick));
        assert_eq!(Scale::parse("metro"), Some(Scale::Metro));
        assert_eq!(Scale::parse("Metro"), Some(Scale::Metro));
        assert_eq!(Scale::parse("gigantic"), None);
    }

    #[test]
    fn scale_parse_rejects_junk_cleanly() {
        // The reproduce binary rejects a None with exit code 2 and the
        // list of valid tiers, so parse must return None (not panic, not
        // guess) for anything unexpected.
        for junk in [
            "",
            " ",
            "quick ",
            " paper",
            "default\n",
            "2",
            "-1",
            "qu1ck",
            "paper,quick",
        ] {
            assert_eq!(Scale::parse(junk), None, "{junk:?} must not parse");
        }
    }

    #[test]
    fn every_tier_name_parses_back_and_names_are_distinct() {
        for (i, tier) in Scale::ALL.into_iter().enumerate() {
            assert_eq!(Scale::parse(tier.name()), Some(tier));
            for other in &Scale::ALL[i + 1..] {
                assert_ne!(tier, *other);
                assert_ne!(tier.name(), other.name());
            }
        }
        assert_eq!(
            Scale::from_arg("big").unwrap_err(),
            "valid tiers: quick, default, paper, metro"
        );
    }

    #[test]
    fn quick_scenario_builds() {
        let s = Scenario::new(Scale::Quick, 1);
        assert_eq!(s.nep.n_sites(), 60);
        assert_eq!(s.users.len(), 40);
        assert_eq!(s.alicloud.n_sites(), 12);
        assert_eq!(s.huawei.n_sites(), 5);
    }

    #[test]
    fn edge_platforms_have_profiles_and_clouds_have_tariffs() {
        use edgescope_net::path::TargetClass;
        let s = Scenario::new(Scale::Quick, 1);
        for p in Platform::ALL {
            let edge = s.deployment(p).kind == TargetClass::EdgeSite;
            assert_eq!(p.profile().is_some(), edge, "{p:?}");
            assert_eq!(p.tariff().is_some(), !edge, "{p:?}");
        }
        assert_eq!(s.deployment(Platform::Nep).n_sites(), 60);
        assert_eq!(s.deployment(Platform::AliCloud).n_sites(), 12);
        assert_eq!(s.deployment(Platform::Huawei).n_sites(), 5);
    }

    #[test]
    fn metro_edge_world_is_deterministic() {
        let (a, b) = (
            Scenario::new(Scale::Quick, 24),
            Scenario::new(Scale::Quick, 24),
        );
        let (da, db) = (
            a.deployment(Platform::MetroEdge),
            b.deployment(Platform::MetroEdge),
        );
        assert_eq!(da.n_sites(), db.n_sites());
        assert_eq!(da.n_servers(), db.n_servers());
        assert!(da.n_sites() < a.nep.n_sites(), "consolidated");
        assert!(
            std::ptr::eq(da, a.deployment(Platform::MetroEdge)),
            "built once"
        );
    }

    /// The metro-edge deployment is built inside whichever experiment
    /// scope asks for it first, so building it must record no metric:
    /// one recorded there would follow the schedule, not the experiment.
    #[test]
    fn building_the_metro_edge_deployment_records_no_metric() {
        let s = Scenario::new(Scale::Quick, 3);
        let (sites, set) = edgescope_obs::scoped(|| s.deployment(Platform::MetroEdge).n_sites());
        assert!(sites > 0);
        assert!(set.is_empty(), "{set:?}");
    }

    #[test]
    fn deterministic_world() {
        let a = Scenario::new(Scale::Quick, 9);
        let b = Scenario::new(Scale::Quick, 9);
        assert_eq!(a.users, b.users);
        let ca: Vec<&str> = a.nep.sites.iter().map(|s| s.city.name).collect();
        let cb: Vec<&str> = b.nep.sites.iter().map(|s| s.city.name).collect();
        assert_eq!(ca, cb);
    }

    #[test]
    fn custom_sizing_respected() {
        let mut sizing = Scenario::new(Scale::Quick, 1).sizing;
        sizing.nep_sites = 25;
        sizing.n_users = 11;
        let s = Scenario::with_scale_sizing(Scale::Quick, sizing, 2);
        assert_eq!(s.nep.n_sites(), 25);
        assert_eq!(s.users.len(), 11);
    }

    #[test]
    fn metro_never_materializes_the_crowd() {
        let mut sizing = Scenario::new(Scale::Quick, 1).sizing;
        sizing.nep_sites = 20;
        sizing.n_users = 10_000;
        let s = Scenario::with_scale_sizing(Scale::Metro, sizing, 3);
        assert_eq!(s.scale, Scale::Metro);
        assert!(
            s.users.is_empty(),
            "metro scenarios must not recruit the crowd up front"
        );
        assert_eq!(
            s.sizing.n_users, 10_000,
            "the streaming campaigns still see the count"
        );
        assert_eq!(s.nep.n_sites(), 20);
    }

    #[test]
    fn per_experiment_rngs_differ() {
        use rand::Rng;
        let s = Scenario::new(Scale::Quick, 2);
        let a: u64 = s.rng(1).gen();
        let b: u64 = s.rng(2).gen();
        assert_ne!(a, b);
        let a2: u64 = s.rng(1).gen();
        assert_eq!(a, a2);
    }
}
