#![warn(missing_docs)]
//! # edgescope-platform
//!
//! Platform model for the IMC'21 paper's two kinds of infrastructure:
//!
//! * **NEP**, the measured public edge platform: hundreds of small *sites*
//!   (tens to low-hundreds of servers each) spread over Chinese cities,
//!   with customers subscribing IaaS VMs placed by the provider (§2);
//! * **clouds** (AliCloud / Huawei Cloud / a generic Azure-like), with a
//!   handful of large regions per country.
//!
//! Modules:
//! * [`geo_china`] — an embedded gazetteer of Chinese provinces and cities
//!   (coordinates + population weights) used to synthesize deployments and
//!   user populations;
//! * [`ids`] — typed identifiers for sites/servers/VMs/apps/customers;
//! * [`resources`] — VM and server resource vectors (CPU/mem/disk/bandwidth);
//! * [`site`] — sites and servers with capacity/allocation accounting;
//! * [`deployment`] — deployment builders (`nep`, `cloud`) and nearest-site
//!   queries;
//! * [`placement`] — NEP's documented VM-placement policy: among feasible
//!   servers, prefer low sales ratio and low observed CPU usage (§2,
//!   "NEP favors the servers that are low in usage in terms of the sales
//!   ratio and actual CPU usage");
//! * [`sales`] — per-server/per-site sales-rate summaries (§4.1);
//! * [`density`] — the Table 1 deployment-density comparison;
//! * [`contention`] — multi-tenant CPU-steal / bandwidth-sharing factors
//!   as deterministic functions of colocation density (default off);
//! * [`provider`] — pluggable provider profiles (the paper's NEP plus a
//!   synthetic consolidated "metro edge" provider) bundling site density,
//!   tariff scale and contention defaults.
//!
//! ## Implemented vs. omitted
//! Omitted deliberately: VM live migration and hot resource scaling — §4.3
//! explicitly notes NEP does *not* support them (VM resizing needs a
//! reboot), and their absence is part of the findings we reproduce.
//!
//! ## Observability
//! [`placement`] reports placement attempts and outcomes to
//! `edgescope-obs` scoped metrics (`platform.placement_requests`,
//! `platform.placement_vms_placed`,
//! `platform.placement_rejected_scope`,
//! `platform.placement_rejected_capacity`) when a scope is active;
//! instrumentation never changes placement decisions.

pub mod contention;
pub mod density;
pub mod deployment;
pub mod geo_china;
pub mod ids;
pub mod placement;
pub mod provider;
pub mod resources;
pub mod sales;
pub mod site;

pub use contention::Contention;
pub use deployment::Deployment;
pub use geo_china::{City, CITIES};
pub use ids::{AppId, CustomerId, ServerId, SiteId, VmId};
pub use placement::{PlacementError, PlacementPolicy, SubscriptionRequest};
pub use provider::ProviderProfile;
pub use resources::{ServerCapacity, VmSpec};
pub use site::{Server, Site};
