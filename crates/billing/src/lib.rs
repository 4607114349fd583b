#![warn(missing_docs)]
//! # edgescope-billing
//!
//! Billing engines reproducing §4.5 and Appendix D:
//!
//! * [`tariff`] — the Table 5 price sheets: NEP (per-core/GB/Mbps, city-
//!   and operator-dependent bandwidth price), AliCloud (vCloud-1) and
//!   Huawei Cloud (vCloud-2) with all three network billing models
//!   (on-demand by bandwidth, on-demand by traffic quantity, pre-reserved
//!   fixed bandwidth). Unit tests reproduce the appendix's worked
//!   examples.
//! * [`bill`] — monthly bills from traces. NEP's network billing follows
//!   Appendix D exactly: per-site traffic aggregation, daily peak
//!   bandwidth, the 95th percentile of daily peaks (the "4th highest" of a
//!   month) times the local unit price. Cloud billing integrates tariffs
//!   over the 5-minute bandwidth samples (clouds bill fine-grained).
//! * [`vcloud`] — the §4.5 "virtual baseline": NEP VMs are clustered onto
//!   a cloud's region footprint by geographic distance and re-billed under
//!   the cloud tariff, producing Table 3's cost ratios over the 50
//!   heaviest apps.
//!
//! Prices are in RMB/month as in the paper.

pub mod bill;
pub mod tariff;
pub mod vcloud;

pub use bill::{
    cloud_network_month, daily_peaks, nep_app_bill, nep_contended_network_month, nep_network_month,
    p95_daily_peak, ContendedBill,
};
pub use tariff::{CloudTariff, NetworkModel};
pub use vcloud::{table3_ratios, CostRatios, TrafficGranularity, VirtualCloudReport};
