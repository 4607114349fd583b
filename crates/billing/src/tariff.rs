//! The Table 5 price sheets (RMB).
//!
//! Cloud hardware is quoted as bundle prices in the paper; we carry
//! per-unit rates fitted to those bundles (the bundles themselves are
//! asserted in tests within the paper's rounding). Cloud network pricing
//! is implemented exactly as the appendix's worked examples compute it.
//! NEP bandwidth prices vary by city and operator: 25–50 /Mbps/month on
//! China Telecom, 15–30 on China Mobile (Table 5's last rows).
//!
//! The two clouds are two [`CloudTariff`] values. NEP has one price
//! sheet, so its hardware prices are constants ([`NEP_CPU_MONTH`],
//! [`NEP_MEM_MONTH`], [`NEP_DISK_MONTH`]) and [`hardware_month`] and
//! [`bandwidth_unit_price`] price NEP directly.

/// The three cloud network billing models (§4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NetworkModel {
    /// On-demand, by bandwidth level per hour.
    OnDemandByBandwidth,
    /// On-demand, by transferred volume.
    OnDemandByQuantity,
    /// Pre-reserved fixed monthly bandwidth.
    PreReservedFixed,
}

impl NetworkModel {
    /// All three models, in Table 3 order.
    pub const ALL: [NetworkModel; 3] = [
        NetworkModel::OnDemandByBandwidth,
        NetworkModel::OnDemandByQuantity,
        NetworkModel::PreReservedFixed,
    ];

    /// Human-readable label matching Table 3.
    pub fn label(&self) -> &'static str {
        match self {
            NetworkModel::OnDemandByBandwidth => "on-demand, by bandwidth",
            NetworkModel::OnDemandByQuantity => "on-demand, by quantity",
            NetworkModel::PreReservedFixed => "pre-reserved (fixed)",
        }
    }
}

/// A cloud platform's tariff.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudTariff {
    /// Platform display name.
    pub name: &'static str,
    /// RMB per vCPU per month (fitted to the bundle table).
    pub cpu_month: f64,
    /// RMB per GB memory per month.
    pub mem_month: f64,
    /// RMB per GB SSD per month.
    pub disk_month: f64,
    /// Fixed monthly price for the first 5 Mbps — per-Mbps marginal steps
    /// (AliCloud's schedule is irregular: 23/23/25/25/29).
    pub fixed_first5_steps: [f64; 5],
    /// Fixed monthly price per Mbps beyond 5.
    pub fixed_above5: f64,
    /// On-demand hourly price per Mbps at or below 5 Mbps.
    pub od_low_hour: f64,
    /// On-demand hourly price per Mbps above 5 Mbps.
    pub od_high_hour: f64,
    /// Price per GB transferred.
    pub per_gb: f64,
}

impl CloudTariff {
    /// Alibaba Cloud (vCloud-1). Bundles: 2C+8G = 240, 2C+16G = 318
    /// ⇒ mem = 9.75/GB, cpu = 81/core. Fixed bandwidth: 23/46/71/96/125
    /// cumulative for 1–5 Mbps, 80/Mbps beyond.
    pub fn alicloud() -> Self {
        CloudTariff {
            name: "AliCloud (vCloud-1)",
            cpu_month: 81.0,
            mem_month: 9.75,
            disk_month: 1.0,
            fixed_first5_steps: [23.0, 23.0, 25.0, 25.0, 29.0],
            fixed_above5: 80.0,
            od_low_hour: 0.063,
            od_high_hour: 0.248,
            per_gb: 0.8,
        }
    }

    /// Huawei Cloud (vCloud-2). Bundles: 1C+1G = 32.2 … 2C+8G = 251.6;
    /// a linear fit gives ≈ 26/core + 25/GB. Fixed bandwidth: 23/Mbps up
    /// to 5, 80 beyond. On-demand high tier 0.25.
    pub fn huawei() -> Self {
        CloudTariff {
            name: "Huawei Cloud (vCloud-2)",
            cpu_month: 26.0,
            mem_month: 25.0,
            disk_month: 0.7,
            fixed_first5_steps: [23.0; 5],
            fixed_above5: 80.0,
            od_low_hour: 0.063,
            od_high_hour: 0.25,
            per_gb: 0.8,
        }
    }

    /// The short display name: [`name`](Self::name) up to its first space
    /// (`AliCloud`, `Huawei`), as Table 5's rows spell it.
    pub fn short_name(&self) -> &'static str {
        self.name
            .split_once(' ')
            .map_or(self.name, |(short, _)| short)
    }

    /// Monthly hardware price of a (cores, mem GB, disk GB) subscription.
    pub fn hardware_month(&self, cores: u32, mem_gb: u32, disk_gb: u32) -> f64 {
        self.cpu_month * cores as f64
            + self.mem_month * mem_gb as f64
            + self.disk_month * disk_gb as f64
    }

    /// Monthly price of a pre-reserved fixed bandwidth of `mbps`
    /// (fractions round up — you reserve whole Mbps).
    pub fn fixed_month(&self, mbps: f64) -> f64 {
        assert!(mbps >= 0.0, "negative bandwidth");
        let whole = mbps.ceil() as usize;
        let mut cost = 0.0;
        for step in 0..whole.min(5) {
            cost += self.fixed_first5_steps[step];
        }
        if whole > 5 {
            cost += (whole - 5) as f64 * self.fixed_above5;
        }
        cost
    }

    /// On-demand-by-bandwidth price of holding `mbps` for one hour.
    pub fn on_demand_hour(&self, mbps: f64) -> f64 {
        assert!(mbps >= 0.0, "negative bandwidth");
        let low = mbps.min(5.0) * self.od_low_hour;
        let high = (mbps - 5.0).max(0.0) * self.od_high_hour;
        low + high
    }

    /// Price of transferring `gb` of traffic.
    pub fn quantity(&self, gb: f64) -> f64 {
        assert!(gb >= 0.0, "negative volume");
        gb * self.per_gb
    }
}

/// NEP's price per vCPU per month (Table 5's NEP row).
pub const NEP_CPU_MONTH: f64 = 65.0;
/// NEP's price per GB of memory per month.
pub const NEP_MEM_MONTH: f64 = 20.0;
/// NEP's price per GB of disk per month.
pub const NEP_DISK_MONTH: f64 = 0.35;

/// The network operator a site peers with (drives the bandwidth price
/// band).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operator {
    /// China Telecom: 25–50 /Mbps/month.
    Telecom,
    /// China Mobile: 15–30 /Mbps/month.
    Cmcc,
}

/// NEP's monthly hardware price of a (cores, mem GB, disk GB)
/// subscription.
pub fn hardware_month(cores: u32, mem_gb: u32, disk_gb: u32) -> f64 {
    NEP_CPU_MONTH * cores as f64 + NEP_MEM_MONTH * mem_gb as f64 + NEP_DISK_MONTH * disk_gb as f64
}

/// NEP's bandwidth unit price (RMB/Mbps/month) at a given city for an
/// operator. Deterministic in the city name (a stable hash positions
/// the city inside the operator's band): big coastal metros price at
/// the top of the band, as in Table 5's Guangzhou vs. Chengdu
/// examples.
pub fn bandwidth_unit_price(city: &str, operator: Operator) -> f64 {
    let (lo, hi) = match operator {
        Operator::Telecom => (25.0, 50.0),
        Operator::Cmcc => (15.0, 30.0),
    };
    // Table 5 pins two cities exactly; others hash into the band.
    let frac = match city {
        "Guangzhou" => 1.0,
        "Chengdu" => 0.0,
        _ => {
            let mut h: u64 = 0xcbf29ce484222325;
            for b in city.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            (h % 1000) as f64 / 999.0
        }
    };
    lo + frac * (hi - lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_names_are_the_first_word_of_the_display_names() {
        assert_eq!(CloudTariff::alicloud().short_name(), "AliCloud");
        assert_eq!(CloudTariff::huawei().short_name(), "Huawei");
    }

    #[test]
    fn alicloud_fixed_worked_examples() {
        // Table 5: 2 Mbps ⇒ 46/month; 5 ⇒ 125; 7 ⇒ 125 + 2·80 = 285.
        let t = CloudTariff::alicloud();
        assert_eq!(t.fixed_month(2.0), 46.0);
        assert_eq!(t.fixed_month(5.0), 125.0);
        assert_eq!(t.fixed_month(7.0), 285.0);
        // Interior steps: 3 ⇒ 71, 4 ⇒ 96.
        assert_eq!(t.fixed_month(3.0), 71.0);
        assert_eq!(t.fixed_month(4.0), 96.0);
        assert_eq!(t.fixed_month(0.0), 0.0);
    }

    #[test]
    fn huawei_fixed_worked_examples() {
        // Table 5: 2 ⇒ 46; 7 ⇒ 23·5 + 2·80 = 275.
        let t = CloudTariff::huawei();
        assert_eq!(t.fixed_month(2.0), 46.0);
        assert_eq!(t.fixed_month(7.0), 275.0);
    }

    #[test]
    fn on_demand_worked_examples() {
        // Table 5: 2 Mbps for a month ⇒ (24·30)·(2·0.063) = 90.72 on both
        // clouds; Huawei 7 Mbps ⇒ (24·30)·[(5·0.063) + 2·0.25] = 586.8.
        // (The AliCloud 7-Mbps example in the paper contains a typo —
        // "(2·0.063)" where every other row uses the ≤5-Mbps tier in
        // full — so we assert the consistent formula.)
        let hours = 24.0 * 30.0;
        for t in [CloudTariff::alicloud(), CloudTariff::huawei()] {
            assert!(
                (hours * t.on_demand_hour(2.0) - 90.72).abs() < 1e-9,
                "{}",
                t.name
            );
        }
        let hw = CloudTariff::huawei();
        assert!((hours * hw.on_demand_hour(7.0) - 586.8).abs() < 1e-9);
        let ali = CloudTariff::alicloud();
        let expect = hours * (5.0 * 0.063 + 2.0 * 0.248);
        assert!((hours * ali.on_demand_hour(7.0) - expect).abs() < 1e-9);
    }

    #[test]
    fn quantity_worked_example() {
        // Table 5: 1 GB ⇒ 0.8.
        assert_eq!(CloudTariff::alicloud().quantity(1.0), 0.8);
        assert_eq!(CloudTariff::huawei().quantity(1.0), 0.8);
    }

    #[test]
    fn alicloud_bundles_recovered() {
        // 2C+8G ⇒ 240, 2C+16G ⇒ 318 (paper bundle prices).
        let t = CloudTariff::alicloud();
        let b1 = t.cpu_month * 2.0 + t.mem_month * 8.0;
        let b2 = t.cpu_month * 2.0 + t.mem_month * 16.0;
        assert!((b1 - 240.0).abs() < 1.0, "2C+8G {b1}");
        assert!((b2 - 318.0).abs() < 1.0, "2C+16G {b2}");
    }

    #[test]
    fn nep_bandwidth_examples() {
        // Table 5: guangzhou-telecom 2 Mbps ⇒ 50·2 = 100; chengdu-telecom
        // 2 ⇒ 25·2 = 50; guangzhou-cmcc 2 ⇒ 30·2 = 60; chengdu-cmcc 2 ⇒
        // 15·2 = 30.
        assert_eq!(
            bandwidth_unit_price("Guangzhou", Operator::Telecom) * 2.0,
            100.0
        );
        assert_eq!(
            bandwidth_unit_price("Chengdu", Operator::Telecom) * 2.0,
            50.0
        );
        assert_eq!(
            bandwidth_unit_price("Guangzhou", Operator::Cmcc) * 2.0,
            60.0
        );
        assert_eq!(bandwidth_unit_price("Chengdu", Operator::Cmcc) * 2.0, 30.0);
    }

    #[test]
    fn nep_bandwidth_in_band_and_deterministic() {
        for city in ["Beijing", "Wuhan", "Harbin", "Lhasa"] {
            let p = bandwidth_unit_price(city, Operator::Telecom);
            assert!((25.0..=50.0).contains(&p), "{city}: {p}");
            assert_eq!(p, bandwidth_unit_price(city, Operator::Telecom));
            let p = bandwidth_unit_price(city, Operator::Cmcc);
            assert!((15.0..=30.0).contains(&p), "{city}: {p}");
        }
    }

    #[test]
    fn nep_hardware_slightly_pricier_than_alicloud() {
        // §4.5 breakdown: NEP charges 3–20 % more for hardware.
        let ali = CloudTariff::alicloud();
        let n = hardware_month(8, 32, 100);
        let a = ali.hardware_month(8, 32, 100);
        let premium = n / a - 1.0;
        assert!((0.0..0.30).contains(&premium), "premium {premium}");
    }

    #[test]
    fn nep_unit_bandwidth_up_to_13x_cheaper() {
        // §4.5: NEP's network unit price is up to 13× cheaper. Compare the
        // cheapest NEP city (15/Mbps/mo) against AliCloud's effective
        // on-demand rate above 5 Mbps (0.248·720 ≈ 178/Mbps/mo).
        let cloud_effective = 0.248 * 24.0 * 30.0;
        let ratio = cloud_effective / 15.0;
        assert!((10.0..=13.5).contains(&ratio), "ratio {ratio}");
    }
}
