//! Table 5 (Appendix D): the billing-model sheet, regenerated from the
//! tariff engines — every cell is *computed* by the same code that prices
//! Table 3, so the sheet and the cost study cannot drift apart.

use crate::report::ExperimentReport;
use crate::scenario::Platform;
use edgescope_analysis::table::Table;
use edgescope_billing::tariff::{
    bandwidth_unit_price, CloudTariff, Operator, NEP_CPU_MONTH, NEP_DISK_MONTH, NEP_MEM_MONTH,
};

/// Regenerate Table 5.
pub fn run() -> ExperimentReport {
    let mut report = ExperimentReport::new("table5", "Billing models (RMB)");

    // Hardware sheet: the clouds, each named by its tariff, then NEP.
    let clouds: Vec<CloudTariff> = Platform::ALL.iter().filter_map(|p| p.tariff()).collect();
    let mut th = Table::new(
        "hardware (per month)",
        &["platform", "2C+8G", "2C+16G", "8C+32G", "disk 100 GB"],
    );
    let cloud_rows = clouds
        .iter()
        .map(|t| (t.short_name(), t.cpu_month, t.mem_month, t.disk_month));
    let nep_row = ("NEP", NEP_CPU_MONTH, NEP_MEM_MONTH, NEP_DISK_MONTH);
    for (name, cpu, mem, disk) in cloud_rows.chain([nep_row]) {
        th.row(vec![
            name.to_string(),
            format!("{:.0}", 2.0 * cpu + 8.0 * mem),
            format!("{:.0}", 2.0 * cpu + 16.0 * mem),
            format!("{:.0}", 8.0 * cpu + 32.0 * mem),
            format!("{:.0}", 100.0 * disk),
        ]);
    }
    report.tables.push(th);

    // Network sheet: the appendix's worked examples, computed live.
    let hours = 24.0 * 30.0;
    let mut tn = Table::new(
        "network (per month)",
        &["platform", "model", "2 Mbps", "7 Mbps"],
    );
    for t in &clouds {
        let name = t.short_name();
        tn.row(vec![
            name.to_string(),
            "pre-reserved fixed".into(),
            format!("{:.0}", t.fixed_month(2.0)),
            format!("{:.0}", t.fixed_month(7.0)),
        ]);
        tn.row(vec![
            name.to_string(),
            "on-demand by bandwidth".into(),
            format!("{:.2}", hours * t.on_demand_hour(2.0)),
            format!("{:.2}", hours * t.on_demand_hour(7.0)),
        ]);
        tn.row(vec![
            name.to_string(),
            "by quantity (1 GB)".into(),
            format!("{:.2}", t.quantity(1.0)),
            "-".into(),
        ]);
    }
    for (city, op, label) in [
        ("Guangzhou", Operator::Telecom, "guangzhou-telecom"),
        ("Chengdu", Operator::Telecom, "chengdu-telecom"),
        ("Guangzhou", Operator::Cmcc, "guangzhou-cmcc"),
        ("Chengdu", Operator::Cmcc, "chengdu-cmcc"),
    ] {
        let unit = bandwidth_unit_price(city, op);
        tn.row(vec![
            "NEP".to_string(),
            format!("95th-pct daily peak, {label} ({unit:.0}/Mbps)"),
            format!("{:.0}", 2.0 * unit),
            format!("{:.0}", 7.0 * unit),
        ]);
    }
    report.tables.push(tn);
    report.notes.push(
        "every cell computed by edgescope-billing; the appendix's worked examples (46/285/275/90.72/586.8/0.8, NEP city examples) are asserted in its unit tests".into(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sheet_reproduces_worked_examples() {
        let r = run();
        let text = r.render();
        // AliCloud fixed: 2 Mbps ⇒ 46; 7 Mbps ⇒ 285. Huawei 7 ⇒ 275.
        assert!(text.contains("46"));
        assert!(text.contains("285"));
        assert!(text.contains("275"));
        // On-demand monthly at 2 Mbps ⇒ 90.72 on both clouds.
        assert!(text.contains("90.72"));
        // NEP city examples: guangzhou-telecom 2 Mbps ⇒ 100.
        assert!(text.contains("100"));
        assert_eq!(r.tables.len(), 2);
    }
}
