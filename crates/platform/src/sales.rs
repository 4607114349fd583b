//! Sales-rate summaries.
//!
//! §4.1 ("Servers/sites sales rate"): the fraction of CPU/memory sold per
//! server or site is highly skewed across sites (95th-percentile ≈5× the
//! 5th-percentile for CPU) and CPU saturates before memory (median CPU
//! sales ratio ≈2× memory). These helpers compute those statistics from a
//! deployment's allocation state.

use crate::deployment::Deployment;

/// Per-site and per-server sales-rate vectors for one resource.
#[derive(Debug, Clone, PartialEq)]
pub struct SalesRates {
    /// One entry per site: fraction of the resource sold.
    pub per_site: Vec<f64>,
    /// One entry per server.
    pub per_server: Vec<f64>,
}

/// CPU sales rates across a deployment.
pub fn cpu_sales(deployment: &Deployment) -> SalesRates {
    SalesRates {
        per_site: deployment
            .sites
            .iter()
            .map(|s| s.cpu_sales_ratio())
            .collect(),
        per_server: deployment
            .sites
            .iter()
            .flat_map(|s| s.servers.iter().map(|sv| sv.cpu_sales_ratio()))
            .collect(),
    }
}

/// Memory sales rates across a deployment.
pub fn mem_sales(deployment: &Deployment) -> SalesRates {
    SalesRates {
        per_site: deployment
            .sites
            .iter()
            .map(|s| s.mem_sales_ratio())
            .collect(),
        per_server: deployment
            .sites
            .iter()
            .flat_map(|s| s.servers.iter().map(|sv| sv.mem_sales_ratio()))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::Deployment;
    use crate::ids::VmId;
    use crate::resources::VmSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rates_reflect_allocations() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = Deployment::nep(&mut rng, 10);
        // Sell half the cores and a quarter of the memory of one server.
        let cap = d.sites[0].servers[0].capacity;
        d.sites[0].servers[0].allocate(
            VmId(0),
            VmSpec::new(cap.cpu_cores / 2, cap.mem_gb / 4, 10, 0.0),
        );
        let cpu = cpu_sales(&d);
        let mem = mem_sales(&d);
        assert!((cpu.per_server[0] - 0.5).abs() < 0.02);
        assert!((mem.per_server[0] - 0.25).abs() < 0.02);
        assert!(cpu.per_site[0] > 0.0);
        // Untouched sites are at zero.
        assert_eq!(cpu.per_site[1], 0.0);
        assert_eq!(cpu.per_site.len(), 10);
        assert_eq!(cpu.per_server.len(), d.n_servers());
    }
}
