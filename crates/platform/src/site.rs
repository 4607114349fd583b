//! Sites and servers with allocation accounting.
//!
//! A site is a small datacenter at one city; a server hosts VMs until its
//! capacity is exhausted. Allocation state is what the placement policy
//! (§2) and the sales-rate analysis (§4.1) read.

use crate::geo_china::City;
use crate::ids::{ServerId, SiteId, VmId};
use crate::resources::{ServerCapacity, VmSpec};
use edgescope_net::geo::GeoPoint;

/// One physical server.
#[derive(Debug, Clone)]
pub struct Server {
    /// Globally-unique server id.
    pub id: ServerId,
    /// Total capacity.
    pub capacity: ServerCapacity,
    allocated_cpu: u32,
    allocated_mem: u32,
    allocated_disk: u32,
    vms: Vec<(VmId, VmSpec)>,
    /// Mean CPU utilization observed on this server (0–1), updated by the
    /// platform from monitoring; the placement policy reads it.
    pub observed_cpu_util: f64,
}

impl Server {
    /// A fresh, empty server.
    pub fn new(id: ServerId, capacity: ServerCapacity) -> Self {
        Server {
            id,
            capacity,
            allocated_cpu: 0,
            allocated_mem: 0,
            allocated_disk: 0,
            vms: Vec::new(),
            observed_cpu_util: 0.0,
        }
    }

    /// Remaining free capacity.
    pub fn free(&self) -> ServerCapacity {
        ServerCapacity {
            cpu_cores: self.capacity.cpu_cores - self.allocated_cpu,
            mem_gb: self.capacity.mem_gb - self.allocated_mem,
            disk_gb: self.capacity.disk_gb.saturating_sub(self.allocated_disk),
        }
    }

    /// Whether `spec` fits on this server right now.
    pub fn fits(&self, spec: &VmSpec) -> bool {
        ServerCapacity::fits(&self.free(), spec)
    }

    /// Allocate a VM. Panics if it does not fit — the placement policy must
    /// check first; violating capacity silently would corrupt every
    /// downstream statistic.
    pub fn allocate(&mut self, vm: VmId, spec: VmSpec) {
        assert!(self.fits(&spec), "allocation over capacity on {}", self.id);
        self.allocated_cpu += spec.cpu_cores;
        self.allocated_mem += spec.mem_gb;
        self.allocated_disk += spec.disk_gb;
        self.vms.push((vm, spec));
    }

    /// Release a VM (e.g. subscription ends). Returns true if it was here.
    pub fn release(&mut self, vm: VmId) -> bool {
        if let Some(pos) = self.vms.iter().position(|(v, _)| *v == vm) {
            let (_, spec) = self.vms.remove(pos);
            self.allocated_cpu -= spec.cpu_cores;
            self.allocated_mem -= spec.mem_gb;
            self.allocated_disk -= spec.disk_gb;
            true
        } else {
            false
        }
    }

    /// VMs currently hosted here.
    pub fn vms(&self) -> &[(VmId, VmSpec)] {
        &self.vms
    }

    /// Fraction of CPU cores sold (the paper's "sales ratio").
    pub fn cpu_sales_ratio(&self) -> f64 {
        self.allocated_cpu as f64 / self.capacity.cpu_cores as f64
    }

    /// Fraction of memory sold.
    pub fn mem_sales_ratio(&self) -> f64 {
        self.allocated_mem as f64 / self.capacity.mem_gb as f64
    }

    /// Colocation density in `[0, 1]` — the input to
    /// [`crate::contention::Contention`]'s degradation factors.
    ///
    /// `cpu_sales_ratio · (1 − 1/k)` for `k` hosted VMs: a server with at
    /// most one VM has no neighbours and density 0 however large the VM;
    /// with many tenants the density approaches the fraction of cores
    /// sold. Deterministic — no sampling, so contention experiments stay
    /// byte-identical across worker counts.
    pub fn colocation_density(&self) -> f64 {
        let k = self.vms.len();
        if k <= 1 {
            return 0.0;
        }
        (self.cpu_sales_ratio() * (1.0 - 1.0 / k as f64)).clamp(0.0, 1.0)
    }

    /// The colocation density this server would have after also hosting a
    /// VM of `spec` — the counterfactual a contention-aware placer cares
    /// about (an incoming tenant experiences the box *with itself on it*,
    /// so a server holding one large VM is no longer density-0 once it
    /// gains a neighbour).
    pub fn density_with(&self, spec: &VmSpec) -> f64 {
        let k = self.vms.len() + 1;
        if k <= 1 {
            return 0.0;
        }
        let ratio = (self.allocated_cpu + spec.cpu_cores) as f64 / self.capacity.cpu_cores as f64;
        (ratio * (1.0 - 1.0 / k as f64)).clamp(0.0, 1.0)
    }
}

/// A datacenter site at one city.
#[derive(Debug, Clone)]
pub struct Site {
    /// Site id.
    pub id: SiteId,
    /// The city the site serves.
    pub city: City,
    /// The site's actual coordinates — DCs sit in suburbs/counties, not at
    /// the city-hall centroid, so deployments offset this from the city.
    pub location: GeoPoint,
    /// The physical servers.
    pub servers: Vec<Server>,
}

impl Site {
    /// A site at `location` in `city` with `n_servers` empty servers of
    /// identical `capacity`.
    pub fn uniform_at(
        id: SiteId,
        city: City,
        location: GeoPoint,
        n_servers: usize,
        capacity: ServerCapacity,
        next_server_id: &mut u32,
    ) -> Self {
        assert!(n_servers > 0, "site needs servers");
        let servers = (0..n_servers)
            .map(|_| {
                let sid = ServerId(*next_server_id);
                *next_server_id += 1;
                Server::new(sid, capacity)
            })
            .collect();
        Site {
            id,
            city,
            location,
            servers,
        }
    }

    /// The site's coordinates.
    pub fn geo(&self) -> GeoPoint {
        self.location
    }

    /// Province the site sits in.
    pub fn province(&self) -> &'static str {
        self.city.province
    }

    /// Total and allocated CPU cores across the site.
    pub fn cpu_totals(&self) -> (u64, u64) {
        let total = self
            .servers
            .iter()
            .map(|s| s.capacity.cpu_cores as u64)
            .sum();
        let sold = self
            .servers
            .iter()
            .map(|s| (s.capacity.cpu_cores - s.free().cpu_cores) as u64)
            .sum();
        (total, sold)
    }

    /// Site-level CPU sales ratio.
    pub fn cpu_sales_ratio(&self) -> f64 {
        let (total, sold) = self.cpu_totals();
        sold as f64 / total as f64
    }

    /// Site-level memory sales ratio.
    pub fn mem_sales_ratio(&self) -> f64 {
        let total: u64 = self.servers.iter().map(|s| s.capacity.mem_gb as u64).sum();
        let sold: u64 = self
            .servers
            .iter()
            .map(|s| (s.capacity.mem_gb - s.free().mem_gb) as u64)
            .sum();
        sold as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo_china::city_by_name;

    fn server() -> Server {
        Server::new(ServerId(0), ServerCapacity::new(64, 256, 4000))
    }

    #[test]
    fn allocate_and_release_roundtrip() {
        let mut s = server();
        let spec = VmSpec::new(16, 64, 500, 100.0);
        s.allocate(VmId(1), spec);
        assert_eq!(s.free().cpu_cores, 48);
        assert_eq!(s.cpu_sales_ratio(), 0.25);
        assert!(s.release(VmId(1)));
        assert_eq!(s.free().cpu_cores, 64);
        assert_eq!(s.cpu_sales_ratio(), 0.0);
        assert!(!s.release(VmId(1)), "double release");
    }

    #[test]
    #[should_panic(expected = "over capacity")]
    fn over_allocation_panics() {
        let mut s = server();
        s.allocate(VmId(1), VmSpec::new(64, 256, 1000, 0.0));
        s.allocate(VmId(2), VmSpec::new(1, 1, 1, 0.0));
    }

    #[test]
    fn fits_respects_remaining() {
        let mut s = server();
        s.allocate(VmId(1), VmSpec::new(60, 128, 100, 0.0));
        assert!(s.fits(&VmSpec::new(4, 64, 100, 0.0)));
        assert!(!s.fits(&VmSpec::new(5, 64, 100, 0.0)));
    }

    #[test]
    fn site_aggregates() {
        let city = *city_by_name("Chengdu").unwrap();
        let mut next = 0;
        let mut site = Site::uniform_at(
            SiteId(0),
            city,
            city.geo(),
            4,
            ServerCapacity::new(32, 128, 2000),
            &mut next,
        );
        assert_eq!(next, 4);
        site.servers[0].allocate(VmId(0), VmSpec::new(16, 32, 100, 0.0));
        site.servers[1].allocate(VmId(1), VmSpec::new(16, 32, 100, 0.0));
        let (total, sold) = site.cpu_totals();
        assert_eq!(total, 128);
        assert_eq!(sold, 32);
        assert_eq!(site.cpu_sales_ratio(), 0.25);
        let vms: usize = site.servers.iter().map(|s| s.vms().len()).sum();
        assert_eq!(vms, 2);
        assert_eq!(site.province(), "Sichuan");
    }
}
