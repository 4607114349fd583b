//! Resource vectors for VMs and servers.
//!
//! §2.1.2's trace schema records, per VM and per server, the maximum CPU
//! cores, memory, and disk; NEP additionally bills public bandwidth, so a
//! [`VmSpec`] carries a subscribed bandwidth figure as well.

/// Resources subscribed by one VM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmSpec {
    /// Subscribed vCPU cores.
    pub cpu_cores: u32,
    /// Subscribed memory in GB.
    pub mem_gb: u32,
    /// Subscribed disk in GB.
    pub disk_gb: u32,
    /// Subscribed public bandwidth in Mbps (what the customer pays for).
    pub bandwidth_mbps: f64,
}

impl VmSpec {
    /// A convenience constructor.
    pub fn new(cpu_cores: u32, mem_gb: u32, disk_gb: u32, bandwidth_mbps: f64) -> Self {
        assert!(cpu_cores > 0, "VM needs at least one core");
        assert!(mem_gb > 0, "VM needs memory");
        assert!(bandwidth_mbps >= 0.0, "negative bandwidth");
        VmSpec {
            cpu_cores,
            mem_gb,
            disk_gb,
            bandwidth_mbps,
        }
    }
}

/// Capacity of one physical server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerCapacity {
    /// Total vCPU cores.
    pub cpu_cores: u32,
    /// Total memory in GB.
    pub mem_gb: u32,
    /// Total disk in GB.
    pub disk_gb: u32,
}

impl ServerCapacity {
    /// A capacity vector; panics on an empty server.
    pub fn new(cpu_cores: u32, mem_gb: u32, disk_gb: u32) -> Self {
        assert!(cpu_cores > 0 && mem_gb > 0, "empty server");
        ServerCapacity {
            cpu_cores,
            mem_gb,
            disk_gb,
        }
    }

    /// Whether a VM of `spec` fits in `free` remaining resources.
    pub fn fits(free: &ServerCapacity, spec: &VmSpec) -> bool {
        free.cpu_cores >= spec.cpu_cores
            && free.mem_gb >= spec.mem_gb
            && free.disk_gb >= spec.disk_gb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_checks_every_dimension() {
        let free = ServerCapacity::new(8, 16, 100);
        assert!(ServerCapacity::fits(&free, &VmSpec::new(8, 16, 100, 10.0)));
        assert!(!ServerCapacity::fits(&free, &VmSpec::new(9, 16, 100, 10.0)));
        assert!(!ServerCapacity::fits(&free, &VmSpec::new(8, 17, 100, 10.0)));
        assert!(!ServerCapacity::fits(&free, &VmSpec::new(8, 16, 101, 10.0)));
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_core_vm_rejected() {
        VmSpec::new(0, 1, 1, 0.0);
    }
}
