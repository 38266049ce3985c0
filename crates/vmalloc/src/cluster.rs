//! Cluster configuration: server shapes and pool sizes.

/// The allocatable shape of one server SKU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerShape {
    /// Allocatable cores per server.
    pub cores: u32,
    /// Allocatable memory per server, GB.
    pub mem_gb: f64,
}

impl ServerShape {
    /// The Gen3 baseline shape: 80 cores, 768 GB (memory:core 9.6).
    pub fn baseline_gen3() -> Self {
        Self { cores: 80, mem_gb: 768.0 }
    }

    /// The GreenSKU shape: 128 cores, 1024 GB (memory:core 8).
    pub fn greensku() -> Self {
        Self { cores: 128, mem_gb: 1024.0 }
    }

    /// Memory per core in GB.
    pub fn memory_per_core(&self) -> f64 {
        self.mem_gb / f64::from(self.cores)
    }
}

/// A two-pool cluster: baseline SKUs plus GreenSKUs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Number of baseline servers.
    pub baseline_count: u32,
    /// Baseline server shape.
    pub baseline_shape: ServerShape,
    /// Number of GreenSKU servers.
    pub green_count: u32,
    /// GreenSKU server shape.
    pub green_shape: ServerShape,
}

impl ClusterConfig {
    /// A baseline-only cluster of `n` Gen3 servers.
    pub fn baseline_only(n: u32) -> Self {
        Self {
            baseline_count: n,
            baseline_shape: ServerShape::baseline_gen3(),
            green_count: 0,
            green_shape: ServerShape::greensku(),
        }
    }

    /// A mixed cluster with the standard shapes.
    pub fn mixed(baseline: u32, green: u32) -> Self {
        Self {
            baseline_count: baseline,
            baseline_shape: ServerShape::baseline_gen3(),
            green_count: green,
            green_shape: ServerShape::greensku(),
        }
    }

    /// Total allocatable cores across both pools.
    pub fn total_cores(&self) -> u64 {
        u64::from(self.baseline_count) * u64::from(self.baseline_shape.cores)
            + u64::from(self.green_count) * u64::from(self.green_shape.cores)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn standard_shapes_match_paper() {
        let b = ServerShape::baseline_gen3();
        assert!((b.memory_per_core() - 9.6).abs() < 1e-9);
        let g = ServerShape::greensku();
        assert!((g.memory_per_core() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn totals() {
        let c = ClusterConfig::mixed(10, 5);
        assert_eq!(c.total_cores(), 10 * 80 + 5 * 128);
        assert_eq!(ClusterConfig::baseline_only(3).green_count, 0);
    }
}
