//! Hardware-sensitivity vectors: how an application's per-core
//! performance responds to SKU architectural parameters.
//!
//! The performance crate combines a [`HardwareSensitivity`] with a SKU
//! profile into a per-core slowdown. The model has five terms, each
//! capturing one effect the paper measures:
//!
//! - **frequency** — single-thread speed scales with core frequency for
//!   compute-bound apps (`freq_weight`);
//! - **socket-level LLC capacity** — working sets that fit Genoa's
//!   384 MiB but not a 256 MiB LLC explain why some apps (Masstree,
//!   Xapian) only struggle against Gen3 (`socket_cache_*`);
//! - **per-core LLC share** — thread-local working sets that need more
//!   than Bergamo's 2 MiB/core explain apps that struggle against every
//!   generation (Silo) (`core_cache_*`);
//! - **memory bandwidth per core** — demand above the SKU's share
//!   degrades throughput proportionally (`mem_bandwidth_gbps_per_core`);
//! - **CXL latency** — the slowdown when a fraction of memory traffic is
//!   served at CXL latency instead of local DDR5 (`cxl_*`, Fig. 8).

/// Per-application sensitivity to SKU hardware parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareSensitivity {
    /// Weight of core-frequency differences (0 = insensitive,
    /// 1 = perfectly frequency-bound).
    pub freq_weight: f64,
    /// Socket-level LLC working set in MiB (0 = insensitive).
    pub socket_cache_mib: f64,
    /// Penalty weight when the socket LLC is smaller than the working
    /// set.
    pub socket_cache_weight: f64,
    /// Per-core LLC working set in MiB (0 = insensitive).
    pub core_cache_mib: f64,
    /// Penalty weight when the per-core LLC share is smaller than the
    /// per-core working set.
    pub core_cache_weight: f64,
    /// Memory-bandwidth demand per core in GB/s; throughput degrades by
    /// `demand / available` when the SKU offers less.
    pub mem_bandwidth_gbps_per_core: f64,
    /// Slowdown weight for memory accesses served at CXL latency.
    pub cxl_latency_weight: f64,
    /// Fraction of memory traffic that lands on CXL when the app's
    /// memory is naively spread across the SKU's full memory space
    /// (no Pond-style placement).
    pub cxl_naive_fraction: f64,
}

impl HardwareSensitivity {
    /// A completely insensitive application (scales perfectly onto any
    /// SKU).
    pub const fn insensitive() -> Self {
        Self {
            freq_weight: 0.0,
            socket_cache_mib: 0.0,
            socket_cache_weight: 0.0,
            core_cache_mib: 0.0,
            core_cache_weight: 0.0,
            mem_bandwidth_gbps_per_core: 0.0,
            cxl_latency_weight: 0.0,
            cxl_naive_fraction: 0.0,
        }
    }

    /// Whether all weights are finite and non-negative.
    pub fn is_valid(&self) -> bool {
        let vals = [
            self.freq_weight,
            self.socket_cache_mib,
            self.socket_cache_weight,
            self.core_cache_mib,
            self.core_cache_weight,
            self.mem_bandwidth_gbps_per_core,
            self.cxl_latency_weight,
            self.cxl_naive_fraction,
        ];
        vals.iter().all(|v| v.is_finite() && *v >= 0.0) && self.cxl_naive_fraction <= 1.0
    }

    /// Slowdown from running a fraction of memory accesses at CXL
    /// latency: `1 + weight × fraction × (cxl_lat − local_lat)/local_lat`.
    ///
    /// Used directly by the adoption analysis ("does this app tolerate
    /// full-CXL backing?") and by the performance simulator.
    pub fn cxl_slowdown(&self, fraction_on_cxl: f64, local_lat_ns: f64, cxl_lat_ns: f64) -> f64 {
        if local_lat_ns <= 0.0 || cxl_lat_ns <= local_lat_ns {
            return 1.0;
        }
        let rel = (cxl_lat_ns - local_lat_ns) / local_lat_ns;
        1.0 + self.cxl_latency_weight * fraction_on_cxl.clamp(0.0, 1.0) * rel
    }

    /// Whether the application tolerates running with **all** memory on
    /// CXL with less than `threshold` slowdown (the paper's criterion
    /// for the 20.2 % of core-hours that can be fully CXL-backed;
    /// threshold 1.05 = "<5 % slowdown").
    pub fn tolerates_full_cxl(&self, local_lat_ns: f64, cxl_lat_ns: f64, threshold: f64) -> bool {
        self.cxl_slowdown(1.0, local_lat_ns, cxl_lat_ns) <= threshold
    }
}

impl Default for HardwareSensitivity {
    fn default() -> Self {
        Self::insensitive()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn insensitive_is_valid_and_neutral() {
        let s = HardwareSensitivity::insensitive();
        assert!(s.is_valid());
        assert_eq!(s.cxl_slowdown(1.0, 140.0, 280.0), 1.0);
        assert!(s.tolerates_full_cxl(140.0, 280.0, 1.05));
    }

    #[test]
    fn cxl_slowdown_formula() {
        let s = HardwareSensitivity {
            cxl_latency_weight: 0.8,
            cxl_naive_fraction: 0.5,
            ..HardwareSensitivity::insensitive()
        };
        // 280 ns vs 140 ns doubles latency: rel = 1.0.
        assert!((s.cxl_slowdown(0.5, 140.0, 280.0) - 1.4).abs() < 1e-12);
        assert!((s.cxl_slowdown(1.0, 140.0, 280.0) - 1.8).abs() < 1e-12);
        assert!(!s.tolerates_full_cxl(140.0, 280.0, 1.05));
    }

    #[test]
    fn cxl_slowdown_degenerate_latencies() {
        let s =
            HardwareSensitivity { cxl_latency_weight: 1.0, ..HardwareSensitivity::insensitive() };
        assert_eq!(s.cxl_slowdown(1.0, 0.0, 280.0), 1.0);
        assert_eq!(s.cxl_slowdown(1.0, 140.0, 140.0), 1.0);
        assert_eq!(s.cxl_slowdown(1.0, 140.0, 100.0), 1.0);
    }

    #[test]
    fn fraction_clamped() {
        let s =
            HardwareSensitivity { cxl_latency_weight: 1.0, ..HardwareSensitivity::insensitive() };
        assert_eq!(s.cxl_slowdown(2.0, 140.0, 280.0), s.cxl_slowdown(1.0, 140.0, 280.0));
    }

    #[test]
    fn validity_rejects_bad_values() {
        let mut s = HardwareSensitivity::insensitive();
        s.freq_weight = -0.1;
        assert!(!s.is_valid());
        let mut s = HardwareSensitivity::insensitive();
        s.cxl_naive_fraction = 1.5;
        assert!(!s.is_valid());
    }
}
