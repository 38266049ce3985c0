//! Packing metrics: the quantities behind Figs. 9 and 10.
//!
//! Packing density is the ratio of allocated to allocatable resources on
//! **non-empty** servers (the paper's definition, following Protean).
//! Memory-utilization snapshots aggregate the maximum memory hosted VMs
//! will touch per server, the statistic Fig. 10 plots per cluster.

use crate::arena::VmArena;
use crate::server::ServerState;
use gsf_stats::summary::Summary;

/// Accumulated metrics for one server pool.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PoolMetrics {
    core_density: Summary,
    mem_density: Summary,
    max_mem_util: Summary,
}

impl PoolMetrics {
    /// Records one snapshot of a pool; `arena` resolves the servers'
    /// occupancy slots.
    fn record(&mut self, servers: &[ServerState], arena: &VmArena) {
        for s in servers {
            if s.is_empty() {
                continue;
            }
            self.core_density.push(s.core_density());
            self.mem_density.push(s.mem_density());
            self.max_mem_util.push(s.max_touched_mem_fraction(arena));
        }
    }

    /// Mean core packing density across snapshots and non-empty servers.
    pub fn mean_core_density(&self) -> f64 {
        self.core_density.mean()
    }

    /// Mean memory packing density.
    pub fn mean_mem_density(&self) -> f64 {
        self.mem_density.mean()
    }

    /// Mean per-server maximum touched-memory fraction (Fig. 10).
    pub fn mean_max_mem_util(&self) -> f64 {
        self.max_mem_util.mean()
    }

    /// Number of (snapshot × non-empty server) samples.
    pub fn samples(&self) -> usize {
        self.core_density.count()
    }

    /// Merges another pool's summaries (the sharded replay's
    /// fixed-order reduction; see [`crate::shard`]).
    pub(crate) fn merge(&mut self, other: &PoolMetrics) {
        self.core_density.merge(&other.core_density);
        self.mem_density.merge(&other.mem_density);
        self.max_mem_util.merge(&other.max_mem_util);
    }
}

/// Metrics for both pools of a cluster.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PackingMetrics {
    /// Baseline-pool metrics.
    pub baseline: PoolMetrics,
    /// GreenSKU-pool metrics.
    pub green: PoolMetrics,
    snapshots: usize,
}

impl PackingMetrics {
    /// Creates empty metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one snapshot of both pools; `arena` resolves the
    /// servers' occupancy slots.
    pub fn snapshot(&mut self, baseline: &[ServerState], green: &[ServerState], arena: &VmArena) {
        self.baseline.record(baseline, arena);
        self.green.record(green, arena);
        self.snapshots += 1;
    }

    /// Number of snapshots taken.
    pub fn snapshots(&self) -> usize {
        self.snapshots
    }

    /// Merges another cluster's metrics; shard snapshots are summed,
    /// so a K-shard replay reports K× the per-shard snapshot count.
    pub(crate) fn merge(&mut self, other: &PackingMetrics) {
        self.baseline.merge(&other.baseline);
        self.green.merge(&other.green);
        self.snapshots += other.snapshots;
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::cluster::ServerShape;
    use crate::server::PlacedVm;

    fn loaded_server(arena: &mut VmArena, id: u64, cores: u32) -> ServerState {
        let mut s = ServerState::new(ServerShape { cores: 80, mem_gb: 768.0 });
        if cores > 0 {
            s.place(
                arena,
                id,
                PlacedVm { cores, mem_gb: f64::from(cores) * 9.6, max_mem_util: 0.5 },
            );
        }
        s
    }

    #[test]
    fn empty_servers_excluded_from_density() {
        let mut arena = VmArena::new();
        let mut m = PackingMetrics::new();
        m.snapshot(
            &[loaded_server(&mut arena, 1, 40), loaded_server(&mut arena, 2, 0)],
            &[],
            &arena,
        );
        // Only the loaded server counts: density 0.5.
        assert_eq!(m.baseline.samples(), 1);
        assert!((m.baseline.mean_core_density() - 0.5).abs() < 1e-12);
        assert!((m.baseline.mean_mem_density() - 0.5).abs() < 1e-12);
        assert!((m.baseline.mean_max_mem_util() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn snapshots_accumulate() {
        let mut arena = VmArena::new();
        let mut m = PackingMetrics::new();
        m.snapshot(
            &[loaded_server(&mut arena, 1, 20)],
            &[loaded_server(&mut arena, 2, 40)],
            &arena,
        );
        m.snapshot(
            &[loaded_server(&mut arena, 3, 60)],
            &[loaded_server(&mut arena, 4, 40)],
            &arena,
        );
        assert_eq!(m.snapshots(), 2);
        assert_eq!(m.baseline.samples(), 2);
        assert!((m.baseline.mean_core_density() - 0.5).abs() < 1e-12);
        assert_eq!(m.green.samples(), 2);
    }

    #[test]
    fn all_empty_pool_has_no_samples() {
        let mut arena = VmArena::new();
        let mut m = PackingMetrics::new();
        m.snapshot(&[loaded_server(&mut arena, 1, 0)], &[], &arena);
        assert_eq!(m.baseline.samples(), 0);
        assert_eq!(m.baseline.mean_core_density(), 0.0);
    }
}
