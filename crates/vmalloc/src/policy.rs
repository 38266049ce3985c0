//! Placement policies.
//!
//! The production scheduler uses best-fit with a preference for
//! non-empty servers; first-fit and worst-fit are provided for the
//! placement-policy ablation (`experiments ablations`).
//!
//! [`PlacementPolicy::choose_linear`] is the executable reference
//! specification: a full O(N) scan of the pool. The production path
//! selects through the incrementally maintained
//! [`crate::index::PlacementIndex`], which is pinned bit-identical to
//! this scan (same chosen index on every request) by a per-selection
//! `debug_assert` in the simulator and the differential harness in
//! `gsf-cluster`.

use crate::server::ServerState;

/// Which server, among those that fit, receives a VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Tightest fit first (minimize leftover), preferring non-empty
    /// servers — the Azure production heuristic the paper describes.
    BestFit,
    /// First server that fits, in index order.
    FirstFit,
    /// Loosest fit first (maximize leftover), still preferring
    /// non-empty servers.
    WorstFit,
}

impl PlacementPolicy {
    /// The fit score a feasible server competes on: normalized free
    /// space after placement, combining both dimensions (negated for
    /// worst-fit so smaller is always better). Shared verbatim between
    /// the linear scan and the placement index so the two paths compute
    /// bit-identical floats.
    pub(crate) fn leftover_key(&self, s: &ServerState, cores: u32, mem_gb: f64) -> f64 {
        let core_left = f64::from(s.free_cores() - cores) / f64::from(s.shape().cores);
        let mem_left = (s.free_mem_gb() - mem_gb) / s.shape().mem_gb;
        let leftover = core_left + mem_left;
        if *self == PlacementPolicy::WorstFit {
            -leftover
        } else {
            leftover
        }
    }

    /// Chooses a server index for a `cores`/`mem_gb` request among
    /// `servers`, or `None` if nothing fits, by scanning the whole pool
    /// in index order — the reference spec the placement index is
    /// pinned against.
    pub fn choose_linear(&self, servers: &[ServerState], cores: u32, mem_gb: f64) -> Option<usize> {
        match self {
            PlacementPolicy::FirstFit => servers.iter().position(|s| s.fits(cores, mem_gb)),
            PlacementPolicy::BestFit | PlacementPolicy::WorstFit => {
                let mut best: Option<(usize, (bool, f64))> = None;
                for (i, s) in servers.iter().enumerate() {
                    if !s.fits(cores, mem_gb) {
                        continue;
                    }
                    let leftover = self.leftover_key(s, cores, mem_gb);
                    // Key: (is_empty, leftover) lexicographically — the
                    // non-empty preference dominates the fit score.
                    let key = (s.is_empty(), leftover);
                    let better = match &best {
                        None => true,
                        Some((_, best_key)) => {
                            key.0 == best_key.0 && key.1 < best_key.1 || !key.0 && best_key.0
                        }
                    };
                    if better {
                        best = Some((i, key));
                    }
                }
                best.map(|(i, _)| i)
            }
        }
    }
}

impl std::fmt::Display for PlacementPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PlacementPolicy::BestFit => "best-fit",
            PlacementPolicy::FirstFit => "first-fit",
            PlacementPolicy::WorstFit => "worst-fit",
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::arena::VmArena;
    use crate::cluster::ServerShape;
    use crate::server::PlacedVm;

    // Policies only read server aggregates, so the arena backing the
    // occupancy lists can be dropped after loading.
    fn servers_with_loads(loads: &[u32]) -> Vec<ServerState> {
        let mut arena = VmArena::new();
        loads
            .iter()
            .map(|&used| {
                let mut s = ServerState::new(ServerShape { cores: 16, mem_gb: 128.0 });
                if used > 0 {
                    s.place(
                        &mut arena,
                        1000 + u64::from(used),
                        PlacedVm { cores: used, mem_gb: f64::from(used) * 8.0, max_mem_util: 0.5 },
                    );
                }
                s
            })
            .collect()
    }

    #[test]
    fn best_fit_prefers_tightest_non_empty() {
        // Loads: empty, half, nearly full. Request 2 cores: the nearly
        // full server is the tightest fit.
        let servers = servers_with_loads(&[0, 8, 14]);
        let choice = PlacementPolicy::BestFit.choose_linear(&servers, 2, 16.0);
        assert_eq!(choice, Some(2));
    }

    #[test]
    fn best_fit_prefers_non_empty_over_tighter_empty() {
        // An empty server can never beat a non-empty one that fits.
        let servers = servers_with_loads(&[0, 2]);
        let choice = PlacementPolicy::BestFit.choose_linear(&servers, 4, 32.0);
        assert_eq!(choice, Some(1));
    }

    #[test]
    fn best_fit_uses_empty_when_nothing_else_fits() {
        let servers = servers_with_loads(&[0, 14, 14]);
        let choice = PlacementPolicy::BestFit.choose_linear(&servers, 8, 64.0);
        assert_eq!(choice, Some(0));
    }

    #[test]
    fn first_fit_takes_first() {
        let servers = servers_with_loads(&[0, 8, 14]);
        assert_eq!(PlacementPolicy::FirstFit.choose_linear(&servers, 2, 16.0), Some(0));
    }

    #[test]
    fn worst_fit_takes_loosest_non_empty() {
        let servers = servers_with_loads(&[0, 8, 14]);
        assert_eq!(PlacementPolicy::WorstFit.choose_linear(&servers, 2, 16.0), Some(1));
    }

    #[test]
    fn none_when_nothing_fits() {
        let servers = servers_with_loads(&[14, 15]);
        for policy in
            [PlacementPolicy::BestFit, PlacementPolicy::FirstFit, PlacementPolicy::WorstFit]
        {
            assert_eq!(policy.choose_linear(&servers, 8, 64.0), None, "{policy}");
        }
    }
}
