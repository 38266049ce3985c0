//! Parallel driver and sizing entry points for the sharded replay
//! engine (`gsf_vmalloc::shard`).
//!
//! The shard module defines the semantics and the serial reference
//! ([`ShardedSim::replay_prepared_faulted`]); this module adds the
//! multi-worker execution path and the `shards`/`workers` knobs on the
//! sizing searches. Because every shard task touches only its own
//! state and results merge in ascending shard order, the parallel
//! driver is bitwise identical to the serial reference for any worker
//! count — the `shard_equivalence` suite gates exactly that.

use crate::parallel::map_parallel_mut;
use crate::sizing::{
    baseline_search, mixed_search, ClusterPlan, FaultInjection, Probe, SizingError,
};
use gsf_vmalloc::{
    merge_outcomes, ClusterConfig, FaultPlan, FaultSummary, PlacementPolicy, PreparedTrace,
    ServerShape, ShardedSim, SimOutcome,
};

/// Replays `prepared` (with `faults`) across `sim`'s shards on
/// `workers` threads, merging per-shard results in ascending shard
/// order. Bit-identical to the serial reference
/// [`ShardedSim::replay_prepared_faulted`] for every worker count;
/// `workers == 1` runs inline with no threading overhead.
pub fn replay_sharded(
    sim: &mut ShardedSim,
    prepared: &PreparedTrace,
    faults: &FaultPlan,
    workers: usize,
) -> (SimOutcome, FaultSummary) {
    let mut tasks = sim.shard_tasks(prepared, faults);
    let parts = map_parallel_mut(&mut tasks, workers, |_, task| task.run(prepared));
    let (out, mut summary) = merge_outcomes(parts);
    // The blast radius comes from the *global* plan, exactly as the
    // serial reference assigns it post-merge — per-shard replays only
    // see their local slice of a correlated domain event.
    if summary.faults_applied() {
        summary.availability.blast_radius_servers = faults.max_correlated_strikes();
    }
    (out, summary)
}

/// Feasibility probe on the sharded engine: reset, replay on `workers`
/// threads, require no rejections (and, under fault injection, full
/// evacuation or the availability-SLO budget). The sharded analogue of
/// the unsharded prepared probe, but never exact: the shard partition
/// changes with the pool size, so the searches bisect it probe by
/// probe.
fn feasible_sharded(
    sim: &mut ShardedSim,
    prepared: &PreparedTrace,
    config: ClusterConfig,
    faults: Option<&FaultInjection<'_>>,
    workers: usize,
) -> Probe {
    sim.reset(config);
    Probe::plain(match faults {
        None => replay_sharded(sim, prepared, &FaultPlan::empty(), workers).0.no_rejections(),
        Some(inj) => {
            let plan = inj.plan_for(&config, prepared.duration_s());
            let (outcome, summary) = replay_sharded(sim, prepared, &plan, workers);
            outcome.no_rejections() && inj.admits(&summary)
        }
    })
}

/// Baseline-only sizing under the **sharded** replay semantics:
/// smallest count of `baseline_shape` servers, split into `shards`
/// shards, hosting `prepared` with no rejections (and full evacuation
/// under `faults`). `workers` only parallelizes each probe — the
/// result is identical for any worker count. At `shards <= 1` the
/// sharded semantics coincide with the unsharded engine, so this
/// returns exactly what `right_size_baseline_only_prepared` does.
///
/// # Errors
///
/// Returns [`SizingError::Infeasible`] as the unsharded search does.
pub fn right_size_baseline_only_prepared_sharded(
    prepared: &PreparedTrace,
    baseline_shape: ServerShape,
    policy: PlacementPolicy,
    faults: Option<&FaultInjection<'_>>,
    shards: usize,
    workers: usize,
) -> Result<u32, SizingError> {
    let faults = faults.filter(|f| !f.model.is_none());
    let mut sim = ShardedSim::new(ClusterConfig::baseline_only(0), policy, shards);
    baseline_search(prepared.peak_demand(), baseline_shape, |config| {
        feasible_sharded(&mut sim, prepared, config, faults, workers)
    })
}

/// Both searches under the sharded replay semantics, with `n0` searched
/// once: the baseline-only count
/// ([`right_size_baseline_only_prepared_sharded`]) and the mixed plan it
/// seeds. See [`right_size_baseline_only_prepared_sharded`] for the
/// knobs and [`crate::sizing::right_size_prepared`] for the searches.
///
/// # Errors
///
/// Returns [`SizingError::Infeasible`] as the unsharded search does.
#[allow(clippy::too_many_arguments)]
pub fn right_size_prepared_sharded(
    prepared: &PreparedTrace,
    prepared_baseline: &PreparedTrace,
    baseline_shape: ServerShape,
    green_shape: ServerShape,
    policy: PlacementPolicy,
    faults: Option<&FaultInjection<'_>>,
    shards: usize,
    workers: usize,
) -> Result<(u32, ClusterPlan), SizingError> {
    let faults = faults.filter(|f| !f.model.is_none());
    let n0 = right_size_baseline_only_prepared_sharded(
        prepared_baseline,
        baseline_shape,
        policy,
        faults,
        shards,
        workers,
    )?;
    let mut sim = ShardedSim::new(ClusterConfig::baseline_only(0), policy, shards);
    let plan = mixed_search(n0, baseline_shape, green_shape, |config| {
        feasible_sharded(&mut sim, prepared, config, faults, workers)
    })?;
    Ok((n0, plan))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use gsf_vmalloc::PlacementRequest;
    use gsf_workloads::{ServerGeneration, Trace, VmEvent, VmEventKind, VmSpec};

    fn vm(id: u64, cores: u32) -> VmSpec {
        VmSpec {
            id,
            cores,
            mem_gb: f64::from(cores) * 4.0,
            app_index: (id % 4) as u16,
            generation: ServerGeneration::Gen3,
            full_node: false,
            max_mem_util: 0.5,
            avg_cpu_util: 0.2,
        }
    }

    fn concurrent_trace(n: u64) -> Trace {
        let vms: Vec<VmSpec> = (0..n).map(|i| vm(i, 8)).collect();
        let mut events = Vec::new();
        for i in 0..n {
            events.push(VmEvent { time_s: 1.0, kind: VmEventKind::Arrival, vm_id: i });
            events.push(VmEvent { time_s: 1000.0, kind: VmEventKind::Departure, vm_id: i });
        }
        Trace::new(2000.0, vms, events)
    }

    #[test]
    fn parallel_driver_matches_serial_reference() {
        let trace = concurrent_trace(60);
        let transform = |v: &VmSpec| PlacementRequest::prefer_green(v, 1.25);
        let prepared = PreparedTrace::new(&trace, &transform);
        let config = ClusterConfig::mixed(4, 3);
        for shards in [1usize, 2, 4] {
            let mut serial = ShardedSim::new(config, PlacementPolicy::BestFit, shards);
            let expected = serial.replay_prepared_faulted(&prepared, &FaultPlan::empty());
            for workers in [1usize, 2, 8] {
                let mut sim = ShardedSim::new(config, PlacementPolicy::BestFit, shards);
                let got = replay_sharded(&mut sim, &prepared, &FaultPlan::empty(), workers);
                assert_eq!(got, expected, "shards={shards} workers={workers}");
            }
        }
    }

    #[test]
    fn sharded_sizing_at_one_shard_matches_unsharded() {
        let trace = concurrent_trace(30);
        let transform = |v: &VmSpec| gsf_vmalloc::PlacementRequest::baseline_only(v);
        let prepared = PreparedTrace::new(&trace, &transform);
        let shape = ServerShape::baseline_gen3();
        let unsharded = crate::sizing::right_size_baseline_only_prepared(
            &prepared,
            shape,
            PlacementPolicy::BestFit,
            None,
        )
        .unwrap();
        let sharded = right_size_baseline_only_prepared_sharded(
            &prepared,
            shape,
            PlacementPolicy::BestFit,
            None,
            1,
            4,
        )
        .unwrap();
        assert_eq!(sharded, unsharded);
    }

    #[test]
    fn sharded_sizing_never_smaller_than_unsharded() {
        // Shard routing can only *restrict* placement choices (no
        // cross-shard overflow), so the sharded search needs at least
        // as many servers.
        let trace = concurrent_trace(40);
        let transform = |v: &VmSpec| PlacementRequest::prefer_green(v, 1.25);
        let prepared = PreparedTrace::new(&trace, &transform);
        let baseline_transform = |v: &VmSpec| gsf_vmalloc::PlacementRequest::baseline_only(v);
        let prepared_baseline = PreparedTrace::new(&trace, &baseline_transform);
        let unsharded = crate::sizing::right_size_mixed_prepared(
            &prepared,
            &prepared_baseline,
            ServerShape::baseline_gen3(),
            ServerShape::greensku(),
            PlacementPolicy::BestFit,
            None,
        )
        .unwrap();
        for shards in [2usize, 4] {
            let (_, sharded) = right_size_prepared_sharded(
                &prepared,
                &prepared_baseline,
                ServerShape::baseline_gen3(),
                ServerShape::greensku(),
                PlacementPolicy::BestFit,
                None,
                shards,
                2,
            )
            .unwrap();
            assert!(
                sharded.total() >= unsharded.total(),
                "K={shards}: sharded {sharded:?} < unsharded {unsharded:?}"
            );
        }
    }
}
