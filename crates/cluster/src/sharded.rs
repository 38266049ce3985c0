//! The multi-worker driver and sizing probe for the sharded replay
//! engine (`gsf_vmalloc::shard`).
//!
//! The shard module defines the semantics and the serial reference
//! ([`ShardedSim::replay_prepared_faulted`]); this module runs the same
//! per-shard tasks on worker threads. Because every shard task touches
//! only its own state and results merge in ascending shard order, the
//! parallel driver is bitwise identical to the serial reference for any
//! worker count — the differential harness gates exactly that. Sharded
//! sizing goes through [`crate::sizing::right_size`] with
//! `shards > 1`, whose probes replay through [`replay_sharded`].

use crate::parallel::map_parallel_mut;
use crate::sizing::{FaultInjection, Probe};
use gsf_vmalloc::{
    merge_outcomes, ClusterConfig, FaultPlan, FaultSummary, PreparedTrace, ShardedSim, SimOutcome,
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
    merge_outcomes(map_parallel_mut(&mut tasks, workers, |_, task| task.run(prepared)), faults)
}

/// Feasibility probe on the sharded engine, replayed on `workers`
/// threads. Never exact: the shard partition changes with the pool
/// size, so the searches bisect it probe by probe.
pub(crate) fn probe(
    sim: &mut ShardedSim,
    prepared: &PreparedTrace,
    config: ClusterConfig,
    faults: Option<&FaultInjection<'_>>,
    workers: usize,
) -> Probe {
    sim.reset(config);
    Probe::plain(crate::sizing::feasible(prepared, &config, faults, |plan| {
        replay_sharded(sim, prepared, plan, workers)
    }))
}
