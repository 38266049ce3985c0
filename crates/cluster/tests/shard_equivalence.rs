//! Property suite pinning the parallel sharded replay driver to its
//! serial reference, bit for bit.
//!
//! The sharded engine's semantics are defined by
//! [`ShardedSim::replay_prepared_faulted`]: run each shard's task in
//! ascending shard order on one thread, then merge in that same order.
//! [`gsf_cluster::replay_sharded`] executes the *same* per-shard tasks
//! on a worker pool — so for every worker count the outcome (including
//! the usage ledger's float totals, compared via `to_bits`) and the
//! `FaultSummary` must equal the serial reference exactly. These tests
//! assert that across random traces, all three policies, fault plans
//! landing precisely on shard boundaries, `reset()` reuse, and both
//! sizing searches; they also pin `shards == 1` to the unsharded
//! engine, closing the chain unsharded == 1-shard-serial ==
//! 1-shard-parallel.

use gsf_cluster::sharded::{
    replay_sharded, right_size_baseline_only_prepared_sharded, right_size_prepared_sharded,
};
use gsf_maintenance::{FaultModel, PoolDevices};
use gsf_vmalloc::{
    AllocationSim, ClusterConfig, FaultEvent, FaultKind, FaultPlan, FaultPool, PlacementPolicy,
    PlacementRequest, PreparedTrace, ServerShape, ShardedSim, SimOutcome,
};
use gsf_workloads::{ServerGeneration, Trace, VmEvent, VmEventKind, VmSpec};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

const POLICIES: [PlacementPolicy; 3] =
    [PlacementPolicy::BestFit, PlacementPolicy::FirstFit, PlacementPolicy::WorstFit];

const WORKER_COUNTS: [usize; 3] = [1, 2, 7];

fn random_trace(n_vms: usize, seed: u64, full_node_pct: f64) -> Trace {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut vms = Vec::new();
    let mut events = Vec::new();
    for id in 0..n_vms as u64 {
        let full_node = rng.gen_bool(full_node_pct);
        let cores =
            if full_node { 80 } else { *[1u32, 2, 4, 8, 16].get(rng.gen_range(0..5)).unwrap() };
        let mem = if full_node { 768.0 } else { f64::from(cores) * rng.gen_range(2.0..10.0) };
        vms.push(VmSpec {
            id,
            cores,
            mem_gb: mem,
            app_index: rng.gen_range(0..20),
            generation: ServerGeneration::Gen3,
            full_node,
            max_mem_util: rng.gen_range(0.1..1.0),
            avg_cpu_util: rng.gen_range(0.05..0.6),
        });
        let t = rng.gen_range(0.0..1000.0);
        events.push(VmEvent { time_s: t, kind: VmEventKind::Arrival, vm_id: id });
        if rng.gen_bool(0.8) {
            events.push(VmEvent {
                time_s: t + rng.gen_range(1.0..1500.0),
                kind: VmEventKind::Departure,
                vm_id: id,
            });
        }
    }
    Trace::new(2100.0, vms, events)
}

fn mixed_transform(vm: &VmSpec) -> PlacementRequest {
    if vm.full_node {
        PlacementRequest::baseline_only(vm)
    } else {
        PlacementRequest::prefer_green(vm, 1.25)
    }
}

/// `SimOutcome` equality plus bit-level equality on the usage ledger's
/// accumulated floats.
fn assert_bitwise(a: &SimOutcome, b: &SimOutcome) {
    assert_eq!(a, b);
    assert_eq!(
        a.usage.total_baseline_core_hours().to_bits(),
        b.usage.total_baseline_core_hours().to_bits()
    );
    assert_eq!(
        a.usage.total_green_core_hours().to_bits(),
        b.usage.total_green_core_hours().to_bits()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fault-free, all three policies and shard counts: every worker
    /// count reproduces the serial reference bit for bit.
    #[test]
    fn parallel_matches_serial_fault_free(
        n_vms in 1usize..60,
        baseline in 1u32..8,
        green in 0u32..5,
        shards in 1usize..5,
        seed in 0u64..400,
    ) {
        let trace = random_trace(n_vms, seed, 0.03);
        let prepared = PreparedTrace::new(&trace, &mixed_transform);
        let config = ClusterConfig::mixed(baseline, green);
        for policy in POLICIES {
            let expected =
                ShardedSim::new(config, policy, shards).replay_prepared(&prepared);
            for workers in WORKER_COUNTS {
                let mut sim = ShardedSim::new(config, policy, shards);
                let (out, _) = replay_sharded(&mut sim, &prepared, &FaultPlan::empty(), workers);
                assert_bitwise(&out, &expected);
            }
        }
    }

    /// Faulted, AFR-sampled plans: strikes and the evacuations they
    /// trigger stay inside each fault's home shard, so outcome *and*
    /// `FaultSummary` match the serial reference for any worker count.
    #[test]
    fn parallel_matches_serial_under_sampled_faults(
        n_vms in 1usize..60,
        baseline in 2u32..8,
        green in 1u32..5,
        shards in 2usize..5,
        seed in 0u64..400,
        model_seed in 0u64..64,
        afr_scale in 1.0..60.0f64,
    ) {
        let trace = random_trace(n_vms, seed, 0.0);
        let prepared = PreparedTrace::new(&trace, &mixed_transform);
        let config = ClusterConfig::mixed(baseline, green);
        let mut model = FaultModel::paper(model_seed);
        model.afr_scale = afr_scale;
        let inj = gsf_cluster::sizing::FaultInjection {
            model: &model,
            baseline_devices: PoolDevices::baseline(),
            green_devices: PoolDevices::greensku_full(),
            slo: None,
        };
        let plan = inj.plan_for(&config, trace.duration_s());
        for policy in POLICIES {
            let (exp_out, exp_sum) =
                ShardedSim::new(config, policy, shards).replay_prepared_faulted(&prepared, &plan);
            for workers in WORKER_COUNTS {
                let mut sim = ShardedSim::new(config, policy, shards);
                let (out, sum) = replay_sharded(&mut sim, &prepared, &plan, workers);
                assert_bitwise(&out, &exp_out);
                assert_eq!(sum, exp_sum);
            }
        }
    }

    /// One shard is the unsharded engine, bitwise: the routing hash has
    /// a single candidate, events split into one run, and the one-part
    /// merge is the identity.
    #[test]
    fn one_shard_is_the_unsharded_engine(
        n_vms in 1usize..50,
        baseline in 1u32..6,
        green in 0u32..4,
        seed in 0u64..400,
    ) {
        let trace = random_trace(n_vms, seed, 0.02);
        let prepared = PreparedTrace::new(&trace, &mixed_transform);
        let config = ClusterConfig::mixed(baseline, green);
        for policy in POLICIES {
            let unsharded = AllocationSim::new(config, policy).replay_prepared(&prepared);
            for workers in [1usize, 4] {
                let mut sim = ShardedSim::new(config, policy, 1);
                let (out, _) = replay_sharded(&mut sim, &prepared, &FaultPlan::empty(), workers);
                assert_bitwise(&out, &unsharded);
            }
        }
    }

    /// One sharded simulator reused across `reset()` cycles (the sizing
    /// probe pattern, including shrinking pools) stays pinned to fresh
    /// serial runs at every cluster size, parallel or not.
    #[test]
    fn reset_reuse_matches_fresh_serial_runs(
        n_vms in 1usize..40,
        shards in 2usize..4,
        seed in 0u64..400,
    ) {
        let trace = random_trace(n_vms, seed, 0.02);
        let prepared = PreparedTrace::new(&trace, &mixed_transform);
        let mut sim = ShardedSim::new(ClusterConfig::mixed(1, 1), PlacementPolicy::BestFit, shards);
        for (b, g) in [(1u32, 0u32), (6, 3), (3, 4), (1, 0)] {
            let config = ClusterConfig::mixed(b, g);
            sim.reset(config);
            let (out, _) = replay_sharded(&mut sim, &prepared, &FaultPlan::empty(), 3);
            let expected =
                ShardedSim::new(config, PlacementPolicy::BestFit, shards).replay_prepared(&prepared);
            assert_bitwise(&out, &expected);
        }
    }

    /// Both sharded sizing searches return identical plans (and
    /// identical errors) for every worker count — the probe's parallelism
    /// must never leak into the search's answer.
    #[test]
    fn sharded_sizing_is_worker_count_invariant(
        n_vms in 1usize..40,
        shards in 1usize..4,
        seed in 0u64..200,
        model_seed in 0u64..32,
    ) {
        let trace = random_trace(n_vms, seed, 0.0);
        let shape = ServerShape::baseline_gen3();
        let green = ServerShape::greensku();
        let baseline_transform = |vm: &VmSpec| PlacementRequest::baseline_only(vm);
        let prepared_baseline = PreparedTrace::new(&trace, &baseline_transform);
        let prepared_mixed = PreparedTrace::new(&trace, &mixed_transform);
        let mut model = FaultModel::paper(model_seed);
        model.afr_scale = 30.0;
        let inj = gsf_cluster::sizing::FaultInjection {
            model: &model,
            baseline_devices: PoolDevices::baseline(),
            green_devices: PoolDevices::greensku_full(),
            slo: None,
        };
        for faults in [None, Some(&inj)] {
            let n0_serial = right_size_baseline_only_prepared_sharded(
                &prepared_baseline, shape, PlacementPolicy::BestFit, faults, shards, 1,
            );
            let sized_serial = right_size_prepared_sharded(
                &prepared_mixed, &prepared_baseline, shape, green,
                PlacementPolicy::BestFit, faults, shards, 1,
            );
            for workers in [2usize, 5] {
                prop_assert_eq!(
                    &right_size_baseline_only_prepared_sharded(
                        &prepared_baseline, shape, PlacementPolicy::BestFit, faults, shards, workers,
                    ),
                    &n0_serial
                );
                prop_assert_eq!(
                    &right_size_prepared_sharded(
                        &prepared_mixed, &prepared_baseline, shape, green,
                        PlacementPolicy::BestFit, faults, shards, workers,
                    ),
                    &sized_serial
                );
            }
        }
    }
}

/// Hand-built fault plan striking **exactly on the shard boundaries**:
/// the first and last global server index of every shard in both pools,
/// plus repeat strikes and a near-total degrade. Off-by-one errors in
/// the global→(shard, local) fault remap would double-strike a
/// neighbor's server or miss one entirely; the serial/parallel and
/// conservation checks below would both catch that.
#[test]
fn boundary_fault_plan_matches_bitwise() {
    let trace = random_trace(50, 11, 0.0);
    let prepared = PreparedTrace::new(&trace, &mixed_transform);
    let config = ClusterConfig::mixed(7, 5);
    for shards in [2usize, 3, 5] {
        let probe = ShardedSim::new(config, PlacementPolicy::BestFit, shards);
        let mut events = Vec::new();
        let mut t = 100.0;
        for s in 0..probe.shards() {
            // First and last server of this shard's slice of each pool,
            // in *global* indices (what FaultInjection produces).
            let (b_lo, b_hi) = probe.plan().baseline_range(s);
            let (g_lo, g_hi) = probe.plan().green_range(s);
            for (pool, lo, hi) in
                [(FaultPool::Baseline, b_lo, b_hi), (FaultPool::Green, g_lo, g_hi)]
            {
                if lo == hi {
                    continue; // empty slice: no servers in this shard
                }
                events.push(FaultEvent {
                    time_s: t,
                    pool,
                    server: lo,
                    kind: FaultKind::PartialDegrade { cores_lost: 40, mem_lost_gb: 256.0 },
                });
                events.push(FaultEvent {
                    time_s: t + 50.0,
                    pool,
                    server: hi - 1,
                    kind: FaultKind::FullFailure,
                });
                // Repeat strike on the dead boundary server: a no-op
                // that must stay a no-op after the local remap.
                events.push(FaultEvent {
                    time_s: t + 75.0,
                    pool,
                    server: hi - 1,
                    kind: FaultKind::FullFailure,
                });
                t += 100.0;
            }
        }
        let plan = FaultPlan::new(events, 3, 7, 5).unwrap();
        for policy in POLICIES {
            let (exp_out, exp_sum) =
                ShardedSim::new(config, policy, shards).replay_prepared_faulted(&prepared, &plan);
            for workers in WORKER_COUNTS {
                let mut sim = ShardedSim::new(config, policy, shards);
                let (out, sum) = replay_sharded(&mut sim, &prepared, &plan, workers);
                assert_bitwise(&out, &exp_out);
                assert_eq!(sum, exp_sum);
            }
            assert!(exp_sum.full_failures >= 1, "plan should land full failures");
        }
    }
}
