//! Property suite pinning the prepared replay engine to the unprepared
//! reference engine, bit for bit.
//!
//! The sizing searches and the pipeline run every feasibility probe on
//! [`PreparedTrace`] plans; the unprepared path is kept as the
//! executable specification, and here it also runs with linear server
//! selection (`with_linear_selection`) so the comparison is production
//! (prepared + indexed) vs. full reference (unprepared + linear scan) —
//! `index_equivalence.rs` isolates the selection axis on its own.
//! These tests assert the two engines agree
//! exactly — same `SimOutcome` (including metrics and the usage
//! ledger's float totals, compared via `to_bits`) and same
//! `FaultSummary` — across random traces, random cluster shapes,
//! hand-built fault plans, and sampled AFR-model plans, and that the
//! sizing searches built on top of them return identical cluster plans.
//! The production searches also answer fault-free probes from the
//! placement high-water mark instead of replaying (DESIGN.md §15);
//! `sizing_shortcuts_match_the_plain_search` is their differential gate
//! against the unprepared reference's plain binary search.

use gsf_cluster::sizing::{
    right_size_baseline_only_faulted, right_size_baseline_only_prepared,
    right_size_baseline_only_unprepared, right_size_mixed_faulted, right_size_mixed_prepared,
    right_size_mixed_unprepared, right_size_prepared, FaultInjection,
};
use gsf_maintenance::{FaultModel, PoolDevices};
use gsf_vmalloc::{
    AllocationSim, ClusterConfig, FaultEvent, FaultKind, FaultPlan, FaultPool, PlacementPolicy,
    PlacementRequest, PreparedTrace, ServerShape, SimOutcome,
};
use gsf_workloads::{ServerGeneration, Trace, VmEvent, VmEventKind, VmSpec};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

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
        // Leave some VMs resident at the horizon so settlement order is
        // exercised, not just the departure path.
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
/// accumulated floats — `PartialEq` on `f64` would let `-0.0 == 0.0`
/// slide, and determinism here means the *bits* match.
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

    /// Fault-free: `replay` (prepared) == `replay_unprepared`.
    #[test]
    fn prepared_matches_unprepared_fault_free(
        n_vms in 1usize..60,
        baseline in 1u32..6,
        green in 0u32..4,
        seed in 0u64..400,
    ) {
        let trace = random_trace(n_vms, seed, 0.03);
        let config = ClusterConfig::mixed(baseline, green);
        for policy in
            [PlacementPolicy::BestFit, PlacementPolicy::FirstFit, PlacementPolicy::WorstFit]
        {
            let prepared = AllocationSim::new(config, policy).replay(&trace, &mixed_transform);
            let unprepared = AllocationSim::new(config, policy)
                .with_linear_selection()
                .replay_unprepared(&trace, &mixed_transform);
            assert_bitwise(&prepared, &unprepared);
        }
    }

    /// Faulted, AFR-sampled plans: `replay_faulted` (prepared) ==
    /// `replay_faulted_unprepared`, outcome and `FaultSummary` alike.
    #[test]
    fn prepared_matches_unprepared_under_sampled_faults(
        n_vms in 1usize..60,
        baseline in 2u32..6,
        green in 1u32..4,
        seed in 0u64..400,
        model_seed in 0u64..64,
        afr_scale in 1.0..60.0f64,
    ) {
        let trace = random_trace(n_vms, seed, 0.0);
        let config = ClusterConfig::mixed(baseline, green);
        let mut model = FaultModel::paper(model_seed);
        model.afr_scale = afr_scale;
        let inj = FaultInjection {
            model: &model,
            baseline_devices: PoolDevices::baseline(),
            green_devices: PoolDevices::greensku_full(),
            slo: None,
        };
        let plan = inj.plan_for(&config, trace.duration_s());
        let (out_p, sum_p) = AllocationSim::new(config, PlacementPolicy::BestFit)
            .replay_faulted(&trace, &mixed_transform, &plan);
        let (out_u, sum_u) = AllocationSim::new(config, PlacementPolicy::BestFit)
            .with_linear_selection()
            .replay_faulted_unprepared(&trace, &mixed_transform, &plan);
        assert_bitwise(&out_p, &out_u);
        assert_eq!(sum_p, sum_u);
    }

    /// One `PreparedTrace` replayed across many `reset()` cycles (the
    /// sizing-probe pattern) stays pinned to a fresh unprepared run at
    /// every cluster size.
    #[test]
    fn prepared_plan_reuse_across_resets_matches_fresh_runs(
        n_vms in 1usize..40,
        seed in 0u64..400,
    ) {
        let trace = random_trace(n_vms, seed, 0.02);
        let prepared = PreparedTrace::new(&trace, &mixed_transform);
        let mut sim =
            AllocationSim::new(ClusterConfig::mixed(1, 1), PlacementPolicy::BestFit);
        for (b, g) in [(1u32, 0u32), (4, 2), (2, 3), (1, 0)] {
            let config = ClusterConfig::mixed(b, g);
            sim.reset(config);
            let out_p = sim.replay_prepared(&prepared);
            let out_u = AllocationSim::new(config, PlacementPolicy::BestFit)
                .with_linear_selection()
                .replay_unprepared(&trace, &mixed_transform);
            assert_bitwise(&out_p, &out_u);
        }
    }

    /// The sizing searches built on each engine return identical plans
    /// (and identical errors), faulted and fault-free.
    #[test]
    fn sizing_agrees_between_engines(
        n_vms in 1usize..40,
        seed in 0u64..200,
        model_seed in 0u64..32,
    ) {
        let trace = random_trace(n_vms, seed, 0.0);
        let shape = ServerShape::baseline_gen3();
        let green = ServerShape::greensku();
        let mut model = FaultModel::paper(model_seed);
        model.afr_scale = 30.0;
        let inj = FaultInjection {
            model: &model,
            baseline_devices: PoolDevices::baseline(),
            green_devices: PoolDevices::greensku_full(),
            slo: None,
        };
        for faults in [None, Some(&inj)] {
            prop_assert_eq!(
                right_size_baseline_only_faulted(&trace, shape, PlacementPolicy::BestFit, faults),
                right_size_baseline_only_unprepared(&trace, shape, PlacementPolicy::BestFit, faults)
            );
            prop_assert_eq!(
                right_size_mixed_faulted(
                    &trace,
                    &mixed_transform,
                    shape,
                    green,
                    PlacementPolicy::BestFit,
                    faults,
                ),
                right_size_mixed_unprepared(
                    &trace,
                    &mixed_transform,
                    shape,
                    green,
                    PlacementPolicy::BestFit,
                    faults,
                )
            );
        }
    }
}

/// The extra VM a sizing case adds to `random_trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExtraVm {
    None,
    /// Larger than every server at every scaling factor: the `n0`
    /// search fails.
    Oversized,
    /// An ordinary VM that the mixed transform places at a size larger
    /// than every server: `n0` is found and the mixed search fails at
    /// every green cap.
    InflatedWhenMixed,
}

/// `random_trace` plus `extra`, whose id is `n_vms`.
fn sizing_trace(n_vms: usize, seed: u64, full_node_pct: f64, extra: ExtraVm) -> Trace {
    let trace = random_trace(n_vms, seed, full_node_pct);
    let cores = match extra {
        ExtraVm::None => return trace,
        ExtraVm::Oversized => 512,
        ExtraVm::InflatedWhenMixed => 16,
    };
    let id = n_vms as u64;
    let mut vms = trace.vms().to_vec();
    vms.push(VmSpec {
        id,
        cores,
        mem_gb: f64::from(cores) * 8.0,
        app_index: 0,
        generation: ServerGeneration::Gen3,
        full_node: false,
        max_mem_util: 0.5,
        avg_cpu_util: 0.2,
    });
    let mut events = trace.events().to_vec();
    events.push(VmEvent { time_s: 500.0, kind: VmEventKind::Arrival, vm_id: id });
    Trace::new(trace.duration_s(), vms, events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Production sizing (prepared engine, indexed selection, answers
    /// from the high-water mark) against the unprepared reference's
    /// plain binary search: every policy, scaling factors from 1.0 to
    /// 3.0 (3.0 makes the green cap double), full-node shares of 0, 5
    /// and 30 %, a GreenSKU smaller than the baseline server, and an
    /// extra VM that makes either the `n0` search or only the mixed
    /// search fail. `Ok` and `Err` must match.
    #[test]
    fn sizing_shortcuts_match_the_plain_search(
        n_vms in 1usize..40,
        seed in 0u64..400,
        draw in 0usize..3,
    ) {
        let extra = [ExtraVm::None, ExtraVm::Oversized, ExtraVm::InflatedWhenMixed][draw];
        let baseline = ServerShape::baseline_gen3();
        let small_green = ServerShape { cores: 48, mem_gb: 384.0 };
        let baseline_transform = |vm: &VmSpec| PlacementRequest::baseline_only(vm);
        let inflated_id = n_vms as u64;
        for full_node_pct in [0.0, 0.05, 0.3] {
            let trace = sizing_trace(n_vms, seed, full_node_pct, extra);
            let prepared_baseline = PreparedTrace::new(&trace, &baseline_transform);
            for policy in
                [PlacementPolicy::BestFit, PlacementPolicy::FirstFit, PlacementPolicy::WorstFit]
            {
                let n0 = right_size_baseline_only_prepared(&prepared_baseline, baseline, policy, None);
                prop_assert_eq!(
                    n0.clone(),
                    right_size_baseline_only_unprepared(&trace, baseline, policy, None)
                );
                for factor in [1.0, 1.25, 2.0, 3.0] {
                    let transform = |vm: &VmSpec| {
                        if vm.full_node {
                            PlacementRequest::baseline_only(vm)
                        } else if extra == ExtraVm::InflatedWhenMixed && vm.id == inflated_id {
                            let inflated = VmSpec { cores: 512, mem_gb: 4096.0, ..*vm };
                            PlacementRequest::prefer_green(&inflated, factor)
                        } else {
                            PlacementRequest::prefer_green(vm, factor)
                        }
                    };
                    let prepared = PreparedTrace::new(&trace, &transform);
                    for green in [ServerShape::greensku(), small_green] {
                        let plan = right_size_mixed_prepared(
                            &prepared,
                            &prepared_baseline,
                            baseline,
                            green,
                            policy,
                            None,
                        );
                        let reference = right_size_mixed_unprepared(
                            &trace, &transform, baseline, green, policy, None,
                        );
                        prop_assert_eq!(&plan, &reference, "{} x{} {:?}", policy, factor, green);
                        if extra == ExtraVm::InflatedWhenMixed {
                            prop_assert!(n0.is_ok() && plan.is_err(), "{:?} {:?}", n0, plan);
                        }
                        prop_assert_eq!(
                            right_size_prepared(
                                &prepared,
                                &prepared_baseline,
                                baseline,
                                green,
                                policy,
                                None,
                            ),
                            n0.clone().and_then(|n0| plan.map(|plan| (n0, plan)))
                        );
                    }
                }
            }
        }
    }
}

/// Hand-built plan covering both fault kinds, a fault landing exactly
/// on a snapshot boundary, and a strike against an already-offline
/// server — the orderings the snapshot-drain fix pinned down.
#[test]
fn hand_built_fault_plan_matches_bitwise() {
    let trace = random_trace(40, 7, 0.0);
    let config = ClusterConfig::mixed(3, 2);
    let plan = FaultPlan::new(
        vec![
            FaultEvent {
                time_s: 300.0,
                pool: FaultPool::Baseline,
                server: 0,
                kind: FaultKind::PartialDegrade { cores_lost: 40, mem_lost_gb: 256.0 },
            },
            // Exactly on the snapshot boundary: the snapshot due at
            // t=600 must sample pre-fault state in both engines.
            FaultEvent {
                time_s: 600.0,
                pool: FaultPool::Green,
                server: 1,
                kind: FaultKind::FullFailure,
            },
            // Second strike on a dead server: a no-op in both engines.
            FaultEvent {
                time_s: 900.0,
                pool: FaultPool::Green,
                server: 1,
                kind: FaultKind::FullFailure,
            },
            FaultEvent {
                time_s: 1500.0,
                pool: FaultPool::Baseline,
                server: 2,
                kind: FaultKind::FullFailure,
            },
        ],
        3,
        3,
        2,
    )
    .unwrap();
    let (out_p, sum_p) = AllocationSim::new(config, PlacementPolicy::BestFit)
        .with_snapshot_interval(600.0)
        .replay_faulted(&trace, &mixed_transform, &plan);
    let (out_u, sum_u) = AllocationSim::new(config, PlacementPolicy::BestFit)
        .with_snapshot_interval(600.0)
        .with_linear_selection()
        .replay_faulted_unprepared(&trace, &mixed_transform, &plan);
    assert_bitwise(&out_p, &out_u);
    assert_eq!(sum_p, sum_u);
    assert!(sum_p.full_failures >= 1, "plan should land at least one full failure");
}

/// The empty fault plan is the identity on both engines, and both
/// match the plain replay entry points.
#[test]
fn empty_fault_plan_is_identity_on_both_engines() {
    let trace = random_trace(30, 11, 0.05);
    let config = ClusterConfig::mixed(3, 2);
    let plain_p =
        AllocationSim::new(config, PlacementPolicy::BestFit).replay(&trace, &mixed_transform);
    let plain_u = AllocationSim::new(config, PlacementPolicy::BestFit)
        .with_linear_selection()
        .replay_unprepared(&trace, &mixed_transform);
    let (faulted_p, sum_p) = AllocationSim::new(config, PlacementPolicy::BestFit).replay_faulted(
        &trace,
        &mixed_transform,
        &FaultPlan::empty(),
    );
    let (faulted_u, sum_u) = AllocationSim::new(config, PlacementPolicy::BestFit)
        .with_linear_selection()
        .replay_faulted_unprepared(&trace, &mixed_transform, &FaultPlan::empty());
    assert_bitwise(&plain_p, &plain_u);
    assert_bitwise(&plain_p, &faulted_p);
    assert_bitwise(&plain_p, &faulted_u);
    assert_eq!(sum_p, sum_u);
    assert_eq!(sum_p.displaced, 0);
}
