//! Property tests for the allocation simulator.

use gsf_vmalloc::{
    AllocationSim, ClusterConfig, FaultPlan, PlacementPolicy, PlacementRequest, PreparedTrace,
    ServerShape, ServerState, SimOutcome, VmTransform,
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
        events.push(VmEvent {
            time_s: t + rng.gen_range(1.0..1000.0),
            kind: VmEventKind::Departure,
            vm_id: id,
        });
    }
    Trace::new(2100.0, vms, events)
}

/// A fault-free replay of `trace` on a fresh `config` cluster.
fn replay(
    config: ClusterConfig,
    policy: PlacementPolicy,
    trace: &Trace,
    transform: &VmTransform<'_>,
) -> SimOutcome {
    let prepared = PreparedTrace::new(trace, transform);
    AllocationSim::new(config, policy).replay_prepared_faulted(&prepared, &FaultPlan::empty()).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn policies_agree_on_conservation(
        n_vms in 1usize..80,
        baseline in 1u32..8,
        green in 0u32..4,
        seed in 0u64..500,
    ) {
        let trace = random_trace(n_vms, seed, 0.02);
        for policy in
            [PlacementPolicy::BestFit, PlacementPolicy::FirstFit, PlacementPolicy::WorstFit]
        {
            let transform = |vm: &VmSpec| {
                if vm.full_node {
                    PlacementRequest::baseline_only(vm)
                } else {
                    PlacementRequest::prefer_green(vm, 1.25)
                }
            };
            let out = replay(ClusterConfig::mixed(baseline, green), policy, &trace, &transform);
            prop_assert_eq!(
                out.placed_baseline + out.placed_green + out.rejected,
                n_vms,
                "policy {}", policy
            );
            if green == 0 {
                prop_assert_eq!(out.placed_green, 0);
            }
        }
    }

    #[test]
    fn bigger_clusters_never_reject_more(
        n_vms in 1usize..60,
        baseline in 1u32..6,
        seed in 0u64..300,
    ) {
        let trace = random_trace(n_vms, seed, 0.0);
        let reject = |n: u32| {
            let config = ClusterConfig::baseline_only(n);
            replay(config, PlacementPolicy::BestFit, &trace, &PlacementRequest::baseline_only)
                .rejected
        };
        prop_assert!(reject(baseline + 2) <= reject(baseline));
    }

    #[test]
    fn densities_always_fractions(
        n_vms in 1usize..60,
        seed in 0u64..300,
    ) {
        let trace = random_trace(n_vms, seed, 0.05);
        let transform = |vm: &VmSpec| {
            if vm.full_node {
                PlacementRequest::baseline_only(vm)
            } else {
                PlacementRequest::prefer_green(vm, 1.0)
            }
        };
        let out = replay(ClusterConfig::mixed(4, 2), PlacementPolicy::BestFit, &trace, &transform);
        for pool in [&out.metrics.baseline, &out.metrics.green] {
            for v in [
                pool.mean_core_density(),
                pool.mean_mem_density(),
                pool.mean_max_mem_util(),
            ] {
                prop_assert!((0.0..=1.0).contains(&v), "{v}");
            }
        }
    }

    #[test]
    fn chosen_server_always_fits(
        loads in prop::collection::vec(0u32..16, 1..12),
        cores in 1u32..16,
        mem in 1.0..128.0f64,
    ) {
        use gsf_vmalloc::server::PlacedVm;
        use gsf_vmalloc::VmArena;
        let mut arena = VmArena::new();
        let servers: Vec<ServerState> = loads
            .iter()
            .map(|&used| {
                let mut s = ServerState::new(ServerShape { cores: 16, mem_gb: 128.0 });
                if used > 0 {
                    s.place(
                        &mut arena,
                        999,
                        PlacedVm {
                            cores: used,
                            mem_gb: f64::from(used) * 8.0,
                            max_mem_util: 0.5,
                        },
                    );
                }
                s
            })
            .collect();
        for policy in
            [PlacementPolicy::BestFit, PlacementPolicy::FirstFit, PlacementPolicy::WorstFit]
        {
            if let Some(i) = policy.choose_linear(&servers, cores, mem) {
                prop_assert!(servers[i].fits(cores, mem), "{} chose a non-fitting server", policy);
            } else {
                // None means genuinely nothing fits.
                prop_assert!(servers.iter().all(|s| !s.fits(cores, mem)), "{}", policy);
            }
        }
    }

    #[test]
    fn scaled_requests_preserve_mem_core_ratio(
        cores in 1u32..32,
        mem_per_core in 1.0..16.0f64,
        factor in 1.0..1.51f64,
    ) {
        let vm = VmSpec {
            id: 0,
            cores,
            mem_gb: f64::from(cores) * mem_per_core,
            app_index: 0,
            generation: ServerGeneration::Gen3,
            full_node: false,
            max_mem_util: 0.5,
            avg_cpu_util: 0.2,
        };
        let req = PlacementRequest::prefer_green(&vm, factor);
        prop_assert!(req.green_cores >= vm.cores);
        let ratio_before = vm.mem_gb / f64::from(vm.cores);
        let ratio_after = req.green_mem_gb / f64::from(req.green_cores);
        prop_assert!((ratio_before - ratio_after).abs() < 1e-9);
    }
}
