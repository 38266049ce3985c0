//! Pins the arena replay core's allocation budget (DESIGN.md §13).
//!
//! After one warming replay, the steady-state event loop must not touch
//! the heap per event: VM storage lives in the retained slot arena,
//! occupancy lists and scratch buffers keep their capacity across
//! `reset()`, and the per-pass evacuation buffers are reused. The only
//! allocations left per replay are O(distinct apps) usage-ledger nodes
//! — independent of the event count. So the pin is: a warmed replay of
//! a 10×-larger trace allocates *exactly* as much as the small one
//! (zero marginal allocations per event), and that shared constant is
//! small in absolute terms.
//!
//! The fault path gets the same pin: a warmed replay striking both
//! traces with one fixed plan (a full failure, a degrade, and a revive
//! of the failed server, all on a pool with room to evacuate into)
//! allocates exactly as much on the 10×-larger trace. Its constant is
//! the ledger root plus the one downtime-map node the failure opens.
//!
//! So does the sizing search's forked GreenSKU probe (DESIGN.md §15):
//! a cursor's feasibility run up to the event where a limit GreenSKU
//! would open, a state copy into the probe simulator, and the probe's
//! limited run from there to the end of the trace.
//!
//! This test must be the only `#[test]` in its binary: the counting
//! allocator is process-global, and a concurrently running test would
//! perturb the counts.

use gsf_perf::alloc_count::CountingAllocator;
use gsf_vmalloc::{
    AllocationSim, ClusterConfig, FaultEvent, FaultKind, FaultPlan, FaultPool, GreenLimit,
    PlacementPolicy, PlacementRequest, PreparedTrace, RunEnd,
};
use gsf_workloads::{ServerGeneration, Trace, VmEvent, VmEventKind, VmSpec};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

const APPS: u16 = 8;

/// A deterministic arrival/departure churn trace touching all `APPS`
/// app indices; no RNG so the test needs no dev-dependency on one.
fn churn_trace(n_vms: usize, duration_s: f64) -> Trace {
    let mut vms = Vec::with_capacity(n_vms);
    let mut events = Vec::with_capacity(2 * n_vms);
    for id in 0..n_vms as u64 {
        let cores = [1u32, 2, 4][id as usize % 3];
        vms.push(VmSpec {
            id,
            cores,
            mem_gb: f64::from(cores) * 4.0,
            app_index: (id % u64::from(APPS)) as u16,
            generation: ServerGeneration::Gen3,
            full_node: false,
            max_mem_util: 0.5,
            avg_cpu_util: 0.2,
        });
        let arrive = (id as f64 * 7.0) % (0.6 * duration_s);
        events.push(VmEvent { time_s: arrive, kind: VmEventKind::Arrival, vm_id: id });
        events.push(VmEvent {
            time_s: arrive + 0.3 * duration_s,
            kind: VmEventKind::Departure,
            vm_id: id,
        });
    }
    Trace::new(duration_s, vms, events)
}

#[test]
fn steady_state_replay_allocates_zero_per_event() {
    let transform = |vm: &VmSpec| PlacementRequest::baseline_only(vm);
    let small = churn_trace(150, 10_000.0);
    let large = churn_trace(1_500, 10_000.0);
    let prepared_small = PreparedTrace::new(&small, &transform);
    let prepared_large = PreparedTrace::new(&large, &transform);
    // Ample capacity: zero rejections, so both traces place every VM
    // and touch the identical app set (identical ledger-node counts).
    let config = ClusterConfig::baseline_only(60);
    let mut sim = AllocationSim::new(config, PlacementPolicy::BestFit);
    let empty = FaultPlan::empty();
    // Server 0 hosts VMs of both traces when it fails at t=2000; the
    // other 59 servers absorb every displaced VM, so nothing waits in
    // the pending queue.
    let strike = |time_s: f64, server: u32, kind: FaultKind| FaultEvent {
        time_s,
        pool: FaultPool::Baseline,
        server,
        kind,
    };
    let faulted = FaultPlan::new(
        vec![
            strike(2_000.0, 0, FaultKind::FullFailure),
            strike(3_000.0, 1, FaultKind::PartialDegrade { cores_lost: 40, mem_lost_gb: 0.0 }),
            strike(5_000.0, 0, FaultKind::Revive),
        ],
        3,
        60,
        0,
    )
    .expect("the plan addresses servers of the 60-server pool");

    // Warm: grow the arena, occupancy lists, and scratch buffers to the
    // high-water marks of every replay measured below.
    for plan in [&empty, &faulted] {
        for prepared in [&prepared_large, &prepared_small] {
            sim.replay_prepared_faulted(prepared, plan);
            sim.reset(config);
        }
    }

    let mut measure = |prepared: &PreparedTrace, n_vms: usize, plan: &FaultPlan| {
        let before = ALLOC.allocations();
        let (out, summary) = sim.replay_prepared_faulted(prepared, plan);
        let allocated = ALLOC.allocations() - before;
        assert_eq!(out.rejected, 0, "fixture must not reject");
        assert_eq!(out.placed_baseline, n_vms);
        sim.reset(config);
        (allocated, summary)
    };

    let (small_allocs, _) = measure(&prepared_small, 150, &empty);
    let (large_allocs, _) = measure(&prepared_large, 1_500, &empty);

    assert_eq!(
        small_allocs, large_allocs,
        "heap allocations grew with the event count: a hot-loop \
         allocation crept back into the arena replay core \
         (small trace: {small_allocs}, 10x trace: {large_allocs})"
    );
    // The shared constant is the O(apps) ledger nodes (currently one
    // BTreeMap root holding all eight apps) — nowhere near the
    // thousands a per-event allocation would show.
    assert!(
        small_allocs <= 2 * u64::from(APPS),
        "per-replay allocation constant regressed: {small_allocs}"
    );

    let (small_faulted, small_summary) = measure(&prepared_small, 150, &faulted);
    let (large_faulted, large_summary) = measure(&prepared_large, 1_500, &faulted);
    for summary in [small_summary, large_summary] {
        let struck = (summary.full_failures, summary.partial_degrades, summary.revivals);
        assert_eq!(struck, (1, 1, 1), "every fault must strike: {summary:?}");
        assert!(summary.displaced > 0, "the failure must displace VMs: {summary:?}");
        assert_eq!(summary.evacuated, summary.displaced, "{summary:?}");
    }
    assert_eq!(
        small_faulted, large_faulted,
        "heap allocations grew with the event count on the fault path \
         (strike, evacuation, revive) \
         (small trace: {small_faulted}, 10x trace: {large_faulted})"
    );
    assert!(
        small_faulted <= 2 * u64::from(APPS),
        "faulted per-replay allocation constant regressed: {small_faulted}"
    );

    // The forked GreenSKU probe on a mixed cluster with GreenSKUs to
    // spare. The limit is half the green mark of each trace's full
    // replay, so the cursor stops partway through the trace and the
    // probe overflows to the baseline pool from there to the end.
    let mixed = ClusterConfig::mixed(60, 40);
    let prefer_green = |vm: &VmSpec| PlacementRequest::prefer_green(vm, 1.0);
    let routed_small = PreparedTrace::new(&small, &prefer_green);
    let routed_large = PreparedTrace::new(&large, &prefer_green);
    let mut cursor = AllocationSim::new(mixed, PlacementPolicy::BestFit);
    let mut probe = AllocationSim::new(mixed, PlacementPolicy::BestFit);
    let mut fork = |prepared: &PreparedTrace| {
        cursor.reset(mixed);
        let full = cursor.run_feasibility(prepared, 0, GreenLimit::Stop(u32::MAX));
        assert_eq!(full, RunEnd::Hosted, "fixture must not reject");
        let limit = cursor.high_water_marks().green / 2;
        assert!(limit > 0, "fixture must open GreenSKUs");
        cursor.reset(mixed);
        let before = ALLOC.allocations();
        let stopped = cursor.run_feasibility(prepared, 0, GreenLimit::Stop(limit));
        probe.clone_from(&cursor);
        let RunEnd::Stopped(at) = stopped else {
            panic!("the cursor must stop at GreenSKU {limit}: {stopped:?}");
        };
        let end = probe.run_feasibility(prepared, at, GreenLimit::Overflow(limit));
        let allocated = ALLOC.allocations() - before;
        assert_eq!(end, RunEnd::Hosted, "fixture must not reject");
        allocated
    };
    // Warm: grow both simulators to the large trace's state first.
    for prepared in [&routed_large, &routed_small] {
        fork(prepared);
    }
    let small_fork = fork(&routed_small);
    let large_fork = fork(&routed_large);
    assert_eq!(
        small_fork, large_fork,
        "heap allocations grew with the event count on the forked probe \
         (cursor run, state copy, limited run) \
         (small trace: {small_fork}, 10x trace: {large_fork})"
    );
    assert_eq!(small_fork, 0, "a warm fork must not allocate: {small_fork}");
}
