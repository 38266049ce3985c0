//! The differential gate: the production replay and sizing paths,
//! checked bit for bit against the oracle (`oracle.rs`) on generated
//! scenarios. Outcomes compare whole, packing metrics included, plus
//! the bits of the usage ledger's float totals; fault summaries compare
//! whole. Debug builds also cross-check every indexed server selection
//! against `choose_linear` inside the simulator, so these runs pin each
//! placement, not only the totals.
//!
//! What each case pins:
//!
//! - `replay_matches_the_oracle`: the production engine (prepared
//!   trace, placement index, arena) replays as the oracle does under
//!   every policy, fault-free and under sampled, rack-correlated
//!   with-repair and hand-built fault plans; its storage stays
//!   consistent and its densities finite; one shard is the same engine;
//!   the empty plan is the fault-free replay.
//! - `reset_reuse_matches_fresh_runs`: a reset simulator, plain or
//!   sharded, replays like a fresh one across growing and shrinking
//!   clusters (the sizing-probe pattern).
//! - `sharded_replay_is_worker_count_invariant`,
//!   `shard_boundary_faults_match_the_serial_reference`: the parallel
//!   shard driver equals the serial reference for every worker count,
//!   including faults on the first and last server of every shard.
//! - `hand_built_plans_match_the_oracle`,
//!   `horizon_edges_match_the_oracle`: fault orderings the random plans
//!   rarely hit: a fault on a snapshot boundary, repeat strikes,
//!   near-total degrades, faults and repairs at or past the horizon.
//! - `sizing_matches_the_oracle`,
//!   `sizing_shortcuts_match_the_plain_search`,
//!   `sizing_edge_cases_match_the_oracle`: `right_size` and the two
//!   `benchmark/` shims return the oracle's plain search's answer, `Ok`
//!   and `Err` alike, fault-free (where the high-water-mark shortcuts of
//!   DESIGN.md §15 answer) and faulted.
//! - `sharded_sizing_is_the_plain_search_over_sharded_replays`: sharded
//!   sizing is the oracle's search over the serial sharded reference,
//!   for any worker count.
//! - `fault_model_defaults_are_the_base_model`,
//!   `slo_sizing_is_monotone_in_the_budget`,
//!   `simulated_oos_fraction_matches_littles_law`,
//!   `sharded_sizing_is_never_smaller_than_unsharded`: properties of the
//!   availability layer and of shard routing that have no oracle arm.

mod oracle;

use gsf_cluster::sharded::replay_sharded;
use gsf_cluster::sizing::{
    right_size, right_size_baseline_only_prepared, right_size_mixed_prepared, AvailabilitySlo,
    FaultInjection, MixedSearch, SizingRequest,
};
use gsf_maintenance::{oos_fraction, FaultModel, FaultTopology, PoolDevices, ServerAfr};
use gsf_vmalloc::{
    AllocationSim, ClusterConfig, FaultEvent, FaultKind, FaultPlan, FaultPool, FaultSummary,
    PlacementPolicy, PlacementRequest, PreparedTrace, ServerShape, ShardedSim, SimOutcome,
};
use gsf_workloads::{ServerGeneration, Trace, VmEvent, VmEventKind, VmSpec};
use oracle::Oracle;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

const POLICIES: [PlacementPolicy; 3] =
    [PlacementPolicy::BestFit, PlacementPolicy::FirstFit, PlacementPolicy::WorstFit];

/// `n_vms` VMs arriving over 1000 s in a 2100 s trace, a
/// `full_node_pct` share of them full-node. A fifth stay resident to
/// the horizon, so settlement order matters as much as departures do.
/// Odd seeds give the VMs sparse ids (`7·i + 1000`, opaque as in
/// production traces) and shuffle the VM list, so slot order, id order
/// and arrival order all differ.
fn random_trace(n_vms: usize, seed: u64, full_node_pct: f64) -> Trace {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let sparse = seed % 2 == 1;
    let mut vms = Vec::new();
    let mut events = Vec::new();
    for i in 0..n_vms as u64 {
        let id = if sparse { 7 * i + 1000 } else { i };
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
    if sparse {
        // Fisher–Yates: the VM list in a random order.
        for i in (1..vms.len()).rev() {
            vms.swap(i, rng.gen_range(0..=i));
        }
    }
    Trace::new(2100.0, vms, events)
}

/// `n_vms` 8-core VMs resident together from t = 1 s to t = 1000 s.
fn concurrent_trace(n_vms: u64) -> Trace {
    let vms: Vec<VmSpec> = (0..n_vms)
        .map(|id| VmSpec {
            id,
            cores: 8,
            mem_gb: 32.0,
            app_index: (id % 4) as u16,
            generation: ServerGeneration::Gen3,
            full_node: false,
            max_mem_util: 0.5,
            avg_cpu_util: 0.2,
        })
        .collect();
    let events = (0..n_vms)
        .flat_map(|id| {
            [
                VmEvent { time_s: 1.0, kind: VmEventKind::Arrival, vm_id: id },
                VmEvent { time_s: 1000.0, kind: VmEventKind::Departure, vm_id: id },
            ]
        })
        .collect();
    Trace::new(2000.0, vms, events)
}

/// The routing every scenario replays: full-node VMs stay on baseline
/// servers, the rest prefer a GreenSKU at 1.25× their size.
fn routed(vm: &VmSpec) -> PlacementRequest {
    if vm.full_node {
        PlacementRequest::baseline_only(vm)
    } else {
        PlacementRequest::prefer_green(vm, 1.25)
    }
}

fn baseline_only(vm: &VmSpec) -> PlacementRequest {
    PlacementRequest::baseline_only(vm)
}

/// `SimOutcome` equality plus the bits of the usage ledger's float
/// totals, which `PartialEq` on `f64` would let `-0.0 == 0.0` blur.
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

fn assert_same(a: &(SimOutcome, FaultSummary), b: &(SimOutcome, FaultSummary)) {
    assert_bitwise(&a.0, &b.0);
    assert_eq!(a.1, b.1);
}

fn injection(model: &FaultModel, slo: Option<AvailabilitySlo>) -> FaultInjection<'_> {
    FaultInjection {
        model,
        baseline_devices: PoolDevices::baseline(),
        green_devices: PoolDevices::greensku_full(),
        slo,
    }
}

/// The paper's failure model with AFRs scaled by `afr_scale`.
fn sampled_model(seed: u64, afr_scale: f64) -> FaultModel {
    let mut model = FaultModel::paper(seed);
    model.afr_scale = afr_scale;
    model
}

/// Rack-correlated failures with 10-day repairs: domain strikes,
/// revivals and retry-queue traffic on small clusters.
fn domain_repair_model(seed: u64, afr_scale: f64) -> FaultModel {
    sampled_model(seed, afr_scale)
        .with_topology(FaultTopology::rack(3))
        .and_then(|m| m.with_repair_days(10.0))
        .unwrap_or_else(|e| panic!("valid knobs rejected: {e}"))
}

fn fault(time_s: f64, pool: FaultPool, server: u32, kind: FaultKind) -> FaultEvent {
    FaultEvent { time_s, pool, server, kind }
}

fn degrade(cores_lost: u32, mem_lost_gb: f64) -> FaultKind {
    FaultKind::PartialDegrade { cores_lost, mem_lost_gb }
}

/// Every fault kind on both pools: a full failure and its revive, a
/// degrade and a degrade past zero capacity (whose densities must stay
/// finite).
fn hand_built_plan(baseline: u32, green: u32, duration_s: f64) -> FaultPlan {
    use FaultKind::{FullFailure, Revive};
    use FaultPool::{Baseline, Green};
    let at = |share: f64| share * duration_s;
    let mut events = vec![fault(at(0.10), Baseline, 0, FullFailure)];
    if baseline > 1 {
        events.push(fault(at(0.20), Baseline, 1, degrade(16, 64.0)));
        events.push(fault(at(0.30), Baseline, 1, degrade(10_000, 1e9)));
    }
    events.push(fault(at(0.55), Baseline, 0, Revive));
    if green > 0 {
        events.push(fault(at(0.40), Green, 0, FullFailure));
        events.push(fault(at(0.80), Green, 0, Revive));
    }
    if green > 1 {
        events.push(fault(at(0.60), Green, 1, degrade(24, 96.0)));
    }
    FaultPlan::new(events, 4, baseline, green).unwrap()
}

/// A generated scenario: a trace, its routed plan, a cluster, and the
/// fault plans to replay them under.
struct Scenario {
    trace: Trace,
    prepared: PreparedTrace,
    config: ClusterConfig,
    plans: Vec<FaultPlan>,
}

impl Scenario {
    /// `n_vms` random VMs on `baseline` + `green` servers (`baseline >=
    /// 1`), under the empty plan, a plan sampled from the paper's AFRs
    /// scaled by `afr_scale`, a rack-correlated one with repairs, and
    /// the hand-built one.
    fn new(
        (n_vms, seed, full_node_pct): (usize, u64, f64),
        (baseline, green): (u32, u32),
        (model_seed, afr_scale): (u64, f64),
    ) -> Self {
        let trace = random_trace(n_vms, seed, full_node_pct);
        let prepared = PreparedTrace::new(&trace, &routed);
        let config = ClusterConfig::mixed(baseline, green);
        let duration_s = trace.duration_s();
        let plans = vec![
            FaultPlan::empty(),
            injection(&sampled_model(model_seed, afr_scale), None).plan_for(&config, duration_s),
            injection(&domain_repair_model(model_seed, afr_scale), None)
                .plan_for(&config, duration_s),
            hand_built_plan(baseline, green, duration_s),
        ];
        Self { trace, prepared, config, plans }
    }
}

/// The production replay of `prepared` on a fresh simulator, checked
/// against the oracle's and returned.
fn replay_checked(
    oracle: &Oracle<'_>,
    prepared: &PreparedTrace,
    config: ClusterConfig,
    plan: &FaultPlan,
) -> (SimOutcome, FaultSummary) {
    let mut sim = AllocationSim::new(config, oracle.policy)
        .with_snapshot_interval(oracle.snapshot_interval_s);
    let got = sim.replay_prepared_faulted(prepared, plan);
    assert!(sim.storage_consistent());
    assert_same(&got, &oracle.replay(config, plan));
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn replay_matches_the_oracle(
        n_vms in 1usize..60,
        baseline in 1u32..6,
        green in 0u32..4,
        seed in 0u64..400,
        model_seed in 0u64..64,
        afr_scale in 1.0..60.0f64,
    ) {
        let s = Scenario::new((n_vms, seed, 0.03), (baseline, green), (model_seed, afr_scale));
        for policy in POLICIES {
            let oracle = Oracle::new(&s.trace, &routed, policy);
            for plan in &s.plans {
                let got = replay_checked(&oracle, &s.prepared, s.config, plan);
                for pool in [&got.0.metrics.baseline, &got.0.metrics.green] {
                    prop_assert!(pool.mean_core_density().is_finite());
                    prop_assert!(pool.mean_mem_density().is_finite());
                    prop_assert!(pool.mean_max_mem_util().is_finite());
                }
                let one_shard = ShardedSim::new(s.config, policy, 1)
                    .replay_prepared_faulted(&s.prepared, plan);
                assert_same(&one_shard, &got);
            }
            let plain = AllocationSim::new(s.config, policy).replay_prepared(&s.prepared);
            let (faulted, summary) = AllocationSim::new(s.config, policy)
                .replay_prepared_faulted(&s.prepared, &FaultPlan::empty());
            assert_bitwise(&plain, &faulted);
            prop_assert_eq!(summary, FaultSummary::default());
        }
    }

    #[test]
    fn reset_reuse_matches_fresh_runs(
        n_vms in 1usize..40,
        seed in 0u64..400,
        shards in 2usize..4,
        model_seed in 0u64..32,
    ) {
        let trace = random_trace(n_vms, seed, 0.02);
        let prepared = PreparedTrace::new(&trace, &routed);
        let oracle = Oracle::new(&trace, &routed, PlacementPolicy::BestFit);
        let model = domain_repair_model(model_seed, 40.0);
        let mut sim = AllocationSim::new(ClusterConfig::mixed(1, 1), PlacementPolicy::BestFit);
        for (b, g) in [(1u32, 0u32), (4, 2), (2, 3), (1, 0)] {
            let config = ClusterConfig::mixed(b, g);
            let sampled = injection(&model, None).plan_for(&config, trace.duration_s());
            for plan in [FaultPlan::empty(), sampled] {
                sim.reset(config);
                prop_assert!(sim.storage_consistent());
                let reused = sim.replay_prepared_faulted(&prepared, &plan);
                prop_assert!(sim.storage_consistent());
                assert_same(&reused, &oracle.replay(config, &plan));
            }
        }
        let mut sharded =
            ShardedSim::new(ClusterConfig::mixed(1, 1), PlacementPolicy::BestFit, shards);
        for (b, g) in [(1u32, 0u32), (6, 3), (3, 4), (1, 0)] {
            let config = ClusterConfig::mixed(b, g);
            sharded.reset(config);
            let reused = replay_sharded(&mut sharded, &prepared, &FaultPlan::empty(), 3);
            let fresh = ShardedSim::new(config, PlacementPolicy::BestFit, shards)
                .replay_prepared_faulted(&prepared, &FaultPlan::empty());
            assert_same(&reused, &fresh);
        }
    }

    #[test]
    fn sharded_replay_is_worker_count_invariant(
        n_vms in 1usize..60,
        baseline in 1u32..8,
        green in 0u32..5,
        shards in 1usize..5,
        seed in 0u64..400,
        model_seed in 0u64..64,
        afr_scale in 1.0..60.0f64,
    ) {
        let s = Scenario::new((n_vms, seed, 0.03), (baseline, green), (model_seed, afr_scale));
        for policy in POLICIES {
            for plan in &s.plans {
                let serial = ShardedSim::new(s.config, policy, shards)
                    .replay_prepared_faulted(&s.prepared, plan);
                for workers in [1usize, 2, 7] {
                    let mut sim = ShardedSim::new(s.config, policy, shards);
                    assert_same(&replay_sharded(&mut sim, &s.prepared, plan, workers), &serial);
                }
                if shards == 1 {
                    let oracle = Oracle::new(&s.trace, &routed, policy);
                    assert_same(&serial, &oracle.replay(s.config, plan));
                }
            }
        }
    }
}

/// A fault on a snapshot boundary (the snapshot samples the pre-fault
/// cluster), a repeat strike on a failed server, and a degrade to near
/// zero that evicts everything resident.
#[test]
fn hand_built_plans_match_the_oracle() {
    use FaultKind::FullFailure;
    use FaultPool::{Baseline, Green};
    let trace = random_trace(40, 7, 0.0);
    let prepared = PreparedTrace::new(&trace, &routed);
    let config = ClusterConfig::mixed(3, 2);
    let plans = [
        vec![
            fault(300.0, Baseline, 0, degrade(40, 256.0)),
            fault(600.0, Green, 1, FullFailure),
            fault(900.0, Green, 1, FullFailure),
            fault(1500.0, Baseline, 2, FullFailure),
        ],
        vec![
            fault(300.0, Baseline, 0, degrade(40, 256.0)),
            fault(600.0, Green, 1, FullFailure),
            fault(900.0, Green, 1, FullFailure),
            fault(1200.0, Baseline, 1, degrade(79, 760.0)),
            fault(1500.0, Baseline, 2, FullFailure),
        ],
    ];
    for events in plans {
        let plan = FaultPlan::new(events, 3, 3, 2).unwrap();
        for policy in POLICIES {
            let oracle =
                Oracle { snapshot_interval_s: 600.0, ..Oracle::new(&trace, &routed, policy) };
            let (_, summary) = replay_checked(&oracle, &prepared, config, &plan);
            assert_eq!(summary.full_failures, 2, "the repeat strike must be a no-op");
        }
    }
}

/// Every engine's replay of `plan`: production against the oracle, one
/// and two shards serial against parallel, one shard against
/// production.
fn replay_everywhere(
    trace: &Trace,
    config: ClusterConfig,
    plan: &FaultPlan,
) -> (SimOutcome, FaultSummary) {
    let prepared = PreparedTrace::new(trace, &routed);
    let oracle = Oracle::new(trace, &routed, PlacementPolicy::BestFit);
    let production = replay_checked(&oracle, &prepared, config, plan);
    for shards in [1usize, 2] {
        let mut sim = ShardedSim::new(config, PlacementPolicy::BestFit, shards);
        let parallel = replay_sharded(&mut sim, &prepared, plan, 2);
        let serial = ShardedSim::new(config, PlacementPolicy::BestFit, shards)
            .replay_prepared_faulted(&prepared, plan);
        assert_same(&parallel, &serial);
        if shards == 1 {
            assert_same(&serial, &production);
        }
    }
    production
}

/// A fault at the horizon strikes; a repair past it never lands (the
/// replay equals the one without it); a repair at the horizon lands.
#[test]
fn horizon_edges_match_the_oracle() {
    use FaultKind::{FullFailure, Revive};
    use FaultPool::Baseline;
    let config = ClusterConfig::mixed(3, 2);
    let plan = |events| FaultPlan::new(events, 3, 3, 2).unwrap();

    let trace = random_trace(20, 3, 0.0);
    let end = trace.duration_s();
    let (_, summary) =
        replay_everywhere(&trace, config, &plan(vec![fault(end, Baseline, 0, FullFailure)]));
    assert_eq!(summary.full_failures, 1, "a fault at the horizon strikes: {summary:?}");

    let trace = random_trace(20, 5, 0.0);
    let end = trace.duration_s();
    let failure = fault(100.0, Baseline, 0, FullFailure);
    let late = replay_everywhere(
        &trace,
        config,
        &plan(vec![failure, fault(end + 50.0, Baseline, 0, Revive)]),
    );
    assert_same(&late, &replay_everywhere(&trace, config, &plan(vec![failure])));
    assert_eq!(late.1.revivals, 0, "a repair past the horizon never lands: {:?}", late.1);

    let trace = random_trace(20, 7, 0.0);
    let end = trace.duration_s();
    let (_, summary) =
        replay_everywhere(&trace, config, &plan(vec![failure, fault(end, Baseline, 0, Revive)]));
    assert_eq!(summary.revivals, 1, "a repair at the horizon lands: {summary:?}");
}

/// Faults on the first and last server of every shard's slice of both
/// pools, in global indices, with repeat strikes: an off-by-one in the
/// global-to-local remap would strike a neighbour's server or none.
#[test]
fn shard_boundary_faults_match_the_serial_reference() {
    let trace = random_trace(50, 11, 0.0);
    let prepared = PreparedTrace::new(&trace, &routed);
    let config = ClusterConfig::mixed(7, 5);
    for shards in [2usize, 3, 5] {
        let layout = ShardedSim::new(config, PlacementPolicy::BestFit, shards);
        let mut events = Vec::new();
        let mut t = 100.0;
        for s in 0..layout.shards() {
            let (b_lo, b_hi) = layout.plan().baseline_range(s);
            let (g_lo, g_hi) = layout.plan().green_range(s);
            for (pool, lo, hi) in
                [(FaultPool::Baseline, b_lo, b_hi), (FaultPool::Green, g_lo, g_hi)]
            {
                if lo == hi {
                    continue;
                }
                events.push(fault(t, pool, lo, degrade(40, 256.0)));
                events.push(fault(t + 50.0, pool, hi - 1, FaultKind::FullFailure));
                events.push(fault(t + 75.0, pool, hi - 1, FaultKind::FullFailure));
                t += 100.0;
            }
        }
        let plan = FaultPlan::new(events, 3, 7, 5).unwrap();
        for policy in POLICIES {
            let serial =
                ShardedSim::new(config, policy, shards).replay_prepared_faulted(&prepared, &plan);
            for workers in [1usize, 2, 7] {
                let mut sim = ShardedSim::new(config, policy, shards);
                assert_same(&replay_sharded(&mut sim, &prepared, &plan, workers), &serial);
            }
            assert!(serial.1.full_failures >= 1, "the plan lands full failures");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sizing_matches_the_oracle(
        n_vms in 1usize..40,
        seed in 0u64..200,
        model_seed in 0u64..32,
    ) {
        let trace = random_trace(n_vms, seed, 0.02);
        let prepared = PreparedTrace::new(&trace, &routed);
        let prepared_baseline = PreparedTrace::new(&trace, &baseline_only);
        let (shape, green) = (ServerShape::baseline_gen3(), ServerShape::greensku());
        let sampled = sampled_model(model_seed, 30.0);
        let domains = domain_repair_model(model_seed, 30.0);
        let slo = Some(AvailabilitySlo { max_vm_minutes_lost: 60.0 });
        let injections = [injection(&sampled, None), injection(&domains, slo)];
        let policy = PlacementPolicy::BestFit;
        for faults in [None, Some(&injections[0]), Some(&injections[1])] {
            let request =
                SizingRequest { faults, ..SizingRequest::new(&prepared_baseline, shape, policy) };
            let n0 = right_size(&request);
            prop_assert_eq!(&n0, &oracle::right_size(&trace, None, shape, policy, faults));
            let mixed = SizingRequest {
                mixed: Some(MixedSearch { prepared: &prepared, green_shape: green }),
                ..request
            };
            let sized = right_size(&mixed);
            prop_assert_eq!(
                &sized,
                &oracle::right_size(&trace, Some((&routed, green)), shape, policy, faults)
            );
            prop_assert_eq!(&sized, &right_size(&mixed), "a repeated search is stable");
            prop_assert_eq!(
                right_size_baseline_only_prepared(&prepared_baseline, shape, policy, faults),
                n0.map(|(n0, _)| n0)
            );
            prop_assert_eq!(
                right_size_mixed_prepared(
                    &prepared, &prepared_baseline, shape, green, policy, faults,
                ),
                sized.map(|(_, plan)| plan)
            );
        }
    }
}

/// Sizing cases the random traces never reach. An empty trace sizes to
/// the peak-demand lower bound of one server, not to its zero mark. 200
/// concurrent VMs at 2× and 2.5× on GreenSKUs overfill the initial green
/// cap: the plan at that cap pins baseline servers for the overflow, and
/// the doubled cap frees them.
#[test]
fn sizing_edge_cases_match_the_oracle() {
    let (shape, green) = (ServerShape::baseline_gen3(), ServerShape::greensku());
    for policy in POLICIES {
        let empty = Trace::new(2000.0, Vec::new(), Vec::new());
        let prepared = PreparedTrace::new(&empty, &baseline_only);
        let sized = right_size(&SizingRequest::new(&prepared, shape, policy));
        assert_eq!(sized, Ok((1, gsf_cluster::ClusterPlan { baseline: 1, green: 0 })));
        assert_eq!(sized, oracle::right_size(&empty, None, shape, policy, None));

        let trace = concurrent_trace(200);
        let prepared_baseline = PreparedTrace::new(&trace, &baseline_only);
        for factor in [2.0, 2.5] {
            let transform = |vm: &VmSpec| PlacementRequest::prefer_green(vm, factor);
            let prepared = PreparedTrace::new(&trace, &transform);
            let sized = right_size(&SizingRequest {
                mixed: Some(MixedSearch { prepared: &prepared, green_shape: green }),
                ..SizingRequest::new(&prepared_baseline, shape, policy)
            });
            let reference =
                oracle::right_size(&trace, Some((&transform, green)), shape, policy, None);
            assert_eq!(sized, reference, "{policy} x{factor}");
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

    /// Fault-free sizing, where every high-water-mark shortcut
    /// (DESIGN.md §15) answers, against the oracle's plain search:
    /// every policy, scaling factors from 1.0 to 3.0 (3.0 doubles the
    /// green cap), full-node shares of 0, 5 and 30 %, a GreenSKU
    /// smaller than the baseline server, and an extra VM that fails
    /// either the `n0` search or only the mixed search, the second
    /// through the early `Infeasible { n0 + cap_limit }` return.
    #[test]
    fn sizing_shortcuts_match_the_plain_search(
        n_vms in 1usize..40,
        seed in 0u64..400,
        draw in 0usize..3,
    ) {
        let extra = [ExtraVm::None, ExtraVm::Oversized, ExtraVm::InflatedWhenMixed][draw];
        let baseline = ServerShape::baseline_gen3();
        let small_green = ServerShape { cores: 48, mem_gb: 384.0 };
        let inflated_id = n_vms as u64;
        for full_node_pct in [0.0, 0.05, 0.3] {
            let trace = sizing_trace(n_vms, seed, full_node_pct, extra);
            let prepared_baseline = PreparedTrace::new(&trace, &baseline_only);
            for policy in POLICIES {
                let request = SizingRequest::new(&prepared_baseline, baseline, policy);
                let n0 = right_size(&request);
                prop_assert_eq!(&n0, &oracle::right_size(&trace, None, baseline, policy, None));
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
                        let sized = right_size(&SizingRequest {
                            mixed: Some(MixedSearch { prepared: &prepared, green_shape: green }),
                            ..request
                        });
                        let reference = oracle::right_size(
                            &trace, Some((&transform, green)), baseline, policy, None,
                        );
                        prop_assert_eq!(&sized, &reference, "{} x{} {:?}", policy, factor, green);
                        if extra == ExtraVm::InflatedWhenMixed {
                            prop_assert!(n0.is_ok() && sized.is_err(), "{:?} {:?}", n0, sized);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sharded_sizing_is_the_plain_search_over_sharded_replays(
        n_vms in 1usize..40,
        shards in 1usize..4,
        seed in 0u64..200,
        model_seed in 0u64..32,
    ) {
        let trace = random_trace(n_vms, seed, 0.0);
        let prepared = PreparedTrace::new(&trace, &routed);
        let prepared_baseline = PreparedTrace::new(&trace, &baseline_only);
        let (shape, green) = (ServerShape::baseline_gen3(), ServerShape::greensku());
        let policy = PlacementPolicy::BestFit;
        let model = sampled_model(model_seed, 30.0);
        let inj = injection(&model, None);
        for faults in [None, Some(&inj)] {
            let request = SizingRequest {
                mixed: Some(MixedSearch { prepared: &prepared, green_shape: green }),
                faults,
                shards,
                ..SizingRequest::new(&prepared_baseline, shape, policy)
            };
            let serial = right_size(&request);
            for workers in [2usize, 5] {
                prop_assert_eq!(&right_size(&SizingRequest { workers, ..request }), &serial);
            }
            let fits = |prepared: &PreparedTrace, config: ClusterConfig| {
                let plan = faults.map_or_else(FaultPlan::empty, |inj| {
                    inj.plan_for(&config, trace.duration_s())
                });
                let (outcome, summary) = ShardedSim::new(config, policy, shards)
                    .replay_prepared_faulted(prepared, &plan);
                outcome.no_rejections() && faults.is_none_or(|inj| inj.admits(&summary))
            };
            let reference = oracle::n0_search(trace.peak_demand(), shape, |c| {
                fits(&prepared_baseline, c)
            })
            .and_then(|n0| {
                oracle::mixed_search(n0, shape, green, |c| fits(&prepared, c)).map(|p| (n0, p))
            });
            prop_assert_eq!(&serial, &reference);
            if shards == 1 {
                let unsharded =
                    oracle::right_size(&trace, Some((&routed, green)), shape, policy, faults);
                prop_assert_eq!(&serial, &unsharded);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Setting the topology and repair knobs to their defaults is the
    /// base model: same signature (so sizing-cache keys hold), the same
    /// sampled plan bit for bit, and the same sizing.
    #[test]
    fn fault_model_defaults_are_the_base_model(
        n_vms in 1usize..30,
        seed in 0u64..100,
        model_seed in 0u64..32,
        afr_scale in 5.0..50.0f64,
    ) {
        let base = sampled_model(model_seed, afr_scale);
        let flat = base
            .with_topology(FaultTopology::flat())
            .and_then(|m| m.with_repair_days(0.0))
            .unwrap_or_else(|e| panic!("default knobs rejected: {e}"));
        prop_assert_eq!(flat.signature(), base.signature());
        let trace = random_trace(n_vms, seed, 0.0);
        let config = ClusterConfig::mixed(4, 3);
        let plan_base = injection(&base, None).plan_for(&config, trace.duration_s());
        let plan_flat = injection(&flat, None).plan_for(&config, trace.duration_s());
        prop_assert_eq!(&plan_base, &plan_flat);
        for (a, b) in plan_base.events().iter().zip(plan_flat.events()) {
            prop_assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
        }
        let prepared = PreparedTrace::new(&trace, &routed);
        let prepared_baseline = PreparedTrace::new(&trace, &baseline_only);
        let (inj_base, inj_flat) = (injection(&base, None), injection(&flat, None));
        let request = SizingRequest {
            mixed: Some(MixedSearch { prepared: &prepared, green_shape: ServerShape::greensku() }),
            ..SizingRequest::new(
                &prepared_baseline,
                ServerShape::baseline_gen3(),
                PlacementPolicy::BestFit,
            )
        };
        prop_assert_eq!(
            right_size(&SizingRequest { faults: Some(&inj_base), ..request }),
            right_size(&SizingRequest { faults: Some(&inj_flat), ..request })
        );
    }
}

/// A tighter availability SLO only grows the cluster: the feasible sets
/// nest, so the smallest feasible size cannot shrink as the budget
/// does.
#[test]
fn slo_sizing_is_monotone_in_the_budget() {
    let trace = random_trace(40, 9, 0.0);
    let prepared_baseline = PreparedTrace::new(&trace, &baseline_only);
    let model = sampled_model(5, 60.0)
        .with_topology(FaultTopology::rack(2))
        .and_then(|m| m.with_repair_days(20.0))
        .unwrap_or_else(|e| panic!("valid knobs rejected: {e}"));
    let size_at = |budget: f64| -> u32 {
        let inj = injection(&model, Some(AvailabilitySlo { max_vm_minutes_lost: budget }));
        let request = SizingRequest {
            faults: Some(&inj),
            ..SizingRequest::new(
                &prepared_baseline,
                ServerShape::baseline_gen3(),
                PlacementPolicy::BestFit,
            )
        };
        right_size(&request).unwrap_or_else(|e| panic!("infeasible at budget {budget}: {e}")).0
    };
    let budgets = [1e12, 1e4, 100.0, 1.0, 0.0];
    let sizes: Vec<u32> = budgets.iter().map(|&b| size_at(b)).collect();
    for pair in sizes.windows(2) {
        assert!(pair[1] >= pair[0], "a tighter SLO shrank the cluster: {sizes:?} at {budgets:?}");
    }
}

/// Little's law: over a large pool, the simulated steady-state
/// out-of-service fraction (server-down time per server-second of
/// horizon) matches the closed-form `oos_fraction` the maintenance
/// component uses, within statistical tolerance.
#[test]
fn simulated_oos_fraction_matches_littles_law() {
    let servers = 200u32;
    let (afr_scale, repair_days) = (30.0, 3.0);
    let mut model = sampled_model(13, afr_scale);
    // Every failure is full (FIP off), so every one produces downtime.
    model.fip = gsf_maintenance::FipPolicy::disabled();
    let model = model
        .with_repair_days(repair_days)
        .unwrap_or_else(|e| panic!("valid repair rejected: {e}"));
    let trace = random_trace(5, 21, 0.0);
    let config = ClusterConfig::baseline_only(servers);
    let plan = injection(&model, None).plan_for(&config, trace.duration_s());
    let prepared = PreparedTrace::new(&trace, &baseline_only);
    let (_, summary) = AllocationSim::new(config, PlacementPolicy::BestFit)
        .replay_prepared_faulted(&prepared, &plan);
    let measured =
        summary.availability.server_down_seconds / (f64::from(servers) * trace.duration_s());
    let devices = PoolDevices::baseline();
    let afr = ServerAfr::new(&model.afrs, devices.dimms, devices.ssds);
    let expected = oos_fraction(afr.total * afr_scale, repair_days);
    assert!(expected > 0.005, "the fixture should produce measurable downtime: {expected}");
    let rel = (measured - expected).abs() / expected;
    assert!(rel < 0.35, "simulated OOS {measured:.5} vs Little's law {expected:.5} ({rel:.2})");
}

/// Shard routing only restricts placement (no cross-shard overflow),
/// so on a uniform concurrent load a sharded search needs at least as
/// many servers.
#[test]
fn sharded_sizing_is_never_smaller_than_unsharded() {
    let trace = concurrent_trace(40);
    let prepared = PreparedTrace::new(&trace, &routed);
    let prepared_baseline = PreparedTrace::new(&trace, &baseline_only);
    let request = SizingRequest {
        mixed: Some(MixedSearch { prepared: &prepared, green_shape: ServerShape::greensku() }),
        ..SizingRequest::new(
            &prepared_baseline,
            ServerShape::baseline_gen3(),
            PlacementPolicy::BestFit,
        )
    };
    let (_, unsharded) = right_size(&request).unwrap();
    for shards in [2usize, 4] {
        let (_, sharded) = right_size(&SizingRequest { shards, workers: 2, ..request }).unwrap();
        assert!(
            sharded.total() >= unsharded.total(),
            "K={shards}: sharded {sharded:?} < unsharded {unsharded:?}"
        );
    }
}
