//! Cluster sizing: the §V search for the right mix of baseline SKUs and
//! GreenSKUs.
//!
//! The paper's procedure: right-size a baseline-only cluster (smallest
//! server count hosting the trace without rejections), then replace
//! baseline SKUs with GreenSKUs until no further replacement is
//! possible; VMs that cannot adopt the GreenSKU pin the residual
//! baseline pool. Both steps are monotone feasibility searches, so they
//! run as binary searches over simulator replays. Fault-free searches
//! on one indexed simulator answer most probes from the placement
//! high-water mark of a replay they already ran (DESIGN.md §15).

use gsf_maintenance::{FaultModel, PoolDevices};
use gsf_vmalloc::{
    AllocationSim, ClusterConfig, FaultPlan, HighWaterMarks, PlacementPolicy, PreparedTrace,
    ServerShape, VmTransform,
};
use gsf_workloads::Trace;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Availability SLO for the fault-aware sizing searches: instead of
/// demanding that *every* displaced VM is immediately re-placed, allow
/// a bounded amount of measured downtime. A tighter bound (smaller
/// `max_vm_minutes_lost`) shrinks the feasible set, so the resulting
/// cluster can only grow — the searches stay monotone.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AvailabilitySlo {
    /// Maximum tolerated VM-minutes of downtime over the replay
    /// (queue wait of displaced VMs; `0.0` is as strict as the
    /// all-evacuated default, but additionally rejects any nonzero
    /// wait even if the VM is eventually re-placed).
    pub max_vm_minutes_lost: f64,
}

/// Fault injection as seen by the sizing searches: a model plus the
/// per-pool device counts it needs to derive server AFRs. When present,
/// "feasible" tightens from "no rejections" to "no rejections *and*
/// every fault-displaced VM found a new home" — sizing then provisions
/// enough slack to ride out the sampled failures. An optional
/// [`AvailabilitySlo`] relaxes the latter into a downtime budget.
#[derive(Debug, Clone, Copy)]
pub struct FaultInjection<'a> {
    /// The fault model (must be enabled; a disabled model is the same
    /// as passing `None`).
    pub model: &'a FaultModel,
    /// Device counts per baseline server.
    pub baseline_devices: PoolDevices,
    /// Device counts per GreenSKU server.
    pub green_devices: PoolDevices,
    /// Downtime budget; `None` keeps the strict all-evacuated
    /// predicate.
    pub slo: Option<AvailabilitySlo>,
}

impl FaultInjection<'_> {
    /// The fault plan this injection schedules for one candidate
    /// cluster configuration.
    pub fn plan_for(&self, config: &ClusterConfig, duration_s: f64) -> FaultPlan {
        self.model.plan(config, self.baseline_devices, self.green_devices, duration_s)
    }

    /// The fault-side feasibility predicate: strict all-evacuated by
    /// default, or the downtime budget when an SLO is set.
    pub fn admits(&self, summary: &gsf_vmalloc::FaultSummary) -> bool {
        match self.slo {
            None => summary.all_evacuated(),
            Some(slo) => summary.availability.vm_minutes_lost() <= slo.max_vm_minutes_lost,
        }
    }
}

/// The sized cluster: how many of each SKU the workload needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterPlan {
    /// Baseline servers required.
    pub baseline: u32,
    /// GreenSKU servers required.
    pub green: u32,
}

impl ClusterPlan {
    /// Total servers in the plan.
    pub fn total(&self) -> u32 {
        self.baseline + self.green
    }
}

/// Errors from the sizing search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SizingError {
    /// The trace cannot be hosted even at the search bound (e.g. a
    /// single VM larger than any server).
    Infeasible {
        /// The bound at which the search gave up.
        bound: u32,
    },
}

impl fmt::Display for SizingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SizingError::Infeasible { bound } => {
                write!(f, "trace cannot be hosted even with {bound} servers")
            }
        }
    }
}

impl std::error::Error for SizingError {}

/// One feasibility probe's answer to a search skeleton.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Probe {
    /// Whether the candidate configuration hosts the trace.
    pub(crate) feasible: bool,
    /// The replay's placement high-water marks when the probe is
    /// exact — fault-free on one unsharded, indexed simulator — so the
    /// skeletons may answer other configurations from them
    /// (DESIGN.md §15). `None` keeps the plain binary search, probe for
    /// probe.
    pub(crate) marks: Option<HighWaterMarks>,
}

impl Probe {
    /// A probe that reports feasibility only.
    pub(crate) fn plain(feasible: bool) -> Self {
        Self { feasible, marks: None }
    }
}

/// Feasibility probe on the prepared replay engine: the plan is built
/// once per sizing call and replayed across every probe. Fault-free
/// probes report their high-water marks when `exact`.
fn feasible_prepared(
    sim: &mut AllocationSim,
    prepared: &PreparedTrace,
    config: ClusterConfig,
    faults: Option<&FaultInjection<'_>>,
    exact: bool,
) -> Probe {
    sim.reset(config);
    match faults {
        None => Probe {
            feasible: sim.replay_prepared(prepared).no_rejections(),
            marks: exact.then(|| sim.high_water_marks()),
        },
        Some(inj) => {
            let plan = inj.plan_for(&config, prepared.duration_s());
            let (outcome, summary) = sim.replay_prepared_faulted(prepared, &plan);
            Probe::plain(outcome.no_rejections() && inj.admits(&summary))
        }
    }
}

/// Feasibility probe on the unprepared reference engine; bit-identical
/// to [`feasible_prepared`] by the replay-equivalence contract.
fn feasible_unprepared(
    sim: &mut AllocationSim,
    trace: &Trace,
    transform: &VmTransform<'_>,
    config: ClusterConfig,
    faults: Option<&FaultInjection<'_>>,
) -> Probe {
    sim.reset(config);
    Probe::plain(match faults {
        None => sim.replay_unprepared(trace, transform).no_rejections(),
        Some(inj) => {
            let plan = inj.plan_for(&config, trace.duration_s());
            let (outcome, summary) = sim.replay_faulted_unprepared(trace, transform, &plan);
            outcome.no_rejections() && inj.admits(&summary)
        }
    })
}

/// Smallest `n` in `[lo, hi]` with `pred(n)` true, assuming monotone
/// feasibility; `None` if the range is empty or even `hi` fails.
fn binary_search_min(lo: u32, hi: u32, mut pred: impl FnMut(u32) -> bool) -> Option<u32> {
    // An empty range has no feasible point; without this guard the
    // search would return `Some(lo)` without ever evaluating `pred(lo)`.
    if lo > hi || !pred(hi) {
        return None;
    }
    Some(bisect(lo, hi, pred))
}

/// Smallest `n` in `[lo, hi]` with `pred(n)` true, given that `pred(hi)`
/// holds (and is not asked again).
fn bisect(mut lo: u32, mut hi: u32, mut pred: impl FnMut(u32) -> bool) -> u32 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Smallest baseline-pool count in `[lo, hi]` with a feasible probe —
/// the dimension both skeletons search — plus the marks of the first
/// probe (the one at `hi`).
///
/// A feasible exact probe at `hi` settles the whole range
/// (DESIGN.md §15): every count at or above its baseline mark replays
/// it event for event, and every count `n` below it rejects the VM that
/// opened server `n`. A probe without marks is bisected as
/// [`binary_search_min`] does.
fn min_baseline_count(
    lo: u32,
    hi: u32,
    mut probe: impl FnMut(u32) -> Probe,
) -> (Option<u32>, Option<HighWaterMarks>) {
    if lo > hi {
        return (None, None);
    }
    let top = probe(hi);
    let found = match (top.feasible, top.marks) {
        (false, _) => None,
        (true, Some(marks)) => Some(marks.baseline.max(lo)),
        (true, None) => Some(bisect(lo, hi, |n| probe(n).feasible)),
    };
    (found, top.marks)
}

/// The baseline-only search skeleton: peak-demand lower bound, 4× upper
/// bound (minimum 8), binary search over `probe`. The probe captures
/// its own simulator (indexed, linear, or sharded — the skeleton is
/// engine-agnostic) and answers whether one candidate configuration
/// hosts the trace; an exact probe answers with the bound probe alone.
pub(crate) fn baseline_search(
    peak_demand: (u64, f64),
    baseline_shape: ServerShape,
    mut probe: impl FnMut(ClusterConfig) -> Probe,
) -> Result<u32, SizingError> {
    let (peak_cores, peak_mem) = peak_demand;
    let by_cores = peak_cores.div_ceil(u64::from(baseline_shape.cores));
    let by_mem = (peak_mem / baseline_shape.mem_gb).ceil() as u64;
    let lower = by_cores.max(by_mem).max(1) as u32;
    let bound = lower.saturating_mul(4).max(8);
    let config = |n: u32| ClusterConfig {
        baseline_count: n,
        baseline_shape,
        green_count: 0,
        green_shape: ServerShape::greensku(),
    };
    min_baseline_count(lower, bound, |n| probe(config(n)))
        .0
        .ok_or(SizingError::Infeasible { bound })
}

/// The mixed-cluster search skeleton given a right-sized baseline-only
/// count `n0`: fewest baseline servers first (with an adaptively
/// doubling green cap), then fewest GreenSKUs.
///
/// With exact probes each step costs at most one replay, except the
/// GreenSKU search below the green mark (DESIGN.md §15): a fault-free
/// green pool evolves the same whatever the baseline count, so a replay
/// whose green mark stays below the cap repeats at every larger cap,
/// and a GreenSKU count at or above the mark repeats the feasible
/// `(b_min, green_cap)` replay.
pub(crate) fn mixed_search(
    n0: u32,
    baseline_shape: ServerShape,
    green_shape: ServerShape,
    mut probe: impl FnMut(ClusterConfig) -> Probe,
) -> Result<ClusterPlan, SizingError> {
    // A green server is at least as large as a baseline server in both
    // dimensions for the standard shapes; scale the green cap by the
    // shape ratio plus slack for scaling-factor inflation. The 1.6×
    // slack covers scaling factors up to ~1.6; beyond that the cap
    // doubles adaptively below.
    let cap_ratio = (f64::from(baseline_shape.cores) / f64::from(green_shape.cores))
        .max(baseline_shape.mem_gb / green_shape.mem_gb);
    let mut green_cap = ((f64::from(n0) * cap_ratio * 1.6).ceil() as u32).max(8);
    let cap_limit = green_cap.saturating_mul(64);

    let config = |b: u32, g: u32| ClusterConfig {
        baseline_count: b,
        baseline_shape,
        green_count: g,
        green_shape,
    };
    // Whether an exact replay shows that no larger cap changes anything.
    let below_cap = |marks: Option<HighWaterMarks>, cap: u32| marks.is_some_and(|m| m.green < cap);

    // Fewest baseline servers first (the residual pool for non-adopting
    // and full-node VMs). When even the full baseline pool rejects at
    // the current green cap, the cap itself is the constraint (large
    // scaling factors, packing anomalies) — double it and retry.
    let (mut b_min, mut marks) = loop {
        let (found, marks) = min_baseline_count(0, n0, |b| probe(config(b, green_cap)));
        if let Some(b) = found {
            break (b, marks);
        }
        if green_cap >= cap_limit || below_cap(marks, green_cap) {
            return Err(SizingError::Infeasible { bound: n0 + cap_limit });
        }
        green_cap = green_cap.saturating_mul(2).min(cap_limit);
    };
    // A capped green pool can also pin baseline servers a larger pool
    // would free; keep doubling while that shrinks the baseline count.
    while b_min > 0 && green_cap < cap_limit && !below_cap(marks, green_cap) {
        let doubled = green_cap.saturating_mul(2).min(cap_limit);
        match min_baseline_count(0, b_min - 1, |b| probe(config(b, doubled))) {
            (Some(b), doubled_marks) => {
                green_cap = doubled;
                b_min = b;
                marks = doubled_marks;
            }
            (None, _) => break,
        }
    }
    // ...then the fewest GreenSKUs given that baseline pool. The cap
    // itself was feasible with `b_min` in the searches above, and the
    // probes are deterministic, so this search cannot come up empty —
    // but report Infeasible rather than panicking if that invariant is
    // ever broken.
    let g_min = binary_search_min(0, green_cap, |g| {
        marks.is_some_and(|m| g >= m.green) || probe(config(b_min, g)).feasible
    })
    .ok_or(SizingError::Infeasible { bound: n0 + green_cap })?;
    Ok(ClusterPlan { baseline: b_min, green: g_min })
}

/// Right-sizes a baseline-only cluster: the minimum number of
/// `baseline_shape` servers hosting `trace` without rejections, with
/// every VM placed at its original size.
///
/// # Errors
///
/// Returns [`SizingError::Infeasible`] if the trace cannot be hosted at
/// the search bound (4× the peak-demand lower bound, minimum 8).
pub fn right_size_baseline_only(
    trace: &Trace,
    baseline_shape: ServerShape,
    policy: PlacementPolicy,
) -> Result<u32, SizingError> {
    right_size_baseline_only_faulted(trace, baseline_shape, policy, None)
}

/// [`right_size_baseline_only`] under fault injection: each candidate
/// count is probed with that configuration's fault plan, and a size is
/// feasible only if no VM is rejected *and* every fault-displaced VM is
/// successfully evacuated. `None` (or a disabled model) is exactly the
/// plain search.
///
/// # Errors
///
/// Returns [`SizingError::Infeasible`] as the plain search does.
pub fn right_size_baseline_only_faulted(
    trace: &Trace,
    baseline_shape: ServerShape,
    policy: PlacementPolicy,
    faults: Option<&FaultInjection<'_>>,
) -> Result<u32, SizingError> {
    let transform = |vm: &gsf_workloads::VmSpec| gsf_vmalloc::PlacementRequest::baseline_only(vm);
    let prepared = PreparedTrace::new(trace, &transform);
    right_size_baseline_only_prepared(&prepared, baseline_shape, policy, faults)
}

/// [`right_size_baseline_only_faulted`] over an already-prepared plan,
/// so every binary-search probe replays the same precomputation.
/// `prepared` must have been built with the baseline-only transform
/// (every request at its original size); the `EvalContext` prepared
/// cache in `gsf-core` shares one such plan across all sweep points.
///
/// # Errors
///
/// Returns [`SizingError::Infeasible`] as the plain search does.
pub fn right_size_baseline_only_prepared(
    prepared: &PreparedTrace,
    baseline_shape: ServerShape,
    policy: PlacementPolicy,
    faults: Option<&FaultInjection<'_>>,
) -> Result<u32, SizingError> {
    baseline_only_prepared_impl(prepared, baseline_shape, policy, faults, false)
}

/// [`right_size_baseline_only_prepared`] with server selection through
/// the linear reference scan instead of the placement index. The
/// prepared engine and the bounds are the same; as a reference it reads
/// no high-water marks and bisects with a replay per probe, so
/// comparing it against the indexed search checks the selection path
/// and the mark shortcut together — the `index_equivalence` suite leans
/// on that.
///
/// # Errors
///
/// Returns [`SizingError::Infeasible`] as the plain search does.
pub fn right_size_baseline_only_prepared_linear(
    prepared: &PreparedTrace,
    baseline_shape: ServerShape,
    policy: PlacementPolicy,
    faults: Option<&FaultInjection<'_>>,
) -> Result<u32, SizingError> {
    baseline_only_prepared_impl(prepared, baseline_shape, policy, faults, true)
}

fn baseline_only_prepared_impl(
    prepared: &PreparedTrace,
    baseline_shape: ServerShape,
    policy: PlacementPolicy,
    faults: Option<&FaultInjection<'_>>,
    linear_selection: bool,
) -> Result<u32, SizingError> {
    let faults = faults.filter(|f| !f.model.is_none());
    let mut sim = AllocationSim::new(ClusterConfig::baseline_only(0), policy);
    if linear_selection {
        sim = sim.with_linear_selection();
    }
    baseline_search(prepared.peak_demand(), baseline_shape, |config| {
        feasible_prepared(&mut sim, prepared, config, faults, !linear_selection)
    })
}

/// Reference baseline-only sizing on the unprepared replay engine with
/// linear server selection: re-resolves every event on every probe and
/// scans the whole pool per placement. Bit-identical to
/// [`right_size_baseline_only_faulted`] by the replay- and
/// index-equivalence contracts; kept for the equivalence suites and the
/// ablation benches.
///
/// # Errors
///
/// Returns [`SizingError::Infeasible`] as the plain search does.
pub fn right_size_baseline_only_unprepared(
    trace: &Trace,
    baseline_shape: ServerShape,
    policy: PlacementPolicy,
    faults: Option<&FaultInjection<'_>>,
) -> Result<u32, SizingError> {
    let faults = faults.filter(|f| !f.model.is_none());
    let transform = |vm: &gsf_workloads::VmSpec| gsf_vmalloc::PlacementRequest::baseline_only(vm);
    let mut sim =
        AllocationSim::new(ClusterConfig::baseline_only(0), policy).with_linear_selection();
    baseline_search(trace.peak_demand(), baseline_shape, |config| {
        feasible_unprepared(&mut sim, trace, &transform, config, faults)
    })
}

/// The §V mixed-cluster search: starting from a right-sized
/// baseline-only cluster, replaces baseline SKUs with GreenSKUs until no
/// VM is rejected, returning the plan with the fewest baseline servers
/// (and, given that, the fewest GreenSKUs).
///
/// `transform` encodes the adoption decisions: adopting VMs issue
/// green-preferring (scaled) requests, others baseline-only ones.
///
/// # Errors
///
/// Returns [`SizingError::Infeasible`] if even the all-baseline bound
/// cannot host the trace.
pub fn right_size_mixed(
    trace: &Trace,
    transform: &VmTransform<'_>,
    baseline_shape: ServerShape,
    green_shape: ServerShape,
    policy: PlacementPolicy,
) -> Result<ClusterPlan, SizingError> {
    right_size_mixed_faulted(trace, transform, baseline_shape, green_shape, policy, None)
}

/// [`right_size_mixed`] under fault injection; see
/// [`right_size_baseline_only_faulted`] for the tightened feasibility
/// predicate. `None` (or a disabled model) is exactly the plain search.
///
/// # Errors
///
/// Returns [`SizingError::Infeasible`] as the plain search does.
pub fn right_size_mixed_faulted(
    trace: &Trace,
    transform: &VmTransform<'_>,
    baseline_shape: ServerShape,
    green_shape: ServerShape,
    policy: PlacementPolicy,
    faults: Option<&FaultInjection<'_>>,
) -> Result<ClusterPlan, SizingError> {
    let prepared = PreparedTrace::new(trace, transform);
    let baseline_transform =
        |vm: &gsf_workloads::VmSpec| gsf_vmalloc::PlacementRequest::baseline_only(vm);
    let prepared_baseline = PreparedTrace::new(trace, &baseline_transform);
    right_size_mixed_prepared(
        &prepared,
        &prepared_baseline,
        baseline_shape,
        green_shape,
        policy,
        faults,
    )
}

/// [`right_size_mixed_faulted`] over already-prepared plans: `prepared`
/// carries the routed (adoption-transformed) requests the mixed search
/// probes with, `prepared_baseline` the baseline-only requests seeding
/// the `n0` search. Both are built once per (trace, routing decision)
/// and shared across every probe — and, via the `EvalContext` cache,
/// across every sweep point with the same routing signature.
///
/// # Errors
///
/// Returns [`SizingError::Infeasible`] as the plain search does.
pub fn right_size_mixed_prepared(
    prepared: &PreparedTrace,
    prepared_baseline: &PreparedTrace,
    baseline_shape: ServerShape,
    green_shape: ServerShape,
    policy: PlacementPolicy,
    faults: Option<&FaultInjection<'_>>,
) -> Result<ClusterPlan, SizingError> {
    right_size_prepared(prepared, prepared_baseline, baseline_shape, green_shape, policy, faults)
        .map(|(_, plan)| plan)
}

/// Both §V searches over already-prepared plans, with `n0` searched
/// once: returns the baseline-only count
/// ([`right_size_baseline_only_prepared`] on `prepared_baseline`) and
/// the mixed plan it seeds ([`right_size_mixed_prepared`]), for callers
/// that need the two together, as the pipeline does.
///
/// # Errors
///
/// Returns [`SizingError::Infeasible`] as the plain search does.
pub fn right_size_prepared(
    prepared: &PreparedTrace,
    prepared_baseline: &PreparedTrace,
    baseline_shape: ServerShape,
    green_shape: ServerShape,
    policy: PlacementPolicy,
    faults: Option<&FaultInjection<'_>>,
) -> Result<(u32, ClusterPlan), SizingError> {
    mixed_prepared_impl(
        prepared,
        prepared_baseline,
        baseline_shape,
        green_shape,
        policy,
        faults,
        false,
    )
}

/// [`right_size_mixed_prepared`] with server selection through the
/// linear reference scan instead of the placement index; see
/// [`right_size_baseline_only_prepared_linear`].
///
/// # Errors
///
/// Returns [`SizingError::Infeasible`] as the plain search does.
pub fn right_size_mixed_prepared_linear(
    prepared: &PreparedTrace,
    prepared_baseline: &PreparedTrace,
    baseline_shape: ServerShape,
    green_shape: ServerShape,
    policy: PlacementPolicy,
    faults: Option<&FaultInjection<'_>>,
) -> Result<ClusterPlan, SizingError> {
    mixed_prepared_impl(
        prepared,
        prepared_baseline,
        baseline_shape,
        green_shape,
        policy,
        faults,
        true,
    )
    .map(|(_, plan)| plan)
}

#[allow(clippy::too_many_arguments)]
fn mixed_prepared_impl(
    prepared: &PreparedTrace,
    prepared_baseline: &PreparedTrace,
    baseline_shape: ServerShape,
    green_shape: ServerShape,
    policy: PlacementPolicy,
    faults: Option<&FaultInjection<'_>>,
    linear_selection: bool,
) -> Result<(u32, ClusterPlan), SizingError> {
    let faults = faults.filter(|f| !f.model.is_none());
    let n0 = baseline_only_prepared_impl(
        prepared_baseline,
        baseline_shape,
        policy,
        faults,
        linear_selection,
    )?;
    let mut sim = AllocationSim::new(ClusterConfig::baseline_only(0), policy);
    if linear_selection {
        sim = sim.with_linear_selection();
    }
    let plan = mixed_search(n0, baseline_shape, green_shape, |config| {
        feasible_prepared(&mut sim, prepared, config, faults, !linear_selection)
    })?;
    Ok((n0, plan))
}

/// Reference mixed sizing on the unprepared replay engine with linear
/// server selection; bit-identical to [`right_size_mixed_faulted`] by
/// the replay- and index-equivalence contracts, kept for the
/// equivalence suites and the ablation benches.
///
/// # Errors
///
/// Returns [`SizingError::Infeasible`] as the plain search does.
pub fn right_size_mixed_unprepared(
    trace: &Trace,
    transform: &VmTransform<'_>,
    baseline_shape: ServerShape,
    green_shape: ServerShape,
    policy: PlacementPolicy,
    faults: Option<&FaultInjection<'_>>,
) -> Result<ClusterPlan, SizingError> {
    let faults = faults.filter(|f| !f.model.is_none());
    let n0 = right_size_baseline_only_unprepared(trace, baseline_shape, policy, faults)?;
    let mut sim =
        AllocationSim::new(ClusterConfig::baseline_only(0), policy).with_linear_selection();
    mixed_search(n0, baseline_shape, green_shape, |config| {
        feasible_unprepared(&mut sim, trace, transform, config, faults)
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use gsf_vmalloc::PlacementRequest;
    use gsf_workloads::{ServerGeneration, Trace, VmEvent, VmEventKind, VmSpec};

    fn vm(id: u64, cores: u32, full_node: bool) -> VmSpec {
        VmSpec {
            id,
            cores,
            mem_gb: f64::from(cores) * 4.0,
            app_index: 0,
            generation: ServerGeneration::Gen3,
            full_node,
            max_mem_util: 0.5,
            avg_cpu_util: 0.2,
        }
    }

    /// `n` concurrent 8-core VMs.
    fn concurrent_trace(n: u64) -> Trace {
        let vms: Vec<VmSpec> = (0..n).map(|i| vm(i, 8, false)).collect();
        let mut events = Vec::new();
        for i in 0..n {
            events.push(VmEvent { time_s: 1.0, kind: VmEventKind::Arrival, vm_id: i });
            events.push(VmEvent { time_s: 1000.0, kind: VmEventKind::Departure, vm_id: i });
        }
        Trace::new(2000.0, vms, events)
    }

    #[test]
    fn baseline_sizing_matches_arithmetic() {
        // 30 concurrent 8-core VMs = 240 cores → exactly 3 × 80-core
        // servers (10 VMs each; memory 4 GB/core fits easily).
        let n = right_size_baseline_only(
            &concurrent_trace(30),
            ServerShape::baseline_gen3(),
            PlacementPolicy::BestFit,
        )
        .unwrap();
        assert_eq!(n, 3);
    }

    #[test]
    fn infeasible_vm_reported() {
        // A 200-core VM fits no server.
        let trace = Trace::new(
            10.0,
            vec![vm(0, 200, false)],
            vec![VmEvent { time_s: 1.0, kind: VmEventKind::Arrival, vm_id: 0 }],
        );
        assert!(matches!(
            right_size_baseline_only(
                &trace,
                ServerShape::baseline_gen3(),
                PlacementPolicy::BestFit
            ),
            Err(SizingError::Infeasible { .. })
        ));
    }

    #[test]
    fn all_adopting_workload_goes_fully_green() {
        let transform = |v: &VmSpec| PlacementRequest::prefer_green(v, 1.25);
        let plan = right_size_mixed(
            &concurrent_trace(24),
            &transform,
            ServerShape::baseline_gen3(),
            ServerShape::greensku(),
            PlacementPolicy::BestFit,
        )
        .unwrap();
        assert_eq!(plan.baseline, 0);
        // 24 VMs × 10 green cores = 240 cores → 2 × 128-core servers.
        assert_eq!(plan.green, 2);
    }

    #[test]
    fn full_node_vms_pin_baseline_servers() {
        // 2 full-node VMs + 10 adopting VMs.
        let mut vms: Vec<VmSpec> = (0..2).map(|i| vm(i, 80, true)).collect();
        vms.extend((2..12).map(|i| vm(i, 8, false)));
        let mut events = Vec::new();
        for v in &vms {
            events.push(VmEvent { time_s: 1.0, kind: VmEventKind::Arrival, vm_id: v.id });
            events.push(VmEvent { time_s: 500.0, kind: VmEventKind::Departure, vm_id: v.id });
        }
        // Full-node memory must fit the baseline shape.
        for v in vms.iter_mut().filter(|v| v.full_node) {
            v.mem_gb = 768.0;
        }
        let trace = Trace::new(1000.0, vms, events);
        let transform = |v: &VmSpec| {
            if v.full_node {
                PlacementRequest::baseline_only(v)
            } else {
                PlacementRequest::prefer_green(v, 1.0)
            }
        };
        let plan = right_size_mixed(
            &trace,
            &transform,
            ServerShape::baseline_gen3(),
            ServerShape::greensku(),
            PlacementPolicy::BestFit,
        )
        .unwrap();
        assert_eq!(plan.baseline, 2);
        assert_eq!(plan.green, 1);
    }

    #[test]
    fn mixed_plan_never_larger_capacity_than_double_baseline() {
        let transform = |v: &VmSpec| PlacementRequest::prefer_green(v, 1.5);
        let trace = concurrent_trace(40);
        let n0 = right_size_baseline_only(
            &trace,
            ServerShape::baseline_gen3(),
            PlacementPolicy::BestFit,
        )
        .unwrap();
        let plan = right_size_mixed(
            &trace,
            &transform,
            ServerShape::baseline_gen3(),
            ServerShape::greensku(),
            PlacementPolicy::BestFit,
        )
        .unwrap();
        let plan_cores = plan.baseline * 80 + plan.green * 128;
        assert!(plan_cores <= 2 * n0 * 80, "plan {plan:?} vs baseline {n0}");
    }

    #[test]
    fn large_scaling_factor_still_goes_fully_green() {
        // Scaling factor 2.0 exceeds the green cap's built-in 1.6×
        // slack: 200 VMs × 8 cores need n0 = 20 baseline servers but
        // 200 × 16 = 3200 green cores = 25 GreenSKUs, above the initial
        // cap of ceil(20 × 0.75 × 1.6) = 24. The adaptive cap must
        // still find the all-green plan instead of pinning baseline
        // servers (or reporting the trace infeasible).
        let transform = |v: &VmSpec| PlacementRequest::prefer_green(v, 2.0);
        let plan = right_size_mixed(
            &concurrent_trace(200),
            &transform,
            ServerShape::baseline_gen3(),
            ServerShape::greensku(),
            PlacementPolicy::BestFit,
        )
        .unwrap();
        assert_eq!(plan.baseline, 0, "plan {plan:?}");
        assert_eq!(plan.green, 25);
    }

    #[test]
    fn disabled_fault_model_sizes_identically() {
        let trace = concurrent_trace(30);
        let model = FaultModel::none();
        let inj = FaultInjection {
            model: &model,
            baseline_devices: PoolDevices::baseline(),
            green_devices: PoolDevices::greensku_full(),
            slo: None,
        };
        let plain = right_size_baseline_only(
            &trace,
            ServerShape::baseline_gen3(),
            PlacementPolicy::BestFit,
        )
        .unwrap();
        let faulted = right_size_baseline_only_faulted(
            &trace,
            ServerShape::baseline_gen3(),
            PlacementPolicy::BestFit,
            Some(&inj),
        )
        .unwrap();
        assert_eq!(plain, faulted);
    }

    #[test]
    fn fault_injection_never_shrinks_the_cluster() {
        // Aggressive failure injection: the sized cluster must be at
        // least as large as the fault-free one, and large enough that
        // replaying its own fault plan causes no violations.
        let trace = concurrent_trace(30);
        let mut model = FaultModel::paper(13);
        model.afr_scale = 40.0;
        let inj = FaultInjection {
            model: &model,
            baseline_devices: PoolDevices::baseline(),
            green_devices: PoolDevices::greensku_full(),
            slo: None,
        };
        let shape = ServerShape::baseline_gen3();
        let plain = right_size_baseline_only(&trace, shape, PlacementPolicy::BestFit).unwrap();
        let faulted =
            right_size_baseline_only_faulted(&trace, shape, PlacementPolicy::BestFit, Some(&inj))
                .unwrap();
        assert!(faulted >= plain, "faulted {faulted} < plain {plain}");
        let config = ClusterConfig {
            baseline_count: faulted,
            baseline_shape: shape,
            green_count: 0,
            green_shape: ServerShape::greensku(),
        };
        let plan = inj.plan_for(&config, trace.duration_s());
        assert!(!plan.is_empty(), "at 40x AFR the plan should contain faults");
        let mut sim = AllocationSim::new(config, PlacementPolicy::BestFit);
        let (out, summary) =
            sim.replay_faulted(&trace, &|vm: &VmSpec| PlacementRequest::baseline_only(vm), &plan);
        assert!(out.no_rejections());
        assert!(summary.all_evacuated());
    }

    #[test]
    fn faulted_mixed_sizing_is_deterministic() {
        let trace = concurrent_trace(24);
        let mut model = FaultModel::paper(21);
        model.afr_scale = 30.0;
        let inj = FaultInjection {
            model: &model,
            baseline_devices: PoolDevices::baseline(),
            green_devices: PoolDevices::greensku_full(),
            slo: None,
        };
        let transform = |v: &VmSpec| PlacementRequest::prefer_green(v, 1.25);
        let run = || {
            right_size_mixed_faulted(
                &trace,
                &transform,
                ServerShape::baseline_gen3(),
                ServerShape::greensku(),
                PlacementPolicy::BestFit,
                Some(&inj),
            )
            .unwrap()
        };
        let a = run();
        assert_eq!(a, run());
        // And at least the fault-free capacity.
        let plain = right_size_mixed(
            &trace,
            &transform,
            ServerShape::baseline_gen3(),
            ServerShape::greensku(),
            PlacementPolicy::BestFit,
        )
        .unwrap();
        assert!(a.total() >= plain.total(), "faulted {a:?} vs plain {plain:?}");
    }

    #[test]
    fn binary_search_min_behaviour() {
        assert_eq!(binary_search_min(0, 10, |n| n >= 7), Some(7));
        assert_eq!(binary_search_min(0, 10, |_| true), Some(0));
        assert_eq!(binary_search_min(0, 10, |_| false), None);
        assert_eq!(binary_search_min(3, 3, |n| n == 3), Some(3));
    }

    #[test]
    fn binary_search_min_empty_range_is_none_without_probing() {
        // lo > hi used to return Some(lo) without ever evaluating
        // pred(lo) — an unvetted "feasible" answer. The empty range must
        // be None, and the predicate must never run.
        let mut calls = 0usize;
        let result = binary_search_min(5, 4, |_| {
            calls += 1;
            true
        });
        assert_eq!(result, None);
        assert_eq!(calls, 0);
        // One-past inverted and far-inverted ranges alike.
        assert_eq!(binary_search_min(u32::MAX, 0, |_| true), None);
    }

    /// A synthetic two-pool fleet answering probes as a fault-free
    /// replay would: `green` GreenSKUs host every adopting VM, each
    /// GreenSKU short of that pushes `overflow` baseline servers' worth
    /// of VMs onto the baseline pool, and `baseline` servers host the
    /// baseline-only VMs.
    #[derive(Debug, Clone, Copy)]
    struct Fleet {
        baseline: u32,
        green: u32,
        overflow: u32,
    }

    impl Fleet {
        fn baseline_needed(&self, green_count: u32) -> u32 {
            self.baseline + self.green.saturating_sub(green_count) * self.overflow
        }

        /// The exact probe: feasibility plus the marks the replay leaves.
        fn exact(&self, c: ClusterConfig) -> Probe {
            let need = self.baseline_needed(c.green_count);
            Probe {
                feasible: c.baseline_count >= need,
                marks: Some(HighWaterMarks {
                    baseline: need.min(c.baseline_count),
                    green: self.green.min(c.green_count),
                }),
            }
        }
    }

    /// Equal shapes, so the initial green cap of an `n0 = 10` search is
    /// 16 and its limit 1024.
    const SHAPE: ServerShape = ServerShape { cores: 64, mem_gb: 256.0 };
    const N0: u32 = 10;
    const FLEETS: [Fleet; 5] = [
        // Green pool well under the cap, baseline-only VMs present.
        Fleet { baseline: 3, green: 5, overflow: 1 },
        // Infeasible at caps 16 and 32; the cap doubles to 64.
        Fleet { baseline: 3, green: 40, overflow: 1 },
        // The green pool fills cap 16; doubling frees baseline servers.
        Fleet { baseline: 2, green: 20, overflow: 1 },
        // All green.
        Fleet { baseline: 0, green: 12, overflow: 2 },
        // Baseline-only VMs alone exceed n0: infeasible at every cap.
        Fleet { baseline: 11, green: 4, overflow: 1 },
    ];

    /// The search skeletons as they stood before high-water marks, kept
    /// verbatim as the reference a probe without marks must reproduce.
    fn reference_baseline_search(
        peak_demand: (u64, f64),
        baseline_shape: ServerShape,
        mut probe: impl FnMut(ClusterConfig) -> bool,
    ) -> Result<u32, SizingError> {
        let (peak_cores, peak_mem) = peak_demand;
        let by_cores = peak_cores.div_ceil(u64::from(baseline_shape.cores));
        let by_mem = (peak_mem / baseline_shape.mem_gb).ceil() as u64;
        let lower = by_cores.max(by_mem).max(1) as u32;
        let bound = lower.saturating_mul(4).max(8);
        let config = |n: u32| ClusterConfig {
            baseline_count: n,
            baseline_shape,
            green_count: 0,
            green_shape: ServerShape::greensku(),
        };
        binary_search_min(lower, bound, |n| probe(config(n)))
            .ok_or(SizingError::Infeasible { bound })
    }

    fn reference_mixed_search(
        n0: u32,
        baseline_shape: ServerShape,
        green_shape: ServerShape,
        mut probe: impl FnMut(ClusterConfig) -> bool,
    ) -> Result<ClusterPlan, SizingError> {
        let cap_ratio = (f64::from(baseline_shape.cores) / f64::from(green_shape.cores))
            .max(baseline_shape.mem_gb / green_shape.mem_gb);
        let mut green_cap = ((f64::from(n0) * cap_ratio * 1.6).ceil() as u32).max(8);
        let cap_limit = green_cap.saturating_mul(64);
        let config = |b: u32, g: u32| ClusterConfig {
            baseline_count: b,
            baseline_shape,
            green_count: g,
            green_shape,
        };
        let mut b_min = loop {
            let found = binary_search_min(0, n0, |b| probe(config(b, green_cap)));
            if let Some(b) = found {
                break b;
            }
            if green_cap >= cap_limit {
                return Err(SizingError::Infeasible { bound: n0 + green_cap });
            }
            green_cap = green_cap.saturating_mul(2).min(cap_limit);
        };
        while b_min > 0 && green_cap < cap_limit {
            let doubled = green_cap.saturating_mul(2).min(cap_limit);
            match binary_search_min(0, b_min - 1, |b| probe(config(b, doubled))) {
                Some(b) => {
                    green_cap = doubled;
                    b_min = b;
                }
                None => break,
            }
        }
        let g_min = binary_search_min(0, green_cap, |g| probe(config(b_min, g)))
            .ok_or(SizingError::Infeasible { bound: n0 + green_cap })?;
        Ok(ClusterPlan { baseline: b_min, green: g_min })
    }

    #[test]
    fn exact_probe_answers_the_baseline_search_from_the_bound_probe_alone() {
        // Peak demand 640 cores: lower bound 10, search bound 40.
        let peak = (640, 0.0);
        for needed in [4u32, 10, 23, 40, 41] {
            let fleet = Fleet { baseline: needed, green: 0, overflow: 0 };
            let mut calls = Vec::new();
            let got = baseline_search(peak, SHAPE, |c| {
                calls.push(c.baseline_count);
                fleet.exact(c)
            });
            let want = reference_baseline_search(peak, SHAPE, |c| fleet.exact(c).feasible);
            assert_eq!(got, want, "needed {needed}");
            assert_eq!(calls, [40], "needed {needed}");
        }
    }

    #[test]
    fn green_mark_under_the_cap_skips_every_doubled_cap() {
        for fleet in FLEETS {
            let mut exact_caps = Vec::new();
            let got = mixed_search(N0, SHAPE, SHAPE, |c| {
                exact_caps.push(c.green_count);
                fleet.exact(c)
            });
            let mut plain_calls = 0usize;
            let want = reference_mixed_search(N0, SHAPE, SHAPE, |c| {
                plain_calls += 1;
                fleet.exact(c).feasible
            });
            assert_eq!(got, want, "{fleet:?}");
            assert!(exact_caps.len() < plain_calls, "{fleet:?}: {exact_caps:?}");
        }
        // The first fleet's plain search probes cap 32 to learn that it
        // frees no baseline server; its green pool (5) never reaches the
        // initial cap (16), so the exact search stays at 16 and below.
        let fleet = FLEETS[0];
        let mut plain_caps = Vec::new();
        reference_mixed_search(N0, SHAPE, SHAPE, |c| {
            plain_caps.push(c.green_count);
            fleet.exact(c).feasible
        })
        .unwrap();
        assert!(plain_caps.contains(&32), "{plain_caps:?}");
        let mut exact_caps = Vec::new();
        mixed_search(N0, SHAPE, SHAPE, |c| {
            exact_caps.push(c.green_count);
            fleet.exact(c)
        })
        .unwrap();
        assert!(exact_caps.iter().all(|&g| g <= 16), "{exact_caps:?}");
        // One replay at (n0, cap) settles the baseline pool; the green
        // search replays only below the green mark.
        assert_eq!(exact_caps[0], 16);
        assert!(exact_caps[1..].iter().all(|&g| g < fleet.green), "{exact_caps:?}");
    }

    #[test]
    fn probes_without_marks_keep_the_plain_search_call_for_call() {
        for fleet in FLEETS {
            let mut got = Vec::new();
            let got_plan = mixed_search(N0, SHAPE, SHAPE, |c| {
                got.push(c);
                Probe::plain(fleet.exact(c).feasible)
            });
            let mut want = Vec::new();
            let want_plan = reference_mixed_search(N0, SHAPE, SHAPE, |c| {
                want.push(c);
                fleet.exact(c).feasible
            });
            assert_eq!(got_plan, want_plan, "{fleet:?}");
            assert_eq!(got, want, "{fleet:?}");
        }
        let peak = (640, 0.0);
        for needed in [4u32, 23, 41] {
            let fleet = Fleet { baseline: needed, green: 0, overflow: 0 };
            let mut got = Vec::new();
            let got_n = baseline_search(peak, SHAPE, |c| {
                got.push(c);
                Probe::plain(fleet.exact(c).feasible)
            });
            let mut want = Vec::new();
            let want_n = reference_baseline_search(peak, SHAPE, |c| {
                want.push(c);
                fleet.exact(c).feasible
            });
            assert_eq!(got_n, want_n);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn prepared_sizing_matches_unprepared() {
        let trace = concurrent_trace(30);
        let shape = ServerShape::baseline_gen3();
        let transform = |v: &VmSpec| PlacementRequest::prefer_green(v, 1.25);
        let mut model = FaultModel::paper(13);
        model.afr_scale = 40.0;
        let inj = FaultInjection {
            model: &model,
            baseline_devices: PoolDevices::baseline(),
            green_devices: PoolDevices::greensku_full(),
            slo: None,
        };
        for faults in [None, Some(&inj)] {
            assert_eq!(
                right_size_baseline_only_faulted(&trace, shape, PlacementPolicy::BestFit, faults),
                right_size_baseline_only_unprepared(
                    &trace,
                    shape,
                    PlacementPolicy::BestFit,
                    faults
                ),
            );
            assert_eq!(
                right_size_mixed_faulted(
                    &trace,
                    &transform,
                    shape,
                    ServerShape::greensku(),
                    PlacementPolicy::BestFit,
                    faults,
                ),
                right_size_mixed_unprepared(
                    &trace,
                    &transform,
                    shape,
                    ServerShape::greensku(),
                    PlacementPolicy::BestFit,
                    faults,
                ),
            );
        }
    }
}
