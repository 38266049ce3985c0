//! Cluster sizing: the §V search for the right mix of baseline SKUs and
//! GreenSKUs.
//!
//! The paper's procedure: right-size a baseline-only cluster (smallest
//! server count hosting the trace without rejections), then replace
//! baseline SKUs with GreenSKUs until no further replacement is
//! possible; VMs that cannot adopt the GreenSKU pin the residual
//! baseline pool. Both steps are monotone feasibility searches, so they
//! run as binary searches over simulator replays. Fault-free unsharded
//! searches answer most probes from the placement high-water mark of a
//! replay they already ran, and fork the rest, the GreenSKU probes below
//! the green mark, from a forward cursor over that replay at the event
//! where they part from it, running each only to its first rejection.
//! Faulted unsharded searches stop each probe at its first rejection
//! and, on two or more workers, run beside each probe the one the
//! bisection asks next if it is feasible (DESIGN.md §15).
//!
//! [`right_size`] is the one entry point: a [`SizingRequest`] names the
//! prepared plans, shapes, policy, fault injection and shard count, and
//! the answer is `n0` plus the plan to deploy.

use crate::parallel::{default_workers, join};
use gsf_maintenance::{FaultModel, PoolDevices};
use gsf_vmalloc::{
    AllocationSim, ClusterConfig, FaultPlan, FaultSummary, GreenLimit, HighWaterMarks,
    PlacementPolicy, PreparedTrace, RunEnd, ServerShape, ShardedSim, SimOutcome,
};
use std::fmt;

/// Availability SLO for the fault-aware sizing searches: instead of
/// demanding that *every* displaced VM is immediately re-placed, allow
/// a bounded amount of measured downtime. A tighter bound (smaller
/// `max_vm_minutes_lost`) shrinks the feasible set, so the resulting
/// cluster can only grow — the searches stay monotone.
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// The mixed half of a [`SizingRequest`].
#[derive(Debug, Clone, Copy)]
pub struct MixedSearch<'a> {
    /// The routed plan: adopting VMs issue green-preferring (scaled)
    /// requests, the others baseline-only ones.
    pub prepared: &'a PreparedTrace,
    /// The GreenSKU server shape.
    pub green_shape: ServerShape,
}

/// One cluster-sizing request for [`right_size`].
#[derive(Debug, Clone, Copy)]
pub struct SizingRequest<'a> {
    /// The baseline-only plan (every request at its original size) the
    /// `n0` search replays. The `EvalContext` prepared cache in
    /// `gsf-core` shares one such plan across all sweep points.
    pub baseline: &'a PreparedTrace,
    /// The mixed search `n0` seeds; `None` asks for `n0` alone.
    pub mixed: Option<MixedSearch<'a>>,
    /// The baseline server shape.
    pub baseline_shape: ServerShape,
    /// The placement policy every probe replays with.
    pub policy: PlacementPolicy,
    /// Fault injection; `None` (or a disabled model) sizes fault-free.
    pub faults: Option<&'a FaultInjection<'a>>,
    /// Shards per probe replay; `<= 1` is the unsharded engine.
    pub shards: usize,
    /// Worker threads for the search. A sharded probe replays its shards
    /// on this many. A faulted unsharded search on two or more runs,
    /// beside each probe, the one its bisection asks next if that probe
    /// is feasible, on a second simulator and one helper thread
    /// (DESIGN.md §15). A fault-free unsharded search ignores it. The
    /// answer is the same for any count.
    pub workers: usize,
}

impl<'a> SizingRequest<'a> {
    /// A fault-free, unsharded, baseline-only request.
    pub fn new(
        baseline: &'a PreparedTrace,
        baseline_shape: ServerShape,
        policy: PlacementPolicy,
    ) -> Self {
        Self { baseline, mixed: None, baseline_shape, policy, faults: None, shards: 1, workers: 1 }
    }
}

/// Right-sizes a cluster (§V): `n0`, the fewest baseline servers that
/// host the baseline-only plan, and the plan to deploy. A mixed request
/// searches that plan from `n0`: the fewest baseline servers, then the
/// fewest GreenSKUs. A baseline-only request returns
/// `ClusterPlan { baseline: n0, green: 0 }`.
///
/// A candidate cluster is feasible when its replay rejects no VM. Under
/// fault injection each candidate is replayed with its own fault plan,
/// and the fault summary must also pass [`FaultInjection::admits`].
/// Fault-free unsharded probes answer from their placement high-water
/// marks and fork the GreenSKU probes below the green mark (DESIGN.md
/// §15); faulted and sharded probes bisect, and faulted unsharded ones
/// look one probe ahead when `workers >= 2`.
///
/// # Errors
///
/// Returns [`SizingError::Infeasible`] when `n0` is infeasible at its
/// bound (4× the peak-demand lower bound, minimum 8), or the mixed
/// search at its largest green cap.
pub fn right_size(request: &SizingRequest<'_>) -> Result<(u32, ClusterPlan), SizingError> {
    let faults = request.faults.filter(|f| !f.model.is_none());
    let policy = request.policy;
    if request.shards > 1 {
        search(request, |prepared| {
            let mut sim = ShardedSim::new(ClusterConfig::baseline_only(0), policy, request.shards);
            move |config| crate::sharded::probe(&mut sim, prepared, config, faults, request.workers)
        })
    } else {
        search(request, |prepared| unsharded(prepared, policy, faults, request.workers))
    }
}

/// The unsharded prober of a search over `prepared`. Faulted probes
/// carry no marks: with a second worker, a spare simulator runs the
/// bisection's next probe beside each one.
fn unsharded<'a>(
    prepared: &'a PreparedTrace,
    policy: PlacementPolicy,
    faults: Option<&'a FaultInjection<'a>>,
    workers: usize,
) -> Unsharded<'a> {
    let empty = || AllocationSim::new(ClusterConfig::baseline_only(0), policy);
    let look_ahead = faults.is_some() && workers >= 2;
    Unsharded {
        sim: empty(),
        spare: look_ahead.then(empty),
        prepared,
        policy,
        faults,
        cursor: None,
    }
}

/// Both searches of [`right_size`], each probing through its own prober
/// from `prober`, so the `n0` search's pools are freed before the mixed
/// search grows its own.
fn search<'a, P: Prober>(
    request: &SizingRequest<'a>,
    prober: impl Fn(&'a PreparedTrace) -> P,
) -> Result<(u32, ClusterPlan), SizingError> {
    let baseline = request.baseline;
    let n0 =
        baseline_search(baseline.peak_demand(), request.baseline_shape, &mut prober(baseline))?;
    let plan = match request.mixed {
        None => ClusterPlan { baseline: n0, green: 0 },
        Some(mixed) => mixed_search(
            n0,
            request.baseline_shape,
            mixed.green_shape,
            &mut prober(mixed.prepared),
        )?,
    };
    Ok((n0, plan))
}

/// Whether `config` hosts `prepared`: `replay` runs the configuration's
/// fault plan (empty without injection) on a reset simulator, and the
/// outcome must reject nothing and, under injection, be admitted.
pub(crate) fn feasible(
    prepared: &PreparedTrace,
    config: &ClusterConfig,
    faults: Option<&FaultInjection<'_>>,
    replay: impl FnOnce(&FaultPlan) -> (SimOutcome, FaultSummary),
) -> bool {
    let plan =
        faults.map_or_else(FaultPlan::empty, |inj| inj.plan_for(config, prepared.duration_s()));
    let (outcome, summary) = replay(&plan);
    outcome.no_rejections() && faults.is_none_or(|inj| inj.admits(&summary))
}

/// Feasibility probe on the unsharded engine. It is exact, and reports
/// its high-water marks, exactly when it is fault-free. A faulted probe
/// stops at its first rejection (DESIGN.md §15).
fn probe(
    sim: &mut AllocationSim,
    prepared: &PreparedTrace,
    config: ClusterConfig,
    faults: Option<&FaultInjection<'_>>,
) -> Probe {
    sim.reset(config);
    match faults {
        None => {
            let (outcome, _) = sim.replay_prepared_faulted(prepared, &FaultPlan::empty());
            Probe { feasible: outcome.no_rejections(), marks: Some(sim.high_water_marks()) }
        }
        Some(inj) => {
            let plan = inj.plan_for(&config, prepared.duration_s());
            let summary = sim.run_faulted_feasibility(prepared, &plan);
            Probe::plain(summary.is_some_and(|summary| inj.admits(&summary)))
        }
    }
}

/// What a search skeleton asks of its probes. A closure from a
/// configuration to its [`Probe`] is a prober that never looks ahead and
/// whose GreenSKU probes are plain probes; the unsharded fault-free
/// prober forks those instead, and the unsharded faulted one looks ahead
/// on a spare simulator.
trait Prober {
    /// Probes one candidate configuration.
    fn probe(&mut self, config: ClusterConfig) -> Probe;

    /// Probes `config` and, looking ahead, `next`: the configuration the
    /// search asks next if `config` is feasible. The second answer is
    /// `None` when the prober did not run it, as by default, and always
    /// when `next` is `None`.
    fn probe_ahead(
        &mut self,
        config: ClusterConfig,
        _next: Option<ClusterConfig>,
    ) -> (Probe, Option<Probe>) {
        (self.probe(config), None)
    }

    /// Whether `top`, which the mixed search found feasible, still
    /// hosts the trace with `green` of its GreenSKUs, below the green
    /// mark of its replay when the probes report marks.
    fn fewer_green(&mut self, top: ClusterConfig, green: u32) -> bool {
        self.probe(ClusterConfig { green_count: green, ..top }).feasible
    }
}

impl<F: FnMut(ClusterConfig) -> Probe> Prober for F {
    fn probe(&mut self, config: ClusterConfig) -> Probe {
        self(config)
    }
}

/// The unsharded engine's prober: one probe simulator, the spare one a
/// faulted search looks ahead on, and the forward cursor of a forked
/// GreenSKU bisection once one starts.
struct Unsharded<'a> {
    sim: AllocationSim,
    /// Present only for faulted probes on two or more workers.
    spare: Option<AllocationSim>,
    prepared: &'a PreparedTrace,
    policy: PlacementPolicy,
    faults: Option<&'a FaultInjection<'a>>,
    cursor: Option<Cursor>,
}

impl Prober for Unsharded<'_> {
    fn probe(&mut self, config: ClusterConfig) -> Probe {
        probe(&mut self.sim, self.prepared, config, self.faults)
    }

    /// With a spare simulator, `next` runs on it on a helper thread
    /// while `config` runs on the probe simulator. Each probe resets its
    /// own simulator and samples its own fault plan, so each answer is
    /// the one a probe alone would give (DESIGN.md §15).
    fn probe_ahead(
        &mut self,
        config: ClusterConfig,
        next: Option<ClusterConfig>,
    ) -> (Probe, Option<Probe>) {
        let Self { sim, spare, prepared, faults, .. } = self;
        let (prepared, faults) = (*prepared, *faults);
        match (spare, next) {
            (Some(spare), Some(next)) => {
                let (first, ahead) = join(
                    || probe(sim, prepared, config, faults),
                    || probe(spare, prepared, next, faults),
                );
                (first, Some(ahead))
            }
            _ => (probe(sim, prepared, config, faults), None),
        }
    }

    /// The probe forks from the fault-free replay of `top` (DESIGN.md
    /// §15): the cursor advances to the event at which that replay
    /// first opens GreenSKU `green`, the probe simulator copies its
    /// state, and the probe runs on from there, limited to `green`
    /// GreenSKUs, until its first rejection. Only an exact search, so a
    /// fault-free one, asks.
    fn fewer_green(&mut self, top: ClusterConfig, green: u32) -> bool {
        debug_assert!(self.faults.is_none(), "faulted probes report no marks");
        let plain = ClusterConfig { green_count: green, ..top };
        let policy = self.policy;
        let cursor = self.cursor.get_or_insert_with(|| Cursor::new(top, policy));
        debug_assert_eq!(cursor.top, top, "one GreenSKU bisection per mixed search");
        let end = cursor.advance(self.prepared, green);
        debug_assert!(
            !matches!(end, RunEnd::Rejected(_)),
            "the feasible top configuration rejected a VM: {end:?}"
        );
        let at = match end {
            RunEnd::Stopped(at) => at,
            RunEnd::Hosted => self.prepared.event_count(),
            RunEnd::Rejected(_) => return self.probe(plain).feasible,
        };
        self.sim.clone_from(&cursor.sim);
        self.sim.run_feasibility(self.prepared, at, GreenLimit::Overflow(green)) == RunEnd::Hosted
    }
}

/// The forward cursor of a forked GreenSKU bisection: a simulator
/// replaying `top` fault-free, stopped just before the arrival that
/// first opens some GreenSKU.
struct Cursor {
    sim: AllocationSim,
    /// The configuration it replays.
    top: ClusterConfig,
    /// The next event it replays.
    next: usize,
}

impl Cursor {
    /// A cursor at event 0 of `top`'s replay.
    fn new(top: ClusterConfig, policy: PlacementPolicy) -> Self {
        Self { sim: AllocationSim::new(top, policy), top, next: 0 }
    }

    /// Advances to the divergence of the probe with `green` GreenSKUs:
    /// just before the arrival at which `top`'s replay first opens
    /// GreenSKU `green`. A cursor that has opened it already (the
    /// bisection stepped back below a feasible probe) restarts from
    /// event 0.
    fn advance(&mut self, prepared: &PreparedTrace, green: u32) -> RunEnd {
        if self.sim.high_water_marks().green > green {
            self.sim.reset(self.top);
            self.next = 0;
        }
        let end = self.sim.run_feasibility(prepared, self.next, GreenLimit::Stop(green));
        self.next = match end {
            RunEnd::Stopped(at) => at,
            RunEnd::Hosted => prepared.event_count(),
            // The replay rejects the VM and carries on.
            RunEnd::Rejected(at) => at + 1,
        };
        end
    }
}

/// One feasibility probe's answer to a search skeleton.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Probe {
    /// Whether the candidate configuration hosts the trace.
    pub(crate) feasible: bool,
    /// The replay's placement high-water marks when the probe is
    /// exact — fault-free on one unsharded simulator — so the
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

/// The midpoint a bisection of `[lo, hi]` asks.
fn midpoint(lo: u32, hi: u32) -> u32 {
    lo + (hi - lo) / 2
}

/// Smallest `n` in `[lo, hi]` whose verdict holds, given that `hi`'s
/// does (and is not asked again).
///
/// `ask(mid, next)` gives the verdict at `mid` and may give, looking
/// ahead, the one at `next`: the midpoint asked after `mid` if `mid`'s
/// verdict holds (`None` when none would be). `ahead` is the verdict at
/// the first midpoint when the caller has it already. A looked-ahead
/// verdict is read only when the verdict beside it holds, for the
/// midpoint it was given for, so the bisection reads the plain
/// bisection's verdicts in its order.
fn bisect(
    mut lo: u32,
    mut hi: u32,
    mut ahead: Option<bool>,
    mut ask: impl FnMut(u32, Option<u32>) -> (bool, Option<bool>),
) -> u32 {
    while lo < hi {
        let mid = midpoint(lo, hi);
        let holds = match ahead.take() {
            Some(holds) => holds,
            None => {
                let (holds, next) = ask(mid, (lo < mid).then(|| midpoint(lo, mid)));
                if holds {
                    ahead = next;
                }
                holds
            }
        };
        if holds {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// `prober`'s verdicts on `config(n)` and, looking ahead, on
/// `config(next)`.
fn verdicts(
    prober: &mut impl Prober,
    config: impl Fn(u32) -> ClusterConfig,
    n: u32,
    next: Option<u32>,
) -> (bool, Option<bool>) {
    let (probe, ahead) = prober.probe_ahead(config(n), next.map(&config));
    (probe.feasible, ahead.map(|ahead| ahead.feasible))
}

/// Smallest baseline-pool count `n` in `[lo, hi]` whose configuration
/// `config(n)` `prober` finds feasible — the dimension both skeletons
/// search — plus the marks of the first probe (the one at `hi`).
///
/// A feasible exact probe at `hi` settles the whole range
/// (DESIGN.md §15): every count at or above its baseline mark replays
/// it event for event, and every count `n` below it rejects the VM that
/// opened server `n`. A probe without marks is bisected below `hi`. The
/// probe at `hi` looks ahead to the bisection's first midpoint, whose
/// answer the bisection then starts from.
fn min_baseline_count(
    lo: u32,
    hi: u32,
    prober: &mut impl Prober,
    config: impl Fn(u32) -> ClusterConfig,
) -> (Option<u32>, Option<HighWaterMarks>) {
    if lo > hi {
        return (None, None);
    }
    let (top, ahead) = prober.probe_ahead(config(hi), (lo < hi).then(|| config(midpoint(lo, hi))));
    let found = match (top.feasible, top.marks) {
        (false, _) => None,
        (true, Some(marks)) => Some(marks.baseline.max(lo)),
        (true, None) => Some(bisect(lo, hi, ahead.map(|ahead| ahead.feasible), |n, next| {
            verdicts(prober, &config, n, next)
        })),
    };
    (found, top.marks)
}

/// The baseline-only search skeleton: peak-demand lower bound, 4× upper
/// bound (minimum 8), binary search over `prober`'s probes. The prober
/// holds its own simulator (unsharded or sharded — the skeleton is
/// engine-agnostic) and answers whether one candidate configuration
/// hosts the trace; an exact probe answers with the bound probe alone.
fn baseline_search(
    peak_demand: (u64, f64),
    baseline_shape: ServerShape,
    prober: &mut impl Prober,
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
    min_baseline_count(lower, bound, prober, config).0.ok_or(SizingError::Infeasible { bound })
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
/// `(b_min, green_cap)` replay. Below the mark the bisection asks
/// [`Prober::fewer_green`], which the unsharded fault-free prober
/// answers by forking from that replay at the probe's divergence.
/// Probes without marks bisect every step, each probe looking ahead to
/// the next.
fn mixed_search(
    n0: u32,
    baseline_shape: ServerShape,
    green_shape: ServerShape,
    prober: &mut impl Prober,
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
        let (found, marks) = min_baseline_count(0, n0, prober, |b| config(b, green_cap));
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
        match min_baseline_count(0, b_min - 1, prober, |b| config(b, doubled)) {
            (Some(b), doubled_marks) => {
                green_cap = doubled;
                b_min = b;
                marks = doubled_marks;
            }
            (None, _) => break,
        }
    }
    // ...then the fewest GreenSKUs given that baseline pool. The
    // searches above found `(b_min, green_cap)` feasible, and probes are
    // deterministic, so the bisection starts from it as its known top
    // instead of replaying it again.
    let g_min = match marks {
        Some(marks) => {
            let top = config(b_min, green_cap);
            bisect(0, green_cap, None, |g, _| {
                (g >= marks.green || prober.fewer_green(top, g), None)
            })
        }
        None => {
            bisect(0, green_cap, None, |g, next| verdicts(prober, |g| config(b_min, g), g, next))
        }
    };
    Ok(ClusterPlan { baseline: b_min, green: g_min })
}

/// Kept for the `benchmark/` package, which calls it: forwards to
/// [`right_size`] with a baseline-only request on
/// [`default_workers`] workers, as the pipeline sizes, and returns
/// `n0`.
///
/// # Errors
///
/// As [`right_size`].
pub fn right_size_baseline_only_prepared(
    prepared: &PreparedTrace,
    baseline_shape: ServerShape,
    policy: PlacementPolicy,
    faults: Option<&FaultInjection<'_>>,
) -> Result<u32, SizingError> {
    right_size(&SizingRequest {
        faults,
        workers: default_workers(),
        ..SizingRequest::new(prepared, baseline_shape, policy)
    })
    .map(|(n0, _)| n0)
}

/// Kept for the `benchmark/` package, which calls it: forwards to
/// [`right_size`] with a mixed request over `prepared` on
/// [`default_workers`] workers, as the pipeline sizes, and returns the
/// plan.
///
/// # Errors
///
/// As [`right_size`].
pub fn right_size_mixed_prepared(
    prepared: &PreparedTrace,
    prepared_baseline: &PreparedTrace,
    baseline_shape: ServerShape,
    green_shape: ServerShape,
    policy: PlacementPolicy,
    faults: Option<&FaultInjection<'_>>,
) -> Result<ClusterPlan, SizingError> {
    let mixed = Some(MixedSearch { prepared, green_shape });
    right_size(&SizingRequest {
        mixed,
        faults,
        workers: default_workers(),
        ..SizingRequest::new(prepared_baseline, baseline_shape, policy)
    })
    .map(|(_, plan)| plan)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use gsf_vmalloc::{PlacementRequest, VmTransform};
    use gsf_workloads::{ServerGeneration, Trace, VmEvent, VmEventKind, VmSpec};

    /// Sizes `trace` on Gen3 baseline servers with BestFit: `n0` alone,
    /// or with the mixed plan on GreenSKUs when `routed` is given.
    fn size(
        trace: &Trace,
        routed: Option<&VmTransform<'_>>,
        faults: Option<&FaultInjection<'_>>,
    ) -> Result<(u32, ClusterPlan), SizingError> {
        let baseline = PreparedTrace::new(trace, &PlacementRequest::baseline_only);
        let prepared = routed.map(|transform| PreparedTrace::new(trace, transform));
        let green_shape = ServerShape::greensku();
        right_size(&SizingRequest {
            mixed: prepared.as_ref().map(|prepared| MixedSearch { prepared, green_shape }),
            faults,
            ..SizingRequest::new(&baseline, ServerShape::baseline_gen3(), PlacementPolicy::BestFit)
        })
    }

    fn n0(trace: &Trace, faults: Option<&FaultInjection<'_>>) -> Result<u32, SizingError> {
        size(trace, None, faults).map(|(n0, _)| n0)
    }

    fn mixed_plan(trace: &Trace, routed: &VmTransform<'_>) -> Result<ClusterPlan, SizingError> {
        size(trace, Some(routed), None).map(|(_, plan)| plan)
    }

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
        assert_eq!(
            size(&concurrent_trace(30), None, None),
            Ok((3, ClusterPlan { baseline: 3, green: 0 }))
        );
    }

    #[test]
    fn infeasible_vm_reported() {
        // A 200-core VM fits no server.
        let trace = Trace::new(
            10.0,
            vec![vm(0, 200, false)],
            vec![VmEvent { time_s: 1.0, kind: VmEventKind::Arrival, vm_id: 0 }],
        );
        assert!(matches!(n0(&trace, None), Err(SizingError::Infeasible { .. })));
    }

    #[test]
    fn all_adopting_workload_goes_fully_green() {
        let transform = |v: &VmSpec| PlacementRequest::prefer_green(v, 1.25);
        let plan = mixed_plan(&concurrent_trace(24), &transform).unwrap();
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
        let plan = mixed_plan(&trace, &transform).unwrap();
        assert_eq!(plan.baseline, 2);
        assert_eq!(plan.green, 1);
    }

    #[test]
    fn mixed_plan_never_larger_capacity_than_double_baseline() {
        let transform = |v: &VmSpec| PlacementRequest::prefer_green(v, 1.5);
        let trace = concurrent_trace(40);
        let (n0, plan) = size(&trace, Some(&transform), None).unwrap();
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
        let plan = mixed_plan(&concurrent_trace(200), &transform).unwrap();
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
        assert_eq!(n0(&trace, None), n0(&trace, Some(&inj)));
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
        let plain = n0(&trace, None).unwrap();
        let faulted = n0(&trace, Some(&inj)).unwrap();
        assert!(faulted >= plain, "faulted {faulted} < plain {plain}");
        let config = ClusterConfig {
            baseline_count: faulted,
            baseline_shape: ServerShape::baseline_gen3(),
            green_count: 0,
            green_shape: ServerShape::greensku(),
        };
        let plan = inj.plan_for(&config, trace.duration_s());
        assert!(!plan.is_empty(), "at 40x AFR the plan should contain faults");
        let prepared = PreparedTrace::new(&trace, &PlacementRequest::baseline_only);
        let (out, summary) = AllocationSim::new(config, PlacementPolicy::BestFit)
            .replay_prepared_faulted(&prepared, &plan);
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
        let run = || size(&trace, Some(&transform), Some(&inj)).unwrap().1;
        let a = run();
        assert_eq!(a, run());
        // And at least the fault-free capacity.
        let plain = mixed_plan(&trace, &transform).unwrap();
        assert!(a.total() >= plain.total(), "faulted {a:?} vs plain {plain:?}");
    }

    /// Smallest `n` in `[lo, hi]` with `pred(n)` true, assuming monotone
    /// feasibility; `None` if the range is empty or even `hi` fails. The
    /// plain search the reference skeletons below bisect with.
    fn binary_search_min(lo: u32, hi: u32, mut pred: impl FnMut(u32) -> bool) -> Option<u32> {
        if lo > hi || !pred(hi) {
            return None;
        }
        Some(bisect(lo, hi, None, |n, _| (pred(n), None)))
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
            let got = baseline_search(peak, SHAPE, &mut |c: ClusterConfig| {
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
            let got = mixed_search(N0, SHAPE, SHAPE, &mut |c: ClusterConfig| {
                exact_caps.push(c.green_count);
                fleet.exact(c)
            });
            let mut plain_calls = 0usize;
            let want = reference_mixed_search(N0, SHAPE, SHAPE, |c: ClusterConfig| {
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
        reference_mixed_search(N0, SHAPE, SHAPE, |c: ClusterConfig| {
            plain_caps.push(c.green_count);
            fleet.exact(c).feasible
        })
        .unwrap();
        assert!(plain_caps.contains(&32), "{plain_caps:?}");
        let mut exact_caps = Vec::new();
        mixed_search(N0, SHAPE, SHAPE, &mut |c: ClusterConfig| {
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
            let got_plan = mixed_search(N0, SHAPE, SHAPE, &mut |c: ClusterConfig| {
                got.push(c);
                Probe::plain(fleet.exact(c).feasible)
            });
            let mut want = Vec::new();
            let want_plan = reference_mixed_search(N0, SHAPE, SHAPE, |c: ClusterConfig| {
                want.push(c);
                fleet.exact(c).feasible
            });
            assert_eq!(got_plan, want_plan, "{fleet:?}");
            // The plain search probes the feasible `(b_min, green_cap)`
            // twice: to find `b_min`, then again at the top of the
            // GreenSKU search. The skeleton skips exactly that repeat.
            let repeats: Vec<usize> =
                (1..want.len()).filter(|&i| want[..i].contains(&want[i])).collect();
            if want_plan.is_ok() {
                assert_eq!(repeats.len(), 1, "{fleet:?}: {want:?}");
                want.remove(repeats[0]);
            } else {
                assert!(repeats.is_empty(), "{fleet:?}: {want:?}");
            }
            assert_eq!(got, want, "{fleet:?}");
        }
        let peak = (640, 0.0);
        for needed in [4u32, 23, 41] {
            let fleet = Fleet { baseline: needed, green: 0, overflow: 0 };
            let mut got = Vec::new();
            let got_n = baseline_search(peak, SHAPE, &mut |c: ClusterConfig| {
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

    /// A prober over a synthetic fleet whose pair method answers both
    /// configurations it is given, recording each round.
    struct Recording {
        fleet: Fleet,
        /// Whether its probes report the fleet's marks. Its look-ahead
        /// answers are then inverted, so a search that read one would go
        /// wrong.
        exact: bool,
        rounds: Vec<(ClusterConfig, Option<ClusterConfig>)>,
    }

    impl Recording {
        fn new(fleet: Fleet, exact: bool) -> Self {
            Self { fleet, exact, rounds: Vec::new() }
        }

        fn answer(&self, config: ClusterConfig) -> Probe {
            let exact = self.fleet.exact(config);
            if self.exact {
                exact
            } else {
                Probe::plain(exact.feasible)
            }
        }

        /// Each round's own configuration, then its look-ahead's when its
        /// own was feasible: the configurations whose answers a search
        /// without marks uses, in order.
        fn used(&self) -> Vec<ClusterConfig> {
            let ahead = |&(config, next): &(ClusterConfig, Option<ClusterConfig>)| {
                next.filter(|_| self.fleet.exact(config).feasible)
            };
            self.rounds
                .iter()
                .flat_map(|round| std::iter::once(round.0).chain(ahead(round)))
                .collect()
        }
    }

    impl Prober for Recording {
        fn probe(&mut self, config: ClusterConfig) -> Probe {
            self.probe_ahead(config, None).0
        }

        fn probe_ahead(
            &mut self,
            config: ClusterConfig,
            next: Option<ClusterConfig>,
        ) -> (Probe, Option<Probe>) {
            self.rounds.push((config, next));
            let ahead = next.map(|next| {
                let answer = self.answer(next);
                Probe { feasible: answer.feasible != self.exact, ..answer }
            });
            (self.answer(config), ahead)
        }
    }

    /// The plain search's probe sequence on `fleet`, minus the one repeat
    /// the skeleton skips, and its answer.
    fn reference_mixed_probes(
        fleet: Fleet,
    ) -> (Vec<ClusterConfig>, Result<ClusterPlan, SizingError>) {
        let mut want = Vec::new();
        let plan = reference_mixed_search(N0, SHAPE, SHAPE, |c: ClusterConfig| {
            want.push(c);
            fleet.exact(c).feasible
        });
        if let Some(repeat) = (1..want.len()).find(|&i| want[..i].contains(&want[i])) {
            want.remove(repeat);
        }
        (want, plan)
    }

    #[test]
    fn looking_ahead_uses_the_plain_search_answers_in_order() {
        for fleet in FLEETS {
            let (want, want_plan) = reference_mixed_probes(fleet);
            let mut prober = Recording::new(fleet, false);
            let got_plan = mixed_search(N0, SHAPE, SHAPE, &mut prober);
            assert_eq!(got_plan, want_plan, "{fleet:?}");
            assert_eq!(prober.used(), want, "{fleet:?}");
            // A round asks one or two configurations, and every feasible
            // probe with a look-ahead saves one: a search that finds a
            // plan takes fewer rounds than probes.
            if want_plan.is_ok() {
                assert!(prober.rounds.len() < want.len(), "{fleet:?}: {:?}", prober.rounds);
            }
        }
        let peak = (640, 0.0);
        for needed in [4u32, 10, 23, 40, 41] {
            let fleet = Fleet { baseline: needed, green: 0, overflow: 0 };
            let mut want = Vec::new();
            let want_n = reference_baseline_search(peak, SHAPE, |c| {
                want.push(c);
                fleet.exact(c).feasible
            });
            let mut prober = Recording::new(fleet, false);
            assert_eq!(baseline_search(peak, SHAPE, &mut prober), want_n, "needed {needed}");
            assert_eq!(prober.used(), want, "needed {needed}");
        }
    }

    #[test]
    fn probes_with_marks_read_no_look_ahead_answer() {
        for fleet in FLEETS {
            let mut exact_calls = Vec::new();
            let exact_plan = mixed_search(N0, SHAPE, SHAPE, &mut |c: ClusterConfig| {
                exact_calls.push(c);
                fleet.exact(c)
            });
            let mut prober = Recording::new(fleet, true);
            assert_eq!(mixed_search(N0, SHAPE, SHAPE, &mut prober), exact_plan, "{fleet:?}");
            let asked: Vec<ClusterConfig> = prober.rounds.iter().map(|&(c, _)| c).collect();
            assert_eq!(asked, exact_calls, "{fleet:?}");
        }
        // The unsharded prober has a spare simulator to look ahead on
        // only for faulted probes on two or more workers.
        let trace = concurrent_trace(4);
        let prepared = PreparedTrace::new(&trace, &PlacementRequest::baseline_only);
        let model = FaultModel::paper(1);
        let inj = FaultInjection {
            model: &model,
            baseline_devices: PoolDevices::baseline(),
            green_devices: PoolDevices::greensku_full(),
            slo: None,
        };
        for (faults, workers, spare) in
            [(None, 2, false), (Some(&inj), 1, false), (Some(&inj), 2, true)]
        {
            let prober = unsharded(&prepared, PlacementPolicy::BestFit, faults, workers);
            assert_eq!(prober.spare.is_some(), spare, "{workers} workers");
        }
    }
}
