//! The reference every production shortcut is checked against: an
//! allocation simulator and a sizing search written to be obviously
//! right rather than fast.
//!
//! The replay walks the raw [`Trace`], resolves each event's VM and
//! placement request on the spot, picks servers with
//! [`PlacementPolicy::choose_linear`], and keeps resident VMs in a
//! `BTreeMap` keyed by VM id. Faults run through the oracle's own
//! strike, evacuate, retry-queue and revive code. Sizing is the plain
//! binary search over those replays, with the library's bounds and
//! green-cap doubling. There is no prepared trace, no placement index,
//! no shard and no high-water mark here.
//!
//! Only the per-server primitives are shared with the library
//! (`ServerState`, `VmArena`, `PackingMetrics::snapshot`, `UsageLedger`,
//! `choose_linear`), along with the fault plan a `FaultInjection`
//! samples and the predicate it admits summaries by.

use gsf_cluster::sizing::{ClusterPlan, FaultInjection, SizingError};
use gsf_vmalloc::server::PlacedVm;
use gsf_vmalloc::{
    ClusterConfig, FaultEvent, FaultKind, FaultPlan, FaultPool, FaultSummary, PackingMetrics,
    PlacementPolicy, PlacementRequest, ServerShape, ServerState, SimOutcome, TargetPool,
    UsageLedger, VmArena, VmTransform,
};
use gsf_workloads::{Trace, VmEventKind, VmSpec};
use std::collections::BTreeMap;

/// A trace, the transform that turns its VMs into placement requests,
/// and the policy and snapshot interval every replay of it uses.
#[derive(Clone, Copy)]
pub struct Oracle<'a> {
    pub trace: &'a Trace,
    pub transform: &'a VmTransform<'a>,
    pub policy: PlacementPolicy,
    pub snapshot_interval_s: f64,
}

impl<'a> Oracle<'a> {
    /// Hourly snapshots, the simulator's default.
    pub fn new(trace: &'a Trace, transform: &'a VmTransform<'a>, policy: PlacementPolicy) -> Self {
        Self { trace, transform, policy, snapshot_interval_s: 3600.0 }
    }

    /// Replays the trace on a fresh `config` cluster, striking it with
    /// `plan`.
    pub fn replay(&self, config: ClusterConfig, plan: &FaultPlan) -> (SimOutcome, FaultSummary) {
        let duration_s = self.trace.duration_s();
        let mut run = Run::new(*self, config);
        // Faults due by an event strike before it, and none strikes
        // past the horizon. The plan is sorted by time.
        let mut faults = plan.events().iter().filter(|f| f.time_s <= duration_s).peekable();
        for event in self.trace.events() {
            while let Some(fault) = faults.next_if(|f| f.time_s <= event.time_s) {
                run.snapshots_until(fault.time_s);
                run.strike(fault, plan.max_evac_passes());
            }
            run.snapshots_until(event.time_s);
            let vm = self.trace.vm(event.vm_id).expect("trace events reference known VMs");
            match event.kind {
                VmEventKind::Arrival => run.arrive(vm, event.time_s),
                VmEventKind::Departure => run.depart(vm.id, event.time_s),
            }
        }
        for fault in faults {
            run.snapshots_until(fault.time_s);
            run.strike(fault, plan.max_evac_passes());
        }
        run.snapshots_until(duration_s);
        run.metrics.snapshot(&run.baseline, &run.green, &run.arena);
        run.finish(plan)
    }

    /// Whether `config` hosts the trace: no rejection and, under fault
    /// injection, a summary of its own fault plan the injection admits.
    pub fn feasible(&self, config: ClusterConfig, faults: Option<&FaultInjection<'_>>) -> bool {
        let plan = match faults {
            None => FaultPlan::empty(),
            Some(inj) => inj.plan_for(&config, self.trace.duration_s()),
        };
        let (outcome, summary) = self.replay(config, &plan);
        outcome.rejected == 0 && faults.is_none_or(|inj| inj.admits(&summary))
    }
}

/// Where a resident VM lives, since when, and what it is charged.
struct Resident {
    pool: FaultPool,
    server: usize,
    since_s: f64,
    cores: u32,
    app_index: u16,
}

/// The state of one replay.
struct Run<'a> {
    oracle: Oracle<'a>,
    config: ClusterConfig,
    baseline: Vec<ServerState>,
    green: Vec<ServerState>,
    arena: VmArena,
    residents: BTreeMap<u64, Resident>,
    /// Displaced VMs with no server yet: id → when the wait began.
    waiting: BTreeMap<u64, f64>,
    /// Failed servers: (pool, index) → when they went down.
    down_since: BTreeMap<(FaultPool, u32), f64>,
    served_s: f64,
    usage: UsageLedger,
    metrics: PackingMetrics,
    next_snapshot_s: f64,
    outcome: (usize, usize, usize, usize),
    summary: FaultSummary,
}

impl<'a> Run<'a> {
    fn new(oracle: Oracle<'a>, config: ClusterConfig) -> Self {
        let pool = |count: u32, shape: ServerShape| vec![ServerState::new(shape); count as usize];
        Self {
            oracle,
            config,
            baseline: pool(config.baseline_count, config.baseline_shape),
            green: pool(config.green_count, config.green_shape),
            arena: VmArena::new(),
            residents: BTreeMap::new(),
            waiting: BTreeMap::new(),
            down_since: BTreeMap::new(),
            served_s: 0.0,
            usage: UsageLedger::new(),
            metrics: PackingMetrics::new(),
            next_snapshot_s: oracle.snapshot_interval_s,
            outcome: (0, 0, 0, 0),
            summary: FaultSummary::default(),
        }
    }

    /// Takes every interim snapshot due by `t`; the horizon sample is
    /// taken once, after the last event.
    fn snapshots_until(&mut self, t: f64) {
        while self.next_snapshot_s <= t && self.next_snapshot_s < self.oracle.trace.duration_s() {
            self.metrics.snapshot(&self.baseline, &self.green, &self.arena);
            self.next_snapshot_s += self.oracle.snapshot_interval_s;
        }
    }

    fn arrive(&mut self, vm: &VmSpec, now: f64) {
        let request = (self.oracle.transform)(vm);
        let placed = self.place(vm, &request, now);
        let (rejected, placed_green, placed_baseline, green_overflow) = &mut self.outcome;
        match placed {
            Some(FaultPool::Green) => *placed_green += 1,
            Some(FaultPool::Baseline) => {
                *placed_baseline += 1;
                if request.target == TargetPool::PreferGreen {
                    *green_overflow += 1;
                }
            }
            None => *rejected += 1,
        }
    }

    /// Places `vm` on the server the policy picks, a GreenSKU first when
    /// the request prefers one, and makes it resident from `now`.
    fn place(&mut self, vm: &VmSpec, request: &PlacementRequest, now: f64) -> Option<FaultPool> {
        let policy = self.oracle.policy;
        let green = match request.target {
            TargetPool::PreferGreen => {
                policy.choose_linear(&self.green, request.green_cores, request.green_mem_gb)
            }
            TargetPool::BaselineOnly => None,
        };
        let (pool, server, cores, mem_gb) = match green {
            Some(i) => (FaultPool::Green, i, request.green_cores, request.green_mem_gb),
            None => {
                let cores = request.baseline_cores;
                let i = policy.choose_linear(&self.baseline, cores, request.baseline_mem_gb)?;
                (FaultPool::Baseline, i, cores, request.baseline_mem_gb)
            }
        };
        let servers = match pool {
            FaultPool::Baseline => &mut self.baseline,
            FaultPool::Green => &mut self.green,
        };
        let placed = PlacedVm { cores, mem_gb, max_mem_util: vm.max_mem_util };
        servers[server].place(&mut self.arena, vm.id, placed);
        let resident = Resident { pool, server, since_s: now, cores, app_index: vm.app_index };
        self.residents.insert(vm.id, resident);
        Some(pool)
    }

    /// A departure ends a residency, or a wait that never found a
    /// server (an evacuation failure). A VM rejected on arrival is in
    /// neither.
    fn depart(&mut self, id: u64, now: f64) {
        if let Some(resident) = self.residents.remove(&id) {
            let servers = match resident.pool {
                FaultPool::Baseline => &mut self.baseline,
                FaultPool::Green => &mut self.green,
            };
            servers[resident.server].remove(&mut self.arena, id);
            self.charge(&resident, now);
        } else if let Some(since) = self.waiting.remove(&id) {
            self.summary.evacuation_failures += 1;
            self.summary.availability.vm_seconds_lost += now - since;
        }
    }

    /// Books a residency's core-seconds up to `until`.
    fn charge(&mut self, resident: &Resident, until: f64) {
        let dwell = until - resident.since_s;
        self.served_s += dwell;
        match resident.pool {
            FaultPool::Baseline => {
                self.usage.record_baseline(resident.app_index, resident.cores, dwell)
            }
            FaultPool::Green => self.usage.record_green(resident.app_index, resident.cores, dwell),
        }
    }

    /// Applies one fault. A revive brings a failed server back at its
    /// pool's shape and lets the waiting VMs try again. A failure or a
    /// degrade displaces VMs, which are re-placed in ascending id order
    /// for up to `max_passes` passes; the rest wait. A fault on a
    /// server the cluster does not have, a failure or degrade of a
    /// failed server, and a revive of a live one do nothing.
    fn strike(&mut self, fault: &FaultEvent, max_passes: u32) {
        let (servers, pristine) = match fault.pool {
            FaultPool::Baseline => (&mut self.baseline, self.config.baseline_shape),
            FaultPool::Green => (&mut self.green, self.config.green_shape),
        };
        let Some(server) = servers.get_mut(fault.server as usize) else {
            return;
        };
        let summary = &mut self.summary;
        let mut displaced = Vec::new();
        match fault.kind {
            FaultKind::Revive => {
                if !server.is_offline() {
                    return;
                }
                server.reset(pristine);
                summary.revivals += 1;
                if let Some(since) = self.down_since.remove(&(fault.pool, fault.server)) {
                    summary.availability.server_down_seconds += fault.time_s - since;
                }
                self.retry_waiting(fault.time_s);
                return;
            }
            _ if server.is_offline() => return,
            FaultKind::FullFailure => {
                summary.full_failures += 1;
                summary.cores_lost += u64::from(server.shape().cores);
                summary.mem_lost_gb += server.shape().mem_gb;
                server.fail(&mut self.arena, &mut displaced);
                self.down_since.insert((fault.pool, fault.server), fault.time_s);
            }
            FaultKind::PartialDegrade { cores_lost, mem_lost_gb } => {
                summary.partial_degrades += 1;
                let before = server.shape();
                server.degrade(&mut self.arena, cores_lost, mem_lost_gb, &mut displaced);
                summary.cores_lost += u64::from(before.cores - server.shape().cores);
                summary.mem_lost_gb += before.mem_gb - server.shape().mem_gb;
            }
        }
        if displaced.is_empty() {
            return;
        }
        displaced.sort_unstable();
        summary.displaced += displaced.len();
        let peak = &mut summary.availability.max_simultaneous_displaced;
        *peak = (*peak).max(self.waiting.len() + displaced.len());
        for id in &displaced {
            if let Some(resident) = self.residents.remove(id) {
                self.charge(&resident, fault.time_s);
            }
        }
        // Each pass retries every homeless VM; a pass that places none
        // ends the retries.
        for _ in 0..max_passes {
            let before = displaced.len();
            displaced.retain(|&id| !self.rehome(id, fault.time_s));
            if displaced.is_empty() || displaced.len() == before {
                break;
            }
        }
        for id in displaced {
            self.waiting.insert(id, fault.time_s);
        }
    }

    /// Tries once, in ascending id order, to place every waiting VM.
    fn retry_waiting(&mut self, now: f64) {
        let ids: Vec<u64> = self.waiting.keys().copied().collect();
        for id in ids {
            if self.rehome(id, now) {
                let since = self.waiting.remove(&id).expect("a waiting VM is in the queue");
                self.summary.availability.vm_seconds_lost += now - since;
            }
        }
    }

    /// Re-places a displaced VM, resolving it through the trace. A VM
    /// the trace does not know (left over from an earlier replay) has
    /// no request and stays homeless.
    fn rehome(&mut self, id: u64, now: f64) -> bool {
        let Some(vm) = self.oracle.trace.vm(id) else {
            return false;
        };
        let request = (self.oracle.transform)(vm);
        let placed = self.place(vm, &request, now).is_some();
        if placed {
            self.summary.evacuated += 1;
        }
        placed
    }

    /// Charges the VMs still resident to the horizon in ascending id
    /// order, fails the VMs still waiting, and closes the downtime of
    /// servers still down.
    fn finish(mut self, plan: &FaultPlan) -> (SimOutcome, FaultSummary) {
        let horizon = self.oracle.trace.duration_s();
        for resident in std::mem::take(&mut self.residents).into_values() {
            self.charge(&resident, horizon);
        }
        let summary = &mut self.summary;
        for since in self.waiting.values() {
            summary.evacuation_failures += 1;
            summary.availability.vm_seconds_lost += horizon - since;
        }
        for since in self.down_since.values() {
            summary.availability.server_down_seconds += horizon - since;
        }
        if summary.faults_applied() {
            summary.availability.vm_seconds_served = self.served_s;
            summary.availability.blast_radius_servers = plan.max_correlated_strikes();
        }
        let (rejected, placed_green, placed_baseline, green_overflow) = self.outcome;
        let outcome = SimOutcome {
            rejected,
            placed_green,
            placed_baseline,
            green_overflow,
            metrics: self.metrics,
            usage: self.usage,
        };
        (outcome, self.summary)
    }
}

/// Smallest `n` in `[lo, hi]` with `pred(n)`, assuming `pred` is
/// monotone; `None` when the range is empty or `pred(hi)` fails.
pub fn binary_search_min(
    mut lo: u32,
    mut hi: u32,
    mut pred: impl FnMut(u32) -> bool,
) -> Option<u32> {
    if lo > hi || !pred(hi) {
        return None;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

/// The fewest `baseline_shape` servers `fits` accepts, searched between
/// the peak-demand lower bound and four times it (at least 8).
pub fn n0_search(
    peak_demand: (u64, f64),
    baseline_shape: ServerShape,
    mut fits: impl FnMut(ClusterConfig) -> bool,
) -> Result<u32, SizingError> {
    let (peak_cores, peak_mem_gb) = peak_demand;
    let by_cores = peak_cores.div_ceil(u64::from(baseline_shape.cores));
    let by_mem = (peak_mem_gb / baseline_shape.mem_gb).ceil() as u64;
    let lower = by_cores.max(by_mem).max(1) as u32;
    let bound = lower.saturating_mul(4).max(8);
    let config = |n: u32| ClusterConfig {
        baseline_count: n,
        baseline_shape,
        green_count: 0,
        green_shape: ServerShape::greensku(),
    };
    binary_search_min(lower, bound, |n| fits(config(n))).ok_or(SizingError::Infeasible { bound })
}

/// The §V mixed search from `n0`: the fewest baseline servers under a
/// green cap that doubles while the cap is what rejects VMs or pins
/// baseline servers, then the fewest GreenSKUs.
pub fn mixed_search(
    n0: u32,
    baseline_shape: ServerShape,
    green_shape: ServerShape,
    mut fits: impl FnMut(ClusterConfig) -> bool,
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
        if let Some(b) = binary_search_min(0, n0, |b| fits(config(b, green_cap))) {
            break b;
        }
        if green_cap >= cap_limit {
            return Err(SizingError::Infeasible { bound: n0 + green_cap });
        }
        green_cap = green_cap.saturating_mul(2).min(cap_limit);
    };
    while b_min > 0 && green_cap < cap_limit {
        let doubled = green_cap.saturating_mul(2).min(cap_limit);
        match binary_search_min(0, b_min - 1, |b| fits(config(b, doubled))) {
            Some(b) => (green_cap, b_min) = (doubled, b),
            None => break,
        }
    }
    let g_min = binary_search_min(0, green_cap, |g| fits(config(b_min, g)))
        .ok_or(SizingError::Infeasible { bound: n0 + green_cap })?;
    Ok(ClusterPlan { baseline: b_min, green: g_min })
}

/// Sizes `trace` by replaying it on the oracle: `n0` with every VM at
/// its original size, then, given a routing transform, the mixed plan.
/// Without one the plan is `n0` baseline servers.
pub fn right_size(
    trace: &Trace,
    routed: Option<(&VmTransform<'_>, ServerShape)>,
    baseline_shape: ServerShape,
    policy: PlacementPolicy,
    faults: Option<&FaultInjection<'_>>,
) -> Result<(u32, ClusterPlan), SizingError> {
    let baseline_only = |vm: &VmSpec| PlacementRequest::baseline_only(vm);
    let oracle = Oracle::new(trace, &baseline_only, policy);
    let n0 = n0_search(trace.peak_demand(), baseline_shape, |c| oracle.feasible(c, faults))?;
    let plan = match routed {
        None => ClusterPlan { baseline: n0, green: 0 },
        Some((transform, green_shape)) => {
            let oracle = Oracle::new(trace, transform, policy);
            mixed_search(n0, baseline_shape, green_shape, |c| oracle.feasible(c, faults))?
        }
    };
    Ok((n0, plan))
}
