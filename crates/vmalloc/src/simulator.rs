//! The allocation simulator: replays a trace against a two-pool cluster.
//!
//! Two replay engines share the same semantics and are pinned bitwise
//! identical to each other (the `prepared_equivalence` suite in
//! `gsf-cluster` is a CI gate):
//!
//! - the **prepared** engine ([`AllocationSim::replay_prepared`],
//!   [`AllocationSim::replay_prepared_faulted`]) consumes a
//!   [`PreparedTrace`] — events carry dense VM slots and precomputed
//!   [`PlacementRequest`]s, so a sizing search replays the same plan
//!   across every probe without re-resolving anything;
//! - the **unprepared** reference engine
//!   ([`AllocationSim::replay_unprepared`],
//!   [`AllocationSim::replay_faulted_unprepared`]) resolves VMs and
//!   requests on the fly, per event. It exists as the independent
//!   reference the equivalence suite and the
//!   `ablation_prepared_replay` bench compare against.
//!
//! [`AllocationSim::replay`] / [`AllocationSim::replay_faulted`] build
//! a [`PreparedTrace`] and route through the prepared engine.
//!
//! Server selection likewise has two pinned-equivalent paths: the
//! default **indexed** selection routes every `choose` through a
//! [`PlacementIndex`] per pool (maintained incrementally across
//! `place`/`remove`/`fail`/`degrade`/`reset`), while
//! [`AllocationSim::with_linear_selection`] keeps the original O(N)
//! [`PlacementPolicy::choose_linear`] scan as the reference engine. The
//! two are bit-identical on every request (debug builds assert it per
//! selection; the `index_equivalence` suite in `gsf-cluster` is the CI
//! gate).

use crate::arena::VmArena;
use crate::cluster::ClusterConfig;
use crate::cluster::ServerShape;
use crate::faults::{FaultEvent, FaultKind, FaultPlan, FaultPool, FaultSummary};
use crate::index::PlacementIndex;
use crate::metrics::PackingMetrics;
use crate::policy::PlacementPolicy;
use crate::prepared::{PreparedEvent, PreparedTrace};
use crate::server::{PlacedVm, ServerState};
use crate::usage::UsageLedger;
use gsf_workloads::{Trace, VmEventKind, VmSpec};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Which pool(s) a VM may be placed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TargetPool {
    /// Only baseline servers (full-node VMs, non-adopting apps).
    BaselineOnly,
    /// GreenSKU preferred; falls back to a baseline server at the
    /// original (unscaled) size when no GreenSKU has room — the paper's
    /// fungible-placement workaround that keeps the growth buffer
    /// baseline-only.
    PreferGreen,
}

/// The resolved placement request for one VM: how large it is on each
/// pool and where it may go.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacementRequest {
    /// Pool constraint.
    pub target: TargetPool,
    /// Cores if placed on a baseline server.
    pub baseline_cores: u32,
    /// Memory on a baseline server, GB.
    pub baseline_mem_gb: f64,
    /// Cores if placed on a GreenSKU (scaled by the app's scaling
    /// factor).
    pub green_cores: u32,
    /// Memory on a GreenSKU, GB (scaled likewise).
    pub green_mem_gb: f64,
}

impl PlacementRequest {
    /// A baseline-only request at the VM's original size.
    pub fn baseline_only(vm: &VmSpec) -> Self {
        Self {
            target: TargetPool::BaselineOnly,
            baseline_cores: vm.cores,
            baseline_mem_gb: vm.mem_gb,
            green_cores: vm.cores,
            green_mem_gb: vm.mem_gb,
        }
    }

    /// A green-preferring request scaled by `factor` on the GreenSKU.
    ///
    /// Cores round up to whole cores; memory scales by the *realized*
    /// core multiplier so the VM keeps its memory:core ratio (per §VIII,
    /// GSF pessimistically scales memory and cores proportionally — a
    /// 1-core VM scaled 1.25× becomes a 2-core VM with 2× memory).
    pub fn prefer_green(vm: &VmSpec, factor: f64) -> Self {
        let green_cores = (f64::from(vm.cores) * factor).ceil() as u32;
        let realized = f64::from(green_cores) / f64::from(vm.cores);
        Self {
            target: TargetPool::PreferGreen,
            baseline_cores: vm.cores,
            baseline_mem_gb: vm.mem_gb,
            green_cores,
            green_mem_gb: vm.mem_gb * realized,
        }
    }
}

/// Decides each VM's [`PlacementRequest`] — the hook through which the
/// GSF adoption component plugs into allocation.
pub type VmTransform<'a> = dyn Fn(&VmSpec) -> PlacementRequest + 'a;

/// Where a VM ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Placement {
    Baseline(usize),
    Green(usize),
}

/// Book-keeping for a currently placed VM.
#[derive(Debug, Clone, Copy)]
struct ActiveVm {
    placement: Placement,
    arrival_s: f64,
    cores: u32,
    app_index: u16,
}

/// Result of replaying a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimOutcome {
    /// Number of VM requests that could not be placed anywhere.
    pub rejected: usize,
    /// Number of VMs placed on GreenSKU servers.
    pub placed_green: usize,
    /// Number of VMs placed on baseline servers.
    pub placed_baseline: usize,
    /// Of the green-preferring VMs, how many overflowed to baseline.
    pub green_overflow: usize,
    /// Packing metrics sampled over the replay.
    pub metrics: PackingMetrics,
    /// Per-application core-hour usage, for carbon attribution.
    pub usage: UsageLedger,
}

impl SimOutcome {
    /// Whether the cluster hosted the entire trace without rejection.
    pub fn no_rejections(&self) -> bool {
        self.rejected == 0
    }
}

/// Per-pool placement high-water marks: one past the highest server
/// index any placement chose since the last [`AllocationSim::reset`]
/// (0 for a pool nothing was placed on).
///
/// In a fault-free replay empty servers are identical and every policy
/// takes a fitting server below the mark before an empty one above it,
/// so with the other pool unchanged, a replay on any `n >= mark`
/// servers of a pool repeats this one event for event — the exactness
/// the sizing searches build on (DESIGN.md §15).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HighWaterMarks {
    /// Mark of the baseline pool.
    pub baseline: u32,
    /// Mark of the GreenSKU pool.
    pub green: u32,
}

/// The allocation simulator.
#[derive(Debug)]
pub struct AllocationSim {
    baseline: Vec<ServerState>,
    green: Vec<ServerState>,
    policy: PlacementPolicy,
    snapshot_interval_s: f64,
    /// Placement high-water marks since the last reset; read by
    /// [`Self::high_water_marks`], never part of a [`SimOutcome`].
    high_water: HighWaterMarks,
    /// Free-capacity index per pool; `None` selects through the linear
    /// reference scan (and skips all index maintenance).
    baseline_index: Option<PlacementIndex>,
    green_index: Option<PlacementIndex>,
    /// Pristine per-pool shapes, kept so a [`FaultKind::Revive`] can
    /// restore a repaired server to its original capacity even after a
    /// degrade took it offline-adjacent.
    baseline_shape: ServerShape,
    green_shape: ServerShape,
    /// Cluster-wide slot storage for every placed VM; servers hold
    /// occupancy lists of arena slots (see [`crate::arena`]).
    arena: VmArena,
    /// Persistent replay buffers; see [`ReplayScratch`].
    scratch: ReplayScratch,
}

/// Simulator-owned buffers reused across replays and events so the
/// steady-state event loop performs no heap allocation: the active-VM
/// table of the prepared engine plus the displaced/retry/pending-drain
/// buffers of the fault paths. Each buffer is taken
/// ([`std::mem::take`]) for the duration of a pass that also needs
/// `&mut self`, then cleared and put back, which preserves its
/// capacity for the next replay.
#[derive(Debug, Default)]
struct ReplayScratch {
    /// Prepared-path active-VM table, indexed by trace slot.
    placements: Vec<Option<ActiveVm>>,
    /// Ids displaced by the current fault (strike output, then the
    /// still-homeless set between retry passes).
    displaced: Vec<u64>,
    /// The ids a retry pass failed to place; swapped with `displaced`
    /// between passes.
    unplaced: Vec<u64>,
    /// Snapshot of the pending-queue keys for a revive drain, reused
    /// instead of collecting a fresh `Vec` per drain.
    pending_ids: Vec<u64>,
}

/// Per-replay fault bookkeeping shared by both engines: the pending
/// re-placement queue and offline-server tracking that turn terminal
/// evacuation failures into measured downtime once repairs exist.
struct FaultRuntime {
    /// VMs displaced into a saturated fleet, waiting for capacity to
    /// return: id → time the wait began. Drained (ascending id) when a
    /// revive brings a server back; entries still here when the VM
    /// departs or the horizon arrives become
    /// [`FaultSummary::evacuation_failures`].
    pending: BTreeMap<u64, f64>,
    /// Fully-failed servers: (pool, index) → failure time. Closed out
    /// by the matching revive or at the horizon into
    /// [`crate::AvailabilitySummary::server_down_seconds`].
    down_since: BTreeMap<(FaultPool, u32), f64>,
    /// VM-seconds of settled residency, accumulated at every usage
    /// settlement site in exactly the order the engines settle.
    served_s: f64,
}

impl FaultRuntime {
    fn new() -> Self {
        Self { pending: BTreeMap::new(), down_since: BTreeMap::new(), served_s: 0.0 }
    }
}

impl AllocationSim {
    /// Creates a simulator for `config` with the given policy, selecting
    /// servers through the placement index.
    pub fn new(config: ClusterConfig, policy: PlacementPolicy) -> Self {
        let baseline: Vec<ServerState> =
            (0..config.baseline_count).map(|_| ServerState::new(config.baseline_shape)).collect();
        let green: Vec<ServerState> =
            (0..config.green_count).map(|_| ServerState::new(config.green_shape)).collect();
        let baseline_index = Some(PlacementIndex::new(&baseline));
        let green_index = Some(PlacementIndex::new(&green));
        Self {
            baseline,
            green,
            policy,
            snapshot_interval_s: 3600.0,
            high_water: HighWaterMarks::default(),
            baseline_index,
            green_index,
            baseline_shape: config.baseline_shape,
            green_shape: config.green_shape,
            arena: VmArena::new(),
            scratch: ReplayScratch::default(),
        }
    }

    /// Whether every server's occupancy list agrees with the arena:
    /// lists sorted ascending by VM id, per-server aggregates matching
    /// a fresh fold over the slots, and the total occupancy equal to
    /// the arena's live-slot count. The proptest invariant suite calls
    /// this after random place/remove/fail/degrade/reset sequences.
    pub fn storage_consistent(&self) -> bool {
        let occupancy: usize =
            self.baseline.iter().chain(&self.green).map(ServerState::vm_count).sum();
        occupancy == self.arena.live()
            && self.baseline.iter().chain(&self.green).all(|s| s.storage_consistent(&self.arena))
    }

    /// Overrides the metrics snapshot interval (default hourly).
    pub fn with_snapshot_interval(mut self, seconds: f64) -> Self {
        self.snapshot_interval_s = seconds.max(1.0);
        self
    }

    /// The per-pool placement high-water marks since the last
    /// [`Self::reset`] (or construction).
    pub fn high_water_marks(&self) -> HighWaterMarks {
        self.high_water
    }

    /// Switches to the linear full-scan reference selection
    /// ([`PlacementPolicy::choose_linear`]) and drops the placement
    /// indexes, so no maintenance cost is paid either. Placement
    /// decisions are bit-identical to the indexed default; this mode
    /// exists as the executable spec for the `index_equivalence` suite
    /// and the `ablation_indexed_placement` bench.
    pub fn with_linear_selection(mut self) -> Self {
        self.baseline_index = None;
        self.green_index = None;
        self
    }

    /// Re-shapes the cluster to `config` and empties every server,
    /// reusing the pool vectors, the occupancy lists, the VM arena's
    /// columns, and the replay scratch buffers. A reset
    /// simulator replays exactly like a freshly constructed one; the
    /// sizing searches call this between feasibility probes instead of
    /// rebuilding the simulator.
    pub fn reset(&mut self, config: ClusterConfig) {
        fn resize_pool(pool: &mut Vec<ServerState>, count: u32, shape: crate::ServerShape) {
            let count = count as usize;
            pool.truncate(count);
            for server in pool.iter_mut() {
                server.reset(shape);
            }
            while pool.len() < count {
                pool.push(ServerState::new(shape));
            }
        }
        resize_pool(&mut self.baseline, config.baseline_count, config.baseline_shape);
        resize_pool(&mut self.green, config.green_count, config.green_shape);
        self.arena.reset();
        self.high_water = HighWaterMarks::default();
        self.baseline_shape = config.baseline_shape;
        self.green_shape = config.green_shape;
        if let Some(index) = &mut self.baseline_index {
            index.rebuild(&self.baseline);
        }
        if let Some(index) = &mut self.green_index {
            index.rebuild(&self.green);
        }
    }

    /// Replays `trace`, resolving each VM through `transform`.
    ///
    /// Rejected VMs are counted and dropped (their later departure is a
    /// no-op); the cluster-sizing search treats any rejection as "this
    /// cluster is too small".
    ///
    /// Builds a [`PreparedTrace`] and routes through
    /// [`Self::replay_prepared`]; callers replaying the same
    /// (trace, transform) repeatedly should build the plan once
    /// themselves.
    ///
    /// Leaves the simulator holding the end-of-trace allocation state;
    /// call [`Self::reset`] before replaying again.
    pub fn replay(&mut self, trace: &Trace, transform: &VmTransform<'_>) -> SimOutcome {
        let prepared = PreparedTrace::new(trace, transform);
        self.replay_prepared(&prepared)
    }

    /// Replays `trace` while injecting the failures scheduled in
    /// `plan`. Routes through [`Self::replay_prepared_faulted`]; see
    /// there for fault semantics.
    pub fn replay_faulted(
        &mut self,
        trace: &Trace,
        transform: &VmTransform<'_>,
        plan: &FaultPlan,
    ) -> (SimOutcome, FaultSummary) {
        let prepared = PreparedTrace::new(trace, transform);
        self.replay_prepared_faulted(&prepared, plan)
    }

    /// Replays a prepared plan with no faults.
    pub fn replay_prepared(&mut self, prepared: &PreparedTrace) -> SimOutcome {
        self.replay_prepared_faulted(prepared, &FaultPlan::empty()).0
    }

    /// Replays a prepared plan while injecting the failures scheduled
    /// in `plan`.
    ///
    /// Faults due at time `t` are applied before any trace event at
    /// `t`, and after any metrics snapshot due at `t` (the snapshot
    /// samples the pre-fault cluster). A full failure takes the server
    /// offline and displaces every hosted VM; a partial degrade shrinks
    /// the server in place and displaces only VMs that no longer fit.
    /// Displaced VMs are re-placed through the policy (in ascending id
    /// order, with a bounded number of retry passes); those that cannot
    /// be re-placed anywhere join the pending-placement queue and wait.
    /// A [`FaultKind::Revive`] brings an offline server back empty at
    /// its pristine pool shape and drains the pending queue (ascending
    /// id, single pass — placements only consume capacity, so one pass
    /// is complete). Pending VMs that depart or reach the horizon
    /// without ever finding a home are counted as
    /// [`FaultSummary::evacuation_failures`], and every second a VM
    /// spends in the queue accrues to
    /// [`crate::AvailabilitySummary::vm_seconds_lost`]. An empty plan
    /// makes this bit-identical to [`Self::replay_prepared`], and a
    /// revive-free plan leaves every displaced-but-unplaceable VM
    /// failing exactly as before (only the time at which the failure is
    /// counted moves from the fault to the departure/horizon).
    pub fn replay_prepared_faulted(
        &mut self,
        prepared: &PreparedTrace,
        plan: &FaultPlan,
    ) -> (SimOutcome, FaultSummary) {
        let (outcome, mut summary) = self.replay_prepared_events(prepared, prepared.events(), plan);
        if summary.faults_applied() {
            summary.availability.blast_radius_servers = plan.max_correlated_strikes();
        }
        (outcome, summary)
    }

    /// Replays an explicit event slice of `prepared` — the whole trace
    /// ([`Self::replay_prepared_faulted`] passes `prepared.events()`) or
    /// one shard's share of it (see [`crate::shard`]). `events` must be
    /// a time-sorted subsequence of `prepared.events()`; slots resolve
    /// against the full prepared trace either way, so the horizon
    /// settlement walks the global ascending-id order and simply skips
    /// VMs this replay never placed.
    pub(crate) fn replay_prepared_events(
        &mut self,
        prepared: &PreparedTrace,
        events: &[PreparedEvent],
        plan: &FaultPlan,
    ) -> (SimOutcome, FaultSummary) {
        let mut placements = std::mem::take(&mut self.scratch.placements);
        placements.clear();
        placements.resize(prepared.vm_count(), None);
        let mut usage = UsageLedger::new();
        let mut metrics = PackingMetrics::new();
        let mut rejected = 0usize;
        let mut placed_green = 0usize;
        let mut placed_baseline = 0usize;
        let mut green_overflow = 0usize;
        let mut next_snapshot = self.snapshot_interval_s;
        let mut summary = FaultSummary::default();
        let mut runtime = FaultRuntime::new();
        let faults = plan.events();
        let mut next_fault = 0usize;
        let duration_s = prepared.duration_s();

        for event in events {
            // Faults due by this event apply first — but never past the
            // horizon, even when the trace's event tail extends beyond
            // it (a repair completing after the horizon must not land).
            while next_fault < faults.len()
                && faults[next_fault].time_s <= event.time_s
                && faults[next_fault].time_s <= duration_s
            {
                self.drain_snapshots(
                    &mut metrics,
                    &mut next_snapshot,
                    faults[next_fault].time_s,
                    duration_s,
                );
                self.apply_fault_prepared(
                    &faults[next_fault],
                    plan.max_evac_passes(),
                    prepared,
                    &mut placements,
                    &mut usage,
                    &mut summary,
                    &mut runtime,
                );
                next_fault += 1;
            }
            self.drain_snapshots(&mut metrics, &mut next_snapshot, event.time_s, duration_s);
            let vm = prepared.vm(event.slot);
            match event.kind {
                VmEventKind::Arrival => {
                    let request = &vm.request;
                    match self.place(vm.id, vm.max_mem_util, request) {
                        Some(p @ Placement::Green(_)) => {
                            placed_green += 1;
                            placements[event.slot as usize] = Some(ActiveVm {
                                placement: p,
                                arrival_s: event.time_s,
                                cores: request.green_cores,
                                app_index: vm.app_index,
                            });
                        }
                        Some(p @ Placement::Baseline(_)) => {
                            placed_baseline += 1;
                            if request.target == TargetPool::PreferGreen {
                                green_overflow += 1;
                            }
                            placements[event.slot as usize] = Some(ActiveVm {
                                placement: p,
                                arrival_s: event.time_s,
                                cores: request.baseline_cores,
                                app_index: vm.app_index,
                            });
                        }
                        None => rejected += 1,
                    }
                }
                VmEventKind::Departure => {
                    // A miss means the VM was rejected on arrival — or
                    // displaced into the pending queue, in which case
                    // the wait ends here as a failure.
                    if let Some(active) = placements[event.slot as usize].take() {
                        let dwell = event.time_s - active.arrival_s;
                        runtime.served_s += dwell;
                        self.remove_placed(active.placement, vm.id);
                        match active.placement {
                            Placement::Baseline(_) => {
                                usage.record_baseline(active.app_index, active.cores, dwell);
                            }
                            Placement::Green(_) => {
                                usage.record_green(active.app_index, active.cores, dwell);
                            }
                        }
                    } else if let Some(since) = runtime.pending.remove(&vm.id) {
                        summary.evacuation_failures += 1;
                        summary.availability.vm_seconds_lost += event.time_s - since;
                    }
                }
            }
        }
        // Faults past the last trace event but within the horizon still
        // strike (their evacuation failures count).
        while next_fault < faults.len() && faults[next_fault].time_s <= duration_s {
            self.drain_snapshots(
                &mut metrics,
                &mut next_snapshot,
                faults[next_fault].time_s,
                duration_s,
            );
            self.apply_fault_prepared(
                &faults[next_fault],
                plan.max_evac_passes(),
                prepared,
                &mut placements,
                &mut usage,
                &mut summary,
                &mut runtime,
            );
            next_fault += 1;
        }
        // Interim snapshots run to the horizon even when the trace tail
        // is event-free, then the horizon itself is sampled once.
        self.drain_snapshots(&mut metrics, &mut next_snapshot, duration_s, duration_s);
        metrics.snapshot(&self.baseline, &self.green, &self.arena);
        // VMs still resident at the horizon are charged to the end of
        // the trace, in ascending VM-id order so the per-app float
        // accumulation is reproducible.
        for &slot in prepared.slots_by_id() {
            if let Some(active) = placements[slot as usize].take() {
                let dwell = duration_s - active.arrival_s;
                runtime.served_s += dwell;
                match active.placement {
                    Placement::Baseline(_) => {
                        usage.record_baseline(active.app_index, active.cores, dwell);
                    }
                    Placement::Green(_) => {
                        usage.record_green(active.app_index, active.cores, dwell);
                    }
                }
            }
        }
        placements.clear();
        self.scratch.placements = placements;
        Self::settle_fault_runtime(&mut summary, &runtime, duration_s);
        (
            SimOutcome { rejected, placed_green, placed_baseline, green_overflow, metrics, usage },
            summary,
        )
    }

    /// Horizon close-out of the fault runtime, identical for both
    /// engines: pending VMs never re-placed become evacuation failures
    /// with downtime to the horizon, still-offline servers accrue
    /// down-seconds to the horizon, and the served-time denominator is
    /// published — but only when at least one fault actually struck, so
    /// an inert plan keeps the summary bit-identical to the default.
    fn settle_fault_runtime(summary: &mut FaultSummary, runtime: &FaultRuntime, duration_s: f64) {
        for since in runtime.pending.values() {
            summary.evacuation_failures += 1;
            summary.availability.vm_seconds_lost += duration_s - since;
        }
        for since in runtime.down_since.values() {
            summary.availability.server_down_seconds += duration_s - since;
        }
        if summary.faults_applied() {
            summary.availability.vm_seconds_served = runtime.served_s;
        }
    }

    /// Reference replay that resolves each VM through `transform` per
    /// event, without a [`PreparedTrace`]. Bit-identical to
    /// [`Self::replay`]; kept as the independent path the equivalence
    /// suite and the prepared-replay ablation compare against.
    pub fn replay_unprepared(&mut self, trace: &Trace, transform: &VmTransform<'_>) -> SimOutcome {
        self.replay_faulted_unprepared(trace, transform, &FaultPlan::empty()).0
    }

    /// Reference faulted replay without a [`PreparedTrace`];
    /// bit-identical to [`Self::replay_faulted`].
    ///
    /// # Panics
    ///
    /// Panics if a trace event references a VM id missing from the
    /// trace's VM table (generated traces are always self-consistent).
    pub fn replay_faulted_unprepared(
        &mut self,
        trace: &Trace,
        transform: &VmTransform<'_>,
        plan: &FaultPlan,
    ) -> (SimOutcome, FaultSummary) {
        let mut placements: BTreeMap<u64, ActiveVm> = BTreeMap::new();
        let mut usage = UsageLedger::new();
        let mut metrics = PackingMetrics::new();
        let mut rejected = 0usize;
        let mut placed_green = 0usize;
        let mut placed_baseline = 0usize;
        let mut green_overflow = 0usize;
        let mut next_snapshot = self.snapshot_interval_s;
        let mut summary = FaultSummary::default();
        let mut runtime = FaultRuntime::new();
        let faults = plan.events();
        let mut next_fault = 0usize;
        let duration_s = trace.duration_s();

        for event in trace.events() {
            // Faults due by this event apply first — but never past the
            // horizon, even when the trace's event tail extends beyond
            // it (a repair completing after the horizon must not land).
            while next_fault < faults.len()
                && faults[next_fault].time_s <= event.time_s
                && faults[next_fault].time_s <= duration_s
            {
                self.drain_snapshots(
                    &mut metrics,
                    &mut next_snapshot,
                    faults[next_fault].time_s,
                    duration_s,
                );
                self.apply_fault(
                    &faults[next_fault],
                    plan.max_evac_passes(),
                    trace,
                    transform,
                    &mut placements,
                    &mut usage,
                    &mut summary,
                    &mut runtime,
                );
                next_fault += 1;
            }
            self.drain_snapshots(&mut metrics, &mut next_snapshot, event.time_s, duration_s);
            let vm = trace.vm(event.vm_id).expect("trace events reference known VMs");
            match event.kind {
                VmEventKind::Arrival => {
                    let request = transform(vm);
                    match self.place(vm.id, vm.max_mem_util, &request) {
                        Some(p @ Placement::Green(_)) => {
                            placed_green += 1;
                            placements.insert(
                                vm.id,
                                ActiveVm {
                                    placement: p,
                                    arrival_s: event.time_s,
                                    cores: request.green_cores,
                                    app_index: vm.app_index,
                                },
                            );
                        }
                        Some(p @ Placement::Baseline(_)) => {
                            placed_baseline += 1;
                            if request.target == TargetPool::PreferGreen {
                                green_overflow += 1;
                            }
                            placements.insert(
                                vm.id,
                                ActiveVm {
                                    placement: p,
                                    arrival_s: event.time_s,
                                    cores: request.baseline_cores,
                                    app_index: vm.app_index,
                                },
                            );
                        }
                        None => rejected += 1,
                    }
                }
                VmEventKind::Departure => {
                    // A miss means the VM was rejected on arrival — or
                    // displaced into the pending queue, in which case
                    // the wait ends here as a failure.
                    if let Some(active) = placements.remove(&vm.id) {
                        let dwell = event.time_s - active.arrival_s;
                        runtime.served_s += dwell;
                        self.remove_placed(active.placement, vm.id);
                        match active.placement {
                            Placement::Baseline(_) => {
                                usage.record_baseline(active.app_index, active.cores, dwell);
                            }
                            Placement::Green(_) => {
                                usage.record_green(active.app_index, active.cores, dwell);
                            }
                        }
                    } else if let Some(since) = runtime.pending.remove(&vm.id) {
                        summary.evacuation_failures += 1;
                        summary.availability.vm_seconds_lost += event.time_s - since;
                    }
                }
            }
        }
        // Faults past the last trace event but within the horizon still
        // strike (their evacuation failures count).
        while next_fault < faults.len() && faults[next_fault].time_s <= duration_s {
            self.drain_snapshots(
                &mut metrics,
                &mut next_snapshot,
                faults[next_fault].time_s,
                duration_s,
            );
            self.apply_fault(
                &faults[next_fault],
                plan.max_evac_passes(),
                trace,
                transform,
                &mut placements,
                &mut usage,
                &mut summary,
                &mut runtime,
            );
            next_fault += 1;
        }
        self.drain_snapshots(&mut metrics, &mut next_snapshot, duration_s, duration_s);
        metrics.snapshot(&self.baseline, &self.green, &self.arena);
        // VMs still resident at the horizon are charged to the end of
        // the trace. Settlement must run in ascending VM-id order — a
        // `HashMap` here once made the per-app `+=` accumulation order
        // (and thus the low bits of usage totals) vary run-to-run; the
        // `BTreeMap` iterates ascending by id, which is exactly that
        // order.
        for (_, active) in placements {
            let dwell = duration_s - active.arrival_s;
            runtime.served_s += dwell;
            match active.placement {
                Placement::Baseline(_) => {
                    usage.record_baseline(active.app_index, active.cores, dwell);
                }
                Placement::Green(_) => {
                    usage.record_green(active.app_index, active.cores, dwell);
                }
            }
        }
        Self::settle_fault_runtime(&mut summary, &runtime, duration_s);
        if summary.faults_applied() {
            summary.availability.blast_radius_servers = plan.max_correlated_strikes();
        }
        (
            SimOutcome { rejected, placed_green, placed_baseline, green_overflow, metrics, usage },
            summary,
        )
    }

    /// Takes every metrics snapshot due at or before `upto`, leaving
    /// the horizon sample (taken unconditionally once per replay) to
    /// the caller.
    fn drain_snapshots(
        &self,
        metrics: &mut PackingMetrics,
        next_snapshot: &mut f64,
        upto: f64,
        duration_s: f64,
    ) {
        while *next_snapshot <= upto && *next_snapshot < duration_s {
            metrics.snapshot(&self.baseline, &self.green, &self.arena);
            *next_snapshot += self.snapshot_interval_s;
        }
    }

    /// Applies the capacity change of one fault to the struck server
    /// and updates the loss accounting. Appends the displaced VM ids to
    /// `displaced` in ascending order (none for a revive) and returns
    /// `Some(())`, or `None` when the fault strikes nothing: the plan
    /// addresses a server this configuration does not have, a failure
    /// lands on a server already offline, or a revive lands on a server
    /// that is not offline (it may have been repaired by an earlier
    /// rack-level revive already).
    fn strike(
        &mut self,
        fault: &FaultEvent,
        summary: &mut FaultSummary,
        displaced: &mut Vec<u64>,
    ) -> Option<()> {
        let arena = &mut self.arena;
        let (pool, index, pristine) = match fault.pool {
            FaultPool::Baseline => {
                (&mut self.baseline, &mut self.baseline_index, self.baseline_shape)
            }
            FaultPool::Green => (&mut self.green, &mut self.green_index, self.green_shape),
        };
        let struck = fault.server as usize;
        let server = pool.get_mut(struck)?;
        if matches!(fault.kind, FaultKind::Revive) {
            // Only a fully-failed server is repairable; degraded ones
            // failed in place and stay degraded. (An offline server is
            // empty, so the reset leaks no arena slots.)
            if !server.is_offline() {
                return None;
            }
            server.reset(pristine);
            summary.revivals += 1;
            if let Some(index) = index.as_mut() {
                index.refresh(struck, server);
            }
            return Some(());
        }
        if server.is_offline() {
            return None;
        }
        match fault.kind {
            FaultKind::FullFailure => {
                summary.full_failures += 1;
                summary.cores_lost += u64::from(server.shape().cores);
                summary.mem_lost_gb += server.shape().mem_gb;
                server.fail(arena, displaced);
            }
            FaultKind::PartialDegrade { cores_lost, mem_lost_gb } => {
                summary.partial_degrades += 1;
                let before = server.shape();
                server.degrade(arena, cores_lost, mem_lost_gb, displaced);
                let after = server.shape();
                summary.cores_lost += u64::from(before.cores - after.cores);
                summary.mem_lost_gb += before.mem_gb - after.mem_gb;
            }
            // Handled by the early return above; kept total so the
            // match needs no panic arm.
            FaultKind::Revive => {}
        }
        if let Some(index) = index.as_mut() {
            index.refresh(struck, server);
        }
        displaced.sort_unstable();
        Some(())
    }

    /// Applies one fault on the prepared path: strikes the server,
    /// settles usage for displaced VMs up to the fault time, then tries
    /// to re-place them (ascending id order) with bounded retry passes;
    /// VMs still homeless afterwards join the pending queue. A revive
    /// instead closes the server's downtime and drains the queue.
    #[allow(clippy::too_many_arguments)]
    fn apply_fault_prepared(
        &mut self,
        fault: &FaultEvent,
        max_passes: u32,
        prepared: &PreparedTrace,
        placements: &mut [Option<ActiveVm>],
        usage: &mut UsageLedger,
        summary: &mut FaultSummary,
        runtime: &mut FaultRuntime,
    ) {
        // The displaced/retry buffers are scratch fields, taken out so
        // the inner pass can keep borrowing `&mut self`.
        let mut pending = std::mem::take(&mut self.scratch.displaced);
        let mut unplaced = std::mem::take(&mut self.scratch.unplaced);
        self.apply_fault_prepared_buffered(
            fault,
            max_passes,
            prepared,
            placements,
            usage,
            summary,
            runtime,
            &mut pending,
            &mut unplaced,
        );
        pending.clear();
        unplaced.clear();
        self.scratch.displaced = pending;
        self.scratch.unplaced = unplaced;
    }

    #[allow(clippy::too_many_arguments)]
    fn apply_fault_prepared_buffered(
        &mut self,
        fault: &FaultEvent,
        max_passes: u32,
        prepared: &PreparedTrace,
        placements: &mut [Option<ActiveVm>],
        usage: &mut UsageLedger,
        summary: &mut FaultSummary,
        runtime: &mut FaultRuntime,
        pending: &mut Vec<u64>,
        unplaced: &mut Vec<u64>,
    ) {
        if self.strike(fault, summary, pending).is_none() {
            return;
        }
        if matches!(fault.kind, FaultKind::Revive) {
            if let Some(since) = runtime.down_since.remove(&(fault.pool, fault.server)) {
                summary.availability.server_down_seconds += fault.time_s - since;
            }
            self.drain_pending_prepared(fault.time_s, prepared, placements, summary, runtime);
            return;
        }
        if matches!(fault.kind, FaultKind::FullFailure) {
            runtime.down_since.insert((fault.pool, fault.server), fault.time_s);
        }
        if pending.is_empty() {
            return;
        }
        summary.displaced += pending.len();
        summary.availability.max_simultaneous_displaced = summary
            .availability
            .max_simultaneous_displaced
            .max(runtime.pending.len() + pending.len());
        // Close out the displaced VMs' residency on their old server.
        for id in pending.iter() {
            let Some(slot) = prepared.slot_of_id(*id) else {
                continue;
            };
            if let Some(active) = placements[slot as usize].take() {
                let dwell = fault.time_s - active.arrival_s;
                runtime.served_s += dwell;
                match active.placement {
                    Placement::Baseline(_) => {
                        usage.record_baseline(active.app_index, active.cores, dwell);
                    }
                    Placement::Green(_) => {
                        usage.record_green(active.app_index, active.cores, dwell);
                    }
                }
            }
        }
        // Bounded re-placement: each pass retries the still-homeless
        // VMs; a pass that places nothing ends the loop early (nothing
        // will change on the next pass either). The pass output buffer
        // swaps with the input instead of allocating per pass.
        for _ in 0..max_passes {
            if pending.is_empty() {
                break;
            }
            unplaced.clear();
            for &id in pending.iter() {
                let Some(slot) = prepared.slot_of_id(id) else {
                    // A displaced id the prepared trace cannot resolve
                    // has no request to re-place with. Keep it pending
                    // so it lands in `evacuation_failures` below — a
                    // plain `continue` once dropped it out of the
                    // accounting entirely (the no-progress check ends
                    // the retry loop, so this cannot spin).
                    unplaced.push(id);
                    continue;
                };
                let vm = prepared.vm(slot);
                match self.place(vm.id, vm.max_mem_util, &vm.request) {
                    Some(p) => {
                        summary.evacuated += 1;
                        let cores = match p {
                            Placement::Green(_) => vm.request.green_cores,
                            Placement::Baseline(_) => vm.request.baseline_cores,
                        };
                        placements[slot as usize] = Some(ActiveVm {
                            placement: p,
                            arrival_s: fault.time_s,
                            cores,
                            app_index: vm.app_index,
                        });
                    }
                    None => unplaced.push(id),
                }
            }
            let progressed = unplaced.len() < pending.len();
            std::mem::swap(pending, unplaced);
            if !progressed {
                break;
            }
        }
        // Still homeless: wait in the pending queue for capacity to
        // return (a revive drains it; departure/horizon fail it).
        for &id in pending.iter() {
            runtime.pending.insert(id, fault.time_s);
        }
    }

    /// Drains the pending queue on the prepared path after a revive, in
    /// ascending VM-id order. A single pass is complete: placements
    /// only consume capacity, so a VM that does not fit now will not
    /// fit later in the same drain. Unresolvable ids stay queued (they
    /// have no request to re-place with) and fail at the horizon.
    fn drain_pending_prepared(
        &mut self,
        now: f64,
        prepared: &PreparedTrace,
        placements: &mut [Option<ActiveVm>],
        summary: &mut FaultSummary,
        runtime: &mut FaultRuntime,
    ) {
        if runtime.pending.is_empty() {
            return;
        }
        // Reuse the scratch id buffer instead of collect()ing a fresh
        // Vec per drain; `pending` is a BTreeMap, so extend() yields
        // the same ascending-id order the collect() produced.
        let mut ids = std::mem::take(&mut self.scratch.pending_ids);
        ids.clear();
        ids.extend(runtime.pending.keys().copied());
        for &id in &ids {
            let Some(slot) = prepared.slot_of_id(id) else {
                continue;
            };
            let vm = prepared.vm(slot);
            if let Some(p) = self.place(vm.id, vm.max_mem_util, &vm.request) {
                summary.evacuated += 1;
                if let Some(since) = runtime.pending.remove(&id) {
                    summary.availability.vm_seconds_lost += now - since;
                }
                let cores = match p {
                    Placement::Green(_) => vm.request.green_cores,
                    Placement::Baseline(_) => vm.request.baseline_cores,
                };
                placements[slot as usize] =
                    Some(ActiveVm { placement: p, arrival_s: now, cores, app_index: vm.app_index });
            }
        }
        ids.clear();
        self.scratch.pending_ids = ids;
    }

    /// Applies one fault on the unprepared path; mirrors
    /// [`Self::apply_fault_prepared`] exactly.
    #[allow(clippy::too_many_arguments)]
    fn apply_fault(
        &mut self,
        fault: &FaultEvent,
        max_passes: u32,
        trace: &Trace,
        transform: &VmTransform<'_>,
        placements: &mut BTreeMap<u64, ActiveVm>,
        usage: &mut UsageLedger,
        summary: &mut FaultSummary,
        runtime: &mut FaultRuntime,
    ) {
        let mut pending = std::mem::take(&mut self.scratch.displaced);
        let mut unplaced = std::mem::take(&mut self.scratch.unplaced);
        self.apply_fault_buffered(
            fault,
            max_passes,
            trace,
            transform,
            placements,
            usage,
            summary,
            runtime,
            &mut pending,
            &mut unplaced,
        );
        pending.clear();
        unplaced.clear();
        self.scratch.displaced = pending;
        self.scratch.unplaced = unplaced;
    }

    #[allow(clippy::too_many_arguments)]
    fn apply_fault_buffered(
        &mut self,
        fault: &FaultEvent,
        max_passes: u32,
        trace: &Trace,
        transform: &VmTransform<'_>,
        placements: &mut BTreeMap<u64, ActiveVm>,
        usage: &mut UsageLedger,
        summary: &mut FaultSummary,
        runtime: &mut FaultRuntime,
        pending: &mut Vec<u64>,
        unplaced: &mut Vec<u64>,
    ) {
        if self.strike(fault, summary, pending).is_none() {
            return;
        }
        if matches!(fault.kind, FaultKind::Revive) {
            if let Some(since) = runtime.down_since.remove(&(fault.pool, fault.server)) {
                summary.availability.server_down_seconds += fault.time_s - since;
            }
            self.drain_pending(fault.time_s, trace, transform, placements, summary, runtime);
            return;
        }
        if matches!(fault.kind, FaultKind::FullFailure) {
            runtime.down_since.insert((fault.pool, fault.server), fault.time_s);
        }
        if pending.is_empty() {
            return;
        }
        summary.displaced += pending.len();
        summary.availability.max_simultaneous_displaced = summary
            .availability
            .max_simultaneous_displaced
            .max(runtime.pending.len() + pending.len());
        // Close out the displaced VMs' residency on their old server.
        for id in pending.iter() {
            if let Some(active) = placements.remove(id) {
                let dwell = fault.time_s - active.arrival_s;
                runtime.served_s += dwell;
                match active.placement {
                    Placement::Baseline(_) => {
                        usage.record_baseline(active.app_index, active.cores, dwell);
                    }
                    Placement::Green(_) => {
                        usage.record_green(active.app_index, active.cores, dwell);
                    }
                }
            }
        }
        // Bounded re-placement: each pass retries the still-homeless
        // VMs; a pass that places nothing ends the loop early (nothing
        // will change on the next pass either). The pass output buffer
        // swaps with the input instead of allocating per pass.
        for _ in 0..max_passes {
            if pending.is_empty() {
                break;
            }
            unplaced.clear();
            for &id in pending.iter() {
                let Some(vm) = trace.vm(id) else {
                    // Mirror of the prepared path: an unresolvable
                    // displaced id must still be counted as an
                    // evacuation failure, not silently dropped.
                    unplaced.push(id);
                    continue;
                };
                let request = transform(vm);
                match self.place(vm.id, vm.max_mem_util, &request) {
                    Some(p) => {
                        summary.evacuated += 1;
                        let cores = match p {
                            Placement::Green(_) => request.green_cores,
                            Placement::Baseline(_) => request.baseline_cores,
                        };
                        placements.insert(
                            id,
                            ActiveVm {
                                placement: p,
                                arrival_s: fault.time_s,
                                cores,
                                app_index: vm.app_index,
                            },
                        );
                    }
                    None => unplaced.push(id),
                }
            }
            let progressed = unplaced.len() < pending.len();
            std::mem::swap(pending, unplaced);
            if !progressed {
                break;
            }
        }
        // Still homeless: wait in the pending queue for capacity to
        // return (a revive drains it; departure/horizon fail it).
        for &id in pending.iter() {
            runtime.pending.insert(id, fault.time_s);
        }
    }

    /// Unprepared mirror of [`Self::drain_pending_prepared`].
    fn drain_pending(
        &mut self,
        now: f64,
        trace: &Trace,
        transform: &VmTransform<'_>,
        placements: &mut BTreeMap<u64, ActiveVm>,
        summary: &mut FaultSummary,
        runtime: &mut FaultRuntime,
    ) {
        if runtime.pending.is_empty() {
            return;
        }
        // Same reused id buffer as the prepared drain.
        let mut ids = std::mem::take(&mut self.scratch.pending_ids);
        ids.clear();
        ids.extend(runtime.pending.keys().copied());
        for &id in &ids {
            let Some(vm) = trace.vm(id) else {
                continue;
            };
            let request = transform(vm);
            if let Some(p) = self.place(vm.id, vm.max_mem_util, &request) {
                summary.evacuated += 1;
                if let Some(since) = runtime.pending.remove(&id) {
                    summary.availability.vm_seconds_lost += now - since;
                }
                let cores = match p {
                    Placement::Green(_) => request.green_cores,
                    Placement::Baseline(_) => request.baseline_cores,
                };
                placements.insert(
                    id,
                    ActiveVm { placement: p, arrival_s: now, cores, app_index: vm.app_index },
                );
            }
        }
        ids.clear();
        self.scratch.pending_ids = ids;
    }

    /// Removes a VM from the server it occupies, keeping that pool's
    /// index in sync.
    fn remove_placed(&mut self, placement: Placement, vm_id: u64) {
        match placement {
            Placement::Baseline(i) => {
                self.baseline[i].remove(&mut self.arena, vm_id);
                if let Some(index) = &mut self.baseline_index {
                    index.refresh(i, &self.baseline[i]);
                }
            }
            Placement::Green(i) => {
                self.green[i].remove(&mut self.arena, vm_id);
                if let Some(index) = &mut self.green_index {
                    index.refresh(i, &self.green[i]);
                }
            }
        }
    }

    fn place(
        &mut self,
        vm_id: u64,
        max_mem_util: f64,
        request: &PlacementRequest,
    ) -> Option<Placement> {
        let choose_baseline = |sim: &Self| {
            choose_in(
                sim.policy,
                &sim.baseline,
                sim.baseline_index.as_ref(),
                request.baseline_cores,
                request.baseline_mem_gb,
            )
        };
        let placement = match request.target {
            TargetPool::BaselineOnly => choose_baseline(self).map(Placement::Baseline),
            TargetPool::PreferGreen => choose_in(
                self.policy,
                &self.green,
                self.green_index.as_ref(),
                request.green_cores,
                request.green_mem_gb,
            )
            .map(Placement::Green)
            .or_else(|| choose_baseline(self).map(Placement::Baseline)),
        };
        match placement {
            Some(Placement::Baseline(i)) => {
                self.baseline[i].place(
                    &mut self.arena,
                    vm_id,
                    PlacedVm {
                        cores: request.baseline_cores,
                        mem_gb: request.baseline_mem_gb,
                        max_mem_util,
                    },
                );
                if let Some(index) = &mut self.baseline_index {
                    index.refresh(i, &self.baseline[i]);
                }
                self.high_water.baseline = self.high_water.baseline.max(i as u32 + 1);
            }
            Some(Placement::Green(i)) => {
                self.green[i].place(
                    &mut self.arena,
                    vm_id,
                    PlacedVm {
                        cores: request.green_cores,
                        mem_gb: request.green_mem_gb,
                        max_mem_util,
                    },
                );
                if let Some(index) = &mut self.green_index {
                    index.refresh(i, &self.green[i]);
                }
                self.high_water.green = self.high_water.green.max(i as u32 + 1);
            }
            None => {}
        }
        placement
    }
}

/// Selects a server for one request: through the pool's placement index
/// when one is maintained, through the linear reference scan otherwise.
///
/// Debug builds cross-check every indexed selection against
/// [`PlacementPolicy::choose_linear`] *and* re-validate the whole index
/// against the pool, so any mutation path that forgets to refresh the
/// index fails loudly in tests instead of silently diverging.
fn choose_in(
    policy: PlacementPolicy,
    servers: &[ServerState],
    index: Option<&PlacementIndex>,
    cores: u32,
    mem_gb: f64,
) -> Option<usize> {
    match index {
        Some(index) => {
            debug_assert!(index.validate(servers), "placement index out of sync with its pool");
            let chosen = index.choose(policy, servers, cores, mem_gb);
            debug_assert_eq!(
                chosen,
                policy.choose_linear(servers, cores, mem_gb),
                "indexed selection diverged from the linear reference \
                 ({policy}, cores={cores}, mem_gb={mem_gb})"
            );
            chosen
        }
        None => policy.choose_linear(servers, cores, mem_gb),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use gsf_workloads::{ServerGeneration, VmEvent};

    fn vm(id: u64, cores: u32, mem: f64, full_node: bool) -> VmSpec {
        VmSpec {
            id,
            cores,
            mem_gb: mem,
            app_index: 0,
            generation: ServerGeneration::Gen3,
            full_node,
            max_mem_util: 0.5,
            avg_cpu_util: 0.2,
        }
    }

    fn trace(vms: Vec<VmSpec>, events: Vec<VmEvent>) -> Trace {
        Trace::new(1_000_000.0, vms, events)
    }

    fn arrive(id: u64, t: f64) -> VmEvent {
        VmEvent { time_s: t, kind: VmEventKind::Arrival, vm_id: id }
    }

    fn depart(id: u64, t: f64) -> VmEvent {
        VmEvent { time_s: t, kind: VmEventKind::Departure, vm_id: id }
    }

    fn baseline_transform(vm: &VmSpec) -> PlacementRequest {
        PlacementRequest::baseline_only(vm)
    }

    #[test]
    fn places_until_full_then_rejects() {
        // One baseline server: 80 cores. Eleven 8-core VMs: ten fit.
        let vms: Vec<VmSpec> = (0..11).map(|i| vm(i, 8, 32.0, false)).collect();
        let events: Vec<VmEvent> = (0..11).map(|i| arrive(i, f64::from(i as u32))).collect();
        let mut sim = AllocationSim::new(ClusterConfig::baseline_only(1), PlacementPolicy::BestFit);
        let out = sim.replay(&trace(vms, events), &baseline_transform);
        assert_eq!(out.placed_baseline, 10);
        assert_eq!(out.rejected, 1);
    }

    #[test]
    fn departures_free_capacity() {
        let vms: Vec<VmSpec> = (0..3).map(|i| vm(i, 80, 768.0, false)).collect();
        let events =
            vec![arrive(0, 1.0), depart(0, 2.0), arrive(1, 3.0), depart(1, 4.0), arrive(2, 5.0)];
        let mut sim = AllocationSim::new(ClusterConfig::baseline_only(1), PlacementPolicy::BestFit);
        let out = sim.replay(&trace(vms, events), &baseline_transform);
        assert_eq!(out.rejected, 0);
        assert_eq!(out.placed_baseline, 3);
    }

    #[test]
    fn prefer_green_scales_and_overflows() {
        // Green pool with one 128-core server; VM factor 1.25.
        let transform = |v: &VmSpec| PlacementRequest::prefer_green(v, 1.25);
        // 12 VMs of 8 cores → 10 green cores each: 12 fit on 128? 12*10=120 ✓,
        // 13th overflows to baseline at original 8 cores.
        let vms: Vec<VmSpec> = (0..13).map(|i| vm(i, 8, 32.0, false)).collect();
        let events: Vec<VmEvent> = (0..13).map(|i| arrive(i, f64::from(i as u32))).collect();
        let mut sim = AllocationSim::new(ClusterConfig::mixed(1, 1), PlacementPolicy::BestFit);
        let out = sim.replay(&trace(vms, events), &transform);
        assert_eq!(out.placed_green, 12);
        assert_eq!(out.placed_baseline, 1);
        assert_eq!(out.green_overflow, 1);
        assert_eq!(out.rejected, 0);
    }

    #[test]
    fn full_node_vms_stay_on_baseline() {
        let transform = |v: &VmSpec| {
            if v.full_node {
                PlacementRequest::baseline_only(v)
            } else {
                PlacementRequest::prefer_green(v, 1.0)
            }
        };
        let vms = vec![vm(0, 80, 768.0, true), vm(1, 8, 32.0, false)];
        let events = vec![arrive(0, 1.0), arrive(1, 2.0)];
        let mut sim = AllocationSim::new(ClusterConfig::mixed(1, 1), PlacementPolicy::BestFit);
        let out = sim.replay(&trace(vms, events), &transform);
        assert_eq!(out.placed_baseline, 1);
        assert_eq!(out.placed_green, 1);
        assert_eq!(out.green_overflow, 0);
    }

    #[test]
    fn memory_bound_rejection() {
        // Server has 768 GB; two 400 GB VMs cannot coexist even though
        // cores would fit.
        let vms = vec![vm(0, 8, 400.0, false), vm(1, 8, 400.0, false)];
        let events = vec![arrive(0, 1.0), arrive(1, 2.0)];
        let mut sim = AllocationSim::new(ClusterConfig::baseline_only(1), PlacementPolicy::BestFit);
        let out = sim.replay(&trace(vms, events), &baseline_transform);
        assert_eq!(out.placed_baseline, 1);
        assert_eq!(out.rejected, 1);
    }

    #[test]
    fn metrics_snapshots_collected() {
        let vms: Vec<VmSpec> = (0..4).map(|i| vm(i, 8, 32.0, false)).collect();
        let events: Vec<VmEvent> =
            (0..4).map(|i| arrive(i, f64::from(i as u32) * 4000.0)).collect();
        let mut sim = AllocationSim::new(ClusterConfig::baseline_only(2), PlacementPolicy::BestFit)
            .with_snapshot_interval(3600.0);
        let out = sim.replay(&trace(vms, events), &baseline_transform);
        assert!(out.metrics.snapshots() >= 3);
        // Density on the non-empty server should be positive.
        assert!(out.metrics.baseline.mean_core_density() > 0.0);
    }

    #[test]
    fn sparse_tail_trace_keeps_snapshotting() {
        // All events land in the first interval; the horizon is ten
        // intervals out. Interim snapshots must keep firing across the
        // event-free tail: nine interim (3600..32400) plus the horizon
        // sample.
        let vms = vec![vm(0, 8, 32.0, false)];
        let events = vec![arrive(0, 10.0)];
        let t = Trace::new(36_000.0, vms, events);
        for prepared in [false, true] {
            let mut sim =
                AllocationSim::new(ClusterConfig::baseline_only(1), PlacementPolicy::BestFit)
                    .with_snapshot_interval(3600.0);
            let out = if prepared {
                sim.replay(&t, &baseline_transform)
            } else {
                sim.replay_unprepared(&t, &baseline_transform)
            };
            assert_eq!(out.metrics.snapshots(), 10);
            // The VM stays resident, so every snapshot samples it.
            assert_eq!(out.metrics.baseline.samples(), 10);
        }
    }

    #[test]
    fn snapshot_due_at_fault_time_samples_pre_fault_state() {
        // One server hosting a 40-core VM; a full failure lands exactly
        // when the first snapshot is due (t=3600). The snapshot must
        // sample the pre-fault cluster (one loaded server, density
        // 0.5), not the post-fault wreckage (offline and empty, zero
        // samples).
        let vms = vec![vm(0, 40, 32.0, false)];
        let events = vec![arrive(0, 0.0)];
        let t = Trace::new(7200.0, vms, events);
        let plan =
            FaultPlan::new(vec![full_fault(3600.0, FaultPool::Baseline, 0)], 3, 1, 0).unwrap();
        for prepared in [false, true] {
            let mut sim =
                AllocationSim::new(ClusterConfig::baseline_only(1), PlacementPolicy::BestFit)
                    .with_snapshot_interval(3600.0);
            let (out, summary) = if prepared {
                sim.replay_faulted(&t, &baseline_transform, &plan)
            } else {
                sim.replay_faulted_unprepared(&t, &baseline_transform, &plan)
            };
            assert_eq!(summary.full_failures, 1);
            // t=3600 interim + horizon sample.
            assert_eq!(out.metrics.snapshots(), 2);
            // Only the interim snapshot saw a non-empty server.
            assert_eq!(out.metrics.baseline.samples(), 1);
            assert!((out.metrics.baseline.mean_core_density() - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn horizon_settlement_is_ascending_id_bitwise() {
        // Dwell magnitudes chosen so the per-app accumulation order is
        // observable in the low bits: settling 1e16 first absorbs the
        // two 1.0s ((1e16 + 1) + 1 == 1e16), settling it last does not
        // ((1 + 1) + 1e16 == 1e16 + 2). Both engines must settle in
        // ascending VM-id order, bit-for-bit.
        let d = 1e16;
        let vms: Vec<VmSpec> = (0..3).map(|i| vm(i, 1, 4.0, false)).collect();
        let events = vec![arrive(0, 0.0), arrive(1, d - 1.0), arrive(2, d - 1.0)];
        let t = Trace::new(d, vms, events);
        let expected = (((d - 0.0) + 1.0) + 1.0) / 3600.0;
        assert_ne!(expected.to_bits(), (((1.0 + 1.0) + d) / 3600.0).to_bits());
        for prepared in [false, true] {
            // Snapshot interval = horizon, or the drain loop would walk
            // ~3e12 hourly snapshots across the 1e16 s trace.
            let mut sim =
                AllocationSim::new(ClusterConfig::baseline_only(1), PlacementPolicy::BestFit)
                    .with_snapshot_interval(d);
            let out = if prepared {
                sim.replay(&t, &baseline_transform)
            } else {
                sim.replay_unprepared(&t, &baseline_transform)
            };
            assert_eq!(out.usage.total_baseline_core_hours().to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn usage_ledger_tracks_core_hours() {
        // One VM: 8 cores for 7200 s on baseline = 16 core-hours; one
        // green-preferring VM scaled 1.25 (8 -> 10 cores) resident from
        // t=0 to the 10 000 s horizon: 10 * 10 000 / 3600 core-hours.
        let vms = vec![vm(0, 8, 32.0, false), vm(1, 8, 32.0, false)];
        let events = vec![
            arrive(0, 0.0),
            depart(0, 7200.0),
            arrive(1, 0.0),
            // VM 1 never departs within the horizon.
        ];
        let trace = Trace::new(10_000.0, vms, events);
        let transform = |v: &VmSpec| {
            if v.id == 0 {
                PlacementRequest::baseline_only(v)
            } else {
                PlacementRequest::prefer_green(v, 1.25)
            }
        };
        let mut sim = AllocationSim::new(ClusterConfig::mixed(1, 1), PlacementPolicy::BestFit);
        let out = sim.replay(&trace, &transform);
        assert!((out.usage.baseline_core_hours(0) - 16.0).abs() < 1e-9);
        assert!((out.usage.green_core_hours(0) - 10.0 * 10_000.0 / 3600.0).abs() < 1e-9);
    }

    #[test]
    fn reset_replays_like_a_fresh_simulator() {
        let vms: Vec<VmSpec> = (0..20).map(|i| vm(i, 8, 32.0, false)).collect();
        let events: Vec<VmEvent> = (0..20).map(|i| arrive(i, f64::from(i as u32))).collect();
        let t = trace(vms, events);
        let transform = |v: &VmSpec| PlacementRequest::prefer_green(v, 1.25);

        // One simulator reset across growing, shrinking, and re-shaped
        // configs must match a fresh simulator at every step.
        let mut reused = AllocationSim::new(ClusterConfig::mixed(1, 1), PlacementPolicy::BestFit);
        for config in [
            ClusterConfig::mixed(1, 1),
            ClusterConfig::mixed(3, 2),
            ClusterConfig::baseline_only(2),
            ClusterConfig::mixed(0, 2),
        ] {
            reused.reset(config);
            let out = reused.replay(&t, &transform);
            let fresh = AllocationSim::new(config, PlacementPolicy::BestFit).replay(&t, &transform);
            assert_eq!(out, fresh);
        }
    }

    #[test]
    fn high_water_marks_track_the_highest_server_opened_since_reset() {
        // 30 resident 8-core VMs at 1.25× (10 green cores): 12 fill a
        // 128-core GreenSKU, 10 fill an 80-core baseline server.
        let vms: Vec<VmSpec> = (0..30).map(|i| vm(i, 8, 32.0, false)).collect();
        let events: Vec<VmEvent> = (0..30).map(|i| arrive(i, f64::from(i as u32))).collect();
        let t = trace(vms, events);
        let transform = |v: &VmSpec| PlacementRequest::prefer_green(v, 1.25);
        let mut sim = AllocationSim::new(ClusterConfig::mixed(8, 2), PlacementPolicy::BestFit);
        assert_eq!(sim.high_water_marks(), HighWaterMarks::default());
        let wide = sim.replay(&t, &transform);
        assert_eq!(sim.high_water_marks(), HighWaterMarks { baseline: 1, green: 2 });
        sim.reset(ClusterConfig::mixed(1, 2));
        assert_eq!(sim.high_water_marks(), HighWaterMarks::default());
        // At the mark the replay repeats the wider cluster's exactly.
        let at_mark = sim.replay(&t, &transform);
        assert_eq!(at_mark.rejected, wide.rejected);
        assert_eq!(at_mark.usage, wide.usage);
        assert_eq!(sim.high_water_marks(), HighWaterMarks { baseline: 1, green: 2 });
    }

    #[test]
    fn prepared_trace_is_reusable_across_resets() {
        let vms: Vec<VmSpec> = (0..20).map(|i| vm(i, 8, 32.0, false)).collect();
        let events: Vec<VmEvent> = (0..20).map(|i| arrive(i, f64::from(i as u32))).collect();
        let t = trace(vms, events);
        let transform = |v: &VmSpec| PlacementRequest::prefer_green(v, 1.25);
        let prepared = PreparedTrace::new(&t, &transform);

        let mut sim = AllocationSim::new(ClusterConfig::mixed(1, 1), PlacementPolicy::BestFit);
        for config in [ClusterConfig::mixed(1, 1), ClusterConfig::mixed(3, 2)] {
            sim.reset(config);
            let out = sim.replay_prepared(&prepared);
            let fresh = AllocationSim::new(config, PlacementPolicy::BestFit)
                .replay_unprepared(&t, &transform);
            assert_eq!(out, fresh);
        }
    }

    fn full_fault(time_s: f64, pool: FaultPool, server: u32) -> FaultEvent {
        FaultEvent { time_s, pool, server, kind: FaultKind::FullFailure }
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_plain_replay() {
        let vms: Vec<VmSpec> = (0..30).map(|i| vm(i, 8, 32.0, false)).collect();
        let mut events: Vec<VmEvent> = (0..30).map(|i| arrive(i, f64::from(i as u32))).collect();
        events.extend((0..10).map(|i| depart(i, 500.0 + f64::from(i as u32))));
        let t = trace(vms, events);
        let transform = |v: &VmSpec| PlacementRequest::prefer_green(v, 1.25);
        let config = ClusterConfig::mixed(2, 2);

        let plain = AllocationSim::new(config, PlacementPolicy::BestFit).replay(&t, &transform);
        let (faulted, summary) = AllocationSim::new(config, PlacementPolicy::BestFit)
            .replay_faulted(&t, &transform, &FaultPlan::empty());
        assert_eq!(plain, faulted);
        assert_eq!(summary, FaultSummary::default());
    }

    #[test]
    fn prepared_matches_unprepared_under_faults() {
        let vms: Vec<VmSpec> = (0..40).map(|i| vm(i, 8, 32.0, false)).collect();
        let mut events: Vec<VmEvent> =
            (0..40).map(|i| arrive(i, f64::from(i as u32) * 10.0)).collect();
        events.extend((0..15).map(|i| depart(i, 1000.0 + f64::from(i as u32))));
        let t = trace(vms, events);
        let transform = |v: &VmSpec| PlacementRequest::prefer_green(v, 1.25);
        let plan = FaultPlan::new(
            vec![
                full_fault(100.0, FaultPool::Green, 0),
                FaultEvent {
                    time_s: 200.0,
                    pool: FaultPool::Baseline,
                    server: 1,
                    kind: FaultKind::PartialDegrade { cores_lost: 40, mem_lost_gb: 384.0 },
                },
            ],
            3,
            3,
            2,
        )
        .unwrap();
        let config = ClusterConfig::mixed(3, 2);
        let (a_out, a_sum) = AllocationSim::new(config, PlacementPolicy::BestFit)
            .replay_faulted(&t, &transform, &plan);
        let (b_out, b_sum) = AllocationSim::new(config, PlacementPolicy::BestFit)
            .replay_faulted_unprepared(&t, &transform, &plan);
        assert_eq!(a_out, b_out);
        assert_eq!(a_sum, b_sum);
    }

    #[test]
    fn full_failure_evacuates_to_surviving_servers() {
        // Two baseline servers, four 8-core VMs. Server 0 fails at
        // t=10: its VMs must move to server 1.
        let vms: Vec<VmSpec> = (0..4).map(|i| vm(i, 8, 32.0, false)).collect();
        let events: Vec<VmEvent> = (0..4).map(|i| arrive(i, f64::from(i as u32))).collect();
        let t = trace(vms, events);
        let plan = FaultPlan::new(vec![full_fault(10.0, FaultPool::Baseline, 0)], 3, 2, 0).unwrap();
        let mut sim = AllocationSim::new(ClusterConfig::baseline_only(2), PlacementPolicy::BestFit);
        let (out, summary) = sim.replay_faulted(&t, &baseline_transform, &plan);
        assert_eq!(out.rejected, 0);
        assert_eq!(summary.full_failures, 1);
        assert!(summary.displaced > 0);
        assert_eq!(summary.evacuated, summary.displaced);
        assert_eq!(summary.evacuation_failures, 0);
        assert_eq!(summary.cores_lost, 80);
    }

    #[test]
    fn evacuation_fails_and_terminates_on_saturated_cluster() {
        // One server, fully packed. It fails: nowhere to evacuate. The
        // retry loop must terminate and count every VM as a failure.
        let vms: Vec<VmSpec> = (0..10).map(|i| vm(i, 8, 32.0, false)).collect();
        let events: Vec<VmEvent> = (0..10).map(|i| arrive(i, f64::from(i as u32))).collect();
        let t = trace(vms, events);
        let plan =
            FaultPlan::new(vec![full_fault(100.0, FaultPool::Baseline, 0)], 1000, 1, 0).unwrap();
        let mut sim = AllocationSim::new(ClusterConfig::baseline_only(1), PlacementPolicy::BestFit);
        let (out, summary) = sim.replay_faulted(&t, &baseline_transform, &plan);
        assert_eq!(summary.displaced, 10);
        assert_eq!(summary.evacuated, 0);
        assert_eq!(summary.evacuation_failures, 10);
        assert!(!summary.all_evacuated());
        // Arrival placements happened before the fault.
        assert_eq!(out.placed_baseline, 10);
    }

    #[test]
    fn partial_degrade_displaces_only_what_no_longer_fits() {
        // One server (80 cores) with five 8-core VMs (40 allocated).
        // Losing 48 cores leaves 32: exactly one VM (the newest) must
        // be displaced, and with no second server it fails evacuation.
        let vms: Vec<VmSpec> = (0..5).map(|i| vm(i, 8, 32.0, false)).collect();
        let events: Vec<VmEvent> = (0..5).map(|i| arrive(i, f64::from(i as u32))).collect();
        let t = trace(vms, events);
        let plan = FaultPlan::new(
            vec![FaultEvent {
                time_s: 50.0,
                pool: FaultPool::Baseline,
                server: 0,
                kind: FaultKind::PartialDegrade { cores_lost: 48, mem_lost_gb: 0.0 },
            }],
            3,
            1,
            0,
        )
        .unwrap();
        let mut sim = AllocationSim::new(ClusterConfig::baseline_only(1), PlacementPolicy::BestFit);
        let (_, summary) = sim.replay_faulted(&t, &baseline_transform, &plan);
        assert_eq!(summary.partial_degrades, 1);
        assert_eq!(summary.displaced, 1);
        assert_eq!(summary.evacuation_failures, 1);
        assert_eq!(summary.cores_lost, 48);
    }

    #[test]
    fn faulted_replay_is_deterministic() {
        let vms: Vec<VmSpec> = (0..40).map(|i| vm(i, 8, 32.0, false)).collect();
        let events: Vec<VmEvent> = (0..40).map(|i| arrive(i, f64::from(i as u32) * 10.0)).collect();
        let t = trace(vms, events);
        let transform = |v: &VmSpec| PlacementRequest::prefer_green(v, 1.25);
        let plan = FaultPlan::new(
            vec![
                full_fault(100.0, FaultPool::Green, 0),
                FaultEvent {
                    time_s: 200.0,
                    pool: FaultPool::Baseline,
                    server: 1,
                    kind: FaultKind::PartialDegrade { cores_lost: 40, mem_lost_gb: 384.0 },
                },
            ],
            3,
            3,
            2,
        )
        .unwrap();
        let config = ClusterConfig::mixed(3, 2);
        let run = || {
            AllocationSim::new(config, PlacementPolicy::BestFit)
                .replay_faulted(&t, &transform, &plan)
        };
        let (a_out, a_sum) = run();
        let (b_out, b_sum) = run();
        assert_eq!(a_out, b_out);
        assert_eq!(a_sum, b_sum);
    }

    #[test]
    fn fault_on_missing_server_index_is_ignored() {
        let vms = vec![vm(0, 8, 32.0, false)];
        let events = vec![arrive(0, 1.0)];
        let t = trace(vms, events);
        // The plan is valid for an 8-server pool, but the replayed
        // cluster has only one server: the strike lands on nothing.
        let plan = FaultPlan::new(vec![full_fault(5.0, FaultPool::Baseline, 7)], 3, 8, 0).unwrap();
        let mut sim = AllocationSim::new(ClusterConfig::baseline_only(1), PlacementPolicy::BestFit);
        let (out, summary) = sim.replay_faulted(&t, &baseline_transform, &plan);
        assert_eq!(summary, FaultSummary::default());
        assert_eq!(out.rejected, 0);
    }

    #[test]
    fn double_fault_on_same_server_applies_once() {
        let vms: Vec<VmSpec> = (0..4).map(|i| vm(i, 8, 32.0, false)).collect();
        let events: Vec<VmEvent> = (0..4).map(|i| arrive(i, f64::from(i as u32))).collect();
        let t = trace(vms, events);
        let plan = FaultPlan::new(
            vec![
                full_fault(10.0, FaultPool::Baseline, 0),
                full_fault(20.0, FaultPool::Baseline, 0),
            ],
            3,
            2,
            0,
        )
        .unwrap();
        let mut sim = AllocationSim::new(ClusterConfig::baseline_only(2), PlacementPolicy::BestFit);
        let (_, summary) = sim.replay_faulted(&t, &baseline_transform, &plan);
        assert_eq!(summary.full_failures, 1);
    }

    #[test]
    fn evacuated_vm_usage_splits_across_servers() {
        // One VM (8 cores) arrives at t=0 on server 0, which fails at
        // t=3600; the VM moves to server 1 until the 7200 s horizon.
        // Usage must total 8 cores × 2 h regardless of the move.
        let vms = vec![vm(0, 8, 32.0, false)];
        let events = vec![arrive(0, 0.0)];
        let t = Trace::new(7200.0, vms, events);
        let plan =
            FaultPlan::new(vec![full_fault(3600.0, FaultPool::Baseline, 0)], 3, 2, 0).unwrap();
        let mut sim = AllocationSim::new(ClusterConfig::baseline_only(2), PlacementPolicy::BestFit);
        let (out, summary) = sim.replay_faulted(&t, &baseline_transform, &plan);
        assert_eq!(summary.evacuated, 1);
        assert!((out.usage.baseline_core_hours(0) - 16.0).abs() < 1e-9);
    }

    #[test]
    fn displaced_vm_unknown_to_the_trace_counts_as_evacuation_failure() {
        // Replay a first trace without resetting, leaving VM 100
        // resident, then replay a *different* trace whose fault strikes
        // its server. The displaced id resolves through neither the new
        // prepared trace nor the new raw trace, so it can never be
        // re-placed — it must still be counted as an evacuation
        // failure. (It used to be `continue`d out of the retry pass and
        // vanish from the accounting entirely.)
        let stale = trace(vec![vm(100, 8, 32.0, false)], vec![arrive(100, 0.0)]);
        let fresh = trace(vec![vm(0, 4, 16.0, false)], vec![arrive(0, 5.0)]);
        let plan = FaultPlan::new(vec![full_fault(1.0, FaultPool::Baseline, 0)], 3, 1, 0).unwrap();

        let mut sim = AllocationSim::new(ClusterConfig::baseline_only(1), PlacementPolicy::BestFit);
        sim.replay(&stale, &baseline_transform);
        let prepared = PreparedTrace::new(&fresh, &baseline_transform);
        let (_, summary) = sim.replay_prepared_faulted(&prepared, &plan);
        assert_eq!(summary.displaced, 1);
        assert_eq!(summary.evacuated, 0);
        assert_eq!(
            summary.evacuation_failures, 1,
            "a displaced id missing from the prepared trace must still be accounted"
        );

        // The unprepared mirror has the same accounting duty.
        let mut sim = AllocationSim::new(ClusterConfig::baseline_only(1), PlacementPolicy::BestFit);
        sim.replay(&stale, &baseline_transform);
        let (_, summary) = sim.replay_faulted_unprepared(&fresh, &baseline_transform, &plan);
        assert_eq!((summary.displaced, summary.evacuation_failures), (1, 1));
    }

    fn revive(time_s: f64, pool: FaultPool, server: u32) -> FaultEvent {
        FaultEvent { time_s, pool, server, kind: FaultKind::Revive }
    }

    #[test]
    fn revive_restores_capacity_and_drains_pending_queue() {
        // One server fully packed with ten 8-core VMs fails at t=100
        // with nowhere to evacuate; a repair at t=200 brings it back
        // and every waiting VM re-places on it.
        let vms: Vec<VmSpec> = (0..10).map(|i| vm(i, 8, 32.0, false)).collect();
        let events: Vec<VmEvent> = (0..10).map(|i| arrive(i, f64::from(i as u32))).collect();
        let t = trace(vms, events);
        let plan = FaultPlan::new(
            vec![full_fault(100.0, FaultPool::Baseline, 0), revive(200.0, FaultPool::Baseline, 0)],
            3,
            1,
            0,
        )
        .unwrap();
        let run = |unprepared: bool| {
            let mut sim =
                AllocationSim::new(ClusterConfig::baseline_only(1), PlacementPolicy::BestFit);
            if unprepared {
                sim.replay_faulted_unprepared(&t, &baseline_transform, &plan)
            } else {
                sim.replay_faulted(&t, &baseline_transform, &plan)
            }
        };
        let (p_out, p_sum) = run(false);
        let (u_out, u_sum) = run(true);
        assert_eq!(p_out, u_out);
        assert_eq!(p_sum, u_sum);

        assert_eq!(p_sum.full_failures, 1);
        assert_eq!(p_sum.revivals, 1);
        assert_eq!(p_sum.displaced, 10);
        assert_eq!(p_sum.evacuated, 10);
        assert_eq!(p_sum.evacuation_failures, 0);
        assert!(p_sum.all_evacuated());
        // Each VM waited exactly 100 s in the queue.
        assert!((p_sum.availability.vm_seconds_lost - 10.0 * 100.0).abs() < 1e-9);
        assert!((p_sum.availability.server_down_seconds - 100.0).abs() < 1e-9);
        assert_eq!(p_sum.availability.max_simultaneous_displaced, 10);
        assert_eq!(p_sum.availability.blast_radius_servers, 1);
        assert!(p_sum.availability.vm_seconds_served > 0.0);
        assert!(p_sum.availability.availability() < 1.0);
        // Usage keeps flowing after the re-placement: ten 8-core VMs
        // resident to the 1 000 000 s horizon dominate the total.
        assert!(p_out.usage.baseline_core_hours(0) > 10.0 * 8.0 * 900_000.0 / 3600.0);
    }

    #[test]
    fn revive_on_online_server_is_noop() {
        let vms: Vec<VmSpec> = (0..4).map(|i| vm(i, 8, 32.0, false)).collect();
        let events: Vec<VmEvent> = (0..4).map(|i| arrive(i, f64::from(i as u32))).collect();
        let t = trace(vms, events);
        let plan = FaultPlan::new(vec![revive(50.0, FaultPool::Baseline, 0)], 3, 2, 0).unwrap();
        let plain = AllocationSim::new(ClusterConfig::baseline_only(2), PlacementPolicy::BestFit)
            .replay(&t, &baseline_transform);
        let (out, summary) =
            AllocationSim::new(ClusterConfig::baseline_only(2), PlacementPolicy::BestFit)
                .replay_faulted(&t, &baseline_transform, &plan);
        assert_eq!(summary, FaultSummary::default());
        assert_eq!(out, plain);
    }

    #[test]
    fn pending_vm_departure_is_an_evacuation_failure() {
        // The VM is displaced into a saturated fleet at t=10 and
        // departs at t=50 still homeless: 40 s of downtime, one
        // failure, in both engines.
        let vms = vec![vm(0, 8, 32.0, false)];
        let events = vec![arrive(0, 0.0), depart(0, 50.0)];
        let t = trace(vms, events);
        let plan = FaultPlan::new(vec![full_fault(10.0, FaultPool::Baseline, 0)], 3, 1, 0).unwrap();
        for unprepared in [false, true] {
            let mut sim =
                AllocationSim::new(ClusterConfig::baseline_only(1), PlacementPolicy::BestFit);
            let (_, summary) = if unprepared {
                sim.replay_faulted_unprepared(&t, &baseline_transform, &plan)
            } else {
                sim.replay_faulted(&t, &baseline_transform, &plan)
            };
            assert_eq!(summary.displaced, 1);
            assert_eq!(summary.evacuated, 0);
            assert_eq!(summary.evacuation_failures, 1);
            assert!((summary.availability.vm_seconds_lost - 40.0).abs() < 1e-9);
        }
    }

    #[test]
    fn rejected_vm_departure_is_noop() {
        let vms = vec![vm(0, 200, 32.0, false)]; // cannot fit anywhere
        let events = vec![arrive(0, 1.0), depart(0, 2.0)];
        let mut sim = AllocationSim::new(ClusterConfig::baseline_only(1), PlacementPolicy::BestFit);
        let out = sim.replay(&trace(vms, events), &baseline_transform);
        assert_eq!(out.rejected, 1);
        assert_eq!(out.placed_baseline, 0);
    }

    #[test]
    fn pending_drain_retries_in_ascending_id_order() {
        // Regression for the reused drain buffer: the pending queue must
        // still be retried in ascending VM-id order. Both 80-core
        // servers fill up and fail, queueing four VMs (20+40+40+60
        // cores); reviving only server 0 restores 80 cores, so the
        // drain re-places exactly the two *lowest ids* (1: 20c, 2: 40c)
        // and leaves 4 and 9 as evacuation failures.
        let mut vms = vec![
            vm(9, 60, 240.0, false), // t=1 → server 0
            vm(4, 40, 160.0, false), // t=2 → server 1 (20 free on 0)
            vm(1, 20, 80.0, false),  // t=3 → server 0 (tightest fit), now full
            vm(2, 40, 160.0, false), // t=4 → server 1, now full
        ];
        for (i, v) in vms.iter_mut().enumerate() {
            v.app_index = u16::try_from(i).unwrap(); // 0:id9, 1:id4, 2:id1, 3:id2
        }
        let events = vec![arrive(9, 1.0), arrive(4, 2.0), arrive(1, 3.0), arrive(2, 4.0)];
        let t = trace(vms, events);
        let plan = FaultPlan::new(
            vec![
                full_fault(10.0, FaultPool::Baseline, 0),
                full_fault(11.0, FaultPool::Baseline, 1),
                revive(100.0, FaultPool::Baseline, 0),
            ],
            3,
            2,
            0,
        )
        .unwrap();
        for unprepared in [false, true] {
            let mut sim =
                AllocationSim::new(ClusterConfig::baseline_only(2), PlacementPolicy::BestFit);
            let (out, summary) = if unprepared {
                sim.replay_faulted_unprepared(&t, &baseline_transform, &plan)
            } else {
                sim.replay_faulted(&t, &baseline_transform, &plan)
            };
            assert_eq!(summary.displaced, 4);
            assert_eq!(summary.evacuated, 2);
            assert_eq!(summary.evacuation_failures, 2);
            // Ids 1 (app 2) and 2 (app 3) won the drain and served to
            // the horizon; ids 9 (app 0) and 4 (app 1) only banked
            // their pre-fault dwell.
            assert!(out.usage.baseline_core_hours(2) > 1_000.0);
            assert!(out.usage.baseline_core_hours(3) > 1_000.0);
            assert!(out.usage.baseline_core_hours(0) < 1.0);
            assert!(out.usage.baseline_core_hours(1) < 1.0);
            assert!(sim.storage_consistent());
        }
    }

    #[test]
    fn arena_storage_stays_consistent_across_faulted_replays_and_reset() {
        let vms: Vec<VmSpec> = (0..12).map(|i| vm(i, 8, 32.0, false)).collect();
        let mut events: Vec<VmEvent> = (0..12).map(|i| arrive(i, f64::from(i as u32))).collect();
        events.push(depart(3, 500.0));
        events.push(depart(7, 600.0));
        let t = trace(vms, events);
        let plan = FaultPlan::new(
            vec![
                full_fault(100.0, FaultPool::Baseline, 0),
                FaultEvent {
                    time_s: 200.0,
                    pool: FaultPool::Baseline,
                    server: 1,
                    kind: FaultKind::PartialDegrade { cores_lost: 48, mem_lost_gb: 256.0 },
                },
                revive(700.0, FaultPool::Baseline, 0),
            ],
            3,
            3,
            0,
        )
        .unwrap();
        let config = ClusterConfig::baseline_only(3);
        let mut sim = AllocationSim::new(config, PlacementPolicy::BestFit);
        let (first, _) = sim.replay_faulted(&t, &baseline_transform, &plan);
        assert!(sim.storage_consistent());
        sim.reset(config);
        assert!(sim.storage_consistent());
        let (second, _) = sim.replay_faulted(&t, &baseline_transform, &plan);
        assert!(sim.storage_consistent());
        assert_eq!(first, second);
    }
}
