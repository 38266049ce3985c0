//! The allocation simulator: replays a trace against a two-pool cluster.
//!
//! [`AllocationSim::replay_prepared_faulted`] is the one run method. It
//! consumes a [`PreparedTrace`], whose events carry dense VM slots and
//! precomputed [`PlacementRequest`]s, so a sizing search replays the
//! same plan across every probe without re-resolving anything. Callers
//! build the plan once per (trace, transform) pair; the empty
//! [`FaultPlan`] gives the fault-free replay.
//!
//! Every placement selects its server through a [`PlacementIndex`] per
//! pool, maintained incrementally across
//! `place`/`remove`/`fail`/`degrade`/`reset`. Debug builds cross-check
//! each selection against the O(N) [`PlacementPolicy::choose_linear`]
//! scan. The differential harness in `gsf-cluster` (a `ci.sh` gate)
//! pins the whole replay bit for bit to a reference simulator that
//! resolves each event on the spot and selects by that scan.
//!
//! The code is cut like that reference: every server mutation goes
//! through a private `Pool`, which keeps its index in step, and a
//! private `Run` holds one replay's state and applies each event and
//! fault to the two pools.
//!
//! [`AllocationSim::run_feasibility`] is the sizing searches' cheaper
//! cousin of a replay: fault-free, it keeps no metrics or usage, resumes
//! from any event the simulator's state stands at, reads the GreenSKUs
//! from a [`GreenLimit`] up as absent, and returns at the first
//! rejection.
//! It places and departs through the same selection and residency code
//! as `Run`. With [`Clone::clone_from`], which copies one simulator's
//! state into another's buffers, it lets a GreenSKU probe fork from a
//! larger replay at the event where the two part (DESIGN.md §15).

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
use gsf_workloads::{VmEventKind, VmSpec};
use std::collections::BTreeMap;

/// Which pool(s) a VM may be placed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// Book-keeping for a currently placed VM: where it lives and since
/// when. What it is charged, its app and its cores on that pool, is in
/// its prepared request, so an entry of the residency table takes 16
/// bytes.
#[derive(Debug, Clone, Copy)]
struct Resident {
    pool: FaultPool,
    server: u32,
    since_s: f64,
}

/// Result of replaying a trace.
#[derive(Debug, Clone, PartialEq)]
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

/// What [`AllocationSim::run_feasibility`] does with the GreenSKUs from
/// index `count` up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GreenLimit {
    /// Reads a choice of one of them as "no GreenSKU fits", so the VM
    /// tries the baseline pool. While they are pristine, no server below
    /// `count` fits when the policy picks one of them (DESIGN.md §15),
    /// and the run never touches them: it is the replay on the pool's
    /// first `count` GreenSKUs.
    Overflow(u32),
    /// Stops just before the first arrival that would open one of them,
    /// leaving the whole pool's replay up to that event: a fork point
    /// for a run with `Overflow(count)`.
    Stop(u32),
}

/// Where an [`AllocationSim::run_feasibility`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunEnd {
    /// Every remaining event was placed or departed.
    Hosted,
    /// The arrival at this event index found no server.
    Rejected(usize),
    /// [`GreenLimit::Stop`]: the arrival at this event index would open
    /// a GreenSKU at or above the limit; the simulator holds the state
    /// before it.
    Stopped(usize),
}

/// The allocation simulator.
///
/// [`Clone::clone_from`] copies a simulator's whole state into another
/// one's buffers: pools with their occupancy lists, placement indexes and
/// marks, the arena, and the residency table. Once the target has held a
/// state as large, the copy allocates nothing.
#[derive(Debug)]
pub struct AllocationSim {
    baseline: Pool,
    green: Pool,
    policy: PlacementPolicy,
    snapshot_interval_s: f64,
    /// Cluster-wide slot storage for every placed VM; servers hold
    /// occupancy lists of arena slots (see [`crate::arena`]).
    arena: VmArena,
    /// The residency table, indexed by trace slot, and the
    /// displaced-id buffer, kept between replays so the steady-state
    /// event loop performs no heap allocation. A replay re-initialises
    /// the table and a feasibility run resumes it; a strike takes the
    /// buffer for as long as it needs it, then clears it and puts it
    /// back, which preserves its capacity.
    residents: Vec<Option<Resident>>,
    displaced: Vec<u64>,
}

impl Clone for AllocationSim {
    fn clone(&self) -> Self {
        let mut sim = Self::new(ClusterConfig::baseline_only(0), self.policy);
        sim.clone_from(self);
        sim
    }

    /// Reuses every buffer of `self` (see [`AllocationSim`]).
    fn clone_from(&mut self, source: &Self) {
        // The displaced-id buffer is scratch, empty between events.
        let Self { baseline, green, policy, snapshot_interval_s, arena, residents, displaced: _ } =
            source;
        self.baseline.clone_from(baseline);
        self.green.clone_from(green);
        self.policy = *policy;
        self.snapshot_interval_s = *snapshot_interval_s;
        self.arena.clone_from(arena);
        self.residents.clone_from(residents);
    }
}

impl AllocationSim {
    /// Creates a simulator for `config` with the given policy, selecting
    /// servers through the placement index.
    pub fn new(config: ClusterConfig, policy: PlacementPolicy) -> Self {
        Self {
            baseline: Pool::new(config.baseline_count, config.baseline_shape),
            green: Pool::new(config.green_count, config.green_shape),
            policy,
            snapshot_interval_s: 3600.0,
            arena: VmArena::new(),
            residents: Vec::new(),
            displaced: Vec::new(),
        }
    }

    /// Whether every server's occupancy list agrees with the arena:
    /// lists sorted ascending by VM id, per-server aggregates matching
    /// a fresh fold over the slots, and the total occupancy equal to
    /// the arena's live-slot count. The proptest invariant suite calls
    /// this after random place/remove/fail/degrade/reset sequences.
    pub fn storage_consistent(&self) -> bool {
        let servers = || self.baseline.servers.iter().chain(&self.green.servers);
        servers().map(ServerState::vm_count).sum::<usize>() == self.arena.live()
            && servers().all(|s| s.storage_consistent(&self.arena))
    }

    /// Overrides the metrics snapshot interval (default hourly).
    pub fn with_snapshot_interval(mut self, seconds: f64) -> Self {
        self.snapshot_interval_s = seconds.max(1.0);
        self
    }

    /// The per-pool placement high-water marks since the last
    /// [`Self::reset`] (or construction).
    pub fn high_water_marks(&self) -> HighWaterMarks {
        HighWaterMarks { baseline: self.baseline.high_water, green: self.green.high_water }
    }

    /// Re-shapes the cluster to `config` and empties every server,
    /// reusing the pool vectors, the occupancy lists, the VM arena's
    /// columns, and the replay scratch buffers. A reset
    /// simulator replays exactly like a freshly constructed one; the
    /// sizing searches call this between feasibility probes instead of
    /// rebuilding the simulator.
    pub fn reset(&mut self, config: ClusterConfig) {
        self.baseline.reset(config.baseline_count, config.baseline_shape);
        self.green.reset(config.green_count, config.green_shape);
        self.arena.reset();
    }

    /// Kept for the `benchmark/` package, which calls it: forwards to
    /// [`Self::replay_prepared_faulted`] with the empty fault plan.
    pub fn replay_prepared(&mut self, prepared: &PreparedTrace) -> SimOutcome {
        self.replay_prepared_faulted(prepared, &FaultPlan::empty()).0
    }

    /// Replays a prepared plan while injecting the failures scheduled
    /// in `plan`; the empty plan gives the fault-free replay.
    ///
    /// Rejected VMs are counted and dropped (their later departure is a
    /// no-op); the cluster-sizing search treats any rejection as "this
    /// cluster is too small". The simulator is left holding the
    /// end-of-trace allocation state; call [`Self::reset`] before
    /// replaying again.
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
    /// [`crate::AvailabilitySummary::vm_seconds_lost`]. The empty plan
    /// returns the default `FaultSummary`, and a revive-free plan leaves
    /// every displaced-but-unplaceable VM failing exactly as before (only
    /// the time at which the failure is counted moves from the fault to
    /// the departure/horizon).
    pub fn replay_prepared_faulted(
        &mut self,
        prepared: &PreparedTrace,
        plan: &FaultPlan,
    ) -> (SimOutcome, FaultSummary) {
        let (outcome, summary) = self.replay_prepared_events(prepared, prepared.events(), plan);
        (outcome, with_blast_radius(summary, plan))
    }

    /// A faulted feasibility run: the replay of
    /// [`Self::replay_prepared_faulted`], returning `None` at the first
    /// rejected arrival. A rejection makes a cluster infeasible whatever
    /// its fault summary says, so the sizing searches need no more of
    /// that replay. A run that rejects nothing returns the replay's
    /// fault summary. Call [`Self::reset`] before running again.
    ///
    /// It shares the replay's strike, evacuation and retry code but has
    /// its own event loop, so the replay's loop carries no check for the
    /// early return.
    pub fn run_faulted_feasibility(
        &mut self,
        prepared: &PreparedTrace,
        plan: &FaultPlan,
    ) -> Option<FaultSummary> {
        let mut run = Run::new(self, prepared, plan);
        for event in prepared.events() {
            run.advance(event.time_s);
            match event.kind {
                VmEventKind::Arrival => {
                    run.place(event.slot, event.time_s)?;
                }
                VmEventKind::Departure => run.depart(event.slot, event.time_s),
            }
        }
        run.advance(prepared.duration_s());
        Some(with_blast_radius(run.finish().1, plan))
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
        let mut run = Run::new(self, prepared, plan);
        for event in events {
            run.advance(event.time_s);
            match event.kind {
                VmEventKind::Arrival => run.arrive(event.slot, event.time_s),
                VmEventKind::Departure => run.depart(event.slot, event.time_s),
            }
        }
        // Faults past the last trace event but within the horizon still
        // strike (their evacuation failures count), and interim
        // snapshots run to the horizon even when the trace tail is
        // event-free.
        run.advance(prepared.duration_s());
        run.finish()
    }

    /// A fault-free feasibility run over `prepared`'s events from index
    /// `from` on, continuing from the simulator's current state. It
    /// places and departs VMs as a replay does, under `limit`, but keeps
    /// no metrics, usage or served time, and returns at the first
    /// rejection.
    ///
    /// `from == 0` starts a replay on a reset simulator. A later `from`
    /// resumes the state at that event of the same trace: one an earlier
    /// run stopped at ([`RunEnd::Stopped`]), or a copy of it
    /// ([`Clone::clone_from`]).
    pub fn run_feasibility(
        &mut self,
        prepared: &PreparedTrace,
        from: usize,
        limit: GreenLimit,
    ) -> RunEnd {
        if from == 0 {
            self.residents.clear();
            self.residents.resize(prepared.vm_count(), None);
        }
        let (count, stop) = match limit {
            GreenLimit::Overflow(count) => (count as usize, false),
            GreenLimit::Stop(count) => (count as usize, true),
        };
        for (i, event) in prepared.events().iter().enumerate().skip(from) {
            match event.kind {
                VmEventKind::Arrival => {
                    let green = match self.choose_green(&prepared.vm(event.slot).request) {
                        Some(server) if server >= count => {
                            if stop {
                                return RunEnd::Stopped(i);
                            }
                            None
                        }
                        green => green,
                    };
                    if self.place(prepared, event.slot, green, event.time_s).is_none() {
                        return RunEnd::Rejected(i);
                    }
                }
                VmEventKind::Departure => {
                    self.vacate(prepared, event.slot);
                }
            }
        }
        RunEnd::Hosted
    }

    /// The GreenSKU the policy picks for `request`, if it prefers one.
    fn choose_green(&self, request: &PlacementRequest) -> Option<usize> {
        match request.target {
            TargetPool::PreferGreen => {
                self.green.choose(self.policy, request.green_cores, request.green_mem_gb)
            }
            TargetPool::BaselineOnly => None,
        }
    }

    /// Places the VM in `slot` on GreenSKU `green` when there is one,
    /// else on the baseline server the policy picks, and makes it
    /// resident from `now`. `None` when no baseline server fits either.
    fn place(
        &mut self,
        prepared: &PreparedTrace,
        slot: u32,
        green: Option<usize>,
        now: f64,
    ) -> Option<FaultPool> {
        let vm = prepared.vm(slot);
        let r = &vm.request;
        let (which, server, cores, mem_gb) = match green {
            Some(i) => (FaultPool::Green, i, r.green_cores, r.green_mem_gb),
            None => {
                let i = self.baseline.choose(self.policy, r.baseline_cores, r.baseline_mem_gb)?;
                (FaultPool::Baseline, i, r.baseline_cores, r.baseline_mem_gb)
            }
        };
        let (pool, arena) = self.pool(which);
        pool.place(arena, server, vm.id, PlacedVm { cores, mem_gb, max_mem_util: vm.max_mem_util });
        self.residents[slot as usize] =
            Some(Resident { pool: which, server: server as u32, since_s: now });
        Some(which)
    }

    /// Ends the residency of the VM in `slot`, if it has one, and frees
    /// its server.
    fn vacate(&mut self, prepared: &PreparedTrace, slot: u32) -> Option<Resident> {
        let resident = self.residents[slot as usize].take()?;
        let (pool, arena) = self.pool(resident.pool);
        pool.remove(arena, resident.server as usize, prepared.vm(slot).id);
        Some(resident)
    }

    /// The pool `which` names, with the arena its servers store VMs in.
    fn pool(&mut self, which: FaultPool) -> (&mut Pool, &mut VmArena) {
        match which {
            FaultPool::Baseline => (&mut self.baseline, &mut self.arena),
            FaultPool::Green => (&mut self.green, &mut self.arena),
        }
    }
}

/// `summary` of a whole-trace replay under `plan`, with the blast radius
/// of the plan when any fault struck.
fn with_blast_radius(mut summary: FaultSummary, plan: &FaultPlan) -> FaultSummary {
    if summary.faults_applied() {
        summary.availability.blast_radius_servers = plan.max_correlated_strikes();
    }
    summary
}

/// One server pool: its servers, their free-capacity index, the
/// pristine shape, and the placement high-water mark. Every server
/// mutation goes through a method here, and each one refreshes the
/// mutated server's index entry.
#[derive(Debug)]
struct Pool {
    servers: Vec<ServerState>,
    /// Free-capacity index over `servers`.
    index: PlacementIndex,
    /// Pristine shape, kept so a [`FaultKind::Revive`] can restore a
    /// repaired server to its original capacity even after a degrade
    /// took it offline-adjacent.
    shape: ServerShape,
    /// One past the highest server index any placement chose since the
    /// last reset; read by [`AllocationSim::high_water_marks`], never
    /// part of a [`SimOutcome`].
    high_water: u32,
}

impl Clone for Pool {
    fn clone(&self) -> Self {
        Self { servers: self.servers.clone(), index: self.index.clone(), ..*self }
    }

    fn clone_from(&mut self, source: &Self) {
        let Self { servers, index, shape, high_water } = source;
        self.servers.clone_from(servers);
        self.index.clone_from(index);
        self.shape = *shape;
        self.high_water = *high_water;
    }
}

impl Pool {
    fn new(count: u32, shape: ServerShape) -> Self {
        let index = PlacementIndex::new(&[]);
        let mut pool = Self { servers: Vec::new(), index, shape, high_water: 0 };
        pool.reset(count, shape);
        pool
    }

    /// Re-shapes the pool to `count` empty servers of `shape`, reusing
    /// the server vector and occupancy lists, and rebuilds the index.
    fn reset(&mut self, count: u32, shape: ServerShape) {
        let count = count as usize;
        self.servers.truncate(count);
        for server in &mut self.servers {
            server.reset(shape);
        }
        self.servers.resize(count, ServerState::new(shape));
        self.shape = shape;
        self.high_water = 0;
        self.index.rebuild(&self.servers);
    }

    /// Selects a server for one request through the placement index.
    ///
    /// Debug builds cross-check every selection against
    /// [`PlacementPolicy::choose_linear`] *and* re-validate the whole
    /// index against the pool, so any mutation path that forgets to
    /// refresh the index fails loudly in tests instead of silently
    /// diverging.
    fn choose(&self, policy: PlacementPolicy, cores: u32, mem_gb: f64) -> Option<usize> {
        debug_assert!(
            self.index.validate(&self.servers),
            "placement index out of sync with its pool"
        );
        let chosen = self.index.choose(policy, &self.servers, cores, mem_gb);
        debug_assert_eq!(
            chosen,
            policy.choose_linear(&self.servers, cores, mem_gb),
            "indexed selection diverged from the linear reference \
             ({policy}, cores={cores}, mem_gb={mem_gb})"
        );
        chosen
    }

    /// Places VM `vm_id` on server `i` and raises the high-water mark.
    fn place(&mut self, arena: &mut VmArena, i: usize, vm_id: u64, vm: PlacedVm) {
        self.servers[i].place(arena, vm_id, vm);
        self.index.refresh(i, &self.servers[i]);
        self.high_water = self.high_water.max(i as u32 + 1);
    }

    /// Removes VM `vm_id` from server `i`.
    fn remove(&mut self, arena: &mut VmArena, i: usize, vm_id: u64) {
        self.servers[i].remove(arena, vm_id);
        self.index.refresh(i, &self.servers[i]);
    }

    /// Applies the capacity change of one fault to the struck server
    /// and updates the loss accounting. Appends the displaced VM ids to
    /// `displaced` in ascending order (none for a revive) and returns
    /// `true`, or returns `false` when the fault strikes nothing: the
    /// plan addresses a server this pool does not have, a failure lands
    /// on a server already offline, or a revive lands on a server that
    /// is not offline (it may have been repaired by an earlier
    /// rack-level revive already).
    fn strike(
        &mut self,
        arena: &mut VmArena,
        fault: &FaultEvent,
        summary: &mut FaultSummary,
        displaced: &mut Vec<u64>,
    ) -> bool {
        let i = fault.server as usize;
        let Some(server) = self.servers.get_mut(i) else {
            return false;
        };
        match fault.kind {
            // Only a fully-failed server is repairable; degraded ones
            // failed in place and stay degraded. (An offline server is
            // empty, so the reset leaks no arena slots.)
            FaultKind::Revive => {
                if !server.is_offline() {
                    return false;
                }
                server.reset(self.shape);
                summary.revivals += 1;
            }
            _ if server.is_offline() => return false,
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
        }
        self.index.refresh(i, server);
        displaced.sort_unstable();
        true
    }
}

/// The state of one replay: the simulator it drives, the prepared trace
/// and fault plan it walks, and everything the replay accumulates.
struct Run<'a> {
    sim: &'a mut AllocationSim,
    prepared: &'a PreparedTrace,
    plan: &'a FaultPlan,
    /// Index of the next fault of `plan` to apply.
    next_fault: usize,
    /// When the next interim metrics snapshot is due.
    next_snapshot_s: f64,
    /// Placement counters, packing metrics and usage so far.
    outcome: SimOutcome,
    summary: FaultSummary,
    /// VMs displaced into a saturated fleet, waiting for capacity to
    /// return: id → time the wait began. Retried (ascending id) when a
    /// revive brings a server back; entries still here when the VM
    /// departs or the horizon arrives become
    /// [`FaultSummary::evacuation_failures`].
    pending: BTreeMap<u64, f64>,
    /// Fully-failed servers: (pool, index) → failure time. Closed out
    /// by the matching revive or at the horizon into
    /// [`crate::AvailabilitySummary::server_down_seconds`].
    down_since: BTreeMap<(FaultPool, u32), f64>,
    /// VM-seconds of settled residency, accumulated at every usage
    /// settlement in settlement order.
    served_s: f64,
}

impl<'a> Run<'a> {
    fn new(sim: &'a mut AllocationSim, prepared: &'a PreparedTrace, plan: &'a FaultPlan) -> Self {
        sim.residents.clear();
        sim.residents.resize(prepared.vm_count(), None);
        let next_snapshot_s = sim.snapshot_interval_s;
        let outcome = SimOutcome {
            rejected: 0,
            placed_green: 0,
            placed_baseline: 0,
            green_overflow: 0,
            metrics: PackingMetrics::new(),
            usage: UsageLedger::new(),
        };
        Self {
            sim,
            prepared,
            plan,
            next_fault: 0,
            next_snapshot_s,
            outcome,
            summary: FaultSummary::default(),
            pending: BTreeMap::new(),
            down_since: BTreeMap::new(),
            served_s: 0.0,
        }
    }

    /// Brings the replay up to time `t`. The faults due by `t` apply
    /// first — but never past the horizon, even when the trace's event
    /// tail extends beyond it (a repair completing after the horizon
    /// must not land) — each after the snapshots due by its own time.
    /// Then the snapshots due by `t` are taken.
    fn advance(&mut self, t: f64) {
        let (plan, horizon) = (self.plan, self.prepared.duration_s());
        let faults = plan.events();
        while let Some(fault) =
            faults.get(self.next_fault).filter(|f| f.time_s <= t && f.time_s <= horizon)
        {
            self.next_fault += 1;
            self.snapshots_until(fault.time_s);
            self.strike(fault);
        }
        self.snapshots_until(t);
    }

    /// Takes every metrics snapshot due at or before `t`, leaving the
    /// horizon sample (taken once per replay) to [`Self::finish`].
    fn snapshots_until(&mut self, t: f64) {
        let sim = &*self.sim;
        while self.next_snapshot_s <= t && self.next_snapshot_s < self.prepared.duration_s() {
            self.outcome.metrics.snapshot(&sim.baseline.servers, &sim.green.servers, &sim.arena);
            self.next_snapshot_s += sim.snapshot_interval_s;
        }
    }

    /// An arrival is placed or counted rejected; a green-preferring VM
    /// placed on a baseline server also counts as overflow.
    fn arrive(&mut self, slot: u32, now: f64) {
        match self.place(slot, now) {
            Some(FaultPool::Green) => self.outcome.placed_green += 1,
            Some(FaultPool::Baseline) => {
                self.outcome.placed_baseline += 1;
                if self.prepared.vm(slot).request.target == TargetPool::PreferGreen {
                    self.outcome.green_overflow += 1;
                }
            }
            None => self.outcome.rejected += 1,
        }
    }

    /// Places the VM in `slot` on the server the policy picks, a
    /// GreenSKU first when its request prefers one, and makes it
    /// resident from `now`. `None` when no server has room.
    fn place(&mut self, slot: u32, now: f64) -> Option<FaultPool> {
        let green = self.sim.choose_green(&self.prepared.vm(slot).request);
        self.sim.place(self.prepared, slot, green, now)
    }

    /// A departure ends a residency, or a wait that never found a
    /// server (an evacuation failure). A VM rejected on arrival is in
    /// neither.
    fn depart(&mut self, slot: u32, now: f64) {
        if let Some(resident) = self.sim.vacate(self.prepared, slot) {
            self.charge(slot, resident, now);
        } else if let Some(since) = self.pending.remove(&self.prepared.vm(slot).id) {
            self.summary.evacuation_failures += 1;
            self.summary.availability.vm_seconds_lost += now - since;
        }
    }

    /// Books the residency of the VM in `slot` up to `until`: its
    /// core-seconds on its pool, and its dwell as served time.
    fn charge(&mut self, slot: u32, resident: Resident, until: f64) {
        let dwell = until - resident.since_s;
        self.served_s += dwell;
        let vm = self.prepared.vm(slot);
        let (app, usage) = (vm.app_index, &mut self.outcome.usage);
        match resident.pool {
            FaultPool::Baseline => usage.record_baseline(app, vm.request.baseline_cores, dwell),
            FaultPool::Green => usage.record_green(app, vm.request.green_cores, dwell),
        }
    }

    /// Applies one fault: strikes the server, then either closes a
    /// revived server's downtime and retries the pending queue, or
    /// evacuates the VMs a failure or degrade displaced.
    fn strike(&mut self, fault: &FaultEvent) {
        // The displaced buffer is the simulator's, taken out so the
        // evacuation can keep borrowing `self`.
        let mut displaced = std::mem::take(&mut self.sim.displaced);
        let (pool, arena) = self.sim.pool(fault.pool);
        if pool.strike(arena, fault, &mut self.summary, &mut displaced) {
            let server = (fault.pool, fault.server);
            match fault.kind {
                FaultKind::Revive => {
                    if let Some(since) = self.down_since.remove(&server) {
                        self.summary.availability.server_down_seconds += fault.time_s - since;
                    }
                    self.retry_pending(fault.time_s);
                }
                FaultKind::FullFailure => {
                    self.down_since.insert(server, fault.time_s);
                    self.evacuate(&mut displaced, fault.time_s);
                }
                FaultKind::PartialDegrade { .. } => self.evacuate(&mut displaced, fault.time_s),
            }
        }
        displaced.clear();
        self.sim.displaced = displaced;
    }

    /// Settles the usage of the VMs a fault at `now` displaced
    /// (ascending ids) up to the fault, then tries to re-place them
    /// with bounded retry passes; VMs still homeless afterwards join
    /// the pending queue.
    fn evacuate(&mut self, displaced: &mut Vec<u64>, now: f64) {
        if displaced.is_empty() {
            return;
        }
        self.summary.displaced += displaced.len();
        let peak = &mut self.summary.availability.max_simultaneous_displaced;
        *peak = (*peak).max(self.pending.len() + displaced.len());
        // Close out the displaced VMs' residency on their old server.
        for &id in displaced.iter() {
            let Some(slot) = self.prepared.slot_of_id(id) else {
                continue;
            };
            if let Some(resident) = self.sim.residents[slot as usize].take() {
                self.charge(slot, resident, now);
            }
        }
        // Bounded re-placement: each pass retries the still-homeless
        // VMs in place; a pass that places nothing ends the loop early
        // (nothing will change on the next pass either).
        for _ in 0..self.plan.max_evac_passes() {
            let before = displaced.len();
            displaced.retain(|&id| !self.rehome(id, now));
            if displaced.is_empty() || displaced.len() == before {
                break;
            }
        }
        // Still homeless: wait in the pending queue for capacity to
        // return (a revive drains it; departure/horizon fail it).
        for &id in displaced.iter() {
            self.pending.insert(id, now);
        }
    }

    /// Drains the pending queue after a revive, in ascending VM-id
    /// order. A single pass is complete: placements
    /// only consume capacity, so a VM that does not fit now will not
    /// fit later in the same drain. Unresolvable ids stay queued (they
    /// have no request to re-place with) and fail at the horizon.
    fn retry_pending(&mut self, now: f64) {
        // Taken out so the retry can keep borrowing `self`; `retain`
        // visits a `BTreeMap` in ascending key order.
        let mut pending = std::mem::take(&mut self.pending);
        pending.retain(|&id, &mut since| {
            let placed = self.rehome(id, now);
            if placed {
                self.summary.availability.vm_seconds_lost += now - since;
            }
            !placed
        });
        self.pending = pending;
    }

    /// Re-places a displaced VM from `now`, resolving it through the
    /// prepared trace. A displaced id the trace cannot resolve (a VM
    /// left resident by an earlier replay without a reset) has no
    /// request to re-place with: it stays homeless, so it lands in
    /// [`FaultSummary::evacuation_failures`] instead of dropping out of
    /// the accounting.
    fn rehome(&mut self, id: u64, now: f64) -> bool {
        let placed = self.prepared.slot_of_id(id).and_then(|slot| self.place(slot, now)).is_some();
        if placed {
            self.summary.evacuated += 1;
        }
        placed
    }

    /// Takes the horizon sample and closes the replay out: VMs still
    /// resident are charged to the end of the trace, in ascending VM-id
    /// order so the per-app float accumulation is reproducible; pending
    /// VMs never re-placed become evacuation failures with downtime to
    /// the horizon; still-offline servers accrue down-seconds to the
    /// horizon; and the served-time denominator is published — but
    /// only when at least one fault actually struck, so an inert plan
    /// keeps the summary bit-identical to the default.
    fn finish(mut self) -> (SimOutcome, FaultSummary) {
        let (prepared, horizon) = (self.prepared, self.prepared.duration_s());
        let sim = &*self.sim;
        self.outcome.metrics.snapshot(&sim.baseline.servers, &sim.green.servers, &sim.arena);
        for &slot in prepared.slots_by_id() {
            if let Some(resident) = self.sim.residents[slot as usize].take() {
                self.charge(slot, resident, horizon);
            }
        }
        let summary = &mut self.summary;
        for since in self.pending.values() {
            summary.evacuation_failures += 1;
            summary.availability.vm_seconds_lost += horizon - since;
        }
        for since in self.down_since.values() {
            summary.availability.server_down_seconds += horizon - since;
        }
        if summary.faults_applied() {
            summary.availability.vm_seconds_served = self.served_s;
        }
        (self.outcome, self.summary)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use gsf_workloads::{ServerGeneration, Trace, VmEvent};

    /// Test shorthand: prepare `trace` under `transform`, then replay.
    trait PrepareAndReplay {
        fn prepare_and_replay(&mut self, trace: &Trace, transform: &VmTransform<'_>) -> SimOutcome;
        fn prepare_and_replay_faulted(
            &mut self,
            trace: &Trace,
            transform: &VmTransform<'_>,
            plan: &FaultPlan,
        ) -> (SimOutcome, FaultSummary);
    }

    impl PrepareAndReplay for AllocationSim {
        fn prepare_and_replay(&mut self, trace: &Trace, transform: &VmTransform<'_>) -> SimOutcome {
            self.prepare_and_replay_faulted(trace, transform, &FaultPlan::empty()).0
        }

        fn prepare_and_replay_faulted(
            &mut self,
            trace: &Trace,
            transform: &VmTransform<'_>,
            plan: &FaultPlan,
        ) -> (SimOutcome, FaultSummary) {
            self.replay_prepared_faulted(&PreparedTrace::new(trace, transform), plan)
        }
    }

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
        let out = sim.prepare_and_replay(&trace(vms, events), &baseline_transform);
        assert_eq!(out.placed_baseline, 10);
        assert_eq!(out.rejected, 1);
    }

    #[test]
    fn departures_free_capacity() {
        let vms: Vec<VmSpec> = (0..3).map(|i| vm(i, 80, 768.0, false)).collect();
        let events =
            vec![arrive(0, 1.0), depart(0, 2.0), arrive(1, 3.0), depart(1, 4.0), arrive(2, 5.0)];
        let mut sim = AllocationSim::new(ClusterConfig::baseline_only(1), PlacementPolicy::BestFit);
        let out = sim.prepare_and_replay(&trace(vms, events), &baseline_transform);
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
        let out = sim.prepare_and_replay(&trace(vms, events), &transform);
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
        let out = sim.prepare_and_replay(&trace(vms, events), &transform);
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
        let out = sim.prepare_and_replay(&trace(vms, events), &baseline_transform);
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
        let out = sim.prepare_and_replay(&trace(vms, events), &baseline_transform);
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
        let mut sim = AllocationSim::new(ClusterConfig::baseline_only(1), PlacementPolicy::BestFit)
            .with_snapshot_interval(3600.0);
        let out = sim.prepare_and_replay(&t, &baseline_transform);
        assert_eq!(out.metrics.snapshots(), 10);
        // The VM stays resident, so every snapshot samples it.
        assert_eq!(out.metrics.baseline.samples(), 10);
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
        let mut sim = AllocationSim::new(ClusterConfig::baseline_only(1), PlacementPolicy::BestFit)
            .with_snapshot_interval(3600.0);
        let (out, summary) = sim.prepare_and_replay_faulted(&t, &baseline_transform, &plan);
        assert_eq!(summary.full_failures, 1);
        // t=3600 interim + horizon sample.
        assert_eq!(out.metrics.snapshots(), 2);
        // Only the interim snapshot saw a non-empty server.
        assert_eq!(out.metrics.baseline.samples(), 1);
        assert!((out.metrics.baseline.mean_core_density() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn horizon_settlement_is_ascending_id_bitwise() {
        // Dwell magnitudes chosen so the per-app accumulation order is
        // observable in the low bits: settling 2^53 first absorbs the
        // two 1.0s ((2^53 + 1) + 1 == 2^53, ties to even), settling it
        // last does not ((1 + 1) + 2^53 == 2^53 + 2). The horizon is
        // 2^53, not more, so the late arrivals at `d - 1` are exact and
        // really dwell 1 s. The replay must settle in ascending VM-id
        // order, bit-for-bit; the VM list is out of id order, so
        // settling in slot (list) order fails too.
        let d = 2f64.powi(53);
        let vms: Vec<VmSpec> = [1, 2, 0].map(|i| vm(i, 1, 4.0, false)).to_vec();
        let events = vec![arrive(0, 0.0), arrive(1, d - 1.0), arrive(2, d - 1.0)];
        let t = Trace::new(d, vms, events);
        assert_eq!(d - (d - 1.0), 1.0);
        let expected = (((d - 0.0) + 1.0) + 1.0) / 3600.0;
        assert_ne!(expected.to_bits(), (((1.0 + 1.0) + d) / 3600.0).to_bits());
        // Snapshot interval = horizon, or the drain loop would walk
        // ~2.5e12 hourly snapshots across the 2^53 s trace.
        let mut sim = AllocationSim::new(ClusterConfig::baseline_only(1), PlacementPolicy::BestFit)
            .with_snapshot_interval(d);
        let out = sim.prepare_and_replay(&t, &baseline_transform);
        assert_eq!(out.usage.total_baseline_core_hours().to_bits(), expected.to_bits());
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
        let out = sim.prepare_and_replay(&trace, &transform);
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
            let out = reused.prepare_and_replay(&t, &transform);
            let fresh = AllocationSim::new(config, PlacementPolicy::BestFit)
                .prepare_and_replay(&t, &transform);
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
        let wide = sim.prepare_and_replay(&t, &transform);
        assert_eq!(sim.high_water_marks(), HighWaterMarks { baseline: 1, green: 2 });
        sim.reset(ClusterConfig::mixed(1, 2));
        assert_eq!(sim.high_water_marks(), HighWaterMarks::default());
        // At the mark the replay repeats the wider cluster's exactly.
        let at_mark = sim.prepare_and_replay(&t, &transform);
        assert_eq!(at_mark.rejected, wide.rejected);
        assert_eq!(at_mark.usage, wide.usage);
        assert_eq!(sim.high_water_marks(), HighWaterMarks { baseline: 1, green: 2 });
    }

    #[test]
    fn forked_feasibility_runs_match_replays_on_fewer_greenskus() {
        // 60 VMs of 8 (10 green) or 16 (20 green) cores, arriving one a
        // second; every third departs 15 s after arriving, so servers
        // empty and refill while the pools grow.
        let vms: Vec<VmSpec> =
            (0..60).map(|i| vm(i, 8 * (1 + (i % 2) as u32), 32.0, false)).collect();
        let mut events: Vec<VmEvent> = (0..60).map(|i| arrive(i, f64::from(i as u32))).collect();
        events.extend((0..60).step_by(3).map(|i| depart(i, f64::from(i as u32) + 15.5)));
        let t = trace(vms, events);
        let prepared =
            PreparedTrace::new(&t, &|v: &VmSpec| PlacementRequest::prefer_green(v, 1.25));
        let top = ClusterConfig::mixed(4, 12);
        let mut wide = AllocationSim::new(top, PlacementPolicy::BestFit);
        assert_eq!(wide.run_feasibility(&prepared, 0, GreenLimit::Stop(u32::MAX)), RunEnd::Hosted);
        let mark = wide.high_water_marks().green;
        assert!((2..12).contains(&mark), "the fixture must leave GreenSKUs pristine: {mark}");

        let mut cursor = AllocationSim::new(top, PlacementPolicy::BestFit);
        let mut probe = AllocationSim::new(top, PlacementPolicy::BestFit);
        let mut verdicts = Vec::new();
        for green in 0..mark {
            let config = ClusterConfig { green_count: green, ..top };
            let replayed = AllocationSim::new(config, PlacementPolicy::BestFit)
                .replay_prepared(&prepared)
                .no_rejections();
            // Limited on the whole pool from event 0.
            probe.reset(top);
            let limited = probe.run_feasibility(&prepared, 0, GreenLimit::Overflow(green));
            assert_eq!(limited == RunEnd::Hosted, replayed, "{green} GreenSKUs");
            // Forked from a cursor that stopped where the two part.
            let RunEnd::Stopped(at) = cursor.run_feasibility(&prepared, 0, GreenLimit::Stop(green))
            else {
                panic!("the wide replay opens GreenSKU {green}");
            };
            assert_eq!(cursor.high_water_marks().green, green);
            probe.clone_from(&cursor);
            assert!(probe.storage_consistent());
            assert_eq!(probe.high_water_marks(), cursor.high_water_marks());
            let forked = probe.run_feasibility(&prepared, at, GreenLimit::Overflow(green));
            assert_eq!(forked, limited, "{green} GreenSKUs");
            cursor.reset(top);
            verdicts.push(replayed);
        }
        // The fixture covers both verdicts.
        assert!(verdicts.contains(&true) && verdicts.contains(&false), "{verdicts:?}");
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

        let plain =
            AllocationSim::new(config, PlacementPolicy::BestFit).prepare_and_replay(&t, &transform);
        let (faulted, summary) = AllocationSim::new(config, PlacementPolicy::BestFit)
            .prepare_and_replay_faulted(&t, &transform, &FaultPlan::empty());
        assert_eq!(plain, faulted);
        assert_eq!(summary, FaultSummary::default());
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
        let (out, summary) = sim.prepare_and_replay_faulted(&t, &baseline_transform, &plan);
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
        let (out, summary) = sim.prepare_and_replay_faulted(&t, &baseline_transform, &plan);
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
        let (_, summary) = sim.prepare_and_replay_faulted(&t, &baseline_transform, &plan);
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
                .prepare_and_replay_faulted(&t, &transform, &plan)
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
        let (out, summary) = sim.prepare_and_replay_faulted(&t, &baseline_transform, &plan);
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
        let (_, summary) = sim.prepare_and_replay_faulted(&t, &baseline_transform, &plan);
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
        let (out, summary) = sim.prepare_and_replay_faulted(&t, &baseline_transform, &plan);
        assert_eq!(summary.evacuated, 1);
        assert!((out.usage.baseline_core_hours(0) - 16.0).abs() < 1e-9);
    }

    #[test]
    fn displaced_vm_unknown_to_the_trace_counts_as_evacuation_failure() {
        // Replay a first trace without resetting, leaving VM 100
        // resident, then replay a *different* trace whose fault strikes
        // its server. The displaced id does not resolve through the new
        // prepared trace, so it can never be re-placed — it must still
        // be counted as an evacuation failure. (It used to be
        // `continue`d out of the retry pass and vanish from the
        // accounting entirely.)
        let stale = trace(vec![vm(100, 8, 32.0, false)], vec![arrive(100, 0.0)]);
        let fresh = trace(vec![vm(0, 4, 16.0, false)], vec![arrive(0, 5.0)]);
        let plan = FaultPlan::new(vec![full_fault(1.0, FaultPool::Baseline, 0)], 3, 1, 0).unwrap();

        let mut sim = AllocationSim::new(ClusterConfig::baseline_only(1), PlacementPolicy::BestFit);
        sim.prepare_and_replay(&stale, &baseline_transform);
        let prepared = PreparedTrace::new(&fresh, &baseline_transform);
        let (_, summary) = sim.replay_prepared_faulted(&prepared, &plan);
        assert_eq!(summary.displaced, 1);
        assert_eq!(summary.evacuated, 0);
        assert_eq!(
            summary.evacuation_failures, 1,
            "a displaced id missing from the prepared trace must still be accounted"
        );
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
        let (out, summary) =
            AllocationSim::new(ClusterConfig::baseline_only(1), PlacementPolicy::BestFit)
                .prepare_and_replay_faulted(&t, &baseline_transform, &plan);
        assert_eq!(summary.full_failures, 1);
        assert_eq!(summary.revivals, 1);
        assert_eq!(summary.displaced, 10);
        assert_eq!(summary.evacuated, 10);
        assert_eq!(summary.evacuation_failures, 0);
        assert!(summary.all_evacuated());
        // Each VM waited exactly 100 s in the queue.
        assert!((summary.availability.vm_seconds_lost - 10.0 * 100.0).abs() < 1e-9);
        assert!((summary.availability.server_down_seconds - 100.0).abs() < 1e-9);
        assert_eq!(summary.availability.max_simultaneous_displaced, 10);
        assert_eq!(summary.availability.blast_radius_servers, 1);
        assert!(summary.availability.vm_seconds_served > 0.0);
        assert!(summary.availability.availability() < 1.0);
        // Usage keeps flowing after the re-placement: ten 8-core VMs
        // resident to the 1 000 000 s horizon dominate the total.
        assert!(out.usage.baseline_core_hours(0) > 10.0 * 8.0 * 900_000.0 / 3600.0);
    }

    #[test]
    fn revive_on_online_server_is_noop() {
        let vms: Vec<VmSpec> = (0..4).map(|i| vm(i, 8, 32.0, false)).collect();
        let events: Vec<VmEvent> = (0..4).map(|i| arrive(i, f64::from(i as u32))).collect();
        let t = trace(vms, events);
        let plan = FaultPlan::new(vec![revive(50.0, FaultPool::Baseline, 0)], 3, 2, 0).unwrap();
        let plain = AllocationSim::new(ClusterConfig::baseline_only(2), PlacementPolicy::BestFit)
            .prepare_and_replay(&t, &baseline_transform);
        let (out, summary) =
            AllocationSim::new(ClusterConfig::baseline_only(2), PlacementPolicy::BestFit)
                .prepare_and_replay_faulted(&t, &baseline_transform, &plan);
        assert_eq!(summary, FaultSummary::default());
        assert_eq!(out, plain);
    }

    #[test]
    fn pending_vm_departure_is_an_evacuation_failure() {
        // The VM is displaced into a saturated fleet at t=10 and
        // departs at t=50 still homeless: 40 s of downtime, one
        // failure.
        let vms = vec![vm(0, 8, 32.0, false)];
        let events = vec![arrive(0, 0.0), depart(0, 50.0)];
        let t = trace(vms, events);
        let plan = FaultPlan::new(vec![full_fault(10.0, FaultPool::Baseline, 0)], 3, 1, 0).unwrap();
        let mut sim = AllocationSim::new(ClusterConfig::baseline_only(1), PlacementPolicy::BestFit);
        let (_, summary) = sim.prepare_and_replay_faulted(&t, &baseline_transform, &plan);
        assert_eq!(summary.displaced, 1);
        assert_eq!(summary.evacuated, 0);
        assert_eq!(summary.evacuation_failures, 1);
        assert!((summary.availability.vm_seconds_lost - 40.0).abs() < 1e-9);
    }

    #[test]
    fn rejected_vm_departure_is_noop() {
        let vms = vec![vm(0, 200, 32.0, false)]; // cannot fit anywhere
        let events = vec![arrive(0, 1.0), depart(0, 2.0)];
        let mut sim = AllocationSim::new(ClusterConfig::baseline_only(1), PlacementPolicy::BestFit);
        let out = sim.prepare_and_replay(&trace(vms, events), &baseline_transform);
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
        let mut sim = AllocationSim::new(ClusterConfig::baseline_only(2), PlacementPolicy::BestFit);
        let (out, summary) = sim.prepare_and_replay_faulted(&t, &baseline_transform, &plan);
        assert_eq!(summary.displaced, 4);
        assert_eq!(summary.evacuated, 2);
        assert_eq!(summary.evacuation_failures, 2);
        // Ids 1 (app 2) and 2 (app 3) won the drain and served to the
        // horizon; ids 9 (app 0) and 4 (app 1) only banked their
        // pre-fault dwell.
        assert!(out.usage.baseline_core_hours(2) > 1_000.0);
        assert!(out.usage.baseline_core_hours(3) > 1_000.0);
        assert!(out.usage.baseline_core_hours(0) < 1.0);
        assert!(out.usage.baseline_core_hours(1) < 1.0);
        assert!(sim.storage_consistent());
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
        let (first, _) = sim.prepare_and_replay_faulted(&t, &baseline_transform, &plan);
        assert!(sim.storage_consistent());
        sim.reset(config);
        assert!(sim.storage_consistent());
        let (second, _) = sim.prepare_and_replay_faulted(&t, &baseline_transform, &plan);
        assert!(sim.storage_consistent());
        assert_eq!(first, second);
    }
}
