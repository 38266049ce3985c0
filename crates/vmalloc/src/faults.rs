//! Fault-plan data types consumed by the faulted replay.
//!
//! A [`FaultPlan`] is a time-ordered list of server-level failure and
//! repair events. Plans are *data only*: the stochastic generator that
//! samples them from AFR models lives in `gsf-maintenance` (which
//! depends on this crate), keeping the simulator itself deterministic
//! and free of randomness. An empty plan is the identity — replaying
//! with it is bit-for-bit the same as the plain replay path.
//!
//! [`FaultPlan::new`] validates its events the way `Trace::try_new`
//! validates trace events: non-finite or negative times, negative or
//! non-finite degrade amounts, and server indices past the declared
//! pool sizes are rejected at construction instead of replaying
//! garbage. The replay engines still tolerate out-of-range indices
//! defensively (a strike on a missing server is a no-op), but a plan
//! built through the public constructor cannot contain one.

use std::fmt;

/// One of the two server pools: the one a fault strikes, or the one a
/// VM is placed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultPool {
    /// The baseline (Gen3) pool.
    Baseline,
    /// The GreenSKU pool.
    Green,
}

impl fmt::Display for FaultPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPool::Baseline => write!(f, "baseline"),
            FaultPool::Green => write!(f, "green"),
        }
    }
}

/// What a fault does to the server it strikes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The whole server goes offline and displaces every hosted VM.
    /// Without a matching [`FaultKind::Revive`] later in the plan the
    /// server stays down for the rest of the trace (fail-in-place
    /// fleets schedule no repairs).
    FullFailure,
    /// A component failure absorbed in place (FIP): the server keeps
    /// serving with reduced capacity. Only VMs that no longer fit are
    /// displaced.
    PartialDegrade {
        /// Usable cores removed from the server's shape.
        cores_lost: u32,
        /// Usable memory removed from the server's shape, GB.
        mem_lost_gb: f64,
    },
    /// Repair completed: the server returns to service empty, restored
    /// to its pool's pristine shape. A revive addressed at a server
    /// that is not offline is a no-op (it may have been revived by an
    /// earlier rack-level repair already).
    Revive,
}

/// One failure or repair event against one server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Trace time at which the fault strikes, seconds.
    pub time_s: f64,
    /// Pool of the struck server.
    pub pool: FaultPool,
    /// Index of the struck server within its pool.
    pub server: u32,
    /// Effect of the fault.
    pub kind: FaultKind,
}

/// Why [`FaultPlan::new`] rejected an event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPlanError {
    /// An event time was NaN or infinite.
    NonFiniteTime {
        /// Index of the offending event in the input order.
        event: usize,
    },
    /// An event time was negative.
    NegativeTime {
        /// Index of the offending event in the input order.
        event: usize,
    },
    /// A partial degrade carried a NaN, infinite, or negative memory
    /// loss.
    BadDegrade {
        /// Index of the offending event in the input order.
        event: usize,
    },
    /// An event addressed a server index past the declared pool size.
    ServerOutOfRange {
        /// Pool of the offending event.
        pool: FaultPool,
        /// The out-of-range server index.
        server: u32,
        /// Declared size of that pool.
        count: u32,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::NonFiniteTime { event } => {
                write!(f, "fault event {event} has a non-finite time")
            }
            FaultPlanError::NegativeTime { event } => {
                write!(f, "fault event {event} has a negative time")
            }
            FaultPlanError::BadDegrade { event } => {
                write!(f, "fault event {event} has a non-finite or negative degrade amount")
            }
            FaultPlanError::ServerOutOfRange { pool, server, count } => {
                write!(
                    f,
                    "fault addresses {pool} server {server} but the pool has {count} server(s)"
                )
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A time-ordered fault schedule for one replay.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    max_evac_passes: u32,
}

impl FaultPlan {
    /// Builds a validated plan for a cluster of `baseline_servers` +
    /// `green_servers`, sorting events by (time, pool, server) so
    /// replay order is independent of generation order.
    /// `max_evac_passes` bounds the re-placement retry loop per fault
    /// (at least 1).
    ///
    /// # Errors
    ///
    /// Returns a [`FaultPlanError`] for the first event with a
    /// non-finite or negative time, a non-finite or negative degrade
    /// amount, or a server index past its declared pool size.
    pub fn new(
        events: Vec<FaultEvent>,
        max_evac_passes: u32,
        baseline_servers: u32,
        green_servers: u32,
    ) -> Result<Self, FaultPlanError> {
        for (i, e) in events.iter().enumerate() {
            if !e.time_s.is_finite() {
                return Err(FaultPlanError::NonFiniteTime { event: i });
            }
            if e.time_s < 0.0 {
                return Err(FaultPlanError::NegativeTime { event: i });
            }
            if let FaultKind::PartialDegrade { mem_lost_gb, .. } = e.kind {
                if !mem_lost_gb.is_finite() || mem_lost_gb < 0.0 {
                    return Err(FaultPlanError::BadDegrade { event: i });
                }
            }
            let count = match e.pool {
                FaultPool::Baseline => baseline_servers,
                FaultPool::Green => green_servers,
            };
            if e.server >= count {
                return Err(FaultPlanError::ServerOutOfRange {
                    pool: e.pool,
                    server: e.server,
                    count,
                });
            }
        }
        Ok(Self::presorted(events, max_evac_passes))
    }

    /// Sorts and wraps events without validation. Internal escape hatch
    /// for plans derived from an already-validated plan (shard-local
    /// splits rewrite indices that are in range by construction).
    pub(crate) fn presorted(mut events: Vec<FaultEvent>, max_evac_passes: u32) -> Self {
        events.sort_by(|a, b| {
            a.time_s.total_cmp(&b.time_s).then(a.pool.cmp(&b.pool)).then(a.server.cmp(&b.server))
        });
        Self { events, max_evac_passes: max_evac_passes.max(1) }
    }

    /// The empty plan: replaying with it is the identity.
    pub fn empty() -> Self {
        Self { events: Vec::new(), max_evac_passes: 1 }
    }

    /// Whether the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The events in replay order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Bound on evacuation re-placement passes per fault.
    pub fn max_evac_passes(&self) -> u32 {
        self.max_evac_passes
    }

    /// The largest number of failure events (full or partial, not
    /// revives) sharing one strike time — the blast radius in servers
    /// of the widest correlated (fault-domain) event in the plan.
    /// Independent per-server samples almost surely give 1; an empty
    /// plan gives 0.
    pub fn max_correlated_strikes(&self) -> usize {
        let mut best = 0usize;
        let mut i = 0usize;
        while i < self.events.len() {
            let t = self.events[i].time_s;
            let mut group = 0usize;
            while i < self.events.len() && self.events[i].time_s.to_bits() == t.to_bits() {
                if !matches!(self.events[i].kind, FaultKind::Revive) {
                    group += 1;
                }
                i += 1;
            }
            best = best.max(group);
        }
        best
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::empty()
    }
}

/// Availability accounting over one faulted replay: how much VM service
/// time the injected failures actually cost, and how wide their blast
/// radius was. All fields are zero until at least one fault strikes
/// (so an inert plan keeps the summary bit-identical to the default).
///
/// When the sharded engine merges per-shard summaries, the additive
/// fields (`vm_seconds_lost`, `vm_seconds_served`,
/// `server_down_seconds`) are exact; `max_simultaneous_displaced` sums
/// per-shard peaks (an upper bound on the global instantaneous peak),
/// and `blast_radius_servers` is assigned from the *global* fault plan
/// by [`crate::merge_outcomes`], which every sharded driver merges
/// through, so serial and parallel execution agree bitwise.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AvailabilitySummary {
    /// VM-seconds spent in the pending-placement queue: time between a
    /// VM's displacement into a saturated fleet and its re-placement,
    /// its departure, or the horizon.
    pub vm_seconds_lost: f64,
    /// VM-seconds actually served (settled residencies over the
    /// replay) — the denominator for [`Self::availability`].
    pub vm_seconds_served: f64,
    /// Peak number of VMs simultaneously waiting for capacity.
    pub max_simultaneous_displaced: usize,
    /// Servers struck by the widest correlated fault-domain event in
    /// the plan ([`FaultPlan::max_correlated_strikes`]).
    pub blast_radius_servers: usize,
    /// Server-seconds spent offline between full failures and their
    /// repairs (or the horizon) — the simulated counterpart of the
    /// analytic `oos_fraction` in `gsf-maintenance`.
    pub server_down_seconds: f64,
}

impl AvailabilitySummary {
    /// VM-minutes of downtime (the unit the availability SLO uses).
    pub fn vm_minutes_lost(&self) -> f64 {
        self.vm_seconds_lost / 60.0
    }

    /// Fraction of demanded VM time actually served: `served / (served
    /// + lost)`; 1.0 when nothing was served or lost.
    pub fn availability(&self) -> f64 {
        let demanded = self.vm_seconds_served + self.vm_seconds_lost;
        if demanded <= 0.0 {
            1.0
        } else {
            self.vm_seconds_served / demanded
        }
    }

    /// Availability expressed in nines (`-log10(1 - availability)`),
    /// capped at 9.0 for a lossless replay.
    pub fn nines(&self) -> f64 {
        let a = self.availability();
        if a >= 1.0 {
            9.0
        } else {
            (-(1.0 - a).log10()).clamp(0.0, 9.0)
        }
    }

    /// Accumulates another summary (ascending-shard-order merge).
    pub fn merge(&mut self, other: &Self) {
        self.vm_seconds_lost += other.vm_seconds_lost;
        self.vm_seconds_served += other.vm_seconds_served;
        self.max_simultaneous_displaced += other.max_simultaneous_displaced;
        self.blast_radius_servers = self.blast_radius_servers.max(other.blast_radius_servers);
        self.server_down_seconds += other.server_down_seconds;
    }
}

/// What fault injection did to one replay.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultSummary {
    /// Servers taken fully offline.
    pub full_failures: usize,
    /// Partial (FIP-absorbed) capacity-degradation events applied.
    pub partial_degrades: usize,
    /// Servers returned to service by a repair.
    pub revivals: usize,
    /// VMs displaced from their server by a fault.
    pub displaced: usize,
    /// Displaced VMs successfully re-placed elsewhere — either
    /// immediately during evacuation or later from the pending queue
    /// when capacity returned.
    pub evacuated: usize,
    /// Displaced VMs that never found a new home before departing or
    /// reaching the horizon — counted as violations by the
    /// fault-aware sizing searches (unless an availability SLO relaxes
    /// them into measured downtime).
    pub evacuation_failures: usize,
    /// Total usable cores removed from the cluster by faults
    /// (cumulative: revivals do not subtract).
    pub cores_lost: u64,
    /// Total usable memory removed from the cluster by faults, GB
    /// (cumulative: revivals do not subtract).
    pub mem_lost_gb: f64,
    /// Availability accounting (downtime, blast radius) for the same
    /// replay.
    pub availability: AvailabilitySummary,
}

impl FaultSummary {
    /// Whether every displaced VM found a new home.
    pub fn all_evacuated(&self) -> bool {
        self.evacuation_failures == 0
    }

    /// Whether any fault actually changed the cluster. Availability
    /// accounting is only populated when this holds, so inert plans
    /// keep the summary bit-identical to [`FaultSummary::default`].
    pub fn faults_applied(&self) -> bool {
        self.full_failures + self.partial_degrades + self.revivals > 0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn ev(time_s: f64, pool: FaultPool, server: u32) -> FaultEvent {
        FaultEvent { time_s, pool, server, kind: FaultKind::FullFailure }
    }

    #[test]
    fn plan_sorts_by_time_pool_server() {
        let plan = FaultPlan::new(
            vec![
                ev(5.0, FaultPool::Green, 1),
                ev(1.0, FaultPool::Baseline, 2),
                ev(5.0, FaultPool::Baseline, 0),
                ev(5.0, FaultPool::Green, 0),
            ],
            3,
            4,
            4,
        )
        .unwrap();
        let order: Vec<(f64, FaultPool, u32)> =
            plan.events().iter().map(|e| (e.time_s, e.pool, e.server)).collect();
        assert_eq!(
            order,
            vec![
                (1.0, FaultPool::Baseline, 2),
                (5.0, FaultPool::Baseline, 0),
                (5.0, FaultPool::Green, 0),
                (5.0, FaultPool::Green, 1),
            ]
        );
    }

    #[test]
    fn empty_plan_is_identity_shaped() {
        let plan = FaultPlan::empty();
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
        assert_eq!(plan.max_evac_passes(), 1);
        assert_eq!(plan, FaultPlan::default());
        assert_eq!(plan.max_correlated_strikes(), 0);
    }

    #[test]
    fn evac_passes_floor_at_one() {
        let plan = FaultPlan::new(Vec::new(), 0, 0, 0).unwrap();
        assert_eq!(plan.max_evac_passes(), 1);
    }

    #[test]
    fn new_rejects_non_finite_time() {
        let e = FaultPlan::new(vec![ev(f64::NAN, FaultPool::Baseline, 0)], 1, 4, 0).unwrap_err();
        assert_eq!(e, FaultPlanError::NonFiniteTime { event: 0 });
        let e =
            FaultPlan::new(vec![ev(f64::INFINITY, FaultPool::Baseline, 0)], 1, 4, 0).unwrap_err();
        assert_eq!(e, FaultPlanError::NonFiniteTime { event: 0 });
    }

    #[test]
    fn new_rejects_negative_time() {
        let e = FaultPlan::new(
            vec![ev(1.0, FaultPool::Baseline, 0), ev(-1.0, FaultPool::Baseline, 1)],
            1,
            4,
            0,
        )
        .unwrap_err();
        assert_eq!(e, FaultPlanError::NegativeTime { event: 1 });
    }

    #[test]
    fn new_rejects_out_of_range_server_per_pool() {
        let e = FaultPlan::new(vec![ev(1.0, FaultPool::Baseline, 4)], 1, 4, 8).unwrap_err();
        assert_eq!(
            e,
            FaultPlanError::ServerOutOfRange { pool: FaultPool::Baseline, server: 4, count: 4 }
        );
        let e = FaultPlan::new(vec![ev(1.0, FaultPool::Green, 8)], 1, 4, 8).unwrap_err();
        assert_eq!(
            e,
            FaultPlanError::ServerOutOfRange { pool: FaultPool::Green, server: 8, count: 8 }
        );
        // In-range indices in both pools pass.
        assert!(FaultPlan::new(
            vec![ev(1.0, FaultPool::Baseline, 3), ev(1.0, FaultPool::Green, 7)],
            1,
            4,
            8
        )
        .is_ok());
    }

    #[test]
    fn new_rejects_bad_degrade_amounts() {
        let bad = |mem_lost_gb: f64| FaultEvent {
            time_s: 1.0,
            pool: FaultPool::Baseline,
            server: 0,
            kind: FaultKind::PartialDegrade { cores_lost: 1, mem_lost_gb },
        };
        for mem in [f64::NAN, f64::INFINITY, -1.0] {
            let e = FaultPlan::new(vec![bad(mem)], 1, 1, 0).unwrap_err();
            assert_eq!(e, FaultPlanError::BadDegrade { event: 0 }, "mem_lost_gb = {mem}");
        }
        assert!(FaultPlan::new(vec![bad(0.0)], 1, 1, 0).is_ok());
    }

    #[test]
    fn max_correlated_strikes_counts_widest_same_time_group() {
        let revive = |t: f64, server: u32| FaultEvent {
            time_s: t,
            pool: FaultPool::Baseline,
            server,
            kind: FaultKind::Revive,
        };
        let plan = FaultPlan::new(
            vec![
                ev(1.0, FaultPool::Baseline, 0),
                // Domain event at t=5 striking three servers.
                ev(5.0, FaultPool::Baseline, 1),
                ev(5.0, FaultPool::Baseline, 2),
                ev(5.0, FaultPool::Green, 0),
                // Revives never count toward the blast radius.
                revive(9.0, 0),
                revive(9.0, 1),
                revive(9.0, 2),
            ],
            1,
            4,
            4,
        )
        .unwrap();
        assert_eq!(plan.max_correlated_strikes(), 3);
    }

    #[test]
    fn availability_summary_math() {
        let mut a = AvailabilitySummary::default();
        assert_eq!(a.availability(), 1.0);
        assert_eq!(a.nines(), 9.0);
        a.vm_seconds_served = 999.0;
        a.vm_seconds_lost = 1.0;
        assert!((a.availability() - 0.999).abs() < 1e-12);
        assert!((a.nines() - 3.0).abs() < 1e-9);
        assert!((a.vm_minutes_lost() - 1.0 / 60.0).abs() < 1e-12);

        let mut b = AvailabilitySummary {
            vm_seconds_lost: 2.0,
            vm_seconds_served: 1.0,
            max_simultaneous_displaced: 3,
            blast_radius_servers: 5,
            server_down_seconds: 7.0,
        };
        b.merge(&AvailabilitySummary {
            vm_seconds_lost: 1.0,
            vm_seconds_served: 9.0,
            max_simultaneous_displaced: 4,
            blast_radius_servers: 2,
            server_down_seconds: 3.0,
        });
        assert_eq!(b.vm_seconds_lost, 3.0);
        assert_eq!(b.vm_seconds_served, 10.0);
        assert_eq!(b.max_simultaneous_displaced, 7);
        assert_eq!(b.blast_radius_servers, 5);
        assert_eq!(b.server_down_seconds, 10.0);
    }
}
