//! Seed-deterministic fault-plan generation from AFR models.
//!
//! [`FaultModel`] turns the crate's failure-rate models
//! ([`ComponentAfrs`], [`FipPolicy`]) into concrete
//! [`gsf_vmalloc::FaultPlan`]s the allocation simulator can replay
//! against. Each server gets its own RNG stream (derived from the model
//! seed, the pool label, and the server index), so:
//!
//! - plans are independent of iteration order and bit-reproducible,
//! - growing a pool from `n` to `n + 1` servers leaves servers
//!   `0..n`'s fault schedules unchanged — which keeps the cluster
//!   right-sizing searches' feasibility predicate effectively monotone
//!   in server count.
//!
//! A sampled failure is *FIP-absorbed* (a partial, in-place capacity
//! degrade) with probability `fip.effectiveness × repairable_share`,
//! mirroring [`FipPolicy::repair_rate`]; otherwise it is a full-server
//! failure. With `repair_days == 0` (the default) the server then stays
//! offline for the rest of the trace — fail-in-place semantics, and
//! bit-identical to the model before repairs existed. With
//! `repair_days > 0` every full failure schedules a deterministic
//! return-to-service: a repair duration is sampled from the *same*
//! per-server (or per-domain) stream, compressed from wall-clock days
//! onto the trace horizon exactly like the AFRs are, and a
//! [`FaultKind::Revive`] brings the server back empty — connecting the
//! analytic `oos_fraction`/`C_OOS` story in [`crate::oos`] to the
//! replayed simulation.
//!
//! A [`FaultTopology`] adds *correlated* fault domains on top of the
//! independent per-server streams: servers are grouped into
//! fixed-size domains (rack PSU / ToR blast radii), each domain gets
//! its own seed-deterministic stream, and a domain event strikes every
//! member with a full failure at the same instant (FIP cannot absorb a
//! rack-level power loss). Domain repairs likewise revive every member
//! together.
//!
//! Real AFRs (≈5 per 100 servers per year) produce essentially no
//! events over a day-long trace, so the model exposes `horizon_years`:
//! the deployment period the trace horizon stands in for. With
//! `horizon_years = 1.0`, a 24 h trace carries one year's worth of
//! failures — the question the growth buffer exists to answer.

use crate::afr::{ComponentAfrs, ServerAfr};
use crate::error::{check_fraction, check_non_negative, MaintenanceError};
use crate::fip::FipPolicy;
use gsf_stats::dist::Exponential;
use gsf_stats::rng::SeedFactory;
use gsf_vmalloc::{ClusterConfig, FaultEvent, FaultKind, FaultPlan, FaultPool, ServerShape};
use rand::distributions::Distribution;
use rand::Rng;

/// Failure-relevant device counts for one server pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolDevices {
    /// DIMMs per server (new + reused).
    pub dimms: u32,
    /// SSDs per server (new + reused).
    pub ssds: u32,
}

impl PoolDevices {
    /// The paper's baseline SKU: 12 DIMMs, 6 SSDs.
    pub fn baseline() -> Self {
        Self { dimms: 12, ssds: 6 }
    }

    /// The paper's GreenSKU-Full: 20 DIMMs, 14 SSDs.
    pub fn greensku_full() -> Self {
        Self { dimms: 20, ssds: 14 }
    }
}

/// Correlated fault-domain structure for one cluster: servers are
/// grouped into contiguous fixed-size domains per pool, modelling the
/// shared blast radius of a rack PSU or ToR switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultTopology {
    /// Servers per fault domain; `0` disables domain events entirely
    /// (the flat topology, bit-identical to the pre-topology model).
    /// The last domain of a pool may be smaller than this.
    pub domain_size: u32,
    /// Domain-wide events per 100 domains per year (scaled by the
    /// model's `afr_scale` and `horizon_years` like the server AFRs).
    pub domain_events_per_100: f64,
}

impl FaultTopology {
    /// No fault domains: only independent per-server failures.
    pub fn flat() -> Self {
        Self { domain_size: 0, domain_events_per_100: 0.0 }
    }

    /// Rack-sized domains of `size` servers at a default rate of one
    /// event per 100 domain-years.
    pub fn rack(size: u32) -> Self {
        Self { domain_size: size, domain_events_per_100: 1.0 }
    }
}

impl Default for FaultTopology {
    fn default() -> Self {
        Self::flat()
    }
}

/// Configuration of the stochastic fault injector.
///
/// [`FaultModel::none`] is the disabled model: it generates only empty
/// plans, reports zero expected capacity loss, and every consumer is
/// required to treat it as a strict identity (bit-for-bit identical
/// results to a build without fault injection).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    enabled: bool,
    /// Per-device AFR contributions.
    pub afrs: ComponentAfrs,
    /// FIP policy deciding how many failures are absorbed in place.
    pub fip: FipPolicy,
    /// Multiplier on server AFRs (sensitivity-sweep knob).
    pub afr_scale: f64,
    /// Deployment years the trace horizon stands in for.
    pub horizon_years: f64,
    /// Fraction of a server's cores lost per FIP-absorbed event.
    pub degrade_core_fraction: f64,
    /// Fraction of a server's memory lost per FIP-absorbed event.
    pub degrade_mem_fraction: f64,
    /// Bound on evacuation re-placement passes per fault.
    pub max_evac_passes: u32,
    /// Root seed for the per-server fault streams.
    pub seed: u64,
    /// Correlated fault-domain structure (flat = none).
    pub topology: FaultTopology,
    /// Mean wall-clock repair time after a full failure, days; `0`
    /// disables repair (fail-in-place, the pre-repair behavior).
    pub repair_days: f64,
}

impl FaultModel {
    /// The disabled model: a strict, zero-cost identity.
    pub fn none() -> Self {
        Self {
            enabled: false,
            afrs: ComponentAfrs { per_dimm: 0.0, per_ssd: 0.0, other: 0.0 },
            fip: FipPolicy::disabled(),
            afr_scale: 0.0,
            horizon_years: 0.0,
            degrade_core_fraction: 0.0,
            degrade_mem_fraction: 0.0,
            max_evac_passes: 1,
            seed: 0,
            topology: FaultTopology::flat(),
            repair_days: 0.0,
        }
    }

    /// An enabled model at the paper's AFR/FIP operating point: one
    /// year of failures compressed onto the trace horizon, and each
    /// FIP-absorbed event costing 1/32 of the cores and 1/16 of the
    /// memory (≈ one DIMM's worth) of the struck server.
    pub fn paper(seed: u64) -> Self {
        Self {
            enabled: true,
            afrs: ComponentAfrs::paper(),
            fip: FipPolicy::paper(),
            afr_scale: 1.0,
            horizon_years: 1.0,
            degrade_core_fraction: 1.0 / 32.0,
            degrade_mem_fraction: 1.0 / 16.0,
            max_evac_passes: 3,
            seed,
            topology: FaultTopology::flat(),
            repair_days: 0.0,
        }
    }

    /// Validates and enables a fully custom model.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        afrs: ComponentAfrs,
        fip: FipPolicy,
        afr_scale: f64,
        horizon_years: f64,
        degrade_core_fraction: f64,
        degrade_mem_fraction: f64,
        max_evac_passes: u32,
        seed: u64,
    ) -> Result<Self, MaintenanceError> {
        let model = Self {
            enabled: true,
            afrs,
            fip,
            afr_scale,
            horizon_years,
            degrade_core_fraction,
            degrade_mem_fraction,
            max_evac_passes: max_evac_passes.max(1),
            seed,
            topology: FaultTopology::flat(),
            repair_days: 0.0,
        };
        model.validate()?;
        Ok(model)
    }

    /// Replaces the fault-domain topology, re-validating.
    pub fn with_topology(mut self, topology: FaultTopology) -> Result<Self, MaintenanceError> {
        self.topology = topology;
        self.validate()?;
        Ok(self)
    }

    /// Replaces the mean repair time (days; `0` = fail-in-place),
    /// re-validating.
    pub fn with_repair_days(mut self, repair_days: f64) -> Result<Self, MaintenanceError> {
        self.repair_days = repair_days;
        self.validate()?;
        Ok(self)
    }

    /// Whether this is the disabled identity model.
    pub fn is_none(&self) -> bool {
        !self.enabled
    }

    /// Checks every numeric field against its constraint.
    pub fn validate(&self) -> Result<(), MaintenanceError> {
        check_non_negative("afrs.per_dimm", self.afrs.per_dimm)?;
        check_non_negative("afrs.per_ssd", self.afrs.per_ssd)?;
        check_non_negative("afrs.other", self.afrs.other)?;
        check_fraction("fip.effectiveness", self.fip.effectiveness)?;
        check_non_negative("afr_scale", self.afr_scale)?;
        check_non_negative("horizon_years", self.horizon_years)?;
        check_fraction("degrade_core_fraction", self.degrade_core_fraction)?;
        check_fraction("degrade_mem_fraction", self.degrade_mem_fraction)?;
        check_non_negative("topology.domain_events_per_100", self.topology.domain_events_per_100)?;
        check_non_negative("repair_days", self.repair_days)?;
        Ok(())
    }

    /// Structural signature for memoization keys: two models with equal
    /// signatures generate identical plans for every cluster/trace.
    pub fn signature(&self) -> Vec<u64> {
        vec![
            u64::from(self.enabled),
            self.afrs.per_dimm.to_bits(),
            self.afrs.per_ssd.to_bits(),
            self.afrs.other.to_bits(),
            self.fip.effectiveness.to_bits(),
            self.afr_scale.to_bits(),
            self.horizon_years.to_bits(),
            self.degrade_core_fraction.to_bits(),
            self.degrade_mem_fraction.to_bits(),
            u64::from(self.max_evac_passes),
            self.seed,
            u64::from(self.topology.domain_size),
            self.topology.domain_events_per_100.to_bits(),
            self.repair_days.to_bits(),
        ]
    }

    /// Samples a fault plan for `config` over a trace of `duration_s`
    /// seconds. Deterministic in (model, config, duration).
    pub fn plan(
        &self,
        config: &ClusterConfig,
        baseline: PoolDevices,
        green: PoolDevices,
        duration_s: f64,
    ) -> FaultPlan {
        if !self.enabled || duration_s <= 0.0 {
            return FaultPlan::empty();
        }
        let factory = SeedFactory::new(self.seed);
        let mut events = Vec::new();
        self.sample_pool(
            &factory,
            "faults/baseline",
            FaultPool::Baseline,
            config.baseline_count,
            config.baseline_shape,
            baseline,
            duration_s,
            &mut events,
        );
        self.sample_pool(
            &factory,
            "faults/green",
            FaultPool::Green,
            config.green_count,
            config.green_shape,
            green,
            duration_s,
            &mut events,
        );
        self.sample_domains(
            &factory,
            "faults/baseline",
            FaultPool::Baseline,
            config.baseline_count,
            duration_s,
            &mut events,
        );
        self.sample_domains(
            &factory,
            "faults/green",
            FaultPool::Green,
            config.green_count,
            duration_s,
            &mut events,
        );
        // Every event above targets `0..count` of its pool at a finite
        // non-negative time, so validation is statically satisfied; the
        // fallback only guards against a future generator bug.
        FaultPlan::new(events, self.max_evac_passes, config.baseline_count, config.green_count)
            .unwrap_or_else(|_| FaultPlan::empty())
    }

    /// Exponential sampler for repair durations, or `None` when repair
    /// is off. Sampled values are wall-clock days with mean
    /// `repair_days`; [`Self::repair_to_trace_s`] compresses them onto
    /// the trace horizon.
    fn repair_sampler(&self) -> Option<Exponential> {
        if self.repair_days <= 0.0 {
            return None;
        }
        Exponential::new(1.0 / self.repair_days).ok()
    }

    /// Converts a sampled wall-clock repair duration (days) to trace
    /// seconds, under the same horizon compression the AFRs use: the
    /// trace's `duration_s` stands in for `horizon_years` of wall
    /// clock.
    fn repair_to_trace_s(&self, repair_days_sampled: f64, duration_s: f64) -> f64 {
        repair_days_sampled / (self.horizon_years * 365.0) * duration_s
    }

    #[allow(clippy::too_many_arguments)]
    fn sample_pool(
        &self,
        factory: &SeedFactory,
        label: &str,
        pool: FaultPool,
        count: u32,
        shape: ServerShape,
        devices: PoolDevices,
        duration_s: f64,
        out: &mut Vec<FaultEvent>,
    ) {
        let afr = ServerAfr::new(&self.afrs, devices.dimms, devices.ssds);
        // Expected failures per server over the (compressed) horizon.
        let expected = afr.total / 100.0 * self.afr_scale * self.horizon_years;
        if expected <= 0.0 || afr.total <= 0.0 {
            return;
        }
        let Ok(gap) = Exponential::new(expected / duration_s) else {
            return;
        };
        let p_partial =
            (self.fip.effectiveness * afr.repairable_by_fip / afr.total).clamp(0.0, 1.0);
        let cores_lost = (f64::from(shape.cores) * self.degrade_core_fraction).round() as u32;
        let mem_lost_gb = shape.mem_gb * self.degrade_mem_fraction;
        let repair = self.repair_sampler();
        for server in 0..count {
            let mut rng = factory.stream_indexed(label, u64::from(server));
            let mut t = gap.sample(&mut rng);
            while t < duration_s {
                if rng.gen::<f64>() < p_partial {
                    out.push(FaultEvent {
                        time_s: t,
                        pool,
                        server,
                        kind: FaultKind::PartialDegrade { cores_lost, mem_lost_gb },
                    });
                    t += gap.sample(&mut rng);
                } else {
                    out.push(FaultEvent { time_s: t, pool, server, kind: FaultKind::FullFailure });
                    match &repair {
                        // Fail-in-place: the server stays down; later
                        // samples for it would strike a corpse. With
                        // repair off this draws exactly the sequence
                        // the pre-repair model drew, keeping plans
                        // bit-identical.
                        None => break,
                        Some(repair_gap) => {
                            // Repair: the server returns to service
                            // empty after a sampled duration (possibly
                            // past the horizon — the replay ignores
                            // those identically in every engine), and
                            // its failure clock restarts afterwards.
                            let back =
                                t + self.repair_to_trace_s(repair_gap.sample(&mut rng), duration_s);
                            out.push(FaultEvent {
                                time_s: back,
                                pool,
                                server,
                                kind: FaultKind::Revive,
                            });
                            t = back + gap.sample(&mut rng);
                        }
                    }
                }
            }
        }
    }

    /// Samples correlated domain events for one pool: each fault domain
    /// has its own stream (indexed by domain id, so growing a pool
    /// leaves existing domains' schedules unchanged), and each event
    /// strikes every member with a full failure at the same instant —
    /// FIP cannot absorb a rack-level power loss. With repair enabled,
    /// one repair duration is sampled per event and every member
    /// revives together.
    fn sample_domains(
        &self,
        factory: &SeedFactory,
        label: &str,
        pool: FaultPool,
        count: u32,
        duration_s: f64,
        out: &mut Vec<FaultEvent>,
    ) {
        let size = self.topology.domain_size;
        if size == 0 || count == 0 {
            return;
        }
        let expected =
            self.topology.domain_events_per_100 / 100.0 * self.afr_scale * self.horizon_years;
        if expected <= 0.0 {
            return;
        }
        let Ok(gap) = Exponential::new(expected / duration_s) else {
            return;
        };
        let repair = self.repair_sampler();
        let label = format!("{label}/domain");
        for domain in 0..count.div_ceil(size) {
            let lo = domain * size;
            let hi = (lo + size).min(count);
            let mut rng = factory.stream_indexed(&label, u64::from(domain));
            let mut t = gap.sample(&mut rng);
            while t < duration_s {
                for server in lo..hi {
                    out.push(FaultEvent { time_s: t, pool, server, kind: FaultKind::FullFailure });
                }
                match &repair {
                    // Without repair one domain event kills the whole
                    // domain for good; further events would be no-ops.
                    None => break,
                    Some(repair_gap) => {
                        let back =
                            t + self.repair_to_trace_s(repair_gap.sample(&mut rng), duration_s);
                        for server in lo..hi {
                            out.push(FaultEvent {
                                time_s: back,
                                pool,
                                server,
                                kind: FaultKind::Revive,
                            });
                        }
                        t = back + gap.sample(&mut rng);
                    }
                }
            }
        }
    }

    /// First-order expected fraction of the cluster's core capacity
    /// lost to failures by the end of the horizon — the fault analogue
    /// of the growth buffer's `capacity_fraction`, reported alongside
    /// it by the pipeline. Zero for the disabled model.
    pub fn expected_capacity_loss(
        &self,
        config: &ClusterConfig,
        baseline: PoolDevices,
        green: PoolDevices,
    ) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        let total_cores = config.total_cores();
        if total_cores == 0 {
            return 0.0;
        }
        let pool_loss = |devices: PoolDevices| -> f64 {
            let afr = ServerAfr::new(&self.afrs, devices.dimms, devices.ssds);
            if afr.total <= 0.0 {
                return 0.0;
            }
            let rate = afr.total / 100.0 * self.afr_scale * self.horizon_years;
            let p_partial =
                (self.fip.effectiveness * afr.repairable_by_fip / afr.total).clamp(0.0, 1.0);
            // Full failures remove the whole server; partials shave a
            // core fraction each. Both truncated at total loss.
            let p_full = 1.0 - (-rate * (1.0 - p_partial)).exp();
            (p_full + rate * p_partial * self.degrade_core_fraction).min(1.0)
        };
        let baseline_cores =
            f64::from(config.baseline_count) * f64::from(config.baseline_shape.cores);
        let green_cores = f64::from(config.green_count) * f64::from(config.green_shape.cores);
        (baseline_cores * pool_loss(baseline) + green_cores * pool_loss(green))
            / (baseline_cores + green_cores)
    }
}

impl Default for FaultModel {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn config() -> ClusterConfig {
        ClusterConfig::mixed(40, 30)
    }

    #[test]
    fn none_generates_empty_plans_and_zero_loss() {
        let model = FaultModel::none();
        assert!(model.is_none());
        let plan =
            model.plan(&config(), PoolDevices::baseline(), PoolDevices::greensku_full(), 86_400.0);
        assert!(plan.is_empty());
        assert_eq!(
            model.expected_capacity_loss(
                &config(),
                PoolDevices::baseline(),
                PoolDevices::greensku_full()
            ),
            0.0
        );
    }

    #[test]
    fn plans_are_seed_deterministic() {
        let model = FaultModel::paper(7);
        let gen = || {
            model.plan(&config(), PoolDevices::baseline(), PoolDevices::greensku_full(), 86_400.0)
        };
        assert_eq!(gen(), gen());
        // A different seed gives a different plan (with the paper AFRs
        // scaled up enough that events certainly exist).
        let mut scaled = FaultModel::paper(7);
        scaled.afr_scale = 50.0;
        let mut scaled2 = scaled;
        scaled2.seed = 8;
        let a =
            scaled.plan(&config(), PoolDevices::baseline(), PoolDevices::greensku_full(), 86_400.0);
        let b = scaled2.plan(
            &config(),
            PoolDevices::baseline(),
            PoolDevices::greensku_full(),
            86_400.0,
        );
        assert!(!a.is_empty());
        assert_ne!(a, b);
    }

    #[test]
    fn growing_the_pool_preserves_existing_servers_schedules() {
        let mut model = FaultModel::paper(11);
        model.afr_scale = 50.0;
        let devices = (PoolDevices::baseline(), PoolDevices::greensku_full());
        let small = model.plan(&ClusterConfig::mixed(10, 0), devices.0, devices.1, 86_400.0);
        let large = model.plan(&ClusterConfig::mixed(11, 0), devices.0, devices.1, 86_400.0);
        let events_for = |plan: &FaultPlan, server: u32| -> Vec<FaultEvent> {
            plan.events().iter().copied().filter(|e| e.server == server).collect()
        };
        for server in 0..10 {
            assert_eq!(events_for(&small, server), events_for(&large, server));
        }
    }

    #[test]
    fn afr_scale_increases_event_count() {
        let mut lo = FaultModel::paper(3);
        lo.afr_scale = 5.0;
        let mut hi = FaultModel::paper(3);
        hi.afr_scale = 80.0;
        let devices = (PoolDevices::baseline(), PoolDevices::greensku_full());
        let n_lo = lo.plan(&config(), devices.0, devices.1, 86_400.0).len();
        let n_hi = hi.plan(&config(), devices.0, devices.1, 86_400.0).len();
        assert!(n_hi > n_lo, "scaling AFR 16x should add events ({n_lo} vs {n_hi})");
    }

    #[test]
    fn full_failure_is_terminal_per_server() {
        let mut model = FaultModel::paper(5);
        model.afr_scale = 200.0;
        let plan = model.plan(
            &ClusterConfig::mixed(20, 0),
            PoolDevices::baseline(),
            PoolDevices::greensku_full(),
            86_400.0,
        );
        // No server may have events after its full failure.
        for server in 0..20 {
            let mut failed = false;
            for e in plan.events().iter().filter(|e| e.server == server) {
                assert!(!failed, "server {server} has an event after its full failure");
                if e.kind == FaultKind::FullFailure {
                    failed = true;
                }
            }
        }
    }

    #[test]
    fn fip_effectiveness_shifts_failures_to_partials() {
        let mut no_fip = FaultModel::paper(9);
        no_fip.afr_scale = 60.0;
        no_fip.fip = FipPolicy::disabled();
        let mut full_fip = no_fip;
        full_fip.fip = FipPolicy { effectiveness: 1.0 };
        let devices = (PoolDevices::baseline(), PoolDevices::greensku_full());
        let count = |plan: &FaultPlan| {
            plan.events().iter().filter(|e| e.kind == FaultKind::FullFailure).count()
        };
        let fulls_no_fip = count(&no_fip.plan(&config(), devices.0, devices.1, 86_400.0));
        let fulls_full_fip = count(&full_fip.plan(&config(), devices.0, devices.1, 86_400.0));
        assert!(
            fulls_full_fip < fulls_no_fip,
            "FIP at 1.0 must absorb failures ({fulls_full_fip} vs {fulls_no_fip})"
        );
    }

    #[test]
    fn expected_loss_scales_with_afr_and_is_bounded() {
        let devices = (PoolDevices::baseline(), PoolDevices::greensku_full());
        let loss_at = |scale: f64| {
            let mut m = FaultModel::paper(1);
            m.afr_scale = scale;
            m.expected_capacity_loss(&config(), devices.0, devices.1)
        };
        let l1 = loss_at(1.0);
        let l10 = loss_at(10.0);
        assert!(l1 > 0.0 && l1 < 0.1);
        assert!(l10 > l1);
        assert!(loss_at(1e6) <= 1.0);
    }

    #[test]
    fn new_rejects_invalid_parameters() {
        let afrs = ComponentAfrs::paper();
        let fip = FipPolicy::paper();
        assert!(FaultModel::new(afrs, fip, f64::NAN, 1.0, 0.1, 0.1, 3, 0).is_err());
        assert!(FaultModel::new(afrs, fip, -1.0, 1.0, 0.1, 0.1, 3, 0).is_err());
        assert!(FaultModel::new(afrs, fip, 1.0, 1.0, 1.5, 0.1, 3, 0).is_err());
        assert!(FaultModel::new(afrs, fip, 1.0, 1.0, 0.1, -0.1, 3, 0).is_err());
        assert!(FaultModel::new(afrs, FipPolicy { effectiveness: 2.0 }, 1.0, 1.0, 0.1, 0.1, 3, 0)
            .is_err());
        assert!(FaultModel::new(afrs, fip, 1.0, 1.0, 0.1, 0.1, 3, 0).is_ok());
    }

    #[test]
    fn builders_reject_invalid_topology_and_repair() {
        let model = FaultModel::paper(1);
        assert!(model
            .with_topology(FaultTopology { domain_size: 4, domain_events_per_100: -1.0 })
            .is_err());
        assert!(model
            .with_topology(FaultTopology { domain_size: 4, domain_events_per_100: f64::NAN })
            .is_err());
        assert!(model.with_repair_days(-2.0).is_err());
        assert!(model.with_repair_days(f64::INFINITY).is_err());
        assert!(model.with_topology(FaultTopology::rack(8)).is_ok());
        assert!(model.with_repair_days(3.0).is_ok());
    }

    #[test]
    fn flat_topology_and_no_repair_generate_the_pre_repair_plan() {
        // The explicit "everything off" configuration must be
        // bit-identical to the plain paper model — the recovery of the
        // old engine as a special case.
        let mut base = FaultModel::paper(13);
        base.afr_scale = 60.0;
        let configured =
            base.with_topology(FaultTopology::flat()).unwrap().with_repair_days(0.0).unwrap();
        let devices = (PoolDevices::baseline(), PoolDevices::greensku_full());
        let a = base.plan(&config(), devices.0, devices.1, 86_400.0);
        let b = configured.plan(&config(), devices.0, devices.1, 86_400.0);
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn repair_schedules_a_revive_after_every_full_failure() {
        let mut model = FaultModel::paper(5);
        model.afr_scale = 200.0;
        let model = model.with_repair_days(3.0).unwrap();
        let plan = model.plan(
            &ClusterConfig::mixed(20, 0),
            PoolDevices::baseline(),
            PoolDevices::greensku_full(),
            86_400.0,
        );
        let mut fulls = 0usize;
        for server in 0..20u32 {
            // Per server, events alternate … FullFailure → Revive …;
            // a second failure can only follow a revive.
            let mut down = false;
            for e in plan.events().iter().filter(|e| e.server == server) {
                match e.kind {
                    FaultKind::FullFailure => {
                        assert!(!down, "server {server} failed while already down");
                        down = true;
                        fulls += 1;
                    }
                    FaultKind::Revive => {
                        assert!(down, "server {server} revived while up");
                        down = false;
                    }
                    FaultKind::PartialDegrade { .. } => {}
                }
            }
        }
        assert!(fulls > 0, "AFR x200 must produce failures");
        let revives = plan.events().iter().filter(|e| matches!(e.kind, FaultKind::Revive)).count();
        // Every failure schedules its repair (some may land past the
        // horizon but are still in the plan).
        assert_eq!(revives, fulls);
    }

    #[test]
    fn domain_events_strike_and_revive_every_member_together() {
        // Zero per-server AFRs: only domain events remain.
        let afrs = ComponentAfrs { per_dimm: 0.0, per_ssd: 0.0, other: 0.0 };
        let model = FaultModel::new(afrs, FipPolicy::disabled(), 50.0, 1.0, 0.0, 0.0, 3, 21)
            .unwrap()
            .with_topology(FaultTopology { domain_size: 4, domain_events_per_100: 40.0 })
            .unwrap()
            .with_repair_days(5.0)
            .unwrap();
        let plan = model.plan(
            &ClusterConfig::mixed(10, 0),
            PoolDevices::baseline(),
            PoolDevices::greensku_full(),
            86_400.0,
        );
        assert!(!plan.is_empty(), "domain rate x50 over 3 domains must produce events");
        // Group by bit-equal strike time: every failure group covers a
        // whole domain (4 servers, or the 2-server tail domain), with
        // contiguous indices from a domain boundary.
        let mut by_time: std::collections::BTreeMap<u64, Vec<u32>> =
            std::collections::BTreeMap::new();
        for e in plan.events().iter().filter(|e| e.kind == FaultKind::FullFailure) {
            by_time.entry(e.time_s.to_bits()).or_default().push(e.server);
        }
        assert!(!by_time.is_empty());
        for (_, mut members) in by_time {
            members.sort_unstable();
            let lo = members[0];
            assert_eq!(lo % 4, 0, "domain strike must start at a domain boundary");
            let expected_len = if lo == 8 { 2 } else { 4 };
            assert_eq!(members.len(), expected_len, "domain at {lo} struck partially");
            for (i, m) in members.iter().enumerate() {
                assert_eq!(*m, lo + i as u32);
            }
        }
        assert_eq!(plan.max_correlated_strikes(), 4);
        // Determinism: same model, same plan.
        let again = model.plan(
            &ClusterConfig::mixed(10, 0),
            PoolDevices::baseline(),
            PoolDevices::greensku_full(),
            86_400.0,
        );
        assert_eq!(plan, again);
    }

    #[test]
    fn signature_distinguishes_topology_and_repair() {
        let base = FaultModel::paper(3);
        let rack = base.with_topology(FaultTopology::rack(8)).unwrap();
        let repaired = base.with_repair_days(3.0).unwrap();
        assert_ne!(base.signature(), rack.signature());
        assert_ne!(base.signature(), repaired.signature());
        assert_ne!(rack.signature(), repaired.signature());
        assert_eq!(base.signature().len(), 14);
    }
}
