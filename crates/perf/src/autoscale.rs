//! Run-time autoscaling on GreenSKUs (§VIII, "Scheduling real-time
//! applications").
//!
//! The paper leaves post-deployment runtime systems as future work but
//! names the opportunity: auto-scalers can improve GreenSKUs'
//! performance during load changes. This module implements that
//! evaluation: a reactive core-count controller driven by the analytic
//! M/M/c model, stepped over a diurnal load profile, compared against
//! static peak provisioning on core-hours and SLO attainment.

use crate::analytic::MmcQueue;
use crate::sku::{MemoryPlacement, SkuPerfProfile};
use crate::slowdown::slowdown;
use gsf_workloads::{ApplicationModel, ServiceProfile};

/// Autoscaler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Minimum VM cores.
    pub min_cores: u32,
    /// Maximum VM cores.
    pub max_cores: u32,
    /// Target p95 latency (the SLO), milliseconds.
    pub slo_p95_ms: f64,
    /// Headroom: scale so predicted p95 stays below `slo × headroom`.
    pub headroom: f64,
    /// Control interval, minutes.
    pub interval_minutes: f64,
}

impl AutoscaleConfig {
    /// A sensible default: 2–16 cores, 10 % headroom, 5-minute control
    /// loop.
    pub fn new(slo_p95_ms: f64) -> Self {
        Self { min_cores: 2, max_cores: 16, slo_p95_ms, headroom: 0.9, interval_minutes: 5.0 }
    }
}

/// One control-interval record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleStep {
    /// Minutes since start.
    pub minute: f64,
    /// Offered load during the interval, QPS.
    pub qps: f64,
    /// Cores allocated for the interval.
    pub cores: u32,
    /// Predicted p95 at that allocation, ms (`None` if overloaded).
    pub p95_ms: Option<f64>,
}

/// Result of an autoscaling run.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscaleOutcome {
    /// Per-interval trajectory.
    pub steps: Vec<AutoscaleStep>,
    /// Total core-hours consumed.
    pub core_hours: f64,
    /// Fraction of intervals meeting the SLO.
    pub slo_attainment: f64,
}

impl AutoscaleOutcome {
    /// Core-hours a static allocation of `cores` would have consumed
    /// over the same horizon (interval-accurate).
    pub fn static_core_hours(&self, cores: u32) -> f64 {
        self.steps.len() as f64 * f64::from(cores) * self.interval_hours()
    }

    fn interval_hours(&self) -> f64 {
        if self.steps.len() >= 2 {
            (self.steps[1].minute - self.steps[0].minute) / 60.0
        } else {
            0.0
        }
    }
}

/// The reactive autoscaler: before each interval, picks the smallest
/// core count whose predicted p95 at the upcoming load stays under the
/// SLO with headroom.
#[derive(Debug, Clone)]
pub struct Autoscaler {
    app: ApplicationModel,
    sku: SkuPerfProfile,
    placement: MemoryPlacement,
    config: AutoscaleConfig,
}

impl Autoscaler {
    /// Creates an autoscaler for `app` on `sku`.
    ///
    /// # Panics
    ///
    /// Panics for throughput-only applications or inverted core bounds.
    pub fn new(
        app: ApplicationModel,
        sku: SkuPerfProfile,
        placement: MemoryPlacement,
        config: AutoscaleConfig,
    ) -> Self {
        assert!(!app.is_throughput_only(), "autoscaling targets latency-critical apps");
        assert!(config.min_cores >= 1 && config.min_cores <= config.max_cores);
        Self { app, sku, placement, config }
    }

    /// Mean service time of the app on this SKU, ms.
    ///
    /// # Panics
    ///
    /// Unreachable in practice: [`Self::new`] rejects throughput-only
    /// applications, the only case the service-profile lookup cannot
    /// handle.
    pub fn service_ms(&self) -> f64 {
        let ServiceProfile::LatencyCritical { base_service_ms, .. } = self.app.service() else {
            unreachable!("checked in constructor");
        };
        base_service_ms * slowdown(&self.app, &self.sku, self.placement)
    }

    /// Smallest core count meeting the SLO (with headroom) at `qps`, or
    /// `max_cores` if none does.
    pub fn cores_for(&self, qps: f64) -> u32 {
        let service = self.service_ms();
        for cores in self.config.min_cores..=self.config.max_cores {
            if let Ok(q) = MmcQueue::new(cores, qps, service) {
                if q.p95_response_ms() <= self.config.slo_p95_ms * self.config.headroom {
                    return cores;
                }
            }
        }
        self.config.max_cores
    }

    /// Runs the controller over a load profile given as per-interval QPS
    /// values.
    pub fn run(&self, load_qps: &[f64]) -> AutoscaleOutcome {
        let service = self.service_ms();
        let mut steps = Vec::with_capacity(load_qps.len());
        let mut met = 0usize;
        let mut core_hours = 0.0;
        for (i, &qps) in load_qps.iter().enumerate() {
            let cores = self.cores_for(qps);
            let p95 = MmcQueue::new(cores, qps, service).ok().map(|q| q.p95_response_ms());
            if p95.is_some_and(|v| v <= self.config.slo_p95_ms) {
                met += 1;
            }
            core_hours += f64::from(cores) * self.config.interval_minutes / 60.0;
            steps.push(AutoscaleStep {
                minute: i as f64 * self.config.interval_minutes,
                qps,
                cores,
                p95_ms: p95,
            });
        }
        AutoscaleOutcome {
            slo_attainment: if steps.is_empty() { 1.0 } else { met as f64 / steps.len() as f64 },
            steps,
            core_hours,
        }
    }
}

/// A diurnal QPS profile: `base·(1 + amplitude·sin(2πt/24h))`, sampled
/// every `interval_minutes` over `hours`.
pub fn diurnal_load(base_qps: f64, amplitude: f64, hours: f64, interval_minutes: f64) -> Vec<f64> {
    let steps = (hours * 60.0 / interval_minutes).ceil() as usize;
    (0..steps)
        .map(|i| {
            let t_h = i as f64 * interval_minutes / 60.0;
            base_qps * (1.0 + amplitude * (2.0 * std::f64::consts::PI * t_h / 24.0).sin())
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use gsf_workloads::catalog;

    fn scaler() -> Autoscaler {
        let app = catalog::by_name("Xapian").unwrap();
        // SLO: p95 of 12 ms (a loose Gen3-like target for the 2 ms app).
        Autoscaler::new(
            app,
            SkuPerfProfile::greensku_efficient(),
            MemoryPlacement::LocalOnly,
            AutoscaleConfig::new(12.0),
        )
    }

    #[test]
    fn cores_monotone_in_load() {
        let s = scaler();
        let mut prev = 0;
        for qps in [200.0, 800.0, 2000.0, 3500.0, 5000.0] {
            let cores = s.cores_for(qps);
            assert!(cores >= prev, "cores {cores} at {qps}");
            prev = cores;
        }
    }

    #[test]
    fn autoscaler_saves_core_hours_vs_static_peak() {
        let s = scaler();
        let load = diurnal_load(2500.0, 0.6, 48.0, 5.0);
        let outcome = s.run(&load);
        // Static provisioning must cover the peak load.
        let peak = load.iter().cloned().fold(0.0, f64::max);
        let static_cores = s.cores_for(peak);
        let static_hours = outcome.static_core_hours(static_cores);
        assert!(
            outcome.core_hours < 0.85 * static_hours,
            "autoscaled {} vs static {static_hours}",
            outcome.core_hours
        );
        // And still meet the SLO essentially always.
        assert!(outcome.slo_attainment > 0.98, "{}", outcome.slo_attainment);
    }

    #[test]
    fn saturating_load_pins_max_cores() {
        let s = scaler();
        // Far beyond 16 cores' capacity (~7300 QPS on Bergamo).
        let outcome = s.run(&[50_000.0]);
        assert_eq!(outcome.steps[0].cores, 16);
        assert!(outcome.steps[0].p95_ms.is_none());
        assert_eq!(outcome.slo_attainment, 0.0);
    }

    #[test]
    fn diurnal_profile_shape() {
        let load = diurnal_load(1000.0, 0.5, 24.0, 60.0);
        assert_eq!(load.len(), 24);
        let peak = load.iter().cloned().fold(0.0, f64::max);
        let trough = load.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((peak - 1500.0).abs() < 20.0);
        assert!((trough - 500.0).abs() < 20.0);
    }

    #[test]
    fn greensku_autoscaled_competitive_with_static_gen3() {
        // The §VIII opportunity: a GreenSKU with autoscaling can serve a
        // diurnal workload with fewer core-hours than a statically
        // peak-provisioned Gen3 VM, despite slower cores.
        let app = catalog::by_name("Xapian").unwrap();
        let load = diurnal_load(2200.0, 0.6, 24.0, 5.0);
        let peak = load.iter().cloned().fold(0.0, f64::max);

        let green = Autoscaler::new(
            app.clone(),
            SkuPerfProfile::greensku_efficient(),
            MemoryPlacement::LocalOnly,
            AutoscaleConfig::new(12.0),
        );
        let gen3_static = Autoscaler::new(
            app,
            SkuPerfProfile::gen3(),
            MemoryPlacement::LocalOnly,
            AutoscaleConfig::new(12.0),
        );
        let green_outcome = green.run(&load);
        let gen3_peak_cores = gen3_static.cores_for(peak);
        let gen3_static_hours = green_outcome.static_core_hours(gen3_peak_cores);
        assert!(
            green_outcome.core_hours < gen3_static_hours,
            "green autoscaled {} vs gen3 static {gen3_static_hours}",
            green_outcome.core_hours
        );
        assert!(green_outcome.slo_attainment > 0.98);
    }

    #[test]
    #[should_panic(expected = "latency-critical")]
    fn rejects_build_apps() {
        Autoscaler::new(
            catalog::by_name("Build-PHP").unwrap(),
            SkuPerfProfile::gen3(),
            MemoryPlacement::LocalOnly,
            AutoscaleConfig::new(10.0),
        );
    }
}
