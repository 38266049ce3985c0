//! Latency-vs-load sweeps: the machinery behind Figs. 7 and 8.

use crate::des::{self, DesConfig, ServiceDist};
use crate::sku::{MemoryPlacement, SkuPerfProfile};
use crate::slowdown::slowdown;
use gsf_stats::ci::ConfidenceInterval;
use gsf_stats::rng::SeedFactory;
use gsf_workloads::{ApplicationModel, ServiceProfile};

/// One measured point of a latency curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Offered load, queries per second.
    pub qps: f64,
    /// Mean p95 tail latency across trials, milliseconds; `None` when
    /// the configuration is saturated (utilization ≥ 1).
    pub p95_ms: Option<f64>,
    /// Half-width of the 99 % confidence interval across trials.
    pub ci99_half_width_ms: f64,
}

/// A latency-vs-load curve for one (application, SKU, cores) tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyCurve {
    /// Label, e.g. "GreenSKU-Efficient (10 cores)".
    pub label: String,
    /// VM core count.
    pub cores: u32,
    /// Saturation throughput `cores / mean_service`, QPS.
    pub peak_qps: f64,
    /// The measured points, in increasing load order.
    pub points: Vec<CurvePoint>,
}

impl LatencyCurve {
    /// The largest offered load at which the curve still meets
    /// `slo_ms` (p95 at or below the SLO); `None` if no point does.
    pub fn max_load_meeting_slo(&self, slo_ms: f64) -> Option<f64> {
        self.points
            .iter()
            .filter(|p| p.p95_ms.is_some_and(|v| v <= slo_ms))
            .map(|p| p.qps)
            .fold(None, |acc, q| Some(acc.map_or(q, |a: f64| a.max(q))))
    }
}

/// Sweep configuration for one application on one SKU.
#[derive(Debug, Clone)]
pub struct LoadSweep {
    app: ApplicationModel,
    sku: SkuPerfProfile,
    placement: MemoryPlacement,
    cores: u32,
    trials: u64,
    requests: usize,
}

impl LoadSweep {
    /// Creates a sweep for `app` on `sku` with `cores` VM cores.
    ///
    /// # Panics
    ///
    /// Panics if the application is throughput-only (builds have no
    /// latency curve) or `cores == 0`.
    pub fn new(
        app: ApplicationModel,
        sku: SkuPerfProfile,
        placement: MemoryPlacement,
        cores: u32,
    ) -> Self {
        assert!(cores > 0, "cores must be positive");
        assert!(!app.is_throughput_only(), "throughput-only apps have no latency curve");
        Self { app, sku, placement, cores, trials: 3, requests: 40_000 }
    }

    /// Overrides the number of trials (default 3, as the paper runs).
    pub fn with_trials(mut self, trials: u64) -> Self {
        self.trials = trials.max(1);
        self
    }

    /// Overrides requests per trial (default 40 000).
    pub fn with_requests(mut self, requests: usize) -> Self {
        self.requests = requests.max(1000);
        self
    }

    /// Mean per-request service time of this app on this SKU, ms.
    pub fn service_ms(&self) -> f64 {
        let (base, _) = self.service_params();
        base * slowdown(&self.app, &self.sku, self.placement)
    }

    /// Service-time parameters of the latency-critical profile.
    ///
    /// # Panics
    ///
    /// Unreachable in practice: the constructor rejects throughput-only
    /// applications.
    fn service_params(&self) -> (f64, f64) {
        match self.app.service() {
            ServiceProfile::LatencyCritical { base_service_ms, service_sigma } => {
                (base_service_ms, service_sigma)
            }
            ServiceProfile::ThroughputOnly { .. } => unreachable!("checked in constructor"),
        }
    }

    /// Saturation throughput of the configuration, QPS.
    pub fn peak_qps(&self) -> f64 {
        f64::from(self.cores) / (self.service_ms() / 1000.0)
    }

    /// Runs the sweep at the given offered loads (QPS).
    pub fn run(&self, seeds: &SeedFactory, loads: &[f64]) -> LatencyCurve {
        let (_, sigma) = self.service_params();
        let service_ms = self.service_ms();
        let peak = self.peak_qps();
        let points = loads
            .iter()
            .map(|&qps| {
                let config = DesConfig {
                    cores: self.cores,
                    qps,
                    mean_service_ms: service_ms,
                    dist: ServiceDist::LogNormal { sigma },
                    requests: self.requests,
                    warmup_fraction: 0.1,
                };
                if config.utilization() >= 0.99 {
                    return CurvePoint { qps, p95_ms: None, ci99_half_width_ms: 0.0 };
                }
                let samples: Vec<f64> = (0..self.trials)
                    .map(|t| {
                        let mut rng = seeds.stream_indexed(
                            &format!("{}-{}-{}-{qps}", self.app.name(), self.sku.name, self.cores),
                            t,
                        );
                        des::simulate(&config, &mut rng).p95_ms
                    })
                    .collect();
                let ci = ConfidenceInterval::from_samples(&samples, 0.99);
                CurvePoint {
                    qps,
                    p95_ms: Some(samples.iter().sum::<f64>() / samples.len() as f64),
                    ci99_half_width_ms: ci.map_or(0.0, |c| c.half_width()),
                }
            })
            .collect();
        LatencyCurve {
            label: format!("{} ({} cores)", self.sku.name, self.cores),
            cores: self.cores,
            peak_qps: peak,
            points,
        }
    }

    /// Standard load grid: fractions of `reference_peak_qps` from 30 % to
    /// 97.5 %, the range Figs. 7–8 plot.
    pub fn standard_loads(reference_peak_qps: f64) -> Vec<f64> {
        [0.3, 0.45, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 0.975]
            .iter()
            .map(|f| f * reference_peak_qps)
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use gsf_workloads::catalog;

    fn xapian_sweep(cores: u32) -> LoadSweep {
        LoadSweep::new(
            catalog::by_name("Xapian").unwrap(),
            SkuPerfProfile::gen3(),
            MemoryPlacement::LocalOnly,
            cores,
        )
        .with_requests(10_000)
    }

    #[test]
    fn peak_qps_matches_capacity() {
        let s = xapian_sweep(8);
        // Xapian: 2 ms base on Gen3 → 8 cores / 2 ms = 4000 QPS.
        assert!((s.peak_qps() - 4000.0).abs() < 1.0);
    }

    #[test]
    fn curve_monotone_and_saturates() {
        let s = xapian_sweep(8);
        let seeds = SeedFactory::new(5);
        let mut loads = LoadSweep::standard_loads(4000.0);
        loads.push(4200.0); // beyond saturation
        let curve = s.run(&seeds, &loads);
        assert_eq!(curve.points.len(), loads.len());
        // Last point saturated.
        assert!(curve.points.last().unwrap().p95_ms.is_none());
        // Latency at 90 % load exceeds latency at 30 %.
        let p30 = curve.points[0].p95_ms.unwrap();
        let p90 = curve.points[6].p95_ms.unwrap();
        assert!(p90 > p30);
    }

    #[test]
    fn slower_sku_has_lower_peak() {
        let gen3 = xapian_sweep(8);
        let green = LoadSweep::new(
            catalog::by_name("Xapian").unwrap(),
            SkuPerfProfile::greensku_efficient(),
            MemoryPlacement::LocalOnly,
            8,
        );
        assert!(green.peak_qps() < gen3.peak_qps());
        // Scaling to 12 cores more than recovers the gap.
        let green12 = LoadSweep::new(
            catalog::by_name("Xapian").unwrap(),
            SkuPerfProfile::greensku_efficient(),
            MemoryPlacement::LocalOnly,
            12,
        );
        assert!(green12.peak_qps() > gen3.peak_qps() * 0.98);
    }

    #[test]
    fn max_load_meeting_slo() {
        let curve = LatencyCurve {
            label: "x".into(),
            cores: 8,
            peak_qps: 100.0,
            points: vec![
                CurvePoint { qps: 30.0, p95_ms: Some(5.0), ci99_half_width_ms: 0.1 },
                CurvePoint { qps: 60.0, p95_ms: Some(9.0), ci99_half_width_ms: 0.1 },
                CurvePoint { qps: 90.0, p95_ms: Some(25.0), ci99_half_width_ms: 0.1 },
                CurvePoint { qps: 99.0, p95_ms: None, ci99_half_width_ms: 0.0 },
            ],
        };
        assert_eq!(curve.max_load_meeting_slo(10.0), Some(60.0));
        assert_eq!(curve.max_load_meeting_slo(1.0), None);
    }

    #[test]
    #[should_panic(expected = "throughput-only")]
    fn rejects_build_apps() {
        LoadSweep::new(
            catalog::by_name("Build-PHP").unwrap(),
            SkuPerfProfile::gen3(),
            MemoryPlacement::LocalOnly,
            8,
        );
    }
}
