//! Discrete-event simulation of a latency-critical service on one VM.
//!
//! Open-loop Poisson arrivals feed a FIFO queue served by `cores`
//! identical workers; per-request service times are lognormal (or
//! exponential, for cross-validation against the analytic M/M/c model).
//!
//! For a FIFO multi-server queue with identical servers, dispatching each
//! arrival (in arrival order) to the earliest-free worker is equivalent
//! to simulating the queue explicitly, so the core loop is a simple
//! min-heap over worker free times — fast enough to run the full Fig. 7
//! sweep in tests.

use gsf_stats::dist::{Exponential, LogNormal};
use gsf_stats::percentile::Percentiles;
use gsf_stats::rng::SimRng;
use rand::distributions::Distribution;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Service-time distribution family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceDist {
    /// Lognormal with the given sigma (the default; right-skewed tails).
    LogNormal {
        /// Sigma of the underlying normal.
        sigma: f64,
    },
    /// Exponential (memoryless) — matches the analytic M/M/c model.
    Exponential,
}

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesConfig {
    /// Number of worker cores in the VM.
    pub cores: u32,
    /// Offered load in queries per second.
    pub qps: f64,
    /// Mean per-request service time in milliseconds.
    pub mean_service_ms: f64,
    /// Service-time distribution.
    pub dist: ServiceDist,
    /// Number of requests to simulate (including warm-up).
    pub requests: usize,
    /// Fraction of leading requests discarded as warm-up.
    pub warmup_fraction: f64,
}

impl DesConfig {
    /// Offered utilization `λ·E[S]/c`.
    pub fn utilization(&self) -> f64 {
        self.qps * (self.mean_service_ms / 1000.0) / f64::from(self.cores)
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct DesResult {
    /// Mean response time (queueing + service), milliseconds.
    pub mean_ms: f64,
    /// 95th-percentile response time, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile response time, milliseconds.
    pub p99_ms: f64,
    /// Number of measured (post-warm-up) requests.
    pub measured: usize,
    /// Offered utilization of the run.
    pub utilization: f64,
    /// Completed-work throughput over the measured window, QPS.
    pub throughput_qps: f64,
}

/// Simulates the configured queue and returns the raw post-warm-up
/// response-time samples in milliseconds (for distribution-level
/// validation, e.g. KS tests against the analytic model).
///
/// # Panics
///
/// Same contract as [`simulate`].
pub fn response_samples(config: &DesConfig, rng: &mut SimRng) -> Vec<f64> {
    run(config, rng).0.into_sorted()
}

/// Simulates the configured queue.
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero cores, non-positive
/// QPS or service time, zero requests) — these indicate programmer
/// error, not data error, in the sweep harnesses.
pub fn simulate(config: &DesConfig, rng: &mut SimRng) -> DesResult {
    let (mut latencies, measured, span) = run(config, rng);
    DesResult {
        mean_ms: latencies.mean().unwrap_or(0.0),
        p95_ms: latencies.p95().unwrap_or(0.0),
        p99_ms: latencies.p99().unwrap_or(0.0),
        measured,
        utilization: config.utilization(),
        throughput_qps: measured as f64 / span,
    }
}

/// Core event loop shared by [`simulate`] and [`response_samples`].
///
/// # Panics
///
/// Panics on a non-positive core count, arrival rate, service time,
/// or request budget; both public callers build validated configs.
fn run(config: &DesConfig, rng: &mut SimRng) -> (Percentiles, usize, f64) {
    assert!(config.cores > 0, "cores must be positive");
    assert!(config.qps > 0.0, "qps must be positive");
    assert!(config.mean_service_ms > 0.0, "service time must be positive");
    assert!(config.requests > 0, "requests must be positive");

    let inter = Exponential::new(config.qps).expect("validated above");
    let mean_s = config.mean_service_ms / 1000.0;
    enum Sampler {
        Log(LogNormal),
        Exp(Exponential),
    }
    let service = match config.dist {
        ServiceDist::LogNormal { sigma } => {
            Sampler::Log(LogNormal::with_mean(mean_s, sigma).expect("validated above"))
        }
        ServiceDist::Exponential => {
            Sampler::Exp(Exponential::with_mean(mean_s).expect("validated above"))
        }
    };

    // Min-heap of worker free times. Times in seconds as ordered f64 bits
    // (all non-negative finite, so bit ordering matches numeric order).
    let mut free: BinaryHeap<Reverse<u64>> =
        (0..config.cores).map(|_| Reverse(0f64.to_bits())).collect();

    let warmup = ((config.requests as f64) * config.warmup_fraction) as usize;
    let mut latencies = Percentiles::with_capacity(config.requests - warmup);
    let mut t_arrival = 0.0f64;
    let mut first_measured_completion = f64::INFINITY;
    let mut last_completion = 0.0f64;
    let mut measured = 0usize;

    for i in 0..config.requests {
        t_arrival += inter.sample(rng);
        let s = match &service {
            Sampler::Log(d) => d.sample(rng),
            Sampler::Exp(d) => d.sample(rng),
        };
        let Reverse(bits) = free.pop().expect("at least one core");
        let core_free = f64::from_bits(bits);
        let start = core_free.max(t_arrival);
        let done = start + s;
        free.push(Reverse(done.to_bits()));
        if i >= warmup {
            latencies.record((done - t_arrival) * 1000.0);
            measured += 1;
            first_measured_completion = first_measured_completion.min(done);
            last_completion = last_completion.max(done);
        }
    }

    let span = (last_completion - first_measured_completion).max(f64::MIN_POSITIVE);
    (latencies, measured, span)
}

/// Runs `trials` independent simulations and returns their p95 samples
/// (for the 99 % confidence intervals the paper reports).
pub fn p95_trials(config: &DesConfig, rngs: &mut [SimRng]) -> Vec<f64> {
    rngs.iter_mut().map(|rng| simulate(config, rng).p95_ms).collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::analytic::MmcQueue;
    use gsf_stats::rng::SeedFactory;

    fn rng(label: &str) -> SimRng {
        SeedFactory::new(42).stream(label)
    }

    fn config(cores: u32, qps: f64, dist: ServiceDist) -> DesConfig {
        DesConfig { cores, qps, mean_service_ms: 2.0, dist, requests: 60_000, warmup_fraction: 0.1 }
    }

    #[test]
    fn low_load_latency_near_service_time() {
        // At 10 % utilization queueing is negligible: mean ≈ E[S].
        let c = config(8, 400.0, ServiceDist::LogNormal { sigma: 0.8 });
        let r = simulate(&c, &mut rng("low"));
        assert!((r.mean_ms - 2.0).abs() < 0.15, "mean {}", r.mean_ms);
        assert!(r.p95_ms > r.mean_ms);
        assert!(r.p99_ms >= r.p95_ms);
    }

    #[test]
    fn latency_monotone_in_load() {
        let mut prev = 0.0;
        for qps in [400.0, 2000.0, 3200.0, 3800.0] {
            let c = config(8, qps, ServiceDist::LogNormal { sigma: 0.8 });
            let r = simulate(&c, &mut rng("mono"));
            assert!(r.p95_ms > prev * 0.95, "p95 should grow with load: {} at {qps}", r.p95_ms);
            prev = r.p95_ms;
        }
    }

    #[test]
    fn matches_analytic_mmc_mean() {
        // Exponential service: compare against Erlang-C mean response.
        let c = config(8, 3000.0, ServiceDist::Exponential);
        let r = simulate(&c, &mut rng("mmc"));
        let q = MmcQueue::new(8, 3000.0, 2.0).unwrap();
        let analytic = q.mean_response_ms();
        assert!(
            (r.mean_ms - analytic).abs() / analytic < 0.08,
            "sim {} vs analytic {analytic}",
            r.mean_ms
        );
    }

    #[test]
    fn matches_analytic_mmc_p95() {
        let c = config(4, 1500.0, ServiceDist::Exponential);
        let r = simulate(&c, &mut rng("mmc95"));
        let q = MmcQueue::new(4, 1500.0, 2.0).unwrap();
        let analytic = q.p95_response_ms();
        assert!(
            (r.p95_ms - analytic).abs() / analytic < 0.10,
            "sim {} vs analytic {analytic}",
            r.p95_ms
        );
    }

    #[test]
    fn throughput_tracks_offered_load_below_saturation() {
        let c = config(8, 3000.0, ServiceDist::LogNormal { sigma: 0.8 });
        let r = simulate(&c, &mut rng("tput"));
        assert!((r.throughput_qps - 3000.0).abs() / 3000.0 < 0.05, "{}", r.throughput_qps);
    }

    #[test]
    fn deterministic_given_seed() {
        let c = config(8, 2000.0, ServiceDist::LogNormal { sigma: 0.8 });
        let a = simulate(&c, &mut rng("det"));
        let b = simulate(&c, &mut rng("det"));
        assert_eq!(a, b);
    }

    #[test]
    fn more_cores_reduce_tail_latency_at_fixed_load() {
        let slow =
            simulate(&config(8, 3500.0, ServiceDist::LogNormal { sigma: 0.8 }), &mut rng("c8"));
        let fast =
            simulate(&config(12, 3500.0, ServiceDist::LogNormal { sigma: 0.8 }), &mut rng("c12"));
        assert!(fast.p95_ms < slow.p95_ms);
    }

    #[test]
    fn trials_produce_independent_samples() {
        let c = config(8, 3000.0, ServiceDist::LogNormal { sigma: 0.8 });
        let seeds = SeedFactory::new(9);
        let mut rngs: Vec<SimRng> = (0..3).map(|i| seeds.stream_indexed("trial", i)).collect();
        let samples = p95_trials(&c, &mut rngs);
        assert_eq!(samples.len(), 3);
        assert!(samples[0] != samples[1] || samples[1] != samples[2]);
    }

    #[test]
    #[should_panic(expected = "qps must be positive")]
    fn rejects_zero_qps() {
        let mut c = config(8, 100.0, ServiceDist::Exponential);
        c.qps = 0.0;
        simulate(&c, &mut rng("bad"));
    }
}
