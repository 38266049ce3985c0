//! Analytic M/M/c queueing model (Erlang-C), used two ways:
//!
//! - as a fast, deterministic stand-in for the discrete-event simulator
//!   inside large sweeps (scaling-factor search, low-load analysis), and
//! - as ground truth that cross-validates the simulator in tests.

use std::fmt;

/// Error constructing an [`MmcQueue`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueueError {
    /// Parameters were non-positive or non-finite.
    InvalidParams(String),
    /// The queue is overloaded (`λ ≥ c·μ`); steady state does not exist.
    Overloaded {
        /// Offered utilization λ/(cμ).
        utilization: f64,
    },
}

impl fmt::Display for QueueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueError::InvalidParams(msg) => write!(f, "invalid queue parameters: {msg}"),
            QueueError::Overloaded { utilization } => {
                write!(f, "queue overloaded at utilization {utilization:.3}")
            }
        }
    }
}

impl std::error::Error for QueueError {}

/// A stable M/M/c queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmcQueue {
    servers: u32,
    lambda_per_s: f64,
    mu_per_s: f64,
}

impl MmcQueue {
    /// Creates an M/M/c queue with `servers` workers, `qps` arrivals per
    /// second, and `mean_service_ms` mean service time.
    ///
    /// # Errors
    ///
    /// Returns [`QueueError::InvalidParams`] for non-positive inputs and
    /// [`QueueError::Overloaded`] when utilization ≥ 1.
    pub fn new(servers: u32, qps: f64, mean_service_ms: f64) -> Result<Self, QueueError> {
        if servers == 0 {
            return Err(QueueError::InvalidParams("servers must be positive".into()));
        }
        if !(qps.is_finite() && qps > 0.0) {
            return Err(QueueError::InvalidParams(format!("qps must be positive, got {qps}")));
        }
        if !(mean_service_ms.is_finite() && mean_service_ms > 0.0) {
            return Err(QueueError::InvalidParams(format!(
                "service time must be positive, got {mean_service_ms}"
            )));
        }
        let mu = 1000.0 / mean_service_ms;
        let rho = qps / (mu * f64::from(servers));
        if rho >= 1.0 {
            return Err(QueueError::Overloaded { utilization: rho });
        }
        Ok(Self { servers, lambda_per_s: qps, mu_per_s: mu })
    }

    /// Per-server utilization `λ/(cμ)`.
    pub fn utilization(&self) -> f64 {
        self.lambda_per_s / (self.mu_per_s * f64::from(self.servers))
    }

    /// Erlang-C probability that an arriving request must wait.
    pub fn prob_wait(&self) -> f64 {
        let c = f64::from(self.servers);
        let a = self.lambda_per_s / self.mu_per_s; // offered load in Erlangs
        let rho = a / c;
        // Compute the Erlang-C formula with a numerically stable running
        // term: sum_{k=0}^{c-1} a^k/k! and a^c/c!.
        let mut term = 1.0; // a^0/0!
        let mut sum = 1.0;
        for k in 1..self.servers {
            term *= a / f64::from(k);
            sum += term;
        }
        let term_c = term * a / c; // a^c/c!
        let numerator = term_c / (1.0 - rho);
        numerator / (sum + numerator)
    }

    /// Mean queueing delay (excluding service), milliseconds.
    pub fn mean_wait_ms(&self) -> f64 {
        let c = f64::from(self.servers);
        let theta = c * self.mu_per_s - self.lambda_per_s; // drain rate
        self.prob_wait() / theta * 1000.0
    }

    /// Mean response time (wait + service), milliseconds.
    pub fn mean_response_ms(&self) -> f64 {
        self.mean_wait_ms() + 1000.0 / self.mu_per_s
    }

    /// Survival function of response time, `P(R > t)`, with `t` in
    /// milliseconds.
    ///
    /// Response time is the sum of an exponential service time (rate μ)
    /// and a queueing delay that is 0 with probability `1 − P_wait` and
    /// exponential with rate `θ = cμ − λ` otherwise.
    pub fn response_survival(&self, t_ms: f64) -> f64 {
        if t_ms <= 0.0 {
            return 1.0;
        }
        let t = t_ms / 1000.0;
        let mu = self.mu_per_s;
        let theta = f64::from(self.servers) * mu - self.lambda_per_s;
        let pw = self.prob_wait();
        let no_wait = (1.0 - pw) * (-mu * t).exp();
        let waited = if (mu - theta).abs() < 1e-9 * mu {
            // θ == μ: the convolution degenerates to a Gamma(2, μ) tail.
            pw * ((-mu * t).exp() * (1.0 + mu * t))
        } else {
            // P(S + W > t) with S~Exp(μ), W~Exp(θ):
            // = [θ·e^{−μt} − μ·e^{−θt}] / (θ − μ).
            pw * (theta * (-mu * t).exp() - mu * (-theta * t).exp()) / (theta - mu)
        };
        (no_wait + waited).clamp(0.0, 1.0)
    }

    /// The `q`-quantile of response time in milliseconds, found by
    /// bisection on the survival function.
    pub fn response_quantile_ms(&self, q: f64) -> f64 {
        let target = 1.0 - q.clamp(0.0, 1.0);
        let mut lo = 0.0;
        let mut hi = 1000.0 / self.mu_per_s;
        while self.response_survival(hi) > target {
            hi *= 2.0;
            if hi > 1e12 {
                break;
            }
        }
        for _ in 0..200 {
            let mid = (lo + hi) / 2.0;
            if self.response_survival(mid) > target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (lo + hi) / 2.0
    }

    /// Convenience: 95th-percentile response time, milliseconds.
    pub fn p95_response_ms(&self) -> f64 {
        self.response_quantile_ms(0.95)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn single_server_reduces_to_mm1() {
        // M/M/1: P(wait) = rho; W = rho/(mu - lambda).
        let q = MmcQueue::new(1, 500.0, 1.0).unwrap(); // rho = 0.5
        assert!((q.prob_wait() - 0.5).abs() < 1e-9);
        // Mean response = 1/(mu - lambda) = 1/500 s = 2 ms.
        assert!((q.mean_response_ms() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn erlang_c_known_value() {
        // Classic: c=2, a=1 (rho=0.5): C = 1/3.
        let q = MmcQueue::new(2, 1000.0, 1.0).unwrap();
        assert!((q.prob_wait() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_overload_and_bad_params() {
        assert!(matches!(MmcQueue::new(2, 2000.0, 1.0), Err(QueueError::Overloaded { .. })));
        assert!(MmcQueue::new(0, 100.0, 1.0).is_err());
        assert!(MmcQueue::new(2, -1.0, 1.0).is_err());
        assert!(MmcQueue::new(2, 100.0, 0.0).is_err());
    }

    #[test]
    fn survival_is_monotone_decreasing() {
        let q = MmcQueue::new(8, 3000.0, 2.0).unwrap();
        let mut prev = 1.0;
        for i in 0..50 {
            let s = q.response_survival(i as f64 * 0.5);
            assert!(s <= prev + 1e-12);
            prev = s;
        }
    }

    #[test]
    fn quantiles_bracket_mean() {
        let q = MmcQueue::new(8, 3000.0, 2.0).unwrap();
        let p50 = q.response_quantile_ms(0.5);
        let p95 = q.p95_response_ms();
        let p99 = q.response_quantile_ms(0.99);
        assert!(p50 < p95 && p95 < p99);
        // For right-skewed response, mean > median.
        assert!(q.mean_response_ms() > p50);
    }

    #[test]
    fn quantile_consistent_with_survival() {
        let q = MmcQueue::new(4, 1500.0, 2.0).unwrap();
        let p95 = q.p95_response_ms();
        assert!((q.response_survival(p95) - 0.05).abs() < 1e-6);
    }

    #[test]
    fn latency_explodes_near_saturation() {
        let low = MmcQueue::new(8, 2000.0, 2.0).unwrap().p95_response_ms();
        let high = MmcQueue::new(8, 3960.0, 2.0).unwrap().p95_response_ms();
        assert!(high > 5.0 * low, "low {low} high {high}");
    }
}
