//! DIMM-population failure simulator (the substrate behind Fig. 2).
//!
//! Azure's telemetry shows DDR4 DIMM failure rates with a short
//! infant-mortality period followed by a flat plateau over seven years
//! of deployment. We simulate a population under a hazard
//!
//! `h(t) = plateau + excess · exp(−t / decay)`
//!
//! and estimate monthly annual-failure-rate points plus the moving
//! average the paper overlays.

use gsf_stats::moving::MovingAverage;
use gsf_stats::rng::SimRng;
use rand::Rng;

/// Parameters of the failure process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureSimParams {
    /// DIMM population size.
    pub population: usize,
    /// Steady-state annual failure rate (fraction per year).
    pub plateau_afr: f64,
    /// Additional AFR at time zero (infant mortality).
    pub infant_excess_afr: f64,
    /// Decay constant of the infant-mortality excess, months.
    pub infant_decay_months: f64,
    /// Observation horizon, months.
    pub horizon_months: u32,
    /// Window of the moving average, months.
    pub smoothing_window: usize,
}

impl Default for FailureSimParams {
    fn default() -> Self {
        Self {
            population: 50_000,
            plateau_afr: 0.001, // ~0.1 per 100 DIMM-years, the paper's DIMM AFR
            infant_excess_afr: 0.002,
            infant_decay_months: 4.0,
            horizon_months: 84, // 7 years, the Fig. 2 x-axis
            smoothing_window: 6,
        }
    }
}

/// One monthly observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AfrPoint {
    /// Months since deployment (1-based month index).
    pub month: u32,
    /// Raw annualized failure rate estimated for the month.
    pub raw_afr: f64,
    /// Moving average of the raw series up to this month.
    pub smoothed_afr: f64,
}

/// The failure simulator.
#[derive(Debug, Clone)]
pub struct FailureSim {
    params: FailureSimParams,
}

impl FailureSim {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics on non-positive population/horizon or negative rates.
    pub fn new(params: FailureSimParams) -> Self {
        assert!(params.population > 0, "population must be positive");
        assert!(params.horizon_months > 0, "horizon must be positive");
        assert!(params.plateau_afr >= 0.0 && params.infant_excess_afr >= 0.0);
        assert!(params.infant_decay_months > 0.0);
        assert!(params.smoothing_window > 0);
        Self { params }
    }

    /// The configured parameters.
    pub fn params(&self) -> &FailureSimParams {
        &self.params
    }

    /// Instantaneous hazard at `month` (fraction per year).
    pub fn hazard_afr(&self, month: f64) -> f64 {
        self.params.plateau_afr
            + self.params.infant_excess_afr * (-month / self.params.infant_decay_months).exp()
    }

    /// Runs the simulation, returning one [`AfrPoint`] per month.
    ///
    /// Failed DIMMs are replaced (the population stays constant), which
    /// matches how fleet AFR telemetry is reported. Replacement DIMMs are
    /// past their own infant mortality (they are burned-in spares), so
    /// the population hazard follows the deployment-age curve.
    pub fn run(&self, rng: &mut SimRng) -> Vec<AfrPoint> {
        let mut ma = MovingAverage::new(self.params.smoothing_window);
        (1..=self.params.horizon_months)
            .map(|month| {
                let hazard_year = self.hazard_afr(f64::from(month) - 0.5);
                let p_fail_month = hazard_year / 12.0;
                let failures = sample_binomial(rng, self.params.population, p_fail_month);
                let raw_afr = failures as f64 / self.params.population as f64 * 12.0;
                AfrPoint { month, raw_afr, smoothed_afr: ma.push(raw_afr) }
            })
            .collect()
    }
}

/// Samples `Binomial(n, p)`: exact Bernoulli summation for small
/// populations, normal approximation (valid when `n·p·(1−p)` is large)
/// otherwise.
fn sample_binomial(rng: &mut SimRng, n: usize, p: f64) -> usize {
    let p = p.clamp(0.0, 1.0);
    let mean = n as f64 * p;
    let var = mean * (1.0 - p);
    if n < 1000 {
        return (0..n).filter(|_| rng.gen::<f64>() < p).count();
    }
    if var < 25.0 {
        // Rare-event regime: Binomial(n, p) ≈ Poisson(n·p); Knuth's
        // multiplication method is O(mean) per draw.
        let limit = (-mean).exp();
        let mut k = 0usize;
        let mut prod: f64 = rng.gen();
        while prod > limit && k < n {
            k += 1;
            prod *= rng.gen::<f64>();
        }
        return k;
    }
    // Box–Muller normal draw.
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (mean + z * var.sqrt()).round().clamp(0.0, n as f64) as usize
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use gsf_stats::rng::SeedFactory;

    #[test]
    fn binomial_sampler_matches_moments() {
        let mut rng = SeedFactory::new(1).stream("binom");
        let (n, p) = (50_000usize, 0.01);
        let draws: Vec<f64> = (0..200).map(|_| sample_binomial(&mut rng, n, p) as f64).collect();
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!((mean - 500.0).abs() < 15.0, "mean {mean}");
        // Small-n exact path.
        let exact = sample_binomial(&mut rng, 10, 0.0);
        assert_eq!(exact, 0);
        assert_eq!(sample_binomial(&mut rng, 10, 1.0), 10);
    }

    fn run_default() -> Vec<AfrPoint> {
        let sim = FailureSim::new(FailureSimParams::default());
        let mut rng = SeedFactory::new(21).stream("fig2");
        sim.run(&mut rng)
    }

    #[test]
    fn produces_one_point_per_month() {
        let points = run_default();
        assert_eq!(points.len(), 84);
        assert_eq!(points.first().unwrap().month, 1);
        assert_eq!(points.last().unwrap().month, 84);
    }

    #[test]
    fn infant_mortality_then_flat() {
        let points = run_default();
        // Early smoothed AFR clearly above the late plateau.
        let early = points[3].smoothed_afr;
        let late_avg: f64 = points[60..84].iter().map(|p| p.smoothed_afr).sum::<f64>() / 24.0;
        assert!(early > 1.5 * late_avg, "early {early} vs late {late_avg}");
    }

    #[test]
    fn plateau_matches_configured_afr() {
        let points = run_default();
        let late_avg: f64 = points[36..84].iter().map(|p| p.raw_afr).sum::<f64>() / 48.0;
        let expected = FailureSimParams::default().plateau_afr;
        assert!(
            (late_avg - expected).abs() < expected * 0.25,
            "late {late_avg} vs plateau {expected}"
        );
    }

    #[test]
    fn plateau_is_flat_not_increasing() {
        // Fig. 2's point: no aging signal over 7 years. Compare years
        // 3-4 against years 6-7 — the smoothed rates should be within
        // noise of each other.
        let points = run_default();
        let mid: f64 = points[24..48].iter().map(|p| p.smoothed_afr).sum::<f64>() / 24.0;
        let late: f64 = points[60..84].iter().map(|p| p.smoothed_afr).sum::<f64>() / 24.0;
        assert!((late - mid).abs() < 0.3 * mid, "mid {mid} late {late}");
    }

    #[test]
    fn hazard_decays_monotonically() {
        let sim = FailureSim::new(FailureSimParams::default());
        let mut prev = f64::INFINITY;
        for m in 0..84 {
            let h = sim.hazard_afr(f64::from(m));
            assert!(h <= prev);
            assert!(h >= sim.params().plateau_afr);
            prev = h;
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let sim = FailureSim::new(FailureSimParams::default());
        let a = sim.run(&mut SeedFactory::new(5).stream("x"));
        let b = sim.run(&mut SeedFactory::new(5).stream("x"));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "population")]
    fn rejects_empty_population() {
        FailureSim::new(FailureSimParams { population: 0, ..Default::default() });
    }

    #[test]
    fn accelerated_aging_flat_beyond_12_years() {
        // §III: "internal accelerated aging studies show that AFRs
        // remain flat beyond 12 years". Extend the horizon to 144
        // months and compare the 7-12 year window with years 2-7.
        let sim = FailureSim::new(FailureSimParams {
            horizon_months: 144,
            ..FailureSimParams::default()
        });
        let mut rng = SeedFactory::new(22).stream("aging");
        let points = sim.run(&mut rng);
        assert_eq!(points.len(), 144);
        let mid: f64 = points[24..84].iter().map(|p| p.raw_afr).sum::<f64>() / 60.0;
        let late: f64 = points[84..144].iter().map(|p| p.raw_afr).sum::<f64>() / 60.0;
        assert!((late - mid).abs() < 0.25 * mid, "mid {mid} late {late}");
    }
}
