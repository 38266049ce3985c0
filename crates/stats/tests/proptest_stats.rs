//! Property tests for the statistical substrate.

use gsf_stats::cdf::EmpiricalCdf;
use gsf_stats::dist::{Categorical, Exponential, LogNormal, Pareto};
use gsf_stats::moving::MovingAverage;
use gsf_stats::percentile::percentile_sorted;
use gsf_stats::rng::SeedFactory;
use gsf_stats::summary::Summary;
use proptest::prelude::*;
use rand::distributions::Distribution;

proptest! {
    #[test]
    fn exponential_samples_nonnegative(mean in 0.001..1000.0f64, seed in 0u64..500) {
        let d = Exponential::with_mean(mean).unwrap();
        let mut rng = SeedFactory::new(seed).stream("p");
        for _ in 0..200 {
            let x = d.sample(&mut rng);
            prop_assert!(x >= 0.0 && x.is_finite());
        }
    }

    #[test]
    fn lognormal_samples_positive(mean in 0.001..1000.0f64, sigma in 0.01..2.0f64, seed in 0u64..500) {
        let d = LogNormal::with_mean(mean, sigma).unwrap();
        let mut rng = SeedFactory::new(seed).stream("p");
        for _ in 0..200 {
            let x = d.sample(&mut rng);
            prop_assert!(x > 0.0 && x.is_finite());
        }
    }

    #[test]
    fn pareto_respects_scale(x_min in 0.01..100.0f64, alpha in 0.2..5.0f64, seed in 0u64..500) {
        let d = Pareto::new(x_min, alpha).unwrap();
        let mut rng = SeedFactory::new(seed).stream("p");
        for _ in 0..200 {
            prop_assert!(d.sample(&mut rng) >= x_min);
        }
    }

    #[test]
    fn categorical_never_samples_zero_weight(
        weights in prop::collection::vec(0.0..10.0f64, 1..12),
        seed in 0u64..200,
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let d = Categorical::new(&weights).unwrap();
        let mut rng = SeedFactory::new(seed).stream("p");
        for _ in 0..200 {
            let k = d.sample(&mut rng);
            prop_assert!(weights[k] > 0.0, "sampled zero-weight class {k}");
        }
    }

    #[test]
    fn percentiles_within_sample_range(
        mut xs in prop::collection::vec(-1e6..1e6f64, 1..200),
        q in 0.0..1.0f64,
    ) {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let v = percentile_sorted(&xs, q).unwrap();
        prop_assert!(v >= xs[0] - 1e-9 && v <= xs[xs.len() - 1] + 1e-9);
    }

    #[test]
    fn summary_merge_associative(
        a in prop::collection::vec(-100.0..100.0f64, 0..50),
        b in prop::collection::vec(-100.0..100.0f64, 0..50),
        c in prop::collection::vec(-100.0..100.0f64, 0..50),
    ) {
        let mut left = Summary::from_samples(&a);
        left.merge(&Summary::from_samples(&b));
        left.merge(&Summary::from_samples(&c));
        let all: Vec<f64> = a.iter().chain(&b).chain(&c).copied().collect();
        let direct = Summary::from_samples(&all);
        prop_assert_eq!(left.count(), direct.count());
        if direct.count() > 0 {
            prop_assert!((left.mean() - direct.mean()).abs() < 1e-6);
            prop_assert!((left.variance() - direct.variance()).abs() < 1e-5);
        }
    }

    #[test]
    fn moving_average_bounded_by_window_extremes(
        xs in prop::collection::vec(-1000.0..1000.0f64, 1..80),
        window in 1usize..10,
    ) {
        let smoothed = MovingAverage::smooth(window, &xs);
        prop_assert_eq!(smoothed.len(), xs.len());
        for (i, &s) in smoothed.iter().enumerate() {
            let lo = i.saturating_sub(window - 1);
            let win = &xs[lo..=i];
            let min = win.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = win.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(s >= min - 1e-9 && s <= max + 1e-9);
        }
    }

    #[test]
    fn cdf_quantile_and_eval_are_pseudo_inverses(
        xs in prop::collection::vec(0.0..1000.0f64, 2..100),
        q in 0.01..0.99f64,
    ) {
        let cdf = EmpiricalCdf::from_samples(xs);
        let x = cdf.quantile(q).unwrap();
        // F(quantile(q)) >= q (within one sample step).
        let step = 1.0 / cdf.len() as f64;
        prop_assert!(cdf.eval(x) >= q - step - 1e-9);
    }
}
