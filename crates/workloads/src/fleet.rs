//! Fleet mix: per-application core-hour weights and sampling, plus the
//! paper's published Table III scaling-factor matrix for comparison.

use crate::app::ApplicationModel;
use crate::catalog;
use gsf_stats::dist::Categorical;
use gsf_stats::rng::SimRng;
use rand::distributions::Distribution;

/// The fleet's application mix: every catalog application weighted by
/// its share of fleet core-hours (class share split uniformly within the
/// class, as the paper's VM-allocation implementation does).
#[derive(Debug, Clone)]
pub struct FleetMix {
    apps: Vec<ApplicationModel>,
    weights: Vec<f64>,
    sampler: Categorical,
}

impl FleetMix {
    /// Builds the standard fleet mix from the full catalog.
    ///
    /// # Panics
    ///
    /// Panics if the catalog yields non-finite or all-zero sampling
    /// weights — impossible for the shipped class shares.
    pub fn standard() -> Self {
        let apps = catalog::applications();
        let weights: Vec<f64> = apps
            .iter()
            .map(|a| {
                let class_size = apps.iter().filter(|b| b.class() == a.class()).count() as f64;
                a.class().core_hour_share_pct() / class_size
            })
            .collect();
        let sampler = Categorical::new(&weights).expect("catalog weights are valid");
        Self { apps, weights, sampler }
    }

    /// The applications in the mix.
    pub fn apps(&self) -> &[ApplicationModel] {
        &self.apps
    }

    /// Core-hour weight (percent) of application `i`.
    pub fn weight(&self, i: usize) -> f64 {
        self.weights[i]
    }

    /// Normalized core-hour fraction of application `i`.
    pub fn fraction(&self, i: usize) -> f64 {
        let total: f64 = self.weights.iter().sum();
        self.weights[i] / total
    }

    /// Samples an application index proportionally to core-hour shares
    /// (first the class by share, then uniform within the class — which
    /// is exactly proportional to the per-app weights).
    pub fn sample_app(&self, rng: &mut SimRng) -> usize {
        self.sampler.sample(rng)
    }

    /// The core-hour-weighted fraction of the fleet whose application
    /// satisfies `pred` (e.g. "tolerates full-CXL backing").
    pub fn weighted_fraction(&self, pred: impl Fn(&ApplicationModel) -> bool) -> f64 {
        let total: f64 = self.weights.iter().sum();
        self.apps.iter().zip(&self.weights).filter(|(a, _)| pred(a)).map(|(_, w)| w).sum::<f64>()
            / total
    }
}

/// One row of the paper's published Table III (for comparison against
/// the simulator's reproduced scaling factors).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PublishedScaling {
    /// Application name.
    pub app: &'static str,
    /// Scaling factor vs Gen1 (`None` = published as “>1.5”).
    pub gen1: Option<f64>,
    /// Scaling factor vs Gen2.
    pub gen2: Option<f64>,
    /// Scaling factor vs Gen3.
    pub gen3: Option<f64>,
}

/// The published Table III scaling-factor matrix (reference data, not an
/// input to the simulator). `None` encodes the paper's “>1.5” cells.
pub fn published_table_iii() -> Vec<PublishedScaling> {
    fn row(
        app: &'static str,
        g1: Option<f64>,
        g2: Option<f64>,
        g3: Option<f64>,
    ) -> PublishedScaling {
        PublishedScaling { app, gen1: g1, gen2: g2, gen3: g3 }
    }
    vec![
        row("Redis", Some(1.0), Some(1.0), Some(1.0)),
        row("Masstree", Some(1.0), Some(1.0), None),
        row("Silo", None, None, None),
        row("Shore", Some(1.0), Some(1.0), Some(1.0)),
        row("Xapian", Some(1.0), Some(1.0), Some(1.5)),
        row("WebF-Dynamic", Some(1.0), Some(1.25), Some(1.25)),
        row("WebF-Hot", Some(1.0), Some(1.25), Some(1.5)),
        row("WebF-Cold", Some(1.0), Some(1.0), Some(1.0)),
        row("Moses", Some(1.0), Some(1.0), Some(1.25)),
        row("Sphinx", Some(1.0), Some(1.25), Some(1.25)),
        row("Img-DNN", Some(1.0), Some(1.0), Some(1.0)),
        row("Nginx", Some(1.0), Some(1.0), Some(1.25)),
        row("Caddy", Some(1.0), Some(1.0), Some(1.0)),
        row("Envoy", Some(1.0), Some(1.0), Some(1.0)),
        row("HAProxy", Some(1.0), Some(1.0), Some(1.25)),
        row("Traefik", Some(1.0), Some(1.0), Some(1.25)),
        row("Build-Python", Some(1.0), Some(1.0), Some(1.25)),
        row("Build-Wasm", Some(1.0), Some(1.0), Some(1.25)),
        row("Build-PHP", Some(1.0), Some(1.0), Some(1.25)),
    ]
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::class::AppClass;
    use gsf_stats::rng::SeedFactory;

    #[test]
    fn mix_covers_catalog() {
        let mix = FleetMix::standard();
        assert_eq!(mix.apps().len(), 20);
        let total: f64 = (0..20).map(|i| mix.fraction(i)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_matches_class_shares() {
        let mix = FleetMix::standard();
        let mut rng = SeedFactory::new(8).stream("fleet");
        let n = 200_000;
        let mut class_counts: std::collections::HashMap<AppClass, usize> = Default::default();
        for _ in 0..n {
            let i = mix.sample_app(&mut rng);
            *class_counts.entry(mix.apps()[i].class()).or_default() += 1;
        }
        for class in AppClass::all() {
            let expected = class.core_hour_share_pct() / 99.0;
            let actual = *class_counts.get(&class).unwrap_or(&0) as f64 / n as f64;
            assert!((actual - expected).abs() < 0.01, "{class}: {actual} vs {expected}");
        }
    }

    #[test]
    fn weighted_fraction_of_everything_is_one() {
        let mix = FleetMix::standard();
        assert!((mix.weighted_fraction(|_| true) - 1.0).abs() < 1e-12);
        assert_eq!(mix.weighted_fraction(|_| false), 0.0);
    }

    #[test]
    fn cxl_tolerant_fraction_matches_paper_band() {
        let mix = FleetMix::standard();
        let frac = mix.weighted_fraction(|a| a.tolerates_full_cxl());
        // Paper: 20.2 % of core-hours.
        assert!((frac - 0.202).abs() < 0.04, "{frac}");
    }

    #[test]
    fn published_matrix_has_19_rows_matching_catalog_names() {
        let rows = published_table_iii();
        assert_eq!(rows.len(), 19);
        for r in &rows {
            assert!(crate::catalog::by_name(r.app).is_some(), "{}", r.app);
        }
    }

    #[test]
    fn published_gen3_harder_than_gen1() {
        // Monotonicity in the published data: scaling vs Gen3 is never
        // easier than vs Gen1 (treat ">1.5" as 2.0).
        for r in published_table_iii() {
            let g1 = r.gen1.unwrap_or(2.0);
            let g3 = r.gen3.unwrap_or(2.0);
            assert!(g3 >= g1, "{}", r.app);
        }
    }
}
