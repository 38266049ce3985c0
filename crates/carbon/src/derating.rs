//! Power-derating curves (§V).
//!
//! The paper derives its derating factor "as a fraction of TDP
//! utilization at a given percentage of max SPEC rate; at 40 % SPEC
//! rate, the corresponding derating factor is 0.44", citing SPECpower
//! methodology. This module generalizes that single point into the full
//! load→power curve, so the carbon model can be evaluated at any fleet
//! utilization — the §II underutilization discussion made quantitative.

/// A piecewise-linear load→power-fraction curve.
///
/// Points are `(load_fraction, power_fraction_of_tdp)`, sorted by load.
/// Server power is famously non-proportional: idle servers draw a large
/// fraction of peak power, which is why underutilization is so costly.
#[derive(Debug, Clone, PartialEq)]
pub struct DeratingCurve {
    points: Vec<(f64, f64)>,
}

impl DeratingCurve {
    /// Builds a curve from `(load, power-fraction)` points.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two points are given, loads are not strictly
    /// increasing within `[0, 1]`, or power fractions are outside
    /// `[0, 1]` or decreasing.
    pub fn new(points: Vec<(f64, f64)>) -> Self {
        assert!(points.len() >= 2, "curve needs at least two points");
        for w in points.windows(2) {
            assert!(w[0].0 < w[1].0, "loads must be strictly increasing");
            assert!(w[0].1 <= w[1].1, "power must be non-decreasing in load");
        }
        for &(l, p) in &points {
            assert!((0.0..=1.0).contains(&l) && (0.0..=1.0).contains(&p));
        }
        Self { points }
    }

    /// A SPECpower-style curve calibrated to the paper's anchor
    /// (derate = 0.44 at 40 % SPEC rate), with a typical ~30 % idle
    /// floor and near-TDP draw at full rate.
    pub fn specpower_like() -> Self {
        Self::new(vec![
            (0.0, 0.30),
            (0.2, 0.37),
            (0.4, 0.44),
            (0.6, 0.56),
            (0.8, 0.75),
            (1.0, 0.95),
        ])
    }

    /// Power fraction of TDP at `load` (clamped to the curve's domain),
    /// linearly interpolated.
    pub fn derate_at(&self, load: f64) -> f64 {
        let load = load.clamp(self.points[0].0, self.points[self.points.len() - 1].0);
        for w in self.points.windows(2) {
            let ((l0, p0), (l1, p1)) = (w[0], w[1]);
            if load <= l1 {
                let frac = if l1 > l0 { (load - l0) / (l1 - l0) } else { 0.0 };
                return p0 + frac * (p1 - p0);
            }
        }
        self.points[self.points.len() - 1].1
    }

    /// Energy-proportionality gap at `load`: how much more power the
    /// server draws than a perfectly proportional one would
    /// (`derate(load) − load`, floored at zero).
    pub fn proportionality_gap(&self, load: f64) -> f64 {
        (self.derate_at(load) - load).max(0.0)
    }
}

impl Default for DeratingCurve {
    fn default() -> Self {
        Self::specpower_like()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn paper_anchor_holds() {
        // §V / Table VI: derate 0.44 at 40 % SPEC rate.
        let c = DeratingCurve::specpower_like();
        assert!((c.derate_at(0.4) - 0.44).abs() < 1e-12);
    }

    #[test]
    fn interpolation_between_points() {
        let c = DeratingCurve::specpower_like();
        // Midway between (0.4, 0.44) and (0.6, 0.56).
        assert!((c.derate_at(0.5) - 0.50).abs() < 1e-12);
    }

    #[test]
    fn clamped_outside_domain() {
        let c = DeratingCurve::specpower_like();
        assert_eq!(c.derate_at(-1.0), 0.30);
        assert_eq!(c.derate_at(2.0), 0.95);
    }

    #[test]
    fn monotone_in_load() {
        let c = DeratingCurve::specpower_like();
        let mut prev = 0.0;
        for i in 0..=20 {
            let d = c.derate_at(f64::from(i) / 20.0);
            assert!(d >= prev);
            prev = d;
        }
    }

    #[test]
    fn idle_servers_waste_the_most() {
        // The §II point: low utilization is disproportionately costly.
        let c = DeratingCurve::specpower_like();
        assert!(c.proportionality_gap(0.1) > c.proportionality_gap(0.8));
        assert!(c.proportionality_gap(0.0) >= 0.30);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_points() {
        DeratingCurve::new(vec![(0.5, 0.5), (0.2, 0.6)]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_decreasing_power() {
        DeratingCurve::new(vec![(0.0, 0.5), (1.0, 0.4)]);
    }

    #[test]
    fn savings_insensitive_to_uniform_derate_shift() {
        // Applying a different fleet utilization scales every SKU's
        // component power by the same factor, so Table VIII *savings*
        // barely move — the reason the paper can report a single
        // derate point. Verify at 60 % SPEC rate.
        use crate::datasets::open_source;
        use crate::{CarbonModel, ModelParams};
        let c = DeratingCurve::specpower_like();
        let scale = c.derate_at(0.6) / c.derate_at(0.4);
        // Emulate the higher utilization by scaling carbon intensity of
        // the operational side: op emissions are linear in power, so a
        // uniform power scale is equivalent to scaling CI.
        let model_40 = CarbonModel::new(ModelParams::default_open_source());
        let model_60 = CarbonModel::new(
            ModelParams::default_open_source()
                .with_carbon_intensity(crate::units::CarbonIntensity::new(0.1 * scale)),
        );
        let b = open_source::baseline_gen3();
        let g = open_source::greensku_full();
        let s40 = model_40.savings(&b, &g).unwrap();
        let s60 = model_60.savings(&b, &g).unwrap();
        assert!((s40.operational - s60.operational).abs() < 1e-9);
        // Total shifts only mildly (heavier op weighting).
        assert!((s40.total - s60.total).abs() < 0.05);
    }
}
