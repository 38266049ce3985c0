//! Regional grid model: carbon intensity with location-matched
//! renewables and a diurnal solar profile.
//!
//! §II: "we only count renewable energy purchases that match a data
//! center's location. We find that most data centers use 40–80 %
//! renewable energy at Azure." This module models each region as a grid
//! carbon intensity plus a matched-renewables share whose solar
//! component varies over the day — enough structure to evaluate
//! GreenSKUs per region (Figs. 11/12's vertical markers) and to ask
//! time-of-day questions the carbon-aware-scheduling literature the
//! paper cites cares about.

use crate::units::CarbonIntensity;

/// Lifecycle carbon intensity of renewable generation (kg CO₂e/kWh).
pub const RENEWABLE_LIFECYCLE_CI: f64 = 0.012;

/// One data-center region's energy profile.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionGrid {
    /// Region name.
    pub name: &'static str,
    /// Grid (non-renewable residual) carbon intensity, kg CO₂e/kWh.
    pub grid_ci: f64,
    /// Location-matched renewable share of annual energy, `[0, 1]`.
    pub renewable_fraction: f64,
    /// Fraction of the renewable share that is solar (varies by hour);
    /// the rest (wind/hydro/nuclear PPA) is flat.
    pub solar_share: f64,
}

impl RegionGrid {
    /// Effective carbon intensity averaged over the year.
    pub fn average_ci(&self) -> CarbonIntensity {
        let renewable = self.renewable_fraction;
        CarbonIntensity::new((1.0 - renewable) * self.grid_ci + renewable * RENEWABLE_LIFECYCLE_CI)
    }

    /// Effective carbon intensity at `hour` of day (0–24): solar
    /// renewables produce between 06:00 and 18:00 with a half-sine
    /// profile; when solar is offline, its share falls back to grid
    /// energy.
    pub fn ci_at_hour(&self, hour: f64) -> CarbonIntensity {
        let hour = hour.rem_euclid(24.0);
        // Half-sine daylight profile normalized so its daily mean is 1.
        let daylight = if (6.0..18.0).contains(&hour) {
            (std::f64::consts::PI * (hour - 6.0) / 12.0).sin()
        } else {
            0.0
        };
        // Mean of the half-sine over 24 h is (2/π)·(12/24) = 1/π.
        let solar_scale = daylight * std::f64::consts::PI;
        let solar = self.renewable_fraction * self.solar_share;
        let flat = self.renewable_fraction * (1.0 - self.solar_share);
        let solar_now = (solar * solar_scale).min(1.0 - flat);
        let renewable_now = flat + solar_now;
        CarbonIntensity::new(
            (1.0 - renewable_now) * self.grid_ci + renewable_now * RENEWABLE_LIFECYCLE_CI,
        )
    }

    /// The cleanest hour of the day (argmin of [`Self::ci_at_hour`] on a
    /// 24-point grid).
    pub fn cleanest_hour(&self) -> f64 {
        (0..24)
            .map(|h| (f64::from(h), self.ci_at_hour(f64::from(h)).get()))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(h, _)| h)
            .unwrap_or(12.0)
    }
}

/// An Azure-like region table spanning the paper's Fig. 11/12 range.
/// CI values bracket the annotated markers (us-south 0.04 …
/// europe-north 0.33); renewables spans the §II 40–80 % range.
pub fn regions() -> Vec<RegionGrid> {
    vec![
        RegionGrid { name: "us-south", grid_ci: 0.38, renewable_fraction: 0.92, solar_share: 0.5 },
        RegionGrid { name: "us-west", grid_ci: 0.30, renewable_fraction: 0.75, solar_share: 0.6 },
        RegionGrid {
            name: "us-central",
            grid_ci: 0.45,
            renewable_fraction: 0.80,
            solar_share: 0.4,
        },
        RegionGrid { name: "us-east", grid_ci: 0.42, renewable_fraction: 0.65, solar_share: 0.3 },
        RegionGrid {
            name: "europe-west",
            grid_ci: 0.35,
            renewable_fraction: 0.60,
            solar_share: 0.3,
        },
        RegionGrid {
            name: "europe-north",
            grid_ci: 0.47,
            renewable_fraction: 0.32,
            solar_share: 0.2,
        },
        RegionGrid { name: "asia-east", grid_ci: 0.55, renewable_fraction: 0.45, solar_share: 0.5 },
        RegionGrid {
            name: "asia-south",
            grid_ci: 0.65,
            renewable_fraction: 0.50,
            solar_share: 0.6,
        },
        RegionGrid {
            name: "australia-east",
            grid_ci: 0.60,
            renewable_fraction: 0.55,
            solar_share: 0.7,
        },
        RegionGrid {
            name: "brazil-south",
            grid_ci: 0.15,
            renewable_fraction: 0.85,
            solar_share: 0.3,
        },
    ]
}

/// Looks up a region by name.
pub fn region(name: &str) -> Option<RegionGrid> {
    regions().into_iter().find(|r| r.name == name)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn average_ci_in_fig11_range() {
        // The region table must bracket the paper's annotated markers
        // (0.04 … 0.33 kg/kWh).
        let cis: Vec<f64> = regions().iter().map(|r| r.average_ci().get()).collect();
        let min = cis.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = cis.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(min < 0.05, "min {min}");
        assert!(max > 0.30, "max {max}");
    }

    #[test]
    fn renewables_span_the_40_to_80_band() {
        let fracs: Vec<f64> = regions().iter().map(|r| r.renewable_fraction).collect();
        assert!(fracs.iter().any(|&f| f <= 0.45));
        assert!(fracs.iter().any(|&f| f >= 0.80));
    }

    #[test]
    fn daytime_is_cleaner_where_solar_dominates() {
        let r = region("australia-east").unwrap();
        let noon = r.ci_at_hour(12.0).get();
        let midnight = r.ci_at_hour(0.0).get();
        assert!(noon < midnight, "noon {noon} vs midnight {midnight}");
        let cleanest = r.cleanest_hour();
        assert!((6.0..18.0).contains(&cleanest), "cleanest {cleanest}");
    }

    #[test]
    fn hourly_profile_brackets_the_annual_mean() {
        // Solar clipping (peaks capped at total demand) can only *lose*
        // renewable energy, so the delivered hourly mean sits between
        // the nominal annual mean and the no-solar-at-all bound.
        for r in regions() {
            let hourly: f64 =
                (0..240).map(|i| r.ci_at_hour(f64::from(i) / 10.0).get()).sum::<f64>() / 240.0;
            let annual = r.average_ci().get();
            let flat = r.renewable_fraction * (1.0 - r.solar_share);
            let no_solar = (1.0 - flat) * r.grid_ci + flat * RENEWABLE_LIFECYCLE_CI;
            assert!(hourly >= annual - 1e-9, "{}: hourly {hourly} < annual {annual}", r.name);
            assert!(hourly <= no_solar + 1e-9, "{}: hourly {hourly} > no-solar {no_solar}", r.name);
        }
    }

    #[test]
    fn unclipped_regions_preserve_the_mean_closely() {
        // europe-north: 32 % renewables, 20 % solar — peaks never clip,
        // so the delivered mean matches the annual mean tightly.
        let r = region("europe-north").unwrap();
        let hourly: f64 =
            (0..240).map(|i| r.ci_at_hour(f64::from(i) / 10.0).get()).sum::<f64>() / 240.0;
        let annual = r.average_ci().get();
        assert!((hourly - annual).abs() < 0.01, "hourly {hourly} vs annual {annual}");
    }

    #[test]
    fn renewables_never_exceed_total_energy() {
        for r in regions() {
            for h in 0..24 {
                let ci = r.ci_at_hour(f64::from(h)).get();
                assert!(ci >= RENEWABLE_LIFECYCLE_CI - 1e-12, "{} h{h}: {ci}", r.name);
                assert!(ci <= r.grid_ci + 1e-12);
            }
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(region("us-south").is_some());
        assert!(region("atlantis").is_none());
    }
}
