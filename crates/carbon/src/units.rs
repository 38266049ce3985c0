//! Newtype units used throughout the carbon model.
//!
//! Emissions accounting mixes watts, kilograms of CO₂-equivalent, carbon
//! intensities, capacities, and durations; newtypes keep those from being
//! confused (a `Watts` can never be added to a `KgCo2e`) while remaining
//! zero-cost `f64` wrappers.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

macro_rules! unit {
    ($(#[$meta:meta])* $name:ident, $suffix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// Wraps a raw value.
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// The raw value.
            pub const fn get(&self) -> f64 {
                self.0
            }

            /// The zero value.
            pub const ZERO: Self = Self(0.0);

            /// Whether the value is finite and non-negative.
            pub fn is_valid(&self) -> bool {
                self.0.is_finite() && self.0 >= 0.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.3} {}", self.0, $suffix)
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                // `+ 0.0` normalizes the empty sum's -0.0 identity so
                // displays never print "-0".
                Self(iter.map(|v| v.0).sum::<f64>() + 0.0)
            }
        }

        impl From<f64> for $name {
            fn from(v: f64) -> Self {
                Self(v)
            }
        }
    };
}

unit!(
    /// Electrical power in watts.
    Watts,
    "W"
);
unit!(
    /// Mass of CO₂-equivalent emissions in kilograms.
    KgCo2e,
    "kgCO2e"
);
unit!(
    /// Memory capacity in gigabytes.
    Gigabytes,
    "GB"
);
unit!(
    /// Storage capacity in terabytes.
    Terabytes,
    "TB"
);
unit!(
    /// Duration in years.
    Years,
    "y"
);

/// Grid carbon intensity in kg CO₂e per kWh.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct CarbonIntensity(f64);

impl CarbonIntensity {
    /// Wraps a raw kg CO₂e / kWh value.
    pub const fn new(kg_per_kwh: f64) -> Self {
        Self(kg_per_kwh)
    }

    /// The raw kg CO₂e / kWh value.
    pub const fn get(&self) -> f64 {
        self.0
    }

    /// A zero-carbon energy source.
    pub const ZERO: Self = Self(0.0);

    /// Whether the value is finite and non-negative.
    pub fn is_valid(&self) -> bool {
        self.0.is_finite() && self.0 >= 0.0
    }
}

impl fmt::Display for CarbonIntensity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} kgCO2e/kWh", self.0)
    }
}

impl Years {
    /// Hours in this many (365-day) years, as used by the paper
    /// (6 years = 52 560 hours).
    pub fn hours(&self) -> f64 {
        self.get() * 8760.0
    }
}

impl Watts {
    /// Operational emissions from drawing this power continuously for
    /// `lifetime` at the given carbon intensity.
    ///
    /// # Example
    ///
    /// ```
    /// # use gsf_carbon::units::{Watts, Years, CarbonIntensity};
    /// // The paper's rack example: 6954 W for 6 years at 0.1 kg/kWh
    /// // is roughly 36 550 kg CO2e.
    /// let e = Watts::new(6953.6).operational_emissions(
    ///     Years::new(6.0),
    ///     CarbonIntensity::new(0.1),
    /// );
    /// assert!((e.get() - 36_548.0).abs() < 10.0);
    /// ```
    pub fn operational_emissions(&self, lifetime: Years, ci: CarbonIntensity) -> KgCo2e {
        // W * h = Wh; /1000 = kWh; * kg/kWh = kg.
        KgCo2e::new(self.get() * lifetime.hours() / 1000.0 * ci.get())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let a = Watts::new(100.0) + Watts::new(50.0);
        assert_eq!(a.get(), 150.0);
        assert_eq!((a - Watts::new(25.0)).get(), 125.0);
        assert_eq!((a * 2.0).get(), 300.0);
        assert_eq!((a / 3.0).get(), 50.0);
        assert_eq!(a / Watts::new(75.0), 2.0);
    }

    #[test]
    fn sum_of_units() {
        let total: KgCo2e = vec![KgCo2e::new(1.0), KgCo2e::new(2.5)].into_iter().sum();
        assert_eq!(total.get(), 3.5);
    }

    #[test]
    fn lifetime_hours_matches_paper() {
        assert_eq!(Years::new(6.0).hours(), 52_560.0);
    }

    #[test]
    fn operational_emissions_unit_math() {
        // 1000 W for 1 year at 1 kg/kWh = 8760 kg.
        let e =
            Watts::new(1000.0).operational_emissions(Years::new(1.0), CarbonIntensity::new(1.0));
        assert!((e.get() - 8760.0).abs() < 1e-9);
    }

    #[test]
    fn validity_checks() {
        assert!(Watts::new(1.0).is_valid());
        assert!(!Watts::new(-1.0).is_valid());
        assert!(!Watts::new(f64::NAN).is_valid());
        assert!(CarbonIntensity::ZERO.is_valid());
    }

    #[test]
    fn display_has_suffix() {
        assert_eq!(format!("{}", Watts::new(1.0)), "1.000 W");
        assert!(format!("{}", CarbonIntensity::new(0.1)).contains("kgCO2e/kWh"));
    }
}
