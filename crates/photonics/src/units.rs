//! Strongly typed physical quantities.
//!
//! The CrossLight model mixes many numeric domains — wavelengths in
//! nanometres, device spacing in micrometres, losses in dB, powers in mW and
//! dBm, latencies in nano/picoseconds.  Newtypes keep these apart at compile
//! time ([C-NEWTYPE]) while still being cheap `Copy` wrappers around `f64`.
//!
//! All quantity types provide:
//!
//! * a `new` constructor and a `value()` accessor returning the raw `f64`,
//! * arithmetic where it is physically meaningful (`Add`/`Sub` between equal
//!   quantities, `Mul`/`Div` by dimensionless scalars),
//! * conversions to related quantities where unambiguous
//!   (e.g. [`Micrometers::to_centimeters`], [`MilliWatts::to_dbm`]).
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// Implements the shared boilerplate for a scalar physical quantity newtype.
macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        pub struct $name(f64);

        impl $name {
            /// Creates a new quantity from a raw value expressed in the unit
            /// named by the type.
            #[must_use]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value in the unit named by the type.
            #[must_use]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value of the quantity.
            #[must_use]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the larger of `self` and `other`.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns `true` when the underlying value is finite.
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $unit)
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

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            /// Dividing two like quantities yields a dimensionless ratio.
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl From<f64> for $name {
            fn from(value: f64) -> Self {
                Self(value)
            }
        }

        impl From<$name> for f64 {
            fn from(value: $name) -> f64 {
                value.0
            }
        }
    };
}

quantity!(
    /// A length expressed in nanometres (used for optical wavelengths and
    /// waveguide dimensions).
    Nanometers,
    "nm"
);

quantity!(
    /// A length expressed in micrometres (used for device spacing and chip
    /// layout dimensions).
    Micrometers,
    "um"
);

quantity!(
    /// A length expressed in millimetres (used for chip-scale dimensions).
    Millimeters,
    "mm"
);

quantity!(
    /// An area expressed in square millimetres.
    SquareMillimeters,
    "mm^2"
);

quantity!(
    /// An optical loss (or gain penalty) expressed in decibels.
    DecibelLoss,
    "dB"
);

quantity!(
    /// An absolute optical or electrical power on the decibel-milliwatt scale.
    Dbm,
    "dBm"
);

quantity!(
    /// A power expressed in milliwatts.
    MilliWatts,
    "mW"
);

quantity!(
    /// A power expressed in watts.
    Watts,
    "W"
);

quantity!(
    /// An energy expressed in picojoules.
    Picojoules,
    "pJ"
);

quantity!(
    /// A duration expressed in seconds.
    Seconds,
    "s"
);

quantity!(
    /// A frequency expressed in gigahertz.
    GigaHertz,
    "GHz"
);

quantity!(
    /// A temperature expressed in kelvin.
    Kelvin,
    "K"
);

quantity!(
    /// An optical phase expressed in radians.
    Radians,
    "rad"
);

impl Micrometers {
    /// Converts this length to centimetres (propagation losses are quoted per
    /// centimetre).
    #[must_use]
    pub fn to_centimeters(self) -> f64 {
        self.value() * 1e-4
    }
}

impl Millimeters {
    /// Converts this length to centimetres.
    #[must_use]
    pub fn to_centimeters(self) -> f64 {
        self.value() / 10.0
    }
}

impl MilliWatts {
    /// Converts this power to the dBm scale.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the power is not strictly positive; 0 mW has
    /// no dBm representation.
    #[must_use]
    pub fn to_dbm(self) -> Dbm {
        debug_assert!(
            self.value() > 0.0,
            "cannot express non-positive power in dBm"
        );
        Dbm::new(10.0 * self.value().log10())
    }

    /// Converts this power to watts.
    #[must_use]
    pub fn to_watts(self) -> Watts {
        Watts::new(self.value() * 1e-3)
    }

    /// Converts this power to microwatts.
    #[must_use]
    pub fn to_microwatts(self) -> f64 {
        self.value() * 1e3
    }

    /// Creates a power from a value expressed in microwatts.
    #[must_use]
    pub fn from_microwatts(uw: f64) -> Self {
        Self::new(uw * 1e-3)
    }
}

impl Watts {
    /// Converts this power to milliwatts.
    #[must_use]
    pub fn to_milliwatts(self) -> MilliWatts {
        MilliWatts::new(self.value() * 1e3)
    }
}

impl Dbm {
    /// Converts this absolute power level to milliwatts.
    #[must_use]
    pub fn to_milliwatts(self) -> MilliWatts {
        MilliWatts::new(10f64.powf(self.value() / 10.0))
    }
}

impl DecibelLoss {
    /// Converts this loss to a linear power transmission factor in `(0, 1]`.
    #[must_use]
    pub fn to_linear_transmission(self) -> f64 {
        10f64.powf(-self.value() / 10.0)
    }

    /// Creates a loss from a linear power transmission factor in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `transmission` is not in `(0, 1]`.
    #[must_use]
    pub fn from_linear_transmission(transmission: f64) -> Self {
        debug_assert!(
            transmission > 0.0 && transmission <= 1.0,
            "transmission must be in (0, 1], got {transmission}"
        );
        Self::new(-10.0 * transmission.log10())
    }
}

impl Seconds {
    /// Creates a duration from a value expressed in nanoseconds.
    #[must_use]
    pub fn from_nanos(ns: f64) -> Self {
        Self::new(ns * 1e-9)
    }

    /// Creates a duration from a value expressed in microseconds.
    #[must_use]
    pub fn from_micros(us: f64) -> Self {
        Self::new(us * 1e-6)
    }

    /// Creates a duration from a value expressed in picoseconds.
    #[must_use]
    pub fn from_picos(ps: f64) -> Self {
        Self::new(ps * 1e-12)
    }

    /// Returns the duration in nanoseconds.
    #[must_use]
    pub fn to_nanos(self) -> f64 {
        self.value() * 1e9
    }

    /// Returns the duration in microseconds.
    #[must_use]
    pub fn to_micros(self) -> f64 {
        self.value() * 1e6
    }
}

impl GigaHertz {
    /// Returns the period of one cycle at this frequency.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the frequency is not strictly positive.
    #[must_use]
    pub fn period(self) -> Seconds {
        debug_assert!(self.value() > 0.0, "frequency must be positive");
        Seconds::new(1.0 / (self.value() * 1e9))
    }
}

impl Picojoules {
    /// Creates an energy from a power applied for a duration.
    #[must_use]
    pub fn from_power_time(power: MilliWatts, time: Seconds) -> Self {
        // mW * s = mJ; 1 mJ = 1e9 pJ.
        Self::new(power.value() * time.value() * 1e9)
    }
}

impl Radians {
    /// The full free-spectral-range phase shift of 2π radians.
    #[must_use]
    pub fn full_turn() -> Self {
        Self::new(std::f64::consts::TAU)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn milliwatt_dbm_roundtrip() {
        let p = MilliWatts::new(2.5);
        let back = p.to_dbm().to_milliwatts();
        assert!((back.value() - 2.5).abs() < 1e-9);
        assert!((MilliWatts::new(1.0).to_dbm().value()).abs() < 1e-12);
    }

    #[test]
    fn loss_linear_roundtrip() {
        let loss = DecibelLoss::new(0.72);
        let t = loss.to_linear_transmission();
        let back = DecibelLoss::from_linear_transmission(t);
        assert!((back.value() - 0.72).abs() < 1e-12);
        assert!(t < 1.0 && t > 0.8);
    }

    #[test]
    fn quantity_arithmetic() {
        let a = Micrometers::new(5.0);
        let b = Micrometers::new(2.0);
        assert_eq!((a + b).value(), 7.0);
        assert_eq!((a - b).value(), 3.0);
        assert_eq!((a * 2.0).value(), 10.0);
        assert_eq!((a / 2.0).value(), 2.5);
        assert!((a / b - 2.5).abs() < 1e-12);
        assert_eq!((-b).value(), -2.0);
    }

    #[test]
    fn quantity_sum_and_ordering() {
        let total: DecibelLoss = [1.0, 0.5, 0.25].into_iter().map(DecibelLoss::new).sum();
        assert!((total.value() - 1.75).abs() < 1e-12);
        assert!(DecibelLoss::new(1.0) < DecibelLoss::new(2.0));
        assert_eq!(
            DecibelLoss::new(1.0).max(DecibelLoss::new(2.0)),
            DecibelLoss::new(2.0)
        );
    }

    #[test]
    fn energy_from_power_and_time() {
        // 1 mW for 1 ns = 1 pJ.
        let e = Picojoules::from_power_time(MilliWatts::new(1.0), Seconds::from_nanos(1.0));
        assert!((e.value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn seconds_conversions() {
        assert!((Seconds::from_micros(4.0).to_nanos() - 4000.0).abs() < 1e-9);
        assert!((Seconds::from_picos(5.8).value() - 5.8e-12).abs() < 1e-24);
    }

    #[test]
    fn frequency_period() {
        let clk = GigaHertz::new(5.0);
        assert!((clk.period().to_nanos() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(Nanometers::new(1550.0).to_string(), "1550 nm");
        assert_eq!(MilliWatts::new(0.66).to_string(), "0.66 mW");
    }
}
