//! Internal macro for declaring linear quantity newtypes.

/// Declares a linear (non-affine) physical quantity newtype over `f64`.
///
/// Generates: `new`/`get`/`abs`/`clamp` inherent methods, `Add`, `Sub`, `Neg`,
/// `Mul<f64>`, `Div<f64>`, `f64 * Self`, `Div<Self> -> f64` (ratio),
/// `AddAssign`/`SubAssign`, `Sum` and `Display` with the unit symbol.
/// Same-unit comparison comes from `PartialOrd`.
macro_rules! quantity {
    (
        $(#[$meta:meta])*
        $name:ident, $symbol:literal
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        #[repr(transparent)]
        pub struct $name(f64);

        impl $name {
            /// The zero value of this quantity.
            pub const ZERO: Self = Self(0.0);

            /// Wraps a raw `f64` value expressed in the canonical unit.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw `f64` value in the canonical unit.
            #[inline]
            pub const fn get(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Clamps the value into `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi` (as [`f64::clamp`] does).
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// Returns `true` if the value is finite (not NaN or infinite).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Returns the larger of two values.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of two values.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }
        }

        impl core::ops::Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl core::ops::Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl core::ops::Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl core::ops::Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl core::ops::Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl core::ops::Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl core::ops::Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl core::ops::AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl core::ops::SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl core::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl core::fmt::Display for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                if let Some(precision) = f.precision() {
                    write!(f, "{:.*} {}", precision, self.0, $symbol)
                } else {
                    write!(f, "{} {}", self.0, $symbol)
                }
            }
        }

        impl From<$name> for f64 {
            #[inline]
            fn from(value: $name) -> f64 {
                value.0
            }
        }
    };
}

/// Declares `Mul`/`Div` relations between quantities, e.g.
/// `relation!(Volts / Ohms = Amps)` generates `Volts / Ohms -> Amps`,
/// `Amps * Ohms -> Volts` and `Ohms * Amps -> Volts`.
macro_rules! relation {
    ($num:ident / $den:ident = $quot:ident) => {
        impl core::ops::Div<$den> for $num {
            type Output = $quot;
            #[inline]
            fn div(self, rhs: $den) -> $quot {
                $quot::new(self.get() / rhs.get())
            }
        }

        impl core::ops::Mul<$den> for $quot {
            type Output = $num;
            #[inline]
            fn mul(self, rhs: $den) -> $num {
                $num::new(self.get() * rhs.get())
            }
        }

        impl core::ops::Mul<$quot> for $den {
            type Output = $num;
            #[inline]
            fn mul(self, rhs: $quot) -> $num {
                $num::new(self.get() * rhs.get())
            }
        }

        impl core::ops::Div<$quot> for $num {
            type Output = $den;
            #[inline]
            fn div(self, rhs: $quot) -> $den {
                $den::new(self.get() / rhs.get())
            }
        }
    };
}
