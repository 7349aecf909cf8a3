//! Simulated time: a monotonically increasing nanosecond counter.
//!
//! The discrete-event engine in `ladon-sim` advances a single logical clock;
//! all protocol timers, latencies and metrics are expressed in [`TimeNs`].
//! Keeping the type here (rather than in the simulator) lets protocol crates
//! talk about timeouts without depending on the engine.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Nanoseconds in a microsecond.
pub const NS_PER_US: u64 = 1_000;
/// Nanoseconds in a millisecond.
pub const NS_PER_MS: u64 = 1_000_000;
/// Nanoseconds in a second.
pub const NS_PER_SEC: u64 = 1_000_000_000;

/// `x.round() as u64`, without a libm call: rounds half away from zero,
/// and saturates the way the cast does (negatives and NaN to 0, past
/// `u64::MAX` to it). The workspace builds for baseline x86-64, which
/// has no `roundsd`, so `f64::round` is a call into libm; this is a
/// truncation and one compare. The dropped fraction `x - t` is exact
/// (Sterbenz: `t ≤ x < t + 1`), so ties and values a hair under a half
/// round as `f64::round` does, and at or above 2⁵² every `f64` is an
/// integer and `x - t` is 0.
#[inline]
fn round_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add((x - t as f64 >= 0.5) as u64)
}

/// A point in (simulated) time, in nanoseconds since the start of the run.
///
/// Also used for durations: `TimeNs` is closed under addition and
/// (saturating) subtraction, and the zero value is the run origin.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct TimeNs(pub u64);

impl TimeNs {
    /// The run origin.
    pub const ZERO: Self = Self(0);
    /// The maximum representable time (used as an "infinite" deadline).
    pub const MAX: Self = Self(u64::MAX);

    /// Builds a time from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * NS_PER_MS)
    }

    /// Builds a time from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Self(us * NS_PER_US)
    }

    /// Builds a time from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Self(s * NS_PER_SEC)
    }

    /// Builds a time from fractional seconds (rounds to nanoseconds).
    ///
    /// # Panics
    /// Panics if `s` is negative or not finite.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        Self(round_u64(s * NS_PER_SEC as f64))
    }

    /// This time expressed in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NS_PER_SEC as f64
    }

    /// This time expressed in fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NS_PER_MS as f64
    }

    /// Saturating subtraction, handy for "elapsed since" computations that
    /// may race with clock origins.
    #[inline]
    #[must_use]
    pub fn saturating_sub(self, other: Self) -> Self {
        Self(self.0.saturating_sub(other.0))
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    #[must_use]
    pub fn checked_add(self, other: Self) -> Option<Self> {
        self.0.checked_add(other.0).map(Self)
    }

    /// Multiplies a duration by an integer factor.
    #[inline]
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, k: u64) -> Self {
        Self(self.0 * k)
    }

    /// Scales a duration by a float factor (rounds to nanoseconds).
    #[inline]
    #[must_use]
    pub fn mul_f64(self, k: f64) -> Self {
        Self(round_u64(self.0 as f64 * k))
    }
}

impl Add for TimeNs {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for TimeNs {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for TimeNs {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl fmt::Debug for TimeNs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= NS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= NS_PER_MS {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl fmt::Display for TimeNs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_u64_is_f64_round_cast() {
        let edges = [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            2.5,
            -2.5,
            0.49999999999999994,
            -0.49999999999999994,
            0.5000000000000001,
            1.0 - f64::EPSILON / 2.0,
            4503599627370495.5, // 2^52 - 0.5
            4503599627370496.0, // 2^52
            9007199254740993.0, // 2^53 + 1, not representable
            9223372036854775808.0,
            18446744073709549568.0, // the last f64 below 2^64
            18446744073709551616.0, // 2^64
            1e300,
            -1e300,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for x in edges {
            assert_eq!(round_u64(x), x.round() as u64, "{x:e}");
        }
        let mut state = 0x7157_d00d;
        for i in 0..1_000_000u32 {
            let bits = crate::splitmix64(&mut state);
            // Every bit pattern, and values spread over the range the
            // simulator feeds (fractional nanoseconds up to hours).
            let x = match i % 3 {
                0 => f64::from_bits(bits),
                1 => (bits >> 11) as f64 / (1u64 << 53) as f64 * 1e13,
                _ => (bits >> 32) as f64 + 0.5,
            };
            assert_eq!(round_u64(x), x.round() as u64, "{x:e} ({bits:#x})");
        }
    }

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(TimeNs::from_secs(2).0, 2 * NS_PER_SEC);
        assert_eq!(TimeNs::from_millis(5).0, 5 * NS_PER_MS);
        assert_eq!(TimeNs::from_micros(7).0, 7 * NS_PER_US);
        let t = TimeNs::from_secs_f64(1.5);
        assert_eq!(t.0, 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = TimeNs::from_millis(10);
        let b = TimeNs::from_millis(4);
        assert_eq!(a + b, TimeNs::from_millis(14));
        assert_eq!(a - b, TimeNs::from_millis(6));
        assert_eq!(b.saturating_sub(a), TimeNs::ZERO);
        assert_eq!(b.mul(3), TimeNs::from_millis(12));
        assert_eq!(TimeNs::from_secs(1).mul_f64(0.25), TimeNs::from_millis(250));
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn negative_duration_panics() {
        let _ = TimeNs::from_secs_f64(-1.0);
    }

    #[test]
    fn debug_formatting_picks_unit() {
        assert_eq!(format!("{:?}", TimeNs::from_secs(3)), "3.000s");
        assert_eq!(format!("{:?}", TimeNs::from_millis(3)), "3.000ms");
        assert_eq!(format!("{:?}", TimeNs(42)), "42ns");
    }
}
