//! Simulated time.
//!
//! The simulator's clock is a 64-bit count of **picoseconds**. Integer
//! picoseconds keep every cost computation exact (the per-byte wire gap of a
//! 2016-era FDR InfiniBand link is ~145 ps/B, which does not round to a whole
//! nanosecond), which in turn keeps the simulation bit-for-bit deterministic
//! across platforms. A `u64` of picoseconds covers ~213 days of simulated
//! time, far beyond any experiment in this repository.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// One nanosecond, in picoseconds.
pub const NS: u64 = 1_000;
/// One microsecond, in picoseconds.
pub const US: u64 = 1_000_000;
/// One millisecond, in picoseconds.
pub const MS: u64 = 1_000_000_000;
/// One second, in picoseconds.
pub const SEC: u64 = 1_000_000_000_000;

/// A point on (or a span of) the simulated timeline, in picoseconds.
///
/// `Time` is used both as an absolute timestamp and as a duration; the
/// arithmetic provided (saturating on subtraction, checked-in-debug on
/// addition) is shared by both uses.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

impl Time {
    /// The origin of the simulated timeline.
    pub const ZERO: Time = Time(0);
    /// The greatest representable instant; used as "never".
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Time {
        Time(ns * NS)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Time {
        Time(us * US)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Time {
        Time(ms * MS)
    }

    /// Construct from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Time {
        Time(ps)
    }

    /// The raw picosecond count.
    #[inline]
    pub const fn ps(self) -> u64 {
        self.0
    }

    /// This instant expressed in (truncated) whole nanoseconds.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / NS
    }

    /// This instant expressed in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / SEC as f64
    }

    /// Saturating difference `self - other`, clamped at zero.
    #[inline]
    pub fn saturating_sub(self, other: Time) -> Time {
        Time(self.0.saturating_sub(other.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: u64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Div<u64> for Time {
    type Output = Time;
    #[inline]
    fn div(self, rhs: u64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        Time(iter.map(|t| t.0).sum())
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == u64::MAX {
            write!(f, "never")
        } else if ps >= SEC {
            write!(f, "{:.6}s", self.as_secs_f64())
        } else if ps >= MS {
            write!(f, "{:.3}ms", ps as f64 / MS as f64)
        } else if ps >= US {
            write!(f, "{:.3}us", ps as f64 / US as f64)
        } else if ps >= NS {
            write!(f, "{:.3}ns", ps as f64 / NS as f64)
        } else {
            write!(f, "{}ps", ps)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Time::from_ns(1), Time::from_ps(1_000));
        assert_eq!(Time::from_us(1), Time::from_ns(1_000));
        assert_eq!(Time::from_ms(1), Time::from_us(1_000));
        assert_eq!(Time::from_ms(2_500).as_secs_f64(), 2.5);
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_ns(10);
        let b = Time::from_ns(4);
        assert_eq!(a + b, Time::from_ns(14));
        assert_eq!(a - b, Time::from_ns(6));
        assert_eq!(b.saturating_sub(a), Time::ZERO);
        assert_eq!(a * 3, Time::from_ns(30));
        assert_eq!(a / 2, Time::from_ns(5));
    }

    #[test]
    fn min_max() {
        let a = Time::from_ns(10);
        let b = Time::from_ns(4);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(a), a);
    }

    #[test]
    fn display_scales() {
        assert_eq!(format!("{}", Time::from_ps(7)), "7ps");
        assert_eq!(format!("{}", Time::from_ns(5)), "5.000ns");
        assert_eq!(format!("{}", Time::from_us(3)), "3.000us");
        assert_eq!(format!("{}", Time::from_ms(2)), "2.000ms");
        assert_eq!(format!("{}", Time::MAX), "never");
    }

    #[test]
    fn sum_of_times() {
        let total: Time = [Time::from_ns(1), Time::from_ns(2), Time::from_ns(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Time::from_ns(6));
    }
}
