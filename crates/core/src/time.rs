//! Simulation time.
//!
//! The simulator never reads the wall clock: all time is *virtual* and driven
//! by the event queue. Time is represented with integer microseconds so that
//! event ordering is exact and runs are bit-for-bit reproducible, which a
//! floating-point clock cannot guarantee.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// An instant on the simulation clock, in microseconds since the start of the
/// run.
///
/// # Examples
///
/// ```
/// use bft_sim_core::time::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(250.0);
/// assert_eq!(t.as_millis_f64(), 250.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in microseconds.
///
/// # Examples
///
/// ```
/// use bft_sim_core::time::SimDuration;
///
/// let d = SimDuration::from_millis(1.5);
/// assert_eq!(d.as_micros(), 1_500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from raw microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant from integral milliseconds, saturating at the
    /// largest representable instant: one later than that is "never".
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis.saturating_mul(1_000))
    }

    /// Returns the instant as raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the instant as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the instant as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns the duration elapsed since `earlier`, saturating at zero if
    /// `earlier` is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration from fractional milliseconds, rounding to the
    /// nearest microsecond and clamping negatives to zero.
    pub fn from_millis(millis: f64) -> Self {
        if !millis.is_finite() || millis <= 0.0 {
            return SimDuration(0);
        }
        SimDuration(round_positive(millis * 1_000.0))
    }

    /// Creates a duration from fractional seconds, clamping negatives to zero.
    pub fn from_secs(secs: f64) -> Self {
        Self::from_millis(secs * 1_000.0)
    }

    /// Returns the duration as raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the duration as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Multiplies the duration by an integer factor, saturating on overflow.
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// Returns `self * 2^exp`, saturating on overflow. Used by exponential
    /// back-off pacemakers.
    pub fn saturating_shl(self, exp: u32) -> SimDuration {
        if self.0 == 0 {
            return SimDuration(0);
        }
        if exp > self.0.leading_zeros() {
            return SimDuration(u64::MAX);
        }
        SimDuration(self.0 << exp)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

/// `x.round() as u64` for a positive `x` (infinity included), without
/// libm's `round`: below 2^52 the truncation and the fraction it drops are
/// exact, and from 2^52 on every `f64` is an integer already, so the cast
/// alone is the rounded value (saturating at `u64::MAX` as before).
#[inline]
fn round_positive(x: f64) -> u64 {
    const INTEGRAL_FROM: f64 = (1u64 << 52) as f64;
    let t = x as u64;
    if x < INTEGRAL_FROM && x - t as f64 >= 0.5 {
        t + 1
    } else {
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Against `f64::round` on positive values of every kind: random bit
    /// patterns (mostly huge), values below 2^53 with random fractions,
    /// exact halves and their neighbours either side. 2^18 cases in debug
    /// builds, ten million in release (CI's counter gate step).
    #[test]
    fn rounding_matches_f64_round() {
        let cases = if cfg!(debug_assertions) {
            1 << 18
        } else {
            10_000_000
        };
        let check = |x: f64| {
            if x > 0.0 {
                assert_eq!(
                    round_positive(x),
                    x.round() as u64,
                    "{x:e} ({:#x})",
                    x.to_bits()
                );
            }
        };
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..cases / 5 {
            let r = next();
            check(f64::from_bits(r >> 1));
            let below = (r >> (11 + r % 53)) as f64 + (next() >> 11) as f64 / (1u64 << 53) as f64;
            check(below);
            let half = (next() >> (12 + r % 52)) as f64 + 0.5;
            check(half);
            check(half.next_up());
            check(half.next_down());
        }
        for x in [
            f64::MIN_POSITIVE,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            4_503_599_627_370_495.5,
            4_503_599_627_370_496.0,
            9_007_199_254_740_993.0,
            1.8446744073709552e19,
            f64::MAX,
            f64::INFINITY,
        ] {
            check(x);
        }
    }

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_millis(10);
        let d = SimDuration::from_millis(2.5);
        assert_eq!((t + d).as_micros(), 12_500);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn negative_and_nan_millis_clamp_to_zero() {
        assert_eq!(SimDuration::from_millis(-5.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_millis(f64::NEG_INFINITY),
            SimDuration::ZERO
        );
    }

    #[test]
    fn subtraction_saturates() {
        let a = SimTime::from_millis(1);
        let b = SimTime::from_millis(2);
        assert_eq!(a - b, SimDuration::ZERO);
        assert_eq!(b - a, SimDuration::from_millis(1.0));
    }

    #[test]
    fn from_millis_saturates_at_the_edge() {
        let last = u64::MAX / 1_000;
        assert_eq!(SimTime::from_millis(last).as_micros(), last * 1_000);
        assert_eq!(SimTime::from_millis(last + 1), SimTime(u64::MAX));
        assert_eq!(SimTime::from_millis(u64::MAX), SimTime(u64::MAX));
    }

    #[test]
    fn shl_saturates() {
        let d = SimDuration::from_micros(u64::MAX / 2);
        assert_eq!(d.saturating_shl(2), SimDuration::MAX);
        assert_eq!(d.saturating_shl(64), SimDuration::MAX);
        assert_eq!(
            SimDuration::from_micros(3).saturating_shl(2),
            SimDuration::from_micros(12)
        );
    }

    #[test]
    fn display_is_millis() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1500.000ms");
        assert_eq!(SimDuration::from_millis(0.25).to_string(), "0.250ms");
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![
            SimTime::from_micros(5),
            SimTime::ZERO,
            SimTime::from_micros(3),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                SimTime::ZERO,
                SimTime::from_micros(3),
                SimTime::from_micros(5)
            ]
        );
    }
}
