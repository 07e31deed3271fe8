//! Simulated time.
//!
//! The EMC-Y runs at 20 MHz, so one cycle is 50 ns. All simulator bookkeeping
//! is done in integer cycles; conversion to seconds happens only at reporting
//! time, which keeps the simulation exactly deterministic.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// The EMC-Y clock frequency: 20 MHz (50 ns per cycle).
pub const EMX_CLOCK_HZ: u64 = 20_000_000;

/// A point in simulated time (or a duration), measured in processor cycles.
///
/// `Cycle` is a transparent `u64` newtype with checked-in-debug arithmetic.
/// Subtraction saturates at zero rather than wrapping: durations in this
/// simulator are never negative, and a saturating difference makes interval
/// accounting robust against reordered observations at the same instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// Time zero.
    pub const ZERO: Cycle = Cycle(0);

    /// The largest representable time; used as an "infinitely far" sentinel.
    pub const MAX: Cycle = Cycle(u64::MAX);

    /// Construct from a raw cycle count.
    #[inline]
    pub const fn new(cycles: u64) -> Self {
        Cycle(cycles)
    }

    /// The raw cycle count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Convert a duration in cycles to seconds at the given clock frequency.
    #[inline]
    pub fn as_secs(self, clock_hz: u64) -> f64 {
        self.0 as f64 / clock_hz as f64
    }

    /// Convert to seconds at the EM-X clock (20 MHz).
    #[inline]
    pub fn as_emx_secs(self) -> f64 {
        self.as_secs(EMX_CLOCK_HZ)
    }

    /// Convert to microseconds at the EM-X clock. A "typical remote read takes
    /// approximately 1 µs" (paper §2.3) is 20 cycles in this unit system.
    #[inline]
    pub fn as_emx_micros(self) -> f64 {
        self.as_emx_secs() * 1e6
    }

    /// Saturating difference; see the type docs for why subtraction saturates.
    #[inline]
    pub fn saturating_sub(self, rhs: Cycle) -> Cycle {
        Cycle(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition of a duration in cycles.
    #[inline]
    pub fn checked_add(self, cycles: u64) -> Option<Cycle> {
        self.0.checked_add(cycles).map(Cycle)
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: Cycle) -> Cycle {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: Cycle) -> Cycle {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl Add<Cycle> for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 + rhs.0)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl AddAssign<Cycle> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: Cycle) {
        self.0 += rhs.0;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = Cycle;
    /// Saturating: an interval never goes negative.
    #[inline]
    fn sub(self, rhs: Cycle) -> Cycle {
        self.saturating_sub(rhs)
    }
}

impl SubAssign<Cycle> for Cycle {
    #[inline]
    fn sub_assign(&mut self, rhs: Cycle) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Sum for Cycle {
    fn sum<I: Iterator<Item = Cycle>>(iter: I) -> Cycle {
        iter.fold(Cycle::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

impl From<u64> for Cycle {
    #[inline]
    fn from(v: u64) -> Self {
        Cycle(v)
    }
}

impl From<u32> for Cycle {
    #[inline]
    fn from(v: u32) -> Self {
        Cycle(v as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic_basics() {
        let a = Cycle::new(10);
        let b = Cycle::new(4);
        assert_eq!(a + b, Cycle::new(14));
        assert_eq!(a + 5u64, Cycle::new(15));
        assert_eq!(a - b, Cycle::new(6));
        assert_eq!(b - a, Cycle::ZERO, "subtraction saturates");
    }

    #[test]
    fn add_assign_and_sub_assign() {
        let mut t = Cycle::new(100);
        t += 20u64;
        assert_eq!(t.get(), 120);
        t += Cycle::new(5);
        assert_eq!(t.get(), 125);
        t -= Cycle::new(200);
        assert_eq!(t, Cycle::ZERO);
    }

    #[test]
    fn min_max_select_correct_endpoint() {
        let a = Cycle::new(3);
        let b = Cycle::new(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(a), a);
    }

    #[test]
    fn seconds_conversion_matches_20mhz_clock() {
        // 20 cycles at 20 MHz is exactly 1 microsecond — the paper's "typical
        // remote read takes approximately 1 µs".
        let t = Cycle::new(20);
        assert!((t.as_emx_micros() - 1.0).abs() < 1e-12);
        // 40 cycles = 2 µs, the upper end of the paper's latency band.
        assert!((Cycle::new(40).as_emx_micros() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn seconds_conversion_generic_clock() {
        let t = Cycle::new(1_000_000);
        assert!((t.as_secs(1_000_000) - 1.0).abs() < 1e-12);
        assert!((t.as_secs(2_000_000) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sum_of_cycles() {
        let total: Cycle = [1u64, 2, 3, 4].into_iter().map(Cycle::new).sum();
        assert_eq!(total, Cycle::new(10));
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert_eq!(Cycle::MAX.checked_add(1), None);
        assert_eq!(Cycle::new(1).checked_add(1), Some(Cycle::new(2)));
    }

    #[test]
    fn display_format() {
        assert_eq!(Cycle::new(42).to_string(), "42cy");
    }
}
