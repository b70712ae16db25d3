//! Time values.
//!
//! LLHD models physical time as a triple of
//! (femtoseconds, delta steps, epsilon steps):
//!
//! * the **physical** component advances real time (the paper's `1ns`,
//!   `2ns` delays),
//! * the **delta** component orders zero-delay events relative to each other
//!   (one delta step is the smallest amount of "time" between dependent
//!   signal updates within the same physical instant),
//! * the **epsilon** component orders updates within the same delta step and
//!   is used by the simulator to sequence instantaneous re-evaluations.
//!
//! The triple orders lexicographically.

use std::fmt;
use std::ops::Add;

/// Femtoseconds per second, the base unit of [`TimeValue`].
pub const FEMTOS_PER_SECOND: u128 = 1_000_000_000_000_000;

/// A point in time or a delay, as `(fs, delta, epsilon)`.
///
/// # Examples
///
/// ```
/// use llhd::value::TimeValue;
/// let a = TimeValue::from_nanos(1);
/// let b = TimeValue::from_nanos(2);
/// assert!(a < b);
/// assert_eq!((a + b).as_femtos(), 3_000_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TimeValue {
    femtos: u128,
    delta: u32,
    epsilon: u32,
}

impl TimeValue {
    /// The zero time.
    pub const ZERO: TimeValue = TimeValue {
        femtos: 0,
        delta: 0,
        epsilon: 0,
    };

    /// Create a time value from its components.
    pub fn new(femtos: u128, delta: u32, epsilon: u32) -> Self {
        TimeValue {
            femtos,
            delta,
            epsilon,
        }
    }

    /// A purely physical time in femtoseconds.
    pub fn from_femtos(femtos: u128) -> Self {
        TimeValue::new(femtos, 0, 0)
    }

    /// A purely physical time in picoseconds.
    pub fn from_picos(picos: u128) -> Self {
        TimeValue::from_femtos(picos * 1_000)
    }

    /// A purely physical time in nanoseconds.
    pub fn from_nanos(nanos: u128) -> Self {
        TimeValue::from_femtos(nanos * 1_000_000)
    }

    /// A purely physical time in microseconds.
    pub fn from_micros(micros: u128) -> Self {
        TimeValue::from_femtos(micros * 1_000_000_000)
    }

    /// A pure delta-step delay.
    pub fn from_delta(delta: u32) -> Self {
        TimeValue::new(0, delta, 0)
    }

    /// A pure epsilon-step delay.
    pub fn from_epsilon(epsilon: u32) -> Self {
        TimeValue::new(0, 0, epsilon)
    }

    /// The physical component in femtoseconds.
    pub fn as_femtos(&self) -> u128 {
        self.femtos
    }

    /// The physical component in (truncated) nanoseconds.
    pub fn as_nanos(&self) -> u128 {
        self.femtos / 1_000_000
    }

    /// The delta component.
    pub fn delta(&self) -> u32 {
        self.delta
    }

    /// The epsilon component.
    pub fn epsilon(&self) -> u32 {
        self.epsilon
    }

    /// Whether all components are zero.
    pub fn is_zero(&self) -> bool {
        *self == TimeValue::ZERO
    }

    /// Advance this absolute time by a (relative) delay.
    ///
    /// Adding a delay with a non-zero physical component resets the delta and
    /// epsilon counters, matching event-queue semantics: a `1ns` delay always
    /// lands at the first delta step of the new time instant.
    ///
    /// Every component saturates: a delay past the end of representable
    /// time lands at its end instead of wrapping around to the near future.
    pub fn advance_by(&self, delay: &TimeValue) -> TimeValue {
        if delay.femtos > 0 {
            TimeValue::new(
                self.femtos.saturating_add(delay.femtos),
                delay.delta,
                delay.epsilon,
            )
        } else {
            TimeValue::new(
                self.femtos,
                self.delta.saturating_add(delay.delta),
                if delay.delta > 0 {
                    delay.epsilon
                } else {
                    self.epsilon.saturating_add(delay.epsilon)
                },
            )
        }
    }
}

/// Component-wise addition, saturating like [`TimeValue::advance_by`].
impl Add for TimeValue {
    type Output = TimeValue;
    fn add(self, rhs: TimeValue) -> TimeValue {
        TimeValue::new(
            self.femtos.saturating_add(rhs.femtos),
            self.delta.saturating_add(rhs.delta),
            self.epsilon.saturating_add(rhs.epsilon),
        )
    }
}

impl fmt::Display for TimeValue {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        // Print with the largest unit that divides the value exactly.
        let (value, unit) = if self.femtos == 0 {
            (0, "s")
        } else if self.femtos.is_multiple_of(1_000_000_000) {
            (self.femtos / 1_000_000_000, "us")
        } else if self.femtos.is_multiple_of(1_000_000) {
            (self.femtos / 1_000_000, "ns")
        } else if self.femtos.is_multiple_of(1_000) {
            (self.femtos / 1_000, "ps")
        } else {
            (self.femtos, "fs")
        };
        write!(f, "{}{}", value, unit)?;
        if self.delta > 0 {
            write!(f, " {}d", self.delta)?;
        }
        if self.epsilon > 0 {
            write!(f, " {}e", self.epsilon)?;
        }
        Ok(())
    }
}

impl fmt::Debug for TimeValue {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Parse a time literal such as `1ns`, `500ps`, `2us`, optionally followed by
/// delta (`3d`) and epsilon (`4e`) components.
///
/// Returns `None` for a malformed literal and for one out of range: a
/// physical time past `u128::MAX` femtoseconds, or a delta or epsilon
/// count past `u32::MAX`.
pub fn parse_time(s: &str) -> Option<TimeValue> {
    let mut femtos = 0u128;
    let mut delta = 0u32;
    let mut epsilon = 0u32;
    for part in s.split_whitespace() {
        let digits_end = part
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(part.len());
        let (num_str, suffix) = part.split_at(digits_end);
        let num: u128 = num_str.parse().ok()?;
        let scale: u128 = match suffix {
            "s" => FEMTOS_PER_SECOND,
            "ms" => 1_000_000_000_000,
            "us" => 1_000_000_000,
            "ns" => 1_000_000,
            "ps" => 1_000,
            "fs" => 1,
            "d" => {
                delta = u32::try_from(num).ok()?;
                continue;
            }
            "e" => {
                epsilon = u32::try_from(num).ok()?;
                continue;
            }
            _ => return None,
        };
        femtos = femtos.checked_add(num.checked_mul(scale)?)?;
    }
    Some(TimeValue::new(femtos, delta, epsilon))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_units() {
        assert_eq!(TimeValue::from_nanos(1).as_femtos(), 1_000_000);
        assert_eq!(TimeValue::from_picos(1).as_femtos(), 1_000);
        assert_eq!(TimeValue::from_micros(1).as_femtos(), 1_000_000_000);
        assert_eq!(TimeValue::from_nanos(3).as_nanos(), 3);
    }

    #[test]
    fn lexicographic_ordering() {
        let t1 = TimeValue::new(1000, 0, 0);
        let t2 = TimeValue::new(1000, 1, 0);
        let t3 = TimeValue::new(1000, 1, 1);
        let t4 = TimeValue::new(2000, 0, 0);
        assert!(t1 < t2);
        assert!(t2 < t3);
        assert!(t3 < t4);
        assert!(TimeValue::ZERO < t1);
    }

    #[test]
    fn advancing_time() {
        let now = TimeValue::new(5_000_000, 3, 2);
        let later = now.advance_by(&TimeValue::from_nanos(1));
        assert_eq!(later, TimeValue::new(6_000_000, 0, 0));
        let delta = now.advance_by(&TimeValue::from_delta(1));
        assert_eq!(delta, TimeValue::new(5_000_000, 4, 0));
        let eps = now.advance_by(&TimeValue::from_epsilon(1));
        assert_eq!(eps, TimeValue::new(5_000_000, 3, 3));
    }

    #[test]
    fn display_uses_natural_unit() {
        assert_eq!(TimeValue::from_nanos(1).to_string(), "1ns");
        assert_eq!(TimeValue::from_picos(500).to_string(), "500ps");
        assert_eq!(TimeValue::from_femtos(7).to_string(), "7fs");
        assert_eq!(TimeValue::from_micros(2).to_string(), "2us");
        assert_eq!(TimeValue::ZERO.to_string(), "0s");
        assert_eq!(TimeValue::new(1_000_000, 2, 3).to_string(), "1ns 2d 3e");
    }

    #[test]
    fn parse_roundtrip() {
        for s in ["1ns", "500ps", "2us", "7fs", "0s", "1ns 2d 3e"] {
            let t = parse_time(s).unwrap();
            assert_eq!(t.to_string(), s, "roundtrip of {}", s);
        }
        assert_eq!(parse_time("1ns 1d"), Some(TimeValue::new(1_000_000, 1, 0)));
        assert_eq!(parse_time("garbage"), None);
        assert_eq!(parse_time("1xx"), None);
    }

    #[test]
    fn out_of_range_literals_are_rejected() {
        // u128::MAX seconds: the scaling overflows.
        assert_eq!(parse_time("340282366920938463463374607431768211455s"), None);
        // Each part fits, their sum does not.
        assert_eq!(
            parse_time("340282366920938463463374607431768211455fs 1fs"),
            None
        );
        // Delta and epsilon counts are 32-bit.
        assert_eq!(parse_time("4294967296d"), None);
        assert_eq!(parse_time("0s 4294967296e"), None);
        // The largest representable literals still parse.
        assert_eq!(
            parse_time("340282366920938463463374607431768211455fs"),
            Some(TimeValue::from_femtos(u128::MAX))
        );
        assert_eq!(
            parse_time("0s 4294967295d 4294967295e"),
            Some(TimeValue::new(0, u32::MAX, u32::MAX))
        );
    }

    #[test]
    fn advancing_past_the_end_of_time_saturates() {
        let now = TimeValue::from_femtos(10);
        let far = now.advance_by(&TimeValue::from_femtos(u128::MAX - 5));
        assert_eq!(far, TimeValue::from_femtos(u128::MAX));
        assert!(far > now);
        let last_delta = TimeValue::new(0, u32::MAX - 1, 0).advance_by(&TimeValue::from_delta(5));
        assert_eq!(last_delta, TimeValue::new(0, u32::MAX, 0));
        let last_eps = TimeValue::new(0, 0, u32::MAX).advance_by(&TimeValue::from_epsilon(1));
        assert_eq!(last_eps, TimeValue::new(0, 0, u32::MAX));
    }

    #[test]
    fn addition() {
        let a = TimeValue::new(10, 1, 2);
        let b = TimeValue::new(20, 3, 4);
        assert_eq!(a + b, TimeValue::new(30, 4, 6));
        let end = TimeValue::new(u128::MAX, u32::MAX, u32::MAX);
        assert_eq!(end + b, end);
    }
}
