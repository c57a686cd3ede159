//! Values, register contents, and probabilities.

use std::error::Error;
use std::fmt;

/// A decision value from the input alphabet Σ.
///
/// The paper's algorithms operate on an abstract value set Σ of size `m`;
/// we represent values as machine words `0..m`. Typed front-ends (see
/// `mc-runtime`) map user types onto this encoding.
pub type Value = u64;

/// The contents of an atomic register: `None` is the initial null value ⊥.
///
/// Every algorithm in the paper stores either ⊥, a bit, or a value from Σ in
/// each register, so a single uniform register type suffices.
pub type RegContents = Option<Value>;

/// A probability in `[0, 1]`, validated at construction.
///
/// Used for the coin of a probabilistic write ([`Op::ProbWrite`]) and for
/// local coin flips. The newtype prevents accidentally passing raw odds or
/// percentages.
///
/// [`Op::ProbWrite`]: crate::Op::ProbWrite
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Probability(f64);

/// Error returned when constructing a [`Probability`] outside `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbabilityError(f64);

impl fmt::Display for ProbabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "probability {} is not in [0, 1]", self.0)
    }
}

impl Error for ProbabilityError {}

impl Probability {
    /// The never-happens probability.
    pub const ZERO: Probability = Probability(0.0);

    /// Creates a probability, rejecting values outside `[0, 1]` (including
    /// NaN).
    ///
    /// # Errors
    ///
    /// Returns [`ProbabilityError`] if `p` is NaN or outside `[0, 1]`.
    ///
    /// # Example
    ///
    /// ```
    /// use mc_model::Probability;
    /// # fn main() -> Result<(), mc_model::ProbabilityError> {
    /// let half = Probability::new(0.5)?;
    /// assert_eq!(half.get(), 0.5);
    /// assert!(Probability::new(1.5).is_err());
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(p: f64) -> Result<Probability, ProbabilityError> {
        if p.is_nan() || !(0.0..=1.0).contains(&p) {
            Err(ProbabilityError(p))
        } else {
            Ok(Probability(p))
        }
    }

    /// Creates a probability by clamping `p` into `[0, 1]` (NaN becomes 0).
    ///
    /// This is the natural constructor for write-probability schedules like
    /// the paper's `2^k / n`, which intentionally saturate at 1.
    #[inline]
    pub fn clamped(p: f64) -> Probability {
        if p.is_nan() {
            Probability(0.0)
        } else {
            Probability(p.clamp(0.0, 1.0))
        }
    }

    /// Returns the probability as an `f64` in `[0, 1]`.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }

    /// Returns true if this probability is exactly 1.
    #[inline]
    pub fn is_certain(self) -> bool {
        self.0 >= 1.0
    }
}

impl fmt::Display for Probability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_accepts_unit_interval() {
        assert!(Probability::new(0.0).is_ok());
        assert!(Probability::new(1.0).is_ok());
        assert!(Probability::new(0.25).is_ok());
    }

    #[test]
    fn new_rejects_out_of_range() {
        assert!(Probability::new(-0.1).is_err());
        assert!(Probability::new(1.01).is_err());
        assert!(Probability::new(f64::NAN).is_err());
    }

    #[test]
    fn clamped_saturates() {
        assert_eq!(Probability::clamped(3.0).get(), 1.0);
        assert_eq!(Probability::clamped(-3.0), Probability::ZERO);
        assert_eq!(Probability::clamped(f64::NAN), Probability::ZERO);
        assert_eq!(Probability::clamped(0.5).get(), 0.5);
    }

    #[test]
    fn certainty() {
        assert!(Probability::clamped(1.0).is_certain());
        assert!(!Probability::clamped(0.999).is_certain());
    }

    #[test]
    fn error_display() {
        let err = Probability::new(2.0).unwrap_err();
        assert_eq!(err.to_string(), "probability 2 is not in [0, 1]");
    }
}
