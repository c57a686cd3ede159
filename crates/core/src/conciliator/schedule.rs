//! Write-probability schedules for first-mover conciliators.

use std::fmt;

use mc_model::Probability;

/// The probability with which a process's `k`-th probabilistic write (for
/// `k = 0, 1, 2, …`) takes effect, in an `n`-process system.
///
/// The paper's protocols differ only in this schedule:
///
/// * [`WriteSchedule::impatient`] — `2^k / n` (Procedure
///   ImpatientFirstMoverConciliator, Theorem 7). Processes become impatient
///   over time; individual work is `2⌈lg n⌉ + 4` worst case.
/// * [`WriteSchedule::fixed`] — constant `c / n` (the classic
///   Chor–Israeli–Li / Cheung approach, §5.2: "Previous protocols in this
///   model have used a constant Θ(1/n) probability"). Individual work
///   `Θ(n)`.
/// * [`WriteSchedule::geometric`] — `base · ratio^k / n`, generalizing both
///   (used by the ablation experiments).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteSchedule {
    base: f64,
    ratio: f64,
}

impl WriteSchedule {
    /// The paper's impatient doubling schedule `2^k / n`.
    pub fn impatient() -> WriteSchedule {
        WriteSchedule {
            base: 1.0,
            ratio: 2.0,
        }
    }

    /// The fixed schedule `c / n` (baseline; the classic choice is `c = 1`).
    ///
    /// # Panics
    ///
    /// Panics unless `c > 0` and finite.
    pub fn fixed(c: f64) -> WriteSchedule {
        assert!(c.is_finite() && c > 0.0, "c must be positive");
        WriteSchedule {
            base: c,
            ratio: 1.0,
        }
    }

    /// A general geometric schedule `base · ratio^k / n`.
    ///
    /// # Panics
    ///
    /// Panics unless `base > 0` and `ratio ≥ 1`, both finite.
    pub fn geometric(base: f64, ratio: f64) -> WriteSchedule {
        assert!(base.is_finite() && base > 0.0, "base must be positive");
        assert!(ratio.is_finite() && ratio >= 1.0, "ratio must be ≥ 1");
        WriteSchedule { base, ratio }
    }

    /// The probability of the `k`-th attempt among `n` processes, clamped
    /// into `[0, 1]`.
    #[inline]
    pub fn probability(&self, k: u32, n: usize) -> Probability {
        let n = n.max(1) as f64;
        Probability::clamped(self.base * self.ratio.powi(k as i32) / n)
    }

    /// Number of attempts after which the probability saturates at 1 (and
    /// hence the last possible attempt), or `None` for schedules that never
    /// saturate.
    ///
    /// For the impatient schedule this is `⌈lg n⌉ + 1` attempts, which is
    /// what bounds individual work at `2⌈lg n⌉ + O(1)` operations.
    pub(crate) fn saturation_point(&self, n: usize) -> Option<u32> {
        if self.ratio <= 1.0 {
            return (self.base >= n.max(1) as f64).then_some(0);
        }
        let n = n.max(1) as f64;
        // Smallest k with base · ratio^k ≥ n.
        let k = ((n / self.base).ln() / self.ratio.ln()).ceil().max(0.0);
        Some(k as u32)
    }
}

impl fmt::Display for WriteSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ratio == 1.0 {
            write!(f, "{}/n", self.base)
        } else if self.base == 1.0 {
            write!(f, "{}^k/n", self.ratio)
        } else {
            write!(f, "{}*{}^k/n", self.base, self.ratio)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn impatient_doubles() {
        let s = WriteSchedule::impatient();
        let n = 16;
        assert_eq!(s.probability(0, n).get(), 1.0 / 16.0);
        assert_eq!(s.probability(1, n).get(), 2.0 / 16.0);
        assert_eq!(s.probability(4, n).get(), 1.0);
        assert_eq!(s.probability(10, n).get(), 1.0);
    }

    #[test]
    fn impatient_saturates_at_lg_n() {
        let s = WriteSchedule::impatient();
        assert_eq!(s.saturation_point(16), Some(4));
        assert_eq!(s.saturation_point(17), Some(5));
        assert_eq!(s.saturation_point(1), Some(0));
    }

    #[test]
    fn fixed_never_escalates() {
        let s = WriteSchedule::fixed(1.0);
        assert_eq!(s.probability(0, 8).get(), 0.125);
        assert_eq!(s.probability(100, 8).get(), 0.125);
        assert_eq!(s.saturation_point(8), None);
        assert_eq!(WriteSchedule::fixed(8.0).saturation_point(8), Some(0));
    }

    #[test]
    fn geometric_general_case() {
        let s = WriteSchedule::geometric(1.0, 4.0);
        assert_eq!(s.probability(2, 64).get(), 0.25);
        assert_eq!(s.saturation_point(64), Some(3));
    }

    #[test]
    fn single_process_always_writes() {
        assert!(WriteSchedule::impatient().probability(0, 1).is_certain());
    }

    #[test]
    fn display_forms() {
        assert_eq!(WriteSchedule::impatient().to_string(), "2^k/n");
        assert_eq!(WriteSchedule::fixed(1.0).to_string(), "1/n");
        assert_eq!(WriteSchedule::geometric(3.0, 2.0).to_string(), "3*2^k/n");
    }

    #[test]
    #[should_panic(expected = "ratio must be ≥ 1")]
    fn shrinking_ratio_rejected() {
        WriteSchedule::geometric(1.0, 0.5);
    }
}
