//! Fixed-width histograms with terminal rendering.

use std::fmt;

/// A fixed-width-bin histogram over integer samples (operation counts,
/// stage depths, …), with a proportional bar rendering for experiment
/// output.
#[derive(Debug, Clone)]
pub struct Histogram {
    bin_width: u64,
    /// `counts[i]` counts samples in `[i·w, (i+1)·w)`.
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with the given bin width.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width == 0`.
    pub fn new(bin_width: u64) -> Histogram {
        assert!(bin_width > 0, "bin width must be positive");
        Histogram {
            bin_width,
            counts: Vec::new(),
            total: 0,
        }
    }

    /// Builds a histogram from samples with the given bin width.
    pub fn of(samples: &[u64], bin_width: u64) -> Histogram {
        let mut h = Histogram::new(bin_width);
        for &s in samples {
            h.record(s);
        }
        h
    }

    /// Records one sample.
    pub fn record(&mut self, sample: u64) {
        let bin = usize::try_from(sample / self.bin_width).expect("bin index fits");
        if bin >= self.counts.len() {
            self.counts.resize(bin + 1, 0);
        }
        self.counts[bin] += 1;
        self.total += 1;
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `(lower bound, count)` for each non-empty trailing-trimmed bin.
    fn bins(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(ix, &c)| (ix as u64 * self.bin_width, c))
    }

    /// The smallest sample bound `b` such that at least `q` (0..=1) of the
    /// samples fall below `b` (a coarse quantile at bin resolution).
    pub fn quantile_bound(&self, q: f64) -> u64 {
        let target = (self.total as f64 * q).ceil() as u64;
        let mut seen = 0;
        for (ix, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return (ix as u64 + 1) * self.bin_width;
            }
        }
        self.counts.len() as u64 * self.bin_width
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        for (lo, count) in self.bins() {
            let width = (count * 40 / max) as usize;
            writeln!(
                f,
                "{:>8}..{:<8} {:>7} {}",
                lo,
                lo + self.bin_width,
                count,
                "#".repeat(width)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_bins() {
        let h = Histogram::of(&[0, 1, 2, 5, 9, 10], 5);
        assert_eq!(h.total(), 6);
        // 0,1,2 | 5,9 | 10, and nothing past the last sample's bin.
        assert_eq!(h.bins().collect::<Vec<_>>(), vec![(0, 3), (5, 2), (10, 1)]);
    }

    #[test]
    fn quantiles_at_bin_resolution() {
        let h = Histogram::of(&[1, 1, 1, 1, 1, 1, 1, 1, 1, 100], 10);
        assert_eq!(h.quantile_bound(0.5), 10);
        assert_eq!(h.quantile_bound(0.9), 10);
        assert_eq!(h.quantile_bound(1.0), 110);
    }

    #[test]
    fn renders_bars() {
        let h = Histogram::of(&[0, 0, 0, 0, 7], 5);
        let s = h.to_string();
        assert!(s.contains("0..5"), "{s}");
        assert!(s.contains("####"), "{s}");
    }

    #[test]
    #[should_panic(expected = "bin width")]
    fn zero_width_rejected() {
        Histogram::new(0);
    }
}
