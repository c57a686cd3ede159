//! Least-squares fits against the paper's predicted cost shapes.

use std::fmt;

/// A least-squares fit `y ≈ slope·g(x) + intercept` for some feature map
/// `g` (identity for [`fit_linear`], `log₂` for [`fit_log2`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fit {
    /// Coefficient of the feature.
    pub slope: f64,
    /// Constant term.
    pub intercept: f64,
    /// Coefficient of determination in the feature space.
    pub r_squared: f64,
}

impl fmt::Display for Fit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3}·x + {:.3} (R²={:.4})",
            self.slope, self.intercept, self.r_squared
        )
    }
}

fn least_squares(features: &[f64], ys: &[f64]) -> Fit {
    assert_eq!(features.len(), ys.len(), "mismatched sample lengths");
    let n = features.len() as f64;
    assert!(n >= 2.0, "need at least two points to fit a line");
    let mean_x = features.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in features.iter().zip(ys) {
        sxx += (x - mean_x) * (x - mean_x);
        sxy += (x - mean_x) * (y - mean_y);
        syy += (y - mean_y) * (y - mean_y);
    }
    assert!(sxx > 0.0, "features are constant; cannot fit a slope");
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r_squared = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Fit {
        slope,
        intercept,
        r_squared,
    }
}

/// Fits `y ≈ a·x + b`. Used to confirm `O(n)` total-work shapes.
///
/// # Panics
///
/// Panics on mismatched lengths, fewer than 2 points, or constant `x`s.
///
/// # Example
///
/// ```
/// let fit = mc_analysis::fit_linear(&[1.0, 2.0, 3.0], &[6.0, 12.0, 18.0]);
/// assert!((fit.slope - 6.0).abs() < 1e-9);
/// assert!(fit.r_squared > 0.999);
/// ```
pub fn fit_linear(xs: &[f64], ys: &[f64]) -> Fit {
    least_squares(xs, ys)
}

/// Fits `y ≈ a·lg x + b`. Used to confirm `O(log n)` individual-work
/// shapes (Theorem 7: the slope should be ≈ 2 for the impatient
/// conciliator).
///
/// # Panics
///
/// Panics on mismatched lengths, fewer than 2 points, constant `x`s, or any
/// non-positive `x`.
pub fn fit_log2(xs: &[f64], ys: &[f64]) -> Fit {
    let features: Vec<f64> = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "log fit needs positive x values");
            x.log2()
        })
        .collect();
    least_squares(&features, ys)
}

/// Fits a power law `y ≈ c·x^e` by least squares in log-log space,
/// returning `(exponent e, coefficient c, R²)` as a [`PowerFit`].
///
/// Used to confirm polynomial cost shapes — e.g. the voting shared coin's
/// `Θ(n³)` total work or the fixed-schedule conciliator's `Θ(n)` solo
/// individual work.
///
/// # Panics
///
/// Panics on mismatched lengths, fewer than 2 points, constant `x`s, or any
/// non-positive `x` or `y`.
pub fn fit_power(xs: &[f64], ys: &[f64]) -> PowerFit {
    let log_xs: Vec<f64> = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "power fit needs positive x values");
            x.ln()
        })
        .collect();
    let log_ys: Vec<f64> = ys
        .iter()
        .map(|&y| {
            assert!(y > 0.0, "power fit needs positive y values");
            y.ln()
        })
        .collect();
    let fit = least_squares(&log_xs, &log_ys);
    PowerFit {
        exponent: fit.slope,
        coefficient: fit.intercept.exp(),
        r_squared: fit.r_squared,
    }
}

/// A fitted power law `y ≈ coefficient · x^exponent`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerFit {
    /// The exponent `e`.
    pub exponent: f64,
    /// The coefficient `c`.
    pub coefficient: f64,
    /// Coefficient of determination in log-log space.
    pub r_squared: f64,
}

impl fmt::Display for PowerFit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3}·x^{:.2} (R²={:.4})",
            self.coefficient, self.exponent, self.r_squared
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_linear_fit() {
        let fit = fit_linear(&[0.0, 1.0, 2.0], &[1.0, 3.0, 5.0]);
        assert!((fit.slope - 2.0).abs() < 1e-12);
        assert!((fit.intercept - 1.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exact_power_fit() {
        // y = 3·x³ — the voting-coin total-work shape.
        let xs = [2.0f64, 4.0, 8.0, 16.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x.powi(3)).collect();
        let fit = fit_power(&xs, &ys);
        assert!((fit.exponent - 3.0).abs() < 1e-9, "{fit}");
        assert!((fit.coefficient - 3.0).abs() < 1e-6);
        assert!((fit.r_squared - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive y")]
    fn nonpositive_y_rejected_for_power() {
        fit_power(&[1.0, 2.0], &[0.0, 1.0]);
    }

    #[test]
    fn exact_log_fit() {
        // y = 2·lg x + 4, the Theorem 7 shape.
        let xs: [f64; 5] = [2.0, 4.0, 8.0, 16.0, 32.0];
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x.log2() + 4.0).collect();
        let fit = fit_log2(&xs, &ys);
        assert!((fit.slope - 2.0).abs() < 1e-9);
        assert!((fit.intercept - 4.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_fit_has_lower_r2() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let ys = [2.0, 5.0, 4.0, 9.0, 8.0, 13.0];
        let fit = fit_linear(&xs, &ys);
        assert!(fit.r_squared > 0.5 && fit.r_squared < 1.0);
    }

    #[test]
    fn constant_y_is_perfectly_fit() {
        let fit = fit_linear(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]);
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.r_squared, 1.0);
    }

    #[test]
    #[should_panic(expected = "constant")]
    fn constant_x_rejected() {
        fit_linear(&[2.0, 2.0], &[1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "positive x")]
    fn nonpositive_x_rejected_for_log() {
        fit_log2(&[0.0, 2.0], &[1.0, 2.0]);
    }

    #[test]
    fn display_form() {
        let fit = fit_linear(&[0.0, 1.0], &[0.0, 2.0]);
        assert_eq!(fit.to_string(), "2.000·x + 0.000 (R²=1.0000)");
    }
}
