//! The paper's closed-form bounds, for "paper vs measured" columns.

/// Theorem 7's agreement-probability lower bound for the impatient
/// first-mover conciliator: `(1 − e^{−1/4}) · (1/4) ≈ 0.0553`.
pub fn impatient_agreement_lower_bound() -> f64 {
    (1.0 - (-0.25f64).exp()) * 0.25
}

/// `⌈lg x⌉` for `x ≥ 1`.
pub fn ceil_lg(x: u64) -> u64 {
    assert!(x >= 1, "lg of zero");
    64 - (x - 1).leading_zeros() as u64
}

/// Theorem 7's worst-case individual work for the impatient conciliator:
/// `2⌈lg n⌉ + 4` operations.
pub fn impatient_individual_work_bound(n: u64) -> u64 {
    2 * ceil_lg(n.max(1)) + 4
}

/// Theorem 7's expected total work bound for the impatient conciliator:
/// `6n` operations.
pub fn impatient_total_work_bound(n: u64) -> u64 {
    6 * n
}

/// §6.2 item 3: registers of the bit-vector `m`-valued ratifier,
/// `2⌈lg m⌉ + 1` (including the proposal register).
pub fn bitvector_ratifier_registers(m: u64) -> u64 {
    2 * ceil_lg(m.max(2)) + 1
}

/// §6.2 item 3: worst-case operations of the bit-vector ratifier,
/// `2⌈lg m⌉ + 2`.
pub fn bitvector_ratifier_ops(m: u64) -> u64 {
    2 * ceil_lg(m.max(2)) + 2
}

/// Theorem 6: extra registers of the coin→conciliator construction over
/// the underlying weak shared coin — the two announce registers.
pub const COIN_CONCILIATOR_EXTRA_REGISTERS: u64 = 2;

/// Theorem 6: extra operations per process of the coin→conciliator
/// construction over the coin — one announce write plus one announce read.
pub const COIN_CONCILIATOR_EXTRA_OPS: u64 = 2;

/// Theorem 6: agreement parameter of the conciliator built from a weak
/// shared coin with per-side agreement parameter `delta` — the coin's `δ`
/// carries over unchanged. A process that bypasses the coin halts with its
/// own input `v` (it announced `v` and saw no other value announced), and
/// every deferring process agrees with it whenever the coin lands `v` —
/// which it does with probability at least `δ` per side.
pub fn coin_conciliator_delta(delta: f64) -> f64 {
    assert!(
        delta > 0.0 && delta <= 0.5,
        "per-side δ must be in (0, 1/2]"
    );
    delta
}

/// Per-side agreement parameter of `n` independent local coin flips:
/// `2^{−n}` (the probability all `n` flips land a given side). Valid only
/// against an *oblivious* adversary — an adaptive one sees local flips
/// before choosing whom to schedule, and the "coin" has no shared state to
/// defend itself with.
pub fn local_coin_delta(n: u64) -> f64 {
    assert!((1..=1024).contains(&n), "n must be in 1..=1024");
    0.5f64.powi(n as i32)
}

/// Upper tail of the standard normal, `P(Z ≥ z)`, via the
/// Abramowitz–Stegun 7.1.26 erf approximation (absolute error < 1.5·10⁻⁷).
fn normal_upper_tail(z: f64) -> f64 {
    assert!(z >= 0.0, "tail is taken at z ≥ 0");
    let x = z / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    0.5 * poly * (-x * x).exp()
}

/// Conservative per-side agreement lower bound for the Aspnes–Herlihy
/// voting coin with vote quorum `T = c·n²` under a *content-oblivious*
/// scheduler: `Φ̄(2/√c)`.
///
/// The sum of `T` fair ±1 votes has standard deviation `n√c`; any two
/// processes' views of it differ by at most `2n` votes (≤ `n` pending
/// unwritten votes hidden from a reader, ≤ `n` extra votes cast past the
/// quorum), so all processes see the same sign whenever the true sum lands
/// beyond `±2n` — a normal tail at `z = 2n / (n√c) = 2/√c` per side.
pub fn voting_coin_delta_lower_bound(quorum_factor: u32) -> f64 {
    assert!(quorum_factor > 0, "quorum factor must be positive");
    normal_upper_tail(2.0 / (quorum_factor as f64).sqrt())
}

/// [`voting_coin_delta_lower_bound`] against the *adaptive* adversary,
/// with a factor-4 safety margin: the adversary sees every local flip
/// before scheduling the write, and stopping voters mid-cast biases the
/// decisive sum by more than the ±2n view-difference argument accounts
/// for. Aspnes–Herlihy show the constant survives; the margin keeps this
/// bound conservative without reproducing their martingale argument.
pub fn voting_coin_adaptive_delta_lower_bound(quorum_factor: u32) -> f64 {
    voting_coin_delta_lower_bound(quorum_factor) / 4.0
}

/// §4.1.1: expected number of conciliator rounds before agreement, `1/δ`.
pub fn expected_rounds(delta: f64) -> f64 {
    assert!(delta > 0.0 && delta <= 1.0, "δ must be in (0, 1]");
    1.0 / delta
}

/// Theorem 5: probability that the bounded construction reaches its
/// fallback after `k` conciliator rounds, `(1 − δ)^k`.
pub fn fallback_probability(delta: f64, k: u32) -> f64 {
    assert!((0.0..=1.0).contains(&delta), "δ must be in [0, 1]");
    (1.0 - delta).powi(k as i32)
}

/// Theorem 5: rounds needed to push the fallback probability below
/// `epsilon` — the `k = O(log n)` of the bounded construction.
pub fn rounds_for_fallback_probability(delta: f64, epsilon: f64) -> u32 {
    assert!(delta > 0.0 && delta < 1.0, "δ must be in (0, 1)");
    assert!(epsilon > 0.0 && epsilon < 1.0, "ε must be in (0, 1)");
    (epsilon.ln() / (1.0 - delta).ln()).ceil() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_matches_paper_value() {
        let d = impatient_agreement_lower_bound();
        assert!((d - 0.0553).abs() < 0.0001, "δ = {d}");
    }

    #[test]
    fn ceil_lg_values() {
        assert_eq!(ceil_lg(1), 0);
        assert_eq!(ceil_lg(2), 1);
        assert_eq!(ceil_lg(3), 2);
        assert_eq!(ceil_lg(4), 2);
        assert_eq!(ceil_lg(5), 3);
        assert_eq!(ceil_lg(1 << 20), 20);
        assert_eq!(ceil_lg((1 << 20) + 1), 21);
    }

    #[test]
    fn work_bounds() {
        assert_eq!(impatient_individual_work_bound(16), 12);
        assert_eq!(impatient_individual_work_bound(1), 4);
        assert_eq!(impatient_total_work_bound(10), 60);
    }

    #[test]
    fn ratifier_bounds() {
        assert_eq!(bitvector_ratifier_registers(2), 3);
        assert_eq!(bitvector_ratifier_registers(16), 9);
        assert_eq!(bitvector_ratifier_ops(16), 10);
    }

    #[test]
    fn round_expectations() {
        assert_eq!(expected_rounds(0.5), 2.0);
        let delta = impatient_agreement_lower_bound();
        assert!(expected_rounds(delta) < 19.0);
        assert!((fallback_probability(0.5, 3) - 0.125).abs() < 1e-12);
        assert_eq!(fallback_probability(1.0, 5), 0.0);
        // k = Θ(log(1/ε)) rounds suffice.
        let k = rounds_for_fallback_probability(delta, 1e-6);
        assert!(k > 0 && k < 300, "k = {k}");
        assert!(fallback_probability(delta, k) <= 1e-6);
    }

    #[test]
    #[should_panic(expected = "lg of zero")]
    fn lg_zero_rejected() {
        ceil_lg(0);
    }

    #[test]
    fn theorem6_cost_constants() {
        assert_eq!(COIN_CONCILIATOR_EXTRA_REGISTERS, 2);
        assert_eq!(COIN_CONCILIATOR_EXTRA_OPS, 2);
        assert_eq!(coin_conciliator_delta(0.25), 0.25);
    }

    #[test]
    fn local_coin_delta_halves_per_process() {
        assert_eq!(local_coin_delta(1), 0.5);
        assert_eq!(local_coin_delta(3), 0.125);
        assert!(local_coin_delta(3) == 2.0 * local_coin_delta(4));
    }

    #[test]
    fn normal_tail_matches_known_values() {
        // Φ̄(0) = 1/2, Φ̄(1) ≈ 0.1587, Φ̄(2) ≈ 0.02275, Φ̄(3) ≈ 0.00135.
        assert!((normal_upper_tail(0.0) - 0.5).abs() < 1e-6);
        assert!((normal_upper_tail(1.0) - 0.158_655).abs() < 1e-4);
        assert!((normal_upper_tail(2.0) - 0.022_750).abs() < 1e-4);
        assert!((normal_upper_tail(3.0) - 0.001_350).abs() < 1e-4);
    }

    #[test]
    fn voting_coin_bounds_grow_with_the_quorum_factor() {
        let c1 = voting_coin_delta_lower_bound(1);
        let c4 = voting_coin_delta_lower_bound(4);
        assert!(c1 < c4, "{c1} vs {c4}");
        // c = 4 puts the tail at z = 1: δ ≥ Φ̄(1) ≈ 0.1587.
        assert!((c4 - 0.158_655).abs() < 1e-4);
        // The adaptive bound concedes a factor 4.
        assert!((voting_coin_adaptive_delta_lower_bound(4) - c4 / 4.0).abs() < 1e-12);
        // Every bound is a genuine probability, bounded by 1/2 per side.
        for factor in [1, 2, 4, 8, 64] {
            let d = voting_coin_delta_lower_bound(factor);
            assert!(d > 0.0 && d < 0.5, "factor {factor}: {d}");
        }
    }

    #[test]
    #[should_panic(expected = "quorum factor must be positive")]
    fn zero_quorum_factor_has_no_bound() {
        voting_coin_delta_lower_bound(0);
    }
}
