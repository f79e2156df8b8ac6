//! Query-parameter construction and exact expected-sample-size computation.
//!
//! A PSS query samples item `x` with probability
//! `p_x(α,β) = min( w(x) / (α·W + β), 1 )` where `W = Σ_y w(y)`. The expected
//! output size is `μ = Σ_x p_x(α,β)`.
//!
//! A convenient exact fact drives the sweeps used in E2/E5: when **no item
//! clamps** at `p = 1`, setting `β = 0` gives
//! `μ = Σ_x w(x)/(α·W) = 1/α`, *independently of the weight distribution*.
//! So `α = 1/μ_target, β = 0` hits any target `μ` exactly, as long as the
//! largest weight satisfies `w_max ≤ W/μ_target`. [`mu_exact_ratio`] computes
//! the clamp-aware exact value for verification.

use bignum::{BigUint, Ratio};

/// `(α, β) = (1/μ, 0)` — targets expected sample size exactly `μ = num/den`
/// when no item clamps at probability 1 (see module docs).
///
/// # Panics
/// Panics if `num == 0` (an infinite `α` would be required).
pub fn alpha_for_mu(num: u64, den: u64) -> (Ratio, Ratio) {
    assert!(num > 0, "target mu must be positive");
    assert!(den > 0, "mu denominator must be positive");
    (Ratio::from_u64s(den, num), Ratio::zero())
}

/// `(α, β) = (0, W/μ)` — the pure-additive parameterization: every item gets
/// `p_x = min(w(x)·μ/W, 1)`, so `μ` is hit exactly in the unclamped regime
/// using only `β`. Useful for exercising the `α = 0` code path (the form the
/// hierarchy itself uses for next-level instances, Algorithm 4).
pub fn beta_for_mu(total_weight: u128, num: u64, den: u64) -> (Ratio, Ratio) {
    assert!(num > 0, "target mu must be positive");
    assert!(den > 0, "mu denominator must be positive");
    let beta = Ratio::new(BigUint::from_u128(total_weight).mul_u64(den), BigUint::from_u64(num));
    (Ratio::zero(), beta)
}

/// Exact `μ(α,β) = Σ_x min( w(x)/(α·W+β), 1 )` as a rational number.
///
/// `W` is recomputed from `weights`; clamped items contribute exactly 1.
pub fn mu_exact_ratio(weights: &[u64], alpha: &Ratio, beta: &Ratio) -> Ratio {
    let total: u128 = weights.iter().map(|&w| u128::from(w)).sum();
    let denom = alpha.mul_big(&BigUint::from_u128(total)).add(beta).reduce();
    let mut mu = Ratio::zero();
    if denom.is_zero() {
        // W(α,β) = 0: the paper's convention is that every positive-weight
        // item clamps at p = 1 (division by zero ⇒ min{∞,1} = 1).
        let n_pos = weights.iter().filter(|&&w| w > 0).count() as u64;
        return Ratio::from_int(n_pos);
    }
    for &w in weights {
        if w == 0 {
            continue;
        }
        let p = Ratio::new(BigUint::from_u64(w), BigUint::one()).div(&denom).min_one();
        mu = mu.add(&p);
    }
    mu.reduce()
}

/// [`mu_exact_ratio`] converted to `f64` (lossy, for reporting only).
pub fn mu_exact_f64(weights: &[u64], alpha: &Ratio, beta: &Ratio) -> f64 {
    mu_exact_ratio(weights, alpha, beta).to_f64_lossy()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_for_mu_hits_target_exactly_without_clamping() {
        let weights = vec![10u64, 20, 30, 40]; // W = 100, w_max = 40
                                               // μ = 2: threshold w_max ≤ W/μ = 50 holds, so exact.
        let (a, b) = alpha_for_mu(2, 1);
        let mu = mu_exact_ratio(&weights, &a, &b);
        assert_eq!(mu.cmp_int(2), std::cmp::Ordering::Equal);
    }

    #[test]
    fn alpha_for_mu_fractional_target() {
        let weights = vec![1u64; 64];
        let (a, b) = alpha_for_mu(1, 4); // μ = 1/4
        let mu = mu_exact_ratio(&weights, &a, &b);
        assert_eq!(mu.cmp(&Ratio::from_u64s(1, 4)), std::cmp::Ordering::Equal);
    }

    #[test]
    fn clamping_reduces_mu_below_target() {
        // One dominating item: at μ_target = 2 it clamps, so μ < 2.
        let weights = vec![1u64, 1, 1, 1000];
        let (a, b) = alpha_for_mu(2, 1);
        let mu = mu_exact_f64(&weights, &a, &b);
        // Clamped: p_heavy = 1, p_light = 1/(0.5·1003) each.
        let expect = 1.0 + 3.0 * (1.0 / (0.5 * 1003.0));
        assert!((mu - expect).abs() < 1e-12, "mu {mu} vs {expect}");
        assert!(mu < 2.0);
    }

    #[test]
    fn beta_for_mu_matches_alpha_form() {
        let weights = vec![5u64, 7, 11, 13];
        let total: u128 = weights.iter().map(|&w| u128::from(w)).sum();
        let (a1, b1) = alpha_for_mu(3, 1);
        let (a2, b2) = beta_for_mu(total, 3, 1);
        let m1 = mu_exact_ratio(&weights, &a1, &b1);
        let m2 = mu_exact_ratio(&weights, &a2, &b2);
        assert_eq!(m1.cmp(&m2), std::cmp::Ordering::Equal);
    }

    #[test]
    fn mu_handles_zero_weights() {
        let weights = vec![0u64, 0, 5];
        let (a, b) = alpha_for_mu(1, 1);
        let mu = mu_exact_ratio(&weights, &a, &b);
        // Only the weight-5 item participates; μ = 5/5 = 1.
        assert_eq!(mu.cmp_int(1), std::cmp::Ordering::Equal);
    }

    #[test]
    fn mu_zero_denominator_counts_positive_items() {
        // α = 0, β = 0 ⇒ W(α,β) = 0 ⇒ all positive items clamp at 1.
        let weights = vec![0u64, 3, 9];
        let mu = mu_exact_ratio(&weights, &Ratio::zero(), &Ratio::zero());
        assert_eq!(mu.cmp_int(2), std::cmp::Ordering::Equal);
    }

    #[test]
    fn boundary_all_in_clamps_everything() {
        // α = 0, β = 1 with every weight ≥ 1: each p clamps to 1.
        let weights = vec![2u64, 4, 8];
        let mu = mu_exact_ratio(&weights, &Ratio::zero(), &Ratio::from_u64s(1, 1));
        assert_eq!(mu.cmp_int(3), std::cmp::Ordering::Equal);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mu_target_panics() {
        let _ = alpha_for_mu(0, 1);
    }
}
