//! Exact Bernoulli trials for rational probabilities (Fact 1).
//!
//! `Ber(a/b)` is realized by lazily comparing a uniform random bit stream `U`
//! against the binary expansion of `a/b`, produced one word at a time by long
//! division. The comparison resolves after O(1) words in expectation (each
//! 64-bit chunk fails to resolve with probability `2^{-64}`), matching
//! Bringmann–Friedrich's O(1) expected time with O(1) space for O(1)-word
//! rationals — and the same routine remains exact for multi-word rationals
//! (the HALT query algorithms feed it acceptance ratios with up-to-256-bit
//! numerators and denominators).

use bignum::{BigUint, Ratio};
use rand::RngCore;
use std::cmp::Ordering;

/// Draws `Ber(num/den)`: returns `true` with probability `min(num/den, 1)`.
///
/// Panics if `den == 0`.
pub fn ber_rational_parts<R: RngCore>(rng: &mut R, num: &BigUint, den: &BigUint) -> bool {
    ber_core(rng, num, den, None)
}

/// Finishes `Ber(num/den)` given that the **first** 64-bit word of the
/// uniform stream `U` has already been drawn as `u0`.
///
/// Returns exactly `[U < num/den]` for `U = (u0 + V)/2^64` with fresh uniform
/// `V ∈ [0, 1)` — the conditional completion the two-sided fast path
/// ([`crate::Bits64`]) delegates to when a draw lands inside the uncertainty
/// sliver. Feeding back the drawn word (instead of redrawing) is what keeps
/// the overall distribution bit-for-bit identical to [`ber_rational_parts`].
pub fn ber_rational_from_word<R: RngCore>(
    rng: &mut R,
    num: &BigUint,
    den: &BigUint,
    u0: u64,
) -> bool {
    ber_core(rng, num, den, Some(u0))
}

fn ber_core<R: RngCore>(
    rng: &mut R,
    num: &BigUint,
    den: &BigUint,
    mut pending: Option<u64>,
) -> bool {
    assert!(!den.is_zero(), "Bernoulli with zero denominator");
    if num.is_zero() {
        return false;
    }
    if num.cmp(den) != Ordering::Less {
        return true;
    }
    // Invariant: U < p iff (remaining bits of U) < (remaining expansion of r/den),
    // where r is the current long-division remainder.
    let mut r = num.clone();
    loop {
        // Next 64 expansion bits of r/den: chunk = ⌊r·2^64/den⌋, r ← r·2^64 mod den.
        let scaled = r.shl(64);
        let (chunk, rem) = scaled.div_rem(den);
        let p_bits = chunk.to_u64().unwrap_or(u64::MAX); // chunk < 2^64 always
        let u_bits = pending.take().unwrap_or_else(|| rng.next_u64());
        match u_bits.cmp(&p_bits) {
            Ordering::Less => return true,
            Ordering::Greater => return false,
            Ordering::Equal => {
                if rem.is_zero() {
                    // Expansion terminated: all further p bits are 0, so U ≥ p
                    // unless all further U bits are 0 (probability 0); resolve
                    // by waiting for the first non-zero U word.
                    loop {
                        if rng.next_u64() != 0 {
                            return false;
                        }
                    }
                }
                r = rem;
            }
        }
    }
}

/// Draws `Ber(p)` for an exact [`Ratio`] `p` (values above 1 are clamped).
///
/// For machine-word rationals the fast path derives the exact 64-bit
/// threshold with one division-free `u128` computation
/// ([`crate::Bits64::from_ratio`]) — no `BigUint` allocation unless the draw
/// lands on the single-word sliver (probability 2⁻⁶⁴).
pub fn ber_rational<R: RngCore>(rng: &mut R, p: &Ratio) -> bool {
    if crate::fast::fast_path_enabled() {
        let bits = crate::fast::Bits64::from_ratio(p);
        return crate::fast::ber_bits_with(rng, &bits, |rng, u| {
            ber_rational_from_word(rng, p.num(), p.den(), u)
        });
    }
    ber_rational_parts(rng, p.num(), p.den())
}

/// Draws `Ber(a/b)` for machine-word `a, b`.
pub fn ber_u64<R: RngCore>(rng: &mut R, a: u64, b: u64) -> bool {
    ber_rational_parts(rng, &BigUint::from_u64(a), &BigUint::from_u64(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn freq(p_num: u64, p_den: u64, trials: u64, seed: u64) -> f64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut hits = 0u64;
        for _ in 0..trials {
            if ber_u64(&mut rng, p_num, p_den) {
                hits += 1;
            }
        }
        hits as f64 / trials as f64
    }

    #[test]
    fn degenerate_probabilities() {
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..100 {
            assert!(!ber_u64(&mut rng, 0, 5));
            assert!(ber_u64(&mut rng, 5, 5));
            assert!(ber_u64(&mut rng, 9, 5)); // clamped above 1
        }
    }

    #[test]
    fn frequency_matches_probability() {
        // 5σ bounds with N = 200_000.
        for (a, b, seed) in [(1u64, 2u64, 1u64), (1, 3, 2), (2, 7, 3), (999, 1000, 4), (1, 1000, 5)]
        {
            let p = a as f64 / b as f64;
            let n = 200_000f64;
            let sigma = (p * (1.0 - p) / n).sqrt();
            let f = freq(a, b, n as u64, seed);
            assert!((f - p).abs() < 5.0 * sigma + 1e-9, "p={a}/{b} freq={f}");
        }
    }

    #[test]
    fn dyadic_probability_exact_path() {
        // p = 3/8 has terminating expansion; exercise the rem-zero branch.
        let f = freq(3, 8, 100_000, 11);
        assert!((f - 0.375).abs() < 0.01, "freq={f}");
    }

    #[test]
    fn multiword_rational() {
        // p = (2^130 + 1) / 2^131 ≈ 1/2 with multi-limb parts.
        let num = BigUint::pow2(130).add(&BigUint::one());
        let den = BigUint::pow2(131);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut hits = 0;
        for _ in 0..100_000 {
            if ber_rational_parts(&mut rng, &num, &den) {
                hits += 1;
            }
        }
        let f = hits as f64 / 100_000.0;
        assert!((f - 0.5).abs() < 0.01, "freq={f}");
    }

    #[test]
    fn expected_word_consumption_is_constant() {
        use crate::rng::CountingRng;
        let mut rng = CountingRng::new(SmallRng::seed_from_u64(5));
        let n = 50_000u64;
        for _ in 0..n {
            let _ = ber_u64(&mut rng, 1, 3);
        }
        // 1/3 is non-terminating; expected words per trial ≈ 1 + 2^-64·…
        let per = rng.words_consumed() as f64 / n as f64;
        assert!(per < 1.5, "words/trial = {per}");
    }
}
