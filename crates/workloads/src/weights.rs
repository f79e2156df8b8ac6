//! Item-weight distributions.
//!
//! Each distribution produces non-negative `u64` weights (the Word-RAM
//! one-word integers of the paper's model, §2.2). The distributions cover the
//! regimes the HALT structure must handle:
//!
//! * **Uniform** — items spread across a few adjacent buckets;
//! * **Zipf** — heavy-tailed weights spanning many buckets (the motivating
//!   shape for influence-maximization degree sequences, Appendix A.1);
//! * **Bimodal** — two bucket clusters far apart, exercising the
//!   insignificant/certain split of Algorithm 1;
//! * **Equal** — a single bucket, the best case for the lookup table;
//! * **PowersOfTwo** — one item per bucket index, the worst case for the
//!   bucket lists (maximal number of non-empty buckets);
//! * **HeavyHitter** — one dominating item, forcing `p ≈ 1` clamping and a
//!   near-empty remainder (the regime of the Theorem 1.2 sorting reduction).

// HashMap/HashSet sanctioned: test-side bookkeeping only; no iteration order reaches an assertion or a sample.
#![allow(clippy::disallowed_types)]

use rand::Rng;
use rand::RngCore;
use wordram::bits;

/// A generator of item weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightDist {
    /// Uniform integer weights in `[lo, hi]` (inclusive). Requires `lo ≤ hi`.
    Uniform {
        /// Smallest weight (inclusive).
        lo: u64,
        /// Largest weight (inclusive).
        hi: u64,
    },
    /// Zipf / bounded-Pareto weights: ranks `k ∈ {1..=n_ranks}` are drawn with
    /// probability `∝ 1/k^s` (s = `s_num/s_den > 0`) and the weight is
    /// `max(1, w_max / k^s)` (integer arithmetic, clamped to ≥ 1). `n_ranks`
    /// is fixed at 1024, enough to span ~10 orders of magnitude at `s = 2`.
    Zipf {
        /// Numerator of the exponent `s`.
        s_num: u32,
        /// Denominator of the exponent `s` (must be non-zero).
        s_den: u32,
        /// Weight assigned to rank 1 (the largest weight produced).
        w_max: u64,
    },
    /// Two clusters: weight `light` with probability `1 - heavy_permille/1000`
    /// and weight `heavy` otherwise.
    Bimodal {
        /// Weight of the light cluster.
        light: u64,
        /// Weight of the heavy cluster.
        heavy: u64,
        /// Probability of the heavy cluster in permille (0..=1000).
        heavy_permille: u32,
    },
    /// Every item has the same weight `w`.
    Equal {
        /// The common weight.
        w: u64,
    },
    /// Weight `2^e` with `e` uniform in `[0, max_exp]`. With `max_exp = 62`
    /// this touches (almost) every bucket index, maximizing the number of
    /// non-empty buckets and groups in the BG-Str — the adversarial case for
    /// the hierarchy's linked lists.
    PowersOfTwo {
        /// Largest exponent (inclusive); must be ≤ 63.
        max_exp: u32,
    },
    /// Weight `heavy` with probability `1/n_hint` (approximated as
    /// `1/next_pow2(n_hint)` for cheap masking), otherwise `light`. Models a
    /// single dominating item among `n_hint` light ones.
    HeavyHitter {
        /// Weight of the many light items.
        light: u64,
        /// Weight of the rare dominating items.
        heavy: u64,
        /// Approximate population size controlling the heavy rate.
        n_hint: u64,
    },
}

/// Number of distinct ranks used by [`WeightDist::Zipf`].
pub const ZIPF_RANKS: usize = 1024;

impl WeightDist {
    /// Draws a single weight.
    pub fn sample<R: RngCore>(&self, rng: &mut R) -> u64 {
        match *self {
            WeightDist::Uniform { lo, hi } => {
                assert!(lo <= hi, "Uniform requires lo <= hi");
                rng.gen_range(lo..=hi)
            }
            WeightDist::Zipf { s_num, s_den, w_max } => {
                let k = zipf_rank(rng, s_num, s_den);
                zipf_weight(k, s_num, s_den, w_max)
            }
            WeightDist::Bimodal { light, heavy, heavy_permille } => {
                assert!(heavy_permille <= 1000, "heavy_permille out of range");
                if rng.gen_range(0u32..1000) < heavy_permille {
                    heavy
                } else {
                    light
                }
            }
            WeightDist::Equal { w } => w,
            WeightDist::PowersOfTwo { max_exp } => {
                assert!(max_exp <= 63, "max_exp must be <= 63");
                bits::pow2_64(u64::from(rng.gen_range(0..=max_exp)))
            }
            WeightDist::HeavyHitter { light, heavy, n_hint } => {
                let mask = n_hint.next_power_of_two().saturating_sub(1);
                if rng.next_u64() & mask == 0 {
                    heavy
                } else {
                    light
                }
            }
        }
    }

    /// Draws `n` weights.
    pub fn generate<R: RngCore>(&self, n: usize, rng: &mut R) -> Vec<u64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// A short, stable label for experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            WeightDist::Uniform { .. } => "uniform",
            WeightDist::Zipf { .. } => "zipf",
            WeightDist::Bimodal { .. } => "bimodal",
            WeightDist::Equal { .. } => "equal",
            WeightDist::PowersOfTwo { .. } => "pow2",
            WeightDist::HeavyHitter { .. } => "heavy",
        }
    }
}

/// Draws a Zipf(`s`, [`ZIPF_RANKS`]) rank in `{1..=ZIPF_RANKS}` by inversion
/// over the exact (integer-scaled) cumulative mass. The cumulative table for
/// a given `(s_num, s_den)` is cached per call via a small stack table — the
/// table is 1024 `f64`s, cheap to rebuild, and workload generation is not on
/// any measured fast path.
fn zipf_rank<R: RngCore>(rng: &mut R, s_num: u32, s_den: u32) -> usize {
    assert!(s_den > 0, "Zipf exponent denominator must be non-zero");
    let s = s_num as f64 / s_den as f64;
    // Inversion by linear pass over the normalized cumulative distribution.
    // A uniform draw in [0,1) is compared against the running mass.
    let mut total = 0.0f64;
    let mut mass = [0.0f64; ZIPF_RANKS];
    for (i, m) in mass.iter_mut().enumerate() {
        *m = ((i + 1) as f64).powf(-s);
        total += *m;
    }
    let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * total;
    let mut acc = 0.0f64;
    for (i, m) in mass.iter().enumerate() {
        acc += *m;
        if u < acc {
            return i + 1;
        }
    }
    ZIPF_RANKS
}

/// The weight of Zipf rank `k`: `max(1, w_max / k^s)` computed in integer /
/// f64-hybrid arithmetic (exact for integer `s`, monotone in `k` always).
fn zipf_weight(k: usize, s_num: u32, s_den: u32, w_max: u64) -> u64 {
    if s_den == 1 {
        // Integer exponent: exact integer division.
        let mut denom: u128 = 1;
        for _ in 0..s_num {
            denom = denom.saturating_mul(k as u128);
            if denom > u128::from(u64::MAX) {
                return 1;
            }
        }
        ((u128::from(w_max) / denom).max(1)) as u64
    } else {
        let s = s_num as f64 / s_den as f64;
        let w = (w_max as f64) * (k as f64).powf(-s);
        (w.floor() as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0xDEADBEEF)
    }

    #[test]
    fn uniform_respects_bounds() {
        let d = WeightDist::Uniform { lo: 5, hi: 9 };
        let mut r = rng();
        for _ in 0..1000 {
            let w = d.sample(&mut r);
            assert!((5..=9).contains(&w));
        }
    }

    #[test]
    fn uniform_degenerate_point() {
        let d = WeightDist::Uniform { lo: 7, hi: 7 };
        let mut r = rng();
        assert!(d.generate(100, &mut r).iter().all(|&w| w == 7));
    }

    #[test]
    fn equal_is_constant() {
        let d = WeightDist::Equal { w: 123 };
        let mut r = rng();
        assert!(d.generate(50, &mut r).iter().all(|&w| w == 123));
    }

    #[test]
    fn powers_of_two_are_powers_of_two() {
        let d = WeightDist::PowersOfTwo { max_exp: 60 };
        let mut r = rng();
        for w in d.generate(2000, &mut r) {
            assert!(w.is_power_of_two());
            assert!(w <= 1 << 60);
        }
    }

    #[test]
    fn powers_of_two_cover_many_exponents() {
        let d = WeightDist::PowersOfTwo { max_exp: 30 };
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        for w in d.generate(5000, &mut r) {
            seen.insert(w.trailing_zeros());
        }
        // 31 possible exponents; with 5000 draws we should see nearly all.
        assert!(seen.len() >= 28, "only {} exponents seen", seen.len());
    }

    #[test]
    fn bimodal_produces_both_modes_at_expected_rates() {
        let d = WeightDist::Bimodal { light: 1, heavy: 1000, heavy_permille: 250 };
        let mut r = rng();
        let ws = d.generate(20_000, &mut r);
        let heavy = ws.iter().filter(|&&w| w == 1000).count();
        assert!(ws.iter().all(|&w| w == 1 || w == 1000));
        // 250/1000 = 25%; allow ±3% absolute.
        let frac = heavy as f64 / ws.len() as f64;
        assert!((frac - 0.25).abs() < 0.03, "heavy fraction {frac}");
    }

    #[test]
    fn bimodal_extremes() {
        let mut r = rng();
        let all_light = WeightDist::Bimodal { light: 2, heavy: 9, heavy_permille: 0 };
        assert!(all_light.generate(200, &mut r).iter().all(|&w| w == 2));
        let all_heavy = WeightDist::Bimodal { light: 2, heavy: 9, heavy_permille: 1000 };
        assert!(all_heavy.generate(200, &mut r).iter().all(|&w| w == 9));
    }

    #[test]
    fn zipf_weights_bounded_and_rank1_dominates() {
        let d = WeightDist::Zipf { s_num: 2, s_den: 1, w_max: 1 << 30 };
        let mut r = rng();
        let ws = d.generate(10_000, &mut r);
        assert!(ws.iter().all(|&w| (1..=1 << 30).contains(&w)));
        // Rank 1 (weight w_max) should appear often: P(rank=1) = 1/ζ-ish ≈ 0.6.
        let top = ws.iter().filter(|&&w| w == 1 << 30).count();
        assert!(top > 4000, "rank-1 count {top}");
    }

    #[test]
    fn zipf_integer_exponent_weight_is_exact() {
        // k = 4, s = 3 → w = w_max / 64.
        assert_eq!(zipf_weight(4, 3, 1, 6400), 100);
        // Underflow clamps to 1.
        assert_eq!(zipf_weight(1000, 3, 1, 10), 1);
    }

    #[test]
    fn zipf_fractional_exponent_monotone_in_rank() {
        let w1 = zipf_weight(1, 3, 2, 1 << 20);
        let w2 = zipf_weight(2, 3, 2, 1 << 20);
        let w9 = zipf_weight(9, 3, 2, 1 << 20);
        assert!(w1 >= w2 && w2 >= w9);
        assert_eq!(w1, 1 << 20);
    }

    #[test]
    fn heavy_hitter_rate_tracks_n_hint() {
        let d = WeightDist::HeavyHitter { light: 1, heavy: 1 << 50, n_hint: 256 };
        let mut r = rng();
        let ws = d.generate(100_000, &mut r);
        let heavy = ws.iter().filter(|&&w| w > 1).count() as f64;
        let rate = heavy / ws.len() as f64;
        // Expected rate 1/256 ≈ 0.0039; allow generous CLT slack.
        assert!((rate - 1.0 / 256.0).abs() < 0.002, "rate {rate}");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let d = WeightDist::Zipf { s_num: 2, s_den: 1, w_max: 1 << 20 };
        let a = d.generate(100, &mut SmallRng::seed_from_u64(5));
        let b = d.generate(100, &mut SmallRng::seed_from_u64(5));
        assert_eq!(a, b);
        let c = d.generate(100, &mut SmallRng::seed_from_u64(6));
        assert_ne!(a, c);
    }
}
