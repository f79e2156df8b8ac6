//! The static lookup table of the HALT structure (§4.3).
//!
//! The 4S problem: `K` items where item `t` (0-indexed; the paper's `j = t+1`)
//! is selected independently with probability `p_t = min{1, 2^{t+2}·c_t / m²}`,
//! `c_t ∈ [0, m]`. Every input is a configuration vector `c`; every outcome is
//! a `K`-bit string whose probability is an integer multiple of `1/(m²)^K`.
//!
//! Rows are realized as exact integer alias tables over the `2^K` outcomes
//! (see the `alias` module docs: distribution-identical to the paper's flat
//! `(m²)^K`-cell array) and built lazily on first use, memoized by packed
//! configuration key. `K` is bounded by `2·log2(m) + O(1)` (Lemma 4.15), so a
//! row costs `O(2^K·K)` = polylog(n₀) to build and O(1) to query.

use crate::alias::IntAlias;
use rand::RngCore;
use std::collections::BTreeMap;
use wordram::bits;

/// Largest supported configuration dimension; `K ≤ 2·log2(m)+2` in the
/// hierarchy, so 16 leaves enormous headroom while keeping `2^K` row builds
/// bounded.
pub const MAX_K: usize = 16;

/// The lookup table for a fixed modulus `m` (the paper's `m = log2 log2 n₀`).
#[derive(Debug)]
pub struct LookupTable {
    m: u32,
    m2: u64,
    /// Materialized rows by packed configuration key. A `BTreeMap` keeps the
    /// table's iteration (space accounting, future persistence) in key order,
    /// independent of hasher state.
    rows: BTreeMap<u128, IntAlias>,
    /// Number of rows ever materialized (ablation A3 statistics).
    builds: u64,
}

impl LookupTable {
    /// Creates an empty table for modulus `m ≥ 1`.
    pub fn new(m: u32) -> Self {
        assert!((1..=64).contains(&m), "lookup modulus out of range");
        LookupTable { m, m2: (m as u64) * (m as u64), rows: BTreeMap::new(), builds: 0 }
    }

    /// The modulus `m`.
    pub fn modulus(&self) -> u32 {
        self.m
    }

    /// Number of materialized rows.
    pub fn rows_built(&self) -> u64 {
        self.builds
    }

    /// Space in words of all materialized rows.
    pub fn space_words(&self) -> usize {
        self.rows.values().map(|r| r.space_words() + 4).sum::<usize>() + 4
    }

    /// Numerator of the 4S selection probability of slot `t` with count `c`:
    /// `p_t = min(m², 2^{t+2}·c) / m²`.
    ///
    /// The shift is overflow-correct: `2^{t+2}·c ≥ 2^64` can only exceed
    /// `m² ≤ 4096`, so saturating the overflowed product before the `min`
    /// clamp yields the exact numerator for every `t`. (The previous
    /// `(t + 2).min(62)` silently masked the shift, which *wrapped* the
    /// product to a wrong value for `t ≥ 60`, `c ≥ 4`.) In-range use is
    /// enforced loudly: `K ≤ MAX_K = 16` keeps `t + 2 ≤ 18` in the hierarchy,
    /// and the debug assertion catches any out-of-range caller in tests
    /// instead of masking it.
    pub fn slot_prob_num(&self, t: usize, c: u32) -> u64 {
        debug_assert!(c as u64 <= self.m as u64);
        debug_assert!(t + 2 < 63, "4S slot index {t} out of shift range");
        if c == 0 {
            return 0;
        }
        // Widen before shifting: any product ≥ 2^64 saturates, which the
        // `min` then clamps to the exact value m².
        let raw = if t + 2 >= 64 {
            u64::MAX
        } else {
            u64::try_from(bits::shl128(c as u128, (t + 2) as u64)).unwrap_or(u64::MAX)
        };
        raw.min(self.m2)
    }

    fn key(config: &[u32]) -> u128 {
        debug_assert!(config.len() <= MAX_K);
        let mut key = config.len() as u128;
        for &c in config {
            debug_assert!(c < 128);
            key = (key << 7) | c as u128;
        }
        key
    }

    fn build_row(&mut self, config: &[u32]) -> IntAlias {
        self.builds += 1;
        let k = config.len();
        // pss-lint: allow(no-bare-index) — t ranges over 0..k = config.len()
        let nums: Vec<u64> = (0..k).map(|t| self.slot_prob_num(t, config[t])).collect();
        let outcomes = bits::pow2_usize(k as u64);
        let mut weights = vec![0u128; outcomes];
        for (r, w) in weights.iter_mut().enumerate() {
            let mut mass: u128 = 1;
            for (t, &num) in nums.iter().enumerate() {
                let factor = if bits::bit64(r as u64, t as u64) { num } else { self.m2 - num };
                mass *= factor as u128;
                if mass == 0 {
                    break;
                }
            }
            *w = mass;
        }
        IntAlias::new(&weights)
    }

    /// Draws one 4S outcome for `config`: bit `t` of the result is 1 iff slot
    /// `t` is selected. `config.len() ≤ MAX_K`, every entry `≤ m`.
    ///
    /// Probabilities are exactly `p_t = min(1, 2^{t+2}·c_t/m²)`, independent
    /// across slots (the row enumerates the joint distribution exactly).
    pub fn sample<R: RngCore>(&mut self, rng: &mut R, config: &[u32]) -> u32 {
        assert!(config.len() <= MAX_K, "configuration too long: {}", config.len());
        if config.iter().all(|&c| c == 0) {
            return 0;
        }
        let key = Self::key(config);
        if let Some(row) = self.rows.get(&key) {
            return row.sample(rng);
        }
        let row = self.build_row(config);
        let out = row.sample(rng);
        self.rows.insert(key, row);
        out
    }

    /// Eagerly materializes every configuration of dimension `k` (the paper's
    /// O(n₀) preprocessing mode; practical only for small `(m+1)^k` — used by
    /// ablation A3).
    pub fn build_all(&mut self, k: usize) {
        assert!(k <= MAX_K);
        let base = self.m as u64 + 1;
        let mut count = 1u64;
        for _ in 0..k {
            count = count.saturating_mul(base);
        }
        assert!(count <= 1 << 24, "eager build would materialize {count} rows");
        let mut config = vec![0u32; k];
        loop {
            if config.iter().any(|&c| c != 0) {
                let key = Self::key(&config);
                if !self.rows.contains_key(&key) {
                    let row = self.build_row(&config);
                    self.rows.insert(key, row);
                }
            }
            // Increment the mixed-radix counter; running off the end
            // means every configuration has been enumerated.
            let mut t = 0;
            loop {
                let Some(c) = config.get_mut(t) else {
                    return;
                };
                *c += 1;
                if *c <= self.m {
                    break;
                }
                *c = 0;
                t += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use randvar::stats::binomial_z;

    #[test]
    fn slot_probabilities_clamp() {
        let t = LookupTable::new(5); // m² = 25
        assert_eq!(t.slot_prob_num(0, 1), 4); // 2^2·1 = 4
        assert_eq!(t.slot_prob_num(0, 5), 20);
        assert_eq!(t.slot_prob_num(1, 2), 16);
        assert_eq!(t.slot_prob_num(2, 3), 25); // 48 clamped to 25
        assert_eq!(t.slot_prob_num(3, 0), 0);
    }

    #[test]
    fn slot_prob_no_silent_wrap_at_high_t() {
        // Regression: the old `(t + 2).min(62)` cap let `c << 62` wrap to a
        // wrong numerator for t ≥ 60, c ≥ 4. The widened shift saturates and
        // the min-clamp yields the exact value m².
        let t = LookupTable::new(5); // m² = 25
        assert_eq!(t.slot_prob_num(60, 4), 25);
        assert_eq!(t.slot_prob_num(60, 1), 25);
        assert_eq!(t.slot_prob_num(60, 0), 0);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "out of shift range"))]
    fn slot_prob_out_of_range_t_is_loud_in_debug() {
        // Debug builds catch an out-of-range slot index via the assertion;
        // release builds still clamp to the exact numerator.
        let t = LookupTable::new(5);
        assert_eq!(t.slot_prob_num(61, 4), 25);
    }

    #[test]
    fn marginals_match_slot_probabilities() {
        let mut table = LookupTable::new(4); // m² = 16
        let config = [1u32, 2, 0, 4];
        // p = [4/16, 16/16, 0, 16/16(clamped 64)]
        let probs = [0.25, 1.0, 0.0, 1.0];
        let mut rng = SmallRng::seed_from_u64(1);
        let trials = 200_000u64;
        let mut hits = [0u64; 4];
        for _ in 0..trials {
            let r = table.sample(&mut rng, &config);
            for (t, h) in hits.iter_mut().enumerate() {
                if (r >> t) & 1 == 1 {
                    *h += 1;
                }
            }
        }
        for t in 0..4 {
            if probs[t] == 0.0 {
                assert_eq!(hits[t], 0, "slot {t}");
            } else if probs[t] == 1.0 {
                assert_eq!(hits[t], trials, "slot {t}");
            } else {
                let z = binomial_z(hits[t], trials, probs[t]);
                assert!(z.abs() < 5.0, "slot {t}: z = {z}");
            }
        }
        assert_eq!(table.rows_built(), 1, "row must be memoized");
    }

    #[test]
    fn independence_across_slots() {
        // Cov(slot0, slot1) ≈ 0 for p0 = 4/16, p1 = 8/16.
        let mut table = LookupTable::new(4);
        let config = [1u32, 1, 0, 0];
        let mut rng = SmallRng::seed_from_u64(2);
        let trials = 300_000u64;
        let (mut h0, mut h1, mut h01) = (0u64, 0u64, 0u64);
        for _ in 0..trials {
            let r = table.sample(&mut rng, &config);
            let b0 = r & 1 == 1;
            let b1 = (r >> 1) & 1 == 1;
            h0 += b0 as u64;
            h1 += b1 as u64;
            h01 += (b0 && b1) as u64;
        }
        let (f0, f1, f01) =
            (h0 as f64 / trials as f64, h1 as f64 / trials as f64, h01 as f64 / trials as f64);
        assert!((f01 - f0 * f1).abs() < 0.005, "cov = {}", f01 - f0 * f1);
    }

    #[test]
    fn all_zero_config_returns_empty() {
        let mut table = LookupTable::new(6);
        let mut rng = SmallRng::seed_from_u64(3);
        assert_eq!(table.sample(&mut rng, &[0, 0, 0, 0, 0]), 0);
        assert_eq!(table.rows_built(), 0);
    }

    #[test]
    fn eager_build_covers_all_configs() {
        let mut table = LookupTable::new(2); // 3^3 = 27 configs
        table.build_all(3);
        let built = table.rows_built();
        assert_eq!(built, 26, "27 configs minus the all-zero one");
        // Sampling afterwards must not build more rows.
        let mut rng = SmallRng::seed_from_u64(4);
        let _ = table.sample(&mut rng, &[1, 2, 0]);
        assert_eq!(table.rows_built(), built);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut t1 = LookupTable::new(5);
        let mut t2 = LookupTable::new(5);
        let mut r1 = SmallRng::seed_from_u64(7);
        let mut r2 = SmallRng::seed_from_u64(7);
        for _ in 0..200 {
            assert_eq!(t1.sample(&mut r1, &[2, 3, 1]), t2.sample(&mut r2, &[2, 3, 1]));
        }
    }
}
