//! Exact integer alias tables.
//!
//! The paper's lookup table stores, per input configuration, a flat array of
//! `(m²)^K` cells so that one uniform cell pick yields a subset-sampling
//! outcome (§4.3). We store the same distribution as a Walker alias table with
//! *integer* weights: a uniform slot pick plus one exact integer comparison
//! reproduces the identical distribution with O(#outcomes) memory instead of
//! `(m²)^K` cells; `lookup` builds every row this way. No floating point is involved
//! anywhere, so sampling remains exact.

// pss-lint: allow-file(no-bare-index) — alias tables index fixed-length parallel arrays (primary/alias/thresh, all of length k) built together in the constructor

use rand::RngCore;
use randvar::{uniform_below, uniform_below_u128};
use wordram::narrow;

/// An alias table over outcomes `0..k` with exact integer weights.
#[derive(Clone, Debug)]
pub struct IntAlias {
    /// Per slot: take `primary[s]` if the sub-draw is below `thresh[s]`.
    thresh: Vec<u128>,
    primary: Vec<u32>,
    alias: Vec<u32>,
    /// Sum of all weights (slot capacity).
    total: u128,
}

impl IntAlias {
    /// Builds the table from non-negative integer `weights` (at least one must
    /// be positive). `Σ weights · weights.len()` must fit in `u128`.
    pub fn new(weights: &[u128]) -> Self {
        let k = weights.len();
        assert!(k > 0, "empty alias table");
        let total: u128 =
            // pss-lint: allow(no-panic-paths) — overflow means the Word RAM precondition (total < 2^128) was violated; failing loudly beats sampling from a wrapped distribution
            weights.iter().fold(0u128, |a, &w| a.checked_add(w).expect("alias weight overflow"));
        assert!(total > 0, "alias table needs positive total weight");
        let kk = k as u128;
        // pss-lint: allow(no-panic-paths) — overflow means the Word RAM precondition was violated; failing loudly beats sampling from a wrapped distribution
        total.checked_mul(kk).expect("alias total·k overflow");

        // Scaled weights w_i·k against slot capacity `total`.
        let mut residual: Vec<u128> = weights.iter().map(|&w| w * kk).collect();
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &r) in residual.iter().enumerate() {
            if r < total {
                small.push(narrow::u32_of_usize(i));
            } else {
                large.push(narrow::u32_of_usize(i));
            }
        }
        let mut thresh = vec![0u128; k];
        let mut primary = vec![0u32; k];
        let mut alias = vec![0u32; k];
        let mut filled = vec![false; k];
        while let Some(s) = small.pop() {
            let l = match large.last().copied() {
                Some(l) => l,
                None => {
                    // Only possible via exact fills: residual must equal 0 or total.
                    let r = residual[s as usize];
                    debug_assert!(r == 0 || r == total);
                    thresh[s as usize] = r;
                    primary[s as usize] = s;
                    alias[s as usize] = s;
                    filled[s as usize] = true;
                    continue;
                }
            };
            thresh[s as usize] = residual[s as usize];
            primary[s as usize] = s;
            alias[s as usize] = l;
            filled[s as usize] = true;
            residual[l as usize] -= total - residual[s as usize];
            residual[s as usize] = 0;
            if residual[l as usize] < total {
                large.pop();
                small.push(l);
            }
        }
        for l in large {
            debug_assert_eq!(residual[l as usize], total);
            thresh[l as usize] = total;
            primary[l as usize] = l;
            alias[l as usize] = l;
            filled[l as usize] = true;
        }
        // Zero-weight outcomes may remain unfilled if they were consumed as
        // `small` entries with residual 0 — they already have thresh 0 and will
        // route to their alias; any never-touched slot must still route somewhere.
        for s in 0..k {
            if !filled[s] {
                thresh[s] = 0;
                // Route to an arbitrary positive outcome; never taken since
                // thresh == 0 means the primary branch has probability 0 and
                // alias must cover the slot: find any positive-weight outcome.
                // pss-lint: allow(no-panic-paths) — a non-filled slot can only exist when total > 0 (asserted in the constructor), so a positive weight exists
                let pos = narrow::u32_of_usize(weights.iter().position(|&w| w > 0).unwrap());
                primary[s] = pos;
                alias[s] = pos;
            }
        }
        IntAlias { thresh, primary, alias, total }
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.primary.len()
    }

    /// `true` iff the table has no outcomes (never: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.primary.is_empty()
    }

    /// Space in words.
    pub fn space_words(&self) -> usize {
        self.thresh.len() * 2 + self.primary.len() + self.alias.len() + 2
    }

    /// Draws an outcome index with probability exactly `w_i / Σw`.
    pub fn sample<R: RngCore>(&self, rng: &mut R) -> u32 {
        let s = uniform_below(rng, self.primary.len() as u64) as usize;
        let x = uniform_below_u128(rng, self.total);
        if x < self.thresh[s] {
            self.primary[s]
        } else {
            self.alias[s]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use randvar::stats::chi_square;

    fn check_distribution(weights: &[u128], trials: u64, seed: u64) -> f64 {
        let table = IntAlias::new(weights);
        let total: u128 = weights.iter().sum();
        let probs: Vec<f64> = weights.iter().map(|&w| w as f64 / total as f64).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut counts = vec![0u64; weights.len()];
        for _ in 0..trials {
            let o = table.sample(&mut rng) as usize;
            assert!(weights[o] > 0, "sampled zero-weight outcome {o}");
            counts[o] += 1;
        }
        chi_square(&counts, &probs, trials)
    }

    #[test]
    fn uniform_weights() {
        let s = check_distribution(&[1, 1, 1, 1], 100_000, 1);
        assert!(s < 21.1, "chi2 = {s}"); // df=3, q=0.9999
    }

    #[test]
    fn skewed_weights() {
        let s = check_distribution(&[1, 10, 100, 1000, 10000], 200_000, 2);
        assert!(s < 25.0, "chi2 = {s}");
    }

    #[test]
    fn zero_weights_never_sampled() {
        let s = check_distribution(&[0, 5, 0, 3, 0, 0, 2], 100_000, 3);
        assert!(s < 28.0, "chi2 = {s}");
    }

    #[test]
    fn single_outcome() {
        let table = IntAlias::new(&[7]);
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..50 {
            assert_eq!(table.sample(&mut rng), 0);
        }
    }

    #[test]
    fn huge_weights() {
        let s = check_distribution(&[u64::MAX as u128, (u64::MAX as u128) * 3], 150_000, 5);
        assert!(s < 20.0, "chi2 = {s}");
    }

    #[test]
    fn many_outcomes_power_of_two() {
        // Mimics a 2^K-outcome lookup row.
        let weights: Vec<u128> = (0..64u32).map(|i| ((i * 37 + 11) % 97) as u128).collect();
        let s = check_distribution(&weights, 400_000, 6);
        assert!(s < 140.0, "chi2 = {s}"); // df≈63
    }

    #[test]
    #[should_panic]
    fn all_zero_panics() {
        let _ = IntAlias::new(&[0, 0]);
    }
}
