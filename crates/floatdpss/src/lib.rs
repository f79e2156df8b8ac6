//! # floatdpss — deletion-only DPSS with float weights + the Integer Sorting
//! reduction (Theorem 1.2)
//!
//! The paper's second main result is a *hardness* theorem: an optimal
//! deletion-only DPSS structure over float item weights would sort `N`
//! integers in O(N) expected time — an open problem. This crate implements
//! both sides of that reduction so experiment E7 can run it end to end:
//!
//! - [`ExpDpss`]: a deletion-only DPSS structure over items with weight
//!   `2^{e}` (`e` a 64-bit exponent — exactly the float weights the reduction
//!   constructs; a 1-bit mantissa suffices). Its per-operation cost is
//!   O(log N) (ordered exponent index), **not** O(1) — consistent with the
//!   hardness barrier: the exponent order this structure maintains is
//!   precisely the sorted order the reduction extracts.
//! - [`sort_via_dpss`]: Theorem 1.2's algorithm — repeat { PSS query with
//!   `(α,β) = (1,0)`; take the max-weight sampled item; delete it; insert its
//!   exponent into a backwards insertion sort } — with the paper's O(1)
//!   expected retries (Lemma 5.1) and O(1) expected swaps (Lemma 5.3).
//!
//! **ε-exactness note** (a deliberate substitution, bounded by `TAIL_CUTOFF`
//! below): a query walks items in
//! descending weight and stops once every remaining item satisfies
//! `p_x < 2^{-(TAIL_CUTOFF-64)}` even after accounting for up to `2^64`
//! items; the total-variation error per query is below `2^{-128}`,
//! unobservable at any achievable trial count. All flipped coins are exact
//! (interval-certified lazy Bernoullis over the exponent window).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// HashMap sanctioned: the handle index is keyed-access only (insert/remove/get); iteration order is never observed.
#![allow(clippy::disallowed_types)]

use bignum::{BigUint, Dyadic, Interval};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use randvar::{ber_oracle, ProbOracle};
use std::collections::{BTreeMap, HashMap};

/// Items whose exponent is more than this far below the maximum are skipped by
/// queries.
const TAIL_CUTOFF: u64 = 192;

/// Exponent window used to evaluate `W = Σ 2^{e_i}` with certified relative
/// error `≤ 2^{64 − SUM_WINDOW} = 2^{-448}` for `n < 2^64`.
const SUM_WINDOW: u64 = 512;

/// A handle to an item in [`ExpDpss`].
pub type ExpHandle = u64;

/// Deletion-only DPSS over items with weights `2^{e}`, `e ∈ u64`.
#[derive(Debug)]
pub struct ExpDpss {
    /// exponent → handles of items with that exponent.
    by_exp: BTreeMap<u64, Vec<ExpHandle>>,
    /// handle → (exponent, position in its exponent bucket).
    items: HashMap<ExpHandle, (u64, u32)>,
    next: ExpHandle,
    rng: SmallRng,
}

/// Oracle for `p = 2^{-off} / S` where `S` brackets `W/2^{e_max} ≥ 1`.
struct ExpProbOracle {
    off: u64,
    s: Interval,
}

impl ProbOracle for ExpProbOracle {
    fn bracket(&mut self, bits: u64) -> Interval {
        assert!(
            bits <= SUM_WINDOW - 160,
            "requested precision beyond the certified window (a < 2^-280 probability event)"
        );
        // Evaluate at just enough precision: S's own tail already contributes
        // width ≤ 2^{-(SUM_WINDOW-64)}, far below any reachable `bits`.
        let num = Interval::exact(Dyadic::new(BigUint::one(), -(self.off as i64)), bits + 96);
        num.div(&self.s)
    }
}

impl ExpDpss {
    /// Creates an empty structure with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        ExpDpss {
            by_exp: BTreeMap::new(),
            items: HashMap::new(),
            next: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Builds from exponents in O(n log n); returns handles in input order.
    pub fn from_exponents(exponents: &[u64], seed: u64) -> (Self, Vec<ExpHandle>) {
        let mut s = Self::new(seed);
        let handles = exponents.iter().map(|&e| s.insert(e)).collect();
        (s, handles)
    }

    /// Number of live items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` iff empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Inserts an item with weight `2^{exponent}` (O(log n)).
    pub fn insert(&mut self, exponent: u64) -> ExpHandle {
        let h = self.next;
        self.next += 1;
        let bucket = self.by_exp.entry(exponent).or_default();
        self.items.insert(h, (exponent, bucket.len() as u32));
        bucket.push(h);
        h
    }

    /// Deletes an item (O(log n)); returns its exponent.
    pub fn delete(&mut self, h: ExpHandle) -> Option<u64> {
        let (e, pos) = self.items.remove(&h)?;
        let bucket = self.by_exp.get_mut(&e).unwrap();
        let last = bucket.len() - 1;
        bucket.swap_remove(pos as usize);
        if (pos as usize) < last {
            let moved = bucket[pos as usize];
            self.items.get_mut(&moved).unwrap().1 = pos;
        }
        if bucket.is_empty() {
            self.by_exp.remove(&e);
        }
        Some(e)
    }

    /// Exponent of a live item.
    pub fn exponent(&self, h: ExpHandle) -> Option<u64> {
        self.items.get(&h).map(|&(e, _)| e)
    }

    /// Certified bracket of `W/2^{e_max}` (`= Σ 2^{e−e_max}` over all items).
    fn normalized_total(&self, e_max: u64) -> Interval {
        let mut acc = BigUint::zero(); // scaled by 2^{SUM_WINDOW}
        let mut below: u64 = 0;
        for (&e, bucket) in self.by_exp.iter().rev() {
            let off = e_max - e;
            if off >= SUM_WINDOW {
                below += bucket.len() as u64;
                continue;
            }
            acc = acc.add(&BigUint::from_u64(bucket.len() as u64).shl(SUM_WINDOW - off));
        }
        let lo = Dyadic::new(acc.clone(), -(SUM_WINDOW as i64));
        // Tail: each of the `below` items contributes < 2^{-SUM_WINDOW}·2^{SUM_WINDOW… }
        let hi = Dyadic::new(acc.add(&BigUint::from_u64(below.max(1))), -(SUM_WINDOW as i64));
        Interval::hull(lo, hi, SUM_WINDOW + 128)
    }

    /// PSS query with parameters `(1, 0)`: each item `x` is included
    /// independently with probability `2^{e_x} / Σ_y 2^{e_y}` (up to the
    /// `2^{-128}` tail truncation documented on the crate).
    pub fn query(&mut self) -> Vec<ExpHandle> {
        let Some((&e_max, _)) = self.by_exp.iter().next_back() else {
            return Vec::new();
        };
        let s = self.normalized_total(e_max);
        let mut out = Vec::new();
        let levels: Vec<(u64, Vec<ExpHandle>)> = self
            .by_exp
            .iter()
            .rev()
            .take_while(|(&e, _)| e_max - e <= TAIL_CUTOFF)
            .map(|(&e, b)| (e, b.clone()))
            .collect();
        for (e, bucket) in levels {
            let off = e_max - e;
            for h in bucket {
                let mut oracle = ExpProbOracle { off, s: s.clone() };
                if ber_oracle(&mut self.rng, &mut oracle) {
                    out.push(h);
                }
            }
        }
        out
    }
}

/// Theorem 1.2: sorts `values` (ascending) through deletion-only DPSS queries.
///
/// Each iteration repeats the PSS query `(1, 0)` until non-empty (O(1)
/// expected trials, Lemma 5.1), deletes the largest sampled item, and inserts
/// its exponent into a backwards insertion sort (O(1) expected swaps,
/// Lemma 5.3 / Claim 2).
pub fn sort_via_dpss(values: &[u64], seed: u64) -> Vec<u64> {
    let (mut s, _) = ExpDpss::from_exponents(values, seed);
    // `desc` is maintained in descending order; successive maxima arrive
    // almost in order, so insertion from the back costs O(1) expected swaps.
    let mut desc: Vec<u64> = Vec::with_capacity(values.len());
    while !s.is_empty() {
        let sample = loop {
            let t = s.query();
            if !t.is_empty() {
                break t;
            }
        };
        let &best =
            sample.iter().max_by_key(|&&h| s.exponent(h).expect("sampled live item")).unwrap();
        let e = s.delete(best).unwrap();
        let mut i = desc.len();
        desc.push(e);
        while i > 0 && desc[i - 1] < desc[i] {
            desc.swap(i - 1, i);
            i -= 1;
        }
    }
    desc.reverse();
    desc
}

#[cfg(test)]
mod tests {
    use super::*;
    use randvar::stats::binomial_z;

    #[test]
    fn empty_and_single() {
        let mut s = ExpDpss::new(1);
        assert!(s.query().is_empty());
        let h = s.insert(10);
        for _ in 0..20 {
            assert_eq!(s.query(), vec![h]); // single item: p = 1
        }
        assert_eq!(s.delete(h), Some(10));
        assert!(s.query().is_empty());
    }

    #[test]
    fn two_items_marginals() {
        // Exponents 10 and 12: p = 1/5 and 4/5.
        let (mut s, hs) = ExpDpss::from_exponents(&[10, 12], 2);
        let trials = 40_000u64;
        let mut hits = [0u64; 2];
        for _ in 0..trials {
            for h in s.query() {
                hits[hs.iter().position(|&x| x == h).unwrap()] += 1;
            }
        }
        let z0 = binomial_z(hits[0], trials, 0.2);
        let z1 = binomial_z(hits[1], trials, 0.8);
        assert!(z0.abs() < 5.0, "z0 = {z0}");
        assert!(z1.abs() < 5.0, "z1 = {z1}");
    }

    #[test]
    fn duplicate_exponents_marginals() {
        // Four items at the same exponent: p = 1/4 each.
        let (mut s, hs) = ExpDpss::from_exponents(&[7, 7, 7, 7], 3);
        let trials = 40_000u64;
        let mut hits = [0u64; 4];
        for _ in 0..trials {
            for h in s.query() {
                hits[hs.iter().position(|&x| x == h).unwrap()] += 1;
            }
        }
        for (i, &h) in hits.iter().enumerate() {
            let z = binomial_z(h, trials, 0.25);
            assert!(z.abs() < 5.0, "item {i}: z = {z}");
        }
    }

    #[test]
    fn huge_exponent_gaps() {
        // Astronomical gap: heavy item always sampled, light item never.
        let (mut s, hs) = ExpDpss::from_exponents(&[u64::MAX - 3, 5], 4);
        for _ in 0..200 {
            let t = s.query();
            assert!(t.contains(&hs[0]));
            assert!(!t.contains(&hs[1]));
        }
    }

    #[test]
    fn expected_sample_size_is_one() {
        // μ(1,0) = 1 exactly; check the empirical mean.
        let exps: Vec<u64> = (0..30).map(|i| 40 + (i * 13) % 25).collect();
        let (mut s, _) = ExpDpss::from_exponents(&exps, 5);
        let trials = 20_000u64;
        let total: usize = (0..trials).map(|_| s.query().len()).sum();
        let mean = total as f64 / trials as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean sample size = {mean}");
    }

    #[test]
    fn sort_random_values() {
        let mut vals: Vec<u64> =
            (0..300u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        let sorted = sort_via_dpss(&vals, 6);
        vals.sort_unstable();
        assert_eq!(sorted, vals);
    }

    #[test]
    fn sort_with_duplicates_and_extremes() {
        let mut vals = vec![5, 5, 5, 0, u64::MAX, 17, 17, 3, u64::MAX, 0];
        let sorted = sort_via_dpss(&vals, 7);
        vals.sort_unstable();
        assert_eq!(sorted, vals);
    }

    #[test]
    fn sort_already_sorted_and_reversed() {
        let asc: Vec<u64> = (0..120).map(|i| i * 1000).collect();
        assert_eq!(sort_via_dpss(&asc, 8), asc);
        let desc: Vec<u64> = asc.iter().rev().copied().collect();
        assert_eq!(sort_via_dpss(&desc, 9), asc);
    }

    #[test]
    fn sort_small_range_values() {
        // Dense exponent collisions (all within the walk window).
        let mut vals: Vec<u64> = (0..150u64).map(|i| i % 7).collect();
        let sorted = sort_via_dpss(&vals, 10);
        vals.sort_unstable();
        assert_eq!(sorted, vals);
    }

    #[test]
    fn delete_bookkeeping_with_swaps() {
        let (mut s, hs) = ExpDpss::from_exponents(&[9, 9, 9], 11);
        assert_eq!(s.delete(hs[0]), Some(9));
        assert_eq!(s.len(), 2);
        assert_eq!(s.exponent(hs[1]), Some(9));
        assert_eq!(s.exponent(hs[2]), Some(9));
        assert_eq!(s.delete(hs[0]), None, "double delete");
        assert_eq!(s.delete(hs[2]), Some(9));
        assert_eq!(s.delete(hs[1]), Some(9));
        assert!(s.is_empty());
    }
}
