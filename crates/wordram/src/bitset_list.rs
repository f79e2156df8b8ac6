//! The Fact 2.1 structure: a dynamic sorted set of integers from a bounded
//! universe with O(1) worst-case update, predecessor and successor.
//!
//! The paper (Fact 2.1, proved in Appendix B) maintains integers from the
//! universe `U = {0, …, d−1}` with a d-bit bitmap plus pointer/menu arrays.
//! Bucket and group indices in the HALT hierarchy live in a universe of at most
//! a few hundred values (level-3 weights reach ≈ 2^140), so we use a two-level
//! bitmap: one summary word whose bit `w` marks "leaf word `w` non-empty".
//! Every operation is a constant number of word instructions for any universe
//! up to 64·64 = 4096 — the Word RAM assumption made concrete.

// pss-lint: allow-file(no-bare-index) — word indices derive from the summary hierarchy, which mirrors words.len() by construction

use crate::bits::{highest_set_bit, lowest_set_bit};

/// Dynamic sorted integer set over the universe `{0, …, universe−1}`,
/// `universe ≤ 4096`, with O(1) insert / delete / predecessor / successor.
#[derive(Clone, Debug)]
pub struct BitsetList {
    universe: usize,
    summary: u64,
    words: Vec<u64>,
    len: usize,
}

impl BitsetList {
    /// Creates an empty set over `{0, …, universe−1}`. Panics if
    /// `universe > 4096`.
    pub fn new(universe: usize) -> Self {
        assert!(universe <= 4096, "BitsetList universe exceeds two-level capacity");
        BitsetList { universe, summary: 0, words: vec![0; universe.div_ceil(64).max(1)], len: 0 }
    }

    /// Universe size.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Empties the set and re-sizes its universe in place, reusing the word
    /// storage (no allocation unless the universe grows past the previous
    /// high-water mark). Panics if `universe > 4096`.
    pub fn reset(&mut self, universe: usize) {
        assert!(universe <= 4096, "BitsetList universe exceeds two-level capacity");
        self.universe = universe;
        self.summary = 0;
        self.len = 0;
        self.words.clear();
        self.words.resize(universe.div_ceil(64).max(1), 0);
    }

    /// Number of stored integers.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Space in words (model accounting).
    pub fn space_words(&self) -> usize {
        self.words.len() + 3
    }

    /// Words of heap this set holds (its leaf words, at their allocated
    /// capacity), for owners that account for the inline struct themselves.
    pub fn heap_words(&self) -> usize {
        self.words.capacity()
    }

    /// `true` iff `q` is in the set.
    #[inline]
    pub fn contains(&self, q: usize) -> bool {
        debug_assert!(q < self.universe);
        (self.words[q / 64] >> (q % 64)) & 1 == 1
    }

    /// Inserts `q`; returns `true` if newly inserted.
    #[inline]
    pub fn insert(&mut self, q: usize) -> bool {
        debug_assert!(q < self.universe, "insert {} beyond universe {}", q, self.universe);
        let w = q / 64;
        let mask = 1u64 << (q % 64);
        if self.words[w] & mask != 0 {
            return false;
        }
        self.words[w] |= mask;
        self.summary |= 1u64 << w;
        self.len += 1;
        true
    }

    /// Deletes `q`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, q: usize) -> bool {
        debug_assert!(q < self.universe);
        let w = q / 64;
        let mask = 1u64 << (q % 64);
        if self.words[w] & mask == 0 {
            return false;
        }
        self.words[w] &= !mask;
        if self.words[w] == 0 {
            self.summary &= !(1u64 << w);
        }
        self.len -= 1;
        true
    }

    /// Smallest stored integer `≥ q` (successor in the weak sense).
    pub fn succ(&self, q: usize) -> Option<usize> {
        if q >= self.universe {
            return None;
        }
        let w = q / 64;
        let within = self.words[w] & (u64::MAX << (q % 64));
        if let Some(b) = lowest_set_bit(within) {
            return Some(w * 64 + b as usize);
        }
        let higher = if w + 1 >= 64 { 0 } else { self.summary & (u64::MAX << (w + 1)) };
        let hw = lowest_set_bit(higher)? as usize;
        // pss-lint: allow(no-panic-paths) — hw came from the non-zero summary word, and the hierarchy invariant makes words[hw] non-zero
        Some(hw * 64 + lowest_set_bit(self.words[hw]).unwrap() as usize)
    }

    /// Largest stored integer `≤ q` (predecessor in the weak sense).
    pub fn pred(&self, q: usize) -> Option<usize> {
        if self.universe == 0 {
            // An empty universe has no predecessor; `universe - 1` below
            // would underflow (and read out of bounds in release builds).
            return None;
        }
        let q = q.min(self.universe - 1);
        let w = q / 64;
        let rem = q % 64;
        let mask = if rem == 63 { u64::MAX } else { (1u64 << (rem + 1)) - 1 };
        let within = self.words[w] & mask;
        if let Some(b) = highest_set_bit(within) {
            return Some(w * 64 + b as usize);
        }
        let lower = if w == 0 { 0 } else { self.summary & ((1u64 << w) - 1) };
        let lw = highest_set_bit(lower)? as usize;
        // pss-lint: allow(no-panic-paths) — lw came from the non-zero summary word, and the hierarchy invariant makes words[lw] non-zero
        Some(lw * 64 + highest_set_bit(self.words[lw]).unwrap() as usize)
    }

    /// Smallest stored integer.
    pub fn min(&self) -> Option<usize> {
        let w = lowest_set_bit(self.summary)? as usize;
        // pss-lint: allow(no-panic-paths) — w was selected by a set summary bit, so words[w] is non-zero by the hierarchy invariant
        Some(w * 64 + lowest_set_bit(self.words[w]).unwrap() as usize)
    }

    /// Largest stored integer.
    pub fn max(&self) -> Option<usize> {
        let w = highest_set_bit(self.summary)? as usize;
        // pss-lint: allow(no-panic-paths) — w was selected by a set summary bit, so words[w] is non-zero by the hierarchy invariant
        Some(w * 64 + highest_set_bit(self.words[w]).unwrap() as usize)
    }

    /// Iterates the stored integers in ascending order (O(1) amortized each).
    pub fn iter(&self) -> BitsetIter<'_> {
        BitsetIter { set: self, next: self.min() }
    }

    /// Number of stored integers in the inclusive range `[lo, hi]`: one
    /// masked popcount per leaf word the range spans.
    pub fn count_range(&self, lo: usize, hi: usize) -> usize {
        let hi = hi.min(self.universe.saturating_sub(1));
        if lo > hi || lo >= self.universe {
            return 0;
        }
        let (first, last) = (lo / 64, hi / 64);
        let leaves = self.words[first..=last].iter().enumerate().map(|(i, &word)| {
            let low = if i == 0 { u64::MAX << (lo % 64) } else { u64::MAX };
            let high = if first + i == last { u64::MAX >> (63 - hi % 64) } else { u64::MAX };
            (word & low & high).count_ones() as usize
        });
        leaves.sum()
    }

    /// Iterates the stored integers in the inclusive range `[lo, hi]`.
    pub fn range(&self, lo: usize, hi: usize) -> BitsetRangeIter<'_> {
        let next = if lo >= self.universe { None } else { self.succ(lo) };
        BitsetRangeIter { set: self, next, hi }
    }
}

/// Ascending iterator over a [`BitsetList`].
#[derive(Debug)]
pub struct BitsetIter<'a> {
    set: &'a BitsetList,
    next: Option<usize>,
}

impl Iterator for BitsetIter<'_> {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        let cur = self.next?;
        self.next = if cur + 1 >= self.set.universe { None } else { self.set.succ(cur + 1) };
        Some(cur)
    }
}

/// Ascending bounded iterator over a [`BitsetList`].
#[derive(Debug)]
pub struct BitsetRangeIter<'a> {
    set: &'a BitsetList,
    next: Option<usize>,
    hi: usize,
}

impl Iterator for BitsetRangeIter<'_> {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        let cur = self.next?;
        if cur > self.hi {
            self.next = None;
            return None;
        }
        self.next = if cur + 1 >= self.set.universe { None } else { self.set.succ(cur + 1) };
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let mut s = BitsetList::new(300);
        assert!(s.is_empty());
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.insert(64));
        assert!(s.insert(299));
        assert_eq!(s.len(), 3);
        assert!(s.contains(64));
        assert!(!s.contains(63));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn succ_pred() {
        let mut s = BitsetList::new(256);
        for v in [3, 64, 65, 200] {
            s.insert(v);
        }
        assert_eq!(s.succ(0), Some(3));
        assert_eq!(s.succ(3), Some(3));
        assert_eq!(s.succ(4), Some(64));
        assert_eq!(s.succ(66), Some(200));
        assert_eq!(s.succ(201), None);
        assert_eq!(s.pred(255), Some(200));
        assert_eq!(s.pred(200), Some(200));
        assert_eq!(s.pred(199), Some(65));
        assert_eq!(s.pred(2), None);
        assert_eq!(s.min(), Some(3));
        assert_eq!(s.max(), Some(200));
    }

    #[test]
    fn iteration_sorted() {
        let mut s = BitsetList::new(512);
        let vals = [511, 0, 63, 64, 127, 128, 300];
        for v in vals {
            s.insert(v);
        }
        let got: Vec<usize> = s.iter().collect();
        let mut want = vals.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn range_iteration() {
        let mut s = BitsetList::new(512);
        for v in [1, 10, 100, 200, 400] {
            s.insert(v);
        }
        let got: Vec<usize> = s.range(10, 200).collect();
        assert_eq!(got, vec![10, 100, 200]);
        let empty: Vec<usize> = s.range(201, 399).collect();
        assert!(empty.is_empty());
    }

    #[test]
    fn word_boundaries() {
        let mut s = BitsetList::new(129);
        s.insert(63);
        s.insert(64);
        s.insert(128);
        assert_eq!(s.succ(63), Some(63));
        assert_eq!(s.succ(65), Some(128));
        assert_eq!(s.pred(127), Some(64));
        assert_eq!(s.pred(63), Some(63));
        s.remove(64);
        assert_eq!(s.succ(64), Some(128));
        assert_eq!(s.pred(127), Some(63));
    }

    #[test]
    fn empty_universe_is_inert() {
        // Regression: `pred` used to compute `universe - 1` unguarded, which
        // underflows (debug) or reads out of bounds (release) on `new(0)`.
        let s = BitsetList::new(0);
        assert_eq!(s.universe(), 0);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        for q in [0usize, 1, 63, 64, 4095, usize::MAX] {
            assert_eq!(s.pred(q), None, "pred({q})");
            assert_eq!(s.succ(q), None, "succ({q})");
        }
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s.range(0, usize::MAX).count(), 0);
        assert_eq!(s.range(5, 3).count(), 0);
        assert_eq!(s.count_range(0, usize::MAX), 0);
    }

    #[test]
    fn matches_btreeset_under_random_ops() {
        use std::collections::BTreeSet;
        let mut s = BitsetList::new(1024);
        let mut m = BTreeSet::new();
        let mut x = 12345u64;
        for step in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = (x >> 33) as usize % 1024;
            if (x >> 1) & 1 == 0 {
                assert_eq!(s.insert(v), m.insert(v), "step {step}");
            } else {
                assert_eq!(s.remove(v), m.remove(&v), "step {step}");
            }
            let q = (x >> 13) as usize % 1024;
            assert_eq!(s.succ(q), m.range(q..).next().copied(), "succ {q} step {step}");
            assert_eq!(s.pred(q), m.range(..=q).next_back().copied(), "pred {q} step {step}");
            let hi = q + (x >> 43) as usize % 300;
            assert_eq!(s.count_range(q, hi), m.range(q..=hi).count(), "count [{q}, {hi}]");
            assert_eq!(s.len(), m.len());
        }
    }
}
