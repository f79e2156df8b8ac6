//! The HALT query algorithms (§4.1–§4.4: Algorithms 1–5 and the final-level
//! lookup-table query).
//!
//! A PSS query with parameters `(α, β)` is answered by decomposing each
//! level's buckets, *at query time*, into three ranges determined by the
//! parameterized total weight `W = W_S(α,β)`:
//!
//! - **insignificant** (per-item probability `≤ p₀`): one `B-Geo(p₀, N+1)`
//!   jump decides in O(1) expected time whether anything is sampled at all
//!   (Algorithm 2);
//! - **certain** (per-item probability 1): emitted wholesale (Algorithm 3);
//! - **significant**: at most O(1) groups, each delegated to the next level of
//!   the hierarchy, whose sampled *bucket proxies* are opened by rejection
//!   sampling ([`extract_items`], Algorithm 5); the recursion bottoms out at
//!   the lookup table (§4.3–4.4).
//!
//! **Sparse level-1 groups open in place.** The recursion exists so that a
//! significant group costs O(1) however many buckets it holds. A level-1
//! group with at most [`IN_PLACE_BUCKETS`] non-empty buckets (4, the group
//! width at the size floor) needs none of it: each of its buckets is opened
//! directly, as a candidate with probability 1 — `B-Geo(p_b, n_b+1)` to the
//! first potential item, `p_b = min(1, 2^{b+1}/W)`, then the usual walk —
//! so every item is still included independently with probability exactly
//! `p_b·w_x/2^{b+1} = w_x/W`, at O(1 + μ_group) cost for a constant number
//! of buckets. Samplers of a few items (the many tiny neighbourhood samplers
//! of the graph applications) then skip the level-2/3 thresholds, the
//! insignificant instances, the lookup table and two extract passes. Levels
//! 2 and 3 always recurse (see `query_level1_into`).
//!
//! **Flat samplers need no nodes.** A level-1 group spans `g₁` buckets, so a
//! sampler with `g₁ ≤ IN_PLACE_BUCKETS` (every sampler at the size floor)
//! opens every significant group in place and never reads a level-2/3 node.
//! Its [`Level1`] therefore builds none ([`Level1::is_flat`]); the query
//! code is the same either way, and so are the drawn words and the law.
//!
//! **Small flat samplers scan.** A flat sampler whose slab holds at most
//! [`crate::sampler::SCAN_SLOTS`] slots (twice the size floor) skips all of
//! the above: [`crate::DpssSampler`] walks its slab records in slot order
//! and flips one plain inclusion coin `Ber(min(1, w_x/W))` per positive
//! item, returning the accepted items in slot order. The law is the product
//! law by construction, and the cost is O(1): at most `SCAN_SLOTS` record
//! reads and one word per positive item off the sliver. For samplers this
//! small that is cheaper than level 1's fixed cost — a bucket descriptor, a
//! first-index draw and a batched walk per non-empty bucket, plus the
//! insignificant instance — for the one item or so a query returns. The
//! coin is the one body the in-bucket plain coins use, so fast and exact
//! decisions agree as everywhere else. A flat sampler whose slab grew past
//! the bound (deletes leave its high-water mark) keeps the level-1 path.
//!
//! Every acceptance probability is an exact rational, so the returned subset
//! has exactly the distribution `Π_x Ber(p_x(α,β))`.
//!
//! **Fast path.** Paying a multi-word `BigUint` multiply per inclusion coin
//! is what kept HALT behind the naive float baseline on queries. Each coin
//! here goes through a two-sided word test ([`randvar::Bits64`]): a
//! precomputed [`QueryAccel`] turns `W`'s limbs into a [`WordBracket`] of
//! `1/W` (one-word floor and ceiling mantissas under one exact exponent),
//! every coin's bracket is one or two `64×64→128` multiplies and a shift,
//! and the exact rational machinery only runs when the uniform word lands
//! in the few-word sliver between certain-accept and certain-reject
//! (≈ 2⁻⁶⁰ per coin), *conditioned on the drawn word* — so the sampled
//! distribution is bit-for-bit the same as the all-exact implementation.
//! Item weights are words and proxy weights are counts times powers of
//! two, so a weight's bracket is exact, and the open-bucket coin
//! `w(x)/2^{b+1}` is an exact shift whose sliver is one word.
//!
//! **Open-bucket walk.** A sampled bucket `b` is opened through one
//! [`randvar::GeoDesc`] for `p = 2^{b+1}/W`, built in words: its bracket is
//! the `1/W` bracket with its exponent moved by `b+1`, `⌊log2 p⌋` is
//! `b+1 − ⌈log2 W⌉`, and its table of `(1−p)^{2^i}` brackets makes every
//! promising, first-index and stride coin a handful of integer multiplies.
//! A walk that expects at least one batch of potential items
//! (`p·n_b ≥ 16` on the bracket) also fills a [`randvar::StrideTable`] on
//! the stack, 65 brackets of `(1−p)^{j·2^s}` across the `B-Geo` block, and
//! draws its strides through it: each position coin first compares its
//! word with the two entries around its `k`, which settles all but about
//! one coin in 32 without a multiply (`exp e8`: a stride at `p = 2^-11`
//! takes ≈43 ns instead of ≈74).
//! The exact `p` is only formed on a sliver. The walk itself is bound by
//! memory, not arithmetic — each potential item is a random read of the
//! bucket's ids and then of the item's weight — so it runs in batches whose
//! reads overlap (see [`extract_items`]). None of this changes a decision:
//! each one is still a function of the drawn words and the exact
//! probability, so both the returned items and the words drawn match the
//! all-exact, item-at-a-time algorithm.
//!
//! **Allocation discipline.** A warm query reaches the heap once, for the
//! `Vec` it returns. Around the coins, everything is words: a node's
//! thresholds `⌊log2(W/N²)⌋` and `⌊log2(2W/m²)⌋` are 256-bit products of
//! `W`'s parts (`log2_scaled`) next to the plan's `⌈log2 W⌉`;
//! `p₀ = 1/N²` or `2/m²` is a [`GeoDesc`] built from two words; the
//! insignificant instance walks its buckets in place; and its thinning coin
//! is a [`Bits64`] bracket like every other coin. Each level appends to a
//! caller-supplied `Vec` — the `_into` functions are the implementation —
//! and the buffers between levels (`QueryScratch`) live in the caller's
//! context next to the plan cache. The heap is only reached by slivers,
//! force-exact mode, a `W` whose parts exceed two words, a plan miss that
//! grows the context's cache, a lookup-table row built for the first time,
//! and a buffer growing past its high-water mark. `W` and `(α, β)` are
//! [`Ratio`]s whose parts of up to two words are held inline, so forming a
//! plan allocates nothing, and a scan sampler forms `W` on every query. The
//! `Vec`-returning functions are thin wrappers for callers that drive one
//! level at a time.

use crate::item::{ItemId, Slab};
use crate::lookup::{LookupTable, MAX_K};
use crate::structure::{Level1, LevelView, NodeView, IN_PLACE_BUCKETS, L1_BUCKETS};
use bignum::{BigUint, Ratio};
use rand::RngCore;
use randvar::{
    ber_bits_with, ber_rational_from_word, ber_rational_parts, Bits64, GeoDesc, WordBracket,
};
use std::cmp::Ordering;
use wordram::{bits, narrow, U256};

/// Precomputed word-sized accelerators for a query's total weight `W`:
/// the [`WordBracket`] of `1/W`, formed once from `W`'s limbs (each coin's
/// [`Bits64`] is then a multiply and a shift away), plus the exact
/// `⌈log2 W⌉` that decides probability clamps (Claim 4.3) and the certain
/// ranges. Construction costs two word divisions and a handful of word
/// operations; a [`crate::DpssSampler`] keeps it in the plan of its exact
/// `W`, and a scan sampler, which keeps no plan, builds one per query.
#[derive(Clone, Copy, Debug)]
pub struct QueryAccel {
    /// Certified bracket of `1/W`.
    winv: WordBracket,
    /// `⌈log2 W⌉`, exact.
    pub(crate) w_ceil_log2: i64,
    /// `false` forces every coin onto the original all-exact path.
    fast: bool,
}

impl QueryAccel {
    /// Builds the accelerators for `w > 0`; pass `fast = false` for
    /// force-exact mode (agreement testing, ablations).
    pub fn new(w: &Ratio, fast: bool) -> Self {
        assert!(!w.is_zero(), "query accelerators need W > 0");
        let winv = WordBracket::ratio(w.den(), w.num());
        let (floor, pow2) = log2_scaled(w, 1, 1);
        QueryAccel { winv, w_ceil_log2: floor + i64::from(!pow2), fast }
    }

    /// `true` iff coins may take the word-level shortcut (construction-time
    /// flag and no thread-level exact-mode guard).
    #[inline]
    fn use_fast(&self) -> bool {
        self.fast && randvar::fast_path_enabled()
    }

    /// The geometric descriptor of a non-clamped bucket's
    /// `p = 2^shift/W < 1`, in words: the `1/W` bracket with its exponent
    /// moved by `shift`, and `⌊log2 p⌋ = shift − ⌈log2 W⌉`. `range` is the
    /// largest `B-Geo` cap it will serve. The exact `p` is only formed from
    /// `w` on a sliver or in exact mode.
    #[inline]
    fn bucket_desc<'w>(&self, w: &'w Ratio, shift: u64, range: u64) -> GeoDesc<'w> {
        debug_assert!((shift as i64) < self.w_ceil_log2, "bucket p = 2^{shift}/W is clamped");
        let p = self.winv.mul_pow2(shift as i64);
        GeoDesc::new(w.den(), w.num(), shift, p, shift as i64 - self.w_ceil_log2, range)
    }

    /// [`Bits64`] bracket of the inclusion probability `min(1, v/W)` from a
    /// certified bracket of `v`.
    #[inline]
    fn incl_bits(&self, v: WordBracket) -> Bits64 {
        (v * self.winv).bits64()
    }
}

/// Per-query frame: the RNG, the exact parameterized total weight
/// `W = α·Σw + β > 0`, its precomputed accelerators, and the lookup table.
///
/// Every field is *borrowed* — the RNG and the table come out of the
/// caller's [`pss_core::QueryCtx`] (the sampler owns neither), which is what
/// lets queries run on `&self` samplers.
#[derive(Debug)]
pub struct QueryFrame<'a, R: RngCore> {
    /// Random source (borrowed from the caller's context).
    pub rng: &'a mut R,
    /// `W_S(α,β)` as an exact rational (strictly positive).
    pub w: &'a Ratio,
    /// Word-sized accelerators derived from `w` (see [`QueryAccel`]).
    pub accel: QueryAccel,
    /// The HALT lookup table (rows memoized in the caller's context).
    pub table: &'a mut LookupTable,
    /// Final-level strategy (lookup table vs direct Bernoulli; ablation A1).
    pub final_mode: FinalLevelMode,
}

/// Strategy for answering final-level instances.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FinalLevelMode {
    /// The paper's lookup table (exact integer alias rows).
    #[default]
    Lookup,
    /// One exact Bernoulli per significant bucket (ablation baseline; also the
    /// overflow fallback when a configuration exceeds [`MAX_K`]).
    Direct,
}

/// The buffers of the query hierarchy below level 1, reused across
/// queries: the level-1 bucket proxies a level-2 node samples, the level-2
/// bucket proxies a final level samples, and the final level's table or
/// direct candidates. [`crate::DpssSampler`] keeps one in the caller's
/// context, so a warm query reuses their capacity.
#[derive(Debug, Default)]
pub(crate) struct QueryScratch {
    proxies: Vec<u16>,
    finals: Vec<u16>,
    candidates: Vec<u16>,
}

/// Query-time bucket/group range decomposition at one level.
#[derive(Clone, Copy, Debug)]
pub struct Thresholds {
    /// Largest *fully-insignificant* bucket index covered by the insignificant
    /// instance (`-1` if none).
    pub i_insig_top: i64,
    /// Smallest bucket index of the certain instance.
    pub i_cert_bottom: i64,
    /// Largest fully-insignificant group index (`-1` if none).
    pub j_insig_max: i64,
    /// Smallest fully-certain group index.
    pub j_cert_min: i64,
}

/// `(⌊log2 q⌋, q is a power of two)` for `q = W·a/b² > 0`: `⌈log2 W⌉` at
/// `a = b = 1`, the insignificant bound `⌊log2(W/N²)⌋` of a level with `N`
/// items at `a = 1, b = N`, and `⌊log2(2W/m²)⌋` of a final level at
/// `a = 2, b = m`. In 256-bit words when both parts of `W` fit in two words;
/// through [`Ratio`] (allocating) otherwise.
pub(crate) fn log2_scaled(w: &Ratio, a: u64, b: u64) -> (i64, bool) {
    debug_assert!(!w.is_zero() && a >= 1 && b >= 1);
    let words = || {
        let (num, den) = w.to_u128_parts()?;
        let x = U256::from_u128(num).checked_mul_u64(a)?;
        let y = U256::from_u128(den).checked_mul_u64(b)?.checked_mul_u64(b)?;
        // Shift the shorter operand to the other's bit length: then
        // q = 2^k·x/y with x/y ∈ (1/2, 2).
        let k = i64::from(x.bit_len()) - i64::from(y.bit_len());
        let sh = narrow::u32_of_u64(k.unsigned_abs());
        let (x, y) = if k >= 0 { (x, y.checked_shl(sh)?) } else { (x.checked_shl(sh)?, y) };
        Some(match x.cmp(&y) {
            Ordering::Less => (k - 1, false),
            Ordering::Equal => (k, true),
            Ordering::Greater => (k, false),
        })
    };
    words().unwrap_or_else(|| {
        let q = Ratio::new(w.num().mul_u64(a), w.den().mul_u64(b).mul_u64(b));
        let f = q.floor_log2();
        (f, q.cmp_pow2_signed(f) == Ordering::Equal)
    })
}

/// Computes the group-aligned thresholds for a level with `n` items and group
/// width `g` under total weight `w > 0` (§4.1 definitions).
pub fn thresholds(w: &Ratio, n: usize, g: u32) -> Thresholds {
    thresholds_at(w, w.ceil_log2(), n, g)
}

/// [`thresholds`] given `⌈log2 W⌉` (a [`QueryAccel`] holds it), in words.
pub(crate) fn thresholds_at(w: &Ratio, w_ceil_log2: i64, n: usize, g: u32) -> Thresholds {
    debug_assert!(!w.is_zero() && n >= 1 && g >= 1);
    let g = i64::from(g);
    // Insignificant bucket: 2^{i+1}/W ≤ 1/N² ⟺ i ≤ ⌊log2(W/N²)⌋ − 1.
    let i_ins_max = log2_scaled(w, 1, n as u64).0 - 1;
    // Certain bucket: 2^i/W ≥ 1 ⟺ i ≥ ⌈log2 W⌉.
    let i_cert_min = w_ceil_log2;
    // Group j fully insignificant ⟺ (j+1)g − 1 ≤ i_ins_max.
    let j_insig_max = if i_ins_max >= g - 1 { (i_ins_max - g + 1).div_euclid(g) } else { -1 };
    // Group j fully certain ⟺ j·g ≥ i_cert_min.
    let j_cert_min = i_cert_min.div_euclid(g) + i64::from(i_cert_min.rem_euclid(g) != 0);
    let j_cert_min = j_cert_min.max(0);
    Thresholds {
        i_insig_top: (j_insig_max + 1) * g - 1,
        i_cert_bottom: j_cert_min * g,
        j_insig_max,
        j_cert_min,
    }
}

/// An item's exact weight as a [`BigUint`] (sliver and exact paths only).
fn exact_weight<V: LevelView>(view: &V, x: V::Id) -> BigUint {
    let (m, e) = view.weight_parts(x);
    BigUint::from_u64(m).shl(u64::from(e))
}

/// Draws `Ber((w_x/W) / p0)` with `p0 = a/b` — the thinning coin of
/// Algorithm 2 (callers guarantee `w_x/W ≤ p0`). One uniform word against
/// the certified bracket of `w_x·(1/W)·b/a`; the exact products
/// `w_x·W.den·b` and `W.num·a` are only formed on the sliver, or in
/// force-exact mode.
fn accept_thinned<V: LevelView, R: RngCore>(
    view: &V,
    rng: &mut R,
    w: &Ratio,
    accel: &QueryAccel,
    x: V::Id,
    (a, b): (u128, u128),
) -> bool {
    let exact = || {
        let num = exact_weight(view, x).mul(w.den()).mul(&BigUint::from_u128(b));
        let den = w.num().mul(&BigUint::from_u128(a));
        debug_assert!(num.cmp(&den) != Ordering::Greater, "thinning ratio above 1");
        (num, den)
    };
    if accel.use_fast() {
        #[cfg(test)]
        tests::THINNING_COINS.with(|c| c.set(c.get() + 1));
        let bits = accel.incl_bits(view.weight_bracket(x) * WordBracket::ratio_u128(b, a));
        if cfg!(debug_assertions) {
            let (num, den) = exact();
            bits.debug_validate(&num, &den);
        }
        return ber_bits_with(rng, &bits, |rng, u| {
            #[cfg(test)]
            tests::THINNING_SLIVERS.with(|c| c.set(c.get() + 1));
            let (num, den) = exact();
            ber_rational_from_word(rng, &num, &den, u)
        });
    }
    let (num, den) = exact();
    ber_rational_parts(rng, &num, &den)
}

/// Draws `Ber(min(1, w_x/W))` — the plain inclusion coin. One uniform word
/// against the certified bracket of `w_x/W`; the weight only becomes a
/// `BigUint` (and the products are only formed) inside the sliver, or in
/// force-exact mode.
fn accept_plain<V: LevelView, R: RngCore>(
    view: &V,
    rng: &mut R,
    w: &Ratio,
    accel: &QueryAccel,
    x: V::Id,
) -> bool {
    plain_coin(rng, w, accel, view.weight_bracket(x), || exact_weight(view, x))
}

/// The one body of the plain inclusion coin ([`accept_plain`] and
/// [`scan_into`]): `weight` is the certified bracket of the weight `w_x`,
/// and `w_x` yields it exactly, which only the sliver and force-exact mode
/// ask for.
#[inline]
fn plain_coin<R: RngCore>(
    rng: &mut R,
    w: &Ratio,
    accel: &QueryAccel,
    weight: WordBracket,
    w_x: impl Fn() -> BigUint,
) -> bool {
    let num = || w_x().mul(w.den());
    if accel.use_fast() {
        let bits = accel.incl_bits(weight);
        if cfg!(debug_assertions) {
            bits.debug_validate(&num(), w.num());
        }
        return ber_bits_with(rng, &bits, |rng, u| ber_rational_from_word(rng, &num(), w.num(), u));
    }
    ber_rational_parts(rng, &num(), w.num())
}

/// The whole query of a *scan sampler* (see [`crate::DpssSampler`]'s
/// `sample`): one plain coin `Ber(min(1, w_x/W))` per positive item, in
/// slot order, handing each accepted item to `emit`. Zero-weight items and
/// the slab's holes draw nothing. Each item is decided by its own coin, so
/// the law is exactly the product law; the cost is one record read per
/// slot and one word per positive item off the sliver, O(1) for a slab of
/// a bounded number of slots.
pub(crate) fn scan_into<R: RngCore>(
    slab: &Slab,
    rng: &mut R,
    w: &Ratio,
    accel: &QueryAccel,
    mut emit: impl FnMut(ItemId),
) {
    for (id, w_x) in slab.iter() {
        let exact = WordBracket::exact(w_x, 0);
        if w_x > 0 && plain_coin(rng, w, accel, exact, || BigUint::from_u64(w_x)) {
            emit(id);
        }
    }
}

/// Algorithm 2: the insignificant instance. Samples from all items in buckets
/// `0..=i_top`, each of which has inclusion probability `≤ p0`, in O(1)
/// expected time via one `B-Geo(p0, N+1)` jump. `p0` must have one-word
/// parts (every level's `1/N²` or `2/m²` has).
pub fn query_insignificant<V: LevelView, R: RngCore>(
    view: &V,
    rng: &mut R,
    w: &Ratio,
    accel: &QueryAccel,
    i_top: i64,
    p0: &Ratio,
) -> Vec<V::Id> {
    // pss-lint: allow(no-panic-paths) — documented precondition: p0 is a level's 1/N² or 2/m², whose parts fit in words
    let p0 = p0.to_u128_parts().expect("p0 = 1/N² or 2/m² fits in words");
    let mut out = Vec::new();
    query_insignificant_into(view, rng, w, accel, i_top, p0, &mut out);
    out
}

/// [`query_insignificant`] appending to `out`, with `p0 = a/b` in words.
fn query_insignificant_into<V: LevelView, R: RngCore>(
    view: &V,
    rng: &mut R,
    w: &Ratio,
    accel: &QueryAccel,
    i_top: i64,
    p0: (u128, u128),
    out: &mut Vec<V::Id>,
) {
    let n = view.n_items() as u64;
    if n == 0 || i_top < 0 {
        return;
    }
    // First potential index k via B-Geo(p0, N+1) (p0 = 1 degenerates to k=1).
    let k = if p0.0 >= p0.1 { 1 } else { GeoDesc::from_words(p0.0, p0.1, n + 1).bgeo(rng, n + 1) };
    if k > n {
        return;
    }
    // Walk A, the items of buckets ≤ i_top, in place (cost O(N), incurred
    // with probability ≤ 1 − (1−p0)^N ≤ N·p0 ≤ 1/N — O(1) in expectation):
    // skip whole buckets to the k-th item, thin it, and run the plain coin
    // on every item after it.
    let mut buckets = view.nonempty().range(0, i_top as usize);
    let mut skip = k - 1;
    let (b0, pos0) = loop {
        let Some(b) = buckets.next() else {
            return; // |A| < k
        };
        let len = view.bucket_len(b) as u64;
        if skip < len {
            break (b, skip as usize);
        }
        skip -= len;
    };
    let first = view.bucket_item(b0, pos0);
    if accept_thinned(view, rng, w, accel, first, p0) {
        out.push(first);
    }
    let rest = (pos0 + 1..view.bucket_len(b0)).map(|pos| (b0, pos));
    let later = buckets.flat_map(|b| (0..view.bucket_len(b)).map(move |pos| (b, pos)));
    for (b, pos) in rest.chain(later) {
        let x = view.bucket_item(b, pos);
        if accept_plain(view, rng, w, accel, x) {
            out.push(x);
        }
    }
}

/// Algorithm 3: the certain instance — every item in buckets `≥ i_bottom` has
/// inclusion probability exactly 1.
pub fn query_certain<V: LevelView>(view: &V, i_bottom: i64) -> Vec<V::Id> {
    let mut out = Vec::new();
    query_certain_into(view, i_bottom, &mut out, |id| id);
    out
}

/// [`query_certain`] appending `map` of each item to `out`.
pub(crate) fn query_certain_into<V: LevelView, T>(
    view: &V,
    i_bottom: i64,
    out: &mut Vec<T>,
    mut map: impl FnMut(V::Id) -> T,
) {
    let lo = i_bottom.max(0) as usize;
    let universe = view.nonempty().universe();
    if lo >= universe {
        return;
    }
    for b in view.nonempty().range(lo, universe - 1) {
        out.extend((0..view.bucket_len(b)).map(|pos| map(view.bucket_item(b, pos))));
    }
}

/// Algorithm 5: opens each *candidate bucket* (a sampled next-level proxy) and
/// extracts this level's items with exact rejection sampling.
///
/// A candidate bucket `b` was sampled with probability `min(1, w(y_b)/W)`
/// where `w(y_b) = 2^{b+1}·n_b`. Let `p = min(1, 2^{b+1}/W)`:
/// - `p = 1`: every item is potential; accept each with `Ber(p_x)`;
/// - `p·n_b ≥ 1` (bucket was certain to be a candidate): first potential index
///   via `B-Geo(p, n_b+1)` (possibly none);
/// - `p·n_b < 1`: confirm the bucket *promising* with `Ber(p*)`
///   (`p* = (1−(1−p)^{n_b})/(p·n_b)`, the type (ii) Bernoulli of Theorem 3.1),
///   then locate the first potential index with `T-Geo(p, n_b)` (Theorem 1.3).
///
/// Each potential item `x` is accepted with `p_x/p = w(x)/2^{b+1}` exactly.
///
/// The batched walk rewinds the stream when a coin lands in its sliver, so
/// `R` is `Clone`.
pub fn extract_items<V: LevelView, R: RngCore + Clone>(
    view: &V,
    rng: &mut R,
    w: &Ratio,
    accel: &QueryAccel,
    candidate_buckets: &[u16],
) -> Vec<V::Id> {
    let mut out = Vec::new();
    extract_items_into(view, rng, w, accel, candidate_buckets, Opening::Proxy, &mut out);
    out
}

/// How the buckets handed to [`extract_items_into`] became candidates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Opening {
    /// Sampled as next-level proxies: bucket `b` is a candidate with
    /// probability `min(1, 2^{b+1}·n_b/W)` (Algorithm 5).
    Proxy,
    /// Every non-empty bucket of a sparse level-1 group, each a candidate
    /// with probability 1 (see [`query_level1_into`]).
    InPlace,
}

/// [`extract_items`] appending to `out`; `opening` says how the buckets
/// were chosen. A bucket opened in place skips the promising coin and the
/// `T-Geo` draw — they only condition on a proxy having been sampled — and
/// finds its first potential index by `B-Geo(p, n_b+1)` whatever `p·n_b`.
fn extract_items_into<V: LevelView, R: RngCore + Clone>(
    view: &V,
    rng: &mut R,
    w: &Ratio,
    accel: &QueryAccel,
    candidate_buckets: &[u16],
    opening: Opening,
    out: &mut Vec<V::Id>,
) {
    // Warm every candidate bucket's head before the first coin is drawn:
    // the hints issue in parallel, so each bucket's first touch overlaps
    // the preceding buckets' acceptance arithmetic instead of serializing
    // behind it. Hints only: bounds-checked, no data read, no RNG drawn.
    for &bu in candidate_buckets {
        view.prefetch_bucket_item(bu as usize, 0);
    }
    for (ci, &bu) in candidate_buckets.iter().enumerate() {
        let b = bu as usize;
        let n_b = view.bucket_len(b) as u64;
        debug_assert!(n_b > 0, "candidate bucket {b} is empty");
        // Re-warm the next bucket — its head line may have been evicted
        // while this one's strides were walked.
        if let Some(&nb) = candidate_buckets.get(ci + 1) {
            view.prefetch_bucket_item(nb as usize, 0);
        }
        let shift = b as u64 + 1;
        // p = min(1, 2^{b+1}/W); clamped ⟺ 2^{b+1} ≥ W ⟺ b+1 ≥ ⌈log2 W⌉
        // (Claim 4.3 — exact, no multi-word multiply needed).
        let clamped = shift as i64 >= accel.w_ceil_log2;
        debug_assert_eq!(
            clamped,
            BigUint::pow2(shift).mul(w.den()).cmp(w.num()) != Ordering::Less,
            "log-threshold clamp disagrees with exact comparison"
        );
        if clamped {
            // p = 1: all items are potential; accept each with Ber(p_x).
            for pos in 0..n_b {
                view.prefetch_bucket_item(b, pos as usize + 8);
                let x = view.bucket_item(b, pos as usize);
                if accept_plain(view, rng, w, accel, x) {
                    out.push(x);
                }
            }
            continue;
        }
        // One word-level descriptor serves the bucket's promising coin, its
        // first-index draw and every stride.
        let d = accel.bucket_desc(w, shift, n_b + 1);
        // First potential index.
        let k = if opening == Opening::InPlace || d.np_at_least_one(n_b) {
            d.bgeo(rng, n_b + 1)
        } else {
            if !d.ber_pstar(rng, n_b) {
                continue; // bucket rejected: contains no potential item
            }
            d.tgeo(rng, n_b)
        };
        walk_bucket(view, rng, accel, &d, b, shift, k, out);
    }
}

/// Potential items one batch of the open-bucket walk resolves together.
const WALK_BATCH: usize = 16;

/// Expected potential items `p·n_b` from which a walk decides its strides
/// on a [`randvar::StrideTable`]: one [`WALK_BATCH`]. Filling the table
/// costs 64 multiply pairs (`exp e8`: 170–350 ns on a 2-vCPU shared host)
/// and saves 30–45 ns per stride, so it pays from about 8 strides. At 4
/// and 64 instead, perfbench `query_mix` read 72.2k and 69.3k ops/s
/// against 73.8k here (medians of five rotated 8 s runs, seeds 201–205).
const STRIDE_TABLE_MIN_ITEMS: u64 = WALK_BATCH as u64;

/// Walks a non-clamped bucket `b` from its first potential index `k`: each
/// potential item `x` is accepted with `Ber(w(x)/2^{b+1})`, and the next
/// potential item lies a `B-Geo(p, n_b+1)` stride further (Algorithm 5).
///
/// The walk is memory-bound: every potential item is a random read of the
/// bucket's id array and then of the item's weight. On the fast path it
/// therefore runs in batches. Positions and acceptance words depend on the
/// random stream alone, so a batch first draws up to [`WALK_BATCH`]
/// (position, word) pairs exactly as the item-at-a-time loop would if no
/// coin lands in its sliver, then reads the batch's ids and weights with
/// their cache misses in flight together, then decides each coin from its
/// word. A coin in the sliver needs the words that follow its own, so the
/// batch then rewinds the stream to its start and replays item by item:
/// the output and the words drawn are the item-at-a-time loop's in every
/// case.
///
/// The batch earns its place. With the item-at-a-time loop forced on the
/// fast path too, perfbench `query_mix` fell from 3.73M to 1.53M
/// `items_per_s` (0.41×, 10 of 10 alternating 25 s pairs, seeds
/// 9101–9110, 2-vCPU shared host) and its `op_p99_us` rose from 61.6 to
/// 166.8.
fn walk_bucket<V: LevelView, R: RngCore + Clone>(
    view: &V,
    rng: &mut R,
    accel: &QueryAccel,
    d: &GeoDesc<'_>,
    b: usize,
    shift: u64,
    mut k: u64,
    out: &mut Vec<V::Id>,
) {
    let n_b = view.bucket_len(b) as u64;
    let table = if accel.use_fast() && d.np_surely_at_least(n_b, STRIDE_TABLE_MIN_ITEMS) {
        d.stride_table()
    } else {
        None
    };
    #[cfg(test)]
    if table.is_some() {
        tests::STRIDE_TABLES.with(|c| c.set(c.get() + 1));
    }
    let stride = |rng: &mut R| match &table {
        Some(table) => table.bgeo(rng, n_b + 1),
        None => d.bgeo(rng, n_b + 1),
    };
    // One step of the item-at-a-time loop; returns the next position.
    let step = |rng: &mut R, k: u64, out: &mut Vec<V::Id>| {
        let x = view.bucket_item(b, (k - 1) as usize);
        if accept_in_bucket(view, rng, accel, x, shift) {
            out.push(x);
        }
        k + stride(rng)
    };
    if !accel.use_fast() {
        while k <= n_b {
            k = step(rng, k, out);
        }
        return;
    }
    let mut pos = [0u64; WALK_BATCH];
    let mut words = [0u64; WALK_BATCH];
    let mut ids: [Option<V::Id>; WALK_BATCH] = [None; WALK_BATCH];
    while k <= n_b {
        let (start, snapshot, len0) = (k, rng.clone(), out.len());
        let mut m = 0;
        for (p, u) in pos.iter_mut().zip(words.iter_mut()) {
            if k > n_b {
                break;
            }
            (*p, *u) = (k, rng.next_u64());
            k += stride(rng);
            m += 1;
        }
        for &p in pos.iter().take(m) {
            view.prefetch_bucket_item(b, (p - 1) as usize);
        }
        for (id, &p) in ids.iter_mut().zip(&pos).take(m) {
            let x = view.bucket_item(b, (p - 1) as usize);
            view.prefetch_weight(x);
            *id = Some(x);
        }
        let decided = ids.iter().zip(&words).take(m).all(|(&x, &u)| {
            let Some(x) = x else { return false };
            match in_bucket_bits(view, x, shift).certain(u) {
                Some(accept) => {
                    if accept {
                        out.push(x);
                    }
                    true
                }
                None => false,
            }
        });
        if !decided {
            (*rng, k) = (snapshot, start);
            out.truncate(len0);
            for _ in 0..m {
                if k > n_b {
                    break;
                }
                k = step(rng, k, out);
            }
        }
    }
}

/// The certified [`Bits64`] bracket of `w(x)/2^{b+1}`: the denominator is
/// a power of two, so the weight's bracket only moves its exponent, and an
/// exact weight gives the exact threshold, a one-word sliver.
fn in_bucket_bits<V: LevelView>(view: &V, x: V::Id, shift: u64) -> Bits64 {
    let bits = view.weight_bracket(x).mul_pow2(-(shift as i64)).bits64();
    if cfg!(debug_assertions) {
        bits.debug_validate(&exact_weight(view, x), &BigUint::pow2(shift));
    }
    bits
}

/// Draws `Ber(w(x)/2^{b+1})` — the open-bucket acceptance coin of
/// Algorithm 5 (`p_x/p`, < 1 since `w(x) < 2^{b+1}`). `2^{b+1}` only
/// becomes a `BigUint` on the sliver or in exact mode.
fn accept_in_bucket<V: LevelView, R: RngCore>(
    view: &V,
    rng: &mut R,
    accel: &QueryAccel,
    x: V::Id,
    shift: u64,
) -> bool {
    if accel.use_fast() {
        return ber_bits_with(rng, &in_bucket_bits(view, x, shift), |rng, u| {
            ber_rational_from_word(rng, &exact_weight(view, x), &BigUint::pow2(shift), u)
        });
    }
    ber_rational_parts(rng, &exact_weight(view, x), &BigUint::pow2(shift))
}

/// Iterates the non-empty *significant* groups of a level and hands each to
/// `handle`. Their count is O(1) (Lemma 4.2).
fn for_significant_groups(
    groups: &wordram::BitsetList,
    th: &Thresholds,
    mut handle: impl FnMut(usize),
) {
    let lo = (th.j_insig_max + 1).max(0) as usize;
    // Guard both bounds: an empty group universe has no `universe − 1`
    // (underflow), and a certain range starting at or below `lo` leaves no
    // significant groups at all.
    if groups.universe() == 0 || th.j_cert_min <= lo as i64 {
        return;
    }
    let hi = ((th.j_cert_min - 1) as usize).min(groups.universe() - 1);
    let mut count = 0;
    for j in groups.range(lo, hi) {
        count += 1;
        debug_assert!(count <= 8, "more than O(1) significant groups");
        handle(j);
    }
}

/// `p0 = 1/N²` of a level with `n` items, in words.
fn p0_of(n: usize) -> (u128, u128) {
    (1, (n as u128) * (n as u128))
}

/// Algorithm 1 at the root: the full PSS query on the real item set under
/// the level-1 thresholds `th`, appending the sample to `out`. The levels
/// below write into `scratch`, so a warm query allocates nothing here.
///
/// A significant group with at most [`IN_PLACE_BUCKETS`] non-empty buckets
/// is *sparse*: its buckets are opened in place, each as a candidate with
/// probability 1 (Algorithm 5's open-bucket step without the promising
/// coin), instead of sampled as proxies through the group's level-2 child.
/// A clamped bucket (`2^{b+1} ≥ W`) runs the plain coin on every item; any
/// other draws its first potential index by `B-Geo(p_b, n_b+1)` with
/// `p_b = 2^{b+1}/W` and walks on, accepting each potential item with
/// `w_x/2^{b+1}`. Either way `x` is included independently with
/// probability `p_b·w_x/2^{b+1} = w_x/W`, so the law is exact. The cost
/// stays O(1 + μ): the group's expected potential items number
/// `Σ_b p_b·n_b ≤ 2·μ_group`, on top of at most `IN_PLACE_BUCKETS` draws,
/// and there are O(1) significant groups (Lemma 4.2). Only a dense group
/// pays for the level-2/3 descent, whose whole purpose is to make the
/// number of buckets it opens independent of its size. The non-empty
/// buckets are counted from the level-1 bitset; no node is touched.
pub(crate) fn query_level1_into<R: RngCore + Clone>(
    level1: &Level1,
    frame: &mut QueryFrame<'_, R>,
    th: &Thresholds,
    scratch: &mut QueryScratch,
    out: &mut Vec<ItemId>,
) {
    let n = level1.n_positive;
    if n == 0 {
        return;
    }
    let p0 = p0_of(n);
    query_insignificant_into(level1, frame.rng, frame.w, &frame.accel, th.i_insig_top, p0, out);
    query_certain_into(level1, th.i_cert_bottom, out, |id| id);
    let QueryScratch { proxies, finals, candidates } = scratch;
    let g = level1.group_width as usize;
    for_significant_groups(&level1.nonempty_groups, th, |j| {
        let (lo, hi) = (j * g, ((j + 1) * g).min(L1_BUCKETS) - 1);
        proxies.clear();
        let opening = if level1.nonempty_buckets.count_range(lo, hi) <= IN_PLACE_BUCKETS {
            proxies.extend(level1.nonempty_buckets.range(lo, hi).map(narrow::u16_of_usize));
            Opening::InPlace
        } else {
            // pss-lint: allow(no-panic-paths) — this group holds more than IN_PLACE_BUCKETS non-empty buckets, so g₁ > IN_PLACE_BUCKETS and the hierarchy is built (a flat one never reaches this arm); a built hierarchy gives every non-empty group a child, and for_significant_groups yields only non-empty groups
            let child = level1.child_view(j).expect("non-empty group without child");
            query_node_into(&child, frame, finals, candidates, proxies);
            Opening::Proxy
        };
        extract_items_into(level1, frame.rng, frame.w, &frame.accel, proxies, opening, out);
    });
}

/// One-level query on a level-2 node (Algorithm 1 with recursion into the
/// final level), appending the sampled proxies — level-1 bucket indices —
/// to `out`. `finals` and `candidates` are the final level's buffers.
fn query_node_into<R: RngCore + Clone>(
    view: &NodeView<'_>,
    frame: &mut QueryFrame<'_, R>,
    finals: &mut Vec<u16>,
    candidates: &mut Vec<u16>,
    out: &mut Vec<u16>,
) {
    debug_assert_eq!(view.node.level, 2);
    let n = view.node.n_members;
    if n == 0 {
        return;
    }
    let th = thresholds_at(frame.w, frame.accel.w_ceil_log2, n, view.node.group_width);
    query_insignificant_into(view, frame.rng, frame.w, &frame.accel, th.i_insig_top, p0_of(n), out);
    query_certain_into(view, th.i_cert_bottom, out, |id| id);
    for_significant_groups(&view.node.nonempty_groups, &th, |l| {
        // pss-lint: allow(no-panic-paths) — for_significant_groups only yields groups whose bitset bit is set, and a set bit implies an allocated child
        let child = view.child(l).expect("non-empty group without child");
        finals.clear();
        query_final_into(&child, frame, candidates, finals);
        extract_items_into(view, frame.rng, frame.w, &frame.accel, finals, Opening::Proxy, out);
    });
}

/// The final-level query (§4.4): insignificant + certain ranges plus the
/// lookup-table-driven middle range of at most `K = O(log m)` buckets.
/// Returns sampled proxies = level-2 bucket indices.
pub fn query_final<R: RngCore + Clone>(
    view: &NodeView<'_>,
    ctx: &mut QueryFrame<'_, R>,
) -> Vec<u16> {
    let (mut candidates, mut out) = (Vec::new(), Vec::new());
    query_final_into(view, ctx, &mut candidates, &mut out);
    out
}

/// [`query_final`] appending to `out`; `candidates` is scratch for the
/// sampled middle-range buckets.
fn query_final_into<R: RngCore + Clone>(
    view: &NodeView<'_>,
    frame: &mut QueryFrame<'_, R>,
    candidates: &mut Vec<u16>,
    out: &mut Vec<u16>,
) {
    let node = view.node;
    debug_assert_eq!(node.level, 3);
    if node.n_members == 0 {
        return;
    }
    let m = u64::from(frame.table.modulus());
    let m2 = m * m;
    // i1 = largest index with 2^{i1+1}/W ≤ 2/m² ⟺ i1 = ⌊log2(2W/m²)⌋ − 1.
    let i1 = log2_scaled(frame.w, 2, m).0 - 1;
    let i2 = frame.accel.w_ceil_log2;
    debug_assert_eq!(i2, frame.w.ceil_log2());
    let p0 = (2, u128::from(m2));
    query_insignificant_into(view, frame.rng, frame.w, &frame.accel, i1, p0, out);
    query_certain_into(view, i2, out, |id| id);

    let k_len = i2 - i1 - 1;
    if k_len <= 0 || i2 <= 0 {
        // No middle range, or it lies entirely below bucket index 0.
        return;
    }
    let lo = i1 + 1; // first significant bucket index
    let use_table =
        frame.final_mode == FinalLevelMode::Lookup && (k_len as usize) <= MAX_K && lo >= 0;
    candidates.clear();
    if use_table {
        // Assemble the 4S configuration from the adapter (bucket sizes).
        let mut buf = [0u32; MAX_K];
        // pss-lint: allow(no-bare-index) — use_table implies k_len ≤ MAX_K
        let config = &mut buf[..k_len as usize];
        let mut any = false;
        for (t, c) in config.iter_mut().enumerate() {
            if let Some(b) = node.buckets.get(lo as usize + t) {
                *c = narrow::u32_of_usize(b.len());
                any |= *c > 0;
            }
        }
        if !any {
            return;
        }
        debug_assert!(config.iter().all(|&c| c as u64 <= m), "bucket size exceeds m");
        let r = frame.table.sample(frame.rng, config);
        for (t, &c) in config.iter().enumerate() {
            if !bits::bit64(u64::from(r), t as u64) || c == 0 {
                continue;
            }
            let idx = lo as usize + t;
            let num_t = frame.table.slot_prob_num(t, c);
            if accept_table_candidate(frame.rng, frame.w, &frame.accel, idx, c, num_t, m2) {
                candidates.push(narrow::u16_of_usize(idx));
            }
        }
    } else {
        // Direct mode: one Bernoulli min(1, w_v/W) per significant bucket.
        // `checked_sub` guards the empty-universe edge case (no
        // underflowing `universe() - 1`).
        if let Some(last) = node.nonempty_buckets.universe().checked_sub(1) {
            let hi = ((i2 - 1) as usize).min(last);
            if lo.max(0) as usize <= hi {
                for idx in node.nonempty_buckets.range(lo.max(0) as usize, hi) {
                    let c = node.buckets.len_of(idx) as u64;
                    if accept_direct_candidate(frame.rng, frame.w, &frame.accel, idx, c) {
                        candidates.push(narrow::u16_of_usize(idx));
                    }
                }
            }
        }
    }
    extract_items_into(view, frame.rng, frame.w, &frame.accel, candidates, Opening::Proxy, out);
}

/// Exact parts of the table-candidate acceptance probability
/// `min(1, w_v/W) / (num_t/m²)` with `w_v = c·2^{idx+1}` (computed only in
/// the sliver, in force-exact mode, and for debug validation).
fn table_accept_parts(w: &Ratio, idx: usize, c: u32, num_t: u64, m2: u64) -> (BigUint, BigUint) {
    let w_v = BigUint::from_u64(c as u64).shl(idx as u64 + 1);
    let true_num = w_v.mul(w.den());
    let true_den = w.num();
    if true_num.cmp(true_den) != Ordering::Less {
        // True probability clamped to 1 ⇒ the table probability is also 1.
        debug_assert_eq!(num_t, m2, "table majorization violated at clamp");
        (BigUint::one(), BigUint::one())
    } else {
        let (num, den) = (true_num.mul_u64(m2), true_den.mul_u64(num_t));
        debug_assert!(num.cmp(&den) != Ordering::Greater, "table majorization violated");
        (num, den)
    }
}

/// Accepts a table-sampled bucket as a candidate with probability
/// `min(1, w_v/W) / (num_t/m²)` — fast two-sided word test first, exact
/// rational only in the sliver.
fn accept_table_candidate<R: RngCore>(
    rng: &mut R,
    w: &Ratio,
    accel: &QueryAccel,
    idx: usize,
    c: u32,
    num_t: u64,
    m2: u64,
) -> bool {
    if accel.use_fast() {
        // w_v = c·2^{idx+1} is exact; m²/num_t is a quotient of words. A
        // clamped w_v/W has num_t = m², and a bracket reaching past 1 only
        // saturates the threshold words.
        let w_v = WordBracket::exact(u64::from(c), idx as i64 + 1);
        let table_inv = WordBracket::ratio_u128(u128::from(m2), u128::from(num_t));
        let bits = accel.incl_bits(w_v * table_inv);
        if cfg!(debug_assertions) {
            let (num, den) = table_accept_parts(w, idx, c, num_t, m2);
            bits.debug_validate(&num, &den);
        }
        return ber_bits_with(rng, &bits, |rng, u| {
            let (num, den) = table_accept_parts(w, idx, c, num_t, m2);
            ber_rational_from_word(rng, &num, &den, u)
        });
    }
    let (num, den) = table_accept_parts(w, idx, c, num_t, m2);
    ber_rational_parts(rng, &num, &den)
}

/// Accepts a significant bucket in direct mode with probability
/// `min(1, w_v/W)`, `w_v = c·2^{idx+1}`.
fn accept_direct_candidate<R: RngCore>(
    rng: &mut R,
    w: &Ratio,
    accel: &QueryAccel,
    idx: usize,
    c: u64,
) -> bool {
    if accel.use_fast() {
        let bits = accel.incl_bits(WordBracket::exact(c, idx as i64 + 1));
        if cfg!(debug_assertions) {
            bits.debug_validate(&BigUint::from_u64(c).shl(idx as u64 + 1).mul(w.den()), w.num());
        }
        return ber_bits_with(rng, &bits, |rng, u| {
            let num = BigUint::from_u64(c).shl(idx as u64 + 1).mul(w.den());
            ber_rational_from_word(rng, &num, w.num(), u)
        });
    }
    let num = BigUint::from_u64(c).shl(idx as u64 + 1).mul(w.den());
    ber_rational_parts(rng, &num, w.num())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::ItemId;
    use pss_core::QueryCtx;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;
    use wordram::BitsetList;

    thread_local! {
        /// Thinning coins drawn on the fast path, on this thread.
        pub(super) static THINNING_COINS: Cell<u64> = const { Cell::new(0) };
        /// Of those, the ones whose word landed in the sliver.
        pub(super) static THINNING_SLIVERS: Cell<u64> = const { Cell::new(0) };
        /// Open-bucket walks that drew their strides on a stride table.
        pub(super) static STRIDE_TABLES: Cell<u64> = const { Cell::new(0) };
    }

    /// A [`Level1`] whose weight brackets are widened by 2⁻⁶ either side
    /// (still certified) through the [`LevelView::weight_bracket`] hook:
    /// about one acceptance word in 30 lands in the sliver, so most walk
    /// batches rewind and replay.
    struct WideBrackets<'a>(&'a Level1);

    impl LevelView for WideBrackets<'_> {
        type Id = ItemId;
        fn n_items(&self) -> usize {
            self.0.n_items()
        }
        fn nonempty(&self) -> &BitsetList {
            self.0.nonempty()
        }
        fn bucket_len(&self, b: usize) -> usize {
            self.0.bucket_len(b)
        }
        fn bucket_item(&self, b: usize, pos: usize) -> ItemId {
            self.0.bucket_item(b, pos)
        }
        fn weight_parts(&self, id: ItemId) -> (u64, u32) {
            self.0.weight_parts(id)
        }
        fn weight_bracket(&self, id: ItemId) -> WordBracket {
            // w·63/64 ≤ w ≤ w·65/64, in units of 2^-6 (the weights stay
            // below 2^21).
            let (w, _) = self.0.weight_parts(id);
            WordBracket::new(w * 63, w * 65, -6)
        }
    }

    #[test]
    fn batched_walk_replays_slivers_word_for_word() {
        // Weights below 2^20 against W ≈ Σw/256 ≈ 2^23: no bucket clamps, so
        // the walk draws the same words whether its coins run fast or exact.
        let weights: Vec<u64> =
            (0..4096u64).map(|i| 1 + i.wrapping_mul(2_654_435_761) % (1 << 20)).collect();
        let mut level1 = Level1::new(12, 4);
        level1.insert_many(&weights);
        let view = WideBrackets(&level1);
        let w = Ratio::from_u128s(level1.total_weight, 256);
        let buckets: Vec<u16> =
            level1.nonempty().range(0, L1_BUCKETS - 1).map(narrow::u16_of_usize).collect();
        let slivers = randvar::sliver_hits();
        let mut items = 0;
        for seed in 0..32 {
            let mut fast_ctx = QueryCtx::new(seed);
            let fast =
                extract_items(&view, fast_ctx.rng(), &w, &QueryAccel::new(&w, true), &buckets);
            let mut exact_ctx = QueryCtx::new(seed);
            let exact =
                extract_items(&view, exact_ctx.rng(), &w, &QueryAccel::new(&w, false), &buckets);
            assert_eq!(fast, exact, "seed {seed}: batched walk returned other items");
            assert_eq!(fast_ctx.words_consumed(), exact_ctx.words_consumed(), "seed {seed}");
            items += fast.len();
        }
        assert!(items > 32 * 128, "walk sampled only {items} items");
        assert!(randvar::sliver_hits() - slivers > 64, "the replay path was barely exercised");
    }

    #[test]
    fn stride_table_walk_replays_slivers_word_for_word() {
        // 8192 weights in bucket 19 and 4096 in bucket 18 against W = 2^28:
        // p = 2^-8 and 2^-9, so bucket 19 expects 32 potential items and
        // draws its strides on a stride table, and bucket 18 (8 expected)
        // keeps the power-table brackets. The widened weight brackets make
        // most batches rewind and replay through the table's strides.
        let weights: Vec<u64> = (0..12_288u64)
            .map(|i| {
                let base = if i < 8192 { 1 << 19 } else { 1 << 18 };
                base + i.wrapping_mul(2_654_435_761) % base
            })
            .collect();
        let mut level1 = Level1::new(14, 4);
        level1.insert_many(&weights);
        let view = WideBrackets(&level1);
        let w = Ratio::from_int(1 << 28);
        let buckets: Vec<u16> =
            level1.nonempty().range(0, L1_BUCKETS - 1).map(narrow::u16_of_usize).collect();
        assert_eq!(buckets, [18, 19]);
        let (slivers, tables) = (randvar::sliver_hits(), STRIDE_TABLES.with(Cell::get));
        let mut items = 0;
        for seed in 0..128 {
            let mut fast_ctx = QueryCtx::new(seed);
            let fast =
                extract_items(&view, fast_ctx.rng(), &w, &QueryAccel::new(&w, true), &buckets);
            let mut exact_ctx = QueryCtx::new(seed);
            let exact =
                extract_items(&view, exact_ctx.rng(), &w, &QueryAccel::new(&w, false), &buckets);
            assert_eq!(fast, exact, "seed {seed}: table-driven walk returned other items");
            assert_eq!(fast_ctx.words_consumed(), exact_ctx.words_consumed(), "seed {seed}");
            items += fast.len();
        }
        assert!(items > 128 * 16, "walk sampled only {items} items");
        assert!(randvar::sliver_hits() - slivers > 32, "the replay path was barely exercised");
        let tables = STRIDE_TABLES.with(Cell::get) - tables;
        assert_eq!(tables, 128, "one stride table per query, for bucket 19 only");
    }

    #[test]
    fn thinning_coin_replays_slivers_word_for_word() {
        // Eight items in buckets 18 and 19, so p0 = 1/64. With W = 2^26 both
        // buckets are insignificant (2^{i+1}/W ≤ p0) and the thinning ratio
        // (w_x/W)/p0 = w_x/2^20 lies in [1/4, 1). The B-Geo jump lands
        // inside the level about one query in eight; the widened brackets
        // then put about one thinning word in 40 in the sliver.
        let weights = [(1 << 18) + 1, (1 << 18) + 77, (1 << 19) + 3, 600_000, 700_000, 1_000_000];
        let weights = [&weights[..], &[1_040_000, (1 << 20) - 1]].concat();
        let mut level1 = Level1::new(4, 2);
        level1.insert_many(&weights);
        let view = WideBrackets(&level1);
        let w = Ratio::from_int(1 << 26);
        let p0 = Ratio::from_u64s(1, 64);
        let (coins, slivers) = (THINNING_COINS.with(Cell::get), THINNING_SLIVERS.with(Cell::get));
        let mut items = 0;
        for seed in 0..4096 {
            let mut fast_ctx = QueryCtx::new(seed);
            let accel = QueryAccel::new(&w, true);
            let fast = query_insignificant(&view, fast_ctx.rng(), &w, &accel, 19, &p0);
            let mut exact_ctx = QueryCtx::new(seed);
            let accel = QueryAccel::new(&w, false);
            let exact = query_insignificant(&view, exact_ctx.rng(), &w, &accel, 19, &p0);
            assert_eq!(fast, exact, "seed {seed}: insignificant instance returned other items");
            assert_eq!(fast_ctx.words_consumed(), exact_ctx.words_consumed(), "seed {seed}");
            items += fast.len();
        }
        let coins = THINNING_COINS.with(Cell::get) - coins;
        let slivers = THINNING_SLIVERS.with(Cell::get) - slivers;
        assert!(coins > 256 && items > 128, "{coins} thinning coins, {items} items");
        assert!(slivers > 0, "{slivers} of {coins} thinning coins hit their sliver");
    }

    /// `(⌊log2 q⌋, q is a power of two)` for `q = W·a/b²`, by `Ratio`.
    fn log2_reference(w: &Ratio, a: u64, b: u64) -> (i64, bool) {
        let q = Ratio::new(w.num().mul_u64(a), w.den().mul_u64(b).mul_u64(b));
        let f = q.floor_log2();
        (f, q.cmp_pow2_signed(f) == Ordering::Equal)
    }

    /// The thresholds as the definitions give them, in `BigUint`.
    fn thresholds_reference(w: &Ratio, n: usize, g: u32) -> (i64, i64, i64, i64) {
        let g = i64::from(g);
        let n2 = BigUint::from_u128((n as u128) * (n as u128));
        let i_ins_max = Ratio::new(w.num().clone(), w.den().mul(&n2)).floor_log2() - 1;
        let i_cert_min = w.ceil_log2();
        let j_insig_max = if i_ins_max >= g - 1 { (i_ins_max - g + 1).div_euclid(g) } else { -1 };
        let j_cert_min =
            (i_cert_min.div_euclid(g) + i64::from(i_cert_min.rem_euclid(g) != 0)).max(0);
        ((j_insig_max + 1) * g - 1, j_cert_min * g, j_insig_max, j_cert_min)
    }

    #[test]
    fn word_level_log2_matches_ratio_reference() {
        let mut rng = SmallRng::seed_from_u64(0x7E57_1062);
        let mut ws = Vec::new();
        for _ in 0..400 {
            // Two-word parts of every size.
            let num = (rng.gen::<u128>() >> rng.gen_range(0u32..128)).max(1);
            let den = (rng.gen::<u128>() >> rng.gen_range(0u32..128)).max(1);
            ws.push(Ratio::from_u128s(num, den));
            // Multi-limb parts: the Ratio fallback.
            let big = BigUint::from_u128(rng.gen::<u128>() | 1).mul(&BigUint::from_u128(num));
            ws.push(Ratio::new(big, BigUint::from_u128(den)));
            ws.push(Ratio::new(BigUint::from_u128(num), BigUint::from_u128(den).shl(130)));
        }
        let ns = [1u64, 2, 3, 7, 1000, (1 << 16) + 1, (1 << 32) - 1, 1 << 32];
        for n in ns {
            // W/N² exactly 2^k, and one unit of the numerator either side.
            for (k, d) in [(0u32, 1u128), (5, 3), (40, 1), (60, 7), (90, 1)] {
                let Some(base) = U256::from_u64(n)
                    .checked_mul_u64(n)
                    .and_then(|v| v.checked_mul_u64(1 << (k % 64)))
                    .and_then(|v| v.checked_shl(k - k % 64))
                    .and_then(|v| v.to_u128())
                    .and_then(|v| v.checked_mul(d))
                else {
                    continue;
                };
                for num in [base - 1, base, base + 1].into_iter().filter(|&v| v > 0) {
                    ws.push(Ratio::from_u128s(num, d));
                }
            }
        }
        let pairs = ns.iter().map(|&n| (1, n)).chain((2..=64).map(|m| (2, m)));
        let pairs: Vec<(u64, u64)> = pairs.collect();
        for w in &ws {
            assert_eq!(QueryAccel::new(w, true).w_ceil_log2, w.ceil_log2(), "⌈log2 {w:?}⌉");
            for &(a, b) in &pairs {
                assert_eq!(
                    log2_scaled(w, a, b),
                    log2_reference(w, a, b),
                    "W = {w:?}, a = {a}, b = {b}"
                );
            }
            for (n, g) in [(1, 2), (5, 3), (1 << 20, 5), ((1 << 32) - 1, 6), (1 << 32, 6)] {
                let th = thresholds(w, n, g);
                let got = (th.i_insig_top, th.i_cert_bottom, th.j_insig_max, th.j_cert_min);
                assert_eq!(got, thresholds_reference(w, n, g), "W = {w:?}, n = {n}, g = {g}");
            }
        }
    }

    #[test]
    fn significant_groups_skip_empty_universe() {
        // Regression: `groups.universe() - 1` underflowed on an empty group
        // universe before the saturating guard.
        let groups = BitsetList::new(0);
        let th = Thresholds { i_insig_top: -1, i_cert_bottom: 64, j_insig_max: -1, j_cert_min: 4 };
        let mut seen = Vec::new();
        for_significant_groups(&groups, &th, |j| seen.push(j));
        assert!(seen.is_empty());
    }

    #[test]
    fn significant_groups_empty_when_certain_covers_all() {
        let mut groups = BitsetList::new(8);
        groups.insert(2);
        let th = Thresholds { i_insig_top: 7, i_cert_bottom: 8, j_insig_max: 1, j_cert_min: 2 };
        let mut seen = Vec::new();
        for_significant_groups(&groups, &th, |j| seen.push(j));
        assert!(seen.is_empty(), "j_cert_min ≤ lo must yield no groups");
    }

    /// A pool holding one level-3 node whose bucket vector is empty but that
    /// still claims a member — the degenerate shape that used to underflow
    /// `node.buckets.len() - 1` in direct mode.
    fn empty_bucket_pool() -> (crate::structure::NodePool, u32) {
        let mut pool = crate::structure::NodePool::new();
        let idx = pool.alloc_level3();
        let node = pool.node_mut(idx);
        node.buckets = crate::structure::BucketWindow::default();
        node.nonempty_buckets = BitsetList::new(0);
        node.nonempty_groups = BitsetList::new(0);
        node.members = Vec::new();
        node.n_members = 1;
        (pool, idx)
    }

    #[test]
    fn query_final_survives_empty_bucket_vec() {
        for mode in [FinalLevelMode::Direct, FinalLevelMode::Lookup] {
            let (pool, idx) = empty_bucket_pool();
            let w = Ratio::from_int(8);
            let mut table = LookupTable::new(4);
            let mut rng = SmallRng::seed_from_u64(3);
            let mut ctx = QueryFrame {
                rng: &mut rng,
                w: &w,
                accel: QueryAccel::new(&w, true),
                table: &mut table,
                final_mode: mode,
            };
            let view = crate::structure::NodeView {
                pool: &pool,
                node: pool.node(idx),
                parent: &crate::structure::BucketWindow::default(),
            };
            assert!(query_final(&view, &mut ctx).is_empty(), "{mode:?}");
        }
    }

    #[test]
    fn in_place_cap_is_the_floor_group_width() {
        let floor = crate::DpssSampler::new(0).stats().group_width_l1;
        assert_eq!(floor as usize, IN_PLACE_BUCKETS);
    }

    #[test]
    fn thresholds_match_definitions_small() {
        // W = 8, n = 4, g = 2: i_ins_max = ⌊log2(8/16)⌋ − 1 = −2,
        // i_cert_min = 3 ⇒ j_cert_min = 2.
        let th = thresholds(&Ratio::from_int(8), 4, 2);
        assert_eq!(th.j_insig_max, -1);
        assert_eq!(th.i_insig_top, -1);
        assert_eq!(th.j_cert_min, 2);
        assert_eq!(th.i_cert_bottom, 4);
    }
}
