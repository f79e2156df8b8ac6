//! A faithful **Dynamic Subset Sampling** (DSS) structure in the style of
//! Yi, Wang & Wei, *Optimal Dynamic Subset Sampling* (KDD 2023) — the prior
//! work the DPSS paper generalizes.
//!
//! ## The DSS problem
//!
//! Each item `x` carries its **own fixed probability** `p(x) ∈ [0, 1]`
//! (an exact rational here). A query returns a subset containing each item
//! independently with probability `p(x)`; updates insert an item (with its
//! probability), delete an item, or change one item's probability. Crucially —
//! and in contrast to DPSS — an update touches *one* item's probability only.
//!
//! ## Structure
//!
//! Items are grouped into probability buckets: bucket `j` holds items with
//! `p ∈ (2^{-(j+1)}, 2^{-j}]`; probabilities below `2^{-TAIL}` share the tail
//! bucket. The set of non-empty bucket indices lives in a Fact 2.1
//! [`BitsetList`] (O(1) insert/delete/successor). A query walks each
//! non-empty bucket with a bounded-geometric majorizer jump
//! (`B-Geo(2^{-j}, n_j+1)`) and accepts each candidate with the exact
//! Bernoulli `Ber(p(x)·2^j)` — rejection sampling identical in spirit to the
//! DPSS paper's Algorithm 5.
//!
//! The expected query cost is `O(B + μ)` where `B ≤ 66` is the number of
//! non-empty buckets — for one-word probabilities `B` is a constant
//! independent of `n`, which is the engineering reading of ODSS's `O(1+μ)`
//! bound (the KDD paper removes the `B` with a second recursion level; with
//! `B ≤ 66` the recursion saves nothing at word size 64, so we keep the flat
//! form and document it here).
//!
//! ## Why this is the DPSS foil
//!
//! Under DPSS semantics the per-item probability is `min(w(x)/W(α,β), 1)`:
//! *every* insertion or deletion moves `W` and therefore every stored
//! probability. A DSS structure must then re-materialize all `n`
//! probabilities before it can answer — [`OdssUnderDpss`] measures exactly
//! that Θ(n) penalty (the gap stated in the paper's introduction).

use bignum::{BigUint, Ratio};
use pss_core::{kind, Delta, Replay};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use randvar::{ber_rational_parts, bgeo};
use std::cmp::Ordering;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use wordram::bits::floor_log2_u64;
use wordram::BitsetList;

use crate::{Baseline, Handle, QueryCtx, QueryStrategy, Store};
// The unit tests below drive the backends through the facade.
#[cfg(test)]
use crate::PssBackend;

/// Probabilities below `2^{-TAIL_EXP}` share the last bucket.
const TAIL_EXP: usize = 64;
/// Number of probability buckets (`j ∈ 0..=TAIL_EXP`).
const N_BUCKETS: usize = TAIL_EXP + 1;
/// Sentinel bucket index for items with `p = 0` (never sampled).
const NO_BUCKET: u8 = u8::MAX;

/// One stored item.
#[derive(Debug, Clone)]
struct Slot {
    /// Exact sampling probability in `[0, 1]`.
    prob: Ratio,
    /// Bucket index, or [`NO_BUCKET`] for `p = 0`.
    bucket: u8,
    /// Position inside the bucket's item vector.
    pos: u32,
    live: bool,
}

/// The ODSS dynamic subset sampler (fixed per-item probabilities).
#[derive(Debug)]
pub struct OdssDss<R: RngCore = SmallRng> {
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// `buckets[j]` lists the slot indices of items in probability bucket `j`.
    buckets: Vec<Vec<u32>>,
    /// Non-empty bucket indices (Fact 2.1 structure, universe `{0..=64}`).
    nonempty: BitsetList,
    n: usize,
    rng: R,
    /// Total slots relocated across all updates (cost accounting: must stay
    /// ≤ 1 per update — the O(1) DSS update bound).
    pub update_moves: u64,
    /// Non-empty buckets visited across all queries (cost accounting).
    pub buckets_scanned: u64,
}

/// Computes the bucket index for probability `p`:
/// `j` such that `p ∈ (2^{-(j+1)}, 2^{-j}]`, clamped to the tail bucket.
/// Returns [`NO_BUCKET`] for `p = 0`.
fn bucket_of(p: &Ratio) -> u8 {
    if p.is_zero() {
        return NO_BUCKET;
    }
    // p ∈ (2^{-(j+1)}, 2^{-j}] ⟺ ceil(log2 p) = -j  (for p ≤ 1).
    let c = p.ceil_log2();
    debug_assert!(c <= 0, "probability above 1");
    (-c).clamp(0, TAIL_EXP as i64) as u8
}

impl OdssDss<SmallRng> {
    /// Creates an empty sampler with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Self::with_rng(SmallRng::seed_from_u64(seed))
    }
}

impl<R: RngCore> OdssDss<R> {
    /// Creates an empty sampler driven by `rng`.
    pub fn with_rng(rng: R) -> Self {
        OdssDss {
            slots: Vec::new(),
            free: Vec::new(),
            buckets: vec![Vec::new(); N_BUCKETS],
            nonempty: BitsetList::new(N_BUCKETS),
            n: 0,
            rng,
            update_moves: 0,
            buckets_scanned: 0,
        }
    }

    /// Number of live items.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when no items are live.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The exact probability of a live item, if present.
    pub fn prob(&self, handle: u64) -> Option<&Ratio> {
        let i = handle as usize;
        self.slots.get(i).filter(|s| s.live).map(|s| &s.prob)
    }

    /// Inserts an item with exact probability `p ∈ [0, 1]`. O(1).
    ///
    /// # Panics
    /// Panics if `p > 1`.
    pub fn insert(&mut self, p: Ratio) -> u64 {
        assert!(p.cmp_int(1) != Ordering::Greater, "probability must be <= 1");
        let bucket = bucket_of(&p);
        let idx = if let Some(i) = self.free.pop() {
            self.slots[i as usize] = Slot { prob: p, bucket, pos: 0, live: true };
            i as usize
        } else {
            self.slots.push(Slot { prob: p, bucket, pos: 0, live: true });
            self.slots.len() - 1
        };
        if bucket != NO_BUCKET {
            let b = &mut self.buckets[bucket as usize];
            self.slots[idx].pos = b.len() as u32;
            b.push(idx as u32);
            if b.len() == 1 {
                self.nonempty.insert(bucket as usize);
            }
        }
        self.n += 1;
        self.update_moves += 1;
        idx as u64
    }

    /// Deletes a live item. O(1) via swap-remove. Returns `false` for a dead
    /// or unknown handle.
    pub fn delete(&mut self, handle: u64) -> bool {
        let i = handle as usize;
        if i >= self.slots.len() || !self.slots[i].live {
            return false;
        }
        let (bucket, pos) = (self.slots[i].bucket, self.slots[i].pos as usize);
        if bucket != NO_BUCKET {
            let b = &mut self.buckets[bucket as usize];
            b.swap_remove(pos);
            if let Some(&moved) = b.get(pos) {
                self.slots[moved as usize].pos = pos as u32;
            }
            if b.is_empty() {
                self.nonempty.remove(bucket as usize);
            }
        }
        self.slots[i].live = false;
        self.free.push(i as u32);
        self.n -= 1;
        self.update_moves += 1;
        true
    }

    /// Changes one item's probability in O(1) (the update DSS is optimized
    /// for — compare [`OdssUnderDpss`] where *all* probabilities move).
    pub fn set_prob(&mut self, handle: u64, p: Ratio) -> bool {
        if self.prob(handle).is_none() {
            return false;
        }
        self.delete(handle);
        // Re-insert into the same slot: the free list returns it immediately.
        let new = self.insert(p);
        debug_assert_eq!(new, handle, "slot recycling must preserve the handle");
        true
    }

    /// Exact expected sample size `Σ p(x)` (as `f64`, for reporting).
    pub fn expected_sample_size(&self) -> f64 {
        self.slots.iter().filter(|s| s.live).map(|s| s.prob.to_f64_lossy()).sum()
    }

    /// Draws one subset sample: each live item included independently with
    /// its probability, coins from the internal RNG. Expected time
    /// `O(B + μ)`, `B` = non-empty buckets.
    pub fn query(&mut self) -> Vec<u64> {
        Self::query_all(
            &self.slots,
            &self.buckets,
            &self.nonempty,
            &mut self.rng,
            &mut self.buckets_scanned,
        )
    }

    /// [`OdssDss::query`] with coins drawn from an **external** RNG — the
    /// form [`OdssUnderDpss`] uses when the materialized structure lives in a
    /// caller's `QueryCtx` (the internal RNG is untouched, so shared-read
    /// batches stay a pure function of the caller's stream).
    pub fn query_with<R2: RngCore>(&mut self, rng: &mut R2) -> Vec<u64> {
        Self::query_all(&self.slots, &self.buckets, &self.nonempty, rng, &mut self.buckets_scanned)
    }

    /// The shared bucket walk behind [`OdssDss::query`] /
    /// [`OdssDss::query_with`]: one definition, either RNG source.
    fn query_all<R2: RngCore>(
        slots: &[Slot],
        buckets: &[Vec<u32>],
        nonempty: &BitsetList,
        rng: &mut R2,
        scanned: &mut u64,
    ) -> Vec<u64> {
        let mut out = Vec::new();
        let mut j_opt = nonempty.min();
        while let Some(j) = j_opt {
            *scanned += 1;
            Self::query_bucket(slots, &buckets[j], j, rng, &mut out);
            j_opt = nonempty.succ(j + 1);
        }
        out
    }

    /// Majorizer walk over bucket `j`: candidates at `B-Geo(2^{-j})` strides,
    /// each accepted with the exact residual `Ber(p·2^j)`. Associated
    /// function (not a method) so the RNG can be either the structure's own
    /// or a caller-supplied stream.
    fn query_bucket<R2: RngCore>(
        slots: &[Slot],
        bucket: &[u32],
        j: usize,
        rng: &mut R2,
        out: &mut Vec<u64>,
    ) {
        let n_j = bucket.len() as u64;
        if j == 0 {
            // p ∈ (1/2, 1]: the majorizer is 1 — flip every item directly
            // (acceptance ≥ 1/2, so this is output-charged).
            for pos in 0..n_j {
                let slot = bucket[pos as usize];
                let p = &slots[slot as usize].prob;
                if ber_rational_parts(rng, p.num(), p.den()) {
                    out.push(slot as u64);
                }
            }
            return;
        }
        let q = Ratio::new(BigUint::one(), BigUint::pow2(j as u64));
        let mut k = bgeo(rng, &q, n_j + 1);
        while k <= n_j {
            let slot = bucket[(k - 1) as usize];
            let p = &slots[slot as usize].prob;
            // Accept with p / 2^{-j} = p·2^j ≤ 1 (p ≤ 2^{-j} in bucket j;
            // tail-bucket items have p ≤ 2^{-TAIL_EXP} ≤ 2^{-j} too).
            let num = p.num().shl(j as u64);
            if ber_rational_parts(rng, &num, p.den()) {
                out.push(slot as u64);
            }
            k += bgeo(rng, &q, n_j + 1);
        }
    }

    /// Checks every structural invariant; panics on violation. Test hook.
    pub fn validate(&self) {
        let mut live_count = 0;
        for (i, s) in self.slots.iter().enumerate() {
            if !s.live {
                continue;
            }
            live_count += 1;
            assert_eq!(s.bucket, bucket_of(&s.prob), "slot {i}: wrong bucket");
            if s.bucket != NO_BUCKET {
                let b = &self.buckets[s.bucket as usize];
                assert_eq!(b[s.pos as usize], i as u32, "slot {i}: bad back-pointer");
            }
        }
        assert_eq!(live_count, self.n, "live count mismatch");
        for (j, b) in self.buckets.iter().enumerate() {
            assert_eq!(
                !b.is_empty(),
                self.nonempty.contains(j),
                "bucket {j}: non-empty set out of sync"
            );
            for (pos, &slot) in b.iter().enumerate() {
                let s = &self.slots[slot as usize];
                assert!(s.live, "bucket {j} holds dead slot {slot}");
                assert_eq!(s.bucket as usize, j);
                assert_eq!(s.pos as usize, pos);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The journal-patched materialization
// ---------------------------------------------------------------------------

/// Weight-bucket universe of [`DeltaDss`]: `⌊log2 w⌋ ∈ 0..64`.
const W_BUCKETS: usize = 64;

/// The **incrementally maintainable** DSS materialization: items grouped by
/// `⌊log2 w⌋` with the shared denominator `W(α, β)` factored out, in the
/// spirit of the bucket structures Yi, Wang & Wei (ODSS) and Huang & Wang
/// (*Subset Sampling and Its Extensions*) maintain under single-item
/// updates.
///
/// The original materialization bucketed items by their *probability*
/// `p_x = w_x / W` — and since every DPSS update moves the shared `W`, every
/// stored probability went stale at once, forcing the Θ(n) rebuild the
/// ROADMAP's mixed-regime item names. Bucketing by **weight** instead makes
/// the structure `W`-independent: a [`pss_core::Delta`] touches exactly the
/// slots it names ([`DeltaDss::apply`] — an O(log) position search plus a
/// sorted-bucket `u32` memmove, worst case the bucket's length when all
/// weights share one `⌊log2 w⌋` class, still far below the per-item
/// rational arithmetic of the Θ(n) rebuild it replaces), and the
/// denominator is one [`Ratio`] refreshed per catch-up. Exactness is
/// unchanged — for bucket `j` (weights in `[2^j, 2^{j+1})`) the query walk
/// uses the majorizer `q_j = min(2^{j+1}/W, 1)` and accepts each B-Geo
/// candidate with `p_x/q_j = w_x/2^{j+1}`, in which `W` cancels.
///
/// **Canonical layout.** Bucket lists are kept sorted by slot index, so the
/// structure a context patches forward is *bit-identical* to one
/// materialized from scratch ([`DeltaDss::build_from`] pushes slots in
/// ascending order) — pinned by the suite's churn test, which is what lets
/// the delta path claim the exact sampling law of the rebuild path.
#[derive(Debug, Clone)]
pub struct DeltaDss {
    /// Last known weight per store slot (stale in dead slots).
    weights: Vec<u64>,
    /// Liveness per slot.
    live: Vec<bool>,
    /// `buckets[j]` lists live slots with `⌊log2 w⌋ = j`, ascending.
    buckets: Vec<Vec<u32>>,
    /// Non-empty bucket indices (Fact 2.1 structure).
    nonempty: BitsetList,
    /// Live items with positive weight.
    n_pos: usize,
}

impl Default for DeltaDss {
    fn default() -> Self {
        Self::new()
    }
}

impl DeltaDss {
    /// Empty materialization.
    pub fn new() -> Self {
        DeltaDss {
            weights: Vec::new(),
            live: Vec::new(),
            buckets: vec![Vec::new(); W_BUCKETS],
            nonempty: BitsetList::new(W_BUCKETS),
            n_pos: 0,
        }
    }

    /// Θ(n) from-scratch materialization (the fallback path): canonical by
    /// construction — slots are visited in ascending order, so every bucket
    /// list comes out sorted. Returns the structure and the number of live
    /// items materialized.
    pub fn build_from(store: &Store) -> (Self, u64) {
        let mut dss = DeltaDss::new();
        let slots = store.slot_count();
        dss.weights = vec![0; slots];
        dss.live = vec![false; slots];
        let mut built = 0u64;
        for (h, w) in store.iter_live() {
            let slot = Store::slot(h);
            dss.weights[slot] = w;
            dss.live[slot] = true;
            built += 1;
            if w > 0 {
                let j = floor_log2_u64(w) as usize;
                if dss.buckets[j].is_empty() {
                    dss.nonempty.insert(j);
                }
                dss.buckets[j].push(slot as u32);
                dss.n_pos += 1;
            }
        }
        (dss, built)
    }

    /// Live items with positive weight.
    pub fn n_positive(&self) -> usize {
        self.n_pos
    }

    /// Patches one journaled delta into the structure, preserving the
    /// canonical (sorted) bucket layout. Returns the number of item slots
    /// touched (1 for the single-item deltas, the live count for
    /// [`Delta::ScaledAll`]). [`Delta::Rebuilt`] never reaches a replayer —
    /// the journal converts it into a `TooOld` fallback — so it is rejected
    /// loudly here.
    pub fn apply(&mut self, delta: &Delta) -> u64 {
        match *delta {
            Delta::Inserted { handle, weight } => {
                let slot = Store::slot(handle);
                if slot >= self.weights.len() {
                    self.weights.resize(slot + 1, 0);
                    self.live.resize(slot + 1, false);
                }
                debug_assert!(!self.live[slot], "insert into live slot");
                self.weights[slot] = weight;
                self.live[slot] = true;
                if weight > 0 {
                    self.attach(slot as u32, weight);
                }
                1
            }
            Delta::Deleted { handle } => {
                let slot = Store::slot(handle);
                debug_assert!(self.live[slot], "delete of dead slot");
                if self.weights[slot] > 0 {
                    self.detach(slot as u32, self.weights[slot]);
                }
                self.live[slot] = false;
                1
            }
            Delta::Reweighted { handle, old, new } => {
                let slot = Store::slot(handle);
                debug_assert!(self.live[slot], "reweight of dead slot");
                debug_assert_eq!(self.weights[slot], old, "reweight from unexpected weight");
                self.weights[slot] = new;
                let old_bucket = (old > 0).then(|| floor_log2_u64(old));
                let new_bucket = (new > 0).then(|| floor_log2_u64(new));
                if old_bucket != new_bucket {
                    if old_bucket.is_some() {
                        self.detach(slot as u32, old);
                    }
                    if new_bucket.is_some() {
                        self.attach(slot as u32, new);
                    }
                }
                1
            }
            Delta::ScaledAll { num, den } => self.scale_all(num, den),
            Delta::Rebuilt => unreachable!("catch_up never replays across a rebuild"),
        }
    }

    /// Inserts `slot` into the bucket of `w > 0` at its sorted position.
    fn attach(&mut self, slot: u32, w: u64) {
        let j = floor_log2_u64(w) as usize;
        let b = &mut self.buckets[j];
        let pos = b.partition_point(|&s| s < slot);
        b.insert(pos, slot);
        if b.len() == 1 {
            self.nonempty.insert(j);
        }
        self.n_pos += 1;
    }

    /// Removes `slot` from the bucket of `w > 0`, keeping the order.
    fn detach(&mut self, slot: u32, w: u64) {
        let j = floor_log2_u64(w) as usize;
        let b = &mut self.buckets[j];
        let pos = b.partition_point(|&s| s < slot);
        debug_assert!(b.get(pos) == Some(&slot), "slot missing from its bucket");
        b.remove(pos);
        if b.is_empty() {
            self.nonempty.remove(j);
        }
        self.n_pos -= 1;
    }

    /// Applies one global decay `w → ⌊w·num/den⌋` (see
    /// [`pss_core::scale_weight`]) by re-deriving every live slot's bucket in
    /// one ascending integer pass — O(n) slot touches but *no* rational
    /// arithmetic, and the ascending order keeps the layout canonical.
    /// Consecutive scales compound exactly like the store's own sequential
    /// floors (floors do not commute, so order matters). Returns slots
    /// touched.
    fn scale_all(&mut self, num: u32, den: u32) -> u64 {
        for b in &mut self.buckets {
            b.clear();
        }
        self.nonempty.reset(W_BUCKETS);
        self.n_pos = 0;
        let mut touched = 0u64;
        for slot in 0..self.weights.len() {
            if !self.live[slot] {
                continue;
            }
            touched += 1;
            let w = pss_core::scale_weight(self.weights[slot], num, den);
            self.weights[slot] = w;
            if w > 0 {
                let j = floor_log2_u64(w) as usize;
                if self.buckets[j].is_empty() {
                    self.nonempty.insert(j);
                }
                self.buckets[j].push(slot as u32);
                self.n_pos += 1;
            }
        }
        touched
    }

    /// Draws one subset under DPSS semantics with denominator `w_total`:
    /// each live item `x` included independently with probability exactly
    /// `min(w_x / w_total, 1)` (`w_total = 0` means every positive-weight
    /// item is certain, the workspace-wide convention). Expected time
    /// `O(B + μ)` with `B ≤ 64` non-empty weight buckets. Returns store slot
    /// indices; coins come from `rng` only, so the output is a pure function
    /// of `(structure, w_total, stream)`.
    pub fn sample<R: RngCore>(&self, rng: &mut R, w_total: &Ratio) -> Vec<u32> {
        let mut out = Vec::new();
        let mut j_opt = self.nonempty.min();
        while let Some(j) = j_opt {
            self.sample_bucket(rng, w_total, j, &mut out);
            j_opt = self.nonempty.succ(j + 1);
        }
        out
    }

    /// Majorizer walk over weight bucket `j`: candidates at
    /// `B-Geo(2^{j+1}/W)` strides, each accepted with the residual
    /// `Ber(w_x/2^{j+1})` — the shared denominator cancels out of the
    /// acceptance, which is exactly why this structure can survive `W`
    /// moving under it.
    fn sample_bucket<R: RngCore>(
        &self,
        rng: &mut R,
        w_total: &Ratio,
        j: usize,
        out: &mut Vec<u32>,
    ) {
        let bucket = &self.buckets[j];
        let n_j = bucket.len() as u64;
        if w_total.is_zero() {
            out.extend_from_slice(bucket);
            return;
        }
        let cap = BigUint::pow2(j as u64 + 1);
        let q = Ratio::new(cap.mul(w_total.den()), w_total.num().clone());
        if q.cmp_int(1) != Ordering::Less {
            // 2^{j+1} ≥ W: probabilities in this bucket are ≥ 1/2 (possibly
            // clamped at 1) — flip every item directly, output-charged.
            for &slot in bucket {
                let num = BigUint::from_u64(self.weights[slot as usize]).mul(w_total.den());
                if ber_rational_parts(rng, &num, w_total.num()) {
                    out.push(slot);
                }
            }
            return;
        }
        let mut k = bgeo(rng, &q, n_j + 1);
        while k <= n_j {
            let slot = bucket[(k - 1) as usize];
            // Accept with p_x/q_j = w_x/2^{j+1} < 1 (w_x < 2^{j+1} in bucket j).
            let num = BigUint::from_u64(self.weights[slot as usize]);
            if ber_rational_parts(rng, &num, &cap) {
                out.push(slot);
            }
            k += bgeo(rng, &q, n_j + 1);
        }
    }

    /// Checks every structural invariant against `store`, including the
    /// canonical sorted order; panics on violation. Test hook.
    pub fn validate(&self, store: &Store) {
        let mut n_pos = 0usize;
        for slot in 0..self.weights.len().max(store.slot_count()) {
            let expect = store.weight_at(slot);
            let got = self.live.get(slot).copied().unwrap_or(false);
            assert_eq!(expect.is_some(), got, "slot {slot}: liveness drift");
            if let Some(w) = expect {
                assert_eq!(self.weights[slot], w, "slot {slot}: weight drift");
                if w > 0 {
                    n_pos += 1;
                }
            }
        }
        assert_eq!(self.n_pos, n_pos, "positive count drift");
        for (j, b) in self.buckets.iter().enumerate() {
            assert_eq!(!b.is_empty(), self.nonempty.contains(j), "bucket {j}: bitset drift");
            assert!(b.windows(2).all(|w| w[0] < w[1]), "bucket {j}: order not canonical");
            for &slot in b {
                let w = self.weights[slot as usize];
                assert!(self.live[slot as usize] && w > 0, "bucket {j}: ghost slot {slot}");
                assert_eq!(floor_log2_u64(w) as usize, j, "slot {slot}: wrong bucket");
            }
        }
    }

    /// Words of storage.
    pub fn space_words(&self) -> usize {
        self.weights.capacity()
            + self.live.capacity().div_ceil(64)
            + self.buckets.iter().map(|b| b.capacity().div_ceil(2) + 1).sum::<usize>()
            + self.nonempty.space_words()
            + 2
    }
}

/// Semantic equality: same live items at the same weights in the same
/// canonical bucket layout. Stale weights in dead slots (and trailing dead
/// slots one side has never seen) are not part of the identity.
impl PartialEq for DeltaDss {
    fn eq(&self, other: &Self) -> bool {
        if self.n_pos != other.n_pos || self.buckets != other.buckets {
            return false;
        }
        let live_eq = |a: &DeltaDss, b: &DeltaDss| {
            a.live.iter().enumerate().all(|(slot, &alive)| {
                !alive
                    || (b.live.get(slot).copied().unwrap_or(false)
                        && a.weights[slot] == b.weights[slot])
            })
        };
        live_eq(self, other) && live_eq(other, self)
    }
}

impl Eq for DeltaDss {}

// ---------------------------------------------------------------------------
// ODSS driven incrementally through the journal
// ---------------------------------------------------------------------------

/// A DSS structure in the style of Yi et al.'s ODSS, driven **incrementally**
/// under DPSS semantics through the epoch-delta change journal.
///
/// The materialization — a weight-bucketed [`DeltaDss`] with the shared
/// denominator `W(α, β)` factored out — lives in the caller's [`QueryCtx`],
/// keyed by this structure's instance id and stamped with the journal epoch
/// it reflects. A query first catches the context up
/// ([`pss_core::ChangeJournal::catch_up`]):
///
/// - no movement → the structure is reused as-is;
/// - a delta replay → only the items the deltas name are re-bucketed,
///   **O(deltas)** instead of a Θ(n) rebuild per update;
/// - a lost window (ring wrap) → Θ(n) fallback rebuild, counted in
///   [`OdssStyle::fallbacks`].
///
/// Parameter changes are not rebuilds at all: the bucketing is
/// `W`-independent, so new `(α, β)` just recomputes one rational. Queries
/// stay output-sensitive (`B-Geo` jumps inside each non-empty weight
/// bucket) and exact — each item is included with probability exactly
/// `min(w_x/W, 1)`, see [`DeltaDss::sample`].
pub type OdssStyle = Baseline<DeltaBuckets>;

/// [`OdssStyle`]'s strategy and its cost counters.
#[derive(Debug, Default)]
pub struct DeltaBuckets {
    /// Θ(n) materializations across all contexts (first builds + fallbacks).
    rebuilds: AtomicU64,
    /// Θ(n) rebuilds forced by a lost replay window (ring wrap).
    fallbacks: AtomicU64,
    /// Delta catch-ups applied (each one replaced a would-be Θ(n) rebuild).
    replays: AtomicU64,
    /// Items whose bucket was recomputed by full materializations.
    rematerialized: AtomicU64,
    /// Item slots touched by delta patches (the O(deltas) work).
    patched: AtomicU64,
}

/// One context's materialization slot for an [`OdssStyle`]: `None` until
/// the first query builds it (an explicit option, not an epoch sentinel).
#[derive(Debug, Default)]
struct OdssMat {
    built: Option<OdssBuilt>,
}

/// A built materialization: the weight-bucketed structure plus the cached
/// denominator of the most recent parameters.
#[derive(Debug)]
struct OdssBuilt {
    /// Journal epoch the structure reflects.
    journal_epoch: u64,
    /// Parameters `w` was computed for.
    params: (Ratio, Ratio),
    /// `W(α, β)` at `journal_epoch` — the only parameter-dependent state.
    w: Ratio,
    dss: DeltaDss,
}

impl QueryStrategy for DeltaBuckets {
    const NAME: &'static str = "odss-style";
    const KIND: u16 = kind::ODSS_STYLE;
    const DELTA_RING: bool = true;

    fn query_into(
        base: &OdssStyle,
        ctx: &mut QueryCtx,
        alpha: &Ratio,
        beta: &Ratio,
        out: &mut Vec<Handle>,
    ) {
        let (rng, mat) = ctx.state(base.instance, OdssMat::default);
        base.catch_up_mat(mat, alpha, beta);
        let built = mat.built.as_ref().expect("caught up above");
        out.extend(
            built.dss.sample(rng, &built.w).into_iter().map(|s| base.store.handle_at(s as usize)),
        );
    }

    fn materialization_words(store: &Store) -> usize {
        // Weights + liveness + bucket entries of one n-slot image.
        store.slot_count() * 2 + store.len().div_ceil(2)
    }
}

impl OdssStyle {
    /// Θ(n) materializations performed so far (first builds + fallbacks).
    pub fn rebuilds(&self) -> u64 {
        self.strategy.rebuilds.load(AtomicOrdering::Relaxed)
    }

    /// Θ(n) fallbacks forced by a lost replay window.
    pub fn fallbacks(&self) -> u64 {
        self.strategy.fallbacks.load(AtomicOrdering::Relaxed)
    }

    /// Delta catch-ups applied so far.
    pub fn replays(&self) -> u64 {
        self.strategy.replays.load(AtomicOrdering::Relaxed)
    }

    /// Items recomputed by full materializations so far.
    pub fn rematerialized(&self) -> u64 {
        self.strategy.rematerialized.load(AtomicOrdering::Relaxed)
    }

    /// Item slots touched by delta patches so far.
    pub fn patched(&self) -> u64 {
        self.strategy.patched.load(AtomicOrdering::Relaxed)
    }

    /// A clone of this structure's materialization inside `ctx`, if that
    /// context has built one (test/diagnostic hook — the churn suite
    /// compares a delta-patched context's structure bit-for-bit against a
    /// from-scratch one).
    pub fn materialization(&self, ctx: &QueryCtx) -> Option<DeltaDss> {
        ctx.state_ref::<OdssMat>(self.instance)
            .and_then(|m| m.built.as_ref())
            .map(|b| b.dss.clone())
    }

    /// Validates `ctx`'s materialization (bucket layout, weights, liveness,
    /// canonical order) against the backing store; panics on violation, or
    /// if the context has none. Test hook.
    pub fn validate_materialization(&self, ctx: &QueryCtx) {
        let mat = ctx
            .state_ref::<OdssMat>(self.instance)
            .and_then(|m| m.built.as_ref())
            .expect("context has no materialization to validate");
        mat.dss.validate(&self.store);
    }

    /// Brings `mat` to the journal's current epoch: reuse, O(deltas) patch,
    /// or Θ(n) fallback — then refreshes the cached denominator if either
    /// the structure or the parameters moved.
    fn catch_up_mat(&self, mat: &mut OdssMat, alpha: &Ratio, beta: &Ratio) {
        let epoch = self.journal.epoch();
        let Some(built) = &mut mat.built else {
            mat.built = Some(self.build_mat(alpha, beta, epoch));
            return;
        };
        match self.journal.catch_up(built.journal_epoch) {
            Replay::UpToDate => {}
            Replay::Deltas(deltas) => {
                let mut touched = 0u64;
                for delta in deltas {
                    touched += built.dss.apply(delta);
                }
                self.strategy.replays.fetch_add(1, AtomicOrdering::Relaxed);
                self.strategy.patched.fetch_add(touched, AtomicOrdering::Relaxed);
                built.journal_epoch = epoch;
                // The item set moved, so the cached denominator did too.
                built.w = self.store.param_weight(alpha, beta);
                built.params = (alpha.clone(), beta.clone());
                return;
            }
            Replay::TooOld => {
                self.strategy.fallbacks.fetch_add(1, AtomicOrdering::Relaxed);
                mat.built = Some(self.build_mat(alpha, beta, epoch));
                return;
            }
        }
        if built.params.0 != *alpha || built.params.1 != *beta {
            // New parameters are *not* a rebuild: the weight buckets are
            // W-independent — one rational recomputation suffices.
            built.w = self.store.param_weight(alpha, beta);
            built.params = (alpha.clone(), beta.clone());
        }
    }

    /// Θ(n) from-scratch materialization (first build or fallback).
    fn build_mat(&self, alpha: &Ratio, beta: &Ratio, epoch: u64) -> OdssBuilt {
        self.strategy.rebuilds.fetch_add(1, AtomicOrdering::Relaxed);
        let (dss, built) = DeltaDss::build_from(&self.store);
        self.strategy.rematerialized.fetch_add(built, AtomicOrdering::Relaxed);
        OdssBuilt {
            journal_epoch: epoch,
            params: (alpha.clone(), beta.clone()),
            w: self.store.param_weight(alpha, beta),
            dss,
        }
    }
}

// ---------------------------------------------------------------------------
// ODSS under DPSS semantics
// ---------------------------------------------------------------------------

/// The ODSS structure driven with **DPSS semantics**: probabilities
/// `p_x = min(w(x)/W(α,β), 1)` are materialized into an [`OdssDss`] living in
/// the caller's [`QueryCtx`], and any update (or parameter change) forces a
/// Θ(n) re-materialization because the shared denominator `W` moved — the
/// stored probabilities are *absolute*, so no delta replay can save them.
/// This backend deliberately stays on that path: it **measures** the
/// DSS-under-DPSS penalty the paper's introduction identifies (the
/// incremental, journal-patched foil is [`OdssStyle`]).
/// [`OdssUnderDpss::rematerialized`] accumulates the penalty that experiment
/// E5 reports.
///
/// Staleness detection compares the journal's version alone (any movement
/// means rebuild), so its journal keeps no delta ring; a context that has
/// never built is an explicit [`Option`], not an epoch sentinel.
///
/// Query coins are drawn from the context's stream via
/// [`OdssDss::query_with`], so sharded batches over this backend are a pure
/// function of the per-index derived streams, like every other backend.
pub type OdssUnderDpss = Baseline<AbsoluteBuckets>;

/// [`OdssUnderDpss`]'s strategy and its cost counters.
#[derive(Debug, Default)]
pub struct AbsoluteBuckets {
    /// Total items whose probability was recomputed across all rebuilds.
    rematerialized: AtomicU64,
    /// Number of Θ(n) rebuilds performed.
    rebuilds: AtomicU64,
}

/// One context's materialization slot for an [`OdssUnderDpss`]: `None`
/// until the first query builds it.
#[derive(Debug, Default)]
struct DssMat {
    built: Option<BuiltMat>,
}

/// A built inner DSS, stamped with the journal epoch it reflects.
#[derive(Debug)]
struct BuiltMat {
    journal_epoch: u64,
    params: (Ratio, Ratio),
    inner: OdssDss<SmallRng>,
    /// Maps inner DSS handles back to store slots.
    dss_to_store: Vec<u32>,
}

impl QueryStrategy for AbsoluteBuckets {
    const NAME: &'static str = "odss-dss";
    const KIND: u16 = kind::ODSS_UNDER_DPSS;
    const DELTA_RING: bool = false;

    fn query_into(
        base: &OdssUnderDpss,
        ctx: &mut QueryCtx,
        alpha: &Ratio,
        beta: &Ratio,
        out: &mut Vec<Handle>,
    ) {
        let (rng, mat) = ctx.state(base.instance, DssMat::default);
        // Absolute probabilities cannot be delta-patched: any journal
        // movement, or new parameters, means rebuild.
        let stale = mat.built.as_ref().is_none_or(|built| {
            built.journal_epoch != base.journal.epoch()
                || built.params.0.cmp(alpha) != Ordering::Equal
                || built.params.1.cmp(beta) != Ordering::Equal
        });
        if stale {
            mat.built = Some(base.materialize(alpha, beta));
        }
        let built = mat.built.as_mut().expect("materialized above");
        let sampled = built.inner.query_with(rng);
        out.extend(
            sampled
                .into_iter()
                .map(|h| base.store.handle_at(built.dss_to_store[h as usize] as usize)),
        );
    }

    fn materialization_words(store: &Store) -> usize {
        // One exact probability per item, coarsely 8 words of shared-
        // denominator limbs each, plus the handle map.
        store.len() * 8 + store.len().div_ceil(2)
    }
}

impl OdssUnderDpss {
    /// Θ(n): builds an inner DSS with the probabilities induced by `(α,β)`.
    fn materialize(&self, alpha: &Ratio, beta: &Ratio) -> BuiltMat {
        self.strategy.rebuilds.fetch_add(1, AtomicOrdering::Relaxed);
        // Fresh inner structure; its internal RNG is never drawn from (all
        // query coins come from the caller's context via `query_with`).
        let mut inner = OdssDss::new(0);
        let mut dss_to_store = Vec::new();
        let w = self.store.param_weight(alpha, beta);
        let mut rebuilt = 0u64;
        for (h, wx) in self.store.iter_live() {
            if wx == 0 {
                continue;
            }
            rebuilt += 1;
            let p = if w.is_zero() {
                Ratio::one()
            } else {
                Ratio::new(BigUint::from_u64(wx).mul(w.den()), w.num().clone()).min_one()
            };
            let dh = inner.insert(p);
            debug_assert_eq!(dh as usize, dss_to_store.len());
            dss_to_store.push(Store::slot(h) as u32);
        }
        self.strategy.rematerialized.fetch_add(rebuilt, AtomicOrdering::Relaxed);
        BuiltMat {
            journal_epoch: self.journal.epoch(),
            params: (alpha.clone(), beta.clone()),
            inner,
            dss_to_store,
        }
    }

    /// Re-materializations performed so far.
    pub fn rebuilds(&self) -> u64 {
        self.strategy.rebuilds.load(AtomicOrdering::Relaxed)
    }

    /// Items whose probability was recomputed so far.
    pub fn rematerialized(&self) -> u64 {
        self.strategy.rematerialized.load(AtomicOrdering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use randvar::stats::binomial_z;

    #[test]
    fn bucket_of_boundaries() {
        // p = 1 → bucket 0; p ∈ (1/2, 1] → 0; p = 1/2 → 1; p = 1/4 → 2.
        assert_eq!(bucket_of(&Ratio::one()), 0);
        assert_eq!(bucket_of(&Ratio::from_u64s(3, 4)), 0);
        assert_eq!(bucket_of(&Ratio::from_u64s(1, 2)), 1);
        assert_eq!(bucket_of(&Ratio::from_u64s(1, 4)), 2);
        // Just above 1/4 is still bucket 1 (p ∈ (1/4, 1/2]).
        assert_eq!(bucket_of(&Ratio::from_u64s(257, 1024)), 1);
        assert_eq!(bucket_of(&Ratio::zero()), NO_BUCKET);
    }

    #[test]
    fn bucket_of_tail_clamps() {
        let tiny = Ratio::new(BigUint::one(), BigUint::pow2(100));
        assert_eq!(bucket_of(&tiny), TAIL_EXP as u8);
    }

    #[test]
    fn insert_delete_roundtrip_and_validate() {
        let mut s = OdssDss::new(1);
        let h1 = s.insert(Ratio::from_u64s(1, 3));
        let h2 = s.insert(Ratio::from_u64s(1, 3));
        let h3 = s.insert(Ratio::from_u64s(7, 8));
        s.validate();
        assert_eq!(s.len(), 3);
        assert!(s.delete(h2));
        assert!(!s.delete(h2), "double delete must fail");
        s.validate();
        assert_eq!(s.len(), 2);
        assert!(s.prob(h1).is_some());
        assert!(s.prob(h3).is_some());
        assert!(s.prob(h2).is_none());
    }

    #[test]
    fn update_cost_is_constant_per_op() {
        let mut s = OdssDss::new(2);
        let mut handles = Vec::new();
        for i in 1..=1000u64 {
            handles.push(s.insert(Ratio::from_u64s(1, i + 1)));
        }
        assert_eq!(s.update_moves, 1000, "exactly one move per insert");
        for h in handles {
            s.delete(h);
        }
        assert_eq!(s.update_moves, 2000, "exactly one move per delete");
    }

    #[test]
    fn set_prob_keeps_handle_and_rebuckets() {
        let mut s = OdssDss::new(3);
        let h = s.insert(Ratio::from_u64s(1, 2));
        assert!(s.set_prob(h, Ratio::from_u64s(1, 64)));
        s.validate();
        assert_eq!(s.prob(h).unwrap().cmp(&Ratio::from_u64s(1, 64)), Ordering::Equal);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn p_one_always_sampled_p_zero_never() {
        let mut s = OdssDss::new(4);
        let always = s.insert(Ratio::one());
        let never = s.insert(Ratio::zero());
        for _ in 0..200 {
            let t = s.query();
            assert!(t.contains(&always));
            assert!(!t.contains(&never));
        }
    }

    #[test]
    fn marginals_across_buckets() {
        let mut s = OdssDss::new(5);
        let probs = [
            Ratio::from_u64s(9, 10),   // bucket 0
            Ratio::from_u64s(1, 3),    // bucket 1
            Ratio::from_u64s(1, 17),   // bucket 4
            Ratio::from_u64s(1, 1000), // bucket 9
        ];
        let handles: Vec<u64> = probs.iter().map(|p| s.insert(p.clone())).collect();
        let trials = 60_000u64;
        let mut hits = vec![0u64; handles.len()];
        for _ in 0..trials {
            for h in s.query() {
                hits[handles.iter().position(|&x| x == h).unwrap()] += 1;
            }
        }
        for (i, p) in probs.iter().enumerate() {
            let z = binomial_z(hits[i], trials, p.to_f64_lossy());
            assert!(z.abs() < 5.0, "item {i}: z = {z}");
        }
    }

    #[test]
    fn marginals_tiny_probability_tail_bucket() {
        let mut s = OdssDss::new(6);
        // p = 2^-70 lands in the tail bucket; over 3·10^5 trials the expected
        // hit count is ≈ 0 — assert it never exceeds a generous cap.
        let tiny = s.insert(Ratio::new(BigUint::one(), BigUint::pow2(70)));
        let mut hits = 0;
        for _ in 0..300_000 {
            if s.query().contains(&tiny) {
                hits += 1;
            }
        }
        assert!(hits <= 2, "p=2^-70 item sampled {hits} times");
    }

    #[test]
    fn expected_sample_size_matches_sum() {
        let mut s = OdssDss::new(7);
        s.insert(Ratio::from_u64s(1, 2));
        s.insert(Ratio::from_u64s(1, 4));
        s.insert(Ratio::one());
        assert!((s.expected_sample_size() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn dense_bucket_walk_is_exhaustive() {
        // 64 items at p = 1/2: E[|T|] = 32; check CLT bounds and that the
        // majorizer walk can return every item.
        let mut s = OdssDss::new(8);
        for _ in 0..64 {
            s.insert(Ratio::from_u64s(1, 2));
        }
        let mut total = 0u64;
        let trials = 5_000;
        for _ in 0..trials {
            total += s.query().len() as u64;
        }
        let mean = total as f64 / trials as f64;
        assert!((mean - 32.0).abs() < 0.5, "mean sample size {mean}");
    }

    #[test]
    fn odss_under_dpss_marginals_and_rebuild_accounting() {
        let mut o = OdssUnderDpss::new(9);
        let mut ctx = QueryCtx::new(9);
        let weights = [1u64, 5, 25, 125, 625];
        let handles: Vec<Handle> = weights.iter().map(|&w| o.insert(w)).collect();
        let total: u128 = weights.iter().map(|&w| w as u128).sum();
        let a = Ratio::one();
        let b = Ratio::zero();

        let trials = 40_000u64;
        let mut hits = vec![0u64; handles.len()];
        for _ in 0..trials {
            for h in o.query(&mut ctx, &a, &b) {
                hits[handles.iter().position(|&x| x == h).unwrap()] += 1;
            }
        }
        for (i, &w) in weights.iter().enumerate() {
            let z = binomial_z(hits[i], trials, w as f64 / total as f64);
            assert!(z.abs() < 5.0, "item {i}: z = {z}");
        }
        // Repeated same-parameter queries through one context must NOT
        // rebuild.
        assert_eq!(o.rebuilds(), 1);
        assert_eq!(o.rematerialized(), 5);

        // One update forces a full Θ(n) re-materialization at next query.
        o.insert(3125);
        let _ = o.query(&mut ctx, &a, &b);
        assert_eq!(o.rebuilds(), 2);
        assert_eq!(o.rematerialized(), 5 + 6);

        // A reweight moves W too: the materialization is stale again.
        let h0 = handles[0];
        assert_eq!(o.set_weight(h0, 2), Some(h0), "store-native reweight keeps the handle");
        let _ = o.query(&mut ctx, &a, &b);
        assert_eq!(o.rebuilds(), 3);
    }

    #[test]
    fn odss_under_dpss_clamped_heavy_item() {
        let mut o = OdssUnderDpss::new(10);
        let mut ctx = QueryCtx::new(10);
        o.insert(1);
        let heavy = o.insert(u64::MAX / 2);
        // β makes W small ⇒ heavy item clamps at p = 1.
        let t = o.query(&mut ctx, &Ratio::zero(), &Ratio::from_int(10));
        assert!(t.contains(&heavy));
    }

    #[test]
    fn query_with_matches_query_law_and_leaves_inner_rng_alone() {
        // query_with draws only from the supplied stream: two equal streams
        // produce identical samples regardless of the inner RNG's state.
        use rand::SeedableRng;
        let build = || {
            let mut s = OdssDss::new(77);
            for i in 1..=20u64 {
                s.insert(Ratio::from_u64s(1, i + 1));
            }
            s
        };
        let (mut s1, mut s2) = (build(), build());
        let _ = s1.query(); // perturb s1's internal rng only
        let mut r1 = SmallRng::seed_from_u64(5);
        let mut r2 = SmallRng::seed_from_u64(5);
        for _ in 0..50 {
            assert_eq!(s1.query_with(&mut r1), s2.query_with(&mut r2));
        }
    }

    #[test]
    fn slot_reuse_after_delete() {
        let mut s = OdssDss::new(11);
        let h = s.insert(Ratio::from_u64s(1, 2));
        s.delete(h);
        let h2 = s.insert(Ratio::from_u64s(1, 8));
        assert_eq!(h, h2, "freed slot must be recycled");
        s.validate();
    }
}
