//! # pss-core — the backend facade of the DPSS suite
//!
//! Bottom-of-stack crate owning the uniform interface through which every
//! parameterized-subset-sampling structure in this workspace is driven: the
//! HALT sampler of *Optimal Dynamic Parameterized Subset Sampling* (Gan,
//! Umboh, Wang, Wirth, Zhang — PODS 2024), its de-amortized variant, the
//! naive baselines, and the ODSS-style comparison structure of *Optimal
//! Dynamic Subset Sampling* (Yi, Wang, Wei).
//!
//! Layering: `pss-core` sits directly above `bignum`/`wordram` (plus the
//! `rand` shim for the context RNG) and below every sampler crate, so
//! `workloads`, `graphsub`, `bench`, and the integration suite can depend on
//! the *interface* without depending on any particular sampler. Concrete
//! structures implement [`PssBackend`] in their own crates (`dpss`,
//! `baselines`); this crate defines:
//!
//! - [`PssBackend`]: fallible `&mut self` updates (each backend writes
//!   [`PssBackend::try_insert`] and [`PssBackend::try_delete`], and may
//!   override the provided batch and reweight; the panicking `insert`,
//!   `delete`, `set_weight` and `insert_many` are provided wrappers over
//!   them), **`&self` queries** with an explicit [`QueryCtx`] holding all
//!   read-path mutable state, written into a caller's buffer by
//!   [`PssBackend::query_into`], and the dense [`PssBackend::slot`] of each
//!   handle for slot-indexed side tables;
//! - [`OpError`]: why a fallible update refused to run (a poisoned backend
//!   or an injected fault);
//! - [`QueryCtx`]: the caller-owned context (RNG stream + per-backend plan
//!   caches/memoizations) that makes shared-read queries possible, and
//!   whose per-index batch streams ([`stream_seed`]) make a `query_many`
//!   batch's answers independent of the order and the thread that compute
//!   them;
//! - [`ChangeJournal`]: the version a backend bumps on its update path
//!   plus, where its readers patch from them, a bounded epoch-stamped ring
//!   of fine-grained [`Delta`]s, with the [`ChangeJournal::catch_up`]
//!   revalidation API through which per-context read-path state patches
//!   itself forward in O(deltas) instead of rebuilding Θ(n);
//! - [`Handle`]: the opaque item identifier shared by every backend;
//! - [`SeedableBackend`]: the uniform seeding surface (deterministic
//!   construction from a `u64` seed);
//! - [`SpaceUsage`] (re-exported from `wordram`): the paper's word-granularity
//!   space measure, a supertrait of [`PssBackend`];
//! - [`Store`]: the shared slot-based item store the baselines are built on,
//!   with generational handles (stale ones are rejected), native in-place
//!   [`Store::set_weight`] and the one-op decay [`Store::scale_all`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// pss-lint: allow-file(no-bare-index) — the reference backend indexes parallel weight/live vectors by handles it validated against live.len() on entry

use bignum::{BigUint, Ratio};
use wordram::narrow;

mod ctx;
pub mod fault;
mod journal;
mod snapshot;

pub use ctx::{fresh_backend_id, stream_seed, CtxRng, QueryCtx};
pub use journal::{ChangeJournal, Delta, DeltaReplay, Replay, DEFAULT_JOURNAL_CAPACITY};
pub use snapshot::{
    kind, recover, Dec, Enc, RecoverError, SnapshotError, SnapshotReader, SnapshotWriter,
    Snapshottable, FORMAT_VERSION, MAGIC,
};
pub use wordram::SpaceUsage;

/// The decayed weight `⌊w·num/den⌋` of one global weight scale — the single
/// definition every producer (native [`Store::scale_all`], the workload
/// replayers' per-item fallback) shares, so journaled `ScaledAll` deltas and
/// tracked weights agree bit for bit. The product is widened to 128 bits and
/// the result saturates at `u64::MAX`, so a hand-built amplifying factor
/// (`num > den` — generators never emit one, and this helper debug-asserts
/// against it) clamps loudly instead of silently wrapping.
pub fn scale_weight(w: u64, num: u32, den: u32) -> u64 {
    debug_assert!(den >= 1 && (1..=den).contains(&num), "scale factor must be in (0, 1]");
    u64::try_from((w as u128 * num as u128) / den.max(1) as u128).unwrap_or(u64::MAX)
}

/// Opaque identifier of a live item inside a [`PssBackend`].
///
/// Handles are only meaningful to the backend that issued them, and only
/// until that backend deletes the item. The `u64` payload is exposed for
/// serialization, not for interpretation: each backend packs it its own way
/// (HALT and [`Store`] put a generation above the slot index), so a caller that wants a
/// dense index to address side tables by reads it only through
/// [`PssBackend::slot`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Handle(u64);

impl Handle {
    /// Reconstructs a handle from its raw payload.
    pub const fn from_raw(raw: u64) -> Self {
        Handle(raw)
    }

    /// The raw payload.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for Handle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Why a fallible update (`try_insert` & co.) refused to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpError {
    /// A previous `&mut` update unwound mid-cascade: the hierarchy may be
    /// half-cascaded, so every subsequent update is refused until the caller
    /// recovers from a snapshot (the journal stays readable for that).
    Poisoned,
    /// An armed failpoint fired (fault-injection builds only). At an entry
    /// site the structure is untouched and stays usable; at a mid-cascade
    /// site the op is torn, so the sampler is additionally poisoned.
    Fault(fault::FaultError),
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpError::Poisoned => write!(f, "sampler poisoned by an earlier torn update"),
            OpError::Fault(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for OpError {}

/// A dynamic parameterized subset sampler: maintains a weighted item set
/// under inserts/deletes and answers PSS queries `(α, β)` in which each live
/// item `x` is included independently with probability
/// `min( w(x) / (α·Σw + β), 1 )`.
///
/// ## Read/write split
///
/// Updates take `&mut self`; **queries take `&self`** plus an explicit
/// [`QueryCtx`] that owns every piece of query-time mutable state (the RNG
/// stream and whatever per-backend scratch the structure wants to reuse —
/// HALT's `(α, β)` plan cache, the ODSS baselines' materialized buckets).
/// Queries mutate nothing in the structure, so independent queries may run
/// concurrently over one shared backend, each thread holding its own
/// context.
///
/// ## The update contract
///
/// Updates are fallible: each returns `Err(`[`OpError`]`)` instead of
/// running on a poisoned backend or past an armed failpoint. A backend
/// writes each update once, as a `try_*` body:
///
/// - required: [`PssBackend::try_insert`] and [`PssBackend::try_delete`];
/// - provided, overridden where the backend has a native form:
///   [`PssBackend::try_insert_many`] (a loop; a journaled backend stamps
///   the batch with one epoch instead) and [`PssBackend::try_set_weight`]
///   (delete, then insert, which changes the handle; an in-place reweight
///   keeps it);
/// - provided, never overridden: [`PssBackend::insert`],
///   [`PssBackend::insert_many`], [`PssBackend::delete`] and
///   [`PssBackend::set_weight`], which `expect` success of the `try_*` op.
///   They panic only where a `try_*` op errs, so a caller that never arms
///   a failpoint and never survives a torn update can use them freely.
///
/// Every sampler in the workspace implements this trait, which is what lets
/// the benches, the workload drivers, and the agreement tests treat HALT, its
/// de-amortized variant, and all baselines as interchangeable `dyn
/// PssBackend` values.
///
/// `Send + Sync` are supertraits: with every piece of query-time mutable
/// state evicted into [`QueryCtx`], a conforming backend is plain shared
/// data, so a caller can hand one `&dyn PssBackend` to its own threads
/// without per-callsite bounds.
pub trait PssBackend: SpaceUsage + Send + Sync {
    /// Inserts an item with the given weight, returning its handle.
    fn try_insert(&mut self, weight: u64) -> Result<Handle, OpError>;

    /// Deletes an item by handle: `Ok(true)` if it was live. A stale handle
    /// — one already deleted, including one whose slot has since been
    /// reissued to a later insert — returns `Ok(false)` and changes nothing.
    fn try_delete(&mut self, handle: Handle) -> Result<bool, OpError>;

    /// Inserts a batch of items, returning their handles in order.
    ///
    /// Semantically identical to calling [`PssBackend::try_insert`] in a
    /// loop, and that is the default, which stops at the first refused item
    /// (the ones before it stay inserted). Backends with a [`ChangeJournal`]
    /// override this to stamp the whole batch with **one** journal epoch
    /// ([`ChangeJournal::record_batch`]) instead of one per item — observers
    /// replay whole batches or nothing, so per-op semantics are unchanged.
    fn try_insert_many(&mut self, weights: &[u64]) -> Result<Vec<Handle>, OpError> {
        weights.iter().map(|&w| self.try_insert(w)).collect()
    }

    /// Changes the weight of a live item, returning its (possibly new)
    /// handle, or `Ok(None)` if the handle was stale (already deleted,
    /// including one whose slot has since been reissued), in which case
    /// nothing changes.
    ///
    /// The default deletes and re-inserts, which *changes the handle* (and
    /// a refused insert leaves the item deleted); structures with native
    /// in-place reweighting (HALT, and every [`Store`]-backed baseline via
    /// [`Store::set_weight`]) override this and keep the handle stable.
    /// Callers that cache handles must always adopt the returned one.
    fn try_set_weight(
        &mut self,
        handle: Handle,
        new_weight: u64,
    ) -> Result<Option<Handle>, OpError> {
        if !self.try_delete(handle)? {
            return Ok(None);
        }
        self.try_insert(new_weight).map(Some)
    }

    /// [`PssBackend::try_insert`], panicking if the backend refuses.
    #[inline]
    fn insert(&mut self, weight: u64) -> Handle {
        // pss-lint: allow(no-panic-paths) — fails only on a poisoned sampler or an armed failpoint; both mean the caller opted into fault-injection semantics and must use try_insert
        self.try_insert(weight).expect("update refused; use try_insert on a fallible path")
    }

    /// [`PssBackend::try_insert_many`], panicking if the backend refuses.
    #[inline]
    fn insert_many(&mut self, weights: &[u64]) -> Vec<Handle> {
        // pss-lint: allow(no-panic-paths) — fails only on a poisoned sampler or an armed failpoint; both mean the caller opted into fault-injection semantics and must use try_insert_many
        self.try_insert_many(weights).expect("update refused; use try_insert_many")
    }

    /// [`PssBackend::try_delete`], panicking if the backend refuses.
    #[inline]
    fn delete(&mut self, handle: Handle) -> bool {
        // pss-lint: allow(no-panic-paths) — fails only on a poisoned sampler or an armed failpoint; both mean the caller opted into fault-injection semantics and must use try_delete
        self.try_delete(handle).expect("update refused; use try_delete on a fallible path")
    }

    /// [`PssBackend::try_set_weight`], panicking if the backend refuses.
    #[inline]
    fn set_weight(&mut self, handle: Handle, new_weight: u64) -> Option<Handle> {
        // pss-lint: allow(no-panic-paths) — fails only on a poisoned sampler or an armed failpoint; both mean the caller opted into fault-injection semantics and must use try_set_weight
        self.try_set_weight(handle, new_weight).expect("update refused; use try_set_weight")
    }

    /// Answers one PSS query with parameters `(α, β)`, drawing randomness
    /// (and any cached read-path state) from `ctx`, and appends the sampled
    /// handles to `out` (whose existing contents are kept).
    ///
    /// This is each backend's one query body. A caller that reuses `out`
    /// across queries pays no allocation once it has grown to the largest
    /// sample: HALT extends it straight from the context's item buffer, so
    /// a warm HALT query into a reused buffer allocates nothing.
    fn query_into(&self, ctx: &mut QueryCtx, alpha: &Ratio, beta: &Ratio, out: &mut Vec<Handle>);

    /// Answers one PSS query with parameters `(α, β)` into a fresh `Vec`:
    /// [`PssBackend::query_into`] an empty one. Same coins, same sample.
    fn query(&self, ctx: &mut QueryCtx, alpha: &Ratio, beta: &Ratio) -> Vec<Handle> {
        let mut out = Vec::new();
        self.query_into(ctx, alpha, beta, &mut out);
        out
    }

    /// The slot `handle` addresses: a dense index a caller can key side
    /// tables by (a `Vec` indexed by slot instead of a map keyed by handle).
    ///
    /// Live handles of one backend have distinct slots, and a slot is below
    /// the number of item records the backend holds, live and recycled — it
    /// is HALT's slab index or a [`Store`] slot. A deleted item's slot may be
    /// reissued to a later insert. Pure decoding: it reads no state, and
    /// answers for stale handles too (the slot they used to address).
    fn slot(&self, handle: Handle) -> usize;

    /// Answers a batch of PSS queries, one independent result per `(α, β)`
    /// pair, in order.
    ///
    /// The default implementation follows the **batch stream discipline**
    /// (see [`QueryCtx`] docs): query `i` runs on an RNG stream derived from
    /// `(ctx seed, batch, i)` alone, so the output is index-deterministic:
    /// a caller that selects the same `(batch, i)` streams itself — for any
    /// subset of the indices, in any order, on any context built from the
    /// same seed (one per thread, say) — gets each index's answer bit for
    /// bit. Overrides may hoist deterministic RNG-free setup out of the loop
    /// (HALT-style structures reuse the per-`(α, β)` plans cached in `ctx`
    /// anyway), but must keep the same per-index stream selection.
    fn query_many(&self, ctx: &mut QueryCtx, params: &[(Ratio, Ratio)]) -> Vec<Vec<Handle>> {
        let batch = ctx.begin_batch();
        params
            .iter()
            .enumerate()
            .map(|(i, (a, b))| {
                ctx.select_stream(batch, i as u64);
                self.query(ctx, a, b)
            })
            .collect()
    }

    /// Number of live items.
    fn len(&self) -> usize;

    /// `true` iff no live items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of live weights.
    fn total_weight(&self) -> u128;

    /// Short display name (stable; used in reports and test messages).
    fn name(&self) -> &'static str;

    /// Scales **every** live weight to `⌊w·num/den⌋` (see [`scale_weight`])
    /// in one native operation, returning `true` if the backend supports it.
    ///
    /// The default returns `false` without touching anything: callers (the
    /// workload replayers) then fall back to per-item
    /// [`PssBackend::set_weight`] calls. [`Store`]-backed backends override
    /// this via [`Store::scale_all`], emitting a single
    /// [`Delta::ScaledAll`] journal entry instead of `n` reweights — which
    /// is what keeps a decay op inside a journal replay window.
    fn scale_all_weights(&mut self, num: u32, den: u32) -> bool {
        let _ = (num, den);
        false
    }

    /// Hints that `handle`'s backing record is about to be touched by an
    /// update op, so the backend may warm the cache line it lives on.
    ///
    /// Purely advisory: moves no data, draws no randomness, and must accept
    /// stale handles (the default does nothing). Journal replay calls this
    /// one delta ahead of the op it is applying so the record's cache miss
    /// overlaps the current op's work — recovery over a big slab walks
    /// handles in journal order, which is random-access in memory.
    fn prefetch_handle(&self, _handle: Handle) {}

    /// The backend's change journal, if it keeps one.
    ///
    /// Backends whose queries park derived state in a [`QueryCtx`] (HALT's
    /// plan caches, the ODSS materializations) maintain a journal so that
    /// state can revalidate: the incremental ODSS materialization
    /// [catches up](ChangeJournal::catch_up) in O(deltas) through its
    /// ring, while HALT's plan caches and the absolute ODSS materialization
    /// read only its version and keep no ring unless one is attached. Every workspace backend
    /// journals (the naive scans too, with a version alone, so snapshots
    /// carry a watermark); the default, for a backend that keeps none, is
    /// `None`.
    fn journal(&self) -> Option<&ChangeJournal> {
        None
    }

    /// `true` iff a previous `&mut` operation unwound mid-cascade and left
    /// the structure in an indeterminate state.
    ///
    /// Backends with multi-step update cascades (the HALT structures) arm a
    /// poison flag around each mutation: an unwind between the first write
    /// and the journal append leaves the flag set, and every subsequent
    /// fallible op returns `Err(Poisoned)` rather than computing on a
    /// half-cascaded structure. A poisoned backend still answers
    /// [`PssBackend::journal`] (recovery reads the durable watermark off it)
    /// but must not be queried or updated; the way out is
    /// [`recover`] from a snapshot + journal. Backends whose
    /// updates are single-step (the [`Store`]-backed baselines) never
    /// poison, which is what this default encodes.
    fn poisoned(&self) -> bool {
        false
    }
}

/// Uniform deterministic-seeding surface: every backend in the workspace can
/// be constructed from a bare `u64` seed, which is what the agreement tests
/// and the benchmark harness rely on for reproducibility.
///
/// Since the query-path RNG moved into [`QueryCtx`], the seed no longer
/// drives query randomness (the *context's* seed does); backends without
/// coins of their own, the HALT samplers among them, ignore it.
pub trait SeedableBackend: PssBackend + Sized {
    /// Creates an empty backend whose internal coin flips (if any) are
    /// driven by `seed`.
    fn with_seed(seed: u64) -> Self;
}

/// Boxes a seeded backend as a trait object.
pub fn boxed<B: SeedableBackend + 'static>(seed: u64) -> Box<dyn PssBackend> {
    Box::new(B::with_seed(seed))
}

// ---------------------------------------------------------------------------
// Shared slot-based item storage.
// ---------------------------------------------------------------------------

/// Slot-based weighted item store shared by the O(n)-per-query baselines.
///
/// Freed slots are recycled, and handles are generational: a handle packs
/// the slot's generation above its index (`gen << 32 | slot`, the layout
/// HALT's item ids share), and a delete bumps the slot's generation. A stale
/// handle — including one whose slot has since been reissued to a later
/// insert — is rejected by [`Store::delete`] (`false`) and
/// [`Store::set_weight`] (`None`) and never touches the slot's new occupant.
/// The store also tracks the exact total weight, from which
/// [`Store::param_weight`] derives the query denominator
/// `W(α, β) = α·Σw + β` in exact rational arithmetic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Store {
    /// Weight per slot (stale weights remain in dead slots).
    weights: Vec<u64>,
    /// Liveness per slot.
    live: Vec<bool>,
    /// Generation per slot: the high half of the handle its occupant holds.
    gens: Vec<u32>,
    /// Recycled slot indices.
    free: Vec<u32>,
    /// Number of live items.
    n: usize,
    /// Exact sum of live weights.
    total: u128,
}

impl Store {
    /// Number of allocated slots (live + recycled); slot indices range over
    /// `0..slot_count()`.
    pub fn slot_count(&self) -> usize {
        self.weights.len()
    }

    /// The slot a handle this store issued addresses (the low half of its
    /// payload). What the backends built on a store answer
    /// [`PssBackend::slot`] with: pure decoding, so stale handles answer too.
    pub fn slot(h: Handle) -> usize {
        (h.raw() & 0xFFFF_FFFF) as usize
    }

    /// The handle of the item now in slot `i` (its current generation
    /// above the index) — the one way from a slot back to a handle. A slot
    /// never issued answers with generation 0.
    pub fn handle_at(&self, i: usize) -> Handle {
        let gen = self.gens.get(i).copied().unwrap_or(0);
        Handle::from_raw((u64::from(gen) << 32) | i as u64)
    }

    /// The slot of `h` if `h` names a live item: its slot is live and its
    /// generation is the slot's current one.
    fn live_slot(&self, h: Handle) -> Option<usize> {
        let i = Store::slot(h);
        (self.is_live(i) && u64::from(self.gens[i]) == h.raw() >> 32).then_some(i)
    }

    /// `true` iff slot `i` holds a live item. Out-of-range is `false`.
    pub fn is_live(&self, i: usize) -> bool {
        self.live.get(i).copied().unwrap_or(false)
    }

    /// Weight of the live item in slot `i`, or `None` if the slot is dead or
    /// out of range — the same total-function contract as [`Store::is_live`]
    /// (the panicking, stale-weight-leaking variant this replaces was the
    /// one asymmetric accessor in the store API).
    pub fn weight_at(&self, i: usize) -> Option<u64> {
        self.is_live(i).then(|| self.weights[i])
    }

    /// Number of live items.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` iff no live items.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Exact sum of live weights.
    pub fn total(&self) -> u128 {
        self.total
    }

    /// Inserts an item, returning its handle (a recycled slot comes back
    /// under the generation its last delete moved it to).
    pub fn insert(&mut self, w: u64) -> Handle {
        self.n += 1;
        self.total += w as u128;
        let i = if let Some(i) = self.free.pop() {
            let i = i as usize;
            self.weights[i] = w;
            self.live[i] = true;
            i
        } else {
            self.weights.push(w);
            self.live.push(true);
            self.gens.push(0);
            self.weights.len() - 1
        };
        self.handle_at(i)
    }

    /// Deletes an item by handle; `true` if it was live. A stale handle
    /// returns `false` and changes nothing.
    pub fn delete(&mut self, h: Handle) -> bool {
        let Some(i) = self.live_slot(h) else {
            return false;
        };
        self.live[i] = false;
        self.gens[i] = self.gens[i].wrapping_add(1);
        self.total -= self.weights[i] as u128;
        self.free.push(narrow::u32_of_usize(i));
        self.n -= 1;
        true
    }

    /// Changes a live item's weight **in place** — the slot (and therefore
    /// the handle) is untouched and the exact total is maintained. Returns
    /// the previous weight, or `None` for a stale handle.
    ///
    /// This is what the baselines route [`PssBackend::set_weight`] through
    /// instead of the handle-churning delete + reinsert default.
    pub fn set_weight(&mut self, h: Handle, w: u64) -> Option<u64> {
        let i = self.live_slot(h)?;
        let old = self.weights[i];
        self.total = self.total - old as u128 + w as u128;
        self.weights[i] = w;
        Some(old)
    }

    /// Scales every live weight to `⌊w·num/den⌋` in place (the decayed-weight
    /// discount; floors via [`scale_weight`], the shared definition), keeping
    /// the exact total and every handle. Returns the number of live items
    /// touched. O(slots) — one pass, no per-item handle churn.
    pub fn scale_all(&mut self, num: u32, den: u32) -> u64 {
        let mut touched = 0u64;
        let mut total = 0u128;
        for i in 0..self.weights.len() {
            if !self.live[i] {
                continue;
            }
            let scaled = scale_weight(self.weights[i], num, den);
            self.weights[i] = scaled;
            total += scaled as u128;
            touched += 1;
        }
        self.total = total;
        touched
    }

    /// The exact query denominator `W(α, β) = α·Σw + β`.
    pub fn param_weight(&self, alpha: &Ratio, beta: &Ratio) -> Ratio {
        alpha.mul_big(&BigUint::from_u128(self.total)).add(beta)
    }

    /// Iterates `(handle, weight)` over live slots in slot order (zero-weight
    /// items included — skipping them is the sampler's decision, not the
    /// store's).
    pub fn iter_live(&self) -> impl Iterator<Item = (Handle, u64)> + '_ {
        self.weights
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.live[i])
            .map(|(i, &w)| (self.handle_at(i), w))
    }
}

impl SpaceUsage for Store {
    fn space_words(&self) -> usize {
        // One word per weight slot, half a word per generation and per
        // free-list entry, one per 64 liveness flags (rounded up), plus the
        // two scalars.
        self.weights.capacity()
            + self.live.capacity().div_ceil(64)
            + self.gens.capacity().div_ceil(2)
            + self.free.capacity().div_ceil(2)
            + 3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_roundtrip_and_totals() {
        let mut s = Store::default();
        let a = s.insert(5);
        let b = s.insert(7);
        assert_eq!(s.len(), 2);
        assert_eq!(s.total(), 12);
        assert!(s.delete(a));
        assert!(!s.delete(a), "double delete must fail");
        assert_eq!(s.total(), 7);
        // Slot is recycled under a new generation: the old handle stays stale.
        let c = s.insert(9);
        assert_eq!(Store::slot(c), Store::slot(a));
        assert_ne!(c, a);
        assert!(!s.delete(a), "stale handle must not delete the slot's new item");
        assert_eq!(s.total(), 16);
        assert_eq!(s.iter_live().count(), 2);
        assert!(s.iter_live().any(|(h, w)| h == b && w == 7));
        assert!(s.space_words() > 0);
    }

    #[test]
    fn param_weight_is_exact() {
        let mut s = Store::default();
        s.insert(10);
        s.insert(20);
        // W = (1/3)·30 + 5 = 15.
        let w = s.param_weight(&Ratio::from_u64s(1, 3), &Ratio::from_int(5));
        assert_eq!(w.cmp(&Ratio::from_int(15)), std::cmp::Ordering::Equal);
    }

    #[test]
    fn handle_raw_roundtrip() {
        let h = Handle::from_raw(123);
        assert_eq!(h.raw(), 123);
        assert_eq!(format!("{h}"), "#123");
        assert_eq!(h, Handle::from_raw(123));
    }

    #[test]
    fn set_weight_is_in_place_and_exact() {
        let mut s = Store::default();
        let a = s.insert(5);
        let b = s.insert(7);
        assert_eq!(s.set_weight(a, 50), Some(5));
        assert_eq!(s.total(), 57);
        assert_eq!(s.weight_at(a.raw() as usize), Some(50));
        // Handle-stable: the slot never moved, b untouched.
        assert_eq!(s.weight_at(b.raw() as usize), Some(7));
        assert_eq!(s.len(), 2);
        // Reweight to zero and back keeps exact totals.
        assert_eq!(s.set_weight(a, 0), Some(50));
        assert_eq!(s.total(), 7);
        assert_eq!(s.set_weight(a, 3), Some(0));
        assert_eq!(s.total(), 10);
        // Stale handles rejected.
        assert!(s.delete(a));
        assert_eq!(s.set_weight(a, 1), None);
        assert_eq!(s.total(), 7);
    }

    #[test]
    fn scale_all_floors_and_keeps_exact_totals() {
        let mut s = Store::default();
        let a = s.insert(7);
        let b = s.insert(1);
        let dead = s.insert(100);
        assert!(s.delete(dead));
        assert_eq!(s.scale_all(1, 2), 2, "two live items touched");
        assert_eq!(s.weight_at(a.raw() as usize), Some(3), "⌊7/2⌋");
        assert_eq!(s.weight_at(b.raw() as usize), Some(0), "⌊1/2⌋ floors to zero");
        assert_eq!(s.total(), 3);
        assert_eq!(s.len(), 2, "zero-weight items stay live");
        // Identity factor is a no-op; repeated decay compounds with floors.
        assert_eq!(s.scale_all(3, 3), 2);
        assert_eq!(s.total(), 3);
        assert_eq!(s.scale_all(2, 3), 2);
        assert_eq!(s.weight_at(a.raw() as usize), Some(2), "⌊3·2/3⌋");
        assert_eq!(s.total(), 2);
    }

    #[test]
    fn weight_at_is_total_like_is_live() {
        let mut s = Store::default();
        let a = s.insert(5);
        assert_eq!(s.weight_at(a.raw() as usize), Some(5));
        assert_eq!(s.weight_at(999), None, "out of range is None, not a panic");
        assert!(s.delete(a));
        assert_eq!(s.weight_at(a.raw() as usize), None, "dead slot is None");
    }
}
