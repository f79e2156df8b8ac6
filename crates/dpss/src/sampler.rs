//! [`DpssSampler`] — the public facade over the HALT structure (Theorem 1.1).
//!
//! ## Read/write split
//!
//! Updates (`insert`/`delete`/`set_weight`) take `&mut self`. Queries take
//! **`&self`** plus an explicit [`QueryCtx`] ([`DpssSampler::query_in`] /
//! [`DpssSampler::query_with_total_in`]): the RNG stream, the memoized
//! lookup-table rows, and the per-`(α, β)` plan cache all live in the
//! caller's context (keyed by this sampler's instance id and validated
//! against its mutation epoch), so independent queries can run concurrently
//! over one shared sampler — see `pss_core::ShardedQuery`.
//!
//! The legacy `&mut self` convenience methods ([`DpssSampler::query`],
//! [`DpssSampler::query_many`], …) remain as thin wrappers over an internal
//! default context seeded at construction, so existing callers and the
//! seeded agreement suites keep their exact sampling law.

use crate::item::ItemId;
use crate::lookup::LookupTable;
use crate::query::{
    query_certain, query_level1_into, thresholds_at, FinalLevelMode, QueryAccel, QueryFrame,
    QueryScratch, Thresholds,
};
use crate::snapshot::{level1_from_slab, read_slab, write_slab};
use crate::structure::Level1;
use bignum::{BigUint, Ratio};
use pss_core::fault::{self, FaultError, Site};
use pss_core::{
    kind, ChangeJournal, CtxRng, Delta, Enc, Handle, QueryCtx, Replay, SnapshotError,
    SnapshotReader, SnapshotWriter, Snapshottable,
};
use wordram::bits::ceil_log2_u64;
use wordram::SpaceUsage;

/// Floor for the sizing parameter `n₀` so tiny sets get sane group widths and
/// rebuilds don't thrash.
const N0_FLOOR: usize = 16;

/// Capacity of the per-`(α, β)` query-plan cache. Sized to hold a whole
/// `query_many` batch of distinct parameter pairs (the bench drives 16) with
/// headroom — a batch larger than the cache would otherwise evict its own
/// entries FIFO and never hit.
const PLAN_CACHE: usize = 32;

/// A cached per-`(α, β)` query plan: the exact total weight `W`, its
/// word-sized accelerators, and the level-1 thresholds — everything about a
/// query that depends only on the parameters and the current item set, so
/// repeated queries at the same parameters skip all multi-word setup.
#[derive(Clone, Debug)]
struct QueryPlan {
    w: Ratio,
    accel: QueryAccel,
    th: Thresholds,
}

/// One cached plan-cache entry: the parameter pair, its plan, and whether
/// the plan still matches the sampler's current `(Σw, n⁺)` state. A stale
/// entry keeps its key and its allocation; the next lookup refreshes the
/// plan in place (see [`PlanState`]).
#[derive(Debug)]
struct PlanEntry {
    alpha: Ratio,
    beta: Ratio,
    plan: QueryPlan,
    valid: bool,
}

/// The read-path scratch a [`DpssSampler`] parks in a [`QueryCtx`]: the
/// memoized lookup-table rows, the `(α, β)` plan cache with its
/// hit/miss/refresh counters, and the query's buffers. One entry per
/// (context, sampler instance) pair — contexts never share plans across
/// samplers.
///
/// The buffers make a warm query allocation-free apart from the `Vec` it
/// returns: every level of the hierarchy appends into them, they keep their
/// capacity from query to query, and the sample is copied out of `items`
/// once, at its exact length (no allocation at all when it is empty).
///
/// Revalidation is journal-driven (the epoch-delta protocol): the state
/// remembers the [`ChangeJournal`] epoch it last synchronized to plus a
/// `(Σw, n⁺)` snapshot, and [`DpssSampler::query_in`] catches it up before
/// every lookup. Weight-only churn (a delta replay) keeps the memoized
/// lookup table *and* every cache entry — entries are merely marked stale
/// and refreshed in place on next use, and if the churn was weight-neutral
/// (`Σw` and `n⁺` both unchanged) the plans stay exactly valid. Only a
/// structural rebuild (`Rebuilt` entry, or a replay window lost to ring
/// wrap) clears the cache, and only a modulus change rebuilds the table.
#[derive(Debug)]
pub(crate) struct PlanState {
    pub(crate) table: LookupTable,
    plans: Vec<PlanEntry>,
    /// Proxy and candidate buffers of levels 2 and 3.
    scratch: QueryScratch,
    /// Level-1 output, copied out as the returned sample.
    items: Vec<ItemId>,
    /// Journal epoch this state last synchronized to.
    journal_epoch: u64,
    /// `Σw` at the last synchronization (plans depend on it through `W`).
    total_snapshot: u128,
    /// Positive-item count at the last synchronization (thresholds, `p₀`).
    n_pos_snapshot: usize,
    hits: u64,
    misses: u64,
    /// Stale entries re-derived in place (the shrunk miss path: no key
    /// clone, no eviction, table untouched).
    refreshes: u64,
}

impl PlanState {
    fn new(modulus: u32, journal_epoch: u64, total: u128, n_pos: usize) -> Self {
        PlanState {
            table: LookupTable::new(modulus),
            plans: Vec::new(),
            scratch: QueryScratch::default(),
            items: Vec::new(),
            journal_epoch,
            total_snapshot: total,
            n_pos_snapshot: n_pos,
            hits: 0,
            misses: 0,
            refreshes: 0,
        }
    }
}

/// Derives `(g₁, g₂)` from `n₀`: `g₁ = max(2, ⌈log2 n₀⌉)` (level-1 group
/// width) and `g₂ = max(2, ⌈log2 g₁⌉)` (level-2 group width = the lookup
/// modulus `m`).
fn derive_widths(n0: usize) -> (u32, u32) {
    let g1 = ceil_log2_u64(n0.max(2) as u64).max(2);
    let g2 = ceil_log2_u64(g1 as u64).max(2);
    (g1, g2)
}

/// Why a fallible HALT update (`try_insert` & co.) refused to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpError {
    /// A previous `&mut` update unwound mid-cascade: the hierarchy may be
    /// half-cascaded, so every subsequent update is refused until the caller
    /// recovers from a snapshot (the journal stays readable for that).
    Poisoned,
    /// An armed failpoint fired (fault-injection builds only). At an entry
    /// site the structure is untouched and stays usable; at a mid-cascade
    /// site the op is torn, so the sampler is additionally poisoned.
    Fault(FaultError),
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

/// Dynamic Parameterized Subset Sampling over integer-weighted items.
///
/// Implements the paper's Theorem 1.1 bounds: O(n) preprocessing
/// ([`DpssSampler::from_weights`]), O(1) worst-case updates
/// ([`DpssSampler::insert`] / [`DpssSampler::delete`], amortized across the
/// standard global rebuilds of §4.5), O(1 + μ) expected query time
/// ([`DpssSampler::query_in`]), and O(n) words of space at all times.
///
/// Every inclusion decision is made with exact rational arithmetic: for any
/// parameters `(α, β)` the returned subset contains each item `x`
/// independently with probability exactly
/// `p_x(α,β) = min(w(x) / (α·Σw + β), 1)`.
#[derive(Debug)]
pub struct DpssSampler {
    pub(crate) level1: Level1,
    pub(crate) n0: usize,
    final_mode: FinalLevelMode,
    rebuilds: u64,
    rebuild_factor: usize,
    /// The epoch-delta change log: every item-set mutation appends a
    /// [`Delta`], structural rebuilds append [`Delta::Rebuilt`], and every
    /// context's [`PlanState`] catches up through it (weight-only churn
    /// refreshes plans in place; only structural entries clear them).
    journal: ChangeJournal,
    /// Lookup modulus `g₂` for the current sizing (contexts rebuild their
    /// memoized tables lazily when this moves under them).
    table_modulus: u32,
    /// Process-unique id keying this sampler's state inside any [`QueryCtx`].
    pub(crate) instance: u64,
    /// Internal default context backing the legacy `&mut self` query surface.
    pub(crate) ctx: QueryCtx,
    /// Disables the word-level fast path (all coins exact; agreement tests).
    force_exact: bool,
    /// Set while a `&mut` update is mid-cascade and cleared on completion: a
    /// panic (or injected fault) inside the cascade leaves it stuck `true`,
    /// and every later update is refused with [`OpError::Poisoned`].
    poisoned: bool,
}

impl DpssSampler {
    /// Creates an empty sampler with a deterministic seed (the seed drives
    /// the internal default context used by the legacy query methods; the
    /// shared-read surface draws from the caller's context instead).
    pub fn new(seed: u64) -> Self {
        Self::with_capacity_seed(0, seed)
    }

    /// O(n) preprocessing: builds the sampler over `weights`, returning the
    /// handle of each item in input order. Rides the radix-partitioned bulk
    /// build (`Level1::insert_many`): sized once for `weights.len()`, built
    /// in four linear passes, no journal traffic (a fresh structure has no
    /// observers to notify).
    pub fn from_weights(weights: &[u64], seed: u64) -> (Self, Vec<ItemId>) {
        let mut s = Self::with_capacity_seed(weights.len(), seed);
        let ids = s.level1.insert_many(weights);
        (s, ids)
    }

    /// Creates an empty sampler sized for `n` upcoming insertions.
    pub fn with_capacity_seed(n: usize, seed: u64) -> Self {
        let n0 = n.max(N0_FLOOR);
        let (g1, g2) = derive_widths(n0);
        DpssSampler {
            level1: Level1::new(g1, g2),
            n0,
            final_mode: FinalLevelMode::default(),
            rebuilds: 0,
            rebuild_factor: 2,
            journal: ChangeJournal::new(),
            table_modulus: g2,
            instance: pss_core::fresh_backend_id(),
            ctx: QueryCtx::new(seed),
            force_exact: false,
            poisoned: false,
        }
    }

    /// Number of items (including zero-weight items).
    pub fn len(&self) -> usize {
        self.level1.slab.len()
    }

    /// `true` iff no items are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact sum of all item weights.
    pub fn total_weight(&self) -> u128 {
        self.level1.total_weight
    }

    /// Weight of a live item (`None` for stale handles).
    pub fn weight(&self, id: ItemId) -> Option<u64> {
        self.level1.slab.weight(id)
    }

    /// `true` iff `id` refers to a live item.
    pub fn contains(&self, id: ItemId) -> bool {
        self.level1.slab.contains(id)
    }

    /// Iterates `(id, weight)` over live items (O(capacity)).
    pub fn iter(&self) -> impl Iterator<Item = (ItemId, u64)> + '_ {
        self.level1.slab.iter()
    }

    /// Selects the final-level strategy (ablation A1).
    pub fn set_final_mode(&mut self, mode: FinalLevelMode) {
        self.final_mode = mode;
    }

    /// Disables (`true`) or re-enables (`false`) the word-level query fast
    /// path. With `force_exact` every coin runs the original all-exact
    /// arithmetic; the sampled distribution is identical either way (the fast
    /// path is exactness-preserving), which the agreement tests verify.
    pub fn set_force_exact(&mut self, force_exact: bool) {
        if self.force_exact != force_exact {
            self.force_exact = force_exact;
            // Structural: cached plans bake the fast flag into the accel, so
            // no context state may replay across the flip.
            self.journal.record_rebuilt();
        }
    }

    /// `true` iff the query fast path is disabled.
    pub fn force_exact(&self) -> bool {
        self.force_exact
    }

    /// Number of global rebuilds performed so far.
    pub fn rebuild_count(&self) -> u64 {
        self.rebuilds
    }

    /// Sets the global-rebuild threshold factor `k ≥ 2`: rebuild when the
    /// size leaves `[n₀/k, k·n₀]` (ablation A2; the paper uses `k = 2`).
    pub fn set_rebuild_factor(&mut self, k: usize) {
        assert!(k >= 2, "rebuild factor must be ≥ 2");
        self.rebuild_factor = k;
    }

    /// Rows materialized in the internal default context's lookup table so
    /// far (ablation A3; rows built through *other* contexts are counted by
    /// those contexts).
    pub fn lookup_rows_built(&self) -> u64 {
        self.ctx.state_ref::<PlanState>(self.instance).map_or(0, |st| st.table.rows_built())
    }

    /// `(hits, misses, refreshes)` of the per-`(α, β)` query-plan cache in
    /// the internal default context since construction: a *hit* answers a
    /// query from a still-valid cached plan (no multi-word
    /// `W`/threshold/accelerator setup), a *miss* builds and caches a fresh
    /// entry, and a *refresh* re-derives a stale entry's plan **in place** —
    /// the journal-driven middle path for weight-only churn, which skips the
    /// key clone and cache eviction of a miss and keeps the memoized lookup
    /// table. Degenerate `W = 0` queries bypass the cache and count as none
    /// of the three. Observability hook — snapshotted by `bench_core` so
    /// cache regressions show in the perf trajectory.
    pub fn plan_cache_stats(&self) -> (u64, u64, u64) {
        self.ctx
            .state_ref::<PlanState>(self.instance)
            .map_or((0, 0, 0), |st| (st.hits, st.misses, st.refreshes))
    }

    /// `(hits, misses, refreshes)` of this sampler's plan cache inside an
    /// *external* context (each context keeps its own cache; see
    /// [`DpssSampler::plan_cache_stats`] for the semantics).
    pub fn plan_cache_stats_in(&self, ctx: &QueryCtx) -> (u64, u64, u64) {
        ctx.state_ref::<PlanState>(self.instance)
            .map_or((0, 0, 0), |st| (st.hits, st.misses, st.refreshes))
    }

    /// The sampler's change journal (shared epoch-delta protocol surface).
    pub fn journal(&self) -> &ChangeJournal {
        &self.journal
    }

    /// Runs `f` with the internal default context moved out of `self` (the
    /// borrow-splitting step every legacy `&mut self` wrapper needs: `f`
    /// gets `&Self` *and* the context). A panic inside `f` leaves the field
    /// as a seed-0 default — acceptable, since a panicking query is a bug
    /// and the suites abort; nothing unwinds past this and keeps sampling.
    fn with_default_ctx<T>(&mut self, f: impl FnOnce(&Self, &mut QueryCtx) -> T) -> T {
        let mut ctx = std::mem::take(&mut self.ctx);
        let out = f(self, &mut ctx);
        self.ctx = ctx;
        out
    }

    /// Eagerly materializes every lookup-table row of configuration dimension
    /// `k` in the internal default context — the paper's O(n₀) preprocessing
    /// mode (ablation A3). Bounded to small `(m+1)^k`; the default is lazy
    /// memoization.
    pub fn eager_lookup(&mut self, k: usize) {
        self.with_default_ctx(|s, ctx| {
            let (_, st) = s.plan_state(ctx);
            st.table.build_all(k);
        });
    }

    /// `true` iff an earlier update unwound mid-cascade and the structure
    /// must be recovered from a snapshot before further updates.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    #[inline]
    fn ensure_unpoisoned(&self) -> Result<(), OpError> {
        if self.poisoned {
            Err(OpError::Poisoned)
        } else {
            Ok(())
        }
    }

    /// Inserts an item with `weight` in O(1) (amortized across rebuilds).
    pub fn insert(&mut self, weight: u64) -> ItemId {
        // pss-lint: allow(no-panic-paths) — fails only on a poisoned sampler or an armed failpoint; both mean the caller opted into fault-injection semantics and must use try_insert
        self.try_insert(weight).expect("update refused; use try_insert on a fallible path")
    }

    /// Fallible [`DpssSampler::insert`]: refuses to run on a poisoned
    /// sampler, and surfaces injected faults as typed errors. An unwind (or
    /// injected fault) between the first structural write and completion
    /// leaves the sampler poisoned.
    // pss-lint: fault-window — arms self.poisoned across the mutation cascade; recovery is journal replay
    pub fn try_insert(&mut self, weight: u64) -> Result<ItemId, OpError> {
        self.ensure_unpoisoned()?;
        fault::fail_point(Site::InsertEntry).map_err(OpError::Fault)?;
        self.poisoned = true;
        let id = self.level1.insert(weight);
        fault::fail_point(Site::InsertCascade).map_err(OpError::Fault)?;
        self.journal.record(Delta::Inserted { handle: Handle::from_raw(id.raw()), weight });
        self.maybe_rebuild();
        self.poisoned = false;
        Ok(id)
    }

    /// Inserts a batch of items in O(batch), returning their handles in
    /// order — the radix-partitioned bulk path. The structure is sized
    /// **once** up front from `len() + weights.len()` (at most one rebuild,
    /// instead of the O(log batch) intermediate rebuilds a per-item loop
    /// pays), then `Level1::insert_many` classifies, carves, fills, and
    /// derives in four linear passes. The journal epoch is bumped once per
    /// batch ([`ChangeJournal::record_batch`]): observers replay the batch
    /// all-or-nothing, so per-op semantics are unchanged.
    ///
    /// Bit-identical — bucket contents, canonical node order, handles, and
    /// therefore every position-sensitive query — to the retained per-item
    /// reference loop (`insert_many_per_op`, behind the `per-op-reference`
    /// feature), which the bulk-vs-per-op suite pins down.
    pub fn insert_many(&mut self, weights: &[u64]) -> Vec<ItemId> {
        // pss-lint: allow(no-panic-paths) — fails only on a poisoned sampler or an armed failpoint; both mean the caller opted into fault-injection semantics and must use try_insert_many
        self.try_insert_many(weights).expect("update refused; use try_insert_many")
    }

    /// Fallible [`DpssSampler::insert_many`] (see [`DpssSampler::try_insert`]
    /// for the poisoning contract). The batch journals all-or-nothing: a kill
    /// anywhere inside the build leaves the journal without the batch epoch,
    /// so recovery replays none of it — matching the torn structure being
    /// discarded wholesale.
    // pss-lint: fault-window — arms self.poisoned across the mutation cascade; recovery is journal replay
    pub fn try_insert_many(&mut self, weights: &[u64]) -> Result<Vec<ItemId>, OpError> {
        self.ensure_unpoisoned()?;
        fault::fail_point(Site::BulkEntry).map_err(OpError::Fault)?;
        if weights.is_empty() {
            return Ok(Vec::new());
        }
        self.poisoned = true;
        self.reserve_for(self.len() + weights.len());
        let ids = self.level1.insert_many(weights);
        self.journal.record_batch(
            ids.iter()
                .zip(weights)
                .map(|(id, &w)| Delta::Inserted { handle: Handle::from_raw(id.raw()), weight: w }),
        );
        self.poisoned = false;
        Ok(ids)
    }

    /// The per-item batch loop the bulk build replaced, kept as the
    /// bit-identity oracle: identical up-front sizing (one `reserve_for`),
    /// identical one-epoch journal semantics, but n incremental cascades
    /// instead of one classifier sweep. Test-only surface — enable the
    /// `per-op-reference` feature to compile it.
    #[cfg(feature = "per-op-reference")]
    pub fn insert_many_per_op(&mut self, weights: &[u64]) -> Vec<ItemId> {
        if weights.is_empty() {
            return Vec::new();
        }
        self.reserve_for(self.len() + weights.len());
        let ids: Vec<ItemId> = weights.iter().map(|&w| self.level1.insert(w)).collect();
        self.journal.record_batch(
            ids.iter()
                .zip(weights)
                .map(|(id, &w)| Delta::Inserted { handle: Handle::from_raw(id.raw()), weight: w }),
        );
        ids
    }

    /// Deletes an item in O(1) (amortized); returns its weight.
    pub fn delete(&mut self, id: ItemId) -> Option<u64> {
        // pss-lint: allow(no-panic-paths) — fails only on a poisoned sampler or an armed failpoint; both mean the caller opted into fault-injection semantics and must use try_delete
        self.try_delete(id).expect("update refused; use try_delete on a fallible path")
    }

    /// Fallible [`DpssSampler::delete`] (see [`DpssSampler::try_insert`] for
    /// the poisoning contract). Stale handles return `Ok(None)` without
    /// touching — or poisoning — anything.
    // pss-lint: fault-window — arms self.poisoned across the mutation cascade; recovery is journal replay
    pub fn try_delete(&mut self, id: ItemId) -> Result<Option<u64>, OpError> {
        self.ensure_unpoisoned()?;
        fault::fail_point(Site::DeleteEntry).map_err(OpError::Fault)?;
        // Touch (and validate) the slab record before the journal append:
        // the line is then resident by the time the cascade dereferences it,
        // and stale handles never reach the journal.
        if self.level1.slab.weight(id).is_none() {
            return Ok(None);
        }
        self.poisoned = true;
        self.journal.record(Delta::Deleted { handle: Handle::from_raw(id.raw()) });
        fault::fail_point(Site::DeleteCascade).map_err(OpError::Fault)?;
        // pss-lint: allow(no-panic-paths) — the slab lookup above already returned Some for this id
        let w = self.level1.delete(id).expect("slab record validated above");
        self.maybe_rebuild();
        self.poisoned = false;
        Ok(Some(w))
    }

    /// Changes a live item's weight in O(1) **preserving its handle** —
    /// semantically a delete + insert (§4.5), but without invalidating `id`.
    /// Returns the previous weight, or `None` for stale handles. The item
    /// count is unchanged, so no rebuild can trigger.
    pub fn set_weight(&mut self, id: ItemId, new_weight: u64) -> Option<u64> {
        // pss-lint: allow(no-panic-paths) — fails only on a poisoned sampler or an armed failpoint; both mean the caller opted into fault-injection semantics and must use try_set_weight
        self.try_set_weight(id, new_weight).expect("update refused; use try_set_weight")
    }

    /// Fallible [`DpssSampler::set_weight`] (see [`DpssSampler::try_insert`]
    /// for the poisoning contract). Stale handles (`Ok(None)`) and no-op
    /// re-sets (`Ok(Some(old))`) return before anything is touched.
    // pss-lint: fault-window — arms self.poisoned across the mutation cascade; recovery is journal replay
    pub fn try_set_weight(&mut self, id: ItemId, new_weight: u64) -> Result<Option<u64>, OpError> {
        self.ensure_unpoisoned()?;
        fault::fail_point(Site::SetWeightEntry).map_err(OpError::Fault)?;
        // Early slab read: validates the handle, fetches the old weight for
        // the journal entry, and warms the record the cascade is about to
        // rewrite (the append between read and rewrite hides the load).
        let Some(old) = self.level1.slab.weight(id) else {
            return Ok(None);
        };
        if old == new_weight {
            // Stale handles and no-op re-sets leave the item set (and every
            // cached query plan) untouched — nothing to journal.
            // pss-lint: allow(journal-completeness) — no-op re-set: the weight is unchanged, so there is no delta to record
            return Ok(Some(old));
        }
        self.poisoned = true;
        self.journal.record(Delta::Reweighted {
            handle: Handle::from_raw(id.raw()),
            old,
            new: new_weight,
        });
        fault::fail_point(Site::SetWeightCascade).map_err(OpError::Fault)?;
        // Already validated and filtered above — skip straight to the body.
        self.level1.reweight(id, old, new_weight);
        self.poisoned = false;
        Ok(Some(old))
    }

    /// Insert without the global-rebuild check — used by
    /// [`crate::DeamortizedDpss`], whose epoch machinery replaces rebuilds
    /// entirely (its trigger band sits strictly inside the rebuild band, so
    /// sizes never drift far enough to need one).
    pub(crate) fn insert_frozen(&mut self, weight: u64) -> ItemId {
        let id = self.level1.insert(weight);
        self.journal.record(Delta::Inserted { handle: Handle::from_raw(id.raw()), weight });
        id
    }

    /// Batch insert without the global-rebuild check (the bulk analogue of
    /// [`DpssSampler::insert_frozen`]): one journal epoch, structure sized
    /// by the caller ([`crate::DeamortizedDpss`] pre-sizes via
    /// [`DpssSampler::reserve_for`] when a batch outgrows the trigger band).
    pub(crate) fn insert_many_frozen(&mut self, weights: &[u64]) -> Vec<ItemId> {
        let ids = self.level1.insert_many(weights);
        self.journal.record_batch(
            ids.iter()
                .zip(weights)
                .map(|(id, &w)| Delta::Inserted { handle: Handle::from_raw(id.raw()), weight: w }),
        );
        ids
    }

    /// Delete without the global-rebuild check (see
    /// [`DpssSampler::insert_frozen`]); essential while an epoch drains the
    /// old half toward zero items.
    pub(crate) fn delete_frozen(&mut self, id: ItemId) -> Option<u64> {
        self.level1.slab.weight(id)?;
        self.journal.record(Delta::Deleted { handle: Handle::from_raw(id.raw()) });
        self.level1.delete(id)
    }

    #[inline]
    fn maybe_rebuild(&mut self) {
        let n = self.len().max(N0_FLOOR);
        if n > self.n0 * self.rebuild_factor || n * self.rebuild_factor < self.n0 {
            self.rebuild(n);
        }
    }

    /// The batch analogue of `maybe_rebuild`: sizes the structure once for
    /// a final count of `n_final` items, firing **at most one** rebuild up
    /// front, so a bulk load performs zero intermediate rebuilds.
    pub(crate) fn reserve_for(&mut self, n_final: usize) {
        let n = n_final.max(N0_FLOOR);
        if n > self.n0 * self.rebuild_factor || n * self.rebuild_factor < self.n0 {
            self.rebuild(n);
        }
    }

    /// The structural arm of the update path, kept out of the hot
    /// count-only code (`#[cold]`: rebuilds are geometrically rare, and the
    /// compiler should neither inline this body nor spend registers on it
    /// along the fast path).
    #[cold]
    #[inline(never)]
    fn rebuild(&mut self, n0: usize) {
        let (g1, g2) = derive_widths(n0);
        // In-place: the hierarchy re-grows out of its own recycled storage.
        // Grow rebuilds keep the item buckets (O(1) hierarchy work); shrink
        // rebuilds compact the bucket blocks to keep space O(n).
        let compact = n0 < self.n0;
        self.level1.rebuild(g1, g2, compact);
        // Failpoint between the structural rebuild and its journal entry: a
        // crash here leaves a rebuilt hierarchy the journal knows nothing
        // about — recovery must converge through replay, not the journal.
        fault::fail_point_unwind(Site::RebuildMid);
        // A structural journal entry: no context state replays across a
        // rebuild (group widths moved), and contexts re-derive their
        // memoized tables lazily when the modulus changed (`plan_state`).
        self.journal.record_rebuilt();
        self.table_modulus = g2;
        self.n0 = n0;
        self.rebuilds += 1;
    }

    /// The parameterized total weight `W_S(α,β) = α·Σw + β`, exact.
    pub fn param_weight(&self, alpha: &Ratio, beta: &Ratio) -> Ratio {
        alpha.mul_big(&BigUint::from_u128(self.level1.total_weight)).add(beta)
    }

    /// Exact inclusion probability `p_x(α,β)` of a live item.
    pub fn inclusion_prob(&self, id: ItemId, alpha: &Ratio, beta: &Ratio) -> Option<Ratio> {
        let w = self.weight(id)?;
        let total = self.param_weight(alpha, beta);
        if total.is_zero() {
            return Some(if w > 0 { Ratio::one() } else { Ratio::zero() });
        }
        Some(Ratio::new(BigUint::from_u64(w).mul(total.den()), total.num().clone()).min_one())
    }

    /// Expected sample size `μ_S(α,β) = Σ_x p_x(α,β)` (O(n); diagnostics).
    pub fn expected_sample_size(&self, alpha: &Ratio, beta: &Ratio) -> f64 {
        let total = self.param_weight(alpha, beta);
        if total.is_zero() {
            return self.level1.n_positive as f64;
        }
        let tf = total.to_f64_lossy();
        self.iter().map(|(_, w)| if w == 0 { 0.0 } else { (w as f64 / tf).min(1.0) }).sum()
    }

    /// This sampler's [`PlanState`] inside `ctx` (created on first use,
    /// lookup table re-derived if a rebuild changed the modulus), returned
    /// together with the context's RNG so the query can hold both mutably.
    fn plan_state<'c>(&self, ctx: &'c mut QueryCtx) -> (&'c mut CtxRng, &'c mut PlanState) {
        let modulus = self.table_modulus;
        let (rng, st) = ctx.state(self.instance, || {
            // Fresh state synchronizes to the journal *now*: no sentinel
            // epochs, no spurious first-query invalidation.
            PlanState::new(
                modulus,
                self.journal.epoch(),
                self.level1.total_weight,
                self.level1.n_positive,
            )
        });
        if st.table.modulus() != modulus {
            st.table = LookupTable::new(modulus);
            st.plans.clear();
        }
        (rng, st)
    }

    /// Journal-driven revalidation of one context's [`PlanState`] — the
    /// epoch-delta replacement for the old "any mutation stales everything"
    /// protocol. Weight-only churn keeps the cache: entries go stale (to be
    /// refreshed in place) only if `(Σw, n⁺)` actually moved, and survive
    /// untouched when the churn was weight-neutral. A structural rebuild or
    /// a lost replay window clears the cache outright (the memoized table
    /// still survives unless the modulus moved — `plan_state` handles that).
    fn revalidate(&self, st: &mut PlanState) {
        let epoch = self.journal.epoch();
        if st.journal_epoch == epoch {
            return;
        }
        match self.journal.catch_up(st.journal_epoch) {
            Replay::UpToDate => {}
            Replay::Deltas(_) => {
                // The hierarchy's sizing is intact (a rebuild would have
                // taken the structural path), so plans survive keyed on the
                // quantities they actually depend on.
                if st.total_snapshot != self.level1.total_weight
                    || st.n_pos_snapshot != self.level1.n_positive
                {
                    for entry in &mut st.plans {
                        entry.valid = false;
                    }
                }
            }
            Replay::TooOld => st.plans.clear(),
        }
        st.journal_epoch = epoch;
        st.total_snapshot = self.level1.total_weight;
        st.n_pos_snapshot = self.level1.n_positive;
    }

    /// Answers one PSS query with parameters `(α, β)` in O(1 + μ) expected
    /// time on a **shared** receiver: returns a subset containing each item
    /// `x` independently with probability exactly `min(w(x)/W_S(α,β), 1)`,
    /// drawing randomness and cached read-path state from `ctx`.
    ///
    /// Convention for `W_S(α,β) = 0` (e.g. `α = β = 0`): every positive-weight
    /// item has probability 1 (the limit of `w/W` as `W → 0+`) and zero-weight
    /// items have probability 0.
    ///
    /// Repeated queries at the same parameters hit the context's `(α, β)`
    /// plan cache keyed on the sampler's mutation epoch, so `W`, its
    /// fast-path accelerators, and the level-1 thresholds are computed once
    /// per (parameters, item-set version, context) rather than per query.
    /// On a hit the query allocates nothing but the returned `Vec`.
    pub fn query_in(&self, ctx: &mut QueryCtx, alpha: &Ratio, beta: &Ratio) -> Vec<ItemId> {
        let (rng, st) = self.plan_state(ctx);
        self.revalidate(st);
        let idx = match st.plans.iter().position(|e| e.alpha == *alpha && e.beta == *beta) {
            // pss-lint: allow(no-bare-index) — i was returned by position() over st.plans
            Some(i) if st.plans[i].valid => {
                st.hits += 1;
                i
            }
            Some(i) => {
                // Stale entry: weight-only churn moved `W` under the cached
                // plan. Refresh it in place — no key clone, no eviction.
                let w = self.param_weight(alpha, beta);
                if w.is_zero() {
                    // Degenerate convention; the entry can never be
                    // refreshed into a usable plan, so drop it.
                    st.plans.remove(i);
                    return query_certain(&self.level1, 0);
                }
                st.refreshes += 1;
                // pss-lint: allow(no-bare-index) — i was returned by position() over st.plans
                st.plans[i].plan = self.make_plan(w);
                // pss-lint: allow(no-bare-index) — i was returned by position() over st.plans
                st.plans[i].valid = true;
                i
            }
            None => {
                let w = self.param_weight(alpha, beta);
                if w.is_zero() {
                    // Degenerate convention; not worth a cache slot.
                    return query_certain(&self.level1, 0);
                }
                st.misses += 1;
                let plan = self.make_plan(w);
                if st.plans.len() >= PLAN_CACHE {
                    st.plans.remove(0);
                }
                st.plans.push(PlanEntry {
                    alpha: alpha.clone(),
                    beta: beta.clone(),
                    plan,
                    valid: true,
                });
                st.plans.len() - 1
            }
        };
        // pss-lint: allow(no-bare-index) — idx is position() over st.plans or len() - 1 after a push
        let plan = &st.plans[idx].plan;
        let _guard = self.force_exact.then(randvar::exact_mode_guard);
        let mut frame = QueryFrame {
            rng,
            w: &plan.w,
            accel: plan.accel,
            table: &mut st.table,
            final_mode: self.final_mode,
        };
        st.items.clear();
        query_level1_into(&self.level1, &mut frame, &plan.th, &mut st.scratch, &mut st.items);
        st.items.to_vec()
    }

    /// The level-1 thresholds under a non-zero total weight `w`.
    fn level1_thresholds(&self, w: &Ratio, accel: &QueryAccel) -> Thresholds {
        let n = self.level1.n_positive.max(1);
        thresholds_at(w, accel.w_ceil_log2, n, self.level1.group_width)
    }

    /// Builds the cached plan for a non-zero total weight `w`.
    fn make_plan(&self, w: Ratio) -> QueryPlan {
        let accel = QueryAccel::new(&w, !self.force_exact);
        let th = self.level1_thresholds(&w, &accel);
        QueryPlan { w, accel, th }
    }

    /// Answers a PSS query against an externally supplied total weight `w`
    /// on a shared receiver: each item `x` is included independently with
    /// probability `min(w(x)/w, 1)`. This is the `(0, W)` form the hierarchy
    /// uses internally (§4.1); it also lets several samplers share one global
    /// `W` (the de-amortized structure queries both migration halves with
    /// the union's `W`). `w = 0` follows the same convention as
    /// [`DpssSampler::query_in`]. It allocates nothing but the returned
    /// `Vec` while `w`'s parts fit in two words.
    pub fn query_with_total_in(&self, ctx: &mut QueryCtx, w: &Ratio) -> Vec<ItemId> {
        if w.is_zero() {
            return query_certain(&self.level1, 0);
        }
        let (rng, st) = self.plan_state(ctx);
        let _guard = self.force_exact.then(randvar::exact_mode_guard);
        let accel = QueryAccel::new(w, !self.force_exact);
        let th = self.level1_thresholds(w, &accel);
        let mut frame =
            QueryFrame { rng, w, accel, table: &mut st.table, final_mode: self.final_mode };
        st.items.clear();
        query_level1_into(&self.level1, &mut frame, &th, &mut st.scratch, &mut st.items);
        st.items.to_vec()
    }

    // -- Legacy convenience surface (internal default context) --------------

    /// Legacy convenience: [`DpssSampler::query_in`] over the internal
    /// default context (seeded at construction), preserving the pre-split
    /// `&mut self` call shape and its exact sampling law.
    pub fn query(&mut self, alpha: &Ratio, beta: &Ratio) -> Vec<ItemId> {
        self.with_default_ctx(|s, ctx| s.query_in(ctx, alpha, beta))
    }

    /// Legacy convenience: a batch of PSS queries on the internal default
    /// context, one result per `(α, β)` pair — a plain loop of
    /// [`DpssSampler::query`] on one continuous stream (the shared-read
    /// `PssBackend::query_many` instead derives an independent stream per
    /// index; both produce the same law).
    pub fn query_many(&mut self, params: &[(Ratio, Ratio)]) -> Vec<Vec<ItemId>> {
        params.iter().map(|(a, b)| self.query(a, b)).collect()
    }

    /// Convenience: query with machine-word rational parameters
    /// `α = a.0/a.1`, `β = b.0/b.1`.
    pub fn query_rational(&mut self, a: (u64, u64), b: (u64, u64)) -> Vec<ItemId> {
        self.query(&Ratio::from_u64s(a.0, a.1), &Ratio::from_u64s(b.0, b.1))
    }

    /// Legacy convenience: [`DpssSampler::query_with_total_in`] over the
    /// internal default context.
    pub fn query_with_total(&mut self, w: &Ratio) -> Vec<ItemId> {
        self.with_default_ctx(|s, ctx| s.query_with_total_in(ctx, w))
    }

    /// Validates every structural invariant (test/debug hook; O(n)).
    pub fn validate(&self) {
        self.level1.validate();
    }
}

/// Section tag of the sizing/journal scalars inside a [`kind::HALT`] image.
const TAG_SAMPLER: u32 = 1;
/// Section tag of the verbatim slab payload inside a [`kind::HALT`] image.
const TAG_SLAB: u32 = 2;

impl Snapshottable for DpssSampler {
    fn write_snapshot(&self, out: &mut Vec<u8>) {
        let mut w = SnapshotWriter::new(kind::HALT);
        let mut enc = Enc::new();
        enc.put_usize(self.n0);
        enc.put_u32(self.level1.group_width);
        enc.put_u32(self.level1.l2_group_width);
        enc.put_u64(self.rebuilds);
        enc.put_usize(self.rebuild_factor);
        enc.put_bool(self.force_exact);
        enc.put_u8(match self.final_mode {
            FinalLevelMode::Lookup => 0,
            FinalLevelMode::Direct => 1,
        });
        enc.put_u64(self.ctx.seed());
        enc.put_u64(self.journal.epoch());
        w.section(TAG_SAMPLER, enc);
        let mut slab = Enc::new();
        write_slab(&mut slab, &self.level1.slab);
        w.section(TAG_SLAB, slab);
        w.finish(out);
    }

    fn from_snapshot(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let r = SnapshotReader::new(bytes, kind::HALT)?;
        let mut dec = r.section(TAG_SAMPLER)?;
        let n0 = dec.get_usize()?;
        let g1 = dec.get_u32()?;
        let g2 = dec.get_u32()?;
        let rebuilds = dec.get_u64()?;
        let rebuild_factor = dec.get_usize()?;
        let force_exact = dec.get_bool()?;
        let final_mode = match dec.get_u8()? {
            0 => FinalLevelMode::Lookup,
            1 => FinalLevelMode::Direct,
            _ => return Err(SnapshotError::Invalid("final-mode byte out of range")),
        };
        let seed = dec.get_u64()?;
        let watermark = dec.get_u64()?;
        dec.finish()?;
        // Sizing sanity: the widths divide bucket universes and the rebuild
        // band multiplies n₀ — absurd values would divide by zero or
        // overflow, so they are rejected as corrupt rather than trusted.
        if n0 == 0 || n0 > u32::MAX as usize {
            return Err(SnapshotError::Invalid("sizing parameter out of range"));
        }
        if !(2..=1 << 16).contains(&rebuild_factor) {
            return Err(SnapshotError::Invalid("rebuild factor out of range"));
        }
        if g1 == 0 || g1 > 64 || g2 == 0 || g2 > 64 {
            return Err(SnapshotError::Invalid("group width out of range"));
        }
        let mut sdec = r.section(TAG_SLAB)?;
        let slab = read_slab(&mut sdec)?;
        sdec.finish()?;
        let level1 = level1_from_slab(slab, g1, g2)?;
        Ok(DpssSampler {
            level1,
            n0,
            final_mode,
            rebuilds,
            rebuild_factor,
            // The journal resumes at the saved watermark with an empty ring:
            // recovery replays a durable journal's suffix from here.
            journal: ChangeJournal::resumed_at(watermark),
            // `table_modulus` tracks `l2_group_width` by construction.
            table_modulus: g2,
            // Process-local identity is deliberately not durable: a restored
            // sampler keys fresh per-context state (and the default context
            // restarts its derived stream at the saved seed).
            instance: pss_core::fresh_backend_id(),
            ctx: QueryCtx::new(seed),
            force_exact,
            poisoned: false,
        })
    }
}

impl SpaceUsage for DpssSampler {
    fn space_words(&self) -> usize {
        // The hierarchy plus whatever the internal default context memoized
        // on this sampler's behalf. Rows memoized in *external* contexts are
        // owned — and must be accounted — by those contexts (the structure
        // cannot see them from `&self`); they are derived data bounded per
        // context by the state cap, not part of the structure's O(n) story.
        let table =
            self.ctx.state_ref::<PlanState>(self.instance).map_or(0, |st| st.table.space_words());
        self.level1.space_words() + table + self.journal.space_words() + 6
    }
}
