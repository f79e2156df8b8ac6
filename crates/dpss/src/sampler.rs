//! [`DpssSampler`] — the public facade over the HALT structure (Theorem 1.1).
//!
//! ## Read/write split
//!
//! Updates (`insert`/`delete`/`set_weight`) take `&mut self`. Queries take
//! **`&self`** plus an explicit [`QueryCtx`] ([`DpssSampler::query_in`] /
//! [`DpssSampler::query_with_total_in`]): the RNG stream, the memoized
//! lookup-table rows, and the plan cache keyed on the total weight `W` all
//! live in the caller's context (keyed by this sampler's instance id), so
//! independent queries can run concurrently over one shared sampler, each
//! on its own context. There is no other query surface: a caller that
//! wants one continuous stream keeps one context and queries through it.

use crate::item::ItemId;
use crate::lookup::LookupTable;
use crate::query::{
    query_certain_into, query_level1_into, scan_into, thresholds_at, FinalLevelMode, QueryAccel,
    QueryFrame, QueryScratch, Thresholds,
};
use crate::snapshot::{level1_from_slab, read_slab, write_slab};
use crate::structure::Level1;
use bignum::{BigUint, Ratio};
use pss_core::fault::{self, Site};
use pss_core::{
    kind, ChangeJournal, CtxRng, Delta, Enc, Handle, OpError, QueryCtx, SnapshotError,
    SnapshotReader, SnapshotWriter, Snapshottable,
};
use wordram::bits::{ceil_log2_u64, floor_log2_u64};
use wordram::SpaceUsage;

/// Floor for the sizing parameter `n₀` so tiny sets get sane group widths and
/// rebuilds don't thrash.
pub(crate) const N0_FLOOR: usize = 16;

/// Most slab slots a flat sampler may hold and still answer queries by
/// scanning them, one coin per item (see [`DpssSampler::query_in`]): twice
/// the size floor, the largest size a default-band sampler reaches before
/// its grow rebuild leaves the floor sizing. Chosen over the floor itself
/// (16) by measuring `rr_sets` throughput with each.
pub const SCAN_SLOTS: usize = 2 * N0_FLOOR;

/// Capacity of a context's plan cache. Sized to hold a whole `query_many`
/// batch of a few dozen distinct totals `W` — a batch larger than the cache
/// evicts its own entries FIFO and never hits.
const PLAN_CACHE: usize = 32;

/// A cached query plan: the exact total weight `W`, its word-sized
/// accelerators, and the level-1 thresholds — everything about a query that
/// depends only on `W` and the sampler's [`PlanStamp`], so repeated queries
/// at the same `W` skip all multi-word setup. `w` is the cache key.
#[derive(Clone, Debug)]
struct QueryPlan {
    w: Ratio,
    accel: QueryAccel,
    th: Thresholds,
}

/// `(Σw, n⁺, g₁, force_exact)`: the sampler state a context's plans were
/// built under. A plan is a pure function of its `W`, `n⁺` and the level-1
/// group width `g₁` (the thresholds) and the fast-path flag (the
/// accelerators). `Σw` is in the stamp too: a plan does not read it, but a
/// moved `Σw` moves the `W` of every `(α, β)` a caller asks, so the old
/// plans would only crowd the cache.
type PlanStamp = (u128, usize, u32, bool);

/// The read-path scratch a [`DpssSampler`] parks in a [`QueryCtx`]: the
/// memoized lookup-table rows, the plan cache keyed on exact `W` with its
/// hit/miss counters, and the query's buffers. One entry per (context,
/// sampler instance) pair — contexts never share plans across samplers.
///
/// The buffers make a warm query allocation-free apart from the `Vec` it
/// returns: every level of the hierarchy appends into them, they keep their
/// capacity from query to query, and the sample is copied out of `items`
/// once, at its exact length (no allocation at all when it is empty).
///
/// The cache checks its own validity: it remembers the [`PlanStamp`] its
/// plans were built under and drops them all when the sampler's stamp has
/// moved. It never reads the [`ChangeJournal`]. Churn that leaves the stamp
/// alone (a weight-neutral delete and reinsert, a rebuild that keeps
/// `g₁`) keeps every plan, and only a modulus change rebuilds the table.
#[derive(Debug)]
pub(crate) struct PlanState {
    pub(crate) table: LookupTable,
    /// Cached plans, oldest first.
    plans: Vec<QueryPlan>,
    /// The stamp `plans` were built under.
    stamp: PlanStamp,
    /// Proxy and candidate buffers of levels 2 and 3.
    scratch: QueryScratch,
    /// Level-1 output, copied out as the returned sample.
    items: Vec<ItemId>,
    hits: u64,
    misses: u64,
}

impl PlanState {
    fn new(modulus: u32, stamp: PlanStamp) -> Self {
        PlanState {
            table: LookupTable::new(modulus),
            plans: Vec::new(),
            stamp,
            scratch: QueryScratch::default(),
            items: Vec::new(),
            hits: 0,
            misses: 0,
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

/// `⌊log2 n_cap⌋` for `n_cap = n₀·k + 1`: a rebuild fires as soon as the
/// size leaves `[n₀/k, k·n₀]`, so no level-1 bucket holds more than `n_cap`
/// items before the next one — the bound the level-2 windows are sized
/// for ([`crate::structure::Hierarchy::count_bits`]).
fn count_bits(n0: usize, rebuild_factor: usize) -> u32 {
    floor_log2_u64(n0.saturating_mul(rebuild_factor).saturating_add(1) as u64)
}

/// Dynamic Parameterized Subset Sampling over integer-weighted items.
///
/// Implements the paper's Theorem 1.1 bounds with amortized updates: O(n)
/// preprocessing ([`DpssSampler::from_weights`]), O(1) amortized updates
/// ([`DpssSampler::insert`] / [`DpssSampler::delete`]: the standard global
/// rebuilds of §4.5 are paid for across the updates between them), O(1 + μ)
/// expected query time ([`DpssSampler::query_in`]), and O(n) words of space
/// at all times. [`crate::DeamortizedDpss`] spreads the rebuilds out for
/// worst-case O(1) updates.
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
    /// The change journal: every item-set mutation records a [`Delta`] and
    /// structural rebuilds record [`Delta::Rebuilt`]. Queries never read it
    /// (a [`PlanState`] checks its own stamp), so it keeps no delta ring
    /// unless one is attached ([`DpssSampler::attach_journal_ring`]).
    journal: ChangeJournal,
    /// Process-unique id keying this sampler's state inside any [`QueryCtx`].
    instance: u64,
    /// Disables the word-level fast path (all coins exact; agreement tests).
    force_exact: bool,
    /// Set while a `&mut` update is mid-cascade and cleared on completion: a
    /// panic (or injected fault) inside the cascade leaves it stuck `true`,
    /// and every later update is refused with [`OpError::Poisoned`].
    poisoned: bool,
}

impl DpssSampler {
    /// Creates an empty sampler. The seed is ignored — queries draw from the
    /// caller's [`QueryCtx`] — and kept so every backend seeds alike
    /// (`SeedableBackend::with_seed`).
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

    /// Creates an empty sampler sized for `n` upcoming insertions (the seed
    /// is ignored; see [`DpssSampler::new`]).
    pub fn with_capacity_seed(n: usize, _seed: u64) -> Self {
        let n0 = n.max(N0_FLOOR);
        let (g1, g2) = derive_widths(n0);
        let rebuild_factor = 2;
        DpssSampler {
            level1: Level1::sized(g1, g2, count_bits(n0, rebuild_factor)),
            n0,
            final_mode: FinalLevelMode::default(),
            rebuilds: 0,
            rebuild_factor,
            journal: ChangeJournal::ringless_at(0),
            instance: pss_core::fresh_backend_id(),
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
    /// Cached plans bake the flag into their accelerators, so a flip drops
    /// them: the flag is part of the stamp `(Σw, n⁺, g₁, force_exact)` each
    /// context checks its plans against.
    pub fn set_force_exact(&mut self, force_exact: bool) {
        self.force_exact = force_exact;
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
        // A wider band lets bucket counts grow further before the next
        // rebuild: widen the level-2 windows to match.
        self.level1.set_count_bits(count_bits(self.n0, k));
    }

    /// Rows materialized in this sampler's lookup table inside `ctx` so far
    /// (ablation A3; each context memoizes its own rows).
    pub fn lookup_rows_built(&self, ctx: &QueryCtx) -> u64 {
        ctx.state_ref::<PlanState>(self.instance).map_or(0, |st| st.table.rows_built())
    }

    /// `(hits, misses, refreshes)` of this sampler's plan cache inside `ctx`
    /// (each context keeps its own cache): a *hit* answers a query from a
    /// cached plan for its exact `W` (no threshold or accelerator setup),
    /// and a *miss* builds and caches a fresh plan. *Refreshes* always read
    /// 0: a plan is never re-derived in place, and a moved stamp turns the
    /// next query at every `W` into a miss. The count stays in the tuple
    /// for the readers of perfbench's `dpss.sampler.plan_*` metrics.
    /// Degenerate `W = 0` queries bypass the cache and count as neither,
    /// and so does every query of a scan sampler, which keeps no plan: its
    /// stats read `(0, 0, 0)`.
    pub fn plan_cache_stats_in(&self, ctx: &QueryCtx) -> (u64, u64, u64) {
        ctx.state_ref::<PlanState>(self.instance).map_or((0, 0, 0), |st| (st.hits, st.misses, 0))
    }

    /// The sampler's change journal (shared epoch-delta protocol surface).
    /// Its epoch counts every mutation; it retains deltas only once a ring
    /// is attached ([`DpssSampler::attach_journal_ring`]), and until then
    /// answers every lagging [`ChangeJournal::catch_up`] with
    /// [`pss_core::Replay::TooOld`].
    pub fn journal(&self) -> &ChangeJournal {
        &self.journal
    }

    /// Makes the journal retain up to `capacity ≥ 1` deltas from now on:
    /// for a caller that replays them, such as a write-ahead log bridging a
    /// snapshot to the present through [`pss_core::recover`]. Queries never
    /// read the ring, and a sampler without one (the default) pays neither
    /// its memory nor its appends.
    pub fn attach_journal_ring(&mut self, capacity: usize) {
        self.journal.attach_ring(capacity);
    }

    /// Eagerly materializes every lookup-table row of configuration dimension
    /// `k` in `ctx` — the paper's O(n₀) preprocessing mode (ablation A3).
    /// Bounded to small `(m+1)^k`; the default is lazy memoization.
    pub fn eager_lookup(&self, ctx: &mut QueryCtx, k: usize) {
        let (_, st) = self.plan_state(ctx);
        st.table.build_all(k);
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
        self.reserve_for(self.len());
    }

    /// Sizes the structure for a count of `n_final` items, firing **at most
    /// one** rebuild if that count leaves the band. `maybe_rebuild` asks it
    /// for the current count after each update; a batch asks for its final
    /// count up front, so a bulk load performs zero intermediate rebuilds.
    #[inline]
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
        self.level1.rebuild(g1, g2, count_bits(n0, self.rebuild_factor), compact);
        // Failpoint between the structural rebuild and its journal entry: a
        // crash here leaves a rebuilt hierarchy the journal knows nothing
        // about — recovery must converge through replay, not the journal.
        fault::fail_point_unwind(Site::RebuildMid);
        // A structural journal entry: no delta replays across a rebuild.
        // Contexts see a moved g₁ in their plan stamp and re-derive their
        // memoized tables lazily when the modulus changed (`plan_state`).
        self.journal.record_rebuilt();
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

    /// This sampler's [`PlanState`] inside `ctx` (created on first use, its
    /// plans dropped if the stamp moved, its lookup table re-derived if a
    /// rebuild changed the modulus), returned together with the context's
    /// RNG so the query can hold both mutably.
    fn plan_state<'c>(&self, ctx: &'c mut QueryCtx) -> (&'c mut CtxRng, &'c mut PlanState) {
        let l1 = &self.level1;
        let modulus = l1.l2_group_width;
        let stamp = (l1.total_weight, l1.n_positive, l1.group_width, self.force_exact);
        let (rng, st) = ctx.state(self.instance, || PlanState::new(modulus, stamp));
        if st.stamp != stamp {
            st.plans.clear();
            st.stamp = stamp;
        }
        if st.table.modulus() != modulus {
            st.table = LookupTable::new(modulus);
        }
        (rng, st)
    }

    /// Answers one PSS query with parameters `(α, β)` in O(1 + μ) expected
    /// time on a **shared** receiver: returns a subset containing each item
    /// `x` independently with probability exactly `min(w(x)/W_S(α,β), 1)`,
    /// drawing randomness and cached read-path state from `ctx`. It is
    /// [`DpssSampler::query_with_total_in`] at `W = α·Σw + β`.
    ///
    /// Convention for `W_S(α,β) = 0` (e.g. `α = β = 0`): every positive-weight
    /// item has probability 1 (the limit of `w/W` as `W → 0+`) and zero-weight
    /// items have probability 0.
    ///
    /// A *scan sampler* — flat ([`Level1::is_flat`]) with a slab of at most
    /// [`SCAN_SLOTS`] slots — skips the hierarchy: it flips one exact
    /// `Ber(min(1, w_x/W))` coin per positive item and returns the accepted
    /// items in slot order. With at most `SCAN_SLOTS` slots that is O(1)
    /// work, and for the few items such a sampler holds it costs less than
    /// level 1's per-bucket setup. It keeps no state in `ctx`: `W` and its
    /// accelerators are a few word operations while `W`'s parts fit in two
    /// words, so each query forms them afresh and draws from `ctx`'s stream
    /// alone. A flat sampler whose slab outgrew the bound (deletes leave its
    /// high-water mark) keeps the hierarchy.
    ///
    /// Every other sampler keeps a plan cache in `ctx`, keyed on the exact
    /// `W` (its numerator and denominator) and dropped whenever the stamp
    /// `(Σw, n⁺, g₁, force_exact)` moves, so `W`'s fast-path accelerators
    /// and the level-1 thresholds are computed once per (`W`, stamp,
    /// context) rather than per query: two `(α, β)` pairs that form the
    /// same `W` share one plan. While `W`'s parts fit in two words, a hit
    /// allocates nothing but the returned `Vec`; so does a scan sampler's
    /// every query.
    pub fn query_in(&self, ctx: &mut QueryCtx, alpha: &Ratio, beta: &Ratio) -> Vec<ItemId> {
        self.query_with_total_in(ctx, &self.param_weight(alpha, beta))
    }

    /// Answers a PSS query against an externally supplied total weight `w`
    /// on a shared receiver: each item `x` is included independently with
    /// probability `min(w(x)/w, 1)`. This is the `(0, W)` form the hierarchy
    /// uses internally (§4.1) and the one every query runs through; it also
    /// lets several samplers share one global `W` (the de-amortized
    /// structure queries both migration halves with the union's `W`). It
    /// follows [`DpssSampler::query_in`] in every respect: the `w = 0`
    /// convention, the scan, and the plan cache.
    pub fn query_with_total_in(&self, ctx: &mut QueryCtx, w: &Ratio) -> Vec<ItemId> {
        let mut out = Vec::new();
        self.sample(ctx, w, &mut out, |id| id);
        out
    }

    /// `true` iff this is a *scan sampler*: flat, so a query never reads a
    /// level-2/3 node, and holding at most [`SCAN_SLOTS`] slab slots.
    fn scans(&self) -> bool {
        self.level1.is_flat() && self.level1.slab.slot_count() <= SCAN_SLOTS
    }

    /// The one query body, behind [`DpssSampler::query_with_total_in`], the
    /// facade's `query_into` and both halves of [`crate::DeamortizedDpss`]:
    /// `w = 0` samples every positive item, a scan sampler scans
    /// ([`DpssSampler::scan`]), and any other sampler looks up or builds the
    /// context's plan for `w` and runs Algorithm 1 at level 1 under it.
    /// Appends `map` of each sampled item to `out`, growing it at most once;
    /// on a scan or a plan hit nothing else allocates. The slot bound keeps
    /// a flat sampler whose slab outgrew `n` (a high-water mark left by
    /// deletes, or a wide [`DpssSampler::set_rebuild_factor`]) on the
    /// hierarchy, where the cost stays O(1 + μ).
    pub(crate) fn sample<T>(
        &self,
        ctx: &mut QueryCtx,
        w: &Ratio,
        out: &mut Vec<T>,
        map: impl FnMut(ItemId) -> T,
    ) {
        if w.is_zero() {
            return query_certain_into(&self.level1, 0, out, map);
        }
        if self.scans() {
            let accel = QueryAccel::new(w, !self.force_exact);
            return self.scan(ctx.rng(), w, &accel, out, map);
        }
        let (rng, st) = self.plan_state(ctx);
        let idx = match st.plans.iter().position(|p| p.w == *w) {
            Some(i) => {
                st.hits += 1;
                i
            }
            None => {
                st.misses += 1;
                if st.plans.len() >= PLAN_CACHE {
                    st.plans.remove(0);
                }
                st.plans.push(self.make_plan(w.clone()));
                st.plans.len() - 1
            }
        };
        // pss-lint: allow(no-bare-index) — idx is position() over st.plans or len() - 1 after a push
        let plan = &st.plans[idx];
        let mut frame = QueryFrame {
            rng,
            w: &plan.w,
            accel: plan.accel,
            table: &mut st.table,
            final_mode: self.final_mode,
        };
        let _guard = self.force_exact.then(randvar::exact_mode_guard);
        st.items.clear();
        query_level1_into(&self.level1, &mut frame, &plan.th, &mut st.scratch, &mut st.items);
        out.extend(st.items.iter().copied().map(map));
    }

    /// A scan sampler's query under a resolved `W > 0`: walks the slab
    /// records in slot order and decides each positive item by one plain
    /// inclusion coin (`scan_into` in [`crate::query`]). With at most
    /// [`SCAN_SLOTS`] slots that is O(1) work — and for the few items such a
    /// sampler holds, fewer coins than the fixed cost of the level-1
    /// machinery (a bucket descriptor and a first-index draw per non-empty
    /// bucket) it replaces. It reads no context state: the sample is staged
    /// on the stack and appended to `out`, growing it at most once.
    fn scan<T>(
        &self,
        rng: &mut CtxRng,
        w: &Ratio,
        accel: &QueryAccel,
        out: &mut Vec<T>,
        map: impl FnMut(ItemId) -> T,
    ) {
        let _guard = self.force_exact.then(randvar::exact_mode_guard);
        let mut staged = [ItemId::from_raw(0); SCAN_SLOTS];
        let mut n = 0;
        scan_into(&self.level1.slab, rng, w, accel, |id| {
            // One entry per live slot at most, and a scan sampler has at
            // most SCAN_SLOTS slots.
            if let Some(slot) = staged.get_mut(n) {
                *slot = id;
                n += 1;
            }
        });
        out.extend(staged.iter().take(n).copied().map(map));
    }

    /// Builds the cached plan for a non-zero total weight `w`.
    fn make_plan(&self, w: Ratio) -> QueryPlan {
        let accel = QueryAccel::new(&w, !self.force_exact);
        let n = self.level1.n_positive.max(1);
        let th = thresholds_at(&w, accel.w_ceil_log2, n, self.level1.group_width);
        QueryPlan { w, accel, th }
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
        let level1 = level1_from_slab(slab, g1, g2, count_bits(n0, rebuild_factor))?;
        Ok(DpssSampler {
            level1,
            n0,
            final_mode,
            rebuilds,
            rebuild_factor,
            // The journal resumes at the saved watermark, ring-less like a
            // fresh sampler's: recovery replays a durable journal's suffix
            // from here.
            journal: ChangeJournal::ringless_at(watermark),
            // Process-local identity is deliberately not durable: a restored
            // sampler keys fresh per-context state.
            instance: pss_core::fresh_backend_id(),
            force_exact,
            poisoned: false,
        })
    }
}

impl SpaceUsage for DpssSampler {
    fn space_words(&self) -> usize {
        // The hierarchy alone. Rows memoized in a context are owned — and
        // must be accounted — by that context; they are derived data bounded
        // per context by the state cap, not part of the structure's O(n)
        // story. The inline struct (the level-1 structure and the journal
        // embedded) plus the heap both of them hold: the boxed hierarchy
        // above the flat floor, and the journal's ring if one is attached.
        std::mem::size_of::<Self>().div_ceil(8)
            + self.level1.heap_words()
            + self.journal.heap_words()
    }
}
