//! De-amortized global rebuilding (§4.5's closing remark).
//!
//! [`DpssSampler`] rebuilds in one O(n) burst when the size leaves
//! `[n₀/2, 2·n₀]` — O(1) *amortized* updates. The paper notes the bound can be
//! de-amortized "by applying the same technique for the de-amortization of
//! dynamic arrays, just increasing the space consumption by a constant
//! factor". [`DeamortizedDpss`] implements that technique: when the size
//! drifts past a trigger ratio, a *successor* sampler is created and a fixed
//! number of items migrate per subsequent update, so no single operation ever
//! pays more than O([`MIGRATION_BATCH`]) structure work.
//!
//! Every bookkeeping step is O(1) worst-case too, not just the hierarchy
//! work. In particular there are **no hash tables** anywhere on the update
//! path (a hash map's occasional full rehash would reintroduce exactly the
//! O(n) spike this structure exists to remove):
//!
//! - handles are generational slab ids into a plain `Vec` of entries;
//! - residence rosters (`roster_old` / `roster_new`) are swap-remove vectors
//!   with back-pointers, so opening an epoch inherits the old-resident list
//!   by `mem::swap` instead of an O(n) scan;
//! - residence itself is an epoch *stamp* compared against the current epoch
//!   counter, so completing an epoch never rewrites per-item state;
//! - reverse maps (`ItemId` slot → handle) are dense vectors, so query
//!   results translate back to handles in O(output), not O(n).
//!
//! The remaining amortization is `Vec` doubling — a raw `memcpy`, itself
//! de-amortizable by the standard two-array trick; we document rather than
//! implement that last turtle.
//!
//! During a migration epoch items live in either the old or the new sampler.
//! Queries stay exact because the PSS probability only depends on the *global*
//! `W = α·(Σw_old + Σw_new) + β`: both halves are queried with the shared `W`
//! via [`DpssSampler::query_with_total_in`], and the union of two independent
//! per-item Bernoulli processes over a partition of `S` is exactly the PSS
//! process over `S`.
//!
//! [`DeamortizedDpss`] is driven through the [`PssBackend`] facade alone: its
//! updates are the trait's `try_*` bodies (the panicking `insert`/`delete`
//! are the trait's provided wrappers, and `set_weight` is the provided
//! delete + insert), its handles are [`pss_core::Handle`]s packing
//! `gen << 32 | slot`, and its queries are `PssBackend::query_into`.

// pss-lint: allow-file(no-bare-index) — slot and roster indices are generation-checked handles into self-managed arrays; a bad index is a broken epoch invariant, caught by the suite

use crate::item::ItemId;
use crate::sampler::DpssSampler;
use bignum::{BigUint, Ratio};
use pss_core::fault::{self, Site};
use pss_core::{
    kind, ChangeJournal, Delta, Enc, Handle, OpError, PssBackend, QueryCtx, SeedableBackend,
    SnapshotError, SnapshotReader, SnapshotWriter, Snapshottable,
};
use wordram::narrow;

/// Items migrated from the old to the new structure per update during an
/// epoch. Any constant ≥ 3 suffices for the standard doubling analysis
/// (migration finishes before the next trigger can fire).
///
/// Each migrated item is a `delete_frozen` + `insert_frozen` pair, so the
/// batch rides the same allocation-free arena cascade as direct updates —
/// in steady state (constant size, no epoch opening) the whole update path,
/// migration included, performs no heap allocation (see
/// `suite/tests/alloc_free.rs`).
pub const MIGRATION_BATCH: usize = 4;

/// Size-drift ratio that opens a migration epoch.
const TRIGGER_NUM: usize = 3;
const TRIGGER_DEN: usize = 2;

/// The reverse maps' filler for an `ItemId` slot no handle occupies.
const NO_HANDLE: Handle = Handle::from_raw(u64::MAX);

/// The generational handle of slot `idx` (stale handles are rejected,
/// never confused with their slot's next occupant).
#[inline]
fn handle_of(idx: u32, gen: u32) -> Handle {
    Handle::from_raw((u64::from(gen) << 32) | u64::from(idx))
}

/// The slot a handle addresses (what the facade's `slot` answers).
#[inline]
fn handle_idx(h: Handle) -> usize {
    (h.raw() & 0xFFFF_FFFF) as usize
}

#[inline]
fn handle_gen(h: Handle) -> u32 {
    narrow::u32_of_u64(h.raw() >> 32)
}

/// Per-item bookkeeping slot.
#[derive(Clone, Copy, Debug)]
struct Slot {
    id: ItemId,
    /// Epoch stamp: the item is in the *new* sampler iff a migration is in
    /// progress and `epoch` equals the current epoch counter.
    epoch: u64,
    /// Index in the roster matching the item's residence.
    pos: u32,
    gen: u32,
    alive: bool,
}

/// DPSS with worst-case O(1) structure work per update (de-amortized §4.5).
#[derive(Debug)]
pub struct DeamortizedDpss {
    old: DpssSampler,
    /// Successor being populated during a migration epoch.
    new: Option<DpssSampler>,
    /// Entry slab indexed by handle slot.
    slots: Vec<Slot>,
    free: Vec<u32>,
    n_live: usize,
    /// Handles resident in `old` (swap-remove order, back-pointed by `pos`).
    roster_old: Vec<Handle>,
    /// Handles resident in `new` during an epoch.
    roster_new: Vec<Handle>,
    /// `ItemId` slot → handle, for items in `old` (dense vector).
    rev_old: Vec<Handle>,
    /// `ItemId` slot → handle, for items in `new`.
    rev_new: Vec<Handle>,
    /// Size snapshot at the start of the current epoch.
    snapshot: usize,
    /// Disables the word-level query fast path on both halves.
    force_exact: bool,
    /// Incremented each time an epoch *opens*; stamps new-resident entries.
    epoch: u64,
    epochs_done: u64,
    /// Change journal over the *union* handle space (each migration half
    /// additionally keeps its own journal over its internal ids). Like a
    /// [`DpssSampler`]'s, it keeps no delta ring unless one is attached
    /// ([`DeamortizedDpss::attach_journal_ring`]).
    journal: ChangeJournal,
    /// Set while a `&mut` update is mid-flight and cleared on completion: an
    /// unwind (or injected fault) in between leaves it stuck `true`, and
    /// every later update is refused with [`OpError::Poisoned`].
    poisoned: bool,
}

impl DeamortizedDpss {
    /// Creates an empty sampler. The seed is ignored — queries draw from the
    /// caller's [`QueryCtx`] — and kept so every backend seeds alike
    /// (`SeedableBackend::with_seed`).
    pub fn new(seed: u64) -> Self {
        DeamortizedDpss {
            old: DpssSampler::new(seed),
            new: None,
            slots: Vec::new(),
            free: Vec::new(),
            n_live: 0,
            roster_old: Vec::new(),
            roster_new: Vec::new(),
            rev_old: Vec::new(),
            rev_new: Vec::new(),
            snapshot: 0,
            force_exact: false,
            epoch: 0,
            epochs_done: 0,
            journal: ChangeJournal::ringless_at(0),
            poisoned: false,
        }
    }

    #[inline]
    fn ensure_unpoisoned(&self) -> Result<(), OpError> {
        if self.poisoned {
            Err(OpError::Poisoned)
        } else {
            Ok(())
        }
    }

    /// Makes the union journal retain up to `capacity ≥ 1` deltas from now
    /// on (see [`DpssSampler::attach_journal_ring`]).
    pub fn attach_journal_ring(&mut self, capacity: usize) {
        self.journal.attach_ring(capacity);
    }

    /// The slot for a live handle, if any.
    fn live_slot(&self, h: Handle) -> Option<&Slot> {
        let s = self.slots.get(handle_idx(h))?;
        (s.alive && s.gen == handle_gen(h)).then_some(s)
    }

    /// `true` iff `slot` currently resides in the new sampler.
    fn in_new(&self, slot: &Slot) -> bool {
        self.new.is_some() && slot.epoch == self.epoch
    }

    /// Weight of a live item.
    pub fn weight(&self, h: Handle) -> Option<u64> {
        let slot = self.live_slot(h)?;
        if self.in_new(slot) {
            self.new.as_ref()?.weight(slot.id)
        } else {
            self.old.weight(slot.id)
        }
    }

    /// Completed migration epochs.
    pub fn epochs_completed(&self) -> u64 {
        self.epochs_done
    }

    /// `true` iff a migration epoch is in progress.
    pub fn migrating(&self) -> bool {
        self.new.is_some()
    }

    /// The young half: the successor being populated while a migration
    /// epoch is in progress, read-only (`None` between epochs).
    pub fn young(&self) -> Option<&DpssSampler> {
        self.new.as_ref()
    }

    /// Records `handle` in a dense reverse map at `id`'s slot index.
    fn rev_set(rev: &mut Vec<Handle>, id: ItemId, h: Handle) {
        let idx = id.idx();
        if idx >= rev.len() {
            rev.resize(idx + 1, NO_HANDLE);
        }
        rev[idx] = h;
    }

    /// Bulk insert with no migration epoch in flight. Inserts only grow the
    /// live count, so whether *any* prefix of the batch would trip the
    /// trigger reduces to checking the two endpoints. An in-band batch is
    /// bit-identical to a per-item loop (`step` is a no-op inside the band);
    /// a band-crossing batch — the initial-load shape — sizes the primary
    /// once via `reserve_for` and re-baselines `snapshot` on the final
    /// count, which is the state a completed epoch would have reached
    /// without migrating every item through a successor four at a time.
    fn insert_many_settled(&mut self, weights: &[u64]) -> Vec<Handle> {
        debug_assert!(self.new.is_none());
        let base = self.snapshot.max(16);
        let lo = base * TRIGGER_DEN / TRIGGER_NUM;
        let hi = base * TRIGGER_NUM / TRIGGER_DEN;
        let n_after = self.n_live + weights.len();
        let in_band = (self.n_live + 1).max(16) >= lo && n_after.max(16) <= hi;
        if !in_band {
            self.old.reserve_for(self.old.len() + weights.len());
        }
        let ids = self.old.insert_many_frozen(weights);
        let handles: Vec<Handle> = ids.iter().map(|&id| self.issue_handle(id)).collect();
        if !in_band {
            self.snapshot = self.n_live;
        }
        handles
    }

    /// The body of [`DeamortizedDpss::try_insert`] minus the journal entry.
    fn insert_inner(&mut self, weight: u64) -> Handle {
        // Route to the successor while migrating, else to the primary.
        let id = match &mut self.new {
            Some(new) => new.insert_frozen(weight),
            None => self.old.insert_frozen(weight),
        };
        let h = self.issue_handle(id);
        self.step();
        h
    }

    /// Gives the just-inserted item `id` a handle: pops a free slot (or
    /// pushes one), stamps it live under the current epoch, records it in
    /// the reverse map and roster of the half it lives in (the successor
    /// while migrating, else the primary) and counts it.
    fn issue_handle(&mut self, id: ItemId) -> Handle {
        let epoch = self.epoch;
        let (idx, gen) = if let Some(idx) = self.free.pop() {
            let s = &mut self.slots[idx as usize];
            debug_assert!(!s.alive);
            (idx, s.gen)
        } else {
            let idx = narrow::u32_of_usize(self.slots.len());
            assert!(idx != u32::MAX, "handle space exhausted");
            self.slots.push(Slot { id, epoch, pos: 0, gen: 0, alive: false });
            (idx, 0)
        };
        let h = handle_of(idx, gen);
        let (rev, roster) = if self.new.is_some() {
            (&mut self.rev_new, &mut self.roster_new)
        } else {
            (&mut self.rev_old, &mut self.roster_old)
        };
        Self::rev_set(rev, id, h);
        roster.push(h);
        let pos = narrow::u32_of_usize(roster.len() - 1);
        self.slots[idx as usize] = Slot { id, epoch, pos, gen, alive: true };
        self.n_live += 1;
        h
    }

    /// Disables (`true`) or re-enables the word-level query fast path on both
    /// halves and any future migration successor (force-exact mode; the
    /// sampled distribution is unchanged either way).
    pub fn set_force_exact(&mut self, force_exact: bool) {
        self.force_exact = force_exact;
        self.old.set_force_exact(force_exact);
        if let Some(new) = &mut self.new {
            new.set_force_exact(force_exact);
        }
    }

    /// Advances the epoch machinery by one update's worth of work.
    fn step(&mut self) {
        if self.new.is_none() {
            let n = self.n_live.max(16);
            let lo = self.snapshot.max(16) * TRIGGER_DEN / TRIGGER_NUM;
            let hi = self.snapshot.max(16) * TRIGGER_NUM / TRIGGER_DEN;
            if n < lo || n > hi {
                // Open an epoch: successor sized for the current n. The
                // old-resident roster is already materialized — no scan.
                self.epoch += 1;
                let mut successor = DpssSampler::with_capacity_seed(n, 0);
                successor.set_force_exact(self.force_exact);
                self.new = Some(successor);
                debug_assert!(self.roster_new.is_empty());
            } else {
                return;
            }
        }
        // Migrate up to MIGRATION_BATCH items from the tail of the old roster.
        for _ in 0..MIGRATION_BATCH {
            let Some(&h) = self.roster_old.last() else { break };
            // pss-lint: allow(no-panic-paths) — h was popped from the migration roster, which holds only live handles (delete removes them)
            let slot = *self.live_slot(h).expect("roster lists live handles");
            debug_assert!(!self.in_new(&slot));
            self.roster_old.pop();
            // pss-lint: allow(no-panic-paths) — the roster entry guarantees the item is still frozen in `old`; migration is the only remover
            let w = self.old.delete_frozen(slot.id).expect("pending item vanished");
            // pss-lint: allow(no-panic-paths) — step() is only called while an epoch is open, i.e. `new` is Some
            let new = self.new.as_mut().expect("step only migrates inside an epoch");
            let new_id = new.insert_frozen(w);
            Self::rev_set(&mut self.rev_new, new_id, h);
            self.roster_new.push(h);
            let s = &mut self.slots[handle_idx(h)];
            s.id = new_id;
            s.epoch = self.epoch;
            s.pos = narrow::u32_of_usize(self.roster_new.len() - 1);
        }
        if self.roster_old.is_empty() {
            // Epoch complete: the successor becomes the structure. All O(1):
            // the roster/rev-map vectors move wholesale and the epoch stamps
            // keep meaning "old" because `new` is now `None`.
            debug_assert!(self.old.is_empty(), "roster drained but items remain");
            // pss-lint: allow(no-panic-paths) — complete_epoch runs only after step() drained a roster, which requires an open epoch
            self.old = self.new.take().expect("completing a missing epoch");
            self.roster_old = std::mem::take(&mut self.roster_new);
            std::mem::swap(&mut self.rev_old, &mut self.rev_new);
            // The retired half's state in callers' contexts is dead; their
            // bounded state areas age it out FIFO.
            self.snapshot = self.n_live;
            self.epochs_done += 1;
        }
    }

    /// Validates both halves, the rosters, and the handle slab (test hook).
    pub fn validate(&self) {
        self.old.validate();
        if let Some(new) = &self.new {
            new.validate();
        }
        assert_eq!(
            self.roster_old.len() + self.roster_new.len(),
            self.n_live,
            "rosters out of sync with live count"
        );
        let mut live_seen = 0usize;
        for (idx, slot) in self.slots.iter().enumerate() {
            if !slot.alive {
                continue;
            }
            live_seen += 1;
            let h = handle_of(narrow::u32_of_usize(idx), slot.gen);
            let (roster, rev, alive) = if self.in_new(slot) {
                // pss-lint: allow(no-panic-paths) — in_new(slot) returned true, which by the epoch invariant means `new` is Some
                let new = self.new.as_ref().expect("in_new without successor");
                (&self.roster_new, &self.rev_new, new.contains(slot.id))
            } else {
                (&self.roster_old, &self.rev_old, self.old.contains(slot.id))
            };
            assert!(alive, "handle {h} maps to dead item");
            assert_eq!(roster[slot.pos as usize], h, "handle {h}: bad roster back-pointer");
            assert_eq!(rev[slot.id.idx()], h, "handle {h}: bad reverse map");
        }
        assert_eq!(live_seen, self.n_live);
        let live = self.old.len() + self.new.as_ref().map_or(0, |s| s.len());
        assert_eq!(live, self.n_live);
        if self.new.is_none() {
            assert!(self.roster_new.is_empty());
        }
    }
}

impl PssBackend for DeamortizedDpss {
    /// Inserts an item; O(MIGRATION_BATCH) worst-case structure work.
    /// Refuses to run on a poisoned structure, and surfaces injected faults
    /// as typed errors. An unwind (or injected fault) after
    /// routing/migration but before the journal entry leaves the structure
    /// poisoned — and the dying op out of the journal.
    // pss-lint: fault-window — arms self.poisoned across the mutation cascade; recovery is journal replay
    fn try_insert(&mut self, weight: u64) -> Result<Handle, OpError> {
        self.ensure_unpoisoned()?;
        fault::fail_point(Site::InsertEntry).map_err(OpError::Fault)?;
        self.poisoned = true;
        let h = self.insert_inner(weight);
        fault::fail_point(Site::InsertCascade).map_err(OpError::Fault)?;
        self.journal.record(Delta::Inserted { handle: h, weight });
        self.poisoned = false;
        Ok(h)
    }

    /// Inserts a batch of items; the union journal is stamped with **one**
    /// epoch for the whole batch — a bulk load must not wrap the ring out
    /// from under every observing context. The batch journals
    /// all-or-nothing, so a kill anywhere inside the build leaves recovery
    /// replaying none of it.
    ///
    /// With no migration in flight the batch rides the radix-partitioned
    /// bulk build: an in-band batch evolves the structure exactly like a
    /// per-item loop, while a band-crossing batch re-sizes the primary once
    /// and re-baselines the trigger snapshot — O(batch) for the batch op,
    /// with the per-update O([`MIGRATION_BATCH`]) worst case unchanged for
    /// every single-item operation. Mid-migration batches fall back to the
    /// per-item path so the epoch keeps draining at its guaranteed pace.
    // pss-lint: fault-window — arms self.poisoned across the mutation cascade; recovery is journal replay
    fn try_insert_many(&mut self, weights: &[u64]) -> Result<Vec<Handle>, OpError> {
        self.ensure_unpoisoned()?;
        fault::fail_point(Site::BulkEntry).map_err(OpError::Fault)?;
        if weights.is_empty() {
            return Ok(Vec::new());
        }
        self.poisoned = true;
        let handles: Vec<Handle> = if self.new.is_some() {
            weights.iter().map(|&w| self.insert_inner(w)).collect()
        } else {
            self.insert_many_settled(weights)
        };
        self.journal.record_batch(
            handles.iter().zip(weights).map(|(&h, &w)| Delta::Inserted { handle: h, weight: w }),
        );
        self.poisoned = false;
        Ok(handles)
    }

    /// Deletes an item; O(MIGRATION_BATCH) worst-case structure work (see
    /// [`DeamortizedDpss::try_insert`] for the poisoning contract). Stale
    /// handles return `Ok(false)` without touching — or poisoning —
    /// anything.
    // pss-lint: fault-window — arms self.poisoned across the mutation cascade; recovery is journal replay
    fn try_delete(&mut self, h: Handle) -> Result<bool, OpError> {
        self.ensure_unpoisoned()?;
        fault::fail_point(Site::DeleteEntry).map_err(OpError::Fault)?;
        let Some(&slot) = self.live_slot(h) else {
            return Ok(false);
        };
        self.poisoned = true;
        let in_new = self.in_new(&slot);
        let idx = handle_idx(h);
        self.slots[idx].alive = false;
        self.slots[idx].gen = self.slots[idx].gen.wrapping_add(1);
        self.free.push(narrow::u32_of_usize(idx));
        self.n_live -= 1;
        let w = if in_new {
            // pss-lint: allow(no-panic-paths) — in_new(slot) returned true, which by the epoch invariant means `new` is Some
            self.new.as_mut().expect("in_new implies a successor").delete_frozen(slot.id)
        } else {
            self.old.delete_frozen(slot.id)
        };
        debug_assert!(w.is_some(), "slot/sampler desync");
        // Patch the roster hole in O(1).
        let roster = if in_new { &mut self.roster_new } else { &mut self.roster_old };
        let pos = slot.pos as usize;
        roster.swap_remove(pos);
        if pos < roster.len() {
            let moved = roster[pos];
            self.slots[handle_idx(moved)].pos = narrow::u32_of_usize(pos);
        }
        fault::fail_point(Site::DeleteCascade).map_err(OpError::Fault)?;
        self.journal.record(Delta::Deleted { handle: h });
        self.step();
        self.poisoned = false;
        Ok(true)
    }

    /// One PSS query over the union of both halves, old half first, on a
    /// **shared** receiver. O(1 + μ) expected — handle translation is by
    /// dense reverse maps.
    fn query_into(&self, ctx: &mut QueryCtx, alpha: &Ratio, beta: &Ratio, out: &mut Vec<Handle>) {
        let w = alpha.mul_big(&BigUint::from_u128(self.total_weight())).add(beta);
        self.old.sample(ctx, &w, out, |id| self.rev_old[id.idx()]);
        if let Some(new) = &self.new {
            new.sample(ctx, &w, out, |id| self.rev_new[id.idx()]);
        }
    }

    fn slot(&self, handle: Handle) -> usize {
        handle_idx(handle)
    }

    // `query_many` uses the trait's default batch-stream loop. Hoisting the
    // per-query Σw → BigUint conversion out of a batch would save a handful
    // of word ops — not worth a second copy of the per-index stream
    // discipline that makes batch answers index-deterministic.

    fn len(&self) -> usize {
        self.n_live
    }

    /// Exact total weight across both halves.
    fn total_weight(&self) -> u128 {
        self.old.total_weight() + self.new.as_ref().map_or(0, |s| s.total_weight())
    }

    fn name(&self) -> &'static str {
        "halt-deam"
    }

    /// The union journal: stable union-handle deltas. Migration itself is
    /// invisible here — items neither appear nor disappear when they move
    /// between halves.
    fn journal(&self) -> Option<&ChangeJournal> {
        Some(&self.journal)
    }

    fn poisoned(&self) -> bool {
        self.poisoned
    }
}

impl SeedableBackend for DeamortizedDpss {
    fn with_seed(seed: u64) -> Self {
        DeamortizedDpss::new(seed)
    }
}

/// Section tag of the band/epoch scalars inside a [`kind::HALT_DEAM`] image.
const TAG_DEAM: u32 = 1;
/// Section tag of the nested half images (old, and new if migrating).
const TAG_HALVES: u32 = 2;
/// Section tag of the handle slab, free list, and residence rosters.
const TAG_SLOTS: u32 = 3;

impl Snapshottable for DeamortizedDpss {
    fn write_snapshot(&self, out: &mut Vec<u8>) {
        let mut w = SnapshotWriter::new(kind::HALT_DEAM);
        let mut enc = Enc::new();
        enc.put_usize(self.snapshot);
        enc.put_bool(self.force_exact);
        enc.put_u64(self.epoch);
        enc.put_u64(self.epochs_done);
        enc.put_u64(self.journal.epoch());
        enc.put_bool(self.new.is_some());
        w.section(TAG_DEAM, enc);
        // Each migration half is a complete nested HALT image — framing,
        // CRCs, and all — so the halves load through the same validated path
        // as a standalone sampler.
        let mut halves = Enc::new();
        halves.put_bytes(&self.old.snapshot());
        if let Some(new) = &self.new {
            halves.put_bytes(&new.snapshot());
        }
        w.section(TAG_HALVES, halves);
        let mut slots = Enc::new();
        slots.put_usize(self.slots.len());
        for s in &self.slots {
            slots.put_u64(s.id.raw());
            slots.put_u64(s.epoch);
            slots.put_u32(s.pos);
            slots.put_u32(s.gen);
            slots.put_bool(s.alive);
        }
        slots.put_usize(self.free.len());
        for &idx in &self.free {
            slots.put_u32(idx);
        }
        slots.put_usize(self.roster_old.len());
        for &h in &self.roster_old {
            slots.put_u64(h.raw());
        }
        slots.put_usize(self.roster_new.len());
        for &h in &self.roster_new {
            slots.put_u64(h.raw());
        }
        w.section(TAG_SLOTS, slots);
        w.finish(out);
    }

    fn from_snapshot(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let r = SnapshotReader::new(bytes, kind::HALT_DEAM)?;
        let mut dec = r.section(TAG_DEAM)?;
        let snapshot = dec.get_usize()?;
        let force_exact = dec.get_bool()?;
        let epoch = dec.get_u64()?;
        let epochs_done = dec.get_u64()?;
        let watermark = dec.get_u64()?;
        let has_new = dec.get_bool()?;
        dec.finish()?;
        // The trigger band multiplies the snapshot count; an absurd value
        // would overflow the band arithmetic, so reject it as corrupt.
        if snapshot > u32::MAX as usize {
            return Err(SnapshotError::Invalid("epoch size snapshot out of range"));
        }
        let mut halves = r.section(TAG_HALVES)?;
        let old = DpssSampler::from_snapshot(halves.get_bytes()?)?;
        let new =
            if has_new { Some(DpssSampler::from_snapshot(halves.get_bytes()?)?) } else { None };
        halves.finish()?;
        let mut sdec = r.section(TAG_SLOTS)?;
        let n_slots = sdec.get_usize()?;
        let mut slots = Vec::new();
        for _ in 0..n_slots {
            let id = ItemId::from_raw(sdec.get_u64()?);
            let slot_epoch = sdec.get_u64()?;
            let pos = sdec.get_u32()?;
            let gen = sdec.get_u32()?;
            let alive = sdec.get_bool()?;
            slots.push(Slot { id, epoch: slot_epoch, pos, gen, alive });
        }
        let n_free = sdec.get_usize()?;
        let mut free = Vec::new();
        let mut in_free = vec![false; slots.len()];
        for _ in 0..n_free {
            let idx = sdec.get_u32()?;
            let slot = slots
                .get(idx as usize)
                .ok_or(SnapshotError::Invalid("free-list entry out of range"))?;
            if slot.alive {
                return Err(SnapshotError::Invalid("free-list entry is a live slot"));
            }
            let seen =
                in_free.get_mut(idx as usize).ok_or(SnapshotError::Invalid("free index range"))?;
            if *seen {
                return Err(SnapshotError::Invalid("free-list entry repeated"));
            }
            *seen = true;
            free.push(idx);
        }
        let n_live = slots.iter().filter(|s| s.alive).count();
        if n_free != slots.len() - n_live {
            return Err(SnapshotError::Invalid("dead slots and free list disagree"));
        }
        let read_roster = |sdec: &mut pss_core::Dec<'_>| -> Result<Vec<Handle>, SnapshotError> {
            let len = sdec.get_usize()?;
            let mut roster = Vec::new();
            for _ in 0..len {
                roster.push(Handle::from_raw(sdec.get_u64()?));
            }
            Ok(roster)
        };
        let roster_old = read_roster(&mut sdec)?;
        let roster_new = read_roster(&mut sdec)?;
        sdec.finish()?;
        // Cross-validate the rosters against the slots and the halves: every
        // roster entry must back-point its slot, reside in the right half,
        // and map to a distinct live item there; the counts then prove the
        // mapping is a bijection.
        if roster_old.len() + roster_new.len() != n_live
            || roster_old.len() != old.len()
            || roster_new.len() != new.as_ref().map_or(0, DpssSampler::len)
        {
            return Err(SnapshotError::Invalid("rosters disagree with live counts"));
        }
        let mut rev_old: Vec<Handle> = Vec::new();
        let mut rev_new: Vec<Handle> = Vec::new();
        for (is_new, roster) in [(false, &roster_old), (true, &roster_new)] {
            for (pos, &h) in roster.iter().enumerate() {
                let slot = slots
                    .get(handle_idx(h))
                    .filter(|s| s.alive && s.gen == handle_gen(h))
                    .ok_or(SnapshotError::Invalid("roster entry is not a live handle"))?;
                if slot.pos as usize != pos {
                    return Err(SnapshotError::Invalid("roster back-pointer mismatch"));
                }
                let resident_new = has_new && slot.epoch == epoch;
                if resident_new != is_new {
                    return Err(SnapshotError::Invalid("roster entry in the wrong half"));
                }
                let (half, rev) =
                    if is_new { (new.as_ref(), &mut rev_new) } else { (Some(&old), &mut rev_old) };
                if !half.is_some_and(|s| s.contains(slot.id)) {
                    return Err(SnapshotError::Invalid("roster entry missing from its half"));
                }
                let idx = slot.id.idx();
                if idx >= rev.len() {
                    rev.resize(idx + 1, NO_HANDLE);
                }
                if rev[idx] != NO_HANDLE {
                    return Err(SnapshotError::Invalid("two handles share one item"));
                }
                rev[idx] = h;
            }
        }
        Ok(DeamortizedDpss {
            old,
            new,
            slots,
            free,
            n_live,
            roster_old,
            roster_new,
            rev_old,
            rev_new,
            snapshot,
            force_exact,
            epoch,
            epochs_done,
            // The union journal resumes at the saved watermark, ring-less:
            // recovery replays a durable journal's suffix from here.
            journal: ChangeJournal::ringless_at(watermark),
            poisoned: false,
        })
    }
}

impl wordram::SpaceUsage for DeamortizedDpss {
    fn space_words(&self) -> usize {
        // Slot = {id, epoch} (2 words) + {pos, gen, alive} (1 word).
        self.old.space_words()
            + self.new.as_ref().map_or(0, |s| s.space_words())
            + self.slots.capacity() * 3
            + self.free.capacity().div_ceil(2)
            + self.roster_old.capacity()
            + self.roster_new.capacity()
            + self.rev_old.capacity()
            + self.rev_new.capacity()
            + self.journal.space_words()
            + 6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use randvar::stats::binomial_z;

    #[test]
    fn basic_crud_and_epochs() {
        let mut s = DeamortizedDpss::new(1);
        let mut hs = Vec::new();
        for i in 0..200u64 {
            hs.push(s.insert(i + 1));
            s.validate();
        }
        assert!(s.epochs_completed() >= 1, "growth should complete an epoch");
        assert_eq!(s.len(), 200);
        for h in hs.drain(..150) {
            assert!(s.delete(h));
        }
        s.validate();
        assert_eq!(s.len(), 50);
        assert_eq!(s.total_weight(), hs.iter().map(|&h| s.weight(h).unwrap() as u128).sum());
    }

    #[test]
    fn migration_is_bounded_per_update() {
        // After an epoch opens, `old` shrinks by at most MIGRATION_BATCH + 1
        // per update (the batch plus a routed delete).
        let mut s = DeamortizedDpss::new(2);
        for i in 0..64u64 {
            s.insert(i + 1);
        }
        let mut last = s.old.len();
        for i in 0..200u64 {
            s.insert(i + 1);
            let now = s.old.len();
            assert!(last.saturating_sub(now) <= MIGRATION_BATCH + 1);
            last = now;
        }
    }

    #[test]
    fn epoch_open_and_close_do_no_linear_work() {
        // Structural proxy for the worst-case claim: the rosters never get
        // rebuilt — their combined length always equals the live count, and
        // validate() (which checks every back-pointer) passes at every step
        // across several epochs.
        let mut s = DeamortizedDpss::new(6);
        let mut hs = Vec::new();
        for i in 0..500u64 {
            hs.push(s.insert((i % 97) + 1));
            if i % 37 == 0 && hs.len() > 3 {
                let h = hs.swap_remove((i as usize * 7) % hs.len());
                s.delete(h);
            }
        }
        assert!(s.epochs_completed() >= 2);
        s.validate();
        while let Some(h) = hs.pop() {
            s.delete(h);
            if hs.len() % 50 == 0 {
                s.validate();
            }
        }
        assert!(s.is_empty());
        s.validate();
    }

    #[test]
    fn marginals_exact_mid_migration() {
        // Force an in-progress epoch, then check inclusion probabilities are
        // still exactly w/W across the split.
        let mut s = DeamortizedDpss::new(3);
        let mut ctx = QueryCtx::new(3);
        let hs: Vec<Handle> = (0..40).map(|i| s.insert(1 << (i % 8))).collect();
        // Trigger an epoch and stop mid-migration.
        for _ in 0..30 {
            s.insert(128);
        }
        let migrating = s.migrating();
        let total = s.total_weight() as f64;
        let trials = 30_000u64;
        let mut hits = vec![0u64; hs.len()];
        for _ in 0..trials {
            for h in s.query(&mut ctx, &Ratio::one(), &Ratio::zero()) {
                if let Some(i) = hs.iter().position(|&x| x == h) {
                    hits[i] += 1;
                }
            }
        }
        for (i, &h) in hs.iter().enumerate() {
            let Some(w) = s.weight(h) else { continue };
            let p = (w as f64 / total).min(1.0);
            let z = binomial_z(hits[i], trials, p);
            assert!(z.abs() < 5.0, "item {i} (migrating={migrating}): z = {z}");
        }
    }

    #[test]
    fn bulk_load_re_baselines_and_validates() {
        let mut s = DeamortizedDpss::new(11);
        let ws: Vec<u64> = (0..5000u64).map(|i| (i % 313) + 1).collect();
        let hs = s.insert_many(&ws);
        assert_eq!(s.len(), 5000);
        assert!(!s.migrating(), "a band-crossing bulk load re-baselines instead of migrating");
        s.validate();
        assert_eq!(s.total_weight(), ws.iter().map(|&w| w as u128).sum());
        // The re-baselined band must hold: moderate churn right after the
        // load stays epoch-free.
        for &h in hs.iter().take(100) {
            assert!(s.delete(h));
        }
        assert!(!s.migrating());
        s.validate();
    }

    #[test]
    fn in_band_batch_matches_per_item_loop() {
        let mut a = DeamortizedDpss::new(12);
        let mut a_ctx = QueryCtx::new(12);
        let mut b = DeamortizedDpss::new(12);
        let mut b_ctx = QueryCtx::new(12);
        for w in 1..=100u64 {
            a.insert(w);
            b.insert(w);
        }
        // Drain any in-flight epoch identically on both.
        while a.migrating() || b.migrating() {
            a.insert(1);
            b.insert(1);
        }
        // A batch small enough to stay inside the trigger band must evolve
        // the structure exactly like a per-item loop.
        let batch: Vec<u64> = (0..20u64).map(|i| (i + 3) * 7).collect();
        let ha = a.insert_many(&batch);
        let hb: Vec<Handle> = batch.iter().map(|&w| b.insert(w)).collect();
        assert_eq!(ha, hb);
        a.validate();
        b.validate();
        let qa = a.query(&mut a_ctx, &Ratio::from_u64s(1, 4), &Ratio::zero());
        let qb = b.query(&mut b_ctx, &Ratio::from_u64s(1, 4), &Ratio::zero());
        assert_eq!(qa, qb, "pinned query streams must agree after an in-band batch");
    }

    #[test]
    fn stale_handles_rejected() {
        let mut s = DeamortizedDpss::new(4);
        let h = s.insert(7);
        assert_eq!(s.weight(h), Some(7));
        assert!(s.delete(h));
        assert!(!s.delete(h));
        assert_eq!(s.weight(h), None);
    }

    #[test]
    fn recycled_slots_get_fresh_generations() {
        let mut s = DeamortizedDpss::new(8);
        let h1 = s.insert(5);
        s.delete(h1);
        let h2 = s.insert(9);
        // Slot reuse must not resurrect the stale handle.
        assert_ne!(h1, h2);
        assert_eq!(s.weight(h1), None);
        assert_eq!(s.weight(h2), Some(9));
    }

    #[test]
    fn shrink_epoch_also_fires() {
        let mut s = DeamortizedDpss::new(5);
        let hs: Vec<Handle> = (0..300).map(|i| s.insert(i + 1)).collect();
        let e0 = s.epochs_completed();
        for h in hs {
            s.delete(h);
        }
        s.validate();
        assert!(s.epochs_completed() > e0, "shrink must trigger epochs");
        assert!(s.is_empty());
    }

    #[test]
    // HashSet sanctioned: duplicate detection in a test; only len() is observed.
    #[allow(clippy::disallowed_types)]
    fn query_translates_handles_during_migration() {
        let mut s = DeamortizedDpss::new(7);
        let mut ctx = QueryCtx::new(7);
        let hs: Vec<Handle> = (0..100).map(|_| s.insert(1000)).collect();
        // Mid-migration (an epoch will be in flight for some of this loop),
        // every returned handle must be live and unique.
        for _ in 0..50 {
            let t = s.query(&mut ctx, &Ratio::from_u64s(1, 8), &Ratio::zero());
            let set: std::collections::HashSet<_> = t.iter().collect();
            assert_eq!(set.len(), t.len(), "duplicate handles");
            for h in t {
                assert!(s.weight(h).is_some(), "dead handle {h} returned");
                assert!(hs.contains(&h));
            }
        }
    }
}
