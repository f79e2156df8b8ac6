//! Item storage: a generational slab giving each item a stable [`ItemId`].
//!
//! The paper's item set `S` is a dynamic multiset of (item, weight) pairs;
//! handles must stay valid across arbitrary interleavings of insertions and
//! deletions (and across HALT rebuilds). A generation counter in the handle
//! detects use-after-delete at O(1) cost.

// pss-lint: hot-path — slab lookups/updates sit on every insert/delete/query path
use std::fmt;
use wordram::narrow;

/// A stable handle to an item in a [`crate::DpssSampler`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ItemId(u64);

impl ItemId {
    fn new(idx: u32, gen: u32) -> Self {
        ItemId(((gen as u64) << 32) | idx as u64)
    }

    /// Slot index inside the slab (dense, bounded by the slab's capacity).
    #[inline]
    pub(crate) fn idx(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    #[inline]
    fn gen(self) -> u32 {
        narrow::u32_of_u64(self.0 >> 32)
    }

    /// Raw handle bits (stable, hashable).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Reconstructs a handle from [`ItemId::raw`] bits.
    pub fn from_raw(raw: u64) -> Self {
        ItemId(raw)
    }
}

impl fmt::Debug for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ItemId({}g{})", self.idx(), self.gen())
    }
}

/// One slab slot, packed to 16 bytes (the slab is the update path's hottest
/// random-access array; slimmer records mean fewer cache lines touched).
#[derive(Clone, Copy, Debug)]
struct Rec {
    weight: u64,
    /// Position of this item inside its weight bucket (undefined for weight 0).
    bucket_pos: u32,
    /// `generation << 1 | alive` — 31 generation bits still make handle
    /// collisions need 2^31 reuses of one slot.
    meta: u32,
}

/// Bytes of one serialized slot record: weight u64 + bucket_pos u32 +
/// meta u32, all little-endian (the layout [`Slab::from_raw_parts`] parses
/// and the snapshot codec's `write_slab` emits).
pub(crate) const SLOT_REC_BYTES: usize = 16;

impl Rec {
    #[inline]
    fn alive(&self) -> bool {
        self.meta & 1 == 1
    }

    #[inline]
    fn gen(&self) -> u32 {
        self.meta >> 1
    }
}

/// Generational slab of items.
#[derive(Clone, Debug, Default)]
pub struct Slab {
    recs: Vec<Rec>,
    free: Vec<u32>,
    len: usize,
}

impl Slab {
    /// Empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff no live items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Space in words.
    pub fn space_words(&self) -> usize {
        self.heap_words() + 3
    }

    /// Words of heap the slab holds: the record vector at its allocated
    /// capacity (two words a record) and the free list (half a word a
    /// slot), for owners that account for the inline struct themselves.
    pub fn heap_words(&self) -> usize {
        self.recs.capacity() * 2 + self.free.capacity().div_ceil(2)
    }

    /// Inserts an item, returning its handle.
    pub fn insert(&mut self, weight: u64) -> ItemId {
        self.insert_bucketed(weight, 0)
    }

    /// Pre-sizes the record vector for `n` upcoming insertions beyond what
    /// the free list covers (bulk loads pay one reservation instead of a
    /// doubling chain of record copies).
    pub(crate) fn reserve(&mut self, n: usize) {
        self.recs.reserve(n.saturating_sub(self.free.len()));
    }

    /// Hints that slot `idx` will soon be read (bounds-checked no-op
    /// otherwise) — issued one stride ahead by the query walk so the slab
    /// miss overlaps the acceptance arithmetic.
    #[inline]
    pub(crate) fn prefetch_slot(&self, idx: usize) {
        wordram::prefetch::prefetch_read(&self.recs, idx);
    }

    /// Hints the record that the free list will hand out `ahead` pops from
    /// now (recycled-slot writes during a warm bulk fill are random-access;
    /// peeking the free list turns them into overlapped misses). No-op when
    /// fewer than `ahead + 1` recycled slots remain.
    #[inline]
    pub(crate) fn prefetch_recycled(&self, ahead: usize) {
        if let Some(&idx) = self.free.len().checked_sub(1 + ahead).and_then(|i| self.free.get(i)) {
            wordram::prefetch::prefetch_read(&self.recs, idx as usize);
        }
    }

    /// Inserts an item with its bucket position in one slot write (the
    /// update hot path: one record touch instead of insert + set_bucket_pos).
    pub(crate) fn insert_bucketed(&mut self, weight: u64, bucket_pos: u32) -> ItemId {
        self.len += 1;
        if let Some(idx) = self.free.pop() {
            // pss-lint: allow(no-bare-index) — the free list holds only indices of recycled recs slots
            let rec = &mut self.recs[idx as usize];
            debug_assert!(!rec.alive());
            rec.weight = weight;
            rec.bucket_pos = bucket_pos;
            rec.meta |= 1;
            ItemId::new(idx, rec.gen())
        } else {
            let idx = narrow::u32_of_usize(self.recs.len());
            assert!(idx != u32::MAX, "slab capacity exhausted");
            // pss-lint: allow(no-alloc-hot-path) — fresh-slot tail push only while the slab grows toward its high-water mark; steady state recycles the free list
            self.recs.push(Rec { weight, bucket_pos, meta: 1 });
            ItemId::new(idx, 0)
        }
    }

    /// Fast-path insert for a slab with an **empty free list**: the handle
    /// is always a fresh slot at generation 0, so the recycling branch of
    /// [`Slab::insert_bucketed`] is skipped. Bulk fills call this for the
    /// tail of a batch once [`Slab::free_slots`] recycled slots have been
    /// consumed — the handle sequence is identical to the generic path.
    #[inline]
    pub(crate) fn insert_bucketed_fresh(&mut self, weight: u64, bucket_pos: u32) -> ItemId {
        debug_assert!(self.free.is_empty(), "fresh-path insert with recycled slots pending");
        self.len += 1;
        let idx = narrow::u32_of_usize(self.recs.len());
        assert!(idx != u32::MAX, "slab capacity exhausted");
        // pss-lint: allow(no-alloc-hot-path) — fresh-slot tail push only while the slab grows toward its high-water mark; steady state recycles the free list
        self.recs.push(Rec { weight, bucket_pos, meta: 1 });
        ItemId::new(idx, 0)
    }

    /// Number of recycled slots the next inserts will consume before fresh
    /// slots are appended.
    #[inline]
    pub(crate) fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Removes `id`, returning its weight; `None` if stale or unknown.
    pub fn remove(&mut self, id: ItemId) -> Option<u64> {
        self.remove_bucketed(id).map(|(w, _)| w)
    }

    /// Removes `id`, returning its weight and bucket position in one slot
    /// access (the position is meaningless for zero-weight items).
    pub(crate) fn remove_bucketed(&mut self, id: ItemId) -> Option<(u64, u32)> {
        let rec = self.recs.get_mut(id.idx())?;
        if !rec.alive() || rec.gen() != id.gen() {
            return None;
        }
        // Clear the alive bit and bump the generation (31-bit wrap).
        rec.meta = (rec.meta.wrapping_add(2)) & !1;
        // pss-lint: allow(no-alloc-hot-path) — free-list push; capacity is retained across cycles and bounded by the high-water mark
        self.free.push(narrow::u32_of_usize(id.idx()));
        self.len -= 1;
        Some((rec.weight, rec.bucket_pos))
    }

    /// Overwrites the weight of a live item (bucket bookkeeping is the
    /// caller's job). Returns the old weight, or `None` for stale handles.
    pub(crate) fn set_weight(&mut self, id: ItemId, w: u64) -> Option<u64> {
        let rec = self.recs.get_mut(id.idx())?;
        if !rec.alive() || rec.gen() != id.gen() {
            return None;
        }
        Some(std::mem::replace(&mut rec.weight, w))
    }

    /// Weight of a live item.
    pub fn weight(&self, id: ItemId) -> Option<u64> {
        let rec = self.recs.get(id.idx())?;
        if rec.alive() && rec.gen() == id.gen() {
            Some(rec.weight)
        } else {
            None
        }
    }

    /// `true` iff `id` refers to a live item.
    pub fn contains(&self, id: ItemId) -> bool {
        self.weight(id).is_some()
    }

    /// Bucket position of a live item (caller must know it is bucketed).
    pub(crate) fn bucket_pos(&self, id: ItemId) -> u32 {
        debug_assert!(self.contains(id));
        // pss-lint: allow(no-bare-index) — contains(id) is debug-asserted above; ids are generation-checked slab handles
        self.recs[id.idx()].bucket_pos
    }

    /// Sets the bucket position of a live item.
    pub(crate) fn set_bucket_pos(&mut self, id: ItemId, pos: u32) {
        debug_assert!(self.contains(id));
        // pss-lint: allow(no-bare-index) — contains(id) is debug-asserted above; ids are generation-checked slab handles
        self.recs[id.idx()].bucket_pos = pos;
    }

    /// Number of slots (live + recycled); slot indices range over it.
    pub(crate) fn slot_count(&self) -> usize {
        self.recs.len()
    }

    /// Raw per-slot records `(weight, bucket_pos, meta)` in slot order —
    /// the snapshot codec's verbatim view. Dead slots are included (their
    /// stale weights and generations are part of the durable image: handle
    /// issuance after a restore must match the original exactly).
    pub(crate) fn raw_slots(&self) -> impl Iterator<Item = (u64, u32, u32)> + '_ {
        self.recs.iter().map(|r| (r.weight, r.bucket_pos, r.meta))
    }

    /// The free list in recycling order (the snapshot codec persists it
    /// verbatim so restored slabs pop slots in the original order).
    pub(crate) fn raw_free(&self) -> &[u32] {
        &self.free
    }

    /// Rebuilds a slab from serialized [`Slab::raw_slots`] records (the raw
    /// little-endian byte stream, [`SLOT_REC_BYTES`] per slot) plus the
    /// [`Slab::raw_free`] list. Validates the free list (every entry in
    /// range, unique, and dead; every dead slot listed) so a corrupt image
    /// is rejected instead of producing a slab that double-issues handles.
    /// Parsing bytes here fuses the decode loop straight into the one
    /// `Vec<Rec>` allocation — at 2^20 slots the intermediate tuple vector
    /// this replaces was a measurable slice of load time. The caller has
    /// already bounds-proven `bytes` against the image, so sizing the
    /// vector from its length trusts nothing.
    pub(crate) fn from_raw_parts(bytes: &[u8], free: Vec<u32>) -> Result<Slab, &'static str> {
        if !bytes.len().is_multiple_of(SLOT_REC_BYTES) {
            return Err("slot record stream misaligned");
        }
        // pss-lint: allow(no-alloc-hot-path) — snapshot restore is a cold path; one exact-size build
        let mut recs: Vec<Rec> = Vec::with_capacity(bytes.len() / SLOT_REC_BYTES);
        let mut len = 0usize;
        for rec in bytes.chunks_exact(SLOT_REC_BYTES) {
            // pss-lint: allow(no-bare-index) — chunks_exact yields exactly SLOT_REC_BYTES = 16-byte records
            let weight = u64::from_le_bytes(rec[..8].try_into().map_err(|_| "record width")?);
            // pss-lint: allow(no-bare-index) — chunks_exact yields exactly SLOT_REC_BYTES = 16-byte records
            let bp: [u8; 4] = rec[8..12].try_into().map_err(|_| "record width")?;
            let bucket_pos = u32::from_le_bytes(bp);
            // pss-lint: allow(no-bare-index) — chunks_exact yields exactly SLOT_REC_BYTES = 16-byte records
            let meta = u32::from_le_bytes(rec[12..].try_into().map_err(|_| "record width")?);
            len += (meta & 1) as usize;
            // pss-lint: allow(no-alloc-hot-path) — cold restore path; capacity reserved exactly above
            recs.push(Rec { weight, bucket_pos, meta });
        }
        // pss-lint: allow(no-alloc-hot-path) — cold restore path; one scratch bitmap per restore
        let mut in_free = vec![false; recs.len()];
        for &idx in &free {
            let Some(rec) = recs.get(idx as usize) else {
                return Err("free-list entry out of range");
            };
            if rec.alive() {
                return Err("free-list entry is a live slot");
            }
            // pss-lint: allow(no-bare-index) — idx proved in range by the recs.get() above; in_free.len() == recs.len()
            let seen = &mut in_free[idx as usize];
            if *seen {
                return Err("free-list entry repeated");
            }
            *seen = true;
        }
        if free.len() != recs.len() - len {
            return Err("dead slots and free list disagree");
        }
        Ok(Slab { recs, free, len })
    }

    /// The live item in slot `idx`, if any (index-based scan for rebuilds —
    /// no iterator borrow, so the caller can interleave mutation).
    pub(crate) fn entry_at(&self, idx: usize) -> Option<(ItemId, u64)> {
        // pss-lint: allow(no-bare-index) — entry_at is documented to take idx < slot_count() = recs.len()
        let rec = &self.recs[idx];
        rec.alive().then(|| (ItemId::new(narrow::u32_of_usize(idx), rec.gen()), rec.weight))
    }

    /// Iterates `(id, weight)` over live items.
    pub fn iter(&self) -> impl Iterator<Item = (ItemId, u64)> + '_ {
        self.recs.iter().enumerate().filter_map(|(i, r)| {
            if r.alive() {
                Some((ItemId::new(narrow::u32_of_usize(i), r.gen()), r.weight))
            } else {
                None
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_roundtrip() {
        let mut s = Slab::new();
        let a = s.insert(10);
        let b = s.insert(20);
        assert_eq!(s.len(), 2);
        assert_eq!(s.weight(a), Some(10));
        assert_eq!(s.remove(a), Some(10));
        assert_eq!(s.remove(a), None, "double remove must fail");
        assert_eq!(s.weight(a), None);
        assert_eq!(s.weight(b), Some(20));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn stale_handle_rejected_after_reuse() {
        let mut s = Slab::new();
        let a = s.insert(1);
        s.remove(a).unwrap();
        let b = s.insert(2); // reuses the slot with bumped generation
        assert_eq!(a.idx(), b.idx());
        assert_ne!(a, b);
        assert_eq!(s.weight(a), None);
        assert_eq!(s.weight(b), Some(2));
    }

    #[test]
    fn iteration_covers_live_items() {
        let mut s = Slab::new();
        let ids: Vec<ItemId> = (0..10).map(|i| s.insert(i * 7)).collect();
        s.remove(ids[3]).unwrap();
        s.remove(ids[7]).unwrap();
        let live: Vec<(ItemId, u64)> = s.iter().collect();
        assert_eq!(live.len(), 8);
        assert!(live.iter().all(|&(id, w)| s.weight(id) == Some(w)));
    }

    #[test]
    fn bucket_pos_tracking() {
        let mut s = Slab::new();
        let a = s.insert(5);
        s.set_bucket_pos(a, 42);
        assert_eq!(s.bucket_pos(a), 42);
    }
}
