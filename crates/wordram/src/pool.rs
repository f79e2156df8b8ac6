//! Index-addressed memory pools: the flat-layout substrate of the O(1)
//! update path.
//!
//! The paper's O(1)-update guarantee (§4.5) charges a constant number of
//! *word operations* per cascade step; it never charges a trip through the
//! global allocator. Two primitives keep the HALT update cascade on that
//! budget in steady state:
//!
//! - [`Pool`]: a plain slab of `T` addressed by `u32` indices with a free
//!   list. Hierarchy nodes live here instead of behind `Box` pointers, so
//!   "create a child" is a free-list pop (or a tail push that only touches
//!   the allocator while the pool is still growing toward its high-water
//!   mark) and child links are 4-byte indices instead of 8-byte pointers.
//! - [`BucketArena`]: a size-class block allocator for the dynamic bucket
//!   lists. Every bucket is a contiguous block of `2^c` slots carved from
//!   one backing vector; growing a bucket moves it to the next class and
//!   returns the old block to a per-class free list. After warmup the
//!   arena recycles its own blocks forever — `push`/`swap_remove` are pure
//!   index arithmetic and the global allocator is never consulted.
//!
//! Block capacities double exactly like `Vec`'s growth policy (4, 8, 16, …),
//! so the space accounting matches the previous per-bucket-`Vec` layout's
//! high-water capacities word for word.

// pss-lint: allow-file(no-bare-index) — arena offsets and slot indices are allocated by this module and audited by BucketArena::audit; get() chains would obscure the O(1) fill-cursor arithmetic

use crate::SpaceUsage;
// pss-lint: hot-path — pool/arena ops back the allocation-free cascade; only growth paths may allocate
use crate::narrow;

/// Sentinel class marking a [`Bucket`] that owns no block yet.
const NO_CLASS: u8 = u8::MAX;
/// Smallest allocated block: `2^2 = 4` slots (matches `Vec`'s first
/// allocation for small elements).
const MIN_CLASS: u8 = 2;
/// Largest representable block: `2^31` slots.
const MAX_CLASS: u8 = 31;

/// Word-granularity residency breakdown of one [`BucketArena`], for the
/// fragmentation telemetry in `StructureStats`/`SpaceUsage` diagnostics:
/// how much of the backing vector is owned by live buckets, how much sits
/// parked on the per-class free lists, and how much is reserved capacity
/// beyond the carved region (allocator slack plus any unconsumed plan).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaResidency {
    /// Words inside carved blocks currently owned by live buckets
    /// (block-granularity: a live block counts fully even when part-filled).
    pub live_words: usize,
    /// Words inside blocks parked on the free lists awaiting reuse.
    pub parked_words: usize,
    /// Words of backing capacity not yet carved into any block.
    pub slack_words: usize,
}

impl ArenaResidency {
    /// Total reserved words: live + parked + slack.
    #[must_use]
    pub fn reserved_words(&self) -> usize {
        self.live_words + self.parked_words + self.slack_words
    }
}

/// Handle to one dynamic list inside a [`BucketArena`]: a block offset, the
/// block's size class, and the current length. `Copy`, 12 bytes (1.5 words,
/// which is what the space accounting charges per handle), meaningless
/// without the arena that issued it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bucket {
    off: u32,
    len: u32,
    class: u8,
}

impl Bucket {
    /// A bucket that owns no storage (the state before the first push).
    pub const EMPTY: Bucket = Bucket { off: 0, len: 0, class: NO_CLASS };

    /// Number of elements currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` iff no elements are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Capacity of the owned block in elements (0 before the first push).
    #[inline]
    pub fn capacity(&self) -> usize {
        if self.class == NO_CLASS {
            0
        } else {
            1usize << self.class
        }
    }

    /// Block offset and size in elements, if a block is owned (audit hook).
    pub fn block(&self) -> Option<(u32, usize)> {
        (self.class != NO_CLASS).then(|| (self.off, 1usize << self.class))
    }
}

/// Size-class block arena backing many [`Bucket`] lists of `T`.
///
/// All blocks are carved from one backing vector; freed blocks (left behind
/// when a bucket grows into the next class) park on per-class free lists and
/// are reused before the backing vector ever grows again. In steady state —
/// once every class has reached its high-water population — `push` and
/// `swap_remove` perform no allocation at all.
#[derive(Clone, Debug)]
pub struct BucketArena<T: Copy> {
    data: Vec<T>,
    /// `free[c]` holds offsets of free blocks of capacity `2^c`. Empty until
    /// the first block is parked: most small arenas never grow a bucket past
    /// its first class, and the table of 32 lists would outweigh them.
    free: Vec<Vec<u32>>,
    /// Padding value for freshly carved blocks.
    fill: T,
    /// Next offset handed out by [`BucketArena::carve_exact`] inside the
    /// region sized by [`BucketArena::reset_to_plan`].
    plan_cursor: usize,
}

/// Raw append cursor for one bucket: the absolute arena index of the next
/// free slot, the block base (so the within-bucket position is `abs − base`
/// without reading the `Bucket`), and the block end as an overrun guard.
/// Issued by [`BucketArena::fill_cursor`], advanced by
/// [`BucketArena::push_raw`], published by [`BucketArena::commit_cursor`].
#[derive(Clone, Copy, Debug, Default)]
pub struct FillCursor {
    abs: u32,
    base: u32,
    end: u32,
}

impl FillCursor {
    /// Within-bucket position of the next pushed element.
    #[inline]
    pub fn pos(&self) -> u32 {
        self.abs - self.base
    }
}

/// Smallest size class whose block holds `cap` elements.
fn class_for(cap: usize) -> u8 {
    let mut class = MIN_CLASS;
    while (1usize << class) < cap {
        class += 1;
        assert!(class <= MAX_CLASS, "bucket exceeds 2^31 elements");
    }
    class
}

impl<T: Copy> BucketArena<T> {
    /// Creates an empty arena; `fill` pads freshly carved blocks (its value
    /// is never observable through the `Bucket` API).
    pub fn new(fill: T) -> Self {
        BucketArena {
            // pss-lint: allow(no-alloc-hot-path) — one-time construction, not the steady-state cascade
            data: Vec::new(),
            // pss-lint: allow(no-alloc-hot-path) — an empty Vec does not allocate; the table is created on the first park
            free: Vec::new(),
            fill,
            plan_cursor: 0,
        }
    }

    /// Total elements carved from the backing vector (live + free blocks).
    pub fn carved(&self) -> usize {
        self.data.len()
    }

    /// Discards every block, live and free, retaining all allocated
    /// capacity. Every outstanding [`Bucket`] handle becomes invalid — the
    /// caller must reset them to [`Bucket::EMPTY`]. Rebuilds use this to
    /// refill the arena without returning memory to the global allocator.
    pub fn reset(&mut self) {
        self.data.clear();
        for f in &mut self.free {
            f.clear();
        }
        self.plan_cursor = 0;
    }

    /// Resets the arena and sizes the backing vector for one block per
    /// non-zero entry of `caps` in a **single** resize — the batch-carve
    /// setup for bulk builds that know every bucket's final size. The caller
    /// must then claim each planned block with [`BucketArena::carve_exact`]
    /// (in any order, since all planned classes are fixed by the caps); the
    /// plan must be fully consumed before any other allocation, or the
    /// unclaimed region would sit untiled between the carved blocks and the
    /// growth tail.
    pub fn reset_to_plan(&mut self, caps: impl Iterator<Item = usize>) {
        self.reset();
        let total: usize = caps.filter(|&c| c > 0).map(|c| 1usize << class_for(c)).sum();
        assert!(total <= u32::MAX as usize, "bucket arena exhausted");
        // pss-lint: allow(no-alloc-hot-path) — bulk-plan resize; runs once per rebuild, amortized
        self.data.resize(total, self.fill);
    }

    /// Claims the next planned block for `b` (an empty handle) at the size
    /// class covering `cap` — pure cursor arithmetic, no allocator traffic
    /// and no free-list traffic. Pair with [`BucketArena::reset_to_plan`].
    pub fn carve_exact(&mut self, b: &mut Bucket, cap: usize) {
        debug_assert_eq!(b.class, NO_CLASS, "carve_exact target must be empty");
        let class = class_for(cap);
        let off = self.plan_cursor;
        self.plan_cursor += 1usize << class;
        assert!(self.plan_cursor <= self.data.len(), "carve beyond the planned region");
        *b = Bucket { off: narrow::u32_of_usize(off), len: 0, class };
    }

    /// Offsets of the free blocks of every class (audit hook).
    pub fn free_blocks(&self) -> impl Iterator<Item = (u32, usize)> + '_ {
        self.free
            .iter()
            .enumerate()
            .flat_map(|(c, offs)| offs.iter().map(move |&off| (off, 1usize << c)))
    }

    /// Pops a free block of `class` or carves a new one from the tail.
    fn alloc_block(&mut self, class: u8) -> u32 {
        if let Some(off) = self.free.get_mut(class as usize).and_then(Vec::pop) {
            return off;
        }
        let off = self.data.len();
        let new_len = off + (1usize << class);
        assert!(new_len <= u32::MAX as usize, "bucket arena exhausted");
        // pss-lint: allow(no-alloc-hot-path) — tail growth toward the arena high-water mark; steady state is satisfied from the free lists
        self.data.resize(new_len, self.fill);
        narrow::u32_of_usize(off)
    }

    /// Parks the block at `off` of `class` on its free list, creating the
    /// free-list table on first use (a growth path, like the tail carve).
    fn park(&mut self, class: u8, off: u32) {
        if self.free.is_empty() {
            // pss-lint: allow(no-alloc-hot-path) — the table is created once, on the arena's first park; steady state reuses it
            self.free.resize((MAX_CLASS + 1) as usize, Vec::new());
        }
        // pss-lint: allow(no-alloc-hot-path) — free-list push; capacity is retained across cycles and bounded by the high-water mark
        self.free[class as usize].push(off);
    }

    /// Appends `v` to `b`, growing the bucket to the next size class when
    /// full (old block returns to the free list; amortized O(1), and O(1)
    /// with zero allocator traffic once the arena has warmed up).
    pub fn push(&mut self, b: &mut Bucket, v: T) {
        if b.class == NO_CLASS {
            let off = self.alloc_block(MIN_CLASS);
            *b = Bucket { off, len: 0, class: MIN_CLASS };
        } else if b.len == 1u32 << b.class {
            let class = b.class + 1;
            assert!(class <= MAX_CLASS, "bucket exceeds 2^31 elements");
            let off = self.alloc_block(class);
            self.data.copy_within(b.off as usize..(b.off + b.len) as usize, off as usize);
            self.park(b.class, b.off);
            b.off = off;
            b.class = class;
        }
        self.data[(b.off + b.len) as usize] = v;
        b.len += 1;
    }

    /// Ensures `b` has capacity for at least `cap` elements, jumping
    /// straight to the right size class (bulk loads — e.g. a global rebuild
    /// that knows every bucket's final size — skip the whole doubling chain
    /// of copies this way).
    pub fn reserve(&mut self, b: &mut Bucket, cap: usize) {
        if cap <= b.capacity() {
            return;
        }
        let class = class_for(cap);
        let off = self.alloc_block(class);
        if b.class != NO_CLASS {
            self.data.copy_within(b.off as usize..(b.off + b.len) as usize, off as usize);
            self.park(b.class, b.off);
        }
        b.off = off;
        b.class = class;
    }

    /// Inserts `v` at `pos`, shifting later elements up by one (`Vec::insert`
    /// discipline; grows the block like [`BucketArena::push`] when full).
    /// O(len − pos) element moves — for order-maintaining callers whose
    /// buckets are short by construction.
    pub fn insert_at(&mut self, b: &mut Bucket, pos: usize, v: T) {
        debug_assert!(pos <= b.len as usize, "insert_at {pos} of {}", b.len);
        if b.class == NO_CLASS {
            let off = self.alloc_block(MIN_CLASS);
            *b = Bucket { off, len: 0, class: MIN_CLASS };
        } else if b.len == 1u32 << b.class {
            let class = b.class + 1;
            assert!(class <= MAX_CLASS, "bucket exceeds 2^31 elements");
            let off = self.alloc_block(class);
            self.data.copy_within(b.off as usize..(b.off + b.len) as usize, off as usize);
            self.park(b.class, b.off);
            b.off = off;
            b.class = class;
        }
        let base = b.off as usize;
        self.data.copy_within(base + pos..base + b.len as usize, base + pos + 1);
        self.data[base + pos] = v;
        b.len += 1;
    }

    /// Removes and returns the element at `pos`, shifting later elements
    /// down by one (`Vec::remove` discipline, order-preserving; the block is
    /// retained at its high-water class).
    pub fn remove_at(&mut self, b: &mut Bucket, pos: usize) -> T {
        debug_assert!(pos < b.len as usize, "remove_at {pos} of {}", b.len);
        let base = b.off as usize;
        let out = self.data[base + pos];
        self.data.copy_within(base + pos + 1..base + b.len as usize, base + pos);
        b.len -= 1;
        out
    }

    /// Removes and returns the element at `pos`, moving the last element
    /// into the hole (`Vec::swap_remove` discipline; the block is retained
    /// at its high-water class, exactly like `Vec` capacity).
    pub fn swap_remove(&mut self, b: &mut Bucket, pos: usize) -> T {
        debug_assert!(pos < b.len as usize, "swap_remove {pos} of {}", b.len);
        let base = b.off as usize;
        let out = self.data[base + pos];
        b.len -= 1;
        self.data[base + pos] = self.data[base + b.len as usize];
        out
    }

    /// The element at `pos`.
    #[inline]
    pub fn get(&self, b: &Bucket, pos: usize) -> T {
        debug_assert!(pos < b.len as usize);
        self.data[b.off as usize + pos]
    }

    /// The bucket's live elements as a slice.
    #[inline]
    pub fn slice(&self, b: &Bucket) -> &[T] {
        if b.class == NO_CLASS {
            return &[];
        }
        &self.data[b.off as usize..b.off as usize + b.len as usize]
    }

    /// Append cursor at the current end of `b`, for a caller about to push
    /// a known number of elements (≤ the block's spare capacity) without
    /// touching the `Bucket` handle per element. Pair every cursor with one
    /// [`BucketArena::commit_cursor`]; until then the bucket's recorded
    /// length is stale. The bucket must already own a block (carved or
    /// reserved to its final class).
    #[inline]
    pub fn fill_cursor(&self, b: &Bucket) -> FillCursor {
        debug_assert!(b.class != NO_CLASS, "fill_cursor target owns no block");
        FillCursor { abs: b.off + b.len, base: b.off, end: b.off + (1u32 << b.class) }
    }

    /// Appends `v` through a raw cursor: one store and an increment — no
    /// branch on the size class, no `Bucket` read-modify-write. The caller
    /// guarantees (checked in debug builds) that the reserved block is not
    /// overrun.
    #[inline]
    pub fn push_raw(&mut self, c: &mut FillCursor, v: T) {
        debug_assert!(c.abs < c.end, "push_raw beyond the reserved block");
        self.data[c.abs as usize] = v;
        c.abs += 1;
    }

    /// Publishes a cursor's final length back into the `Bucket` it was
    /// issued from.
    #[inline]
    pub fn commit_cursor(&self, b: &mut Bucket, c: FillCursor) {
        debug_assert_eq!(b.off, c.base, "cursor committed to a different bucket");
        b.len = c.abs - c.base;
    }

    /// Writes `v` at within-block position `pos` of `b`'s carved block and
    /// returns the value it displaced — the random-access counterpart of
    /// [`BucketArena::push_raw`] for callers that fill a block *out of
    /// order* (a snapshot restore scattering items straight to their
    /// serialized positions). The displaced value lets such callers detect
    /// duplicate positions against the arena's known `fill` padding. The
    /// bucket's recorded length is untouched; publish it afterwards with
    /// [`BucketArena::commit_len`].
    #[inline]
    pub fn scatter_raw(&mut self, b: &Bucket, pos: u32, v: T) -> T {
        debug_assert!(pos < 1u32 << b.class, "scatter_raw beyond the reserved block");
        let cell = (b.off + pos) as usize;
        let prev = self.data[cell];
        self.data[cell] = v;
        prev
    }

    /// Publishes `len` as `b`'s length after an out-of-order
    /// [`BucketArena::scatter_raw`] fill (the scatter counterpart of
    /// [`BucketArena::commit_cursor`]).
    #[inline]
    pub fn commit_len(&self, b: &mut Bucket, len: u32) {
        debug_assert!(len <= 1u32 << b.class, "committed length exceeds the block");
        b.len = len;
    }

    /// Returns the bucket's block to the free list and resets the handle.
    pub fn release(&mut self, b: &mut Bucket) {
        if b.class != NO_CLASS {
            self.park(b.class, b.off);
        }
        *b = Bucket::EMPTY;
    }

    /// Residency breakdown in words: carved blocks split live vs parked
    /// (free-listed), plus uncarved reserved capacity. O(free blocks);
    /// diagnostics hook, not on the update path.
    pub fn residency(&self) -> ArenaResidency {
        let elem_bytes = std::mem::size_of::<T>();
        let words_of = |elems: usize| (elems * elem_bytes).div_ceil(8);
        let parked_elems: usize = self.free_blocks().map(|(_, size)| size).sum();
        ArenaResidency {
            live_words: words_of(self.data.len() - parked_elems),
            parked_words: words_of(parked_elems),
            slack_words: words_of(self.data.capacity() - self.data.len()),
        }
    }

    /// Verifies the arena against the set of live buckets: every block (live
    /// or free) must be in bounds, the blocks must be pairwise disjoint, and
    /// together they must tile the carved region exactly. O(blocks log
    /// blocks); test/debug hook.
    pub fn audit(&self, live: impl Iterator<Item = Bucket>) -> Result<(), String> {
        // pss-lint: allow(no-alloc-hot-path) — audit() is an O(capacity) test/debug hook, never on the update path
        let mut blocks: Vec<(u32, usize, bool)> = Vec::new();
        for b in live {
            if b.len as usize > b.capacity() {
                // pss-lint: allow(no-alloc-hot-path) — audit() is an O(capacity) test/debug hook, never on the update path
                return Err(format!("bucket len {} exceeds capacity {}", b.len, b.capacity()));
            }
            if let Some((off, size)) = b.block() {
                // pss-lint: allow(no-alloc-hot-path) — audit() is an O(capacity) test/debug hook, never on the update path
                blocks.push((off, size, true));
            }
        }
        // pss-lint: allow(no-alloc-hot-path) — audit() is an O(capacity) test/debug hook, never on the update path
        blocks.extend(self.free_blocks().map(|(off, size)| (off, size, false)));
        blocks.sort_unstable();
        let mut expect = 0usize;
        for &(off, size, live) in &blocks {
            let kind = if live { "live" } else { "free" };
            if (off as usize) != expect {
                // pss-lint: allow(no-alloc-hot-path) — audit() is an O(capacity) test/debug hook, never on the update path
                return Err(format!("{kind} block at {off} expected at {expect} (overlap/gap)"));
            }
            expect += size;
        }
        if expect != self.data.len() {
            // pss-lint: allow(no-alloc-hot-path) — audit() is an O(capacity) test/debug hook, never on the update path
            return Err(format!("blocks tile {expect} of {} carved elements", self.data.len()));
        }
        Ok(())
    }
}

impl<T: Copy> BucketArena<T> {
    /// Words of heap the arena holds: carved storage (the analogue of the
    /// old per-bucket Vec capacities), the free-list table (three words per
    /// list header) and half a word per allocated free-block slot, for
    /// owners that account for the inline struct themselves.
    pub fn heap_words(&self) -> usize {
        (self.data.len() * std::mem::size_of::<T>()).div_ceil(8)
            + self.free.capacity() * 3
            + self.free.iter().map(|f| f.capacity().div_ceil(2)).sum::<usize>()
    }
}

impl<T: Copy> SpaceUsage for BucketArena<T> {
    fn space_words(&self) -> usize {
        // The heap plus the scalars.
        self.heap_words() + 2
    }
}

/// A slab of `T` addressed by dense `u32` indices with a free list.
///
/// `alloc` pops a recycled slot when one exists (the caller re-initializes
/// it in place, retaining the slot's own heap blocks) and only appends — the
/// single allocator-visible operation — while the pool is still growing
/// toward its high-water population.
#[derive(Clone, Debug, Default)]
pub struct Pool<T> {
    slots: Vec<T>,
    free: Vec<u32>,
}

impl<T> Pool<T> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        // pss-lint: allow(no-alloc-hot-path) — one-time construction, not the steady-state cascade
        Pool { slots: Vec::new(), free: Vec::new() }
    }

    /// Total slots (live + recycled).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of live slots.
    pub fn live_count(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Number of parked (recycled) slots.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Allocates a slot: recycled slots are re-initialized with `recycle`
    /// (so their internal storage can be reused), fresh slots are built with
    /// `make`.
    pub fn alloc(&mut self, make: impl FnOnce() -> T, recycle: impl FnOnce(&mut T)) -> u32 {
        if let Some(idx) = self.free.pop() {
            recycle(&mut self.slots[idx as usize]);
            return idx;
        }
        let idx = self.slots.len();
        assert!(idx < u32::MAX as usize, "pool index space exhausted");
        // pss-lint: allow(no-alloc-hot-path) — fresh-slot push only while the pool grows toward its high-water mark; steady state pops the free list
        self.slots.push(make());
        narrow::u32_of_usize(idx)
    }

    /// Returns a slot to the free list. The caller must drop every index to
    /// it; the slot's contents stay in place until the next `alloc` recycles
    /// them.
    pub fn free(&mut self, idx: u32) {
        debug_assert!((idx as usize) < self.slots.len());
        debug_assert!(!self.free.contains(&idx), "double free of pool slot {idx}");
        // pss-lint: allow(no-alloc-hot-path) — free-list push; capacity is retained across cycles and bounded by the high-water mark
        self.free.push(idx);
    }

    /// Parks every slot on the free list (contents stay in place for
    /// `alloc` to recycle). Rebuilds use this to re-grow a hierarchy out of
    /// its own previous nodes without touching the global allocator.
    pub fn free_all(&mut self) {
        self.free.clear();
        // pss-lint: allow(no-alloc-hot-path) — rebuild-only path, amortized against the updates that triggered it
        self.free.extend(0..narrow::u32_of_usize(self.slots.len()));
    }

    /// Shared access to a slot.
    #[inline]
    pub fn get(&self, idx: u32) -> &T {
        &self.slots[idx as usize]
    }

    /// Exclusive access to a slot.
    #[inline]
    pub fn get_mut(&mut self, idx: u32) -> &mut T {
        &mut self.slots[idx as usize]
    }

    /// Iterates every slot (live and recycled — the pool does not track
    /// liveness; callers that need it keep their own roster).
    pub fn iter_slots(&self) -> impl Iterator<Item = &T> {
        self.slots.iter()
    }

    /// Verifies free-list sanity: indices in bounds, no duplicates.
    /// O(slots); test/debug hook.
    pub fn audit(&self) -> Result<(), String> {
        // pss-lint: allow(no-alloc-hot-path) — audit() is an O(capacity) test/debug hook, never on the update path
        let mut seen = vec![false; self.slots.len()];
        for &idx in &self.free {
            let slot = seen
                .get_mut(idx as usize)
                // pss-lint: allow(no-alloc-hot-path) — audit() is an O(capacity) test/debug hook, never on the update path
                .ok_or_else(|| format!("free index {idx} beyond {} slots", self.slots.len()))?;
            if *slot {
                // pss-lint: allow(no-alloc-hot-path) — audit() is an O(capacity) test/debug hook, never on the update path
                return Err(format!("free index {idx} listed twice"));
            }
            *slot = true;
        }
        Ok(())
    }

    /// Space in words: the slot array at its allocated capacity (each slot
    /// `size_of::<T>()` bytes, rounded up to words as a whole), plus
    /// `heap_words` of every slot — the words its own heap blocks hold —
    /// plus the free list.
    pub fn space_words_by(&self, heap_words: impl Fn(&T) -> usize) -> usize {
        self.heap_words_by(heap_words) + 2
    }

    /// [`Pool::space_words_by`] without the pool's own scalars: the words
    /// of heap the pool holds, for owners that account for the inline
    /// struct themselves.
    pub fn heap_words_by(&self, heap_words: impl Fn(&T) -> usize) -> usize {
        (self.slots.capacity() * std::mem::size_of::<T>()).div_ceil(8)
            + self.slots.iter().map(heap_words).sum::<usize>()
            + self.free.capacity().div_ceil(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference model: a plain Vec per bucket.
    #[test]
    fn arena_matches_vec_model_under_churn() {
        let mut arena = BucketArena::new(0u16);
        let mut buckets = [Bucket::EMPTY; 8];
        let mut model: Vec<Vec<u16>> = vec![Vec::new(); 8];
        let mut x = 0x9E3779B97F4A7C15u64;
        for step in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let b = ((x >> 32) % 8) as usize;
            let v = (x >> 48) as u16;
            if !(x >> 8).is_multiple_of(3) || model[b].is_empty() {
                arena.push(&mut buckets[b], v);
                model[b].push(v);
            } else {
                let pos = ((x >> 16) as usize) % model[b].len();
                let got = arena.swap_remove(&mut buckets[b], pos);
                let want = model[b].swap_remove(pos);
                assert_eq!(got, want, "step {step}");
            }
            assert_eq!(arena.slice(&buckets[b]), model[b].as_slice(), "step {step}");
            if step % 1024 == 0 {
                arena.audit(buckets.iter().copied()).unwrap();
            }
        }
        arena.audit(buckets.iter().copied()).unwrap();
        // Capacities follow the Vec doubling ladder.
        for (b, m) in buckets.iter().zip(&model) {
            assert!(b.capacity() >= m.len());
            assert!(b.capacity() == 0 || b.capacity() >= 4);
            assert!(b.capacity().is_power_of_two() || b.capacity() == 0);
        }
    }

    #[test]
    fn arena_reuses_freed_blocks() {
        let mut arena = BucketArena::new(0u16);
        let mut b = Bucket::EMPTY;
        for i in 0..64u16 {
            arena.push(&mut b, i);
        }
        let carved_before = arena.carved();
        // A second bucket growing through the small classes must consume the
        // parked blocks the first one left behind (4 + 8 + 16 + 32 slots).
        let mut c = Bucket::EMPTY;
        for i in 0..32u16 {
            arena.push(&mut c, i);
        }
        assert_eq!(
            arena.carved(),
            carved_before,
            "second bucket should recycle freed blocks, not carve"
        );
        arena.audit([b, c].into_iter()).unwrap();
        // Steady-state churn at fixed length: zero carving.
        let carved = arena.carved();
        for i in 0..10_000u16 {
            let pos = (i as usize * 7) % b.len();
            arena.swap_remove(&mut b, pos);
            arena.push(&mut b, i);
        }
        assert_eq!(arena.carved(), carved, "steady-state churn must not carve");
        arena.audit([b, c].into_iter()).unwrap();
    }

    /// Reference model for the order-preserving ops: a plain Vec per bucket
    /// driven with `insert`/`remove` at random positions.
    #[test]
    fn ordered_ops_match_vec_model() {
        let mut arena = BucketArena::new(0u16);
        let mut buckets = [Bucket::EMPTY; 4];
        let mut model: Vec<Vec<u16>> = vec![Vec::new(); 4];
        let mut x = 0xD1B54A32D192ED03u64;
        for step in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let b = ((x >> 32) % 4) as usize;
            let v = (x >> 48) as u16;
            if !(x >> 8).is_multiple_of(3) || model[b].is_empty() {
                let pos = ((x >> 16) as usize) % (model[b].len() + 1);
                arena.insert_at(&mut buckets[b], pos, v);
                model[b].insert(pos, v);
            } else {
                let pos = ((x >> 16) as usize) % model[b].len();
                let got = arena.remove_at(&mut buckets[b], pos);
                let want = model[b].remove(pos);
                assert_eq!(got, want, "step {step}");
            }
            assert_eq!(arena.slice(&buckets[b]), model[b].as_slice(), "step {step}");
            if step % 1024 == 0 {
                arena.audit(buckets.iter().copied()).unwrap();
            }
        }
        arena.audit(buckets.iter().copied()).unwrap();
    }

    #[test]
    fn plan_carve_tiles_exactly_and_single_resize() {
        let mut arena = BucketArena::new(0u32);
        // Warm the arena through the incremental path first, so the plan
        // must reclaim the old region rather than append to it.
        let mut warm = Bucket::EMPTY;
        for i in 0..100 {
            arena.push(&mut warm, i);
        }
        let caps = [5usize, 0, 1, 16, 0, 3];
        arena.reset_to_plan(caps.iter().copied());
        // Planned region: 8 + 4 + 16 + 4 elements, carved up front.
        assert_eq!(arena.carved(), 32);
        let mut buckets = [Bucket::EMPTY; 6];
        for (b, &c) in buckets.iter_mut().zip(&caps) {
            if c > 0 {
                arena.carve_exact(b, c);
            }
        }
        assert_eq!(arena.carved(), 32, "carving must not grow the arena");
        for (b, &c) in buckets.iter_mut().zip(&caps) {
            for i in 0..c as u32 {
                arena.push(b, i);
            }
            assert_eq!(b.len(), c);
        }
        assert_eq!(arena.carved(), 32, "filling to plan must not grow the arena");
        arena.audit(buckets.iter().copied()).unwrap();
        // The arena keeps working incrementally after the plan is consumed.
        let mut extra = Bucket::EMPTY;
        for i in 0..10 {
            arena.push(&mut extra, i);
        }
        arena.audit(buckets.iter().copied().chain(std::iter::once(extra))).unwrap();
    }

    #[test]
    fn release_parks_the_block() {
        let mut arena = BucketArena::new(0u64);
        let mut b = Bucket::EMPTY;
        for i in 0..10 {
            arena.push(&mut b, i);
        }
        let (off, size) = b.block().unwrap();
        arena.release(&mut b);
        assert_eq!(b, Bucket::EMPTY);
        assert!(arena.free_blocks().any(|fb| fb == (off, size)));
        arena.audit(std::iter::empty()).unwrap();
        // Reallocation picks the parked block back up.
        let mut c = Bucket::EMPTY;
        for i in 0..10 {
            arena.push(&mut c, i);
        }
        assert_eq!(c.block().unwrap(), (off, size));
    }

    #[test]
    fn empty_bucket_is_inert() {
        let arena = BucketArena::new(0u16);
        let b = Bucket::EMPTY;
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(b.capacity(), 0);
        assert_eq!(b.block(), None);
        assert_eq!(arena.slice(&b), &[] as &[u16]);
        arena.audit(std::iter::once(b)).unwrap();
    }

    #[test]
    fn audit_catches_corruption() {
        let mut arena = BucketArena::new(0u16);
        let mut b = Bucket::EMPTY;
        arena.push(&mut b, 1);
        // A live bucket the arena never issued (overlapping block).
        let bogus = Bucket { off: 0, len: 1, class: MIN_CLASS };
        assert!(arena.audit([b, bogus].into_iter()).is_err());
    }

    #[test]
    fn pool_alloc_free_recycle() {
        let mut pool: Pool<Vec<u32>> = Pool::new();
        let a = pool.alloc(|| vec![1], |_| unreachable!("no recycled slots yet"));
        let b = pool.alloc(|| vec![2, 2], |_| unreachable!());
        assert_eq!(pool.live_count(), 2);
        pool.free(a);
        pool.audit().unwrap();
        assert_eq!(pool.free_count(), 1);
        // Recycle must reuse slot `a` and let us keep its storage.
        let c = pool.alloc(|| unreachable!("free slot available"), |v| v.clear());
        assert_eq!(c, a);
        assert!(pool.get(c).is_empty());
        assert_eq!(pool.get(b), &vec![2, 2]);
        assert_eq!(pool.slot_count(), 2);
        pool.audit().unwrap();
    }

    #[test]
    fn residency_splits_live_parked_slack() {
        let mut arena = BucketArena::new(0u64);
        let mut b = Bucket::EMPTY;
        for i in 0..64u64 {
            arena.push(&mut b, i);
        }
        // Growing to 64 slots left 4+8+16+32 = 60 slots parked; the live
        // block is 64 slots. u64 elements: one word each.
        let r = arena.residency();
        assert_eq!(r.live_words, 64);
        assert_eq!(r.parked_words, 60);
        assert_eq!(r.reserved_words(), r.live_words + r.parked_words + r.slack_words);
        // Releasing the bucket moves its block from live to parked.
        arena.release(&mut b);
        let r2 = arena.residency();
        assert_eq!(r2.live_words, 0);
        assert_eq!(r2.parked_words, 124);
        // A fresh plan consumes everything into one live region.
        arena.reset_to_plan([100usize].into_iter());
        let mut c = Bucket::EMPTY;
        arena.carve_exact(&mut c, 100);
        let r3 = arena.residency();
        assert_eq!(r3.live_words, 128);
        assert_eq!(r3.parked_words, 0);
    }

    #[test]
    fn free_table_is_created_on_first_park() {
        let mut arena = BucketArena::new(0u16);
        let mut b = Bucket::EMPTY;
        for i in 0..4u16 {
            arena.push(&mut b, i);
        }
        // One first-class block and nothing parked: no table, and the
        // accounting charges only the carved words and the scalars.
        assert!(arena.free.is_empty());
        assert_eq!(arena.space_words(), 1 + 2);
        arena.push(&mut b, 4);
        // Growing parks the old block: the table now exists and is charged.
        assert_eq!(arena.free.len(), (MAX_CLASS + 1) as usize);
        assert_eq!(arena.free_blocks().collect::<Vec<_>>(), vec![(0, 4)]);
        assert!(arena.space_words() >= 3 * arena.free.len() + 3);
        arena.audit(std::iter::once(b)).expect("tiling after the first park");
    }

    #[test]
    fn space_accounting_is_word_granular() {
        let mut arena = BucketArena::new(0u16);
        let mut b = Bucket::EMPTY;
        for i in 0..100u16 {
            arena.push(&mut b, i);
        }
        // Carved u16 storage is counted in 64-bit words, rounded up.
        let carved_words = (arena.carved() * 2).div_ceil(8);
        assert!(arena.space_words() >= carved_words + 2);
        let pool: Pool<u64> = Pool::new();
        assert_eq!(pool.space_words_by(|_| 1), 2);
    }
}
