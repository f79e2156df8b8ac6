//! The three-level sampling hierarchy of HALT (§4.1–§4.2, S10/S12 in DESIGN.md).
//!
//! - [`Level1`] is `BG-Str(S)`: real items bucketed by `⌊log2 w⌋`, buckets
//!   grouped into windows of `g₁ = ⌈log2 n₀⌉` indices; each non-empty group `j`
//!   owns a level-2 [`Node`] over the next-level item set `Y_j` (one proxy item
//!   per non-empty level-1 bucket, weight `2^{i+1}·|B(i)|`).
//! - A level-2 [`Node`] is `BG-Str(Y_j)` with group width `g₂ = ⌈log2 g₁⌉`;
//!   each non-empty group `l` owns a level-3 [`Node`] over `Z_l`.
//! - A level-3 [`Node`] is `BG-Str(Z_l)`; its buckets form the final-level
//!   instance answered by the adapter + lookup table (§4.3–4.4).
//!
//! Every update cascades through at most two proxy delete+insert pairs per
//! level (§4.5), i.e. O(1) worst-case pointer/bitmap operations, because all
//! bucket/group indices live in universes bounded by ≈ 2·word-size and are
//! maintained with the Fact 2.1 [`BitsetList`].
//!
//! **Memory layout.** The cascade is allocation-free in steady state: nodes
//! live in an index-addressed [`Pool`] (4-byte child links, no `Box`), and
//! every dynamic bucket list is a block in a size-class [`BucketArena`] (one
//! shared `u16` arena for all proxy buckets, one `ItemId` arena for the
//! level-1 buckets).
//!
//! **Derived proxy weights.** A proxy's weight `2^{i+1}·|B(i)|` is a pure
//! function of the child bucket's index and current length — both already
//! stored in the child level's [`Bucket`] handles — so nodes do not store
//! weights at all, only `(bucket, pos)` placement. The payoff is on the
//! update path: a count change that does not cross a power of two leaves the
//! proxy's bucket index `i+1+⌊log2 count⌋` unchanged, and since there is no
//! stored weight to refresh, the cascade stops after two `lzcnt`
//! instructions without touching the node. Structural proxy moves happen
//! only when a count crosses a power of two — geometrically rare — and
//! remain O(1) word operations when they do.

// pss-lint: allow-file(no-bare-index) — bucket vectors and the member slab are self-managed parallel arrays; indices are generation-checked handles or loop bounds derived from len(), and audit()/audit_storage() verify the cross-references

// pss-lint: hot-path — the O(1) update cascade must not touch the global allocator in steady state
use crate::item::{ItemId, Slab};
use wordram::bits::floor_log2_u64;
use wordram::narrow;
use wordram::{BitsetList, Bucket, BucketArena, FillCursor, Pool, SpaceUsage, U256};

/// Level-1 bucket-index universe: weights are `< 2^64`.
pub const L1_BUCKETS: usize = 64;
/// Level-2 bucket-index universe: proxy weights are `< 2^64·2^63 = 2^127`.
pub const L2_BUCKETS: usize = 128;
/// Level-3 bucket-index universe: proxy weights are `< 2^127·2^7 = 2^134`.
pub const L3_BUCKETS: usize = 160;

/// Sentinel child link: "no node".
pub const NO_NODE: u32 = u32::MAX;

/// `2^e` as an `f64` (exact for `|e| ≤ 1023`; the hierarchy's bucket
/// indices stay below 161). Shared with the query layer, which calls it per
/// coin: a normal power of two is its biased exponent field alone, so it
/// costs a shift rather than a `powi` library call.
#[inline]
pub(crate) fn pow2f(e: i32) -> f64 {
    if (-1022..=1023).contains(&e) {
        f64::from_bits(u64::from((e + 1023).unsigned_abs()) << 52)
    } else {
        2f64.powi(e)
    }
}

/// `c·2^e` as an exact `f64`: scaling by a power of two only shifts the
/// exponent, so the product is exact whenever `c` itself is (`c < 2^53`)
/// and no overflow occurs — the bucket counts and indices the query layer
/// feeds in stay far inside both limits.
#[inline]
pub(crate) fn pow2_scaled(c: u64, e: i32) -> f64 {
    debug_assert!(c < (1u64 << 53), "count exceeds exact f64 range");
    c as f64 * pow2f(e)
}

/// `true` iff a proxy for a bucket whose count changed `old → new` moves
/// between buckets of its node (appears, disappears, or crosses a power of
/// two). When `false`, the cascade can stop: placement is unchanged and the
/// proxy's weight is derived, not stored.
#[inline]
fn proxy_moves(old_count: u64, new_count: u64) -> bool {
    old_count == 0 || new_count == 0 || floor_log2_u64(old_count) != floor_log2_u64(new_count)
}

/// Placement of one proxy inside a [`Node`]: which bucket holds it and
/// where. The proxy's weight is derived (`2^{child+1} ·` child-bucket
/// count), so placement is all a node stores per member.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Member {
    /// Bucket of this node that currently holds the proxy, or
    /// [`Member::ABSENT`].
    pub bucket: u16,
    /// Position inside that bucket's item list.
    pub pos: u32,
}

impl Member {
    /// `bucket` value marking "no proxy for this child".
    pub const ABSENT: u16 = u16::MAX;
    /// The empty slot.
    pub const NONE: Member = Member { bucket: Member::ABSENT, pos: 0 };

    /// `true` iff a proxy is present.
    #[inline]
    pub fn present(&self) -> bool {
        self.bucket != Member::ABSENT
    }
}

/// One `BG-Str` over proxy items (levels 2 and 3 of the hierarchy), stored
/// inside a [`NodePool`]; its bucket lists live in the pool's shared arena.
#[derive(Debug)]
pub struct Node {
    /// 2 or 3.
    pub level: u8,
    /// Width of this node's groups in bucket indices (level 2 only).
    pub group_width: u32,
    /// `buckets[b]` lists child bucket indices whose proxies live in bucket
    /// `b` (arena handles; resolve through the owning pool). **Canonical
    /// order invariant:** every bucket lists its children in ascending child
    /// index — the order a class-ascending derive produces — so the node's
    /// layout is a pure function of the child level's bucket counts, never
    /// of update history. That is what lets a bulk build derive the whole
    /// hierarchy in one sweep and still be bit-identical (position-sensitive
    /// queries included) to n incremental cascades.
    pub buckets: Vec<Bucket>,
    /// Non-empty bucket indices (Fact 2.1 structure).
    pub nonempty_buckets: BitsetList,
    /// Non-empty group indices (level 2 only).
    pub nonempty_groups: BitsetList,
    /// `members[child]` is the placement of the proxy for child bucket
    /// `child` ([`Member::NONE`] when absent).
    pub members: Vec<Member>,
    /// Number of live proxies.
    pub n_members: usize,
    /// Level-3 children, one per non-empty group (level 2 only): pool
    /// indices, [`NO_NODE`] when absent.
    pub children: Vec<u32>,
}

impl Node {
    fn new_level2(group_width: u32) -> Self {
        debug_assert!(group_width >= 1);
        let n_groups = L2_BUCKETS / group_width as usize + 1;
        Node {
            level: 2,
            group_width,
            // pss-lint: allow(no-alloc-hot-path) — one-time construction, not the steady-state cascade
            buckets: vec![Bucket::EMPTY; L2_BUCKETS],
            nonempty_buckets: BitsetList::new(L2_BUCKETS),
            nonempty_groups: BitsetList::new(n_groups),
            // pss-lint: allow(no-alloc-hot-path) — one-time construction, not the steady-state cascade
            members: vec![Member::NONE; L1_BUCKETS],
            n_members: 0,
            // pss-lint: allow(no-alloc-hot-path) — one-time construction, not the steady-state cascade
            children: vec![NO_NODE; n_groups],
        }
    }

    fn new_level3() -> Self {
        Node {
            level: 3,
            group_width: 0,
            // pss-lint: allow(no-alloc-hot-path) — one-time construction, not the steady-state cascade
            buckets: vec![Bucket::EMPTY; L3_BUCKETS],
            nonempty_buckets: BitsetList::new(L3_BUCKETS),
            nonempty_groups: BitsetList::new(1),
            // pss-lint: allow(no-alloc-hot-path) — one-time construction, not the steady-state cascade
            members: vec![Member::NONE; L2_BUCKETS],
            n_members: 0,
            // pss-lint: allow(no-alloc-hot-path) — one-time construction, not the steady-state cascade
            children: Vec::new(),
        }
    }

    /// Re-initializes a recycled slot as an empty level-2 node in place,
    /// reusing every retained allocation (same shapes ⇒ no heap traffic).
    fn reinit_level2(&mut self, group_width: u32) {
        let n_groups = L2_BUCKETS / group_width as usize + 1;
        self.level = 2;
        self.group_width = group_width;
        self.buckets.clear();
        // pss-lint: allow(no-alloc-hot-path) — clear+resize to the retained length reuses the kept allocation — no allocator traffic
        self.buckets.resize(L2_BUCKETS, Bucket::EMPTY);
        self.nonempty_buckets.reset(L2_BUCKETS);
        self.nonempty_groups.reset(n_groups);
        self.members.clear();
        // pss-lint: allow(no-alloc-hot-path) — clear+resize to the retained length reuses the kept allocation — no allocator traffic
        self.members.resize(L1_BUCKETS, Member::NONE);
        self.n_members = 0;
        self.children.clear();
        // pss-lint: allow(no-alloc-hot-path) — clear+resize to the retained length reuses the kept allocation — no allocator traffic (reinit/rebuild)
        self.children.resize(n_groups, NO_NODE);
    }

    /// Re-initializes a recycled slot as an empty level-3 node in place.
    fn reinit_level3(&mut self) {
        self.level = 3;
        self.group_width = 0;
        self.buckets.clear();
        // pss-lint: allow(no-alloc-hot-path) — clear+resize to the retained length reuses the kept allocation — no allocator traffic
        self.buckets.resize(L3_BUCKETS, Bucket::EMPTY);
        self.nonempty_buckets.reset(L3_BUCKETS);
        self.nonempty_groups.reset(1);
        self.members.clear();
        // pss-lint: allow(no-alloc-hot-path) — clear+resize to the retained length reuses the kept allocation — no allocator traffic
        self.members.resize(L2_BUCKETS, Member::NONE);
        self.n_members = 0;
        self.children.clear();
    }

    /// `true` iff group `l` has no non-empty bucket.
    fn group_is_empty(&self, l: usize) -> bool {
        let lo = l * self.group_width as usize;
        let hi = lo + self.group_width as usize - 1;
        match self.nonempty_buckets.succ(lo) {
            Some(b) => b > hi,
            None => true,
        }
    }
}

/// Owner of every level-2/3 [`Node`] of one hierarchy: an index-addressed
/// node [`Pool`] plus the shared [`BucketArena`] holding all proxy bucket
/// lists. All structural mutation of nodes goes through
/// [`NodePool::set_member`], which is where the O(1) cascade lives.
#[derive(Debug)]
pub struct NodePool {
    pub(crate) nodes: Pool<Node>,
    pub(crate) arena: BucketArena<u16>,
}

impl Default for NodePool {
    fn default() -> Self {
        Self::new()
    }
}

impl NodePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        NodePool { nodes: Pool::new(), arena: BucketArena::new(0) }
    }

    /// Shared access to a node.
    #[inline]
    pub fn node(&self, idx: u32) -> &Node {
        self.nodes.get(idx)
    }

    /// Exclusive access to a node (test/construction hook; structural
    /// changes must go through [`NodePool::set_member`]).
    pub fn node_mut(&mut self, idx: u32) -> &mut Node {
        self.nodes.get_mut(idx)
    }

    /// Allocates an empty level-2 node (recycled slots are re-initialized in
    /// place, keeping their heap blocks).
    pub fn alloc_level2(&mut self, group_width: u32) -> u32 {
        self.nodes.alloc(|| Node::new_level2(group_width), |n| n.reinit_level2(group_width))
    }

    /// Allocates an empty level-3 node (recycled slots are re-initialized in
    /// place, keeping their heap blocks).
    pub fn alloc_level3(&mut self) -> u32 {
        self.nodes.alloc(Node::new_level3, Node::reinit_level3)
    }

    /// Empties the pool for a rebuild: discards every bucket block (arena
    /// reset) and parks every node for recycling — all capacity is retained,
    /// so re-growing the hierarchy performs no allocation up to the previous
    /// high-water mark.
    pub fn reset(&mut self) {
        self.arena.reset();
        self.nodes.free_all();
    }

    /// Returns a node (and its bucket blocks) to the free lists. The caller
    /// must clear every link to `idx`. Not used on the steady-state path —
    /// empty children are kept warm — but keeps the pool leak-free for
    /// callers that prune.
    pub fn free_node(&mut self, idx: u32) {
        let node = self.nodes.get_mut(idx);
        for b in &mut node.buckets {
            self.arena.release(b);
        }
        self.nodes.free(idx);
    }

    /// Re-places the proxy for child bucket `child` of node `idx` after its
    /// count changed to `count` (weight `count · 2^shift`; `count = 0`
    /// removes the proxy), cascading the resulting bucket-count changes into
    /// this node's own level-3 proxies (level 2 only).
    ///
    /// Callers that know the previous count pre-filter with [`proxy_moves`];
    /// a call that lands on an unchanged placement returns after one
    /// members-slot read.
    pub fn set_member(&mut self, idx: u32, child: u16, count: u64, shift: u32) {
        let node = self.nodes.get_mut(idx);
        if count > 0 {
            let bucket = narrow::u16_of_u64(u64::from(shift + floor_log2_u64(count)));
            debug_assert!(
                (bucket as usize) < node.buckets.len(),
                "bucket {bucket} out of universe"
            );
            if node.members[child as usize].bucket == bucket {
                return; // placement unchanged; weight is derived, not stored
            }
            self.set_member_slow(idx, child, Some(bucket));
        } else {
            if !node.members[child as usize].present() {
                return;
            }
            self.set_member_slow(idx, child, None);
        }
    }

    /// The structural arm of [`NodePool::set_member`]: the proxy appears,
    /// disappears, or moves between buckets. `#[cold]` keeps this body (and
    /// its register pressure) out of the hot count-only path — a cascade
    /// step whose count does not cross a power of two never calls it, and
    /// crossings are geometrically rare.
    #[cold]
    #[inline(never)]
    fn set_member_slow(&mut self, idx: u32, child: u16, new_bucket: Option<u16>) {
        // Buckets whose count changed (cascade targets) and whether their
        // non-empty status flipped (group-bookkeeping targets).
        let mut touched = [u16::MAX; 2];
        let mut flipped = [false; 2];
        let level;
        let group_width;
        {
            let NodePool { nodes, arena } = self;
            let node = nodes.get_mut(idx);
            level = node.level;
            group_width = node.group_width;
            // Remove the old proxy, if any — order-preserving, so the
            // canonical ascending-child order survives (the entries after
            // the hole shift down; their positions are patched below).
            let old = std::mem::replace(&mut node.members[child as usize], Member::NONE);
            if old.present() {
                let b = old.bucket as usize;
                let removed = arena.remove_at(&mut node.buckets[b], old.pos as usize);
                debug_assert_eq!(removed, child, "bucket {b} held ghost child");
                for q in old.pos as usize..node.buckets[b].len() {
                    let moved = arena.get(&node.buckets[b], q);
                    node.members[moved as usize].pos = narrow::u32_of_usize(q);
                }
                if node.buckets[b].is_empty() {
                    node.nonempty_buckets.remove(b);
                    flipped[0] = true;
                }
                node.n_members -= 1;
                touched[0] = old.bucket;
            }
            // Insert the new proxy, if any, at its canonical (ascending
            // child index) position. Buckets hold at most one group's worth
            // of children, so the scan and shift are over a handful of u16s
            // — and this whole body is the cold, geometrically rare arm.
            if let Some(bucket) = new_bucket {
                let b = bucket as usize;
                let was_empty = node.buckets[b].is_empty();
                let pos = arena.slice(&node.buckets[b]).partition_point(|&c| c < child);
                arena.insert_at(&mut node.buckets[b], pos, child);
                for q in pos + 1..node.buckets[b].len() {
                    let moved = arena.get(&node.buckets[b], q);
                    node.members[moved as usize].pos = narrow::u32_of_usize(q);
                }
                if was_empty {
                    node.nonempty_buckets.insert(b);
                }
                node.members[child as usize] = Member { bucket, pos: narrow::u32_of_usize(pos) };
                node.n_members += 1;
                if touched[0] != bucket {
                    touched[1] = bucket;
                    flipped[1] = was_empty;
                }
            }
        }
        // Cascade the count changes of the touched buckets into the level-3
        // children, and maintain the group bitset where a bucket flipped
        // between empty and non-empty (level 3 has neither).
        if level != 2 {
            return;
        }
        for t in 0..2 {
            let b = touched[t];
            if b == u16::MAX {
                continue;
            }
            let l = b as usize / group_width as usize;
            let (count, mut child_idx) = {
                let node = self.nodes.get(idx);
                (node.buckets[b as usize].len() as u64, node.children[l])
            };
            // Bucket 0's count changed by exactly one: removal target went
            // count+1 → count, insertion target count−1 → count.
            let old_count = if t == 0 { count + 1 } else { count - 1 };
            if proxy_moves(old_count, count) {
                if child_idx == NO_NODE {
                    child_idx = self.alloc_level3();
                    self.nodes.get_mut(idx).children[l] = child_idx;
                }
                self.set_member(child_idx, b, count, u32::from(b) + 1);
            }
            if flipped[t] {
                let node = self.nodes.get_mut(idx);
                if count == 0 {
                    if node.group_is_empty(l) {
                        node.nonempty_groups.remove(l);
                    }
                } else {
                    node.nonempty_groups.insert(l);
                }
            }
        }
    }

    /// Debug-only full validation of a node and its descendants against the
    /// owning level's bucket handles (`parent[c]` is child bucket `c`;
    /// `children` is the half-open range of child indices this node owns —
    /// one group of the level below).
    pub fn validate_node(&self, idx: u32, parent: &[Bucket], children: std::ops::Range<usize>) {
        let node = self.nodes.get(idx);
        let mut seen = 0usize;
        for b in 0..node.buckets.len() {
            let items = self.arena.slice(&node.buckets[b]);
            assert_eq!(!items.is_empty(), node.nonempty_buckets.contains(b), "bucket {b} bitset");
            assert!(
                items.windows(2).all(|p| p[0] < p[1]),
                "bucket {b} violates the canonical ascending-child order"
            );
            for (pos, &child) in items.iter().enumerate() {
                let m = &node.members[child as usize];
                assert!(m.present(), "bucket {b} holds ghost child {child}");
                assert_eq!(m.bucket as usize, b);
                assert_eq!(m.pos as usize, pos);
                seen += 1;
            }
        }
        assert_eq!(seen, node.n_members);
        // Every member agrees with the child level: present iff the child
        // bucket is non-empty, placed at index `child+1+⌊log2 count⌋` (the
        // derived weight's bucket). Members outside this node's own child
        // range belong to sibling nodes and must be absent here.
        for (c, m) in node.members.iter().enumerate() {
            if !children.contains(&c) {
                assert!(!m.present(), "child {c} outside group but proxy present");
                continue;
            }
            let count = parent.get(c).map_or(0, Bucket::len) as u64;
            if count == 0 {
                assert!(!m.present(), "child {c} empty but proxy present");
            } else {
                let expect = narrow::u32_of_usize(c) + 1 + floor_log2_u64(count);
                assert_eq!(u32::from(m.bucket), expect, "child {c}: misplaced proxy");
            }
        }
        if node.level == 2 {
            let gw = node.group_width as usize;
            for l in 0..node.nonempty_groups.universe() {
                assert_eq!(
                    !node.group_is_empty(l),
                    node.nonempty_groups.contains(l),
                    "group {l} bitset"
                );
            }
            for (l, &child) in node.children.iter().enumerate() {
                let lo = l * gw;
                let hi = (lo + gw).min(node.buckets.len());
                if child != NO_NODE {
                    self.validate_node(child, &node.buckets, lo..hi);
                } else {
                    for b in lo..hi {
                        assert!(node.buckets[b].is_empty(), "bucket {b} non-empty but no child");
                    }
                }
            }
        }
    }

    /// Verifies pool + arena storage invariants (free lists sane, all arena
    /// blocks accounted for). `roots` are the level-2 entry points; every
    /// node must be reachable from them or parked on the free list.
    /// O(capacity); test hook.
    pub fn audit(&self, roots: impl Iterator<Item = u32>) -> Result<(), String> {
        self.nodes.audit()?;
        // pss-lint: allow(no-alloc-hot-path) — audit() is an O(capacity) test/debug hook, never on the update path
        let mut live_nodes = vec![false; self.nodes.slot_count()];
        // pss-lint: allow(no-alloc-hot-path) — audit() is an O(capacity) test/debug hook, never on the update path
        let mut stack: Vec<u32> = roots.filter(|&r| r != NO_NODE).collect();
        while let Some(idx) = stack.pop() {
            let slot = live_nodes
                .get_mut(idx as usize)
                // pss-lint: allow(no-alloc-hot-path) — audit() is an O(capacity) test/debug hook, never on the update path
                .ok_or_else(|| format!("child link {idx} out of bounds"))?;
            if std::mem::replace(slot, true) {
                // pss-lint: allow(no-alloc-hot-path) — audit() is an O(capacity) test/debug hook, never on the update path
                return Err(format!("node {idx} reachable twice"));
            }
            // pss-lint: allow(no-alloc-hot-path) — audit() is an O(capacity) test/debug hook, never on the update path
            stack.extend(self.nodes.get(idx).children.iter().filter(|&&c| c != NO_NODE));
        }
        let reachable = live_nodes.iter().filter(|&&v| v).count();
        if reachable + self.nodes.free_count() != self.nodes.slot_count() {
            // pss-lint: allow(no-alloc-hot-path) — audit() is an O(capacity) test/debug hook, never on the update path
            return Err(format!(
                "{reachable} reachable + {} free != {} slots",
                self.nodes.free_count(),
                self.nodes.slot_count()
            ));
        }
        let live_buckets = live_nodes
            .iter()
            .enumerate()
            .filter(|&(_, &live)| live)
            .flat_map(|(i, _)| self.nodes.get(narrow::u32_of_usize(i)).buckets.iter().copied());
        self.arena.audit(live_buckets)
    }
}

impl SpaceUsage for NodePool {
    fn space_words(&self) -> usize {
        // Per node: bucket handles (1.5 words each), member placements (one
        // word each), child links (half a word), the two bitsets, and the
        // scalars. The bucket *contents* are accounted once, by the shared
        // arena.
        let nodes = self.nodes.space_words_by(|n| {
            n.buckets.len() * 3 / 2
                + n.members.len()
                + n.children.len().div_ceil(2)
                + n.nonempty_buckets.space_words()
                + n.nonempty_groups.space_words()
                + 4
        });
        nodes + self.arena.space_words()
    }
}

/// Software write-combining buffers for the bulk fill — the IPS²Ra-style
/// block permute of the classifier's scatter phase. The naive fill streams
/// every classified id straight to its class cursor, which keeps up to
/// [`L1_BUCKETS`] destination cache lines (and their TLB entries) open at
/// once; beyond L2 that turns the fill into a random-write workload. Ids
/// instead gather in one-cache-line buffers (8 ids) that live in L1, and
/// each full buffer flushes as one 64-byte burst to its class block — the
/// arena sees a handful of sequential line-sized writes per class instead
/// of 64 interleaved streams. Store order within a class is unchanged, so
/// bucket contents (and therefore sample streams) are bit-identical to the
/// direct fill — which is exactly what the pass-through variant below
/// compiles to.
///
/// Gated behind the off-by-default `wc-fill` feature: the staging hop costs
/// an extra store + branch per id, which pays for itself only when the
/// destination streams overwhelm the core's write-combine/fill buffers.
/// On the suite's single-core CI host the direct fill keeps up with 64
/// streams and `wc-fill` measures ~20% *slower*; on wide multi-stream
/// hardware the buffered path is the intended configuration. The A/B bench
/// arms keep both measurable in-tree.
#[cfg(all(feature = "wc-fill", not(feature = "layout-baseline")))]
struct ClassBufs {
    buf: [[ItemId; ClassBufs::LINE]; L1_BUCKETS],
    len: [u8; L1_BUCKETS],
}

#[cfg(all(feature = "wc-fill", not(feature = "layout-baseline")))]
impl ClassBufs {
    /// One cache line of 8-byte ids.
    const LINE: usize = 8;

    fn new() -> Self {
        ClassBufs { buf: [[ItemId::from_raw(0); Self::LINE]; L1_BUCKETS], len: [0; L1_BUCKETS] }
    }

    /// Ids buffered for `class` but not yet stored through its cursor (the
    /// fill adds this to `FillCursor::pos` to get an item's final position).
    #[inline]
    fn pending(&self, class: usize) -> u32 {
        u32::from(self.len[class])
    }

    /// Buffers `id` for `class`, flushing the full line through `cur`. One
    /// line before a flush comes due, the flush target is prefetched for
    /// write — the "one stride ahead" hint of the bulk fill.
    #[inline]
    fn push(
        &mut self,
        arena: &mut BucketArena<ItemId>,
        cur: &mut FillCursor,
        class: usize,
        id: ItemId,
    ) {
        let l = self.len[class] as usize;
        self.buf[class][l] = id;
        if l + 1 == Self::LINE {
            arena.push_raw_line(cur, &self.buf[class]);
            self.len[class] = 0;
        } else {
            if l + 2 == Self::LINE {
                arena.prefetch_at(cur);
            }
            self.len[class] += 1;
        }
    }

    /// Flushes every partial line (end of the fill pass).
    fn drain(&mut self, arena: &mut BucketArena<ItemId>, cur: &mut [FillCursor; L1_BUCKETS]) {
        for class in 0..L1_BUCKETS {
            let l = self.len[class] as usize;
            if l > 0 {
                arena.push_raw_line(&mut cur[class], &self.buf[class][..l]);
                self.len[class] = 0;
            }
        }
    }
}

/// Direct-fill arm (default, and the `layout-baseline` A/B arm): a
/// zero-sized pass-through that stores every id straight through its class
/// cursor. Identical store order to the buffered variant, so the two fills
/// are bit-identical in bucket contents and sample streams.
#[cfg(any(not(feature = "wc-fill"), feature = "layout-baseline"))]
struct ClassBufs;

#[cfg(any(not(feature = "wc-fill"), feature = "layout-baseline"))]
impl ClassBufs {
    fn new() -> Self {
        ClassBufs
    }

    #[inline]
    fn pending(&self, _class: usize) -> u32 {
        0
    }

    #[inline]
    fn push(
        &mut self,
        arena: &mut BucketArena<ItemId>,
        cur: &mut FillCursor,
        _class: usize,
        id: ItemId,
    ) {
        arena.push_raw(cur, id);
    }

    fn drain(&mut self, _arena: &mut BucketArena<ItemId>, _cur: &mut [FillCursor; L1_BUCKETS]) {}
}

/// `BG-Str(S)`: the level-1 structure over the real item set. Owns the item
/// slab, the level-1 bucket arena, and the [`NodePool`] holding every
/// deeper node.
#[derive(Debug)]
pub struct Level1 {
    /// Item storage.
    pub slab: Slab,
    /// `buckets[i]` holds items with `2^i ≤ w < 2^{i+1}` (arena handles).
    pub buckets: Vec<Bucket>,
    /// Backing storage for the level-1 bucket lists.
    pub item_arena: BucketArena<ItemId>,
    /// Non-empty bucket indices.
    pub nonempty_buckets: BitsetList,
    /// Non-empty group indices.
    pub nonempty_groups: BitsetList,
    /// Group width `g₁ = ⌈log2 n₀⌉` (fixed until rebuild).
    pub group_width: u32,
    /// Level-2 children, one per non-empty group (pool indices).
    pub children: Vec<u32>,
    /// Every level-2/3 node of this hierarchy.
    pub pool: NodePool,
    /// Exact Σw over all live items.
    pub total_weight: u128,
    /// Number of items with positive weight (they live in buckets).
    pub n_positive: usize,
    /// Number of zero-weight items (never sampled).
    pub n_zero: usize,
    /// Level-2 group width `g₂` used when creating children.
    pub l2_group_width: u32,
}

impl Level1 {
    /// Creates an empty level-1 structure with group widths derived from `n0`.
    pub fn new(group_width: u32, level2_group_width: u32) -> Self {
        debug_assert!(group_width >= 1 && level2_group_width >= 1);
        let n_groups = L1_BUCKETS / group_width as usize + 1;
        Level1 {
            slab: Slab::new(),
            // pss-lint: allow(no-alloc-hot-path) — one-time construction, not the steady-state cascade
            buckets: vec![Bucket::EMPTY; L1_BUCKETS],
            // The arena's fill padding is never observable through the
            // `Bucket` API; `u64::MAX` is unreachable as a real handle
            // (31-bit generations keep raw ids below 2^63), so the snapshot
            // restore can use displaced padding as its vacancy sentinel
            // when scattering items to their serialized positions.
            item_arena: BucketArena::new(ItemId::from_raw(u64::MAX)),
            nonempty_buckets: BitsetList::new(L1_BUCKETS),
            nonempty_groups: BitsetList::new(n_groups),
            group_width,
            // pss-lint: allow(no-alloc-hot-path) — one-time construction, not the steady-state cascade
            children: vec![NO_NODE; n_groups],
            pool: NodePool::new(),
            total_weight: 0,
            n_positive: 0,
            n_zero: 0,
            l2_group_width: level2_group_width,
        }
    }

    fn group_is_empty(&self, j: usize) -> bool {
        let lo = j * self.group_width as usize;
        let hi = lo + self.group_width as usize - 1;
        match self.nonempty_buckets.succ(lo) {
            Some(b) => b > hi,
            None => true,
        }
    }

    /// A read-only view of the level-2 child of group `j`, if present.
    #[inline]
    pub fn child_view(&self, j: usize) -> Option<NodeView<'_>> {
        let idx = self.children[j];
        (idx != NO_NODE).then(|| NodeView {
            pool: &self.pool,
            node: self.pool.node(idx),
            parent: &self.buckets,
        })
    }

    /// Inserts an item with `weight`, cascading in O(1); returns its handle.
    pub fn insert(&mut self, weight: u64) -> ItemId {
        self.total_weight = self
            .total_weight
            .checked_add(weight as u128)
            // pss-lint: allow(no-panic-paths) — overflow means the Word RAM precondition (W < 2^128) was violated; failing loudly beats sampling from a wrapped total
            .expect("total weight exceeds 2^128 (Word RAM precondition)");
        if weight == 0 {
            self.n_zero += 1;
            return self.slab.insert(0);
        }
        self.n_positive += 1;
        let i = floor_log2_u64(weight) as usize;
        let pos = narrow::u32_of_usize(self.buckets[i].len());
        let id = self.slab.insert_bucketed(weight, pos);
        // pss-lint: allow(no-alloc-hot-path) — BucketArena::push is the arena primitive; it allocates only while a size class grows toward its high-water mark
        self.item_arena.push(&mut self.buckets[i], id);
        if pos == 0 {
            self.nonempty_buckets.insert(i);
            self.nonempty_groups.insert(i / self.group_width as usize);
        }
        self.cascade_if_moved(i, pos as u64, pos as u64 + 1);
        id
    }

    /// Bulk insert: the radix-partitioned build path. One classifier pass
    /// histograms the batch by `⌊log2 w⌋`, every target bucket is carved (or
    /// grown) straight to its final size class, the fill writes each item
    /// once in input order — so slab handles issue exactly as a per-item
    /// loop would — and the proxy hierarchy is derived with **one** cascade
    /// per touched class instead of one per item.
    ///
    /// Bit-identical to a loop of [`Level1::insert`]: level-1 bucket
    /// contents are input-ordered either way, and the node buckets' canonical
    /// ascending-child order (see [`Node::buckets`]) makes the hierarchy a
    /// pure function of the final bucket counts, so deriving once and
    /// cascading n times land on the same structure.
    pub fn insert_many(&mut self, weights: &[u64]) -> Vec<ItemId> {
        // Pass 1: classify — the per-class occupancy histogram.
        let mut add = [0usize; L1_BUCKETS];
        let mut add_zero = 0usize;
        let mut add_total: u128 = 0;
        for &w in weights {
            // No overflow: < 2^64 items of weight < 2^64 sum below 2^128.
            add_total += w as u128;
            if w == 0 {
                add_zero += 1;
            } else {
                add[floor_log2_u64(w) as usize] += 1;
            }
        }
        self.total_weight = self
            .total_weight
            .checked_add(add_total)
            // pss-lint: allow(no-panic-paths) — overflow means the Word RAM precondition (W < 2^128) was violated; failing loudly beats sampling from a wrapped total
            .expect("total weight exceeds 2^128 (Word RAM precondition)");
        // Pass 2: carve. A fresh structure (no live or parked blocks) sizes
        // the arena once and carves all blocks by cursor arithmetic; a warm
        // one grows each target bucket straight to its final class, skipping
        // the doubling chain.
        let fresh = self.n_positive == 0 && self.item_arena.carved() == 0;
        if fresh {
            self.item_arena.reset_to_plan(add.iter().copied());
            for (i, &c) in add.iter().enumerate() {
                if c > 0 {
                    self.item_arena.carve_exact(&mut self.buckets[i], c);
                }
            }
        } else {
            for (i, &c) in add.iter().enumerate() {
                if c > 0 {
                    let cap = self.buckets[i].len() + c;
                    self.item_arena.reserve(&mut self.buckets[i], cap);
                }
            }
        }
        // Pass 3: fill, in input order. Every push lands in a pre-sized
        // block, so this is a linear sweep of slab and bucket writes. Two
        // per-item costs of the generic path are hoisted out of the loop:
        // bucket appends go through raw `FillCursor`s (one store + increment
        // each; the `Bucket` handles are published once at the end), and
        // slab handles switch to the branch-free fresh path as soon as the
        // free list drains — the handle sequence is identical either way,
        // because recycled slots pop in free-list order regardless of
        // weight, exactly as a per-item loop would consume them.
        self.slab.reserve(weights.len());
        // pss-lint: allow(no-alloc-hot-path) — bulk build is the amortized O(n) path, not the per-update cascade
        let mut ids = Vec::with_capacity(weights.len());
        let mut cur = [FillCursor::default(); L1_BUCKETS];
        for (i, &c) in add.iter().enumerate() {
            if c > 0 {
                cur[i] = self.item_arena.fill_cursor(&self.buckets[i]);
            }
        }
        let recycled = self.slab.free_slots().min(weights.len());
        let (head, tail) = weights.split_at(recycled);
        let mut bufs = ClassBufs::new();
        for &w in head {
            // Recycled slots land at free-list positions, i.e. random
            // access into the slab; peek the list a stride ahead so the
            // record line is resident when its insert stores to it.
            self.slab.prefetch_recycled(8);
            if w == 0 {
                self.n_zero += 1;
                // pss-lint: allow(no-alloc-hot-path) — bulk build is the amortized O(n) path, not the per-update cascade
                ids.push(self.slab.insert(0));
                continue;
            }
            let i = floor_log2_u64(w) as usize;
            let id = self.slab.insert_bucketed(w, cur[i].pos() + bufs.pending(i));
            // pss-lint: allow(no-alloc-hot-path) — fill-pass store through a pre-carved cursor; the bulk build is the amortized O(n) path
            bufs.push(&mut self.item_arena, &mut cur[i], i, id);
            // pss-lint: allow(no-alloc-hot-path) — bulk build is the amortized O(n) path, not the per-update cascade
            ids.push(id);
        }
        for &w in tail {
            if w == 0 {
                self.n_zero += 1;
                // pss-lint: allow(no-alloc-hot-path) — bulk build is the amortized O(n) path, not the per-update cascade
                ids.push(self.slab.insert_bucketed_fresh(0, 0));
                continue;
            }
            let i = floor_log2_u64(w) as usize;
            let id = self.slab.insert_bucketed_fresh(w, cur[i].pos() + bufs.pending(i));
            // pss-lint: allow(no-alloc-hot-path) — fill-pass store through a pre-carved cursor; the bulk build is the amortized O(n) path
            bufs.push(&mut self.item_arena, &mut cur[i], i, id);
            // pss-lint: allow(no-alloc-hot-path) — bulk build is the amortized O(n) path, not the per-update cascade
            ids.push(id);
        }
        bufs.drain(&mut self.item_arena, &mut cur);
        for (i, &c) in add.iter().enumerate() {
            if c > 0 {
                let fc = cur[i];
                self.item_arena.commit_cursor(&mut self.buckets[i], fc);
            }
        }
        self.n_positive += weights.len() - add_zero;
        // Failpoint between fill and derive: a crash here leaves buckets
        // populated but bitsets/hierarchy stale — the worst-case torn bulk.
        pss_core::fault::fail_point_unwind(pss_core::fault::Site::BulkFill);
        // Pass 4: derive. A fresh load (every prior count zero) builds the
        // whole proxy hierarchy in one locality-packed pass; a warm batch
        // keeps one bitset/cascade update per touched class.
        if fresh {
            for (i, &c) in add.iter().enumerate() {
                if c > 0 {
                    self.nonempty_buckets.insert(i);
                    self.nonempty_groups.insert(i / self.group_width as usize);
                }
            }
            self.derive_hierarchy();
        } else {
            for (i, &c) in add.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let count = self.buckets[i].len() as u64;
                let old_count = count - c as u64;
                if old_count == 0 {
                    self.nonempty_buckets.insert(i);
                    self.nonempty_groups.insert(i / self.group_width as usize);
                }
                self.cascade_if_moved(i, old_count, count);
            }
        }
        ids
    }

    /// Deletes an item; returns its weight, or `None` for stale handles.
    pub fn delete(&mut self, id: ItemId) -> Option<u64> {
        let (weight, pos) = self.slab.remove_bucketed(id)?;
        self.total_weight -= weight as u128;
        if weight == 0 {
            self.n_zero -= 1;
            return Some(0);
        }
        let i = floor_log2_u64(weight) as usize;
        self.n_positive -= 1;
        let count = self.buckets[i].len() as u64;
        self.detach(i, pos as usize);
        self.cascade_if_moved(i, count, count - 1);
        Some(weight)
    }

    /// Removes the item at `pos` of bucket `i`, patching the swap-removed
    /// slot and the empty-bucket/empty-group bitsets (no cascade).
    fn detach(&mut self, i: usize, pos: usize) {
        self.item_arena.swap_remove(&mut self.buckets[i], pos);
        if pos < self.buckets[i].len() {
            let moved = self.item_arena.get(&self.buckets[i], pos);
            self.slab.set_bucket_pos(moved, narrow::u32_of_usize(pos));
        }
        if self.buckets[i].is_empty() {
            self.nonempty_buckets.remove(i);
            let j = i / self.group_width as usize;
            if self.group_is_empty(j) {
                self.nonempty_groups.remove(j);
            }
        }
    }

    /// Changes a live item's weight in O(1), preserving its handle
    /// (equivalent to delete + insert, §4.5, but without consuming the id).
    /// Returns the old weight, or `None` for stale handles.
    pub fn set_weight(&mut self, id: ItemId, new_w: u64) -> Option<u64> {
        let old_w = self.slab.weight(id)?;
        if old_w == new_w {
            return Some(old_w);
        }
        self.reweight(id, old_w, new_w);
        Some(old_w)
    }

    /// The body of [`Level1::set_weight`] for a caller that has already
    /// validated `id` and fetched `old_w ≠ new_w` (the sampler's update
    /// path reads the slab record early anyway — for the journal entry and
    /// to warm the line — so re-validating here would be pure duplication).
    pub(crate) fn reweight(&mut self, id: ItemId, old_w: u64, new_w: u64) {
        debug_assert_eq!(self.slab.weight(id), Some(old_w), "stale caller-supplied weight");
        debug_assert_ne!(old_w, new_w, "no-op reweights are filtered by the caller");
        self.total_weight = (self.total_weight - old_w as u128)
            .checked_add(new_w as u128)
            // pss-lint: allow(no-panic-paths) — overflow means the Word RAM precondition (W < 2^128) was violated; failing loudly beats sampling from a wrapped total
            .expect("total weight exceeds 2^128 (Word RAM precondition)");
        let old_bucket = (old_w > 0).then(|| floor_log2_u64(old_w) as usize);
        let new_bucket = (new_w > 0).then(|| floor_log2_u64(new_w) as usize);
        self.slab.set_weight(id, new_w);
        if old_bucket == new_bucket {
            // Same bucket (or both zero): proxy weights depend only on the
            // bucket index and count, so nothing else moves.
            return;
        }
        // Detach from the old bucket, if any.
        if let Some(i) = old_bucket {
            let pos = self.slab.bucket_pos(id) as usize;
            let count = self.buckets[i].len() as u64;
            self.detach(i, pos);
            self.cascade_if_moved(i, count, count - 1);
            self.n_positive -= 1;
        } else {
            self.n_zero -= 1;
        }
        // Attach to the new bucket, if any.
        if let Some(i) = new_bucket {
            let pos = narrow::u32_of_usize(self.buckets[i].len());
            // pss-lint: allow(no-alloc-hot-path) — BucketArena::push is the arena primitive; it allocates only while a size class grows toward its high-water mark
            self.item_arena.push(&mut self.buckets[i], id);
            self.slab.set_bucket_pos(id, pos);
            if pos == 0 {
                self.nonempty_buckets.insert(i);
                self.nonempty_groups.insert(i / self.group_width as usize);
            }
            self.cascade_if_moved(i, pos as u64, pos as u64 + 1);
            self.n_positive += 1;
        } else {
            self.n_zero += 1;
        }
    }

    /// Cascades bucket `i`'s count change into its level-2 proxy, but only
    /// when the proxy actually moves (count crossed a power of two or the
    /// bucket flipped empty↔non-empty) — derived weights make the unchanged
    /// case free.
    #[inline]
    fn cascade_if_moved(&mut self, i: usize, old_count: u64, new_count: u64) {
        if proxy_moves(old_count, new_count) {
            self.cascade_bucket(narrow::u16_of_usize(i), new_count);
        }
    }

    /// Pushes the new count of bucket `i` into the level-2 child of its group.
    fn cascade_bucket(&mut self, i: u16, count: u64) {
        let j = i as usize / self.group_width as usize;
        let mut child = self.children[j];
        if child == NO_NODE {
            child = self.pool.alloc_level2(self.l2_group_width);
            self.children[j] = child;
        }
        self.pool.set_member(child, i, count, u32::from(i) + 1);
    }

    /// Derives the whole proxy hierarchy from the final level-1 bucket
    /// counts (rebuilds, fresh bulk loads, snapshot restores): the packed
    /// single-pass construction by default, one incremental cascade per
    /// non-empty bucket under the `layout-baseline` A/B feature. Both land
    /// on the identical logical structure — the hierarchy is a pure
    /// function of the bucket counts (canonical ascending-child order) —
    /// so sample streams cannot tell the arms apart.
    fn derive_hierarchy(&mut self) {
        #[cfg(not(feature = "layout-baseline"))]
        self.derive_packed();
        #[cfg(feature = "layout-baseline")]
        for i in 0..L1_BUCKETS {
            let count = self.buckets[i].len() as u64;
            if count > 0 {
                self.cascade_bucket(narrow::u16_of_usize(i), count);
            }
        }
    }

    /// Locality-packed derive: plans the proxy arena so each level-1
    /// group's working set — its level-2 node's bucket blocks followed by
    /// that node's level-3 children's blocks — is one contiguous run, then
    /// carves and fills it in that order. The incremental cascade instead
    /// allocates blocks in proxy-arrival order and grows them through the
    /// doubling chain, scattering one group's blocks across the arena; a
    /// query descends group-locally, so packing by group is what keeps a
    /// descent on a handful of cache lines at any n.
    ///
    /// Logical structure is identical to cascading every bucket (same
    /// members, same canonical ascending-child bucket contents, same
    /// bitsets); only arena offsets and pool slot order differ, which no
    /// query or snapshot observes. Preconditions: bucket lists final;
    /// callers may leave stale pool contents/child links — both are reset
    /// here.
    #[cfg(not(feature = "layout-baseline"))]
    fn derive_packed(&mut self) {
        let gw = self.group_width as usize;
        let g2 = self.l2_group_width;
        let g2w = g2 as usize;
        let n_groups = self.children.len();
        let n2_groups = L2_BUCKETS / g2w + 1;
        self.pool.reset();
        self.children.iter_mut().for_each(|c| *c = NO_NODE);
        // Plan pass: every node's non-empty-bucket capacities, in the exact
        // order the fill pass carves them. Scratch histograms: `len2[b2]`
        // counts the group's proxies landing in level-2 bucket `b2`
        // (`b2 = i+1+⌊log2 count⌋ < 128`), `len3[b3]` likewise per level-2
        // group (`b3 = b2+1+⌊log2 len2⌋ < 160`); `len2` is zeroed whole per
        // group and `len3` via its touched range, so no stale class leaks
        // between groups.
        // pss-lint: allow(no-alloc-hot-path) — rebuild/bulk-scale derive; one plan vector per derive, amortized against the batch that triggered it
        let mut caps: Vec<usize> = Vec::new();
        let mut len2 = [0u32; L2_BUCKETS];
        let mut len3 = [0u32; L3_BUCKETS];
        for j in 0..n_groups {
            let lo = j * gw;
            if lo >= L1_BUCKETS {
                break;
            }
            let hi = (lo + gw).min(L1_BUCKETS);
            len2.fill(0);
            let mut any = false;
            for i in lo..hi {
                let c = self.buckets[i].len() as u64;
                if c > 0 {
                    len2[i + 1 + floor_log2_u64(c) as usize] += 1;
                    any = true;
                }
            }
            if !any {
                continue;
            }
            for b2 in (lo + 1)..L2_BUCKETS {
                if len2[b2] > 0 {
                    // pss-lint: allow(no-alloc-hot-path) — carve-plan construction, once per bulk build/rebuild
                    caps.push(len2[b2] as usize);
                }
            }
            for l in 0..n2_groups {
                let lo2 = l * g2w;
                if lo2 >= L2_BUCKETS {
                    break;
                }
                let hi2 = (lo2 + g2w).min(L2_BUCKETS);
                let (mut lo3, mut hi3) = (L3_BUCKETS, 0usize);
                for b2 in lo2..hi2 {
                    let c2 = len2[b2] as u64;
                    if c2 > 0 {
                        let b3 = b2 + 1 + floor_log2_u64(c2) as usize;
                        len3[b3] += 1;
                        lo3 = lo3.min(b3);
                        hi3 = hi3.max(b3);
                    }
                }
                for b3 in lo3..=hi3.min(L3_BUCKETS - 1) {
                    if len3[b3] > 0 {
                        // pss-lint: allow(no-alloc-hot-path) — carve-plan construction, once per bulk build/rebuild
                        caps.push(len3[b3] as usize);
                        len3[b3] = 0;
                    }
                }
            }
        }
        if caps.is_empty() {
            return;
        }
        self.pool.arena.reset_to_plan(caps.iter().copied());
        // Fill pass: the same walk, claiming each planned block in order
        // and placing every proxy at its canonical position (children
        // ascending within each bucket — `push` into a carved block never
        // allocates, so the cascade's steady-state guarantee holds here
        // trivially).
        let Level1 { buckets, pool, children, .. } = self;
        let NodePool { nodes, arena } = pool;
        for j in 0..n_groups {
            let lo = j * gw;
            if lo >= L1_BUCKETS {
                break;
            }
            let hi = (lo + gw).min(L1_BUCKETS);
            len2.fill(0);
            let mut any = false;
            for i in lo..hi {
                let c = buckets[i].len() as u64;
                if c > 0 {
                    len2[i + 1 + floor_log2_u64(c) as usize] += 1;
                    any = true;
                }
            }
            if !any {
                continue;
            }
            let child2 = nodes.alloc(|| Node::new_level2(g2), |n| n.reinit_level2(g2));
            children[j] = child2;
            {
                let node = nodes.get_mut(child2);
                let mut n2 = 0usize;
                for b2 in (lo + 1)..L2_BUCKETS {
                    if len2[b2] > 0 {
                        arena.carve_exact(&mut node.buckets[b2], len2[b2] as usize);
                        node.nonempty_buckets.insert(b2);
                        node.nonempty_groups.insert(b2 / g2w);
                    }
                }
                for i in lo..hi {
                    let c = buckets[i].len() as u64;
                    if c == 0 {
                        continue;
                    }
                    let b2 = i + 1 + floor_log2_u64(c) as usize;
                    let pos = node.buckets[b2].len();
                    // pss-lint: allow(no-alloc-hot-path) — per-class bulk derive; blocks were carved by the plan, push is cursor arithmetic
                    arena.push(&mut node.buckets[b2], narrow::u16_of_usize(i));
                    node.members[i] =
                        Member { bucket: narrow::u16_of_usize(b2), pos: narrow::u32_of_usize(pos) };
                    n2 += 1;
                }
                node.n_members = n2;
            }
            for l in 0..n2_groups {
                let lo2 = l * g2w;
                if lo2 >= L2_BUCKETS {
                    break;
                }
                let hi2 = (lo2 + g2w).min(L2_BUCKETS);
                let (mut lo3, mut hi3) = (L3_BUCKETS, 0usize);
                for b2 in lo2..hi2 {
                    let c2 = len2[b2] as u64;
                    if c2 > 0 {
                        let b3 = b2 + 1 + floor_log2_u64(c2) as usize;
                        len3[b3] += 1;
                        lo3 = lo3.min(b3);
                        hi3 = hi3.max(b3);
                    }
                }
                if lo3 > hi3 {
                    continue;
                }
                let child3 = nodes.alloc(Node::new_level3, Node::reinit_level3);
                let node3 = nodes.get_mut(child3);
                for b3 in lo3..=hi3 {
                    if len3[b3] > 0 {
                        arena.carve_exact(&mut node3.buckets[b3], len3[b3] as usize);
                        node3.nonempty_buckets.insert(b3);
                        len3[b3] = 0;
                    }
                }
                let mut n3 = 0usize;
                for b2 in lo2..hi2 {
                    let c2 = len2[b2] as u64;
                    if c2 == 0 {
                        continue;
                    }
                    let b3 = b2 + 1 + floor_log2_u64(c2) as usize;
                    let pos = node3.buckets[b3].len();
                    // pss-lint: allow(no-alloc-hot-path) — per-class bulk derive; blocks were carved by the plan, push is cursor arithmetic
                    arena.push(&mut node3.buckets[b3], narrow::u16_of_usize(b2));
                    node3.members[b2] =
                        Member { bucket: narrow::u16_of_usize(b3), pos: narrow::u32_of_usize(pos) };
                    n3 += 1;
                }
                node3.n_members = n3;
                nodes.get_mut(child2).children[l] = child3;
            }
        }
    }

    /// Rebuilds the group/hierarchy layers in place with new group widths
    /// (global rebuilding, §4.5). Item handles are preserved, and **storage
    /// is recycled**: the arenas, the node pool, and every bitset keep their
    /// allocations, so a rebuild performs no heap traffic up to the
    /// structure's previous high-water size.
    ///
    /// The level-1 bucket assignment `⌊log2 w⌋` does not depend on the group
    /// widths, so a plain (grow) rebuild keeps the item buckets as they are
    /// and only re-derives the grouping and the proxy hierarchy —
    /// O([`L1_BUCKETS`]) cascades, *not* O(n). Pass `compact = true` on
    /// shrink rebuilds to also re-place every item into freshly carved
    /// tight blocks, which is what keeps space O(n) after mass deletion
    /// (O(n) time, amortized against the deletes that triggered it).
    pub fn rebuild(&mut self, group_width: u32, level2_group_width: u32, compact: bool) {
        let n_groups = L1_BUCKETS / group_width as usize + 1;
        self.group_width = group_width;
        self.l2_group_width = level2_group_width;
        self.pool.reset();
        self.children.clear();
        // pss-lint: allow(no-alloc-hot-path) — clear+resize to the retained length reuses the kept allocation — no allocator traffic (reinit/rebuild)
        self.children.resize(n_groups, NO_NODE);
        self.nonempty_groups.reset(n_groups);
        if compact {
            self.buckets.iter_mut().for_each(|b| *b = Bucket::EMPTY);
            self.nonempty_buckets.reset(L1_BUCKETS);
            self.total_weight = 0;
            self.n_positive = 0;
            self.n_zero = 0;
            // Pass 1: bucket occupancies — the same classifier histogram as
            // the bulk build — so shrink-compaction is a radix partition:
            // one arena resize plans the whole region, and every block is
            // carved at its final size class by cursor arithmetic (no
            // free-list traffic, no doubling-chain copies during the fill).
            let mut counts = [0usize; L1_BUCKETS];
            for idx in 0..self.slab.slot_count() {
                if let Some((_, w)) = self.slab.entry_at(idx) {
                    if w > 0 {
                        counts[floor_log2_u64(w) as usize] += 1;
                    }
                }
            }
            self.item_arena.reset_to_plan(counts.iter().copied());
            for (i, &c) in counts.iter().enumerate() {
                if c > 0 {
                    self.item_arena.carve_exact(&mut self.buckets[i], c);
                }
            }
            // Pass 2: place the items.
            for idx in 0..self.slab.slot_count() {
                let Some((id, w)) = self.slab.entry_at(idx) else { continue };
                if w == 0 {
                    self.n_zero += 1;
                    continue;
                }
                self.n_positive += 1;
                self.total_weight += w as u128;
                let i = floor_log2_u64(w) as usize;
                let pos = narrow::u32_of_usize(self.buckets[i].len());
                // pss-lint: allow(no-alloc-hot-path) — BucketArena::push is the arena primitive; it allocates only while a size class grows toward its high-water mark (rebuild)
                self.item_arena.push(&mut self.buckets[i], id);
                self.slab.set_bucket_pos(id, pos);
            }
            for i in 0..L1_BUCKETS {
                if !self.buckets[i].is_empty() {
                    self.nonempty_buckets.insert(i);
                }
            }
        }
        // Re-derive grouping and the whole proxy hierarchy — locality-packed
        // by default (one contiguous arena run per group), per-bucket
        // cascades under `layout-baseline`; identical logical structure
        // either way.
        for i in 0..L1_BUCKETS {
            if !self.buckets[i].is_empty() {
                self.nonempty_groups.insert(i / group_width as usize);
            }
        }
        self.derive_hierarchy();
    }

    /// Debug-only full-structure validation (all three levels).
    pub fn validate(&self) {
        let mut total: u128 = 0;
        let mut positive = 0usize;
        let mut zero = 0usize;
        for (id, w) in self.slab.iter() {
            total += w as u128;
            if w == 0 {
                zero += 1;
                continue;
            }
            positive += 1;
            let i = floor_log2_u64(w) as usize;
            let pos = self.slab.bucket_pos(id) as usize;
            assert!(
                pos < self.buckets[i].len() && self.item_arena.get(&self.buckets[i], pos) == id,
                "item {id:?} misplaced"
            );
        }
        assert_eq!(total, self.total_weight);
        assert_eq!(positive, self.n_positive);
        assert_eq!(zero, self.n_zero);
        let bucketed: usize = self.buckets.iter().map(Bucket::len).sum();
        assert_eq!(bucketed, self.n_positive);
        for i in 0..L1_BUCKETS {
            assert_eq!(!self.buckets[i].is_empty(), self.nonempty_buckets.contains(i));
        }
        for j in 0..self.nonempty_groups.universe() {
            assert_eq!(!self.group_is_empty(j), self.nonempty_groups.contains(j));
        }
        let gw = self.group_width as usize;
        for (j, &child) in self.children.iter().enumerate() {
            let lo = j * gw;
            let hi = (lo + gw).min(L1_BUCKETS);
            if child != NO_NODE {
                self.pool.validate_node(child, &self.buckets, lo..hi);
            } else {
                for i in lo..hi {
                    assert!(self.buckets[i].is_empty());
                }
            }
        }
        // pss-lint: allow(no-panic-paths) — audit() is an explicitly requested integrity check; a violated invariant must abort, not be papered over
        self.audit_storage().expect("storage audit");
    }

    /// Verifies the flat-storage invariants: node-pool free list, arena
    /// block tiling for both arenas. O(capacity); test hook.
    pub fn audit_storage(&self) -> Result<(), String> {
        self.item_arena.audit(self.buckets.iter().copied())?;
        self.pool.audit(self.children.iter().copied())
    }
}

impl SpaceUsage for Level1 {
    fn space_words(&self) -> usize {
        self.slab.space_words()
            + self.buckets.len() * 3 / 2
            + self.item_arena.space_words()
            + self.children.len().div_ceil(2)
            + self.pool.space_words()
            + self.nonempty_buckets.space_words()
            + self.nonempty_groups.space_words()
            + 8
    }
}

/// A read-only view shared by the query algorithms across levels
/// (real items at level 1, proxies at levels 2–3).
pub trait LevelView {
    /// Item identifier at this level.
    type Id: Copy + std::fmt::Debug;

    /// Number of items at this level.
    fn n_items(&self) -> usize;
    /// Non-empty bucket index set.
    fn nonempty(&self) -> &BitsetList;
    /// Number of items in bucket `b`.
    fn bucket_len(&self, b: usize) -> usize;
    /// The item at position `pos` of bucket `b`.
    fn bucket_item(&self, b: usize, pos: usize) -> Self::Id;
    /// Hints that [`LevelView::bucket_item`] will soon be asked for
    /// `(b, pos)` — bounds-checked, out-of-range positions are a no-op. A
    /// prefetch moves no observable data and draws no randomness; sample
    /// streams are unaffected. Default: no-op (proxy-level buckets are a
    /// few u16 lines, already resident).
    #[inline]
    fn prefetch_bucket_item(&self, _b: usize, _pos: usize) {}
    /// Hints that the item's weight will soon be read
    /// ([`LevelView::weight_f64_bounds`]). Default: no-op.
    #[inline]
    fn prefetch_weight(&self, _id: Self::Id) {}
    /// Exact weight of an item as a fixed-width [`U256`] (`Copy`, no heap;
    /// callers convert to `BigUint` only on the exact/sliver paths).
    fn weight_u256(&self, id: Self::Id) -> U256;
    /// Certified `f64` bracket of the item's weight (`lo ≤ w ≤ hi` exactly,
    /// ulp-wide): the allocation-free input of the query fast path. Must
    /// bracket the same value [`LevelView::weight_u256`] returns.
    fn weight_f64_bounds(&self, id: Self::Id) -> (f64, f64);
}

impl LevelView for Level1 {
    type Id = ItemId;

    fn n_items(&self) -> usize {
        self.n_positive
    }
    fn nonempty(&self) -> &BitsetList {
        &self.nonempty_buckets
    }
    fn bucket_len(&self, b: usize) -> usize {
        self.buckets[b].len()
    }
    fn bucket_item(&self, b: usize, pos: usize) -> ItemId {
        self.item_arena.get(&self.buckets[b], pos)
    }
    fn prefetch_bucket_item(&self, b: usize, pos: usize) {
        wordram::prefetch::prefetch_read(self.item_arena.slice(&self.buckets[b]), pos);
    }
    fn prefetch_weight(&self, id: ItemId) {
        self.slab.prefetch_slot(id.idx());
    }
    fn weight_u256(&self, id: ItemId) -> U256 {
        // pss-lint: allow(no-panic-paths) — ids handed to weight_u256 come from this level's own bucket lists, which hold only live items
        U256::from_u64(self.slab.weight(id).expect("live item"))
    }
    fn weight_f64_bounds(&self, id: ItemId) -> (f64, f64) {
        // pss-lint: allow(no-panic-paths) — ids handed to weight_f64_bounds come from this level's own bucket lists, which hold only live items
        let w = self.slab.weight(id).expect("live item");
        // u64 → f64 is correctly rounded; exact below 2^53, else nudge.
        let f = w as f64;
        if w <= 1 << 53 {
            (f, f)
        } else {
            (f.next_down(), f.next_up())
        }
    }
}

/// A borrowed `(pool, node, parent buckets)` triple: the [`LevelView`] of
/// one level-2/3 node. The node alone can resolve neither its arena-backed
/// bucket lists (pool) nor its proxies' derived weights (`parent[c]` is the
/// child level's bucket `c`, whose length × `2^{c+1}` is proxy `c`'s
/// weight).
#[derive(Clone, Copy, Debug)]
pub struct NodeView<'a> {
    /// The pool owning the node, its bucket storage, and its children.
    pub pool: &'a NodePool,
    /// The node itself.
    pub node: &'a Node,
    /// Bucket handles of the level below (weights derive from their lengths).
    pub parent: &'a [Bucket],
}

impl<'a> NodeView<'a> {
    /// The level-3 child of group `l`, if present (level-2 nodes only).
    #[inline]
    pub fn child(&self, l: usize) -> Option<NodeView<'a>> {
        let idx = self.node.children[l];
        (idx != NO_NODE).then(|| NodeView {
            pool: self.pool,
            node: self.pool.node(idx),
            parent: &self.node.buckets,
        })
    }

    /// The derived child-bucket count behind proxy `id` (must be live).
    #[inline]
    fn proxy_count(&self, id: u16) -> u64 {
        let count = self.parent[id as usize].len() as u64;
        debug_assert!(count > 0, "live proxy {id} over empty child bucket");
        count
    }
}

impl LevelView for NodeView<'_> {
    type Id = u16;

    fn n_items(&self) -> usize {
        self.node.n_members
    }
    fn nonempty(&self) -> &BitsetList {
        &self.node.nonempty_buckets
    }
    fn bucket_len(&self, b: usize) -> usize {
        self.node.buckets[b].len()
    }
    fn bucket_item(&self, b: usize, pos: usize) -> u16 {
        self.pool.arena.get(&self.node.buckets[b], pos)
    }
    fn weight_u256(&self, id: u16) -> U256 {
        U256::from_u64_shifted(self.proxy_count(id), u32::from(id) + 1)
    }
    fn weight_f64_bounds(&self, id: u16) -> (f64, f64) {
        // count < 2^53 and the scale is a power of two, so the product is an
        // exact f64 — the bracket is a point.
        let f = self.proxy_count(id) as f64 * pow2f(i32::from(id) + 1);
        (f, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bucket-level equality of two nodes: same members, same bucket
    /// contents in the same order, same bitsets, recursing into the
    /// children of non-empty groups. Arena offsets and pool slot indices
    /// are layout, not structure, and are deliberately not compared; nor
    /// are "warm" children of empty groups (nodes a proxy transited
    /// through), which no query ever visits.
    fn assert_nodes_equal(pa: &NodePool, ia: u32, pb: &NodePool, ib: u32) {
        let a = pa.node(ia);
        let b = pb.node(ib);
        assert_eq!(a.level, b.level);
        assert_eq!(a.group_width, b.group_width);
        assert_eq!(a.n_members, b.n_members);
        assert_eq!(a.members, b.members);
        assert_eq!(a.buckets.len(), b.buckets.len());
        for (x, y) in a.buckets.iter().zip(&b.buckets) {
            assert_eq!(pa.arena.slice(x), pb.arena.slice(y));
        }
        for i in 0..a.nonempty_buckets.universe() {
            assert_eq!(a.nonempty_buckets.contains(i), b.nonempty_buckets.contains(i));
        }
        if a.level == 2 {
            for l in 0..a.nonempty_groups.universe() {
                assert_eq!(a.nonempty_groups.contains(l), b.nonempty_groups.contains(l));
                if a.nonempty_groups.contains(l) {
                    assert_ne!(a.children[l], NO_NODE);
                    assert_ne!(b.children[l], NO_NODE);
                    assert_nodes_equal(pa, a.children[l], pb, b.children[l]);
                }
            }
        }
    }

    /// Full bucket-level structure equality across all three levels — the
    /// bit-identity relation the bulk build promises against the per-item
    /// loop (everything a position-sensitive query can observe).
    fn assert_equivalent(a: &Level1, b: &Level1) {
        assert_eq!(a.group_width, b.group_width);
        assert_eq!(a.l2_group_width, b.l2_group_width);
        assert_eq!(a.total_weight, b.total_weight);
        assert_eq!(a.n_positive, b.n_positive);
        assert_eq!(a.n_zero, b.n_zero);
        for (x, y) in a.buckets.iter().zip(&b.buckets) {
            assert_eq!(a.item_arena.slice(x), b.item_arena.slice(y));
        }
        for i in 0..L1_BUCKETS {
            assert_eq!(a.nonempty_buckets.contains(i), b.nonempty_buckets.contains(i));
        }
        for j in 0..a.nonempty_groups.universe() {
            assert_eq!(a.nonempty_groups.contains(j), b.nonempty_groups.contains(j));
            if a.nonempty_groups.contains(j) {
                assert_ne!(a.children[j], NO_NODE);
                assert_ne!(b.children[j], NO_NODE);
                assert_nodes_equal(&a.pool, a.children[j], &b.pool, b.children[j]);
            }
        }
        a.validate();
        b.validate();
    }

    /// Mixed-magnitude weights: zeros, pure powers of two across the whole
    /// exponent range, and general values — every classifier class and the
    /// power-crossing cascade paths all get exercised.
    fn weights(n: usize, seed: u64) -> Vec<u64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                match x % 8 {
                    0 => 0,
                    1 => 1u64 << (x >> 58),
                    2 => (x >> 32) & 0xFFFF,
                    _ => (x >> 40) | 1,
                }
            })
            .collect()
    }

    #[test]
    fn bulk_build_matches_per_item_loop() {
        for n in [0usize, 1, 5, 100, 3000] {
            let ws = weights(n, 0xABCD ^ n as u64);
            let mut a = Level1::new(9, 4);
            let mut b = Level1::new(9, 4);
            let ids_a = a.insert_many(&ws);
            let ids_b: Vec<ItemId> = ws.iter().map(|&w| b.insert(w)).collect();
            assert_eq!(ids_a, ids_b, "n = {n}");
            assert_equivalent(&a, &b);
        }
    }

    #[test]
    fn bulk_into_warm_structure_matches_per_item_loop() {
        let pre = weights(500, 1);
        let batch = weights(800, 2);
        let mut a = Level1::new(10, 4);
        let mut b = Level1::new(10, 4);
        // Identical warm-up with churn, so parked blocks and slab free
        // lists are in play when the batch lands.
        let ids_a = a.insert_many(&pre);
        let ids_b: Vec<ItemId> = pre.iter().map(|&w| b.insert(w)).collect();
        for k in (0..pre.len()).step_by(3) {
            assert_eq!(a.delete(ids_a[k]), b.delete(ids_b[k]));
        }
        let batch_a = a.insert_many(&batch);
        let batch_b: Vec<ItemId> = batch.iter().map(|&w| b.insert(w)).collect();
        assert_eq!(batch_a, batch_b);
        assert_equivalent(&a, &b);
    }

    #[test]
    fn bulk_equivalence_survives_rebuilds() {
        let ws = weights(2000, 7);
        let mut a = Level1::new(11, 4);
        let mut b = Level1::new(11, 4);
        let ids_a = a.insert_many(&ws);
        let ids_b: Vec<ItemId> = ws.iter().map(|&w| b.insert(w)).collect();
        // Shrink-compaction: mass delete, then the partition-style rebuild.
        for k in 0..1500 {
            assert_eq!(a.delete(ids_a[k]), b.delete(ids_b[k]));
        }
        a.rebuild(9, 4, true);
        b.rebuild(9, 4, true);
        assert_equivalent(&a, &b);
        // Grow rebuild after one more bulk/per-op round.
        let more = weights(4000, 8);
        let more_a = a.insert_many(&more);
        let more_b: Vec<ItemId> = more.iter().map(|&w| b.insert(w)).collect();
        assert_eq!(more_a, more_b);
        a.rebuild(12, 4, false);
        b.rebuild(12, 4, false);
        assert_equivalent(&a, &b);
    }
}
