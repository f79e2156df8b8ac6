//! The three-level sampling hierarchy of HALT (§4.1–§4.2; see the README's
//! "Paper → module map").
//!
//! - [`Level1`] is `BG-Str(S)`: real items bucketed by `⌊log2 w⌋`, buckets
//!   grouped into windows of `g₁ = ⌈log2 n₀⌉` indices; above the size floor
//!   (`g₁ > IN_PLACE_BUCKETS`) each non-empty group `j` owns a level-2
//!   [`Node`] over the next-level item set `Y_j` (one proxy item per
//!   non-empty level-1 bucket, weight `2^{i+1}·|B(i)|`).
//! - A level-2 [`Node`] is `BG-Str(Y_j)` with group width `g₂ = ⌈log2 g₁⌉`;
//!   each non-empty group `l` owns a level-3 [`Node`] over `Z_l`.
//! - A level-3 [`Node`] is `BG-Str(Z_l)`; its buckets form the final-level
//!   instance answered by the adapter + lookup table (§4.3–4.4).
//!
//! **Flat samplers.** A query opens every level-1 group with at most
//! [`IN_PLACE_BUCKETS`] non-empty buckets in place, without its level-2
//! node. A group spans `g₁` buckets, so when `g₁ ≤ IN_PLACE_BUCKETS` (every
//! sampler at the size floor) no query reads a node at all, and the
//! structure builds none: updates stop at the level-1 bitsets and derives
//! produce nothing ([`Level1::is_flat`]). The rule depends only on `g₁`,
//! which changes only at a rebuild, and a rebuild re-derives the hierarchy
//! from scratch, so a sampler that grows past the floor gets its nodes then.
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
//! level-1 buckets). Every level stores bucket handles only for a window
//! of indices: a node for the buckets its proxies can reach, [`Level1`]
//! for its lowest to highest non-empty bucket. So a tiny sampler pays for
//! the buckets it holds, not for the 64/128/160-index universes.
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
use crate::sampler::N0_FLOOR;
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

/// Most non-empty buckets a significant level-1 group may hold and still be
/// opened in place by a query, without its level-2 node: `⌈log2 N0_FLOOR⌉`,
/// the group width `g₁` of a sampler at the size floor. A [`Level1`] whose
/// groups are no wider than this is flat: it builds no level-2/3 nodes.
pub const IN_PLACE_BUCKETS: usize = (usize::BITS - (N0_FLOOR - 1).leading_zeros()) as usize;

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

/// Bucket handles for a window of absolute bucket indices: `handles[k]` is
/// bucket `base + k`, and every bucket outside [`BucketWindow::range`] is
/// empty. The bucket storage of both a [`Node`] and [`Level1`]; each owner
/// keeps its own widening policy (a node grows upward from the start its
/// group fixes, [`Level1`] spans its non-empty range and re-fits).
#[derive(Debug, Default)]
pub struct BucketWindow {
    /// Absolute index of `handles[0]`.
    base: usize,
    /// Arena handles of the window's buckets.
    handles: Vec<Bucket>,
}

impl BucketWindow {
    /// Absolute indices of the window.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.base..self.base + self.handles.len()
    }

    /// Bucket `b`; `None` outside the window, where every bucket is empty.
    #[inline]
    pub fn get(&self, b: usize) -> Option<&Bucket> {
        self.handles.get(b.wrapping_sub(self.base))
    }

    /// Length of bucket `b` (0 outside the window).
    #[inline]
    pub fn len_of(&self, b: usize) -> usize {
        self.get(b).map_or(0, Bucket::len)
    }

    /// Bucket `b` (inside the window).
    #[inline]
    fn at(&self, b: usize) -> &Bucket {
        &self.handles[b - self.base]
    }

    /// Bucket `b` (inside the window) for writing.
    #[inline]
    fn at_mut(&mut self, b: usize) -> &mut Bucket {
        &mut self.handles[b - self.base]
    }

    /// Words of heap the handles hold at their allocated capacity (12
    /// bytes each).
    fn heap_words(&self) -> usize {
        (self.handles.capacity() * std::mem::size_of::<Bucket>()).div_ceil(8)
    }
}

/// One `BG-Str` over proxy items (levels 2 and 3 of the hierarchy), stored
/// inside a [`NodePool`]; its bucket lists live in the pool's shared arena.
/// Only a [`Level1`] above the size floor (`g₁ > IN_PLACE_BUCKETS`) has
/// nodes: there, each non-empty level-1 group owns a level-2 node and each
/// non-empty level-2 group a level-3 node.
///
/// **Window layout.** A node holds the proxies of one group of the level
/// below, children `c ∈ [base, base + members.len())`, and a proxy's bucket
/// is `c + 1 + ⌊log2 count⌋`. So the node stores only the bucket window its
/// proxies can reach, `[base + 1, top]`, not the level's whole universe:
///
/// - Level 2, for level-1 group `j`: `base = j·g₁`. Level-1 bucket counts
///   stay `≤ n_cap = n₀·k + 1` until the next rebuild (`k` the rebuild
///   factor), so `top = (j+1)·g₁ + ⌊log2 n_cap⌋` ([`Level1::count_bits`]):
///   about `g₁ + log2 n` buckets instead of 128.
/// - Level 3, for level-2 group `l`: `base = l·g₂`. A level-2 bucket holds
///   at most one level-1 group's proxies (`≤ g₁`), so
///   `top = (l+1)·g₂ + ⌊log2 g₁⌋`: a handful of buckets instead of 160.
///
/// Both ends are clipped to the level's universe, and `children` (level 2)
/// covers the window's groups `⌊(base+1)/g₂⌋ ..= ⌊top/g₂⌋`. Space is
/// O(g₁ + log n) words per level-2 node and O(g₂ + log g₁) per level-3
/// node, so a hierarchy over n items takes O(n) words, not O(n·w).
///
/// Indices stay absolute at the API — [`Node::buckets`], [`Node::member`],
/// [`Node::child`] and the [`LevelView`] translate — and both bitsets stay
/// absolute, so the logical structure, every query path and every drawn
/// word are those of full-universe arrays. Should a count ever outgrow the
/// bound (a [`Level1`] driven without the sampler's rebuilds), the window
/// widens upward on the cold insert arm of [`NodePool::set_member`].
#[derive(Debug)]
pub struct Node {
    /// 2 or 3.
    pub level: u8,
    /// First child index of the window (see the type docs).
    pub base: u16,
    /// Width of this node's groups in bucket indices (level 2 only).
    pub group_width: u32,
    /// The bucket window, starting at `base + 1`: bucket `b` lists the
    /// child bucket indices whose proxies live in it (arena handles; resolve
    /// through the owning pool).
    /// **Canonical order invariant:** every bucket lists its children in
    /// ascending child index — the order a class-ascending derive produces
    /// — so the node's layout is a pure function of the child level's
    /// bucket counts, never of update history. That is what lets a bulk
    /// build derive the whole hierarchy in one sweep and still be
    /// bit-identical (position-sensitive queries included) to n incremental
    /// cascades.
    pub(crate) buckets: BucketWindow,
    /// Non-empty bucket indices (Fact 2.1 structure; absolute).
    pub nonempty_buckets: BitsetList,
    /// Non-empty group indices (level 2 only; absolute).
    pub nonempty_groups: BitsetList,
    /// `members[c − base]` is the placement of the proxy for child bucket
    /// `c` ([`Member::NONE`] when absent).
    pub(crate) members: Vec<Member>,
    /// Number of live proxies.
    pub n_members: usize,
    /// Level-3 children, one per group the window reaches (level 2 only):
    /// `children[l − ⌊(base+1)/g₂⌋]` is group `l`'s pool index, [`NO_NODE`]
    /// when absent.
    pub(crate) children: Vec<u32>,
}

/// Bucket-index universe of a level-2 or level-3 node.
fn universe_of(level: u8) -> usize {
    if level == 2 {
        L2_BUCKETS
    } else {
        L3_BUCKETS
    }
}

/// Group-index universe of a node (level 3 has no groups).
fn group_universe_of(level: u8, group_width: u32) -> usize {
    if level == 2 {
        L2_BUCKETS / group_width as usize + 1
    } else {
        1
    }
}

/// The level-2 children (level-2 bucket indices) of group `l` of width `g₂`:
/// the member range of that group's level-3 node.
fn level3_children(l: usize, g2: usize) -> std::ops::Range<usize> {
    l * g2..((l + 1) * g2).min(L2_BUCKETS)
}

impl Node {
    /// An empty node of `level` over `children`, its window sized for child
    /// bucket counts below `2^{count_bits+1}` (see the type docs).
    fn new(level: u8, group_width: u32, children: std::ops::Range<usize>, count_bits: u32) -> Self {
        let mut node = Node {
            level,
            base: 0,
            group_width,
            buckets: BucketWindow::default(),
            nonempty_buckets: BitsetList::new(universe_of(level)),
            nonempty_groups: BitsetList::new(group_universe_of(level, group_width)),
            // pss-lint: allow(no-alloc-hot-path) — one-time construction, not the steady-state cascade
            members: Vec::new(),
            n_members: 0,
            // pss-lint: allow(no-alloc-hot-path) — one-time construction, not the steady-state cascade
            children: Vec::new(),
        };
        node.reinit(level, group_width, children, count_bits);
        node
    }

    /// Re-initializes a recycled slot as an empty node in place, reusing
    /// every retained allocation (no heap traffic while the new window fits
    /// the slot's high-water shape).
    fn reinit(
        &mut self,
        level: u8,
        group_width: u32,
        children: std::ops::Range<usize>,
        count_bits: u32,
    ) {
        debug_assert!(level == 3 || group_width >= 1);
        debug_assert!(children.start < children.end);
        let universe = universe_of(level);
        self.level = level;
        self.base = narrow::u16_of_usize(children.start);
        self.group_width = group_width;
        self.buckets.handles.clear();
        self.buckets.base = children.start + 1;
        self.nonempty_buckets.reset(universe);
        self.nonempty_groups.reset(group_universe_of(level, group_width));
        self.members.clear();
        // pss-lint: allow(no-alloc-hot-path) — clear+resize within the retained capacity reuses the kept allocation
        self.members.resize(children.len(), Member::NONE);
        self.n_members = 0;
        self.children.clear();
        self.widen_for(count_bits);
    }

    /// Grows the window to every bucket a proxy can reach while child
    /// bucket counts stay below `2^{count_bits+1}`: up to
    /// `base + members.len() + count_bits`, clipped to the universe.
    fn widen_for(&mut self, count_bits: u32) {
        let end = self.base as usize + self.members.len();
        self.widen_to((end + count_bits as usize).min(universe_of(self.level) - 1));
    }

    /// Grows the window upward so that bucket `top` lies inside it (no-op
    /// when it already does), extending `children` to the new groups.
    fn widen_to(&mut self, top: usize) {
        if top < self.buckets.range().end {
            return;
        }
        let first = self.buckets.base;
        // pss-lint: allow(no-alloc-hot-path) — window sizing at node creation, or the cold widening arm when a count outgrew the sizing bound
        self.buckets.handles.resize(top + 1 - first, Bucket::EMPTY);
        if self.level == 2 {
            let g = self.group_width as usize;
            // pss-lint: allow(no-alloc-hot-path) — window sizing at node creation, or the cold widening arm when a count outgrew the sizing bound
            self.children.resize(top / g + 1 - first / g, NO_NODE);
        }
    }

    /// The bucket window (absolute indices).
    pub fn buckets(&self) -> &BucketWindow {
        &self.buckets
    }

    /// Placement of the proxy for child `c` ([`Member::NONE`] outside the
    /// window).
    #[inline]
    pub fn member(&self, c: usize) -> Member {
        self.members.get(c.wrapping_sub(self.base as usize)).copied().unwrap_or(Member::NONE)
    }

    /// Placement slot of child `c` (inside the window) for writing.
    #[inline]
    fn member_mut(&mut self, c: usize) -> &mut Member {
        &mut self.members[c - self.base as usize]
    }

    /// Children index of group `l` (level 2 only).
    #[inline]
    fn child_slot(&self, l: usize) -> usize {
        l.wrapping_sub(self.buckets.base / self.group_width as usize)
    }

    /// Pool index of the level-3 child of group `l` ([`NO_NODE`] when
    /// absent or outside the window; level 2 only).
    #[inline]
    pub fn child(&self, l: usize) -> u32 {
        self.children.get(self.child_slot(l)).copied().unwrap_or(NO_NODE)
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

/// Allocates an empty node of `level` over `children` from `nodes`, its
/// bucket window sized for child bucket counts below `2^{count_bits+1}`
/// (see [`Node`]); recycled slots are re-initialized in place.
fn alloc_node(
    nodes: &mut Pool<Node>,
    level: u8,
    group_width: u32,
    children: std::ops::Range<usize>,
    count_bits: u32,
) -> u32 {
    let (lo, hi) = (children.start, children.end);
    nodes.alloc(
        || Node::new(level, group_width, lo..hi, count_bits),
        |n| n.reinit(level, group_width, lo..hi, count_bits),
    )
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

    /// Number of live nodes (allocated and not parked for recycling).
    pub fn live_nodes(&self) -> usize {
        self.nodes.live_count()
    }

    /// Exclusive access to a node (test/construction hook; structural
    /// changes must go through [`NodePool::set_member`]).
    pub fn node_mut(&mut self, idx: u32) -> &mut Node {
        self.nodes.get_mut(idx)
    }

    /// Allocates an empty level-2 node over the whole level-1 universe
    /// (recycled slots are re-initialized in place, keeping their heap
    /// blocks). The hierarchy itself allocates per-group windows instead.
    pub fn alloc_level2(&mut self, group_width: u32) -> u32 {
        alloc_node(&mut self.nodes, 2, group_width, 0..L1_BUCKETS, u64::BITS - 1)
    }

    /// Allocates an empty level-3 node over the whole level-2 universe
    /// (recycled slots are re-initialized in place, keeping their heap
    /// blocks). The hierarchy itself allocates per-group windows instead.
    pub fn alloc_level3(&mut self) -> u32 {
        alloc_node(&mut self.nodes, 3, 0, 0..L2_BUCKETS, floor_log2_u64(L1_BUCKETS as u64))
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
        for b in &mut node.buckets.handles {
            self.arena.release(b);
        }
        self.nodes.free(idx);
    }

    /// Re-places the proxy for child bucket `child` of node `idx` after its
    /// count changed to `count` (weight `count · 2^shift`; `count = 0`
    /// removes the proxy), cascading the resulting bucket-count changes into
    /// this node's own level-3 proxies (level 2 only).
    ///
    /// Callers that know the previous count pre-filter with `proxy_moves`
    /// (did the count cross a power of two or flip to or from zero?); a
    /// call that lands on an unchanged placement returns after one
    /// members-slot read.
    pub fn set_member(&mut self, idx: u32, child: u16, count: u64, shift: u32) {
        let node = self.nodes.get(idx);
        if count > 0 {
            let bucket = narrow::u16_of_u64(u64::from(shift + floor_log2_u64(count)));
            debug_assert!(
                (bucket as usize) < node.nonempty_buckets.universe(),
                "bucket {bucket} out of universe"
            );
            if node.member(child as usize).bucket == bucket {
                return; // placement unchanged; weight is derived, not stored
            }
            self.set_member_slow(idx, child, Some(bucket));
        } else {
            if !node.member(child as usize).present() {
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
            let old = std::mem::replace(node.member_mut(child as usize), Member::NONE);
            if old.present() {
                let b = old.bucket as usize;
                let removed = arena.remove_at(node.buckets.at_mut(b), old.pos as usize);
                debug_assert_eq!(removed, child, "bucket {b} held ghost child");
                for q in old.pos as usize..node.buckets.len_of(b) {
                    let moved = arena.get(node.buckets.at(b), q);
                    node.member_mut(moved as usize).pos = narrow::u32_of_usize(q);
                }
                if node.buckets.len_of(b) == 0 {
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
                node.widen_to(b);
                let was_empty = node.buckets.len_of(b) == 0;
                let slot = node.buckets.at_mut(b);
                let pos = arena.slice(slot).partition_point(|&c| c < child);
                arena.insert_at(slot, pos, child);
                for q in pos + 1..node.buckets.len_of(b) {
                    let moved = arena.get(node.buckets.at(b), q);
                    node.member_mut(moved as usize).pos = narrow::u32_of_usize(q);
                }
                if was_empty {
                    node.nonempty_buckets.insert(b);
                }
                *node.member_mut(child as usize) =
                    Member { bucket, pos: narrow::u32_of_usize(pos) };
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
            let (count, mut child_idx, count_bits) = {
                let node = self.nodes.get(idx);
                // A level-2 bucket holds at most the node's member count.
                let bits = floor_log2_u64(node.members.len() as u64);
                (node.buckets.len_of(b as usize) as u64, node.child(l), bits)
            };
            // Bucket 0's count changed by exactly one: removal target went
            // count+1 → count, insertion target count−1 → count.
            let old_count = if t == 0 { count + 1 } else { count - 1 };
            if proxy_moves(old_count, count) {
                if child_idx == NO_NODE {
                    let g2 = group_width as usize;
                    child_idx =
                        alloc_node(&mut self.nodes, 3, 0, level3_children(l, g2), count_bits);
                    let node = self.nodes.get_mut(idx);
                    let slot = node.child_slot(l);
                    node.children[slot] = child_idx;
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
    /// owning level's bucket window (`parent`; `children` is the half-open
    /// range of child indices this node owns — one group of the level
    /// below).
    pub fn validate_node(&self, idx: u32, parent: &BucketWindow, children: std::ops::Range<usize>) {
        let node = self.nodes.get(idx);
        let window = node.buckets.range();
        assert_eq!(node.base as usize, children.start, "window starts off its group");
        assert_eq!(node.members.len(), children.len(), "member window is not its group");
        for b in node.nonempty_buckets.iter() {
            assert!(window.contains(&b), "non-empty bucket {b} outside window {window:?}");
        }
        let mut seen = 0usize;
        for b in window.start..window.end {
            let items = self.arena.slice(node.buckets.at(b));
            assert_eq!(!items.is_empty(), node.nonempty_buckets.contains(b), "bucket {b} bitset");
            assert!(
                items.windows(2).all(|p| p[0] < p[1]),
                "bucket {b} violates the canonical ascending-child order"
            );
            for (pos, &child) in items.iter().enumerate() {
                let m = node.member(child as usize);
                assert!(m.present(), "bucket {b} holds ghost child {child}");
                assert_eq!(m.bucket as usize, b);
                assert_eq!(m.pos as usize, pos);
                seen += 1;
            }
        }
        assert_eq!(seen, node.n_members);
        // Every member agrees with the child level: present iff the child
        // bucket is non-empty, placed at index `child+1+⌊log2 count⌋` (the
        // derived weight's bucket).
        for c in children {
            let m = node.member(c);
            let count = parent.len_of(c) as u64;
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
            let first_group = window.start / gw;
            assert_eq!(node.children.len(), (window.end - 1) / gw + 1 - first_group);
            for (k, &child) in node.children.iter().enumerate() {
                let group = level3_children(first_group + k, gw);
                if child != NO_NODE {
                    self.validate_node(child, &node.buckets, group);
                } else {
                    for b in group {
                        assert_eq!(node.buckets.len_of(b), 0, "bucket {b} non-empty but no child");
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
        let live_buckets =
            live_nodes.iter().enumerate().filter(|&(_, &live)| live).flat_map(|(i, _)| {
                self.nodes.get(narrow::u32_of_usize(i)).buckets.handles.iter().copied()
            });
        self.arena.audit(live_buckets)
    }
}

impl NodePool {
    /// Words of heap the pool holds: every node slot at `size_of::<Node>()`
    /// plus each node's heap blocks at their allocated capacity (bucket
    /// handles, 12 bytes each; member placements, 8; child links, 4; the
    /// two bitsets' words), and the shared arena, which holds the bucket
    /// *contents* once.
    pub fn heap_words(&self) -> usize {
        let nodes = self.nodes.heap_words_by(|n| {
            n.buckets.heap_words()
                + (n.members.capacity() * std::mem::size_of::<Member>()).div_ceil(8)
                + (n.children.capacity() * std::mem::size_of::<u32>()).div_ceil(8)
                + n.nonempty_buckets.heap_words()
                + n.nonempty_groups.heap_words()
        });
        nodes + self.arena.heap_words()
    }
}

/// The lowest to the highest class with a non-zero count (empty when every
/// count is zero).
fn class_span(counts: &[usize; L1_BUCKETS]) -> std::ops::Range<usize> {
    let lo = counts.iter().position(|&c| c > 0);
    let hi = counts.iter().rposition(|&c| c > 0);
    lo.zip(hi).map_or(0..0, |(lo, hi)| lo..hi + 1)
}

/// `BG-Str(S)`: the level-1 structure over the real item set. Owns the item
/// slab, the level-1 bucket arena, and the [`NodePool`] holding every
/// deeper node.
///
/// **Bucket window.** Like a [`Node`], the structure stores bucket handles
/// only for a window of indices: from the lowest to the highest non-empty
/// bucket, not the 64-index universe. A sampler over weights in `1..=100`
/// holds 7 handles (84 bytes) instead of 64 (768), and an empty one holds
/// none. The window widens on the cold arm of an insert into a bucket
/// outside it, and never narrows on a delete (the emptied bucket keeps its
/// block, as every bucket does); a rebuild, a fresh bulk build and a
/// snapshot restore re-fit it to the live range. Indices stay absolute at
/// the API ([`Level1::buckets`]), so queries, goldens and snapshot bytes
/// cannot tell the window from the full vector.
#[derive(Debug)]
pub struct Level1 {
    /// Item storage.
    pub slab: Slab,
    /// The bucket window: bucket `i` holds the items with
    /// `2^i ≤ w < 2^{i+1}` (arena handles). It spans only the lowest to the
    /// highest non-empty bucket index (an empty structure allocates none);
    /// see [`Level1::buckets`].
    buckets: BucketWindow,
    /// Backing storage for the level-1 bucket lists.
    pub item_arena: BucketArena<ItemId>,
    /// Non-empty bucket indices.
    pub nonempty_buckets: BitsetList,
    /// Non-empty group indices.
    pub nonempty_groups: BitsetList,
    /// Group width `g₁ = ⌈log2 n₀⌉` (fixed until rebuild).
    pub group_width: u32,
    /// Level-2 children, one slot per group (pool indices, [`NO_NODE`] for
    /// an empty group). Unallocated while the structure is flat
    /// ([`Level1::is_flat`]), which has no nodes to link.
    pub children: Vec<u32>,
    /// Every level-2/3 node of this hierarchy (none live while flat).
    pub pool: NodePool,
    /// Exact Σw over all live items.
    pub total_weight: u128,
    /// Number of items with positive weight (they live in buckets).
    pub n_positive: usize,
    /// Number of zero-weight items (never sampled).
    pub n_zero: usize,
    /// Level-2 group width `g₂` used when creating children.
    pub l2_group_width: u32,
    /// `⌊log2⌋` of the largest level-1 bucket count the level-2 windows are
    /// sized for until the next rebuild (`⌊log2 n_cap⌋`; see [`Node`]).
    pub count_bits: u32,
}

impl Level1 {
    /// Creates an empty level-1 structure with group widths derived from
    /// `n0`. Level-2 windows are sized for counts up to `2^{g₁+1}`: the
    /// rebuild band of factor 2 around `n₀ ≤ 2^{g₁}`
    /// ([`Level1::set_count_bits`] widens them). Allocates neither the
    /// bucket window nor, while flat, the child links.
    pub fn new(group_width: u32, level2_group_width: u32) -> Self {
        debug_assert!(group_width >= 1 && level2_group_width >= 1);
        let n_groups = L1_BUCKETS / group_width as usize + 1;
        let mut level1 = Level1 {
            slab: Slab::new(),
            buckets: BucketWindow::default(),
            // The arena's fill padding is never observable through the
            // `Bucket` API; `u64::MAX` is unreachable as a real handle
            // (31-bit generations keep raw ids below 2^63), so the snapshot
            // restore can use displaced padding as its vacancy sentinel
            // when scattering items to their serialized positions.
            item_arena: BucketArena::new(ItemId::from_raw(u64::MAX)),
            nonempty_buckets: BitsetList::new(L1_BUCKETS),
            nonempty_groups: BitsetList::new(n_groups),
            group_width,
            // pss-lint: allow(no-alloc-hot-path) — an empty Vec does not allocate; reset_children sizes it
            children: Vec::new(),
            pool: NodePool::new(),
            total_weight: 0,
            n_positive: 0,
            n_zero: 0,
            l2_group_width: level2_group_width,
            count_bits: group_width + 1,
        };
        level1.reset_children();
        level1
    }

    /// Unlinks every level-2 child: one [`NO_NODE`] slot per group, or no
    /// slots at all (and no allocation) while the structure is flat.
    fn reset_children(&mut self) {
        if self.is_flat() {
            // pss-lint: allow(no-alloc-hot-path) — an empty Vec does not allocate; this frees the links a rebuild to the floor leaves unused
            self.children = Vec::new();
        } else {
            let n_groups = L1_BUCKETS / self.group_width as usize + 1;
            self.children.clear();
            // pss-lint: allow(no-alloc-hot-path) — clear+resize to the retained length reuses the kept allocation — no allocator traffic (construction/rebuild)
            self.children.resize(n_groups, NO_NODE);
        }
    }

    /// The bucket window (absolute indices; empty when no bucket was filled
    /// since the last re-fit).
    pub fn buckets(&self) -> &BucketWindow {
        &self.buckets
    }

    /// The item arena and bucket `i`'s handle (absolute index, inside the
    /// window), borrowed apart for the arena calls that take both.
    #[inline]
    pub(crate) fn arena_and_bucket(&mut self, i: usize) -> (&mut BucketArena<ItemId>, &mut Bucket) {
        (&mut self.item_arena, self.buckets.at_mut(i))
    }

    /// Bucket `i`'s handle for an insert: widens the window to `i` first
    /// when it lies outside (the cold arm; a bucket index the structure has
    /// held before since the last re-fit is already inside).
    #[inline]
    fn insert_slot(&mut self, i: usize) -> (&mut BucketArena<ItemId>, &mut Bucket) {
        if self.buckets.get(i).is_none() {
            self.widen_to(i..i + 1);
        }
        self.arena_and_bucket(i)
    }

    /// Grows the window to cover the non-empty `span`, allocating it at
    /// its exact new length: the universe has 64 indices, so a window
    /// widens at most 64 times between re-fits.
    #[cold]
    #[inline(never)]
    fn widen_to(&mut self, span: std::ops::Range<usize>) {
        let range = self.buckets.range();
        if !range.is_empty() {
            self.place_window(range.start.min(span.start)..range.end.max(span.end));
        } else {
            self.place_window(span);
        }
    }

    /// Re-fits the window to exactly `span` (empty: no window at all),
    /// keeping the handles inside it and releasing the blocks of those that
    /// fall outside, which must all be empty. A window that moves is
    /// reallocated at its exact new length; one that stays costs nothing.
    fn place_window(&mut self, span: std::ops::Range<usize>) {
        let old = self.buckets.range();
        if span == old {
            return;
        }
        for i in old.filter(|i| !span.contains(i)) {
            let (arena, b) = self.arena_and_bucket(i);
            debug_assert!(b.is_empty(), "re-fit drops non-empty bucket {i}");
            arena.release(b);
        }
        if span.is_empty() {
            self.buckets = BucketWindow::default();
            return;
        }
        // pss-lint: allow(no-alloc-hot-path) — window (re-)sizing: the cold widening arm or a rebuild/bulk/restore re-fit, never the steady-state cascade
        let mut handles = Vec::with_capacity(span.len());
        // pss-lint: allow(no-alloc-hot-path) — fills the exact capacity reserved above
        handles.extend(span.clone().map(|i| self.buckets.get(i).copied().unwrap_or(Bucket::EMPTY)));
        self.buckets = BucketWindow { base: span.start, handles };
    }

    /// Resets the item arena to one carved block per non-zero class count
    /// (`counts[i]` items for bucket `i`) with the window fitted to exactly
    /// those classes: the carve step shared by the fresh bulk build, the
    /// compacting rebuild and the snapshot restore. Every previous handle
    /// is discarded; the caller fills the blocks.
    pub(crate) fn carve_classes(&mut self, counts: &[usize; L1_BUCKETS]) {
        self.item_arena.reset_to_plan(counts.iter().copied());
        self.buckets.handles.iter_mut().for_each(|b| *b = Bucket::EMPTY);
        self.place_window(class_span(counts));
        for (i, &c) in counts.iter().enumerate() {
            if c > 0 {
                let (arena, b) = self.arena_and_bucket(i);
                arena.carve_exact(b, c);
            }
        }
    }

    /// `true` iff no group spans more than [`IN_PLACE_BUCKETS`] buckets:
    /// every query then opens every group in place, so the structure builds
    /// and maintains no level-2/3 node.
    #[inline]
    pub fn is_flat(&self) -> bool {
        self.group_width as usize <= IN_PLACE_BUCKETS
    }

    /// Sizes the level-2 windows for level-1 bucket counts below
    /// `2^{count_bits+1}` until the next rebuild, widening every live
    /// level-2 node that falls short (a looser rebuild band raises the
    /// bound). Never narrows: the counts the old bound allowed may still be
    /// reached before the next rebuild.
    pub fn set_count_bits(&mut self, count_bits: u32) {
        if count_bits <= self.count_bits {
            return;
        }
        self.count_bits = count_bits;
        for &idx in &self.children {
            if idx != NO_NODE {
                self.pool.node_mut(idx).widen_for(count_bits);
            }
        }
    }

    /// The level-1 bucket indices of group `j`: the member range of its
    /// level-2 node.
    fn group_children(&self, j: usize) -> std::ops::Range<usize> {
        let gw = self.group_width as usize;
        j * gw..((j + 1) * gw).min(L1_BUCKETS)
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
        let idx = self.children.get(j).copied().unwrap_or(NO_NODE);
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
        let pos = narrow::u32_of_usize(self.insert_slot(i).1.len());
        let id = self.slab.insert_bucketed(weight, pos);
        let (arena, b) = self.arena_and_bucket(i);
        // pss-lint: allow(no-alloc-hot-path) — BucketArena::push is the arena primitive; it allocates only while a size class grows toward its high-water mark
        arena.push(b, id);
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
    /// ascending-child order (see [`Node`]) makes the hierarchy a pure
    /// function of the final bucket counts, so deriving once and cascading n
    /// times land on the same structure. A fresh build fits the bucket
    /// window to the batch's classes; a warm one widens it to them.
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
            self.carve_classes(&add);
        } else {
            let span = class_span(&add);
            if !span.is_empty() {
                self.widen_to(span);
            }
            for (i, &c) in add.iter().enumerate() {
                if c > 0 {
                    let (arena, b) = self.arena_and_bucket(i);
                    let cap = b.len() + c;
                    arena.reserve(b, cap);
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
                cur[i] = self.item_arena.fill_cursor(self.buckets.at(i));
            }
        }
        let recycled = self.slab.free_slots().min(weights.len());
        let (head, tail) = weights.split_at(recycled);
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
            let id = self.slab.insert_bucketed(w, cur[i].pos());
            self.item_arena.push_raw(&mut cur[i], id);
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
            let id = self.slab.insert_bucketed_fresh(w, cur[i].pos());
            self.item_arena.push_raw(&mut cur[i], id);
            // pss-lint: allow(no-alloc-hot-path) — bulk build is the amortized O(n) path, not the per-update cascade
            ids.push(id);
        }
        for (i, &c) in add.iter().enumerate() {
            if c > 0 {
                let (arena, b) = self.arena_and_bucket(i);
                arena.commit_cursor(b, cur[i]);
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
                let count = self.buckets.at(i).len() as u64;
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
        let count = self.buckets.at(i).len() as u64;
        self.detach(i, pos as usize);
        self.cascade_if_moved(i, count, count - 1);
        Some(weight)
    }

    /// Removes the item at `pos` of bucket `i`, patching the swap-removed
    /// slot and the empty-bucket/empty-group bitsets (no cascade).
    fn detach(&mut self, i: usize, pos: usize) {
        let (arena, b) = self.arena_and_bucket(i);
        arena.swap_remove(b, pos);
        let left = b.len();
        if pos < left {
            let moved = self.item_arena.get(self.buckets.at(i), pos);
            self.slab.set_bucket_pos(moved, narrow::u32_of_usize(pos));
        }
        if left == 0 {
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
            let count = self.buckets.at(i).len() as u64;
            self.detach(i, pos);
            self.cascade_if_moved(i, count, count - 1);
            self.n_positive -= 1;
        } else {
            self.n_zero -= 1;
        }
        // Attach to the new bucket, if any.
        if let Some(i) = new_bucket {
            let (arena, b) = self.insert_slot(i);
            let pos = narrow::u32_of_usize(b.len());
            // pss-lint: allow(no-alloc-hot-path) — BucketArena::push is the arena primitive; it allocates only while a size class grows toward its high-water mark
            arena.push(b, id);
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

    /// Pushes the new count of bucket `i` into the level-2 child of its group
    /// (nothing on a flat structure, which has no nodes).
    fn cascade_bucket(&mut self, i: u16, count: u64) {
        if self.is_flat() {
            return;
        }
        let j = i as usize / self.group_width as usize;
        let mut child = self.children[j];
        if child == NO_NODE {
            let children = self.group_children(j);
            child =
                alloc_node(&mut self.pool.nodes, 2, self.l2_group_width, children, self.count_bits);
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
    /// so sample streams cannot tell the arms apart. A flat structure
    /// derives nothing.
    fn derive_hierarchy(&mut self) {
        if self.is_flat() {
            return;
        }
        // Counts above the sizing bound (a structure filled without the
        // sampler's rebuilds) widen the windows up front.
        if let Some(max) = self.buckets.handles.iter().map(Bucket::len).max().filter(|&c| c > 0) {
            self.count_bits = self.count_bits.max(floor_log2_u64(max as u64));
        }
        #[cfg(not(feature = "layout-baseline"))]
        self.derive_packed();
        #[cfg(feature = "layout-baseline")]
        for i in self.buckets.range() {
            let count = self.buckets.at(i).len() as u64;
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
                let c = self.buckets.len_of(i) as u64;
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
        let count_bits = self.count_bits;
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
                let c = buckets.len_of(i) as u64;
                if c > 0 {
                    len2[i + 1 + floor_log2_u64(c) as usize] += 1;
                    any = true;
                }
            }
            if !any {
                continue;
            }
            let child2 = alloc_node(nodes, 2, g2, lo..hi, count_bits);
            children[j] = child2;
            {
                let node = nodes.get_mut(child2);
                let mut n2 = 0usize;
                for b2 in (lo + 1)..L2_BUCKETS {
                    if len2[b2] > 0 {
                        arena.carve_exact(node.buckets.at_mut(b2), len2[b2] as usize);
                        node.nonempty_buckets.insert(b2);
                        node.nonempty_groups.insert(b2 / g2w);
                    }
                }
                for i in lo..hi {
                    let c = buckets.len_of(i) as u64;
                    if c == 0 {
                        continue;
                    }
                    let b2 = i + 1 + floor_log2_u64(c) as usize;
                    let pos = node.buckets.len_of(b2);
                    // pss-lint: allow(no-alloc-hot-path) — per-class bulk derive; blocks were carved by the plan, push is cursor arithmetic
                    arena.push(node.buckets.at_mut(b2), narrow::u16_of_usize(i));
                    *node.member_mut(i) =
                        Member { bucket: narrow::u16_of_usize(b2), pos: narrow::u32_of_usize(pos) };
                    n2 += 1;
                }
                node.n_members = n2;
            }
            // A level-2 bucket holds at most the node's `hi − lo` members.
            let l3_count_bits = floor_log2_u64((hi - lo) as u64);
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
                let child3 = alloc_node(nodes, 3, 0, lo2..hi2, l3_count_bits);
                let node3 = nodes.get_mut(child3);
                for b3 in lo3..=hi3 {
                    if len3[b3] > 0 {
                        arena.carve_exact(node3.buckets.at_mut(b3), len3[b3] as usize);
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
                    let pos = node3.buckets.len_of(b3);
                    // pss-lint: allow(no-alloc-hot-path) — per-class bulk derive; blocks were carved by the plan, push is cursor arithmetic
                    arena.push(node3.buckets.at_mut(b3), narrow::u16_of_usize(b2));
                    *node3.member_mut(b2) =
                        Member { bucket: narrow::u16_of_usize(b3), pos: narrow::u32_of_usize(pos) };
                    n3 += 1;
                }
                node3.n_members = n3;
                let node2 = nodes.get_mut(child2);
                let slot = node2.child_slot(l);
                node2.children[slot] = child3;
            }
        }
    }

    /// Rebuilds the group/hierarchy layers in place with new group widths
    /// (global rebuilding, §4.5). Item handles are preserved, and **storage
    /// is recycled**: the arenas, the node pool, and every bitset keep their
    /// allocations, so a rebuild performs no heap traffic up to the
    /// structure's previous high-water size. The exceptions are sized to
    /// the live items: the level-1 bucket window is re-fitted to the
    /// non-empty buckets (reallocated when that range moved), and the child
    /// links exist only above the flat floor.
    ///
    /// The level-1 bucket assignment `⌊log2 w⌋` does not depend on the group
    /// widths, so a plain (grow) rebuild keeps the item buckets as they are
    /// and only re-derives the grouping and the proxy hierarchy —
    /// O([`L1_BUCKETS`]) cascades, *not* O(n). Pass `compact = true` on
    /// shrink rebuilds to also re-place every item into freshly carved
    /// tight blocks, which is what keeps space O(n) after mass deletion
    /// (O(n) time, amortized against the deletes that triggered it).
    /// `count_bits` sizes the new level-2 windows (see
    /// [`Level1::count_bits`]).
    pub fn rebuild(
        &mut self,
        group_width: u32,
        level2_group_width: u32,
        count_bits: u32,
        compact: bool,
    ) {
        let n_groups = L1_BUCKETS / group_width as usize + 1;
        self.group_width = group_width;
        self.l2_group_width = level2_group_width;
        self.count_bits = count_bits;
        self.pool.reset();
        self.reset_children();
        self.nonempty_groups.reset(n_groups);
        if compact {
            self.nonempty_buckets.reset(L1_BUCKETS);
            self.total_weight = 0;
            self.n_positive = 0;
            self.n_zero = 0;
            // Pass 1: bucket occupancies — the same classifier histogram as
            // the bulk build — so shrink-compaction is a radix partition:
            // one arena resize plans the whole region, and every block is
            // carved at its final size class by cursor arithmetic (no
            // free-list traffic, no doubling-chain copies during the fill),
            // inside a window fitted to the live classes.
            let mut counts = [0usize; L1_BUCKETS];
            for idx in 0..self.slab.slot_count() {
                if let Some((_, w)) = self.slab.entry_at(idx) {
                    if w > 0 {
                        counts[floor_log2_u64(w) as usize] += 1;
                    }
                }
            }
            self.carve_classes(&counts);
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
                let (arena, b) = self.arena_and_bucket(i);
                let pos = narrow::u32_of_usize(b.len());
                // pss-lint: allow(no-alloc-hot-path) — BucketArena::push is the arena primitive; it allocates only while a size class grows toward its high-water mark (rebuild)
                arena.push(b, id);
                self.slab.set_bucket_pos(id, pos);
            }
            for i in self.buckets.range() {
                if !self.buckets.at(i).is_empty() {
                    self.nonempty_buckets.insert(i);
                }
            }
        } else {
            // Re-fit the window to the buckets that are non-empty now.
            let live = self.nonempty_buckets.min().zip(self.nonempty_buckets.max());
            self.place_window(live.map_or(0..0, |(lo, hi)| lo..hi + 1));
        }
        // Re-derive grouping and the whole proxy hierarchy — locality-packed
        // by default (one contiguous arena run per group), per-bucket
        // cascades under `layout-baseline`; identical logical structure
        // either way.
        for i in self.nonempty_buckets.iter() {
            self.nonempty_groups.insert(i / group_width as usize);
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
                pos < self.buckets.len_of(i) && self.item_arena.get(self.buckets.at(i), pos) == id,
                "item {id:?} misplaced"
            );
        }
        assert_eq!(total, self.total_weight);
        assert_eq!(positive, self.n_positive);
        assert_eq!(zero, self.n_zero);
        let bucketed: usize = self.buckets.handles.iter().map(Bucket::len).sum();
        assert_eq!(bucketed, self.n_positive);
        for i in 0..L1_BUCKETS {
            assert_eq!(self.buckets.len_of(i) > 0, self.nonempty_buckets.contains(i), "bucket {i}");
        }
        for j in 0..self.nonempty_groups.universe() {
            assert_eq!(!self.group_is_empty(j), self.nonempty_groups.contains(j));
        }
        // Above the floor, every non-empty group has a validated child; a
        // flat structure has no live node (checked by `audit_storage`).
        let gw = self.group_width as usize;
        for (j, &child) in self.children.iter().enumerate() {
            let lo = j * gw;
            let hi = (lo + gw).min(L1_BUCKETS);
            if child != NO_NODE {
                self.pool.validate_node(child, &self.buckets, lo..hi);
            } else {
                for i in lo..hi {
                    assert_eq!(self.buckets.len_of(i), 0, "group {j} non-empty but no child");
                }
            }
        }
        // pss-lint: allow(no-panic-paths) — audit() is an explicitly requested integrity check; a violated invariant must abort, not be papered over
        self.audit_storage().expect("storage audit");
    }

    /// Verifies the storage invariants: node-pool free list, arena block
    /// tiling for both arenas, a bucket window that covers every non-empty
    /// bucket, and no live node or child link while the structure is flat
    /// ([`Level1::is_flat`]). O(capacity); test hook.
    pub fn audit_storage(&self) -> Result<(), String> {
        self.item_arena.audit(self.buckets.handles.iter().copied())?;
        let window = self.buckets.range();
        if let Some(i) = self.nonempty_buckets.iter().find(|i| !window.contains(i)) {
            // pss-lint: allow(no-alloc-hot-path) — audit_storage() is an O(capacity) test/debug hook, never on the update path
            return Err(format!("non-empty bucket {i} outside the window {window:?}"));
        }
        if self.is_flat() && !self.children.is_empty() {
            // pss-lint: allow(no-alloc-hot-path) — audit_storage() is an O(capacity) test/debug hook, never on the update path
            return Err(format!("flat structure holds {} child links", self.children.len()));
        }
        if self.is_flat() && self.pool.live_nodes() != 0 {
            // pss-lint: allow(no-alloc-hot-path) — audit_storage() is an O(capacity) test/debug hook, never on the update path
            return Err(format!(
                "flat structure (g₁ = {}) holds {} live nodes",
                self.group_width,
                self.pool.live_nodes()
            ));
        }
        self.pool.audit(self.children.iter().copied())
    }
}

impl Level1 {
    /// Words of heap the structure holds, every block at its allocated
    /// capacity: the slab, the bucket window's handles, the item arena, the
    /// child links (4 bytes each), the node pool and the two bitsets' words.
    /// Owners that embed a `Level1` charge its inline struct themselves.
    pub fn heap_words(&self) -> usize {
        self.slab.heap_words()
            + self.buckets.heap_words()
            + self.item_arena.heap_words()
            + (self.children.capacity() * std::mem::size_of::<u32>()).div_ceil(8)
            + self.pool.heap_words()
            + self.nonempty_buckets.heap_words()
            + self.nonempty_groups.heap_words()
    }
}

impl SpaceUsage for Level1 {
    fn space_words(&self) -> usize {
        std::mem::size_of::<Self>().div_ceil(8) + self.heap_words()
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
        self.buckets.len_of(b)
    }
    fn bucket_item(&self, b: usize, pos: usize) -> ItemId {
        self.item_arena.get(self.buckets.at(b), pos)
    }
    fn prefetch_bucket_item(&self, b: usize, pos: usize) {
        if let Some(bucket) = self.buckets.get(b) {
            wordram::prefetch::prefetch_read(self.item_arena.slice(bucket), pos);
        }
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
    /// Bucket window of the level below (weights derive from its bucket
    /// lengths).
    pub parent: &'a BucketWindow,
}

impl<'a> NodeView<'a> {
    /// The level-3 child of group `l`, if present (level-2 nodes only).
    #[inline]
    pub fn child(&self, l: usize) -> Option<NodeView<'a>> {
        let idx = self.node.child(l);
        (idx != NO_NODE).then(|| NodeView {
            pool: self.pool,
            node: self.pool.node(idx),
            parent: &self.node.buckets,
        })
    }

    /// The derived child-bucket count behind proxy `id` (must be live).
    #[inline]
    fn proxy_count(&self, id: u16) -> u64 {
        let count = self.parent.at(id as usize).len() as u64;
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
        self.node.buckets.len_of(b)
    }
    fn bucket_item(&self, b: usize, pos: usize) -> u16 {
        self.pool.arena.get(self.node.buckets.at(b), pos)
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
    /// children of non-empty groups. Arena offsets, pool slot indices and
    /// window lengths are layout, not structure, and are deliberately not
    /// compared; nor are "warm" children of empty groups (nodes a proxy
    /// transited through), which no query ever visits.
    fn assert_nodes_equal(pa: &NodePool, ia: u32, pb: &NodePool, ib: u32) {
        let a = pa.node(ia);
        let b = pb.node(ib);
        assert_eq!(a.level, b.level);
        assert_eq!(a.base, b.base);
        assert_eq!(a.group_width, b.group_width);
        assert_eq!(a.n_members, b.n_members);
        assert_eq!(a.members, b.members);
        let universe = a.nonempty_buckets.universe();
        assert_eq!(universe, b.nonempty_buckets.universe());
        for i in 0..universe {
            let slice =
                |p: &NodePool, n: &Node| n.buckets.get(i).map(|x| p.arena.slice(x).to_vec());
            assert_eq!(slice(pa, a).unwrap_or_default(), slice(pb, b).unwrap_or_default());
            assert_eq!(a.nonempty_buckets.contains(i), b.nonempty_buckets.contains(i));
        }
        if a.level == 2 {
            for l in 0..a.nonempty_groups.universe() {
                assert_eq!(a.nonempty_groups.contains(l), b.nonempty_groups.contains(l));
                if a.nonempty_groups.contains(l) {
                    assert_ne!(a.child(l), NO_NODE);
                    assert_ne!(b.child(l), NO_NODE);
                    assert_nodes_equal(pa, a.child(l), pb, b.child(l));
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
        let items = |l: &Level1, i| l.buckets.get(i).map(|x| l.item_arena.slice(x).to_vec());
        for i in 0..L1_BUCKETS {
            assert_eq!(items(a, i).unwrap_or_default(), items(b, i).unwrap_or_default());
            assert_eq!(a.nonempty_buckets.contains(i), b.nonempty_buckets.contains(i));
        }
        for j in 0..a.nonempty_groups.universe() {
            assert_eq!(a.nonempty_groups.contains(j), b.nonempty_groups.contains(j));
            if a.nonempty_groups.contains(j) && !a.is_flat() {
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
    fn flat_structures_build_no_nodes() {
        let ws = weights(300, 3);
        for g1 in 2..=IN_PLACE_BUCKETS as u32 + 1 {
            let mut bulk = Level1::new(g1, 2);
            let mut per_op = Level1::new(g1, 2);
            bulk.insert_many(&ws);
            let ids: Vec<ItemId> = ws.iter().map(|&w| per_op.insert(w)).collect();
            for &id in ids.iter().step_by(2) {
                per_op.set_weight(id, 1 << 33);
            }
            let built = |l: &Level1| l.pool.live_nodes();
            if bulk.is_flat() {
                assert_eq!((built(&bulk), built(&per_op)), (0, 0), "g₁ = {g1}");
                assert!(bulk.children.iter().chain(&per_op.children).all(|&c| c == NO_NODE));
            } else {
                assert!(built(&bulk) > 0 && built(&per_op) > 0, "g₁ = {g1}");
            }
            bulk.validate();
            per_op.validate();
        }
        // A rebuild across the floor builds the hierarchy, and back parks it.
        let mut l = Level1::new(4, 2);
        l.insert_many(&ws);
        l.rebuild(6, 3, 9, false);
        assert!(!l.is_flat() && l.pool.live_nodes() > 0);
        l.validate();
        l.rebuild(4, 2, 5, true);
        assert_eq!(l.pool.live_nodes(), 0);
        l.validate();
    }

    #[test]
    fn windows_span_only_the_reachable_buckets() {
        // g₁ = 8 (above the flat floor) with g₂ = ⌈log2 g₁⌉ = 3: level-2
        // windows reach `count_bits = g₁ + 1` buckets past their members,
        // level-3 windows `⌊log2 g₁⌋ = 3`.
        let mut l = Level1::new(8, 3);
        for w in [1u64, 2, 3, 1 << 20, 1 << 40, u64::MAX] {
            l.insert(w);
        }
        l.validate();
        let mut seen = (0, 0);
        for &i2 in l.children.iter().filter(|&&c| c != NO_NODE) {
            let n2 = l.pool.node(i2);
            let end = n2.base as usize + n2.members.len();
            assert_eq!(n2.members.len(), 8);
            assert_eq!(n2.buckets.range(), n2.base as usize + 1..(end + 9).min(127) + 1);
            seen.0 += 1;
            for &i3 in n2.children.iter().filter(|&&c| c != NO_NODE) {
                let n3 = l.pool.node(i3);
                let end = n3.base as usize + n3.members.len();
                assert_eq!(n3.members.len(), 3);
                assert_eq!(n3.buckets.range(), n3.base as usize + 1..end + 3 + 1);
                seen.1 += 1;
            }
        }
        assert_eq!(seen.0, 4, "one level-2 node per non-empty group");
        assert!(seen.1 >= seen.0, "every level-2 node has a level-3 child");
    }

    #[test]
    fn windows_widen_when_counts_outgrow_the_bound() {
        // Sized for counts below 2^7 (g₁ = 5, just above the flat floor),
        // then filled far past that without a rebuild: per-op cascades
        // widen on the cold arm, the bulk derive up front, and both land on
        // the same logical structure.
        // Bucket 4, the top of group 0, so the proxy of 300 items lands in
        // level-2 bucket 4 + 1 + 8 = 13, past the sized window's top 11.
        let ws = vec![20u64; 300];
        let mut a = Level1::new(5, 3);
        let mut b = Level1::new(5, 3);
        a.insert_many(&ws);
        for &w in &ws {
            b.insert(w);
        }
        assert_equivalent(&a, &b);
        let before = b.pool.node(b.children[0]).buckets.range();
        assert_eq!((before.start, before.end), (1, 13 + 1), "window widened to the proxy");
        // A looser bound widens every live level-2 window in place.
        b.set_count_bits(20);
        let after = b.pool.node(b.children[0]).buckets.range();
        assert_eq!((after.start, after.end), (before.start, 5 + 20 + 1));
        b.validate();
    }

    #[test]
    fn bucket_window_widens_on_insert_and_refits_on_rebuild() {
        // An empty structure has no window and, while flat, no child links:
        // it allocates neither.
        let mut l = Level1::new(4, 2);
        assert_eq!(l.buckets.range(), 0..0);
        assert_eq!((l.buckets.handles.capacity(), l.children.capacity()), (0, 0));
        assert!(l.buckets.get(0).is_none() && l.buckets.get(63).is_none());
        l.validate();
        // The first insert opens a one-bucket window; inserts below and
        // above it widen it to exactly the span covered, inside leave it.
        let mid = l.insert(40); // bucket 5
        assert_eq!(l.buckets.range(), 5..6);
        let low = l.insert(3); // bucket 1
        assert_eq!(l.buckets.range(), 1..6);
        let high = l.insert(1 << 20); // bucket 20
        assert_eq!(l.buckets.range(), 1..21);
        assert_eq!(l.buckets.handles.capacity(), 20, "widened to the exact length");
        l.insert(9); // bucket 3
        l.insert(0); // zero weight: no bucket
        assert_eq!(l.buckets.range(), 1..21);
        assert_eq!((l.buckets.len_of(1), l.buckets.len_of(2), l.buckets.len_of(64)), (1, 0, 0));
        l.validate();
        // Deletes leave the window as it is (the emptied bucket keeps its
        // block); a grow rebuild re-fits it to the live range and returns
        // the trimmed blocks to the arena.
        l.delete(low);
        l.delete(high);
        assert_eq!(l.buckets.range(), 1..21);
        l.validate();
        l.rebuild(4, 2, 5, false);
        assert_eq!(l.buckets.range(), 3..6);
        l.validate();
        // Reweighting into a new bucket widens the window too.
        l.set_weight(mid, 1 << 40);
        assert_eq!(l.buckets.range(), 3..41);
        l.validate();
        // A compacting rebuild re-fits as well, and across the flat floor
        // the child links come and go with the nodes.
        l.rebuild(6, 3, 9, true);
        assert_eq!(l.buckets.range(), 3..41);
        assert!(!l.is_flat() && l.children.len() == L1_BUCKETS / 6 + 1);
        l.validate();
        l.delete(mid);
        l.rebuild(4, 2, 5, true);
        assert_eq!(l.buckets.range(), 3..4);
        assert_eq!(l.children.capacity(), 0);
        l.validate();
        // With every positive item gone, a rebuild leaves no window.
        let last = l.slab.iter().find(|&(_, w)| w > 0).map(|(id, _)| id).expect("live item");
        l.delete(last);
        l.rebuild(4, 2, 5, false);
        assert_eq!(l.buckets.range(), 0..0);
        assert_eq!(l.buckets.handles.capacity(), 0);
        l.validate();
    }

    #[test]
    fn warm_bulk_insert_widens_the_window_to_the_batch() {
        let mut l = Level1::new(4, 2);
        l.insert(40); // bucket 5
        l.insert_many(&[1 << 20, 3, 0, 1 << 9]); // buckets 20, 1, none, 9
        assert_eq!(l.buckets.range(), 1..21);
        assert_eq!(l.buckets.handles.capacity(), 20, "widened to the exact length");
        l.validate();
        // A batch inside the window leaves it as it is.
        l.insert_many(&[6, 1 << 12]);
        assert_eq!(l.buckets.range(), 1..21);
        l.validate();
    }

    #[test]
    fn per_op_bulk_and_restored_windows_agree() {
        use crate::snapshot::{level1_from_slab, read_slab, write_slab};
        use pss_core::{Dec, Enc};
        for (g1, g2) in [(4u32, 2u32), (9, 4)] {
            for n in [0usize, 1, 7, 300] {
                let ws = weights(n, 0x51DE ^ n as u64);
                let mut per_op = Level1::new(g1, g2);
                ws.iter().for_each(|&w| {
                    per_op.insert(w);
                });
                let mut bulk = Level1::new(g1, g2);
                bulk.insert_many(&ws);
                let mut enc = Enc::new();
                write_slab(&mut enc, &per_op.slab);
                let slab = read_slab(&mut Dec::new(enc.bytes())).expect("valid payload");
                let restored =
                    level1_from_slab(slab, g1, g2, per_op.count_bits).expect("valid slab");
                let live = per_op.nonempty_buckets.min().zip(per_op.nonempty_buckets.max());
                let want = live.map_or(0..0, |(lo, hi)| lo..hi + 1);
                for (name, l) in [("per-op", &per_op), ("bulk", &bulk), ("restored", &restored)] {
                    assert_eq!(l.buckets.range(), want, "{name}, g₁ = {g1}, n = {n}");
                    assert_eq!(
                        l.buckets.handles.capacity(),
                        want.len(),
                        "{name}, g₁ = {g1}, n = {n}"
                    );
                }
                assert_equivalent(&per_op, &bulk);
                assert_equivalent(&per_op, &restored);
            }
        }
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
        a.rebuild(9, 4, 13, true);
        b.rebuild(9, 4, 13, true);
        assert_equivalent(&a, &b);
        // Grow rebuild after one more bulk/per-op round.
        let more = weights(4000, 8);
        let more_a = a.insert_many(&more);
        let more_b: Vec<ItemId> = more.iter().map(|&w| b.insert(w)).collect();
        assert_eq!(more_a, more_b);
        a.rebuild(12, 4, 13, false);
        b.rebuild(12, 4, 13, false);
        assert_equivalent(&a, &b);
    }
}
