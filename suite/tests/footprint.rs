//! Heap footprint of small HALT samplers, measured with a counting
//! allocator that tracks live bytes.
//!
//! The paper promises space linear in the current number of items
//! (Theorem 1.1), and the graph applications run one small sampler per
//! node, so the fixed cost of a tiny sampler is what those workloads pay
//! per node. The checks:
//!
//! - an empty sampler holds only its two bitsets' words: no bucket window,
//!   no child links, no slab or arena storage;
//! - an 8-item sampler stays under 1 KiB of live heap: at the size floor
//!   (g₁ ≤ `IN_PLACE_BUCKETS`) it builds no level-2/3 node, so its heap is
//!   the level-1 bucket window (lowest to highest non-empty bucket), the
//!   bitsets, the slab, the item arena and the journal;
//! - a context's read state for one tiny sampler (one `(α, β)` plan) stays
//!   under 1 KiB;
//! - `space_words()` tracks the footprint: it charges the sampler's inline
//!   struct plus the heap it holds, and across sizes and both build paths
//!   it stays within 25% of the same two measured (`size_of` plus live
//!   heap).
//!
//! The counting allocator delegates to `System` verbatim; like
//! `alloc_free.rs`, it is a sanctioned use of `unsafe` (`GlobalAlloc` is an
//! unsafe trait).
#![allow(unsafe_code)]

use bignum::Ratio;
use dpss::{DpssSampler, SpaceUsage};
use pss_core::QueryCtx;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Live heap bytes allocated minus freed by this thread. Per thread,
    /// so the tests in this binary can run concurrently.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    // `try_with`: the allocator also serves threads whose locals are
    // already torn down.
    let _ = LIVE.try_with(|c| c.set(c.get() + delta));
}

struct Tracking;

unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static TRACKING: Tracking = Tracking;

fn live() -> isize {
    LIVE.with(Cell::get)
}

/// A sampler built one insert at a time, and the live heap bytes it holds.
fn per_op(weights: &[u64]) -> (DpssSampler, usize) {
    let before = live();
    let mut s = DpssSampler::new(1);
    for &w in weights {
        s.insert(w);
    }
    let bytes = live() - before;
    (s, bytes.unsigned_abs())
}

/// A sampler built by the bulk path, and the live heap bytes it holds (the
/// returned handle vector is freed before measuring).
fn bulk(weights: &[u64]) -> (DpssSampler, usize) {
    let before = live();
    let (s, ids) = DpssSampler::from_weights(weights, 1);
    drop(ids);
    let bytes = live() - before;
    (s, bytes.unsigned_abs())
}

/// Measured: 16 B, the two bitsets' leaf words. The bound (measured plus
/// 25%) fails a sampler that allocates its full 64-handle bucket vector or
/// its child links up front (852 B).
#[test]
fn empty_sampler_holds_only_its_bitsets() {
    for (name, (s, bytes)) in [("per-op", per_op(&[])), ("bulk", bulk(&[]))] {
        s.validate();
        assert!(bytes <= 20, "{name}: empty sampler holds {bytes} B of live heap");
    }
}

/// Measured: 792 B built per-op and 408 B in bulk (weights in buckets 1–6).
/// The bound (the larger plus 25%) fails a sampler that allocates the whole
/// 64-handle bucket vector (1,556 and 1,172 B), let alone one that keeps a
/// level-2/3 node per non-empty group (4,100 and 3,684 B).
#[test]
fn eight_item_sampler_fits_in_a_few_kib() {
    let weights = [37u64, 5, 81, 12, 64, 3, 99, 20];
    for (name, (s, bytes)) in [("per-op", per_op(&weights)), ("bulk", bulk(&weights))] {
        s.validate();
        assert!(bytes <= 990, "{name}: 8-item sampler holds {bytes} B of live heap");
    }
}

/// A graph node's query context over its tiny sampler, after one query at
/// its one `(α, β)` pair: the live heap the context holds (the returned
/// sample freed). Measured: 560 B. The bound (measured plus 25%) fails a
/// context that reserves room for four plans and four state entries on the
/// first one (1,280 B).
#[test]
fn warm_context_over_a_tiny_sampler_fits_in_under_a_kib() {
    let (s, _) = bulk(&[37, 5, 92, 18, 64]);
    let (alpha, beta) = (Ratio::one(), Ratio::zero());
    let before = live();
    let mut ctx = QueryCtx::new(3);
    for _ in 0..4 {
        drop(s.query_in(&mut ctx, &alpha, &beta));
    }
    let bytes = (live() - before).unsigned_abs();
    assert!(bytes <= 700, "a warm context holds {bytes} B of live heap");
    drop(ctx);
}

#[test]
fn space_words_tracks_live_heap() {
    let mut rng = SmallRng::seed_from_u64(0xF007);
    for n in [0usize, 1, 2, 4, 8, 16, 64, 600] {
        let weights: Vec<u64> = (0..n)
            .map(|_| {
                let e = rng.gen_range(0..64u32);
                rng.gen_range(1..=u64::MAX >> e)
            })
            .collect();
        for (name, (s, heap)) in [("per-op", per_op(&weights)), ("bulk", bulk(&weights))] {
            // `space_words` charges `size_of::<DpssSampler>()` plus the
            // heap, so the measurement counts the same two. Measured ratios
            // run 0.90–1.01 (the per-op arena's doubling slack is the low
            // end).
            let bytes = heap + std::mem::size_of::<DpssSampler>();
            let accounted = s.space_words() * 8;
            assert!(
                accounted * 5 >= bytes * 4 && accounted * 4 <= bytes * 5,
                "{name}, n = {n}: space_words()·8 = {accounted} B vs {bytes} B (inline + heap)"
            );
        }
    }
}
