//! Heap footprint of small HALT samplers, measured with a counting
//! allocator that tracks live bytes.
//!
//! The paper promises space linear in the current number of items
//! (Theorem 1.1), and the graph applications run one small sampler per
//! node, so the fixed cost of a tiny sampler is what those workloads pay
//! per node. Two checks:
//!
//! - an 8-item sampler stays within 2 KiB of live heap: at the size floor
//!   (g₁ ≤ `IN_PLACE_BUCKETS`) it builds no level-2/3 node, so its heap is
//!   the level-1 bucket vector, the bitsets, the slab and the item arena;
//! - `space_words()` tracks the live heap: across sizes and both build
//!   paths it stays within a factor of two of the measured bytes.
//!
//! The counting allocator delegates to `System` verbatim; like
//! `alloc_free.rs`, it is a sanctioned use of `unsafe` (`GlobalAlloc` is an
//! unsafe trait).
#![allow(unsafe_code)]

use dpss::{DpssSampler, SpaceUsage};
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

/// Measured: 1,556 B built per-op and 1,172 B in bulk. The bound fails a
/// floor-sized sampler that keeps a level-2/3 node per non-empty group
/// (4,100 and 3,684 B).
#[test]
fn eight_item_sampler_fits_in_a_few_kib() {
    let weights = [37u64, 5, 81, 12, 64, 3, 99, 20];
    for (name, (s, bytes)) in [("per-op", per_op(&weights)), ("bulk", bulk(&weights))] {
        s.validate();
        assert!(bytes <= 2 * 1024, "{name}: 8-item sampler holds {bytes} B of live heap");
    }
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
        for (name, (s, bytes)) in [("per-op", per_op(&weights)), ("bulk", bulk(&weights))] {
            let accounted = s.space_words() * 8;
            assert!(
                accounted * 2 >= bytes && accounted <= 2 * bytes,
                "{name}, n = {n}: space_words()·8 = {accounted} B vs {bytes} B live"
            );
        }
    }
}
