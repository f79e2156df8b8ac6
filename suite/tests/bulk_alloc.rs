//! Proof that the radix-partitioned bulk build allocates O(1) times.
//!
//! The whole point of classify → carve → fill → derive is that a load of n
//! items costs a handful of reservations (slab, id vector, one item-arena
//! resize from `reset_to_plan`, the fixed hierarchy skeleton, ≤ 64
//! weight-class node allocations, and the few geometric growths of a proxy
//! arena sized by the weight classes, not by n) and then runs at
//! array-write speed. If the build ever
//! regressed to per-item `Vec` growth or per-item node churn, the allocation
//! count would scale with n — so the assertion compares the counter across
//! an 8× size gap and requires it to stay flat.
//!
//! Lives in its own test binary because the allocation counter is
//! process-global: `alloc_free.rs` (steady-state churn) owns the other one.
//! The counting allocator is the workspace's sanctioned use of `unsafe`:
//! `GlobalAlloc` is an unsafe trait, and delegating to `System` verbatim
//! adds no behavior beyond the counter.
#![allow(unsafe_code)]

use dpss::DpssSampler;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap requests observed (alloc/realloc/alloc_zeroed; frees don't count).
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations performed by `from_weights` alone (weights are generated
/// outside the measured window).
fn allocs_for_bulk_load(n: usize) -> u64 {
    let weights: Vec<u64> =
        (0..n as u64).map(|i| (i.wrapping_mul(0x9E3779B9) % (1 << 28)) | 1).collect();
    let before = ALLOCS.load(Ordering::Relaxed);
    let (s, ids) = DpssSampler::from_weights(&weights, 99);
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(s.len(), n);
    drop((s, ids));
    after - before
}

#[test]
fn bulk_load_allocation_count_does_not_scale_with_n() {
    // Warm once so lazy one-time setup (thread-local init, etc.) is paid.
    let _ = allocs_for_bulk_load(1 << 8);
    let small = allocs_for_bulk_load(1 << 12);
    let large = allocs_for_bulk_load(1 << 15);
    // 8× the items must not buy more than a constant slack of extra
    // allocations (distinct weight classes can differ slightly between the
    // two generated sets; each class costs a bounded node setup).
    assert!(
        large <= small + 64,
        "bulk load allocations scale with n: {small} at 2^12 vs {large} at 2^15"
    );
    // And the absolute count is small — a true O(1)-after-reserve build, not
    // merely sub-linear.
    assert!(small < 1024, "bulk load at 2^12 performed {small} allocations");
}
