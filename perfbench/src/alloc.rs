//! Counting global allocator. Every heap request (alloc, alloc_zeroed,
//! realloc) is charged to the innermost open trace span — the tracer keeps
//! [`set_slot`] pointing at it — and to a process-wide total, which the op
//! loops read around each timed call for `alloc.per_op`.
//!
//! The counters are bumped with a relaxed load and store rather than a
//! locked read-modify-write: the benchmark drives every workload from one
//! thread, and a locked add per allocation would cost more than some of the
//! allocations being counted.
//!
//! `GlobalAlloc` is an unsafe trait, so this module opts out of the crate's
//! `unsafe_code` lint, as the allocation-freedom test of the update path
//! does; the allocator delegates to `System` verbatim.
#![allow(unsafe_code)]

use crate::trace::KINDS;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Slot 0 collects allocations made while no span is open; slot `k + 1`
/// belongs to span kind `k`.
const SLOTS: usize = KINDS + 1;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static COUNT: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
static BYTES: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
static TOTAL: AtomicU64 = AtomicU64::new(0);
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn bump(c: &AtomicU64, by: u64) {
    c.store(c.load(Relaxed).wrapping_add(by), Relaxed);
}

#[inline]
fn note(size: usize) {
    let slot = CURRENT.load(Relaxed);
    bump(&COUNT[slot], 1);
    bump(&BYTES[slot], size as u64);
    bump(&TOTAL, 1);
    bump(&TOTAL_BYTES, size as u64);
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are the allocator's; the counters touch no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc` is forwarded unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's contract for `realloc` is forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed` is forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Charges later allocations to span kind `kind` (`None`: unattributed).
#[inline]
pub fn set_slot(kind: Option<usize>) {
    CURRENT.store(kind.map_or(0, |k| k + 1), Relaxed);
}

/// `(allocations, bytes)` charged to span kind `kind` so far.
pub fn by_kind(kind: usize) -> (u64, u64) {
    (COUNT[kind + 1].load(Relaxed), BYTES[kind + 1].load(Relaxed))
}

/// `(allocations, bytes)` made by the whole process so far.
#[inline]
pub fn totals() -> (u64, u64) {
    (TOTAL.load(Relaxed), TOTAL_BYTES.load(Relaxed))
}
