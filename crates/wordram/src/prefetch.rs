//! Software prefetch hints for stride walks over arena-backed storage.
//!
//! The HALT hot paths — the level-1 geometric stride walk and the query's
//! slab reads — touch arena cells whose *indices* are known one stride before
//! their *contents* are needed. At n ≥ 2^20 the backing vectors leave L2 and
//! every such touch is a DRAM miss on the critical path; issuing the address
//! one stride ahead overlaps the miss with the acceptance arithmetic that
//! fills the gap. These helpers are the only sanctioned way to do that:
//!
//! - they are **bounds-checked** — an out-of-range index is a silent no-op,
//!   never UB, so callers may speculate past the end of a walk freely;
//! - they are **semantically invisible** — a prefetch moves no data anyone
//!   reads and rolls no RNG, so pinned-stream sample equality is unaffected;
//! - they compile to **nothing** on targets without `_mm_prefetch`.
//!
//! The `unsafe` here is confined to the intrinsic calls themselves; the
//! pointer is always derived from an in-bounds slice element.

// The intrinsics are the whole point of the module; everything around them
// stays checked.
#![allow(unsafe_code)]

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};

/// Hints that `s[i]` will soon be read. No-op if `i` is out of bounds, on
/// non-x86_64 targets.
#[inline(always)]
pub fn prefetch_read<T>(s: &[T], i: usize) {
    #[cfg(target_arch = "x86_64")]
    if let Some(cell) = s.get(i) {
        // SAFETY: `cell` is a live in-bounds reference; PREFETCHT0 has no
        // architectural effect beyond cache-line movement.
        unsafe { _mm_prefetch((cell as *const T).cast::<i8>(), _MM_HINT_T0) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (s, i);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_bounds_is_a_no_op() {
        let v = [1u64, 2, 3];
        prefetch_read(&v, 0);
        prefetch_read(&v, 2);
        prefetch_read(&v, 3); // one past the end — must not fault
        prefetch_read(&v, usize::MAX);
    }

    #[test]
    fn empty_slice_is_fine() {
        let v: [u8; 0] = [];
        prefetch_read(&v, 0);
    }
}
