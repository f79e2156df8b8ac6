//! Audited integer narrowing.
//!
//! A bare `x as u32` silently truncates; in an exact sampler that is a
//! correctness bug waiting for a large input. This module is the sanctioned
//! home for narrowing: the `*_of_*` helpers are value-preserving (a debug
//! assertion proves it on every test run, release builds keep the plain
//! cast), while `lo32` spells out the case where truncation is the point
//! (hash mixing, limb decomposition). `pss-lint`'s
//! `no-lossy-cast` rule steers every truncating `as` cast in the workspace
//! either through here or to a per-site justification pragma.
// pss-lint: allow-file(no-lossy-cast) — this module is the audited narrowing layer; every cast is either debug_assert-checked or deliberately truncating by name

/// `u32::try_from` semantics without the branch: callers promise the value
/// fits, the debug assertion enforces the promise under test.
#[inline]
pub fn u32_of_usize(x: usize) -> u32 {
    debug_assert!(u32::try_from(x).is_ok(), "u32_of_usize: {x} does not fit");
    x as u32
}

/// Value-preserving `u64 -> u32` narrowing (callers promise it fits).
#[inline]
pub fn u32_of_u64(x: u64) -> u32 {
    debug_assert!(u32::try_from(x).is_ok(), "u32_of_u64: {x} does not fit");
    x as u32
}

/// Value-preserving `usize -> u16` narrowing (callers promise it fits).
#[inline]
pub fn u16_of_usize(x: usize) -> u16 {
    debug_assert!(u16::try_from(x).is_ok(), "u16_of_usize: {x} does not fit");
    x as u16
}

/// Value-preserving `u64 -> u16` narrowing (callers promise it fits).
#[inline]
pub fn u16_of_u64(x: u64) -> u16 {
    debug_assert!(u16::try_from(x).is_ok(), "u16_of_u64: {x} does not fit");
    x as u16
}

/// Value-preserving `u64 -> i32` narrowing (callers promise it fits).
#[inline]
pub fn i32_of_u64(x: u64) -> i32 {
    debug_assert!(i32::try_from(x).is_ok(), "i32_of_u64: {x} does not fit");
    x as i32
}

/// Value-preserving `i64 -> i32` narrowing (callers promise it fits).
#[inline]
pub fn i32_of_i64(x: i64) -> i32 {
    debug_assert!(i32::try_from(x).is_ok(), "i32_of_i64: {x} does not fit");
    x as i32
}

/// The low 32 bits of `x`. Truncation is deliberate and named.
#[inline]
pub fn lo32(x: u64) -> u32 {
    x as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_preserving_in_range() {
        assert_eq!(u32_of_usize(0), 0);
        assert_eq!(u32_of_usize(u32::MAX as usize), u32::MAX);
        assert_eq!(u32_of_u64(7), 7);
        assert_eq!(u16_of_usize(65_535), u16::MAX);
        assert_eq!(u16_of_u64(9), 9);
        assert_eq!(i32_of_u64(i32::MAX as u64), i32::MAX);
        assert_eq!(i32_of_i64(-5), -5);
    }

    #[test]
    fn deliberate_truncation() {
        assert_eq!(lo32(0xdead_beef_0000_0001), 1);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn narrowing_overflow_caught_in_debug() {
        u32_of_u64(u64::from(u32::MAX) + 1);
    }
}
