//! # wordram — Word RAM model primitives
//!
//! Substrate crate for the reproduction of *Optimal Dynamic Parameterized
//! Subset Sampling* (PODS 2024). It provides the model-level building blocks
//! the HALT data structure assumes (paper §2.1):
//!
//! - [`bits`]: O(1) highest/lowest-set-bit and integer log2 instructions;
//! - [`BitsetList`]: the Fact 2.1 dynamic sorted set over a bounded universe
//!   with O(1) worst-case update / predecessor / successor (see the README's "Paper → module map");
//! - [`U256`]: fixed-width 256-bit integers for next-level item weights that
//!   exceed 128 bits while remaining O(1) words;
//! - [`Pool`] / [`BucketArena`]: index-addressed slab and size-class block
//!   arena backing the allocation-free update cascade (nodes and bucket
//!   lists live in flat storage instead of behind `Box`/`Vec` pointers);
//! - [`crc`]: table-driven CRC-32, the per-section integrity check of the
//!   snapshot codec in `pss-core`;
//! - [`SpaceUsage`]: word-granularity space accounting used by the E4
//!   experiment (space is "measured in words", §2.1);
//! - [`prefetch`]: bounds-checked software prefetch for the stride walks
//!   of the beyond-L2 regime.
//!
//! `unsafe` is denied workspace-wide and allowed only inside [`prefetch`],
//! whose entire purpose is the intrinsic hint; it confines it to
//! bounds-checked call sites.

#![warn(missing_docs)]

pub mod bits;
mod bitset_list;
pub mod crc;
pub mod narrow;
mod pool;
pub mod prefetch;
mod u256;

pub use bitset_list::{BitsetIter, BitsetList, BitsetRangeIter};
pub use pool::{ArenaResidency, Bucket, BucketArena, FillCursor, Pool};
pub use u256::U256;

/// Word-granularity space accounting, the paper's space measure (§2.1).
pub trait SpaceUsage {
    /// Total space consumed, in 64-bit words (including vector capacities).
    fn space_words(&self) -> usize;
}

impl SpaceUsage for BitsetList {
    fn space_words(&self) -> usize {
        BitsetList::space_words(self)
    }
}
