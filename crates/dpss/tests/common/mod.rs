//! Fixtures shared by the law tests.

use dpss::sampler::SCAN_SLOTS;
use dpss::{DpssSampler, ItemId};

/// A sampler over `weights` (handles in input order) that answers queries
/// through the level-1 machinery — groups opened in place, the
/// insignificant and certain instances — rather than the slot scan of a
/// small flat sampler. The items are followed by `SCAN_SLOTS` fillers that
/// are deleted again: the shrink rebuild returns the sampler to the floor
/// sizing (g₁ = 4, flat, so every significant group opens in place), but
/// its slab keeps more than `SCAN_SLOTS` slots.
pub fn level1_sampler(weights: &[u64], seed: u64) -> (DpssSampler, Vec<ItemId>) {
    let mut s = DpssSampler::new(seed);
    let ids: Vec<ItemId> = weights.iter().map(|&w| s.insert(w)).collect();
    let fillers: Vec<ItemId> = (0..SCAN_SLOTS).map(|_| s.insert(1)).collect();
    for id in fillers {
        s.delete(id).unwrap();
    }
    assert!(s.level1().is_flat(), "g₁ = {}", s.level1().group_width);
    assert!(s.level1().slab.slot_count() > SCAN_SLOTS);
    (s, ids)
}
