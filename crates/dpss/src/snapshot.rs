//! Shared codec helpers for the HALT snapshot impls (`pss_core::Snapshottable`
//! for [`crate::DpssSampler`] and [`crate::DeamortizedDpss`] — the impls live
//! next to their structs, which own the private fields).
//!
//! The durable image of a HALT structure is **the slab, verbatim** — every
//! slot's weight, bucket position, and generation/liveness word, plus the
//! free list in recycling order — and a handful of sizing scalars. Nothing
//! derived is serialized: the bucket lists are refilled positionally from the
//! slots' own `bucket_pos` fields, and the group layer plus the whole proxy
//! hierarchy are re-derived by the same canonical-order pass the bulk build
//! uses ([`Level1::rebuild`]). The hierarchy is a pure function of the final
//! bucket counts (canonical ascending-child order), so derive-once lands on
//! exactly the structure n incremental cascades would have built: restored
//! samplers answer pinned derived-stream queries bit-identically, issue the
//! same future handles, and re-serialize to the same bytes.

use crate::item::{ItemId, Slab, SLOT_REC_BYTES};
use crate::structure::{Level1, L1_BUCKETS};
use pss_core::{Dec, Enc, SnapshotError};
use wordram::bits::floor_log2_u64;
use wordram::narrow;

/// Appends the slab verbatim: slot records in slot order, then the free list
/// in recycling order (restored slabs must pop slots — and therefore issue
/// future handles — exactly as the original would). Records go through one
/// fixed-width `put_raw` each (capacity reserved up front) — at snapshot
/// sizes the three-small-appends version was a measurable slice of save
/// time.
pub(crate) fn write_slab(enc: &mut Enc, slab: &Slab) {
    enc.put_usize(slab.slot_count());
    enc.reserve(slab.slot_count().saturating_mul(SLOT_REC_BYTES));
    for (weight, bucket_pos, meta) in slab.raw_slots() {
        let mut rec = [0u8; SLOT_REC_BYTES];
        // pss-lint: allow(no-bare-index) — rec is [u8; SLOT_REC_BYTES = 16]; the ranges below are within 0..16
        rec[..8].copy_from_slice(&weight.to_le_bytes());
        // pss-lint: allow(no-bare-index) — rec is [u8; SLOT_REC_BYTES = 16]; 8..12 is within 0..16
        rec[8..12].copy_from_slice(&bucket_pos.to_le_bytes());
        // pss-lint: allow(no-bare-index) — rec is [u8; SLOT_REC_BYTES = 16]; 12.. is within 0..16
        rec[12..].copy_from_slice(&meta.to_le_bytes());
        enc.put_raw(&rec);
    }
    enc.put_usize(slab.raw_free().len());
    for &idx in slab.raw_free() {
        enc.put_u32(idx);
    }
}

/// Decodes a [`write_slab`] payload. The whole record stream is taken with
/// a single bounds check ([`Dec::get_raw`]), which also *proves* the slot
/// count before any allocation is sized from it — a corrupt count still
/// dies as `Truncated`, never as an absurd reservation. The free list is
/// validated against the liveness bits before the slab is built.
pub(crate) fn read_slab(dec: &mut Dec<'_>) -> Result<Slab, SnapshotError> {
    let slots = dec.get_usize()?;
    let n_bytes = slots.checked_mul(SLOT_REC_BYTES).ok_or(SnapshotError::Truncated)?;
    let recs = dec.get_raw(n_bytes)?;
    let n_free = dec.get_usize()?;
    let mut free = Vec::new();
    for _ in 0..n_free {
        free.push(dec.get_u32()?);
    }
    Slab::from_raw_parts(recs, free).map_err(SnapshotError::Invalid)
}

/// Rebuilds a [`Level1`] around a restored slab: classify, place every
/// positive item at its serialized bucket position, carve-and-fill the
/// bucket blocks (the bulk build's arena discipline), then derive the group
/// layer and proxy hierarchy in one canonical pass. Rejects any slab whose
/// `bucket_pos` fields do not form an exact permutation per weight class —
/// a corrupt placement would otherwise sample the wrong items silently.
pub(crate) fn level1_from_slab(
    slab: Slab,
    g1: u32,
    g2: u32,
    count_bits: u32,
) -> Result<Level1, SnapshotError> {
    let mut lv = Level1::new(g1, g2);
    // Classify: the per-class occupancy histogram plus the recomputed
    // aggregates (never trusted from the image).
    let mut counts = [0usize; L1_BUCKETS];
    let mut total: u128 = 0;
    let mut n_positive = 0usize;
    let mut n_zero = 0usize;
    for idx in 0..slab.slot_count() {
        let Some((_, w)) = slab.entry_at(idx) else { continue };
        // No overflow: < 2^32 slots of weight < 2^64 sum below 2^128.
        total += w as u128;
        if w == 0 {
            n_zero += 1;
        } else {
            // pss-lint: allow(no-bare-index) — floor_log2 of a u64 is < 64 = L1_BUCKETS
            counts[floor_log2_u64(w) as usize] += 1;
        }
    }
    n_positive += counts.iter().sum::<usize>();
    // Carve, then place by scattering straight into the carved blocks
    // (`reset_to_plan` pads the whole planned region with the arena's
    // vacancy fill, `u64::MAX` — unreachable as a real handle, since 31-bit
    // generations keep raw ids below 2^63 — so the value each scatter
    // displaces is a duplicate check for free). Exactly n⁺ placements into
    // n⁺ distinct in-range cells is a full permutation proof: no holes, and
    // the restored bucket lists match the originals cell for cell. One pass
    // and no intermediate placement array — at 2^20 items that array was a
    // measurable slice of load time.
    lv.item_arena.reset_to_plan(counts.iter().copied());
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        // pss-lint: allow(no-bare-index) — i enumerates counts, which has L1_BUCKETS = buckets.len() entries
        lv.item_arena.carve_exact(&mut lv.buckets[i], c);
    }
    let vacant = ItemId::from_raw(u64::MAX);
    for idx in 0..slab.slot_count() {
        let Some((id, w)) = slab.entry_at(idx) else { continue };
        if w == 0 {
            continue;
        }
        let i = floor_log2_u64(w) as usize;
        let pos = slab.bucket_pos(id);
        // pss-lint: allow(no-bare-index) — i = floor_log2 of a u64 is < 64 = L1_BUCKETS
        if pos as usize >= counts[i] {
            return Err(SnapshotError::Invalid("bucket position out of range"));
        }
        // pss-lint: allow(no-bare-index) — i = floor_log2 of a u64 is < 64 = L1_BUCKETS
        if lv.item_arena.scatter_raw(&lv.buckets[i], pos, id) != vacant {
            return Err(SnapshotError::Invalid("bucket position repeated"));
        }
    }
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        // pss-lint: allow(no-bare-index) — i enumerates counts, which has L1_BUCKETS = buckets.len() entries
        lv.item_arena.commit_len(&mut lv.buckets[i], narrow::u32_of_usize(c));
        lv.nonempty_buckets.insert(i);
    }
    lv.slab = slab;
    lv.total_weight = total;
    lv.n_positive = n_positive;
    lv.n_zero = n_zero;
    // Derive: group bitsets + the whole proxy hierarchy, one canonical pass
    // over the non-empty buckets (identical to the bulk build's pass 4).
    lv.rebuild(g1, g2, count_bits, false);
    Ok(lv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_payload_roundtrip_preserves_free_order() {
        let mut slab = Slab::new();
        let ids: Vec<ItemId> = (0..8u64).map(|i| slab.insert(1 << i)).collect();
        slab.remove(ids[2]);
        slab.remove(ids[5]);
        let mut enc = Enc::new();
        write_slab(&mut enc, &slab);
        let mut dec = Dec::new(enc.bytes());
        let mut restored = read_slab(&mut dec).expect("valid payload");
        dec.finish().expect("full consumption");
        assert_eq!(restored.len(), slab.len());
        // Future handle issuance must match: same free list, same order.
        for w in [11u64, 13, 17] {
            assert_eq!(slab.insert(w), restored.insert(w));
        }
    }

    #[test]
    fn corrupt_bucket_positions_are_rejected() {
        let mut lv = Level1::new(4, 2);
        for w in [3u64, 3, 5, 9] {
            lv.insert(w);
        }
        let mut enc = Enc::new();
        write_slab(&mut enc, &lv.slab);
        let mut dec = Dec::new(enc.bytes());
        let mut slab = read_slab(&mut dec).expect("valid payload");
        // Forge a duplicate bucket position: two class-1 items at pos 0.
        let (first, _) = slab.iter().next().expect("live item");
        slab.set_bucket_pos(first, 0);
        let (second, _) = slab.iter().nth(1).expect("live item");
        slab.set_bucket_pos(second, 0);
        assert_eq!(
            level1_from_slab(slab, 4, 2, 5).err(),
            Some(SnapshotError::Invalid("bucket position repeated"))
        );
    }

    #[test]
    fn restored_level1_matches_structurally() {
        let mut lv = Level1::new(5, 3);
        let ids: Vec<ItemId> =
            [1u64, 2, 3, 0, 1 << 20, 7, 7, 9].iter().map(|&w| lv.insert(w)).collect();
        lv.delete(ids[1]);
        let mut enc = Enc::new();
        write_slab(&mut enc, &lv.slab);
        let mut dec = Dec::new(enc.bytes());
        let slab = read_slab(&mut dec).expect("valid payload");
        let restored = level1_from_slab(slab, 5, 3, 6).expect("valid slab");
        restored.validate();
        assert_eq!(restored.total_weight, lv.total_weight);
        assert_eq!(restored.n_positive, lv.n_positive);
        assert_eq!(restored.n_zero, lv.n_zero);
        for (id, w) in lv.slab.iter() {
            assert_eq!(restored.slab.weight(id), Some(w));
            assert_eq!(restored.slab.bucket_pos(id), lv.slab.bucket_pos(id));
        }
    }
}
