//! Tests for the O(1) in-place reweight operation (`set_weight`): it must be
//! indistinguishable from delete + insert in every observable way except that
//! the handle survives.

use bignum::Ratio;
use dpss::{DpssSampler, QueryCtx};
use proptest::prelude::*;
use randvar::stats::binomial_z;

#[test]
fn basic_reweight_same_bucket() {
    let mut s = DpssSampler::new(1);
    let id = s.insert(8);
    assert_eq!(s.set_weight(id, 9), Some(8)); // 8 and 9 share bucket ⌊log2⌋=3
    assert_eq!(s.weight(id), Some(9));
    assert_eq!(s.total_weight(), 9);
    s.validate();
}

#[test]
fn reweight_across_buckets() {
    let mut s = DpssSampler::new(2);
    let id = s.insert(8);
    let other = s.insert(1 << 30);
    assert_eq!(s.set_weight(id, 1 << 50), Some(8));
    assert_eq!(s.weight(id), Some(1 << 50));
    assert_eq!(s.total_weight(), (1 << 50) + (1 << 30));
    s.validate();
    // Structure shape must match a fresh build with the same weights.
    let st = s.stats();
    let (fresh, _) = DpssSampler::from_weights(&[1 << 50, 1 << 30], 3);
    let fst = fresh.stats();
    assert_eq!(st.levels[0].nonempty_buckets, fst.levels[0].nonempty_buckets);
    assert_eq!(st.levels[1].n_members, fst.levels[1].n_members);
    let _ = other;
}

#[test]
fn reweight_to_and_from_zero() {
    let mut s = DpssSampler::new(3);
    let mut ctx = QueryCtx::new(3);
    let id = s.insert(100);
    assert_eq!(s.set_weight(id, 0), Some(100));
    assert_eq!(s.total_weight(), 0);
    s.validate();
    // Zero-weight items are never sampled.
    for _ in 0..50 {
        assert!(s.query_in(&mut ctx, &Ratio::one(), &Ratio::zero()).is_empty());
    }
    assert_eq!(s.set_weight(id, 7), Some(0));
    s.validate();
    // And they come back.
    assert!(s.query_in(&mut ctx, &Ratio::one(), &Ratio::zero()).contains(&id));
}

#[test]
fn stale_handle_rejected() {
    let mut s = DpssSampler::new(4);
    let id = s.insert(5);
    s.delete(id);
    assert_eq!(s.set_weight(id, 9), None);
}

#[test]
fn noop_reweight() {
    let mut s = DpssSampler::new(5);
    let id = s.insert(42);
    assert_eq!(s.set_weight(id, 42), Some(42));
    assert_eq!(s.total_weight(), 42);
    s.validate();
}

#[test]
fn marginals_correct_after_reweight() {
    // After re-weighting, inclusion probabilities must follow the *new*
    // weights exactly.
    let mut s = DpssSampler::new(6);
    let mut ctx = QueryCtx::new(6);
    let a = s.insert(1000);
    let b = s.insert(1000);
    let c = s.insert(2000);
    s.set_weight(a, 1).unwrap(); // now weights 1, 1000, 2000; W = 3001
    let trials = 40_000u64;
    let mut hits = [0u64; 3];
    for _ in 0..trials {
        for id in s.query_in(&mut ctx, &Ratio::one(), &Ratio::zero()) {
            if id == a {
                hits[0] += 1;
            } else if id == b {
                hits[1] += 1;
            } else if id == c {
                hits[2] += 1;
            }
        }
    }
    for (i, w) in [(0usize, 1.0f64), (1, 1000.0), (2, 2000.0)] {
        let z = binomial_z(hits[i], trials, w / 3001.0);
        assert!(z.abs() < 5.0, "item {i}: z = {z}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn set_weight_equals_fresh_build(
        weights in proptest::collection::vec(0u64..=u64::MAX / 64, 1..40),
        updates in proptest::collection::vec((any::<usize>(), 0u64..=u64::MAX / 64), 1..40),
    ) {
        // Apply arbitrary reweights; the structure must validate and match a
        // fresh build of the final weights in shape and totals.
        let (mut s, ids) = DpssSampler::from_weights(&weights, 9);
        let mut current = weights.clone();
        for (nth, w) in updates {
            let i = nth % ids.len();
            prop_assert_eq!(s.set_weight(ids[i], w), Some(current[i]));
            current[i] = w;
        }
        s.validate();
        let expect_total: u128 = current.iter().map(|&w| u128::from(w)).sum();
        prop_assert_eq!(s.total_weight(), expect_total);
        for (i, id) in ids.iter().enumerate() {
            prop_assert_eq!(s.weight(*id), Some(current[i]));
        }
        let (fresh, _) = DpssSampler::from_weights(&current, 10);
        let st = s.stats();
        let fst = fresh.stats();
        prop_assert_eq!(st.levels[0].nonempty_buckets, fst.levels[0].nonempty_buckets);
        prop_assert_eq!(st.levels[0].max_bucket_len, fst.levels[0].max_bucket_len);
        prop_assert_eq!(st.levels[1].n_members, fst.levels[1].n_members);
        prop_assert_eq!(st.levels[2].n_members, fst.levels[2].n_members);
        prop_assert_eq!(st.n_zero, fst.n_zero);
    }
}
