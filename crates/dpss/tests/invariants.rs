//! Structural-invariant property tests (`DpssSampler::validate`): after any
//! sequence of insertions and deletions, every level of the hierarchy must
//! agree with a from-scratch reconstruction.

use dpss::{DpssSampler, ItemId, QueryCtx, Ratio, SpaceUsage};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64),
    DeleteNth(usize),
    Query,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..=u64::MAX).prop_map(Op::Insert),
        2 => (0usize..4096).prop_map(Op::DeleteNth),
        1 => Just(Op::Query),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn hierarchy_invariants_under_churn(ops in proptest::collection::vec(op_strategy(), 1..220)) {
        let mut s = DpssSampler::new(0xD57);
        let mut ctx = QueryCtx::new(0xD57);
        let mut live: Vec<ItemId> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(w) => live.push(s.insert(w)),
                Op::DeleteNth(k) => {
                    if !live.is_empty() {
                        let id = live.swap_remove(k % live.len());
                        prop_assert!(s.delete(id).is_some());
                    }
                }
                Op::Query => {
                    let t = s.query_in(&mut ctx, &Ratio::one(), &Ratio::zero());
                    for id in &t {
                        prop_assert!(s.contains(*id), "query returned dead item");
                    }
                    // No duplicates.
                    let mut u = t.clone();
                    u.sort_unstable();
                    u.dedup();
                    prop_assert_eq!(u.len(), t.len(), "duplicate items in sample");
                }
            }
            s.validate();
            prop_assert_eq!(s.len(), live.len());
        }
        // Total weight must equal the sum over live items.
        let expect: u128 = live.iter().map(|&id| s.weight(id).unwrap() as u128).sum();
        prop_assert_eq!(s.total_weight(), expect);
    }

    #[test]
    fn space_stays_linear(weights in proptest::collection::vec(1u64..=u64::MAX, 1..600)) {
        let (mut s, ids) = DpssSampler::from_weights(&weights, 7);
        let n = weights.len();
        // Per-item words plus a small constant: hierarchy nodes are sized
        // to their group's bucket window, not the bucket universe.
        let words = s.space_words();
        prop_assert!(words < 64 * n + 1024, "space {words} for n={n}");
        // Deleting everything keeps space bounded after rebuilds.
        for id in ids {
            s.delete(id);
        }
        s.validate();
        prop_assert_eq!(s.len(), 0);
    }

    #[test]
    fn queries_never_return_zero_weight(ops in proptest::collection::vec(0u64..5, 1..80)) {
        // Mix zero and positive weights; zero-weight items must never appear.
        let mut s = DpssSampler::new(3);
        let mut ctx = QueryCtx::new(3);
        let mut zero_ids = Vec::new();
        for (i, &sel) in ops.iter().enumerate() {
            if sel == 0 {
                zero_ids.push(s.insert(0));
            } else {
                s.insert((i as u64 + 1) * sel);
            }
        }
        for _ in 0..20 {
            let t = s.query_in(&mut ctx, &Ratio::from_u64s(1, 2), &Ratio::one());
            for id in &t {
                prop_assert!(!zero_ids.contains(id));
            }
        }
    }

    #[test]
    fn stale_handles_always_rejected(weights in proptest::collection::vec(1u64..1000, 2..50)) {
        let (mut s, ids) = DpssSampler::from_weights(&weights, 5);
        let victim = ids[0];
        s.delete(victim).unwrap();
        prop_assert!(s.delete(victim).is_none());
        prop_assert!(s.weight(victim).is_none());
        // Insert more items (slot reuse) — stale handle still invalid.
        for w in &weights {
            s.insert(*w);
        }
        prop_assert!(s.weight(victim).is_none());
    }
}

#[test]
fn rebuild_boundary_stress() {
    // Oscillate around the rebuild thresholds to exercise grow/shrink cycles.
    let mut s = DpssSampler::new(77);
    let mut ctx = QueryCtx::new(77);
    let mut ids: Vec<ItemId> = Vec::new();
    for round in 0..6 {
        for i in 0..120u64 {
            ids.push(s.insert(i * 31 + 1));
        }
        s.validate();
        for id in ids.drain(..100) {
            s.delete(id).unwrap();
        }
        s.validate();
        // With μ = 1 a single sample may be empty (~1/e of the time); over 40
        // queries the probability of all-empty is ≈ e^{-40}.
        let any = (0..40).any(|_| !s.query_in(&mut ctx, &Ratio::one(), &Ratio::zero()).is_empty());
        assert!(any || s.is_empty(), "40 consecutive empty samples at μ=1");
        let _ = round;
    }
    assert!(s.rebuild_count() >= 2, "expected multiple rebuilds");
}
