//! Property tests on the structure snapshot: the hierarchy's *shape*
//! invariants (proxy counts mirror bucket counts, space stays linear) must
//! hold under arbitrary update churn, not just on fresh builds.

use dpss::structure::IN_PLACE_BUCKETS;
use dpss::{DpssSampler, StructureStats};
use proptest::prelude::*;

/// The exact shape identity: above the size floor every non-empty level-k
/// bucket has one level-(k+1) proxy; a flat sampler (g₁ ≤
/// `IN_PLACE_BUCKETS`) has no level-2/3 node at all.
fn assert_shape(st: &StructureStats) {
    if st.group_width_l1 as usize > IN_PLACE_BUCKETS {
        assert_eq!(st.levels[1].n_members, st.levels[0].nonempty_buckets);
        assert_eq!(st.levels[2].n_members, st.levels[1].nonempty_buckets);
    } else {
        assert_eq!(st.levels[1].n_nodes, 0);
        assert_eq!(st.levels[2].n_nodes, 0);
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u64),
    DeleteNth(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u64..=u64::MAX).prop_map(Op::Insert),
        2 => any::<usize>().prop_map(Op::DeleteNth),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn shape_invariants_under_churn(ops in proptest::collection::vec(op_strategy(), 1..250)) {
        let mut s = DpssSampler::new(0xFEED);
        let mut live = Vec::new();
        let mut zero_count = 0usize;
        for op in ops {
            match op {
                Op::Insert(w) => {
                    live.push((s.insert(w), w));
                    if w == 0 { zero_count += 1; }
                }
                Op::DeleteNth(n) => {
                    if live.is_empty() { continue; }
                    let (id, w) = live.swap_remove(n % live.len());
                    prop_assert_eq!(s.delete(id), Some(w));
                    if w == 0 { zero_count -= 1; }
                }
            }
        }
        let st = s.stats();
        // Cardinalities.
        prop_assert_eq!(st.n_items, live.len());
        prop_assert_eq!(st.n_zero, zero_count);
        let expect_total: u128 = live.iter().map(|&(_, w)| u128::from(w)).sum();
        prop_assert_eq!(st.total_weight, expect_total);
        // Shape: proxies at level k+1 mirror non-empty buckets at level k,
        // or there are no nodes at all below the size floor.
        assert_shape(&st);
        prop_assert_eq!(st.levels[0].n_members, live.len() - zero_count);
        // Level-1 buckets live in a 64-index universe.
        prop_assert!(st.levels[0].nonempty_buckets <= 64);
        // Space linear with a small fixed offset: every node stores only its
        // group's bucket window, so even with all ≤17 level-2 groups and
        // their level-3 children kept warm by churn below the first
        // rebuild, the skeleton stays a few thousand words.
        prop_assert!(st.space_words <= 4096 + 64 * st.n_items,
            "space {} words for {} items", st.space_words, st.n_items);
        s.validate();
    }

    #[test]
    fn stats_survive_rebuilds(n_grow in 100usize..400) {
        // Grow far past the rebuild threshold, then shrink back; the shape
        // identities must hold on both sides of every rebuild.
        let mut s = DpssSampler::new(7);
        let mut ids = Vec::new();
        for i in 0..n_grow as u64 {
            ids.push(s.insert((i % 60) + 1));
        }
        let grew = s.rebuild_count();
        prop_assert!(grew >= 1, "no rebuild after {n_grow} inserts");
        let st = s.stats();
        prop_assert!(st.group_width_l1 as usize > IN_PLACE_BUCKETS);
        assert_shape(&st);
        for id in ids.drain(..) {
            s.delete(id);
        }
        prop_assert!(s.rebuild_count() > grew, "no rebuild on shrink");
        let st = s.stats();
        prop_assert_eq!(st.n_items, 0);
        prop_assert_eq!(st.levels[0].nonempty_buckets, 0);
        prop_assert_eq!(st.levels[1].n_members, 0);
        assert_shape(&st);
    }
}
