//! Workspace-level pipeline tests: the workload generators driving every
//! sampler variant, the two appendix applications end-to-end on generated
//! graphs, and the de-amortized sampler under the adversarial streams it was
//! built for.

use baselines::{all_backends, OdssDss};
use bignum::Ratio;
use dpss::{DeamortizedDpss, DpssSampler, PssBackend, QueryCtx};
use graphsub::{gen, local_cluster, InfluenceMaximizer};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use workloads::params::{alpha_for_mu, mu_exact_f64};
use workloads::updates::{LiveSet, Op, StreamKind, UpdateStream};
use workloads::weights::WeightDist;

/// Every stream kind replays cleanly on both the amortized and de-amortized
/// samplers, with matching final cardinality and total weight.
#[test]
fn streams_replay_on_both_samplers() {
    let kinds = [
        StreamKind::InsertOnly,
        StreamKind::DeleteOnly,
        StreamKind::Mixed { insert_permille: 450 },
        StreamKind::SlidingWindow { window: 64 },
        StreamKind::Fifo { window: 64 },
        StreamKind::Oscillate { lo: 32, hi: 256 },
        StreamKind::Decayed { insert_permille: 600, scale_every: 200, num: 3, den: 4 },
        StreamKind::MixedRegime { insert_permille: 250, reweight_permille: 500 },
    ];
    for (k, kind) in kinds.into_iter().enumerate() {
        let mut rng = SmallRng::seed_from_u64(k as u64);
        let stream = UpdateStream::generate(
            kind,
            48,
            3_000,
            WeightDist::Zipf { s_num: 2, s_den: 1, w_max: 1 << 30 },
            &mut rng,
        );

        let mut halt = DpssSampler::new(1);
        let mut live_h = LiveSet::new();
        let mut deam = DeamortizedDpss::new(1);
        let mut live_d = LiveSet::new();
        for &w in &stream.initial {
            live_h.insert(halt.insert(w));
            live_d.insert(deam.insert(w));
        }
        for op in &stream.ops {
            match *op {
                Op::Insert(w) => {
                    live_h.insert(halt.insert(w));
                    live_d.insert(deam.insert(w));
                }
                Op::DeleteAt(i) => {
                    assert!(halt.delete(live_h.remove_at(i)).is_some());
                    assert!(deam.delete(live_d.remove_at(i)));
                }
                Op::DeleteOldest => {
                    assert!(halt.delete(live_h.remove_oldest()).is_some());
                    assert!(deam.delete(live_d.remove_oldest()));
                }
                Op::ReweightAt { index, weight } => {
                    // HALT's native reweight keeps the id stable ...
                    let id = live_h.handles()[index];
                    assert!(halt.set_weight(id, weight).is_some());
                    // ... the de-amortized facade default re-issues handles.
                    let entry = &mut live_d.handles_mut()[index];
                    *entry = deam.set_weight(*entry, weight).expect("live handle");
                }
                Op::ScaleAllWeights { num, den } => {
                    let scale = |w: u64| workloads::scale_weight(w, num, den);
                    // HALT reweights in place (ids stable) ...
                    for id in live_h.handles_mut() {
                        let w = halt.weight(*id).expect("live id");
                        assert!(halt.set_weight(*id, scale(w)).is_some());
                    }
                    // ... the de-amortized variant goes through the facade
                    // default (delete + reinsert) and re-issues handles.
                    for h in live_d.handles_mut() {
                        let w = deam.weight(*h).expect("live handle");
                        *h = deam.set_weight(*h, scale(w)).expect("live handle");
                    }
                }
            }
        }
        halt.validate();
        deam.validate();
        assert_eq!(halt.len(), deam.len(), "stream {k}");
        assert_eq!(halt.total_weight(), deam.total_weight(), "stream {k}");
    }
}

/// The μ-targeting parameter sweep hits its target on every backend: mean
/// sample sizes must match the exact μ computed by `workloads::params`.
#[test]
fn mu_targets_hold_across_all_backends() {
    let mut rng = SmallRng::seed_from_u64(77);
    let weights =
        WeightDist::Bimodal { light: 3, heavy: 1 << 22, heavy_permille: 40 }.generate(96, &mut rng);
    let (a, b) = alpha_for_mu(6, 1);
    let mu = mu_exact_f64(&weights, &a, &b);
    for backend in all_backends(31).iter_mut() {
        let mut ctx = pss_core::QueryCtx::new(31);
        for &w in &weights {
            backend.insert(w);
        }
        let trials = 2_000u64;
        let total: u64 = (0..trials).map(|_| backend.query(&mut ctx, &a, &b).len() as u64).sum();
        let mean = total as f64 / trials as f64;
        let z = (mean - mu) / (mu / trials as f64).sqrt();
        assert!(z.abs() < 5.0, "{}: mean {mean} vs μ {mu} (z = {z})", backend.name());
    }
}

/// ODSS solves its own (fixed-probability DSS) problem with O(1) updates
/// while HALT solves DPSS; on the *same* induced probabilities the two laws
/// must coincide.
#[test]
fn odss_and_halt_agree_on_induced_probabilities() {
    let weights = [5u64, 40, 320, 2560];
    let total: u64 = weights.iter().sum();
    // HALT with (α,β) = (1,0) induces p_i = w_i / Σw; feed those exact
    // probabilities to the ODSS DSS directly.
    let (halt, ids) = DpssSampler::from_weights(&weights, 11);
    let mut halt_ctx = QueryCtx::new(11);
    let mut odss = OdssDss::new(11);
    let oh: Vec<u64> = weights.iter().map(|&w| odss.insert(Ratio::from_u64s(w, total))).collect();

    let trials = 40_000u64;
    let mut hits_h = vec![0u64; weights.len()];
    let mut hits_o = vec![0u64; weights.len()];
    for _ in 0..trials {
        for id in halt.query_in(&mut halt_ctx, &Ratio::one(), &Ratio::zero()) {
            hits_h[ids.iter().position(|&x| x == id).unwrap()] += 1;
        }
        for h in odss.query() {
            hits_o[oh.iter().position(|&x| x == h).unwrap()] += 1;
        }
    }
    for i in 0..weights.len() {
        let p = weights[i] as f64 / total as f64;
        let sigma = (p * (1.0 - p) * trials as f64).sqrt();
        let diff = (hits_h[i] as f64 - hits_o[i] as f64).abs();
        assert!(diff < 7.0 * sigma * 1.42, "item {i}: halt {} vs odss {}", hits_h[i], hits_o[i]);
    }
}

/// Influence maximization on a generated power-law graph: the greedy seeds
/// must beat a random seed set of the same size, measured by RIS coverage.
#[test]
fn greedy_seeds_beat_random_seeds() {
    let n = 600;
    let edges = gen::power_law_digraph(n, 4_000, 50, 13);
    let mut g = gen::build_dpss_graph(n, &edges, 17);
    let mut rng = SmallRng::seed_from_u64(19);
    let mut im = InfluenceMaximizer::new(512);
    let sel = im.run(&mut g, 1_500, 4, &mut rng);

    // Random seeds of the same size, compared by forward Monte-Carlo
    // influence on the same graph.
    use rand::Rng;
    let mut rand_sum = 0.0f64;
    let draws = 8;
    for _ in 0..draws {
        let seeds: Vec<u32> = (0..4).map(|_| rng.gen_range(0..n as u32)).collect();
        rand_sum += graphsub::forward_influence(&mut g, &seeds, 40);
    }
    let rand_mean = rand_sum / draws as f64;
    let greedy_fwd = graphsub::forward_influence(&mut g, &sel.seeds, 200);
    assert!(greedy_fwd > rand_mean, "greedy {greedy_fwd} vs random {rand_mean}");
}

/// Local clustering end-to-end on a generated planted-partition graph.
#[test]
fn local_clustering_recovers_planted_partition() {
    let n = 80;
    let edges = gen::two_community_digraph(n, 350, 6, 8, 1, 23);
    let mut g = gen::build_dpss_graph(n, &edges, 29);
    let mut rng = SmallRng::seed_from_u64(31);
    let cut = local_cluster(&mut g, 3, 12_000, 150, &mut rng).expect("a cut exists");
    let half = (n / 2) as u32;
    let in_seed_half = cut.cluster.iter().filter(|&&v| v < half).count();
    let frac = in_seed_half as f64 / cut.cluster.len() as f64;
    assert!(frac > 0.9, "only {frac:.2} of the cluster is in the seed community");
    assert!(cut.conductance < 0.2, "φ = {}", cut.conductance);
}
