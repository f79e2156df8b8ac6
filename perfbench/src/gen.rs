//! Seeded input generation. Every input a workload feeds the program —
//! weights, update streams, graphs, roots, query parameters — comes from
//! [`Rng`] streams derived from the `--seed` argument, so one seed always
//! yields the same inputs. The generators live here rather than in the
//! repository's `workloads` crate so that a change to the program cannot
//! silently change what the benchmark measures.

/// SplitMix64 step, used to expand seeds into independent streams.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++: the benchmark's own generator for inputs.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A stream for `(seed, purpose)`: distinct purposes give independent
    /// streams under one seed.
    pub fn new(seed: u64, purpose: u64) -> Self {
        let mut z = seed ^ splitmix(purpose.wrapping_add(0x5EED));
        let mut s = [0u64; 4];
        for x in &mut s {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *x = splitmix(z);
        }
        Rng { s }
    }

    pub fn next_u64(&mut self) -> u64 {
        let out = (self.s[0].wrapping_add(self.s[3])).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform in `0..n` (`n ≥ 1`), by 128-bit multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Number of Zipf ranks (the weight of rank `k` is `w_max / k^s`).
const ZIPF_RANKS: usize = 1024;

/// Zipf(`s`) weights: rank `k ∈ 1..=1024` drawn with probability `∝ k^-s`,
/// weight `max(1, ⌊w_max / k^s⌋)`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
    s: u32,
    w_max: u64,
}

impl Zipf {
    pub fn new(s: u32, w_max: u64) -> Self {
        let mut acc = 0.0;
        let cdf = (1..=ZIPF_RANKS)
            .map(|k| {
                acc += (k as f64).powi(-(s as i32));
                acc
            })
            .collect();
        Zipf { cdf, s, w_max }
    }

    pub fn draw(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit() * self.cdf[ZIPF_RANKS - 1];
        let k = self.cdf.partition_point(|&c| c <= u).min(ZIPF_RANKS - 1) + 1;
        (self.w_max as u128 / (k as u128).pow(self.s)).max(1) as u64
    }
}

/// `n` draws from `Zipf::new(s, w_max)`.
pub fn zipf_weights(rng: &mut Rng, n: usize, s: u32, w_max: u64) -> Vec<u64> {
    let z = Zipf::new(s, w_max);
    (0..n).map(|_| z.draw(rng)).collect()
}

/// A directed edge `(u, v, w)`.
pub type Edge = (u32, u32, u64);

/// Power-law digraph by preferential target choice: `m` distinct edges
/// without self-loops, each target drawn from a pool holding every node
/// once plus one copy per in-edge it already has, weights uniform in
/// `1..=w_max`. The same construction as the `graphsub` generator.
pub fn power_law_digraph(rng: &mut Rng, n: usize, m: usize, w_max: u64) -> Vec<Edge> {
    let mut pool: Vec<u32> = (0..n as u32).collect();
    let mut seen = std::collections::HashSet::with_capacity(m);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let u = rng.below(n as u64) as u32;
        let v = pool[rng.below(pool.len() as u64) as usize];
        if u != v && seen.insert((u, v)) {
            edges.push((u, v, rng.range(1, w_max)));
            pool.push(v);
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_purposes_differ() {
        let (mut a, mut b, mut c) = (Rng::new(7, 1), Rng::new(7, 1), Rng::new(7, 2));
        let x: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let y: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let z: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    fn zipf_weights_are_bounded_and_rank_one_dominates() {
        let w = zipf_weights(&mut Rng::new(1, 0), 20_000, 2, 1 << 30);
        assert!(w.iter().all(|&x| (1..=1 << 30).contains(&x)));
        let top = w.iter().filter(|&&x| x == 1 << 30).count() as f64 / w.len() as f64;
        // P(rank 1) = 1 / Σ k^-2 over 1024 ranks ≈ 0.608.
        assert!((top - 0.608).abs() < 0.02, "rank-1 share {top}");
    }

    #[test]
    fn power_law_edges_are_distinct_and_loop_free() {
        let e = power_law_digraph(&mut Rng::new(3, 0), 200, 2000, 100);
        let set: std::collections::HashSet<_> = e.iter().map(|&(u, v, _)| (u, v)).collect();
        assert_eq!(set.len(), 2000);
        assert!(e.iter().all(|&(u, v, w)| u != v && (1..=100).contains(&w)));
    }
}
