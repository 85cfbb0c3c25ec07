//! Deterministic random number streams and the distribution samplers used by
//! the behavioral models.
//!
//! Reproducibility is a hard requirement: the whole study must replay
//! bit-identically from a single `u64` seed. Every simulated entity (home,
//! device, outage process, traffic generator, …) gets its **own** stream
//! derived from the master seed and a stable string label, so adding a new
//! consumer of randomness never perturbs the draws seen by existing ones —
//! the property that makes A/B ablations meaningful.
//!
//! `rand`'s distribution companion crate is not part of our allowed
//! dependency set, so the handful of distributions the models need
//! (exponential, Pareto, log-normal, normal, Poisson, Zipf, weighted choice)
//! are implemented here directly with their textbook inversion/rejection
//! forms and covered by statistical unit tests.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// Mixes a 64-bit value through the SplitMix64 finalizer. Used to derive
/// statistically independent child seeds from `(seed, label)` pairs.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a label string, for seed derivation.
fn fnv1a(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A deterministic random stream with distribution samplers.
///
/// Wraps [`SmallRng`] (a fast, non-cryptographic PRNG — fine here: nothing in
/// the simulation is adversarial) and adds the derivation scheme plus the
/// samplers the models need.
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: SmallRng,
    seed: u64,
}

impl DetRng {
    /// Create the root stream for a master seed.
    pub fn new(seed: u64) -> Self {
        DetRng { inner: SmallRng::seed_from_u64(splitmix64(seed)), seed }
    }

    /// Derive an independent child stream from a stable string label.
    ///
    /// The child depends only on `(self.seed, label)`, not on how many draws
    /// the parent has made, so derivation order is irrelevant.
    pub fn derive(&self, label: &str) -> DetRng {
        let child_seed = splitmix64(self.seed ^ fnv1a(label).rotate_left(17));
        DetRng::new(child_seed)
    }

    /// Derive an independent child stream from a label and an index, for
    /// per-entity streams (`derive_indexed("home", 42)`).
    pub fn derive_indexed(&self, label: &str, index: u64) -> DetRng {
        let child_seed =
            splitmix64(self.seed ^ fnv1a(label).rotate_left(17) ^ splitmix64(index.wrapping_add(1)));
        DetRng::new(child_seed)
    }

    /// The seed this stream was created with (after mixing).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Uniform draw in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform draw in `[lo, hi)`. Requires `lo <= hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[lo, hi)`. Requires `lo < hi`.
    pub fn uniform_int(&mut self, lo: u64, hi: u64) -> u64 {
        self.inner.gen_range(lo..hi)
    }

    /// Uniform integer in `[0, n)`; convenient for indexing.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index over empty range");
        self.inner.gen_range(0..n)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Exponential with the given mean (`mean > 0`), via inversion.
    pub fn exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // 1 - U avoids ln(0).
        -mean * (1.0 - self.uniform()).ln()
    }

    /// Pareto (Lomax-free, classic form) with scale `x_min > 0` and shape
    /// `alpha > 0`. Heavy-tailed: used for flow sizes.
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        debug_assert!(x_min > 0.0 && alpha > 0.0);
        x_min / (1.0 - self.uniform()).powf(1.0 / alpha)
    }

    /// Standard normal via Box–Muller.
    pub fn std_normal(&mut self) -> f64 {
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.std_normal()
    }

    /// Log-normal parameterized by the *underlying* normal's `mu`/`sigma`.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Poisson with mean `lambda >= 0`. Knuth's product method for small
    /// `lambda`, normal approximation (rounded, clamped at 0) for large.
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        if lambda <= 0.0 {
            return 0;
        }
        if lambda > 30.0 {
            let x = self.normal(lambda, lambda.sqrt());
            return x.round().max(0.0) as u64;
        }
        let limit = (-lambda).exp();
        let mut product = self.uniform();
        let mut count = 0u64;
        while product > limit {
            product *= self.uniform();
            count += 1;
        }
        count
    }

    /// Zipf-distributed rank in `[0, n)` with exponent `s > 0`, via
    /// inversion over the precomputed CDF in [`ZipfTable`]. Prefer building
    /// a [`ZipfTable`] once when sampling repeatedly.
    pub fn zipf(&mut self, table: &ZipfTable) -> usize {
        table.sample(self)
    }

    /// Choose an index according to non-negative `weights`. Requires a
    /// positive total weight.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        self.weighted_index_by(weights, |w| *w)
    }

    /// [`DetRng::weighted_index`] over `weight(item)` for each of `items`,
    /// without collecting the weights first. Draws exactly as
    /// `weighted_index` on the collected weights would.
    pub fn weighted_index_by<T>(&mut self, items: &[T], weight: impl Fn(&T) -> f64) -> usize {
        let total: f64 = items.iter().map(&weight).sum();
        assert!(total > 0.0, "weighted_index requires positive total weight");
        let mut target = self.uniform() * total;
        for (i, item) in items.iter().enumerate() {
            let w = weight(item);
            if target < w {
                return i;
            }
            target -= w;
        }
        items.len() - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// Raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

/// Precomputed CDF for Zipf sampling over `n` ranks with exponent `s`.
#[derive(Debug, Clone)]
pub struct ZipfTable {
    cdf: Vec<f64>,
}

impl ZipfTable {
    /// Build the table. `n` must be positive; `s` may be any positive
    /// exponent (1.0 is the classic Zipf).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "ZipfTable over empty support");
        assert!(s > 0.0, "Zipf exponent must be positive");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        ZipfTable { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the support is a single rank.
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Probability mass of rank `i` (0-based).
    pub fn pmf(&self, i: usize) -> f64 {
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }

    fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.uniform();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_differ() {
        let root = DetRng::new(7);
        let mut a = root.derive("homes");
        let mut b = root.derive("outages");
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same <= 1, "derived streams should be independent");
    }

    #[test]
    fn derivation_is_order_independent() {
        let root = DetRng::new(99);
        let mut a1 = root.derive("a");
        let _b = root.derive("b");
        let mut a2 = root.derive("a");
        assert_eq!(a1.next_u64(), a2.next_u64());
    }

    #[test]
    fn indexed_derivation_distinct() {
        let root = DetRng::new(5);
        let mut h0 = root.derive_indexed("home", 0);
        let mut h1 = root.derive_indexed("home", 1);
        assert_ne!(h0.next_u64(), h1.next_u64());
    }

    #[test]
    fn exp_mean_close() {
        let mut rng = DetRng::new(11);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| rng.exp(5.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "exp mean {mean}");
    }

    #[test]
    fn normal_moments_close() {
        let mut rng = DetRng::new(12);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "normal mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "normal var {var}");
    }

    #[test]
    fn poisson_mean_close_small_and_large() {
        let mut rng = DetRng::new(13);
        for lambda in [0.5, 4.0, 80.0] {
            let n = 20_000;
            let sum: u64 = (0..n).map(|_| rng.poisson(lambda)).sum();
            let mean = sum as f64 / n as f64;
            assert!((mean - lambda).abs() < lambda.max(1.0) * 0.07, "poisson {lambda} mean {mean}");
        }
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn pareto_respects_minimum() {
        let mut rng = DetRng::new(14);
        for _ in 0..1_000 {
            assert!(rng.pareto(2.0, 1.3) >= 2.0);
        }
    }

    #[test]
    fn zipf_head_heavier_than_tail() {
        let table = ZipfTable::new(100, 1.0);
        let mut rng = DetRng::new(15);
        let mut counts = [0u32; 100];
        for _ in 0..50_000 {
            counts[rng.zipf(&table)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[59]);
        // Rank-0 mass should be close to its analytic pmf.
        let p0 = table.pmf(0);
        let observed = counts[0] as f64 / 50_000.0;
        assert!((observed - p0).abs() < 0.02, "zipf p0 {observed} vs {p0}");
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let table = ZipfTable::new(37, 0.8);
        let total: f64 = (0..table.len()).map(|i| table.pmf(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_index_follows_weights() {
        let mut rng = DetRng::new(16);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0u32; 3];
        for _ in 0..20_000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn weighted_index_by_draws_like_weighted_index() {
        let items = [("a", 0.34), ("b", 0.26), ("c", 0.0), ("d", 0.4)];
        let weights: Vec<f64> = items.iter().map(|(_, w)| *w).collect();
        let mut a = DetRng::new(19);
        let mut b = DetRng::new(19);
        for _ in 0..1_000 {
            assert_eq!(a.weighted_index(&weights), b.weighted_index_by(&items, |&(_, w)| w));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::new(17);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DetRng::new(18);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
