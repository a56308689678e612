//! Seeded randomness, order statistics and the answer digest.
//!
//! The benchmark owns its generator (no dependency on the program's
//! `rand` stand-in) so that a change to the program can never reshuffle
//! the workload: the same `--seed` always yields the same statements.

/// SplitMix64: tiny, seedable, good enough to draw windows and ranks.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for `(seed, lane)`, e.g. one per client.
    pub fn lane(seed: u64, lane: u64) -> Rng {
        let mut r = Rng::new(seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf over ranks `0..n`: `P(r) ∝ 1 / (r + 1)^theta`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(theta);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank at quantile `u` in `[0, 1)`.
    pub fn at(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        self.at(rng.unit())
    }
}

/// Quantiles for stratified draws: the golden-ratio sequence
/// `u₀ + i·φ mod 1` from a seeded `u₀`. Any run of `n` consecutive
/// values is spread over `[0, 1)` almost evenly, so `n` draws through
/// [`Zipf::at`] hit every rank within a draw or two of `n·P(rank)` —
/// whatever the seed. Independent draws would make two runs differ by
/// which expensive tail items they happened to draw; these differ by
/// order only.
#[derive(Debug, Clone)]
pub struct Stratified(f64);

impl Stratified {
    pub fn new(rng: &mut Rng) -> Stratified {
        Stratified(rng.unit())
    }

    pub fn next_unit(&mut self) -> f64 {
        self.0 = (self.0 + 0.618_033_988_749_894_9) % 1.0;
        self.0
    }
}

/// Sorts the samples and returns the `p`-quantile (linear interpolation
/// between closest ranks). Panics on an empty sample: every caller
/// reports a metric that must exist.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are never NaN"));
    let pos = p * (samples.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// FNV-1a, 64 bit — the digest of an answer.
pub fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        // Part separator, so ("ab","c") and ("a","bc") differ.
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_and_zipf_are_deterministic_and_skewed() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert_eq!(a.next_u64(), b.next_u64());
        let z = Zipf::new(512, 0.9);
        let mut head = 0;
        for _ in 0..10_000 {
            let r = z.sample(&mut a);
            assert!(r < 512);
            head += usize::from(r < 32);
        }
        assert!(head > 4_000, "head of 32 draws {head} of 10000");
        // Stratified draws: the same counts (±2) whatever the seed.
        let counts = |seed| {
            let mut u = Stratified::new(&mut Rng::new(seed));
            let mut c = [0i64; 8];
            for _ in 0..1000 {
                let r = z.at(u.next_unit());
                if r < 8 {
                    c[r] += 1;
                }
            }
            c
        };
        let (c1, c2) = (counts(1), counts(2));
        assert_ne!(c1.iter().sum::<i64>(), 0);
        assert!(
            c1.iter().zip(&c2).all(|(a, b)| (a - b).abs() <= 2),
            "{c1:?} {c2:?}"
        );
    }

    #[test]
    fn percentiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(percentile(&mut v, 1.0), 4.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
    }
}
