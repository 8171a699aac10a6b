//! Deterministic input generation: every key an analysis session asks
//! for comes from here, derived only from the run's seed, the round and
//! the session index, so the same seed replays the same operations.

/// splitmix64: a small, well-mixed generator; good enough to drive key
/// choice and cheap enough to stay out of the measurement.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream of one seed (`stream` separates the
    /// rounds and sessions of a run).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Zipf distribution over ranks `0..n` (rank 0 hottest, probability of
/// rank `r` proportional to `1 / (r + 1)^theta`), sampled by binary
/// search over the cumulative weights.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n > 0, "zipf over an empty domain");
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .into_iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// One rank in `0..n`.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.next_f64();
        let rank = self.cdf.partition_point(|&c| c <= u);
        rank.min(self.cdf.len() - 1) as u64
    }
}

/// A contiguous scan of `len` steps inside `lo..=hi`, starting at a
/// random offset: ascending from the low end of the window when
/// `forward`, descending from the high end otherwise.
pub fn scan_keys(rng: &mut Rng, lo: u64, hi: u64, len: u64, forward: bool) -> Vec<u64> {
    assert!(
        len >= 1 && hi - lo + 1 >= len,
        "scan longer than its window"
    );
    let first = rng.range(lo, hi + 1 - len);
    let keys = first..first + len;
    if forward {
        keys.collect()
    } else {
        keys.rev().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..8)
            .scan(Rng::new(7, 3), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .scan(Rng::new(7, 3), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..8)
            .scan(Rng::new(7, 4), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_matches_its_distribution() {
        let (n, theta, draws) = (64u64, 0.99, 200_000usize);
        let zipf = Zipf::new(n, theta);
        let mut rng = Rng::new(1, 0);
        let mut counts = vec![0usize; n as usize];
        for _ in 0..draws {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        let norm: f64 = (1..=n).map(|r| 1.0 / (r as f64).powf(theta)).sum();
        for rank in [0usize, 1, 7, 63] {
            let expected = draws as f64 / ((rank + 1) as f64).powf(theta) / norm;
            let got = counts[rank] as f64;
            // Five standard deviations of a binomial count.
            let sd = expected.sqrt();
            assert!(
                (got - expected).abs() < 5.0 * sd,
                "rank {rank}: {got} draws, expected {expected:.0}"
            );
        }
        assert!(
            counts.windows(2).take(8).all(|w| w[0] > w[1]),
            "head not decreasing"
        );
    }

    #[test]
    fn zipf_stays_in_range() {
        let zipf = Zipf::new(5, 0.99);
        let mut rng = Rng::new(9, 9);
        assert!((0..10_000).all(|_| zipf.sample(&mut rng) < 5));
    }

    #[test]
    fn scans_stay_in_their_window() {
        let mut rng = Rng::new(3, 1);
        for _ in 0..100 {
            let fwd = scan_keys(&mut rng, 1, 100, 30, true);
            assert_eq!(fwd.len(), 30);
            assert!(fwd.windows(2).all(|w| w[1] == w[0] + 1));
            assert!(fwd[0] >= 1 && fwd[29] <= 100);
            let back = scan_keys(&mut rng, 101, 200, 100, false);
            assert_eq!((back[0], back[99]), (200, 101));
        }
    }
}
