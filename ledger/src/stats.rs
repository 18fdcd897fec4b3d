//! Measurement arithmetic shared by every workload: the seeded generator,
//! the percentile rule, quartiles, histogram deltas and the output digest.

use bolt_obs::HistogramSnapshot;

/// SplitMix64: a small seeded generator, so the request streams depend on
/// the seed alone and not on any crate's stream layout.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// An independent stream for one purpose (a generator thread, a
    /// sample picker) derived from a seed and a label.
    pub fn derive(seed: u64, label: &str) -> Rng {
        Rng::new(seed ^ fnv64(label.as_bytes()).rotate_left(17))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf-distributed ranks over `0..n` with exponent `s`, drawn by
/// inverting the cumulative weights.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The highest percentile (of 50, 90, 99, 99.9, 99.99) that has at least
/// ten samples beyond its nearest-rank value in a sample of `n`; `None`
/// when even the median has fewer than ten samples above it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [9999usize, 9990, 9900, 9000, 5000]
        .into_iter()
        .find(|bp| n - (n * bp).div_ceil(10_000) >= 10)
        .map(|bp| bp as f64 / 100.0)
}

/// Nearest-rank percentile `p` (0–100) of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// the spreads printed here match the ones a reader recomputes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let q = |i: usize| {
        // statistics.quantiles: m = n + 1; j = i*m // 4; delta = i*m - j*4.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// What one latency histogram gained between two snapshots.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistDelta {
    pub count: u64,
    pub sum_ns: u64,
}

impl HistDelta {
    pub fn between(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistDelta {
        HistDelta {
            count: after.count.saturating_sub(before.count),
            sum_ns: after.sum.saturating_sub(before.sum),
        }
    }

    pub fn add(&mut self, other: HistDelta) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    /// Mean of the recorded values in microseconds (0 when none).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// FNV-1a over bytes: the digest the committed output fingerprints use.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// `part / whole`, 0 when nothing happened.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        for n in [20usize, 150, 1000, 5000, 123_456] {
            let p = tail_percentile(n).unwrap();
            let v: Vec<f64> = (1..=n).map(|x| x as f64).collect();
            let at = percentile_sorted(&v, p);
            assert!(v.iter().filter(|&&x| x > at).count() >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 500.0);
        assert_eq!(percentile_sorted(&v, 99.0), 990.0);
        assert_eq!(percentile_sorted(&v, 100.0), 1000.0);
        // Exactly ten samples lie beyond the p99 of 1000.
        assert_eq!(v.iter().filter(|&&x| x > 990.0).count(), 10);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0]), (1.25, 3.0, 7.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn histogram_deltas_read_sum_and_count() {
        let h = std::sync::Arc::new(bolt_obs::Histogram::new());
        h.record(1_000);
        let before = h.snapshot();
        h.record(3_000);
        h.record(5_000);
        let d = HistDelta::between(&before, &h.snapshot());
        assert_eq!(
            d,
            HistDelta {
                count: 2,
                sum_ns: 8_000
            }
        );
        assert_eq!(d.mean_us(), 4.0);
        assert_eq!(HistDelta::default().mean_us(), 0.0);
    }

    #[test]
    fn generator_streams_repeat_per_seed() {
        let draw = |seed| {
            let mut r = Rng::derive(seed, "gen-0");
            (0..64).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut a = Rng::derive(7, "gen-0");
        let mut b = Rng::derive(7, "gen-1");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(64, 1.0);
        let mut rng = Rng::new(1);
        let mut counts = [0u32; 64];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10]);
        assert!(counts.iter().all(|&c| c > 0), "every rank is drawn");
    }
}
