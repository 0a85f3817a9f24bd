//! Order statistics, the Zipf request sampler and the output digest.

use rand::rngs::StdRng;
use rand::Rng;

/// The nearest-rank percentile of an ascending slice: the smallest element
/// with at least `p` percent of the sample at or below it.  Always an
/// element of the sample, never an interpolation.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The nearest-rank median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// The arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A Zipf distribution over ranks `0..n`: rank `k` has weight `1/(k+1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0, "Zipf over an empty population");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(exponent);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// 64-bit FNV-1a, used to digest simulation outputs bit for bit.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    pub fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn percentiles_are_order_statistics() {
        let mut sample: Vec<f64> = (0..1000).map(|i| ((i * 7919) % 1000) as f64).collect();
        sample.sort_by(f64::total_cmp);
        for p in [1.0, 50.0, 90.0, 99.0, 100.0] {
            let v = percentile(&sample, p);
            assert!(sample.contains(&v), "p{p} = {v} is not a sample element");
            let at_or_below = sample.iter().filter(|&&x| x <= v).count();
            assert!(at_or_below as f64 >= p / 100.0 * 1000.0, "p{p}");
            let below = sample.iter().filter(|&&x| x < v).count();
            assert!((below as f64) < p / 100.0 * 1000.0, "p{p}");
        }
        assert_eq!(percentile(&sample, 99.0), 989.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn zipf_sampler_is_deterministic_and_skewed() {
        let zipf = Zipf::new(32, 1.1);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..5000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(9);
        assert_eq!(a, draw(9), "same seed, same request sequence");
        assert_ne!(a, draw(10), "another seed, another sequence");
        assert!(a.iter().all(|&k| k < 32));
        let mut counts = [0usize; 32];
        for &k in &a {
            counts[k] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[7] && counts[7] > counts[31]);
        assert!(
            counts.iter().all(|&c| c > 0),
            "every population member occurs"
        );
    }

    #[test]
    fn digest_sees_every_bit() {
        let digest = |x: f64| {
            let mut d = Digest::new();
            d.f64(x);
            d.finish()
        };
        assert_eq!(digest(0.5), digest(0.5));
        assert_ne!(digest(0.5), digest(f64::from_bits(0.5f64.to_bits() + 1)));
    }
}
