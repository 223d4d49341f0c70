//! Order statistics and the seeded generator every workload draws from.

/// SplitMix64: a tiny, well-mixed generator, so the same `--seed`
/// always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so two
    /// workloads (or two uses inside one) never share a sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
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

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Linear-interpolated quantile of sorted `xs` at `q` in `[0, 1]`.
pub fn quantile_sorted(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(xs: &[f64]) -> f64 {
    quantile_sorted(&sorted(xs), 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The tail of a latency sample: the highest percentile that still has
/// at least ten samples beyond it, so the tail is never a single
/// outlier. Returns `(percentile, value)`; `None` below eleven samples.
///
/// Among `n` sorted samples, the one at index `n - 11` has exactly ten
/// above it; its percentile is the share of samples at or below it.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < 11 {
        return None;
    }
    let s = sorted(xs);
    let idx = s.len() - 11;
    let pct = 100.0 * (idx + 1) as f64 / s.len() as f64;
    Some((pct, s[idx]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (pct, v) = tail(&xs).expect("enough samples");
        assert_eq!(v, 90.0);
        assert!((pct - 90.0).abs() < 1e-9);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn tail_percentile_rises_with_sample_count() {
        let small: Vec<f64> = (0..20).map(f64::from).collect();
        let large: Vec<f64> = (0..1000).map(f64::from).collect();
        let (p_small, _) = tail(&small).expect("20 samples");
        let (p_large, v_large) = tail(&large).expect("1000 samples");
        assert!((p_small - 50.0).abs() < 1e-9);
        assert!((p_large - 99.0).abs() < 1e-9);
        assert_eq!(v_large, 989.0);
    }

    #[test]
    fn tail_needs_eleven_samples() {
        assert!(tail(&[1.0; 10]).is_none());
        assert_eq!(tail(&[2.0; 11]), Some((100.0 / 11.0, 2.0)));
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut rng = Rng::new(3, 0);
        let mut xs: Vec<f64> = (0..57).map(f64::from).collect();
        let before = tail(&xs);
        rng.shuffle(&mut xs);
        assert_eq!(tail(&xs), before);
    }

    #[test]
    fn rng_repeats_per_seed_and_differs_across_streams() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }
}
