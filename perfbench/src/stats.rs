//! Order statistics and hashing helpers shared by every workload.

/// Linear-interpolation percentile (the "inclusive" R-7 definition
/// numpy uses by default) of `samples`, with `p` in `0.0..=100.0`.
/// Returns NaN for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of `samples` (NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A 64-bit FNV-1a hasher, used for digests of deterministic outputs,
/// roster hashes and source hashes.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a string followed by a separator, so `("ab","c")` and
    /// `("a","bc")` hash differently.
    pub fn field(&mut self, text: &str) {
        self.write(text.as_bytes());
        self.write(&[0x1f]);
    }

    /// The hash as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_samples() {
        let s = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&s), 3.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert_eq!(percentile(&s, 25.0), 2.0);
        // Interpolates between ranks: 1..=10, p90 sits at rank 8.1.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((percentile(&ten, 90.0) - 9.1).abs() < 1e-12);
        assert!((median(&ten) - 5.5).abs() < 1e-12);
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }

    #[test]
    fn fnv_separates_fields() {
        let mut a = Fnv::default();
        a.field("ab");
        a.field("c");
        let mut b = Fnv::default();
        b.field("a");
        b.field("bc");
        assert_ne!(a.hex(), b.hex());
        assert_eq!(Fnv::default().hex(), "cbf29ce484222325");
    }
}
