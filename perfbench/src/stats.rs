//! Small numeric helpers: percentiles, peak memory, the input digest, and
//! the harmonic pick that skews seeded op sequences.

use rand::rngs::StdRng;
use rand::Rng;

/// Nearest-rank percentile of an ascending slice (`q` in `0.0..=1.0`);
/// `0` when empty.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or `0.0` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a (64-bit) over length-prefixed fields: two runs print the same
/// digest exactly when they generated the same inputs.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) {
        for byte in (b.len() as u64).to_le_bytes().iter().chain(b) {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Harmonic (Zipf, s = 1) pick of an index in `0..n` (`n > 0`): index
/// `i` is drawn with probability proportional to `1 / (i + 1)`, the skew
/// the service's `repeated-query` traffic uses for hot queries.
pub fn harmonic(n: usize, rng: &mut StdRng) -> usize {
    let total: f64 = (1..=n).map(|i| 1.0 / i as f64).sum();
    let mut roll = rng.random::<f64>() * total;
    for i in 0..n {
        roll -= 1.0 / (i + 1) as f64;
        if roll < 0.0 {
            return i;
        }
    }
    n - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.9), 90);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn harmonic_prefers_low_indices() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[harmonic(10, &mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[9]);
    }

    #[test]
    fn digest_separates_field_boundaries() {
        let mut a = Digest::default();
        a.str("ab");
        a.str("c");
        let mut b = Digest::default();
        b.str("a");
        b.str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
