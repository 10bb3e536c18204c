//! Order statistics, the FNV digest the goldens use, and the process's
//! peak resident set.

/// FNV-1a (64-bit) running digest: the one hash every golden uses.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one `u64` (little-endian bytes) into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; NaN when
/// empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Mean of the slowest `100 - p` percent of samples (at least one): a
/// tail that averages over the tail instead of reading one rank, so it
/// does not jump when a rank falls between two clusters of operations.
/// NaN when empty.
pub fn tail_mean(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| b.total_cmp(a));
    let k = ((100.0 - p) / 100.0 * v.len() as f64).ceil().max(1.0) as usize;
    let top = &v[..k.min(v.len())];
    top.iter().sum::<f64>() / top.len() as f64
}

/// `[Q1, median, Q3]` with the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads computed here match
/// the ones an outside script computes from the same run files. With one
/// sample every quartile is that sample; NaN when empty.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => return [f64::NAN; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let n = v.len() as i64;
    let q = |i: i64| {
        // Python's integer arithmetic, including its clamp of j to
        // 1..=n-1 (which extrapolates for very small samples).
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = i * (n + 1) - j * 4;
        let j = j as usize;
        (v[j - 1] * (4 - delta) as f64 + v[j] * delta as f64) / 4.0
    };
    [q(1), q(2), q(3)]
}

/// Peak resident set size of this process (`VmHWM`) in MB, or NaN when
/// `/proc` is unavailable.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert!(quartiles(&[]).iter().all(|q| q.is_nan()));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[4.0], 90.0), 4.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn tail_means_average_the_slowest_share() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_mean(&v, 90.0), 95.5);
        assert_eq!(tail_mean(&v, 99.0), 100.0);
        assert_eq!(tail_mean(&[1.0, 2.0, 9.0], 90.0), 9.0);
        assert!(tail_mean(&[], 90.0).is_nan());
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        // FNV-1a 64 of "a" is 0xaf63dc4c8601ec8c.
        let mut h = Fnv::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn rss_is_positive_on_linux() {
        assert!(rss_peak_mb() > 0.0);
    }
}
