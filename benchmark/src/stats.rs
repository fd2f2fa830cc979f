//! Exact order statistics over the generator's stored samples.

/// One group of verified replies that share a latency: the replies of
/// one request window that one `read()` returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// From the window's `write()` to the `read()` that returned the
    /// replies.
    pub lat_ns: u64,
    /// Replies in the group.
    pub n: u32,
    /// Which slice of the measured window the read fell in.
    pub slice: u32,
}

/// Exact nearest-rank percentile of weighted samples sorted by latency:
/// the smallest latency with at least `ceil(q * N)` replies at or
/// below it. `None` for no replies.
pub fn percentile_ns(sorted: &[Sample], q: f64) -> Option<u64> {
    let total: u64 = sorted.iter().map(|s| u64::from(s.n)).sum();
    if total == 0 {
        return None;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for s in sorted {
        seen += u64::from(s.n);
        if seen >= rank {
            return Some(s.lat_ns);
        }
    }
    sorted.last().map(|s| s.lat_ns)
}

/// Median as Python's `statistics.median` gives it (mean of the two
/// middle values for an even count). `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(lat_ns: u64, n: u32) -> Sample {
        Sample {
            lat_ns,
            n,
            slice: 0,
        }
    }

    #[test]
    fn percentile_is_exact_nearest_rank_on_known_samples() {
        // 1..=100, one reply each: pXX is XX exactly.
        let mut v: Vec<Sample> = (1..=100).rev().map(|i| s(i, 1)).collect();
        v.sort_unstable_by_key(|s| s.lat_ns);
        assert_eq!(percentile_ns(&v, 0.50), Some(50));
        assert_eq!(percentile_ns(&v, 0.99), Some(99));
        assert_eq!(percentile_ns(&v, 0.999), Some(100));
        assert_eq!(percentile_ns(&v, 0.0), Some(1));
        assert_eq!(percentile_ns(&v, 1.0), Some(100));
    }

    #[test]
    fn percentile_weights_groups_by_their_reply_count() {
        // 98 replies at 10 ns, 2 at 500 ns: p98 is still 10, p99 is 500.
        let mut v = vec![s(500, 2), s(10, 98)];
        v.sort_unstable_by_key(|s| s.lat_ns);
        assert_eq!(percentile_ns(&v, 0.50), Some(10));
        assert_eq!(percentile_ns(&v, 0.98), Some(10));
        assert_eq!(percentile_ns(&v, 0.99), Some(500));
        assert_eq!(percentile_ns(&[], 0.5), None);
    }

    #[test]
    fn median_matches_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
