//! Lock-free log-scaled latency histogram (service-level metrics).
//!
//! The paper reports lock-level fairness; a *service* built on
//! Malthusian admission (the `malthus-pool` work crew, the KV front
//! end) additionally needs request-latency quantiles — restriction
//! trades tail latency of the passivated minority for throughput of
//! the active set, and p50/p99 is where that trade shows up.
//!
//! [`LatencyHistogram`] is an HDR-style histogram: power-of-two major
//! buckets with 16 linear sub-buckets each, so any recorded duration
//! lands in a bucket whose floor is within ~6% of the true value.
//! Recording is a single relaxed `fetch_add` on an atomic bucket, so
//! worker threads and load-generator connections can share one
//! histogram without a lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sub-bucket resolution: 16 linear steps per power of two (~6%
/// worst-case quantization error on bucket floors).
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;
/// Values below `SUB` get exact unit buckets; above, `(msb - SUB_BITS)`
/// majors of `SUB` sub-buckets each cover the rest of the `u64` range.
const BUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * SUB) as usize;

/// A concurrent histogram of durations with ~6% value resolution.
///
/// # Examples
///
/// ```
/// use malthus_metrics::LatencyHistogram;
/// use std::time::Duration;
///
/// let h = LatencyHistogram::new();
/// for ms in 1..=100 {
///     h.record(Duration::from_millis(ms));
/// }
/// assert_eq!(h.count(), 100);
/// let p50 = h.quantile(0.50).as_millis();
/// assert!((45..=55).contains(&p50), "p50 = {p50} ms");
/// ```
pub struct LatencyHistogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
}

/// Maps a nanosecond value to its bucket index.
fn bucket_index(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize;
    }
    let msb = 63 - ns.leading_zeros() as u64; // >= SUB_BITS
    let sub = (ns >> (msb - SUB_BITS as u64)) & (SUB - 1);
    (SUB + (msb - SUB_BITS as u64) * SUB + sub) as usize
}

/// The smallest nanosecond value mapping to `index` (bucket floor).
fn bucket_floor(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB {
        return index;
    }
    let major = (index - SUB) / SUB + SUB_BITS as u64;
    let sub = (index - SUB) % SUB;
    (1 << major) | (sub << (major - SUB_BITS as u64))
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        // `AtomicU64` is not `Copy`; build the boxed array from a
        // zeroed Vec instead of a stack array literal.
        let v: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets = v
            .into_boxed_slice()
            .try_into()
            .unwrap_or_else(|_| unreachable!("vec has BUCKETS elements"));
        LatencyHistogram {
            buckets,
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, d: Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one observation given in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of recorded values, resolved
    /// to its bucket floor (within ~6% below the true value).
    ///
    /// Returns [`Duration::ZERO`] for an empty histogram. Concurrent
    /// recording makes the answer a racy snapshot, same contract as
    /// the lock statistics counters.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `[0.0, 1.0]`.
    pub fn quantile(&self, q: f64) -> Duration {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let total = self.count();
        if total == 0 {
            return Duration::ZERO;
        }
        // Rank of the target observation, 1-based, clamped to total.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Duration::from_nanos(bucket_floor(i));
            }
        }
        // Counts raced upward mid-scan; the tail bucket is the best
        // answer available.
        Duration::from_nanos(bucket_floor(BUCKETS - 1))
    }

    /// Convenience: `(p50, p99)` in one call.
    pub fn p50_p99(&self) -> (Duration, Duration) {
        (self.quantile(0.50), self.quantile(0.99))
    }

    /// Folds `other`'s observations into `self`, bucket by bucket.
    ///
    /// This is what makes per-partition histograms (per shard, per
    /// op type, per connection) composable into service-wide numbers:
    /// buckets are exact counters, so merging loses nothing — unlike
    /// merging quantiles, which is not meaningful. `other` is
    /// unchanged. Concurrent recording into either histogram during
    /// the merge makes the result a racy snapshot (same contract as
    /// [`LatencyHistogram::quantile`]).
    pub fn merge(&self, other: &LatencyHistogram) {
        let mut total = 0u64;
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
                total += n;
            }
        }
        // Derive the count from the buckets actually copied, not from
        // other.count: a racing record could otherwise leave count
        // ahead of the bucket sum forever.
        self.count.fetch_add(total, Ordering::Relaxed);
    }

    /// Copies the current bucket counts into an immutable
    /// [`HistogramSnapshot`].
    ///
    /// The total is derived from the copied buckets (not the `count`
    /// field), so a snapshot is always internally consistent even when
    /// recording races with the copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = vec![0u64; BUCKETS].into_boxed_slice();
        let mut total = 0u64;
        for (dst, src) in counts.iter_mut().zip(self.buckets.iter()) {
            let n = src.load(Ordering::Relaxed);
            *dst = n;
            total += n;
        }
        HistogramSnapshot { counts, total }
    }

    /// Bucket-wise difference `later - earlier` of two snapshots —
    /// the observations recorded during the interval between them.
    ///
    /// Equivalent to [`HistogramSnapshot::delta`]; provided on the
    /// histogram type so interval-rate consumers (`kvtop`) find it
    /// next to [`LatencyHistogram::snapshot`].
    pub fn snapshot_delta(
        later: &HistogramSnapshot,
        earlier: &HistogramSnapshot,
    ) -> HistogramSnapshot {
        later.delta(earlier)
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// An immutable point-in-time copy of a [`LatencyHistogram`].
///
/// Snapshots make two things possible that the live histogram cannot
/// offer: a *consistent* read (quantile scans over the live atomics
/// race with recorders) and *interval* statistics — two snapshots
/// taken a poll apart, diffed with [`HistogramSnapshot::delta`], give
/// the distribution of just that interval instead of the process
/// lifetime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Box<[u64]>,
    total: u64,
}

impl HistogramSnapshot {
    /// An all-zero snapshot (what [`LatencyHistogram::snapshot`] of an
    /// empty histogram returns).
    pub fn empty() -> Self {
        HistogramSnapshot {
            counts: vec![0u64; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }

    /// Number of observations in the snapshot.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Bucket-wise difference `self - earlier`.
    ///
    /// Buckets where `earlier` exceeds `self` (the source histogram
    /// was replaced or wrapped between the two snapshots) saturate to
    /// zero rather than underflowing, so a stale baseline degrades to
    /// an undercount instead of garbage quantiles.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut counts = vec![0u64; BUCKETS].into_boxed_slice();
        let mut total = 0u64;
        for (i, dst) in counts.iter_mut().enumerate() {
            let n = self.counts[i].saturating_sub(earlier.counts[i]);
            *dst = n;
            total += n;
        }
        HistogramSnapshot { counts, total }
    }

    /// The `q`-quantile of the snapshot, resolved to its bucket floor
    /// (same contract as [`LatencyHistogram::quantile`]).
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `[0.0, 1.0]`.
    pub fn quantile(&self, q: f64) -> Duration {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.total == 0 {
            return Duration::ZERO;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Duration::from_nanos(bucket_floor(i));
            }
        }
        unreachable!("total is the exact bucket sum")
    }

    /// Convenience: `(p50, p99)` in one call.
    pub fn p50_p99(&self) -> (Duration, Duration) {
        (self.quantile(0.50), self.quantile(0.99))
    }

    /// Iterates every bucket, empty ones included, as
    /// `(upper_bound_ns, count)` pairs in increasing bound order — the
    /// same fixed bounds for every snapshot, so a rendering of them
    /// names the same series whatever was recorded.
    ///
    /// The bound is the *exclusive* upper edge of the bucket (the next
    /// bucket's floor), which is what a Prometheus `le` label wants to
    /// within one bucket quantum. The final bucket reports
    /// `u64::MAX`.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().enumerate().map(|(i, &n)| {
            let bound = if i + 1 < BUCKETS {
                bucket_floor(i + 1)
            } else {
                u64::MAX
            };
            (bound, n)
        })
    }

    /// [`HistogramSnapshot::buckets`] without the empty ones.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets().filter(|&(_, n)| n > 0)
    }

    /// Approximate sum of all observations in nanoseconds, computed
    /// from bucket floors (so it underestimates by at most ~6%).
    pub fn approx_sum_ns(&self) -> u64 {
        let mut sum = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            sum = sum.saturating_add(bucket_floor(i).saturating_mul(n));
        }
        sum
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count())
            .field("p50", &self.quantile(0.5))
            .field("p99", &self.quantile(0.99))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_round_trip_is_tight() {
        for ns in [0u64, 1, 15, 16, 17, 100, 1_000, 123_456, u64::MAX / 2] {
            let idx = bucket_index(ns);
            let floor = bucket_floor(idx);
            assert!(floor <= ns, "floor {floor} > value {ns}");
            // Floor within one sub-bucket (1/16 of the major) below.
            assert!(
                ns - floor <= (ns >> SUB_BITS),
                "value {ns} floor {floor} too coarse"
            );
            // Floors map back to their own bucket.
            assert_eq!(bucket_index(floor), idx);
        }
    }

    #[test]
    fn bucket_indices_are_monotonic_and_in_range() {
        let mut last = 0usize;
        for shift in 0..64 {
            let ns = 1u64 << shift;
            let idx = bucket_index(ns);
            assert!(idx >= last);
            assert!(idx < BUCKETS);
            last = idx;
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let h = LatencyHistogram::new();
        for us in 1..=10_000u64 {
            h.record_ns(us * 1_000);
        }
        let p50 = h.quantile(0.5).as_nanos() as f64;
        let p99 = h.quantile(0.99).as_nanos() as f64;
        assert!(
            (4.4e6..=5.1e6).contains(&p50),
            "p50 = {p50} (expected ~5 ms)"
        );
        assert!(
            (9.2e6..=10.0e6).contains(&p99),
            "p99 = {p99} (expected ~9.9 ms)"
        );
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), Duration::ZERO);
    }

    #[test]
    fn extremes_of_q() {
        let h = LatencyHistogram::new();
        h.record_ns(10);
        h.record_ns(1_000_000);
        assert_eq!(h.quantile(0.0).as_nanos(), 10);
        assert!(h.quantile(1.0).as_nanos() >= 900_000);
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn out_of_range_q_panics() {
        LatencyHistogram::new().quantile(1.5);
    }

    #[test]
    fn merge_is_exact_on_quiescent_histograms() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        for us in 1..=1_000u64 {
            a.record_ns(us * 1_000); // 1..=1000 µs ramp
        }
        for ms in 1..=1_000u64 {
            b.record_ns(ms * 1_000_000); // 1..=1000 ms ramp
        }
        let a_p50 = a.quantile(0.5);
        a.merge(&b);
        assert_eq!(a.count(), 2_000);
        // b is untouched.
        assert_eq!(b.count(), 1_000);
        // The merged median sits at the boundary between the two
        // ramps (p50 ≈ the top of the fast ramp).
        let merged_p50 = a.quantile(0.5).as_nanos();
        assert!(merged_p50 >= a_p50.as_nanos(), "median must move up");
        assert!(
            (900_000..=1_100_000).contains(&merged_p50),
            "merged p50 = {merged_p50} ns (expected ~1 ms boundary)"
        );
        // The merged p99 comes from the slow ramp.
        assert!(a.quantile(0.99).as_millis() >= 900);
    }

    #[test]
    fn merge_of_empty_is_identity() {
        let a = LatencyHistogram::new();
        a.record_ns(500);
        let before = a.quantile(1.0);
        a.merge(&LatencyHistogram::new());
        assert_eq!(a.count(), 1);
        assert_eq!(a.quantile(1.0), before);
        // Merging into an empty histogram copies everything.
        let c = LatencyHistogram::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
        assert_eq!(c.quantile(1.0), before);
    }

    #[test]
    fn merge_aggregates_many_partitions() {
        // The service shape: one histogram per shard, merged into the
        // service-wide number.
        let shards: Vec<LatencyHistogram> = (0..4).map(|_| LatencyHistogram::new()).collect();
        for (i, h) in shards.iter().enumerate() {
            for n in 0..100u64 {
                h.record_ns((i as u64 + 1) * 10_000 + n);
            }
        }
        let total = LatencyHistogram::new();
        for h in &shards {
            total.merge(h);
        }
        assert_eq!(total.count(), 400);
        assert!(total.quantile(0.0).as_nanos() >= 9_000);
        // Max recorded value is 40_099 ns; allow the ~6% bucket-floor
        // quantization.
        assert!(total.quantile(1.0).as_nanos() >= 38_000);
    }

    #[test]
    fn snapshot_matches_live_quantiles() {
        let h = LatencyHistogram::new();
        for us in 1..=1_000u64 {
            h.record_ns(us * 1_000);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 1_000);
        assert_eq!(snap.quantile(0.5), h.quantile(0.5));
        assert_eq!(snap.p50_p99(), h.p50_p99());
    }

    #[test]
    fn snapshot_delta_isolates_the_interval() {
        let h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record_ns(1_000); // fast lifetime prefix
        }
        let before = h.snapshot();
        for _ in 0..10 {
            h.record_ns(1_000_000); // slow interval
        }
        let after = h.snapshot();
        let interval = LatencyHistogram::snapshot_delta(&after, &before);
        assert_eq!(interval.count(), 10);
        // The interval median is the slow value, even though the
        // lifetime median is still the fast one.
        assert!(interval.quantile(0.5).as_nanos() >= 900_000);
        assert!(after.quantile(0.5).as_nanos() < 2_000);
    }

    #[test]
    fn snapshot_delta_of_empty_interval_is_empty() {
        let h = LatencyHistogram::new();
        h.record_ns(42);
        let a = h.snapshot();
        let b = h.snapshot();
        let interval = b.delta(&a);
        assert_eq!(interval.count(), 0);
        assert_eq!(interval.quantile(0.99), Duration::ZERO);
        assert_eq!(interval, HistogramSnapshot::empty());
    }

    #[test]
    fn snapshot_delta_saturates_on_wraparound() {
        // A later snapshot from a *replaced* histogram (fewer counts
        // than the baseline) must not underflow: the delta saturates
        // to zero per bucket.
        let old = LatencyHistogram::new();
        for _ in 0..50 {
            old.record_ns(500);
        }
        let baseline = old.snapshot();
        let replaced = LatencyHistogram::new();
        replaced.record_ns(500);
        replaced.record_ns(9_999);
        let interval = replaced.snapshot().delta(&baseline);
        // The 500 ns bucket saturates (1 - 50 -> 0); the fresh 9_999 ns
        // observation survives.
        assert_eq!(interval.count(), 1);
        assert!(interval.quantile(1.0).as_nanos() >= 9_000);
    }

    #[test]
    fn snapshot_buckets_and_sum_are_consistent() {
        let h = LatencyHistogram::new();
        h.record_ns(10);
        h.record_ns(10);
        h.record_ns(1_000_000);
        let snap = h.snapshot();
        let buckets: Vec<(u64, u64)> = snap.nonzero_buckets().collect();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].1, 2);
        assert_eq!(buckets[1].1, 1);
        // Bounds increase and exceed the recorded values' floors.
        assert!(buckets[0].0 > 10 && buckets[1].0 > buckets[0].0);
        let sum = snap.approx_sum_ns();
        assert!((900_000..=1_000_100).contains(&sum), "sum = {sum}");
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record_ns(t * 1_000 + i);
                    }
                })
            })
            .collect();
        for x in handles {
            x.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
    }
}
