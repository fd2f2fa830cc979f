//! Live sharded-KV contention with a tunable key-skew (the workload
//! behind `examples/sharded_kv.rs`).
//!
//! The sharded backend's claim is *graceful degradation under skew*:
//! when one shard goes hot, that shard's Malthusian lock pair culls
//! its own surplus threads while the remaining shards keep serving at
//! full speed — the single-lock design of §6.5 would instead collapse
//! the whole service onto one admission point. This module drives
//! real threads over a real [`ShardedKv`] with a **zipf-ish xorshift
//! key generator** ([`skewed_key`]): a uniform xorshift draw is
//! raised to a power, so density concentrates on the low keys (which
//! fibonacci-hash to one fixed shard set) without any table of zipf
//! weights — deterministic per seed, branch-free, cheap enough to not
//! perturb the measurement.
//!
//! With exponent 1 the stream is uniform (every shard equally hot);
//! at exponent 6 roughly half of all traffic lands on a handful of
//! keys. The report carries per-shard write counts so the hot shard
//! is visible, not just inferable.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use malthus_park::XorShift64;
use malthus_storage::ShardedKv;

/// Draws a zipf-ish key in `0..keys`: a uniform draw `u ∈ [0, 1)` is
/// mapped to `⌊keys · u^exponent⌋`.
///
/// Exponent 1 is uniform; larger exponents concentrate mass on the
/// low keys (density ∝ key^(1/e − 1)). At exponent 6 and a 10 000-key
/// space, key 0 alone draws ~21% of the stream and the ten lowest
/// keys together over a third — a serviceable stand-in for the hot
/// head of a zipfian access pattern, at the cost of one `powf`.
///
/// # Panics
///
/// Panics if `keys` is zero.
pub fn skewed_key(rng: &XorShift64, keys: u64, exponent: f64) -> u64 {
    assert!(keys > 0, "empty key space");
    let u = rng.next_u64() as f64 / (u64::MAX as f64 + 1.0);
    let k = (keys as f64 * u.powf(exponent)) as u64;
    k.min(keys - 1)
}

/// Geometry of one sharded-contention run.
#[derive(Debug, Clone, Copy)]
pub struct ShardedShape {
    /// Key-space size.
    pub keys: u64,
    /// Percentage of operations that are PUTs (0–100); the rest are
    /// GETs.
    pub put_pct: u32,
    /// Skew exponent for [`skewed_key`] (1.0 = uniform).
    pub skew_exponent: f64,
}

impl ShardedShape {
    /// A shape over `keys` keys with the given PUT percentage and
    /// skew.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is zero, `put_pct` exceeds 100, or the
    /// exponent is not at least 1.
    pub fn new(keys: u64, put_pct: u32, skew_exponent: f64) -> Self {
        assert!(keys > 0, "empty key space");
        assert!(put_pct <= 100, "fraction is a percentage");
        assert!(skew_exponent >= 1.0, "exponent below 1 skews upward");
        ShardedShape {
            keys,
            put_pct,
            skew_exponent,
        }
    }
}

/// Aggregate result of one [`run_sharded_loop`] interval.
#[derive(Debug, Clone, Default)]
pub struct ShardedReport {
    /// Completed GETs.
    pub reads: u64,
    /// Completed PUTs.
    pub writes: u64,
    /// Writes that landed on each shard during the interval (from the
    /// store's per-shard counters, start-to-end delta).
    pub per_shard_writes: Vec<u64>,
    /// GETs that found their key.
    pub hits: u64,
    /// Measured interval in seconds: `max(worker stop) − min(worker
    /// start)`, stamped inside the workers. On an oversubscribed host
    /// the coordinating thread's sleep can overshoot while workers
    /// keep completing ops, so throughput must be computed against
    /// this span, not the nominal interval (same reasoning as the
    /// livebench harness).
    pub elapsed_secs: f64,
}

impl ShardedReport {
    /// Total completed operations.
    pub fn ops(&self) -> u64 {
        self.reads + self.writes
    }

    /// The busiest shard's share of interval writes, `[0, 1]`
    /// (0 when no writes).
    pub fn hottest_write_share(&self) -> f64 {
        malthus_storage::hottest_share(&self.per_shard_writes)
    }
}

/// Runs `threads` real threads for `seconds` over `kv`, each thread
/// an independent xorshift stream (deterministic given `seed`)
/// drawing keys via [`skewed_key`] and flipping PUT/GET per
/// `shape.put_pct`.
pub fn run_sharded_loop(
    kv: Arc<ShardedKv>,
    threads: usize,
    seconds: f64,
    shape: ShardedShape,
    seed: u64,
) -> ShardedReport {
    let before: Vec<u64> = kv.stats().per_shard.iter().map(|s| s.writes).collect();
    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let writes = Arc::new(AtomicU64::new(0));
    let hits = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for t in 0..threads {
        let kv = Arc::clone(&kv);
        let stop = Arc::clone(&stop);
        let reads = Arc::clone(&reads);
        let writes = Arc::clone(&writes);
        let hits = Arc::clone(&hits);
        handles.push(std::thread::spawn(move || {
            let rng = XorShift64::new(seed ^ (0x5AAD_ED00 + t as u64));
            let (mut r, mut w, mut h) = (0u64, 0u64, 0u64);
            let started = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                let key = skewed_key(&rng, shape.keys, shape.skew_exponent);
                if rng.next_below(100) < shape.put_pct as u64 {
                    kv.put(key, key.wrapping_mul(31))
                        .expect("memory-only store cannot go read-only");
                    w += 1;
                } else {
                    if kv.get(key).is_some() {
                        h += 1;
                    }
                    r += 1;
                }
            }
            let stopped = Instant::now();
            reads.fetch_add(r, Ordering::Relaxed);
            writes.fetch_add(w, Ordering::Relaxed);
            hits.fetch_add(h, Ordering::Relaxed);
            (started, stopped)
        }));
    }
    std::thread::sleep(Duration::from_secs_f64(seconds));
    stop.store(true, Ordering::Relaxed);
    let stamps: Vec<(Instant, Instant)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let elapsed_secs = match (
        stamps.iter().map(|s| s.0).min(),
        stamps.iter().map(|s| s.1).max(),
    ) {
        (Some(first), Some(last)) => last.duration_since(first).as_secs_f64(),
        _ => 0.0,
    };
    let per_shard_writes = kv
        .stats()
        .per_shard
        .iter()
        .zip(&before)
        .map(|(s, &b)| s.writes.saturating_sub(b))
        .collect();
    ShardedReport {
        reads: reads.load(Ordering::SeqCst),
        writes: writes.load(Ordering::SeqCst),
        per_shard_writes,
        hits: hits.load(Ordering::SeqCst),
        elapsed_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponent_one_is_uniform_enough() {
        let rng = XorShift64::new(42);
        let keys = 1_000u64;
        let mut low = 0u64;
        let n = 100_000;
        for _ in 0..n {
            if skewed_key(&rng, keys, 1.0) < keys / 10 {
                low += 1;
            }
        }
        // The lowest decile should draw ~10% of a uniform stream.
        let share = low as f64 / n as f64;
        assert!((0.08..=0.12).contains(&share), "share = {share}");
    }

    #[test]
    fn high_exponent_concentrates_on_low_keys() {
        let rng = XorShift64::new(42);
        let keys = 1_000u64;
        let mut low = 0u64;
        let n = 100_000;
        for _ in 0..n {
            if skewed_key(&rng, keys, 6.0) < keys / 10 {
                low += 1;
            }
        }
        // Density x^(1/6 - 1): the lowest decile draws
        // (0.1)^(1/6) ≈ 68% of the stream.
        let share = low as f64 / n as f64;
        assert!(share > 0.55, "share = {share}");
    }

    #[test]
    fn keys_stay_in_range() {
        let rng = XorShift64::new(7);
        for e in [1.0, 2.0, 8.0] {
            for _ in 0..10_000 {
                assert!(skewed_key(&rng, 17, e) < 17);
            }
        }
        assert_eq!(skewed_key(&rng, 1, 4.0), 0);
    }

    #[test]
    fn uniform_loop_spreads_writes_across_shards() {
        let kv = Arc::new(ShardedKv::new(4, 1_024, 1_024));
        let report = run_sharded_loop(
            Arc::clone(&kv),
            2,
            0.2,
            ShardedShape::new(10_000, 100, 1.0),
            3,
        );
        assert!(report.writes > 0);
        assert_eq!(report.reads, 0, "put_pct 100");
        assert_eq!(report.per_shard_writes.len(), 4);
        assert!(
            report.hottest_write_share() < 0.45,
            "uniform stream must not pile up: {:?}",
            report.per_shard_writes
        );
    }

    #[test]
    fn skewed_loop_heats_one_shard() {
        let kv = Arc::new(ShardedKv::new(4, 1_024, 1_024));
        let report = run_sharded_loop(
            Arc::clone(&kv),
            2,
            0.2,
            ShardedShape::new(10_000, 100, 6.0),
            3,
        );
        assert!(report.writes > 0);
        // The hot head of the key distribution routes to few shards;
        // the busiest shard takes a clear majority... of a stream a
        // uniform split would give 25% of.
        assert!(
            report.hottest_write_share() > 0.4,
            "skew must concentrate: {:?}",
            report.per_shard_writes
        );
    }

    #[test]
    fn mixed_loop_reads_and_writes() {
        let kv = Arc::new(ShardedKv::new(2, 256, 256));
        // Prefill so GETs can hit.
        for k in 0..1_000u64 {
            kv.put(k, 1).unwrap();
        }
        let report = run_sharded_loop(
            Arc::clone(&kv),
            2,
            0.1,
            ShardedShape::new(1_000, 20, 1.0),
            11,
        );
        assert!(report.reads > 0);
        assert!(report.writes > 0);
        assert_eq!(report.hits, report.reads, "prefilled keyspace");
        // Worker-stamped span covers at least the nominal interval.
        assert!(report.elapsed_secs >= 0.09, "{}", report.elapsed_secs);
    }

    #[test]
    #[should_panic(expected = "exponent below 1")]
    fn sub_one_exponent_panics() {
        ShardedShape::new(10, 0, 0.5);
    }
}
