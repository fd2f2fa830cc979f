//! Live pool-saturation workload: the work crew under KV traffic.
//!
//! The pool analogue of the lock loops in [`live`](crate::live): real
//! submitter threads keep a [`WorkCrew`]'s bounded queue saturated
//! with KV tasks — a `PUT`/`GET` mix against a shared
//! [`MiniKv`] behind one FIFO MCS lock plus a
//! block cache behind another, the §6.5 contention shape — and each
//! task's submit-to-completion latency lands in a shared
//! [`LatencyHistogram`]. Because the *storage* locks here are strict
//! FIFO (no lock-level CR), any scalability difference between an
//! unrestricted and a Malthusian crew is attributable to the
//! pool-level admission control alone.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use malthus::{McsMutex, Mutex};
use malthus_metrics::LatencyHistogram;
use malthus_park::XorShift64;
use malthus_pool::{PoolConfig, PoolStats, WorkCrew};
use malthus_storage::{MiniKv, SimpleLru};

/// Geometry of one saturation run.
#[derive(Debug, Clone, Copy)]
pub struct SaturationShape {
    /// Key-space size for the xorshift key stream.
    pub key_space: u64,
    /// Percentage of tasks that are PUTs (rest are GETs).
    pub put_pct: u64,
    /// Iterations of private post-op compute per task (models
    /// serialization/response work outside the locks).
    pub private_work: u32,
    /// Submitter threads keeping the queue full.
    pub submitters: usize,
}

impl Default for SaturationShape {
    fn default() -> Self {
        SaturationShape {
            key_space: 4_096,
            put_pct: 20,
            private_work: 64,
            submitters: 2,
        }
    }
}

/// Results of one saturation run.
#[derive(Debug, Clone)]
pub struct SaturationReport {
    /// Tasks completed.
    pub completed: u64,
    /// Wall-clock span from first submit to full drain.
    pub elapsed: Duration,
    /// Completed tasks per second.
    pub ops_per_sec: f64,
    /// Median submit-to-completion latency.
    pub p50: Duration,
    /// 99th-percentile submit-to-completion latency.
    pub p99: Duration,
    /// Final crew statistics.
    pub pool: PoolStats,
}

/// The shared storage state every task contends on.
struct KvState {
    db: McsMutex<MiniKv>,
    cache: McsMutex<SimpleLru>,
}

/// Runs the crew described by `cfg` under saturated KV traffic for
/// (at least) `interval`; returns throughput, latency quantiles, and
/// the crew's admission statistics.
pub fn run_pool_saturation(
    cfg: PoolConfig,
    interval: Duration,
    shape: SaturationShape,
) -> SaturationReport {
    assert!(shape.submitters > 0, "need at least one submitter");
    assert!(shape.key_space > 0, "key space must be non-empty");
    let crew = Arc::new(WorkCrew::new(cfg));
    let kv = Arc::new(KvState {
        db: Mutex::new(MiniKv::new(1_024)),
        cache: Mutex::new(SimpleLru::new(4_096)),
    });
    let hist = Arc::new(LatencyHistogram::new());
    let stop = Arc::new(AtomicBool::new(false));

    let started = Instant::now();
    let submitters: Vec<_> = (0..shape.submitters)
        .map(|s| {
            let crew = Arc::clone(&crew);
            let kv = Arc::clone(&kv);
            let hist = Arc::clone(&hist);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let rng = XorShift64::new(0x5A7 ^ (s as u64 + 1));
                while !stop.load(Ordering::Relaxed) {
                    let key = rng.next_below(shape.key_space);
                    let is_put = rng.next_below(100) < shape.put_pct;
                    let kv = Arc::clone(&kv);
                    let hist = Arc::clone(&hist);
                    let private = shape.private_work;
                    let born = Instant::now();
                    let submitted = crew.submit(move || {
                        if is_put {
                            kv.db.lock().put(key, key.wrapping_mul(31));
                        } else {
                            let tid = malthus::current_thread_index();
                            let db = kv.db.lock();
                            let mut cache = kv.cache.lock();
                            std::hint::black_box(db.get(key, &mut cache, tid));
                        }
                        // Private work outside the locks (response
                        // marshalling stand-in).
                        let mut acc = key;
                        for _ in 0..private {
                            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                        }
                        std::hint::black_box(acc);
                        hist.record(born.elapsed());
                    });
                    if submitted.is_err() {
                        return;
                    }
                }
            })
        })
        .collect();

    std::thread::sleep(interval);
    stop.store(true, Ordering::Relaxed);
    for s in submitters {
        s.join().unwrap();
    }
    let pool = crew.shutdown(); // drains the queue before returning
    let elapsed = started.elapsed();

    let (p50, p99) = hist.p50_p99();
    SaturationReport {
        completed: pool.completed,
        elapsed,
        ops_per_sec: pool.completed as f64 / elapsed.as_secs_f64().max(f64::EPSILON),
        p50,
        p99,
        pool,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malthus_pool::Admission;

    #[test]
    fn saturation_completes_work_and_measures_latency() {
        let cfg = PoolConfig::malthusian(4, 32).with_acs_target(1);
        let r = run_pool_saturation(
            cfg,
            Duration::from_millis(150),
            SaturationShape {
                submitters: 2,
                ..SaturationShape::default()
            },
        );
        assert!(r.completed > 0);
        assert_eq!(r.completed, r.pool.submitted, "shutdown must drain");
        assert!(r.ops_per_sec > 0.0);
        assert!(r.p99 >= r.p50);
        assert!(r.p50 > Duration::ZERO);
    }

    #[test]
    fn unrestricted_control_also_runs() {
        let r = run_pool_saturation(
            PoolConfig::new(Admission::unrestricted(4), 32),
            Duration::from_millis(100),
            SaturationShape::default(),
        );
        assert!(r.completed > 0);
        assert_eq!(r.pool.members.culls, 0);
    }
}
