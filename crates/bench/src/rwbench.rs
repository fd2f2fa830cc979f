//! Cell functions of the read-fraction × thread-count sweep over the
//! live reader-writer locks (the `bench_rwlock` binary).
//!
//! Each (lock, read fraction) pair is one series of a
//! [`Sweep`](crate::sweep::Sweep), named `<lock>@r<pct>`, so the
//! emitted JSON has exactly the `BENCH_locks.json` shape and the
//! `bench_compare` tooling works on it unchanged.

use std::sync::Arc;
use std::time::Instant;

use malthus_workloads::rwreadwrite::{run_rw_loop, RwLoopShape, SharedTableRw};

/// Table slots used by the benchmark loop (every write stamps all of
/// them, every read scans all of them — a small but real critical
/// section on both sides).
pub const BENCH_TABLE_SLOTS: usize = 64;

/// Measures single-thread shared-acquisition latency in nanoseconds
/// per read section (acquire + whole-table scan + release).
pub fn uncontended_read_ns(table: &dyn SharedTableRw, iters: u64) -> f64 {
    let mut sink = 0u64;
    for _ in 0..(iters / 10).max(1) {
        table.read_section(&mut |slots| sink = sink.wrapping_add(slots[0]));
    }
    let start = Instant::now();
    for _ in 0..iters {
        table.read_section(&mut |slots| sink = sink.wrapping_add(slots[0]));
    }
    std::hint::black_box(sink);
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Measures one contended cell: `threads` threads mixing whole-table
/// reads (`read_pct` percent) and stamping writes for `interval_ms`,
/// in operations per second.
///
/// # Panics
///
/// Panics if the cell observes a torn read: that means the lock under
/// measurement failed reader/writer exclusion, and its throughput
/// number would be meaningless.
pub fn contended_rw_ops_per_sec(
    table: Arc<dyn SharedTableRw>,
    read_pct: u32,
    threads: usize,
    interval_ms: u64,
    seed: u64,
) -> f64 {
    let secs = (interval_ms as f64 / 1_000.0).max(f64::EPSILON);
    let shape = RwLoopShape::new(BENCH_TABLE_SLOTS, read_pct);
    let report = run_rw_loop(Arc::clone(&table), threads, secs, shape, seed);
    assert_eq!(
        report.torn_reads,
        0,
        "torn reads under {} at r{read_pct}/t{threads}",
        table.label()
    );
    report.ops() as f64 / secs
}

#[cfg(test)]
mod tests {
    use super::*;
    use malthus_rwlock::RwCrMutex;

    #[test]
    fn rw_harness_measures_positive_numbers() {
        let table = || {
            Arc::new(RwCrMutex::default_cr(vec![0u64; BENCH_TABLE_SLOTS])) as Arc<dyn SharedTableRw>
        };
        assert!(uncontended_read_ns(&*table(), 500) > 0.0);
        for (read_pct, threads) in [(50, 1), (50, 2), (99, 1), (99, 2)] {
            let ops = contended_rw_ops_per_sec(table(), read_pct, threads, 20, 7);
            assert!(ops > 0.0, "r{read_pct}/t{threads}: {ops}");
        }
    }
}
