//! Live-lock throughput harness: writes `BENCH_locks.json`.
//!
//! Measures uncontended lock/unlock latency (ns/op) and a contended
//! throughput sweep (ops/s) for the MCS family on the host.
//!
//! Each contended cell also records its per-trial relative spread
//! (`contended_rel_spread`), and thread counts above the host's CPU
//! count are flagged in `oversubscribed_threads`: those cells are
//! scheduler-noise-dominated and downstream comparisons should
//! discount them.
//!
//! Environment knobs:
//!
//! * `MALTHUS_THREAD_SWEEP` — comma-separated contended thread counts
//!   (default `1,4,8`).
//! * `MALTHUS_BENCH_ITERS` — uncontended iterations (default 300000).
//! * `MALTHUS_BENCH_MS` — contended measurement interval per
//!   (lock, thread-count) cell in milliseconds (default 300).
//! * `MALTHUS_BENCH_TRIALS` — trials per cell (default 5).
//! * `MALTHUS_BENCH_OUT` — output path (default `BENCH_locks.json`).

use std::sync::Arc;

use malthus::{McsCrLock, McsLock, RawLock};
use malthus_bench::livebench::{contended_ops_per_sec, trials, uncontended_ns_per_op};
use malthus_bench::sweep::Sweep;
use malthus_bench::{env_u64, thread_sweep};

type LockFactory = fn() -> Arc<dyn RawLock>;

fn main() {
    let uncontended_iters = env_u64("MALTHUS_BENCH_ITERS", 300_000);
    let contended_ms = env_u64("MALTHUS_BENCH_MS", 300);
    let locks: [(&str, LockFactory); 4] = [
        ("MCS-S", || Arc::new(McsLock::spin())),
        ("MCS-STP", || Arc::new(McsLock::stp())),
        ("MCSCR-S", || Arc::new(McsCrLock::spin())),
        ("MCSCR-STP", || Arc::new(McsCrLock::stp())),
    ];
    let sweep = Sweep {
        series: locks.map(|(name, mk)| (name.to_string(), mk)).to_vec(),
        cells: thread_sweep(&[1, 4, 8]),
        trials: trials(),
        axes: Vec::new(),
    };
    eprintln!(
        "# bench_locks: {uncontended_iters} uncontended iters, {contended_ms} ms contended interval"
    );
    let result = sweep.run(
        Some(&mut |mk| uncontended_ns_per_op(&*mk(), uncontended_iters)),
        &mut |mk, threads, _| contended_ops_per_sec(mk(), threads, contended_ms),
    );
    result.emit("BENCH_locks.json", &[]);
}
