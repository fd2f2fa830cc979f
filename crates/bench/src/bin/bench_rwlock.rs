//! Live RW-lock throughput harness: writes `BENCH_rwlock.json`.
//!
//! Sweeps read fraction × thread count for the Malthusian RW-CR lock
//! against a `std::sync::RwLock` baseline, using the live
//! `rwreadwrite` workload (every op is a whole-table read or a
//! whole-table stamping write; torn reads would fail the run, so the
//! numbers double as an exclusion check). Output follows the
//! `BENCH_locks.json` interleaved median-of-trials format — one
//! series per (lock, fraction), named `<lock>@r<pct>` — so
//! `bench_compare` consumes it unchanged.
//!
//! Environment knobs:
//!
//! * `MALTHUS_RW_FRACTIONS` — comma-separated read percentages,
//!   1–100 (default `50,90,99`).
//! * `MALTHUS_THREAD_SWEEP` — contended thread counts (default
//!   `2,4,8`).
//! * `MALTHUS_BENCH_ITERS` — uncontended read iterations (default
//!   200000).
//! * `MALTHUS_BENCH_MS` — contended interval per cell in milliseconds
//!   (default 300).
//! * `MALTHUS_BENCH_TRIALS` — trials per cell (default 5).
//! * `MALTHUS_BENCH_OUT` — output path (default `BENCH_rwlock.json`).

use std::sync::Arc;

use malthus_bench::livebench::trials;
use malthus_bench::rwbench::{contended_rw_ops_per_sec, uncontended_read_ns, BENCH_TABLE_SLOTS};
use malthus_bench::sweep::Sweep;
use malthus_bench::{env_sweep, env_u64, thread_sweep};
use malthus_rwlock::{RwCrLock, RwCrMutex, RwMutex};
use malthus_workloads::rwreadwrite::SharedTableRw;

type TableFactory = fn() -> Arc<dyn SharedTableRw>;

fn slots() -> Vec<u64> {
    vec![0; BENCH_TABLE_SLOTS]
}

fn main() {
    let fractions = env_sweep("MALTHUS_RW_FRACTIONS", &[50, 90, 99]);
    let uncontended_iters = env_u64("MALTHUS_BENCH_ITERS", 200_000);
    let contended_ms = env_u64("MALTHUS_BENCH_MS", 300);
    let locks: [(&str, TableFactory); 3] = [
        ("std::RwLock", || Arc::new(std::sync::RwLock::new(slots()))),
        ("RW-CR-S", || {
            Arc::new(RwMutex::with_raw(RwCrLock::spin(), slots()))
        }),
        ("RW-CR-STP", || Arc::new(RwCrMutex::default_cr(slots()))),
    ];
    let sweep = Sweep {
        series: (locks.iter())
            .flat_map(|&(lock, mk)| {
                (fractions.iter()).map(move |&f| (format!("{lock}@r{f}"), (mk, f as u32)))
            })
            .collect(),
        cells: thread_sweep(&[2, 4, 8]),
        trials: trials(),
        axes: vec![("read_fractions", fractions.clone())],
    };
    eprintln!("# bench_rwlock: fractions {fractions:?}, {contended_ms} ms per cell");
    // The uncontended read latency does not depend on the read
    // fraction (single thread, reads only); each of a lock's series
    // takes its own sample of it.
    let result = sweep.run(
        Some(&mut |&(mk, _)| uncontended_read_ns(&*mk(), uncontended_iters)),
        &mut |&(mk, read_pct), threads, seed| {
            contended_rw_ops_per_sec(mk(), read_pct, threads, contended_ms, seed)
        },
    );

    // RW-CR vs std speedups per fraction (weighted aggregation is
    // bench_compare's job; these are the raw per-cell ratios).
    let speedup = |cr: &str| -> String {
        let per_fraction: Vec<String> = (fractions.iter())
            .map(|f| {
                let cells: Vec<String> = (sweep.cells.iter())
                    .map(|&t| {
                        let ratio = result.ops(&format!("{cr}@r{f}"), t)
                            / result.ops(&format!("std::RwLock@r{f}"), t);
                        format!("\"{t}\": {ratio:.3}")
                    })
                    .collect();
                format!("\"r{f}\": {{{}}}", cells.join(", "))
            })
            .collect();
        format!("\"{cr}\": {{{}}}", per_fraction.join(", "))
    };
    let speedups = format!("{{{}, {}}}", speedup("RW-CR-S"), speedup("RW-CR-STP"));
    result.emit(
        "BENCH_rwlock.json",
        &[("speedup_vs_std_contended", speedups)],
    );
}
