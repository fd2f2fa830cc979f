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
//! * `MALTHUS_BENCH_OUT` — output path (default `BENCH_locks.json`).

use std::sync::Arc;

use malthus::{McsCrLock, McsLock, RawLock};
use malthus_bench::livebench::{measure_interleaved, to_json, LockFactory, Series};
use malthus_bench::{env_u64, thread_sweep};

fn main() {
    let threads = thread_sweep(&[1, 4, 8]);
    let uncontended_iters = env_u64("MALTHUS_BENCH_ITERS", 300_000);
    let contended_ms = env_u64("MALTHUS_BENCH_MS", 300);
    let out_path =
        std::env::var("MALTHUS_BENCH_OUT").unwrap_or_else(|_| "BENCH_locks.json".to_string());

    eprintln!(
        "# bench_locks: threads {threads:?}, {uncontended_iters} uncontended iters, \
         {contended_ms} ms contended interval, {} host CPUs",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    fn factory<L: RawLock + 'static>(mk: fn() -> L) -> LockFactory {
        Box::new(move || Arc::new(mk()) as Arc<dyn RawLock>)
    }
    let named: Vec<(&str, LockFactory)> = vec![
        ("MCS-S", factory(McsLock::spin)),
        ("MCS-STP", factory(McsLock::stp)),
        ("MCSCR-S", factory(McsCrLock::spin)),
        ("MCSCR-STP", factory(McsCrLock::stp)),
    ];
    let series: Vec<Series> =
        measure_interleaved(&named, &threads, uncontended_iters, contended_ms);

    let extras = vec![
        (
            "host_cpus".to_string(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "threads_swept".to_string(),
            format!(
                "[{}]",
                threads
                    .iter()
                    .map(|t| t.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        // Cells where the sweep oversubscribes the host: scheduler
        // noise dominates there (cross-check contended_rel_spread),
        // so downstream comparisons should discount them.
        (
            "oversubscribed_threads".to_string(),
            format!(
                "[{}]",
                threads
                    .iter()
                    .filter(|&&t| {
                        t > std::thread::available_parallelism().map_or(usize::MAX, |n| n.get())
                    })
                    .map(|t| t.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ];

    // Human-readable table.
    println!("{:<22} {:>14} contended ops/s", "lock", "uncontended");
    for s in &series {
        let cont: Vec<String> = s
            .contended
            .iter()
            .map(|(t, ops)| format!("{t}T:{ops:.0}"))
            .collect();
        println!(
            "{:<22} {:>11.1} ns  {}",
            s.name,
            s.uncontended_ns,
            cont.join("  ")
        );
    }

    let json = to_json(&series, &extras);
    std::fs::write(&out_path, &json).expect("write BENCH_locks.json");
    eprintln!("# wrote {out_path}");
}
