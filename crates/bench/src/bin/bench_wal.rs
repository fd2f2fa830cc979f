//! `bench_wal` — group-commit durability sweep over real loopback
//! TCP: writes `BENCH_wal.json`.
//!
//! Sweeps **pipeline depth × connection count** with the
//! `workloads::pipeline` live loop against a **durable** store: each
//! cell opens a fresh `KvService` over a fresh temporary data
//! directory (one shard: one WAL, the hardest group-commit case),
//! boots the threaded front-end on it, drives it with windowed tagged
//! clients at 100% PUT (every op pays the WAL), and tears both down.
//! Series are named `depth<D>@shards1`, one contended cell per
//! connection count, interleaved median-of-trials — the
//! `BENCH_locks.json` shape every other bench binary emits, so
//! `bench_compare` consumes it unchanged.
//!
//! The headline metric is **fsyncs per acked write** (the
//! `fsyncs_per_write` map): 1.0 at depth 1 — every PUT pays its own
//! group commit — and far below it once drain-per-wakeup batching
//! lets one fsync cover a whole per-shard write group. The ops/s
//! series shows what that amortization buys in throughput.
//!
//! Environment knobs:
//!
//! * `MALTHUS_WAL_DEPTHS` — comma-separated depths (default
//!   `1,4,16`).
//! * `MALTHUS_THREAD_SWEEP` — connection counts (default `2,4`).
//! * `MALTHUS_BENCH_MS` — interval per cell in ms (default 300).
//! * `MALTHUS_BENCH_TRIALS` — trials per cell (default 5).
//! * `MALTHUS_BENCH_OUT` — output path (default `BENCH_wal.json`).

use std::sync::Arc;

use malthus_bench::livebench::trials;
use malthus_bench::pipebench::{depth_series, ops_per_sec, KEYS};
use malthus_bench::sweep::{Sample, Sweep};
use malthus_bench::{env_sweep, env_u64, thread_sweep};
use malthus_pool::kv::KvService;
use malthus_workloads::pipeline::{
    run_pipeline, FrontEnd, PipelineShape, CACHE_BLOCKS, MEMTABLE_LIMIT,
};

const SHARDS: [usize; 1] = [1];
/// 100% PUT: every operation must reach the log, so the
/// fsyncs-per-write ratio is undiluted by reads.
const PUT_PCT: u32 = 100;

/// One full measurement of (depth, shards, conns) on a fresh data
/// directory: `(ops/s, [fsyncs per write, mean drained batch])`.
fn measure_cell(depth: usize, shards: usize, conns: usize, seconds: f64, seed: u64) -> Sample {
    // Seed-keyed (the harness avoids wall-clock entropy) plus pid so
    // concurrent bench runs cannot collide.
    let dir =
        std::env::temp_dir().join(format!("malthus-bench-wal-{}-{seed:x}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (service, _recovery) =
        KvService::open(&dir, shards, MEMTABLE_LIMIT, CACHE_BLOCKS).expect("open fresh WAL dir");
    let shape = PipelineShape::new(KEYS, PUT_PCT, depth);
    let report = run_pipeline(
        Arc::new(service),
        FrontEnd::Threaded,
        conns,
        seconds,
        shape,
        seed,
    );
    let _ = std::fs::remove_dir_all(&dir);
    let diagnostics = vec![report.fsyncs_per_write(), report.mean_batch()];
    (ops_per_sec(&report), diagnostics)
}

fn main() {
    let depths = env_sweep("MALTHUS_WAL_DEPTHS", &[1, 4, 16]);
    let seconds = env_u64("MALTHUS_BENCH_MS", 300) as f64 / 1_000.0;
    let sweep = Sweep {
        series: depth_series(&depths, &SHARDS),
        cells: thread_sweep(&[2, 4]),
        trials: trials(),
        diagnostics: &["fsyncs_per_write", "mean_drained_batch"],
        axes: vec![
            ("depth_sweep", depths.clone()),
            ("shard_sweep", SHARDS.to_vec()),
        ],
    };
    eprintln!("# bench_wal: {PUT_PCT}% PUT (durable), {seconds} s per cell");
    let result = sweep.run(None, &mut |&(depth, shards), conns, seed| {
        measure_cell(depth, shards, conns, seconds, seed)
    });
    result.emit(
        "BENCH_wal.json",
        &[("put_pct", PUT_PCT.to_string()), ("keys", KEYS.to_string())],
    );

    // The headline: fsync amortization at the deepest depth.
    let deepest = depths.iter().max().expect("a sweep is never empty");
    for &c in &sweep.cells {
        let series = format!("depth{deepest}@shards1");
        let fsyncs = result.diagnostic("fsyncs_per_write", &series, c);
        println!("# {series}, {c} conns: {fsyncs:.3} fsyncs per acked write");
    }
}
