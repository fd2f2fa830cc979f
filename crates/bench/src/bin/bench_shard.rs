//! `bench_shard` — sharded-KV throughput sweep: writes
//! `BENCH_shard.json`.
//!
//! Sweeps **shard count × thread count × key skew** over the live
//! [`ShardedKv`] using the
//! `sharded_contention` workload (PUT-heavy — writes are what a
//! single hot lock pair serializes, so they are where sharding must
//! pay). Series are named `shards<N>@<uniform|skewed>`, one contended
//! cell per thread count, interleaved median-of-trials — the same
//! `BENCH_locks.json` shape the other bench binaries emit, so
//! `bench_compare` consumes it unchanged (e.g. diffing a skewed
//! sweep against a uniform one, or this host against another).
//!
//! Each measured cell also records the hottest shard's write share,
//! so the skewed runs show *one hot shard degrading while the others
//! stay fast* rather than an undifferentiated total.
//!
//! Environment knobs:
//!
//! * `MALTHUS_SHARD_SWEEP` — comma-separated shard counts (default
//!   `1,2,4`).
//! * `MALTHUS_THREAD_SWEEP` — contended thread counts (default
//!   `2,4`).
//! * `MALTHUS_BENCH_MS` — interval per cell in ms (default 300).
//! * `MALTHUS_BENCH_TRIALS` — trials per cell (default 5).
//! * `MALTHUS_BENCH_OUT` — output path (default `BENCH_shard.json`).

use std::sync::Arc;

use malthus_bench::livebench::trials;
use malthus_bench::sweep::{Sample, Sweep};
use malthus_bench::{env_sweep, env_u64, thread_sweep};
use malthus_storage::ShardedKv;
use malthus_workloads::sharded_contention::{run_sharded_loop, ShardedShape};

/// Per-shard memtable limit and cache blocks for the bench store:
/// small enough to freeze runs during a cell (so the GET path touches
/// the block cache), large enough that compaction is not the
/// bottleneck.
const MEMTABLE_LIMIT: usize = 1_024;
const CACHE_BLOCKS: usize = 4_096;
/// The skewed series' exponent (the uniform series is exponent 1).
const SKEW: f64 = 6.0;
const PUT_PCT: u32 = 80;
const KEYS: u64 = 10_000;

/// One full measurement of (shards, skew exponent, threads):
/// `(ops/s, [hottest shard's write share])`.
fn measure_cell(shards: usize, exponent: f64, threads: usize, seconds: f64, seed: u64) -> Sample {
    let kv = Arc::new(ShardedKv::new(shards, MEMTABLE_LIMIT, CACHE_BLOCKS));
    // Prefill so the GET side of the mix can hit.
    for k in 0..KEYS {
        kv.put(k, k).expect("memory-only store cannot go read-only");
    }
    let shape = ShardedShape::new(KEYS, PUT_PCT, exponent);
    let report = run_sharded_loop(Arc::clone(&kv), threads, seconds, shape, seed);
    // Divide by the worker-stamped span, not the nominal interval:
    // on an oversubscribed host the coordinator's sleep overshoots
    // while workers keep completing ops.
    let secs = report.elapsed_secs.max(f64::EPSILON);
    (
        report.ops() as f64 / secs,
        vec![report.hottest_write_share()],
    )
}

fn main() {
    let shard_counts = env_sweep("MALTHUS_SHARD_SWEEP", &[1, 2, 4]);
    let seconds = env_u64("MALTHUS_BENCH_MS", 300) as f64 / 1_000.0;
    let sweep = Sweep {
        series: (shard_counts.iter())
            .flat_map(|&s| {
                [("uniform", 1.0), ("skewed", SKEW)]
                    .map(|(label, exponent)| (format!("shards{s}@{label}"), (s, exponent)))
            })
            .collect(),
        cells: thread_sweep(&[2, 4]),
        trials: trials(),
        diagnostics: &["hottest_shard_write_share"],
        axes: vec![("shard_sweep", shard_counts.clone())],
    };
    eprintln!("# bench_shard: skew [1, {SKEW}], {PUT_PCT}% PUT, {seconds} s per cell");
    let result = sweep.run(None, &mut |&(shards, exponent), threads, seed| {
        measure_cell(shards, exponent, threads, seconds, seed)
    });
    result.emit(
        "BENCH_shard.json",
        &[
            ("skew_exponent", format!("{SKEW:.1}")),
            ("put_pct", PUT_PCT.to_string()),
            ("keys", KEYS.to_string()),
        ],
    );
}
