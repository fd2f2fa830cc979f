//! The pipelined-KV depth × shards × connections sweep over real
//! loopback TCP — `bench_pipeline` and `bench_net` are this one
//! function, differing in front-end and output name, and `bench_wal` /
//! `bench_obs` borrow its series naming and workload constants.
//!
//! Each cell boots a fresh server on an ephemeral port
//! ([`run_pipeline`]) and drives it with windowed tagged clients
//! (depth 1 = the classic untagged closed loop). Series are named
//! `depth<D>@shards<S>`, one cell per connection count. Beyond ops/s
//! each cell records the **admission evidence**: exclusive DB-lock
//! episodes per server-side write (1.0 at depth 1, below it when
//! batches execute several writes per hold) and the mean drained
//! batch size — so the JSON carries not just "deeper is faster" but
//! *why*.

use std::sync::Arc;

use malthus_pool::kv::KvService;
use malthus_workloads::pipeline::{
    run_pipeline, FrontEnd, PipelineReport, PipelineShape, CACHE_BLOCKS, MEMTABLE_LIMIT,
};

use crate::livebench::trials;
use crate::sweep::Sweep;
use crate::{env_sweep, env_u64, thread_sweep};

/// Key-space size of every pipelined bench cell.
pub const KEYS: u64 = 10_000;
/// PUT percentage of the memory-only pipelined cells.
pub const PUT_PCT: u32 = 20;

/// A fresh memory-only service for one cell.
pub fn memory_service(shards: usize) -> Arc<KvService> {
    Arc::new(KvService::with_shards(shards, MEMTABLE_LIMIT, CACHE_BLOCKS))
}

/// The `depth<D>@shards<S>` series of a depth × shards sweep, depth
/// major.
pub fn depth_series(depths: &[usize], shards: &[usize]) -> Vec<(String, (usize, usize))> {
    (depths.iter())
        .flat_map(|&d| (shards.iter()).map(move |&s| (format!("depth{d}@shards{s}"), (d, s))))
        .collect()
}

/// Completed operations per second of the worker-stamped interval.
pub fn ops_per_sec(report: &PipelineReport) -> f64 {
    report.ops() as f64 / report.elapsed_secs.max(f64::EPSILON)
}

/// Runs the sweep against `front` and writes `default_out` (or
/// `MALTHUS_BENCH_OUT`). Knobs: `MALTHUS_PIPE_DEPTHS` (default
/// `1,4,16`), `MALTHUS_PIPE_SHARDS` (default `1,4`),
/// `MALTHUS_THREAD_SWEEP` (connection counts, default `2,4`),
/// `MALTHUS_BENCH_MS` (interval per cell, default 300),
/// `MALTHUS_BENCH_TRIALS` (default 5).
pub fn run_front_end_sweep(front: FrontEnd, default_out: &str) {
    let depths = env_sweep("MALTHUS_PIPE_DEPTHS", &[1, 4, 16]);
    let shard_counts = env_sweep("MALTHUS_PIPE_SHARDS", &[1, 4]);
    let seconds = env_u64("MALTHUS_BENCH_MS", 300) as f64 / 1_000.0;
    let sweep = Sweep {
        series: depth_series(&depths, &shard_counts),
        cells: thread_sweep(&[2, 4]),
        trials: trials(),
        diagnostics: &["exclusive_episodes_per_write", "mean_drained_batch"],
        axes: vec![
            ("depth_sweep", depths.clone()),
            ("shard_sweep", shard_counts.clone()),
        ],
    };
    eprintln!("# {front:?} front-end, {PUT_PCT}% PUT, {seconds} s per cell");
    let result = sweep.run(None, &mut |&(depth, shards), conns, seed| {
        let shape = PipelineShape::new(KEYS, PUT_PCT, depth);
        let report = run_pipeline(memory_service(shards), front, conns, seconds, shape, seed);
        let diagnostics = vec![report.exclusive_per_write(), report.mean_batch()];
        (ops_per_sec(&report), diagnostics)
    });

    let mut extras = vec![("put_pct", PUT_PCT.to_string()), ("keys", KEYS.to_string())];
    if front == FrontEnd::Reactor {
        extras.push(("front_end", "\"reactor\"".to_string()));
    }
    result.emit(default_out, &extras);

    // The headline ratio: deepest depth vs the shallowest, same shard
    // count and connection count.
    let base = depths.iter().min().expect("a sweep is never empty");
    let deepest = depths.iter().max().expect("a sweep is never empty");
    if deepest > base {
        for &s in &shard_counts {
            for &c in &sweep.cells {
                let ratio = result.ops(&format!("depth{deepest}@shards{s}"), c)
                    / result.ops(&format!("depth{base}@shards{s}"), c);
                println!("# depth{deepest} vs depth{base} @shards{s}, {c} conns: {ratio:.2}x");
            }
        }
    }
}
