//! `bench_shard` — sharded-KV throughput sweep: writes
//! `BENCH_shard.json`.
//!
//! Sweeps **shard count × thread count × key skew** over the live
//! [`ShardedKv`] using the
//! `sharded_contention` workload (PUT-heavy by default — writes are
//! what a single hot lock pair serializes, so they are where sharding
//! must pay). Series are named `shards<N>@<uniform|skewed>`, one
//! contended cell per thread count, interleaved median-of-trials —
//! the same `BENCH_locks.json` shape the other bench binaries emit,
//! so `bench_compare` consumes it unchanged (e.g. diffing a skewed
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
//! * `MALTHUS_SHARD_SKEW` — the skewed series' exponent (default 6;
//!   the uniform series is always exponent 1).
//! * `MALTHUS_SHARD_PUT_PCT` — PUT percentage (default 80).
//! * `MALTHUS_SHARD_KEYS` — key-space size (default 10000).
//! * `MALTHUS_BENCH_MS` — interval per cell in ms (default 300).
//! * `MALTHUS_BENCH_TRIALS` — trials per cell (default 5).
//! * `MALTHUS_BENCH_OUT` — output path (default `BENCH_shard.json`).

use std::sync::Arc;

use malthus_bench::livebench::{median, rel_spread, to_json, trials, Series};
use malthus_bench::{env_sweep, env_u64, thread_sweep};
use malthus_storage::ShardedKv;
use malthus_workloads::sharded_contention::{run_sharded_loop, ShardedShape};

/// Per-shard memtable limit and cache blocks for the bench store:
/// small enough to freeze runs during a cell (so the GET path touches
/// the block cache), large enough that compaction is not the
/// bottleneck.
const MEMTABLE_LIMIT: usize = 1_024;
const CACHE_BLOCKS: usize = 4_096;

/// One full measurement of (shards, skew) across the thread sweep:
/// returns `(ops/s per thread count, hottest-shard share per thread
/// count)`.
fn measure_cell(
    shards: usize,
    threads: usize,
    interval_ms: u64,
    shape: ShardedShape,
    seed: u64,
) -> (f64, f64) {
    let kv = Arc::new(ShardedKv::new(shards, MEMTABLE_LIMIT, CACHE_BLOCKS));
    // Prefill so the GET side of the mix can hit.
    for k in 0..shape.keys {
        kv.put(k, k).expect("memory-only store cannot go read-only");
    }
    let report = run_sharded_loop(
        Arc::clone(&kv),
        threads,
        interval_ms as f64 / 1_000.0,
        shape,
        seed,
    );
    // Divide by the worker-stamped span, not the nominal interval:
    // on an oversubscribed host the coordinator's sleep overshoots
    // while workers keep completing ops.
    let secs = report.elapsed_secs.max(f64::EPSILON);
    (report.ops() as f64 / secs, report.hottest_write_share())
}

fn main() {
    let shard_counts = env_sweep("MALTHUS_SHARD_SWEEP", &[1, 2, 4]);
    let threads = thread_sweep(&[2, 4]);
    let skew = env_u64("MALTHUS_SHARD_SKEW", 6).max(1) as f64;
    let put_pct = env_u64("MALTHUS_SHARD_PUT_PCT", 80).min(100) as u32;
    let keys = env_u64("MALTHUS_SHARD_KEYS", 10_000).max(1);
    let interval_ms = env_u64("MALTHUS_BENCH_MS", 300);
    let out_path =
        std::env::var("MALTHUS_BENCH_OUT").unwrap_or_else(|_| "BENCH_shard.json".to_string());
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let n_trials = trials();

    eprintln!(
        "# bench_shard: shards {shard_counts:?} x threads {threads:?} x skew [1, {skew}], \
         {put_pct}% PUT, {interval_ms} ms per cell, {n_trials} trials, {host_cpus} host CPUs"
    );

    let skews: Vec<(&str, f64)> = vec![("uniform", 1.0), ("skewed", skew)];
    let series_defs: Vec<(String, usize, f64)> = shard_counts
        .iter()
        .flat_map(|&s| {
            skews
                .iter()
                .map(move |&(label, e)| (format!("shards{s}@{label}"), s, e))
        })
        .collect();

    // Interleaved trials: one full pass over every (series, cell) per
    // round, so slow host drift biases all series equally.
    let mut ops: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); threads.len()]; series_defs.len()];
    let mut hot: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); threads.len()]; series_defs.len()];
    for round in 0..n_trials {
        for (i, (_, shards, exponent)) in series_defs.iter().enumerate() {
            for (j, &t) in threads.iter().enumerate() {
                let shape = ShardedShape::new(keys, put_pct, *exponent);
                let seed = 0xBE6C_0000 + (round * 1_000 + i * 10 + j) as u64;
                let (o, h) = measure_cell(*shards, t, interval_ms, shape, seed);
                ops[i][j].push(o);
                hot[i][j].push(h);
            }
        }
    }

    let series: Vec<Series> = series_defs
        .iter()
        .enumerate()
        .map(|(i, (name, _, _))| Series {
            name: name.clone(),
            // No uncontended single-thread latency cell in this sweep;
            // bench_compare only consumes the contended map.
            uncontended_ns: f64::NAN,
            contended: threads
                .iter()
                .enumerate()
                .map(|(j, &t)| (t, median(ops[i][j].clone())))
                .collect(),
            contended_spread: threads
                .iter()
                .enumerate()
                .map(|(j, &t)| (t, rel_spread(&ops[i][j])))
                .collect(),
        })
        .collect();

    // The skew diagnostic: median hottest-shard write share per cell.
    let hot_json = {
        let per_series: Vec<String> = series_defs
            .iter()
            .enumerate()
            .map(|(i, (name, _, _))| {
                let cells: Vec<String> = threads
                    .iter()
                    .enumerate()
                    .map(|(j, &t)| format!("\"{t}\": {:.3}", median(hot[i][j].clone())))
                    .collect();
                format!("\"{name}\": {{{}}}", cells.join(", "))
            })
            .collect();
        format!("{{{}}}", per_series.join(", "))
    };

    let list = |xs: &[usize]| {
        xs.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    let extras = vec![
        ("hottest_shard_write_share".to_string(), hot_json),
        ("host_cpus".to_string(), host_cpus.to_string()),
        (
            "shard_sweep".to_string(),
            format!("[{}]", list(&shard_counts)),
        ),
        ("threads_swept".to_string(), format!("[{}]", list(&threads))),
        (
            "oversubscribed_threads".to_string(),
            format!(
                "[{}]",
                list(
                    &threads
                        .iter()
                        .copied()
                        .filter(|&t| t > host_cpus.max(1))
                        .collect::<Vec<_>>()
                )
            ),
        ),
        ("skew_exponent".to_string(), format!("{skew:.1}")),
        ("put_pct".to_string(), put_pct.to_string()),
        ("keys".to_string(), keys.to_string()),
    ];

    println!(
        "{:<18} {}",
        "series",
        threads
            .iter()
            .map(|t| format!("{t:>12}T"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for (i, s) in series.iter().enumerate() {
        let cells: Vec<String> = s
            .contended
            .iter()
            .enumerate()
            .map(|(j, (_, o))| format!("{o:>10.0}/s ({:.0}%)", 100.0 * median(hot[i][j].clone())))
            .collect();
        println!("{:<18} {}", s.name, cells.join(" "));
    }
    println!("# (n%) = hottest shard's write share");

    let json = to_json(&series, &extras);
    std::fs::write(&out_path, &json).expect("write BENCH_shard.json");
    eprintln!("# wrote {out_path}");
}
