//! `bench_pipeline` — pipelined-KV throughput sweep over real
//! loopback TCP: writes `BENCH_pipeline.json`.
//!
//! Sweeps **pipeline depth × connection count × shard count** with
//! the `workloads::pipeline` live loop: each cell boots a fresh
//! `server::serve` instance on an ephemeral port and drives it with
//! windowed tagged clients (depth 1 = the classic untagged closed
//! loop, the pre-pipelining baseline). Series are named
//! `depth<D>@shards<S>`, one contended cell per connection count,
//! interleaved median-of-trials — the `BENCH_locks.json` shape every
//! other bench binary emits, so `bench_compare` consumes it unchanged
//! (e.g. gating a depth-16 run against a depth-1 baseline, or this
//! host against another).
//!
//! Beyond ops/s, each cell records the **admission evidence**:
//! exclusive DB-lock episodes per server-side write (1.0 at depth 1,
//! below it when batches execute several writes per hold) and the
//! mean drained batch size — so the JSON carries not just "deeper is
//! faster" but *why*.
//!
//! Environment knobs:
//!
//! * `MALTHUS_PIPE_DEPTHS` — comma-separated depths (default
//!   `1,4,16`).
//! * `MALTHUS_PIPE_SHARDS` — shard counts (default `1,4`).
//! * `MALTHUS_THREAD_SWEEP` — connection counts (default `2,4`).
//! * `MALTHUS_PIPE_PUT_PCT` — PUT percentage (default 20).
//! * `MALTHUS_PIPE_KEYS` — key-space size (default 10000).
//! * `MALTHUS_BENCH_MS` — interval per cell in ms (default 300).
//! * `MALTHUS_BENCH_TRIALS` — trials per cell (default 5).
//! * `MALTHUS_BENCH_OUT` — output path (default
//!   `BENCH_pipeline.json`).

use malthus_bench::livebench::{median, rel_spread, to_json, Series};
use malthus_bench::{env_sweep, env_u64, thread_sweep};
use malthus_workloads::pipeline::{run_pipeline_loop, PipelineShape};

/// One full measurement of (depth, shards, conns): returns
/// `(ops/s, exclusive episodes per write, mean drained batch)`.
fn measure_cell(
    depth: usize,
    shards: usize,
    conns: usize,
    interval_ms: u64,
    keys: u64,
    put_pct: u32,
    seed: u64,
) -> (f64, f64, f64) {
    let shape = PipelineShape::new(keys, put_pct, depth);
    let report = run_pipeline_loop(shards, conns, interval_ms as f64 / 1_000.0, shape, seed);
    let secs = report.elapsed_secs.max(f64::EPSILON);
    (
        report.ops() as f64 / secs,
        report.exclusive_per_write(),
        report.mean_batch(),
    )
}

fn main() {
    let depths = env_sweep("MALTHUS_PIPE_DEPTHS", &[1, 4, 16]);
    let shard_counts = env_sweep("MALTHUS_PIPE_SHARDS", &[1, 4]);
    let conns = thread_sweep(&[2, 4]);
    let put_pct = env_u64("MALTHUS_PIPE_PUT_PCT", 20).min(100) as u32;
    let keys = env_u64("MALTHUS_PIPE_KEYS", 10_000).max(1);
    let interval_ms = env_u64("MALTHUS_BENCH_MS", 300);
    let out_path =
        std::env::var("MALTHUS_BENCH_OUT").unwrap_or_else(|_| "BENCH_pipeline.json".to_string());
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let n_trials = malthus_bench::livebench::trials();

    eprintln!(
        "# bench_pipeline: depths {depths:?} x conns {conns:?} x shards {shard_counts:?}, \
         {put_pct}% PUT, {interval_ms} ms per cell, {n_trials} trials, {host_cpus} host CPUs"
    );

    let series_defs: Vec<(String, usize, usize)> = depths
        .iter()
        .flat_map(|&d| {
            shard_counts
                .iter()
                .map(move |&s| (format!("depth{d}@shards{s}"), d, s))
        })
        .collect();

    // Interleaved trials: one full pass over every (series, cell) per
    // round, so slow host drift biases all series equally.
    let mut ops: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); conns.len()]; series_defs.len()];
    let mut excl: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); conns.len()]; series_defs.len()];
    let mut batch: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); conns.len()]; series_defs.len()];
    for round in 0..n_trials {
        for (i, (_, depth, shards)) in series_defs.iter().enumerate() {
            for (j, &c) in conns.iter().enumerate() {
                let seed = 0x71BE_0000 + (round * 1_000 + i * 10 + j) as u64;
                let (o, e, b) = measure_cell(*depth, *shards, c, interval_ms, keys, put_pct, seed);
                ops[i][j].push(o);
                excl[i][j].push(e);
                batch[i][j].push(b);
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
            contended: conns
                .iter()
                .enumerate()
                .map(|(j, &c)| (c, median(ops[i][j].clone())))
                .collect(),
            contended_spread: conns
                .iter()
                .enumerate()
                .map(|(j, &c)| (c, rel_spread(&ops[i][j])))
                .collect(),
        })
        .collect();

    // Per-cell admission diagnostics: exclusive episodes per write
    // and mean drained batch, median over trials.
    let cell_map = |data: &[Vec<Vec<f64>>]| -> String {
        let per_series: Vec<String> = series_defs
            .iter()
            .enumerate()
            .map(|(i, (name, _, _))| {
                let cells: Vec<String> = conns
                    .iter()
                    .enumerate()
                    .map(|(j, &c)| format!("\"{c}\": {:.3}", median(data[i][j].clone())))
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
        ("exclusive_episodes_per_write".to_string(), cell_map(&excl)),
        ("mean_drained_batch".to_string(), cell_map(&batch)),
        ("host_cpus".to_string(), host_cpus.to_string()),
        ("depth_sweep".to_string(), format!("[{}]", list(&depths))),
        (
            "shard_sweep".to_string(),
            format!("[{}]", list(&shard_counts)),
        ),
        ("threads_swept".to_string(), format!("[{}]", list(&conns))),
        (
            "oversubscribed_threads".to_string(),
            format!(
                "[{}]",
                list(
                    &conns
                        .iter()
                        .copied()
                        .filter(|&c| c > host_cpus.max(1))
                        .collect::<Vec<_>>()
                )
            ),
        ),
        ("put_pct".to_string(), put_pct.to_string()),
        ("keys".to_string(), keys.to_string()),
    ];

    println!(
        "{:<18} {}",
        "series",
        conns
            .iter()
            .map(|c| format!("{c:>22}C"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for (i, s) in series.iter().enumerate() {
        let cells: Vec<String> = s
            .contended
            .iter()
            .enumerate()
            .map(|(j, (_, o))| {
                format!(
                    "{o:>10.0}/s (b={:.1} x={:.2})",
                    median(batch[i][j].clone()),
                    median(excl[i][j].clone())
                )
            })
            .collect();
        println!("{:<18} {}", s.name, cells.join(" "));
    }
    println!("# b = mean drained batch, x = exclusive DB-lock episodes per write");

    // The headline ratio: deepest depth vs depth 1, same shard count
    // and connection count.
    if let Some(&base_depth) = depths.iter().min() {
        let deepest = *depths.iter().max().unwrap();
        if deepest > base_depth {
            for (si, &s) in shard_counts.iter().enumerate() {
                for (j, &c) in conns.iter().enumerate() {
                    let base_i = depths.iter().position(|&d| d == base_depth).unwrap()
                        * shard_counts.len()
                        + si;
                    let deep_i = depths.iter().position(|&d| d == deepest).unwrap()
                        * shard_counts.len()
                        + si;
                    let base = median(ops[base_i][j].clone());
                    let deep = median(ops[deep_i][j].clone());
                    if base > 0.0 {
                        println!(
                            "# depth{deepest} vs depth{base_depth} @shards{s}, {c} conns: {:.2}x",
                            deep / base
                        );
                    }
                }
            }
        }
    }

    let json = to_json(&series, &extras);
    std::fs::write(&out_path, &json).expect("write BENCH_pipeline.json");
    eprintln!("# wrote {out_path}");
}
