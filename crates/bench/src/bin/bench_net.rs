//! `bench_net` — pipelined-KV throughput of the **reactor front-end**
//! over real loopback TCP: writes `BENCH_net.json`.
//!
//! Same sweep geometry as `bench_pipeline` (pipeline depth ×
//! connection count × shard count, windowed tagged clients), but
//! every cell boots `serve_async` — readiness-driven reactor workers
//! with Malthusian poll admission — instead of thread-per-connection
//! `server::serve`. Series keep the `depth<D>@shards<S>` names and the
//! same connection-count cells, so `bench_compare BENCH_net.json
//! BENCH_pipeline.json` lines the two front-ends up cell for cell;
//! CI gates the threaded front-end (whose cheap batches run in place
//! under a lent crew slot) at `--fail-below 1.0` of this one.
//!
//! Each cell also records exclusive DB-lock episodes per server-side
//! write and the mean drained batch size: the reactor drains a ready
//! connection as one batch, so the amortization evidence should
//! match the threaded path's, not just the headline ops/s.
//!
//! Environment knobs (same family as `bench_pipeline`):
//!
//! * `MALTHUS_PIPE_DEPTHS` — comma-separated depths (default
//!   `1,4,16`).
//! * `MALTHUS_PIPE_SHARDS` — shard counts (default `1,4`).
//! * `MALTHUS_THREAD_SWEEP` — connection counts (default `2,4`).
//! * `MALTHUS_PIPE_PUT_PCT` — PUT percentage (default 20).
//! * `MALTHUS_PIPE_KEYS` — key-space size (default 10000).
//! * `MALTHUS_BENCH_MS` — interval per cell in ms (default 300).
//! * `MALTHUS_BENCH_TRIALS` — trials per cell (default 5).
//! * `MALTHUS_BENCH_OUT` — output path (default `BENCH_net.json`).

use malthus_bench::livebench::{median, rel_spread, to_json, Series};
use malthus_bench::{env_sweep, env_u64, thread_sweep};
use malthus_workloads::pipeline::{run_pipeline_loop_async, PipelineShape};

/// One full measurement of (depth, shards, conns) against the
/// reactor: returns `(ops/s, exclusive episodes per write, mean
/// drained batch)`.
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
    let report = run_pipeline_loop_async(shards, conns, interval_ms as f64 / 1_000.0, shape, seed);
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
        std::env::var("MALTHUS_BENCH_OUT").unwrap_or_else(|_| "BENCH_net.json".to_string());
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let n_trials = malthus_bench::livebench::trials();

    eprintln!(
        "# bench_net: reactor front-end, depths {depths:?} x conns {conns:?} x shards \
         {shard_counts:?}, {put_pct}% PUT, {interval_ms} ms per cell, {n_trials} trials, \
         {host_cpus} host CPUs"
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
                let seed = 0x4E45_0000 + (round * 1_000 + i * 10 + j) as u64;
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

    // Per-cell admission diagnostics, median over trials.
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
        ("front_end".to_string(), "\"reactor\"".to_string()),
        ("exclusive_episodes_per_write".to_string(), cell_map(&excl)),
        ("mean_drained_batch".to_string(), cell_map(&batch)),
        ("host_cpus".to_string(), host_cpus.to_string()),
        ("depth_sweep".to_string(), format!("[{}]", list(&depths))),
        (
            "shard_sweep".to_string(),
            format!("[{}]", list(&shard_counts)),
        ),
        ("threads_swept".to_string(), format!("[{}]", list(&conns))),
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

    let json = to_json(&series, &extras);
    std::fs::write(&out_path, &json).expect("write BENCH_net.json");
    eprintln!("# wrote {out_path}");
}
