//! `bench_wal` — group-commit durability sweep over real loopback
//! TCP: writes `BENCH_wal.json`.
//!
//! Sweeps **pipeline depth × connection count** with the
//! `workloads::pipeline` live loop against a **durable** store
//! (`run_pipeline_loop_durable`): each cell boots a fresh `server::serve`
//! instance over a fresh temporary data directory, drives it with
//! windowed tagged clients at 100% PUT (every op pays the WAL), and
//! tears both down. Series are named `depth<D>@shards<S>`, one
//! contended cell per connection count, interleaved
//! median-of-trials — the `BENCH_locks.json` shape every other bench
//! binary emits, so `bench_compare` consumes it unchanged.
//!
//! The headline metric is **fsyncs per acked write** (the
//! `fsyncs_per_write` extras map): 1.0 at depth 1 — every PUT pays
//! its own group commit — and far below it once drain-per-wakeup
//! batching lets one fsync cover a whole per-shard write group. The
//! ops/s series shows what that amortization buys in throughput.
//!
//! Environment knobs:
//!
//! * `MALTHUS_WAL_DEPTHS` — comma-separated depths (default
//!   `1,4,16`).
//! * `MALTHUS_WAL_SHARDS` — shard counts (default `1`: one WAL, the
//!   hardest group-commit case).
//! * `MALTHUS_THREAD_SWEEP` — connection counts (default `2,4`).
//! * `MALTHUS_WAL_KEYS` — key-space size (default 10000).
//! * `MALTHUS_BENCH_MS` — interval per cell in ms (default 300).
//! * `MALTHUS_BENCH_TRIALS` — trials per cell (default 5).
//! * `MALTHUS_BENCH_OUT` — output path (default `BENCH_wal.json`).

use std::path::PathBuf;

use malthus_bench::livebench::{median, rel_spread, to_json, Series};
use malthus_bench::{env_sweep, env_u64, thread_sweep};
use malthus_workloads::pipeline::{run_pipeline_loop_durable, PipelineShape};

/// A fresh, collision-free data directory for one measurement cell.
/// Seed-keyed (the harness avoids wall-clock entropy) plus pid so
/// concurrent bench runs cannot collide.
fn fresh_dir(seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("malthus-bench-wal-{}-{seed:x}", std::process::id()))
}

/// One full measurement of (depth, shards, conns) on a fresh data
/// directory: returns `(ops/s, fsyncs per write, mean drained
/// batch)`.
fn measure_cell(
    depth: usize,
    shards: usize,
    conns: usize,
    interval_ms: u64,
    keys: u64,
    seed: u64,
) -> (f64, f64, f64) {
    let dir = fresh_dir(seed);
    let _ = std::fs::remove_dir_all(&dir);
    // 100% PUT: every operation must reach the log, so the
    // fsyncs-per-write ratio is undiluted by reads.
    let shape = PipelineShape::new(keys, 100, depth);
    let report = run_pipeline_loop_durable(
        &dir,
        shards,
        conns,
        interval_ms as f64 / 1_000.0,
        shape,
        seed,
    )
    .expect("open fresh WAL dir");
    let _ = std::fs::remove_dir_all(&dir);
    let secs = report.elapsed_secs.max(f64::EPSILON);
    (
        report.ops() as f64 / secs,
        report.fsyncs_per_write(),
        report.mean_batch(),
    )
}

fn main() {
    let depths = env_sweep("MALTHUS_WAL_DEPTHS", &[1, 4, 16]);
    let shard_counts = env_sweep("MALTHUS_WAL_SHARDS", &[1]);
    let conns = thread_sweep(&[2, 4]);
    let keys = env_u64("MALTHUS_WAL_KEYS", 10_000).max(1);
    let interval_ms = env_u64("MALTHUS_BENCH_MS", 300);
    let out_path =
        std::env::var("MALTHUS_BENCH_OUT").unwrap_or_else(|_| "BENCH_wal.json".to_string());
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let n_trials = malthus_bench::livebench::trials();

    eprintln!(
        "# bench_wal: depths {depths:?} x conns {conns:?} x shards {shard_counts:?}, \
         100% PUT (durable), {interval_ms} ms per cell, {n_trials} trials, {host_cpus} host CPUs"
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
    let mut fsync: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); conns.len()]; series_defs.len()];
    let mut batch: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); conns.len()]; series_defs.len()];
    for round in 0..n_trials {
        for (i, (_, depth, shards)) in series_defs.iter().enumerate() {
            for (j, &c) in conns.iter().enumerate() {
                let seed = 0x7A1_0000 + (round * 1_000 + i * 10 + j) as u64;
                let (o, f, b) = measure_cell(*depth, *shards, c, interval_ms, keys, seed);
                ops[i][j].push(o);
                fsync[i][j].push(f);
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

    // Per-cell durability diagnostics: fsyncs per acked write and
    // mean drained batch, median over trials.
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
        ("fsyncs_per_write".to_string(), cell_map(&fsync)),
        ("mean_drained_batch".to_string(), cell_map(&batch)),
        ("host_cpus".to_string(), host_cpus.to_string()),
        ("depth_sweep".to_string(), format!("[{}]", list(&depths))),
        (
            "shard_sweep".to_string(),
            format!("[{}]", list(&shard_counts)),
        ),
        ("threads_swept".to_string(), format!("[{}]", list(&conns))),
        ("put_pct".to_string(), "100".to_string()),
        ("keys".to_string(), keys.to_string()),
    ];

    println!(
        "{:<18} {}",
        "series",
        conns
            .iter()
            .map(|c| format!("{c:>24}C"))
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
                    "{o:>10.0}/s (b={:.1} f={:.3})",
                    median(batch[i][j].clone()),
                    median(fsync[i][j].clone())
                )
            })
            .collect();
        println!("{:<18} {}", s.name, cells.join(" "));
    }
    println!("# b = mean drained batch, f = fsyncs per acked write");

    // The headline ratio: fsync amortization at the deepest depth.
    if let Some(&base_depth) = depths.iter().min() {
        let deepest = *depths.iter().max().unwrap();
        if deepest > base_depth {
            for (si, &s) in shard_counts.iter().enumerate() {
                for (j, &c) in conns.iter().enumerate() {
                    let deep_i = depths.iter().position(|&d| d == deepest).unwrap()
                        * shard_counts.len()
                        + si;
                    println!(
                        "# depth{deepest} @shards{s}, {c} conns: {:.3} fsyncs per acked write",
                        median(fsync[deep_i][j].clone())
                    );
                }
            }
        }
    }

    let json = to_json(&series, &extras);
    std::fs::write(&out_path, &json).expect("write BENCH_wal.json");
    eprintln!("# wrote {out_path}");
}
