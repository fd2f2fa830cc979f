//! Work-crew throughput/latency harness: writes `BENCH_pool.json`.
//!
//! Puts an **unrestricted** pool and a **Malthusian** (concurrency
//! restricting) pool under the saturated KV workload of
//! [`malthus_workloads::pool_saturation`] at rising oversubscription
//! — `factor × host CPUs` workers for each factor in the sweep — and
//! records throughput plus p50/p99 submit-to-completion latency for
//! both. Cells are interleaved (unrestricted, Malthusian, repeat)
//! so host drift biases both series equally, and the reported cell is
//! the median of `MALTHUS_BENCH_TRIALS` rounds.
//!
//! Environment knobs:
//!
//! * `MALTHUS_POOL_FACTORS` — comma-separated oversubscription
//!   factors (default `1,2,4`).
//! * `MALTHUS_BENCH_MS` — measurement interval per cell in
//!   milliseconds (default 400).
//! * `MALTHUS_BENCH_TRIALS` — rounds per cell (default 3).
//! * `MALTHUS_BENCH_OUT` — output path (default `BENCH_pool.json`).

use std::time::Duration;

use malthus_bench::livebench::median;
use malthus_bench::sweep::host_cpus;
use malthus_bench::{env_sweep, env_u64};
use malthus_pool::{Admission, PoolConfig};
use malthus_workloads::pool_saturation::{run_pool_saturation, SaturationReport, SaturationShape};

/// One measured cell, median-of-trials.
struct Cell {
    ops_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    culls: u64,
    reprovisions: u64,
    promotions: u64,
}

/// Median of a per-round counter, so every cell value shares one
/// provenance (the median round) instead of mixing median throughput
/// with last-round admission counters.
fn median_u64(rounds: &[SaturationReport], pick: impl Fn(&SaturationReport) -> u64) -> u64 {
    median(rounds.iter().map(|r| pick(r) as f64).collect()).round() as u64
}

fn summarize(rounds: &[SaturationReport]) -> Cell {
    Cell {
        ops_per_sec: median(rounds.iter().map(|r| r.ops_per_sec).collect()),
        p50_us: median(rounds.iter().map(|r| r.p50.as_secs_f64() * 1e6).collect()),
        p99_us: median(rounds.iter().map(|r| r.p99.as_secs_f64() * 1e6).collect()),
        culls: median_u64(rounds, |r| r.pool.members.culls),
        reprovisions: median_u64(rounds, |r| r.pool.members.reprovisions),
        promotions: median_u64(rounds, |r| r.pool.members.fairness_promotions),
    }
}

fn cell_json(c: &Cell) -> String {
    format!(
        "{{\"ops_per_sec\": {:.2}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
         \"culls\": {}, \"reprovisions\": {}, \"promotions\": {}}}",
        c.ops_per_sec, c.p50_us, c.p99_us, c.culls, c.reprovisions, c.promotions
    )
}

fn main() {
    let factors = env_sweep("MALTHUS_POOL_FACTORS", &[1, 2, 4]);
    let interval = Duration::from_millis(env_u64("MALTHUS_BENCH_MS", 400));
    let trials = env_u64("MALTHUS_BENCH_TRIALS", 3).max(1) as usize;
    let out_path =
        std::env::var("MALTHUS_BENCH_OUT").unwrap_or_else(|_| "BENCH_pool.json".to_string());
    let cpus = host_cpus().max(1);
    let queue_bound = 64;
    let shape = SaturationShape::default();

    eprintln!(
        "# bench_pool: factors {factors:?}, {} ms interval, {trials} trials, {cpus} host CPUs",
        interval.as_millis()
    );

    // Interleaved rounds: (factor, variant) cells all measured once
    // per round, then repeated.
    let mut unrestricted: Vec<Vec<SaturationReport>> = vec![Vec::new(); factors.len()];
    let mut malthusian: Vec<Vec<SaturationReport>> = vec![Vec::new(); factors.len()];
    for round in 0..trials {
        for (i, &factor) in factors.iter().enumerate() {
            let workers = (cpus * factor).max(factor);
            unrestricted[i].push(run_pool_saturation(
                PoolConfig::new(Admission::unrestricted(workers), queue_bound),
                interval,
                shape,
            ));
            malthusian[i].push(run_pool_saturation(
                PoolConfig::malthusian(workers, queue_bound),
                interval,
                shape,
            ));
            eprintln!(
                "# round {}/{trials}: {factor}x ({workers} workers) done",
                round + 1
            );
        }
    }

    println!(
        "{:<6} {:>8} {:>14} {:>10} {:>10}   {:>14} {:>10} {:>10}",
        "factor",
        "workers",
        "unrest ops/s",
        "p50 us",
        "p99 us",
        "malthus ops/s",
        "p50 us",
        "p99 us"
    );
    let mut rows = Vec::new();
    for (i, &factor) in factors.iter().enumerate() {
        let workers = (cpus * factor).max(factor);
        let u = summarize(&unrestricted[i]);
        let m = summarize(&malthusian[i]);
        println!(
            "{:<6} {:>8} {:>14.0} {:>10.1} {:>10.1}   {:>14.0} {:>10.1} {:>10.1}",
            format!("{factor}x"),
            workers,
            u.ops_per_sec,
            u.p50_us,
            u.p99_us,
            m.ops_per_sec,
            m.p50_us,
            m.p99_us
        );
        rows.push((factor, workers, u, m));
    }

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"host_cpus\": {cpus},\n"));
    json.push_str(&format!("  \"queue_bound\": {queue_bound},\n"));
    json.push_str("  \"oversubscription\": {\n");
    for (i, (factor, workers, u, m)) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        json.push_str(&format!(
            "    \"{factor}x\": {{\"workers\": {workers}, \"unrestricted\": {}, \
             \"malthusian\": {}}}{comma}\n",
            cell_json(u),
            cell_json(m)
        ));
    }
    json.push_str("  },\n");
    let speedups: Vec<String> = rows
        .iter()
        .map(|(factor, _, u, m)| format!("\"{factor}x\": {:.3}", m.ops_per_sec / u.ops_per_sec))
        .collect();
    json.push_str(&format!(
        "  \"malthusian_vs_unrestricted_throughput\": {{{}}}\n",
        speedups.join(", ")
    ));
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_pool.json");
    eprintln!("# wrote {out_path}");
}
