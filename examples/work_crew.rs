//! Work crew: concurrency restriction one layer above the lock.
//!
//! Oversubscribes the host 4× with pool workers, then compares an
//! unrestricted pool against the Malthusian crew on the same saturated
//! KV task stream — the executor-level rendition of the paper's §7
//! claim that CR "can be applied to any contended resource".
//!
//! Run with `cargo run --release --example work_crew`.

use std::time::Duration;

use malthusian::pool::{Admission, PoolConfig};
use malthusian::workloads::pool_saturation::{run_pool_saturation, SaturationShape};

fn main() {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = cpus * 4;
    let interval = Duration::from_millis(
        std::env::var("MALTHUS_BENCH_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(300),
    );
    let shape = SaturationShape::default();

    println!("work crew at 4x oversubscription: {workers} workers on {cpus} CPU(s)\n");
    for (label, cfg) in [
        (
            "unrestricted",
            PoolConfig::new(Admission::unrestricted(workers), 64),
        ),
        ("malthusian", PoolConfig::malthusian(workers, 64)),
    ] {
        let r = run_pool_saturation(cfg, interval, shape);
        println!(
            "{label:<13} {:>10.0} ops/s   p50 {:>7.1} us   p99 {:>7.1} us   \
             culls {:>4}  reprovisions {:>3}  promotions {:>4}",
            r.ops_per_sec,
            r.p50.as_secs_f64() * 1e6,
            r.p99.as_secs_f64() * 1e6,
            r.pool.members.culls,
            r.pool.members.reprovisions,
            r.pool.members.fairness_promotions,
        );
    }
    println!(
        "\nThe Malthusian crew keeps only ~{cpus} worker(s) circulating; the rest park on\n\
         a LIFO passive stack, reprovisioned on stalls and rotated episodically for\n\
         long-term fairness."
    );
}
