//! Demonstrates the pipelined KV protocol end to end over real
//! loopback TCP: tagged requests with in-order echoed responses,
//! tagged/untagged interleaving on one connection, and — the point of
//! pipelining — a deep window tripling throughput over the depth-1
//! closed loop while the server's drained batches amortize exclusive
//! lock admissions (visible in the batch and admission counters).
//!
//! ```sh
//! cargo run --release --example kv_pipeline
//! # knobs: MALTHUS_BENCH_MS (live interval, default 300)
//! ```

use std::sync::Arc;

use malthusian::pool::{Front, KvClient, KvService, PoolConfig, Server, WorkCrew};
use malthusian::workloads::pipeline::{
    run_pipeline, FrontEnd, PipelineShape, CACHE_BLOCKS, MEMTABLE_LIMIT,
};

fn interval_ms() -> u64 {
    std::env::var("MALTHUS_BENCH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300)
}

fn main() {
    // A small live server for the wire-level tour.
    let crew = WorkCrew::new(PoolConfig::malthusian(4, 64).with_acs_target(1));
    let service = Arc::new(KvService::with_shards(2, 1_024, 4_096));
    let front = Front::Threaded(Arc::new(crew));
    let server = Server::start("127.0.0.1:0", service, front, None).expect("bind loopback");

    // A tagged burst: eight requests leave before any response is
    // read; the replies echo the tags in request order.
    let mut c = KvClient::connect(server.addr()).unwrap();
    for tag in 0..8u64 {
        c.send_tagged(tag, &format!("PUT {tag} {}", tag * 100))
            .unwrap();
    }
    for tag in 0..8u64 {
        let (got, resp) = c.recv_tagged().unwrap();
        assert_eq!((got, resp), (tag, "OK"));
    }
    println!("# 8-deep tagged burst: all tags echoed in order");

    // Tagged and untagged interleave on one connection; untagged
    // lines keep the byte-identical legacy framing.
    c.send_tagged(99, "GET 3").unwrap();
    c.send_line("GET 3").unwrap();
    println!("# interleaved: {:?}", c.recv_line().unwrap());
    println!("# interleaved: {:?}", c.recv_line().unwrap());
    let stats = c.roundtrip("STATS").unwrap().to_string();
    println!("# {stats}");
    assert!(stats.contains("pbatches="), "{stats}");
    drop(c);
    server.stop();

    // The A/B that motivates the protocol: same traffic at depth 1
    // and depth 16 (fresh server per run, 2 connections, 20% PUT).
    let seconds = interval_ms() as f64 / 1_000.0;
    println!(
        "\n{:<8} {:>12} {:>14} {:>12} {:>14}",
        "depth", "ops/s", "mean batch", "max batch", "excl/write"
    );
    let mut base = 0.0f64;
    for depth in [1usize, 16] {
        let report = run_pipeline(
            Arc::new(KvService::with_shards(2, MEMTABLE_LIMIT, CACHE_BLOCKS)),
            FrontEnd::Threaded,
            2,
            seconds,
            PipelineShape::new(10_000, 20, depth),
            0x9C0FFEE,
        );
        let ops_s = report.ops() as f64 / report.elapsed_secs.max(f64::EPSILON);
        println!(
            "{:<8} {:>12.0} {:>14.1} {:>12} {:>14.2}",
            depth,
            ops_s,
            report.mean_batch(),
            report.max_batch,
            report.exclusive_per_write()
        );
        assert_eq!(report.errors, 0);
        if depth == 1 {
            base = ops_s;
            assert_eq!(report.max_batch, 1, "depth 1 cannot batch");
        } else if base > 0.0 {
            println!("# depth 16 vs depth 1: {:.2}x", ops_s / base);
        }
    }
}
