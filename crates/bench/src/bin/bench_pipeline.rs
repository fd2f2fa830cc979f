//! `bench_pipeline` — pipelined-KV throughput sweep of the
//! **threaded front-end** (`Front::Threaded`: thread-per-connection
//! readers, cheap batches applied in place under a lent crew slot)
//! over real loopback TCP: writes `BENCH_pipeline.json`.
//!
//! The sweep, its series names, its diagnostics and its knobs are
//! [`malthus_bench::pipebench`]'s; `bench_net` runs the same cells
//! against the reactor, so `bench_compare BENCH_net.json
//! BENCH_pipeline.json` lines the two front-ends up cell for cell.

use malthus_bench::pipebench::run_front_end_sweep;
use malthus_workloads::pipeline::FrontEnd;

fn main() {
    run_front_end_sweep(FrontEnd::Threaded, "BENCH_pipeline.json");
}
