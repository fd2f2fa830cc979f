//! `bench_net` — pipelined-KV throughput sweep of the **reactor
//! front-end** (`Front::Reactor`: readiness-driven reactor workers with
//! Malthusian poll admission) over real loopback TCP: writes
//! `BENCH_net.json`.
//!
//! The sweep, its series names, its diagnostics and its knobs are
//! [`malthus_bench::pipebench`]'s, shared with `bench_pipeline`, so
//! `bench_compare BENCH_net.json BENCH_pipeline.json` lines the two
//! front-ends up cell for cell; CI gates the threaded front-end
//! (whose cheap batches run in place under a lent crew slot) at
//! `--fail-below 1.0` of this one. The reactor drains a ready
//! connection as one batch, so the amortization evidence should match
//! the threaded path's, not just the headline ops/s.

use malthus_bench::pipebench::run_front_end_sweep;
use malthus_workloads::pipeline::FrontEnd;

fn main() {
    run_front_end_sweep(FrontEnd::Reactor, "BENCH_net.json");
}
