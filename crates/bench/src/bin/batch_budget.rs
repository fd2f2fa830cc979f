//! `batch_budget` — where a batch spends its CPU, before and after a
//! change, as the markdown table the README carries.
//!
//! ```sh
//! bash benchmark/run.sh --workload front_reactor --seed 7 --seconds 30 --trace 1
//! batch_budget <before>/result_front_reactor_trace1.json \
//!              benchmark/out/result_front_reactor_trace1.json
//! ```
//!
//! Both inputs are `--trace 1` result files of the end-to-end
//! benchmark (`benchmark/out/result_<workload>_trace1.json`), one per
//! commit; every cell is read from their `metrics` objects, nothing is
//! typed by hand.
//!
//! Exit status: 0 on success, 2 on unreadable input or a missing
//! metric.

use malthus_bench::compare::{parse_file, Json};

/// The rows: a step of the batch path, the per-layer metric that times
/// it, and what that metric covers.
const ROWS: [(&str, &str, &str); 7] = [
    (
        "read",
        "pool.stage_read_ns_per_op",
        "readiness → batch parsed: UTF-8 check, tokenizer, batch bookkeeping (span stage)",
    ),
    (
        "parse",
        "pool.parse_ns_per_req",
        "`Parsed::from_line` over a window's lines, replayed in-process (probe)",
    ),
    (
        "exec + render",
        "storage.stage_exec_ns_per_op",
        "`apply_batch_span`: group, execute under the shard locks, render (span stage)",
    ),
    (
        "exec",
        "storage.execute_batch_ns_per_op",
        "`execute_batch` alone, replayed in-process (probe)",
    ),
    (
        "render",
        "pool.kv_self_ns_per_op",
        "`apply_batch` minus `execute_batch`: tags, replies, the `ops` vector (probe)",
    ),
    (
        "flush",
        "pool.stage_flush_ns_per_op",
        "the response `write()`, loopback delivery included (span stage)",
    ),
    (
        "whole server",
        "proc.server_cpu_ns_per_op",
        "user + system CPU of the process; the socket `read()` and the epoll re-arm show here only",
    ),
];

fn load(path: &str) -> Json {
    parse_file(path).unwrap_or_else(|e| {
        eprintln!("batch_budget: {e}");
        std::process::exit(2);
    })
}

fn metric(doc: &Json, path: &str, name: &str) -> f64 {
    doc.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| {
            eprintln!("batch_budget: {path} has no metric {name} (is it a --trace 1 result?)");
            std::process::exit(2);
        })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [before_path, after_path] = args.as_slice() else {
        eprintln!("usage: batch_budget <before_trace1.json> <after_trace1.json>");
        std::process::exit(2);
    };
    let (before, after) = (load(before_path), load(after_path));
    println!("| step | before ns/op | after ns/op | metric | covers |");
    println!("|---|---:|---:|---|---|");
    for (step, name, covers) in ROWS {
        let (b, a) = (
            metric(&before, before_path, name),
            metric(&after, after_path, name),
        );
        println!("| {step} | {b:.0} | {a:.0} | `{name}` | {covers} |");
    }
}
