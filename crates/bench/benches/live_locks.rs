//! Micro-benchmarks of the *live* lock implementations
//! (`cargo bench --bench live_locks`).
//!
//! Dependency-free (`harness = false`): measures uncontended
//! acquire/release latency and 4-thread contended throughput for each
//! algorithm, with `std::sync::Mutex` as the external baseline.
//! Absolute host numbers are not comparable to the paper's T5;
//! orderings are.

use std::sync::Arc;
use std::time::Instant;

use malthus::{McsCrLock, McsLock, RawLock, TasLock};
use malthus_bench::livebench::{
    contended_ops_per_sec, contended_ops_per_sec_with, uncontended_ns_per_op,
};

const UNCONTENDED_ITERS: u64 = 200_000;
const CONTENDED_MS: u64 = 150;
const CONTENDED_THREADS: usize = 4;

fn bench_raw<L: RawLock + 'static>(name: &str, mk: impl Fn() -> L) {
    let ns = uncontended_ns_per_op(&mk(), UNCONTENDED_ITERS);
    let ops = contended_ops_per_sec(Arc::new(mk()), CONTENDED_THREADS, CONTENDED_MS);
    println!("{name:<22} {ns:>10.1} ns/op   {ops:>12.0} ops/s @{CONTENDED_THREADS}T");
}

fn main() {
    println!(
        "# live lock micro-benchmarks ({} host CPUs)",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("{:<22} {:>13}   {:>20}", "lock", "uncontended", "contended");

    bench_raw("TAS", TasLock::new);
    bench_raw("MCS-S", McsLock::spin);
    bench_raw("MCS-STP", McsLock::stp);
    bench_raw("MCSCR-S", McsCrLock::spin);
    bench_raw("MCSCR-STP", McsCrLock::stp);

    // std::sync::Mutex reference point (not a RawLock — its guard is
    // scoped — so it goes through the closure-based harness variant).
    let std_mutex = std::sync::Mutex::new(());
    let start = Instant::now();
    for _ in 0..UNCONTENDED_ITERS {
        drop(std_mutex.lock().unwrap());
    }
    let ns = start.elapsed().as_nanos() as f64 / UNCONTENDED_ITERS as f64;

    let m = Arc::new(std::sync::Mutex::new(()));
    let op: Arc<dyn Fn() + Send + Sync> = Arc::new(move || drop(m.lock().unwrap()));
    let ops = contended_ops_per_sec_with(op, CONTENDED_THREADS, CONTENDED_MS);
    println!(
        "{:<22} {ns:>10.1} ns/op   {ops:>12.0} ops/s @{CONTENDED_THREADS}T",
        "std::sync::Mutex"
    );
}
