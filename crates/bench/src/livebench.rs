//! Wall-clock measurement harness for the *live* lock implementations.
//!
//! Dependency-free (the container ships no criterion): plain
//! `Instant`-based timing with warmup, used by the `bench_locks`
//! binary and the `cargo bench` targets. Absolute host numbers are not
//! comparable to the paper's T5; orderings and refactor deltas are.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use malthus::RawLock;

/// Measures single-thread lock/unlock latency in nanoseconds per
/// operation (one op = one acquire + one release).
pub fn uncontended_ns_per_op<L: RawLock + ?Sized>(lock: &L, iters: u64) -> f64 {
    // Warmup: populate the node arena / branch predictors.
    for _ in 0..(iters / 10).max(1) {
        lock.lock();
        // SAFETY: acquired on the line above, same thread.
        unsafe { lock.unlock() };
    }
    let start = Instant::now();
    for _ in 0..iters {
        lock.lock();
        // SAFETY: acquired on the line above, same thread.
        unsafe { lock.unlock() };
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Measures contended throughput of an arbitrary lock/unlock closure
/// in operations per second: `threads` threads run `op` in a loop for
/// (at least) `interval_ms` after a barrier.
///
/// Timing is taken *inside* each worker (own start/stop stamps) and
/// the span is `max(stop) - min(start)`: on an oversubscribed host the
/// coordinating thread can be descheduled around the barrier for
/// longer than the whole measurement, so its clock cannot be trusted.
pub fn contended_ops_per_sec_with(
    op: Arc<dyn Fn() + Send + Sync>,
    threads: usize,
    interval_ms: u64,
) -> f64 {
    let barrier = Arc::new(Barrier::new(threads + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let op = Arc::clone(&op);
            let barrier = Arc::clone(&barrier);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                barrier.wait();
                let start = Instant::now();
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    op();
                    ops += 1;
                }
                (start, Instant::now(), ops)
            })
        })
        .collect();
    barrier.wait();
    std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    stop.store(true, Ordering::Relaxed);
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let first_start = results.iter().map(|r| r.0).min().unwrap();
    let last_stop = results.iter().map(|r| r.1).max().unwrap();
    let total_ops: u64 = results.iter().map(|r| r.2).sum();
    let elapsed = last_stop.duration_since(first_start).as_secs_f64();
    total_ops as f64 / elapsed.max(f64::EPSILON)
}

/// [`contended_ops_per_sec_with`] specialized to a [`RawLock`]: each
/// operation is one acquire + token critical section + release.
pub fn contended_ops_per_sec<L: RawLock + ?Sized + 'static>(
    lock: Arc<L>,
    threads: usize,
    interval_ms: u64,
) -> f64 {
    let op: Arc<dyn Fn() + Send + Sync> = Arc::new(move || {
        lock.lock();
        // A token critical section so the queue machinery
        // (culling/reprovisioning) is actually exercised.
        std::hint::black_box(());
        // SAFETY: acquired on the line above, same thread.
        unsafe { lock.unlock() };
    });
    contended_ops_per_sec_with(op, threads, interval_ms)
}

/// One measured series: a lock name and its per-thread-count results.
#[derive(Debug, Clone)]
pub struct Series {
    /// Lock label (e.g. `MCSCR-STP`).
    pub name: String,
    /// Uncontended latency, ns per lock/unlock pair.
    pub uncontended_ns: f64,
    /// `(threads, ops_per_sec)` pairs of the contended sweep.
    pub contended: Vec<(usize, f64)>,
    /// `(threads, (max-min)/median)` relative spread across the
    /// trials of each contended cell: the noise floor of that cell.
    /// On a host where `threads > host_cpus` the cell is scheduler-
    /// bound and the spread shows it — downstream comparisons should
    /// discount such cells (see `oversubscribed_threads` in the
    /// emitted JSON).
    pub contended_spread: Vec<(usize, f64)>,
}

/// Number of repetitions per contended cell; the reported figure is
/// the median, which shrugs off scheduler noise on oversubscribed
/// hosts. Override with `MALTHUS_BENCH_TRIALS`.
pub const DEFAULT_TRIALS: usize = 5;

/// Number of trials per cell, honouring `MALTHUS_BENCH_TRIALS`. For
/// a `main` to call: the harness takes the count as a parameter.
pub fn trials() -> usize {
    std::env::var("MALTHUS_BENCH_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&t| t > 0)
        .unwrap_or(DEFAULT_TRIALS)
}

/// Median of a sample (upper median for even lengths); the cell
/// aggregator shared by the bench binaries.
///
/// # Panics
///
/// Panics if `xs` is empty or contains NaN.
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// Relative spread of a cell's trials: `(max - min) / median`.
/// Zero for a single trial; the measure of how much scheduler noise
/// the median had to shrug off.
pub fn rel_spread(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = median(xs.to_vec());
    if m <= 0.0 {
        return 0.0;
    }
    let max = xs.iter().cloned().fold(f64::MIN, f64::max);
    let min = xs.iter().cloned().fold(f64::MAX, f64::min);
    (max - min) / m
}

/// Serializes measured series (plus an optional extras map) as the
/// `BENCH_locks.json` document. Hand-rolled JSON — no serde in the
/// container.
pub fn to_json(series: &[Series], extras: &[(&str, String)]) -> String {
    fn num(x: f64) -> String {
        if x.is_finite() {
            format!("{x:.2}")
        } else {
            "null".to_string()
        }
    }
    let mut out = String::from("{\n");
    // A sweep with no single-thread latency cell (every value NaN)
    // leaves the section out instead of writing a map of `null`s.
    if series.iter().any(|s| s.uncontended_ns.is_finite()) {
        out.push_str("  \"uncontended_ns_per_op\": {\n");
        for (i, s) in series.iter().enumerate() {
            let comma = if i + 1 < series.len() { "," } else { "" };
            out.push_str(&format!(
                "    \"{}\": {}{}\n",
                s.name,
                num(s.uncontended_ns),
                comma
            ));
        }
        out.push_str("  },\n");
    }
    out.push_str("  \"contended_ops_per_sec\": {\n");
    for (i, s) in series.iter().enumerate() {
        let comma = if i + 1 < series.len() { "," } else { "" };
        let body: Vec<String> = s
            .contended
            .iter()
            .map(|(t, ops)| format!("\"{t}\": {}", num(*ops)))
            .collect();
        out.push_str(&format!(
            "    \"{}\": {{{}}}{}\n",
            s.name,
            body.join(", "),
            comma
        ));
    }
    out.push_str("  },\n");
    // Per-cell trial spread so downstream comparisons can weigh cells
    // by their noise floor instead of trusting every median equally.
    out.push_str("  \"contended_rel_spread\": {\n");
    for (i, s) in series.iter().enumerate() {
        let comma = if i + 1 < series.len() { "," } else { "" };
        let body: Vec<String> = s
            .contended_spread
            .iter()
            .map(|(t, spread)| format!("\"{t}\": {spread:.3}"))
            .collect();
        out.push_str(&format!(
            "    \"{}\": {{{}}}{}\n",
            s.name,
            body.join(", "),
            comma
        ));
    }
    out.push_str("  }");
    for (k, v) in extras {
        out.push_str(&format!(",\n  \"{k}\": {v}"));
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::Sweep;
    use malthus::McsLock;

    #[test]
    fn harness_measures_positive_numbers() {
        let sweep = Sweep {
            series: vec![("MCS-STP".to_string(), McsLock::stp as fn() -> McsLock)],
            cells: vec![1, 2],
            trials: 1,
            axes: Vec::new(),
        };
        let out = sweep.run(
            Some(&mut |mk| uncontended_ns_per_op(&mk(), 1_000)),
            &mut |mk, threads, _| contended_ops_per_sec(Arc::new(mk()), threads, 20),
        );
        assert_eq!(out.series.len(), 1);
        let s = &out.series[0];
        assert!(s.uncontended_ns > 0.0);
        assert_eq!(s.contended.len(), 2);
        assert!(s.contended.iter().all(|&(_, ops)| ops > 0.0));
        // One trial: spreads recorded, all zero.
        assert_eq!(s.contended_spread.len(), 2);
        assert!(s.contended_spread.iter().all(|&(_, sp)| sp == 0.0));
    }

    #[test]
    fn rel_spread_captures_trial_noise() {
        assert_eq!(rel_spread(&[100.0]), 0.0);
        assert!((rel_spread(&[90.0, 100.0, 110.0]) - 0.2).abs() < 1e-12);
        assert_eq!(rel_spread(&[]), 0.0);
    }

    #[test]
    fn json_shape_is_well_formed() {
        let s = Series {
            name: "X".into(),
            uncontended_ns: 12.5,
            contended: vec![(1, 100.0), (4, 50.0)],
            contended_spread: vec![(1, 0.05), (4, 0.8)],
        };
        let j = to_json(std::slice::from_ref(&s), &[("note", "\"hi\"".into())]);
        assert!(j.contains("\"X\": 12.50"));
        assert!(j.contains("\"1\": 100.00, \"4\": 50.00"));
        assert!(j.contains("contended_rel_spread"));
        assert!(j.contains("\"1\": 0.050, \"4\": 0.800"));
        assert!(j.contains("\"note\": \"hi\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        // A sweep that measured no single-thread latency says nothing
        // about it, rather than `null` per series.
        let unmeasured = Series {
            uncontended_ns: f64::NAN,
            ..s
        };
        let j = to_json(&[unmeasured], &[]);
        assert!(!j.contains("uncontended_ns_per_op") && !j.contains("null"));
        assert!(crate::compare::parse(&j).is_ok());
    }
}
