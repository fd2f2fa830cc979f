//! Shared harness plumbing for the figure/table binaries.
//!
//! Every binary regenerates one figure or table from the paper's
//! evaluation (§6) on the simulated T5 (README, "Regenerating the
//! paper's figures"). Output is a plain-text table: thread count on
//! the first column, one series per lock, matching the figure's
//! legend. `MALTHUS_SIM_SECONDS` scales
//! the simulated measurement interval (default 0.02 s; the paper used
//! 10 s on real hardware — shapes converge long before that in the
//! deterministic simulator).

#![warn(missing_docs)]

pub mod compare;
pub mod livebench;
pub mod rwbench;
pub mod sweep;

use malthus_machinesim::{RunReport, Simulation};
use malthus_metrics::{format_table, Column};
use malthus_workloads::LockChoice;

/// The default simulated measurement interval in seconds.
pub const DEFAULT_SIM_SECONDS: f64 = 0.02;

/// The thread counts swept by the line figures (log-ish spacing, as
/// in the paper's log-scale X axis).
pub const THREAD_SWEEP: [usize; 10] = [1, 2, 5, 8, 16, 32, 64, 128, 192, 256];

/// Returns the simulated interval, honouring `MALTHUS_SIM_SECONDS`.
pub fn sim_seconds() -> f64 {
    std::env::var("MALTHUS_SIM_SECONDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SIM_SECONDS)
}

/// Reads a `u64` environment knob, falling back to `default` when the
/// variable is unset or unparsable. Shared by the bench binaries.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads a comma-separated list of positive integers from the
/// environment variable `name`, falling back to `default` when the
/// variable is unset — with a warning (not a silent fallback) when it
/// is set but unusable, so a typo'd CI override cannot quietly run a
/// full-size sweep.
pub fn env_sweep(name: &str, default: &[usize]) -> Vec<usize> {
    match std::env::var(name) {
        Ok(v) => {
            let parsed: Vec<usize> = v
                .split(',')
                .filter_map(|s| s.trim().parse().ok())
                .filter(|&t| t > 0)
                .collect();
            if parsed.is_empty() {
                eprintln!(
                    "warning: {name}={v:?} contains no positive integers; \
                     using default sweep {default:?}"
                );
                default.to_vec()
            } else {
                parsed
            }
        }
        Err(_) => default.to_vec(),
    }
}

/// Returns the thread counts to sweep: `MALTHUS_THREAD_SWEEP` (a
/// comma-separated list, e.g. `1,2,4`) when set and non-empty,
/// otherwise `default`. CI smoke runs use the override so figure
/// binaries don't sweep to 256 simulated threads.
pub fn thread_sweep(default: &[usize]) -> Vec<usize> {
    env_sweep("MALTHUS_THREAD_SWEEP", default)
}

/// Runs a figure: for each thread count and lock series, build a
/// simulation and report throughput; prints the paper-style table.
///
/// `threads` is the figure's default sweep; setting
/// `MALTHUS_THREAD_SWEEP` (see [`thread_sweep`]) overrides it for
/// every figure binary at once.
pub fn run_figure(
    title: &str,
    unit: &str,
    series: &[LockChoice],
    threads: &[usize],
    build: impl Fn(usize, LockChoice) -> Simulation,
) {
    let threads = thread_sweep(threads);
    println!("# {title}");
    println!("# Y axis: {unit}; simulated interval {} s\n", sim_seconds());
    let mut columns = vec![Column::right("threads")];
    for s in series {
        columns.push(Column::right(s.label()));
    }
    let mut rows = Vec::new();
    for &t in &threads {
        let mut row = vec![t.to_string()];
        for &s in series {
            let report = build(t, s).run(sim_seconds());
            row.push(format!("{:.0}", report.throughput()));
        }
        rows.push(row);
    }
    print!("{}", format_table(&columns, &rows));
}

/// Runs a single configuration and returns its report (used by the
/// table-style binaries).
pub fn run_one(build: impl Fn() -> Simulation) -> RunReport {
    build().run(sim_seconds())
}

/// Steady-state (post-warmup) average LWSS over 500-admission windows.
pub fn steady_lwss(history: &[u32]) -> f64 {
    if history.len() <= 500 {
        return malthus_metrics::AdmissionLog::from_history(history.to_vec()).average_lwss(500);
    }
    let tail = &history[500..];
    malthus_metrics::AdmissionLog::from_history(tail.to_vec()).average_lwss(500)
}

/// Steady-state median time to reacquire.
pub fn steady_mttr(history: &[u32]) -> Option<f64> {
    let tail = if history.len() > 500 {
        &history[500..]
    } else {
        history
    };
    malthus_metrics::AdmissionLog::from_history(tail.to_vec()).median_time_to_reacquire()
}
