//! `bench_compare` — noise-aware diff of two bench JSON documents.
//!
//! ```sh
//! bench_compare OLD.json NEW.json [--fail-below <ratio>]
//! ```
//!
//! Compares every contended cell present in both documents (works on
//! `BENCH_locks.json` and `BENCH_rwlock.json` alike) and reports the per-lock and overall **weighted
//! geometric-mean** speedup of NEW over OLD. Instead of trusting
//! every median equally, each cell's log-ratio is weighted by
//! `1 / (1 + spread_old + spread_new)` using the recorded
//! `contended_rel_spread`, and cells whose thread count
//! oversubscribed either host (`oversubscribed_threads`) are
//! additionally discounted ×0.25 — scheduler-bound cells may inform
//! the verdict but not dominate it.
//!
//! `--fail-below <ratio>` turns the tool into a CI regression gate:
//! when the overall weighted geomean comes out below `ratio` (e.g.
//! `0.95` = "NEW may be at most 5% slower than OLD"), the report is
//! still printed but the process exits with status 1. Both
//! documents' `host_cpus` are printed; when they differ the report
//! is still printed, but a gate across hosts is refused (status 2).
//!
//! Exit status: 0 on success, 1 when the `--fail-below` gate fires,
//! 2 on unreadable/unparsable input, disjoint documents, a gate
//! across hosts, or bad usage.

use malthus_bench::compare::{compare, parse_file, OVERSUBSCRIBED_DISCOUNT};

const USAGE: &str = "usage: bench_compare <old.json> <new.json> [--fail-below <ratio>]";

fn load(path: &str) -> malthus_bench::compare::Json {
    parse_file(path).unwrap_or_else(|e| {
        eprintln!("bench_compare: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut paths: Vec<&String> = Vec::new();
    let mut fail_below: Option<f64> = None;
    let mut i = 1;
    while i < args.len() {
        if args[i] == "--fail-below" {
            let ratio = args.get(i + 1).and_then(|v| v.parse::<f64>().ok());
            match ratio {
                Some(r) if r.is_finite() && r > 0.0 => fail_below = Some(r),
                _ => {
                    eprintln!("bench_compare: --fail-below needs a positive ratio");
                    eprintln!("{USAGE}");
                    std::process::exit(2);
                }
            }
            i += 2;
        } else {
            paths.push(&args[i]);
            i += 1;
        }
    }
    if paths.len() != 2 {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    let (old_path, new_path) = (paths[0], paths[1]);
    let old = load(old_path);
    let new = load(new_path);

    let report = compare(&old, &new).unwrap_or_else(|e| {
        eprintln!("bench_compare: {e}");
        std::process::exit(2);
    });

    println!("# {new_path} vs {old_path} (ratio > 1 means the new document is faster)");
    let cpus = |n: Option<u64>| n.map_or("unrecorded".to_string(), |n| n.to_string());
    let (old_cpus, new_cpus) = report.host_cpus;
    println!(
        "# host_cpus: old {}, new {}",
        cpus(old_cpus),
        cpus(new_cpus)
    );
    println!(
        "{:<28} {:>8} {:>14} {:>14} {:>8} {:>8}  flags",
        "lock", "threads", "old ops/s", "new ops/s", "ratio", "weight"
    );
    for c in &report.cells {
        println!(
            "{:<28} {:>8} {:>14.0} {:>14.0} {:>8.3} {:>8.3}  {}",
            c.lock,
            c.threads,
            c.a,
            c.b,
            c.ratio,
            c.weight,
            if c.oversubscribed {
                format!("oversubscribed (x{OVERSUBSCRIBED_DISCOUNT})")
            } else {
                String::new()
            }
        );
    }
    println!();
    println!("# weighted geomean speedup (spread-weighted, oversubscription-discounted)");
    for (lock, g) in &report.per_lock {
        println!("{lock:<28} {g:>8.3}");
    }
    println!("{:<28} {:>8.3}", "OVERALL", report.overall);

    if let Some(threshold) = fail_below {
        if !report.same_host() {
            eprintln!(
                "bench_compare: a gate across hosts is not a gate — the documents record \
                 different host_cpus, so --fail-below {threshold:.3} is refused"
            );
            std::process::exit(2);
        }
        // A NaN geomean (no finite cells) must fail the gate too.
        if report.overall.is_nan() || report.overall < threshold {
            eprintln!(
                "bench_compare: FAIL — overall weighted geomean {:.3} is below the \
                 --fail-below threshold {threshold:.3}",
                report.overall
            );
            std::process::exit(1);
        }
        eprintln!(
            "bench_compare: PASS — overall weighted geomean {:.3} >= {threshold:.3}",
            report.overall
        );
    }
}
