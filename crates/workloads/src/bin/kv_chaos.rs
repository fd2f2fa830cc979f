//! `kv_chaos` — seeded chaos campaign against the real `kv_server`.
//!
//! Derives a deterministic round schedule from `--seed` (fsync
//! faults with heal-wait, injected connection resets through the
//! reactor, `SIGKILL` mid-traffic; see
//! [`malthus_workloads::chaos`]), runs it against a spawned server
//! over one shared data directory, and exits nonzero if any invariant
//! breaks: an acked write lost or regressed, a shard that never
//! heals, a hang past the watchdog, or a dishonest clean-shutdown
//! marker.
//!
//! Flags:
//!
//! * `--seed <n>` — master seed (default 1). Same seed, same
//!   campaign: the schedule and every per-round fault plan are pure
//!   functions of it.
//! * `--duration-secs <n>` — soft time budget (default 30); the
//!   watchdog hard-exits at twice that plus a minute.
//! * `--data-dir <path>` — campaign data directory (default: a
//!   seed-named directory under the system temp dir, wiped first).
//! * `--server <path>` — the `kv_server` binary under test (default
//!   `target/release/kv_server`).

use std::path::PathBuf;

use malthus_workloads::chaos::{run, ChaosConfig};

fn usage() -> ! {
    eprintln!(
        "usage: kv_chaos [--seed <n>] [--duration-secs <n>] [--data-dir <path>] \
         [--server <path>]"
    );
    std::process::exit(2);
}

fn main() {
    let mut cfg = ChaosConfig {
        seed: 1,
        duration_secs: 30,
        dir: PathBuf::new(),
        server_bin: PathBuf::from("target/release/kv_server"),
    };
    let mut dir_arg: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("kv_chaos: {name} needs a value");
                usage();
            })
        };
        match arg.as_str() {
            "--seed" => match value("--seed").parse() {
                Ok(s) => cfg.seed = s,
                Err(_) => usage(),
            },
            "--duration-secs" => match value("--duration-secs").parse::<u64>() {
                Ok(d) if d > 0 => cfg.duration_secs = d,
                _ => usage(),
            },
            "--data-dir" => dir_arg = Some(PathBuf::from(value("--data-dir"))),
            "--server" => cfg.server_bin = PathBuf::from(value("--server")),
            _ => usage(),
        }
    }
    cfg.dir = dir_arg.unwrap_or_else(|| {
        let d = std::env::temp_dir().join(format!("kv-chaos-{}", cfg.seed));
        // A leftover directory from a previous campaign would make
        // the ledger lie; start clean.
        let _ = std::fs::remove_dir_all(&d);
        d
    });
    if !cfg.server_bin.exists() {
        eprintln!(
            "kv_chaos: server binary {} not found (build it, or pass --server)",
            cfg.server_bin.display()
        );
        std::process::exit(2);
    }

    eprintln!(
        "# kv_chaos: seed {} for {} s, server {}, data dir {}",
        cfg.seed,
        cfg.duration_secs,
        cfg.server_bin.display(),
        cfg.dir.display()
    );
    match run(&cfg) {
        Ok(s) => {
            println!(
                "kv_chaos OK  seed {}  rounds {}  acked {}  readonly_errs {}  reconnects {}",
                cfg.seed,
                s.rounds.join(","),
                s.acked_writes,
                s.readonly_errs,
                s.reconnects
            );
        }
        Err(e) => {
            eprintln!("kv_chaos FAILED (seed {}): {e}", cfg.seed);
            std::process::exit(1);
        }
    }
}
