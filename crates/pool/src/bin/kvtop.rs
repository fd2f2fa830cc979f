//! `kvtop` — a refreshing terminal dashboard over the `METRICS` and
//! `SLOWLOG` verbs.
//!
//! Polls a running `kv_server` for its unified Prometheus-text-style
//! exposition (parsed with the shared [`malthus_obs::exposition`]
//! parser) and renders interval **rates** (ops/s, fsyncs/s, batches/s
//! — diffed between polls) next to the admission picture (exclusive
//! episodes per write, hot-shard write share, one line per executor
//! admission point — ACS size against target, passive depth, cull,
//! reprovision and promotion rates — and the crew's batches run in
//! place per second),
//! interval latency quantiles (batch size, batch drain, fsync —
//! computed from histogram-bucket deltas), a per-stage **latency
//! waterfall** (where the interval's batches spent their time:
//! read → queue → lock_wait → cull_wait → exec → wal_fsync → flush),
//! and the newest `SLOWLOG` entries with their stage breakdowns. One
//! row per shard shows how evenly traffic spreads and which shards
//! have gone read-only.
//!
//! A server restart between polls (detected by `kv_uptime_seconds`
//! moving backwards) is flagged `[server restarted]` in the frame
//! header; all interval math clamps the negative counter deltas a
//! restart produces, so the frame degrades to zeros instead of
//! rendering garbage rates.
//!
//! Flags (nothing is read from the environment):
//!
//! * `--addr <host:port>` — server address, default `127.0.0.1:7878`;
//!   a host name resolves to its first address.
//! * `--interval-ms <n>` — poll interval, default 1000.
//! * `--frames <n>` — stop after `n` frames (default 0 = run until
//!   the server goes away or ^C).
//! * `--once` — render exactly one frame (two polls one interval
//!   apart so rates are real) without clearing the screen; for
//!   scripts and CI smoke tests.
//! * `--slowlog <n>` — slowlog entries to display (default 5; 0
//!   hides the panel and skips the `SLOWLOG` poll).

use std::net::{SocketAddr, ToSocketAddrs};
use std::time::{Duration, Instant};

use malthus_obs::exposition::{interval_quantiles, Exposition};
use malthus_obs::span::{Stage, STAGE_COUNT};
use malthus_pool::server::DEFAULT_ADDR;
use malthus_pool::KvClient;

/// One poll: the parsed exposition plus the raw slowlog document.
struct Sample {
    at: Instant,
    exp: Exposition,
    slowlog: String,
}

/// One `SLOWLOG` entry re-parsed from the wire breakdown line.
struct SlowRow {
    batch: u64,
    ops: u64,
    total_ns: u64,
    stage_ns: [u64; STAGE_COUNT],
}

/// Parses the `SLOWLOG` document: a `SLOWLOG entries=… inserted=…
/// threshold_us=…` header, one `BATCH …` line per entry (newest
/// first), `# EOF`. Unknown or malformed lines are skipped.
fn parse_slowlog(doc: &str) -> (Vec<SlowRow>, u64, u64) {
    let mut rows = Vec::new();
    let mut inserted = 0;
    let mut threshold_us = 0;
    for line in doc.lines() {
        let line = line.trim();
        if line == "# EOF" {
            break;
        }
        if let Some(header) = line.strip_prefix("SLOWLOG ") {
            for field in header.split_whitespace() {
                if let Some(v) = field.strip_prefix("inserted=") {
                    inserted = v.parse().unwrap_or(0);
                } else if let Some(v) = field.strip_prefix("threshold_us=") {
                    threshold_us = v.parse().unwrap_or(0);
                }
            }
            continue;
        }
        if !line.starts_with("BATCH ") {
            continue;
        }
        // `BATCH <id> OPS <n> TOTAL_NS <t> READ_NS <r> …` — keyword
        // value pairs in a fixed order; parse them positionally but
        // keyed, so an extra field added later cannot shift the rest.
        let mut fields = std::collections::BTreeMap::new();
        let mut toks = line.split_whitespace();
        while let (Some(k), Some(v)) = (toks.next(), toks.next()) {
            if let Ok(v) = v.parse::<u64>() {
                fields.insert(k, v);
            }
        }
        let get = |k: &str| fields.get(k).copied().unwrap_or(0);
        let mut stage_ns = [0u64; STAGE_COUNT];
        for (i, key) in [
            "READ_NS",
            "QUEUE_NS",
            "LOCK_WAIT_NS",
            "CULL_WAIT_NS",
            "EXEC_NS",
            "WAL_FSYNC_NS",
            "FLUSH_NS",
        ]
        .iter()
        .enumerate()
        {
            stage_ns[i] = get(key);
        }
        rows.push(SlowRow {
            batch: get("BATCH"),
            ops: get("OPS"),
            total_ns: get("TOTAL_NS"),
            stage_ns,
        });
    }
    (rows, inserted, threshold_us)
}

/// Renders nanoseconds human-readably (the fsync/drain histograms) —
/// bucket bounds, so one significant step is plenty.
fn fmt_ns(ns: f64) -> String {
    if !ns.is_finite() {
        "inf".to_string()
    } else if ns >= 1e9 {
        format!("{:.1}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.1}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

fn fmt_quantiles_ns(q: Option<(f64, f64)>) -> String {
    match q {
        Some((p50, p99)) => format!("{}/{}", fmt_ns(p50), fmt_ns(p99)),
        None => "-/-".to_string(),
    }
}

/// Per-second rate of a cumulative (possibly labelled) counter over
/// the poll interval. Negative deltas (counter reset after a server
/// restart) clamp to zero.
fn rate(later: &Sample, earlier: &Sample, name: &str, labels: &[(&str, &str)]) -> f64 {
    let secs = later.at.duration_since(earlier.at).as_secs_f64();
    if secs <= 0.0 {
        return 0.0;
    }
    let l = later.exp.value(name, labels).unwrap_or(0.0);
    let e = earlier.exp.value(name, labels).unwrap_or(0.0);
    (l - e).max(0.0) / secs
}

fn shard_label(i: &str) -> [(&str, &str); 1] {
    [("shard", i)]
}

/// The per-stage waterfall: one row per pipeline stage with the
/// interval's p50/p99 and a bar proportional to p99 (log-ish visual:
/// linear against the slowest stage of this frame).
fn render_waterfall(f: &mut String, later: &Sample, earlier: &Sample) {
    use std::fmt::Write as _;
    let quantiles: Vec<(Stage, Option<(f64, f64)>)> = Stage::ALL
        .iter()
        .map(|&s| {
            (
                s,
                interval_quantiles(
                    &later.exp,
                    &earlier.exp,
                    "kv_stage_ns",
                    &[("stage", s.as_str())],
                ),
            )
        })
        .collect();
    let max_p99 = quantiles
        .iter()
        .filter_map(|(_, q)| q.map(|(_, p99)| p99))
        .filter(|v| v.is_finite())
        .fold(0.0f64, f64::max);
    let _ = writeln!(f, "stage waterfall (interval p50/p99)");
    for (stage, q) in &quantiles {
        const BAR: usize = 24;
        let bar = match q {
            Some((_, p99)) if max_p99 > 0.0 => {
                let frac = if p99.is_finite() { p99 / max_p99 } else { 1.0 };
                let n = ((frac * BAR as f64).round() as usize).clamp(1, BAR);
                "#".repeat(n)
            }
            _ => String::new(),
        };
        let _ = writeln!(
            f,
            "  {:>9} {:>17}  {bar}",
            stage.as_str(),
            fmt_quantiles_ns(*q),
        );
    }
}

/// The newest slowlog entries, with each batch's dominant stage named
/// so a glance answers "slow *where*".
fn render_slowlog(f: &mut String, later: &Sample, show: usize) {
    use std::fmt::Write as _;
    let (rows, inserted, threshold_us) = parse_slowlog(&later.slowlog);
    let _ = writeln!(
        f,
        "slowlog (threshold {threshold_us}us, {inserted} captured, newest first)"
    );
    if rows.is_empty() {
        let _ = writeln!(f, "  (empty)");
        return;
    }
    let _ = writeln!(
        f,
        "  {:>8} {:>5} {:>9} {:>9} {:>9} {:>9} {:>9}  worst stage",
        "batch", "ops", "total", "read", "lockwait", "exec", "fsync"
    );
    for row in rows.iter().take(show) {
        let (worst_idx, worst_ns) = row
            .stage_ns
            .iter()
            .enumerate()
            .max_by_key(|&(_, &ns)| ns)
            .map(|(i, &ns)| (i, ns))
            .unwrap_or((0, 0));
        let _ = writeln!(
            f,
            "  {:>8} {:>5} {:>9} {:>9} {:>9} {:>9} {:>9}  {} ({})",
            row.batch,
            row.ops,
            fmt_ns(row.total_ns as f64),
            fmt_ns(row.stage_ns[Stage::Read as usize] as f64),
            fmt_ns(row.stage_ns[Stage::LockWait as usize] as f64),
            fmt_ns(row.stage_ns[Stage::Exec as usize] as f64),
            fmt_ns(row.stage_ns[Stage::WalFsync as usize] as f64),
            Stage::ALL[worst_idx].as_str(),
            fmt_ns(worst_ns as f64),
        );
    }
}

/// One rendered frame. Built as a string so the caller can write it
/// in one syscall and shrug off a closed stdout (`kvtop | head`).
fn render(
    later: &Sample,
    earlier: &Sample,
    addr: &SocketAddr,
    frame: u64,
    slowlog: usize,
) -> String {
    use std::fmt::Write as _;
    let mut f = String::new();
    let shards = later.exp.label_values("kv_shard_reads_total", "shard");
    let sum_rate = |name: &str| -> f64 {
        shards
            .iter()
            .map(|i| rate(later, earlier, name, &shard_label(i)))
            .sum()
    };
    let sum_db_rate = |name: &str| -> f64 {
        shards
            .iter()
            .map(|i| rate(later, earlier, name, &[("lock", "db"), ("shard", i)]))
            .sum()
    };
    let reads_s = sum_rate("kv_shard_reads_total");
    let writes_s = sum_rate("kv_shard_writes_total");
    let fsyncs_s = sum_rate("kv_shard_wal_syncs_total");
    let wepis_s = sum_db_rate("lock_write_episodes_total");
    let excl_per_write = if writes_s > 0.0 {
        wepis_s / writes_s
    } else {
        0.0
    };
    let readonly: f64 = shards
        .iter()
        .map(|i| {
            later
                .exp
                .value("kv_shard_readonly", &shard_label(i))
                .unwrap_or(0.0)
        })
        .sum();
    // Uptime moving backwards means the process we polled last time
    // is not the process we polled this time.
    let restarted = later.exp.get("kv_uptime_seconds") < earlier.exp.get("kv_uptime_seconds");

    let _ = writeln!(
        f,
        "kvtop — {addr} — frame {frame} — interval {:.1}s — up {:.0}s{}",
        later.at.duration_since(earlier.at).as_secs_f64(),
        later.exp.get("kv_uptime_seconds"),
        if restarted {
            "  [server restarted]"
        } else {
            ""
        },
    );
    let _ = writeln!(
        f,
        "ops/s {:>10.0}   reads/s {:>10.0}   writes/s {:>9.0}   batches/s {:>8.0}",
        reads_s + writes_s,
        reads_s,
        writes_s,
        rate(later, earlier, "kv_pipeline_batches_total", &[]),
    );
    let _ = writeln!(
        f,
        "excl episodes/write {:>6.3}   fsyncs/s {:>8.0}   fsync p50/p99 {}   \
         hot-shard write share {:.2}   readonly shards {readonly:.0}   idle disconnects {:.0}",
        excl_per_write,
        fsyncs_s,
        fmt_quantiles_ns(interval_quantiles(
            &later.exp,
            &earlier.exp,
            "kv_wal_fsync_ns",
            &[]
        )),
        later.exp.get("kv_hottest_shard_write_share"),
        later.exp.get("kv_idle_disconnects_total"),
    );
    let batch_q = interval_quantiles(&later.exp, &earlier.exp, "kv_pipeline_batch_size", &[])
        .map_or("-/-".to_string(), |(p50, p99)| format!("{p50:.0}/{p99:.0}"));
    let _ = writeln!(
        f,
        "batch size p50/p99 {batch_q}   max batch {:.0}   drain p50/p99 {}",
        later.exp.get("kv_pipeline_max_batch"),
        fmt_quantiles_ns(interval_quantiles(
            &later.exp,
            &earlier.exp,
            "kv_batch_drain_ns",
            &[]
        )),
    );
    // One admission line for each executor point the server runs
    // (`crew` threaded, `reactor` under --async), then that front-end's
    // own panel; each family exists only where it was registered.
    for point in later.exp.label_values("malthus_acs_size", "point") {
        let gauge = |name: &str| later.exp.value(name, &[("point", &point)]).unwrap_or(0.0);
        let prefix = if point == "crew" {
            "crew_"
        } else {
            "kv_reactor_"
        };
        let per_s = |what: &str| rate(later, earlier, &format!("{prefix}{what}_total"), &[]);
        let _ = writeln!(
            f,
            "{point} acs {:.0}/{:.0}  passive {:.0}   culls/s {:.0}  reprovisions/s {:.0}  \
             promotions/s {:.0}",
            gauge("malthus_acs_size"),
            gauge("malthus_acs_target"),
            gauge("malthus_passive_depth"),
            per_s("culls"),
            per_s("reprovisions"),
            per_s("fairness_promotions"),
        );
    }
    if later.exp.value("crew_backlog", &[]).is_some() {
        let _ = writeln!(
            f,
            "crew backlog {:.0}  inline/s {:.0}  refused/s {:.0}",
            later.exp.get("crew_backlog"),
            rate(later, earlier, "crew_inline_total", &[]),
            rate(later, earlier, "crew_enter_refused_total", &[]),
        );
    }
    if later.exp.value("kv_conns_open", &[]).is_some() {
        let ready_q = interval_quantiles(&later.exp, &earlier.exp, "kv_reactor_ready_batch", &[])
            .map_or("-/-".to_string(), |(p50, p99)| format!("{p50:.0}/{p99:.0}"));
        let _ = writeln!(
            f,
            "reactor conns {:.0}   epoll_waits/s {:.0}   ready batch p50/p99 {ready_q}   \
             partial flushes {:.0}",
            later.exp.get("kv_conns_open"),
            rate(later, earlier, "kv_epoll_waits_total", &[]),
            later.exp.get("kv_reactor_partial_flushes_total"),
        );
    }
    render_waterfall(&mut f, later, earlier);
    if slowlog > 0 {
        render_slowlog(&mut f, later, slowlog);
    }
    let _ = writeln!(
        f,
        "{:>5} {:>10} {:>10} {:>9} {:>9} {:>10} {:>8} {:>6}",
        "shard", "reads/s", "writes/s", "wepis/s", "fsyncs/s", "keys", "rejects", "heals"
    );
    for i in &shards {
        let ro = later
            .exp
            .value("kv_shard_readonly", &shard_label(i))
            .unwrap_or(0.0)
            > 0.0;
        let _ = writeln!(
            f,
            "{i:>5} {:>10.0} {:>10.0} {:>9.0} {:>9.0} {:>10.0} {:>8.0} {:>6.0}{}",
            rate(later, earlier, "kv_shard_reads_total", &shard_label(i)),
            rate(later, earlier, "kv_shard_writes_total", &shard_label(i)),
            rate(
                later,
                earlier,
                "lock_write_episodes_total",
                &[("lock", "db"), ("shard", i)]
            ),
            rate(later, earlier, "kv_shard_wal_syncs_total", &shard_label(i)),
            later
                .exp
                .value("kv_shard_keys", &shard_label(i))
                .unwrap_or(0.0),
            // Cumulative, not rates: a write refused or a shard
            // revived is a rare event whose *count* is the story.
            later
                .exp
                .value("kv_readonly_rejects_total", &shard_label(i))
                .unwrap_or(0.0),
            later
                .exp
                .value("kv_shard_heals_total", &shard_label(i))
                .unwrap_or(0.0),
            if ro { "  READONLY" } else { "" },
        );
    }
    f
}

fn usage() -> ! {
    eprintln!(
        "usage: kvtop [--addr <host:port>] [--interval-ms <n>] [--frames <n>] [--once] \
         [--slowlog <n>]"
    );
    std::process::exit(2);
}

fn main() {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut interval_ms: u64 = 1_000;
    let mut frames: u64 = 0;
    let mut once = false;
    let mut slowlog: usize = 5;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(a) => addr = a,
                None => usage(),
            },
            "--interval-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => interval_ms = n,
                _ => usage(),
            },
            "--frames" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => frames = n,
                None => usage(),
            },
            "--once" => once = true,
            "--slowlog" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => slowlog = n,
                None => usage(),
            },
            _ => usage(),
        }
    }
    if once {
        frames = 1;
        // One real frame needs two polls; a short gap keeps `--once`
        // script-friendly while still measuring actual rates.
        interval_ms = interval_ms.min(250);
    }
    // A host name (`localhost:7878`) resolves to its first address.
    let addr: SocketAddr = match addr.to_socket_addrs().map(|mut a| a.next()) {
        Ok(Some(a)) => a,
        Ok(None) => {
            eprintln!("kvtop: --addr {addr} resolves to no address");
            usage();
        }
        Err(e) => {
            eprintln!("kvtop: --addr {addr}: {e}");
            usage();
        }
    };
    let mut client = KvClient::connect_with_backoff(addr, 10)
        .unwrap_or_else(|e| panic!("could not connect to {addr}: {e}"));

    let poll = |client: &mut KvClient| -> Sample {
        let doc = client
            .fetch_document("METRICS")
            .unwrap_or_else(|e| panic!("METRICS poll failed: {e}"));
        let slowdoc = if slowlog > 0 {
            client
                .fetch_document(&format!("SLOWLOG {slowlog}"))
                .unwrap_or_else(|e| panic!("SLOWLOG poll failed: {e}"))
        } else {
            String::new()
        };
        Sample {
            at: Instant::now(),
            exp: Exposition::parse(&doc),
            slowlog: slowdoc,
        }
    };

    let mut earlier = poll(&mut client);
    let mut frame = 0u64;
    loop {
        std::thread::sleep(Duration::from_millis(interval_ms));
        let later = poll(&mut client);
        frame += 1;
        let mut text = String::new();
        if !once {
            // Clear + home: a refreshing dashboard, not a scroll.
            text.push_str("\x1b[2J\x1b[H");
        }
        text.push_str(&render(&later, &earlier, &addr, frame, slowlog));
        // A closed stdout (`kvtop | head`) ends the dashboard
        // quietly instead of panicking mid-print.
        use std::io::Write as _;
        let out = std::io::stdout();
        if out.lock().write_all(text.as_bytes()).is_err() {
            break;
        }
        if frames > 0 && frame >= frames {
            break;
        }
        earlier = later;
    }
}
