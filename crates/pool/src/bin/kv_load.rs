//! `kv_load` — closed-loop load generator for `kv_server`.
//!
//! Opens `MALTHUS_KV_CONNS` connections, each running a closed loop
//! of mixed `GET`/`PUT` (and optionally `MGET`) requests over a
//! xorshift key stream for `MALTHUS_KV_SECONDS`, then reports
//! aggregate throughput plus **per-op-type** counts and p50/p99
//! latencies from separate
//! [`LatencyHistogram`]s, merged
//! (via `LatencyHistogram::merge`) into the service-wide `all` line —
//! so both the per-path admission costs (GETs ride the RW-CR read
//! side; PUTs pay writer admission; MGETs batch per shard) and the
//! overall picture are visible end to end.
//!
//! Flags:
//!
//! * `--pipeline-depth <n>` — outstanding requests per connection.
//!   `1` (the default) is the classic untagged closed loop,
//!   byte-identical to the pre-pipelining protocol. Depths above 1
//!   run a **tagged window**: each connection keeps up to `n`
//!   `#<tag>`-prefixed requests in flight, matches every response's
//!   echoed tag against the oldest outstanding one (the server
//!   answers in request order), and refills the window as responses
//!   drain. Reported latency is request-send to response-receive, so
//!   at depth > 1 it includes time queued in the window — deeper
//!   pipelines trade per-request latency for throughput, which is
//!   exactly the trade worth measuring.
//! * `--conns <n>` — **total** connections to hold open. Without it,
//!   every connection drives load (the classic closed-loop shape).
//!   With it, only the `--active` subset runs the request loop; the
//!   rest connect and then sit idle for the whole interval — the
//!   many-mostly-idle-connections population the reactor front-end
//!   exists for. Every idle connection is round-tripped (`PING`)
//!   after the measurement to prove the server kept it alive, and
//!   the summary reports `open`/`active`.
//! * `--active <n>` — size of the driving subset under `--conns`
//!   (default `MALTHUS_KV_CONNS`, i.e. 4; clamped to `--conns`).
//! * `--fail-on-err` — exit nonzero if *any* request drew an `ERR`
//!   response or an I/O error. The summary still prints first, so CI
//!   smokes get both the numbers and a hard verdict.
//!
//! Environment knobs:
//!
//! * `MALTHUS_KV_ADDR` — server address (default `127.0.0.1:7878`).
//! * `MALTHUS_KV_CONNECT_TRIES` — connect attempts with capped
//!   exponential backoff between them (default 3; 10 ms doubling to
//!   a 40 ms cap), so the generator can be started alongside the
//!   server in scripts.
//! * `MALTHUS_KV_CONNS` — concurrent connections (default 4).
//! * `MALTHUS_KV_SECONDS` — measurement interval (default 2).
//! * `MALTHUS_KV_KEYS` — key-space size (default 10000).
//! * `MALTHUS_KV_PUT_PCT` — percentage of PUTs (default 20).
//! * `MALTHUS_KV_MGET_PCT` — percentage of MGETs (default 0); each
//!   MGET batches [`MGET_BATCH`] keys, exercising the cross-shard
//!   batched read path.
//! * `MALTHUS_KV_SHUTDOWN` — set to `1` to send `SHUTDOWN` when done.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use malthus_metrics::LatencyHistogram;
use malthus_park::XorShift64;
use malthus_pool::server::DEFAULT_ADDR;
use malthus_pool::KvClient;

/// Keys per MGET request when `MALTHUS_KV_MGET_PCT` > 0.
const MGET_BATCH: usize = 8;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Upper bound on `--pipeline-depth`: far deeper than batching can
/// pay off, shallow enough that a typo'd depth cannot OOM the window
/// bookkeeping.
const MAX_PIPELINE_DEPTH: u64 = 1_024;

/// Parsed command-line flags: window depth plus the connection
/// population shape.
struct LoadArgs {
    depth: u64,
    /// Total connections to hold open (`--conns`); `None` keeps the
    /// classic all-active shape sized by `MALTHUS_KV_CONNS`.
    conns: Option<u64>,
    /// Driving subset under `--conns` (`--active`).
    active: Option<u64>,
    /// Exit nonzero when any request errored (`--fail-on-err`).
    fail_on_err: bool,
}

/// Parses the flags. Depth 1 is the classic untagged closed loop;
/// deeper runs the tagged window.
fn parse_load_args() -> LoadArgs {
    let mut parsed = LoadArgs {
        depth: 1,
        conns: None,
        active: None,
        fail_on_err: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> u64 {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("kv_load: {name} needs an integer");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--pipeline-depth" => parsed.depth = value("--pipeline-depth"),
            "--conns" => parsed.conns = Some(value("--conns")),
            "--active" => parsed.active = Some(value("--active")),
            "--fail-on-err" => parsed.fail_on_err = true,
            other => {
                eprintln!("kv_load: unknown argument {other}");
                eprintln!(
                    "usage: kv_load [--pipeline-depth <n>] [--conns <n>] [--active <n>] \
                     [--fail-on-err]"
                );
                std::process::exit(2);
            }
        }
    }
    if parsed.depth == 0 || parsed.depth > MAX_PIPELINE_DEPTH {
        eprintln!(
            "kv_load: --pipeline-depth must be in 1..={MAX_PIPELINE_DEPTH}, got {}",
            parsed.depth
        );
        std::process::exit(2);
    }
    if parsed.conns == Some(0) {
        eprintln!("kv_load: --conns must be positive");
        std::process::exit(2);
    }
    parsed
}

/// Connects with capped exponential backoff
/// ([`KvClient::connect_with_backoff`]): `MALTHUS_KV_CONNECT_TRIES`
/// attempts (default 3, 10 ms doubling to a 40 ms cap between them),
/// so the generator can be started alongside the server in scripts —
/// CI sets the knob high to ride out slow server boots.
fn connect_with_retry(addr: SocketAddr) -> KvClient {
    let tries = env_u64("MALTHUS_KV_CONNECT_TRIES", 3) as u32;
    KvClient::connect_with_backoff(addr, tries)
        .unwrap_or_else(|e| panic!("could not connect to {addr} after {tries} tries: {e}"))
}

/// One op type's histogram + its label, so reporting stays uniform as
/// the mix grows.
struct OpTrack {
    label: &'static str,
    hist: Arc<LatencyHistogram>,
}

fn main() {
    let load_args = parse_load_args();
    let depth = load_args.depth as usize;
    let addr: SocketAddr = std::env::var("MALTHUS_KV_ADDR")
        .unwrap_or_else(|_| DEFAULT_ADDR.to_string())
        .parse()
        .expect("MALTHUS_KV_ADDR must be host:port");
    // The connection population: without --conns every connection is
    // active (the classic shape). With it, `open` total connections
    // are held, only `active` of them drive requests, and the
    // `open - active` remainder sit idle — the population a
    // readiness-driven server should carry for the cost of buffers.
    let active_default = env_u64("MALTHUS_KV_CONNS", 4) as usize;
    let (open, conns) = match load_args.conns {
        Some(total) => {
            let total = total as usize;
            let active = load_args.active.map_or(active_default, |a| a as usize);
            (total, active.min(total).max(1))
        }
        None => (active_default, active_default),
    };
    let idle_count = open - conns;
    let seconds = env_u64("MALTHUS_KV_SECONDS", 2);
    let keys = env_u64("MALTHUS_KV_KEYS", 10_000).max(1);
    let put_pct = env_u64("MALTHUS_KV_PUT_PCT", 20).min(100);
    let mget_pct = env_u64("MALTHUS_KV_MGET_PCT", 0).min(100 - put_pct);
    let send_shutdown = std::env::var("MALTHUS_KV_SHUTDOWN").is_ok_and(|v| v == "1");

    eprintln!(
        "# kv_load: {open} connections ({conns} active, {idle_count} idle) x {seconds} s \
         against {addr} (pipeline depth {depth}, {put_pct}% PUT, {mget_pct}% MGET)"
    );
    // The idle population connects first (no threads: the sockets
    // just sit in this Vec) so the active loop's traffic arrives at a
    // server already carrying the full connection count.
    let mut idle_pool: Vec<KvClient> = (0..idle_count).map(|_| connect_with_retry(addr)).collect();
    // Separate per-op-type histograms: the DB locks are Malthusian
    // RW locks, so each path has a different admission cost and
    // lumping them together would hide the read-side win. They merge
    // into the service-wide "all" line at report time.
    let get_hist = Arc::new(LatencyHistogram::new());
    let put_hist = Arc::new(LatencyHistogram::new());
    let mget_hist = Arc::new(LatencyHistogram::new());
    let stop = Arc::new(AtomicBool::new(false));
    let errors = Arc::new(AtomicU64::new(0));

    let started = Instant::now();
    let workers: Vec<_> = (0..conns)
        .map(|c| {
            let get_hist = Arc::clone(&get_hist);
            let put_hist = Arc::clone(&put_hist);
            let mget_hist = Arc::clone(&mget_hist);
            let stop = Arc::clone(&stop);
            let errors = Arc::clone(&errors);
            std::thread::spawn(move || {
                let mut client = connect_with_retry(addr);
                let rng = XorShift64::new(0xC0FFEE ^ (c as u64 + 1));
                let mut ops = 0u64;
                let mut req = String::new();
                // Histograms by op kind; `build` writes the next
                // request into the reused buffer (no per-op String
                // allocation in the hot loop) and returns its kind.
                let hists = [&get_hist, &put_hist, &mget_hist];
                let build = |req: &mut String| -> usize {
                    let key = rng.next_below(keys);
                    let dice = rng.next_below(100);
                    req.clear();
                    if dice < put_pct {
                        let _ = write!(req, "PUT {key} {}", key.wrapping_mul(31));
                        1
                    } else if dice < put_pct + mget_pct {
                        req.push_str("MGET");
                        for _ in 0..MGET_BATCH {
                            let _ = write!(req, " {}", rng.next_below(keys));
                        }
                        2
                    } else {
                        let _ = write!(req, "GET {key}");
                        0
                    }
                };
                // Books one reply; `false` means the transport failed
                // and the connection is done.
                let mut book = |reply: std::io::Result<&str>, kind: usize, t0: Instant| {
                    match reply {
                        // Failed requests must not pollute the
                        // throughput/latency figures.
                        Ok(resp) if resp.starts_with("ERR") => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(_) => {
                            hists[kind].record(t0.elapsed());
                            ops += 1;
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                            return false;
                        }
                    }
                    true
                };
                if depth == 1 {
                    // The classic untagged closed loop — byte-identical
                    // to the pre-pipelining wire traffic.
                    while !stop.load(Ordering::Relaxed) {
                        let kind = build(&mut req);
                        let t0 = Instant::now();
                        if !book(client.roundtrip(&req), kind, t0) {
                            break;
                        }
                    }
                } else {
                    // Tagged window: keep up to `depth` requests in
                    // flight; the server answers in request order, so
                    // the next response must echo the oldest
                    // outstanding tag.
                    let mut outstanding: VecDeque<(u64, usize, Instant)> =
                        VecDeque::with_capacity(depth);
                    let mut seq = 0u64;
                    // Cleared by a failed send: nothing more goes out,
                    // but the window still drains, so every sent
                    // request is accounted.
                    let mut sending = true;
                    loop {
                        while sending && !stop.load(Ordering::Relaxed) && outstanding.len() < depth
                        {
                            let kind = build(&mut req);
                            if client.send_tagged(seq, &req).is_err() {
                                errors.fetch_add(1, Ordering::Relaxed);
                                sending = false;
                                break;
                            }
                            outstanding.push_back((seq, kind, Instant::now()));
                            seq += 1;
                        }
                        // Empty only once the interval is over (or a
                        // send failed) and the window has drained.
                        let Some((exp, kind, t0)) = outstanding.pop_front() else {
                            break;
                        };
                        let reply = client.recv_tagged().map(|(tag, resp)| {
                            assert_eq!(tag, exp, "pipeline tag mismatch");
                            resp
                        });
                        if !book(reply, kind, t0) {
                            break;
                        }
                    }
                }
                ops
            })
        })
        .collect();

    std::thread::sleep(Duration::from_secs(seconds));
    stop.store(true, Ordering::Relaxed);
    let total: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    let elapsed = started.elapsed().as_secs_f64();

    // Service-wide histogram = merge of the per-op-type ones.
    let all_hist = LatencyHistogram::new();
    let tracks = [
        OpTrack {
            label: "get",
            hist: Arc::clone(&get_hist),
        },
        OpTrack {
            label: "put",
            hist: Arc::clone(&put_hist),
        },
        OpTrack {
            label: "mget",
            hist: Arc::clone(&mget_hist),
        },
    ];
    for t in &tracks {
        all_hist.merge(&t.hist);
    }

    // The idle pool must have survived the whole interval: a server
    // that reaped or dropped them (without an idle timeout configured)
    // fails the run here.
    let mut idle_alive = 0usize;
    for c in idle_pool.iter_mut() {
        match c.roundtrip("PING") {
            Ok("PONG") => idle_alive += 1,
            Ok(other) => panic!("idle connection answered {other:?} to PING"),
            Err(e) => panic!("idle connection died during the run: {e}"),
        }
    }
    assert_eq!(idle_alive, idle_count, "idle connections lost");

    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let mut line = format!(
        "open {open}  active {conns}  ops {total}  ops/s {:.0}",
        total as f64 / elapsed
    );
    for t in &tracks {
        let (p50, p99) = t.hist.p50_p99();
        line.push_str(&format!(
            "  {}s {}  {}_p50_us {:.1}  {}_p99_us {:.1}",
            t.label,
            t.hist.count(),
            t.label,
            us(p50),
            t.label,
            us(p99)
        ));
    }
    let (all_p50, all_p99) = all_hist.p50_p99();
    line.push_str(&format!(
        "  all_p50_us {:.1}  all_p99_us {:.1}  errors {}",
        us(all_p50),
        us(all_p99),
        errors.load(Ordering::Relaxed)
    ));
    println!("{line}");
    assert!(total > 0, "load generator completed no operations");
    assert_eq!(
        all_hist.count(),
        tracks.iter().map(|t| t.hist.count()).sum::<u64>(),
        "merged histogram must cover every recorded op"
    );

    if send_shutdown {
        let mut c = connect_with_retry(addr);
        let resp = c.roundtrip("SHUTDOWN").expect("SHUTDOWN round trip");
        eprintln!("# kv_load: shutdown -> {resp}");
    }

    let errored = errors.load(Ordering::Relaxed);
    if load_args.fail_on_err && errored > 0 {
        eprintln!("# kv_load: --fail-on-err: {errored} request(s) failed");
        std::process::exit(1);
    }
}
