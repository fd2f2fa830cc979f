//! `kv_load` — closed-loop load generator for `kv_server`.
//!
//! Opens `--conns` connections, each running a closed loop of mixed
//! `GET`/`PUT` (and optionally `MGET`) requests over a xorshift key
//! stream for `--seconds`, then reports
//! aggregate throughput plus **per-op-type** counts and p50/p99
//! latencies from separate
//! [`LatencyHistogram`]s, merged
//! (via `LatencyHistogram::merge`) into the service-wide `all` line —
//! so both the per-path admission costs (GETs ride the RW-CR read
//! side; PUTs pay writer admission; MGETs batch per shard) and the
//! overall picture are visible end to end.
//!
//! Flags (the only way to configure the generator; nothing is read
//! from the environment):
//!
//! * `--addr <host:port>` — server address (default `127.0.0.1:7878`);
//!   a host name resolves to its first address.
//! * `--seconds <n>` — measurement interval (default 2).
//! * `--keys <n>` — key-space size (default 10000).
//! * `--put-pct <n>` — percentage of PUTs (default 20).
//! * `--mget-pct <n>` — percentage of MGETs (default 0; at most
//!   `100 − --put-pct`); each MGET batches [`MGET_BATCH`] keys,
//!   exercising the cross-shard batched read path.
//! * `--shutdown` — send `SHUTDOWN` when done.
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
//! * `--conns <n>` — total connections to hold open (default 4).
//! * `--active <n>` — how many of them run the request loop (default
//!   all). The rest connect and then sit idle for the whole interval —
//!   the many-mostly-idle-connections population the reactor
//!   front-end exists for. Every idle connection is round-tripped
//!   (`PING`) after the measurement to prove the server kept it alive,
//!   and the summary reports `open`/`active`.
//! * `--fail-on-err` — exit nonzero if *any* request drew an `ERR`
//!   response or an I/O error. The summary still prints first, so CI
//!   smokes get both the numbers and a hard verdict.
//!
//! A value out of range exits 2 with the usage line. Every connection
//! is made with [`CONNECT_TRIES`] attempts under capped exponential
//! backoff, so the generator can be started alongside the server in
//! scripts.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use malthus_metrics::LatencyHistogram;
use malthus_park::XorShift64;
use malthus_pool::server::DEFAULT_ADDR;
use malthus_pool::KvClient;

/// Keys per MGET request when `--mget-pct` > 0.
const MGET_BATCH: usize = 8;

/// Upper bound on `--pipeline-depth`: far deeper than batching can
/// pay off, shallow enough that a typo'd depth cannot OOM the window
/// bookkeeping.
const MAX_PIPELINE_DEPTH: u64 = 1_024;

/// Connect attempts per connection ([`KvClient::connect_with_backoff`]:
/// 10 ms doubling to a 40 ms cap between them, ≈4 s in all) — enough
/// to ride out a slow server boot.
const CONNECT_TRIES: u32 = 100;

/// Parsed command-line flags: the traffic mix, window depth and the
/// connection population shape.
struct LoadArgs {
    addr: SocketAddr,
    seconds: u64,
    keys: u64,
    put_pct: u64,
    mget_pct: u64,
    /// Send `SHUTDOWN` when done (`--shutdown`).
    shutdown: bool,
    depth: usize,
    /// Total connections to hold open (`--conns`).
    conns: usize,
    /// The driving subset of `conns` (`--active`).
    active: usize,
    /// Exit nonzero when any request errored (`--fail-on-err`).
    fail_on_err: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("kv_load: {problem}");
    eprintln!(
        "usage: kv_load [--addr <host:port>] [--seconds <n>] [--keys <n>] [--put-pct <n>] \
         [--mget-pct <n>] [--shutdown] [--pipeline-depth <n>] [--conns <n>] [--active <n>] \
         [--fail-on-err]"
    );
    std::process::exit(2);
}

/// Parses the flags, exiting 2 on a value out of range.
fn parse_load_args() -> LoadArgs {
    let mut addr = DEFAULT_ADDR.to_string();
    let (mut seconds, mut keys, mut put_pct, mut mget_pct) = (2, 10_000, 20, 0);
    let (mut depth, mut conns, mut active) = (1, 4, None);
    let (mut shutdown, mut fail_on_err) = (false, false);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str, lo: u64, hi: u64| -> u64 {
            match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if (lo..=hi).contains(&v) => v,
                _ if hi == u64::MAX => usage(&format!("{name} needs an integer >= {lo}")),
                _ => usage(&format!("{name} needs an integer in {lo}..={hi}")),
            }
        };
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(a) => addr = a,
                None => usage("--addr needs <host:port>"),
            },
            "--seconds" => seconds = value("--seconds", 1, u64::MAX),
            "--keys" => keys = value("--keys", 1, u64::MAX),
            "--put-pct" => put_pct = value("--put-pct", 0, 100),
            "--mget-pct" => mget_pct = value("--mget-pct", 0, 100),
            "--shutdown" => shutdown = true,
            "--pipeline-depth" => depth = value("--pipeline-depth", 1, MAX_PIPELINE_DEPTH),
            "--conns" => conns = value("--conns", 1, u64::MAX),
            "--active" => active = Some(value("--active", 1, u64::MAX)),
            "--fail-on-err" => fail_on_err = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if put_pct + mget_pct > 100 {
        usage("--put-pct and --mget-pct add up to more than 100");
    }
    let active = active.unwrap_or(conns);
    if active > conns {
        usage("--active exceeds --conns");
    }
    // A host name (`localhost:7878`) resolves to its first address.
    let addr = match addr.to_socket_addrs().map(|mut a| a.next()) {
        Ok(Some(a)) => a,
        Ok(None) => usage(&format!("--addr {addr} resolves to no address")),
        Err(e) => usage(&format!("--addr {addr}: {e}")),
    };
    LoadArgs {
        addr,
        seconds,
        keys,
        put_pct,
        mget_pct,
        shutdown,
        depth: depth as usize,
        conns: conns as usize,
        active: active as usize,
        fail_on_err,
    }
}

fn connect_with_retry(addr: SocketAddr) -> KvClient {
    KvClient::connect_with_backoff(addr, CONNECT_TRIES)
        .unwrap_or_else(|e| panic!("could not connect to {addr} after {CONNECT_TRIES} tries: {e}"))
}

/// One op type's histogram + its label, so reporting stays uniform as
/// the mix grows.
struct OpTrack {
    label: &'static str,
    hist: Arc<LatencyHistogram>,
}

fn main() {
    let LoadArgs {
        addr,
        seconds,
        keys,
        put_pct,
        mget_pct,
        shutdown,
        depth,
        conns,
        active,
        fail_on_err,
    } = parse_load_args();
    // `conns` connections are held, only `active` of them drive
    // requests, and the remainder sit idle — the population a
    // readiness-driven server should carry for the cost of buffers.
    let idle_count = conns - active;

    eprintln!(
        "# kv_load: {conns} connections ({active} active, {idle_count} idle) x {seconds} s \
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
    let workers: Vec<_> = (0..active)
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
        "open {conns}  active {active}  ops {total}  ops/s {:.0}",
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

    if shutdown {
        let mut c = connect_with_retry(addr);
        let resp = c.roundtrip("SHUTDOWN").expect("SHUTDOWN round trip");
        eprintln!("# kv_load: shutdown -> {resp}");
    }

    let errored = errors.load(Ordering::Relaxed);
    if fail_on_err && errored > 0 {
        eprintln!("# kv_load: --fail-on-err: {errored} request(s) failed");
        std::process::exit(1);
    }
}
