//! Wire-level invariants of the pipelined KV protocol: tagged
//! responses echo their tags **in request order**, tagged and
//! untagged requests interleave on one connection, a malformed tag
//! earns an `ERR` without killing the connection, burst framing
//! (many requests in one TCP segment) answers every line, a depth-1
//! client runs one request per batch and one write episode per PUT, a
//! depth-16 window against a 4-shard server survives a stress run
//! under the watchdog pattern, and a durable store group-commits
//! what arrives over the wire.
//!
//! A batch reaches the store one of two ways — in place on its
//! connection thread under a lent crew slot (at once, or after waiting
//! in the crew's queue for one), or queued to a crew worker — and which
//! one is chosen from observed state, so the last four tests replay the
//! tag-order, interleave and `SHUTDOWN`-drain invariants in set-ups
//! that pin a slot lent at once, a slot waited for, and one connection
//! that flips between in place and queued. A lent slot covers a
//! batch's apply and not its reply `write`, and the last test holds the
//! server to that with a client that stops reading.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use malthus_fault::{FaultPlan, Site};
use malthus_pool::protocol::MAX_BATCH_KEYS;
use malthus_pool::{server, Admission, Front, KvClient, KvService, PoolConfig, Server, WorkCrew};
use malthus_storage::{LockPair, McsPair, ShardedKv, WalOptions};

mod common;
use common::run_with_watchdog;

/// Boots a server on an ephemeral loopback port; returns the address
/// and a closer that shuts everything down.
fn start_server(shards: usize) -> (SocketAddr, Arc<KvService>, impl FnOnce()) {
    let (addr, service, _crew, closer) = start_server_with_crew(shards);
    (addr, service, closer)
}

/// [`start_server`] that also hands out the crew (ACS of 1 over four
/// workers), for tests that assert on which way batches ran.
fn start_server_with_crew(
    shards: usize,
) -> (SocketAddr, Arc<KvService>, Arc<WorkCrew>, impl FnOnce()) {
    let service = KvService::with_shards(shards, 64, 256);
    start_server_with(service, PoolConfig::malthusian(4, 64).with_acs_target(1))
}

/// [`start_server_with_crew`] over a service and a crew of the
/// caller's making.
fn start_server_with<P: LockPair>(
    service: KvService<P>,
    crew: PoolConfig,
) -> (SocketAddr, Arc<KvService<P>>, Arc<WorkCrew>, impl FnOnce()) {
    let crew = Arc::new(WorkCrew::new(crew));
    let service = Arc::new(service);
    let front = Front::Threaded(Arc::clone(&crew));
    let server = Server::start("127.0.0.1:0", Arc::clone(&service), front, None).unwrap();
    (server.addr(), service, crew, move || server.stop())
}

#[test]
fn tagged_responses_echo_in_request_order() {
    let (addr, _service, close) = start_server(2);
    common::tagged_responses_echo_in_request_order(addr);
    close();
}

#[test]
fn tagged_and_untagged_streams_interleave() {
    let (addr, _service, close) = start_server(2);
    common::tagged_and_untagged_streams_interleave(addr);
    close();
}

#[test]
fn malformed_tags_err_without_killing_the_connection() {
    let (addr, _service, close) = start_server(1);
    common::malformed_tags_err_without_killing_the_connection(addr);
    close();
}

#[test]
fn single_write_burst_answers_every_line() {
    let (addr, service, close) = start_server(2);
    common::single_write_burst_answers_every_line(addr, &service);
    close();
}

#[test]
fn batch_instruments_agree_while_connections_are_open() {
    let (addr, _service, close) = start_server(2);
    common::batch_instruments_agree_while_connections_are_open(addr);
    close();
}

#[test]
fn a_depth_one_client_runs_one_request_per_batch() {
    let (addr, service, close) = start_server(2);
    common::a_depth_one_client_runs_one_request_per_batch(addr, &service);
    close();
}

/// Over a durable store every acknowledged PUT was covered by a group
/// commit, and a group commit covers at least one write: `0 < fsyncs
/// <= writes`.
#[test]
fn a_durable_store_group_commits_over_the_wire() {
    let dir = std::env::temp_dir().join(format!("malthus-pipelined-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (service, _) = KvService::open(&dir, 2, 64, 256).unwrap();
    let (addr, service, _crew, close) =
        start_server_with(service, PoolConfig::malthusian(4, 64).with_acs_target(1));
    common::tagged_responses_echo_in_request_order(addr);
    close();
    let stats = service.store().stats();
    assert_eq!(stats.writes(), 32);
    let syncs = stats.wal_syncs();
    assert!(syncs > 0 && syncs <= stats.writes(), "{syncs} fsyncs");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The unrestricted server is built as `kv_server --unrestricted`
/// builds it: every worker circulating, over the MCS lock pair.
#[test]
fn the_admission_point_exports_one_family() {
    let (restricted, _, _, close_restricted) = start_server_with(
        KvService::with_shards(2, 64, 256),
        PoolConfig::new(Admission::malthusian(4).with_acs_target(1), 64),
    );
    let (unrestricted, _, _, close_unrestricted) = start_server_with(
        KvService::from_store(ShardedKv::<McsPair>::memory(2, 64, 256)),
        PoolConfig::new(Admission::unrestricted(4), 64),
    );
    common::the_admission_point_exports_one_family(
        "crew",
        "crew_culls_total",
        restricted,
        unrestricted,
    );
    close_restricted();
    close_unrestricted();
}

/// Under the watchdog so a lost wakeup fails loudly instead of hanging
/// CI.
#[test]
fn depth_16_stress_against_four_shards() {
    let done = run_with_watchdog(Duration::from_secs(60), || {
        let (addr, service, close) = start_server(4);
        common::depth_16_stress_against_four_shards(addr, &service);
        close();
    });
    assert!(done, "pipelined stress timed out");
}

/// Tag order and tagged/untagged interleaving on a fresh connection,
/// over keys private to `base` so several connections can run it at
/// once.
fn check_order_and_interleave(addr: SocketAddr, base: u64) {
    let mut c = KvClient::connect(addr).unwrap();
    for round in 0..8u64 {
        for i in 0..16u64 {
            let key = base + round * 16 + i;
            c.send_tagged(key, &format!("PUT {key} {}", key * 3))
                .unwrap();
        }
        for i in 0..16u64 {
            let key = base + round * 16 + i;
            let (tag, resp) = c.recv_tagged().unwrap();
            assert_eq!((tag, resp), (key, "OK"), "PUT window, round {round}");
        }
    }
    let (k0, k1) = (base, base + 1);
    c.send_tagged(7, &format!("GET {k0}")).unwrap();
    c.send_line(&format!("GET {k1}")).unwrap();
    c.send_line("PING").unwrap();
    c.send_tagged(9, &format!("MGET {k0} {k1}")).unwrap();
    assert_eq!(c.recv_line().unwrap(), format!("#7 VAL {}", k0 * 3));
    assert_eq!(c.recv_line().unwrap(), format!("VAL {}", k1 * 3));
    assert_eq!(c.recv_line().unwrap(), "PONG");
    assert_eq!(
        c.recv_line().unwrap(),
        format!("#9 VALS {} {}", k0 * 3, k1 * 3)
    );
}

/// `SHUTDOWN` behind a window, all in one segment: every request ahead
/// of it is answered in order, then the tagged `OK`, then EOF.
fn check_shutdown_drains_the_window(addr: SocketAddr) {
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut burst = String::new();
    for t in 0..16u64 {
        burst.push_str(&format!("#{t} PUT {} {t}\n", 9_000_000 + t));
    }
    burst.push_str("#99 SHUTDOWN\n");
    writer.write_all(burst.as_bytes()).unwrap();
    let mut line = String::new();
    for t in 0..16u64 {
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), format!("#{t} OK"));
    }
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "#99 OK");
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap_or(0), 0, "then EOF");
}

/// The value of an unlabelled series in a `METRICS` document.
fn metric(doc: &str, name: &str) -> u64 {
    doc.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no {name} in:\n{doc}"))
}

/// Cheap batches run in place — with an idle worker to lend its
/// place, or by waiting for one — so every cheap batch of a connection
/// does: the invariants hold, `crew_inline_total` moves, and every
/// span's stages still partition its total.
#[test]
fn cheap_batches_run_in_place_and_keep_the_wire_invariants() {
    const PINGS: u64 = 16;
    let (addr, service, crew, close) = start_server_with_crew(2);
    service.set_slowlog_threshold_us(1); // capture every batch's span
    check_order_and_interleave(addr, 0);
    // A fresh connection has no dear predecessor and a PING never
    // touches the store, so each of its batches is cheap: none may be
    // handed to a crew worker, however busy the host.
    let mut c = KvClient::connect(addr).unwrap();
    let before = crew.stats();
    for _ in 0..PINGS {
        assert_eq!(c.roundtrip("PING").unwrap(), "PONG");
    }
    let after = crew.stats();
    assert_eq!(
        (after.submitted, after.inline - before.inline),
        (before.submitted, PINGS),
        "a PING batch was queued: {before:?} -> {after:?}"
    );
    let metrics = c.fetch_document("METRICS").unwrap();
    let inline = metric(&metrics, "crew_inline_total");
    assert!(inline > 0, "no batch ran in place:\n{metrics}");
    // The span contract of `span_stage_sum_tracks_batch_total_within_
    // tolerance`, checked on batches that really went over the wire.
    let slowlog = c.fetch_document("SLOWLOG 128").unwrap();
    let (mut spans, mut tight) = (0, 0);
    for entry in slowlog.lines().filter(|l| l.starts_with("BATCH ")) {
        let f: Vec<&str> = entry.split(' ').collect();
        let ns = |name: &str| -> u64 {
            let at = f.iter().position(|w| *w == name).expect(name);
            f[at + 1].parse().unwrap()
        };
        let total = ns("TOTAL_NS");
        let sum: u64 = [
            "READ_NS",
            "QUEUE_NS",
            "LOCK_WAIT_NS",
            "CULL_WAIT_NS",
            "EXEC_NS",
            "WAL_FSYNC_NS",
            "FLUSH_NS",
        ]
        .iter()
        .map(|s| ns(s))
        .sum();
        assert!(sum <= total, "stages overlap: {entry}");
        // The flush is stamped after the lent slot is gone; it must
        // not be lost with it.
        assert!(ns("FLUSH_NS") > 0, "no flush stage: {entry}");
        // A preemption between two stage stamps is unattributed time
        // no design can avoid, so the tolerance is asked of nine
        // spans in ten, not of every one.
        tight += usize::from(total - sum <= total / 10 + 50_000);
        spans += 1;
    }
    assert!(spans > 0 && tight * 10 >= spans * 9, "{slowlog}");
    drop(c);
    check_shutdown_drains_the_window(addr);
    close();
}

/// ACS of 1 under four concurrent connections, with the one place
/// held by the test itself until a reader has had to wait for it in
/// the crew's queue: batches that wait (and are handed a place, by the
/// test's returned slot, by each other or by a rescuing worker) keep
/// the same invariants.
#[test]
fn queued_batches_keep_the_wire_invariants() {
    let done = run_with_watchdog(Duration::from_secs(60), || {
        let (addr, _service, crew, close) = start_server_with_crew(4);
        let slot = loop {
            match crew.try_enter() {
                Some(slot) => break slot,
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        let conns: Vec<_> = (0..4u64)
            .map(|c| std::thread::spawn(move || check_order_and_interleave(addr, c * 1_000_000)))
            .collect();
        // Nothing is idle to lend, so the first cheap batch must wait
        // (and stall reprovisioning may rescue it from behind us).
        while crew.stats().enter_refused == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(slot);
        for c in conns {
            c.join().unwrap();
        }
        check_shutdown_drains_the_window(addr);
        close();
    });
    assert!(done, "queued set-up timed out");
}

/// One connection alternating dear batches with cheap ones: each dear
/// batch sends the next one to the queue, each cheap one lets the next
/// run in place, and replies stay in order and correct across every
/// flip. The dear batch is a `PUT` to a durable store whose every WAL
/// append stalls a millisecond (`shard.stall`, under the shard's
/// exclusive hold), so it costs over [`server::INLINE_MAX_DRAIN_NS`]
/// on any host; what each batch cost is still read back from the
/// service's own record (`kv_batch_drain_ns`, the number the rule
/// itself compares against the constant).
#[test]
fn the_cost_rule_flips_both_ways_on_one_connection() {
    /// What the service recorded for one batch, as far as its
    /// histogram bucket tells.
    #[derive(Debug, PartialEq)]
    enum Cost {
        Dear,
        Cheap,
        /// The bucket straddles the constant.
        Unknown,
    }
    const ROUNDS: u64 = 12;
    let dir = std::env::temp_dir().join(format!("malthus-cost-rule-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let faults = FaultPlan::parse("shard.stall=1:1").unwrap().arm();
    let opts = WalOptions {
        faults: Some(Arc::clone(&faults)),
        ..WalOptions::default()
    };
    let (store, _) = ShardedKv::open_with(&dir, 4, 64, 256, opts).unwrap();
    let (addr, service, crew, close) = start_server_with(
        KvService::from_store(store),
        PoolConfig::malthusian(4, 64).with_acs_target(1),
    );
    let mut c = KvClient::connect(addr).unwrap();
    // One request per round trip, so one batch and one new sample.
    let mut seen = service.pipeline_stats().drain_snapshot();
    let mut roundtrip = |line: &str| {
        let queued_before = crew.stats().submitted;
        let reply = c.roundtrip(line).unwrap().to_owned();
        let queued = crew.stats().submitted - queued_before;
        let now = service.pipeline_stats().drain_snapshot();
        let sample = now.delta(&seen);
        assert_eq!(sample.count(), 1, "one batch per round trip");
        let floor = sample.quantile(1.0).as_nanos() as u64;
        let (ceiling, _) = sample.nonzero_buckets().next().unwrap();
        seen = now;
        let cost = if floor >= server::INLINE_MAX_DRAIN_NS {
            Cost::Dear
        } else if ceiling <= server::INLINE_MAX_DRAIN_NS {
            Cost::Cheap
        } else {
            Cost::Unknown
        };
        (reply, cost, queued)
    };
    let mut ran_in_place = 0u64;
    for round in 0..ROUNDS {
        // Dear batch, then three cheap ones, one batch at a time.
        let key = 1_000 + round;
        let (reply, dear, _) = roundtrip(&format!("#{round} PUT {key} {round}"));
        assert_eq!(reply, format!("#{round} OK"));
        assert_eq!(dear, Cost::Dear, "round {round}: the stalled PUT was cheap");
        let (reply, _, queued) = roundtrip(&format!("GET {key}"));
        assert_eq!(reply, format!("VAL {round}"));
        // A dear predecessor: handed to a crew worker, always.
        assert_eq!(queued, 1, "round {round}: ran in place after a dear batch");
        // The cheap predecessor is a PING, not the GET: a GET run on a
        // crew worker of a loaded host can cost a bucket that
        // straddles the constant, while a PING never touches the store.
        let (reply, cheap, _) = roundtrip("#4 PING");
        assert_eq!(reply, "#4 PONG");
        let (reply, _, queued) = roundtrip("#5 PING");
        assert_eq!(reply, "#5 PONG");
        // A cheap predecessor: in place, waiting for the place if the
        // worker that ran the GET has not given it back yet.
        if cheap == Cost::Cheap {
            assert_eq!(queued, 0, "round {round}: queued after a cheap batch");
            ran_in_place += 1;
        }
    }
    let stats = crew.stats();
    assert_eq!(faults.injected(Site::ShardStall), ROUNDS, "one stall a PUT");
    assert!(stats.submitted >= ROUNDS, "{stats:?}");
    assert!(ran_in_place > 0 && stats.inline > 0, "{stats:?}");
    drop(c);
    check_shutdown_drains_the_window(addr);
    close();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client that stops reading costs the crew nothing: connection A
/// pipelines one block of large-reply requests as its first batch
/// (first, so it is applied in place under the crew's only place) and
/// never reads, so the server's `write` to it blocks. The place was
/// returned when A's apply ended, so while A's flush is blocked the
/// crew lends it again at once, and connection B's cheap depth-16
/// windows run through. Held across the flush instead, the place stays
/// with A's socket buffer and nothing can borrow it until A reads.
#[test]
fn a_client_that_stops_reading_does_not_hold_an_acs_place() {
    const SCANS: usize = 680; // "SCAN 0 1024\n" x 680 = 8160 bytes: one read block
    const WINDOWS: u64 = 300;
    let done = run_with_watchdog(Duration::from_secs(120), || {
        let admission = Admission::malthusian(2)
            .with_acs_target(1)
            .with_fairness_period(None);
        let cfg = PoolConfig::new(admission, 16);
        let (addr, service, crew, close) =
            start_server_with(KvService::with_shards(2, 64, 256), cfg);
        // 1024 keys with 20-digit values, loaded past the crew: each
        // SCAN answers ≈27 KiB, the batch ≈17 MiB — several times what
        // a send buffer (4 MiB at most) and the window of a receiver
        // that never reads (it only grows with reading) can take.
        let pairs: Vec<(u64, u64)> = (0..MAX_BATCH_KEYS as u64)
            .map(|k| (k, u64::MAX - k))
            .collect();
        service.store().mset(&pairs).unwrap();
        // The crew has settled — one worker culled, the other idle with
        // the place to lend — before A asks for it; a batch that met
        // the workers still starting up would be queued, and block a
        // worker rather than the reader.
        while crew.stats().members.passive == 0 || crew.try_enter().is_none() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut a = TcpStream::connect(addr).unwrap();
        a.write_all("SCAN 0 1024\n".repeat(SCANS).as_bytes())
            .unwrap();
        // Applied (the service has recorded what the batch cost): from
        // here A's flush is blocked — A has read nothing, and its
        // replies exceed both socket buffers — so the place must be
        // lendable again.
        while service.pipeline_stats().drain_snapshot().count() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let before = crew.stats();
        assert_eq!(before.submitted, 0, "A's batch was queued: {before:?}");
        let deadline = Instant::now() + Duration::from_secs(10);
        while crew.try_enter().is_none() {
            assert!(
                Instant::now() < deadline,
                "A's blocked flush holds the crew's only place: {:?}",
                crew.stats()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let b = TcpStream::connect(addr).unwrap();
        let mut b_writer = b.try_clone().unwrap();
        let mut b_reader = BufReader::new(b);
        let mut line = String::new();
        for w in 0..WINDOWS {
            // Eight PUTs and the eight GETs that must observe them.
            let key = |i: u64| 1_000_000 + (w * 8 + i) % 64;
            let mut burst = String::new();
            for i in 0..8 {
                burst.push_str(&format!("#{i} PUT {} {}\n", key(i), w + i));
            }
            for i in 0..8 {
                burst.push_str(&format!("#{} GET {}\n", 8 + i, key(i)));
            }
            b_writer.write_all(burst.as_bytes()).unwrap();
            for i in 0..16u64 {
                line.clear();
                b_reader.read_line(&mut line).unwrap();
                let want = match i {
                    0..8 => format!("#{i} OK"),
                    _ => format!("#{i} VAL {}", w + i - 8),
                };
                assert_eq!(line.trim_end(), want, "window {w}");
            }
        }

        // A reads at last: every reply is there, whole and in order.
        let want = {
            let mut l = String::from("RANGE");
            for (k, v) in &pairs {
                l.push_str(&format!(" {k}={v}"));
            }
            l.push('\n');
            l
        };
        let mut replies = vec![0u8; SCANS * want.len()];
        a.read_exact(&mut replies).unwrap();
        assert!(replies.len() > 16 << 20);
        assert!(replies.chunks(want.len()).all(|l| l == want.as_bytes()));
        close();
    });
    assert!(done, "a blocked reader stalled the server");
}
