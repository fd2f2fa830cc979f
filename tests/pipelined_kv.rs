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
//! Every batch reaches the store the same way — in place on its
//! connection thread under a lent crew slot, at once or after waiting
//! in the crew's queue for one — so the last tests replay the
//! tag-order, interleave and `SHUTDOWN`-drain invariants in set-ups
//! that pin a slot lent at once, dear batches over a stalled durable
//! store, and a slot waited for, and answer a batch the crew refuses at
//! shutdown. A lent slot covers a batch's apply and not its reply
//! `write`, and the last test holds the server to that with a client
//! that stops reading.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use malthus_fault::{FaultPlan, Site};
use malthus_pool::protocol::MAX_BATCH_KEYS;
use malthus_pool::{Admission, Front, KvClient, KvService, PoolConfig, Server, WorkCrew};
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

/// Every batch runs in place — with an idle worker to lend its place,
/// or by waiting for one — however cheap or dear: the invariants hold,
/// `crew_inline_total` counts every batch, nothing is submitted to a
/// crew worker, and every span's stages still partition its total.
#[test]
fn every_batch_runs_in_place_and_keeps_the_wire_invariants() {
    const PINGS: u64 = 16;
    const ROUNDS: u64 = 12;
    let (addr, service, crew, close) = start_server_with_crew(2);
    service.set_slowlog_threshold_us(1); // capture every batch's span
    check_order_and_interleave(addr, 0);
    let mut c = KvClient::connect(addr).unwrap();
    let before = crew.stats();
    for _ in 0..PINGS {
        assert_eq!(c.roundtrip("PING").unwrap(), "PONG");
    }
    let after = crew.stats();
    assert_eq!(
        (after.submitted, after.inline - before.inline),
        (0, PINGS),
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

    // Dear batches take the same path. On one connection to a durable
    // store whose every WAL append stalls a millisecond (`shard.stall`,
    // under the shard's exclusive hold), PUT batches that each cost
    // over 1 ms alternate with GETs and PINGs, one batch a round trip.
    let dir = std::env::temp_dir().join(format!("malthus-in-place-{}", std::process::id()));
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
    for round in 0..ROUNDS {
        let key = 1_000 + round;
        let put = c.roundtrip(&format!("#{round} PUT {key} {round}")).unwrap();
        assert_eq!(put, format!("#{round} OK"));
        let get = c.roundtrip(&format!("GET {key}")).unwrap();
        assert_eq!(get, format!("VAL {round}"));
        assert_eq!(c.roundtrip("#4 PING").unwrap(), "#4 PONG");
    }
    assert_eq!(faults.injected(Site::ShardStall), ROUNDS, "one stall a PUT");
    let stats = crew.stats();
    assert_eq!(service.pipeline_stats().batches(), 3 * ROUNDS);
    assert_eq!(
        (stats.submitted, stats.inline),
        (0, 3 * ROUNDS),
        "a batch did not run in place: {stats:?}"
    );
    drop(c);
    check_shutdown_drains_the_window(addr);
    close();
    let _ = std::fs::remove_dir_all(&dir);
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

/// A batch that meets a crew already shut down is refused, not lost:
/// its connection reads `ERR shutting down`, then EOF, and the server
/// still stops.
#[test]
fn a_batch_at_crew_shutdown_is_answered_err_and_closed() {
    let done = run_with_watchdog(Duration::from_secs(60), || {
        let (addr, _service, crew, close) = start_server_with_crew(1);
        let mut c = KvClient::connect(addr).unwrap();
        crew.shutdown();
        // A one-request batch, which asks the crew for a place.
        assert_eq!(c.roundtrip("PING").unwrap(), "ERR shutting down");
        let eof = c.recv_line().map(str::to_owned).unwrap_err();
        assert_eq!(eof.kind(), std::io::ErrorKind::UnexpectedEof);
        close();
    });
    assert!(done, "the server did not stop after a refused batch");
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
        // the place to lend — before A asks for it, so A's batch takes
        // the crew's only place.
        while crew.stats().members.passive == 0 || crew.try_enter().is_none() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let settled = crew.stats().inline;
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
        let deadline = Instant::now() + Duration::from_secs(10);
        while crew.try_enter().is_none() {
            assert!(
                Instant::now() < deadline,
                "A's blocked flush holds the crew's only place: {:?}",
                crew.stats()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // Two places were returned since the crew settled: A's, and
        // the one the probe above was lent next.
        let stats = crew.stats();
        assert_eq!(stats.inline - settled, 2, "A ran elsewhere: {stats:?}");
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
