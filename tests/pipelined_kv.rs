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
//! connection thread under a lent crew slot, or queued to a crew
//! worker — and which one is chosen from observed state, so the last
//! three tests replay the tag-order, interleave and `SHUTDOWN`-drain
//! invariants in set-ups that pin each way and one that flips between
//! them on a single connection. A lent slot covers a batch's apply and
//! not its reply `write`, and the last test holds the server to that
//! with a client that stops reading.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use malthus_pool::protocol::MAX_BATCH_KEYS;
use malthus_pool::{server, Admission, Front, KvClient, KvService, PoolConfig, Server, WorkCrew};

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
fn start_server_with(
    service: KvService,
    crew: PoolConfig,
) -> (SocketAddr, Arc<KvService>, Arc<WorkCrew>, impl FnOnce()) {
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

#[test]
fn the_admission_point_exports_one_family() {
    let start = |admission| {
        let crew = PoolConfig::new(admission, 64);
        start_server_with(KvService::with_shards(2, 64, 256), crew)
    };
    let (restricted, _, _, close_restricted) = start(Admission::malthusian(4).with_acs_target(1));
    let (unrestricted, _, _, close_unrestricted) = start(Admission::unrestricted(4));
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

/// Cheap batches on an otherwise idle crew run in place: the
/// invariants hold, `crew_inline_total` moves, and every span's stages
/// still partition its total.
#[test]
fn cheap_batches_run_in_place_and_keep_the_wire_invariants() {
    let (addr, service, crew, close) = start_server_with_crew(2);
    service.set_slowlog_threshold_us(1); // capture every batch's span
    check_order_and_interleave(addr, 0);
    let mut c = KvClient::connect(addr).unwrap();
    // On a busy host every batch of the load above may have queued:
    // with an ACS of 1 a batch applied under load costs more than the
    // cost rule's bound, so its connection keeps queueing. A PING on
    // this fresh connection is cheap, so it asks for a place; it runs
    // in place once the worker that ran the last of that load is back
    // to idle, which a preempted worker may not yet be.
    for _ in 0..1_000 {
        assert_eq!(c.roundtrip("PING").unwrap(), "PONG");
        if crew.stats().inline > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
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
/// held by the test itself until a batch has had to queue: the queued
/// path keeps the same invariants.
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
        // Nothing is idle to lend, so the first batches must queue
        // (and stall reprovisioning must rescue them from behind us).
        while crew.stats().submitted == 0 {
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
/// flip. Which batches were dear is not assumed from their size but
/// read back from the service's own record of what each one cost
/// (`kv_batch_drain_ns`, the number the rule itself compares against
/// [`server::INLINE_MAX_DRAIN_NS`]); the largest `MSET` the protocol
/// takes is the candidate, retried until enough of them were dear.
#[test]
fn the_cost_rule_flips_both_ways_on_one_connection() {
    /// What the service recorded for one batch, as far as its
    /// histogram bucket tells.
    #[derive(PartialEq)]
    enum Cost {
        Dear,
        Cheap,
        /// The bucket straddles the constant.
        Unknown,
    }
    let (addr, service, crew, close) = start_server_with_crew(4);
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
    let (rounds, mut dear_rounds, mut ran_in_place) = (12u64, 0u64, 0u64);
    for round in 0..4 * rounds {
        let pairs: Vec<String> = (0..MAX_BATCH_KEYS as u64)
            .map(|k| format!("{} {}", round * MAX_BATCH_KEYS as u64 + k, round))
            .collect();
        // Dear batch, then three cheap ones, one batch at a time.
        let (reply, dear, _) = roundtrip(&format!("#{round} MSET {}", pairs.join(" ")));
        assert_eq!(reply, format!("#{round} OK {MAX_BATCH_KEYS}"));
        let probe = round * MAX_BATCH_KEYS as u64 + 7;
        let (reply, _, queued) = roundtrip(&format!("GET {probe}"));
        assert_eq!(reply, format!("VAL {round}"));
        if dear == Cost::Dear {
            // A dear predecessor: handed to a crew worker, always.
            assert_eq!(queued, 1, "round {round}: ran in place after a dear batch");
            dear_rounds += 1;
        }
        // The cheap predecessor is a PING, not the GET: a GET on a
        // loaded host can cost a bucket that straddles the constant,
        // while a PING never touches the store.
        let (reply, cheap, _) = roundtrip("#4 PING");
        assert_eq!(reply, "#4 PONG");
        let (reply, _, queued) = roundtrip("#5 PING");
        assert_eq!(reply, "#5 PONG");
        // A cheap predecessor: in place whenever a worker is idle to
        // lend its slot (the one that ran an earlier batch may still
        // be on its way back), so it is counted here and asserted
        // below.
        ran_in_place += u64::from(cheap == Cost::Cheap && queued == 0);
        if dear_rounds >= rounds && ran_in_place > 0 {
            break;
        }
    }
    let stats = crew.stats();
    assert!(
        dear_rounds >= rounds,
        "{dear_rounds} dear batches; {stats:?}"
    );
    assert!(stats.submitted >= dear_rounds, "{stats:?}");
    assert!(ran_in_place > 0 && stats.inline > 0, "{stats:?}");
    drop(c);
    check_shutdown_drains_the_window(addr);
    close();
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
