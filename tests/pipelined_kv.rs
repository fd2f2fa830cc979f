//! Wire-level invariants of the pipelined KV protocol: tagged
//! responses echo their tags **in request order**, tagged and
//! untagged requests interleave on one connection, a malformed tag
//! earns an `ERR` without killing the connection, burst framing
//! (many requests in one TCP segment) answers every line, and a
//! depth-16 window against a 4-shard server survives a stress run
//! under the watchdog pattern.
//!
//! A batch reaches the store one of two ways — in place on its
//! connection thread under a lent crew slot, or queued to a crew
//! worker — and which one is chosen from observed state, so the last
//! three tests replay the tag-order, interleave and `SHUTDOWN`-drain
//! invariants in set-ups that pin each way and one that flips between
//! them on a single connection.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use malthus_pool::kv::{self, KvService};
use malthus_pool::{KvClient, PoolConfig, WorkCrew};

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
    let (listener, control) = kv::bind("127.0.0.1:0").unwrap();
    let addr = control.addr();
    let crew = Arc::new(WorkCrew::new(
        PoolConfig::malthusian(4, 64).with_acs_target(1),
    ));
    let service = Arc::new(KvService::with_shards(shards, 64, 256));
    let server = {
        let crew = Arc::clone(&crew);
        let service = Arc::clone(&service);
        let control = control.clone();
        std::thread::spawn(move || kv::serve(listener, &control, crew, service).unwrap())
    };
    let service_out = Arc::clone(&service);
    let crew_out = Arc::clone(&crew);
    let closer = move || {
        control.stop();
        server.join().unwrap();
        crew.shutdown();
    };
    (addr, service_out, crew_out, closer)
}

/// A burst of tagged requests sent before any response is read must
/// come back with every tag echoed, in request order.
#[test]
fn tagged_responses_echo_in_request_order() {
    let (addr, _service, close) = start_server(2);
    let mut c = KvClient::connect(addr).unwrap();
    for tag in 0..32u64 {
        c.send_tagged(tag, &format!("PUT {tag} {}", tag * 10))
            .unwrap();
    }
    for tag in 0..32u64 {
        let (got, resp) = c.recv_tagged().unwrap();
        assert_eq!(got, tag, "response order must match request order");
        assert_eq!(resp, "OK");
    }
    for tag in 0..32u64 {
        c.send_tagged(1_000 + tag, &format!("GET {tag}")).unwrap();
    }
    for tag in 0..32u64 {
        let (got, resp) = c.recv_tagged().unwrap();
        assert_eq!(got, 1_000 + tag);
        assert_eq!(resp, format!("VAL {}", tag * 10));
    }
    drop(c);
    close();
}

/// Tagged and untagged requests interleave freely on one connection;
/// untagged responses carry no tag prefix (byte-identical legacy
/// framing) and order is preserved across the mix.
#[test]
fn tagged_and_untagged_streams_interleave() {
    let (addr, _service, close) = start_server(2);
    let mut c = KvClient::connect(addr).unwrap();
    c.send_tagged(7, "PUT 5 55").unwrap();
    c.send_line("GET 5").unwrap();
    c.send_tagged(8, "GET 5").unwrap();
    c.send_line("PING").unwrap();
    c.send_tagged(9, "MGET 5 6").unwrap();
    assert_eq!(c.recv_line().unwrap(), "#7 OK");
    assert_eq!(c.recv_line().unwrap(), "VAL 55");
    assert_eq!(c.recv_line().unwrap(), "#8 VAL 55");
    assert_eq!(c.recv_line().unwrap(), "PONG");
    assert_eq!(c.recv_line().unwrap(), "#9 VALS 55 -");
    drop(c);
    close();
}

/// Malformed tags and bad verbs under good tags both earn `ERR`
/// responses — and the connection keeps serving afterwards.
#[test]
fn malformed_tags_err_without_killing_the_connection() {
    let (addr, _service, close) = start_server(1);
    let mut c = KvClient::connect(addr).unwrap();
    // Garbled tag: untagged ERR (there is no trustworthy tag to echo).
    let resp = c.roundtrip("#banana GET 1").unwrap();
    assert!(resp.starts_with("ERR malformed tag"), "{resp}");
    let resp = c.roundtrip("#").unwrap();
    assert!(resp.starts_with("ERR malformed tag"), "{resp}");
    let resp = c.roundtrip("#1.5 PING").unwrap();
    assert!(resp.starts_with("ERR malformed tag"), "{resp}");
    // Good tag, bad verb: the tag echoes on the ERR.
    assert_eq!(
        c.roundtrip("#3 BOGUS 1").unwrap(),
        "#3 ERR unknown verb BOGUS"
    );
    // Good tag, empty body.
    assert_eq!(c.roundtrip("#4").unwrap(), "#4 ERR empty request");
    // The connection is still alive and well.
    assert_eq!(c.roundtrip("PING").unwrap(), "PONG");
    assert_eq!(c.roundtrip("#5 PING").unwrap(), "#5 PONG");
    drop(c);
    close();
}

/// Many requests delivered in ONE TCP segment (a single write) must
/// each get their response line, in order — the drain-per-wakeup path
/// exercised deterministically from the socket side.
#[test]
fn single_write_burst_answers_every_line() {
    let (addr, service, close) = start_server(2);
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut burst = String::new();
    for k in 0..24u64 {
        burst.push_str(&format!("PUT {k} {}\n", k + 100));
    }
    burst.push_str("GET 3\n#77 GET 23\nPING\n");
    writer.write_all(burst.as_bytes()).unwrap();
    let mut line = String::new();
    for _ in 0..24 {
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "OK");
    }
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "VAL 103");
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "#77 VAL 123");
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "PONG");
    // The burst produced at least one multi-request drained batch.
    assert!(service.pipeline_stats().batches() >= 1);
    assert!(
        service.pipeline_stats().max_batch() >= 2,
        "a 27-line single segment must drain as a batch, max = {}",
        service.pipeline_stats().max_batch()
    );
    drop(writer);
    drop(reader);
    close();
}

/// Depth-16 windows from several connections against a 4-shard server:
/// every response matches its request (tag AND value), under the
/// watchdog so a lost wakeup fails loudly instead of hanging CI.
#[test]
fn depth_16_stress_against_four_shards() {
    let done = run_with_watchdog(Duration::from_secs(60), || {
        let (addr, service, close) = start_server(4);
        let conns = 3usize;
        let per_conn = 2_000u64;
        let depth = 16usize;
        let workers: Vec<_> = (0..conns)
            .map(|c| {
                std::thread::spawn(move || {
                    let mut client = KvClient::connect(addr).unwrap();
                    let base = c as u64 * 1_000_000;
                    let mut outstanding: std::collections::VecDeque<(u64, u64, bool)> =
                        std::collections::VecDeque::with_capacity(depth);
                    let mut sent = 0u64;
                    let mut received = 0u64;
                    while received < per_conn {
                        while sent < per_conn && outstanding.len() < depth {
                            let key = base + (sent / 2);
                            // Alternate PUT then GET of the same key:
                            // the GET rides the same or a later batch
                            // and must observe the PUT (per-key FIFO).
                            let is_put = sent.is_multiple_of(2);
                            if is_put {
                                client
                                    .send_tagged(sent, &format!("PUT {key} {}", key + 7))
                                    .unwrap();
                            } else {
                                client.send_tagged(sent, &format!("GET {key}")).unwrap();
                            }
                            outstanding.push_back((sent, key, is_put));
                            sent += 1;
                        }
                        let (exp, key, is_put) = outstanding.pop_front().unwrap();
                        let (tag, resp) = client.recv_tagged().unwrap();
                        assert_eq!(tag, exp, "conn {c}: tag order");
                        if is_put {
                            assert_eq!(resp, "OK", "conn {c} key {key}");
                        } else {
                            assert_eq!(
                                resp,
                                format!("VAL {}", key + 7),
                                "conn {c}: GET after PUT of key {key}"
                            );
                        }
                        received += 1;
                    }
                    assert!(outstanding.is_empty());
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        // Pipeline observability: the stress produced batches, and
        // once the connections close their histograms merge into the
        // service-wide distribution (LatencyHistogram::merge across
        // connections).
        let p = service.pipeline_stats();
        assert!(p.batches() > 0);
        assert!(p.max_batch() >= 1);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while p.merged_batches() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(
            p.merged_batches() > 0,
            "closed connections must fold their batch histograms in"
        );
        let (p50, p99) = p.batch_quantiles();
        assert!(p50 >= 1 && p99 >= p50, "p50 {p50} p99 {p99}");
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
    let (addr, service, _crew, close) = start_server_with_crew(2);
    service.set_slowlog_threshold_us(1); // capture every batch's span
    check_order_and_interleave(addr, 0);
    let mut c = KvClient::connect(addr).unwrap();
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

/// One connection alternating cheap batches with dear ones (512-pair
/// `MSET`s into a store many freezes deep): each dear batch sends the
/// next one to the queue, each cheap one lets the next run in place,
/// and replies stay in order and correct across every flip.
#[test]
fn the_cost_rule_flips_both_ways_on_one_connection() {
    let (addr, _service, crew, close) = start_server_with_crew(4);
    let mut c = KvClient::connect(addr).unwrap();
    let rounds = 12u64;
    for round in 0..rounds {
        let pairs: Vec<String> = (0..512u64)
            .map(|k| format!("{} {}", round * 512 + k, round))
            .collect();
        // Dear batch, then two cheap ones, one batch at a time.
        let resp = c.roundtrip(&format!("#{round} MSET {}", pairs.join(" ")));
        assert_eq!(resp.unwrap(), format!("#{round} OK 512"));
        let probe = round * 512 + 7;
        assert_eq!(
            c.roundtrip(&format!("GET {probe}")).unwrap(),
            format!("VAL {round}")
        );
        assert_eq!(c.roundtrip("#5 PING").unwrap(), "#5 PONG");
    }
    let stats = crew.stats();
    // Every MSET took far longer than `INLINE_MAX_DRAIN_NS`, so the
    // batch after it was queued; the PINGs after the GETs had a cheap
    // predecessor and (the worker having idled again) ran in place.
    assert!(stats.submitted >= rounds, "{stats:?}");
    assert!(stats.inline > 0, "{stats:?}");
    drop(c);
    check_shutdown_drains_the_window(addr);
    close();
}

/// Runs `f` on a helper thread and fails (returning `false`) if it
/// does not complete within `timeout` — a lost wakeup must fail the
/// test, not hang CI (same pattern as the rwlock/sharded suites).
fn run_with_watchdog(timeout: Duration, f: impl FnOnce() + Send + 'static) -> bool {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(timeout) {
        Ok(()) => {
            worker.join().unwrap();
            true
        }
        Err(_) => false,
    }
}
