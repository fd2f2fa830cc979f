//! The wire invariants both KV front-ends must keep, each written once
//! and taking the address of a running server: `tests/pipelined_kv.rs`
//! runs them against the threaded front-end, `tests/async_kv.rs`
//! against the reactor. The protocol is byte-identical between the
//! two, so the assertions are too.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use malthus_pool::{KvClient, KvService};

/// A burst of tagged requests sent before any response is read must
/// come back with every tag echoed, in request order.
pub fn tagged_responses_echo_in_request_order(addr: SocketAddr) {
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
}

/// Tagged and untagged requests interleave freely on one connection;
/// untagged responses carry no tag prefix (byte-identical legacy
/// framing) and order is preserved across the mix.
pub fn tagged_and_untagged_streams_interleave(addr: SocketAddr) {
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
}

/// Malformed tags and bad verbs under good tags both earn `ERR`
/// responses — and the connection keeps serving afterwards.
pub fn malformed_tags_err_without_killing_the_connection(addr: SocketAddr) {
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
}

/// Many requests delivered in ONE TCP segment (a single write) must
/// each get their response line, in order, and drain as a batch — the
/// drain-per-wakeup path exercised deterministically from the socket
/// side.
pub fn single_write_burst_answers_every_line(addr: SocketAddr, service: &KvService) {
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
    let expected = std::iter::repeat_n("OK", 24).chain(["VAL 103", "#77 VAL 123", "PONG"]);
    for want in expected {
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), want);
    }
    // The burst produced at least one multi-request drained batch.
    assert!(service.pipeline_stats().batches() >= 1);
    assert!(
        service.pipeline_stats().max_batch() >= 2,
        "a 27-line single segment must drain as a batch, max = {}",
        service.pipeline_stats().max_batch()
    );
}

/// A depth-1 client (one untagged request, then its reply) is the
/// classic closed loop: every request drains as a batch of its own,
/// and every PUT pays its own exclusive DB-lock episode.
pub fn a_depth_one_client_runs_one_request_per_batch(addr: SocketAddr, service: &KvService) {
    let (batches, writes, episodes) = (
        service.pipeline_stats().batches(),
        service.store().stats().writes(),
        write_episodes(service),
    );
    let mut c = KvClient::connect(addr).unwrap();
    for k in 0..64u64 {
        assert_eq!(c.roundtrip(&format!("PUT {k} {}", k + 1)).unwrap(), "OK");
        assert_eq!(
            c.roundtrip(&format!("GET {k}")).unwrap(),
            format!("VAL {}", k + 1)
        );
    }
    let p = service.pipeline_stats();
    assert_eq!(p.batches() - batches, 128, "one batch per request");
    assert_eq!(p.max_batch(), 1);
    assert_eq!(service.store().stats().writes() - writes, 64);
    let episodes = write_episodes(service) - episodes;
    assert_eq!(episodes, 64, "one write episode per PUT");
}

/// Exclusive DB-lock episodes, summed across the store's shards.
fn write_episodes(service: &KvService) -> u64 {
    let stats = service.store().stats();
    stats
        .per_shard
        .iter()
        .map(|s| s.db_lock.write_episodes)
        .sum()
}

/// Depth-16 windows from several connections against a fresh
/// memory-only 4-shard server: every response matches its request
/// (tag AND value), every batch lands in the service-wide batch-size
/// distribution, the store took exactly the PUTs the clients saw
/// acknowledged, batching never costs more than one exclusive episode
/// per write, and nothing was fsynced. Run it under
/// [`run_with_watchdog`].
pub fn depth_16_stress_against_four_shards(addr: SocketAddr, service: &KvService) {
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
    // Pipeline observability: the stress produced batches, every one of
    // them in the one service-wide distribution.
    let p = service.pipeline_stats();
    assert!(p.batches() > 0);
    assert!(p.max_batch() >= 1);
    assert_eq!(p.batch_size_snapshot().count(), p.batches());
    let (p50, p99) = p.batch_size_snapshot().p50_p99();
    assert!(p50.as_nanos() >= 1 && p99 >= p50, "p50 {p50:?} p99 {p99:?}");
    let stats = service.store().stats();
    assert_eq!(stats.writes(), conns as u64 * per_conn / 2);
    let episodes = write_episodes(service);
    assert!(episodes <= stats.writes(), "{episodes} write episodes");
    assert_eq!(stats.wal_syncs(), 0, "a memory-only store fsyncs nothing");
}

/// The batch count and the batch-size distribution are one instrument:
/// with three connections open, each past a pipelined window, one
/// `METRICS` scrape reports `kv_pipeline_batches_total` equal to
/// `kv_pipeline_batch_size_count` (the scrape's own batch in both).
pub fn batch_instruments_agree_while_connections_are_open(addr: SocketAddr) {
    let mut conns: Vec<KvClient> = (0..3).map(|_| KvClient::connect(addr).unwrap()).collect();
    for (c, client) in conns.iter_mut().enumerate() {
        for t in 0..16u64 {
            let key = c as u64 * 100 + t;
            client.send_tagged(t, &format!("PUT {key} {t}")).unwrap();
        }
        for t in 0..16u64 {
            let (tag, resp) = client.recv_tagged().unwrap();
            assert_eq!((tag, resp), (t, "OK"), "conn {c}");
        }
    }
    let doc = conns[0].fetch_document("METRICS").unwrap();
    let value = |name: &str| -> f64 {
        doc.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("no {name} in:\n{doc}"))
    };
    let batches = value("kv_pipeline_batches_total");
    assert!(batches >= 4.0, "three windows and a scrape: {batches}");
    assert_eq!(batches, value("kv_pipeline_batch_size_count"), "{doc}");
}

/// One executor admission point, one exported family: `restricted` is
/// a server of 4 workers held to an ACS target of 1 and
/// `unrestricted` one of 4 workers all circulating over the MCS lock
/// pair, both admitted at `point` (`crew` or `reactor`), whose cull
/// counter is `culls`.
pub fn the_admission_point_exports_one_family(
    point: &str,
    culls: &str,
    restricted: SocketAddr,
    unrestricted: SocketAddr,
) {
    let scrape = |addr| {
        let doc = KvClient::connect(addr)
            .unwrap()
            .fetch_document("METRICS")
            .unwrap();
        move |name: &str| -> f64 {
            let series = if name == culls {
                name.to_string()
            } else {
                format!("{name}{{point=\"{point}\"}}")
            };
            doc.lines()
                .find_map(|l| l.strip_prefix(&series)?.strip_prefix(' ')?.parse().ok())
                .unwrap_or_else(|| panic!("no {series} in:\n{doc}"))
        }
    };
    let series = scrape(restricted);
    assert_eq!(series("malthus_acs_target"), 1.0);
    // The two gauges are read one after the other, so a cull between
    // them can tear one scrape; every worker is either in the ACS or
    // on the passive stack once the machine has settled.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut series = series;
    while series("malthus_acs_size") + series("malthus_passive_depth") != 4.0 {
        assert!(Instant::now() < deadline, "ACS + passive never read 4");
        std::thread::sleep(Duration::from_millis(5));
        series = scrape(restricted);
    }
    let series = scrape(unrestricted);
    assert_eq!(series("malthus_acs_target"), 4.0);
    assert_eq!(series(culls), 0.0);
}

/// Runs `f` on a helper thread and fails (returning `false`) if it
/// does not complete within `timeout` — a lost wakeup must fail the
/// test, not hang CI (same pattern as the rwlock/sharded suites).
pub fn run_with_watchdog(timeout: Duration, f: impl FnOnce() + Send + 'static) -> bool {
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
