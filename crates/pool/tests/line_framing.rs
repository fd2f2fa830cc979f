//! Line framing and everything after it is one piece of code (the
//! per-connection session) behind two readers — the threaded
//! front-end's block reader and the reactor's scratch-block drain — so
//! each case is asserted once and run against both: a line split
//! across two writes, a line longer than either reader's block,
//! Unicode whitespace around a line, invalid UTF-8 closing the
//! connection, and a seeded script of every request shape, delivered
//! in random-sized pieces, whose reply stream must be the same bytes
//! from both front-ends and from a sequential model of the service.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use malthus_metrics::LatencyHistogram;
use malthus_obs::exposition::Exposition;
use malthus_obs::SpanContext;
use malthus_park::XorShift64;
use malthus_pool::protocol::MAX_BATCH_KEYS;
use malthus_pool::{
    serve_async, server, AsyncServeOptions, KvService, Parsed, PoolConfig, WorkCrew,
};

/// The store every server here, and the model they are compared with,
/// is built over.
fn service() -> KvService {
    KvService::with_shards(4, 4_096, 256)
}

/// Boots one front-end on an ephemeral port; the closer stops it.
fn start(reactor: bool) -> (SocketAddr, Box<dyn FnOnce()>) {
    let (listener, control) = server::bind("127.0.0.1:0").unwrap();
    let addr = control.addr();
    let service = Arc::new(service());
    let crew = Arc::new(WorkCrew::new(PoolConfig::malthusian(2, 16)));
    let server = {
        let (control, crew) = (control.clone(), Arc::clone(&crew));
        std::thread::spawn(move || {
            if reactor {
                serve_async(
                    listener,
                    &control,
                    service,
                    AsyncServeOptions::malthusian(2),
                )
            } else {
                server::serve(listener, &control, crew, service)
            }
            .unwrap()
        })
    };
    let closer = move || {
        control.stop();
        server.join().unwrap();
        crew.shutdown();
    };
    (addr, Box::new(closer))
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn reply(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line
}

fn on_both_front_ends(case: impl Fn(SocketAddr)) {
    for reactor in [false, true] {
        let (addr, close) = start(reactor);
        case(addr);
        close();
    }
}

#[test]
fn a_request_split_across_two_writes_is_answered_once_whole() {
    on_both_front_ends(|addr| {
        let (mut c, mut replies) = connect(addr);
        c.write_all(b"#1 PUT 7 70\n#2 GE").unwrap();
        assert_eq!(reply(&mut replies), "#1 OK\n");
        // The server now holds `#2 GE` as an unfinished line.
        c.write_all(b"T 7\n#3 PING\n").unwrap();
        assert_eq!(reply(&mut replies), "#2 VAL 70\n");
        assert_eq!(reply(&mut replies), "#3 PONG\n");
    });
}

#[test]
fn a_line_longer_than_the_read_block_is_served() {
    // 1024 pairs of 20-digit numbers: 43 KiB in one line, several
    // times the threaded reader's block and the reactor's scratch.
    let mut line = String::from("#9 MSET");
    for i in 0..MAX_BATCH_KEYS as u64 {
        line.push_str(&format!(" {} {}", u64::MAX - i, u64::MAX / 2 + i));
    }
    line.push('\n');
    assert!(line.len() > 40 * 1024);
    on_both_front_ends(|addr| {
        let (mut c, mut replies) = connect(addr);
        c.write_all(line.as_bytes()).unwrap();
        assert_eq!(reply(&mut replies), format!("#9 OK {MAX_BATCH_KEYS}\n"));
        c.write_all(format!("GET {}\n", u64::MAX).as_bytes())
            .unwrap();
        assert_eq!(reply(&mut replies), format!("VAL {}\n", u64::MAX / 2));
    });
}

#[test]
fn unicode_whitespace_around_a_line_is_trimmed() {
    on_both_front_ends(|addr| {
        let (mut c, mut replies) = connect(addr);
        c.write_all("\u{00A0}#4 PUT 1 2\u{2003}\r\n\u{3000}\n \t GET 1 \n".as_bytes())
            .unwrap();
        assert_eq!(reply(&mut replies), "#4 OK\n");
        assert_eq!(reply(&mut replies), "VAL 2\n");
    });
}

#[test]
fn invalid_utf8_closes_the_connection_and_nothing_executes() {
    on_both_front_ends(|addr| {
        let (mut c, mut replies) = connect(addr);
        c.write_all(b"PUT 5 50\nGET \xFF\n").unwrap();
        let mut rest = Vec::new();
        replies.read_to_end(&mut rest).unwrap();
        assert_eq!(
            rest, b"",
            "the chunk is dropped whole and the socket closed"
        );
        let (mut c, mut replies) = connect(addr);
        c.write_all(b"GET 5\n").unwrap();
        assert_eq!(reply(&mut replies), "NIL\n");
    });
}

/// A seeded script of request lines: runs of one and longer runs of
/// data ops over a small key space (so reads meet earlier writes),
/// `MGET`/`MSET` spanning shards, control verbs and parse errors
/// splitting the runs, tags on some lines and not on others, blank
/// lines — and `QUIT` as its last bytes.
fn script(rng: &XorShift64) -> String {
    let key = || rng.next_below(200);
    let mut text = String::new();
    let mut tag = 0u64;
    while text.len() < 48 * 1024 {
        let run = match rng.next_below(4) {
            0 => 1,
            _ => 1 + rng.next_below(24),
        };
        for _ in 0..run {
            if rng.one_in(2) {
                tag += 1;
                text.push_str(&format!("#{tag} "));
            }
            match rng.next_below(8) {
                0..=2 => text.push_str(&format!("GET {}", key())),
                3..=5 => text.push_str(&format!("PUT {} {}", key(), rng.next_u64())),
                6 => {
                    text.push_str("MGET");
                    for _ in 0..=rng.next_below(8) {
                        text.push_str(&format!(" {}", key()));
                    }
                }
                _ => {
                    text.push_str("MSET");
                    for _ in 0..=rng.next_below(6) {
                        text.push_str(&format!(" {} {}", key(), rng.next_u64()));
                    }
                }
            }
            text.push('\n');
        }
        // What ends the run: a control verb, a line that does not
        // parse, or nothing (a blank line does not split a batch).
        text.push_str(match rng.next_below(12) {
            0 => "PING",
            1 => "#5 PING",
            2 => "STATS",
            3 => "#6 STATS",
            4 => "SCAN 0 300",
            5 => "#7 SCAN 100 5",
            6 => "#banana GET 1",
            7 => "#",
            8 => "#1.5 PING",
            9 => "#3 BOGUS 1",
            10 => "#4",
            _ => "",
        });
        text.push('\n');
    }
    text.push_str("QUIT\n");
    text
}

/// `STATS` replies reduced to the fields the request stream alone
/// decides; how the stream was cut into batches — which the other
/// fields count — is the front-end's and the scheduler's business.
fn without_batching_counters(replies: &str) -> String {
    let mut out = String::new();
    for line in replies.lines() {
        if line.split(' ').any(|word| word == "STATS") {
            let kept: Vec<&str> = line
                .split(' ')
                .filter(|w| {
                    !w.contains('=')
                        || ["reads=", "writes=", "shards="]
                            .iter()
                            .any(|f| w.starts_with(f))
                })
                .collect();
            out.push_str(&kept.join(" "));
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

#[test]
fn a_seeded_script_in_random_chunks_reads_the_same_from_both_front_ends_and_the_model() {
    let rng = XorShift64::new(0x5E55_1011);
    let script = script(&rng);
    // The model: one thread, one request at a time, no sockets.
    let model = service();
    let mut want = String::new();
    for line in script.lines().filter(|l| !l.is_empty() && *l != "QUIT") {
        let batch = [Parsed::from_line(line)];
        model.apply_batch_span(&batch, &mut want, &mut SpanContext::detached());
    }
    let want = without_batching_counters(&want);
    let requests = want.lines().count();
    assert!(requests > 1_000, "a script of only {requests} requests");

    // One chunking for both front-ends: mostly a few bytes, now and
    // then more than a read block, sometimes with a pause so that the
    // server really sees the piece on its own.
    let mut chunks = Vec::new();
    let mut at = 0;
    while at < script.len() {
        let len = match rng.next_below(16) {
            0 => 8 * 1024 + rng.next_below(4 * 1024),
            1..=3 => 1,
            _ => 1 + rng.next_below(96),
        } as usize;
        let end = (at + len).min(script.len());
        chunks.push((at..end, rng.one_in(8)));
        at = end;
    }
    assert!(chunks.iter().any(|(c, _)| c.len() > 8 * 1024));
    assert!(chunks.iter().any(|(c, _)| c.len() == 1));

    let streams = std::cell::RefCell::new(Vec::new());
    on_both_front_ends(|addr| {
        let (mut c, mut replies) = connect(addr);
        let got = std::thread::scope(|s| {
            // Replies are read while requests are written: neither
            // side may fill its socket waiting for the other.
            let reader = s.spawn(move || {
                let mut got = String::new();
                replies.read_to_string(&mut got).unwrap();
                got
            });
            for (chunk, pause) in &chunks {
                c.write_all(&script.as_bytes()[chunk.clone()]).unwrap();
                if *pause {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            reader.join().unwrap()
        });
        streams.borrow_mut().push(without_batching_counters(&got));
    });
    let streams = streams.into_inner();
    assert!(streams[0] == want, "the threaded front-end left the model");
    assert!(streams[1] == want, "the reactor front-end left the model");
}

/// `STATS` is a projection of the `METRICS` registry: after a pipelined
/// run with `MGET`s, a quiescent server answers one batch holding both
/// verbs — so both describe the same instant — with a `STATS` line
/// every field of which is what the scrape's series give.
#[test]
fn every_stats_field_is_what_the_metrics_scrape_says() {
    for reactor in [false, true] {
        let (addr, close) = start(reactor);
        let (mut c, mut replies) = connect(addr);
        let window: String = (0..64u64)
            .map(|t| match t % 4 {
                0 => format!("#{t} PUT {t} {}\n", t * 10),
                1 | 2 => format!("#{t} GET {}\n", t - 1),
                _ => format!("#{t} MGET {} {} 999\n", t - 3, t - 2),
            })
            .collect();
        for _ in 0..8 {
            c.write_all(window.as_bytes()).unwrap();
            for _ in 0..64 {
                assert!(!reply(&mut replies).starts_with("ERR"));
            }
        }
        c.write_all(b"STATS\nMETRICS\n").unwrap();
        let stats = reply(&mut replies);
        let mut doc = String::new();
        while !doc.ends_with("# EOF\n") {
            assert!(replies.read_line(&mut doc).unwrap() > 0, "{doc}");
        }
        close();

        let m = Exposition::parse(&doc);
        let sum = |names: &[&str]| -> u64 {
            let series = m.series.iter().filter(|s| names.contains(&s.name.as_str()));
            series.map(|s| s.value).sum::<f64>() as u64
        };
        // The batch-size histogram rebuilt from its cumulative buckets:
        // an observation just under each bucket's bound lands in that
        // bucket, so its quantiles are the server's.
        let sizes = LatencyHistogram::new();
        let mut below = 0.0;
        for (le, cumulative) in m.buckets("kv_pipeline_batch_size", &[]) {
            if le.is_finite() {
                for _ in 0..(cumulative - below) as u64 {
                    sizes.record_ns(le as u64 - 1);
                }
                below = cumulative;
            }
        }
        let (p50, p99) = sizes.p50_p99();
        let admission: [&str; 4] = if reactor {
            [
                "kv_reactor_ready_batches_total",
                "kv_reactor_culls_total",
                "kv_reactor_reprovisions_total",
                "kv_reactor_fairness_promotions_total",
            ]
        } else {
            [
                "crew_completed_total",
                "crew_culls_total",
                "crew_reprovisions_total",
                "crew_fairness_promotions_total",
            ]
        };
        let want = [
            ("reads", sum(&["kv_shard_reads_total"])),
            ("writes", sum(&["kv_shard_writes_total"])),
            ("completed", sum(&[admission[0]])),
            ("culls", sum(&[admission[1]])),
            ("reprovisions", sum(&[admission[2]])),
            ("promotions", sum(&[admission[3]])),
            ("rculls", sum(&["lock_reader_culls_total"])),
            (
                "rgrants",
                sum(&[
                    "lock_reader_reprovisions_total",
                    "lock_reader_fairness_grants_total",
                ]),
            ),
            ("pbatches", sum(&["kv_pipeline_batches_total"])),
            ("pbatchmax", sum(&["kv_pipeline_max_batch"])),
            ("pbatch_p50", p50.as_nanos() as u64),
            ("pbatch_p99", p99.as_nanos() as u64),
            ("wal_syncs", sum(&["kv_shard_wal_syncs_total"])),
            ("wal_errors", sum(&["kv_shard_wal_errors_total"])),
            ("readonly_shards", sum(&["kv_shard_readonly"])),
            ("idle_disconnects", sum(&["kv_idle_disconnects_total"])),
            ("readonly_rejects", sum(&["kv_readonly_rejects_total"])),
            ("heal_attempts", sum(&["kv_shard_heal_attempts_total"])),
            ("heals", sum(&["kv_shard_heals_total"])),
            (
                "shards",
                m.label_values("kv_shard_reads_total", "shard").len() as u64,
            ),
        ];
        let got: Vec<(&str, u64)> = stats
            .trim_end()
            .strip_prefix("STATS ")
            .unwrap_or_else(|| panic!("not a STATS line: {stats:?}"))
            .split(' ')
            .map(|kv| {
                let (k, v) = kv.split_once('=').unwrap();
                (k, v.parse().unwrap())
            })
            .collect();
        let front = if reactor { "reactor" } else { "threaded" };
        assert_eq!(got, want, "{front}: STATS against METRICS:\n{doc}");
        assert!(want[2].1 > 0, "{front}: nothing completed");
        assert!(want[0].1 > 0 && want[1].1 > 0 && want[8].1 > 0, "{front}");
    }
}
