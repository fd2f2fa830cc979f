//! The headline claim, asserted: 1024 idle connections served by a
//! fixed worker count — no thread, no stack per connection, and once
//! each has been served, no more than 1 KiB of buffer either.
//!
//! This test is alone in its file on purpose: integration tests in
//! one file share a process, and a concurrent test's threads would
//! skew the `/proc/self/status` census.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use malthus_net::{Action, CloseReason, Handler, Reactor, ReactorConfig};

#[derive(Clone)]
struct Echo;

impl Handler for Echo {
    type Conn = ();

    fn on_open(&self, _stream: &TcpStream) -> Self::Conn {}

    fn on_data(
        &self,
        _conn: &mut Self::Conn,
        read_buf: &mut Vec<u8>,
        write_buf: &mut Vec<u8>,
    ) -> Action {
        let Some(last_nl) = read_buf.iter().rposition(|&b| b == b'\n') else {
            return Action::Continue;
        };
        write_buf.extend_from_slice(&read_buf[..=last_nl]);
        read_buf.drain(..=last_nl);
        Action::Continue
    }

    fn on_close(&self, _conn: &mut Self::Conn, _reason: CloseReason) {}
}

/// Thread count of this process, from `/proc/self/status`.
fn proc_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line in /proc/self/status")
}

fn read_line(stream: &mut TcpStream) -> String {
    let mut out = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => break,
            Ok(_) if byte[0] == b'\n' => break,
            Ok(_) => out.push(byte[0]),
            Err(e) => panic!("read_line: {e}"),
        }
    }
    String::from_utf8(out).unwrap()
}

#[test]
fn serves_1024_idle_connections_without_extra_threads() {
    const WORKERS: usize = 2;
    const CONNS: usize = 1024;
    let threads_before = proc_threads();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let reactor = Reactor::start(listener, Echo, ReactorConfig::malthusian(WORKERS)).unwrap();
    let addr = reactor.local_addr().unwrap();
    let threads_booted = proc_threads();
    assert_eq!(
        threads_booted - threads_before,
        WORKERS,
        "reactor boot should add exactly its worker threads"
    );
    let mut conns: Vec<TcpStream> = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        // The accept backlog can briefly fill while the reactor works
        // through a connect burst; retry rather than flake.
        let mut tries = 0;
        loop {
            match TcpStream::connect(addr) {
                Ok(c) => {
                    conns.push(c);
                    break;
                }
                Err(e) if tries < 50 => {
                    tries += 1;
                    let _ = (i, e);
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => panic!("connect #{i} failed after retries: {e}"),
            }
        }
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    while reactor.stats().conns_open < CONNS {
        assert!(
            Instant::now() < deadline,
            "only {} of {CONNS} connections registered",
            reactor.stats().conns_open
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // The whole fleet is held by the same threads that booted — the
    // per-connection cost is a slab slot and a buffer pair, not a
    // thread.
    assert_eq!(proc_threads(), threads_booted);
    // And the fleet is live, not just parked fds: every 97th
    // connection round-trips.
    for c in conns.iter_mut().step_by(97) {
        c.write_all(b"alive\n").unwrap();
        assert_eq!(read_line(c), "alive");
    }
    assert_eq!(proc_threads(), threads_booted);
    // A connection that has been served goes back to costing next to
    // nothing: every one of them sends a request four times the size
    // an idle buffer may keep, and once answered none holds more than
    // 1 KiB of read and write buffer together.
    let request = format!("{}\n", "x".repeat(2047));
    for c in conns.iter_mut() {
        c.write_all(request.as_bytes()).unwrap();
    }
    for c in conns.iter_mut() {
        assert_eq!(read_line(c).len(), 2047);
    }
    // The reply leaves before the reactor settles the buffers it came
    // from, so give the last few dispatches a moment to finish.
    let deadline = Instant::now() + Duration::from_secs(5);
    while reactor.stats().buffer_bytes > CONNS * 1024 {
        assert!(
            Instant::now() < deadline,
            "{CONNS} idle connections still hold {} buffer bytes",
            reactor.stats().buffer_bytes
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(reactor.stats().buffer_bytes > 0, "the gauge is not wired");
    assert_eq!(proc_threads(), threads_booted);
    drop(conns);
    let stats = reactor.join();
    assert_eq!(stats.accepts as usize, CONNS);
    assert_eq!(stats.buffer_bytes, 0, "closed connections hold nothing");
}
