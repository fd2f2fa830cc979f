//! Reactor integration tests against a line-echo handler: readiness
//! dispatch, the short-read rule, partial-write continuation, idle
//! reaping, poll admission.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use malthus::policy::Admission;
use malthus_net::{sys, Action, CloseReason, Handler, Reactor, ReactorConfig};

/// Echoes every complete line back, uppercased; `quit` closes and
/// `wait` parks the worker until the test opens the gate.
/// Cloneable so tests keep a counter handle after the reactor takes
/// the handler.
#[derive(Clone)]
struct Echo {
    closes: Arc<AtomicU64>,
    idle_reaps: Arc<AtomicU64>,
    peer_closes: Arc<AtomicU64>,
    /// What a `wait` line blocks on; the test holds the sender.
    gate: Arc<Mutex<Receiver<()>>>,
    /// When set, every accepted socket's send buffer is shrunk to
    /// this (partial-write tests).
    sndbuf: Option<i32>,
}

impl Echo {
    fn new() -> Self {
        Echo::gated().0
    }

    /// An echo handler plus the sender that releases its `wait` lines.
    fn gated() -> (Self, Sender<()>) {
        let (open, gate) = mpsc::channel();
        let echo = Echo {
            closes: Arc::new(AtomicU64::new(0)),
            idle_reaps: Arc::new(AtomicU64::new(0)),
            peer_closes: Arc::new(AtomicU64::new(0)),
            gate: Arc::new(Mutex::new(gate)),
            sndbuf: None,
        };
        (echo, open)
    }
}

impl Handler for Echo {
    type Conn = ();

    fn on_open(&self, stream: &TcpStream) -> Self::Conn {
        if let Some(bytes) = self.sndbuf {
            sys::set_send_buffer(stream.as_raw_fd(), bytes).unwrap();
        }
    }

    fn on_data(
        &self,
        _conn: &mut Self::Conn,
        read_buf: &mut Vec<u8>,
        write_buf: &mut Vec<u8>,
    ) -> Action {
        let Some(last_nl) = read_buf.iter().rposition(|&b| b == b'\n') else {
            return Action::Continue;
        };
        let mut action = Action::Continue;
        for line in read_buf[..=last_nl].split(|&b| b == b'\n') {
            if line.is_empty() {
                continue;
            }
            if line == b"quit" {
                action = Action::Close;
                break;
            }
            if line == b"wait" {
                // A dropped sender opens the gate too.
                let _ = self.gate.lock().unwrap().recv();
            }
            write_buf.extend(line.iter().map(u8::to_ascii_uppercase));
            write_buf.push(b'\n');
        }
        read_buf.drain(..=last_nl);
        action
    }

    fn on_close(&self, _conn: &mut Self::Conn, reason: CloseReason) {
        self.closes.fetch_add(1, Ordering::SeqCst);
        if reason == CloseReason::IdleTimeout {
            self.idle_reaps.fetch_add(1, Ordering::SeqCst);
        }
        if reason == CloseReason::PeerClosed {
            self.peer_closes.fetch_add(1, Ordering::SeqCst);
        }
    }
}

fn start_echo(cfg: ReactorConfig) -> (Reactor<Echo>, Echo, std::net::SocketAddr) {
    start_echo_with(cfg, Echo::new())
}

fn start_echo_with(cfg: ReactorConfig, echo: Echo) -> (Reactor<Echo>, Echo, std::net::SocketAddr) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let reactor = Reactor::start(listener, echo.clone(), cfg).unwrap();
    let addr = reactor.local_addr().unwrap();
    (reactor, echo, addr)
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
fn echoes_lines_across_many_connections() {
    let (reactor, _echo, addr) = start_echo(ReactorConfig::malthusian(2));
    let mut conns: Vec<TcpStream> = (0..32).map(|_| TcpStream::connect(addr).unwrap()).collect();
    for (i, c) in conns.iter_mut().enumerate() {
        c.write_all(format!("hello-{i}\n").as_bytes()).unwrap();
    }
    for (i, c) in conns.iter_mut().enumerate() {
        assert_eq!(read_line(c), format!("HELLO-{i}"));
    }
    let stats = reactor.join();
    assert_eq!(stats.accepts, 32);
    assert!(stats.epoll_waits > 0);
}

#[test]
fn pipelined_burst_is_one_batch_in_order() {
    let (reactor, _echo, addr) = start_echo(ReactorConfig::malthusian(2));
    let mut c = TcpStream::connect(addr).unwrap();
    let mut burst = String::new();
    for i in 0..500 {
        burst.push_str(&format!("line-{i}\n"));
    }
    c.write_all(burst.as_bytes()).unwrap();
    for i in 0..500 {
        assert_eq!(read_line(&mut c), format!("LINE-{i}"));
    }
    drop(c);
    reactor.join();
}

/// Polls until `done` holds, failing with `what` after 10 s.
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn a_line_split_across_two_writes_is_answered_once_whole() {
    let (reactor, _echo, addr) = start_echo(ReactorConfig::malthusian(1));
    let mut c = TcpStream::connect(addr).unwrap();
    c.set_nodelay(true).unwrap();
    c.write_all(b"first\nsec").unwrap();
    assert_eq!(read_line(&mut c), "FIRST");
    // The reactor has dispatched the first half and holds `sec` as an
    // unfinished line; the second half arrives as its own wakeup.
    let dispatched = reactor.stats().ready_batches;
    assert!(dispatched >= 1);
    c.write_all(b"ond\nthird\n").unwrap();
    assert_eq!(read_line(&mut c), "SECOND");
    assert_eq!(read_line(&mut c), "THIRD");
    assert!(reactor.stats().ready_batches > dispatched);
    drop(c);
    reactor.join();
}

/// Writes `lines` numbered lines in one burst and reads every echo
/// back in order; returns the reactor's final statistics.
fn burst_round_trip(lines: usize) -> (usize, malthus_net::ReactorStats) {
    let (reactor, _echo, addr) = start_echo(ReactorConfig::malthusian(1));
    let c = TcpStream::connect(addr).unwrap();
    let mut burst = String::new();
    for i in 0..lines {
        burst.push_str(&format!("line-{i:07}\n"));
    }
    // Write from a second thread: the echo is as large as the burst,
    // and neither side should depend on the kernel buffering it all.
    let writer = {
        let mut w = c.try_clone().unwrap();
        let burst = burst.clone();
        std::thread::spawn(move || w.write_all(burst.as_bytes()).unwrap())
    };
    let mut reader = std::io::BufReader::new(&c);
    let mut got = String::new();
    for i in 0..lines {
        got.clear();
        std::io::BufRead::read_line(&mut reader, &mut got).unwrap();
        assert_eq!(got, format!("LINE-{i:07}\n"));
    }
    writer.join().unwrap();
    drop(reader);
    drop(c);
    (burst.len(), reactor.join())
}

#[test]
fn a_burst_larger_than_the_read_block_is_answered_in_order() {
    // 40 KiB: more than one 16 KiB scratch block, less than the read
    // budget — full blocks keep the drain going, the short one ends it.
    let (bytes, _stats) = burst_round_trip(40 * 1024 / 13 + 1);
    assert!(bytes > 40 * 1024);
}

#[test]
fn a_burst_larger_than_the_read_budget_finishes_through_the_rearm() {
    // 200 KiB against a 64 KiB budget per dispatch: the rest must come
    // back through the level-triggered re-arm, at least three times.
    let (bytes, stats) = burst_round_trip(200 * 1024 / 13 + 1);
    assert!(bytes > 200 * 1024);
    assert!(
        stats.ready_batches >= 4,
        "{bytes} bytes in {} dispatches",
        stats.ready_batches
    );
}

#[test]
fn half_close_delivers_every_reply_before_the_close_hook() {
    // One worker, parked inside connection A's `wait` line while B
    // writes its requests *and* half-closes: B's data and its FIN are
    // both queued when the worker comes back, so B's one event carries
    // EPOLLIN|EPOLLRDHUP. The short-read rule must not stop at B's
    // (short) data read: it reads on to end-of-stream, answers, and
    // only then runs the close hook — all in one dispatch.
    let (echo, open_gate) = Echo::gated();
    let (reactor, echo, addr) = start_echo_with(ReactorConfig::malthusian(1), echo);
    let mut a = TcpStream::connect(addr).unwrap();
    let mut b = TcpStream::connect(addr).unwrap();
    wait_until("both accepts", || reactor.stats().conns_open == 2);
    a.write_all(b"wait\n").unwrap();
    wait_until("the worker to take A's batch", || {
        reactor.stats().ready_batches == 1
    });
    b.write_all(b"one\ntwo\nthree\n").unwrap();
    b.shutdown(std::net::Shutdown::Write).unwrap();
    // Loopback delivers within the sender's system call; the pause is
    // slack on top, not the synchronization.
    std::thread::sleep(Duration::from_millis(50));
    open_gate.send(()).unwrap();
    let mut replies = String::new();
    b.read_to_string(&mut replies).unwrap();
    assert_eq!(replies, "ONE\nTWO\nTHREE\n");
    assert_eq!(read_line(&mut a), "WAIT");
    wait_until("B's close hook", || {
        echo.peer_closes.load(Ordering::SeqCst) == 1
    });
    assert_eq!(
        reactor.stats().ready_batches,
        2,
        "B's requests, end-of-stream and close took one dispatch"
    );
    drop(a);
    reactor.join();
}

#[test]
fn quit_closes_the_connection_after_flushing() {
    let (reactor, echo, addr) = start_echo(ReactorConfig::malthusian(1));
    let mut c = TcpStream::connect(addr).unwrap();
    c.write_all(b"one\nquit\n").unwrap();
    assert_eq!(read_line(&mut c), "ONE");
    // After quit the server closes: the next read sees EOF.
    let mut rest = Vec::new();
    c.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    assert_eq!(echo.closes.load(Ordering::SeqCst), 1);
    reactor.join();
}

#[test]
fn partial_writes_complete_via_epollout() {
    // Tiny kernel buffers on both sides (loopback autotuning would
    // otherwise absorb the whole response): the bulk echo must
    // overrun the server's send buffer while this client reads
    // nothing, forcing WouldBlock and the EPOLLOUT re-arm path.
    let mut echo = Echo::new();
    echo.sndbuf = Some(4096);
    let (reactor, _echo, addr) = start_echo_with(ReactorConfig::malthusian(2), echo);
    let c = TcpStream::connect(addr).unwrap();
    sys::set_recv_buffer(c.as_raw_fd(), 4096).unwrap();
    let line = "x".repeat(512);
    let lines = 512;
    let mut burst = String::new();
    for _ in 0..lines {
        burst.push_str(&line);
        burst.push('\n');
    }
    {
        let mut w = &c;
        w.write_all(burst.as_bytes()).unwrap();
    }
    // Only now start reading: the response completes only if the
    // reactor kept flushing as our receive window reopened.
    let expected = line.to_ascii_uppercase();
    let mut reader = std::io::BufReader::new(&c);
    let mut got = String::new();
    for _ in 0..lines {
        got.clear();
        std::io::BufRead::read_line(&mut reader, &mut got).unwrap();
        assert_eq!(got.trim_end(), expected);
    }
    drop(reader);
    drop(c);
    let stats = reactor.join();
    assert!(
        stats.partial_flushes > 0,
        "a {}KB echo against 4KB socket buffers never hit WouldBlock",
        lines * (line.len() + 1) / 1024,
    );
}

#[test]
fn idle_connections_are_reaped_by_the_wheel() {
    let cfg = ReactorConfig::malthusian(2).with_read_timeout(Some(Duration::from_millis(500)));
    let (reactor, echo, addr) = start_echo(cfg);
    let mut busy = TcpStream::connect(addr).unwrap();
    let _idle_a = TcpStream::connect(addr).unwrap();
    let _idle_b = TcpStream::connect(addr).unwrap();
    // Keep one connection chatty while the other two go idle.
    let deadline = Instant::now() + Duration::from_secs(5);
    while echo.idle_reaps.load(Ordering::SeqCst) < 2 {
        assert!(
            Instant::now() < deadline,
            "idle connections were not reaped within 5s"
        );
        busy.write_all(b"ping\n").unwrap();
        assert_eq!(read_line(&mut busy), "PING");
        std::thread::sleep(Duration::from_millis(50));
    }
    // The chatty connection survived the whole time.
    busy.write_all(b"still-here\n").unwrap();
    assert_eq!(read_line(&mut busy), "STILL-HERE");
    let stats = reactor.join();
    assert_eq!(stats.idle_reaps, 2);
}

#[test]
fn surplus_workers_cull_to_the_passive_stack() {
    let cfg = ReactorConfig::malthusian(4).with_acs_target(1);
    let (reactor, _echo, addr) = start_echo(cfg);
    // Give the admission machine a moment and some traffic.
    let mut c = TcpStream::connect(addr).unwrap();
    for _ in 0..20 {
        c.write_all(b"hi\n").unwrap();
        assert_eq!(read_line(&mut c), "HI");
    }
    let stats = reactor.stats();
    assert!(
        stats.members.culls >= 3,
        "expected ≥3 culls with 4 workers and ACS 1, saw {}",
        stats.members.culls
    );
    // Membership settles to active + passive == workers once no
    // promotion/cull is mid-flight; poll until it does.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let s = reactor.stats().members;
        if s.active + s.passive == 4 && s.passive >= 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "membership never settled: active={} passive={}",
            s.active,
            s.passive
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(c);
    reactor.join();
}

/// A client socket whose reads give up after 10 s, so a reactor that
/// stops answering fails the test instead of hanging it.
fn connect_watched(addr: std::net::SocketAddr) -> TcpStream {
    let c = TcpStream::connect(addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    c.set_nodelay(true).unwrap();
    c
}

#[test]
fn a_blocked_handler_reprovisions_a_passive_poller() {
    let stall = Duration::from_millis(25);
    let cfg = ReactorConfig::new(
        Admission::malthusian(2)
            .with_acs_target(1)
            .with_stall(stall)
            .with_fairness_period(None),
    );
    let (echo, open_gate) = Echo::gated();
    let (reactor, _echo, addr) = start_echo_with(cfg, echo);
    // Declared after the reactor, so dropped before it: a failed
    // assertion opens the gate before the reactor joins its workers.
    let open_gate = open_gate;
    wait_until("the surplus poller to cull", || {
        reactor.stats().members.passive == 1
    });
    let mut blocked = connect_watched(addr);
    let mut other = connect_watched(addr);
    let mut busy: Vec<TcpStream> = (0..4).map(|_| connect_watched(addr)).collect();
    wait_until("the accepts", || reactor.stats().conns_open == 6);
    let batches = reactor.stats().ready_batches;
    blocked.write_all(b"wait\n").unwrap();
    wait_until("the only poller to take the blocking batch", || {
        reactor.stats().ready_batches == batches + 1
    });
    // Nobody is polling now: the passive worker must notice and take
    // over, or this line is never answered.
    let sent = Instant::now();
    other.write_all(b"rescue\n").unwrap();
    assert_eq!(read_line(&mut other), "RESCUE");
    let rescue = sent.elapsed();
    let rescued = reactor.stats();
    // Echo traffic dense enough that no poller ever waits out POLL_MS,
    // so no poll comes back empty to shed the boost: only its age can.
    let stop = std::sync::atomic::AtomicBool::new(false);
    let (settled, stats) = std::thread::scope(|scope| {
        for c in &mut busy {
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    c.write_all(b"ping\n").unwrap();
                    assert_eq!(read_line(c), "PING");
                }
            });
        }
        open_gate.send(()).unwrap();
        let deadline = Instant::now() + stall * 20;
        let mut stats = reactor.stats();
        while stats.members.active != 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
            stats = reactor.stats();
        }
        stop.store(true, Ordering::SeqCst);
        (stats.members.active == 1, stats)
    });
    assert_eq!(read_line(&mut blocked), "WAIT");
    assert!(rescued.members.reprovisions >= 1, "{rescued:?}");
    assert!(rescue <= stall * 20, "rescue took {rescue:?}");
    assert!(settled, "the boost outlived the stall: {stats:?}");
    reactor.join();
}

#[test]
fn rotation_never_leaves_the_poll_unattended() {
    // Every dispatched batch rotates the poller out for the eldest
    // passive worker, and a stall window of an hour means no rescue can
    // paper over a rotation that leaves nobody polling: the round trip
    // would simply never come back.
    let cfg = ReactorConfig::new(
        Admission::malthusian(3)
            .with_acs_target(1)
            .with_stall(Duration::from_secs(3600))
            .with_fairness_period(Some(1)),
    );
    let (reactor, _echo, addr) = start_echo(cfg);
    let mut c = connect_watched(addr);
    for i in 0..3_000 {
        c.write_all(format!("trip-{i}\n").as_bytes()).unwrap();
        assert_eq!(read_line(&mut c), format!("TRIP-{i}"));
    }
    wait_until("the last rotation to settle", || {
        let s = reactor.stats().members;
        (s.active, s.passive) == (1, 2)
    });
    let stats = reactor.stats();
    assert!(stats.members.fairness_promotions > 0, "{stats:?}");
    assert_eq!(stats.members.reprovisions, 0, "{stats:?}");
    drop(c);
    reactor.join();
}

// The 1024-idle-connection thread census lives in tests/census.rs:
// it needs its own process so other tests' threads cannot skew
// /proc/self/status.
