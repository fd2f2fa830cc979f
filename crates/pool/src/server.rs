//! [`Server::start`], the one way to run the KV service over TCP through
//! either [`Front`] — a reader thread per connection with the work crew
//! as the admission layer, or the reactor of [`kv_async`](crate::kv_async)
//! — and the threaded front-end itself.
//!
//! Connection readers are plain threads (cheap, blocked on I/O); all request
//! *execution* is admitted by the crew, which is where concurrency is
//! restricted. Admission restricts *how many* threads execute, not
//! *which* ones (§4: keep the active circulating set minimal, park the
//! rest), so every batch runs **in place** on its own reader thread
//! under an ACS place lent by [`WorkCrew::enter`]: an idle member's at
//! once, or, when every place is running or lent, the next one
//! returned, handed straight to the reader waiting at the front of the
//! crew's queue. The lent worker stays parked, the only wake-up is the
//! waiting reader's own, and the number of threads executing never
//! exceeds the ACS limit. A reader has one batch in flight at a time,
//! so batches from one connection never interleave; the next burst
//! accumulates in the socket while the current batch executes, which is
//! exactly what makes the next drain bigger under load (group-commit
//! dynamics).
//!
//! A lent place covers the **apply** and nothing else. A batch is two
//! halves — *apply* (the shard locks, the store, the WAL: everything
//! shared) and *flush* (one `write` of the replies to the connection's
//! own socket, then the span's books) — and what a holder does while it
//! holds sets the ceiling for everyone waiting behind it, so the reader
//! returns the place between the two and flushes holding nothing. For a
//! cheap batch the flush is about two thirds of the whole (≈8.8 µs of
//! loopback `write` against ≈4.5 µs of apply for 16 ops), and a client
//! that stops reading blocks only its own reader, not an ACS place.
//!
//! What a drained batch *means* — framing, accounting, spans,
//! execution, rendering — is the per-connection `Session` both
//! front-ends share; this module keeps only the accept loop, the
//! read block, the wait for a place and the blocking flush.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use malthus_net::{Reactor, ReactorConfig};
use malthus_obs::span::{self, Stage};

use malthus_storage::{CrPair, LockPair};

use crate::crew::{Waiter, WorkCrew};
use crate::kv::KvService;
use crate::kv_async::KvHandler;
use crate::protocol::{DrainEnd, MAX_LINE_BYTES};
use crate::session::{settle, Session, READ_BLOCK};

/// Default TCP address for the server and load-generator binaries.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7878";

/// Which front-end a [`Server`] runs, with its admission layer.
pub enum Front {
    /// A reader thread per connection, its batches admitted by the
    /// crew; the server shuts the crew down when it stops.
    Threaded(Arc<WorkCrew>),
    /// The readiness reactor, its `epoll_wait` admitted;
    /// [`Server::start`] sets the config's read timeout and stop flag.
    Reactor(ReactorConfig),
}

/// A running front-end: started by [`Server::start`], over once
/// [`Server::stop`] or [`Server::wait`] returns. Merely dropping it
/// leaves a threaded front-end serving on a detached thread.
pub struct Server<P: LockPair = CrPair> {
    control: ServerControl,
    running: Running<P>,
}

enum Running<P: LockPair> {
    /// The accept loop's thread and the crew it dispatches onto.
    Threaded(JoinHandle<()>, Arc<WorkCrew>),
    Reactor(Reactor<KvHandler<P>>),
}

impl<P: LockPair> Server<P> {
    /// Binds `addr` and serves `service` through `front` until
    /// [`Server::stop`], [`ServerControl::stop`] or a client's
    /// `SHUTDOWN`. `read_timeout` is both front-ends' idle timeout
    /// (`SO_RCVTIMEO` per threaded reader, the reactor's timer wheel): a
    /// connection silent that long is dropped and counted in `STATS
    /// idle_disconnects=`; `None` never times out. The front-end's
    /// admission counters join the service's registry.
    pub fn start(
        addr: &str,
        service: Arc<KvService<P>>,
        front: Front,
        read_timeout: Option<Duration>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let control = ServerControl {
            stop: Arc::new(AtomicBool::new(false)),
            addr: listener.local_addr()?,
        };
        let running = match front {
            Front::Threaded(crew) => {
                let (control, served) = (control.clone(), Arc::clone(&crew));
                let accept = std::thread::Builder::new()
                    .name("kv-accept".into())
                    .spawn(move || serve(listener, &control, served, service, read_timeout))?;
                Running::Threaded(accept, crew)
            }
            Front::Reactor(cfg) => {
                let cfg = cfg
                    .with_read_timeout(read_timeout)
                    .with_stop_flag(Arc::clone(&control.stop));
                let reactor = Reactor::start(listener, KvHandler::new(Arc::clone(&service)), cfg)?;
                reactor.register_metrics(service.registry());
                Running::Reactor(reactor)
            }
        };
        Ok(Server { control, running })
    }

    /// The address the server accepts on (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.control.addr
    }

    /// A handle that stops the server from another thread.
    pub fn control(&self) -> ServerControl {
        self.control.clone()
    }

    /// [`ServerControl::stop`], then [`Server::wait`].
    pub fn stop(self) {
        self.control.stop();
        self.wait();
    }

    /// Blocks until the server stops, then tears it down: every open
    /// connection is disconnected (a batch already read is answered
    /// first), and a threaded front-end's crew drains its queue and
    /// joins its workers. The registry keeps reading the crew's and the
    /// reactor's final counters.
    pub fn wait(self) {
        match self.running {
            Running::Threaded(accept, crew) => {
                accept.join().expect("accept loop panicked");
                crew.shutdown();
            }
            Running::Reactor(reactor) => {
                reactor.wait();
            }
        }
    }
}

/// Stops a running [`Server`] from any thread (`kv_server`'s `SIGTERM`
/// watcher holds one).
#[derive(Clone, Debug)]
pub struct ServerControl {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ServerControl {
    /// Asks the server to stop: sets the stop flag, which the accept
    /// loop and the reactor check on every accept, and self-connects to
    /// wake them. Open connections are disconnected on the way out.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the blocking `accept`.
        let _ = TcpStream::connect(self.addr);
    }
}

/// Runs the accept loop until [`ServerControl::stop`] is called or a
/// client sends `SHUTDOWN`; on stop, still-open connections are
/// disconnected (a batch already read is applied and answered first).
///
/// Each connection gets a reader thread that drains complete request
/// lines per wakeup into one batch, applies it on the reader thread
/// itself under an ACS place lent by `crew` ([`WorkCrew::enter`],
/// waited for if none is idle) and flushes its responses (one write
/// per batch) once the place is returned. Clients
/// may run closed-loop (one outstanding request) or pipelined (a
/// tagged window, as `kv_load --pipeline-depth` does). Transient
/// `accept` failures (`EMFILE`, `ECONNABORTED`, …) are survived, not
/// propagated: each is counted in `kv_accept_errors_total{front="threaded"}`
/// and recorded as a flight-recorder `accept_error` event.
fn serve<P: LockPair>(
    listener: TcpListener,
    control: &ServerControl,
    crew: Arc<WorkCrew>,
    service: Arc<KvService<P>>,
    read_timeout: Option<Duration>,
) {
    // The crew serving this listener contributes its counters to the
    // service's unified registry (idempotent: replaces on re-serve).
    crew.register_metrics(service.registry());
    let accept_errors = Arc::new(AtomicU64::new(0));
    let errors = Arc::clone(&accept_errors);
    service.registry().counter(
        "kv_accept_errors_total",
        "accept() failures the accept loop survived, by front-end.",
        &[("front", "threaded")],
        move || errors.load(Ordering::Relaxed),
    );
    let mut conns: Vec<(std::thread::JoinHandle<()>, TcpStream)> = Vec::new();
    for stream in listener.incoming() {
        if control.stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(e) => {
                // One refused/aborted connection must not take down
                // the service; back off briefly in case the cause is
                // fd exhaustion.
                accept_errors.fetch_add(1, Ordering::Relaxed);
                malthus_obs::record(
                    malthus_obs::EventKind::AcceptError,
                    0,
                    malthus_obs::errno(&e),
                );
                std::thread::sleep(std::time::Duration::from_millis(10));
                continue;
            }
        };
        // Reap finished connections so a long-running server's
        // bookkeeping stays proportional to *open* connections.
        conns.retain(|(h, _)| !h.is_finished());
        let Ok(peer) = stream.try_clone() else {
            continue; // no fd left for the shutdown handle: drop it
        };
        let crew = Arc::clone(&crew);
        let service = Arc::clone(&service);
        let control = control.clone();
        conns.push((
            std::thread::spawn(move || {
                handle_connection(stream, &crew, &service, &control, read_timeout);
            }),
            peer,
        ));
    }
    // Graceful drain: close only the *read* half of every connection.
    // Readers blocked in `read` observe EOF once the kernel
    // delivers any bytes already queued, finish the batch they have in
    // flight, flush its responses over the still-open write half, and
    // exit — so a request the server accepted before stop is answered,
    // not dropped, and the joins below cannot wait on an idle client.
    for (_, peer) in &conns {
        let _ = peer.shutdown(std::net::Shutdown::Read);
    }
    for (c, _) in conns {
        let _ = c.join();
    }
}

fn handle_connection<P: LockPair>(
    stream: TcpStream,
    crew: &WorkCrew,
    service: &KvService<P>,
    control: &ServerControl,
    read_timeout: Option<Duration>,
) {
    // Few short responses per flush: Nagle + the peer's delayed ACK
    // would otherwise stall every reply by tens of milliseconds.
    let _ = stream.set_nodelay(true);
    if read_timeout.is_some() {
        let _ = stream.set_read_timeout(read_timeout);
    }
    // Requests are read a block at a time, not a line at a time: one
    // `read` takes whatever the socket holds (up to the free part of
    // the block) and the session's drain takes every complete line out
    // of it, so a pipelined window costs one system call and the batch
    // is bounded by the block. `block[..filled]` is the unfinished line
    // carried over from the previous read; the block is zeroed once,
    // here, grows only while a single line outgrows it, and settles
    // back once nothing is carried over (while bytes are, they may be
    // the start of another long line).
    let mut block = vec![0u8; READ_BLOCK];
    let mut filled = 0;
    let mut session = Session::open();
    // This connection's record in the crew's queue while it waits for
    // a place: made once, so waiting allocates nothing.
    let mut waiter = Waiter::new();
    loop {
        if filled == block.len() {
            if filled >= MAX_LINE_BYTES {
                break; // an unbounded line is a protocol violation
            }
            block.resize(2 * filled, 0);
        }
        match (&stream).read(&mut block[filled..]) {
            Ok(0) => break, // disconnected
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                service.note_idle_disconnect();
                malthus_obs::record(malthus_obs::EventKind::ConnIdleReap, 0, 0);
                break;
            }
            Err(_) => break,
        }
        let (consumed, span) = session.drain(service, &block[..filled]);
        block.copy_within(consumed..filled, 0);
        filled -= consumed;
        if filled == 0 {
            settle(&mut block);
        }
        if let Some(mut span) = span {
            // The batch is the admission unit, and the reader keeps a
            // single one in flight, so responses from one connection
            // never interleave. The span's `queue` stage is the wait
            // for a place (0 = spans off).
            let queue_t0 = if span.is_active() { span::now_ns() } else { 0 };
            // Only a crew shutting down lends nothing: the batch is
            // refused and the connection closed.
            let Some(slot) = crew.enter(&mut waiter) else {
                let _ = (&stream).write_all(b"ERR shutting down\n");
                break;
            };
            if queue_t0 != 0 {
                span.add(Stage::Queue, span::now_ns().saturating_sub(queue_t0));
            }
            session.apply(service, &mut span);
            // The place covers the shared half only: the flush below
            // may block for as long as the client does not read.
            drop(slot);
            let flush_t0 = if span.is_active() { span::now_ns() } else { 0 };
            let _ = (&stream).write_all(session.replies());
            session.settle();
            if flush_t0 != 0 {
                span.add(Stage::Flush, span::now_ns().saturating_sub(flush_t0));
            }
            service.finish_span(&mut span);
        }
        match session.end {
            DrainEnd::Open => {}
            DrainEnd::Shutdown(_) => {
                control.stop(); // its `OK` left with the replies
                break;
            }
            // QUIT closes without a response.
            DrainEnd::Quit | DrainEnd::InvalidUtf8 => break,
        }
    }
    // The accept loop holds its own clone of this socket (its
    // shutdown handle), so merely dropping ours would leave the
    // connection open and the peer blocked in read. `shutdown` acts
    // on the socket itself: the peer sees EOF immediately.
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::KvClient;
    use crate::crew::PoolConfig;
    use malthus::policy::Admission;
    use malthus_obs::Sample;

    #[test]
    fn slowlog_over_tcp_records_pipelined_batches() {
        let cfg = PoolConfig::new(Admission::unrestricted(2), 16);
        let crew = Arc::new(WorkCrew::new(cfg));
        let svc = Arc::new(KvService::with_shards(1, 4_096, 256));
        span::set_enabled(true);
        svc.set_slowlog_threshold_us(1); // everything is "slow"
        let server = Server::start("127.0.0.1:0", svc, Front::Threaded(crew), None).unwrap();
        let mut c = KvClient::connect(server.addr()).unwrap();
        // A pipelined window: the whole burst drains as one traced
        // batch (or a few, depending on TCP segmentation).
        for t in 0..64u64 {
            c.send_tagged(t, &format!("PUT {t} {t}")).unwrap();
        }
        for _ in 0..64 {
            let (_, resp) = c.recv_tagged().unwrap();
            assert_eq!(resp, "OK");
        }
        let doc = c.fetch_document("SLOWLOG 64").unwrap();
        let header = doc.lines().next().unwrap_or_default().to_string();
        assert!(header.starts_with("SLOWLOG entries="), "{doc}");
        assert!(!header.starts_with("SLOWLOG entries=0"), "{doc}");
        let entry = doc
            .lines()
            .find(|l| l.starts_with("BATCH "))
            .unwrap_or_else(|| panic!("no BATCH line in:\n{doc}"));
        assert!(entry.contains(" TOTAL_NS "), "{entry}");
        assert!(entry.contains(" EXEC_NS "), "{entry}");
        assert_eq!(c.roundtrip("SLOWLOG RESET").unwrap(), "OK");
        assert_eq!(c.roundtrip("SHUTDOWN").unwrap(), "OK");
        server.wait();
    }

    #[test]
    fn idle_read_timeout_disconnects_and_counts() {
        let cfg = PoolConfig::new(Admission::unrestricted(1), 8);
        let crew = Arc::new(WorkCrew::new(cfg));
        let svc = Arc::new(KvService::new(64, 256));
        let (front, timeout) = (Front::Threaded(crew), Some(Duration::from_millis(50)));
        let server = Server::start("127.0.0.1:0", Arc::clone(&svc), front, timeout).unwrap();
        let mut c = KvClient::connect(server.addr()).unwrap();
        assert_eq!(c.roundtrip("PING").unwrap(), "PONG");
        // Go idle past the timeout: the server must hang up on us.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match c.roundtrip("PING") {
                Err(_) => break, // disconnected by the idle timeout
                Ok(_) => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "server never enforced the idle timeout"
                    );
                    std::thread::sleep(Duration::from_millis(120));
                }
            }
        }
        let idle = svc.registry().sample("kv_idle_disconnects_total");
        assert!(
            matches!(idle, Some(Sample::Counter(n)) if n >= 1),
            "{idle:?}"
        );
        server.stop();
    }

    #[test]
    fn end_to_end_over_tcp() {
        let crew = Arc::new(WorkCrew::new(
            PoolConfig::malthusian(3, 32).with_acs_target(1),
        ));
        // Two shards: the closed-loop traffic below crosses shard
        // boundaries over real TCP.
        let svc = Arc::new(KvService::with_shards(2, 64, 256));
        let front = Front::Threaded(Arc::clone(&crew));
        let server = Server::start("127.0.0.1:0", svc, front, None).unwrap();
        let addr = server.addr();

        let mut c = KvClient::connect(addr).unwrap();
        assert_eq!(c.roundtrip("PING").unwrap(), "PONG");
        assert_eq!(c.roundtrip("PUT 10 11").unwrap(), "OK");
        assert_eq!(c.roundtrip("GET 10").unwrap(), "VAL 11");
        assert_eq!(c.roundtrip("GET 12").unwrap(), "NIL");
        assert_eq!(c.roundtrip("MSET 20 200 21 210").unwrap(), "OK 2");
        assert_eq!(c.roundtrip("MGET 20 12 21").unwrap(), "VALS 200 - 210");
        assert_eq!(c.roundtrip("SCAN 20 2").unwrap(), "RANGE 20=200 21=210");
        assert!(c.roundtrip("BOGUS").unwrap().starts_with("ERR"));
        assert!(c.roundtrip("MSET 1 2 3").unwrap().starts_with("ERR"));
        assert!(c.roundtrip("STATS").unwrap().starts_with("STATS "));
        let metrics = c.fetch_document("METRICS").unwrap();
        assert!(
            metrics.contains("kv_accept_errors_total{front=\"threaded\"} 0"),
            "{metrics}"
        );

        // A second closed-loop client hammers the service through the
        // restricted crew.
        let mut c2 = KvClient::connect(addr).unwrap();
        for i in 0..200u64 {
            assert_eq!(c2.roundtrip(&format!("PUT {i} {}", i * 2)).unwrap(), "OK");
            assert_eq!(
                c2.roundtrip(&format!("GET {i}")).unwrap(),
                format!("VAL {}", i * 2)
            );
        }

        // SHUTDOWN with `c2` still connected: the server must
        // disconnect the idle connection itself rather than wait for
        // the client to hang up.
        assert_eq!(c.roundtrip("SHUTDOWN").unwrap(), "OK");
        server.wait();
        drop(c2);
        // Exact: the server shut the crew down. PING + PUT + 2 GETs +
        // STATS + 400 closed-loop ops, each its own single-request
        // batch run under a lent place (SHUTDOWN never reaches the
        // crew; the ERR lines are batches too).
        let stats = crew.stats();
        assert!(stats.inline >= 405, "{stats:?}");
        assert_eq!(stats.submitted, 0, "a batch was queued: {stats:?}");
    }
}
