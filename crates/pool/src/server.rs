//! The threaded front-end: an accept loop, one reader thread per
//! connection, and the work crew as the admission layer.
//!
//! Connection readers are plain threads (cheap, blocked on I/O); all
//! request *execution* is admitted by the crew, which is where
//! concurrency is restricted — but admission does not always mean a
//! hand-off. A batch whose connection's previous batch was cheap
//! (under [`INLINE_MAX_DRAIN_NS`]) runs **in place** on the reader
//! thread when [`WorkCrew::try_enter`] can lend it an idle ACS
//! member's place: the parked worker stays parked, nobody is woken on
//! the critical path, and the number of threads executing never
//! exceeds the ACS limit. A dear batch, or one that finds the queue
//! non-empty or no worker idle, is submitted to the crew's FIFO queue
//! and the reader waits for its flush. Either way a reader has one
//! batch in flight at a time, so batches from one connection never
//! interleave; the next burst accumulates in the socket while the
//! current batch executes, which is exactly what makes the next drain
//! bigger under load (group-commit dynamics).
//!
//! A lent place covers the **apply** and nothing else. A batch is two
//! halves — *apply* (the shard locks, the store, the WAL: everything
//! shared) and *flush* (one `write` of the replies to the connection's
//! own socket, then the span's books) — and what a holder does while it
//! holds sets the ceiling for everyone waiting behind it, so the reader
//! returns the place between the two and flushes holding nothing. For a
//! cheap batch the flush is about two thirds of the whole (≈8.8 µs of
//! loopback `write` against ≈4.5 µs of apply for 16 ops), and a client
//! that stops reading blocks only its own reader, not an ACS place. A
//! *queued* batch is applied and flushed on the crew worker, on
//! purpose: returning the replies to the reader first would put a
//! park/unpark hand-off (≈19 µs) in front of every reply of exactly
//! the batches that were dear enough to queue (`deep_read` 1.11M →
//! 1.01M ops/s, p99 500 → 592 µs when tried).
//!
//! What a drained batch *means* — framing, accounting, spans,
//! execution, rendering — is the per-connection `Session` both
//! front-ends share; this module keeps only the accept loop, the
//! read block, the lend-or-queue choice and the blocking flush.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use malthus_obs::span::{self, Stage};
use malthus_obs::SpanContext;

use crate::crew::WorkCrew;
use crate::kv::KvService;
use crate::protocol::{DrainEnd, MAX_LINE_BYTES};
use crate::session::{settle, Session, READ_BLOCK};

/// The cost rule of the threaded front-end: a connection's batch runs
/// in place on its own thread (under a slot lent by
/// [`WorkCrew::try_enter`]) only while that connection's previous
/// batch applied in under this many nanoseconds; a dearer one is
/// queued to the crew as before.
///
/// 50 µs, because handing a batch to a crew worker costs a 30–40 µs
/// round trip (two park/unpark pairs; `pool.crew_roundtrip_us` in the
/// benchmark's ledger) and only pays once the work outweighs it —
/// where batches are long (≈150 µs on a store far beyond its block
/// cache) the crew's FIFO queue and always-running workers keep the
/// tail short, and four connection threads convoying on the shard
/// locks do not.
pub const INLINE_MAX_DRAIN_NS: u64 = 50_000;

/// Default TCP address for the server and load-generator binaries.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7878";

/// Handle used to stop a running [`serve`] loop.
#[derive(Clone)]
pub struct ServerControl {
    pub(crate) stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ServerControl {
    /// The address the server is accepting on (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the accept loop to exit; the loop is unblocked with a
    /// self-connect and open connections are disconnected by
    /// [`serve`] on its way out.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the blocking `accept`.
        let _ = TcpStream::connect(self.addr);
    }
}

impl std::fmt::Debug for ServerControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerControl")
            .field("addr", &self.addr)
            .finish()
    }
}

/// Per-server connection-handling knobs for [`serve_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeOptions {
    /// Per-connection read timeout. `None` (the default) never times
    /// out — byte-compatible with the pre-timeout server. With
    /// `Some(t)`, a connection idle (no request bytes) for `t` is
    /// disconnected and counted in `STATS idle_disconnects=`, so a
    /// dead client cannot pin its reader thread forever.
    pub read_timeout: Option<Duration>,
}

/// Binds `addr` and returns the listener plus its control handle.
pub fn bind(addr: &str) -> std::io::Result<(TcpListener, ServerControl)> {
    let listener = TcpListener::bind(addr)?;
    let control = ServerControl {
        stop: Arc::new(AtomicBool::new(false)),
        addr: listener.local_addr()?,
    };
    Ok((listener, control))
}

/// Runs the accept loop until [`ServerControl::stop`] is called or a
/// client sends `SHUTDOWN`; on stop, still-open connections are
/// disconnected (in-flight requests already on the crew complete, but
/// their responses may not be deliverable).
///
/// Each connection gets a reader thread that drains complete request
/// lines per wakeup into one batch. A cheap batch is applied on the
/// reader thread itself under an ACS place lent by `crew`
/// ([`WorkCrew::try_enter`], see [`INLINE_MAX_DRAIN_NS`]) and flushed
/// once the place is returned; any other is submitted to `crew` as one
/// task. Whichever thread applies the batch renders and flushes its
/// responses (one write per batch). Clients
/// may run closed-loop (one outstanding request) or pipelined (a
/// tagged window, as `kv_load --pipeline-depth` does). Transient
/// `accept` failures (`EMFILE`, `ECONNABORTED`, …) are survived, not
/// propagated: each is counted in `kv_accept_errors_total{front="threaded"}`
/// and recorded as a flight-recorder `accept_error` event.
pub fn serve(
    listener: TcpListener,
    control: &ServerControl,
    crew: Arc<WorkCrew>,
    service: Arc<KvService>,
) -> std::io::Result<()> {
    serve_with(listener, control, crew, service, ServeOptions::default())
}

/// [`serve`] with explicit [`ServeOptions`] (per-connection read
/// timeout).
pub fn serve_with(
    listener: TcpListener,
    control: &ServerControl,
    crew: Arc<WorkCrew>,
    service: Arc<KvService>,
    opts: ServeOptions,
) -> std::io::Result<()> {
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
                handle_connection(stream, &crew, &service, &control, opts);
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
    Ok(())
}

fn handle_connection(
    stream: TcpStream,
    crew: &Arc<WorkCrew>,
    service: &Arc<KvService>,
    control: &ServerControl,
    opts: ServeOptions,
) {
    // Few short responses per flush: Nagle + the peer's delayed ACK
    // would otherwise stall every reply by tens of milliseconds.
    let _ = stream.set_nodelay(true);
    if opts.read_timeout.is_some() {
        let _ = stream.set_read_timeout(opts.read_timeout);
    }
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let runner = Arc::new(BatchRunner {
        service: Arc::clone(service),
        writer,
    });
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
    // Stays here for a batch that runs in place and round-trips
    // through the completion channel for a queued one, so the steady
    // state allocates at most per *batch* (one boxed task + one
    // channel), never per request.
    let mut session = Session::open();
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
            // never interleave. A cheap batch — its connection's last
            // one applied in under `INLINE_MAX_DRAIN_NS` — is applied
            // right here under a lent ACS slot, held for the apply
            // only; otherwise it is handed to the crew.
            let queue_t0 = if span.is_active() { span::now_ns() } else { 0 };
            let slot = if session.last_drain_ns < INLINE_MAX_DRAIN_NS {
                crew.try_enter()
            } else {
                None
            };
            if let Some(slot) = slot {
                runner.apply(&mut session, &mut span, queue_t0);
                drop(slot);
                runner.flush(&mut session, &mut span);
            } else {
                // One crew task per batch. The channel returns the
                // session for reuse and doubles as the completion
                // signal; the wait overlaps the client's own
                // turnaround, and the next burst accumulates in the
                // socket meanwhile.
                let (tx, rx) = mpsc::channel();
                let task_runner = Arc::clone(&runner);
                let submitted = crew.submit(move || {
                    task_runner.apply(&mut session, &mut span, queue_t0);
                    task_runner.flush(&mut session, &mut span);
                    let _ = tx.send(session);
                });
                if submitted.is_err() {
                    let _ = (&runner.writer).write_all(b"ERR shutting down\n");
                }
                // Nothing comes back from a task that was refused or
                // died without reporting (panicked mid-request): the
                // response stream is broken and the session went with
                // the task.
                let Ok(back) = rx.recv() else {
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    return;
                };
                session = back;
            }
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
    // shutdown handle), so merely dropping our halves would leave the
    // connection open and the peer blocked in read. `shutdown` acts
    // on the socket itself: the peer sees EOF immediately.
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// What running a batch needs besides the session itself; one per
/// connection, shared by its reader thread and the crew tasks it
/// submits.
///
/// A batch runs as [`apply`](BatchRunner::apply) then
/// [`flush`](BatchRunner::flush), each written once. Only `apply`
/// touches anything shared, so only `apply` needs an ACS place: in
/// place, the reader drops its lent [`Slot`](crate::crew::Slot)
/// between the two; queued, the crew worker runs both back to back —
/// it is the thread that has the replies, and waking the reader to
/// write them would cost more than the write.
struct BatchRunner {
    service: Arc<KvService>,
    writer: TcpStream,
}

impl BatchRunner {
    /// The half that needs an ACS place: closes the span's `queue`
    /// stage — `queue_t0` (0 = spans off) → here: the time spent in
    /// `try_enter` for a batch run in place, submit → start on a crew
    /// worker (backlog + admission) for a queued one — and applies the
    /// batch, leaving its rendered replies in the session.
    fn apply(&self, session: &mut Session, span: &mut SpanContext, queue_t0: u64) {
        if queue_t0 != 0 {
            span.add(Stage::Queue, span::now_ns().saturating_sub(queue_t0));
        }
        session.apply(&self.service, span);
    }

    /// The half that needs nothing shared: every response of the
    /// applied batch in one write (so they leave in one TCP segment
    /// where they fit), the session's buffers settled, then the span is
    /// finished. May block for as long as the client does not read;
    /// whoever calls it under an ACS place lends that place to the
    /// client's socket buffer.
    fn flush(&self, session: &mut Session, span: &mut SpanContext) {
        let flush_t0 = if span.is_active() { span::now_ns() } else { 0 };
        let _ = (&self.writer).write_all(session.replies());
        session.settle();
        if flush_t0 != 0 {
            span.add(Stage::Flush, span::now_ns().saturating_sub(flush_t0));
        }
        self.service.finish_span(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::KvClient;
    use crate::crew::PoolConfig;
    use malthus_obs::Sample;

    #[test]
    fn slowlog_over_tcp_records_pipelined_batches() {
        let (listener, control) = bind("127.0.0.1:0").unwrap();
        let addr = control.addr();
        let crew = Arc::new(WorkCrew::new(PoolConfig::unrestricted(2, 16)));
        let svc = Arc::new(KvService::with_shards(1, 4_096, 256));
        span::set_enabled(true);
        svc.set_slowlog_threshold_us(1); // everything is "slow"
        let server = {
            let crew = Arc::clone(&crew);
            let svc = Arc::clone(&svc);
            let control = control.clone();
            std::thread::spawn(move || serve(listener, &control, crew, svc).unwrap())
        };
        let mut c = KvClient::connect(addr).unwrap();
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
        server.join().unwrap();
        crew.shutdown();
    }

    #[test]
    fn idle_read_timeout_disconnects_and_counts() {
        let (listener, control) = bind("127.0.0.1:0").unwrap();
        let addr = control.addr();
        let crew = Arc::new(WorkCrew::new(PoolConfig::unrestricted(1, 8)));
        let svc = Arc::new(KvService::new(64, 256));
        let opts = ServeOptions {
            read_timeout: Some(Duration::from_millis(50)),
        };
        let server = {
            let crew = Arc::clone(&crew);
            let svc = Arc::clone(&svc);
            let control = control.clone();
            std::thread::spawn(move || serve_with(listener, &control, crew, svc, opts).unwrap())
        };
        let mut c = KvClient::connect(addr).unwrap();
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
        control.stop();
        server.join().unwrap();
        crew.shutdown();
    }

    #[test]
    fn end_to_end_over_tcp() {
        let (listener, control) = bind("127.0.0.1:0").unwrap();
        let addr = control.addr();
        let crew = Arc::new(WorkCrew::new(
            PoolConfig::malthusian(3, 32).with_acs_target(1),
        ));
        // Two shards: the closed-loop traffic below crosses shard
        // boundaries over real TCP.
        let svc = Arc::new(KvService::with_shards(2, 64, 256));
        let server = {
            let crew = Arc::clone(&crew);
            let svc = Arc::clone(&svc);
            let control = control.clone();
            std::thread::spawn(move || serve(listener, &control, crew, svc).unwrap())
        };

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

        // SHUTDOWN with `c2` still connected: `serve` must disconnect
        // the idle connection itself rather than wait for the client
        // to hang up.
        assert_eq!(c.roundtrip("SHUTDOWN").unwrap(), "OK");
        server.join().unwrap();
        drop(c2);
        let stats = crew.shutdown();
        // PING + PUT + 2 GETs + STATS + 400 closed-loop ops, each its
        // own single-request batch (SHUTDOWN never reaches the crew;
        // the ERR lines ride batch tasks too).
        assert!(stats.completed >= 405, "completed = {}", stats.completed);
    }
}
