//! The reactor front-end for the KV service: the same wire protocol,
//! spans, WAL group commit and SLOWLOG as [`crate::kv::serve`], but
//! driven by `malthus-net`'s readiness reactor instead of a thread
//! per connection.
//!
//! The threaded front-end restricts *execution* (the crew) while
//! spending one blocked reader thread per connection; this front-end
//! removes the per-connection thread entirely. A fixed pool of
//! reactor workers shares one epoll instance, and the right to call
//! `epoll_wait` is itself Malthusian-admitted — surplus pollers cull
//! to a LIFO passive stack and are reprovisioned on stall, so the
//! poll crew exhibits the same active/passive partitioning as the
//! locks and the work crew. A ready connection **is** a batch: every
//! complete request line buffered on it is drained, parsed and
//! executed through [`KvService::apply_batch_span`] — identical
//! batching, span and durability semantics to the threaded path, so
//! clients cannot tell the front-ends apart on the wire.
//!
//! What changes is the cost model. Per-connection state shrinks from
//! a thread (stack, scheduler presence) to a buffer pair inside the
//! reactor's slab, so idle connections cost memory, not threads —
//! `kv_server --async` holds 1024 idle connections on two reactor
//! threads. Idle reaping moves from per-socket read timeouts to the
//! reactor's coarse timer wheel, surfacing through the same
//! `STATS idle_disconnects=` counter.

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use malthus_metrics::LatencyHistogram;
use malthus_net::{Action, CloseReason, Handler, Reactor, ReactorConfig, StatsProbe};
use malthus_obs::span::{self, Stage};
use malthus_obs::SpanContext;

use crate::kv::{AdmissionSnapshot, AdmissionStats, KvService, Parsed, ServerControl};
use crate::protocol::{drain_lines, write_tag_line, DrainEnd};

/// Knobs for [`serve_async`] — the reactor-side analogue of
/// [`crate::kv::ServeOptions`].
#[derive(Debug, Clone, Copy)]
pub struct AsyncServeOptions {
    /// Total reactor worker threads (active + passive).
    pub workers: usize,
    /// Target active circulating set of `epoll_wait` callers; surplus
    /// workers cull to the passive stack.
    pub acs_target: usize,
    /// Idle-connection timeout, enforced by the reactor's timer wheel
    /// (`None` never reaps — byte-compatible with the threaded
    /// default).
    pub read_timeout: Option<Duration>,
}

impl AsyncServeOptions {
    /// `workers` reactor threads with the Malthusian default ACS
    /// (min(workers, cpus)) and no idle reaping.
    pub fn malthusian(workers: usize) -> Self {
        AsyncServeOptions {
            workers: workers.max(1),
            acs_target: malthus::policy::acs_target(workers, usize::MAX),
            read_timeout: None,
        }
    }
}

/// [`AdmissionStats`] over the reactor's counters, so the `STATS`
/// verb renders poll-admission numbers in the same fields the
/// threaded server fills from the crew: `completed` counts ready
/// batches (the reactor's admission unit), culls/reprovisions/
/// promotions count poll-crew membership churn.
///
/// The probe cell starts empty — the handler must exist before the
/// reactor that will answer its stats does — and `STATS` renders
/// zeros until [`serve_async`] fills it right after reactor start.
#[derive(Clone)]
struct ReactorAdmission(Arc<OnceLock<StatsProbe>>);

impl AdmissionStats for ReactorAdmission {
    fn admission_snapshot(&self) -> AdmissionSnapshot {
        let Some(probe) = self.0.get() else {
            return AdmissionSnapshot::default();
        };
        let s = probe.get();
        AdmissionSnapshot {
            completed: s.ready_batches,
            culls: s.culls,
            reprovisions: s.reprovisions,
            promotions: s.fairness_promotions,
        }
    }
}

/// Per-connection protocol state: the buffer pair plus span
/// bookkeeping. This — not a thread — is the whole per-connection
/// footprint of the async front-end.
pub struct KvConn {
    /// Per-connection batch-size histogram, folded into the
    /// service-wide distribution on close (same lifecycle as the
    /// threaded reader's).
    conn_hist: Arc<LatencyHistogram>,
    /// Parsed-request scratch, reused across batches.
    batch: Vec<Parsed>,
    /// Response-render scratch, reused across batches.
    out: String,
    /// Spans of batches whose responses are still (partly) in the
    /// reactor's write buffer, oldest first. Flush time lands on the
    /// oldest; a completed flush finishes them all — responses leave
    /// in order, so a drained write buffer means every pending batch
    /// is fully on the wire.
    pending: Vec<SpanContext>,
}

/// The [`Handler`] gluing the reactor to [`KvService`]. Cheap to
/// clone (two `Arc`s); the reactor owns one clone per start.
#[derive(Clone)]
pub struct KvHandler {
    service: Arc<KvService>,
    admission: ReactorAdmission,
}

impl KvHandler {
    /// A handler over `service` whose `STATS` admission numbers come
    /// from the (not-yet-started) reactor via the shared probe cell.
    pub fn new(service: Arc<KvService>, probe: Arc<OnceLock<StatsProbe>>) -> Self {
        KvHandler {
            service,
            admission: ReactorAdmission(probe),
        }
    }
}

impl Handler for KvHandler {
    type Conn = KvConn;

    fn on_open(&self, _stream: &TcpStream) -> KvConn {
        malthus_obs::record(malthus_obs::EventKind::ConnOpen, 0, 0);
        KvConn {
            conn_hist: self.service.pipeline_stats().register_connection(),
            batch: Vec::new(),
            out: String::new(),
            pending: Vec::new(),
        }
    }

    fn on_data(
        &self,
        conn: &mut KvConn,
        read_buf: &mut Vec<u8>,
        write_buf: &mut Vec<u8>,
    ) -> Action {
        // A readiness wakeup drains every *complete* line buffered on
        // the connection into one batch — the same `drain_lines` pass
        // the threaded reader runs per block. Bytes after the last
        // newline stay buffered for the next wakeup.
        //
        // Span tracing: born at readiness, so Read covers UTF-8
        // validation + parse — never the wait for traffic.
        let mut span = if span::enabled() {
            SpanContext::start(0, 0) // identity assigned once sized
        } else {
            SpanContext::detached()
        };
        let read_t0 = if span.is_active() { span::now_ns() } else { 0 };
        let drained = drain_lines(read_buf, &mut conn.batch);
        read_buf.drain(..drained.consumed);
        if drained.end == DrainEnd::InvalidUtf8 {
            return Action::Close;
        }
        if !conn.batch.is_empty() {
            let n = conn.batch.len() as u64;
            self.service.pipeline_stats().note_batch(n);
            conn.conn_hist.record_ns(n);
            span.set_identity(self.service.next_batch_id(), n as u32);
            if read_t0 != 0 {
                span.add(Stage::Read, span::now_ns().saturating_sub(read_t0));
            }
            // No queue stage: the ready batch executes right here on
            // the reactor worker that won poll admission — admission
            // happened at `epoll_wait`, not at a task queue.
            conn.out.clear();
            let drain_start = Instant::now();
            self.service
                .apply_batch_span(&conn.batch, &self.admission, &mut conn.out, &mut span);
            self.service
                .pipeline_stats()
                .note_drain_ns(drain_start.elapsed().as_nanos() as u64);
            write_buf.extend_from_slice(conn.out.as_bytes());
            conn.batch.clear();
            if span.is_active() {
                // Flush happens later, nonblocking, possibly in
                // pieces; `on_flushed` settles the span.
                conn.pending.push(span);
            }
        }
        match drained.end {
            DrainEnd::Shutdown(tag) => {
                // `OK` must still reach the client: the reactor
                // flushes the write buffer before honouring the
                // shutdown.
                write_tag_line(write_buf, tag, "OK");
                Action::ShutdownServer
            }
            DrainEnd::Quit => Action::Close, // close without a response
            DrainEnd::Open | DrainEnd::InvalidUtf8 => Action::Continue,
        }
    }

    fn on_flushed(&self, conn: &mut KvConn, ns: u64, complete: bool) {
        if let Some(oldest) = conn.pending.first_mut() {
            oldest.add(Stage::Flush, ns);
        }
        if complete {
            for mut span in conn.pending.drain(..) {
                self.service.finish_span(&mut span);
            }
        }
    }

    fn on_close(&self, conn: &mut KvConn, reason: CloseReason) {
        if reason == CloseReason::IdleTimeout {
            self.service.note_idle_disconnect();
            malthus_obs::record(malthus_obs::EventKind::ConnIdleReap, 0, 0);
        }
        // Batches whose responses never fully left still count: their
        // spans settle with whatever flush time accrued.
        for mut span in conn.pending.drain(..) {
            self.service.finish_span(&mut span);
        }
        self.service
            .pipeline_stats()
            .retire_connection(Arc::clone(&conn.conn_hist));
    }
}

/// Serves `listener` through the reactor until [`ServerControl::stop`]
/// is called or a client sends `SHUTDOWN` — the async counterpart of
/// [`crate::kv::serve`]. Registers the reactor's gauges and counters
/// in the service's unified registry (as `serve` does the crew's), so
/// `METRICS` and `kvtop` see whichever front-end is live.
pub fn serve_async(
    listener: TcpListener,
    control: &ServerControl,
    service: Arc<KvService>,
    opts: AsyncServeOptions,
) -> std::io::Result<()> {
    // The handler must exist before the reactor, but STATS needs the
    // reactor's counters: the probe cell breaks the cycle, filled the
    // moment the reactor exists. Until then STATS renders zeros.
    let probe = Arc::new(OnceLock::new());
    let handler = KvHandler::new(Arc::clone(&service), Arc::clone(&probe));
    let cfg = ReactorConfig::malthusian(opts.workers)
        .with_acs_target(opts.acs_target)
        .with_read_timeout(opts.read_timeout)
        .with_stop_flag(Arc::clone(&control.stop));
    let reactor = Reactor::start(listener, handler, cfg)?;
    let _ = probe.set(reactor.stats_probe());
    reactor.register_metrics(service.registry());
    // Blocks until SHUTDOWN / control.stop() / stop-flag store; the
    // reactor closes remaining connections on its way out.
    reactor.wait();
    // A SHUTDOWN verb stopped the reactor directly: reflect it in the
    // control flag so `stop()`-side observers agree the server is
    // down (the threaded path gets this for free via control.stop()).
    control.stop.store(true, Ordering::SeqCst);
    Ok(())
}
