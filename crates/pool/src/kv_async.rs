//! The reactor front-end for the KV service: the same wire protocol,
//! spans, WAL group commit and SLOWLOG as [`crate::server::serve`], but
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
//! locks and the work crew. A ready connection **is** a batch, and it
//! is handed to the same per-connection `Session` the threaded reader
//! drives — drain, [`KvService::apply_batch_span`], render — so
//! clients cannot tell the front-ends apart on the wire. What is left
//! here is the front-end itself: poll admission in place of a task
//! queue (so spans carry no `queue` stage), the reactor's write buffer
//! in place of a blocking write, and the `flush` stage settled when
//! the bytes have really left.
//!
//! What changes is the cost model. Per-connection state shrinks from
//! a thread (stack, scheduler presence) to a session inside the
//! reactor's slab, so idle connections cost memory, not threads —
//! `kv_server --async` holds 1024 idle connections on two reactor
//! threads. Idle reaping moves from per-socket read timeouts to the
//! reactor's coarse timer wheel, surfacing through the same
//! `STATS idle_disconnects=` counter.

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use malthus_net::{Action, CloseReason, Handler, Reactor, ReactorConfig, StatsProbe};
use malthus_obs::span::Stage;
use malthus_obs::SpanContext;

use crate::kv::{AdmissionSnapshot, AdmissionStats, KvService};
use crate::protocol::DrainEnd;
use crate::server::ServerControl;
use crate::session::Session;

/// Knobs for [`serve_async`] — the reactor-side analogue of
/// [`crate::server::ServeOptions`].
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

/// Per-connection protocol state: the session plus the spans still
/// waiting for their flush. This — not a thread — is the whole
/// per-connection footprint of the async front-end.
pub struct KvConn {
    session: Session,
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
        KvConn {
            session: Session::open(&self.service),
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
        // the connection into one batch; bytes after the last newline
        // stay buffered for the next wakeup.
        let (consumed, span) = conn.session.drain(&self.service, read_buf);
        read_buf.drain(..consumed);
        if let Some(mut span) = span {
            // The ready batch executes right here on the reactor
            // worker that won poll admission — admission happened at
            // `epoll_wait`, not at a task queue. The reactor flushes
            // the write buffer — a `SHUTDOWN`'s `OK` included — before
            // it honours the returned action.
            let replies = conn
                .session
                .apply(&self.service, &self.admission, &mut span);
            write_buf.extend_from_slice(replies);
            if span.is_active() {
                // Flush happens later, nonblocking, possibly in
                // pieces; `on_flushed` settles the span.
                conn.pending.push(span);
            }
        }
        match conn.session.end {
            DrainEnd::Open => Action::Continue,
            DrainEnd::Shutdown(_) => Action::ShutdownServer,
            // QUIT closes without a response.
            DrainEnd::Quit | DrainEnd::InvalidUtf8 => Action::Close,
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
        conn.session.close(&self.service);
    }
}

/// Serves `listener` through the reactor until [`ServerControl::stop`]
/// is called or a client sends `SHUTDOWN` — the async counterpart of
/// [`crate::server::serve`]. Registers the reactor's gauges and counters
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
