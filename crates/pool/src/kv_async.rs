//! The reactor front-end for the KV service ([`Front::Reactor`]): the
//! same wire protocol, spans, WAL group commit and SLOWLOG as the
//! threaded front-end, but driven by `malthus-net`'s readiness reactor
//! instead of a thread per connection. [`Server::start`] boots it, as
//! it boots the threaded one; this module is the [`Handler`] it runs.
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
//! here is the front-end itself: poll admission in place of the crew's
//! wait for a place (so spans carry no `queue` stage), the reactor's write buffer
//! in place of a blocking write, and the `flush` stage settled when
//! the bytes have really left. Poll admission's counters reach `STATS`
//! the way the crew's do, as registry series (`completed=` is
//! `kv_reactor_ready_batches_total`), so the handler carries none.
//!
//! What changes is the cost model. Per-connection state shrinks from
//! a thread (stack, scheduler presence) to buffers inside the
//! reactor's slab — its read/write pair and the session's batch and
//! reply buffers, empty until the first request and settled back once
//! replies leave — so idle connections cost memory, not threads, and
//! opening one allocates nothing here: `kv_server --async` holds 1024
//! idle connections on two reactor threads. Idle reaping moves from
//! per-socket read timeouts to the reactor's coarse timer wheel,
//! surfacing through the same `STATS idle_disconnects=` counter.
//!
//! [`Front::Reactor`]: crate::server::Front::Reactor
//! [`Server::start`]: crate::server::Server::start

use std::net::TcpStream;
use std::sync::Arc;

use malthus_net::{Action, CloseReason, Handler};
use malthus_obs::span::Stage;
use malthus_obs::SpanContext;

use malthus_storage::{CrPair, LockPair};

use crate::kv::KvService;
use crate::protocol::DrainEnd;
use crate::session::Session;

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
/// clone (one `Arc`); the reactor owns one clone per start.
#[derive(Clone)]
pub struct KvHandler<P: LockPair = CrPair> {
    service: Arc<KvService<P>>,
}

impl<P: LockPair> KvHandler<P> {
    /// A handler over `service`.
    pub fn new(service: Arc<KvService<P>>) -> Self {
        KvHandler { service }
    }
}

impl<P: LockPair> Handler for KvHandler<P> {
    type Conn = KvConn;

    fn on_open(&self, _stream: &TcpStream) -> KvConn {
        KvConn {
            session: Session::open(),
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
            let replies = conn.session.apply(&self.service, &mut span);
            write_buf.extend_from_slice(replies);
            conn.session.settle();
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
    }
}
