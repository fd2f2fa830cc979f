//! The connection driver, written once: socket bytes in, a drained
//! batch applied, reply bytes out.
//!
//! Both front-ends own one [`Session`] per connection and differ only
//! in what surrounds it — how bytes arrive (a blocking `read` into the
//! reader's block, or the reactor's readiness read), which thread
//! applies the batch (a lent crew slot or a queued crew task, or the
//! reactor worker that won poll admission) and how the replies leave
//! (one blocking `write`, or the reactor's write buffer). Everything
//! that decides *what a drained batch means* — line framing, batch
//! accounting, span identity and the `read` stage, execution, reply
//! rendering, the `SHUTDOWN` acknowledgement — is here, so a change to
//! it is made in one place and the front-ends cannot drift apart on
//! the wire.

use std::sync::Arc;
use std::time::Instant;

use malthus_metrics::LatencyHistogram;
use malthus_obs::span::{self, Stage};
use malthus_obs::SpanContext;

use crate::kv::{AdmissionStats, KvService};
use crate::protocol::{drain_lines, write_tag, DrainEnd, Parsed};

/// One connection's protocol state. Its buffers are reused across
/// batches, so a warm connection allocates per *batch* (see
/// [`KvService::apply_batch_span`]), never per request.
pub(crate) struct Session {
    /// The drained, not yet applied batch.
    batch: Vec<Parsed>,
    /// The rendered replies of the last applied batch.
    out: String,
    /// This connection's batch-size distribution: visible to quantile
    /// queries while the connection lives, folded into the service-wide
    /// histogram by [`Session::close`] (`STATS pbatch_p50/p99`).
    conn_hist: Arc<LatencyHistogram>,
    /// How the last [`Session::drain`] ended: whether the connection
    /// carries on, closes, or takes the server down with it.
    pub(crate) end: DrainEnd,
    /// Wall nanoseconds the connection's last batch took to apply —
    /// what `kv_batch_drain_ns` records, and the observable the
    /// threaded front-end's in-place/queued choice is made from.
    pub(crate) last_drain_ns: u64,
}

impl Session {
    /// The state of a freshly accepted connection.
    pub(crate) fn open(service: &KvService) -> Session {
        malthus_obs::record(malthus_obs::EventKind::ConnOpen, 0, 0);
        Session {
            batch: Vec::new(),
            out: String::new(),
            conn_hist: service.pipeline_stats().register_connection(),
            end: DrainEnd::Open,
            last_drain_ns: 0,
        }
    }

    /// Bytes in: drains every *complete* request line of `bytes` into
    /// the session's batch. Returns how many leading bytes it is done
    /// with — the rest is an unfinished line the caller keeps for its
    /// next read — and, when the drain left something to answer (a
    /// batch, or a `SHUTDOWN` to acknowledge), the span to
    /// [`Session::apply`] it under.
    ///
    /// The span is born here, after the bytes arrived, so its `read`
    /// stage covers UTF-8 validation and parsing, never the wait for
    /// traffic; it is detached when tracing is off or there is no
    /// batch.
    pub(crate) fn drain(
        &mut self,
        service: &KvService,
        bytes: &[u8],
    ) -> (usize, Option<SpanContext>) {
        let mut span = if span::enabled() {
            SpanContext::start(0, 0) // identity assigned once sized
        } else {
            SpanContext::detached()
        };
        let read_t0 = if span.is_active() { span::now_ns() } else { 0 };
        let drained = drain_lines(bytes, &mut self.batch);
        self.end = drained.end;
        let n = self.batch.len() as u64;
        if n == 0 {
            let ack = matches!(self.end, DrainEnd::Shutdown(_));
            return (drained.consumed, ack.then(SpanContext::detached));
        }
        service.pipeline_stats().note_batch(n);
        self.conn_hist.record_ns(n);
        span.set_identity(service.next_batch_id(), n as u32);
        if read_t0 != 0 {
            span.add(Stage::Read, span::now_ns().saturating_sub(read_t0));
        }
        (drained.consumed, Some(span))
    }

    /// Applies the drained batch and returns the bytes to flush: the
    /// batch's reply lines in request order, then the `OK` of a
    /// `SHUTDOWN` that ended the drain — one buffer, so one flush.
    pub(crate) fn apply<A: AdmissionStats>(
        &mut self,
        service: &KvService,
        admission: &A,
        span: &mut SpanContext,
    ) -> &[u8] {
        self.out.clear();
        if !self.batch.is_empty() {
            let start = Instant::now();
            service.apply_batch_span(&self.batch, admission, &mut self.out, span);
            self.last_drain_ns = start.elapsed().as_nanos() as u64;
            service.pipeline_stats().note_drain_ns(self.last_drain_ns);
            self.batch.clear();
        }
        if let DrainEnd::Shutdown(tag) = self.end {
            write_tag(&mut self.out, tag);
            self.out.push_str("OK\n");
        }
        self.replies()
    }

    /// The rendered replies of the last applied batch, for a caller
    /// that flushes apart from the [`Session::apply`] that made them.
    pub(crate) fn replies(&self) -> &[u8] {
        self.out.as_bytes()
    }

    /// Retires the connection: folds its batch-size distribution into
    /// the service-wide one.
    pub(crate) fn close(&self, service: &KvService) {
        service
            .pipeline_stats()
            .retire_connection(Arc::clone(&self.conn_hist));
    }
}
