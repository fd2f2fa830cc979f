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
//! the wire. The admission layer is not among it: a session never
//! sees the crew or the reactor, and `STATS` reads what they register
//! in the service's registry.

use std::time::Instant;

use malthus_obs::span::{self, Stage};
use malthus_obs::SpanContext;

use crate::kv::KvService;
use crate::protocol::{drain_lines, write_tag, DrainEnd, Parsed};

/// Bytes a connection thread asks the socket for per `read`, and the
/// size every per-connection buffer settles back to ([`settle`]).
/// Bounds a drained batch.
pub(crate) const READ_BLOCK: usize = 8 * 1024;

/// The one rule for a connection's reusable buffers — the threaded
/// reader's block and a session's batch and replies — applied once
/// what the buffer holds is done with: capacity grown past
/// [`READ_BLOCK`] bytes for one long line, large batch or large reply
/// (a `METRICS` scrape, a long `SCAN`) is given back, so the connection
/// does not hold it for life. At or under `READ_BLOCK` the buffer is
/// left alone, so ordinary batches never reallocate.
pub(crate) fn settle<T>(buf: &mut Vec<T>) {
    let keep = READ_BLOCK / std::mem::size_of::<T>().max(1);
    if buf.capacity() > keep {
        buf.truncate(keep);
        buf.shrink_to(keep);
    }
}

/// One connection's protocol state — with its two buffers, everything
/// a connection costs the service. The buffers are reused across
/// batches, so a warm connection allocates per *batch* (see
/// [`KvService::apply_batch_span`]), never per request.
pub(crate) struct Session {
    /// The drained, not yet applied batch.
    batch: Vec<Parsed>,
    /// The rendered replies of the last applied batch.
    out: String,
    /// How the last [`Session::drain`] ended: whether the connection
    /// carries on, closes, or takes the server down with it.
    pub(crate) end: DrainEnd,
    /// Wall nanoseconds the connection's last batch took to apply —
    /// what `kv_batch_drain_ns` records, and the observable the
    /// threaded front-end's in-place/queued choice is made from.
    pub(crate) last_drain_ns: u64,
}

impl Session {
    /// The state of a freshly accepted connection. Allocates nothing.
    pub(crate) fn open() -> Session {
        malthus_obs::record(malthus_obs::EventKind::ConnOpen, 0, 0);
        Session {
            batch: Vec::new(),
            out: String::new(),
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
        span.set_identity(service.next_batch_id(), n as u32);
        if read_t0 != 0 {
            span.add(Stage::Read, span::now_ns().saturating_sub(read_t0));
        }
        (drained.consumed, Some(span))
    }

    /// Applies the drained batch and returns the bytes to flush: the
    /// batch's reply lines in request order, then the `OK` of a
    /// `SHUTDOWN` that ended the drain — one buffer, so one flush.
    pub(crate) fn apply(&mut self, service: &KvService, span: &mut SpanContext) -> &[u8] {
        self.out.clear();
        if !self.batch.is_empty() {
            let start = Instant::now();
            service.apply_batch_span(&self.batch, &mut self.out, span);
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

    /// Once the replies have left: drops them and holds both buffers
    /// to the [`settle`] rule.
    pub(crate) fn settle(&mut self) {
        let mut out = std::mem::take(&mut self.out).into_bytes();
        out.clear();
        settle(&mut out);
        self.out = String::from_utf8(out).expect("an empty buffer is UTF-8");
        settle(&mut self.batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_grown_read_block_settles_back_to_one_read_block() {
        let mut block = vec![0u8; 8 * READ_BLOCK];
        settle(&mut block);
        assert_eq!(block.len(), READ_BLOCK);
        assert!(block.capacity() < 2 * READ_BLOCK);
        // A block that never grew is left alone.
        let at = block.as_ptr();
        settle(&mut block);
        assert_eq!((block.len(), block.as_ptr()), (READ_BLOCK, at));
    }

    /// One batch through `session` the way a front-end runs it:
    /// drained, applied, its replies flushed, settled. Returns the
    /// replies' length.
    fn run(session: &mut Session, svc: &KvService, bytes: &[u8]) -> usize {
        let (consumed, span) = session.drain(svc, bytes);
        assert_eq!(consumed, bytes.len());
        let replies = session.apply(svc, &mut span.unwrap()).len();
        session.settle();
        replies
    }

    #[test]
    fn a_large_batch_does_not_keep_its_buffers_past_the_next_small_one() {
        let svc = KvService::with_shards(1, 64, 256);
        let mut session = Session::open();
        // 4 096 requests and 20 KiB of replies in one batch.
        let replies = run(&mut session, &svc, "PING\n".repeat(4_096).as_bytes());
        assert!(replies > 2 * READ_BLOCK, "{replies}");
        run(&mut session, &svc, b"#1 PING\n");
        let (out, batch) = (session.out.capacity(), session.batch.capacity());
        assert!(out <= READ_BLOCK, "the replies keep {out} bytes");
        assert!(
            batch * std::mem::size_of::<Parsed>() <= READ_BLOCK,
            "the batch keeps {batch} slots"
        );
        // Ordinary batches on a settled connection do not reallocate.
        let at = session.out.as_ptr();
        let replies = run(&mut session, &svc, "#1 PING\n".repeat(64).as_bytes());
        assert_eq!(replies, 64 * "#1 PONG\n".len());
        assert_eq!(session.out.as_ptr(), at);
    }
}
