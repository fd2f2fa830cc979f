//! Request-scoped span tracing: per-batch stage clocks.
//!
//! PR 7's histograms say *that* p99 is high; this module says *where*
//! a slow batch spent its time. A [`SpanContext`] is created by the
//! connection reader when a batch is drained and threaded through
//! `KvService::apply_batch`, `ShardedKv::execute_batch`
//! and `ShardWal::append_group`; each layer folds the duration of its
//! stage into the context. Lock admission cost is attributed
//! separately from hold time: the CR locks report their
//! enqueue→acquire waits (and, distinctly, time spent *culled* on a
//! passive list) through a thread-local accumulator that the service
//! drains once per batch — the lock APIs cannot take a span
//! parameter, but a batch executes on exactly one thread, so the
//! thread is the span while the batch runs.
//!
//! The clocks are designed to be left on in production (the
//! end-to-end benchmark times a span's close as
//! `obs.span_finish_ns_per_batch`, and `malthus-pool`'s allocation
//! budget test holds a traced batch to the untraced one's two
//! allocations):
//!
//! - uncontended lock acquisitions never read the clock — only the
//!   already-blocking slow paths do, where two `Instant::now()` calls
//!   vanish under the park they measure;
//! - when the global gate is off ([`set_enabled`]`(false)`), every
//!   instrumentation point reduces to one relaxed load.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The pipeline stages a batch's latency is attributed to, in
/// request-path order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Draining and parsing the batch's request lines off the socket
    /// buffer (excludes the idle wait for the first byte).
    Read = 0,
    /// Waiting in `WorkCrew::enter` for an ACS place to be lent:
    /// the threaded front-end's admission wait (0 when a place was
    /// idle; the reactor's batches have none).
    Queue = 1,
    /// Blocked on lock admission (enqueue→acquire on the MCS chain,
    /// reader retry spins, writer drain waits) across every lock the
    /// batch touched.
    LockWait = 2,
    /// Quiesced on a CR lock's *passive list* after being culled —
    /// the unbounded-wait tail Malthusian admission deliberately
    /// buys throughput with (§3/§9), reported apart from ordinary
    /// admission so the trade is visible.
    CullWait = 3,
    /// Executing the batch's ops under (and between) lock holds.
    Exec = 4,
    /// Group-commit fsync inside `ShardWal::append_group`.
    WalFsync = 5,
    /// Writing the batch's response bytes back to the socket.
    Flush = 6,
}

/// Number of stages in [`Stage`].
pub const STAGE_COUNT: usize = 7;

impl Stage {
    /// Every stage, in request-path order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Read,
        Stage::Queue,
        Stage::LockWait,
        Stage::CullWait,
        Stage::Exec,
        Stage::WalFsync,
        Stage::Flush,
    ];

    /// The `stage=` label value used in `kv_stage_ns{stage=…}` and
    /// the `SLOWLOG` breakdown.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Read => "read",
            Stage::Queue => "queue",
            Stage::LockWait => "lock_wait",
            Stage::CullWait => "cull_wait",
            Stage::Exec => "exec",
            Stage::WalFsync => "wal_fsync",
            Stage::Flush => "flush",
        }
    }
}

/// Global gate for the stage clocks. Defaults to **on**: the clocks
/// are cheap enough to live in production.
static SPANS: AtomicBool = AtomicBool::new(true);

/// Turns the stage clocks on or off process-wide.
pub fn set_enabled(on: bool) {
    SPANS.store(on, Ordering::Relaxed);
}

/// Whether the stage clocks are on. One relaxed load — this is the
/// whole disabled-path cost of a lock-wait instrumentation point.
#[inline]
pub fn enabled() -> bool {
    SPANS.load(Ordering::Relaxed)
}

/// Process-wide monotonic epoch for cross-thread stamps (a culler
/// stamps the victim's node; the victim differences the stamp against
/// its own clock, so both must share an epoch).
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the first call in this process. Never
/// 0 on the instrumentation paths that use 0 as "unset" — the epoch
/// call itself takes nonzero time.
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64 | 1
}

thread_local! {
    /// Per-thread `(lock_wait, cull_wait)` nanosecond accumulators,
    /// fed by the CR locks' slow paths and drained once per batch by
    /// `KvService::apply_batch`.
    static WAITS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Adds blocked-on-admission time observed by a lock's slow path to
/// the calling thread's accumulator.
#[inline]
pub fn add_lock_wait(ns: u64) {
    let _ = WAITS.try_with(|w| {
        let (l, c) = w.get();
        w.set((l.wrapping_add(ns), c));
    });
}

/// Adds time the calling thread spent *culled on a passive list* to
/// its accumulator.
#[inline]
pub fn add_cull_wait(ns: u64) {
    let _ = WAITS.try_with(|w| {
        let (l, c) = w.get();
        w.set((l, c.wrapping_add(ns)));
    });
}

/// Returns and zeroes the calling thread's `(lock_wait, cull_wait)`
/// accumulators. Call once before a batch (discarding stale waits
/// from unrelated work) and once after (attributing the batch's own).
pub fn take_waits() -> (u64, u64) {
    WAITS.try_with(|w| w.replace((0, 0))).unwrap_or((0, 0))
}

/// One batch's span: identity plus per-stage monotonic stamps.
///
/// Created **active** by the connection reader when the gate is on
/// ([`SpanContext::start`]) or **detached** ([`SpanContext::detached`])
/// by wrapper paths that have no reader; a detached span accepts and
/// discards nothing — `add` still accumulates, but callers skip their
/// clock reads when [`SpanContext::is_active`] is false, so a
/// detached span simply stays zero.
#[derive(Debug, Clone)]
pub struct SpanContext {
    batch_id: u64,
    ops: u32,
    active: bool,
    started_ns: u64,
    total_ns: u64,
    stage_ns: [u64; STAGE_COUNT],
}

impl SpanContext {
    /// Starts an active span for batch `batch_id` of `ops` requests,
    /// stamping its birth on the monotonic epoch.
    pub fn start(batch_id: u64, ops: u32) -> SpanContext {
        SpanContext {
            batch_id,
            ops,
            active: true,
            started_ns: now_ns(),
            total_ns: 0,
            stage_ns: [0; STAGE_COUNT],
        }
    }

    /// A span that measures nothing: no clock is read at any layer.
    /// Used by the single-op wrappers (`put`, `mset`, …) so the
    /// traced batch paths need no duplicate untraced twins.
    pub fn detached() -> SpanContext {
        SpanContext {
            batch_id: 0,
            ops: 0,
            active: false,
            started_ns: 0,
            total_ns: 0,
            stage_ns: [0; STAGE_COUNT],
        }
    }

    /// Whether the span is collecting — callers gate their
    /// `Instant::now()` reads on this.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Sets the span's identity after the fact: the connection reader
    /// starts the span *before* draining (so the Read stage starts at
    /// the first byte), when the batch's id and size are not yet
    /// known.
    pub fn set_identity(&mut self, batch_id: u64, ops: u32) {
        self.batch_id = batch_id;
        self.ops = ops;
    }

    /// The batch's service-wide sequence number.
    pub fn batch_id(&self) -> u64 {
        self.batch_id
    }

    /// Requests in the batch.
    pub fn ops(&self) -> u32 {
        self.ops
    }

    /// Adds `ns` to a stage's accumulated duration.
    #[inline]
    pub fn add(&mut self, stage: Stage, ns: u64) {
        self.stage_ns[stage as usize] += ns;
    }

    /// The accumulated nanoseconds of one stage.
    pub fn get(&self, stage: Stage) -> u64 {
        self.stage_ns[stage as usize]
    }

    /// All seven stage durations, indexed by `Stage as usize`.
    pub fn stages(&self) -> [u64; STAGE_COUNT] {
        self.stage_ns
    }

    /// Sum of every stage duration — compared against
    /// [`SpanContext::total_ns`] it bounds how much latency escaped
    /// attribution (acceptance: within 10%).
    pub fn stage_sum(&self) -> u64 {
        self.stage_ns.iter().sum()
    }

    /// Closes the span: total = birth → now, measured independently
    /// of the stage clocks. Returns the total.
    pub fn finish(&mut self) -> u64 {
        if self.active {
            self.total_ns = now_ns().saturating_sub(self.started_ns);
        }
        self.total_ns
    }

    /// The closed span's end-to-end nanoseconds (0 before
    /// [`SpanContext::finish`]).
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_cover_the_metric_label_set() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.as_str()).collect();
        assert_eq!(
            names,
            [
                "read",
                "queue",
                "lock_wait",
                "cull_wait",
                "exec",
                "wal_fsync",
                "flush"
            ]
        );
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i, "ALL must be index-ordered");
        }
    }

    #[test]
    fn span_accumulates_and_finishes() {
        let mut s = SpanContext::start(7, 3);
        assert!(s.is_active());
        s.add(Stage::Exec, 100);
        s.add(Stage::Exec, 50);
        s.add(Stage::WalFsync, 25);
        assert_eq!(s.get(Stage::Exec), 150);
        assert_eq!(s.stage_sum(), 175);
        assert_eq!(s.batch_id(), 7);
        assert_eq!(s.ops(), 3);
        let total = s.finish();
        assert!(total > 0, "finish measures real elapsed time");
        assert_eq!(s.total_ns(), total);
    }

    #[test]
    fn detached_span_never_reads_the_clock() {
        let mut s = SpanContext::detached();
        assert!(!s.is_active());
        assert_eq!(s.finish(), 0);
        assert_eq!(s.total_ns(), 0);
    }

    #[test]
    fn thread_local_waits_accumulate_and_drain() {
        take_waits(); // discard anything a prior test left behind
        add_lock_wait(40);
        add_cull_wait(7);
        add_lock_wait(2);
        assert_eq!(take_waits(), (42, 7));
        assert_eq!(take_waits(), (0, 0), "drained");
    }

    #[test]
    fn gate_round_trips() {
        let was = enabled();
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(was);
    }

    #[test]
    fn now_ns_is_monotonic_and_nonzero() {
        let a = now_ns();
        let b = now_ns();
        assert!(a > 0);
        assert!(b >= a);
    }
}
