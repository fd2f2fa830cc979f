//! The flight recorder: per-thread wrapping rings of compact events.
//!
//! The recorder answers the question the counter surfaces cannot:
//! *in what order* did things happen? A cull that lands between a
//! batch-begin and its fsync tells a very different story from one
//! that lands after, and the bugs this repo has actually shipped
//! (lost wakeups, accept-loop hangs) were all ordering bugs.
//!
//! Design constraints, in priority order:
//!
//! 1. **Disabled cost is one relaxed load.** Instrumentation points
//!    sit inside lock slow paths and WAL commits; when tracing is off
//!    they must be invisible. [`record`] loads one global atomic and
//!    returns.
//! 2. **No locks, no allocation on the hot path.** Each thread owns a
//!    fixed-capacity ring created on its first recorded event; a
//!    write is a seqlock-guarded store into the next slot.
//! 3. **Readers never block writers.** [`dump`] walks every ring with
//!    seqlock validation and simply skips slots that are mid-write.
//!
//! Events are sampled 1-in-N by a per-thread counter, so `enable`
//! with a sampling stride keeps the *enabled* cost bounded too: only
//! every Nth instrumentation point pays for a timestamp and a slot
//! write.

use std::cell::{Cell, OnceCell};
use std::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread ring capacity when [`enable`] is given zero.
pub const DEFAULT_CAPACITY: usize = 4096;

/// What happened. The discriminant is stored in the ring slot.
///
/// The `a`/`b` payload of [`record`] is kind-specific and documented
/// per variant; `0` when a field is unused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum EventKind {
    /// A lock passivated a waiter (`a` = lock id).
    LockCull = 0,
    /// A lock promoted a passivated waiter back (`a` = lock id).
    LockReprovision = 1,
    /// A lock handed off to the next active waiter (`a` = lock id).
    LockHandoff = 2,
    /// The episodic fairness trigger fired (`a` = lock id).
    LockFairnessGrant = 3,
    /// The work crew accepted a task (`a` = backlog after admit).
    CrewAdmit = 4,
    /// A crew worker was culled to the passive list (`a` = worker).
    CrewPark = 5,
    /// A crew worker was promoted from the passive list (`a` = worker).
    CrewPromote = 6,
    /// A shard began executing a batch (`a` = shard, `b` = batch size).
    ShardBatchBegin = 7,
    /// A shard finished a batch (`a` = shard, `b` = batch size).
    ShardBatchEnd = 8,
    /// A WAL group append was encoded (`a` = shard, `b` = bytes).
    WalAppend = 9,
    /// A WAL fsync completed (`a` = shard, `b` = latency ns).
    WalFsync = 10,
    /// A KV connection was accepted (`a` = 0).
    ConnOpen = 11,
    /// A KV connection was reaped for idleness (`a` = idle secs).
    ConnIdleReap = 12,
    /// A WAL error poisoned a shard read-only (`a` = shard, `b` = the
    /// error's `errno`, 0 for an injected fault).
    ShardReadonly = 13,
    /// A heal probe of a read-only shard failed (`a` = shard, `b` =
    /// `errno`, 0 for an injected fault).
    HealProbeFailed = 14,
    /// A heal probe flipped a read-only shard writable (`a` = shard).
    ShardHealed = 15,
    /// An `accept` failed and the accept loop carried on (`a` = 0 for
    /// the threaded front-end, 1 for the reactor; `b` = `errno`).
    AcceptError = 16,
    /// An accepted connection could not be registered with epoll and
    /// was dropped (`b` = `errno`).
    ConnRegisterFailed = 17,
    /// `epoll_wait` failed and a reactor worker stopped polling for
    /// good (`a` = worker, `b` = `errno`).
    PollerExit = 18,
}

impl EventKind {
    /// Snake-case name used in the JSON dump.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::LockCull => "lock_cull",
            EventKind::LockReprovision => "lock_reprovision",
            EventKind::LockHandoff => "lock_handoff",
            EventKind::LockFairnessGrant => "lock_fairness_grant",
            EventKind::CrewAdmit => "crew_admit",
            EventKind::CrewPark => "crew_park",
            EventKind::CrewPromote => "crew_promote",
            EventKind::ShardBatchBegin => "shard_batch_begin",
            EventKind::ShardBatchEnd => "shard_batch_end",
            EventKind::WalAppend => "wal_append",
            EventKind::WalFsync => "wal_fsync",
            EventKind::ConnOpen => "conn_open",
            EventKind::ConnIdleReap => "conn_idle_reap",
            EventKind::ShardReadonly => "shard_readonly",
            EventKind::HealProbeFailed => "heal_probe_failed",
            EventKind::ShardHealed => "shard_healed",
            EventKind::AcceptError => "accept_error",
            EventKind::ConnRegisterFailed => "conn_register_failed",
            EventKind::PollerExit => "poller_exit",
        }
    }

    fn from_u32(v: u32) -> Option<EventKind> {
        Some(match v {
            0 => EventKind::LockCull,
            1 => EventKind::LockReprovision,
            2 => EventKind::LockHandoff,
            3 => EventKind::LockFairnessGrant,
            4 => EventKind::CrewAdmit,
            5 => EventKind::CrewPark,
            6 => EventKind::CrewPromote,
            7 => EventKind::ShardBatchBegin,
            8 => EventKind::ShardBatchEnd,
            9 => EventKind::WalAppend,
            10 => EventKind::WalFsync,
            11 => EventKind::ConnOpen,
            12 => EventKind::ConnIdleReap,
            13 => EventKind::ShardReadonly,
            14 => EventKind::HealProbeFailed,
            15 => EventKind::ShardHealed,
            16 => EventKind::AcceptError,
            17 => EventKind::ConnRegisterFailed,
            18 => EventKind::PollerExit,
            _ => return None,
        })
    }
}

/// One decoded event, as returned by [`events`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the recorder's process-wide epoch.
    pub ts_ns: u64,
    /// Recorder-assigned id of the thread that wrote the event.
    pub tid: u64,
    /// What happened.
    pub kind: EventKind,
    /// First kind-specific payload field.
    pub a: u64,
    /// Second kind-specific payload field.
    pub b: u64,
}

/// One ring slot, guarded by a per-slot sequence lock: the writer
/// bumps `seq` to odd, stores the fields, then bumps it to even. A
/// reader that observes an odd or changed `seq` discards the slot.
/// All fields are atomics, so the unsynchronized case is a skipped
/// slot, never undefined behavior.
struct Slot {
    seq: AtomicU32,
    ts: AtomicU64,
    kind: AtomicU32,
    a: AtomicU64,
    b: AtomicU64,
}

/// A single thread's wrapping event ring. Only the owning thread
/// writes; any thread may read via the per-slot seqlocks.
struct ThreadRing {
    tid: u64,
    slots: Box<[Slot]>,
    /// Total writes ever made; the live window is the last
    /// `slots.len()` of them.
    head: AtomicU64,
}

impl ThreadRing {
    fn new(tid: u64, capacity: usize) -> ThreadRing {
        let slots = (0..capacity.max(1))
            .map(|_| Slot {
                seq: AtomicU32::new(0),
                ts: AtomicU64::new(0),
                kind: AtomicU32::new(0),
                a: AtomicU64::new(0),
                b: AtomicU64::new(0),
            })
            .collect();
        ThreadRing {
            tid,
            slots,
            head: AtomicU64::new(0),
        }
    }

    /// Owning-thread-only write of the next slot.
    fn push(&self, ts: u64, kind: EventKind, a: u64, b: u64) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h % self.slots.len() as u64) as usize];
        let seq = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(seq.wrapping_add(1), Ordering::Relaxed); // odd: write in progress
        fence(Ordering::Release);
        slot.ts.store(ts, Ordering::Relaxed);
        slot.kind.store(kind as u32, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.seq.store(seq.wrapping_add(2), Ordering::Relaxed); // even: stable
        self.head.store(h + 1, Ordering::Release);
    }

    /// Collects the currently-stable events, oldest first. Slots
    /// being overwritten during the scan are skipped.
    fn collect(&self, out: &mut Vec<Event>) {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        for i in start..head {
            let slot = &self.slots[(i % cap) as usize];
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 & 1 == 1 {
                continue; // never written, or mid-write
            }
            let ts = slot.ts.load(Ordering::Relaxed);
            let kind = slot.kind.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s1 {
                continue; // overwritten mid-read
            }
            if let Some(kind) = EventKind::from_u32(kind) {
                out.push(Event {
                    ts_ns: ts,
                    tid: self.tid,
                    kind,
                    a,
                    b,
                });
            }
        }
    }
}

/// Sampling stride; 0 means disabled. This is the only global the
/// disabled fast path touches.
static GATE: AtomicU32 = AtomicU32::new(0);
/// Ring capacity for threads that have not created theirs yet.
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// All rings ever created, including those of exited threads — a
/// post-run [`dump`] must still see what a short-lived worker wrote.
fn rings() -> &'static Mutex<Vec<Arc<ThreadRing>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<ThreadRing>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static RING: OnceCell<Arc<ThreadRing>> = const { OnceCell::new() };
    /// Events skipped since the last recorded one (1-in-N sampling).
    static SKIPPED: Cell<u32> = const { Cell::new(0) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on: per-thread rings of `capacity` slots (0 picks
/// [`DEFAULT_CAPACITY`]), keeping every `sample`-th event per thread
/// (0 and 1 both mean "every event").
///
/// Threads that already own a ring keep its capacity; `capacity`
/// applies to rings created after this call.
pub fn enable(capacity: usize, sample: u32) {
    let capacity = if capacity == 0 {
        DEFAULT_CAPACITY
    } else {
        capacity
    };
    CAPACITY.store(capacity, Ordering::Relaxed);
    EPOCH.get_or_init(Instant::now);
    GATE.store(sample.max(1), Ordering::Release);
}

/// Turns recording off. Already-recorded events stay available to
/// [`dump`]/[`events`] until [`clear`].
pub fn disable() {
    GATE.store(0, Ordering::Release);
}

/// Whether the recorder is currently enabled.
pub fn is_enabled() -> bool {
    GATE.load(Ordering::Relaxed) != 0
}

/// Empties every ring. Callers must quiesce recording first
/// ([`disable`] and join or idle the instrumented threads): clearing
/// races benignly with a concurrent writer, but the writer's event
/// may survive or vanish arbitrarily.
pub fn clear() {
    for ring in rings().lock().unwrap().iter() {
        for slot in ring.slots.iter() {
            slot.seq.store(0, Ordering::Relaxed);
        }
        ring.head.store(0, Ordering::Release);
    }
}

/// Records one event. When the recorder is disabled this is a single
/// relaxed load and a branch.
#[inline]
pub fn record(kind: EventKind, a: u64, b: u64) {
    let stride = GATE.load(Ordering::Relaxed);
    if stride == 0 {
        return;
    }
    record_slow(stride, kind, a, b);
}

/// The `errno` payload of an event about `e`: its OS error code, 0
/// for an error that carries none (an injected fault).
pub fn errno(e: &std::io::Error) -> u64 {
    e.raw_os_error().map_or(0, |code| code as u64)
}

#[inline(never)]
fn record_slow(stride: u32, kind: EventKind, a: u64, b: u64) {
    // 1-in-N sampling: cheap per-thread counter, no atomics.
    if stride > 1 {
        let skipped = SKIPPED.with(|c| {
            let v = c.get() + 1;
            if v < stride {
                c.set(v);
            } else {
                c.set(0);
            }
            v
        });
        if skipped < stride {
            return;
        }
    }
    let ts = now_ns();
    RING.with(|cell| {
        let ring = cell.get_or_init(|| {
            let ring = Arc::new(ThreadRing::new(
                NEXT_TID.fetch_add(1, Ordering::Relaxed),
                CAPACITY.load(Ordering::Relaxed),
            ));
            rings().lock().unwrap().push(Arc::clone(&ring));
            ring
        });
        ring.push(ts, kind, a, b);
    });
}

/// All currently-stable events across every thread, ordered by
/// timestamp (ties broken by thread id, then per-thread write order,
/// so each thread's subsequence is monotone).
pub fn events() -> Vec<Event> {
    let rings = rings().lock().unwrap();
    let mut keyed: Vec<(u64, u64, usize, Event)> = Vec::new();
    let mut tmp = Vec::new();
    for ring in rings.iter() {
        tmp.clear();
        ring.collect(&mut tmp);
        for (pos, ev) in tmp.iter().enumerate() {
            keyed.push((ev.ts_ns, ev.tid, pos, *ev));
        }
    }
    keyed.sort_by_key(|&(ts, tid, pos, _)| (ts, tid, pos));
    keyed.into_iter().map(|(_, _, _, ev)| ev).collect()
}

/// Merges every per-thread ring into time-ordered JSON lines, one
/// event per line:
///
/// ```text
/// {"ts_ns":184467,"tid":3,"event":"wal_fsync","a":0,"b":52133}
/// ```
pub fn dump() -> String {
    let mut out = String::new();
    for ev in events() {
        out.push_str(&format!(
            "{{\"ts_ns\":{},\"tid\":{},\"event\":\"{}\",\"a\":{},\"b\":{}}}\n",
            ev.ts_ns,
            ev.tid,
            ev.kind.as_str(),
            ev.a,
            ev.b
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// The recorder is process-global; tests that toggle it must not
    /// overlap.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        match LOCK.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn every_kind_round_trips_through_its_discriminant() {
        let mut names = std::collections::HashSet::new();
        let mut v = 0;
        while let Some(kind) = EventKind::from_u32(v) {
            assert_eq!(kind as u32, v);
            assert!(names.insert(kind.as_str()), "{} named twice", kind.as_str());
            v += 1;
        }
        assert_eq!(
            v,
            EventKind::PollerExit as u32 + 1,
            "a gap in the discriminants"
        );
        assert_eq!(
            [16, 17, 18].map(|v| EventKind::from_u32(v).map(EventKind::as_str)),
            [
                Some("accept_error"),
                Some("conn_register_failed"),
                Some("poller_exit")
            ]
        );
    }

    #[test]
    fn disabled_recorder_adds_zero_events() {
        let _g = test_lock();
        disable();
        clear();
        for i in 0..100 {
            record(EventKind::LockCull, i, 0);
        }
        assert!(events().is_empty());
        assert_eq!(dump(), "");
        assert!(!is_enabled());
    }

    #[test]
    fn sampling_gate_honors_one_in_n() {
        let _g = test_lock();
        disable();
        clear();
        enable(1024, 4);
        for i in 0..100 {
            record(EventKind::CrewAdmit, i, 0);
        }
        disable();
        let evs = events();
        // Each test runs on its own thread, so the per-thread skip
        // counter starts at zero: exactly every 4th call lands.
        assert_eq!(evs.len(), 25, "1-in-4 sampling of 100 events");
        assert!(evs.iter().all(|e| e.kind == EventKind::CrewAdmit));
        clear();
    }

    #[test]
    fn dump_ordering_is_monotone_per_thread() {
        let _g = test_lock();
        disable();
        clear();
        enable(64, 1);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        record(EventKind::ShardBatchBegin, t, i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        disable();
        let evs = events();
        // Rings hold 64 slots each; 4 threads wrapped 200 writes.
        assert!(evs.len() > 64 && evs.len() <= 4 * 64, "got {}", evs.len());
        let mut last: std::collections::HashMap<u64, u64> = Default::default();
        for ev in &evs {
            let prev = last.insert(ev.tid, ev.ts_ns).unwrap_or(0);
            assert!(
                ev.ts_ns >= prev,
                "thread {} went backwards: {} after {}",
                ev.tid,
                ev.ts_ns,
                prev
            );
        }
        // Global order is non-decreasing too.
        assert!(evs.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        // The dump is one JSON line per event.
        let dumped = dump();
        assert_eq!(dumped.lines().count(), evs.len());
        for line in dumped.lines() {
            assert!(line.starts_with("{\"ts_ns\":") && line.ends_with('}'));
            assert!(line.contains("\"event\":\"shard_batch_begin\""));
        }
        clear();
    }

    #[test]
    fn concurrent_writers_wrap_the_ring_without_tearing() {
        let _g = test_lock();
        disable();
        clear();
        enable(32, 1);
        // Writers store (a, !a) pairs; any torn read would pair an a
        // with a stale b. A reader races events() against the writers
        // the whole time.
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut seen = 0usize;
                loop {
                    // Read the flag *before* the scan so a stop set
                    // mid-scan still earns one final full pass.
                    let stopping = stop.load(Ordering::Relaxed);
                    for ev in events() {
                        assert_eq!(ev.b, !ev.a, "torn slot: a={} b={}", ev.a, ev.b);
                        seen += 1;
                    }
                    if stopping {
                        break;
                    }
                }
                seen
            })
        };
        let writers: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        let a = (t << 32) | i;
                        record(EventKind::WalAppend, a, !a);
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let seen = reader.join().unwrap();
        assert!(seen > 0, "reader never observed a stable event");
        disable();
        for ev in events() {
            assert_eq!(ev.b, !ev.a);
        }
        clear();
    }
}
