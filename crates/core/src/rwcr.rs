//! RW-CR: a Malthusian (concurrency-restricting) reader-writer lock.
//!
//! The paper applies concurrency restriction to mutual-exclusion locks
//! (§4) and notes that the active/passive partitioning "can be applied
//! to any contended resource" (§7). This module applies it to the two
//! sides of a reader-writer lock:
//!
//! * **Writers** queue through a full [`McsCrLock`]: MCS arrival order,
//!   surplus writers culled onto the MCSCR passive list, episodic
//!   eldest-writer fairness grants — the writer side inherits every
//!   property of §4 unchanged. The writer queue is a type parameter
//!   ([`WriterQueue`]): over a plain [`McsLock`] with an unbounded
//!   reader batch, [`RwCrLock::mcs`], the lock restricts neither side —
//!   the paper's baseline.
//! * **Readers** share a padded atomic reader count (one `fetch_add`
//!   per uncontended acquisition). While a write episode is in
//!   progress, an arriving reader is *culled* instead of spinning on
//!   the contended word: it parks on a node from its thread's arena,
//!   pushed onto the same passive list MCSCR culls its waiters onto
//!   (head = most recently culled, tail = eldest). When the write
//!   phase closes, only a bounded batch ([`policy::rw_reader_batch`])
//!   of passive readers is woken, and each grant is
//!   [`policy::release`]'s decision — the one MCSCR's unlock makes,
//!   here with no queue behind the list: the warmest reader (the head)
//!   is reprovisioned, or, when the episodic [`FairnessTrigger`] fires,
//!   the *eldest* (the tail) is granted instead, bounding long-term
//!   reader unfairness exactly like the mutex's 1/1000 promotion. Each
//!   reader admitted out of the passive list then pulls one more
//!   passive reader in as it starts running (an admission *cascade*),
//!   so the active reader set ramps instead of stampeding, yet the
//!   list fully drains whenever readers-only traffic persists (work
//!   conservation).
//!
//! Normal wakeups are **advisory**: the woken reader re-contends on
//! the fast path once it is actually running, so a writer's drain
//! never waits on a reader that was woken but not yet scheduled (on
//! an oversubscribed host that coupling would throttle every write
//! episode to context-switch latency). The episodic fairness grant is
//! the exception: it hands the eldest passive reader its read slot
//! *before* the wakeup, so under a saturating writer stream — where
//! an advisory wakeup would always lose the admission race and
//! re-passivate — the eldest reader is still admitted with certainty,
//! the same bounded-unfairness contract MCSCR gives its passive tail;
//! it tells the reader so through one flag on its node, set before the
//! signal. Writers are never starved at all: setting the writer bit
//! blocks new reader admissions, and existing read slots drain in
//! bounded time.
//!
//! # Ordering protocol
//!
//! All RMWs on the packed `sync` word are `AcqRel`, so the release
//! sequence through it orders every critical section against every
//! later acquisition. The passive list is guarded by a tiny leaf TAS
//! gate; the no-lost-wakeup argument is: a reader pushes its node only
//! after re-checking the writer bit *under the gate*, and every writer
//! clears the bit *before* taking the gate to drain, so the drain that
//! follows the bit clear a reader raced with always finds its node on
//! the list. A node leaves the list only by a pop under the gate, so
//! it is signalled exactly once; its reader stays captive in
//! `WaitCell::wait` until then and frees the node (back to its own
//! arena) only after waking, and [`WaitCell::signal`] never touches a
//! cell after releasing its waiter, so no granter reaches a freed node.

use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use malthus_park::{SpinThenYield, WaitCell, WaitPolicy, XorShift64};

use crate::node::{alloc_node, free_node};
use crate::policy::{self, FairnessTrigger, Release, DEFAULT_FAIRNESS_PERIOD};
use crate::queue::{policy_name, PassiveList};
use crate::raw::{RawLock, RawRwLock};
use crate::{CachePadded, LockCounter, McsCrLock, McsLock, Mutex, MutexGuard, TasLock};

/// Writer-active flag in the packed `sync` word; the low 63 bits are
/// the active reader count (including slots granted to still-waking
/// fairness promotions).
const WRITER_BIT: u64 = 1 << 63;

/// Outcome of one reader passivation attempt.
enum CullOutcome {
    /// The write phase was observed closed under the gate; no park
    /// happened — retry the fast path.
    PhaseOpen,
    /// Parked, then woken advisorily: re-contend on the fast path.
    WokenAdvisory,
    /// Parked, then granted a read slot by the fairness path:
    /// admitted outright.
    SlotGranted,
}

/// Polite pauses a reader invests in waiting out a short write section
/// before paying the passivation cost.
const READ_RETRY_SPINS: u32 = 96;

/// Polite pauses a writer invests in the reader drain before
/// publishing its drain cell (and, under an `-STP`/`-P` policy,
/// parking).
const DRAIN_SPINS: u32 = 128;

#[inline]
fn reader_count(sync: u64) -> u64 {
    sync & !WRITER_BIT
}

/// Monotonic counters describing CR activity on one RW-CR lock.
///
/// Same raciness contract as [`McsCrLock::cr_stats`]: tear-free
/// but possibly lagging in-flight releases; cross-counter invariants
/// (`reader_culls == reader_reprovisions + reader_fairness_grants`)
/// balance only once the lock is quiescent. A reader that is woken
/// advisorily and re-passivates against a new write episode counts a
/// fresh cull (and, later, a fresh grant), so the invariant holds
/// per passivation episode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RwStats {
    /// Reader passivation episodes (parked on the passive list because
    /// a write episode was in progress).
    pub reader_culls: u64,
    /// Passive readers woken by the normal (warmest-first) advisory
    /// discipline.
    pub reader_reprovisions: u64,
    /// Passive readers granted eldest-first — with their read slot
    /// pre-assigned — by the fairness trigger.
    pub reader_fairness_grants: u64,
    /// Write acquisitions.
    pub write_episodes: u64,
    /// Write acquisitions that outlasted the spin budget waiting for
    /// the reader drain and published a drain cell.
    pub writer_drain_waits: u64,
}

/// Reader-side state: the passive list and its statistics, guarded by
/// the `gate` leaf lock (never held across any blocking operation).
struct ReaderSide {
    /// Tiny leaf TAS guarding `passive`'s edits and the eldest-first
    /// Bernoulli trial it holds.
    gate: Mutex<FairnessTrigger, TasLock>,
    /// Culled readers' nodes; its length is a lock-free hint.
    passive: PassiveList,
    culls: LockCounter,
    reprovisions: LockCounter,
    fairness_grants: LockCounter,
}

/// The held reader gate: the proof that the passive list may be edited.
type ReaderGate<'a> = MutexGuard<'a, FairnessTrigger, TasLock>;

/// The queue an [`RwCrLock`] serializes its writers through: it is only
/// ever `lock`ed, `try_lock`ed and `unlock`ed, so any mutex will do.
/// Each queue names the RW lock built on it.
pub trait WriterQueue: RawLock {
    /// The RW lock's `name()` under the `Spin`, `SpinThenPark` and
    /// `Park` waiting policies.
    const RW_NAMES: [&'static str; 3];
}

impl WriterQueue for McsCrLock {
    const RW_NAMES: [&'static str; 3] = ["RW-CR-S", "RW-CR-STP", "RW-CR-P"];
}

impl WriterQueue for McsLock {
    const RW_NAMES: [&'static str; 3] = ["RW-MCS-S", "RW-MCS-STP", "RW-MCS-P"];
}

/// Writer-side scratch: serialized by the writer queue.
struct WriterSide {
    /// The cell a pending writer waits on for the reader drain; null
    /// outside a drain wait. Swapped (taken) by the last exiting
    /// reader.
    drain: AtomicPtr<WaitCell>,
    write_episodes: LockCounter,
    drain_waits: LockCounter,
}

/// The Malthusian reader-writer lock (`RW-CR`), generic over its
/// writer queue `W`. The default, [`McsCrLock`], restricts both sides;
/// [`RwCrLock::mcs`] is the unrestricted baseline (`RW-MCS`).
///
/// # Examples
///
/// ```
/// use malthus::{RawRwLock, RwCrLock};
///
/// let rw = RwCrLock::stp();
/// rw.read_lock();
/// rw.read_lock(); // readers share
/// unsafe {
///     rw.read_unlock();
///     rw.read_unlock();
/// }
/// rw.write_lock();
/// assert!(!rw.try_read_lock()); // writers exclude
/// unsafe { rw.write_unlock() };
/// ```
pub struct RwCrLock<W: WriterQueue = McsCrLock> {
    /// Writer admission: by default the full MCSCR machinery
    /// (internally padded).
    writer: W,
    /// The one reader-hammered word: writer bit + active reader count.
    sync: CachePadded<AtomicU64>,
    /// Passive-reader list + reader stats, on their own line.
    rside: CachePadded<ReaderSide>,
    /// Writer-only scratch (drain cell, writer stats), kept off both
    /// hot lines.
    wside: CachePadded<WriterSide>,
    policy: WaitPolicy,
    /// Reader-reprovisioning batch bound (≈ host CPUs by default).
    acs_limit: usize,
}

// SAFETY: `sync`, `drain` and the passive list's length are atomics;
// the list's links are edited only under the `gate` TAS; the
// writer-side counters are serialized by the writer queue.
// Nodes on the list stay live until signalled (their owners are
// captive in `WaitCell::wait`).
unsafe impl<W: WriterQueue> Send for RwCrLock<W> {}
// SAFETY: see above.
unsafe impl<W: WriterQueue> Sync for RwCrLock<W> {}

impl Default for RwCrLock {
    fn default() -> Self {
        Self::stp()
    }
}

impl RwCrLock {
    /// Creates an RW-CR lock with explicit waiting policy, fairness
    /// period, PRNG seed, and reader admission-batch limit.
    pub fn with_params(
        policy: WaitPolicy,
        fairness_period: u64,
        seed: u64,
        acs_limit: usize,
    ) -> Self {
        let writer = McsCrLock::with_params(policy, fairness_period, seed ^ 0x9E37_79B9);
        Self::with_writer(writer, policy, fairness_period, seed, acs_limit)
    }

    /// Creates an RW-CR lock with the given waiting policy, the
    /// paper's 1/1000 fairness period, and an admission batch of the
    /// host CPU count.
    pub fn new(policy: WaitPolicy) -> Self {
        Self::with_params(
            policy,
            DEFAULT_FAIRNESS_PERIOD,
            XorShift64::from_entropy().next_u64(),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
    }

    /// `RW-CR-S`: unbounded polite spinning.
    pub fn spin() -> Self {
        Self::new(WaitPolicy::spin())
    }

    /// `RW-CR-STP`: spin-then-park (the recommended configuration).
    pub fn stp() -> Self {
        Self::new(WaitPolicy::spin_then_park())
    }
}

impl RwCrLock<McsLock> {
    /// `RW-MCS-STP`, the unrestricted baseline: writers queue FIFO on
    /// an [`McsLock`] and a closing write phase wakes every passive
    /// reader at once (an unbounded reader batch).
    pub fn mcs() -> Self {
        Self::with_writer(
            McsLock::stp(),
            WaitPolicy::spin_then_park(),
            DEFAULT_FAIRNESS_PERIOD,
            XorShift64::from_entropy().next_u64(),
            usize::MAX,
        )
    }
}

impl<W: WriterQueue> RwCrLock<W> {
    /// Creates an RW lock over `writer` with explicit waiting policy,
    /// reader fairness period, PRNG seed and reader admission-batch
    /// limit (`usize::MAX`: every passive reader at once).
    fn with_writer(
        writer: W,
        policy: WaitPolicy,
        fairness_period: u64,
        seed: u64,
        acs_limit: usize,
    ) -> Self {
        RwCrLock {
            writer,
            sync: CachePadded::new(AtomicU64::new(0)),
            rside: CachePadded::new(ReaderSide {
                gate: Mutex::with_raw(TasLock::new(), FairnessTrigger::new(fairness_period, seed)),
                passive: PassiveList::new(),
                culls: LockCounter::new(),
                reprovisions: LockCounter::new(),
                fairness_grants: LockCounter::new(),
            }),
            wside: CachePadded::new(WriterSide {
                drain: AtomicPtr::new(ptr::null_mut()),
                write_episodes: LockCounter::new(),
                drain_waits: LockCounter::new(),
            }),
            policy,
            acs_limit: acs_limit.max(1),
        }
    }

    /// Number of readers currently passivated (racy hint).
    pub fn passive_readers(&self) -> usize {
        self.rside.passive.len()
    }

    /// Number of active read slots (racy; includes granted-but-still-
    /// waking passive readers and transient optimistic arrivals).
    pub fn active_readers(&self) -> u64 {
        reader_count(self.sync.load(Ordering::Relaxed))
    }

    /// Snapshot of RW-CR activity counters (racy; see [`RwStats`]).
    pub fn stats(&self) -> RwStats {
        RwStats {
            reader_culls: self.rside.culls.get(),
            reader_reprovisions: self.rside.reprovisions.get(),
            reader_fairness_grants: self.rside.fairness_grants.get(),
            write_episodes: self.wside.write_episodes.get(),
            writer_drain_waits: self.wside.drain_waits.get(),
        }
    }

    /// The flight-recorder identity of this lock instance: its
    /// address, stable for the lock's lifetime.
    fn id(&self) -> u64 {
        self as *const Self as usize as u64
    }

    /// Releases one read slot; if this was the last reader of a
    /// closing read phase, hands the drain cell its signal.
    fn exit_read(&self) {
        let prev = self.sync.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(reader_count(prev) >= 1, "read_unlock without a slot");
        if prev & WRITER_BIT != 0 && reader_count(prev) == 1 {
            // Last slot out with a writer pending: take and signal the
            // drain cell if the writer has published it. (If it has
            // not, its post-publication re-check reclaims the cell.)
            //
            // The fence pairs with the one in `wait_for_drain`
            // (Dekker-style): our decrement and the writer's cell
            // publication are stores on different words, each followed
            // by a load of the other word — without SeqCst fences
            // between them, both sides could read the stale value
            // (store-buffering), the writer parking on a cell nobody
            // saw while we swap a still-null pointer: a lost wakeup.
            // The fences order one side's pair in front of the other,
            // so either we observe the cell or the writer observes the
            // drained count.
            //
            // Preempted here, this thread can resume in a *later* write
            // episode and take that one's cell; see
            // `wait_for_drain_inner`.
            #[cfg(test)]
            tests::last_out_pause();
            std::sync::atomic::fence(Ordering::SeqCst);
            let cell = self.wside.drain.swap(ptr::null_mut(), Ordering::AcqRel);
            if !cell.is_null() {
                // SAFETY: the publishing writer is captive until the
                // cell is signalled or reclaimed, and we won the swap.
                unsafe { (*cell).signal() };
            }
        }
    }

    /// Tries to take one read slot on behalf of the eldest passive
    /// reader (the fairness path), failing (without a trace) if a
    /// writer holds or has claimed the lock. The check and the
    /// increment are one CAS so a grant can never interleave with a
    /// writer's drain check.
    fn try_grant_slot(&self) -> bool {
        self.sync
            .fetch_update(Ordering::AcqRel, Ordering::Relaxed, |cur| {
                (cur & WRITER_BIT == 0).then_some(cur + 1)
            })
            .is_ok()
    }

    /// Grants up to `max` passive readers, each by
    /// [`policy::release`]'s decision with no queue behind the list.
    ///
    /// A reprovision pops the warmest reader (the head) and wakes it
    /// advisorily: it re-contends once scheduled. A fairness graft pops
    /// the *eldest* (the tail) and first takes its read slot, by a CAS
    /// that fails only if a writer holds or has claimed the lock (the
    /// reader is then woken advisorily), so it cannot lose the
    /// admission race however saturated the writer stream is.
    fn grant(&self, gate: &mut ReaderGate<'_>, max: usize) {
        let passive = &self.rside.passive;
        for _ in 0..max {
            // A passive reader waits behind no queue: no successor.
            let (node, with_slot) =
                match policy::release(passive.len(), gate, || None, |_: &()| false) {
                    Release::GraftEldest => (passive.pop_tail(), self.try_grant_slot()),
                    Release::Reprovision => (passive.pop_head(), false),
                    _ => break,
                };
            if with_slot {
                self.rside.fairness_grants.bump();
                malthus_obs::record(malthus_obs::EventKind::LockFairnessGrant, self.id(), 0);
            } else {
                self.rside.reprovisions.bump();
                malthus_obs::record(malthus_obs::EventKind::LockReprovision, self.id(), 0);
            }
            // SAFETY: the reader is captive until signalled; a node is
            // popped under the gate (hence signalled) once, and the
            // slot flag is published before the signal.
            unsafe {
                if with_slot {
                    (*node).slot_granted.store(true, Ordering::Release);
                }
                (*node).cell.signal();
            }
        }
    }

    /// Opens a read phase after a write episode: grants a bounded
    /// batch of passive readers their slots.
    ///
    /// The gate is always taken — an emptiness peek could miss a
    /// reader that passivated against the just-closed phase.
    fn open_read_phase(&self) {
        let mut gate = self.rside.gate.lock();
        let batch = policy::rw_reader_batch(self.rside.passive.len(), self.acs_limit);
        // Most write episodes end with nobody passive: skip the call.
        if batch > 0 {
            self.grant(&mut gate, batch);
        }
    }

    /// One admission-cascade step: a running reader pulls the next
    /// passive reader in, if any and if no writer has claimed the
    /// lock. `must` forces the gate (granted readers carry the chain,
    /// so their step cannot be dropped); the opportunistic variant
    /// backs off if the gate is busy (whoever holds it continues the
    /// drain or is a passivator whose writer will).
    fn cascade(&self, must: bool) {
        if self.rside.passive.is_empty() {
            return;
        }
        let gate = if must {
            Some(self.rside.gate.lock())
        } else {
            self.rside.gate.try_lock()
        };
        if let Some(mut gate) = gate {
            self.grant(&mut gate, 1);
        }
    }

    /// Culls the calling reader onto the passive list and waits for a
    /// wakeup (advisory) or a fairness grant (slot pre-assigned).
    fn passivate_reader(&self) -> CullOutcome {
        let gate = self.rside.gate.lock();
        if self.sync.load(Ordering::Acquire) & WRITER_BIT == 0 {
            // Phase closed while we took the gate: a park here could
            // never be woken (the drain for that phase already ran).
            return CullOutcome::PhaseOpen;
        }
        let node = alloc_node();
        // SAFETY: gate held; the node is ours and in no list, and it
        // stays live until we free it below, after its signal.
        unsafe { self.rside.passive.push_head(node) };
        self.rside.culls.bump();
        malthus_obs::record(malthus_obs::EventKind::LockCull, self.id(), 0);
        drop(gate);
        // Span tracing: the park below *is* passive-list residency —
        // the Malthusian long-tail wait — so it feeds the cull_wait
        // accumulator, distinct from ordinary admission (lock_wait).
        let t0 = if malthus_obs::span::enabled() {
            malthus_obs::span::now_ns()
        } else {
            0
        };
        // SAFETY: the granter popped the node before signalling it and
        // never touches it after, so once woken it is ours alone.
        let slot_granted = unsafe {
            (*node).cell.wait(self.policy);
            let granted = (*node).slot_granted.load(Ordering::Acquire);
            free_node(node);
            granted
        };
        if t0 != 0 {
            malthus_obs::span::add_cull_wait(malthus_obs::span::now_ns().saturating_sub(t0));
        }
        if slot_granted {
            // The granter already took our slot; carry the cascade so
            // the list keeps draining while readers flow.
            self.cascade(true);
            CullOutcome::SlotGranted
        } else {
            CullOutcome::WokenAdvisory
        }
    }

    /// Waits (spin, then the policy's park path) for the active
    /// readers to drain after the writer bit is set.
    ///
    /// Span tracing counts the whole drain as lock admission: the
    /// writer already owns the serialization lock but cannot enter
    /// its critical section yet, so from the request's point of view
    /// this is still waiting-to-acquire.
    fn wait_for_drain(&self) {
        if !malthus_obs::span::enabled() {
            return self.wait_for_drain_inner();
        }
        let t0 = malthus_obs::span::now_ns();
        self.wait_for_drain_inner();
        malthus_obs::span::add_lock_wait(malthus_obs::span::now_ns().saturating_sub(t0));
    }

    fn wait_for_drain_inner(&self) {
        let mut spin = SpinThenYield::new();
        for _ in 0..DRAIN_SPINS {
            if reader_count(self.sync.load(Ordering::Acquire)) == 0 {
                return;
            }
            spin.pause();
        }
        self.wside.drain_waits.bump();
        // A signal means some reader saw itself last out, not that the
        // readers of *this* episode are gone: a reader preempted
        // between its decrement and its swap in `exit_read` can resume
        // now and signal us with readers inside. So the count is
        // checked after every signal, and a fresh cell is published
        // while readers remain; a stale swap can only ever take a live
        // waiting writer's cell, so this loop is sufficient.
        loop {
            let cell = WaitCell::new();
            self.wside
                .drain
                .store(&cell as *const WaitCell as *mut WaitCell, Ordering::Release);
            // Pairs with the fence in `exit_read`; see the comment
            // there. Without it, this re-check load could be satisfied
            // before the publication store above drains
            // (store-buffering), letting the last reader's swap miss
            // the cell while we miss its decrement — both sides would
            // then wait forever.
            std::sync::atomic::fence(Ordering::SeqCst);
            if reader_count(self.sync.load(Ordering::Acquire)) == 0 {
                // The drain may have completed before the cell was
                // published; reclaim it. Losing the swap means a
                // reader took the cell and its signal is in flight.
                if !self
                    .wside
                    .drain
                    .swap(ptr::null_mut(), Ordering::AcqRel)
                    .is_null()
                {
                    return;
                }
            }
            cell.wait(self.policy);
            if reader_count(self.sync.load(Ordering::Acquire)) == 0 {
                return;
            }
        }
    }
}

impl<W: WriterQueue> Drop for RwCrLock<W> {
    fn drop(&mut self) {
        debug_assert_eq!(
            *self.sync.get_mut(),
            0,
            "RwCrLock dropped while held or contended"
        );
        debug_assert!(
            self.wside.drain.get_mut().is_null(),
            "RwCrLock dropped with a pending writer drain"
        );
        debug_assert!(
            self.rside.passive.is_empty(),
            "RwCrLock dropped with passivated readers"
        );
    }
}

// SAFETY: writers serialize through the writer queue and enter
// their critical section only after setting the writer bit and
// observing a zero reader count; the bit blocks new reader slots
// (the fast path backs out, fairness grants CAS against the bit), so
// writer exclusivity holds. Read slots only coexist with other read
// slots. Liveness: every passivated reader's cell is visible to the
// drain that follows the bit clear it raced with (checked under the
// gate), every drain wakes at least one passive reader, and a woken
// reader either admits (carrying the cascade) or re-passivates
// against a writer whose own release drains again.
unsafe impl<W: WriterQueue> RawRwLock for RwCrLock<W> {
    fn read_lock(&self) {
        // Set once this thread has been through the passive list: its
        // eventual admission must then carry the drain chain (a
        // dropped chain step could strand the readers behind it).
        let mut was_passive = false;
        loop {
            let prev = self.sync.fetch_add(1, Ordering::AcqRel);
            if prev & WRITER_BIT == 0 {
                // Admitted. Pull the next passive reader in if a drain
                // is still ramping.
                self.cascade(was_passive);
                return;
            }
            // A write episode is in progress: back out (this decrement
            // may be the one that releases the writer's drain).
            self.exit_read();
            // Wait out a short write section before paying for
            // passivation. Span tracing bills the retry spin as lock
            // admission (the passive park, if it comes to that, is
            // billed separately as cull_wait inside the passivation).
            let t0 = if malthus_obs::span::enabled() {
                malthus_obs::span::now_ns()
            } else {
                0
            };
            let mut spin = SpinThenYield::new();
            for _ in 0..READ_RETRY_SPINS {
                if self.sync.load(Ordering::Acquire) & WRITER_BIT == 0 {
                    break;
                }
                spin.pause();
            }
            if t0 != 0 {
                malthus_obs::span::add_lock_wait(malthus_obs::span::now_ns().saturating_sub(t0));
            }
            if self.sync.load(Ordering::Acquire) & WRITER_BIT != 0 {
                match self.passivate_reader() {
                    CullOutcome::SlotGranted => return,
                    CullOutcome::WokenAdvisory => was_passive = true,
                    CullOutcome::PhaseOpen => {}
                }
            }
            // Retry the fast path.
        }
    }

    fn try_read_lock(&self) -> bool {
        let prev = self.sync.fetch_add(1, Ordering::AcqRel);
        if prev & WRITER_BIT == 0 {
            self.cascade(false);
            return true;
        }
        self.exit_read();
        false
    }

    unsafe fn read_unlock(&self) {
        self.exit_read();
    }

    fn write_lock(&self) {
        self.writer.lock();
        self.wside.write_episodes.bump();
        let prev = self.sync.fetch_or(WRITER_BIT, Ordering::AcqRel);
        debug_assert_eq!(prev & WRITER_BIT, 0, "double writer bit");
        if reader_count(prev) > 0 {
            self.wait_for_drain();
        }
    }

    fn try_write_lock(&self) -> bool {
        if !self.writer.try_lock() {
            return false;
        }
        let prev = self.sync.fetch_or(WRITER_BIT, Ordering::AcqRel);
        if reader_count(prev) == 0 {
            self.wside.write_episodes.bump();
            return true;
        }
        // Active readers: back out. Readers may have passivated
        // against the transient bit, so run the normal phase-open
        // drain after clearing it.
        self.sync.fetch_and(!WRITER_BIT, Ordering::AcqRel);
        self.open_read_phase();
        // SAFETY: acquired by the `try_lock` above.
        unsafe { self.writer.unlock() };
        false
    }

    unsafe fn write_unlock(&self) {
        let prev = self.sync.fetch_and(!WRITER_BIT, Ordering::AcqRel);
        debug_assert!(prev & WRITER_BIT != 0, "write_unlock without writer bit");
        // (`reader_count(prev)` may be non-zero: optimistic reader
        // arrivals increment transiently before backing out.)
        self.open_read_phase();
        // SAFETY: held per this method's contract; unlocking last
        // keeps the bit + drain protocol single-writer throughout.
        unsafe { self.writer.unlock() };
    }

    fn name(&self) -> &'static str {
        policy_name(self.policy, W::RW_NAMES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::QNode;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::{mpsc, Arc, Barrier};
    use std::time::Duration;

    thread_local! {
        /// Run by this thread's `exit_read` after it decided it is the
        /// last reader out and before it takes the drain cell.
        static LAST_OUT_PAUSE: RefCell<Option<Box<dyn FnMut()>>> = const { RefCell::new(None) };
    }

    pub(super) fn last_out_pause() {
        LAST_OUT_PAUSE.with_borrow_mut(|pause| pause.as_mut().map(|pause| pause()));
    }

    /// Spins until `done` holds of `rw`.
    fn until<W: WriterQueue>(rw: &RwCrLock<W>, done: impl Fn(&RwCrLock<W>) -> bool) {
        while !done(rw) {
            std::thread::yield_now();
        }
    }

    fn drain_published(rw: &RwCrLock) -> bool {
        !rw.wside.drain.load(Ordering::Acquire).is_null()
    }

    #[test]
    fn a_stale_last_reader_cannot_let_a_later_writer_in_over_readers() {
        // Reader A decides it is the last one out of write episode 1
        // and stops before taking the drain cell; episode 1's writer is
        // let in by another arrival's back-out. A resumes during
        // episode 2 and takes *that* writer's cell while episode 2's
        // reader is still inside.
        let rw = Arc::new(RwCrLock::stp());
        let (held_tx, held) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let (paused_tx, paused) = mpsc::channel();
        let (resume, resume_rx) = mpsc::channel();
        let reader_a = std::thread::spawn({
            let rw = Arc::clone(&rw);
            move || {
                rw.read_lock();
                held_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                LAST_OUT_PAUSE.set(Some(Box::new(move || {
                    paused_tx.send(()).unwrap();
                    resume_rx.recv().unwrap();
                })));
                // SAFETY: held.
                unsafe { rw.read_unlock() };
            }
        });
        held.recv().unwrap();
        let writer_1 = std::thread::spawn({
            let rw = Arc::clone(&rw);
            move || {
                rw.write_lock();
                // SAFETY: held.
                unsafe { rw.write_unlock() };
            }
        });
        until(&rw, drain_published);
        release.send(()).unwrap();
        paused.recv().unwrap();
        // An optimistic arrival backs out of episode 1 as its last
        // reader and signals its writer (unless that writer already saw
        // A's decrement on its own re-check and is in, or gone).
        if rw.try_read_lock() {
            // SAFETY: held.
            unsafe { rw.read_unlock() };
        }
        writer_1.join().unwrap();

        rw.read_lock();
        let entered = Arc::new(AtomicBool::new(false));
        let writer_2 = std::thread::spawn({
            let (rw, entered) = (Arc::clone(&rw), Arc::clone(&entered));
            move || {
                rw.write_lock();
                entered.store(true, Ordering::SeqCst);
                // SAFETY: held.
                unsafe { rw.write_unlock() };
            }
        });
        until(&rw, drain_published);
        resume.send(()).unwrap();
        reader_a.join().unwrap();
        // A took episode 2's cell and signalled it. The writer must wait
        // on a fresh cell, not enter over the reader still inside.
        until(&rw, |rw| {
            entered.load(Ordering::SeqCst) || drain_published(rw)
        });
        let entered_over_reader = entered.load(Ordering::SeqCst);
        // SAFETY: held.
        unsafe { rw.read_unlock() };
        writer_2.join().unwrap();
        assert!(
            !entered_over_reader,
            "a writer entered while a reader held the lock"
        );
        assert!(entered.load(Ordering::SeqCst));
        assert_eq!(rw.active_readers(), 0);
    }

    #[test]
    fn uncontended_read_and_write_round_trip() {
        let rw = RwCrLock::stp();
        for _ in 0..1_000 {
            rw.read_lock();
            // SAFETY: held.
            unsafe { rw.read_unlock() };
            rw.write_lock();
            // SAFETY: held.
            unsafe { rw.write_unlock() };
        }
        let s = rw.stats();
        assert_eq!(s.reader_culls, 0);
        assert_eq!(s.reader_reprovisions, 0);
        assert_eq!(s.write_episodes, 1_000);
    }

    #[test]
    fn two_readers_hold_simultaneously() {
        let rw = Arc::new(RwCrLock::spin());
        let inside = Arc::new(Barrier::new(2));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let rw = Arc::clone(&rw);
            let inside = Arc::clone(&inside);
            handles.push(std::thread::spawn(move || {
                rw.read_lock();
                // Both threads must reach this point while holding the
                // read side; an exclusive lock would deadlock here.
                inside.wait();
                // SAFETY: held.
                unsafe { rw.read_unlock() };
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn writer_excludes_readers_and_writers() {
        let rw = RwCrLock::stp();
        rw.write_lock();
        assert!(!rw.try_read_lock());
        assert!(!rw.try_write_lock());
        // SAFETY: held.
        unsafe { rw.write_unlock() };
        assert!(rw.try_read_lock());
        assert!(!rw.try_write_lock());
        // SAFETY: held.
        unsafe { rw.read_unlock() };
        assert!(rw.try_write_lock());
        // SAFETY: held.
        unsafe { rw.write_unlock() };
    }

    fn hammer_writes(rw: Arc<RwCrLock>, writers: usize, readers: usize, iters: usize) -> u64 {
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..writers {
            let rw = Arc::clone(&rw);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..iters {
                    rw.write_lock();
                    // Non-atomic increment: torn updates would show up
                    // as a wrong final count if exclusion ever broke.
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    // SAFETY: held.
                    unsafe { rw.write_unlock() };
                }
            }));
        }
        for _ in 0..readers {
            let rw = Arc::clone(&rw);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..iters {
                    rw.read_lock();
                    std::hint::black_box(counter.load(Ordering::Relaxed));
                    // SAFETY: held.
                    unsafe { rw.read_unlock() };
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        counter.load(Ordering::SeqCst)
    }

    #[test]
    fn mixed_hammer_spin() {
        let rw = Arc::new(RwCrLock::spin());
        assert_eq!(hammer_writes(Arc::clone(&rw), 4, 4, 1_000), 4_000);
        assert_eq!(rw.passive_readers(), 0);
    }

    #[test]
    fn mixed_hammer_stp() {
        let rw = Arc::new(RwCrLock::stp());
        assert_eq!(hammer_writes(Arc::clone(&rw), 4, 4, 1_000), 4_000);
        assert_eq!(rw.passive_readers(), 0);
    }

    #[test]
    fn grant_accounting_balances_after_quiescence() {
        // A long write section forces arriving readers to passivate.
        let rw = Arc::new(RwCrLock::with_params(
            WaitPolicy::spin_then_park_with(200),
            1_000,
            42,
            2,
        ));
        rw.write_lock();
        let mut handles = Vec::new();
        for _ in 0..6 {
            let rw = Arc::clone(&rw);
            handles.push(std::thread::spawn(move || {
                rw.read_lock();
                // SAFETY: held.
                unsafe { rw.read_unlock() };
            }));
        }
        std::thread::sleep(Duration::from_millis(100));
        // SAFETY: held since before the spawns.
        unsafe { rw.write_unlock() };
        for h in handles {
            h.join().unwrap();
        }
        let s = rw.stats();
        assert!(s.reader_culls >= 1, "readers must be culled: {s:?}");
        assert_eq!(
            s.reader_culls,
            s.reader_reprovisions + s.reader_fairness_grants,
            "every culled reader must be granted exactly once: {s:?}"
        );
        assert_eq!(rw.passive_readers(), 0);
        assert_eq!(rw.active_readers(), 0);
    }

    #[test]
    fn fairness_trigger_grants_eldest() {
        // Period 1: every grant pops the eldest passive reader.
        let rw = Arc::new(RwCrLock::with_params(WaitPolicy::spin(), 1, 9, 4));
        rw.write_lock();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let rw = Arc::clone(&rw);
            handles.push(std::thread::spawn(move || {
                rw.read_lock();
                // SAFETY: held.
                unsafe { rw.read_unlock() };
            }));
        }
        std::thread::sleep(Duration::from_millis(100));
        // SAFETY: held.
        unsafe { rw.write_unlock() };
        for h in handles {
            h.join().unwrap();
        }
        let s = rw.stats();
        assert!(s.reader_culls >= 1, "{s:?}");
        assert_eq!(s.reader_reprovisions, 0, "{s:?}");
        assert_eq!(s.reader_fairness_grants, s.reader_culls, "{s:?}");
    }

    #[test]
    fn a_grant_wakes_the_warmest_reader_and_a_fairness_grant_the_eldest() {
        // A trigger that never fires: the grant reprovisions.
        let rw = RwCrLock::with_params(WaitPolicy::spin(), u64::MAX, 5, 4);
        // Culled in this order: `eldest` first, `warmest` last.
        let [eldest, middle, warmest] = [alloc_node(), alloc_node(), alloc_node()];
        // SAFETY: the test owns every node until it frees them.
        let woken = |n: *mut QNode| unsafe {
            (
                (*n).cell.is_signaled(),
                (*n).slot_granted.load(Ordering::Acquire),
            )
        };
        let mut gate = rw.rside.gate.lock();
        for node in [eldest, middle, warmest] {
            // SAFETY: gate held; the node is live and in no list.
            unsafe { rw.rside.passive.push_head(node) };
        }
        rw.grant(&mut gate, 1);
        assert_eq!(woken(warmest), (true, false));
        assert_eq!(woken(eldest), (false, false));
        assert_eq!(woken(middle), (false, false));
        // Period 1: the grant takes the eldest's slot and wakes it.
        *gate = FairnessTrigger::new(1, 5);
        rw.grant(&mut gate, 1);
        assert_eq!(woken(eldest), (true, true));
        assert_eq!(woken(middle), (false, false));
        assert_eq!(rw.active_readers(), 1);
        let s = rw.stats();
        assert_eq!((s.reader_reprovisions, s.reader_fairness_grants), (1, 1));
        assert_eq!(rw.rside.passive.pop_head(), middle);
        drop(gate);
        // SAFETY: the granted slot is released once; every node is out
        // of the list and was allocated here.
        unsafe {
            rw.read_unlock();
            for node in [eldest, middle, warmest] {
                free_node(node);
            }
        }
    }

    /// Parks six readers behind a held write lock and releases it with
    /// one `write_unlock`; returns how many readers were still passive
    /// when that call returned, once all six have been in and out.
    fn passive_after_one_write_unlock<W: WriterQueue + 'static>(rw: RwCrLock<W>) -> usize {
        let rw = Arc::new(rw);
        rw.write_lock();
        let readers: Vec<_> = (0..6)
            .map(|_| {
                let rw = Arc::clone(&rw);
                std::thread::spawn(move || {
                    rw.read_lock();
                    // SAFETY: held.
                    unsafe { rw.read_unlock() };
                })
            })
            .collect();
        until(&rw, |rw| rw.passive_readers() == 6);
        // SAFETY: held since before the spawns.
        unsafe { rw.write_unlock() };
        let passive = rw.passive_readers();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!((rw.passive_readers(), rw.active_readers()), (0, 0));
        passive
    }

    #[test]
    fn the_mcs_baseline_grants_every_passive_reader_in_one_write_unlock() {
        // The whole batch is granted under the gate before the call
        // returns.
        assert_eq!(passive_after_one_write_unlock(RwCrLock::mcs()), 0);
        // RW-CR with a batch of 2 grants two and leaves the rest to the
        // cascade; every reader still gets in.
        let rw = RwCrLock::with_params(WaitPolicy::spin_then_park(), 1_000, 7, 2);
        assert!(passive_after_one_write_unlock(rw) <= 4);
    }

    #[test]
    fn names_follow_policy() {
        assert_eq!(RwCrLock::spin().name(), "RW-CR-S");
        assert_eq!(RwCrLock::stp().name(), "RW-CR-STP");
        assert_eq!(RwCrLock::new(WaitPolicy::park()).name(), "RW-CR-P");
        assert_eq!(RwCrLock::mcs().name(), "RW-MCS-STP");
    }
}
