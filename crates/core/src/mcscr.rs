//! MCSCR: the Malthusian MCS lock with concurrency restriction (§4).
//!
//! MCSCR is the MCS queue ([`McsLock`](crate::McsLock)'s) under a
//! policy whose *unlock* path edits the queue:
//!
//! * **Culling** — if nodes exist strictly between the owner's node and
//!   the tail, the queue holds surplus threads; one is excised per
//!   unlock and pushed onto the head of an explicit *passive list*
//!   where it remains quiesced (spinning politely or parked, per the
//!   waiting policy).
//! * **Reprovisioning** — if the queue would go empty while passive
//!   threads exist, the head of the passive list (the most recently
//!   passivated, hence warmest, thread) is re-inserted and granted the
//!   lock, keeping the admission policy work conserving.
//! * **Long-term fairness** — with probability `1/period` per unlock
//!   (default 1/1000, via a Marsaglia xorshift Bernoulli trial), the
//!   *tail* of the passive list — the least recently arrived thread —
//!   is grafted into the chain immediately after the owner and granted
//!   the lock.
//!
//! The lock-acquire path is exactly classic MCS; all CR manipulations
//! happen while holding the lock, so the passive list is protected by
//! the lock itself. Absent contention MCSCR behaves precisely like MCS.

use std::cell::UnsafeCell;

use malthus_obs::{record, EventKind};
use malthus_park::{WaitPolicy, XorShift64};

use crate::pad::LockCounter;
use crate::policy::{FairnessTrigger, DEFAULT_FAIRNESS_PERIOD};
use crate::queue::McsQueue;
use crate::raw::RawLock;

/// Monotonic counters describing CR activity on one lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrStats {
    /// Nodes excised from the main chain into the passive list.
    pub culls: u64,
    /// Passive threads promoted because the main queue drained.
    pub reprovisions: u64,
    /// Passive-tail promotions from the fairness Bernoulli trial.
    pub fairness_grants: u64,
}

/// The MCSCR lock: MCS with concurrency restriction.
///
/// # Examples
///
/// ```
/// use malthus::{McsCrLock, Mutex};
///
/// // MCSCR-STP: the paper's best-performing configuration.
/// let m: Mutex<u64, McsCrLock> = Mutex::with_raw(McsCrLock::stp(), 0);
/// *m.lock() += 1;
/// assert_eq!(*m.lock(), 1);
/// ```
pub struct McsCrLock {
    q: McsQueue<CrState>,
}

/// Holder-only state of an [`McsCrLock`]; serialized by the lock
/// itself (§4: "the MCS lock protects the excess list").
struct CrState {
    /// Fairness Bernoulli trial state.
    fairness: UnsafeCell<FairnessTrigger>,
    culls: LockCounter,
    reprovisions: LockCounter,
    fairness_grants: LockCounter,
}

impl Default for McsCrLock {
    fn default() -> Self {
        Self::stp()
    }
}

impl McsCrLock {
    /// Creates an MCSCR lock with explicit policy, fairness period and
    /// PRNG seed.
    pub fn with_params(policy: WaitPolicy, fairness_period: u64, seed: u64) -> Self {
        let cr = CrState {
            fairness: UnsafeCell::new(FairnessTrigger::new(fairness_period, seed)),
            culls: LockCounter::new(),
            reprovisions: LockCounter::new(),
            fairness_grants: LockCounter::new(),
        };
        McsCrLock {
            q: McsQueue::new(cr, policy),
        }
    }

    /// Creates an MCSCR lock with the given waiting policy and the
    /// paper's default 1/1000 fairness period.
    pub fn new(policy: WaitPolicy) -> Self {
        Self::with_params(
            policy,
            DEFAULT_FAIRNESS_PERIOD,
            XorShift64::from_entropy().next_u64(),
        )
    }

    /// `MCSCR-S`: unbounded polite spinning.
    pub fn spin() -> Self {
        Self::new(WaitPolicy::spin())
    }

    /// `MCSCR-STP`: spin-then-park (the paper's preferred form).
    pub fn stp() -> Self {
        Self::new(WaitPolicy::spin_then_park())
    }

    /// Number of threads currently quiesced in the passive set.
    ///
    /// Exact only when sampled by the lock holder; racy otherwise.
    pub fn passive_len(&self) -> usize {
        // SAFETY: reading a usize is fine for a diagnostic; the value
        // may be stale but never tears on supported platforms. We
        // still go through the UnsafeCell pointer read.
        unsafe { (*self.q.passive()).len() }
    }

    /// Snapshot of CR activity counters.
    ///
    /// **Raciness contract:** the counters are written only while the
    /// lock is held (plain stores, no atomic RMWs), so a snapshot taken
    /// while other threads contend may lag in-flight unlocks and may
    /// observe the three counters at slightly different instants.
    /// Individual values never tear. Invariants that span counters
    /// (e.g. `culls == reprovisions + fairness_grants`) are only
    /// guaranteed to balance once the lock is quiescent — after all
    /// contending threads have been joined.
    pub fn cr_stats(&self) -> CrStats {
        let cr = self.q.state();
        CrStats {
            culls: cr.culls.get(),
            reprovisions: cr.reprovisions.get(),
            fairness_grants: cr.fairness_grants.get(),
        }
    }

    /// The flight-recorder identity of this lock instance: its
    /// address, stable for the lock's lifetime.
    fn id(&self) -> u64 {
        self as *const Self as usize as u64
    }
}

// SAFETY: arrivals follow the classic MCS protocol. Every queue edit
// in `unlock` happens while holding the lock, and each waiting node is
// signalled exactly once across all paths (normal handoff, cull →
// later reprovision/graft, fairness graft), so mutual exclusion and
// liveness are preserved.
unsafe impl RawLock for McsCrLock {
    fn lock(&self) {
        self.q.lock();
    }

    fn try_lock(&self) -> bool {
        self.q.try_lock()
    }

    unsafe fn unlock(&self) {
        // SAFETY: caller holds the lock; all fields below are
        // lock-protected.
        unsafe {
            let me = self.q.owner();
            let cr = self.q.state();
            let passive = &mut *self.q.passive();

            // Long-term fairness: occasionally cede to the eldest
            // passivated thread (the passive tail).
            if !passive.is_empty() && (*cr.fairness.get()).fire() {
                let eldest = passive.pop_tail();
                cr.fairness_grants.bump();
                record(EventKind::LockFairnessGrant, self.id(), 0);
                self.q.graft(me, eldest, eldest);
                return;
            }

            let Some(mut succ) = self.q.successor(me, |_| {
                cr.reprovisions.bump();
                record(EventKind::LockReprovision, self.id(), 0);
            }) else {
                return;
            };

            // Culling: if `succ` is not the tail there is at least one
            // node beyond it, i.e. surplus. Excise one node per unlock.
            if let Some(next) = self.q.cull(succ) {
                succ = next;
                cr.culls.bump();
                record(EventKind::LockCull, self.id(), 0);
            }

            record(EventKind::LockHandoff, self.id(), 0);
            self.q.grant(me, succ);
        }
    }

    fn name(&self) -> &'static str {
        self.q.name(["MCSCR-S", "MCSCR-STP", "MCSCR-P"])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn hammer(lock: Arc<McsCrLock>, threads: usize, iters: usize) -> u64 {
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..threads {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..iters {
                    lock.lock();
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    // SAFETY: we hold the lock.
                    unsafe { lock.unlock() };
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        counter.load(Ordering::SeqCst)
    }

    #[test]
    fn mutual_exclusion_spin() {
        assert_eq!(hammer(Arc::new(McsCrLock::spin()), 8, 2_000), 16_000);
    }

    #[test]
    fn mutual_exclusion_stp() {
        assert_eq!(hammer(Arc::new(McsCrLock::stp()), 8, 2_000), 16_000);
    }

    #[test]
    fn all_threads_finish_with_aggressive_fairness() {
        // Period 2: fairness grants fire constantly, exercising the
        // graft paths.
        let lock = Arc::new(McsCrLock::with_params(
            WaitPolicy::spin_then_park_with(200),
            2,
            7,
        ));
        assert_eq!(hammer(lock, 8, 1_000), 8_000);
    }

    /// Holds the lock while `n` waiter threads enqueue, then releases
    /// and joins them, returning the lock for inspection.
    fn run_with_queued_waiters(lock: Arc<McsCrLock>, n: usize) {
        lock.lock();
        let mut handles = Vec::new();
        for _ in 0..n {
            let lock = Arc::clone(&lock);
            handles.push(std::thread::spawn(move || {
                lock.lock();
                // SAFETY: we hold the lock.
                unsafe { lock.unlock() };
            }));
        }
        // Give the waiters ample time to enqueue behind us.
        std::thread::sleep(std::time::Duration::from_millis(100));
        // SAFETY: held since before the spawns.
        unsafe { lock.unlock() };
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn culling_happens_with_queued_surplus() {
        // Deterministic queue shape: owner + 3 waiters. The first
        // unlock must find intermediates and cull exactly one; the
        // drain then reprovisions it. (Fairness period is high and the
        // seed fixed, so trials do not interfere.)
        let lock = Arc::new(McsCrLock::with_params(WaitPolicy::spin(), 1_000_000, 3));
        run_with_queued_waiters(Arc::clone(&lock), 3);
        let stats = lock.cr_stats();
        assert!(stats.culls >= 1, "surplus must be culled: {stats:?}");
        // Conservation: every culled thread was eventually promoted.
        assert_eq!(
            stats.culls,
            stats.reprovisions + stats.fairness_grants,
            "promotions must balance culls: {stats:?}"
        );
        assert_eq!(lock.passive_len(), 0, "no thread may remain passivated");
    }

    #[test]
    fn fairness_grant_promotes_eldest_deterministically() {
        // Period 1: every unlock with a non-empty passive set promotes
        // the passive tail.
        let lock = Arc::new(McsCrLock::with_params(WaitPolicy::spin(), 1, 17));
        run_with_queued_waiters(Arc::clone(&lock), 3);
        let stats = lock.cr_stats();
        assert!(stats.culls >= 1, "{stats:?}");
        assert!(stats.fairness_grants >= 1, "{stats:?}");
        assert_eq!(stats.culls, stats.reprovisions + stats.fairness_grants);
        assert_eq!(lock.passive_len(), 0);
    }

    #[test]
    fn uncontended_behaves_like_mcs() {
        let l = McsCrLock::stp();
        for _ in 0..1_000 {
            l.lock();
            // SAFETY: held.
            unsafe { l.unlock() };
        }
        let stats = l.cr_stats();
        assert_eq!(stats.culls, 0);
        assert_eq!(stats.reprovisions, 0);
        assert_eq!(stats.fairness_grants, 0);
    }

    #[test]
    fn try_lock_round_trip() {
        let l = McsCrLock::spin();
        assert!(l.try_lock());
        assert!(!l.try_lock());
        // SAFETY: held.
        unsafe { l.unlock() };
        assert!(l.try_lock());
        // SAFETY: held.
        unsafe { l.unlock() };
    }

    #[test]
    fn names_follow_policy() {
        assert_eq!(McsCrLock::spin().name(), "MCSCR-S");
        assert_eq!(McsCrLock::stp().name(), "MCSCR-STP");
    }
}
