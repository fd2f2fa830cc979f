//! Classic MCS queue lock (Mellor-Crummey & Scott, 1991).
//!
//! Arriving threads append a node to an explicit queue and spin (or
//! spin-then-park) on a flag local to their own node; the unlock path
//! hands ownership directly to the successor. MCS is the paper's
//! strict-FIFO / direct-handoff / local-spinning baseline, evaluated as
//! `MCS-S` (unbounded polite spinning) and `MCS-STP` (spin-then-park).
//! §5.1 explains why `MCS-STP` performs poorly: the next thread to be
//! granted the lock is the one that has waited longest and is thus the
//! most likely to have parked, so handovers eat context-switch
//! latencies inside the effective critical section.
//!
//! MCS is the policy of the shared MCS queue that never edits it;
//! [`McsCrLock`](crate::McsCrLock) and [`McsCrnLock`](crate::McsCrnLock)
//! edit the same queue.

use malthus_park::WaitPolicy;

use crate::queue::McsQueue;
use crate::raw::RawLock;

/// A classic MCS lock, parameterized by waiting policy.
///
/// # Examples
///
/// ```
/// use malthus::{McsLock, Mutex};
/// use malthus_park::WaitPolicy;
///
/// let spin: Mutex<u32, McsLock> = Mutex::with_raw(McsLock::new(WaitPolicy::spin()), 0);
/// let stp: Mutex<u32, McsLock> = Mutex::with_raw(McsLock::stp(), 0);
/// *spin.lock() += 1;
/// *stp.lock() += 1;
/// ```
pub struct McsLock {
    q: McsQueue<()>,
}

impl Default for McsLock {
    fn default() -> Self {
        Self::stp()
    }
}

impl McsLock {
    /// Creates an unlocked MCS lock with the given waiting policy.
    pub fn new(policy: WaitPolicy) -> Self {
        McsLock {
            q: McsQueue::new((), policy),
        }
    }

    /// `MCS-S`: unbounded polite spinning.
    pub fn spin() -> Self {
        Self::new(WaitPolicy::spin())
    }

    /// `MCS-STP`: spin-then-park with the paper's default budget.
    pub fn stp() -> Self {
        Self::new(WaitPolicy::spin_then_park())
    }

    /// Returns `true` if any thread holds or waits for the lock.
    pub fn is_contended_or_held(&self) -> bool {
        !self.q.is_idle()
    }
}

// SAFETY: the tail swap totally orders arrivals; each waiter is
// released exactly once by its predecessor's unlock, so a single
// thread holds the lock at any time. Release/acquire edges come from
// the tail swap/CAS and the wait-cell signal.
unsafe impl RawLock for McsLock {
    fn lock(&self) {
        self.q.lock();
    }

    fn try_lock(&self) -> bool {
        self.q.try_lock()
    }

    unsafe fn unlock(&self) {
        // SAFETY: caller holds the lock. MCS never culls, so nothing
        // is ever reprovisioned: the successor is granted as is.
        unsafe {
            let me = self.q.owner();
            if let Some(succ) = self.q.successor(me, |_| {}) {
                self.q.grant(me, succ);
            }
        }
    }

    fn name(&self) -> &'static str {
        self.q.name(["MCS-S", "MCS-STP", "MCS-P"])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn hammer(lock: Arc<McsLock>, threads: usize, iters: usize) -> u64 {
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
        assert_eq!(hammer(Arc::new(McsLock::spin()), 8, 2_000), 16_000);
    }

    #[test]
    fn mutual_exclusion_stp() {
        assert_eq!(hammer(Arc::new(McsLock::stp()), 8, 2_000), 16_000);
    }

    #[test]
    fn mutual_exclusion_pure_park() {
        assert_eq!(
            hammer(Arc::new(McsLock::new(WaitPolicy::park())), 4, 500),
            2_000
        );
    }

    #[test]
    fn sequential_uncontended() {
        let l = McsLock::stp();
        for _ in 0..1_000 {
            l.lock();
            // SAFETY: held.
            unsafe { l.unlock() };
        }
        assert!(!l.is_contended_or_held());
    }

    #[test]
    fn try_lock_semantics() {
        let l = McsLock::spin();
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
        assert_eq!(McsLock::spin().name(), "MCS-S");
        assert_eq!(McsLock::stp().name(), "MCS-STP");
        assert_eq!(McsLock::new(WaitPolicy::park()).name(), "MCS-P");
    }

    #[test]
    fn contended_handoff_two_threads() {
        // Force genuine handoffs by holding the lock while the other
        // thread arrives.
        let l = Arc::new(McsLock::stp());
        let l2 = Arc::clone(&l);
        l.lock();
        let h = std::thread::spawn(move || {
            l2.lock();
            // SAFETY: held.
            unsafe { l2.unlock() };
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        // SAFETY: held since before the spawn.
        unsafe { l.unlock() };
        h.join().unwrap();
    }
}
