//! MCSCRN: NUMA-aware concurrency restriction (§9.1 "Future Work").
//!
//! MCSCRN is the MCS queue [`McsCrLock`](crate::McsCrLock) edits, with
//! a different culling *criterion*: instead of passivating surplus
//! threads generally, the unlock path culls threads that are **remote**
//! — running on a NUMA node other than the currently preferred *home*
//! node — onto an explicit remote list. Periodically the unlock
//! operator selects a new home node from the remote list (the eldest
//! waiter's node, conferring long-term fairness) and drains that node's
//! threads back into the main chain. A deficit on the main chain
//! reprovisions from the remote list, so the policy stays work
//! conserving. Unlike cohort locks, MCSCRN is non-hierarchical: one
//! small fixed-size lock word, no per-node sublocks.
//!
//! Threads declare their NUMA node via
//! [`set_current_numa_node`](crate::set_current_numa_node); a real
//! deployment would sample `getcpu`-style topology information.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, Ordering};

use malthus_park::{WaitPolicy, XorShift64};

use crate::pad::LockCounter;
use crate::policy::{FairnessTrigger, DEFAULT_FAIRNESS_PERIOD};
use crate::queue::McsQueue;
use crate::raw::RawLock;

/// Sentinel meaning "no home node selected yet".
const NO_HOME: u32 = u32::MAX;

/// Counters describing MCSCRN activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NumaStats {
    /// Remote threads culled from the main chain.
    pub remote_culls: u64,
    /// Threads promoted because the main chain drained.
    pub reprovisions: u64,
    /// Home-node rotations (fairness events).
    pub home_rotations: u64,
    /// Threads drained back into the chain by rotations.
    pub drained: u64,
}

/// The MCSCRN NUMA-aware lock.
///
/// # Examples
///
/// ```
/// use malthus::{McsCrnLock, Mutex};
///
/// let m: Mutex<u32, McsCrnLock> = Mutex::with_raw(McsCrnLock::stp(), 0);
/// *m.lock() += 1;
/// ```
pub struct McsCrnLock {
    q: McsQueue<NumaCrState>,
}

/// Holder-only state of an [`McsCrnLock`]; serialized by the lock
/// itself. `home` stays atomic only because [`McsCrnLock::home_node`]
/// reads it without the lock; it is written exclusively by the holder.
struct NumaCrState {
    /// Currently preferred home node ([`NO_HOME`] until first
    /// contended unlock).
    home: AtomicU32,
    /// Rotation Bernoulli trial.
    rotation: UnsafeCell<FairnessTrigger>,
    remote_culls: LockCounter,
    reprovisions: LockCounter,
    home_rotations: LockCounter,
    drained: LockCounter,
}

impl Default for McsCrnLock {
    fn default() -> Self {
        Self::stp()
    }
}

impl McsCrnLock {
    /// Creates an MCSCRN lock with explicit parameters.
    pub fn with_params(policy: WaitPolicy, rotation_period: u64, seed: u64) -> Self {
        let ncr = NumaCrState {
            home: AtomicU32::new(NO_HOME),
            rotation: UnsafeCell::new(FairnessTrigger::new(rotation_period, seed)),
            remote_culls: LockCounter::new(),
            reprovisions: LockCounter::new(),
            home_rotations: LockCounter::new(),
            drained: LockCounter::new(),
        };
        McsCrnLock {
            q: McsQueue::new(ncr, policy),
        }
    }

    /// Creates an MCSCRN lock with the default 1/1000 rotation period.
    pub fn new(policy: WaitPolicy) -> Self {
        Self::with_params(
            policy,
            DEFAULT_FAIRNESS_PERIOD,
            XorShift64::from_entropy().next_u64(),
        )
    }

    /// Unbounded polite spinning variant.
    pub fn spin() -> Self {
        Self::new(WaitPolicy::spin())
    }

    /// Spin-then-park variant.
    pub fn stp() -> Self {
        Self::new(WaitPolicy::spin_then_park())
    }

    /// The currently preferred home NUMA node, if any.
    pub fn home_node(&self) -> Option<u32> {
        match self.q.state().home.load(Ordering::Relaxed) {
            NO_HOME => None,
            n => Some(n),
        }
    }

    /// Snapshot of NUMA-CR counters.
    ///
    /// Same raciness contract as
    /// [`McsCrLock::cr_stats`](crate::McsCrLock::cr_stats): tear-free
    /// but possibly lagging in-flight unlocks; cross-counter balance
    /// holds once the lock is quiescent.
    pub fn numa_stats(&self) -> NumaStats {
        let ncr = self.q.state();
        NumaStats {
            remote_culls: ncr.remote_culls.get(),
            reprovisions: ncr.reprovisions.get(),
            home_rotations: ncr.home_rotations.get(),
            drained: ncr.drained.get(),
        }
    }
}

// SAFETY: as for MCSCR — classic MCS arrivals; all edits under the
// lock; every waiter signalled exactly once (normal handoff, cull →
// reprovision/drain).
unsafe impl RawLock for McsCrnLock {
    fn lock(&self) {
        self.q.lock();
    }

    fn try_lock(&self) -> bool {
        self.q.try_lock()
    }

    unsafe fn unlock(&self) {
        // SAFETY: caller holds the lock; fields below lock-protected.
        unsafe {
            let me = self.q.owner();
            let ncr = self.q.state();
            // The passive list holds the remote (culled) threads.
            let remote = &mut *self.q.passive();

            // Adopt a home node lazily: the first contended unlock
            // anoints the owner's node.
            if ncr.home.load(Ordering::Relaxed) == NO_HOME {
                ncr.home.store((*me).numa.get(), Ordering::Relaxed);
            }

            // Periodic rotation: pick the eldest remote waiter's node
            // as the new home and drain that node's threads back.
            if !remote.is_empty() && (*ncr.rotation.get()).fire() {
                let new_home = (*remote.tail_node()).numa.get();
                ncr.home.store(new_home, Ordering::Relaxed);
                ncr.home_rotations.bump();

                // Collect matching nodes eldest-first and unlink them.
                let mut matches = Vec::new();
                remote.for_each_from_tail(|n| {
                    if (*n).numa.get() == new_home {
                        matches.push(n);
                    }
                });
                for &n in &matches {
                    remote.unlink(n);
                }
                ncr.drained.add(matches.len() as u64);
                // Link them into a chain: eldest first.
                for pair in matches.windows(2) {
                    (*pair[0]).next.store(pair[1], Ordering::Relaxed);
                }
                // The eldest itself matches, so the chain is not empty.
                self.q.graft(me, matches[0], matches[matches.len() - 1]);
                return;
            }

            // Work conservation: reprovision from the remote list.
            let Some(mut succ) = self.q.successor(me, |warm| {
                ncr.reprovisions.bump();
                // The newcomer's node becomes the de-facto home.
                ncr.home.store((*warm).numa.get(), Ordering::Relaxed);
            }) else {
                return;
            };

            // NUMA culling: if the successor is remote *and* not the
            // tail (work conservation needs somebody left), cull it.
            if (*succ).numa.get() != ncr.home.load(Ordering::Relaxed) {
                if let Some(next) = self.q.cull(succ) {
                    succ = next;
                    ncr.remote_culls.bump();
                }
            }

            self.q.grant(me, succ);
        }
    }

    fn name(&self) -> &'static str {
        self.q.name(["MCSCRN-S", "MCSCRN-STP", "MCSCRN-P"])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::set_current_numa_node;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn hammer_numa(lock: Arc<McsCrnLock>, threads: usize, nodes: u32, iters: usize) -> u64 {
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..threads {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                set_current_numa_node(t as u32 % nodes);
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
    fn mutual_exclusion_two_nodes() {
        let lock = Arc::new(McsCrnLock::stp());
        assert_eq!(hammer_numa(lock, 8, 2, 2_000), 16_000);
    }

    /// Adopts home node 0, holds the lock while `n` remote (node 1)
    /// waiters enqueue, then releases and joins them.
    fn run_with_remote_waiters(lock: Arc<McsCrnLock>, n: usize) {
        set_current_numa_node(0);
        // Adopt node 0 as home.
        lock.lock();
        // SAFETY: held.
        unsafe { lock.unlock() };

        lock.lock();
        let mut handles = Vec::new();
        for _ in 0..n {
            let lock = Arc::clone(&lock);
            handles.push(std::thread::spawn(move || {
                set_current_numa_node(1);
                lock.lock();
                // SAFETY: we hold the lock.
                unsafe { lock.unlock() };
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
        // SAFETY: held since before the spawns.
        unsafe { lock.unlock() };
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn remote_waiters_are_culled_deterministically() {
        // Rotation period is astronomically high: only culling and
        // reprovisioning can move threads.
        let lock = Arc::new(McsCrnLock::with_params(WaitPolicy::spin(), 1_000_000, 9));
        run_with_remote_waiters(Arc::clone(&lock), 3);
        let stats = lock.numa_stats();
        assert!(
            stats.remote_culls >= 1,
            "remote successor with surplus must be culled: {stats:?}"
        );
        assert_eq!(
            stats.remote_culls,
            stats.reprovisions + stats.drained,
            "culled remotes must all be promoted: {stats:?}"
        );
    }

    #[test]
    fn rotation_drains_new_home_node() {
        // Period 1: the first unlock with a non-empty remote list
        // rotates the home node and drains the eldest's node.
        let lock = Arc::new(McsCrnLock::with_params(WaitPolicy::spin(), 1, 13));
        run_with_remote_waiters(Arc::clone(&lock), 3);
        let stats = lock.numa_stats();
        assert!(stats.home_rotations >= 1, "{stats:?}");
        assert!(stats.drained >= 1, "{stats:?}");
        assert_eq!(lock.home_node(), Some(1), "home must follow the drain");
    }

    #[test]
    fn single_node_behaves_like_mcs() {
        let lock = Arc::new(McsCrnLock::spin());
        hammer_numa(Arc::clone(&lock), 4, 1, 2_000);
        let stats = lock.numa_stats();
        assert_eq!(stats.remote_culls, 0, "same-node threads are never remote");
    }

    #[test]
    fn home_is_adopted_lazily() {
        let l = McsCrnLock::stp();
        assert_eq!(l.home_node(), None);
        l.lock();
        // SAFETY: held.
        unsafe { l.unlock() };
        assert_eq!(l.home_node(), Some(0));
    }

    #[test]
    fn try_lock_round_trip() {
        let l = McsCrnLock::spin();
        assert!(l.try_lock());
        assert!(!l.try_lock());
        // SAFETY: held.
        unsafe { l.unlock() };
    }
}
