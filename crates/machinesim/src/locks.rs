//! Queue-level models of the evaluated lock admission policies.
//!
//! The simulator re-expresses each lock as a policy over an explicit
//! waiter queue. Its MCSCR release calls `malthus::policy::release`,
//! the same function `McsCrLock::unlock` calls, so it makes the live
//! lock's decisions in the live lock's order — the Bernoulli fairness
//! graft, work-conserving reprovisioning, culling (one surplus waiter
//! per release), else the hand-off. What the simulator omits is the
//! memory-level mechanics (CAS races, chain links); what it keeps is
//! the admission order, which is what the paper's metrics measure.

use std::collections::VecDeque;

use malthus::policy::{self, FairnessTrigger, Release};

/// Simulator thread identifier.
pub type ThreadId = usize;

/// How waiters on this lock wait (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitMode {
    /// Unbounded polite spinning (`-S`).
    Spin,
    /// Spin for the machine's budget, then park (`-STP`).
    SpinThenPark,
    /// Park immediately.
    Park,
}

/// Which admission policy the lock uses.
#[derive(Debug)]
pub enum LockKind {
    /// Degenerate no-op lock (the paper's `null`): never blocks,
    /// provides no exclusion. Only valid for trivial workloads.
    Null,
    /// Strict-FIFO direct-handoff queue (classic MCS).
    Fifo,
    /// MCSCR: FIFO queue plus culling/reprovision/fairness editing.
    Cr {
        /// The Bernoulli fairness trial (default period 1000).
        fairness: FairnessTrigger,
    },
}

/// CR activity counters (mirrors `malthus::CrStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimLockStats {
    /// Surplus waiters moved to the passive list.
    pub culls: u64,
    /// Passive threads promoted on queue drain.
    pub reprovisions: u64,
    /// Fairness promotions of the eldest passive thread.
    pub fairness_grants: u64,
}

/// One simulated lock instance.
#[derive(Debug)]
pub struct SimLock {
    kind: LockKind,
    /// How its waiters wait.
    pub wait_mode: WaitMode,
    held: bool,
    /// Main queue; front = next in FIFO order.
    queue: VecDeque<ThreadId>,
    /// Passive list; front = most recently culled ("warm"), back =
    /// eldest.
    passive: VecDeque<ThreadId>,
    /// Admission history (thread ids, in grant order).
    admissions: Vec<u32>,
    stats: SimLockStats,
}

/// Result of an arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// The lock was free; the arriver now holds it.
    Granted,
    /// The arriver joined the waiters.
    Enqueued,
}

impl SimLock {
    /// Creates a free lock.
    pub fn new(kind: LockKind, wait_mode: WaitMode) -> Self {
        SimLock {
            kind,
            wait_mode,
            held: false,
            queue: VecDeque::new(),
            passive: VecDeque::new(),
            admissions: Vec::new(),
            stats: SimLockStats::default(),
        }
    }

    /// Whether the lock is currently held.
    pub fn is_held(&self) -> bool {
        self.held
    }

    /// Number of threads waiting (main queue + passive list).
    pub fn waiters(&self) -> usize {
        self.queue.len() + self.passive.len()
    }

    /// Number of passivated threads.
    pub fn passive_len(&self) -> usize {
        self.passive.len()
    }

    /// The admission history so far.
    pub fn admissions(&self) -> &[u32] {
        &self.admissions
    }

    /// CR activity counters.
    pub fn stats(&self) -> SimLockStats {
        self.stats
    }

    /// A thread arrives at the lock.
    pub fn arrive(&mut self, t: ThreadId) -> Arrival {
        if matches!(self.kind, LockKind::Null) {
            // Degenerate: always grant, never track.
            self.admissions.push(t as u32);
            return Arrival::Granted;
        }
        if !self.held {
            debug_assert!(self.queue.is_empty() && self.passive.is_empty());
            self.held = true;
            self.admissions.push(t as u32);
            return Arrival::Granted;
        }
        self.queue.push_back(t);
        Arrival::Enqueued
    }

    /// The holder releases; returns the next owner if any.
    ///
    /// For CR kinds this is where queue editing happens, mirroring the
    /// MCSCR unlock path (§4).
    pub fn release(&mut self) -> Option<ThreadId> {
        let next = match &mut self.kind {
            LockKind::Null => return None,
            LockKind::Fifo => self.queue.pop_front(),
            LockKind::Cr { fairness } => {
                let queue = &self.queue;
                match policy::release(
                    self.passive.len(),
                    fairness,
                    || queue.front().copied(),
                    |_| queue.len() > 1,
                ) {
                    Release::GraftEldest => {
                        self.stats.fairness_grants += 1;
                        self.passive.pop_back()
                    }
                    Release::Reprovision => {
                        self.stats.reprovisions += 1;
                        self.passive.pop_front()
                    }
                    Release::Cull(succ) => {
                        // Passivate the longest waiter and grant the next
                        // one, as MCSCR excises the first intermediate
                        // node.
                        self.queue.pop_front();
                        self.passive.push_front(succ);
                        self.stats.culls += 1;
                        self.queue.pop_front()
                    }
                    Release::Handoff(_) => self.queue.pop_front(),
                }
            }
        };
        debug_assert!(self.held, "release of an unheld SimLock");
        match next {
            Some(t) => self.admissions.push(t as u32),
            None => self.held = false,
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cr_lock(period: u64) -> SimLock {
        SimLock::new(
            LockKind::Cr {
                fairness: FairnessTrigger::new(period, 42),
            },
            WaitMode::SpinThenPark,
        )
    }

    #[test]
    fn free_lock_grants_immediately() {
        let mut l = SimLock::new(LockKind::Fifo, WaitMode::Spin);
        assert_eq!(l.arrive(1), Arrival::Granted);
        assert!(l.is_held());
        assert_eq!(l.release(), None);
        assert!(!l.is_held());
    }

    #[test]
    fn fifo_grants_in_arrival_order() {
        let mut l = SimLock::new(LockKind::Fifo, WaitMode::Spin);
        l.arrive(0);
        assert_eq!(l.arrive(1), Arrival::Enqueued);
        l.arrive(2);
        l.arrive(3);
        assert_eq!(l.release(), Some(1));
        assert_eq!(l.release(), Some(2));
        assert_eq!(l.release(), Some(3));
        assert_eq!(l.release(), None);
        assert_eq!(l.admissions(), &[0, 1, 2, 3]);
    }

    #[test]
    fn cr_culls_surplus_and_stays_work_conserving() {
        let mut l = cr_lock(1_000_000);
        l.arrive(0);
        l.arrive(1);
        l.arrive(2);
        l.arrive(3);
        // Queue [1, 2, 3]: surplus → cull 1, grant 2.
        assert_eq!(l.release(), Some(2));
        assert_eq!(l.passive_len(), 1);
        assert_eq!(l.stats().culls, 1);
        // Queue [3]: no surplus → grant 3.
        assert_eq!(l.release(), Some(3));
        // Queue empty, passive [1] → reprovision 1.
        assert_eq!(l.release(), Some(1));
        assert_eq!(l.stats().reprovisions, 1);
        assert_eq!(l.release(), None);
        assert!(!l.is_held());
    }

    #[test]
    fn cr_steady_state_acs_is_small() {
        // 8 threads; each grant is followed by a re-arrival (saturated
        // lock). After warmup the same couple of threads circulate.
        let mut l = cr_lock(1_000_000);
        assert_eq!(l.arrive(0), Arrival::Granted);
        for t in 1..8 {
            l.arrive(t);
        }
        let mut current = 0;
        for _ in 0..10_000 {
            let next = l.release().expect("work conserving under load");
            l.arrive(current); // previous owner circulates back
            current = next;
        }
        let history = l.admissions();
        let tail = &history[history.len() - 1000..];
        let distinct: std::collections::HashSet<_> = tail.iter().collect();
        assert!(
            distinct.len() <= 3,
            "steady-state ACS should be minimal, got {}",
            distinct.len()
        );
    }

    #[test]
    fn cr_fairness_promotes_eldest() {
        let mut l = cr_lock(1); // fires every release
        l.arrive(0);
        l.arrive(1);
        l.arrive(2);
        l.arrive(3);
        // First release: passive empty → normal path with cull of 1.
        assert_eq!(l.release(), Some(2));
        // Passive [1]; fairness fires → eldest (1) is granted.
        assert_eq!(l.release(), Some(1));
        assert_eq!(l.stats().fairness_grants, 1);
    }

    #[test]
    fn null_lock_never_blocks() {
        let mut l = SimLock::new(LockKind::Null, WaitMode::Spin);
        assert_eq!(l.arrive(0), Arrival::Granted);
        assert_eq!(l.arrive(1), Arrival::Granted);
        assert_eq!(l.release(), None);
        assert_eq!(l.admissions().len(), 2);
    }

    #[test]
    fn admissions_record_every_grant() {
        let mut l = cr_lock(1_000_000);
        l.arrive(0);
        for t in 1..5 {
            l.arrive(t);
        }
        let mut grants = 1; // thread 0's arrival grant
        while let Some(_t) = l.release() {
            grants += 1;
        }
        assert_eq!(l.admissions().len(), grants);
        assert_eq!(grants, 5);
    }
}
