//! Per-waiter wait cells and waiting policies.
//!
//! Queue locks (MCS, MCSCR, RW-CR's passive readers) have each
//! waiter busy-wait on a *local* flag that the unlock path eventually
//! sets. [`WaitCell`] packages that flag together with the waiting
//! thread's [`Unparker`](crate::Unparker) so that a single cell
//! supports all three waiting policies from the paper's §5.1:
//! unbounded polite spinning, spin-then-park, and immediate parking.
//!
//! # Ownership protocol
//!
//! A cell is created by the thread that will wait on it, *before* the
//! cell is published (enqueued); the creator's unpark handle is
//! captured at construction. Exactly one other thread may call
//! [`WaitCell::signal`] exactly once. The signaller clones the unpark
//! handle *before* publishing the signalled state, so it never touches
//! the cell after the waiter has been released — the cell may live on
//! the waiter's stack.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::parker::{Parker, Unparker};
use crate::spin::{cpu_relax, SpinThenYield};
use crate::stats;

thread_local! {
    static THREAD_PARKER: Parker = Parker::new();
}

/// Returns an unpark handle for the calling thread's thread-local
/// parker.
pub(crate) fn current_unparker() -> Unparker {
    THREAD_PARKER.with(|p| p.unparker())
}

/// Parks the calling thread on its thread-local parker.
fn park_current() {
    THREAD_PARKER.with(|p| p.park());
}

/// The waiter has not been released and is spinning.
const WAITING: u32 = 0;
/// The waiter has been released.
const SIGNALED: u32 = 1;
/// The waiter has exhausted its spin budget and parked.
const PARKED: u32 = 2;

/// The default spin budget for spin-then-park waiting.
///
/// The paper sets the maximum spin duration to roughly one
/// context-switch round trip, empirically ~20 000 cycles on its T5
/// system (§5.1). We use the same figure in loop iterations; each
/// iteration executes one polite pause.
pub const DEFAULT_SPIN_CYCLES: u32 = 20_000;

/// How a thread waits for its cell to be signalled (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitPolicy {
    /// Unbounded polite spinning (the paper's `-S` lock variants).
    Spin,
    /// Spin for a bounded budget, then park (the `-STP` variants).
    SpinThenPark {
        /// Spin budget in polite-pause iterations.
        spin_iterations: u32,
    },
    /// Park immediately without spinning.
    Park,
}

impl WaitPolicy {
    /// Unbounded polite spinning.
    pub const fn spin() -> Self {
        WaitPolicy::Spin
    }

    /// Spin-then-park with the paper's default ~20 k-cycle budget.
    pub const fn spin_then_park() -> Self {
        WaitPolicy::SpinThenPark {
            spin_iterations: DEFAULT_SPIN_CYCLES,
        }
    }

    /// Spin-then-park with an explicit budget.
    pub const fn spin_then_park_with(spin_iterations: u32) -> Self {
        WaitPolicy::SpinThenPark { spin_iterations }
    }

    /// Immediate parking.
    pub const fn park() -> Self {
        WaitPolicy::Park
    }
}

/// How a completed wait was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome {
    /// The signal arrived during the spin phase.
    Spun,
    /// The waiter parked at least once before being released.
    Parked,
}

/// A single-use wait flag bound to the creating thread.
///
/// See the module documentation for the ownership protocol.
pub struct WaitCell {
    state: AtomicU32,
    unparker: Unparker,
    #[cfg(debug_assertions)]
    owner: std::thread::ThreadId,
}

impl Default for WaitCell {
    fn default() -> Self {
        Self::new()
    }
}

impl WaitCell {
    /// Creates a cell owned by the calling thread.
    pub fn new() -> Self {
        WaitCell {
            state: AtomicU32::new(WAITING),
            unparker: current_unparker(),
            #[cfg(debug_assertions)]
            owner: std::thread::current().id(),
        }
    }

    /// Returns `true` if the cell has been signalled.
    pub fn is_signaled(&self) -> bool {
        self.state.load(Ordering::Acquire) == SIGNALED
    }

    /// Returns `true` if the owner has parked on this cell.
    ///
    /// The unlock paths use this to prefer handing ownership to a
    /// *spinning* successor, which is far cheaper to release than a
    /// fully parked one (§5.1).
    pub fn is_parked(&self) -> bool {
        self.state.load(Ordering::Acquire) == PARKED
    }

    /// Releases the waiting thread.
    ///
    /// Must be called at most once per cell. The unpark handle is
    /// cloned before the release is published, so this method never
    /// dereferences the cell after the waiter may have resumed; the
    /// cell may therefore live on the waiter's stack.
    pub fn signal(&self) {
        // Clone while the waiter is still guaranteed captive: `wait`
        // cannot return before observing SIGNALED, which we have not
        // yet published.
        let unparker = self.unparker.clone();
        if self.state.swap(SIGNALED, Ordering::AcqRel) == PARKED {
            unparker.unpark();
        }
        // `self` must not be touched past this point.
    }

    /// Waits until [`WaitCell::signal`] is called, per `policy`.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if called from a thread other than the
    /// one that created the cell.
    pub fn wait(&self, policy: WaitPolicy) -> WaitOutcome {
        #[cfg(debug_assertions)]
        {
            assert_eq!(
                self.owner,
                std::thread::current().id(),
                "WaitCell::wait must be called by the creating thread"
            );
        }
        match policy {
            WaitPolicy::Spin => {
                // "Unbounded polite spinning" still yields once the
                // pause budget is spent so an oversubscribed host (or
                // single-CPU CI) can schedule the signaller.
                let mut spin = SpinThenYield::new();
                while self.state.load(Ordering::Acquire) != SIGNALED {
                    spin.pause();
                }
                WaitOutcome::Spun
            }
            WaitPolicy::SpinThenPark { spin_iterations } => {
                // The paper calibrates the spin budget to roughly one
                // context-switch round trip (§5.1). We pause politely
                // for the budget (capped at SPIN_YIELD_BUDGET — beyond
                // that a pause loop far exceeds a switch round trip),
                // then yield a few times: a yield that actually
                // switches has already paid the cost parking would
                // amortize, and on an oversubscribed host it is the
                // only way the signaller can run at all. Only then
                // park.
                const YIELD_ATTEMPTS: u32 = 8;
                let pauses = spin_iterations.min(crate::spin::SPIN_YIELD_BUDGET);
                for _ in 0..pauses {
                    if self.state.load(Ordering::Acquire) == SIGNALED {
                        stats::record_spin_success();
                        return WaitOutcome::Spun;
                    }
                    cpu_relax();
                }
                let yields = (spin_iterations - pauses).min(YIELD_ATTEMPTS);
                for _ in 0..yields {
                    if self.state.load(Ordering::Acquire) == SIGNALED {
                        stats::record_spin_success();
                        return WaitOutcome::Spun;
                    }
                    std::thread::yield_now();
                }
                if self.state.load(Ordering::Acquire) == SIGNALED {
                    stats::record_spin_success();
                    return WaitOutcome::Spun;
                }
                stats::record_spin_failure();
                self.park_slow()
            }
            WaitPolicy::Park => self.park_slow(),
        }
    }

    /// Rearms a signalled cell for reuse by its owning thread.
    ///
    /// Queue locks cache nodes (and their embedded cells) in
    /// thread-local free lists to avoid an allocation per acquisition;
    /// this rearms a consumed cell.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if called from a thread other than the
    /// owner, or if the cell has not been signalled (a waiter could
    /// still be captive).
    pub fn reset(&self) {
        #[cfg(debug_assertions)]
        {
            assert_eq!(
                self.owner,
                std::thread::current().id(),
                "WaitCell::reset must be called by the creating thread"
            );
            assert_ne!(
                self.state.load(Ordering::Acquire),
                PARKED,
                "WaitCell::reset while a waiter is parked"
            );
        }
        self.state.store(WAITING, Ordering::Release);
    }

    /// Parks until signalled, tolerating stale permits on the
    /// thread-local parker by re-checking the cell state after every
    /// park return.
    fn park_slow(&self) -> WaitOutcome {
        if self
            .state
            .compare_exchange(WAITING, PARKED, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            // Signalled during the transition; no park needed.
            return WaitOutcome::Spun;
        }
        loop {
            if self.state.load(Ordering::Acquire) == SIGNALED {
                return WaitOutcome::Parked;
            }
            park_current();
        }
    }
}

impl std::fmt::Debug for WaitCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self.state.load(Ordering::Relaxed) {
            WAITING => "waiting",
            SIGNALED => "signaled",
            PARKED => "parked",
            _ => "corrupt",
        };
        f.debug_struct("WaitCell").field("state", &s).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn signal_before_wait_spin() {
        let c = WaitCell::new();
        c.signal();
        assert_eq!(c.wait(WaitPolicy::spin()), WaitOutcome::Spun);
    }

    #[test]
    fn signal_before_wait_park_policy() {
        let c = WaitCell::new();
        c.signal();
        // Even with Park policy, an already-signalled cell returns
        // without blocking (the CAS to PARKED fails).
        assert_eq!(c.wait(WaitPolicy::park()), WaitOutcome::Spun);
    }

    #[test]
    fn cross_thread_spin_release() {
        let c = Arc::new(WaitCell::new());
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            c2.signal();
        });
        assert_eq!(c.wait(WaitPolicy::spin()), WaitOutcome::Spun);
        h.join().unwrap();
    }

    #[test]
    fn cross_thread_park_release() {
        let c = Arc::new(WaitCell::new());
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || {
            // Give the waiter time to actually park.
            std::thread::sleep(Duration::from_millis(50));
            c2.signal();
        });
        assert_eq!(c.wait(WaitPolicy::park()), WaitOutcome::Parked);
        h.join().unwrap();
    }

    #[test]
    fn spin_then_park_fast_signal_spins() {
        let c = Arc::new(WaitCell::new());
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || {
            c2.signal();
        });
        h.join().unwrap();
        assert_eq!(c.wait(WaitPolicy::spin_then_park()), WaitOutcome::Spun);
    }

    #[test]
    fn spin_then_park_slow_signal_parks() {
        let c = Arc::new(WaitCell::new());
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(80));
            c2.signal();
        });
        let outcome = c.wait(WaitPolicy::spin_then_park_with(100));
        assert_eq!(outcome, WaitOutcome::Parked);
        h.join().unwrap();
    }

    #[test]
    fn is_parked_visible_to_signaller() {
        let c = Arc::new(WaitCell::new());
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || {
            while !c2.is_parked() {
                std::thread::yield_now();
            }
            c2.signal();
        });
        assert_eq!(c.wait(WaitPolicy::park()), WaitOutcome::Parked);
        assert!(c.is_signaled());
        h.join().unwrap();
    }

    #[test]
    fn many_sequential_episodes_on_one_thread() {
        // Exercises thread-local parker reuse across cells, including
        // tolerance of any stale permits.
        for i in 0..200 {
            let c = Arc::new(WaitCell::new());
            let c2 = Arc::clone(&c);
            let h = std::thread::spawn(move || c2.signal());
            let policy = if i % 2 == 0 {
                WaitPolicy::spin_then_park_with(50)
            } else {
                WaitPolicy::park()
            };
            c.wait(policy);
            h.join().unwrap();
        }
    }
}
