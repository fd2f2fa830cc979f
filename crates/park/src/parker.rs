//! Permit-based parker: the user-space face of `lwp_park`/futex waiting.
//!
//! The paper (§5.1 "Parking") describes the facility as a
//! restricted-range semaphore holding only the values 0 (neutral) and 1
//! (unpark pending). [`Parker::park`] consumes a pending permit without
//! blocking; otherwise it blocks until [`Unparker::unpark`] deposits
//! one. Redundant unparks collapse into a single permit.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::stats;

/// No permit available and no thread blocked.
const EMPTY: usize = 0;
/// A thread is blocked in [`Parker::park`].
const PARKED: usize = 1;
/// A permit is pending; the next `park` returns immediately.
const NOTIFIED: usize = 2;

struct Inner {
    state: AtomicUsize,
    lock: Mutex<()>,
    cvar: Condvar,
}

/// Why a call to [`Parker::park_timeout`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParkResult {
    /// A permit was consumed (an unpark happened before or during the wait).
    Unparked,
    /// The timeout elapsed without a permit being deposited.
    TimedOut,
}

/// The waiting side of the permit facility; one per waiting thread.
///
/// A `Parker` is cheap to create and is typically stored in a
/// thread-local or on the waiting thread's stack. Use
/// [`Parker::unparker`] to obtain a handle that other threads use to
/// wake this one.
pub struct Parker {
    inner: Arc<Inner>,
}

/// The waking side of the permit facility; clonable and shareable.
#[derive(Clone)]
pub struct Unparker {
    inner: Arc<Inner>,
}

impl Default for Parker {
    fn default() -> Self {
        Self::new()
    }
}

impl Parker {
    /// Creates a parker with no pending permit.
    pub fn new() -> Self {
        Parker {
            inner: Arc::new(Inner {
                state: AtomicUsize::new(EMPTY),
                lock: Mutex::new(()),
                cvar: Condvar::new(),
            }),
        }
    }

    /// Returns a handle other threads can use to wake this parker.
    pub fn unparker(&self) -> Unparker {
        Unparker {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Blocks the calling thread until a permit is available, then
    /// consumes it.
    ///
    /// If a permit is already pending the call returns immediately
    /// without a voluntary context switch. Callers must tolerate
    /// spurious returns and re-check their wait condition; the paper's
    /// litmus test is that a no-op implementation of park/unpark must
    /// still be correct (§5.1).
    pub fn park(&self) {
        // Fast path: consume a pending permit without blocking.
        if self
            .inner
            .state
            .compare_exchange(NOTIFIED, EMPTY, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            stats::record_park_fast_path();
            return;
        }

        let mut guard = self.inner.lock.lock().expect("parker mutex poisoned");
        // Publish that we are about to block. If an unpark raced in
        // between the fast path and taking the mutex, consume it.
        match self
            .inner
            .state
            .compare_exchange(EMPTY, PARKED, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => {}
            Err(actual) => {
                debug_assert_eq!(actual, NOTIFIED);
                self.inner.state.store(EMPTY, Ordering::SeqCst);
                stats::record_park_fast_path();
                return;
            }
        }
        stats::record_voluntary_park();
        loop {
            guard = self
                .inner
                .cvar
                .wait(guard)
                .expect("parker condvar poisoned");
            if self
                .inner
                .state
                .compare_exchange(NOTIFIED, EMPTY, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return;
            }
            // Spurious condvar wakeup: keep waiting. (We remain PARKED.)
        }
    }

    /// Blocks for at most `timeout`, consuming a permit if one arrives.
    ///
    /// Timed parking underpins the standby threads of the crew and the
    /// reactor (after the paper's LOITER standby thread, appendix A.1):
    /// a passive worker periodically polls rather than relying on a
    /// wake-up from the fast path.
    pub fn park_timeout(&self, timeout: Duration) -> ParkResult {
        if self
            .inner
            .state
            .compare_exchange(NOTIFIED, EMPTY, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            stats::record_park_fast_path();
            return ParkResult::Unparked;
        }

        let mut guard = self.inner.lock.lock().expect("parker mutex poisoned");
        match self
            .inner
            .state
            .compare_exchange(EMPTY, PARKED, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => {}
            Err(_) => {
                self.inner.state.store(EMPTY, Ordering::SeqCst);
                stats::record_park_fast_path();
                return ParkResult::Unparked;
            }
        }
        stats::record_voluntary_park();
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let now = std::time::Instant::now();
            if now >= deadline {
                // Withdraw our parked claim; an unpark may have raced.
                return match self.inner.state.swap(EMPTY, Ordering::SeqCst) {
                    NOTIFIED => ParkResult::Unparked,
                    _ => ParkResult::TimedOut,
                };
            }
            let (g, _res) = self
                .inner
                .cvar
                .wait_timeout(guard, deadline - now)
                .expect("parker condvar poisoned");
            guard = g;
            if self
                .inner
                .state
                .compare_exchange(NOTIFIED, EMPTY, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return ParkResult::Unparked;
            }
        }
    }

    /// Returns `true` if a permit is currently pending.
    pub fn permit_pending(&self) -> bool {
        self.inner.state.load(Ordering::Acquire) == NOTIFIED
    }
}

impl Unparker {
    /// Deposits a permit, waking the parker's thread if it is blocked.
    ///
    /// Multiple unparks collapse into a single permit (restricted-range
    /// semaphore semantics). Unparking a thread that is not blocked is
    /// cheap: it records the permit and returns without touching the
    /// condition variable, mirroring the optimized fast paths the paper
    /// describes for redundant unpark operations.
    pub fn unpark(&self) {
        match self.inner.state.swap(NOTIFIED, Ordering::SeqCst) {
            EMPTY | NOTIFIED => {
                stats::record_unpark_fast_path();
            }
            parked => {
                debug_assert_eq!(parked, PARKED);
                // Take and drop the mutex so the notify cannot be lost
                // between the waiter's state check and its cvar wait.
                drop(self.inner.lock.lock().expect("parker mutex poisoned"));
                self.inner.cvar.notify_one();
                stats::record_unpark_notify();
            }
        }
    }
}

impl std::fmt::Debug for Parker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Parker")
            .field("state", &self.inner.state.load(Ordering::Relaxed))
            .finish()
    }
}

impl std::fmt::Debug for Unparker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Unparker").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Instant;

    #[test]
    fn permit_before_park_returns_immediately() {
        let p = Parker::new();
        p.unparker().unpark();
        let start = Instant::now();
        p.park();
        assert!(start.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn redundant_unparks_collapse_to_one_permit() {
        let p = Parker::new();
        let u = p.unparker();
        u.unpark();
        u.unpark();
        u.unpark();
        p.park(); // consumes the single permit
        assert_eq!(
            p.park_timeout(Duration::from_millis(10)),
            ParkResult::TimedOut
        );
    }

    #[test]
    fn park_blocks_until_unpark() {
        let p = Parker::new();
        let u = p.unparker();
        let released = Arc::new(AtomicBool::new(false));
        let released2 = Arc::clone(&released);
        let h = std::thread::spawn(move || {
            p.park();
            released2.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(!released.load(Ordering::SeqCst));
        u.unpark();
        h.join().unwrap();
        assert!(released.load(Ordering::SeqCst));
    }

    #[test]
    fn park_timeout_times_out_without_permit() {
        let p = Parker::new();
        let start = Instant::now();
        assert_eq!(
            p.park_timeout(Duration::from_millis(20)),
            ParkResult::TimedOut
        );
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn park_timeout_consumes_concurrent_unpark() {
        let p = Parker::new();
        let u = p.unparker();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            u.unpark();
        });
        assert_eq!(
            p.park_timeout(Duration::from_secs(10)),
            ParkResult::Unparked
        );
        h.join().unwrap();
    }

    #[test]
    fn permit_pending_reflects_state() {
        let p = Parker::new();
        assert!(!p.permit_pending());
        p.unparker().unpark();
        assert!(p.permit_pending());
        p.park();
        assert!(!p.permit_pending());
    }

    #[test]
    fn ping_pong_many_rounds() {
        let a = Parker::new();
        let ua = a.unparker();
        let b = Parker::new();
        let ub = b.unparker();
        let h = std::thread::spawn(move || {
            for _ in 0..1000 {
                a.park();
                ub.unpark();
            }
        });
        for _ in 0..1000 {
            ua.unpark();
            b.park();
        }
        h.join().unwrap();
    }
}
