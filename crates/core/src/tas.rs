//! Test-and-set lock: the simplest competitive-succession baseline.
//!
//! The paper's Figure 2 contrasts TAS with MCS: TAS uses competitive
//! succession (the unlock simply releases and any waiter or arrival may
//! pounce), global spinning, allows unbounded bypass/starvation, and
//! performs best under light contention or preemption. [`TasLock`] is
//! a polite test-and-test-and-set spinner; RW-CR uses it as its gate.

use std::sync::atomic::{AtomicBool, Ordering};

use malthus_park::SpinThenYield;

use crate::raw::RawLock;

/// A naive test-and-set spin lock with polite pauses.
///
/// # Examples
///
/// ```
/// use malthus::{Mutex, TasLock};
///
/// let m: Mutex<i32, TasLock> = Mutex::new(0);
/// *m.lock() += 1;
/// assert_eq!(*m.lock(), 1);
/// ```
#[derive(Debug, Default)]
pub struct TasLock {
    held: AtomicBool,
}

impl TasLock {
    /// Creates an unlocked lock.
    pub const fn new() -> Self {
        TasLock {
            held: AtomicBool::new(false),
        }
    }
}

// SAFETY: the acquire CAS admits one holder; unlock releases with
// Release ordering pairing with the acquirers' Acquire.
unsafe impl RawLock for TasLock {
    fn lock(&self) {
        let mut spin = SpinThenYield::new();
        loop {
            // Test-and-test-and-set: poll with plain loads first so the
            // line stays shared until it is plausibly free.
            if !self.held.load(Ordering::Relaxed)
                && self
                    .held
                    .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return;
            }
            spin.pause();
        }
    }

    fn try_lock(&self) -> bool {
        !self.held.load(Ordering::Relaxed)
            && self
                .held
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
    }

    unsafe fn unlock(&self) {
        self.held.store(false, Ordering::Release);
    }

    fn name(&self) -> &'static str {
        "TAS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn hammer<L: RawLock + 'static>(lock: Arc<L>, threads: usize, iters: usize) -> u64 {
        use std::sync::atomic::AtomicU64;
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..threads {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..iters {
                    lock.lock();
                    // Non-atomic-looking RMW under the lock: exclusion
                    // makes the load/store pair safe.
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
    fn tas_mutual_exclusion() {
        let total = hammer(Arc::new(TasLock::new()), 8, 2_000);
        assert_eq!(total, 8 * 2_000);
    }

    #[test]
    fn try_lock_fails_when_held() {
        let l = TasLock::new();
        assert!(l.try_lock());
        assert!(!l.try_lock());
        // SAFETY: acquired above.
        unsafe { l.unlock() };
        assert!(l.try_lock());
        // SAFETY: acquired above.
        unsafe { l.unlock() };
    }

    #[test]
    fn names() {
        assert_eq!(TasLock::new().name(), "TAS");
    }
}
