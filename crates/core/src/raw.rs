//! The raw lock interfaces: [`RawLock`], implemented by every mutex in
//! this crate, and [`RawRwLock`], implemented by RW-CR.

/// A raw mutual-exclusion primitive.
///
/// Implementations provide mutual exclusion only; data protection is
/// layered on top by [`Mutex`](crate::Mutex). The trait is `unsafe`
/// because other unsafe code (the guard types) relies on the
/// implementation actually providing mutual exclusion.
///
/// # Safety
///
/// An implementor must guarantee that between a `lock` (or successful
/// `try_lock`) and the matching `unlock`, no other thread can observe
/// the lock as acquired by itself.
pub unsafe trait RawLock: Send + Sync {
    /// Acquires the lock, blocking (by the lock's waiting policy) until
    /// it is available.
    fn lock(&self);

    /// Attempts to acquire the lock without waiting.
    ///
    /// Returns `true` on acquisition. Implementations must not spin
    /// indefinitely; a bounded number of atomic attempts is allowed.
    fn try_lock(&self) -> bool;

    /// Releases the lock.
    ///
    /// # Safety
    ///
    /// Must be called exactly once per acquisition, by the thread that
    /// acquired the lock, while the lock is held.
    unsafe fn unlock(&self);

    /// A short human-readable algorithm name (used by benchmark output).
    fn name(&self) -> &'static str;
}

/// A raw reader-writer lock.
///
/// Implementations provide shared/exclusive exclusion only; data
/// protection is layered on top by `malthus_rwlock::RwMutex`. The
/// trait is `unsafe` because the guard types rely on the
/// implementation actually providing the advertised exclusion.
///
/// # Safety
///
/// An implementor must guarantee that while any thread holds the
/// write side, no other thread holds either side, and that read-side
/// holders only ever coexist with other read-side holders.
pub unsafe trait RawRwLock: Send + Sync {
    /// Acquires the lock for shared (read) access, blocking per the
    /// lock's waiting policy.
    fn read_lock(&self);

    /// Attempts to acquire shared access without waiting.
    fn try_read_lock(&self) -> bool;

    /// Releases one shared acquisition.
    ///
    /// # Safety
    ///
    /// Must be called exactly once per shared acquisition, by the
    /// thread that acquired it, while it is held.
    unsafe fn read_unlock(&self);

    /// Acquires the lock for exclusive (write) access.
    fn write_lock(&self);

    /// Attempts to acquire exclusive access without waiting.
    fn try_write_lock(&self) -> bool;

    /// Releases the exclusive acquisition.
    ///
    /// # Safety
    ///
    /// Must be called exactly once per exclusive acquisition, by the
    /// thread that acquired it, while it is held.
    unsafe fn write_unlock(&self);

    /// A short human-readable algorithm name (used by benchmark
    /// output).
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// A trivial RawLock used to validate the trait contract shape.
    struct ToyLock {
        held: AtomicBool,
    }

    // SAFETY: the CAS in `lock`/`try_lock` admits exactly one holder at
    // a time and `unlock` releases it.
    unsafe impl RawLock for ToyLock {
        fn lock(&self) {
            while self
                .held
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                std::hint::spin_loop();
            }
        }

        fn try_lock(&self) -> bool {
            self.held
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        }

        unsafe fn unlock(&self) {
            self.held.store(false, Ordering::Release);
        }

        fn name(&self) -> &'static str {
            "toy"
        }
    }

    #[test]
    fn toy_lock_round_trip() {
        let l = ToyLock {
            held: AtomicBool::new(false),
        };
        l.lock();
        assert!(!l.try_lock());
        // SAFETY: we hold the lock.
        unsafe { l.unlock() };
        assert!(l.try_lock());
        // SAFETY: try_lock succeeded.
        unsafe { l.unlock() };
        assert_eq!(l.name(), "toy");
    }
}
