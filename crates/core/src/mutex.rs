//! RAII data-protecting wrapper over any [`RawLock`].

use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

use crate::raw::RawLock;

/// A mutual-exclusion primitive protecting a `T`, generic over the
/// lock algorithm.
///
/// This is the adoption surface of the crate: pick an algorithm (e.g.
/// [`McsCrLock`](crate::McsCrLock) for contended hot locks) and use it
/// like `std::sync::Mutex` minus poisoning.
///
/// # Examples
///
/// ```
/// use malthus::{McsCrMutex, Mutex, TasLock};
///
/// // Via the type alias:
/// let counter: McsCrMutex<u64> = McsCrMutex::default_cr(0);
/// *counter.lock() += 1;
///
/// // Or any raw lock explicitly:
/// let m: Mutex<String, TasLock> = Mutex::new(String::from("hi"));
/// m.lock().push('!');
/// assert_eq!(&*m.lock(), "hi!");
/// ```
pub struct Mutex<T: ?Sized, L: RawLock> {
    raw: L,
    data: UnsafeCell<T>,
}

// SAFETY: the raw lock serializes access to `data`; sending the mutex
// moves the data.
unsafe impl<T: ?Sized + Send, L: RawLock> Send for Mutex<T, L> {}
// SAFETY: `&Mutex` only yields `&T`/`&mut T` under the raw lock.
unsafe impl<T: ?Sized + Send, L: RawLock> Sync for Mutex<T, L> {}

impl<T, L: RawLock + Default> Mutex<T, L> {
    /// Creates a mutex with a default-constructed raw lock.
    pub fn new(value: T) -> Self {
        Mutex {
            raw: L::default(),
            data: UnsafeCell::new(value),
        }
    }
}

impl<T, L: RawLock> Mutex<T, L> {
    /// Creates a mutex from an explicitly configured raw lock.
    pub fn with_raw(raw: L, value: T) -> Self {
        Mutex {
            raw,
            data: UnsafeCell::new(value),
        }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized, L: RawLock> Mutex<T, L> {
    /// Acquires the lock, blocking per the algorithm's waiting policy.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T, L> {
        self.raw.lock();
        MutexGuard {
            mutex: self,
            _not_send: PhantomData,
        }
    }

    /// Attempts to acquire the lock without blocking.
    #[inline]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T, L>> {
        if self.raw.try_lock() {
            Some(MutexGuard {
                mutex: self,
                _not_send: PhantomData,
            })
        } else {
            None
        }
    }

    /// Returns a mutable reference without locking (requires `&mut`).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// The underlying raw lock (for statistics accessors).
    pub fn raw(&self) -> &L {
        &self.raw
    }
}

impl<T: Default, L: RawLock + Default> Default for Mutex<T, L> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug, L: RawLock> fmt::Debug for Mutex<T, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

/// RAII guard; releases the lock on drop.
///
/// Deliberately `!Send`: queue locks record the owner context in the
/// lock and must be released by the acquiring thread.
pub struct MutexGuard<'a, T: ?Sized, L: RawLock> {
    mutex: &'a Mutex<T, L>,
    _not_send: PhantomData<*const ()>,
}

// SAFETY: sharing a guard only shares `&T`.
unsafe impl<T: ?Sized + Sync, L: RawLock> Sync for MutexGuard<'_, T, L> {}

impl<T: ?Sized, L: RawLock> Deref for MutexGuard<'_, T, L> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the guard proves the raw lock is held by us.
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T: ?Sized, L: RawLock> DerefMut for MutexGuard<'_, T, L> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard proves exclusive access.
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T: ?Sized, L: RawLock> Drop for MutexGuard<'_, T, L> {
    #[inline]
    fn drop(&mut self) {
        // SAFETY: this guard was created by a successful acquisition
        // on this thread and is dropped exactly once.
        unsafe { self.mutex.raw.unlock() };
    }
}

impl<T: ?Sized + fmt::Debug, L: RawLock> fmt::Debug for MutexGuard<'_, T, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcscr::McsCrLock;
    use crate::tas::TasLock;
    use std::sync::Arc;

    #[test]
    fn guard_protects_data() {
        let m: Mutex<Vec<i32>, TasLock> = Mutex::new(vec![1]);
        m.lock().push(2);
        assert_eq!(&*m.lock(), &[1, 2]);
    }

    #[test]
    fn try_lock_contended_returns_none() {
        let m: Mutex<(), TasLock> = Mutex::new(());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn into_inner_and_get_mut() {
        let mut m: Mutex<i32, TasLock> = Mutex::new(3);
        *m.get_mut() += 1;
        assert_eq!(m.into_inner(), 4);
    }

    #[test]
    fn contended_increments_with_mcscr() {
        let m: Arc<Mutex<u64, McsCrLock>> = Arc::new(Mutex::with_raw(McsCrLock::stp(), 0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1_000 {
                    *m.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 8_000);
    }

    #[test]
    fn debug_formats() {
        let m: Mutex<i32, TasLock> = Mutex::new(9);
        assert!(format!("{m:?}").contains('9'));
        let g = m.lock();
        assert!(format!("{m:?}").contains("locked"));
        drop(g);
    }
}
