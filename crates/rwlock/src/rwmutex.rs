//! RAII data-protecting wrapper over any [`RawRwLock`].

use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

use malthus::{RawRwLock, RwCrLock};

/// A reader-writer lock protecting a `T`, generic over the algorithm.
///
/// The analogue of [`malthus::Mutex`] for shared/exclusive access:
/// pick a raw algorithm (normally [`RwCrLock`]) and use it like
/// `std::sync::RwLock` minus poisoning.
///
/// # Examples
///
/// ```
/// use malthus_rwlock::RwCrMutex;
///
/// let table = RwCrMutex::default_cr(vec![1u64, 2, 3]);
/// assert_eq!(table.read().iter().sum::<u64>(), 6);
/// table.write().push(4);
/// assert_eq!(table.read().len(), 4);
/// ```
pub struct RwMutex<T: ?Sized, R: RawRwLock> {
    raw: R,
    data: UnsafeCell<T>,
}

/// [`RwMutex`] over the Malthusian [`RwCrLock`].
pub type RwCrMutex<T> = RwMutex<T, RwCrLock>;

impl<T> RwMutex<T, RwCrLock> {
    /// RW-CR with spin-then-park waiting, the recommended
    /// configuration (`RW-CR-STP`).
    pub fn default_cr(value: T) -> Self {
        RwMutex::with_raw(RwCrLock::stp(), value)
    }
}

// SAFETY: the raw lock serializes exclusive access to `data` and
// read guards only expose `&T`; sending the mutex moves the data.
unsafe impl<T: ?Sized + Send, R: RawRwLock> Send for RwMutex<T, R> {}
// SAFETY: read guards hand out `&T` to several threads at once, so
// sharing the mutex requires `T: Send + Sync`.
unsafe impl<T: ?Sized + Send + Sync, R: RawRwLock> Sync for RwMutex<T, R> {}

impl<T, R: RawRwLock + Default> RwMutex<T, R> {
    /// Creates an RW mutex with a default-constructed raw lock.
    pub fn new(value: T) -> Self {
        RwMutex {
            raw: R::default(),
            data: UnsafeCell::new(value),
        }
    }
}

impl<T, R: RawRwLock> RwMutex<T, R> {
    /// Creates an RW mutex from an explicitly configured raw lock.
    pub fn with_raw(raw: R, value: T) -> Self {
        RwMutex {
            raw,
            data: UnsafeCell::new(value),
        }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized, R: RawRwLock> RwMutex<T, R> {
    /// Acquires shared access, blocking per the algorithm's policy.
    #[inline]
    pub fn read(&self) -> RwReadGuard<'_, T, R> {
        self.raw.read_lock();
        RwReadGuard {
            mutex: self,
            _not_send: PhantomData,
        }
    }

    /// Attempts to acquire shared access without blocking.
    #[inline]
    pub fn try_read(&self) -> Option<RwReadGuard<'_, T, R>> {
        if self.raw.try_read_lock() {
            Some(RwReadGuard {
                mutex: self,
                _not_send: PhantomData,
            })
        } else {
            None
        }
    }

    /// Acquires exclusive access, blocking per the algorithm's policy.
    #[inline]
    pub fn write(&self) -> RwWriteGuard<'_, T, R> {
        self.raw.write_lock();
        RwWriteGuard {
            mutex: self,
            _not_send: PhantomData,
        }
    }

    /// Attempts to acquire exclusive access without blocking.
    #[inline]
    pub fn try_write(&self) -> Option<RwWriteGuard<'_, T, R>> {
        if self.raw.try_write_lock() {
            Some(RwWriteGuard {
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
    pub fn raw(&self) -> &R {
        &self.raw
    }
}

impl<T: Default, R: RawRwLock + Default> Default for RwMutex<T, R> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug, R: RawRwLock> fmt::Debug for RwMutex<T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_read() {
            Some(g) => f.debug_struct("RwMutex").field("data", &&*g).finish(),
            None => f
                .debug_struct("RwMutex")
                .field("data", &"<write-locked>")
                .finish(),
        }
    }
}

/// Shared-access RAII guard; releases the read slot on drop.
///
/// Deliberately `!Send`: the waiting machinery records per-thread
/// state, so a guard must be released by the acquiring thread.
pub struct RwReadGuard<'a, T: ?Sized, R: RawRwLock> {
    mutex: &'a RwMutex<T, R>,
    _not_send: PhantomData<*const ()>,
}

// SAFETY: sharing a read guard only shares `&T`.
unsafe impl<T: ?Sized + Sync, R: RawRwLock> Sync for RwReadGuard<'_, T, R> {}

impl<T: ?Sized, R: RawRwLock> Deref for RwReadGuard<'_, T, R> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the guard proves a read slot is held; writers are
        // excluded while any read guard lives.
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T: ?Sized, R: RawRwLock> Drop for RwReadGuard<'_, T, R> {
    #[inline]
    fn drop(&mut self) {
        // SAFETY: created by a successful shared acquisition on this
        // thread; dropped exactly once.
        unsafe { self.mutex.raw.read_unlock() };
    }
}

impl<T: ?Sized + fmt::Debug, R: RawRwLock> fmt::Debug for RwReadGuard<'_, T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Exclusive-access RAII guard; releases the write lock on drop.
pub struct RwWriteGuard<'a, T: ?Sized, R: RawRwLock> {
    mutex: &'a RwMutex<T, R>,
    _not_send: PhantomData<*const ()>,
}

// SAFETY: sharing a write guard only shares `&T` (mutation needs
// `&mut` on the guard itself).
unsafe impl<T: ?Sized + Sync, R: RawRwLock> Sync for RwWriteGuard<'_, T, R> {}

impl<T: ?Sized, R: RawRwLock> Deref for RwWriteGuard<'_, T, R> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the guard proves exclusive access.
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T: ?Sized, R: RawRwLock> DerefMut for RwWriteGuard<'_, T, R> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard proves exclusive access.
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T: ?Sized, R: RawRwLock> Drop for RwWriteGuard<'_, T, R> {
    #[inline]
    fn drop(&mut self) {
        // SAFETY: created by a successful exclusive acquisition on
        // this thread; dropped exactly once.
        unsafe { self.mutex.raw.write_unlock() };
    }
}

impl<T: ?Sized + fmt::Debug, R: RawRwLock> fmt::Debug for RwWriteGuard<'_, T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn guards_protect_data() {
        let m: RwCrMutex<Vec<i32>> = RwCrMutex::default_cr(vec![1]);
        m.write().push(2);
        assert_eq!(&*m.read(), &[1, 2]);
        assert_eq!(m.read().len(), 2);
    }

    #[test]
    fn try_variants_respect_exclusion() {
        let m: RwCrMutex<u32> = RwCrMutex::default_cr(7);
        let r = m.read();
        assert!(m.try_read().is_some());
        assert!(m.try_write().is_none());
        drop(r);
        let w = m.try_write().expect("uncontended");
        assert!(m.try_read().is_none());
        assert!(m.try_write().is_none());
        drop(w);
        assert!(m.try_read().is_some());
    }

    #[test]
    fn into_inner_and_get_mut() {
        let mut m: RwCrMutex<i32> = RwCrMutex::default_cr(3);
        *m.get_mut() += 1;
        *m.write() += 1;
        assert_eq!(m.into_inner(), 5);
    }

    #[test]
    fn concurrent_readers_see_writer_updates() {
        let m: Arc<RwCrMutex<u64>> = Arc::new(RwCrMutex::default_cr(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    *m.write() += 1;
                    let v = *m.read();
                    assert!(v >= 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.read(), 2_000);
    }

    #[test]
    fn debug_formats() {
        let m: RwCrMutex<i32> = RwCrMutex::default_cr(9);
        assert!(format!("{m:?}").contains('9'));
        let g = m.write();
        assert!(format!("{m:?}").contains("write-locked"));
        drop(g);
    }
}
