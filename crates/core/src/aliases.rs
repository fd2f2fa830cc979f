//! Convenience aliases and constructors for common lock/mutex pairings.

use crate::mcs::McsLock;
use crate::mcscr::McsCrLock;
use crate::mutex::Mutex;
use crate::tas::TasLock;

/// `std::sync::Mutex`-alike over a naive TAS lock.
pub type TasMutex<T> = Mutex<T, TasLock>;
/// Mutex over a classic MCS lock.
pub type McsMutex<T> = Mutex<T, McsLock>;
/// Mutex over the Malthusian MCSCR lock.
pub type McsCrMutex<T> = Mutex<T, McsCrLock>;

impl<T> Mutex<T, McsLock> {
    /// MCS with spin-then-park waiting (`MCS-STP`).
    pub fn default_stp(value: T) -> Self {
        Mutex::with_raw(McsLock::stp(), value)
    }

    /// MCS with unbounded polite spinning (`MCS-S`).
    pub fn default_spin(value: T) -> Self {
        Mutex::with_raw(McsLock::spin(), value)
    }
}

impl<T> Mutex<T, McsCrLock> {
    /// MCSCR with spin-then-park waiting, the paper's recommended
    /// configuration (`MCSCR-STP`).
    pub fn default_cr(value: T) -> Self {
        Mutex::with_raw(McsCrLock::stp(), value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alias_constructors_work() {
        let a = McsMutex::default_stp(1u8);
        let b = McsMutex::default_spin(2u8);
        let c = McsCrMutex::default_cr(3u8);
        assert_eq!(*a.lock() + *b.lock() + *c.lock(), 6);
    }

    #[test]
    fn plain_aliases_default() {
        let t: TasMutex<u32> = TasMutex::new(1);
        assert_eq!(*t.lock(), 1);
    }
}
