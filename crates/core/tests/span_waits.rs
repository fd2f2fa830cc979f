//! A thread blocked behind a held MCS-family lock reads its wait in
//! its span: `lock_wait` for MCS admission, and for MCSCR `cull_wait`
//! for the time a culled waiter spent on the passive list.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use malthus::{McsCrLock, McsLock, RawLock, WaitPolicy};
use malthus_obs::span;

/// How long the holder keeps the lock once every waiter is about to
/// arrive.
const HOLD: Duration = Duration::from_millis(50);
/// What each waiter must read: its wait, less arrival slack.
const MIN_WAIT_NS: u64 = 20_000_000;

/// Holds `lock` while `waiters` threads arrive behind it, releases it
/// after [`HOLD`], and returns each waiter's `(lock_wait, cull_wait)`.
fn blocked_waits<L: RawLock + Send + Sync + 'static>(lock: L, waiters: usize) -> Vec<(u64, u64)> {
    span::set_enabled(true);
    let lock = Arc::new(lock);
    let arriving = Arc::new(AtomicUsize::new(0));
    lock.lock();
    let handles: Vec<_> = (0..waiters)
        .map(|_| {
            let (lock, arriving) = (Arc::clone(&lock), Arc::clone(&arriving));
            thread::spawn(move || {
                span::take_waits();
                arriving.fetch_add(1, Ordering::SeqCst);
                lock.lock();
                let waits = span::take_waits();
                // SAFETY: we hold the lock.
                unsafe { lock.unlock() };
                waits
            })
        })
        .collect();
    while arriving.load(Ordering::SeqCst) < waiters {
        thread::sleep(Duration::from_millis(1));
    }
    thread::sleep(HOLD);
    // SAFETY: held since before the spawns.
    unsafe { lock.unlock() };
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

#[test]
fn a_blocked_mcs_waiter_reads_its_lock_wait() {
    let [(lock_wait, cull_wait)] = blocked_waits(McsLock::stp(), 1)[..] else {
        unreachable!()
    };
    assert!(lock_wait >= MIN_WAIT_NS, "lock_wait {lock_wait} ns");
    assert_eq!(cull_wait, 0, "MCS never culls");
}

#[test]
fn a_culled_mcscr_waiter_reads_its_passive_residency() {
    // Owner + 3 waiters: the first unlock culls a waiter, and the drain
    // reprovisions it. (Fairness period is high and the seed fixed, so
    // trials do not interfere.)
    let lock = McsCrLock::with_params(WaitPolicy::spin_then_park(), 1_000_000, 3);
    let waits = blocked_waits(lock, 3);
    for &(lock_wait, cull_wait) in &waits {
        assert!(lock_wait + cull_wait >= MIN_WAIT_NS, "{waits:?}");
    }
    assert!(
        waits.iter().any(|&(_, cull_wait)| cull_wait > 0),
        "no culled waiter read its passive residency: {waits:?}"
    );
}
