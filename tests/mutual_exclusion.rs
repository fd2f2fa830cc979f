//! Cross-crate stress tests: every lock algorithm must provide mutual
//! exclusion, progress, and bounded unfairness under real contention.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use malthusian::locks::{Instrumented, McsCrLock, McsLock, Mutex, RawLock, TasLock};
use malthusian::metrics::{AdmissionLog, FairnessSummary};

/// Shared-counter stress: the canonical mutual-exclusion invariant.
fn stress<L: RawLock + 'static>(lock: L, threads: usize, iters: u64) {
    let lock = Arc::new(lock);
    let counter = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for _ in 0..threads {
        let lock = Arc::clone(&lock);
        let counter = Arc::clone(&counter);
        handles.push(std::thread::spawn(move || {
            for _ in 0..iters {
                lock.lock();
                // Unsynchronized RMW: only safe under real exclusion.
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
    assert_eq!(counter.load(Ordering::SeqCst), threads as u64 * iters);
}

#[test]
fn tas_excludes() {
    stress(TasLock::new(), 8, 5_000);
}

#[test]
fn mcs_spin_excludes() {
    stress(McsLock::spin(), 8, 5_000);
}

#[test]
fn mcs_stp_excludes() {
    stress(McsLock::stp(), 8, 5_000);
}

#[test]
fn mcscr_spin_excludes() {
    stress(McsCrLock::spin(), 8, 5_000);
}

#[test]
fn mcscr_stp_excludes() {
    stress(McsCrLock::stp(), 8, 5_000);
}

/// Long-term fairness: with the default 1/1000 fairness period, every
/// thread must complete work — CR is unfair short-term, never forever.
#[test]
fn mcscr_long_term_fairness_bounds_starvation() {
    let lock = Arc::new(Mutex::with_raw(Instrumented::new(McsCrLock::stp()), ()));
    let done = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for _ in 0..8 {
        let lock = Arc::clone(&lock);
        let done = Arc::clone(&done);
        handles.push(std::thread::spawn(move || {
            for _ in 0..10_000 {
                drop(lock.lock());
            }
            done.fetch_add(1, Ordering::SeqCst);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(done.load(Ordering::SeqCst), 8, "no thread may starve");
    let history = lock.raw().history_snapshot();
    let summary = FairnessSummary::from_log(&AdmissionLog::from_history(history));
    assert_eq!(summary.admissions, 80_000);
    assert_eq!(summary.threads, 8);
}

/// The admission history under contention is a complete, lossless
/// record: every acquisition appears exactly once.
#[test]
fn admission_history_is_complete_for_every_cr_lock() {
    fn check<L: RawLock + 'static>(lock: L) {
        let lock = Arc::new(Instrumented::new(lock));
        let mut handles = Vec::new();
        for _ in 0..6 {
            let lock = Arc::clone(&lock);
            handles.push(std::thread::spawn(move || {
                for _ in 0..2_000 {
                    lock.lock();
                    // SAFETY: held.
                    unsafe { lock.unlock() };
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let h = lock.history_snapshot();
        assert_eq!(h.len(), 12_000, "{}", lock.name());
        let counts = AdmissionLog::from_history(h).per_thread_counts();
        assert_eq!(counts.len(), 6);
        assert!(counts.values().all(|&c| c == 2_000));
    }
    check(McsCrLock::stp());
}

/// Runs 8 threads over `lock`, each doing ~50 LCG steps inside the
/// critical section and ~50 outside it, and returns the admission
/// history's average LWSS over 1000-admission windows with the number
/// of admissions. The run lasts 400 ms, and longer (up to 30 s) until
/// the history holds ten windows: a starved host admits so few that
/// one partial window would count every thread that ever arrived.
fn average_lwss<L: RawLock + 'static>(lock: L) -> (f64, usize) {
    fn lcg(mut x: u64) -> u64 {
        for _ in 0..50 {
            x = black_box(
                x.wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407),
            );
        }
        x
    }
    let lock = Arc::new(Instrumented::new(lock));
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..8u64)
        .map(|t| {
            let (lock, stop) = (Arc::clone(&lock), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut x = t + 1;
                while !stop.load(Ordering::Relaxed) {
                    lock.lock();
                    x = lcg(x);
                    // SAFETY: held.
                    unsafe { lock.unlock() };
                    x = lcg(x);
                }
                x
            })
        })
        .collect();
    let start = Instant::now();
    while start.elapsed() < Duration::from_millis(400)
        || (lock.admissions() < 10_000 && start.elapsed() < Duration::from_secs(30))
    {
        std::thread::sleep(Duration::from_millis(20));
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        black_box(h.join().unwrap());
    }
    let log = AdmissionLog::from_history(lock.history_snapshot());
    (log.average_lwss(1000), log.len())
}

/// Restriction as the paper defines it (§6, average LWSS): MCSCR keeps
/// the circulating set small, where MCS circulates every thread the
/// host runs. A starved host circulates few threads under either lock,
/// so MCSCR is compared with MCS only when MCS shows the host ran all
/// eight.
#[test]
fn mcscr_restricts_the_circulating_set() {
    let (cr, cr_n) = average_lwss(McsCrLock::stp());
    let (mcs, mcs_n) = average_lwss(McsLock::stp());
    let seen = format!("MCSCR {cr:.2} over {cr_n} admissions, MCS {mcs:.2} over {mcs_n}");
    assert!(cr <= 5.0, "MCSCR average LWSS above 5: {seen}");
    if mcs >= 6.0 {
        assert!(
            cr <= mcs - 2.0,
            "MCSCR average LWSS not 2 below MCS: {seen}"
        );
    }
}

/// Guard-based API integration across lock types.
#[test]
fn mutex_guards_protect_compound_data() {
    fn check<L: RawLock + Default + 'static>() {
        let m: Arc<Mutex<Vec<u64>, L>> = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for i in 0..1_000 {
                    m.lock().push(t * 1_000 + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let v = m.lock();
        assert_eq!(v.len(), 4_000);
    }
    check::<TasLock>();
    check::<McsLock>();
    check::<McsCrLock>();
}
