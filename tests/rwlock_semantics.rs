//! Cross-thread invariants of the Malthusian reader-writer lock:
//! writer exclusion vs. concurrent readers, no lost wakeups when
//! passive readers are culled mid-acquire, writer progress under
//! read-heavy load, and a deterministic xorshift stress sweep.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use malthus_park::WaitPolicy;
use malthus_rwlock::{RawRwLock, RwCrLock, RwCrMutex, RwMutex, WriterQueue};
use malthus_workloads::rwreadwrite::{run_rw_loop, RwLoopShape, SharedTableRw};

/// Readers must be able to hold the lock simultaneously: all of them
/// meet at a barrier *inside* their read sections. An exclusive lock
/// would deadlock here, so the whole test runs under a watchdog.
#[test]
fn readers_share_writers_exclude() {
    fn check<W: WriterQueue + 'static>(rw: RwCrLock<W>) {
        let done = run_with_watchdog(Duration::from_secs(30), || {
            let rw = Arc::new(rw);
            let inside = Arc::new(Barrier::new(4));
            let mut handles = Vec::new();
            for _ in 0..4 {
                let rw = Arc::clone(&rw);
                let inside = Arc::clone(&inside);
                handles.push(std::thread::spawn(move || {
                    rw.read_lock();
                    inside.wait(); // 4 concurrent read-side holders
                                   // SAFETY: held.
                    unsafe { rw.read_unlock() };
                }));
            }
            for h in handles {
                h.join().unwrap();
            }

            // While a writer holds, neither side can slip in.
            rw.write_lock();
            assert!(!rw.try_read_lock());
            assert!(!rw.try_write_lock());
            // SAFETY: held.
            unsafe { rw.write_unlock() };
        });
        assert!(done, "readers deadlocked: the lock is not shared");
    }
    check(RwCrLock::stp());
    check(RwCrLock::mcs());
}

/// Writer exclusion stress: a non-atomic register mutated only under
/// the write lock; readers assert they never observe a half-written
/// state. Deterministic thread counts and seeds.
#[test]
fn writer_exclusion_protects_plain_data() {
    fn check<W: WriterQueue + 'static>(rw: RwCrLock<W>) {
        let table = Arc::new(RwMutex::with_raw(rw, [0u64; 8]));
        let mut handles = Vec::new();
        for t in 0..2u64 {
            let table = Arc::clone(&table);
            handles.push(std::thread::spawn(move || {
                for i in 0..2_000u64 {
                    let stamp = t * 1_000_000 + i;
                    let mut w = table.write();
                    for slot in w.iter_mut() {
                        *slot = stamp;
                    }
                }
            }));
        }
        for _ in 0..4 {
            let table = Arc::clone(&table);
            handles.push(std::thread::spawn(move || {
                for _ in 0..4_000 {
                    let r = table.read();
                    let first = r[0];
                    assert!(r.iter().all(|&s| s == first), "torn read: {:?}", *r);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
    check(RwCrLock::stp());
    check(RwCrLock::mcs());
}

/// No lost wakeups when passive readers are culled mid-acquire: a
/// writer repeatedly holds the lock long enough for arriving readers
/// to passivate, then releases. Every reader must complete — a lost
/// wakeup would hang the join and trip the watchdog.
#[test]
fn culled_readers_always_wake() {
    let done = run_with_watchdog(Duration::from_secs(60), || {
        // Tiny spin budget so readers park quickly; small admission
        // batch so the cascade path (granted reader pulls the next)
        // is exercised, not just the batch grant.
        let rw = Arc::new(RwCrLock::with_params(
            WaitPolicy::spin_then_park_with(50),
            1_000,
            0xDEAD_BEEF,
            1,
        ));
        for round in 0..20 {
            rw.write_lock();
            let landed = Arc::new(AtomicU64::new(0));
            let mut handles = Vec::new();
            for _ in 0..6 {
                let rw = Arc::clone(&rw);
                let landed = Arc::clone(&landed);
                handles.push(std::thread::spawn(move || {
                    rw.read_lock();
                    landed.fetch_add(1, Ordering::Relaxed);
                    // SAFETY: held.
                    unsafe { rw.read_unlock() };
                }));
            }
            // Let the readers reach the passive list while we hold.
            std::thread::sleep(Duration::from_millis(20));
            // SAFETY: held since before the spawns.
            unsafe { rw.write_unlock() };
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(landed.load(Ordering::SeqCst), 6, "round {round}");
            assert_eq!(rw.passive_readers(), 0, "round {round}");
        }
        let stats = rw.stats();
        assert!(stats.reader_culls > 0, "culling never happened: {stats:?}");
        assert_eq!(
            stats.reader_culls,
            stats.reader_reprovisions + stats.reader_fairness_grants,
            "every culled reader must be granted exactly once: {stats:?}"
        );
    });
    assert!(done, "a culled reader was never woken");
}

/// Under 99%-read load a writer must still make progress: the writer
/// bit blocks new reader admissions and the fairness machinery keeps
/// both classes circulating, so `K` writes finish in bounded time.
#[test]
fn writer_is_admitted_under_read_heavy_load() {
    let done = run_with_watchdog(Duration::from_secs(60), || {
        let rw: Arc<RwCrMutex<u64>> = Arc::new(RwCrMutex::default_cr(0));
        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..6 {
            let rw = Arc::clone(&rw);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut sink = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    sink = sink.wrapping_add(*rw.read());
                }
                std::hint::black_box(sink);
            }));
        }
        // The "1%": a single writer that must land 200 writes while
        // the readers hammer.
        for i in 1..=200u64 {
            *rw.write() = i;
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(*rw.read(), 200);
    });
    assert!(done, "the writer starved under 99%-read load");
}

/// Deterministic xorshift stress sweep across thread counts, both
/// waiting policies and the MCS-writer baseline, via the live workload
/// runner (whose torn-read oracle is the exclusion check).
#[test]
fn xorshift_stress_sweep_is_consistent() {
    for &threads in &[2usize, 4, 8] {
        for (name, table) in [
            (
                "RW-CR-S",
                Arc::new(RwMutex::with_raw(RwCrLock::spin(), vec![0u64; 16]))
                    as Arc<dyn SharedTableRw>,
            ),
            (
                "RW-CR-STP",
                Arc::new(RwCrMutex::default_cr(vec![0u64; 16])) as Arc<dyn SharedTableRw>,
            ),
            (
                "RW-MCS-STP",
                Arc::new(RwMutex::with_raw(RwCrLock::mcs(), vec![0u64; 16])),
            ),
        ] {
            let report = run_rw_loop(
                Arc::clone(&table),
                threads,
                0.15,
                RwLoopShape::new(16, 90),
                0xCAFE + threads as u64,
            );
            assert!(report.ops() > 0, "{name} t{threads} made no progress");
            assert_eq!(
                report.torn_reads, 0,
                "{name} t{threads} tore a read: {report:?}"
            );
        }
    }
}

/// Runs `f` on a helper thread; returns `false` if it failed to
/// finish within `timeout` (deadlock/lost wakeup), propagating panics.
fn run_with_watchdog(timeout: Duration, f: impl FnOnce() + Send + 'static) -> bool {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(timeout) {
        Ok(()) => {
            worker.join().unwrap();
            true
        }
        Err(_) => false,
    }
}
