//! Live (real-thread, real-lock) workload runners.
//!
//! The simulator regenerates the paper's figures at T5 scale; these
//! runners exercise the *real* lock implementations on the host so
//! integration tests and examples can observe actual admission orders
//! and mutual exclusion. Throughput shapes on an arbitrary container
//! host are NOT expected to match the paper.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use malthus::RawLock;
use malthus_park::XorShift64;

/// Geometry of a lock-loop benchmark (RandArray-shaped).
#[derive(Debug, Clone, Copy)]
pub struct LoopShape {
    /// Shared critical-section array size in bytes.
    pub cs_array_bytes: usize,
    /// Random fetches per critical section.
    pub cs_accesses: u32,
    /// Private non-critical array size in bytes.
    pub ncs_array_bytes: usize,
    /// Random fetches per non-critical section.
    pub ncs_accesses: u32,
}

/// Runs `threads` real threads for `seconds` over `lock` with the
/// given loop shape; returns aggregate completed iterations.
pub fn run_lock_loop<L: RawLock + 'static>(
    lock: Arc<L>,
    threads: usize,
    seconds: f64,
    shape: LoopShape,
) -> u64 {
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));
    let shared: Arc<Vec<u32>> = Arc::new((0..shape.cs_array_bytes / 4).map(|i| i as u32).collect());
    let mut handles = Vec::new();
    for t in 0..threads {
        let lock = Arc::clone(&lock);
        let stop = Arc::clone(&stop);
        let total = Arc::clone(&total);
        let shared = Arc::clone(&shared);
        handles.push(std::thread::spawn(move || {
            let rng = XorShift64::new(0xBEEF ^ t as u64);
            let private: Vec<u32> = (0..shape.ncs_array_bytes / 4).map(|i| i as u32).collect();
            let mut sink = 0u32;
            let mut iters = 0u64;
            while !stop.load(Ordering::Relaxed) {
                lock.lock();
                for _ in 0..shape.cs_accesses {
                    let i = rng.next_below(shared.len() as u64) as usize;
                    sink = sink.wrapping_add(shared[i]);
                }
                // SAFETY: we hold the lock.
                unsafe { lock.unlock() };
                for _ in 0..shape.ncs_accesses {
                    let i = rng.next_below(private.len() as u64) as usize;
                    sink = sink.wrapping_add(private[i]);
                }
                iters += 1;
            }
            std::hint::black_box(sink);
            total.fetch_add(iters, Ordering::Relaxed);
        }));
    }
    std::thread::sleep(Duration::from_secs_f64(seconds));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    total.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use malthus::{McsCrLock, McsLock};

    const SMALL: LoopShape = LoopShape {
        cs_array_bytes: 64 * 1024,
        cs_accesses: 50,
        ncs_array_bytes: 64 * 1024,
        ncs_accesses: 200,
    };

    #[test]
    fn live_loop_completes_iterations() {
        let n = run_lock_loop(Arc::new(McsLock::stp()), 4, 0.2, SMALL);
        assert!(n > 0);
    }

    #[test]
    fn live_loop_mcscr_also_runs() {
        let n = run_lock_loop(Arc::new(McsCrLock::stp()), 4, 0.2, SMALL);
        assert!(n > 0);
    }
}
