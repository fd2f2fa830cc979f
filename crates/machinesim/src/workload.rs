//! The simulated-thread programming model.
//!
//! A workload is a small state machine: each time its thread is
//! runnable, the engine asks for the next [`Action`] and executes it
//! in simulated time (charging memory latencies through the cache
//! hierarchy and applying the machine's speed law). Blocking actions
//! (lock acquire, condvar wait) suspend the thread until granted.

use malthus_park::XorShift64;

/// A batch of memory references issued as one action.
#[derive(Debug, Clone)]
pub enum MemPattern {
    /// `count` uniformly random 4-byte reads within `[base, base+bytes)`.
    RandomIn {
        /// Region base address.
        base: u64,
        /// Region size in bytes.
        bytes: u64,
        /// Number of references.
        count: u32,
    },
    /// `count` reads starting at `start`, advancing by `stride`, and
    /// wrapping within `[base, base+bytes)`.
    StrideIn {
        /// Region base address.
        base: u64,
        /// Region size in bytes.
        bytes: u64,
        /// First reference address (must be within the region).
        start: u64,
        /// Distance between consecutive references.
        stride: u64,
        /// Number of references.
        count: u32,
    },
    /// A single read at an explicit address.
    Single(
        /// The address.
        u64,
    ),
}

impl MemPattern {
    /// Materializes the reference addresses using `rng` for the
    /// random variant.
    pub fn addresses(&self, rng: &XorShift64) -> Vec<u64> {
        match *self {
            MemPattern::RandomIn { base, bytes, count } => (0..count)
                .map(|_| base + (rng.next_below(bytes / 4) * 4))
                .collect(),
            MemPattern::StrideIn {
                base,
                bytes,
                start,
                stride,
                count,
            } => {
                let mut addr = start;
                (0..count)
                    .map(|_| {
                        let a = addr;
                        addr += stride;
                        if addr >= base + bytes {
                            addr = base + (addr - base) % bytes;
                        }
                        a
                    })
                    .collect()
            }
            MemPattern::Single(a) => vec![a],
        }
    }
}

/// One step of a simulated thread's program.
#[derive(Debug, Clone)]
pub enum Action {
    /// Execute `0` cycles of pure computation (scaled by the speed
    /// law).
    Compute(
        /// Base cycles at full speed.
        u64,
    ),
    /// Issue a batch of memory references (latencies via the cache
    /// hierarchy, scaled by the speed law).
    Access(
        /// The reference pattern.
        MemPattern,
    ),
    /// Acquire lock `0` (blocking).
    Acquire(
        /// Lock index.
        usize,
    ),
    /// Release lock `0`.
    Release(
        /// Lock index.
        usize,
    ),
    /// Atomically release the lock and wait on the condvar; on wakeup
    /// the lock is reacquired before the program continues.
    CondWait {
        /// Condvar index.
        cv: usize,
        /// The lock protecting the condition.
        lock: usize,
    },
    /// Wake one condvar waiter.
    CondNotifyOne(
        /// Condvar index.
        usize,
    ),
    /// Wake all condvar waiters.
    CondNotifyAll(
        /// Condvar index.
        usize,
    ),
    /// Mark the end of one benchmark iteration (throughput counter).
    EndIteration,
}

/// Context handed to workloads when they emit their next action.
pub struct WorkloadCtx<'a> {
    /// This thread's id.
    pub tid: usize,
    /// Deterministic per-thread generator.
    pub rng: &'a XorShift64,
    /// Iterations completed so far by this thread.
    pub iterations: u64,
}

/// A simulated thread body.
pub trait SimWorkload: Send {
    /// Returns the next action; called whenever the thread is
    /// runnable. Programs loop forever — the engine stops them at the
    /// end of the measurement interval.
    fn next_action(&mut self, ctx: &mut WorkloadCtx<'_>) -> Action;
}

/// Blanket impl so plain closures can serve as workloads.
impl<F> SimWorkload for F
where
    F: FnMut(&mut WorkloadCtx<'_>) -> Action + Send,
{
    fn next_action(&mut self, ctx: &mut WorkloadCtx<'_>) -> Action {
        self(ctx)
    }
}

/// Address-space layout helpers shared by the workload definitions.
pub mod layout {
    /// Base of the shared (critical-section) region.
    pub const SHARED_BASE: u64 = 0x1000_0000;

    /// Base of thread `tid`'s private region (regions are 1 GiB apart,
    /// far beyond any cache geometry's reach of aliasing concerns).
    pub fn private_base(tid: usize) -> u64 {
        0x40_0000_0000 + (tid as u64) * 0x4000_0000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_pattern_stays_in_region() {
        let rng = XorShift64::new(9);
        let p = MemPattern::RandomIn {
            base: 0x1000,
            bytes: 4096,
            count: 1000,
        };
        for a in p.addresses(&rng) {
            assert!((0x1000..0x2000).contains(&a));
            assert_eq!(a % 4, 0);
        }
    }

    #[test]
    fn stride_pattern_wraps() {
        let rng = XorShift64::new(9);
        let p = MemPattern::StrideIn {
            base: 0,
            bytes: 100,
            start: 80,
            stride: 30,
            count: 3,
        };
        assert_eq!(p.addresses(&rng), vec![80, 10, 40]);
    }

    #[test]
    fn single_pattern() {
        let rng = XorShift64::new(9);
        assert_eq!(MemPattern::Single(7).addresses(&rng), vec![7]);
    }

    #[test]
    fn private_bases_are_disjoint() {
        let a = layout::private_base(0);
        let b = layout::private_base(1);
        assert!(b - a >= 0x4000_0000);
        assert!(a > layout::SHARED_BASE + 0x1000_0000);
    }

    #[test]
    fn closures_are_workloads() {
        let mut w = |_ctx: &mut WorkloadCtx<'_>| Action::Compute(10);
        let rng = XorShift64::new(1);
        let mut ctx = WorkloadCtx {
            tid: 0,
            rng: &rng,
            iterations: 0,
        };
        assert!(matches!(w.next_action(&mut ctx), Action::Compute(10)));
    }
}
