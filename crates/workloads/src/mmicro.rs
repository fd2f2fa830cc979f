//! mmicro (§6.4, Figure 7): central-lock malloc scalability.
//!
//! Each thread loops: allocate and zero a batch of 1000-byte blocks,
//! then free them. Every malloc and free acquires the allocator's
//! central mutex (the Solaris libc splay-tree design). Besides lock
//! contention, CR also reduces the number of distinct malloc'd blocks
//! in flight, improving cache and DTLB hit rates (§6.4).
//!
//! Simulated counterpart: the critical section touches the allocator
//! metadata (splay-tree nodes in a shared region); the block zeroing
//! walks the freshly granted block in the shared heap. One
//! `EndIteration` fires per malloc+free pair, matching the paper's
//! "aggregate malloc-free pairs" metric.

use malthus_machinesim::{
    layout, Action, MachineConfig, MemPattern, SimWorkload, Simulation, WorkloadCtx,
};

use crate::choice::LockChoice;

/// Blocks per batch (scaled down from the paper's 1000 to keep the
/// state machine's period reasonable; the lock-acquisition *rate* per
/// pair is identical).
pub const BATCH: u32 = 100;
/// Block size in bytes.
pub const BLOCK_BYTES: u64 = 1000;
/// Cycles of splay-tree manipulation per allocator call.
pub const TREE_CYCLES: u64 = 250;
/// Random metadata touches (tree nodes) per allocator call.
pub const TREE_TOUCHES: u32 = 4;
/// Size of the allocator-metadata region.
pub const META_BYTES: u64 = 2 << 20;
/// Size of the heap region blocks are carved from.
pub const HEAP_BYTES: u64 = 32 << 20;

/// Phases of the malloc/free batch loop.
enum Phase {
    /// Allocating block `0` of the batch; sub-step `1`.
    Alloc(u32, u8),
    /// Freeing block `0` of the batch; sub-step `1`.
    Free(u32, u8),
}

/// The per-thread mmicro program.
pub struct MmicroThread {
    phase: Phase,
    /// Rotates block placement across iterations.
    epoch: u64,
}

impl MmicroThread {
    /// Creates the state machine.
    pub fn new() -> Self {
        MmicroThread {
            phase: Phase::Alloc(0, 0),
            epoch: 0,
        }
    }

    fn block_addr(&self, tid: usize, i: u32) -> u64 {
        // Blocks land in the shared heap; placement churns with the
        // epoch, as a real free-list hands out different addresses
        // over time.
        let slot = (self.epoch * 31 + i as u64 * 7 + tid as u64 * 131) % (HEAP_BYTES / BLOCK_BYTES);
        layout::SHARED_BASE + META_BYTES + slot * BLOCK_BYTES
    }
}

impl Default for MmicroThread {
    fn default() -> Self {
        Self::new()
    }
}

impl SimWorkload for MmicroThread {
    fn next_action(&mut self, ctx: &mut WorkloadCtx<'_>) -> Action {
        match self.phase {
            Phase::Alloc(i, step) => match step {
                0 => {
                    self.phase = Phase::Alloc(i, 1);
                    Action::Acquire(0)
                }
                1 => {
                    self.phase = Phase::Alloc(i, 2);
                    Action::Access(MemPattern::RandomIn {
                        base: layout::SHARED_BASE,
                        bytes: META_BYTES,
                        count: TREE_TOUCHES,
                    })
                }
                2 => {
                    self.phase = Phase::Alloc(i, 3);
                    Action::Compute(TREE_CYCLES)
                }
                3 => {
                    self.phase = Phase::Alloc(i, 4);
                    Action::Release(0)
                }
                _ => {
                    // Zero the granted block (touch every line).
                    let start = self.block_addr(ctx.tid, i);
                    self.phase = if i + 1 == BATCH {
                        Phase::Free(0, 0)
                    } else {
                        Phase::Alloc(i + 1, 0)
                    };
                    Action::Access(MemPattern::StrideIn {
                        base: start,
                        bytes: BLOCK_BYTES,
                        start,
                        stride: 64,
                        count: (BLOCK_BYTES / 64) as u32,
                    })
                }
            },
            Phase::Free(i, step) => match step {
                0 => {
                    self.phase = Phase::Free(i, 1);
                    Action::Acquire(0)
                }
                1 => {
                    self.phase = Phase::Free(i, 2);
                    Action::Access(MemPattern::RandomIn {
                        base: layout::SHARED_BASE,
                        bytes: META_BYTES,
                        count: TREE_TOUCHES,
                    })
                }
                2 => {
                    self.phase = Phase::Free(i, 3);
                    Action::Compute(TREE_CYCLES)
                }
                3 => {
                    self.phase = Phase::Free(i, 4);
                    Action::Release(0)
                }
                _ => {
                    if i + 1 == BATCH {
                        self.epoch += 1;
                        self.phase = Phase::Alloc(0, 0);
                    } else {
                        self.phase = Phase::Free(i + 1, 0);
                    }
                    // One malloc-free pair completed.
                    Action::EndIteration
                }
            },
        }
    }
}

/// Builds the Figure 7 simulation.
pub fn sim(threads: usize, lock: LockChoice) -> Simulation {
    let mut sim = Simulation::new(MachineConfig::t5_socket());
    sim.add_lock(lock.spec(0xF167));
    for _ in 0..threads {
        sim.add_thread(Box::new(MmicroThread::new()));
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_are_counted() {
        let r = sim(2, LockChoice::McsS).run(0.005);
        assert!(r.total_iterations > 0, "pairs must complete");
        // Two lock acquisitions (one malloc, one free) per pair.
        assert!(r.admissions[0].len() as u64 >= r.total_iterations * 2);
    }

    #[test]
    fn central_lock_limits_scaling() {
        let r4 = sim(4, LockChoice::McsS).run(0.005);
        let r32 = sim(32, LockChoice::McsS).run(0.005);
        // Far beyond saturation: no further scaling, likely collapse.
        assert!(
            r32.throughput() < r4.throughput() * 1.6,
            "allocator lock must bottleneck: {} -> {}",
            r4.throughput(),
            r32.throughput()
        );
    }

    #[test]
    fn cr_wins_under_heavy_threading() {
        let mcs = sim(64, LockChoice::McsS).run(0.005);
        let cr = sim(64, LockChoice::McsCrStp).run(0.005);
        assert!(
            cr.throughput() > mcs.throughput(),
            "Figure 7: CR must win at 64 threads: {} vs {}",
            cr.throughput(),
            mcs.throughput()
        );
    }
}
