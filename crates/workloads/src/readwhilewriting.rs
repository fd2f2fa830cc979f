//! leveldb `readwhilewriting` (§6.5, Figure 8).
//!
//! leveldb 1.18's db_bench: one writer inserts while N−1 readers do
//! point lookups; "both the central database lock and internal
//! LRUCache locks are highly contended". The model: lock 0 is the DB
//! mutex (memtable reference + version check), lock 1 the block-cache
//! mutex; readers then touch block data whose combined footprint
//! scales with the number of circulating readers.
//!
//! leveldb's internal parameters are not in the paper, so region sizes
//! here are calibrated stand-ins; the contention
//! structure — two hot locks, read-mostly — is the faithful part.

use malthus_machinesim::{
    layout, Action, MachineConfig, MemPattern, SimWorkload, Simulation, WorkloadCtx,
};

use crate::choice::LockChoice;

/// Memtable region.
pub const MEMTABLE_BYTES: u64 = 1 << 20;
/// Block-cache metadata region.
pub const CACHE_META_BYTES: u64 = 2 << 20;
/// Block-data region per reader "working window".
pub const BLOCK_WINDOW_BYTES: u64 = 256 << 10;
/// Cycles for a memtable lookup under the DB lock.
pub const DB_CS_CYCLES: u64 = 800;
/// Cycles for a cache lookup under the cache lock.
pub const CACHE_CS_CYCLES: u64 = 300;

/// Reader state machine.
pub struct Reader {
    step: u8,
}

impl SimWorkload for Reader {
    fn next_action(&mut self, ctx: &mut WorkloadCtx<'_>) -> Action {
        let a = match self.step {
            0 => Action::Acquire(0),
            1 => Action::Compute(DB_CS_CYCLES),
            2 => Action::Access(MemPattern::RandomIn {
                base: layout::SHARED_BASE,
                bytes: MEMTABLE_BYTES,
                count: 4,
            }),
            3 => Action::Release(0),
            4 => Action::Acquire(1),
            5 => Action::Compute(CACHE_CS_CYCLES),
            6 => Action::Access(MemPattern::RandomIn {
                base: layout::SHARED_BASE + MEMTABLE_BYTES,
                bytes: CACHE_META_BYTES,
                count: 3,
            }),
            7 => Action::Release(1),
            8 => {
                // Read the block data: a per-reader window models the
                // reader's recently touched blocks.
                Action::Access(MemPattern::RandomIn {
                    base: layout::private_base(ctx.tid),
                    bytes: BLOCK_WINDOW_BYTES,
                    count: 30,
                })
            }
            _ => Action::EndIteration,
        };
        self.step = (self.step + 1) % 10;
        a
    }
}

/// Writer state machine (one per simulation).
pub struct Writer {
    step: u8,
}

impl SimWorkload for Writer {
    fn next_action(&mut self, _ctx: &mut WorkloadCtx<'_>) -> Action {
        let a = match self.step {
            0 => Action::Acquire(0),
            1 => Action::Compute(DB_CS_CYCLES * 2),
            2 => Action::Access(MemPattern::RandomIn {
                base: layout::SHARED_BASE,
                bytes: MEMTABLE_BYTES,
                count: 10,
            }),
            3 => Action::Release(0),
            4 => Action::Compute(800), // WAL append, off-lock
            _ => Action::EndIteration,
        };
        self.step = (self.step + 1) % 6;
        a
    }
}

/// Builds the Figure 8 simulation: `threads − 1` readers + 1 writer
/// (minimum one reader).
pub fn sim(threads: usize, lock: LockChoice) -> Simulation {
    let mut sim = Simulation::new(MachineConfig::t5_socket());
    sim.add_lock(lock.spec(0xF168)); // DB lock
    sim.add_lock(lock.spec(0xF1680)); // cache lock
    let readers = threads.saturating_sub(1).max(1);
    for _ in 0..readers {
        sim.add_thread(Box::new(Reader { step: 0 }));
    }
    sim.add_thread(Box::new(Writer { step: 0 }));
    sim
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_and_writes_progress() {
        let r = sim(4, LockChoice::McsS).run(0.005);
        assert!(r.total_iterations > 100);
        // The writer (last thread) must not starve outright.
        assert!(*r.per_thread_iterations.last().unwrap() > 0);
    }

    #[test]
    fn both_locks_are_exercised() {
        let r = sim(8, LockChoice::McsS).run(0.005);
        assert!(!r.admissions[0].is_empty(), "DB lock idle");
        assert!(!r.admissions[1].is_empty(), "cache lock idle");
    }

    #[test]
    fn cr_wins_at_high_thread_counts() {
        let mcs = sim(64, LockChoice::McsS).run(0.005);
        let cr = sim(64, LockChoice::McsCrStp).run(0.005);
        assert!(
            cr.throughput() > mcs.throughput(),
            "Figure 8: CR must win at 64 threads: {} vs {}",
            cr.throughput(),
            mcs.throughput()
        );
    }
}
