//! Kyoto Cabinet `kccachetest wicked` (§6.6, Figure 9).
//!
//! An in-memory CacheDB exercised with mixed random operations over a
//! fixed 10 M key range, modified by the paper to use plain POSIX
//! mutexes and a fixed measurement interval. Peak throughput lands
//! near 5 threads and falls off sharply with rising LLC miss rates;
//! past 16 threads the spin variants additionally fight for pipelines.
//!
//! kccachetest's internal footprints are not in the paper, so the
//! region sizes are calibrated stand-ins: a hot hash
//! directory plus a records region larger than the LLC, with a
//! per-thread operation buffer.

use malthus_machinesim::{
    layout, Action, MachineConfig, MemPattern, SimWorkload, Simulation, WorkloadCtx,
};

use crate::choice::LockChoice;

/// Hash-directory region (hot).
pub const DIRECTORY_BYTES: u64 = 2 << 20;
/// Records region (cold, exceeds the LLC).
pub const RECORDS_BYTES: u64 = 48 << 20;
/// Per-thread operation buffer.
pub const PRIVATE_BYTES: u64 = 1 << 20;
/// Directory probes per operation.
pub const DIR_TOUCHES: u32 = 8;
/// Record lines per operation.
pub const REC_TOUCHES: u32 = 4;
/// Private buffer touches per operation (serialization etc.).
pub const PRIV_TOUCHES: u32 = 120;
/// Hashing/compare cycles per operation.
pub const CS_CYCLES: u64 = 500;
/// Off-lock cycles per operation.
pub const NCS_CYCLES: u64 = 900;

/// The per-thread kccachetest program.
pub struct KcThread {
    step: u8,
}

impl SimWorkload for KcThread {
    fn next_action(&mut self, ctx: &mut WorkloadCtx<'_>) -> Action {
        let a = match self.step {
            0 => Action::Acquire(0),
            1 => Action::Compute(CS_CYCLES),
            2 => Action::Access(MemPattern::RandomIn {
                base: layout::SHARED_BASE,
                bytes: DIRECTORY_BYTES,
                count: DIR_TOUCHES,
            }),
            3 => Action::Access(MemPattern::RandomIn {
                base: layout::SHARED_BASE + DIRECTORY_BYTES,
                bytes: RECORDS_BYTES,
                count: REC_TOUCHES,
            }),
            4 => Action::Release(0),
            5 => Action::Compute(NCS_CYCLES),
            6 => Action::Access(MemPattern::RandomIn {
                base: layout::private_base(ctx.tid),
                bytes: PRIVATE_BYTES,
                count: PRIV_TOUCHES,
            }),
            _ => Action::EndIteration,
        };
        self.step = (self.step + 1) % 8;
        a
    }
}

/// Builds the Figure 9 simulation.
pub fn sim(threads: usize, lock: LockChoice) -> Simulation {
    let mut sim = Simulation::new(MachineConfig::t5_socket());
    sim.add_lock(lock.spec(0xF169));
    for _ in 0..threads {
        sim.add_thread(Box::new(KcThread { step: 0 }));
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_is_at_low_thread_counts() {
        let r5 = sim(5, LockChoice::McsS).run(0.005);
        let r32 = sim(32, LockChoice::McsS).run(0.005);
        assert!(
            r5.throughput() > r32.throughput(),
            "Figure 9: peak near 5 threads: {} vs {}",
            r5.throughput(),
            r32.throughput()
        );
    }

    #[test]
    fn llc_miss_rate_rises_with_threads_under_fifo() {
        let r5 = sim(5, LockChoice::McsS).run(0.005);
        let r32 = sim(32, LockChoice::McsS).run(0.005);
        let m5 = r5.llc_misses() as f64 / r5.total_iterations.max(1) as f64;
        let m32 = r32.llc_misses() as f64 / r32.total_iterations.max(1) as f64;
        assert!(m32 > m5, "misses/op must rise: {m5:.1} -> {m32:.1}");
    }

    #[test]
    fn mcscr_stp_avoids_the_collapse() {
        let mcs = sim(64, LockChoice::McsS).run(0.005);
        let cr = sim(64, LockChoice::McsCrStp).run(0.005);
        assert!(
            cr.throughput() > mcs.throughput(),
            "Figure 9: MCSCR-STP must avoid collapse: {} vs {}",
            cr.throughput(),
            mcs.throughput()
        );
    }
}
