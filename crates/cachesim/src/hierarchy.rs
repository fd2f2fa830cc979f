//! A per-core L1/L2 plus shared-LLC hierarchy with cycle costs.
//!
//! [`Hierarchy::access`] walks the levels in order and returns both
//! the level that satisfied the access and its cycle cost, which the
//! machine simulator charges against the accessing thread. Latencies
//! default to T5-plausible values; only their *ordering* matters for
//! reproducing the paper's curve shapes.

use crate::cache::{Cache, CacheConfig};
use crate::tlb::{Tlb, TlbConfig};

/// Which level satisfied an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Core-private L1 data cache.
    L1,
    /// Core-private unified L2.
    L2,
    /// Socket-shared last-level cache.
    Llc,
    /// Memory (LLC miss).
    Dram,
}

/// Hierarchy geometry and latency model.
#[derive(Debug, Clone, Copy)]
pub struct HierarchyConfig {
    /// Number of cores (each gets a private L1/L2/DTLB).
    pub cores: usize,
    /// L1 geometry.
    pub l1: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// Shared LLC geometry.
    pub llc: CacheConfig,
    /// DTLB geometry.
    pub tlb: TlbConfig,
    /// L1 hit latency (cycles).
    pub l1_cycles: u64,
    /// L2 hit latency (cycles).
    pub l2_cycles: u64,
    /// LLC hit latency (cycles).
    pub llc_cycles: u64,
    /// DRAM access latency (cycles).
    pub dram_cycles: u64,
    /// Extra cycles charged for a DTLB miss (table walk).
    pub tlb_miss_cycles: u64,
}

impl HierarchyConfig {
    /// The paper's 16-core T5 socket with plausible latencies.
    pub fn t5(cores: usize) -> Self {
        HierarchyConfig {
            cores,
            l1: CacheConfig::t5_l1d(),
            l2: CacheConfig::t5_l2(),
            llc: CacheConfig::t5_l3(),
            tlb: TlbConfig::t5_dtlb(),
            l1_cycles: 3,
            l2_cycles: 12,
            llc_cycles: 40,
            dram_cycles: 320,
            tlb_miss_cycles: 180,
        }
    }
}

/// Per-level hit counts plus total cycles charged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Accesses satisfied by L1.
    pub l1_hits: u64,
    /// Accesses satisfied by L2.
    pub l2_hits: u64,
    /// Accesses satisfied by the LLC.
    pub llc_hits: u64,
    /// Accesses that went to memory.
    pub dram_accesses: u64,
    /// DTLB misses.
    pub tlb_misses: u64,
    /// Total cycles charged across all accesses.
    pub cycles: u64,
}

/// The full per-socket hierarchy.
#[derive(Debug)]
pub struct Hierarchy {
    config: HierarchyConfig,
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    llc: Cache,
    tlb: Vec<Tlb>,
    stats: HierarchyStats,
}

impl Hierarchy {
    /// Creates an empty hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `config.cores` is zero.
    pub fn new(config: HierarchyConfig) -> Self {
        assert!(config.cores > 0, "need at least one core");
        Hierarchy {
            l1: (0..config.cores).map(|_| Cache::new(config.l1)).collect(),
            l2: (0..config.cores).map(|_| Cache::new(config.l2)).collect(),
            llc: Cache::new(config.llc),
            tlb: (0..config.cores).map(|_| Tlb::new(config.tlb)).collect(),
            config,
            stats: HierarchyStats::default(),
        }
    }

    /// Performs a data access by `cpu` (a logical CPU id) running on
    /// `core`; returns the satisfying level and the cycles charged.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(&mut self, core: usize, cpu: u32, addr: u64) -> (Level, u64) {
        let mut cycles = 0;
        if !self.tlb[core].access(addr) {
            self.stats.tlb_misses += 1;
            cycles += self.config.tlb_miss_cycles;
        }
        let level = if self.l1[core].access(addr, cpu).is_hit() {
            cycles += self.config.l1_cycles;
            self.stats.l1_hits += 1;
            Level::L1
        } else if self.l2[core].access(addr, cpu).is_hit() {
            cycles += self.config.l2_cycles;
            self.stats.l2_hits += 1;
            Level::L2
        } else if self.llc.access(addr, cpu).is_hit() {
            cycles += self.config.llc_cycles;
            self.stats.llc_hits += 1;
            Level::Llc
        } else {
            cycles += self.config.dram_cycles;
            self.stats.dram_accesses += 1;
            Level::Dram
        };
        self.stats.cycles += cycles;
        (level, cycles)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> HierarchyStats {
        self.stats
    }

    /// LLC-level statistics (self/extrinsic classification).
    pub fn llc_stats(&self) -> crate::cache::CacheStats {
        self.llc.stats()
    }

    /// The configuration in use.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Clears all contents and counters.
    pub fn clear(&mut self) {
        for c in &mut self.l1 {
            c.clear();
        }
        for c in &mut self.l2 {
            c.clear();
        }
        self.llc.clear();
        for t in &mut self.tlb {
            t.clear();
        }
        self.stats = HierarchyStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_goes_to_dram_then_l1() {
        let mut h = Hierarchy::new(HierarchyConfig::t5(2));
        let (lvl, cyc) = h.access(0, 0, 0x4000);
        assert_eq!(lvl, Level::Dram);
        assert!(cyc >= 320);
        let (lvl2, cyc2) = h.access(0, 0, 0x4000);
        assert_eq!(lvl2, Level::L1);
        assert_eq!(cyc2, 3);
    }

    #[test]
    fn other_core_hits_shared_llc_not_private_l1() {
        let mut h = Hierarchy::new(HierarchyConfig::t5(2));
        h.access(0, 0, 0x8000);
        let (lvl, _) = h.access(1, 8, 0x8000);
        assert_eq!(lvl, Level::Llc, "second core must find it in the LLC");
    }

    #[test]
    fn l2_catches_l1_overflow() {
        let mut h = Hierarchy::new(HierarchyConfig::t5(1));
        // Touch 32 KB (two passes): exceeds 16 KB L1, fits 128 KB L2.
        for i in 0..512u64 {
            h.access(0, 0, i * 64);
        }
        let before = h.stats().l2_hits;
        for i in 0..512u64 {
            h.access(0, 0, i * 64);
        }
        assert!(
            h.stats().l2_hits > before,
            "L1-evicted lines must be found in L2: {:?}",
            h.stats()
        );
        assert_eq!(h.stats().dram_accesses, 512, "no extra memory traffic");
    }

    #[test]
    fn tlb_miss_charges_walk_cycles() {
        let mut h = Hierarchy::new(HierarchyConfig::t5(1));
        let (_, cyc) = h.access(0, 0, 0);
        assert_eq!(cyc, 180 + 320); // TLB walk + DRAM
        let (_, cyc2) = h.access(0, 0, 8); // same line, same page
        assert_eq!(cyc2, 3);
    }

    #[test]
    fn stats_accumulate_cycles() {
        let mut h = Hierarchy::new(HierarchyConfig::t5(1));
        h.access(0, 0, 0);
        h.access(0, 0, 0);
        assert_eq!(h.stats().cycles, 180 + 320 + 3);
    }

    #[test]
    fn clear_resets_all() {
        let mut h = Hierarchy::new(HierarchyConfig::t5(1));
        h.access(0, 0, 0);
        h.clear();
        assert_eq!(h.stats(), HierarchyStats::default());
        let (lvl, _) = h.access(0, 0, 0);
        assert_eq!(lvl, Level::Dram);
    }
}
