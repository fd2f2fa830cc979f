//! A set-associative cache with LRU replacement and installer tags.

/// Configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
}

impl CacheConfig {
    /// T5 per-core L1 data cache: 16 KB, 4-way, 64 B lines.
    pub fn t5_l1d() -> Self {
        CacheConfig {
            size_bytes: 16 * 1024,
            ways: 4,
            line_bytes: 64,
        }
    }

    /// T5 per-core unified L2: 128 KB, 8-way, 64 B lines.
    pub fn t5_l2() -> Self {
        CacheConfig {
            size_bytes: 128 * 1024,
            ways: 8,
            line_bytes: 64,
        }
    }

    /// T5 shared L3 (the socket LLC): 8 MB, 16-way, 64 B lines.
    pub fn t5_l3() -> Self {
        CacheConfig {
            size_bytes: 8 * 1024 * 1024,
            ways: 16,
            line_bytes: 64,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, non-power-of-
    /// two line size, or capacity not divisible by `ways × line`).
    pub fn sets(&self) -> u64 {
        assert!(self.line_bytes.is_power_of_two(), "line size must be 2^k");
        assert!(self.ways > 0 && self.size_bytes > 0, "degenerate geometry");
        let per_way = self.ways as u64 * self.line_bytes;
        assert!(
            self.size_bytes.is_multiple_of(per_way),
            "capacity must divide into ways x lines"
        );
        self.size_bytes / per_way
    }
}

/// Why a miss occurred, per the paper's self/extrinsic taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissKind {
    /// The line was never resident before.
    Cold,
    /// The line was last evicted by a line the *same* CPU installed
    /// (intrinsic self-displacement).
    SelfEvicted,
    /// The line was last evicted by a line installed by a *different*
    /// CPU (destructive interference).
    Extrinsic,
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was resident.
    Hit,
    /// The line was not resident.
    Miss(MissKind),
}

impl AccessOutcome {
    /// Returns `true` on a hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// Aggregate counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Resident accesses.
    pub hits: u64,
    /// First-touch misses.
    pub cold_misses: u64,
    /// Misses caused by the accessor's own earlier installs.
    pub self_misses: u64,
    /// Misses caused by other CPUs' installs (interference).
    pub extrinsic_misses: u64,
}

impl CacheStats {
    /// All misses combined.
    pub fn total_misses(&self) -> u64 {
        self.cold_misses + self.self_misses + self.extrinsic_misses
    }

    /// Miss ratio in `[0, 1]`; 0 for no accesses.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.total_misses();
        if total == 0 {
            0.0
        } else {
            self.total_misses() as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    installer: u32,
    last_used: u64,
    valid: bool,
}

/// A set-associative, LRU, installer-tagged cache model.
#[derive(Debug)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Vec<Way>>,
    /// line address -> CPU that installed the line which evicted it.
    evicted_by: std::collections::HashMap<u64, u32>,
    clock: u64,
    stats: CacheStats,
    line_shift: u32,
    set_mask: u64,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        Cache {
            config,
            sets: vec![
                vec![
                    Way {
                        tag: 0,
                        installer: 0,
                        last_used: 0,
                        valid: false,
                    };
                    config.ways as usize
                ];
                sets as usize
            ],
            evicted_by: std::collections::HashMap::new(),
            clock: 0,
            stats: CacheStats::default(),
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: sets - 1,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accesses the byte at `addr` on behalf of `cpu`, installing the
    /// line on a miss. Returns the outcome with miss classification.
    pub fn access(&mut self, addr: u64, cpu: u32) -> AccessOutcome {
        self.clock += 1;
        let line = addr >> self.line_shift;
        let set_idx = if self.set_mask == 0 {
            0
        } else if (self.set_mask + 1).is_power_of_two() {
            (line & self.set_mask) as usize
        } else {
            (line % (self.set_mask + 1)) as usize
        };
        let clock = self.clock;
        let set = &mut self.sets[set_idx];

        // Hit path.
        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == line) {
            way.last_used = clock;
            self.stats.hits += 1;
            return AccessOutcome::Hit;
        }

        // Miss: classify, then install over the LRU way.
        let kind = match self.evicted_by.remove(&line) {
            None => MissKind::Cold,
            Some(evictor) if evictor == cpu => MissKind::SelfEvicted,
            Some(_) => MissKind::Extrinsic,
        };
        match kind {
            MissKind::Cold => self.stats.cold_misses += 1,
            MissKind::SelfEvicted => self.stats.self_misses += 1,
            MissKind::Extrinsic => self.stats.extrinsic_misses += 1,
        }

        let victim = set
            .iter_mut()
            .min_by_key(|w| if w.valid { w.last_used } else { 0 })
            .expect("ways > 0");
        if victim.valid {
            // Record who displaced the victim: the installer of the
            // *incoming* line (i.e. the accessing CPU).
            self.evicted_by.insert(victim.tag, cpu);
        }
        victim.tag = line;
        victim.installer = cpu;
        victim.last_used = clock;
        victim.valid = true;
        AccessOutcome::Miss(kind)
    }

    /// Returns `true` if `addr`'s line is resident (no state change).
    pub fn probe(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set_idx = (line & self.set_mask) as usize;
        self.sets[set_idx].iter().any(|w| w.valid && w.tag == line)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Invalidates all contents and counters.
    pub fn clear(&mut self) {
        for set in &mut self.sets {
            for way in set {
                way.valid = false;
            }
        }
        self.evicted_by.clear();
        self.stats = CacheStats::default();
        self.clock = 0;
    }
}

#[cfg(test)]
// `0 * 64` is kept as deliberate line-index arithmetic in the tests.
#[allow(clippy::erasing_op)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64-byte lines = 256 bytes.
        Cache::new(CacheConfig {
            size_bytes: 256,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn geometry_sets() {
        assert_eq!(CacheConfig::t5_l3().sets(), 8192);
        assert_eq!(CacheConfig::t5_l1d().sets(), 64);
        assert_eq!(tiny().config().sets(), 2);
    }

    #[test]
    fn first_touch_is_cold_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(0, 0), AccessOutcome::Miss(MissKind::Cold));
        assert_eq!(c.access(63, 0), AccessOutcome::Hit); // same line
        assert_eq!(c.access(64, 0), AccessOutcome::Miss(MissKind::Cold));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().cold_misses, 2);
    }

    #[test]
    fn self_eviction_classified() {
        let mut c = tiny();
        // Set 0 holds lines 0 and 2 (2 ways). Line 4 (same set) evicts
        // LRU = line 0; all installs by CPU 0 -> re-touching line 0 is
        // a self miss.
        c.access(0 * 64, 0);
        c.access(2 * 64, 0);
        c.access(4 * 64, 0);
        assert_eq!(
            c.access(0 * 64, 0),
            AccessOutcome::Miss(MissKind::SelfEvicted)
        );
        assert_eq!(c.stats().self_misses, 1);
    }

    #[test]
    fn extrinsic_eviction_classified() {
        let mut c = tiny();
        c.access(0 * 64, 0); // CPU 0 installs line 0
        c.access(2 * 64, 0);
        c.access(4 * 64, 1); // CPU 1's install evicts line 0
        assert_eq!(
            c.access(0 * 64, 0),
            AccessOutcome::Miss(MissKind::Extrinsic)
        );
        assert_eq!(c.stats().extrinsic_misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        c.access(0 * 64, 0); // set 0, way A
        c.access(2 * 64, 0); // set 0, way B
        c.access(0 * 64, 0); // touch A -> B is LRU
        c.access(4 * 64, 0); // evicts B (line 2)
        assert!(c.probe(0 * 64), "recently used line must survive");
        assert!(!c.probe(2 * 64), "LRU line must be evicted");
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut c = tiny();
        // Odd lines map to set 1; evictions in set 0 leave them alone.
        c.access(64, 0);
        c.access(0 * 64, 0);
        c.access(2 * 64, 0);
        c.access(4 * 64, 0);
        assert!(c.probe(64));
    }

    #[test]
    fn working_set_within_capacity_converges_to_hits() {
        let mut c = Cache::new(CacheConfig::t5_l1d());
        // 8 KB working set in a 16 KB cache: after the first pass,
        // everything hits.
        for pass in 0..3 {
            for i in 0..128u64 {
                let out = c.access(i * 64, 0);
                if pass > 0 {
                    assert!(out.is_hit(), "pass {pass} line {i}");
                }
            }
        }
        assert_eq!(c.stats().total_misses(), 128);
    }

    #[test]
    fn working_set_exceeding_capacity_thrashes() {
        let mut c = tiny(); // 256 B = 4 lines
                            // 8-line cyclic working set with LRU: every access misses.
        for _ in 0..4 {
            for i in 0..8u64 {
                c.access(i * 64, 0);
            }
        }
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn clear_resets_everything() {
        let mut c = tiny();
        c.access(0, 0);
        c.clear();
        assert_eq!(c.stats(), CacheStats::default());
        assert!(!c.probe(0));
    }

    #[test]
    fn miss_ratio_arithmetic() {
        let s = CacheStats {
            hits: 3,
            cold_misses: 1,
            self_misses: 0,
            extrinsic_misses: 0,
        };
        assert!((s.miss_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }
}
