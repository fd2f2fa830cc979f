//! Differential test: the slab + hash-index [`SimpleLru`] against the
//! two-`BTreeMap` implementation it replaced, kept here as the
//! reference model. Exact LRU is a deterministic policy, so every
//! return value, every counter and the resident set must agree after
//! every single lookup.

use std::collections::BTreeMap;

use malthus_park::XorShift64;
use malthus_storage::{LruStats, SimpleLru};

/// The pre-PR-13 `SimpleLru`: an ordered key map plus a stamp-ordered
/// map standing in for the recency list.
struct ReferenceLru {
    map: BTreeMap<u32, (u64, u32)>,
    /// stamp -> key; the smallest stamp is the LRU entry.
    order: BTreeMap<u64, u32>,
    capacity: usize,
    clock: u64,
    stats: LruStats,
}

impl ReferenceLru {
    fn new(capacity: usize) -> Self {
        ReferenceLru {
            map: BTreeMap::new(),
            order: BTreeMap::new(),
            capacity,
            clock: 0,
            stats: LruStats::default(),
        }
    }

    fn lookup_or_insert(&mut self, key: u32, thread: u32) -> u32 {
        self.clock += 1;
        let clock = self.clock;
        if let Some((stamp, _)) = self.map.get_mut(&key) {
            self.stats.hits += 1;
            let old = std::mem::replace(stamp, clock);
            self.order.remove(&old);
            self.order.insert(clock, key);
            return key;
        }
        self.stats.misses += 1;
        if self.map.len() == self.capacity {
            let (_, victim_key) = self.order.pop_first().expect("cache full");
            let (_, installer) = self.map.remove(&victim_key).expect("consistent");
            if installer == thread {
                self.stats.self_displacements += 1;
            } else {
                self.stats.cross_displacements += 1;
            }
        }
        self.map.insert(key, (clock, thread));
        self.order.insert(clock, key);
        key
    }
}

/// Drives both caches with the same `lookups` seeded lookups from
/// `installers` installer ids over `universe` keys (spread over the
/// `u32` range the way `MiniKv`'s run-tagged block ids are).
fn drive(capacity: usize, universe: u64, installers: u64, lookups: u64, seed: u64) {
    let rng = XorShift64::new(seed);
    let mut new = SimpleLru::new(capacity);
    let mut old = ReferenceLru::new(capacity);
    for i in 0..lookups {
        let k = rng.next_below(universe);
        let key = (((k % 5) as u32) << 24) | (k / 5) as u32;
        let thread = rng.next_below(installers) as u32;
        let got = new.lookup_or_insert(key, thread);
        let want = old.lookup_or_insert(key, thread);
        assert_eq!(got, want, "capacity {capacity}, lookup {i}: return value");
        assert_eq!(
            new.stats(),
            old.stats,
            "capacity {capacity}, lookup {i}: counters"
        );
        assert_eq!(
            new.len(),
            old.map.len(),
            "capacity {capacity}, lookup {i}: len"
        );
        assert!(new.contains(key), "capacity {capacity}, lookup {i}");
        // Full residency is O(capacity): check it on a sparse schedule.
        // Equal `len` plus this inclusion makes the resident sets equal.
        if i % 65_537 == 0 || i + 1 == lookups {
            for &resident in old.map.keys() {
                assert!(
                    new.contains(resident),
                    "capacity {capacity}, lookup {i}: {resident} must be resident"
                );
            }
        }
    }
    let stats = new.stats();
    assert!(stats.hits > 0 && stats.misses > 0, "{stats:?}");
    assert!(
        stats.self_displacements > 0 && stats.cross_displacements > 0,
        "{stats:?}"
    );
}

#[test]
fn matches_the_btreemap_reference_at_every_capacity() {
    // 1M lookups per capacity, each against a key universe a
    // few times its size so hits and evictions both stay frequent.
    for (capacity, universe, seed) in [
        (1usize, 3u64, 11u64),
        (7, 20, 12),
        (64, 200, 13),
        (8_192, 24_000, 14),
    ] {
        drive(capacity, universe, 5, 1_000_000, seed);
    }
}
