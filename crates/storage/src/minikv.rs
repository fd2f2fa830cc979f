//! A leveldb-shaped key-value store (the Figure 8 substrate).
//!
//! §6.5 runs leveldb 1.18's `readwhilewriting` benchmark and notes
//! that "both the central database lock and internal LRUCache locks
//! are highly contended". MiniKv reproduces that *locking structure*:
//! a write-ahead memtable behind one central mutex-protected state
//! plus a block cache ([`SimpleLru`]) behind its own lock. Compaction
//! is modeled by freezing the memtable into sorted immutable runs.
//!
//! Like leveldb, reads consult the memtable, then the frozen runs via
//! the block cache.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::simplelru::SimpleLru;

/// A tiny LSM-style store: memtable + immutable sorted runs + block
/// cache.
///
/// Not internally synchronized: the benchmark wraps the *database*
/// (memtable + runs) in one lock and the block cache in another,
/// matching the two contended locks of §6.5. The read/write counters
/// are relaxed atomics so the read path ([`MiniKv::get`],
/// [`MiniKv::get_memtable`]) takes `&self` **and** `MiniKv` is `Sync`
/// — several readers may share the store at once behind a Malthusian
/// read-write lock. Like the locks' `cr_stats`, counter snapshots are
/// tear-free but exact only while the owning lock is quiescent.
#[derive(Debug)]
pub struct MiniKv {
    memtable: BTreeMap<u64, u64>,
    /// Immutable runs, each strictly ascending by key. **Ordering
    /// invariant: `runs[0]` is the newest run and the last element the
    /// oldest** — a freeze inserts at the front, reads walk front to
    /// back so the newest value of a key is found first, and
    /// compaction merges the two at the back.
    runs: Vec<Vec<(u64, u64)>>,
    memtable_limit: usize,
    writes: AtomicU64,
    reads: AtomicU64,
}

impl MiniKv {
    /// Creates a store that freezes its memtable at `memtable_limit`
    /// entries.
    ///
    /// # Panics
    ///
    /// Panics if `memtable_limit` is zero.
    pub fn new(memtable_limit: usize) -> Self {
        assert!(memtable_limit > 0, "memtable must hold something");
        MiniKv {
            memtable: BTreeMap::new(),
            runs: Vec::new(),
            memtable_limit,
            writes: AtomicU64::new(0),
            reads: AtomicU64::new(0),
        }
    }

    /// Inserts or updates a key; may freeze the memtable into a run.
    pub fn put(&mut self, key: u64, value: u64) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.memtable.insert(key, value);
        if self.memtable.len() >= self.memtable_limit {
            let run: Vec<(u64, u64)> = std::mem::take(&mut self.memtable).into_iter().collect();
            self.runs.insert(0, run);
            // Background compaction stand-in: bound the run count by
            // merging the two oldest runs.
            if self.runs.len() > 4 {
                let oldest = self.runs.pop().expect("len > 4");
                let second_oldest = self.runs.pop().expect("len > 3");
                self.runs.push(merge_runs(second_oldest, oldest));
            }
        }
    }

    /// Point lookup through memtable then runs; `cache` is consulted
    /// per run block touched (modeling block-cache traffic).
    ///
    /// Takes `&self` and counts one read: the whole read path works
    /// through a shared reference, so a Malthusian read-write lock can
    /// serve gets without exclusive access to the store.
    pub fn get(&self, key: u64, cache: &mut SimpleLru, thread: u32) -> Option<u64> {
        self.get_memtable(key)
            .or_else(|| self.get_runs(key, cache, thread))
    }

    /// The first half of the read path: memtable only, no block-cache
    /// traffic. Counts one read.
    ///
    /// Split out so a caller holding only a *shared* DB lock can serve
    /// memtable hits without ever touching the (exclusive) block-cache
    /// lock; on a miss it continues with [`MiniKv::get_runs`].
    pub fn get_memtable(&self, key: u64) -> Option<u64> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.memtable.get(&key).copied()
    }

    /// The second half of the read path: the frozen runs, consulting
    /// `cache` once per run touched. Does **not** count a read (the
    /// preceding [`MiniKv::get_memtable`] already did).
    pub fn get_runs(&self, key: u64, cache: &mut SimpleLru, thread: u32) -> Option<u64> {
        for (run_idx, run) in self.runs.iter().enumerate() {
            // One cache lookup per run consulted: block id = run plus
            // the key's block within the run.
            let block = ((run_idx as u32) << 24) | (((key as u32) & 0x00FF_FFFF) / 64);
            cache.lookup_or_insert(block, thread);
            if let Ok(pos) = run.binary_search_by_key(&key, |&(k, _)| k) {
                return Some(run[pos].1);
            }
        }
        None
    }

    /// Ordered range scan: up to `limit` live `(key, value)` pairs
    /// with `key >= start`, ascending, with the usual LSM shadowing
    /// (memtable over runs, newer runs over older).
    ///
    /// Takes `&self` like the rest of the read path, so a caller
    /// holding only a shared DB lock can scan. Does not touch the
    /// block cache: a scan is modeled as a sequential run sweep, which
    /// leveldb also services outside the random-lookup cache path.
    /// Counts one read.
    pub fn scan_from(&self, start: u64, limit: usize) -> Vec<(u64, u64)> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        if limit == 0 {
            return Vec::new();
        }
        // Any key among the merged view's first `limit` must be among
        // the first `limit` candidates of *some* source, so clipping
        // each source to `limit` entries loses nothing. Sources are
        // merged oldest-first so newer values overwrite older ones.
        let mut merged: BTreeMap<u64, u64> = BTreeMap::new();
        for run in self.runs.iter().rev() {
            let from = run.partition_point(|&(k, _)| k < start);
            for &(k, v) in run[from..].iter().take(limit) {
                merged.insert(k, v);
            }
        }
        for (&k, &v) in self.memtable.range(start..).take(limit) {
            merged.insert(k, v);
        }
        merged.into_iter().take(limit).collect()
    }

    /// Total keys resident (memtable + runs, with duplicates).
    pub fn len_estimate(&self) -> usize {
        self.memtable.len() + self.runs.iter().map(Vec::len).sum::<usize>()
    }

    /// Writes accepted.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Reads served.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Number of frozen runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }
}

/// Linear two-way merge of two sorted runs; on a key both hold, the
/// value from `newer` wins.
fn merge_runs(newer: Vec<(u64, u64)>, older: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    let mut merged = Vec::with_capacity(newer.len() + older.len());
    let mut older = older.into_iter().peekable();
    for pair in newer {
        while let Some(old) = older.next_if(|old| old.0 <= pair.0) {
            if old.0 < pair.0 {
                merged.push(old);
            }
        }
        merged.push(pair);
    }
    merged.extend(older);
    debug_assert!(
        merged.windows(2).all(|w| w[0].0 < w[1].0),
        "a merged run must be strictly ascending"
    );
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> SimpleLru {
        SimpleLru::new(1024)
    }

    #[test]
    fn put_get_round_trip() {
        let mut kv = MiniKv::new(100);
        let mut c = cache();
        kv.put(1, 10);
        kv.put(2, 20);
        assert_eq!(kv.get(1, &mut c, 0), Some(10));
        assert_eq!(kv.get(2, &mut c, 0), Some(20));
        assert_eq!(kv.get(3, &mut c, 0), None);
    }

    #[test]
    fn update_wins() {
        let mut kv = MiniKv::new(100);
        let mut c = cache();
        kv.put(1, 10);
        kv.put(1, 11);
        assert_eq!(kv.get(1, &mut c, 0), Some(11));
    }

    #[test]
    fn memtable_freezes_into_runs() {
        let mut kv = MiniKv::new(10);
        let mut c = cache();
        for k in 0..25 {
            kv.put(k, k * 2);
        }
        assert!(kv.run_count() >= 2, "freezes expected");
        // All keys still readable after freezing.
        for k in 0..25 {
            assert_eq!(kv.get(k, &mut c, 0), Some(k * 2), "key {k}");
        }
    }

    #[test]
    fn newer_runs_shadow_older() {
        let mut kv = MiniKv::new(4);
        let mut c = cache();
        for round in 0..6u64 {
            for k in 0..4u64 {
                kv.put(k, round * 100 + k);
            }
        }
        for k in 0..4u64 {
            assert_eq!(kv.get(k, &mut c, 0), Some(500 + k), "key {k}");
        }
    }

    #[test]
    fn merge_keeps_the_newer_value_of_an_overwritten_key() {
        // Key 0 is written twice, then enough *other* keys follow that
        // both writes sink into the two oldest runs and get merged:
        // from then on the merged run is the only place key 0 lives.
        let mut kv = MiniKv::new(4);
        let mut c = cache();
        for k in 0..4u64 {
            kv.put(k, k); // run A: key 0 -> 0
        }
        kv.put(0, 1_000); // run B: key 0 -> 1000, the latest value
        for k in 10..13u64 {
            kv.put(k, k);
        }
        assert_eq!(kv.run_count(), 2);
        for k in 100..140u64 {
            kv.put(k, k); // ten more freezes, none touching key 0
        }
        assert!(kv.writes() / 4 > 4, "more than 4 freezes");
        assert_eq!(kv.run_count(), 4, "compaction ran");
        assert_eq!(kv.get_memtable(0), None);
        assert_eq!(kv.get(0, &mut c, 0), Some(1_000), "stale value read");
        assert_eq!(kv.scan_from(0, 1), vec![(0, 1_000)]);
        // Every other key survived the merges too.
        for k in (1..4).chain(10..13).chain(100..140) {
            assert_eq!(kv.get(k, &mut c, 0), Some(k), "key {k}");
        }
    }

    #[test]
    fn merge_runs_is_a_newer_wins_union() {
        let newer = vec![(1, 11), (3, 13), (5, 15)];
        let older = vec![(0, 0), (1, 1), (2, 2), (5, 5), (9, 9)];
        assert_eq!(
            merge_runs(newer.clone(), older.clone()),
            vec![(0, 0), (1, 11), (2, 2), (3, 13), (5, 15), (9, 9)]
        );
        assert_eq!(merge_runs(Vec::new(), older.clone()), older);
        assert_eq!(merge_runs(newer.clone(), Vec::new()), newer);
    }

    #[test]
    fn compaction_bounds_run_count() {
        let mut kv = MiniKv::new(4);
        for k in 0..400u64 {
            kv.put(k, k);
        }
        assert!(kv.run_count() <= 5, "runs: {}", kv.run_count());
    }

    #[test]
    fn get_works_through_a_shared_reference() {
        let mut kv = MiniKv::new(100);
        kv.put(1, 10);
        let shared: &MiniKv = &kv;
        let mut c = cache();
        assert_eq!(shared.get(1, &mut c, 0), Some(10));
        assert_eq!(shared.get(2, &mut c, 0), None);
        assert_eq!(shared.reads(), 2);
        assert_eq!(shared.writes(), 1);
    }

    #[test]
    fn minikv_is_sync_for_shared_readers() {
        // The RW-lock read path hands `&MiniKv` to several threads at
        // once; the store must stay `Sync` (relaxed-atomic counters).
        fn assert_sync<T: Sync>() {}
        assert_sync::<MiniKv>();
    }

    #[test]
    fn split_read_path_matches_get() {
        let mut kv = MiniKv::new(4);
        let mut c = cache();
        // 17 inserts with limit 4: freezes after keys 3/7/11/15, so
        // key 16 is guaranteed memtable-resident afterwards.
        for k in 0..17u64 {
            kv.put(k, k + 100);
        }
        for k in 0..17u64 {
            let via_split = kv.get_memtable(k).or_else(|| kv.get_runs(k, &mut c, 0));
            assert_eq!(via_split, Some(k + 100), "key {k}");
        }
        // Memtable-resident keys never touch the cache via the split
        // path; frozen keys do.
        let memtable_key = 16u64;
        let before = c.stats().hits + c.stats().misses;
        assert_eq!(
            kv.get_memtable(memtable_key),
            Some(memtable_key + 100),
            "key {memtable_key} must be memtable-resident"
        );
        let after = c.stats().hits + c.stats().misses;
        assert_eq!(before, after, "memtable hit must skip the cache");
        // One read counted per split-path lookup (17 + the probe).
        assert_eq!(kv.reads(), 18);
    }

    #[test]
    fn scan_merges_memtable_and_runs_with_shadowing() {
        let mut kv = MiniKv::new(4);
        // Two generations of the same keys: the newer values must win.
        for k in 0..12u64 {
            kv.put(k, k);
        }
        for k in 0..6u64 {
            kv.put(k, k + 1_000);
        }
        assert!(kv.run_count() >= 1, "freezes expected");
        let all = kv.scan_from(0, 100);
        assert_eq!(all.len(), 12);
        for (i, &(k, v)) in all.iter().enumerate() {
            assert_eq!(k, i as u64, "ascending dense keys");
            let expect = if k < 6 { k + 1_000 } else { k };
            assert_eq!(v, expect, "key {k}");
        }
    }

    #[test]
    fn scan_respects_start_and_limit() {
        let mut kv = MiniKv::new(4);
        for k in 0..20u64 {
            kv.put(k, k * 2);
        }
        let window = kv.scan_from(7, 5);
        assert_eq!(window, vec![(7, 14), (8, 16), (9, 18), (10, 20), (11, 22)]);
        assert!(kv.scan_from(100, 5).is_empty());
        assert!(kv.scan_from(0, 0).is_empty());
        // Scans count as reads.
        assert!(kv.reads() >= 3);
    }

    #[test]
    fn reads_touch_block_cache() {
        let mut kv = MiniKv::new(4);
        let mut c = cache();
        for k in 0..16u64 {
            kv.put(k, k);
        }
        let before = c.stats().hits + c.stats().misses;
        kv.get(0, &mut c, 0);
        let after = c.stats().hits + c.stats().misses;
        assert!(after > before, "run reads must hit the block cache");
    }
}
