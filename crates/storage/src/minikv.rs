//! A leveldb-shaped key-value store (the Figure 8 substrate).
//!
//! §6.5 runs leveldb 1.18's `readwhilewriting` benchmark and notes
//! that "both the central database lock and internal LRUCache locks
//! are highly contended". MiniKv reproduces that *locking structure*:
//! a write-ahead memtable behind one central mutex-protected state
//! plus a block cache ([`SimpleLru`]) behind its own lock. Compaction
//! is modeled by freezing the memtable into sorted immutable runs, of
//! which there are never more than two: a small *accumulator* that
//! every freeze is merged into, and a *base* the accumulator is folded
//! into once rewriting the base costs less than carrying the
//! accumulator further (see [`MiniKv::put`]).
//!
//! The memtable is a hash table, not an ordered map. Every GET and PUT
//! probes it under the shard's lock, which sets the ceiling for every
//! thread queued behind that lock (§6.5's point about leveldb's central
//! DB lock), while its order is wanted only twice: when it freezes into
//! a run, and by a scan. So a lookup is one hash and one bucket probe,
//! and order is made where it is consumed: a freeze sorts the drained
//! pairs with a radix sort over the key bytes that differ, and
//! [`MiniKv::scan_from`] sorts what it selects.
//!
//! Like leveldb, reads consult the memtable, then the frozen runs —
//! each found through its slot table, one block-cache touch per run
//! *consulted*. A run is consulted for a key when its block is
//! searched; the accumulator carries a Bloom filter, and a key its
//! filter rejects does not consult it at all — no slot load, no
//! block id, no cache touch — as leveldb's filter block spares the
//! block-cache lookup of a table that cannot hold the key. The search
//! itself never needs the cache: the walker reports block ids to a
//! sink, so a caller may search first and replay the touches under the
//! cache lock afterwards, the way `LRUCache::Lookup` drops its mutex
//! before the block is searched.
//!
//! The unit of search is a *stretch* of keys, not a key
//! ([`MiniKv::search_many`]): a lookup far beyond the CPU caches is a
//! chain of dependent misses, and serving keys one at a time lets
//! nothing of key *i + 1* start before key *i* is done. A run is
//! indexed by one radix slot table: the key alone names the slot that
//! bounds its bucket, a load that mostly hits the cache, and the
//! bucket's few pairs are the one miss left. Each load of that chain
//! is one stage of the walker, and the walker goes stage by stage over
//! the whole stretch: every line a key needs is requested a stage
//! before it is read, while the other keys' lines are being located.
//! Single-key callers pass a one-key slice to the same walker.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::simplelru::SimpleLru;

/// Pairs per slot of a freshly built slot table, at least: four
/// 16-byte pairs, one 64-byte cache line.
const SLOT_PAIRS: usize = 4;

/// Filter bits per pair of a filtered run: one `u64` word per four
/// pairs, 1/64th of the run.
const FILTER_BITS_PER_KEY: usize = 16;

/// Bits a key sets, and a probe tests, in its one filter word. Three
/// of 64 at four keys a word reject about 99 of 100 absent keys.
const FILTER_BITS_PER_PROBE: u32 = 3;

/// Keys the walker carries through its stages at a time: enough that
/// their cache misses overlap, few enough that the per-key state
/// between two stages stays on the stack.
const WALK_KEYS: usize = 32;

/// One immutable run: `pairs` strictly ascending by key, indexed by one
/// radix slot table — and, for the accumulator only, `filter`: a
/// blocked Bloom filter, one word per probe, that holds every key of
/// `pairs` — sized once per fold cycle and added to at every freeze.
/// An empty `filter` rejects nothing.
///
/// The table cuts the key space above `origin` into buckets of
/// `1 << shift` keys: `slots[b]` is the index of the first pair whose
/// bucket is `b` or later, and a last, sentinel slot holds
/// `pairs.len()`. A lookup computes its bucket from the key alone
/// ([`Run::bucket`]); the two slots at that index bound the pairs that
/// can hold it ([`Run::span`]), and a search of those few pairs ends
/// it. A fresh table takes the smallest shift that leaves at least
/// [`SLOT_PAIRS`] pairs a slot, so it is 1 B a pair or less (0.25 MiB
/// at 250 000 pairs, where the run itself is 4 MiB) and mostly stays
/// in the CPU caches, while a bucket of evenly spread keys is one or
/// two lines of pairs: one miss, which the walker requests before it
/// reads it. Keys that crowd one bucket (a dense cluster beside an
/// outlier) cost a binary search of that bucket, O(log n) and no more.
///
/// Only the accumulator is filtered because only there a rejection
/// saves anything: it holds one key in sixteen yet stood in front of
/// every lookup, while the base is the last stop — a miss there is
/// the answer "absent", and a filter on it bought no throughput for
/// the time every fold would spend building one.
#[derive(Debug, Default)]
struct Run {
    pairs: Vec<(u64, u64)>,
    slots: Vec<u32>,
    origin: u64,
    shift: u32,
    filter: Vec<u64>,
}

impl Run {
    /// Takes over `pairs`, strictly ascending and not empty, and the
    /// `filter` that holds their keys (empty for none), and indexes
    /// them.
    fn new(pairs: Vec<(u64, u64)>, filter: Vec<u64>) -> Run {
        let mut run = Run {
            pairs,
            filter,
            ..Run::default()
        };
        run.index_from(0);
        run
    }

    /// Merges the strictly ascending `newer` into the run, newer-wins
    /// ([`merge_runs`]), and brings the index up to date.
    ///
    /// The merge leaves every pair below `newer`'s first key where it
    /// was, so only the slots from there on are noted again: a freeze
    /// of keys that land near the end of the run (a preload in key
    /// order) appends the slots of the tail it added, not the table.
    fn merge(&mut self, newer: &[(u64, u64)]) {
        let from = self.pairs.partition_point(|p| p.0 < newer[0].0);
        merge_runs(newer, &mut self.pairs);
        self.index_from(from);
    }

    /// Notes the slots of `pairs[from..]`; those of the pairs below
    /// `from` are already in place. The table keeps its `origin` and
    /// `shift`, and grows by appending, while no key lies below
    /// `origin` and it holds from one slot per 16 pairs to one per 2;
    /// otherwise it is built anew, from the first pair.
    fn index_from(&mut self, from: usize) {
        let len = self.pairs.len();
        assert!(len > 0, "a run holds a pair");
        assert!(len < u32::MAX as usize, "a slot indexes a run's pairs");
        debug_assert!(
            self.pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "a run must be strictly ascending"
        );
        #[cfg(test)]
        tests::PAIRS_WRITTEN.set(tests::PAIRS_WRITTEN.get() + len as u64);
        let (first, last) = (self.pairs[0].0, self.pairs[len - 1].0);
        let want = (len / SLOT_PAIRS).max(1) as u64;
        let keep = !self.slots.is_empty() && first >= self.origin && {
            let top = (last - self.origin) >> self.shift;
            top < 2 * want && 4 * (top + 1) >= want
        };
        let from = if keep {
            from
        } else {
            self.origin = first;
            self.shift = (64 - ((last - first) / want).leading_zeros()).min(63);
            self.slots.clear();
            0
        };
        // Each pair writes its index + 1 into the slot after its
        // bucket's, the last pair of a bucket last; a running maximum
        // then carries that into the empty buckets after it. No branch
        // waits on where a bucket ends.
        let (origin, shift) = (self.origin, self.shift);
        let unclamped = |key: u64| ((key - origin) >> shift) as usize;
        let noted = unclamped(self.pairs[from].0) + 1;
        self.slots.truncate(noted);
        #[cfg(test)]
        let kept = self.slots.len();
        self.slots.resize(unclamped(last) + 2, from as u32);
        for (i, &(key, _)) in self.pairs.iter().enumerate().skip(from) {
            self.slots[unclamped(key) + 1] = i as u32 + 1;
        }
        let mut most = from as u32;
        for slot in &mut self.slots[noted..] {
            most = most.max(*slot);
            *slot = most;
        }
        #[cfg(test)]
        tests::SLOTS_WRITTEN.set(tests::SLOTS_WRITTEN.get() + (self.slots.len() - kept) as u64);
    }

    /// Whether the run can hold `key`: never `false` for a key it
    /// holds, seldom `true` for one a filtered run does not.
    fn may_hold(&self, key: u64) -> bool {
        if self.filter.is_empty() {
            return true;
        }
        let (word, bits) = filter_probe(key, self.filter.len());
        self.filter[word] & bits == bits
    }

    /// The bucket of `key`, clamped to the table: a key below `origin`
    /// falls into the first bucket, one past the last into the last.
    fn bucket(&self, key: u64) -> usize {
        let last = self.slots.len() as u64 - 2;
        (key.saturating_sub(self.origin) >> self.shift).min(last) as usize
    }

    /// The pairs of `bucket`: the index range its two slots bound.
    fn span(&self, bucket: usize) -> (usize, usize) {
        (self.slots[bucket] as usize, self.slots[bucket + 1] as usize)
    }

    /// Index of the first pair whose key is `>= key`, given the
    /// [`Run::span`] of its bucket: inside that span, or just past it.
    fn lower_bound_within(&self, (lo, hi): (usize, usize), key: u64) -> usize {
        lo + self.pairs[lo..hi].partition_point(|&(k, _)| k < key)
    }

    /// Index of the first pair whose key is `>= key`: the steps of a
    /// lookup, one after the other.
    fn lower_bound(&self, key: u64) -> usize {
        self.lower_bound_within(self.span(self.bucket(key)), key)
    }

    /// The run's first `limit` pairs with key `>= start`.
    fn tail(&self, start: u64, limit: usize) -> &[(u64, u64)] {
        let from = self.lower_bound(start);
        &self.pairs[from..from.saturating_add(limit).min(self.pairs.len())]
    }
}

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
    /// Unordered: order is made at freeze and by a scan.
    memtable: HashMap<u64, u64, SeededMix>,
    /// At most two immutable runs. **Ordering invariant:
    /// `runs[0]` is the newest run and the last element the oldest** —
    /// with two, the accumulator then the base; a lone run is the
    /// base. Reads walk front to back so the newest value of a key is
    /// found first, and [`merge_runs`] is the only code that depends
    /// on which of two runs is the newer.
    runs: Vec<Run>,
    memtable_limit: usize,
    writes: AtomicU64,
    reads: AtomicU64,
    filter_skips: AtomicU64,
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
            memtable: HashMap::with_hasher(SeededMix(RandomState::new().build_hasher().finish())),
            runs: Vec::new(),
            memtable_limit,
            writes: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            filter_skips: AtomicU64::new(0),
        }
    }

    /// Inserts or updates a key; may freeze the memtable into the runs.
    ///
    /// Background compaction stand-in, two levels: the first freeze
    /// becomes the base; every later one is merged newer-wins into the
    /// accumulator, and the accumulator is folded into the base once
    /// `|acc|² >= |base| × memtable_limit`. Carrying an accumulator of
    /// `a` pairs costs about `a / 2` rewritten pairs per freeze, and a
    /// fold rewrites the base once per `a / memtable_limit` freezes;
    /// the sum is least near that size, so the rule sizes itself from
    /// the two lengths (a fold every freeze or two while the base is a
    /// few memtables, every 8th at 60 memtables) and total merge work
    /// for `N` keys is about `N × sqrt(N / memtable_limit)` pairs where
    /// rewriting the oldest run on every freeze costs `N² / (2 × limit)`.
    ///
    /// The memtable is a hash table, so the insert (and every lookup
    /// under the same lock) is one hash and one bucket probe, not a
    /// B-tree walk; its order is made here, once per freeze: the table
    /// is drained (it keeps its buckets for the next fill) and the
    /// pairs are radix-sorted by key, one pass per key byte in which
    /// they differ. The hash is the filter's finaliser of the key xor a
    /// seed drawn once per store: keys come from clients, and without
    /// the seed a set of keys that share one bucket could be computed
    /// offline (the table holds at most `memtable_limit` keys, which
    /// bounds how long such a probe could get). The filter of the
    /// accumulator is sized once per fold cycle, for the largest
    /// accumulator the fold rule lets through, and each freeze adds the
    /// frozen keys to it — a freeze writes its own keys' bits, not the
    /// whole accumulator's.
    pub fn put(&mut self, key: u64, value: u64) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.memtable.insert(key, value);
        if self.memtable.len() < self.memtable_limit {
            return;
        }
        let mut frozen: Vec<(u64, u64)> = self.memtable.drain().collect();
        radix_sort(&mut frozen);
        let Some(mut base) = self.runs.pop() else {
            self.runs.push(Run::new(frozen, Vec::new()));
            return;
        };
        let mut acc = self.runs.pop().unwrap_or_default();
        acc.merge(&frozen);
        if acc.pairs.len() * acc.pairs.len() >= base.pairs.len() * self.memtable_limit {
            base.merge(&acc.pairs);
            self.runs.push(base);
            return;
        }
        if acc.filter.is_empty() {
            acc.filter = accumulator_filter(base.pairs.len(), self.memtable_limit);
        }
        for &(key, _) in &frozen {
            let (word, bits) = filter_probe(key, acc.filter.len());
            acc.filter[word] |= bits;
        }
        self.runs.push(acc);
        self.runs.push(base);
    }

    /// Point lookup through memtable then runs; `cache` is consulted
    /// per run block touched (modeling block-cache traffic).
    ///
    /// Takes `&self` and counts one read: the whole read path works
    /// through a shared reference, so a Malthusian read-write lock can
    /// serve gets without exclusive access to the store. A one-key
    /// [`MiniKv::search_many`].
    pub fn get(&self, key: u64, cache: &mut SimpleLru, thread: u32) -> Option<u64> {
        let mut value = [None];
        self.search_many(&[key], &mut value, |block| {
            cache.lookup_or_insert(block, thread);
        });
        value[0]
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
    /// `cache` once per run consulted. Does **not** count a read (the
    /// preceding [`MiniKv::get_memtable`] already did). The run stages
    /// of a one-key [`MiniKv::search_many`].
    pub fn get_runs(&self, key: u64, cache: &mut SimpleLru, thread: u32) -> Option<u64> {
        let mut value = [None];
        self.walk_runs(&[key], &mut value, |block| {
            cache.lookup_or_insert(block, thread);
        });
        value[0]
    }

    /// The read path for a stretch of keys: `out[i]` becomes the value
    /// of `keys[i]`, and `consulted` is handed the block id — the run
    /// plus the key's block within it — of every run block searched
    /// for it. Counts one read per key, in one addition.
    ///
    /// Staged over the stretch, not key by key: the memtable for
    /// every key; then run by run, newest first, for every key still
    /// unanswered three stages, each over the whole stretch before
    /// the next begins — the run's filter and the key's bucket, which
    /// warm the bucket's slot; the slot pair, which bounds the bucket
    /// and warms its first and last pair; and the search of those
    /// pairs. In a run far larger than the CPU caches a lookup waits
    /// on the slot (which seldom misses) and then on the bucket's
    /// pairs; here each is on its way into the cache a stage before
    /// the key reads it, while the other keys' are being requested. A
    /// warming load is an ordinary load folded into a word the
    /// optimizer must keep ([`std::hint::black_box`]): nothing waits
    /// for its value, so the loads of a whole stretch are in flight
    /// together, as with a prefetch instruction but in safe code.
    ///
    /// A run whose filter rejects the key is not consulted (counted
    /// in [`MiniKv::filter_skips`]), and a key stops at the first run
    /// that holds it. The ids reach `consulted` **in key order, each
    /// key's newest run first** — what serving the keys one after the
    /// other reports. The search needs no cache, so it can run outside
    /// the cache lock; replaying the ids in order is the same cache
    /// traffic [`MiniKv::get_runs`] makes per key.
    ///
    /// # Panics
    ///
    /// Panics if `keys` and `out` differ in length.
    pub fn search_many(&self, keys: &[u64], out: &mut [Option<u64>], consulted: impl FnMut(u32)) {
        assert_eq!(keys.len(), out.len(), "one answer slot per key");
        for (key, out) in keys.iter().zip(out.iter_mut()) {
            *out = self.memtable.get(key).copied();
        }
        self.walk_runs(keys, out, consulted);
        self.reads.fetch_add(keys.len() as u64, Ordering::Relaxed);
    }

    /// The run stages of [`MiniKv::search_many`], for the keys whose
    /// `out` slot is still `None` — the one place that decides which
    /// runs a key consults. A store that never froze returns at once.
    fn walk_runs(&self, keys: &[u64], out: &mut [Option<u64>], mut consulted: impl FnMut(u32)) {
        if self.runs.is_empty() {
            return;
        }
        let mut skips = 0;
        for (keys, out) in keys.chunks(WALK_KEYS).zip(out.chunks_mut(WALK_KEYS)) {
            // Per key: the runs consulted (bit `r` for `runs[r]`) and
            // its bucket, then that bucket's span, in the run at hand.
            let mut looked = [0u8; WALK_KEYS];
            let mut at = [(0usize, 0usize); WALK_KEYS];
            for (r, run) in self.runs.iter().enumerate() {
                let mut warm = 0;
                for (i, &key) in keys.iter().enumerate() {
                    if out[i].is_some() {
                        continue;
                    }
                    if !run.may_hold(key) {
                        skips += 1;
                        continue;
                    }
                    at[i].0 = run.bucket(key);
                    warm ^= u64::from(run.slots[at[i].0]);
                    looked[i] |= 1 << r;
                }
                std::hint::black_box(warm);
                // Whether key `i` consults this run.
                let here = |i: usize| looked[i] & (1 << r) != 0;
                for i in (0..keys.len()).filter(|&i| here(i)) {
                    at[i] = run.span(at[i].0);
                    // First and last: the lines of an even bucket.
                    let pairs = &run.pairs[at[i].0..at[i].1];
                    if let (Some(first), Some(last)) = (pairs.first(), pairs.last()) {
                        warm ^= first.0 ^ last.0;
                    }
                }
                std::hint::black_box(warm);
                for (i, &key) in keys.iter().enumerate().filter(|&(i, _)| here(i)) {
                    let pair = run.pairs.get(run.lower_bound_within(at[i], key));
                    out[i] = pair.filter(|p| p.0 == key).map(|p| p.1);
                }
            }
            for (&key, looked) in keys.iter().zip(looked) {
                for r in (0..self.runs.len()).filter(|r| looked & (1 << r) != 0) {
                    consulted(block_id(r, key));
                }
            }
        }
        if skips > 0 {
            self.filter_skips.fetch_add(skips, Ordering::Relaxed);
        }
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
    ///
    /// The memtable is unordered, so a scan visits all of it: it
    /// selects the pairs `>= start`, keeps the first `limit` of those
    /// and sorts them. A scan costs O(memtable) whatever its `limit`
    /// (the runs are still entered through their slot tables): over a full
    /// 4 096-key memtable, a 16-pair scan measured about 12 µs and a
    /// 1 000-pair one 33 µs, against 0.3 µs and 3.5 µs when the
    /// memtable was an ordered map, while a memtable lookup fell from
    /// about 70 ns to 9 ns. Scans are rare; point operations are not.
    pub fn scan_from(&self, start: u64, limit: usize) -> Vec<(u64, u64)> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        // Any key among the merged view's first `limit` is among the
        // first `limit` candidates of *some* source, so clipping each
        // source to `limit` pairs loses nothing. The three clipped
        // slices (a run the store does not have is an empty one) are
        // merged newest-wins. The memtable's pairs `>= start` are
        // selected without a branch on the key, which a scan from the
        // middle of the key range would mispredict half the time.
        let mut memtable = vec![(0, 0); self.memtable.len()];
        let mut selected = 0;
        for (&k, &v) in &self.memtable {
            memtable[selected] = (k, v);
            selected += usize::from(k >= start);
        }
        memtable.truncate(selected);
        if memtable.len() > limit {
            memtable.select_nth_unstable(limit);
            memtable.truncate(limit);
        }
        memtable.sort_unstable();
        let run_tail = |i: usize| {
            self.runs
                .get(i)
                .map_or(&[][..], |run| run.tail(start, limit))
        };
        let mut merged = run_tail(1).to_vec();
        merge_runs(run_tail(0), &mut merged);
        merge_runs(&memtable, &mut merged);
        merged.truncate(limit);
        merged
    }

    /// Total keys resident (memtable + runs, with duplicates).
    pub fn len_estimate(&self) -> usize {
        self.memtable.len() + self.runs.iter().map(|run| run.pairs.len()).sum::<usize>()
    }

    /// Writes accepted.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Reads served.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Runs not consulted because their filter rejected the key: each
    /// one a slot-table lookup, a bucket search and a block-cache touch
    /// that did not happen.
    pub fn filter_skips(&self) -> u64 {
        self.filter_skips.load(Ordering::Relaxed)
    }

    /// Number of frozen runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Bytes the runs' indexes take: their slot tables and filters.
    pub fn index_bytes(&self) -> usize {
        (self.runs.iter())
            .map(|run| size_of_val(&run.slots[..]) + size_of_val(&run.filter[..]))
            .sum()
    }
}

/// The block-cache id of `key`'s block in `runs[run]`: the run, then
/// the key's 64-key block of the key space.
fn block_id(run: usize, key: u64) -> u32 {
    ((run as u32) << 24) | (((key as u32) & 0x00FF_FFFF) / 64)
}

/// A two-round multiply–xorshift finaliser: every bit of `key` moves
/// every bit of the result, the top and bottom ones included.
///
/// It shares no constant with [`ShardRouter`](crate::ShardRouter): a
/// shard holds exactly the keys whose fibonacci product lands in its
/// slice of the range, so a filter word or a memtable bucket cut from
/// that same product would leave all but `1 / shards` of a shard's
/// words or buckets empty and pack every key into the rest.
fn mix(key: u64) -> u64 {
    let mut h = (key ^ (key >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h = (h ^ (h >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// The filter word `key` falls into among `words`, and the bits it
/// sets or tests there.
fn filter_probe(key: u64, words: usize) -> (usize, u64) {
    let h = mix(key);
    let word = ((u128::from(h) * words as u128) >> 64) as usize;
    let bits = (0..FILTER_BITS_PER_PROBE).fold(0, |bits, i| bits | 1u64 << ((h >> (6 * i)) & 63));
    (word, bits)
}

/// An empty filter for the accumulator beside a base of `base` pairs,
/// sized for the largest accumulator the fold rule lets through —
/// `⌈√(base × limit)⌉ + limit` keys — so it stays at
/// [`FILTER_BITS_PER_KEY`] or more however far the accumulator grows
/// before the next fold, and is built once per fold cycle.
fn accumulator_filter(base: usize, limit: usize) -> Vec<u64> {
    #[cfg(test)]
    tests::FILTERS_BUILT.set(tests::FILTERS_BUILT.get() + 1);
    let most = (base * limit - 1).isqrt() + 1 + limit;
    vec![0; (most * FILTER_BITS_PER_KEY).div_ceil(64)]
}

/// The memtable's hasher: [`mix`] of the key xor the seed it holds.
#[derive(Clone)]
struct SeededMix(u64);

impl BuildHasher for SeededMix {
    type Hasher = SeededMix;

    fn build_hasher(&self) -> SeededMix {
        self.clone()
    }
}

impl Hasher for SeededMix {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the memtable hashes its u64 keys through write_u64")
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = mix(key ^ self.0);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Sorts `pairs` by key, ascending: a least-significant-digit radix
/// sort, one stable counting pass per key byte in which the keys
/// differ. A byte all keys share orders nothing and costs nothing, so
/// one shard's keys below 2^24 take three passes.
fn radix_sort(pairs: &mut Vec<(u64, u64)>) {
    let Some(&(first, _)) = pairs.first() else {
        return;
    };
    let differ = pairs.iter().fold(0, |d, &(k, _)| d | (k ^ first));
    let mut sorted = Vec::new();
    for shift in (0..64).step_by(8).filter(|s| (differ >> s) & 0xFF != 0) {
        let digit = |key: u64| usize::from((key >> shift) as u8);
        let mut at = [0usize; 256];
        for &(key, _) in pairs.iter() {
            at[digit(key)] += 1;
        }
        let mut sum = 0;
        for slot in &mut at {
            (*slot, sum) = (sum, sum + *slot);
        }
        sorted.resize(pairs.len(), (0, 0));
        for &pair in pairs.iter() {
            let slot = &mut at[digit(pair.0)];
            sorted[*slot] = pair;
            *slot += 1;
        }
        std::mem::swap(pairs, &mut sorted);
    }
}

/// Linear merge of the strictly ascending `newer` into the strictly
/// ascending `older`; on a key both hold, the value from `newer` wins.
///
/// In place, from the back: `older` grows by `newer`'s length and its
/// pairs move up to make room, so a merge touches the memory the run
/// already lives in plus the few pages it grows by — a fresh buffer the
/// size of the base would cost a page fault per 4 KiB, several times
/// the copy itself (measured: a 200 000-pair fold took 2.0 ms into a
/// fresh `Vec`, 0.5 ms in place).
fn merge_runs(newer: &[(u64, u64)], older: &mut Vec<(u64, u64)>) {
    // `older[..read]` is still to be placed, `older[write..]` is final.
    let mut read = older.len();
    older.resize(read + newer.len(), (0, 0));
    let mut write = older.len();
    for &pair in newer.iter().rev() {
        while read > 0 && older[read - 1].0 > pair.0 {
            read -= 1;
            write -= 1;
            older[write] = older[read];
        }
        if read > 0 && older[read - 1].0 == pair.0 {
            read -= 1; // shadowed by `pair`
        }
        write -= 1;
        older[write] = pair;
    }
    // `older[..read]` is where it was; each shadowed pair left one
    // slot of gap above it.
    let gap = write - read;
    if gap > 0 {
        older.copy_within(write.., read);
        older.truncate(older.len() - gap);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The most runs a store ever holds: the accumulator and the base. A
    /// lookup that misses the memtable consults, and so touches the
    /// block cache for, at most this many.
    pub(crate) const MAX_RUNS: usize = 2;
    use std::cell::Cell;
    use std::collections::BTreeMap;

    thread_local! {
        /// Pairs written into runs by this thread's stores: the merge
        /// work [`Run::index_from`] tallies in test builds.
        pub(super) static PAIRS_WRITTEN: Cell<u64> = const { Cell::new(0) };
        /// Accumulator filters this thread's stores allocated.
        pub(super) static FILTERS_BUILT: Cell<u64> = const { Cell::new(0) };
        /// Slots written into run tables by this thread's stores: the
        /// index work [`Run::index_from`] tallies in test builds.
        pub(super) static SLOTS_WRITTEN: Cell<u64> = const { Cell::new(0) };
    }

    fn cache() -> SimpleLru {
        SimpleLru::new(1024)
    }

    /// A put, and whether it froze the memtable and left everything
    /// frozen so far in the base alone — a fold.
    fn put_folds(kv: &mut MiniKv, key: u64, value: u64) -> bool {
        let runs_before = kv.run_count();
        kv.put(key, value);
        assert!(kv.run_count() <= MAX_RUNS, "runs: {}", kv.run_count());
        runs_before >= 1 && kv.memtable.is_empty() && kv.run_count() == 1
    }

    /// What must hold of every run: strictly ascending; a well-formed
    /// slot table ([`assert_table_well_formed`]); and a filter on the
    /// accumulator alone, of at least [`FILTER_BITS_PER_KEY`] bits a
    /// key, which every one of its keys passes, while the base turns no
    /// key away.
    fn assert_runs_well_formed(kv: &MiniKv) {
        assert!(kv.runs.len() <= MAX_RUNS);
        for (r, run) in kv.runs.iter().enumerate() {
            assert!(run.pairs.windows(2).all(|w| w[0].0 < w[1].0));
            assert_table_well_formed(run);
            if r + 1 < kv.runs.len() {
                assert!(
                    run.filter.len() * 64 >= run.pairs.len() * FILTER_BITS_PER_KEY,
                    "{} filter words for {} keys",
                    run.filter.len(),
                    run.pairs.len()
                );
                for &(key, _) in &run.pairs {
                    assert!(run.may_hold(key), "the filter lost key {key}");
                }
            } else {
                assert!(run.filter.is_empty(), "the base carries a filter");
                for &(key, _) in run.pairs.iter().step_by(7) {
                    assert!(run.may_hold(key) && run.may_hold(key ^ 1) && run.may_hold(!key));
                }
            }
        }
    }

    /// What must hold of a slot table: its slots never descend; it
    /// opens at pair 0 and ends in one sentinel, `pairs.len()`; it
    /// holds no more slots than its build rule lets it keep (two per
    /// [`SLOT_PAIRS`] pairs); and every pair lies inside the span of
    /// the bucket a lookup of its key picks.
    fn assert_table_well_formed(run: &Run) {
        let (slots, len) = (&run.slots, run.pairs.len());
        assert!(slots.windows(2).all(|w| w[0] <= w[1]), "slots descend");
        assert_eq!(slots[0], 0, "the first slot is not pair 0");
        assert_eq!(slots[slots.len() - 1] as usize, len, "no sentinel");
        assert!((slots[slots.len() - 2] as usize) < len, "two sentinels");
        let buckets = slots.len() - 1;
        assert!(
            buckets <= 2 * (len / SLOT_PAIRS).max(1),
            "{buckets} buckets, {len} pairs"
        );
        for (i, &(key, _)) in run.pairs.iter().enumerate() {
            let (lo, hi) = run.span(run.bucket(key));
            assert!(lo <= i && i < hi, "pair {i} outside its bucket {lo}..{hi}");
        }
    }

    /// A xorshift stream from `seed`.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
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
            assert!(kv.run_count() <= MAX_RUNS);
        }
        assert!(kv.run_count() >= 1, "freezes expected");
        assert_eq!(kv.memtable.len(), 5, "two freezes of ten");
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
        // Keys 0 and 1 are overwritten after their first values have
        // sunk into the base; the newer values must win at each step
        // they take down: newest run first on the walk, frozen
        // memtable over accumulator, accumulator over base.
        let mut kv = MiniKv::new(4);
        let mut c = cache();
        let mut folds = 0;
        for k in 0..24u64 {
            folds += usize::from(put_folds(&mut kv, k, k));
        }
        assert_eq!((kv.run_count(), folds), (1, 3), "a 24-pair base");
        let mut fresh = 100..;
        let mut overwrite_and_freeze = |kv: &mut MiniKv, key, value| {
            let mut folded = put_folds(kv, key, value);
            for k in fresh.by_ref().take(3) {
                folded |= put_folds(kv, k, k);
            }
            assert_eq!(kv.get_memtable(key), None, "{key} is frozen");
            folded
        };
        // Accumulator (key 0 -> 1000) beside the base (key 0 -> 0).
        assert!(!overwrite_and_freeze(&mut kv, 0, 1_000));
        assert_eq!(kv.run_count(), 2);
        assert_eq!(kv.get(0, &mut c, 0), Some(1_000), "base read first");
        // A freeze (key 0 -> 2000) merged into that accumulator.
        assert!(!overwrite_and_freeze(&mut kv, 0, 2_000));
        assert_eq!(kv.run_count(), 2);
        assert_eq!(kv.get(0, &mut c, 0), Some(2_000), "stale value read");
        // The fold: frozen (key 1 -> 3000) over accumulator over base.
        assert!(overwrite_and_freeze(&mut kv, 1, 3_000), "a fold happens");
        assert_eq!(kv.run_count(), 1);
        assert_eq!(kv.get(0, &mut c, 0), Some(2_000), "stale value read");
        assert_eq!(kv.get(1, &mut c, 0), Some(3_000), "stale value read");
        assert_eq!(kv.scan_from(0, 2), vec![(0, 2_000), (1, 3_000)]);
        // Every other key survived the merges too.
        for k in (2..24).chain(100..109) {
            assert_eq!(kv.get(k, &mut c, 0), Some(k), "key {k}");
        }
        assert_runs_well_formed(&kv);
    }

    #[test]
    fn merge_runs_is_a_newer_wins_union() {
        let merged = |newer: &[(u64, u64)], older: &[(u64, u64)]| {
            let mut merged = older.to_vec();
            merge_runs(newer, &mut merged);
            merged
        };
        let newer = [(1, 11), (3, 13), (5, 15)];
        let older = [(0, 0), (1, 1), (2, 2), (5, 5), (9, 9)];
        assert_eq!(
            merged(&newer, &older),
            [(0, 0), (1, 11), (2, 2), (3, 13), (5, 15), (9, 9)]
        );
        assert_eq!(merged(&[], &older), older);
        assert_eq!(merged(&newer, &[]), newer);
        // Every spacing of `newer` keys over `older`, from all
        // shadowing to a few among many.
        let older: Vec<(u64, u64)> = (0..200).map(|k| (2 * k, k)).collect();
        for gap in 1..70u64 {
            let newer: Vec<(u64, u64)> = (0..=400 / gap).map(|i| (i * gap, 1_000 + i)).collect();
            let mut expect: BTreeMap<u64, u64> = older.iter().copied().collect();
            expect.extend(newer.iter().copied());
            assert!(merged(&newer, &older).into_iter().eq(expect), "gap {gap}");
        }
    }

    #[test]
    fn compaction_bounds_run_count() {
        let mut kv = MiniKv::new(4);
        let mut folds = 0;
        for k in 0..400u64 {
            folds += usize::from(put_folds(&mut kv, k, k));
        }
        // 100 freezes; the base grows, so folds thin out.
        assert!((5..50).contains(&folds), "folds: {folds}");
        assert_eq!(kv.len_estimate(), 400);
        assert_runs_well_formed(&kv);
    }

    #[test]
    fn runs_stay_well_formed_at_every_memtable_limit() {
        // Distinct and repeated keys, sparse enough that blocks span
        // wide key ranges; checked on a schedule (a check walks every
        // pair) and once more at the end.
        for limit in [1, 2, 7, 64, 300] {
            let mut kv = MiniKv::new(limit);
            let mut c = cache();
            let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ limit as u64;
            for i in 0..6_000u64 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                let key = (state >> 33) % 5_000 * 1_000;
                kv.put(key, i);
                if i % 251 == 0 {
                    assert_runs_well_formed(&kv);
                    // A key between two stored ones, and one past the end.
                    assert_eq!(kv.get(key + 1, &mut c, 0), None);
                    assert_eq!(kv.get(u64::MAX, &mut c, 0), None);
                    assert_eq!(kv.get(key, &mut c, 0), Some(i));
                }
            }
            assert_runs_well_formed(&kv);
        }
    }

    #[test]
    fn total_merge_work_grows_as_n_sqrt_n_over_limit() {
        // The amplification the fold rule promises: N distinct keys
        // cost about N * sqrt(N / limit) pairs written into runs
        // (c = 1 in the limit; small stores pay the lower-order
        // terms), where rewriting the oldest run on every freeze cost
        // N^2 / (2 * limit) — 312M pairs at the second size, not 11M.
        for (n, limit) in [(20_000u64, 1usize), (200_000, 64), (200_000, 4_096)] {
            let mut kv = MiniKv::new(limit);
            let before = PAIRS_WRITTEN.get();
            for k in 0..n {
                kv.put(k, k);
            }
            let written = (PAIRS_WRITTEN.get() - before) as f64;
            let bound = 1.25 * n as f64 * (n as f64 / limit as f64).sqrt();
            assert!(written <= bound, "n {n} limit {limit}: {written} > {bound}");
            assert!(
                written >= n as f64 - limit as f64,
                "every frozen pair is written"
            );
        }
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
    fn a_shards_filter_turns_away_the_shards_other_keys() {
        // A filter only ever sees keys the router sent to its shard,
        // which all share the top bits of their fibonacci product: a
        // word index taken from that product would crowd them into a
        // quarter of the words of a 4-shard store and let most absent
        // keys through. One key in sixteen is held, the accumulator's
        // share; the rest of the shard probes.
        let router = crate::ShardRouter::new(4);
        for shard in 0..4 {
            let keys = (0..400_000u64).filter(|&k| router.route(k) == shard);
            let (held, absent): (Vec<_>, Vec<_>) = keys.partition(|k| k % 16 == 0);
            let mut filter = vec![0; (held.len() * FILTER_BITS_PER_KEY).div_ceil(64)];
            for &key in &held {
                let (word, bits) = filter_probe(key, filter.len());
                filter[word] |= bits;
            }
            let run = Run::new(held.iter().map(|&k| (k, k)).collect(), filter);
            assert!(held.iter().all(|&k| run.may_hold(k)));
            let passed = absent.iter().filter(|&&k| run.may_hold(k)).count();
            assert!(
                passed * 20 < absent.len(),
                "shard {shard}: {passed} of {} absent keys pass the filter",
                absent.len()
            );
            let in_use = run.filter.iter().filter(|&&w| w != 0).count();
            assert!(in_use * 10 > run.filter.len() * 9, "{in_use} words in use");
        }
    }

    #[test]
    fn a_run_whose_filter_rejects_the_key_is_not_consulted() {
        let mut kv = MiniKv::new(64);
        for k in 0..40_000u64 {
            kv.put(k * 3, k);
        }
        while kv.run_count() < MAX_RUNS || kv.runs[0].pairs.len() < 1_000 {
            kv.put(kv.writes() * 3, 7);
        }
        assert_runs_well_formed(&kv);
        let acc = &kv.runs[0].pairs;
        let in_acc = |key| acc.binary_search_by_key(&key, |p| p.0).map(|at| acc[at].1);
        // What one key consults, and how many runs it was spared.
        let consults = |key| {
            let (mut value, mut ids) = ([None], Vec::new());
            let before = kv.filter_skips();
            kv.search_many(&[key], &mut value, |id| ids.push(id));
            (value[0], ids, kv.filter_skips() - before)
        };
        let (mut spared, mut looked_up) = (0, 0);
        for &(key, value) in kv.runs[1].pairs.iter().chain(&kv.runs[0].pairs) {
            if kv.memtable.contains_key(&key) {
                continue;
            }
            // An absent neighbour (keys are multiples of three) walks
            // to the base like a key only the base holds.
            for (key, expect) in [(key, Some(value)), (key + 1, None)] {
                let (got, ids, skips) = consults(key);
                if let Ok(newest) = in_acc(key) {
                    assert_eq!((got, ids, skips), (Some(newest), vec![block_id(0, key)], 0));
                    continue;
                }
                assert_eq!(got, expect, "key {key}");
                match skips {
                    0 => assert_eq!(ids, [block_id(0, key), block_id(1, key)]),
                    _ => assert_eq!((ids, skips), (vec![block_id(1, key)], 1)),
                }
                spared += skips;
                looked_up += 1;
            }
        }
        assert!(spared * 20 > looked_up * 19, "{spared} of {looked_up}");
        // The cache sees what was consulted and nothing else.
        let mut c = cache();
        let key = kv.runs[1]
            .pairs
            .iter()
            .map(|p| p.0)
            .find(|&k| in_acc(k).is_err());
        let (_, ids, _) = consults(key.unwrap());
        kv.get_runs(key.unwrap(), &mut c, 0);
        assert_eq!(c.stats().misses, ids.len() as u64);
    }

    #[test]
    fn a_stretch_reports_its_touches_in_key_order_newest_run_first() {
        // More keys than one pass of the walker carries, duplicates
        // among them, against the same keys served one by one.
        let mut kv = MiniKv::new(8);
        for k in 0..3_000u64 {
            kv.put(k * 5 % 2_003, k);
        }
        assert_eq!(kv.run_count(), MAX_RUNS);
        let keys: Vec<u64> = (0..3 * WALK_KEYS as u64 + 5)
            .map(|i| i * 37 % 2_100)
            .collect();
        let (mut values, mut ids) = (vec![None; keys.len()], Vec::new());
        let reads = kv.reads();
        kv.search_many(&keys, &mut values, |id| ids.push(id));
        assert_eq!(kv.reads() - reads, keys.len() as u64);
        let (mut one_by_one, mut ids_one_by_one) = (Vec::new(), Vec::new());
        for &key in &keys {
            let mut value = [None];
            kv.search_many(&[key], &mut value, |id| ids_one_by_one.push(id));
            one_by_one.push(value[0]);
        }
        assert_eq!(values, one_by_one);
        assert_eq!(ids, ids_one_by_one);
        assert!(ids.iter().any(|id| id >> 24 == 0) && ids.iter().any(|id| id >> 24 == 1));
    }

    #[test]
    fn runs_of_every_length_answer_what_a_btreemap_holds() {
        // Lengths 1..=140: one bucket, and up to 35, with the last
        // bucket cut at every offset. Keys 10, 20, …; looked up: every
        // held key, every gap, two below the first and two above the
        // last.
        for n in 1..=140u64 {
            let mut kv = MiniKv::new(n as usize);
            let model: BTreeMap<u64, u64> = (1..=n).map(|i| (i * 10, i)).collect();
            for (&k, &v) in &model {
                kv.put(k, v);
            }
            assert_eq!((kv.run_count(), kv.memtable.len()), (1, 0), "n {n}");
            assert_runs_well_formed(&kv);
            let keys: Vec<u64> = (0..=10 * n + 10).step_by(5).collect();
            let (mut values, mut ids) = (vec![None; keys.len()], Vec::new());
            kv.search_many(&keys, &mut values, |id| ids.push(id));
            for ((&key, value), id) in keys.iter().zip(values).zip(ids.iter()) {
                assert_eq!(value, model.get(&key).copied(), "n {n} key {key}");
                assert_eq!(*id, block_id(0, key), "n {n} key {key}");
            }
            assert_eq!(ids.len(), keys.len(), "n {n}: one run consulted a key");
            for &start in &keys {
                for limit in [1, 3, 70] {
                    let expect: Vec<(u64, u64)> = (model.range(start..))
                        .take(limit)
                        .map(|(&k, &v)| (k, v))
                        .collect();
                    assert_eq!(kv.scan_from(start, limit), expect, "n {n} start {start}");
                }
            }
        }
    }

    #[test]
    fn key_sets_that_defeat_a_uniform_table_answer_what_a_btreemap_holds() {
        // Sets whose keys crowd one bucket of a table cut evenly from
        // the first key to the last, or span it in one or two keys.
        // Each is put in key order (the table grows by appending) and
        // in a scattered order (it is rebuilt), twice with different
        // values, and checked after every freeze: with an accumulator
        // merged beside the base, and after a fold into the base.
        let mut random = xorshift(0x5EED_0000_0000_0002);
        let sets: [(&str, Vec<u64>); 6] = [
            (
                "a dense cluster and u64::MAX",
                (0..3_000)
                    .map(|i| 1_000_000 + 3 * i)
                    .chain([u64::MAX])
                    .collect(),
            ),
            ("0 and u64::MAX", vec![0, u64::MAX]),
            (
                "2^16 consecutive keys",
                (0..1 << 16).map(|i| (1 << 40) + i).collect(),
            ),
            (
                "the top 40 bits shared",
                (0..5_000)
                    .map(|_| 0xAB_CDEF_0123 << 24 | random() >> 40)
                    .collect(),
            ),
            ("multiples of 2^32", (0..5_000).map(|i| i << 32).collect()),
            ("a single pair", vec![42]),
        ];
        for (name, mut keys) in sets {
            keys.sort_unstable();
            keys.dedup();
            let fresh = Run::new(keys.iter().map(|&k| (k, k)).collect(), Vec::new());
            assert_table_well_formed(&fresh);
            let (span, want) = (
                keys[keys.len() - 1] - keys[0],
                (keys.len() / SLOT_PAIRS).max(1),
            );
            assert!(
                fresh.slots.len() - 1 <= want.max(2),
                "{name}: a fresh table is too large"
            );
            assert!(
                fresh.shift == 0 || span >> (fresh.shift - 1) >= want as u64,
                "{name}: a fresh table's shift is not the smallest"
            );
            let mut scattered = keys.clone();
            for i in (1..scattered.len()).rev() {
                scattered.swap(i, (random() % (i as u64 + 1)) as usize);
            }
            for (order, keys) in [("in order", &keys), ("scattered", &scattered)] {
                let mut kv = MiniKv::new((keys.len() / 6).max(1));
                let mut model = BTreeMap::new();
                let (mut merged, mut folded) = (false, false);
                for round in 0..2 {
                    for &key in keys {
                        let runs_before = kv.run_count();
                        kv.put(key, key ^ round);
                        model.insert(key, key ^ round);
                        if !kv.memtable.is_empty() {
                            continue;
                        }
                        merged |= kv.run_count() == 2;
                        folded |= runs_before >= 1 && kv.run_count() == 1;
                        assert_runs_well_formed(&kv);
                        assert_answers_what_a_btreemap_holds(
                            &kv,
                            &model,
                            keys,
                            &format!("{name}, {order}"),
                        );
                    }
                }
                assert!(folded, "{name}, {order}: never folded");
                assert!(
                    merged || keys.len() < 2,
                    "{name}, {order}: never merged into an accumulator"
                );
            }
        }
    }

    /// `kv` against `model` through every read path: `search_many` and
    /// `get_runs` for each of `keys`, its neighbours and the ends of the
    /// key space, and `scan_from` from a sample of those.
    fn assert_answers_what_a_btreemap_holds(
        kv: &MiniKv,
        model: &BTreeMap<u64, u64>,
        keys: &[u64],
        what: &str,
    ) {
        let probes: Vec<u64> = (keys.iter())
            .flat_map(|&k| [k.wrapping_sub(1), k, k.wrapping_add(1)])
            .chain([0, 1, u64::MAX - 1, u64::MAX])
            .collect();
        let mut values = vec![None; probes.len()];
        kv.search_many(&probes, &mut values, |_| {});
        let mut c = cache();
        for (i, (&key, value)) in probes.iter().zip(values).enumerate() {
            let expect = model.get(&key).copied();
            assert_eq!(value, expect, "{what}: search_many of {key}");
            if i % 5 == 0 {
                let split = kv.get_memtable(key).or_else(|| kv.get_runs(key, &mut c, 0));
                assert_eq!(split, expect, "{what}: get_runs of {key}");
            }
        }
        for &start in probes.iter().step_by(97).chain(&probes[probes.len() - 4..]) {
            for limit in [1, 5, 70] {
                let expect: Vec<(u64, u64)> = (model.range(start..))
                    .take(limit)
                    .map(|(&k, &v)| (k, v))
                    .collect();
                assert_eq!(
                    kv.scan_from(start, limit),
                    expect,
                    "{what}: scan from {start}"
                );
            }
        }
    }

    #[test]
    fn the_slot_tables_cost_at_most_two_slots_a_key() {
        // The index work of a 250 000-key load at limit 4 096. In key
        // order a merge appends the slots of the tail it added. In
        // reverse order every merge lands below the run's first key and
        // rebuilds the table, and in a random one it re-notes nearly
        // all of it: one slot per 4 to 8 pairs the merge wrote, and the
        // merges write about N·√(N/limit) ≈ 7.8 N pairs. Measured:
        // 0.42 N, 1.76 N and 1.2 N slots; this test, not a benchmark
        // run, keeps the preload's index work from creeping.
        const N: u64 = 250_000;
        let mut random = xorshift(0x5EED_0000_0000_0003);
        let mut shuffled: Vec<u64> = (0..N).collect();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, (random() % (i as u64 + 1)) as usize);
        }
        for (order, keys) in [
            ("ascending", (0..N).collect::<Vec<_>>()),
            ("descending", (0..N).rev().collect()),
            ("random", shuffled),
        ] {
            let mut kv = MiniKv::new(4_096);
            let before = SLOTS_WRITTEN.get();
            for k in keys {
                kv.put(k * 7, k);
            }
            let written = SLOTS_WRITTEN.get() - before;
            assert!(
                written <= 2 * N,
                "{order}: {written} slots written for {N} keys"
            );
            assert_runs_well_formed(&kv);
        }
    }

    #[test]
    fn the_radix_sort_orders_what_sort_unstable_orders() {
        let mut random = xorshift(0x5EED_0000_0000_0001);
        let random_keys: Vec<u64> = (0..5_000).map(|_| random()).collect();
        let sets: [Vec<u64>; 8] = [
            Vec::new(),
            vec![42],
            vec![u64::MAX, 0],
            vec![u64::MAX, 1, u64::MAX - 1, 0, 1 << 63],
            // Every byte but the lowest two shared.
            (0..4_096)
                .map(|i| 0xABCD_EF01_2345_0000 | (i * 40_503 % 65_536))
                .collect(),
            // Only the top byte differs.
            (0..256u64).rev().map(|b| b << 56 | 0x0012_3456).collect(),
            random_keys.clone(),
            // One shard's keys below 2^24, the top five bytes shared.
            random_keys.iter().map(|k| k >> 40).collect(),
        ];
        for keys in sets {
            // Distinct keys, as a memtable holds them.
            let mut seen = std::collections::HashSet::new();
            let mut pairs: Vec<(u64, u64)> = (keys.iter())
                .filter(|&&k| seen.insert(k))
                .map(|&k| (k, !k))
                .collect();
            let mut expect = pairs.clone();
            expect.sort_unstable_by_key(|p| p.0);
            radix_sort(&mut pairs);
            assert_eq!(pairs, expect, "{} keys", keys.len());
        }
    }

    #[test]
    fn the_memtable_hash_spreads_keys_over_bucket_and_tag_bits() {
        // The table picks a bucket from the low bits of the hash (13 at
        // a 4 096-key memtable's 8 192 buckets) and a tag from the top
        // 7: both must spread keys a weaker hash crowds. One shard's
        // keys share the top bits of their fibonacci product, so the
        // router's multiply would fill a quarter of the tags; keys that
        // differ only above bit 48 share the low bits of any one
        // multiply, so they would all land in one bucket.
        let router = crate::ShardRouter::new(4);
        let one_shard: Vec<u64> = (0..)
            .filter(|&k| router.route(k) == 1)
            .take(1 << 16)
            .collect();
        let high_bits: Vec<u64> = (0..1u64 << 16).map(|i| i << 48).collect();
        for seed in [0, 1, 0x5EED_5EED_5EED_5EED, u64::MAX] {
            let hasher = SeededMix(seed);
            for (set, keys) in [("one shard", &one_shard), ("i << 48", &high_bits)] {
                let hashes: Vec<u64> = keys.iter().map(|&k| hasher.hash_one(k)).collect();
                for (bits, shift) in [(13, 0), (7, 57)] {
                    let mut counts = vec![0u64; 1 << bits];
                    for &h in &hashes {
                        counts[((h >> shift) & ((1 << bits) - 1)) as usize] += 1;
                    }
                    // Pearson's chi-squared against uniform: its mean is
                    // the degrees of freedom, its spread sqrt(2 df).
                    let expect = keys.len() as f64 / counts.len() as f64;
                    let chi2: f64 = (counts.iter())
                        .map(|&c| (c as f64 - expect).powi(2) / expect)
                        .sum();
                    let df = (counts.len() - 1) as f64;
                    assert!(
                        chi2 < df + 6.0 * (2.0 * df).sqrt(),
                        "seed {seed:#x}, {set}, {bits} bits from bit {shift}: chi2 {chi2:.0} for df {df}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_accumulator_filter_is_built_once_per_fold_cycle() {
        for limit in [1, 4, 64] {
            let mut kv = MiniKv::new(limit);
            let before = FILTERS_BUILT.get();
            let (mut cycles, mut freezes_into_acc) = (0, 0);
            for k in 0..20_000u64 {
                let runs_before = kv.run_count();
                kv.put(k * 7, k);
                if kv.memtable.is_empty() && kv.run_count() == 2 {
                    freezes_into_acc += 1;
                    // An accumulator beside the base where there was
                    // none: a fold cycle's first.
                    cycles += u64::from(runs_before == 1);
                }
            }
            assert_runs_well_formed(&kv);
            assert_eq!(FILTERS_BUILT.get() - before, cycles, "limit {limit}");
            assert!(
                freezes_into_acc > 3 * cycles,
                "limit {limit}: {freezes_into_acc} freezes, {cycles} cycles"
            );
        }
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
