//! A port of CEPH's `SimpleLRU` (the Figure 12 software cache).
//!
//! §6.9: recently accessed elements move to the front of an LRU list
//! and excess elements are trimmed from the tail; on a miss the key
//! itself is installed as the value. The interesting behaviour for the
//! paper is *software-cache thrashing*: with many threads circulating,
//! each thread's keyset evicts the others' — the LRU cache behaves
//! like a small perfectly-associative shared hardware cache.
//!
//! **Departure from CEPH.** CEPH finds entries through a red-black
//! `std::map`; this port uses leveldb's `LRUCache` shape instead: one
//! slab of entries linked into an intrusive MRU↔LRU list, plus a
//! `key → slot` hash index. The policy is still exact LRU — the same
//! keys hit, miss and get displaced, by the same installers — but a
//! lookup is O(1) and, once the slab and the index have grown to
//! capacity, allocates nothing. The subject of §6.9 is the *lock*
//! around this structure, not the map inside it: the critical section
//! only has to be a realistic one, and a tree walk of several hundred
//! nanoseconds under the exclusive lock was not.
//!
//! The index hashes with a fixed multiply-shift, not SipHash: block
//! ids are dense small integers and the hash sits on the hot path. The
//! price is the default hasher's collision-flooding protection, which
//! a benchmark substrate does not need.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hit/miss and displacement counters.
///
/// §6.9 footnote: "In LRUCache it is trivial to collect displacement
/// statistics and discern self-displacement of cache elements versus
/// displacement caused by other threads, which reflects destructive
/// interference."
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LruStats {
    /// Lookups that found the key.
    pub hits: u64,
    /// Lookups that installed the key.
    pub misses: u64,
    /// Evictions where the evicted entry was installed by the same
    /// thread now inserting.
    pub self_displacements: u64,
    /// Evictions caused by a different thread (interference).
    pub cross_displacements: u64,
}

impl LruStats {
    /// Miss ratio in `[0, 1]`; 0 for no lookups.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Multiply-shift hash for `u32` block ids (Fibonacci constant). The
/// product's high half is folded down because the table takes its
/// bucket from the low bits and its tag from the top ones.
#[derive(Debug, Default)]
struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("SimpleLru keys hash through write_u32");
    }

    fn write_u32(&mut self, key: u32) {
        let product = u64::from(key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = product ^ (product >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// "No slot": the list's ends, and the links of an unlinked entry.
const NIL: u32 = u32::MAX;

/// One slab entry. The value is not stored: the miss policy installs
/// the key as its own value.
#[derive(Debug)]
struct Entry {
    key: u32,
    /// Which thread installed this entry.
    installer: u32,
    /// Neighbour towards the MRU end.
    prev: u32,
    /// Neighbour towards the LRU end.
    next: u32,
}

/// A capacity-bounded LRU map from `u32` keys to `u32` values.
///
/// Like the original, this structure is not internally synchronized;
/// the benchmark wraps it in a single mutex — that lock is the
/// experiment.
///
/// # Examples
///
/// ```
/// use malthus_storage::SimpleLru;
///
/// let mut lru = SimpleLru::new(2);
/// lru.lookup_or_insert(1, 0);
/// lru.lookup_or_insert(2, 0);
/// lru.lookup_or_insert(3, 0); // evicts key 1 (LRU)
/// assert!(!lru.contains(1));
/// assert!(lru.contains(2) && lru.contains(3));
/// ```
#[derive(Debug)]
pub struct SimpleLru {
    /// The slab: grows to `capacity`, after which the LRU victim's
    /// slot is reused in place.
    entries: Vec<Entry>,
    /// key -> slot in `entries`.
    index: HashMap<u32, u32, BuildHasherDefault<BlockHasher>>,
    /// Most recently used slot (`NIL` when empty).
    head: u32,
    /// Least recently used slot (`NIL` when empty).
    tail: u32,
    capacity: usize,
    stats: LruStats,
}

impl SimpleLru {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity cache");
        SimpleLru {
            entries: Vec::new(),
            index: HashMap::default(),
            head: NIL,
            tail: NIL,
            // Slot ids are `u32` with `NIL` reserved; `u32` keys could
            // not fill a larger cache anyway.
            capacity: capacity.min(NIL as usize),
            stats: LruStats::default(),
        }
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `key` is resident (does not touch recency).
    pub fn contains(&self, key: u32) -> bool {
        self.index.contains_key(&key)
    }

    /// Counters.
    pub fn stats(&self) -> LruStats {
        self.stats
    }

    /// Looks `key` up on behalf of `thread`; on a miss, installs the
    /// key as its own value (the paper's miss policy) and trims the
    /// tail. Returns the value.
    pub fn lookup_or_insert(&mut self, key: u32, thread: u32) -> u32 {
        if let Some(&slot) = self.index.get(&key) {
            self.stats.hits += 1;
            if slot != self.head {
                self.unlink(slot);
                self.link_front(slot);
            }
            return key;
        }
        self.stats.misses += 1;
        let slot = if self.entries.len() == self.capacity {
            // Trim the LRU tail and reuse its slot.
            let slot = self.tail;
            let victim = &self.entries[slot as usize];
            if victim.installer == thread {
                self.stats.self_displacements += 1;
            } else {
                self.stats.cross_displacements += 1;
            }
            self.index.remove(&victim.key);
            self.unlink(slot);
            let entry = &mut self.entries[slot as usize];
            entry.key = key;
            entry.installer = thread;
            slot
        } else {
            self.entries.push(Entry {
                key,
                installer: thread,
                prev: NIL,
                next: NIL,
            });
            (self.entries.len() - 1) as u32
        };
        self.index.insert(key, slot);
        self.link_front(slot);
        key
    }

    /// Takes `slot` out of the recency list.
    fn unlink(&mut self, slot: u32) {
        let Entry { prev, next, .. } = self.entries[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.entries[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.entries[n as usize].prev = prev,
        }
    }

    /// Makes the unlinked `slot` the most recently used.
    fn link_front(&mut self, slot: u32) {
        let old_head = std::mem::replace(&mut self.head, slot);
        let entry = &mut self.entries[slot as usize];
        entry.prev = NIL;
        entry.next = old_head;
        match old_head {
            NIL => self.tail = slot,
            h => self.entries[h as usize].prev = slot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_value_and_refreshes() {
        let mut c = SimpleLru::new(2);
        c.lookup_or_insert(10, 0);
        c.lookup_or_insert(20, 0);
        // Touch 10 so 20 becomes LRU.
        assert_eq!(c.lookup_or_insert(10, 0), 10);
        c.lookup_or_insert(30, 0);
        assert!(c.contains(10));
        assert!(!c.contains(20));
    }

    #[test]
    fn capacity_is_enforced() {
        let mut c = SimpleLru::new(5);
        for k in 0..100 {
            c.lookup_or_insert(k, 0);
        }
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn displacement_attribution() {
        let mut c = SimpleLru::new(1);
        c.lookup_or_insert(1, 7); // installed by thread 7
        c.lookup_or_insert(2, 7); // evicts own entry
        assert_eq!(c.stats().self_displacements, 1);
        c.lookup_or_insert(3, 9); // thread 9 evicts thread 7's entry
        assert_eq!(c.stats().cross_displacements, 1);
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut c = SimpleLru::new(4);
        c.lookup_or_insert(1, 0);
        c.lookup_or_insert(1, 0);
        c.lookup_or_insert(2, 0);
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
    }

    #[test]
    fn working_set_within_capacity_stops_missing() {
        let mut c = SimpleLru::new(10);
        for _ in 0..5 {
            for k in 0..10 {
                c.lookup_or_insert(k, 0);
            }
        }
        assert_eq!(c.stats().misses, 10);
        assert_eq!(c.stats().hits, 40);
    }

    #[test]
    #[should_panic(expected = "zero-capacity cache")]
    fn zero_capacity_panics() {
        SimpleLru::new(0);
    }
}
