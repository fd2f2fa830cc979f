//! Differential test: [`MiniKv`] — memtable, accumulator run, base run,
//! slot-table lookups, lazily merged scans — against a `BTreeMap`,
//! which is what all of that must add up to. Every reply of a seeded
//! `put`/`get`/`scan_from` stream is compared, at memtable limits from
//! "every put freezes" to "freezes are rare", and the store never holds
//! more than two runs. (The runs' own shape — ascending pairs, slot
//! table, filter, merge and index work — and key sets that crowd one
//! bucket of a table are checked by the unit tests beside the private
//! `Run`.)
//!
//! And the batch walker against the one-key read path: a stretch of
//! keys through [`MiniKv::search_many`] must give the values, the cache
//! touches in their order and the read count of the same keys served
//! one after the other with `get_memtable().or_else(get_runs)`.
//!
//! The memtable keeps no order, so scans that start and stop inside it
//! are checked on their own, at every fill level it passes through.

use std::collections::{BTreeMap, BTreeSet};

use malthus_park::XorShift64;
use malthus_storage::{MiniKv, SimpleLru};

const OPS: usize = 200_000;
/// Keys are multiples of a stride over a bounded space: overwrites are
/// common, and so are lookups of absent keys between two stored ones.
const KEY_SPACE: u64 = 60_000;
const STRIDE: u64 = 1_000_003;

fn run(limit: usize, seed: u64) {
    let rng = XorShift64::new(seed);
    let mut kv = MiniKv::new(limit);
    let mut cache = SimpleLru::new(64);
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let key = || rng.next_below(KEY_SPACE) * STRIDE;
    let mut most_runs = 0;
    for op in 0..OPS {
        match rng.next_below(10) {
            0..=4 => {
                let (k, v) = (key(), rng.next_u64());
                kv.put(k, v);
                model.insert(k, v);
                most_runs = most_runs.max(kv.run_count());
                assert!(kv.run_count() <= 2, "limit {limit} op {op}");
            }
            5..=8 => {
                // Half the lookups miss by one.
                let k = key() + rng.next_below(2);
                assert_eq!(
                    kv.get(k, &mut cache, 0),
                    model.get(&k).copied(),
                    "limit {limit} op {op} key {k}"
                );
            }
            _ => {
                let (start, n) = (key() + rng.next_below(2), rng.next_below(24) as usize);
                let expect: Vec<(u64, u64)> = model
                    .range(start..)
                    .take(n)
                    .map(|(&k, &v)| (k, v))
                    .collect();
                assert_eq!(kv.scan_from(start, n), expect, "limit {limit} op {op}");
            }
        }
    }
    // Everything, from the very start and past the very end.
    let all: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(kv.scan_from(0, usize::MAX), all, "limit {limit}");
    assert!(kv.scan_from(u64::MAX, 8).is_empty());
    assert_eq!(
        most_runs, 2,
        "limit {limit}: the stream never built an accumulator"
    );
    let stats = cache.stats();
    assert!(stats.hits + stats.misses > 0, "run lookups touch the cache");
}

#[test]
fn every_reply_matches_a_btreemap_at_every_memtable_limit() {
    for (seed, limit) in [1usize, 2, 7, 64, 4_096].into_iter().enumerate() {
        run(limit, 0xD1FF + seed as u64);
    }
}

/// The memtable is unordered, so a scan selects and sorts its part:
/// scans that start inside the memtable's key range and stop inside it
/// (small limits), after every put — so at every fill level, from just
/// frozen to one put short of the next freeze — against a `BTreeMap`.
#[test]
fn small_scans_from_mid_memtable_match_a_btreemap_at_every_fill_level() {
    for (seed, limit) in [2usize, 7, 64].into_iter().enumerate() {
        let rng = XorShift64::new(0x5CA7 + seed as u64);
        let mut kv = MiniKv::new(limit);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        // The keys put since the last freeze: the memtable's.
        let mut memtable = BTreeSet::new();
        let mut scanned_at_fill = vec![0; limit];
        let mut most_runs = 0;
        for put in 0..limit * 60 {
            let (k, v) = (rng.next_below(KEY_SPACE) * STRIDE, rng.next_u64());
            kv.put(k, v);
            most_runs = most_runs.max(kv.run_count());
            model.insert(k, v);
            memtable.insert(k);
            if memtable.len() == limit {
                memtable.clear();
            }
            let Some(&mid) = memtable.iter().nth(memtable.len() / 2) else {
                continue;
            };
            scanned_at_fill[memtable.len()] += 1;
            for start in [mid.saturating_sub(1), mid, mid + 1] {
                for n in [0, 1, 2, 3, limit / 2, limit] {
                    let expect: Vec<(u64, u64)> = model
                        .range(start..)
                        .take(n)
                        .map(|(&k, &v)| (k, v))
                        .collect();
                    assert_eq!(
                        kv.scan_from(start, n),
                        expect,
                        "limit {limit} put {put} start {start} n {n}"
                    );
                }
            }
        }
        assert_eq!(most_runs, 2, "limit {limit}: no accumulator to shadow");
        assert!(
            scanned_at_fill[1..].iter().all(|&scans| scans > 0),
            "limit {limit}: fill levels scanned {scanned_at_fill:?}"
        );
    }
}

/// The block id the read path reports for `key` in run `run`.
fn block_id(run: u32, key: u64) -> u32 {
    (run << 24) | ((key as u32 & 0x00FF_FFFF) / 64)
}

/// Twin stores fed the same puts; between puts, seeded stretches of
/// 1–64 keys go through `search_many` on one and key by key through
/// the split read path on the other.
fn run_stretches(limit: usize, seed: u64) {
    const TID: u32 = 3;
    let rng = XorShift64::new(seed);
    let (mut kv, mut twin) = (MiniKv::new(limit), MiniKv::new(limit));
    // Small enough that blocks are displaced all the time: the
    // counters then depend on the order of the touches, not only on
    // how many there were.
    let (mut cache, mut twin_cache) = (SimpleLru::new(48), SimpleLru::new(48));
    let key = || rng.next_below(KEY_SPACE) * STRIDE;
    // Where a stretch's keys were found (or not), to know the stream
    // reached every place a key can be.
    let (mut in_memtable, mut in_accumulator, mut in_base, mut absent) = (0usize, 0, 0, 0);
    let mut repeats = 0;
    let mut last_put = 0;
    for stretch in 0..OPS / 40 {
        for _ in 0..rng.next_below(48) {
            let (k, v) = (key(), rng.next_u64());
            kv.put(k, v);
            twin.put(k, v);
            last_put = k;
        }
        // A quarter miss by one, and now and then the key most likely
        // to be in the memtable still.
        let mut keys: Vec<u64> = (0..1 + rng.next_below(64))
            .map(|_| match rng.next_below(8) {
                0 => last_put,
                1 | 2 => key() + 1,
                _ => key(),
            })
            .collect();
        for _ in 0..rng.next_below(4) {
            let from = keys[rng.next_below(keys.len() as u64) as usize];
            keys.push(from);
            repeats += 1;
        }
        let (mut values, mut touches) = (vec![None; keys.len()], Vec::new());
        kv.search_many(&keys, &mut values, |block| touches.push(block));
        for &block in &touches {
            cache.lookup_or_insert(block, TID);
        }

        let mut twin_touches = Vec::new();
        for (&k, &value) in keys.iter().zip(&values) {
            let from_memtable = twin.get_memtable(k);
            let expect = from_memtable.or_else(|| twin.get_runs(k, &mut twin_cache, TID));
            assert_eq!(value, expect, "limit {limit} stretch {stretch} key {k}");
            if from_memtable.is_some() {
                in_memtable += 1;
                continue;
            }
            // Which runs that was: a second walk into a cache of its
            // own leaves exactly the consulted blocks behind.
            let mut probe = SimpleLru::new(2);
            twin.get_runs(k, &mut probe, TID);
            let ids = (0..twin.run_count() as u32).map(|run| block_id(run, k));
            let before = twin_touches.len();
            twin_touches.extend(ids.filter(|&id| probe.contains(id)));
            let consulted = &twin_touches[before..];
            assert_eq!(consulted.len() as u64, probe.stats().misses);
            match (expect, consulted.last()) {
                (None, _) => absent += 1,
                (Some(_), Some(id)) if id >> 24 == 0 && twin.run_count() == 2 => {
                    in_accumulator += 1
                }
                (Some(_), _) => in_base += 1,
            }
        }
        assert_eq!(touches, twin_touches, "limit {limit} stretch {stretch}");
        assert_eq!(cache.stats(), twin_cache.stats(), "limit {limit}");
        assert_eq!(kv.reads(), twin.reads(), "limit {limit} stretch {stretch}");
    }
    for (place, keys) in [
        // A memtable of one entry freezes on every put.
        (
            "the memtable",
            if limit == 1 { usize::MAX } else { in_memtable },
        ),
        ("the accumulator", in_accumulator),
        ("the base", in_base),
        ("no place", absent),
        ("a stretch twice", repeats),
    ] {
        assert!(keys > 50, "limit {limit}: {keys} keys found in {place}");
    }
    let stats = cache.stats();
    assert!(stats.hits > 0 && stats.self_displacements > 0, "{stats:?}");
    assert!(
        kv.filter_skips() > 0,
        "no lookup was spared the accumulator"
    );
}

#[test]
fn a_stretch_is_its_keys_served_one_by_one_at_every_memtable_limit() {
    for (seed, limit) in [1usize, 2, 7, 64, 4_096].into_iter().enumerate() {
        run_stretches(limit, 0x57E7 + seed as u64);
    }
}
