//! Differential test: [`MiniKv`] — memtable, accumulator run, base run,
//! fence-indexed lookups, lazily merged scans — against a `BTreeMap`,
//! which is what all of that must add up to. Every reply of a seeded
//! `put`/`get`/`scan_from` stream is compared, at memtable limits from
//! "every put freezes" to "freezes are rare", and the store never holds
//! more than two runs. (The runs' own shape — ascending pairs, fences,
//! merge work — is checked by the unit tests beside the private `Run`.)

use std::collections::BTreeMap;

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
