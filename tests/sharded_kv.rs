//! Cross-shard invariants of the sharded KV backend: deterministic
//! router distribution, batched ops round-tripping across shards,
//! coherent racy-snapshot STATS under concurrent writers, and — the
//! point of sharding — lock *independence*: readers and writers on
//! different shards hold their locks simultaneously. The store
//! semantics run over both lock pairs, the default and the MCS
//! baseline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use malthus_obs::SpanContext;
use malthus_pool::{KvService, Parsed};
use malthus_storage::{BatchOp, BatchReply, CrPair, LockPair, McsPair, ShardRouter, ShardedKv};

/// Finds one key per shard (smallest key routing there), so lock
/// tests can aim at specific shards deterministically.
fn key_on_each_shard(router: ShardRouter) -> Vec<u64> {
    let shards = router.shards();
    let mut keys = vec![None; shards];
    let mut found = 0;
    for key in 0..100_000u64 {
        let s = router.route(key);
        if keys[s].is_none() {
            keys[s] = Some(key);
            found += 1;
            if found == shards {
                break;
            }
        }
    }
    keys.into_iter()
        .map(|k| k.expect("100k keys must cover every shard"))
        .collect()
}

/// Under uniform keys no shard may receive more than 2x the mean —
/// the distribution bound the sharded design relies on. Deterministic
/// (fixed router, fixed key streams).
#[test]
fn router_distribution_is_balanced_under_uniform_keys() {
    for shards in [2usize, 3, 4, 8, 16] {
        let router = ShardRouter::new(shards);
        let n = 50_000u64;
        // Three uniform-ish streams: sequential, strided, xorshift.
        let streams: [Box<dyn Fn(u64) -> u64>; 3] = [
            Box::new(|i| i),
            Box::new(|i| i * 8),
            Box::new(|i| {
                let mut x = i ^ 0x9E3779B97F4A7C15;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            }),
        ];
        for (si, stream) in streams.iter().enumerate() {
            let mut counts = vec![0u64; shards];
            for i in 0..n {
                counts[router.route(stream(i))] += 1;
            }
            let mean = n as f64 / shards as f64;
            for (s, &c) in counts.iter().enumerate() {
                assert!(
                    (c as f64) < 2.0 * mean,
                    "stream {si}: shard {s}/{shards} got {c} (mean {mean})"
                );
            }
        }
    }
}

/// MGET/MSET round-trip across shards, answered in the caller's key
/// order, including duplicate and missing keys.
#[test]
fn mget_mset_round_trip_across_shards() {
    fn check<P: LockPair>() {
        let kv = ShardedKv::<P>::memory(4, 64, 256);
        let pairs: Vec<(u64, u64)> = (0..200u64).map(|k| (k * 7, k * 7 + 1)).collect();
        assert_eq!(kv.mset(&pairs).unwrap(), 200);

        // The batch must actually have crossed shards.
        let stats = kv.stats();
        assert!(
            stats.per_shard.iter().all(|s| s.writes > 0),
            "200 spread keys must touch all 4 shards: {:?}",
            stats.per_shard.iter().map(|s| s.writes).collect::<Vec<_>>()
        );

        let keys: Vec<u64> = pairs.iter().map(|&(k, _)| k).collect();
        let got = kv.mget(&keys);
        for (i, (&(k, v), g)) in pairs.iter().zip(&got).enumerate() {
            assert_eq!(*g, Some(v), "key {k} at position {i}");
        }
        // Misses interleaved with hits, order preserved.
        assert_eq!(
            kv.mget(&[0, 1_000_003, 7, 1_000_005, 7]),
            vec![Some(1), None, Some(8), None, Some(8)]
        );
    }
    check::<CrPair>();
    check::<McsPair>();
}

/// STATS sampled while writers run must be a coherent racy snapshot:
/// monotonically non-decreasing sums that never exceed the true
/// total, and exact once the writers join.
#[test]
fn stats_while_writing_returns_a_coherent_sum() {
    fn check<P: LockPair>() {
        let kv = Arc::new(ShardedKv::<P>::memory(4, 128, 256));
        let per_writer = 5_000u64;
        let writers: Vec<_> = (0..3u64)
            .map(|t| {
                let kv = Arc::clone(&kv);
                std::thread::spawn(move || {
                    for i in 0..per_writer {
                        kv.put(t * 1_000_000 + i * 13, i).unwrap();
                    }
                })
            })
            .collect();
        let mut last = 0u64;
        while last < 3 * per_writer {
            let stats = kv.stats();
            let sum = stats.writes();
            let by_shard: u64 = stats.per_shard.iter().map(|s| s.writes).sum();
            assert_eq!(sum, by_shard, "aggregate must equal the shard sum");
            assert!(sum >= last, "sum went backwards: {sum} < {last}");
            assert!(sum <= 3 * per_writer, "sum overshot: {sum}");
            if writers.iter().all(|w| w.is_finished()) {
                break;
            }
            last = sum;
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(kv.stats().writes(), 3 * per_writer, "exact once quiescent");
    }
    check::<CrPair>();
    check::<McsPair>();
}

/// Two readers on *different* shards hold their shard read locks
/// simultaneously (barrier inside the read sections), mirroring
/// `rwlock_semantics::readers_share_writers_exclude` one layer up.
#[test]
fn readers_on_different_shards_overlap() {
    let done = run_with_watchdog(Duration::from_secs(30), || {
        let kv = Arc::new(ShardedKv::new(4, 64, 256));
        let keys = key_on_each_shard(kv.router());
        let inside = Arc::new(Barrier::new(2));
        let handles: Vec<_> = [0usize, 1]
            .into_iter()
            .map(|shard| {
                let kv = Arc::clone(&kv);
                let inside = Arc::clone(&inside);
                let key = keys[shard];
                std::thread::spawn(move || {
                    let guard = kv.db_lock(shard).read();
                    // Both threads are inside their (distinct) shard
                    // read locks at the same time; with one global
                    // lock pair this still passes (readers share) —
                    // the writer variant below is the discriminating
                    // test.
                    inside.wait();
                    assert_eq!(guard.get_memtable(key), None);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    assert!(done, "readers on independent shards deadlocked");
}

/// The acceptance-criterion test: two *writers* on different shards
/// hold their exclusive locks **simultaneously** (barrier inside the
/// write sections). With §6.5's single global DB lock this deadlocks;
/// with per-shard locks it must complete.
#[test]
fn writers_on_different_shards_hold_exclusive_locks_simultaneously() {
    let done = run_with_watchdog(Duration::from_secs(30), || {
        let kv = Arc::new(ShardedKv::new(4, 64, 256));
        let keys = key_on_each_shard(kv.router());
        let inside = Arc::new(Barrier::new(2));
        let concurrent_writers = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = [0usize, 1]
            .into_iter()
            .map(|shard| {
                let kv = Arc::clone(&kv);
                let inside = Arc::clone(&inside);
                let concurrent_writers = Arc::clone(&concurrent_writers);
                let key = keys[shard];
                std::thread::spawn(move || {
                    let mut guard = kv.db_lock(shard).write();
                    concurrent_writers.fetch_add(1, Ordering::SeqCst);
                    // Meeting here proves both exclusive locks are
                    // held at once.
                    inside.wait();
                    assert_eq!(
                        concurrent_writers.load(Ordering::SeqCst),
                        2,
                        "both writers must be inside their critical sections"
                    );
                    guard.put(key, u64::from(shard as u32) + 100);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Both writes landed on their shards.
        assert_eq!(kv.get(keys[0]), Some(100));
        assert_eq!(kv.get(keys[1]), Some(101));
        // And each shard's lock saw exactly one write episode.
        let stats = kv.stats();
        assert!(stats.per_shard[0].db_lock.write_episodes >= 1);
        assert!(stats.per_shard[1].db_lock.write_episodes >= 1);
    });
    assert!(
        done,
        "writers on independent shards deadlocked: shard locks are not independent"
    );
}

/// Overwritten keys keep their latest value through freeze-time run
/// merges, end to end: every key gets a fresh value per round through
/// `KvService::apply_batch_span` (wire grammar → `execute_batch`), rounds
/// are sized so every shard freezes some 25 times — each freeze merged
/// over the shard's accumulator run, the accumulator folded over the
/// base every few freezes — and then every key is read back through
/// both the service and the store.
#[test]
fn overwrites_survive_run_merges_end_to_end() {
    fn check<P: LockPair>() {
        const SHARDS: usize = 4;
        const MEMTABLE: usize = 16;
        // About 25 keys a shard: a key's next value is frozen while its
        // last one still sits in the accumulator, so all three merge
        // orders (memtable, accumulator, base) are exercised.
        const KEYS: u64 = 100;
        const ROUNDS: u64 = 16;
        let service = KvService::from_store(ShardedKv::<P>::memory(SHARDS, MEMTABLE, 64));
        let fresh = |key: u64, round: u64| round * 1_000_000 + key * 3 + 1;
        let keys: Vec<u64> = (0..KEYS).collect();
        let mut out = String::new();
        for round in 0..ROUNDS {
            for window in keys.chunks(16) {
                // Half the window as PUTs, half as one MSET.
                let (puts, mset) = window.split_at(window.len() / 2);
                let mut lines: Vec<String> = puts
                    .iter()
                    .map(|&k| format!("PUT {k} {}", fresh(k, round)))
                    .collect();
                let pairs: Vec<String> = mset
                    .iter()
                    .map(|&k| format!("{k} {}", fresh(k, round)))
                    .collect();
                lines.push(format!("MSET {}", pairs.join(" ")));
                let batch: Vec<Parsed> = lines.iter().map(|l| Parsed::from_line(l)).collect();
                out.clear();
                service.apply_batch_span(&batch, &mut out, &mut SpanContext::detached());
                assert!(!out.contains("ERR"), "round {round}: {out}");
            }
        }
        let stats = service.store().stats();
        for (i, shard) in stats.per_shard.iter().enumerate() {
            let freezes = shard.writes / MEMTABLE as u64;
            assert!(freezes > 4, "shard {i} froze only {freezes} times");
            assert!(shard.runs <= 2, "shard {i} holds {} runs", shard.runs);
            // Every key was written ROUNDS times; a store that merged its
            // runs no longer holds most of the shadowed values.
            assert!(
                shard.keys as u64 <= shard.writes / 2,
                "shard {i} never merged: {} pairs resident of {} written",
                shard.keys,
                shard.writes
            );
        }

        let last = ROUNDS - 1;
        for window in keys.chunks(16) {
            let batch: Vec<Parsed> = window
                .iter()
                .map(|k| Parsed::from_line(&format!("GET {k}")))
                .collect();
            out.clear();
            service.apply_batch_span(&batch, &mut out, &mut SpanContext::detached());
            let want: String = window
                .iter()
                .map(|&k| format!("VAL {}\n", fresh(k, last)))
                .collect();
            assert_eq!(out, want, "stale value served for keys {window:?}");
        }
        let replies = service.store().execute_batch(&[BatchOp::Mget(&keys)]);
        let want: Vec<Option<u64>> = keys.iter().map(|&k| Some(fresh(k, last))).collect();
        assert_eq!(replies, vec![BatchReply::Values(want)]);
        // A read is a key looked up, however many of them a shard serves
        // in one pass: the GETs above and the MGET, nothing else.
        let stats = service.store().stats();
        assert_eq!(stats.reads(), 2 * KEYS);
        for (i, shard) in stats.per_shard.iter().enumerate() {
            let lookups = shard.cache.hits + shard.cache.misses;
            assert!(shard.filter_skips <= shard.reads, "shard {i}: {shard:?}");
            assert!(lookups + shard.filter_skips <= 2 * shard.reads, "shard {i}");
        }
    }
    check::<CrPair>();
    check::<McsPair>();
}

/// While one shard's writer *holds* its exclusive lock, reads and
/// writes on the other shards keep completing — the graceful-
/// degradation contract, as a semantics test rather than a benchmark.
#[test]
fn a_stuck_shard_does_not_block_the_others() {
    let done = run_with_watchdog(Duration::from_secs(30), || {
        let kv = Arc::new(ShardedKv::new(4, 64, 256));
        let keys = key_on_each_shard(kv.router());
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let holder = {
            let kv = Arc::clone(&kv);
            let key = keys[0];
            std::thread::spawn(move || {
                let mut guard = kv.db_lock(0).write();
                guard.put(key, 1);
                entered_tx.send(()).unwrap();
                release_rx.recv().unwrap(); // hold shard 0 exclusively
            })
        };
        entered_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("holder must take shard 0's write lock");

        // Shard 0 is wedged; shards 1..4 must still serve.
        for (shard, &key) in keys.iter().enumerate().skip(1) {
            kv.put(key, key + 7).unwrap();
            assert_eq!(kv.get(key), Some(key + 7), "shard {shard} blocked");
        }
        // A cross-shard MGET that avoids shard 0 completes too.
        let live: Vec<u64> = keys[1..].to_vec();
        assert!(kv.mget(&live).iter().all(Option::is_some));

        release_tx.send(()).unwrap();
        holder.join().unwrap();
        // Once released, shard 0 serves again.
        assert_eq!(kv.get(keys[0]), Some(1));
    });
    assert!(done, "a held shard lock stalled an independent shard");
}

fn run_with_watchdog(timeout: Duration, f: impl FnOnce() + Send + 'static) -> bool {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(timeout) {
        Ok(()) => {
            worker.join().unwrap();
            true
        }
        Err(_) => false,
    }
}
