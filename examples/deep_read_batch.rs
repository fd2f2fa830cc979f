//! The store side of the end-to-end `deep_read` workload, in process:
//! a 4-shard store (4 096-key memtables, 8 192-block caches) is
//! preloaded with 1M keys by ascending 512-pair MSETs, then serves
//! 64-op batches of uniformly drawn keys, 95 % GET and 5 % PUT (each
//! PUT rewrites the preloaded value), through
//! `ShardedKv::execute_batch`. Every reply is checked.
//!
//! Prints the preload time, then ns per op over each of five rounds of
//! 20 000 batches: a check of the run walk that takes seconds, not an
//! end-to-end pair. Nothing else may run on the machine meanwhile.
//!
//! Run with `cargo run --release --example deep_read_batch`.

use std::time::Instant;

use malthusian::park::XorShift64;
use malthusian::storage::{BatchOp, BatchReply, ShardedKv};

const KEYS: u64 = 1_000_000;
const MSET_PAIRS: u64 = 512;
const BATCH_OPS: usize = 64;
const BATCHES: usize = 20_000;
const ROUNDS: usize = 5;

fn value(key: u64) -> u64 {
    key ^ 0x5EED
}

fn main() {
    let kv = ShardedKv::new(4, 4_096, 8_192);
    let started = Instant::now();
    for first in (0..KEYS).step_by(MSET_PAIRS as usize) {
        let pairs: Vec<(u64, u64)> = (first..(first + MSET_PAIRS).min(KEYS))
            .map(|k| (k, value(k)))
            .collect();
        kv.mset(&pairs).expect("a memory-only store stays writable");
    }
    println!(
        "# preload: {KEYS} keys in {:.1} ms",
        started.elapsed().as_secs_f64() * 1e3
    );
    let rng = XorShift64::new(0xDEE9);
    for round in 0..ROUNDS {
        let mut elapsed = 0.0;
        for _ in 0..BATCHES {
            let ops: Vec<BatchOp<'_>> = (0..BATCH_OPS)
                .map(|_| {
                    let key = rng.next_below(KEYS);
                    match rng.next_below(100) {
                        0..=4 => BatchOp::Put(key, value(key)),
                        _ => BatchOp::Get(key),
                    }
                })
                .collect();
            let started = Instant::now();
            let replies = kv.execute_batch(&ops);
            elapsed += started.elapsed().as_secs_f64();
            for (op, reply) in ops.iter().zip(&replies) {
                match (op, reply) {
                    (BatchOp::Get(key), BatchReply::Value(got)) => {
                        assert_eq!(*got, Some(value(*key)), "key {key}");
                    }
                    (BatchOp::Put(..), BatchReply::Done) => {}
                    other => panic!("unexpected reply {other:?}"),
                }
            }
        }
        let ns_per_op = elapsed * 1e9 / (BATCHES * BATCH_OPS) as f64;
        println!("# round {round}: execute_batch {ns_per_op:.0} ns/op");
    }
}
