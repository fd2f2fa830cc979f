//! Demonstrates the durability tier: write through the per-shard
//! group-committed WALs, "crash" (drop without any shutdown path),
//! reopen and find everything — then reopen armed with the fault plan
//! `storage.fsync=1x1`, so the store's next fsync fails, and watch
//! exactly one shard degrade to read-only while the rest keep serving.
//!
//! ```sh
//! cargo run --release --example kv_durability
//! ```

use malthusian::fault::FaultPlan;
use malthusian::storage::{BatchOp, BatchReply, ShardedKv, WalOptions};

fn main() {
    let dir = std::env::temp_dir().join(format!("malthus-ex-durability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let shards = 4;

    // Generation 1: write a batch and some singles, then just drop
    // the store — no flush call, no shutdown hook. Every acked write
    // is already fsynced by its group commit.
    {
        let (kv, report) = ShardedKv::open(&dir, shards, 1_024, 256).expect("first open");
        assert!(report.clean());
        let pairs: Vec<(u64, u64)> = (0..64u64).map(|k| (k, k * 10)).collect();
        kv.mset(&pairs).expect("healthy store");
        kv.put(1_000, 42).expect("healthy store");
        let synced = kv.stats().wal_syncs();
        println!("# gen 1: wrote 65 pairs with {synced} fsyncs (group commit)");
        assert!(synced < 65, "group commit must amortize fsyncs");
    }

    // Generation 2: reopen replays the logs.
    {
        let (kv, report) = ShardedKv::open(&dir, shards, 1_024, 256).expect("reopen");
        println!(
            "# gen 2: replayed {} pairs in {} records (clean={})",
            report.pairs(),
            report.records(),
            report.clean()
        );
        assert_eq!(kv.get(1_000), Some(42));
        assert_eq!(kv.get(63), Some(630));
    }

    // Generation 3: reopen armed with a one-fault plan — the store's
    // next fsync fails, and the next write is key 0's, on shard 0. That
    // write is refused (and NOT applied), shard 0 turns read-only, the
    // other shards keep accepting writes (the budget is spent), and
    // reads keep working everywhere. `kv_server --fault-plan` arms a
    // store the same way.
    let plan = FaultPlan::parse("storage.fsync=1x1").expect("valid plan");
    let opts = WalOptions {
        faults: Some(plan.arm()),
        ..WalOptions::default()
    };
    let (kv, _) = ShardedKv::open_with(&dir, shards, 1_024, 256, opts).expect("faulty open");
    let mut refused_shard = None;
    let mut landed = 0u64;
    for k in 0..200u64 {
        match kv.put(k, 7_000 + k) {
            Ok(()) => landed += 1,
            Err(e) => {
                refused_shard.get_or_insert(e.shard);
            }
        }
    }
    let stats = kv.stats();
    println!(
        "# gen 3: fsync fault -> shard {:?} read-only ({} of 200 writes landed), \
         wal_errors={}, readonly_shards={}",
        refused_shard,
        landed,
        stats.wal_errors(),
        stats.readonly_shards()
    );
    assert_eq!(refused_shard, Some(0));
    assert_eq!(
        stats.readonly_shards(),
        1,
        "only the faulted shard degrades"
    );
    assert!(landed > 0, "healthy shards must keep accepting writes");
    // Reads still serve everywhere — including the read-only shard.
    assert_eq!(kv.get(1_000), Some(42));
    // Batches report the refusal per-op instead of failing wholesale.
    let replies = kv.execute_batch(&[BatchOp::Put(0, 1), BatchOp::Get(1_000)]);
    println!("# gen 3: batch over the read-only shard -> {replies:?}");
    assert!(matches!(replies[0], BatchReply::Readonly));
    assert!(matches!(replies[1], BatchReply::Value(Some(42))));

    let _ = std::fs::remove_dir_all(&dir);
    println!("# ok");
}
