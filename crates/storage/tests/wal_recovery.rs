//! Recovery edge cases for the per-shard write-ahead log, end to end
//! through `ShardedKv::open`: empty logs, torn tails, mid-file
//! checksum corruption, replay idempotence, and checkpoint
//! compaction. Everything here works on real files in a temp
//! directory — the same path a crashed `kv_server` takes at reboot.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use malthus_storage::wal::RECORD_HEADER_BYTES;
use malthus_storage::{ShardedKv, WalOptions};

const MEMTABLE: usize = 1_024;
const CACHE: usize = 256;

/// A fresh per-test directory (pid + counter, no wall-clock entropy).
fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "malthus-walrec-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn shard0_log(dir: &std::path::Path) -> PathBuf {
    dir.join("shard-0.wal")
}

/// Commits `(1, 10)` to a fresh one-shard store at `dir`, then reopens
/// it armed with the fault plan `spec`: the committed record is the
/// prefix the fault must not disturb.
fn committed_then_armed(dir: &std::path::Path, spec: &str) -> ShardedKv {
    {
        let (kv, _) = ShardedKv::open(dir, 1, MEMTABLE, CACHE).unwrap();
        kv.put(1, 10).unwrap();
    }
    let opts = WalOptions {
        faults: Some(malthus_fault::FaultPlan::parse(spec).unwrap().arm()),
        ..WalOptions::default()
    };
    let (kv, report) = ShardedKv::open_with(dir, 1, MEMTABLE, CACHE, opts).unwrap();
    assert_eq!(report.pairs(), 1);
    kv
}

#[test]
fn empty_log_opens_clean() {
    let dir = temp_dir("empty");
    // First open creates the files; no writes happen.
    {
        let (kv, report) = ShardedKv::open(&dir, 2, MEMTABLE, CACHE).unwrap();
        assert!(report.clean());
        assert_eq!(report.records(), 0);
        assert_eq!(kv.get(1), None);
    }
    // Reopening the untouched logs is just as clean.
    let (kv, report) = ShardedKv::open(&dir, 2, MEMTABLE, CACHE).unwrap();
    assert!(report.clean());
    assert_eq!(report.pairs(), 0);
    assert_eq!(kv.get(1), None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_recovers_the_valid_prefix_and_truncates() {
    let dir = temp_dir("torn");
    {
        let (kv, _) = ShardedKv::open(&dir, 1, MEMTABLE, CACHE).unwrap();
        for k in 0..10u64 {
            kv.put(k, k * 3).unwrap();
        }
    }
    let log = shard0_log(&dir);
    let whole = std::fs::metadata(&log).unwrap().len();
    // Simulate a crash mid-append: half a record header's worth of
    // garbage at the tail.
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(&log).unwrap();
        f.write_all(&[0xAB; 5]).unwrap();
    }
    let (kv, report) = ShardedKv::open(&dir, 1, MEMTABLE, CACHE).unwrap();
    assert_eq!(report.torn_tails(), 1);
    assert_eq!(report.bad_records(), 0);
    assert_eq!(report.pairs(), 10);
    for k in 0..10u64 {
        assert_eq!(kv.get(k), Some(k * 3), "key {k}");
    }
    // The torn suffix is gone from disk: the next open is clean.
    assert_eq!(std::fs::metadata(&log).unwrap().len(), whole);
    drop(kv);
    let (_, report) = ShardedKv::open(&dir, 1, MEMTABLE, CACHE).unwrap();
    assert!(report.clean(), "truncation must make the reopen clean");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_checksum_mid_file_stops_replay_with_a_warning_count() {
    let dir = temp_dir("corrupt");
    {
        let (kv, _) = ShardedKv::open(&dir, 1, MEMTABLE, CACHE).unwrap();
        for k in 0..6u64 {
            kv.put(k, k + 100).unwrap(); // one record per put
        }
    }
    // Each singleton-put record is header (8) + count (4) + one pair
    // (16) bytes; flip a payload byte of the third record.
    let log = shard0_log(&dir);
    let mut bytes = std::fs::read(&log).unwrap();
    let record = RECORD_HEADER_BYTES + 4 + 16;
    bytes[2 * record + RECORD_HEADER_BYTES + 6] ^= 0xFF;
    std::fs::write(&log, &bytes).unwrap();

    let (kv, report) = ShardedKv::open(&dir, 1, MEMTABLE, CACHE).unwrap();
    // Replay stopped at the first rejected record...
    assert_eq!(report.bad_records(), 1, "the corruption must be counted");
    assert_eq!(report.pairs(), 2);
    assert_eq!(kv.get(0), Some(100));
    assert_eq!(kv.get(1), Some(101));
    // ...so nothing at or past the corruption survives, even though
    // records 3..6 were internally intact.
    for k in 2..6u64 {
        assert_eq!(kv.get(k), None, "key {k} is past the corruption");
    }
    // The rejected suffix was truncated away: reopening is clean and
    // idempotent.
    drop(kv);
    let (kv, report) = ShardedKv::open(&dir, 1, MEMTABLE, CACHE).unwrap();
    assert!(report.clean());
    assert_eq!(report.pairs(), 2);
    assert_eq!(kv.get(1), Some(101));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_is_idempotent_across_repeated_opens() {
    let dir = temp_dir("idem");
    {
        let (kv, _) = ShardedKv::open(&dir, 4, MEMTABLE, CACHE).unwrap();
        let pairs: Vec<(u64, u64)> = (0..300u64).map(|k| (k * 7, k)).collect();
        kv.mset(&pairs).unwrap();
        kv.put(7, 999).unwrap(); // overwrite: later record wins
    }
    // Open N times without writing: every open must see the identical
    // store and leave the logs byte-identical.
    let logs: Vec<PathBuf> = (0..4).map(|i| dir.join(format!("shard-{i}.wal"))).collect();
    let sizes: Vec<u64> = logs
        .iter()
        .map(|p| std::fs::metadata(p).unwrap().len())
        .collect();
    for round in 0..3 {
        let (kv, report) = ShardedKv::open(&dir, 4, MEMTABLE, CACHE).unwrap();
        assert!(report.clean(), "round {round}");
        assert_eq!(kv.get(7), Some(999), "round {round}");
        for k in 2..300u64 {
            assert_eq!(kv.get(k * 7), Some(k), "round {round} key {}", k * 7);
        }
        drop(kv);
        let now: Vec<u64> = logs
            .iter()
            .map(|p| std::fs::metadata(p).unwrap().len())
            .collect();
        assert_eq!(now, sizes, "read-only opens must not grow the logs");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_compacts_overwrite_heavy_logs_on_open() {
    let dir = temp_dir("ckpt");
    let opts = || WalOptions {
        checkpoint_bytes: 256, // tiny threshold: force compaction
        ..WalOptions::default()
    };
    {
        let (kv, _) = ShardedKv::open_with(&dir, 1, MEMTABLE, CACHE, opts()).unwrap();
        // 50 overwrites of the same few keys: the log holds 50
        // records but only 5 live pairs.
        for round in 0..10u64 {
            for k in 0..5u64 {
                kv.put(k, round * 10 + k).unwrap();
            }
        }
    }
    let log = shard0_log(&dir);
    let before = std::fs::metadata(&log).unwrap().len();
    let (kv, report) = ShardedKv::open_with(&dir, 1, MEMTABLE, CACHE, opts()).unwrap();
    assert_eq!(report.checkpointed(), 1);
    assert_eq!(report.pairs(), 50, "replay sees the pre-compaction log");
    let after = std::fs::metadata(&log).unwrap().len();
    assert!(
        after < before,
        "compaction must shrink the log ({before} -> {after})"
    );
    // Only live pairs survive, with the last overwrite winning.
    for k in 0..5u64 {
        assert_eq!(kv.get(k), Some(90 + k), "key {k}");
    }
    drop(kv);
    // The checkpointed log replays to the same state.
    let (kv, report) = ShardedKv::open_with(&dir, 1, MEMTABLE, CACHE, opts()).unwrap();
    assert_eq!(report.pairs(), 5, "one checkpoint record of live pairs");
    for k in 0..5u64 {
        assert_eq!(kv.get(k), Some(90 + k), "key {k} after checkpoint replay");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn short_write_on_append_then_reopen_preserves_the_valid_prefix() {
    let dir = temp_dir("shortwrite");
    {
        // The append after a committed group is torn halfway (the
        // crash-mid-write shape): the first group must survive, the
        // torn one must not resurrect.
        let kv = committed_then_armed(&dir, "storage.short_write=1x1");
        assert!(kv.put(2, 20).is_err(), "torn append refuses the write");
        assert_eq!(kv.get(2), None, "refused write is not applied");
        assert!(kv.shard_readonly(0));
    }
    // Reopen: replay stops at the torn record, truncates it away,
    // and new appends extend the valid prefix.
    let (kv, report) = ShardedKv::open(&dir, 1, MEMTABLE, CACHE).unwrap();
    assert!(report.per_shard[0].torn_tail, "half a record on disk");
    assert_eq!(report.pairs(), 1);
    assert_eq!(kv.get(1), Some(10));
    assert_eq!(kv.get(2), None);
    kv.put(3, 30).unwrap();
    drop(kv);
    let (kv, report) = ShardedKv::open(&dir, 1, MEMTABLE, CACHE).unwrap();
    assert!(report.clean(), "truncation left a well-formed log");
    assert_eq!(kv.get(1), Some(10));
    assert_eq!(kv.get(3), Some(30));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn healing_after_a_short_write_amputates_the_torn_tail_in_place() {
    let dir = temp_dir("heal-shortwrite");
    {
        let kv = committed_then_armed(&dir, "storage.short_write=1x1");
        assert!(kv.put(2, 20).is_err(), "torn append refuses the write");
        assert!(kv.shard_readonly(0));
        // Heal without restarting: the probe must cut off the torn
        // half-record, or the next commit would land after garbage
        // and be unreadable on replay.
        assert!(kv.try_heal_shard(0));
        assert!(!kv.shard_readonly(0));
        kv.put(3, 30).unwrap();
    }
    let (kv, report) = ShardedKv::open(&dir, 1, MEMTABLE, CACHE).unwrap();
    assert!(report.clean(), "amputation left a well-formed log");
    assert_eq!(kv.get(1), Some(10), "committed prefix preserved");
    assert_eq!(kv.get(2), None, "torn write must not resurrect");
    assert_eq!(kv.get(3), Some(30), "post-heal acked write survives replay");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_append_then_reopen_loses_nothing() {
    let dir = temp_dir("enospc");
    {
        // ENOSPC-style: the append after a committed group fails
        // outright, nothing of the record reaches the file.
        let kv = committed_then_armed(&dir, "storage.enospc=1x1");
        assert!(kv.put(2, 20).is_err());
        assert!(kv.shard_readonly(0));
    }
    let (kv, report) = ShardedKv::open(&dir, 1, MEMTABLE, CACHE).unwrap();
    assert!(
        report.clean(),
        "nothing torn: the failed append wrote 0 bytes"
    );
    assert_eq!(report.pairs(), 1);
    assert_eq!(kv.get(1), Some(10));
    assert_eq!(kv.get(2), None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_count_is_pinned_by_the_manifest() {
    let dir = temp_dir("manifest");
    {
        let (kv, _) = ShardedKv::open(&dir, 2, MEMTABLE, CACHE).unwrap();
        kv.put(42, 1).unwrap();
    }
    let err = ShardedKv::open(&dir, 4, MEMTABLE, CACHE).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    // The refused open must not have damaged anything.
    let (kv, report) = ShardedKv::open(&dir, 2, MEMTABLE, CACHE).unwrap();
    assert!(report.clean());
    assert_eq!(kv.get(42), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}
