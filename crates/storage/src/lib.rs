//! Storage substrates backing the paper's application benchmarks.
//!
//! The paper evaluates CR on real lock-hungry software we cannot ship:
//! leveldb (Figure 8), CEPH's `SimpleLRU` (Figure 12), a COZ-style
//! bounded queue (Figure 10), and a blocking buffer pool (Figure 14).
//! This crate implements functional equivalents from scratch so those
//! workloads run as real code (the splay-tree allocator of Figure 7
//! and the Kyoto Cabinet cache of Figure 9 exist as simulator models
//! only, in `malthus-workloads`):
//!
//! | Type | Stands in for | Used by |
//! |---|---|---|
//! | [`MiniKv`] | leveldb 1.18 (memtable + block-cache) | readwhilewriting |
//! | [`SimpleLru`] | CEPH `SimpleLRU` (exact LRU; slab + hash index, not CEPH's `std::map`) | LRUCache |
//! | [`BoundedQueue`] | COZ `producer_consumer` queue | prodcons |
//! | [`BufferPool`] | the §6.11 blocking buffer pool | bufferpool |
//!
//! On top of the substrates, the crate ships two genuinely new
//! layers: [`ShardedKv`], a sharded KV backend where each shard is a
//! [`MiniKv`] + [`SimpleLru`] behind its **own** lock pair — Malthusian
//! RW-CR + MCSCR by default, a [`LockPair`] type parameter — with fixed
//! fibonacci-hash routing
//! ([`ShardRouter`]) — N independent admission-restricted locks
//! instead of §6.5's single hot pair (see the [`sharded`] module docs
//! for the cross-shard snapshot-consistency contract) — and a
//! durability tier ([`wal`]): per-shard group-committed write-ahead
//! logs where a batch's per-shard write group costs **one** fsync
//! under the same exclusive hold that amortizes writer admission.

#![warn(missing_docs)]

mod bounded_queue;
mod buffer_pool;
pub mod healer;
mod minikv;
mod router;
pub mod sharded;
mod simplelru;
pub mod wal;

pub use bounded_queue::BoundedQueue;
pub use buffer_pool::{BufferPool, PoolBuffer, SemBufferPool};
pub use healer::{spawn_healer, HealerConfig};
pub use minikv::MiniKv;
pub use router::{ShardRouter, FIB_HASH_MULT};
pub use sharded::{
    hottest_share, BatchOp, BatchReply, CrPair, LockPair, McsPair, ShardSnapshot, ShardState,
    ShardedKv, ShardedKvStats, WriteError, MAX_SCAN_LIMIT,
};
pub use simplelru::{LruStats, SimpleLru};
pub use wal::{
    crc32, stamp_clean_shutdown, take_clean_shutdown, ChaosWalIo, FileWalIo, RecoveryReport,
    ShardRecovery, ShardWal, WalIo, WalOptions, CLEAN_SHUTDOWN_MARKER, DEFAULT_CHECKPOINT_BYTES,
};
