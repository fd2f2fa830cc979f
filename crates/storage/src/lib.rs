//! Storage substrates of the sharded KV service.
//!
//! The paper evaluates CR on real lock-hungry software we cannot ship,
//! among it leveldb (Figure 8) and CEPH's `SimpleLRU` (Figure 12). The
//! figures themselves run on the `malthus-machinesim` models in
//! `malthus-workloads`; this crate implements functional equivalents
//! of the two stores from scratch, and the service runs them:
//!
//! | Type | Stands in for | Used by |
//! |---|---|---|
//! | [`MiniKv`] | leveldb 1.18 (memtable + block-cache) | each [`ShardedKv`] shard |
//! | [`SimpleLru`] | CEPH `SimpleLRU` (exact LRU; slab + hash index, not CEPH's `std::map`) | each shard's block cache; Figure 12's model runs its operations |
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

pub mod healer;
mod minikv;
mod router;
pub mod sharded;
mod simplelru;
pub mod wal;

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
