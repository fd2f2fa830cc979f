//! The sharded KV backend: N independent lock pairs, Malthusian by
//! default.
//!
//! §6.5 of *Malthusian Locks* evaluates CR on leveldb's two hot locks
//! — faithful, but a single-lock design caps the whole service at one
//! admission point: however well the lock behaves under contention,
//! only one writer makes progress at a time. [`ShardedKv`] splits the
//! store into `N` shards, each a [`MiniKv`] plus its own
//! [`SimpleLru`] block cache behind its **own** lock pair, with fixed
//! fibonacci-hash routing ([`ShardRouter`]). The pair is a type,
//! [`LockPair`]: by default [`CrPair`], an RW-CR DB lock and an MCSCR
//! cache lock, whose N Malthusian locks *are* the system's admission
//! surface — contention on one hot shard culls that shard's surplus
//! threads while the other shards keep serving at full speed.
//! [`McsPair`] is the unrestricted baseline of §6.5: MCS in place of
//! MCSCR at both locks, and every passive reader woken at once.
//!
//! # Snapshot-consistency contract
//!
//! Cross-shard operations ([`ShardedKv::mget`], [`ShardedKv::mset`],
//! [`ShardedKv::scan`], [`ShardedKv::stats`]) visit shards **one at a
//! time and never hold two shard locks at once**. That buys three
//! things — no lock-ordering deadlock by construction, admission
//! stays per-shard (a batch never stalls a cold shard behind a hot
//! one), and bounded lock hold times — at the price of atomicity:
//!
//! * Operations are atomic **per shard**. An `mset` becomes visible
//!   shard-by-shard; a concurrent `mget` may observe the part of the
//!   batch that landed on shards it visits later and miss the part on
//!   shards it visited earlier.
//! * `scan` and `stats` are **racy snapshots**: each shard's
//!   contribution is internally consistent (taken under that shard's
//!   lock), but shards are sampled at slightly different times. Sums
//!   are exact only while the store is quiescent — the same contract
//!   as the locks' own `cr_stats`.
//! * Single-key [`ShardedKv::get`]/[`ShardedKv::put`] are fully
//!   linearizable per key (a key lives on exactly one shard, and its
//!   shard never changes).
//!
//! Callers that need a cross-shard atomic view must quiesce writers
//! themselves; the service layer documents the same contract on the
//! wire protocol.
//!
//! # Durability
//!
//! A store opened with [`ShardedKv::open`] keeps a per-shard
//! write-ahead log (see [`crate::wal`]). Every write path commits its
//! per-shard group to that shard's log — one append, **one fsync** —
//! under the same exclusive hold that serializes the writes, *before*
//! applying them to the in-memory [`MiniKv`]: the batch boundary that
//! amortizes writer admission amortizes fsync too (group commit).
//! When a write returns (is acked), it survives `kill -9`.
//!
//! Degradation is per shard: if a shard's fsync fails, that shard is
//! poisoned read-only — further writes return [`WriteError`], reads
//! keep working, and the other shards are untouched. A store built
//! with [`ShardedKv::new`] is memory-only (no logs, infallible-ish
//! writes that still return `Result` for a uniform signature).

use std::cell::Cell;
use std::io;
use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use malthus::{current_thread_index, McsCrLock, McsLock, Mutex, RawLock};
use malthus_metrics::LatencyHistogram;
use malthus_obs::EventKind;
use malthus_rwlock::{RawRwLock, RwCrLock, RwMutex, RwStats, WriterQueue};

use crate::minikv::MiniKv;
use crate::router::ShardRouter;
use crate::simplelru::{LruStats, SimpleLru};
use crate::wal::{
    check_manifest, open_shard_log, stamp_clean_shutdown, take_clean_shutdown, ChaosWalIo,
    FileWalIo, RecoveryReport, ShardWal, WalIo, WalOptions,
};

/// Upper bound a single [`ShardedKv::scan`] will return, whatever the
/// caller asks for: bounds both response size and per-shard lock hold
/// time.
pub const MAX_SCAN_LIMIT: usize = 4_096;

/// One operation of a request group handed to
/// [`ShardedKv::execute_batch`].
///
/// Key slices are borrowed from the caller (the pipelined connection
/// handler keeps its parsed requests alive across the batch), so
/// batching adds no per-operation allocation on the storage side.
#[derive(Debug, Clone, Copy)]
pub enum BatchOp<'a> {
    /// Point lookup.
    Get(u64),
    /// Single insert/update.
    Put(u64, u64),
    /// Batched lookup; results come back in key order.
    Mget(&'a [u64]),
    /// Batched insert/update; later duplicates win, as with
    /// sequential puts.
    Mset(&'a [(u64, u64)]),
}

impl BatchOp<'_> {
    /// Whether executing this op mutates its shard(s).
    fn is_write(&self) -> bool {
        matches!(self, BatchOp::Put(..) | BatchOp::Mset(..))
    }

    /// How many keys this op routes (one flat work item per key).
    fn key_count(&self) -> usize {
        match self {
            BatchOp::Get(_) | BatchOp::Put(..) => 1,
            BatchOp::Mget(keys) => keys.len(),
            BatchOp::Mset(pairs) => pairs.len(),
        }
    }

    /// The `slot`-th key this op routes.
    fn key_at(&self, slot: usize) -> u64 {
        match self {
            BatchOp::Get(k) | BatchOp::Put(k, _) => *k,
            BatchOp::Mget(keys) => keys[slot],
            BatchOp::Mset(pairs) => pairs[slot].0,
        }
    }
}

/// The result of one [`BatchOp`], in the same position of the reply
/// vector [`ShardedKv::execute_batch`] returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchReply {
    /// [`BatchOp::Get`]: the value, if present.
    Value(Option<u64>),
    /// [`BatchOp::Put`]: the write was applied.
    Done,
    /// [`BatchOp::Mget`]: one slot per requested key, in key order.
    Values(Vec<Option<u64>>),
    /// [`BatchOp::Mset`]: number of pairs written.
    Wrote(usize),
    /// A write op refused because (at least one of) its shard(s) is
    /// poisoned read-only after a WAL failure. For a cross-shard
    /// `Mset` this is sticky: pairs on healthy shards were still
    /// committed (the module's per-shard atomicity contract), but the
    /// op as a whole reports the refusal.
    Readonly,
}

/// A write refused because the key's shard is read-only: its
/// write-ahead log hit an I/O error (typically a failed fsync) and
/// the shard was poisoned rather than risk acking writes that might
/// not be durable. Reads on the shard keep working; other shards are
/// unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteError {
    /// The poisoned shard's index.
    pub shard: usize,
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {} is read-only after a write-ahead log failure",
            self.shard
        )
    }
}

impl std::error::Error for WriteError {}

/// The largest element's share of the slice's sum, in `[0, 1]`;
/// 0 when the sum is 0 (or the slice is empty).
///
/// The skew diagnostic shared by [`ShardedKvStats`] and the
/// `sharded_contention` workload report: applied to per-shard write
/// counts it answers "how hot is the hottest shard".
pub fn hottest_share(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    counts.iter().copied().max().unwrap_or(0) as f64 / total as f64
}

/// What one shard's DB lock protects: the [`MiniKv`] plus (when the
/// store is durable) the shard's write-ahead log.
///
/// The WAL sits under the **same** lock as the store it guards so a
/// group's log record and its in-memory application are one critical
/// section — no window where another writer interleaves between a
/// group's fsync and its visibility.
///
/// Derefs to [`MiniKv`] so lock-semantics tests and diagnostics that
/// take `db_lock(i).read()`/`.write()` keep calling `get_memtable`,
/// `put`, `reads` … straight through the guard.
pub struct ShardState {
    kv: MiniKv,
    wal: Option<ShardWal>,
}

impl ShardState {
    fn memory(kv: MiniKv) -> Self {
        ShardState { kv, wal: None }
    }

    fn durable(kv: MiniKv, wal: ShardWal) -> Self {
        ShardState { kv, wal: Some(wal) }
    }

    /// Group commits appended to this shard's log (0 when
    /// memory-only).
    pub fn wal_appends(&self) -> u64 {
        self.wal.as_ref().map_or(0, ShardWal::appends)
    }

    /// Fsyncs this shard's log has issued (0 when memory-only).
    pub fn wal_syncs(&self) -> u64 {
        self.wal.as_ref().map_or(0, ShardWal::syncs)
    }

    /// Bytes appended to this shard's log since open (0 when
    /// memory-only).
    pub fn wal_bytes(&self) -> u64 {
        self.wal.as_ref().map_or(0, ShardWal::bytes)
    }
}

impl Deref for ShardState {
    type Target = MiniKv;

    fn deref(&self) -> &MiniKv {
        &self.kv
    }
}

impl DerefMut for ShardState {
    fn deref_mut(&mut self) -> &mut MiniKv {
        &mut self.kv
    }
}

impl std::fmt::Debug for ShardState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardState")
            .field("durable", &self.wal.is_some())
            .finish_non_exhaustive()
    }
}

/// The two locks of every shard, chosen once as a type: the DB lock is
/// an [`RwCrLock`] over the writer queue `Writer`, the block-cache lock
/// a default `Cache`. [`CrPair`] restricts at both; [`McsPair`], the
/// paper's §6.5 baseline, at neither.
pub trait LockPair: 'static {
    /// The DB lock's writer queue.
    type Writer: WriterQueue;
    /// The block-cache lock.
    type Cache: RawLock + Default;
    /// A fresh DB lock.
    fn db() -> RwCrLock<Self::Writer>;
}

/// The Malthusian pair, the default: `RW-CR-STP` + `MCSCR-STP`.
#[derive(Debug, Clone, Copy)]
pub struct CrPair;

impl LockPair for CrPair {
    type Writer = McsCrLock;
    type Cache = McsCrLock;
    fn db() -> RwCrLock {
        RwCrLock::stp()
    }
}

/// The unrestricted baseline: `RW-MCS-STP` + `MCS-STP`.
#[derive(Debug, Clone, Copy)]
pub struct McsPair;

impl LockPair for McsPair {
    type Writer = McsLock;
    type Cache = McsLock;
    fn db() -> RwCrLock<McsLock> {
        RwCrLock::mcs()
    }
}

/// One shard: a [`MiniKv`] (+ optional WAL) and its block cache
/// behind their own lock pair, plus batch counters.
struct Shard<P: LockPair> {
    /// The shard's central database lock (memtable + runs + WAL).
    db: RwMutex<ShardState, RwCrLock<P::Writer>>,
    /// The shard's block-cache lock (exclusive: lookups edit recency).
    /// Always taken inside a `db` hold (db → cache), at most once per
    /// sub-group and only for the sub-group's LRU touches — the runs
    /// are searched before it is taken (see [`Shard::search`] and
    /// [`Shard::touch`]); only [`ShardedKv::shard_stats`] takes it
    /// alone.
    cache: Mutex<SimpleLru, P::Cache>,
    /// Scans that visited this shard. Bumped under the *shared* `db`
    /// lock, where concurrent bumpers are legal, so it is a real
    /// relaxed RMW, not a [`malthus::LockCounter`]'s plain load+store.
    scans: AtomicU64,
    /// Poisoned read-only after a WAL failure. Checked and set under
    /// the exclusive `db` hold; relaxed atomic so the read path and
    /// stats can sample it without any lock.
    readonly: AtomicBool,
    /// WAL I/O errors observed (each one poisons, so in practice 0
    /// or 1 per heal cycle — kept a counter for the STATS wire
    /// format).
    wal_errors: AtomicU64,
    /// Write groups refused because the shard was read-only — the
    /// `ERR shard readonly` replies that would otherwise vanish.
    readonly_rejects: AtomicU64,
    /// Heal probes attempted against this shard while read-only.
    heal_attempts: AtomicU64,
    /// Heal probes that succeeded and flipped the shard writable.
    heals: AtomicU64,
}

/// Per-thread grouping scratch of [`ShardedKv::execute_batch_span`]:
/// a batch's routed keys, sorted by destination shard.
#[derive(Default)]
struct BatchScratch {
    /// One `(op index, key slot)` per routed key, grouped by shard;
    /// within a shard, in op order.
    order: Vec<(u32, u32)>,
    /// `ends[s]` is where shard `s`'s group ends in `order` (it starts
    /// where shard `s - 1`'s ends).
    ends: Vec<u32>,
    /// The write pairs of the shard sub-group being committed.
    write_pairs: Vec<(u64, u64)>,
    reads: ReadScratch,
}

/// What [`Shard::search`] works in, sized by the stretch at hand.
#[derive(Default)]
struct ReadScratch {
    /// The stretch's keys, in op order.
    keys: Vec<u64>,
    /// Their values, as the walker leaves them.
    values: Vec<Option<u64>>,
    /// The block ids the sub-group's run searches consulted so far, in
    /// order, waiting for its one cache hold.
    touches: Vec<u32>,
}

thread_local! {
    static BATCH_SCRATCH: Cell<BatchScratch> = Cell::default();
}

impl BatchScratch {
    /// Fills `order` and `ends` for `ops`: a stable counting sort of
    /// the routed keys by shard — count, prefix-sum, place.
    fn group(&mut self, ops: &[BatchOp<'_>], router: ShardRouter) {
        let keys = || {
            ops.iter().enumerate().flat_map(|(oi, op)| {
                (0..op.key_count()).map(move |slot| (oi as u32, slot as u32, op.key_at(slot)))
            })
        };
        self.ends.clear();
        self.ends.resize(router.shards(), 0);
        let mut total = 0;
        for (_, _, key) in keys() {
            self.ends[router.route(key)] += 1;
            total += 1;
        }
        // Counts become start offsets, which placement then advances
        // one key at a time until each is its group's end.
        let mut start = 0;
        for end in &mut self.ends {
            start += std::mem::replace(end, start);
        }
        self.order.clear();
        self.order.resize(total, (0, 0));
        for (oi, slot, key) in keys() {
            let at = &mut self.ends[router.route(key)];
            self.order[*at as usize] = (oi, slot);
            *at += 1;
        }
    }
}

impl<P: LockPair> Shard<P> {
    fn build(state: ShardState, cache_blocks: usize) -> Self {
        Shard {
            db: RwMutex::with_raw(P::db(), state),
            cache: Mutex::new(SimpleLru::new(cache_blocks)),
            scans: AtomicU64::new(0),
            readonly: AtomicBool::new(false),
            wal_errors: AtomicU64::new(0),
            readonly_rejects: AtomicU64::new(0),
            heal_attempts: AtomicU64::new(0),
            heals: AtomicU64::new(0),
        }
    }

    /// The first half of every read, against an already-held DB guard
    /// and **outside** the cache lock: serves one read *stretch* — a
    /// maximal run of consecutive read ops of a sub-group, `stretch`
    /// being their `(op, slot)` entries — as one staged pass of
    /// [`MiniKv::search_many`] (memtable for every key, then each run
    /// for the keys still unanswered), writes the values into the ops'
    /// replies and leaves the consulted block ids in `scratch.touches`
    /// for [`Shard::touch`] to replay.
    ///
    /// Searching at the moment of the stretch keeps a dirty sub-group
    /// in op order (a later write, or the freeze it causes, cannot
    /// change what an earlier GET saw); deferring only the touches
    /// keeps the exclusive cache hold down to recency bookkeeping, as
    /// leveldb's `LRUCache::Lookup` releases its mutex before the
    /// block is read. The store's `reads` and `filter_skips` counters
    /// move once per stretch, not once per key: one RMW each on a line
    /// every CPU under the shared hold writes.
    fn search(
        db: &ShardState,
        ops: &[BatchOp<'_>],
        stretch: &[(u32, u32)],
        replies: &mut [BatchReply],
        scratch: &mut ReadScratch,
    ) {
        let ReadScratch {
            keys,
            values,
            touches,
        } = scratch;
        keys.clear();
        keys.extend(
            stretch
                .iter()
                .map(|&(oi, slot)| ops[oi as usize].key_at(slot as usize)),
        );
        values.clear();
        values.resize(keys.len(), None);
        db.search_many(keys, values, |block| touches.push(block));
        for (&(oi, slot), &value) in stretch.iter().zip(values.iter()) {
            match &mut replies[oi as usize] {
                BatchReply::Value(out) => *out = value,
                BatchReply::Values(outs) => outs[slot as usize] = value,
                _ => unreachable!("read op paired with a write reply"),
            }
        }
    }

    /// The second half: replays `blocks` — what the sub-group's
    /// stretches consulted, in order — under **one** hold of the cache
    /// lock, nested inside the caller's DB hold in the fixed db →
    /// cache order. Exactly the lookups, ids, order and `tid`
    /// attribution of [`MiniKv::get_runs`] key after key, a run whose
    /// filter rejected the key appearing in neither; a sub-group that
    /// never left the memtable never takes the lock.
    fn touch(&self, blocks: &[u32], tid: u32) {
        if blocks.is_empty() {
            return;
        }
        let mut cache = self.cache.lock();
        for &block in blocks {
            cache.lookup_or_insert(block, tid);
        }
    }

    /// The write path's durability gate, called with `state` being
    /// this shard's **exclusive** guard: refuses if poisoned, then
    /// group-commits `pairs` (one append + one fsync). A commit error
    /// poisons the shard read-only — acking a write whose log record
    /// may not be durable would break the recovery contract — and the
    /// already-failed group is refused too (its pairs are *not*
    /// applied in memory).
    fn wal_commit(
        &self,
        index: usize,
        state: &mut ShardState,
        pairs: &[(u64, u64)],
        span: &mut malthus_obs::SpanContext,
    ) -> Result<(), WriteError> {
        if self.readonly.load(Ordering::Relaxed) {
            self.readonly_rejects.fetch_add(1, Ordering::Relaxed);
            return Err(WriteError { shard: index });
        }
        if let Some(wal) = state.wal.as_mut() {
            if let Err(e) = wal.append_group_span(pairs, span) {
                self.wal_errors.fetch_add(1, Ordering::Relaxed);
                self.readonly.store(true, Ordering::Relaxed);
                self.readonly_rejects.fetch_add(1, Ordering::Relaxed);
                record_wal_error(EventKind::ShardReadonly, index, &e);
                return Err(WriteError { shard: index });
            }
        }
        Ok(())
    }
}

/// Records a WAL error in the flight recorder: the shard and the
/// error's `errno`, 0 for an injected fault (which carries none).
fn record_wal_error(kind: EventKind, shard: usize, e: &io::Error) {
    malthus_obs::record(kind, shard as u64, malthus_obs::errno(e));
}

/// Racy-snapshot statistics of one shard (see the module-level
/// contract).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardSnapshot {
    /// Reads served by this shard's [`MiniKv`]: one per key looked up.
    pub reads: u64,
    /// Runs this shard's reads did not consult because the run's
    /// filter rejected the key — each one a search of the run's index
    /// and a block-cache lookup that `cache`'s counters never saw.
    pub filter_skips: u64,
    /// Writes accepted by this shard's [`MiniKv`].
    pub writes: u64,
    /// Resident keys (memtable + runs, duplicates included).
    pub keys: usize,
    /// Frozen runs.
    pub runs: usize,
    /// Bytes the runs' indexes take: slot tables and filter words.
    pub index_bytes: usize,
    /// Scans that visited this shard.
    pub scans: u64,
    /// Group commits appended to this shard's WAL (0 if memory-only).
    pub wal_appends: u64,
    /// Fsyncs issued by this shard's WAL (0 if memory-only).
    pub wal_syncs: u64,
    /// Bytes appended to this shard's WAL since open.
    pub wal_bytes: u64,
    /// WAL I/O errors observed on this shard.
    pub wal_errors: u64,
    /// The shard is poisoned read-only after a WAL failure.
    pub readonly: bool,
    /// Write groups refused while the shard was read-only.
    pub readonly_rejects: u64,
    /// Heal probes attempted against this shard.
    pub heal_attempts: u64,
    /// Heal probes that flipped the shard back to writable.
    pub heals: u64,
    /// The shard DB lock's RW-CR counters.
    pub db_lock: RwStats,
    /// The shard block cache's hit/miss/displacement counters.
    pub cache: LruStats,
}

/// Per-shard snapshots plus aggregation helpers.
#[derive(Debug, Clone, Default)]
pub struct ShardedKvStats {
    /// One snapshot per shard, index = shard id.
    pub per_shard: Vec<ShardSnapshot>,
}

impl ShardedKvStats {
    /// Total reads across shards (racy sum; exact while quiescent).
    pub fn reads(&self) -> u64 {
        self.per_shard.iter().map(|s| s.reads).sum()
    }

    /// Total writes across shards (racy sum; exact while quiescent).
    pub fn writes(&self) -> u64 {
        self.per_shard.iter().map(|s| s.writes).sum()
    }

    /// The busiest shard's share of all writes, in `[0, 1]`
    /// (0 when no writes happened). The skew diagnostic the
    /// `sharded_contention` workload reports.
    pub fn hottest_write_share(&self) -> f64 {
        let writes: Vec<u64> = self.per_shard.iter().map(|s| s.writes).collect();
        hottest_share(&writes)
    }

    /// Total WAL fsyncs across shards. With group commit this divided
    /// by [`ShardedKvStats::writes`] is the fsyncs-per-write ratio (the
    /// end-to-end benchmark's `storage.fsyncs_per_put`).
    pub fn wal_syncs(&self) -> u64 {
        self.per_shard.iter().map(|s| s.wal_syncs).sum()
    }

    /// Total WAL I/O errors across shards.
    pub fn wal_errors(&self) -> u64 {
        self.per_shard.iter().map(|s| s.wal_errors).sum()
    }

    /// Shards currently poisoned read-only.
    pub fn readonly_shards(&self) -> usize {
        self.per_shard.iter().filter(|s| s.readonly).count()
    }
}

/// A sharded KV store: `N` × ([`MiniKv`] + [`SimpleLru`]) behind `N`
/// independent lock pairs of type `P` (Malthusian by default), with
/// fixed fibonacci-hash routing — optionally durable via per-shard
/// group-committed WALs ([`ShardedKv::open`]).
///
/// See the module docs for the cross-shard snapshot-consistency and
/// durability contracts.
///
/// # Examples
///
/// ```
/// use malthus_storage::ShardedKv;
///
/// let kv = ShardedKv::new(4, 1_024, 1_024);
/// kv.mset(&[(1, 10), (2, 20), (3, 30)]).unwrap();
/// assert_eq!(kv.mget(&[1, 2, 9]), vec![Some(10), Some(20), None]);
/// assert_eq!(kv.scan(2, 8), vec![(2, 20), (3, 30)]);
/// ```
pub struct ShardedKv<P: LockPair = CrPair> {
    router: ShardRouter,
    shards: Vec<Shard<P>>,
    /// Fsync latencies across all shards (empty for memory-only
    /// stores: no WAL, no fsyncs). Shared with each [`ShardWal`].
    fsync_hist: Arc<LatencyHistogram>,
    /// The data directory of a durable store (`None` when
    /// memory-only) — where [`ShardedKv::shutdown_clean`] stamps the
    /// clean-shutdown marker.
    dir: Option<PathBuf>,
}

impl ShardedKv {
    /// Creates a **memory-only** store (no WAL) with `shards` shards,
    /// each freezing its memtable at `memtable_limit` entries and
    /// caching `cache_blocks` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero (via [`ShardRouter::new`]) or the
    /// per-shard parameters are invalid (via [`MiniKv::new`] /
    /// [`SimpleLru::new`]).
    pub fn new(shards: usize, memtable_limit: usize, cache_blocks: usize) -> Self {
        Self::memory(shards, memtable_limit, cache_blocks)
    }

    /// Opens a **durable** store rooted at `dir` with default
    /// [`WalOptions`], creating the directory and per-shard logs on
    /// first open and replaying them on every open. See
    /// [`ShardedKv::open_with`].
    pub fn open(
        dir: &Path,
        shards: usize,
        memtable_limit: usize,
        cache_blocks: usize,
    ) -> io::Result<(Self, RecoveryReport)> {
        Self::open_with(
            dir,
            shards,
            memtable_limit,
            cache_blocks,
            WalOptions::default(),
        )
    }

    /// [`ShardedKv::durable`] over the default lock pair.
    pub fn open_with(
        dir: &Path,
        shards: usize,
        memtable_limit: usize,
        cache_blocks: usize,
        opts: WalOptions,
    ) -> io::Result<(Self, RecoveryReport)> {
        Self::durable(dir, shards, memtable_limit, cache_blocks, opts)
    }
}

impl<P: LockPair> ShardedKv<P> {
    /// [`ShardedKv::new`] over the lock pair `P`.
    pub fn memory(shards: usize, memtable_limit: usize, cache_blocks: usize) -> Self {
        let router = ShardRouter::new(shards);
        let shards = (0..shards)
            .map(|_| {
                Shard::build(
                    ShardState::memory(MiniKv::new(memtable_limit)),
                    cache_blocks,
                )
            })
            .collect();
        ShardedKv {
            router,
            shards,
            fsync_hist: Arc::new(LatencyHistogram::new()),
            dir: None,
        }
    }

    /// Opens a durable store over the lock pair `P`, rooted at `dir`:
    /// one `shard-<i>.wal` per shard plus a `MANIFEST` pinning the
    /// shard count (keys are hash-routed; reopening with a different
    /// count is refused with [`io::ErrorKind::InvalidInput`]).
    ///
    /// Each shard's log is replayed — tolerating a torn tail and
    /// stopping at the first checksum mismatch, recovering the valid
    /// prefix — and compacted to a checkpoint record once it exceeds
    /// `opts.checkpoint_threshold()`. Replayed pairs are applied
    /// through the normal [`MiniKv::put`] path, so they count toward
    /// the shard's `writes` counter like any other write.
    ///
    /// `opts.faults` arms the store: every shard's file layer is
    /// wrapped in a [`ChaosWalIo`] holding that one state (its storage
    /// sites and `shard.stall` fire there), so a test arms its own
    /// store without touching any other in the process.
    ///
    /// # Panics
    ///
    /// Same parameter panics as [`ShardedKv::new`].
    pub fn durable(
        dir: &Path,
        shards: usize,
        memtable_limit: usize,
        cache_blocks: usize,
        opts: WalOptions,
    ) -> io::Result<(Self, RecoveryReport)> {
        std::fs::create_dir_all(dir)?;
        check_manifest(dir, shards)?;
        let clean_marker = take_clean_shutdown(dir)?;
        let router = ShardRouter::new(shards);
        let threshold = opts.checkpoint_threshold();
        let fsync_hist = Arc::new(LatencyHistogram::new());
        let mut built = Vec::with_capacity(shards);
        let mut report = RecoveryReport {
            clean_marker,
            ..RecoveryReport::default()
        };
        for i in 0..shards {
            let path = dir.join(format!("shard-{i}.wal"));
            let (pairs, file, recovery) = open_shard_log(&path, threshold)?;
            // The whole file is committed state at this point:
            // recovery truncated any torn tail and a checkpoint
            // rewrite was fsynced. A later heal probe amputates back
            // to here plus every group committed since.
            let committed_len = file.metadata()?.len();
            let file_io = FileWalIo::with_path(file, path);
            let io: Box<dyn WalIo> = match &opts.faults {
                Some(faults) => Box::new(ChaosWalIo::new(file_io, Arc::clone(faults))),
                None => Box::new(file_io),
            };
            let mut kv = MiniKv::new(memtable_limit);
            for (k, v) in pairs {
                debug_assert_eq!(router.route(k), i, "replayed key routed off-shard");
                kv.put(k, v);
            }
            let mut wal = ShardWal::new(io);
            wal.set_committed_len(committed_len);
            wal.set_observer(i as u64, Arc::clone(&fsync_hist));
            built.push(Shard::build(ShardState::durable(kv, wal), cache_blocks));
            report.per_shard.push(recovery);
        }
        Ok((
            ShardedKv {
                router,
                shards: built,
                fsync_hist,
                dir: Some(dir.to_path_buf()),
            },
            report,
        ))
    }

    /// The store-wide WAL fsync-latency histogram (one observation
    /// per group commit, all shards merged). Always present; never
    /// records for memory-only stores.
    pub fn fsync_hist(&self) -> &Arc<LatencyHistogram> {
        &self.fsync_hist
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The names of the shard DB lock and the block-cache lock (every
    /// shard's are alike): `("RW-CR-STP", "MCSCR-STP")` over [`CrPair`].
    pub fn lock_names(&self) -> (&'static str, &'static str) {
        let shard = &self.shards[0];
        (shard.db.raw().name(), shard.cache.raw().name())
    }

    /// The router (so callers — tests, diagnostics — can predict
    /// which shard a key lands on).
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// The DB lock of shard `index`, exposed for lock-semantics tests
    /// and diagnostics (e.g. proving two writers on different shards
    /// run concurrently). The guard derefs through [`ShardState`] to
    /// [`MiniKv`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= shard_count()`.
    pub fn db_lock(&self, index: usize) -> &RwMutex<ShardState, RwCrLock<P::Writer>> {
        &self.shards[index].db
    }

    /// Whether shard `index` is currently poisoned read-only — one
    /// relaxed load, no locks, so the healer can scan every shard on
    /// every tick.
    ///
    /// # Panics
    ///
    /// Panics if `index >= shard_count()`.
    pub fn shard_readonly(&self, index: usize) -> bool {
        self.shards[index].readonly.load(Ordering::Relaxed)
    }

    /// One heal attempt against a read-only shard: under the shard's
    /// exclusive lock, reopen the WAL's file layer and fsync-probe it
    /// ([`ShardWal::heal_probe`]). A successful probe flips the shard
    /// writable again — safe because refused groups were never
    /// applied in memory, so the log and the store agree.
    ///
    /// Returns `true` when the shard is writable on exit (including
    /// "was never read-only"). Counted in the shard's
    /// `heal_attempts`/`heals` counters only when a probe actually
    /// ran.
    ///
    /// # Panics
    ///
    /// Panics if `index >= shard_count()`.
    pub fn try_heal_shard(&self, index: usize) -> bool {
        let shard = &self.shards[index];
        if !shard.readonly.load(Ordering::Relaxed) {
            return true;
        }
        shard.heal_attempts.fetch_add(1, Ordering::Relaxed);
        let mut db = shard.db.write();
        let healed = match db.wal.as_mut() {
            Some(wal) => match wal.heal_probe() {
                Ok(()) => true,
                Err(e) => {
                    record_wal_error(EventKind::HealProbeFailed, index, &e);
                    false
                }
            },
            // Memory-only shards cannot stay poisoned: nothing to
            // probe, flip straight back.
            None => true,
        };
        if healed {
            shard.readonly.store(false, Ordering::Relaxed);
            shard.heals.fetch_add(1, Ordering::Relaxed);
            malthus_obs::record(EventKind::ShardHealed, index as u64, 0);
        }
        healed
    }

    /// The graceful-shutdown epilogue: issues a final fsync on every
    /// healthy shard's WAL (belt-and-braces — every acked write was
    /// already fsynced by group commit) and stamps the clean-shutdown
    /// marker in the MANIFEST. Read-only shards are skipped: their
    /// refused writes were never applied, so they have nothing
    /// unacked to lose, and their file layer is known bad.
    ///
    /// No-op for memory-only stores. Errors on a *healthy* shard's
    /// final sync abort the stamp — a marker must never overpromise.
    pub fn shutdown_clean(&self) -> io::Result<()> {
        let Some(dir) = &self.dir else {
            return Ok(());
        };
        for (i, shard) in self.shards.iter().enumerate() {
            if shard.readonly.load(Ordering::Relaxed) {
                continue;
            }
            let mut db = shard.db.write();
            if let Some(wal) = db.wal.as_mut() {
                wal.final_sync()
                    .map_err(|e| io::Error::new(e.kind(), format!("shard {i} final sync: {e}")))?;
            }
        }
        stamp_clean_shutdown(dir)
    }

    /// Inserts or updates one key: the one-op batch
    /// `[BatchOp::Put(key, value)]` through [`ShardedKv::execute_batch`],
    /// so it takes its shard's DB lock exclusive and, on a durable
    /// store, group-commits a group of one before the pair is applied
    /// (batch writes to amortize the fsync). `Err` means the shard is
    /// read-only and nothing was written.
    pub fn put(&self, key: u64, value: u64) -> Result<(), WriteError> {
        let span = &mut malthus_obs::SpanContext::detached();
        let (_, refused) = self.execute(&[BatchOp::Put(key, value)], span);
        refused.map_or(Ok(()), Err)
    }

    /// Point lookup on the key's shard, for in-process callers: the
    /// one-op batch `[BatchOp::Get(key)]` through
    /// [`ShardedKv::execute_batch`] — shared DB lock, memtable first,
    /// then the runs, and the block-cache lock only after a memtable
    /// miss, for the touches of the runs consulted.
    pub fn get(&self, key: u64) -> Option<u64> {
        match self.execute_batch(&[BatchOp::Get(key)]).pop() {
            Some(BatchReply::Value(value)) => value,
            other => unreachable!("a GET answers with its value, not {other:?}"),
        }
    }

    /// Batched lookup, results in `keys` order: the one-op batch
    /// `[BatchOp::Mget(keys)]` through [`ShardedKv::execute_batch`], so
    /// each touched shard's DB lock and cache lock is taken at most
    /// once. Per-shard atomic, cross-shard racy (see the module
    /// contract).
    pub fn mget(&self, keys: &[u64]) -> Vec<Option<u64>> {
        match self.execute_batch(&[BatchOp::Mget(keys)]).pop() {
            Some(BatchReply::Values(values)) => values,
            other => unreachable!("an MGET answers with its values, not {other:?}"),
        }
    }

    /// Batched insert/update: the one-op batch `[BatchOp::Mset(pairs)]`
    /// through the same executor as [`ShardedKv::execute_batch`]. Later
    /// duplicates in `pairs` win, as with sequential puts; each shard's
    /// write lock is taken at most once and, on a durable store, each
    /// shard's sub-group commits with **one** fsync (group commit)
    /// before it is applied; the batch becomes visible shard-by-shard
    /// (see the module contract). Returns the number of pairs written,
    /// or the first refusal (lowest shard index) if any touched shard
    /// is read-only — per-shard atomicity means pairs on healthy shards
    /// were still written.
    pub fn mset(&self, pairs: &[(u64, u64)]) -> Result<usize, WriteError> {
        let span = &mut malthus_obs::SpanContext::detached();
        let (_, refused) = self.execute(&[BatchOp::Mset(pairs)], span);
        refused.map_or(Ok(pairs.len()), Err)
    }

    /// Executes a request group with **one lock acquisition per
    /// touched shard**: the ops' keys are grouped by destination (a
    /// stable counting sort into per-thread scratch, so grouping
    /// allocates nothing), and each shard's sub-group runs
    /// under a single hold of that shard's DB lock — *shared* when the
    /// group is read-only, *exclusive* when it contains any write —
    /// and, nested inside it, at most one hold of the shard's cache
    /// lock, taken after the sub-group's last op to replay the LRU
    /// touches of the runs its reads searched (none if every read hit
    /// the memtable). Replies come back in `ops` order.
    ///
    /// A sub-group's reads are searched a *stretch* at a time — a
    /// maximal run of consecutive read ops, the whole sub-group when it
    /// holds no write — each as one staged pass over its keys (see
    /// [`MiniKv::search_many`]), so that the cache misses of a dozen
    /// lookups overlap where one key at a time serializes them.
    ///
    /// This is the under-lock amortization the pipelined KV protocol
    /// exists for: a connection that delivers a batch of `n` puts to
    /// one shard pays **one** writer admission instead of `n` — the
    /// few-threads-much-work-per-admission shape *Malthusian Locks*
    /// argues saturated locks want (and what flat-combining designs
    /// exploit).
    ///
    /// Consistency is the module contract, refined per batch:
    ///
    /// * Each shard's sub-group executes **in op order** under one
    ///   hold, so per-key (a key lives on one shard) the batch behaves
    ///   exactly like the same ops issued sequentially — a `Get`
    ///   placed after a `Put` of the same key observes it. Stretches
    ///   split at every write, and reads do not change the store, so
    ///   searching a stretch together is searching it in order.
    /// * A mixed read/write sub-group escalates its reads into the
    ///   exclusive hold rather than splitting into two holds, which
    ///   would reorder same-key ops (and cost a second admission).
    /// * Cross-shard remains a racy snapshot: shards are visited one
    ///   at a time, never two locks at once.
    pub fn execute_batch(&self, ops: &[BatchOp<'_>]) -> Vec<BatchReply> {
        self.execute_batch_span(ops, &mut malthus_obs::SpanContext::detached())
    }

    /// [`ShardedKv::execute_batch`] with span tracing: the batch's
    /// group-commit fsyncs are folded into `span`'s `wal_fsync` stage
    /// (lock admission flows through the thread-local accumulators
    /// the CR locks feed — see `malthus_obs::span`).
    pub fn execute_batch_span(
        &self,
        ops: &[BatchOp<'_>],
        span: &mut malthus_obs::SpanContext,
    ) -> Vec<BatchReply> {
        self.execute(ops, span).0
    }

    /// The one executor behind every batched entry point: the replies,
    /// plus the first write refusal — shards are visited in index
    /// order, so the lowest refusing shard — which is all
    /// [`ShardedKv::mset`]'s `Result` adds to a [`BatchReply::Readonly`].
    fn execute(
        &self,
        ops: &[BatchOp<'_>],
        span: &mut malthus_obs::SpanContext,
    ) -> (Vec<BatchReply>, Option<WriteError>) {
        let tid = current_thread_index();
        // The grouping scratch is this thread's, kept across batches,
        // so grouping allocates nothing once warm. Taken out of its
        // cell for the batch (a panic mid-batch just costs the next
        // batch a fresh one).
        let mut scratch = BATCH_SCRATCH.take();
        scratch.group(ops, self.router);
        let mut replies: Vec<BatchReply> = ops
            .iter()
            .map(|op| match op {
                BatchOp::Get(_) => BatchReply::Value(None),
                BatchOp::Put(..) => BatchReply::Done,
                BatchOp::Mget(keys) => BatchReply::Values(vec![None; keys.len()]),
                BatchOp::Mset(pairs) => BatchReply::Wrote(pairs.len()),
            })
            .collect();
        let BatchScratch {
            order,
            ends,
            write_pairs,
            reads,
        } = &mut scratch;
        let is_write = |&(oi, _): &(u32, u32)| ops[oi as usize].is_write();
        let mut refused = None;
        let mut begin = 0;
        for (shard_idx, &end) in ends.iter().enumerate() {
            let group = &order[begin..end as usize];
            begin = end as usize;
            if group.is_empty() {
                continue;
            }
            let shard = &self.shards[shard_idx];
            malthus_obs::record(
                malthus_obs::EventKind::ShardBatchBegin,
                shard_idx as u64,
                group.len() as u64,
            );
            if group.iter().any(is_write) {
                let mut db = shard.db.write();
                // Group commit: the whole sub-group's writes (in op
                // order) become durable with ONE append + ONE fsync
                // *before* any op executes — the same boundary that
                // amortizes writer admission amortizes the fsync. On
                // refusal (shard read-only, or this very commit
                // failing fsync) the group's writes are skipped and
                // their replies turn `Readonly`; its reads still run.
                write_pairs.clear();
                write_pairs.extend(group.iter().filter_map(|&(oi, slot)| {
                    match &ops[oi as usize] {
                        BatchOp::Put(k, v) => Some((*k, *v)),
                        BatchOp::Mset(pairs) => Some(pairs[slot as usize]),
                        BatchOp::Get(_) | BatchOp::Mget(_) => None,
                    }
                }));
                let committed = shard.wal_commit(shard_idx, &mut db, write_pairs, span);
                refused = refused.or(committed.err());
                // Op order, a stretch at a time: reads between two
                // writes are searched together, the writes between two
                // read stretches applied one by one — their pairs are
                // the next of `write_pairs`.
                let mut unapplied = write_pairs.as_slice();
                for stretch in group.chunk_by(|a, b| is_write(a) == is_write(b)) {
                    if !is_write(&stretch[0]) {
                        Shard::<P>::search(&db, ops, stretch, &mut replies, reads);
                        continue;
                    }
                    let (pairs, rest) = unapplied.split_at(stretch.len());
                    unapplied = rest;
                    for (&(oi, _), &(k, v)) in stretch.iter().zip(pairs) {
                        match committed {
                            Ok(()) => db.put(k, v),
                            Err(_) => replies[oi as usize] = BatchReply::Readonly,
                        }
                    }
                }
                shard.touch(&reads.touches, tid);
            } else {
                let db = shard.db.read();
                Shard::<P>::search(&db, ops, group, &mut replies, reads);
                shard.touch(&reads.touches, tid);
            }
            reads.touches.clear();
            malthus_obs::record(
                malthus_obs::EventKind::ShardBatchEnd,
                shard_idx as u64,
                group.len() as u64,
            );
        }
        BATCH_SCRATCH.set(scratch);
        (replies, refused)
    }

    /// Ordered range scan: up to `limit` pairs with `key >= start`,
    /// ascending, `limit` clamped to [`MAX_SCAN_LIMIT`].
    ///
    /// Visits every shard (keys are hash-routed, so any shard may
    /// hold part of any key range) **one at a time**, collecting up
    /// to `limit` candidates per shard under that shard's read lock,
    /// then merges. Shards hold disjoint key sets, so the merge is a
    /// plain sort. The result is a racy cross-shard snapshot:
    /// per-shard consistent, but a concurrent writer may land between
    /// two shard visits (module contract).
    pub fn scan(&self, start: u64, limit: usize) -> Vec<(u64, u64)> {
        let limit = limit.min(MAX_SCAN_LIMIT);
        if limit == 0 {
            return Vec::new();
        }
        let mut merged: Vec<(u64, u64)> = Vec::new();
        for shard in &self.shards {
            let db = shard.db.read();
            shard.scans.fetch_add(1, Ordering::Relaxed);
            merged.extend(db.scan_from(start, limit));
        }
        merged.sort_unstable_by_key(|&(k, _)| k);
        merged.truncate(limit);
        merged
    }

    /// Per-shard statistics, sampled shard-by-shard without ever
    /// holding two shard locks at once (racy cross-shard snapshot;
    /// module contract). Within one shard, the DB counters are read
    /// under the read lock and the cache counters under the cache
    /// lock — taken one after the other, not nested.
    pub fn stats(&self) -> ShardedKvStats {
        ShardedKvStats {
            per_shard: (0..self.shards.len())
                .map(|i| self.shard_stats(i))
                .collect(),
        }
    }

    /// Racy snapshot of a single shard (see [`ShardedKv::stats`]).
    /// Cheaper than a full [`ShardedKvStats`] when only one shard is
    /// being sampled, e.g. by per-shard registry closures.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn shard_stats(&self, index: usize) -> ShardSnapshot {
        let shard = &self.shards[index];
        let (
            reads,
            filter_skips,
            writes,
            keys,
            runs,
            index_bytes,
            wal_appends,
            wal_syncs,
            wal_bytes,
        ) = {
            let db = shard.db.read();
            (
                db.reads(),
                db.filter_skips(),
                db.writes(),
                db.len_estimate(),
                db.run_count(),
                db.index_bytes(),
                db.wal_appends(),
                db.wal_syncs(),
                db.wal_bytes(),
            )
        };
        let cache = shard.cache.lock().stats();
        ShardSnapshot {
            reads,
            filter_skips,
            writes,
            keys,
            runs,
            index_bytes,
            scans: shard.scans.load(Ordering::Relaxed),
            wal_appends,
            wal_syncs,
            wal_bytes,
            wal_errors: shard.wal_errors.load(Ordering::Relaxed),
            readonly: shard.readonly.load(Ordering::Relaxed),
            readonly_rejects: shard.readonly_rejects.load(Ordering::Relaxed),
            heal_attempts: shard.heal_attempts.load(Ordering::Relaxed),
            heals: shard.heals.load(Ordering::Relaxed),
            db_lock: shard.db.raw().stats(),
            cache,
        }
    }

    /// Registers the store's per-shard counters and gauges, the skew
    /// gauge, and the WAL fsync histogram with a metrics
    /// [`Registry`](malthus_obs::Registry).
    ///
    /// Closures capture an `Arc` of the store, so the registry may
    /// outlive the registering call site; each sample takes only the
    /// one shard's locks it reports on.
    pub fn register_metrics(self: &Arc<Self>, registry: &malthus_obs::Registry) {
        type SnapshotCounter = fn(&ShardSnapshot) -> u64;
        let shard_counters: [(&str, &str, SnapshotCounter); 11] = [
            ("kv_shard_reads_total", "Reads served by the shard.", |s| {
                s.reads
            }),
            (
                "kv_shard_filter_skips_total",
                "Runs not consulted because their filter rejected the key.",
                |s| s.filter_skips,
            ),
            (
                "kv_shard_writes_total",
                "Writes accepted by the shard.",
                |s| s.writes,
            ),
            (
                "kv_shard_scans_total",
                "Scans that visited the shard.",
                |s| s.scans,
            ),
            (
                "kv_shard_wal_appends_total",
                "WAL group commits appended.",
                |s| s.wal_appends,
            ),
            ("kv_shard_wal_syncs_total", "WAL fsyncs issued.", |s| {
                s.wal_syncs
            }),
            (
                "kv_shard_wal_bytes_total",
                "Bytes appended to the WAL.",
                |s| s.wal_bytes,
            ),
            (
                "kv_shard_wal_errors_total",
                "WAL I/O errors observed.",
                |s| s.wal_errors,
            ),
            (
                "kv_readonly_rejects_total",
                "Write groups refused while the shard was read-only.",
                |s| s.readonly_rejects,
            ),
            (
                "kv_shard_heal_attempts_total",
                "Heal probes attempted against the shard.",
                |s| s.heal_attempts,
            ),
            (
                "kv_shard_heals_total",
                "Heal probes that flipped the shard back to writable.",
                |s| s.heals,
            ),
        ];
        let lock_counters: [(&str, &str, SnapshotCounter); 5] = [
            (
                "lock_reader_culls_total",
                "Readers passivated by the shard DB lock.",
                |s| s.db_lock.reader_culls,
            ),
            (
                "lock_reader_reprovisions_total",
                "Readers reprovisioned by the shard DB lock.",
                |s| s.db_lock.reader_reprovisions,
            ),
            (
                "lock_reader_fairness_grants_total",
                "Reader fairness grants by the shard DB lock.",
                |s| s.db_lock.reader_fairness_grants,
            ),
            (
                "lock_write_episodes_total",
                "Exclusive write episodes on the shard DB lock.",
                |s| s.db_lock.write_episodes,
            ),
            (
                "lock_writer_drain_waits_total",
                "Writer waits for the reader count to drain.",
                |s| s.db_lock.writer_drain_waits,
            ),
        ];
        type SnapshotGauge = fn(&ShardSnapshot) -> f64;
        let shard_gauges: [(&str, &str, SnapshotGauge); 4] = [
            (
                "kv_shard_keys",
                "Resident keys (memtable + runs, duplicates included).",
                |s| s.keys as f64,
            ),
            ("kv_shard_runs", "Frozen memtable runs.", |s| s.runs as f64),
            (
                "kv_shard_index_bytes",
                "Bytes of the runs' slot tables and filters.",
                |s| s.index_bytes as f64,
            ),
            (
                "kv_shard_readonly",
                "1 when the shard is poisoned read-only after a WAL failure.",
                |s| u8::from(s.readonly) as f64,
            ),
        ];
        for i in 0..self.shards.len() {
            let shard_label = i.to_string();
            for (name, help, f) in shard_counters {
                let store = Arc::clone(self);
                registry.counter(name, help, &[("shard", &shard_label)], move || {
                    f(&store.shard_stats(i))
                });
            }
            for (name, help, f) in lock_counters {
                let store = Arc::clone(self);
                registry.counter(
                    name,
                    help,
                    &[("lock", "db"), ("shard", &shard_label)],
                    move || f(&store.shard_stats(i)),
                );
            }
            for (name, help, f) in shard_gauges {
                let store = Arc::clone(self);
                registry.gauge(name, help, &[("shard", &shard_label)], move || {
                    f(&store.shard_stats(i))
                });
            }
        }
        let store = Arc::clone(self);
        registry.gauge(
            "kv_hottest_shard_write_share",
            "Fraction of all writes landing on the hottest shard (1/shards = uniform).",
            &[],
            move || store.stats().hottest_write_share(),
        );
        let hist = Arc::clone(&self.fsync_hist);
        registry.histogram(
            "kv_wal_fsync_ns",
            "WAL fsync latency per group commit, nanoseconds.",
            &[],
            move || hist.snapshot(),
        );
    }
}

impl<P: LockPair> std::fmt::Debug for ShardedKv<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedKv")
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minikv::tests::MAX_RUNS;
    use std::sync::Arc;

    #[test]
    fn put_get_round_trip_across_shards() {
        let kv = ShardedKv::new(4, 64, 256);
        for k in 0..500u64 {
            kv.put(k, k * 3).unwrap();
        }
        for k in 0..500u64 {
            assert_eq!(kv.get(k), Some(k * 3), "key {k}");
        }
        assert_eq!(kv.get(10_000), None);
        // Every shard must have received some of the keys.
        let stats = kv.stats();
        for (i, s) in stats.per_shard.iter().enumerate() {
            assert!(s.writes > 0, "shard {i} got no writes");
        }
        assert_eq!(stats.writes(), 500);
    }

    #[test]
    fn single_shard_degenerates_to_minikv_semantics() {
        let kv = ShardedKv::new(1, 8, 64);
        for k in 0..40u64 {
            kv.put(k, k + 1).unwrap();
        }
        for k in 0..40u64 {
            assert_eq!(kv.get(k), Some(k + 1));
        }
        let stats = kv.stats();
        assert_eq!(stats.per_shard.len(), 1);
        assert_eq!(stats.writes(), 40);
    }

    #[test]
    fn mget_answers_in_key_order() {
        let kv = ShardedKv::new(4, 16, 64);
        kv.mset(&[(1, 10), (2, 20), (3, 30)]).unwrap();
        assert_eq!(
            kv.mget(&[3, 99, 1, 2, 3]),
            vec![Some(30), None, Some(10), Some(20), Some(30)]
        );
        assert_eq!(kv.mget(&[]), Vec::<Option<u64>>::new());
    }

    #[test]
    fn mset_later_duplicates_win() {
        let kv = ShardedKv::new(4, 16, 64);
        assert_eq!(kv.mset(&[(7, 1), (7, 2), (7, 3)]), Ok(3));
        assert_eq!(kv.get(7), Some(3));
    }

    #[test]
    fn scan_merges_shards_in_key_order() {
        let kv = ShardedKv::new(4, 8, 64);
        for k in 0..100u64 {
            kv.put(k, k + 500).unwrap();
        }
        let all = kv.scan(0, 1_000);
        assert_eq!(all.len(), 100);
        for (i, &(k, v)) in all.iter().enumerate() {
            assert_eq!(k, i as u64, "keys ascending and dense");
            assert_eq!(v, k + 500);
        }
        assert_eq!(kv.scan(90, 5).len(), 5);
        assert_eq!(kv.scan(90, 5)[0].0, 90);
        assert!(kv.scan(1_000, 5).is_empty());
        assert!(kv.scan(0, 0).is_empty());
    }

    #[test]
    fn scan_limit_is_clamped() {
        let kv = ShardedKv::new(2, 16, 64);
        kv.put(1, 1).unwrap();
        assert_eq!(kv.scan(0, usize::MAX).len(), 1);
    }

    #[test]
    fn a_scan_counts_once_per_shard_it_visits() {
        let kv = ShardedKv::new(2, 16, 64);
        kv.mset(&[(1, 1), (2, 2), (3, 3), (4, 4)]).unwrap();
        kv.scan(0, 10);
        let scans: u64 = kv.stats().per_shard.iter().map(|s| s.scans).sum();
        assert_eq!(scans, 2);
    }

    #[test]
    fn stats_while_writing_is_a_coherent_racy_sum() {
        let kv = Arc::new(ShardedKv::new(4, 64, 256));
        let writers: Vec<_> = (0..2)
            .map(|t| {
                let kv = Arc::clone(&kv);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        kv.put(t * 100_000 + i, i).unwrap();
                    }
                })
            })
            .collect();
        // Sampled sums must be monotonic and never exceed the final
        // total — per-shard counters only grow.
        let mut last = 0u64;
        for _ in 0..50 {
            let w = kv.stats().writes();
            assert!(w >= last, "sum went backwards: {w} < {last}");
            assert!(w <= 4_000);
            last = w;
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(kv.stats().writes(), 4_000, "exact once quiescent");
    }

    #[test]
    fn hottest_write_share_detects_skew() {
        let kv = ShardedKv::new(4, 64, 256);
        assert_eq!(kv.stats().hottest_write_share(), 0.0);
        // All writes to one key = one shard: share 1.0.
        for _ in 0..100 {
            kv.put(42, 1).unwrap();
        }
        assert!((kv.stats().hottest_write_share() - 1.0).abs() < 1e-12);
        // Spread writes: share drops toward 1/shards.
        for k in 0..10_000u64 {
            kv.put(k, 1).unwrap();
        }
        assert!(kv.stats().hottest_write_share() < 0.5);
    }

    #[test]
    fn execute_batch_round_trips_and_reads_its_own_writes() {
        let kv = ShardedKv::new(4, 16, 64);
        kv.put(9, 90).unwrap();
        let mget_keys = [1u64, 9, 777];
        let mset_pairs = [(20u64, 200u64), (21, 210)];
        let replies = kv.execute_batch(&[
            BatchOp::Put(1, 10),
            BatchOp::Get(1),   // sees the put earlier in the batch
            BatchOp::Get(9),   // pre-existing key
            BatchOp::Get(555), // miss
            BatchOp::Mset(&mset_pairs),
            BatchOp::Mget(&mget_keys),
            BatchOp::Get(20),
        ]);
        assert_eq!(
            replies,
            vec![
                BatchReply::Done,
                BatchReply::Value(Some(10)),
                BatchReply::Value(Some(90)),
                BatchReply::Value(None),
                BatchReply::Wrote(2),
                BatchReply::Values(vec![Some(10), Some(90), None]),
                BatchReply::Value(Some(200)),
            ]
        );
    }

    #[test]
    fn execute_batch_same_key_ops_apply_in_op_order() {
        let kv = ShardedKv::new(4, 16, 64);
        let replies = kv.execute_batch(&[
            BatchOp::Put(7, 1),
            BatchOp::Get(7),
            BatchOp::Put(7, 2),
            BatchOp::Get(7),
        ]);
        assert_eq!(
            replies,
            vec![
                BatchReply::Done,
                BatchReply::Value(Some(1)),
                BatchReply::Done,
                BatchReply::Value(Some(2)),
            ]
        );
        assert_eq!(kv.get(7), Some(2));
    }

    #[test]
    fn execute_batch_amortizes_writer_admission() {
        // 16 puts to a single-shard store: one exclusive acquisition,
        // not 16 — the admission amortization the pipelined protocol
        // exists for.
        let kv = ShardedKv::new(1, 1_024, 64);
        let before = kv.stats().per_shard[0].db_lock.write_episodes;
        let ops: Vec<BatchOp> = (0..16u64).map(|k| BatchOp::Put(k, k)).collect();
        kv.execute_batch(&ops);
        let after = kv.stats().per_shard[0].db_lock.write_episodes;
        assert_eq!(after - before, 1, "one write episode for 16 puts");
        for k in 0..16u64 {
            assert_eq!(kv.get(k), Some(k));
        }
    }

    #[test]
    fn execute_batch_read_only_group_takes_no_write_episode() {
        let kv = ShardedKv::new(2, 64, 64);
        for k in 0..32u64 {
            kv.put(k, k + 1).unwrap();
        }
        let before: u64 = kv
            .stats()
            .per_shard
            .iter()
            .map(|s| s.db_lock.write_episodes)
            .sum();
        let mget_keys = [3u64, 4];
        let replies = kv.execute_batch(&[
            BatchOp::Get(0),
            BatchOp::Get(1),
            BatchOp::Mget(&mget_keys),
            BatchOp::Get(31),
        ]);
        let after: u64 = kv
            .stats()
            .per_shard
            .iter()
            .map(|s| s.db_lock.write_episodes)
            .sum();
        assert_eq!(after, before, "read-only batch must stay on the read side");
        assert_eq!(replies[0], BatchReply::Value(Some(1)));
        assert_eq!(replies[2], BatchReply::Values(vec![Some(4), Some(5)]));
        assert_eq!(replies[3], BatchReply::Value(Some(32)));
    }

    /// A one-shard store whose keys `0..keys` (value `k + 1`) are all
    /// frozen into runs.
    fn run_resident_store(keys: u64) -> ShardedKv {
        let kv = ShardedKv::new(1, 4, 64);
        for k in 0..keys {
            kv.put(k, k + 1).unwrap();
        }
        let db = kv.db_lock(0).read();
        assert!((0..keys).all(|k| db.get_memtable(k).is_none()));
        drop(db);
        kv
    }

    #[test]
    fn a_sub_group_searches_its_runs_without_the_cache_lock() {
        // The observer holds the cache lock for as long as the
        // sub-group searches: every key's search (counted by the
        // store's read counter, which the observer samples under the
        // shared DB lock) must get done anyway, with not one lookup
        // reaching the cache, and the touches land once it lets go.
        const KEYS: u64 = 256;
        let kv = run_resident_store(KEYS);
        let ops: Vec<BatchOp> = (0..KEYS).map(BatchOp::Get).collect();
        let shard = &kv.shards[0];
        let lookups = |s: LruStats| s.hits + s.misses;
        let reads = || shard.db.read().reads();
        let guard = shard.cache.lock();
        let (reads_before, lookups_before) = (reads(), lookups(guard.stats()));
        std::thread::scope(|s| {
            let reader = s.spawn(|| kv.execute_batch(&ops));
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while reads() < reads_before + KEYS && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            let searched = reads() - reads_before;
            let touched = lookups(guard.stats()) - lookups_before;
            // Released before anything can fail: a reader stuck on
            // the lock would keep the scope from ever joining.
            drop(guard);
            let replies = reader.join().unwrap();
            assert_eq!(searched, KEYS, "the searches waited for the cache lock");
            assert_eq!(touched, 0, "the cache was touched from outside its lock");
            for (k, reply) in (0..KEYS).zip(&replies) {
                assert_eq!(*reply, BatchReply::Value(Some(k + 1)));
            }
        });
        let touched = lookups(kv.shard_stats(0).cache) - lookups_before;
        assert!(touched >= KEYS, "one touch per run consulted: {touched}");
        // Memtable hits still leave the cache lock alone.
        kv.put(1_000, 7).unwrap();
        let guard = shard.cache.lock();
        assert_eq!(kv.get(1_000), Some(7));
        assert_eq!(
            kv.execute_batch(&[BatchOp::Get(1_000)]),
            [BatchReply::Value(Some(7))]
        );
        drop(guard);
    }

    #[test]
    fn deferred_touches_are_the_interleaved_touches() {
        // The same op stream through `execute_batch` (search now,
        // replay the touches at the end of the sub-group) and through
        // a twin `MiniKv` + `SimpleLru` served op by op with
        // `get_runs` (touch while searching): after every sub-group
        // the replies, the cache counters and the resident set agree
        // — also when a freeze renumbers the runs in the middle of a
        // sub-group, and with sub-groups coming from different
        // threads (the displacement counters attribute by thread).
        const KEY_SPACE: u64 = 40_000;
        let block_ids = || {
            (0..MAX_RUNS as u32)
                .flat_map(|run| (0..=KEY_SPACE as u32 / 64).map(move |b| run << 24 | b))
        };
        let mut reads_after_a_freeze = 0;
        for (seed, limit, blocks) in [(1u64, 1, 8), (2, 3, 64), (3, 64, 16), (4, 64, 700)] {
            let kv = ShardedKv::new(1, limit, blocks);
            let (mut twin, mut twin_cache) = (MiniKv::new(limit), SimpleLru::new(blocks));
            let rng = malthus_park::XorShift64::new(seed);
            for group in 0..600 {
                let mget_keys: Vec<u64> = (0..5).map(|_| rng.next_below(KEY_SPACE)).collect();
                let ops: Vec<BatchOp> = (0..1 + rng.next_below(32))
                    .map(|_| match rng.next_below(10) {
                        0..=5 => BatchOp::Get(rng.next_below(KEY_SPACE)),
                        6 => BatchOp::Mget(&mget_keys),
                        _ => BatchOp::Put(rng.next_below(KEY_SPACE), rng.next_u64()),
                    })
                    .collect();
                let run = || (current_thread_index(), kv.execute_batch(&ops));
                let (tid, replies) = if group % 2 == 0 {
                    run()
                } else {
                    std::thread::scope(|s| s.spawn(run).join().unwrap())
                };
                let froze = Cell::new(false);
                let mut twin_get = |twin: &MiniKv, key| {
                    reads_after_a_freeze += usize::from(froze.get());
                    twin.get_memtable(key)
                        .or_else(|| twin.get_runs(key, &mut twin_cache, tid))
                };
                for (op, reply) in ops.iter().zip(&replies) {
                    let expect = match *op {
                        BatchOp::Get(key) => BatchReply::Value(twin_get(&twin, key)),
                        BatchOp::Mget(keys) => {
                            BatchReply::Values(keys.iter().map(|&k| twin_get(&twin, k)).collect())
                        }
                        BatchOp::Put(key, value) => {
                            twin.put(key, value);
                            froze.set(froze.get() || twin.get_memtable(key).is_none());
                            BatchReply::Done
                        }
                        BatchOp::Mset(_) => unreachable!("not generated"),
                    };
                    assert_eq!(*reply, expect, "seed {seed} group {group}");
                }
                let cache = kv.shards[0].cache.lock();
                assert_eq!(
                    cache.stats(),
                    twin_cache.stats(),
                    "seed {seed} group {group}"
                );
                assert_eq!(cache.len(), twin_cache.len());
                if group % 16 == 0 {
                    for id in block_ids() {
                        assert_eq!(cache.contains(id), twin_cache.contains(id), "block {id:#x}");
                    }
                }
            }
            let stats = kv.shard_stats(0);
            assert!(stats.cache.cross_displacements > 0 && stats.cache.self_displacements > 0);
            assert!(stats.runs <= MAX_RUNS);
        }
        assert!(reads_after_a_freeze > 1_000, "{reads_after_a_freeze}");
    }

    #[test]
    fn a_put_that_freezes_splits_the_sub_group_into_two_stretches() {
        // `GET k, PUT k, GET k, GET j` on one shard whose memtable
        // holds a single entry: the PUT freezes — merging into the
        // accumulator or folding it into the base, so the runs the
        // second stretch walks are not the ones the first did — and
        // lands between the two stretches. Against the same ops issued
        // one at a time, over stores of every small size so that `k`
        // and `j` are met in the accumulator, in the base and absent.
        for preloaded in 0..48u64 {
            let (batched, sequential) = (ShardedKv::new(1, 1, 8), ShardedKv::new(1, 1, 8));
            for key in 0..preloaded {
                batched.put(key * 64, key).unwrap();
                sequential.put(key * 64, key).unwrap();
            }
            let (k, j) = (preloaded / 2 * 64, preloaded / 3 * 64);
            let old = (preloaded > 0).then_some(preloaded / 2);
            let ops = [
                BatchOp::Get(k),
                BatchOp::Put(k, 1_000),
                BatchOp::Get(k),
                BatchOp::Get(j),
            ];
            let replies = batched.execute_batch(&ops);
            let one_by_one = [
                BatchReply::Value(sequential.get(k)),
                sequential
                    .put(k, 1_000)
                    .map_or(BatchReply::Readonly, |()| BatchReply::Done),
                BatchReply::Value(sequential.get(k)),
                BatchReply::Value(sequential.get(j)),
            ];
            assert_eq!(replies, one_by_one, "{preloaded} keys");
            assert_eq!(replies[0], BatchReply::Value(old), "{preloaded} keys");
            assert_eq!(replies[2], BatchReply::Value(Some(1_000)));
            let (b, s) = (batched.shard_stats(0), sequential.shard_stats(0));
            assert_eq!(
                (b.reads, b.filter_skips, b.runs, b.cache),
                (s.reads, s.filter_skips, s.runs, s.cache),
                "{preloaded} keys"
            );
        }
    }

    #[test]
    fn read_sub_group_takes_the_cache_lock_once() {
        // `McsCrLock` keeps no acquisition count (`cr_stats` counts
        // culls, reprovisions and fairness grants), so a sub-group's
        // acquisitions are counted from outside: an observer that
        // keeps cycling the cache lock can see the sub-group's cache
        // traffic grow only *between* two of the reader's holds. One
        // hold per sub-group means its touches always arrive all at
        // once; one hold per key shows up as soon as the observer gets
        // in between two of them, which the rounds give it many tries
        // at.
        const KEYS: u64 = 2_048;
        let kv = run_resident_store(KEYS);
        let keys: Vec<u64> = (0..KEYS).collect();
        let (gets, mget) = keys.split_at(keys.len() / 2);
        let mut ops: Vec<BatchOp> = gets.iter().map(|&k| BatchOp::Get(k)).collect();
        ops.push(BatchOp::Mget(mget));
        let lookups = |s: LruStats| s.hits + s.misses;
        // A key's lookup count depends on which run holds it, not on
        // the cache's state: one dry run gives the sub-group's total.
        let idle = lookups(kv.shard_stats(0).cache);
        kv.execute_batch(&ops);
        let per_batch = lookups(kv.shard_stats(0).cache) - idle;
        assert!(per_batch >= KEYS);

        let cache = &kv.shards[0].cache;
        for round in 0..8 {
            let mut guard = cache.lock();
            let start = lookups(guard.stats());
            let holds_observed = std::thread::scope(|s| {
                let reader = s.spawn(|| kv.execute_batch(&ops));
                let (mut seen, mut holds_observed) = (start, 0);
                while seen < start + per_batch {
                    drop(guard);
                    guard = cache.lock();
                    let now = lookups(guard.stats());
                    if now != seen {
                        holds_observed += 1;
                        seen = now;
                    }
                }
                drop(guard);
                let replies = reader.join().unwrap();
                assert_eq!(replies[0], BatchReply::Value(Some(1)));
                holds_observed
            });
            assert_eq!(holds_observed, 1, "round {round}: {KEYS} keys, one hold");
        }
    }

    #[test]
    fn execute_batch_empty_and_degenerate_ops() {
        let kv = ShardedKv::new(2, 16, 64);
        assert!(kv.execute_batch(&[]).is_empty());
        let no_keys: [u64; 0] = [];
        let no_pairs: [(u64, u64); 0] = [];
        let replies = kv.execute_batch(&[BatchOp::Mget(&no_keys), BatchOp::Mset(&no_pairs)]);
        assert_eq!(
            replies,
            vec![BatchReply::Values(Vec::new()), BatchReply::Wrote(0)]
        );
    }

    #[test]
    fn batch_grouping_is_the_stable_partition_group_indices_gives() {
        // The counting sort against the `Vec<Vec<usize>>` grouping it
        // replaced: same groups, same (op) order inside each, over
        // seeded batches mixing all four op shapes — and the scratch
        // carries nothing over from one batch to the next.
        let rng = malthus_park::XorShift64::new(0x5EED_0BA7);
        let mut scratch = BatchScratch::default();
        for shards in [1usize, 2, 3, 4, 7, 16] {
            let router = ShardRouter::new(shards);
            for _ in 0..200 {
                let keys: Vec<u64> = (0..rng.next_below(40)).map(|_| rng.next_u64()).collect();
                let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k ^ 1, k)).collect();
                let ops: Vec<BatchOp<'_>> = (0..rng.next_below(24))
                    .map(|_| {
                        let cut = rng.next_below(keys.len() as u64 + 1) as usize;
                        match rng.next_below(4) {
                            0 => BatchOp::Get(rng.next_u64()),
                            1 => BatchOp::Put(rng.next_u64(), 1),
                            2 => BatchOp::Mget(&keys[..cut]),
                            _ => BatchOp::Mset(&pairs[cut..]),
                        }
                    })
                    .collect();
                let flat: Vec<(u32, u32)> = ops
                    .iter()
                    .enumerate()
                    .flat_map(|(oi, op)| (0..op.key_count()).map(move |s| (oi as u32, s as u32)))
                    .collect();
                let want = router.group_indices(
                    flat.iter()
                        .map(|&(oi, slot)| ops[oi as usize].key_at(slot as usize)),
                );
                scratch.group(&ops, router);
                assert_eq!(scratch.ends.len(), shards);
                let mut begin = 0;
                for (shard, group) in want.iter().enumerate() {
                    let end = scratch.ends[shard] as usize;
                    let want: Vec<(u32, u32)> = group.iter().map(|&f| flat[f]).collect();
                    assert_eq!(scratch.order[begin..end], want, "shard {shard} of {shards}");
                    begin = end;
                }
                assert_eq!(begin, flat.len(), "every routed key is in some group");
            }
        }
    }

    #[test]
    fn sharded_kv_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<ShardedKv>();
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "malthus-sharded-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn durable_store_survives_reopen() {
        let dir = temp_dir("reopen");
        {
            let (kv, report) = ShardedKv::open(&dir, 4, 64, 256).unwrap();
            assert_eq!(report.pairs(), 0, "fresh dir replays nothing");
            kv.put(1, 10).unwrap();
            kv.mset(&(0..100u64).map(|k| (k + 50, k)).collect::<Vec<_>>())
                .unwrap();
            let pairs = [(200u64, 1u64)];
            kv.execute_batch(&[BatchOp::Put(7, 70), BatchOp::Mset(&pairs)]);
        }
        let (kv, report) = ShardedKv::open(&dir, 4, 64, 256).unwrap();
        assert!(report.clean(), "clean shutdown: {report:?}");
        assert!(report.pairs() >= 103);
        assert_eq!(kv.get(1), Some(10));
        assert_eq!(kv.get(7), Some(70));
        assert_eq!(kv.get(200), Some(1));
        for k in 0..100u64 {
            assert_eq!(kv.get(k + 50), Some(k), "mset key {}", k + 50);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_writes_group_commit_with_one_fsync_per_shard() {
        let dir = temp_dir("group");
        let (kv, _) = ShardedKv::open(&dir, 1, 1_024, 64).unwrap();
        let before = kv.stats().wal_syncs();
        let ops: Vec<BatchOp> = (0..16u64).map(|k| BatchOp::Put(k, k)).collect();
        kv.execute_batch(&ops);
        let after = kv.stats().wal_syncs();
        assert_eq!(after - before, 1, "16 batched puts, one fsync");
        // 16 singleton puts: 16 fsyncs — what a depth-1 client pays
        // per write, and the batch above amortizes.
        for k in 0..16u64 {
            kv.put(100 + k, k).unwrap();
        }
        assert_eq!(kv.stats().wal_syncs() - after, 16);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Options arming a store with the fault plan `spec`.
    fn faulted(spec: &str) -> WalOptions {
        WalOptions {
            faults: Some(malthus_fault::FaultPlan::parse(spec).unwrap().arm()),
            ..WalOptions::default()
        }
    }

    /// The first key `kv` routes to `shard`.
    fn key_on(kv: &ShardedKv, shard: usize) -> u64 {
        (0u64..).find(|&k| kv.router().route(k) == shard).unwrap()
    }

    #[test]
    fn fsync_failure_poisons_only_the_affected_shard() {
        let dir = temp_dir("poison");
        let opts = faulted("storage.fsync=1x1");
        let (kv, _) = ShardedKv::open_with(&dir, 4, 64, 256, opts).unwrap();
        let keys = {
            // One key per shard.
            let router = kv.router();
            let mut keys = vec![None; 4];
            for k in 0..100_000u64 {
                keys[router.route(k)].get_or_insert(k);
            }
            keys.into_iter().map(Option::unwrap).collect::<Vec<_>>()
        };
        // The store's one injected fsync failure meets its first
        // write, on shard 0: the write is refused and the shard goes
        // read-only.
        let err = kv.put(keys[0], 1).unwrap_err();
        assert_eq!(err, WriteError { shard: 0 });
        assert_eq!(kv.get(keys[0]), None, "refused write must not apply");
        // Healthy shards keep serving writes.
        for (shard, &k) in keys.iter().enumerate().skip(1) {
            kv.put(k, k + 1)
                .unwrap_or_else(|e| panic!("shard {shard}: {e}"));
            assert_eq!(kv.get(k), Some(k + 1));
        }
        // Reads on the poisoned shard keep working; repeat writes
        // keep failing without touching the WAL again.
        assert_eq!(kv.get(keys[0]), None);
        assert!(kv.put(keys[0], 2).is_err());
        let stats = kv.stats();
        assert_eq!(stats.readonly_shards(), 1);
        assert_eq!(stats.wal_errors(), 1);
        assert!(stats.per_shard[0].readonly);
        assert!(!stats.per_shard[1].readonly);
        // A cross-shard mset reports the refusal but still lands the
        // healthy shards' pairs (per-shard atomicity).
        let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, 900)).collect();
        assert_eq!(kv.mset(&pairs), Err(WriteError { shard: 0 }));
        assert_eq!(kv.get(keys[1]), Some(900));
        assert_eq!(kv.get(keys[0]), None);
        // Same refusal through the batch path.
        let replies = kv.execute_batch(&[
            BatchOp::Put(keys[0], 5),
            BatchOp::Put(keys[1], 5),
            BatchOp::Get(keys[1]),
        ]);
        assert_eq!(replies[0], BatchReply::Readonly);
        assert_eq!(replies[1], BatchReply::Done);
        assert_eq!(replies[2], BatchReply::Value(Some(5)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mget_and_mset_are_the_one_op_batch() {
        // Twin stores, shard 0 of each poisoned by its first fsync: one
        // is driven through `mget`/`mset`, the other through the
        // equivalent one-op `execute_batch`. Results and every
        // per-shard counter must agree — there is one executor.
        let open = |tag| {
            let dir = temp_dir(tag);
            let opts = faulted("storage.fsync=1x1");
            let (kv, _) = ShardedKv::open_with(&dir, 4, 16, 64, opts).unwrap();
            // Each store's one injected failure meets its first write.
            assert_eq!(kv.put(key_on(&kv, 0), 0), Err(WriteError { shard: 0 }));
            (kv, dir)
        };
        let (direct, direct_dir) = open("oneop-direct");
        let (batched, batched_dir) = open("oneop-batched");
        let rng = malthus_park::XorShift64::new(0x0E0F_BA7C);
        for round in 0..40 {
            let pairs: Vec<(u64, u64)> = (0..rng.next_below(24))
                .map(|_| (rng.next_below(64), rng.next_u64()))
                .collect();
            let keys: Vec<u64> = (0..rng.next_below(24))
                .map(|_| rng.next_below(96))
                .collect();
            let touches_shard_0 = pairs.iter().any(|&(k, _)| direct.router().route(k) == 0);
            let wrote = direct.mset(&pairs);
            let replies = batched.execute_batch(&[BatchOp::Mset(&pairs)]);
            match wrote {
                Ok(n) => {
                    assert!(!touches_shard_0, "round {round}");
                    assert_eq!(replies, vec![BatchReply::Wrote(n)]);
                }
                Err(e) => {
                    assert!(touches_shard_0, "round {round}");
                    assert_eq!(e, WriteError { shard: 0 }, "the first refusing shard");
                    assert_eq!(replies, vec![BatchReply::Readonly]);
                }
            }
            let values = direct.mget(&keys);
            assert_eq!(
                batched.execute_batch(&[BatchOp::Mget(&keys)]),
                vec![BatchReply::Values(values)],
                "round {round}"
            );
        }
        let (direct, batched) = (direct.stats(), batched.stats());
        assert_eq!(direct.readonly_shards(), 1);
        assert!(direct.per_shard[0].readonly_rejects > 0 && direct.writes() > 0);
        for (shard, (d, b)) in direct.per_shard.iter().zip(&batched.per_shard).enumerate() {
            let counters = |s: &ShardSnapshot| {
                (
                    (s.reads, s.writes),
                    (s.db_lock.write_episodes, s.wal_syncs, s.readonly_rejects),
                    s.readonly,
                )
            };
            assert_eq!(counters(d), counters(b), "shard {shard}");
        }
        std::fs::remove_dir_all(&direct_dir).unwrap();
        std::fs::remove_dir_all(&batched_dir).unwrap();
    }

    #[test]
    fn shard_stall_holds_its_own_shard_only_and_spends_its_budget() {
        // `shard.stall` sleeps inside the stalled shard's exclusive
        // hold: a writer on the other shard passes it by.
        use malthus_fault::Site;
        let dir = temp_dir("stall");
        let faults = malthus_fault::FaultPlan::parse("shard.stall=1x1:200")
            .unwrap()
            .arm();
        let opts = WalOptions {
            faults: Some(Arc::clone(&faults)),
            ..WalOptions::default()
        };
        let (kv, _) = ShardedKv::open_with(&dir, 2, 64, 64, opts).unwrap();
        let (a, b) = (key_on(&kv, 0), key_on(&kv, 1));
        let a_done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let stalled = s.spawn(|| {
                let start = std::time::Instant::now();
                kv.put(a, 1).unwrap();
                a_done.store(true, Ordering::SeqCst);
                start.elapsed()
            });
            // A draws the one stall before B's write group asks.
            while faults.injected(Site::ShardStall) == 0 && !stalled.is_finished() {
                std::thread::yield_now();
            }
            kv.put(b, 2).unwrap();
            assert!(!a_done.load(Ordering::SeqCst), "B waited out A's stall");
            let took = stalled.join().unwrap();
            assert!(took.as_millis() >= 200, "A's PUT took {took:?}");
        });
        // The budget is spent: A's next write group draws, unstalled.
        kv.put(a, 3).unwrap();
        assert_eq!(faults.injected(Site::ShardStall), 1);
        assert_eq!(faults.checked(Site::ShardStall), 3, "one draw per group");
        assert_eq!((kv.get(a), kv.get(b)), (Some(3), Some(2)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_errors_and_heals_go_to_the_flight_recorder() {
        // Two injected fsync failures: the write that poisons the
        // shard, then the first heal probe. The recorder is the
        // process's, so the faults land on shard 3, which no other
        // test in this binary poisons.
        use malthus_obs::{recorder, EventKind};
        let dir = temp_dir("recorded");
        let opts = faulted("storage.fsync=1x2");
        let (kv, _) = ShardedKv::open_with(&dir, 4, 64, 64, opts).unwrap();
        recorder::enable(0, 1);
        assert_eq!(kv.put(key_on(&kv, 3), 1), Err(WriteError { shard: 3 }));
        assert!(!kv.try_heal_shard(3), "the probe's fsync is refused too");
        assert!(kv.try_heal_shard(3));
        let events = recorder::events();
        recorder::disable();
        let position = |kind| {
            events
                .iter()
                .position(|e| e.kind == kind && (e.a, e.b) == (3, 0))
                .unwrap_or_else(|| panic!("no {kind:?} for shard 3: {events:?}"))
        };
        let readonly = position(EventKind::ShardReadonly);
        let probe_failed = position(EventKind::HealProbeFailed);
        assert!(readonly < probe_failed && probe_failed < position(EventKind::ShardHealed));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopening_with_a_different_shard_count_is_refused() {
        let dir = temp_dir("mismatch");
        {
            let (kv, _) = ShardedKv::open(&dir, 2, 64, 64).unwrap();
            kv.put(1, 1).unwrap();
        }
        let err = ShardedKv::open(&dir, 4, 64, 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
