//! Per-shard write-ahead logging with group commit.
//!
//! *Malthusian Locks* amortizes writer **admission** over batches:
//! `ShardedKv::execute_batch` executes a batch's per-shard write group
//! under one exclusive hold. This module amortizes **durability** over
//! the exact same boundary: the whole group is encoded into one
//! length-prefixed, CRC32-checksummed record, appended and fsynced
//! once ([`ShardWal::append_group`]) *before* the writes are applied
//! to the in-memory store. One admission, one fsync, `n` writes.
//!
//! # Record format
//!
//! All integers little-endian:
//!
//! ```text
//! [len: u32] [crc: u32] [payload: len bytes]
//! payload = [count: u32] [key: u64, value: u64] × count
//! ```
//!
//! `crc` covers the payload only. Replay ([`replay`]) walks records
//! until the first problem and recovers the valid prefix:
//!
//! * a record whose header or body runs past end-of-file is a **torn
//!   tail** — the expected shape after `kill -9` mid-append;
//! * a complete record whose checksum mismatches is **corruption**
//!   and counted in [`ReplayOutcome::bad_records`].
//!
//! Either way replay stops — bytes after the first bad record cannot
//! be trusted (a wrong length desynchronizes all framing after it) —
//! and the opener truncates the file back to the valid prefix so new
//! appends extend a well-formed log.
//!
//! # Fault injection
//!
//! The file layer is the [`WalIo`] trait: [`FileWalIo`] is the real
//! thing, [`ChaosWalIo`] wraps any `WalIo` and fails an fsync
//! (`storage.fsync`), fails an append outright (`storage.enospc`) or
//! tears it halfway (`storage.short_write`) whenever the
//! [`FaultState`] it holds says so. A store opened with
//! [`WalOptions::faults`] wraps every shard's file layer in one, all
//! holding that same state — the server's `--fault-plan` and every
//! degradation test take this one path. An fsync error poisons only
//! its shard into read-only mode.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use malthus_fault::{FaultState, Site};
use malthus_metrics::LatencyHistogram;

/// Bytes of header before each record's payload (`len` + `crc`).
pub const RECORD_HEADER_BYTES: usize = 8;

/// Default log size past which reopening compacts the shard's log to
/// a single checkpoint record of its live pairs.
pub const DEFAULT_CHECKPOINT_BYTES: u64 = 1 << 20;

const CRC32_TABLE: [u32; 256] = crc32_table();

const fn crc32_table() -> [u32; 256] {
    // IEEE 802.3 reflected polynomial, the one zlib/`cksum -o3` use.
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE, reflected) of `bytes` — hand-rolled so the workspace
/// stays dependency-free. `crc32(b"123456789") == 0xCBF4_3926`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = u32::MAX;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Appends one encoded record for `pairs` to `out`.
///
/// # Panics
///
/// Panics if `pairs` is too large for the `u32` framing (more than
/// ~268M pairs — far beyond any wire batch).
pub fn encode_record(out: &mut Vec<u8>, pairs: &[(u64, u64)]) {
    let payload_len = 4 + 16 * pairs.len();
    assert!(
        u32::try_from(payload_len).is_ok() && u32::try_from(pairs.len()).is_ok(),
        "record too large for u32 framing"
    );
    out.reserve(RECORD_HEADER_BYTES + payload_len);
    let header_at = out.len();
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    out.extend_from_slice(&[0u8; 4]); // crc, patched below
    out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
    for &(k, v) in pairs {
        out.extend_from_slice(&k.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
    let crc = crc32(&out[header_at + RECORD_HEADER_BYTES..]);
    out[header_at + 4..header_at + RECORD_HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
}

/// What [`replay`] recovered from one shard's log bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Recovered `(key, value)` pairs in append order (apply in order;
    /// later duplicates win, as with sequential puts).
    pub pairs: Vec<(u64, u64)>,
    /// Whole records recovered.
    pub records: u64,
    /// Byte length of the valid prefix — the truncation point.
    pub valid_bytes: u64,
    /// The log ended mid-record (expected after a crash mid-append).
    pub torn_tail: bool,
    /// Complete records rejected for a checksum/shape mismatch.
    /// Replay stops at the first one, so this is 0 or 1 per log.
    pub bad_records: u64,
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// Walks `bytes` as a record stream, recovering the valid prefix.
///
/// Never panics on malformed input: a header or body running past the
/// end is a torn tail; a complete record whose CRC (or internal pair
/// count) disagrees is a bad record. Both stop the walk — see the
/// module docs for why nothing after the first bad record is used.
pub fn replay(bytes: &[u8]) -> ReplayOutcome {
    let mut out = ReplayOutcome::default();
    let mut at = 0usize;
    while at < bytes.len() {
        if bytes.len() - at < RECORD_HEADER_BYTES {
            out.torn_tail = true;
            break;
        }
        let len = read_u32(bytes, at) as usize;
        let crc = read_u32(bytes, at + 4);
        let body_at = at + RECORD_HEADER_BYTES;
        if len < 4 {
            // Impossible frame (payload must hold at least its count):
            // corrupted length field.
            out.bad_records += 1;
            break;
        }
        if bytes.len() - body_at < len {
            // The body runs past EOF. A corrupted length field looks
            // identical to a crash mid-append; treat it as torn — the
            // recovery action (truncate to the valid prefix) is the
            // same either way.
            out.torn_tail = true;
            break;
        }
        let body = &bytes[body_at..body_at + len];
        if crc32(body) != crc {
            out.bad_records += 1;
            break;
        }
        let count = read_u32(body, 0) as usize;
        if len != 4 + 16 * count {
            out.bad_records += 1;
            break;
        }
        for i in 0..count {
            let k = read_u64(body, 4 + 16 * i);
            let v = read_u64(body, 4 + 16 * i + 8);
            out.pairs.push((k, v));
        }
        out.records += 1;
        at = body_at + len;
        out.valid_bytes = at as u64;
    }
    out
}

/// The WAL's file layer: sequential appends plus a durability point.
///
/// `Send + Sync` because a [`ShardWal`] lives inside the shard state
/// guarded by the shard's `RwCrMutex`, whose `Sync` impl requires it.
/// Both methods take `&mut self`: the caller always holds the shard's
/// exclusive lock, so implementations need no internal locking.
pub trait WalIo: Send + Sync {
    /// Appends `bytes` at the end of the log. Must write all of
    /// `bytes` or return an error (no silent short writes).
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Makes everything appended so far durable (fsync).
    fn sync(&mut self) -> io::Result<()>;
    /// Attempts to restore a failed layer — the shard healer's probe
    /// calls this before its fsync probe. The file layer reopens its
    /// fd (a failed fsync may have latched an error flag the kernel
    /// will never clear on that fd); layers with nothing to restore
    /// keep the default no-op.
    fn reopen(&mut self) -> io::Result<()> {
        Ok(())
    }
    /// Shrinks the log to `len` bytes — the healer's tail amputation:
    /// a commit that failed mid-way (append landed, fsync refused; or
    /// a torn short write) leaves un-acked bytes past the last
    /// committed record, and healing without cutting them off would
    /// let refused writes resurrect on the next replay. Layers without
    /// a length keep the default no-op.
    fn truncate(&mut self, _len: u64) -> io::Result<()> {
        Ok(())
    }
}

/// The real file layer: `write_all` + `sync_data`.
#[derive(Debug)]
pub struct FileWalIo {
    file: File,
    /// Where the log lives, when known — enables [`WalIo::reopen`].
    path: Option<PathBuf>,
}

impl FileWalIo {
    /// Wraps an append-positioned file (no path: `reopen` is a
    /// no-op).
    pub fn new(file: File) -> Self {
        FileWalIo { file, path: None }
    }

    /// Wraps an append-positioned file that lives at `path`, so the
    /// healer's [`WalIo::reopen`] can swap in a fresh fd.
    pub fn with_path(file: File, path: PathBuf) -> Self {
        FileWalIo {
            file,
            path: Some(path),
        }
    }
}

impl WalIo for FileWalIo {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn reopen(&mut self) -> io::Result<()> {
        if let Some(path) = &self.path {
            self.file = OpenOptions::new().append(true).open(path)?;
        }
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        // Safe under O_APPEND: every subsequent append targets the
        // file's (new) end, not a remembered offset.
        self.file.set_len(len)
    }
}

/// A [`WalIo`] adapter consulting its [`FaultState`] on every
/// operation: fsync failures (`storage.fsync`), ENOSPC-style append
/// failures (`storage.enospc`, nothing written), torn short writes
/// (`storage.short_write`, half the record written), and lock-holder
/// stalls (`shard.stall`: an append sleeps first — appends run under
/// the shard's exclusive hold, so this is the preemption/convoy shape
/// the Malthusian policy's stall detection reprovisions around).
/// Wrapped onto every shard's file layer by `ShardedKv::open_with`
/// when [`WalOptions::faults`] is set.
#[derive(Debug)]
pub struct ChaosWalIo<W> {
    inner: W,
    faults: Arc<FaultState>,
}

impl<W: WalIo> ChaosWalIo<W> {
    /// Wraps `inner`; faults fire per `faults`.
    pub fn new(inner: W, faults: Arc<FaultState>) -> Self {
        ChaosWalIo { inner, faults }
    }
}

impl<W: WalIo> WalIo for ChaosWalIo<W> {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        if let Some(ms) = self.faults.stall_ms(Site::ShardStall) {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        if self.faults.fire(Site::StorageEnospc) {
            return Err(io::Error::other("injected ENOSPC: no space left on device"));
        }
        if self.faults.fire(Site::StorageShortWrite) {
            self.inner.append(&bytes[..bytes.len() / 2])?;
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "injected short write",
            ));
        }
        self.inner.append(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.faults.fire(Site::StorageFsync) {
            return Err(io::Error::other("injected fsync failure"));
        }
        self.inner.sync()
    }

    fn reopen(&mut self) -> io::Result<()> {
        self.inner.reopen()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)
    }
}

/// One shard's write-ahead log: group-commit appends over a [`WalIo`].
///
/// Not internally synchronized — it lives inside the shard state
/// behind the shard's exclusive lock, the same hold that serializes
/// the writes it logs. The counters are plain `u64`s readable by
/// stats snapshots holding the *shared* lock (readers exclude the
/// writer, so no torn reads).
pub struct ShardWal {
    io: Box<dyn WalIo>,
    buf: Vec<u8>,
    appends: u64,
    syncs: u64,
    bytes: u64,
    /// Byte length of the committed (acked-durable) prefix of the log:
    /// the on-disk valid prefix at open plus every group committed
    /// since. Anything past it is residue of a failed commit — an
    /// append whose fsync was refused, or a torn short write — and is
    /// amputated by [`ShardWal::heal_probe`] before the shard is
    /// flipped writable, so a refused write can never resurrect on
    /// replay.
    committed_len: u64,
    /// Shard id reported in flight-recorder events.
    shard: u64,
    /// Shared fsync-latency histogram, when an observer is attached.
    sync_hist: Option<Arc<LatencyHistogram>>,
}

impl std::fmt::Debug for ShardWal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardWal")
            .field("appends", &self.appends)
            .field("syncs", &self.syncs)
            .field("bytes", &self.bytes)
            .finish_non_exhaustive()
    }
}

impl ShardWal {
    /// Wraps an append-positioned file layer.
    pub fn new(io: Box<dyn WalIo>) -> Self {
        ShardWal {
            io,
            buf: Vec::new(),
            appends: 0,
            syncs: 0,
            bytes: 0,
            committed_len: 0,
            shard: 0,
            sync_hist: None,
        }
    }

    /// Declares the committed prefix already on disk when the log was
    /// opened over a pre-existing file (the recovered valid byte
    /// length, or the file length after a checkpoint rewrite). Without
    /// this, a heal probe would truncate the replayed prefix away.
    pub fn set_committed_len(&mut self, len: u64) {
        self.committed_len = len;
    }

    /// Attaches an observer: flight-recorder events carry `shard` as
    /// their shard id and every fsync latency is recorded into
    /// `sync_hist` (typically one histogram shared by all shards).
    pub fn set_observer(&mut self, shard: u64, sync_hist: Arc<LatencyHistogram>) {
        self.shard = shard;
        self.sync_hist = Some(sync_hist);
    }

    /// Group commit: encodes `pairs` as **one** record, appends it,
    /// and fsyncs **once**. This is the durability point — when it
    /// returns `Ok`, the whole group survives `kill -9`. Called with
    /// the shard's exclusive lock held, so fsync cost amortizes over
    /// the group exactly as the lock amortizes writer admission.
    ///
    /// No-op for an empty group.
    pub fn append_group(&mut self, pairs: &[(u64, u64)]) -> io::Result<()> {
        self.append_group_span(pairs, &mut malthus_obs::SpanContext::detached())
    }

    /// [`ShardWal::append_group`] with span tracing: the group's fsync
    /// duration is also folded into `span`'s `wal_fsync` stage (the
    /// one stage an active batch span cannot observe from outside the
    /// shard lock).
    pub fn append_group_span(
        &mut self,
        pairs: &[(u64, u64)],
        span: &mut malthus_obs::SpanContext,
    ) -> io::Result<()> {
        if pairs.is_empty() {
            return Ok(());
        }
        self.buf.clear();
        encode_record(&mut self.buf, pairs);
        self.io.append(&self.buf)?;
        malthus_obs::record(
            malthus_obs::EventKind::WalAppend,
            self.shard,
            self.buf.len() as u64,
        );
        let sync_start = Instant::now();
        self.io.sync()?;
        let sync_ns = u64::try_from(sync_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Some(hist) = &self.sync_hist {
            hist.record_ns(sync_ns);
        }
        if span.is_active() {
            span.add(malthus_obs::Stage::WalFsync, sync_ns);
        }
        malthus_obs::record(malthus_obs::EventKind::WalFsync, self.shard, sync_ns);
        self.appends += 1;
        self.syncs += 1;
        self.bytes += self.buf.len() as u64;
        self.committed_len += self.buf.len() as u64;
        Ok(())
    }

    /// The shard healer's durability probe: reopens the file layer
    /// (a failed fsync may have latched a per-fd error flag),
    /// truncates away any un-committed tail a failed commit left
    /// behind (a refused-but-appended record, or a torn short write —
    /// either would resurrect or corrupt on the next replay), and
    /// fsyncs, without appending anything. `Ok` means the log can
    /// take durable writes again. Not counted in
    /// [`ShardWal::syncs`] — that counter means group commits.
    pub fn heal_probe(&mut self) -> io::Result<()> {
        self.io.reopen()?;
        self.io.truncate(self.committed_len)?;
        self.io.sync()
    }

    /// The graceful-shutdown final fsync: makes everything appended
    /// so far durable without appending. Like [`ShardWal::heal_probe`]
    /// but without the reopen (the fd is presumed healthy on the
    /// graceful path) and likewise uncounted.
    pub fn final_sync(&mut self) -> io::Result<()> {
        self.io.sync()
    }

    /// Group records committed.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Fsyncs issued (== appends: one per group commit).
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Bytes appended since open (excludes the replayed prefix).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// What [`open_shard_log`] found and did for one shard.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardRecovery {
    /// Whole records replayed.
    pub records: u64,
    /// `(key, value)` pairs replayed.
    pub pairs: u64,
    /// Byte length of the valid prefix found on disk.
    pub valid_bytes: u64,
    /// The log ended mid-record (normal after a crash).
    pub torn_tail: bool,
    /// Records rejected for checksum/shape mismatch (0 or 1).
    pub bad_records: u64,
    /// The log was compacted to a single checkpoint record.
    pub checkpointed: bool,
}

/// Per-shard [`ShardRecovery`] reports plus aggregation helpers, as
/// returned by `ShardedKv::open`.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// One report per shard, index = shard id.
    pub per_shard: Vec<ShardRecovery>,
    /// The previous process stamped the clean-shutdown marker (and
    /// this open consumed it) — see [`take_clean_shutdown`].
    pub clean_marker: bool,
}

impl RecoveryReport {
    /// Total records replayed across shards.
    pub fn records(&self) -> u64 {
        self.per_shard.iter().map(|s| s.records).sum()
    }

    /// Total pairs replayed across shards.
    pub fn pairs(&self) -> u64 {
        self.per_shard.iter().map(|s| s.pairs).sum()
    }

    /// Shards whose log ended mid-record.
    pub fn torn_tails(&self) -> usize {
        self.per_shard.iter().filter(|s| s.torn_tail).count()
    }

    /// Total checksum-rejected records across shards. Non-zero means
    /// data past the rejection point was lost — worth a warning.
    pub fn bad_records(&self) -> u64 {
        self.per_shard.iter().map(|s| s.bad_records).sum()
    }

    /// Shards whose log was compacted to a checkpoint on open.
    pub fn checkpointed(&self) -> usize {
        self.per_shard.iter().filter(|s| s.checkpointed).count()
    }

    /// No torn tails and no bad records: the previous shutdown left
    /// every log whole.
    pub fn clean(&self) -> bool {
        self.torn_tails() == 0 && self.bad_records() == 0
    }
}

/// What [`open_shard_log`] yields: the replayed `(key, value)` pairs
/// in append order, the append-positioned log file, and the shard's
/// recovery report.
pub type OpenedShardLog = (Vec<(u64, u64)>, File, ShardRecovery);

/// Opens (creating if absent) one shard's log, replaying its valid
/// prefix.
///
/// Recovery actions, in order:
///
/// 1. replay the bytes on disk ([`replay`]);
/// 2. if the valid prefix exceeds `checkpoint_bytes`, rewrite the log
///    as a single record of the live (deduplicated) pairs — written
///    to a temp file, fsynced, then atomically `rename`d over the log
///    so a crash mid-checkpoint leaves the old log intact;
/// 3. otherwise truncate any torn/corrupt suffix so new appends
///    extend a well-formed log.
///
/// Returns the replayed pairs (apply in order), the append-positioned
/// file, and the per-shard recovery report.
pub fn open_shard_log(path: &Path, checkpoint_bytes: u64) -> io::Result<OpenedShardLog> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let outcome = replay(&bytes);
    let mut recovery = ShardRecovery {
        records: outcome.records,
        pairs: outcome.pairs.len() as u64,
        valid_bytes: outcome.valid_bytes,
        torn_tail: outcome.torn_tail,
        bad_records: outcome.bad_records,
        checkpointed: false,
    };
    // Compact once the surviving prefix is large enough: replaying N
    // overwrites of the same keys forever would make reopen cost grow
    // without bound. More than one record, else compaction would
    // rewrite an already-compact log on every open.
    if outcome.valid_bytes > checkpoint_bytes && outcome.records > 1 {
        let live: std::collections::BTreeMap<u64, u64> = outcome.pairs.iter().copied().collect();
        let live_pairs: Vec<(u64, u64)> = live.into_iter().collect();
        let mut checkpoint = Vec::new();
        encode_record(&mut checkpoint, &live_pairs);
        let tmp = tmp_sibling(path);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&checkpoint)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, path)?;
        sync_parent_dir(path);
        recovery.checkpointed = true;
        let file = OpenOptions::new().append(true).open(path)?;
        return Ok((live_pairs, file, recovery));
    }
    let file = OpenOptions::new().create(true).append(true).open(path)?;
    if bytes.len() as u64 > outcome.valid_bytes {
        // Drop the torn/corrupt suffix; appends (append mode always
        // writes at current EOF) then extend the valid prefix.
        file.set_len(outcome.valid_bytes)?;
    }
    Ok((outcome.pairs, file, recovery))
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "wal".into());
    name.push(".tmp");
    path.with_file_name(name)
}

/// Best-effort fsync of `path`'s parent directory so a rename is
/// durable. Errors are ignored: some filesystems refuse directory
/// fsync, and the fallback (rename durable at the next full sync) is
/// acceptable for a checkpoint — the pre-checkpoint log contents were
/// themselves durable.
fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_data();
        }
    }
}

/// Verifies (creating on first open) the data directory's `MANIFEST`,
/// which pins the shard count: logs are per-shard and keys are
/// hash-routed, so reopening with a different count would replay keys
/// onto shards that will never serve them.
pub fn check_manifest(dir: &Path, shards: usize) -> io::Result<()> {
    let path = dir.join("MANIFEST");
    match fs::read_to_string(&path) {
        Ok(text) => {
            let recorded = text
                .lines()
                .find_map(|l| l.strip_prefix("shards "))
                .and_then(|n| n.trim().parse::<usize>().ok());
            match recorded {
                Some(n) if n == shards => Ok(()),
                Some(n) => Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "data dir {} was created with {n} shards, reopened with {shards}",
                        dir.display()
                    ),
                )),
                None => Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed MANIFEST in {}", dir.display()),
                )),
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            fs::write(&path, format!("malthus-wal v1\nshards {shards}\n"))?;
            sync_parent_dir(&path);
            Ok(())
        }
        Err(e) => Err(e),
    }
}

/// The MANIFEST line a graceful shutdown stamps after its final group
/// fsync. Its *presence* on the next open means the previous process
/// exited through the drain path; openers consume it immediately
/// ([`take_clean_shutdown`]), so a later crash cannot inherit it.
pub const CLEAN_SHUTDOWN_MARKER: &str = "clean-shutdown";

fn rewrite_manifest(dir: &Path, text: &str) -> io::Result<()> {
    // Same tmp + fsync + rename discipline as a checkpoint: a crash
    // mid-rewrite must never corrupt the `shards` pin.
    let path = dir.join("MANIFEST");
    let tmp = tmp_sibling(&path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_data()?;
    }
    fs::rename(&tmp, &path)?;
    sync_parent_dir(&path);
    Ok(())
}

/// Stamps the [`CLEAN_SHUTDOWN_MARKER`] into `dir`'s MANIFEST —
/// called by the graceful-shutdown path *after* the final group
/// fsync. Idempotent.
pub fn stamp_clean_shutdown(dir: &Path) -> io::Result<()> {
    let mut text = fs::read_to_string(dir.join("MANIFEST"))?;
    if text.lines().any(|l| l.trim() == CLEAN_SHUTDOWN_MARKER) {
        return Ok(());
    }
    if !text.ends_with('\n') {
        text.push('\n');
    }
    text.push_str(CLEAN_SHUTDOWN_MARKER);
    text.push('\n');
    rewrite_manifest(dir, &text)
}

/// Reads **and clears** the clean-shutdown marker: returns whether
/// the previous process shut down gracefully, and rewrites the
/// MANIFEST without the marker so a crash of *this* process reports
/// unclean. A missing MANIFEST (fresh dir) reads as `false`.
pub fn take_clean_shutdown(dir: &Path) -> io::Result<bool> {
    let text = match fs::read_to_string(dir.join("MANIFEST")) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e),
    };
    if !text.lines().any(|l| l.trim() == CLEAN_SHUTDOWN_MARKER) {
        return Ok(false);
    }
    let mut kept = String::with_capacity(text.len());
    for line in text.lines() {
        if line.trim() != CLEAN_SHUTDOWN_MARKER {
            kept.push_str(line);
            kept.push('\n');
        }
    }
    rewrite_manifest(dir, &kept)?;
    Ok(true)
}

/// Per-store durability options for `ShardedKv::open_with`.
#[derive(Debug, Clone, Default)]
pub struct WalOptions {
    /// Log size past which reopening compacts to a checkpoint record;
    /// 0 means [`DEFAULT_CHECKPOINT_BYTES`].
    pub checkpoint_bytes: u64,
    /// The armed faults the store is opened with: every shard's file
    /// layer is wrapped in a [`ChaosWalIo`] holding this state, where
    /// the storage sites and `shard.stall` fire. `None` (the default)
    /// faults nothing. The store never reads the process-global state.
    pub faults: Option<Arc<FaultState>>,
}

impl WalOptions {
    /// The effective checkpoint threshold.
    pub fn checkpoint_threshold(&self) -> u64 {
        if self.checkpoint_bytes == 0 {
            DEFAULT_CHECKPOINT_BYTES
        } else {
            self.checkpoint_bytes
        }
    }
}

/// An in-memory [`WalIo`] for unit tests (and a handy crash
/// simulator: clone the buffer at any point and [`replay`] it).
#[derive(Debug, Default)]
pub struct VecWalIo {
    /// Everything appended so far.
    pub bytes: Vec<u8>,
    /// Syncs issued.
    pub syncs: u64,
}

impl WalIo for VecWalIo {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.bytes.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.syncs += 1;
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.bytes
            .truncate(usize::try_from(len).unwrap_or(usize::MAX));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_ieee_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn encode_then_replay_round_trips() {
        let pairs = vec![(1u64, 10u64), (2, 20), (u64::MAX, 0)];
        let mut buf = Vec::new();
        encode_record(&mut buf, &pairs);
        encode_record(&mut buf, &[(7, 70)]);
        let out = replay(&buf);
        assert_eq!(out.records, 2);
        assert_eq!(out.pairs, vec![(1, 10), (2, 20), (u64::MAX, 0), (7, 70)]);
        assert_eq!(out.valid_bytes, buf.len() as u64);
        assert!(!out.torn_tail);
        assert_eq!(out.bad_records, 0);
    }

    #[test]
    fn replay_of_empty_log_is_empty_and_clean() {
        let out = replay(&[]);
        assert_eq!(out, ReplayOutcome::default());
    }

    #[test]
    fn torn_tail_recovers_the_whole_prefix() {
        let mut buf = Vec::new();
        encode_record(&mut buf, &[(1, 10)]);
        let whole = buf.len();
        encode_record(&mut buf, &[(2, 20)]);
        // Chop the second record anywhere: header-only, mid-body.
        for cut in [whole + 3, whole + RECORD_HEADER_BYTES, buf.len() - 1] {
            let out = replay(&buf[..cut]);
            assert!(out.torn_tail, "cut at {cut}");
            assert_eq!(out.records, 1, "cut at {cut}");
            assert_eq!(out.pairs, vec![(1, 10)], "cut at {cut}");
            assert_eq!(out.valid_bytes, whole as u64, "cut at {cut}");
            assert_eq!(out.bad_records, 0, "cut at {cut}");
        }
    }

    #[test]
    fn checksum_mismatch_stops_replay_and_counts() {
        let mut buf = Vec::new();
        encode_record(&mut buf, &[(1, 10)]);
        let first = buf.len();
        encode_record(&mut buf, &[(2, 20)]);
        encode_record(&mut buf, &[(3, 30)]);
        // Flip one payload byte of the middle record.
        buf[first + RECORD_HEADER_BYTES + 5] ^= 0xFF;
        let out = replay(&buf);
        assert_eq!(out.bad_records, 1);
        assert_eq!(out.records, 1, "replay stops at the corruption");
        assert_eq!(out.pairs, vec![(1, 10)]);
        assert_eq!(out.valid_bytes, first as u64);
        assert!(!out.torn_tail);
    }

    #[test]
    fn garbage_length_field_is_survived() {
        // A corrupted length pointing past EOF → torn tail, never a
        // panic or an allocation of the bogus size.
        let mut buf = Vec::new();
        encode_record(&mut buf, &[(1, 10)]);
        let first = buf.len();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 12]);
        let out = replay(&buf);
        assert!(out.torn_tail);
        assert_eq!(out.valid_bytes, first as u64);
        // And a length too small to hold its own count → bad record.
        let mut buf2 = Vec::new();
        buf2.extend_from_slice(&2u32.to_le_bytes());
        buf2.extend_from_slice(&[0u8; 6]);
        assert_eq!(replay(&buf2).bad_records, 1);
    }

    /// A valid log: its bytes, the groups it records, and where each
    /// record starts (the log's end last).
    struct SeededLog {
        bytes: Vec<u8>,
        groups: Vec<Vec<(u64, u64)>>,
        starts: Vec<usize>,
    }

    impl SeededLog {
        /// 1–6 groups of 0–5 pairs.
        fn new(rng: &malthus_park::XorShift64) -> SeededLog {
            let groups: Vec<Vec<(u64, u64)>> = (0..1 + rng.next_below(6))
                .map(|_| {
                    (0..rng.next_below(6))
                        .map(|_| (rng.next_u64(), rng.next_u64()))
                        .collect()
                })
                .collect();
            let (mut bytes, mut starts) = (Vec::new(), vec![0]);
            for group in &groups {
                encode_record(&mut bytes, group);
                starts.push(bytes.len());
            }
            SeededLog {
                bytes,
                groups,
                starts,
            }
        }

        /// What must hold of `replay(damaged)` when `damaged` is this
        /// log altered from offset `damaged_at` on: the groups
        /// recovered are a prefix of the original ones, no shorter
        /// than the records the damage left whole, and the flags say
        /// why the walk stopped where it did.
        fn assert_replays_a_prefix(&self, damaged: &[u8], damaged_at: usize, what: &str) {
            let out = replay(damaged);
            let recovered = out.records as usize;
            assert!(recovered <= self.groups.len(), "{what}: {out:?}");
            assert_eq!(out.pairs, self.groups[..recovered].concat(), "{what}");
            assert_eq!(out.valid_bytes, self.starts[recovered] as u64, "{what}");
            let whole = self.starts[1..].iter().filter(|&&end| end <= damaged_at);
            assert!(recovered >= whole.count(), "{what}: {recovered} records");
            // A `Vec` grown by pushes at most doubles: anything larger
            // was reserved from a length field.
            assert!(out.pairs.capacity() <= damaged.len() / 8 + 4, "{what}");
            let rest = &damaged[self.starts[recovered]..];
            let (torn_tail, bad_records) = match rest.len() {
                0 => (false, 0),
                1..RECORD_HEADER_BYTES => (true, 0),
                _ => match read_u32(rest, 0) as usize {
                    len if len >= 4 && len > rest.len() - RECORD_HEADER_BYTES => (true, 0),
                    _ => (false, 1),
                },
            };
            assert_eq!(
                (out.torn_tail, out.bad_records),
                (torn_tail, bad_records),
                "{what}: stopped at {} of {}",
                out.valid_bytes,
                damaged.len()
            );
        }
    }

    #[test]
    fn a_hundred_thousand_damaged_logs_replay_to_a_prefix() {
        let rng = malthus_park::XorShift64::new(0x0BAD_1065);
        let below = |n: usize| rng.next_below(n as u64) as usize;
        let mut damaged = 0;
        while damaged < 100_000 {
            let log = SeededLog::new(&rng);
            let len = log.bytes.len();
            log.assert_replays_a_prefix(&log.bytes, len, "undamaged");
            // Cut at every offset.
            for cut in 0..len {
                log.assert_replays_a_prefix(&log.bytes[..cut], cut, "cut");
                damaged += 1;
            }
            for _ in 0..64 {
                let record = below(log.groups.len());
                let (start, end) = (log.starts[record], log.starts[record + 1]);
                let mut bytes = log.bytes.clone();
                let (what, at) = match below(3) {
                    0 => {
                        let bit = below(len * 8);
                        bytes[bit / 8] ^= 1 << (bit % 8);
                        ("bit flip", bit / 8)
                    }
                    1 => {
                        // A length field of any size, with the small
                        // and the huge ones it must not trust.
                        let garbage = match below(4) {
                            0 => below(12) as u32,
                            1 => u32::MAX - below(12) as u32,
                            2 => ((end - start) as u32).wrapping_sub(below(24) as u32),
                            _ => rng.next_u64() as u32,
                        };
                        bytes[start..start + 4].copy_from_slice(&garbage.to_le_bytes());
                        ("length field", start)
                    }
                    _ => {
                        // Another stretch of the log — often whole
                        // records, checksums and all — dropped into
                        // the middle of a record.
                        let at = start + 1 + below(end - start - 1);
                        let from = log.starts[below(log.groups.len())];
                        let to = from + 1 + below(len - from);
                        bytes.splice(at..at, log.bytes[from..to].iter().copied());
                        ("splice", at)
                    }
                };
                log.assert_replays_a_prefix(&bytes, at, what);
                damaged += 1;
            }
        }
    }

    #[test]
    fn group_commit_syncs_once_per_group() {
        let mut wal = ShardWal::new(Box::<VecWalIo>::default());
        wal.append_group(&[(1, 1), (2, 2), (3, 3)]).unwrap();
        wal.append_group(&[]).unwrap(); // no-op
        wal.append_group(&[(4, 4)]).unwrap();
        assert_eq!(wal.appends(), 2);
        assert_eq!(wal.syncs(), 2, "one fsync per non-empty group");
    }

    /// `io` wrapped in a [`ChaosWalIo`] armed with `spec`.
    fn chaos<W: WalIo>(spec: &str, io: W) -> ChaosWalIo<W> {
        ChaosWalIo::new(io, malthus_fault::FaultPlan::parse(spec).unwrap().arm())
    }

    #[test]
    fn chaos_io_fails_the_armed_sync_only() {
        let mut wal = ShardWal::new(Box::new(chaos("storage.fsync=1x1", VecWalIo::default())));
        assert!(wal.append_group(&[(1, 1)]).is_err(), "the armed sync fails");
        assert_eq!(wal.syncs(), 0, "failed commit not counted");
        wal.append_group(&[(2, 2)]).unwrap();
        assert_eq!(wal.syncs(), 1, "budget spent: the next sync succeeds");
    }

    #[test]
    fn chaos_io_short_write_leaves_a_torn_record() {
        let mut rec = Vec::new();
        encode_record(&mut rec, &[(1, 10)]);
        let committed = VecWalIo {
            bytes: rec,
            syncs: 0,
        };
        let mut io = chaos("storage.short_write=1x1", committed);
        let mut rec2 = Vec::new();
        encode_record(&mut rec2, &[(2, 20)]);
        assert!(io.append(&rec2).is_err());
        // What "hit disk" replays as exactly one record + torn tail.
        let out = replay(&io.inner.bytes);
        assert_eq!(out.records, 1);
        assert!(out.torn_tail);
    }

    fn temp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "malthus-wal-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn open_truncates_a_torn_suffix_and_appends_cleanly() {
        let dir = temp_dir("torn");
        let path = dir.join("shard-0.wal");
        let mut buf = Vec::new();
        encode_record(&mut buf, &[(1, 10)]);
        let valid = buf.len();
        encode_record(&mut buf, &[(2, 20)]);
        fs::write(&path, &buf[..buf.len() - 3]).unwrap();

        let (pairs, file, rec) = open_shard_log(&path, u64::MAX).unwrap();
        assert_eq!(pairs, vec![(1, 10)]);
        assert!(rec.torn_tail);
        assert_eq!(rec.valid_bytes, valid as u64);
        // New appends extend the *valid* prefix.
        let mut wal = ShardWal::new(Box::new(FileWalIo::new(file)));
        wal.append_group(&[(3, 30)]).unwrap();
        drop(wal);
        let (pairs2, _f, rec2) = open_shard_log(&path, u64::MAX).unwrap();
        assert_eq!(pairs2, vec![(1, 10), (3, 30)]);
        assert!(!rec2.torn_tail);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_checkpoints_past_the_threshold() {
        let dir = temp_dir("ckpt");
        let path = dir.join("shard-0.wal");
        {
            let (_, file, _) = open_shard_log(&path, u64::MAX).unwrap();
            let mut wal = ShardWal::new(Box::new(FileWalIo::new(file)));
            for i in 0..50u64 {
                wal.append_group(&[(i % 5, i)]).unwrap();
            }
        }
        let before = fs::metadata(&path).unwrap().len();
        let (pairs, _f, rec) = open_shard_log(&path, 64).unwrap();
        assert!(rec.checkpointed);
        assert_eq!(rec.records, 50);
        // Compacted to the 5 live keys, newest values.
        assert_eq!(pairs.len(), 5);
        for (k, v) in &pairs {
            assert_eq!(v % 5, *k, "live value for key {k}");
        }
        let after = fs::metadata(&path).unwrap().len();
        assert!(
            after < before,
            "checkpoint must shrink: {after} >= {before}"
        );
        // Reopen again: below threshold now (single record).
        let (pairs2, _f2, rec2) = open_shard_log(&path, 64).unwrap();
        assert!(!rec2.checkpointed);
        assert_eq!(pairs2, pairs);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clean_shutdown_marker_stamps_and_takes_once() {
        let dir = temp_dir("marker");
        check_manifest(&dir, 2).unwrap();
        assert!(!take_clean_shutdown(&dir).unwrap(), "fresh dir is unclean");
        stamp_clean_shutdown(&dir).unwrap();
        stamp_clean_shutdown(&dir).unwrap(); // idempotent
        check_manifest(&dir, 2).unwrap(); // shard pin survives the marker
        assert!(take_clean_shutdown(&dir).unwrap());
        assert!(!take_clean_shutdown(&dir).unwrap(), "marker is consumed");
        check_manifest(&dir, 2).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn heal_probe_reopens_and_syncs_a_real_file() {
        let dir = temp_dir("heal");
        let path = dir.join("shard-0.wal");
        let (_, file, _) = open_shard_log(&path, u64::MAX).unwrap();
        let mut wal = ShardWal::new(Box::new(FileWalIo::with_path(file, path.clone())));
        wal.append_group(&[(1, 10)]).unwrap();
        wal.heal_probe().unwrap();
        wal.final_sync().unwrap();
        // Appends keep extending the log through the reopened fd.
        wal.append_group(&[(2, 20)]).unwrap();
        assert_eq!(wal.syncs(), 2, "probe and final sync are uncounted");
        drop(wal);
        let (pairs, _f, _rec) = open_shard_log(&path, u64::MAX).unwrap();
        assert_eq!(pairs, vec![(1, 10), (2, 20)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn heal_probe_amputates_the_refused_record_so_it_cannot_resurrect() {
        let dir = temp_dir("amputate");
        let path = dir.join("shard-0.wal");
        // Seed one committed record so the probe must preserve a
        // non-empty prefix, not just truncate to zero.
        let (_, file, _) = open_shard_log(&path, u64::MAX).unwrap();
        let mut wal = ShardWal::new(Box::new(FileWalIo::with_path(file, path.clone())));
        wal.append_group(&[(1, 10)]).unwrap();
        drop(wal);

        let (pairs, file, rec) = open_shard_log(&path, u64::MAX).unwrap();
        assert_eq!(pairs, vec![(1, 10)]);
        let mut wal = ShardWal::new(Box::new(chaos(
            "storage.fsync=1x1",
            FileWalIo::with_path(file, path.clone()),
        )));
        wal.set_committed_len(rec.valid_bytes);
        // The refused commit: append lands, fsync is injected to fail,
        // so the record's bytes sit un-acked past the committed
        // prefix. Without amputation they would replay as (2, 20).
        wal.append_group(&[(2, 20)]).unwrap_err();
        assert!(fs::metadata(&path).unwrap().len() > rec.valid_bytes);
        wal.heal_probe().unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), rec.valid_bytes);
        // Healed means writable: the next commit lands cleanly after
        // the preserved prefix.
        wal.append_group(&[(3, 30)]).unwrap();
        drop(wal);
        let (pairs, _f, rec) = open_shard_log(&path, u64::MAX).unwrap();
        assert_eq!(pairs, vec![(1, 10), (3, 30)], "refused write resurrected");
        assert_eq!(rec.bad_records, 0);
        assert!(!rec.torn_tail);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_pins_the_shard_count() {
        let dir = temp_dir("manifest");
        check_manifest(&dir, 4).unwrap();
        check_manifest(&dir, 4).unwrap();
        let err = check_manifest(&dir, 8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_io_round_trips_through_a_real_file() {
        let dir = temp_dir("file");
        let path = dir.join("shard-0.wal");
        let (pairs0, file, rec0) = open_shard_log(&path, u64::MAX).unwrap();
        assert!(pairs0.is_empty());
        assert_eq!(rec0.records, 0);
        let mut wal = ShardWal::new(Box::new(FileWalIo::new(file)));
        wal.append_group(&[(9, 90), (8, 80)]).unwrap();
        assert_eq!(wal.bytes(), fs::metadata(&path).unwrap().len());
        drop(wal);
        let (pairs, _f, rec) = open_shard_log(&path, u64::MAX).unwrap();
        assert_eq!(pairs, vec![(9, 90), (8, 80)]);
        assert_eq!(rec.records, 1);
        assert!(rec.valid_bytes > 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
