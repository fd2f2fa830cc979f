//! A networked KV service that puts the work crew under real traffic.
//!
//! §6.5 of the paper evaluates CR inside leveldb, whose "central
//! database lock and internal LRUCache locks are highly contended".
//! This module serves that storage shape — now **sharded** — over
//! TCP: a [`ShardedKv`] of N shards, each
//! its own `MiniKv` behind a Malthusian **read-write** DB lock plus a
//! `SimpleLru` block cache behind an MCSCR mutex, with request
//! execution admitted by a [`WorkCrew`](crate::WorkCrew). Admission control
//! operates at *both* layers: the crew restricts how many threads run
//! at all, and the N CR lock pairs restrict circulation per shard —
//! one hot shard culls its own surplus while the others keep serving.
//! The service is generic over the store's [`LockPair`], [`CrPair`] by
//! default; over [`McsPair`](malthus_storage::McsPair) (with an
//! unrestricted crew or reactor, as `kv_server --unrestricted` builds
//! it) neither layer restricts.
//!
//! `GET`s take their shard's DB lock *shared*, so point lookups run
//! genuinely concurrently; memtable hits never touch the exclusive
//! block-cache lock at all, and a batch's per-shard sub-group takes it
//! at most once, after its last op, only to replay the LRU touches of
//! the (at most two) runs each miss searched. `PUT`s take their
//! shard's DB lock exclusive and pay writer admission on that shard
//! only. The batched and aggregate verbs
//! (`MGET`/`MSET`/`SCAN`/`STATS`) visit shards one at a time and
//! never hold two shard locks at once — per-shard atomic, cross-shard
//! racy snapshot (see [`malthus_storage::sharded`] for the full
//! contract, which is also the wire contract).
//!
//! The wire protocol is line-oriented text (one line per request, one
//! line per response):
//!
//! | Request | Response |
//! |---|---|
//! | `PUT <key> <value>` | `OK`, or `ERR shard readonly` |
//! | `GET <key>` | `VAL <value>` or `NIL` |
//! | `MGET <key>...` | `VALS <value-or-–>...` (`-` marks a miss) |
//! | `MSET <key> <value>...` | `OK <pairs-written>`, or `ERR shard readonly` |
//! | `SCAN <start> <limit>` | `RANGE <key>=<value>...` (maybe empty) |
//! | `PING` | `PONG` |
//! | `STATS` | `STATS reads=<n> writes=<n> ... shards=<n>`, read from the `METRICS` registry |
//! | `METRICS` | the full metrics exposition, then a `# EOF` line |
//! | `TRACE DUMP` | flight-recorder JSON lines, then a `# EOF` line |
//! | `SLOWLOG [n]` | slow-batch stage breakdowns, then a `# EOF` line |
//! | `SLOWLOG RESET` | `OK` (hides all current slowlog entries) |
//! | `SHUTDOWN` | `OK` then the server stops accepting |
//! | `QUIT` | connection closes |
//! | anything else | `ERR <reason>` |
//!
//! Keys and values are unsigned 64-bit integers.
//!
//! # Durability on the wire
//!
//! A service opened over a data directory ([`KvService::open`], or
//! `kv_server --data-dir`) group-commits each batch's per-shard write
//! group to that shard's WAL — one fsync per group, under the same
//! exclusive hold `execute_batch` already takes — **before** acking:
//! `OK` means the write survives `kill -9`. A shard whose fsync fails
//! is poisoned read-only; its writes answer `ERR shard readonly`
//! while GETs keep working and other shards keep serving. `STATS`
//! reports `wal_syncs=`/`wal_errors=`/`readonly_shards=` (and
//! `idle_disconnects=`, see
//! the `read_timeout` of [`Server::start`](crate::server::Server::start)).
//!
//! # Pipelining: tagged requests and batched under-lock execution
//!
//! Any request line may carry a **tag prefix** `#<tag> ` (tag a u64):
//! the response to a tagged request is `#<tag> <response>`, so a
//! client may keep a window of requests in flight and match replies.
//! Untagged lines behave byte-identically to the pre-pipelining
//! protocol, so depth-1 clients never notice. A malformed tag
//! (`#banana GET 1`, a bare `#`) earns an untagged `ERR` and the
//! connection stays open.
//!
//! **Responses always come back in request order** — tags are for the
//! client's bookkeeping, not for reordering. What pipelining changes
//! is the server's execution shape: each reader wakeup **drains every
//! complete request line already buffered** on the connection and
//! runs the whole batch as *one* unit of crew work. The batch groups its
//! GET/PUT/MGET/MSET ops by shard
//! and executes each shard's group under a **single** DB-lock
//! acquisition — shared if the group is read-only, exclusive if it
//! contains any write ([`ShardedKv::execute_batch_span`]) — then flushes
//! every response of the batch in **one** write. A connection at
//! pipeline depth `n` therefore pays ~one lock admission and one
//! syscall per batch instead of per request: the
//! few-threads-much-work-per-admission shape the paper argues
//! saturated locks want.
//!
//! The consistency contract refines per batch: a drained batch's
//! per-shard group executes **atomically per shard, in request
//! order** (per-key, a batch behaves exactly like sequential
//! requests), while cross-shard visibility remains the racy snapshot
//! of [`malthus_storage::sharded`]. `SCAN`/`PING`/`STATS` and the other
//! control verbs execute at their position in the batch, between the
//! data runs around them.
//!
//! This module is the service the two front-ends share: the threaded
//! one ([`crate::server`]: a reader thread per connection, execution
//! admitted by the [`WorkCrew`](crate::WorkCrew)) and the reactor one
//! ([`crate::kv_async`]: poll admission, no per-connection thread).
//! Every request of either reaches the store the same way — the
//! connection's drained batch through [`KvService::apply_batch_span`],
//! its data runs through [`ShardedKv::execute_batch_span`] — so the
//! front-ends cannot be told apart on the wire. Nothing of the
//! admission layer rides along: `STATS` is a fixed projection of the
//! service's [`Registry`](malthus_obs::Registry), into which the crew
//! or the reactor registers its counters when serving starts
//! (`STATS_FIELDS`).

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use malthus_metrics::{HistogramSnapshot, LatencyHistogram};
use malthus_obs::span::{self, Stage, STAGE_COUNT};
use malthus_obs::{Sample, SlowEntry, SlowRing, SpanContext};
use malthus_storage::{BatchOp, BatchReply, CrPair, LockPair, RecoveryReport, ShardedKv};

use crate::protocol::{push_line, push_u64, write_tag, Parsed, Request};

/// The response line for a write refused by a read-only (WAL-poisoned)
/// shard.
pub const READONLY_ERR: &str = "ERR shard readonly";

/// Admission counters as [`KvService::apply_batch`]'s third argument
/// once carried them to `STATS`. Nothing in the workspace uses them any
/// more — `STATS` reads the registry — and they are kept, with the
/// trait below and that argument, only because
/// `benchmark/src/probes.rs` implements the trait; all three go when
/// ROADMAP 1(d) moves that probe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionSnapshot {
    /// Admission units completed (crew tasks / reactor ready-batches).
    pub completed: u64,
    /// Workers culled onto the passive stack.
    pub culls: u64,
    /// Passive workers promoted on a stall.
    pub reprovisions: u64,
    /// Episodic eldest-fairness promotions.
    pub promotions: u64,
}

/// Source of the snapshot above, kept for the same reason.
pub trait AdmissionStats {
    /// Racy counter snapshot (exact while quiescent).
    fn admission_snapshot(&self) -> AdmissionSnapshot;
}

/// How one `STATS` field is read from the service's registry.
enum StatsField {
    /// The sum of every series of these families. A family nobody
    /// registered reads 0: the crew's under the reactor front-end, the
    /// reactor's under the threaded one.
    Sum(&'static [&'static str]),
    /// p50 / p99 of the line's one `kv_pipeline_batch_size` snapshot.
    BatchP50,
    BatchP99,
}

/// The `STATS` line: its keys in order, each with the registry
/// families it projects; `shards=` (the store's shard count) follows.
const STATS_FIELDS: [(&str, StatsField); 19] = {
    use StatsField::{BatchP50, BatchP99, Sum};
    [
        ("reads", Sum(&["kv_shard_reads_total"])),
        ("writes", Sum(&["kv_shard_writes_total"])),
        (
            "completed",
            Sum(&["crew_completed_total", "kv_reactor_ready_batches_total"]),
        ),
        (
            "culls",
            Sum(&["crew_culls_total", "kv_reactor_culls_total"]),
        ),
        (
            "reprovisions",
            Sum(&["crew_reprovisions_total", "kv_reactor_reprovisions_total"]),
        ),
        (
            "promotions",
            Sum(&[
                "crew_fairness_promotions_total",
                "kv_reactor_fairness_promotions_total",
            ]),
        ),
        ("rculls", Sum(&["lock_reader_culls_total"])),
        (
            "rgrants",
            Sum(&[
                "lock_reader_reprovisions_total",
                "lock_reader_fairness_grants_total",
            ]),
        ),
        ("pbatches", Sum(&["kv_pipeline_batches_total"])),
        ("pbatchmax", Sum(&["kv_pipeline_max_batch"])),
        ("pbatch_p50", BatchP50),
        ("pbatch_p99", BatchP99),
        ("wal_syncs", Sum(&["kv_shard_wal_syncs_total"])),
        ("wal_errors", Sum(&["kv_shard_wal_errors_total"])),
        ("readonly_shards", Sum(&["kv_shard_readonly"])),
        ("idle_disconnects", Sum(&["kv_idle_disconnects_total"])),
        ("readonly_rejects", Sum(&["kv_readonly_rejects_total"])),
        ("heal_attempts", Sum(&["kv_shard_heal_attempts_total"])),
        ("heals", Sum(&["kv_shard_heals_total"])),
    ]
};

/// Bucket-floor `(p50, p99)` of a batch-size snapshot, in requests.
fn batch_p50_p99(sizes: &HistogramSnapshot) -> (u64, u64) {
    let (p50, p99) = sizes.p50_p99();
    (p50.as_nanos() as u64, p99.as_nanos() as u64)
}

/// Memtable entries before a shard's MiniKv freezes a run.
pub const DEFAULT_MEMTABLE_LIMIT: usize = 4_096;
/// Per-shard block-cache capacity in blocks.
pub const DEFAULT_CACHE_BLOCKS: usize = 8_192;
/// Default shard count: one, the paper-faithful §6.5 single hot lock
/// pair. `kv_server --shards N` raises it.
pub const DEFAULT_SHARDS: usize = 1;
/// Slowlog ring capacity: the newest this many slow batches are
/// retained for `SLOWLOG` to read back.
pub const SLOWLOG_CAPACITY: usize = 128;
/// Default slowlog threshold in microseconds: batches slower than
/// this end-to-end land in the slowlog (`kv_server
/// --slowlog-threshold-us` overrides; 0 disables).
pub const DEFAULT_SLOWLOG_THRESHOLD_US: u64 = 10_000;

/// Service-wide pipeline observability: how much batching the drained
/// wakeups actually achieved, and what each batch cost to execute.
///
/// Every connection records into the same two histograms, as every
/// batch records into the `kv_stage_ns` stages: `sizes` takes each
/// drained batch's request count (as integer "nanoseconds"; its count
/// is the batch total) and `drain_ns` its execution wall time, so a
/// connection carries no instrument of its own and an open one is
/// visible in `STATS`/`METRICS` from its first batch. All reads share
/// the racy-snapshot contract of every other counter here.
#[derive(Debug, Default)]
pub struct PipelineStats {
    /// Requests per drained batch.
    sizes: LatencyHistogram,
    max_batch: AtomicU64,
    /// Wall time spent executing drained batches.
    drain_ns: LatencyHistogram,
}

impl PipelineStats {
    /// Records one drained batch of `n` requests.
    pub(crate) fn note_batch(&self, n: u64) {
        self.sizes.record_ns(n);
        self.max_batch.fetch_max(n, Ordering::Relaxed);
    }

    /// Records the wall time one drained batch took to execute.
    pub(crate) fn note_drain_ns(&self, ns: u64) {
        self.drain_ns.record_ns(ns);
    }

    /// Total batches drained (one batch = one reader wakeup that
    /// found at least one executable request).
    pub fn batches(&self) -> u64 {
        self.sizes.count()
    }

    /// The largest batch any connection drained in one wakeup.
    pub fn max_batch(&self) -> u64 {
        self.max_batch.load(Ordering::Relaxed)
    }

    /// Snapshot of the batch-size distribution, for registry
    /// exposition.
    pub fn batch_size_snapshot(&self) -> HistogramSnapshot {
        self.sizes.snapshot()
    }

    /// Snapshot of the batch-drain execution-latency distribution.
    pub fn drain_snapshot(&self) -> HistogramSnapshot {
        self.drain_ns.snapshot()
    }
}

/// The shared storage state: N shards, each the two contended locks
/// of §6.5, behind fixed fibonacci-hash routing. Also owns the
/// unified [`Registry`](malthus_obs::Registry) every layer registers
/// into — the `METRICS` verb renders it in one exposition.
pub struct KvService<P: LockPair = CrPair> {
    store: Arc<ShardedKv<P>>,
    pipeline: Arc<PipelineStats>,
    idle_disconnects: Arc<AtomicU64>,
    registry: malthus_obs::Registry,
    /// Per-stage batch latency histograms, indexed by `Stage as
    /// usize` — the `kv_stage_ns{stage=…}` family.
    stage_hists: [Arc<LatencyHistogram>; STAGE_COUNT],
    /// Slow batches' full stage breakdowns (the `SLOWLOG` verb).
    slowlog: Arc<SlowRing>,
    /// End-to-end nanoseconds above which a batch lands in the
    /// slowlog; 0 disables.
    slowlog_threshold_ns: AtomicU64,
    /// Service-wide batch id sequence (span identity).
    batch_seq: AtomicU64,
}

impl KvService {
    /// Creates a **single-shard** service (the paper-faithful §6.5
    /// shape) with the given per-shard memtable limit and block-cache
    /// capacity.
    pub fn new(memtable_limit: usize, cache_blocks: usize) -> Self {
        Self::with_shards(DEFAULT_SHARDS, memtable_limit, cache_blocks)
    }

    /// Creates a service over `shards` shards; each shard gets its
    /// own memtable limit and block-cache capacity.
    pub fn with_shards(shards: usize, memtable_limit: usize, cache_blocks: usize) -> Self {
        Self::from_store(ShardedKv::new(shards, memtable_limit, cache_blocks))
    }

    /// Opens a **durable** service over `dir` (per-shard WALs replayed
    /// on open; see [`ShardedKv::open`]), returning the service and
    /// what recovery found — the `kv_server` boot banner.
    pub fn open(
        dir: &Path,
        shards: usize,
        memtable_limit: usize,
        cache_blocks: usize,
    ) -> std::io::Result<(Self, RecoveryReport)> {
        let (store, report) = ShardedKv::open(dir, shards, memtable_limit, cache_blocks)?;
        Ok((Self::from_store(store), report))
    }
}

impl<P: LockPair> KvService<P> {
    /// Wraps an already-built store (memory-only, durable, or
    /// fault-injected via
    /// [`ShardedKv::open_with`](malthus_storage::ShardedKv::open_with)),
    /// registering the store's, pipeline's, and service's metrics
    /// into a fresh unified registry.
    pub fn from_store(store: ShardedKv<P>) -> Self {
        let store = Arc::new(store);
        let pipeline = Arc::new(PipelineStats::default());
        let idle_disconnects = Arc::new(AtomicU64::new(0));
        let registry = malthus_obs::Registry::new();
        store.register_metrics(&registry);
        {
            let p = Arc::clone(&pipeline);
            registry.counter(
                "kv_pipeline_batches_total",
                "Drained pipeline batches executed",
                &[],
                move || p.batches(),
            );
            let p = Arc::clone(&pipeline);
            registry.gauge(
                "kv_pipeline_max_batch",
                "Largest batch any connection drained in one wakeup",
                &[],
                move || p.max_batch() as f64,
            );
            let p = Arc::clone(&pipeline);
            registry.histogram(
                "kv_pipeline_batch_size",
                "Requests per drained batch",
                &[],
                move || p.batch_size_snapshot(),
            );
            let p = Arc::clone(&pipeline);
            registry.histogram(
                "kv_batch_drain_ns",
                "Wall nanoseconds executing one drained batch under the crew",
                &[],
                move || p.drain_snapshot(),
            );
            let idle = Arc::clone(&idle_disconnects);
            registry.counter(
                "kv_idle_disconnects_total",
                "Connections dropped by the per-connection read timeout",
                &[],
                move || idle.load(Ordering::Relaxed),
            );
        }
        let stage_hists: [Arc<LatencyHistogram>; STAGE_COUNT] =
            std::array::from_fn(|_| Arc::new(LatencyHistogram::new()));
        for stage in Stage::ALL {
            let h = Arc::clone(&stage_hists[stage as usize]);
            registry.histogram(
                "kv_stage_ns",
                "Per-batch latency attributed to one pipeline stage (span tracing)",
                &[("stage", stage.as_str())],
                move || h.snapshot(),
            );
        }
        let slowlog = Arc::new(SlowRing::new(SLOWLOG_CAPACITY));
        {
            let sl = Arc::clone(&slowlog);
            registry.counter(
                "kv_slowlog_inserted_total",
                "Batches that exceeded the slowlog threshold since start",
                &[],
                move || sl.inserted(),
            );
            let sl = Arc::clone(&slowlog);
            registry.counter(
                "kv_slowlog_dropped_total",
                "Slow batches not recorded: a lapped writer still held their slot",
                &[],
                move || sl.dropped(),
            );
            // Dashboards (kvtop) watch this gauge *decrease* to detect
            // a server restart, i.e. that every cumulative counter
            // above just reset to zero.
            let started = Instant::now();
            registry.gauge(
                "kv_uptime_seconds",
                "Seconds since this service was created",
                &[],
                move || started.elapsed().as_secs_f64(),
            );
            registry.gauge(
                "kv_build_info",
                "Build identity: the value is always 1, the labels are the payload",
                &[("version", env!("CARGO_PKG_VERSION"))],
                || 1.0,
            );
        }
        KvService {
            store,
            pipeline,
            idle_disconnects,
            registry,
            stage_hists,
            slowlog,
            slowlog_threshold_ns: AtomicU64::new(DEFAULT_SLOWLOG_THRESHOLD_US * 1_000),
            batch_seq: AtomicU64::new(0),
        }
    }

    /// Counts a connection dropped by its idle timeout
    /// (the `read_timeout` of [`Server::start`](crate::server::Server::start)).
    pub(crate) fn note_idle_disconnect(&self) {
        self.idle_disconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// The backing sharded store (per-shard lock and stats access).
    pub fn store(&self) -> &ShardedKv<P> {
        &self.store
    }

    /// A shared handle to the backing store — what background workers
    /// that outlive a borrow (the shard healer) hold.
    pub fn store_arc(&self) -> Arc<ShardedKv<P>> {
        Arc::clone(&self.store)
    }

    /// Graceful-shutdown epilogue: final-fsync every healthy shard's
    /// WAL and stamp the clean-shutdown marker in the `MANIFEST` (see
    /// [`ShardedKv::shutdown_clean`]). Call after the serve loop has
    /// drained — a write committed *after* the marker would make the
    /// marker a lie. No-op for memory-only stores.
    pub fn shutdown_clean(&self) -> std::io::Result<()> {
        self.store.shutdown_clean()
    }

    /// Pipeline observability: drained-batch counters and the
    /// batch-size distribution (see [`PipelineStats`]).
    pub fn pipeline_stats(&self) -> &PipelineStats {
        &self.pipeline
    }

    /// The unified metrics registry behind the `METRICS` verb. Other
    /// layers (the crew, embedders) register into it; registration is
    /// replace-on-same-name-and-labels, so re-wiring is idempotent.
    pub fn registry(&self) -> &malthus_obs::Registry {
        &self.registry
    }

    /// Sets the slowlog threshold: batches slower than `us`
    /// microseconds end-to-end retain their stage breakdown for
    /// `SLOWLOG`. 0 disables the slowlog (stage histograms still
    /// collect).
    pub fn set_slowlog_threshold_us(&self, us: u64) {
        self.slowlog_threshold_ns
            .store(us.saturating_mul(1_000), Ordering::Relaxed);
    }

    /// The current slowlog threshold in microseconds (0 = disabled).
    pub fn slowlog_threshold_us(&self) -> u64 {
        self.slowlog_threshold_ns.load(Ordering::Relaxed) / 1_000
    }

    /// The slowlog ring behind the `SLOWLOG` verb.
    pub fn slowlog(&self) -> &SlowRing {
        &self.slowlog
    }

    /// Allocates the next service-wide batch id (1-based; `SLOWLOG`
    /// entries cite it).
    pub fn next_batch_id(&self) -> u64 {
        self.batch_seq
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_add(1)
    }

    /// Closes a finished batch's span: stamps the end-to-end total,
    /// folds every stage duration into the `kv_stage_ns` histograms,
    /// and — when the total meets the slowlog threshold — retains the
    /// full breakdown in the slowlog ring. A detached span is a no-op.
    pub fn finish_span(&self, span: &mut SpanContext) {
        if !span.is_active() {
            return;
        }
        let total = span.finish();
        for stage in Stage::ALL {
            self.stage_hists[stage as usize].record_ns(span.get(stage));
        }
        let threshold = self.slowlog_threshold_ns.load(Ordering::Relaxed);
        if threshold > 0 && total >= threshold {
            self.slowlog.push(&SlowEntry::from_span(span));
        }
    }

    /// Renders the response line (without its newline) of a verb that
    /// is not a data op — the aggregates and the control verbs, which
    /// run at their position in the batch; GET/PUT/MGET/MSET only ever
    /// run inside a data run ([`ShardedKv::execute_batch_span`]).
    /// `Quit` and `Shutdown` render here too for in-process callers;
    /// a connection's drain takes them out before its batch gets here.
    fn control(&self, req: &Request, out: &mut String) {
        match req {
            Request::Get(_) | Request::Put(..) | Request::Mget(_) | Request::Mset(_) => {
                unreachable!("data ops run in their batch's data run")
            }
            Request::Scan(start, limit) => {
                let limit = usize::try_from(*limit).unwrap_or(usize::MAX);
                out.push_str("RANGE");
                for (k, v) in self.store.scan(*start, limit) {
                    out.push(' ');
                    push_u64(out, k);
                    out.push('=');
                    push_u64(out, v);
                }
            }
            Request::Ping => out.push_str("PONG"),
            Request::Stats => {
                // Family by family, each sample taking only the locks
                // its own closures take: `STATS` is a control verb, off
                // every gated path.
                out.push_str("STATS");
                let batch = match self.registry.sample("kv_pipeline_batch_size") {
                    Some(Sample::Histogram(h)) => batch_p50_p99(&h),
                    _ => (0, 0),
                };
                for (key, field) in STATS_FIELDS {
                    let value = match field {
                        StatsField::Sum(families) => families
                            .iter()
                            .map(|f| match self.registry.sample(f) {
                                Some(Sample::Counter(n)) => n,
                                Some(Sample::Gauge(g)) => g as u64,
                                _ => 0,
                            })
                            .sum(),
                        StatsField::BatchP50 => batch.0,
                        StatsField::BatchP99 => batch.1,
                    };
                    let _ = write!(out, " {key}={value}");
                }
                let _ = write!(out, " shards={}", self.store.shard_count());
            }
            Request::Metrics => {
                // Multi-line response: the full Prometheus-text-style
                // exposition, terminated by a bare `# EOF` line so a
                // line-oriented client knows where it ends.
                out.push_str(&self.registry.exposition());
                out.push_str("# EOF");
            }
            Request::TraceDump => {
                // Multi-line response: one JSON object per recorded
                // flight-recorder event, `# EOF`-terminated. Empty
                // (just the terminator) when tracing is disabled.
                out.push_str(&malthus_obs::recorder::dump());
                out.push_str("# EOF");
            }
            Request::Slowlog(n) => {
                // Multi-line response: a header, then one breakdown
                // line per retained slow batch (newest first),
                // `# EOF`-terminated.
                let entries = self.slowlog.recent(*n);
                let _ = writeln!(
                    out,
                    "SLOWLOG entries={} inserted={} threshold_us={}",
                    entries.len(),
                    self.slowlog.inserted(),
                    self.slowlog_threshold_us(),
                );
                for e in &entries {
                    let s = &e.stage_ns;
                    let _ = writeln!(
                        out,
                        "BATCH {} OPS {} TOTAL_NS {} READ_NS {} QUEUE_NS {} \
                         LOCK_WAIT_NS {} CULL_WAIT_NS {} EXEC_NS {} \
                         WAL_FSYNC_NS {} FLUSH_NS {}",
                        e.batch_id,
                        e.ops,
                        e.total_ns,
                        s[Stage::Read as usize],
                        s[Stage::Queue as usize],
                        s[Stage::LockWait as usize],
                        s[Stage::CullWait as usize],
                        s[Stage::Exec as usize],
                        s[Stage::WalFsync as usize],
                        s[Stage::Flush as usize],
                    );
                }
                out.push_str("# EOF");
            }
            Request::SlowlogReset => {
                self.slowlog.reset();
                out.push_str("OK");
            }
            Request::Shutdown | Request::Quit => out.push_str("OK"),
        }
    }

    /// Renders the response line to one reply of a storage batch, its
    /// tag echoed: `VAL <value>` or `NIL`; `OK`; `VALS <value>...` with
    /// a miss as `-`; `OK <pairs-written>`; or the read-only refusal.
    /// Every line but `VALS` is assembled whole and appended at once
    /// ([`push_line`]).
    fn render_batch_reply(out: &mut String, tag: Option<u64>, reply: &BatchReply) {
        match reply {
            BatchReply::Value(Some(v)) => push_line(out, tag, "VAL ", Some(*v)),
            BatchReply::Value(None) => push_line(out, tag, "NIL", None),
            BatchReply::Done => push_line(out, tag, "OK", None),
            BatchReply::Values(values) => {
                write_tag(out, tag);
                out.push_str("VALS");
                for v in values {
                    match v {
                        Some(v) => {
                            out.push(' ');
                            push_u64(out, *v);
                        }
                        None => out.push_str(" -"),
                    }
                }
                out.push('\n');
            }
            BatchReply::Wrote(pairs) => push_line(out, tag, "OK ", Some(*pairs as u64)),
            BatchReply::Readonly => push_line(out, tag, READONLY_ERR, None),
        }
    }

    /// [`KvService::apply_batch_span`] with a detached span. The
    /// unused `_admission` argument is kept only for
    /// `benchmark/src/probes.rs`, until ROADMAP 1(d) moves that probe.
    pub fn apply_batch<A: AdmissionStats>(
        &self,
        batch: &[Parsed],
        _admission: &A,
        out: &mut String,
    ) {
        self.apply_batch_span(batch, out, &mut SpanContext::detached());
    }

    /// The one request path: executes a drained batch, appending every
    /// response line to `out`, and attributes its time to `span`.
    ///
    /// Maximal contiguous runs of data ops (GET/PUT/MGET/MSET) are
    /// handed to [`ShardedKv::execute_batch_span`] — grouped by shard,
    /// one lock hold per shard group — so request order is preserved
    /// *exactly*: a `SCAN`, `PING` or `STATS` in the middle of a
    /// batch executes at its position between the runs around it.
    /// Parse errors render `ERR` at their position without touching
    /// the store. A run of one (every request of a depth-1 client) is
    /// not special: it is a batch of one, and costs what a batch costs
    /// — two allocations, the `ops` vector handed to storage and the
    /// `replies` vector it hands back (`tests/alloc_budget.rs`).
    ///
    /// Spans: the batch's lock admission and cull-residency waits are
    /// drained from the executing thread's thread-local accumulators
    /// (reset on entry so stale waits from unrelated prior work cannot
    /// pollute this batch), its group-commit fsyncs flow in through
    /// [`ShardedKv::execute_batch_span`], and whatever execution time
    /// remains after subtracting those becomes the `exec` stage — so
    /// the stage sum tracks the batch's wall time by construction.
    pub fn apply_batch_span(&self, batch: &[Parsed], out: &mut String, span: &mut SpanContext) {
        let t0 = if span.is_active() {
            span::take_waits(); // discard waits that are not ours
            span::now_ns()
        } else {
            0
        };
        let mut rest = batch;
        while let Some(first) = rest.first() {
            // The maximal run of data ops at the front of what is left.
            let run = rest
                .iter()
                .position(|p| data_op(p).is_none())
                .unwrap_or(rest.len());
            if run == 0 {
                write_tag(out, first.tag);
                match &first.body {
                    Ok(req) => self.control(req, out),
                    Err(e) => {
                        out.push_str("ERR ");
                        out.push_str(e);
                    }
                }
                out.push('\n');
                rest = &rest[1..];
                continue;
            }
            let (data, tail) = rest.split_at(run);
            // Sized exactly: one allocation, whatever the run's length.
            let ops: Vec<BatchOp<'_>> = data
                .iter()
                .map(|p| data_op(p).expect("the run holds only data ops"))
                .collect();
            let replies = self.store.execute_batch_span(&ops, span);
            for (p, reply) in data.iter().zip(&replies) {
                Self::render_batch_reply(out, p.tag, reply);
            }
            rest = tail;
        }
        if t0 != 0 {
            let elapsed = span::now_ns().saturating_sub(t0);
            let (lock_wait, cull_wait) = span::take_waits();
            span.add(Stage::LockWait, lock_wait);
            span.add(Stage::CullWait, cull_wait);
            // Exec = everything else this batch did on the worker:
            // elapsed minus admission, cull residency and fsyncs. The
            // subtraction (rather than timing each op) keeps the hot
            // loop clock-free and makes the stages partition the
            // batch's execution window exactly.
            span.add(
                Stage::Exec,
                elapsed.saturating_sub(lock_wait + cull_wait + span.get(Stage::WalFsync)),
            );
        }
    }
}

/// The storage op of a data verb — `GET`/`PUT`/`MGET`/`MSET`, the
/// requests that join a batch's data runs; `None` for a control verb,
/// an aggregate or a parse error, which split them.
fn data_op(p: &Parsed) -> Option<BatchOp<'_>> {
    match p.body.as_ref().ok()? {
        Request::Get(k) => Some(BatchOp::Get(*k)),
        Request::Put(k, v) => Some(BatchOp::Put(*k, *v)),
        Request::Mget(keys) => Some(BatchOp::Mget(keys)),
        Request::Mset(pairs) => Some(BatchOp::Mset(pairs)),
        _ => None,
    }
}

impl Default for KvService {
    fn default() -> Self {
        Self::new(DEFAULT_MEMTABLE_LIMIT, DEFAULT_CACHE_BLOCKS)
    }
}

impl<P: LockPair> std::fmt::Debug for KvService<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvService").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crew::{PoolConfig, WorkCrew};
    use malthus::policy::Admission;

    /// The reply to `line` sent as a batch of one, newline stripped.
    fn one(svc: &KvService, line: &str) -> String {
        let mut out = String::new();
        svc.apply_batch_span(
            &[Parsed::from_line(line)],
            &mut out,
            &mut SpanContext::detached(),
        );
        assert_eq!(out.pop(), Some('\n'), "{line}: {out:?}");
        out
    }

    #[test]
    fn apply_batch_preserves_request_order_and_tags() {
        let svc = KvService::with_shards(4, 64, 256);
        let batch: Vec<Parsed> = [
            "#1 PUT 10 100",
            "#2 GET 10",    // same-key read after write, same batch
            "GET 10",       // untagged mid-stream
            "#3 BOGUS",     // parse error renders at its position
            "#4 SCAN 10 2", // aggregate splits the data run
            "#5 MSET 11 110 12 120",
            "#6 MGET 10 11 99",
            "#7 PING",
        ]
        .iter()
        .map(|l| Parsed::from_line(l))
        .collect();
        let mut out = String::new();
        svc.apply_batch_span(&batch, &mut out, &mut SpanContext::detached());
        assert_eq!(
            out,
            "#1 OK\n\
             #2 VAL 100\n\
             VAL 100\n\
             #3 ERR unknown verb BOGUS\n\
             #4 RANGE 10=100\n\
             #5 OK 2\n\
             #6 VALS 100 110 -\n\
             #7 PONG\n"
        );
    }

    #[test]
    fn apply_batch_amortizes_write_admission_per_shard() {
        // 32 puts on one shard in one batch: exactly one exclusive
        // DB-lock acquisition — the admission amortization the whole
        // pipelined protocol exists for.
        let svc = KvService::with_shards(1, 1_024, 256);
        let before = svc.store().stats().per_shard[0].db_lock.write_episodes;
        let lines: Vec<String> = (0..32u64).map(|k| format!("#{k} PUT {k} {k}")).collect();
        let batch: Vec<Parsed> = lines.iter().map(|l| Parsed::from_line(l)).collect();
        let mut out = String::new();
        svc.apply_batch_span(&batch, &mut out, &mut SpanContext::detached());
        let after = svc.store().stats().per_shard[0].db_lock.write_episodes;
        assert_eq!(after - before, 1, "one write episode for 32 puts");
        assert_eq!(out.lines().count(), 32);
        for (k, l) in out.lines().enumerate() {
            assert_eq!(l, format!("#{k} OK"));
        }
    }

    #[test]
    fn stats_renders_its_twenty_keys_in_order() {
        let svc = KvService::with_shards(2, 64, 256);
        let stats = one(&svc, "STATS");
        let keys: Vec<&str> = stats
            .strip_prefix("STATS ")
            .unwrap()
            .split(' ')
            .map(|kv| kv.split_once('=').unwrap().0)
            .collect();
        assert_eq!(
            keys,
            [
                "reads",
                "writes",
                "completed",
                "culls",
                "reprovisions",
                "promotions",
                "rculls",
                "rgrants",
                "pbatches",
                "pbatchmax",
                "pbatch_p50",
                "pbatch_p99",
                "wal_syncs",
                "wal_errors",
                "readonly_shards",
                "idle_disconnects",
                "readonly_rejects",
                "heal_attempts",
                "heals",
                "shards",
            ]
        );
        assert!(
            stats.contains("pbatches=0 pbatchmax=0 pbatch_p50=0 pbatch_p99=0"),
            "{stats}"
        );
        assert!(
            stats.contains("wal_syncs=0 wal_errors=0 readonly_shards=0 idle_disconnects=0"),
            "{stats}"
        );
        assert!(stats.ends_with("shards=2"), "{stats}");
    }

    #[test]
    fn metrics_exposition_covers_every_layer() {
        let svc = KvService::with_shards(2, 64, 256);
        let crew = WorkCrew::new(PoolConfig::new(Admission::unrestricted(1), 8));
        crew.register_metrics(svc.registry());
        svc.store().put(1, 10).unwrap();
        svc.store().put(2, 20).unwrap();
        assert_eq!(svc.store().get(1), Some(10));
        let doc = one(&svc, "METRICS");
        // One unified exposition: shard counters, per-shard lock
        // counters, crew counters, WAL/latency histograms, and the
        // hot-shard gauge, `# EOF`-terminated.
        for needle in [
            "# HELP kv_shard_reads_total",
            "# TYPE kv_shard_reads_total counter",
            "kv_shard_reads_total{shard=\"0\"}",
            "kv_shard_filter_skips_total{shard=\"0\"}",
            "kv_shard_writes_total{shard=\"1\"}",
            "lock_write_episodes_total{lock=\"db\",shard=\"0\"}",
            "crew_completed_total",
            "crew_inline_total",
            "crew_enter_refused_total",
            "malthus_acs_size{point=\"crew\"} 1",
            "malthus_acs_target{point=\"crew\"} 1",
            "malthus_passive_depth{point=\"crew\"} 0",
            "crew_culls_total 0",
            "kv_shard_wal_syncs_total{shard=\"0\"}",
            "# TYPE kv_wal_fsync_ns histogram",
            "kv_wal_fsync_ns_count",
            "# TYPE kv_pipeline_batch_size histogram",
            "kv_batch_drain_ns_count",
            "kv_hottest_shard_write_share",
            "# TYPE kv_shard_runs gauge",
            "kv_shard_runs{shard=\"0\"}",
            "kv_shard_index_bytes{shard=\"1\"}",
            "kv_idle_disconnects_total 0",
            "# TYPE kv_stage_ns histogram",
            "kv_stage_ns_bucket{stage=\"lock_wait\",le=",
            "kv_stage_ns_count{stage=\"exec\"}",
            "kv_slowlog_inserted_total 0",
            "kv_slowlog_dropped_total 0",
            "kv_uptime_seconds",
            "kv_build_info{version=\"",
        ] {
            assert!(doc.contains(needle), "missing {needle:?} in:\n{doc}");
        }
        // A run count is a level, not a counter.
        assert!(!doc.contains("kv_shard_runs_total"), "{doc}");
        assert!(doc.ends_with("# EOF"), "{doc}");
        crew.shutdown();
    }

    #[test]
    fn span_stage_sum_tracks_batch_total_within_tolerance() {
        // Acceptance: the per-stage breakdown must account for the
        // batch's end-to-end time — the stages partition the
        // execution window, so their sum never exceeds the total and
        // trails it only by the few stamps outside any stage.
        let svc = KvService::with_shards(4, 4_096, 256);
        span::set_enabled(true);
        let mset: String = std::iter::once("MSET".to_string())
            .chain((0..512u64).flat_map(|k| [k.to_string(), (k * 7).to_string()]))
            .collect::<Vec<_>>()
            .join(" ");
        let lines = [mset.as_str(), "MGET 1 2 3 4 5 6 7 8", "SCAN 0 64"];
        let batch: Vec<Parsed> = lines.iter().map(|l| Parsed::from_line(l)).collect();
        let mut span = SpanContext::start(1, batch.len() as u32);
        let mut out = String::new();
        svc.apply_batch_span(&batch, &mut out, &mut span);
        svc.finish_span(&mut span);
        let total = span.total_ns();
        let sum = span.stage_sum();
        assert!(total > 0, "finish must stamp a real total");
        assert!(span.get(Stage::Exec) > 0, "a 512-pair MSET takes time");
        assert!(sum <= total, "stages are disjoint sub-intervals: {span:?}");
        let slack = total / 10 + 50_000; // 10% + 50us floor for tiny batches
        assert!(
            total - sum <= slack,
            "unattributed {} of {total} ns exceeds {slack}: {span:?}",
            total - sum
        );
    }

    #[test]
    fn slowlog_verb_returns_breakdowns_and_reset_hides_them() {
        let svc = KvService::with_shards(1, 4_096, 256);
        span::set_enabled(true);
        svc.set_slowlog_threshold_us(1); // ~everything qualifies
        assert_eq!(svc.slowlog_threshold_us(), 1);
        // A batch slow enough (hundreds of puts) to clear 1us.
        let lines: Vec<String> = (0..256u64).map(|k| format!("PUT {k} {k}")).collect();
        let batch: Vec<Parsed> = lines.iter().map(|l| Parsed::from_line(l)).collect();
        let mut span = SpanContext::start(7, batch.len() as u32);
        let mut out = String::new();
        svc.apply_batch_span(&batch, &mut out, &mut span);
        svc.finish_span(&mut span);
        let doc = one(&svc, "SLOWLOG 10");
        assert!(
            doc.starts_with("SLOWLOG entries=1 inserted=1 threshold_us=1\n"),
            "{doc}"
        );
        assert!(doc.contains("BATCH 7 OPS 256 TOTAL_NS "), "{doc}");
        for field in [
            "READ_NS",
            "QUEUE_NS",
            "LOCK_WAIT_NS",
            "CULL_WAIT_NS",
            "EXEC_NS",
            "WAL_FSYNC_NS",
            "FLUSH_NS",
        ] {
            assert!(doc.contains(field), "missing {field} in:\n{doc}");
        }
        assert!(doc.ends_with("# EOF"), "{doc}");
        // RESET hides the entries but keeps the inserted count.
        assert_eq!(one(&svc, "SLOWLOG RESET"), "OK");
        let doc = one(&svc, "SLOWLOG 10");
        assert!(doc.starts_with("SLOWLOG entries=0 inserted=1"), "{doc}");
        // Threshold 0 disables insertion entirely.
        svc.set_slowlog_threshold_us(0);
        let mut span = SpanContext::start(8, batch.len() as u32);
        let mut out = String::new();
        svc.apply_batch_span(&batch, &mut out, &mut span);
        svc.finish_span(&mut span);
        assert_eq!(
            svc.slowlog().inserted(),
            1,
            "disabled slowlog must not grow"
        );
        // The stage histograms collected regardless.
        assert_eq!(one(&svc, "SLOWLOG RESET"), "OK");
    }

    #[test]
    fn trace_dump_renders_recorded_events() {
        let svc = KvService::with_shards(1, 64, 256);
        malthus_obs::recorder::enable(256, 1);
        malthus_obs::record(malthus_obs::EventKind::ConnOpen, 57_005, 48_879);
        let doc = one(&svc, "TRACE DUMP");
        malthus_obs::recorder::disable();
        assert!(doc.ends_with("# EOF"), "{doc}");
        let marker = doc
            .lines()
            .find(|l| l.contains("\"event\":\"conn_open\"") && l.contains("\"a\":57005"))
            .unwrap_or_else(|| panic!("marker event missing in:\n{doc}"));
        assert!(marker.contains("\"b\":48879"), "{marker}");
        assert!(marker.starts_with('{') && marker.ends_with('}'), "{marker}");
    }

    #[test]
    fn pbatch_fields_read_the_one_batch_size_histogram() {
        let svc = KvService::with_shards(1, 64, 256);
        let p = svc.pipeline_stats();
        for n in [16, 1, 16, 16] {
            p.note_batch(n);
        }
        // Its count is the batch total: no second counter to drift.
        assert_eq!(p.batches(), 4);
        assert_eq!(p.batch_size_snapshot().count(), 4);
        let sixteen = std::time::Duration::from_nanos(16);
        assert_eq!(p.batch_size_snapshot().p50_p99(), (sixteen, sixteen));
        let stats = one(&svc, "STATS");
        assert!(
            stats.contains("pbatches=4 pbatchmax=16 pbatch_p50=16 pbatch_p99=16"),
            "{stats}"
        );
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "malthus-kv-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn readonly_shard_renders_err_on_the_wire() {
        use malthus_storage::WalOptions;
        let dir = temp_dir("readonly");
        let opts = WalOptions {
            faults: Some(
                malthus_fault::FaultPlan::parse("storage.fsync=1x1")
                    .unwrap()
                    .arm(),
            ),
            ..WalOptions::default()
        };
        // Single shard so key 1 is guaranteed to meet the failing
        // fsync; the multi-shard isolation story is covered at the
        // storage layer.
        let (store, _) = ShardedKv::open_with(&dir, 1, 64, 256, opts).unwrap();
        let svc = Arc::new(KvService::from_store(store));
        assert_eq!(one(&svc, "PUT 1 2"), READONLY_ERR);
        assert_eq!(one(&svc, "GET 1"), "NIL", "reads survive");
        assert_eq!(one(&svc, "MSET 1 2"), READONLY_ERR);
        // The batch path renders the same refusal per write op.
        let batch: Vec<Parsed> = ["#1 PUT 5 50", "#2 GET 5"]
            .iter()
            .map(|l| Parsed::from_line(l))
            .collect();
        let mut out = String::new();
        svc.apply_batch_span(&batch, &mut out, &mut SpanContext::detached());
        assert_eq!(out, format!("#1 {READONLY_ERR}\n#2 NIL\n"));
        let stats = one(&svc, "STATS");
        assert!(stats.contains("wal_errors=1 readonly_shards=1"), "{stats}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_service_replays_on_open() {
        let dir = temp_dir("durable");
        {
            let (svc, report) = KvService::open(&dir, 2, 64, 256).unwrap();
            assert_eq!(report.pairs(), 0);
            svc.store().put(1, 10).unwrap();
            svc.store().put(2, 20).unwrap();
        }
        let (svc, report) = KvService::open(&dir, 2, 64, 256).unwrap();
        assert!(report.clean());
        assert_eq!(report.pairs(), 2);
        assert_eq!(svc.store().get(1), Some(10));
        assert_eq!(svc.store().get(2), Some(20));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn service_put_get_through_both_locks() {
        let svc = KvService::new(8, 256);
        for k in 0..40u64 {
            svc.store().put(k, k * 3).unwrap();
        }
        // Small memtable forces frozen runs, so gets traverse the
        // block cache too.
        for k in 0..40u64 {
            assert_eq!(svc.store().get(k), Some(k * 3), "key {k}");
        }
        assert_eq!(svc.store().get(999), None);
        let stats = svc.store().stats();
        assert_eq!(stats.reads(), 41);
        assert_eq!(stats.writes(), 40);
    }

    #[test]
    fn gets_run_concurrently_under_the_db_lock() {
        // Two readers must be able to hold the DB lock simultaneously:
        // one thread parks *inside* a read guard while another
        // completes a full `get` through the service API. With an
        // exclusive DB lock the `get` would block until the guard
        // dropped and the recv_timeout below would fire.
        let svc = Arc::new(KvService::new(64, 256));
        svc.store().put(10, 11).unwrap();

        let (tx, rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let holder = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                let guard = svc.store.db_lock(0).read(); // first reader in
                tx.send(guard.reads()).unwrap();
                // Hold the shared lock until the main thread's get has
                // finished.
                release_rx.recv().unwrap();
                drop(guard);
            })
        };
        rx.recv_timeout(std::time::Duration::from_secs(5))
            .expect("holder must acquire the read lock");

        let (got_tx, got_rx) = std::sync::mpsc::channel();
        let getter = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                got_tx.send(svc.store().get(10)).unwrap();
            })
        };
        let got = got_rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("get must complete while another reader holds the DB lock");
        assert_eq!(got, Some(11));

        // Writers are still excluded while the read guard lives.
        assert!(svc.store.db_lock(0).try_write().is_none());
        release_tx.send(()).unwrap();
        holder.join().unwrap();
        getter.join().unwrap();
        assert!(svc.store.db_lock(0).try_write().is_some());
    }

    #[test]
    fn a_batch_of_one_renders_the_wire_responses() {
        let svc = KvService::new(64, 256);
        assert_eq!(one(&svc, "PUT 5 6"), "OK");
        assert_eq!(one(&svc, "GET 5"), "VAL 6");
        assert_eq!(one(&svc, "GET 6"), "NIL");
        assert_eq!(one(&svc, "PING"), "PONG");
        let stats = one(&svc, "STATS");
        // Two GETs above: one hit, one miss.
        assert!(stats.starts_with("STATS reads=2 writes=1"), "{stats}");
        assert!(stats.ends_with("shards=1"), "{stats}");
    }

    #[test]
    fn a_batch_of_one_renders_the_batched_verbs_across_shards() {
        let svc = KvService::with_shards(4, 64, 256);
        assert_eq!(one(&svc, "MSET 1 10 2 20 3 30"), "OK 3");
        assert_eq!(one(&svc, "MGET 2 9 1"), "VALS 20 - 10");
        assert_eq!(one(&svc, "SCAN 2 10"), "RANGE 2=20 3=30");
        assert_eq!(one(&svc, "SCAN 100 10"), "RANGE");
        let stats = one(&svc, "STATS");
        assert!(stats.ends_with("shards=4"), "{stats}");
    }
}
