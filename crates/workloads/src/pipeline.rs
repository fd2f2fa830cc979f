//! Live pipelined-KV traffic over real loopback TCP (the workload
//! behind `bench_pipeline`).
//!
//! The pipelined protocol's claim is *amortized admission*: a
//! connection that keeps `depth` tagged requests in flight lets the
//! server drain a whole burst per reader wakeup, execute each shard's
//! slice of the batch under **one** DB-lock acquisition, and flush
//! every response in one write — so the closed loop is priced by the
//! store, not by per-request round trips and scheduler handoffs.
//! This module measures that end to end: it boots a real front-end
//! ([`Server::start`]) on an ephemeral loopback port, drives it with
//! `conns` windowed client threads (depth 1 = the classic untagged
//! closed loop), and reports throughput *plus the admission
//! evidence* — drained-batch statistics from the server's
//! [`PipelineStats`](malthus_pool::PipelineStats) and the interval's
//! exclusive DB-lock episodes against the interval's writes, so
//! "fewer exclusive acquisitions per op at depth > 1" is a number,
//! not a story.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use malthus_park::XorShift64;
use malthus_pool::kv::KvService;
use malthus_pool::{Front, KvClient, PoolConfig, ReactorConfig, Server, WorkCrew};

/// Per-shard memtable limit for the workload store: large enough that
/// run freezes are rare during a cell, so the measured exclusive
/// episodes are request-driven.
pub const MEMTABLE_LIMIT: usize = 4_096;
/// Per-shard block-cache capacity of the workload store.
pub const CACHE_BLOCKS: usize = 4_096;

/// Geometry of one pipelined-traffic run.
#[derive(Debug, Clone, Copy)]
pub struct PipelineShape {
    /// Key-space size.
    pub keys: u64,
    /// Percentage of operations that are PUTs (0–100); the rest are
    /// GETs over a prefilled key space.
    pub put_pct: u32,
    /// Requests each connection keeps in flight (1 = untagged closed
    /// loop, byte-identical to the pre-pipelining protocol).
    pub depth: usize,
}

impl PipelineShape {
    /// A shape over `keys` keys with the given PUT percentage and
    /// pipeline depth.
    ///
    /// # Panics
    ///
    /// Panics if `keys` or `depth` is zero, or `put_pct` exceeds 100.
    pub fn new(keys: u64, put_pct: u32, depth: usize) -> Self {
        assert!(keys > 0, "empty key space");
        assert!(put_pct <= 100, "fraction is a percentage");
        assert!(depth > 0, "the window must admit at least one request");
        PipelineShape {
            keys,
            put_pct,
            depth,
        }
    }
}

/// Aggregate result of one [`run_pipeline`] interval.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Completed GETs (client-side, successful responses).
    pub reads: u64,
    /// Completed PUTs.
    pub writes: u64,
    /// `ERR` responses plus transport failures.
    pub errors: u64,
    /// Measured interval: `max(worker stop) − min(worker start)`,
    /// stamped inside the client threads (oversubscribed-host
    /// reasoning as everywhere else in the harness).
    pub elapsed_secs: f64,
    /// Batches the server drained during the interval.
    pub batches: u64,
    /// Largest single drained batch.
    pub max_batch: u64,
    /// PUTs the store accepted during the interval (server-side).
    pub server_writes: u64,
    /// Exclusive DB-lock episodes during the interval, summed across
    /// shards — the writer-admission count pipelining amortizes.
    pub exclusive_episodes: u64,
    /// WAL fsyncs during the interval, summed across shards (0 for a
    /// memory-only run). Group commit rides the same batching as
    /// writer admission: one fsync per per-shard write group.
    pub wal_syncs: u64,
}

impl PipelineReport {
    /// Total completed operations.
    pub fn ops(&self) -> u64 {
        self.reads + self.writes
    }

    /// Mean requests per drained batch (1.0 at depth 1; growth above
    /// it is the amortization working).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.ops() as f64 / self.batches as f64
    }

    /// Exclusive DB-lock acquisitions per server-side write: 1.0 when
    /// every PUT pays its own admission (depth 1), below it when
    /// batches execute several writes per hold.
    pub fn exclusive_per_write(&self) -> f64 {
        if self.server_writes == 0 {
            return 0.0;
        }
        self.exclusive_episodes as f64 / self.server_writes as f64
    }

    /// WAL fsyncs per server-side write — the durability analogue of
    /// [`PipelineReport::exclusive_per_write`]: 1.0 when every PUT
    /// pays its own fsync (depth 1), well below it when group commit
    /// syncs a whole per-shard write group at once. 0.0 for a
    /// memory-only run.
    pub fn fsyncs_per_write(&self) -> f64 {
        if self.server_writes == 0 {
            return 0.0;
        }
        self.wal_syncs as f64 / self.server_writes as f64
    }
}

/// Connects with capped exponential backoff (the server thread may
/// still be between `bind` and `accept` on a loaded host, so this
/// uses a much longer schedule than a CLI client's default 3 tries).
fn connect_with_retry(addr: SocketAddr) -> KvClient {
    const TRIES: u32 = 10;
    KvClient::connect_with_backoff(addr, TRIES)
        .unwrap_or_else(|e| panic!("could not connect to {addr} after {TRIES} tries: {e}"))
}

/// Which server front-end a pipeline cell boots; [`run_pipeline`]
/// turns it into the [`Front`] it starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontEnd {
    /// Thread-per-connection readers dispatching onto a [`WorkCrew`]
    /// ([`Front::Threaded`]).
    Threaded,
    /// The `malthus-net` reactor ([`Front::Reactor`]): poll-admitted
    /// workers, ready connections drained as batches in place.
    Reactor,
}

/// Client-side reply counters of one connection.
#[derive(Default)]
struct Tally {
    reads: u64,
    writes: u64,
    errors: u64,
}

impl Tally {
    /// Books one reply; `false` means the transport failed and the
    /// connection is done.
    fn book(&mut self, reply: std::io::Result<&str>, is_put: bool) -> bool {
        match reply {
            Ok(resp) if resp.starts_with("ERR") => self.errors += 1,
            Ok(_) if is_put => self.writes += 1,
            Ok(_) => self.reads += 1,
            Err(_) => {
                self.errors += 1;
                return false;
            }
        }
        true
    }
}

/// Boots `front` on an ephemeral loopback port over an already-built
/// `service` (crew ACS sized as `kv_server` sizes it), prefills the
/// key space, drives it with `conns` client threads at `shape.depth`
/// for `seconds`, and tears the server down. Reports interval deltas
/// (admission episodes, writes, WAL fsyncs — the prefill is
/// excluded), so over a durable service
/// [`PipelineReport::fsyncs_per_write`] measures how much of the
/// fsync cost the pipelined batching amortized away. Deterministic
/// key streams per `seed`.
pub fn run_pipeline(
    service: Arc<KvService>,
    front: FrontEnd,
    conns: usize,
    seconds: f64,
    shape: PipelineShape,
    seed: u64,
) -> PipelineReport {
    let shards = service.store().shard_count();
    // The reactor needs no thread per connection, so its pool stays
    // small; the threaded crew is sized as `kv_server` sizes it, and
    // built before the prefill so its surplus workers have culled by
    // the time the interval starts.
    let front = match front {
        FrontEnd::Threaded => {
            let workers = (2 * conns).max(4);
            let acs = malthus::policy::acs_target(workers, shards);
            let crew = WorkCrew::new(PoolConfig::malthusian(workers, 256).with_acs_target(acs));
            Front::Threaded(Arc::new(crew))
        }
        FrontEnd::Reactor => {
            let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
            let workers = cpus.max(2);
            let acs = malthus::policy::acs_target(workers, shards);
            Front::Reactor(ReactorConfig::malthusian(workers).with_acs_target(acs))
        }
    };
    // Prefill so the GET side of the mix can hit. Chunked MSETs keep
    // this cheap on a durable store: one group commit per chunk per
    // shard instead of one fsync per key.
    const PREFILL_CHUNK: u64 = 4_096;
    let mut k = 0;
    while k < shape.keys {
        let chunk: Vec<(u64, u64)> = (k..(k + PREFILL_CHUNK).min(shape.keys))
            .map(|k| (k, k))
            .collect();
        service
            .store()
            .mset(&chunk)
            .expect("prefill on a fresh store");
        k += PREFILL_CHUNK;
    }
    // One snapshot serves all baselines (episodes, writes, fsyncs):
    // the store is quiescent here, so the tuple is exact and
    // consistent.
    let before = service.store().stats();
    let episodes_before: u64 = before
        .per_shard
        .iter()
        .map(|s| s.db_lock.write_episodes)
        .sum();
    let writes_before = before.writes();
    let wal_syncs_before = before.wal_syncs();

    let server =
        Server::start("127.0.0.1:0", Arc::clone(&service), front, None).expect("bind loopback");
    let addr = server.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let writes = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let clients: Vec<_> = (0..conns)
        .map(|c| {
            let stop = Arc::clone(&stop);
            let reads = Arc::clone(&reads);
            let writes = Arc::clone(&writes);
            let errors = Arc::clone(&errors);
            std::thread::spawn(move || {
                let mut client = connect_with_retry(addr);
                let rng = XorShift64::new(seed ^ (0x71BE_1100 + c as u64));
                let mut req = String::new();
                let mut tally = Tally::default();
                let build = |req: &mut String| -> bool {
                    let key = rng.next_below(shape.keys);
                    req.clear();
                    use std::fmt::Write as _;
                    if rng.next_below(100) < shape.put_pct as u64 {
                        let _ = write!(req, "PUT {key} {}", key.wrapping_mul(31));
                        true
                    } else {
                        let _ = write!(req, "GET {key}");
                        false
                    }
                };
                let started = Instant::now();
                if shape.depth == 1 {
                    while !stop.load(Ordering::Relaxed) {
                        let is_put = build(&mut req);
                        if !tally.book(client.roundtrip(&req), is_put) {
                            break;
                        }
                    }
                } else {
                    let mut outstanding: VecDeque<(u64, bool)> =
                        VecDeque::with_capacity(shape.depth);
                    let mut seq = 0u64;
                    // Cleared by a failed send: nothing more goes
                    // out, but what was sent is still collected, so
                    // every sent request lands in exactly one counter.
                    let mut sending = true;
                    loop {
                        while sending
                            && !stop.load(Ordering::Relaxed)
                            && outstanding.len() < shape.depth
                        {
                            let is_put = build(&mut req);
                            if client.send_tagged(seq, &req).is_err() {
                                tally.errors += 1;
                                sending = false;
                                break;
                            }
                            outstanding.push_back((seq, is_put));
                            seq += 1;
                        }
                        // Empty only once the interval is over (or a
                        // send failed) and the window has drained.
                        let Some((exp, is_put)) = outstanding.pop_front() else {
                            break;
                        };
                        let reply = client.recv_tagged().map(|(tag, resp)| {
                            assert_eq!(tag, exp, "pipeline tag mismatch");
                            resp
                        });
                        if !tally.book(reply, is_put) {
                            break;
                        }
                    }
                }
                let stopped = Instant::now();
                reads.fetch_add(tally.reads, Ordering::Relaxed);
                writes.fetch_add(tally.writes, Ordering::Relaxed);
                errors.fetch_add(tally.errors, Ordering::Relaxed);
                (started, stopped)
            })
        })
        .collect();

    std::thread::sleep(Duration::from_secs_f64(seconds));
    stop.store(true, Ordering::Relaxed);
    let stamps: Vec<(Instant, Instant)> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    let elapsed_secs = match (
        stamps.iter().map(|s| s.0).min(),
        stamps.iter().map(|s| s.1).max(),
    ) {
        (Some(first), Some(last)) => last.duration_since(first).as_secs_f64(),
        _ => 0.0,
    };

    server.stop();
    let after = service.store().stats();
    let episodes_after: u64 = after
        .per_shard
        .iter()
        .map(|s| s.db_lock.write_episodes)
        .sum();
    let writes_after = after.writes();
    let p = service.pipeline_stats();
    PipelineReport {
        reads: reads.load(Ordering::SeqCst),
        writes: writes.load(Ordering::SeqCst),
        errors: errors.load(Ordering::SeqCst),
        elapsed_secs,
        batches: p.batches(),
        max_batch: p.max_batch(),
        server_writes: writes_after.saturating_sub(writes_before),
        exclusive_episodes: episodes_after.saturating_sub(episodes_before),
        wal_syncs: after.wal_syncs().saturating_sub(wal_syncs_before),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memory(shards: usize) -> Arc<KvService> {
        Arc::new(KvService::with_shards(shards, MEMTABLE_LIMIT, CACHE_BLOCKS))
    }

    #[test]
    fn depth_one_is_the_classic_closed_loop() {
        let report = run_pipeline(
            memory(2),
            FrontEnd::Threaded,
            2,
            0.2,
            PipelineShape::new(1_000, 20, 1),
            7,
        );
        assert!(report.ops() > 0);
        assert_eq!(report.errors, 0);
        assert!(report.elapsed_secs >= 0.15, "{}", report.elapsed_secs);
        // Depth 1 cannot batch: every wakeup drains exactly one
        // request.
        assert_eq!(report.max_batch, 1);
        assert_eq!(report.batches, report.ops());
        // Every server-side PUT paid its own admission.
        assert_eq!(report.exclusive_episodes, report.server_writes);
    }

    #[test]
    fn reactor_front_end_serves_the_same_loop() {
        let report = run_pipeline(
            memory(2),
            FrontEnd::Reactor,
            2,
            0.2,
            PipelineShape::new(1_000, 20, 8),
            13,
        );
        assert!(report.ops() > 0);
        assert_eq!(report.errors, 0);
        assert!(report.batches > 0);
        // Same amortization law as the threaded front-end: a batched
        // exclusive hold covers at least one write.
        assert!(
            report.exclusive_episodes <= report.server_writes,
            "episodes {} > writes {}",
            report.exclusive_episodes,
            report.server_writes
        );
    }

    #[test]
    fn deep_window_batches_and_amortizes() {
        let report = run_pipeline(
            memory(2),
            FrontEnd::Threaded,
            2,
            0.3,
            PipelineShape::new(1_000, 20, 8),
            11,
        );
        assert!(report.ops() > 0);
        assert_eq!(report.errors, 0);
        assert!(report.batches > 0);
        assert!(report.max_batch >= 1);
        // Batching can never *increase* admissions: each batched
        // exclusive hold covers >= 1 write (equality when every batch
        // happened to carry at most one write).
        assert!(
            report.exclusive_episodes <= report.server_writes,
            "episodes {} > writes {}",
            report.exclusive_episodes,
            report.server_writes
        );
        // Server-side writes match the client's view once quiescent.
        assert_eq!(report.server_writes, report.writes);
    }

    #[test]
    fn memory_run_reports_zero_fsyncs() {
        let report = run_pipeline(
            memory(1),
            FrontEnd::Threaded,
            1,
            0.2,
            PipelineShape::new(200, 50, 4),
            3,
        );
        assert!(report.ops() > 0);
        assert_eq!(report.wal_syncs, 0);
        assert_eq!(report.fsyncs_per_write(), 0.0);
    }

    #[test]
    fn durable_run_group_commits_fsyncs() {
        let dir =
            std::env::temp_dir().join(format!("malthus-pipeline-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (service, _) = KvService::open(&dir, 1, MEMTABLE_LIMIT, CACHE_BLOCKS).unwrap();
        let report = run_pipeline(
            Arc::new(service),
            FrontEnd::Threaded,
            2,
            0.3,
            PipelineShape::new(500, 100, 16),
            13,
        );
        assert!(report.ops() > 0);
        assert_eq!(report.errors, 0);
        // Every acked PUT was covered by some group commit...
        assert!(report.wal_syncs > 0);
        // ...and a group commit covers at least one write, so syncs
        // can never exceed writes (amortization pushes them below).
        assert!(
            report.wal_syncs <= report.server_writes,
            "syncs {} > writes {}",
            report.wal_syncs,
            report.server_writes
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "window must admit")]
    fn zero_depth_panics() {
        PipelineShape::new(10, 0, 0);
    }
}
