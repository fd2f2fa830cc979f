//! In-process probes: each times calls into one layer's public
//! functions, from outside the program, and records the calls as
//! spans. They explain which layer moved an end-to-end number; none of
//! them is gated. Probes run on one thread unless marked 2t, and never
//! on more threads than the host has CPUs.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use malthus::{McsCrMutex, McsMutex};
use malthus_metrics::LatencyHistogram;
use malthus_net::{Action, CloseReason, Handler, Reactor, ReactorConfig};
use malthus_obs::{SpanContext, Stage};
use malthus_park::Parker;
use malthus_pool::kv::{
    AdmissionSnapshot, AdmissionStats, DEFAULT_CACHE_BLOCKS, DEFAULT_MEMTABLE_LIMIT,
};
use malthus_pool::{KvService, Parsed, PoolConfig, WorkCrew};
use malthus_rwlock::RwCrMutex;
use malthus_storage::wal::encode_record;
use malthus_storage::{BatchOp, FileWalIo, MiniKv, ShardRouter, ShardWal, ShardedKv, SimpleLru};

use crate::stats::{percentile_ns, Sample};
use crate::stream::{initial_value, ConnStream, Op, SplitMix64, Traffic, CONNS, MSET_PAIRS};
use crate::trace::Tracer;
use crate::{DEEP_KEYS, DEEP_SHARDS, SERVER_QUEUE, SERVER_WORKERS};

/// Named per-layer values with their units, in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// What the probes need to know about the workload being traced.
#[derive(Debug)]
pub struct ProbeInput<'a> {
    pub streams: &'a [ConnStream],
    pub traffic: Traffic,
    pub shards: usize,
    pub seed: u64,
    /// Time each timed loop may spend.
    pub budget: Duration,
    /// A fresh directory on the data disk for the WAL probe.
    pub scratch: &'a Path,
}

/// Batches a workload replay records as spans (and at most runs).
const REPLAY_BATCHES: usize = 2_048;
/// Pairs per group in the WAL probes: one window of depth-16 PUTs.
const WAL_GROUP: usize = 16;
/// Group commits the append probe times at most.
const WAL_APPENDS: usize = 1_000;
/// Lines per echo round trip: one depth-16 window.
const ECHO_LINES: usize = 16;

/// Runs `f` in blocks of `block` calls until `budget` is spent, as one
/// span; returns nanoseconds per call.
fn spin(
    tr: &mut Tracer,
    name: &'static str,
    budget: Duration,
    block: u64,
    mut f: impl FnMut(),
) -> f64 {
    let mut calls = 0u64;
    let (id, ()) = tr.time(name, None, 0, 0, || {
        let end = Instant::now() + budget;
        loop {
            for _ in 0..block {
                f();
            }
            calls += block;
            if Instant::now() >= end {
                break;
            }
        }
    });
    tr.set_calls(id, calls);
    let (ns, n) = tr.span(id);
    ns as f64 / n as f64
}

/// 2t: this thread and one other call `acquire` flat out for `budget`,
/// as one span covering both threads' calls; returns wall nanoseconds
/// per call and the calls made.
fn spin_pair(
    tr: &mut Tracer,
    name: &'static str,
    input: &ProbeInput<'_>,
    acquire: impl Fn(&mut SplitMix64) + Sync,
) -> (f64, u64) {
    let done = AtomicBool::new(false);
    let other = AtomicU64::new(0);
    let (id, mine) = tr.time(name, None, 0, 0, || {
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut rng = SplitMix64::new(input.seed ^ 1);
                let mut n = 0;
                while !done.load(Ordering::Relaxed) {
                    acquire(&mut rng);
                    n += 1;
                }
                other.store(n, Ordering::SeqCst);
            });
            let mut rng = SplitMix64::new(input.seed ^ 2);
            let end = Instant::now() + input.budget;
            let mut n = 0u64;
            while Instant::now() < end {
                for _ in 0..64 {
                    acquire(&mut rng);
                }
                n += 64;
            }
            done.store(true, Ordering::Relaxed);
            n
        })
    });
    tr.set_calls(id, mine + other.load(Ordering::SeqCst));
    let (ns, n) = tr.span(id);
    (ns as f64 / n as f64, n)
}

/// About 100 ns of work the optimiser cannot delete: the critical
/// section of the contended probes.
#[inline(never)]
fn critical_section(x: &mut u64) {
    for _ in 0..48 {
        *x = black_box(x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(7));
    }
}

/// Runs every probe.
pub fn run_all(input: &ProbeInput<'_>, tr: &mut Tracer, m: &mut Metrics) -> std::io::Result<()> {
    park(input, tr, m);
    core_locks(input, tr, m);
    rw_locks(input, tr, m);
    storage_small(input, tr, m);
    storage_deep(input, tr, m);
    wal(input, tr, m)?;
    replay(input, tr, m);
    crew(input, tr, m);
    net(input, tr, m)?;
    obs_metrics_fault(input, tr, m);
    Ok(())
}

/// `Parker` ping-pong between two threads (2t).
fn park(input: &ProbeInput<'_>, tr: &mut Tracer, m: &mut Metrics) {
    let (ping, pong) = (Parker::new(), Parker::new());
    let (wake_ping, wake_pong) = (ping.unparker(), pong.unparker());
    let done = AtomicBool::new(false);
    let ns = std::thread::scope(|s| {
        s.spawn(|| loop {
            pong.park();
            if done.load(Ordering::SeqCst) {
                break;
            }
            wake_ping.unpark();
        });
        let ns = spin(tr, "park.handoff", input.budget, 16, || {
            wake_pong.unpark();
            ping.park();
        });
        done.store(true, Ordering::SeqCst);
        wake_pong.unpark();
        ns
    });
    // One call is two hand-offs: there and back.
    m.put("park.handoff_us", ns / 2.0 / 1e3, "us");
}

fn core_locks(input: &ProbeInput<'_>, tr: &mut Tracer, m: &mut Metrics) {
    let cr = McsCrMutex::default_cr(0u64);
    let ns = spin(tr, "core.mcscr_uncontended", input.budget, 1024, || {
        *cr.lock() += 1;
    });
    m.put("core.mcscr_uncontended_ns", ns, "ns");
    let mcs = McsMutex::default_stp(0u64);
    let ns = spin(tr, "core.mcs_uncontended", input.budget, 1024, || {
        *mcs.lock() += 1;
    });
    m.put("core.mcs_uncontended_ns", ns, "ns");

    // 2t: both threads hammer one MCSCR lock around ~100 ns of work.
    let lock = McsCrMutex::default_cr(0u64);
    let (ns, acquisitions) = spin_pair(tr, "core.mcscr_contended", input, |_| {
        critical_section(&mut lock.lock());
    });
    m.put("core.mcscr_contended_ns", ns, "ns");
    m.put(
        "core.mcscr_culls_per_kacq",
        lock.raw().cr_stats().culls as f64 * 1e3 / acquisitions as f64,
        "1/k",
    );
}

fn rw_locks(input: &ProbeInput<'_>, tr: &mut Tracer, m: &mut Metrics) {
    let rw = RwCrMutex::default_cr(0u64);
    let ns = spin(tr, "rwlock.read_uncontended", input.budget, 1024, || {
        black_box(*rw.read());
    });
    m.put("rwlock.read_uncontended_ns", ns, "ns");
    let ns = spin(tr, "rwlock.write_uncontended", input.budget, 1024, || {
        *rw.write() += 1;
    });
    m.put("rwlock.write_uncontended_ns", ns, "ns");
    let std_rw = std::sync::RwLock::new(0u64);
    let ns = spin(
        tr,
        "rwlock.std_read_uncontended",
        input.budget,
        1024,
        || {
            black_box(*std_rw.read().expect("never poisoned"));
        },
    );
    m.put("rwlock.std_read_uncontended_ns", ns, "ns");

    // 2t: 95 % shared / 5 % exclusive holds around ~100 ns of work.
    let lock = RwCrMutex::default_cr(0u64);
    let (ns, _) = spin_pair(tr, "rwlock.r95w5_contended", input, |rng| {
        if rng.below(100) < 5 {
            critical_section(&mut lock.write());
        } else {
            let mut copy = *lock.read();
            critical_section(&mut copy);
        }
    });
    m.put("rwlock.r95w5_contended_ns", ns, "ns");
}

/// Router grouping and memtable hits at the `front_*` per-shard size.
fn storage_small(input: &ProbeInput<'_>, tr: &mut Tracer, m: &mut Metrics) {
    let mut rng = SplitMix64::new(input.seed);
    let router = ShardRouter::new(DEEP_SHARDS);
    let batch: Vec<u64> = (0..16).map(|_| rng.below(10_000)).collect();
    let ns = spin(tr, "storage.router_group", input.budget, 256, || {
        black_box(router.group_indices(black_box(&batch).iter().copied()));
    });
    m.put(
        "storage.router_group_ns_per_key",
        ns / batch.len() as f64,
        "ns",
    );

    // 2 500 keys: one shard's share of the 10 000-key workloads, all
    // inside the memtable.
    let mut kv = MiniKv::new(DEFAULT_MEMTABLE_LIMIT);
    let keys: Vec<u64> = (0..2_500).map(|_| rng.next_u64() >> 40).collect();
    for &k in &keys {
        kv.put(k, k);
    }
    let mut at = 0;
    let ns = spin(tr, "storage.memtable_get", input.budget, 1024, || {
        at = (at + 1) % keys.len();
        black_box(kv.get_memtable(keys[at]));
    });
    m.put("storage.memtable_get_ns", ns, "ns");
}

/// One `deep_read` shard: 250 000 keys frozen into runs behind an
/// 8 192-block LRU.
fn storage_deep(input: &ProbeInput<'_>, tr: &mut Tracer, m: &mut Metrics) {
    let router = ShardRouter::new(DEEP_SHARDS);
    let shard_keys: Vec<u64> = (0..DEEP_KEYS).filter(|&k| router.route(k) == 0).collect();
    let mut kv = MiniKv::new(DEFAULT_MEMTABLE_LIMIT);
    let mut slowest = Duration::ZERO;
    let (id, ()) = tr.time("storage.put", None, 0, shard_keys.len() as u64, || {
        for &k in &shard_keys {
            let t = Instant::now();
            kv.put(k, initial_value(input.seed, k));
            slowest = slowest.max(t.elapsed());
        }
    });
    let (ns, n) = tr.span(id);
    // Includes the two clock reads that find the slowest put.
    m.put("storage.put_ns", ns as f64 / n as f64, "ns");
    m.put("storage.freeze_stall_ms", slowest.as_secs_f64() * 1e3, "ms");

    // Uniform GETs over the shard's keys, as deep_read sends them.
    let mut rng = SplitMix64::new(input.seed ^ 3);
    let gets: Vec<u64> = (0..1 << 16)
        .map(|_| shard_keys[rng.below(shard_keys.len() as u64) as usize])
        .collect();
    let mut cache = SimpleLru::new(DEFAULT_CACHE_BLOCKS);
    let mut at = 0;
    let ns = spin(tr, "storage.runs_get", input.budget, 1024, || {
        at = (at + 1) % gets.len();
        black_box(kv.get_runs(gets[at], &mut cache, 0));
    });
    m.put("storage.runs_get_ns", ns, "ns");
    m.put(
        "storage.lru_miss_ratio",
        cache.stats().miss_ratio(),
        "ratio",
    );

    // The block ids those lookups present to the cache (`get_runs`
    // numbers a block by run and key / 64), without the run search.
    let runs = kv.run_count().max(1) as u64;
    let blocks: Vec<u32> = gets
        .iter()
        .map(|&k| ((rng.below(runs) as u32) << 24) | ((k as u32 & 0x00FF_FFFF) / 64))
        .collect();
    let mut cache = SimpleLru::new(DEFAULT_CACHE_BLOCKS);
    let ns = spin(tr, "storage.lru_lookup", input.budget, 1024, || {
        at = (at + 1) % blocks.len();
        black_box(cache.lookup_or_insert(blocks[at], 0));
    });
    m.put("storage.lru_lookup_ns", ns, "ns");
}

/// Record encoding, and group commits on a real file in the data dir.
fn wal(input: &ProbeInput<'_>, tr: &mut Tracer, m: &mut Metrics) -> std::io::Result<()> {
    let mut rng = SplitMix64::new(input.seed ^ 4);
    let group: Vec<(u64, u64)> = (0..WAL_GROUP)
        .map(|_| (rng.below(10_000), rng.next_u64() >> 32))
        .collect();
    let mut buf = Vec::new();
    let ns = spin(tr, "storage.wal_encode", input.budget, 256, || {
        buf.clear();
        encode_record(&mut buf, black_box(&group));
        black_box(&buf);
    });
    m.put(
        "storage.wal_encode_ns_per_pair",
        ns / WAL_GROUP as f64,
        "ns",
    );

    std::fs::create_dir_all(input.scratch)?;
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(input.scratch.join("probe.wal"))?;
    let mut log = ShardWal::new(Box::new(FileWalIo::new(file)));
    let mut lat: Vec<Sample> = Vec::with_capacity(WAL_APPENDS);
    let end = Instant::now() + 8 * input.budget;
    while lat.len() < WAL_APPENDS && Instant::now() < end {
        let (id, result) = tr.time("storage.wal_append", None, 0, 1, || {
            log.append_group(&group)
        });
        result?;
        lat.push(Sample {
            lat_ns: tr.span(id).0,
            n: 1,
            slice: 0,
        });
    }
    lat.sort_unstable_by_key(|s| s.lat_ns);
    let us = |q: f64| percentile_ns(&lat, q).expect("at least one append") as f64 / 1e3;
    m.put("storage.wal_append_us_p50", us(0.50), "us");
    m.put("storage.wal_append_us_p99", us(0.99), "us");
    Ok(())
}

/// `STATS` never appears in a replayed batch, so admission counters
/// are never asked for.
struct NoAdmission;

impl AdmissionStats for NoAdmission {
    fn admission_snapshot(&self) -> AdmissionSnapshot {
        AdmissionSnapshot::default()
    }
}

/// Loads every key's preload value the way the set-up does: 512-pair
/// `MSET`s, the connections' key ranges interleaved.
fn preload(store: &ShardedKv, seed: u64, keys: u64) {
    let mut next: [u64; CONNS] = std::array::from_fn(|c| c as u64);
    while next.iter().any(|&k| k < keys) {
        for n in &mut next {
            let pairs: Vec<(u64, u64)> = (0..MSET_PAIRS as u64)
                .map(|i| *n + i * CONNS as u64)
                .take_while(|&k| k < keys)
                .map(|k| (k, initial_value(seed, k)))
                .collect();
            *n += (MSET_PAIRS * CONNS) as u64;
            if !pairs.is_empty() {
                store.mset(&pairs).expect("memory-only store never refuses");
            }
        }
    }
}

/// Replays the workload's own request stream, window by window, through
/// parse, `KvService::apply_batch` and `ShardedKv::execute_batch`.
///
/// `apply_batch` calls `execute_batch` internally, where no span can
/// be placed from outside; so the two are timed on twin stores fed
/// identical ops, and the storage span is recorded as the child of the
/// service span of the same batch. Both twins are memory-only: this is
/// CPU cost, the WAL has its own probes.
fn replay(input: &ProbeInput<'_>, tr: &mut Tracer, m: &mut Metrics) {
    let build = || {
        let store = ShardedKv::new(input.shards, DEFAULT_MEMTABLE_LIMIT, DEFAULT_CACHE_BLOCKS);
        preload(&store, input.seed, input.traffic.keys);
        store
    };
    // Two builds on two threads: never more threads than the 2 CPUs
    // of the reference host.
    let (storage_twin, service_twin) = std::thread::scope(|s| {
        let a = s.spawn(build);
        let b = build();
        (
            a.join().expect("twin build panicked"),
            KvService::from_store(b),
        )
    });

    let window = input.traffic.depth;
    let mut out = String::new();
    let end = Instant::now() + 4 * input.budget;
    let mut ops_replayed = 0u64;
    for batch_no in 0..REPLAY_BATCHES {
        if Instant::now() >= end {
            break;
        }
        // Windows rotate over the connections' streams.
        let stream = &input.streams[batch_no % CONNS];
        let from = (batch_no / CONNS) * window;
        let lines = stream.script.requests(from, from + window);
        let lines = std::str::from_utf8(lines).expect("scripts are ASCII");
        let batch_id = batch_no as u64 + 1;
        let (_, parsed) = tr.time("pool.parse", None, batch_id, window as u64, || {
            lines.lines().map(Parsed::from_line).collect::<Vec<_>>()
        });
        out.clear();
        let (apply, ()) = tr.time("pool.apply_batch", None, batch_id, window as u64, || {
            service_twin.apply_batch(&parsed, &NoAdmission, &mut out);
        });
        let ops: Vec<BatchOp<'_>> = stream.ops[from..from + window]
            .iter()
            .map(|op| match *op {
                Op::Get(k) => BatchOp::Get(k),
                Op::Put(k, v) => BatchOp::Put(k, v),
            })
            .collect();
        tr.time(
            "storage.execute_batch",
            Some(apply),
            batch_id,
            window as u64,
            || black_box(storage_twin.execute_batch(&ops)),
        );
        // The twin's replies are the script's expected replies.
        let expect: Vec<u8> = (from..from + window)
            .flat_map(|i| stream.script.reply(i).to_vec())
            .collect();
        assert_eq!(out.as_bytes(), expect, "replayed batch {batch_no} diverged");
        ops_replayed += window as u64;
    }
    let per_op = |ns: u64| ns as f64 / ops_replayed as f64;
    m.put(
        "pool.parse_ns_per_req",
        per_op(tr.total("pool.parse").0),
        "ns",
    );
    m.put(
        "pool.apply_batch_ns_per_op",
        per_op(tr.total("pool.apply_batch").0),
        "ns",
    );
    m.put(
        "pool.kv_self_ns_per_op",
        per_op(tr.self_ns("pool.apply_batch")),
        "ns",
    );
    m.put(
        "storage.execute_batch_ns_per_op",
        per_op(tr.total("storage.execute_batch").0),
        "ns",
    );
}

/// Submit a no-op to a crew sized like the server's and wait for it,
/// through the same per-batch channel the connection reader uses.
fn crew(input: &ProbeInput<'_>, tr: &mut Tracer, m: &mut Metrics) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let acs = SERVER_WORKERS.min(cpus).min(input.shards).max(1);
    let crew =
        WorkCrew::new(PoolConfig::malthusian(SERVER_WORKERS, SERVER_QUEUE).with_acs_target(acs));
    let ns = spin(tr, "pool.crew_roundtrip", input.budget, 16, || {
        let (tx, rx) = mpsc::channel();
        crew.submit(move || {
            let _ = tx.send(());
        })
        .expect("crew is running");
        rx.recv().expect("task ran");
    });
    crew.shutdown();
    m.put("pool.crew_roundtrip_us", ns / 1e3, "us");
}

/// Echoes every complete line back.
struct Echo;

impl Handler for Echo {
    type Conn = ();

    fn on_open(&self, _stream: &TcpStream) {}

    fn on_data(&self, _conn: &mut (), read_buf: &mut Vec<u8>, write_buf: &mut Vec<u8>) -> Action {
        if let Some(last_nl) = read_buf.iter().rposition(|&b| b == b'\n') {
            write_buf.extend(read_buf.drain(..=last_nl));
        }
        Action::Continue
    }

    fn on_close(&self, _conn: &mut (), _reason: CloseReason) {}
}

/// One chunk out, the same bytes back.
fn echo_roundtrip(stream: &mut TcpStream, chunk: &[u8], back: &mut [u8]) {
    stream.write_all(chunk).expect("echo write");
    stream.read_exact(back).expect("echo read");
}

/// A 16-line window echoed by the reactor against a plain blocking
/// thread: what readiness dispatch costs per batch.
fn net(input: &ProbeInput<'_>, tr: &mut Tracer, m: &mut Metrics) -> std::io::Result<()> {
    let chunk = input.streams[0].script.requests(0, ECHO_LINES).to_vec();
    let mut back = vec![0u8; chunk.len()];
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let cfg = ReactorConfig::malthusian(SERVER_WORKERS).with_acs_target(cpus.min(input.shards));
    let reactor = Reactor::start(listener, Echo, cfg)?;
    let mut client = TcpStream::connect(addr)?;
    client.set_nodelay(true)?;
    let ns = spin(tr, "net.reactor_echo_batch", input.budget, 16, || {
        echo_roundtrip(&mut client, &chunk, &mut back);
    });
    drop(client);
    reactor.join();
    m.put("net.reactor_echo_batch_us", ns / 1e3, "us");

    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let ns = std::thread::scope(|s| -> std::io::Result<f64> {
        s.spawn(move || {
            let Ok((mut peer, _)) = listener.accept() else {
                return;
            };
            let _ = peer.set_nodelay(true);
            let mut buf = [0u8; 4096];
            while let Ok(n) = peer.read(&mut buf) {
                if n == 0 || peer.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        });
        let mut client = TcpStream::connect(addr)?;
        client.set_nodelay(true)?;
        Ok(spin(
            tr,
            "net.blocking_echo_batch",
            input.budget,
            16,
            || {
                echo_roundtrip(&mut client, &chunk, &mut back);
            },
        ))
        // Dropping `client` here ends the echo thread.
    })?;
    m.put("net.blocking_echo_batch_us", ns / 1e3, "us");
    Ok(())
}

fn obs_metrics_fault(input: &ProbeInput<'_>, tr: &mut Tracer, m: &mut Metrics) {
    let service =
        KvService::with_shards(input.shards, DEFAULT_MEMTABLE_LIMIT, DEFAULT_CACHE_BLOCKS);
    let mut id = 0u64;
    let ns = spin(tr, "obs.span_finish", input.budget, 256, || {
        id += 1;
        let mut span = SpanContext::start(id, 8);
        for stage in Stage::ALL {
            span.add(stage, 100 + id % 1_000);
        }
        service.finish_span(&mut span);
    });
    m.put("obs.span_finish_ns_per_batch", ns, "ns");
    let ns = spin(tr, "obs.exposition", input.budget, 4, || {
        black_box(service.registry().exposition());
    });
    m.put("obs.exposition_us", ns / 1e3, "us");

    let hist = LatencyHistogram::new();
    let mut x = input.seed | 1;
    let ns = spin(tr, "metrics.hist_record", input.budget, 1024, || {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        hist.record_ns(x >> 44);
    });
    m.put("metrics.hist_record_ns", ns, "ns");

    let ns = spin(tr, "fault.disarmed_check", input.budget, 1024, || {
        black_box(malthus_fault::fire(black_box(
            malthus_fault::Site::StorageFsync,
        )));
    });
    m.put("fault.disarmed_check_ns", ns, "ns");
}
