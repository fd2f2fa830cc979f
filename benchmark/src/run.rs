//! One run of one workload: set-up, the timed window against the real
//! server, the crash read-back, and — in a traced run — the scrapes
//! and probes behind the per-layer metrics.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use malthus_pool::KvClient;

use crate::affinity::OneCpu;
use crate::client::{drive, Clock, ConnReport, Plan};
use crate::probes::{self, Metrics, ProbeInput};
use crate::scrape::{self, Exposition, ProcSample};
use crate::server::Server;
use crate::stats::{median, percentile_ns, Sample};
use crate::stream::{
    conn_stream, crash_survivors, preload_script, stream_hash, ConnStream, Script, CONNS,
    MSET_PAIRS,
};
use crate::trace::Tracer;
use crate::{Workload, SERVER_QUEUE};

/// Everything under here is the benchmark's to create and delete.
pub const OUT_DIR: &str = "benchmark/out";
/// Slices the measured window is cut into; every end-to-end metric is
/// the median over them, so one host stall moves one slice, not the
/// result.
const SLICES: u32 = 100;
/// Pipeline depth of the preload's `MSET` lines.
const PRELOAD_DEPTH: usize = 8;

/// How long each phase of a run lasts.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub warmup: Duration,
    pub window: Duration,
    /// Budget of each probe's timed loop (traced runs).
    pub probe: Duration,
}

/// What a run is asked to do.
#[derive(Debug)]
pub struct RunSpec<'a> {
    pub workload: &'a Workload,
    pub seed: u64,
    pub timing: Timing,
    pub traced: bool,
    pub server_bin: &'a Path,
}

/// What a run found.
#[derive(Debug)]
pub struct Outcome {
    /// `(name, value, unit)`: the end-to-end metrics of an untraced
    /// run, the per-layer metrics of a traced one.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The values each end-to-end metric is the median of: one per
    /// window slice, or per set-up repetition.
    pub series: Vec<(&'static str, Vec<f64>)>,
    /// Reference numbers that are not part of the contract: the
    /// whole-window figures beside the slice medians.
    pub notes: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub stream_hash: u64,
    pub server_flags: Vec<String>,
    /// The CPU the server and the load thread were confined to.
    pub pinned_cpu: Option<usize>,
    pub data_fs: String,
    pub build_info: String,
}

fn io<T>(r: std::io::Result<T>, what: &str) -> Result<T, String> {
    r.map_err(|e| format!("{what}: {e}"))
}

fn sleep_until(t: Instant) {
    std::thread::sleep(t.saturating_duration_since(Instant::now()));
}

/// The flags one server of `w` boots with.
fn server_flags(w: &Workload, data_dir: Option<&Path>) -> Vec<String> {
    let mut f = vec![
        "--shards".to_string(),
        w.shards.to_string(),
        "--workers".to_string(),
        w.workers.to_string(),
        "--queue".to_string(),
        SERVER_QUEUE.to_string(),
    ];
    if w.reactor {
        f.push("--async".to_string());
    }
    match data_dir {
        Some(d) => {
            f.push("--data-dir".to_string());
            f.push(d.display().to_string());
        }
        None => f.push("--no-wal".to_string()),
    }
    f
}

/// A booted, preloaded server with the load connections open.
struct Ready {
    server: Server,
    conns: Vec<TcpStream>,
    flags: Vec<String>,
    /// Spawn to ready: boot, data-dir creation and preload.
    secs: f64,
    preload: Vec<ConnReport>,
}

fn connect(server: &Server) -> Result<TcpStream, String> {
    let s = io(TcpStream::connect(server.addr()), "connect")?;
    io(s.set_nodelay(true), "set_nodelay")?;
    Ok(s)
}

/// Boots a server and preloads every key over the load connections,
/// each loading the keys it owns.
fn set_up(
    spec: &RunSpec<'_>,
    preloads: &[Script],
    data_dir: Option<&Path>,
    log: &Path,
) -> Result<Ready, String> {
    let flags = server_flags(spec.workload, data_dir);
    let start = Instant::now();
    let server = io(
        Server::spawn(spec.server_bin, &flags, log),
        "spawn kv_server",
    )?;
    let conns = (0..CONNS)
        .map(|_| connect(&server))
        .collect::<Result<Vec<_>, _>>()?;
    let scripts: Vec<&Script> = preloads.iter().collect();
    let never = AtomicBool::new(false);
    let preload = drive(&conns, &scripts, PRELOAD_DEPTH, Plan::Once, &never);
    Ok(Ready {
        server,
        conns,
        flags,
        secs: start.elapsed().as_secs_f64(),
        preload,
    })
}

/// Counters scraped from the server around the traced window.
struct Scrape {
    metrics: Exposition,
    stats: std::collections::BTreeMap<String, u64>,
    proc: ProcSample,
}

fn scrape_server(control: &mut KvClient, pid: u32) -> Result<Scrape, String> {
    let stats = scrape::parse_stats(io(control.roundtrip("STATS"), "STATS")?);
    let metrics = Exposition::parse(&io(control.fetch_document("METRICS"), "METRICS")?);
    let proc = io(scrape::proc_sample(&pid.to_string()), "/proc sample")?;
    Ok(Scrape {
        metrics,
        stats,
        proc,
    })
}

/// Total bytes of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Boots a server with `flags` and times spawn → first `PONG`.
fn boot_to_pong(
    spec: &RunSpec<'_>,
    flags: &[String],
    log: &Path,
) -> Result<(Server, KvClient, f64), String> {
    let start = Instant::now();
    let server = io(
        Server::spawn(spec.server_bin, flags, log),
        "respawn kv_server",
    )?;
    let mut control = io(server.control(), "control connect")?;
    let pong = io(control.roundtrip("PING"), "PING")?;
    if pong != "PONG" {
        return Err(format!("PING answered {pong:?}"));
    }
    Ok((server, control, start.elapsed().as_secs_f64()))
}

/// After the crash: every key must hold its last acknowledged value
/// or one sent later. Returns the keys that hold anything else.
fn read_back(
    control: &mut KvClient,
    spec: &RunSpec<'_>,
    streams: &[ConnStream],
    reports: &[ConnReport],
) -> Result<u64, String> {
    let keys = spec.workload.traffic.keys;
    let survivors: Vec<Vec<Vec<u64>>> = (0..CONNS)
        .map(|c| {
            let r = &reports[c];
            crash_survivors(spec.seed, c, keys, &streams[c], r.answered, r.sent)
        })
        .collect();
    let mut wrong = 0u64;
    let all: Vec<u64> = (0..keys).collect();
    for chunk in all.chunks(MSET_PAIRS) {
        let mut req = String::from("MGET");
        for k in chunk {
            req.push_str(&format!(" {k}"));
        }
        let reply = io(control.roundtrip(&req), "MGET read-back")?;
        let mut words = reply.split_ascii_whitespace();
        if words.next() != Some("VALS") {
            return Err(format!("read-back answered {reply:?}"));
        }
        for &k in chunk {
            let got = words.next().and_then(|w| w.parse::<u64>().ok());
            let ok = &survivors[(k % CONNS as u64) as usize][(k / CONNS as u64) as usize];
            if !got.is_some_and(|v| ok.contains(&v)) {
                wrong += 1;
            }
        }
    }
    Ok(wrong)
}

/// Runs one workload once.
pub fn run(spec: &RunSpec<'_>) -> Result<Outcome, String> {
    let w = spec.workload;
    let out = Path::new(OUT_DIR);
    io(std::fs::create_dir_all(out.join("data")), "create out dir")?;
    let run_tag = format!(
        "{}-{}-{}-{}",
        w.name,
        spec.seed,
        u8::from(spec.traced),
        std::process::id()
    );
    let log = out.join(format!("server_{}.log", w.name));
    let data_root = out.join("data").join(&run_tag);
    let _cleanup = CleanUp(data_root.clone());

    // Inputs: rendered before any clock starts, one thread per stream.
    let (streams, preloads): (Vec<ConnStream>, Vec<Script>) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                s.spawn(move || {
                    (
                        conn_stream(spec.seed, c, w.traffic),
                        preload_script(spec.seed, c, w.traffic.keys),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("render thread panicked"))
            .unzip()
    });
    let hash = stream_hash(&streams);

    let mut tally = Tally::default();

    // From here to the server's exit, whatever this thread starts —
    // the server, the load thread — inherits its CPU mask.
    let pinned = if w.one_cpu {
        Some(io(OneCpu::pin(), "pin to one CPU")?)
    } else {
        None
    };

    // Set-up, repeated so `setup_s` is a median; the last one serves
    // the run. A traced run reports no set-up time and sets up once.
    let reps = if spec.traced { 1 } else { w.setup_reps };
    let mut setup_secs = Vec::new();
    let mut ready: Option<(Ready, Option<PathBuf>)> = None;
    for rep in 0..reps {
        if let Some((discarded, _)) = ready.take() {
            discarded.server.kill();
        }
        let dir = w.durable.then(|| data_root.join(format!("rep{rep}")));
        let r = set_up(spec, &preloads, dir.as_deref(), &log)?;
        tally.add(&r.preload);
        setup_secs.push(r.secs);
        ready = Some((r, dir));
    }
    let (ready, data_dir) = ready.expect("at least one set-up");
    let Ready {
        server,
        conns,
        flags,
        ..
    } = ready;
    let data_fs = scrape::fs_type(data_dir.as_deref().unwrap_or(out));
    let pid = server.pid();
    let mut control = io(server.control(), "control connect")?;

    // The timed part.
    let clock = Clock {
        t0: Instant::now(),
        warmup: spec.timing.warmup,
        slice: spec.timing.window / SLICES,
        slices: SLICES,
    };
    let plan = if w.durable {
        Plan::UntilKilled(clock)
    } else {
        Plan::Window(clock)
    };
    let killed = AtomicBool::new(false);
    // The load thread stays alive until the last /proc reading is
    // taken: a thread that has exited takes its CPU counter with it.
    let sampling_done = AtomicBool::new(false);
    let mut server_cpu = Vec::new();
    let mut gen_cpu = Vec::new();
    let mut scrapes = Vec::new();
    let mut server = Some(server);
    let scripts: Vec<&Script> = streams.iter().map(|s| &s.script).collect();
    let mut reports: Vec<ConnReport> = std::thread::scope(|s| -> Result<_, String> {
        let (killed, sampling_done) = (&killed, &sampling_done);
        let (conns, scripts) = (&conns, &scripts);
        let load = s.spawn(move || {
            let reports = drive(conns, scripts, w.traffic.depth, plan, killed);
            while !sampling_done.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            reports
        });
        // This thread only sleeps and reads /proc at slice boundaries.
        let sampled = (|| -> Result<(), String> {
            for i in 0..=SLICES {
                sleep_until(clock.slice_start(i));
                server_cpu.push(io(
                    scrape::proc_cpu_ns(&pid.to_string()),
                    "server schedstat",
                )?);
                gen_cpu.push(io(scrape::proc_cpu_ns("self"), "own schedstat")?);
                if spec.traced && (i == 0 || i == SLICES) {
                    scrapes.push(scrape_server(&mut control, pid)?);
                }
            }
            Ok(())
        })();
        // Crash; or, on a sampling error, make sure the load thread ends.
        if w.durable || sampled.is_err() {
            killed.store(true, Ordering::SeqCst);
            if let Some(server) = server.take() {
                server.kill();
            }
        }
        sampling_done.store(true, Ordering::SeqCst);
        let reports = load.join().expect("load thread panicked");
        sampled.map(|()| reports)
    })?;
    drop(conns);
    tally.add(&reports);

    // Restart: the crash read-back (durable) and the recovery probe.
    let mut m = Metrics::default();
    let mut notes = Vec::new();
    let mut build_info = String::new();
    let mut series = Vec::new();
    if w.durable || spec.traced {
        if let Some(server) = server.take() {
            server.shutdown();
        }
        let wal_bytes = data_dir.as_deref().map_or(0, dir_bytes);
        let (server, mut control, secs) = boot_to_pong(spec, &flags, &log)?;
        if w.durable {
            let wrong = read_back(&mut control, spec, &streams, &reports)?;
            tally.attempted += w.traffic.keys;
            tally.failed += wrong;
            if wrong > 0 {
                tally
                    .errors
                    .push(format!("{wrong} keys lost an acknowledged write"));
            }
        }
        if spec.traced {
            m.put("storage.recovery_s", secs, "s");
            let mib = wal_bytes as f64 / (1u64 << 20) as f64;
            m.put("storage.recovery_mib_per_s", mib / secs, "MiB/s");
        }
        server.shutdown();
    } else if let Some(server) = server.take() {
        server.shutdown();
    }

    let pinned_cpu = pinned.map(|p| p.cpu);

    let window_secs = spec.timing.window.as_secs_f64();
    let slice_secs = window_secs / f64::from(SLICES);
    let window_ops: u64 = reports.iter().flat_map(|r| &r.ok_per_slice).sum();
    if window_ops == 0 {
        return Err(format!(
            "no verified reply in the window: {:?}",
            tally.errors
        ));
    }
    let mut samples: Vec<Sample> = reports
        .iter_mut()
        .flat_map(|r| std::mem::take(&mut r.samples))
        .collect();
    samples.sort_unstable_by_key(|s| s.lat_ns);
    // Never called on an empty slice: the window has verified replies.
    let pct_us =
        |of: &[Sample], q: f64| percentile_ns(of, q).expect("samples are not empty") as f64 / 1e3;

    if spec.traced {
        let [before, after] = &scrapes[..] else {
            return Err("traced run without its two scrapes".to_string());
        };
        build_info = after
            .metrics
            .series_of("kv_build_info")
            .unwrap_or("kv_build_info absent")
            .to_string();
        server_side(&mut m, before, after);
        let gen_ns = (gen_cpu[SLICES as usize] - gen_cpu[0]) as f64;
        let per_conn: Vec<u64> = reports
            .iter()
            .map(|r| r.ok_per_slice.iter().sum())
            .collect();
        let (min, max) = (
            *per_conn.iter().min().expect("at least one connection"),
            *per_conn.iter().max().expect("at least one connection"),
        );
        m.put("client.latency_p999_us", pct_us(&samples, 0.999), "us");
        m.put("client.conn_ops_ratio", min as f64 / max as f64, "ratio");
        m.put(
            "client.gen_cpu_us_per_op",
            gen_ns / 1e3 / window_ops as f64,
            "us",
        );
        notes.push((
            "traced.throughput_ops_s",
            window_ops as f64 / window_secs,
            "1/s",
        ));

        let mut tracer = Tracer::new();
        let scratch = data_root.join("probe");
        let input = ProbeInput {
            streams: &streams,
            traffic: w.traffic,
            shards: w.shards,
            seed: spec.seed,
            budget: spec.timing.probe,
            scratch: &scratch,
        };
        io(probes::run_all(&input, &mut tracer, &mut m), "layer probes")?;
        let trace_path = out.join(format!("trace_{}.jsonl", w.name));
        io(tracer.write_jsonl(&trace_path), "write span file")?;
    } else {
        let cpu_ns = (server_cpu[SLICES as usize] - server_cpu[0]) as f64;
        notes.extend([
            (
                "window.throughput_ops_s",
                window_ops as f64 / window_secs,
                "1/s",
            ),
            ("window.latency_p50_us", pct_us(&samples, 0.50), "us"),
            ("window.latency_p99_us", pct_us(&samples, 0.99), "us"),
            ("window.latency_p999_us", pct_us(&samples, 0.999), "us"),
            (
                "window.server_cpu_us_per_op",
                cpu_ns / 1e3 / window_ops as f64,
                "us",
            ),
        ]);
        // One value per slice, then the median over slices.
        samples.sort_unstable_by_key(|s| (s.slice, s.lat_ns));
        let mut thr = Vec::new();
        let mut p50 = Vec::new();
        let mut p99 = Vec::new();
        let mut cpu = Vec::new();
        for of_slice in samples.chunk_by(|a, b| a.slice == b.slice) {
            let i = of_slice[0].slice as usize;
            let ops: u64 = of_slice.iter().map(|s| u64::from(s.n)).sum();
            thr.push(ops as f64 / slice_secs);
            p50.push(pct_us(of_slice, 0.50));
            p99.push(pct_us(of_slice, 0.99));
            cpu.push((server_cpu[i + 1] - server_cpu[i]) as f64 / 1e3 / ops as f64);
        }
        let mid = |v: &[f64]| median(v).expect("window has replies");
        m.put("throughput_ops_s", mid(&thr), "1/s");
        m.put("latency_p50_us", mid(&p50), "us");
        m.put("latency_p99_us", mid(&p99), "us");
        m.put("server_cpu_us_per_op", mid(&cpu), "us");
        m.put("setup_s", mid(&setup_secs), "s");
        series = vec![
            ("throughput_ops_s", thr),
            ("latency_p50_us", p50),
            ("latency_p99_us", p99),
            ("server_cpu_us_per_op", cpu),
            ("setup_s", setup_secs),
        ];
    }

    Ok(Outcome {
        metrics: m.0,
        series,
        notes,
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        stream_hash: hash,
        server_flags: flags,
        pinned_cpu,
        data_fs,
        build_info,
    })
}

/// Replies checked and replies failed, over every connection a run
/// opened: preload, warm-up, window and read-back alike.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn add(&mut self, reports: &[ConnReport]) {
        for r in reports {
            // A connection that failed also failed what it had in flight.
            let unanswered = r
                .error
                .as_ref()
                .map_or(0, |_| r.sent.saturating_sub(r.answered));
            self.attempted += r.answered + unanswered;
            self.failed += r.failed;
            self.errors.extend(r.first_wrong.clone());
            self.errors.extend(r.error.clone());
        }
    }
}

/// Removes the run's data directory on every way out of [`run`].
struct CleanUp(PathBuf);

impl Drop for CleanUp {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Per-layer metrics from counters the server already exports, as
/// deltas over the traced window, per operation the server counted in
/// the same window.
fn server_side(m: &mut Metrics, before: &Scrape, after: &Scrape) {
    let stat = |k: &str| (after.stats[k] - before.stats[k]) as f64;
    let sum = |name: &str| after.metrics.sum(name) - before.metrics.sum(name);
    let get = |name: &str| after.metrics.get(name) - before.metrics.get(name);
    let stage = |s: &str| after.metrics.stage_ns(s) - before.metrics.stage_ns(s);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let ops = stat("reads") + stat("writes");
    let puts = stat("writes");
    let batches = get("kv_pipeline_batch_size_count");

    let mut staged = 0.0;
    for (name, s) in [
        ("pool.stage_read_ns_per_op", "read"),
        ("pool.stage_queue_ns_per_op", "queue"),
        ("core.stage_lock_wait_ns_per_op", "lock_wait"),
        ("core.stage_cull_wait_ns_per_op", "cull_wait"),
        ("storage.stage_exec_ns_per_op", "exec"),
        ("storage.stage_wal_fsync_ns_per_op", "wal_fsync"),
        ("pool.stage_flush_ns_per_op", "flush"),
    ] {
        let v = ratio(stage(s), ops);
        staged += v;
        m.put(name, v, "ns");
    }
    m.put(
        "pool.batch_size_mean",
        ratio(get("kv_pipeline_batch_size_sum"), batches),
        "count",
    );
    m.put(
        "pool.crew_culls_per_kbatch",
        ratio(get("crew_culls_total") * 1e3, batches),
        "1/k",
    );
    m.put(
        "net.epoll_waits_per_batch",
        ratio(get("kv_epoll_waits_total"), batches),
        "count",
    );
    m.put(
        "net.reactor_culls_per_kbatch",
        ratio(get("kv_reactor_culls_total") * 1e3, batches),
        "1/k",
    );
    m.put(
        "rwlock.reader_culls_per_kop",
        ratio(sum("lock_reader_culls_total") * 1e3, ops),
        "1/k",
    );
    m.put(
        "rwlock.write_episodes_per_put",
        ratio(sum("lock_write_episodes_total"), puts),
        "count",
    );
    m.put(
        "storage.fsyncs_per_put",
        ratio(stat("wal_syncs"), puts),
        "count",
    );
    m.put(
        "storage.wal_bytes_per_put",
        ratio(sum("kv_shard_wal_bytes_total"), puts),
        "B",
    );

    let (p0, p1) = (&before.proc, &after.proc);
    let cpu_ns_per_op = ratio((p1.cpu_ns - p0.cpu_ns) as f64, ops);
    m.put(
        "proc.vol_ctx_switches_per_op",
        ratio((p1.vol_ctx - p0.vol_ctx) as f64, ops),
        "count",
    );
    m.put(
        "proc.invol_ctx_switches_per_op",
        ratio((p1.invol_ctx - p0.invol_ctx) as f64, ops),
        "count",
    );
    m.put("proc.rss_mib", p1.rss_kib as f64 / 1024.0, "MiB");
    m.put("proc.threads", p1.threads as f64, "count");
    m.put("proc.server_cpu_ns_per_op", cpu_ns_per_op, "ns");
    // What the server's own stage clocks do not explain. Stages are
    // wall time and include waiting, so this may be negative.
    m.put("proc.unattributed_ns_per_op", cpu_ns_per_op - staged, "ns");
}
