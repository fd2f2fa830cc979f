//! `kv_server` — the Malthusian KV service over TCP.
//!
//! Serves the line protocol of [`malthus_pool::kv`] with request
//! execution admitted by a concurrency-restricting [`WorkCrew`] — a
//! cheap batch is applied on its connection thread under an ACS place
//! the crew lends it (and flushed once the place is returned), a dear
//! one is queued to a crew worker; the exit report's
//! `crew_inline_total` counts the former and `crew_enter_refused_total`
//! the cheap ones that asked for a place and found none idle — over a
//! sharded store: `--shards N` gives each of N shards its own
//! Malthusian RW-CR DB lock and block-cache lock, so admission is per
//! shard. Runs until a client sends `SHUTDOWN` or the
//! process receives `SIGTERM`; either way the server stops accepting,
//! drains in-flight batches, final-fsyncs every healthy shard and stamps a
//! clean-shutdown marker in the data dir's `MANIFEST` (reported by
//! the recovery banner on the next boot). Its exit report on stderr is
//! the final `STATS` line and the `METRICS` exposition — the registry
//! both front-ends' admission counters are in. On a durable store a
//! background healer probes read-only (poisoned) shards with capped
//! jittered exponential backoff and flips them writable when their
//! WAL answers an fsync again.
//!
//! Flags (the only way to configure the server; nothing is read from
//! the environment):
//!
//! * `--addr <host:port>` — listen address (default `127.0.0.1:7878`).
//! * `--shards <n>` — shard count (default 1, the paper-faithful
//!   single hot lock pair).
//! * `--workers <n>` — crew size (default `4 × host CPUs`).
//! * `--queue <n>` — task-queue bound (default 256).
//! * `--unrestricted` — disable concurrency restriction (for A/B
//!   runs): the crew's ACS target, or under `--async` the reactor's
//!   polling ACS, is set to `--workers`. Nothing else changes: each
//!   shard's DB lock stays RW-CR and its cache lock MCSCR (widening
//!   the flag to them is an open ROADMAP direction).
//! * `--data-dir <path>` — durability root: per-shard group-committed
//!   WALs, replayed (and reported) at boot. Without it the store is
//!   memory-only.
//! * `--no-wal` — memory-only even if `--data-dir` is given.
//! * `--read-timeout-secs <n>` — per-connection idle read timeout
//!   (default off); timed-out connections are dropped and counted in
//!   `STATS idle_disconnects=`.
//! * `--trace-buf <n>` — enable the flight recorder with an `n`-event
//!   ring per thread (default off: the disabled record path is one
//!   relaxed load). While enabled, `TRACE DUMP` returns the merged
//!   event stream, and the server prints it to stderr on clean
//!   shutdown.
//! * `--trace-sample <n>` — record one event in `n` (default 1 =
//!   every event); only meaningful with `--trace-buf`.
//! * `--slowlog-threshold-us <n>` — batches whose end-to-end latency
//!   meets the threshold land in the `SLOWLOG` ring with a per-stage
//!   breakdown (default 10000 µs; 0 disables capture).
//! * `--no-spans` — turn the per-batch stage clocks off (`kv_stage_ns`
//!   and `SLOWLOG` stop collecting; the remaining cost is one relaxed
//!   load per instrumentation point).
//! * `--fault-plan <spec>` — arm the deterministic fault-injection
//!   layer (`malthus-fault`) for this process: e.g.
//!   `seed=7,storage.fsync=0.01x3,net.reset=0.001`. The effective seed
//!   is printed (`fault plan armed: seed=…`) so any run can be replayed
//!   exactly; injection counters are exposed as
//!   `kv_faults_injected_total{site=…}` via `METRICS`. A plan naming a
//!   `storage.*` site or `shard.stall` needs a `--data-dir`: a
//!   memory-only store has no WAL to fault.
//! * `--async` — serve through the readiness-driven reactor front-end
//!   (`malthus-net`) instead of a thread per connection: `--workers`
//!   reactor threads share one epoll instance with `epoll_wait`
//!   admission Malthusian-restricted to the same ACS target, and ready
//!   batches execute in place on the polling worker. Byte-identical
//!   protocol; idle connections cost a buffer pair instead of a
//!   thread, and `--read-timeout-secs` reaps them via the reactor's
//!   timer wheel.
//!
//! With restriction on, the crew's ACS target is
//! `min(workers, cpus, shards)` ([`malthus::policy::acs_target`], the
//! one sizing rule both front-ends use): one hot lock pair deserves one
//! circulating thread (more would just queue at the lock — the §6.5
//! situation), and each extra shard adds an independent admission
//! point that can keep one more thread usefully busy, up to the core
//! count. This sizing is writer-centric: readers *share* each shard's
//! RW-CR lock, so on a multi-core host a read-heavy single-shard
//! workload would profit from an ACS above the shard count — size
//! `--shards` toward the core count there, or pass `--unrestricted`;
//! the measure-and-adapt ACS the ROADMAP plans is the real fix.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use malthus_fault::Site;
use malthus_obs::SpanContext;
use malthus_pool::kv::{self, KvService, DEFAULT_SHARDS};
use malthus_pool::kv::{DEFAULT_CACHE_BLOCKS, DEFAULT_MEMTABLE_LIMIT};
use malthus_pool::server::{self, ServeOptions, DEFAULT_ADDR};
use malthus_pool::{serve_async, AsyncServeOptions, Parsed, PoolConfig, WorkCrew};
use malthus_storage::{spawn_healer, HealerConfig, ShardedKv, WalOptions};

/// Set (only) by the `SIGTERM` handler; a watcher thread turns it
/// into a normal [`ServerControl::stop`].
///
/// [`ServerControl::stop`]: malthus_pool::server::ServerControl::stop
static TERM_REQUESTED: AtomicBool = AtomicBool::new(false);

const SIGTERM: i32 = 15;

extern "C" {
    /// libc `signal(2)` — the one-liner FFI that keeps this std-only.
    fn signal(signum: i32, handler: usize) -> usize;
}

/// Async-signal-safe by construction: a single atomic store.
extern "C" fn on_sigterm(_signum: i32) {
    TERM_REQUESTED.store(true, Ordering::SeqCst);
}

struct Options {
    addr: String,
    shards: usize,
    workers: usize,
    queue: usize,
    unrestricted: bool,
    data_dir: Option<String>,
    no_wal: bool,
    read_timeout_secs: usize,
    trace_buf: usize,
    trace_sample: usize,
    slowlog_threshold_us: u64,
    no_spans: bool,
    r#async: bool,
    fault_plan: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: kv_server [--addr <host:port>] [--shards <n>] [--workers <n>] \
         [--queue <n>] [--unrestricted] [--data-dir <path>] [--no-wal] \
         [--read-timeout-secs <n>] [--trace-buf <n>] [--trace-sample <n>] \
         [--slowlog-threshold-us <n>] [--no-spans] [--async] \
         [--fault-plan <spec>]"
    );
    std::process::exit(2);
}

fn parse_args(cpus: usize) -> Options {
    let mut opts = Options {
        addr: DEFAULT_ADDR.to_string(),
        shards: DEFAULT_SHARDS,
        workers: 4 * cpus,
        queue: 256,
        unrestricted: false,
        data_dir: None,
        no_wal: false,
        // 0 means "no idle timeout".
        read_timeout_secs: 0,
        // 0 means "flight recorder off".
        trace_buf: 0,
        trace_sample: 1,
        // 0 means "slowlog capture off"; the default catches batches
        // at or above 10 ms end to end.
        slowlog_threshold_us: kv::DEFAULT_SLOWLOG_THRESHOLD_US,
        no_spans: false,
        r#async: false,
        fault_plan: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut positive = |name: &str| -> usize {
            let Some(v) = args.next().and_then(|v| v.parse().ok()).filter(|&v| v > 0) else {
                eprintln!("kv_server: {name} needs a positive integer");
                usage();
            };
            v
        };
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(a) => opts.addr = a,
                None => usage(),
            },
            "--shards" => opts.shards = positive("--shards"),
            "--workers" => opts.workers = positive("--workers"),
            "--queue" => opts.queue = positive("--queue"),
            "--unrestricted" => opts.unrestricted = true,
            "--data-dir" => match args.next() {
                Some(d) => opts.data_dir = Some(d),
                None => usage(),
            },
            "--no-wal" => opts.no_wal = true,
            "--read-timeout-secs" => opts.read_timeout_secs = positive("--read-timeout-secs"),
            "--trace-buf" => opts.trace_buf = positive("--trace-buf"),
            "--trace-sample" => opts.trace_sample = positive("--trace-sample"),
            // 0 is meaningful here (capture off), so this one does
            // not use the positive-integer helper.
            "--slowlog-threshold-us" => match args.next().and_then(|v| v.parse().ok()) {
                Some(us) => opts.slowlog_threshold_us = us,
                None => {
                    eprintln!("kv_server: --slowlog-threshold-us needs an integer (0 disables)");
                    usage();
                }
            },
            "--no-spans" => opts.no_spans = true,
            "--async" => opts.r#async = true,
            "--fault-plan" => match args.next() {
                Some(p) => opts.fault_plan = Some(p),
                None => usage(),
            },
            _ => usage(),
        }
    }
    if opts.no_wal {
        opts.data_dir = None;
    }
    opts
}

fn main() {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let opts = parse_args(cpus);

    // Arm fault injection once, before the store opens: the net sites
    // read the process-global state, and the store is opened with the
    // same instance, so one state counts every site.
    let faults = opts.fault_plan.as_ref().map(|spec| {
        let plan = match malthus_fault::FaultPlan::parse(spec) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("kv_server: bad --fault-plan: {e}");
                usage();
            }
        };
        let faults_the_store = |c: &&malthus_fault::Clause| {
            matches!(
                c.site,
                Site::StorageFsync
                    | Site::StorageShortWrite
                    | Site::StorageEnospc
                    | Site::ShardStall
            )
        };
        if let (None, Some(c)) = (&opts.data_dir, plan.clauses.iter().find(faults_the_store)) {
            eprintln!(
                "kv_server: --fault-plan arms {} but the store is memory-only: \
                 it needs --data-dir",
                c.site.name()
            );
            usage();
        }
        let faults = malthus_fault::install(&plan);
        // The replay line: paste this exact spec back into
        // `--fault-plan` to reproduce the schedule.
        eprintln!(
            "# kv_server: fault plan armed: {}",
            plan.render(faults.seed())
        );
        faults
    });

    // The same sizing whether the admitted resource is the crew's
    // task queue or the reactor's `epoll_wait`.
    let acs = if opts.unrestricted {
        opts.workers
    } else {
        malthus::policy::acs_target(opts.workers, opts.shards)
    };
    let cfg = if opts.unrestricted {
        PoolConfig::unrestricted(opts.workers, opts.queue)
    } else {
        PoolConfig::malthusian(opts.workers, opts.queue).with_acs_target(acs)
    };
    eprintln!(
        "# kv_server: {} front-end, {} shards, {} workers (ACS target {acs}), \
         queue bound {}, {cpus} host CPUs",
        if opts.r#async { "reactor" } else { "threaded" },
        opts.shards,
        opts.workers,
        opts.queue
    );

    if opts.trace_buf > 0 {
        malthus_obs::recorder::enable(opts.trace_buf, opts.trace_sample as u32);
        eprintln!(
            "# kv_server: flight recorder on: {} events/thread, 1-in-{} sampling",
            opts.trace_buf, opts.trace_sample
        );
    }

    if opts.no_spans {
        malthus_obs::span::set_enabled(false);
        eprintln!("# kv_server: span tracing off (--no-spans)");
    } else {
        eprintln!(
            "# kv_server: span tracing on, slowlog threshold {} µs{}",
            opts.slowlog_threshold_us,
            if opts.slowlog_threshold_us == 0 {
                " (capture off)"
            } else {
                ""
            }
        );
    }

    let service = match &opts.data_dir {
        Some(dir) => {
            let dir = std::path::Path::new(dir);
            let wal = WalOptions {
                faults: faults.clone(),
                ..WalOptions::default()
            };
            let (store, report) = ShardedKv::open_with(
                dir,
                opts.shards,
                DEFAULT_MEMTABLE_LIMIT,
                DEFAULT_CACHE_BLOCKS,
                wal,
            )
            .expect("open data dir");
            // The recovery banner: what the WALs gave back, and
            // whether the previous incarnation got to say goodbye
            // (the marker is consumed by the open, so a crash before
            // the next stamp reports unclean).
            eprintln!(
                "# kv_server: recovered {} pairs in {} records from {} \
                 (torn_tails={} bad_records={} checkpointed={}), \
                 previous shutdown: {}",
                report.pairs(),
                report.records(),
                dir.display(),
                report.torn_tails(),
                report.bad_records(),
                report.checkpointed(),
                if report.clean_marker {
                    "clean"
                } else {
                    "unclean (crash, kill, or first boot)"
                },
            );
            if report.bad_records() > 0 {
                eprintln!(
                    "# kv_server: WARNING: {} corrupt WAL record(s) — data \
                     past the first bad record was discarded",
                    report.bad_records()
                );
            }
            Arc::new(KvService::from_store(store))
        }
        None => {
            eprintln!("# kv_server: memory-only (no --data-dir): writes do not survive restart");
            Arc::new(KvService::with_shards(
                opts.shards,
                DEFAULT_MEMTABLE_LIMIT,
                DEFAULT_CACHE_BLOCKS,
            ))
        }
    };

    service.set_slowlog_threshold_us(opts.slowlog_threshold_us);

    // With faults armed, every site's injection counter joins the
    // unified registry so `METRICS` (and kvtop) can watch the chaos.
    if let Some(state) = &faults {
        for site in malthus_fault::SITES {
            let state = Arc::clone(state);
            service.registry().counter(
                "kv_faults_injected_total",
                "Faults injected at this site by the armed fault plan",
                &[("site", site.name())],
                move || state.injected(site),
            );
        }
    }

    let (listener, control) = server::bind(&opts.addr).expect("bind listen address");
    println!("listening on {}", control.addr());

    // SIGTERM → the same graceful path as the SHUTDOWN verb. The
    // handler only flips an atomic; this watcher does the real work
    // (ServerControl::stop self-connects, which a signal handler must
    // not), so kill(1), systemd and the chaos harness all get a drain
    // + final-fsync + clean-marker exit, not an abort.
    // SAFETY: `on_sigterm` is async-signal-safe (one atomic store)
    // and has the exact `extern "C" fn(i32)` shape signal(2) expects.
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
    {
        let control = control.clone();
        std::thread::Builder::new()
            .name("kv-sigterm".into())
            .spawn(move || loop {
                if TERM_REQUESTED.load(Ordering::SeqCst) {
                    eprintln!("# kv_server: SIGTERM: draining connections and shutting down");
                    control.stop();
                    break;
                }
                std::thread::sleep(Duration::from_millis(25));
            })
            .expect("spawn kv-sigterm watcher");
    }

    // The healer only matters when a WAL can poison a shard; a
    // memory-only store never goes read-only.
    let healer_stop = Arc::new(AtomicBool::new(false));
    let healer = opts.data_dir.is_some().then(|| {
        spawn_healer(
            service.store_arc(),
            Arc::clone(&healer_stop),
            HealerConfig::default(),
        )
    });

    let read_timeout =
        (opts.read_timeout_secs > 0).then(|| Duration::from_secs(opts.read_timeout_secs as u64));
    if opts.r#async {
        let async_opts = AsyncServeOptions {
            workers: opts.workers,
            acs_target: acs,
            read_timeout,
        };
        serve_async(listener, &control, Arc::clone(&service), async_opts).expect("reactor failed");
    } else {
        let serve_opts = ServeOptions { read_timeout };
        let crew = Arc::new(WorkCrew::new(cfg));
        server::serve_with(
            listener,
            &control,
            Arc::clone(&crew),
            Arc::clone(&service),
            serve_opts,
        )
        .expect("accept loop failed");

        // The registry keeps reading the joined crew's counters.
        crew.shutdown();
    }
    // Shutdown epilogue, in order: stop probing (the healer must not
    // race the final fsync), then final-fsync every healthy shard and
    // stamp the clean marker. Only after the stamp is the exit clean.
    if let Some(h) = healer {
        healer_stop.store(true, Ordering::SeqCst);
        let _ = h.join();
    }
    if opts.data_dir.is_some() {
        match service.shutdown_clean() {
            Ok(()) => eprintln!("# kv_server: clean shutdown: WALs synced, marker stamped"),
            Err(e) => eprintln!("# kv_server: clean-shutdown stamp failed: {e}"),
        }
    }
    // Exit report: what either front-end's admission, the pipeline and
    // every shard did, read from the one registry.
    let mut report = String::new();
    let verbs = [Parsed::from_line("STATS"), Parsed::from_line("METRICS")];
    service.apply_batch_span(&verbs, &mut report, &mut SpanContext::detached());
    eprint!("# kv_server: exit report:\n{report}");
    // With the flight recorder on, the final trace goes to stderr —
    // the post-mortem a crashed-and-restarted run can't give you.
    if opts.trace_buf > 0 {
        let trace = malthus_obs::recorder::dump();
        eprintln!("# kv_server: flight recorder dump ({} bytes):", trace.len());
        eprint!("{trace}");
    }
}
