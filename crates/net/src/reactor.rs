//! A readiness-driven connection front-end whose *polling right* is
//! Malthusian.
//!
//! The classic reactor question — how many threads should call
//! `epoll_wait` on a shared instance — is exactly the paper's
//! admission question one level up. All `workers` threads exist, but
//! only an active circulating set of `acs_target` of them may poll
//! and drain ready sockets; the surplus is culled onto a LIFO passive
//! stack ([`malthus_park::Parker`]), where it stays cache-warm and
//! cheap. Who polls and who is parked is the work crew's machine,
//! [`Membership`], not a copy of it: the reactor keeps one under a
//! mutex and supplies the events — *progress* is a return from
//! `epoll_wait`, *drained* is a poll that came back empty, a
//! dispatched batch is the moment for boost decay and the fairness
//! rotation. What the reactor owns is the one signal the machine
//! cannot know, `waiting`: with nobody inside `epoll_wait`, readiness
//! may be sitting undelivered, and that is the *work waiting* a
//! passive stack top rescues once the last poll return is a full stall
//! window stale.
//!
//! Readiness dispatch uses `EPOLLONESHOT`: one worker owns a ready
//! connection until it re-arms it, so per-connection handler state
//! needs no cross-worker coordination beyond its mutex. A never-
//! drained level-triggered wake pipe makes shutdown wake *every*
//! poller at once. A ready connection is drained with a bounded read
//! budget, handed to the [`Handler`] as one batch, and its response
//! flushed nonblockingly — whatever doesn't fit rides an `EPOLLOUT`
//! re-arm. Idle connections cost one slab slot, one timer-wheel
//! token and at most `BUFFER_RETAIN` bytes per buffer; no thread, no
//! stack.
//!
//! # The short-read rule
//!
//! Each worker reads into one scratch block of its own (zeroed once,
//! at spawn) and appends only the bytes received to the connection's
//! buffer, so a connection's buffer holds an unfinished request and
//! nothing else. **A read that returns less than the block ends the
//! drain**: the socket had less than was asked for, so it is empty
//! now, and asking again would only buy an `EAGAIN`. Nothing can be
//! stranded by stopping there, because the one-shot re-arm is
//! level-triggered — `EPOLL_CTL_MOD` reports bytes that landed after
//! the read as a fresh event. A ready batch therefore costs one
//! `read`.
//!
//! The exception is an event that carries `EPOLLRDHUP` or `EPOLLHUP`.
//! The peer has sent its last byte, so the drain keeps reading until
//! `read` returns 0: that is the only way to *see* the end of the
//! stream, and seeing it in the dispatch that delivers the final
//! requests is what lets their responses leave before the close hook
//! runs — instead of re-arming a socket that will report `RDHUP` for
//! ever.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use malthus::policy::{self, Admission, Membership, MembershipStats};
use malthus_metrics::LatencyHistogram;
use malthus_obs::{errno, EventKind};
use malthus_park::{Parker, Unparker};

use crate::handler::{Action, CloseReason, Handler};
use crate::sys;
use crate::wheel::TimerWheel;

/// Token of the shutdown wake pipe's read end.
const TOKEN_WAKE: u64 = u64::MAX;
/// Token of the accept listener.
const TOKEN_LISTENER: u64 = u64::MAX - 1;

/// Ready events drained per `epoll_wait` call.
const EVENT_BATCH: usize = 64;
/// Upper bound on an active worker's sleep inside `epoll_wait`, so
/// boost decay and timer-wheel ticks happen even on a quiet server.
const POLL_MS: i32 = 100;
/// Socket reads per readable wakeup are capped at this many bytes;
/// the level-triggered one-shot re-arm redelivers whatever remains,
/// so a fire-hosing client cannot pin a reactor worker.
const READ_BUDGET: usize = 64 * 1024;
/// Size of each worker's read scratch block: the most one `read`
/// takes off a socket.
const READ_CHUNK: usize = 16 * 1024;
/// Capacity a connection's read or write buffer may keep while it is
/// empty; anything above is given back, so an idle connection holds at
/// most twice this. Sized to hold a pipelined window of short requests
/// (or its responses) without reallocating per batch.
const BUFFER_RETAIN: usize = 512;
/// Accepts per listener wakeup before re-arming (the re-arm fires
/// again immediately if the backlog still has connections).
const ACCEPT_BUDGET: usize = 256;
/// A connection whose buffered partial request exceeds this is
/// protocol-broken (or hostile) and is closed.
const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Reactor sizing and admission knobs: the admission point its
/// pollers pass through, and the reactor's own two.
#[derive(Clone)]
pub struct ReactorConfig {
    /// Pollers, poll ACS target, stall window and fairness period (in
    /// ready-batch dispatches). A stall is the last `epoll_wait`
    /// return going stale with nobody polling.
    pub admission: Admission,
    /// Idle timeout: connections with no request bytes for this long
    /// are reaped by the timer wheel. `None` never reaps.
    pub read_timeout: Option<Duration>,
    /// External stop flag, checked on every accept wakeup: setting it
    /// and nudging the listener (a bare connect) shuts the reactor
    /// down — how `ServerControl::stop` reaches a reactor that has no
    /// blocking accept loop to break.
    pub stop_flag: Option<Arc<AtomicBool>>,
}

impl ReactorConfig {
    /// A reactor whose pollers are admitted by `admission`.
    pub fn new(admission: Admission) -> Self {
        ReactorConfig {
            admission,
            read_timeout: None,
            stop_flag: None,
        }
    }

    /// A reactor of [`Admission::malthusian`] pollers.
    pub fn malthusian(workers: usize) -> Self {
        Self::new(Admission::malthusian(workers))
    }

    /// Overrides the steady-state ACS limit.
    pub fn with_acs_target(mut self, acs_target: usize) -> Self {
        self.admission = self.admission.with_acs_target(acs_target);
        self
    }

    /// Sets the idle-connection reap timeout.
    pub fn with_read_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Installs an external stop flag (see the field docs).
    pub fn with_stop_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.stop_flag = Some(flag);
        self
    }
}

/// Counter snapshot of reactor activity (racy while running, exact
/// after [`Reactor::join`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Connections currently registered.
    pub conns_open: usize,
    /// The poll admission machine: ACS size and target, passive depth,
    /// culls, reprovisions and fairness promotions.
    pub members: MembershipStats,
    /// Total `epoll_wait` returns.
    pub epoll_waits: u64,
    /// Ready-connection dispatches (each is one handler batch).
    pub ready_batches: u64,
    /// Connections accepted.
    pub accepts: u64,
    /// Connections reaped by the idle timer wheel.
    pub idle_reaps: u64,
    /// Flush attempts that could not complete and re-armed `EPOLLOUT`.
    pub partial_flushes: u64,
    /// Bytes of read- and write-buffer capacity held across all open
    /// connections.
    pub buffer_bytes: usize,
}

/// One registered connection: sockets plus the buffer pair that
/// replaced the threaded server's thread + stack.
struct Connection<H: Handler> {
    stream: TcpStream,
    token: u64,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    /// How much of `write_buf` already left the socket.
    write_pos: usize,
    /// Monotonic-ms stamp of the last request bytes (idle-reap input).
    last_active_ms: u64,
    /// Close once the write buffer drains (QUIT, protocol errors).
    closing: bool,
    /// After the drain-close, also take the whole reactor down
    /// (SHUTDOWN verb).
    shutdown_on_close: bool,
    closed: bool,
    /// This connection's share of [`Inner::buffer_bytes`].
    buffer_bytes: usize,
    state: H::Conn,
}

impl<H: Handler> Connection<H> {
    fn write_pending(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }
}

struct SlabEntry<H: Handler> {
    /// Bumped on every free; tokens embed it so a recycled slot
    /// cannot alias a stale epoll event.
    gen: u32,
    conn: Option<Arc<Mutex<Connection<H>>>>,
}

struct Slab<H: Handler> {
    entries: Vec<SlabEntry<H>>,
    free: Vec<u32>,
}

struct Inner<H: Handler> {
    epfd: i32,
    wake_r: i32,
    wake_w: i32,
    fds_closed: AtomicBool,
    listener: TcpListener,
    handler: H,
    cfg: ReactorConfig,
    epoch: Instant,
    shutdown: AtomicBool,
    slab: Mutex<Slab<H>>,
    conns_open: AtomicUsize,
    wheel: Option<TimerWheel>,
    /// Which workers poll and which are parked.
    adm: Mutex<Membership>,
    /// Workers currently blocked inside `epoll_wait`. Zero means
    /// readiness may be sitting undelivered: the *work waiting* the
    /// passive stack top rescues if the last poll return goes stale.
    waiting: AtomicUsize,
    unparkers: Vec<Unparker>,
    epoll_waits: AtomicU64,
    ready_batches: AtomicU64,
    accepts: AtomicU64,
    idle_reaps: AtomicU64,
    partial_flushes: AtomicU64,
    /// `accept` failures the accept loop survived.
    accept_errors: AtomicU64,
    /// Workers that stopped polling because `epoll_wait` failed.
    poller_exits: AtomicU64,
    /// Buffer capacity held by open connections (each one's share is
    /// its `buffer_bytes`, settled whenever its capacities change).
    buffer_bytes: AtomicUsize,
    /// Ready sockets per non-empty `epoll_wait` return.
    ready_hist: LatencyHistogram,
}

/// The reactor handle: spawns its workers at [`Reactor::start`],
/// stops them at [`Reactor::join`] (or on drop).
pub struct Reactor<H: Handler> {
    inner: Arc<Inner<H>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl<H: Handler> Reactor<H> {
    /// Takes ownership of `listener`, registers it with a fresh epoll
    /// instance, and spawns `cfg.admission.workers` admission-managed
    /// reactor threads. Returns once the workers are running; serving
    /// needs no further calls.
    pub fn start(listener: TcpListener, handler: H, cfg: ReactorConfig) -> io::Result<Reactor<H>> {
        let adm = Membership::new(cfg.admission, Instant::now());
        listener.set_nonblocking(true)?;
        let epfd = sys::epoll_create()?;
        let (wake_r, wake_w) = match sys::wake_pipe() {
            Ok(p) => p,
            Err(e) => {
                sys::close_fd(epfd);
                return Err(e);
            }
        };
        // Level-triggered and never drained: once written, every
        // epoll_wait on every worker returns instantly, forever.
        sys::epoll_ctl_op(epfd, sys::EPOLL_CTL_ADD, wake_r, sys::EPOLLIN, TOKEN_WAKE)?;
        sys::epoll_ctl_op(
            epfd,
            sys::EPOLL_CTL_ADD,
            listener.as_raw_fd(),
            sys::EPOLLIN | sys::EPOLLONESHOT,
            TOKEN_LISTENER,
        )?;
        let parkers: Vec<Parker> = (0..cfg.admission.workers).map(|_| Parker::new()).collect();
        let unparkers = parkers.iter().map(Parker::unparker).collect();
        let inner = Arc::new(Inner {
            epfd,
            wake_r,
            wake_w,
            fds_closed: AtomicBool::new(false),
            listener,
            handler,
            epoch: Instant::now(),
            shutdown: AtomicBool::new(false),
            slab: Mutex::new(Slab {
                entries: Vec::new(),
                free: Vec::new(),
            }),
            conns_open: AtomicUsize::new(0),
            wheel: cfg.read_timeout.map(TimerWheel::new),
            adm: Mutex::new(adm),
            waiting: AtomicUsize::new(0),
            unparkers,
            epoll_waits: AtomicU64::new(0),
            ready_batches: AtomicU64::new(0),
            accepts: AtomicU64::new(0),
            idle_reaps: AtomicU64::new(0),
            partial_flushes: AtomicU64::new(0),
            accept_errors: AtomicU64::new(0),
            poller_exits: AtomicU64::new(0),
            buffer_bytes: AtomicUsize::new(0),
            ready_hist: LatencyHistogram::new(),
            cfg,
        });
        let handles = parkers
            .into_iter()
            .enumerate()
            .map(|(id, parker)| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("reactor-{id}"))
                    .spawn(move || worker_loop(&inner, id, parker))
                    .expect("spawn reactor worker")
            })
            .collect();
        Ok(Reactor { inner, handles })
    }

    /// The address the reactor is accepting on.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.listener.local_addr()
    }

    /// Signals shutdown without waiting: wakes every poller through
    /// the wake pipe and every passive worker through its parker.
    pub fn shutdown(&self) {
        self.inner.initiate_shutdown();
    }

    /// Live counter snapshot.
    pub fn stats(&self) -> ReactorStats {
        self.inner.stats()
    }

    /// Shuts down, joins every worker, closes every remaining
    /// connection (handlers see [`CloseReason::ServerShutdown`]), and
    /// returns the final statistics.
    pub fn join(mut self) -> ReactorStats {
        self.inner.initiate_shutdown();
        self.finish()
    }

    /// Blocks until something else shuts the reactor down — a
    /// `SHUTDOWN` verb ([`Action::ShutdownServer`]), the configured
    /// stop flag, or [`Reactor::shutdown`] from another thread — then
    /// cleans up and returns the final statistics. The serve-loop
    /// analogue of a blocking accept loop.
    pub fn wait(mut self) -> ReactorStats {
        self.finish()
    }

    fn finish(&mut self) -> ReactorStats {
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        let remaining: Vec<Arc<Mutex<Connection<H>>>> = {
            let mut slab = self.inner.slab.lock().expect("reactor slab poisoned");
            slab.free.clear();
            slab.entries
                .iter_mut()
                .filter_map(|e| e.conn.take())
                .collect()
        };
        // Graceful drain: a connection with a response still parked in
        // `write_buf` gets a bounded chance to take delivery before we
        // force-close. The sockets are nonblocking, so busy-retry with
        // a short sleep under an overall deadline — shutdown must not
        // hang on a peer that stopped reading.
        let drain_deadline = Instant::now() + Duration::from_millis(250);
        for arc in remaining {
            let mut c = arc.lock().expect("reactor conn poisoned");
            let conn = &mut *c;
            while !conn.closed && conn.write_pending() && Instant::now() < drain_deadline {
                match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                    Ok(0) => break,
                    Ok(n) => conn.write_pos += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
            if !c.closed {
                c.closed = true;
                self.inner.conns_open.fetch_sub(1, Ordering::SeqCst);
                self.inner
                    .buffer_bytes
                    .fetch_sub(c.buffer_bytes, Ordering::Relaxed);
                self.inner
                    .handler
                    .on_close(&mut c.state, CloseReason::ServerShutdown);
            }
        }
        if !self.inner.fds_closed.swap(true, Ordering::SeqCst) {
            sys::close_fd(self.inner.epfd);
            sys::close_fd(self.inner.wake_r);
            sys::close_fd(self.inner.wake_w);
        }
        self.inner.stats()
    }

    /// Registers the reactor's gauges, counters and the ready-batch
    /// histogram with a metrics registry, its poll admission as
    /// `point="reactor"` ([`policy::register_admission`]); idempotent:
    /// re-registration replaces the sources.
    pub fn register_metrics(&self, registry: &malthus_obs::Registry) {
        let no_labels: &[(&str, &str)] = &[];
        let i = Arc::clone(&self.inner);
        registry.gauge(
            "kv_conns_open",
            "Connections currently registered with the reactor.",
            no_labels,
            move || i.conns_open.load(Ordering::Relaxed) as f64,
        );
        let i = Arc::clone(&self.inner);
        registry.gauge(
            "kv_reactor_buffer_bytes",
            "Read and write buffer capacity held by open connections.",
            no_labels,
            move || i.buffer_bytes.load(Ordering::Relaxed) as f64,
        );
        let i = Arc::clone(&self.inner);
        policy::register_admission(registry, "reactor", "kv_reactor_", move || {
            i.admission().stats()
        });
        let i = Arc::clone(&self.inner);
        registry.counter(
            "kv_epoll_waits_total",
            "epoll_wait returns across all reactor workers.",
            no_labels,
            move || i.epoll_waits.load(Ordering::Relaxed),
        );
        let i = Arc::clone(&self.inner);
        registry.counter(
            "kv_reactor_ready_batches_total",
            "Ready-connection dispatches, each one handler batch.",
            no_labels,
            move || i.ready_batches.load(Ordering::Relaxed),
        );
        let i = Arc::clone(&self.inner);
        registry.counter(
            "kv_reactor_partial_flushes_total",
            "Response flushes that re-armed EPOLLOUT to finish.",
            no_labels,
            move || i.partial_flushes.load(Ordering::Relaxed),
        );
        let i = Arc::clone(&self.inner);
        registry.counter(
            "kv_reactor_idle_reaps_total",
            "Connections reaped by the idle timer wheel.",
            no_labels,
            move || i.idle_reaps.load(Ordering::Relaxed),
        );
        let i = Arc::clone(&self.inner);
        registry.counter(
            "kv_accept_errors_total",
            "accept() failures the accept loop survived, by front-end.",
            &[("front", "reactor")],
            move || i.accept_errors.load(Ordering::Relaxed),
        );
        let i = Arc::clone(&self.inner);
        registry.counter(
            "kv_reactor_poller_exits_total",
            "Reactor workers that stopped polling because epoll_wait failed.",
            no_labels,
            move || i.poller_exits.load(Ordering::Relaxed),
        );
        let i = Arc::clone(&self.inner);
        registry.histogram(
            "kv_reactor_ready_batch",
            "Ready sockets drained per non-empty epoll_wait return.",
            no_labels,
            move || i.ready_hist.snapshot(),
        );
    }
}

impl<H: Handler> Drop for Reactor<H> {
    fn drop(&mut self) {
        if !self.handles.is_empty() {
            self.inner.initiate_shutdown();
            self.finish();
        }
    }
}

impl<H: Handler> Inner<H> {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn admission(&self) -> MutexGuard<'_, Membership> {
        self.adm.lock().expect("reactor admission poisoned")
    }

    fn initiate_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        sys::wake_write(self.wake_w);
        self.admission().release_all();
        for u in &self.unparkers {
            u.unpark();
        }
    }

    fn stats(&self) -> ReactorStats {
        ReactorStats {
            conns_open: self.conns_open.load(Ordering::SeqCst),
            members: self.admission().stats(),
            epoll_waits: self.epoll_waits.load(Ordering::Relaxed),
            ready_batches: self.ready_batches.load(Ordering::Relaxed),
            accepts: self.accepts.load(Ordering::Relaxed),
            idle_reaps: self.idle_reaps.load(Ordering::Relaxed),
            partial_flushes: self.partial_flushes.load(Ordering::Relaxed),
            buffer_bytes: self.buffer_bytes.load(Ordering::Relaxed),
        }
    }

    /// Whether nobody is inside `epoll_wait`.
    fn unattended(&self) -> bool {
        self.waiting.load(Ordering::SeqCst) == 0
    }

    /// Parks a culled worker as a standby thread until it is active
    /// again: rotated in, released by shutdown, or — as the stack top,
    /// with nobody polling and the last poll return a full window
    /// stale — self-promoted. Every return from the park, a stray
    /// unpark included, re-asks the machine under its mutex. Takes the
    /// guard the worker was culled under and returns the re-acquired
    /// one.
    fn park_passive<'a>(
        &'a self,
        id: usize,
        parker: &Parker,
        mut adm: MutexGuard<'a, Membership>,
    ) -> MutexGuard<'a, Membership> {
        loop {
            let interval = adm.standby_interval(self.unattended());
            drop(adm);
            parker.park_timeout(interval);
            adm = self.admission();
            if !adm.is_passive(id) || adm.promote_if_stalled(id, self.unattended(), Instant::now())
            {
                return adm;
            }
        }
    }

    fn lookup(&self, token: u64) -> Option<Arc<Mutex<Connection<H>>>> {
        let index = (token & u64::from(u32::MAX)) as usize;
        let gen = (token >> 32) as u32;
        let slab = self.slab.lock().expect("reactor slab poisoned");
        let entry = slab.entries.get(index)?;
        if entry.gen != gen {
            return None;
        }
        entry.conn.clone()
    }

    /// Registers a freshly accepted stream: nonblocking, slab slot,
    /// handler state, timer-wheel deadline, one-shot read interest.
    fn register_conn(self: &Arc<Self>, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let fd = stream.as_raw_fd();
        let now = self.now_ms();
        let state = self.handler.on_open(&stream);
        let token = {
            let mut slab = self.slab.lock().expect("reactor slab poisoned");
            let index = match slab.free.pop() {
                Some(i) => i as usize,
                None => {
                    slab.entries.push(SlabEntry { gen: 0, conn: None });
                    slab.entries.len() - 1
                }
            };
            let token = (u64::from(slab.entries[index].gen) << 32) | index as u64;
            slab.entries[index].conn = Some(Arc::new(Mutex::new(Connection {
                stream,
                token,
                read_buf: Vec::new(),
                write_buf: Vec::new(),
                write_pos: 0,
                last_active_ms: now,
                closing: false,
                shutdown_on_close: false,
                closed: false,
                buffer_bytes: 0,
                state,
            })));
            token
        };
        self.conns_open.fetch_add(1, Ordering::SeqCst);
        self.accepts.fetch_add(1, Ordering::Relaxed);
        if let (Some(wheel), Some(timeout)) = (&self.wheel, self.cfg.read_timeout) {
            wheel.schedule(token, now, timeout);
        }
        if let Err(e) = sys::epoll_ctl_op(
            self.epfd,
            sys::EPOLL_CTL_ADD,
            fd,
            sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLONESHOT,
            token,
        ) {
            malthus_obs::record(EventKind::ConnRegisterFailed, 0, errno(&e));
            if let Some(arc) = self.lookup(token) {
                let mut c = arc.lock().expect("reactor conn poisoned");
                self.close_locked(&mut c, CloseReason::Error, false);
            }
        }
    }

    /// Drains the accept backlog (bounded) and re-arms the listener.
    fn accept_ready(self: &Arc<Self>) {
        if let Some(flag) = &self.cfg.stop_flag {
            if flag.load(Ordering::SeqCst) {
                self.initiate_shutdown();
                return;
            }
        }
        for _ in 0..ACCEPT_BUDGET {
            match self.listener.accept() {
                Ok((stream, _)) => self.register_conn(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => {
                    // One refused/aborted connection must not take
                    // down the reactor (same contract as the threaded
                    // accept loop).
                    self.accept_errors.fetch_add(1, Ordering::Relaxed);
                    malthus_obs::record(EventKind::AcceptError, 1, errno(&e));
                    break;
                }
            }
        }
        if !self.shutdown.load(Ordering::Acquire) {
            let _ = sys::epoll_ctl_op(
                self.epfd,
                sys::EPOLL_CTL_MOD,
                self.listener.as_raw_fd(),
                sys::EPOLLIN | sys::EPOLLONESHOT,
                TOKEN_LISTENER,
            );
        }
    }

    /// Nonblocking flush of the pending slice of `write_buf`.
    /// Returns `Ok(true)` when fully drained, `Ok(false)` on
    /// `WouldBlock` (caller re-arms `EPOLLOUT`).
    fn flush(&self, c: &mut Connection<H>) -> io::Result<bool> {
        while c.write_pending() {
            // An injected EAGAIN on the write side forces the partial-
            // flush path: the response parks in `write_buf` and waits
            // for a (real) EPOLLOUT.
            if malthus_fault::fire(malthus_fault::Site::NetEagain) {
                self.partial_flushes.fetch_add(1, Ordering::Relaxed);
                return Ok(false);
            }
            match c.stream.write(&c.write_buf[c.write_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => c.write_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.partial_flushes.fetch_add(1, Ordering::Relaxed);
                    return Ok(false);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        c.write_buf.clear();
        c.write_pos = 0;
        Ok(true)
    }

    /// Gives back the capacity an empty buffer holds above
    /// [`BUFFER_RETAIN`] and settles the connection's share of
    /// `buffer_bytes` — no atomic traffic while capacities are steady.
    fn settle_buffers(&self, c: &mut Connection<H>) {
        for buf in [&mut c.read_buf, &mut c.write_buf] {
            if buf.is_empty() && buf.capacity() > BUFFER_RETAIN {
                buf.shrink_to(BUFFER_RETAIN);
            }
        }
        let held = c.read_buf.capacity() + c.write_buf.capacity();
        if held != c.buffer_bytes {
            self.buffer_bytes.fetch_add(held, Ordering::Relaxed);
            self.buffer_bytes
                .fetch_sub(c.buffer_bytes, Ordering::Relaxed);
            c.buffer_bytes = held;
        }
    }

    /// One ready-connection dispatch: drain the socket (bounded) by
    /// way of the worker's `scratch` block, hand the bytes to the
    /// handler as a batch, flush the response, re-arm or close.
    fn conn_ready(self: &Arc<Self>, token: u64, mask: u32, scratch: &mut [u8]) {
        let Some(arc) = self.lookup(token) else {
            return; // already closed; stale one-shot event
        };
        let mut c = arc.lock().expect("reactor conn poisoned");
        if c.closed {
            return;
        }
        self.ready_batches.fetch_add(1, Ordering::Relaxed);
        let mut reason: Option<CloseReason> = None;
        let mut eof = false;
        if mask & sys::EPOLLERR != 0 {
            reason = Some(CloseReason::Error);
        }
        // Finish an in-flight partial response first: the peer just
        // told us it drained some of its receive window.
        if reason.is_none() && c.write_pending() && mask & sys::EPOLLOUT != 0 {
            let t0 = Instant::now();
            match self.flush(&mut c) {
                Ok(complete) => {
                    let ns = t0.elapsed().as_nanos() as u64;
                    self.handler.on_flushed(&mut c.state, ns, complete);
                }
                Err(_) => reason = Some(CloseReason::Error),
            }
        }
        let mut read_any = false;
        if reason.is_none()
            && !c.closing
            && mask & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP) != 0
        {
            let conn = &mut *c;
            // See the module docs: a short read ends the drain unless
            // the peer has hung up.
            let hangup = mask & (sys::EPOLLRDHUP | sys::EPOLLHUP) != 0;
            let mut total = 0;
            loop {
                // Fault injection ahead of the real read: a planned
                // reset exercises the error-close path, a planned
                // EAGAIN the spurious-readiness re-arm path.
                let got = if malthus_fault::fire(malthus_fault::Site::NetReset) {
                    Err(io::Error::new(
                        io::ErrorKind::ConnectionReset,
                        "injected connection reset",
                    ))
                } else if malthus_fault::fire(malthus_fault::Site::NetEagain) {
                    Err(io::ErrorKind::WouldBlock.into())
                } else {
                    conn.stream.read(scratch)
                };
                match got {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.read_buf.extend_from_slice(&scratch[..n]);
                        read_any = true;
                        total += n;
                        // Past the budget the re-arm redelivers the rest.
                        if total >= READ_BUDGET || (n < scratch.len() && !hangup) {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        reason = Some(CloseReason::Error);
                        break;
                    }
                }
            }
            conn.last_active_ms = self.epoch.elapsed().as_millis() as u64;
        }
        if reason.is_none() && read_any {
            let conn = &mut *c;
            match self
                .handler
                .on_data(&mut conn.state, &mut conn.read_buf, &mut conn.write_buf)
            {
                Action::Continue => {}
                Action::Close => conn.closing = true,
                Action::ShutdownServer => {
                    conn.closing = true;
                    conn.shutdown_on_close = true;
                }
            }
            if c.read_buf.len() > MAX_REQUEST_BYTES {
                // An unbounded partial line is a protocol violation;
                // drop it rather than buffer without limit.
                c.closing = true;
            }
            if c.write_pending() {
                let t0 = Instant::now();
                match self.flush(&mut c) {
                    Ok(complete) => {
                        let ns = t0.elapsed().as_nanos() as u64;
                        self.handler.on_flushed(&mut c.state, ns, complete);
                    }
                    Err(_) => reason = Some(CloseReason::Error),
                }
            }
        }
        if reason.is_none() {
            if eof {
                reason = Some(CloseReason::PeerClosed);
            } else if c.closing && !c.write_pending() {
                reason = Some(CloseReason::Requested);
            }
        }
        let shutdown_after = match reason {
            Some(r) => {
                let shutdown_after = c.shutdown_on_close;
                self.close_locked(&mut c, r, true);
                shutdown_after
            }
            None => {
                self.settle_buffers(&mut c);
                let mut m = sys::EPOLLRDHUP | sys::EPOLLONESHOT;
                if !c.closing {
                    m |= sys::EPOLLIN;
                }
                if c.write_pending() {
                    m |= sys::EPOLLOUT;
                }
                let fd = c.stream.as_raw_fd();
                if sys::epoll_ctl_op(self.epfd, sys::EPOLL_CTL_MOD, fd, m, token).is_err() {
                    self.close_locked(&mut c, CloseReason::Error, true);
                }
                false
            }
        };
        drop(c);
        if shutdown_after {
            self.initiate_shutdown();
        }
    }

    /// Closes a connection whose mutex the caller holds: deregisters
    /// the fd, runs the close hook once, frees the slab slot. Lock
    /// order stays conn → slab; the slab mutex is never held while a
    /// conn mutex is taken.
    fn close_locked(&self, c: &mut Connection<H>, reason: CloseReason, deregister: bool) {
        if c.closed {
            return;
        }
        c.closed = true;
        if deregister {
            let _ = sys::epoll_ctl_op(self.epfd, sys::EPOLL_CTL_DEL, c.stream.as_raw_fd(), 0, 0);
        }
        self.handler.on_close(&mut c.state, reason);
        self.buffer_bytes
            .fetch_sub(c.buffer_bytes, Ordering::Relaxed);
        let index = (c.token & u64::from(u32::MAX)) as usize;
        let gen = (c.token >> 32) as u32;
        let mut slab = self.slab.lock().expect("reactor slab poisoned");
        if let Some(entry) = slab.entries.get_mut(index) {
            if entry.gen == gen {
                entry.conn = None;
                entry.gen = entry.gen.wrapping_add(1);
                slab.free.push(index as u32);
            }
        }
        drop(slab);
        self.conns_open.fetch_sub(1, Ordering::SeqCst);
    }

    /// Claims due timer-wheel ticks and reaps connections idle past
    /// the timeout; still-live ones are rescheduled for the remainder.
    fn tick_wheel(self: &Arc<Self>) {
        let (Some(wheel), Some(timeout)) = (&self.wheel, self.cfg.read_timeout) else {
            return;
        };
        let now = self.now_ms();
        let timeout_ms = (timeout.as_millis() as u64).max(1);
        for token in wheel.due(now) {
            let Some(arc) = self.lookup(token) else {
                continue; // closed since scheduling; stale token
            };
            let mut c = arc.lock().expect("reactor conn poisoned");
            if c.closed {
                continue;
            }
            let idle = now.saturating_sub(c.last_active_ms);
            if idle >= timeout_ms {
                self.idle_reaps.fetch_add(1, Ordering::Relaxed);
                self.close_locked(&mut c, CloseReason::IdleTimeout, true);
            } else {
                wheel.schedule(token, now, Duration::from_millis(timeout_ms - idle));
            }
        }
    }
}

/// The reactor worker: polling is the admitted work. The admission
/// mutex is taken twice per `epoll_wait` return — the progress stamp,
/// and one hold after dispatch that settles the boost, the fairness
/// rotation and whether this worker polls again (a culled worker
/// parks out of that same hold).
fn worker_loop<H: Handler>(inner: &Arc<Inner<H>>, id: usize, parker: Parker) {
    let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; EVENT_BATCH];
    let mut scratch = vec![0u8; READ_CHUNK];
    // Admission gate: surplus pollers cull themselves onto the passive
    // stack before ever touching epoll.
    let mut adm = inner.admission();
    let mut culled = adm.cull(id);
    loop {
        if culled {
            adm = inner.park_passive(id, &parker, adm);
        }
        drop(adm);
        if inner.shutdown.load(Ordering::Acquire) {
            break;
        }
        inner.waiting.fetch_add(1, Ordering::SeqCst);
        let polled = sys::epoll_wait_events(inner.epfd, &mut events, POLL_MS);
        inner.waiting.fetch_sub(1, Ordering::SeqCst);
        let now = Instant::now();
        inner.admission().progress(now);
        inner.epoll_waits.fetch_add(1, Ordering::Relaxed);
        if inner.shutdown.load(Ordering::Acquire) {
            break;
        }
        let n = match polled {
            Ok(n) => n,
            Err(e) => {
                inner.poller_exits.fetch_add(1, Ordering::Relaxed);
                malthus_obs::record(EventKind::PollerExit, id as u64, errno(&e));
                break;
            }
        };
        let mut ready_conns = 0u64;
        for ev in &events[..n] {
            let token = { ev.data };
            let mask = { ev.events };
            if token == TOKEN_WAKE {
                continue; // shutdown checked at loop top
            } else if token == TOKEN_LISTENER {
                inner.accept_ready();
            } else {
                ready_conns += 1;
                inner.conn_ready(token, mask, &mut scratch);
            }
        }
        if ready_conns > 0 {
            inner.ready_hist.record_ns(ready_conns);
        }
        inner.tick_wheel();
        adm = inner.admission();
        if n == 0 {
            adm.drained(now);
        } else {
            adm.decay(now);
        }
        // A dispatched batch is the reactor's unit of work: the moment
        // for the fairness rotation, as a finished task is the crew's.
        let eldest = if ready_conns > 0 {
            adm.rotate(id)
        } else {
            None
        };
        if let Some(eldest) = eldest {
            inner.unparkers[eldest].unpark();
        }
        culled = eldest.is_some() || adm.cull(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Silent;

    impl Handler for Silent {
        type Conn = ();
        fn on_open(&self, _stream: &TcpStream) {}
        fn on_data(&self, _conn: &mut (), read_buf: &mut Vec<u8>, _out: &mut Vec<u8>) -> Action {
            read_buf.clear();
            Action::Continue
        }
        fn on_close(&self, _conn: &mut (), _reason: CloseReason) {}
    }

    #[test]
    fn a_spurious_unpark_leaves_a_passive_worker_parked() {
        // A stall window of an hour: nothing but an unpark wakes the
        // passive worker, and nothing legitimately promotes it.
        let cfg = ReactorConfig::new(
            Admission::malthusian(2)
                .with_acs_target(1)
                .with_stall(Duration::from_secs(3600))
                .with_fairness_period(None),
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let reactor = Reactor::start(listener, Silent, cfg).unwrap();
        let inner = &reactor.inner;
        let deadline = Instant::now() + Duration::from_secs(10);
        while inner.admission().stats().passive != 1 {
            assert!(Instant::now() < deadline, "the surplus poller never culled");
            std::thread::sleep(Duration::from_millis(2));
        }
        let passive = (0..2).find(|&w| inner.admission().is_passive(w)).unwrap();
        // Two threads inside `epoll_wait` would be two pollers in an
        // ACS of one. (The one poller is briefly outside it every
        // POLL_MS, so only "never above one" can be asserted.)
        let mut most_polling = 0;
        for _ in 0..5 {
            inner.unparkers[passive].unpark();
            for _ in 0..5 {
                std::thread::sleep(Duration::from_millis(2));
                most_polling = most_polling.max(inner.waiting.load(Ordering::SeqCst));
            }
        }
        assert_eq!(most_polling, 1, "the passive worker went polling");
        assert!(inner.admission().is_passive(passive));
        let stats = reactor.join();
        let members = stats.members;
        assert_eq!((members.culls, members.reprovisions), (1, 0), "{stats:?}");
    }

    #[test]
    fn the_conditions_the_recorder_may_miss_are_metrics() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let reactor = Reactor::start(listener, Silent, ReactorConfig::malthusian(1)).unwrap();
        let registry = malthus_obs::Registry::new();
        reactor.register_metrics(&registry);
        let doc = registry.exposition();
        for needle in [
            "kv_accept_errors_total{front=\"reactor\"} 0",
            "kv_reactor_poller_exits_total 0",
            "kv_reactor_ready_batches_total 0",
            "kv_reactor_fairness_promotions_total 0",
        ] {
            assert!(doc.contains(needle), "missing {needle:?} in:\n{doc}");
        }
        reactor.join();
    }
}
