//! The Malthusian work crew: a concurrency-restricting executor.
//!
//! A bounded task queue feeds `workers` OS threads, but only an
//! admission-controlled **active circulating set** (ACS) of them
//! dequeues at any moment; the rest are culled onto a LIFO **passive
//! stack** and parked on their [`Parker`]s. The partition moves:
//!
//! * **Culling** — whenever the active count exceeds the current ACS
//!   limit ([`policy::crew_has_surplus`]), the worker observing it
//!   pushes itself onto the passive stack and parks. The stack is
//!   LIFO, so short-term reprovisioning reuses the most recently
//!   passivated (cache-warm) worker, exactly like the lock's passive
//!   list (§4).
//! * **Reprovisioning** — passive workers are *standby threads* in
//!   the sense of the paper's LOITER appendix (A.1): they park with a
//!   timeout, and the top of the stack self-promotes when it observes
//!   queued work ([`policy::crew_should_reprovision`]) while dequeues
//!   have stalled for [`PoolConfig::stall_threshold`] — every active
//!   worker blocked inside a task or descheduled. That is the crew's
//!   work-conservation signal, mirroring the lock's empty-main-queue
//!   rule. A promotion raises a temporary `boost` on the ACS limit,
//!   which is shed one step each time a worker finds the queue empty
//!   — and, under sustained saturation where the queue never empties,
//!   decays one step per few stall windows without a new stall — so
//!   the ACS shrinks back once blocking stops. Backlog depth
//!   alone deliberately does not reprovision: under saturation the
//!   queue is *always* deep, and promoting on depth degenerates into
//!   cull/unpark thrash that converges on the unrestricted pool.
//! * **Long-term fairness** — an episodic
//!   [`FairnessTrigger`](malthus::policy::FairnessTrigger) (the same
//!   Bernoulli trial the locks use, §4) occasionally makes a worker
//!   that just finished a task swap places with the *eldest* passive
//!   worker (the bottom of the LIFO stack), bounding per-worker
//!   starvation without perturbing the ACS size.
//! * **Lending** — a thread that would otherwise block on a crew
//!   round trip (submit, park, be unparked by the worker's reply) may
//!   instead borrow an *idle* ACS member's place with
//!   [`WorkCrew::try_enter`] and run the work itself: no parked thread
//!   is woken on the critical path (§4, and the hand-off costs of §5).
//!   The lent worker stays parked and stays counted in the ACS, so the
//!   number of threads executing crew work never exceeds the ACS
//!   limit, and a slot is only lent while the queue is empty, so a
//!   caller never overtakes queued work. Dropping the [`Slot`] returns
//!   the place exactly as the worker finishing a task would have.
//!
//! Tasks are never lost: culled workers are reprovisioned while
//! backlog exists, and [`WorkCrew::shutdown`] drains the queue before
//! any worker exits.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use malthus::policy::{self, FairnessTrigger};
use malthus_park::{Parker, Unparker};

/// Default dequeue-stall window before reprovisioning; long enough to
/// ride out a scheduler quantum on an oversubscribed host, short
/// enough that a task blocking on I/O promotes a replacement quickly.
pub const DEFAULT_STALL_THRESHOLD: Duration = Duration::from_millis(5);

/// A unit of work.
pub type Task = Box<dyn FnOnce() + Send + 'static>;

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at its bound (only from [`WorkCrew::try_submit`]).
    QueueFull,
    /// The crew is shutting down; no new work is accepted.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "task queue is full"),
            SubmitError::ShuttingDown => write!(f, "work crew is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Configuration for a [`WorkCrew`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Total worker threads (active + passive).
    pub workers: usize,
    /// Steady-state ACS limit. Workers beyond it passivate; `workers`
    /// disables restriction entirely.
    pub acs_target: usize,
    /// Task-queue bound; blocking [`WorkCrew::submit`] applies
    /// backpressure past it.
    pub queue_bound: usize,
    /// Minimum backlog depth for stall-driven reprovisioning from the
    /// passive stack (1 = any pending task counts as backed up).
    pub backlog_watermark: usize,
    /// How long dequeues must stall (with backlog at the watermark)
    /// before a passive worker is promoted.
    pub stall_threshold: Duration,
    /// Average period (in completed tasks) of the episodic
    /// eldest-passive promotion; `None` disables it.
    pub fairness_period: Option<u64>,
    /// Seed for the fairness trigger's Bernoulli trials.
    pub seed: u64,
}

impl PoolConfig {
    /// An unrestricted pool: every worker dequeues, no passive stack.
    /// The control for the Malthusian crew in benchmarks.
    pub fn unrestricted(workers: usize, queue_bound: usize) -> Self {
        PoolConfig {
            workers,
            acs_target: workers,
            queue_bound,
            backlog_watermark: 1,
            stall_threshold: DEFAULT_STALL_THRESHOLD,
            fairness_period: None,
            seed: 0x4D414C54,
        }
    }

    /// A Malthusian crew: ACS limited to the host's parallelism (or
    /// `workers`, whichever is smaller), stall-driven reprovisioning
    /// on any pending backlog, and the paper's default 1/1000
    /// fairness period.
    pub fn malthusian(workers: usize, queue_bound: usize) -> Self {
        PoolConfig {
            workers,
            acs_target: policy::acs_target(workers, usize::MAX),
            queue_bound,
            backlog_watermark: 1,
            stall_threshold: DEFAULT_STALL_THRESHOLD,
            fairness_period: Some(policy::DEFAULT_FAIRNESS_PERIOD),
            seed: 0x4D414C54,
        }
    }

    /// Overrides the steady-state ACS limit.
    pub fn with_acs_target(mut self, acs_target: usize) -> Self {
        self.acs_target = acs_target;
        self
    }

    /// Overrides the fairness period (`None` disables promotion).
    pub fn with_fairness_period(mut self, period: Option<u64>) -> Self {
        self.fairness_period = period;
        self
    }

    /// Overrides the reprovision watermark.
    pub fn with_backlog_watermark(mut self, watermark: usize) -> Self {
        self.backlog_watermark = watermark;
        self
    }

    /// Overrides the dequeue-stall window.
    pub fn with_stall_threshold(mut self, stall: Duration) -> Self {
        self.stall_threshold = stall;
        self
    }

    fn validate(&self) {
        assert!(self.workers > 0, "crew needs at least one worker");
        assert!(self.acs_target > 0, "ACS target must be positive");
        assert!(
            self.acs_target <= self.workers,
            "ACS target cannot exceed the worker count"
        );
        assert!(self.queue_bound > 0, "queue bound must be positive");
        assert!(self.backlog_watermark > 0, "watermark must be positive");
        // A watermark the backlog can never reach (submit blocks at
        // the bound) would silently disable reprovisioning and strand
        // tasks behind a blocked worker.
        assert!(
            self.backlog_watermark <= self.queue_bound,
            "watermark beyond the queue bound can never trigger"
        );
    }
}

/// Counter snapshot of crew activity.
///
/// Live snapshots ([`WorkCrew::stats`]) are racy reads, same contract
/// as the lock `cr_stats`; totals are exact once the crew has been
/// shut down.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks accepted by `submit`/`try_submit`.
    pub submitted: u64,
    /// Units of work executed to completion: dequeued tasks plus
    /// [`Slot`]s returned.
    pub completed: u64,
    /// The part of `completed` that ran on the caller's thread under a
    /// lent [`Slot`]; not charged to `per_worker_completed`.
    pub inline: u64,
    /// Workers culled onto the passive stack (excluding fairness
    /// swaps).
    pub culls: u64,
    /// Passive workers promoted because the queue backed up.
    pub reprovisions: u64,
    /// Episodic promotions of the eldest passive worker.
    pub fairness_promotions: u64,
    /// Tasks that panicked (isolated; the worker survives).
    pub panicked: u64,
    /// Tasks completed per worker, indexed by worker id.
    pub per_worker_completed: Vec<u64>,
}

/// Where a worker currently stands in the admission state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// In the ACS: running a task or hunting for one.
    Active,
    /// In the ACS but parked because the queue was empty.
    Idle,
    /// In the ACS and parked, its place lent to a [`Slot`] holder.
    Lent,
    /// Culled: parked on the passive stack.
    Passive,
}

struct State {
    queue: VecDeque<Task>,
    roles: Vec<Role>,
    /// Ids of `Idle` workers, most recently idled last.
    idle: Vec<usize>,
    /// Ids of `Passive` workers; eldest at index 0, newest last (LIFO
    /// top).
    passive: Vec<usize>,
    /// Workers in `Active`, `Idle` or `Lent` role.
    active: usize,
    /// Temporary ACS enlargement granted by reprovisioning; shed as
    /// the backlog drains.
    boost: usize,
    /// When a worker last dequeued a task; reprovisioning triggers on
    /// this going stale while backlog waits (service has stalled).
    last_dequeue: Instant,
    /// When `boost` last changed; paces boost decay so the ACS relaxes
    /// back to its target once stalls stop, even if the queue never
    /// goes empty (sustained saturation).
    last_boost_change: Instant,
    fairness: Option<FairnessTrigger>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Submitters blocked on a full queue.
    not_full: Condvar,
    unparkers: Vec<Unparker>,
    cfg: PoolConfig,
    submitted: AtomicU64,
    completed: AtomicU64,
    inline: AtomicU64,
    culls: AtomicU64,
    reprovisions: AtomicU64,
    fairness_promotions: AtomicU64,
    panicked: AtomicU64,
    per_worker: Vec<AtomicU64>,
}

impl Shared {
    fn acs_limit(&self, state: &State) -> usize {
        (self.cfg.acs_target + state.boost).min(self.cfg.workers)
    }

    /// Wakes an idle worker for a freshly queued task. Stalls are not
    /// checked here: the passive standby threads detect those
    /// themselves via timed parking.
    fn signal_work(&self, state: &mut State) {
        if let Some(w) = state.idle.pop() {
            state.roles[w] = Role::Active;
            self.unparkers[w].unpark();
        }
    }

    /// Boost decay under sustained saturation, run after every unit of
    /// work: when no stall has re-raised the boost for several
    /// windows, shed one step even though the queue never empties —
    /// otherwise a long-lived saturated crew with occasional blocking
    /// tasks ratchets its ACS up to `workers` permanently and
    /// restriction is lost.
    fn decay_boost(&self, state: &mut State) {
        if state.boost > 0
            && !state.shutdown
            && state.last_boost_change.elapsed() >= self.cfg.stall_threshold * 8
        {
            state.boost -= 1;
            state.last_boost_change = Instant::now();
        }
    }
}

/// An ACS place lent by [`WorkCrew::try_enter`]: while it lives, the
/// holder's thread stands in for one parked crew worker. Dropping it
/// (also on unwind) does that worker's post-task bookkeeping and
/// returns the place.
#[must_use = "the slot is returned when this guard drops"]
pub struct Slot<'a> {
    shared: &'a Shared,
    worker: usize,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let (shared, w) = (self.shared, self.worker);
        if std::thread::panicking() {
            shared.panicked.fetch_add(1, Ordering::Relaxed);
        } else {
            shared.completed.fetch_add(1, Ordering::Relaxed);
            shared.inline.fetch_add(1, Ordering::Relaxed);
        }
        let mut state = shared.state.lock().expect("crew mutex poisoned");
        shared.decay_boost(&mut state);
        if state.roles[w] != Role::Lent {
            return; // `shutdown` already released the worker
        }
        // Work queued behind the slot, or a boost that decayed to a
        // surplus: the worker must run its own loop. Otherwise it goes
        // back to being the most recently idled member.
        if state.queue.is_empty()
            && !policy::crew_has_surplus(state.active, shared.acs_limit(&state))
        {
            state.roles[w] = Role::Idle;
            state.idle.push(w);
        } else {
            state.roles[w] = Role::Active;
            shared.unparkers[w].unpark();
        }
    }
}

/// The concurrency-restricting executor; the [crate docs](crate) give
/// the admission state machine in outline.
///
/// # Examples
///
/// ```
/// use malthus_pool::{PoolConfig, WorkCrew};
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// let crew = WorkCrew::new(PoolConfig::malthusian(4, 64));
/// let hits = Arc::new(AtomicU64::new(0));
/// for _ in 0..100 {
///     let hits = Arc::clone(&hits);
///     crew.submit(move || {
///         hits.fetch_add(1, Ordering::Relaxed);
///     })
///     .unwrap();
/// }
/// let stats = crew.shutdown();
/// assert_eq!(stats.completed, 100);
/// assert_eq!(hits.load(Ordering::Relaxed), 100);
/// ```
pub struct WorkCrew {
    shared: Arc<Shared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl WorkCrew {
    /// Spawns the worker threads and returns the crew.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (zero workers, ACS
    /// target above the worker count, zero queue bound or watermark).
    pub fn new(cfg: PoolConfig) -> Self {
        cfg.validate();
        let parkers: Vec<Parker> = (0..cfg.workers).map(|_| Parker::new()).collect();
        let unparkers: Vec<Unparker> = parkers.iter().map(Parker::unparker).collect();
        let fairness = cfg
            .fairness_period
            .map(|p| FairnessTrigger::new(p, cfg.seed | 1));
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                roles: vec![Role::Active; cfg.workers],
                idle: Vec::new(),
                passive: Vec::new(),
                active: cfg.workers,
                boost: 0,
                last_dequeue: Instant::now(),
                last_boost_change: Instant::now(),
                fairness,
                shutdown: false,
            }),
            not_full: Condvar::new(),
            unparkers,
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            inline: AtomicU64::new(0),
            culls: AtomicU64::new(0),
            reprovisions: AtomicU64::new(0),
            fairness_promotions: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            per_worker: (0..cfg.workers).map(|_| AtomicU64::new(0)).collect(),
            cfg,
        });
        let handles = parkers
            .into_iter()
            .enumerate()
            .map(|(id, parker)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("malthus-crew-{id}"))
                    .spawn(move || worker_loop(id, parker, &shared))
                    .expect("spawn crew worker")
            })
            .collect();
        WorkCrew {
            shared,
            handles: Mutex::new(handles),
        }
    }

    /// Submits a task, blocking while the queue is at its bound
    /// (backpressure).
    ///
    /// Span tracing note: the crew does not stamp tasks itself — a
    /// caller that wants submit→start latency attributed (the KV
    /// service's `queue` stage) captures `span::now_ns()` before this
    /// call and differences it at the top of the task closure, which
    /// covers both the backpressure block here and the backlog wait.
    pub fn submit(&self, task: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        self.submit_boxed(Box::new(task))
    }

    /// [`WorkCrew::submit`] for an already boxed task.
    pub fn submit_boxed(&self, task: Task) -> Result<(), SubmitError> {
        let shared = &*self.shared;
        let mut state = shared.state.lock().expect("crew mutex poisoned");
        while state.queue.len() >= shared.cfg.queue_bound && !state.shutdown {
            state = shared.not_full.wait(state).expect("crew condvar poisoned");
        }
        if state.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        state.queue.push_back(task);
        shared.submitted.fetch_add(1, Ordering::Relaxed);
        malthus_obs::record(
            malthus_obs::EventKind::CrewAdmit,
            state.queue.len() as u64,
            0,
        );
        shared.signal_work(&mut state);
        Ok(())
    }

    /// Submits a task without blocking; fails with
    /// [`SubmitError::QueueFull`] at the bound.
    pub fn try_submit(&self, task: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        let shared = &*self.shared;
        let mut state = shared.state.lock().expect("crew mutex poisoned");
        if state.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if state.queue.len() >= shared.cfg.queue_bound {
            return Err(SubmitError::QueueFull);
        }
        state.queue.push_back(Box::new(task));
        shared.submitted.fetch_add(1, Ordering::Relaxed);
        malthus_obs::record(
            malthus_obs::EventKind::CrewAdmit,
            state.queue.len() as u64,
            0,
        );
        shared.signal_work(&mut state);
        Ok(())
    }

    /// Borrows an **idle** ACS member's place so the caller can run
    /// one unit of crew work on its own thread, with no hand-off.
    ///
    /// Refuses (`None`) when the crew is shutting down, when the queue
    /// is non-empty (a caller never overtakes queued work), or when no
    /// worker is idle (every ACS place is running or lent) — the
    /// caller then falls back to [`WorkCrew::submit`]. The lent worker
    /// stays parked and counted in the ACS, so admission arithmetic is
    /// unchanged; the stall stamp is refreshed as a dequeue would, and
    /// a holder that then blocks is rescued by the same stall-driven
    /// reprovisioning as a blocked task.
    pub fn try_enter(&self) -> Option<Slot<'_>> {
        let shared = &*self.shared;
        let mut state = shared.state.lock().expect("crew mutex poisoned");
        if state.shutdown || !state.queue.is_empty() {
            return None;
        }
        let worker = state.idle.pop()?;
        state.roles[worker] = Role::Lent;
        state.last_dequeue = Instant::now();
        Some(Slot { shared, worker })
    }

    /// Current queue depth (racy diagnostic).
    pub fn backlog(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("crew mutex poisoned")
            .queue
            .len()
    }

    /// Number of passivated workers right now (racy diagnostic).
    pub fn passive_len(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("crew mutex poisoned")
            .passive
            .len()
    }

    /// The configuration the crew was built with.
    pub fn config(&self) -> &PoolConfig {
        &self.shared.cfg
    }

    /// Racy live snapshot of the activity counters.
    pub fn stats(&self) -> PoolStats {
        let s = &*self.shared;
        PoolStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            inline: s.inline.load(Ordering::Relaxed),
            culls: s.culls.load(Ordering::Relaxed),
            reprovisions: s.reprovisions.load(Ordering::Relaxed),
            fairness_promotions: s.fairness_promotions.load(Ordering::Relaxed),
            panicked: s.panicked.load(Ordering::Relaxed),
            per_worker_completed: s
                .per_worker
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Registers the crew's counters and gauges with a metrics
    /// [`Registry`](malthus_obs::Registry).
    ///
    /// The closures capture the crew's shared state (not the
    /// [`WorkCrew`] handle), so the registry does not keep the crew's
    /// public handle alive and re-registration after a crew swap
    /// simply replaces the sources.
    pub fn register_metrics(&self, registry: &malthus_obs::Registry) {
        type SharedCounter = fn(&Shared) -> u64;
        let no_labels: &[(&str, &str)] = &[];
        let counters: [(&str, &str, SharedCounter); 7] = [
            ("crew_submitted_total", "Tasks accepted by the crew.", |s| {
                s.submitted.load(Ordering::Relaxed)
            }),
            (
                "crew_completed_total",
                "Units of work completed: dequeued tasks plus returned slots.",
                |s| s.completed.load(Ordering::Relaxed),
            ),
            (
                "crew_inline_total",
                "Completions that ran on the caller's thread under a lent slot.",
                |s| s.inline.load(Ordering::Relaxed),
            ),
            (
                "crew_culls_total",
                "Workers passivated by admission control.",
                |s| s.culls.load(Ordering::Relaxed),
            ),
            (
                "crew_reprovisions_total",
                "Passive workers self-promoted on backlog stall.",
                |s| s.reprovisions.load(Ordering::Relaxed),
            ),
            (
                "crew_fairness_promotions_total",
                "Eldest passive workers promoted by the fairness trigger.",
                |s| s.fairness_promotions.load(Ordering::Relaxed),
            ),
            ("crew_panicked_total", "Tasks that panicked.", |s| {
                s.panicked.load(Ordering::Relaxed)
            }),
        ];
        for (name, help, f) in counters {
            let shared = Arc::clone(&self.shared);
            registry.counter(name, help, no_labels, move || f(&shared));
        }
        let shared = Arc::clone(&self.shared);
        registry.gauge(
            "crew_active_workers",
            "Workers currently in the active circulating set.",
            no_labels,
            move || {
                let state = shared.state.lock().expect("crew mutex poisoned");
                state.active as f64
            },
        );
        let shared = Arc::clone(&self.shared);
        registry.gauge(
            "crew_passive_workers",
            "Workers currently parked on the passive LIFO stack.",
            no_labels,
            move || {
                let state = shared.state.lock().expect("crew mutex poisoned");
                state.passive.len() as f64
            },
        );
        let shared = Arc::clone(&self.shared);
        registry.gauge(
            "crew_backlog",
            "Tasks queued and not yet dequeued.",
            no_labels,
            move || {
                let state = shared.state.lock().expect("crew mutex poisoned");
                state.queue.len() as f64
            },
        );
    }

    /// Stops accepting work, drains the queue, joins every worker, and
    /// returns the final (exact) statistics. Idempotent.
    pub fn shutdown(&self) -> PoolStats {
        {
            let mut state = self.shared.state.lock().expect("crew mutex poisoned");
            state.shutdown = true;
            // Making every worker `Active` releases idle, lent and
            // passive workers from their park loops; culling is
            // disabled by `shutdown`, so they all help drain the queue.
            state.idle.clear();
            state.passive.clear();
            state.roles.fill(Role::Active);
            state.active = self.shared.cfg.workers;
            drop(state);
            self.shared.not_full.notify_all();
            for u in &self.shared.unparkers {
                u.unpark();
            }
        }
        let handles = std::mem::take(&mut *self.handles.lock().expect("handle mutex poisoned"));
        let me = std::thread::current().id();
        for h in handles {
            // A task holding the last Arc<WorkCrew> drops the crew on
            // a worker thread; joining our own handle would deadlock,
            // so that one worker is left to exit on its own (it is
            // already past its task and headed for the shutdown
            // check).
            if h.thread().id() == me {
                continue;
            }
            h.join().expect("crew worker panicked");
        }
        self.stats()
    }
}

impl Drop for WorkCrew {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for WorkCrew {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkCrew")
            .field("workers", &self.shared.cfg.workers)
            .field("acs_target", &self.shared.cfg.acs_target)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Parks an idle worker until some other thread makes it `Active`
/// again (queued work, a returned slot, or shutdown).
///
/// Returns the re-acquired state guard. Handles spurious parker
/// returns by re-checking the role under the lock: `Idle` and `Lent`
/// both keep parking, so a stray unpark never makes a lent worker
/// dequeue beside its slot holder.
fn park_until_released<'a>(
    me: usize,
    parker: &Parker,
    shared: &'a Shared,
) -> std::sync::MutexGuard<'a, State> {
    loop {
        parker.park();
        let state = shared.state.lock().expect("crew mutex poisoned");
        if state.roles[me] == Role::Active {
            return state;
        }
        drop(state);
    }
}

/// Passive (culled) workers park as *standby threads*: a timed park,
/// with the top of the LIFO stack self-promoting when it observes
/// backlog whose dequeues have stalled a full window — every active
/// worker blocked in a task or descheduled. This keeps the crew work-
/// conserving with no external stall detector, the same trick as the
/// LOITER standby thread's periodic polling (paper, appendix A.1).
///
/// Returns the re-acquired state guard once `me` is active again
/// (self-promotion, fairness promotion, or shutdown release).
fn standby_park<'a>(
    me: usize,
    parker: &Parker,
    shared: &'a Shared,
) -> std::sync::MutexGuard<'a, State> {
    // Off-backlog polling is relaxed: an idle pool's standby threads
    // wake an order of magnitude less often.
    let mut interval = shared.cfg.stall_threshold * 8;
    loop {
        parker.park_timeout(interval);
        let mut state = shared.state.lock().expect("crew mutex poisoned");
        if state.roles[me] != Role::Passive {
            return state; // promoted or released
        }
        let stack_top = state.passive.last() == Some(&me);
        if stack_top
            && !state.shutdown
            && policy::crew_should_reprovision(
                state.queue.len(),
                shared.cfg.backlog_watermark,
                state.passive.len(),
            )
            && state.active < shared.cfg.workers
            && state.last_dequeue.elapsed() >= shared.cfg.stall_threshold
        {
            // Self-promote; resetting the stamp rate-limits the
            // cascade to one promotion per stall window.
            state.passive.pop();
            state.roles[me] = Role::Active;
            state.active += 1;
            state.boost += 1;
            state.last_dequeue = Instant::now();
            state.last_boost_change = Instant::now();
            shared.reprovisions.fetch_add(1, Ordering::Relaxed);
            malthus_obs::record(malthus_obs::EventKind::CrewPromote, me as u64, 0);
            return state;
        }
        // Poll fast while there is work we might have to rescue, slow
        // otherwise.
        interval = if state.queue.is_empty() {
            shared.cfg.stall_threshold * 8
        } else {
            shared.cfg.stall_threshold
        };
        drop(state);
    }
}

fn worker_loop(me: usize, parker: Parker, shared: &Shared) {
    let mut state = shared.state.lock().expect("crew mutex poisoned");
    loop {
        // 1. Admission check: am I surplus? (Disabled during shutdown
        //    so every worker helps drain the queue.)
        if !state.shutdown && policy::crew_has_surplus(state.active, shared.acs_limit(&state)) {
            state.roles[me] = Role::Passive;
            state.active -= 1;
            state.passive.push(me);
            shared.culls.fetch_add(1, Ordering::Relaxed);
            malthus_obs::record(malthus_obs::EventKind::CrewPark, me as u64, 0);
            drop(state);
            state = standby_park(me, &parker, shared);
            continue;
        }
        // 2. Take work.
        if let Some(task) = state.queue.pop_front() {
            state.last_dequeue = Instant::now();
            drop(state);
            shared.not_full.notify_one();
            // A panicking task is a bug in the submitted work, not in
            // the crew; isolate it so the worker (and its slot in the
            // admission machine) survives.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
            match outcome {
                Ok(()) => {
                    shared.completed.fetch_add(1, Ordering::Relaxed);
                    shared.per_worker[me].fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    shared.panicked.fetch_add(1, Ordering::Relaxed);
                }
            }
            state = shared.state.lock().expect("crew mutex poisoned");
            shared.decay_boost(&mut state);
            // 3. Long-term fairness: episodically swap with the eldest
            //    passive worker (stack bottom), keeping the ACS size
            //    unchanged — the pool analogue of the lock ceding
            //    ownership to the tail of its passive list (§4).
            let fire = state.fairness.as_mut().is_some_and(FairnessTrigger::fire);
            if fire && !state.shutdown && !state.passive.is_empty() {
                let eldest = state.passive.remove(0);
                state.roles[eldest] = Role::Active;
                state.roles[me] = Role::Passive;
                state.passive.push(me);
                shared.fairness_promotions.fetch_add(1, Ordering::Relaxed);
                malthus_obs::record(malthus_obs::EventKind::CrewPromote, eldest as u64, 1);
                shared.unparkers[eldest].unpark();
                drop(state);
                state = standby_park(me, &parker, shared);
            }
            continue;
        }
        // 4. Queue empty.
        if state.shutdown {
            return;
        }
        // The backlog has drained: shed one step of reprovision boost
        // so the ACS relaxes back toward its steady-state target.
        if state.boost > 0 {
            state.boost -= 1;
            state.last_boost_change = Instant::now();
        }
        if policy::crew_has_surplus(state.active, shared.acs_limit(&state)) {
            continue; // culled at the top of the loop
        }
        state.roles[me] = Role::Idle;
        state.idle.push(me);
        drop(state);
        state = park_until_released(me, &parker, shared);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    fn count_tasks(crew: &WorkCrew, n: u64) -> Arc<AtomicU64> {
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..n {
            let hits = Arc::clone(&hits);
            crew.submit(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        hits
    }

    #[test]
    fn unrestricted_pool_runs_everything() {
        let crew = WorkCrew::new(PoolConfig::unrestricted(4, 32));
        let hits = count_tasks(&crew, 500);
        let stats = crew.shutdown();
        assert_eq!(hits.load(Ordering::Relaxed), 500);
        assert_eq!(stats.completed, 500);
        assert_eq!(stats.submitted, 500);
        assert_eq!(stats.culls, 0, "unrestricted crews never cull");
        assert_eq!(stats.fairness_promotions, 0);
    }

    #[test]
    fn restricted_pool_culls_but_loses_no_tasks() {
        // 6 workers, ACS of 1: five workers must be culled, and a
        // CPU-bound stream must complete entirely on the restricted
        // set without losing work.
        let cfg = PoolConfig::malthusian(6, 8)
            .with_acs_target(1)
            .with_fairness_period(None);
        let crew = WorkCrew::new(cfg);
        let hits = count_tasks(&crew, 2_000);
        let stats = crew.shutdown();
        assert_eq!(hits.load(Ordering::Relaxed), 2_000, "no lost tasks");
        assert_eq!(stats.completed, 2_000);
        assert!(stats.culls >= 5, "culls = {}", stats.culls);
    }

    #[test]
    fn stalled_service_reprovisions_culled_workers() {
        // ACS of 1 whose only active worker wedges on a gate: the
        // pending backlog must promote a culled worker (work
        // conservation) so no task is stranded behind the blocker.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let cfg = PoolConfig::malthusian(3, 16)
            .with_acs_target(1)
            .with_fairness_period(None)
            .with_stall_threshold(Duration::from_millis(5));
        let crew = WorkCrew::new(cfg);
        // Give culling a moment so the gate lands on the lone active.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while crew.passive_len() < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let g = Arc::clone(&gate);
        crew.submit(move || {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        })
        .unwrap();
        let hits = count_tasks(&crew, 200);
        // The 200 tasks sit behind the wedged worker until the stall
        // window promotes a passive one.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while hits.load(Ordering::Relaxed) < 200 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let drained = hits.load(Ordering::Relaxed);
        let mid_stats = crew.stats();
        // Open the gate before asserting anything: a failed assert
        // must not leave the wedged worker unjoinable.
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        let stats = crew.shutdown();
        assert_eq!(drained, 200, "tasks stranded: {mid_stats:?}");
        assert!(mid_stats.reprovisions >= 1, "{mid_stats:?}");
        assert_eq!(stats.completed, 201);
    }

    #[test]
    fn fairness_trigger_promotes_the_eldest_passive_worker() {
        // ACS of 1 with an aggressive fairness period: every worker
        // must eventually rotate through the ACS and complete tasks.
        let cfg = PoolConfig::malthusian(4, 16)
            .with_acs_target(1)
            .with_fairness_period(Some(4))
            .with_backlog_watermark(16); // never reprovision via backlog
        let crew = WorkCrew::new(cfg);
        let hits = count_tasks(&crew, 3_000);
        let stats = crew.shutdown();
        assert_eq!(hits.load(Ordering::Relaxed), 3_000);
        assert!(
            stats.fairness_promotions > 0,
            "promotions = {}",
            stats.fairness_promotions
        );
        for (w, &n) in stats.per_worker_completed.iter().enumerate() {
            assert!(
                n > 0,
                "worker {w} starved despite fairness: {:?}",
                stats.per_worker_completed
            );
        }
    }

    #[test]
    fn try_submit_reports_a_full_queue() {
        // One worker wedged on a gate keeps the queue from draining.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let crew = WorkCrew::new(
            PoolConfig::malthusian(1, 2)
                .with_acs_target(1)
                .with_fairness_period(None),
        );
        let g = Arc::clone(&gate);
        crew.submit(move || {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        })
        .unwrap();
        // Fill the bound while the worker is wedged.
        let mut saw_full = false;
        for _ in 0..50 {
            match crew.try_submit(|| {}) {
                Ok(()) => {}
                Err(SubmitError::QueueFull) => {
                    saw_full = true;
                    break;
                }
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(saw_full, "bounded queue must eventually refuse work");
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        crew.shutdown();
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let crew = WorkCrew::new(PoolConfig::unrestricted(2, 8));
        crew.shutdown();
        assert_eq!(crew.submit(|| {}), Err(SubmitError::ShuttingDown));
        assert_eq!(crew.try_submit(|| {}), Err(SubmitError::ShuttingDown));
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let crew = WorkCrew::new(PoolConfig::malthusian(3, 8).with_acs_target(1));
        let hits = count_tasks(&crew, 50);
        let a = crew.shutdown();
        let b = crew.shutdown();
        assert_eq!(a, b);
        assert_eq!(hits.load(Ordering::Relaxed), 50);
        drop(crew); // Drop after explicit shutdown must not hang.
    }

    #[test]
    fn blocking_submit_applies_backpressure_without_loss() {
        let crew = Arc::new(WorkCrew::new(
            PoolConfig::malthusian(2, 4)
                .with_acs_target(1)
                .with_backlog_watermark(2),
        ));
        let hits = Arc::new(AtomicU64::new(0));
        let submitters: Vec<_> = (0..3)
            .map(|_| {
                let crew = Arc::clone(&crew);
                let hits = Arc::clone(&hits);
                std::thread::spawn(move || {
                    for _ in 0..300 {
                        let hits = Arc::clone(&hits);
                        crew.submit(move || {
                            hits.fetch_add(1, Ordering::Relaxed);
                            // A touch of work so the queue actually fills.
                            std::hint::black_box(std::time::Instant::now());
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for s in submitters {
            s.join().unwrap();
        }
        let stats = crew.shutdown();
        assert_eq!(stats.completed, 900);
        assert_eq!(hits.load(Ordering::Relaxed), 900);
    }

    #[test]
    fn passive_len_reflects_culling() {
        let crew = WorkCrew::new(
            PoolConfig::malthusian(4, 8)
                .with_acs_target(1)
                .with_fairness_period(None),
        );
        // With no work, three workers are surplus and must passivate.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while crew.passive_len() < 3 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(crew.passive_len(), 3);
        crew.shutdown();
    }

    #[test]
    fn panicking_tasks_are_isolated() {
        let crew = WorkCrew::new(PoolConfig::unrestricted(2, 8));
        crew.submit(|| panic!("request bug")).unwrap();
        let hits = count_tasks(&crew, 20);
        let stats = crew.shutdown();
        assert_eq!(hits.load(Ordering::Relaxed), 20, "workers must survive");
        assert_eq!(stats.panicked, 1);
        assert_eq!(stats.completed, 20);
    }

    /// Spins until the crew has an idle ACS member to lend (workers
    /// take a moment to start, cull and idle).
    fn enter_when_idle(crew: &WorkCrew) -> Slot<'_> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(slot) = crew.try_enter() {
                return slot;
            }
            assert!(Instant::now() < deadline, "no worker ever idled");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn wait_for(hits: &AtomicU64, n: u64) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        while hits.load(Ordering::Relaxed) < n && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        hits.load(Ordering::Relaxed) >= n
    }

    #[test]
    fn try_enter_never_overtakes_queued_work() {
        // (b) A task already queued — here planted without the wake a
        // real submit sends, so a worker is idle *and* the queue is
        // non-empty — must make `try_enter` refuse, and must run
        // before anything submitted after it.
        let crew = WorkCrew::new(PoolConfig::unrestricted(1, 8));
        drop(enter_when_idle(&crew));
        let order = Arc::new(Mutex::new(Vec::new()));
        let o = Arc::clone(&order);
        let first: Task = Box::new(move || o.lock().unwrap().push(1));
        crew.shared.state.lock().unwrap().queue.push_back(first);
        assert!(crew.try_enter().is_none(), "queued work must go first");
        let o = Arc::clone(&order);
        crew.submit(move || o.lock().unwrap().push(2)).unwrap();
        let stats = crew.shutdown();
        assert_eq!(*order.lock().unwrap(), [1, 2]);
        assert_eq!((stats.completed, stats.inline), (3, 1));
        assert_eq!(stats.per_worker_completed, [2], "slots are not a worker's");
    }

    #[test]
    fn a_panicking_slot_holder_returns_the_slot() {
        // (c) One worker, so a slot that is not given back leaves
        // nobody to run the next task (no passive worker to promote).
        let crew = WorkCrew::new(PoolConfig::unrestricted(1, 8));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _slot = enter_when_idle(&crew);
            panic!("request bug on a connection thread");
        }));
        assert!(outcome.is_err());
        let hits = count_tasks(&crew, 1);
        let ran = wait_for(&hits, 1);
        let relent = crew.try_enter().is_some();
        let stats = crew.shutdown();
        assert!(ran, "the slot was not given back: {stats:?}");
        assert!(relent, "the worker must be lendable again");
        assert_eq!((stats.panicked, stats.completed, stats.inline), (1, 2, 1));
    }

    #[test]
    fn a_blocked_slot_holder_triggers_stall_reprovisioning() {
        // (e) ACS of 1, lent to a holder that then "blocks" (as in a
        // write to a slow client): the backlog behind it must promote
        // a culled worker exactly as a blocked task would.
        let cfg = PoolConfig::malthusian(3, 32)
            .with_acs_target(1)
            .with_fairness_period(None)
            .with_stall_threshold(Duration::from_millis(5));
        let crew = WorkCrew::new(cfg);
        let slot = enter_when_idle(&crew);
        let hits = count_tasks(&crew, 20);
        let drained = wait_for(&hits, 20);
        let mid_stats = crew.stats();
        drop(slot);
        let stats = crew.shutdown();
        assert!(drained, "tasks stranded behind the slot: {mid_stats:?}");
        assert!(mid_stats.reprovisions >= 1, "{mid_stats:?}");
        assert_eq!((stats.completed, stats.inline), (21, 1));
    }

    #[test]
    fn a_spurious_unpark_leaves_a_lent_worker_parked() {
        // (f) The only worker is lent and a task waits in the queue: a
        // stray unpark must not make the worker dequeue beside its
        // slot holder — that would be two threads in an ACS of one.
        let crew = WorkCrew::new(PoolConfig::unrestricted(1, 8));
        let slot = enter_when_idle(&crew);
        let hits = count_tasks(&crew, 1);
        for _ in 0..5 {
            crew.shared.unparkers[slot.worker].unpark();
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(hits.load(Ordering::Relaxed), 0, "lent worker dequeued");
        assert_eq!(
            crew.shared.state.lock().unwrap().roles[slot.worker],
            Role::Lent
        );
        drop(slot); // queue non-empty: the worker is woken, not idled
        assert!(wait_for(&hits, 1), "returned slot must wake the worker");
        crew.shutdown();
    }

    #[test]
    #[should_panic(expected = "watermark beyond the queue bound")]
    fn unreachable_watermark_is_rejected() {
        WorkCrew::new(PoolConfig::malthusian(2, 8).with_backlog_watermark(9));
    }

    #[test]
    #[should_panic(expected = "ACS target cannot exceed")]
    fn invalid_config_panics() {
        WorkCrew::new(PoolConfig {
            workers: 2,
            acs_target: 3,
            queue_bound: 4,
            backlog_watermark: 2,
            stall_threshold: Duration::from_millis(5),
            fairness_period: None,
            seed: 1,
        });
    }
}
