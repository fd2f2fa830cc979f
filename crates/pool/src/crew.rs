//! The Malthusian work crew: a concurrency-restricting executor.
//!
//! A bounded task queue feeds `workers` OS threads, but only an
//! admission-controlled **active circulating set** (ACS) of them
//! dequeues at any moment; the rest are culled onto a LIFO **passive
//! stack** and parked on their [`Parker`]s. Who circulates and who is
//! parked is not decided here: that is [`Membership`], the
//! executor-level machine the reactor owns too, kept inside the crew's
//! one mutex and told one event at a time.
//!
//! * **Culling, reprovisioning, boost decay, long-term fairness** —
//!   [`Membership`]'s. The crew supplies its events: *progress* is a
//!   dequeue (or a slot lent), *drained* is a worker finding the queue
//!   empty, *work waiting* is a non-empty queue; a unit of work taken
//!   is the moment for boost decay, one finished for the fairness rotation
//!   (one clock reading per unit either way). It parks a
//!   culled worker as a *standby thread* (the paper's LOITER appendix,
//!   A.1: a timed park, after which the worker asks the machine
//!   whether it is still passive and whether it must rescue a stalled
//!   queue) and unparks whom the machine names.
//! * **The queue and `Idle`** — the crew's own. An ACS member that
//!   finds the queue empty parks as *idle* (still counted in the ACS)
//!   and the next submission wakes the most recently idled one.
//! * **Lending** — a thread that would otherwise block on a crew
//!   round trip (submit, park, be unparked by the worker's reply) may
//!   instead borrow an ACS member's place and run the work itself: no
//!   crew worker is woken on the critical path (§4, and the hand-off
//!   costs of §5). [`WorkCrew::try_enter`] lends an *idle* member's
//!   place or refuses; [`WorkCrew::enter`] lends one too, and when none
//!   is idle its caller joins the queue as a *waiter* and parks until a
//!   place is handed to it — by a dropped [`Slot`], or by a worker that
//!   pops it after a task, which then parks in its stead. That costs
//!   one wake-up (the waiter's), not the two of a submitted task. The
//!   lent worker stays parked and stays counted in the ACS, so the
//!   number of threads executing crew work never exceeds the ACS
//!   limit. Waiters and tasks share the one FIFO queue, so nobody
//!   overtakes queued work in either direction, and a place is only
//!   lent at once while the queue is empty. Dropping the [`Slot`]
//!   returns the place exactly as the worker finishing a task would
//!   have, handing it straight on if a waiter is next.
//!
//! Tasks are never lost: culled workers are reprovisioned while
//! backlog exists, and [`WorkCrew::shutdown`] drains the queue before
//! any worker exits.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use malthus::policy::{self, Admission, Membership, MembershipStats};
use malthus_park::{Parker, Unparker};

/// A unit of work.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// What the crew's one FIFO queue holds: work for a worker to run, or
/// a thread parked in [`WorkCrew::enter`] until a place is handed to it.
enum Job {
    Task(Task),
    Waiter(Arc<Grant>),
}

/// A [`Grant`] not yet answered.
const WAITING: usize = usize::MAX;
/// A [`Grant`] answered by shutdown: no place will come.
const SHUT: usize = usize::MAX - 1;

/// The shared half of a [`Waiter`]: where a returned place is granted.
struct Grant {
    /// [`WAITING`], [`SHUT`] or the id of the worker whose place it is:
    /// stored `Release` by whoever answers, loaded `Acquire` by the
    /// waiter.
    answer: AtomicUsize,
    unparker: Unparker,
}

impl Grant {
    /// Answers the waiter and wakes it; the one unpark of a hand-off.
    fn answer(&self, answer: usize) {
        self.answer.store(answer, Ordering::Release);
        self.unparker.unpark();
    }
}

/// A thread's standing record for [`WorkCrew::enter`]: the parker it
/// waits on and the cell a place is granted through. Made once per
/// entering thread (the threaded KV front-end keeps one per
/// connection), so a warm `enter` allocates nothing, even when it
/// waits.
pub struct Waiter {
    parker: Parker,
    grant: Arc<Grant>,
}

impl Waiter {
    /// A record for the calling thread to wait on.
    pub fn new() -> Self {
        let parker = Parker::new();
        let grant = Arc::new(Grant {
            answer: AtomicUsize::new(WAITING),
            unparker: parker.unparker(),
        });
        Waiter { parker, grant }
    }
}

impl Default for Waiter {
    fn default() -> Self {
        Self::new()
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The crew is shutting down; no new work is accepted.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::ShuttingDown => write!(f, "work crew is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Configuration for a [`WorkCrew`]: its admission point and the
/// bound of the queue that feeds it.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Workers, ACS target, stall window and fairness period.
    pub admission: Admission,
    /// Task-queue bound; blocking [`WorkCrew::submit`] applies
    /// backpressure past it.
    pub queue_bound: usize,
}

impl PoolConfig {
    /// A crew admitted by `admission` behind a queue of `queue_bound`.
    pub fn new(admission: Admission, queue_bound: usize) -> Self {
        PoolConfig {
            admission,
            queue_bound,
        }
    }

    /// A crew of [`Admission::malthusian`] workers.
    pub fn malthusian(workers: usize, queue_bound: usize) -> Self {
        Self::new(Admission::malthusian(workers), queue_bound)
    }

    /// Overrides the steady-state ACS limit.
    pub fn with_acs_target(mut self, acs_target: usize) -> Self {
        self.admission = self.admission.with_acs_target(acs_target);
        self
    }
}

/// Counter snapshot of crew activity.
///
/// Live snapshots ([`WorkCrew::stats`]) are racy reads, same contract
/// as the lock `cr_stats`; totals are exact once the crew has been
/// shut down.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks accepted by [`WorkCrew::submit`].
    pub submitted: u64,
    /// Units of work executed to completion: dequeued tasks plus
    /// [`Slot`]s returned.
    pub completed: u64,
    /// The part of `completed` that ran on the caller's thread under a
    /// lent [`Slot`]; not charged to `per_worker_completed`.
    pub inline: u64,
    /// [`WorkCrew::enter`] calls that found no idle place to lend (queue
    /// non-empty or no worker idle) and waited for one to be handed
    /// over.
    pub enter_refused: u64,
    /// The admission machine: ACS size and target, passive depth,
    /// culls, reprovisions and fairness promotions.
    pub members: MembershipStats,
    /// Tasks that panicked (isolated; the worker survives).
    pub panicked: u64,
    /// Tasks completed per worker, indexed by worker id.
    pub per_worker_completed: Vec<u64>,
}

/// What a worker that [`Membership`] does not hold passive is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Running a task or hunting for one.
    Active,
    /// In the ACS but parked because the queue was empty.
    Idle,
    /// In the ACS and parked, its place lent to a [`Slot`] holder.
    Lent,
}

struct State {
    /// Tasks and waiters, served in arrival order.
    queue: VecDeque<Job>,
    /// How many of `queue` are waiters (they do not count against the
    /// queue bound: each entering thread has at most one).
    waiters: usize,
    roles: Vec<Role>,
    /// Ids of `Idle` workers, most recently idled last.
    idle: Vec<usize>,
    /// Who circulates and who is culled; `Idle` and `Lent` workers
    /// count as active in it.
    members: Membership,
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
    enter_refused: AtomicU64,
    panicked: AtomicU64,
    per_worker: Vec<AtomicU64>,
}

impl Shared {
    /// Racy snapshot of the membership gauges and counters.
    fn members(&self) -> MembershipStats {
        let state = self.state.lock().expect("crew mutex poisoned");
        state.members.stats()
    }

    /// The backlog the stack top must rescue if dequeues stall.
    fn work_waiting(&self, state: &State) -> bool {
        !state.queue.is_empty()
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

    /// Marks `worker`'s place lent and refreshes the stall stamp as a
    /// dequeue would (the caller has shed any stale boost at `now`
    /// first); the caller hands the place to its new holder.
    fn lend(&self, state: &mut State, worker: usize, now: Instant) {
        state.roles[worker] = Role::Lent;
        state.members.progress(now);
    }

    /// Lends the most recently idled worker's place to the calling
    /// thread, if the queue is empty (nobody is overtaken) and a worker
    /// is idle.
    fn lend_idle(&self, state: &mut State) -> Option<Slot<'_>> {
        if !state.queue.is_empty() {
            return None;
        }
        let worker = state.idle.pop()?;
        let now = Instant::now();
        state.members.decay(now);
        self.lend(state, worker, now);
        Some(Slot {
            shared: self,
            worker,
        })
    }
}

/// An ACS place lent by [`WorkCrew::enter`] or [`WorkCrew::try_enter`]:
/// while it lives, the holder's thread stands in for one parked crew
/// worker. Dropping it (also on unwind) does that worker's post-task
/// bookkeeping and returns the place — straight to the waiter at the
/// front of the queue, if one is there.
///
/// Hold it for the shared-state work only. Every place held is one the
/// next caller cannot borrow and must wait for — so private work that
/// can wait (writing a reply to the holder's own socket) belongs after
/// the drop, as the threaded KV front-end does it.
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
        if state.roles[w] != Role::Lent {
            return; // `shutdown` already released the worker
        }
        // A waiter next in line takes the place as it stands: the
        // worker stays parked and `Lent`, unless its boost has decayed
        // to a surplus, which is not passed on.
        if let Some(Job::Waiter(_)) = state.queue.front() {
            let now = Instant::now();
            state.members.decay(now);
            if !state.members.surplus() {
                let Some(Job::Waiter(next)) = state.queue.pop_front() else {
                    unreachable!("the front is a waiter");
                };
                state.waiters -= 1;
                shared.lend(&mut state, w, now);
                drop(state);
                next.answer(w);
                return;
            }
        }
        // Work queued behind the slot, or a boost that decayed to a
        // surplus: the worker must run its own loop. Otherwise it goes
        // back to being the most recently idled member.
        if state.queue.is_empty() && !state.members.surplus() {
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
    /// Panics if the admission point is invalid ([`Membership::new`])
    /// or the queue bound is zero.
    pub fn new(cfg: PoolConfig) -> Self {
        let members = Membership::new(cfg.admission, Instant::now());
        assert!(cfg.queue_bound > 0, "queue bound must be positive");
        let workers = cfg.admission.workers;
        let parkers: Vec<Parker> = (0..workers).map(|_| Parker::new()).collect();
        let unparkers: Vec<Unparker> = parkers.iter().map(Parker::unparker).collect();
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                waiters: 0,
                roles: vec![Role::Active; workers],
                idle: Vec::new(),
                members,
                shutdown: false,
            }),
            not_full: Condvar::new(),
            unparkers,
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            inline: AtomicU64::new(0),
            enter_refused: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            per_worker: (0..workers).map(|_| AtomicU64::new(0)).collect(),
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
    /// The crew does not stamp tasks itself: a caller that wants
    /// submit→start latency captures a clock before this call and
    /// differences it at the top of the task closure, which covers both
    /// the backpressure block here and the backlog wait.
    pub fn submit(&self, task: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        // Allocate outside the crew's critical section.
        let task: Task = Box::new(task);
        let shared = &*self.shared;
        let mut state = shared.state.lock().expect("crew mutex poisoned");
        while state.queue.len() - state.waiters >= shared.cfg.queue_bound && !state.shutdown {
            state = shared.not_full.wait(state).expect("crew condvar poisoned");
        }
        if state.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        state.queue.push_back(Job::Task(task));
        shared.submitted.fetch_add(1, Ordering::Relaxed);
        malthus_obs::record(
            malthus_obs::EventKind::CrewAdmit,
            state.queue.len() as u64,
            0,
        );
        shared.signal_work(&mut state);
        Ok(())
    }

    /// Borrows an ACS member's place so the caller can run one unit of
    /// crew work on its own thread, with no hand-off; waits for one if
    /// none is idle.
    ///
    /// With the queue empty and a worker idle, the place is lent at
    /// once, as [`WorkCrew::try_enter`] lends it. Otherwise the caller
    /// joins the back of the queue as a waiter (counted in
    /// [`PoolStats::enter_refused`]) and parks on `waiter` until
    /// whoever next returns a place with the waiter at the front hands
    /// it over: a dropped [`Slot`], or a worker done with its task,
    /// which then parks `Lent` in its stead. The executing set never
    /// exceeds the ACS, a grant refreshes the stall stamp as a lend
    /// does, and a holder that blocks is rescued by the same
    /// stall-driven reprovisioning as a blocked task — the promoted
    /// worker pops the waiter and lends it its own place.
    ///
    /// `None` only when the crew is shutting down, which releases every
    /// waiter.
    pub fn enter(&self, waiter: &mut Waiter) -> Option<Slot<'_>> {
        let shared = &*self.shared;
        let mut state = shared.state.lock().expect("crew mutex poisoned");
        if state.shutdown {
            return None;
        }
        if let Some(slot) = shared.lend_idle(&mut state) {
            return Some(slot);
        }
        waiter.grant.answer.store(WAITING, Ordering::Relaxed);
        state
            .queue
            .push_back(Job::Waiter(Arc::clone(&waiter.grant)));
        state.waiters += 1;
        drop(state);
        shared.enter_refused.fetch_add(1, Ordering::Relaxed);
        loop {
            match waiter.grant.answer.load(Ordering::Acquire) {
                WAITING => waiter.parker.park(),
                SHUT => return None,
                worker => return Some(Slot { shared, worker }),
            }
        }
    }

    /// The non-blocking [`WorkCrew::enter`]: borrows an **idle** ACS
    /// member's place, or refuses (`None`) when the crew is shutting
    /// down, when the queue is non-empty (a caller never overtakes
    /// queued work or waiters), or when no worker is idle (every ACS
    /// place is running or lent).
    pub fn try_enter(&self) -> Option<Slot<'_>> {
        let shared = &*self.shared;
        let mut state = shared.state.lock().expect("crew mutex poisoned");
        if state.shutdown {
            return None;
        }
        shared.lend_idle(&mut state)
    }

    /// Racy live snapshot of the activity counters.
    pub fn stats(&self) -> PoolStats {
        let s = &*self.shared;
        PoolStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            inline: s.inline.load(Ordering::Relaxed),
            enter_refused: s.enter_refused.load(Ordering::Relaxed),
            members: s.members(),
            panicked: s.panicked.load(Ordering::Relaxed),
            per_worker_completed: s
                .per_worker
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Registers the crew's counters and gauges with a metrics
    /// [`Registry`](malthus_obs::Registry): its admission point as
    /// `point="crew"` ([`policy::register_admission`]) and the crew's
    /// own queue and completion counts.
    ///
    /// The closures capture the crew's shared state (not the
    /// [`WorkCrew`] handle), so the registry does not keep the crew's
    /// public handle alive and re-registration after a crew swap
    /// simply replaces the sources.
    pub fn register_metrics(&self, registry: &malthus_obs::Registry) {
        type SharedCounter = fn(&Shared) -> u64;
        let counters: [(&str, &str, SharedCounter); 5] = [
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
                "crew_enter_refused_total",
                "enter calls that found no idle place and waited for one.",
                |s| s.enter_refused.load(Ordering::Relaxed),
            ),
            ("crew_panicked_total", "Tasks that panicked.", |s| {
                s.panicked.load(Ordering::Relaxed)
            }),
        ];
        for (name, help, f) in counters {
            let shared = Arc::clone(&self.shared);
            registry.counter(name, help, &[], move || f(&shared));
        }
        let shared = Arc::clone(&self.shared);
        policy::register_admission(registry, "crew", "crew_", move || shared.members());
        let shared = Arc::clone(&self.shared);
        registry.gauge(
            "crew_backlog",
            "Tasks and waiters queued and not yet served.",
            &[],
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
            // Every waiter leaves empty-handed: no place is lent from
            // here on, and the queue keeps only the tasks to drain.
            state.queue.retain(|job| match job {
                Job::Task(_) => true,
                Job::Waiter(grant) => {
                    grant.answer(SHUT);
                    false
                }
            });
            state.waiters = 0;
            // Making every worker `Active` releases idle, lent and
            // passive workers from their park loops, and nothing culls
            // after `release_all`, so they all help drain the queue.
            state.idle.clear();
            state.members.release_all();
            state.roles.fill(Role::Active);
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
            .field("admission", &self.shared.cfg.admission)
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
) -> MutexGuard<'a, State> {
    loop {
        parker.park();
        let state = shared.state.lock().expect("crew mutex poisoned");
        if state.roles[me] == Role::Active {
            return state;
        }
        drop(state);
    }
}

/// Parks a culled worker as a *standby thread*: a timed park, after
/// every return from which — timeout, promotion, shutdown or a stray
/// unpark alike — it asks the machine whether it is still passive and,
/// if so, whether it is the stack top with a stalled backlog to
/// rescue. This keeps the crew work-conserving with no external stall
/// detector, the same trick as the LOITER standby thread's periodic
/// polling (paper, appendix A.1).
///
/// Takes the state guard the worker was culled under and returns the
/// re-acquired one once `me` is active again.
fn standby_park<'a>(
    me: usize,
    parker: &Parker,
    shared: &'a Shared,
    mut state: MutexGuard<'a, State>,
) -> MutexGuard<'a, State> {
    loop {
        let interval = state.members.standby_interval(shared.work_waiting(&state));
        drop(state);
        parker.park_timeout(interval);
        state = shared.state.lock().expect("crew mutex poisoned");
        if !state.members.is_passive(me) {
            return state; // rotated in or released
        }
        let waiting = shared.work_waiting(&state);
        if state
            .members
            .promote_if_stalled(me, waiting, Instant::now())
        {
            malthus_obs::record(malthus_obs::EventKind::CrewPromote, me as u64, 0);
            return state;
        }
    }
}

fn worker_loop(me: usize, parker: Parker, shared: &Shared) {
    let mut state = shared.state.lock().expect("crew mutex poisoned");
    loop {
        // One clock reading per unit of work, taken with the lock held
        // so the dequeue stamp is exact.
        let now = Instant::now();
        // 1. Admission check: shed a boost no stall has renewed, then
        //    am I surplus? (Never again once shutdown has released
        //    everyone, so every worker helps drain.)
        state.members.decay(now);
        if state.members.cull(me) {
            malthus_obs::record(malthus_obs::EventKind::CrewPark, me as u64, 0);
            state = standby_park(me, &parker, shared, state);
            continue;
        }
        // 2. Take work: a task to run, or a waiter to lend my place
        //    to — I park `Lent` in its stead until the place comes back.
        match state.queue.pop_front() {
            Some(Job::Task(task)) => {
                state.members.progress(now);
                drop(state);
                shared.not_full.notify_one();
                // A panicking task is a bug in the submitted work, not
                // in the crew; isolate it so the worker (and its slot
                // in the admission machine) survives.
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
                // 3. Long-term fairness: episodically swap with the
                //    eldest passive worker — the pool analogue of the
                //    lock ceding ownership to the tail of its passive
                //    list (§4).
                if let Some(eldest) = state.members.rotate(me) {
                    malthus_obs::record(malthus_obs::EventKind::CrewPromote, eldest as u64, 1);
                    shared.unparkers[eldest].unpark();
                    state = standby_park(me, &parker, shared, state);
                }
                continue;
            }
            Some(Job::Waiter(next)) => {
                state.waiters -= 1;
                shared.lend(&mut state, me, now);
                drop(state);
                next.answer(me);
                state = park_until_released(me, &parker, shared);
                continue;
            }
            None => {}
        }
        // 4. Queue empty.
        if state.shutdown {
            return;
        }
        state.members.drained(now);
        if state.members.surplus() {
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
        let crew = WorkCrew::new(PoolConfig::new(Admission::unrestricted(4), 32));
        let hits = count_tasks(&crew, 500);
        let stats = crew.shutdown();
        assert_eq!(hits.load(Ordering::Relaxed), 500);
        assert_eq!(stats.completed, 500);
        assert_eq!(stats.submitted, 500);
        assert_eq!(stats.members.culls, 0, "unrestricted crews never cull");
        assert_eq!(stats.members.fairness_promotions, 0);
    }

    #[test]
    fn restricted_pool_culls_but_loses_no_tasks() {
        // 6 workers, ACS of 1: five workers must be culled, and a
        // CPU-bound stream must complete entirely on the restricted
        // set without losing work.
        let admission = Admission::malthusian(6)
            .with_acs_target(1)
            .with_fairness_period(None);
        let cfg = PoolConfig::new(admission, 8);
        let crew = WorkCrew::new(cfg);
        let hits = count_tasks(&crew, 2_000);
        let stats = crew.shutdown();
        assert_eq!(hits.load(Ordering::Relaxed), 2_000, "no lost tasks");
        assert_eq!(stats.completed, 2_000);
        assert!(stats.members.culls >= 5, "culls = {}", stats.members.culls);
    }

    #[test]
    fn stalled_service_reprovisions_culled_workers() {
        // ACS of 1 whose only active worker wedges on a gate: the
        // pending backlog must promote a culled worker (work
        // conservation) so no task is stranded behind the blocker.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let admission = Admission::malthusian(3)
            .with_acs_target(1)
            .with_fairness_period(None)
            .with_stall(Duration::from_millis(5));
        let cfg = PoolConfig::new(admission, 16);
        let crew = WorkCrew::new(cfg);
        // Give culling a moment so the gate lands on the lone active.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while crew.stats().members.passive < 2 && std::time::Instant::now() < deadline {
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
        assert!(mid_stats.members.reprovisions >= 1, "{mid_stats:?}");
        assert_eq!(stats.completed, 201);
    }

    #[test]
    fn fairness_trigger_promotes_the_eldest_passive_worker() {
        // ACS of 1 with an aggressive fairness period: every worker
        // must eventually rotate through the ACS and complete tasks.
        let admission = Admission::malthusian(4)
            .with_acs_target(1)
            .with_fairness_period(Some(4))
            .with_stall(Duration::from_secs(3600)); // never reprovision via backlog
        let cfg = PoolConfig::new(admission, 16);
        let crew = WorkCrew::new(cfg);
        let hits = count_tasks(&crew, 3_000);
        let stats = crew.shutdown();
        assert_eq!(hits.load(Ordering::Relaxed), 3_000);
        assert!(
            stats.members.fairness_promotions > 0,
            "promotions = {}",
            stats.members.fairness_promotions
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
    fn submit_after_shutdown_is_refused() {
        let crew = WorkCrew::new(PoolConfig::new(Admission::unrestricted(2), 8));
        crew.shutdown();
        assert_eq!(crew.submit(|| {}), Err(SubmitError::ShuttingDown));
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
            PoolConfig::malthusian(2, 4).with_acs_target(1),
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
    fn passive_depth_reflects_culling() {
        let admission = Admission::malthusian(4)
            .with_acs_target(1)
            .with_fairness_period(None);
        let crew = WorkCrew::new(PoolConfig::new(admission, 8));
        // With no work, three workers are surplus and must passivate.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while crew.stats().members.passive < 3 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(crew.stats().members.passive, 3);
        crew.shutdown();
    }

    #[test]
    fn panicking_tasks_are_isolated() {
        let crew = WorkCrew::new(PoolConfig::new(Admission::unrestricted(2), 8));
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
        let crew = WorkCrew::new(PoolConfig::new(Admission::unrestricted(1), 8));
        drop(enter_when_idle(&crew));
        let order = Arc::new(Mutex::new(Vec::new()));
        let o = Arc::clone(&order);
        let first: Task = Box::new(move || o.lock().unwrap().push(1));
        crew.shared
            .state
            .lock()
            .unwrap()
            .queue
            .push_back(Job::Task(first));
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
        let crew = WorkCrew::new(PoolConfig::new(Admission::unrestricted(1), 8));
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
        let admission = Admission::malthusian(3)
            .with_acs_target(1)
            .with_fairness_period(None)
            .with_stall(Duration::from_millis(5));
        let cfg = PoolConfig::new(admission, 32);
        let crew = WorkCrew::new(cfg);
        let slot = enter_when_idle(&crew);
        let hits = count_tasks(&crew, 20);
        let drained = wait_for(&hits, 20);
        let mid_stats = crew.stats();
        drop(slot);
        let stats = crew.shutdown();
        assert!(drained, "tasks stranded behind the slot: {mid_stats:?}");
        assert!(mid_stats.members.reprovisions >= 1, "{mid_stats:?}");
        assert_eq!((stats.completed, stats.inline), (21, 1));
    }

    #[test]
    fn a_spurious_unpark_leaves_a_lent_worker_parked() {
        // (f) The only worker is lent and a task waits in the queue: a
        // stray unpark must not make the worker dequeue beside its
        // slot holder — that would be two threads in an ACS of one.
        let crew = WorkCrew::new(PoolConfig::new(Admission::unrestricted(1), 8));
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
    fn a_spurious_unpark_leaves_a_passive_worker_parked() {
        // (g) The only ACS member is wedged in a task and another task
        // waits; with a stall window of an hour nothing legitimately
        // promotes the culled worker, so a stray unpark must not make
        // it dequeue — that would be two threads in an ACS of one.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let admission = Admission::malthusian(2)
            .with_acs_target(1)
            .with_fairness_period(None)
            .with_stall(Duration::from_secs(3600));
        let cfg = PoolConfig::new(admission, 8);
        let crew = WorkCrew::new(cfg);
        let deadline = Instant::now() + Duration::from_secs(10);
        while crew.stats().members.passive < 1 && Instant::now() < deadline {
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
        let hits = count_tasks(&crew, 1);
        let is_passive = |w| crew.shared.state.lock().unwrap().members.is_passive(w);
        let passive = (0..2).find(|&w| is_passive(w));
        for _ in 0..5 {
            crew.shared.unparkers[passive.unwrap_or(0)].unpark();
            std::thread::sleep(Duration::from_millis(10));
        }
        let ran_early = hits.load(Ordering::Relaxed);
        let still_passive = passive.is_some_and(is_passive);
        // Open the gate before asserting anything: a failed assert
        // must not leave the wedged worker unjoinable.
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        assert!(wait_for(&hits, 1), "the queued task never ran");
        let stats = crew.shutdown();
        assert_eq!(ran_early, 0, "the passive worker dequeued");
        assert!(still_passive, "passive = {passive:?}");
        assert_eq!(
            (stats.members.culls, stats.members.reprovisions),
            (1, 0),
            "{stats:?}"
        );
    }

    /// Waits until the crew's queue holds `n` jobs (tasks and waiters).
    fn wait_for_backlog(crew: &WorkCrew, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while crew.shared.state.lock().unwrap().queue.len() < n {
            assert!(Instant::now() < deadline, "the backlog never reached {n}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn waiters_and_tasks_are_served_in_one_fifo_order() {
        // One worker, its place held here: a task, a waiter, a task and
        // a waiter queue behind it in that order, and each is served
        // in turn — the worker runs a task, then hands its place to the
        // waiter behind it, which hands it back by dropping its slot.
        let crew = Arc::new(WorkCrew::new(PoolConfig::new(
            Admission::unrestricted(1),
            8,
        )));
        let slot = enter_when_idle(&crew);
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut waiters = Vec::new();
        for (at, label) in [1, 2, 3, 4].into_iter().enumerate() {
            let o = Arc::clone(&order);
            if label % 2 == 1 {
                crew.submit(move || o.lock().unwrap().push(label)).unwrap();
            } else {
                let crew = Arc::clone(&crew);
                waiters.push(std::thread::spawn(move || {
                    let slot = crew.enter(&mut Waiter::new());
                    assert!(slot.is_some(), "a waiter was refused");
                    o.lock().unwrap().push(label);
                }));
            }
            wait_for_backlog(&crew, at + 1);
        }
        assert!(crew.try_enter().is_none(), "nobody overtakes the queue");
        drop(slot);
        for w in waiters {
            w.join().unwrap();
        }
        let stats = crew.shutdown();
        assert_eq!(*order.lock().unwrap(), [1, 2, 3, 4]);
        assert_eq!((stats.completed, stats.inline), (5, 3));
        assert_eq!(stats.enter_refused, 2, "both waiters waited");
    }

    #[test]
    fn entering_threads_never_exceed_the_acs() {
        // Eight threads enter an ACS of 2 in a loop; with no stall
        // rescue (a window of an hour) nothing may widen the set, so at
        // most two of them ever hold a place at once.
        const THREADS: u64 = 8;
        const ROUNDS: u64 = 2_000;
        let admission = Admission::malthusian(4)
            .with_acs_target(2)
            .with_fairness_period(None)
            .with_stall(Duration::from_secs(3600));
        let crew = Arc::new(WorkCrew::new(PoolConfig::new(admission, 8)));
        let (holders, most) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let threads: Vec<_> = (0..THREADS)
            .map(|_| {
                let (crew, holders, most) =
                    (Arc::clone(&crew), Arc::clone(&holders), Arc::clone(&most));
                std::thread::spawn(move || {
                    let mut waiter = Waiter::new();
                    for _ in 0..ROUNDS {
                        let slot = crew.enter(&mut waiter).expect("the crew is running");
                        let now = holders.fetch_add(1, Ordering::SeqCst) + 1;
                        most.fetch_max(now, Ordering::SeqCst);
                        // Give the others the CPU while holding, so any
                        // place lent twice shows as a third holder.
                        std::thread::yield_now();
                        holders.fetch_sub(1, Ordering::SeqCst);
                        drop(slot);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = crew.shutdown();
        let most = most.load(Ordering::SeqCst);
        assert!((1..=2).contains(&most), "{most} holders at once: {stats:?}");
        assert_eq!(stats.inline, THREADS * ROUNDS);
        assert_eq!(stats.members.reprovisions, 0, "{stats:?}");
    }

    #[test]
    fn shutdown_releases_every_waiter() {
        let crew = Arc::new(WorkCrew::new(PoolConfig::new(
            Admission::unrestricted(1),
            8,
        )));
        let slot = enter_when_idle(&crew);
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let crew = Arc::clone(&crew);
                std::thread::spawn(move || crew.enter(&mut Waiter::new()).is_none())
            })
            .collect();
        wait_for_backlog(&crew, 4);
        let stats = crew.shutdown();
        drop(slot);
        for w in waiters {
            assert!(w.join().unwrap(), "a waiter was lent a place at shutdown");
        }
        assert_eq!((stats.enter_refused, stats.inline), (4, 0));
        assert!(
            crew.enter(&mut Waiter::new()).is_none(),
            "nothing after shutdown"
        );
    }

    #[test]
    fn a_waiter_behind_a_wedged_holder_is_rescued_by_a_promoted_worker() {
        // ACS of 1, its place held here and never returned while the
        // waiter waits: the stall window promotes a culled worker, which
        // pops the waiter and lends it its own place.
        let admission = Admission::malthusian(3)
            .with_acs_target(1)
            .with_fairness_period(None)
            .with_stall(Duration::from_millis(5));
        let crew = Arc::new(WorkCrew::new(PoolConfig::new(admission, 16)));
        let deadline = Instant::now() + Duration::from_secs(5);
        while crew.stats().members.passive < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let wedged = enter_when_idle(&crew);
        let entered = Arc::new(AtomicU64::new(0));
        let waiter = {
            let (crew, entered) = (Arc::clone(&crew), Arc::clone(&entered));
            std::thread::spawn(move || {
                let slot = crew.enter(&mut Waiter::new());
                entered.store(u64::from(slot.is_some()), Ordering::SeqCst);
            })
        };
        let rescued = wait_for(&entered, 1);
        let mid_stats = crew.stats();
        drop(wedged);
        waiter.join().unwrap();
        let stats = crew.shutdown();
        assert!(
            rescued,
            "the waiter stayed behind the wedged holder: {mid_stats:?}"
        );
        assert!(mid_stats.members.reprovisions >= 1, "{mid_stats:?}");
        assert_eq!((stats.inline, stats.enter_refused), (2, 1));
    }
}
