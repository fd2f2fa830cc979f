//! Concurrency-restriction policy decisions, shared with the simulator.
//!
//! The live locks (this crate), the discrete-event machine model
//! (`malthus-machinesim`), and the executors (`malthus-pool`'s work
//! crew, `malthus-net`'s reactor) must make the *same* admission
//! decisions for the reproduction to be faithful, so the decisions are
//! factored out here: when to cull, when to reprovision, and when to
//! pay the long-term-fairness tax. At lock level that is one function,
//! [`release`], which `McsCrLock`'s unlock, RW-CR's reader grant and
//! the simulator's `SimLock::release` all call; the read-write lock's
//! shared side also bounds its grants with [`rw_reader_batch`]. One
//! layer up, where the contended resource is the CPU set (§7's
//! "applies to any contended resource"), the executor admission
//! point is written once for both executors: one configuration
//! ([`Admission`], sized by [`acs_target`]), one machine
//! ([`Membership`] — which threads circulate, which are parked LIFO,
//! when the top is reprovisioned, when the eldest rotates back in —
//! owned by each executor under the mutex it already had) and one
//! exported shape for its numbers ([`register_admission`]).

use std::sync::Arc;
use std::time::{Duration, Instant};

use malthus_park::XorShift64;

/// The paper's default fairness period: on average one unlock in a
/// thousand cedes ownership to the eldest passive thread (§4).
pub const DEFAULT_FAIRNESS_PERIOD: u64 = 1000;

/// Default prepend numerator for mostly-LIFO wait lists: 999 of 1000
/// waiters are prepended (LIFO) and 1 of 1000 appended (FIFO), the
/// mix used for the perl and buffer-pool experiments (§6.10, §6.11).
pub const DEFAULT_PREPEND_PROBABILITY: f64 = 0.999;

/// Bernoulli trigger for long-term-fairness promotion.
///
/// Drives "statistically, we cede ownership to the tail of the PS on
/// average once every 1000 unlock operations" using a thread-owned
/// Marsaglia xorshift generator. One trigger lives inside each CR lock
/// and is only consulted by the lock holder, so no synchronization is
/// needed beyond the lock itself.
#[derive(Debug, Clone)]
pub struct FairnessTrigger {
    rng: XorShift64,
    period: u64,
}

impl FairnessTrigger {
    /// Creates a trigger with the given average period (in unlocks).
    ///
    /// A period of 1 fires on every unlock (degenerating MCSCR to
    /// near-FIFO); larger periods trade fairness for throughput.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: u64, seed: u64) -> Self {
        assert!(period > 0, "fairness period must be positive");
        FairnessTrigger {
            rng: XorShift64::new(seed),
            period,
        }
    }

    /// Creates a trigger with the paper's default 1/1000 period.
    pub fn default_period(seed: u64) -> Self {
        Self::new(DEFAULT_FAIRNESS_PERIOD, seed)
    }

    /// Returns `true` if this unlock should promote the eldest passive
    /// thread.
    pub fn fire(&mut self) -> bool {
        self.rng.one_in(self.period)
    }

    /// The average period in unlocks.
    pub fn period(&self) -> u64 {
        self.period
    }
}

/// What one lock-level release does (§4). [`release`] picks it; the
/// lock performs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Release<S> {
    /// Long-term fairness: the eldest passive waiter is grafted in
    /// behind the owner and granted the lock.
    GraftEldest,
    /// Work conservation: nobody is queued behind the owner, so the
    /// warmest passive waiter (the most recently culled) is granted
    /// rather than let the lock go idle while threads wait.
    Reprovision,
    /// Culling: a waiter is queued beyond the successor `S`, so `S` is
    /// surplus. It joins the passive set's warm end, and the waiter
    /// behind it is granted.
    Cull(S),
    /// The successor is granted as is; with none, the lock goes free.
    Handoff(Option<S>),
}

/// The one lock-level release decision of §4, made in the paper's
/// order: the eldest graft (a `1/period` trial, drawn only when
/// someone is passive), then reprovisioning (nobody queued, someone
/// passive), then culling (a waiter beyond the successor), else the
/// plain hand-off.
///
/// The queue shape is read lazily, only as far as the answer needs:
/// `successor` (the waiter queued behind the owner, if any) is asked
/// only once the trial has not fired, and `beyond` (whether a waiter
/// is queued behind that successor) only when there is one. A lock
/// that never culls therefore never draws its trigger, and its
/// uncontended release asks only for the successor.
#[inline]
pub fn release<S>(
    passive_len: usize,
    fairness: &mut FairnessTrigger,
    successor: impl FnOnce() -> Option<S>,
    beyond: impl FnOnce(&S) -> bool,
) -> Release<S> {
    if passive_len > 0 && fairness.fire() {
        return Release::GraftEldest;
    }
    match successor() {
        None if passive_len > 0 => Release::Reprovision,
        Some(succ) if beyond(&succ) => Release::Cull(succ),
        succ => Release::Handoff(succ),
    }
}

/// The one steady-state ACS-sizing rule for executor-level admission
/// (the crew's task queue, the reactor's `epoll_wait`): one
/// circulating thread per independent admission point (shard),
/// bounded by the host's cores and the worker count, never below one.
/// A caller with no notion of admission points passes `usize::MAX`.
pub fn acs_target(workers: usize, admission_points: usize) -> usize {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    workers.min(cpus).min(admission_points).max(1)
}

/// Default progress-stall window before reprovisioning; long enough to
/// ride out a scheduler quantum on an oversubscribed host, short
/// enough that a thread blocking on I/O promotes a replacement quickly.
pub const DEFAULT_STALL_THRESHOLD: Duration = Duration::from_millis(5);

/// Default seed of an executor's fairness trigger ("MALT").
pub const DEFAULT_SEED: u64 = 0x4D41_4C54;

/// Stall windows a boost outlives its last change, and a standby
/// thread sleeps while the work is attended.
const RELAXED_WINDOWS: u32 = 8;

/// How one executor admission point is set up: the crew's task queue
/// and the reactor's `epoll_wait` both take it as is. Checked by
/// [`Membership::new`], the one place an ACS target is validated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// Total worker threads (active + passive).
    pub workers: usize,
    /// Steady-state ACS limit; workers beyond it passivate, and
    /// `workers` disables restriction.
    pub acs_target: usize,
    /// How long progress must stall, with work waiting, before the
    /// passive stack top promotes itself.
    pub stall: Duration,
    /// Average period (in units of work) of the episodic
    /// eldest-passive promotion; `None` disables it.
    pub fairness_period: Option<u64>,
}

impl Admission {
    /// The Malthusian point: ACS capped at the host's parallelism (or
    /// `workers`, if smaller), the default stall window and the
    /// paper's 1/1000 fairness period.
    pub fn malthusian(workers: usize) -> Self {
        Admission {
            workers,
            acs_target: acs_target(workers, usize::MAX),
            stall: DEFAULT_STALL_THRESHOLD,
            fairness_period: Some(DEFAULT_FAIRNESS_PERIOD),
        }
    }

    /// The control: every worker circulates and nobody is parked.
    pub fn unrestricted(workers: usize) -> Self {
        Admission {
            workers,
            acs_target: workers,
            stall: DEFAULT_STALL_THRESHOLD,
            fairness_period: None,
        }
    }

    /// Overrides the steady-state ACS limit.
    pub fn with_acs_target(mut self, acs_target: usize) -> Self {
        self.acs_target = acs_target;
        self
    }

    /// Overrides the stall window.
    pub fn with_stall(mut self, stall: Duration) -> Self {
        self.stall = stall;
        self
    }

    /// Overrides the fairness period (`None` disables promotion).
    pub fn with_fairness_period(mut self, period: Option<u64>) -> Self {
        self.fairness_period = period;
        self
    }
}

/// Gauge and counter snapshot of a [`Membership`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MembershipStats {
    /// The steady-state ACS limit (`workers` once released).
    pub target: usize,
    /// Workers in the active circulating set.
    pub active: usize,
    /// Workers on the passive stack.
    pub passive: usize,
    /// Workers culled onto the passive stack (excluding rotations).
    pub culls: u64,
    /// Stack tops promoted because progress stalled while work waited.
    pub reprovisions: u64,
    /// Eldest passive workers rotated in by the fairness trigger.
    pub fairness_promotions: u64,
}

/// The executor-level membership machine: which of an executor's
/// `workers` threads circulate and which are parked.
///
/// The lock-level policy one layer up (§7): the active circulating
/// set is kept at `target` workers, the surplus is culled onto a LIFO
/// passive stack, the stack top is reprovisioned — with a temporary
/// `boost` of the limit — when progress has stalled a full window
/// while work waits (the LOITER standby thread of A.1), the boost is
/// shed as the work drains or after eight windows without a new stall,
/// and an episodic [`FairnessTrigger`] swaps a worker with the
/// *eldest* passive one so LIFO residency stays long-term fair.
///
/// A plain state machine: it holds no lock, parks nobody and never
/// reads a clock. Its owner keeps it under the mutex that serialises
/// its admission decisions, calls one method per event with the time
/// it read, and performs the park or unpark the answer asks for. A
/// parked worker re-checks [`Membership::is_passive`] after *every*
/// return from its park, so a stray unpark changes nothing. Throughout,
/// `target + boost <= active <= workers` (the unit tests walk every
/// reachable state of a three-worker machine to check it).
#[derive(Debug, Clone)]
pub struct Membership {
    workers: usize,
    target: usize,
    stall: Duration,
    /// Temporary enlargement of the limit granted by reprovisioning.
    boost: usize,
    active: usize,
    /// Passive worker ids; eldest at index 0, LIFO top last.
    passive: Vec<usize>,
    fairness: Option<FairnessTrigger>,
    last_progress: Instant,
    /// Paces [`Membership::decay`], so the set relaxes back to its
    /// target once stalls stop even if the work never drains.
    last_boost_change: Instant,
    culls: u64,
    reprovisions: u64,
    fairness_promotions: u64,
}

impl Membership {
    /// A machine with every worker active; the surplus culls itself as
    /// each worker first asks ([`Membership::cull`]).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= acs_target <= workers`, or if
    /// `fairness_period` is `Some(0)`.
    pub fn new(cfg: Admission, now: Instant) -> Self {
        assert!(
            (1..=cfg.workers).contains(&cfg.acs_target),
            "ACS target must be in 1..=workers"
        );
        Membership {
            workers: cfg.workers,
            target: cfg.acs_target,
            stall: cfg.stall,
            boost: 0,
            active: cfg.workers,
            passive: Vec::new(),
            fairness: cfg
                .fairness_period
                .map(|p| FairnessTrigger::new(p, DEFAULT_SEED)),
            last_progress: now,
            last_boost_change: now,
            culls: 0,
            reprovisions: 0,
            fairness_promotions: 0,
        }
    }

    /// Whether the active set exceeds its current limit: a worker
    /// beyond it only adds preemption and cache pressure.
    #[inline]
    pub fn surplus(&self) -> bool {
        self.active > self.target + self.boost
    }

    /// Culls `me` (an active worker) onto the passive stack if the set
    /// has surplus; on `true` the caller parks as a standby thread.
    #[inline]
    pub fn cull(&mut self, me: usize) -> bool {
        if !self.surplus() {
            return false;
        }
        self.active -= 1;
        self.passive.push(me);
        self.culls += 1;
        true
    }

    /// An active worker made progress (dequeued a task, returned from
    /// a poll, lent its place): restarts the stall window.
    #[inline]
    pub fn progress(&mut self, now: Instant) {
        self.last_progress = now;
    }

    /// The work ran dry (empty queue, empty poll): the enlarged set
    /// kept up, so it sheds one step of boost.
    #[inline]
    pub fn drained(&mut self, now: Instant) {
        if self.boost > 0 {
            self.boost -= 1;
            self.last_boost_change = now;
        }
    }

    /// Sheds one step of boost once no stall has re-raised it for
    /// eight windows. Run with every unit of work: under sustained
    /// saturation the work never drains, and without this a long-lived
    /// executor with occasional blocking ratchets its set up to
    /// `workers` for good.
    #[inline]
    pub fn decay(&mut self, now: Instant) {
        if self.boost > 0
            && now.saturating_duration_since(self.last_boost_change) >= self.stall * RELAXED_WINDOWS
        {
            self.boost -= 1;
            self.last_boost_change = now;
        }
    }

    /// Long-term fairness: when the trigger fires and someone is
    /// passive, `me` (an active worker that just finished a unit of
    /// work) takes the stack top and the *eldest* passive worker takes
    /// its place — in one step, so the set's size never moves. The
    /// caller unparks the returned worker and parks.
    #[inline]
    pub fn rotate(&mut self, me: usize) -> Option<usize> {
        let fired = self.fairness.as_mut().is_some_and(FairnessTrigger::fire);
        if !fired || self.passive.is_empty() {
            return None;
        }
        let eldest = self.passive.remove(0);
        self.passive.push(me);
        self.fairness_promotions += 1;
        Some(eldest)
    }

    /// Work conservation: promotes `me` if it is the stack top, work
    /// is waiting with nobody attending it, and progress is a full
    /// window stale — every active worker blocked or descheduled.
    /// Work waiting alone deliberately does not promote: under
    /// saturation work *always* waits, and promoting on that
    /// degenerates into cull/unpark thrash. The boost keeps the
    /// promoted worker from being surplus at once, and resetting the
    /// stamps limits the cascade to one promotion per window.
    pub fn promote_if_stalled(&mut self, me: usize, work_waiting: bool, now: Instant) -> bool {
        if self.passive.last() != Some(&me)
            || !work_waiting
            || now.saturating_duration_since(self.last_progress) < self.stall
        {
            return false;
        }
        self.passive.pop();
        self.active += 1;
        self.boost += 1;
        self.last_progress = now;
        self.last_boost_change = now;
        self.reprovisions += 1;
        true
    }

    /// Whether `me` is (still) on the passive stack.
    pub fn is_passive(&self, me: usize) -> bool {
        self.passive.contains(&me)
    }

    /// How long a passive worker parks before it looks again: one
    /// window while work is unattended (it may have to rescue it),
    /// eight otherwise.
    pub fn standby_interval(&self, work_waiting: bool) -> Duration {
        if work_waiting {
            self.stall
        } else {
            self.stall * RELAXED_WINDOWS
        }
    }

    /// Shutdown: every worker becomes active and stays so (the limit
    /// becomes `workers`, so nothing culls again). The caller unparks
    /// them all.
    pub fn release_all(&mut self) {
        self.passive.clear();
        self.active = self.workers;
        self.target = self.workers;
        self.boost = 0;
    }

    /// Current gauges and counters.
    pub fn stats(&self) -> MembershipStats {
        MembershipStats {
            target: self.target,
            active: self.active,
            passive: self.passive.len(),
            culls: self.culls,
            reprovisions: self.reprovisions,
            fairness_promotions: self.fairness_promotions,
        }
    }
}

/// Exports one executor admission point's [`MembershipStats`]: the
/// gauges `malthus_acs_size`, `malthus_acs_target` and
/// `malthus_passive_depth`, labelled `{point=…}` (`crew`, `reactor`),
/// and the counters `<counter_prefix>{culls,reprovisions,
/// fairness_promotions}_total`, unlabelled. `stats` reads the point's
/// machine under its owner's mutex; registering again replaces the
/// sources.
pub fn register_admission(
    registry: &malthus_obs::Registry,
    point: &str,
    counter_prefix: &str,
    stats: impl Fn() -> MembershipStats + Send + Sync + 'static,
) {
    let stats = Arc::new(stats);
    type Read = fn(&MembershipStats) -> u64;
    let gauges: [(&str, &str, Read); 3] = [
        (
            "malthus_acs_size",
            "Workers in the active circulating set, by admission point.",
            |m| m.active as u64,
        ),
        (
            "malthus_acs_target",
            "Steady-state ACS limit, by admission point.",
            |m| m.target as u64,
        ),
        (
            "malthus_passive_depth",
            "Workers parked on the passive LIFO stack, by admission point.",
            |m| m.passive as u64,
        ),
    ];
    let counters: [(&str, &str, Read); 3] = [
        (
            "culls_total",
            "Workers culled onto the passive stack by admission control.",
            |m| m.culls,
        ),
        (
            "reprovisions_total",
            "Passive workers self-promoted on a progress stall.",
            |m| m.reprovisions,
        ),
        (
            "fairness_promotions_total",
            "Eldest passive workers promoted by the fairness trigger.",
            |m| m.fairness_promotions,
        ),
    ];
    for (name, help, f) in gauges {
        let stats = Arc::clone(&stats);
        registry.gauge(name, help, &[("point", point)], move || f(&stats()) as f64);
    }
    for (name, help, f) in counters {
        let stats = Arc::clone(&stats);
        registry.counter(&format!("{counter_prefix}{name}"), help, &[], move || {
            f(&stats())
        });
    }
}

/// Reader-reprovisioning batch for a concurrency-restricting
/// read-write lock.
///
/// When a write episode ends (or a reader cascade fires), at most this
/// many passivated readers are granted read slots at once, so the
/// active reader set ramps toward — but never jumps past — the
/// admission limit. The remaining passive readers are admitted by the
/// cascade (each granted reader pulls the next once it is running) or
/// by the next write episode, keeping the circulating set bounded the
/// same way culling ([`Release::Cull`]) bounds a mutex's chain.
pub fn rw_reader_batch(passive_len: usize, acs_limit: usize) -> usize {
    passive_len.min(acs_limit.max(1))
}

/// Mixed append/prepend discipline for CR wait lists (condvars,
/// semaphores, thread pools).
///
/// With probability `prepend_probability` a waiter is pushed at the
/// head (LIFO, concurrency-restricting); otherwise it is appended at
/// the tail (FIFO, providing eventual long-term fairness). Probability
/// 0.0 is strict FIFO; 1.0 is strict LIFO.
#[derive(Debug)]
pub struct AdmissionDiscipline {
    rng: XorShift64,
    /// Prepend threshold scaled to u64 range.
    threshold: u64,
    probability: f64,
}

impl AdmissionDiscipline {
    /// Creates a discipline with the given prepend probability.
    ///
    /// # Panics
    ///
    /// Panics if `prepend_probability` is not within `[0.0, 1.0]`.
    pub fn new(prepend_probability: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&prepend_probability),
            "prepend probability must be within [0, 1]"
        );
        let threshold = (prepend_probability * u64::MAX as f64) as u64;
        AdmissionDiscipline {
            rng: XorShift64::new(seed),
            threshold,
            probability: prepend_probability,
        }
    }

    /// Strict FIFO (always append).
    pub fn fifo(seed: u64) -> Self {
        Self::new(0.0, seed)
    }

    /// Strict LIFO (always prepend).
    pub fn lifo(seed: u64) -> Self {
        Self::new(1.0, seed)
    }

    /// The paper's mostly-LIFO default (prepend 999/1000).
    pub fn mostly_lifo(seed: u64) -> Self {
        Self::new(DEFAULT_PREPEND_PROBABILITY, seed)
    }

    /// Returns `true` if the next waiter should be prepended (LIFO).
    pub fn prepend(&mut self) -> bool {
        if self.probability >= 1.0 {
            return true;
        }
        if self.probability <= 0.0 {
            return false;
        }
        self.rng.next_u64() < self.threshold
    }

    /// The configured prepend probability.
    pub fn probability(&self) -> f64 {
        self.probability
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every input of the lock-level decision: passive length 0, 1 and
    /// 2; a trial that fires (period 1) or never does; no successor, a
    /// successor only, or one with a waiter behind it. Checks §4's order
    /// and that the queue shape and the trigger are read only when the
    /// answer depends on them.
    #[test]
    fn release_decision_table() {
        for passive_len in 0..=2 {
            for fires in [true, false] {
                for queued in 0..=2usize {
                    let mut trigger = FairnessTrigger::new(if fires { 1 } else { u64::MAX }, 3);
                    let before = format!("{trigger:?}");
                    let (mut asked_successor, mut asked_beyond) = (false, false);
                    let got = release(
                        passive_len,
                        &mut trigger,
                        || {
                            asked_successor = true;
                            (queued > 0).then_some(queued)
                        },
                        |_| {
                            asked_beyond = true;
                            queued > 1
                        },
                    );
                    let case = format!("passive {passive_len} fires {fires} queued {queued}");
                    let drawn = format!("{trigger:?}") != before;
                    assert_eq!(drawn, passive_len > 0, "{case}");
                    let want = if passive_len > 0 && fires {
                        Release::GraftEldest
                    } else if queued == 0 && passive_len > 0 {
                        Release::Reprovision
                    } else if queued > 1 {
                        Release::Cull(queued)
                    } else {
                        Release::Handoff((queued > 0).then_some(queued))
                    };
                    assert_eq!(got, want, "{case}");
                    // The eldest graft comes first, and only with someone
                    // passive; the queue is not even looked at.
                    assert_eq!(got == Release::GraftEldest, passive_len > 0 && fires);
                    assert_eq!(asked_successor, got != Release::GraftEldest, "{case}");
                    // Reprovision only with no successor; cull only with
                    // a waiter beyond it, which is asked about only when
                    // a successor exists.
                    if got == Release::Reprovision {
                        assert_eq!(queued, 0, "{case}");
                    }
                    if let Release::Cull(_) = got {
                        assert!(queued > 1, "{case}");
                    }
                    assert_eq!(asked_beyond, asked_successor && queued > 0, "{case}");
                }
            }
        }
    }

    #[test]
    fn fairness_trigger_rate_near_period() {
        let mut t = FairnessTrigger::new(100, 42);
        let trials = 1_000_000;
        let fires = (0..trials).filter(|_| t.fire()).count();
        // Expected 10_000; tolerate +-20%.
        assert!((8_000..12_000).contains(&fires), "fires = {fires}");
    }

    #[test]
    fn fairness_trigger_period_one_always_fires() {
        let mut t = FairnessTrigger::new(1, 7);
        assert!((0..100).all(|_| t.fire()));
    }

    #[test]
    #[should_panic(expected = "fairness period must be positive")]
    fn zero_period_panics() {
        FairnessTrigger::new(0, 1);
    }

    /// A machine plus the virtual time the walk has reached.
    #[derive(Clone)]
    struct Node {
        m: Membership,
        now: Instant,
    }

    const WINDOW: Duration = Duration::from_millis(5);

    impl Node {
        /// Everything a transition can depend on: the ages saturate
        /// where the machine stops telling them apart (one window for
        /// progress, eight for the boost), and a period-1 trigger
        /// fires whatever its generator holds.
        fn key(&self) -> (usize, usize, usize, Vec<usize>, u128, u128) {
            let m = &self.m;
            let windows = |since: Instant, cap: u128| {
                (self.now.duration_since(since).as_nanos() / WINDOW.as_nanos()).min(cap)
            };
            (
                m.target,
                m.boost,
                m.active,
                m.passive.clone(),
                windows(m.last_progress, 1),
                windows(m.last_boost_change, RELAXED_WINDOWS.into()),
            )
        }

        fn check(&self) {
            let m = &self.m;
            assert_eq!(m.active + m.passive.len(), m.workers, "{m:?}");
            let mut ids = m.passive.clone();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), m.passive.len(), "an id twice: {m:?}");
            assert!(m.target + m.boost <= m.active, "undershoot: {m:?}");
            assert!(m.active <= m.workers, "{m:?}");
            assert_eq!(m.stats().active, m.active);
            assert_eq!(m.stats().passive, m.passive.len());
        }

        /// Every event enabled here, each applied to its own copy and
        /// checked for what that event promises.
        fn successors(&self) -> Vec<Node> {
            let mut out = Vec::new();
            let mut step = |f: &dyn Fn(&mut Node)| {
                let mut next = self.clone();
                f(&mut next);
                next.check();
                out.push(next);
            };
            let before = &self.m;
            let fair = before.fairness.is_some();
            let stale = self.now.duration_since(before.last_progress) >= WINDOW;
            for w in (0..before.workers).filter(|w| !before.is_passive(*w)) {
                step(&|n| {
                    let culled = n.m.cull(w);
                    assert_eq!(culled, before.surplus());
                    assert_eq!(culled, n.m.passive.last() == Some(&w));
                    assert_eq!(n.m.culls, before.culls + u64::from(culled));
                });
                step(&|n| {
                    let promoted = n.m.rotate(w);
                    // The *eldest* comes in, `w` goes on top, and the
                    // set's size does not move.
                    let eldest = before.passive.first().copied().filter(|_| fair);
                    assert_eq!(promoted, eldest);
                    assert_eq!(n.m.active, before.active);
                    if let Some(e) = promoted {
                        assert!(!n.m.is_passive(e));
                        assert_eq!(n.m.passive.last(), Some(&w));
                    }
                });
            }
            for &w in &before.passive {
                let top = before.passive.last() == Some(&w);
                for waiting in [true, false] {
                    step(&|n| {
                        let promoted = n.m.promote_if_stalled(w, waiting, n.now);
                        // Only the top, only for stalled waiting work
                        // — and then always (work conservation).
                        assert_eq!(promoted, top && waiting && stale, "{before:?}");
                        assert_eq!(n.m.is_passive(w), !promoted);
                        // The boost admits the promoted worker, and
                        // the next promotion waits out a fresh window.
                        assert_eq!(n.m.surplus(), before.surplus(), "{before:?}");
                        if let (true, Some(&next)) = (promoted, n.m.passive.last()) {
                            assert!(!n.m.clone().promote_if_stalled(next, true, n.now));
                        }
                    });
                }
            }
            step(&|n| n.m.progress(n.now));
            step(&|n| {
                n.m.drained(n.now);
                assert_eq!(n.m.boost, before.boost.saturating_sub(1));
            });
            step(&|n| {
                n.m.decay(n.now);
                let due =
                    n.now.duration_since(before.last_boost_change) >= WINDOW * RELAXED_WINDOWS;
                assert_eq!(
                    n.m.boost,
                    before.boost - usize::from(due && before.boost > 0)
                );
            });
            step(&|n| n.now += WINDOW);
            step(&|n| n.now += WINDOW * RELAXED_WINDOWS);
            step(&|n| {
                n.m.release_all();
                assert!(!n.m.surplus() && n.m.passive.is_empty());
            });
            out
        }
    }

    #[test]
    fn membership_walk_of_every_reachable_state() {
        let workers = 3;
        let mut total = 0;
        for target in 1..=workers {
            for fair in [false, true] {
                let now = Instant::now();
                let period = fair.then_some(1);
                let cfg = Admission::malthusian(workers)
                    .with_acs_target(target)
                    .with_stall(WINDOW)
                    .with_fairness_period(period);
                let start = Node {
                    m: Membership::new(cfg, now),
                    now,
                };
                start.check();
                assert_eq!(start.m.standby_interval(true), WINDOW);
                assert_eq!(start.m.standby_interval(false), WINDOW * RELAXED_WINDOWS);
                let mut seen = std::collections::HashSet::from([start.key()]);
                let mut frontier = vec![start];
                while let Some(node) = frontier.pop() {
                    for next in node.successors() {
                        if seen.insert(next.key()) {
                            frontier.push(next);
                        }
                    }
                }
                // The walk got somewhere: with a surplus to cull, the
                // full passive stack and a boost old enough to decay
                // were both seen.
                if target < workers {
                    assert!(seen.iter().any(|k| k.1 > 0 && k.5 == 8), "{seen:?}");
                    assert!(seen.iter().any(|k| k.3.len() == workers - target));
                }
                total += seen.len();
            }
        }
        assert!(total > 100, "only {total} states");
    }

    /// The one validation rule of an admission point, for the crew and
    /// the reactor alike: a target of none, or of more workers than
    /// there are, is refused rather than clamped.
    #[test]
    fn invalid_config_panics() {
        for (workers, target) in [(2, 3), (2, 0), (0, 1)] {
            let cfg = Admission::unrestricted(workers).with_acs_target(target);
            let refused = std::panic::catch_unwind(|| Membership::new(cfg, Instant::now()));
            let message = refused.expect_err("an invalid target was accepted");
            assert_eq!(
                message.downcast_ref::<&str>(),
                Some(&"ACS target must be in 1..=workers"),
                "{cfg:?}"
            );
        }
    }

    #[test]
    fn rw_reader_batch_bounds() {
        assert_eq!(rw_reader_batch(0, 4), 0);
        assert_eq!(rw_reader_batch(3, 4), 3);
        assert_eq!(rw_reader_batch(10, 4), 4);
        // A zero admission limit still makes progress (work
        // conservation: at least one reader per grant opportunity).
        assert_eq!(rw_reader_batch(10, 0), 1);
    }

    #[test]
    fn discipline_extremes() {
        let mut fifo = AdmissionDiscipline::fifo(1);
        let mut lifo = AdmissionDiscipline::lifo(1);
        for _ in 0..100 {
            assert!(!fifo.prepend());
            assert!(lifo.prepend());
        }
    }

    #[test]
    fn discipline_mostly_lifo_rate() {
        let mut d = AdmissionDiscipline::mostly_lifo(99);
        let trials = 1_000_000;
        let appends = (0..trials).filter(|_| !d.prepend()).count();
        // Expected ~1000 appends; tolerate a wide band.
        assert!((500..2_000).contains(&appends), "appends = {appends}");
    }

    #[test]
    #[should_panic(expected = "prepend probability must be within")]
    fn discipline_rejects_out_of_range() {
        AdmissionDiscipline::new(1.5, 1);
    }
}
