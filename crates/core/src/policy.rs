//! Concurrency-restriction policy decisions, shared with the simulator.
//!
//! The live locks (this crate), the discrete-event machine model
//! (`malthus-machinesim`), and the work-crew executor (`malthus-pool`)
//! must make the *same* admission decisions for the reproduction to be
//! faithful, so the decisions are factored out here: when to cull,
//! when to reprovision, and when to pay the long-term-fairness tax —
//! both at lock level ([`should_cull`]/[`should_reprovision`]), for
//! the read-write lock's shared side ([`rw_reader_batch`], consumed by
//! `malthus-rwlock`), and one layer up at task-scheduler level
//! ([`crew_has_surplus`]/[`crew_should_reprovision`], sized by
//! [`acs_target`]; §7's "applies to any contended resource").

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
#[derive(Debug)]
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

/// Decides whether the main queue holds surplus (cullable) threads.
///
/// The MCSCR criterion (§4): surplus exists when there are
/// *intermediate* nodes strictly between the owner's node and the
/// current tail — i.e. at least three chain nodes including the
/// owner's. Expressed over counts: with `waiters` threads queued
/// behind the owner, surplus exists when `waiters >= 2` (the tail
/// stays; one waiter is needed to keep the lock saturated).
pub fn should_cull(waiters_behind_owner: usize) -> bool {
    waiters_behind_owner >= 2
}

/// Decides whether the lock must reprovision from the passive set.
///
/// Work conservation (§1): the critical section must never go
/// intentionally unoccupied while passivated threads exist. With an
/// empty main queue and a non-empty passive set, one passive thread is
/// promoted.
pub fn should_reprovision(main_queue_empty: bool, passive_len: usize) -> bool {
    main_queue_empty && passive_len > 0
}

/// Pool-level surplus: a work-crew worker is surplus when the active
/// circulating set exceeds its admission limit.
///
/// §7 notes that concurrency restriction "can be applied to any
/// contended resource" — one layer up from `lock()`, the contended
/// resource is the CPU set itself, and the executor's ACS limit plays
/// the role the saturated lock plays for [`should_cull`]: any active
/// worker beyond it only adds preemption and cache pressure, so it is
/// culled onto the passive stack.
pub fn crew_has_surplus(active_workers: usize, acs_limit: usize) -> bool {
    active_workers > acs_limit
}

/// Pool-level reprovisioning: promote a passivated worker when the
/// task queue has backed up to the high watermark.
///
/// The work-conservation analogue of [`should_reprovision`]: a lock
/// reprovisions when its main queue goes *empty* (the resource would
/// idle); a queue-fed crew reprovisions when the task backlog *grows*
/// past the watermark (the restricted ACS is no longer keeping up,
/// e.g. a task blocked). Both promote exactly one passive thread per
/// trigger.
pub fn crew_should_reprovision(backlog: usize, high_watermark: usize, passive_len: usize) -> bool {
    backlog >= high_watermark && passive_len > 0
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

/// Reader-reprovisioning batch for a concurrency-restricting
/// read-write lock.
///
/// When a write episode ends (or a reader cascade fires), at most this
/// many passivated readers are granted read slots at once, so the
/// active reader set ramps toward — but never jumps past — the
/// admission limit. The remaining passive readers are admitted by the
/// cascade (each granted reader pulls the next once it is running) or
/// by the next write episode, keeping the circulating set bounded the
/// same way [`should_cull`] bounds a mutex's chain.
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

    #[test]
    fn cull_requires_two_waiters() {
        assert!(!should_cull(0));
        assert!(!should_cull(1));
        assert!(should_cull(2));
        assert!(should_cull(10));
    }

    #[test]
    fn reprovision_requires_empty_queue_and_passives() {
        assert!(!should_reprovision(false, 5));
        assert!(!should_reprovision(true, 0));
        assert!(should_reprovision(true, 1));
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

    #[test]
    fn crew_surplus_tracks_limit() {
        assert!(!crew_has_surplus(0, 1));
        assert!(!crew_has_surplus(1, 1));
        assert!(crew_has_surplus(2, 1));
        assert!(!crew_has_surplus(4, 4));
        assert!(crew_has_surplus(5, 4));
    }

    #[test]
    fn crew_reprovision_requires_backlog_and_passives() {
        assert!(!crew_should_reprovision(0, 4, 3));
        assert!(!crew_should_reprovision(3, 4, 3));
        assert!(crew_should_reprovision(4, 4, 3));
        assert!(crew_should_reprovision(9, 4, 1));
        assert!(!crew_should_reprovision(9, 4, 0));
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
