//! The discrete-event simulation engine.
//!
//! Threads execute [`Action`] programs in simulated cycles. Compute
//! and memory segments are scaled by the machine's speed law (pipeline
//! sharing, fusion loss, time multiplexing); blocking actions suspend
//! threads on the lock and condvar models; handover costs follow
//! §5 of the paper: cheap flag writes for spinning successors, kernel
//! unpark latencies for parked ones, and expected dispatch delays for
//! preempted spinners when the machine is oversubscribed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use malthus_cachesim::Hierarchy;
use malthus_park::XorShift64;

use crate::locks::{Arrival, LockKind, SimLock, WaitMode};
use crate::machine::MachineConfig;
use crate::report::RunReport;
use crate::sync::SimCondvar;
use crate::workload::{Action, SimWorkload, WorkloadCtx};

/// What a blocked thread is waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WaitOn {
    Lock(usize),
    /// Waiting inside a condvar's wait list (no wakeable object yet).
    Cv,
}

/// Scheduler-visible thread state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    /// Executing program segments (counts as working).
    Running,
    /// Busy-waiting (counts as on-CPU spinning).
    Spinning,
    /// Voluntarily descheduled (off CPU).
    Parked,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// The thread's current segment (or wake delay) has elapsed;
    /// continue its program.
    Resume(usize),
    /// A spin-then-park budget expired (epoch-guarded).
    SpinExpire(usize, u64),
    /// A condvar-woken thread re-contends for its lock.
    CvReArrive(usize, usize),
}

struct Thread {
    workload: Box<dyn SimWorkload>,
    rng: XorShift64,
    iterations: u64,
    state: TState,
    waiting_on: Option<WaitOn>,
    wait_epoch: u64,
    park_started: u64,
    core: usize,
    /// The lock a condvar waiter must reacquire on wake.
    cv_relock: usize,
    /// Waiting with an *unbounded* spin policy (occupies a CPU for
    /// whole quanta, unlike spin-then-park's transient spinning).
    pure_spin_wait: bool,
    /// Whether the thread's first event has fired (threads are off
    /// CPU until their staggered start).
    started: bool,
    /// Exponential moving average of per-reference memory latency.
    ///
    /// Durations are charged from this smoothed value rather than the
    /// per-batch sampled sum: on real hardware the closed lock/NCS
    /// loop phase-locks (per-iteration jitter is far below the CS
    /// length), and that phase lock is what keeps the paper's ACS
    /// queue from ever emptying. Sampled batch costs would inject
    /// artificial variance and destroy the lock-step. The EMA still
    /// tracks regime changes (e.g. LLC thrashing) within a few
    /// iterations.
    avg_access_cost: f64,
}

/// Specification of a simulated lock.
pub struct LockSpec {
    /// Admission policy.
    pub kind: LockKind,
    /// Waiting policy for its waiters.
    pub wait: WaitMode,
}

/// Specification of a simulated condvar.
pub struct CvSpec {
    /// Probability a waiter is prepended (LIFO side).
    pub prepend_probability: f64,
    /// Discipline PRNG seed.
    pub seed: u64,
    /// Waiting policy for cv waiters.
    pub wait: WaitMode,
}

/// Builder for one simulation run.
pub struct Simulation {
    machine: MachineConfig,
    locks: Vec<SimLock>,
    lock_waits: Vec<WaitMode>,
    cvs: Vec<SimCondvar>,
    cv_waits: Vec<WaitMode>,
    /// For cv waiters: which lock to reacquire on wake.
    threads: Vec<Thread>,
    hierarchy: Hierarchy,

    now: u64,
    seq: u64,
    events: BinaryHeap<Reverse<(u64, u64, Event)>>,

    // Accounting integrals.
    working: usize,
    spinning: usize,
    /// Spinners that never park (unbounded-spin waiters).
    pure_spinning: usize,
    last_bump: u64,
    working_integral: f64,
    spinning_integral: f64,
    voluntary_parks: u64,
    unpark_calls: u64,
    total_iterations: u64,
}

impl Simulation {
    /// Creates an empty simulation on the given machine.
    pub fn new(machine: MachineConfig) -> Self {
        Simulation {
            hierarchy: Hierarchy::new(machine.hierarchy()),
            machine,
            locks: Vec::new(),
            lock_waits: Vec::new(),
            cvs: Vec::new(),
            cv_waits: Vec::new(),
            threads: Vec::new(),
            now: 0,
            seq: 0,
            events: BinaryHeap::new(),
            working: 0,
            spinning: 0,
            pure_spinning: 0,
            last_bump: 0,
            working_integral: 0.0,
            spinning_integral: 0.0,
            voluntary_parks: 0,
            unpark_calls: 0,
            total_iterations: 0,
        }
    }

    /// Adds a lock; returns its index.
    pub fn add_lock(&mut self, spec: LockSpec) -> usize {
        self.locks.push(SimLock::new(spec.kind, spec.wait));
        self.lock_waits.push(spec.wait);
        self.locks.len() - 1
    }

    /// Adds a condvar; returns its index.
    pub fn add_condvar(&mut self, spec: CvSpec) -> usize {
        self.cvs
            .push(SimCondvar::new(spec.prepend_probability, spec.seed));
        self.cv_waits.push(spec.wait);
        self.cvs.len() - 1
    }

    /// Adds a thread running `workload`; returns its id.
    pub fn add_thread(&mut self, workload: Box<dyn SimWorkload>) -> usize {
        let tid = self.threads.len();
        let core = tid % self.machine.cores;
        self.threads.push(Thread {
            workload,
            rng: XorShift64::new(
                0x9E37_79B9 ^ (tid as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F),
            ),
            iterations: 0,
            state: TState::Parked,
            waiting_on: None,
            wait_epoch: 0,
            park_started: 0,
            core,
            cv_relock: 0,
            pure_spin_wait: false,
            started: false,
            avg_access_cost: 0.0,
        });
        tid
    }

    fn bump(&mut self) {
        let dt = (self.now - self.last_bump) as f64;
        self.working_integral += dt * self.working as f64;
        self.spinning_integral += dt * self.spinning as f64;
        self.last_bump = self.now;
    }

    fn set_state(&mut self, tid: usize, state: TState) {
        let old = self.threads[tid].state;
        if old == state {
            return;
        }
        self.bump();
        match old {
            TState::Running => self.working -= 1,
            TState::Spinning => self.spinning -= 1,
            TState::Parked => {}
        }
        match state {
            TState::Running => self.working += 1,
            TState::Spinning => self.spinning += 1,
            TState::Parked => {}
        }
        self.threads[tid].state = state;
    }

    fn schedule(&mut self, at: u64, ev: Event) {
        self.seq += 1;
        self.events.push(Reverse((at, self.seq, ev)));
    }

    /// Scales base cycles by the current machine speed.
    fn scale(&self, base: u64) -> u64 {
        let speed = self.machine.working_speed(self.working, self.spinning);
        ((base as f64 / speed) as u64).max(1)
    }

    /// Starts a thread waiting on `target` with the given wait mode.
    fn begin_wait(&mut self, tid: usize, target: WaitOn, mode: WaitMode) {
        self.threads[tid].wait_epoch += 1;
        let epoch = self.threads[tid].wait_epoch;
        self.threads[tid].waiting_on = Some(target);
        match mode {
            WaitMode::Spin => {
                self.set_state(tid, TState::Spinning);
                self.threads[tid].pure_spin_wait = true;
                self.pure_spinning += 1;
            }
            WaitMode::SpinThenPark => {
                self.set_state(tid, TState::Spinning);
                self.schedule(
                    self.now + self.machine.spin_then_park_budget,
                    Event::SpinExpire(tid, epoch),
                );
            }
            WaitMode::Park => {
                self.set_state(tid, TState::Parked);
                self.threads[tid].park_started = self.now;
                self.voluntary_parks += 1;
            }
        }
    }

    /// Computes (wake delay for the wakee, immediate charge to the
    /// waker) for releasing thread `tid` from its wait.
    fn wake_cost(&mut self, tid: usize) -> (u64, u64) {
        // Only long-lived CPU occupants cause scheduler-level
        // congestion: working threads and *unbounded* spinners.
        // Spin-then-park waiters vacate their CPUs within the spin
        // budget, orders of magnitude below a time slice.
        let demand = self.working + self.pure_spinning;
        match self.threads[tid].state {
            TState::Spinning => {
                // The successor is polling: a flag write reaches it
                // almost immediately — unless it has been preempted.
                let dispatch = if self.machine.oversubscribed(demand) {
                    self.machine.dispatch_delay(demand)
                } else {
                    0
                };
                (self.machine.spin_handover_cycles + dispatch, 0)
            }
            TState::Parked => {
                self.unpark_calls += 1;
                let slept = self.now - self.threads[tid].park_started;
                // Wake cost grows with how long the wakee slept (§5.1):
                // a freshly parked thread is dispatched warm; a
                // long-parked one pays the full blocked->ready->running
                // path, plus deep-sleep exit if its CPU idled out.
                let base = if slept < self.machine.warm_park_threshold_cycles {
                    self.machine.warm_unpark_latency_cycles
                } else {
                    self.machine.unpark_latency_cycles
                };
                let deep = if slept >= self.machine.deep_sleep_threshold_cycles {
                    self.machine.deep_sleep_exit_cycles
                } else {
                    0
                };
                (
                    self.machine.unpark_call_cycles + base + deep,
                    self.machine.unpark_call_cycles,
                )
            }
            TState::Running => (self.machine.spin_handover_cycles, 0),
        }
    }

    /// Clears a thread's wait bookkeeping on grant.
    fn end_wait(&mut self, tid: usize) {
        self.threads[tid].wait_epoch += 1; // invalidate SpinExpire
        self.threads[tid].waiting_on = None;
        if self.threads[tid].pure_spin_wait {
            self.threads[tid].pure_spin_wait = false;
            self.pure_spinning -= 1;
        }
    }

    /// Grants a lock wait: the wakee resumes its program.
    /// Returns the charge to the waker.
    fn grant_resume(&mut self, tid: usize) -> u64 {
        let (delay, charge) = self.wake_cost(tid);
        self.end_wait(tid);
        self.set_state(tid, TState::Running);
        self.schedule(self.now + delay, Event::Resume(tid));
        charge
    }

    /// Wakes a condvar waiter: it must re-contend for the lock it
    /// recorded at `CondWait` time. Returns the charge to the
    /// notifier.
    fn cv_wake(&mut self, tid: usize) -> u64 {
        let lock = self.threads[tid].cv_relock;
        let (delay, charge) = self.wake_cost(tid);
        self.end_wait(tid);
        self.set_state(tid, TState::Running);
        self.schedule(self.now + delay, Event::CvReArrive(tid, lock));
        charge
    }

    /// Releases `lock` on behalf of the current owner; returns the
    /// charge (unpark-call cycles) to the releaser.
    fn do_release(&mut self, lock: usize) -> u64 {
        match self.locks[lock].release() {
            Some(succ) => self.grant_resume(succ),
            None => 0,
        }
    }

    /// Runs `tid`'s program until it blocks or schedules a timed
    /// event.
    fn step_program(&mut self, tid: usize) {
        let mut fuel = 100_000u32;
        loop {
            fuel -= 1;
            assert!(
                fuel > 0,
                "workload for thread {tid} produced an unbounded zero-time action sequence"
            );
            let action = {
                let t = &mut self.threads[tid];
                let mut ctx = WorkloadCtx {
                    tid,
                    rng: &t.rng,
                    iterations: t.iterations,
                };
                t.workload.next_action(&mut ctx)
            };
            match action {
                Action::Compute(c) => {
                    let d = self.scale(c);
                    self.schedule(self.now + d, Event::Resume(tid));
                    return;
                }
                Action::Access(pattern) => {
                    let addrs = pattern.addresses(&self.threads[tid].rng);
                    let count = addrs.len().max(1) as f64;
                    let core = self.threads[tid].core;
                    let mut cycles = 0u64;
                    for a in addrs {
                        let (_, c) = self.hierarchy.access(core, tid as u32, a);
                        cycles += c;
                    }
                    // Smooth the charged duration (see `avg_access_cost`).
                    let sample = cycles as f64 / count;
                    let t = &mut self.threads[tid];
                    t.avg_access_cost = if t.avg_access_cost == 0.0 {
                        sample
                    } else {
                        0.9 * t.avg_access_cost + 0.1 * sample
                    };
                    let charged = (t.avg_access_cost * count) as u64;
                    let d = self.scale(charged.max(1));
                    self.schedule(self.now + d, Event::Resume(tid));
                    return;
                }
                Action::Acquire(l) => match self.locks[l].arrive(tid) {
                    Arrival::Granted => continue,
                    Arrival::Enqueued => {
                        let mode = self.lock_waits[l];
                        self.begin_wait(tid, WaitOn::Lock(l), mode);
                        return;
                    }
                },
                Action::Release(l) => {
                    let charge = self.do_release(l);
                    if charge > 0 {
                        self.schedule(self.now + charge, Event::Resume(tid));
                        return;
                    }
                    continue;
                }
                Action::CondWait { cv, lock } => {
                    // Release the lock (waking a successor) and join
                    // the wait list; the unpark charge is folded into
                    // our own blocking.
                    let _charge = self.do_release(lock);
                    self.threads[tid].cv_relock = lock;
                    self.cvs[cv].wait(tid);
                    let mode = self.cv_waits[cv];
                    self.begin_wait(tid, WaitOn::Cv, mode);
                    return;
                }
                Action::CondNotifyOne(cv) => {
                    // The workload model signals after releasing the
                    // lock (the paper notes signal can usually be
                    // shifted outside the critical section).
                    if let Some(w) = self.cvs[cv].notify_one() {
                        let charge = self.cv_wake(w);
                        if charge > 0 {
                            self.schedule(self.now + charge, Event::Resume(tid));
                            return;
                        }
                    }
                    continue;
                }
                Action::CondNotifyAll(cv) => {
                    let waiters = self.cvs[cv].notify_all();
                    let mut charge = 0;
                    for w in waiters {
                        charge += self.cv_wake(w);
                    }
                    if charge > 0 {
                        self.schedule(self.now + charge, Event::Resume(tid));
                        return;
                    }
                    continue;
                }
                Action::EndIteration => {
                    self.threads[tid].iterations += 1;
                    self.total_iterations += 1;
                    continue;
                }
            }
        }
    }

    /// Cycles between successive thread start times: real harnesses
    /// create threads with a `pthread_create` loop, so arrivals are
    /// never perfectly synchronized; a perfectly synchronized stampede
    /// would drive every waiter past its spin budget at t = 0 and
    /// could trap spin-then-park configurations in a parked-convoy
    /// regime no real run starts in.
    pub const START_STAGGER_CYCLES: u64 = 12_000;

    /// Runs until `sim_seconds` of simulated time have elapsed.
    pub fn run(mut self, sim_seconds: f64) -> RunReport {
        let end = crate::machine::seconds_to_cycles(sim_seconds);
        for tid in 0..self.threads.len() {
            self.schedule(tid as u64 * Self::START_STAGGER_CYCLES, Event::Resume(tid));
        }
        while let Some(Reverse((t, _s, ev))) = self.events.pop() {
            if t > end {
                break;
            }
            self.now = t;
            match ev {
                Event::Resume(tid) => {
                    if !self.threads[tid].started {
                        // Staggered start: the thread only now joins
                        // the on-CPU accounting.
                        self.threads[tid].started = true;
                        self.set_state(tid, TState::Running);
                    }
                    self.step_program(tid)
                }
                Event::SpinExpire(tid, epoch) => {
                    let th = &self.threads[tid];
                    if th.wait_epoch == epoch
                        && th.waiting_on.is_some()
                        && th.state == TState::Spinning
                    {
                        self.set_state(tid, TState::Parked);
                        self.threads[tid].park_started = self.now;
                        self.voluntary_parks += 1;
                    }
                }
                Event::CvReArrive(tid, lock) => match self.locks[lock].arrive(tid) {
                    Arrival::Granted => self.step_program(tid),
                    Arrival::Enqueued => {
                        let mode = self.lock_waits[lock];
                        self.begin_wait(tid, WaitOn::Lock(lock), mode);
                    }
                },
            }
        }
        self.now = end;
        self.bump();

        RunReport {
            sim_seconds,
            total_iterations: self.total_iterations,
            per_thread_iterations: self.threads.iter().map(|t| t.iterations).collect(),
            admissions: self.locks.iter().map(|l| l.admissions().to_vec()).collect(),
            lock_stats: self.locks.iter().map(|l| l.stats()).collect(),
            voluntary_parks: self.voluntary_parks,
            unpark_calls: self.unpark_calls,
            avg_working: self.working_integral / end as f64,
            avg_spinning: self.spinning_integral / end as f64,
            watts_above_idle: (self.working_integral * self.machine.watts_per_working
                + self.spinning_integral * self.machine.watts_per_spinning)
                / end as f64,
            hierarchy: self.hierarchy.stats(),
            llc: self.hierarchy.llc_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::layout;
    use crate::workload::MemPattern;
    use malthus::policy::FairnessTrigger;

    /// A minimal lock workload: CS = `cs` compute cycles under lock 0,
    /// NCS = `ncs` compute cycles.
    struct SpinLoop {
        phase: u8,
        cs: u64,
        ncs: u64,
    }

    impl SimWorkload for SpinLoop {
        fn next_action(&mut self, _ctx: &mut WorkloadCtx<'_>) -> Action {
            self.phase = (self.phase + 1) % 4;
            match self.phase {
                1 => Action::Acquire(0),
                2 => Action::Compute(self.cs),
                3 => Action::Release(0),
                _ => {
                    if self.ncs == 0 {
                        Action::EndIteration
                    } else {
                        self.phase = 0;
                        Action::Compute(self.ncs)
                    }
                }
            }
        }
    }

    /// Standard loop with an end-of-iteration marker.
    struct LockLoop {
        step: u8,
        cs: u64,
        ncs: u64,
    }

    impl SimWorkload for LockLoop {
        fn next_action(&mut self, _ctx: &mut WorkloadCtx<'_>) -> Action {
            let a = match self.step {
                0 => Action::Acquire(0),
                1 => Action::Compute(self.cs),
                2 => Action::Release(0),
                3 => Action::Compute(self.ncs),
                _ => Action::EndIteration,
            };
            self.step = (self.step + 1) % 5;
            a
        }
    }

    fn fifo_sim(threads: usize, cs: u64, ncs: u64, wait: WaitMode) -> RunReport {
        let mut sim = Simulation::new(MachineConfig::t5_socket());
        sim.add_lock(LockSpec {
            kind: LockKind::Fifo,
            wait,
        });
        for _ in 0..threads {
            sim.add_thread(Box::new(LockLoop { step: 0, cs, ncs }));
        }
        sim.run(0.002)
    }

    /// Longer run for oversubscription scenarios: with 256 staggered
    /// thread starts the ramp-up alone spans ~3 M cycles, so steady
    /// state needs a wider window.
    fn fifo_sim_long(threads: usize, cs: u64, ncs: u64, wait: WaitMode) -> RunReport {
        let mut sim = Simulation::new(MachineConfig::t5_socket());
        sim.add_lock(LockSpec {
            kind: LockKind::Fifo,
            wait,
        });
        for _ in 0..threads {
            sim.add_thread(Box::new(LockLoop { step: 0, cs, ncs }));
        }
        sim.run(0.04)
    }

    #[test]
    fn single_thread_throughput_matches_arithmetic() {
        // CS 1000 + NCS 4000 = 5000 cycles/iter at turbo speed
        // (lone thread on an idle socket runs at 1.25x):
        // 7.2 M cycles / 4000 -> ~1800 iterations.
        let r = fifo_sim(1, 1_000, 4_000, WaitMode::Spin);
        assert!(
            (1_700..=1_860).contains(&(r.total_iterations as i64)),
            "got {}",
            r.total_iterations
        );
    }

    #[test]
    fn two_threads_share_fifo_lock_evenly() {
        let r = fifo_sim(2, 1_000, 1_000, WaitMode::Spin);
        let a = r.per_thread_iterations[0] as f64;
        let b = r.per_thread_iterations[1] as f64;
        assert!(r.total_iterations > 100);
        assert!((a - b).abs() / (a + b) < 0.05, "FIFO must be fair: {a} {b}");
    }

    #[test]
    fn saturated_fifo_admissions_are_round_robin() {
        let r = fifo_sim(4, 1_000, 500, WaitMode::Spin);
        let h = &r.admissions[0];
        assert!(h.len() > 100);
        // After warmup, every window of 4 admissions covers all 4
        // threads (cyclic order).
        let tail = &h[h.len() - 40..];
        for w in tail.chunks(4) {
            let distinct: std::collections::HashSet<_> = w.iter().collect();
            assert_eq!(distinct.len(), 4, "FIFO saturated order must cycle: {w:?}");
        }
    }

    #[test]
    fn cr_lock_restricts_circulation() {
        let mut sim = Simulation::new(MachineConfig::t5_socket());
        sim.add_lock(LockSpec {
            kind: LockKind::Cr {
                fairness: FairnessTrigger::new(1000, 7),
            },
            wait: WaitMode::Spin,
        });
        for _ in 0..16 {
            sim.add_thread(Box::new(LockLoop {
                step: 0,
                cs: 1_000,
                ncs: 2_000,
            }));
        }
        let r = sim.run(0.002);
        let h = &r.admissions[0];
        assert!(h.len() > 200);
        let tail = &h[h.len() - 200..];
        let distinct: std::collections::HashSet<_> = tail.iter().collect();
        assert!(
            distinct.len() <= 8,
            "CR must restrict the circulating set: {} distinct",
            distinct.len()
        );
    }

    #[test]
    fn stp_waiters_park_and_are_counted() {
        // 8 threads x 5000-cycle CS: FIFO queue waits reach ~35k
        // cycles, beyond the 20k spin budget.
        let r = fifo_sim(8, 5_000, 1_000, WaitMode::SpinThenPark);
        assert!(r.voluntary_parks > 0, "FIFO queue waits exceed the budget");
        assert!(r.unpark_calls > 0);
    }

    #[test]
    fn pure_spin_never_parks() {
        let r = fifo_sim(8, 2_000, 1_000, WaitMode::Spin);
        assert_eq!(r.voluntary_parks, 0);
        assert_eq!(r.unpark_calls, 0);
    }

    #[test]
    fn memory_access_charges_hierarchy() {
        let mut sim = Simulation::new(MachineConfig::t5_socket());
        sim.add_lock(LockSpec {
            kind: LockKind::Null,
            wait: WaitMode::Spin,
        });
        struct Toucher {
            step: u8,
        }
        impl SimWorkload for Toucher {
            fn next_action(&mut self, ctx: &mut WorkloadCtx<'_>) -> Action {
                self.step = (self.step + 1) % 2;
                if self.step == 1 {
                    Action::Access(MemPattern::RandomIn {
                        base: layout::private_base(ctx.tid),
                        bytes: 64 * 1024,
                        count: 100,
                    })
                } else {
                    Action::EndIteration
                }
            }
        }
        sim.add_thread(Box::new(Toucher { step: 0 }));
        let r = sim.run(0.001);
        assert!(r.hierarchy.cycles > 0);
        assert!(r.hierarchy.l1_hits + r.hierarchy.dram_accesses > 0);
        assert!(r.total_iterations > 0);
    }

    #[test]
    fn oversubscription_slows_spin_locks() {
        let fast = fifo_sim_long(64, 500, 500, WaitMode::Spin);
        let slow = fifo_sim_long(256, 500, 500, WaitMode::Spin);
        assert!(
            slow.total_iterations * 5 < fast.total_iterations,
            "256 spinners on 128 CPUs must collapse: {} vs {}",
            slow.total_iterations,
            fast.total_iterations
        );
    }

    #[test]
    fn stp_beats_spin_when_oversubscribed() {
        let spin = fifo_sim_long(256, 500, 500, WaitMode::Spin);
        let stp = fifo_sim_long(256, 500, 500, WaitMode::SpinThenPark);
        assert!(
            stp.total_iterations * 2 > spin.total_iterations * 3,
            "parking must win at 2x oversubscription: stp={} spin={}",
            stp.total_iterations,
            spin.total_iterations
        );
    }

    #[test]
    fn work_accounting_integrates() {
        let r = fifo_sim(4, 1_000, 1_000, WaitMode::Spin);
        assert!(r.avg_working > 0.5 && r.avg_working <= 4.0);
        assert!(r.watts_above_idle > 0.0);
    }

    #[test]
    fn null_lock_scales_linearly() {
        let mut one = Simulation::new(MachineConfig::t5_socket());
        one.add_lock(LockSpec {
            kind: LockKind::Null,
            wait: WaitMode::Spin,
        });
        one.add_thread(Box::new(SpinLoop {
            phase: 0,
            cs: 500,
            ncs: 0,
        }));
        let r1 = one.run(0.001);

        let mut eight = Simulation::new(MachineConfig::t5_socket());
        eight.add_lock(LockSpec {
            kind: LockKind::Null,
            wait: WaitMode::Spin,
        });
        for _ in 0..8 {
            eight.add_thread(Box::new(SpinLoop {
                phase: 0,
                cs: 500,
                ncs: 0,
            }));
        }
        let r8 = eight.run(0.001);
        let ratio = r8.total_iterations as f64 / r1.total_iterations as f64;
        assert!(
            (6.0..=8.5).contains(&ratio),
            "null lock should scale ~linearly, ratio {ratio}"
        );
    }
}
