//! producer_consumer (§6.7, Figure 10): the condvar fast-flow effect.
//!
//! The COZ benchmark: a bounded queue (10 000) built from one mutex,
//! two condvars and a `std::queue`; 3 consumers, a varying number of
//! producers. Under a FIFO lock, a producer typically acquires the
//! lock, finds the queue full, and waits — so each message costs 3
//! lock acquisitions (2 producer + 1 consumer). Under CR the system
//! enters "fast flow": threads wait on the *mutex* instead of the
//! condition variables and each message costs only 2 acquisitions.

use std::sync::{Arc, Mutex as StdMutex};

use malthus_machinesim::{Action, MachineConfig, SimWorkload, Simulation, WorkloadCtx};

use crate::choice::LockChoice;

/// Queue bound. The paper uses 10 000 over 10-second runs; the
/// simulated interval is ~1000x shorter, so the bound scales with it —
/// the regime of interest (queue saturated, producers blocking on
/// not-full) must be reached within the window.
pub const QUEUE_BOUND: i64 = 100;
/// Fixed consumer count.
pub const CONSUMERS: usize = 3;
/// Cycles to produce/consume one message outside the lock.
pub const WORK_CYCLES: u64 = 1500;
/// Cycles for the queue push/pop inside the lock.
pub const QUEUE_CYCLES: u64 = 250;

/// Condvar indices.
const NOT_FULL: usize = 0;
const NOT_EMPTY: usize = 1;

/// Shared queue model (the sim engine is single-threaded; the mutex
/// only satisfies `Send`).
type SharedCount = Arc<StdMutex<i64>>;

/// Producer state machine.
pub struct Producer {
    step: u8,
    count: SharedCount,
}

impl SimWorkload for Producer {
    fn next_action(&mut self, _ctx: &mut WorkloadCtx<'_>) -> Action {
        match self.step {
            0 => {
                self.step = 1;
                Action::Compute(WORK_CYCLES) // produce the message
            }
            1 => {
                self.step = 2;
                Action::Acquire(0)
            }
            2 => {
                // Holding the lock: full queues wait on NOT_FULL
                // (releasing the lock), then re-check.
                let full = *self.count.lock().expect("single-threaded") >= QUEUE_BOUND;
                if full {
                    // Stay in state 2: re-check after the wakeup.
                    Action::CondWait {
                        cv: NOT_FULL,
                        lock: 0,
                    }
                } else {
                    *self.count.lock().expect("single-threaded") += 1;
                    self.step = 3;
                    Action::Compute(QUEUE_CYCLES)
                }
            }
            3 => {
                self.step = 4;
                Action::Release(0)
            }
            4 => {
                self.step = 5;
                Action::CondNotifyOne(NOT_EMPTY)
            }
            _ => {
                self.step = 0;
                Action::EndIteration
            }
        }
    }
}

/// Consumer state machine.
pub struct Consumer {
    step: u8,
    count: SharedCount,
}

impl SimWorkload for Consumer {
    fn next_action(&mut self, _ctx: &mut WorkloadCtx<'_>) -> Action {
        match self.step {
            0 => {
                self.step = 1;
                Action::Acquire(0)
            }
            1 => {
                let empty = *self.count.lock().expect("single-threaded") <= 0;
                if empty {
                    Action::CondWait {
                        cv: NOT_EMPTY,
                        lock: 0,
                    }
                } else {
                    *self.count.lock().expect("single-threaded") -= 1;
                    self.step = 2;
                    Action::Compute(QUEUE_CYCLES)
                }
            }
            2 => {
                self.step = 3;
                Action::Release(0)
            }
            3 => {
                self.step = 4;
                Action::CondNotifyOne(NOT_FULL)
            }
            4 => {
                self.step = 5;
                Action::Compute(WORK_CYCLES) // consume the message
            }
            _ => {
                self.step = 0;
                // A conveyed message is the benchmark's unit of work.
                Action::EndIteration
            }
        }
    }
}

/// Builds the Figure 10 simulation: `producers` producers plus 3
/// consumers. The condvars are strict FIFO (the paper's baseline
/// condvar implementation); the CR effect enters through the lock.
pub fn sim(producers: usize, lock: LockChoice) -> Simulation {
    let mut sim = Simulation::new(MachineConfig::t5_socket());
    sim.add_lock(lock.spec(0xF1610));
    for cv_seed in [1u64, 2] {
        sim.add_condvar(malthus_machinesim::CvSpec {
            prepend_probability: 0.0,
            seed: cv_seed,
            wait: malthus_machinesim::WaitMode::SpinThenPark,
        });
    }
    let count: SharedCount = Arc::new(StdMutex::new(0));
    for _ in 0..producers {
        sim.add_thread(Box::new(Producer {
            step: 0,
            count: Arc::clone(&count),
        }));
    }
    for _ in 0..CONSUMERS {
        sim.add_thread(Box::new(Consumer {
            step: 0,
            count: Arc::clone(&count),
        }));
    }
    sim
}

/// Messages conveyed per simulated run (consumer iterations).
pub fn messages(report: &malthus_machinesim::RunReport, producers: usize) -> u64 {
    report.per_thread_iterations[producers..]
        .iter()
        .sum::<u64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_flow_end_to_end() {
        let r = sim(4, LockChoice::McsS).run(0.01);
        assert!(messages(&r, 4) > 100, "conveyance must happen");
    }

    #[test]
    fn lock_acquisitions_per_message_reflect_futility() {
        // With far more producers than consumers the queue saturates;
        // FIFO forces futile producer acquisitions.
        let producers = 16;
        let r = sim(producers, LockChoice::McsS).run(0.01);
        let msgs = messages(&r, producers).max(1);
        let acqs = r.admissions[0].len() as u64;
        let per = acqs as f64 / msgs as f64;
        assert!(
            per > 2.2,
            "FIFO should pay close to 3 acquisitions/message, got {per:.2}"
        );
    }

    #[test]
    fn cr_reduces_acquisitions_per_message() {
        let producers = 16;
        let fifo = sim(producers, LockChoice::McsS).run(0.01);
        let cr = sim(producers, LockChoice::McsCrStp).run(0.01);
        let fifo_per = fifo.admissions[0].len() as f64 / messages(&fifo, producers).max(1) as f64;
        let cr_per = cr.admissions[0].len() as f64 / messages(&cr, producers).max(1) as f64;
        assert!(
            cr_per < fifo_per,
            "CR fast flow must cut acquisitions: {fifo_per:.2} vs {cr_per:.2}"
        );
    }

    #[test]
    fn cr_stays_in_the_same_conveyance_band() {
        // Partial reproduction of Figure 10: the FIFO
        // 3-acquisitions-per-message cost reproduces exactly and CR's
        // acquisition discount appears, but the full fast-flow
        // throughput win does not emerge from the DES at this scale.
        // This test pins the reproduced band so regressions are
        // caught.
        let producers = 16;
        let fifo = sim(producers, LockChoice::McsS).run(0.01);
        let cr = sim(producers, LockChoice::McsCrStp).run(0.01);
        let f = messages(&fifo, producers);
        let c = messages(&cr, producers);
        assert!(
            c as f64 > f as f64 * 0.55,
            "CR conveyance regressed: {c} vs {f}"
        );
    }
}
