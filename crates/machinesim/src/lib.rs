//! A discrete-event model of the paper's SPARC T5 evaluation machine.
//!
//! *Malthusian Locks* was evaluated on one socket of an Oracle SPARC
//! T5-2: 16 cores × 8 strands = 128 logical CPUs, two fusing pipelines
//! per core, an 8 MB shared L3, 128-entry per-core DTLBs, Solaris
//! parking primitives, 3.6 GHz. The scalability-collapse curves in the
//! paper's figures are properties of *that machine*; this crate
//! simulates it so every figure can be regenerated deterministically
//! on any host:
//!
//! * [`MachineConfig`] — topology and the execution-speed law
//!   (pipeline fusion/sharing, time multiplexing, park/unpark costs).
//! * [`SimLock`]/[`SimCondvar`] — queue-level models
//!   of the evaluated admission policies, making the same decisions as
//!   the live algorithms via the shared `malthus::policy` module.
//! * [`Simulation`] — the event engine: threads run [`Action`]
//!   programs; memory references are priced by `malthus-cachesim`.
//! * [`RunReport`] — throughput, admission histories (for LWSS/MTTR),
//!   park/unpark counts, CPU utilization, modeled watts, LLC misses.
//! * [`AnalyticModel`] — the closed-form Figure 1 model.
//!
//! # Examples
//!
//! ```
//! use malthus_machinesim::{
//!     Action, LockKind, LockSpec, MachineConfig, SimWorkload, Simulation, WaitMode, WorkloadCtx,
//! };
//!
//! struct Loop(u8);
//! impl SimWorkload for Loop {
//!     fn next_action(&mut self, _ctx: &mut WorkloadCtx<'_>) -> Action {
//!         let a = match self.0 {
//!             0 => Action::Acquire(0),
//!             1 => Action::Compute(1_000),
//!             2 => Action::Release(0),
//!             3 => Action::Compute(4_000),
//!             _ => Action::EndIteration,
//!         };
//!         self.0 = (self.0 + 1) % 5;
//!         a
//!     }
//! }
//!
//! let mut sim = Simulation::new(MachineConfig::t5_socket());
//! sim.add_lock(LockSpec { kind: LockKind::Fifo, wait: WaitMode::Spin });
//! for _ in 0..4 {
//!     sim.add_thread(Box::new(Loop(0)));
//! }
//! let report = sim.run(0.001); // 1 ms of simulated time
//! assert!(report.total_iterations > 0);
//! ```

#![warn(missing_docs)]

mod analytic;
mod engine;
mod locks;
mod machine;
mod report;
mod sync;
mod workload;

pub use analytic::AnalyticModel;
pub use engine::{CvSpec, LockSpec, Simulation};
pub use locks::{Arrival, LockKind, SimLock, SimLockStats, ThreadId, WaitMode};
pub use machine::{seconds_to_cycles, MachineConfig, CLOCK_HZ};
pub use report::RunReport;
pub use sync::SimCondvar;
pub use workload::{layout, Action, MemPattern, SimWorkload, WorkloadCtx};

// Re-export the policy vocabulary shared with the live locks.
pub use malthus::policy;
