//! Park/unpark infrastructure and waiting policies for Malthusian locks.
//!
//! This crate is the waiting substrate described in §5.1 of *Malthusian
//! Locks* (Dice, EuroSys 2017). It provides:
//!
//! * [`Parker`]/[`Unparker`] — a permit-based voluntary context-switch
//!   facility with the semantics the paper requires: an `unpark` may
//!   precede the corresponding `park` (the permit is consumed and `park`
//!   returns immediately), and `park` is allowed to return spuriously,
//!   so callers must re-check their wait condition.
//! * [`WaitCell`] — the per-waiter flag used by queue locks: a thread
//!   enqueues a cell, then waits on it with a [`WaitPolicy`] (polite
//!   local spinning, spin-then-park, or immediate parking) while the
//!   lock's unlock path signals it.
//! * [`XorShift64`] — the Marsaglia xorshift PRNG the paper uses for
//!   Bernoulli fairness trials (§4).
//! * [`stats`] — global counters for voluntary context switches and
//!   kernel-equivalent unpark notifications, reported in the paper's
//!   Figure 4.
//!
//! # Examples
//!
//! ```
//! use malthus_park::{WaitCell, WaitPolicy};
//! use std::sync::Arc;
//!
//! // A cell is created by the thread that will wait on it.
//! let cell = Arc::new(WaitCell::new());
//! let signaller = Arc::clone(&cell);
//! let helper = std::thread::spawn(move || {
//!     signaller.signal();
//! });
//! cell.wait(WaitPolicy::spin_then_park());
//! helper.join().unwrap();
//! ```

#![warn(missing_docs)]

mod parker;
mod rng;
mod spin;
pub mod stats;
mod waitcell;

pub use parker::{ParkResult, Parker, Unparker};
pub use rng::XorShift64;
pub use spin::{cpu_relax, SpinThenYield, SPIN_YIELD_BUDGET};
pub use waitcell::{WaitCell, WaitOutcome, WaitPolicy, DEFAULT_SPIN_CYCLES};
