//! Malthusian locks: concurrency restriction for contended mutexes.
//!
//! This crate reproduces the lock algorithms from *Malthusian Locks*
//! (Dave Dice, EuroSys 2017). Under sustained contention, classic fair
//! locks circulate ownership over every participating thread, letting
//! the combined working set trample shared caches, TLBs, pipelines and
//! energy budgets — *scalability collapse*. Concurrency restriction
//! (CR) partitions the circulating threads into a minimal **active
//! circulating set** and a quiesced **passive set**, admitting only
//! enough threads to keep the lock saturated, while periodic
//! randomized promotion of the eldest passive thread bounds long-term
//! unfairness.
//!
//! # Lock algorithms
//!
//! | Type | Policy | Role in the paper |
//! |---|---|---|
//! | [`McsCrLock`] | CR via queue editing | the main contribution (§4) |
//! | [`McsLock`] | strict FIFO baseline | §4, Figure 2 |
//! | [`TasLock`] | unfair competitive baseline; RW-CR's gate | Figure 2 |
//! | [`RwCrLock`] | CR on both sides of a reader-writer lock | §7's "any contended resource" |
//!
//! [`McsLock`] and [`McsCrLock`] are one MCS queue under two admission
//! policies: they share its arrival, hand-off, reprovisioning, culling
//! and grafting code, and each lock's unlock only performs the edit
//! that [`policy::release`] picks (MCS makes none). [`RwCrLock`]'s
//! writers queue on an [`McsCrLock`], and its culled readers park on
//! the same passive list and are granted by the same decision.
//!
//! Every mutex implements [`RawLock`] and plugs into the
//! [`Mutex`]/[`MutexGuard`] RAII wrapper. [`Instrumented`] wraps any of
//! them to record the admission history the paper's fairness metrics
//! read. The mostly-LIFO admission discipline of §6.10–6.11 for
//! condition variables and semaphores is
//! [`policy::AdmissionDiscipline`], which the simulator's condvar
//! model runs.
//!
//! # Quick start
//!
//! ```
//! use malthus::McsCrMutex;
//! use std::sync::Arc;
//!
//! // A drop-in mutex whose admission policy resists scalability
//! // collapse under heavy contention.
//! let hits = Arc::new(McsCrMutex::default_cr(0u64));
//! let workers: Vec<_> = (0..4)
//!     .map(|_| {
//!         let hits = Arc::clone(&hits);
//!         std::thread::spawn(move || {
//!             for _ in 0..1_000 {
//!                 *hits.lock() += 1;
//!             }
//!         })
//!     })
//!     .collect();
//! for w in workers {
//!     w.join().unwrap();
//! }
//! assert_eq!(*hits.lock(), 4_000);
//! ```

#![warn(missing_docs)]

mod aliases;
mod instrument;
mod mcs;
mod mcscr;
mod mutex;
mod node;
pub mod pad;
pub mod policy;
mod queue;
mod raw;
mod rwcr;
mod tas;

pub use aliases::{McsCrMutex, McsMutex, TasMutex};
pub use instrument::{current_thread_index, Instrumented};
pub use mcs::McsLock;
pub use mcscr::{CrStats, McsCrLock};
pub use mutex::{Mutex, MutexGuard};
pub use pad::{CachePadded, LockCounter};
pub use raw::{RawLock, RawRwLock};
pub use rwcr::{RwCrLock, RwStats, WriterQueue};
pub use tas::TasLock;

// Re-export the waiting-policy vocabulary so downstream users need
// only this crate.
pub use malthus_park::{WaitPolicy, DEFAULT_SPIN_CYCLES};
