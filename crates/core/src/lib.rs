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
//! | [`LoiterLock`] | CR via outer-TAS/inner-MCS | appendix A.1 |
//! | [`LifoCrLock`] | CR via LIFO stack | appendix A.2 |
//! | [`McsCrnLock`] | NUMA-aware CR | §9.1 (future work) |
//! | [`McsLock`] | strict FIFO baseline | §4, Figure 2 |
//! | [`TicketLock`] | FIFO global-spin baseline | §5.4 |
//! | [`ClhLock`] | FIFO local-spin baseline | §5.4 |
//! | [`TasLock`], [`TatasLock`] | unfair competitive baselines | Figure 2, A.1 |
//!
//! [`McsLock`], [`McsCrLock`] and [`McsCrnLock`] are one MCS queue under
//! three admission policies: they share its arrival, hand-off,
//! reprovisioning, culling and grafting code, and each lock's unlock only
//! chooses among those edits (MCS makes none).
//!
//! Every algorithm implements [`RawLock`] and plugs into the
//! [`Mutex`]/[`MutexGuard`] RAII wrapper. CR is also available for
//! condition variables ([`CrCondvar`]) and semaphores
//! ([`CrSemaphore`]) via the mostly-LIFO admission discipline of
//! §6.10–6.11.
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
mod clh;
mod condvar;
mod instrument;
mod lifocr;
mod loiter;
mod mcs;
mod mcscr;
mod mcscrn;
mod mutex;
mod node;
pub mod pad;
pub mod policy;
mod queue;
mod raw;
mod semaphore;
mod tas;
mod ticket;

pub use aliases::{
    LifoCrMutex, LoiterMutex, McsCrMutex, McsCrnMutex, McsMutex, TasMutex, TicketMutex,
};
pub use clh::ClhLock;
pub use condvar::CrCondvar;
pub use instrument::{current_thread_index, Instrumented};
pub use lifocr::{LifoCrLock, LifoStats};
pub use loiter::{LoiterLock, LoiterStats};
pub use mcs::McsLock;
pub use mcscr::{CrStats, McsCrLock};
pub use mcscrn::{McsCrnLock, NumaStats};
pub use mutex::{Mutex, MutexGuard};
pub use node::{current_numa_node, set_current_numa_node};
pub use pad::{CachePadded, LockCounter};
pub use raw::RawLock;
pub use semaphore::CrSemaphore;
pub use tas::{TasLock, TatasLock};
pub use ticket::TicketLock;

// Re-export the waiting-policy vocabulary so downstream users need
// only this crate.
pub use malthus_park::{WaitPolicy, DEFAULT_SPIN_CYCLES};
