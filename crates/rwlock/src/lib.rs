//! Malthusian reader-writer locks: concurrency restriction for the
//! shared/exclusive case.
//!
//! *Malthusian Locks* (Dice, EuroSys 2017) partitions the threads
//! circulating over a contended mutex into a small active set and a
//! quiesced passive set (§4), and observes that the idea "can be
//! applied to any contended resource" (§7). This crate grows the
//! reproduction's lock family with **RW-CR**, a reader-writer lock
//! built from the same parts:
//!
//! * the **writer side** *is* an [`McsCrLock`](malthus::McsCrLock) —
//!   writer culling, reprovisioning and eldest-writer fairness come
//!   from §4 unchanged;
//! * the **reader side** is a padded shared counter whose surplus is
//!   culled during write episodes onto MCSCR's own passive list, one
//!   arena node per parked reader, and granted by MCSCR's own release
//!   decision ([`malthus::policy::release`]): the warmest reader is
//!   woken to re-contend, in bounded batches
//!   ([`malthus::policy::rw_reader_batch`]) with an admission cascade
//!   that drains the list under readers-only traffic, and the paper's
//!   episodic [`FairnessTrigger`](malthus::policy::FairnessTrigger)
//!   grants the eldest passive reader with its slot taken *before*
//!   wakeup (so it cannot lose the admission race).
//!
//! [`RwCrLock`] is the raw algorithm ([`RawRwLock`]); it lives in
//! `malthus` beside the queue and passive list it shares with MCSCR,
//! and this crate re-exports it. [`RwMutex`] / [`RwCrMutex`] add the
//! `std::sync::RwLock`-shaped RAII surface.
//!
//! # Quick start
//!
//! ```
//! use malthus_rwlock::RwCrMutex;
//! use std::sync::Arc;
//!
//! let table = Arc::new(RwCrMutex::default_cr(vec![0u64; 64]));
//! let readers: Vec<_> = (0..4)
//!     .map(|_| {
//!         let table = Arc::clone(&table);
//!         std::thread::spawn(move || {
//!             // Readers share the lock; writers still pay admission.
//!             (0..1_000).map(|_| table.read()[0]).sum::<u64>()
//!         })
//!     })
//!     .collect();
//! table.write()[0] = 7;
//! for r in readers {
//!     r.join().unwrap();
//! }
//! assert_eq!(table.read()[0], 7);
//! ```

#![warn(missing_docs)]

mod rwmutex;

pub use malthus::{RawRwLock, RwCrLock, RwStats, WriterQueue};
pub use rwmutex::{RwCrMutex, RwMutex, RwReadGuard, RwWriteGuard};
