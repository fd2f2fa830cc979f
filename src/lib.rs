//! Umbrella crate for the *Malthusian Locks* reproduction.
//!
//! Re-exports the whole workspace so examples and downstream users
//! need a single dependency:
//!
//! * [`locks`] — the concurrency-restricting MCSCR lock (`McsCrLock`),
//!   its MCS and TAS baselines and the `Mutex` RAII wrapper.
//! * [`rwlock`] — the Malthusian reader-writer lock (`RwCrLock`) and
//!   its `RwMutex` RAII wrapper.
//! * [`park`] — the park/unpark waiting substrate.
//! * [`metrics`] — LWSS, MTTR, Gini, RSTDDEV fairness metrics.
//! * [`cachesim`] — the installer-tagged cache/TLB emulation.
//! * [`machinesim`] — the discrete-event T5 machine model.
//! * [`storage`] — SimpleLRU, MiniKv, the sharded KV store and its
//!   write-ahead log.
//! * [`fault`] — the seed-replayable fault plans a store (or the
//!   server's net shims) can be armed with.
//! * [`pool`] — the Malthusian work crew (concurrency-restricting
//!   executor) and the TCP KV service built on it.
//! * [`workloads`] — the paper's twelve evaluation workloads.
//!
//! See `README.md` for a tour, the reproduction methodology and the
//! results.
//!
//! # Examples
//!
//! ```
//! use malthusian::locks::McsCrMutex;
//!
//! let m = McsCrMutex::default_cr(41u32);
//! *m.lock() += 1;
//! assert_eq!(*m.lock(), 42);
//! ```

#![warn(missing_docs)]

pub use malthus as locks;
pub use malthus_cachesim as cachesim;
pub use malthus_fault as fault;
pub use malthus_machinesim as machinesim;
pub use malthus_metrics as metrics;
pub use malthus_park as park;
pub use malthus_pool as pool;
pub use malthus_rwlock as rwlock;
pub use malthus_storage as storage;
pub use malthus_workloads as workloads;
