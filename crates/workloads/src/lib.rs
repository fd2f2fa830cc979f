//! The evaluation workloads of *Malthusian Locks* (§6).
//!
//! One module per experiment. Each workload exposes a `sim(...)`
//! constructor that builds a ready-to-run
//! [`Simulation`](malthus_machinesim::Simulation) with the paper's
//! parameters, and — where the effect is observable on a real host —
//! a live runner over the real locks from the `malthus` crate.
//!
//! | Module | Paper figure | Effect demonstrated |
//! |---|---|---|
//! | [`randarray`] | Fig. 3/4 | socket-level LLC pressure |
//! | [`ringwalker`] | Fig. 5 | core-level DTLB pressure |
//! | [`stress_latency`] | Fig. 6 | pipeline competition (libslock) |
//! | [`mmicro`] | Fig. 7 | central-lock malloc scalability |
//! | [`readwhilewriting`] | Fig. 8 | leveldb-style DB + cache locks |
//! | [`kccachetest`] | Fig. 9 | Kyoto-style in-memory DB |
//! | [`prodcons`] | Fig. 10 | condvar fast-flow (2 vs 3 acquires) |
//! | [`keymap`] | Fig. 11 | shared-map LLC occupancy |
//! | [`lrucache`] | Fig. 12 | software-LRU interference |
//! | [`perlish`] | Fig. 13 | CR via condvars (interpreted code) |
//! | [`bufferpool`] | Fig. 14 | append-probability sweep |
//! | [`pool_saturation`] | §7 (beyond locks) | scheduler-level CR via the work crew |
//! | [`rwreadwrite`] | §6.5 (live, RW locks) | read-fraction sweep over the RW-CR lock |
//! | [`sharded_contention`] | beyond §6.5 (live, sharded) | skewed traffic over N per-shard lock pairs |
//!
//! [`LockChoice`] names the lock configurations of the figures
//! (`MCS-S`, `MCS-STP`, `MCSCR-S`, `MCSCR-STP`, `null`).

#![warn(missing_docs)]

mod choice;
pub mod live;

pub mod bufferpool;
pub mod chaos;
pub mod kccachetest;
pub mod keymap;
pub mod lrucache;
pub mod mmicro;
pub mod perlish;
pub mod pool_saturation;
pub mod prodcons;
pub mod randarray;
pub mod readwhilewriting;
pub mod ringwalker;
pub mod rwreadwrite;
pub mod sharded_contention;
pub mod stress_latency;

pub use choice::LockChoice;
