//! Concurrency restriction one layer up: a Malthusian work crew.
//!
//! §7 of *Malthusian Locks* (Dice, EuroSys 2017) observes that the
//! active/passive partitioning that cures lock-level scalability
//! collapse "can be applied to any contended resource". This crate
//! applies it at the task-scheduler level:
//!
//! * [`WorkCrew`] — a bounded-queue executor whose worker threads are
//!   partitioned into an active circulating set and a LIFO passive
//!   stack, with stall-driven reprovisioning, episodic eldest-first
//!   fairness promotion, and *lending*: a caller may borrow an idle
//!   ACS member's place ([`WorkCrew::try_enter`]) and run its work in
//!   place instead of paying a hand-off — holding the [`Slot`] for the
//!   shared-state part of that work only, so the place is back before
//!   the caller turns to anything private and slow. The partition
//!   itself is
//!   [`malthus::policy::Membership`] — the one executor-level machine,
//!   which `malthus-net`'s reactor owns too — kept under the crew's
//!   mutex; the crew's own are the queue, idling and lending.
//! * [`kv`] — a line-protocol key-value service ([`KvService`]) over a
//!   [`ShardedKv`](malthus_storage::ShardedKv): N shards, each §6.5's
//!   two contended locks (`--shards 1` is the paper-faithful single
//!   pair). It has **one request path**: a connection's drained batch
//!   goes through [`KvService::apply_batch_span`], and its data runs
//!   (`GET`/`PUT`/`MGET`/`MSET`, a run of one included) through
//!   `ShardedKv::execute_batch_span` — one lock hold per touched
//!   shard; `SCAN`/`STATS` and the control verbs render between the
//!   runs. `STATS` is a fixed projection of the service's metrics
//!   registry, so no admission handle rides that path. [`protocol`] is
//!   its wire grammar.
//! * [`server`] and [`kv_async`] — the two front-ends, which share the
//!   per-connection driver (bytes in → drained batch → replies out)
//!   and keep only their accept loop, their admission choice and their
//!   flush: a reader thread per connection whose batches the crew
//!   admits (cheap ones applied in place on a lent slot that is
//!   returned before the reply is written, dear ones queued), or
//!   a readiness reactor whose `epoll_wait` is itself
//!   Malthusian-admitted. [`client`] is the matching [`KvClient`].
//!   Binaries: `kv_server` (`--shards`, `--async`), `kv_load`
//!   (`--pipeline-depth`, per-op-type latencies), `kvtop`.
//!
//! The `bench_pool` binary (in `malthus-bench`) compares unrestricted
//! and Malthusian crews at rising oversubscription and writes
//! `BENCH_pool.json`.
//!
//! # Examples
//!
//! ```
//! use malthus_pool::{PoolConfig, WorkCrew};
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! // 8 workers, but only ~num_cpus circulate at once.
//! let crew = WorkCrew::new(PoolConfig::malthusian(8, 128));
//! let done = Arc::new(AtomicU64::new(0));
//! for _ in 0..1_000 {
//!     let done = Arc::clone(&done);
//!     crew.submit(move || {
//!         done.fetch_add(1, Ordering::Relaxed);
//!     })
//!     .unwrap();
//! }
//! let stats = crew.shutdown();
//! assert_eq!(stats.completed, 1_000);
//! ```

#![warn(missing_docs)]

pub mod client;
mod crew;
pub mod kv;
pub mod kv_async;
pub mod protocol;
pub mod server;
mod session;

pub use client::KvClient;
pub use crew::{PoolConfig, PoolStats, Slot, SubmitError, Task, WorkCrew, DEFAULT_STALL_THRESHOLD};
pub use kv::{KvService, PipelineStats};
pub use kv_async::{serve_async, AsyncServeOptions, KvHandler};
pub use protocol::{Parsed, Request};
pub use server::{ServeOptions, ServerControl};
