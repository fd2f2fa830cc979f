//! Observability substrate: a flight recorder and a metrics registry.
//!
//! Malthusian Locks (Dice, EuroSys 2017) is a measure-and-adapt
//! design — culling, reprovisioning and the fairness trigger are all
//! driven by what the lock observes about itself — yet the
//! reproduction's own internals (lock episodes, crew admission, shard
//! batches, WAL fsyncs) were invisible at runtime: counters lived on
//! five ad-hoc surfaces and event *ordering* was not recorded at all.
//! This crate supplies the two missing layers:
//!
//! - [`recorder`]: a lock-free, fixed-capacity, per-thread **flight
//!   recorder**. Each thread writes compact timestamped events into
//!   its own wrapping ring behind a global sampling gate; when the
//!   gate is closed the cost of an instrumentation point is a single
//!   relaxed load. [`recorder::dump`] merges every ring into
//!   time-ordered JSON lines for post-mortem interleaving analysis.
//! - [`registry`]: a **metrics registry** where subsystems register
//!   their existing counters, gauges and latency histograms once;
//!   [`registry::Registry::exposition`] snapshots them all into one
//!   Prometheus-text-style document (the `METRICS` wire command and
//!   the `kvtop` dashboard are both thin clients of it).
//! - [`span`]: **request-scoped span tracing** — a per-batch
//!   [`span::SpanContext`] threaded through the conn → crew → shard →
//!   WAL pipeline, attributing each batch's latency to pipeline
//!   stages (including lock admission and passive-list cull residency
//!   reported by the CR locks through thread-local accumulators).
//! - [`slowlog`]: a fixed-capacity lock-free **slowlog ring** holding
//!   the full stage breakdown of batches that exceeded the server's
//!   threshold (the `SLOWLOG` wire verb reads it).
//! - [`exposition`]: a parser for the registry's exposition format
//!   (escaped labels, HELP/TYPE families, cumulative buckets) shared
//!   by `kvtop` and anything else that consumes `METRICS`.
//!
//! The crate depends only on `malthus-metrics` (itself
//! dependency-free), so every other crate in the workspace — core,
//! rwlock, storage, pool — can layer instrumentation on top without
//! cycles.

#![warn(missing_docs)]

pub mod exposition;
pub mod recorder;
pub mod registry;
pub mod slowlog;
pub mod span;

pub use recorder::{errno, record, EventKind};
pub use registry::{Registry, Sample};
pub use slowlog::{SlowEntry, SlowRing};
pub use span::{SpanContext, Stage};
