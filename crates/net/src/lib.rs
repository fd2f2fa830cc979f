//! `malthus-net`: a readiness-driven TCP front-end whose pollers are
//! admission-controlled by the Malthusian policy.
//!
//! The paper restricts *lock waiters* to a small active circulating
//! set; the work crew restricts *task-running threads*; this crate
//! restricts **concurrent `epoll_wait` callers** the same way. A
//! [`Reactor`] owns one epoll instance, a nonblocking listener and a
//! slab of nonblocking connections; its `workers` threads pass
//! through the familiar machine — cull to a LIFO passive stack when
//! the ACS has surplus, stall-based self-promotion of the stack top,
//! episodic eldest-fairness rotation — with "dequeue stalled" replaced
//! by "nobody is polling and the last poll return has gone stale".
//!
//! The protocol side stays out of this crate: implement [`Handler`]
//! (consume complete requests from the read buffer, append responses
//! to the write buffer) and the reactor does the readiness, buffer,
//! timer-wheel and partial-write bookkeeping. Everything is std +
//! the platform libc ([`sys`]); no external crates.

pub mod handler;
pub mod reactor;
pub mod sys;
pub mod wheel;

pub use handler::{Action, CloseReason, Handler};
pub use reactor::{Reactor, ReactorConfig, ReactorStats};
pub use wheel::TimerWheel;
