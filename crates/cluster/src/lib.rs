//! # crosslight-cluster
//!
//! A fault-tolerant cluster tier over the
//! [`crosslight-server`](crosslight_server) front-end: a [`Router`]
//! speaks the same `crosslight-wire/v1` JSON-lines protocol to clients
//! and shards `eval` traffic across N backend servers by the
//! platform-stable fingerprint of each request's canonical cache key —
//! the same key the runtime shards workers and memoizes reports by, so a
//! shard's repeats land on the backend that already holds them cached.
//!
//! Layering:
//!
//! * [`backend`] — per-backend circuit breakers (closed → open →
//!   half-open → closed: a recovered backend is readmitted cold, and
//!   recomputes what it lost) and rendezvous (highest-random-weight)
//!   replica placement.
//! * [`retry`] — bounded exponential backoff with deterministic jitter
//!   and the cluster-wide token [`RetryBudget`] that brakes retry storms.
//! * [`faultpoint`] — a seeded, deterministic fault-injection harness
//!   (kill/stall/slow/garble at named points) behind the chaos suite.
//! * [`router`] — the wire front-end, serving its clients on the server's
//!   shared reactor (`crosslight_server::frontend`) and each backend over
//!   one pipelined link: health-checked failover,
//!   per-request deadlines, re-routing of queued and in-flight work off
//!   dead backends, and explicit retryable `unavailable` shedding when a
//!   shard has no live replica.  Never a hang, never a silent wrong
//!   answer: forwarded traffic is byte-identical to a single server.
//!
//! See the **Cluster** section of `RUNTIME.md` at the repository root
//! for topology, routing and failure semantics, and the fault-point
//! catalog.
//!
//! [`Router`]: router::Router
//! [`RetryBudget`]: retry::RetryBudget

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod faultpoint;
pub mod retry;
pub mod router;

pub use backend::CircuitState;
pub use faultpoint::{FaultAction, FaultPlan, FaultPoint, FaultRule, Firing};
pub use retry::{RetryBudget, RetryPolicy};
pub use router::{Router, RouterOptions, RouterStats};

/// Convenient re-exports for downstream users.
pub mod prelude {
    pub use crate::backend::CircuitState;
    pub use crate::faultpoint::{FaultAction, FaultPlan, FaultPoint, FaultRule, Firing};
    pub use crate::retry::{RetryBudget, RetryPolicy};
    pub use crate::router::{Router, RouterOptions, RouterStats};
}
