//! # crosslight-runtime
//!
//! A concurrent batched evaluation service over the CrossLight simulator —
//! the serving layer that turns one-shot `CrossLightSimulator::evaluate`
//! calls into production-style request traffic for design-space sweeps and
//! repeated workloads.
//!
//! The request lifecycle is **submit → shard → evaluate/cache → collect**:
//!
//! 1. **submit** — callers hand [`EvalService::submit_batch`](pool::EvalService::submit_batch)
//!    a stream of [`EvalRequest`](request::EvalRequest)s, usually produced by
//!    the [`SweepPlanner`](planner::SweepPlanner).
//! 2. **shard** — each request is grouped with the others of its worker,
//!    the platform-stable fingerprint of its canonical cache key
//!    ([`CacheKey`](cache::CacheKey)) modulo `workers`, so identical
//!    requests serialize in one group, and the groups are served on up to
//!    `workers` scoped threads of the [`sweep`] engine.
//! 3. **evaluate/cache** — each request is answered from the memoizing
//!    [`ShardedCache`](cache::ShardedCache) when possible; otherwise it is
//!    evaluated with a per-configuration
//!    [`PreparedSimulator`](crosslight_core::simulator::PreparedSimulator)
//!    (power/area/resolution computed once per configuration) and its
//!    report cached.
//! 4. **collect** — responses return in request order, each tagged with its
//!    worker and hit/miss provenance.
//!
//! The service owns no thread.  [`EvalService::submit`](pool::EvalService::submit)
//! serves one request on the calling thread, and
//! [`EvalService::answer`](pool::EvalService::answer) does too but answers
//! a hit with the caller's encoding memoized on the cache entry; the
//! network front-end's event loops answer every eval through it.  Every
//! request counts as its worker's, whatever thread serves it.
//!
//! The service is *transparent*: reports are bit-identical to serial
//! [`CrossLightSimulator`](crosslight_core::simulator::CrossLightSimulator)
//! evaluation for every worker count, batch partitioning and cache state.
//! See `RUNTIME.md` at the repository root for the full design.
//!
//! Requests are architecture-generic: an
//! [`EvalRequest`](request::EvalRequest) carries an
//! [`ArchSpec`](crosslight_baselines::ArchSpec), so one service serves
//! CrossLight design points and every other backend in the architecture zoo
//! (DEAP-CNN, HolyLight, electronic platforms, the symmetric MRR crossbar,
//! LiteCON) through the same cache, routing and counters.  CrossLight-only
//! traffic is unchanged: keys, fingerprints and reports are bit-identical to
//! the CrossLight-specific runtime this layer generalizes.
//!
//! # Example
//!
//! ```
//! use crosslight_runtime::prelude::*;
//! use crosslight_core::variants::CrossLightVariant;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let service = EvalService::new(RuntimeOptions::default().with_workers(4));
//! let requests = SweepPlanner::new()
//!     .variants(&CrossLightVariant::all())
//!     .repeats(2)
//!     .plan()?;
//! let responses = service.submit_batch(requests)?;
//! assert_eq!(responses.len(), 32);
//! let stats = service.stats();
//! assert_eq!(stats.cache_hits, 16); // the second repeat is free
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod error;
pub mod planner;
pub mod pool;
pub mod request;
pub mod sweep;

pub use cache::{CacheKey, ShardedCache};
pub use error::RuntimeError;
pub use planner::SweepPlanner;
pub use pool::{Answer, EvalService, RuntimeOptions, RuntimeStats};
pub use request::{EvalRequest, EvalResponse, KeyedRequest};

/// Convenient re-exports for downstream users.
pub mod prelude {
    pub use crate::cache::CacheKey;
    pub use crate::error::RuntimeError;
    pub use crate::planner::SweepPlanner;
    pub use crate::pool::{EvalService, RuntimeOptions, RuntimeStats};
    pub use crate::request::{EvalRequest, EvalResponse};
}
