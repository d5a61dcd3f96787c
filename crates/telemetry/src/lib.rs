//! # crosslight-telemetry
//!
//! Std-only observability substrate for the CrossLight serving stack: the
//! measurement layer underneath `crosslight-runtime`'s evaluation service and
//! `crosslight-server`'s TCP front-end.
//!
//! Three pieces, layered:
//!
//! 1. **Primitives** ([`metrics`]) — [`Counter`], [`Gauge`] and a log-linear
//!    bucketed [`Histogram`], all cheap cloneable handles over shared atomic
//!    cores.  A counter or gauge update is a single atomic RMW and a
//!    histogram record four (bucket, sum, min and max); no locks, no
//!    allocation.  Histogram snapshots are order-independent and mergeable,
//!    so snapshots of separate histograms combine at scrape time.
//! 2. **Registry** ([`registry`]) — a [`Registry`] maps stable
//!    Prometheus-style family names (plus optional labels) to metric
//!    handles.  Registration is startup-time and lock-guarded; the handles
//!    handed back are the same lock-free primitives, so instrumented code
//!    never touches the registry lock.  [`Registry::snapshot`] produces a
//!    plain-data [`RegistrySnapshot`] with deterministic ordering, and
//!    snapshots from independent registries (runtime + server) merge into
//!    one scrape.
//! 3. **Exposition & tracing** ([`expose`], [`trace`]) — [`render_text`]
//!    renders a snapshot in the Prometheus text format (`# HELP`/`# TYPE`,
//!    cumulative `_bucket`/`_sum`/`_count` series), [`validate_text`] checks
//!    a rendered page for unregistered or duplicated names, and
//!    [`RequestTrace`]/[`SpanRing`] implement sampled per-request phase
//!    timelines, kept in a bounded in-memory ring and exported as JSON
//!    lines when it is drained.
//!
//! The crate is dependency-free (std only) in keeping with the repository's
//! offline-compat policy, and is consumed by the runtime, server, bench and
//! example layers.
//!
//! # Example
//!
//! ```
//! use crosslight_telemetry::{render_text, Registry};
//!
//! let registry = Registry::new();
//! let requests = registry.counter("demo_requests_total", "Requests served.");
//! let latency = registry.histogram("demo_latency_ns", "Request latency.");
//!
//! requests.inc();
//! latency.record(1_250);
//!
//! let page = render_text(&registry.snapshot());
//! assert!(page.contains("# TYPE demo_requests_total counter"));
//! assert!(page.contains("demo_requests_total 1"));
//! ```

#![warn(missing_docs)]

pub mod expose;
pub mod metrics;
pub mod registry;
pub mod trace;

pub use expose::{render_text, validate_text};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{
    FamilySnapshot, MetricKind, Registry, RegistryError, RegistrySnapshot, SeriesSnapshot,
    SeriesValue,
};
pub use trace::{Phase, RequestTrace, Span, SpanRing};

/// Convenience re-exports for `use crosslight_telemetry::prelude::*`.
pub mod prelude {
    pub use crate::expose::{render_text, validate_text};
    pub use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
    pub use crate::registry::{MetricKind, Registry, RegistrySnapshot, SeriesValue};
    pub use crate::trace::{Phase, RequestTrace, SpanRing};
}
