//! # crosslight-server
//!
//! A load-shedding TCP/JSON-lines front-end over the
//! [`crosslight-runtime`](crosslight_runtime) evaluation service — the
//! network surface that turns the in-process [`EvalService`] into a
//! datacenter-style inference endpoint, the deployment scenario the
//! paper's FPS/EPB metrics (Fig. 6–8, Table III) are meant to answer.
//!
//! Layering:
//!
//! * [`json`] — self-contained JSON: the pull reader that decodes every
//!   frame the exact-layout reader declines, the `Json` value it reads for
//!   callers that want a tree, and the helpers that write `f64`s
//!   (round-tripping exactly) and string literals (the workspace is
//!   offline, so no `serde_json`).
//! * [`wire`] — the versioned frame vocabulary: `eval`/`stats`/`ping`
//!   requests, `ok`/`err` responses, typed [`ErrorKind`]s, and the exact
//!   report encoding, proven bit-identical to in-process evaluation.
//! * [`poller`] — readiness primitives over `poll(2)` (via the offline
//!   `libc` compat shim): a reusable poll set, a loopback wake channel,
//!   and an incremental length-limited line scanner, shared by the
//!   front-end reactor, the cluster router's backend links and the swarm
//!   load generator.
//! * [`frontend`] — the connection machinery every JSON-lines front-end
//!   shares (this crate's server and the cluster router): one acceptor, a
//!   fixed pool of event-loop threads multiplexing all connections, line
//!   framing, bounded write queues with back-pressure, and the drain
//!   barrier; the protocol plugs in as a [`Handler`].
//! * [`server`] — the evaluation protocol on that front-end: every
//!   admitted eval is answered on the event loop that read it, through
//!   [`EvalService::answer`]; bounded admission with explicit
//!   `overloaded` shedding, a `stats` endpoint exposing [`RuntimeStats`]
//!   plus queue depths and shed counts, and graceful drain-on-shutdown.
//! * [`loadgen`] — the reference [`Client`], a deterministic seeded
//!   multi-connection load generator behind `examples/serve.rs`,
//!   `bench_server` and the stress tests, and a poll-driven connection
//!   swarm for ten-thousand-connection stress runs.
//!
//! See the **Serving** section of `RUNTIME.md` at the repository root for
//! the protocol specification and an example transcript.
//!
//! [`EvalService`]: crosslight_runtime::EvalService
//! [`EvalService::answer`]: crosslight_runtime::EvalService::answer
//! [`RuntimeStats`]: crosslight_runtime::RuntimeStats
//! [`ErrorKind`]: wire::ErrorKind
//! [`Client`]: loadgen::Client
//! [`Handler`]: frontend::Handler

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod frontend;
pub mod json;
pub mod loadgen;
pub mod poller;
pub mod server;
pub mod wire;

pub use loadgen::{Client, ClientOptions, LoadGenOptions, LoadReport};
pub use server::{Server, ServerOptions};
pub use wire::{
    ArchRequest, ErrorFrame, ErrorKind, EvalSpec, Request, RequestBody, Response, ResponseBody,
    RestoredFrame, SnapshotChunk, SnapshotEnd, SnapshotEntry,
};

/// Convenient re-exports for downstream users.
pub mod prelude {
    pub use crate::loadgen::{Client, ClientOptions, LoadGenOptions, LoadReport};
    pub use crate::server::{Server, ServerOptions};
    pub use crate::wire::{
        ArchRequest, ErrorFrame, ErrorKind, EvalSpec, Request, RequestBody, Response, ResponseBody,
        RestoredFrame, SnapshotChunk, SnapshotEnd, SnapshotEntry, WorkloadRef,
    };
}
