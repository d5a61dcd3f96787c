//! The versioned JSON-lines wire protocol of `crosslight-server`.
//!
//! Every frame is one line of JSON.  Requests carry a protocol version `v`,
//! a caller-chosen correlation id, and an operation:
//!
//! ```text
//! {"v":1,"id":7,"op":"eval","config":{"variant":"Cross_opt_TED","dims":[20,150,100,60],
//!   "resolution_bits":16},"model":"lenet5_sign_mnist"}
//! {"v":1,"id":8,"op":"stats"}
//! {"v":1,"id":9,"op":"ping"}
//! ```
//!
//! The `config` object optionally names an architecture via `"arch"`; when
//! absent the request is a CrossLight evaluation, so every version-1 frame
//! from before the architecture zoo decodes (and answers) unchanged:
//!
//! ```text
//! {"v":1,"id":10,"op":"eval","config":{"arch":"holylight","units":250},"model":"cnn_cifar10"}
//! {"v":1,"id":11,"op":"eval","config":{"arch":"electronic","platform":"P100"},"model":"cnn_stl10"}
//! {"v":1,"id":12,"op":"eval","config":{"arch":"symmetric-crossbar","dims":[64,64],
//!   "resolution_bits":8},"model":"lenet5_sign_mnist"}
//! ```
//!
//! Unknown architecture, variant or platform names are answered with a
//! typed `unsupported` error frame (they are well-formed requests for
//! backends this server does not simulate), while structurally bad frames
//! stay `malformed`.
//!
//! Responses echo the id and carry either an `ok` payload or a typed `err`
//! frame:
//!
//! ```text
//! {"v":1,"id":7,"ok":{"type":"eval","cache_hit":false,"worker":2,"report":{...}}}
//! {"v":1,"id":7,"err":{"kind":"overloaded","detail":"admission queue full (capacity 256)"}}
//! ```
//!
//! Numbers round-trip exactly (see [`crate::json`]), so a decoded
//! [`SimulationReport`] is bit-identical to the one the in-process
//! [`EvalService`](crosslight_runtime::EvalService) produced — the protocol
//! never changes results, only transport.
//!
//! Decoding is total: any malformed, truncated or unsupported input maps to
//! an [`ErrorFrame`] (never a panic), which the server sends back with the
//! offending request's id when it could be parsed.
//!
//! The two hot frames — a CrossLight eval request naming a Table I model,
//! and an eval answer with an id — are read straight from the line's bytes
//! when they are exactly in the layout [`encode_request`] and
//! [`encode_response`] write: one pass, no allocation.  That reader
//! declines at the first byte that differs and hands the line to the wire
//! reader, one pull reader over the line's bytes (`crate::json`'s
//! `Reader`) that reads every other frame and produces every error.  The
//! exact reader never disagrees with it: a line it accepts reads to the
//! same value, every float bit for bit.  No frame is decoded through a
//! [`Json`](crate::json::Json) tree.  A syntax error anywhere in a line
//! wins over any other error, so a line
//! [`Json::parse`](crate::json::Json::parse) rejects decodes to
//! `malformed` "invalid JSON: …" with the same text.
//!
//! Every value has one wire form, the private `Wire` trait: how the
//! encoders append it, how the wire reader reads it and how the exact
//! reader reads it.  Each struct that travels as an object — the stats,
//! restored and eval frames, the report with its power, area and metrics
//! objects, the VDP unit report and the workload — gets all three from one
//! member table (`wire_object!`) that spells each key once, in wire order.
//! The wire reader reads a table's members in any order into one slot per
//! key: it tries the key the encoder writes next first, reads past unknown
//! members and keeps the first of duplicate keys, as
//! [`Json::get`](crate::json::Json::get) does.  Slots are taken in the
//! table's order, so errors come in the order the protocol checks them.
//! The kind-tagged values (architecture keys, snapshot entries, metric
//! families and histograms) implement the trait by hand, and the eval
//! request's `config` stays hand-written.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::ops::Range;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crosslight_baselines::holylight::HOLYLIGHT_UNITS;
use crosslight_baselines::litecon::{
    LITECON_DEFAULT_BITS, LITECON_DEFAULT_UNITS, LITECON_DEFAULT_UNIT_SIZE,
};
use crosslight_baselines::symmetric_crossbar::{
    SYMMETRIC_DEFAULT_BITS, SYMMETRIC_DEFAULT_COLS, SYMMETRIC_DEFAULT_ROWS,
};
use crosslight_baselines::{
    ArchSpec, DeapCnn, ElectronicPlatform, HolyLight, LiteCon, SymmetricCrossbar,
};
use crosslight_core::area::AcceleratorArea;
use crosslight_core::cache::ModelCacheEntry;
use crosslight_core::canonical::{ArchKey, BackendKey, ConfigKey, ResolutionKey, VdpUnitKey};
use crosslight_core::config::CrossLightConfig;
use crosslight_core::performance::{InferenceLatency, InferenceMetrics};
use crosslight_core::power::AcceleratorPower;
use crosslight_core::simulator::SimulationReport;
use crosslight_core::variants::CrossLightVariant;
use crosslight_core::vdp::VdpUnitReport;
use crosslight_neural::fingerprint::StableHasher;
use crosslight_neural::layers::DotProductWorkload;
use crosslight_neural::workload::NetworkWorkload;
use crosslight_neural::zoo::PaperModel;
use crosslight_photonics::units::{MilliWatts, Picojoules, Seconds, SquareMillimeters, Watts};
use crosslight_runtime::pool::RuntimeStats;
use crosslight_runtime::request::EvalRequest;
use crosslight_telemetry::{
    FamilySnapshot, HistogramSnapshot, MetricKind, RegistrySnapshot, SeriesSnapshot, SeriesValue,
};

use crate::json::{self, JsonError, Number, Reader, Syntax, Token};

/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: u64 = 1;

/// Schema tag carried by every structured `metrics` snapshot, so scrapers
/// can detect vocabulary changes without diffing family lists.
pub const METRICS_SCHEMA: &str = "crosslight-metrics/v1";

/// Default maximum accepted line length (bytes, excluding the newline).
pub const DEFAULT_MAX_LINE_BYTES: usize = 64 * 1024;

/// Schema tag carried by every cache-snapshot frame (`snapshot` chunks and
/// `restore` streams), so a restore can reject snapshots produced by an
/// incompatible cache export format.
pub const SNAPSHOT_SCHEMA: &str = "crosslight-snapshot/v1";

/// The typed error kinds of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorKind {
    /// The line was not a valid frame (bad JSON, missing/ill-typed fields,
    /// unknown op, unknown variant/model name).
    Malformed,
    /// The frame declared a protocol version this server does not speak.
    UnsupportedVersion,
    /// The line exceeded the server's maximum line length.
    Oversized,
    /// The admission queue was full; the request was shed, not queued.
    Overloaded,
    /// The simulator rejected the request (e.g. invalid architecture
    /// dimensions).
    Evaluation,
    /// The server is draining and no longer accepts new work.
    ShuttingDown,
    /// The frame named an architecture, design variant or platform this
    /// server does not simulate.  Distinct from [`ErrorKind::Malformed`]:
    /// the frame itself was well-formed.
    Unsupported,
    /// No backend able to serve the request is currently reachable (every
    /// replica of the request's shard is down, the retry budget ran out, or
    /// the request's deadline expired first).  The request was *not*
    /// evaluated; retrying later is safe and expected.
    Unavailable,
}

impl ErrorKind {
    /// The stable wire name of the kind.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Malformed => "malformed",
            Self::UnsupportedVersion => "unsupported_version",
            Self::Oversized => "oversized",
            Self::Overloaded => "overloaded",
            Self::Evaluation => "evaluation",
            Self::ShuttingDown => "shutting_down",
            Self::Unsupported => "unsupported",
            Self::Unavailable => "unavailable",
        }
    }

    /// Parses a wire name back into the kind.
    #[must_use]
    pub fn from_wire_name(name: &str) -> Option<Self> {
        [
            Self::Malformed,
            Self::UnsupportedVersion,
            Self::Oversized,
            Self::Overloaded,
            Self::Evaluation,
            Self::ShuttingDown,
            Self::Unsupported,
            Self::Unavailable,
        ]
        .into_iter()
        .find(|k| k.as_str() == name)
    }

    /// Whether a client may safely retry the request.  Retryable kinds are
    /// transient serving-capacity conditions (`overloaded`,
    /// `shutting_down`, `unavailable`): the request was never evaluated, so
    /// resending it cannot change any answer.  Content errors (`malformed`,
    /// `evaluation`, …) are deterministic and retrying them is useless.
    ///
    /// Encoded as `"retryable":true` on error frames of these kinds only —
    /// non-retryable frames stay byte-identical to every earlier v1 build.
    #[must_use]
    pub fn retryable(self) -> bool {
        matches!(
            self,
            Self::Overloaded | Self::ShuttingDown | Self::Unavailable
        )
    }
}

/// A typed error frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorFrame {
    /// What went wrong, as a closed enum clients can switch on.
    pub kind: ErrorKind,
    /// Human-readable detail (never required for dispatch).
    pub detail: String,
}

impl ErrorFrame {
    /// Builds an error frame.
    #[must_use]
    pub fn new(kind: ErrorKind, detail: impl Into<String>) -> Self {
        Self {
            kind,
            detail: detail.into(),
        }
    }

    fn malformed(detail: impl Into<String>) -> Self {
        Self::new(ErrorKind::Malformed, detail)
    }

    fn unsupported(detail: impl Into<String>) -> Self {
        Self::new(ErrorKind::Unsupported, detail)
    }
}

impl From<JsonError> for ErrorFrame {
    fn from(err: JsonError) -> Self {
        Self::malformed(format!("invalid JSON: {err}"))
    }
}

impl From<Syntax> for ErrorFrame {
    fn from(err: Syntax) -> Self {
        JsonError::from(err).into()
    }
}

/// How a request names its workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadRef {
    /// One of the four Table I models, by
    /// [`PaperModel::wire_name`](crosslight_neural::zoo::PaperModel::wire_name).
    Model(PaperModel),
    /// A full inline workload (per-layer dot-product jobs).
    Inline(NetworkWorkload),
}

/// The architecture named by one `eval` request — the wire-level mirror of
/// the [`ArchSpec`] zoo.  Name resolution (architecture, variant, platform)
/// happens at decode time; numeric validation is deferred to
/// [`ArchRequest::to_arch_spec`], so a well-formed frame for an invalid
/// design point gets a typed `evaluation` error, not a decode failure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArchRequest {
    /// A CrossLight design point (the only architecture of protocol
    /// version 1's original vocabulary; encoded without an `"arch"` field
    /// so those frames stay byte-identical).
    CrossLight {
        /// Cross-layer design variant, transmitted by paper label.
        variant: CrossLightVariant,
        /// Architecture dimensions `(N, K, n, m)`.
        dims: (usize, usize, usize, usize),
        /// Energy-accounting resolution in bits.
        resolution_bits: u32,
    },
    /// DEAP-CNN (fixed published design, no knobs).
    DeapCnn,
    /// HolyLight with an explicit microdisk-unit count.
    HolyLight {
        /// Number of dot-product units (`"units"`, defaults to the
        /// published 250).
        units: usize,
    },
    /// A literature electronic platform, by name (`"platform"`).
    Electronic {
        /// The platform's reference numbers.
        platform: ElectronicPlatform,
    },
    /// The symmetric add–drop MRR crossbar.
    SymmetricCrossbar {
        /// Crossbar dimensions `(rows, cols)` (`"dims"`).
        dims: (usize, usize),
        /// Weight resolution in bits.
        resolution_bits: u32,
    },
    /// LiteCON.
    LiteCon {
        /// Array dimensions `(units, unit_size)` (`"dims"`).
        dims: (usize, usize),
        /// Weight resolution in bits.
        resolution_bits: u32,
    },
}

impl ArchRequest {
    /// The wire-level request naming an [`ArchSpec`], so in-process zoo
    /// sweeps can be replayed over the wire verbatim.  Returns `None` only
    /// for a CrossLight spec whose design choices match no named paper
    /// variant (the wire transmits variants by label).
    #[must_use]
    pub fn for_spec(spec: &ArchSpec) -> Option<Self> {
        Some(match spec {
            ArchSpec::CrossLight(config) => {
                let variant = CrossLightVariant::all()
                    .into_iter()
                    .find(|v| v.design() == config.design)?;
                Self::CrossLight {
                    variant,
                    dims: (
                        config.conv_unit_size,
                        config.fc_unit_size,
                        config.conv_units,
                        config.fc_units,
                    ),
                    resolution_bits: config.resolution_bits,
                }
            }
            ArchSpec::DeapCnn(_) => Self::DeapCnn,
            ArchSpec::HolyLight(holylight) => Self::HolyLight {
                units: holylight.units(),
            },
            ArchSpec::Electronic(platform) => Self::Electronic {
                platform: *platform,
            },
            ArchSpec::SymmetricCrossbar(crossbar) => Self::SymmetricCrossbar {
                dims: (crossbar.rows(), crossbar.cols()),
                resolution_bits: crossbar.resolution_bits(),
            },
            ArchSpec::LiteCon(litecon) => Self::LiteCon {
                dims: (litecon.units(), litecon.unit_size()),
                resolution_bits: litecon.resolution_bits(),
            },
        })
    }

    /// Builds the validated [`ArchSpec`] this request names.
    ///
    /// # Errors
    ///
    /// Returns an [`ErrorFrame`] of kind [`ErrorKind::Evaluation`] if the
    /// parameters are architecturally invalid.
    pub fn to_arch_spec(&self) -> Result<ArchSpec, ErrorFrame> {
        let evaluation =
            |err: &dyn std::fmt::Display| ErrorFrame::new(ErrorKind::Evaluation, err.to_string());
        match *self {
            Self::CrossLight {
                variant,
                dims: (n, k, conv_units, fc_units),
                resolution_bits,
            } => CrossLightConfig::new(n, k, conv_units, fc_units, variant.design())
                .map(|c| ArchSpec::CrossLight(c.with_resolution_bits(resolution_bits)))
                .map_err(|err| evaluation(&err)),
            Self::DeapCnn => Ok(ArchSpec::DeapCnn(DeapCnn::new())),
            Self::HolyLight { units } => Ok(ArchSpec::HolyLight(HolyLight::with_units(units))),
            Self::Electronic { platform } => Ok(ArchSpec::Electronic(platform)),
            Self::SymmetricCrossbar {
                dims: (rows, cols),
                resolution_bits,
            } => SymmetricCrossbar::with_dims(rows, cols, resolution_bits)
                .map(ArchSpec::SymmetricCrossbar)
                .map_err(|err| evaluation(&err)),
            Self::LiteCon {
                dims: (units, unit_size),
                resolution_bits,
            } => LiteCon::with_dims(units, unit_size, resolution_bits)
                .map(ArchSpec::LiteCon)
                .map_err(|err| evaluation(&err)),
        }
    }
}

/// The scenario named by one `eval` request: an architecture (CrossLight
/// design point or any zoo backend) applied to a workload — the same axes
/// the [`SweepPlanner`](crosslight_runtime::SweepPlanner) expands.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalSpec {
    /// The architecture to evaluate.
    pub arch: ArchRequest,
    /// The workload to evaluate.
    pub workload: WorkloadRef,
}

impl EvalSpec {
    /// A spec for a paper model on the given variant with the paper-best
    /// architecture at 16 bits.
    #[must_use]
    pub fn paper(variant: CrossLightVariant, model: PaperModel) -> Self {
        Self::crosslight(
            variant,
            crosslight_core::config::BEST_CONFIG,
            16,
            WorkloadRef::Model(model),
        )
    }

    /// A CrossLight spec with explicit dimensions and resolution.
    #[must_use]
    pub fn crosslight(
        variant: CrossLightVariant,
        dims: (usize, usize, usize, usize),
        resolution_bits: u32,
        workload: WorkloadRef,
    ) -> Self {
        Self {
            arch: ArchRequest::CrossLight {
                variant,
                dims,
                resolution_bits,
            },
            workload,
        }
    }

    /// A spec for any architecture request.
    #[must_use]
    pub fn for_arch(arch: ArchRequest, workload: WorkloadRef) -> Self {
        Self { arch, workload }
    }

    /// Builds the validated [`CrossLightConfig`] this spec names, when it
    /// names a CrossLight design point.
    ///
    /// # Errors
    ///
    /// Returns an [`ErrorFrame`] of kind [`ErrorKind::Evaluation`] if the
    /// dimensions are architecturally invalid or the spec names a
    /// non-CrossLight backend.
    pub fn config(&self) -> Result<CrossLightConfig, ErrorFrame> {
        match self.arch.to_arch_spec()? {
            ArchSpec::CrossLight(config) => Ok(config),
            other => Err(ErrorFrame::new(
                ErrorKind::Evaluation,
                format!("`{}` is not a CrossLight design point", other.label()),
            )),
        }
    }

    /// Resolves the spec into a runtime [`EvalRequest`], sharing prebuilt
    /// paper workloads from `table` (indexed as [`PaperModel::all`]).
    ///
    /// # Errors
    ///
    /// Returns an [`ErrorFrame`] of kind [`ErrorKind::Evaluation`] if the
    /// architecture parameters are invalid.
    pub fn to_eval_request(
        &self,
        id: u64,
        table: &[Arc<NetworkWorkload>; 4],
    ) -> Result<EvalRequest, ErrorFrame> {
        let arch = self.arch.to_arch_spec()?;
        let workload = match &self.workload {
            WorkloadRef::Model(model) => {
                let index = PaperModel::all()
                    .iter()
                    .position(|m| m == model)
                    .expect("PaperModel::all covers every variant");
                Arc::clone(&table[index])
            }
            WorkloadRef::Inline(workload) => Arc::new(workload.clone()),
        };
        Ok(EvalRequest::for_arch(arch, workload).with_id(id))
    }
}

/// One request frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Caller-chosen correlation id, echoed on the response.
    pub id: u64,
    /// The operation.
    pub body: RequestBody,
}

/// The operations of the protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RequestBody {
    /// Evaluate one scenario.
    Eval(EvalSpec),
    /// Snapshot the server + runtime counters.
    Stats,
    /// Liveness probe.
    Ping,
    /// Scrape the merged server + runtime metric registries.
    Metrics {
        /// Requested payload shape.
        format: MetricsFormat,
    },
    /// Export the full warm state (result + model caches) as a chunked
    /// snapshot stream: `snapshot` chunk responses followed by one
    /// `snapshot_end` frame.
    Snapshot {
        /// The requesting peer's own line-length budget, in bytes.  The
        /// exporter sizes chunk frames under `min(this, its own
        /// max_line_bytes)` so a client with a smaller limit than the
        /// server never receives an undecodable oversized chunk.  Absent
        /// (the default) means "size by the server's limit", the historic
        /// behaviour.
        max_chunk_bytes: Option<u64>,
    },
    /// One chunk of a restore stream.  Chunks must arrive in sequence on
    /// one connection, starting at 0; the server only answers at
    /// `restore_end`.
    Restore(SnapshotChunk),
    /// Terminates a restore stream; the server validates the totals and
    /// checksum, applies the entries, and answers `restored` or a typed
    /// error.
    RestoreEnd(SnapshotEnd),
}

/// The payload shape of one `metrics` scrape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum MetricsFormat {
    /// Structured JSON snapshot (the default when `format` is absent).
    #[default]
    Json,
    /// Prometheus-style text exposition page.
    Text,
    /// Drain the sampled trace-span rings as raw JSON lines.
    Spans,
}

impl MetricsFormat {
    /// The stable wire name of the format.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Json => "json",
            Self::Text => "text",
            Self::Spans => "spans",
        }
    }

    /// Parses a wire name back into the format.
    #[must_use]
    pub fn from_wire_name(name: &str) -> Option<Self> {
        match name {
            "json" => Some(Self::Json),
            "text" => Some(Self::Text),
            "spans" => Some(Self::Spans),
            _ => None,
        }
    }
}

/// Server-side counters exposed by the `stats` endpoint.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireServerStats {
    /// Connections accepted since startup.
    pub connections_accepted: u64,
    /// Connections currently open.
    pub connections_active: u64,
    /// Frames received (all ops, including shed/malformed ones).
    pub requests_total: u64,
    /// Eval requests answered with a report.
    pub evals_ok: u64,
    /// Eval requests answered with a typed `evaluation` error.
    pub evals_failed: u64,
    /// Eval requests shed by admission control.
    pub shed_total: u64,
    /// Frames rejected as malformed/unsupported-version.
    pub malformed_total: u64,
    /// Lines rejected as oversized.
    pub oversized_total: u64,
    /// Admission-queue capacity (max in-flight evals).
    pub queue_capacity: u64,
    /// Evals currently admitted and not yet answered.
    pub in_flight: u64,
}

/// The payload of a successful `stats` response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsFrame {
    /// Front-end counters.
    pub server: WireServerStats,
    /// Evaluation-service counters.
    pub runtime: RuntimeStats,
}

/// The payload of a successful `metrics` response, by requested format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MetricsFrame {
    /// Structured snapshot (`json` format), tagged [`METRICS_SCHEMA`] on
    /// the wire.
    Snapshot(RegistrySnapshot),
    /// Prometheus-style exposition page (`text` format).
    Text(String),
    /// Drained trace-span JSON lines (`spans` format).
    Spans(Vec<String>),
}

/// The payload of a successful `eval` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalFrame {
    /// The simulation result, bit-identical to in-process evaluation.
    pub report: SimulationReport,
    /// Whether the report came from the memoizing cache.
    pub cache_hit: bool,
    /// The worker that served the request.
    pub worker: u64,
}

/// One exported cache entry in wire form: either a result-cache entry (the
/// full `(architecture, workload) → report` pair) or a model-cache entry.
/// Keys travel as their canonical `u64` words, values as the same exact-f64
/// encodings every other frame uses, so a restored entry is bit-identical
/// to the organically-computed one.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotEntry {
    /// One runtime result-cache entry.
    Result {
        /// Canonical architecture identity (fingerprint is recomputed on
        /// restore, never transported).
        arch: ArchKey,
        /// The full workload component of the key.
        workload: NetworkWorkload,
        /// The memoized report.
        report: SimulationReport,
    },
    /// One core model-cache entry.
    Model(ModelCacheEntry),
}

/// One numbered chunk of a snapshot stream.  Chunks are sized under the
/// transport's line limit by [`chunk_snapshot_entries`] and carry
/// consecutive sequence numbers starting at 0, so a receiver detects any
/// truncation or reordering.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotChunk {
    /// 0-based chunk sequence number.
    pub seq: u64,
    /// The entries of this chunk, in stream order.
    pub entries: Vec<SnapshotEntry>,
}

/// The terminal frame of a snapshot stream: totals plus a checksum over
/// every entry's canonical encoding (see [`snapshot_checksum`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotEnd {
    /// Number of chunks that preceded this frame.
    pub chunks: u64,
    /// Total entries across all chunks.
    pub entries: u64,
    /// FNV-1a checksum of the concatenated canonical entry encodings.
    pub checksum: u64,
}

/// The payload of a successful `restore_end` response: how many transported
/// entries were applied to each cache (entries already present on the
/// receiver are counted as applied — the caches converge either way).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoredFrame {
    /// Total entries in the validated stream.
    pub entries: u64,
    /// Result-cache entries newly inserted.
    pub results: u64,
    /// Model-cache entries newly inserted.
    pub model: u64,
}

/// One response frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Correlation id, when the request's id could be parsed.
    pub id: Option<u64>,
    /// The outcome.
    pub body: ResponseBody,
}

/// The response payloads of the protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ResponseBody {
    /// A completed evaluation.
    Eval(EvalFrame),
    /// A stats snapshot.
    Stats(StatsFrame),
    /// A metrics scrape.
    Metrics(MetricsFrame),
    /// One chunk of a snapshot stream.
    Snapshot(SnapshotChunk),
    /// The terminal frame of a snapshot stream.
    SnapshotEnd(SnapshotEnd),
    /// A completed restore.
    Restored(RestoredFrame),
    /// Answer to `ping`.
    Pong,
    /// A typed error.
    Error(ErrorFrame),
}

impl Response {
    /// Builds an error response.
    #[must_use]
    pub fn error(id: Option<u64>, frame: ErrorFrame) -> Self {
        Self {
            id,
            body: ResponseBody::Error(frame),
        }
    }
}

// ---------------------------------------------------------------------------
// One wire form per value
// ---------------------------------------------------------------------------

/// Why a value could not be read.  A syntax error ends the read of the
/// whole line; a bad value spoils only its own member, and the reader is
/// past it, so the object around it reads on.
enum Fault {
    Syntax(Syntax),
    Bad(Box<ErrorFrame>),
}

impl From<Syntax> for Fault {
    fn from(err: Syntax) -> Self {
        Self::Syntax(err)
    }
}

impl From<ErrorFrame> for Fault {
    #[cold]
    fn from(frame: ErrorFrame) -> Self {
        Self::Bad(Box::new(frame))
    }
}

impl From<Fault> for ErrorFrame {
    fn from(fault: Fault) -> Self {
        match fault {
            Fault::Syntax(err) => err.into(),
            Fault::Bad(frame) => *frame,
        }
    }
}

/// Splits a read's outcome: a syntax error goes up, a bad value stays with
/// its member.
fn settle<T>(read: Result<T, Fault>) -> Result<Result<T, Fault>, Syntax> {
    match read {
        Err(Fault::Syntax(err)) => Err(err),
        read => Ok(read),
    }
}

/// A value's one wire form: how the encoders append it to the line, how
/// the wire reader reads it back and how the exact reader reads it.  `'a`
/// is the line's lifetime, so a read value may borrow from the line.
trait Wire<'a>: Sized {
    /// Appends the value to the line.
    fn encode(&self, out: &mut String);

    /// Reads the value at the reader's cursor; `key` names it in error
    /// details.  On a bad value the reader is past it.
    fn read(r: &mut Reader<'a>, key: &str) -> Result<Self, Fault>;

    /// Reads the value exactly as [`Wire::encode`] writes it, or `None` at
    /// the first byte that differs.  Only what an eval request or answer
    /// carries is read this way; every other value declines, which hands
    /// the line to [`Wire::read`].
    fn read_exact(_at: &mut Exact<'_>) -> Option<Self> {
        None
    }
}

/// A `malformed` error about the field `key`.
#[cold]
fn bad(key: &str, what: &str) -> ErrorFrame {
    ErrorFrame::malformed(format!("field `{key}` {what}"))
}

impl Wire<'_> for u64 {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn read(r: &mut Reader<'_>, key: &str) -> Result<Self, Fault> {
        match r.scalar()? {
            Token::Number(Number::Uint(v)) => Ok(v),
            _ => Err(bad(key, "must be a non-negative integer").into()),
        }
    }

    fn read_exact(at: &mut Exact<'_>) -> Option<Self> {
        at.u64()
    }
}

/// The narrower unsigned integers travel as a `u64` that must fit them.
macro_rules! narrow_wire {
    ($($ty:ty),+) => {$(
        impl Wire<'_> for $ty {
            fn encode(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }

            fn read(r: &mut Reader<'_>, key: &str) -> Result<Self, Fault> {
                <$ty>::try_from(u64::read(r, key)?).map_err(|_| bad(key, "out of range").into())
            }

            fn read_exact(at: &mut Exact<'_>) -> Option<Self> {
                <$ty>::try_from(at.u64()?).ok()
            }
        }
    )+};
}

narrow_wire!(u8, u32, usize);

impl Wire<'_> for i64 {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn read(r: &mut Reader<'_>, key: &str) -> Result<Self, Fault> {
        match r.scalar()? {
            Token::Number(Number::Uint(v)) => {
                i64::try_from(v).map_err(|_| bad(key, "out of range").into())
            }
            Token::Number(Number::Int(v)) => Ok(v),
            _ => Err(bad(key, "must be an integer").into()),
        }
    }
}

impl Wire<'_> for f64 {
    fn encode(&self, out: &mut String) {
        json::push_f64(*self, out);
    }

    /// Any number, or a non-finite value's tagged string, as
    /// [`Json::as_f64`](crate::json::Json::as_f64) reads it.
    fn read(r: &mut Reader<'_>, key: &str) -> Result<Self, Fault> {
        Ok(match r.scalar()? {
            Token::Number(Number::Uint(v)) => v as f64,
            Token::Number(Number::Int(v)) => v as f64,
            Token::Number(Number::Float(v)) => v,
            Token::Str(text) if text.is("NaN") => f64::NAN,
            Token::Str(text) if text.is("inf") => f64::INFINITY,
            Token::Str(text) if text.is("-inf") => f64::NEG_INFINITY,
            _ => return Err(bad(key, "must be a number").into()),
        })
    }

    /// A float as [`Wire::read`] reads it, minus the integral tokens the
    /// encoder never writes (`1` for `1.0`).
    fn read_exact(at: &mut Exact<'_>) -> Option<Self> {
        if at.line.as_bytes().get(at.pos) == Some(&b'"') {
            return [
                ("\"NaN\"", f64::NAN),
                ("\"inf\"", f64::INFINITY),
                ("\"-inf\"", f64::NEG_INFINITY),
            ]
            .into_iter()
            .find_map(|(text, value)| at.lit(text).map(|()| value));
        }
        let (token, integral) = at.number()?;
        if integral {
            return None;
        }
        json::parse_float(token)
    }
}

/// The photonics unit newtypes travel as their `f64` value.
macro_rules! unit_wire {
    ($($ty:ty),+) => {$(
        impl Wire<'_> for $ty {
            fn encode(&self, out: &mut String) {
                json::push_f64(self.value(), out);
            }

            fn read(r: &mut Reader<'_>, key: &str) -> Result<Self, Fault> {
                f64::read(r, key).map(<$ty>::new)
            }

            fn read_exact(at: &mut Exact<'_>) -> Option<Self> {
                f64::read_exact(at).map(<$ty>::new)
            }
        }
    )+};
}

unit_wire!(MilliWatts, Picojoules, Seconds, SquareMillimeters, Watts);

impl Wire<'_> for bool {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn read(r: &mut Reader<'_>, key: &str) -> Result<Self, Fault> {
        match r.scalar()? {
            Token::True => Ok(true),
            Token::False => Ok(false),
            _ => Err(bad(key, "must be a bool").into()),
        }
    }

    fn read_exact(at: &mut Exact<'_>) -> Option<Self> {
        match at.lit("true") {
            Some(()) => Some(true),
            None => at.lit("false").map(|()| false),
        }
    }
}

/// A string borrowed from the line when it holds no escape: the names an
/// object is read by cost no allocation.
impl<'a> Wire<'a> for Cow<'a, str> {
    fn encode(&self, out: &mut String) {
        json::push_string_literal(self, out);
    }

    fn read(r: &mut Reader<'a>, key: &str) -> Result<Self, Fault> {
        match r.scalar()? {
            Token::Str(text) => Ok(text.unescaped()),
            _ => Err(bad(key, "must be a string").into()),
        }
    }
}

impl Wire<'_> for String {
    fn encode(&self, out: &mut String) {
        json::push_string_literal(self, out);
    }

    fn read(r: &mut Reader<'_>, key: &str) -> Result<Self, Fault> {
        Cow::read(r, key).map(Cow::into_owned)
    }
}

/// Appends `items` as an array.
fn encode_items<'a, T: Wire<'a>>(items: &[T], out: &mut String) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.encode(out);
    }
    out.push(']');
}

/// Reads the array at the cursor with `read` per item.  The first bad
/// item's error wins once the array is read through.
fn read_items<'a, T>(
    r: &mut Reader<'a>,
    key: &str,
    mut read: impl FnMut(&mut Reader<'a>) -> Result<T, Fault>,
) -> Result<Vec<T>, Fault> {
    if !r.array()? {
        return Err(bad(key, "must be an array").into());
    }
    let (mut items, mut first_bad) = (Vec::new(), None);
    while r.item()? {
        match settle(read(r))? {
            Ok(item) => items.push(item),
            Err(frame) => {
                first_bad.get_or_insert(frame);
            }
        }
    }
    first_bad.map_or(Ok(items), Err)
}

impl<'a, T: Wire<'a>> Wire<'a> for Vec<T> {
    fn encode(&self, out: &mut String) {
        encode_items(self, out);
    }

    fn read(r: &mut Reader<'a>, key: &str) -> Result<Self, Fault> {
        read_items(r, key, |r| T::read(r, key))
    }
}

/// A fixed-length array, read without allocating: its length is checked
/// before its items, as it is counted.
impl<'a, T: Wire<'a> + Copy + Default, const N: usize> Wire<'a> for [T; N] {
    fn encode(&self, out: &mut String) {
        encode_items(self, out);
    }

    fn read(r: &mut Reader<'a>, key: &str) -> Result<Self, Fault> {
        let mut array = [T::default(); N];
        let (mut len, mut first_bad) = (0, None);
        let is_array = r.array()?;
        while is_array && r.item()? {
            match (array.get_mut(len), settle(T::read(r, key))?) {
                (Some(slot), Ok(item)) => *slot = item,
                (Some(_), Err(frame)) => {
                    first_bad.get_or_insert(frame);
                }
                (None, _) => {}
            }
            len += 1;
        }
        if !is_array || len != N {
            return Err(bad(key, &format!("must be a {N}-element array")).into());
        }
        first_bad.map_or(Ok(array), Err)
    }

    fn read_exact(at: &mut Exact<'_>) -> Option<Self> {
        let mut array = [T::default(); N];
        at.lit("[")?;
        for (i, slot) in array.iter_mut().enumerate() {
            if i > 0 {
                at.lit(",")?;
            }
            *slot = T::read_exact(at)?;
        }
        at.lit("]")?;
        Some(array)
    }
}

/// A histogram bucket travels as its `[upper_bound, count]` pair.
impl Wire<'_> for (u64, u64) {
    fn encode(&self, out: &mut String) {
        [self.0, self.1].encode(out);
    }

    fn read(r: &mut Reader<'_>, key: &str) -> Result<Self, Fault> {
        let [le, n] = Wire::read(r, key)?;
        Ok((le, n))
    }
}

/// A layer travels as its `[length, count]` pair.
impl Wire<'_> for DotProductWorkload {
    fn encode(&self, out: &mut String) {
        [self.dot_length, self.dot_count].encode(out);
    }

    fn read(r: &mut Reader<'_>, key: &str) -> Result<Self, Fault> {
        let [dot_length, dot_count] = Wire::read(r, key)?;
        Ok(Self {
            dot_length,
            dot_count,
        })
    }
}

/// One member of an object being read: where its value starts and what it
/// read as, kept until the object's members are taken in the order the
/// protocol checks them.
struct Slot<T> {
    key: &'static str,
    /// Where the value starts.
    at: usize,
    /// Never a syntax fault: that ends the read of the line.
    read: Option<Result<T, Fault>>,
}

impl<T> Slot<T> {
    fn new(key: &'static str) -> Self {
        Self {
            key,
            at: 0,
            read: None,
        }
    }

    /// Reads the member's value.  A later duplicate is only read past: the
    /// first of duplicate keys counts, the one
    /// [`Json::get`](crate::json::Json::get) finds.
    fn fill<'a>(&mut self, r: &mut Reader<'a>) -> Result<(), Syntax>
    where
        T: Wire<'a>,
    {
        self.fill_with(r, T::read)
    }

    /// [`Slot::fill`] with `read` instead of the type's own reader.
    fn fill_with<'a>(
        &mut self,
        r: &mut Reader<'a>,
        read: impl FnOnce(&mut Reader<'a>, &str) -> Result<T, Fault>,
    ) -> Result<(), Syntax> {
        if self.read.is_some() {
            return r.skip();
        }
        self.at = r.pos();
        match read(r, self.key) {
            Err(Fault::Syntax(err)) => Err(err),
            value => {
                self.read = Some(value);
                Ok(())
            }
        }
    }

    fn present(&self) -> bool {
        self.read.is_some()
    }

    /// The member's value; a missing member is malformed.
    fn take(self) -> Result<T, Fault> {
        match self.read {
            Some(value) => value,
            None => Err(ErrorFrame::malformed(format!("missing field `{}`", self.key)).into()),
        }
    }

    /// The member's value, when it is present.
    fn optional(self) -> Result<Option<T>, Fault> {
        match self.read {
            Some(_) => self.take().map(Some),
            None => Ok(None),
        }
    }

    /// The member read again as a `U` from the line `r` reads: how a member
    /// whose meaning depends on another one is read once that one is known.
    fn reread<'a, U: Wire<'a>>(&self, r: &Reader<'a>) -> Slot<U> {
        let mut slot = Slot::new(self.key);
        if self.read.is_some() {
            // The value was read once, so it holds no syntax error.
            let _ = slot.fill(&mut r.at(self.at));
        }
        slot
    }
}

/// Declares a [`Slot`] per `"key" => slot` and reads the object at the
/// reader's cursor into them, its members in any order: each key is tried
/// against the one after the last match first, unknown members are read
/// past and the first of duplicate keys counts.  A value that is no object
/// fills no slot.  A member `with` a function is read by it instead of its
/// type's [`Wire::read`].
macro_rules! read_members {
    ($r:ident, $($key:literal => $slot:ident $(with $read:expr)?),+ $(,)?) => {
        $(let mut $slot = Slot::new($key);)+
        if $r.object()? {
            let mut next = 0;
            while let Some(at) = $r.member(&[$(concat!(",\"", $key, "\":")),+], &mut next)? {
                let mut index = 0..;
                $(if index.next() == Some(at) {
                    read_members!(@fill $r, $slot $(, $read)?);
                } else)+ {
                    $r.skip()?;
                }
            }
        }
    };
    (@fill $r:ident, $slot:ident) => { $slot.fill($r)? };
    (@fill $r:ident, $slot:ident, $read:expr) => { $slot.fill_with($r, $read)? };
}

/// Reads past a member whose meaning depends on another one: its slot
/// keeps where it starts, to be read once that one is known
/// ([`Slot::reread`]).
fn later(r: &mut Reader<'_>, _: &str) -> Result<(), Fault> {
    Ok(r.skip()?)
}

/// The string member of the object at the cursor that `member` (its bytes
/// `,"key":`) introduces, which says how to read the rest of it.  It is
/// found by reading ahead, so the cursor stays at the object.  When it is
/// missing or no string, that is the object's error, and the object is
/// read past.
fn tag<'a>(r: &mut Reader<'a>, member: &'static str) -> Result<Cow<'a, str>, Fault> {
    let mut ahead = *r;
    let mut tag = Slot::new(&member[2..member.len() - 2]);
    if ahead.object()? {
        let mut next = 0;
        while !tag.present() {
            match ahead.member(&[member], &mut next)? {
                Some(0) => tag.fill(&mut ahead)?,
                Some(_) => ahead.skip()?,
                None => break,
            }
        }
    }
    let tag = tag.take();
    if tag.is_err() {
        r.skip()?;
    }
    tag
}

/// Gives a struct its wire form from one member table: an object that
/// opens with `$open` (a brace, or a brace and a fixed `type` member), then
/// holds each `"key"` in the table's order.  Each member is written from
/// `$get` (on the value `$v`) and read, in any order, into the local
/// `$local`; the locals are taken in the table's order, and `$build` makes
/// the value from them.  The short form maps each key to the struct field
/// it names.
macro_rules! wire_object {
    ($ty:ty, $open:literal, |$v:ident|
        $key0:literal: $local0:ident = $get0:expr $(, $key:literal: $local:ident = $get:expr)*
        => $build:expr
    ) => {
        impl<'a> Wire<'a> for $ty {
            fn encode(&self, out: &mut String) {
                let $v = self;
                out.push_str(concat!($open, "\"", $key0, "\":"));
                Wire::encode(&$get0, out);
                $(
                    out.push_str(concat!(",\"", $key, "\":"));
                    Wire::encode(&$get, out);
                )*
                out.push('}');
            }

            fn read(r: &mut Reader<'a>, _: &str) -> Result<Self, Fault> {
                read_members!(r, $key0 => $local0 $(, $key => $local)*);
                let $local0 = $local0.take()?;
                $(let $local = $local.take()?;)*
                Ok($build)
            }

            fn read_exact(at: &mut Exact<'_>) -> Option<Self> {
                at.lit(concat!($open, "\"", $key0, "\":"))?;
                let $local0 = Wire::read_exact(at)?;
                $(
                    at.lit(concat!(",\"", $key, "\":"))?;
                    let $local = Wire::read_exact(at)?;
                )*
                at.lit("}")?;
                Some($build)
            }
        }
    };
    ($ty:ty, $open:literal { $($key:literal: $field:ident),+ $(,)? }) => {
        wire_object!($ty, $open, |v| $($key: $field = v.$field),+ => Self { $($field),+ });
    };
}

wire_object!(WireServerStats, "{" {
    "connections_accepted": connections_accepted,
    "connections_active": connections_active,
    "requests_total": requests_total,
    "evals_ok": evals_ok,
    "evals_failed": evals_failed,
    "shed_total": shed_total,
    "malformed_total": malformed_total,
    "oversized_total": oversized_total,
    "queue_capacity": queue_capacity,
    "in_flight": in_flight,
});

wire_object!(RuntimeStats, "{" {
    "submitted": submitted,
    "completed": completed,
    "cache_hits": cache_hits,
    "cache_misses": cache_misses,
    "cached_entries": cached_entries,
    "prepared_configs": prepared_configs,
    "per_worker": per_worker,
    "queue_depths": queue_depths,
});

wire_object!(StatsFrame, "{\"type\":\"stats\"," {
    "server": server,
    "runtime": runtime,
});

wire_object!(RestoredFrame, "{\"type\":\"restored\"," {
    "entries": entries,
    "results": results,
    "model": model,
});

wire_object!(EvalFrame, "{\"type\":\"eval\"," {
    "cache_hit": cache_hit,
    "worker": worker,
    "report": report,
});

wire_object!(SimulationReport, "{" {
    "power_mw": power,
    "area_mm2": area,
    "metrics": metrics,
    "resolution_bits": resolution_bits,
});

wire_object!(AcceleratorPower, "{" {
    "laser": laser,
    "tuning": tuning,
    "detection": detection,
    "conversion": conversion,
    "control": control,
});

wire_object!(AcceleratorArea, "{" {
    "mr_banks": mr_banks,
    "arm_devices": arm_devices,
    "unit_electronics": unit_electronics,
});

// The latency's three times sit flat among the other metrics.
wire_object!(InferenceMetrics, "{", |m|
    "conv_time_s": conv_time = m.latency.conv_time,
    "fc_time_s": fc_time = m.latency.fc_time,
    "electronic_time_s": electronic_time = m.latency.electronic_time,
    "fps": fps = m.fps,
    "energy_per_inference_pj": energy_per_inference = m.energy_per_inference,
    "energy_per_bit_pj": energy_per_bit_pj = m.energy_per_bit_pj,
    "kfps_per_watt": kfps_per_watt = m.kfps_per_watt,
    "power_w": power = m.power
    => InferenceMetrics {
        latency: InferenceLatency { conv_time, fc_time, electronic_time },
        fps,
        energy_per_inference,
        energy_per_bit_pj,
        kfps_per_watt,
        power,
    }
);

wire_object!(VdpUnitReport, "{" {
    "arms": arms,
    "pass_latency_s": pass_latency,
    "laser_mw": laser_power,
    "tuning_mw": tuning_power,
    "detection_mw": detection_power,
    "conversion_mw": conversion_power,
});

wire_object!(NetworkWorkload, "{" {
    "name": name,
    "towers": towers,
    "conv_layers": conv_layers,
    "fc_layers": fc_layers,
});

/// Maps a core canonical-codec rejection into a typed malformed frame.
fn snapshot_entry_error(err: &dyn std::fmt::Display) -> ErrorFrame {
    ErrorFrame::malformed(format!("invalid snapshot entry: {err}"))
}

/// The canonical keys travel as their words; words the core codec rejects
/// are a malformed snapshot entry.
macro_rules! words_wire {
    ($($ty:ty: $to:ident, $from:ident);+ $(;)?) => {$(
        impl Wire<'_> for $ty {
            fn encode(&self, out: &mut String) {
                self.$to().encode(out);
            }

            fn read(r: &mut Reader<'_>, key: &str) -> Result<Self, Fault> {
                <$ty>::$from(Wire::read(r, key)?).map_err(|err| snapshot_entry_error(&err).into())
            }
        }
    )+};
}

words_wire!(
    ConfigKey: to_words, from_words;
    VdpUnitKey: to_words, from_words;
    ResolutionKey: to_words, from_words;
    CrossLightConfig: to_canonical_words, from_canonical_words;
);

impl Wire<'_> for ArchKey {
    fn encode(&self, out: &mut String) {
        match self {
            ArchKey::CrossLight(key) => {
                out.push_str("{\"kind\":\"crosslight\",\"words\":");
                key.encode(out);
            }
            ArchKey::Backend(key) => {
                let tag = key.arch_tag();
                let _ = write!(out, "{{\"kind\":\"backend\",\"tag\":{tag},\"params\":");
                key.params().encode(out);
            }
        }
        out.push('}');
    }

    fn read(r: &mut Reader<'_>, _: &str) -> Result<Self, Fault> {
        read_members!(r, "kind" => kind, "words" => words, "tag" => tag, "params" => params);
        let kind: Cow<str> = kind.take()?;
        Ok(match &*kind {
            "crosslight" => ArchKey::CrossLight(words.take()?),
            "backend" => {
                let tag = tag.take()?;
                ArchKey::Backend(BackendKey::new(tag, params.take()?))
            }
            other => {
                let detail = format!("unknown arch key kind `{other}`");
                return Err(ErrorFrame::malformed(detail).into());
            }
        })
    }
}

/// One snapshot entry's object.  This encoding is the canonical checksum
/// domain: it is deterministic (keys in fixed order, exact-f64 numbers), so
/// [`snapshot_checksum`] agrees between the exporter and a receiver that
/// re-encodes what it decoded.
impl Wire<'_> for SnapshotEntry {
    fn encode(&self, out: &mut String) {
        match self {
            SnapshotEntry::Result {
                arch,
                workload,
                report,
            } => {
                out.push_str("{\"kind\":\"result\",\"arch\":");
                arch.encode(out);
                out.push_str(",\"workload\":");
                workload.encode(out);
                out.push_str(",\"report\":");
                report.encode(out);
            }
            SnapshotEntry::Model(ModelCacheEntry::Unit { key, report }) => {
                out.push_str("{\"kind\":\"unit\",\"key\":");
                key.encode(out);
                out.push_str(",\"report\":");
                report.encode(out);
            }
            SnapshotEntry::Model(ModelCacheEntry::Resolution { key, bits }) => {
                out.push_str("{\"kind\":\"resolution\",\"key\":");
                key.encode(out);
                let _ = write!(out, ",\"bits\":{bits}");
            }
            SnapshotEntry::Model(ModelCacheEntry::Prepared {
                config,
                power,
                area,
                resolution_bits,
            }) => {
                out.push_str("{\"kind\":\"prepared\",\"config\":");
                config.encode(out);
                out.push_str(",\"power_mw\":");
                power.encode(out);
                out.push_str(",\"area_mm2\":");
                area.encode(out);
                let _ = write!(out, ",\"resolution_bits\":{resolution_bits}");
            }
        }
        out.push('}');
    }

    fn read(r: &mut Reader<'_>, _: &str) -> Result<Self, Fault> {
        let model = SnapshotEntry::Model;
        Ok(match &*tag(r, ",\"kind\":")? {
            "result" => {
                read_members!(r, "arch" => arch, "workload" => workload, "report" => report);
                SnapshotEntry::Result {
                    arch: arch.take()?,
                    workload: workload.take()?,
                    report: report.take()?,
                }
            }
            "unit" => {
                read_members!(r, "key" => key, "report" => report);
                model(ModelCacheEntry::Unit {
                    key: key.take()?,
                    report: report.take()?,
                })
            }
            "resolution" => {
                read_members!(r, "key" => key, "bits" => bits);
                model(ModelCacheEntry::Resolution {
                    key: key.take()?,
                    bits: bits.take()?,
                })
            }
            "prepared" => {
                read_members!(r, "config" => config, "power_mw" => power, "area_mm2" => area,
                    "resolution_bits" => resolution_bits);
                model(ModelCacheEntry::Prepared {
                    config: config.take()?,
                    power: power.take()?,
                    area: area.take()?,
                    resolution_bits: resolution_bits.take()?,
                })
            }
            other => {
                let detail = format!("unknown snapshot entry kind `{other}`");
                r.skip()?;
                return Err(ErrorFrame::malformed(detail).into());
            }
        })
    }
}

impl Wire<'_> for HistogramSnapshot {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "{{\"count\":{},\"sum\":{}", self.count(), self.sum());
        if let Some(min) = self.min() {
            let _ = write!(out, ",\"min\":{min}");
        }
        let _ = write!(out, ",\"max\":{},\"buckets\":", self.max().unwrap_or(0));
        let buckets: Vec<(u64, u64)> = self.le_buckets().collect();
        buckets.encode(out);
        out.push('}');
    }

    fn read(r: &mut Reader<'_>, _: &str) -> Result<Self, Fault> {
        read_members!(r, "count" => count, "sum" => sum, "min" => min, "max" => max,
            "buckets" => buckets);
        let buckets: Vec<(u64, u64)> = buckets.take()?;
        // `count` is required, but the snapshot counts its buckets itself.
        let _: u64 = count.take()?;
        let (sum, min) = (sum.take()?, min.optional()?);
        Ok(HistogramSnapshot::from_le_buckets(
            &buckets,
            sum,
            min,
            max.take()?,
        ))
    }
}

/// A series' labels: every member of the object, in order, each value a
/// string.
fn read_labels(r: &mut Reader<'_>, key: &str) -> Result<Vec<(String, String)>, Fault> {
    if !r.object()? {
        return Err(bad(key, "must be an object").into());
    }
    let (mut labels, mut first_bad) = (Vec::new(), None);
    while let Some(name) = r.key()? {
        let name = name.unescaped();
        match settle(String::read(r, &name))? {
            Ok(value) => labels.push((name.into_owned(), value)),
            Err(frame) => {
                first_bad.get_or_insert(frame);
            }
        }
    }
    first_bad.map_or(Ok(labels), Err)
}

/// A metric family; each series' value is read as the family's kind.
impl Wire<'_> for FamilySnapshot {
    fn encode(&self, out: &mut String) {
        out.push_str("{\"name\":");
        self.name.encode(out);
        out.push_str(",\"help\":");
        self.help.encode(out);
        let _ = write!(out, ",\"kind\":\"{}\",\"series\":[", self.kind.as_str());
        for (i, series) in self.series.iter().enumerate() {
            out.push_str(if i == 0 {
                "{\"labels\":{"
            } else {
                ",{\"labels\":{"
            });
            for (j, (key, value)) in series.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                key.encode(out);
                out.push(':');
                value.encode(out);
            }
            out.push_str("},\"value\":");
            match &series.value {
                SeriesValue::Counter(value) => value.encode(out),
                SeriesValue::Gauge(value) => value.encode(out),
                SeriesValue::Histogram(histogram) => histogram.encode(out),
            }
            out.push('}');
        }
        out.push_str("]}");
    }

    fn read(r: &mut Reader<'_>, _: &str) -> Result<Self, Fault> {
        // Each series' value is read as the kind.  The encoder writes the
        // kind first, so the series are read at once; after them, they are
        // read again once it is known.
        let known = |kind: &Slot<Cow<str>>| match &kind.read {
            Some(Ok(name)) => MetricKind::from_wire_name(name),
            _ => None,
        };
        read_members!(r, "name" => name, "help" => help, "kind" => kind,
            "series" => series with |r, key| read_series(r, key, known(&kind)));
        let kind_name: Cow<str> = kind.take()?;
        let Some(kind) = MetricKind::from_wire_name(&kind_name) else {
            let detail = format!("unknown metric kind `{kind_name}`");
            return Err(ErrorFrame::malformed(detail).into());
        };
        let at = series.at;
        let series = match series.take()? {
            Some(series) => series,
            None => read_series(&mut r.at(at), "series", Some(kind))?.unwrap_or_default(),
        };
        Ok(FamilySnapshot {
            name: name.take()?,
            help: help.take()?,
            kind,
            series,
        })
    }
}

/// A family's series, their values read as `kind`; `None`, the series
/// read past, while the kind is not known.
fn read_series(
    r: &mut Reader<'_>,
    key: &str,
    kind: Option<MetricKind>,
) -> Result<Option<Vec<SeriesSnapshot>>, Fault> {
    let Some(kind) = kind else {
        r.skip()?;
        return Ok(None);
    };
    let read_value = |r: &mut Reader<'_>, key: &str| -> Result<SeriesValue, Fault> {
        Ok(match kind {
            MetricKind::Counter => SeriesValue::Counter(Wire::read(r, key)?),
            MetricKind::Gauge => SeriesValue::Gauge(Wire::read(r, key)?),
            MetricKind::Histogram => SeriesValue::Histogram(Wire::read(r, key)?),
        })
    };
    read_items(r, key, |r| {
        read_members!(r, "labels" => labels with read_labels, "value" => value with read_value);
        let labels = labels.take()?;
        Ok(SeriesSnapshot {
            labels,
            value: value.take()?,
        })
    })
    .map(Some)
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Appends the `config` object of an eval request to the line being built.
/// CrossLight requests are encoded exactly as protocol version 1 always
/// encoded them (no `"arch"` field), so pre-zoo frames are byte-identical.
fn encode_arch_request_into(arch: &ArchRequest, out: &mut String) {
    match *arch {
        ArchRequest::CrossLight {
            variant,
            dims: (n, k, conv_units, fc_units),
            resolution_bits,
        } => {
            let _ = write!(
                out,
                "{{\"variant\":\"{}\",\"dims\":[{n},{k},{conv_units},{fc_units}],\
                 \"resolution_bits\":{resolution_bits}}}",
                variant.label(),
            );
        }
        ArchRequest::DeapCnn => out.push_str("{\"arch\":\"deap-cnn\"}"),
        ArchRequest::HolyLight { units } => {
            let _ = write!(out, "{{\"arch\":\"holylight\",\"units\":{units}}}");
        }
        ArchRequest::Electronic { platform } => {
            out.push_str("{\"arch\":\"electronic\",\"platform\":");
            json::push_string_literal(platform.name, out);
            out.push('}');
        }
        ArchRequest::SymmetricCrossbar {
            dims: (rows, cols),
            resolution_bits,
        } => {
            let _ = write!(
                out,
                "{{\"arch\":\"symmetric-crossbar\",\"dims\":[{rows},{cols}],\
                 \"resolution_bits\":{resolution_bits}}}"
            );
        }
        ArchRequest::LiteCon {
            dims: (units, unit_size),
            resolution_bits,
        } => {
            let _ = write!(
                out,
                "{{\"arch\":\"litecon\",\"dims\":[{units},{unit_size}],\
                 \"resolution_bits\":{resolution_bits}}}"
            );
        }
    }
}

/// The canonical encoding of one snapshot entry, as it appears inside a
/// chunk's `entries` array.
#[must_use]
pub fn encode_snapshot_entry(entry: &SnapshotEntry) -> String {
    let mut out = String::with_capacity(256);
    entry.encode(&mut out);
    out
}

/// FNV-1a checksum over the canonical encodings of a snapshot's entries, in
/// stream order.  Both sides of a transfer compute this over the same
/// deterministic encoding, so any corruption, loss or reordering that
/// survives the per-chunk sequence check is caught at the terminal frame.
#[must_use]
pub fn snapshot_checksum(entries: &[SnapshotEntry]) -> u64 {
    let mut hasher = StableHasher::new();
    let mut buf = String::with_capacity(512);
    for entry in entries {
        buf.clear();
        entry.encode(&mut buf);
        std::hash::Hasher::write(&mut hasher, buf.as_bytes());
    }
    std::hash::Hasher::finish(&hasher)
}

/// Packs entries greedily into chunks whose encoded `entries` arrays stay
/// under `max_chunk_bytes`, preserving order and numbering the chunks from
/// 0.  A single entry larger than the budget still ships alone (the caller
/// picks a budget comfortably under the transport's line limit, and every
/// cache entry the workspace produces encodes far below it).
#[must_use]
pub fn chunk_snapshot_entries(
    entries: Vec<SnapshotEntry>,
    max_chunk_bytes: usize,
) -> Vec<SnapshotChunk> {
    let budget = max_chunk_bytes.max(1);
    let mut chunks: Vec<SnapshotChunk> = Vec::new();
    let mut current: Vec<SnapshotEntry> = Vec::new();
    let mut bytes = 0usize;
    for entry in entries {
        let encoded = encode_snapshot_entry(&entry).len() + 1;
        if !current.is_empty() && bytes + encoded > budget {
            chunks.push(SnapshotChunk {
                seq: chunks.len() as u64,
                entries: std::mem::take(&mut current),
            });
            bytes = 0;
        }
        bytes += encoded;
        current.push(entry);
    }
    if !current.is_empty() {
        chunks.push(SnapshotChunk {
            seq: chunks.len() as u64,
            entries: current,
        });
    }
    chunks
}

fn encode_snapshot_chunk_into(chunk: &SnapshotChunk, out: &mut String) {
    let _ = write!(
        out,
        "\"schema\":\"{SNAPSHOT_SCHEMA}\",\"seq\":{},\"entries\":",
        chunk.seq
    );
    chunk.entries.encode(out);
}

fn encode_snapshot_end_into(end: &SnapshotEnd, out: &mut String) {
    let _ = write!(
        out,
        "\"schema\":\"{SNAPSHOT_SCHEMA}\",\"chunks\":{},\"entries\":{},\"checksum\":\"{:016x}\"",
        end.chunks, end.entries, end.checksum
    );
}

/// Encodes a request as one JSON line (no trailing newline).
#[must_use]
pub fn encode_request(request: &Request) -> String {
    let mut out = String::with_capacity(192);
    let _ = write!(out, "{{\"v\":{PROTOCOL_VERSION},\"id\":{}", request.id);
    match &request.body {
        RequestBody::Eval(spec) => {
            out.push_str(",\"op\":\"eval\",\"config\":");
            encode_arch_request_into(&spec.arch, &mut out);
            match &spec.workload {
                WorkloadRef::Model(model) => {
                    let _ = write!(out, ",\"model\":\"{}\"", model.wire_name());
                }
                WorkloadRef::Inline(workload) => {
                    out.push_str(",\"workload\":");
                    workload.encode(&mut out);
                }
            }
        }
        RequestBody::Stats => out.push_str(",\"op\":\"stats\""),
        RequestBody::Ping => out.push_str(",\"op\":\"ping\""),
        RequestBody::Metrics { format } => {
            out.push_str(",\"op\":\"metrics\"");
            // The default format is omitted, mirroring the implicit
            // CrossLight `"arch"`: a plain `{"op":"metrics"}` frame scrapes
            // the JSON snapshot.
            if *format != MetricsFormat::Json {
                let _ = write!(out, ",\"format\":\"{}\"", format.as_str());
            }
        }
        RequestBody::Snapshot { max_chunk_bytes } => {
            out.push_str(",\"op\":\"snapshot\"");
            // Omitted when absent so pre-existing frames (and the golden
            // backcompat corpus) stay byte-identical.
            if let Some(limit) = max_chunk_bytes {
                let _ = write!(out, ",\"max_chunk_bytes\":{limit}");
            }
        }
        RequestBody::Restore(chunk) => {
            out.push_str(",\"op\":\"restore\",");
            encode_snapshot_chunk_into(chunk, &mut out);
        }
        RequestBody::RestoreEnd(end) => {
            out.push_str(",\"op\":\"restore_end\",");
            encode_snapshot_end_into(end, &mut out);
        }
    }
    out.push('}');
    out
}

/// Appends the head every answer line starts with: `{"v":1`, then
/// `,"id":<id>` when the id is known.
pub fn push_answer_head(id: Option<u64>, out: &mut String) {
    let _ = write!(out, "{{\"v\":{PROTOCOL_VERSION}");
    if let Some(id) = id {
        let _ = write!(out, ",\"id\":{id}");
    }
}

/// Appends the rest of an eval answer after its head, closing the line:
/// `,"ok":{"type":"eval","cache_hit":…,"worker":…,"report":{…}}}`.  The
/// tail does not depend on the id, so a server can encode it once per
/// cached report and answer each hit with a head plus those bytes.
pub fn push_eval_tail(frame: &EvalFrame, out: &mut String) {
    out.push_str(",\"ok\":");
    frame.encode(out);
    out.push('}');
}

/// Encodes a response as one JSON line (no trailing newline).
#[must_use]
pub fn encode_response(response: &Response) -> String {
    let mut out = String::with_capacity(640);
    push_answer_head(response.id, &mut out);
    match &response.body {
        // The eval tail closes the line itself.
        ResponseBody::Eval(frame) => {
            push_eval_tail(frame, &mut out);
            return out;
        }
        ResponseBody::Stats(frame) => {
            out.push_str(",\"ok\":");
            frame.encode(&mut out);
        }
        ResponseBody::Metrics(frame) => {
            out.push_str(",\"ok\":{\"type\":\"metrics\",\"format\":");
            match frame {
                MetricsFrame::Snapshot(snapshot) => {
                    let _ = write!(
                        out,
                        "\"json\",\"schema\":\"{METRICS_SCHEMA}\",\"families\":"
                    );
                    snapshot.families.encode(&mut out);
                }
                MetricsFrame::Text(page) => {
                    out.push_str("\"text\",\"page\":");
                    page.encode(&mut out);
                }
                MetricsFrame::Spans(lines) => {
                    out.push_str("\"spans\",\"spans\":");
                    lines.encode(&mut out);
                }
            }
            out.push('}');
        }
        ResponseBody::Snapshot(chunk) => {
            out.push_str(",\"ok\":{\"type\":\"snapshot\",");
            encode_snapshot_chunk_into(chunk, &mut out);
            out.push('}');
        }
        ResponseBody::SnapshotEnd(end) => {
            out.push_str(",\"ok\":{\"type\":\"snapshot_end\",");
            encode_snapshot_end_into(end, &mut out);
            out.push('}');
        }
        ResponseBody::Restored(frame) => {
            out.push_str(",\"ok\":");
            frame.encode(&mut out);
        }
        ResponseBody::Pong => out.push_str(",\"ok\":{\"type\":\"pong\"}"),
        ResponseBody::Error(frame) => {
            let _ = write!(
                out,
                ",\"err\":{{\"kind\":\"{}\",\"detail\":",
                frame.kind.as_str()
            );
            json::push_string_literal(&frame.detail, &mut out);
            // Only retryable kinds carry the flag: frames of every kind the
            // committed backcompat corpus contains stay byte-identical.
            if frame.kind.retryable() {
                out.push_str(",\"retryable\":true");
            }
            out.push('}');
        }
    }
    out.push('}');
    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Reads one line with `read`.  A syntax error anywhere in the line wins
/// over any other error, and the value must span the line.
fn read_line<'a, T>(
    line: &'a str,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, Fault>,
) -> Result<T, ErrorFrame> {
    let mut r = Reader::new(line);
    match read(&mut r) {
        Err(Fault::Syntax(err)) => Err(err.into()),
        value => {
            r.end()?;
            value.map_err(ErrorFrame::from)
        }
    }
}

fn check_version(version: u64) -> Result<(), Fault> {
    if version != PROTOCOL_VERSION {
        let detail = format!(
            "protocol version {version} not supported (this server speaks {PROTOCOL_VERSION})"
        );
        return Err(ErrorFrame::new(ErrorKind::UnsupportedVersion, detail).into());
    }
    Ok(())
}

/// Checks a frame's `schema` tag; a mismatch is a typed `unsupported`
/// error — the frame is well-formed, this build just speaks another
/// format.
fn check_schema(schema: Slot<Cow<'_, str>>, expected: &str) -> Result<(), Fault> {
    let schema = schema.take()?;
    if schema != expected {
        let detail = format!("unknown schema `{schema}` (this build speaks {expected})");
        return Err(ErrorFrame::unsupported(detail).into());
    }
    Ok(())
}

/// The `dims` pair of a backend that takes two, read again from the
/// member CrossLight reads as four; a backend's published default when
/// absent.
fn dims_pair(
    dims: &Slot<[usize; 4]>,
    r: &Reader<'_>,
    (a, b): (usize, usize),
) -> Result<(usize, usize), Fault> {
    let [a, b] = dims.reread(r).optional()?.unwrap_or([a, b]);
    Ok((a, b))
}

/// Reads the `config` object of an eval request.  An absent `"arch"`
/// member means CrossLight — the protocol's original vocabulary — so every
/// pre-zoo frame decodes unchanged.
fn read_arch_request(r: &mut Reader<'_>, _: &str) -> Result<ArchRequest, Fault> {
    // In the order a CrossLight config spells its members, the hot one;
    // the zoo's members are read once `arch` is known.
    read_members!(r, "variant" => variant, "dims" => dims, "resolution_bits" => bits,
        "arch" => arch with later, "units" => units with later,
        "platform" => platform with later);
    let arch: Option<Cow<str>> = arch.reread(r).optional()?;
    Ok(match arch.as_deref() {
        None | Some("crosslight") => {
            let label: Cow<str> = variant.take()?;
            let variant = CrossLightVariant::from_label(&label)
                .ok_or_else(|| ErrorFrame::unsupported(format!("unknown variant `{label}`")))?;
            let [n, k, conv_units, fc_units] = dims.take()?;
            ArchRequest::CrossLight {
                variant,
                dims: (n, k, conv_units, fc_units),
                resolution_bits: bits.take()?,
            }
        }
        Some("deap-cnn") => ArchRequest::DeapCnn,
        Some("holylight") => ArchRequest::HolyLight {
            units: units.reread(r).optional()?.unwrap_or(HOLYLIGHT_UNITS),
        },
        Some("electronic") => {
            let name: Cow<str> = platform.reread(r).take()?;
            let platform = crosslight_baselines::electronic::all_platforms()
                .into_iter()
                .find(|p| p.name == name)
                .ok_or_else(|| ErrorFrame::unsupported(format!("unknown platform `{name}`")))?;
            ArchRequest::Electronic { platform }
        }
        Some("symmetric-crossbar") => ArchRequest::SymmetricCrossbar {
            dims: dims_pair(&dims, r, (SYMMETRIC_DEFAULT_ROWS, SYMMETRIC_DEFAULT_COLS))?,
            resolution_bits: bits.optional()?.unwrap_or(SYMMETRIC_DEFAULT_BITS),
        },
        Some("litecon") => ArchRequest::LiteCon {
            dims: dims_pair(&dims, r, (LITECON_DEFAULT_UNITS, LITECON_DEFAULT_UNIT_SIZE))?,
            resolution_bits: bits.optional()?.unwrap_or(LITECON_DEFAULT_BITS),
        },
        Some(other) => {
            let detail = format!("unknown architecture `{other}`");
            return Err(ErrorFrame::unsupported(detail).into());
        }
    })
}

fn snapshot_chunk(
    schema: Slot<Cow<'_, str>>,
    seq: Slot<u64>,
    entries: Slot<Vec<SnapshotEntry>>,
) -> Result<SnapshotChunk, Fault> {
    check_schema(schema, SNAPSHOT_SCHEMA)?;
    let entries = entries.take()?;
    Ok(SnapshotChunk {
        seq: seq.take()?,
        entries,
    })
}

fn snapshot_end(
    schema: Slot<Cow<'_, str>>,
    checksum: Slot<Cow<'_, str>>,
    chunks: Slot<u64>,
    entries: Slot<u64>,
) -> Result<SnapshotEnd, Fault> {
    check_schema(schema, SNAPSHOT_SCHEMA)?;
    let checksum = u64::from_str_radix(&checksum.take()?, 16)
        .map_err(|_| bad("checksum", "must be a 64-bit hex string"))?;
    Ok(SnapshotEnd {
        chunks: chunks.take()?,
        entries: entries.take()?,
        checksum,
    })
}

/// Reads a request object.  Its members are read in any order; `entries`,
/// a count in `restore_end`, is read again as the chunk's entries in
/// `restore`.
fn read_request(r: &mut Reader<'_>) -> Result<Request, Fault> {
    read_members!(r, "v" => v, "id" => id, "op" => op, "config" => config with read_arch_request,
        "model" => model, "workload" => workload with later, "format" => format with later,
        "max_chunk_bytes" => max_chunk_bytes with later, "schema" => schema with later,
        "seq" => seq with later, "entries" => entries with later, "chunks" => chunks with later,
        "checksum" => checksum with later);
    check_version(v.take()?)?;
    let id = id.take()?;
    let op: Cow<str> = op.take()?;
    let body = match &*op {
        "eval" => {
            let arch = config.take()?;
            let workload =
                match (model.present(), workload.present()) {
                    (true, false) => {
                        let name: Cow<str> = model.take()?;
                        WorkloadRef::Model(PaperModel::from_wire_name(&name).ok_or_else(|| {
                            ErrorFrame::malformed(format!("unknown model `{name}`"))
                        })?)
                    }
                    (false, true) => WorkloadRef::Inline(workload.reread(r).take()?),
                    _ => {
                        let detail = "eval requests need exactly one of `model` or `workload`";
                        return Err(ErrorFrame::malformed(detail).into());
                    }
                };
            RequestBody::Eval(EvalSpec { arch, workload })
        }
        "stats" => RequestBody::Stats,
        "ping" => RequestBody::Ping,
        "metrics" => {
            let format: Option<Cow<str>> = format.reread(r).optional()?;
            RequestBody::Metrics {
                format: match format {
                    None => MetricsFormat::Json,
                    Some(name) => MetricsFormat::from_wire_name(&name).ok_or_else(|| {
                        ErrorFrame::unsupported(format!("unknown metrics format `{name}`"))
                    })?,
                },
            }
        }
        "snapshot" => RequestBody::Snapshot {
            max_chunk_bytes: max_chunk_bytes.reread(r).optional()?,
        },
        "restore" => RequestBody::Restore(snapshot_chunk(
            schema.reread(r),
            seq.reread(r),
            entries.reread(r),
        )?),
        "restore_end" => RequestBody::RestoreEnd(snapshot_end(
            schema.reread(r),
            checksum.reread(r),
            chunks.reread(r),
            entries.reread(r),
        )?),
        other => return Err(ErrorFrame::malformed(format!("unknown op `{other}`")).into()),
    };
    Ok(Request { id, body })
}

/// Decodes one request line.
///
/// # Errors
///
/// Returns a typed [`ErrorFrame`] (with the parsed id when available via
/// [`peek_id`]) for malformed or unsupported frames.  Never panics.
pub fn decode_request(line: &str) -> Result<Request, ErrorFrame> {
    match exact_eval_request(line) {
        Some(request) => Ok(request),
        None => read_line(line, read_request),
    }
}

/// Best-effort extraction of the id from a (possibly malformed) request
/// line, so error responses can still be correlated.
#[must_use]
pub fn peek_id(line: &str) -> Option<u64> {
    let read = |r: &mut Reader<'_>| {
        read_members!(r, "id" => id);
        id.take()
    };
    read_line(line, read).ok()
}

/// The request line with the value of its first top-level `id` member —
/// the one [`decode_request`] reads — replaced by `id`; every other byte
/// is unchanged.  This is how a router multiplexes many clients' requests
/// over one backend connection without re-encoding them.  Keys match as
/// [`Json::get`](crate::json::Json::get) matches them: decoded text, first occurrence.  `None`
/// when the line does not open with an object whose members up to that
/// one parse.
#[must_use]
pub fn splice_request_id(line: &str, id: u64) -> Option<String> {
    let mut r = Reader::new(line);
    if !matches!(r.value().ok()?, Token::Object) {
        return None;
    }
    while let Some(key) = r.key().ok()? {
        let start = r.pos();
        r.skip().ok()?;
        if key.is("id") {
            return Some(splice_id(line, start..r.pos(), id));
        }
    }
    None
}

/// What a peek at the head of an answer line tells: whose answer it is
/// and whether it is an error, without decoding the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnswerPeek {
    /// The answer's correlation id.
    pub id: u64,
    /// `None` for an `ok` answer, the kind of an `err` answer.
    pub error: Option<ErrorKind>,
    /// Byte range of the id's digits in the peeked line.
    id_span: Range<usize>,
}

impl AnswerPeek {
    /// The peeked line with its id replaced by `id`; every other byte is
    /// unchanged.
    #[must_use]
    pub fn splice_id(&self, line: &str, id: u64) -> String {
        splice_id(line, self.id_span.clone(), id)
    }
}

/// Peeks at an answer line's head exactly as [`encode_response`] writes
/// it: `{"v":1,"id":N,` followed by `"ok":` or by `"err":{"kind":"…"`
/// naming a known kind.  Anything else — another layout, no id, an
/// unknown kind — is `None`.  The rest of the line is not inspected.
#[must_use]
pub fn peek_answer(line: &str) -> Option<AnswerPeek> {
    let rest = line.strip_prefix(ID_HEAD)?;
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    let id = rest[..digits].parse::<u64>().ok()?;
    let body = rest[digits..].strip_prefix(',')?;
    let error = if body.starts_with("\"ok\":") {
        None
    } else {
        let kind = body.strip_prefix("\"err\":{\"kind\":\"")?;
        Some(ErrorKind::from_wire_name(&kind[..kind.find('"')?])?)
    };
    Some(AnswerPeek {
        id,
        error,
        id_span: ID_HEAD.len()..ID_HEAD.len() + digits,
    })
}

fn splice_id(line: &str, span: Range<usize>, id: u64) -> String {
    let mut out = String::with_capacity(line.len() + 20);
    out.push_str(&line[..span.start]);
    let _ = write!(out, "{id}");
    out.push_str(&line[span.end..]);
    out
}

/// Reads the `ok` object of an answer by its `type`.
fn read_ok(r: &mut Reader<'_>, key: &str) -> Result<ResponseBody, Fault> {
    Ok(match &*tag(r, ",\"type\":")? {
        "eval" => ResponseBody::Eval(Wire::read(r, key)?),
        "stats" => ResponseBody::Stats(Wire::read(r, key)?),
        "restored" => ResponseBody::Restored(Wire::read(r, key)?),
        "metrics" => {
            read_members!(r, "format" => format, "schema" => schema, "families" => families,
                "page" => page, "spans" => spans);
            let name: Cow<str> = format.take()?;
            ResponseBody::Metrics(match MetricsFormat::from_wire_name(&name) {
                Some(MetricsFormat::Json) => {
                    check_schema(schema, METRICS_SCHEMA)?;
                    MetricsFrame::Snapshot(RegistrySnapshot {
                        families: families.take()?,
                    })
                }
                Some(MetricsFormat::Text) => MetricsFrame::Text(page.take()?),
                Some(MetricsFormat::Spans) => MetricsFrame::Spans(spans.take()?),
                None => {
                    let detail = format!("unknown metrics format `{name}`");
                    return Err(ErrorFrame::malformed(detail).into());
                }
            })
        }
        "pong" => {
            r.skip()?;
            ResponseBody::Pong
        }
        "snapshot" => {
            read_members!(r, "schema" => schema, "seq" => seq, "entries" => entries);
            ResponseBody::Snapshot(snapshot_chunk(schema, seq, entries)?)
        }
        "snapshot_end" => {
            read_members!(r, "schema" => schema, "chunks" => chunks, "entries" => entries,
                "checksum" => checksum);
            ResponseBody::SnapshotEnd(snapshot_end(schema, checksum, chunks, entries)?)
        }
        other => {
            let detail = format!("unknown ok type `{other}`");
            r.skip()?;
            return Err(ErrorFrame::malformed(detail).into());
        }
    })
}

/// Reads the `err` object of an answer.
fn read_error(r: &mut Reader<'_>, _: &str) -> Result<ErrorFrame, Fault> {
    read_members!(r, "kind" => kind, "detail" => detail, "retryable" => retryable);
    let name: Cow<str> = kind.take()?;
    let kind = ErrorKind::from_wire_name(&name)
        .ok_or_else(|| ErrorFrame::malformed(format!("unknown error kind `{name}`")))?;
    // `retryable` is derived from the kind, never stored: the field is
    // validated when present (it must be a bool) and otherwise ignored, so
    // frames with and without it decode identically.
    let _: Option<bool> = retryable.optional()?;
    let detail: String = detail.take()?;
    Ok(ErrorFrame::new(kind, detail))
}

fn read_response(r: &mut Reader<'_>) -> Result<Response, Fault> {
    read_members!(r, "v" => v, "id" => id, "ok" => ok with read_ok, "err" => err with read_error);
    check_version(v.take()?)?;
    let id = id.optional()?;
    let body = match (ok.present(), err.present()) {
        (true, false) => ok.take()?,
        (false, true) => ResponseBody::Error(err.take()?),
        _ => {
            let detail = "responses need exactly one of `ok` or `err`";
            return Err(ErrorFrame::malformed(detail).into());
        }
    };
    Ok(Response { id, body })
}

/// Decodes one response line.
///
/// # Errors
///
/// Returns a typed [`ErrorFrame`] for malformed or unsupported frames.
/// Never panics.
pub fn decode_response(line: &str) -> Result<Response, ErrorFrame> {
    match exact_eval_answer(line) {
        Some(response) => Ok(response),
        None => read_line(line, read_response),
    }
}

// ---------------------------------------------------------------------------
// The hot frames in the encoder's exact layout
// ---------------------------------------------------------------------------

/// How every request and every answer with an id begins.
const ID_HEAD: &str = "{\"v\":1,\"id\":";

/// A reader that follows a line only through the exact bytes the encoders
/// write.  Each step returns `None` at the first byte that differs; the
/// caller then hands the whole line to the [`Reader`].  So this reader
/// needs no errors of its own, and whatever it accepts, the [`Reader`]
/// reads to the same value.
struct Exact<'a> {
    line: &'a str,
    pos: usize,
}

impl<'a> Exact<'a> {
    /// Steps over `fragment`, which must come next.
    fn lit(&mut self, fragment: &str) -> Option<()> {
        let matched = self.line.as_bytes()[self.pos..].starts_with(fragment.as_bytes());
        matched.then(|| self.pos += fragment.len())
    }

    /// The number token at the cursor and whether it is integral, split
    /// and checked by the [`Reader`]'s own tokenizer.
    fn number(&mut self) -> Option<(&'a str, bool)> {
        let (len, integral) = json::number_token(&self.line.as_bytes()[self.pos..])?;
        let token = self.line.get(self.pos..self.pos + len)?;
        self.pos += len;
        Some((token, integral))
    }

    /// An integer the [`Reader`] reads as a `u64`: a token that parses as
    /// one, which only an integral one without a sign does.
    fn u64(&mut self) -> Option<u64> {
        self.number()?.0.parse().ok()
    }

    /// The raw text up to the next `"`, stepping past that quote.  It is
    /// only ever matched against names without a `\`, so an escaped name
    /// matches none of them.
    fn name(&mut self) -> Option<&'a str> {
        let rest = self.line.get(self.pos..)?;
        let len = rest.find('"')?;
        self.pos += len + 1;
        Some(&rest[..len])
    }

    /// Succeeds when the whole line has been read.
    fn end(&self) -> Option<()> {
        (self.pos == self.line.len()).then_some(())
    }
}

/// The request `line` holds when it is exactly what [`encode_request`]
/// writes for a CrossLight design point on a Table I model; `None` for any
/// other line.
fn exact_eval_request(line: &str) -> Option<Request> {
    let mut at = Exact { line, pos: 0 };
    at.lit(ID_HEAD)?;
    let id = at.u64()?;
    at.lit(",\"op\":\"eval\",\"config\":{\"variant\":\"")?;
    let variant = CrossLightVariant::from_label(at.name()?)?;
    at.lit(",\"dims\":")?;
    let [n, k, conv_units, fc_units] = Wire::read_exact(&mut at)?;
    at.lit(",\"resolution_bits\":")?;
    let resolution_bits = Wire::read_exact(&mut at)?;
    at.lit("},\"model\":\"")?;
    let model = PaperModel::from_wire_name(at.name()?)?;
    at.lit("}")?;
    at.end()?;
    Some(Request {
        id,
        body: RequestBody::Eval(EvalSpec::crosslight(
            variant,
            (n, k, conv_units, fc_units),
            resolution_bits,
            WorkloadRef::Model(model),
        )),
    })
}

/// The answer `line` holds when it is exactly what [`encode_response`]
/// writes for an eval answer with an id; `None` for any other line.
fn exact_eval_answer(line: &str) -> Option<Response> {
    let mut at = Exact { line, pos: 0 };
    at.lit(ID_HEAD)?;
    let id = at.u64()?;
    at.lit(",\"ok\":")?;
    let frame = Wire::read_exact(&mut at)?;
    at.lit("}")?;
    at.end()?;
    Some(Response {
        id: Some(id),
        body: ResponseBody::Eval(frame),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crosslight_core::simulator::CrossLightSimulator;
    use proptest::prelude::*;

    fn paper_workloads() -> [Arc<NetworkWorkload>; 4] {
        PaperModel::all().map(|m| Arc::new(NetworkWorkload::from_spec(&m.spec()).unwrap()))
    }

    #[test]
    fn request_frames_round_trip() {
        let requests = vec![
            Request {
                id: 0,
                body: RequestBody::Ping,
            },
            Request {
                id: u64::MAX,
                body: RequestBody::Stats,
            },
            Request {
                id: 7,
                body: RequestBody::Eval(EvalSpec::paper(
                    CrossLightVariant::OptTed,
                    PaperModel::CnnCifar10,
                )),
            },
            Request {
                id: 8,
                body: RequestBody::Eval(EvalSpec::crosslight(
                    CrossLightVariant::Base,
                    (10, 100, 50, 30),
                    8,
                    WorkloadRef::Inline(
                        NetworkWorkload::from_spec(&PaperModel::Lenet5SignMnist.spec()).unwrap(),
                    ),
                )),
            },
        ];
        for request in requests {
            let line = encode_request(&request);
            assert_eq!(decode_request(&line).unwrap(), request, "{line}");
            assert_eq!(peek_id(&line), Some(request.id));
        }
    }

    #[test]
    fn zoo_arch_requests_round_trip_for_every_backend() {
        for (id, spec) in ArchSpec::zoo_defaults().iter().enumerate() {
            let arch = ArchRequest::for_spec(spec).expect("zoo specs use named variants");
            let request = Request {
                id: id as u64,
                body: RequestBody::Eval(EvalSpec::for_arch(
                    arch.clone(),
                    WorkloadRef::Model(PaperModel::CnnCifar10),
                )),
            };
            let line = encode_request(&request);
            let decoded = decode_request(&line).unwrap();
            assert_eq!(decoded, request, "{line}");
            // The round-tripped request resolves back to the original spec.
            match decoded.body {
                RequestBody::Eval(decoded_spec) => {
                    assert_eq!(decoded_spec.arch.to_arch_spec().unwrap(), *spec);
                }
                other => panic!("expected eval body, got {other:?}"),
            }
            // CrossLight requests never carry an `"arch"` key; zoo requests
            // always do.
            let has_arch_key = line.contains("\"arch\":");
            assert_eq!(
                has_arch_key,
                !matches!(arch, ArchRequest::CrossLight { .. }),
                "{line}"
            );
        }
    }

    #[test]
    fn zoo_configs_decode_with_published_defaults_when_knobs_are_omitted() {
        let cases = [
            (
                r#"{"v":1,"id":1,"op":"eval","config":{"arch":"holylight"},"model":"cnn_cifar10"}"#,
                ArchRequest::HolyLight {
                    units: HOLYLIGHT_UNITS,
                },
            ),
            (
                r#"{"v":1,"id":2,"op":"eval","config":{"arch":"symmetric-crossbar"},"model":"cnn_cifar10"}"#,
                ArchRequest::SymmetricCrossbar {
                    dims: (SYMMETRIC_DEFAULT_ROWS, SYMMETRIC_DEFAULT_COLS),
                    resolution_bits: SYMMETRIC_DEFAULT_BITS,
                },
            ),
            (
                r#"{"v":1,"id":3,"op":"eval","config":{"arch":"litecon"},"model":"cnn_cifar10"}"#,
                ArchRequest::LiteCon {
                    dims: (LITECON_DEFAULT_UNITS, LITECON_DEFAULT_UNIT_SIZE),
                    resolution_bits: LITECON_DEFAULT_BITS,
                },
            ),
            (
                r#"{"v":1,"id":4,"op":"eval","config":{"arch":"deap-cnn"},"model":"cnn_cifar10"}"#,
                ArchRequest::DeapCnn,
            ),
        ];
        for (line, expected) in cases {
            match decode_request(line).unwrap().body {
                RequestBody::Eval(spec) => assert_eq!(spec.arch, expected, "{line}"),
                other => panic!("expected eval body, got {other:?}"),
            }
        }
        // An explicit `"arch":"crosslight"` decodes like the implicit form.
        let explicit = r#"{"v":1,"id":5,"op":"eval","config":{"arch":"crosslight","variant":"Cross_opt_TED","dims":[20,150,100,60],"resolution_bits":16},"model":"cnn_cifar10"}"#;
        let implicit = r#"{"v":1,"id":5,"op":"eval","config":{"variant":"Cross_opt_TED","dims":[20,150,100,60],"resolution_bits":16},"model":"cnn_cifar10"}"#;
        assert_eq!(
            decode_request(explicit).unwrap(),
            decode_request(implicit).unwrap()
        );
    }

    #[test]
    fn unknown_names_in_well_formed_frames_are_unsupported_not_malformed() {
        for line in [
            // Unknown architecture family.
            r#"{"v":1,"id":1,"op":"eval","config":{"arch":"quantum"},"model":"cnn_cifar10"}"#,
            // Unknown CrossLight variant label (implicit and explicit arch).
            r#"{"v":1,"id":1,"op":"eval","config":{"variant":"nope","dims":[1,2,3,4],"resolution_bits":16},"model":"cnn_cifar10"}"#,
            r#"{"v":1,"id":1,"op":"eval","config":{"arch":"crosslight","variant":"nope","dims":[1,2,3,4],"resolution_bits":16},"model":"cnn_cifar10"}"#,
            // Unknown electronic platform.
            r#"{"v":1,"id":1,"op":"eval","config":{"arch":"electronic","platform":"Z80"},"model":"cnn_cifar10"}"#,
        ] {
            let err = decode_request(line).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Unsupported, "{line} → {err:?}");
        }
    }

    #[test]
    fn eval_responses_round_trip_reports_bit_exactly() {
        let workloads = paper_workloads();
        let report = CrossLightSimulator::new(CrossLightConfig::paper_best())
            .evaluate(&workloads[0])
            .unwrap();
        let response = Response {
            id: Some(42),
            body: ResponseBody::Eval(EvalFrame {
                report,
                cache_hit: true,
                worker: 3,
            }),
        };
        let line = encode_response(&response);
        let decoded = decode_response(&line).unwrap();
        assert_eq!(decoded, response);
        match decoded.body {
            ResponseBody::Eval(frame) => assert_eq!(frame.report, report),
            other => panic!("expected eval frame, got {other:?}"),
        }
    }

    /// A representative snapshot stream: result-cache entries under both
    /// arch-key kinds plus every model-cache entry kind from an
    /// organically warmed [`crosslight_core::cache::ModelCache`].
    fn sample_snapshot_entries() -> Vec<SnapshotEntry> {
        let workloads = paper_workloads();
        let config = CrossLightConfig::paper_best();
        let report = CrossLightSimulator::new(config)
            .evaluate(&workloads[0])
            .unwrap();
        let mut entries = vec![
            SnapshotEntry::Result {
                arch: ArchKey::CrossLight(config.canonical_key()),
                workload: (*workloads[0]).clone(),
                report,
            },
            SnapshotEntry::Result {
                arch: ArchKey::Backend(BackendKey::new(3, [9, 0, u64::MAX, 17])),
                workload: (*workloads[1]).clone(),
                report,
            },
        ];
        let model = crosslight_core::cache::ModelCache::new();
        for variant in CrossLightVariant::all() {
            model.prepare(&variant.config()).unwrap();
        }
        entries.extend(model.export().into_iter().map(SnapshotEntry::Model));
        entries
    }

    #[test]
    fn snapshot_frames_round_trip_bit_exactly() {
        let entries = sample_snapshot_entries();
        assert!(
            entries
                .iter()
                .any(|e| matches!(e, SnapshotEntry::Model(ModelCacheEntry::Prepared { .. }))),
            "a warmed model cache exports prepared entries"
        );
        let checksum = snapshot_checksum(&entries);
        let requests = vec![
            Request {
                id: 1,
                body: RequestBody::Snapshot {
                    max_chunk_bytes: None,
                },
            },
            Request {
                id: 4,
                body: RequestBody::Snapshot {
                    max_chunk_bytes: Some(4096),
                },
            },
            Request {
                id: 2,
                body: RequestBody::Restore(SnapshotChunk {
                    seq: 0,
                    entries: entries.clone(),
                }),
            },
            Request {
                id: 3,
                body: RequestBody::RestoreEnd(SnapshotEnd {
                    chunks: 1,
                    entries: entries.len() as u64,
                    checksum,
                }),
            },
        ];
        for request in requests {
            let line = encode_request(&request);
            assert_eq!(decode_request(&line).unwrap(), request, "{line}");
        }
        let responses = vec![
            Response {
                id: Some(4),
                body: ResponseBody::Snapshot(SnapshotChunk {
                    seq: 5,
                    entries: entries.clone(),
                }),
            },
            Response {
                id: Some(5),
                body: ResponseBody::SnapshotEnd(SnapshotEnd {
                    chunks: 6,
                    entries: entries.len() as u64,
                    checksum,
                }),
            },
            Response {
                id: Some(6),
                body: ResponseBody::Restored(RestoredFrame {
                    entries: 12,
                    results: 7,
                    model: 5,
                }),
            },
        ];
        for response in responses {
            let line = encode_response(&response);
            assert_eq!(decode_response(&line).unwrap(), response, "{line}");
        }
    }

    #[test]
    fn snapshot_checksum_is_deterministic_and_order_sensitive() {
        let entries = sample_snapshot_entries();
        assert_eq!(snapshot_checksum(&entries), snapshot_checksum(&entries));
        let mut reversed = entries.clone();
        reversed.reverse();
        assert_ne!(
            snapshot_checksum(&entries),
            snapshot_checksum(&reversed),
            "reordering a stream must change its checksum"
        );
        // The decoded stream re-encodes to the identical checksum — the
        // property the receiver-side verification relies on.
        let chunk = SnapshotChunk { seq: 0, entries };
        let line = encode_request(&Request {
            id: 1,
            body: RequestBody::Restore(chunk.clone()),
        });
        let Ok(Request {
            body: RequestBody::Restore(decoded),
            ..
        }) = decode_request(&line)
        else {
            panic!("restore frame must decode");
        };
        assert_eq!(
            snapshot_checksum(&decoded.entries),
            snapshot_checksum(&chunk.entries)
        );
    }

    #[test]
    fn snapshot_chunking_respects_the_byte_budget_and_numbers_chunks() {
        let entries = sample_snapshot_entries();
        let budget = 600;
        let chunks = chunk_snapshot_entries(entries.clone(), budget);
        assert!(chunks.len() > 1, "a 600-byte budget must force chunking");
        let mut reassembled = Vec::new();
        for (i, chunk) in chunks.iter().enumerate() {
            assert_eq!(chunk.seq, i as u64);
            assert!(!chunk.entries.is_empty());
            let payload: usize = chunk
                .entries
                .iter()
                .map(|e| encode_snapshot_entry(e).len() + 1)
                .sum();
            assert!(
                payload <= budget || chunk.entries.len() == 1,
                "chunk {i} holds {payload} bytes against a {budget} budget"
            );
            reassembled.extend(chunk.entries.iter().cloned());
        }
        assert_eq!(reassembled, entries, "chunking must preserve the stream");
        // A generous budget yields one chunk.
        assert_eq!(chunk_snapshot_entries(entries, usize::MAX).len(), 1);
        // An empty stream yields no chunks.
        assert!(chunk_snapshot_entries(Vec::new(), budget).is_empty());
    }

    #[test]
    fn snapshot_decode_rejections_are_typed() {
        // A foreign schema is a well-formed frame this build cannot apply.
        let line = r#"{"v":1,"id":1,"op":"restore","schema":"crosslight-snapshot/v9","seq":0,"entries":[]}"#;
        assert_eq!(
            decode_request(line).unwrap_err().kind,
            ErrorKind::Unsupported
        );
        // Everything else about a broken stream is malformed.
        for line in [
            // checksum not a hex string
            r#"{"v":1,"id":1,"op":"restore_end","schema":"crosslight-snapshot/v1","chunks":0,"entries":0,"checksum":"zz"}"#,
            // checksum as a bare number
            r#"{"v":1,"id":1,"op":"restore_end","schema":"crosslight-snapshot/v1","chunks":0,"entries":0,"checksum":7}"#,
            // entries not an array
            r#"{"v":1,"id":1,"op":"restore","schema":"crosslight-snapshot/v1","seq":0,"entries":3}"#,
            // unknown entry kind
            r#"{"v":1,"id":1,"op":"restore","schema":"crosslight-snapshot/v1","seq":0,"entries":[{"kind":"mystery"}]}"#,
            // wrong word-array arity
            r#"{"v":1,"id":1,"op":"restore","schema":"crosslight-snapshot/v1","seq":0,"entries":[{"kind":"resolution","key":[1,2],"bits":8}]}"#,
            // a prepared entry whose config words fail core validation
            r#"{"v":1,"id":1,"op":"restore","schema":"crosslight-snapshot/v1","seq":0,"entries":[{"kind":"prepared","config":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"power_mw":{},"area_mm2":{},"resolution_bits":8}]}"#,
        ] {
            assert_eq!(
                decode_request(line).unwrap_err().kind,
                ErrorKind::Malformed,
                "{line}"
            );
        }
    }

    #[test]
    fn error_stats_and_pong_frames_round_trip() {
        let frames = vec![
            Response::error(None, ErrorFrame::new(ErrorKind::Overloaded, "queue full")),
            Response::error(
                Some(9),
                ErrorFrame::new(ErrorKind::Evaluation, "K < N rejected"),
            ),
            Response {
                id: Some(1),
                body: ResponseBody::Pong,
            },
            Response {
                id: Some(2),
                body: ResponseBody::Stats(StatsFrame {
                    server: WireServerStats {
                        connections_accepted: 3,
                        connections_active: 1,
                        requests_total: 40,
                        evals_ok: 30,
                        evals_failed: 2,
                        shed_total: 5,
                        malformed_total: 2,
                        oversized_total: 1,
                        queue_capacity: 256,
                        in_flight: 4,
                    },
                    runtime: RuntimeStats {
                        submitted: 30,
                        completed: 30,
                        cache_hits: 12,
                        cache_misses: 18,
                        cached_entries: 18,
                        prepared_configs: 4,
                        per_worker: vec![10, 20],
                        queue_depths: vec![0, 0],
                    },
                }),
            },
        ];
        for response in frames {
            let line = encode_response(&response);
            assert_eq!(decode_response(&line).unwrap(), response, "{line}");
        }
    }

    #[test]
    fn version_mismatches_and_malformed_frames_are_typed() {
        let err = decode_request(r#"{"v":2,"id":1,"op":"ping"}"#).unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnsupportedVersion);
        for line in [
            "",
            "not json",
            "{}",
            r#"{"v":1}"#,
            r#"{"v":1,"id":1}"#,
            r#"{"v":1,"id":1,"op":"launch"}"#,
            r#"{"v":1,"id":1,"op":"eval"}"#,
            r#"{"v":1,"id":1,"op":"eval","config":{"arch":7},"model":"cnn_cifar10"}"#,
            r#"{"v":1,"id":1,"op":"eval","config":{"arch":"electronic"},"model":"cnn_cifar10"}"#,
            r#"{"v":1,"id":1,"op":"eval","config":{"arch":"litecon","dims":[1,2,3]},"model":"cnn_cifar10"}"#,
            r#"{"v":1,"id":1,"op":"eval","config":{"variant":"Cross_opt_TED","dims":[1,2,3],"resolution_bits":16},"model":"cnn_cifar10"}"#,
            r#"{"v":1,"id":1,"op":"eval","config":{"variant":"Cross_opt_TED","dims":[1,2,3,4],"resolution_bits":16},"model":"vgg16"}"#,
            r#"{"v":1,"id":1,"op":"eval","config":{"variant":"Cross_opt_TED","dims":[1,2,3,4],"resolution_bits":16}}"#,
            r#"{"v":1,"id":-3,"op":"ping"}"#,
        ] {
            let err = decode_request(line).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Malformed, "{line} → {err:?}");
        }
        let err = decode_response(r#"{"v":1,"id":1,"ok":{"type":"eval"},"err":{}}"#).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Malformed);
    }

    #[test]
    fn eval_specs_resolve_to_runtime_requests() {
        let workloads = paper_workloads();
        let spec = EvalSpec::paper(CrossLightVariant::OptTed, PaperModel::CnnStl10);
        let request = spec.to_eval_request(11, &workloads).unwrap();
        assert_eq!(request.id, 11);
        assert_eq!(request.config().unwrap(), CrossLightConfig::paper_best());
        assert!(Arc::ptr_eq(&request.workload, &workloads[2]));

        let invalid = EvalSpec::crosslight(
            CrossLightVariant::OptTed,
            (150, 20, 100, 60), // K < N
            16,
            WorkloadRef::Model(PaperModel::CnnStl10),
        );
        let err = invalid.to_eval_request(0, &workloads).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Evaluation);

        // A zoo spec resolves to a request with no CrossLight config.
        let zoo = EvalSpec::for_arch(
            ArchRequest::DeapCnn,
            WorkloadRef::Model(PaperModel::CnnCifar10),
        );
        let request = zoo.to_eval_request(3, &workloads).unwrap();
        assert!(request.config().is_none());
        assert_eq!(request.arch.arch_name(), "deap-cnn");
        assert_eq!(zoo.config().unwrap_err().kind, ErrorKind::Evaluation);
    }

    #[test]
    fn metrics_request_frames_round_trip_and_default_to_json() {
        for format in [
            MetricsFormat::Json,
            MetricsFormat::Text,
            MetricsFormat::Spans,
        ] {
            let request = Request {
                id: 3,
                body: RequestBody::Metrics { format },
            };
            let line = encode_request(&request);
            assert_eq!(decode_request(&line).unwrap(), request, "{line}");
            // The default format is implicit on the wire.
            assert_eq!(
                line.contains("\"format\""),
                format != MetricsFormat::Json,
                "{line}"
            );
        }
        // A bare metrics frame means the JSON snapshot.
        let bare = decode_request(r#"{"v":1,"id":4,"op":"metrics"}"#).unwrap();
        assert_eq!(
            bare.body,
            RequestBody::Metrics {
                format: MetricsFormat::Json
            }
        );
        // Unknown formats are well-formed but unsupported.
        let err = decode_request(r#"{"v":1,"id":4,"op":"metrics","format":"xml"}"#).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Unsupported);
    }

    #[test]
    fn metrics_snapshot_responses_round_trip_losslessly() {
        use crosslight_telemetry::Registry;

        let registry = Registry::new();
        registry
            .counter("server_requests_total", "Frames received.")
            .add(41);
        registry
            .gauge("server_write_queue_depth", "Queued lines.")
            .set(-2);
        let latency = registry.histogram("server_request_ns", "End-to-end latency.");
        for v in [5u64, 120, 120, 7_000, 1 << 33] {
            latency.record(v);
        }
        let snapshot = registry.snapshot();

        let response = Response {
            id: Some(9),
            body: ResponseBody::Metrics(MetricsFrame::Snapshot(snapshot.clone())),
        };
        let line = encode_response(&response);
        let decoded = decode_response(&line).unwrap();
        assert_eq!(decoded, response, "{line}");

        // The decoded snapshot is the registry snapshot exactly: quantiles,
        // moments and bucket occupancy all survive the wire.
        match decoded.body {
            ResponseBody::Metrics(MetricsFrame::Snapshot(decoded)) => {
                assert_eq!(decoded, snapshot);
            }
            other => panic!("expected a metrics snapshot, got {other:?}"),
        }

        // Text and spans payloads round-trip too (including escaping).
        for frame in [
            MetricsFrame::Text("# TYPE a counter\na 1\n".to_string()),
            MetricsFrame::Spans(vec![
                "{\"id\":7,\"spans\":[]}".to_string(),
                "{\"id\":8,\"spans\":[]}".to_string(),
            ]),
        ] {
            let response = Response {
                id: Some(10),
                body: ResponseBody::Metrics(frame),
            };
            let line = encode_response(&response);
            assert_eq!(decode_response(&line).unwrap(), response, "{line}");
        }

        // A snapshot from a foreign schema is rejected as unsupported.
        let foreign = line.replace(METRICS_SCHEMA, "crosslight-metrics/v9");
        assert_eq!(
            decode_response(&foreign).unwrap_err().kind,
            ErrorKind::Unsupported
        );
    }

    #[test]
    fn huge_bucket_counts_saturate_through_decode_aggregate_and_render() {
        use crosslight_telemetry::render_text;

        let page = |buckets: &str| {
            format!(
                r#"{{"v":1,"id":1,"ok":{{"type":"metrics","format":"json","schema":"{METRICS_SCHEMA}","families":[{{"name":"a","help":"h","kind":"histogram","series":[{{"labels":{{}},"value":{{"count":0,"sum":0,"max":2,"buckets":{buckets}}}}}]}}]}}}}"#
            )
        };
        let count = |snapshot: &RegistrySnapshot| match &snapshot.families[0].series[0].value {
            SeriesValue::Histogram(histogram) => (histogram.count(), histogram.p99()),
            other => panic!("expected a histogram, got {other:?}"),
        };
        // A duplicate bound whose occupancies add past `u64::MAX`, and two
        // bounds whose occupancies do.
        let pages: Vec<RegistrySnapshot> = [
            "[[1,18446744073709551615],[1,1]]",
            "[[1,18446744073709551614],[2,5]]",
        ]
        .into_iter()
        .map(
            |buckets| match decode_response(&page(buckets)).unwrap().body {
                ResponseBody::Metrics(MetricsFrame::Snapshot(snapshot)) => snapshot,
                other => panic!("expected a metrics snapshot, got {other:?}"),
            },
        )
        .collect();
        for snapshot in &pages {
            assert_eq!(count(snapshot).0, u64::MAX);
        }
        let total = RegistrySnapshot::aggregated(pages);
        assert_eq!(count(&total), (u64::MAX, 1));
        let text = render_text(&total);
        assert!(
            text.contains("a_bucket{le=\"2\"} 18446744073709551615\n"),
            "{text}"
        );
        assert!(text.contains("a_count 18446744073709551615\n"), "{text}");
    }

    #[test]
    fn a_peer_max_below_its_buckets_cannot_pull_quantiles_under_them() {
        let line = format!(
            r#"{{"v":1,"id":1,"ok":{{"type":"metrics","format":"json","schema":"{METRICS_SCHEMA}","families":[{{"name":"a","help":"h","kind":"histogram","series":[{{"labels":{{}},"value":{{"count":2,"sum":3,"min":1,"max":0,"buckets":[[1,1],[2,1]]}}}}]}}]}}}}"#
        );
        let ResponseBody::Metrics(MetricsFrame::Snapshot(page)) =
            decode_response(&line).unwrap().body
        else {
            panic!("expected a metrics snapshot");
        };
        let total = RegistrySnapshot::aggregated(vec![page]);
        let SeriesValue::Histogram(histogram) = &total.families[0].series[0].value else {
            panic!("expected a histogram");
        };
        for quantile in [histogram.p50(), histogram.p99()] {
            assert!((1..=2).contains(&quantile), "{quantile}");
        }
    }

    const ALL_ERROR_KINDS: [ErrorKind; 8] = [
        ErrorKind::Malformed,
        ErrorKind::UnsupportedVersion,
        ErrorKind::Oversized,
        ErrorKind::Overloaded,
        ErrorKind::Evaluation,
        ErrorKind::ShuttingDown,
        ErrorKind::Unsupported,
        ErrorKind::Unavailable,
    ];

    #[test]
    fn error_kind_names_round_trip() {
        for kind in ALL_ERROR_KINDS {
            assert_eq!(ErrorKind::from_wire_name(kind.as_str()), Some(kind));
        }
        assert_eq!(ErrorKind::from_wire_name("panic"), None);
    }

    #[test]
    fn retryable_flag_is_encoded_only_for_retryable_kinds_and_round_trips() {
        for kind in ALL_ERROR_KINDS {
            let response = Response::error(Some(3), ErrorFrame::new(kind, "detail"));
            let line = encode_response(&response);
            assert_eq!(
                line.contains("\"retryable\":true"),
                kind.retryable(),
                "{line}"
            );
            // Non-retryable frames carry no flag at all, so every frame the
            // frozen backcompat corpus contains is unchanged.
            assert_eq!(line.contains("retryable"), kind.retryable(), "{line}");
            assert_eq!(decode_response(&line).unwrap(), response, "{line}");
        }
        // Frames without the flag (older servers) decode identically.
        let bare = r#"{"v":1,"id":3,"err":{"kind":"unavailable","detail":"d"}}"#;
        let decoded = decode_response(bare).unwrap();
        assert_eq!(
            decoded.body,
            ResponseBody::Error(ErrorFrame::new(ErrorKind::Unavailable, "d"))
        );
        // A present-but-ill-typed flag is malformed.
        let bad = r#"{"v":1,"id":3,"err":{"kind":"overloaded","detail":"d","retryable":"yes"}}"#;
        assert_eq!(decode_response(bad).unwrap_err().kind, ErrorKind::Malformed);
        // The retryable set is exactly the transient-capacity kinds.
        let retryable: Vec<ErrorKind> = ALL_ERROR_KINDS
            .into_iter()
            .filter(|k| k.retryable())
            .collect();
        assert_eq!(
            retryable,
            [
                ErrorKind::Overloaded,
                ErrorKind::ShuttingDown,
                ErrorKind::Unavailable
            ]
        );
    }

    #[test]
    fn request_id_splices_match_the_member_the_decoder_reads() {
        // (line, the line spliced to id 42): whitespace survives, an
        // escaped key is still `id`, a nested or quoted `id` is not the
        // top-level member, and of duplicate ids the first is the one
        // `decode_request` reads.
        let cases = [
            (
                r#" { "v" : 1 , "id" : 7 , "op" : "ping" } "#,
                r#" { "v" : 1 , "id" : 42 , "op" : "ping" } "#,
            ),
            (
                r#"{"v":1,"\u0069d":7,"op":"ping"}"#,
                r#"{"v":1,"\u0069d":42,"op":"ping"}"#,
            ),
            (
                r#"{"v":1,"x":{"id":3},"y":"\"id\":5","id":7,"op":"ping"}"#,
                r#"{"v":1,"x":{"id":3},"y":"\"id\":5","id":42,"op":"ping"}"#,
            ),
            (
                r#"{"v":1,"id":7,"id":8,"op":"ping"}"#,
                r#"{"v":1,"id":42,"id":8,"op":"ping"}"#,
            ),
        ];
        for (line, expected) in cases {
            assert_eq!(decode_request(line).unwrap().id, 7, "{line}");
            let spliced = splice_request_id(line, 42).unwrap();
            assert_eq!(spliced, expected);
            assert_eq!(
                decode_request(&spliced).unwrap(),
                Request {
                    id: 42,
                    body: RequestBody::Ping
                }
            );
        }
        // The id the splice replaces is the first top-level member named
        // `id`, whatever its value and whatever follows it.
        for (line, expected) in [
            (
                r#"{"v":1,"id":7,"op":"ping"}"#,
                r#"{"v":1,"id":42,"op":"ping"}"#,
            ),
            (
                r#" { "v" : [1, {"id": 2}] , "id" : 9 } "#,
                r#" { "v" : [1, {"id": 2}] , "id" : 42 } "#,
            ),
            (r#"{"id":3,"id":4}"#, r#"{"id":42,"id":4}"#),
            (r#"{"id":"x\"y","id":4}"#, r#"{"id":42,"id":4}"#),
        ] {
            assert_eq!(splice_request_id(line, 42).as_deref(), Some(expected));
        }
        // No object, no `id`, or a member before it that does not parse.
        for line in [
            r#"{"v":1,"op":"ping"}"#,
            "[7]",
            "[1]",
            "{}",
            r#"{"v":1}"#,
            r#"{"v":,"id":1}"#,
            "{\"id\"",
            "not json",
            "",
        ] {
            assert_eq!(splice_request_id(line, 42), None, "{line}");
        }
    }

    #[test]
    fn answer_peeks_read_only_the_encoders_head() {
        for kind in ALL_ERROR_KINDS {
            let line = encode_response(&Response::error(Some(12), ErrorFrame::new(kind, "d")));
            let peek = peek_answer(&line).unwrap();
            assert_eq!((peek.id, peek.error), (12, Some(kind)), "{line}");
            assert_eq!(
                peek.splice_id(&line, 3),
                encode_response(&Response::error(Some(3), ErrorFrame::new(kind, "d")))
            );
        }
        let pong = encode_response(&Response {
            id: Some(u64::MAX),
            body: ResponseBody::Pong,
        });
        assert_eq!(
            peek_answer(&pong).map(|p| (p.id, p.error)),
            Some((u64::MAX, None))
        );
        for line in [
            // No id, another layout, another version, an unknown kind, a
            // truncated head, an id past u64.
            r#"{"v":1,"err":{"kind":"malformed","detail":"d"}}"#.to_string(),
            r#"{"v":1, "id":3,"ok":{"type":"pong"}}"#.to_string(),
            r#"{"id":3,"v":1,"ok":{"type":"pong"}}"#.to_string(),
            r#"{"v":2,"id":3,"ok":{"type":"pong"}}"#.to_string(),
            r#"{"v":1,"id":3,"err":{"kind":"panic","detail":"d"}}"#.to_string(),
            r#"{"v":1,"id":3,"err":{"detail":"d","kind":"overloaded"}}"#.to_string(),
            r#"{"v":1,"id":3,"err":{"kind":"overloaded"#.to_string(),
            r#"{"v":1,"id":,"ok":{"type":"pong"}}"#.to_string(),
            format!(r#"{{"v":1,"id":{}0,"ok":{{"type":"pong"}}}}"#, u64::MAX),
            String::new(),
        ] {
            assert_eq!(peek_answer(&line), None, "{line}");
        }
    }

    // ---- the exact reader and the wire reader: generated and mutated frames --

    fn report_values(report: &SimulationReport) -> [f64; 16] {
        let (p, a, m) = (&report.power, &report.area, &report.metrics);
        [
            p.laser.value(),
            p.tuning.value(),
            p.detection.value(),
            p.conversion.value(),
            p.control.value(),
            a.mr_banks.value(),
            a.arm_devices.value(),
            a.unit_electronics.value(),
            m.latency.conv_time.value(),
            m.latency.fc_time.value(),
            m.latency.electronic_time.value(),
            m.fps,
            m.energy_per_inference.value(),
            m.energy_per_bit_pj,
            m.kfps_per_watt,
            m.power.value(),
        ]
    }

    /// The report holding `v`, in [`report_values`]' order.
    fn report_from(v: [f64; 16], resolution_bits: u32) -> SimulationReport {
        SimulationReport {
            power: crosslight_core::power::AcceleratorPower {
                laser: MilliWatts::new(v[0]),
                tuning: MilliWatts::new(v[1]),
                detection: MilliWatts::new(v[2]),
                conversion: MilliWatts::new(v[3]),
                control: MilliWatts::new(v[4]),
            },
            area: crosslight_core::area::AcceleratorArea {
                mr_banks: SquareMillimeters::new(v[5]),
                arm_devices: SquareMillimeters::new(v[6]),
                unit_electronics: SquareMillimeters::new(v[7]),
            },
            metrics: InferenceMetrics {
                latency: InferenceLatency {
                    conv_time: Seconds::new(v[8]),
                    fc_time: Seconds::new(v[9]),
                    electronic_time: Seconds::new(v[10]),
                },
                fps: v[11],
                energy_per_inference: Picojoules::new(v[12]),
                energy_per_bit_pj: v[13],
                kfps_per_watt: v[14],
                power: Watts::new(v[15]),
            },
            resolution_bits,
        }
    }

    /// Everything an eval answer carries, floats as bits.
    fn answer_bits(response: &Response) -> (Option<u64>, bool, u64, u32, [u64; 16]) {
        let ResponseBody::Eval(frame) = &response.body else {
            panic!("expected an eval answer, got {response:?}");
        };
        (
            response.id,
            frame.cache_hit,
            frame.worker,
            frame.report.resolution_bits,
            report_values(&frame.report).map(f64::to_bits),
        )
    }

    /// Fails unless the exact reader declines `line` or returns what the
    /// wire reader returns, every float bit for bit.  Returns whether it
    /// accepted.
    fn exact_agrees(line: &str) -> bool {
        if let Some(exact) = exact_eval_request(line) {
            assert_eq!(read_line(line, read_request), Ok(exact), "{line}");
            return true;
        }
        if let Some(exact) = exact_eval_answer(line) {
            let read = read_line(line, read_response).unwrap_or_else(|e| panic!("{line}: {e:?}"));
            assert_eq!(answer_bits(&exact), answer_bits(&read), "{line}");
            return true;
        }
        false
    }

    /// Ids, workers and dims, with 0 and `u64::MAX` drawn often.
    fn counter_value() -> impl Strategy<Value = u64> {
        (0usize..5, proptest::num::u64::ANY).prop_map(|(pick, any)| match pick {
            0 => 0,
            1 => u64::MAX,
            2 => any % 1_000,
            _ => any,
        })
    }

    /// Resolutions, with 0 and `u32::MAX` drawn often.
    fn bits_value() -> impl Strategy<Value = u32> {
        (0usize..4, proptest::num::u32::ANY).prop_map(|(pick, any)| match pick {
            0 => 0,
            1 => u32::MAX,
            2 => any % 33,
            _ => any,
        })
    }

    /// Report floats: NaN, ±inf, ±0.0, subnormals and the extremes drawn
    /// often, then any subnormal, then any bit pattern at all.
    fn report_value() -> impl Strategy<Value = f64> {
        const SPECIAL: [f64; 11] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            f64::MIN_POSITIVE,
            f64::MAX,
            -f64::MAX,
        ];
        (0usize..3, 0usize..SPECIAL.len(), proptest::num::u64::ANY).prop_map(
            |(pick, special, bits)| match pick {
                0 => SPECIAL[special],
                1 => f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF),
                _ => f64::from_bits(bits),
            },
        )
    }

    /// Report floats of a size a simulator reports, with one in four drawn
    /// from [`report_value`].  `f64`'s `Display` writes no exponent, so an
    /// arbitrary bit pattern is hundreds of digits long; mostly-plain
    /// reports keep every truncation of a line cheap to check.
    fn mostly_plain_value() -> impl Strategy<Value = f64> {
        (0u32..4, report_value(), -1.0f64..1.0, -15i32..15).prop_map(
            |(pick, special, mantissa, decade)| match pick {
                0 => special,
                _ => mantissa * 10f64.powi(decade),
            },
        )
    }

    /// An eval answer to truncate everywhere: in one case in 16 its floats
    /// are drawn from [`report_value`], extremes hundreds of digits long
    /// included; otherwise they are short, with one in four a non-finite
    /// value or a signed zero, so a line stays cheap to check at every
    /// length.
    fn truncatable_answer() -> impl Strategy<Value = Response> {
        const SPECIAL: [f64; 5] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
        let short = (0usize..4 * SPECIAL.len(), -1.0f64..1.0, -15i32..15).prop_map(
            |(pick, mantissa, decade)| match SPECIAL.get(pick) {
                Some(&special) => special,
                None => mantissa * 10f64.powi(decade),
            },
        );
        (0u32..16).prop_flat_map(move |pick| {
            let float = (report_value(), short.clone());
            eval_answer(float.prop_map(move |(any, short)| if pick == 0 { any } else { short }))
        })
    }

    /// A CrossLight eval request on a Table I model, as every load
    /// generator sends one.
    fn eval_request() -> impl Strategy<Value = Request> {
        (
            counter_value(),
            0usize..4,
            proptest::collection::vec(counter_value(), 4),
            bits_value(),
            0usize..4,
        )
            .prop_map(|(id, variant, dims, bits, model)| {
                let dim = |i: usize| usize::try_from(dims[i]).unwrap_or(usize::MAX);
                Request {
                    id,
                    body: RequestBody::Eval(EvalSpec::crosslight(
                        CrossLightVariant::all()[variant],
                        (dim(0), dim(1), dim(2), dim(3)),
                        bits,
                        WorkloadRef::Model(PaperModel::all()[model]),
                    )),
                }
            })
    }

    /// An eval answer with any id, worker and hit flag, its report's floats
    /// drawn from `float`.
    fn eval_answer(float: impl Strategy<Value = f64>) -> impl Strategy<Value = Response> {
        (
            counter_value(),
            counter_value(),
            0u32..2,
            proptest::collection::vec(float, 16),
            bits_value(),
        )
            .prop_map(|(id, worker, cache_hit, values, bits)| Response {
                id: Some(id),
                body: ResponseBody::Eval(EvalFrame {
                    report: report_from(values.try_into().unwrap(), bits),
                    cache_hit: cache_hit == 1,
                    worker,
                }),
            })
    }

    /// The bytes the single-byte edits delete, replace and insert with.
    const PROBES: &[u8; 12] = b" \"\\,:}]09-.e";

    /// Number texts that replace one number of a line: integers where the
    /// encoder writes floats, texts only the reader's tokenizer splits right,
    /// values past every integer type, and the extremes that still fit.
    const NUMBERS: [&str; 22] = [
        "1",
        "-1",
        "0",
        "-0",
        ".5",
        "-.5",
        "5.",
        "1e400",
        "-1e400",
        "1e-400",
        "1E5",
        "1.0e+2",
        "1.0.0",
        "--3",
        "1-2",
        "007",
        "+1.0",
        "4294967295",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999.5",
    ];

    /// Members that join an object: duplicates of the encoder's own keys,
    /// keys it never writes, and the `arch` and `workload` members of the
    /// requests the exact reader leaves to the wire reader.
    const MEMBERS: [&str; 10] = [
        "\"v\":1",
        "\"id\":5",
        "\"op\":\"ping\"",
        "\"arch\":\"crosslight\"",
        "\"workload\":{}",
        "\"model\":\"cnn_cifar10\"",
        "\"cache_hit\":false",
        "\"laser\":1.5",
        "\"resolution_bits\":8",
        "\"x\":null",
    ];

    /// The byte ranges of a line's number tokens.
    fn number_spans(line: &str) -> Vec<Range<usize>> {
        let bytes = line.as_bytes();
        let mut spans = Vec::new();
        let mut i = 0;
        while i < bytes.len() {
            if matches!(bytes[i], b'-' | b'0'..=b'9') && i > 0 && b":[,".contains(&bytes[i - 1]) {
                let (len, _) = json::number_token(&bytes[i..]).expect("encoded numbers are valid");
                spans.push(i..i + len);
                i += len;
            } else {
                i += 1;
            }
        }
        spans
    }

    /// The byte offsets where a key or a string value opens.
    fn string_starts(line: &str) -> Vec<usize> {
        let bytes = line.as_bytes();
        (1..bytes.len())
            .filter(|&i| bytes[i] == b'"' && b"{,:".contains(&bytes[i - 1]))
            .collect()
    }

    /// The lines one structural mutation of `line` gives, each site picked
    /// by the next word of `picks`.  Truncations are left to the caller,
    /// which checks every one as a borrowed prefix.
    fn mutations(line: &str, picks: &[u64]) -> Vec<String> {
        let mut picks = picks.iter().map(|&p| p as usize).cycle();
        let mut pick = |n: usize| picks.next().unwrap() % n.max(1);
        let splice = |at: Range<usize>, with: &str| {
            format!("{}{with}{}", &line[..at.start], &line[at.end..])
        };
        let mut out = Vec::new();
        // Single-byte edits at random sites.
        for _ in 0..12 {
            let at = pick(line.len());
            let probe = char::from(PROBES[pick(PROBES.len())]).to_string();
            out.push(splice(at..at + 1, ""));
            out.push(splice(at..at + 1, &probe));
            out.push(splice(at..at, &probe));
        }
        // Whitespace, inside, before and after.
        for ws in [" ", "\t", "\n", "\r"] {
            let at = pick(line.len() + 1);
            out.push(splice(at..at, ws));
        }
        out.push(format!(" {line}"));
        // Trailing bytes.
        for tail in [" ", "\n", "}", ",", "x", "0"] {
            out.push(format!("{line}{tail}"));
        }
        // A number replaced, twice per text.
        let spans = number_spans(line);
        for text in NUMBERS {
            for _ in 0..2 {
                out.push(splice(spans[pick(spans.len())].clone(), text));
            }
        }
        // `1.0` written as `1`: a float's `.0` dropped.
        for span in &spans {
            if line[span.clone()].ends_with(".0") {
                out.push(splice(span.end - 2..span.end, ""));
            }
        }
        // A key or a string value spelled with a `\u` escape.
        let starts = string_starts(line);
        for _ in 0..4 {
            let at = starts[pick(starts.len())] + 1;
            let escaped = format!("\\u{:04x}", line.as_bytes()[at]);
            out.push(splice(at..at + 1, &escaped));
        }
        // Members reordered: two neighbouring strings swapped, which swaps
        // two keys (and so their members' order) or a key and a value.
        for _ in 0..4 {
            let i = pick(starts.len());
            let (a, b) = (starts[i], starts[(i + 1) % starts.len()]);
            let key = |at: usize| &line[at..=at + line[at + 1..].find('"').unwrap() + 1];
            let (first, second) = (key(a.min(b)), key(a.max(b)));
            out.push(
                line.replacen(first, "\u{0}", 1)
                    .replacen(second, first, 1)
                    .replacen("\u{0}", second, 1),
            );
        }
        // A duplicate or extra member after an opening brace or a comma.
        let opens: Vec<usize> = (0..line.len())
            .filter(|&i| matches!(line.as_bytes()[i], b'{' | b','))
            .collect();
        for member in MEMBERS {
            let at = opens[pick(opens.len())] + 1;
            out.push(splice(at..at, &format!("{member},")));
        }
        // Byte soup: slices of the line glued in random order, and random
        // bytes from the JSON alphabet and beyond.
        for _ in 0..4 {
            let mut soup = String::new();
            for _ in 0..1 + pick(6) {
                let start = pick(line.len());
                let end = start + pick(line.len() - start + 1);
                soup.push_str(&line[start..end]);
            }
            out.push(soup);
            let soup: String = (0..pick(64))
                .map(|_| char::from_u32(pick(0x250) as u32).unwrap_or('?'))
                .collect();
            out.push(soup);
        }
        out
    }

    /// The sample snapshot stream, built once: filling its model cache runs
    /// eigensolves every case would otherwise repeat.
    fn snapshot_entries() -> &'static [SnapshotEntry] {
        static ENTRIES: std::sync::OnceLock<Vec<SnapshotEntry>> = std::sync::OnceLock::new();
        ENTRIES.get_or_init(sample_snapshot_entries)
    }

    /// A registry snapshot holding a series of every metric kind, one with
    /// labels.
    fn sample_registry() -> RegistrySnapshot {
        let registry = crosslight_telemetry::Registry::new();
        registry
            .counter("requests_total", "Frames \"received\".")
            .add(41);
        registry.gauge("queue_depth", "Queued lines.").set(-2);
        let latency = registry.histogram("request_ns", "End-to-end latency.");
        for v in [5u64, 120, 7_000, 1 << 33] {
            latency.record(v);
        }
        let mut snapshot = registry.snapshot();
        snapshot.families[0].series[0].labels = vec![
            ("b".to_string(), "2".to_string()),
            ("a".to_string(), "1".to_string()),
        ];
        snapshot
    }

    /// One line of every frame kind, `request` and `answer` among them,
    /// each with whether it is a request: an eval on a model and on an
    /// inline workload, one per zoo config, every other op, and every
    /// answer type and error kind.
    fn every_frame(request: &Request, answer: &Response) -> Vec<(String, bool)> {
        let id = request.id;
        let entries = snapshot_entries().to_vec();
        let end = SnapshotEnd {
            chunks: 1,
            entries: entries.len() as u64,
            checksum: snapshot_checksum(&entries),
        };
        let chunk = SnapshotChunk { seq: id, entries };
        let inline = WorkloadRef::Inline((*paper_workloads()[1]).clone());
        let mut bodies = vec![
            request.body.clone(),
            RequestBody::Eval(EvalSpec::paper(
                CrossLightVariant::Base,
                PaperModel::CnnStl10,
            )),
            RequestBody::Eval(EvalSpec::for_arch(ArchRequest::DeapCnn, inline)),
            RequestBody::Stats,
            RequestBody::Ping,
            RequestBody::Snapshot {
                max_chunk_bytes: None,
            },
            RequestBody::Snapshot {
                max_chunk_bytes: Some(id),
            },
            RequestBody::Restore(chunk.clone()),
            RequestBody::RestoreEnd(end),
        ];
        for spec in ArchSpec::zoo_defaults() {
            let arch = ArchRequest::for_spec(&spec).expect("zoo specs use named variants");
            let workload = WorkloadRef::Model(PaperModel::CnnCifar10);
            bodies.push(RequestBody::Eval(EvalSpec::for_arch(arch, workload)));
        }
        let formats = [
            MetricsFormat::Json,
            MetricsFormat::Text,
            MetricsFormat::Spans,
        ];
        bodies.extend(formats.map(|format| RequestBody::Metrics { format }));
        let stats = StatsFrame {
            server: WireServerStats {
                connections_accepted: id,
                connections_active: 1,
                requests_total: 40,
                evals_ok: 30,
                evals_failed: 2,
                shed_total: 5,
                malformed_total: 2,
                oversized_total: 1,
                queue_capacity: 256,
                in_flight: 4,
            },
            runtime: RuntimeStats {
                submitted: 30,
                completed: 30,
                cache_hits: 12,
                cache_misses: 18,
                cached_entries: 18,
                prepared_configs: 4,
                per_worker: vec![10, id],
                queue_depths: vec![0, 0],
            },
        };
        let mut answers = vec![
            answer.body.clone(),
            ResponseBody::Stats(stats),
            ResponseBody::Metrics(MetricsFrame::Snapshot(sample_registry())),
            ResponseBody::Metrics(MetricsFrame::Text("# TYPE a counter\na 1\n".to_string())),
            ResponseBody::Metrics(MetricsFrame::Spans(vec!["{\"id\":7}".to_string()])),
            ResponseBody::Snapshot(chunk),
            ResponseBody::SnapshotEnd(end),
            ResponseBody::Restored(RestoredFrame {
                entries: 12,
                results: id,
                model: 5,
            }),
            ResponseBody::Pong,
        ];
        answers.extend(
            ALL_ERROR_KINDS.map(|kind| ResponseBody::Error(ErrorFrame::new(kind, "d\"\\\n"))),
        );
        let requests = bodies
            .into_iter()
            .map(|body| (encode_request(&Request { id, body }), true));
        let ids = [answer.id, None].into_iter().cycle();
        let answers = answers
            .into_iter()
            .zip(ids)
            .map(|(body, id)| (encode_response(&Response { id, body }), false));
        requests.chain(answers).collect()
    }

    /// `line` written again with every object's members reordered, an
    /// unknown member added to each object and a duplicate of one of its
    /// members appended, some keys' first letter escaped and whitespace
    /// between tokens; every choice is the next word of `picks`.  A series'
    /// labels keep their members: their order is part of the value.
    fn shake(line: &str, picks: &[u64]) -> String {
        const JUNK: [&str; 6] = [
            "null",
            "[1,{\"a\":\"b\"}]",
            "\"s\"",
            "-5",
            "1.5e3",
            "{\"type\":7}",
        ];
        fn write(
            value: &Json,
            labels: bool,
            pick: &mut dyn FnMut(usize) -> usize,
            out: &mut String,
        ) {
            out.push_str(["", " ", "\t", "\n\r ", ""][pick(5)]);
            match value {
                Json::Object(members) if !labels => {
                    let mut members: Vec<(&str, Option<&Json>)> = members
                        .iter()
                        .rev()
                        .map(|(k, v)| (k.as_str(), Some(v)))
                        .collect();
                    let turn = pick(members.len() + 1) % members.len().max(1);
                    members.rotate_left(turn);
                    members.insert(pick(members.len() + 1), ("zz", None));
                    let duplicate = members[pick(members.len())].0;
                    members.push((duplicate, None));
                    out.push('{');
                    for (i, (key, value)) in members.into_iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let mut key_text = String::new();
                        json::push_string_literal(key, &mut key_text);
                        if pick(3) == 0 {
                            let escaped = format!("\\u{:04x}", key_text.as_bytes()[1]);
                            key_text.replace_range(1..2, &escaped);
                        }
                        out.push_str(&key_text);
                        out.push_str([":", " : ", ":\t"][pick(3)]);
                        match value {
                            Some(value) => write(value, key == "labels", pick, out),
                            None => out.push_str(JUNK[pick(JUNK.len())]),
                        }
                    }
                    out.push('}');
                }
                Json::Object(members) => {
                    out.push('{');
                    for (i, (key, value)) in members.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        json::push_string_literal(key, out);
                        out.push(':');
                        write(value, false, pick, out);
                    }
                    out.push('}');
                }
                Json::Array(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str([",", " , "][pick(2)]);
                        }
                        write(item, false, pick, out);
                    }
                    out.push(']');
                }
                Json::Null => out.push_str("null"),
                Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Json::Uint(v) => out.push_str(&v.to_string()),
                Json::Int(v) => out.push_str(&v.to_string()),
                Json::Float(v) => json::push_f64(*v, out),
                Json::Str(s) => json::push_string_literal(s, out),
            }
            out.push_str(["", " ", "", "\n"][pick(4)]);
        }
        let mut words = picks.iter().map(|&p| p as usize).cycle();
        let mut pick = |n: usize| words.next().unwrap() % n.max(1);
        let mut out = String::new();
        write(&Json::parse(line).unwrap(), false, &mut pick, &mut out);
        out
    }

    /// The lengths a line of `len` bytes is truncated at: every one, or, past
    /// 2 KiB (an answer whose floats run to hundreds of digits), about 128
    /// spread evenly from an offset `seed` picks.
    fn truncation_lengths(len: usize, seed: u64) -> std::iter::StepBy<Range<usize>> {
        let stride = if len <= 2048 { 1 } else { len.div_ceil(128) };
        (seed as usize % stride..len).step_by(stride)
    }

    /// Fails unless `line` decodes to an "invalid JSON" error exactly when
    /// [`Json::parse`] rejects it, with the same text.
    fn syntax_errors_agree(line: &str, is_request: bool) {
        let expected = Json::parse(line)
            .err()
            .map(|err| ErrorFrame::from(err).detail);
        let decoded = if is_request {
            decode_request(line).err()
        } else {
            decode_response(line).err()
        };
        let invalid = decoded
            .filter(|f| f.kind == ErrorKind::Malformed && f.detail.starts_with("invalid JSON: "))
            .map(|f| f.detail);
        assert_eq!(invalid, expected, "{line}");
    }

    proptest! {
        /// (a) Every eval request and answer the encoders write — any id
        /// and worker, both hit flags, any report float — is read by the
        /// exact reader, bit for bit the value encoded and the value the
        /// wire reader reads.
        #[test]
        fn exact_reader_accepts_every_encoded_hot_frame(
            request in eval_request(),
            answer in eval_answer(report_value()),
        ) {
            let line = encode_request(&request);
            prop_assert_eq!(exact_eval_request(&line), Some(request), "{}", line);
            prop_assert!(exact_agrees(&line));

            let line = encode_response(&answer);
            let exact = exact_eval_answer(&line).unwrap_or_else(|| panic!("declined {line}"));
            prop_assert!(exact_agrees(&line));
            let (id, cache_hit, worker, bits, floats) = answer_bits(&answer);
            let (exact_id, exact_hit, exact_worker, exact_bits, exact_floats) = answer_bits(&exact);
            prop_assert_eq!((exact_id, exact_hit, exact_worker, exact_bits), (id, cache_hit, worker, bits));
            for (sent, read) in floats.into_iter().zip(exact_floats) {
                // The wire carries every NaN as `"NaN"`, read as `f64::NAN`.
                if f64::from_bits(sent).is_nan() {
                    prop_assert_eq!(read, f64::NAN.to_bits());
                } else {
                    prop_assert_eq!(read, sent);
                }
            }
        }

        /// (b) Whatever a mutated line is — edited, spaced, escaped,
        /// reordered, padded with members or numbers the encoder never
        /// writes, or byte soup — the exact reader declines it or reads what
        /// the wire reader reads, and it decodes to an "invalid JSON" error
        /// exactly when [`Json::parse`] rejects it.  Truncations are walked
        /// by `wire_reader_rejects_exactly_the_lines_json_parse_rejects`.
        #[test]
        fn exact_reader_declines_or_agrees_with_the_wire_reader(
            request in eval_request(),
            answer in eval_answer(mostly_plain_value()),
            picks in proptest::collection::vec(proptest::num::u64::ANY, 64),
        ) {
            for (line, is_request) in [(encode_request(&request), true), (encode_response(&answer), false)] {
                for mutated in mutations(&line, &picks) {
                    exact_agrees(&mutated);
                    syntax_errors_agree(&mutated, is_request);
                }
            }
        }

        /// Reordering every object's members, whitespace, escaped keys,
        /// unknown members and appended duplicates never change what a frame
        /// of any kind decodes to: the value re-encodes to the line the
        /// encoder wrote, every float bit for bit.
        #[test]
        fn wire_reader_values_ignore_member_order_spacing_and_extra_members(
            request in eval_request(),
            answer in eval_answer(report_value()),
            picks in proptest::collection::vec(proptest::num::u64::ANY, 64),
        ) {
            for (line, is_request) in every_frame(&request, &answer) {
                let shaken = shake(&line, &picks);
                let encoded = if is_request {
                    decode_request(&line).map(|r| encode_request(&r))
                } else {
                    decode_response(&line).map(|r| encode_response(&r))
                };
                prop_assert_eq!(encoded.as_deref(), Ok(line.as_str()));
                let decoded = if is_request {
                    decode_request(&shaken).map(|r| encode_request(&r))
                } else {
                    decode_response(&shaken).map(|r| encode_response(&r))
                };
                prop_assert_eq!(decoded.as_deref(), Ok(line.as_str()), "{}", shaken);
            }
        }

        /// A hot frame truncated anywhere is declined by the exact reader
        /// and decodes to an "invalid JSON" error exactly when
        /// [`Json::parse`] rejects it (always), with the same text, and
        /// never panics.  Mutated lines are checked by
        /// `exact_reader_declines_or_agrees_with_the_wire_reader`.
        #[test]
        fn wire_reader_rejects_exactly_the_lines_json_parse_rejects(
            request in eval_request(),
            answer in truncatable_answer(),
            picks in proptest::collection::vec(proptest::num::u64::ANY, 64),
        ) {
            for (line, is_request) in [(encode_request(&request), true), (encode_response(&answer), false)] {
                for end in truncation_lengths(line.len(), picks[0]) {
                    let prefix = &line[..end];
                    prop_assert!(!exact_agrees(prefix), "accepted {}", prefix);
                    syntax_errors_agree(prefix, is_request);
                }
            }
        }
    }

    #[test]
    fn number_texts_json_forbids_are_malformed_to_both_readers() {
        let request = encode_request(&Request {
            id: 7,
            body: RequestBody::Eval(EvalSpec::paper(
                CrossLightVariant::OptTed,
                PaperModel::Lenet5SignMnist,
            )),
        });
        let answer = encode_response(&Response {
            id: Some(12),
            body: ResponseBody::Eval(EvalFrame {
                report: report_from([1.5; 16], 16),
                cache_hit: true,
                worker: 1,
            }),
        });
        let malformed = Some(ErrorKind::Malformed);
        for text in ["007", "-01", "5.", "-.5", "01.5", "1.e5", "1e400", "-1e400"] {
            let request = request.replacen("\"id\":7,", &format!("\"id\":{text},"), 1);
            assert_eq!(exact_eval_request(&request), None, "{request}");
            assert_eq!(decode_request(&request).err().map(|f| f.kind), malformed);
            let answer = answer.replacen("\"laser\":1.5", &format!("\"laser\":{text}"), 1);
            assert!(exact_eval_answer(&answer).is_none(), "{answer}");
            assert_eq!(decode_response(&answer).err().map(|f| f.kind), malformed);
        }
    }

    #[test]
    fn exact_reader_agrees_on_every_single_byte_edit_of_sample_frames() {
        let request = encode_request(&Request {
            id: 7,
            body: RequestBody::Eval(EvalSpec::paper(
                CrossLightVariant::OptTed,
                PaperModel::Lenet5SignMnist,
            )),
        });
        let mut values = report_values(
            &CrossLightSimulator::new(CrossLightConfig::paper_best())
                .evaluate(&paper_workloads()[0])
                .unwrap(),
        );
        values[..4].copy_from_slice(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0]);
        let answer = encode_response(&Response {
            id: Some(12),
            body: ResponseBody::Eval(EvalFrame {
                report: report_from(values, 16),
                cache_hit: true,
                worker: 1,
            }),
        });
        let (mut edits, mut accepted) = (0, 0);
        for line in [request, answer] {
            for at in 0..=line.len() {
                let (head, tail) = line.split_at(at);
                let mut edited = vec![head.to_string()];
                if !tail.is_empty() {
                    edited.push(format!("{head}{}", &tail[1..]));
                }
                for &probe in PROBES {
                    let probe = char::from(probe);
                    edited.push(format!("{head}{probe}{tail}"));
                    if !tail.is_empty() {
                        edited.push(format!("{head}{probe}{}", &tail[1..]));
                    }
                }
                for line in edited {
                    edits += 1;
                    accepted += usize::from(exact_agrees(&line));
                }
            }
        }
        // Edits that keep the layout (a digit for a digit, say) are read;
        // the count shows the check is not vacuous.
        assert!(accepted > edits / 50, "{accepted} of {edits} accepted");
    }
}
