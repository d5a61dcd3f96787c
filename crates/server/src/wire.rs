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
use crosslight_core::cache::ModelCacheEntry;
use crosslight_core::canonical::{
    ArchKey, BackendKey, ConfigKey, ResolutionKey, VdpUnitKey, CONFIG_KEY_WORDS,
    RESOLUTION_KEY_WORDS, VDP_UNIT_KEY_WORDS,
};
use crosslight_core::config::CrossLightConfig;
use crosslight_core::performance::{InferenceLatency, InferenceMetrics};
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

use crate::json::{self, Json, JsonError};

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
    /// Evaluation-pool counters.
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
// Encoding
// ---------------------------------------------------------------------------

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Appends the workload object to the line being built.
fn encode_workload_into(workload: &NetworkWorkload, out: &mut String) {
    let layers = |layers: &[DotProductWorkload], out: &mut String| {
        out.push('[');
        for (i, l) in layers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{},{}]", l.dot_length, l.dot_count);
        }
        out.push(']');
    };
    out.push_str("{\"name\":");
    json::push_string_literal(&workload.name, out);
    let _ = write!(out, ",\"towers\":{},\"conv_layers\":", workload.towers);
    layers(&workload.conv_layers, out);
    out.push_str(",\"fc_layers\":");
    layers(&workload.fc_layers, out);
    out.push('}');
}

/// Appends the power object (`{"laser":…,…,"control":…}`) to the line.
fn encode_power_into(power: &crosslight_core::power::AcceleratorPower, out: &mut String) {
    let f = |label: &str, value: f64, out: &mut String| {
        out.push_str(label);
        json::push_f64(value, out);
    };
    f("{\"laser\":", power.laser.value(), out);
    f(",\"tuning\":", power.tuning.value(), out);
    f(",\"detection\":", power.detection.value(), out);
    f(",\"conversion\":", power.conversion.value(), out);
    f(",\"control\":", power.control.value(), out);
    out.push('}');
}

/// Appends the area object (`{"mr_banks":…,…}`) to the line.
fn encode_area_into(area: &crosslight_core::area::AcceleratorArea, out: &mut String) {
    let f = |label: &str, value: f64, out: &mut String| {
        out.push_str(label);
        json::push_f64(value, out);
    };
    f("{\"mr_banks\":", area.mr_banks.value(), out);
    f(",\"arm_devices\":", area.arm_devices.value(), out);
    f(",\"unit_electronics\":", area.unit_electronics.value(), out);
    out.push('}');
}

/// Appends the report object to the line being built.  Frames are encoded by
/// direct string writing (not via a [`Json`] tree) because this runs once
/// per response on the serving hot path.
fn encode_report_into(report: &SimulationReport, out: &mut String) {
    let f = |label: &str, value: f64, out: &mut String| {
        out.push_str(label);
        json::push_f64(value, out);
    };
    out.push_str("{\"power_mw\":");
    encode_power_into(&report.power, out);
    out.push_str(",\"area_mm2\":");
    encode_area_into(&report.area, out);
    f(
        ",\"metrics\":{\"conv_time_s\":",
        report.metrics.latency.conv_time.value(),
        out,
    );
    f(
        ",\"fc_time_s\":",
        report.metrics.latency.fc_time.value(),
        out,
    );
    f(
        ",\"electronic_time_s\":",
        report.metrics.latency.electronic_time.value(),
        out,
    );
    f(",\"fps\":", report.metrics.fps, out);
    f(
        ",\"energy_per_inference_pj\":",
        report.metrics.energy_per_inference.value(),
        out,
    );
    f(
        ",\"energy_per_bit_pj\":",
        report.metrics.energy_per_bit_pj,
        out,
    );
    f(",\"kfps_per_watt\":", report.metrics.kfps_per_watt, out);
    f(",\"power_w\":", report.metrics.power.value(), out);
    let _ = write!(out, "}},\"resolution_bits\":{}}}", report.resolution_bits);
}

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

/// Appends a canonical-word array (`[w0,w1,…]`) to the line.
fn encode_words_into(words: &[u64], out: &mut String) {
    out.push('[');
    for (i, word) in words.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{word}");
    }
    out.push(']');
}

/// Appends a canonical architecture key to the line.
fn encode_arch_key_into(arch: &ArchKey, out: &mut String) {
    match arch {
        ArchKey::CrossLight(key) => {
            out.push_str("{\"kind\":\"crosslight\",\"words\":");
            encode_words_into(&key.to_words(), out);
            out.push('}');
        }
        ArchKey::Backend(key) => {
            let _ = write!(
                out,
                "{{\"kind\":\"backend\",\"tag\":{},\"params\":",
                key.arch_tag()
            );
            encode_words_into(&key.params(), out);
            out.push('}');
        }
    }
}

/// Appends one snapshot entry object to the line.  This encoding is the
/// canonical checksum domain: it is deterministic (keys in fixed order,
/// exact-f64 numbers), so [`snapshot_checksum`] agrees between the exporter
/// and a receiver that re-encodes what it decoded.
fn encode_snapshot_entry_into(entry: &SnapshotEntry, out: &mut String) {
    match entry {
        SnapshotEntry::Result {
            arch,
            workload,
            report,
        } => {
            out.push_str("{\"kind\":\"result\",\"arch\":");
            encode_arch_key_into(arch, out);
            out.push_str(",\"workload\":");
            encode_workload_into(workload, out);
            out.push_str(",\"report\":");
            encode_report_into(report, out);
            out.push('}');
        }
        SnapshotEntry::Model(ModelCacheEntry::Unit { key, report }) => {
            out.push_str("{\"kind\":\"unit\",\"key\":");
            encode_words_into(&key.to_words(), out);
            let f = |label: &str, value: f64, out: &mut String| {
                out.push_str(label);
                json::push_f64(value, out);
            };
            let _ = write!(out, ",\"report\":{{\"arms\":{}", report.arms);
            f(",\"pass_latency_s\":", report.pass_latency.value(), out);
            f(",\"laser_mw\":", report.laser_power.value(), out);
            f(",\"tuning_mw\":", report.tuning_power.value(), out);
            f(",\"detection_mw\":", report.detection_power.value(), out);
            f(",\"conversion_mw\":", report.conversion_power.value(), out);
            out.push_str("}}");
        }
        SnapshotEntry::Model(ModelCacheEntry::Resolution { key, bits }) => {
            out.push_str("{\"kind\":\"resolution\",\"key\":");
            encode_words_into(&key.to_words(), out);
            let _ = write!(out, ",\"bits\":{bits}}}");
        }
        SnapshotEntry::Model(ModelCacheEntry::Prepared {
            config,
            power,
            area,
            resolution_bits,
        }) => {
            out.push_str("{\"kind\":\"prepared\",\"config\":");
            encode_words_into(&config.to_canonical_words(), out);
            out.push_str(",\"power_mw\":");
            encode_power_into(power, out);
            out.push_str(",\"area_mm2\":");
            encode_area_into(area, out);
            let _ = write!(out, ",\"resolution_bits\":{resolution_bits}}}");
        }
    }
}

/// The canonical encoding of one snapshot entry, as it appears inside a
/// chunk's `entries` array.
#[must_use]
pub fn encode_snapshot_entry(entry: &SnapshotEntry) -> String {
    let mut out = String::with_capacity(256);
    encode_snapshot_entry_into(entry, &mut out);
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
        encode_snapshot_entry_into(entry, &mut buf);
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
        "\"schema\":\"{SNAPSHOT_SCHEMA}\",\"seq\":{}",
        chunk.seq
    );
    out.push_str(",\"entries\":[");
    for (i, entry) in chunk.entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        encode_snapshot_entry_into(entry, out);
    }
    out.push(']');
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
                    encode_workload_into(workload, &mut out);
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

fn encode_histogram(histogram: &HistogramSnapshot) -> Json {
    let mut members = vec![
        ("count", Json::Uint(histogram.count())),
        ("sum", Json::Uint(histogram.sum())),
    ];
    if let Some(min) = histogram.min() {
        members.push(("min", Json::Uint(min)));
    }
    members.push(("max", Json::Uint(histogram.max().unwrap_or(0))));
    members.push((
        "buckets",
        Json::Array(
            histogram
                .le_buckets()
                .map(|(le, n)| Json::Array(vec![Json::Uint(le), Json::Uint(n)]))
                .collect(),
        ),
    ));
    obj(members)
}

fn encode_metrics_snapshot(snapshot: &RegistrySnapshot) -> Json {
    let families = snapshot
        .families
        .iter()
        .map(|family| {
            let series = family
                .series
                .iter()
                .map(|series| {
                    let labels = Json::Object(
                        series
                            .labels
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                            .collect(),
                    );
                    let value = match &series.value {
                        SeriesValue::Counter(v) => Json::Uint(*v),
                        SeriesValue::Gauge(v) => match u64::try_from(*v) {
                            Ok(unsigned) => Json::Uint(unsigned),
                            Err(_) => Json::Int(*v),
                        },
                        SeriesValue::Histogram(h) => encode_histogram(h),
                    };
                    obj(vec![("labels", labels), ("value", value)])
                })
                .collect();
            obj(vec![
                ("name", Json::Str(family.name.clone())),
                ("help", Json::Str(family.help.clone())),
                ("kind", Json::Str(family.kind.as_str().to_string())),
                ("series", Json::Array(series)),
            ])
        })
        .collect();
    obj(vec![
        ("type", Json::Str("metrics".to_string())),
        (
            "format",
            Json::Str(MetricsFormat::Json.as_str().to_string()),
        ),
        ("schema", Json::Str(METRICS_SCHEMA.to_string())),
        ("families", Json::Array(families)),
    ])
}

fn encode_server_stats(stats: &WireServerStats) -> Json {
    obj(vec![
        (
            "connections_accepted",
            Json::Uint(stats.connections_accepted),
        ),
        ("connections_active", Json::Uint(stats.connections_active)),
        ("requests_total", Json::Uint(stats.requests_total)),
        ("evals_ok", Json::Uint(stats.evals_ok)),
        ("evals_failed", Json::Uint(stats.evals_failed)),
        ("shed_total", Json::Uint(stats.shed_total)),
        ("malformed_total", Json::Uint(stats.malformed_total)),
        ("oversized_total", Json::Uint(stats.oversized_total)),
        ("queue_capacity", Json::Uint(stats.queue_capacity)),
        ("in_flight", Json::Uint(stats.in_flight)),
    ])
}

fn encode_runtime_stats(stats: &RuntimeStats) -> Json {
    let counts = |values: &[u64]| Json::Array(values.iter().map(|&v| Json::Uint(v)).collect());
    obj(vec![
        ("submitted", Json::Uint(stats.submitted)),
        ("completed", Json::Uint(stats.completed)),
        ("cache_hits", Json::Uint(stats.cache_hits)),
        ("cache_misses", Json::Uint(stats.cache_misses)),
        ("cached_entries", Json::Uint(stats.cached_entries as u64)),
        (
            "prepared_configs",
            Json::Uint(stats.prepared_configs as u64),
        ),
        ("per_worker", counts(&stats.per_worker)),
        ("queue_depths", counts(&stats.queue_depths)),
    ])
}

/// Encodes a response as one JSON line (no trailing newline).
#[must_use]
pub fn encode_response(response: &Response) -> String {
    let mut out = String::with_capacity(640);
    let _ = write!(out, "{{\"v\":{PROTOCOL_VERSION}");
    if let Some(id) = response.id {
        let _ = write!(out, ",\"id\":{id}");
    }
    match &response.body {
        ResponseBody::Eval(frame) => {
            let _ = write!(
                out,
                ",\"ok\":{{\"type\":\"eval\",\"cache_hit\":{},\"worker\":{},\"report\":",
                frame.cache_hit, frame.worker
            );
            encode_report_into(&frame.report, &mut out);
            out.push('}');
        }
        ResponseBody::Stats(frame) => {
            out.push_str(",\"ok\":");
            let body = obj(vec![
                ("type", Json::Str("stats".to_string())),
                ("server", encode_server_stats(&frame.server)),
                ("runtime", encode_runtime_stats(&frame.runtime)),
            ]);
            out.push_str(&body.encode());
        }
        ResponseBody::Metrics(frame) => {
            out.push_str(",\"ok\":");
            let body = match frame {
                MetricsFrame::Snapshot(snapshot) => encode_metrics_snapshot(snapshot),
                MetricsFrame::Text(page) => obj(vec![
                    ("type", Json::Str("metrics".to_string())),
                    (
                        "format",
                        Json::Str(MetricsFormat::Text.as_str().to_string()),
                    ),
                    ("page", Json::Str(page.clone())),
                ]),
                MetricsFrame::Spans(lines) => obj(vec![
                    ("type", Json::Str("metrics".to_string())),
                    (
                        "format",
                        Json::Str(MetricsFormat::Spans.as_str().to_string()),
                    ),
                    (
                        "spans",
                        Json::Array(lines.iter().map(|l| Json::Str(l.clone())).collect()),
                    ),
                ]),
            };
            out.push_str(&body.encode());
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
            let _ = write!(
                out,
                ",\"ok\":{{\"type\":\"restored\",\"entries\":{},\"results\":{},\"model\":{}}}",
                frame.entries, frame.results, frame.model
            );
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

fn field<'a>(value: &'a Json, key: &str) -> Result<&'a Json, ErrorFrame> {
    value
        .get(key)
        .ok_or_else(|| ErrorFrame::malformed(format!("missing field `{key}`")))
}

fn u64_field(value: &Json, key: &str) -> Result<u64, ErrorFrame> {
    field(value, key)?.as_u64().ok_or_else(|| {
        ErrorFrame::malformed(format!("field `{key}` must be a non-negative integer"))
    })
}

fn f64_field(value: &Json, key: &str) -> Result<f64, ErrorFrame> {
    field(value, key)?
        .as_f64()
        .ok_or_else(|| ErrorFrame::malformed(format!("field `{key}` must be a number")))
}

fn str_field<'a>(value: &'a Json, key: &str) -> Result<&'a str, ErrorFrame> {
    field(value, key)?
        .as_str()
        .ok_or_else(|| ErrorFrame::malformed(format!("field `{key}` must be a string")))
}

fn usize_from(value: u64, key: &str) -> Result<usize, ErrorFrame> {
    usize::try_from(value).map_err(|_| ErrorFrame::malformed(format!("field `{key}` out of range")))
}

/// Checks the envelope version and extracts the id, shared by request and
/// response decoding.
fn check_version(value: &Json) -> Result<(), ErrorFrame> {
    let version = u64_field(value, "v")?;
    if version != PROTOCOL_VERSION {
        return Err(ErrorFrame::new(
            ErrorKind::UnsupportedVersion,
            format!(
                "protocol version {version} not supported (this server speaks {PROTOCOL_VERSION})"
            ),
        ));
    }
    Ok(())
}

fn decode_layers(value: &Json, key: &str) -> Result<Vec<DotProductWorkload>, ErrorFrame> {
    let items = field(value, key)?
        .as_array()
        .ok_or_else(|| ErrorFrame::malformed(format!("field `{key}` must be an array")))?;
    items
        .iter()
        .map(|item| {
            let pair = item.as_array().filter(|a| a.len() == 2).ok_or_else(|| {
                ErrorFrame::malformed(format!("entries of `{key}` must be [length, count] pairs"))
            })?;
            let dot_length = pair[0]
                .as_u64()
                .ok_or_else(|| ErrorFrame::malformed("dot_length must be an integer"))?;
            let dot_count = pair[1]
                .as_u64()
                .ok_or_else(|| ErrorFrame::malformed("dot_count must be an integer"))?;
            Ok(DotProductWorkload {
                dot_length: usize_from(dot_length, "dot_length")?,
                dot_count: usize_from(dot_count, "dot_count")?,
            })
        })
        .collect()
}

fn decode_workload(value: &Json) -> Result<NetworkWorkload, ErrorFrame> {
    Ok(NetworkWorkload {
        name: str_field(value, "name")?.to_string(),
        towers: usize_from(u64_field(value, "towers")?, "towers")?,
        conv_layers: decode_layers(value, "conv_layers")?,
        fc_layers: decode_layers(value, "fc_layers")?,
    })
}

fn decode_crosslight_arch(config: &Json) -> Result<ArchRequest, ErrorFrame> {
    let label = str_field(config, "variant")?;
    let variant = CrossLightVariant::from_label(label)
        .ok_or_else(|| ErrorFrame::unsupported(format!("unknown variant `{label}`")))?;
    let dims_json = field(config, "dims")?
        .as_array()
        .filter(|a| a.len() == 4)
        .ok_or_else(|| ErrorFrame::malformed("field `dims` must be a 4-element array"))?;
    let mut dims = [0usize; 4];
    for (slot, item) in dims.iter_mut().zip(dims_json) {
        *slot = usize_from(
            item.as_u64()
                .ok_or_else(|| ErrorFrame::malformed("`dims` entries must be integers"))?,
            "dims",
        )?;
    }
    let resolution_bits = u32::try_from(u64_field(config, "resolution_bits")?)
        .map_err(|_| ErrorFrame::malformed("field `resolution_bits` out of range"))?;
    Ok(ArchRequest::CrossLight {
        variant,
        dims: (dims[0], dims[1], dims[2], dims[3]),
        resolution_bits,
    })
}

/// Decodes an optional `(a, b)` integer-pair field, falling back to the
/// backend's published default when absent.
fn decode_dims_pair(config: &Json, default: (usize, usize)) -> Result<(usize, usize), ErrorFrame> {
    let Some(json) = config.get("dims") else {
        return Ok(default);
    };
    let pair = json
        .as_array()
        .filter(|a| a.len() == 2)
        .ok_or_else(|| ErrorFrame::malformed("field `dims` must be a 2-element array"))?;
    let mut dims = [0usize; 2];
    for (slot, item) in dims.iter_mut().zip(pair) {
        *slot = usize_from(
            item.as_u64()
                .ok_or_else(|| ErrorFrame::malformed("`dims` entries must be integers"))?,
            "dims",
        )?;
    }
    Ok((dims[0], dims[1]))
}

/// Decodes an optional `resolution_bits` field with a backend default.
fn decode_resolution_bits(config: &Json, default: u32) -> Result<u32, ErrorFrame> {
    if config.get("resolution_bits").is_none() {
        return Ok(default);
    }
    u32::try_from(u64_field(config, "resolution_bits")?)
        .map_err(|_| ErrorFrame::malformed("field `resolution_bits` out of range"))
}

/// Decodes the `config` object of an eval request.  An absent `"arch"`
/// field means CrossLight — the protocol's original vocabulary — so every
/// pre-zoo frame decodes unchanged.
fn decode_arch_request(config: &Json) -> Result<ArchRequest, ErrorFrame> {
    let arch_name = match config.get("arch") {
        None => return decode_crosslight_arch(config),
        Some(json) => json
            .as_str()
            .ok_or_else(|| ErrorFrame::malformed("field `arch` must be a string"))?,
    };
    match arch_name {
        "crosslight" => decode_crosslight_arch(config),
        "deap-cnn" => Ok(ArchRequest::DeapCnn),
        "holylight" => {
            let units = match config.get("units") {
                None => HOLYLIGHT_UNITS,
                Some(_) => usize_from(u64_field(config, "units")?, "units")?,
            };
            Ok(ArchRequest::HolyLight { units })
        }
        "electronic" => {
            let name = str_field(config, "platform")?;
            let platform = crosslight_baselines::electronic::all_platforms()
                .into_iter()
                .find(|p| p.name == name)
                .ok_or_else(|| ErrorFrame::unsupported(format!("unknown platform `{name}`")))?;
            Ok(ArchRequest::Electronic { platform })
        }
        "symmetric-crossbar" => Ok(ArchRequest::SymmetricCrossbar {
            dims: decode_dims_pair(config, (SYMMETRIC_DEFAULT_ROWS, SYMMETRIC_DEFAULT_COLS))?,
            resolution_bits: decode_resolution_bits(config, SYMMETRIC_DEFAULT_BITS)?,
        }),
        "litecon" => Ok(ArchRequest::LiteCon {
            dims: decode_dims_pair(config, (LITECON_DEFAULT_UNITS, LITECON_DEFAULT_UNIT_SIZE))?,
            resolution_bits: decode_resolution_bits(config, LITECON_DEFAULT_BITS)?,
        }),
        other => Err(ErrorFrame::unsupported(format!(
            "unknown architecture `{other}`"
        ))),
    }
}

fn decode_eval_spec(value: &Json) -> Result<EvalSpec, ErrorFrame> {
    let config = field(value, "config")?;
    let arch = decode_arch_request(config)?;
    let workload = match (value.get("model"), value.get("workload")) {
        (Some(model), None) => {
            let name = model
                .as_str()
                .ok_or_else(|| ErrorFrame::malformed("field `model` must be a string"))?;
            WorkloadRef::Model(
                PaperModel::from_wire_name(name)
                    .ok_or_else(|| ErrorFrame::malformed(format!("unknown model `{name}`")))?,
            )
        }
        (None, Some(inline)) => WorkloadRef::Inline(decode_workload(inline)?),
        _ => {
            return Err(ErrorFrame::malformed(
                "eval requests need exactly one of `model` or `workload`",
            ))
        }
    };
    Ok(EvalSpec { arch, workload })
}

/// Decodes one request line.
///
/// # Errors
///
/// Returns a typed [`ErrorFrame`] (with the parsed id when available via
/// [`peek_id`]) for malformed or unsupported frames.  Never panics.
pub fn decode_request(line: &str) -> Result<Request, ErrorFrame> {
    let value = Json::parse(line)?;
    check_version(&value)?;
    let id = u64_field(&value, "id")?;
    let body = match str_field(&value, "op")? {
        "eval" => RequestBody::Eval(decode_eval_spec(&value)?),
        "stats" => RequestBody::Stats,
        "ping" => RequestBody::Ping,
        "metrics" => RequestBody::Metrics {
            format: match value.get("format") {
                None => MetricsFormat::Json,
                Some(_) => {
                    let name = str_field(&value, "format")?;
                    MetricsFormat::from_wire_name(name).ok_or_else(|| {
                        ErrorFrame::unsupported(format!("unknown metrics format `{name}`"))
                    })?
                }
            },
        },
        "snapshot" => RequestBody::Snapshot {
            max_chunk_bytes: match value.get("max_chunk_bytes") {
                None => None,
                Some(_) => Some(u64_field(&value, "max_chunk_bytes")?),
            },
        },
        "restore" => RequestBody::Restore(decode_snapshot_chunk(&value)?),
        "restore_end" => RequestBody::RestoreEnd(decode_snapshot_end(&value)?),
        other => return Err(ErrorFrame::malformed(format!("unknown op `{other}`"))),
    };
    Ok(Request { id, body })
}

/// Best-effort extraction of the id from a (possibly malformed) request
/// line, so error responses can still be correlated.
#[must_use]
pub fn peek_id(line: &str) -> Option<u64> {
    Json::parse(line).ok()?.get("id")?.as_u64()
}

/// The request line with the value of its first top-level `id` member —
/// the one [`decode_request`] reads — replaced by `id`; every other byte
/// is unchanged.  This is how a router multiplexes many clients' requests
/// over one backend connection without re-encoding them.  Keys match as
/// [`Json::get`] matches them: decoded text, first occurrence.  `None`
/// when the line does not open with an object whose members up to that
/// one parse.
#[must_use]
pub fn splice_request_id(line: &str, id: u64) -> Option<String> {
    json::first_member_span(line, "id").map(|span| splice_id(line, span, id))
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
    const HEAD: &str = "{\"v\":1,\"id\":";
    let rest = line.strip_prefix(HEAD)?;
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
        id_span: HEAD.len()..HEAD.len() + digits,
    })
}

fn splice_id(line: &str, span: Range<usize>, id: u64) -> String {
    let mut out = String::with_capacity(line.len() + 20);
    out.push_str(&line[..span.start]);
    let _ = write!(out, "{id}");
    out.push_str(&line[span.end..]);
    out
}

fn decode_power(power: &Json) -> Result<crosslight_core::power::AcceleratorPower, ErrorFrame> {
    Ok(crosslight_core::power::AcceleratorPower {
        laser: MilliWatts::new(f64_field(power, "laser")?),
        tuning: MilliWatts::new(f64_field(power, "tuning")?),
        detection: MilliWatts::new(f64_field(power, "detection")?),
        conversion: MilliWatts::new(f64_field(power, "conversion")?),
        control: MilliWatts::new(f64_field(power, "control")?),
    })
}

fn decode_area(area: &Json) -> Result<crosslight_core::area::AcceleratorArea, ErrorFrame> {
    Ok(crosslight_core::area::AcceleratorArea {
        mr_banks: SquareMillimeters::new(f64_field(area, "mr_banks")?),
        arm_devices: SquareMillimeters::new(f64_field(area, "arm_devices")?),
        unit_electronics: SquareMillimeters::new(f64_field(area, "unit_electronics")?),
    })
}

fn decode_report(value: &Json) -> Result<SimulationReport, ErrorFrame> {
    let metrics = field(value, "metrics")?;
    Ok(SimulationReport {
        power: decode_power(field(value, "power_mw")?)?,
        area: decode_area(field(value, "area_mm2")?)?,
        metrics: InferenceMetrics {
            latency: InferenceLatency {
                conv_time: Seconds::new(f64_field(metrics, "conv_time_s")?),
                fc_time: Seconds::new(f64_field(metrics, "fc_time_s")?),
                electronic_time: Seconds::new(f64_field(metrics, "electronic_time_s")?),
            },
            fps: f64_field(metrics, "fps")?,
            energy_per_inference: Picojoules::new(f64_field(metrics, "energy_per_inference_pj")?),
            energy_per_bit_pj: f64_field(metrics, "energy_per_bit_pj")?,
            kfps_per_watt: f64_field(metrics, "kfps_per_watt")?,
            power: Watts::new(f64_field(metrics, "power_w")?),
        },
        resolution_bits: u32::try_from(u64_field(value, "resolution_bits")?)
            .map_err(|_| ErrorFrame::malformed("field `resolution_bits` out of range"))?,
    })
}

/// Decodes a fixed-length canonical-word array.
fn decode_words<const N: usize>(value: &Json, key: &str) -> Result<[u64; N], ErrorFrame> {
    let items = field(value, key)?
        .as_array()
        .filter(|a| a.len() == N)
        .ok_or_else(|| {
            ErrorFrame::malformed(format!("field `{key}` must be a {N}-element integer array"))
        })?;
    let mut words = [0u64; N];
    for (slot, item) in words.iter_mut().zip(items) {
        *slot = item
            .as_u64()
            .ok_or_else(|| ErrorFrame::malformed(format!("`{key}` entries must be integers")))?;
    }
    Ok(words)
}

/// Maps a core canonical-codec rejection into a typed malformed frame.
fn snapshot_entry_error(err: &dyn std::fmt::Display) -> ErrorFrame {
    ErrorFrame::malformed(format!("invalid snapshot entry: {err}"))
}

fn decode_arch_key(value: &Json) -> Result<ArchKey, ErrorFrame> {
    match str_field(value, "kind")? {
        "crosslight" => {
            let words: [u64; CONFIG_KEY_WORDS] = decode_words(value, "words")?;
            ConfigKey::from_words(words)
                .map(ArchKey::CrossLight)
                .map_err(|err| snapshot_entry_error(&err))
        }
        "backend" => {
            let tag = u8::try_from(u64_field(value, "tag")?)
                .map_err(|_| ErrorFrame::malformed("field `tag` out of range"))?;
            let params: [u64; 4] = decode_words(value, "params")?;
            Ok(ArchKey::Backend(BackendKey::new(tag, params)))
        }
        other => Err(ErrorFrame::malformed(format!(
            "unknown arch key kind `{other}`"
        ))),
    }
}

fn decode_snapshot_entry(value: &Json) -> Result<SnapshotEntry, ErrorFrame> {
    match str_field(value, "kind")? {
        "result" => Ok(SnapshotEntry::Result {
            arch: decode_arch_key(field(value, "arch")?)?,
            workload: decode_workload(field(value, "workload")?)?,
            report: decode_report(field(value, "report")?)?,
        }),
        "unit" => {
            let words: [u64; VDP_UNIT_KEY_WORDS] = decode_words(value, "key")?;
            let key = VdpUnitKey::from_words(words).map_err(|err| snapshot_entry_error(&err))?;
            let report = field(value, "report")?;
            Ok(SnapshotEntry::Model(ModelCacheEntry::Unit {
                key,
                report: VdpUnitReport {
                    arms: usize_from(u64_field(report, "arms")?, "arms")?,
                    pass_latency: Seconds::new(f64_field(report, "pass_latency_s")?),
                    laser_power: MilliWatts::new(f64_field(report, "laser_mw")?),
                    tuning_power: MilliWatts::new(f64_field(report, "tuning_mw")?),
                    detection_power: MilliWatts::new(f64_field(report, "detection_mw")?),
                    conversion_power: MilliWatts::new(f64_field(report, "conversion_mw")?),
                },
            }))
        }
        "resolution" => {
            let words: [u64; RESOLUTION_KEY_WORDS] = decode_words(value, "key")?;
            let key = ResolutionKey::from_words(words).map_err(|err| snapshot_entry_error(&err))?;
            let bits = u32::try_from(u64_field(value, "bits")?)
                .map_err(|_| ErrorFrame::malformed("field `bits` out of range"))?;
            Ok(SnapshotEntry::Model(ModelCacheEntry::Resolution {
                key,
                bits,
            }))
        }
        "prepared" => {
            let words: [u64; CONFIG_KEY_WORDS] = decode_words(value, "config")?;
            let config = CrossLightConfig::from_canonical_words(words)
                .map_err(|err| snapshot_entry_error(&err))?;
            Ok(SnapshotEntry::Model(ModelCacheEntry::Prepared {
                config,
                power: decode_power(field(value, "power_mw")?)?,
                area: decode_area(field(value, "area_mm2")?)?,
                resolution_bits: u32::try_from(u64_field(value, "resolution_bits")?)
                    .map_err(|_| ErrorFrame::malformed("field `resolution_bits` out of range"))?,
            }))
        }
        other => Err(ErrorFrame::malformed(format!(
            "unknown snapshot entry kind `{other}`"
        ))),
    }
}

/// Checks the snapshot schema tag; a mismatch is a typed `unsupported`
/// error — the frame is well-formed, this build just speaks a different
/// snapshot format.
fn check_snapshot_schema(value: &Json) -> Result<(), ErrorFrame> {
    let schema = str_field(value, "schema")?;
    if schema != SNAPSHOT_SCHEMA {
        return Err(ErrorFrame::unsupported(format!(
            "unknown snapshot schema `{schema}` (this build speaks {SNAPSHOT_SCHEMA})"
        )));
    }
    Ok(())
}

fn decode_snapshot_chunk(value: &Json) -> Result<SnapshotChunk, ErrorFrame> {
    check_snapshot_schema(value)?;
    let entries = field(value, "entries")?
        .as_array()
        .ok_or_else(|| ErrorFrame::malformed("field `entries` must be an array"))?
        .iter()
        .map(decode_snapshot_entry)
        .collect::<Result<Vec<SnapshotEntry>, ErrorFrame>>()?;
    Ok(SnapshotChunk {
        seq: u64_field(value, "seq")?,
        entries,
    })
}

fn decode_snapshot_end(value: &Json) -> Result<SnapshotEnd, ErrorFrame> {
    check_snapshot_schema(value)?;
    let checksum = str_field(value, "checksum")?;
    let checksum = u64::from_str_radix(checksum, 16)
        .map_err(|_| ErrorFrame::malformed("field `checksum` must be a 64-bit hex string"))?;
    Ok(SnapshotEnd {
        chunks: u64_field(value, "chunks")?,
        entries: u64_field(value, "entries")?,
        checksum,
    })
}

fn decode_counts(value: &Json, key: &str) -> Result<Vec<u64>, ErrorFrame> {
    field(value, key)?
        .as_array()
        .ok_or_else(|| ErrorFrame::malformed(format!("field `{key}` must be an array")))?
        .iter()
        .map(|item| {
            item.as_u64()
                .ok_or_else(|| ErrorFrame::malformed(format!("`{key}` entries must be integers")))
        })
        .collect()
}

fn i64_field(value: &Json, key: &str) -> Result<i64, ErrorFrame> {
    let json = field(value, key)?;
    match *json {
        Json::Uint(v) => i64::try_from(v)
            .map_err(|_| ErrorFrame::malformed(format!("field `{key}` out of range"))),
        Json::Int(v) => Ok(v),
        _ => Err(ErrorFrame::malformed(format!(
            "field `{key}` must be an integer"
        ))),
    }
}

fn decode_histogram(value: &Json) -> Result<HistogramSnapshot, ErrorFrame> {
    let buckets = field(value, "buckets")?
        .as_array()
        .ok_or_else(|| ErrorFrame::malformed("field `buckets` must be an array"))?
        .iter()
        .map(|item| {
            let pair = item.as_array().filter(|a| a.len() == 2).ok_or_else(|| {
                ErrorFrame::malformed("histogram buckets must be [upper_bound, count] pairs")
            })?;
            let le = pair[0]
                .as_u64()
                .ok_or_else(|| ErrorFrame::malformed("bucket bounds must be integers"))?;
            let n = pair[1]
                .as_u64()
                .ok_or_else(|| ErrorFrame::malformed("bucket counts must be integers"))?;
            Ok((le, n))
        })
        .collect::<Result<Vec<(u64, u64)>, ErrorFrame>>()?;
    // `count` is required, but the snapshot counts its buckets itself.
    u64_field(value, "count")?;
    let sum = u64_field(value, "sum")?;
    let min = match value.get("min") {
        None => None,
        Some(_) => Some(u64_field(value, "min")?),
    };
    let max = u64_field(value, "max")?;
    Ok(HistogramSnapshot::from_le_buckets(&buckets, sum, min, max))
}

fn decode_metric_series(kind: MetricKind, value: &Json) -> Result<SeriesSnapshot, ErrorFrame> {
    let labels = match field(value, "labels")? {
        Json::Object(members) => members
            .iter()
            .map(|(key, v)| {
                Ok((
                    key.clone(),
                    v.as_str()
                        .ok_or_else(|| ErrorFrame::malformed("label values must be strings"))?
                        .to_string(),
                ))
            })
            .collect::<Result<Vec<(String, String)>, ErrorFrame>>()?,
        _ => return Err(ErrorFrame::malformed("field `labels` must be an object")),
    };
    let value = match kind {
        MetricKind::Counter => SeriesValue::Counter(u64_field(value, "value")?),
        MetricKind::Gauge => SeriesValue::Gauge(i64_field(value, "value")?),
        MetricKind::Histogram => SeriesValue::Histogram(decode_histogram(field(value, "value")?)?),
    };
    Ok(SeriesSnapshot { labels, value })
}

fn decode_metrics_snapshot(value: &Json) -> Result<RegistrySnapshot, ErrorFrame> {
    let schema = str_field(value, "schema")?;
    if schema != METRICS_SCHEMA {
        return Err(ErrorFrame::unsupported(format!(
            "unknown metrics schema `{schema}` (this client speaks {METRICS_SCHEMA})"
        )));
    }
    let families = field(value, "families")?
        .as_array()
        .ok_or_else(|| ErrorFrame::malformed("field `families` must be an array"))?
        .iter()
        .map(|family| {
            let kind_name = str_field(family, "kind")?;
            let kind = MetricKind::from_wire_name(kind_name).ok_or_else(|| {
                ErrorFrame::malformed(format!("unknown metric kind `{kind_name}`"))
            })?;
            let series = field(family, "series")?
                .as_array()
                .ok_or_else(|| ErrorFrame::malformed("field `series` must be an array"))?
                .iter()
                .map(|s| decode_metric_series(kind, s))
                .collect::<Result<Vec<SeriesSnapshot>, ErrorFrame>>()?;
            Ok(FamilySnapshot {
                name: str_field(family, "name")?.to_string(),
                help: str_field(family, "help")?.to_string(),
                kind,
                series,
            })
        })
        .collect::<Result<Vec<FamilySnapshot>, ErrorFrame>>()?;
    Ok(RegistrySnapshot { families })
}

fn decode_metrics_frame(ok: &Json) -> Result<MetricsFrame, ErrorFrame> {
    let format_name = str_field(ok, "format")?;
    let format = MetricsFormat::from_wire_name(format_name)
        .ok_or_else(|| ErrorFrame::malformed(format!("unknown metrics format `{format_name}`")))?;
    Ok(match format {
        MetricsFormat::Json => MetricsFrame::Snapshot(decode_metrics_snapshot(ok)?),
        MetricsFormat::Text => MetricsFrame::Text(str_field(ok, "page")?.to_string()),
        MetricsFormat::Spans => MetricsFrame::Spans(
            field(ok, "spans")?
                .as_array()
                .ok_or_else(|| ErrorFrame::malformed("field `spans` must be an array"))?
                .iter()
                .map(|line| {
                    Ok(line
                        .as_str()
                        .ok_or_else(|| ErrorFrame::malformed("span lines must be strings"))?
                        .to_string())
                })
                .collect::<Result<Vec<String>, ErrorFrame>>()?,
        ),
    })
}

fn decode_server_stats(value: &Json) -> Result<WireServerStats, ErrorFrame> {
    Ok(WireServerStats {
        connections_accepted: u64_field(value, "connections_accepted")?,
        connections_active: u64_field(value, "connections_active")?,
        requests_total: u64_field(value, "requests_total")?,
        evals_ok: u64_field(value, "evals_ok")?,
        evals_failed: u64_field(value, "evals_failed")?,
        shed_total: u64_field(value, "shed_total")?,
        malformed_total: u64_field(value, "malformed_total")?,
        oversized_total: u64_field(value, "oversized_total")?,
        queue_capacity: u64_field(value, "queue_capacity")?,
        in_flight: u64_field(value, "in_flight")?,
    })
}

fn decode_runtime_stats(value: &Json) -> Result<RuntimeStats, ErrorFrame> {
    Ok(RuntimeStats {
        submitted: u64_field(value, "submitted")?,
        completed: u64_field(value, "completed")?,
        cache_hits: u64_field(value, "cache_hits")?,
        cache_misses: u64_field(value, "cache_misses")?,
        cached_entries: usize_from(u64_field(value, "cached_entries")?, "cached_entries")?,
        prepared_configs: usize_from(u64_field(value, "prepared_configs")?, "prepared_configs")?,
        per_worker: decode_counts(value, "per_worker")?,
        queue_depths: decode_counts(value, "queue_depths")?,
    })
}

/// Decodes one response line.
///
/// # Errors
///
/// Returns a typed [`ErrorFrame`] for malformed or unsupported frames.
/// Never panics.
pub fn decode_response(line: &str) -> Result<Response, ErrorFrame> {
    let value = Json::parse(line)?;
    check_version(&value)?;
    let id =
        match value.get("id") {
            None => None,
            Some(json) => Some(json.as_u64().ok_or_else(|| {
                ErrorFrame::malformed("field `id` must be a non-negative integer")
            })?),
        };
    let body = match (value.get("ok"), value.get("err")) {
        (Some(ok), None) => match str_field(ok, "type")? {
            "eval" => ResponseBody::Eval(EvalFrame {
                report: decode_report(field(ok, "report")?)?,
                cache_hit: field(ok, "cache_hit")?
                    .as_bool()
                    .ok_or_else(|| ErrorFrame::malformed("field `cache_hit` must be a bool"))?,
                worker: u64_field(ok, "worker")?,
            }),
            "stats" => ResponseBody::Stats(StatsFrame {
                server: decode_server_stats(field(ok, "server")?)?,
                runtime: decode_runtime_stats(field(ok, "runtime")?)?,
            }),
            "metrics" => ResponseBody::Metrics(decode_metrics_frame(ok)?),
            "pong" => ResponseBody::Pong,
            "snapshot" => ResponseBody::Snapshot(decode_snapshot_chunk(ok)?),
            "snapshot_end" => ResponseBody::SnapshotEnd(decode_snapshot_end(ok)?),
            "restored" => ResponseBody::Restored(RestoredFrame {
                entries: u64_field(ok, "entries")?,
                results: u64_field(ok, "results")?,
                model: u64_field(ok, "model")?,
            }),
            other => return Err(ErrorFrame::malformed(format!("unknown ok type `{other}`"))),
        },
        (None, Some(err)) => {
            let kind_name = str_field(err, "kind")?;
            let kind = ErrorKind::from_wire_name(kind_name).ok_or_else(|| {
                ErrorFrame::malformed(format!("unknown error kind `{kind_name}`"))
            })?;
            // `retryable` is derived from the kind, never stored: the field
            // is validated when present (it must be a bool) and otherwise
            // ignored, so frames with and without it decode identically.
            if let Some(flag) = err.get("retryable") {
                if flag.as_bool().is_none() {
                    return Err(ErrorFrame::malformed("field `retryable` must be a bool"));
                }
            }
            ResponseBody::Error(ErrorFrame::new(kind, str_field(err, "detail")?))
        }
        _ => {
            return Err(ErrorFrame::malformed(
                "responses need exactly one of `ok` or `err`",
            ))
        }
    };
    Ok(Response { id, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crosslight_core::simulator::CrossLightSimulator;

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
        for line in [r#"{"v":1,"op":"ping"}"#, "[7]", "not json", ""] {
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
}
