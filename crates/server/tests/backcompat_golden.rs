//! Wire back-compat goldens.
//!
//! Version-1 request lines written **without** any architecture selector
//! (the only form the protocol knew before the architecture-generic
//! evaluation API) must keep producing byte-identical response lines
//! forever.  The fixture under `tests/golden/wire_v1_backcompat.txt` was
//! generated against the pre-zoo wire/runtime code; every later protocol
//! extension is required to leave these exact bytes unchanged, so any
//! drift — a reordered key, a float formatting change, a default that
//! stopped meaning "crosslight" — fails here.
//!
//! The telemetry frames (`metrics` in all three formats and `stats`) are
//! locked the same way by `tests/golden/telemetry_frames.txt`, built from a
//! hand-made registry so every byte is deterministic.  The remaining
//! frames — every other request op, an eval request per zoo architecture,
//! the snapshot and restore streams and an error of every kind — are
//! locked by `tests/golden/cold_frames.txt`, built from fixed values.
//!
//! To regenerate after an *intentional* protocol change (which is a breaking
//! change and should be treated as such):
//!
//! ```sh
//! CROSSLIGHT_GOLDEN_BLESS=1 cargo test -p crosslight-server --test backcompat_golden
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use crosslight_baselines::electronic::EDGE_TPU;
use crosslight_core::cache::ModelCacheEntry;
use crosslight_core::canonical::{ArchKey, BackendKey, ResolutionKey, VdpUnitKey};
use crosslight_core::config::CrossLightConfig;
use crosslight_core::performance::{InferenceLatency, InferenceMetrics};
use crosslight_core::simulator::SimulationReport;
use crosslight_core::vdp::VdpUnitReport;
use crosslight_neural::layers::DotProductWorkload;
use crosslight_neural::workload::NetworkWorkload;
use crosslight_neural::zoo::PaperModel;
use crosslight_photonics::units::{MilliWatts, Picojoules, Seconds, SquareMillimeters, Watts};
use crosslight_runtime::pool::{EvalService, RuntimeOptions, RuntimeStats};
use crosslight_server::wire::{
    decode_request, decode_response, encode_request, encode_response, peek_id, snapshot_checksum,
    ArchRequest, ErrorFrame, ErrorKind, EvalFrame, EvalSpec, MetricsFormat, MetricsFrame, Request,
    RequestBody, Response, ResponseBody, RestoredFrame, SnapshotChunk, SnapshotEnd, SnapshotEntry,
    StatsFrame, WireServerStats, WorkloadRef,
};
use crosslight_telemetry::{render_text, Registry};

/// The frozen v1 request corpus: every line predates the `"arch"` field and
/// must decode — and evaluate — exactly as it did before the field existed.
const V1_LINES: &[&str] = &[
    // Paper-best OptTed on each referenced Table I model.
    r#"{"v":1,"id":0,"op":"eval","config":{"variant":"Cross_opt_TED","dims":[20,150,100,60],"resolution_bits":16},"model":"lenet5_sign_mnist"}"#,
    r#"{"v":1,"id":1,"op":"eval","config":{"variant":"Cross_opt_TED","dims":[20,150,100,60],"resolution_bits":16},"model":"cnn_cifar10"}"#,
    // Every variant label round-trips.
    r#"{"v":1,"id":2,"op":"eval","config":{"variant":"Cross_base","dims":[20,150,100,60],"resolution_bits":16},"model":"cnn_stl10"}"#,
    r#"{"v":1,"id":3,"op":"eval","config":{"variant":"Cross_opt","dims":[20,150,100,60],"resolution_bits":16},"model":"siamese_omniglot"}"#,
    r#"{"v":1,"id":4,"op":"eval","config":{"variant":"Cross_base_TED","dims":[20,150,100,60],"resolution_bits":16},"model":"lenet5_sign_mnist"}"#,
    // Non-default dims and resolution.
    r#"{"v":1,"id":5,"op":"eval","config":{"variant":"Cross_base","dims":[10,100,50,30],"resolution_bits":8},"model":"cnn_cifar10"}"#,
    // Inline workload with a name that needs escaping.
    r#"{"v":1,"id":6,"op":"eval","config":{"variant":"Cross_opt_TED","dims":[20,150,100,60],"resolution_bits":16},"workload":{"name":"tiny \"net\"","towers":2,"conv_layers":[[9,1024],[25,256]],"fc_layers":[[128,10]]}}"#,
    // Exact duplicate of id 0: must be answered from the cache.
    r#"{"v":1,"id":7,"op":"eval","config":{"variant":"Cross_opt_TED","dims":[20,150,100,60],"resolution_bits":16},"model":"lenet5_sign_mnist"}"#,
    // Architecturally invalid dims (K < N): typed evaluation error.
    r#"{"v":1,"id":8,"op":"eval","config":{"variant":"Cross_opt_TED","dims":[150,20,100,60],"resolution_bits":16},"model":"cnn_cifar10"}"#,
    // Structurally broken frames: typed malformed errors.
    r#"{"v":1,"id":9,"op":"eval","config":{"variant":"Cross_opt_TED","dims":[1,2,3],"resolution_bits":16},"model":"cnn_cifar10"}"#,
    r#"{"v":1,"id":10,"op":"eval"}"#,
    // Liveness probe.
    r#"{"v":1,"id":11,"op":"ping"}"#,
];

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `rendered` with the fixture `name`, or rewrites the fixture
/// when `CROSSLIGHT_GOLDEN_BLESS` is set.
fn check_fixture(name: &str, rendered: &str, drift: &str) {
    let path = fixture_path(name);
    if std::env::var_os("CROSSLIGHT_GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|err| {
        panic!(
            "missing golden fixture {path:?} ({err}); run with CROSSLIGHT_GOLDEN_BLESS=1 to \
             create it"
        )
    });
    assert!(
        rendered == expected,
        "{drift}\n--- expected ---\n{expected}\n--- actual ---\n{rendered}"
    );
}

/// Replays the corpus through decode → evaluate → encode exactly the way the
/// server's read loop does, with a single-worker service so worker ids and
/// hit/miss provenance are deterministic.
fn serve_corpus() -> String {
    let workloads: [Arc<NetworkWorkload>; 4] =
        PaperModel::all().map(|m| Arc::new(NetworkWorkload::from_spec(&m.spec()).unwrap()));
    let service = EvalService::new(RuntimeOptions { workers: 1 });
    let mut out = String::from("wire_v1_backcompat/v1\n");
    for line in V1_LINES {
        let response = match decode_request(line) {
            Ok(Request {
                id,
                body: RequestBody::Eval(spec),
            }) => match spec.to_eval_request(id, &workloads) {
                Ok(request) => {
                    let answer = service.submit(request).expect("runtime alive");
                    Response {
                        id: Some(id),
                        body: ResponseBody::Eval(EvalFrame {
                            report: answer.report,
                            cache_hit: answer.cache_hit,
                            worker: answer.worker as u64,
                        }),
                    }
                }
                Err(frame) => Response::error(Some(id), frame),
            },
            Ok(Request {
                id,
                body: RequestBody::Ping,
            }) => Response {
                id: Some(id),
                body: ResponseBody::Pong,
            },
            Ok(Request { id, .. }) => {
                panic!("corpus has no stats/metrics/snapshot ops (non-deterministic), got id {id}")
            }
            Err(frame) => Response::error(peek_id(line), frame),
        };
        out.push_str(line);
        out.push('\n');
        out.push_str("→ ");
        out.push_str(&encode_response(&response));
        out.push('\n');
    }
    service.shutdown();
    out
}

#[test]
fn v1_frames_without_arch_produce_byte_identical_responses() {
    check_fixture(
        "wire_v1_backcompat.txt",
        &serve_corpus(),
        "v1 back-compat drift: a pre-`arch` frame no longer produces the bytes it always has.",
    );
}

/// One frame of every telemetry answer: a `metrics` scrape as a JSON
/// snapshot, as a text page and as a span page, and a `stats` answer with a
/// distinct value in every field.
fn telemetry_frames() -> Vec<Response> {
    let registry = Registry::new();
    let help = "Requests by \"op\", under C:\\serve\nand a second line.";
    registry
        .counter_with("demo_requests_total", help, &[("op", "eval")])
        .add(61);
    registry
        .counter_with("demo_requests_total", help, &[("op", "stats")])
        .add(4);
    registry.gauge("demo_queue_depth", "Queued lines.").set(-3);
    let latency = registry.histogram("demo_latency_ns", "Request latency.");
    for value in [1, 40, 1_000, 70_000] {
        latency.record(value);
    }
    registry.histogram("demo_idle_ns", "Never recorded.");
    let snapshot = registry.snapshot();
    let metrics = |id, frame| Response {
        id: Some(id),
        body: ResponseBody::Metrics(frame),
    };
    vec![
        metrics(1, MetricsFrame::Snapshot(snapshot.clone())),
        metrics(2, MetricsFrame::Text(render_text(&snapshot))),
        metrics(
            3,
            MetricsFrame::Spans(vec![
                r#"{"id":7,"spans":[{"phase":"read","start_ns":0,"dur_ns":1500}]}"#.to_string(),
                r#"{"id":8,"spans":[]}"#.to_string(),
            ]),
        ),
        Response {
            id: Some(4),
            body: ResponseBody::Stats(StatsFrame {
                server: WireServerStats {
                    connections_accepted: 11,
                    connections_active: 3,
                    requests_total: 97,
                    evals_ok: 61,
                    evals_failed: 4,
                    shed_total: 9,
                    malformed_total: 6,
                    oversized_total: 2,
                    queue_capacity: 256,
                    in_flight: 5,
                },
                runtime: RuntimeStats {
                    submitted: 70,
                    completed: 65,
                    cache_hits: 23,
                    cache_misses: 42,
                    cached_entries: 31,
                    prepared_configs: 8,
                    per_worker: vec![38, 27],
                    queue_depths: vec![1, 0],
                },
            }),
        },
    ]
}

#[test]
fn telemetry_frames_produce_byte_identical_lines() {
    let mut rendered = String::from("telemetry_frames/v1\n");
    for frame in telemetry_frames() {
        let line = encode_response(&frame);
        assert_eq!(decode_response(&line).unwrap(), frame, "{line}");
        rendered.push_str(&line);
        rendered.push('\n');
    }
    check_fixture(
        "telemetry_frames.txt",
        &rendered,
        "telemetry frame drift: a metrics or stats answer no longer encodes to the bytes it \
         always has.",
    );
}

/// An inline workload whose name needs every kind of escaping.
fn escaped_workload() -> NetworkWorkload {
    let layer = |dot_length, dot_count| DotProductWorkload {
        dot_length,
        dot_count,
    };
    NetworkWorkload {
        name: "cold \"net\"\n\t\\ ✓".to_string(),
        towers: 2,
        conv_layers: vec![layer(9, 1024), layer(25, 256)],
        fc_layers: vec![layer(128, 10)],
    }
}

/// One snapshot entry of every kind, from fixed canonical words and
/// floats (an infinity, a negative zero and a subnormal among them).
fn cold_entries() -> Vec<SnapshotEntry> {
    let spacing = 5.0f64.to_bits();
    let geometry = [0.45f64, 0.4, 5.0, 0.2, 0.22].map(f64::to_bits);
    let [g0, g1, g2, g3, g4] = geometry;
    let config = CrossLightConfig::from_canonical_words([
        20, 150, 100, 60, 15, 16, g0, g1, g2, g3, g4, 1, 0, 1, spacing,
    ])
    .unwrap();
    let report = SimulationReport {
        power: crosslight_core::power::AcceleratorPower {
            laser: MilliWatts::new(19510.5),
            tuning: MilliWatts::new(12103.25),
            detection: MilliWatts::new(10128.0),
            conversion: MilliWatts::new(373.5),
            control: MilliWatts::new(3600.0),
        },
        area: crosslight_core::area::AcceleratorArea {
            mr_banks: SquareMillimeters::new(1.2),
            arm_devices: SquareMillimeters::new(6.4),
            unit_electronics: SquareMillimeters::new(14.399999999999999),
        },
        metrics: InferenceMetrics {
            latency: InferenceLatency {
                conv_time: Seconds::new(1.5e-6),
                fc_time: Seconds::new(2.5e-7),
                electronic_time: Seconds::new(0.0),
            },
            fps: 3.0e5,
            energy_per_inference: Picojoules::new(-0.0),
            energy_per_bit_pj: 5e-324,
            kfps_per_watt: f64::INFINITY,
            power: Watts::new(f64::NEG_INFINITY),
        },
        resolution_bits: 16,
    };
    vec![
        SnapshotEntry::Result {
            arch: ArchKey::CrossLight(config.canonical_key()),
            workload: escaped_workload(),
            report,
        },
        SnapshotEntry::Result {
            arch: ArchKey::Backend(BackendKey::new(3, [9, 0, u64::MAX, 17])),
            workload: escaped_workload(),
            report,
        },
        SnapshotEntry::Model(ModelCacheEntry::Unit {
            key: VdpUnitKey::from_words([150, 15, g0, g1, g2, g3, g4, 1, 0, 1, spacing]).unwrap(),
            report: VdpUnitReport {
                arms: 150,
                pass_latency: Seconds::new(1.25e-10),
                laser_power: MilliWatts::new(2.5),
                tuning_power: MilliWatts::new(0.125),
                detection_power: MilliWatts::new(3.0),
                conversion_power: MilliWatts::new(1e300),
            },
        }),
        SnapshotEntry::Model(ModelCacheEntry::Resolution {
            key: ResolutionKey::from(&config),
            bits: 12,
        }),
        SnapshotEntry::Model(ModelCacheEntry::Prepared {
            config,
            power: report.power,
            area: report.area,
            resolution_bits: 16,
        }),
    ]
}

/// One request of every op but the CrossLight eval on a Table I model
/// (which `wire_v1_backcompat.txt` locks), one eval request per zoo
/// architecture and one zoo eval on an inline workload.
fn cold_requests() -> Vec<Request> {
    let entries = cold_entries();
    let eval = |arch, workload| RequestBody::Eval(EvalSpec::for_arch(arch, workload));
    let model = WorkloadRef::Model;
    let bodies = vec![
        RequestBody::Stats,
        RequestBody::Ping,
        RequestBody::Metrics {
            format: MetricsFormat::Json,
        },
        RequestBody::Metrics {
            format: MetricsFormat::Text,
        },
        RequestBody::Metrics {
            format: MetricsFormat::Spans,
        },
        RequestBody::Snapshot {
            max_chunk_bytes: None,
        },
        RequestBody::Snapshot {
            max_chunk_bytes: Some(4096),
        },
        RequestBody::Restore(SnapshotChunk {
            seq: 0,
            entries: entries.clone(),
        }),
        RequestBody::RestoreEnd(SnapshotEnd {
            chunks: 1,
            entries: entries.len() as u64,
            checksum: snapshot_checksum(&entries),
        }),
        eval(ArchRequest::DeapCnn, model(PaperModel::Lenet5SignMnist)),
        eval(
            ArchRequest::HolyLight { units: 250 },
            model(PaperModel::CnnCifar10),
        ),
        eval(
            ArchRequest::Electronic { platform: EDGE_TPU },
            model(PaperModel::CnnStl10),
        ),
        eval(
            ArchRequest::SymmetricCrossbar {
                dims: (64, 32),
                resolution_bits: 8,
            },
            model(PaperModel::SiameseOmniglot),
        ),
        eval(
            ArchRequest::LiteCon {
                dims: (16, 128),
                resolution_bits: 6,
            },
            model(PaperModel::Lenet5SignMnist),
        ),
        eval(
            ArchRequest::LiteCon {
                dims: (16, 128),
                resolution_bits: 6,
            },
            WorkloadRef::Inline(escaped_workload()),
        ),
    ];
    let ids = [u64::MAX, 0].into_iter().chain(2..);
    ids.zip(bodies)
        .map(|(id, body)| Request { id, body })
        .collect()
}

/// The snapshot stream's answers (a chunk holding every entry kind and its
/// terminal frame), a `restored` answer and an error of every kind, one of
/// them without an id.
fn cold_answers() -> Vec<Response> {
    let entries = cold_entries();
    let count = entries.len() as u64;
    let mut answers = vec![
        Response {
            id: Some(20),
            body: ResponseBody::Snapshot(SnapshotChunk { seq: 3, entries }),
        },
        Response {
            id: Some(21),
            body: ResponseBody::SnapshotEnd(SnapshotEnd {
                chunks: 4,
                entries: count,
                checksum: 0x0000_ffff_0000_beef,
            }),
        },
        Response {
            id: Some(22),
            body: ResponseBody::Restored(RestoredFrame {
                entries: 5,
                results: 2,
                model: 3,
            }),
        },
    ];
    let kinds = [
        ErrorKind::Malformed,
        ErrorKind::UnsupportedVersion,
        ErrorKind::Oversized,
        ErrorKind::Overloaded,
        ErrorKind::Evaluation,
        ErrorKind::ShuttingDown,
        ErrorKind::Unsupported,
        ErrorKind::Unavailable,
    ];
    for (id, kind) in (23..).zip(kinds) {
        let detail = format!("{} \"detail\"\n\\ ✓", kind.as_str());
        let id = (kind != ErrorKind::Malformed).then_some(id);
        answers.push(Response::error(id, ErrorFrame::new(kind, detail)));
    }
    answers
}

#[test]
fn cold_frames_produce_byte_identical_lines() {
    let mut rendered = String::from("cold_frames/v1\n");
    for request in cold_requests() {
        let line = encode_request(&request);
        let decoded = decode_request(&line).unwrap();
        assert_eq!(decoded, request, "{line}");
        assert_eq!(encode_request(&decoded), line);
        rendered.push_str(&line);
        rendered.push('\n');
    }
    for answer in cold_answers() {
        let line = encode_response(&answer);
        let decoded = decode_response(&line).unwrap();
        assert_eq!(decoded, answer, "{line}");
        assert_eq!(encode_response(&decoded), line);
        rendered.push_str(&line);
        rendered.push('\n');
    }
    check_fixture(
        "cold_frames.txt",
        &rendered,
        "cold frame drift: a request op, a zoo eval request, a snapshot or restore frame or an \
         error no longer encodes to the bytes it always has.",
    );
}
