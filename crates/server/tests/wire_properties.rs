//! Property tests of the wire protocol: every frame round-trips exactly,
//! and the decoder is total — malformed, truncated and adversarial input
//! produces typed errors, never panics.

use proptest::prelude::*;

use crosslight_core::performance::{InferenceLatency, InferenceMetrics};
use crosslight_core::simulator::SimulationReport;
use crosslight_core::variants::CrossLightVariant;
use crosslight_neural::layers::DotProductWorkload;
use crosslight_neural::workload::NetworkWorkload;
use crosslight_neural::zoo::PaperModel;
use crosslight_photonics::units::{MilliWatts, Picojoules, Seconds, SquareMillimeters, Watts};
use crosslight_runtime::pool::RuntimeStats;
use crosslight_server::json::Json;
use crosslight_server::wire::{
    decode_request, decode_response, encode_request, encode_response, peek_answer,
    splice_request_id, ErrorFrame, ErrorKind, EvalFrame, EvalSpec, MetricsFormat, MetricsFrame,
    Request, RequestBody, Response, ResponseBody, RestoredFrame, StatsFrame, WireServerStats,
    WorkloadRef,
};
use crosslight_telemetry::{
    FamilySnapshot, Histogram, HistogramSnapshot, MetricKind, RegistrySnapshot, SeriesSnapshot,
    SeriesValue,
};

/// Where the id's digits start in every encoded request and answer.
const ID_AT: usize = "{\"v\":1,\"id\":".len();

/// Asserts `spliced` is `line` with the id digits `old` replaced by `new`.
fn only_the_id_differs(line: &str, spliced: &str, old: u64, new: u64) {
    let (old, new) = (old.to_string(), new.to_string());
    assert_eq!(&spliced[..ID_AT], &line[..ID_AT]);
    assert_eq!(&spliced[ID_AT..ID_AT + new.len()], new.as_str());
    assert_eq!(&spliced[ID_AT + new.len()..], &line[ID_AT + old.len()..]);
}

fn variant_from(index: usize) -> CrossLightVariant {
    CrossLightVariant::all()[index % 4]
}

fn model_from(index: usize) -> PaperModel {
    PaperModel::all()[index % 4]
}

fn spec_from(
    variant: usize,
    dims: (usize, usize, usize, usize),
    bits: u32,
    model: usize,
) -> EvalSpec {
    EvalSpec::crosslight(
        variant_from(variant),
        dims,
        bits,
        WorkloadRef::Model(model_from(model)),
    )
}

fn report_from(values: &[f64; 16], bits: u32) -> SimulationReport {
    SimulationReport {
        power: crosslight_core::power::AcceleratorPower {
            laser: MilliWatts::new(values[0]),
            tuning: MilliWatts::new(values[1]),
            detection: MilliWatts::new(values[2]),
            conversion: MilliWatts::new(values[3]),
            control: MilliWatts::new(values[4]),
        },
        area: crosslight_core::area::AcceleratorArea {
            mr_banks: SquareMillimeters::new(values[5]),
            arm_devices: SquareMillimeters::new(values[6]),
            unit_electronics: SquareMillimeters::new(values[7]),
        },
        metrics: InferenceMetrics {
            latency: InferenceLatency {
                conv_time: Seconds::new(values[8]),
                fc_time: Seconds::new(values[9]),
                electronic_time: Seconds::new(values[10]),
            },
            fps: values[11],
            energy_per_inference: Picojoules::new(values[12]),
            energy_per_bit_pj: values[13],
            kfps_per_watt: values[14],
            power: Watts::new(values[15]),
        },
        resolution_bits: bits,
    }
}

/// The sixteen floats of a report, in `report_from`'s order.
fn report_values(report: &SimulationReport) -> [f64; 16] {
    [
        report.power.laser.value(),
        report.power.tuning.value(),
        report.power.detection.value(),
        report.power.conversion.value(),
        report.power.control.value(),
        report.area.mr_banks.value(),
        report.area.arm_devices.value(),
        report.area.unit_electronics.value(),
        report.metrics.latency.conv_time.value(),
        report.metrics.latency.fc_time.value(),
        report.metrics.latency.electronic_time.value(),
        report.metrics.fps,
        report.metrics.energy_per_inference.value(),
        report.metrics.energy_per_bit_pj,
        report.metrics.kfps_per_watt,
        report.metrics.power.value(),
    ]
}

/// Text fragments for generated names, help and label values: JSON
/// escapes, control characters, and non-ASCII text up to four UTF-8 bytes.
const FRAGMENTS: [&str; 16] = [
    "a", "_total", " ", "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1f}", "\u{7f}", "é", "✓",
    "\u{2028}", "日本", "🦀",
];

fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..FRAGMENTS.len(), 0..8)
        .prop_map(|picks| picks.into_iter().map(|i| FRAGMENTS[i]).collect())
}

/// Counter readings, with 0 and `u64::MAX` drawn often.
fn counter_value() -> impl Strategy<Value = u64> {
    (0usize..5, proptest::num::u64::ANY).prop_map(|(pick, any)| match pick {
        0 => 0,
        1 => u64::MAX,
        2 => any % 1_000,
        _ => any,
    })
}

/// Gauge readings, with `i64::MIN`, -1, 0 and `i64::MAX` drawn often.
fn gauge_value() -> impl Strategy<Value = i64> {
    (0usize..6, proptest::num::u64::ANY).prop_map(|(pick, any)| match pick {
        0 => i64::MIN,
        1 => -1,
        2 => 0,
        3 => i64::MAX,
        _ => any as i64,
    })
}

/// Recorded histograms, empty ones included, over values spread across
/// every octave of the bucket range up to `u64::MAX`.
fn histogram() -> impl Strategy<Value = HistogramSnapshot> {
    proptest::collection::vec((0u32..=64, proptest::num::u64::ANY), 0..12).prop_map(|values| {
        let histogram = Histogram::new();
        for (shift, any) in values {
            histogram.record(if shift == 64 { u64::MAX } else { any >> shift });
        }
        histogram.snapshot()
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
    (0usize..3, 0usize..SPECIAL.len(), proptest::num::u64::ANY).prop_map(|(pick, special, bits)| {
        match pick {
            0 => SPECIAL[special],
            1 => f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF),
            _ => f64::from_bits(bits),
        }
    })
}

fn family() -> impl Strategy<Value = FamilySnapshot> {
    const KINDS: [MetricKind; 3] = [
        MetricKind::Counter,
        MetricKind::Gauge,
        MetricKind::Histogram,
    ];
    (text(), text(), 0usize..3).prop_flat_map(|(name, help, kind)| {
        let series = (
            proptest::collection::vec(text(), 0..3),
            counter_value(),
            gauge_value(),
            histogram(),
        )
            .prop_map(move |(values, counter, gauge, histogram)| SeriesSnapshot {
                labels: values
                    .into_iter()
                    .enumerate()
                    .map(|(i, value)| (format!("k{i}"), value))
                    .collect(),
                value: match KINDS[kind] {
                    MetricKind::Counter => SeriesValue::Counter(counter),
                    MetricKind::Gauge => SeriesValue::Gauge(gauge),
                    MetricKind::Histogram => SeriesValue::Histogram(histogram),
                },
            });
        proptest::collection::vec(series, 0..4).prop_map(move |series| FamilySnapshot {
            name: name.clone(),
            help: help.clone(),
            kind: KINDS[kind],
            series,
        })
    })
}

proptest! {
    /// Metrics snapshots round-trip exactly, and a decoded frame re-encodes
    /// to the same line.
    #[test]
    fn metrics_snapshot_frames_round_trip(
        id in proptest::num::u64::ANY,
        families in proptest::collection::vec(family(), 0..5),
    ) {
        let response = Response {
            id: Some(id),
            body: ResponseBody::Metrics(MetricsFrame::Snapshot(RegistrySnapshot { families })),
        };
        let line = encode_response(&response);
        let decoded = decode_response(&line).unwrap();
        prop_assert_eq!(&decoded, &response, "{}", line);
        prop_assert_eq!(encode_response(&decoded), line);
    }

    /// Model-referencing eval requests round-trip for every id, variant,
    /// dimension tuple and resolution.
    #[test]
    fn eval_requests_round_trip(
        id in 0u64..u64::MAX,
        variant in 0usize..4,
        dims in (1usize..500, 1usize..500, 1usize..200, 1usize..200),
        bits in 1u32..32,
        model in 0usize..4,
    ) {
        let request = Request {
            id,
            body: RequestBody::Eval(spec_from(variant, dims, bits, model)),
        };
        let line = encode_request(&request);
        prop_assert_eq!(decode_request(&line).unwrap(), request);
    }

    /// Inline-workload requests round-trip, including arbitrary layer lists
    /// and names with characters that need escaping.
    #[test]
    fn inline_workload_requests_round_trip(
        id in 0u64..1_000_000,
        towers in 1usize..4,
        conv in proptest::collection::vec((1usize..10_000, 1usize..100_000), 0..6),
        fc in proptest::collection::vec((1usize..10_000, 1usize..100_000), 0..4),
        name_tag in 0u32..1000,
    ) {
        let layers = |pairs: &[(usize, usize)]| {
            pairs
                .iter()
                .map(|&(dot_length, dot_count)| DotProductWorkload { dot_length, dot_count })
                .collect::<Vec<_>>()
        };
        let workload = NetworkWorkload {
            name: format!("net \"{name_tag}\"\n\t✓"),
            conv_layers: layers(&conv),
            fc_layers: layers(&fc),
            towers,
        };
        let request = Request {
            id,
            body: RequestBody::Eval(EvalSpec::crosslight(
                CrossLightVariant::OptTed,
                (20, 150, 100, 60),
                16,
                WorkloadRef::Inline(workload),
            )),
        };
        let line = encode_request(&request);
        prop_assert_eq!(decode_request(&line).unwrap(), request);
    }

    /// Eval responses round-trip bit-exactly for any id and worker, and for
    /// reports spanning many orders of magnitude with NaN, ±inf, −0.0,
    /// subnormals and arbitrary bit patterns mixed in.
    #[test]
    fn eval_responses_round_trip_bit_exactly(
        id in counter_value(),
        cache_hit in 0u32..2,
        worker in counter_value(),
        mantissas in proptest::collection::vec(-1.0f64..1.0, 16),
        scales in proptest::collection::vec(-300.0f64..300.0, 16),
        specials in proptest::collection::vec((0u32..4, report_value()), 16),
        bits in 1u32..64,
    ) {
        // A quarter of the fields are special floats, the rest spread
        // across the normal exponent range.
        let mut values = [0.0f64; 16];
        for i in 0..16 {
            values[i] = match specials[i] {
                (0, special) => special,
                _ => mantissas[i] * 10f64.powf(scales[i] / 2.0),
            };
        }
        let response = Response {
            id: Some(id),
            body: ResponseBody::Eval(EvalFrame {
                report: report_from(&values, bits),
                cache_hit: cache_hit == 1,
                worker,
            }),
        };
        let line = encode_response(&response);
        let decoded = decode_response(&line).unwrap();
        prop_assert_eq!(encode_response(&decoded), line);
        let ResponseBody::Eval(frame) = decoded.body else {
            panic!("expected an eval frame");
        };
        prop_assert_eq!(decoded.id, Some(id));
        prop_assert_eq!((frame.cache_hit, frame.worker), (cache_hit == 1, worker));
        prop_assert_eq!(frame.report.resolution_bits, bits);
        // PartialEq on f64 is value equality and NaN equals nothing, so
        // compare bit patterns; any NaN decodes to a NaN.
        for (expected, actual) in values.iter().zip(report_values(&frame.report)) {
            if expected.is_nan() {
                prop_assert!(actual.is_nan());
            } else {
                prop_assert_eq!(expected.to_bits(), actual.to_bits());
            }
        }
    }

    /// Stats, restored and error responses round-trip for arbitrary
    /// counter values, and a decoded stats or restored frame re-encodes to
    /// the same line.
    #[test]
    fn stats_and_error_responses_round_trip(
        counters in proptest::collection::vec(0u64..u64::MAX, 18),
        per_worker in proptest::collection::vec(0u64..1_000_000, 0..8),
        kind in 0usize..7,
        detail_tag in 0u32..1000,
        restored in (counter_value(), counter_value(), counter_value(), counter_value()),
    ) {
        let stats = Response {
            id: Some(counters[0]),
            body: ResponseBody::Stats(StatsFrame {
                server: WireServerStats {
                    connections_accepted: counters[1],
                    connections_active: counters[2],
                    requests_total: counters[3],
                    evals_ok: counters[4],
                    evals_failed: counters[5],
                    shed_total: counters[6],
                    malformed_total: counters[7],
                    oversized_total: counters[8],
                    queue_capacity: counters[9],
                    in_flight: counters[10],
                },
                runtime: RuntimeStats {
                    submitted: counters[11],
                    completed: counters[12],
                    cache_hits: counters[13],
                    cache_misses: counters[14],
                    cached_entries: counters[15] as usize,
                    prepared_configs: counters[16] as usize,
                    per_worker: per_worker.clone(),
                    queue_depths: per_worker.clone(),
                },
            }),
        };
        let line = encode_response(&stats);
        let decoded = decode_response(&line).unwrap();
        prop_assert_eq!(&decoded, &stats);
        prop_assert_eq!(encode_response(&decoded), line);

        let (id, entries, results, model) = restored;
        let restored = Response {
            id: Some(id),
            body: ResponseBody::Restored(RestoredFrame { entries, results, model }),
        };
        let line = encode_response(&restored);
        let decoded = decode_response(&line).unwrap();
        prop_assert_eq!(&decoded, &restored);
        prop_assert_eq!(encode_response(&decoded), line);

        let kinds = [
            ErrorKind::Malformed,
            ErrorKind::UnsupportedVersion,
            ErrorKind::Oversized,
            ErrorKind::Overloaded,
            ErrorKind::Evaluation,
            ErrorKind::ShuttingDown,
            ErrorKind::Unsupported,
        ];
        let error = Response::error(
            None,
            ErrorFrame::new(kinds[kind], format!("detail \\ \"{detail_tag}\"")),
        );
        let line = encode_response(&error);
        prop_assert_eq!(decode_response(&line).unwrap(), error);
    }

    /// A request spliced to a new id decodes to the same request under that
    /// id, and every byte outside the id is unchanged — for every op, and
    /// for inline workloads whose names carry `"id":` text of their own.
    #[test]
    fn spliced_requests_keep_every_byte_but_the_id(
        id in 0u64..u64::MAX,
        new_id in 0u64..u64::MAX,
        op in 0usize..5,
        variant in 0usize..4,
        dims in (1usize..500, 1usize..500, 1usize..200, 1usize..200),
        bits in 1u32..32,
        model in 0usize..4,
        name_tag in 0u32..1000,
    ) {
        let body = match op {
            0 => RequestBody::Eval(spec_from(variant, dims, bits, model)),
            1 => RequestBody::Eval(EvalSpec::crosslight(
                variant_from(variant),
                dims,
                bits,
                WorkloadRef::Inline(NetworkWorkload {
                    name: format!("{{\"id\":{name_tag}}}"),
                    conv_layers: vec![DotProductWorkload { dot_length: dims.0, dot_count: dims.1 }],
                    fc_layers: Vec::new(),
                    towers: 1,
                }),
            )),
            2 => RequestBody::Stats,
            3 => RequestBody::Ping,
            _ => RequestBody::Metrics { format: MetricsFormat::Text },
        };
        let request = Request { id, body };
        let line = encode_request(&request);
        let spliced = splice_request_id(&line, new_id).unwrap();
        only_the_id_differs(&line, &spliced, id, new_id);
        prop_assert_eq!(decode_request(&spliced).unwrap(), Request { id: new_id, ..request });
    }

    /// The answer peek agrees with the decoder on every eval and error
    /// answer, splicing a new id into an answer changes nothing else, and
    /// the same answer without an id is rejected.
    #[test]
    fn answer_peeks_agree_with_the_decoder(
        id in 0u64..u64::MAX,
        new_id in 0u64..u64::MAX,
        kind in 0usize..9,
        mantissas in proptest::collection::vec(-1.0f64..1.0, 16),
        detail_tag in 0u32..1000,
    ) {
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
        let body = match kinds.get(kind) {
            Some(&kind) => ResponseBody::Error(ErrorFrame::new(
                kind,
                format!("detail \"kind\":\"{detail_tag}\" \\"),
            )),
            None => {
                let mut values = [0.0f64; 16];
                for (slot, mantissa) in values.iter_mut().zip(&mantissas) {
                    *slot = mantissa * 1e3;
                }
                ResponseBody::Eval(EvalFrame {
                    report: report_from(&values, 16),
                    cache_hit: detail_tag % 2 == 0,
                    worker: u64::from(detail_tag % 8),
                })
            }
        };
        let response = Response { id: Some(id), body };
        let line = encode_response(&response);
        let peek = peek_answer(&line).unwrap();
        let decoded = decode_response(&line).unwrap();
        prop_assert_eq!(Some(peek.id), decoded.id);
        let decoded_error = match &decoded.body {
            ResponseBody::Error(frame) => Some(frame.kind),
            _ => None,
        };
        prop_assert_eq!(peek.error, decoded_error);
        let spliced = peek.splice_id(&line, new_id);
        only_the_id_differs(&line, &spliced, id, new_id);
        prop_assert_eq!(
            decode_response(&spliced).unwrap(),
            Response { id: Some(new_id), ..response.clone() }
        );
        prop_assert_eq!(peek_answer(&encode_response(&Response { id: None, ..response })), None);
    }

    /// Fuzz: arbitrary byte soup never panics the decoders — every outcome
    /// is a typed error (or, for the rare syntactically valid line, a
    /// decoded frame).
    #[test]
    fn arbitrary_bytes_never_panic_the_decoders(
        bytes in proptest::collection::vec(0u8..=255, 0..200),
    ) {
        let line = String::from_utf8_lossy(&bytes).into_owned();
        let _ = decode_request(&line);
        let _ = decode_response(&line);
        let _ = Json::parse(&line);
    }

    /// Fuzz: a well-formed eval frame naming an unknown architecture,
    /// variant or platform always decodes to a typed `unsupported` error —
    /// never `malformed`, never a panic.  Known names are excluded by
    /// construction (fuzzed names carry a `zz-` prefix no registered
    /// architecture, variant or platform uses).
    #[test]
    fn unknown_arch_names_decode_to_unsupported(
        id in 0u64..10_000,
        tag in 0u32..100_000,
        slot in 0usize..3,
        model in 0usize..4,
    ) {
        let name = format!("zz-{tag}");
        let model = model_from(model).wire_name();
        let line = match slot {
            // Unknown architecture family.
            0 => format!(
                r#"{{"v":1,"id":{id},"op":"eval","config":{{"arch":"{name}"}},"model":"{model}"}}"#
            ),
            // Unknown CrossLight variant label.
            1 => format!(
                r#"{{"v":1,"id":{id},"op":"eval","config":{{"variant":"{name}","dims":[20,150,100,60],"resolution_bits":16}},"model":"{model}"}}"#
            ),
            // Unknown electronic platform.
            _ => format!(
                r#"{{"v":1,"id":{id},"op":"eval","config":{{"arch":"electronic","platform":"{name}"}},"model":"{model}"}}"#
            ),
        };
        let err = decode_request(&line).unwrap_err();
        prop_assert_eq!(err.kind, ErrorKind::Unsupported, "{}", line);
    }

    /// Fuzz: printable JSON-ish soup (brackets, quotes, digits) never
    /// panics and truncations of valid frames decode to typed errors.
    #[test]
    fn truncated_frames_decode_to_typed_errors(
        id in 0u64..10_000,
        variant in 0usize..4,
        model in 0usize..4,
        cut_permille in 0usize..1000,
    ) {
        let request = Request {
            id,
            body: RequestBody::Eval(spec_from(variant, (20, 150, 100, 60), 16, model)),
        };
        let line = encode_request(&request);
        let cut = cut_permille * line.len() / 1000;
        // Cut on a char boundary (the encoding here is pure ASCII).
        let truncated = &line[..cut];
        if cut == line.len() {
            prop_assert!(decode_request(truncated).is_ok());
        } else {
            let err = decode_request(truncated).unwrap_err();
            prop_assert!(
                matches!(err.kind, ErrorKind::Malformed),
                "truncated frame must be malformed, got {:?}",
                err
            );
        }
    }

    /// The same totality holds on the response side: a peer that dies
    /// mid-write hands the reader a prefix of a valid eval response, and
    /// every such prefix decodes to a typed malformed error, never a
    /// panic and never a silently wrong frame.
    #[test]
    fn truncated_responses_decode_to_typed_errors(
        id in 0u64..10_000,
        mantissas in proptest::collection::vec(-1.0f64..1.0, 16),
        cut_permille in 0usize..1000,
    ) {
        let mut values = [0.0f64; 16];
        for (slot, mantissa) in values.iter_mut().zip(&mantissas) {
            *slot = mantissa * 1e3;
        }
        let response = Response {
            id: Some(id),
            body: ResponseBody::Eval(EvalFrame {
                report: report_from(&values, 16),
                cache_hit: false,
                worker: 3,
            }),
        };
        let line = encode_response(&response);
        let cut = cut_permille * line.len() / 1000;
        let truncated = &line[..cut];
        if cut == line.len() {
            prop_assert_eq!(decode_response(truncated).unwrap(), response);
        } else {
            let err = decode_response(truncated).unwrap_err();
            prop_assert!(
                matches!(err.kind, ErrorKind::Malformed),
                "truncated response must be malformed, got {:?}",
                err
            );
        }
    }
}

#[test]
fn special_float_values_round_trip_through_reports() {
    // NaN compares unequal, so pin bit-level behaviour explicitly.
    let values = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        5e-324,
        f64::MAX,
        -f64::MAX,
        1.0,
        -1.0,
        std::f64::consts::PI,
        1e-300,
        -1e300,
        42.5,
        -0.125,
    ];
    let report = report_from(&values, 16);
    let response = Response {
        id: Some(1),
        body: ResponseBody::Eval(EvalFrame {
            report,
            cache_hit: false,
            worker: 0,
        }),
    };
    let decoded = decode_response(&encode_response(&response)).unwrap();
    let ResponseBody::Eval(frame) = decoded.body else {
        panic!("expected eval frame");
    };
    let got = report_values(&frame.report);
    for (i, (expected, actual)) in values.iter().zip(&got).enumerate() {
        if expected.is_nan() {
            assert!(actual.is_nan(), "field {i}");
        } else {
            assert_eq!(expected.to_bits(), actual.to_bits(), "field {i}");
        }
    }
}

#[test]
fn oversized_like_inputs_are_rejected_without_panic() {
    // A deeply nested line (adversarial stack attack) and a very long flat
    // line both decode to typed errors.
    let deep = format!(
        "{{\"v\":1,\"id\":1,\"op\":{}1{}",
        "[".repeat(500),
        "]".repeat(500)
    );
    assert_eq!(
        decode_request(&deep).unwrap_err().kind,
        ErrorKind::Malformed
    );
    let long = format!("{{\"v\":1,\"id\":1,\"op\":\"{}\"}}", "x".repeat(1 << 20));
    assert_eq!(
        decode_request(&long).unwrap_err().kind,
        ErrorKind::Malformed
    );
}
