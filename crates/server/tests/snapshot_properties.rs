//! Property and integration tests of the warm-state snapshot protocol:
//! arbitrary cache contents round-trip byte-exactly through the
//! `restore` framing (including non-finite floats), chunking preserves
//! streams at every budget, and a live server pair transfers its warm
//! caches bit-identically — while corrupt streams are rejected with
//! typed errors and leave both the caches and the connection usable.

use proptest::prelude::*;

use crosslight_core::cache::ModelCacheEntry;
use crosslight_core::canonical::{ArchKey, BackendKey, ResolutionKey, VdpUnitKey};
use crosslight_core::config::CrossLightConfig;
use crosslight_core::performance::{InferenceLatency, InferenceMetrics};
use crosslight_core::simulator::SimulationReport;
use crosslight_core::variants::CrossLightVariant;
use crosslight_core::vdp::VdpUnitReport;
use crosslight_neural::layers::DotProductWorkload;
use crosslight_neural::workload::NetworkWorkload;
use crosslight_neural::zoo::PaperModel;
use crosslight_photonics::units::{MilliWatts, Picojoules, Seconds, SquareMillimeters, Watts};
use crosslight_server::wire::{
    chunk_snapshot_entries, decode_request, encode_request, encode_snapshot_entry,
    snapshot_checksum, EvalSpec, SnapshotChunk, SnapshotEnd, SnapshotEntry, SNAPSHOT_SCHEMA,
};
use crosslight_server::{
    Client, ErrorKind, Request, RequestBody, ResponseBody, Server, ServerOptions,
};

fn report_from_bits(bits: &[u64; 16], resolution_bits: u32) -> SimulationReport {
    let f = |i: usize| f64::from_bits(bits[i]);
    SimulationReport {
        power: crosslight_core::power::AcceleratorPower {
            laser: MilliWatts::new(f(0)),
            tuning: MilliWatts::new(f(1)),
            detection: MilliWatts::new(f(2)),
            conversion: MilliWatts::new(f(3)),
            control: MilliWatts::new(f(4)),
        },
        area: crosslight_core::area::AcceleratorArea {
            mr_banks: SquareMillimeters::new(f(5)),
            arm_devices: SquareMillimeters::new(f(6)),
            unit_electronics: SquareMillimeters::new(f(7)),
        },
        metrics: InferenceMetrics {
            latency: InferenceLatency {
                conv_time: Seconds::new(f(8)),
                fc_time: Seconds::new(f(9)),
                electronic_time: Seconds::new(f(10)),
            },
            fps: f(11),
            energy_per_inference: Picojoules::new(f(12)),
            energy_per_bit_pj: f(13),
            kfps_per_watt: f(14),
            power: Watts::new(f(15)),
        },
        resolution_bits,
    }
}

/// Canonical byte-level identity of a stream — the comparison that works
/// even when entries carry NaNs (where `PartialEq` is useless).
fn encoded(entries: &[SnapshotEntry]) -> Vec<String> {
    entries.iter().map(encode_snapshot_entry).collect()
}

proptest! {

    /// A stream holding every entry kind — with arbitrary bit patterns in
    /// every float slot, including NaN and the infinities — re-encodes to
    /// the identical line after a decode round trip.
    #[test]
    fn arbitrary_snapshot_streams_round_trip_byte_exactly(
        dims in (1u64..500, 0u64..500, 1u64..200, 1u64..200),
        mrs in 1u64..=15,
        cfg_bits in 1u64..32,
        geom in proptest::collection::vec(proptest::num::u64::ANY, 5),
        tags in (0u64..2, 0u64..2, 0u64..2),
        spacing in proptest::num::u64::ANY,
        report_bits in proptest::collection::vec(proptest::num::u64::ANY, 16),
        res_bits in 1u32..64,
        backend_tag in 0u8..=255,
        backend_params in proptest::collection::vec(proptest::num::u64::ANY, 4),
        conv in proptest::collection::vec((1usize..1000, 1usize..10_000), 0..4),
        towers in 1usize..4,
    ) {
        let words = [
            dims.0,
            dims.0 + dims.1, // fc_unit_size ≥ conv_unit_size (K ≥ N)
            dims.2,
            dims.3,
            mrs,
            cfg_bits,
            geom[0], geom[1], geom[2], geom[3], geom[4],
            tags.0, tags.1, tags.2,
            spacing,
        ];
        let config = CrossLightConfig::from_canonical_words(words).unwrap();
        let mut bits16 = [0u64; 16];
        bits16.copy_from_slice(&report_bits);
        let report = report_from_bits(&bits16, res_bits);
        let workload = NetworkWorkload {
            name: "snapshot \"prop\"\n\t✓".to_string(),
            conv_layers: conv
                .iter()
                .map(|&(dot_length, dot_count)| DotProductWorkload { dot_length, dot_count })
                .collect(),
            fc_layers: Vec::new(),
            towers,
        };
        let unit_key = VdpUnitKey::from_words([
            dims.0, mrs,
            geom[0], geom[1], geom[2], geom[3], geom[4],
            tags.0, tags.1, tags.2,
            spacing,
        ]).unwrap();
        let resolution_key = ResolutionKey::from(&config);
        let entries = vec![
            SnapshotEntry::Result {
                arch: ArchKey::CrossLight(config.canonical_key()),
                workload: workload.clone(),
                report,
            },
            SnapshotEntry::Result {
                arch: ArchKey::Backend(BackendKey::new(
                    backend_tag,
                    [backend_params[0], backend_params[1], backend_params[2], backend_params[3]],
                )),
                workload,
                report,
            },
            SnapshotEntry::Model(ModelCacheEntry::Resolution {
                key: resolution_key,
                bits: res_bits,
            }),
            SnapshotEntry::Model(ModelCacheEntry::Unit {
                key: unit_key,
                report: VdpUnitReport {
                    arms: dims.2 as usize,
                    pass_latency: Seconds::new(f64::from_bits(report_bits[0])),
                    laser_power: MilliWatts::new(f64::from_bits(report_bits[1])),
                    tuning_power: MilliWatts::new(f64::from_bits(report_bits[2])),
                    detection_power: MilliWatts::new(f64::from_bits(report_bits[3])),
                    conversion_power: MilliWatts::new(f64::from_bits(report_bits[4])),
                },
            }),
            SnapshotEntry::Model(ModelCacheEntry::Prepared {
                config,
                power: report.power,
                area: report.area,
                resolution_bits: res_bits,
            }),
        ];
        let line = encode_request(&Request {
            id: 7,
            body: RequestBody::Restore(SnapshotChunk { seq: 0, entries }),
        });
        let decoded = decode_request(&line).unwrap();
        prop_assert_eq!(&encode_request(&decoded), &line);
        // The receiver-side checksum over decoded entries matches the
        // sender's — the invariant restore validation relies on.
        let RequestBody::Restore(chunk) = decoded.body else {
            panic!("restore frame must decode to a restore body");
        };
        let again = decode_request(&line).unwrap();
        let RequestBody::Restore(chunk2) = again.body else {
            panic!("restore frame must decode to a restore body");
        };
        prop_assert_eq!(
            snapshot_checksum(&chunk.entries),
            snapshot_checksum(&chunk2.entries)
        );
    }

    /// Chunking preserves stream order, content and checksum at every
    /// budget, and numbers chunks contiguously from zero.
    #[test]
    fn chunking_preserves_streams_at_any_budget(
        budget in 1usize..4000,
        bits in proptest::collection::vec(1u32..64, 0..40),
        word in proptest::num::u64::ANY,
    ) {
        let key = ResolutionKey::from_words([word, word, word, word, word, 0, 3, 7, 9]).unwrap();
        let entries: Vec<SnapshotEntry> = bits
            .iter()
            .map(|&b| SnapshotEntry::Model(ModelCacheEntry::Resolution { key, bits: b }))
            .collect();
        let before = encoded(&entries);
        let checksum = snapshot_checksum(&entries);
        let chunks = chunk_snapshot_entries(entries, budget);
        let mut reassembled = Vec::new();
        for (i, chunk) in chunks.iter().enumerate() {
            prop_assert_eq!(chunk.seq, i as u64);
            prop_assert!(!chunk.entries.is_empty());
            reassembled.extend(chunk.entries.iter().cloned());
        }
        prop_assert_eq!(encoded(&reassembled), before);
        prop_assert_eq!(snapshot_checksum(&reassembled), checksum);
    }

    /// Any single-slot difference between two streams changes the
    /// checksum: FNV-1a steps are injective in the running state, so two
    /// same-shape streams differing in one word can never collide.
    #[test]
    fn checksum_detects_single_entry_corruption(
        word in proptest::num::u64::ANY,
        bits_a in 1u32..64,
        delta in 1u32..64,
        count in 1usize..12,
        position in 0usize..12,
    ) {
        let key = ResolutionKey::from_words([word, word, word, word, word, 1, 5, 11, 13]).unwrap();
        let entry = |b: u32| SnapshotEntry::Model(ModelCacheEntry::Resolution { key, bits: b });
        let stream: Vec<SnapshotEntry> = (0..count).map(|_| entry(bits_a)).collect();
        let mut tampered = stream.clone();
        let slot = position % count;
        tampered[slot] = entry(bits_a.wrapping_add(delta) % 64 + 64);
        prop_assert_ne!(snapshot_checksum(&stream), snapshot_checksum(&tampered));
    }
}

fn warm_specs() -> Vec<EvalSpec> {
    let mut specs = Vec::new();
    for variant in [CrossLightVariant::Base, CrossLightVariant::OptTed] {
        for model in PaperModel::all() {
            specs.push(EvalSpec::paper(variant, model));
        }
    }
    specs
}

#[test]
fn warm_state_restores_into_a_cold_server_bit_identically() {
    let donor = Server::bind("127.0.0.1:0", ServerOptions::default().with_workers(2)).unwrap();
    let mut donor_client = Client::connect(donor.local_addr()).unwrap();
    let specs = warm_specs();
    let mut warm_reports = Vec::new();
    for (id, spec) in specs.iter().enumerate() {
        match donor_client.eval(id as u64, spec).unwrap().body {
            ResponseBody::Eval(frame) => warm_reports.push(frame.report),
            other => panic!("expected eval frame, got {other:?}"),
        }
    }
    let entries = donor_client.snapshot_entries(100).unwrap();
    assert!(
        entries.len() >= specs.len(),
        "a warmed donor exports at least one entry per distinct spec"
    );

    let cold = Server::bind("127.0.0.1:0", ServerOptions::default().with_workers(2)).unwrap();
    let mut cold_client = Client::connect(cold.local_addr()).unwrap();
    assert!(
        cold_client.snapshot_entries(0).unwrap().is_empty(),
        "a cold server exports an empty snapshot"
    );
    // A small chunk budget forces a genuinely multi-chunk transfer.
    let restored = cold_client
        .restore_entries(101, entries.clone(), 2048)
        .unwrap();
    assert_eq!(restored.entries as usize, entries.len());
    assert!(restored.results > 0 && restored.model > 0);

    // The restored server's own snapshot is byte-identical to the donor's.
    assert_eq!(
        encoded(&cold_client.snapshot_entries(102).unwrap()),
        encoded(&entries)
    );
    // Every donor-warmed spec is served warm — result-cache hit — with the
    // donor's exact bits.
    for (i, spec) in specs.iter().enumerate() {
        match cold_client.eval(200 + i as u64, spec).unwrap().body {
            ResponseBody::Eval(frame) => {
                assert!(frame.cache_hit, "restored entry for spec {i} must hit");
                assert_eq!(frame.report, warm_reports[i]);
            }
            other => panic!("expected eval frame, got {other:?}"),
        }
    }
    // Restoring the same stream again is idempotent: validated, applied,
    // zero new insertions.
    let again = cold_client
        .restore_entries(300, entries.clone(), 1 << 20)
        .unwrap();
    assert_eq!(again.entries as usize, entries.len());
    assert_eq!((again.results, again.model), (0, 0));
    donor.shutdown();
    cold.shutdown();
}

#[test]
fn corrupt_restore_streams_are_rejected_typed_and_do_not_wedge() {
    let donor = Server::bind("127.0.0.1:0", ServerOptions::default().with_workers(1)).unwrap();
    let mut warm = Client::connect(donor.local_addr()).unwrap();
    warm.eval(
        0,
        &EvalSpec::paper(CrossLightVariant::Base, PaperModel::Lenet5SignMnist),
    )
    .unwrap();
    let entries = warm.snapshot_entries(1).unwrap();
    assert!(!entries.is_empty());
    donor.shutdown();

    let server = Server::bind("127.0.0.1:0", ServerOptions::default().with_workers(1)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let checksum = snapshot_checksum(&entries);
    let chunk = |seq: u64| SnapshotChunk {
        seq,
        entries: entries.clone(),
    };
    let end = |chunks: u64, total: u64, checksum: u64| {
        RequestBody::RestoreEnd(SnapshotEnd {
            chunks,
            entries: total,
            checksum,
        })
    };

    // A sequence gap poisons the stream; the single terminal response is a
    // typed malformed error and nothing is applied.
    client
        .send(&Request {
            id: 1,
            body: RequestBody::Restore(chunk(0)),
        })
        .unwrap();
    client
        .send(&Request {
            id: 1,
            body: RequestBody::Restore(chunk(2)),
        })
        .unwrap();
    client
        .send(&Request {
            id: 1,
            body: end(3, 3 * entries.len() as u64, checksum),
        })
        .unwrap();
    client.flush().unwrap();
    match client.recv().unwrap().body {
        ResponseBody::Error(frame) => assert_eq!(frame.kind, ErrorKind::Malformed),
        other => panic!("expected typed error, got {other:?}"),
    }

    // A corrupted checksum is caught by the terminal validation.
    client
        .send(&Request {
            id: 2,
            body: RequestBody::Restore(chunk(0)),
        })
        .unwrap();
    client
        .send(&Request {
            id: 2,
            body: end(1, entries.len() as u64, checksum ^ 1),
        })
        .unwrap();
    client.flush().unwrap();
    match client.recv().unwrap().body {
        ResponseBody::Error(frame) => assert_eq!(frame.kind, ErrorKind::Malformed),
        other => panic!("expected typed error, got {other:?}"),
    }

    // A schema this build does not speak is a typed `unsupported` error.
    client
        .send_raw(&format!(
            "{{\"v\":1,\"id\":3,\"op\":\"restore\",\"schema\":\"{SNAPSHOT_SCHEMA}-future\",\
             \"seq\":0,\"entries\":[]}}"
        ))
        .unwrap();
    match client.recv().unwrap().body {
        ResponseBody::Error(frame) => assert_eq!(frame.kind, ErrorKind::Unsupported),
        other => panic!("expected typed error, got {other:?}"),
    }

    // None of the rejected streams touched the caches, the connection is
    // still healthy, and a correct stream — seq 0 restarts the session —
    // applies cleanly.
    assert!(client.snapshot_entries(4).unwrap().is_empty());
    match client
        .call(&Request {
            id: 5,
            body: RequestBody::Ping,
        })
        .unwrap()
        .body
    {
        ResponseBody::Pong => {}
        other => panic!("expected pong, got {other:?}"),
    }
    let restored = client.restore_entries(6, entries.clone(), 1 << 20).unwrap();
    assert_eq!(restored.entries as usize, entries.len());
    assert_eq!(
        encoded(&client.snapshot_entries(7).unwrap()),
        encoded(&entries)
    );
    server.shutdown();
}

#[test]
fn empty_restore_streams_are_valid() {
    let server = Server::bind("127.0.0.1:0", ServerOptions::default().with_workers(1)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let restored = client.restore_entries(1, Vec::new(), 1 << 20).unwrap();
    assert_eq!(
        (restored.entries, restored.results, restored.model),
        (0, 0, 0)
    );
    server.shutdown();
}

#[test]
fn an_oversized_chunk_leaves_the_verdict_to_restore_end_and_the_next_call_its_answer() {
    let donor = Server::bind("127.0.0.1:0", ServerOptions::default().with_workers(1)).unwrap();
    let mut warm = Client::connect(donor.local_addr()).unwrap();
    for (id, spec) in warm_specs().iter().enumerate() {
        warm.eval(id as u64, spec).unwrap();
    }
    let mut entries = warm.snapshot_entries(100).unwrap();
    entries.truncate(8);
    assert_eq!(entries.len(), 8);
    donor.shutdown();

    // One chunk of all eight entries is far over this server's line limit,
    // so it is answered at once and without an id, and `restore_end` then
    // finds no chunk: that answer is the verdict.
    let server = Server::bind(
        "127.0.0.1:0",
        ServerOptions::default()
            .with_workers(1)
            .with_max_line_bytes(1024),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let message = client
        .restore_entries(7, entries, 1 << 20)
        .unwrap_err()
        .to_string();
    assert!(
        message.contains("restore rejected (malformed)") && message.contains("got 0 chunks"),
        "{message}"
    );
    // The same client's next call reads its own answer.
    let stats = client.stats(8).unwrap();
    assert_eq!(stats.id, Some(8));
    assert!(matches!(stats.body, ResponseBody::Stats(_)), "{stats:?}");
    server.shutdown();
}
