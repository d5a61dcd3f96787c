//! Property tests for the runtime layer.
//!
//! Two contracts are checked over randomized inputs:
//!
//! * **cache-key determinism** — independently constructed but equal
//!   `(configuration, workload)` pairs always produce colliding cache keys
//!   and fingerprints, while any single-field perturbation separates them;
//! * **batching equivalence** — any shuffle of a request set, split into any
//!   partition of batches, evaluated on any worker count, yields reports
//!   bit-identical to serial `CrossLightSimulator` evaluation.

use std::sync::Arc;

use proptest::prelude::*;

use crosslight_core::config::{CrossLightConfig, DesignChoices};
use crosslight_core::simulator::CrossLightSimulator;
use crosslight_core::variants::CrossLightVariant;
use crosslight_neural::layers::DotProductWorkload;
use crosslight_neural::workload::NetworkWorkload;
use crosslight_neural::zoo::PaperModel;
use crosslight_runtime::cache::CacheKey;
use crosslight_runtime::pool::{EvalService, RuntimeOptions};
use crosslight_runtime::request::EvalRequest;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn variant(index: usize) -> CrossLightVariant {
    CrossLightVariant::all()[index % 4]
}

fn config_from(
    dims: (usize, usize, usize, usize),
    variant_index: usize,
    bits: u32,
) -> CrossLightConfig {
    let (n_size, k_extra, n_units, m_units) = dims;
    let k_size = n_size + k_extra;
    CrossLightConfig::new(
        n_size,
        k_size,
        n_units,
        m_units,
        variant(variant_index).design(),
    )
    .expect("generated dimensions satisfy K >= N > 0")
    .with_resolution_bits(bits)
}

fn synthetic_workload(
    layers: &[(usize, usize)],
    fc_split: usize,
    towers: usize,
) -> NetworkWorkload {
    let jobs: Vec<DotProductWorkload> = layers
        .iter()
        .map(|&(dot_length, dot_count)| DotProductWorkload {
            dot_length,
            dot_count,
        })
        .collect();
    let split = fc_split % (jobs.len() + 1);
    NetworkWorkload {
        name: "synthetic".into(),
        conv_layers: jobs[..split].to_vec(),
        fc_layers: jobs[split..].to_vec(),
        towers: towers.max(1),
    }
}

proptest! {
    /// Equal config/workload pairs, built independently, always collide on
    /// key and fingerprint; perturbing any scenario axis separates them.
    #[test]
    fn cache_keys_are_deterministic_and_perturbation_sensitive(
        dims in (1usize..=25, 0usize..=200, 1usize..=150, 1usize..=90),
        variant_index in 0usize..4,
        bits in 1u32..=16,
        layers in proptest::collection::vec((1usize..=400, 1usize..=5000), 1..6),
        fc_split in 0usize..6,
        towers in 1usize..=3,
    ) {
        let config_a = config_from(dims, variant_index, bits);
        let config_b = config_from(dims, variant_index, bits);
        let workload_a = Arc::new(synthetic_workload(&layers, fc_split, towers));
        let workload_b = Arc::new(synthetic_workload(&layers, fc_split, towers));

        let key_a = CacheKey::new(&config_a, Arc::clone(&workload_a));
        let key_b = CacheKey::new(&config_b, workload_b);
        prop_assert_eq!(&key_a, &key_b);
        prop_assert_eq!(key_a.fingerprint(), key_b.fingerprint());

        // Perturb each configuration axis in turn.
        let mut bigger = config_a;
        bigger.conv_units += 1;
        prop_assert_ne!(&key_a, &CacheKey::new(&bigger, Arc::clone(&workload_a)));

        let other_bits = config_a.with_resolution_bits(if bits == 16 { 15 } else { bits + 1 });
        prop_assert_ne!(&key_a, &CacheKey::new(&other_bits, Arc::clone(&workload_a)));

        let other_variant = CrossLightConfig {
            design: DesignChoices {
                mr_spacing: crosslight_photonics::units::Micrometers::new(
                    config_a.design.mr_spacing.value() + 0.25,
                ),
                ..config_a.design
            },
            ..config_a
        };
        prop_assert_ne!(&key_a, &CacheKey::new(&other_variant, Arc::clone(&workload_a)));

        // Perturb the workload: one more tower, or one more layer.
        let mut taller = (*workload_a).clone();
        taller.towers += 1;
        prop_assert_ne!(&key_a, &CacheKey::new(&config_a, Arc::new(taller)));

        let mut deeper = (*workload_a).clone();
        deeper.fc_layers.push(DotProductWorkload { dot_length: 1, dot_count: 1 });
        prop_assert_ne!(&key_a, &CacheKey::new(&config_a, Arc::new(deeper)));
    }

    /// Any shuffle and any batch partition of a request set, on any worker
    /// count, reproduces serial evaluation bit-for-bit — with a warm cache
    /// on the second replay.
    #[test]
    fn batched_evaluation_equals_serial_evaluation(
        seed in 0u64..1_000_000,
        workers in 1usize..=8,
        subset in 1usize..=16,
    ) {
        // Deterministic request universe: 4 variants × 4 models.
        let mut universe = Vec::new();
        for v in CrossLightVariant::all() {
            for model in PaperModel::all() {
                let workload = Arc::new(
                    NetworkWorkload::from_spec(&model.spec()).expect("paper specs are valid"),
                );
                universe.push(EvalRequest::new(v.config(), workload));
            }
        }

        // Shuffle (Fisher–Yates) and truncate to a random subset.
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..universe.len()).rev() {
            let j = rng.gen_range(0usize..=i);
            universe.swap(i, j);
        }
        universe.truncate(subset);

        let serial: Vec<_> = universe
            .iter()
            .map(|r| {
                CrossLightSimulator::new(r.config().expect("CrossLight request"))
                    .evaluate(&r.workload)
                    .expect("serial evaluation succeeds")
            })
            .collect();

        let service = EvalService::new(RuntimeOptions::default().with_workers(workers));

        // Random partition into consecutive batches.
        let mut responses = Vec::with_capacity(universe.len());
        let mut remaining = universe.clone();
        while !remaining.is_empty() {
            let take = rng.gen_range(1usize..=remaining.len());
            let batch: Vec<EvalRequest> = remaining.drain(..take).collect();
            responses.extend(service.submit_batch(batch).expect("batch succeeds"));
        }
        prop_assert_eq!(responses.len(), serial.len());
        for (response, expected) in responses.iter().zip(&serial) {
            prop_assert_eq!(&response.report, expected);
            prop_assert!(response.worker < workers);
        }

        // Replaying the whole stream in one batch is all cache hits and
        // still bit-identical.
        let replay = service.submit_batch(universe).expect("replay succeeds");
        for (response, expected) in replay.iter().zip(&serial) {
            prop_assert!(response.cache_hit);
            prop_assert_eq!(&response.report, expected);
        }
    }
}
