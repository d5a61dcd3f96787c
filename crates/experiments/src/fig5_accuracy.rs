//! E3 — Fig. 5: inference accuracy vs. weight/activation resolution.
//!
//! Trains a small surrogate of each Table I model on its synthetic stand-in
//! dataset, then evaluates test accuracy with weights and activations
//! fake-quantized from 1 to 16 bits.  The reproduced *shape* is what the paper
//! shows: accuracy saturates at high resolution, collapses below a
//! model-dependent threshold, and the harder datasets (STL-10 stand-in) are
//! the most sensitive to resolution.
//!
//! Because the surrogate has to be re-quantized from clean weights for every
//! bit width, a fresh surrogate is trained per model and the quantized
//! evaluation runs on an internally re-trained copy per bit width.
//!
//! The sweep is embarrassingly parallel across its `(model × bit-width)`
//! surrogate-training cells, and [`run_parallel`] spreads them over the
//! runtime's parallel sweep engine.  Every cell seeds its own `StdRng` with
//! exactly the seed the serial sweep would use and results come back in
//! configuration order, so the parallel output is **byte-identical** to
//! [`run`] for any worker count.

use serde::{Deserialize, Serialize};

use crosslight_neural::datasets::{generate_synthetic, Dataset};
use crosslight_neural::quant::QuantConfig;
use crosslight_neural::train::{evaluate, evaluate_quantized, train, TrainConfig};
use crosslight_neural::zoo::PaperModel;
use crosslight_neural::NeuralError;
use crosslight_runtime::sweep;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{fmt_f64, TextTable};

/// Configuration of the accuracy-vs-resolution study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccuracyStudyConfig {
    /// Bit widths to evaluate (the paper sweeps 1–16).
    pub bit_widths: Vec<u32>,
    /// Training samples per class of the synthetic datasets.
    pub samples_per_class: usize,
    /// Training epochs.
    pub epochs: usize,
    /// RNG seed (datasets and weight init).
    pub seed: u64,
}

impl AccuracyStudyConfig {
    /// The paper-style sweep: every resolution from 1 to 16 bits.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            bit_widths: (1..=16).collect(),
            samples_per_class: 24,
            epochs: 18,
            seed: 2021,
        }
    }

    /// A reduced sweep for fast smoke tests.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            bit_widths: vec![1, 2, 4, 8, 16],
            samples_per_class: 10,
            epochs: 8,
            seed: 2021,
        }
    }
}

/// Accuracy of one model across the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelAccuracyCurve {
    /// Which Table I model the curve belongs to.
    pub model: PaperModel,
    /// Dataset name (Table I).
    pub dataset: String,
    /// Full-precision test accuracy.
    pub full_precision_accuracy: f64,
    /// `(bits, accuracy)` pairs in the order of the configured bit widths.
    pub points: Vec<(u32, f64)>,
}

impl ModelAccuracyCurve {
    /// Accuracy at a given bit width, if it was evaluated.
    #[must_use]
    pub fn accuracy_at(&self, bits: u32) -> Option<f64> {
        self.points
            .iter()
            .find(|(b, _)| *b == bits)
            .map(|(_, a)| *a)
    }
}

/// The full Fig. 5 result: one curve per Table I model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccuracyStudy {
    /// One curve per model.
    pub curves: Vec<ModelAccuracyCurve>,
    /// The bit widths evaluated.
    pub bit_widths: Vec<u32>,
}

impl AccuracyStudy {
    /// Renders the study as a text table (models as rows, bit widths as
    /// columns).
    #[must_use]
    pub fn table(&self) -> TextTable {
        let mut header = vec!["model".to_string(), "dataset".to_string()];
        header.extend(self.bit_widths.iter().map(|b| format!("{b}b")));
        let mut table = TextTable::new(header);
        for curve in &self.curves {
            let mut row = vec![format!("{:?}", curve.model), curve.dataset.clone()];
            row.extend(
                curve
                    .points
                    .iter()
                    .map(|(_, accuracy)| fmt_f64(accuracy * 100.0, 1)),
            );
            table.push_row(row);
        }
        table
    }
}

/// Runs the accuracy-vs-resolution study.
///
/// # Errors
///
/// Propagates training/evaluation errors from the neural substrate (which do
/// not occur for the built-in surrogates).
pub fn run(config: &AccuracyStudyConfig) -> Result<AccuracyStudy, crosslight_neural::NeuralError> {
    let mut curves = Vec::with_capacity(4);
    for model in PaperModel::all() {
        let spec = model.spec();
        let dataset_spec = spec.surrogate_dataset(config.samples_per_class);
        let mut data_rng = StdRng::seed_from_u64(config.seed ^ (model as u64 + 1));
        let dataset = generate_synthetic(&dataset_spec, &mut data_rng)?;
        let (train_split, test_split) = dataset.split(0.75);
        let train_config = TrainConfig {
            epochs: config.epochs,
            learning_rate: 0.08,
            batch_size: 8,
        };

        // Full-precision reference.
        let mut reference_rng = StdRng::seed_from_u64(config.seed.wrapping_add(97));
        let mut reference = spec.build_surrogate(&mut reference_rng)?;
        train(&mut reference, &train_split, &train_config)?;
        let full_precision_accuracy = evaluate(&mut reference, &test_split)?;

        // Quantized evaluations: re-train an identical surrogate per bit width
        // (quantization mutates weights in place).
        let mut points = Vec::with_capacity(config.bit_widths.len());
        for &bits in &config.bit_widths {
            let mut model_rng = StdRng::seed_from_u64(config.seed.wrapping_add(97));
            let mut surrogate = spec.build_surrogate(&mut model_rng)?;
            train(&mut surrogate, &train_split, &train_config)?;
            let accuracy =
                evaluate_quantized(&mut surrogate, &test_split, &QuantConfig::uniform(bits))?;
            points.push((bits, accuracy));
        }
        curves.push(ModelAccuracyCurve {
            model,
            dataset: model.dataset_name().to_string(),
            full_precision_accuracy,
            points,
        });
    }
    Ok(AccuracyStudy {
        curves,
        bit_widths: config.bit_widths.clone(),
    })
}

/// Trains one cell's surrogate and evaluates its accuracy: at full precision
/// when `bits` is `None`, else fake-quantized to `bits`.
///
/// The RNG seeding replicates the serial sweep exactly: every cell builds
/// and trains its surrogate from `seed + 97`, on the same dataset split the
/// serial code derives for the model — so each cell's result is bit-identical
/// to the corresponding serial step.
fn run_cell(
    config: &AccuracyStudyConfig,
    train_config: &TrainConfig,
    model: PaperModel,
    splits: &(Dataset, Dataset),
    bits: Option<u32>,
) -> Result<f64, NeuralError> {
    let spec = model.spec();
    let (train_split, test_split) = splits;
    let mut model_rng = StdRng::seed_from_u64(config.seed.wrapping_add(97));
    let mut surrogate = spec.build_surrogate(&mut model_rng)?;
    train(&mut surrogate, train_split, train_config)?;
    match bits {
        None => evaluate(&mut surrogate, test_split),
        Some(bits) => evaluate_quantized(&mut surrogate, test_split, &QuantConfig::uniform(bits)),
    }
}

/// Runs the accuracy-vs-resolution study with the `(model × bit-width)`
/// cells spread across up to `workers` threads.
///
/// Output is **byte-identical** to [`run`] for the same configuration, for
/// any worker count: cells are deterministic (per-cell seeded RNGs over
/// shared, main-thread-generated dataset splits) and results are assembled
/// in configuration order, so scheduling cannot leak into the table.
///
/// # Errors
///
/// Propagates training/evaluation errors from the neural substrate (which do
/// not occur for the built-in surrogates).
pub fn run_parallel(
    config: &AccuracyStudyConfig,
    workers: usize,
) -> Result<AccuracyStudy, NeuralError> {
    let models = PaperModel::all();

    // Datasets are generated on the main thread with the serial sweep's
    // exact per-model seeding, then shared read-only with every cell.
    let mut splits = Vec::with_capacity(models.len());
    for model in models {
        let spec = model.spec();
        let dataset_spec = spec.surrogate_dataset(config.samples_per_class);
        let mut data_rng = StdRng::seed_from_u64(config.seed ^ (model as u64 + 1));
        let dataset = generate_synthetic(&dataset_spec, &mut data_rng)?;
        splits.push(dataset.split(0.75));
    }
    let train_config = TrainConfig {
        epochs: config.epochs,
        learning_rate: 0.08,
        batch_size: 8,
    };

    // Per model: the full-precision cell, then one cell per bit width.
    let mut cells = Vec::new();
    for model_index in 0..models.len() {
        cells.push((model_index, None));
        for &bits in &config.bit_widths {
            cells.push((model_index, Some(bits)));
        }
    }
    let accuracies = sweep::map(&cells, workers, |&(model_index, bits)| {
        run_cell(
            config,
            &train_config,
            models[model_index],
            &splits[model_index],
            bits,
        )
    })?;

    let curves = models
        .into_iter()
        .zip(accuracies.chunks(1 + config.bit_widths.len()))
        .map(|(model, row)| ModelAccuracyCurve {
            model,
            dataset: model.dataset_name().to_string(),
            full_precision_accuracy: row[0],
            points: config
                .bit_widths
                .iter()
                .copied()
                .zip(row[1..].iter().copied())
                .collect(),
        })
        .collect();
    Ok(AccuracyStudy {
        curves,
        bit_widths: config.bit_widths.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_study_reproduces_the_figure_shape() {
        let study = run(&AccuracyStudyConfig::quick()).unwrap();
        assert_eq!(study.curves.len(), 4);
        for curve in &study.curves {
            let high = curve.accuracy_at(16).unwrap();
            let low = curve.accuracy_at(1).unwrap();
            // Models learn something at full precision…
            assert!(
                curve.full_precision_accuracy > 0.4,
                "{:?} failed to train ({})",
                curve.model,
                curve.full_precision_accuracy
            );
            // …16-bit quantization is essentially lossless…
            assert!(
                (high - curve.full_precision_accuracy).abs() < 0.2,
                "{:?}: 16-bit {} vs full {}",
                curve.model,
                high,
                curve.full_precision_accuracy
            );
            // …and 1-bit quantization hurts.
            assert!(
                low <= high + 0.05,
                "{:?}: 1-bit accuracy {} should not beat 16-bit {}",
                curve.model,
                low,
                high
            );
        }
    }

    #[test]
    fn table_has_one_row_per_model_and_column_per_bit_width() {
        let config = AccuracyStudyConfig {
            bit_widths: vec![2, 8],
            samples_per_class: 6,
            epochs: 3,
            seed: 7,
        };
        let study = run(&config).unwrap();
        let table = study.table();
        assert_eq!(table.len(), 4);
        assert!(table.render().contains("Sign MNIST"));
        assert!(table.render().contains("8b"));
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_serial_sweep() {
        let config = AccuracyStudyConfig {
            bit_widths: vec![1, 4, 16],
            samples_per_class: 6,
            epochs: 2,
            seed: 99,
        };
        let serial = run(&config).unwrap();
        for workers in [1, 3, 8] {
            let parallel = run_parallel(&config, workers).unwrap();
            assert_eq!(parallel, serial, "{workers} workers");
            assert_eq!(
                parallel.table().render(),
                serial.table().render(),
                "{workers} workers: rendered tables must match byte-for-byte"
            );
        }
    }

    #[test]
    fn paper_config_covers_one_to_sixteen_bits() {
        let config = AccuracyStudyConfig::paper();
        assert_eq!(config.bit_widths.len(), 16);
        assert_eq!(*config.bit_widths.first().unwrap(), 1);
        assert_eq!(*config.bit_widths.last().unwrap(), 16);
    }
}
