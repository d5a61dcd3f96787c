//! Latency, throughput and energy-efficiency model.
//!
//! Maps a [`NetworkWorkload`] onto the configured CONV and FC VDP pools
//! (paper §IV.C): every dot product is decomposed into unit-sized chunks, the
//! chunks of a layer are spread across the pool's units, and layers execute
//! sequentially (each layer's inputs are the previous layer's outputs).  The
//! resulting inference latency, combined with the accelerator power, yields
//! the paper's three headline metrics: frames per second (FPS), energy per
//! bit (EPB) and performance per watt (kFPS/W).
//!
//! ## Energy-per-bit accounting
//!
//! EPB is reported as the inference energy divided by the number of operand
//! bits processed (`2 × MACs × resolution`), which keeps the metric
//! comparable across accelerators with different native resolutions (the
//! definition the electronic-accelerator surveys use).  Absolute values
//! therefore differ from the paper's, but all the ratios the paper reports
//! (CrossLight vs. DEAP-CNN vs. HolyLight, and across the four variants) are
//! preserved; see `EXPERIMENTS.md`.

use serde::{Deserialize, Serialize};

use crosslight_neural::workload::NetworkWorkload;
use crosslight_photonics::units::{Picojoules, Seconds, Watts};

use crate::config::CrossLightConfig;
use crate::decompose::sequential_passes;
use crate::error::Result;
use crate::power::AcceleratorPower;
use crate::vdp::VdpUnit;

/// Fixed electronic overhead per layer boundary (activation buffering,
/// pooling, control hand-off); calibration constant.
pub const LAYER_OVERHEAD_NS: f64 = 100.0;

/// Per-inference latency breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InferenceLatency {
    /// Time spent in the CONV VDP pool.
    pub conv_time: Seconds,
    /// Time spent in the FC VDP pool.
    pub fc_time: Seconds,
    /// Electronic inter-layer overhead.
    pub electronic_time: Seconds,
}

impl InferenceLatency {
    /// Total latency of one inference.
    #[must_use]
    pub fn total(&self) -> Seconds {
        self.conv_time + self.fc_time + self.electronic_time
    }
}

/// The paper's headline efficiency metrics for one model on one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InferenceMetrics {
    /// Latency breakdown.
    pub latency: InferenceLatency,
    /// Inferences per second.
    pub fps: f64,
    /// Energy of one inference.
    pub energy_per_inference: Picojoules,
    /// Energy per operand bit processed.
    pub energy_per_bit_pj: f64,
    /// Performance per watt in kilo-FPS per watt.
    pub kfps_per_watt: f64,
    /// Total accelerator power used for the metrics.
    pub power: Watts,
}

/// Computes the inference latency of a workload on a configuration.
///
/// # Errors
///
/// Propagates decomposition errors (which do not occur for valid
/// configurations).
pub fn inference_latency(
    workload: &NetworkWorkload,
    config: &CrossLightConfig,
) -> Result<InferenceLatency> {
    let conv_unit = VdpUnit::conv_unit(config);
    let fc_unit = VdpUnit::fc_unit(config);
    let conv_pass = conv_unit.pass_latency();
    let fc_pass = fc_unit.pass_latency();

    let mut conv_cycles: u64 = 0;
    for layer in &workload.conv_layers {
        conv_cycles += sequential_passes(
            layer.dot_length,
            layer.dot_count,
            config.conv_unit_size,
            config.conv_units,
        )?;
    }
    let mut fc_cycles: u64 = 0;
    for layer in &workload.fc_layers {
        fc_cycles += sequential_passes(
            layer.dot_length,
            layer.dot_count,
            config.fc_unit_size,
            config.fc_units,
        )?;
    }

    Ok(latency_from_cycles(
        conv_pass,
        fc_pass,
        conv_cycles,
        fc_cycles,
        workload.conv_layers.len() + workload.fc_layers.len(),
        workload.towers,
    ))
}

/// The latency formula behind [`inference_latency`]: each pool's sequential
/// unit-cycles times its pass latency, plus [`LAYER_OVERHEAD_NS`] per
/// layer, all once per tower.
///
/// `conv_cycles` and `fc_cycles` are the sums of [`sequential_passes`]
/// over the workload's CONV and FC layers, `layers` counts both kinds, and
/// the pass latencies are the units' [`VdpUnit::pass_latency`].
#[must_use]
pub fn latency_from_cycles(
    conv_pass: Seconds,
    fc_pass: Seconds,
    conv_cycles: u64,
    fc_cycles: u64,
    layers: usize,
    towers: usize,
) -> InferenceLatency {
    let towers = towers as f64;
    let layer_count = layers as f64;
    InferenceLatency {
        conv_time: conv_pass * conv_cycles as f64 * towers,
        fc_time: fc_pass * fc_cycles as f64 * towers,
        electronic_time: Seconds::from_nanos(LAYER_OVERHEAD_NS) * layer_count * towers,
    }
}

/// Combines latency and power into the paper's headline metrics.
///
/// # Errors
///
/// Propagates latency-model errors.
pub fn inference_metrics(
    workload: &NetworkWorkload,
    config: &CrossLightConfig,
    power: &AcceleratorPower,
) -> Result<InferenceMetrics> {
    Ok(metrics_from_latency(
        inference_latency(workload, config)?,
        workload.total_macs(),
        config.resolution_bits,
        power,
    ))
}

/// The metrics formula behind [`inference_metrics`]: FPS, energy per
/// inference and per operand bit, and kFPS/W of one inference of
/// `total_macs` multiply–accumulates at `resolution_bits` taking `latency`
/// on an accelerator drawing `power`.
#[must_use]
pub fn metrics_from_latency(
    latency: InferenceLatency,
    total_macs: u64,
    resolution_bits: u32,
    power: &AcceleratorPower,
) -> InferenceMetrics {
    let total_latency = latency.total();
    let fps = 1.0 / total_latency.value();
    let total_power = power.total_watts();
    let energy_per_inference = Picojoules::from_power_time(power.total(), total_latency);
    let operand_bits = 2.0 * total_macs as f64 * f64::from(resolution_bits);
    let energy_per_bit_pj = if operand_bits > 0.0 {
        energy_per_inference.value() / operand_bits
    } else {
        0.0
    };
    let kfps_per_watt = fps / 1000.0 / total_power.value();
    InferenceMetrics {
        latency,
        fps,
        energy_per_inference,
        energy_per_bit_pj,
        kfps_per_watt,
        power: total_power,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::accelerator_power;
    use crosslight_neural::zoo::PaperModel;

    fn workload(model: PaperModel) -> NetworkWorkload {
        NetworkWorkload::from_spec(&model.spec()).unwrap()
    }

    #[test]
    fn latency_components_sum() {
        let config = CrossLightConfig::paper_best();
        let latency = inference_latency(&workload(PaperModel::Lenet5SignMnist), &config).unwrap();
        let total =
            latency.conv_time.value() + latency.fc_time.value() + latency.electronic_time.value();
        assert!((latency.total().value() - total).abs() < 1e-15);
        assert!(latency.total().value() > 0.0);
    }

    #[test]
    fn bigger_models_take_longer() {
        let config = CrossLightConfig::paper_best();
        let lenet = inference_latency(&workload(PaperModel::Lenet5SignMnist), &config)
            .unwrap()
            .total();
        let cifar = inference_latency(&workload(PaperModel::CnnCifar10), &config)
            .unwrap()
            .total();
        let stl = inference_latency(&workload(PaperModel::CnnStl10), &config)
            .unwrap()
            .total();
        assert!(lenet.value() < cifar.value());
        assert!(cifar.value() < stl.value());
    }

    #[test]
    fn more_units_reduce_latency_and_keep_epb_similar() {
        let small = CrossLightConfig::new(20, 150, 25, 15, crate::config::DesignChoices::default())
            .unwrap();
        let big = CrossLightConfig::paper_best();
        let w = workload(PaperModel::CnnCifar10);
        let lat_small = inference_latency(&w, &small).unwrap().total().value();
        let lat_big = inference_latency(&w, &big).unwrap().total().value();
        assert!(lat_big < lat_small);
        let m_small = inference_metrics(&w, &small, &accelerator_power(&small).unwrap()).unwrap();
        let m_big = inference_metrics(&w, &big, &accelerator_power(&big).unwrap()).unwrap();
        assert!(m_big.fps > m_small.fps);
        // EPB stays within a factor of ~3 (power and latency scale in
        // opposite directions).
        let ratio = m_big.energy_per_bit_pj / m_small.energy_per_bit_pj;
        assert!(ratio > 0.3 && ratio < 3.0, "EPB ratio {ratio}");
    }

    #[test]
    fn metrics_are_internally_consistent() {
        let config = CrossLightConfig::paper_best();
        let power = accelerator_power(&config).unwrap();
        let w = workload(PaperModel::CnnCifar10);
        let m = inference_metrics(&w, &config, &power).unwrap();
        assert!((m.fps - 1.0 / m.latency.total().value()).abs() / m.fps < 1e-9);
        assert!(
            (m.kfps_per_watt - m.fps / 1000.0 / m.power.value()).abs() / m.kfps_per_watt < 1e-9
        );
        // energy = power × time.
        let expected_energy = m.power.value() * m.latency.total().value() * 1e12;
        assert!((m.energy_per_inference.value() - expected_energy).abs() / expected_energy < 1e-9);
        assert!(m.energy_per_bit_pj > 0.0);
    }

    #[test]
    fn dedicated_fc_units_beat_conv_sized_fc_execution() {
        // The paper's argument for separate FC units: forcing FC layers
        // through CONV-sized units increases latency.
        let w = workload(PaperModel::CnnCifar10);
        let with_fc_units = CrossLightConfig::paper_best();
        let conv_only =
            CrossLightConfig::new(20, 20, 100, 60, crate::config::DesignChoices::default())
                .unwrap();
        let fast = inference_latency(&w, &with_fc_units).unwrap().fc_time;
        let slow = inference_latency(&w, &conv_only).unwrap().fc_time;
        assert!(slow.value() > fast.value());
    }
}
