//! Top-level CrossLight accelerator simulator.
//!
//! Brings together the power, area, performance and resolution models into a
//! single report per (configuration, workload) pair, and provides the
//! multi-model averaging the paper uses for Table III.

use serde::{Deserialize, Serialize};

use crosslight_neural::workload::NetworkWorkload;
use crosslight_photonics::units::{SquareMillimeters, Watts};

use crate::area::{accelerator_area, AcceleratorArea};
use crate::cache::ModelCache;
use crate::config::CrossLightConfig;
use crate::error::Result;
use crate::performance::{inference_metrics, InferenceMetrics};
use crate::power::{accelerator_power, AcceleratorPower};
use crate::resolution::achievable_resolution_bits;

/// Full evaluation of one configuration on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimulationReport {
    /// Power breakdown (workload independent — the accelerator is provisioned
    /// for its full configuration).
    pub power: AcceleratorPower,
    /// Area breakdown.
    pub area: AcceleratorArea,
    /// Latency / throughput / energy metrics for the workload.
    pub metrics: InferenceMetrics,
    /// Achievable weight/activation resolution of the configured MR banks.
    pub resolution_bits: u32,
}

/// Averages of the headline metrics over several workloads (how the paper
/// reports Table III).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AverageMetrics {
    /// Mean frames per second.
    pub fps: f64,
    /// Mean energy per bit (pJ/bit).
    pub energy_per_bit_pj: f64,
    /// Mean performance per watt (kFPS/W).
    pub kfps_per_watt: f64,
    /// Accelerator power (identical across workloads).
    pub power: Watts,
    /// Accelerator area (identical across workloads).
    pub area: SquareMillimeters,
}

impl AverageMetrics {
    /// Averages the headline metrics of per-workload reports, in slice order.
    ///
    /// This is the single accumulation path shared by
    /// [`CrossLightSimulator::evaluate_average`] and the runtime layer, so
    /// batched evaluation reproduces serial averages bit-for-bit.
    ///
    /// All reports must come from the same configuration: power and area are
    /// workload-independent, so they are taken from the first report (the
    /// same convention as `AcceleratorReport::average` in the baselines
    /// crate).
    ///
    /// # Errors
    ///
    /// Returns an error if `reports` is empty.
    pub fn from_reports(reports: &[SimulationReport]) -> Result<Self> {
        let Some(first) = reports.first() else {
            return Err(crate::error::ArchitectureError::MappingFailed {
                reason: "cannot average over an empty workload set".into(),
            });
        };
        Ok(Self {
            fps: Self::column_mean(reports, |r| r.metrics.fps)?,
            energy_per_bit_pj: Self::column_mean(reports, |r| r.metrics.energy_per_bit_pj)?,
            kfps_per_watt: Self::column_mean(reports, |r| r.metrics.kfps_per_watt)?,
            power: first.power.total_watts(),
            area: first.area.total(),
        })
    }

    /// Sums `column` over `rows` in slice order and divides once: the single
    /// accumulation path behind every averaged table in the workspace
    /// ([`from_reports`](Self::from_reports) here, `AcceleratorReport::average`
    /// in the baselines crate), so all of them agree bit-for-bit on how a
    /// mean is taken.
    ///
    /// # Errors
    ///
    /// Returns an error if `rows` is empty.
    pub fn column_mean<T>(rows: &[T], column: impl Fn(&T) -> f64) -> Result<f64> {
        if rows.is_empty() {
            return Err(crate::error::ArchitectureError::MappingFailed {
                reason: "cannot average over an empty workload set".into(),
            });
        }
        let mut sum = 0.0;
        for row in rows {
            sum += column(row);
        }
        Ok(sum / rows.len() as f64)
    }
}

/// A simulator with its workload-independent outputs precomputed.
///
/// Power, area and achievable resolution depend only on the configuration,
/// so evaluating many workloads against one configuration (design-space
/// sweeps, the runtime's hot loop) should pay for them once.  Produced by
/// [`CrossLightSimulator::prepare`]; [`PreparedSimulator::evaluate`] then
/// only computes the per-workload inference metrics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PreparedSimulator {
    config: CrossLightConfig,
    power: AcceleratorPower,
    area: AcceleratorArea,
    resolution_bits: u32,
}

impl PreparedSimulator {
    /// Assembles a prepared simulator from already-computed breakdowns (the
    /// `ModelCache` construction path).  The parts must all describe
    /// `config`, which `CrossLightSimulator::prepare` and
    /// `ModelCache::prepare` guarantee.
    pub(crate) fn from_parts(
        config: CrossLightConfig,
        power: AcceleratorPower,
        area: AcceleratorArea,
        resolution_bits: u32,
    ) -> Self {
        Self {
            config,
            power,
            area,
            resolution_bits,
        }
    }

    /// Evaluates one workload, reusing the precomputed breakdowns.
    ///
    /// # Errors
    ///
    /// Propagates model errors (which do not occur for valid configurations).
    pub fn evaluate(&self, workload: &NetworkWorkload) -> Result<SimulationReport> {
        let metrics = inference_metrics(workload, &self.config, &self.power)?;
        Ok(SimulationReport {
            power: self.power,
            area: self.area,
            metrics,
            resolution_bits: self.resolution_bits,
        })
    }
}

/// The CrossLight accelerator simulator.
///
/// # Example
///
/// ```
/// use crosslight_core::config::CrossLightConfig;
/// use crosslight_core::simulator::CrossLightSimulator;
/// use crosslight_neural::workload::NetworkWorkload;
/// use crosslight_neural::zoo::PaperModel;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let simulator = CrossLightSimulator::new(CrossLightConfig::paper_best());
/// let workload = NetworkWorkload::from_spec(&PaperModel::Lenet5SignMnist.spec())?;
/// let report = simulator.evaluate(&workload)?;
/// assert_eq!(report.resolution_bits, 16);
/// assert!(report.metrics.fps > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrossLightSimulator {
    config: CrossLightConfig,
}

impl CrossLightSimulator {
    /// Creates a simulator for a configuration.
    #[must_use]
    pub fn new(config: CrossLightConfig) -> Self {
        Self { config }
    }

    /// Returns the configuration being simulated.
    #[must_use]
    pub fn config(&self) -> &CrossLightConfig {
        &self.config
    }

    /// Precomputes the workload-independent outputs (power, area, achievable
    /// resolution) so many workloads can be evaluated without redoing them.
    ///
    /// # Errors
    ///
    /// Propagates model errors (which do not occur for valid configurations).
    pub fn prepare(&self) -> Result<PreparedSimulator> {
        Ok(PreparedSimulator {
            config: self.config,
            power: accelerator_power(&self.config)?,
            area: accelerator_area(&self.config),
            resolution_bits: achievable_resolution_bits(&self.config)?,
        })
    }

    /// [`CrossLightSimulator::prepare`] through a shared [`ModelCache`]: a
    /// configuration already seen by the cache costs one map probe, and
    /// configurations sharing `(N, K, design)` sub-configs share the
    /// expensive per-unit models.  Bit-identical to the uncached `prepare`.
    ///
    /// # Errors
    ///
    /// Propagates model errors (which do not occur for valid configurations).
    pub fn prepare_with(&self, cache: &ModelCache) -> Result<PreparedSimulator> {
        cache.prepare(&self.config)
    }

    /// Evaluates one workload.
    ///
    /// # Errors
    ///
    /// Propagates model errors (which do not occur for valid configurations).
    pub fn evaluate(&self, workload: &NetworkWorkload) -> Result<SimulationReport> {
        self.prepare()?.evaluate(workload)
    }

    /// Computes only the per-workload inference metrics against an
    /// already-computed power breakdown — the split behind
    /// [`PreparedSimulator::evaluate`], exposed for callers that manage
    /// their own power caching.  `power` must have been computed for *this*
    /// configuration (as [`CrossLightSimulator::prepare`] does); passing a
    /// breakdown from another configuration yields metrics for a machine
    /// that does not exist.
    ///
    /// # Errors
    ///
    /// Propagates model errors (which do not occur for valid configurations).
    pub fn evaluate_metrics(
        &self,
        workload: &NetworkWorkload,
        power: &AcceleratorPower,
    ) -> Result<InferenceMetrics> {
        inference_metrics(workload, &self.config, power)
    }

    /// Evaluates several workloads and averages the headline metrics, as the
    /// paper does for its Table III rows.  The workload-independent power and
    /// area breakdowns are computed once per configuration, not per workload.
    ///
    /// # Errors
    ///
    /// Propagates model errors; returns an error if `workloads` is empty.
    pub fn evaluate_average(&self, workloads: &[NetworkWorkload]) -> Result<AverageMetrics> {
        if workloads.is_empty() {
            return Err(crate::error::ArchitectureError::MappingFailed {
                reason: "cannot average over an empty workload set".into(),
            });
        }
        Self::average_with_prepared(&self.prepare()?, workloads)
    }

    /// [`CrossLightSimulator::evaluate_average`] through a shared
    /// [`ModelCache`] — the hot loop of design-space sweeps.  Bit-identical
    /// to the uncached path (same prepared breakdowns, same accumulation).
    ///
    /// # Errors
    ///
    /// Propagates model errors; returns an error if `workloads` is empty.
    pub fn evaluate_average_with(
        &self,
        workloads: &[NetworkWorkload],
        cache: &ModelCache,
    ) -> Result<AverageMetrics> {
        if workloads.is_empty() {
            return Err(crate::error::ArchitectureError::MappingFailed {
                reason: "cannot average over an empty workload set".into(),
            });
        }
        Self::average_with_prepared(&self.prepare_with(cache)?, workloads)
    }

    /// Shared tail of the `evaluate_average*` family: per-workload reports in
    /// slice order through one prepared simulator, then the single
    /// accumulation path.
    fn average_with_prepared(
        prepared: &PreparedSimulator,
        workloads: &[NetworkWorkload],
    ) -> Result<AverageMetrics> {
        let reports: Vec<SimulationReport> = workloads
            .iter()
            .map(|w| prepared.evaluate(w))
            .collect::<Result<_>>()?;
        AverageMetrics::from_reports(&reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::CrossLightVariant;
    use crosslight_neural::zoo::PaperModel;

    fn all_workloads() -> Vec<NetworkWorkload> {
        PaperModel::all()
            .iter()
            .map(|m| NetworkWorkload::from_spec(&m.spec()).unwrap())
            .collect()
    }

    #[test]
    fn report_fields_are_populated_and_consistent() {
        let simulator = CrossLightSimulator::new(CrossLightConfig::paper_best());
        let report = simulator
            .evaluate(&NetworkWorkload::from_spec(&PaperModel::CnnCifar10.spec()).unwrap())
            .unwrap();
        assert_eq!(report.resolution_bits, 16);
        assert!(report.metrics.fps > 0.0);
        assert!(report.power.total_watts().value() > 0.0);
        assert!(report.area.total().value() > 0.0);
        assert_eq!(simulator.config().conv_units, 100);
    }

    #[test]
    fn average_over_the_four_models_is_finite() {
        let simulator = CrossLightSimulator::new(CrossLightConfig::paper_best());
        let avg = simulator.evaluate_average(&all_workloads()).unwrap();
        assert!(avg.fps.is_finite() && avg.fps > 0.0);
        assert!(avg.energy_per_bit_pj.is_finite() && avg.energy_per_bit_pj > 0.0);
        assert!(avg.kfps_per_watt.is_finite() && avg.kfps_per_watt > 0.0);
        assert!(simulator.evaluate_average(&[]).is_err());
    }

    #[test]
    fn prepared_evaluation_matches_direct_evaluation_exactly() {
        for variant in CrossLightVariant::all() {
            let simulator = CrossLightSimulator::new(variant.config());
            let prepared = simulator.prepare().unwrap();
            for workload in all_workloads() {
                let direct = simulator.evaluate(&workload).unwrap();
                let split = prepared.evaluate(&workload).unwrap();
                assert_eq!(direct, split);
                let metrics = simulator
                    .evaluate_metrics(&workload, &prepared.power)
                    .unwrap();
                assert_eq!(metrics, direct.metrics);
            }
            assert_eq!(&prepared.config, simulator.config());
            assert_eq!(prepared.resolution_bits, 16);
            assert!(prepared.area.total().value() > 0.0);
        }
    }

    #[test]
    fn cached_paths_are_bit_identical_to_uncached_ones() {
        let cache = ModelCache::new();
        let workloads = all_workloads();
        for variant in CrossLightVariant::all() {
            let simulator = CrossLightSimulator::new(variant.config());
            // Twice per variant: the second pass is all cache hits.
            for _ in 0..2 {
                assert_eq!(
                    simulator.prepare_with(&cache).unwrap(),
                    simulator.prepare().unwrap()
                );
                assert_eq!(
                    simulator.evaluate_average_with(&workloads, &cache).unwrap(),
                    simulator.evaluate_average(&workloads).unwrap()
                );
            }
        }
        assert!(CrossLightSimulator::new(CrossLightConfig::paper_best())
            .evaluate_average_with(&[], &cache)
            .is_err());
        let stats = cache.stats();
        assert_eq!(stats.prepared_configs, 4);
        assert!(stats.hits > 0);
    }

    #[test]
    fn from_reports_matches_evaluate_average() {
        let simulator = CrossLightSimulator::new(CrossLightConfig::paper_best());
        let workloads = all_workloads();
        let reports: Vec<SimulationReport> = workloads
            .iter()
            .map(|w| simulator.evaluate(w).unwrap())
            .collect();
        let from_reports = AverageMetrics::from_reports(&reports).unwrap();
        let direct = simulator.evaluate_average(&workloads).unwrap();
        assert_eq!(from_reports, direct);
        assert!(AverageMetrics::from_reports(&[]).is_err());
    }

    #[test]
    fn variant_efficiency_ordering_matches_table_iii() {
        let workloads = all_workloads();
        let metric = |v: CrossLightVariant| {
            CrossLightSimulator::new(v.config())
                .evaluate_average(&workloads)
                .unwrap()
        };
        let base = metric(CrossLightVariant::Base);
        let base_ted = metric(CrossLightVariant::BaseTed);
        let opt = metric(CrossLightVariant::Opt);
        let opt_ted = metric(CrossLightVariant::OptTed);
        // kFPS/W: base < base_TED < opt_TED and base < opt < opt_TED.
        assert!(base.kfps_per_watt < base_ted.kfps_per_watt);
        assert!(base.kfps_per_watt < opt.kfps_per_watt);
        assert!(base_ted.kfps_per_watt < opt_ted.kfps_per_watt);
        assert!(opt.kfps_per_watt < opt_ted.kfps_per_watt);
        // EPB the other way around.
        assert!(base.energy_per_bit_pj > base_ted.energy_per_bit_pj);
        assert!(base_ted.energy_per_bit_pj > opt_ted.energy_per_bit_pj);
        assert!(opt.energy_per_bit_pj > opt_ted.energy_per_bit_pj);
    }
}
