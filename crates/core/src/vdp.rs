//! Vector dot product (VDP) unit model.
//!
//! A VDP unit (paper Fig. 3, §IV.C.2) executes one `size`-element dot product
//! per pass.  Internally it is organised as `ceil(size / 15)` parallel arms;
//! each arm carries two 15-MR banks (one imprinting activations, one
//! imprinting weights) on a shared bus, a balanced photodetector + TIA that
//! sums the element-wise products of its chunk, and a VCSEL that regenerates
//! the partial sum into the optical domain so a final photodetector can
//! accumulate across arms (§IV.C.3).
//!
//! The model exposes the three quantities the architecture simulator needs:
//! the per-pass latency, the per-unit optical/electrical power, and the loss
//! budget that sets the laser power.

use serde::{Deserialize, Serialize};

use crosslight_photonics::devices::{
    eo_tuner_latency, photodetector, tia, to_tuner_latency, vcsel, Transceiver,
};
use crosslight_photonics::laser::LaserPowerModel;
use crosslight_photonics::loss::{LossBudget, LossModel};
use crosslight_photonics::units::{Micrometers, MilliWatts, Seconds};
use crosslight_tuning::power::{estimate_bank_tuning_power, BankTuningConfig, ValueTuning};

use crate::config::{CrossLightConfig, DesignChoices};
use crate::error::Result;

/// Conversion time of one output sample through the ADC at the transceiver's
/// peak rate (16 bits at 56 Gb/s).
const ADC_SAMPLE_BITS: f64 = 16.0;

/// Waveguide routing overhead per arm beyond the MR banks themselves
/// (feeder and collection waveguides).
const ARM_ROUTING_UM: f64 = 200.0;

/// A configured VDP unit of a given size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VdpUnit {
    /// Dot-product size the unit supports per pass.
    pub size: usize,
    /// MRs per bank (wavelengths per arm).
    pub mrs_per_bank: usize,
    /// Design choices inherited from the accelerator configuration.
    pub design: DesignChoices,
}

/// Per-unit derived quantities.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VdpUnitReport {
    /// Number of parallel arms.
    pub arms: usize,
    /// Latency of one pass (imprint → detect → accumulate → convert).
    pub pass_latency: Seconds,
    /// Electrical laser power feeding the unit.
    pub laser_power: MilliWatts,
    /// Tuning power of all MR banks in the unit.
    pub tuning_power: MilliWatts,
    /// Photodetector + TIA + VCSEL power of the unit.
    pub detection_power: MilliWatts,
    /// ADC/DAC transceiver power of the unit at its operating rate.
    pub conversion_power: MilliWatts,
}

impl VdpUnitReport {
    /// Total electrical power of the unit.
    #[must_use]
    pub fn total_power(&self) -> MilliWatts {
        self.laser_power + self.tuning_power + self.detection_power + self.conversion_power
    }
}

impl VdpUnit {
    /// Creates a CONV-pool unit from an accelerator configuration.
    #[must_use]
    pub fn conv_unit(config: &CrossLightConfig) -> Self {
        Self {
            size: config.conv_unit_size,
            mrs_per_bank: config.mrs_per_bank,
            design: config.design,
        }
    }

    /// Creates an FC-pool unit from an accelerator configuration.
    #[must_use]
    pub fn fc_unit(config: &CrossLightConfig) -> Self {
        Self {
            size: config.fc_unit_size,
            mrs_per_bank: config.mrs_per_bank,
            design: config.design,
        }
    }

    /// Number of parallel arms in the unit.
    #[must_use]
    pub fn arms(&self) -> usize {
        self.size.div_ceil(self.mrs_per_bank).max(1)
    }

    /// Latency of one pass through the unit.
    ///
    /// A pass imprints the chunk values on the MR banks, lets the light
    /// traverse banks and be summed at the arm photodetector, regenerates
    /// partial sums through VCSELs, accumulates them on the unit
    /// photodetector, and converts the result.
    #[must_use]
    pub fn pass_latency(&self) -> Seconds {
        let imprint = match self.design.value_tuning {
            ValueTuning::ElectroOptic => eo_tuner_latency(),
            ValueTuning::ThermoOptic => to_tuner_latency(),
        };
        let arm_detection = photodetector().latency + tia().latency;
        let cross_arm = if self.arms() > 1 {
            vcsel().latency + photodetector().latency + tia().latency
        } else {
            Seconds::new(0.0)
        };
        let conversion =
            Seconds::new(ADC_SAMPLE_BITS / (Transceiver::isscc2019().max_rate_gbps * 1e9));
        imprint + arm_detection + cross_arm + conversion
    }

    /// Optical loss budget of one arm's laser-to-detector path.
    #[must_use]
    pub fn arm_loss_budget(&self) -> LossBudget {
        let mut budget = LossBudget::new(LossModel::paper());
        // Two banks per arm on the same bus; spacing-determined bus length plus
        // fixed routing.
        let bank_length =
            self.design.mr_spacing.value() * (2 * self.mrs_per_bank).saturating_sub(1) as f64;
        budget.add_propagation(Micrometers::new(bank_length + ARM_ROUTING_UM));
        // A wavelength passes every other MR of both banks off-resonance and is
        // modulated by its own activation MR and weight MR.
        budget.add_mr_through(2 * self.mrs_per_bank.saturating_sub(1));
        budget.add_mr_modulation(2);
        // Splitting the unit's input light across arms: one excess splitter
        // stage per power-of-two of fan-out, plus the final combiner feeding
        // the arm photodetector.
        let split_stages = (self.arms() as f64).log2().ceil() as usize;
        budget.add_splitters(split_stages.max(1));
        budget.add_combiners(1);
        budget
    }

    /// Electrical laser power feeding the whole unit (all wavelengths), taking
    /// the arm power split and wavelength reuse into account.
    ///
    /// # Errors
    ///
    /// Propagates laser-model errors (which do not occur for valid units).
    pub fn laser_power(&self) -> Result<MilliWatts> {
        let model = LaserPowerModel::paper();
        let budget = self.arm_loss_budget();
        // Eq. (7) per wavelength: detector sensitivity + path loss + WDM
        // penalty; feeding `arms` arms in parallel divides the laser power, so
        // it enters as an extra 10·log10(arms) dB.
        let mut loss = budget.total();
        loss += crosslight_photonics::units::DecibelLoss::new(10.0 * (self.arms() as f64).log10());
        let per_wavelength = model.required_electrical_power(loss, self.mrs_per_bank)?;
        let lasers = self
            .design
            .wavelength_reuse
            .lasers_required(self.size, self.mrs_per_bank);
        Ok(per_wavelength * lasers as f64)
    }

    /// Tuning power of all MR banks in the unit (two banks per arm).
    ///
    /// # Errors
    ///
    /// Propagates tuning-model errors (which do not occur for valid units).
    pub fn tuning_power(&self) -> Result<MilliWatts> {
        Ok(self.bank_tuning_power()? * (2 * self.arms()) as f64)
    }

    /// Tuning power of one of the unit's MR banks: a function of the bank
    /// size and the design alone (the 15×15 TED eigendecomposition), not of
    /// the unit size.
    pub(crate) fn bank_tuning_power(&self) -> Result<MilliWatts> {
        let bank_config = BankTuningConfig {
            mr_count: self.mrs_per_bank,
            spacing: self.design.mr_spacing,
            geometry: self.design.geometry,
            compensation: self.design.compensation,
            value_tuning: self.design.value_tuning,
        };
        Ok(estimate_bank_tuning_power(&bank_config)?.total())
    }

    /// Photodetector, TIA and VCSEL power of the unit.
    #[must_use]
    pub fn detection_power(&self) -> MilliWatts {
        let arms = self.arms() as f64;
        // One balanced PD + TIA per arm.
        let per_arm = photodetector().power + tia().power;
        // Partial-sum regeneration and accumulation only exist for multi-arm
        // units: one VCSEL per arm plus one accumulation PD + TIA.
        let cross_arm = if self.arms() > 1 {
            vcsel().power * arms + photodetector().power + tia().power
        } else {
            MilliWatts::new(0.0)
        };
        per_arm * arms + cross_arm
    }

    /// ADC/DAC transceiver power at the unit's operating sample rate.
    #[must_use]
    pub fn conversion_power(&self) -> MilliWatts {
        let sample_rate_hz = 1.0 / self.pass_latency().value();
        let rate_gbps = sample_rate_hz * ADC_SAMPLE_BITS / 1e9;
        Transceiver::isscc2019().power_at_rate(rate_gbps)
    }

    /// Full per-unit report.
    ///
    /// # Errors
    ///
    /// Propagates laser/tuning model errors (which do not occur for valid
    /// units).
    pub fn report(&self) -> Result<VdpUnitReport> {
        self.report_with_bank(self.bank_tuning_power()?)
    }

    /// [`VdpUnit::report`] around a known [`VdpUnit::bank_tuning_power`],
    /// with the same float operations, so the report is bit-identical.
    pub(crate) fn report_with_bank(&self, bank_tuning_power: MilliWatts) -> Result<VdpUnitReport> {
        Ok(VdpUnitReport {
            arms: self.arms(),
            pass_latency: self.pass_latency(),
            laser_power: self.laser_power()?,
            tuning_power: bank_tuning_power * (2 * self.arms()) as f64,
            detection_power: self.detection_power(),
            conversion_power: self.conversion_power(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crosslight_photonics::wdm::WavelengthReuse;
    use crosslight_tuning::power::CrosstalkCompensation;

    fn best() -> CrossLightConfig {
        CrossLightConfig::paper_best()
    }

    #[test]
    fn arm_counts() {
        let conv = VdpUnit::conv_unit(&best());
        let fc = VdpUnit::fc_unit(&best());
        assert_eq!(conv.arms(), 2);
        assert_eq!(fc.arms(), 10);
    }

    #[test]
    fn pass_latency_is_dominated_by_eo_imprinting() {
        let conv = VdpUnit::conv_unit(&best());
        let latency = conv.pass_latency().to_nanos();
        assert!(latency > 20.0 && latency < 60.0, "latency {latency} ns");
    }

    #[test]
    fn thermo_optic_imprinting_is_orders_of_magnitude_slower() {
        let mut config = best();
        config.design.value_tuning = ValueTuning::ThermoOptic;
        let slow = VdpUnit::conv_unit(&config).pass_latency();
        let fast = VdpUnit::conv_unit(&best()).pass_latency();
        assert!(slow.value() > 50.0 * fast.value());
    }

    #[test]
    fn fc_units_need_more_laser_power_than_conv_units() {
        let conv = VdpUnit::conv_unit(&best()).laser_power().unwrap();
        let fc = VdpUnit::fc_unit(&best()).laser_power().unwrap();
        assert!(fc.value() > conv.value());
    }

    #[test]
    fn wavelength_reuse_cuts_laser_power() {
        let with_reuse = VdpUnit::fc_unit(&best()).laser_power().unwrap();
        let mut config = best();
        config.design.wavelength_reuse = WavelengthReuse::PerElement;
        let without = VdpUnit::fc_unit(&config).laser_power().unwrap();
        assert!(
            without.value() > 5.0 * with_reuse.value(),
            "per-element: {without}, reuse: {with_reuse}"
        );
    }

    #[test]
    fn ted_reduces_unit_tuning_power() {
        let ted = VdpUnit::fc_unit(&best()).tuning_power().unwrap();
        let mut config = best();
        config.design.compensation = CrosstalkCompensation::Naive;
        let naive = VdpUnit::fc_unit(&config).tuning_power().unwrap();
        assert!(naive.value() > ted.value());
    }

    #[test]
    fn report_totals_are_consistent() {
        let unit = VdpUnit::fc_unit(&best());
        let report = unit.report().unwrap();
        let expected = report.laser_power.value()
            + report.tuning_power.value()
            + report.detection_power.value()
            + report.conversion_power.value();
        assert!((report.total_power().value() - expected).abs() < 1e-9);
        assert_eq!(report.arms, 10);
        assert!(report.total_power().value() > 0.0);
    }

    #[test]
    fn loss_grows_with_unit_size() {
        let small = VdpUnit {
            size: 15,
            mrs_per_bank: 15,
            design: DesignChoices::default(),
        };
        let large = VdpUnit {
            size: 150,
            mrs_per_bank: 15,
            design: DesignChoices::default(),
        };
        // The per-arm path loss is the same, but the larger unit pays more in
        // the split across arms, so its laser power requirement is higher.
        assert!(large.laser_power().unwrap().value() > small.laser_power().unwrap().value());
        assert!(small.arm_loss_budget().total().value() <= large.arm_loss_budget().total().value());
    }

    #[test]
    fn single_arm_unit_skips_cross_arm_devices() {
        let single = VdpUnit {
            size: 10,
            mrs_per_bank: 15,
            design: DesignChoices::default(),
        };
        assert_eq!(single.arms(), 1);
        let multi = VdpUnit {
            size: 30,
            mrs_per_bank: 15,
            design: DesignChoices::default(),
        };
        assert!(single.detection_power().value() < multi.detection_power().value());
        assert!(single.pass_latency().value() < multi.pass_latency().value());
    }
}
