//! Optical loss budget.
//!
//! The paper's evaluation (§V.A) enumerates the per-component photonic losses
//! every optical signal accumulates between the laser and the photodetector:
//! waveguide propagation (1 dB/cm), splitters (0.13 dB each), combiners
//! (0.9 dB each), MR through loss (0.02 dB per off-resonance MR passed), MR
//! modulation loss (0.72 dB when a value is imprinted), microdisk loss
//! (1.22 dB), EO tuning loss (6 dB/cm of tuned waveguide) and TO tuning loss
//! (1 dB/cm).  The budget charges every term but the tuning losses: no
//! modelled path has a tuned-waveguide length to charge them on.  The total
//! loss feeds directly into the laser power model, Eq. (7), so an
//! architecture that forces light past many devices pays for it in laser
//! power.

use serde::{Deserialize, Serialize};

use crate::units::{DecibelLoss, Micrometers};

/// Per-component loss coefficients (paper §V.A values by default).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LossModel {
    /// Waveguide propagation loss per centimetre.
    pub propagation_db_per_cm: f64,
    /// Loss of one optical splitter stage.
    pub splitter_db: f64,
    /// Loss of one optical combiner stage.
    pub combiner_db: f64,
    /// Through loss of one off-resonance MR on the bus.
    pub mr_through_db: f64,
    /// Modulation loss of one MR actively imprinting a value.
    pub mr_modulation_db: f64,
    /// Insertion loss of one microdisk (HolyLight devices).
    pub microdisk_db: f64,
}

impl LossModel {
    /// The loss coefficients used in the paper's evaluation (§V.A).
    #[must_use]
    pub fn paper() -> Self {
        Self {
            propagation_db_per_cm: 1.0,
            splitter_db: 0.13,
            combiner_db: 0.9,
            mr_through_db: 0.02,
            mr_modulation_db: 0.72,
            microdisk_db: 1.22,
        }
    }
}

impl Default for LossModel {
    fn default() -> Self {
        Self::paper()
    }
}

/// An itemised optical-loss budget along one laser-to-detector path.
///
/// Build it up with the `add_*` methods and read the total with
/// [`LossBudget::total`].
///
/// # Example
///
/// ```
/// use crosslight_photonics::loss::{LossBudget, LossModel};
/// use crosslight_photonics::units::Micrometers;
///
/// let model = LossModel::paper();
/// let mut budget = LossBudget::new(model);
/// budget.add_propagation(Micrometers::new(2_000.0)); // 2 mm of waveguide
/// budget.add_splitters(2);
/// budget.add_mr_through(14);
/// budget.add_mr_modulation(1);
/// assert!(budget.total().value() > 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LossBudget {
    model: LossModel,
    propagation: DecibelLoss,
    splitters: DecibelLoss,
    combiners: DecibelLoss,
    mr_through: DecibelLoss,
    mr_modulation: DecibelLoss,
    microdisks: DecibelLoss,
}

impl LossBudget {
    /// Creates an empty budget using the given loss coefficients.
    #[must_use]
    pub fn new(model: LossModel) -> Self {
        Self {
            model,
            propagation: DecibelLoss::new(0.0),
            splitters: DecibelLoss::new(0.0),
            combiners: DecibelLoss::new(0.0),
            mr_through: DecibelLoss::new(0.0),
            mr_modulation: DecibelLoss::new(0.0),
            microdisks: DecibelLoss::new(0.0),
        }
    }

    /// Returns the loss coefficients in use.
    #[must_use]
    pub fn model(&self) -> &LossModel {
        &self.model
    }

    /// Adds waveguide propagation loss over `length` of waveguide.
    pub fn add_propagation(&mut self, length: Micrometers) -> &mut Self {
        self.propagation +=
            DecibelLoss::new(self.model.propagation_db_per_cm * length.to_centimeters());
        self
    }

    /// Adds `count` splitter stages.
    pub fn add_splitters(&mut self, count: usize) -> &mut Self {
        self.splitters += DecibelLoss::new(self.model.splitter_db * count as f64);
        self
    }

    /// Adds `count` combiner stages.
    pub fn add_combiners(&mut self, count: usize) -> &mut Self {
        self.combiners += DecibelLoss::new(self.model.combiner_db * count as f64);
        self
    }

    /// Adds the through loss of passing `count` off-resonance MRs.
    pub fn add_mr_through(&mut self, count: usize) -> &mut Self {
        self.mr_through += DecibelLoss::new(self.model.mr_through_db * count as f64);
        self
    }

    /// Adds the modulation loss of `count` MRs actively imprinting values.
    pub fn add_mr_modulation(&mut self, count: usize) -> &mut Self {
        self.mr_modulation += DecibelLoss::new(self.model.mr_modulation_db * count as f64);
        self
    }

    /// Adds the insertion loss of `count` microdisks (HolyLight path).
    pub fn add_microdisks(&mut self, count: usize) -> &mut Self {
        self.microdisks += DecibelLoss::new(self.model.microdisk_db * count as f64);
        self
    }

    /// Total accumulated optical loss.
    #[must_use]
    pub fn total(&self) -> DecibelLoss {
        self.propagation
            + self.splitters
            + self.combiners
            + self.mr_through
            + self.mr_modulation
            + self.microdisks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_coefficients() {
        let m = LossModel::paper();
        assert!((m.propagation_db_per_cm - 1.0).abs() < 1e-12);
        assert!((m.splitter_db - 0.13).abs() < 1e-12);
        assert!((m.combiner_db - 0.9).abs() < 1e-12);
        assert!((m.mr_through_db - 0.02).abs() < 1e-12);
        assert!((m.mr_modulation_db - 0.72).abs() < 1e-12);
        assert!((m.microdisk_db - 1.22).abs() < 1e-12);
    }

    #[test]
    fn propagation_loss_scales_with_length() {
        let mut budget = LossBudget::new(LossModel::paper());
        budget.add_propagation(Micrometers::new(10_000.0)); // 1 cm
        assert!((budget.total().value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn budget_accumulates_all_components() {
        let mut budget = LossBudget::new(LossModel::paper());
        budget
            .add_propagation(Micrometers::new(5_000.0)) // 0.5 dB
            .add_splitters(4) // 0.52 dB
            .add_combiners(1) // 0.9 dB
            .add_mr_through(14) // 0.28 dB
            .add_mr_modulation(1) // 0.72 dB
            .add_microdisks(0);
        let expected = 0.5 + 0.52 + 0.9 + 0.28 + 0.72;
        assert!((budget.total().value() - expected).abs() < 1e-9);
    }

    #[test]
    fn more_mrs_per_arm_increase_loss_monotonically() {
        let loss_for = |mrs: usize| {
            let mut b = LossBudget::new(LossModel::paper());
            b.add_mr_through(mrs.saturating_sub(1)).add_mr_modulation(1);
            b.total().value()
        };
        let mut prev = loss_for(1);
        for mrs in 2..=30 {
            let next = loss_for(mrs);
            assert!(next > prev, "loss must grow with MR count");
            prev = next;
        }
    }

    #[test]
    fn microdisk_path_is_lossier_than_mr_path() {
        // A HolyLight weight (8 microdisks) vs a CrossLight weight (1 MR
        // modulation + 14 through).
        let mut holylight = LossBudget::new(LossModel::paper());
        holylight.add_microdisks(8);
        let mut crosslight = LossBudget::new(LossModel::paper());
        crosslight.add_mr_modulation(1).add_mr_through(14);
        assert!(holylight.total() > crosslight.total());
    }
}
