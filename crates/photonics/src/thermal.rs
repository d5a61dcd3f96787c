//! Thermal crosstalk between microring resonators.
//!
//! Thermo-optic tuning works by heating an MR with a microheater; that heat
//! diffuses laterally and perturbs the phase (and hence resonance) of
//! neighbouring MRs.  The paper characterises this with a *phase crosstalk
//! ratio* — the fraction of a heater's induced phase shift that leaks into an
//! adjacent device — measured with a commercial 3-D heat-transport solver
//! (Lumerical HEAT) on the fabricated MRs (Fig. 4, orange line).
//!
//! Here the solver is replaced by the standard exponential-decay model of
//! lateral thermal coupling in SOI (also observed in De et al., IEEE Access
//! 2020): `ratio(d) = exp(−d / d₀)` with a decay length calibrated so the
//! curve matches the paper's Fig. 4 trend (near-total coupling below ~2 µm,
//! a few percent at 10 µm, negligible beyond ~20 µm).
//!
//! The module also builds the **crosstalk matrix** of an MR bank, which is
//! exactly the object the TED tuning method (crate `crosslight-tuning`)
//! diagonalises to cancel crosstalk collectively.

use serde::{Deserialize, Serialize};

use crate::error::{PhotonicsError, Result};
use crate::units::{Micrometers, Radians};

/// Default lateral thermal decay length in SOI used by the reproduction.
///
/// Calibrated so the phase-crosstalk ratio is ≈29% at 5 µm spacing (the
/// paper's chosen operating point) and <1% beyond ~19 µm, matching the Fig. 4
/// exponential trend.
pub const DEFAULT_DECAY_LENGTH_UM: f64 = 4.0;

/// Spacing traditionally required to avoid thermal crosstalk without active
/// cancellation (paper §IV.A: 120–200 µm).
pub const NAIVE_SAFE_SPACING_UM: f64 = 120.0;

/// Exponential model of the phase-crosstalk ratio between two MRs as a
/// function of their centre-to-centre distance.
///
/// # Example
///
/// ```
/// use crosslight_photonics::thermal::ThermalCrosstalkModel;
/// use crosslight_photonics::units::Micrometers;
///
/// let model = ThermalCrosstalkModel::default();
/// let near = model.phase_crosstalk_ratio(Micrometers::new(2.0));
/// let far = model.phase_crosstalk_ratio(Micrometers::new(20.0));
/// assert!(near > 0.5 && far < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalCrosstalkModel {
    decay_length: Micrometers,
}

impl ThermalCrosstalkModel {
    /// Creates a model with an explicit decay length.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::InvalidParameter`] if the decay length is not
    /// strictly positive.
    pub fn new(decay_length: Micrometers) -> Result<Self> {
        if decay_length.value() <= 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "decay_length",
                reason: format!("decay length must be positive, got {decay_length}"),
            });
        }
        Ok(Self { decay_length })
    }

    /// Returns the calibrated decay length.
    #[must_use]
    pub fn decay_length(&self) -> Micrometers {
        self.decay_length
    }

    /// Phase-crosstalk ratio between two MRs separated by `distance`
    /// (1.0 at zero distance, decaying exponentially).
    #[must_use]
    pub fn phase_crosstalk_ratio(&self, distance: Micrometers) -> f64 {
        let d = distance.value().max(0.0);
        (-d / self.decay_length.value()).exp()
    }

    /// Crosstalk matrix `C` for a bank of `count` equally spaced MRs:
    /// `C[i][j] = ratio(|i−j| · spacing)`, with unit diagonal.
    ///
    /// This symmetric matrix maps the vector of heater-induced phase shifts to
    /// the vector of phases actually experienced by each MR; TED inverts it in
    /// its eigenbasis.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::InvalidParameter`] if `count` is zero or the
    /// spacing is not strictly positive.
    pub fn crosstalk_matrix(&self, count: usize, spacing: Micrometers) -> Result<CrosstalkMatrix> {
        if count == 0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "count",
                reason: "a crosstalk matrix needs at least one MR".into(),
            });
        }
        if spacing.value() <= 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "spacing",
                reason: format!("spacing must be positive, got {spacing}"),
            });
        }
        let mut data = vec![0.0; count * count];
        for i in 0..count {
            for j in 0..count {
                let distance = Micrometers::new(spacing.value() * (i as f64 - j as f64).abs());
                data[i * count + j] = self.phase_crosstalk_ratio(distance);
            }
        }
        Ok(CrosstalkMatrix { size: count, data })
    }
}

impl Default for ThermalCrosstalkModel {
    fn default() -> Self {
        Self {
            decay_length: Micrometers::new(DEFAULT_DECAY_LENGTH_UM),
        }
    }
}

/// Symmetric matrix of pairwise phase-crosstalk ratios within an MR bank.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrosstalkMatrix {
    size: usize,
    data: Vec<f64>,
}

impl CrosstalkMatrix {
    /// Creates a matrix directly from row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::InvalidParameter`] if `data.len() != size²`
    /// or the matrix is not symmetric within 1e-9.
    pub fn from_raw(size: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != size * size {
            return Err(PhotonicsError::InvalidParameter {
                name: "data",
                reason: format!("expected {} entries, got {}", size * size, data.len()),
            });
        }
        for i in 0..size {
            for j in 0..i {
                if (data[i * size + j] - data[j * size + i]).abs() > 1e-9 {
                    return Err(PhotonicsError::InvalidParameter {
                        name: "data",
                        reason: format!("matrix is not symmetric at ({i}, {j})"),
                    });
                }
            }
        }
        Ok(Self { size, data })
    }

    /// Returns the matrix dimension (number of MRs in the bank).
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Returns the `(i, j)` entry.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.size && j < self.size, "index out of bounds");
        self.data[i * self.size + j]
    }

    /// Returns the underlying row-major data.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Multiplies the matrix by a phase vector: given the heater-applied
    /// phases, returns the phases each MR actually experiences.
    ///
    /// # Panics
    ///
    /// Panics if `applied.len() != size`.
    #[must_use]
    pub fn propagate(&self, applied: &[Radians]) -> Vec<Radians> {
        assert_eq!(applied.len(), self.size, "phase vector length mismatch");
        (0..self.size)
            .map(|i| {
                let sum: f64 = (0..self.size)
                    .map(|j| self.get(i, j) * applied[j].value())
                    .sum();
                Radians::new(sum)
            })
            .collect()
    }

    /// Total off-diagonal crosstalk seen by MR `i` (the sum of its row minus
    /// the diagonal), a scalar measure of how much its neighbours disturb it.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn row_crosstalk(&self, i: usize) -> f64 {
        assert!(i < self.size, "index out of bounds");
        (0..self.size)
            .filter(|&j| j != i)
            .map(|j| self.get(i, j))
            .sum()
    }
}

/// A thermo-optic microheater characterisation: how much heater power produces
/// how much phase shift / resonance shift.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Microheater {
    /// Electrical power required to shift the resonance by one full FSR
    /// (equivalently, to produce a 2π phase shift).  Paper Table II:
    /// 27.5 mW/FSR for TO tuning.
    pub power_per_fsr_mw: f64,
}

impl Microheater {
    /// The paper's Table II thermo-optic heater (27.5 mW per FSR).
    #[must_use]
    pub fn table_ii() -> Self {
        Self {
            power_per_fsr_mw: 27.5,
        }
    }

    /// Heater power needed to produce `phase` of thermal phase shift.
    #[must_use]
    pub fn power_for_phase(&self, phase: Radians) -> f64 {
        self.power_per_fsr_mw * (phase.value().abs() / std::f64::consts::TAU)
    }

    /// Heater power needed to shift resonance by `shift_nm` given the device
    /// FSR in nanometres.
    #[must_use]
    pub fn power_for_shift(&self, shift_nm: f64, fsr_nm: f64) -> f64 {
        self.power_per_fsr_mw * (shift_nm.abs() / fsr_nm)
    }
}

impl Default for Microheater {
    fn default() -> Self {
        Self::table_ii()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crosstalk_decays_exponentially_with_distance() {
        let model = ThermalCrosstalkModel::default();
        let d1 = model.phase_crosstalk_ratio(Micrometers::new(1.0));
        let d5 = model.phase_crosstalk_ratio(Micrometers::new(5.0));
        let d10 = model.phase_crosstalk_ratio(Micrometers::new(10.0));
        let d20 = model.phase_crosstalk_ratio(Micrometers::new(20.0));
        assert!(d1 > d5 && d5 > d10 && d10 > d20);
        // Exponential: ratio(2d) == ratio(d)^2.
        assert!((d10 - d5 * d5).abs() < 1e-12);
        // Calibration targets.
        assert!(d5 > 0.2 && d5 < 0.4, "5 um ratio {d5}");
        assert!(d20 < 0.01, "20 um ratio {d20}");
    }

    #[test]
    fn crosstalk_at_zero_distance_is_unity() {
        let model = ThermalCrosstalkModel::default();
        assert!((model.phase_crosstalk_ratio(Micrometers::new(0.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn naive_safe_spacing_has_negligible_crosstalk() {
        let model = ThermalCrosstalkModel::default();
        let ratio = model.phase_crosstalk_ratio(Micrometers::new(NAIVE_SAFE_SPACING_UM));
        assert!(ratio < 1e-10);
    }

    #[test]
    fn invalid_decay_length_is_rejected() {
        assert!(ThermalCrosstalkModel::new(Micrometers::new(0.0)).is_err());
        assert!(ThermalCrosstalkModel::new(Micrometers::new(-1.0)).is_err());
    }

    #[test]
    fn crosstalk_matrix_structure() {
        let model = ThermalCrosstalkModel::default();
        let m = model
            .crosstalk_matrix(10, Micrometers::new(5.0))
            .expect("valid matrix");
        assert_eq!(m.size(), 10);
        // Unit diagonal, symmetric, decreasing away from the diagonal.
        for i in 0..10 {
            assert!((m.get(i, i) - 1.0).abs() < 1e-12);
        }
        assert!((m.get(0, 3) - m.get(3, 0)).abs() < 1e-12);
        assert!(m.get(0, 1) > m.get(0, 2));
        // Middle MRs see the most total crosstalk.
        assert!(m.row_crosstalk(5) > m.row_crosstalk(0));
    }

    #[test]
    fn crosstalk_matrix_rejects_bad_inputs() {
        let model = ThermalCrosstalkModel::default();
        assert!(model.crosstalk_matrix(0, Micrometers::new(5.0)).is_err());
        assert!(model.crosstalk_matrix(4, Micrometers::new(-1.0)).is_err());
        assert!(CrosstalkMatrix::from_raw(2, vec![1.0, 0.5, 0.4, 1.0]).is_err());
        assert!(CrosstalkMatrix::from_raw(2, vec![1.0, 0.5, 0.5]).is_err());
        assert!(CrosstalkMatrix::from_raw(2, vec![1.0, 0.5, 0.5, 1.0]).is_ok());
    }

    #[test]
    fn propagate_applies_neighbour_leakage() {
        let model = ThermalCrosstalkModel::default();
        let m = model
            .crosstalk_matrix(3, Micrometers::new(5.0))
            .expect("valid matrix");
        // Heat only the middle ring by 1 rad: neighbours see the 5 µm ratio.
        let phases = m.propagate(&[Radians::new(0.0), Radians::new(1.0), Radians::new(0.0)]);
        let ratio = model.phase_crosstalk_ratio(Micrometers::new(5.0));
        assert!((phases[1].value() - 1.0).abs() < 1e-12);
        assert!((phases[0].value() - ratio).abs() < 1e-12);
        assert!((phases[2].value() - ratio).abs() < 1e-12);
    }

    #[test]
    fn heater_power_scales_linearly() {
        let heater = Microheater::table_ii();
        let full = heater.power_for_phase(Radians::full_turn());
        assert!((full - 27.5).abs() < 1e-12);
        let half = heater.power_for_phase(Radians::new(std::f64::consts::PI));
        assert!((half - 13.75).abs() < 1e-12);
        // Shift-based API: 18 nm FSR, 1.8 nm shift → 10% of the FSR power.
        assert!((heater.power_for_shift(1.8, 18.0) - 2.75).abs() < 1e-12);
        assert!((heater.power_for_shift(-1.8, 18.0) - 2.75).abs() < 1e-12);
    }
}
