//! Laser power model, Eq. (7) of the paper.
//!
//! The laser must launch enough optical power that, after every photonic loss
//! along the path and after dividing the power among the WDM channels, the
//! photodetector still receives at least its sensitivity floor:
//!
//! ```text
//! P_laser − S_detector ≥ P_photo_loss + 10·log10(N_λ)     [all in dB/dBm]
//! ```
//!
//! The laser power therefore grows linearly (in dB) with the total loss and
//! logarithmically with the number of wavelengths sharing the source.

use serde::{Deserialize, Serialize};

use crate::devices::photodetector_sensitivity;
use crate::error::{PhotonicsError, Result};
use crate::units::{Dbm, DecibelLoss, MilliWatts};

/// Wall-plug efficiency of the laser source: electrical power divided into
/// emitted optical power.  Typical integrated/comb laser efficiencies are in
/// the 10–20% range; 20% is used so electrical laser power is 5× the optical
/// requirement.
pub const DEFAULT_WALL_PLUG_EFFICIENCY: f64 = 0.2;

/// Laser power calculator implementing Eq. (7).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LaserPowerModel {
    detector_sensitivity: Dbm,
    wall_plug_efficiency: f64,
}

impl LaserPowerModel {
    /// Creates a model with an explicit detector sensitivity and laser
    /// wall-plug efficiency.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::InvalidParameter`] if the efficiency is not
    /// in `(0, 1]`.
    pub fn new(detector_sensitivity: Dbm, wall_plug_efficiency: f64) -> Result<Self> {
        if !(wall_plug_efficiency > 0.0 && wall_plug_efficiency <= 1.0) {
            return Err(PhotonicsError::InvalidParameter {
                name: "wall_plug_efficiency",
                reason: format!("must be in (0, 1], got {wall_plug_efficiency}"),
            });
        }
        Ok(Self {
            detector_sensitivity,
            wall_plug_efficiency,
        })
    }

    /// The default model: Table II photodetector sensitivity and the default
    /// wall-plug efficiency.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            detector_sensitivity: photodetector_sensitivity(),
            wall_plug_efficiency: DEFAULT_WALL_PLUG_EFFICIENCY,
        }
    }

    /// Returns the detector sensitivity used by the model.
    #[must_use]
    pub fn detector_sensitivity(&self) -> Dbm {
        self.detector_sensitivity
    }

    /// Returns the wall-plug efficiency used to convert optical power into
    /// electrical laser power.
    #[must_use]
    pub fn wall_plug_efficiency(&self) -> f64 {
        self.wall_plug_efficiency
    }

    /// Minimum *optical* laser power (per laser) required by Eq. (7) for a
    /// path with the given total loss and `wavelength_count` WDM channels.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::InvalidParameter`] if `wavelength_count` is
    /// zero.
    pub fn required_optical_power(
        &self,
        path_loss: DecibelLoss,
        wavelength_count: usize,
    ) -> Result<Dbm> {
        if wavelength_count == 0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "wavelength_count",
                reason: "at least one wavelength is required".into(),
            });
        }
        let wdm_penalty = 10.0 * (wavelength_count as f64).log10();
        Ok(Dbm::new(
            self.detector_sensitivity.value() + path_loss.value() + wdm_penalty,
        ))
    }

    /// Electrical power drawn by the laser source to emit the required
    /// optical power, accounting for wall-plug efficiency.
    ///
    /// # Errors
    ///
    /// Same as [`LaserPowerModel::required_optical_power`].
    pub fn required_electrical_power(
        &self,
        path_loss: DecibelLoss,
        wavelength_count: usize,
    ) -> Result<MilliWatts> {
        let optical = self
            .required_optical_power(path_loss, wavelength_count)?
            .to_milliwatts();
        Ok(MilliWatts::new(optical.value() / self.wall_plug_efficiency))
    }

    /// Checks whether a given launched optical power satisfies Eq. (7);
    /// returns the detector margin in dB on success.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::InsufficientOpticalPower`] if the detector
    /// would receive less power than its sensitivity.
    pub fn link_margin(
        &self,
        launched: Dbm,
        path_loss: DecibelLoss,
        wavelength_count: usize,
    ) -> Result<f64> {
        let wdm_penalty = 10.0 * (wavelength_count.max(1) as f64).log10();
        let received = launched.value() - path_loss.value() - wdm_penalty;
        let margin = received - self.detector_sensitivity.value();
        if margin < 0.0 {
            return Err(PhotonicsError::InsufficientOpticalPower {
                received_dbm: received,
                sensitivity_dbm: self.detector_sensitivity.value(),
            });
        }
        Ok(margin)
    }
}

impl Default for LaserPowerModel {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq7_zero_loss_single_wavelength_equals_sensitivity() {
        let model = LaserPowerModel::paper();
        let p = model
            .required_optical_power(DecibelLoss::new(0.0), 1)
            .expect("valid");
        assert!((p.value() - model.detector_sensitivity().value()).abs() < 1e-12);
    }

    #[test]
    fn eq7_loss_and_wdm_penalties_add_in_db() {
        let model = LaserPowerModel::paper();
        let p = model
            .required_optical_power(DecibelLoss::new(10.0), 10)
            .expect("valid");
        // −20 dBm sensitivity + 10 dB loss + 10 dB WDM penalty = 0 dBm.
        assert!(p.value().abs() < 1e-12);
    }

    #[test]
    fn laser_power_grows_with_loss_and_channels() {
        let model = LaserPowerModel::paper();
        let base = model
            .required_optical_power(DecibelLoss::new(5.0), 4)
            .expect("valid")
            .value();
        let more_loss = model
            .required_optical_power(DecibelLoss::new(8.0), 4)
            .expect("valid")
            .value();
        let more_channels = model
            .required_optical_power(DecibelLoss::new(5.0), 16)
            .expect("valid")
            .value();
        assert!(more_loss > base);
        assert!(more_channels > base);
        assert!((more_channels - base - 10.0 * 4f64.log10()).abs() < 1e-12);
    }

    #[test]
    fn electrical_power_accounts_for_wall_plug_efficiency() {
        let model = LaserPowerModel::paper();
        let optical = model
            .required_optical_power(DecibelLoss::new(10.0), 10)
            .expect("valid")
            .to_milliwatts();
        let electrical = model
            .required_electrical_power(DecibelLoss::new(10.0), 10)
            .expect("valid");
        assert!(
            (electrical.value() - optical.value() / DEFAULT_WALL_PLUG_EFFICIENCY).abs() < 1e-12
        );
    }

    #[test]
    fn link_margin_detects_insufficient_power() {
        let model = LaserPowerModel::paper();
        // 0 dBm launched over a 15 dB loss with 10 channels → −35 dBm < −20 dBm.
        let err = model
            .link_margin(Dbm::new(0.0), DecibelLoss::new(15.0), 10)
            .unwrap_err();
        assert!(matches!(
            err,
            PhotonicsError::InsufficientOpticalPower { .. }
        ));
        // 10 dBm launched over 5 dB loss, 1 channel → margin 25 dB.
        let margin = model
            .link_margin(Dbm::new(10.0), DecibelLoss::new(5.0), 1)
            .expect("sufficient");
        assert!((margin - 25.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(LaserPowerModel::new(Dbm::new(-20.0), 0.0).is_err());
        assert!(LaserPowerModel::new(Dbm::new(-20.0), 1.5).is_err());
        let model = LaserPowerModel::paper();
        assert!(model
            .required_optical_power(DecibelLoss::new(1.0), 0)
            .is_err());
    }
}
