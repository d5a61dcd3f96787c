//! All-pass microring resonator (MR) model.
//!
//! MRs are the fundamental weighting devices of noncoherent photonic
//! accelerators (paper §III): a wavelength carrying an activation value passes
//! an MR tuned so that a fraction of its optical power is dropped, realising a
//! multiplication.  This module models the MR geometry explored in the paper's
//! device-level design-space exploration (§IV.A), its spectral behaviour
//! (Lorentzian through-port transmission, Q factor, FSR, extinction ratio) and
//! the mapping between weight values and resonance detuning.

use serde::{Deserialize, Serialize};

use crate::error::{PhotonicsError, Result};
use crate::spectrum::{Lorentzian, SpectrumSummary};
use crate::units::{DecibelLoss, Micrometers, Nanometers};

/// Default loaded Q factor of the paper's optimized MR design (§V.B).
pub const OPTIMIZED_Q_FACTOR: f64 = 8000.0;
/// Default free spectral range of the paper's optimized MR design (§V.B).
pub const OPTIMIZED_FSR_NM: f64 = 18.0;
/// Q factor assumed for the conventional (non-optimized) MR design.
///
/// The paper states the optimized design improves insertion loss and Q factor;
/// we model the conventional device with a modestly lower Q.
pub const CONVENTIONAL_Q_FACTOR: f64 = 5000.0;
/// FSR assumed for the conventional MR design.
pub const CONVENTIONAL_FSR_NM: f64 = 18.0;

/// Physical geometry of a microring resonator.
///
/// Only the parameters that matter to the paper's analysis are captured: the
/// input (bus) and ring waveguide widths — which drive FPV resilience — plus
/// the ring radius and coupling gap that set the footprint and FSR.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MrGeometry {
    /// Width of the input (bus) waveguide.
    pub input_waveguide_width: Nanometers,
    /// Width of the ring waveguide.
    pub ring_waveguide_width: Nanometers,
    /// Ring radius.
    pub radius: Micrometers,
    /// Coupling gap between bus and ring.
    pub gap: Nanometers,
    /// Waveguide thickness.
    pub thickness: Nanometers,
}

impl MrGeometry {
    /// The paper's FPV-optimized design: 400 nm input waveguide and 800 nm
    /// ring waveguide (§IV.A), which cuts FPV-induced resonance drift from
    /// ~7.1 nm to ~2.1 nm.
    #[must_use]
    pub fn optimized() -> Self {
        Self {
            input_waveguide_width: Nanometers::new(400.0),
            ring_waveguide_width: Nanometers::new(800.0),
            radius: Micrometers::new(5.0),
            gap: Nanometers::new(200.0),
            thickness: Nanometers::new(220.0),
        }
    }

    /// A conventional single-mode design with 500 nm waveguides everywhere,
    /// representative of prior photonic accelerators.
    #[must_use]
    pub fn conventional() -> Self {
        Self {
            input_waveguide_width: Nanometers::new(500.0),
            ring_waveguide_width: Nanometers::new(500.0),
            radius: Micrometers::new(5.0),
            gap: Nanometers::new(200.0),
            thickness: Nanometers::new(220.0),
        }
    }

    /// Returns `true` when this geometry matches the paper's FPV-optimized
    /// width combination (400 nm bus / 800 nm ring).
    #[must_use]
    pub fn is_width_optimized(&self) -> bool {
        (self.input_waveguide_width.value() - 400.0).abs() < 1.0
            && (self.ring_waveguide_width.value() - 800.0).abs() < 1.0
    }

    /// Approximate footprint diameter of the device including the coupling
    /// region, used by the area model.
    #[must_use]
    pub fn footprint_diameter(&self) -> Micrometers {
        Micrometers::new(2.0 * self.radius.value() + 2.0 * self.gap.to_micrometers().value())
    }
}

impl Default for MrGeometry {
    fn default() -> Self {
        Self::optimized()
    }
}

/// Spectral design parameters of an MR, independent of its geometry details.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MrSpectral {
    /// Loaded quality factor.
    pub q_factor: f64,
    /// Free spectral range.
    pub free_spectral_range: Nanometers,
    /// Extinction ratio in dB (how deeply the through port is suppressed at
    /// resonance).
    pub extinction_ratio_db: f64,
    /// Through (insertion) loss experienced by off-resonance wavelengths.
    pub through_loss: DecibelLoss,
}

impl MrSpectral {
    /// Spectral parameters of the paper's optimized MR design.
    #[must_use]
    pub fn optimized() -> Self {
        Self {
            q_factor: OPTIMIZED_Q_FACTOR,
            free_spectral_range: Nanometers::new(OPTIMIZED_FSR_NM),
            extinction_ratio_db: 25.0,
            through_loss: DecibelLoss::new(0.02),
        }
    }

    /// Spectral parameters assumed for the conventional MR design.
    #[must_use]
    pub fn conventional() -> Self {
        Self {
            q_factor: CONVENTIONAL_Q_FACTOR,
            free_spectral_range: Nanometers::new(CONVENTIONAL_FSR_NM),
            extinction_ratio_db: 20.0,
            through_loss: DecibelLoss::new(0.02),
        }
    }
}

/// An all-pass microring resonator.
///
/// # Example
///
/// ```
/// use crosslight_photonics::mr::{Microring, MrGeometry};
/// use crosslight_photonics::units::Nanometers;
///
/// # fn main() -> Result<(), crosslight_photonics::PhotonicsError> {
/// let mr = Microring::new(MrGeometry::optimized(), Nanometers::new(1550.0));
/// // Imprint a weight of 0.8: the through port should transmit 80% of power.
/// let detuning = mr.detuning_for_transmission(0.8)?;
/// let t = mr.through_transmission(mr.resonance() + detuning);
/// assert!((t - 0.8).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Microring {
    geometry: MrGeometry,
    spectral: MrSpectral,
    resonance: Nanometers,
}

impl Microring {
    /// Creates an MR with spectral parameters inferred from the geometry
    /// (optimized widths ⇒ optimized spectral parameters).
    #[must_use]
    pub fn new(geometry: MrGeometry, resonance: Nanometers) -> Self {
        let spectral = if geometry.is_width_optimized() {
            MrSpectral::optimized()
        } else {
            MrSpectral::conventional()
        };
        Self {
            geometry,
            spectral,
            resonance,
        }
    }

    /// Returns the device geometry.
    #[must_use]
    pub fn geometry(&self) -> &MrGeometry {
        &self.geometry
    }

    /// Returns the spectral parameters.
    #[must_use]
    pub fn spectral(&self) -> &MrSpectral {
        &self.spectral
    }

    /// Returns the current resonant wavelength.
    #[must_use]
    pub fn resonance(&self) -> Nanometers {
        self.resonance
    }

    /// Returns the loaded quality factor.
    #[must_use]
    pub fn q_factor(&self) -> f64 {
        self.spectral.q_factor
    }

    /// Returns the free spectral range.
    #[must_use]
    pub fn free_spectral_range(&self) -> Nanometers {
        self.spectral.free_spectral_range
    }

    /// Returns the Lorentzian lineshape of the drop response at the current
    /// resonance.
    #[must_use]
    pub fn lineshape(&self) -> Lorentzian {
        Lorentzian::from_q_factor(self.resonance, self.spectral.q_factor)
    }

    /// Returns the minimum through-port transmission, reached exactly on
    /// resonance, as set by the extinction ratio.
    #[must_use]
    pub fn min_transmission(&self) -> f64 {
        DecibelLoss::new(self.spectral.extinction_ratio_db).to_linear_transmission()
    }

    /// Through-port power transmission for light at `wavelength`.
    ///
    /// Off resonance the transmission approaches 1 (ignoring the small
    /// broadband through loss, which is accounted for separately in the loss
    /// budget); on resonance it drops to the extinction floor.
    #[must_use]
    pub fn through_transmission(&self, wavelength: Nanometers) -> f64 {
        let floor = self.min_transmission();
        let drop = self.lineshape().response(wavelength);
        // Linear interpolation between the floor (full drop) and unity.
        1.0 - (1.0 - floor) * drop
    }

    /// Returns the resonance detuning needed for the through port to transmit
    /// `transmission` of the incoming power.
    ///
    /// This is how a weight value is imprinted: the tuning circuit shifts the
    /// resonance by the returned amount relative to the carrier wavelength.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::TransmissionOutOfRange`] if `transmission`
    /// lies outside the achievable `[min_transmission, 1]` interval.
    pub fn detuning_for_transmission(&self, transmission: f64) -> Result<Nanometers> {
        let floor = self.min_transmission();
        if !(floor..=1.0).contains(&transmission) {
            return Err(PhotonicsError::TransmissionOutOfRange {
                requested: transmission,
                min: floor,
                max: 1.0,
            });
        }
        let drop = (1.0 - transmission) / (1.0 - floor);
        if drop <= 0.0 {
            // transmission == 1.0 exactly: park far away (half an FSR).
            return Ok(self.spectral.free_spectral_range * 0.5);
        }
        let detuning = self
            .lineshape()
            .detuning_for_response(drop)
            .expect("drop is in (0, 1] by construction");
        Ok(detuning)
    }

    /// Summarises the through-port spectrum (paper Fig. 2).
    #[must_use]
    pub fn spectrum_summary(&self) -> SpectrumSummary {
        SpectrumSummary {
            resonance: self.resonance,
            free_spectral_range: self.spectral.free_spectral_range,
            extinction_ratio_db: self.spectral.extinction_ratio_db,
            bandwidth_3db: self.lineshape().bandwidth_3db(),
            q_factor: self.spectral.q_factor,
        }
    }
}

/// A bank (group) of MRs sharing one bus waveguide, each tuned to a distinct
/// WDM channel (paper §III, Fig. 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MrBank {
    rings: Vec<Microring>,
    spacing: Micrometers,
}

impl MrBank {
    /// Creates a bank of `count` identical MRs with resonances assigned to the
    /// provided channel wavelengths and a uniform centre-to-centre spacing.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::InvalidParameter`] if `channels` is empty or
    /// the spacing is not strictly positive.
    pub fn uniform(
        geometry: MrGeometry,
        channels: &[Nanometers],
        spacing: Micrometers,
    ) -> Result<Self> {
        if channels.is_empty() {
            return Err(PhotonicsError::InvalidParameter {
                name: "channels",
                reason: "an MR bank needs at least one channel".into(),
            });
        }
        if spacing.value() <= 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "spacing",
                reason: format!("spacing must be positive, got {spacing}"),
            });
        }
        let rings = channels
            .iter()
            .map(|&wl| Microring::new(geometry, wl))
            .collect();
        Ok(Self { rings, spacing })
    }

    /// Returns the number of MRs in the bank.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rings.len()
    }

    /// Returns `true` if the bank contains no rings.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rings.is_empty()
    }

    /// Returns the centre-to-centre spacing between adjacent MRs.
    #[must_use]
    pub fn spacing(&self) -> Micrometers {
        self.spacing
    }

    /// Returns the rings in the bank.
    #[must_use]
    pub fn rings(&self) -> &[Microring] {
        &self.rings
    }

    /// Iterates over the rings in the bank.
    pub fn iter(&self) -> std::slice::Iter<'_, Microring> {
        self.rings.iter()
    }
}

impl<'a> IntoIterator for &'a MrBank {
    type Item = &'a Microring;
    type IntoIter = std::slice::Iter<'a, Microring>;

    fn into_iter(self) -> Self::IntoIter {
        self.rings.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wdm::WdmGrid;

    fn mr() -> Microring {
        Microring::new(MrGeometry::optimized(), Nanometers::new(1550.0))
    }

    #[test]
    fn optimized_geometry_maps_to_optimized_spectral() {
        let ring = mr();
        assert!((ring.q_factor() - OPTIMIZED_Q_FACTOR).abs() < 1e-9);
        assert!((ring.free_spectral_range().value() - OPTIMIZED_FSR_NM).abs() < 1e-9);
        let conv = Microring::new(MrGeometry::conventional(), Nanometers::new(1550.0));
        assert!((conv.q_factor() - CONVENTIONAL_Q_FACTOR).abs() < 1e-9);
    }

    #[test]
    fn transmission_is_low_on_resonance_high_off_resonance() {
        let ring = mr();
        let on = ring.through_transmission(ring.resonance());
        let off = ring.through_transmission(ring.resonance() + Nanometers::new(5.0));
        assert!(
            on < 0.01,
            "on-resonance transmission should be near the extinction floor"
        );
        assert!(
            off > 0.99,
            "far-off-resonance transmission should be near unity"
        );
    }

    #[test]
    fn weight_imprinting_example_from_paper() {
        // Paper §III example: activation 0.8 weighted by 0.5 → 0.4 at the
        // through port.
        let ring = mr();
        let detuning = ring
            .detuning_for_transmission(0.5)
            .expect("0.5 is achievable");
        let carrier = ring.resonance() + detuning;
        let weighted = 0.8 * ring.through_transmission(carrier);
        assert!((weighted - 0.4).abs() < 1e-9);
    }

    #[test]
    fn detuning_for_transmission_round_trips() {
        let ring = mr();
        for t in [0.05, 0.25, 0.5, 0.75, 0.99] {
            let detuning = ring.detuning_for_transmission(t).expect("achievable");
            let got = ring.through_transmission(ring.resonance() + detuning);
            assert!((got - t).abs() < 1e-6, "target {t} got {got}");
        }
        // Full transmission parks the resonance half an FSR away; the residual
        // Lorentzian tail keeps it from being exactly 1.
        let detuning = ring.detuning_for_transmission(1.0).expect("achievable");
        assert!((detuning.value() - ring.free_spectral_range().value() / 2.0).abs() < 1e-9);
        let got = ring.through_transmission(ring.resonance() + detuning);
        assert!(got > 0.999, "target 1.0 got {got}");
    }

    #[test]
    fn detuning_for_transmission_rejects_out_of_range() {
        let ring = mr();
        assert!(matches!(
            ring.detuning_for_transmission(-0.1),
            Err(PhotonicsError::TransmissionOutOfRange { .. })
        ));
        assert!(matches!(
            ring.detuning_for_transmission(1.2),
            Err(PhotonicsError::TransmissionOutOfRange { .. })
        ));
        // Below the extinction floor is also unreachable.
        assert!(ring.detuning_for_transmission(1e-6).is_err());
    }

    #[test]
    fn spectrum_summary_is_consistent() {
        let ring = mr();
        let summary = ring.spectrum_summary();
        assert!((summary.q_factor - ring.q_factor()).abs() < 1e-12);
        assert!((summary.bandwidth_3db.value() - 1550.0 / 8000.0).abs() < 1e-9);
        assert!(summary.finesse() > 50.0);
    }

    #[test]
    fn bank_layout_lengths() {
        let grid = WdmGrid::c_band_grid(10, Nanometers::new(1.2)).expect("grid fits");
        let bank = MrBank::uniform(
            MrGeometry::optimized(),
            grid.channels(),
            Micrometers::new(5.0),
        )
        .expect("valid bank");
        assert_eq!(bank.len(), 10);
        assert!(!bank.is_empty());
    }

    #[test]
    fn bank_rejects_empty_or_invalid_spacing() {
        assert!(MrBank::uniform(MrGeometry::optimized(), &[], Micrometers::new(5.0)).is_err());
        assert!(MrBank::uniform(
            MrGeometry::optimized(),
            &[Nanometers::new(1550.0)],
            Micrometers::new(0.0)
        )
        .is_err());
    }

    #[test]
    fn bank_iteration_yields_all_rings() {
        let grid = WdmGrid::c_band_grid(4, Nanometers::new(1.0)).expect("grid fits");
        let bank = MrBank::uniform(
            MrGeometry::optimized(),
            grid.channels(),
            Micrometers::new(5.0),
        )
        .expect("valid bank");
        assert_eq!(bank.iter().count(), 4);
        assert_eq!((&bank).into_iter().count(), 4);
    }
}
