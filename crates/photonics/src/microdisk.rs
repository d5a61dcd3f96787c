//! Microdisk resonator model (the device HolyLight builds on).
//!
//! HolyLight (Liu et al., DATE 2019) replaces microrings with microdisks to
//! save area and tuning power, operating them in a whispering-gallery mode
//! (WGM).  The paper notes the WGM is inherently lossy due to tunneling-ray
//! attenuation, and that each microdisk only achieves a 2-bit resolution, so
//! HolyLight gangs 8 disks to reach 16 bits.  This module captures exactly the
//! properties the baseline comparison needs: insertion loss, per-device
//! resolution, footprint and tuning behaviour.

use serde::{Deserialize, Serialize};

use crate::units::{DecibelLoss, Micrometers, Nanometers};

/// Per-device insertion loss of a microdisk (paper Table II: 1.22 dB).
pub const MICRODISK_LOSS_DB: f64 = 1.22;

/// Bits of weight resolution a single microdisk can represent (paper §V.B).
pub const MICRODISK_RESOLUTION_BITS: u32 = 2;

/// Number of microdisks HolyLight combines to reach 16-bit weights.
pub const MICRODISKS_PER_WEIGHT: usize = 8;

/// A microdisk resonator operating in a whispering-gallery mode.
///
/// # Example
///
/// ```
/// use crosslight_photonics::microdisk::Microdisk;
///
/// let disk = Microdisk::holylight();
/// // Eight 2-bit disks give HolyLight a combined 16-bit weight.
/// assert_eq!(disk.resolution_bits() * 8, 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Microdisk {
    radius: Micrometers,
    resonance: Nanometers,
    insertion_loss: DecibelLoss,
    resolution_bits: u32,
}

impl Microdisk {
    /// Creates a microdisk with explicit parameters.
    #[must_use]
    pub fn new(
        radius: Micrometers,
        resonance: Nanometers,
        insertion_loss: DecibelLoss,
        resolution_bits: u32,
    ) -> Self {
        Self {
            radius,
            resonance,
            insertion_loss,
            resolution_bits,
        }
    }

    /// The microdisk configuration assumed for the HolyLight baseline:
    /// 2.5 µm radius, C-band resonance, the Table II 1.22 dB loss and 2-bit
    /// resolution.
    #[must_use]
    pub fn holylight() -> Self {
        Self {
            radius: Micrometers::new(2.5),
            resonance: Nanometers::new(1550.0),
            insertion_loss: DecibelLoss::new(MICRODISK_LOSS_DB),
            resolution_bits: MICRODISK_RESOLUTION_BITS,
        }
    }

    /// Returns the disk radius.
    #[must_use]
    pub fn radius(&self) -> Micrometers {
        self.radius
    }

    /// Returns the resonant wavelength.
    #[must_use]
    pub fn resonance(&self) -> Nanometers {
        self.resonance
    }

    /// Returns the whispering-gallery insertion loss of the device, which
    /// includes the tunneling-ray attenuation penalty.
    #[must_use]
    pub fn insertion_loss(&self) -> DecibelLoss {
        self.insertion_loss
    }

    /// Returns the weight resolution a single disk can represent, in bits.
    #[must_use]
    pub fn resolution_bits(&self) -> u32 {
        self.resolution_bits
    }

    /// Footprint diameter of the device (smaller than an MR — the reason
    /// HolyLight chose microdisks).
    #[must_use]
    pub fn footprint_diameter(&self) -> Micrometers {
        Micrometers::new(2.0 * self.radius.value())
    }
}

impl Default for Microdisk {
    fn default() -> Self {
        Self::holylight()
    }
}

/// A gang of microdisks combined to represent a single high-resolution weight,
/// as HolyLight does (8 × 2-bit = 16-bit).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MicrodiskGang {
    disk: Microdisk,
    count: usize,
}

impl MicrodiskGang {
    /// Creates a gang of `count` identical disks.
    #[must_use]
    pub fn new(disk: Microdisk, count: usize) -> Self {
        Self { disk, count }
    }

    /// The HolyLight weight cell: 8 two-bit disks.
    #[must_use]
    pub fn holylight_weight_cell() -> Self {
        Self::new(Microdisk::holylight(), MICRODISKS_PER_WEIGHT)
    }

    /// Returns the number of disks in the gang.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Returns the per-disk model.
    #[must_use]
    pub fn disk(&self) -> &Microdisk {
        &self.disk
    }

    /// Combined weight resolution of the gang, in bits.
    #[must_use]
    pub fn combined_resolution_bits(&self) -> u32 {
        self.disk.resolution_bits * self.count as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holylight_disk_matches_table_ii() {
        let disk = Microdisk::holylight();
        assert!((disk.insertion_loss().value() - 1.22).abs() < 1e-12);
        assert_eq!(disk.resolution_bits(), 2);
        assert!((disk.footprint_diameter().value() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn gang_reaches_sixteen_bits() {
        let gang = MicrodiskGang::holylight_weight_cell();
        assert_eq!(gang.count(), 8);
        assert_eq!(gang.combined_resolution_bits(), 16);
    }

    #[test]
    fn microdisk_is_smaller_than_microring() {
        use crate::mr::MrGeometry;
        let disk = Microdisk::holylight();
        let mr = MrGeometry::optimized();
        assert!(disk.footprint_diameter().value() < mr.footprint_diameter().value());
    }
}
