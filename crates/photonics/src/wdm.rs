//! Wavelength-division-multiplexing (WDM) channel allocation.
//!
//! Noncoherent accelerators imprint each vector element on its own wavelength
//! (paper §III).  All channels must fit inside one free spectral range of the
//! MRs that weight them, and the channel spacing directly controls
//! inter-channel crosstalk and therefore the achievable resolution (§V.B).

use serde::{Deserialize, Serialize};

use crate::error::{PhotonicsError, Result};
use crate::units::Nanometers;

/// Centre of the C band, used as the default first channel.
pub const C_BAND_CENTER_NM: f64 = 1550.0;

/// A uniform WDM grid: `count` channels separated by `spacing`, starting at
/// `first`.
///
/// # Example
///
/// ```
/// use crosslight_photonics::wdm::WdmGrid;
/// use crosslight_photonics::units::Nanometers;
///
/// # fn main() -> Result<(), crosslight_photonics::PhotonicsError> {
/// let grid = WdmGrid::new(Nanometers::new(1550.0), Nanometers::new(1.2), 15,
///                         Nanometers::new(18.0))?;
/// assert_eq!(grid.len(), 15);
/// assert!(grid.span() < grid.free_spectral_range());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WdmGrid {
    first: Nanometers,
    spacing: Nanometers,
    channels: Vec<Nanometers>,
    free_spectral_range: Nanometers,
}

impl WdmGrid {
    /// Creates a grid of `count` channels with the given spacing, checking
    /// that the whole grid fits within one free spectral range.
    ///
    /// # Errors
    ///
    /// * [`PhotonicsError::InvalidParameter`] if `count` is zero or `spacing`
    ///   is not strictly positive.
    /// * [`PhotonicsError::WdmCapacityExceeded`] if the requested channels do
    ///   not fit within `free_spectral_range`.
    pub fn new(
        first: Nanometers,
        spacing: Nanometers,
        count: usize,
        free_spectral_range: Nanometers,
    ) -> Result<Self> {
        if count == 0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "count",
                reason: "a WDM grid needs at least one channel".into(),
            });
        }
        if spacing.value() <= 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "spacing",
                reason: format!("channel spacing must be positive, got {spacing}"),
            });
        }
        let capacity = Self::capacity(spacing, free_spectral_range);
        if count > capacity {
            return Err(PhotonicsError::WdmCapacityExceeded {
                requested: count,
                capacity,
            });
        }
        let channels = (0..count).map(|i| first + spacing * i as f64).collect();
        Ok(Self {
            first,
            spacing,
            channels,
            free_spectral_range,
        })
    }

    /// Creates a grid centred on the C band with the paper's 18 nm FSR.
    ///
    /// # Errors
    ///
    /// Same as [`WdmGrid::new`].
    pub fn c_band_grid(count: usize, spacing: Nanometers) -> Result<Self> {
        Self::new(
            Nanometers::new(C_BAND_CENTER_NM),
            spacing,
            count,
            Nanometers::new(crate::mr::OPTIMIZED_FSR_NM),
        )
    }

    /// Maximum number of channels that fit in `fsr` at `spacing`.
    #[must_use]
    pub fn capacity(spacing: Nanometers, fsr: Nanometers) -> usize {
        if spacing.value() <= 0.0 || fsr.value() <= 0.0 {
            return 0;
        }
        // Channels occupy (count-1)*spacing of span; require span < FSR so the
        // first resonance of the next FSR period does not alias onto the grid.
        ((fsr.value() / spacing.value()).floor() as usize).max(1)
    }

    /// Returns the number of channels in the grid.
    #[must_use]
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// Returns `true` if the grid has no channels (never true for constructed
    /// grids, provided for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// Returns the channel wavelengths in increasing order.
    #[must_use]
    pub fn channels(&self) -> &[Nanometers] {
        &self.channels
    }

    /// Returns the wavelength of channel `index`.
    #[must_use]
    pub fn channel(&self, index: usize) -> Option<Nanometers> {
        self.channels.get(index).copied()
    }

    /// Returns the uniform channel spacing.
    #[must_use]
    pub fn spacing(&self) -> Nanometers {
        self.spacing
    }

    /// Returns the first (shortest) channel wavelength.
    #[must_use]
    pub fn first(&self) -> Nanometers {
        self.first
    }

    /// Returns the free spectral range the grid is constrained to.
    #[must_use]
    pub fn free_spectral_range(&self) -> Nanometers {
        self.free_spectral_range
    }

    /// Returns the spectral span covered by the grid (last − first channel).
    #[must_use]
    pub fn span(&self) -> Nanometers {
        self.spacing * (self.channels.len().saturating_sub(1)) as f64
    }

    /// Iterates over the channel wavelengths.
    pub fn iter(&self) -> std::slice::Iter<'_, Nanometers> {
        self.channels.iter()
    }
}

impl<'a> IntoIterator for &'a WdmGrid {
    type Item = &'a Nanometers;
    type IntoIter = std::slice::Iter<'a, Nanometers>;

    fn into_iter(self) -> Self::IntoIter {
        self.channels.iter()
    }
}

/// How many lasers (unique wavelengths) an accelerator needs.
///
/// CrossLight reuses the same wavelengths across VDP arms (§IV.C.3), so its
/// laser count equals the per-arm channel count; accelerators without reuse
/// need one laser per vector element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WavelengthReuse {
    /// Each vector element gets its own dedicated wavelength (prior work).
    PerElement,
    /// Wavelengths are reused across the parallel arms of a VDP unit
    /// (CrossLight).
    AcrossArms,
}

impl WavelengthReuse {
    /// Number of unique laser wavelengths required for a unit processing
    /// vectors of `vector_len` split across arms of `arm_len` elements.
    #[must_use]
    pub fn lasers_required(self, vector_len: usize, arm_len: usize) -> usize {
        match self {
            Self::PerElement => vector_len,
            Self::AcrossArms => arm_len.min(vector_len).max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_channels_are_uniform() {
        let grid = WdmGrid::c_band_grid(15, Nanometers::new(1.2)).expect("fits");
        assert_eq!(grid.len(), 15);
        assert!(!grid.is_empty());
        let diffs: Vec<f64> = grid
            .channels()
            .windows(2)
            .map(|w| (w[1] - w[0]).value())
            .collect();
        for d in diffs {
            assert!((d - 1.2).abs() < 1e-9);
        }
        assert!((grid.span().value() - 1.2 * 14.0).abs() < 1e-9);
    }

    #[test]
    fn grid_rejects_overcapacity() {
        // 18 nm FSR at 1.2 nm spacing fits 15 channels; 30 must fail.
        let err = WdmGrid::c_band_grid(30, Nanometers::new(1.2)).unwrap_err();
        assert!(matches!(err, PhotonicsError::WdmCapacityExceeded { .. }));
    }

    #[test]
    fn grid_rejects_invalid_parameters() {
        assert!(WdmGrid::c_band_grid(0, Nanometers::new(1.0)).is_err());
        assert!(WdmGrid::c_band_grid(4, Nanometers::new(0.0)).is_err());
    }

    #[test]
    fn capacity_matches_paper_operating_point() {
        // The paper runs 15 MRs per bank with >1 nm spacing inside an 18 nm
        // FSR; the grid must admit that configuration.
        let cap = WdmGrid::capacity(Nanometers::new(1.2), Nanometers::new(18.0));
        assert!(cap >= 15, "capacity {cap} should admit 15 channels");
    }

    #[test]
    fn channel_accessor_and_iteration() {
        let grid = WdmGrid::c_band_grid(4, Nanometers::new(1.0)).expect("fits");
        assert_eq!(grid.channel(0), Some(Nanometers::new(1550.0)));
        assert_eq!(grid.channel(3), Some(Nanometers::new(1553.0)));
        assert_eq!(grid.channel(4), None);
        assert_eq!(grid.iter().count(), 4);
        assert_eq!((&grid).into_iter().count(), 4);
        assert_eq!(grid.first(), Nanometers::new(1550.0));
    }

    #[test]
    fn wavelength_reuse_reduces_laser_count() {
        let without = WavelengthReuse::PerElement.lasers_required(150, 15);
        let with = WavelengthReuse::AcrossArms.lasers_required(150, 15);
        assert_eq!(without, 150);
        assert_eq!(with, 15);
        // Small vectors never need more lasers than elements.
        assert_eq!(WavelengthReuse::AcrossArms.lasers_required(4, 15), 4);
        assert_eq!(WavelengthReuse::AcrossArms.lasers_required(0, 15), 1);
    }
}
