//! # crosslight-tuning
//!
//! Tuning-circuit substrate for the CrossLight reproduction (paper §IV.B).
//!
//! Microring resonators drift away from their design resonance because of
//! fabrication-process variations and temperature changes, and they must also
//! be actively detuned to imprint weight/activation values.  This crate models
//! the circuits that do that work:
//!
//! * [`eo`] — electro-optic tuners: nanosecond latency, microwatt-per-nm
//!   power, but a limited tuning range.
//! * [`to`] — thermo-optic tuners: microsecond latency, milliwatt-scale
//!   power, full free-spectral-range reach.
//! * [`hybrid`] — the paper's hybrid policy: TO tuning for the large one-time
//!   FPV/thermal compensations, EO tuning for the fast per-value shifts.
//! * [`eigen`] — a dependency-free Jacobi eigen-solver for the symmetric
//!   thermal-crosstalk matrices.
//! * [`ted`] — Thermal Eigenmode Decomposition: collective tuning of a whole
//!   MR bank through the eigenbasis of its crosstalk matrix, cancelling
//!   thermal crosstalk at much lower power (paper Fig. 4).
//! * [`power`] — bank-level tuning-power accounting used by the architecture
//!   simulator.
//!
//! # Example
//!
//! ```
//! use crosslight_tuning::hybrid::HybridTuner;
//! use crosslight_photonics::units::Nanometers;
//!
//! let tuner = HybridTuner::paper();
//! // A small value-imprinting shift is handled electro-optically…
//! let fast = tuner.plan_shift(Nanometers::new(0.05));
//! assert!(fast.is_electro_optic());
//! // …while a large FPV compensation falls back to the thermo-optic heater.
//! let slow = tuner.plan_shift(Nanometers::new(3.0));
//! assert!(!slow.is_electro_optic());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod eigen;
pub mod eo;
pub mod error;
pub mod hybrid;
pub mod power;
pub mod ted;
pub mod to;

pub use error::TuningError;
pub use hybrid::{HybridTuner, TuningPlan};
pub use ted::{TedSolver, TedWorkspace};
