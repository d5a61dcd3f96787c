//! # crosslight-core
//!
//! The CrossLight cross-layer optimized silicon-photonic neural-network
//! accelerator (Sunny et al., DAC 2021) — the paper's primary contribution.
//!
//! The accelerator executes DNN inference as optical vector dot products
//! (VDPs): activations and weights are imprinted on WDM wavelengths by
//! microring-resonator banks, multiplied by tuned transmission, and summed on
//! photodetectors.  The architecture separates CONV-layer acceleration
//! (`n` units of size `N`) from FC-layer acceleration (`m` units of size `K`)
//! and reuses wavelengths across the arms of each unit to save laser power.
//!
//! Modules:
//!
//! * [`config`] — architecture dimensions and cross-layer design choices.
//! * [`canonical`] — bit-exact `Eq + Hash` configuration and sub-config keys,
//!   the identities the cache layers memoize and shard by.
//! * [`variants`] — the four paper variants (`Cross_base` … `Cross_opt_TED`).
//! * [`decompose`] — vector decomposition into partial sums (Eqs. (1)–(6)).
//! * [`vdp`] — the VDP unit model (arms, latency, laser/tuning power).
//! * [`power`], [`area`], [`performance`], [`resolution`] — the accelerator
//!   models behind the paper's figures.
//! * [`cache`] — the [`ModelCache`](cache::ModelCache) memoizing those
//!   models by sub-config key for design-space sweeps and the runtime pool.
//! * [`bounded`] — the byte-budgeted memo table that bounds the
//!   per-configuration memo here and the runtime's result cache.
//! * [`simulator`] — the top-level [`CrossLightSimulator`].
//!
//! # Example
//!
//! ```
//! use crosslight_core::prelude::*;
//! use crosslight_neural::workload::NetworkWorkload;
//! use crosslight_neural::zoo::PaperModel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let simulator = CrossLightSimulator::new(CrossLightVariant::OptTed.config());
//! let workload = NetworkWorkload::from_spec(&PaperModel::CnnCifar10.spec())?;
//! let report = simulator.evaluate(&workload)?;
//! println!("{:.1} FPS at {:.1} W", report.metrics.fps, report.power.total_watts().value());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod area;
pub mod bounded;
pub mod cache;
pub mod canonical;
pub mod config;
pub mod decompose;
pub mod error;
pub mod performance;
pub mod power;
pub mod resolution;
pub mod simulator;
pub mod variants;
pub mod vdp;

pub use cache::{ModelCache, ModelCacheStats};
pub use canonical::{ArchKey, BackendKey, ConfigKey};
pub use config::CrossLightConfig;
pub use error::ArchitectureError;
pub use simulator::{CrossLightSimulator, PreparedSimulator, SimulationReport};
pub use variants::CrossLightVariant;

/// Convenient re-exports for downstream users.
pub mod prelude {
    pub use crate::cache::{ModelCache, ModelCacheStats};
    pub use crate::canonical::{ArchKey, BackendKey, ConfigKey};
    pub use crate::config::{CrossLightConfig, DesignChoices};
    pub use crate::simulator::{
        AverageMetrics, CrossLightSimulator, PreparedSimulator, SimulationReport,
    };
    pub use crate::variants::CrossLightVariant;
}
