//! # crosslight-experiments
//!
//! Experiment harness regenerating every table and figure of the CrossLight
//! paper's evaluation section (§V).  Each module corresponds to one artefact
//! and produces structured rows plus a formatted text table, so the same code
//! backs the unit tests, the Criterion benches and the runnable examples.
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`device_dse`] | §IV.A device design-space exploration (ΔλMR 7.1 → 2.1 nm) |
//! | [`fig4_crosstalk`] | Fig. 4 — phase-crosstalk ratio and tuning power vs. MR spacing |
//! | [`fig5_accuracy`] | Fig. 5 — accuracy vs. weight/activation resolution for the four models |
//! | [`resolution_analysis`] | §V.B — achievable resolution vs. MRs per bank |
//! | [`fig6_design_space`] | Fig. 6 — FPS vs. EPB vs. area design-space scatter |
//! | [`fig7_power`] | Fig. 7 — power comparison across accelerators |
//! | [`fig8_epb`] | Fig. 8 — per-model EPB of the photonic accelerators |
//! | [`table3_summary`] | Table III — average EPB and kFPS/W of all platforms |
//! | [`arch_zoo`] | Cross-architecture DSE over the [`ArchSpec`] backend zoo |
//!
//! [`ArchSpec`]: crosslight_baselines::ArchSpec

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arch_zoo;
pub mod device_dse;
pub mod fig4_crosstalk;
pub mod fig5_accuracy;
pub mod fig6_design_space;
pub mod fig7_power;
pub mod fig8_epb;
mod frontier;
pub mod report;
pub mod resolution_analysis;
pub mod table3_summary;

pub use report::TextTable;

use crosslight_neural::workload::NetworkWorkload;
use crosslight_neural::zoo::PaperModel;

/// The workloads of the four Table I models, in [`PaperModel::all`] order:
/// what every averaged experiment evaluates against.
fn table_i_workloads() -> Result<Vec<NetworkWorkload>, crosslight_neural::NeuralError> {
    PaperModel::all()
        .iter()
        .map(|m| NetworkWorkload::from_spec(&m.spec()))
        .collect()
}
