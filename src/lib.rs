//! # crosslight
//!
//! Facade crate for the CrossLight reproduction: a from-scratch Rust
//! implementation of **"CrossLight: A Cross-Layer Optimized Silicon Photonic
//! Neural Network Accelerator"** (Sunny, Mirza, Nikdast, Pasricha — DAC 2021),
//! including every substrate the paper relies on.
//!
//! The workspace is organised as one crate per subsystem; this facade simply
//! re-exports them under stable names so applications can depend on a single
//! crate:
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`photonics`] | `crosslight-photonics` | MRs, microdisks, losses, laser power, FPV, thermal & spectral crosstalk |
//! | [`tuning`] | `crosslight-tuning` | EO/TO/hybrid tuning, thermal eigenmode decomposition |
//! | [`neural`] | `crosslight-neural` | tensors, layers, training, quantization, the Table I model zoo |
//! | [`core`] | `crosslight-core` | the CrossLight architecture: VDP units, power/area/latency models, simulator |
//! | [`runtime`] | `crosslight-runtime` | concurrent batched evaluation service: sweep engine, result cache, sweep planner |
//! | [`server`] | `crosslight-server` | load-shedding TCP/JSON-lines front-end over the runtime, plus the reference client/loadgen |
//! | [`cluster`] | `crosslight-cluster` | fault-tolerant router over N servers: fingerprint sharding, health-checked failover, circuit breakers, fault injection |
//! | [`telemetry`] | `crosslight-telemetry` | lock-free metrics registry, Prometheus-style exposition, sampled request tracing |
//! | [`baselines`] | `crosslight-baselines` | DEAP-CNN, HolyLight, electronic platform references |
//! | [`experiments`] | `crosslight-experiments` | one module per paper figure/table |
//!
//! # Quickstart
//!
//! ```
//! use crosslight::core::prelude::*;
//! use crosslight::neural::workload::NetworkWorkload;
//! use crosslight::neural::zoo::PaperModel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Evaluate the fully optimized CrossLight on LeNet-5 / Sign-MNIST.
//! let simulator = CrossLightSimulator::new(CrossLightVariant::OptTed.config());
//! let workload = NetworkWorkload::from_spec(&PaperModel::Lenet5SignMnist.spec())?;
//! let report = simulator.evaluate(&workload)?;
//! assert_eq!(report.resolution_bits, 16);
//! println!(
//!     "LeNet-5 on CrossLight: {:.0} FPS, {:.2} W, {:.3} pJ/bit",
//!     report.metrics.fps,
//!     report.power.total_watts().value(),
//!     report.metrics.energy_per_bit_pj,
//! );
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use crosslight_baselines as baselines;
pub use crosslight_cluster as cluster;
pub use crosslight_core as core;
pub use crosslight_experiments as experiments;
pub use crosslight_neural as neural;
pub use crosslight_photonics as photonics;
pub use crosslight_runtime as runtime;
pub use crosslight_server as server;
pub use crosslight_telemetry as telemetry;
pub use crosslight_tuning as tuning;
