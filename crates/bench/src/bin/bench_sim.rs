//! Simulator-trajectory benchmark: runs the analytical-model hot paths and
//! emits a machine-readable `BENCH_sim.json`, the simulator-side sibling of
//! `bench_kernels`' `BENCH_kernels.json`.
//!
//! ```sh
//! cargo run --release -p crosslight-bench --bin bench_sim            # full run
//! cargo run --release -p crosslight-bench --bin bench_sim -- --quick # CI smoke
//! cargo run --release -p crosslight-bench --bin bench_sim -- --out path.json
//! ```
//!
//! Four entries take turns with a sibling and record their speed-up over
//! it in the same run.  Three are memoized or allocation-free paths over
//! the paths they replaced: `prepare_paper_best_modelcache` over
//! `prepare_paper_best_uncached`, `crosstalk_noise_15ch_matrix` over
//! `crosstalk_noise_15ch_perpair`, and `bank_resolution_bits_15` over the
//! preserved reference `bank_resolution_bits_15_naive`.  The fourth,
//! `fig6_dense_streaming_58k` (every core) over
//! `fig6_dense_streaming_58k_1w` (one worker), is the dense sweep's
//! parallel speed-up.  The other entries have no sibling and record their
//! absolute times.

use std::process::ExitCode;
use std::sync::Arc;

use crosslight_bench::{finish, measure, measure_pair, Args};
use crosslight_core::cache::ModelCache;
use crosslight_core::config::CrossLightConfig;
use crosslight_core::simulator::CrossLightSimulator;
use crosslight_experiments::fig6_design_space;
use crosslight_neural::workload::NetworkWorkload;
use crosslight_neural::zoo::PaperModel;
use crosslight_photonics::crosstalk::{bank_resolution_bits, reference, ChannelCrosstalkAnalysis};
use crosslight_photonics::fpv::{DriftWorkspace, FpvModel, ProcessCorner};
use crosslight_photonics::mr::MrGeometry;
use crosslight_photonics::units::Nanometers;
use crosslight_photonics::wdm::WdmGrid;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> ExitCode {
    let args = Args::parse("BENCH_sim.json");
    let window_ms: u64 = if args.quick { 60 } else { 400 };
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4);
    let mut results = Vec::new();

    let config = CrossLightConfig::paper_best();
    let simulator = CrossLightSimulator::new(config);
    let workloads: Vec<NetworkWorkload> = PaperModel::all()
        .iter()
        .map(|m| NetworkWorkload::from_spec(&m.spec()).expect("paper workloads are valid"))
        .collect();

    // --- prepare(): the memoized steady state vs the uncached cold path --------
    let cache = Arc::new(ModelCache::new());
    results.extend(measure_pair(
        [
            "prepare_paper_best_modelcache",
            "prepare_paper_best_uncached",
        ],
        window_ms,
        || simulator.prepare_with(&cache).expect("valid configuration"),
        || simulator.prepare().expect("valid configuration"),
    ));

    // --- evaluate_average through the shared cache -------------------------
    results.push(measure(
        "evaluate_average_4_models_cached",
        window_ms,
        || {
            simulator
                .evaluate_average_with(&workloads, &cache)
                .expect("valid workloads")
        },
    ));

    // --- crosstalk: coupling matrix vs per-pair Lorentzian re-derivation ---
    let grid = WdmGrid::c_band_grid(15, Nanometers::new(1.2)).expect("grid fits the FSR");
    let analysis = ChannelCrosstalkAnalysis::from_grid(&grid, 8000.0).expect("valid analysis");
    let matrix = analysis.coupling_matrix();
    results.extend(measure_pair(
        [
            "crosstalk_noise_15ch_matrix",
            "crosstalk_noise_15ch_perpair",
        ],
        window_ms,
        || matrix.worst_noise_power(),
        || analysis.worst_noise_power(),
    ));

    // --- allocation-free uniform-bank resolution vs the reference walk ------
    results.extend(measure_pair(
        ["bank_resolution_bits_15", "bank_resolution_bits_15_naive"],
        window_ms,
        || bank_resolution_bits(15, Nanometers::new(1.2), 8000.0, 16).expect("valid bank"),
        || {
            reference::bank_resolution_bits_naive(15, Nanometers::new(1.2), 8000.0, 16)
                .expect("valid bank")
        },
    ));

    // --- FPV Monte Carlo with a reused workspace + select_nth p99.7 --------
    let fpv = FpvModel::new(MrGeometry::conventional(), ProcessCorner::typical());
    let mut drift_workspace = DriftWorkspace::new();
    results.push(measure("fpv_monte_carlo_20k", window_ms, || {
        let mut rng = StdRng::seed_from_u64(42);
        fpv.monte_carlo_with(20_000, &mut rng, &mut drift_workspace)
    }));

    // --- one Fig. 6 cell in the cached steady state ------------------------
    let cell_simulator = CrossLightSimulator::new(
        CrossLightConfig::new(
            10,
            100,
            50,
            30,
            crosslight_core::config::DesignChoices::crosslight_opt_ted(),
        )
        .expect("valid candidate"),
    );
    results.push(measure("fig6_cell_cached", window_ms, || {
        cell_simulator
            .evaluate_average_with(&workloads, &cache)
            .expect("valid workloads")
    }));

    // --- the full 81-candidate Fig. 6 sweep ---------------------------------
    let candidates = fig6_design_space::paper_candidates();
    results.push(measure("fig6_sweep_81_serial_cached", window_ms, || {
        fig6_design_space::run(&candidates).expect("sweep succeeds")
    }));

    // --- cross-architecture zoo sweep over the union grid ------------------
    let zoo = crosslight_experiments::arch_zoo::union_candidates();
    results.push(measure("arch_zoo_sweep_46_streaming", window_ms, || {
        crosslight_experiments::arch_zoo::run_streaming(
            &zoo,
            workers,
            8,
            crosslight_experiments::arch_zoo::DEFAULT_POWER_BUDGET_W,
        )
        .expect("sweep succeeds")
    }));

    // --- the dense ~58.5k-candidate streaming sweep, on every core vs on one
    // (the speed-up is the sweep's parallel speed-up) ------------------------
    let dense = fig6_design_space::dense_candidates();
    let frontier = fig6_design_space::run_streaming(&dense, workers, 10).expect("sweep succeeds");
    println!(
        "  dense grid: {} evaluated, {} in cap, {} on the Pareto frontier",
        frontier.evaluated,
        frontier.in_cap,
        frontier.pareto.len()
    );
    results.extend(measure_pair(
        ["fig6_dense_streaming_58k", "fig6_dense_streaming_58k_1w"],
        window_ms,
        || fig6_design_space::run_streaming(&dense, workers, 10).expect("sweep succeeds"),
        || fig6_design_space::run_streaming(&dense, 1, 10).expect("sweep succeeds"),
    ));

    finish(&args, "crosslight-bench-sim/v2", &results)
}
