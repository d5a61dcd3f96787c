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
//! Each entry carries the pre-refactor baseline (measured at commit
//! `8f45ac9`, per-candidate recomputation of every analytical model, full
//! sort for the Monte-Carlo p99.7) next to the current number, so
//! `speedup_vs_baseline` is the before/after record the acceptance criteria
//! ask for.  The `*_uncached`/`*_perpair` entries re-measure the preserved
//! uncached/per-pair paths on the *same* machine and flags, isolating the
//! memoization win from compiler/flag effects.

use std::sync::Arc;

use crosslight_bench::{measure, print_speedups, render_trajectory_json};
use crosslight_core::cache::ModelCache;
use crosslight_core::config::CrossLightConfig;
use crosslight_core::simulator::CrossLightSimulator;
use crosslight_experiments::fig6_design_space;
use crosslight_neural::workload::NetworkWorkload;
use crosslight_neural::zoo::PaperModel;
use crosslight_photonics::crosstalk::{bank_resolution_bits, ChannelCrosstalkAnalysis};
use crosslight_photonics::fpv::{DriftWorkspace, FpvModel, ProcessCorner};
use crosslight_photonics::mr::MrGeometry;
use crosslight_photonics::units::Nanometers;
use crosslight_photonics::wdm::WdmGrid;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Pre-refactor baselines in ns/iter, measured at commit 8f45ac9 (the seed
/// of this PR) on the same machine: every configuration recomputed its unit
/// reports, the crosstalk analysis re-derived every Lorentzian coupling per
/// query, and the Fig. 6 sweep walked its grid serially and uncached.
const BASELINES_NS: &[(&str, f64)] = &[
    ("prepare_paper_best_modelcache", 135_459.0),
    ("evaluate_average_4_models_cached", 130_774.5),
    ("crosstalk_noise_15ch_matrix", 673.1),
    ("bank_resolution_bits_15", 733.3),
    ("fpv_monte_carlo_20k", 1_460_102.7),
    // Seed sweep: 9_910_361 ns / 81 candidates.
    ("fig6_cell_cached", 122_351.4),
    ("fig6_sweep_81_serial_cached", 9_910_361.0),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_sim.json".to_string());
    let window_ms: u64 = if quick { 60 } else { 400 };
    let mode = if quick { "quick" } else { "full" };
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

    // --- prepare(): uncached cold path vs the memoized steady state --------
    results.push(measure("prepare_paper_best_uncached", window_ms, || {
        simulator.prepare().expect("valid configuration")
    }));
    let cache = Arc::new(ModelCache::new());
    results.push(measure("prepare_paper_best_modelcache", window_ms, || {
        simulator.prepare_with(&cache).expect("valid configuration")
    }));

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

    // --- crosstalk: per-pair Lorentzian re-derivation vs coupling matrix ---
    let grid = WdmGrid::c_band_grid(15, Nanometers::new(1.2)).expect("grid fits the FSR");
    let analysis = ChannelCrosstalkAnalysis::from_grid(&grid, 8000.0).expect("valid analysis");
    results.push(measure("crosstalk_noise_15ch_perpair", window_ms, || {
        analysis.worst_noise_power()
    }));
    let matrix = analysis.coupling_matrix();
    results.push(measure("crosstalk_noise_15ch_matrix", window_ms, || {
        matrix.worst_noise_power()
    }));

    // --- allocation-free uniform-bank resolution ---------------------------
    results.push(measure("bank_resolution_bits_15", window_ms, || {
        bank_resolution_bits(15, Nanometers::new(1.2), 8000.0, 16).expect("valid bank")
    }));

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

    // --- the dense ~58.5k-candidate streaming sweep, on every core and on one
    // (the ratio of the two is the sweep's parallel speed-up) ----------------
    let dense = fig6_design_space::dense_candidates();
    let frontier = fig6_design_space::run_streaming(&dense, workers, 10).expect("sweep succeeds");
    println!(
        "  dense grid: {} evaluated, {} in cap, {} on the Pareto frontier",
        frontier.evaluated,
        frontier.in_cap,
        frontier.pareto.len()
    );
    results.push(measure("fig6_dense_streaming_58k", window_ms, || {
        fig6_design_space::run_streaming(&dense, workers, 10).expect("sweep succeeds")
    }));
    results.push(measure("fig6_dense_streaming_58k_1w", window_ms, || {
        fig6_design_space::run_streaming(&dense, 1, 10).expect("sweep succeeds")
    }));

    let json = render_trajectory_json(
        "crosslight-bench-sim/v1",
        mode,
        "8f45ac9 (pre memoized-model refactor: per-candidate unit reports, per-pair \
         crosstalk, serial uncached Fig. 6 sweep)",
        BASELINES_NS,
        &results,
    );
    std::fs::write(&out_path, &json).expect("writing the JSON report succeeds");
    println!("\nwrote {out_path} ({mode} mode)");
    print_speedups(BASELINES_NS, &results);
}
