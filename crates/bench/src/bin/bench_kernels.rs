//! Kernel-trajectory benchmark: times the neural kernels behind Fig. 5
//! training and the TED solve, and emits a machine-readable
//! `BENCH_kernels.json` on the shared trajectory harness.
//!
//! ```sh
//! cargo run --release -p crosslight-bench --bin bench_kernels            # full run
//! cargo run --release -p crosslight-bench --bin bench_kernels -- --quick # CI smoke
//! cargo run --release -p crosslight-bench --bin bench_kernels -- --out path.json
//! ```
//!
//! `matmul_96x288x96` and `im2col_3x32x32_k3` take turns with their
//! `_naive` siblings, the preserved reference kernels, so each records its
//! speed-up over the naive kernel measured in the same run on the same
//! machine and flags.  The other entries have no sibling and record their
//! absolute times.

use std::process::ExitCode;

use crosslight_bench::{finish, measure, measure_pair, Args};
use crosslight_neural::datasets::generate_synthetic;
use crosslight_neural::layers::{Conv2d, Layer};
use crosslight_neural::quant::QuantConfig;
use crosslight_neural::tensor::{im2col_into, reference, Im2colSpec, Tensor};
use crosslight_neural::train::{evaluate_quantized, train, TrainConfig};
use crosslight_neural::zoo::PaperModel;
use crosslight_photonics::thermal::ThermalCrosstalkModel;
use crosslight_photonics::units::{Micrometers, Radians};
use crosslight_tuning::ted::{TedSolver, TedWorkspace};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> ExitCode {
    let args = Args::parse("BENCH_kernels.json");
    let window_ms: u64 = if args.quick { 60 } else { 400 };
    let mut results = Vec::new();

    // --- blocked vs naive matmul -----------------------------------------
    let mut rng = StdRng::seed_from_u64(42);
    let a = Tensor::random_uniform(vec![96, 288], 1.0, &mut rng);
    let b = Tensor::random_uniform(vec![288, 96], 1.0, &mut rng);
    let mut out = Tensor::default();
    results.extend(measure_pair(
        ["matmul_96x288x96", "matmul_96x288x96_naive"],
        window_ms,
        || {
            a.matmul_into(&b, &mut out).expect("valid shapes");
            out.as_slice()[0]
        },
        || reference::matmul_naive(&a, &b).expect("valid shapes"),
    ));

    // --- im2col, blocked (buffer-reusing) vs naive -----------------------
    let input = Tensor::random_uniform(vec![3, 32, 32], 1.0, &mut rng);
    let spec = Im2colSpec {
        in_channels: 3,
        height: 32,
        width: 32,
        kernel: 3,
        stride: 1,
    };
    results.extend(measure_pair(
        ["im2col_3x32x32_k3", "im2col_3x32x32_k3_naive"],
        window_ms,
        || {
            im2col_into(&input, &spec, &mut out).expect("valid shapes");
            out.as_slice()[0]
        },
        || reference::im2col_naive(&input, &spec).expect("valid shapes"),
    ));

    // --- conv forward (allocation-free steady state) ---------------------
    let mut conv_rng = StdRng::seed_from_u64(1);
    let mut conv = Conv2d::new(3, 16, 3, 1, &mut conv_rng).expect("valid layer");
    let conv_input = Tensor::random_uniform(vec![3, 32, 32], 1.0, &mut conv_rng);
    results.push(measure("conv2d_forward_3x32x32_to_16ch", window_ms, || {
        conv.forward_into(&conv_input, &mut out)
            .expect("valid input");
        out.as_slice()[0]
    }));

    // --- one SGD epoch on the Fig. 5 CIFAR-10 surrogate ------------------
    let spec_m = PaperModel::CnnCifar10.spec();
    let mut data_rng = StdRng::seed_from_u64(7);
    let dataset =
        generate_synthetic(&spec_m.surrogate_dataset(10), &mut data_rng).expect("dataset");
    let (train_split, test_split) = dataset.split(0.75);
    let mut model_rng = StdRng::seed_from_u64(9);
    let mut model = spec_m.build_surrogate(&mut model_rng).expect("surrogate");
    let epoch_config = TrainConfig {
        epochs: 1,
        learning_rate: 0.08,
        batch_size: 8,
    };
    results.push(measure("train_epoch_cifar10_surrogate", window_ms, || {
        train(&mut model, &train_split, &epoch_config).expect("trains")
    }));

    // --- one full Fig. 5 sweep cell (train + quantized evaluate) ---------
    let cell_config = TrainConfig {
        epochs: 4,
        learning_rate: 0.08,
        batch_size: 8,
    };
    results.push(measure(
        "fig5_cell_cifar10_8bit",
        window_ms.max(200),
        || {
            let mut rng = StdRng::seed_from_u64(11);
            let mut surrogate = spec_m.build_surrogate(&mut rng).expect("surrogate");
            train(&mut surrogate, &train_split, &cell_config).expect("trains");
            evaluate_quantized(&mut surrogate, &test_split, &QuantConfig::uniform(8))
                .expect("evaluates")
        },
    ));

    // --- TED solve with a reused workspace -------------------------------
    let matrix = ThermalCrosstalkModel::default()
        .crosstalk_matrix(15, Micrometers::new(5.0))
        .expect("valid matrix");
    let solver = TedSolver::with_table_ii_heater(&matrix).expect("valid solver");
    let targets: Vec<Radians> = (0..15)
        .map(|i| Radians::new(0.2 + 0.1 * ((i as f64) * 1.3).sin()))
        .collect();
    let mut workspace = TedWorkspace::new();
    results.push(measure("ted_solve_15_mr_bank", window_ms, || {
        solver
            .solve_with(&targets, &mut workspace)
            .expect("solvable")
            .total_power
    }));

    finish(&args, "crosslight-bench-kernels/v2", &results)
}
