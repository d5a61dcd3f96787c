//! Reproduces the Fig. 5 accuracy-vs-resolution study on the synthetic
//! stand-in datasets, and relates it to the architecture's achievable
//! resolution (§V.B).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quantization_study
//! cargo run --release --example quantization_study -- --workers 8
//! ```
//!
//! With `--workers N` the `(model × bit-width)` training cells run on up to
//! `N` threads via [`fig5_accuracy::run_parallel`], on the same sweep engine
//! as the Fig. 6 and architecture-zoo sweeps; the output table is
//! byte-identical to the serial sweep.

use std::time::Instant;

use crosslight::experiments::fig5_accuracy::{self, AccuracyStudyConfig};
use crosslight::experiments::resolution_analysis;

fn workers_from_args() -> Option<usize> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let index = args.iter().position(|a| a == "--workers")?;
    match args.get(index + 1).map(|v| v.parse()) {
        Some(Ok(workers)) => Some(workers),
        _ => {
            eprintln!("error: --workers requires a positive integer argument");
            std::process::exit(2);
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== Section V.B — achievable resolution vs. MRs per bank ===\n");
    let analysis = resolution_analysis::run(20);
    print!("{}", analysis.table().render());
    println!(
        "\nHolyLight microdisk resolution: {} bits per device (combined 8x to reach 16)",
        analysis.microdisk_bits
    );

    println!("\n=== Fig. 5 — accuracy (%) vs. weight/activation resolution ===");
    println!("(surrogate models on synthetic stand-in datasets; see DESIGN.md)\n");
    let config = AccuracyStudyConfig {
        bit_widths: vec![1, 2, 3, 4, 6, 8, 12, 16],
        samples_per_class: 20,
        epochs: 15,
        seed: 2021,
    };
    let start = Instant::now();
    let study = match workers_from_args() {
        Some(workers) => {
            println!("(parallel sweep across {workers} workers)");
            fig5_accuracy::run_parallel(&config, workers)?
        }
        None => fig5_accuracy::run(&config)?,
    };
    let elapsed = start.elapsed();
    print!("{}", study.table().render());
    println!("\nsweep completed in {:.2} s", elapsed.as_secs_f64());

    println!("\nfull-precision reference accuracies:");
    for curve in &study.curves {
        println!(
            "  {:<28} {:>5.1} %",
            curve.dataset,
            curve.full_precision_accuracy * 100.0
        );
    }
    Ok(())
}
