//! Reproduces the Fig. 6 architecture design-space exploration: sweeping
//! (N, K, n, m) and reporting FPS vs. EPB vs. area.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example design_space                    # paper grid
//! cargo run --release --example design_space -- --dense         # ~58.5k-candidate
//!                                                               # streaming sweep
//! cargo run --release --example design_space -- --dense --workers 4 --top 10
//! ```
//!
//! The paper grid is swept serially.  `--dense` switches to the streaming
//! top-K/Pareto sweep, which never materializes its per-candidate points,
//! and `--workers N` (dense only) spreads it over `N` threads.  The dense
//! run panics if its frontier differs from the 1-worker frontier, so CI can
//! use it as a smoke test of the parallel sweep engine.

use crosslight::experiments::fig6_design_space::{self, AREA_CAP_MM2};

fn flag_value(args: &[String], flag: &str) -> Option<usize> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workers = flag_value(&args, "--workers").unwrap_or(1);
    let top_k = flag_value(&args, "--top").unwrap_or(5);
    let dense = args.iter().any(|a| a == "--dense");

    if dense {
        println!("=== Fig. 6 — dense streaming design-space exploration ===\n");
        let candidates = fig6_design_space::dense_candidates();
        let start = std::time::Instant::now();
        let frontier = fig6_design_space::run_streaming(&candidates, workers, top_k)?;
        let elapsed = start.elapsed();
        println!("top {top_k} in-cap candidates by FPS/EPB:");
        print!("{}", frontier.table().render());
        println!(
            "\n{} candidates evaluated in {:.2?} ({} workers); {} satisfy the {:.0} mm² \
             area constraint; {} points on the FPS/EPB/area Pareto frontier",
            frontier.evaluated,
            elapsed,
            workers.max(1),
            frontier.in_cap,
            AREA_CAP_MM2,
            frontier.pareto.len()
        );
        if let Some(best) = frontier.best {
            println!(
                "best in-cap configuration by FPS/EPB: (N, K, n, m) = ({}, {}, {}, {})",
                best.conv_unit_size, best.fc_unit_size, best.conv_units, best.fc_units
            );
        }
        if let Some(paper) = frontier.paper_point {
            println!(
                "paper's published best (20, 150, 100, 60): {:.1} FPS, {:.4} pJ/bit, {:.1} mm²",
                paper.avg_fps, paper.avg_epb_pj, paper.area_mm2
            );
        }
        let serial = fig6_design_space::run_streaming(&candidates, 1, top_k)?;
        assert_eq!(serial, frontier, "frontier must not depend on worker count");
        println!("\nOK: frontier identical to the 1-worker sweep.");
        return Ok(());
    }

    println!("=== Fig. 6 — FPS vs. EPB vs. area design-space exploration ===\n");
    let candidates = fig6_design_space::paper_candidates();
    let sweep = fig6_design_space::run(&candidates)?;
    print!("{}", sweep.table().render());

    println!(
        "\n{} of {} candidates satisfy the {:.0} mm² area constraint",
        sweep.points.iter().filter(|p| p.within_area_cap).count(),
        sweep.points.len(),
        AREA_CAP_MM2
    );
    println!(
        "best in-cap configuration by FPS/EPB: (N, K, n, m) = ({}, {}, {}, {})",
        sweep.best.conv_unit_size,
        sweep.best.fc_unit_size,
        sweep.best.conv_units,
        sweep.best.fc_units
    );
    if let Some(paper) = sweep.paper_point {
        println!(
            "paper's published best (20, 150, 100, 60): {:.1} FPS, {:.4} pJ/bit, {:.1} mm²",
            paper.avg_fps, paper.avg_epb_pj, paper.area_mm2
        );
    }
    Ok(())
}
