//! Golden-value regression tests for the experiments that previously had
//! no exact coverage: `fig7_power`, `fig8_epb`, `device_dse`,
//! `resolution_analysis`, the Fig. 6 streaming frontiers over the paper and
//! dense grids, and the architecture zoo.
//!
//! Each experiment's output is rendered into a canonical text form in which
//! every `f64` appears twice: as its shortest-round-trip decimal (for
//! reviewable diffs) and as its IEEE-754 bit pattern in hex (for exact
//! equality).  The rendering is compared byte-for-byte against the
//! committed fixture under `tests/golden/`, so *any* numeric drift — even
//! in the last ulp — fails the test.
//!
//! To regenerate the fixtures after an intentional model change:
//!
//! ```sh
//! CROSSLIGHT_GOLDEN_BLESS=1 cargo test -p crosslight-experiments --test golden
//! ```
//!
//! then review the fixture diff like any other code change.

use std::fmt::Write as _;
use std::path::PathBuf;

use crosslight_experiments::fig6_design_space::{self, DesignFrontier, DesignPoint};
use crosslight_experiments::{arch_zoo, device_dse, fig7_power, fig8_epb, resolution_analysis};

/// Canonical rendering of one float: decimal (shortest round-trip) plus the
/// exact bit pattern.  Only for values produced by IEEE-exact operations
/// (`+ - * / sqrt`), which are bit-stable across platforms.
fn f(x: f64) -> String {
    format!("{x} [{:016x}]", x.to_bits())
}

/// Rendering for values that pass through libm transcendentals (`ln`, `cos`
/// in the Box–Muller sampler): those may legitimately differ in the last
/// ulp between libm implementations, so they are locked to 12 significant
/// digits instead of exact bit patterns — still far tighter than any real
/// model drift, but immune to a glibc/musl last-ulp difference.
fn g(x: f64) -> String {
    format!("{x:.12e}")
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `rendered` against the committed fixture, or rewrites the
/// fixture when `CROSSLIGHT_GOLDEN_BLESS` is set.
fn check(name: &str, rendered: &str) {
    let path = fixture_path(name);
    if std::env::var_os("CROSSLIGHT_GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|err| {
        panic!(
            "missing golden fixture {path:?} ({err}); run with CROSSLIGHT_GOLDEN_BLESS=1 to \
             create it"
        )
    });
    assert!(
        rendered == expected,
        "golden mismatch for {name}: the experiment output drifted.\n\
         If the change is intentional, regenerate with CROSSLIGHT_GOLDEN_BLESS=1 and review \
         the fixture diff.\n--- expected ---\n{expected}\n--- actual ---\n{rendered}"
    );
}

#[test]
fn fig7_power_comparison_is_locked() {
    let comparison = fig7_power::run().unwrap();
    let mut out = String::from("fig7_power/v1\n");
    for row in &comparison.rows {
        let _ = writeln!(
            out,
            "{} kind={:?} power_w={}",
            row.name,
            row.kind,
            f(row.power_watts)
        );
    }
    check("fig7_power.txt", &out);
}

#[test]
fn fig8_epb_comparison_is_locked() {
    let comparison = fig8_epb::run().unwrap();
    let mut out = String::from("fig8_epb/v1\n");
    let _ = writeln!(out, "accelerators={:?}", comparison.accelerators);
    for row in &comparison.rows {
        let _ = writeln!(out, "model={:?}", row.model);
        for (name, epb) in &row.epb_pj {
            let _ = writeln!(out, "  {name} epb_pj={}", f(*epb));
        }
    }
    check("fig8_epb.txt", &out);
}

#[test]
fn device_dse_is_locked_for_the_reference_seed() {
    // Fixed (samples, seed) pair: the Monte-Carlo path is deterministic for
    // a given seed, so the rendering must be stable to the last bit.
    let result = device_dse::run(2_000, 7);
    let mut out = String::from("device_dse/v1 samples=2000 seed=7\n");
    for row in &result.rows {
        // The Monte-Carlo columns (p997/mean_abs) sample via ln/cos, so
        // they use the 12-digit rendering; everything else is sqrt-only
        // arithmetic and stays bit-exact.
        let _ = writeln!(
            out,
            "ring={} bus={} worst={} p997={} mean_abs={}",
            f(row.ring_width_nm),
            f(row.input_width_nm),
            f(row.worst_case_drift_nm),
            g(row.monte_carlo_p997_nm),
            g(row.mean_abs_drift_nm)
        );
    }
    let _ = writeln!(out, "conventional={}", f(result.conventional_drift_nm));
    let _ = writeln!(out, "optimized={}", f(result.optimized_drift_nm));
    let _ = writeln!(out, "reduction={}", f(result.reduction));
    check("device_dse.txt", &out);
}

/// Canonical rendering of one Fig. 6 design point.
fn design_point_line(p: &DesignPoint) -> String {
    format!(
        "({}, {}, {}, {}) fps={} epb={} area_mm2={} fom={} in_cap={}",
        p.conv_unit_size,
        p.fc_unit_size,
        p.conv_units,
        p.fc_units,
        f(p.avg_fps),
        f(p.avg_epb_pj),
        f(p.area_mm2),
        f(p.fps_per_epb),
        p.within_area_cap
    )
}

/// Renders a Fig. 6 frontier's counts, best point, paper point and top-K
/// after `header`.
fn fig6_frontier_head(header: &str, frontier: &DesignFrontier) -> String {
    let mut out = format!("{header}\n");
    let _ = writeln!(
        out,
        "evaluated={} in_cap={}",
        frontier.evaluated, frontier.in_cap
    );
    let _ = writeln!(
        out,
        "best={}",
        design_point_line(frontier.best.as_ref().unwrap())
    );
    let _ = writeln!(
        out,
        "paper_point={}",
        design_point_line(frontier.paper_point.as_ref().unwrap())
    );
    for p in &frontier.top {
        let _ = writeln!(out, "top {}", design_point_line(p));
    }
    out
}

/// One `pareto` line per point of a Fig. 6 frontier's Pareto set.
fn fig6_pareto_lines(frontier: &DesignFrontier) -> String {
    let mut out = String::new();
    for p in &frontier.pareto {
        let _ = writeln!(out, "pareto {}", design_point_line(p));
    }
    out
}

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn fig6_frontier_is_locked() {
    // The streaming Fig. 6 frontier over the paper grid.  Worker count
    // cannot matter (locked by the unit tests); the fixture locks the
    // values themselves.
    let frontier =
        fig6_design_space::run_streaming(&fig6_design_space::paper_candidates(), 3, 10).unwrap();
    let mut out = fig6_frontier_head("fig6_frontier/v1 candidates=paper top_k=10", &frontier);
    out.push_str(&fig6_pareto_lines(&frontier));
    check("fig6_frontier.txt", &out);
}

#[test]
fn fig6_dense_frontier_is_locked() {
    // The streaming Fig. 6 frontier over the ~58.5k-candidate dense grid.
    // Its Pareto set would take about 60 KB in full, so the fixture locks
    // the set's length and a digest of its full rendering.
    let frontier =
        fig6_design_space::run_streaming(&fig6_design_space::dense_candidates(), 3, 10).unwrap();
    let mut out = fig6_frontier_head(
        "fig6_dense_frontier/v1 candidates=dense top_k=10",
        &frontier,
    );
    let _ = writeln!(
        out,
        "pareto_len={} pareto_fnv1a={:016x}",
        frontier.pareto.len(),
        fnv1a(fig6_pareto_lines(&frontier).as_bytes())
    );
    check("fig6_dense_frontier.txt", &out);
}

/// Canonical rendering of one zoo point, shared by the table and frontier
/// goldens.
fn zoo_point_line(p: &crosslight_experiments::arch_zoo::ZooPoint) -> String {
    format!(
        "{} arch={} bits={} fps={} epb={} kfps_per_w={} power_w={} area_mm2={} fom={} in_budget={}",
        p.label,
        p.arch,
        p.resolution_bits,
        f(p.avg_fps),
        f(p.avg_epb_pj),
        f(p.avg_kfps_per_watt),
        f(p.power_w),
        f(p.area_mm2),
        f(p.fps_per_epb),
        p.within_power_budget
    )
}

#[test]
fn arch_zoo_table_is_locked() {
    // Table-III-style rows for every backend-family default: the golden
    // coverage for the zoo backends' analytical models.
    let rows = arch_zoo::table_rows().unwrap();
    let mut out = String::from("arch_zoo_table/v1\n");
    for row in &rows {
        let _ = writeln!(out, "{}", zoo_point_line(row));
    }
    check("arch_zoo_table.txt", &out);
}

#[test]
fn arch_zoo_frontier_is_locked() {
    // The cross-architecture streaming frontier over the union grid, under
    // the default power budget.  Worker count cannot matter (locked by the
    // unit tests); the fixture locks the values themselves.
    let frontier = arch_zoo::run_streaming(
        &arch_zoo::union_candidates(),
        3,
        8,
        arch_zoo::DEFAULT_POWER_BUDGET_W,
    )
    .unwrap();
    let mut out = format!(
        "arch_zoo_frontier/v1 top_k=8 budget_w={}\n",
        f(frontier.power_budget_w)
    );
    let _ = writeln!(
        out,
        "evaluated={} in_budget={}",
        frontier.evaluated, frontier.in_budget
    );
    let _ = writeln!(
        out,
        "best={}",
        zoo_point_line(frontier.best.as_ref().unwrap())
    );
    for p in &frontier.top {
        let _ = writeln!(out, "top {}", zoo_point_line(p));
    }
    for p in &frontier.pareto {
        let _ = writeln!(out, "pareto {}", zoo_point_line(p));
    }
    check("arch_zoo_frontier.txt", &out);
}

#[test]
fn resolution_analysis_is_locked() {
    let analysis = resolution_analysis::run(20);
    let mut out = String::from("resolution_analysis/v1 max_mrs=20\n");
    for row in &analysis.rows {
        let _ = writeln!(
            out,
            "mrs={} crosslight_bits={} dense_low_q_bits={}",
            row.mrs_per_bank, row.crosslight_bits, row.dense_low_q_bits
        );
    }
    let _ = writeln!(out, "microdisk_bits={}", analysis.microdisk_bits);
    check("resolution_analysis.txt", &out);
}
