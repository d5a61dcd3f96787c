//! # crosslight-bench
//!
//! Criterion benchmark harness for the CrossLight reproduction.
//!
//! The benches do double duty: they measure how long each experiment takes to
//! regenerate, and (once per bench, outside the timed loop) they print the
//! regenerated table so `cargo bench` output contains the paper-style rows.
//!
//! * `benches/paper_figures.rs` — one bench per figure (device DSE, Fig. 4,
//!   Fig. 5, Fig. 6, Fig. 7, Fig. 8, §V.B resolution analysis).
//! * `benches/paper_tables.rs` — Table III.
//! * `benches/kernels.rs` — microbenchmarks of the core kernels (MR
//!   transmission, TED solve, conv forward, quantization, full simulator
//!   evaluation).
//!
//! The crate also hosts the shared benchmark-trajectory harness
//! ([`measure`], [`render_trajectory_json`]) behind the
//! `bench_kernels` and `bench_sim` bins: each emits a `BENCH_*.json` with
//! embedded pre-refactor baselines so every PR records a perf datapoint for
//! both the neural-kernel and the analytical-simulator trajectories.

#![warn(missing_docs)]

use std::time::Instant;

use crosslight_telemetry::Histogram;

/// Prints a named experiment table once, prefixed so it is easy to find in
/// `cargo bench` output.
pub fn print_table(title: &str, table: &crosslight_experiments::TextTable) {
    println!("\n=== {title} ===\n{}", table.render());
}

/// One measured workload of a benchmark-trajectory bin (`bench_kernels`,
/// `bench_sim`).
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Workload name (stable across PRs — the trajectory key).
    pub name: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Number of timed iterations behind the mean.
    pub iterations: u64,
    /// Median per-iteration nanoseconds, from the boundary-timing
    /// histogram; `None` for single-iteration measurements.
    pub p50_ns: Option<f64>,
    /// 99th-percentile per-iteration nanoseconds; `None` for
    /// single-iteration measurements.
    pub p99_ns: Option<f64>,
}

/// Warm-up twice, then run `routine` until `window_ms` of wall clock is
/// filled — the shared measurement loop of the trajectory bins.
///
/// Per-iteration times come from *boundary timing*: the loop reads the
/// clock once per iteration (exactly as many reads as the plain
/// mean-only loop needed for its exit condition) and records successive
/// deltas into a log-linear [`Histogram`], so the report carries p50/p99
/// alongside the mean at zero extra clock cost.
pub fn measure<O, F: FnMut() -> O>(name: &str, window_ms: u64, mut routine: F) -> BenchResult {
    for _ in 0..2 {
        std::hint::black_box(routine());
    }
    let window = std::time::Duration::from_millis(window_ms);
    let histogram = Histogram::new();
    let start = Instant::now();
    let mut previous = start;
    let mut iterations = 0u64;
    let end = loop {
        std::hint::black_box(routine());
        iterations += 1;
        let now = Instant::now();
        histogram
            .record(u64::try_from(now.duration_since(previous).as_nanos()).unwrap_or(u64::MAX));
        previous = now;
        if now.duration_since(start) >= window {
            break now;
        }
    };
    let ns_per_iter = end.duration_since(start).as_nanos() as f64 / iterations as f64;
    let snapshot = histogram.snapshot();
    let (p50, p99) = (snapshot.p50(), snapshot.p99());
    println!(
        "{name:<44} {ns_per_iter:>14.1} ns/iter  (p50 {p50}, p99 {p99}, {iterations} iterations)"
    );
    BenchResult {
        name: name.to_string(),
        ns_per_iter,
        iterations,
        p50_ns: Some(p50 as f64),
        p99_ns: Some(p99 as f64),
    }
}

/// Looks up a workload's pre-refactor baseline in a `(name, ns)` table.
#[must_use]
pub fn baseline_for(baselines: &[(&str, f64)], name: &str) -> Option<f64> {
    baselines
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, ns)| ns)
}

/// Renders a benchmark-trajectory report as the `BENCH_*.json` format shared
/// by the kernel and simulator trajectories: every entry carries its
/// measurement, and entries with a recorded baseline also carry
/// `baseline_ns_per_iter`/`speedup_vs_baseline` so the before/after record
/// survives in the committed artifact.
#[must_use]
pub fn render_trajectory_json(
    schema: &str,
    mode: &str,
    baseline_commit: &str,
    baselines: &[(&str, f64)],
    results: &[BenchResult],
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema\": \"{}\",\n", json_escape(schema)));
    out.push_str(&format!("  \"mode\": \"{}\",\n", json_escape(mode)));
    out.push_str(&format!(
        "  \"baseline_commit\": \"{}\",\n",
        json_escape(baseline_commit)
    ));
    out.push_str("  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"name\": \"{}\", ", json_escape(&r.name)));
        out.push_str(&format!("\"ns_per_iter\": {:.1}, ", r.ns_per_iter));
        out.push_str(&format!("\"iterations\": {}", r.iterations));
        if let Some(p50) = r.p50_ns {
            out.push_str(&format!(", \"p50_ns\": {p50:.1}"));
        }
        if let Some(p99) = r.p99_ns {
            out.push_str(&format!(", \"p99_ns\": {p99:.1}"));
        }
        if let Some(baseline) = baseline_for(baselines, &r.name) {
            out.push_str(&format!(", \"baseline_ns_per_iter\": {baseline:.1}"));
            out.push_str(&format!(
                ", \"speedup_vs_baseline\": {:.2}",
                baseline / r.ns_per_iter
            ));
        }
        out.push('}');
        if i + 1 < results.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Prints the speedup-vs-baseline summary lines of a trajectory run.
pub fn print_speedups(baselines: &[(&str, f64)], results: &[BenchResult]) {
    for r in results {
        if let Some(baseline) = baseline_for(baselines, &r.name) {
            println!(
                "  {:<40} {:>6.2}x vs pre-refactor baseline",
                r.name,
                baseline / r.ns_per_iter
            );
        }
    }
}

/// Minimal JSON string escaping for the hand-rolled `BENCH_*.json` reports
/// (no serde_json in this offline workspace).
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crosslight_experiments::TextTable;

    #[test]
    fn print_table_does_not_panic() {
        let mut table = TextTable::new(vec!["a", "b"]);
        table.push_row(vec!["1", "2"]);
        print_table("smoke", &table);
    }

    #[test]
    fn trajectory_json_embeds_baselines_only_where_recorded() {
        let baselines = [("with_baseline", 200.0)];
        let results = vec![
            BenchResult {
                name: "with_baseline".into(),
                ns_per_iter: 100.0,
                iterations: 10,
                p50_ns: Some(95.0),
                p99_ns: Some(180.0),
            },
            BenchResult {
                name: "fresh".into(),
                ns_per_iter: 50.0,
                iterations: 3,
                p50_ns: None,
                p99_ns: None,
            },
        ];
        let json = render_trajectory_json("s/v1", "quick", "abc123", &baselines, &results);
        assert!(json.contains("\"schema\": \"s/v1\""));
        assert!(json.contains("\"speedup_vs_baseline\": 2.00"));
        assert!(json.contains("\"name\": \"fresh\", \"ns_per_iter\": 50.0, \"iterations\": 3}"));
        assert!(json.contains("\"p50_ns\": 95.0, \"p99_ns\": 180.0"));
        assert_eq!(json.matches("baseline_ns_per_iter").count(), 1);
        // Percentiles appear only where the measurement recorded them.
        assert_eq!(json.matches("p50_ns").count(), 1);
        assert_eq!(baseline_for(&baselines, "fresh"), None);
    }

    #[test]
    fn measure_reports_percentiles_from_boundary_timing() {
        let result = measure("smoke_measure", 5, || std::hint::black_box(3u64 + 4));
        let (p50, p99) = (result.p50_ns.unwrap(), result.p99_ns.unwrap());
        assert!(p50 > 0.0);
        assert!(p99 >= p50);
        assert!(result.iterations > 0);
    }
}
