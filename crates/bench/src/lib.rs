//! # crosslight-bench
//!
//! The benchmark-trajectory harness of the CrossLight reproduction: four
//! bins, each of which times its workloads and writes a `BENCH_*.json`
//! (to the working directory unless `--out` names another path).
//!
//! * `bench_kernels` — the neural kernels behind Fig. 5 training (matmul,
//!   im2col, conv forward, a training epoch, a Fig. 5 cell) and the TED
//!   solve.
//! * `bench_sim` — the analytical simulator, its crosstalk and FPV
//!   models, and the Fig. 6 and architecture-zoo sweeps.
//! * `bench_server` — the wire codec, direct `EvalService` dispatch, the
//!   loopback server, and serial uncached simulation as the runtime's
//!   baseline.
//! * `bench_cluster` — routing through the cluster router against direct
//!   serving.
//!
//! Entries with a baseline carry it in the JSON (`baseline_ns_per_iter`,
//! `speedup_vs_baseline`), either recorded before a refactor or measured
//! in the same run.  The paper's figures and tables print from the
//! examples (`thermal_tuning`, `quantization_study`, `design_space`,
//! `accelerator_comparison`), not from here.

#![warn(missing_docs)]

use std::time::Instant;

use crosslight_server::json::push_string_literal;
use crosslight_telemetry::Histogram;

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
    report(name, ns_per_iter, iterations, &histogram)
}

/// [`measure`] for two routines that take turns, one iteration each, until
/// each has had about `window_ms`: drift on the host lands on both alike,
/// so the ratio of the two results is an interleaved same-run comparison.
/// Each iteration is timed from the clock read that ended the one before.
pub fn measure_interleaved<A, B>(
    names: [&str; 2],
    window_ms: u64,
    mut first: impl FnMut() -> A,
    mut second: impl FnMut() -> B,
) -> [BenchResult; 2] {
    for _ in 0..2 {
        std::hint::black_box(first());
        std::hint::black_box(second());
    }
    let window = std::time::Duration::from_millis(2 * window_ms);
    let histograms = [Histogram::new(), Histogram::new()];
    let mut busy_ns = [0u64; 2];
    let start = Instant::now();
    let mut previous = start;
    let mut iterations = 0u64;
    while previous.duration_since(start) < window {
        std::hint::black_box(first());
        let turn = Instant::now();
        std::hint::black_box(second());
        let now = Instant::now();
        for (side, elapsed) in [turn - previous, now - turn].into_iter().enumerate() {
            let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
            histograms[side].record(ns);
            busy_ns[side] = busy_ns[side].saturating_add(ns);
        }
        iterations += 1;
        previous = now;
    }
    [0, 1].map(|side| {
        let ns_per_iter = busy_ns[side] as f64 / iterations as f64;
        report(names[side], ns_per_iter, iterations, &histograms[side])
    })
}

/// Prints one measured workload's line and builds its [`BenchResult`].
fn report(name: &str, ns_per_iter: f64, iterations: u64, histogram: &Histogram) -> BenchResult {
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
    let mut out = String::from("{\n  \"schema\": ");
    push_string_literal(schema, &mut out);
    out.push_str(",\n  \"mode\": ");
    push_string_literal(mode, &mut out);
    out.push_str(",\n  \"baseline_commit\": ");
    push_string_literal(baseline_commit, &mut out);
    out.push_str(",\n  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {\"name\": ");
        push_string_literal(&r.name, &mut out);
        out.push_str(&format!(", \"ns_per_iter\": {:.1}, ", r.ns_per_iter));
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn interleaved_routines_take_turns_and_keep_their_own_times() {
        let (first_calls, second_calls) = (Cell::new(0u64), Cell::new(0u64));
        let [heavy, light] = measure_interleaved(
            ["heavy", "light"],
            5,
            || {
                first_calls.set(first_calls.get() + 1);
                (0..20_000u64).map(std::hint::black_box).sum::<u64>()
            },
            || second_calls.set(second_calls.get() + 1),
        );
        assert_eq!(
            (heavy.name.as_str(), light.name.as_str()),
            ("heavy", "light")
        );
        assert_eq!(heavy.iterations, light.iterations);
        // Two warm-up turns each, then one timed turn each per iteration.
        assert_eq!(first_calls.get(), heavy.iterations + 2);
        assert_eq!(second_calls.get(), light.iterations + 2);
        assert!(heavy.ns_per_iter > light.ns_per_iter);
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
