//! # crosslight-bench
//!
//! The benchmark-trajectory harness of the CrossLight reproduction: four
//! bins, each of which times its workloads and writes a `BENCH_*.json`
//! (to the working directory unless `--out` names another path; `--quick`
//! shortens every window for a smoke run).
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
//!   serving, and failover recovery against the steady state.
//!
//! A ratio is only ever measured one way: [`measure_turns`] runs an entry
//! and its named sibling in turns for [`ROUNDS`] rounds, and the entry
//! records its speed-up over the sibling (the sibling's figure over its
//! own) with the min and max of the per-round speed-ups.  A ratio that
//! backs a documented acceptance bar carries that [`Bar`], and [`finish`]
//! exits non-zero when the bar's best round misses it.  An entry with no
//! sibling records its absolute time only.  The paper's figures and
//! tables print from the examples (`thermal_tuning`, `quantization_study`,
//! `design_space`, `accelerator_comparison`), not from here.

#![warn(missing_docs)]

use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use crosslight_server::json::push_string_literal;
use crosslight_telemetry::{Histogram, HistogramSnapshot};

/// Rounds of every measurement; each routine runs at least once a round.
pub const ROUNDS: usize = 5;

/// One measured workload of a benchmark-trajectory bin.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Workload name (stable across PRs — the trajectory key).
    pub name: String,
    /// Number of timed iterations over all rounds.
    pub iterations: u64,
    /// Each round's mean, p50 and p99 nanoseconds per iteration (per
    /// request where an iteration serves several), indexed by [`Figure`];
    /// the entry's figures are their means over the rounds.
    pub rounds: Vec<[f64; 3]>,
    /// The speed-up over a sibling measured in the same rounds, if any.
    pub ratio: Option<Ratio>,
}

/// One of an entry's per-round figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Mean nanoseconds (`ns_per_iter`).
    Mean,
    /// Median nanoseconds (`p50_ns`).
    P50,
    /// 99th-percentile nanoseconds (`p99_ns`).
    P99,
}

impl Figure {
    fn key(self) -> &'static str {
        ["ns_per_iter", "p50_ns", "p99_ns"][self as usize]
    }
}

/// A documented acceptance bar on a speed-up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bar {
    /// Some round's speed-up must reach this floor.
    AtLeast(f64),
    /// Some round's speed-up must stay at or under this ceiling.
    AtMost(f64),
}

/// An entry's speed-up over a sibling measured in the same rounds: the
/// sibling's figure over the entry's.
#[derive(Debug, Clone, PartialEq)]
pub struct Ratio {
    /// The sibling entry's name.
    pub baseline: String,
    /// The figure compared.
    pub of: Figure,
    /// The sibling's figure over the entry's, each the mean over rounds;
    /// it lies between [`Ratio::min`] and [`Ratio::max`].
    pub value: f64,
    /// The smallest per-round speed-up.
    pub min: f64,
    /// The largest per-round speed-up.
    pub max: f64,
    /// The acceptance bar the speed-up backs, if any.
    pub bar: Option<Bar>,
}

impl Bar {
    /// The bar's JSON key, sign and limit.
    fn parts(self) -> (&'static str, &'static str, f64) {
        match self {
            Bar::AtLeast(floor) => ("speedup_floor", "≥", floor),
            Bar::AtMost(ceiling) => ("speedup_ceiling", "≤", ceiling),
        }
    }
}

impl Ratio {
    /// Whether the bar's best round misses it: no round reaches a floor,
    /// or no round stays under a ceiling.
    #[must_use]
    pub fn misses_bar(&self) -> bool {
        match self.bar {
            Some(Bar::AtLeast(floor)) => self.max < floor,
            Some(Bar::AtMost(ceiling)) => self.min > ceiling,
            None => false,
        }
    }
}

impl BenchResult {
    /// The result of per-iteration nanoseconds recorded round by round,
    /// one histogram per round; prints its line.
    #[must_use]
    pub fn from_rounds(name: &str, rounds: &[HistogramSnapshot]) -> Self {
        let result = Self {
            name: name.to_string(),
            iterations: rounds.iter().map(HistogramSnapshot::count).sum(),
            rounds: rounds
                .iter()
                .map(|round| [round.mean(), round.p50() as f64, round.p99() as f64])
                .collect(),
            ratio: None,
        };
        println!(
            "{name:<44} {:>14.1} ns/iter  (p50 {:.0}, p99 {:.0}, {} iterations)",
            result.figure(Figure::Mean),
            result.figure(Figure::P50),
            result.figure(Figure::P99),
            result.iterations,
        );
        result
    }

    /// The mean over rounds of one of this entry's figures.
    #[must_use]
    pub fn figure(&self, of: Figure) -> f64 {
        let sum: f64 = self.rounds.iter().map(|round| round[of as usize]).sum();
        sum / self.rounds.len() as f64
    }

    /// Records this entry's speed-up over `baseline`, a sibling measured in
    /// the same rounds, on figure `of`.
    ///
    /// # Panics
    ///
    /// Panics when the two were not measured over the same number of
    /// rounds.
    pub fn compare(&mut self, baseline: &BenchResult, of: Figure, bar: Option<Bar>) {
        assert_eq!(self.rounds.len(), baseline.rounds.len(), "same rounds");
        let per_round = self
            .rounds
            .iter()
            .zip(&baseline.rounds)
            .map(|(entry, sibling)| sibling[of as usize] / entry[of as usize]);
        let (min, max) = per_round.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), r| {
            (lo.min(r), hi.max(r))
        });
        self.ratio = Some(Ratio {
            baseline: baseline.name.clone(),
            of,
            value: baseline.figure(of) / self.figure(of),
            min,
            max,
            bar,
        });
    }
}

/// Runs `routines` in turns for [`ROUNDS`] rounds, after two warm-up
/// calls each.  Every round runs each routine for about
/// `window_ms / ROUNDS` (at least once), and the routine that goes first
/// rotates round by round, so drift on the host lands on all of them
/// alike.  A routine returns how many requests its iteration served, and
/// its figures are per request.
///
/// Per-iteration times come from *boundary timing*: the loop reads the
/// clock once per iteration and records successive deltas into one
/// log-linear [`Histogram`] per round, so the report carries p50/p99
/// alongside the mean at no extra clock cost.
pub fn measure_turns<const N: usize>(
    names: [&str; N],
    window_ms: u64,
    mut routines: [&mut dyn FnMut() -> u64; N],
) -> [BenchResult; N] {
    for routine in &mut routines {
        routine();
        routine();
    }
    let turn = Duration::from_millis(window_ms) / ROUNDS as u32;
    let mut rounds: [Vec<HistogramSnapshot>; N] = std::array::from_fn(|_| Vec::new());
    for round in 0..ROUNDS {
        for side in (round..round + N).map(|i| i % N) {
            let histogram = Histogram::new();
            let start = Instant::now();
            let mut previous = start;
            loop {
                let requests = routines[side]().max(1);
                let now = Instant::now();
                let ns = u64::try_from((now - previous).as_nanos()).unwrap_or(u64::MAX);
                histogram.record(ns / requests);
                previous = now;
                if now - start >= turn {
                    break;
                }
            }
            rounds[side].push(histogram.snapshot());
        }
    }
    std::array::from_fn(|side| BenchResult::from_rounds(names[side], &rounds[side]))
}

/// [`measure_turns`] for one workload.
pub fn measure<O>(name: &str, window_ms: u64, routine: impl FnMut() -> O) -> BenchResult {
    let [result] = measure_turns([name], window_ms, [&mut one_request(routine)]);
    result
}

/// [`measure_turns`] for an entry and its sibling, one request an
/// iteration each; the entry records its speed-up over the sibling's mean.
pub fn measure_pair<A, B>(
    names: [&str; 2],
    window_ms: u64,
    entry: impl FnMut() -> A,
    sibling: impl FnMut() -> B,
) -> [BenchResult; 2] {
    let [mut entry, sibling] = measure_turns(
        names,
        window_ms,
        [&mut one_request(entry), &mut one_request(sibling)],
    );
    entry.compare(&sibling, Figure::Mean, None);
    [entry, sibling]
}

/// A routine that serves one request an iteration, its output kept opaque.
fn one_request<O>(mut routine: impl FnMut() -> O) -> impl FnMut() -> u64 {
    move || {
        black_box(routine());
        1
    }
}

/// Renders a benchmark-trajectory report as the shared `BENCH_*.json`
/// format: every entry carries its figures, and an entry with a sibling
/// names it as `baseline` next to its speed-up, the per-round min and
/// max, and its bar if it backs one.
#[must_use]
pub fn render_trajectory_json(schema: &str, mode: &str, results: &[BenchResult]) -> String {
    let mut out = String::from("{\n  \"schema\": ");
    push_string_literal(schema, &mut out);
    out.push_str(",\n  \"mode\": ");
    push_string_literal(mode, &mut out);
    out.push_str(",\n  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {\"name\": ");
        push_string_literal(&r.name, &mut out);
        out.push_str(&format!(
            ", \"ns_per_iter\": {:.1}, \"iterations\": {}, \"p50_ns\": {:.1}, \"p99_ns\": {:.1}",
            r.figure(Figure::Mean),
            r.iterations,
            r.figure(Figure::P50),
            r.figure(Figure::P99),
        ));
        if let Some(ratio) = &r.ratio {
            out.push_str(", \"baseline\": ");
            push_string_literal(&ratio.baseline, &mut out);
            out.push_str(&format!(
                ", \"speedup_of\": \"{}\", \"speedup_vs_baseline\": {:.3}, \"speedup_min\": {:.3}, \
                 \"speedup_max\": {:.3}, \"rounds\": {}",
                ratio.of.key(),
                ratio.value,
                ratio.min,
                ratio.max,
                r.rounds.len(),
            ));
            if let Some(bar) = ratio.bar {
                let (key, _, limit) = bar.parts();
                out.push_str(&format!(", \"{key}\": {limit}"));
            }
        }
        out.push_str(if i + 1 < results.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// A bin's command line: `--quick` for short windows, `--out <path>` for
/// where the JSON goes.
#[derive(Debug, Clone)]
pub struct Args {
    /// Whether to run the short CI windows.
    pub quick: bool,
    /// Where to write the JSON.
    pub out: String,
}

impl Args {
    /// Reads the command line; any other argument prints the usage and
    /// exits with status 2.
    #[must_use]
    pub fn parse(default_out: &str) -> Self {
        let mut args = Self {
            quick: false,
            out: default_out.to_string(),
        };
        let mut argv = std::env::args().skip(1);
        while let Some(arg) = argv.next() {
            let path = (arg == "--out").then(|| argv.next()).flatten();
            match (arg.as_str(), path) {
                ("--quick", _) => args.quick = true,
                ("--out", Some(path)) => args.out = path,
                _ => {
                    eprintln!("usage: [--quick] [--out <path>]");
                    std::process::exit(2);
                }
            }
        }
        args
    }
}

/// Writes the bin's JSON, prints every speed-up with its spread and bar,
/// and fails when a bar's best round misses it.
///
/// # Panics
///
/// Panics when the JSON cannot be written.
#[must_use]
pub fn finish(args: &Args, schema: &str, results: &[BenchResult]) -> ExitCode {
    let mode = if args.quick { "quick" } else { "full" };
    std::fs::write(&args.out, render_trajectory_json(schema, mode, results))
        .expect("writing the JSON report succeeds");
    println!("\nwrote {} ({mode} mode)", args.out);
    let mut missed = false;
    for result in results {
        let Some(ratio) = &result.ratio else { continue };
        let bar = ratio.bar.map_or(String::new(), |bar| {
            let (_, sign, limit) = bar.parts();
            format!(", bar {sign} {limit}")
        });
        let verdict = if ratio.misses_bar() { "  MISSED" } else { "" };
        println!(
            "  {:<36} {:>9.3}× {} on {} ({:.3}–{:.3} over {} rounds{bar}){verdict}",
            result.name,
            ratio.value,
            ratio.baseline,
            ratio.of.key(),
            ratio.min,
            ratio.max,
            result.rounds.len(),
        );
        missed |= ratio.misses_bar();
    }
    if missed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crosslight_server::json::Json;
    use std::cell::RefCell;

    #[test]
    fn rounds_rotate_the_first_side_and_run_every_side() {
        // A zero window runs each routine exactly once a round.
        let calls = RefCell::new(String::new());
        let [heavy, light] = measure_pair(
            ["heavy", "light"],
            0,
            || {
                calls.borrow_mut().push('h');
                (0..20_000u64).map(black_box).sum::<u64>()
            },
            || calls.borrow_mut().push('l'),
        );
        // Two warm-up calls each, then one call each per round, the first
        // side alternating.
        assert_eq!(
            calls.into_inner(),
            concat!("hhll", "hl", "lh", "hl", "lh", "hl")
        );
        assert_eq!((heavy.iterations, light.iterations), (5, 5));
        assert_eq!((heavy.rounds.len(), light.rounds.len()), (ROUNDS, ROUNDS));
        let ratio = heavy.ratio.expect("the entry records its ratio");
        assert_eq!(ratio.baseline, "light");
        assert!(ratio.min <= ratio.value && ratio.value <= ratio.max);
        assert!(ratio.value < 1.0, "the heavy side is the slower one");
        assert!(light.ratio.is_none());
    }

    #[test]
    fn three_sides_each_go_first_in_turn() {
        let calls = RefCell::new(String::new());
        let side = |c: char| {
            let calls = &calls;
            move || {
                calls.borrow_mut().push(c);
                1
            }
        };
        let (mut a, mut b, mut c) = (side('a'), side('b'), side('c'));
        measure_turns(["a", "b", "c"], 0, [&mut a, &mut b, &mut c]);
        let rounds = &calls.borrow()[6..];
        assert_eq!(rounds, concat!("abc", "bca", "cab", "abc", "bca"));
    }

    fn result(name: &str, means: &[f64]) -> BenchResult {
        BenchResult {
            name: name.into(),
            iterations: means.len() as u64,
            rounds: means.iter().map(|&m| [m, m, 2.0 * m]).collect(),
            ratio: None,
        }
    }

    #[test]
    fn a_bar_met_in_one_round_passes_and_one_missed_in_every_round_fails() {
        let mut entry = result("entry", &[100.0; 5]);
        // Per-round speed-ups (baseline over entry) 1, 1, 4, 1, 1, then
        // 1, 1, 0.25, 1, 1: only the third round reaches 3 or stays under
        // 0.5, and none reaches 5 or stays under 0.2.
        let high = result("baseline", &[100.0, 100.0, 400.0, 100.0, 100.0]);
        let low = result("baseline", &[100.0, 100.0, 25.0, 100.0, 100.0]);
        for (baseline, bar, misses) in [
            (&high, Bar::AtLeast(3.0), false),
            (&high, Bar::AtLeast(5.0), true),
            (&low, Bar::AtMost(0.5), false),
            (&low, Bar::AtMost(0.2), true),
        ] {
            for of in [Figure::Mean, Figure::P99] {
                entry.compare(baseline, of, Some(bar));
                let ratio = entry.ratio.as_ref().unwrap();
                assert!(ratio.min <= ratio.value && ratio.value <= ratio.max);
                assert_eq!(ratio.misses_bar(), misses, "{bar:?} on {of:?}");
            }
        }
        entry.compare(&low, Figure::Mean, None);
        assert!(!entry.ratio.unwrap().misses_bar());
    }

    #[test]
    fn rendered_ratios_name_a_baseline_in_the_same_file() {
        let mut entry = result("entry", &[100.0, 200.0, 100.0, 100.0, 100.0]);
        let baseline = result("baseline", &[300.0, 300.0, 400.0, 200.0, 300.0]);
        entry.compare(&baseline, Figure::Mean, Some(Bar::AtLeast(10.0)));
        let alone = result("alone", &[50.0]);
        let json = render_trajectory_json("s/v2", "quick", &[entry, baseline, alone]);
        let doc = Json::parse(&json).expect("valid JSON");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("s/v2"));
        let benches = doc.get("benches").and_then(Json::as_array).unwrap();
        let names: Vec<&str> = benches
            .iter()
            .map(|b| b.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, ["entry", "baseline", "alone"]);
        let with_ratio: Vec<&Json> = benches
            .iter()
            .filter(|b| b.get("baseline").is_some())
            .collect();
        assert_eq!(
            with_ratio.len(),
            1,
            "only the compared entry carries a ratio"
        );
        let entry = with_ratio[0];
        let sibling = entry.get("baseline").and_then(Json::as_str).unwrap();
        assert!(names.contains(&sibling));
        let number = |key: &str| entry.get(key).and_then(Json::as_f64).unwrap();
        assert_eq!(number("speedup_vs_baseline"), 2.5);
        assert_eq!((number("speedup_min"), number("speedup_max")), (1.5, 4.0));
        assert_eq!((number("rounds"), number("speedup_floor")), (5.0, 10.0));
        assert_eq!(
            entry.get("speedup_of").and_then(Json::as_str),
            Some("ns_per_iter")
        );
        assert!(benches[2].get("speedup_vs_baseline").is_none());
    }

    #[test]
    fn measure_reports_percentiles_from_boundary_timing() {
        let result = measure("smoke_measure", 5, || black_box(3u64 + 4));
        let (p50, p99) = (result.figure(Figure::P50), result.figure(Figure::P99));
        assert!(p50 > 0.0);
        assert!(p99 >= p50);
        assert!(result.iterations >= ROUNDS as u64);
        assert!(result.ratio.is_none());
    }
}
