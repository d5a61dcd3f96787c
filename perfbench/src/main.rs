//! The CrossLight benchmark: four workloads over the serving stack and the
//! Fig. 6 design-space sweep, end-to-end metrics with the benchmark's own
//! tracing off, and a per-layer ledger from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm_mix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it is a
//! JSON object of run details (seed, host, sample counts, problems).  The
//! process exits non-zero when any answer is wrong, any operation failed, or
//! a load gauge did not return to zero.  See `LEDGER.md` for what every
//! metric measures and which layer it belongs to.

mod dse;
mod gen;
mod layers;
mod stats;
mod wire_load;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crosslight_server::json::push_string_literal;

use crate::layers::Layers;
use crate::stats::WindowFigures;

/// The workloads, named as in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WarmMix,
    DseSweep,
    RoutedMix,
    DseLocal,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WarmMix,
        Workload::DseSweep,
        Workload::RoutedMix,
        Workload::DseLocal,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmMix => "warm_mix",
            Workload::DseSweep => "dse_sweep",
            Workload::RoutedMix => "routed_mix",
            Workload::DseLocal => "dse_local",
        }
    }
}

/// End-to-end metrics `(name, unit)`, reported with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("client.encode_us", "us"),
    ("client.decode_us", "us"),
    ("client.failed_frac", "ratio"),
    ("wire.decode_request_us", "us"),
    ("wire.encode_response_us", "us"),
    ("server.request_us", "us"),
    ("server.phase_us.read", "us"),
    ("server.phase_us.decode", "us"),
    ("server.phase_us.admission", "us"),
    ("server.phase_us.queue", "us"),
    ("server.phase_us.cache_lookup", "us"),
    ("server.phase_us.prepare", "us"),
    ("server.phase_us.evaluate", "us"),
    ("server.phase_us.serialize", "us"),
    ("server.phase_us.write_queue", "us"),
    ("server.phase_us.write", "us"),
    ("server.unattributed_us", "us"),
    ("server.transport_us", "us"),
    ("server.batch_size_mean", "count"),
    ("server.shed", "count"),
    ("runtime.queue_wait_us", "us"),
    ("runtime.cache_lookup_us", "us"),
    ("runtime.result_hit_ratio", "ratio"),
    ("runtime.worker_busy_imbalance", "ratio"),
    ("core.prepare_us", "us"),
    ("core.evaluate_us", "us"),
    ("core.model_hit_ratio", "ratio"),
    ("core.unit_reports_built", "count"),
    ("cluster.hop_us", "us"),
    ("cluster.route_us", "us"),
    ("cluster.overhead_us", "us"),
    ("cluster.retries", "count"),
    ("cluster.failovers", "count"),
    ("cluster.shed", "count"),
    ("experiments.parallel_efficiency", "ratio"),
    ("ledger.client_us", "us"),
    ("ledger.wire_us", "us"),
    ("ledger.server_us", "us"),
    ("ledger.runtime_us", "us"),
    ("ledger.core_us", "us"),
    ("ledger.cluster_us", "us"),
    ("ledger.experiments_us", "us"),
    ("ledger.unattributed_us", "us"),
    ("ledger.e2e_p50_us", "us"),
    ("trace.throughput_rps", "1/s"),
    ("trace.untraced_throughput_rps", "1/s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.latency_p50_us", "us"),
    ("trace.latency_p99_us", "us"),
];

/// Everything one run observed.
#[derive(Debug)]
pub struct Outcome {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Operations attempted across every measured window.
    pub attempted: u64,
    /// Operations answered and found correct.
    pub correct: u64,
    pub setup_s: f64,
    /// Peak resident memory, read where the workload defines it.
    pub peak_rss_mb: f64,
    /// Figures of the untraced window.
    pub figures: WindowFigures,
    /// Present after a traced run.
    pub layers: Option<Layers>,
    pub problems: Vec<String>,
    pub details: Vec<(String, String)>,
}

impl Outcome {
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            workload,
            seed,
            seconds,
            trace,
            attempted: 0,
            correct: 0,
            setup_s: 0.0,
            peak_rss_mb: 0.0,
            figures: stats::window_figures(&[], 1.0, 1.0, &[]),
            layers: None,
            problems: Vec::new(),
            details: Vec::new(),
        }
    }

    pub fn problem(&mut self, problem: String) {
        self.problems.push(problem);
    }

    pub fn detail(&mut self, key: &str, value: String) {
        self.details.push((key.to_string(), value));
    }

    fn failed(&self) -> u64 {
        self.attempted - self.correct.min(self.attempted)
    }

    fn ok(&self) -> bool {
        self.problems.is_empty() && self.failed() == 0 && self.attempted > 0
    }
}

/// The reported metrics of an outcome, keyed by name.
fn metric_values(outcome: &Outcome) -> BTreeMap<String, f64> {
    let mut values = BTreeMap::new();
    match &outcome.layers {
        None => {
            let figures = &outcome.figures;
            for (name, value) in [
                ("throughput_rps", figures.throughput_rps),
                ("latency_p50_us", figures.latency_p50_us),
                ("latency_p99_us", figures.latency_p99_us),
                ("setup_s", outcome.setup_s),
                ("peak_rss_mb", outcome.peak_rss_mb),
            ] {
                values.insert(name.to_string(), value);
            }
        }
        Some(layers) => {
            values.extend(layers.values.clone());
            values.insert(
                "client.failed_frac".into(),
                outcome.failed() as f64 / outcome.attempted.max(1) as f64,
            );
        }
    }
    values
}

/// Renders the result line; errors when the metric set differs from the
/// declared list, or a value is not a finite number.
fn result_line(outcome: &Outcome, values: &BTreeMap<String, f64>) -> Result<String, String> {
    let declared: &[(&str, &str)] = if outcome.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let names: Vec<&str> = declared.iter().map(|(name, _)| *name).collect();
    let emitted: Vec<&str> = values.keys().map(String::as_str).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    if sorted != emitted {
        return Err(format!(
            "metric set {emitted:?} differs from the declared {names:?}"
        ));
    }
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.ok(),
        outcome.attempted,
        outcome.failed()
    );
    for (index, (name, unit)) in declared.iter().enumerate() {
        let value = values[*name];
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        if index > 0 {
            out.push_str(", ");
        }
        push_string_literal(name, &mut out);
        let _ = write!(out, ": {{\"value\": {value}, \"unit\": ");
        push_string_literal(unit, &mut out);
        out.push('}');
    }
    out.push_str("}}");
    Ok(out)
}

fn detail_line(outcome: &Outcome) -> String {
    let mut fields: Vec<(String, String)> = vec![
        ("workload".into(), outcome.workload.name().into()),
        ("seed".into(), outcome.seed.to_string()),
        ("seconds".into(), outcome.seconds.to_string()),
        ("trace".into(), outcome.trace.to_string()),
        (
            "nproc".into(),
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        (
            "profile".into(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        (
            "latency_samples".into(),
            outcome.figures.samples.to_string(),
        ),
        (
            "kept_slices".into(),
            format!(
                "{} of {}",
                outcome.figures.kept_slices, outcome.figures.slice_count
            ),
        ),
        (
            "slices_rps_p50_p99_stolen".into(),
            format!("{:.0?}", outcome.figures.slices),
        ),
        (
            "latency_deciles_us".into(),
            format!("{:.0?}", outcome.figures.deciles_us),
        ),
    ];
    fields.extend(outcome.details.iter().cloned());
    if let Some(layers) = &outcome.layers {
        fields.extend(layers.notes.iter().cloned());
    }
    let mut out = String::from("{\"detail\": {");
    for (index, (key, value)) in fields.iter().enumerate() {
        if index > 0 {
            out.push_str(", ");
        }
        push_string_literal(key, &mut out);
        out.push_str(": ");
        push_string_literal(value, &mut out);
    }
    out.push_str("}, \"problems\": [");
    for (index, problem) in outcome.problems.iter().enumerate() {
        if index > 0 {
            out.push_str(", ");
        }
        push_string_literal(problem, &mut out);
    }
    out.push_str("]}");
    out
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(err) => {
            eprintln!(
                "perfbench: {err}\nusage: perfbench --workload <{}> --seed <n> \
                 [--seconds <s>] [--trace 0|1]",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let outcome = match args.workload {
        Workload::DseLocal => dse::run(args.seed, args.seconds, args.trace),
        wire => wire_load::run(wire, args.seed, args.seconds, args.trace),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("perfbench: {} failed: {err}", args.workload.name());
            std::process::exit(1);
        }
    };
    let values = metric_values(&outcome);
    let line = match result_line(&outcome, &values) {
        Ok(line) => line,
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(1);
        }
    };
    println!("{}", detail_line(&outcome));
    println!("{line}");
    if !outcome.ok() {
        for problem in &outcome.problems {
            eprintln!("perfbench: {problem}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crosslight_server::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|metric| {
                let field = |k: &str| metric.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn ours(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    }

    #[test]
    fn every_emitted_metric_matches_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(declared(&doc, "end_to_end"), ours(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), ours(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    }

    #[test]
    fn result_line_rejects_a_metric_set_that_drifts_from_the_declared_one() {
        let mut outcome = Outcome::new(Workload::WarmMix, 1, 1.0, false);
        outcome.attempted = 10;
        outcome.correct = 10;
        outcome.peak_rss_mb = 12.5;
        let mut values = metric_values(&outcome);
        let line = result_line(&outcome, &values).unwrap();
        let parsed = Json::parse(&line).unwrap();
        let metrics = parsed.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let metric = metrics.get(name).unwrap();
            assert_eq!(metric.get("unit").and_then(Json::as_str), Some(unit));
        }
        assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
        values.insert("extra".into(), 1.0);
        assert!(result_line(&outcome, &values).is_err());
    }
}
