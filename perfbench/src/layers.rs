//! The per-layer metrics of a traced run and the ledger that tiles a
//! workload's end-to-end median into layer self times.

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use crosslight_core::cache::ModelCache;
use crosslight_core::config::CrossLightConfig;
use crosslight_core::simulator::CrossLightSimulator;
use crosslight_neural::workload::NetworkWorkload;

use crate::stats::{self, WindowFigures};

/// Layers of the ledger, named after the crates.
pub const LEDGER_LAYERS: [&str; 7] = [
    "client",
    "wire",
    "server",
    "runtime",
    "core",
    "cluster",
    "experiments",
];

/// The `cluster` metrics, all 0 off the routed path.
pub const CLUSTER_METRICS: [&str; 6] = [
    "cluster.hop_us",
    "cluster.route_us",
    "cluster.overhead_us",
    "cluster.retries",
    "cluster.failovers",
    "cluster.shed",
];

/// Per-layer readings of one traced run, plus free-form notes for the
/// detail line.
#[derive(Debug, Default)]
pub struct Layers {
    pub values: BTreeMap<String, f64>,
    pub notes: Vec<(String, String)>,
}

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// # Panics
    ///
    /// Panics when `name` was never set (a bug in the benchmark).
    pub fn get(&self, name: &str) -> f64 {
        self.values[name]
    }

    /// Every metric of a layer absent from the workload's path reads 0.
    pub fn absent(&mut self, names: &[&str]) {
        for name in names {
            self.set(name, 0.0);
        }
    }

    pub fn note(&mut self, key: &str, value: String) {
        self.notes.push((key.to_string(), value));
    }

    /// Records the ledger: one self-time line per layer (µs per operation),
    /// the end-to-end median they tile, and `unattributed`, the part of that
    /// median no layer's line covers (negative when medians overlap).
    pub fn ledger(&mut self, e2e_us: f64, lines: &[(&str, f64)]) {
        assert_eq!(
            lines.iter().map(|(layer, _)| *layer).collect::<Vec<_>>(),
            LEDGER_LAYERS,
            "the ledger lists every layer once, in order"
        );
        for (layer, us) in lines {
            self.set(&format!("ledger.{layer}_us"), *us);
        }
        let attributed: f64 = lines.iter().map(|(_, us)| us).sum();
        self.set("ledger.e2e_p50_us", e2e_us);
        self.set("ledger.unattributed_us", e2e_us - attributed);
    }

    /// Figures of the traced window next to the untraced throughput, and
    /// the share of throughput the tracing cost (negative when the traced
    /// window ran faster).
    pub fn traced_window(&mut self, traced: &WindowFigures, untraced_rps: f64) {
        self.set("trace.throughput_rps", traced.throughput_rps);
        self.set("trace.latency_p50_us", traced.latency_p50_us);
        self.set("trace.latency_p99_us", traced.latency_p99_us);
        self.set("trace.untraced_throughput_rps", untraced_rps);
        self.set(
            "trace.overhead_frac",
            1.0 - traced.throughput_rps / untraced_rps.max(f64::MIN_POSITIVE),
        );
    }
}

/// Median wall time of `f` over `items`, in µs, each call timed on its own
/// after an untimed warm-up pass over the first thousand items.
pub fn p50_call_us<T, R>(items: &[T], mut f: impl FnMut(&T) -> R) -> f64 {
    for item in items.iter().take(1000) {
        black_box(f(item));
    }
    let mut times: Vec<f64> = items
        .iter()
        .map(|item| {
            let started = Instant::now();
            black_box(f(black_box(item)));
            started.elapsed().as_nanos() as f64 * 1e-3
        })
        .collect();
    stats::median(&mut times)
}

/// Distinct configurations timed cold for `core.prepare_us`.
const PREPARE_SAMPLE: usize = 64;
/// `(config, workload)` pairs timed for `core.evaluate_us`.
const EVALUATE_SAMPLE: usize = 2048;

/// The `core` layer over a workload's own `(config, workload)` sample:
/// a cold `prepare` on a fresh `ModelCache` per distinct config, and
/// `PreparedSimulator::evaluate` on a warm one.  The model-cache hit ratio
/// and unit-report count come from the caller's pass over the same path the
/// workload takes through the program.
pub fn core_layer(
    out: &mut Layers,
    sample: &[(CrossLightConfig, Arc<NetworkWorkload>)],
    model_hit_ratio: f64,
    unit_reports: usize,
) {
    let mut seen = HashSet::new();
    let distinct: Vec<CrossLightConfig> = sample
        .iter()
        .map(|(config, _)| *config)
        .filter(|config| seen.insert(format!("{config:?}")))
        .take(PREPARE_SAMPLE)
        .collect();
    let mut cold: Vec<f64> = distinct
        .iter()
        .map(|config| {
            let cache = ModelCache::new();
            let started = Instant::now();
            black_box(CrossLightSimulator::new(*config).prepare_with(&cache)).ok();
            started.elapsed().as_nanos() as f64 * 1e-3
        })
        .collect();
    out.set("core.prepare_us", stats::median(&mut cold));

    let warm = ModelCache::new();
    let prepared: Vec<_> = sample
        .iter()
        .take(EVALUATE_SAMPLE)
        .filter_map(|(config, workload)| {
            let prepared = CrossLightSimulator::new(*config).prepare_with(&warm).ok()?;
            Some((prepared, Arc::clone(workload)))
        })
        .collect();
    out.set(
        "core.evaluate_us",
        p50_call_us(&prepared, |(prepared, workload)| {
            prepared.evaluate(workload)
        }),
    );
    out.set("core.model_hit_ratio", model_hit_ratio);
    out.set("core.unit_reports_built", unit_reports as f64);
}
