//! E9 — Cross-architecture design-space exploration over the backend zoo.
//!
//! Where [`fig6_design_space`](crate::fig6_design_space) sweeps CrossLight's
//! own `(N, K, n, m)` knobs, this experiment lifts the same streaming
//! top-K/Pareto machinery over the **union grid of architectures**: every
//! [`ArchSpec`] backend — CrossLight variants × dimensions × resolutions,
//! HolyLight unit counts, symmetric-crossbar and LiteCON geometries,
//! DEAP-CNN and the electronic reference platforms — averaged over the four
//! Table I models.  The question it answers is the one a wire client asks:
//! *which architecture is best for this workload mix under a power budget?*
//!
//! Three entry points share one evaluation path
//! ([`ArchSpec::simulate`] + [`AverageMetrics::from_reports`]):
//!
//! * [`table_rows`] — Table-III-style comparison rows for
//!   [`ArchSpec::zoo_defaults`] (one row per backend family default);
//! * [`run_streaming`] — folds the union grid over the runtime's parallel
//!   sweep engine into per-worker top-K/Pareto frontiers and merges them,
//!   **identical for any worker count**;
//! * [`run_on`] — the same grid fanned through the runtime's
//!   [`EvalService`], producing a frontier bit-identical to
//!   [`run_streaming`] (the service serves CrossLight points through the
//!   prepared simulator and zoo points through [`ArchSpec::simulate`], both
//!   bit-identical to the serial path).

use serde::{Deserialize, Serialize};

use crosslight_baselines::holylight::HolyLight;
use crosslight_baselines::litecon::LiteCon;
use crosslight_baselines::symmetric_crossbar::SymmetricCrossbar;
use crosslight_baselines::ArchSpec;
use crosslight_core::config::CrossLightConfig;
use crosslight_core::error::Result as CoreResult;
use crosslight_core::simulator::{AverageMetrics, SimulationReport};
use crosslight_core::variants::CrossLightVariant;
use crosslight_neural::workload::NetworkWorkload;
use crosslight_runtime::pool::EvalService;
use crosslight_runtime::request::EvalRequest;
use crosslight_runtime::sweep;

use crate::frontier::{Frontier, FrontierPoint};
use crate::report::{fmt_f64, TextTable};
use crate::table_i_workloads;

/// Default deployment power envelope (W) for the in-budget frontier: wide
/// enough for every photonic design and the edge-class electronic parts,
/// tight enough to exclude the datacenter GPUs/CPUs of the survey.
pub const DEFAULT_POWER_BUDGET_W: f64 = 25.0;

/// One evaluated architecture of the cross-architecture sweep, averaged over
/// the four Table I models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ZooPoint {
    /// Human-readable label ([`ArchSpec::label`]).
    pub label: String,
    /// Architecture family wire name ([`ArchSpec::arch_name`]).
    pub arch: &'static str,
    /// Average FPS over the four Table I models.
    pub avg_fps: f64,
    /// Average EPB (pJ/bit) over the four models.
    pub avg_epb_pj: f64,
    /// Average performance per watt (kFPS/W).
    pub avg_kfps_per_watt: f64,
    /// Accelerator power (W, workload independent).
    pub power_w: f64,
    /// Accelerator area (mm², workload independent; 0 for the electronic
    /// survey rows, which publish no die area).
    pub area_mm2: f64,
    /// Native operand resolution (bits).
    pub resolution_bits: u32,
    /// Figure of merit used to rank points (FPS / EPB).
    pub fps_per_epb: f64,
    /// Whether the point fits the sweep's power budget.
    pub within_power_budget: bool,
}

/// The streaming summary of a cross-architecture sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ZooFrontier {
    /// The `top_k` in-budget points by FPS/EPB, best first.
    pub top: Vec<ZooPoint>,
    /// The Pareto frontier over (FPS max, EPB min, power min) of *all*
    /// evaluated points, in candidate order.
    pub pareto: Vec<ZooPoint>,
    /// The best in-budget point by FPS/EPB (ties broken by lowest candidate
    /// index), if any candidate fits the budget.
    pub best: Option<ZooPoint>,
    /// The power budget the sweep ran under (W).
    pub power_budget_w: f64,
    /// Number of candidates evaluated.
    pub evaluated: usize,
    /// Number of candidates inside the power budget.
    pub in_budget: usize,
}

impl ZooFrontier {
    /// Renders the top-K points as a text table, best first.
    #[must_use]
    pub fn table(&self) -> TextTable {
        let mut table = TextTable::new(vec![
            "Architecture",
            "family",
            "avg FPS",
            "avg EPB (pJ/bit)",
            "kFPS/W",
            "power (W)",
            "bits",
            "FPS/EPB",
            "in budget",
        ]);
        for p in &self.top {
            table.push_row(vec![
                p.label.clone(),
                p.arch.to_string(),
                fmt_f64(p.avg_fps, 1),
                fmt_f64(p.avg_epb_pj, 3),
                fmt_f64(p.avg_kfps_per_watt, 2),
                fmt_f64(p.power_w, 2),
                p.resolution_bits.to_string(),
                fmt_f64(p.fps_per_epb, 1),
                p.within_power_budget.to_string(),
            ]);
        }
        table
    }
}

/// The union candidate grid: every backend family, spanned across its knobs.
///
/// CrossLight contributes variants × two dimension tuples × three
/// resolutions; HolyLight a unit-count sweep; the symmetric crossbar and
/// LiteCON geometry × resolution sweeps; DEAP-CNN its single published
/// design; the electronic survey its six platforms.
#[must_use]
pub fn union_candidates() -> Vec<ArchSpec> {
    let mut specs = Vec::new();
    for variant in CrossLightVariant::all() {
        for dims in [crosslight_core::config::BEST_CONFIG, (10, 100, 50, 30)] {
            for bits in [16u32, 8, 4] {
                let (n, k, conv_units, fc_units) = dims;
                let config = CrossLightConfig::new(n, k, conv_units, fc_units, variant.design())
                    .expect("union grid dims are valid")
                    .with_resolution_bits(bits);
                specs.push(ArchSpec::CrossLight(config));
            }
        }
    }
    for units in [125usize, 250, 500] {
        specs.push(ArchSpec::HolyLight(HolyLight::with_units(units)));
    }
    for side in [32usize, 64, 128] {
        for bits in [4u32, 8] {
            specs.push(ArchSpec::SymmetricCrossbar(
                SymmetricCrossbar::with_dims(side, side, bits)
                    .expect("union grid crossbars are valid"),
            ));
        }
    }
    for (units, unit_size) in [(64usize, 32usize), (128, 32), (128, 64)] {
        for bits in [4u32, 8] {
            specs.push(ArchSpec::LiteCon(
                LiteCon::with_dims(units, unit_size, bits).expect("union grid LiteCONs are valid"),
            ));
        }
    }
    specs.push(ArchSpec::DeapCnn(crosslight_baselines::DeapCnn::new()));
    specs.extend(crosslight_baselines::electronic::all_platforms().map(ArchSpec::Electronic));
    specs
}

fn zoo_point(spec: &ArchSpec, avg: &AverageMetrics, power_budget_w: f64) -> ZooPoint {
    let power_w = avg.power.value();
    ZooPoint {
        label: spec.label(),
        arch: spec.arch_name(),
        avg_fps: avg.fps,
        avg_epb_pj: avg.energy_per_bit_pj,
        avg_kfps_per_watt: avg.kfps_per_watt,
        power_w,
        area_mm2: avg.area.value(),
        resolution_bits: spec.resolution_bits(),
        fps_per_epb: avg.fps / avg.energy_per_bit_pj,
        within_power_budget: power_w <= power_budget_w,
    }
}

/// Evaluates one spec against the shared workloads, reusing `reports` as the
/// per-workload scratch buffer — the single evaluation path behind every
/// sweep flavor in this module.
fn evaluate_spec(
    spec: &ArchSpec,
    workloads: &[NetworkWorkload],
    power_budget_w: f64,
    reports: &mut Vec<SimulationReport>,
) -> CoreResult<ZooPoint> {
    reports.clear();
    for workload in workloads {
        reports.push(spec.simulate(workload)?);
    }
    let avg = AverageMetrics::from_reports(reports)?;
    Ok(zoo_point(spec, &avg, power_budget_w))
}

/// `a` Pareto-dominates `b` on (FPS max, EPB min, power min).  NaN metrics
/// compare false on every axis, so degenerate points never dominate and are
/// never dominated.
fn dominates(a: &ZooPoint, b: &ZooPoint) -> bool {
    a.avg_fps >= b.avg_fps
        && a.avg_epb_pj <= b.avg_epb_pj
        && a.power_w <= b.power_w
        && (a.avg_fps > b.avg_fps || a.avg_epb_pj < b.avg_epb_pj || a.power_w < b.power_w)
}

impl FrontierPoint for ZooPoint {
    fn fom(&self) -> f64 {
        self.fps_per_epb
    }
    fn admitted(&self) -> bool {
        self.within_power_budget
    }
    fn dominates(&self, other: &Self) -> bool {
        dominates(self, other)
    }
}

fn zoo_frontier(frontier: Frontier<ZooPoint>, power_budget_w: f64) -> ZooFrontier {
    let summary = frontier.finish();
    ZooFrontier {
        top: summary.top,
        pareto: summary.pareto,
        best: summary.best,
        power_budget_w,
        evaluated: summary.evaluated,
        in_budget: summary.admitted,
    }
}

/// Runs the cross-architecture sweep as a stream: the runtime's parallel
/// sweep engine folds the candidates into per-worker top-K/Pareto frontiers
/// (runs of consecutive candidates claimed by up to `workers` threads),
/// which are then merged — identical for any worker count.
///
/// # Errors
///
/// Propagates simulator errors (which do not occur for valid candidates).
pub fn run_streaming(
    candidates: &[ArchSpec],
    workers: usize,
    top_k: usize,
    power_budget_w: f64,
) -> Result<ZooFrontier, Box<dyn std::error::Error>> {
    let workloads = table_i_workloads()?;
    let parts = sweep::fold(
        candidates,
        workers,
        || (Frontier::new(top_k), Vec::new()),
        |(frontier, reports), index, spec| -> CoreResult<()> {
            frontier.push(
                index,
                evaluate_spec(spec, &workloads, power_budget_w, reports)?,
            );
            Ok(())
        },
    )?;
    let mut merged = Frontier::new(top_k);
    for (part, _) in parts {
        merged.merge(part);
    }
    Ok(zoo_frontier(merged, power_budget_w))
}

/// Runs the cross-architecture sweep through the runtime's evaluation
/// service, fanning the `candidates × models` grid across its workers.
///
/// Bit-identical to [`run_streaming`] for any worker count: the service serves
/// CrossLight points through the prepared simulator and zoo points through
/// [`ArchSpec::simulate`], both bit-identical to the serial path, and the
/// responses come back in request order.
///
/// # Errors
///
/// Propagates service errors; reports a shape error if the response count
/// drifts from `candidates × models`.
pub fn run_on(
    service: &EvalService,
    candidates: &[ArchSpec],
    top_k: usize,
    power_budget_w: f64,
) -> Result<ZooFrontier, Box<dyn std::error::Error>> {
    let workloads: Vec<std::sync::Arc<NetworkWorkload>> = table_i_workloads()?
        .into_iter()
        .map(std::sync::Arc::new)
        .collect();
    let models = workloads.len();
    let mut requests = Vec::with_capacity(candidates.len() * models);
    for spec in candidates {
        for workload in &workloads {
            let id = requests.len() as u64;
            requests
                .push(EvalRequest::for_arch(*spec, std::sync::Arc::clone(workload)).with_id(id));
        }
    }
    let responses = service.submit_batch(requests)?;
    if responses.len() != candidates.len() * models {
        return Err(format!(
            "sweep plan shape drifted: {} responses for {} candidates × {} models",
            responses.len(),
            candidates.len(),
            models
        )
        .into());
    }

    let reports: Vec<Vec<SimulationReport>> = responses
        .chunks(models)
        .map(|chunk| chunk.iter().map(|r| r.report).collect())
        .collect();
    frontier_from_reports(candidates, &reports, top_k, power_budget_w)
}

/// Folds per-candidate report sets (one report per Table I model, in
/// [`PaperModel::all`](crosslight_neural::zoo::PaperModel::all) order) into a frontier — the assembly path shared by
/// [`run_on`] and wire-served evaluation, so a client that collected its
/// reports over the TCP protocol reproduces the in-process frontier exactly.
///
/// # Errors
///
/// Returns an error if `reports` does not hold one non-empty report set per
/// candidate.
pub fn frontier_from_reports(
    candidates: &[ArchSpec],
    reports: &[Vec<SimulationReport>],
    top_k: usize,
    power_budget_w: f64,
) -> Result<ZooFrontier, Box<dyn std::error::Error>> {
    if candidates.len() != reports.len() {
        return Err(format!(
            "shape mismatch: {} candidates but {} report sets",
            candidates.len(),
            reports.len()
        )
        .into());
    }
    let mut frontier = Frontier::new(top_k);
    for (index, (spec, set)) in candidates.iter().zip(reports).enumerate() {
        let avg = AverageMetrics::from_reports(set)?;
        frontier.push(index, zoo_point(spec, &avg, power_budget_w));
    }
    Ok(zoo_frontier(frontier, power_budget_w))
}

/// Table-III-style comparison rows for the backend-family defaults
/// ([`ArchSpec::zoo_defaults`]), each averaged over the four Table I models.
///
/// # Errors
///
/// Propagates simulator errors (which do not occur for the defaults).
pub fn table_rows() -> Result<Vec<ZooPoint>, Box<dyn std::error::Error>> {
    let workloads = table_i_workloads()?;
    let mut reports = Vec::with_capacity(workloads.len());
    let mut rows = Vec::new();
    for spec in ArchSpec::zoo_defaults() {
        rows.push(evaluate_spec(
            &spec,
            &workloads,
            DEFAULT_POWER_BUDGET_W,
            &mut reports,
        )?);
    }
    Ok(rows)
}

/// Renders [`table_rows`] as a text table.
///
/// # Errors
///
/// Propagates simulator errors (which do not occur for the defaults).
pub fn table() -> Result<TextTable, Box<dyn std::error::Error>> {
    let mut out = TextTable::new(vec![
        "Architecture",
        "family",
        "avg FPS",
        "avg EPB (pJ/bit)",
        "kFPS/W",
        "power (W)",
        "bits",
    ]);
    for row in table_rows()? {
        out.push_row(vec![
            row.label,
            row.arch.to_string(),
            fmt_f64(row.avg_fps, 1),
            fmt_f64(row.avg_epb_pj, 3),
            fmt_f64(row.avg_kfps_per_watt, 2),
            fmt_f64(row.power_w, 2),
            row.resolution_bits.to_string(),
        ]);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crosslight_runtime::pool::RuntimeOptions;

    #[test]
    fn union_grid_spans_every_family() {
        let specs = union_candidates();
        assert_eq!(specs.len(), 46, "4×2×3 CrossLight + 3 + 6 + 6 + 1 + 6");
        for family in [
            "crosslight",
            "deap-cnn",
            "holylight",
            "electronic",
            "symmetric-crossbar",
            "litecon",
        ] {
            assert!(
                specs.iter().any(|s| s.arch_name() == family),
                "missing {family}"
            );
        }
        // Candidate identities are pairwise distinct.
        let mut fingerprints: Vec<u64> = specs.iter().map(ArchSpec::fingerprint).collect();
        fingerprints.sort_unstable();
        fingerprints.dedup();
        assert_eq!(fingerprints.len(), specs.len());
    }

    #[test]
    fn streaming_sweep_is_identical_for_any_worker_count() {
        let candidates = union_candidates();
        let serial = run_streaming(&candidates, 1, 5, DEFAULT_POWER_BUDGET_W).unwrap();
        for workers in [2, 3, 7] {
            let parallel = run_streaming(&candidates, workers, 5, DEFAULT_POWER_BUDGET_W).unwrap();
            assert_eq!(serial, parallel, "{workers} workers");
        }
        assert_eq!(serial.evaluated, candidates.len());
        assert!(serial.in_budget > 0 && serial.in_budget < serial.evaluated);
        assert_eq!(serial.top.len(), 5);
        assert!(serial.best.is_some());
        // The empty grid is well-formed.
        let empty = run_streaming(&[], 3, 5, DEFAULT_POWER_BUDGET_W).unwrap();
        assert_eq!(empty.evaluated, 0);
        assert!(empty.best.is_none() && empty.top.is_empty() && empty.pareto.is_empty());
    }

    #[test]
    fn runtime_backed_sweep_matches_streaming_bit_for_bit() {
        let candidates = union_candidates();
        let streaming = run_streaming(&candidates, 3, 5, DEFAULT_POWER_BUDGET_W).unwrap();
        for workers in [1, 4] {
            let service = EvalService::new(RuntimeOptions::default().with_workers(workers));
            let batched = run_on(&service, &candidates, 5, DEFAULT_POWER_BUDGET_W).unwrap();
            assert_eq!(streaming, batched, "{workers} workers");
        }
    }

    #[test]
    fn the_frontier_answers_the_deployment_question() {
        let frontier = run_streaming(&union_candidates(), 4, 8, DEFAULT_POWER_BUDGET_W).unwrap();
        let best = frontier.best.unwrap();
        // Under a deployment power envelope the winner is a simulated
        // photonic design (the survey's electronic parts are either over
        // budget or orders of magnitude less efficient), and it fits the
        // budget by construction.
        assert_ne!(best.arch, "electronic", "winner: {}", best.label);
        assert!(best.within_power_budget);
        // The top-K is sorted best-first by the figure of merit.
        for pair in frontier.top.windows(2) {
            assert!(pair[0].fps_per_epb >= pair[1].fps_per_epb);
        }
        assert_eq!(frontier.top[0], best);
        // Every Pareto point is non-dominated within the frontier itself.
        for p in &frontier.pareto {
            assert!(!frontier.pareto.iter().any(|q| super::dominates(q, p)));
        }
        // A generous budget admits every candidate; a zero budget none.
        let generous = run_streaming(&union_candidates(), 4, 8, f64::INFINITY).unwrap();
        assert_eq!(generous.in_budget, generous.evaluated);
        let zero = run_streaming(&union_candidates(), 4, 8, 0.0).unwrap();
        assert_eq!(zero.in_budget, 0);
        assert!(zero.best.is_none());
    }

    #[test]
    fn table_rows_cover_the_zoo_defaults() {
        let rows = table_rows().unwrap();
        assert_eq!(rows.len(), ArchSpec::zoo_defaults().len());
        assert_eq!(table().unwrap().len(), rows.len());
        // The CrossLight default beats the photonic baselines on EPB.
        let epb = |arch: &str| {
            rows.iter()
                .find(|r| r.arch == arch)
                .map(|r| r.avg_epb_pj)
                .unwrap()
        };
        assert!(epb("crosslight") < epb("holylight"));
        assert!(epb("crosslight") < epb("deap-cnn"));
    }
}
