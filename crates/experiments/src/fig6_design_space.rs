//! E5 — Fig. 6: FPS vs. EPB vs. area design-space exploration.
//!
//! Sweeps the architecture parameters `(N, K, n, m)` of §IV.C, evaluating the
//! average FPS and EPB over the four Table I models together with the area of
//! each configuration.  As in the paper, the best configuration is the one
//! with the highest FPS/EPB ratio among those inside the area window.  The
//! paper's published choice, `(20, 150, 100, 60)`, is reported next to it as
//! `paper_point`; on [`paper_candidates`] this model's best is a different
//! point (see `EXPERIMENTS.md`).
//!
//! Every sweep flavor shares one [`ModelCache`], which pays for one unit
//! report (each with a 15×15 TED eigendecomposition inside) per distinct CONV
//! size and per distinct FC size, and one resolution per distinct `(N, K)`
//! pair, instead of one of each per grid point, which is where almost all of
//! a candidate's cost used to go: [`dense_candidates`] needs 36 unit reports
//! (10 CONV plus 26 FC sizes) and 260 resolutions.
//!
//! [`run`] and [`run_streaming`] evaluate through one kernel per sweep
//! worker, which pays per candidate only for what changes from its
//! predecessor.  Every candidate is the CrossLight-Opt-TED design at the
//! fixed bank size, so its unit sizes `(N, K)` decide both unit reports, the
//! resolution and every layer's unit passes; `n` decides the CONV cycles,
//! and `m` the FC cycles, power and area.  Both grids vary the unit counts
//! `(n, m)` innermost and the sweep engine hands each worker runs of
//! consecutive candidates, so a dense pass probes the shared cache once per
//! `(N, K)` change, about 0.5 % of candidates, and recounts CONV cycles
//! once per `n` change, one candidate in 15.  On a grid whose consecutive
//! candidates rarely share `(N, K)` the kernel redoes that work every time,
//! about what the per-candidate path ([`run_per_candidate`]) costs.  On top
//! of that:
//!
//! * [`run`] materializes every [`DesignPoint`] serially, and is the
//!   reference the other flavors are tested against;
//! * [`run_streaming`] folds the candidates over the runtime's parallel sweep
//!   engine into per-worker [`FrontierAccumulator`]s (top-K by FPS/EPB plus
//!   the FPS/EPB/area Pareto frontier) and merges them, so a dense grid such
//!   as [`dense_candidates`] (~58.5k points) needs O(top-K + frontier)
//!   memory instead of one `DesignPoint` per candidate, and the result is
//!   identical for any worker count;
//! * [`run_on`] fans the `candidates × models` grid through the runtime's
//!   [`EvalService`];
//! * [`run_per_candidate`] folds the candidates one at a time through
//!   [`CrossLightSimulator::evaluate_average_with`], the path the kernel is
//!   checked and timed against.

use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crosslight_core::cache::ModelCache;
use crosslight_core::config::{CrossLightConfig, DesignChoices};
use crosslight_core::decompose::unit_passes;
use crosslight_core::error::Result as CoreResult;
use crosslight_core::performance::{latency_from_cycles, metrics_from_latency};
use crosslight_core::power::accelerator_power_from_unit_reports;
use crosslight_core::simulator::{AverageMetrics, CrossLightSimulator, SimulationReport};
use crosslight_core::vdp::{VdpUnit, VdpUnitReport};
use crosslight_neural::workload::NetworkWorkload;
use crosslight_neural::zoo::PaperModel;
use crosslight_photonics::units::Seconds;
use crosslight_runtime::planner::SweepPlanner;
use crosslight_runtime::pool::EvalService;
use crosslight_runtime::sweep;

use crate::frontier::{Frontier, FrontierPoint};
use crate::report::{fmt_f64, TextTable};
use crate::table_i_workloads;

/// Upper bound of the paper's "reasonable area constraint" (§V.D), in mm².
pub const AREA_CAP_MM2: f64 = 25.0;

/// One evaluated configuration of the design-space sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesignPoint {
    /// CONV unit size `N`.
    pub conv_unit_size: usize,
    /// FC unit size `K`.
    pub fc_unit_size: usize,
    /// CONV unit count `n`.
    pub conv_units: usize,
    /// FC unit count `m`.
    pub fc_units: usize,
    /// Average FPS over the four Table I models.
    pub avg_fps: f64,
    /// Average EPB (pJ/bit) over the four models.
    pub avg_epb_pj: f64,
    /// Accelerator area (mm²).
    pub area_mm2: f64,
    /// Figure-of-merit used to pick the best point (FPS / EPB).
    pub fps_per_epb: f64,
    /// Whether the point satisfies the area constraint.
    pub within_area_cap: bool,
}

/// The full design-space sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignSpaceSweep {
    /// Every evaluated point.
    pub points: Vec<DesignPoint>,
    /// The best point (highest FPS/EPB within the area cap).
    pub best: DesignPoint,
    /// The paper's published best configuration, `(20, 150, 100, 60)`,
    /// evaluated under this model (present whenever it is part of the
    /// candidate grid).  The paper's config is what every other experiment
    /// uses; the sweep's own `best` may differ slightly because the paper does
    /// not publish its candidate grid or cost-model internals (see
    /// `EXPERIMENTS.md`).
    pub paper_point: Option<DesignPoint>,
}

impl DesignSpaceSweep {
    /// Renders the sweep as a text table, best configuration last.
    #[must_use]
    pub fn table(&self) -> TextTable {
        points_table(&self.points)
    }
}

/// Renders design points as a text table (shared by the materializing sweep
/// and the streaming frontier).
fn points_table(points: &[DesignPoint]) -> TextTable {
    let mut table = TextTable::new(vec![
        "N",
        "K",
        "n",
        "m",
        "avg FPS",
        "avg EPB (pJ/bit)",
        "area (mm2)",
        "FPS/EPB",
        "in cap",
    ]);
    for p in points {
        table.push_row(vec![
            p.conv_unit_size.to_string(),
            p.fc_unit_size.to_string(),
            p.conv_units.to_string(),
            p.fc_units.to_string(),
            fmt_f64(p.avg_fps, 1),
            fmt_f64(p.avg_epb_pj, 3),
            fmt_f64(p.area_mm2, 1),
            fmt_f64(p.fps_per_epb, 1),
            p.within_area_cap.to_string(),
        ]);
    }
    table
}

/// The candidate grid the sweep explores.
///
/// The paper does not publish its exact grid; this one brackets the published
/// best point along every axis.  `N` is swept up to 20 (the paper's chosen
/// CONV unit size): the evaluated models' convolution kernels hold at most
/// 5×5 = 25 weights per channel, so CONV units much larger than that mostly
/// idle — see `EXPERIMENTS.md` for the discussion of how this grid choice
/// interacts with the cost model.
#[must_use]
pub fn paper_candidates() -> Vec<(usize, usize, usize, usize)> {
    let mut out = Vec::new();
    for &n_size in &[10usize, 15, 20] {
        for &k_size in &[100usize, 150, 200] {
            for &n_units in &[50usize, 100, 150] {
                for &m_units in &[30usize, 60, 90] {
                    out.push((n_size, k_size, n_units, m_units));
                }
            }
        }
    }
    out
}

/// A dense ~58.5k-candidate grid (three orders of magnitude beyond
/// [`paper_candidates`]): every even CONV unit size up to the paper's 20,
/// FC unit sizes 50–300 in steps of 10, and both unit counts 10–150 in steps
/// of 10.  Designed for the streaming sweep ([`run_streaming`]), which never
/// materializes its per-candidate points.
#[must_use]
pub fn dense_candidates() -> Vec<(usize, usize, usize, usize)> {
    let mut out = Vec::new();
    for n_size in (2..=20).step_by(2) {
        for k_size in (50..=300).step_by(10) {
            for n_units in (10..=150).step_by(10) {
                for m_units in (10..=150).step_by(10) {
                    out.push((n_size, k_size, n_units, m_units));
                }
            }
        }
    }
    out
}

fn design_point(dims: (usize, usize, usize, usize), avg: &AverageMetrics) -> DesignPoint {
    let (n_size, k_size, n_units, m_units) = dims;
    let area = avg.area.value();
    DesignPoint {
        conv_unit_size: n_size,
        fc_unit_size: k_size,
        conv_units: n_units,
        fc_units: m_units,
        avg_fps: avg.fps,
        avg_epb_pj: avg.energy_per_bit_pj,
        area_mm2: area,
        fps_per_epb: avg.fps / avg.energy_per_bit_pj,
        within_area_cap: area <= AREA_CAP_MM2,
    }
}

/// The configuration a candidate `(N, K, n, m)` stands for: the paper's
/// CrossLight-Opt-TED design at those dimensions.
fn candidate_config(dims: (usize, usize, usize, usize)) -> CoreResult<CrossLightConfig> {
    let (n_size, k_size, n_units, m_units) = dims;
    CrossLightConfig::new(
        n_size,
        k_size,
        n_units,
        m_units,
        DesignChoices::crosslight_opt_ted(),
    )
}

/// What a candidate's unit sizes `(N, K)` decide: both unit reports, their
/// pass latencies and the achievable resolution.
#[derive(Clone, Copy)]
struct SubModels {
    sizes: (usize, usize),
    conv_unit: VdpUnitReport,
    fc_unit: VdpUnitReport,
    conv_pass: Seconds,
    fc_pass: Seconds,
    resolution_bits: u32,
}

/// One workload as an [`Evaluator`] holds it: what of it no candidate
/// changes, and its cycle counts at the memoized unit sizes and counts.
struct Model<'a> {
    workload: &'a NetworkWorkload,
    total_macs: u64,
    /// Each CONV layer's unit passes at the memoized `N`.
    conv_passes: Vec<u64>,
    /// Each FC layer's unit passes at the memoized `K`.
    fc_passes: Vec<u64>,
    /// Its CONV cycles at the memoized `N` and [`Evaluator::conv_units`].
    conv_cycles: u64,
}

/// One sweep worker's evaluation kernel (see the module docs).
///
/// Every candidate is [`candidate_config`]'s Opt-TED design at the fixed
/// bank size, so `(N, K)` decides both unit reports' keys and the
/// resolution key, and the one-entry [`SubModels`] memo is keyed by
/// `(N, K)` alone.  The counts it keeps feed the simulator's own
/// [`unit_passes`], [`latency_from_cycles`] and [`metrics_from_latency`];
/// power is combined as [`ModelCache::power`] combines it and the reports
/// are averaged by `AverageMetrics::from_reports`, so every point is
/// bit-identical to [`run_per_candidate`]'s.  Its buffers are allocated
/// once, in [`Evaluator::new`], so no candidate allocates.
struct Evaluator<'a> {
    cache: &'a ModelCache,
    models: Vec<Model<'a>>,
    reports: Vec<SimulationReport>,
    memo: Option<SubModels>,
    /// The CONV unit count `n` the models' `conv_cycles` hold, if current.
    conv_units: Option<usize>,
}

impl<'a> Evaluator<'a> {
    fn new(workloads: &'a [NetworkWorkload], cache: &'a ModelCache) -> Self {
        let models = workloads
            .iter()
            .map(|workload| Model {
                workload,
                total_macs: workload.total_macs(),
                conv_passes: vec![0; workload.conv_layers.len()],
                fc_passes: vec![0; workload.fc_layers.len()],
                conv_cycles: 0,
            })
            .collect();
        Self {
            cache,
            models,
            reports: Vec::with_capacity(workloads.len()),
            memo: None,
            conv_units: None,
        }
    }

    /// The sub-models of `config`: from the memo while consecutive
    /// candidates share `(N, K)`; on a change, fetched from the shared cache
    /// (two unit probes and one resolution probe) with every layer's unit
    /// passes at the new sizes.
    fn sub_models(&mut self, config: &CrossLightConfig) -> CoreResult<SubModels> {
        let sizes = (config.conv_unit_size, config.fc_unit_size);
        if let Some(memo) = self.memo.filter(|memo| memo.sizes == sizes) {
            return Ok(memo);
        }
        self.memo = None;
        self.conv_units = None;
        for model in &mut self.models {
            for (slot, layer) in model
                .conv_passes
                .iter_mut()
                .zip(&model.workload.conv_layers)
            {
                *slot = unit_passes(layer.dot_length, layer.dot_count, sizes.0)?;
            }
            for (slot, layer) in model.fc_passes.iter_mut().zip(&model.workload.fc_layers) {
                *slot = unit_passes(layer.dot_length, layer.dot_count, sizes.1)?;
            }
        }
        let conv_unit = VdpUnit::conv_unit(config);
        let fc_unit = VdpUnit::fc_unit(config);
        let sub = SubModels {
            sizes,
            conv_unit: self.cache.unit_report(&conv_unit)?,
            fc_unit: self.cache.unit_report(&fc_unit)?,
            conv_pass: conv_unit.pass_latency(),
            fc_pass: fc_unit.pass_latency(),
            resolution_bits: self.cache.resolution_bits(config)?,
        };
        self.memo = Some(sub);
        Ok(sub)
    }

    fn evaluate(&mut self, dims: (usize, usize, usize, usize)) -> CoreResult<DesignPoint> {
        let config = candidate_config(dims)?;
        let sub = self.sub_models(&config)?;
        if self.conv_units != Some(config.conv_units) {
            let units = config.conv_units as u64;
            for model in &mut self.models {
                model.conv_cycles = model
                    .conv_passes
                    .iter()
                    .map(|passes| passes.div_ceil(units))
                    .sum();
            }
            self.conv_units = Some(config.conv_units);
        }
        let power = accelerator_power_from_unit_reports(&config, &sub.conv_unit, &sub.fc_unit);
        let area = self.cache.area(&config);
        let fc_units = config.fc_units as u64;
        self.reports.clear();
        for model in &self.models {
            let fc_cycles = model
                .fc_passes
                .iter()
                .map(|passes| passes.div_ceil(fc_units))
                .sum();
            let workload = model.workload;
            let latency = latency_from_cycles(
                sub.conv_pass,
                sub.fc_pass,
                model.conv_cycles,
                fc_cycles,
                workload.conv_layers.len() + workload.fc_layers.len(),
                workload.towers,
            );
            self.reports.push(SimulationReport {
                power,
                area,
                metrics: metrics_from_latency(
                    latency,
                    model.total_macs,
                    config.resolution_bits,
                    &power,
                ),
                resolution_bits: sub.resolution_bits,
            });
        }
        let avg = AverageMetrics::from_reports(&self.reports)?;
        Ok(design_point(dims, &avg))
    }
}

fn assemble(points: Vec<DesignPoint>) -> Result<DesignSpaceSweep, Box<dyn std::error::Error>> {
    let best = *points
        .iter()
        .filter(|p| p.within_area_cap)
        // total_cmp: a degenerate figure of merit (NaN from a 0/0, ±inf from
        // a zero EPB) orders deterministically instead of panicking.
        .max_by(|a, b| a.fps_per_epb.total_cmp(&b.fps_per_epb))
        .ok_or("no candidate satisfies the area constraint")?;
    let paper_point = points.iter().copied().find(|p| {
        (p.conv_unit_size, p.fc_unit_size, p.conv_units, p.fc_units)
            == crosslight_core::config::BEST_CONFIG
    });
    Ok(DesignSpaceSweep {
        points,
        best,
        paper_point,
    })
}

/// Runs the design-space sweep over the given candidates, serially, sharing
/// one [`ModelCache`] across the whole grid.
///
/// # Errors
///
/// Propagates simulator errors (which do not occur for valid candidates);
/// returns an error if no candidate satisfies the area constraint.
pub fn run(
    candidates: &[(usize, usize, usize, usize)],
) -> Result<DesignSpaceSweep, Box<dyn std::error::Error>> {
    let workloads = table_i_workloads()?;
    let cache = ModelCache::new();
    let mut evaluator = Evaluator::new(&workloads, &cache);
    let mut points = Vec::with_capacity(candidates.len());
    for &dims in candidates {
        points.push(evaluator.evaluate(dims)?);
    }
    assemble(points)
}

/// `a` Pareto-dominates `b` on (FPS max, EPB min, area min).
///
/// NaN metrics compare false on every axis, so degenerate points never
/// dominate and are never dominated — they simply persist on the frontier,
/// keeping the accumulator panic-free and order-independent.
fn dominates(a: &DesignPoint, b: &DesignPoint) -> bool {
    a.avg_fps >= b.avg_fps
        && a.avg_epb_pj <= b.avg_epb_pj
        && a.area_mm2 <= b.area_mm2
        && (a.avg_fps > b.avg_fps || a.avg_epb_pj < b.avg_epb_pj || a.area_mm2 < b.area_mm2)
}

impl FrontierPoint for DesignPoint {
    fn fom(&self) -> f64 {
        self.fps_per_epb
    }
    fn admitted(&self) -> bool {
        self.within_area_cap
    }
    fn dominates(&self, other: &Self) -> bool {
        dominates(self, other)
    }
}

/// Streaming summary of a design-space sweep: everything the analysis needs
/// without one [`DesignPoint`] per candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignFrontier {
    /// The `top_k` in-cap points by FPS/EPB, best first.
    pub top: Vec<DesignPoint>,
    /// The Pareto frontier over (FPS max, EPB min, area min) of *all*
    /// evaluated points, in candidate order.
    pub pareto: Vec<DesignPoint>,
    /// The best in-cap point by FPS/EPB (the [`DesignSpaceSweep::best`]
    /// criterion — agreeing with it whenever figures of merit are distinct;
    /// on bitwise-tied foms the streaming path breaks ties by lowest
    /// candidate index), if any candidate satisfies the cap.
    pub best: Option<DesignPoint>,
    /// The paper's published `(20, 150, 100, 60)` point, when in the grid.
    pub paper_point: Option<DesignPoint>,
    /// Number of candidates evaluated.
    pub evaluated: usize,
    /// Number of candidates inside the area cap.
    pub in_cap: usize,
}

impl DesignFrontier {
    /// Renders the top-K points as a text table, best first.
    #[must_use]
    pub fn table(&self) -> TextTable {
        points_table(&self.top)
    }
}

/// Order-independent streaming accumulator behind [`run_streaming`]: folds
/// design points one at a time, holding only the current top-K (by FPS/EPB,
/// within the area cap), the Pareto frontier, the running best and the
/// paper's point — O(K + frontier) memory however many candidates stream
/// through.
///
/// Both [`FrontierAccumulator::push`] and [`FrontierAccumulator::merge`] are
/// deterministic for a fixed assignment of candidate indices: top-K selection
/// and best tracking use the total order ([`f64::total_cmp`], then candidate
/// index) and the Pareto frontier of a set does not depend on insertion
/// order, so any partitioning of one candidate stream merges to the same
/// frontier.
#[derive(Debug, Clone)]
pub struct FrontierAccumulator {
    frontier: Frontier<DesignPoint>,
    paper_point: Option<(usize, DesignPoint)>,
}

impl FrontierAccumulator {
    /// Creates an accumulator keeping the best `top_k` in-cap points.
    #[must_use]
    pub fn new(top_k: usize) -> Self {
        Self {
            frontier: Frontier::new(top_k),
            paper_point: None,
        }
    }

    /// Folds one evaluated candidate (with its grid index) into the summary.
    pub fn push(&mut self, index: usize, point: DesignPoint) {
        self.offer_paper_point(index, point);
        self.frontier.push(index, point);
    }

    /// Keeps the lowest-indexed candidate with the paper's dimensions.
    fn offer_paper_point(&mut self, index: usize, point: DesignPoint) {
        let dims = (
            point.conv_unit_size,
            point.fc_unit_size,
            point.conv_units,
            point.fc_units,
        );
        if dims == crosslight_core::config::BEST_CONFIG
            && self.paper_point.is_none_or(|(i, _)| index < i)
        {
            self.paper_point = Some((index, point));
        }
    }

    /// Merges another accumulator (built over a disjoint slice of the same
    /// candidate stream) into this one.
    pub fn merge(&mut self, other: Self) {
        if let Some((index, point)) = other.paper_point {
            self.offer_paper_point(index, point);
        }
        self.frontier.merge(other.frontier);
    }

    /// Finalizes the summary: top-K best first, Pareto frontier in candidate
    /// order.
    #[must_use]
    pub fn finish(self) -> DesignFrontier {
        let summary = self.frontier.finish();
        DesignFrontier {
            top: summary.top,
            pareto: summary.pareto,
            best: summary.best,
            paper_point: self.paper_point.map(|(_, p)| p),
            evaluated: summary.evaluated,
            in_cap: summary.admitted,
        }
    }
}

/// Runs the design-space sweep as a stream: the runtime's parallel sweep
/// engine folds the candidates into per-worker [`FrontierAccumulator`]s
/// (runs of consecutive candidates claimed by up to `workers` threads, one
/// shared [`ModelCache`]), which are then merged.
///
/// Memory stays O(top-K + Pareto frontier) regardless of grid size — a
/// [`dense_candidates`] grid streams ~58.5k points through without ever
/// materializing them — and the result is identical for any worker count.
///
/// # Errors
///
/// Propagates simulator errors (which do not occur for valid candidates).
pub fn run_streaming(
    candidates: &[(usize, usize, usize, usize)],
    workers: usize,
    top_k: usize,
) -> Result<DesignFrontier, Box<dyn std::error::Error>> {
    let workloads = table_i_workloads()?;
    let cache = ModelCache::new();
    // The kernels are built here, one per worker the engine can start, and
    // dropped here after the merge.  Small buffers a worker allocated would
    // be freed into this thread's cache of free blocks, which scatters the
    // workers' malloc arenas and raises the peak RSS with every pass.
    let kernels = Mutex::new(
        (0..workers.min(candidates.len()).max(1))
            .map(|_| Evaluator::new(&workloads, &cache))
            .collect::<Vec<_>>(),
    );
    let parts = sweep::fold(
        candidates,
        workers,
        || {
            let kernel = kernels.lock().expect("kernel pool lock poisoned").pop();
            (
                FrontierAccumulator::new(top_k),
                kernel.expect("the engine starts at most one worker per kernel"),
            )
        },
        |(acc, evaluator), index, &dims| -> CoreResult<()> {
            acc.push(index, evaluator.evaluate(dims)?);
            Ok(())
        },
    )?;
    let mut merged = FrontierAccumulator::new(top_k);
    for (part, _) in parts {
        merged.merge(part);
    }
    Ok(merged.finish())
}

/// [`run_streaming`]'s frontier through the per-candidate simulator path,
/// on the calling thread: each candidate's
/// [`CrossLightSimulator::evaluate_average_with`] on one shared
/// [`ModelCache`], folded into one [`FrontierAccumulator`].  The reference
/// the sweep's kernel is checked and timed against.
///
/// # Errors
///
/// Propagates simulator errors (which do not occur for valid candidates).
pub fn run_per_candidate(
    candidates: &[(usize, usize, usize, usize)],
    top_k: usize,
) -> Result<DesignFrontier, Box<dyn std::error::Error>> {
    let workloads = table_i_workloads()?;
    let cache = ModelCache::new();
    let mut acc = FrontierAccumulator::new(top_k);
    for (index, &dims) in candidates.iter().enumerate() {
        let avg = CrossLightSimulator::new(candidate_config(dims)?)
            .evaluate_average_with(&workloads, &cache)?;
        acc.push(index, design_point(dims, &avg));
    }
    Ok(acc.finish())
}

/// Runs the design-space sweep through the runtime's evaluation service,
/// fanning the `candidates × models` grid across the service's workers.
///
/// Produces a sweep bit-identical to [`run`] for any worker count: each
/// candidate's per-model reports come back in the same model order, and the
/// averaging path ([`AverageMetrics::from_reports`]) is shared with the
/// serial [`CrossLightSimulator::evaluate_average`].
///
/// # Errors
///
/// Propagates planner/service errors; returns an error if no candidate
/// satisfies the area constraint.
pub fn run_on(
    service: &EvalService,
    candidates: &[(usize, usize, usize, usize)],
) -> Result<DesignSpaceSweep, Box<dyn std::error::Error>> {
    let requests = SweepPlanner::new().architectures(candidates).plan()?;
    let models = PaperModel::all().len();
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

    let mut points = Vec::with_capacity(candidates.len());
    for (dims, chunk) in candidates.iter().zip(responses.chunks(models)) {
        let reports: Vec<_> = chunk.iter().map(|r| r.report).collect();
        let avg = AverageMetrics::from_reports(&reports)?;
        points.push(design_point(*dims, &avg));
    }
    assemble(points)
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    /// A reduced candidate set that still contains the paper's best point,
    /// used to keep test runtime low.
    fn reduced_candidates() -> Vec<(usize, usize, usize, usize)> {
        vec![
            (10, 100, 50, 30),
            (10, 150, 100, 60),
            (20, 150, 50, 30),
            (20, 150, 100, 60),
            (20, 200, 100, 90),
            (20, 200, 150, 90),
        ]
    }

    #[test]
    fn best_configuration_matches_the_paper_and_its_claims() {
        // The sweep's winner is the paper's (20, 150, 100, 60); it satisfies
        // the area constraint and — as the paper notes — is also the
        // highest-FPS in-cap point.
        let sweep = run(&reduced_candidates()).unwrap();
        assert_eq!(
            (
                sweep.best.conv_unit_size,
                sweep.best.fc_unit_size,
                sweep.best.conv_units,
                sweep.best.fc_units
            ),
            (20, 150, 100, 60)
        );
        assert!(sweep.best.within_area_cap);
        let max_fps_in_cap = sweep
            .points
            .iter()
            .filter(|p| p.within_area_cap)
            .map(|p| p.avg_fps)
            .fold(0.0f64, f64::max);
        assert!(
            sweep.best.avg_fps >= 0.99 * max_fps_in_cap,
            "best FPS/EPB point should also be (near) the highest-FPS point"
        );
        let paper = sweep.paper_point.expect("paper config is in the grid");
        assert_eq!(paper, sweep.best);
    }

    #[test]
    fn runtime_backed_sweep_is_bit_identical_to_serial() {
        use crosslight_runtime::pool::RuntimeOptions;
        let serial = run(&reduced_candidates()).unwrap();
        for workers in [1, 4] {
            let service = EvalService::new(RuntimeOptions::default().with_workers(workers));
            let batched = run_on(&service, &reduced_candidates()).unwrap();
            assert_eq!(serial, batched);
        }
    }

    #[test]
    fn streaming_sweep_is_identical_for_any_worker_count_and_matches_run() {
        let sweep = run(&reduced_candidates()).unwrap();
        let serial = run_streaming(&reduced_candidates(), 1, 3).unwrap();
        for workers in [2, 5] {
            let parallel = run_streaming(&reduced_candidates(), workers, 3).unwrap();
            assert_eq!(serial, parallel, "{workers} workers");
        }
        // The streaming summary agrees with the materializing sweep.
        assert_eq!(serial.best, Some(sweep.best));
        assert_eq!(serial.paper_point, sweep.paper_point);
        assert_eq!(serial.evaluated, sweep.points.len());
        assert_eq!(
            serial.in_cap,
            sweep.points.iter().filter(|p| p.within_area_cap).count()
        );
        // Top-K is exactly the K best in-cap points of the full sweep.
        let mut expected: Vec<DesignPoint> = sweep
            .points
            .iter()
            .copied()
            .filter(|p| p.within_area_cap)
            .collect();
        expected.sort_by(|a, b| b.fps_per_epb.total_cmp(&a.fps_per_epb));
        expected.truncate(3);
        assert_eq!(serial.top, expected);
        assert_eq!(serial.table().len(), 3);
        // Every frontier point is non-dominated within the full sweep, and
        // every non-frontier point is dominated by someone.
        for p in &sweep.points {
            let dominated = sweep.points.iter().any(|q| super::dominates(q, p));
            assert_eq!(serial.pareto.contains(p), !dominated);
        }
        // Streaming an empty grid is well-formed.
        let empty = run_streaming(&[], 3, 2).unwrap();
        assert_eq!(empty.evaluated, 0);
        assert!(empty.best.is_none() && empty.top.is_empty() && empty.pareto.is_empty());
        assert!(run(&[]).is_err(), "empty grid has no best point");
    }

    #[test]
    fn assemble_survives_degenerate_figures_of_merit() {
        // A 0/0 figure of merit (NaN) must not panic the best-point
        // selection: f64::total_cmp gives a deterministic total order in
        // which NaN sorts above every number.
        let degenerate = DesignPoint {
            conv_unit_size: 10,
            fc_unit_size: 100,
            conv_units: 50,
            fc_units: 30,
            avg_fps: 0.0,
            avg_epb_pj: 0.0,
            area_mm2: 10.0,
            fps_per_epb: f64::NAN,
            within_area_cap: true,
        };
        let mut normal = degenerate;
        normal.avg_fps = 100.0;
        normal.avg_epb_pj = 2.0;
        normal.fps_per_epb = 50.0;
        let sweep = assemble(vec![normal, degenerate]).unwrap();
        assert!(sweep.best.fps_per_epb.is_nan());
        // Zero-EPB (infinite fom) points are equally panic-free.
        let mut free_energy = normal;
        free_energy.avg_epb_pj = 0.0;
        free_energy.fps_per_epb = f64::INFINITY;
        let sweep = assemble(vec![normal, free_energy]).unwrap();
        assert_eq!(sweep.best.fps_per_epb, f64::INFINITY);
        // The degenerate points stream through the frontier accumulator
        // without panicking, too.
        let mut acc = FrontierAccumulator::new(2);
        for (i, p) in [normal, degenerate, free_energy].iter().enumerate() {
            acc.push(i, *p);
        }
        let frontier = acc.finish();
        assert_eq!(frontier.evaluated, 3);
        assert!(frontier.best.is_some());
    }

    #[test]
    fn oversized_configurations_violate_the_area_cap() {
        let sweep = run(&reduced_candidates()).unwrap();
        let oversized = sweep
            .points
            .iter()
            .find(|p| p.conv_units == 150 && p.fc_units == 90)
            .expect("oversized candidate present");
        assert!(!oversized.within_area_cap);
    }

    #[test]
    fn larger_unit_counts_give_higher_fps() {
        let sweep = run(&reduced_candidates()).unwrap();
        let small = sweep
            .points
            .iter()
            .find(|p| p.conv_units == 50 && p.fc_units == 30 && p.conv_unit_size == 20)
            .unwrap();
        let large = sweep
            .points
            .iter()
            .find(|p| {
                p.conv_units == 100
                    && p.fc_units == 60
                    && p.conv_unit_size == 20
                    && p.fc_unit_size == 150
            })
            .unwrap();
        assert!(large.avg_fps > small.avg_fps);
    }

    #[test]
    fn table_lists_every_candidate() {
        let sweep = run(&reduced_candidates()).unwrap();
        assert_eq!(sweep.table().len(), reduced_candidates().len());
    }

    #[test]
    fn full_paper_grid_is_well_formed() {
        let candidates = paper_candidates();
        assert_eq!(candidates.len(), 81);
        assert!(candidates.contains(&(20, 150, 100, 60)));
        assert!(candidates.iter().all(|&(n, k, _, _)| k > n));
    }

    #[test]
    fn dense_grid_is_well_formed() {
        let candidates = dense_candidates();
        assert_eq!(candidates.len(), 58_500);
        assert!(candidates.contains(&(20, 150, 100, 60)));
        assert!(candidates.iter().all(|&(n, k, _, _)| k > n));
        // Distinct (N, K) pairs: the number of resolutions a shared
        // ModelCache pays for across the whole grid, since a ResolutionKey
        // carries both unit sizes.
        let pairs: HashSet<(usize, usize)> =
            candidates.iter().map(|&(n, k, _, _)| (n, k)).collect();
        assert_eq!(pairs.len(), 260);
        // The cache's own keys: one unit report per CONV size and per FC
        // size (10 + 26; the two ranges do not overlap), one resolution per
        // (N, K) pair.
        let mut units = HashSet::new();
        let mut resolutions = HashSet::new();
        for &dims in &candidates {
            let config = candidate_config(dims).unwrap();
            units.insert(VdpUnit::conv_unit(&config).canonical_key());
            units.insert(VdpUnit::fc_unit(&config).canonical_key());
            resolutions.insert(crosslight_core::canonical::ResolutionKey::from(&config));
        }
        assert_eq!(units.len(), 36);
        assert_eq!(resolutions.len(), 260);
    }

    type PointBits = (usize, usize, usize, usize, [u64; 4], bool);

    /// Every field's bits, so equality also tells `-0.0` from `0.0`.
    fn bits(p: &DesignPoint) -> PointBits {
        (
            p.conv_unit_size,
            p.fc_unit_size,
            p.conv_units,
            p.fc_units,
            [
                p.avg_fps.to_bits(),
                p.avg_epb_pj.to_bits(),
                p.area_mm2.to_bits(),
                p.fps_per_epb.to_bits(),
            ],
            p.within_area_cap,
        )
    }

    /// Every point's [`bits`] in a frontier (top, Pareto set, then best and
    /// paper point), and its two counts.
    fn frontier_bits(
        f: &DesignFrontier,
    ) -> (
        Vec<PointBits>,
        Vec<PointBits>,
        [Option<PointBits>; 2],
        [usize; 2],
    ) {
        (
            f.top.iter().map(bits).collect(),
            f.pareto.iter().map(bits).collect(),
            [f.best.as_ref().map(bits), f.paper_point.as_ref().map(bits)],
            [f.evaluated, f.in_cap],
        )
    }

    #[test]
    fn dense_kernel_matches_the_per_candidate_path_bit_for_bit() {
        let dense = dense_candidates();
        let reference = frontier_bits(&run_per_candidate(&dense, 10).unwrap());
        assert_eq!(reference.3, [dense.len(), 31_856]);
        for workers in [1, 3] {
            let streamed = run_streaming(&dense, workers, 10).unwrap();
            assert_eq!(frontier_bits(&streamed), reference, "{workers} workers");
        }
    }

    #[test]
    fn per_worker_memo_is_transparent_in_any_candidate_order() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // 200 dense candidates in seeded random order, so (N, K) changes at
        // almost every step and the memo misses...
        let mut dense = dense_candidates();
        let mut rng = StdRng::seed_from_u64(17);
        for i in 0..200 {
            let j = rng.gen_range(i..dense.len());
            dense.swap(i, j);
        }
        let shuffled = dense[..200].to_vec();
        // ...then sorted, so neighbours share N, and often (N, K): the memo
        // hits, and misses where only K changes.
        let mut sorted = shuffled.clone();
        sorted.sort_unstable();
        let (a, b) = ((10, 100, 50, 30), (20, 150, 100, 60));
        let lists = [
            shuffled,
            sorted,
            vec![a, b, a],
            // Only N changes.
            vec![(10, 150, 50, 30), (20, 150, 50, 30)],
            // Only K changes, and back.
            vec![(20, 100, 50, 30), (20, 150, 50, 30), (20, 100, 50, 30)],
            // (N, K) stays while n moves back and forth, and m with it.
            vec![
                (10, 100, 50, 30),
                (10, 100, 100, 30),
                (10, 100, 50, 30),
                (10, 100, 50, 60),
                (10, 100, 100, 60),
            ],
            // (N, K) changes while n stays.
            vec![
                (10, 100, 50, 30),
                (20, 150, 50, 30),
                (20, 150, 50, 60),
                (14, 90, 50, 60),
            ],
        ];
        // The per-candidate probe path the kernel replaces, on its own cache.
        let workloads = table_i_workloads().unwrap();
        let cache = ModelCache::new();
        for candidates in &lists {
            let sweep = run(candidates).unwrap();
            assert_eq!(sweep.points.len(), candidates.len());
            for (point, &dims) in sweep.points.iter().zip(candidates) {
                let avg = CrossLightSimulator::new(candidate_config(dims).unwrap())
                    .evaluate_average_with(&workloads, &cache)
                    .unwrap();
                assert_eq!(bits(point), bits(&design_point(dims, &avg)), "{dims:?}");
            }
            let reference = frontier_bits(&run_per_candidate(candidates, 5).unwrap());
            for workers in [1, 2, 5] {
                let streamed = run_streaming(candidates, workers, 5).unwrap();
                assert_eq!(frontier_bits(&streamed), reference, "{workers} workers");
            }
        }
    }
}
