//! `dse_local`: the in-process Fig. 6 dense sweep, one full
//! `run_streaming` pass (fresh `ModelCache` inside) per operation.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crosslight_core::cache::ModelCache;
use crosslight_core::config::{CrossLightConfig, DesignChoices};
use crosslight_core::simulator::{AverageMetrics, CrossLightSimulator, SimulationReport};
use crosslight_experiments::fig6_design_space::{
    dense_candidates, run_streaming, DesignFrontier, DesignPoint, FrontierAccumulator, AREA_CAP_MM2,
};
use crosslight_neural::workload::NetworkWorkload;

use crate::gen::SplitMix64;
use crate::layers::{self, Layers};
use crate::stats::{self, SliceRecorder, WindowFigures};
use crate::wire_load::{bit_identical, paper_workloads};
use crate::{Outcome, Workload};

/// Frontier size of each pass, as `design_space --dense` runs it.
const TOP_K: usize = 10;
/// Length of one time slice of a window (see `stats::WindowFigures`):
/// about a dozen passes.
const SLICE_S: f64 = 0.5;
/// Serial replica passes behind the `core`/`experiments` ledger lines.
const REPLICA_PASSES: usize = 3;

type Dims = (usize, usize, usize, usize);

struct Window {
    figures: WindowFigures,
    passes: usize,
    /// Passes whose frontier differs from the serial reference.
    wrong: usize,
}

/// Sweep passes for `seconds`, each checked against `reference` after its
/// timer stops.  After each pass the set-up (building the candidate grid,
/// about 0.1 ms) is timed once more and pushed onto `setup_times`.  It runs
/// while no pass does, and every figure of the window comes from the
/// passes' own times, so it moves none of them; taken across the whole
/// window, a few hundred repetitions sample the host as the passes do,
/// where a burst before and after the window would catch two moments.
fn run_window(
    candidates: &[Dims],
    workers: usize,
    seconds: f64,
    reference: &DesignFrontier,
    setup_times: &mut Vec<f64>,
) -> Result<Window, String> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let steal = stats::StealClock::start(start, SLICE_S);
    let recorder = SliceRecorder::new(start, seconds, SLICE_S);
    let mut passes = 0;
    let mut wrong = 0;
    while Instant::now() < deadline {
        let began = Instant::now();
        let frontier = run_streaming(candidates, workers, TOP_K).map_err(|e| e.to_string())?;
        let now = Instant::now();
        recorder.record(now, now.duration_since(began));
        passes += 1;
        if !bit_identical(&frontier, reference) {
            wrong += 1;
        }
        let started = Instant::now();
        std::hint::black_box(dense_candidates());
        setup_times.push(started.elapsed().as_secs_f64());
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut figures = stats::window_figures(
        &SliceRecorder::merged(std::slice::from_ref(&recorder)),
        elapsed_s,
        SLICE_S,
        &steal.finish(),
    );
    // An operation is one candidate evaluated.  A slice holds only a dozen
    // passes, so a count of passes would move in steps of a whole pass;
    // the kept passes' mean time does not.
    figures.throughput_rps = candidates.len() as f64 / (figures.latency_mean_us * 1e-6);
    Ok(Window {
        figures,
        passes,
        wrong,
    })
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Set-up is building the candidate grid: once here, and again after
    // every pass of every window.
    let started = Instant::now();
    let candidates = dense_candidates();
    let mut setup_times = vec![started.elapsed().as_secs_f64()];

    // The serial reference frontier every pass must reproduce, computed
    // before the windows open.
    let reference = run_streaming(&candidates, 1, TOP_K).map_err(|e| e.to_string())?;
    let measured_s = if trace { seconds / 2.0 } else { seconds };
    let untraced = run_window(
        &candidates,
        workers,
        measured_s,
        &reference,
        &mut setup_times,
    )?;
    let peak_rss_mb = stats::peak_rss_mb();
    let traced = if trace {
        Some(run_window(
            &candidates,
            workers,
            measured_s,
            &reference,
            &mut setup_times,
        )?)
    } else {
        None
    };

    let mut outcome = Outcome::new(Workload::DseLocal, seed, seconds, trace);
    match peak_rss_mb {
        Ok(mb) => outcome.peak_rss_mb = mb,
        Err(err) => outcome.problem(err),
    }
    outcome.setup_s = stats::median(&mut setup_times);
    outcome.detail("setup_reps", setup_times.len().to_string());
    outcome.detail("workers", workers.to_string());
    outcome.detail("candidates", candidates.len().to_string());
    for (label, window) in
        std::iter::once(("untraced", &untraced)).chain(traced.iter().map(|w| ("traced", w)))
    {
        let wrong = window.wrong;
        outcome.attempted += (window.passes * candidates.len()) as u64;
        outcome.correct += ((window.passes - wrong) * candidates.len()) as u64;
        if wrong > 0 {
            outcome.problem(format!(
                "{label}: {wrong} of {} passes differ from the serial frontier",
                window.passes
            ));
        }
        outcome.detail(&format!("{label}_passes"), window.passes.to_string());
    }
    outcome.figures = untraced.figures.clone();

    if let Some(window) = traced {
        let replica = replica_passes(&candidates, &reference)?;
        if let Some(problem) = &replica.problem {
            outcome.problem(problem.clone());
        }
        outcome.layers = Some(dse_layers(
            seed,
            &candidates,
            workers,
            &window,
            untraced.figures.throughput_rps,
            &replica,
        ));
    }
    Ok(outcome)
}

/// A serial copy of one sweep pass through the same public calls the
/// sweep makes per candidate, timed per layer.
struct Replica {
    /// Seconds of `core` work (model preparation and evaluation) per pass.
    core_s: f64,
    /// Seconds of `experiments` work (frontier accumulation) per pass.
    accumulate_s: f64,
    model_hit_ratio: f64,
    unit_reports: usize,
    problem: Option<String>,
}

fn opt_ted(dims: Dims) -> Result<CrossLightConfig, String> {
    let (n, k, conv_units, fc_units) = dims;
    CrossLightConfig::new(
        n,
        k,
        conv_units,
        fc_units,
        DesignChoices::crosslight_opt_ted(),
    )
    .map_err(|e| e.to_string())
}

fn replica_pass(
    candidates: &[Dims],
    workloads: &[NetworkWorkload],
) -> Result<(f64, f64, ModelCache, DesignFrontier), String> {
    let cache = ModelCache::new();
    let mut points = Vec::with_capacity(candidates.len());
    let mut reports = Vec::with_capacity(workloads.len());
    let started = Instant::now();
    for &dims in candidates {
        let config = opt_ted(dims)?;
        let power = cache.power(&config).map_err(|e| e.to_string())?;
        let area = cache.area(&config);
        let resolution_bits = cache.resolution_bits(&config).map_err(|e| e.to_string())?;
        let simulator = CrossLightSimulator::new(config);
        reports.clear();
        for workload in workloads {
            reports.push(SimulationReport {
                power,
                area,
                metrics: simulator
                    .evaluate_metrics(workload, &power)
                    .map_err(|e| e.to_string())?,
                resolution_bits,
            });
        }
        let avg = AverageMetrics::from_reports(&reports).map_err(|e| e.to_string())?;
        let area_mm2 = avg.area.value();
        points.push(DesignPoint {
            conv_unit_size: dims.0,
            fc_unit_size: dims.1,
            conv_units: dims.2,
            fc_units: dims.3,
            avg_fps: avg.fps,
            avg_epb_pj: avg.energy_per_bit_pj,
            area_mm2,
            fps_per_epb: avg.fps / avg.energy_per_bit_pj,
            within_area_cap: area_mm2 <= AREA_CAP_MM2,
        });
    }
    let core_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let mut accumulator = FrontierAccumulator::new(TOP_K);
    for (index, point) in points.into_iter().enumerate() {
        accumulator.push(index, point);
    }
    let frontier = accumulator.finish();
    Ok((core_s, started.elapsed().as_secs_f64(), cache, frontier))
}

fn replica_passes(candidates: &[Dims], reference: &DesignFrontier) -> Result<Replica, String> {
    let workloads: Vec<NetworkWorkload> = paper_workloads()
        .iter()
        .map(|w| NetworkWorkload::clone(w))
        .collect();
    let mut core = Vec::new();
    let mut accumulate = Vec::new();
    let mut last = None;
    let mut problem = None;
    for _ in 0..REPLICA_PASSES {
        let (core_s, accumulate_s, cache, frontier) = replica_pass(candidates, &workloads)?;
        if !bit_identical(&frontier, reference) {
            problem = Some("the serial replica pass differs from the sweep's frontier".into());
        }
        core.push(core_s);
        accumulate.push(accumulate_s);
        last = Some(cache.stats());
    }
    let cache_stats = last.expect("at least one replica pass");
    Ok(Replica {
        core_s: stats::median(&mut core),
        accumulate_s: stats::median(&mut accumulate),
        model_hit_ratio: cache_stats.hit_rate(),
        unit_reports: cache_stats.unit_reports,
        problem,
    })
}

/// `(config, workload)` pairs drawn by seed from the grid × Table I models.
const CORE_SAMPLE: usize = 2048;

fn dse_layers(
    seed: u64,
    candidates: &[Dims],
    workers: usize,
    window: &Window,
    untraced_rps: f64,
    replica: &Replica,
) -> Layers {
    let mut out = Layers::default();
    out.absent(&[
        "client.encode_us",
        "client.decode_us",
        "wire.decode_request_us",
        "wire.encode_response_us",
        "server.request_us",
        "server.unattributed_us",
        "server.transport_us",
        "server.batch_size_mean",
        "server.shed",
        "runtime.queue_wait_us",
        "runtime.cache_lookup_us",
        "runtime.result_hit_ratio",
        "runtime.worker_busy_imbalance",
    ]);
    for phase in crosslight_telemetry::Phase::ALL {
        out.set(&format!("server.phase_us.{}", phase.as_str()), 0.0);
    }
    out.absent(&layers::CLUSTER_METRICS);

    let workloads = paper_workloads();
    let mut rng = SplitMix64::stream(seed, 0xD5E);
    let sample: Vec<(CrossLightConfig, Arc<NetworkWorkload>)> = (0..CORE_SAMPLE)
        .filter_map(|_| {
            let dims = candidates[rng.below(candidates.len() as u64) as usize];
            let workload = &workloads[rng.below(workloads.len() as u64) as usize];
            Some((opt_ted(dims).ok()?, Arc::clone(workload)))
        })
        .collect();
    layers::core_layer(
        &mut out,
        &sample,
        replica.model_hit_ratio,
        replica.unit_reports,
    );

    let pass_us = window.figures.latency_p50_us;
    let core_us = replica.core_s * 1e6 / workers as f64;
    let experiments_us = replica.accumulate_s * 1e6 / workers as f64;
    out.set(
        "experiments.parallel_efficiency",
        replica.core_s * 1e6 / (workers as f64 * pass_us),
    );
    out.ledger(
        pass_us,
        &[
            ("client", 0.0),
            ("wire", 0.0),
            ("server", 0.0),
            ("runtime", 0.0),
            ("core", core_us),
            ("cluster", 0.0),
            ("experiments", experiments_us),
        ],
    );
    out.traced_window(&window.figures, untraced_rps);
    out.note("replica_core_s", replica.core_s.to_string());
    out.note("replica_accumulate_s", replica.accumulate_s.to_string());
    out
}
