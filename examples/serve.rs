//! Serves the CrossLight evaluation runtime over TCP/JSON-lines and drives
//! it with the in-crate load generator — the end-to-end smoke of the
//! `crosslight::server` stack.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example serve -- --port 0 --workers 4 --clients 4 --requests 64
//! ```
//!
//! Three phases, each of which panics (non-zero exit, so CI can use this as
//! a smoke test) if its invariant does not hold:
//!
//! 1. **Equivalence** — a mixed paper-scenario load is replayed twice over
//!    `--clients` concurrent connections; every wire response must be
//!    bit-identical to direct in-process `EvalService` dispatch of the same
//!    scenario, and the second (cache-warm) pass must hit the cache.
//! 2. **Telemetry** — the `metrics` wire op is scraped in all three formats
//!    (JSON snapshot, Prometheus-style text, trace spans); the per-phase
//!    latency breakdown must be complete and internally consistent with the
//!    end-to-end histogram, and `--dump-metrics <path>` writes the text page
//!    for external validation (the CI scrape step).
//! 3. **Overload** — the same mix is fired at a capacity-1 server; the
//!    overload path must observably shed with typed `overloaded` frames
//!    while still answering every request exactly once.
//! 4. **Drain** — shutdown with clients connected must complete without
//!    hanging (the process exiting is the proof).

use std::collections::HashMap;
use std::sync::Arc;

use crosslight::core::simulator::SimulationReport;
use crosslight::neural::workload::NetworkWorkload;
use crosslight::neural::zoo::PaperModel;
use crosslight::runtime::prelude::*;
use crosslight::server::loadgen::{self, Client, LoadGenOptions};
use crosslight::server::server::{Server, ServerOptions};
use crosslight::server::wire::{EvalSpec, MetricsFormat, MetricsFrame, ResponseBody, WorkloadRef};
use crosslight::telemetry::{
    validate_text, HistogramSnapshot, Phase, RegistrySnapshot, SeriesValue,
};

fn parse_flag(args: &[String], flag: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{flag} expects a non-negative integer, got `{v}`"))
        })
        .unwrap_or(default)
}

fn parse_path_flag(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The labeled `server_phase_ns` series of one phase.
fn phase_histogram(scrape: &RegistrySnapshot, phase: Phase) -> &HistogramSnapshot {
    let family = scrape
        .family("server_phase_ns")
        .expect("the scrape carries server_phase_ns");
    let series = family
        .series
        .iter()
        .find(|s| {
            s.labels
                .iter()
                .any(|(k, v)| k == "phase" && v == phase.as_str())
        })
        .unwrap_or_else(|| panic!("server_phase_ns has no series for phase {}", phase.as_str()));
    match &series.value {
        SeriesValue::Histogram(h) => h,
        other => panic!("server_phase_ns is not a histogram: {other:?}"),
    }
}

fn counter_value(scrape: &RegistrySnapshot, name: &str) -> u64 {
    match scrape.value(name) {
        Some(SeriesValue::Counter(v)) => *v,
        other => panic!("{name} is not a scraped counter: {other:?}"),
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Direct in-process dispatch of every distinct scenario of the mix, used
/// as the ground truth the wire responses must reproduce bit-for-bit.
fn direct_reports(
    options: &LoadGenOptions,
    service: &EvalService,
) -> HashMap<u64, SimulationReport> {
    let workloads: [Arc<NetworkWorkload>; 4] = PaperModel::all()
        .map(|m| Arc::new(NetworkWorkload::from_spec(&m.spec()).expect("paper models are valid")));
    let mut by_id = HashMap::new();
    for client in 0..options.clients {
        for (index, spec) in options.client_specs(client).into_iter().enumerate() {
            let request = spec
                .to_eval_request(options.request_id(client, index), &workloads)
                .expect("mix scenarios are valid");
            let response = service.submit(request).expect("direct dispatch succeeds");
            by_id.insert(options.request_id(client, index), response.report);
        }
    }
    by_id
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let port = parse_flag(&args, "--port", 0);
    let workers = parse_flag(&args, "--workers", 4).max(1);
    let clients = parse_flag(&args, "--clients", 4).max(1);
    let requests = parse_flag(&args, "--requests", 64).max(1);
    let dump_metrics = parse_path_flag(&args, "--dump-metrics");

    println!("=== crosslight-server — TCP/JSON-lines front-end over the runtime ===\n");

    // ---- Phase 1: serve + prove equivalence --------------------------------
    let server = Server::bind(
        format!("127.0.0.1:{port}"),
        ServerOptions::default()
            .with_workers(workers)
            .with_queue_capacity(16 * 1024),
    )?;
    let addr = server.local_addr();
    println!("listening on {addr} ({workers} eval workers)");

    let options = LoadGenOptions::paper_mix(clients, requests, 0x5EED);
    let direct_service = EvalService::new(RuntimeOptions::default().with_workers(workers));
    let expected = direct_reports(&options, &direct_service);

    let mut warm_rps = 0.0;
    for pass in 0..2 {
        let report = loadgen::run(addr, &options)?;
        assert_eq!(report.ok, report.sent, "no request may fail: {report:?}");
        assert_eq!(report.shed, 0, "nothing may be shed below capacity");
        for (id, response) in &report.responses {
            let ResponseBody::Eval(frame) = &response.body else {
                panic!("id {id}: unexpected response {response:?}");
            };
            assert_eq!(
                frame.report, expected[id],
                "id {id}: wire response diverged from direct EvalService dispatch"
            );
        }
        let label = if pass == 0 { "cold" } else { "warm" };
        println!(
            "pass {label}: {} requests over {} connections in {:.2?}  ({:>8.0} req/s)  \
             client latency p50 {:.2} ms / p99 {:.2} ms",
            report.sent,
            options.clients,
            report.elapsed,
            report.throughput_rps(),
            ms(report.latency.p50()),
            ms(report.latency.p99()),
        );
        warm_rps = report.throughput_rps();
    }
    let stats = server.stats();
    assert!(
        stats.runtime.cache_hits > 0,
        "the warm pass must hit the cache"
    );
    println!(
        "cache   : {} hits / {} misses ({:.0}% hit rate), {} prepared configs",
        stats.runtime.cache_hits,
        stats.runtime.cache_misses,
        stats.runtime.hit_rate() * 100.0,
        stats.runtime.prepared_configs
    );
    println!(
        "server  : {} frames, {} evals ok, shed {}, malformed {}",
        stats.server.requests_total,
        stats.server.evals_ok,
        stats.server.shed_total,
        stats.server.malformed_total
    );
    println!("OK: every wire response bit-identical to direct EvalService dispatch.\n");

    // A stats request over the wire itself.
    let mut probe = Client::connect(addr)?;
    let stats_frame = probe.stats(0)?;
    let ResponseBody::Stats(wire_stats) = &stats_frame.body else {
        panic!("stats endpoint returned {stats_frame:?}");
    };
    println!(
        "wire stats: queue {}/{} in flight, per-worker {:?}, queue depths {:?}\n",
        wire_stats.server.in_flight,
        wire_stats.server.queue_capacity,
        wire_stats.runtime.per_worker,
        wire_stats.runtime.queue_depths
    );

    // ---- Phase 2: scrape the telemetry surface over the wire ---------------
    // Traces fold into the histograms *after* their response line is
    // flushed, so a scrape racing the tail of the load can briefly see a
    // sampled trace whose end-to-end sample is not folded yet.  Re-scrape
    // until the registry quiesces (every sampled trace folded), bounded.
    let scrape = {
        let mut scrape_id = 100;
        loop {
            let response = probe.metrics(scrape_id, MetricsFormat::Json)?;
            let ResponseBody::Metrics(MetricsFrame::Snapshot(scrape)) = response.body else {
                panic!("metrics endpoint returned {response:?}");
            };
            let sampled = counter_value(&scrape, "server_traces_sampled_total");
            let folded = match scrape.value("server_request_ns") {
                Some(SeriesValue::Histogram(h)) => h.count(),
                other => panic!("server_request_ns is not a scraped histogram: {other:?}"),
            };
            if folded == sampled || scrape_id >= 140 {
                assert_eq!(
                    folded, sampled,
                    "traced requests never finished folding into the registry"
                );
                break scrape;
            }
            scrape_id += 1;
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    };

    // Every family of the documented vocabulary must be present in one
    // merged scrape — server front-end and runtime pool alike.
    for family in [
        "server_requests_total",
        "server_evals_ok_total",
        "server_evals_failed_total",
        "server_shed_total",
        "server_malformed_total",
        "server_oversized_total",
        "server_connections_accepted_total",
        "server_connections_active",
        "server_connections_drained_total",
        "server_bytes_read_total",
        "server_bytes_written_total",
        "server_write_queue_depth",
        "server_admission_in_flight",
        "server_admission_capacity",
        "server_phase_ns",
        "server_request_ns",
        "server_traces_sampled_total",
        "server_trace_spans_dropped_total",
        "runtime_submitted_total",
        "runtime_completed_total",
        "runtime_queue_wait_ns",
        "runtime_cache_lookup_ns",
        "runtime_prepare_ns",
        "runtime_evaluate_ns",
        "runtime_result_cache_hits_total",
        "runtime_result_cache_misses_total",
        "runtime_workers",
    ] {
        assert!(
            scrape.family(family).is_some(),
            "scrape is missing required family {family}"
        );
    }

    // The per-phase latency breakdown, as a table.
    let e2e = match scrape.value("server_request_ns") {
        Some(SeriesValue::Histogram(h)) => h.clone(),
        other => panic!("server_request_ns is not a scraped histogram: {other:?}"),
    };
    println!("per-phase latency of {} traced requests (ms):", e2e.count());
    println!(
        "  {:<12} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "phase", "count", "p50", "p90", "p99", "mean"
    );
    let mut phase_sum_ns = 0u64;
    for phase in Phase::ALL {
        let h = phase_histogram(&scrape, phase);
        println!(
            "  {:<12} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            phase.as_str(),
            h.count(),
            ms(h.p50()),
            ms(h.p90()),
            ms(h.p99()),
            h.mean() / 1e6,
        );
        // `read` spans wait on the client between requests, so the
        // end-to-end window deliberately starts at `decode`.
        if phase != Phase::Read {
            phase_sum_ns += h.sum();
        }
    }
    println!(
        "  {:<12} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
        "end_to_end",
        e2e.count(),
        ms(e2e.p50()),
        ms(e2e.p90()),
        ms(e2e.p99()),
        e2e.mean() / 1e6,
    );

    // Consistency of the breakdown with the end-to-end histogram: the
    // phases after `read` are disjoint sub-intervals of each request's
    // decode-to-flush window, so their summed time cannot exceed the
    // summed end-to-end time, and every traced request contributes
    // exactly one decode span and one end-to-end sample.
    assert!(e2e.count() > 0, "the load must produce traced requests");
    assert_eq!(phase_histogram(&scrape, Phase::Decode).count(), e2e.count());
    assert_eq!(
        phase_histogram(&scrape, Phase::CacheLookup).count(),
        e2e.count(),
        "every traced eval passes the cache lookup exactly once"
    );
    // `prepare`/`evaluate` run only on cache misses, so their counts match
    // each other and never exceed the traced-request count.
    assert_eq!(
        phase_histogram(&scrape, Phase::Prepare).count(),
        phase_histogram(&scrape, Phase::Evaluate).count(),
        "every traced miss is prepared and evaluated exactly once"
    );
    assert!(phase_histogram(&scrape, Phase::Evaluate).count() <= e2e.count());
    assert!(
        phase_sum_ns <= e2e.sum(),
        "per-phase time ({phase_sum_ns} ns) exceeds end-to-end time ({} ns)",
        e2e.sum()
    );
    // Ordered-read discipline holds in the scrape too.
    assert!(
        counter_value(&scrape, "runtime_submitted_total")
            >= counter_value(&scrape, "runtime_completed_total"),
        "runtime counters must satisfy submitted >= completed"
    );
    assert!(
        counter_value(&scrape, "server_requests_total")
            >= counter_value(&scrape, "server_evals_ok_total")
    );
    println!("OK: phase breakdown complete and consistent with end-to-end latency.\n");

    // Prometheus-style text, validated and optionally dumped for CI.
    let text_response = probe.metrics(200, MetricsFormat::Text)?;
    let ResponseBody::Metrics(MetricsFrame::Text(page)) = &text_response.body else {
        panic!("metrics text endpoint returned {text_response:?}");
    };
    validate_text(page).expect("exposition page validates");
    assert!(page.contains("server_phase_ns_bucket"));
    assert!(page.contains("runtime_evaluate_ns_count"));
    if let Some(path) = &dump_metrics {
        std::fs::write(path, page)?;
        println!("metrics : dumped {} exposition bytes to {path}", page.len());
    }

    // Span export: each drain hands the ring's timelines to one scraper.
    let spans_response = probe.metrics(201, MetricsFormat::Spans)?;
    let ResponseBody::Metrics(MetricsFrame::Spans(spans)) = &spans_response.body else {
        panic!("metrics spans endpoint returned {spans_response:?}");
    };
    assert!(
        !spans.is_empty(),
        "tracing at 1:1 must export span timelines"
    );
    assert!(spans.iter().all(|line| line.starts_with("{\"id\":")));
    println!(
        "metrics : JSON scrape {} families, text page {} bytes, {} span timelines\n",
        scrape.families.len(),
        page.len(),
        spans.len()
    );

    drop(probe);
    server.shutdown();

    // ---- Phase 3: overload sheds, typed and bounded ------------------------
    let tiny = Server::bind(
        "127.0.0.1:0",
        ServerOptions::default()
            .with_workers(workers)
            .with_queue_capacity(1),
    )?;
    // Distinct, uncached configurations keep evaluations slow enough that a
    // pipelined burst must overrun the capacity-1 admission queue.
    let mut burst = LoadGenOptions::paper_mix(clients, requests.max(32), 0xBEEF);
    burst.scenarios = (0..64)
        .map(|i| {
            EvalSpec::crosslight(
                crosslight::core::variants::CrossLightVariant::all()[i % 4],
                (10 + i, 160 + i, 40 + i, 20 + i),
                16,
                WorkloadRef::Model(PaperModel::all()[i % 4]),
            )
        })
        .collect();
    let overload = loadgen::run(tiny.local_addr(), &burst)?;
    let tiny_stats = tiny.stats();
    assert_eq!(
        overload.ok + overload.shed,
        overload.sent,
        "every request is answered exactly once: {overload:?}"
    );
    assert!(overload.ok > 0, "admitted work must complete");
    assert!(
        overload.shed > 0,
        "a pipelined burst against capacity 1 must shed"
    );
    assert_eq!(tiny_stats.server.shed_total, overload.shed);
    assert_eq!(tiny_stats.server.in_flight, 0);
    println!(
        "overload: {} sent → {} ok, {} shed (typed `overloaded` frames), 0 hangs",
        overload.sent, overload.ok, overload.shed
    );

    // ---- Phase 4: drain with clients connected -----------------------------
    let idle = Client::connect(tiny.local_addr())?;
    tiny.shutdown();
    drop(idle);
    println!("drain   : shutdown completed with a client connected\n");

    println!(
        "OK: served {:.0} req/s warm over {} connections; overload shed {} of {}; drain clean.",
        warm_rps, options.clients, overload.shed, overload.sent
    );
    Ok(())
}
