//! Server-trajectory benchmark: measures the TCP/JSON-lines front-end
//! against direct in-process `EvalService` dispatch over the same
//! cache-warm request mix, plus the wire codec microbenches, and emits a
//! machine-readable `BENCH_server.json` on the shared trajectory harness.
//!
//! ```sh
//! cargo run --release -p crosslight-bench --bin bench_server            # full run
//! cargo run --release -p crosslight-bench --bin bench_server -- --quick # CI smoke
//! cargo run --release -p crosslight-bench --bin bench_server -- --out path.json
//! ```
//!
//! The headline comparison is per-request: `direct_submit_each_warm` is
//! what an in-process caller pays per `EvalService::submit` on a warm
//! cache, and `server_loopback_warm_mix` is what a network client pays for
//! the same scenario stream (pipelined over one loopback connection,
//! including client-side encode/decode).  The acceptance bar for this
//! subsystem is the loopback path staying within 2× of direct dispatch;
//! the measured ratio is embedded in the JSON as `speedup_vs_baseline` of
//! `server_loopback_warm_mix` (a value ≥ 0.5 means within 2×).
//! `server_loopback_warm_mix_4conn` pipelines the same mix over four
//! concurrent connections and is judged against this run's
//! single-connection figure.  `server_loopback_warm_mix_untraced` runs
//! the single-connection mix on a second server that traces nothing, in
//! turns with `server_loopback_warm_mix`, and is recorded against it, so
//! its `speedup_vs_baseline` is what default tracing (one line in 16 per
//! event loop) costs.
//!
//! `serial_uncached_per_req` is the pre-runtime baseline: the same mix
//! evaluated with a fresh simulator per request on one thread, no cache.
//! `direct_submit_batch_warm_per_req` is recorded against it, so its
//! `speedup_vs_baseline` is the warm runtime's throughput over serial
//! simulation.
//!
//! `wire_decode_request` and `wire_decode_response` decode the encoder's
//! own lines, which the exact-layout reader takes.  Each is recorded
//! against a `_tree` sibling that decodes the same line behind one leading
//! space, which that reader declines, so it measures the `Json` tree.

use std::sync::Arc;

use crosslight_bench::{
    measure, measure_interleaved, print_speedups, render_trajectory_json, BenchResult,
};
use crosslight_core::simulator::CrossLightSimulator;
use crosslight_neural::workload::NetworkWorkload;
use crosslight_neural::zoo::PaperModel;
use crosslight_runtime::pool::{EvalService, RuntimeOptions};
use crosslight_runtime::request::EvalRequest;
use crosslight_server::loadgen::{Client, LoadGenOptions};
use crosslight_server::server::{Server, ServerOptions};
use crosslight_server::wire::{
    self, EvalFrame, EvalSpec, Request, RequestBody, Response, ResponseBody,
};

/// The per-request entry `name` of a measurement whose every iteration
/// served `requests` requests.  Scaling a distribution by a constant scales
/// its quantiles, so the percentiles divide too.
fn per_request(name: &str, batch: &BenchResult, requests: usize) -> BenchResult {
    let requests = requests as f64;
    BenchResult {
        name: name.to_string(),
        ns_per_iter: batch.ns_per_iter / requests,
        iterations: batch.iterations,
        p50_ns: batch.p50_ns.map(|p| p / requests),
        p99_ns: batch.p99_ns.map(|p| p / requests),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_server.json".to_string());
    let window_ms: u64 = if quick { 80 } else { 500 };
    let mode = if quick { "quick" } else { "full" };
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4);
    let mut results = Vec::new();

    // The shared cache-warm scenario mix: the 64 distinct paper scenarios
    // of the loadgen's standard pool, materialized once.
    let mix_options = LoadGenOptions::paper_mix(1, 1, 0);
    let specs: Vec<EvalSpec> = mix_options.scenarios.clone();
    let workloads: [Arc<NetworkWorkload>; 4] = PaperModel::all()
        .map(|m| Arc::new(NetworkWorkload::from_spec(&m.spec()).expect("paper models are valid")));
    let requests: Vec<EvalRequest> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            spec.to_eval_request(i as u64, &workloads)
                .expect("mix scenarios are valid")
        })
        .collect();

    // ---- wire codec microbenches ------------------------------------------
    let sample_request = Request {
        id: 42,
        body: RequestBody::Eval(specs[0].clone()),
    };
    let request_line = wire::encode_request(&sample_request);
    results.push(measure("wire_encode_request", window_ms, || {
        wire::encode_request(&sample_request)
    }));
    results.push(measure("wire_decode_request", window_ms, || {
        wire::decode_request(&request_line).expect("sample line is valid")
    }));
    // The same frame through the `Json` tree: a leading space is valid
    // JSON, but the exact-layout reader declines it.
    let spaced_request_line = format!(" {request_line}");
    let request_tree = measure("wire_decode_request_tree", window_ms, || {
        wire::decode_request(&spaced_request_line).expect("sample line is valid")
    });
    let request_tree_ns = request_tree.ns_per_iter;
    results.push(request_tree);

    let direct_service = EvalService::new(RuntimeOptions::default().with_workers(workers));
    let sample_report = direct_service
        .submit(requests[0].clone())
        .expect("dispatch succeeds")
        .report;
    let sample_response = Response {
        id: Some(42),
        body: ResponseBody::Eval(EvalFrame {
            report: sample_report,
            cache_hit: true,
            worker: 0,
        }),
    };
    let response_line = wire::encode_response(&sample_response);
    results.push(measure("wire_encode_response", window_ms, || {
        wire::encode_response(&sample_response)
    }));
    results.push(measure("wire_decode_response", window_ms, || {
        wire::decode_response(&response_line).expect("sample line is valid")
    }));
    let spaced_response_line = format!(" {response_line}");
    let response_tree = measure("wire_decode_response_tree", window_ms, || {
        wire::decode_response(&spaced_response_line).expect("sample line is valid")
    });
    let response_tree_ns = response_tree.ns_per_iter;
    results.push(response_tree);

    // ---- serial uncached simulation over the same mix ---------------------
    // A fresh simulator per request on this one thread: every request
    // rebuilds its power and area models, and nothing is cached.
    let serial = measure("serial_uncached_mix", window_ms, || {
        requests
            .iter()
            .map(|request| {
                CrossLightSimulator::new(request.config().expect("the mix is CrossLight"))
                    .evaluate(&request.workload)
                    .expect("mix scenarios evaluate")
            })
            .collect::<Vec<_>>()
    });
    let serial = per_request("serial_uncached_per_req", &serial, requests.len());
    let serial_per_req_ns = serial.ns_per_iter;
    results.push(serial);

    // ---- direct in-process dispatch over the warm mix ---------------------
    // Warm every scenario once so both sides measure the steady state.
    direct_service
        .submit_batch(requests.clone())
        .expect("warm-up succeeds");

    let mut cursor = 0usize;
    let direct_each = measure("direct_submit_each_warm", window_ms, || {
        let request = requests[cursor % requests.len()].clone();
        cursor += 1;
        direct_service.submit(request).expect("dispatch succeeds")
    });
    let direct_each_ns = direct_each.ns_per_iter;
    results.push(direct_each);

    let batch = measure("direct_submit_batch_warm_mix", window_ms, || {
        direct_service
            .submit_batch(requests.clone())
            .expect("dispatch succeeds")
    });
    let batch = per_request("direct_submit_batch_warm_per_req", &batch, requests.len());
    let batch_per_req_ns = batch.ns_per_iter;
    results.push(batch);

    // ---- the same warm mix over loopback TCP ------------------------------
    let server = Server::bind(
        "127.0.0.1:0",
        ServerOptions::default()
            .with_workers(workers)
            .with_queue_capacity(16 * 1024),
    )
    .expect("bind loopback server");
    let mut client = Client::connect(server.local_addr()).expect("connect to loopback server");
    // Warm pass (also verifies equivalence with direct dispatch).
    let warm = client
        .eval_pipelined(&specs, 0)
        .expect("warm pass succeeds");
    assert_eq!(warm.len(), specs.len());
    for response in &warm {
        let ResponseBody::Eval(frame) = &response.body else {
            panic!("unexpected response {response:?}");
        };
        let id = response.id.expect("ids are echoed") as usize;
        let direct = direct_service
            .submit(requests[id].clone())
            .expect("dispatch succeeds");
        assert_eq!(
            frame.report, direct.report,
            "wire response diverged from direct dispatch"
        );
    }

    // ---- the same warm mix on a server that traces nothing ----------------
    // The two servers take turns, one pipelined mix each, so host drift
    // lands on both and their ratio is the cost of default tracing.
    let untraced_server = Server::bind(
        "127.0.0.1:0",
        ServerOptions::default()
            .with_workers(workers)
            .with_queue_capacity(16 * 1024)
            .with_trace_sampling(0),
    )
    .expect("bind untraced loopback server");
    let mut untraced_client =
        Client::connect(untraced_server.local_addr()).expect("connect to untraced server");
    untraced_client
        .eval_pipelined(&specs, 0)
        .expect("warm pass succeeds");
    let [loopback, untraced] = measure_interleaved(
        [
            "server_loopback_warm_mix_batch",
            "server_loopback_warm_mix_untraced_batch",
        ],
        window_ms,
        || {
            client
                .eval_pipelined(&specs, 0)
                .expect("pipelined mix succeeds")
        },
        || {
            untraced_client
                .eval_pipelined(&specs, 0)
                .expect("pipelined mix succeeds")
        },
    );
    drop(untraced_client);
    untraced_server.shutdown();
    let loopback = per_request("server_loopback_warm_mix", &loopback, specs.len());
    let per_request_ns = loopback.ns_per_iter;
    results.push(loopback);
    let untraced = per_request("server_loopback_warm_mix_untraced", &untraced, specs.len());
    let untraced_per_request_ns = untraced.ns_per_iter;
    results.push(untraced);

    // ---- the same mix over four concurrent connections --------------------
    // Four connections pipeline the warm mix at once, so one event-loop
    // wake can admit evals from several connections into one pool batch.
    // Reported per request across all connections.
    const CONNECTIONS: usize = 4;
    let mut clients: Vec<Client> = (0..CONNECTIONS)
        .map(|_| Client::connect(server.local_addr()).expect("connect client"))
        .collect();
    let concurrent = measure("server_loopback_warm_mix_4conn_batch", window_ms, || {
        std::thread::scope(|scope| {
            for client in clients.iter_mut() {
                scope.spawn(|| {
                    client
                        .eval_pipelined(&specs, 0)
                        .expect("pipelined mix succeeds")
                });
            }
        });
    });
    let concurrent = per_request(
        "server_loopback_warm_mix_4conn",
        &concurrent,
        CONNECTIONS * specs.len(),
    );
    let concurrent_per_req_ns = concurrent.ns_per_iter;
    results.push(concurrent);
    drop(clients);

    // Multi-connection aggregate throughput, reported for context.
    let load_options = LoadGenOptions::paper_mix(4, if quick { 64 } else { 256 }, 1);
    let load = crosslight_server::loadgen::run(server.local_addr(), &load_options)
        .expect("load run succeeds");
    assert_eq!(load.ok, load.sent);
    println!(
        "loadgen: {} clients × {} requests → {:>8.0} req/s aggregate",
        load_options.clients,
        load_options.requests_per_client,
        load.throughput_rps()
    );

    drop(client);
    server.shutdown();

    // Every ratio is recorded against a same-run baseline, so the JSON's
    // `speedup_vs_baseline` fields *are* the ratios: the exact-layout
    // decoders vs the tree decoders on the same frame, warm batched dispatch
    // vs serial uncached simulation, loopback vs direct dispatch (≥ 0.5 ⇔
    // within 2×), four connections vs one (> 1 ⇔ a request is cheaper
    // when connections share the server), and untraced vs default tracing
    // (the cost of default tracing; the bar is ≤ 1.05).
    let baselines: Vec<(&str, f64)> = vec![
        ("wire_decode_request", request_tree_ns),
        ("wire_decode_response", response_tree_ns),
        ("direct_submit_batch_warm_per_req", serial_per_req_ns),
        ("server_loopback_warm_mix", direct_each_ns),
        ("server_loopback_warm_mix_4conn", per_request_ns),
        ("server_loopback_warm_mix_untraced", per_request_ns),
    ];
    println!(
        "\nwarm batched dispatch {batch_per_req_ns:.0} ns/req vs serial uncached simulation \
         {serial_per_req_ns:.0} ns/req → {:.1}× the throughput",
        serial_per_req_ns / batch_per_req_ns,
    );
    let ratio = per_request_ns / direct_each_ns;
    println!(
        "server loopback {per_request_ns:.0} ns/req vs direct dispatch {direct_each_ns:.0} \
         ns/req → {ratio:.2}× direct cost (acceptance bar: ≤ 2×)"
    );
    println!(
        "{CONNECTIONS} connections {concurrent_per_req_ns:.0} ns/req vs one connection \
         {per_request_ns:.0} ns/req → {:.2}×",
        per_request_ns / concurrent_per_req_ns,
    );
    println!(
        "default tracing {per_request_ns:.0} ns/req vs untraced {untraced_per_request_ns:.0} \
         ns/req → {:.3}× the untraced cost (bar: ≤ 1.05×)",
        per_request_ns / untraced_per_request_ns,
    );

    let json = render_trajectory_json(
        "crosslight-bench-server/v1",
        mode,
        "b2dd617 (pre-server seed: EvalService reachable in-process only; every recorded \
         baseline is measured in this same run: wire_decode_request and wire_decode_response \
         against their _tree siblings, direct_submit_batch_warm_per_req against \
         serial_uncached_per_req, server_loopback_warm_mix against direct_submit_each_warm, \
         and server_loopback_warm_mix_4conn and server_loopback_warm_mix_untraced against \
         server_loopback_warm_mix)",
        &baselines,
        &results,
    );
    std::fs::write(&out_path, &json).expect("writing the JSON report succeeds");
    println!("\nwrote {out_path} ({mode} mode)");
    print_speedups(&baselines, &results);
}
