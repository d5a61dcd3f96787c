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
//! Every ratio is an entry's speed-up over a sibling that takes turns with
//! it in the same run:
//!
//! * `wire_decode_request` and `wire_decode_response` decode the
//!   encoder's own lines, which the exact-layout reader takes, against
//!   `_tree` siblings that decode the same line behind one leading space,
//!   which that reader declines, so they measure the `Json` tree.
//! * `direct_submit_batch_warm_per_req` (the mix as one `submit_batch` to
//!   a warmed pool) against `serial_uncached_per_req` (a fresh simulator
//!   per request on one thread, no cache) is the warm runtime's
//!   throughput over serial simulation; its bar is ≥ 10.
//! * `server_loopback_warm_mix` (the mix pipelined over one loopback
//!   connection, client encode and decode included) against
//!   `direct_submit_each_warm` (one `EvalService::submit` at a time) is
//!   what a network client pays over an in-process caller; its bar is
//!   loopback within 2× of direct dispatch, a speed-up ≥ 0.5.
//! * `server_loopback_warm_mix_4conn` (the mix over four concurrent
//!   connections) and `server_loopback_warm_mix_untraced` (the mix on a
//!   second server that traces nothing) against `server_loopback_warm_mix`;
//!   the second is the cost of default tracing (one line in 16 per event
//!   loop), and its bar is ≤ 1.05.
//!
//! The four serving entries take turns in one group, and every serving
//! figure is per request.

use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;

use crosslight_bench::{finish, measure, measure_pair, measure_turns, Args, Bar, Figure};
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

/// Warm batched dispatch serves the mix at least 10× faster than serial
/// uncached simulation.
const BATCH_OVER_SERIAL: Bar = Bar::AtLeast(10.0);
/// A loopback request costs at most 2× a direct `submit`.
const LOOPBACK_OVER_DIRECT: Bar = Bar::AtLeast(0.5);
/// Default tracing costs at most 5 % of a loopback warm request.
const UNTRACED_OVER_TRACED: Bar = Bar::AtMost(1.05);

fn main() -> ExitCode {
    let args = Args::parse("BENCH_server.json");
    let window_ms: u64 = if args.quick { 80 } else { 500 };
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4);
    let mut results = Vec::new();

    // The shared cache-warm scenario mix: the 64 distinct paper scenarios
    // of the loadgen's standard pool, materialized once.
    let specs: Vec<EvalSpec> = LoadGenOptions::paper_mix(1, 1, 0).scenarios;
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
    // The `_tree` siblings decode the same frame through the `Json` tree: a
    // leading space is valid JSON, but the exact-layout reader declines it.
    let spaced_request_line = format!(" {request_line}");
    results.extend(measure_pair(
        ["wire_decode_request", "wire_decode_request_tree"],
        window_ms,
        || wire::decode_request(&request_line).expect("sample line is valid"),
        || wire::decode_request(&spaced_request_line).expect("sample line is valid"),
    ));

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
    let spaced_response_line = format!(" {response_line}");
    results.extend(measure_pair(
        ["wire_decode_response", "wire_decode_response_tree"],
        window_ms,
        || wire::decode_response(&response_line).expect("sample line is valid"),
        || wire::decode_response(&spaced_response_line).expect("sample line is valid"),
    ));

    // ---- warm batched dispatch vs serial uncached simulation -------------
    // Serial simulation builds a fresh simulator per request on this one
    // thread: every request rebuilds its power and area models, and
    // nothing is cached.  Warm every scenario once so dispatch measures
    // the steady state.
    direct_service
        .submit_batch(requests.clone())
        .expect("warm-up succeeds");
    let mix = requests.len() as u64;
    let [mut batch, serial] = measure_turns(
        [
            "direct_submit_batch_warm_per_req",
            "serial_uncached_per_req",
        ],
        window_ms,
        [
            &mut || {
                black_box(direct_service.submit_batch(requests.clone()))
                    .expect("dispatch succeeds");
                mix
            },
            &mut || {
                for request in &requests {
                    let config = request.config().expect("the mix is CrossLight");
                    black_box(CrossLightSimulator::new(config).evaluate(&request.workload))
                        .expect("mix scenarios evaluate");
                }
                mix
            },
        ],
    );
    batch.compare(&serial, Figure::Mean, Some(BATCH_OVER_SERIAL));
    results.extend([batch, serial]);

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

    // ---- loopback serving vs direct dispatch, four connections and no
    // tracing, taking turns in one group ----------------------------------
    // Four connections pipeline the warm mix at once, so one event-loop
    // wake can admit evals from several connections into one pool batch.
    const CONNECTIONS: usize = 4;
    let mut clients: Vec<Client> = (0..CONNECTIONS)
        .map(|_| Client::connect(server.local_addr()).expect("connect client"))
        .collect();
    let pipelined = |client: &mut Client| {
        client
            .eval_pipelined(&specs, 0)
            .expect("pipelined mix succeeds")
            .len() as u64
    };
    let mut cursor = 0usize;
    let [mut loopback, direct_each, mut concurrent, mut untraced] = measure_turns(
        [
            "server_loopback_warm_mix",
            "direct_submit_each_warm",
            "server_loopback_warm_mix_4conn",
            "server_loopback_warm_mix_untraced",
        ],
        window_ms,
        [
            &mut || pipelined(&mut client),
            &mut || {
                let request = requests[cursor % requests.len()].clone();
                cursor += 1;
                black_box(direct_service.submit(request)).expect("dispatch succeeds");
                1
            },
            &mut || {
                std::thread::scope(|scope| {
                    for client in &mut clients {
                        scope.spawn(|| pipelined(client));
                    }
                });
                (CONNECTIONS * specs.len()) as u64
            },
            &mut || pipelined(&mut untraced_client),
        ],
    );
    loopback.compare(&direct_each, Figure::Mean, Some(LOOPBACK_OVER_DIRECT));
    concurrent.compare(&loopback, Figure::Mean, None);
    untraced.compare(&loopback, Figure::Mean, Some(UNTRACED_OVER_TRACED));
    results.extend([loopback, direct_each, concurrent, untraced]);
    drop(clients);
    drop(untraced_client);
    untraced_server.shutdown();

    drop(client);
    server.shutdown();
    finish(&args, "crosslight-bench-server/v2", &results)
}
