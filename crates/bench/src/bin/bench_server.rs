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
//!   `_reordered` siblings that decode the same frame with its members in
//!   reverse order at every level, which that reader declines, so they
//!   measure the wire reader.  `wire_decode_metrics_json` (absolute time
//!   only) decodes the JSON `metrics` answer of a server that has served
//!   the paper mix.
//! * `wire_write_report_floats` writes the sample answer's 16 report
//!   floats with `json::push_f64` against `_display`, the same floats
//!   through `Display` and the `.0` rule it replaced; its bar is ≥ 1.5.
//! * `direct_submit_batch_warm_per_req` (the mix as one `submit_batch` to
//!   a warmed service) against `serial_uncached_per_req` (a fresh
//!   simulator per request on one thread, no cache) is the warm runtime's
//!   throughput over serial simulation; its bar is ≥ 10.
//! * `server_loopback_warm_mix` (the mix pipelined over one loopback
//!   connection, client encode and decode included) against
//!   `serial_uncached_per_req` is what the warm serving stack gives a
//!   network client over serial simulation; its bar is ≥ 20.
//! * `direct_submit_each_warm` (one `EvalService::submit` at a time, a
//!   cache probe on the calling thread) against `server_loopback_warm_mix`
//!   is what an in-process caller saves over a network client; it has no
//!   bar.
//! * `server_loopback_warm_mix_4conn` (the mix over four concurrent
//!   connections) and `server_loopback_warm_mix_untraced` (the mix on a
//!   second server that traces nothing) against `server_loopback_warm_mix`;
//!   the second is the cost of default tracing (one line in 16 per event
//!   loop), and its bar is ≤ 1.05.
//!
//! Those six entries take turns in one group, and every figure is per
//! request.

use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;

use crosslight_bench::{finish, measure, measure_pair, measure_turns, Args, Bar, Figure};
use crosslight_core::simulator::CrossLightSimulator;
use crosslight_neural::workload::NetworkWorkload;
use crosslight_neural::zoo::PaperModel;
use crosslight_runtime::pool::{EvalService, RuntimeOptions};
use crosslight_runtime::request::EvalRequest;
use crosslight_server::json::{push_f64, push_string_literal, Json};
use crosslight_server::loadgen::{Client, LoadGenOptions};
use crosslight_server::server::{Server, ServerOptions};
use crosslight_server::wire::{
    self, EvalFrame, EvalSpec, MetricsFormat, Request, RequestBody, Response, ResponseBody,
};

/// Warm batched dispatch serves the mix at least 10× faster than serial
/// uncached simulation.
const BATCH_OVER_SERIAL: Bar = Bar::AtLeast(10.0);
/// A warm loopback request costs at most 1/20 of a serial uncached
/// simulation.
const LOOPBACK_OVER_SERIAL: Bar = Bar::AtLeast(20.0);
/// Default tracing costs at most 5 % of a loopback warm request.
const UNTRACED_OVER_TRACED: Bar = Bar::AtMost(1.05);
/// The wire's float writer takes at most 2/3 of `Display`'s time.
const WRITER_OVER_DISPLAY: Bar = Bar::AtLeast(1.5);

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
    // The `_reordered` siblings decode the same frame with its members in
    // reverse order at every level: the exact-layout reader declines it, so
    // they measure the wire reader.
    let reordered_request_line = reversed(&request_line);
    results.extend(measure_pair(
        ["wire_decode_request", "wire_decode_request_reordered"],
        window_ms,
        || wire::decode_request(&request_line).expect("sample line is valid"),
        || wire::decode_request(&reordered_request_line).expect("sample line is valid"),
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
    let report_floats = floats(&Json::parse(&response_line).expect("encoded lines parse"));
    let (mut written, mut displayed) = (String::new(), String::new());
    let [mut writer, display] = measure_pair(
        [
            "wire_write_report_floats",
            "wire_write_report_floats_display",
        ],
        window_ms,
        || {
            written.clear();
            for &value in &report_floats {
                push_f64(value, &mut written);
            }
            written.len()
        },
        || {
            displayed.clear();
            for &value in &report_floats {
                let start = displayed.len();
                let _ = write!(displayed, "{value}");
                if !displayed[start..].contains(['.', 'e', 'E']) {
                    displayed.push_str(".0");
                }
            }
            displayed.len()
        },
    );
    assert_eq!(written, displayed, "spelled as Display spells");
    writer.compare(&display, Figure::Mean, Some(WRITER_OVER_DISPLAY));
    results.extend([writer, display]);
    let reordered_response_line = reversed(&response_line);
    results.extend(measure_pair(
        ["wire_decode_response", "wire_decode_response_reordered"],
        window_ms,
        || wire::decode_response(&response_line).expect("sample line is valid"),
        || wire::decode_response(&reordered_response_line).expect("sample line is valid"),
    ));

    // Warm every scenario once so dispatch measures the steady state.
    direct_service
        .submit_batch(requests.clone())
        .expect("warm-up succeeds");

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
    // The JSON metrics page of a server that has served the paper mix.
    let page = wire::encode_response(
        &client
            .metrics(u64::MAX, MetricsFormat::Json)
            .expect("metrics scrape succeeds"),
    );
    results.push(measure("wire_decode_metrics_json", window_ms, || {
        wire::decode_response(&page).expect("the page decodes")
    }));

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

    // ---- warm dispatch and serving vs serial uncached simulation, taking
    // turns in one group ---------------------------------------------------
    // Serial simulation builds a fresh simulator per request on this one
    // thread: every request rebuilds its power and area models, and
    // nothing is cached.  Four connections pipeline the warm mix at once,
    // so one event-loop wake reads evals from several connections.
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
    let mix = requests.len() as u64;
    let mut cursor = 0usize;
    let [mut batch, serial, mut loopback, mut direct_each, mut concurrent, mut untraced] =
        measure_turns(
            [
                "direct_submit_batch_warm_per_req",
                "serial_uncached_per_req",
                "server_loopback_warm_mix",
                "direct_submit_each_warm",
                "server_loopback_warm_mix_4conn",
                "server_loopback_warm_mix_untraced",
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
    batch.compare(&serial, Figure::Mean, Some(BATCH_OVER_SERIAL));
    loopback.compare(&serial, Figure::Mean, Some(LOOPBACK_OVER_SERIAL));
    direct_each.compare(&loopback, Figure::Mean, None);
    concurrent.compare(&loopback, Figure::Mean, None);
    untraced.compare(&loopback, Figure::Mean, Some(UNTRACED_OVER_TRACED));
    results.extend([batch, serial, loopback, direct_each, concurrent, untraced]);
    drop(clients);
    drop(untraced_client);
    untraced_server.shutdown();

    drop(client);
    server.shutdown();
    finish(&args, "crosslight-bench-server/v2", &results)
}

/// Every float in `value`, in document order.
fn floats(value: &Json) -> Vec<f64> {
    match value {
        Json::Float(v) => vec![*v],
        Json::Array(items) => items.iter().flat_map(floats).collect(),
        Json::Object(members) => members.iter().flat_map(|(_, v)| floats(v)).collect(),
        _ => Vec::new(),
    }
}

/// `line` written again with every object's members in reverse order, at
/// every level; arrays keep their order.
fn reversed(line: &str) -> String {
    fn write(value: &Json, out: &mut String) {
        match value {
            Json::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().rev().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_string_literal(key, out);
                    out.push(':');
                    write(value, out);
                }
                out.push('}');
            }
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write(item, out);
                }
                out.push(']');
            }
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Uint(v) => out.push_str(&v.to_string()),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Float(v) => push_f64(*v, out),
            Json::Str(s) => push_string_literal(s, out),
        }
    }
    let mut out = String::with_capacity(line.len());
    write(&Json::parse(line).expect("encoded lines parse"), &mut out);
    out
}
