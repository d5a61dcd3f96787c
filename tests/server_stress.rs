//! Concurrency stress tests of `crosslight::server`: many clients ×
//! pipelined requests against a loopback server across worker counts,
//! checked for exact equivalence with serial in-process evaluation, clean
//! drain on shutdown, and observable load shedding under a saturating mix.

use std::collections::HashMap;

use crosslight::cluster::{Router, RouterOptions};
use crosslight::core::simulator::{CrossLightSimulator, SimulationReport};
use crosslight::core::variants::CrossLightVariant;
use crosslight::neural::workload::NetworkWorkload;
use crosslight::neural::zoo::PaperModel;
use crosslight::server::loadgen::{self, Client, LoadGenOptions};
use crosslight::server::server::{Server, ServerOptions};
use crosslight::server::wire::{
    ErrorKind, EvalSpec, MetricsFormat, MetricsFrame, Request, RequestBody, ResponseBody,
};
use crosslight::telemetry::{validate_text, SeriesValue};

/// Serially evaluates the spec a response answered, for equivalence checks.
fn serial_report(spec: &EvalSpec) -> SimulationReport {
    let config = spec.config().expect("stress specs are valid");
    let workload = match &spec.workload {
        crosslight::server::wire::WorkloadRef::Model(model) => {
            NetworkWorkload::from_spec(&model.spec()).unwrap()
        }
        crosslight::server::wire::WorkloadRef::Inline(inline) => inline.clone(),
    };
    CrossLightSimulator::new(config)
        .evaluate(&workload)
        .unwrap()
}

#[test]
fn many_clients_match_serial_evaluation_across_worker_counts() {
    for workers in [1usize, 4] {
        let server = Server::bind(
            "127.0.0.1:0",
            ServerOptions::default()
                .with_workers(workers)
                .with_queue_capacity(10_000),
        )
        .expect("bind loopback server");

        let options = LoadGenOptions::paper_mix(6, 40, 0xC0FFEE + workers as u64);
        let report = loadgen::run(server.local_addr(), &options).expect("load run succeeds");
        assert_eq!(report.sent, 240);
        assert_eq!(report.ok, 240, "nothing may be shed below capacity");
        assert_eq!(report.shed, 0);
        assert!(report.errors.is_empty(), "{:?}", report.errors);

        // Multiset equivalence: every response maps back (by id) to the
        // spec that produced it, and its report equals serial evaluation
        // of that spec — bit for bit.
        let mut expected: HashMap<u64, EvalSpec> = HashMap::new();
        for client in 0..options.clients {
            for (index, spec) in options.client_specs(client).into_iter().enumerate() {
                expected.insert(options.request_id(client, index), spec);
            }
        }
        let mut serial_cache: HashMap<String, SimulationReport> = HashMap::new();
        assert_eq!(report.responses.len(), expected.len());
        for (id, response) in &report.responses {
            let spec = expected.remove(id).expect("unknown or duplicate id");
            let ResponseBody::Eval(frame) = &response.body else {
                panic!("id {id}: expected eval frame, got {response:?}");
            };
            assert_eq!(response.id, Some(*id));
            assert!(frame.worker < workers as u64);
            let key = format!("{spec:?}");
            let serial = serial_cache
                .entry(key)
                .or_insert_with(|| serial_report(&spec));
            assert_eq!(
                frame.report, *serial,
                "id {id}: wire report diverged from serial evaluation"
            );
        }
        assert!(expected.is_empty(), "unanswered ids: {expected:?}");

        // Consistency of the counters after the run.
        let stats = server.stats();
        assert_eq!(stats.server.evals_ok, 240);
        assert_eq!(stats.server.shed_total, 0);
        assert_eq!(stats.server.in_flight, 0);
        assert_eq!(stats.runtime.submitted, 240);
        assert_eq!(stats.runtime.completed, 240);
        assert!(stats.runtime.queue_depths.iter().all(|&d| d == 0));
        assert_eq!(stats.runtime.per_worker.len(), workers);

        // Shutdown must drain cleanly with no hang (the test harness
        // timeout is the watchdog) — and twice is harmless.
        server.shutdown();
    }
}

#[test]
fn pipelined_requests_drain_on_half_close_without_losing_any() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerOptions::default()
            .with_workers(2)
            .with_queue_capacity(1_000),
    )
    .expect("bind loopback server");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Pipeline a burst, never reading, then half-close the write side: the
    // server must still answer every admitted request.
    let specs: Vec<EvalSpec> = (0..50)
        .map(|i| EvalSpec::paper(CrossLightVariant::all()[i % 4], PaperModel::all()[i % 4]))
        .collect();
    for (i, spec) in specs.iter().enumerate() {
        client
            .send(&Request {
                id: i as u64,
                body: RequestBody::Eval(spec.clone()),
            })
            .unwrap();
    }
    // EOF the server's reader while everything is still in flight.
    client.shutdown_write().unwrap();

    let mut seen = std::collections::HashSet::new();
    for _ in 0..specs.len() {
        let response = client.recv().expect("every in-flight request is answered");
        let id = response.id.expect("eval responses carry ids");
        assert!(matches!(response.body, ResponseBody::Eval(_)));
        assert!(seen.insert(id));
    }
    assert_eq!(seen.len(), specs.len());
    // After the drain the server closes the connection.
    assert!(client.recv().is_err());
    server.shutdown();
}

#[test]
fn saturating_mix_sheds_with_typed_overload_and_no_hang() {
    // Capacity 1: a pipelined burst must observably shed, every request
    // must still get exactly one answer, and nothing may hang.
    let server = Server::bind(
        "127.0.0.1:0",
        ServerOptions::default()
            .with_workers(2)
            .with_queue_capacity(1),
    )
    .expect("bind loopback server");

    let options = LoadGenOptions::paper_mix(4, 64, 7);
    let report = loadgen::run(server.local_addr(), &options).expect("load run succeeds");
    assert_eq!(report.sent, 256);
    assert_eq!(
        report.ok + report.shed,
        256,
        "every request is answered exactly once: {report:?}"
    );
    assert!(report.ok > 0, "some requests must be admitted");
    assert!(
        report.shed > 0,
        "a saturating mix against capacity 1 must shed"
    );
    let stats = server.stats();
    assert_eq!(stats.server.shed_total, report.shed);
    assert_eq!(stats.server.evals_ok, report.ok);
    assert_eq!(stats.server.in_flight, 0);
    server.shutdown();
}

#[test]
fn protocol_errors_stats_and_ping_work_over_the_wire() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerOptions::default()
            .with_workers(1)
            .with_max_line_bytes(2048),
    )
    .expect("bind loopback server");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Ping.
    let pong = client
        .call(&Request {
            id: 3,
            body: RequestBody::Ping,
        })
        .unwrap();
    assert_eq!(pong.id, Some(3));
    assert!(matches!(pong.body, ResponseBody::Pong));

    // Malformed JSON keeps the connection usable and echoes the id when
    // parseable.
    client
        .send_raw("{\"v\":1,\"id\":9,\"op\":\"warp\"}")
        .unwrap();
    let err = client.recv().unwrap();
    assert_eq!(err.id, Some(9));
    assert!(matches!(
        err.body,
        ResponseBody::Error(ref frame) if frame.kind == ErrorKind::Malformed
    ));

    // Wrong version.
    client
        .send_raw("{\"v\":99,\"id\":1,\"op\":\"ping\"}")
        .unwrap();
    let err = client.recv().unwrap();
    assert!(matches!(
        err.body,
        ResponseBody::Error(ref frame) if frame.kind == ErrorKind::UnsupportedVersion
    ));

    // Oversized line: typed error, stream stays synchronized.
    let long = format!("{{\"v\":1,\"id\":1,\"op\":\"{}\"}}", "x".repeat(4096));
    client.send_raw(&long).unwrap();
    let err = client.recv().unwrap();
    assert!(matches!(
        err.body,
        ResponseBody::Error(ref frame) if frame.kind == ErrorKind::Oversized
    ));

    // Invalid architecture dimensions: typed evaluation error.
    let bad = EvalSpec::crosslight(
        CrossLightVariant::OptTed,
        (150, 20, 100, 60), // K < N is rejected
        16,
        crosslight::server::wire::WorkloadRef::Model(PaperModel::CnnCifar10),
    );
    let err = client.eval(11, &bad).unwrap();
    assert_eq!(err.id, Some(11));
    assert!(matches!(
        err.body,
        ResponseBody::Error(ref frame) if frame.kind == ErrorKind::Evaluation
    ));

    // A valid eval still works on the same connection, and stats reflect
    // everything that happened.
    let spec = EvalSpec::paper(CrossLightVariant::OptTed, PaperModel::Lenet5SignMnist);
    let ok = client.eval(12, &spec).unwrap();
    let ResponseBody::Eval(frame) = &ok.body else {
        panic!("expected eval frame, got {ok:?}");
    };
    assert_eq!(frame.report, serial_report(&spec));

    let stats_response = client.stats(13).unwrap();
    let ResponseBody::Stats(stats) = &stats_response.body else {
        panic!("expected stats frame, got {stats_response:?}");
    };
    assert_eq!(stats.server.malformed_total, 2);
    assert_eq!(stats.server.oversized_total, 1);
    assert_eq!(stats.server.evals_ok, 1);
    assert_eq!(stats.server.evals_failed, 1);
    assert_eq!(stats.server.connections_active, 1);
    assert_eq!(stats.runtime.completed, 1);

    // An inline workload evaluates identically to its by-name twin.
    let inline = EvalSpec {
        workload: crosslight::server::wire::WorkloadRef::Inline(
            NetworkWorkload::from_spec(&PaperModel::Lenet5SignMnist.spec()).unwrap(),
        ),
        ..spec
    };
    let ok_inline = client.eval(14, &inline).unwrap();
    let ResponseBody::Eval(frame_inline) = &ok_inline.body else {
        panic!("expected eval frame, got {ok_inline:?}");
    };
    assert_eq!(frame_inline.report, frame.report);
    // …and is a cache hit, because the exact-equality cache key compares
    // workloads structurally, not by provenance.
    assert!(frame_inline.cache_hit);

    server.shutdown();
}

#[test]
fn live_stats_snapshots_are_order_consistent_under_load() {
    // Counter snapshots taken *while* traffic is in flight must respect
    // causality: a request is counted as submitted before it can complete,
    // and received before any outcome counter moves.  The stats path reads
    // outcome counters first and causes last, so every live snapshot — not
    // just the quiescent final one — satisfies the invariants.
    let server = Server::bind(
        "127.0.0.1:0",
        ServerOptions::default()
            .with_workers(4)
            .with_queue_capacity(10_000),
    )
    .expect("bind loopback server");
    let addr = server.local_addr();

    let options = LoadGenOptions::paper_mix(6, 48, 0x57A75);
    let (report, polls) = std::thread::scope(|scope| {
        let load = scope.spawn(|| loadgen::run(addr, &options).expect("load run succeeds"));
        let mut polls = 0u64;
        while !load.is_finished() {
            let stats = server.stats();
            assert!(
                stats.runtime.submitted >= stats.runtime.completed,
                "live snapshot saw completed ({}) ahead of submitted ({})",
                stats.runtime.completed,
                stats.runtime.submitted
            );
            let outcomes = stats.server.evals_ok
                + stats.server.evals_failed
                + stats.server.shed_total
                + stats.server.malformed_total
                + stats.server.oversized_total;
            assert!(
                stats.server.requests_total >= outcomes,
                "live snapshot saw {} outcomes ahead of {} received requests",
                outcomes,
                stats.server.requests_total
            );
            polls += 1;
        }
        (load.join().expect("load thread panicked"), polls)
    });
    assert_eq!(report.ok, report.sent);
    assert!(polls > 0, "the poller must observe live traffic");

    let stats = server.stats();
    assert_eq!(stats.runtime.submitted, stats.runtime.completed);
    assert_eq!(stats.server.evals_ok, report.sent);
    server.shutdown();
}

#[test]
fn metrics_op_exposes_consistent_scrapes_over_the_wire() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerOptions::default()
            .with_workers(2)
            .with_queue_capacity(1_000),
    )
    .expect("bind loopback server");
    let options = LoadGenOptions::paper_mix(3, 24, 0xABBA);
    let report = loadgen::run(server.local_addr(), &options).expect("load run succeeds");
    assert_eq!(report.ok, report.sent);
    // The load generator's client-side latency histogram covers every
    // response it received.
    assert_eq!(report.latency.count(), report.sent);
    assert!(report.latency.p50() <= report.latency.p99());

    let mut client = Client::connect(server.local_addr()).expect("connect");

    // JSON scrape: one merged registry with both the server_ and runtime_
    // vocabularies, consistent with the stats op.
    let response = client.metrics(1, MetricsFormat::Json).unwrap();
    let ResponseBody::Metrics(MetricsFrame::Snapshot(scrape)) = response.body else {
        panic!("expected a metrics snapshot, got {response:?}");
    };
    for family in [
        "server_requests_total",
        "server_evals_ok_total",
        "server_phase_ns",
        "server_request_ns",
        "runtime_submitted_total",
        "runtime_completed_total",
        "runtime_evaluate_ns",
    ] {
        assert!(
            scrape.family(family).is_some(),
            "scrape is missing {family}"
        );
    }
    let stats = server.stats();
    assert_eq!(
        scrape.value("server_evals_ok_total"),
        Some(&SeriesValue::Counter(stats.server.evals_ok))
    );
    assert_eq!(
        scrape.value("runtime_workers"),
        Some(&SeriesValue::Gauge(2))
    );
    let Some(SeriesValue::Counter(submitted)) = scrape.value("runtime_submitted_total") else {
        panic!("runtime_submitted_total missing");
    };
    assert_eq!(*submitted, report.sent);

    // Text scrape: a valid exposition page with the same families.
    let response = client.metrics(2, MetricsFormat::Text).unwrap();
    let ResponseBody::Metrics(MetricsFrame::Text(page)) = &response.body else {
        panic!("expected a text page, got {response:?}");
    };
    validate_text(page).expect("exposition page validates");
    assert!(page.contains("# TYPE server_request_ns histogram"));
    assert!(page.contains("runtime_completed_total"));

    // Span export drains: a second scrape gets only what arrived since.
    let response = client.metrics(3, MetricsFormat::Spans).unwrap();
    let ResponseBody::Metrics(MetricsFrame::Spans(spans)) = &response.body else {
        panic!("expected span lines, got {response:?}");
    };
    assert!(!spans.is_empty(), "1:1 sampling must export timelines");
    assert!(spans.iter().all(|line| line.starts_with("{\"id\":")));
    let response = client.metrics(4, MetricsFormat::Spans).unwrap();
    let ResponseBody::Metrics(MetricsFrame::Spans(drained)) = &response.body else {
        panic!("expected span lines, got {response:?}");
    };
    assert!(
        drained.len() < spans.len(),
        "draining must hand each timeline to exactly one scraper"
    );

    // An unknown format is a typed error, and the connection stays usable.
    client
        .send_raw("{\"v\":1,\"id\":9,\"op\":\"metrics\",\"format\":\"xml\"}")
        .unwrap();
    let err = client.recv().unwrap();
    assert_eq!(err.id, Some(9));
    assert!(matches!(
        err.body,
        ResponseBody::Error(ref frame) if frame.kind == ErrorKind::Unsupported
    ));
    let pong = client
        .call(&Request {
            id: 10,
            body: RequestBody::Ping,
        })
        .unwrap();
    assert!(matches!(pong.body, ResponseBody::Pong));

    server.shutdown();
}

#[test]
fn mid_frame_request_disconnects_drain_cleanly_at_every_split_point() {
    use std::io::Write as _;

    let server = Server::bind("127.0.0.1:0", ServerOptions::default().with_workers(1))
        .expect("bind loopback server");
    let addr = server.local_addr();

    // Peers that die halfway through a request line — cut after the first
    // byte, mid-header, mid-spec, and one byte short of the newline — owe
    // the server nothing and must not wedge, panic, or leak a handle.
    let line = crosslight::server::wire::encode_request(&Request {
        id: 77,
        body: RequestBody::Eval(EvalSpec::paper(
            CrossLightVariant::OptTed,
            PaperModel::Lenet5SignMnist,
        )),
    });
    let cuts = [1, line.len() / 4, line.len() / 2, line.len() - 1];
    for cut in cuts {
        let mut stream = std::net::TcpStream::connect(addr).expect("raw connect");
        stream
            .write_all(&line.as_bytes()[..cut])
            .expect("write a frame fragment");
        stream.flush().expect("flush the fragment");
        drop(stream); // close with the frame incomplete: EOF mid-line
    }

    // Every fragment connection is reaped: the active gauge returns to
    // zero and all accepts are accounted for.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let stats = server.stats();
        if stats.server.connections_active == 0
            && stats.server.connections_accepted >= cuts.len() as u64
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "mid-frame disconnects were not reaped: {stats:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    // No fragment produced an answer or an eval: the partial lines died
    // in the reader without reaching the runtime.
    let stats = server.stats();
    assert_eq!(stats.server.evals_ok, 0);
    assert_eq!(stats.server.evals_failed, 0);
    assert_eq!(stats.runtime.submitted, 0);

    // The server still serves the exact request whose fragments it just
    // survived.
    let mut client = Client::connect(addr).expect("connect");
    client.send_raw(&line).expect("send the full line");
    let response = client.recv().expect("full frame is answered");
    assert_eq!(response.id, Some(77));
    assert!(matches!(response.body, ResponseBody::Eval(_)));
    server.shutdown();
}

#[test]
fn truncated_response_is_a_typed_client_error_and_reconnect_recovers() {
    use std::io::{BufRead, BufReader, Write as _};

    // A wire-shaped impostor that truncates its first response mid-line
    // and closes, then behaves on later connections — the shape of a
    // backend crashing while writing and coming back.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind impostor");
    let addr = listener.local_addr().expect("impostor addr");
    let fake = std::thread::spawn(move || {
        for (connection, stream) in listener.incoming().enumerate() {
            let stream = stream.expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = stream;
            let mut line = String::new();
            while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                let id = crosslight::server::wire::peek_id(line.trim_end());
                let full = crosslight::server::wire::encode_response(
                    &crosslight::server::wire::Response {
                        id,
                        body: ResponseBody::Pong,
                    },
                );
                if connection == 0 {
                    // Die halfway through the frame: no newline ever comes.
                    writer
                        .write_all(&full.as_bytes()[..full.len() / 2])
                        .expect("write half a response");
                    writer.flush().expect("flush the half");
                    break; // drop the socket with the frame incomplete
                }
                writer.write_all(full.as_bytes()).expect("write response");
                writer.write_all(b"\n").expect("terminate response");
                writer.flush().expect("flush response");
                line.clear();
            }
            if connection == 1 {
                break; // two connections are all this test dials
            }
        }
    });

    // The read deadline bounds the truncated read; the failure surfaces
    // as a typed io::Error, never a hang or a panic.
    let mut client = Client::connect_with(
        addr,
        crosslight::server::loadgen::ClientOptions::with_deadline(std::time::Duration::from_secs(
            5,
        )),
    )
    .expect("connect to impostor");
    client
        .send(&Request {
            id: 21,
            body: RequestBody::Ping,
        })
        .expect("send ping");
    client.flush().expect("flush ping");
    let err = client.recv().expect_err("a truncated response is an error");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::UnexpectedEof
                | std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::ConnectionAborted
        ),
        "mid-frame close must surface as a typed transport error, got {err:?}"
    );

    // One `reconnect()` later the same client object completes the call.
    client.reconnect().expect("redial the impostor");
    let pong = client
        .call(&Request {
            id: 22,
            body: RequestBody::Ping,
        })
        .expect("the fresh connection serves");
    assert_eq!(pong.id, Some(22));
    assert!(matches!(pong.body, ResponseBody::Pong));
    drop(client);
    fake.join().expect("impostor thread exits cleanly");
}

#[test]
fn shutdown_closes_idle_connections_and_new_connects_fail() {
    let server = Server::bind("127.0.0.1:0", ServerOptions::default().with_workers(1))
        .expect("bind loopback server");
    let addr = server.local_addr();
    let mut idle = Client::connect(addr).expect("connect");
    // Shutdown with an idle connected client must not hang, and the
    // client's next read must see EOF.
    server.shutdown();
    let outcome = idle.recv();
    assert!(
        outcome.is_err(),
        "idle client must see EOF, got {outcome:?}"
    );
    // The listener is gone: new connections are refused (or reset).
    assert!(Client::connect(addr).is_err());
}

/// Child half of the swarm harness (see [`drive_swarm`]): when run
/// directly (no env), this is a no-op pass.  The parent test re-executes
/// the test binary with `--exact swarm_child` and the
/// `CROSSLIGHT_SWARM_CHILD_ADDR` env set, so the connection swarm lives in
/// its own process with its own file-descriptor budget, and the parent can
/// assert the serving process's thread count in isolation.
///
/// Protocol on stdio: child prints `SWARM_CONNECTED <n>`, blocks until the
/// parent writes a `GO` line, runs one eval per connection, prints
/// `SWARM_DONE ok=<ok> errors=<errors>`, and exits.
#[test]
fn swarm_child() {
    use std::io::{BufRead as _, Write as _};

    let Ok(addr) = std::env::var("CROSSLIGHT_SWARM_CHILD_ADDR") else {
        return;
    };
    let addr: std::net::SocketAddr = addr.parse().expect("parse swarm server address");
    let conns: usize = std::env::var("CROSSLIGHT_SWARM_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);

    let mut swarm =
        crosslight::server::loadgen::connect_swarm(addr, conns, 128).expect("swarm connects");
    let mut stdout = std::io::stdout();
    writeln!(stdout, "SWARM_CONNECTED {}", swarm.connected()).expect("report connect count");
    stdout.flush().expect("flush connect report");

    let mut go = String::new();
    std::io::stdin()
        .lock()
        .read_line(&mut go)
        .expect("wait for GO");

    let spec = EvalSpec::paper(CrossLightVariant::OptTed, PaperModel::Lenet5SignMnist);
    let report = swarm.run(&spec, 1, 1_000_000);
    writeln!(
        stdout,
        "SWARM_DONE ok={} errors={}",
        report.ok, report.errors
    )
    .expect("report run outcome");
    stdout.flush().expect("flush run report");
}

/// Serializes the swarm tests: each holds thousands of sockets in this
/// process, and the descriptor budget (1024 on hosted CI runners) fits one
/// swarm at a time.
static SWARM_SLOT: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Connections per swarm: CI's reduced tier dials this down via
/// CROSSLIGHT_SWARM_CONNS; the default is the full ten thousand.
fn swarm_conns() -> usize {
    std::env::var("CROSSLIGHT_SWARM_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000)
}

/// Parent half of the swarm harness: re-executes this test binary as
/// `swarm_child` against `addr`, waits until `active` reports every
/// connection open (with a description of the serving side's state),
/// asserts this process runs fewer than 64 threads while they are, then
/// releases one eval per connection and asserts that each was answered
/// without error.
fn drive_swarm(addr: std::net::SocketAddr, conns: usize, active: impl Fn() -> (u64, String)) {
    use std::io::{BufRead as _, Write as _};

    // The swarm lives in a child process (own fd budget, own threads), so
    // the thread count read below is the serving side's alone.
    let exe = std::env::current_exe().expect("locate test binary");
    let mut child = std::process::Command::new(exe)
        .args(["swarm_child", "--exact", "--nocapture", "--test-threads=1"])
        .env("CROSSLIGHT_SWARM_CHILD_ADDR", addr.to_string())
        .env("CROSSLIGHT_SWARM_CONNS", conns.to_string())
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn swarm child");
    let mut child_out =
        std::io::BufReader::new(child.stdout.take().expect("child stdout piped")).lines();
    let mut next_report = |prefix: &str| -> String {
        loop {
            let line = child_out
                .next()
                .unwrap_or_else(|| panic!("child exited before {prefix}"))
                .expect("read child stdout");
            // libtest prints its own "test swarm_child ... " progress
            // without a newline, so the marker may land mid-line: match
            // it anywhere.
            if let Some(pos) = line.find(prefix) {
                return line[pos + prefix.len()..].trim().to_string();
            }
        }
    };

    let connected: usize = next_report("SWARM_CONNECTED ")
        .parse()
        .expect("parse connect count");
    assert_eq!(connected, conns, "every swarm connection must establish");

    // The serving side sees them all concurrently…
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let (open, state) = active();
        if open >= conns as u64 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server never saw all {conns} connections: {state}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    // …on a bounded thread budget: the reactor multiplexes, it does not
    // spawn per connection.  (Other tests may run concurrently in this
    // process; 64 is far below the ~3 × connections a thread-per-
    // connection design would need and far above what a handful of
    // fixed-pool servers use.)
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let threads: usize = status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("Threads: line present")
        .trim()
        .parse()
        .expect("parse thread count");
    assert!(
        threads < 64,
        "thread budget blown: {threads} threads while serving {conns} connections"
    );

    // Release the request phase: one eval per connection, all answered.
    child
        .stdin
        .as_mut()
        .expect("child stdin piped")
        .write_all(b"GO\n")
        .expect("start the request phase");
    let done = next_report("SWARM_DONE ");
    let (ok_part, err_part) = done.split_once(' ').expect("done line has two fields");
    let ok: u64 = ok_part
        .strip_prefix("ok=")
        .expect("ok field")
        .parse()
        .expect("parse ok count");
    let errors: u64 = err_part
        .strip_prefix("errors=")
        .expect("errors field")
        .parse()
        .expect("parse errors count");
    assert_eq!(errors, 0, "no request of the swarm may fail");
    assert_eq!(ok, conns as u64, "every connection gets its answer");
    let status = child.wait().expect("reap swarm child");
    assert!(status.success(), "swarm child failed: {status:?}");
}

#[test]
fn ten_thousand_connections_on_a_bounded_thread_budget() {
    let _slot = SWARM_SLOT
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let conns = swarm_conns();

    let server = Server::bind(
        "127.0.0.1:0",
        ServerOptions::default()
            .with_workers(2)
            .with_event_loops(2)
            .with_queue_capacity(conns.max(64))
            .with_trace_sampling(64),
    )
    .expect("bind loopback server");
    drive_swarm(server.local_addr(), conns, || {
        let stats = server.stats();
        (stats.server.connections_active, format!("{stats:?}"))
    });

    // After the swarm disconnects, everything is reclaimed: the active
    // gauge and the write-queue depth gauge both return to zero — the
    // regression this PR's gauge-leak fix is guarding.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let stats = server.stats();
        let depth = server
            .metrics_snapshot()
            .value("server_write_queue_depth")
            .cloned();
        if stats.server.connections_active == 0 && depth == Some(SeriesValue::Gauge(0)) {
            assert_eq!(stats.server.evals_ok, conns as u64);
            assert_eq!(stats.server.shed_total, 0);
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "teardown leaked accounting: {stats:?}, write queue depth {depth:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    server.shutdown();
}

#[test]
fn ten_thousand_router_clients_on_a_bounded_thread_budget() {
    let _slot = SWARM_SLOT
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let conns = swarm_conns();

    let backend = Server::bind(
        "127.0.0.1:0",
        ServerOptions::default()
            .with_workers(2)
            .with_event_loops(1)
            .with_trace_sampling(64),
    )
    .expect("bind loopback backend");
    // Room for the whole swarm in the backend's dispatch queue, so every
    // eval routes on its first try.
    let router = Router::bind(
        "127.0.0.1:0",
        &[backend.local_addr()],
        RouterOptions {
            queue_capacity: conns.max(256),
            ..RouterOptions::default()
        },
    )
    .expect("bind router");
    let gauge = |name: &str| match router.metrics_snapshot().value(name) {
        Some(SeriesValue::Gauge(value)) => *value,
        other => panic!("{name} is not a gauge: {other:?}"),
    };
    drive_swarm(router.local_addr(), conns, || {
        let active = gauge("cluster_connections_active");
        (active.max(0) as u64, format!("{active} active"))
    });

    // Every client was answered and every connection reclaimed: the active
    // gauge and the router's write-queue gauge both return to zero.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let (active, depth) = (
            gauge("cluster_connections_active"),
            gauge("cluster_write_queue_depth"),
        );
        if active == 0 && depth == 0 {
            let stats = router.stats();
            assert_eq!(stats.evals_ok, conns as u64);
            assert_eq!(stats.shed_total, 0);
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "router teardown leaked accounting: {active} active, write queue depth {depth}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    router.shutdown();
    backend.shutdown();
}

#[test]
fn pipelined_and_one_at_a_time_evals_are_byte_identical() {
    use std::io::{BufRead as _, BufReader, Write as _};

    // The same 48-eval block, pipelined in one write to one fresh server
    // and sent one request at a time to another, must produce
    // byte-for-byte the same response lines (as a multiset — completion
    // order may differ): how the event loop's wakes cut the stream into
    // pool batches is scheduling, never semantics.
    let specs: Vec<EvalSpec> = (0..48)
        .map(|i| EvalSpec::paper(CrossLightVariant::all()[i % 4], PaperModel::all()[i % 4]))
        .collect();
    let lines: Vec<String> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let mut line = crosslight::server::wire::encode_request(&Request {
                id: i as u64,
                body: RequestBody::Eval(spec.clone()),
            });
            line.push('\n');
            line
        })
        .collect();

    let mut transcripts: Vec<Vec<String>> = Vec::new();
    for pipelined in [true, false] {
        let server = Server::bind(
            "127.0.0.1:0",
            ServerOptions::default()
                .with_workers(2)
                .with_queue_capacity(1_000),
        )
        .expect("bind loopback server");
        let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect raw");
        let mut reader = BufReader::new(stream.try_clone().expect("clone the stream"));
        let mut read_response = || {
            let mut response = String::new();
            let n = reader.read_line(&mut response).expect("read response line");
            assert!(n > 0, "server closed before answering every request");
            response
        };
        let mut transcript = Vec::with_capacity(lines.len());
        if pipelined {
            stream
                .write_all(lines.concat().as_bytes())
                .expect("pipeline the block");
            transcript.extend((0..lines.len()).map(|_| read_response()));
        } else {
            for line in &lines {
                stream.write_all(line.as_bytes()).expect("send one request");
                transcript.push(read_response());
            }
        }
        transcript.sort();
        transcripts.push(transcript);
        server.shutdown();
    }
    assert_eq!(
        transcripts[0], transcripts[1],
        "pipelining changed response bytes"
    );
}

#[test]
fn snapshot_transfers_honor_the_smaller_peer_line_budget() {
    // A server with a large line budget talking to a client with a small
    // one: the client advertises `max_chunk_bytes` and the server sizes
    // chunks under the *smaller* limit — same entries, more chunks.
    let server = Server::bind(
        "127.0.0.1:0",
        ServerOptions::default()
            .with_workers(1)
            .with_max_line_bytes(256 * 1024),
    )
    .expect("bind loopback server");
    let addr = server.local_addr();

    // Warm the caches so there is something to transfer.
    let mut warm = Client::connect(addr).expect("connect");
    for (i, spec) in (0..4)
        .map(|i| EvalSpec::paper(CrossLightVariant::all()[i], PaperModel::all()[i]))
        .enumerate()
    {
        let response = warm.eval(i as u64, &spec).expect("warm eval");
        assert!(matches!(response.body, ResponseBody::Eval(_)));
    }

    // One transfer per dedicated connection, as the client docs require.
    let chunks_of = |max_chunk_bytes: Option<u64>| -> (usize, Vec<String>) {
        use std::io::{BufRead as _, BufReader, Write as _};
        let mut stream = std::net::TcpStream::connect(addr).expect("connect raw");
        let line = crosslight::server::wire::encode_request(&Request {
            id: 7,
            body: RequestBody::Snapshot { max_chunk_bytes },
        });
        stream.write_all(line.as_bytes()).expect("send snapshot op");
        stream.write_all(b"\n").expect("terminate snapshot op");
        let mut reader = BufReader::new(stream);
        let mut chunks = 0usize;
        let mut entries = Vec::new();
        loop {
            let mut raw = String::new();
            assert!(
                reader.read_line(&mut raw).expect("read snapshot frame") > 0,
                "stream ended before snapshot_end"
            );
            let response =
                crosslight::server::wire::decode_response(raw.trim_end()).expect("decode frame");
            match response.body {
                ResponseBody::Snapshot(chunk) => {
                    // A single unsplittable entry may exceed the budget
                    // (it ships alone); any multi-entry chunk must fit.
                    if let Some(limit) = max_chunk_bytes {
                        assert!(
                            raw.len() as u64 <= limit || chunk.entries.len() == 1,
                            "multi-entry frame of {} bytes exceeds the \
                             advertised {limit}-byte budget",
                            raw.len()
                        );
                    }
                    assert_eq!(chunk.seq, chunks as u64, "chunks arrive in sequence");
                    chunks += 1;
                    entries.extend(chunk.entries.into_iter().map(|e| format!("{e:?}")));
                }
                ResponseBody::SnapshotEnd(end) => {
                    assert_eq!(end.entries as usize, entries.len());
                    break;
                }
                other => panic!("unexpected frame in snapshot stream: {other:?}"),
            }
        }
        entries.sort();
        (chunks, entries)
    };

    let (full_chunks, full_entries) = chunks_of(None);
    let (limited_chunks, limited_entries) = chunks_of(Some(4096));
    assert!(!full_entries.is_empty(), "warm caches must export entries");
    assert_eq!(
        limited_entries, full_entries,
        "the peer budget must never change *what* is transferred"
    );
    assert!(
        limited_chunks >= full_chunks,
        "a smaller budget cannot use fewer chunks ({limited_chunks} < {full_chunks})"
    );
    assert!(
        limited_chunks > 1,
        "a 4 KiB budget must split this transfer ({limited_chunks} chunk)"
    );

    // The typed client helper sees the same entries through its own
    // advertised budget.
    let mut typed = Client::connect(addr).expect("connect typed");
    let mut typed_entries: Vec<String> = typed
        .snapshot_entries_limited(9, Some(4096))
        .expect("typed limited transfer")
        .into_iter()
        .map(|e| format!("{e:?}"))
        .collect();
    typed_entries.sort();
    assert_eq!(typed_entries, full_entries);
    server.shutdown();
}
