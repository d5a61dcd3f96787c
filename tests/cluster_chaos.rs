//! Chaos acceptance suite for the fault-tolerant cluster tier.
//!
//! Every test routes real wire traffic through a loopback [`Router`] over
//! in-process backend [`Server`]s and holds the cluster to the same
//! transparency bar as every other serving layer in this workspace:
//! reports are **bit-identical** to one in-process [`EvalService`] — the
//! canonical re-encoding of each report must match byte for byte — no
//! matter which backends die, stall, or garble mid-sweep.  The multiset
//! comparison (sorted canonical lines) absorbs the reordering failover
//! legitimately introduces.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crosslight::cluster::{
    CircuitState, FaultAction, FaultPlan, FaultPoint, FaultRule, RetryPolicy, Router, RouterOptions,
};
use crosslight::experiments::arch_zoo;
use crosslight::neural::workload::NetworkWorkload;
use crosslight::neural::zoo::PaperModel;
use crosslight::runtime::pool::{EvalService, RuntimeOptions, RuntimeStats};
use crosslight::server::loadgen::{Client, ClientOptions};
use crosslight::server::server::{Server, ServerOptions};
use crosslight::server::wire::{
    self, ArchRequest, ErrorKind, EvalFrame, EvalSpec, MetricsFormat, MetricsFrame, Request,
    RequestBody, Response, ResponseBody, StatsFrame, WireServerStats, WorkloadRef,
};
use crosslight::telemetry::{Registry, RegistrySnapshot};

fn workload_table() -> [Arc<NetworkWorkload>; 4] {
    PaperModel::all().map(|model| {
        Arc::new(NetworkWorkload::from_spec(&model.spec()).expect("Table I workloads are valid"))
    })
}

/// A deterministic mixed arch-zoo sweep: the union grid's architectures
/// cycled across the Table I models until `len` specs exist.
fn mixed_sweep(len: usize) -> Vec<EvalSpec> {
    let candidates = arch_zoo::union_candidates();
    let mut specs = Vec::with_capacity(len);
    'fill: loop {
        for candidate in &candidates {
            let arch = ArchRequest::for_spec(candidate).expect("union grid uses named variants");
            for model in PaperModel::all() {
                specs.push(EvalSpec::for_arch(arch.clone(), WorkloadRef::Model(model)));
                if specs.len() == len {
                    break 'fill;
                }
            }
        }
    }
    specs
}

/// The canonical byte encoding of an answered eval, with the serving
/// metadata (cache hit, worker index) normalized away: those legitimately
/// differ between one service and a cluster, the report must not.
fn canonical_line(id: u64, report: crosslight::core::simulator::SimulationReport) -> String {
    wire::encode_response(&Response {
        id: Some(id),
        body: ResponseBody::Eval(EvalFrame {
            report,
            cache_hit: false,
            worker: 0,
        }),
    })
}

/// Reference answers from one in-process `EvalService`, ids = indices.
fn reference_lines(specs: &[EvalSpec]) -> Vec<String> {
    let table = workload_table();
    let service = EvalService::new(RuntimeOptions::default().with_workers(4));
    let requests = specs
        .iter()
        .enumerate()
        .map(|(id, spec)| {
            spec.to_eval_request(id as u64, &table)
                .expect("sweep specs are valid")
        })
        .collect();
    let responses = service
        .submit_batch(requests)
        .expect("reference batch evaluates");
    responses
        .into_iter()
        .enumerate()
        .map(|(id, response)| canonical_line(id as u64, response.report))
        .collect()
}

/// Pipelines the sweep through one client connection and returns the
/// canonicalized answers in arrival order; panics on any non-eval answer.
fn cluster_lines(client: &mut Client, specs: &[EvalSpec]) -> Vec<String> {
    send_evals(client, specs);
    (0..specs.len()).map(|_| recv_eval(client)).collect()
}

/// Pipelines the sweep under ids `0..` without reading an answer.
fn send_evals(client: &mut Client, specs: &[EvalSpec]) {
    for (id, spec) in specs.iter().enumerate() {
        client
            .send(&Request {
                id: id as u64,
                body: RequestBody::Eval(spec.clone()),
            })
            .expect("pipelined send");
    }
    client.flush().expect("pipelined flush");
}

fn recv_eval(client: &mut Client) -> String {
    let response = client.recv().expect("every accepted request is answered");
    let id = response.id.expect("eval answers carry the request id");
    match response.body {
        ResponseBody::Eval(frame) => canonical_line(id, frame.report),
        other => panic!("id {id}: expected a report, got {other:?}"),
    }
}

fn sorted(mut lines: Vec<String>) -> Vec<String> {
    lines.sort_unstable();
    lines
}

fn bind_backend() -> Server {
    Server::bind(
        "127.0.0.1:0",
        ServerOptions::default()
            .with_workers(2)
            .with_trace_sampling(0),
    )
    .expect("bind a loopback backend")
}

fn chaos_options() -> RouterOptions {
    RouterOptions::default()
        .with_health(
            Duration::from_millis(20),
            Duration::from_millis(250),
            Duration::from_millis(100),
        )
        .with_failure_threshold(2)
        .with_retry(RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(50),
            jitter_seed: 0xC1A05,
        })
        .with_retry_budget(1_000)
        .with_request_deadline(Duration::from_secs(30))
}

/// Sums one counter family (over all label sets) out of a metrics scrape.
fn family_total(snapshot: &RegistrySnapshot, name: &str) -> u64 {
    labelled_total(snapshot, name, &[])
}

/// Sums the series of one family that carry every given label pair.
fn labelled_total(snapshot: &RegistrySnapshot, name: &str, labels: &[(&str, &str)]) -> u64 {
    use crosslight::telemetry::SeriesValue;
    snapshot
        .families
        .iter()
        .filter(|family| family.name == name)
        .flat_map(|family| &family.series)
        .filter(|series| {
            labels
                .iter()
                .all(|&(key, value)| series.labels.iter().any(|(k, v)| k == key && v == value))
        })
        .map(|series| match series.value {
            SeriesValue::Counter(value) => value,
            SeriesValue::Gauge(value) => value.max(0) as u64,
            SeriesValue::Histogram(ref h) => h.count(),
        })
        .sum()
}

/// One direct metrics scrape of a backend server (not through the router).
fn backend_scrape(addr: SocketAddr) -> RegistrySnapshot {
    let mut client =
        Client::connect_with(addr, ClientOptions::with_deadline(Duration::from_secs(10)))
            .expect("connect to backend for scrape");
    let response = client.metrics(0, MetricsFormat::Json).expect("metrics op");
    match response.body {
        ResponseBody::Metrics(MetricsFrame::Snapshot(snapshot)) => snapshot,
        other => panic!("expected a metrics snapshot, got {other:?}"),
    }
}

fn wait_for(what: &str, deadline: Duration, mut done: impl FnMut() -> bool) {
    let start = Instant::now();
    while !done() {
        assert!(
            start.elapsed() < deadline,
            "timed out after {deadline:?} waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Waits until nothing is left in flight: every series of the router's
/// backlog, in-flight and write-queue gauges, and of each live backend's
/// admission and write-queue gauges, reads exactly zero, and the router
/// counts `open_clients` connections.  It reads the raw gauge values, so
/// a gauge leaked below zero cannot pass for zero.
fn quiesce<'a>(
    router: &Router,
    backends: impl IntoIterator<Item = &'a Server> + Clone,
    open_clients: i64,
) {
    use crosslight::telemetry::SeriesValue;

    let settled = |scrape: RegistrySnapshot, gauges: &[(&str, i64)]| {
        gauges.iter().all(|&(name, expected)| {
            let family = scrape
                .family(name)
                .unwrap_or_else(|| panic!("the scrape has no {name} family"));
            (family.series.iter()).all(|series| series.value == SeriesValue::Gauge(expected))
        })
    };
    let router_gauges = [
        ("cluster_queue_depth", 0),
        ("cluster_backend_in_flight", 0),
        ("cluster_write_queue_depth", 0),
        ("cluster_connections_active", open_clients),
    ];
    let backend_gauges = [
        ("server_admission_in_flight", 0),
        ("server_write_queue_depth", 0),
    ];
    wait_for("every gauge to settle", Duration::from_secs(10), || {
        settled(router.metrics_snapshot(), &router_gauges)
            && (backends.clone().into_iter())
                .all(|backend| settled(backend.metrics_snapshot(), &backend_gauges))
    });
}

/// `n` addresses that refuse every dial for as long as the returned
/// listeners live.  Each listener holds a port `P` on `127.0.0.1`, and the
/// address handed out is `127.0.0.2:P`, where nothing listens.  A dropped
/// listener's port could be handed to another test's listener; a held one
/// cannot, and no code binds a wildcard address that would cover
/// `127.0.0.2:P`.
fn refusing_addrs(n: usize) -> (Vec<TcpListener>, Vec<SocketAddr>) {
    let holders: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve a port"))
        .collect();
    let addrs = holders
        .iter()
        .map(|holder| {
            let port = holder.local_addr().expect("reserved port").port();
            SocketAddr::from(([127, 0, 0, 2], port))
        })
        .collect();
    (holders, addrs)
}

/// One `stats` answer read over the wire from `addr`.
fn stats_over_wire(addr: SocketAddr) -> StatsFrame {
    let mut client =
        Client::connect_with(addr, ClientOptions::with_deadline(Duration::from_secs(10)))
            .expect("connect for a stats read");
    match client.stats(0).expect("stats op").body {
        ResponseBody::Stats(frame) => frame,
        other => panic!("expected a stats answer, got {other:?}"),
    }
}

#[test]
fn router_stats_are_the_field_wise_sum_of_its_backends() {
    let backends: Vec<Server> = [1, 2]
        .into_iter()
        .map(|workers| {
            Server::bind(
                "127.0.0.1:0",
                ServerOptions::default()
                    .with_workers(workers)
                    .with_trace_sampling(0),
            )
            .expect("bind a loopback backend")
        })
        .collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(Server::local_addr).collect();
    let router = Router::bind("127.0.0.1:0", &addrs, RouterOptions::default()).expect("bind");

    let specs = mixed_sweep(32);
    let mut client = Client::connect_with(
        router.local_addr(),
        ClientOptions::with_deadline(Duration::from_secs(60)),
    )
    .expect("connect to router");
    // Returns once every eval is answered.  An answer can reach the client
    // just before its backend releases the admission permit, hence the wait.
    cluster_lines(&mut client, &specs);
    wait_for("both backends to settle", Duration::from_secs(10), || {
        backends.iter().all(|b| b.stats().server.in_flight == 0)
    });

    let routed = stats_over_wire(router.local_addr());
    let parts: Vec<StatsFrame> = addrs.iter().map(|&addr| stats_over_wire(addr)).collect();
    let server = |field: fn(&WireServerStats) -> u64| -> u64 {
        parts.iter().map(|part| field(&part.server)).sum()
    };
    let runtime = |field: fn(&RuntimeStats) -> u64| -> u64 {
        parts.iter().map(|part| field(&part.runtime)).sum()
    };
    let expected = StatsFrame {
        server: WireServerStats {
            // Each of our reads adds one connection to its backend; the
            // router read over its links, which hold one connection each.
            connections_accepted: server(|s| s.connections_accepted) - parts.len() as u64,
            connections_active: server(|s| s.connections_active) - parts.len() as u64,
            // The links' pings move it between the router's read and ours.
            requests_total: routed.server.requests_total,
            evals_ok: server(|s| s.evals_ok),
            evals_failed: server(|s| s.evals_failed),
            shed_total: server(|s| s.shed_total),
            malformed_total: server(|s| s.malformed_total),
            oversized_total: server(|s| s.oversized_total),
            queue_capacity: server(|s| s.queue_capacity),
            in_flight: server(|s| s.in_flight),
        },
        runtime: RuntimeStats {
            submitted: runtime(|r| r.submitted),
            completed: runtime(|r| r.completed),
            cache_hits: runtime(|r| r.cache_hits),
            cache_misses: runtime(|r| r.cache_misses),
            cached_entries: parts.iter().map(|p| p.runtime.cached_entries).sum(),
            prepared_configs: parts.iter().map(|p| p.runtime.prepared_configs).sum(),
            per_worker: parts
                .iter()
                .flat_map(|p| p.runtime.per_worker.iter().copied())
                .collect(),
            queue_depths: parts
                .iter()
                .flat_map(|p| p.runtime.queue_depths.iter().copied())
                .collect(),
        },
    };
    assert_eq!(routed, expected);
    assert_eq!(routed.server.evals_ok, 32);
    assert_eq!(routed.runtime.per_worker.len(), 3);

    quiesce(&router, &backends, 1);
    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

#[test]
fn three_backend_cluster_is_bit_identical_to_one_eval_service() {
    let backends = [bind_backend(), bind_backend(), bind_backend()];
    let addrs: Vec<SocketAddr> = backends.iter().map(Server::local_addr).collect();
    let router = Router::bind("127.0.0.1:0", &addrs, chaos_options()).expect("bind router");

    let specs = mixed_sweep(96);
    let mut client = Client::connect_with(
        router.local_addr(),
        ClientOptions::with_deadline(Duration::from_secs(60)),
    )
    .expect("connect to router");
    let served = cluster_lines(&mut client, &specs);
    assert_eq!(sorted(served), sorted(reference_lines(&specs)));

    let stats = router.stats();
    assert_eq!(stats.evals_routed, 96);
    assert_eq!(stats.evals_ok, 96);
    assert_eq!(stats.evals_failed, 0);
    assert_eq!(stats.shed_total, 0);

    // The healthy path also exposes its telemetry vocabulary.
    let scrape = router.metrics_snapshot();
    assert_eq!(family_total(&scrape, "cluster_evals_ok_total"), 96);
    assert!(family_total(&scrape, "cluster_forwarded_total") >= 96);
    // A link pings only once it has been quiet for an interval, so the
    // first ping follows the sweep.
    wait_for("the first health probe", Duration::from_secs(10), || {
        let scrape = router.metrics_snapshot();
        family_total(&scrape, "cluster_health_probes_total") > 0
    });

    quiesce(&router, &backends, 1);
    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

#[test]
fn killing_a_backend_mid_sweep_loses_zero_accepted_requests() {
    // Backend 1's link dies on its fifth line, with no drain to race: the
    // death books one transport failure, and the job it names is retried,
    // which counts one failover.
    let faults = FaultPlan::new(vec![FaultRule::once(
        FaultPoint::BackendSend,
        Some(1),
        4,
        FaultAction::Kill,
    )]);
    let mut backends: Vec<Option<Server>> = (0..3).map(|_| Some(bind_backend())).collect();
    let addrs: Vec<SocketAddr> = backends
        .iter()
        .map(|backend| backend.as_ref().unwrap().local_addr())
        .collect();
    // A long cooldown keeps the killed backend from rejoining mid-test.
    let options = chaos_options()
        .with_health(
            Duration::from_millis(20),
            Duration::from_millis(250),
            Duration::from_secs(600),
        )
        .with_faults(Arc::clone(&faults));
    let router = Router::bind("127.0.0.1:0", &addrs, options).expect("bind router");

    let specs = mixed_sweep(120);
    let mut client = Client::connect_with(
        router.local_addr(),
        ClientOptions::with_deadline(Duration::from_secs(60)),
    )
    .expect("connect to router");
    for (id, spec) in specs.iter().enumerate() {
        client
            .send(&Request {
                id: id as u64,
                body: RequestBody::Eval(spec.clone()),
            })
            .expect("pipelined send");
    }
    client.flush().expect("pipelined flush");

    // Once the link kill has fired, take backend 1 down for good while the
    // sweep is still in flight.
    wait_for("the link kill", Duration::from_secs(10), || {
        faults.injected() >= 1
    });
    backends[1].take().unwrap().shutdown();
    let served: Vec<String> = (0..specs.len()).map(|_| recv_eval(&mut client)).collect();

    // Zero lost, zero shed, bit-identical — and the failover machinery
    // demonstrably did the saving.
    assert_eq!(sorted(served), sorted(reference_lines(&specs)));
    let stats = router.stats();
    assert_eq!(stats.evals_ok, 120);
    assert_eq!(stats.shed_total, 0);
    assert!(
        stats.failovers >= 1,
        "the kill must force at least one re-route, got {stats:?}"
    );
    let scrape = router.metrics_snapshot();
    assert!(
        family_total(&scrape, "cluster_backend_failures_total") >= 1,
        "transport faults against the killed backend must be counted"
    );

    quiesce(&router, backends.iter().flatten(), 1);
    router.shutdown();
    for backend in backends.into_iter().flatten() {
        backend.shutdown();
    }
}

#[test]
fn restarted_backend_is_readmitted_through_half_open_probing() {
    let healthy = bind_backend();
    let doomed = bind_backend();
    let addrs = vec![healthy.local_addr(), doomed.local_addr()];
    let router = Router::bind("127.0.0.1:0", &addrs, chaos_options().with_replication(2))
        .expect("bind router");

    doomed.shutdown();
    // The link reads the close, and its next ping's refused dial trips the
    // breaker.
    wait_for("the breaker to open", Duration::from_secs(10), || {
        router.stats().backend_states[1] == CircuitState::Open
    });

    // One live replica still serves the whole keyspace.
    let specs = mixed_sweep(16);
    let mut client = Client::connect_with(
        router.local_addr(),
        ClientOptions::with_deadline(Duration::from_secs(60)),
    )
    .expect("connect to router");
    assert_eq!(
        sorted(cluster_lines(&mut client, &specs)),
        sorted(reference_lines(&specs))
    );

    // Restart on a fresh ephemeral port: same routing identity, new addr.
    let reborn = bind_backend();
    router.update_backend_addr(1, reborn.local_addr());
    wait_for("readmission via half-open", Duration::from_secs(10), || {
        let stats = router.stats();
        stats.backend_states[1] == CircuitState::Closed && stats.readmitted[1] >= 1
    });
    let scrape = router.metrics_snapshot();
    assert!(family_total(&scrape, "cluster_backend_readmitted_total") >= 1);

    // The readmitted backend carries real traffic again: replication 2
    // puts it back in every shard's replica set, and the sweep stays
    // bit-identical.  It rejoined cold, so what it answers it recomputes.
    let before = family_total(&router.metrics_snapshot(), "cluster_forwarded_total");
    let specs = mixed_sweep(32);
    assert_eq!(
        sorted(cluster_lines(&mut client, &specs)),
        sorted(reference_lines(&specs))
    );
    let after = family_total(&router.metrics_snapshot(), "cluster_forwarded_total");
    assert!(after >= before + 32);
    assert!(
        family_total(
            &backend_scrape(reborn.local_addr()),
            "server_evals_ok_total"
        ) >= 1,
        "the readmitted backend must answer part of the sweep"
    );

    quiesce(&router, [&healthy, &reborn], 1);
    router.shutdown();
    healthy.shutdown();
    reborn.shutdown();
}

/// [`chaos_options`] with a ping timeout no starved test thread reaches,
/// so every link death an idle-router test sees is one it caused.
fn idle_options() -> RouterOptions {
    chaos_options().with_health(
        Duration::from_millis(20),
        Duration::from_secs(10),
        Duration::from_millis(100),
    )
}

/// One backend's `cluster_health_probes_total` series for `outcome`.
fn probes(scrape: &RegistrySnapshot, backend: &str, outcome: &str) -> u64 {
    labelled_total(
        scrape,
        "cluster_health_probes_total",
        &[("backend", backend), ("outcome", outcome)],
    )
}

#[test]
fn health_probe_faults_fail_pings_through_the_link_like_any_link_death() {
    // Backend 0's first two pings are killed, which trips its breaker
    // (threshold 2); backend 1's first ping is garbled, one failure short
    // of tripping.
    let faults = FaultPlan::new(vec![
        FaultRule::once(FaultPoint::HealthProbe, Some(0), 0, FaultAction::Kill),
        FaultRule::once(FaultPoint::HealthProbe, Some(0), 1, FaultAction::Kill),
        FaultRule::once(FaultPoint::HealthProbe, Some(1), 0, FaultAction::Garble),
    ]);
    let backends = [bind_backend(), bind_backend()];
    let addrs: Vec<SocketAddr> = backends.iter().map(Server::local_addr).collect();
    let router = Router::bind(
        "127.0.0.1:0",
        &addrs,
        idle_options().with_faults(Arc::clone(&faults)),
    )
    .expect("bind router");

    wait_for(
        "backend 0's breaker to open",
        Duration::from_secs(10),
        || router.stats().backend_states[0] == CircuitState::Open,
    );
    let scrape = router.metrics_snapshot();
    assert_eq!(probes(&scrape, "0", "failed"), 2);
    let backend_0 = [("backend", "0")];
    assert_eq!(
        labelled_total(&scrape, "cluster_backend_failures_total", &backend_0),
        2
    );
    assert_eq!(
        labelled_total(&scrape, "cluster_circuit_opened_total", &backend_0),
        1
    );
    assert_eq!(
        labelled_total(
            &scrape,
            "cluster_link_resets_total",
            &[("backend", "0"), ("reason", "error")]
        ),
        2
    );

    // The rules are spent, so the half-open trial's pong readmits it.
    wait_for("backend 0's readmission", Duration::from_secs(10), || {
        let stats = router.stats();
        stats.backend_states[0] == CircuitState::Closed && stats.readmitted[0] == 1
    });
    wait_for("backend 1's garbled ping", Duration::from_secs(10), || {
        let scrape = router.metrics_snapshot();
        labelled_total(
            &scrape,
            "cluster_link_resets_total",
            &[("backend", "1"), ("reason", "garbled")],
        ) == 1
    });
    let scrape = router.metrics_snapshot();
    assert_eq!(probes(&scrape, "0", "failed"), 2);
    assert_eq!(probes(&scrape, "1", "failed"), 1);
    assert_eq!(
        labelled_total(
            &scrape,
            "cluster_backend_failures_total",
            &[("backend", "1")]
        ),
        1
    );
    assert_eq!(family_total(&scrape, "cluster_link_resets_total"), 3);
    assert_eq!(router.stats().backend_states[1], CircuitState::Closed);
    assert_eq!(faults.injected(), 3);
    // Both links go on pinging.
    let ok: Vec<u64> = ["0", "1"].map(|b| probes(&scrape, b, "ok")).to_vec();
    wait_for("more pongs on both links", Duration::from_secs(10), || {
        let scrape = router.metrics_snapshot();
        ["0", "1"]
            .iter()
            .zip(&ok)
            .all(|(b, &before)| probes(&scrape, b, "ok") > before)
    });

    quiesce(&router, &backends, 0);
    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

#[test]
fn an_idle_router_holds_one_connection_per_backend_and_dials_no_other() {
    let backends = [bind_backend(), bind_backend()];
    let addrs: Vec<SocketAddr> = backends.iter().map(Server::local_addr).collect();
    let options = idle_options();
    let interval = options.health_interval;
    let router = Router::bind("127.0.0.1:0", &addrs, options).expect("bind router");

    // Each link dials once, for its first ping.
    wait_for("each link's first dial", Duration::from_secs(10), || {
        backends
            .iter()
            .all(|b| b.stats().server.connections_accepted == 1)
    });
    let pongs = || family_total(&router.metrics_snapshot(), "cluster_health_probes_total");
    let before = pongs();
    let watched = Instant::now();
    while watched.elapsed() < 25 * interval {
        for (index, backend) in backends.iter().enumerate() {
            let server = backend.stats().server;
            assert_eq!(
                (server.connections_accepted, server.connections_active),
                (1, 1),
                "backend {index} after {:?}",
                watched.elapsed()
            );
        }
        std::thread::sleep(interval / 2);
    }
    // Every ping went over those two connections.
    assert!(pongs() >= before + 5, "the links must keep pinging");
    let scrape = router.metrics_snapshot();
    assert_eq!(
        probes(&scrape, "0", "failed") + probes(&scrape, "1", "failed"),
        0
    );

    // Scraping the router every half-interval rides the same two
    // connections: no scrape dials a backend.
    let mut client = router_client(&router);
    let watched = Instant::now();
    while watched.elapsed() < 25 * interval {
        let stats = client.stats(1).expect("stats answered");
        assert!(matches!(stats.body, ResponseBody::Stats(_)), "{stats:?}");
        let metrics = client
            .metrics(2, MetricsFormat::Json)
            .expect("metrics answered");
        assert!(
            matches!(
                metrics.body,
                ResponseBody::Metrics(MetricsFrame::Snapshot(ref page))
                    if page.family("server_requests_total").is_some()
            ),
            "{metrics:?}"
        );
        for (index, backend) in backends.iter().enumerate() {
            let server = backend.stats().server;
            assert_eq!(
                (server.connections_accepted, server.connections_active),
                (1, 1),
                "backend {index} after {:?} of scraping",
                watched.elapsed()
            );
        }
        std::thread::sleep(interval / 2);
    }
    let scrape = router.metrics_snapshot();
    assert_eq!(family_total(&scrape, "cluster_link_resets_total"), 0);

    drop(client);
    quiesce(&router, &backends, 0);
    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

#[test]
fn all_backends_down_degrades_to_bounded_retryable_unavailable() {
    let (_reserved, addrs) = refusing_addrs(3);
    let options = chaos_options()
        .with_request_deadline(Duration::from_secs(2))
        .with_retry(RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(50),
            jitter_seed: 0xC1A05,
        });
    let router = Router::bind("127.0.0.1:0", &addrs, options).expect("bind router");

    let mut client = Client::connect_with(
        router.local_addr(),
        ClientOptions::with_deadline(Duration::from_secs(30)),
    )
    .expect("connect to router");

    // Health ops keep working with zero live backends.
    let pong = client
        .call(&Request {
            id: 9,
            body: RequestBody::Ping,
        })
        .expect("ping is answered locally");
    assert!(matches!(pong.body, ResponseBody::Pong));

    // An eval is answered — with the explicit retryable shed, within the
    // deadline, never a hang.
    let spec = &mixed_sweep(1)[0];
    let start = Instant::now();
    let response = client
        .eval(7, spec)
        .expect("the shed is an answer, not a hang");
    let elapsed = start.elapsed();
    let ResponseBody::Error(frame) = response.body else {
        panic!("expected a shed, got {response:?}");
    };
    assert_eq!(frame.kind, ErrorKind::Unavailable);
    assert!(frame.kind.retryable(), "unavailable must invite a retry");
    assert!(
        elapsed < Duration::from_secs(10),
        "the shed must arrive promptly, took {elapsed:?}"
    );

    // Stats aggregation degrades the same way.
    let stats_response = client.stats(8).expect("stats op is answered");
    assert!(matches!(
        stats_response.body,
        ResponseBody::Error(ref frame) if frame.kind == ErrorKind::Unavailable
    ));

    let stats = router.stats();
    assert!(
        stats.shed_total >= 1,
        "the shed must be observable: {stats:?}"
    );
    quiesce(&router, [], 1);
    router.shutdown();
}

#[test]
fn seeded_fault_plan_chaos_sweep_stays_bit_identical() {
    let faults = FaultPlan::new(vec![
        FaultRule::periodic_seeded(
            FaultPoint::BackendSend,
            None,
            13,
            0xC1A05,
            FaultAction::Kill,
        ),
        FaultRule::periodic_seeded(
            FaultPoint::BackendRecv,
            None,
            11,
            0xC1A05,
            FaultAction::Garble,
        ),
        FaultRule::periodic_seeded(
            FaultPoint::BackendSend,
            Some(2),
            17,
            0xC1A05,
            FaultAction::Slow(1),
        ),
    ]);
    let backends = [bind_backend(), bind_backend(), bind_backend()];
    let addrs: Vec<SocketAddr> = backends.iter().map(Server::local_addr).collect();
    let router = Router::bind(
        "127.0.0.1:0",
        &addrs,
        chaos_options().with_faults(Arc::clone(&faults)),
    )
    .expect("bind router");

    let specs = mixed_sweep(96);
    let mut client = Client::connect_with(
        router.local_addr(),
        ClientOptions::with_deadline(Duration::from_secs(60)),
    )
    .expect("connect to router");
    let served = cluster_lines(&mut client, &specs);
    assert_eq!(sorted(served), sorted(reference_lines(&specs)));

    let stats = router.stats();
    assert_eq!(stats.evals_ok, 96, "every request answered with a report");
    assert_eq!(stats.shed_total, 0);
    assert!(
        faults.injected() > 0,
        "the plan must actually have fired: {stats:?}"
    );
    assert_eq!(stats.faults_injected, faults.injected());
    assert!(
        stats.failovers >= 1,
        "killed/garbled exchanges must be re-routed: {stats:?}"
    );

    quiesce(&router, &backends, 1);
    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

#[test]
fn mid_frame_client_disconnects_leave_the_router_clean() {
    let backend = bind_backend();
    let router =
        Router::bind("127.0.0.1:0", &[backend.local_addr()], chaos_options()).expect("bind router");

    // A client that dies halfway through a request line: no answer is
    // owed, nothing leaks, nothing panics.
    {
        let mut stream = TcpStream::connect(router.local_addr()).expect("connect raw");
        let full = wire::encode_request(&Request {
            id: 1,
            body: RequestBody::Ping,
        });
        stream
            .write_all(&full.as_bytes()[..full.len() / 2])
            .expect("write half a frame");
        stream.flush().expect("flush the fragment");
    } // dropped mid-frame, no newline ever sent

    // A client that sends a full eval and vanishes before reading the
    // response: the router's reply send fails harmlessly.
    {
        let mut stream = TcpStream::connect(router.local_addr()).expect("connect raw");
        let line = wire::encode_request(&Request {
            id: 2,
            body: RequestBody::Eval(mixed_sweep(1)[0].clone()),
        });
        stream.write_all(line.as_bytes()).expect("write eval");
        stream.write_all(b"\n").expect("terminate eval");
        stream.flush().expect("flush eval");
    } // dropped with the response in flight

    // Every connection drains; the handle registry ends empty.
    wait_for(
        "router connections to drain",
        Duration::from_secs(10),
        || {
            let scrape = router.metrics_snapshot();
            family_total(&scrape, "cluster_connections_active") == 0
                && family_total(&scrape, "cluster_connections_drained_total") >= 2
        },
    );

    // And the router still serves correctly afterwards.
    let specs = mixed_sweep(8);
    let mut client = Client::connect_with(
        router.local_addr(),
        ClientOptions::with_deadline(Duration::from_secs(60)),
    )
    .expect("connect to router");
    assert_eq!(
        sorted(cluster_lines(&mut client, &specs)),
        sorted(reference_lines(&specs))
    );

    quiesce(&router, [&backend], 1);
    router.shutdown();
    backend.shutdown();
}

#[test]
fn a_client_that_never_reads_cannot_stall_another_clients_evals() {
    // Two one-worker backends, both warm for the one spec every client
    // sends.
    let spec = mixed_sweep(1).remove(0);
    let backends: Vec<Server> = (0..2)
        .map(|_| {
            Server::bind(
                "127.0.0.1:0",
                ServerOptions::default()
                    .with_workers(1)
                    .with_trace_sampling(0),
            )
            .expect("bind a loopback backend")
        })
        .collect();
    for backend in &backends {
        let mut client = Client::connect_with(
            backend.local_addr(),
            ClientOptions::with_deadline(Duration::from_secs(60)),
        )
        .expect("connect to backend");
        let warm = client.eval(0, &spec).expect("warm-up eval");
        assert!(matches!(warm.body, ResponseBody::Eval(_)), "{warm:?}");
    }
    let addrs: Vec<SocketAddr> = backends.iter().map(Server::local_addr).collect();
    let router =
        Router::bind("127.0.0.1:0", &addrs, RouterOptions::default()).expect("bind router");

    // Client A pipelines 20 000 evals and never reads an answer.  Its
    // write blocks once the router stops reading it, so it runs on its own
    // thread until the socket is shut down under it.
    let flood = TcpStream::connect(router.local_addr()).expect("connect client A");
    let writer = {
        let mut stream = flood.try_clone().expect("clone client A's socket");
        let mut lines = String::new();
        for id in 0..20_000 {
            lines.push_str(&wire::encode_request(&Request {
                id,
                body: RequestBody::Eval(spec.clone()),
            }));
            lines.push('\n');
        }
        std::thread::spawn(move || {
            let _ = stream.write_all(lines.as_bytes());
        })
    };
    // The router has answered a whole write queue's worth of A's evals, so
    // A's backlog is in place before B starts.
    wait_for("client A's answer backlog", Duration::from_secs(60), || {
        router.stats().evals_ok >= 1_024
    });

    // Client B's sequential evals of the same spec are each answered
    // within a one-second deadline, however far behind A falls.
    let mut client_b = Client::connect_with(
        router.local_addr(),
        ClientOptions::with_deadline(Duration::from_secs(1)),
    )
    .expect("connect client B");
    let started = Instant::now();
    let mut answered = 0u64;
    while started.elapsed() < Duration::from_secs(2) {
        let id = 1_000_000 + answered;
        let response = client_b
            .eval(id, &spec)
            .unwrap_or_else(|err| panic!("client B's eval {id} missed its deadline: {err}"));
        assert_eq!(response.id, Some(id));
        assert!(
            matches!(response.body, ResponseBody::Eval(_)),
            "{response:?}"
        );
        answered += 1;
    }
    assert!(answered > 0);

    // Tearing A down moves its unread answers to the dropped count and
    // brings the write-queue gauge back to zero.
    flood
        .shutdown(std::net::Shutdown::Both)
        .expect("shut client A down");
    writer.join().expect("client A's writer exits");
    drop(flood);
    wait_for("client A's teardown", Duration::from_secs(60), || {
        let scrape = router.metrics_snapshot();
        family_total(&scrape, "cluster_connections_active") == 1
            && family_total(&scrape, "cluster_write_queue_depth") == 0
            && family_total(&scrape, "cluster_write_dropped_total") > 0
    });

    drop(client_b);
    quiesce(&router, &backends, 0);
    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

#[test]
fn a_stats_fan_out_waiting_on_a_silent_backend_never_stalls_a_ping() {
    let backend = bind_backend();
    // The kernel completes handshakes into this listener's backlog, but
    // nothing ever reads a request or answers one.
    let silent = TcpListener::bind("127.0.0.1:0").expect("bind the silent backend");
    let health_timeout = Duration::from_secs(1);
    let router = Router::bind(
        "127.0.0.1:0",
        &[
            backend.local_addr(),
            silent.local_addr().expect("silent backend address"),
        ],
        RouterOptions::default().with_health(
            Duration::from_millis(50),
            health_timeout,
            Duration::from_millis(250),
        ),
    )
    .expect("bind router");
    let deadline = ClientOptions::with_deadline(Duration::from_secs(30));
    let mut stats_client = Client::connect_with(router.local_addr(), deadline).expect("connect");
    let mut ping_client = Client::connect_with(router.local_addr(), deadline).expect("connect");

    // Read before the send: the silent backend's wait starts when its link
    // writes the request, which may come before `flush` returns.
    let stats_sent = Instant::now();
    stats_client
        .send(&Request {
            id: 1,
            body: RequestBody::Stats,
        })
        .expect("send stats");
    stats_client.flush().expect("flush stats");
    wait_for(
        "the router to take the stats request",
        Duration::from_secs(10),
        || router.stats().requests_total >= 1,
    );

    // The stats request now waits on the silent backend's link for its
    // health timeout; the loop it came in on still answers a ping at once.
    let ping_sent = Instant::now();
    let pong = ping_client
        .call(&Request {
            id: 2,
            body: RequestBody::Ping,
        })
        .expect("ping answered");
    let ping_latency = ping_sent.elapsed();
    assert_eq!(pong.id, Some(2));
    assert!(matches!(pong.body, ResponseBody::Pong), "{pong:?}");
    assert!(
        ping_latency < Duration::from_millis(100),
        "a ping took {ping_latency:?} behind a stats fan-out"
    );

    // And the stats answer still arrives, from the live backend, once the
    // silent one timed out.
    let stats = stats_client.recv().expect("stats answered");
    assert!(stats_sent.elapsed() >= health_timeout);
    assert_eq!(stats.id, Some(1));
    assert!(matches!(stats.body, ResponseBody::Stats(_)), "{stats:?}");

    quiesce(&router, [&backend], 2);
    router.shutdown();
    backend.shutdown();
}

// ---------------------------------------------------------------------------
// Pipelined backend links, driven through test-local fake backends
// ---------------------------------------------------------------------------

/// The first `count` specs of a mixed sweep whose first rendezvous choice
/// among `backends` is `backend`, so a test can aim traffic at one link.
fn specs_homed_on(backend: usize, backends: usize, count: usize) -> Vec<EvalSpec> {
    let table = workload_table();
    let specs: Vec<EvalSpec> = mixed_sweep(count * backends * 4)
        .into_iter()
        .filter(|spec| {
            let fingerprint = spec
                .to_eval_request(0, &table)
                .expect("sweep specs are valid")
                .key()
                .fingerprint();
            crosslight::cluster::backend::rendezvous_order(fingerprint, backends)[0] == backend
        })
        .take(count)
        .collect();
    assert_eq!(specs.len(), count, "the sweep is long enough");
    specs
}

/// What a fake backend does with the lines it reads.
#[derive(Debug, Clone, Copy)]
enum Fake {
    /// Forwards each burst to the real server and writes its answers back
    /// in reverse order.
    Reverse,
    /// Forwards the first `n` lines of each connection, then closes it.
    AnswerFirst(usize),
    /// Reads everything and answers nothing.
    Silent,
    /// Forwards each burst and writes its answers back after a delay.
    Delay(Duration),
}

/// A test-local backend: a listener whose connections each get a thread
/// that treats the router's lines as its [`Fake`] mode says, forwarding
/// what it answers to a real server over a connection of its own.
struct FakeBackend {
    addr: SocketAddr,
    /// Bursts of two or more lines answered in reverse order.
    reversed_bursts: Arc<std::sync::atomic::AtomicUsize>,
}

fn fake_backend(upstream: SocketAddr, mode: Fake) -> FakeBackend {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a fake backend");
    let addr = listener.local_addr().expect("fake backend address");
    let reversed_bursts = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let reversed = Arc::clone(&reversed_bursts);
    // Detached: each connection's thread ends when the router closes it,
    // and the acceptor with the test process.
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let reversed = Arc::clone(&reversed);
            std::thread::spawn(move || serve_fake(stream, upstream, mode, &reversed));
        }
    });
    FakeBackend {
        addr,
        reversed_bursts,
    }
}

/// One fake-backend connection; returns when the router hangs up, or
/// when an `AnswerFirst` budget is spent (dropping the socket closes it).
fn serve_fake(
    stream: TcpStream,
    upstream: SocketAddr,
    mode: Fake,
    reversed: &std::sync::atomic::AtomicUsize,
) -> std::io::Result<()> {
    use std::io::{BufRead, BufReader};

    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let upstream = TcpStream::connect(upstream)?;
    let mut up_writer = upstream.try_clone()?;
    let mut up_reader = BufReader::new(upstream);
    let mut answered = 0usize;
    loop {
        // A burst: one line, plus every complete line already buffered
        // behind it.
        let mut burst = Vec::new();
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                return Ok(());
            }
            burst.push(line);
            if !reader.buffer().contains(&b'\n') {
                break;
            }
        }
        if let Fake::AnswerFirst(limit) = mode {
            burst.truncate(limit - answered);
        }
        if matches!(mode, Fake::Silent) || burst.is_empty() {
            continue;
        }
        up_writer.write_all(burst.concat().as_bytes())?;
        let mut answers = Vec::with_capacity(burst.len());
        for _ in &burst {
            let mut answer = String::new();
            up_reader.read_line(&mut answer)?;
            answers.push(answer);
        }
        match mode {
            Fake::Reverse if answers.len() > 1 => {
                answers.reverse();
                reversed.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
            Fake::Delay(delay) => std::thread::sleep(delay),
            _ => {}
        }
        writer.write_all(answers.concat().as_bytes())?;
        answered += answers.len();
        if matches!(mode, Fake::AnswerFirst(limit) if answered >= limit) {
            return Ok(());
        }
    }
}

/// Proves nothing more is owed on a connection: a ping's pong is the very
/// next line.
fn next_line_is_pong(client: &mut Client, id: u64) {
    let pong = client
        .call(&Request {
            id,
            body: RequestBody::Ping,
        })
        .expect("the pong");
    assert_eq!(
        pong,
        Response {
            id: Some(id),
            body: ResponseBody::Pong
        },
        "an answer arrived that nobody was owed"
    );
}

/// A backend that answers each ping with a pong and each `metrics`
/// request with `page`, and serves nothing else.
fn metrics_only_backend(page: RegistrySnapshot) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a metrics-only backend");
    let addr = listener.local_addr().expect("metrics-only backend address");
    let page = Arc::new(page);
    // Detached, like `fake_backend`'s threads.
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let page = Arc::clone(&page);
            std::thread::spawn(move || serve_metrics_only(stream, &page));
        }
    });
    addr
}

fn serve_metrics_only(stream: TcpStream, page: &RegistrySnapshot) -> std::io::Result<()> {
    use std::io::{BufRead, BufReader};

    let mut writer = stream.try_clone()?;
    for line in BufReader::new(stream).lines() {
        let request = wire::decode_request(&line?).expect("the router's requests decode");
        let body = match request.body {
            RequestBody::Ping => ResponseBody::Pong,
            RequestBody::Metrics { .. } => {
                ResponseBody::Metrics(MetricsFrame::Snapshot(page.clone()))
            }
            other => panic!("a metrics-only backend got {other:?}"),
        };
        let answer = wire::encode_response(&Response {
            id: Some(request.id),
            body,
        });
        writer.write_all(format!("{answer}\n").as_bytes())?;
    }
    Ok(())
}

/// A backend that answers each ping at once and forwards each other line
/// to `upstream`, writing its answer back `hold` after reading the line.
fn holding_backend(upstream: SocketAddr, hold: Duration) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a holding backend");
    let addr = listener.local_addr().expect("holding backend address");
    // Detached, like `fake_backend`'s threads.
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            std::thread::spawn(move || serve_holding(stream, upstream, hold));
        }
    });
    addr
}

fn serve_holding(stream: TcpStream, upstream: SocketAddr, hold: Duration) -> std::io::Result<()> {
    use std::io::{BufRead, BufReader};
    use std::sync::{mpsc, Mutex};

    let writer = Arc::new(Mutex::new(stream.try_clone()?));
    let upstream = TcpStream::connect(upstream)?;
    let mut up_writer = upstream.try_clone()?;
    let mut up_reader = BufReader::new(upstream);
    let (held, due) = mpsc::channel::<(Instant, String)>();
    let release = Arc::clone(&writer);
    // Writes each held answer when it is due, in the order read; ends
    // when the connection's reader below does.
    std::thread::spawn(move || {
        for (at, answer) in due {
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            let _ = release
                .lock()
                .expect("writer lock")
                .write_all(answer.as_bytes());
        }
    });
    for line in BufReader::new(stream).lines() {
        let line = line?;
        let read = Instant::now();
        let request = wire::decode_request(&line).expect("the router's requests decode");
        if matches!(request.body, RequestBody::Ping) {
            let pong = wire::encode_response(&Response {
                id: Some(request.id),
                body: ResponseBody::Pong,
            });
            writer
                .lock()
                .expect("writer lock")
                .write_all(format!("{pong}\n").as_bytes())?;
            continue;
        }
        up_writer.write_all(format!("{line}\n").as_bytes())?;
        let mut answer = String::new();
        up_reader.read_line(&mut answer)?;
        let _ = held.send((read + hold, answer));
    }
    Ok(())
}

fn router_client(router: &Router) -> Client {
    Client::connect_with(
        router.local_addr(),
        ClientOptions::with_deadline(Duration::from_secs(60)),
    )
    .expect("connect to router")
}

#[test]
fn clients_reusing_the_same_ids_get_their_own_answers_over_one_link() {
    let real = bind_backend();
    let fake = fake_backend(real.local_addr(), Fake::Reverse);
    let router = Router::bind("127.0.0.1:0", &[fake.addr], chaos_options()).expect("bind router");

    // Two clients, the same ids 0..48, different specs, in flight at once
    // over the router's one link to the reversing backend.
    let specs = mixed_sweep(96);
    let (specs_a, specs_b) = specs.split_at(48);
    let (mut client_a, mut client_b) = (router_client(&router), router_client(&router));
    send_evals(&mut client_a, specs_a);
    send_evals(&mut client_b, specs_b);
    let served_a: Vec<String> = specs_a.iter().map(|_| recv_eval(&mut client_a)).collect();
    let served_b: Vec<String> = specs_b.iter().map(|_| recv_eval(&mut client_b)).collect();

    assert_eq!(sorted(served_a), sorted(reference_lines(specs_a)));
    assert_eq!(sorted(served_b), sorted(reference_lines(specs_b)));
    next_line_is_pong(&mut client_a, 1_000);
    next_line_is_pong(&mut client_b, 1_000);
    assert!(
        fake.reversed_bursts
            .load(std::sync::atomic::Ordering::SeqCst)
            > 0,
        "the link must have pipelined bursts the backend could reorder"
    );
    let stats = router.stats();
    assert_eq!(stats.evals_ok, 96);
    assert_eq!(stats.failovers, 0);

    drop((client_a, client_b));
    quiesce(&router, [&real], 0);
    router.shutdown();
    real.shutdown();
}

#[test]
fn a_backend_that_closes_mid_window_fails_each_unanswered_eval_over_once() {
    let (upstream, survivor) = (bind_backend(), bind_backend());
    let fake = fake_backend(upstream.local_addr(), Fake::AnswerFirst(5));
    let router = Router::bind(
        "127.0.0.1:0",
        &[fake.addr, survivor.local_addr()],
        chaos_options().with_replication(2),
    )
    .expect("bind router");

    // Every eval's first choice is the fake, which answers five of them on
    // its link and closes it; the rest must come from the survivor.
    let specs = specs_homed_on(0, 2, 64);
    let mut client = router_client(&router);
    let served = cluster_lines(&mut client, &specs);
    assert_eq!(sorted(served), sorted(reference_lines(&specs)));
    next_line_is_pong(&mut client, 1_000);

    let stats = router.stats();
    assert_eq!(stats.evals_ok, 64);
    assert_eq!(stats.shed_total, 0);
    assert!(stats.failovers >= 1, "{stats:?}");
    let scrape = router.metrics_snapshot();
    let deaths: u64 = ["eof", "error", "garbled", "unknown_id", "timeout"]
        .iter()
        .map(|reason| {
            labelled_total(
                &scrape,
                "cluster_link_resets_total",
                &[("backend", "0"), ("reason", reason)],
            )
        })
        .sum();
    // The close reads as EOF, or as a reset when requests were still
    // unread in the fake's socket.
    assert!(deaths >= 1, "the close must have killed the link");
    assert_eq!(
        labelled_total(
            &scrape,
            "cluster_backend_failures_total",
            &[("backend", "0")]
        ),
        deaths,
        "each link death is exactly one failure"
    );

    drop(client);
    quiesce(&router, [&upstream, &survivor], 0);
    router.shutdown();
    upstream.shutdown();
    survivor.shutdown();
}

#[test]
fn a_silent_backend_fails_its_whole_window_over_within_one_timeout() {
    let (upstream, survivor) = (bind_backend(), bind_backend());
    let silent = fake_backend(upstream.local_addr(), Fake::Silent);
    let request_timeout = Duration::from_millis(300);
    // No probe meets the silent backend and no breaker trips during the
    // test: the link alone must fail everything over.
    let router = Router::bind(
        "127.0.0.1:0",
        &[silent.addr, survivor.local_addr()],
        chaos_options()
            .with_replication(2)
            .with_request_timeout(request_timeout)
            .with_failure_threshold(1_000)
            .with_health(
                Duration::from_secs(60),
                Duration::from_secs(1),
                Duration::from_millis(250),
            ),
    )
    .expect("bind router");

    // Warm the survivor, so the time measured is the failover's alone.
    let specs = specs_homed_on(0, 2, 64);
    let mut warm = Client::connect_with(
        survivor.local_addr(),
        ClientOptions::with_deadline(Duration::from_secs(60)),
    )
    .expect("connect to the survivor");
    cluster_lines(&mut warm, &specs);

    let mut client = router_client(&router);
    let started = Instant::now();
    let served = cluster_lines(&mut client, &specs);
    let elapsed = started.elapsed();
    assert_eq!(sorted(served), sorted(reference_lines(&specs)));
    // One liveness timeout covers the window and the jobs queued behind
    // it; a timeout per job (or per window) would take many times longer.
    assert!(
        elapsed < 2 * request_timeout,
        "64 evals behind a silent backend took {elapsed:?}"
    );
    let scrape = router.metrics_snapshot();
    assert!(
        labelled_total(
            &scrape,
            "cluster_link_resets_total",
            &[("backend", "0"), ("reason", "timeout")]
        ) >= 1
    );
    assert_eq!(router.stats().shed_total, 0);

    drop(client);
    quiesce(&router, [&upstream, &survivor], 0);
    router.shutdown();
    upstream.shutdown();
    survivor.shutdown();
}

#[test]
fn a_deadline_passing_on_a_slow_link_is_answered_there_and_the_late_answer_dropped() {
    let upstream = bind_backend();
    let slow = fake_backend(
        upstream.local_addr(),
        Fake::Delay(Duration::from_millis(800)),
    );
    let deadline = Duration::from_millis(300);
    let router = Router::bind(
        "127.0.0.1:0",
        &[slow.addr],
        chaos_options()
            .with_request_deadline(deadline)
            // No probe meets the slow backend during the test.
            .with_health(
                Duration::from_secs(60),
                Duration::from_secs(1),
                Duration::from_millis(250),
            ),
    )
    .expect("bind router");

    let mut client = router_client(&router);
    let started = Instant::now();
    let response = client.eval(0, &mixed_sweep(1)[0]).expect("the shed");
    let elapsed = started.elapsed();
    assert_eq!(response.id, Some(0));
    assert!(
        matches!(response.body, ResponseBody::Error(ref frame) if frame.kind == ErrorKind::Unavailable),
        "{response:?}"
    );
    assert!(
        elapsed >= deadline && elapsed < Duration::from_millis(800),
        "the shed must arrive at the deadline, not with the answer: {elapsed:?}"
    );

    // The backend's late answer lands on the link and is dropped there.
    wait_for("the late answer", Duration::from_secs(10), || {
        let scrape = router.metrics_snapshot();
        family_total(&scrape, "cluster_backend_in_flight") == 0
    });
    next_line_is_pong(&mut client, 1_000);
    let stats = router.stats();
    assert_eq!(stats.evals_ok, 0);
    assert_eq!(stats.shed_total, 1);
    let scrape = router.metrics_snapshot();
    assert_eq!(
        family_total(&scrape, "cluster_link_resets_total"),
        0,
        "a late answer does not cost the link"
    );

    drop(client);
    quiesce(&router, [&upstream], 0);
    router.shutdown();
    upstream.shutdown();
}

#[test]
fn a_deadline_passing_in_a_links_backlog_is_shed_there_before_any_slot_frees() {
    let upstream = bind_backend();
    let hold = Duration::from_millis(800);
    let holding = holding_backend(upstream.local_addr(), hold);
    let deadline = Duration::from_millis(300);
    let router = Router::bind(
        "127.0.0.1:0",
        &[holding],
        chaos_options().with_request_deadline(deadline),
    )
    .expect("bind router");

    // The link's window takes the first evals; the rest wait in its
    // backlog, where no slot frees before the held answers are due.
    let mut client = router_client(&router);
    let started = Instant::now();
    send_evals(&mut client, &mixed_sweep(20));
    for _ in 0..20 {
        let response = client.recv().expect("every eval is answered");
        assert!(
            matches!(response.body, ResponseBody::Error(ref frame)
                if frame.kind == ErrorKind::Unavailable && frame.detail == "request deadline exceeded"),
            "{response:?}"
        );
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed >= deadline && elapsed < hold,
        "every eval must be shed at its deadline, not when a slot frees: {elapsed:?}"
    );
    let scrape = router.metrics_snapshot();
    assert_eq!(family_total(&scrape, "cluster_queue_depth"), 0);
    let stats = router.stats();
    assert_eq!((stats.evals_ok, stats.shed_total), (0, 20));

    // The held answers land on the link and are dropped there.
    wait_for("the held answers", Duration::from_secs(10), || {
        let scrape = router.metrics_snapshot();
        family_total(&scrape, "cluster_backend_in_flight") == 0
    });
    next_line_is_pong(&mut client, 1_000);
    assert_eq!(router.stats().shed_total, 20);

    drop(client);
    quiesce(&router, [&upstream], 0);
    router.shutdown();
    upstream.shutdown();
}

#[test]
fn a_line_at_the_length_limit_still_fits_the_backend_after_many_requests_on_its_link() {
    let backend = bind_backend();
    let router = Router::bind(
        "127.0.0.1:0",
        &[backend.local_addr()],
        chaos_options().with_request_deadline(Duration::from_secs(5)),
    )
    .expect("bind router");

    // More than ten requests over the one link first, so an id that grew
    // with the link's use would have two digits by now.
    let mut client = router_client(&router);
    let warm = mixed_sweep(24);
    assert_eq!(
        sorted(cluster_lines(&mut client, &warm)),
        sorted(reference_lines(&warm))
    );

    // An eval under id 0, padded with JSON whitespace to exactly the line
    // limit the router and its backend share.
    let spec = mixed_sweep(1).remove(0);
    let mut line = wire::encode_request(&Request {
        id: 0,
        body: RequestBody::Eval(spec.clone()),
    });
    let close = line.pop().expect("an encoded request ends with its brace");
    line.extend(std::iter::repeat_n(
        ' ',
        wire::DEFAULT_MAX_LINE_BYTES - line.len() - 1,
    ));
    line.push(close);
    assert_eq!(line.len(), wire::DEFAULT_MAX_LINE_BYTES);
    let mut raw = TcpStream::connect(router.local_addr()).expect("connect to router");
    raw.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    raw.write_all(format!("{line}\n").as_bytes())
        .expect("send the padded eval");
    let mut answer = String::new();
    std::io::BufRead::read_line(&mut std::io::BufReader::new(&raw), &mut answer)
        .expect("the answer");
    let response = wire::decode_response(answer.trim_end()).expect("a well-formed answer");
    let ResponseBody::Eval(frame) = response.body else {
        panic!("expected a report, got {response:?}");
    };
    assert_eq!(
        canonical_line(0, frame.report),
        reference_lines(std::slice::from_ref(&spec))[0]
    );
    let scrape = router.metrics_snapshot();
    assert_eq!(family_total(&scrape, "cluster_link_resets_total"), 0);
    assert_eq!(router.stats().shed_total, 0);

    drop((client, raw));
    quiesce(&router, [&backend], 0);
    router.shutdown();
    backend.shutdown();
}

#[test]
fn refused_dials_spend_attempts_and_shed_long_before_the_deadline() {
    let (_reserved, addrs) = refusing_addrs(2);
    let deadline = Duration::from_secs(20);
    // No breaker opens and no probe runs during the test: the dials alone
    // must use up the eval's attempts.
    let router = Router::bind(
        "127.0.0.1:0",
        &addrs,
        chaos_options()
            .with_replication(2)
            .with_request_deadline(deadline)
            .with_failure_threshold(1_000)
            .with_health(
                Duration::from_secs(60),
                Duration::from_secs(1),
                Duration::from_millis(250),
            )
            .with_retry(RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(50),
                jitter_seed: 0xC1A05,
            }),
    )
    .expect("bind router");

    let mut client = router_client(&router);
    let started = Instant::now();
    let response = client.eval(7, &mixed_sweep(1)[0]).expect("the shed");
    let elapsed = started.elapsed();
    let ResponseBody::Error(frame) = response.body else {
        panic!("expected a shed, got {response:?}");
    };
    assert_eq!(frame.kind, ErrorKind::Unavailable);
    assert!(
        frame
            .detail
            .starts_with("retry attempts exhausted: connect"),
        "{frame:?}"
    );
    assert!(
        elapsed < deadline / 4,
        "three refused dials must not wait for the deadline: {elapsed:?}"
    );
    let scrape = router.metrics_snapshot();
    assert_eq!(
        labelled_total(&scrape, "cluster_shed_total", &[("reason", "attempts")]),
        1
    );

    drop(client);
    quiesce(&router, [], 0);
    router.shutdown();
}

#[test]
fn a_metrics_page_past_the_request_line_limit_is_merged_without_resetting_the_link() {
    // Eight histogram series, each spanning 944 of the 976 buckets.
    let registry = Registry::new();
    for series in 0..8 {
        let histogram = registry.histogram_with(
            "server_wide_ns",
            "A histogram spanning most buckets.",
            &[("series", &series.to_string())],
        );
        for shift in 0..59 {
            for mantissa in 16..32u64 {
                histogram.record(mantissa << shift);
            }
        }
    }
    let page = registry.snapshot();
    let line = wire::encode_response(&Response {
        id: Some(8),
        body: ResponseBody::Metrics(MetricsFrame::Snapshot(page.clone())),
    });
    assert!(
        line.len() > wire::DEFAULT_MAX_LINE_BYTES,
        "the backend's page is only {} bytes",
        line.len()
    );
    let router = Router::bind(
        "127.0.0.1:0",
        &[metrics_only_backend(page.clone())],
        chaos_options(),
    )
    .expect("bind router");

    let mut client = router_client(&router);
    for id in 0..3 {
        let response = client
            .metrics(id, MetricsFormat::Json)
            .expect("the merged page");
        let ResponseBody::Metrics(MetricsFrame::Snapshot(merged)) = response.body else {
            panic!("expected a metrics snapshot, got {response:?}");
        };
        assert_eq!(
            merged.family("server_wide_ns"),
            page.family("server_wide_ns")
        );
        assert_eq!(family_total(&merged, "cluster_link_resets_total"), 0);
    }
    let scrape = router.metrics_snapshot();
    assert_eq!(family_total(&scrape, "cluster_link_resets_total"), 0);
    assert_eq!(family_total(&scrape, "cluster_backend_failures_total"), 0);

    drop(client);
    quiesce(&router, [], 0);
    router.shutdown();
}
