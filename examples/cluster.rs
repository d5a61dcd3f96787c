//! Runs a loopback CrossLight cluster — three backend servers behind one
//! fingerprint-routing [`Router`] — and chaos-drives it: a seeded mixed
//! arch-zoo sweep while one backend is killed mid-flight and later
//! restarted on a fresh port.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example cluster -- --requests 96 --workers 2
//! ```
//!
//! Four phases, each of which panics (non-zero exit, so CI uses this as
//! the cluster chaos smoke) if its invariant does not hold:
//!
//! 1. **Equivalence** — a mixed arch-zoo sweep through the router is
//!    multiset-bit-identical to direct in-process `EvalService` dispatch
//!    of the same specs.
//! 2. **Failover** — the sweep is replayed pipelined and one backend is
//!    killed with most of it outstanding: zero accepted requests are
//!    lost, the answers stay bit-identical, and the re-routing is
//!    observable (nonzero failovers, nonzero backend transport faults).
//! 3. **Cold readmission** — the killed backend restarts on a new
//!    ephemeral port and rejoins through half-open probing: its trial
//!    pong readmits it (observable in `cluster_backend_readmitted_total`),
//!    the final sweep serves across all three backends again and stays
//!    bit-identical, and the reborn backend answers part of it,
//!    recomputing what it lost.  The cluster-wide metrics page is scraped
//!    through the router and optionally dumped with
//!    `--dump-metrics <path>` for the CI scrape step.
//! 4. **Degradation + drain** — with every backend gone, an eval is
//!    answered with a typed retryable `unavailable` frame within the
//!    deadline, and router shutdown completes with a client connected.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crosslight::cluster::{CircuitState, RetryPolicy, Router, RouterOptions};
use crosslight::experiments::arch_zoo;
use crosslight::neural::workload::NetworkWorkload;
use crosslight::neural::zoo::PaperModel;
use crosslight::runtime::prelude::*;
use crosslight::server::loadgen::{Client, ClientOptions};
use crosslight::server::server::{Server, ServerOptions};
use crosslight::server::wire::{
    self, ArchRequest, ErrorKind, EvalFrame, EvalSpec, MetricsFormat, MetricsFrame, Request,
    RequestBody, Response, ResponseBody, WorkloadRef,
};
use crosslight::telemetry::{validate_text, RegistrySnapshot, SeriesValue};

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

/// Sums a family's series across label sets (counter values, gauge
/// values, histogram counts) in a metrics snapshot.
fn family_total(snapshot: &RegistrySnapshot, name: &str) -> u64 {
    snapshot
        .families
        .iter()
        .filter(|family| family.name == name)
        .flat_map(|family| &family.series)
        .map(|series| match series.value {
            SeriesValue::Counter(value) => value,
            SeriesValue::Gauge(value) => value.max(0) as u64,
            SeriesValue::Histogram(ref h) => h.count(),
        })
        .sum()
}

/// One JSON metrics scrape of `addr` (a backend directly, or the router
/// for the merged cluster-wide page).
fn scrape_json(addr: SocketAddr) -> RegistrySnapshot {
    let mut client =
        Client::connect_with(addr, ClientOptions::with_deadline(Duration::from_secs(10)))
            .expect("connect for a metrics scrape");
    let response = client.metrics(0, MetricsFormat::Json).expect("metrics op");
    match response.body {
        ResponseBody::Metrics(MetricsFrame::Snapshot(snapshot)) => snapshot,
        other => panic!("expected a metrics snapshot, got {other:?}"),
    }
}

/// A deterministic mixed sweep: the arch-zoo union grid cycled across the
/// Table I models until `len` specs exist.
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

/// Canonical byte encoding of an answered eval with serving metadata
/// (cache hit, worker index) normalized away: those legitimately differ
/// between one service and a cluster, the report must not.
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

fn reference_lines(specs: &[EvalSpec], workers: usize) -> Vec<String> {
    let workloads: [Arc<NetworkWorkload>; 4] = PaperModel::all()
        .map(|m| Arc::new(NetworkWorkload::from_spec(&m.spec()).expect("paper models are valid")));
    let service = EvalService::new(RuntimeOptions::default().with_workers(workers));
    let requests = specs
        .iter()
        .enumerate()
        .map(|(id, spec)| {
            spec.to_eval_request(id as u64, &workloads)
                .expect("sweep specs are valid")
        })
        .collect();
    let mut lines: Vec<String> = service
        .submit_batch(requests)
        .expect("reference batch evaluates")
        .into_iter()
        .enumerate()
        .map(|(id, response)| canonical_line(id as u64, response.report))
        .collect();
    lines.sort_unstable();
    lines
}

/// Pipelines the sweep and returns the sorted canonical answers; `kill`
/// optionally shuts one backend down after `kill_after` answers arrived.
fn sweep_through(
    client: &mut Client,
    specs: &[EvalSpec],
    mut kill: Option<(Server, usize)>,
) -> Vec<String> {
    for (id, spec) in specs.iter().enumerate() {
        client
            .send(&Request {
                id: id as u64,
                body: RequestBody::Eval(spec.clone()),
            })
            .expect("pipelined send");
    }
    client.flush().expect("pipelined flush");
    let mut lines = Vec::with_capacity(specs.len());
    for received in 0..specs.len() {
        if let Some((_, kill_after)) = &kill {
            if received == *kill_after {
                let (victim, _) = kill.take().expect("kill pending");
                victim.shutdown();
            }
        }
        let response = client.recv().expect("every accepted request is answered");
        let id = response.id.expect("eval answers carry the request id");
        match response.body {
            ResponseBody::Eval(frame) => lines.push(canonical_line(id, frame.report)),
            other => panic!("id {id}: expected a report, got {other:?}"),
        }
    }
    lines.sort_unstable();
    lines
}

fn bind_backend(workers: usize) -> Server {
    Server::bind(
        "127.0.0.1:0",
        ServerOptions::default()
            .with_workers(workers)
            .with_trace_sampling(0),
    )
    .expect("bind a loopback backend")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let requests = parse_flag(&args, "--requests", 96).max(16);
    let workers = parse_flag(&args, "--workers", 2).max(1);
    let dump_metrics = parse_path_flag(&args, "--dump-metrics");

    println!("=== crosslight-cluster — fault-tolerant router over 3 backends ===\n");

    // ---- Topology ----------------------------------------------------------
    let mut backends: Vec<Option<Server>> = (0..3).map(|_| Some(bind_backend(workers))).collect();
    let addrs: Vec<SocketAddr> = backends
        .iter()
        .map(|b| b.as_ref().expect("live backend").local_addr())
        .collect();
    let options = RouterOptions::default()
        .with_replication(2)
        .with_failure_threshold(2)
        .with_health(
            Duration::from_millis(20),
            Duration::from_millis(250),
            Duration::from_millis(100),
        )
        .with_retry(RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(50),
            jitter_seed: 0x5EED,
        })
        .with_retry_budget(1_000)
        .with_request_deadline(Duration::from_secs(30));
    let router = Router::bind("127.0.0.1:0", &addrs, options).expect("bind router");
    println!("router  : {}", router.local_addr());
    for (index, addr) in addrs.iter().enumerate() {
        println!("backend {index}: {addr} ({workers} eval workers)");
    }

    let specs = mixed_sweep(requests);
    let reference = reference_lines(&specs, workers);
    let mut client = Client::connect_with(
        router.local_addr(),
        ClientOptions::with_deadline(Duration::from_secs(60)),
    )
    .expect("connect to router");

    // ---- Phase 1: equivalence ----------------------------------------------
    let start = Instant::now();
    let served = sweep_through(&mut client, &specs, None);
    assert_eq!(
        served, reference,
        "cluster answers diverged from direct EvalService dispatch"
    );
    println!(
        "\nsweep   : {requests} mixed arch-zoo evals in {:.2?} — multiset-bit-identical to one EvalService",
        start.elapsed()
    );

    // ---- Phase 2: kill a backend mid-sweep ---------------------------------
    let before = router.stats();
    let victim = backends[1].take().expect("backend 1 is live");
    let served = sweep_through(&mut client, &specs, Some((victim, requests / 8)));
    assert_eq!(
        served, reference,
        "a mid-sweep backend kill must not change any answer"
    );
    let stats = router.stats();
    assert_eq!(
        stats.shed_total, before.shed_total,
        "no accepted request may be shed: {stats:?}"
    );
    assert!(
        stats.failovers > before.failovers,
        "the kill must force observable re-routing: {stats:?}"
    );
    println!(
        "failover: backend 1 killed mid-sweep — 0 lost, 0 shed, {} failovers, {} retries",
        stats.failovers - before.failovers,
        stats.retries - before.retries,
    );

    // ---- Phase 3: restart + cold readmission via half-open probing ---------
    // First let backend 1's link notice the corpse (its socket closes, then
    // its pings' dials are refused) and trip the breaker.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = router.stats();
        if stats.backend_states[1] != CircuitState::Closed {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the link never tripped the breaker on dead backend 1: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // Serve a full sweep through the outage: the breaker is open, so every
    // one of backend 1's shards is served by a surviving replica.  Results
    // that lived only on the corpse are lost with it; the survivors
    // recompute them.
    let served = sweep_through(&mut client, &specs, None);
    assert_eq!(served, reference, "open-breaker answers diverged");
    println!("outage  : full sweep served bit-identically with backend 1's breaker open");
    let reborn = bind_backend(workers);
    router.update_backend_addr(1, reborn.local_addr());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = router.stats();
        if stats.backend_states[1] == CircuitState::Closed && stats.readmitted[1] >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "backend 1 was not readmitted: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let reborn_addr = reborn.local_addr();
    backends[1] = Some(reborn);

    // The readmission is cold: the reborn backend starts with empty
    // caches, so its slice of the final sweep is recomputed, and the
    // answers stay bit-identical because evaluations are pure.
    let served = sweep_through(&mut client, &specs, None);
    assert_eq!(served, reference, "post-readmission answers diverged");
    let reborn_scrape = scrape_json(reborn_addr);
    let answered = family_total(&reborn_scrape, "server_evals_ok_total");
    assert!(
        answered >= 1,
        "the reborn backend served none of the final sweep"
    );
    let recomputed = family_total(&reborn_scrape, "runtime_result_cache_misses_total");
    assert!(
        recomputed >= 1,
        "a cold-readmitted backend recomputed nothing"
    );
    println!(
        "readmit : backend 1 restarted on {reborn_addr} and readmitted cold — \
         it answered {answered} evals of the final sweep, {recomputed} recomputed"
    );

    let stats = router.stats();
    println!(
        "cluster : {} evals ok / {} routed, states {:?}",
        stats.evals_ok,
        stats.evals_routed,
        stats
            .backend_states
            .iter()
            .map(|s| s.as_str())
            .collect::<Vec<_>>(),
    );

    // The router's metrics op serves the whole cluster: its own cluster_*
    // families merged with the aggregated scrapes of every closed backend.
    let mut metrics_client = Client::connect_with(
        router.local_addr(),
        ClientOptions::with_deadline(Duration::from_secs(10)),
    )
    .expect("connect for the text scrape");
    let response = metrics_client
        .metrics(1, MetricsFormat::Text)
        .expect("text metrics op");
    let ResponseBody::Metrics(MetricsFrame::Text(page)) = response.body else {
        panic!("metrics text endpoint returned an unexpected frame");
    };
    validate_text(&page).expect("the cluster-wide exposition page validates");
    for family in [
        "cluster_backend_readmitted_total",
        "server_evals_ok_total",
        "runtime_result_cache_hits_total",
    ] {
        assert!(
            page.contains(family),
            "cluster-wide scrape is missing `{family}`"
        );
    }
    if let Some(path) = &dump_metrics {
        std::fs::write(path, &page).expect("write the dumped metrics page");
        println!("metrics : dumped {} exposition bytes to {path}", page.len());
    }

    // ---- Phase 4: degradation + drain --------------------------------------
    for backend in backends.iter_mut() {
        if let Some(server) = backend.take() {
            server.shutdown();
        }
    }
    // A short-deadline router over the now-dead addresses: the eval must
    // come back as a typed retryable shed, promptly, never a hang.
    let short = Router::bind(
        "127.0.0.1:0",
        &addrs,
        RouterOptions::default().with_request_deadline(Duration::from_millis(1_500)),
    )
    .expect("bind short-deadline router");
    let mut probe = Client::connect_with(
        short.local_addr(),
        ClientOptions::with_deadline(Duration::from_secs(30)),
    )
    .expect("connect to short-deadline router");
    let spec = &specs[0];
    let start = Instant::now();
    let response = probe
        .eval(u64::MAX, spec)
        .expect("the shed is an answer, not a hang");
    let elapsed = start.elapsed();
    let ResponseBody::Error(frame) = response.body else {
        panic!("expected a typed shed with all backends down, got {response:?}");
    };
    assert_eq!(frame.kind, ErrorKind::Unavailable);
    assert!(frame.kind.retryable());
    assert!(
        elapsed < Duration::from_secs(15),
        "the shed must be bounded"
    );
    short.shutdown();
    println!("degrade : all backends down → typed retryable `unavailable` in {elapsed:.2?}");

    let total = router.stats();
    router.shutdown();
    drop(client);
    println!("drain   : router shutdown completed with a client connected\n");

    println!(
        "OK: {} routed, {} ok, {} failovers, {} retries, {} shed — every answer bit-identical.",
        total.evals_routed, total.evals_ok, total.failovers, total.retries, total.shed_total
    );
}
