//! Cluster-trajectory benchmark: measures the fingerprint-routing
//! [`Router`] front-end against serving the same cache-warm mix from a
//! single loopback `Server`, plus the routing-primitive microbenches, and
//! emits a machine-readable `BENCH_cluster.json` on the shared trajectory
//! harness.
//!
//! ```sh
//! cargo run --release -p crosslight-bench --bin bench_cluster            # full run
//! cargo run --release -p crosslight-bench --bin bench_cluster -- --quick # CI smoke
//! cargo run --release -p crosslight-bench --bin bench_cluster -- --out path.json
//! ```
//!
//! The headline comparison is per request: `cluster_loopback_warm_mix`
//! is what a client pays for the warm scenario mix through the router and
//! three backends, and `server_direct_warm_mix` is what the same client
//! pays talking straight to one server; the two take turns, and the routed
//! entry records its speed-up over direct serving.  The routed path pays
//! one extra hop: the router pipelines each backend's share of the mix
//! over that backend's one link, with up to the link's `WINDOW` of
//! requests in flight, each under its window slot's index as its id
//! (exactly-once failover is kept by the link's window, not by pinning a
//! request to a connection), so the backends batch as they do for a
//! direct client.  That hop costs more than the 2× once targeted: three
//! full-mode runs of sequential windows on a 2-core host read 2.74–2.97×
//! direct serving, so no bar backs this ratio; the JSON records its
//! current value and spread.
//!
//! `cluster_failover_cold_recovery` times, one request at a time, the
//! first sweep after a backend is killed, restarted and readmitted (cold:
//! it recomputes its shards), against the same cycle's steady-state
//! sweep, `_steady`.  A sweep is `FAILOVER_SPECS` distinct design points,
//! so each p99 rests on about 500 samples rather than being a sweep's
//! maximum.  A round is one such cycle, and the recovery's speed-up
//! compares p99s; its bar is the recovery p99 within 2× of the steady
//! p99, a speed-up ≥ 0.5.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use crosslight_bench::{finish, measure, measure_turns, Args, Bar, BenchResult, Figure, ROUNDS};
use crosslight_cluster::backend::rendezvous_order;
use crosslight_cluster::{CircuitState, Router, RouterOptions};
use crosslight_core::variants::CrossLightVariant;
use crosslight_neural::zoo::PaperModel;
use crosslight_server::loadgen::{Client, LoadGenOptions};
use crosslight_server::server::{Server, ServerOptions};
use crosslight_server::wire::{EvalSpec, ResponseBody, WorkloadRef};
use crosslight_telemetry::{Histogram, HistogramSnapshot};

/// Recovery's p99 is at most 2× the steady p99 of the same cycle.
const RECOVERY_OVER_STEADY: Bar = Bar::AtLeast(0.5);

/// Distinct design points in one failover sweep.
const FAILOVER_SPECS: usize = 512;

fn main() -> ExitCode {
    let args = Args::parse("BENCH_cluster.json");
    let window_ms: u64 = if args.quick { 80 } else { 500 };
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
        .clamp(1, 4);
    let mut results = Vec::new();

    // The shared cache-warm scenario mix: the 64 distinct paper scenarios
    // of the loadgen's standard pool, materialized once.
    let specs: Vec<EvalSpec> = LoadGenOptions::paper_mix(1, 1, 0).scenarios;

    // ---- routing-primitive microbenches -----------------------------------
    let mut key = 0u64;
    results.push(measure("rendezvous_order_3_backends", window_ms, || {
        key = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        rendezvous_order(key, 3)
    }));

    // ---- the warm mix against one server, directly ------------------------
    let solo = Server::bind(
        "127.0.0.1:0",
        ServerOptions::default()
            .with_workers(workers)
            .with_queue_capacity(16 * 1024),
    )
    .expect("bind loopback server");
    let mut direct_client = Client::connect(solo.local_addr()).expect("connect to server");
    let mut direct_warm = direct_client
        .eval_pipelined(&specs, 0)
        .expect("direct warm pass succeeds");
    assert_eq!(direct_warm.len(), specs.len());
    // Pipelined answers arrive in completion order; index them by id.
    direct_warm.sort_by_key(|response| response.id);

    // ---- the same mix through the router over three backends --------------
    let backends: Vec<Server> = (0..3)
        .map(|_| {
            Server::bind(
                "127.0.0.1:0",
                ServerOptions::default()
                    .with_workers(workers)
                    .with_queue_capacity(16 * 1024),
            )
            .expect("bind backend")
        })
        .collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(Server::local_addr).collect();
    let router =
        Router::bind("127.0.0.1:0", &addrs, RouterOptions::default()).expect("bind router");
    let mut routed_client = Client::connect(router.local_addr()).expect("connect to router");

    // Warm pass: warms each backend's shard of the mix and verifies the
    // routed answers against the direct ones, bit for bit.
    let routed_warm = routed_client
        .eval_pipelined(&specs, 0)
        .expect("routed warm pass succeeds");
    assert_eq!(routed_warm.len(), specs.len());
    for response in &routed_warm {
        let id = response.id.expect("ids are echoed") as usize;
        let ResponseBody::Eval(frame) = &response.body else {
            panic!("unexpected routed response {response:?}");
        };
        let ResponseBody::Eval(direct_frame) = &direct_warm[id].body else {
            panic!("unexpected direct response {:?}", direct_warm[id]);
        };
        assert_eq!(
            frame.report, direct_frame.report,
            "routed response diverged from direct serving"
        );
    }

    // Routed and direct serving take turns, one pipelined mix at a time.
    let pipelined = |client: &mut Client| {
        client
            .eval_pipelined(&specs, 0)
            .expect("pipelined mix succeeds")
            .len() as u64
    };
    let [mut routed, direct] = measure_turns(
        ["cluster_loopback_warm_mix", "server_direct_warm_mix"],
        window_ms,
        [&mut || pipelined(&mut routed_client), &mut || {
            pipelined(&mut direct_client)
        }],
    );
    routed.compare(&direct, Figure::Mean, None);
    results.extend([routed, direct]);

    let stats = router.stats();
    assert_eq!(stats.shed_total, 0, "a warm loopback run must not shed");
    assert_eq!(stats.evals_failed, 0);
    println!(
        "router  : {} evals routed, {} failovers, {} retries during the measured runs",
        stats.evals_routed, stats.failovers, stats.retries
    );

    drop(routed_client);
    drop(direct_client);
    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
    solo.shutdown();

    // ---- failover recovery: a readmitted backend against steady state -----
    // Each of the rounds is a full cycle on a fresh cluster, timing
    // `FAILOVER_SPECS` distinct paper-variant design points per sweep.
    let specs: Vec<EvalSpec> = (0..FAILOVER_SPECS)
        .map(|i| {
            EvalSpec::crosslight(
                CrossLightVariant::all()[i % 4],
                (20, 150 + i / 16, 100, 60),
                16,
                WorkloadRef::Model(PaperModel::all()[i / 4 % 4]),
            )
        })
        .collect();
    let (mut steady, mut recovery) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let [s, r] = failover_round(&specs, workers);
        steady.push(s);
        recovery.push(r);
    }
    let steady = BenchResult::from_rounds("cluster_failover_cold_recovery_steady", &steady);
    let mut recovery = BenchResult::from_rounds("cluster_failover_cold_recovery", &recovery);
    recovery.compare(&steady, Figure::P99, Some(RECOVERY_OVER_STEADY));
    results.extend([steady, recovery]);
    finish(&args, "crosslight-bench-cluster/v2", &results)
}

/// Runs one full failover cycle, a round of the failover pair — warm the
/// cluster, serially time a steady-state sweep, kill one of the two
/// replicated backends, sweep through the outage, restart it, wait for
/// readmission, and serially time the first post-recovery sweep, in which
/// the readmitted backend recomputes its shards — returning the steady
/// and recovery per-request nanoseconds.
fn failover_round(specs: &[EvalSpec], workers: usize) -> [HistogramSnapshot; 2] {
    let bind_backend = || {
        Server::bind(
            "127.0.0.1:0",
            ServerOptions::default()
                .with_workers(workers)
                .with_queue_capacity(16 * 1024),
        )
        .expect("bind backend")
    };
    let wait_for = |what: &str, mut cond: Box<dyn FnMut() -> bool + '_>| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    };

    let [keeper, victim] = [bind_backend(), bind_backend()];
    let addrs = [keeper.local_addr(), victim.local_addr()];
    // Each backend has one link, so the post-recovery redial is a single,
    // explicitly primed event instead of a smear across the sweep.
    let router = Router::bind(
        "127.0.0.1:0",
        &addrs,
        RouterOptions::default().with_replication(2).with_health(
            Duration::from_millis(10),
            Duration::from_millis(250),
            Duration::from_millis(50),
        ),
    )
    .expect("bind router");
    let mut client = Client::connect(router.local_addr()).expect("connect to router");

    // Warm both replicas of every shard, then time the steady-state sweep
    // one request at a time (per-request latency, not pipelined throughput).
    for pass in 0..2u64 {
        let warm = client
            .eval_pipelined(specs, pass * specs.len() as u64)
            .expect("warm sweep succeeds");
        assert_eq!(warm.len(), specs.len());
    }
    let timed = |client: &mut Client, id: u64, spec: &EvalSpec, into: &Histogram| {
        let start = Instant::now();
        let response = client.eval(id, spec).expect("timed eval");
        into.record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        response
    };
    let steady = Histogram::new();
    for (i, spec) in specs.iter().enumerate() {
        let response = timed(&mut client, 1_000 + i as u64, spec, &steady);
        assert!(
            matches!(response.body, ResponseBody::Eval(_)),
            "steady sweep answered {response:?}"
        );
    }

    // Kill one replica, push a sweep through the outage so the breaker
    // trips, and wait for it to open.
    victim.shutdown();
    let outage = client
        .eval_pipelined(specs, 10_000)
        .expect("outage sweep fails over to the survivor");
    assert_eq!(outage.len(), specs.len());
    wait_for(
        "the breaker to open",
        Box::new(|| router.stats().backend_states[1] == CircuitState::Open),
    );

    // Restart it at a fresh address and wait for readmission.
    let reborn = bind_backend();
    router.update_backend_addr(1, reborn.local_addr());
    wait_for(
        "the reborn backend to be readmitted",
        Box::new(|| {
            let stats = router.stats();
            stats.backend_states[1] == CircuitState::Closed && stats.readmitted[1] >= 1
        }),
    );

    // Prime the redialed link with the first two specs so
    // the timed sweep measures serving cost, not TCP connect cost, then
    // serially time the rest as the first post-recovery sweep.
    let primer = client
        .eval_pipelined(&specs[..2.min(specs.len())], 20_000)
        .expect("connection priming succeeds");
    assert!(!primer.is_empty());
    let recovery = Histogram::new();
    for (i, spec) in specs.iter().enumerate().skip(2) {
        let response = timed(&mut client, 30_000 + i as u64, spec, &recovery);
        assert!(
            matches!(response.body, ResponseBody::Eval(_)),
            "recovery sweep answered {response:?}"
        );
    }

    drop(client);
    router.shutdown();
    keeper.shutdown();
    reborn.shutdown();
    [steady.snapshot(), recovery.snapshot()]
}
