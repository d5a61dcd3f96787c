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
//! The headline comparison is per-request: `server_direct_warm_mix` is
//! what a client pays talking straight to one server, and
//! `cluster_loopback_warm_mix` is what the same client pays for the same
//! scenario stream through the router and three backends.  The routed
//! path pays one extra hop: the router pipelines each backend's share of
//! the mix over that backend's one link, with up to the link's `WINDOW`
//! of requests in flight, each under its window slot's index as its id
//! (exactly-once failover is kept by the link's window, not by pinning a
//! request to a connection), so the backends batch as they do for a
//! direct client.  The target for
//! this subsystem is the routed path within 2× of direct serving on the
//! warm mix; the measured ratio is embedded in the JSON as
//! `speedup_vs_baseline` of `cluster_loopback_warm_mix` (a value ≥ 0.5
//! means within 2×).

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crosslight_bench::{measure, print_speedups, render_trajectory_json, BenchResult};
use crosslight_cluster::backend::rendezvous_order;
use crosslight_cluster::{CircuitState, Router, RouterOptions};
use crosslight_server::loadgen::{Client, LoadGenOptions};
use crosslight_server::server::{Server, ServerOptions};
use crosslight_server::wire::{EvalSpec, ResponseBody};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_cluster.json".to_string());
    let window_ms: u64 = if quick { 80 } else { 500 };
    let mode = if quick { "quick" } else { "full" };
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
        .clamp(1, 4);
    let mut results = Vec::new();

    // The shared cache-warm scenario mix: the 64 distinct paper scenarios
    // of the loadgen's standard pool, materialized once.
    let specs: Vec<EvalSpec> = LoadGenOptions::paper_mix(1, 1, 0).scenarios.clone();

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

    let direct = measure("server_direct_warm_mix_batch", window_ms, || {
        direct_client
            .eval_pipelined(&specs, 0)
            .expect("pipelined mix succeeds")
    });
    let direct_per_req_ns = direct.ns_per_iter / specs.len() as f64;
    results.push(BenchResult {
        name: "server_direct_warm_mix".to_string(),
        ns_per_iter: direct_per_req_ns,
        iterations: direct.iterations,
        // Scaling a distribution by a constant scales its quantiles, so the
        // batch percentiles divided by the mix size are the per-request ones.
        p50_ns: direct.p50_ns.map(|p| p / specs.len() as f64),
        p99_ns: direct.p99_ns.map(|p| p / specs.len() as f64),
    });

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

    let routed = measure("cluster_loopback_warm_mix_batch", window_ms, || {
        routed_client
            .eval_pipelined(&specs, 0)
            .expect("pipelined mix succeeds")
    });
    let routed_per_req_ns = routed.ns_per_iter / specs.len() as f64;
    results.push(BenchResult {
        name: "cluster_loopback_warm_mix".to_string(),
        ns_per_iter: routed_per_req_ns,
        iterations: routed.iterations,
        p50_ns: routed.p50_ns.map(|p| p / specs.len() as f64),
        p99_ns: routed.p99_ns.map(|p| p / specs.len() as f64),
    });

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

    // ---- failover recovery: cold vs warm readmission ----------------------
    // The same kill → outage → restart → readmit cycle, measured twice:
    // once with warm-state handoff disabled (the readmitted backend
    // recomputes its shards) and once enabled (its caches are restored
    // from the surviving replica before it takes traffic).  Each phase
    // records the serially-timed first post-recovery sweep with the same
    // run's steady-state serial sweep as its baseline, so the JSON's
    // `speedup_vs_baseline` is the recovery-vs-steady cost ratio; the
    // acceptance bar is warm-recovery p99 within 2× the steady warm p99.
    let mut failover_baselines: Vec<(String, f64)> = Vec::new();
    for (name, handoff) in [
        ("cluster_failover_cold_recovery", false),
        ("cluster_failover_warm_recovery", true),
    ] {
        // One cycle yields ~62 recovery samples, few enough that p99 is
        // effectively the max and dominated by scheduler noise; pooling
        // several full cycles keeps the percentiles about the protocol.
        let cycles = if quick { 1 } else { 3 };
        let (mut steady, mut recovery) = (Vec::new(), Vec::new());
        for _ in 0..cycles {
            let (s, r) = failover_recovery_samples(&specs, workers, handoff);
            steady.extend(s);
            recovery.extend(r);
        }
        let steady_result = result_from_samples(&format!("{name}_steady"), &steady);
        let recovery_result = result_from_samples(name, &recovery);
        println!(
            "{name}: steady p99 {:.0} ns/req, first post-recovery sweep p99 {:.0} ns/req \
             ({:.2}× steady)",
            steady_result.p99_ns.unwrap_or(f64::NAN),
            recovery_result.p99_ns.unwrap_or(f64::NAN),
            recovery_result.p99_ns.unwrap_or(f64::NAN) / steady_result.p99_ns.unwrap_or(f64::NAN),
        );
        failover_baselines.push((name.to_string(), steady_result.ns_per_iter));
        results.push(steady_result);
        results.push(recovery_result);
    }

    // The routed-vs-direct ratio, recorded as a same-run baseline so the
    // JSON's `speedup_vs_baseline` field *is* the ratio (≥ 0.5 ⇔ within
    // 2×).
    let mut baselines: Vec<(&str, f64)> = vec![("cluster_loopback_warm_mix", direct_per_req_ns)];
    for (name, ns) in &failover_baselines {
        baselines.push((name.as_str(), *ns));
    }
    let ratio = routed_per_req_ns / direct_per_req_ns;
    println!(
        "\ncluster loopback {routed_per_req_ns:.0} ns/req vs direct server \
         {direct_per_req_ns:.0} ns/req → {ratio:.2}× direct cost (target: ≤ 2×)"
    );

    let json = render_trajectory_json(
        "crosslight-bench-cluster/v1",
        mode,
        "5c1afd5 (pre-cluster seed: one server per client; the recorded baseline of \
         cluster_loopback_warm_mix is server_direct_warm_mix measured in this same run, \
         so speedup_vs_baseline is the routed-vs-direct cost ratio)",
        &baselines,
        &results,
    );
    std::fs::write(&out_path, &json).expect("writing the JSON report succeeds");
    println!("\nwrote {out_path} ({mode} mode)");
    print_speedups(&baselines, &results);
}

/// Folds per-request latency samples (nanoseconds) into a [`BenchResult`]:
/// the mean as `ns_per_iter` and the p50/p99 of the sample distribution.
fn result_from_samples(name: &str, samples: &[f64]) -> BenchResult {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let percentile = |q: f64| -> Option<f64> {
        let last = sorted.len().checked_sub(1)?;
        Some(sorted[((last as f64) * q).round() as usize])
    };
    BenchResult {
        name: name.to_string(),
        ns_per_iter: samples.iter().sum::<f64>() / samples.len().max(1) as f64,
        iterations: samples.len() as u64,
        p50_ns: percentile(0.50),
        p99_ns: percentile(0.99),
    }
}

/// Runs one full failover cycle — warm the cluster, serially time a
/// steady-state sweep, kill one of the two replicated backends, sweep
/// through the outage, restart it, wait for readmission, and serially
/// time the first post-recovery sweep — returning the (steady, recovery)
/// per-request samples in nanoseconds.  With `handoff` the readmitted
/// backend's caches are restored from the survivor before it takes
/// traffic; without it the same sweep pays the recompute cliff.
fn failover_recovery_samples(
    specs: &[EvalSpec],
    workers: usize,
    handoff: bool,
) -> (Vec<f64>, Vec<f64>) {
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
        RouterOptions::default()
            .with_replication(2)
            .with_handoff(handoff)
            .with_health(
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
    let mut steady = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let start = Instant::now();
        let response = client.eval(1_000 + i as u64, spec).expect("steady eval");
        steady.push(start.elapsed().as_nanos() as f64);
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

    // Restart it at a fresh address and wait for readmission — warm
    // (handoff restores its caches first) or cold, per the flag.
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
    let mut recovery = Vec::with_capacity(specs.len().saturating_sub(2));
    for (i, spec) in specs.iter().enumerate().skip(2) {
        let start = Instant::now();
        let response = client.eval(30_000 + i as u64, spec).expect("recovery eval");
        recovery.push(start.elapsed().as_nanos() as f64);
        assert!(
            matches!(response.body, ResponseBody::Eval(_)),
            "recovery sweep answered {response:?}"
        );
    }

    drop(client);
    router.shutdown();
    keeper.shutdown();
    reborn.shutdown();
    (steady, recovery)
}
