//! The wire workloads (`warm_mix`, `dse_sweep`, `routed_mix`): a closed loop
//! of pipelined JSON-lines clients against a `Server` or a `Router` over
//! two backends, plus the out-of-band replays behind their per-layer
//! ledger.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crosslight_cluster::backend::rendezvous_order;
use crosslight_cluster::router::{Router, RouterOptions, RouterStats};
use crosslight_core::cache::ModelCache;
use crosslight_core::config::CrossLightConfig;
use crosslight_core::simulator::{CrossLightSimulator, SimulationReport};
use crosslight_neural::workload::NetworkWorkload;
use crosslight_runtime::pool::{EvalService, RuntimeOptions};
use crosslight_runtime::request::EvalRequest;
use crosslight_server::loadgen::{Client, ClientOptions};
use crosslight_server::server::{Server, ServerOptions};
use crosslight_server::wire::{self, EvalSpec, Request, RequestBody, Response, ResponseBody};
use crosslight_telemetry::{HistogramSnapshot, Phase, RegistrySnapshot};

use crate::gen::{MixPlan, Source, SweepPlan};
use crate::layers::{self, p50_call_us, Layers};
use crate::stats::{self, SliceRecorder, WindowFigures};
use crate::{Outcome, Workload};

/// Client connections (and client threads): one per core on the reference
/// 2-core host.
pub const CONNECTIONS: usize = 2;
/// Requests each connection keeps outstanding.
pub const WINDOW: usize = 32;
/// Pre-warm requests pipelined at once.
const PREWARM_CHUNK: usize = 128;
/// Set-ups timed before the measured window and as many after it; with the
/// one that serves the run, `setup_s` is the median of `2 * SETUP_REPS + 1`.
const SETUP_REPS: usize = 5;
/// On `dse_sweep`, `peak_rss_mb` is read when this many answers have
/// arrived, so it measures the result cache at a fixed number of inserted
/// entries rather than at however many a faster program fits in the run.
const SWEEP_RSS_AT_ANSWERS: u64 = 150_000;
/// Requests (with their answers) captured per connection in a traced window
/// for the codec and simulator replays.
const CAPTURE_PER_CONN: usize = 10_000;
/// Length of one time slice of a window (see `stats::WindowFigures`).
const SLICE_S: f64 = 0.25;
/// Bound on every client socket operation, so a wedged server fails the
/// run instead of hanging it.
const CLIENT_DEADLINE: Duration = Duration::from_secs(30);

/// What sits behind the clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Topology {
    /// One `Server` with default options.
    Direct,
    /// A default `Router` over two single-worker `Server`s.
    Routed,
}

/// The servers, router and connected clients of one workload.
struct Stack {
    servers: Vec<Server>,
    router: Option<Router>,
    clients: Vec<Client>,
}

impl Stack {
    /// Binds the stack, connects the clients and, when `prewarm` is
    /// non-empty, evaluates every prewarm spec once through the front door.
    fn build(topology: Topology, prewarm: &[EvalSpec]) -> Result<Self, String> {
        let io = |what: &'static str| move |err: std::io::Error| format!("{what}: {err}");
        let (servers, router) = match topology {
            Topology::Direct => (
                vec![Server::bind("127.0.0.1:0", ServerOptions::default())
                    .map_err(io("binding the server"))?],
                None,
            ),
            Topology::Routed => {
                let servers = (0..2)
                    .map(|_| {
                        Server::bind("127.0.0.1:0", ServerOptions::default().with_workers(1))
                            .map_err(io("binding a backend"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let addrs: Vec<SocketAddr> = servers.iter().map(Server::local_addr).collect();
                let router = Router::bind("127.0.0.1:0", &addrs, RouterOptions::default())
                    .map_err(io("binding the router"))?;
                (servers, Some(router))
            }
        };
        let entry = router
            .as_ref()
            .map_or_else(|| servers[0].local_addr(), Router::local_addr);
        let clients = (0..CONNECTIONS)
            .map(|_| {
                Client::connect_with(entry, ClientOptions::with_deadline(CLIENT_DEADLINE))
                    .map_err(io("connecting a client"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut stack = Self {
            servers,
            router,
            clients,
        };
        // Pipelined in chunks well under the server's admission capacity,
        // so the pre-warm is never shed.
        for chunk in prewarm.chunks(PREWARM_CHUNK) {
            let answers = stack.clients[0]
                .eval_pipelined(chunk, 1 << 50)
                .map_err(io("pre-warming"))?;
            if let Some(bad) = answers
                .iter()
                .find(|a| !matches!(a.body, ResponseBody::Eval(_)))
            {
                return Err(format!("pre-warm answer is not a report: {bad:?}"));
            }
        }
        Ok(stack)
    }

    fn server_snapshots(&self) -> Vec<RegistrySnapshot> {
        self.servers.iter().map(Server::metrics_snapshot).collect()
    }

    fn router_view(&self) -> Option<(RegistrySnapshot, RouterStats)> {
        self.router
            .as_ref()
            .map(|router| (router.metrics_snapshot(), router.stats()))
    }

    /// Gauges that must read zero once the load has stopped and the
    /// clients have hung up, with the ones that do not.
    fn busy_gauges(&self) -> Result<Vec<String>, String> {
        let mut checks: Vec<(RegistrySnapshot, &[&str])> = self
            .server_snapshots()
            .into_iter()
            .map(|snapshot| {
                let names: &[&str] = &[
                    "server_admission_in_flight",
                    "server_write_queue_depth",
                    "runtime_queue_depth",
                ];
                (snapshot, names)
            })
            .collect();
        if let Some((snapshot, _)) = self.router_view() {
            checks.push((
                snapshot,
                &["cluster_queue_depth", "cluster_connections_active"],
            ));
        }
        let mut busy = Vec::new();
        for (snapshot, names) in &checks {
            for name in *names {
                let values = stats::readings(snapshot, name);
                if values.is_empty() {
                    return Err(format!("gauge family `{name}` is missing"));
                }
                if values.iter().any(|&v| v != 0) {
                    busy.push(format!("{name}={values:?}"));
                }
            }
        }
        Ok(busy)
    }

    /// Hangs up every client, then waits (bounded) for every load gauge to
    /// return to zero.
    fn quiesce(&mut self) -> Result<(), String> {
        self.clients.clear();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let busy = self.busy_gauges()?;
            if busy.is_empty() {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(format!("gauges not back to zero after quiesce: {busy:?}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn shutdown(self) {
        drop(self.clients);
        if let Some(router) = self.router {
            router.shutdown();
        }
        for server in self.servers {
            server.shutdown();
        }
    }
}

/// Which answers a connection keeps for the post-run correctness check.
#[derive(Debug, Clone)]
struct Keeper {
    /// For small pools: keep the first answer of every key.
    first_of_key: Option<Vec<bool>>,
    /// Also keep every `stride`-th answer …
    stride: u64,
    /// … up to this many in total.
    cap: usize,
}

impl Keeper {
    fn keep(&mut self, key: u32, answered: u64, kept: usize) -> bool {
        let first = self
            .first_of_key
            .as_mut()
            .is_some_and(|seen| !std::mem::replace(&mut seen[key as usize], true));
        first || (answered.is_multiple_of(self.stride) && kept < self.cap)
    }
}

/// What one connection saw in one window.
#[derive(Debug, Default)]
struct ConnRun {
    attempted: u64,
    ok: u64,
    /// Failed operations by cause (error-frame kind, `transport`, `protocol`).
    failures: BTreeMap<String, u64>,
    kept: Vec<(u32, SimulationReport)>,
    captured: Vec<(Request, Response)>,
    /// Set once the connection failed; it sends nothing more.
    broken: bool,
    /// Set once the request source ran dry.
    exhausted: bool,
}

impl ConnRun {
    fn fail(&mut self, cause: &str, n: u64) {
        *self.failures.entry(cause.to_string()).or_default() += n;
    }

    fn break_off(&mut self, what: &str, err: &dyn std::fmt::Display, lost: usize) {
        self.fail("transport", lost as u64);
        self.broken = true;
        eprintln!("{what} failed: {err}");
    }
}

/// Reads peak resident memory once, when the answer count across every
/// connection reaches `at`.
#[derive(Debug)]
struct RssProbe {
    at: u64,
    answered: AtomicU64,
    reading: OnceLock<Result<f64, String>>,
}

impl RssProbe {
    fn new(at: u64) -> Self {
        Self {
            at,
            answered: AtomicU64::new(0),
            reading: OnceLock::new(),
        }
    }

    fn answered(&self) {
        if self.answered.fetch_add(1, Ordering::Relaxed) + 1 == self.at {
            let _ = self.reading.set(stats::peak_rss_mb());
        }
    }
}

/// Drives one connection in a closed loop: `WINDOW` requests outstanding
/// until `deadline` (or until its source runs dry), then drains what is
/// still in flight.
#[allow(clippy::too_many_arguments)]
fn drive(
    client: &mut Client,
    source: &mut Source<'_>,
    run: &mut ConnRun,
    keeper: &mut Keeper,
    next_id: &mut u64,
    recorder: &SliceRecorder,
    probe: &RssProbe,
    deadline: Instant,
    capture: usize,
) {
    if run.broken {
        return;
    }
    let mut pending: HashMap<u64, (Instant, u32)> = HashMap::with_capacity(2 * WINDOW);
    let mut capturing: HashMap<u64, Request> = HashMap::new();
    let mut batch: Vec<(u64, u32)> = Vec::with_capacity(WINDOW);
    let mut now = Instant::now();
    loop {
        if now < deadline && !run.exhausted {
            while pending.len() + batch.len() < WINDOW {
                let Some((key, spec)) = source.next_request() else {
                    run.exhausted = true;
                    break;
                };
                let request = Request {
                    id: *next_id,
                    body: RequestBody::Eval(spec),
                };
                *next_id += 1;
                if let Err(err) = client.send(&request) {
                    return run.break_off("send", &err, pending.len() + batch.len() + 1);
                }
                if run.attempted < capture as u64 {
                    capturing.insert(request.id, request.clone());
                }
                run.attempted += 1;
                batch.push((request.id, key));
            }
            if let Err(err) = client.flush() {
                return run.break_off("flush", &err, pending.len() + batch.len());
            }
            let sent = Instant::now();
            pending.extend(batch.drain(..).map(|(id, key)| (id, (sent, key))));
        }
        if pending.is_empty() {
            return;
        }
        let answer = match client.recv() {
            Ok(answer) => answer,
            Err(err) => return run.break_off("recv", &err, pending.len()),
        };
        now = Instant::now();
        let Some((sent, key)) = answer.id.and_then(|id| pending.remove(&id)) else {
            let err = format!("answer for no outstanding request: {answer:?}");
            return run.break_off("correlation", &err, pending.len() + 1);
        };
        recorder.record(now, now.duration_since(sent));
        match &answer.body {
            ResponseBody::Eval(frame) => {
                run.ok += 1;
                probe.answered();
                if keeper.keep(key, run.ok, run.kept.len()) {
                    run.kept.push((key, frame.report));
                }
            }
            ResponseBody::Error(frame) => run.fail(frame.kind.as_str(), 1),
            _ => run.fail("protocol", 1),
        }
        if let Some(request) = answer.id.and_then(|id| capturing.remove(&id)) {
            run.captured.push((request, answer));
        }
    }
}

/// One measured window over every connection.
struct Window {
    figures: WindowFigures,
    attempted: u64,
    ok: u64,
    failures: BTreeMap<String, u64>,
    kept: Vec<(u32, SimulationReport)>,
    captured: Vec<(Request, Response)>,
    /// Whether a connection's request source ran dry before the deadline.
    exhausted: bool,
}

/// The load state that carries over from one window to the next.
struct Load<'a> {
    sources: Vec<Source<'a>>,
    keepers: Vec<Keeper>,
    next_ids: Vec<u64>,
    probe: RssProbe,
}

/// Measures one unbroken window of `seconds` over every connection.
fn run_window(clients: &mut [Client], load: &mut Load<'_>, seconds: f64, capture: usize) -> Window {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let steal = stats::StealClock::start(start, SLICE_S);
    let recorders: Vec<SliceRecorder> = (0..clients.len())
        .map(|_| SliceRecorder::new(start, seconds, SLICE_S))
        .collect();
    let mut runs: Vec<ConnRun> = (0..clients.len()).map(|_| ConnRun::default()).collect();
    let probe = &load.probe;
    std::thread::scope(|scope| {
        for (((((client, source), run), keeper), next_id), recorder) in clients
            .iter_mut()
            .zip(load.sources.iter_mut())
            .zip(runs.iter_mut())
            .zip(load.keepers.iter_mut())
            .zip(load.next_ids.iter_mut())
            .zip(&recorders)
        {
            scope.spawn(move || {
                drive(
                    client, source, run, keeper, next_id, recorder, probe, deadline, capture,
                );
            });
        }
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut window = Window {
        figures: stats::window_figures(
            &SliceRecorder::merged(&recorders),
            elapsed_s,
            SLICE_S,
            &steal.finish(),
        ),
        attempted: 0,
        ok: 0,
        failures: BTreeMap::new(),
        kept: Vec::new(),
        captured: Vec::new(),
        exhausted: false,
    };
    for run in runs {
        window.attempted += run.attempted;
        window.ok += run.ok;
        for (cause, n) in run.failures {
            *window.failures.entry(cause).or_default() += n;
        }
        window.kept.extend(run.kept);
        window.captured.extend(run.captured);
        window.exhausted |= run.exhausted;
    }
    window
}

/// The Table I workloads, indexed as `PaperModel::all()`.
pub fn paper_workloads() -> [Arc<NetworkWorkload>; 4] {
    crosslight_neural::zoo::PaperModel::all().map(|model| {
        Arc::new(NetworkWorkload::from_spec(&model.spec()).expect("Table I workloads are valid"))
    })
}

/// Serial in-process evaluation of `specs` on a one-worker `EvalService`.
fn reference_reports(specs: &[EvalSpec]) -> Result<Vec<SimulationReport>, String> {
    let table = paper_workloads();
    let service = EvalService::new(RuntimeOptions::default().with_workers(1));
    let reports = specs
        .iter()
        .enumerate()
        .map(|(id, spec)| {
            let request = spec
                .to_eval_request(id as u64, &table)
                .map_err(|frame| format!("reference spec rejected: {}", frame.detail))?;
            service
                .submit(request)
                .map(|response| response.report)
                .map_err(|err| format!("reference evaluation failed: {err}"))
        })
        .collect();
    service.shutdown();
    reports
}

/// Bit-level equality (the `Debug` form of an `f64` round-trips exactly).
pub fn bit_identical<T: std::fmt::Debug>(a: &T, b: &T) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

enum Plan {
    Mix(MixPlan),
    Sweep(SweepPlan),
}

impl Plan {
    fn sources(&self) -> Vec<Source<'_>> {
        (0..CONNECTIONS)
            .map(|conn| match self {
                Plan::Mix(plan) => Source::Mix(plan.stream(conn)),
                Plan::Sweep(plan) => Source::Sweep(plan.stream(conn)),
            })
            .collect()
    }

    fn keeper(&self) -> Keeper {
        match self {
            Plan::Mix(plan) => Keeper {
                first_of_key: Some(vec![false; plan.pool.len()]),
                stride: 97,
                cap: 2048,
            },
            Plan::Sweep(_) => Keeper {
                first_of_key: None,
                stride: 131,
                cap: 2048,
            },
        }
    }

    fn spec(&self, key: u32) -> EvalSpec {
        match self {
            Plan::Mix(plan) => plan.pool[key as usize].clone(),
            Plan::Sweep(plan) => plan.spec(key),
        }
    }
}

/// Checks every kept answer against serial in-process evaluation; returns
/// how many kept answers differ.
fn check_answers(plan: &Plan, kept: &[(u32, SimulationReport)]) -> Result<u64, String> {
    let mut keys: Vec<u32> = kept.iter().map(|(key, _)| *key).collect();
    keys.sort_unstable();
    keys.dedup();
    let specs: Vec<EvalSpec> = keys.iter().map(|&key| plan.spec(key)).collect();
    let reference: HashMap<u32, SimulationReport> =
        keys.into_iter().zip(reference_reports(&specs)?).collect();
    Ok(kept
        .iter()
        .filter(|(key, report)| !bit_identical(report, &reference[key]))
        .count() as u64)
}

/// Runs one wire workload and returns its outcome.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let (topology, plan) = match workload {
        Workload::WarmMix => (Topology::Direct, Plan::Mix(MixPlan::new(seed))),
        Workload::RoutedMix => (Topology::Routed, Plan::Mix(MixPlan::new(seed))),
        Workload::DseSweep => (
            Topology::Direct,
            Plan::Sweep(SweepPlan::new(seed, CONNECTIONS)),
        ),
        Workload::DseLocal => unreachable!("dse_local has no wire"),
    };
    let prewarm: Vec<EvalSpec> = match &plan {
        Plan::Mix(plan) => plan.pool.clone(),
        Plan::Sweep(plan) => plan.model_prewarm(),
    };

    // Set-up is timed on its own, never next to the load: fresh stacks
    // built and torn down before the run's stack and again after it.
    let mut setup_times = Vec::new();
    let mut set_up = || -> Result<Stack, String> {
        let started = Instant::now();
        let stack = Stack::build(topology, &prewarm)?;
        setup_times.push(started.elapsed().as_secs_f64());
        Ok(stack)
    };
    for _ in 0..SETUP_REPS {
        set_up()?.shutdown();
    }
    let mut stack = set_up()?;

    let rss_at = match plan {
        Plan::Sweep(_) => SWEEP_RSS_AT_ANSWERS,
        Plan::Mix(_) => u64::MAX,
    };
    let mut load = Load {
        sources: plan.sources(),
        keepers: vec![plan.keeper(); CONNECTIONS],
        next_ids: (0..CONNECTIONS as u64).map(|c| c << 40).collect(),
        probe: RssProbe::new(rss_at),
    };
    // Untraced: the whole run is one window.  Traced: an untraced half for
    // the comparison figure, then a traced half that also captures requests
    // and answers for the replays and reads the layers' counters around it.
    let measured_s = if trace { seconds / 2.0 } else { seconds };
    let untraced = run_window(&mut stack.clients, &mut load, measured_s, 0);
    let peak_rss_mb = match load.probe.reading.get() {
        Some(reading) => reading.clone(),
        None => stats::peak_rss_mb(),
    };
    let rss_answers = load.probe.answered.load(Ordering::Relaxed).min(rss_at);
    let mut traced = None;
    if trace {
        let servers_before = stack.server_snapshots();
        let router_before = stack.router_view();
        let window = run_window(&mut stack.clients, &mut load, measured_s, CAPTURE_PER_CONN);
        traced = Some((
            servers_before,
            router_before,
            window,
            stack.server_snapshots(),
            stack.router_view(),
        ));
    }
    drop(load);

    let quiesce = stack.quiesce();
    stack.shutdown();
    for _ in 0..SETUP_REPS {
        set_up()?.shutdown();
    }

    let mut outcome = Outcome::new(workload, seed, seconds, trace);
    match peak_rss_mb {
        Ok(mb) => outcome.peak_rss_mb = mb,
        Err(err) => outcome.problem(err),
    }
    outcome.detail("peak_rss_at_answers", rss_answers.to_string());
    outcome.setup_s = stats::median(&mut setup_times.clone());
    outcome.detail("setup_reps_s", format!("{setup_times:?}"));
    outcome.detail("connections", CONNECTIONS.to_string());
    outcome.detail("window", WINDOW.to_string());
    if let Plan::Sweep(plan) = &plan {
        outcome.detail("pool_keys", plan.pool_len().to_string());
    }
    if let Err(err) = quiesce {
        outcome.problem(err);
    }
    let mut windows = vec![("untraced", &untraced)];
    if let Some((_, _, window, _, _)) = &traced {
        windows.push(("traced", window));
    }
    for (label, window) in windows {
        outcome.attempted += window.attempted;
        outcome.correct += window.ok;
        for (cause, n) in &window.failures {
            outcome.problem(format!("{label}: {n} failed operations ({cause})"));
        }
        let wrong = check_answers(&plan, &window.kept)?;
        outcome.correct -= wrong.min(outcome.correct);
        if wrong > 0 {
            outcome.problem(format!(
                "{label}: {wrong} answers differ from serial evaluation"
            ));
        }
        outcome.detail(
            &format!("{label}_checked_answers"),
            window.kept.len().to_string(),
        );
        outcome.detail(
            &format!("{label}_latency_samples"),
            window.figures.samples.to_string(),
        );
        if window.exhausted {
            outcome.detail(
                &format!("{label}_pool_exhausted"),
                "the window ended when the request pool ran dry".into(),
            );
        }
    }
    outcome.figures = untraced.figures.clone();

    if let Some((servers_before, router_before, window, servers_after, router_after)) = traced {
        outcome.layers = Some(wire_layers(
            &window,
            untraced.figures.throughput_rps,
            &servers_before,
            &servers_after,
            router_before.zip(router_after),
        ));
    }
    Ok(outcome)
}

/// What histogram `name` recorded between two snapshots.
fn recorded(
    before: &RegistrySnapshot,
    after: &RegistrySnapshot,
    name: &str,
    labels: &[(&str, &str)],
) -> HistogramSnapshot {
    stats::histogram_delta(
        &stats::histogram(after, name, labels),
        &stats::histogram(before, name, labels),
    )
}

/// Median of a nanosecond histogram, in µs.
fn p50_us(h: &HistogramSnapshot) -> f64 {
    stats::histogram_quantile(h, 0.5) * 1e-3
}

/// The router's registry and headline counters at one instant.
type RouterView = (RegistrySnapshot, RouterStats);

/// Per-layer metrics and the ledger of a traced wire window.
fn wire_layers(
    window: &Window,
    untraced_rps: f64,
    servers_before: &[RegistrySnapshot],
    servers_after: &[RegistrySnapshot],
    router: Option<(RouterView, RouterView)>,
) -> Layers {
    let mut out = Layers::default();
    let e2e_us = window.figures.latency_p50_us;
    let requests: Vec<&Request> = window.captured.iter().map(|(r, _)| r).collect();
    let answers: Vec<&Response> = window.captured.iter().map(|(_, a)| a).collect();
    let request_lines: Vec<String> = requests.iter().map(|r| wire::encode_request(r)).collect();
    let answer_lines: Vec<String> = answers.iter().map(|a| wire::encode_response(a)).collect();

    // client: the reference client's codec work per request.
    out.set(
        "client.encode_us",
        p50_call_us(&requests, |r| wire::encode_request(r)),
    );
    out.set(
        "client.decode_us",
        p50_call_us(&answer_lines, |l| wire::decode_response(l)),
    );
    // wire: the server's codec work per request.
    out.set(
        "wire.decode_request_us",
        p50_call_us(&request_lines, |l| wire::decode_request(l)),
    );
    out.set(
        "wire.encode_response_us",
        p50_call_us(&answers, |a| wire::encode_response(a)),
    );

    // server: its own phase histograms over the traced window, merged over
    // every server of the stack.
    let before = RegistrySnapshot::aggregated(servers_before.to_vec());
    let after = RegistrySnapshot::aggregated(servers_after.to_vec());
    let server_hist = |name: &str, labels: &[(&str, &str)]| recorded(&before, &after, name, labels);
    let request_us = p50_us(&server_hist("server_request_ns", &[]));
    let mut phase_us = [0.0; Phase::ALL.len()];
    for phase in Phase::ALL {
        let us = p50_us(&server_hist(
            "server_phase_ns",
            &[("phase", phase.as_str())],
        ));
        out.set(&format!("server.phase_us.{}", phase.as_str()), us);
        phase_us[phase.index()] = us;
    }
    out.set("server.request_us", request_us);
    out.set(
        "server.unattributed_us",
        request_us - phase_us.iter().sum::<f64>(),
    );
    out.set("server.transport_us", e2e_us - request_us);
    out.set(
        "server.batch_size_mean",
        server_hist("server_batch_size", &[]).mean(),
    );
    out.set(
        "server.shed",
        stats::counter(&after, "server_shed_total") - stats::counter(&before, "server_shed_total"),
    );

    // runtime: queue wait, cache probe, hit ratio, worker balance.
    out.set(
        "runtime.queue_wait_us",
        p50_us(&server_hist("runtime_queue_wait_ns", &[])),
    );
    out.set(
        "runtime.cache_lookup_us",
        p50_us(&server_hist("runtime_cache_lookup_ns", &[])),
    );
    let delta = |name: &str| stats::counter(&after, name) - stats::counter(&before, name);
    let (hits, misses) = (
        delta("runtime_result_cache_hits_total"),
        delta("runtime_result_cache_misses_total"),
    );
    out.set("runtime.result_hit_ratio", hits / (hits + misses).max(1.0));
    let busy: Vec<f64> = servers_before
        .iter()
        .zip(servers_after)
        .flat_map(|(b, a)| {
            let (b, a) = (
                stats::readings(b, "runtime_worker_busy_ns_total"),
                stats::readings(a, "runtime_worker_busy_ns_total"),
            );
            a.into_iter()
                .zip(b)
                .map(|(a, b)| (a - b) as f64)
                .collect::<Vec<_>>()
        })
        .collect();
    let mean_busy = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    out.set(
        "runtime.worker_busy_imbalance",
        busy.iter().copied().fold(0.0, f64::max) / mean_busy.max(1.0),
    );

    // core: the simulator work behind the captured requests.
    let table = paper_workloads();
    let evals: Vec<EvalRequest> = requests
        .iter()
        .filter_map(|request| match &request.body {
            RequestBody::Eval(spec) => spec.to_eval_request(0, &table).ok(),
            _ => None,
        })
        .collect();
    let sample: Vec<(CrossLightConfig, Arc<NetworkWorkload>)> = evals
        .iter()
        .filter_map(|eval| Some((eval.config()?, Arc::clone(&eval.workload))))
        .collect();
    let cache = ModelCache::new();
    for (config, _) in &sample {
        let _ = CrossLightSimulator::new(*config).prepare_with(&cache);
    }
    let cache_stats = cache.stats();
    layers::core_layer(
        &mut out,
        &sample,
        cache_stats.hit_rate(),
        cache_stats.unit_reports,
    );

    // cluster: the router's hop, routing decision and counters.
    let ledger_cluster = match &router {
        Some(((rb, sb), (ra, sa))) => {
            let hop_us = p50_us(&recorded(rb, ra, "cluster_hop_ns", &[]));
            let fingerprints: Vec<u64> =
                evals.iter().map(|eval| eval.key().fingerprint()).collect();
            let backends = servers_after.len();
            let route_us = p50_call_us(&fingerprints, |&f| rendezvous_order(f, backends));
            out.set("cluster.hop_us", hop_us);
            out.set("cluster.route_us", route_us);
            out.set("cluster.overhead_us", e2e_us - request_us);
            out.set("cluster.retries", (sa.retries - sb.retries) as f64);
            out.set("cluster.failovers", (sa.failovers - sb.failovers) as f64);
            out.set("cluster.shed", (sa.shed_total - sb.shed_total) as f64);
            hop_us - request_us + route_us
        }
        None => {
            out.absent(&layers::CLUSTER_METRICS);
            0.0
        }
    };
    out.absent(&["experiments.parallel_efficiency"]);

    // The ledger: self time per layer per request.  The server's self time
    // is its decode-to-flush span minus the phases its children own; what
    // lies outside every span (sockets, client-side waits, the router's
    // client face) stays unattributed.
    let p = |phase: Phase| phase_us[phase.index()];
    let wire_us = p(Phase::Decode) + p(Phase::Serialize);
    let runtime_us = p(Phase::Queue) + p(Phase::CacheLookup);
    let core_us = p(Phase::Prepare) + p(Phase::Evaluate);
    out.ledger(
        e2e_us,
        &[
            (
                "client",
                out.get("client.encode_us") + out.get("client.decode_us"),
            ),
            ("wire", wire_us),
            ("server", request_us - wire_us - runtime_us - core_us),
            ("runtime", runtime_us),
            ("core", core_us),
            ("cluster", ledger_cluster),
            ("experiments", 0.0),
        ],
    );
    out.traced_window(&window.figures, untraced_rps);
    // Distinct keys the replays covered, for the detail line.
    let distinct: HashSet<String> = sample.iter().map(|(c, _)| format!("{c:?}")).collect();
    out.note("replayed_requests", requests.len().to_string());
    out.note("replayed_distinct_configs", distinct.len().to_string());
    out
}
