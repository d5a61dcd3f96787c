//! The cluster router: a wire-compatible front-end over N backend servers.
//!
//! # Thread model
//!
//! Clients live on the [`Server`](crosslight_server::server::Server)'s
//! reactor ([`crosslight_server::frontend`]): one **acceptor** and a fixed
//! pool of **event loops** (half the cores, clamped to 1..=4) frame each
//! client's lines, answer local ops and dispatch evals.  Each backend gets
//! one **link** thread, owning one pipelined socket with at most
//! [`link::WINDOW`] requests in flight, plus one **health prober**; one
//! **retry timer** holds backed-off jobs.  A router therefore runs
//! `2 + event_loops + 2 × backends` threads at any client count.  Links,
//! the timer and the shed paths answer through the client's connection
//! handle under the front-end's flush-then-wake rule, so they never block
//! on a slow client.  `stats` and `metrics` block on every backend, so
//! each runs on a short-lived thread that answers through the same handle
//! and counts in its drain barrier.
//!
//! # Bit-identical forwarding
//!
//! The router never re-encodes evaluation traffic.  A client's `eval`
//! line is decoded once — to validate it and derive the routing
//! fingerprint — and the *original bytes* travel to the backend with one
//! change: the id value is replaced by the index of the request's window
//! slot on the link, so many clients' requests share one socket.  That id
//! is one digit, so the line never grows past what the client sent.  The
//! backend's answer travels back with the client's id spliced in and
//! every other byte as the backend wrote it.  Locally answered ops
//! (`ping`, decode errors, spec errors) go through the same `wire`
//! encoder a single
//! [`Server`](crosslight_server::server::Server) uses.  A cluster is
//! therefore byte-indistinguishable from one server on every answered
//! request, which the chaos suite asserts multiset-exactly.
//!
//! # Failure policy
//!
//! Every hop is bounded: dials time out, a link that reads no answer (or
//! writes no byte) for `request_timeout` while it owes some is dead, and
//! every request carries an end-to-end deadline, shed in place wherever
//! the request is.  A link death (EOF, socket error, garbled answer,
//! unknown answer id, timeout) is one transport fault against the
//! backend's breaker; its outstanding and queued jobs *fail over* to the
//! next replica, which is safe because evaluations are pure and
//! idempotent.  Only a job a fault point names, one a backend refused
//! with a retryable error, or one a failed dial strands (nothing was
//! written, so the fault is plainly its backend's) spends an attempt and
//! a token of the bounded, cluster-wide [`RetryBudget`]; retries back off
//! exponentially with
//! deterministic jitter.  When no replica is usable and the budget,
//! attempts or deadline run out, the request is shed with an explicit
//! retryable `unavailable` error — never a hang, never a silent wrong
//! answer.
//!
//! # Warm recovery and hedging
//!
//! A backend readmitted through half-open probing can receive a **warm
//! handoff** (`RouterOptions::handoff`, on by default): while the breaker
//! sits in the `warming` state — still excluded from routing — the router
//! pulls `snapshot` streams from the surviving replicas, keeps the
//! entries whose shard includes the rejoining backend (plus all
//! shard-agnostic model-cache entries), and `restore`s them, so the first
//! routed request already hits a warm cache.  Any handoff failure
//! degrades to the old cold readmission.  Optional **hedged requests**
//! ([`HedgePolicy`]) launch a second attempt on the next replica after a
//! delay derived from the observed per-hop p99; the first answer wins
//! exactly once and the loser is cancelled or discarded, never delivered.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crosslight_neural::workload::NetworkWorkload;
use crosslight_neural::zoo::PaperModel;
use crosslight_runtime::cache::CacheKey;
use crosslight_runtime::pool::RuntimeStats;
use crosslight_server::frontend::{
    default_event_loops, Bound, Conn, Frontend, FrontendTelemetry, Handler,
};
use crosslight_server::loadgen::{Client, ClientOptions};
use crosslight_server::poller::{wake_pair, LineScanner, ScanEvent};
use crosslight_server::wire::{
    self, ErrorFrame, ErrorKind, MetricsFormat, MetricsFrame, Request, RequestBody, Response,
    ResponseBody, SnapshotEntry, StatsFrame, WireServerStats, DEFAULT_MAX_LINE_BYTES,
};
use crosslight_telemetry::{render_text, Counter, Gauge, Histogram, Registry, RegistrySnapshot};

use crate::backend::{rendezvous_order, BackendState, CircuitState, Transition};
use crate::faultpoint::{FaultAction, FaultPlan, FaultPoint};
use crate::retry::{RetryBudget, RetryPolicy};

mod link;

/// Routing state is a `u64` bitmask of tried backends, so a cluster is
/// capped at 64 backends — far beyond the deployment sizes this tier
/// models.
pub const MAX_BACKENDS: usize = 64;

/// Tuning knobs of the router.
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Replicas per shard: how many backends (in rendezvous order) may
    /// serve a given fingerprint (clamped to `1..=backends`).
    pub replication: usize,
    /// Jobs per backend — waiting for its link's window plus in flight on
    /// it — before dispatch spills to the next replica.
    pub queue_capacity: usize,
    /// How long a backend link that owes answers may read none (or may
    /// fail to write pending bytes) before it is declared dead.
    pub request_timeout: Duration,
    /// End-to-end deadline of one client request, covering every retry
    /// and backoff; expiry sheds the request with `unavailable`.
    pub request_deadline: Duration,
    /// Period of per-backend health probes.
    pub health_interval: Duration,
    /// Bound on one health probe (connect + ping + pong).
    pub health_timeout: Duration,
    /// How long an open breaker cools down before half-open probing.
    pub open_cooldown: Duration,
    /// Consecutive failures that trip a backend's breaker.
    pub failure_threshold: u32,
    /// Per-request retry schedule.
    pub retry: RetryPolicy,
    /// Cluster-wide retry budget, in tokens (see [`RetryBudget`]).
    pub retry_budget: u64,
    /// Whether a readmitted backend gets a warm-state handoff (snapshot
    /// pulled from surviving replicas and restored before it takes
    /// traffic).  Off, readmission is cold — exactly the pre-handoff
    /// behavior.
    pub handoff: bool,
    /// Hedged-request policy; disabled by default.
    pub hedge: HedgePolicy,
    /// Fault-injection plan; [`FaultPlan::none`] in production.
    pub faults: Arc<FaultPlan>,
}

/// When and how the router hedges a slow eval with a second attempt on
/// another replica.  The hedge fires after a delay derived from the
/// observed per-hop p99, first answer wins exactly once, and the loser
/// is accounted (won / cancelled / wasted) — never delivered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgePolicy {
    /// Master switch; `false` routes every request exactly once.
    pub enabled: bool,
    /// The hedge fires after `p99(cluster_hop_ns) * p99_multiplier`.
    pub p99_multiplier: f64,
    /// Lower clamp on the hedge delay (also used before any p99 exists).
    pub min_delay: Duration,
    /// Upper clamp on the hedge delay.
    pub max_delay: Duration,
}

impl Default for HedgePolicy {
    fn default() -> Self {
        Self {
            enabled: false,
            p99_multiplier: 1.5,
            min_delay: Duration::from_millis(1),
            max_delay: Duration::from_secs(1),
        }
    }
}

impl HedgePolicy {
    /// The enabled policy with default timing knobs.
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// The delay before the hedge fires, given the current per-hop p99 in
    /// nanoseconds (0 when no request has been answered yet).
    #[must_use]
    pub fn delay(&self, p99_ns: u64) -> Duration {
        let scaled = (p99_ns as f64 * self.p99_multiplier.max(0.0)) as u64;
        Duration::from_nanos(scaled).clamp(self.min_delay, self.max_delay)
    }
}

impl Default for RouterOptions {
    fn default() -> Self {
        Self {
            replication: 2,
            queue_capacity: 256,
            request_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(15),
            health_interval: Duration::from_millis(50),
            health_timeout: Duration::from_millis(500),
            open_cooldown: Duration::from_millis(250),
            failure_threshold: 3,
            retry: RetryPolicy::default(),
            retry_budget: 128,
            handoff: true,
            hedge: HedgePolicy::default(),
            faults: FaultPlan::none(),
        }
    }
}

impl RouterOptions {
    /// Returns a copy with a different replication factor.
    #[must_use]
    pub fn with_replication(mut self, replication: usize) -> Self {
        self.replication = replication;
        self
    }

    /// Returns a copy with a different end-to-end request deadline.
    #[must_use]
    pub fn with_request_deadline(mut self, request_deadline: Duration) -> Self {
        self.request_deadline = request_deadline;
        self
    }

    /// Returns a copy with a different link liveness timeout.
    #[must_use]
    pub fn with_request_timeout(mut self, request_timeout: Duration) -> Self {
        self.request_timeout = request_timeout;
        self
    }

    /// Returns a copy with different health-check timings.
    #[must_use]
    pub fn with_health(
        mut self,
        health_interval: Duration,
        health_timeout: Duration,
        open_cooldown: Duration,
    ) -> Self {
        self.health_interval = health_interval;
        self.health_timeout = health_timeout;
        self.open_cooldown = open_cooldown;
        self
    }

    /// Returns a copy with a different breaker threshold.
    #[must_use]
    pub fn with_failure_threshold(mut self, failure_threshold: u32) -> Self {
        self.failure_threshold = failure_threshold;
        self
    }

    /// Returns a copy with a different retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Returns a copy with a different retry budget.
    #[must_use]
    pub fn with_retry_budget(mut self, retry_budget: u64) -> Self {
        self.retry_budget = retry_budget;
        self
    }

    /// Returns a copy with warm-state handoff on readmission toggled.
    #[must_use]
    pub fn with_handoff(mut self, handoff: bool) -> Self {
        self.handoff = handoff;
        self
    }

    /// Returns a copy with a different hedged-request policy.
    #[must_use]
    pub fn with_hedge(mut self, hedge: HedgePolicy) -> Self {
        self.hedge = hedge;
        self
    }

    /// Returns a copy executing the given fault plan.
    #[must_use]
    pub fn with_faults(mut self, faults: Arc<FaultPlan>) -> Self {
        self.faults = faults;
        self
    }
}

/// Why a request was shed instead of answered with a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShedReason {
    /// The end-to-end deadline elapsed (or would elapse during backoff).
    Deadline,
    /// Every I/O attempt the policy allows has failed.
    Attempts,
    /// The cluster-wide retry budget is empty.
    Budget,
    /// The router is draining.
    Shutdown,
}

/// Counter handles of the router, registered under the `cluster_` prefix.
#[derive(Debug)]
struct ClusterTelemetry {
    registry: Registry,
    /// The client connections' families (requests, malformed and
    /// oversized lines, connections, write queues).
    front: FrontendTelemetry,
    evals_routed: Counter,
    evals_ok: Counter,
    evals_failed: Counter,
    failovers: Counter,
    retries: Counter,
    shed_deadline: Counter,
    shed_attempts: Counter,
    shed_budget: Counter,
    shed_shutdown: Counter,
    retry_budget_tenths: Gauge,
    faults_injected: Counter,
    hop_ns: Histogram,
    handoff_snapshots_sent: Counter,
    handoff_restored: Counter,
    handoff_entries: Counter,
    handoff_failed: Counter,
    handoff_warmup_ns: Histogram,
    hedges_launched: Counter,
    hedges_won: Counter,
    hedges_cancelled: Counter,
    hedges_wasted: Counter,
    forwarded: Vec<Counter>,
    backend_failures: Vec<Counter>,
    backend_state: Vec<Gauge>,
    circuit_opened: Vec<Counter>,
    readmitted: Vec<Counter>,
    probes_ok: Vec<Counter>,
    probes_failed: Vec<Counter>,
    queue_depth: Vec<Gauge>,
    in_flight: Vec<Gauge>,
    /// Per backend, one counter per [`link::Reset`] reason, in label order.
    link_resets: Vec<Vec<Counter>>,
}

impl ClusterTelemetry {
    fn new(backends: usize) -> Self {
        let registry = Registry::new();
        let shed_help = "Requests answered with an explicit shed error instead of a report.";
        let per_backend = |f: &dyn Fn(&str) -> Counter| -> Vec<Counter> {
            (0..backends).map(|b| f(&b.to_string())).collect()
        };
        Self {
            front: FrontendTelemetry::register(&registry, "cluster"),
            evals_routed: registry.counter(
                "cluster_evals_routed_total",
                "Eval requests accepted for routing to a backend.",
            ),
            evals_ok: registry.counter(
                "cluster_evals_ok_total",
                "Eval requests answered with a forwarded backend report.",
            ),
            evals_failed: registry.counter(
                "cluster_evals_failed_total",
                "Eval requests answered with an error frame (local or forwarded).",
            ),
            failovers: registry.counter(
                "cluster_failovers_total",
                "Jobs re-dispatched away from a failed or tripped backend.",
            ),
            retries: registry.counter(
                "cluster_retries_total",
                "Retry attempts that consumed a retry-budget token.",
            ),
            shed_deadline: registry.counter_with(
                "cluster_shed_total",
                shed_help,
                &[("reason", "deadline")],
            ),
            shed_attempts: registry.counter_with(
                "cluster_shed_total",
                shed_help,
                &[("reason", "attempts")],
            ),
            shed_budget: registry.counter_with(
                "cluster_shed_total",
                shed_help,
                &[("reason", "budget")],
            ),
            shed_shutdown: registry.counter_with(
                "cluster_shed_total",
                shed_help,
                &[("reason", "shutdown")],
            ),
            retry_budget_tenths: registry.gauge(
                "cluster_retry_budget_tenths",
                "Remaining retry budget, in tenths of a token.",
            ),
            faults_injected: registry.counter(
                "cluster_faults_injected_total",
                "Faults fired by the configured fault plan.",
            ),
            hop_ns: registry.histogram(
                "cluster_hop_ns",
                "Latency from writing a request on a backend link to reading its answer, \
                 in nanoseconds.",
            ),
            handoff_snapshots_sent: registry.counter(
                "cluster_handoff_snapshots_sent_total",
                "Warm-state snapshots pulled from donor backends during handoff.",
            ),
            handoff_restored: registry.counter(
                "cluster_handoff_restored_total",
                "Warm-state restores applied to rejoining backends.",
            ),
            handoff_entries: registry.counter(
                "cluster_handoff_entries_total",
                "Cache entries transferred into rejoining backends.",
            ),
            handoff_failed: registry.counter(
                "cluster_handoff_failed_total",
                "Handoffs that fell back to a cold readmission.",
            ),
            handoff_warmup_ns: registry.histogram(
                "cluster_handoff_warmup_ns",
                "Duration of one warm-state handoff attempt, in nanoseconds.",
            ),
            hedges_launched: registry.counter(
                "cluster_hedges_launched_total",
                "Hedge attempts parked behind the p99-derived delay.",
            ),
            hedges_won: registry.counter(
                "cluster_hedges_won_total",
                "Hedge attempts that answered the client first.",
            ),
            hedges_cancelled: registry.counter(
                "cluster_hedges_cancelled_total",
                "Hedge attempts cancelled before doing I/O (primary answered).",
            ),
            hedges_wasted: registry.counter(
                "cluster_hedges_wasted_total",
                "Hedge or primary attempts whose outcome lost the race and was discarded.",
            ),
            forwarded: per_backend(&|b| {
                registry.counter_with(
                    "cluster_forwarded_total",
                    "Jobs handed to a backend queue.",
                    &[("backend", b)],
                )
            }),
            backend_failures: per_backend(&|b| {
                registry.counter_with(
                    "cluster_backend_failures_total",
                    "Transport faults observed talking to a backend.",
                    &[("backend", b)],
                )
            }),
            backend_state: (0..backends)
                .map(|b| {
                    registry.gauge_with(
                        "cluster_backend_state",
                        "Circuit state per backend: 0 closed, 1 open, 2 half-open, 3 warming.",
                        &[("backend", &b.to_string())],
                    )
                })
                .collect(),
            circuit_opened: per_backend(&|b| {
                registry.counter_with(
                    "cluster_circuit_opened_total",
                    "Times a backend's circuit breaker tripped open.",
                    &[("backend", b)],
                )
            }),
            readmitted: per_backend(&|b| {
                registry.counter_with(
                    "cluster_backend_readmitted_total",
                    "Times a backend passed half-open probing and rejoined.",
                    &[("backend", b)],
                )
            }),
            probes_ok: per_backend(&|b| {
                registry.counter_with(
                    "cluster_health_probes_total",
                    "Health probes by outcome.",
                    &[("backend", b), ("outcome", "ok")],
                )
            }),
            probes_failed: per_backend(&|b| {
                registry.counter_with(
                    "cluster_health_probes_total",
                    "Health probes by outcome.",
                    &[("backend", b), ("outcome", "failed")],
                )
            }),
            queue_depth: (0..backends)
                .map(|b| {
                    registry.gauge_with(
                        "cluster_queue_depth",
                        "Jobs waiting for a backend link's window.",
                        &[("backend", &b.to_string())],
                    )
                })
                .collect(),
            in_flight: (0..backends)
                .map(|b| {
                    registry.gauge_with(
                        "cluster_backend_in_flight",
                        "Requests written on a backend link and not yet answered.",
                        &[("backend", &b.to_string())],
                    )
                })
                .collect(),
            link_resets: (0..backends)
                .map(|b| {
                    link::Reset::LABELS
                        .iter()
                        .map(|reason| {
                            registry.counter_with(
                                "cluster_link_resets_total",
                                "Backend link teardowns by reason.",
                                &[("backend", &b.to_string()), ("reason", reason)],
                            )
                        })
                        .collect()
                })
                .collect(),
            registry,
        }
    }

    fn sync_state_gauge(&self, backend: usize, state: CircuitState) {
        self.backend_state[backend].set(state.as_gauge());
    }
}

/// One admitted eval in flight through the cluster: the client's raw
/// line, its routing key, and the client's connection.  A hedged request
/// is two clones of the same job sharing one `delivered` cell; whichever
/// resolves first claims the cell and answers, which also settles the
/// connection's in-flight count exactly once.
#[derive(Debug, Clone)]
struct ForwardJob {
    id: u64,
    line: Arc<String>,
    fingerprint: u64,
    /// Failed I/O attempts so far (the in-progress attempt not included).
    attempts: u32,
    /// Bitmask of backends tried since the last backoff, so a failover
    /// never ping-pongs between two dying replicas without progress.
    tried: u64,
    deadline: Instant,
    /// Whether this copy is the hedge (second) attempt.  A hedge may win
    /// with a report but never answers with an error — failure reporting
    /// belongs to the primary, so a hedge that cannot even dispatch can
    /// never shed a request whose primary is still in flight.
    hedge: bool,
    /// First-answer-wins cell shared by the primary and its hedge.
    delivered: Arc<AtomicBool>,
    reply: Arc<Conn>,
}

impl ForwardJob {
    /// Claims the exactly-once answer slot; `true` for the first caller.
    fn claim(&self) -> bool {
        !self.delivered.swap(true, Ordering::SeqCst)
    }

    /// Whether some copy of this request has already answered the client.
    fn is_claimed(&self) -> bool {
        self.delivered.load(Ordering::SeqCst)
    }
}

#[derive(Debug)]
struct ClusterShared {
    options: RouterOptions,
    backends: Vec<BackendState>,
    /// Each backend link's dispatch side, indexed like `backends`.
    links: Vec<link::Backlog>,
    /// Lane to the retry timer; `None` once shutdown drained it.
    retry_tx: Mutex<Option<Sender<(Instant, ForwardJob)>>>,
    telemetry: ClusterTelemetry,
    budget: RetryBudget,
    shutting_down: AtomicBool,
    /// Set once every client connection drained and the retry timer
    /// exited: the links account what is left and exit.
    retired: AtomicBool,
    /// Running `stats`/`metrics` fan-out threads, joined at shutdown.
    fan_outs: Mutex<Vec<JoinHandle<()>>>,
    /// Prebuilt Table I workloads, indexed as [`PaperModel::all`].
    workloads: [Arc<NetworkWorkload>; 4],
}

impl ClusterShared {
    fn faults(&self) -> &FaultPlan {
        &self.options.faults
    }

    fn metrics_snapshot(&self) -> RegistrySnapshot {
        let telemetry = &self.telemetry;
        telemetry
            .retry_budget_tenths
            .set(self.budget.balance_tenths() as i64);
        telemetry.faults_injected.store(self.faults().injected());
        for backend in &self.backends {
            telemetry.sync_state_gauge(backend.index, backend.state());
        }
        telemetry.registry.snapshot()
    }
}

/// Point-in-time router counters, for tests and operators.  The full
/// metric surface (per-backend families, histograms) is on the `metrics`
/// wire op and [`Router::metrics_snapshot`]; this struct carries the
/// headline numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterStats {
    /// Request frames received from clients.
    pub requests_total: u64,
    /// Eval requests accepted for routing.
    pub evals_routed: u64,
    /// Evals answered with a forwarded backend report.
    pub evals_ok: u64,
    /// Evals answered with an error frame.
    pub evals_failed: u64,
    /// Jobs re-dispatched away from a failed or tripped backend.
    pub failovers: u64,
    /// Retries that consumed a budget token.
    pub retries: u64,
    /// Requests shed with an explicit error, summed over reasons.
    pub shed_total: u64,
    /// Faults fired by the configured fault plan.
    pub faults_injected: u64,
    /// Circuit state per backend.
    pub backend_states: Vec<CircuitState>,
    /// Readmissions (half-open probe success) per backend.
    pub readmitted: Vec<u64>,
}

/// Poll period of the link/retry/prober loops when idle; bounds how long
/// shutdown waits for them to notice the flag.
const IDLE_POLL: Duration = Duration::from_millis(20);

/// Bound on dialing a backend.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// The fault-tolerant cluster router.
///
/// # Example
///
/// ```
/// use crosslight_cluster::router::{Router, RouterOptions};
/// use crosslight_server::loadgen::Client;
/// use crosslight_server::server::{Server, ServerOptions};
/// use crosslight_server::wire::{EvalSpec, ResponseBody};
/// use crosslight_core::variants::CrossLightVariant;
/// use crosslight_neural::zoo::PaperModel;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let backend = Server::bind("127.0.0.1:0", ServerOptions::default().with_workers(2))?;
/// let router = Router::bind("127.0.0.1:0", &[backend.local_addr()], RouterOptions::default())?;
/// let mut client = Client::connect(router.local_addr())?;
/// let spec = EvalSpec::paper(CrossLightVariant::OptTed, PaperModel::Lenet5SignMnist);
/// let response = client.eval(7, &spec)?;
/// assert!(matches!(response.body, ResponseBody::Eval(_)));
/// router.shutdown();
/// backend.shutdown();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Router {
    shared: Arc<ClusterShared>,
    frontend: Frontend,
    link_threads: Vec<JoinHandle<()>>,
    prober_threads: Vec<JoinHandle<()>>,
    retry_thread: Option<JoinHandle<()>>,
}

impl Router {
    /// Binds the client listener and spawns the routing machinery over
    /// the given backend addresses.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; rejects an empty backend list and more
    /// than [`MAX_BACKENDS`] backends as `InvalidInput`.  The listener,
    /// every event loop's wake channel and every link's are made before
    /// the first thread is spawned, so an error leaves no thread behind.
    pub fn bind(
        addr: impl ToSocketAddrs,
        backends: &[SocketAddr],
        options: RouterOptions,
    ) -> std::io::Result<Self> {
        if backends.is_empty() || backends.len() > MAX_BACKENDS {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("backend count must be 1..={MAX_BACKENDS}"),
            ));
        }
        let bound = Bound::bind(addr, default_event_loops())?;
        let (link_wakers, link_wakes): (Vec<_>, Vec<_>) = backends
            .iter()
            .map(|_| wake_pair())
            .collect::<std::io::Result<Vec<_>>>()?
            .into_iter()
            .unzip();
        let options = RouterOptions {
            replication: options.replication.clamp(1, backends.len()),
            queue_capacity: options.queue_capacity.max(1),
            ..options
        };
        let workloads = PaperModel::all().map(|model| {
            Arc::new(
                NetworkWorkload::from_spec(&model.spec()).expect("the Table I workloads are valid"),
            )
        });
        let backend_states: Vec<BackendState> = backends
            .iter()
            .enumerate()
            .map(|(index, &addr)| {
                BackendState::new(
                    index,
                    addr,
                    options.failure_threshold,
                    options.open_cooldown,
                )
            })
            .collect();
        let (retry_tx, retry_rx) = mpsc::channel::<(Instant, ForwardJob)>();
        let retry_budget = options.retry_budget;
        let shared = Arc::new(ClusterShared {
            telemetry: ClusterTelemetry::new(backends.len()),
            budget: RetryBudget::new(retry_budget),
            options,
            backends: backend_states,
            links: link_wakers.into_iter().map(link::Backlog::new).collect(),
            retry_tx: Mutex::new(Some(retry_tx)),
            shutting_down: AtomicBool::new(false),
            retired: AtomicBool::new(false),
            fan_outs: Mutex::new(Vec::new()),
            workloads,
        });
        let link_threads = link_wakes
            .into_iter()
            .enumerate()
            .map(|(index, wake)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("crosslight-cluster-link-{index}"))
                    .spawn(move || link::run(&shared, index, &wake))
                    .expect("spawning a backend link succeeds")
            })
            .collect();
        let prober_threads = (0..shared.backends.len())
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("crosslight-cluster-probe-{index}"))
                    .spawn(move || prober_loop(&shared, index))
                    .expect("spawning a health prober succeeds")
            })
            .collect();
        let retry_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("crosslight-cluster-retry".to_string())
                .spawn(move || retry_loop(&shared, &retry_rx))
                .expect("spawning the retry timer succeeds")
        };
        let frontend = bound.start(
            shared.telemetry.front.clone(),
            DEFAULT_MAX_LINE_BYTES,
            // The router samples no phase traces of its own.
            Box::new(|_| {}),
            |_| ClientSide(Arc::clone(&shared)),
        );
        Ok(Self {
            shared,
            frontend,
            link_threads,
            prober_threads,
            retry_thread: Some(retry_thread),
        })
    }

    /// The bound client-facing address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.frontend.local_addr()
    }

    /// Repoints backend `index` at a new address — the restart path: a
    /// backend that comes back on a fresh ephemeral port keeps its shard
    /// assignment and is readmitted through half-open probing.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn update_backend_addr(&self, index: usize, addr: SocketAddr) {
        self.shared.backends[index].set_addr(addr);
    }

    /// Headline router counters.
    #[must_use]
    pub fn stats(&self) -> RouterStats {
        let telemetry = &self.shared.telemetry;
        RouterStats {
            requests_total: telemetry.front.requests_total.get(),
            evals_routed: telemetry.evals_routed.get(),
            evals_ok: telemetry.evals_ok.get(),
            evals_failed: telemetry.evals_failed.get(),
            failovers: telemetry.failovers.get(),
            retries: telemetry.retries.get(),
            shed_total: telemetry.shed_deadline.get()
                + telemetry.shed_attempts.get()
                + telemetry.shed_budget.get()
                + telemetry.shed_shutdown.get(),
            faults_injected: self.shared.faults().injected(),
            backend_states: self
                .shared
                .backends
                .iter()
                .map(BackendState::state)
                .collect(),
            readmitted: telemetry.readmitted.iter().map(Counter::get).collect(),
        }
    }

    /// One scrape of the `cluster_` metric registry, mirrors synchronized.
    #[must_use]
    pub fn metrics_snapshot(&self) -> RegistrySnapshot {
        self.shared.metrics_snapshot()
    }

    /// Stops accepting clients, answers or sheds everything in flight,
    /// and joins every router thread.  Bounded: nothing in the router
    /// waits without a timeout.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Stop accepting and half-close client reads: the loops take no
        // more input and close each connection once its in-flight jobs and
        // fan-outs resolved (answered, failed over, or shed) — the links
        // and the retry timer are still running.
        self.frontend.shutdown();
        let fan_outs =
            std::mem::take(&mut *self.shared.fan_outs.lock().expect("fan-out list lock"));
        for handle in fan_outs {
            let _ = handle.join();
        }
        // No unresolved job exists now; retire the retry timer, then the
        // links and probers.
        drop(
            self.shared
                .retry_tx
                .lock()
                .expect("retry lane lock poisoned")
                .take(),
        );
        if let Some(handle) = self.retry_thread.take() {
            let _ = handle.join();
        }
        self.shared.retired.store(true, Ordering::SeqCst);
        for link in &self.shared.links {
            link.wake();
        }
        for handle in self.link_threads.drain(..) {
            let _ = handle.join();
        }
        for handle in self.prober_threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

// ---------------------------------------------------------------------------
// Dispatch and shedding
// ---------------------------------------------------------------------------

/// Routes a job to the first untried, closed-circuit backend in its
/// shard's rendezvous order; with none usable, schedules a backed-off
/// retry (waiting for capacity or readmission costs no attempt or budget
/// token — only failed I/O does).
fn dispatch(shared: &Arc<ClusterShared>, mut job: ForwardJob) {
    if job.hedge && job.is_claimed() {
        shared.telemetry.hedges_cancelled.inc();
        return;
    }
    if Instant::now() >= job.deadline {
        shed(
            shared,
            &job,
            ShedReason::Deadline,
            "request deadline exceeded",
        );
        return;
    }
    let order = rendezvous_order(job.fingerprint, shared.backends.len());
    for &backend in &order[..shared.options.replication] {
        if job.tried & (1u64 << backend) != 0 || !shared.backends[backend].available() {
            continue;
        }
        let depth = &shared.telemetry.queue_depth[backend];
        match shared.links[backend].offer(job, shared.options.queue_capacity, depth) {
            Ok(()) => {
                shared.telemetry.forwarded[backend].inc();
                return;
            }
            Err(returned) => job = returned,
        }
    }
    schedule_retry(shared, job);
}

/// Parks a job until its backoff elapses, clearing its tried-set so the
/// next round may revisit every replica.
fn schedule_retry(shared: &Arc<ClusterShared>, mut job: ForwardJob) {
    if shared.shutting_down.load(Ordering::SeqCst) {
        shed(shared, &job, ShedReason::Shutdown, "router is draining");
        return;
    }
    job.tried = 0;
    let delay = shared.options.retry.backoff(job.id, job.attempts.max(1));
    let due = Instant::now() + delay;
    if due >= job.deadline {
        shed(
            shared,
            &job,
            ShedReason::Deadline,
            "request deadline would elapse during backoff",
        );
        return;
    }
    let lane = shared.retry_tx.lock().expect("retry lane lock poisoned");
    match lane.as_ref().map(|tx| tx.send((due, job))) {
        Some(Ok(())) => {}
        Some(Err(mpsc::SendError((_, job)))) => {
            shed(shared, &job, ShedReason::Shutdown, "router is draining");
        }
        // The lane is taken only after every live client connection
        // drained: a job still routing belongs to a torn-down one.
        None => {}
    }
}

/// Builds the hedge copy of a freshly admitted job, when the policy
/// allows one.  The hedge pre-marks the primary's preferred replica as
/// tried, so with replication > 1 the two attempts land on different
/// backends.
fn hedge_copy(shared: &Arc<ClusterShared>, job: &ForwardJob) -> Option<ForwardJob> {
    if !shared.options.hedge.enabled || shared.options.replication < 2 {
        return None;
    }
    let mut copy = job.clone();
    copy.hedge = true;
    let order = rendezvous_order(copy.fingerprint, shared.backends.len());
    copy.tried = 1u64 << order[0];
    Some(copy)
}

/// Parks a hedge on the retry timer until its p99-derived delay elapses.
/// A hedge that cannot be parked (deadline too close, router draining) is
/// cancelled — it never answers the client.
fn park_hedge(shared: &Arc<ClusterShared>, job: ForwardJob) {
    let delay = shared
        .options
        .hedge
        .delay(shared.telemetry.hop_ns.snapshot().p99());
    let due = Instant::now() + delay;
    if due >= job.deadline || shared.shutting_down.load(Ordering::SeqCst) {
        shared.telemetry.hedges_cancelled.inc();
        return;
    }
    let lane = shared.retry_tx.lock().expect("retry lane lock poisoned");
    match lane.as_ref().map(|tx| tx.send((due, job))) {
        Some(Ok(())) => shared.telemetry.hedges_launched.inc(),
        _ => shared.telemetry.hedges_cancelled.inc(),
    }
}

/// Books a failed I/O attempt (or a backend's retryable refusal) against
/// the job and fails over; exhaustion delivers `fallback` when the last
/// backend answered with a retryable error frame, else sheds.
fn retry_after_failure(
    shared: &Arc<ClusterShared>,
    backend: usize,
    mut job: ForwardJob,
    fallback: Option<String>,
    detail: &str,
) {
    job.tried |= 1u64 << backend;
    job.attempts += 1;
    if job.attempts >= shared.options.retry.max_attempts.max(1) {
        exhaust(shared, &job, fallback, ShedReason::Attempts, detail);
        return;
    }
    if !shared.budget.try_withdraw() {
        exhaust(shared, &job, fallback, ShedReason::Budget, detail);
        return;
    }
    shared.telemetry.retries.inc();
    shared.telemetry.failovers.inc();
    dispatch(shared, job);
}

/// Final answer for a job whose retries ran out: forward the backend's
/// own (retryable) error line when one exists, else shed `unavailable`.
fn exhaust(
    shared: &Arc<ClusterShared>,
    job: &ForwardJob,
    fallback: Option<String>,
    reason: ShedReason,
    detail: &str,
) {
    match fallback {
        Some(line) => {
            if job.hedge {
                shared.telemetry.hedges_wasted.inc();
                return;
            }
            if !job.claim() {
                return;
            }
            shared.telemetry.evals_failed.inc();
            job.reply.answer(line);
        }
        None => {
            let reason_name = match reason {
                ShedReason::Attempts => "retry attempts exhausted",
                ShedReason::Budget => "retry budget exhausted",
                ShedReason::Deadline => "request deadline exceeded",
                ShedReason::Shutdown => "router is draining",
            };
            shed(shared, job, reason, &format!("{reason_name}: {detail}"));
        }
    }
}

/// Answers a job with an explicit typed error — the never-hang guarantee.
/// Shutdown sheds speak `shutting_down`; everything else is the retryable
/// `unavailable`.
fn shed(shared: &Arc<ClusterShared>, job: &ForwardJob, reason: ShedReason, detail: &str) {
    // A hedge is an optimization, not a second chance to fail: its own
    // exhaustion is discarded while the primary still owns the request.
    if job.hedge {
        shared.telemetry.hedges_wasted.inc();
        return;
    }
    // The hedge already answered: the primary's late failure is moot.
    if !job.claim() {
        return;
    }
    let (kind, counter) = match reason {
        ShedReason::Deadline => (ErrorKind::Unavailable, &shared.telemetry.shed_deadline),
        ShedReason::Attempts => (ErrorKind::Unavailable, &shared.telemetry.shed_attempts),
        ShedReason::Budget => (ErrorKind::Unavailable, &shared.telemetry.shed_budget),
        ShedReason::Shutdown => (ErrorKind::ShuttingDown, &shared.telemetry.shed_shutdown),
    };
    counter.inc();
    shared.telemetry.evals_failed.inc();
    let response = Response::error(Some(job.id), ErrorFrame::new(kind, detail));
    job.reply.answer(wire::encode_response(&response));
}

// ---------------------------------------------------------------------------
// Retry timer
// ---------------------------------------------------------------------------

/// A parked job ordered by due time (earliest first out).
#[derive(Debug)]
struct Parked {
    due: Instant,
    seq: u64,
    job: ForwardJob,
}

fn retry_loop(shared: &Arc<ClusterShared>, rx: &Receiver<(Instant, ForwardJob)>) {
    let mut parked: Vec<Parked> = Vec::new();
    let mut seq: u64 = 0;
    loop {
        let now = Instant::now();
        let wait = parked
            .iter()
            .map(|entry| entry.due.saturating_duration_since(now))
            .min()
            .unwrap_or(IDLE_POLL)
            .min(IDLE_POLL);
        match rx.recv_timeout(wait) {
            Ok((due, job)) => {
                parked.push(Parked { due, seq, job });
                seq += 1;
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                // Shutdown: the lane is gone; nothing new can arrive.
                fire_due(shared, &mut parked, true);
                return;
            }
        }
        // During shutdown, waiting out backoffs would stall the drain;
        // fire everything immediately (dispatch still answers each job).
        let fire_all = shared.shutting_down.load(Ordering::SeqCst);
        fire_due(shared, &mut parked, fire_all);
    }
}

/// Dispatches every parked job that is due (or all of them), oldest
/// first so retry order is deterministic.
fn fire_due(shared: &Arc<ClusterShared>, parked: &mut Vec<Parked>, fire_all: bool) {
    let now = Instant::now();
    let mut due: Vec<Parked> = Vec::new();
    let mut index = 0;
    while index < parked.len() {
        if fire_all || parked[index].due <= now {
            due.push(parked.swap_remove(index));
        } else {
            index += 1;
        }
    }
    due.sort_by_key(|entry| (entry.due, entry.seq));
    for entry in due {
        dispatch(shared, entry.job);
    }
}

// ---------------------------------------------------------------------------
// Health probing
// ---------------------------------------------------------------------------

fn prober_loop(shared: &Arc<ClusterShared>, backend: usize) {
    loop {
        // Sleep one health interval in short slices so shutdown is never
        // blocked behind a long interval.
        let mut remaining = shared.options.health_interval;
        while !remaining.is_zero() {
            if shared.shutting_down.load(Ordering::SeqCst) {
                return;
            }
            let slice = remaining.min(IDLE_POLL);
            std::thread::sleep(slice);
            remaining = remaining.saturating_sub(slice);
        }
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        if shared.backends[backend].tick_probation() == Transition::Probation {
            shared
                .telemetry
                .sync_state_gauge(backend, CircuitState::HalfOpen);
        }
        // Open circuits cool down untouched; closed ones get a liveness
        // watch and half-open ones a readmission trial.
        if shared.backends[backend].state() == CircuitState::Open {
            continue;
        }
        if probe(shared, backend) {
            shared.telemetry.probes_ok[backend].inc();
            if shared.options.handoff
                && shared.backends[backend].state() == CircuitState::HalfOpen
                && shared.backends[backend].begin_warming()
            {
                // Readmission with warm state: the backend stays out of
                // the routing set (warming) while surviving replicas'
                // snapshots are restored into it, so its first routed
                // request already hits a warm cache.  Any handoff failure
                // degrades to the plain cold readmission below.
                shared
                    .telemetry
                    .sync_state_gauge(backend, CircuitState::Warming);
                attempt_handoff(shared, backend);
                if shared.backends[backend].complete_warming() == Transition::Readmitted {
                    shared.telemetry.readmitted[backend].inc();
                }
            } else if shared.backends[backend].record_success() == Transition::Readmitted {
                shared.telemetry.readmitted[backend].inc();
            }
        } else {
            shared.telemetry.probes_failed[backend].inc();
            if shared.backends[backend].record_failure() == Transition::Opened {
                shared.telemetry.circuit_opened[backend].inc();
            }
        }
        shared
            .telemetry
            .sync_state_gauge(backend, shared.backends[backend].state());
    }
}

/// One ping/pong with a deadline; `false` on any deviation.
fn probe(shared: &Arc<ClusterShared>, backend: usize) -> bool {
    let timeout = shared.options.health_timeout;
    let mut garble = false;
    match shared.faults().check(FaultPoint::HealthProbe, backend) {
        Some(FaultAction::Kill) => return false,
        Some(FaultAction::Stall(ms)) => {
            std::thread::sleep(Duration::from_millis(ms));
            return false;
        }
        Some(FaultAction::Slow(ms)) => std::thread::sleep(Duration::from_millis(ms)),
        Some(FaultAction::Garble) => garble = true,
        None => {}
    }
    let addr = shared.backends[backend].addr();
    let Ok(stream) = TcpStream::connect_timeout(&addr, timeout) else {
        return false;
    };
    if stream.set_read_timeout(Some(timeout)).is_err()
        || stream.set_write_timeout(Some(timeout)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return false;
    }
    let mut ping = wire::encode_request(&Request {
        id: 0,
        body: RequestBody::Ping,
    });
    if garble {
        ping = FaultPlan::garble_line(&ping);
    }
    ping.push('\n');
    if (&stream).write_all(ping.as_bytes()).is_err() {
        return false;
    }
    let mut scanner = LineScanner::new();
    let mut chunk = [0u8; 1024];
    let mut pong = None;
    while pong.is_none() {
        match (&stream).read(&mut chunk) {
            Ok(0) | Err(_) => return false,
            Ok(read) => scanner.push(&chunk[..read], DEFAULT_MAX_LINE_BYTES, |event| {
                pong = Some(event);
                false
            }),
        };
    }
    matches!(pong, Some(ScanEvent::Line(line)) if matches!(
        wire::decode_response(&line),
        Ok(Response {
            id: Some(0),
            body: ResponseBody::Pong,
        })
    ))
}

// ---------------------------------------------------------------------------
// Warm-state handoff
// ---------------------------------------------------------------------------

/// One warm-state handoff into a rejoining backend, with telemetry: pull
/// snapshots from the surviving replicas, keep the entries the rejoining
/// backend is responsible for, restore them, and time the whole thing.
/// Failure is never fatal — the backend is readmitted cold.
fn attempt_handoff(shared: &Arc<ClusterShared>, backend: usize) {
    let started = Instant::now();
    let outcome = run_handoff(shared, backend);
    shared
        .telemetry
        .handoff_warmup_ns
        .record(started.elapsed().as_nanos() as u64);
    match outcome {
        Ok(0) => {}
        Ok(entries) => {
            shared.telemetry.handoff_restored.inc();
            shared.telemetry.handoff_entries.add(entries);
        }
        Err(_detail) => shared.telemetry.handoff_failed.inc(),
    }
}

/// The fallible body of a handoff; returns the number of entries the
/// rejoining backend acknowledged (0 when there was nothing to move).
fn run_handoff(shared: &Arc<ClusterShared>, backend: usize) -> Result<u64, String> {
    let mut garble = false;
    match shared.faults().check(FaultPoint::Handoff, backend) {
        Some(FaultAction::Kill) => return Err("injected: handoff killed".to_string()),
        Some(FaultAction::Stall(ms)) => {
            std::thread::sleep(Duration::from_millis(ms));
            return Err("injected: stall during handoff".to_string());
        }
        Some(FaultAction::Slow(ms)) => std::thread::sleep(Duration::from_millis(ms)),
        Some(FaultAction::Garble) => garble = true,
        None => {}
    }
    let entries = pull_warm_state(shared, backend)?;
    if entries.is_empty() {
        return Ok(0);
    }
    push_warm_state(shared, backend, entries, garble)
}

/// Pulls one snapshot from every closed (healthy) replica except the
/// rejoining backend and keeps, deduplicated by canonical encoding:
/// result entries whose shard includes the rejoining backend, and every
/// model-cache entry (model state is shard-agnostic physics).
fn pull_warm_state(
    shared: &Arc<ClusterShared>,
    backend: usize,
) -> Result<Vec<SnapshotEntry>, String> {
    let replication = shared.options.replication;
    let backends = shared.backends.len();
    let mut seen: HashSet<String> = HashSet::new();
    let mut collected: Vec<SnapshotEntry> = Vec::new();
    let mut donors = 0usize;
    let mut pulled = 0usize;
    for donor in &shared.backends {
        if donor.index == backend || donor.state() != CircuitState::Closed {
            continue;
        }
        donors += 1;
        let Ok(mut client) = Client::connect_with(
            donor.addr(),
            ClientOptions::with_deadline(shared.options.request_timeout),
        ) else {
            continue;
        };
        let Ok(entries) = client.snapshot_entries(0) else {
            continue;
        };
        pulled += 1;
        shared.telemetry.handoff_snapshots_sent.inc();
        for entry in entries {
            let keep = match &entry {
                SnapshotEntry::Result { arch, workload, .. } => {
                    let fingerprint =
                        CacheKey::from_parts(*arch, Arc::new(workload.clone())).fingerprint();
                    rendezvous_order(fingerprint, backends)[..replication].contains(&backend)
                }
                SnapshotEntry::Model(_) => true,
            };
            if keep && seen.insert(wire::encode_snapshot_entry(&entry)) {
                collected.push(entry);
            }
        }
    }
    if donors > 0 && pulled == 0 {
        return Err("no donor replica delivered a snapshot".to_string());
    }
    Ok(collected)
}

/// Streams a restore into the rejoining backend.  The frames are built
/// here (not via [`Client::restore_entries`]) so the `Garble` fault can
/// corrupt a line in flight — the backend must then answer with a typed
/// rejection, which surfaces as a handoff failure and a cold fallback.
fn push_warm_state(
    shared: &Arc<ClusterShared>,
    backend: usize,
    entries: Vec<SnapshotEntry>,
    garble: bool,
) -> Result<u64, String> {
    let options = &shared.options;
    let budget = DEFAULT_MAX_LINE_BYTES * 3 / 4;
    let checksum = wire::snapshot_checksum(&entries);
    let total = entries.len() as u64;
    let chunks = wire::chunk_snapshot_entries(entries, budget);
    let mut client = Client::connect_with(
        shared.backends[backend].addr(),
        ClientOptions::with_deadline(options.request_timeout),
    )
    .map_err(|err| format!("connect to rejoining backend: {err}"))?;
    let chunk_count = chunks.len() as u64;
    for (index, chunk) in chunks.into_iter().enumerate() {
        let mut line = wire::encode_request(&Request {
            id: 0,
            body: RequestBody::Restore(chunk),
        });
        if garble && index == 0 {
            line = FaultPlan::garble_line(&line);
        }
        client
            .send_raw(&line)
            .map_err(|err| format!("send restore chunk: {err}"))?;
    }
    let end = wire::encode_request(&Request {
        id: 0,
        body: RequestBody::RestoreEnd(wire::SnapshotEnd {
            chunks: chunk_count,
            entries: total,
            checksum,
        }),
    });
    client
        .send_raw(&end)
        .map_err(|err| format!("send restore end: {err}"))?;
    match client.recv() {
        Ok(Response {
            body: ResponseBody::Restored(frame),
            ..
        }) => Ok(frame.entries),
        Ok(Response {
            body: ResponseBody::Error(frame),
            ..
        }) => Err(format!(
            "rejoining backend rejected the restore ({}): {}",
            frame.kind.as_str(),
            frame.detail
        )),
        Ok(_) => Err("unexpected frame answering the restore stream".to_string()),
        Err(err) => Err(format!("read restore acknowledgement: {err}")),
    }
}

// ---------------------------------------------------------------------------
// Client connections
// ---------------------------------------------------------------------------

/// The router's client side as one event loop runs it: decode, route,
/// answer local ops.
#[derive(Debug)]
struct ClientSide(Arc<ClusterShared>);

impl Handler for ClientSide {
    type State = ();

    fn on_line(&mut self, conn: &Arc<Conn>, (): &mut (), line: String) -> bool {
        let shared = &self.0;
        let request = match wire::decode_request(&line) {
            Ok(request) => request,
            Err(frame) => {
                shared.telemetry.front.malformed_total.inc();
                let id = wire::peek_id(&line);
                return conn.push(wire::encode_response(&Response::error(id, frame)));
            }
        };
        let id = request.id;
        let local = |frame| conn.push(wire::encode_response(&Response::error(Some(id), frame)));
        match request.body {
            RequestBody::Ping => conn.push(wire::encode_response(&Response {
                id: Some(id),
                body: ResponseBody::Pong,
            })),
            RequestBody::Stats => {
                fan_out(shared, conn, id, move |shared| aggregate_stats(shared, id))
            }
            RequestBody::Metrics { format } => fan_out(shared, conn, id, move |shared| {
                let frame = match format {
                    MetricsFormat::Json => MetricsFrame::Snapshot(cluster_scrape(shared)),
                    MetricsFormat::Text => MetricsFrame::Text(render_text(&cluster_scrape(shared))),
                    // The router itself samples no phase traces; spans live
                    // on the backends' own metrics endpoints.
                    MetricsFormat::Spans => MetricsFrame::Spans(Vec::new()),
                };
                Response {
                    id: Some(id),
                    body: ResponseBody::Metrics(frame),
                }
            }),
            // The router holds no caches of its own: warm state lives on the
            // backends, and the router moves it between them during handoff.
            // Clients wanting a snapshot talk to a backend directly.
            RequestBody::Snapshot { .. } | RequestBody::Restore(_) | RequestBody::RestoreEnd(_) => {
                local(ErrorFrame::new(
                    ErrorKind::Unsupported,
                    "snapshot/restore are backend ops; the router holds no cache state",
                ))
            }
            RequestBody::Eval(spec) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return local(ErrorFrame::new(
                        ErrorKind::ShuttingDown,
                        "router is draining",
                    ));
                }
                // Decode once for validation and the routing key; the raw
                // line is what travels to the backend.
                let eval_request = match spec.to_eval_request(id, &shared.workloads) {
                    Ok(eval_request) => eval_request,
                    Err(frame) => {
                        shared.telemetry.evals_failed.inc();
                        return local(frame);
                    }
                };
                shared.telemetry.evals_routed.inc();
                conn.begin();
                let job = ForwardJob {
                    id,
                    line: Arc::new(line),
                    fingerprint: eval_request.key().fingerprint(),
                    attempts: 0,
                    tried: 0,
                    deadline: Instant::now() + shared.options.request_deadline,
                    hedge: false,
                    delivered: Arc::new(AtomicBool::new(false)),
                    reply: Arc::clone(conn),
                };
                let hedge = hedge_copy(shared, &job);
                dispatch(shared, job);
                if let Some(copy) = hedge {
                    park_hedge(shared, copy);
                }
                true
            }
        }
    }
}

/// Answers a request whose response needs blocking calls to every backend
/// (`stats`, `metrics`) on a short-lived thread, so a slow or silent
/// backend never stalls an event loop.  The thread counts in the
/// connection's drain barrier, and shutdown joins it.
fn fan_out(
    shared: &Arc<ClusterShared>,
    conn: &Arc<Conn>,
    id: u64,
    respond: impl FnOnce(&ClusterShared) -> Response + Send + 'static,
) -> bool {
    conn.begin();
    let (owner, reply) = (Arc::clone(shared), Arc::clone(conn));
    let spawned = std::thread::Builder::new()
        .name("crosslight-cluster-fanout".to_string())
        .spawn(move || reply.answer(wire::encode_response(&respond(&owner))));
    let mut fan_outs = shared.fan_outs.lock().expect("fan-out list lock");
    fan_outs.retain(|handle| !handle.is_finished());
    match spawned {
        Ok(handle) => fan_outs.push(handle),
        Err(err) => conn.answer(wire::encode_response(&Response::error(
            Some(id),
            ErrorFrame::new(ErrorKind::Unavailable, format!("fan-out thread: {err}")),
        ))),
    }
    true
}

// ---------------------------------------------------------------------------
// Metrics aggregation
// ---------------------------------------------------------------------------

/// One cluster-wide scrape: the router's own `cluster_*` families merged
/// with the `server_*`/`runtime_*` families of every healthy backend,
/// summed across backends (counters/gauges add, histograms merge).  With
/// no backend reachable the router's own families still answer.
fn cluster_scrape(shared: &ClusterShared) -> RegistrySnapshot {
    let own = shared.metrics_snapshot();
    let parts: Vec<RegistrySnapshot> = shared
        .backends
        .iter()
        .filter(|backend| backend.state() == CircuitState::Closed)
        .filter_map(|backend| metrics_from(backend.addr(), shared.options.health_timeout))
        .collect();
    if parts.is_empty() {
        return own;
    }
    let aggregated = RegistrySnapshot::aggregated(parts);
    // The `cluster_` prefix is disjoint from the backends' families by
    // construction; a collision would mean a misconfigured peer, in which
    // case the router's own surface wins.
    RegistrySnapshot::merged(vec![own, aggregated]).unwrap_or_else(|_| shared.metrics_snapshot())
}

fn metrics_from(addr: SocketAddr, timeout: Duration) -> Option<RegistrySnapshot> {
    let mut client = Client::connect_with(addr, ClientOptions::with_deadline(timeout)).ok()?;
    let response = client.metrics(0, MetricsFormat::Json).ok()?;
    match response.body {
        ResponseBody::Metrics(MetricsFrame::Snapshot(snapshot)) => Some(snapshot),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Stats aggregation
// ---------------------------------------------------------------------------

/// Fans a `stats` request out to every backend (bounded by the health
/// timeout each) and sums the answers; per-worker vectors concatenate in
/// backend order.  With zero reachable backends the op itself degrades
/// to `unavailable`.
fn aggregate_stats(shared: &ClusterShared, id: u64) -> Response {
    let mut merged: Option<StatsFrame> = None;
    for backend in &shared.backends {
        let Some(frame) = stats_from(backend.addr(), shared.options.health_timeout) else {
            continue;
        };
        merged = Some(match merged {
            None => frame,
            Some(mut total) => {
                merge_server_stats(&mut total.server, &frame.server);
                merge_runtime_stats(&mut total.runtime, &frame.runtime);
                total
            }
        });
    }
    match merged {
        Some(frame) => Response {
            id: Some(id),
            body: ResponseBody::Stats(frame),
        },
        None => Response::error(
            Some(id),
            ErrorFrame::new(ErrorKind::Unavailable, "no backend reachable for stats"),
        ),
    }
}

fn stats_from(addr: SocketAddr, timeout: Duration) -> Option<StatsFrame> {
    let mut client = Client::connect_with(addr, ClientOptions::with_deadline(timeout)).ok()?;
    let response = client.stats(0).ok()?;
    match response.body {
        ResponseBody::Stats(frame) => Some(frame),
        _ => None,
    }
}

fn merge_server_stats(total: &mut WireServerStats, part: &WireServerStats) {
    total.connections_accepted += part.connections_accepted;
    total.connections_active += part.connections_active;
    total.requests_total += part.requests_total;
    total.evals_ok += part.evals_ok;
    total.evals_failed += part.evals_failed;
    total.shed_total += part.shed_total;
    total.malformed_total += part.malformed_total;
    total.oversized_total += part.oversized_total;
    total.queue_capacity += part.queue_capacity;
    total.in_flight += part.in_flight;
}

fn merge_runtime_stats(total: &mut RuntimeStats, part: &RuntimeStats) {
    total.submitted += part.submitted;
    total.completed += part.completed;
    total.cache_hits += part.cache_hits;
    total.cache_misses += part.cache_misses;
    total.cached_entries += part.cached_entries;
    total.prepared_configs += part.prepared_configs;
    total.per_worker.extend_from_slice(&part.per_worker);
    total.queue_depths.extend_from_slice(&part.queue_depths);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_clamp_to_sane_bounds() {
        let options = RouterOptions::default()
            .with_replication(100)
            .with_failure_threshold(0);
        let result = Router::bind("127.0.0.1:0", &[], options.clone());
        assert!(result.is_err(), "an empty backend list is rejected");
        let too_many: Vec<SocketAddr> = (0..(MAX_BACKENDS + 1))
            .map(|i| format!("127.0.0.1:{}", 1000 + i).parse().unwrap())
            .collect();
        assert!(Router::bind("127.0.0.1:0", &too_many, options).is_err());
    }

    #[test]
    fn shed_reasons_map_to_wire_vocabulary() {
        // `unavailable` must be retryable so clients know to try again,
        // and shutdown sheds must speak the existing drain vocabulary.
        assert!(ErrorKind::Unavailable.retryable());
        assert!(ErrorKind::ShuttingDown.retryable());
        assert_eq!(ErrorKind::Unavailable.as_str(), "unavailable");
    }
}
