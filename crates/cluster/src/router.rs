//! The cluster router: a wire-compatible front-end over N backend servers.
//!
//! # Thread model
//!
//! Clients live on the [`Server`](crosslight_server::server::Server)'s
//! reactor ([`crosslight_server::frontend`]): one **acceptor** and a fixed
//! pool of **event loops** (one per core, clamped to 1..=4) frame each
//! client's lines, answer local ops and dispatch evals.  Each backend gets
//! one **link** thread, owning one pipelined socket with at most
//! [`link::WINDOW`] requests in flight, over which it also checks the
//! backend's health; one **retry timer** holds backed-off jobs.  A router
//! therefore runs `2 + event_loops + backends` threads at any client
//! count.  Links, the timer and the shed paths answer through the
//! client's connection handle under the front-end's flush-then-wake rule,
//! so they never block on a slow client.  `stats` and `metrics` travel
//! over the links too: the link of every closed backend writes the
//! request on its own socket, the link that delivers the last answer
//! answers the client through the same handle, and the request counts in
//! the connection's drain barrier until then.
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
//! sits in the `warming` state — still excluded from routing — its link
//! pulls `snapshot` streams from the surviving replicas, keeps the
//! entries whose shard includes the rejoining backend (plus all
//! shard-agnostic model-cache entries), and `restore`s them, so the first
//! routed request already hits a warm cache.  Any handoff failure
//! degrades to the old cold readmission.  Optional **hedged requests**
//! ([`HedgePolicy`]) launch a second attempt on the next replica after a
//! delay derived from the observed per-hop p99; the first answer wins
//! exactly once and the loser is cancelled or discarded, never delivered.

use std::collections::HashSet;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crosslight_neural::workload::NetworkWorkload;
use crosslight_neural::zoo::PaperModel;
use crosslight_runtime::cache::CacheKey;
use crosslight_server::frontend::{
    default_event_loops, Bound, Conn, Frontend, FrontendTelemetry, Handler,
};
use crosslight_server::loadgen::{Client, ClientOptions};
use crosslight_server::poller::wake_pair;
use crosslight_server::wire::{
    self, ErrorFrame, ErrorKind, MetricsFormat, MetricsFrame, Request, RequestBody, Response,
    ResponseBody, SnapshotEntry, StatsFrame, DEFAULT_MAX_LINE_BYTES,
};
use crosslight_telemetry::{render_text, Counter, Gauge, Histogram, Registry, RegistrySnapshot};

use crate::backend::{rendezvous_order, BackendState, CircuitState};
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
    /// How long a backend link may read nothing before it pings its
    /// closed backend.
    pub health_interval: Duration,
    /// How long a link waits for any answer after a ping, or after the
    /// first `stats` or `metrics` request it owes, before it is declared
    /// dead; so it also bounds each backend's part of such a request.
    pub health_timeout: Duration,
    /// How long an open breaker cools down before the link's half-open
    /// trial (a fresh dial and a ping).
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

impl ShedReason {
    /// The label value of each reason, indexed by the reason.
    const LABELS: [&'static str; 4] = ["deadline", "attempts", "budget", "shutdown"];
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
    /// One counter per [`ShedReason`], in label order.
    shed: [Counter; 4],
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
    /// Indexed like the router's backends.
    backends: Vec<BackendTelemetry>,
}

/// One backend's series, each labelled with its index.
#[derive(Debug)]
struct BackendTelemetry {
    forwarded: Counter,
    failures: Counter,
    /// Set from the breaker at each scrape.
    state: Gauge,
    circuit_opened: Counter,
    readmitted: Counter,
    probes_ok: Counter,
    probes_failed: Counter,
    queue_depth: Gauge,
    in_flight: Gauge,
    /// One counter per [`link::Reset`] reason, in label order.
    link_resets: Vec<Counter>,
}

impl ClusterTelemetry {
    fn new(backends: usize) -> Self {
        let registry = Registry::new();
        let shed_help = "Requests answered with an explicit shed error instead of a report.";
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
            shed: ShedReason::LABELS.map(|reason| {
                registry.counter_with("cluster_shed_total", shed_help, &[("reason", reason)])
            }),
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
            backends: (0..backends)
                .map(|index| BackendTelemetry::register(&registry, &index.to_string()))
                .collect(),
            registry,
        }
    }
}

impl BackendTelemetry {
    fn register(registry: &Registry, backend: &str) -> Self {
        let counter = |name, help| registry.counter_with(name, help, &[("backend", backend)]);
        let gauge = |name, help| registry.gauge_with(name, help, &[("backend", backend)]);
        let labelled =
            |name, help, label| registry.counter_with(name, help, &[("backend", backend), label]);
        let probes = |outcome| {
            let help = "Health probes by outcome.";
            labelled("cluster_health_probes_total", help, ("outcome", outcome))
        };
        Self {
            forwarded: counter("cluster_forwarded_total", "Jobs handed to a backend queue."),
            failures: counter(
                "cluster_backend_failures_total",
                "Transport faults observed talking to a backend.",
            ),
            state: gauge(
                "cluster_backend_state",
                "Circuit state per backend: 0 closed, 1 open, 2 half-open, 3 warming.",
            ),
            circuit_opened: counter(
                "cluster_circuit_opened_total",
                "Times a backend's circuit breaker tripped open.",
            ),
            readmitted: counter(
                "cluster_backend_readmitted_total",
                "Times a backend passed half-open probing and rejoined.",
            ),
            probes_ok: probes("ok"),
            probes_failed: probes("failed"),
            queue_depth: gauge(
                "cluster_queue_depth",
                "Jobs waiting for a backend link's window.",
            ),
            in_flight: gauge(
                "cluster_backend_in_flight",
                "Requests written on a backend link and not yet answered.",
            ),
            link_resets: (link::Reset::LABELS.iter())
                .map(|&reason| {
                    let help = "Backend link teardowns by reason.";
                    labelled("cluster_link_resets_total", help, ("reason", reason))
                })
                .collect(),
        }
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
            telemetry.backends[backend.index]
                .state
                .set(backend.state().as_gauge());
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

/// Longest sleep of the link and retry loops: bounds how late a link
/// notices its breaker's cooldown elapse, and how long shutdown waits for
/// the retry timer to notice the flag.
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
        let shared = Arc::new(ClusterShared {
            telemetry: ClusterTelemetry::new(backends.len()),
            budget: RetryBudget::new(options.retry_budget),
            options,
            backends: backend_states,
            links: link_wakers.into_iter().map(link::Backlog::new).collect(),
            retry_tx: Mutex::new(Some(retry_tx)),
            shutting_down: AtomicBool::new(false),
            retired: AtomicBool::new(false),
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
            shed_total: telemetry.shed.iter().map(Counter::get).sum(),
            faults_injected: self.shared.faults().injected(),
            backend_states: self
                .shared
                .backends
                .iter()
                .map(BackendState::state)
                .collect(),
            readmitted: telemetry
                .backends
                .iter()
                .map(|b| b.readmitted.get())
                .collect(),
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
        // scrapes resolved (answered, failed over, or shed) — the links
        // and the retry timer are still running.
        self.frontend.shutdown();
        // No unresolved job exists now; retire the retry timer, then the
        // links.
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
        let depth = &shared.telemetry.backends[backend].queue_depth;
        match shared.links[backend].offer(job, shared.options.queue_capacity, depth) {
            Ok(()) => {
                shared.telemetry.backends[backend].forwarded.inc();
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

/// Parks a hedge copy of a freshly admitted job on the retry timer until
/// its p99-derived delay elapses, when the policy allows one.  The hedge
/// pre-marks the primary's preferred replica as tried, so with
/// replication > 1 the two attempts land on different backends.  A hedge
/// that cannot be parked (deadline too close, router draining) is
/// cancelled — it never answers the client.
fn launch_hedge(shared: &Arc<ClusterShared>, job: &ForwardJob) {
    let hedge = &shared.options.hedge;
    if !hedge.enabled || shared.options.replication < 2 {
        return;
    }
    let due = Instant::now() + hedge.delay(shared.telemetry.hop_ns.snapshot().p99());
    if due >= job.deadline || shared.shutting_down.load(Ordering::SeqCst) {
        shared.telemetry.hedges_cancelled.inc();
        return;
    }
    let mut copy = job.clone();
    copy.hedge = true;
    copy.tried = 1u64 << rendezvous_order(copy.fingerprint, shared.backends.len())[0];
    let lane = shared.retry_tx.lock().expect("retry lane lock poisoned");
    match lane.as_ref().map(|tx| tx.send((due, copy))) {
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
    let (reason, exhausted) = if job.attempts >= shared.options.retry.max_attempts.max(1) {
        (ShedReason::Attempts, "retry attempts exhausted")
    } else if !shared.budget.try_withdraw() {
        (ShedReason::Budget, "retry budget exhausted")
    } else {
        shared.telemetry.retries.inc();
        shared.telemetry.failovers.inc();
        return dispatch(shared, job);
    };
    match fallback {
        Some(line) => fail(shared, &job, None, line),
        None => shed(shared, &job, reason, &format!("{exhausted}: {detail}")),
    }
}

/// Answers a job with an explicit typed error — the never-hang guarantee.
/// Shutdown sheds speak `shutting_down`; everything else is the retryable
/// `unavailable`.
fn shed(shared: &Arc<ClusterShared>, job: &ForwardJob, reason: ShedReason, detail: &str) {
    let kind = match reason {
        ShedReason::Shutdown => ErrorKind::ShuttingDown,
        _ => ErrorKind::Unavailable,
    };
    let response = Response::error(Some(job.id), ErrorFrame::new(kind, detail));
    let counter = &shared.telemetry.shed[reason as usize];
    fail(shared, job, Some(counter), wire::encode_response(&response));
}

/// Answers a job with an error line, counted under `shed` when it is one.
fn fail(shared: &Arc<ClusterShared>, job: &ForwardJob, shed: Option<&Counter>, line: String) {
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
    if let Some(counter) = shed {
        counter.inc();
    }
    shared.telemetry.evals_failed.inc();
    job.reply.answer(line);
}

// ---------------------------------------------------------------------------
// Retry timer
// ---------------------------------------------------------------------------

fn retry_loop(shared: &Arc<ClusterShared>, rx: &Receiver<(Instant, ForwardJob)>) {
    // Earliest due first, and equal dues in arrival order, so retry order
    // is deterministic.
    let mut parked: Vec<(Instant, ForwardJob)> = Vec::new();
    loop {
        let wait = parked.first().map_or(IDLE_POLL, |(due, _)| {
            due.saturating_duration_since(Instant::now()).min(IDLE_POLL)
        });
        let lane_open = match rx.recv_timeout(wait) {
            Ok(entry) => {
                let at = parked.partition_point(|(due, _)| *due <= entry.0);
                parked.insert(at, entry);
                true
            }
            Err(RecvTimeoutError::Timeout) => true,
            // Shutdown: the lane is gone; nothing new can arrive.
            Err(RecvTimeoutError::Disconnected) => false,
        };
        // During shutdown, waiting out backoffs would stall the drain;
        // fire everything immediately (dispatch still answers each job).
        let now = Instant::now();
        let due = if lane_open && !shared.shutting_down.load(Ordering::SeqCst) {
            parked.partition_point(|(due, _)| *due <= now)
        } else {
            parked.len()
        };
        for (_, job) in parked.drain(..due) {
            dispatch(shared, job);
        }
        if !lane_open {
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// Warm-state handoff
// ---------------------------------------------------------------------------

/// One warm-state handoff into a rejoining backend, run by its link while
/// the backend is warming, with telemetry: pull
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
        let deadline = ClientOptions::with_deadline(shared.options.request_timeout);
        let pulled_entries = Client::connect_with(donor.addr(), deadline)
            .and_then(|mut client| client.snapshot_entries(0));
        let Ok(entries) = pulled_entries else {
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
    // A line the backend cannot decode is answered at once and without an
    // id; the answer to `restore_end` is its verdict on the whole stream.
    let verdict = loop {
        match client.recv() {
            Ok(Response { id: None, .. }) => {}
            verdict => break verdict,
        }
    };
    match verdict {
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
            RequestBody::Stats => scrape(shared, conn, id, None),
            // The router itself samples no phase traces; spans live on the
            // backends' own metrics endpoints.
            RequestBody::Metrics {
                format: MetricsFormat::Spans,
            } => conn.push(wire::encode_response(&Response {
                id: Some(id),
                body: ResponseBody::Metrics(MetricsFrame::Spans(Vec::new())),
            })),
            RequestBody::Metrics { format } => scrape(shared, conn, id, Some(format)),
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
                launch_hedge(shared, &job);
                dispatch(shared, job);
                true
            }
        }
    }
}

/// Hands a `stats` (`format` `None`) or `metrics` request to the link of
/// every closed backend as one [`Gather`]; with none closed it is answered
/// at once.
fn scrape(
    shared: &ClusterShared,
    conn: &Arc<Conn>,
    id: u64,
    format: Option<MetricsFormat>,
) -> bool {
    let closed: Vec<&BackendState> = shared.backends.iter().filter(|b| b.available()).collect();
    // The router renders the text page itself, from the backends' JSON.
    let body = format.map_or(RequestBody::Stats, |_| RequestBody::Metrics {
        format: MetricsFormat::Json,
    });
    let gather = Arc::new(Gather {
        id,
        format,
        line: wire::encode_request(&Request {
            id: link::CONTROL_ID,
            body,
        }),
        reply: Arc::clone(conn),
        parts: Mutex::new((vec![None; shared.backends.len()], closed.len())),
    });
    if closed.is_empty() {
        return conn.push(wire::encode_response(&gather.response(shared, Vec::new())));
    }
    conn.begin();
    for backend in closed {
        let link = &shared.links[backend.index];
        let mut scrapes = link.scrapes.lock().expect("scrape lock poisoned");
        scrapes.push(Arc::clone(&gather));
        drop(scrapes);
        link.wake();
    }
    true
}

/// One `stats` or `metrics` request gathered over the links: each closed
/// backend's link writes `line` and delivers the backend's answer as its
/// part, `None` when the link died, failed to dial or read nothing for
/// `health_timeout`.  The last part delivered answers the client.
#[derive(Debug)]
struct Gather {
    id: u64,
    format: Option<MetricsFormat>,
    line: String,
    reply: Arc<Conn>,
    /// Each backend's part, and how many are still owed.
    parts: Mutex<(Vec<Option<ResponseBody>>, usize)>,
}

impl Gather {
    fn deliver(&self, shared: &ClusterShared, backend: usize, part: Option<ResponseBody>) {
        let parts = {
            let mut state = self.parts.lock().expect("gather lock poisoned");
            state.0[backend] = part;
            state.1 -= 1;
            if state.1 > 0 {
                return;
            }
            std::mem::take(&mut state.0)
        };
        let response = self.response(shared, parts);
        self.reply.answer(wire::encode_response(&response));
    }

    /// Sums the `stats` parts (per-worker vectors concatenate in backend
    /// order; no part is `unavailable`), or merges the router's own
    /// `cluster_*` families with the backends' `server_*`/`runtime_*`
    /// families summed across the parts.
    fn response(&self, shared: &ClusterShared, parts: Vec<Option<ResponseBody>>) -> Response {
        let parts = parts.into_iter().flatten();
        let body = match self.format {
            None => match parts.filter_map(as_stats).reduce(merge_stats) {
                Some(frame) => ResponseBody::Stats(frame),
                None => {
                    let detail = "no backend reachable for stats";
                    let frame = ErrorFrame::new(ErrorKind::Unavailable, detail);
                    return Response::error(Some(self.id), frame);
                }
            },
            Some(format) => {
                let parts = RegistrySnapshot::aggregated(parts.filter_map(as_snapshot).collect());
                // The `cluster_` prefix is disjoint from the backends'
                // families by construction; a collision would mean a
                // misconfigured peer, and the router's own surface wins.
                let scrape = RegistrySnapshot::merged(vec![shared.metrics_snapshot(), parts])
                    .unwrap_or_else(|_| shared.metrics_snapshot());
                ResponseBody::Metrics(match format {
                    MetricsFormat::Text => MetricsFrame::Text(render_text(&scrape)),
                    _ => MetricsFrame::Snapshot(scrape),
                })
            }
        };
        Response {
            id: Some(self.id),
            body,
        }
    }
}

fn as_stats(part: ResponseBody) -> Option<StatsFrame> {
    match part {
        ResponseBody::Stats(frame) => Some(frame),
        _ => None,
    }
}

fn as_snapshot(part: ResponseBody) -> Option<RegistrySnapshot> {
    match part {
        ResponseBody::Metrics(MetricsFrame::Snapshot(snapshot)) => Some(snapshot),
        _ => None,
    }
}

fn merge_stats(mut total: StatsFrame, part: StatsFrame) -> StatsFrame {
    let (server, runtime) = (&mut total.server, &mut total.runtime);
    server.connections_accepted += part.server.connections_accepted;
    server.connections_active += part.server.connections_active;
    server.requests_total += part.server.requests_total;
    server.evals_ok += part.server.evals_ok;
    server.evals_failed += part.server.evals_failed;
    server.shed_total += part.server.shed_total;
    server.malformed_total += part.server.malformed_total;
    server.oversized_total += part.server.oversized_total;
    server.queue_capacity += part.server.queue_capacity;
    server.in_flight += part.server.in_flight;
    runtime.submitted += part.runtime.submitted;
    runtime.completed += part.runtime.completed;
    runtime.cache_hits += part.runtime.cache_hits;
    runtime.cache_misses += part.runtime.cache_misses;
    runtime.cached_entries += part.runtime.cached_entries;
    runtime.prepared_configs += part.runtime.prepared_configs;
    runtime
        .per_worker
        .extend_from_slice(&part.runtime.per_worker);
    runtime
        .queue_depths
        .extend_from_slice(&part.runtime.queue_depths);
    total
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
