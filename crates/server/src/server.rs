//! The evaluation server: the JSON-lines protocol on the shared
//! [`frontend`](crate::frontend) reactor.
//!
//! # Thread model
//!
//! The front-end owns the connections: one **acceptor** and `event_loops`
//! **event-loop** threads (independent of the connection count; one per
//! core by default, at most four) with line framing, bounded write queues
//! and the drain barrier.  This module is the protocol each loop runs: the
//! per-op match answers `ping`, `stats`, `metrics`, snapshot and error
//! frames inline and admits `eval`s.
//!
//! An admitted eval whose report is in the result cache is answered on the
//! loop that decoded it ([`EvalService::answer_cached`]): the loop queues
//! the id head plus the answer tail memoized on the cache entry, encoded
//! on the entry's first inline hit, and releases the admission permit on
//! the spot.  The answer reads `"cache_hit":true` and the `worker` the key
//! routes to, so its bytes are exactly those of a hit the pool served.
//!
//! The other evals a loop admits during one poll wake go to the pool
//! together, in [`EvalService::submit_detached_batch`] calls of at most
//! 16: the wake is the batch window, so batching never waits for company.
//! Each such eval's reply hands its outcome, with its connection, to one
//! **responder** thread, which encodes it, queues it, flushes under the
//! front-end's flush-then-wake rule, and releases the admission permit.  A
//! process serving one [`Server`] therefore runs `3 + event_loops +
//! workers` threads (main, acceptor, responder, the loops and the pool),
//! however many thousand connections are open.
//!
//! # Load shedding
//!
//! Admission is a server-wide counting semaphore of `queue_capacity`
//! permits.  An `eval` frame that cannot take a permit is answered
//! *immediately* with an `overloaded` error — the connection never blocks
//! on evaluation and the server never buffers unbounded work.  Non-eval
//! ops (`ping`, `stats`) bypass admission so health checks still work
//! under overload.  The front-end bounds each connection's write queue
//! too: a client that stops reading has its reads paused, and a write
//! stalled for 30 s tears the connection down.
//!
//! # Graceful drain
//!
//! [`Server::shutdown`] stops the acceptor and half-closes every live
//! connection's read side: the loops see EOF and stop accepting input,
//! in-flight evaluations complete, the responder drains every completion,
//! the loops flush and close each connection once nothing is in flight,
//! and only then does the underlying [`EvalService`] shut down.  No
//! admitted request is ever dropped.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crosslight_core::simulator::SimulationReport;
use crosslight_neural::workload::NetworkWorkload;
use crosslight_neural::zoo::PaperModel;
use crosslight_runtime::cache::CacheKey;
use crosslight_runtime::pool::{BatchItem, EvalService, RuntimeOptions};
use crosslight_runtime::request::{EvalResponse, KeyedRequest};
use crosslight_runtime::RuntimeError;
use crosslight_telemetry::{
    render_text, Counter, Gauge, Histogram, Phase, Registry, RegistrySnapshot, RequestTrace,
    SpanRing, TraceSampler,
};

use crate::frontend::{default_event_loops, Bound, Conn, Frontend, FrontendTelemetry, Handler};
use crate::wire::{
    self, ErrorFrame, ErrorKind, EvalFrame, MetricsFormat, MetricsFrame, RequestBody, Response,
    ResponseBody, SnapshotEnd, SnapshotEntry, StatsFrame, WireServerStats, DEFAULT_MAX_LINE_BYTES,
};

/// Tuning knobs of the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerOptions {
    /// Worker threads of the underlying [`EvalService`].
    pub workers: usize,
    /// Maximum evals admitted concurrently; everything beyond is shed with
    /// an `overloaded` error frame (clamped to at least 1).
    pub queue_capacity: usize,
    /// Maximum accepted line length in bytes (clamped to at least 1 KiB).
    pub max_line_bytes: usize,
    /// Trace one eval request in every `trace_sample_every` per connection
    /// through the full phase pipeline (read → decode → admission → queue →
    /// cache lookup → prepare → evaluate → serialize → write queue → write).
    /// `0` disables tracing entirely; `1` (the default) traces everything.
    pub trace_sample_every: u64,
    /// Event-loop threads multiplexing the connections and answering
    /// cache hits (clamped to at least 1).  Connection count is unrelated:
    /// each loop polls all of its sockets, so thousands of connections
    /// share a handful of threads.
    pub event_loops: usize,
}

impl ServerOptions {
    /// Returns a copy with a different evaluation worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Returns a copy with a different admission-queue capacity.
    #[must_use]
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }

    /// Returns a copy with a different maximum line length.
    #[must_use]
    pub fn with_max_line_bytes(mut self, max_line_bytes: usize) -> Self {
        self.max_line_bytes = max_line_bytes;
        self
    }

    /// Returns a copy with a different phase-trace sampling period
    /// (`0` = off, `1` = every request, `n` = one in `n`).
    #[must_use]
    pub fn with_trace_sampling(mut self, trace_sample_every: u64) -> Self {
        self.trace_sample_every = trace_sample_every;
        self
    }

    /// Returns a copy with a different event-loop thread count.
    #[must_use]
    pub fn with_event_loops(mut self, event_loops: usize) -> Self {
        self.event_loops = event_loops;
        self
    }
}

impl Default for ServerOptions {
    /// One worker per core (the runtime default), 256 admitted evals,
    /// 64 KiB lines, every request traced, and one event loop per core (at
    /// most 4), since the loops answer cache hits themselves.
    fn default() -> Self {
        Self {
            workers: RuntimeOptions::default().workers,
            queue_capacity: 256,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            trace_sample_every: 1,
            event_loops: default_event_loops(),
        }
    }
}

#[derive(Debug)]
struct Admission {
    capacity: usize,
    in_flight: AtomicUsize,
    /// Registered with the server registry as `server_shed_total`.
    shed: Counter,
}

impl Admission {
    fn try_acquire(&self) -> bool {
        let mut current = self.in_flight.load(Ordering::Relaxed);
        loop {
            if current >= self.capacity {
                self.shed.inc();
                return false;
            }
            match self.in_flight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => current = actual,
            }
        }
    }

    fn release(&self) {
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The server's metric handles, registered once at bind time under the
/// `server_` name prefix.  The runtime registers its own families under
/// `runtime_`, so [`Shared::metrics_snapshot`] can merge the two registries
/// into one scrape without collisions.
#[derive(Debug)]
struct ServerTelemetry {
    registry: Registry,
    /// The connection machinery's families (requests, malformed and
    /// oversized lines, connections, write queues).
    front: FrontendTelemetry,
    evals_ok: Counter,
    evals_failed: Counter,
    /// Admitted evals skipped because their connection died first.
    evals_cancelled: Counter,
    bytes_read: Counter,
    /// Pool submissions: one per slice of at most 16 admitted evals that
    /// missed the cache during one event-loop wake.
    batches_total: Counter,
    /// Admitted evals per pool submission.
    batch_size: Histogram,
    /// Scrape-time mirrors of the admission semaphore.
    admission_in_flight: Gauge,
    admission_capacity: Gauge,
    /// Per-phase latency histograms, indexed by [`Phase::index`].
    phase_ns: Vec<Histogram>,
    /// End-to-end latency of traced requests: decode start (the first
    /// phase whose cost the server controls — `read` waits on the client)
    /// to the post-flush instant of the response write.
    request_ns: Histogram,
    traces_sampled: Counter,
    /// Snapshot streams served (one per `snapshot` op).
    snapshots_total: Counter,
    /// Cache entries exported across all served snapshots.
    snapshot_entries_total: Counter,
    /// Restore streams validated and applied.
    restores_total: Counter,
    /// Cache entries received in validated restore streams.
    restore_entries_total: Counter,
    /// Restore streams rejected (truncated, out of sequence, corrupt, or
    /// carrying invalid entries).
    restore_failed_total: Counter,
    /// Scrape-time mirror of the span ring's drop count.
    spans_dropped: Counter,
    sampler: TraceSampler,
    spans: SpanRing,
}

impl ServerTelemetry {
    fn new(options: &ServerOptions, shed: &Counter) -> Self {
        let registry = Registry::new();
        registry
            .register_counter(
                "server_shed_total",
                "Eval requests refused by admission control.",
                &[],
                shed,
            )
            .expect("the server metric vocabulary has no duplicates");
        let front = FrontendTelemetry::register(&registry, "server");
        registry
            .register_counter(
                "server_bytes_written_total",
                "Bytes of response lines written, including newlines.",
                &[],
                &front.bytes_written,
            )
            .expect("the server metric vocabulary has no duplicates");
        let telemetry = Self {
            front,
            evals_ok: registry.counter(
                "server_evals_ok_total",
                "Eval requests answered with a report.",
            ),
            evals_failed: registry.counter(
                "server_evals_failed_total",
                "Eval requests answered with an error frame.",
            ),
            evals_cancelled: registry.counter(
                "server_evals_cancelled_total",
                "Admitted evals skipped because their connection died before \
                 a worker picked them up.",
            ),
            bytes_read: registry.counter(
                "server_bytes_read_total",
                "Bytes of accepted request lines, including newlines.",
            ),
            batches_total: registry.counter(
                "server_batches_total",
                "Pool submissions, each of at most 16 evals one event-loop wake admitted that missed the cache.",
            ),
            batch_size: registry
                .histogram("server_batch_size", "Admitted evals per pool submission."),
            admission_in_flight: registry.gauge(
                "server_admission_in_flight",
                "Admission permits currently held by in-flight evals.",
            ),
            admission_capacity: registry.gauge(
                "server_admission_capacity",
                "Total admission permits (the queue_capacity option).",
            ),
            phase_ns: Phase::ALL
                .iter()
                .map(|phase| {
                    registry.histogram_with(
                        "server_phase_ns",
                        "Per-phase latency of traced requests, in nanoseconds.",
                        &[("phase", phase.as_str())],
                    )
                })
                .collect(),
            request_ns: registry.histogram(
                "server_request_ns",
                "End-to-end latency of traced requests (decode start to \
                 response flush), in nanoseconds.",
            ),
            traces_sampled: registry.counter(
                "server_traces_sampled_total",
                "Requests that carried a phase trace.",
            ),
            snapshots_total: registry.counter(
                "server_snapshots_total",
                "Warm-state snapshot streams served.",
            ),
            snapshot_entries_total: registry.counter(
                "server_snapshot_entries_total",
                "Cache entries exported across all served snapshots.",
            ),
            restores_total: registry.counter(
                "server_restores_total",
                "Warm-state restore streams validated and applied.",
            ),
            restore_entries_total: registry.counter(
                "server_restore_entries_total",
                "Cache entries received in validated restore streams.",
            ),
            restore_failed_total: registry.counter(
                "server_restore_failed_total",
                "Restore streams rejected as truncated, corrupt, or invalid.",
            ),
            spans_dropped: registry.counter(
                "server_trace_spans_dropped_total",
                "Trace timelines evicted from the span ring before export.",
            ),
            sampler: TraceSampler::new(options.trace_sample_every),
            spans: SpanRing::default(),
            registry,
        };
        telemetry
            .admission_capacity
            .set(options.queue_capacity.max(1) as i64);
        telemetry
    }

    /// Folds a completed per-request timeline into the phase and
    /// end-to-end histograms and queues its JSON line for span export.
    fn finish_trace(&self, trace: &RequestTrace) {
        for phase in Phase::ALL {
            if let Some(ns) = trace.phase_ns(phase) {
                self.phase_ns[phase.index()].record(ns);
            }
        }
        if let Some(start) = trace.first_start_ns(Phase::Decode) {
            self.request_ns
                .record(trace.latest_end_ns().saturating_sub(start));
        }
        self.spans.push(trace.to_json_line());
    }
}

/// One eval outcome on its way from the pool to the responder, with the
/// connection its response line belongs to and the client's own request id
/// to echo.
struct Completion {
    conn: Arc<Conn>,
    client_id: u64,
    outcome: Result<EvalResponse, RuntimeError>,
}

#[derive(Debug)]
struct Shared {
    service: EvalService,
    options: ServerOptions,
    admission: Admission,
    /// Shared with the front-end's trace sink, which must not hold
    /// `Shared` (see [`ServerLoop`]).
    telemetry: Arc<ServerTelemetry>,
    shutting_down: AtomicBool,
    /// Prebuilt Table I workloads, indexed as [`PaperModel::all`].
    workloads: [Arc<NetworkWorkload>; 4],
}

impl Shared {
    fn snapshot(&self) -> StatsFrame {
        let telemetry = &self.telemetry;
        // Read outcome counters before their causes: each outcome counter
        // increments strictly after the `requests_total` increment of the
        // same request, so reading outcomes first and the total last keeps
        // `requests_total >= evals_ok + evals_failed + shed + malformed +
        // oversized` true in every live snapshot (the same discipline the
        // runtime uses for `submitted >= completed`).
        let front = &telemetry.front;
        let evals_ok = telemetry.evals_ok.get();
        let evals_failed = telemetry.evals_failed.get();
        let shed_total = self.admission.shed.get();
        let malformed_total = front.malformed_total.get();
        let oversized_total = front.oversized_total.get();
        let requests_total = front.requests_total.get();
        StatsFrame {
            server: WireServerStats {
                connections_accepted: front.connections_accepted.get(),
                connections_active: front.connections_active.get().max(0) as u64,
                requests_total,
                evals_ok,
                evals_failed,
                shed_total,
                malformed_total,
                oversized_total,
                queue_capacity: self.admission.capacity as u64,
                in_flight: self.admission.in_flight.load(Ordering::Relaxed) as u64,
            },
            runtime: self.service.stats(),
        }
    }

    /// One merged scrape of the server and runtime registries, with the
    /// scrape-time mirror gauges synchronized first.
    fn metrics_snapshot(&self) -> RegistrySnapshot {
        let telemetry = &self.telemetry;
        telemetry
            .admission_in_flight
            .set(self.admission.in_flight.load(Ordering::Acquire) as i64);
        telemetry.spans_dropped.store(telemetry.spans.dropped());
        RegistrySnapshot::merged(vec![
            telemetry.registry.snapshot(),
            self.service.telemetry_snapshot(),
        ])
        .expect("the server_ and runtime_ metric prefixes are disjoint")
    }

    /// Exports both warm caches as one deterministic snapshot stream:
    /// result-cache entries first (sorted by key), then model-cache
    /// entries — the same order every replica produces for the same
    /// contents, so the terminal checksum is comparable across servers.
    fn collect_snapshot(&self) -> Vec<SnapshotEntry> {
        let mut entries: Vec<SnapshotEntry> = self
            .service
            .result_cache()
            .export()
            .into_iter()
            .map(|(key, report)| SnapshotEntry::Result {
                arch: *key.arch_key(),
                workload: (**key.workload()).clone(),
                report,
            })
            .collect();
        entries.extend(
            self.service
                .model_cache()
                .export()
                .into_iter()
                .map(SnapshotEntry::Model),
        );
        entries
    }

    /// Reuses the prebuilt Table I workload [`Arc`]s for transported
    /// workloads that match them, so restored result-cache keys share
    /// storage with organically-warmed ones instead of duplicating the
    /// layer tables per entry.
    fn intern_workload(&self, workload: NetworkWorkload) -> Arc<NetworkWorkload> {
        for known in &self.workloads {
            if **known == workload {
                return Arc::clone(known);
            }
        }
        Arc::new(workload)
    }

    /// Validates a completed restore stream against its terminal frame and
    /// applies it to the caches.  Model-cache entries are imported first
    /// (that import validates before touching the cache), so a rejected
    /// stream leaves both caches untouched.
    fn apply_restore(
        &self,
        entries: Vec<SnapshotEntry>,
        chunks: u64,
        end: &SnapshotEnd,
    ) -> Result<wire::RestoredFrame, ErrorFrame> {
        if chunks != end.chunks || entries.len() as u64 != end.entries {
            return Err(ErrorFrame::new(
                ErrorKind::Malformed,
                format!(
                    "truncated restore stream: got {chunks} chunks / {} entries, \
                     terminal frame promised {} / {}",
                    entries.len(),
                    end.chunks,
                    end.entries
                ),
            ));
        }
        if wire::snapshot_checksum(&entries) != end.checksum {
            return Err(ErrorFrame::new(
                ErrorKind::Malformed,
                "restore stream checksum mismatch",
            ));
        }
        let total = entries.len() as u64;
        let mut results = Vec::new();
        let mut model = Vec::new();
        for entry in entries {
            match entry {
                SnapshotEntry::Result {
                    arch,
                    workload,
                    report,
                } => {
                    let workload = self.intern_workload(workload);
                    results.push((CacheKey::from_parts(arch, workload), report));
                }
                SnapshotEntry::Model(entry) => model.push(entry),
            }
        }
        let inserted_model = self.service.model_cache().import(&model).map_err(|err| {
            ErrorFrame::new(
                ErrorKind::Malformed,
                format!("invalid snapshot entry: {err}"),
            )
        })?;
        let inserted_results = self.service.result_cache().import(results);
        Ok(wire::RestoredFrame {
            entries: total,
            results: inserted_results as u64,
            model: inserted_model as u64,
        })
    }
}

/// Per-connection restore-stream state.  Chunks are accumulated silently
/// (one response per *stream*, at `restore_end` — answering every chunk
/// would desynchronize pipelined response correlation); a mid-stream
/// violation poisons the session and surfaces as the terminal response.
#[derive(Default)]
enum RestoreSession {
    /// No stream in progress.
    #[default]
    Idle,
    /// Chunks 0..next_seq received and buffered.
    Active {
        next_seq: u64,
        entries: Vec<SnapshotEntry>,
    },
    /// The stream violated the protocol; the error is held until the
    /// terminal frame so the response stream stays aligned.
    Poisoned { frame: ErrorFrame },
}

/// The JSON-lines evaluation server.
///
/// # Example
///
/// ```
/// use crosslight_server::server::{Server, ServerOptions};
/// use crosslight_server::loadgen::Client;
/// use crosslight_server::wire::{EvalSpec, ResponseBody};
/// use crosslight_core::variants::CrossLightVariant;
/// use crosslight_neural::zoo::PaperModel;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let server = Server::bind("127.0.0.1:0", ServerOptions::default().with_workers(2))?;
/// let mut client = Client::connect(server.local_addr())?;
/// let spec = EvalSpec::paper(CrossLightVariant::OptTed, PaperModel::Lenet5SignMnist);
/// let response = client.eval(7, &spec)?;
/// assert!(matches!(response.body, ResponseBody::Eval(_)));
/// server.shutdown();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    frontend: Frontend,
    responder: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and spawns the acceptor, event loops, responder,
    /// and evaluation pool.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding, address resolution, or
    /// building the event loops' loopback wake channels.  Every socket is
    /// made before the first thread is spawned, so an error leaves no
    /// thread behind.
    pub fn bind(addr: impl ToSocketAddrs, options: ServerOptions) -> std::io::Result<Self> {
        let options = ServerOptions {
            queue_capacity: options.queue_capacity.max(1),
            max_line_bytes: options.max_line_bytes.max(1024),
            event_loops: options.event_loops.max(1),
            ..options
        };
        let bound = Bound::bind(addr, options.event_loops)?;
        let workloads = PaperModel::all().map(|model| {
            Arc::new(
                NetworkWorkload::from_spec(&model.spec()).expect("the Table I workloads are valid"),
            )
        });
        let service = EvalService::new(RuntimeOptions::default().with_workers(options.workers));
        let admission = Admission {
            capacity: options.queue_capacity,
            in_flight: AtomicUsize::new(0),
            shed: Counter::new(),
        };
        let telemetry = Arc::new(ServerTelemetry::new(&options, &admission.shed));
        let front_telemetry = telemetry.front.clone();
        let trace_telemetry = Arc::clone(&telemetry);
        let shared = Arc::new(Shared {
            service,
            options,
            admission,
            telemetry,
            shutting_down: AtomicBool::new(false),
            workloads,
        });
        let (completions_tx, completions_rx) = mpsc::channel::<Completion>();
        let responder = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("crosslight-server-respond".to_string())
                .spawn(move || respond_loop(&shared, &completions_rx))
                .expect("spawning the responder thread succeeds")
        };
        let frontend = bound.start(
            front_telemetry,
            options.max_line_bytes,
            Box::new(move |trace| trace_telemetry.finish_trace(trace)),
            |_| ServerLoop {
                shared: Arc::clone(&shared),
                completions: completions_tx.clone(),
                admitted: Vec::new(),
            },
        );
        // The loops and the replies of in-flight evals now hold the only
        // completion senders: once the loops have exited and the pool has
        // answered every eval, the responder sees the channel close.
        drop(completions_tx);
        Ok(Self {
            shared,
            frontend,
            responder: Some(responder),
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.frontend.local_addr()
    }

    /// Snapshot of the server and runtime counters — the in-process
    /// equivalent of the `stats` wire op.
    #[must_use]
    pub fn stats(&self) -> StatsFrame {
        self.shared.snapshot()
    }

    /// One merged scrape of the server and runtime metric registries —
    /// the in-process equivalent of the `metrics` wire op.
    #[must_use]
    pub fn metrics_snapshot(&self) -> RegistrySnapshot {
        self.shared.metrics_snapshot()
    }

    /// Stops accepting connections, drains every in-flight request, joins
    /// every reactor thread, and shuts the evaluation pool down.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // The loops drain in-flight work while the responder still runs.
        self.frontend.shutdown();
        // Late completions of cancelled evals still flow from the pool's
        // workers; the responder exits after delivering the last one.
        if let Some(handle) = self.responder.take() {
            let _ = handle.join();
        }
        // Dropping the service inside `self.shared` when the last Arc goes
        // away also joins the pool; nothing in-flight remains at this point.
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Most admitted evals one pool submission carries.  A wake that admits
/// more submits them in slices of this size as it reads, so the workers
/// start on the first evals while the loop is still decoding the rest.
const MAX_BATCH: usize = 16;

/// The server protocol as one event loop runs it: the per-op match, with
/// the evals admitted during the current wake waiting in `admitted`.
///
/// Eval replies capture only their connection and the responder's
/// channel, never `Shared`: `Shared` owns the pool, and a last
/// `Arc<Shared>` dropped on a worker would make it join itself.
struct ServerLoop {
    shared: Arc<Shared>,
    completions: Sender<Completion>,
    admitted: Vec<BatchItem>,
}

/// Hands the evals admitted so far to the pool in one submission.
fn submit_admitted(shared: &Shared, admitted: &mut Vec<BatchItem>) {
    if admitted.is_empty() {
        return;
    }
    shared.telemetry.batches_total.inc();
    shared.telemetry.batch_size.record(admitted.len() as u64);
    shared
        .service
        .submit_detached_batch(std::mem::take(admitted));
}

impl Handler for ServerLoop {
    type State = RestoreSession;

    /// The whole per-op protocol surface.  Inline ops and cache hits are
    /// answered straight onto the write queue; other admitted evals join
    /// the wake's batch, each with a reply that routes its outcome to the
    /// responder.
    fn on_line(&mut self, conn: &Arc<Conn>, restore: &mut RestoreSession, line: String) -> bool {
        let Self {
            shared,
            completions,
            admitted,
        } = self;
        let telemetry = &shared.telemetry;
        // Decide up front whether this request is traced: an untraced
        // request must never read the clock, so the sampling decision
        // precedes any timestamp.
        let read_mark = if telemetry.sampler.sample() {
            Some(Instant::now())
        } else {
            None
        };
        telemetry.bytes_read.add(line.len() as u64 + 1);
        let request = match wire::decode_request(&line) {
            Ok(request) => request,
            Err(frame) => {
                telemetry.front.malformed_total.inc();
                let id = wire::peek_id(&line);
                let line = wire::encode_response(&Response::error(id, frame));
                return conn.push(line);
            }
        };
        match request.body {
            RequestBody::Ping => {
                let line = wire::encode_response(&Response {
                    id: Some(request.id),
                    body: ResponseBody::Pong,
                });
                conn.push(line)
            }
            RequestBody::Stats => {
                let line = wire::encode_response(&Response {
                    id: Some(request.id),
                    body: ResponseBody::Stats(shared.snapshot()),
                });
                conn.push(line)
            }
            RequestBody::Metrics { format } => {
                let frame = match format {
                    MetricsFormat::Json => MetricsFrame::Snapshot(shared.metrics_snapshot()),
                    MetricsFormat::Text => {
                        MetricsFrame::Text(render_text(&shared.metrics_snapshot()))
                    }
                    // Draining hands each exported timeline to exactly one
                    // scraper.
                    MetricsFormat::Spans => MetricsFrame::Spans(telemetry.spans.drain()),
                };
                let line = wire::encode_response(&Response {
                    id: Some(request.id),
                    body: ResponseBody::Metrics(frame),
                });
                conn.push(line)
            }
            RequestBody::Snapshot { max_chunk_bytes } => {
                telemetry.snapshots_total.inc();
                let entries = shared.collect_snapshot();
                telemetry.snapshot_entries_total.add(entries.len() as u64);
                let total = entries.len() as u64;
                let checksum = wire::snapshot_checksum(&entries);
                // Keep every encoded chunk line comfortably under the line
                // limit: the entries array gets 3/4 of the budget, leaving
                // headroom for the response envelope.  The budget is our own
                // line limit, lowered to the peer's announced one when the
                // request carries `max_chunk_bytes` — a peer with a smaller
                // limit than ours would otherwise shed every chunk as
                // oversized.
                let server_budget = (shared.options.max_line_bytes.saturating_mul(3) / 4).max(1);
                let budget = match max_chunk_bytes {
                    Some(peer_limit) => {
                        let peer_limit = usize::try_from(peer_limit).unwrap_or(usize::MAX);
                        (peer_limit.saturating_mul(3) / 4).max(1).min(server_budget)
                    }
                    None => server_budget,
                };
                let chunks = wire::chunk_snapshot_entries(entries, budget);
                let chunk_count = chunks.len() as u64;
                for chunk in chunks {
                    let line = wire::encode_response(&Response {
                        id: Some(request.id),
                        body: ResponseBody::Snapshot(chunk),
                    });
                    if !conn.push(line) {
                        return false;
                    }
                }
                let line = wire::encode_response(&Response {
                    id: Some(request.id),
                    body: ResponseBody::SnapshotEnd(SnapshotEnd {
                        chunks: chunk_count,
                        entries: total,
                        checksum,
                    }),
                });
                conn.push(line)
            }
            RequestBody::Restore(chunk) => {
                // Chunks are acknowledged only by the terminal frame; see
                // `RestoreSession`.  Sequence 0 always starts a fresh stream,
                // so a client can retry on a surviving connection.
                if chunk.seq == 0 {
                    *restore = RestoreSession::Active {
                        next_seq: 1,
                        entries: chunk.entries,
                    };
                } else {
                    match restore {
                        RestoreSession::Active { next_seq, entries } if chunk.seq == *next_seq => {
                            *next_seq += 1;
                            entries.extend(chunk.entries);
                        }
                        RestoreSession::Poisoned { .. } => {}
                        RestoreSession::Active { next_seq, .. } => {
                            let frame = ErrorFrame::new(
                                ErrorKind::Malformed,
                                format!(
                                    "restore chunk out of sequence: expected {next_seq}, \
                                 got {}",
                                    chunk.seq
                                ),
                            );
                            *restore = RestoreSession::Poisoned { frame };
                        }
                        RestoreSession::Idle => {
                            let frame = ErrorFrame::new(
                                ErrorKind::Malformed,
                                format!("restore stream must start at chunk 0, got {}", chunk.seq),
                            );
                            *restore = RestoreSession::Poisoned { frame };
                        }
                    }
                }
                true
            }
            RequestBody::RestoreEnd(end) => {
                let session = std::mem::replace(restore, RestoreSession::Idle);
                // An empty stream (0 chunks) is a legal snapshot of an empty
                // cache, so Idle folds into an empty Active session.
                let response = match session {
                    RestoreSession::Poisoned { frame } => {
                        telemetry.restore_failed_total.inc();
                        Response::error(Some(request.id), frame)
                    }
                    RestoreSession::Idle => match shared.apply_restore(Vec::new(), 0, &end) {
                        Ok(frame) => {
                            telemetry.restores_total.inc();
                            Response {
                                id: Some(request.id),
                                body: ResponseBody::Restored(frame),
                            }
                        }
                        Err(frame) => {
                            telemetry.restore_failed_total.inc();
                            Response::error(Some(request.id), frame)
                        }
                    },
                    RestoreSession::Active { next_seq, entries } => {
                        let received = entries.len() as u64;
                        match shared.apply_restore(entries, next_seq, &end) {
                            Ok(frame) => {
                                telemetry.restores_total.inc();
                                telemetry.restore_entries_total.add(received);
                                Response {
                                    id: Some(request.id),
                                    body: ResponseBody::Restored(frame),
                                }
                            }
                            Err(frame) => {
                                telemetry.restore_failed_total.inc();
                                Response::error(Some(request.id), frame)
                            }
                        }
                    }
                };
                let line = wire::encode_response(&response);
                conn.push(line)
            }
            RequestBody::Eval(spec) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    let frame = ErrorFrame::new(ErrorKind::ShuttingDown, "server is draining");
                    let line = wire::encode_response(&Response::error(Some(request.id), frame));
                    return conn.push(line);
                }
                let keyed = match spec.to_eval_request(request.id, &shared.workloads) {
                    Ok(eval_request) => KeyedRequest::from(eval_request),
                    Err(frame) => {
                        telemetry.evals_failed.inc();
                        let line = wire::encode_response(&Response::error(Some(request.id), frame));
                        return conn.push(line);
                    }
                };
                // Only successfully decoded evals grow into full traces;
                // `decode` covers frame parsing, spec resolution and the
                // cache key's hash.  In the reactor the wait for bytes
                // happens inside poll(2), not in a per-request read call, so
                // the `read` span collapses to the instant the completed line
                // surfaced from the scanner.  The trace travels with its
                // cursor, the end of its latest span, where the next phase
                // starts: a hit's phases tile its timeline from decode to
                // flush.
                let mut traced = read_mark.map(|mark| {
                    let mut trace = Box::new(RequestTrace::with_origin(request.id, mark));
                    let decoded = Instant::now();
                    trace.record(Phase::Read, mark, mark);
                    trace.record(Phase::Decode, mark, decoded);
                    (trace, decoded)
                });
                if !shared.admission.try_acquire() {
                    let frame = ErrorFrame::new(
                        ErrorKind::Overloaded,
                        format!(
                            "admission queue full (capacity {})",
                            shared.admission.capacity
                        ),
                    );
                    let line = wire::encode_response(&Response::error(Some(request.id), frame));
                    return conn.push(line);
                }
                if let Some((trace, cursor)) = traced.as_mut() {
                    let admitted = Instant::now();
                    trace.record(Phase::Admission, *cursor, admitted);
                    *cursor = admitted;
                    telemetry.traces_sampled.inc();
                }
                let lookup = traced
                    .as_mut()
                    .map(|(trace, cursor)| (&mut **trace, cursor));
                if let Some(tail) = shared.service.answer_cached(&keyed, lookup, hit_tail) {
                    // The head is at most 32 bytes; one more for the newline
                    // the queue appends.  `serialize` covers the head and the
                    // copy, and the tail's encoding on an entry's first
                    // inline hit.
                    let mut line = String::with_capacity(tail.len() + 33);
                    wire::push_answer_head(Some(request.id), &mut line);
                    line.push_str(&tail);
                    let traced = traced.map(|(mut trace, cursor)| {
                        let serialized = Instant::now();
                        trace.record(Phase::Serialize, cursor, serialized);
                        (trace, serialized)
                    });
                    telemetry.evals_ok.inc();
                    let queued = conn.push_traced(line, traced);
                    shared.admission.release();
                    return queued;
                }
                conn.begin();
                let reply_conn = Arc::clone(conn);
                let completions = completions.clone();
                let client_id = request.id;
                admitted.push(BatchItem {
                    request: keyed,
                    trace: traced.map(|(trace, _)| trace),
                    cancel: Some(conn.cancel_token()),
                    reply: Box::new(move |outcome| {
                        let _ = completions.send(Completion {
                            conn: reply_conn,
                            client_id,
                            outcome,
                        });
                    }),
                });
                if admitted.len() >= MAX_BATCH {
                    submit_admitted(shared, admitted);
                }
                true
            }
        }
    }

    fn end_of_wake(&mut self) {
        submit_admitted(&self.shared, &mut self.admitted);
    }
}

/// Encodes a cached report's eval-answer tail the way a pool hit on
/// `worker` is answered, so an inline hit's line is byte-identical to it.
/// A memoized tail stays for good, so it holds no spare capacity.
fn hit_tail(report: &SimulationReport, worker: usize) -> Arc<String> {
    let mut tail = String::with_capacity(640);
    wire::push_eval_tail(
        &EvalFrame {
            report: *report,
            cache_hit: true,
            worker: worker as u64,
        },
        &mut tail,
    );
    tail.shrink_to_fit();
    Arc::new(tail)
}

/// The responder: routes each pool completion back to its owning
/// connection, encodes the response line, flushes under the front-end's
/// flush-then-wake rule, and releases the admission permit.
///
/// Completions are drained greedily before flushing: under a pipelined
/// burst they arrive back to back, and flushing once per *connection* per
/// drain instead of once per completion turns a write syscall per
/// response into one per burst.
fn respond_loop(shared: &Shared, completions: &Receiver<Completion>) {
    // Bounds one drain so a saturating completion stream cannot starve
    // the flush (and thus the client) indefinitely.
    const DRAIN_MAX: usize = 256;
    let mut touched: Vec<Arc<Conn>> = Vec::new();
    while let Ok(first) = completions.recv() {
        let mut drained = 0usize;
        let mut next = Some(first);
        while let Some(completion) = next {
            let conn = deliver_completion(shared, completion);
            if !touched.iter().any(|seen| Arc::ptr_eq(seen, &conn)) {
                touched.push(conn);
            }
            drained += 1;
            next = if drained < DRAIN_MAX {
                completions.try_recv().ok()
            } else {
                None
            };
        }
        for conn in touched.drain(..) {
            conn.flush_and_wake();
        }
    }
}

/// Handles one pool completion: encodes and enqueues the response line
/// (or accounts for a cancelled/failed eval) and releases the admission
/// permit.  Returns the owning connection so the caller can flush and
/// re-arm its event loop once per drain.
fn deliver_completion(shared: &Shared, completion: Completion) -> Arc<Conn> {
    let telemetry = &shared.telemetry;
    let Completion {
        conn,
        client_id,
        outcome,
    } = completion;
    match outcome {
        // A cancelled job means this connection already tore down:
        // there is nowhere to send a response, so just release the
        // permit and account for the skip.  Not an eval failure — the
        // request was never evaluated.
        Err(RuntimeError::Cancelled) => {
            telemetry.evals_cancelled.inc();
        }
        Ok(mut eval) => {
            telemetry.evals_ok.inc();
            let trace = eval.trace.take();
            let response = Response {
                id: Some(client_id),
                body: ResponseBody::Eval(EvalFrame {
                    report: eval.report,
                    cache_hit: eval.cache_hit,
                    worker: eval.worker as u64,
                }),
            };
            let serialize_start = trace.as_ref().map(|_| Instant::now());
            let line = wire::encode_response(&response);
            let traced = match (trace, serialize_start) {
                (Some(mut trace), Some(start)) => {
                    trace.record_since(Phase::Serialize, start);
                    Some((trace, Instant::now()))
                }
                _ => None,
            };
            conn.push_traced(line, traced);
        }
        Err(err) => {
            // The runtime reports failures without the response object,
            // so a failed eval's trace ends here — error paths are not
            // part of the latency story.
            telemetry.evals_failed.inc();
            let response = Response::error(
                Some(client_id),
                ErrorFrame::new(ErrorKind::Evaluation, err.to_string()),
            );
            conn.push(wire::encode_response(&response));
        }
    }
    // Release the permit only after the line is queued: a non-reading
    // client therefore caps both the write queue and the number of
    // evals in flight.
    conn.finish();
    shared.admission.release();
    conn
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_counts_sheds_and_releases() {
        let admission = Admission {
            capacity: 2,
            in_flight: AtomicUsize::new(0),
            shed: Counter::new(),
        };
        assert!(admission.try_acquire());
        assert!(admission.try_acquire());
        assert!(!admission.try_acquire());
        assert!(!admission.try_acquire());
        assert_eq!(admission.shed.get(), 2);
        admission.release();
        assert!(admission.try_acquire());
        assert_eq!(admission.in_flight.load(Ordering::Relaxed), 2);
    }
}
