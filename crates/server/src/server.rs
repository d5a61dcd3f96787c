//! The TCP front-end: a poll-based reactor.
//!
//! # Thread model
//!
//! One **acceptor** thread owns the [`TcpListener`] and hands accepted
//! sockets, round-robin, to a fixed pool of **event-loop** threads
//! (`event_loops`, independent of the connection count).  Each loop
//! multiplexes its connections over nonblocking sockets with `poll(2)`
//! (via the offline `libc` compat shim — see [`crate::poller`]), running a
//! per-connection state machine: an incremental length-limited line
//! scanner on the read side and a bounded queue of encoded response lines
//! on the write side.  `ping`/`stats`/error frames are answered inline by
//! the loop.  The `eval` frames a loop admits during one poll wake go to
//! the pool together, in [`EvalService::submit_detached_batch`] calls of
//! at most 16: the wake is the batch window, so batching never waits for
//! company.
//! Each eval's reply hands its outcome, with its connection, to one
//! **responder** thread, which encodes it, queues it on that connection,
//! and releases the admission permit.  A process serving one [`Server`]
//! therefore runs `3 + event_loops + workers` threads (main, acceptor,
//! responder, the loops and the pool), however many thousand connections
//! are open.
//!
//! # Load shedding
//!
//! Admission is a server-wide counting semaphore of `queue_capacity`
//! permits.  An `eval` frame that cannot take a permit is answered
//! *immediately* with an `overloaded` error — the connection never blocks
//! on evaluation and the server never buffers unbounded work.  Non-eval
//! ops (`ping`, `stats`) bypass admission so health checks still work
//! under overload.  The per-connection write queue is *bounded* too: a
//! client that stops reading its responses has its read interest dropped
//! once the queue fills (back-pressure instead of buffering), and a socket
//! that stays unwritable past `write_timeout` tears the connection down —
//! so a non-reading client can neither grow server memory without bound
//! nor wedge shutdown.  Queued lines dropped by such a teardown are
//! subtracted from the queue-depth gauge and counted in
//! `server_write_dropped_total`, so the gauge always returns to zero.
//!
//! # Graceful drain
//!
//! [`Server::shutdown`] stops the acceptor and half-closes every live
//! connection's read side: the loops see EOF and stop accepting input,
//! in-flight evaluations complete, the responder drains every completion,
//! the loops flush and close each connection once nothing is in flight,
//! and only then does the underlying [`EvalService`] shut down.  No
//! admitted request is ever dropped.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{BufRead, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crosslight_neural::workload::NetworkWorkload;
use crosslight_neural::zoo::PaperModel;
use crosslight_runtime::cache::CacheKey;
use crosslight_runtime::pool::{BatchItem, CancelToken, EvalService, RuntimeOptions, RuntimeStats};
use crosslight_runtime::request::EvalResponse;
use crosslight_runtime::RuntimeError;
use crosslight_telemetry::{
    render_text, Counter, Gauge, Histogram, Phase, Registry, RegistrySnapshot, RequestTrace,
    SpanRing, TraceSampler,
};

use crate::poller::{fd_of, wake_pair, LineScanner, PollSet, ScanEvent, WakeReceiver, Waker};
use crate::wire::{
    self, ErrorFrame, ErrorKind, EvalFrame, MetricsFormat, MetricsFrame, RequestBody, Response,
    ResponseBody, SnapshotEnd, SnapshotEntry, StatsFrame, WireMetricsSnapshot, WireRuntimeStats,
    WireServerStats, DEFAULT_MAX_LINE_BYTES,
};

/// Tuning knobs of the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerOptions {
    /// Worker threads of the underlying [`EvalService`].
    pub workers: usize,
    /// Cache shards of the underlying [`EvalService`].
    pub cache_shards: usize,
    /// Maximum evals admitted concurrently; everything beyond is shed with
    /// an `overloaded` error frame (clamped to at least 1).
    pub queue_capacity: usize,
    /// Maximum accepted line length in bytes (clamped to at least 1 KiB).
    pub max_line_bytes: usize,
    /// How long a socket write may stall before the connection is torn
    /// down — the bound that keeps a non-reading client from pinning its
    /// write queue (and therefore shutdown) forever.
    pub write_timeout: Duration,
    /// Trace one eval request in every `trace_sample_every` per connection
    /// through the full phase pipeline (read → decode → admission → queue →
    /// cache lookup → prepare → evaluate → serialize → write queue → write).
    /// `0` disables tracing entirely; `1` (the default) traces everything.
    pub trace_sample_every: u64,
    /// Event-loop threads multiplexing the connections (clamped to at
    /// least 1).  Connection count is unrelated: each loop polls all of
    /// its sockets, so thousands of connections share a handful of
    /// threads.
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

    /// Returns a copy with a different write-stall bound.
    #[must_use]
    pub fn with_write_timeout(mut self, write_timeout: Duration) -> Self {
        self.write_timeout = write_timeout;
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
    /// Default runtime options, 256 admitted evals, 64 KiB lines, 30 s
    /// write-stall bound, every request traced, and half the cores (at
    /// most 4) as event loops.
    fn default() -> Self {
        let runtime = RuntimeOptions::default();
        let event_loops =
            std::thread::available_parallelism().map_or(1, |cores| (cores.get() / 2).clamp(1, 4));
        Self {
            workers: runtime.workers,
            cache_shards: runtime.cache_shards,
            queue_capacity: 256,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            write_timeout: Duration::from_secs(30),
            trace_sample_every: 1,
            event_loops,
        }
    }
}

/// Point-in-time snapshot of the server and its evaluation pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerStats {
    /// Front-end counters (connections, sheds, malformed frames, …).
    pub server: WireServerStats,
    /// Evaluation-pool counters.
    pub runtime: RuntimeStats,
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

/// The front-end's metric handles, registered once at bind time under the
/// `server_` name prefix.  The runtime registers its own families under
/// `runtime_`, so [`Shared::metrics_snapshot`] can merge the two registries
/// into one scrape without collisions.
#[derive(Debug)]
struct ServerTelemetry {
    registry: Registry,
    requests_total: Counter,
    evals_ok: Counter,
    evals_failed: Counter,
    /// Admitted evals skipped because their connection died first.
    evals_cancelled: Counter,
    malformed_total: Counter,
    oversized_total: Counter,
    connections_accepted: Counter,
    connections_active: Gauge,
    connections_drained: Counter,
    bytes_read: Counter,
    bytes_written: Counter,
    /// Encoded response lines sitting in per-connection write queues.
    write_queue_depth: Gauge,
    /// Encoded response lines dropped because their connection tore down
    /// before they reached the socket.  Every drop is matched by a
    /// `write_queue_depth` decrement for lines that were queued, so the
    /// gauge returns to zero after every teardown.
    write_dropped: Counter,
    /// Pool submissions: one per event-loop wake that admitted evals.
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
        let telemetry = Self {
            requests_total: registry.counter(
                "server_requests_total",
                "Request frames received, including malformed and shed ones.",
            ),
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
            malformed_total: registry.counter(
                "server_malformed_total",
                "Lines rejected as invalid JSON, UTF-8, or protocol frames.",
            ),
            oversized_total: registry.counter(
                "server_oversized_total",
                "Lines rejected for exceeding the configured length limit.",
            ),
            connections_accepted: registry.counter(
                "server_connections_accepted_total",
                "TCP connections accepted since startup.",
            ),
            connections_active: registry
                .gauge("server_connections_active", "Currently open connections."),
            connections_drained: registry.counter(
                "server_connections_drained_total",
                "Connections that finished and were fully drained.",
            ),
            bytes_read: registry.counter(
                "server_bytes_read_total",
                "Bytes of accepted request lines, including newlines.",
            ),
            bytes_written: registry.counter(
                "server_bytes_written_total",
                "Bytes of response lines written, including newlines.",
            ),
            write_queue_depth: registry.gauge(
                "server_write_queue_depth",
                "Encoded response lines waiting in per-connection write queues.",
            ),
            write_dropped: registry.counter(
                "server_write_dropped_total",
                "Response lines dropped because their connection tore down \
                 before they reached the socket.",
            ),
            batches_total: registry.counter(
                "server_batches_total",
                "Pool submissions, one per event-loop wake that admitted evals.",
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
    conn: Arc<ConnShared>,
    client_id: u64,
    outcome: Result<EvalResponse, RuntimeError>,
}

#[derive(Debug)]
struct Shared {
    service: EvalService,
    options: ServerOptions,
    admission: Admission,
    telemetry: ServerTelemetry,
    shutting_down: AtomicBool,
    /// Prebuilt Table I workloads, indexed as [`PaperModel::all`].
    workloads: [Arc<NetworkWorkload>; 4],
}

impl Shared {
    fn snapshot(&self) -> ServerStats {
        let telemetry = &self.telemetry;
        // Read outcome counters before their causes: each outcome counter
        // increments strictly after the `requests_total` increment of the
        // same request, so reading outcomes first and the total last keeps
        // `requests_total >= evals_ok + evals_failed + shed + malformed +
        // oversized` true in every live snapshot (the same discipline the
        // runtime uses for `submitted >= completed`).
        let evals_ok = telemetry.evals_ok.get();
        let evals_failed = telemetry.evals_failed.get();
        let shed_total = self.admission.shed.get();
        let malformed_total = telemetry.malformed_total.get();
        let oversized_total = telemetry.oversized_total.get();
        let requests_total = telemetry.requests_total.get();
        ServerStats {
            server: WireServerStats {
                connections_accepted: telemetry.connections_accepted.get(),
                connections_active: telemetry.connections_active.get().max(0) as u64,
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
enum RestoreSession {
    /// No stream in progress.
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
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    event_loops: Vec<JoinHandle<()>>,
    responder: Option<JoinHandle<()>>,
    wakers: Arc<Vec<Waker>>,
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
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let options = ServerOptions {
            queue_capacity: options.queue_capacity.max(1),
            max_line_bytes: options.max_line_bytes.max(1024),
            event_loops: options.event_loops.max(1),
            ..options
        };
        let (wakers, wake_rxs): (Vec<Waker>, Vec<WakeReceiver>) = (0..options.event_loops)
            .map(|_| wake_pair())
            .collect::<std::io::Result<Vec<_>>>()?
            .into_iter()
            .unzip();
        let workloads = PaperModel::all().map(|model| {
            Arc::new(
                NetworkWorkload::from_spec(&model.spec()).expect("the Table I workloads are valid"),
            )
        });
        let service = EvalService::new(
            RuntimeOptions::default()
                .with_workers(options.workers)
                .with_cache_shards(options.cache_shards),
        );
        let admission = Admission {
            capacity: options.queue_capacity,
            in_flight: AtomicUsize::new(0),
            shed: Counter::new(),
        };
        let telemetry = ServerTelemetry::new(&options, &admission.shed);
        let shared = Arc::new(Shared {
            service,
            options,
            admission,
            telemetry,
            shutting_down: AtomicBool::new(false),
            workloads,
        });
        let (completions_tx, completions_rx) = mpsc::channel::<Completion>();
        let mut registrations = Vec::with_capacity(options.event_loops);
        let mut event_loops = Vec::with_capacity(options.event_loops);
        for (loop_id, wake_rx) in wake_rxs.into_iter().enumerate() {
            let (reg_tx, reg_rx) = mpsc::channel::<(u64, TcpStream)>();
            registrations.push(reg_tx);
            let shared = Arc::clone(&shared);
            let completions = completions_tx.clone();
            event_loops.push(
                std::thread::Builder::new()
                    .name(format!("crosslight-server-loop-{loop_id}"))
                    .spawn(move || event_loop(loop_id, &shared, &reg_rx, &wake_rx, &completions))
                    .expect("spawning an event-loop thread succeeds"),
            );
        }
        // The loops and the replies of in-flight evals hold the only
        // completion senders: once the loops have exited and the pool has
        // answered every eval, the responder sees the channel close.
        drop(completions_tx);
        let wakers = Arc::new(wakers);
        let responder = {
            let shared = Arc::clone(&shared);
            let wakers = Arc::clone(&wakers);
            std::thread::Builder::new()
                .name("crosslight-server-respond".to_string())
                .spawn(move || respond_loop(&shared, &completions_rx, &wakers))
                .expect("spawning the responder thread succeeds")
        };
        let acceptor = {
            let shared = Arc::clone(&shared);
            let wakers = Arc::clone(&wakers);
            std::thread::Builder::new()
                .name("crosslight-server-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared, &registrations, &wakers))
                .expect("spawning the acceptor thread succeeds")
        };
        Ok(Self {
            local_addr,
            shared,
            acceptor: Some(acceptor),
            event_loops,
            responder: Some(responder),
            wakers,
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshot of the server and runtime counters.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
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
        // Wake the acceptor: it re-checks the flag per connection, so a
        // throwaway local connection unblocks `accept`.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        // Wake the loops: each one half-closes its connections' read
        // sides, drains in-flight work (the responder is still running),
        // and exits once its connection table is empty.
        for waker in self.wakers.iter() {
            waker.wake();
        }
        for handle in self.event_loops.drain(..) {
            let _ = handle.join();
        }
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

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    registrations: &[Sender<(u64, TcpStream)>],
    wakers: &[Waker],
) {
    let mut next_id: u64 = 0;
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        // Responses are small frames on a request/response cycle; Nagle +
        // delayed ACK would add tens of milliseconds per exchange.
        let _ = stream.set_nodelay(true);
        // The reactor owns all blocking via poll(2).
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let connection_id = next_id;
        next_id += 1;
        shared.telemetry.connections_accepted.inc();
        shared.telemetry.connections_active.add(1);
        let loop_id = (connection_id % registrations.len() as u64) as usize;
        if registrations[loop_id].send((connection_id, stream)).is_ok() {
            wakers[loop_id].wake();
        } else {
            // The loop is gone (shutdown raced the accept): the socket
            // drops here, closing the connection.
            shared.telemetry.connections_active.sub(1);
            shared.telemetry.connections_drained.inc();
        }
    }
}

/// Upper bound on encoded response lines queued per connection before the
/// loop drops the connection's read interest — the back-pressure bound
/// that keeps a non-reading client from growing server memory.
const WRITE_QUEUE_LINES: usize = 1024;

/// How long an idle event loop sleeps in `poll(2)` between housekeeping
/// sweeps (write-stall checks); wakeups cut the sleep short.
const POLL_TICK: Duration = Duration::from_millis(250);

/// Most `read(2)` calls one connection may issue per poll tick, so a
/// fire-hosing client cannot starve its loop-mates or stall shutdown.
const MAX_READS_PER_TICK: usize = 32;

/// One unit of write-side work: an encoded response line (newline
/// included), plus — for the sampled requests — the trace to finish once
/// the line reaches the socket.
struct Outgoing {
    line: String,
    trace: Option<OutgoingTrace>,
}

/// The phase timeline riding on a queued response line.
struct OutgoingTrace {
    trace: Box<RequestTrace>,
    /// When the line entered the write queue (`write_queue` phase start).
    enqueued: Instant,
    /// When the first write attempt began (`write` phase start); `None`
    /// until the line reaches the queue front.
    write_start: Option<Instant>,
}

/// The write-side state machine of one connection, shared between its
/// event loop and the responder behind a mutex.
#[derive(Default)]
struct WriteState {
    queue: VecDeque<Outgoing>,
    /// Bytes of the front line already written (partial-write resume).
    front_written: usize,
    /// Set once the connection is torn down; late lines are dropped (and
    /// counted) instead of queued.
    closed: bool,
    /// When the socket first refused to make progress; cleared by any
    /// successful write.  The write-stall teardown bound.
    stalled_since: Option<Instant>,
}

/// The connection state shared across threads: the event loop reads, the
/// responder (and the loop) write under the `write` mutex.
struct ConnShared {
    loop_id: usize,
    stream: TcpStream,
    write: Mutex<WriteState>,
    /// Cancels this connection's queued evaluations when the socket dies.
    cancel: CancelToken,
    /// Admitted evals awaiting their response line — the graceful-close
    /// barrier.
    in_flight: AtomicUsize,
    /// Set by the loop while the write queue is full and read interest is
    /// dropped; tells the responder a flush may need to wake the loop.
    read_paused: AtomicBool,
    /// Set by the loop at client EOF; tells the responder that draining
    /// the last in-flight eval needs a close-condition re-check.
    draining: AtomicBool,
}

impl ConnShared {
    fn new(loop_id: usize, stream: TcpStream) -> Self {
        Self {
            loop_id,
            stream,
            write: Mutex::new(WriteState::default()),
            cancel: CancelToken::new(),
            in_flight: AtomicUsize::new(0),
            read_paused: AtomicBool::new(false),
            draining: AtomicBool::new(false),
        }
    }
}

impl fmt::Debug for ConnShared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConnShared")
            .field("loop_id", &self.loop_id)
            .field("in_flight", &self.in_flight.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// The event loop's private view of one connection.
struct Conn {
    link: Arc<ConnShared>,
    scanner: LineScanner,
    restore: RestoreSession,
    read_closed: bool,
}

/// Queues one encoded response line (newline appended here), keeping the
/// queue-depth gauge in step.  Returns `false` when the connection is
/// already torn down — the line is dropped and counted, never queued.
fn push_line(
    telemetry: &ServerTelemetry,
    conn: &ConnShared,
    mut line: String,
    trace: Option<(Box<RequestTrace>, Instant)>,
) -> bool {
    line.push('\n');
    let mut guard = conn.write.lock().expect("write-state lock poisoned");
    if guard.closed {
        telemetry.write_dropped.inc();
        return false;
    }
    telemetry.write_queue_depth.add(1);
    guard.queue.push_back(Outgoing {
        line,
        trace: trace.map(|(trace, enqueued)| OutgoingTrace {
            trace,
            enqueued,
            write_start: None,
        }),
    });
    true
}

/// Subtracts every queued line from the depth gauge and counts it dropped.
/// The complement of `push_line`'s increment on the teardown path — this
/// pairing is what keeps `server_write_queue_depth` returning to zero.
fn drop_queued_lines(telemetry: &ServerTelemetry, state: &mut WriteState) {
    let dropped = state.queue.len();
    if dropped > 0 {
        telemetry.write_queue_depth.sub(dropped as i64);
        telemetry.write_dropped.add(dropped as u64);
    }
    state.queue.clear();
    state.front_written = 0;
}

/// Writes as much of the queue as the socket accepts right now, resuming
/// partial lines, timing traced ones, and tearing the write side down on
/// socket failure.  Called from both the event loop (on `POLLOUT`) and the
/// responder (opportunistically, right after queueing a completion).
/// Returns `false` when the write side is (or just became) dead.
fn try_flush(telemetry: &ServerTelemetry, conn: &ConnShared) -> bool {
    let mut finished: Vec<(Box<RequestTrace>, Instant)> = Vec::new();
    let mut failed = false;
    {
        let mut guard = conn.write.lock().expect("write-state lock poisoned");
        if guard.closed {
            return false;
        }
        let state = &mut *guard;
        // Gather up to a syscall's worth of queue front into one vectored
        // write: under a pipelined burst this turns a write syscall per
        // response line into one per flush.
        const FLUSH_LINES: usize = 64;
        'flush: while !state.queue.is_empty() {
            let write_start = Instant::now();
            for front in state.queue.iter_mut().take(FLUSH_LINES) {
                if let Some(traced) = front.trace.as_mut() {
                    if traced.write_start.is_none() {
                        traced
                            .trace
                            .record(Phase::WriteQueue, traced.enqueued, write_start);
                        traced.write_start = Some(write_start);
                    }
                }
            }
            let slices: Vec<IoSlice<'_>> = state
                .queue
                .iter()
                .take(FLUSH_LINES)
                .enumerate()
                .map(|(i, out)| {
                    let bytes = out.line.as_bytes();
                    IoSlice::new(if i == 0 {
                        &bytes[state.front_written..]
                    } else {
                        bytes
                    })
                })
                .collect();
            match (&conn.stream).write_vectored(&slices) {
                Ok(0) => {
                    failed = true;
                    break 'flush;
                }
                Ok(mut written) => {
                    state.stalled_since = None;
                    while written > 0 {
                        let front = state.queue.front().expect("accounted line exists");
                        let remaining = front.line.len() - state.front_written;
                        if written < remaining {
                            state.front_written += written;
                            break;
                        }
                        written -= remaining;
                        telemetry.bytes_written.add(front.line.len() as u64);
                        telemetry.write_queue_depth.sub(1);
                        state.front_written = 0;
                        let out = state.queue.pop_front().expect("front line exists");
                        if let Some(traced) = out.trace {
                            if let Some(write_start) = traced.write_start {
                                finished.push((traced.trace, write_start));
                            }
                        }
                    }
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if state.stalled_since.is_none() {
                        state.stalled_since = Some(Instant::now());
                    }
                    break 'flush;
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    failed = true;
                    break 'flush;
                }
            }
        }
        if failed {
            // The traces of unwritten lines (including the half-written
            // front) are dropped with them — error paths are not part of
            // the latency story.
            drop_queued_lines(telemetry, state);
            state.closed = true;
        } else if state.queue.is_empty() {
            state.stalled_since = None;
        }
    }
    if !finished.is_empty() {
        // One flush instant for the whole burst: these lines reached the
        // socket together.
        let flushed = Instant::now();
        for (mut trace, write_start) in finished {
            trace.record(Phase::Write, write_start, flushed);
            telemetry.finish_trace(&trace);
        }
    }
    if failed {
        // No response can ever be delivered again, so queued evaluations
        // for this connection are pure waste — cancel them, and close the
        // read side so the loop reaps the connection.
        conn.cancel.cancel();
        let _ = conn.stream.shutdown(Shutdown::Both);
        return false;
    }
    true
}

/// Tears a connection's write side down outside of a flush: drains the
/// queue with accounting, cancels its queued evaluations, and closes the
/// socket.  Idempotent.
fn abort_connection(telemetry: &ServerTelemetry, conn: &ConnShared) {
    {
        let mut guard = conn.write.lock().expect("write-state lock poisoned");
        if !guard.closed {
            guard.closed = true;
            let state = &mut *guard;
            drop_queued_lines(telemetry, state);
        }
    }
    conn.cancel.cancel();
    let _ = conn.stream.shutdown(Shutdown::Both);
}

/// Final accounting when the event loop removes a connection from its
/// table, for both graceful closes and aborts.
fn finish_connection(telemetry: &ServerTelemetry, conn: &ConnShared) {
    {
        let mut guard = conn.write.lock().expect("write-state lock poisoned");
        if !guard.closed {
            guard.closed = true;
            let state = &mut *guard;
            drop_queued_lines(telemetry, state);
        }
    }
    let _ = conn.stream.shutdown(Shutdown::Both);
    telemetry.connections_active.sub(1);
    telemetry.connections_drained.inc();
}

/// One event-loop thread: multiplexes its share of the connections over
/// `poll(2)`, running the read-side state machines inline, submitting each
/// wake's admitted evals to the pool in batches, and flushing write queues
/// as sockets drain.
fn event_loop(
    loop_id: usize,
    shared: &Arc<Shared>,
    registrations: &Receiver<(u64, TcpStream)>,
    wake_rx: &WakeReceiver,
    completions: &Sender<Completion>,
) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut poll_set = PollSet::new();
    let mut slots: Vec<Option<u64>> = Vec::new();
    let mut to_close: Vec<u64> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let mut admitted: Vec<BatchItem> = Vec::new();
    loop {
        // Adopt connections the acceptor handed over.
        while let Ok((id, stream)) = registrations.try_recv() {
            conns.insert(
                id,
                Conn {
                    link: Arc::new(ConnShared::new(loop_id, stream)),
                    scanner: LineScanner::new(),
                    restore: RestoreSession::Idle,
                    read_closed: false,
                },
            );
        }
        let shutting_down = shared.shutting_down.load(Ordering::SeqCst);
        if shutting_down {
            // Half-close every read side (idempotent): the next read sees
            // EOF, input stops, and in-flight work drains gracefully.
            for conn in conns.values() {
                let _ = conn.link.stream.shutdown(Shutdown::Read);
            }
        }
        // Housekeeping sweep: reap closed connections, finish graceful
        // drains, and tear down stalled writers.
        to_close.clear();
        for (&id, conn) in &conns {
            let (queue_len, closed, stalled_since) = {
                let guard = conn.link.write.lock().expect("write-state lock poisoned");
                (guard.queue.len(), guard.closed, guard.stalled_since)
            };
            if closed {
                to_close.push(id);
                continue;
            }
            if conn.read_closed
                && queue_len == 0
                && conn.link.in_flight.load(Ordering::Acquire) == 0
            {
                // Graceful close: EOF seen, every admitted eval answered,
                // every response on the wire.
                to_close.push(id);
                continue;
            }
            if let Some(since) = stalled_since {
                if since.elapsed() >= shared.options.write_timeout {
                    abort_connection(&shared.telemetry, &conn.link);
                    to_close.push(id);
                }
            }
        }
        for id in to_close.drain(..) {
            if let Some(conn) = conns.remove(&id) {
                finish_connection(&shared.telemetry, &conn.link);
            }
        }
        if shutting_down && conns.is_empty() {
            // Account for connections registered after our last adoption
            // pass; they were never served.
            while let Ok((_, stream)) = registrations.try_recv() {
                let _ = stream.shutdown(Shutdown::Both);
                shared.telemetry.connections_active.sub(1);
                shared.telemetry.connections_drained.inc();
            }
            return;
        }
        // Interest registration: slot 0 is the wakeup channel; one slot
        // per connection that wants anything.
        poll_set.clear();
        slots.clear();
        poll_set.push(wake_rx.fd(), true, false);
        slots.push(None);
        for (&id, conn) in &conns {
            let queue_len = {
                let guard = conn.link.write.lock().expect("write-state lock poisoned");
                guard.queue.len()
            };
            let paused = !conn.read_closed && queue_len >= WRITE_QUEUE_LINES;
            conn.link.read_paused.store(paused, Ordering::Release);
            let want_read = !conn.read_closed && !paused;
            let want_write = queue_len > 0;
            if want_read || want_write {
                poll_set.push(fd_of(&conn.link.stream), want_read, want_write);
                slots.push(Some(id));
            }
        }
        let _ = poll_set.poll(Some(POLL_TICK));
        for (slot, entry) in slots.iter().enumerate() {
            let readiness = poll_set.readiness(slot);
            if !readiness.any() {
                continue;
            }
            let Some(id) = *entry else {
                wake_rx.drain();
                continue;
            };
            let Some(conn) = conns.get_mut(&id) else {
                continue;
            };
            if readiness.error {
                abort_connection(&shared.telemetry, &conn.link);
                if let Some(conn) = conns.remove(&id) {
                    finish_connection(&shared.telemetry, &conn.link);
                }
                continue;
            }
            if readiness.writable {
                let _ = try_flush(&shared.telemetry, &conn.link);
            }
            if readiness.readable {
                if service_read(shared, conn, completions, &mut admitted, &mut scratch) {
                    // Flush whatever the burst of inline responses queued
                    // before going back to sleep.
                    let _ = try_flush(&shared.telemetry, &conn.link);
                } else {
                    if let Some(conn) = conns.remove(&id) {
                        finish_connection(&shared.telemetry, &conn.link);
                    }
                }
            }
        }
        submit_admitted(shared, &mut admitted);
    }
}

/// Most admitted evals one pool submission carries.  A wake that admits
/// more submits them in slices of this size as it reads, so the workers
/// start on the first evals while the loop is still decoding the rest.
const MAX_BATCH: usize = 16;

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

/// Reads one connection until the socket would block (bounded per tick),
/// feeding bytes through the line scanner into the request handler.
/// Returns `false` when the connection failed and was aborted — the
/// caller removes it immediately.
fn service_read(
    shared: &Arc<Shared>,
    conn: &mut Conn,
    completions: &Sender<Completion>,
    admitted: &mut Vec<BatchItem>,
    scratch: &mut [u8],
) -> bool {
    let max_bytes = shared.options.max_line_bytes;
    for _ in 0..MAX_READS_PER_TICK {
        {
            // Back-pressure mid-burst too: a full write queue stops the
            // reads until the client drains its responses.
            let guard = conn.link.write.lock().expect("write-state lock poisoned");
            if guard.queue.len() >= WRITE_QUEUE_LINES {
                break;
            }
        }
        let read = match (&conn.link.stream).read(scratch) {
            Ok(0) => {
                conn.read_closed = true;
                conn.link.draining.store(true, Ordering::Release);
                break;
            }
            Ok(read) => read,
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                abort_connection(&shared.telemetry, &conn.link);
                return false;
            }
        };
        let Conn {
            link,
            scanner,
            restore,
            ..
        } = conn;
        if !scanner.push(&scratch[..read], max_bytes, |event| {
            handle_line_event(shared, link, restore, completions, admitted, event)
        }) {
            // The write side tore down mid-burst; stop consuming input and
            // let the sweep reap the connection.
            break;
        }
    }
    true
}

/// Handles one framing event from a connection's line scanner: the whole
/// per-op protocol surface.  Inline ops are answered straight onto the
/// write queue; admitted evals join the wake's batch in `admitted`, each
/// with a reply that routes its outcome to the responder.  Returns `false`
/// when the connection died and scanning should stop.
fn handle_line_event(
    shared: &Arc<Shared>,
    conn: &Arc<ConnShared>,
    restore: &mut RestoreSession,
    completions: &Sender<Completion>,
    admitted: &mut Vec<BatchItem>,
    event: ScanEvent,
) -> bool {
    let telemetry = &shared.telemetry;
    // Decide up front whether this request is traced: an untraced request
    // must never read the clock, so the sampling decision precedes any
    // timestamp.
    let read_mark = if telemetry.sampler.sample() {
        Some(Instant::now())
    } else {
        None
    };
    let line = match event {
        ScanEvent::Line(line) => line,
        ScanEvent::Oversized => {
            telemetry.requests_total.inc();
            telemetry.oversized_total.inc();
            let frame = ErrorFrame::new(
                ErrorKind::Oversized,
                format!("line exceeds {} bytes", shared.options.max_line_bytes),
            );
            let line = wire::encode_response(&Response::error(None, frame));
            return push_line(telemetry, conn, line, None);
        }
        ScanEvent::InvalidUtf8 => {
            telemetry.requests_total.inc();
            telemetry.malformed_total.inc();
            let frame = ErrorFrame::new(ErrorKind::Malformed, "line is not valid UTF-8");
            let line = wire::encode_response(&Response::error(None, frame));
            return push_line(telemetry, conn, line, None);
        }
    };
    if line.trim().is_empty() {
        return true;
    }
    telemetry.bytes_read.add(line.len() as u64 + 1);
    telemetry.requests_total.inc();
    let request = match wire::decode_request(&line) {
        Ok(request) => request,
        Err(frame) => {
            telemetry.malformed_total.inc();
            let id = wire::peek_id(&line);
            let line = wire::encode_response(&Response::error(id, frame));
            return push_line(telemetry, conn, line, None);
        }
    };
    match request.body {
        RequestBody::Ping => {
            let line = wire::encode_response(&Response {
                id: Some(request.id),
                body: ResponseBody::Pong,
            });
            push_line(telemetry, conn, line, None)
        }
        RequestBody::Stats => {
            let stats = shared.snapshot();
            let line = wire::encode_response(&Response {
                id: Some(request.id),
                body: ResponseBody::Stats(StatsFrame {
                    server: stats.server,
                    runtime: WireRuntimeStats::from(&stats.runtime),
                }),
            });
            push_line(telemetry, conn, line, None)
        }
        RequestBody::Metrics { format } => {
            let frame = match format {
                MetricsFormat::Json => {
                    MetricsFrame::Snapshot(WireMetricsSnapshot::from(&shared.metrics_snapshot()))
                }
                MetricsFormat::Text => MetricsFrame::Text(render_text(&shared.metrics_snapshot())),
                MetricsFormat::Spans => {
                    // Draining hands each exported timeline to exactly
                    // one scraper; server and runtime rings append into
                    // one page.
                    let mut spans = telemetry.spans.drain();
                    spans.extend(shared.service.span_ring().drain());
                    MetricsFrame::Spans(spans)
                }
            };
            let line = wire::encode_response(&Response {
                id: Some(request.id),
                body: ResponseBody::Metrics(frame),
            });
            push_line(telemetry, conn, line, None)
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
                if !push_line(telemetry, conn, line, None) {
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
            push_line(telemetry, conn, line, None)
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
            push_line(telemetry, conn, line, None)
        }
        RequestBody::Eval(spec) => {
            if shared.shutting_down.load(Ordering::SeqCst) {
                let frame = ErrorFrame::new(ErrorKind::ShuttingDown, "server is draining");
                let line = wire::encode_response(&Response::error(Some(request.id), frame));
                return push_line(telemetry, conn, line, None);
            }
            let eval_request = match spec.to_eval_request(request.id, &shared.workloads) {
                Ok(eval_request) => eval_request,
                Err(frame) => {
                    telemetry.evals_failed.inc();
                    let line = wire::encode_response(&Response::error(Some(request.id), frame));
                    return push_line(telemetry, conn, line, None);
                }
            };
            // Only successfully decoded evals grow into full traces;
            // `decode` covers frame parsing plus spec resolution.  In the
            // reactor the wait for bytes happens inside poll(2), not in a
            // per-request read call, so the `read` span collapses to the
            // instant the completed line surfaced from the scanner.
            let mut trace = read_mark.map(|mark| {
                let mut trace = Box::new(RequestTrace::with_origin(request.id, mark));
                trace.record(Phase::Read, mark, mark);
                trace.record_since(Phase::Decode, mark);
                trace
            });
            let admission_start = trace.as_ref().map(|_| Instant::now());
            if !shared.admission.try_acquire() {
                let frame = ErrorFrame::new(
                    ErrorKind::Overloaded,
                    format!(
                        "admission queue full (capacity {})",
                        shared.admission.capacity
                    ),
                );
                let line = wire::encode_response(&Response::error(Some(request.id), frame));
                return push_line(telemetry, conn, line, None);
            }
            if let (Some(trace), Some(start)) = (trace.as_mut(), admission_start) {
                trace.record_since(Phase::Admission, start);
            }
            conn.in_flight.fetch_add(1, Ordering::AcqRel);
            if trace.is_some() {
                telemetry.traces_sampled.inc();
            }
            // The reply captures only the connection and the responder's
            // channel, never `Shared`: `Shared` owns the pool, and a last
            // `Arc<Shared>` dropped on a worker would make it join itself.
            let reply_conn = Arc::clone(conn);
            let completions = completions.clone();
            let client_id = request.id;
            admitted.push(BatchItem {
                request: eval_request,
                trace,
                cancel: Some(conn.cancel.clone()),
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

/// The responder: routes each pool completion back to its owning
/// connection, encodes the response line, flushes opportunistically, and
/// releases the admission permit.
///
/// Completions are drained greedily before flushing: under a pipelined
/// burst they arrive back to back, and flushing once per *connection* per
/// drain instead of once per completion turns a write syscall per
/// response into one per burst.
fn respond_loop(shared: &Shared, completions: &Receiver<Completion>, wakers: &[Waker]) {
    let telemetry = &shared.telemetry;
    // Bounds one drain so a saturating completion stream cannot starve
    // the flush (and thus the client) indefinitely.
    const DRAIN_MAX: usize = 256;
    let mut touched: Vec<Arc<ConnShared>> = Vec::new();
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
            let _ = try_flush(telemetry, &conn);
            // Wake the owning loop only when this drain changed what it
            // must watch: a residual queue needs POLLOUT, an unpaused
            // reader needs POLLIN back, and a draining connection needs
            // its close-condition re-checked.  A fully-flushed response
            // on a live connection changes nothing.
            let residual = {
                let guard = conn.write.lock().expect("write-state lock poisoned");
                !guard.queue.is_empty()
            };
            let unpause = conn.read_paused.load(Ordering::Acquire);
            let draining = conn.draining.load(Ordering::Acquire)
                && conn.in_flight.load(Ordering::Acquire) == 0;
            if residual || unpause || draining {
                wakers[conn.loop_id].wake();
            }
        }
    }
}

/// Handles one pool completion: encodes and enqueues the response line
/// (or accounts for a cancelled/failed eval) and releases the admission
/// permit.  Returns the owning connection so the caller can flush and
/// re-arm its event loop once per drain.
fn deliver_completion(shared: &Shared, completion: Completion) -> Arc<ConnShared> {
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
            push_line(telemetry, &conn, line, traced);
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
            push_line(telemetry, &conn, wire::encode_response(&response), None);
        }
    }
    // Release the permit only after the line is queued: a non-reading
    // client therefore caps both the write queue and the number of
    // evals in flight.
    conn.in_flight.fetch_sub(1, Ordering::AcqRel);
    shared.admission.release();
    conn
}

/// Outcome of reading one length-limited line.
///
/// Public so other front-ends speaking the same protocol (the cluster
/// router) share one line discipline instead of re-deriving it.
#[derive(Debug)]
pub enum LineRead {
    /// A complete line (without the newline).
    Line(String),
    /// The line exceeded the limit; the rest of it was discarded.
    Oversized,
    /// The line was not valid UTF-8.
    InvalidUtf8,
    /// End of stream.
    Eof,
    /// The socket failed.
    Error,
}

/// Reads one `\n`-terminated line of at most `max_bytes`, discarding the
/// remainder of over-long lines so the stream stays line-synchronized.
pub fn read_line_limited<R: BufRead>(reader: &mut R, max_bytes: usize) -> LineRead {
    let mut buf: Vec<u8> = Vec::new();
    let mut oversized = false;
    loop {
        let (done, used) = {
            let available = match reader.fill_buf() {
                Ok(available) => available,
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return LineRead::Error,
            };
            if available.is_empty() {
                // EOF mid-line counts as EOF: the peer hung up before
                // finishing the frame, so there is nothing to answer.
                return LineRead::Eof;
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(newline) => {
                    if !oversized && buf.len() + newline <= max_bytes {
                        buf.extend_from_slice(&available[..newline]);
                    } else {
                        oversized = true;
                    }
                    (true, newline + 1)
                }
                None => {
                    if !oversized && buf.len() + available.len() <= max_bytes {
                        buf.extend_from_slice(available);
                    } else {
                        oversized = true;
                    }
                    (false, available.len())
                }
            }
        };
        reader.consume(used);
        if done {
            if oversized {
                return LineRead::Oversized;
            }
            return match String::from_utf8(buf) {
                Ok(line) => LineRead::Line(line),
                Err(_) => LineRead::InvalidUtf8,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn limited_line_reader_handles_lines_oversize_and_eof() {
        let data = b"short\n".to_vec();
        let mut reader = Cursor::new(data);
        assert!(matches!(
            read_line_limited(&mut reader, 1024),
            LineRead::Line(line) if line == "short"
        ));
        assert!(matches!(
            read_line_limited(&mut reader, 1024),
            LineRead::Eof
        ));

        let long = "x".repeat(5000) + "\nnext\n";
        let mut reader = Cursor::new(long.into_bytes());
        assert!(matches!(
            read_line_limited(&mut reader, 1024),
            LineRead::Oversized
        ));
        // The over-long line was discarded; the stream is still synchronized.
        assert!(matches!(
            read_line_limited(&mut reader, 1024),
            LineRead::Line(line) if line == "next"
        ));

        // A line of exactly the limit passes.
        let exact = "y".repeat(8) + "\n";
        let mut reader = Cursor::new(exact.into_bytes());
        assert!(matches!(
            read_line_limited(&mut reader, 8),
            LineRead::Line(line) if line.len() == 8
        ));

        // EOF mid-line is EOF, not a frame.
        let mut reader = Cursor::new(b"unterminated".to_vec());
        assert!(matches!(
            read_line_limited(&mut reader, 1024),
            LineRead::Eof
        ));

        // Invalid UTF-8 is its own outcome (answered as `malformed`, not
        // `oversized`), and the stream stays synchronized past it.
        let mut reader = Cursor::new(b"bad \xff byte\nnext\n".to_vec());
        assert!(matches!(
            read_line_limited(&mut reader, 1024),
            LineRead::InvalidUtf8
        ));
        assert!(matches!(
            read_line_limited(&mut reader, 1024),
            LineRead::Line(line) if line == "next"
        ));
    }

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

    /// A nonblocking loopback connection pair for write-path unit tests.
    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
        let local = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (peer, _) = listener.accept().expect("accept");
        local.set_nonblocking(true).expect("nonblocking");
        (local, peer)
    }

    #[test]
    fn aborting_a_connection_drains_the_write_queue_accounting() {
        let telemetry = ServerTelemetry::new(&ServerOptions::default(), &Counter::new());
        let (local, _peer) = loopback_pair();
        let conn = ConnShared::new(0, local);
        assert!(push_line(
            &telemetry,
            &conn,
            r#"{"id":1}"#.to_string(),
            None
        ));
        assert!(push_line(
            &telemetry,
            &conn,
            r#"{"id":2}"#.to_string(),
            None
        ));
        assert_eq!(telemetry.write_queue_depth.get(), 2);
        abort_connection(&telemetry, &conn);
        // Every queued line was subtracted from the gauge and counted
        // dropped — the teardown leak this regression test guards.
        assert_eq!(telemetry.write_queue_depth.get(), 0);
        assert_eq!(telemetry.write_dropped.get(), 2);
        // A late completion's line is dropped and counted, never queued.
        assert!(!push_line(
            &telemetry,
            &conn,
            r#"{"id":3}"#.to_string(),
            None
        ));
        assert_eq!(telemetry.write_queue_depth.get(), 0);
        assert_eq!(telemetry.write_dropped.get(), 3);
        // Queued evaluations of the dead connection were cancelled.
        assert!(conn.cancel.is_cancelled());
        // Aborting twice is safe and counts nothing extra.
        abort_connection(&telemetry, &conn);
        assert_eq!(telemetry.write_dropped.get(), 3);
    }

    #[test]
    fn a_failed_socket_write_drops_queued_lines_with_accounting() {
        let telemetry = ServerTelemetry::new(&ServerOptions::default(), &Counter::new());
        let (local, peer) = loopback_pair();
        let conn = ConnShared::new(0, local);
        // Kill the socket under the queue: the flush must fail.
        conn.stream
            .shutdown(Shutdown::Both)
            .expect("shutdown succeeds");
        drop(peer);
        for id in 0..3 {
            assert!(push_line(
                &telemetry,
                &conn,
                format!(r#"{{"id":{id}}}"#),
                None
            ));
        }
        assert_eq!(telemetry.write_queue_depth.get(), 3);
        assert!(!try_flush(&telemetry, &conn));
        assert_eq!(telemetry.write_queue_depth.get(), 0);
        assert_eq!(telemetry.write_dropped.get(), 3);
        assert!(conn.cancel.is_cancelled());
    }

    #[test]
    fn try_flush_writes_queued_lines_and_keeps_the_gauge_in_step() {
        let telemetry = ServerTelemetry::new(&ServerOptions::default(), &Counter::new());
        let (local, peer) = loopback_pair();
        let conn = ConnShared::new(0, local);
        assert!(push_line(&telemetry, &conn, "pong".to_string(), None));
        assert!(push_line(&telemetry, &conn, "stats".to_string(), None));
        assert_eq!(telemetry.write_queue_depth.get(), 2);
        assert!(try_flush(&telemetry, &conn));
        assert_eq!(telemetry.write_queue_depth.get(), 0);
        assert_eq!(telemetry.bytes_written.get(), 11);
        let mut received = String::new();
        let mut reader = std::io::BufReader::new(&peer);
        reader.read_line(&mut received).expect("first line");
        reader.read_line(&mut received).expect("second line");
        assert_eq!(received, "pong\nstats\n");
        assert_eq!(telemetry.write_dropped.get(), 0);
    }
}
