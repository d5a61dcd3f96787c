//! The evaluation server: the JSON-lines protocol on the shared
//! [`frontend`](crate::frontend) reactor.
//!
//! # Thread model
//!
//! The front-end owns the connections: one **acceptor** and `event_loops`
//! **event-loop** threads (independent of the connection count; one per
//! core by default, at most four) with line framing, bounded write queues
//! and the drain barrier.  This module is the protocol each loop runs: the
//! per-op match answers `ping`, `stats`, `metrics` and error frames inline
//! and admits `eval`s.
//!
//! The loop answers every admitted eval itself, through
//! [`EvalService::answer`]: a hit queues the id head plus the answer tail
//! memoized on the cache entry, encoded on the entry's first hit, and a
//! miss is prepared, evaluated, cached and encoded on the spot.  Either
//! answer reads the `worker` the key routes to, so its bytes are exactly
//! those [`EvalService::submit`] would give, and a connection's answers
//! come back in request order.  The service owns no thread, so a process
//! serving one [`Server`] runs `2 + event_loops` threads (main, acceptor
//! and the loops), however many thousand connections are open.
//!
//! # Load shedding
//!
//! Admission is a server-wide counting semaphore of `queue_capacity`
//! permits.  An eval holds its permit from admission to the end of the
//! poll wake that admitted it, so `queue_capacity` bounds the evals the
//! loops run between two polls.  An `eval` frame that cannot take a permit
//! is answered *immediately* with an `overloaded` error.  Non-eval ops
//! (`ping`, `stats`) bypass admission so health checks still work under
//! overload.  The front-end bounds each connection's write queue
//! too: a client that stops reading has its reads paused, and a write
//! stalled for 30 s tears the connection down.
//!
//! # Graceful drain
//!
//! [`Server::shutdown`] stops the acceptor and half-closes every live
//! connection's read side: the loops see EOF and stop accepting input,
//! flush and close each connection once its answers are written.  No
//! admitted request is ever dropped.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crosslight_core::simulator::SimulationReport;
use crosslight_neural::workload::NetworkWorkload;
use crosslight_neural::zoo::PaperModel;
use crosslight_runtime::pool::{Answer, EvalService, RuntimeOptions};
use crosslight_runtime::request::KeyedRequest;
use crosslight_telemetry::{
    render_text, Counter, Gauge, Histogram, Phase, Registry, RegistrySnapshot, RequestTrace,
    SpanRing,
};

use crate::frontend::{default_event_loops, Bound, Conn, Frontend, FrontendTelemetry, Handler};
use crate::wire::{
    self, ErrorFrame, ErrorKind, EvalFrame, MetricsFormat, MetricsFrame, RequestBody, Response,
    ResponseBody, StatsFrame, WireServerStats, DEFAULT_MAX_LINE_BYTES,
};

/// Tuning knobs of the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerOptions {
    /// Workers of the underlying [`EvalService`]: the `worker` an answer
    /// names is its key's fingerprint modulo this count, and `stats`
    /// reports `per_worker` with this many entries.  Workers are shards,
    /// not threads: the event loops answer every eval themselves.
    pub workers: usize,
    /// Maximum evals the event loops admit between two polls (an eval holds
    /// its permit until the end of the wake that admitted it); everything
    /// beyond is shed with an `overloaded` error frame (clamped to at
    /// least 1).
    pub queue_capacity: usize,
    /// Maximum accepted line length in bytes (clamped to at least 1 KiB).
    pub max_line_bytes: usize,
    /// Trace one request line in every `trace_sample_every` per event loop
    /// (each loop counts its own lines: its first, then every
    /// `trace_sample_every`-th) through the full phase pipeline (read →
    /// decode → admission → cache lookup → prepare → evaluate → serialize →
    /// write queue → write); a sampled line that is not an eval carries no
    /// trace.  `0` disables tracing entirely, `1` traces every
    /// eval, and the default is 16.
    pub trace_sample_every: u64,
    /// Event-loop threads multiplexing the connections and answering
    /// every eval (clamped to at least 1).  Connection count is unrelated:
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
    /// (`0` = off, `1` = every eval, `n` = one line in `n` per event loop).
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
    /// 64 KiB lines, one line in 16 traced on each event loop, and one
    /// event loop per core (at most 4), since the loops answer every eval
    /// themselves.
    fn default() -> Self {
        Self {
            workers: RuntimeOptions::default().workers,
            queue_capacity: 256,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            trace_sample_every: 16,
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

    fn release(&self, permits: usize) {
        if permits > 0 {
            self.in_flight.fetch_sub(permits, Ordering::AcqRel);
        }
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
    bytes_read: Counter,
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
    /// Scrape-time mirror of the span ring's drop count.
    spans_dropped: Counter,
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
        registry.counter(
            "server_batches_total",
            "Eval batches sent to the runtime (always zero: the event loops answer every eval).",
        );
        registry.histogram(
            "server_batch_size",
            "Evals per runtime batch (always empty: the event loops answer every eval).",
        );
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
            bytes_read: registry.counter(
                "server_bytes_read_total",
                "Bytes of accepted request lines, including newlines.",
            ),
            admission_in_flight: registry.gauge(
                "server_admission_in_flight",
                "Admission permits held by the evals of the current poll wakes.",
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
            spans_dropped: registry.counter(
                "server_trace_spans_dropped_total",
                "Trace timelines evicted from the span ring before export.",
            ),
            spans: SpanRing::default(),
            registry,
        };
        telemetry
            .admission_capacity
            .set(options.queue_capacity.max(1) as i64);
        telemetry
    }

    /// Folds a completed per-request timeline into the phase histograms,
    /// keeps it in the ring for span export, and records its end-to-end
    /// latency last: a scrape that counts the latency finds the timeline.
    fn finish_trace(&self, trace: Box<RequestTrace>) {
        for phase in Phase::ALL {
            if let Some(ns) = trace.phase_ns(phase) {
                self.phase_ns[phase.index()].record(ns);
            }
        }
        let request_ns = trace
            .first_start_ns(Phase::Decode)
            .map(|start| trace.latest_end_ns().saturating_sub(start));
        self.spans.push(trace);
        if let Some(ns) = request_ns {
            self.request_ns.record(ns);
        }
    }
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
}

impl Server {
    /// Binds the listener and spawns the acceptor and event loops.
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
        let frontend = bound.start(
            front_telemetry,
            options.max_line_bytes,
            Box::new(move |trace| trace_telemetry.finish_trace(trace)),
            |_| ServerLoop {
                shared: Arc::clone(&shared),
                held: 0,
                lines: 0,
            },
        );
        Ok(Self { shared, frontend })
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

    /// Stops accepting connections, drains every in-flight request and
    /// joins every reactor thread.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.frontend.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// The server protocol as one event loop runs it: the per-op match, the
/// admission permits held by the evals of the current wake, and the
/// loop's own line count picking the lines it traces.
struct ServerLoop {
    shared: Arc<Shared>,
    held: usize,
    lines: u64,
}

impl Handler for ServerLoop {
    /// The whole per-op protocol surface, every answer queued straight
    /// onto the connection's write queue.
    fn on_line(&mut self, conn: &Arc<Conn>, line: String) -> bool {
        let Self {
            shared,
            held,
            lines,
        } = self;
        let telemetry = &shared.telemetry;
        // Decide up front whether this request is traced: an untraced
        // request must never read the clock, so the sampling decision
        // precedes any timestamp.
        let every = shared.options.trace_sample_every;
        let read_mark = (every != 0 && lines.is_multiple_of(every)).then(Instant::now);
        *lines += 1;
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
                    // Draining renders each kept timeline for exactly one
                    // scraper.
                    MetricsFormat::Spans => MetricsFrame::Spans(telemetry.spans.drain()),
                };
                let line = wire::encode_response(&Response {
                    id: Some(request.id),
                    body: ResponseBody::Metrics(frame),
                });
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
                // starts: an eval's phases tile its timeline from decode to
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
                // The permit is released when this wake ends.
                *held += 1;
                if let Some((trace, cursor)) = traced.as_mut() {
                    let admitted = Instant::now();
                    trace.record(Phase::Admission, *cursor, admitted);
                    *cursor = admitted;
                    telemetry.traces_sampled.inc();
                }
                let lookup = traced
                    .as_mut()
                    .map(|(trace, cursor)| (&mut **trace, cursor));
                let line = match shared.service.answer(&keyed, lookup, hit_tail) {
                    // The head is at most 32 bytes; one more for the newline
                    // the queue appends.
                    Ok(Answer::Hit(tail)) => {
                        let mut line = String::with_capacity(tail.len() + 33);
                        wire::push_answer_head(Some(request.id), &mut line);
                        line.push_str(&tail);
                        line
                    }
                    Ok(Answer::Miss(eval)) => wire::encode_response(&Response {
                        id: Some(request.id),
                        body: ResponseBody::Eval(EvalFrame {
                            report: eval.report,
                            cache_hit: eval.cache_hit,
                            worker: eval.worker as u64,
                        }),
                    }),
                    // A failed eval's trace ends here: error paths are not
                    // part of the latency story.
                    Err(err) => {
                        telemetry.evals_failed.inc();
                        let frame = ErrorFrame::new(ErrorKind::Evaluation, err.to_string());
                        let line = wire::encode_response(&Response::error(Some(request.id), frame));
                        return conn.push(line);
                    }
                };
                // `serialize` covers the line's encoding: a hit's head and
                // copy (and its tail's encoding on an entry's first hit), or
                // a miss's whole answer.
                let traced = traced.map(|(mut trace, cursor)| {
                    let serialized = Instant::now();
                    trace.record(Phase::Serialize, cursor, serialized);
                    (trace, serialized)
                });
                telemetry.evals_ok.inc();
                conn.push_traced(line, traced)
            }
        }
    }

    /// Releases the admission permits of the evals this wake answered.
    fn end_of_wake(&mut self) {
        self.shared
            .admission
            .release(std::mem::take(&mut self.held));
    }
}

/// Encodes a cached report's eval-answer tail the way a batched hit on
/// `worker` is answered, so a hit's line is byte-identical to it.
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
        admission.release(1);
        assert!(admission.try_acquire());
        assert_eq!(admission.in_flight.load(Ordering::Relaxed), 2);
    }
}
