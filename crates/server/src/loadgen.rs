//! In-crate load generator: a blocking client plus a multi-connection
//! driver with deterministic seeded request mixes.
//!
//! [`Client`] is the protocol's reference client: one TCP connection,
//! pipelined JSON-lines frames, typed decoding.  [`run`] fans a
//! deterministic scenario mix over `clients` concurrent connections and
//! aggregates a [`LoadReport`] — the tool behind `examples/serve.rs`, the
//! `bench_server` trajectory bin, and the stress tests, so every
//! throughput/shedding claim is produced by the same code path.
//! [`connect_swarm`]/[`Swarm`] multiplex thousands of connections over
//! `poll(2)` on a single thread — the client side of the
//! ten-thousand-connection stress runs, where a thread per connection
//! would blow the process budget the test is asserting.
//!
//! Determinism: client `c` of a run with seed `s` draws its scenario
//! sequence from `StdRng::seed_from_u64(s + c)` and uses ids
//! `c * requests_per_client + i`, so a mix can be replayed exactly and
//! every response can be mapped back to the spec that produced it.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crosslight_core::variants::CrossLightVariant;
use crosslight_neural::zoo::PaperModel;
use crosslight_telemetry::{Histogram, HistogramSnapshot};

use crate::poller::{fd_of, LineScanner, PollSet, ScanEvent};
use crate::wire::{
    self, ErrorFrame, ErrorKind, EvalSpec, MetricsFormat, Request, RequestBody, Response,
    ResponseBody,
};

/// The socket deadline of a [`Client`].  The default (`None`) keeps the
/// fully-blocking behaviour; a bound applies to connecting and to each
/// blocking read and write alike, turning an indefinite hang on a vanished
/// or wedged peer into a typed
/// [`std::io::ErrorKind::WouldBlock`]/[`std::io::ErrorKind::TimedOut`]
/// error.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientOptions {
    /// Bound on establishing the TCP connection, on each blocking read (one
    /// response line may span several) and on each blocking write.
    pub deadline: Option<Duration>,
}

impl ClientOptions {
    /// One bound for connect, read and write alike.
    #[must_use]
    pub fn with_deadline(timeout: Duration) -> Self {
        Self {
            deadline: Some(timeout),
        }
    }
}

/// A blocking JSON-lines client over one TCP connection.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    options: ClientOptions,
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// The line buffer every [`Client::recv`] reads into, kept across
    /// answers so a warm answer allocates no line of its own.
    line: String,
}

impl Client {
    /// Connects to a server with no socket deadlines (a vanished peer can
    /// block reads indefinitely; use [`Client::connect_with`] to bound
    /// every socket operation).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        Self::connect_with(addr, ClientOptions::default())
    }

    /// Connects to a server with an explicit socket deadline.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; a connect that exceeds
    /// `options.deadline` fails with a timeout error.
    pub fn connect_with(addr: SocketAddr, options: ClientOptions) -> std::io::Result<Self> {
        let stream = match options.deadline {
            Some(deadline) => TcpStream::connect_timeout(&addr, deadline)?,
            None => TcpStream::connect(addr)?,
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(options.deadline)?;
        stream.set_write_timeout(options.deadline)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            addr,
            options,
            reader,
            writer: BufWriter::new(stream),
            line: String::new(),
        })
    }

    /// Tears the current connection down and dials the same address again
    /// with the same [`ClientOptions`] — the recovery path after a read
    /// timeout or a peer that died mid-conversation.  Any responses still
    /// in flight on the old connection are lost; callers re-send what they
    /// still need (safe: evals are idempotent and errors are typed).
    ///
    /// # Errors
    ///
    /// Propagates socket errors from the fresh dial; on error the client
    /// keeps the (dead) old connection so a later retry can try again.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        let fresh = Self::connect_with(self.addr, self.options)?;
        *self = fresh;
        Ok(())
    }

    /// Sends one request without waiting for the response (pipelining).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send(&mut self, request: &Request) -> std::io::Result<()> {
        self.writer
            .write_all(wire::encode_request(request).as_bytes())?;
        self.writer.write_all(b"\n")
    }

    /// Flushes buffered requests to the socket.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }

    /// Sends one raw line verbatim (for protocol testing).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send_raw(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Flushes and half-closes the write side, signalling EOF to the
    /// server while keeping the read side open — the client-initiated
    /// drain: the server answers everything already pipelined, then closes.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn shutdown_write(&mut self) -> std::io::Result<()> {
        self.writer.flush()?;
        self.writer.get_ref().shutdown(std::net::Shutdown::Write)
    }

    /// Receives and decodes one response line.
    ///
    /// # Errors
    ///
    /// Returns an I/O error on EOF/socket failure — including a peer that
    /// closes **mid-frame** (bytes arrived but the line never terminated),
    /// which is a transport fault, not a server answer; a decode failure
    /// on a *complete* line is returned as a typed [`ErrorFrame`]
    /// response so callers see exactly what the server sent.
    pub fn recv(&mut self) -> std::io::Result<Response> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        if !self.line.ends_with('\n') {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-frame",
            ));
        }
        let line = self.line.trim_end_matches(['\n', '\r']);
        Ok(wire::decode_response(line).unwrap_or_else(|frame| Response::error(None, frame)))
    }

    /// Sends a request and waits for the next response line.
    ///
    /// Only valid when no other responses are pending on the connection
    /// (the protocol itself correlates by id, not order).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn call(&mut self, request: &Request) -> std::io::Result<Response> {
        self.send(request)?;
        self.flush()?;
        self.recv()
    }

    /// Sugar: evaluates one spec.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn eval(&mut self, id: u64, spec: &EvalSpec) -> std::io::Result<Response> {
        self.call(&Request {
            id,
            body: RequestBody::Eval(spec.clone()),
        })
    }

    /// Sugar: fetches a stats snapshot.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn stats(&mut self, id: u64) -> std::io::Result<Response> {
        self.call(&Request {
            id,
            body: RequestBody::Stats,
        })
    }

    /// Sugar: scrapes the server's merged metric registries in the given
    /// format (JSON snapshot, Prometheus-style text, or trace spans).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn metrics(&mut self, id: u64, format: MetricsFormat) -> std::io::Result<Response> {
        self.call(&Request {
            id,
            body: RequestBody::Metrics { format },
        })
    }

    /// Pipelines a whole mix of specs (ids `base_id + index`) and collects
    /// every response, in **arrival order** — pipelined responses complete
    /// out of order, so callers correlate by [`Response::id`].
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn eval_pipelined(
        &mut self,
        specs: &[EvalSpec],
        base_id: u64,
    ) -> std::io::Result<Vec<Response>> {
        let latency = Histogram::new();
        self.eval_pipelined_timed(specs, base_id, &latency)
    }

    /// [`Client::eval_pipelined`], recording each response's
    /// client-observed latency — elapsed time from the pipeline flush to
    /// that response's arrival — into `latency`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn eval_pipelined_timed(
        &mut self,
        specs: &[EvalSpec],
        base_id: u64,
        latency: &Histogram,
    ) -> std::io::Result<Vec<Response>> {
        for (index, spec) in specs.iter().enumerate() {
            self.send(&Request {
                id: base_id + index as u64,
                body: RequestBody::Eval(spec.clone()),
            })?;
        }
        self.flush()?;
        let flushed = Instant::now();
        let mut responses = Vec::with_capacity(specs.len());
        for _ in 0..specs.len() {
            let response = self.recv()?;
            latency.record(u64::try_from(flushed.elapsed().as_nanos()).unwrap_or(u64::MAX));
            responses.push(response);
        }
        Ok(responses)
    }
}

/// Options of a load-generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadGenOptions {
    /// Number of concurrent client connections.
    pub clients: usize,
    /// Requests sent by each client.
    pub requests_per_client: usize,
    /// Base RNG seed; client `c` uses `seed + c`.
    pub seed: u64,
    /// The scenario pool each client draws from uniformly.
    pub scenarios: Vec<EvalSpec>,
}

impl LoadGenOptions {
    /// A mixed paper-scenario pool: every variant × every Table I model ×
    /// two architectures × two resolutions (64 distinct scenarios).
    #[must_use]
    pub fn paper_mix(clients: usize, requests_per_client: usize, seed: u64) -> Self {
        let mut scenarios = Vec::new();
        for variant in CrossLightVariant::all() {
            for model in PaperModel::all() {
                for dims in [crosslight_core::config::BEST_CONFIG, (10, 100, 50, 30)] {
                    for resolution_bits in [16u32, 8] {
                        scenarios.push(EvalSpec::crosslight(
                            variant,
                            dims,
                            resolution_bits,
                            crate::wire::WorkloadRef::Model(model),
                        ));
                    }
                }
            }
        }
        Self {
            clients: clients.max(1),
            requests_per_client: requests_per_client.max(1),
            seed,
            scenarios,
        }
    }

    /// The deterministic spec sequence of one client (what [`run`] sends).
    #[must_use]
    pub fn client_specs(&self, client: usize) -> Vec<EvalSpec> {
        let mut rng = StdRng::seed_from_u64(self.seed + client as u64);
        (0..self.requests_per_client)
            .map(|_| self.scenarios[rng.gen_range(0..self.scenarios.len())].clone())
            .collect()
    }

    /// The id of request `index` of `client` (unique across the run).
    #[must_use]
    pub fn request_id(&self, client: usize, index: usize) -> u64 {
        (client * self.requests_per_client + index) as u64
    }
}

/// What one load-generation run observed.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Requests sent across all clients.
    pub sent: u64,
    /// Successful eval responses.
    pub ok: u64,
    /// Responses shed with `overloaded`.
    pub shed: u64,
    /// Any other error responses (by kind name), including id-less error
    /// frames (e.g. `oversized` rejections, which cannot echo an id).
    pub errors: Vec<(ErrorKind, u64)>,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Client-observed response latencies (flush-to-arrival, nanoseconds)
    /// merged across all clients — the demand side of the latency story,
    /// complementing the server's own `server_request_ns`.
    pub latency: HistogramSnapshot,
    /// Every `(id, response)` pair for responses that carried an id,
    /// sorted by id.  Id-less error frames are counted in
    /// [`LoadReport::errors`] only.
    pub responses: Vec<(u64, Response)>,
}

impl LoadReport {
    /// Aggregate requests per second over the run.
    #[must_use]
    pub fn throughput_rps(&self) -> f64 {
        if self.elapsed.as_secs_f64() == 0.0 {
            0.0
        } else {
            self.sent as f64 / self.elapsed.as_secs_f64()
        }
    }
}

/// Drives `options.clients` concurrent connections against `addr`, each
/// pipelining its deterministic seeded mix, and aggregates the outcome.
///
/// # Errors
///
/// Propagates the first client I/O error.
///
/// # Panics
///
/// Panics if a client thread itself panicked.
pub fn run(addr: SocketAddr, options: &LoadGenOptions) -> std::io::Result<LoadReport> {
    let start = Instant::now();
    let outcomes: Vec<std::io::Result<(Vec<Response>, HistogramSnapshot)>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..options.clients)
                .map(|client| {
                    scope.spawn(move || {
                        let specs = options.client_specs(client);
                        let base_id = options.request_id(client, 0);
                        let mut connection = Client::connect(addr)?;
                        let latency = Histogram::new();
                        let responses =
                            connection.eval_pipelined_timed(&specs, base_id, &latency)?;
                        Ok((responses, latency.snapshot()))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load-generator client panicked"))
                .collect()
        });
    let elapsed = start.elapsed();

    let mut ok = 0u64;
    let mut shed = 0u64;
    let mut errors: Vec<(ErrorKind, u64)> = Vec::new();
    let mut responses: Vec<(u64, Response)> = Vec::new();
    let mut latency = HistogramSnapshot::empty();
    for outcome in outcomes {
        let (client_responses, client_latency) = outcome?;
        latency = latency.merge(&client_latency);
        for response in client_responses {
            match &response.body {
                ResponseBody::Eval(_) => ok += 1,
                ResponseBody::Error(ErrorFrame {
                    kind: ErrorKind::Overloaded,
                    ..
                }) => shed += 1,
                ResponseBody::Error(frame) => {
                    match errors.iter_mut().find(|(kind, _)| *kind == frame.kind) {
                        Some((_, count)) => *count += 1,
                        None => errors.push((frame.kind, 1)),
                    }
                }
                _ => {}
            }
            // Pipelined completions arrive out of order; the protocol's
            // ids are the correlation mechanism.  Id-less frames (e.g.
            // `oversized` rejections) stay countable above but cannot be
            // correlated, so they are not in `responses`.
            if let Some(id) = response.id {
                responses.push((id, response));
            }
        }
    }
    responses.sort_by_key(|(id, _)| *id);

    Ok(LoadReport {
        sent: (options.clients * options.requests_per_client) as u64,
        ok,
        shed,
        errors,
        elapsed,
        latency,
        responses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_are_deterministic_and_ids_unique() {
        let options = LoadGenOptions::paper_mix(3, 5, 42);
        assert_eq!(options.scenarios.len(), 64);
        for client in 0..3 {
            assert_eq!(options.client_specs(client), options.client_specs(client));
        }
        assert_ne!(options.client_specs(0), options.client_specs(1));
        let mut ids = std::collections::HashSet::new();
        for client in 0..3 {
            for index in 0..5 {
                assert!(ids.insert(options.request_id(client, index)));
            }
        }
    }

    #[test]
    fn empty_report_throughput_is_zero() {
        let report = LoadReport {
            sent: 0,
            ok: 0,
            shed: 0,
            errors: vec![],
            elapsed: Duration::ZERO,
            latency: HistogramSnapshot::empty(),
            responses: vec![],
        };
        assert_eq!(report.throughput_rps(), 0.0);
        assert_eq!(report.latency.count(), 0);
    }
}

/// One connection of a [`Swarm`]: a pre-encoded request pipeline on the
/// write side, an incremental line scanner on the read side.
#[derive(Debug)]
struct SwarmConn {
    stream: TcpStream,
    scanner: LineScanner,
    /// Every request line of this connection, pre-encoded back to back.
    outbox: Vec<u8>,
    written: usize,
    expected: usize,
    received: usize,
    ok: u64,
    errors: u64,
    /// Set when the socket died; the remaining expected responses are
    /// counted as errors.
    failed: bool,
}

impl SwarmConn {
    fn finished(&self) -> bool {
        self.failed || (self.written >= self.outbox.len() && self.received >= self.expected)
    }

    fn fail(&mut self) {
        if !self.failed {
            self.errors += (self.expected - self.received) as u64;
            self.failed = true;
        }
    }
}

/// What one [`Swarm::run`] pass observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwarmReport {
    /// Responses decoded as successful evals.
    pub ok: u64,
    /// Error frames, undecodable lines, and responses lost to dead
    /// sockets.
    pub errors: u64,
    /// Wall-clock time of the request pass.
    pub elapsed: Duration,
}

/// A poll-driven swarm of concurrent connections, all multiplexed on the
/// caller's thread — the client-side counterpart of the server reactor,
/// built for ten-thousand-connection stress runs where a thread per
/// connection is not an option.
///
/// Lifecycle: [`connect_swarm`] establishes every connection (in staggered
/// waves, so the listener backlog is never overrun), the caller may hold
/// the swarm open while it inspects the server, then [`Swarm::run`] sends
/// `requests_per_conn` evals down every connection and reads the
/// responses back.  Connections stay open until the swarm is dropped.
#[derive(Debug)]
pub struct Swarm {
    conns: Vec<SwarmConn>,
}

/// Establishes `connections` nonblocking loopback connections in waves of
/// `connect_batch` (clamped to at least 1) with a short pause between
/// waves, retrying transient refusals while the listener's backlog drains.
///
/// # Errors
///
/// Propagates the first connection that still fails after retries.
pub fn connect_swarm(
    addr: SocketAddr,
    connections: usize,
    connect_batch: usize,
) -> std::io::Result<Swarm> {
    let batch = connect_batch.max(1);
    let mut conns = Vec::with_capacity(connections);
    for index in 0..connections {
        if index > 0 && index % batch == 0 {
            std::thread::sleep(Duration::from_millis(10));
        }
        let stream = connect_with_retry(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        conns.push(SwarmConn {
            stream,
            scanner: LineScanner::new(),
            outbox: Vec::new(),
            written: 0,
            expected: 0,
            received: 0,
            ok: 0,
            errors: 0,
            failed: false,
        });
    }
    Ok(Swarm { conns })
}

/// A backlog-overrun-tolerant connect: the listener accepts in waves, so
/// a refused or timed-out attempt is retried with linear-ish backoff
/// before giving up.
fn connect_with_retry(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let mut delay = Duration::from_millis(20);
    for _ in 0..20 {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(_) => {
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(500));
            }
        }
    }
    TcpStream::connect(addr)
}

impl Swarm {
    /// Live connections in the swarm.
    #[must_use]
    pub fn connected(&self) -> usize {
        self.conns.iter().filter(|conn| !conn.failed).count()
    }

    /// Sends `requests_per_conn` copies of `spec` down every connection
    /// (ids `start_id + conn_index * requests_per_conn + i`, so every
    /// response maps back to its connection) and reads all responses
    /// back, multiplexed over `poll(2)` on this thread.
    pub fn run(&mut self, spec: &EvalSpec, requests_per_conn: usize, start_id: u64) -> SwarmReport {
        for (index, conn) in self.conns.iter_mut().enumerate() {
            conn.outbox.clear();
            conn.written = 0;
            conn.expected = requests_per_conn;
            conn.received = 0;
            for i in 0..requests_per_conn {
                let id = start_id + (index * requests_per_conn + i) as u64;
                let line = wire::encode_request(&Request {
                    id,
                    body: RequestBody::Eval(spec.clone()),
                });
                conn.outbox.extend_from_slice(line.as_bytes());
                conn.outbox.push(b'\n');
            }
        }
        let start = Instant::now();
        let mut poll_set = PollSet::new();
        let mut slots: Vec<usize> = Vec::new();
        let mut scratch = vec![0u8; 16 * 1024];
        loop {
            poll_set.clear();
            slots.clear();
            for (index, conn) in self.conns.iter().enumerate() {
                if conn.finished() {
                    continue;
                }
                let want_write = conn.written < conn.outbox.len();
                poll_set.push(fd_of(&conn.stream), true, want_write);
                slots.push(index);
            }
            if slots.is_empty() {
                break;
            }
            let _ = poll_set.poll(Some(Duration::from_millis(250)));
            for (slot, &index) in slots.iter().enumerate() {
                let readiness = poll_set.readiness(slot);
                if !readiness.any() {
                    continue;
                }
                let conn = &mut self.conns[index];
                if readiness.error {
                    conn.fail();
                    continue;
                }
                if readiness.writable && conn.written < conn.outbox.len() {
                    swarm_write(conn);
                }
                if readiness.readable {
                    swarm_read(conn, &mut scratch);
                }
            }
        }
        SwarmReport {
            ok: self.conns.iter().map(|conn| conn.ok).sum(),
            errors: self.conns.iter().map(|conn| conn.errors).sum(),
            elapsed: start.elapsed(),
        }
    }
}

fn swarm_write(conn: &mut SwarmConn) {
    while conn.written < conn.outbox.len() {
        match (&conn.stream).write(&conn.outbox[conn.written..]) {
            Ok(0) => {
                conn.fail();
                return;
            }
            Ok(n) => conn.written += n,
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.fail();
                return;
            }
        }
    }
}

fn swarm_read(conn: &mut SwarmConn, scratch: &mut [u8]) {
    loop {
        if conn.received >= conn.expected {
            return;
        }
        let read = match std::io::Read::read(&mut (&conn.stream), scratch) {
            Ok(0) => {
                conn.fail();
                return;
            }
            Ok(read) => read,
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.fail();
                return;
            }
        };
        let SwarmConn {
            scanner,
            received,
            ok,
            errors,
            ..
        } = conn;
        scanner.push(&scratch[..read], wire::DEFAULT_MAX_LINE_BYTES, |event| {
            *received += 1;
            match event {
                ScanEvent::Line(line) => match wire::decode_response(&line) {
                    Ok(Response {
                        body: ResponseBody::Eval(_),
                        ..
                    }) => *ok += 1,
                    _ => *errors += 1,
                },
                ScanEvent::Oversized | ScanEvent::InvalidUtf8 => *errors += 1,
            }
            true
        });
    }
}
