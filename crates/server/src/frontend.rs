//! The connection machinery every JSON-lines front-end shares — the
//! [`Server`](crate::server::Server) and the cluster router — with the
//! protocol plugged in as a [`Handler`].
//!
//! # Thread model
//!
//! One **acceptor** thread hands accepted sockets, round-robin, to a fixed
//! pool of **event loops**, each multiplexing its connections over
//! `poll(2)` (see [`crate::poller`]): `1 + event_loops` threads, named
//! `crosslight-<owner>-accept` and `crosslight-<owner>-loop-<i>`, however
//! many thousand connections are open.  Both owners default to one loop
//! per core, at most four ([`default_event_loops`]).
//!
//! # The connection state machine
//!
//! *Read side:* a length-limited [`LineScanner`] answers over-long and
//! non-UTF-8 lines with typed `oversized` and `malformed` frames and hands
//! every other non-blank line to [`Handler::on_line`].
//! [`Handler::end_of_wake`] runs once per poll wake.
//!
//! *Write side:* a queue of encoded lines, flushed with one vectored write.
//! Any thread may queue lines on a [`Conn`].  The **flush-then-wake
//! rule**: a thread other than the owning loop then calls
//! [`Conn::flush_and_wake`], which writes what the socket takes now and
//! wakes the loop only when it must change what it watches — a residual
//! queue needs `POLLOUT`, a paused reader may need `POLLIN` back, and a
//! draining connection needs its close re-checked.
//!
//! *Back-pressure:* reads pause while a connection is owed 1024 lines
//! (queued plus in flight), so a client that stops reading caps both its
//! memory and its work in flight.  A socket unwritable for 30 s
//! (`WRITE_TIMEOUT`) tears the connection down.  Teardown moves its queued
//! lines from `<owner>_write_queue_depth` to `<owner>_write_dropped_total`,
//! so the gauge always returns to zero.
//!
//! *Drain barrier:* work answered by another thread is bracketed by
//! [`Conn::begin`] and [`Conn::finish`] (or [`Conn::answer`]).  A
//! connection closes once its client's EOF was seen, nothing is in flight
//! and every line reached the socket; [`Frontend::shutdown`] half-closes
//! every read side and joins the loops once they closed every connection.

use std::collections::VecDeque;
use std::fmt;
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crosslight_telemetry::{Counter, Gauge, Phase, Registry, RequestTrace};

use crate::poller::{fd_of, wake_pair, LineScanner, PollSet, ScanEvent, WakeReceiver, Waker};
use crate::wire::{self, ErrorFrame, ErrorKind, Response};

/// Lines a connection may be owed — queued plus in flight — before its
/// loop stops reading from it.
const WRITE_QUEUE_LINES: usize = 1024;

/// How long a socket write may stall before the connection is torn down —
/// the bound that keeps a non-reading client from pinning its write queue
/// (and therefore shutdown) forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// How long an idle event loop sleeps in `poll(2)` between housekeeping
/// sweeps (write-stall checks); wakeups cut the sleep short.
const POLL_TICK: Duration = Duration::from_millis(250);

/// Most `read(2)` calls one connection may issue per poll tick, so a
/// fire-hosing client cannot starve its loop-mates or stall shutdown.
const MAX_READS_PER_TICK: usize = 32;

/// Most queued lines one vectored write gathers: under a pipelined burst
/// this turns a write syscall per response line into one per flush.
const FLUSH_LINES: usize = 64;

/// The default event-loop count: one loop per core, clamped to `1..=4`.
/// The server's loops answer result-cache hits themselves, so a hot mix
/// keeps every core's loop busy.
#[must_use]
pub fn default_event_loops() -> usize {
    std::thread::available_parallelism().map_or(1, |cores| cores.get().clamp(1, 4))
}

/// The protocol a [`Frontend`] serves.  Each event loop owns one handler,
/// made for it by the factory given to [`Bound::start`].
pub trait Handler: Send + 'static {
    /// Per-connection protocol state, owned by the connection's loop.
    type State: Default;

    /// Handles one complete, non-blank request line (already counted in
    /// `<owner>_requests_total`).  Answers are queued on `conn`; work
    /// answered later by another thread is bracketed by [`Conn::begin`]
    /// and [`Conn::finish`].  Returns `false` when the connection is torn
    /// down and reading should stop.
    fn on_line(&mut self, conn: &Arc<Conn>, state: &mut Self::State, line: String) -> bool;

    /// Runs once at the end of every poll wake, after every ready
    /// connection was read and before the lines those reads queued are
    /// flushed.
    fn end_of_wake(&mut self) {}
}

/// The front-end's metric handles, registered by
/// [`FrontendTelemetry::register`] under the owner's prefix.
#[derive(Debug, Clone)]
pub struct FrontendTelemetry {
    /// Name prefix of the metric families and the threads.
    owner: &'static str,
    /// `<owner>_requests_total`.
    pub requests_total: Counter,
    /// `<owner>_malformed_total`.
    pub malformed_total: Counter,
    /// `<owner>_oversized_total`.
    pub(crate) oversized_total: Counter,
    /// `<owner>_connections_accepted_total`.
    pub(crate) connections_accepted: Counter,
    /// `<owner>_connections_active`.
    pub(crate) connections_active: Gauge,
    /// `<owner>_connections_drained_total`.
    pub(crate) connections_drained: Counter,
    /// `<owner>_write_queue_depth`.
    write_queue_depth: Gauge,
    /// `<owner>_write_dropped_total`.
    write_dropped: Counter,
    /// Bytes of lines written, newlines included; registered by an owner
    /// that exposes it.
    pub(crate) bytes_written: Counter,
}

impl FrontendTelemetry {
    /// Creates the handles and registers the front-end's families under
    /// `<owner>_`.
    ///
    /// # Panics
    ///
    /// When `registry` already holds one of these families.
    pub fn register(registry: &Registry, owner: &'static str) -> Self {
        let counter =
            |suffix: &str, help: &str| registry.counter(&format!("{owner}_{suffix}"), help);
        let gauge = |suffix: &str, help: &str| registry.gauge(&format!("{owner}_{suffix}"), help);
        Self {
            owner,
            requests_total: counter(
                "requests_total",
                "Request frames received, including malformed and shed ones.",
            ),
            malformed_total: counter(
                "malformed_total",
                "Lines rejected as invalid JSON, UTF-8, or protocol frames.",
            ),
            oversized_total: counter(
                "oversized_total",
                "Lines rejected for exceeding the configured length limit.",
            ),
            connections_accepted: counter(
                "connections_accepted_total",
                "Client connections accepted since startup.",
            ),
            connections_active: gauge("connections_active", "Currently open client connections."),
            connections_drained: counter(
                "connections_drained_total",
                "Client connections that finished and were fully drained.",
            ),
            write_queue_depth: gauge(
                "write_queue_depth",
                "Encoded response lines waiting in per-connection write queues.",
            ),
            write_dropped: counter(
                "write_dropped_total",
                "Response lines dropped because their connection tore down \
                 before they reached the socket.",
            ),
            bytes_written: Counter::new(),
        }
    }
}

/// Takes the finished phase timeline of a traced response line once the
/// line reached the socket.
pub type TraceSink = Box<dyn Fn(Box<RequestTrace>) + Send + Sync>;

/// State every connection handle shares with its front-end.
struct FrontShared {
    telemetry: FrontendTelemetry,
    wakers: Vec<Waker>,
    max_line_bytes: usize,
    on_trace: TraceSink,
    shutting_down: AtomicBool,
}

/// A bound listener plus one wake pair per event loop: every socket a
/// front-end needs, made before any thread exists, so a failed bind
/// leaves no thread behind.
#[derive(Debug)]
pub struct Bound {
    listener: TcpListener,
    local_addr: SocketAddr,
    wakers: Vec<Waker>,
    wake_rxs: Vec<WakeReceiver>,
}

impl Bound {
    /// Binds the listener and builds `event_loops` (at least 1) wake pairs.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding, address resolution, or the
    /// loopback wake pairs.
    pub fn bind(addr: impl ToSocketAddrs, event_loops: usize) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let (wakers, wake_rxs) = (0..event_loops.max(1))
            .map(|_| wake_pair())
            .collect::<std::io::Result<Vec<_>>>()?
            .into_iter()
            .unzip();
        Ok(Self {
            listener,
            local_addr,
            wakers,
            wake_rxs,
        })
    }

    /// Spawns the event loops, each with a handler from `make_handler`
    /// (given its loop index), and then the acceptor.  `on_trace` receives
    /// every traced line's timeline once the line is flushed.
    ///
    /// # Panics
    ///
    /// When the operating system refuses to spawn a thread.
    pub fn start<H: Handler>(
        self,
        telemetry: FrontendTelemetry,
        max_line_bytes: usize,
        on_trace: TraceSink,
        mut make_handler: impl FnMut(usize) -> H,
    ) -> Frontend {
        let owner = telemetry.owner;
        let shared = Arc::new(FrontShared {
            telemetry,
            wakers: self.wakers,
            max_line_bytes,
            on_trace,
            shutting_down: AtomicBool::new(false),
        });
        let mut registrations = Vec::with_capacity(self.wake_rxs.len());
        let mut loops = Vec::with_capacity(self.wake_rxs.len());
        for (loop_id, wake_rx) in self.wake_rxs.into_iter().enumerate() {
            let (reg_tx, reg_rx) = mpsc::channel::<TcpStream>();
            registrations.push(reg_tx);
            let shared = Arc::clone(&shared);
            let handler = make_handler(loop_id);
            loops.push(
                std::thread::Builder::new()
                    .name(format!("crosslight-{owner}-loop-{loop_id}"))
                    .spawn(move || event_loop(loop_id, &shared, &reg_rx, &wake_rx, handler))
                    .expect("spawning an event-loop thread succeeds"),
            );
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            let listener = self.listener;
            std::thread::Builder::new()
                .name(format!("crosslight-{owner}-accept"))
                .spawn(move || accept_loop(&listener, &shared, &registrations))
                .expect("spawning the acceptor thread succeeds")
        };
        Frontend {
            local_addr: self.local_addr,
            shared,
            acceptor: Some(acceptor),
            loops,
        }
    }
}

/// A running front-end: the acceptor and the event loops.  Its owner must
/// call [`Frontend::shutdown`] to stop and join them.
pub struct Frontend {
    local_addr: SocketAddr,
    shared: Arc<FrontShared>,
    acceptor: Option<JoinHandle<()>>,
    loops: Vec<JoinHandle<()>>,
}

impl fmt::Debug for Frontend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Frontend")
            .field("local_addr", &self.local_addr)
            .field("event_loops", &self.loops.len())
            .finish_non_exhaustive()
    }
}

impl Frontend {
    /// The bound address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting connections, half-closes every connection's read
    /// side, and joins the acceptor and the loops once every connection
    /// drained (work in flight on other threads is waited for, so those
    /// threads must still be running).  Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the acceptor: it re-checks the flag per connection, so a
        // throwaway local connection unblocks `accept`.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        for waker in &self.shared.wakers {
            waker.wake();
        }
        for handle in self.loops.drain(..) {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &FrontShared, registrations: &[Sender<TcpStream>]) {
    let telemetry = &shared.telemetry;
    let mut next_loop = 0usize;
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
        telemetry.connections_accepted.inc();
        telemetry.connections_active.add(1);
        let loop_id = next_loop;
        next_loop = (next_loop + 1) % registrations.len();
        if registrations[loop_id].send(stream).is_ok() {
            shared.wakers[loop_id].wake();
        } else {
            // The loop is gone (shutdown raced the accept): the socket
            // drops here, closing the connection.
            telemetry.connections_active.sub(1);
            telemetry.connections_drained.inc();
        }
    }
}

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

/// The write-side state of one connection, shared between its event loop
/// and every thread that answers on it.
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

/// One connection's handle, shared by its event loop and every thread
/// that answers on it.
pub struct Conn {
    shared: Arc<FrontShared>,
    loop_id: usize,
    stream: TcpStream,
    write: Mutex<WriteState>,
    /// Work handed to other threads and not yet answered — the graceful
    /// close barrier.
    in_flight: AtomicUsize,
    /// Set by the loop while reads are paused for back-pressure.
    read_paused: AtomicBool,
    /// Set by the loop at client EOF: the close condition needs a
    /// re-check when the last in-flight answer lands.
    draining: AtomicBool,
}

impl fmt::Debug for Conn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Conn")
            .field("loop_id", &self.loop_id)
            .field("in_flight", &self.in_flight.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Conn {
    fn new(shared: Arc<FrontShared>, loop_id: usize, stream: TcpStream) -> Self {
        Self {
            shared,
            loop_id,
            stream,
            write: Mutex::new(WriteState::default()),
            in_flight: AtomicUsize::new(0),
            read_paused: AtomicBool::new(false),
            draining: AtomicBool::new(false),
        }
    }

    /// Counts one piece of work answered later by another thread.
    pub fn begin(&self) {
        self.in_flight.fetch_add(1, Ordering::AcqRel);
    }

    /// Settles one [`Conn::begin`], after its answer was queued.
    pub fn finish(&self) {
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }

    /// Queues one encoded response line (the newline is appended here).
    /// Returns `false` when the connection is already torn down: the line
    /// is dropped and counted, never queued.
    pub fn push(&self, line: String) -> bool {
        self.push_traced(line, None)
    }

    /// [`Conn::push`] for a traced line: `trace` carries the timeline and
    /// the instant the line was encoded; the `write_queue` and `write`
    /// phases are recorded as it drains.
    pub(crate) fn push_traced(
        &self,
        mut line: String,
        trace: Option<(Box<RequestTrace>, Instant)>,
    ) -> bool {
        line.push('\n');
        let telemetry = &self.shared.telemetry;
        let mut state = self.write.lock().expect("write-state lock poisoned");
        if state.closed {
            telemetry.write_dropped.inc();
            return false;
        }
        telemetry.write_queue_depth.add(1);
        state.queue.push_back(Outgoing {
            line,
            trace: trace.map(|(trace, enqueued)| OutgoingTrace {
                trace,
                enqueued,
                write_start: None,
            }),
        });
        true
    }

    /// Answers one [`Conn::begin`] from another thread: queues the line,
    /// settles the in-flight count, and flushes under the flush-then-wake
    /// rule.
    pub fn answer(&self, line: String) {
        self.push(line);
        self.finish();
        self.flush_and_wake();
    }

    /// Writes what the socket takes right now, then wakes the owning loop
    /// if it must change what it watches (see the module docs).  Called by
    /// threads other than the loop after they queued lines.
    pub fn flush_and_wake(&self) {
        let residual = self.flush();
        let unpause = self.read_paused.load(Ordering::Acquire);
        let draining =
            self.draining.load(Ordering::Acquire) && self.in_flight.load(Ordering::Acquire) == 0;
        if residual || unpause || draining {
            self.shared.wakers[self.loop_id].wake();
        }
    }

    /// Lines queued plus work in flight: what this connection is owed.
    fn owed(&self) -> usize {
        let queued = self
            .write
            .lock()
            .expect("write-state lock poisoned")
            .queue
            .len();
        queued + self.in_flight.load(Ordering::Acquire)
    }

    /// Writes as much of the queue as the socket accepts right now,
    /// resuming partial lines, timing traced ones, and tearing the
    /// connection down on socket failure.  Returns whether lines remain
    /// queued (never, once the connection is dead).
    fn flush(&self) -> bool {
        let telemetry = &self.shared.telemetry;
        let mut finished: Vec<(Box<RequestTrace>, Instant)> = Vec::new();
        let mut failed = false;
        let residual = {
            let mut guard = self.write.lock().expect("write-state lock poisoned");
            let state = &mut *guard;
            while !state.closed && !state.queue.is_empty() {
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
                match (&self.stream).write_vectored(&slices) {
                    Ok(mut written) if written > 0 => {
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
                            if let Some(OutgoingTrace {
                                trace,
                                write_start: Some(write_start),
                                ..
                            }) = out.trace
                            {
                                finished.push((trace, write_start));
                            }
                        }
                    }
                    Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        state.stalled_since.get_or_insert_with(Instant::now);
                        break;
                    }
                    Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    _ => {
                        failed = true;
                        break;
                    }
                }
            }
            if state.queue.is_empty() {
                state.stalled_since = None;
            }
            !failed && !state.queue.is_empty()
        };
        if !finished.is_empty() {
            // One flush instant for the whole burst: these lines reached
            // the socket together.
            let flushed = Instant::now();
            for (mut trace, write_start) in finished {
                trace.record(Phase::Write, write_start, flushed);
                (self.shared.on_trace)(trace);
            }
        }
        if failed {
            // No answer can ever be delivered again: the unwritten lines
            // (and their traces) are dropped.
            self.close();
        }
        residual
    }

    /// Marks the connection torn down and closes the socket, moving every
    /// queued line from the depth gauge to the dropped count — the
    /// complement of [`Conn::push_traced`]'s increment, which keeps the
    /// gauge returning to zero.  Idempotent.
    fn close(&self) {
        {
            let mut state = self.write.lock().expect("write-state lock poisoned");
            let dropped = state.queue.len();
            if dropped > 0 {
                let telemetry = &self.shared.telemetry;
                telemetry.write_queue_depth.sub(dropped as i64);
                telemetry.write_dropped.add(dropped as u64);
            }
            state.queue.clear();
            state.front_written = 0;
            state.closed = true;
        }
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// The event loop's private view of one connection.
struct Slot<S> {
    conn: Arc<Conn>,
    scanner: LineScanner,
    state: S,
    read_closed: bool,
}

/// One event-loop thread: multiplexes its share of the connections over
/// `poll(2)`, feeding complete lines to the handler and flushing write
/// queues as sockets drain.
fn event_loop<H: Handler>(
    loop_id: usize,
    shared: &Arc<FrontShared>,
    registrations: &Receiver<TcpStream>,
    wake_rx: &WakeReceiver,
    mut handler: H,
) {
    let telemetry = &shared.telemetry;
    let mut slots: Vec<Slot<H::State>> = Vec::new();
    let mut poll_set = PollSet::new();
    let mut polled: Vec<usize> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    loop {
        // Adopt connections the acceptor handed over.
        slots.extend(registrations.try_iter().map(|stream| Slot {
            conn: Arc::new(Conn::new(Arc::clone(shared), loop_id, stream)),
            scanner: LineScanner::new(),
            state: H::State::default(),
            read_closed: false,
        }));
        let shutting_down = shared.shutting_down.load(Ordering::SeqCst);
        // One pass per wake: retire torn-down connections, drained ones
        // (EOF seen, nothing in flight, every line on the wire) and stalled
        // writers, and register what every other one waits for.  Poll
        // entry 0 is the wake channel.
        poll_set.clear();
        polled.clear();
        poll_set.push(wake_rx.fd(), true, false);
        let mut index = 0;
        while index < slots.len() {
            let slot = &slots[index];
            if shutting_down {
                // Half-close the read side (idempotent): the next read sees
                // EOF, input stops, and in-flight work drains gracefully.
                let _ = slot.conn.stream.shutdown(Shutdown::Read);
            }
            // In-flight first: an answer is queued before it settles, so a
            // zero here means the queue read below already holds it.
            let in_flight = slot.conn.in_flight.load(Ordering::Acquire);
            let (queued, closed, stalled) = {
                let state = slot.conn.write.lock().expect("write-state lock poisoned");
                let stalled = state
                    .stalled_since
                    .is_some_and(|since| since.elapsed() >= WRITE_TIMEOUT);
                (state.queue.len(), state.closed, stalled)
            };
            if closed || stalled || (slot.read_closed && queued == 0 && in_flight == 0) {
                slot.conn.close();
                telemetry.connections_active.sub(1);
                telemetry.connections_drained.inc();
                // The last slot moves here and is visited next.
                slots.swap_remove(index);
                continue;
            }
            let paused = !slot.read_closed && queued + in_flight >= WRITE_QUEUE_LINES;
            slot.conn.read_paused.store(paused, Ordering::Release);
            let want_read = !slot.read_closed && !paused;
            if want_read || queued > 0 {
                poll_set.push(fd_of(&slot.conn.stream), want_read, queued > 0);
                polled.push(index);
            }
            index += 1;
        }
        if shutting_down && slots.is_empty() {
            // Account for connections registered after our last adoption
            // pass; they were never served.
            for stream in registrations.try_iter() {
                let _ = stream.shutdown(Shutdown::Both);
                telemetry.connections_active.sub(1);
                telemetry.connections_drained.inc();
            }
            return;
        }
        let _ = poll_set.poll(Some(POLL_TICK));
        if poll_set.readiness(0).any() {
            wake_rx.drain();
        }
        // A connection torn down below stays in `slots` until the next
        // pass, so the indices in `polled` stay valid.
        for (poll_slot, &index) in polled.iter().enumerate() {
            let readiness = poll_set.readiness(poll_slot + 1);
            let slot = &mut slots[index];
            if readiness.error {
                slot.conn.close();
                continue;
            }
            if readiness.writable {
                slot.conn.flush();
            }
            if readiness.readable {
                service_read(slot, &mut handler, &mut scratch);
            }
        }
        // The handler settles the wake before any answer it queued reaches
        // a client; then the burst of answers is flushed before the loop
        // goes back to sleep.
        handler.end_of_wake();
        for (poll_slot, &index) in polled.iter().enumerate() {
            if poll_set.readiness(poll_slot + 1).readable {
                slots[index].conn.flush();
            }
        }
    }
}

/// Reads one connection until the socket would block (bounded per tick),
/// feeding bytes through the line scanner into the handler.  A socket
/// failure tears the connection down.
fn service_read<H: Handler>(slot: &mut Slot<H::State>, handler: &mut H, scratch: &mut [u8]) {
    let max_bytes = slot.conn.shared.max_line_bytes;
    for _ in 0..MAX_READS_PER_TICK {
        // Back-pressure mid-burst too: a connection owed a full queue's
        // worth of lines stops reading until the client catches up.
        if slot.conn.owed() >= WRITE_QUEUE_LINES {
            return;
        }
        let read = match (&slot.conn.stream).read(scratch) {
            Ok(0) => {
                slot.read_closed = true;
                slot.conn.draining.store(true, Ordering::Release);
                return;
            }
            Ok(read) => read,
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return slot.conn.close(),
        };
        let Slot {
            conn,
            scanner,
            state,
            ..
        } = slot;
        if !scanner.push(&scratch[..read], max_bytes, |event| {
            on_event(conn, state, handler, event)
        }) {
            // The write side tore down mid-burst; stop consuming input and
            // let the next pass retire the connection.
            return;
        }
    }
}

/// Routes one framing event: typed answers for over-long and non-UTF-8
/// lines, the handler for everything else.  Blank lines are skipped.
fn on_event<H: Handler>(
    conn: &Arc<Conn>,
    state: &mut H::State,
    handler: &mut H,
    event: ScanEvent,
) -> bool {
    let telemetry = &conn.shared.telemetry;
    let frame = match event {
        ScanEvent::Line(line) if line.trim().is_empty() => return true,
        ScanEvent::Line(line) => {
            telemetry.requests_total.inc();
            return handler.on_line(conn, state, line);
        }
        ScanEvent::Oversized => {
            telemetry.requests_total.inc();
            telemetry.oversized_total.inc();
            ErrorFrame::new(
                ErrorKind::Oversized,
                format!("line exceeds {} bytes", conn.shared.max_line_bytes),
            )
        }
        ScanEvent::InvalidUtf8 => {
            telemetry.requests_total.inc();
            telemetry.malformed_total.inc();
            ErrorFrame::new(ErrorKind::Malformed, "line is not valid UTF-8")
        }
    };
    conn.push(wire::encode_response(&Response::error(None, frame)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    /// A nonblocking loopback connection pair for write-path unit tests,
    /// on a front-end with one (unused) event loop.
    fn loopback_conn() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
        let local = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (peer, _) = listener.accept().expect("accept");
        local.set_nonblocking(true).expect("nonblocking");
        let shared = Arc::new(FrontShared {
            telemetry: FrontendTelemetry::register(&Registry::new(), "test"),
            wakers: vec![wake_pair().expect("wake pair").0],
            max_line_bytes: 1024,
            on_trace: Box::new(|_| {}),
            shutting_down: AtomicBool::new(false),
        });
        (Conn::new(shared, 0, local), peer)
    }

    #[test]
    fn aborting_a_connection_drains_the_write_queue_accounting() {
        let (conn, _peer) = loopback_conn();
        let telemetry = conn.shared.telemetry.clone();
        assert!(conn.push(r#"{"id":1}"#.to_string()));
        assert!(conn.push(r#"{"id":2}"#.to_string()));
        assert_eq!(telemetry.write_queue_depth.get(), 2);
        conn.close();
        // Every queued line was subtracted from the gauge and counted
        // dropped — the teardown leak this regression test guards.
        assert_eq!(telemetry.write_queue_depth.get(), 0);
        assert_eq!(telemetry.write_dropped.get(), 2);
        // A late answer's line is dropped and counted, never queued.
        assert!(!conn.push(r#"{"id":3}"#.to_string()));
        assert_eq!(telemetry.write_queue_depth.get(), 0);
        assert_eq!(telemetry.write_dropped.get(), 3);
        // Closing twice is safe and counts nothing extra.
        conn.close();
        assert_eq!(telemetry.write_dropped.get(), 3);
    }

    #[test]
    fn a_failed_socket_write_drops_queued_lines_with_accounting() {
        let (conn, peer) = loopback_conn();
        let telemetry = conn.shared.telemetry.clone();
        // Kill the socket under the queue: the flush must fail.
        conn.stream
            .shutdown(Shutdown::Both)
            .expect("shutdown succeeds");
        drop(peer);
        for id in 0..3 {
            assert!(conn.push(format!(r#"{{"id":{id}}}"#)));
        }
        assert_eq!(telemetry.write_queue_depth.get(), 3);
        assert!(!conn.flush());
        assert!(conn.write.lock().unwrap().closed);
        assert_eq!(telemetry.write_queue_depth.get(), 0);
        assert_eq!(telemetry.write_dropped.get(), 3);
    }

    #[test]
    fn flush_writes_queued_lines_and_keeps_the_gauge_in_step() {
        let (conn, peer) = loopback_conn();
        let telemetry = conn.shared.telemetry.clone();
        assert!(conn.push("pong".to_string()));
        assert!(conn.push("stats".to_string()));
        assert_eq!(telemetry.write_queue_depth.get(), 2);
        assert_eq!(conn.owed(), 2);
        assert!(!conn.flush(), "both lines fit the socket buffer");
        assert_eq!(telemetry.write_queue_depth.get(), 0);
        assert_eq!(telemetry.bytes_written.get(), 11);
        let mut received = String::new();
        let mut reader = std::io::BufReader::new(&peer);
        reader.read_line(&mut received).expect("first line");
        reader.read_line(&mut received).expect("second line");
        assert_eq!(received, "pong\nstats\n");
        assert_eq!(telemetry.write_dropped.get(), 0);
    }

    #[test]
    fn owed_lines_count_queued_and_in_flight_work() {
        let (conn, _peer) = loopback_conn();
        conn.begin();
        conn.begin();
        assert!(conn.push("early".to_string()));
        assert_eq!(conn.owed(), 3);
        conn.answer("late".to_string());
        // Answered work leaves the in-flight count; flushed lines leave
        // the queue.
        assert_eq!(conn.owed(), 1);
        conn.finish();
        assert_eq!(conn.owed(), 0);
    }
}
