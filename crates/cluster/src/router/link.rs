//! One pipelined link per backend: a persistent socket, owned by one
//! thread, that carries many clients' requests at once, carries the
//! router's `stats` and `metrics` scrapes, and checks the backend's
//! health.
//!
//! Dispatching threads append jobs to the link's [`Backlog`] and wake the
//! link thread only when they make the backlog non-empty, so a burst costs
//! one wake.  The thread moves up to [`WINDOW`] jobs in flight, each under
//! the index of its window slot as the id spliced into the client's line
//! ([`wire::splice_request_id`]), and writes the burst with one write.
//! Answers are framed by a [`LineScanner`]; a peek at each answer's head
//! ([`wire::peek_answer`]) names its job and tells `ok` from `err` without
//! decoding the payload, and the client's id is spliced back before the
//! line is queued on the client's connection.  Each connection a read
//! burst touched is flushed once, as a server's event loop flushes each
//! connection it read from at the end of its wake.
//!
//! A link dies on EOF or a socket error, a garbled answer, an answer whose
//! id is not in flight, and when it goes `request_timeout` without reading
//! an answer while requests are outstanding, or without writing while
//! bytes are pending.  A death is one transport fault: the backend's
//! failure counter and breaker each take one failure.  The job a
//! `backend.send` `Kill`/`Stall` names goes through
//! [`retry_after_failure`]; every other outstanding or queued job fails
//! over without spending an attempt or a budget token.  A link from before
//! the backend's last re-address is dropped the same way, with no failure
//! booked against the live backend.  A dial that fails wrote nothing, so
//! it is one failure and each job it strands is charged an attempt, as any
//! failed I/O is.
//!
//! # Scrapes and health
//!
//! Pings and the router's scrapes go out under [`CONTROL_ID`], take no
//! slot or backlog place and move no load gauge.  The backend answers them
//! in order, so each such answer settles the oldest one owed; a scrape's
//! is decoded and handed to its [`Gather`], and a link that dies gives
//! each scrape it owes a `None` part.
//!
//! Any answer is proof of life.  A link that read nothing for
//! `health_interval` and owes no control answer pings its closed backend,
//! dialing first if it has no socket, as a scrape does.  Nothing read for
//! `health_timeout` after the ping, or after the first scrape it owes,
//! kills the link as `timeout`.  A failed ping is a link death like any
//! other, and a failed health probe too.  Once an open breaker cools
//! down, the link's half-open trial is a fresh dial and a ping: the pong
//! readmits the backend, and a failure re-opens the breaker.  An idle
//! router holds one connection per closed backend, however often it is
//! scraped, and dials no other.

use std::collections::VecDeque;
use std::io::{ErrorKind as IoErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crosslight_server::frontend::Conn;
use crosslight_server::poller::{fd_of, LineScanner, PollSet, ScanEvent, WakeReceiver, Waker};
use crosslight_server::wire::{self, AnswerPeek};
use crosslight_telemetry::Gauge;

use super::{
    dispatch, retry_after_failure, shed, ClusterShared, ForwardJob, Gather, ShedReason,
    CONNECT_TIMEOUT, IDLE_POLL,
};
use crate::backend::{CircuitState, Transition};
use crate::faultpoint::{FaultAction, FaultPlan, FaultPoint};

/// Most requests one link keeps in flight; jobs beyond it wait in the
/// backlog.  Far below a default server's admission capacity (256), so
/// one router never makes a default backend shed `overloaded`.  Deeper
/// windows (16, 32) read 10–25 % more `routed_mix` throughput on a 2-core
/// host, but they hand a backend a burst's whole share at once: a backend
/// stopped mid-sweep then drains all of it, and nothing is left in the
/// router to re-route (the chaos suite's mid-sweep kill must see its
/// failover).
pub(super) const WINDOW: usize = 8;

// A request goes out under its slot's index.  One digit never lengthens
// the client's line (its id is at least one digit), so a line the client
// could send is one the backend accepts.
const _: () = assert!(WINDOW <= 10, "slot ids must stay one digit");

/// The id a link's control requests (pings and scrapes) go out under: no
/// window slot uses it, so their answers never name a job.
pub(super) const CONTROL_ID: u64 = WINDOW as u64;

/// Longest answer line a link reads, sized for a full JSON `metrics` page:
/// a default backend's 17 histogram series of up to 976 buckets, each at
/// most 44 bytes (`[le,n],`), take about 730 KB; the rest is headroom.
const MAX_ANSWER_BYTES: usize = 4 << 20;

/// Why a link was torn down: the `reason` label of
/// `cluster_link_resets_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Reset {
    /// The backend closed the connection.
    Eof,
    /// A socket error, a failed dial, an error answer to a control
    /// request, or an injected kill.
    Error,
    /// A line that is not a well-formed answer of a known kind.
    Garbled,
    /// An answer whose id is not in flight on this link, or a control
    /// answer while none is owed.
    UnknownId,
    /// No answer read, or no byte written, for `request_timeout`; or no
    /// answer read for `health_timeout` after a ping or a first owed
    /// scrape.
    Timeout,
    /// The backend's generation moved on: an outage or re-address.
    Stale,
}

impl Reset {
    /// The label value of each reason, indexed by the reason.
    pub(super) const LABELS: [&'static str; 6] =
        ["eof", "error", "garbled", "unknown_id", "timeout", "stale"];
}

/// The dispatch side of one backend's link.
#[derive(Debug)]
pub(super) struct Backlog {
    /// Jobs waiting for the link's window.
    jobs: Mutex<VecDeque<ForwardJob>>,
    /// Requests in flight on the link, as its thread last published.
    in_flight: AtomicUsize,
    /// Scrapes waiting for the link to write them.
    pub(super) scrapes: Mutex<Vec<Arc<Gather>>>,
    waker: Waker,
}

impl Backlog {
    pub(super) fn new(waker: Waker) -> Self {
        Self {
            jobs: Mutex::new(VecDeque::new()),
            in_flight: AtomicUsize::new(0),
            scrapes: Mutex::new(Vec::new()),
            waker,
        }
    }

    /// Queues `job` unless the backlog and the window already hold
    /// `capacity` jobs between them, handing it back then.  Only the job
    /// that makes the backlog non-empty wakes the link thread; the rest of
    /// the burst rides that wake.
    pub(super) fn offer(
        &self,
        job: ForwardJob,
        capacity: usize,
        depth: &Gauge,
    ) -> Result<(), ForwardJob> {
        let first = {
            let mut jobs = self.jobs.lock().expect("link backlog lock poisoned");
            if jobs.len() + self.in_flight.load(Ordering::Acquire) >= capacity {
                return Err(job);
            }
            jobs.push_back(job);
            depth.add(1);
            jobs.len() == 1
        };
        if first {
            self.waker.wake();
        }
        Ok(())
    }

    /// Interrupts the link thread's poll.
    pub(super) fn wake(&self) {
        self.waker.wake();
    }
}

/// The open socket of a link.
struct Socket {
    stream: TcpStream,
    /// The backend's generation when this socket was dialed.
    generation: u64,
    scanner: LineScanner,
    /// Written bursts the socket has not taken yet.
    out: Vec<u8>,
    /// When the socket first refused pending bytes; cleared by progress.
    stalled_since: Option<Instant>,
}

/// One request written on a link and not yet answered.
struct Outstanding {
    job: ForwardJob,
    written: Instant,
    /// The job's deadline passed here and the client was answered: its
    /// late answer is dropped.
    shed: bool,
}

/// A request written under [`CONTROL_ID`] and not yet answered.
enum Control {
    Ping,
    Scrape(Arc<Gather>),
}

/// The link thread's state.
struct Link<'a> {
    shared: &'a Arc<ClusterShared>,
    backend: usize,
    socket: Option<Socket>,
    /// Requests in flight, each in the slot whose index is its id on the
    /// wire.  A slot frees when its answer is read.
    slots: [Option<Outstanding>; WINDOW],
    /// When the link last read an answer, or went from idle to
    /// outstanding: the liveness clock.
    progress: Instant,
    /// When the link last read an answer, wrote a ping or a first owed
    /// scrape, or died: the health clock.
    quiet_since: Instant,
    /// Control requests written and not yet answered, oldest first.
    control: VecDeque<Control>,
    /// Client connections that got answers since the last flush.
    touched: Vec<Arc<Conn>>,
}

/// The link thread of backend `backend`, until the router retires it.
pub(super) fn run(shared: &Arc<ClusterShared>, backend: usize, wake: &WakeReceiver) {
    let mut link = Link {
        shared,
        backend,
        socket: None,
        slots: std::array::from_fn(|_| None),
        progress: Instant::now(),
        quiet_since: Instant::now(),
        control: VecDeque::new(),
        touched: Vec::new(),
    };
    let mut poll_set = PollSet::new();
    let mut scratch = vec![0u8; 64 * 1024];
    while !shared.retired.load(Ordering::SeqCst) {
        link.drop_stale();
        link.admit();
        link.scrape();
        link.check_health();
        link.write();
        // Answers read on the last pass reach their clients after the
        // window was refilled, so the backend starts on the next burst
        // first.
        link.flush_touched();
        poll_set.clear();
        poll_set.push(wake.fd(), true, false);
        let watched = link
            .socket
            .as_ref()
            .map(|socket| poll_set.push(fd_of(&socket.stream), true, !socket.out.is_empty()));
        let _ = poll_set.poll(Some(link.poll_timeout()));
        if poll_set.readiness(0).any() {
            wake.drain();
        }
        if let Some(slot) = watched {
            let readiness = poll_set.readiness(slot);
            if readiness.error {
                link.reset(Reset::Error);
            } else {
                if readiness.readable {
                    link.read(&mut scratch);
                }
                if readiness.writable {
                    link.write();
                }
            }
        }
        link.expire();
    }
    link.abandon();
}

impl Link<'_> {
    /// Drops a socket dialed before the backend's last re-address.
    fn drop_stale(&mut self) {
        let generation = self.shared.backends[self.backend].generation();
        if self
            .socket
            .as_ref()
            .is_some_and(|socket| socket.generation != generation)
        {
            self.reset(Reset::Stale);
        }
    }

    /// Moves backlog jobs into the window and stages their requests.
    fn admit(&mut self) {
        let shared = self.shared;
        let jobs = self.take(WINDOW - self.in_flight());
        if jobs.is_empty() {
            return;
        }
        // The breaker may have tripped while the jobs waited; requeueing
        // costs them nothing (no I/O happened).
        if !shared.backends[self.backend].available() {
            for job in jobs.into_iter().chain(self.take(usize::MAX)) {
                self.fail_over(job);
            }
            return;
        }
        if self.socket.is_none() {
            if let Err(err) = self.dial() {
                // Nothing was written, so no window hides whose fault it
                // is: each stranded job spends an attempt, as it would on
                // any failed I/O.
                self.close(Reset::Error);
                let detail = format!("connect: {err}");
                for job in jobs.into_iter().chain(self.take(usize::MAX)) {
                    retry_after_failure(shared, self.backend, job, None, &detail);
                }
                return;
            }
        }
        let mut jobs = jobs.into_iter();
        while let Some(job) = jobs.next() {
            if Instant::now() >= job.deadline {
                let detail = "request deadline exceeded";
                shed(shared, &job, ShedReason::Deadline, detail);
                continue;
            }
            let garble = match self.fault(FaultPoint::BackendSend) {
                Ok(garble) => garble,
                Err(reason) => {
                    self.reset(reason);
                    let detail = "injected: link killed at backend.send";
                    retry_after_failure(shared, self.backend, job, None, detail);
                    for job in jobs {
                        self.fail_over(job);
                    }
                    return;
                }
            };
            let slot = self
                .slots
                .iter()
                .position(Option::is_none)
                .expect("admit takes no more jobs than free slots");
            let Some(mut line) = wire::splice_request_id(&job.line, slot as u64) else {
                let detail = "request line has no top-level id";
                shed(shared, &job, ShedReason::Attempts, detail);
                continue;
            };
            if garble {
                line = FaultPlan::garble_line(&line);
            }
            let socket = self.socket.as_mut().expect("admit dialed the link");
            socket.out.extend_from_slice(line.as_bytes());
            socket.out.push(b'\n');
            let written = Instant::now();
            if self.in_flight() == 0 {
                self.progress = written;
            }
            self.slots[slot] = Some(Outstanding {
                job,
                written,
                shed: false,
            });
        }
        self.publish_in_flight();
    }

    /// Consults the fault plan at `point` for one line: `Err` names how
    /// the link dies, `Ok(true)` garbles the line.  `Slow` and `Stall`
    /// sleep here.
    fn fault(&self, point: FaultPoint) -> Result<bool, Reset> {
        match self.shared.faults().check(point, self.backend) {
            Some(FaultAction::Kill) => Err(Reset::Error),
            Some(FaultAction::Stall(ms)) => {
                std::thread::sleep(Duration::from_millis(ms));
                Err(Reset::Timeout)
            }
            Some(FaultAction::Slow(ms)) => {
                std::thread::sleep(Duration::from_millis(ms));
                Ok(false)
            }
            Some(FaultAction::Garble) => Ok(true),
            None => Ok(false),
        }
    }

    /// Writes the scrapes handed to this link, dialing first if it has no
    /// socket.  A backend whose breaker left the closed state since gets
    /// no request, and a failed dial kills the link: either way each part
    /// is `None`.
    fn scrape(&mut self) {
        let (shared, backend) = (self.shared, self.backend);
        let scrapes = &shared.links[backend].scrapes;
        let gathers = std::mem::take(&mut *scrapes.lock().expect("scrape lock poisoned"));
        if gathers.is_empty() {
            return;
        }
        if !shared.backends[backend].available() {
            for gather in gathers {
                gather.deliver(shared, backend, None);
            }
            return;
        }
        let dialed = self.socket.is_some() || self.dial().is_ok();
        // The first scrape owed starts the health wait; later ones do not
        // extend it, so a stream of scrapes cannot keep a silent link up.
        if !self.control.iter().any(|c| matches!(c, Control::Scrape(_))) {
            self.quiet_since = Instant::now();
        }
        for gather in gathers {
            if let Some(socket) = self.socket.as_mut() {
                socket.out.extend_from_slice(gather.line.as_bytes());
                socket.out.push(b'\n');
            }
            self.control.push_back(Control::Scrape(gather));
        }
        if !dialed {
            self.reset(Reset::Error);
        }
    }

    /// Runs the breaker's clock, then pings when one is due: at once for
    /// a half-open backend (its readmission trial), after `health_interval`
    /// of quiet for a closed one.
    fn check_health(&mut self) {
        let (shared, backend) = (self.shared, self.backend);
        let state = &shared.backends[backend];
        state.tick_probation();
        let due = match state.state() {
            CircuitState::Closed => self.quiet_since.elapsed() >= shared.options.health_interval,
            CircuitState::HalfOpen => true,
            CircuitState::Open => false,
        };
        if due && self.control.is_empty() {
            self.ping();
        }
    }

    /// Stages one ping, dialing first if the link has no socket.  A
    /// `health.probe` fault or a failed dial fails it at once.
    fn ping(&mut self) {
        // Owed from here, so a failure below books a failed probe.
        self.control.push_back(Control::Ping);
        self.quiet_since = Instant::now();
        let garble = match self.fault(FaultPoint::HealthProbe) {
            Ok(garble) => garble,
            Err(reason) => return self.reset(reason),
        };
        if self.socket.is_none() && self.dial().is_err() {
            return self.reset(Reset::Error);
        }
        let mut line = wire::encode_request(&wire::Request {
            id: CONTROL_ID,
            body: wire::RequestBody::Ping,
        });
        if garble {
            line = FaultPlan::garble_line(&line);
        }
        let socket = self.socket.as_mut().expect("the ping dialed the link");
        socket.out.extend_from_slice(line.as_bytes());
        socket.out.push(b'\n');
    }

    /// The pong: the backend is alive, and a half-open one is readmitted.
    fn pong(&mut self) {
        let telemetry = &self.shared.telemetry.backends[self.backend];
        telemetry.probes_ok.inc();
        if self.shared.backends[self.backend].record_success() == Transition::Readmitted {
            telemetry.readmitted.inc();
        }
    }

    /// Dials the backend.
    fn dial(&mut self) -> std::io::Result<()> {
        let backend = &self.shared.backends[self.backend];
        let generation = backend.generation();
        let stream = TcpStream::connect_timeout(&backend.addr(), CONNECT_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        self.socket = Some(Socket {
            stream,
            generation,
            scanner: LineScanner::new(),
            out: Vec::new(),
            stalled_since: None,
        });
        Ok(())
    }

    /// Writes what the socket takes of the pending bursts.
    fn write(&mut self) {
        let Some(socket) = self.socket.as_mut() else {
            return;
        };
        let mut written = 0;
        let failed = loop {
            if written == socket.out.len() {
                break false;
            }
            match (&socket.stream).write(&socket.out[written..]) {
                Ok(0) => break true,
                Ok(count) => {
                    written += count;
                    socket.stalled_since = None;
                }
                Err(ref e) if e.kind() == IoErrorKind::WouldBlock => {
                    socket.stalled_since.get_or_insert_with(Instant::now);
                    break false;
                }
                Err(ref e) if e.kind() == IoErrorKind::Interrupted => {}
                Err(_) => break true,
            }
        };
        socket.out.drain(..written);
        if failed {
            self.reset(Reset::Error);
        }
    }

    /// Reads answers until the socket would block.  Bounded: past the
    /// window's answers, any further line kills the link.
    fn read(&mut self, scratch: &mut [u8]) {
        while let Some(socket) = self.socket.as_mut() {
            let count = match (&socket.stream).read(scratch) {
                Ok(0) => return self.reset(Reset::Eof),
                Ok(count) => count,
                Err(ref e) if e.kind() == IoErrorKind::WouldBlock => return,
                Err(ref e) if e.kind() == IoErrorKind::Interrupted => continue,
                Err(_) => return self.reset(Reset::Error),
            };
            let mut scanner = std::mem::take(&mut socket.scanner);
            let alive = scanner.push(&scratch[..count], MAX_ANSWER_BYTES, |event| {
                self.on_answer(event)
            });
            // A dead link's socket is gone, and the rest of its bytes with it.
            if let (true, Some(socket)) = (alive, self.socket.as_mut()) {
                socket.scanner = scanner;
            }
        }
    }

    /// Handles one framed answer line; `false` when it killed the link.
    fn on_answer(&mut self, event: ScanEvent) -> bool {
        let ScanEvent::Line(mut line) = event else {
            self.reset(Reset::Garbled);
            return false;
        };
        match self.fault(FaultPoint::BackendRecv) {
            Ok(true) => line = FaultPlan::garble_line(&line),
            Ok(false) => {}
            Err(reason) => {
                self.reset(reason);
                return false;
            }
        }
        let Some(peek) = wire::peek_answer(&line) else {
            self.reset(Reset::Garbled);
            return false;
        };
        let now = Instant::now();
        self.quiet_since = now;
        if peek.id == CONTROL_ID {
            return self.control_answer(&peek, &line);
        }
        let slot = usize::try_from(peek.id)
            .ok()
            .and_then(|id| self.slots.get_mut(id));
        let Some(outstanding) = slot.and_then(Option::take) else {
            self.reset(Reset::UnknownId);
            return false;
        };
        self.publish_in_flight();
        self.progress = now;
        if !outstanding.shed {
            self.resolve(outstanding, &peek, &line);
        }
        true
    }

    /// Settles the oldest control request owed with its answer; `false`
    /// when the answer killed the link.
    fn control_answer(&mut self, peek: &AnswerPeek, line: &str) -> bool {
        let reason = match (self.control.pop_front(), peek.error) {
            (None, _) => Reset::UnknownId,
            (Some(control), Some(_)) => {
                // Still owed when the link dies below.
                self.control.push_front(control);
                Reset::Error
            }
            (Some(Control::Ping), None) => {
                self.pong();
                return true;
            }
            (Some(Control::Scrape(gather)), None) => match wire::decode_response(line) {
                Ok(response) => {
                    gather.deliver(self.shared, self.backend, Some(response.body));
                    return true;
                }
                Err(_) => {
                    self.control.push_front(Control::Scrape(gather));
                    Reset::Garbled
                }
            },
        };
        self.reset(reason);
        false
    }

    /// Delivers (or fails over) one answered job.
    fn resolve(&mut self, outstanding: Outstanding, peek: &AnswerPeek, line: &str) {
        let (shared, backend) = (self.shared, self.backend);
        let telemetry = &shared.telemetry;
        let Outstanding { job, written, .. } = outstanding;
        let answer = peek.splice_id(line, job.id);
        if peek.error.is_some_and(wire::ErrorKind::retryable) {
            // A refusal (overloaded, draining) fails over without blaming
            // the backend's health, and is forwarded if retries run out.
            let detail = "backend refused with a retryable error";
            return retry_after_failure(shared, backend, job, Some(answer), detail);
        }
        telemetry.hop_ns.record(written.elapsed().as_nanos() as u64);
        // Only a closed backend's link carries evals: readmission is the
        // pong's.
        shared.backends[backend].record_success();
        shared.budget.deposit();
        telemetry.evals_ok.inc();
        job.reply.push(answer);
        job.reply.finish();
        if !self
            .touched
            .iter()
            .any(|conn| Arc::ptr_eq(conn, &job.reply))
        {
            self.touched.push(job.reply);
        }
    }

    /// Kills a link that made no progress for `request_timeout` or read
    /// nothing for `health_timeout` while it owed a control answer, and
    /// sheds outstanding jobs whose deadline passed.
    fn expire(&mut self) {
        let now = Instant::now();
        let options = &self.shared.options;
        let timeout = options.request_timeout;
        if let Some(socket) = &self.socket {
            let stalled = socket
                .stalled_since
                .is_some_and(|since| now.duration_since(since) >= timeout);
            let silent = self.in_flight() > 0 && now.duration_since(self.progress) >= timeout;
            let unanswered = !self.control.is_empty()
                && now.duration_since(self.quiet_since) >= options.health_timeout;
            if stalled || silent || unanswered {
                return self.reset(Reset::Timeout);
            }
        }
        let shared = self.shared;
        for outstanding in self.slots.iter_mut().flatten() {
            if outstanding.shed || now < outstanding.job.deadline {
                continue;
            }
            // Shed in place: the backend still owes the answer, so the
            // request keeps its window slot until it arrives.
            outstanding.shed = true;
            let detail = "request deadline exceeded";
            shed(shared, &outstanding.job, ShedReason::Deadline, detail);
        }
    }

    /// How long the next poll may sleep: until the liveness bound, the
    /// next ping or the control timeout, or the next outstanding deadline,
    /// and at most [`IDLE_POLL`].
    fn poll_timeout(&self) -> Duration {
        let now = Instant::now();
        let options = &self.shared.options;
        let mut wake_at = now + IDLE_POLL;
        if self.in_flight() > 0 {
            wake_at = wake_at.min(self.progress + options.request_timeout);
        }
        if !self.control.is_empty() {
            wake_at = wake_at.min(self.quiet_since + options.health_timeout);
        } else if self.shared.backends[self.backend].available() {
            wake_at = wake_at.min(self.quiet_since + options.health_interval);
        }
        for outstanding in self.slots.iter().flatten().filter(|o| !o.shed) {
            wake_at = wake_at.min(outstanding.job.deadline);
        }
        wake_at.saturating_duration_since(now)
    }

    /// Drops the socket and books why: one failure unless it is `stale`,
    /// and a failed health probe too when a ping was unanswered.  Each
    /// scrape still owed gets its `None` part.
    fn close(&mut self, reason: Reset) {
        let (shared, backend) = (self.shared, self.backend);
        let telemetry = &shared.telemetry.backends[backend];
        self.socket = None;
        self.quiet_since = Instant::now();
        let control = std::mem::take(&mut self.control);
        telemetry.link_resets[reason as usize].inc();
        if reason != Reset::Stale {
            if control.iter().any(|c| matches!(c, Control::Ping)) {
                telemetry.probes_failed.inc();
            }
            telemetry.failures.inc();
            if shared.backends[backend].record_failure() == Transition::Opened {
                telemetry.circuit_opened.inc();
            }
        }
        for control in control {
            if let Control::Scrape(gather) = control {
                gather.deliver(shared, backend, None);
            }
        }
    }

    /// Tears the link down: [`close`](Self::close), then every outstanding
    /// and queued job fails over for free.
    fn reset(&mut self, reason: Reset) {
        self.close(reason);
        for job in self.unanswered().chain(self.take(usize::MAX)) {
            self.fail_over(job);
        }
    }

    /// Re-dispatches a job away from this backend without charging it an
    /// attempt or a budget token.
    fn fail_over(&self, mut job: ForwardJob) {
        job.tried |= 1u64 << self.backend;
        self.shared.telemetry.failovers.inc();
        dispatch(self.shared, job);
    }

    /// Takes up to `limit` jobs off this link's backlog, oldest first.
    fn take(&self, limit: usize) -> Vec<ForwardJob> {
        let mut jobs = self.shared.links[self.backend]
            .jobs
            .lock()
            .expect("link backlog lock poisoned");
        let count = limit.min(jobs.len());
        self.shared.telemetry.backends[self.backend]
            .queue_depth
            .sub(count as i64);
        jobs.drain(..count).collect()
    }

    /// Requests written and not yet answered.
    fn in_flight(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Empties the window, yielding the jobs still owed an answer (a job
    /// shed in place already has one).
    fn unanswered(&mut self) -> impl Iterator<Item = ForwardJob> {
        let slots = std::mem::replace(&mut self.slots, std::array::from_fn(|_| None));
        self.publish_in_flight();
        slots
            .into_iter()
            .flatten()
            .filter(|o| !o.shed)
            .map(|o| o.job)
    }

    /// Mirrors the in-flight count to dispatchers and the gauge.
    fn publish_in_flight(&self) {
        let count = self.in_flight();
        self.shared.links[self.backend]
            .in_flight
            .store(count, Ordering::Release);
        self.shared.telemetry.backends[self.backend]
            .in_flight
            .set(count as i64);
    }

    /// Flushes every connection answered since the last flush, once.
    fn flush_touched(&mut self) {
        for conn in self.touched.drain(..) {
            conn.flush_and_wake();
        }
    }

    /// At retirement every client connection has drained, so what is left
    /// are jobs whose client is gone: each is shed, and its closed
    /// connection drops the answer.
    fn abandon(&mut self) {
        self.socket = None;
        for job in self.unanswered().chain(self.take(usize::MAX)) {
            shed(
                self.shared,
                &job,
                ShedReason::Shutdown,
                "router is draining",
            );
        }
        self.flush_touched();
    }
}
