//! Readiness and line-framing primitives shared by the front-end reactor,
//! the cluster router's backend links and the high-connection-count swarm
//! load generator.
//!
//! Three small pieces:
//!
//! * [`PollSet`] — a safe, reusable wrapper over `poll(2)` (via the offline
//!   `libc` compat shim): register descriptors with read/write interest,
//!   block until something is ready, inspect per-slot [`Readiness`].  On
//!   targets without a C-library `poll`, the shim's portable fallback
//!   reports every descriptor ready after a short sleep, degrading callers
//!   to a polling loop over nonblocking sockets without changing behaviour.
//! * [`Waker`] / [`WakeReceiver`] — a loopback socket pair that lets any
//!   thread interrupt a [`PollSet::poll`] sleep (the portable equivalent of
//!   a self-pipe).
//! * [`LineScanner`] — an incremental, length-limited `\n`-frame decoder,
//!   fed whatever chunks a read returns.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

#[cfg(unix)]
use std::os::unix::io::AsRawFd;

/// The raw descriptor type handed to `poll(2)`.
pub type RawFd = libc::c_int;

/// The descriptor of a socket, as registered with [`PollSet::push`].
///
/// On non-Unix targets (where the compat shim's portable `poll` fallback
/// never inspects descriptors) this returns a placeholder.
#[must_use]
pub fn fd_of(stream: &TcpStream) -> RawFd {
    #[cfg(unix)]
    {
        stream.as_raw_fd()
    }
    #[cfg(not(unix))]
    {
        let _ = stream;
        0
    }
}

/// What `poll(2)` reported for one registered slot.
#[derive(Debug, Clone, Copy, Default)]
pub struct Readiness {
    /// Data (or EOF/hangup) can be read without blocking.
    pub readable: bool,
    /// The socket can accept writes without blocking.
    pub writable: bool,
    /// The descriptor is in an error state (`POLLERR`/`POLLNVAL`).
    pub error: bool,
}

impl Readiness {
    /// Whether anything at all was reported.
    #[must_use]
    pub fn any(&self) -> bool {
        self.readable || self.writable || self.error
    }
}

/// A reusable `poll(2)` registration set.
///
/// The intended cadence is: [`PollSet::clear`], [`PollSet::push`] every
/// descriptor of interest (remembering the returned slot), [`PollSet::poll`],
/// then [`PollSet::readiness`] per slot.  The backing array is reused across
/// iterations, so a steady-state reactor allocates nothing per tick.
#[derive(Debug, Default)]
pub struct PollSet {
    fds: Vec<libc::pollfd>,
}

impl PollSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every registration, keeping the allocation.
    pub fn clear(&mut self) {
        self.fds.clear();
    }

    /// Registers a descriptor with the given interests; returns its slot
    /// index for [`PollSet::readiness`] after the next poll.
    pub fn push(&mut self, fd: RawFd, read: bool, write: bool) -> usize {
        let mut events: libc::c_short = 0;
        if read {
            events |= libc::POLLIN;
        }
        if write {
            events |= libc::POLLOUT;
        }
        self.fds.push(libc::pollfd {
            fd,
            events,
            revents: 0,
        });
        self.fds.len() - 1
    }

    /// Number of registered slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fds.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fds.is_empty()
    }

    /// Blocks until at least one slot is ready or the timeout elapses
    /// (`None` = wait forever).  Returns the number of ready slots; `0` on
    /// timeout.  An `EINTR` wakeup is reported as `0` ready slots rather
    /// than an error, so callers simply re-enter their loop.
    ///
    /// # Errors
    ///
    /// Any `poll(2)` failure other than `EINTR`.
    pub fn poll(&mut self, timeout: Option<Duration>) -> io::Result<usize> {
        for entry in &mut self.fds {
            entry.revents = 0;
        }
        let timeout_ms: libc::c_int = match timeout {
            None => -1,
            Some(t) => {
                libc::c_int::try_from(t.as_millis().clamp(0, 3_600_000)).unwrap_or(3_600_000)
            }
        };
        let rc = unsafe {
            libc::poll(
                self.fds.as_mut_ptr(),
                self.fds.len() as libc::nfds_t,
                timeout_ms,
            )
        };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(rc as usize)
    }

    /// Readiness of one slot after the last [`PollSet::poll`].  A hangup
    /// (`POLLHUP`) is reported as readable: the pending EOF (or queued data
    /// ahead of it) is collected by reading.
    #[must_use]
    pub fn readiness(&self, slot: usize) -> Readiness {
        let revents = self.fds[slot].revents;
        Readiness {
            readable: revents & (libc::POLLIN | libc::POLLHUP) != 0,
            writable: revents & libc::POLLOUT != 0,
            error: revents & (libc::POLLERR | libc::POLLNVAL) != 0,
        }
    }
}

/// The write end of a wake pair: any thread can interrupt the owning
/// reactor's poll sleep.  Cloneable across threads via `try_clone` on the
/// inner stream is unnecessary — `wake` takes `&self`.
#[derive(Debug)]
pub struct Waker {
    tx: TcpStream,
}

impl Waker {
    /// Interrupts the paired [`WakeReceiver`]'s poll.  Best-effort: a full
    /// pipe means a wakeup is already pending, and a closed pipe means the
    /// reactor already exited — both are fine to ignore.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }
}

/// The read end of a wake pair, registered in the owning reactor's
/// [`PollSet`].
#[derive(Debug)]
pub struct WakeReceiver {
    rx: TcpStream,
}

impl WakeReceiver {
    /// The descriptor to register for read interest.
    #[must_use]
    pub fn fd(&self) -> RawFd {
        fd_of(&self.rx)
    }

    /// Consumes every pending wake byte so the next poll sleeps again.
    pub fn drain(&self) {
        let mut sink = [0u8; 64];
        loop {
            match (&self.rx).read(&mut sink) {
                Ok(0) => return,
                Ok(_) => {}
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }
}

/// Builds a connected, nonblocking loopback socket pair used as a poll
/// wakeup channel — the portable stand-in for `pipe(2)`/`eventfd(2)`.
///
/// # Errors
///
/// Propagates socket errors from the loopback bind/connect/accept.
pub fn wake_pair() -> io::Result<(Waker, WakeReceiver)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    tx.set_nonblocking(true)?;
    tx.set_nodelay(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx }, WakeReceiver { rx }))
}

/// One framing event from a [`LineScanner`].
#[derive(Debug)]
pub enum ScanEvent {
    /// A complete line (without the newline).
    Line(String),
    /// A line exceeded the limit; its bytes were discarded and the stream
    /// is re-synchronized at the next newline.
    Oversized,
    /// A complete line that was not valid UTF-8.
    InvalidUtf8,
}

/// Incremental, length-limited `\n`-frame decoder for nonblocking reads.
///
/// Feed it whatever chunks `read` returns; it buffers partial lines
/// (bounded by the limit), emits one [`ScanEvent`] per completed line, and
/// discards the remainder of over-long lines so the stream stays
/// line-synchronized.
#[derive(Debug, Default)]
pub struct LineScanner {
    buf: Vec<u8>,
    oversized: bool,
}

impl LineScanner {
    /// A fresh scanner with no buffered bytes.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes one chunk of input, invoking `emit` for each completed
    /// line event.  `emit` returning `false` stops the scan early (the
    /// connection died mid-handling); unconsumed input is discarded, which
    /// is fine because the connection never reads again.  Returns whether
    /// the scan ran to completion.
    pub fn push(
        &mut self,
        mut data: &[u8],
        max_bytes: usize,
        mut emit: impl FnMut(ScanEvent) -> bool,
    ) -> bool {
        while let Some(newline) = data.iter().position(|&b| b == b'\n') {
            let (head, rest) = data.split_at(newline);
            data = &rest[1..];
            let event = if self.oversized || self.buf.len() + head.len() > max_bytes {
                self.buf.clear();
                self.oversized = false;
                ScanEvent::Oversized
            } else {
                self.buf.extend_from_slice(head);
                match String::from_utf8(std::mem::take(&mut self.buf)) {
                    Ok(line) => ScanEvent::Line(line),
                    Err(_) => ScanEvent::InvalidUtf8,
                }
            };
            if !emit(event) {
                return false;
            }
        }
        if !self.oversized {
            if self.buf.len() + data.len() > max_bytes {
                // Mark and discard now so a frame streamed in many small
                // chunks cannot hold more than the limit in memory.
                self.buf.clear();
                self.oversized = true;
            } else {
                self.buf.extend_from_slice(data);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_pair_interrupts_a_poll_sleep() {
        let (waker, receiver) = wake_pair().expect("loopback wake pair");
        let mut set = PollSet::new();
        let slot = set.push(receiver.fd(), true, false);
        // Nothing pending: a short poll times out.
        assert_eq!(set.poll(Some(Duration::from_millis(10))).unwrap(), 0);
        waker.wake();
        let ready = set.poll(Some(Duration::from_secs(5))).unwrap();
        assert!(ready >= 1);
        assert!(set.readiness(slot).readable);
        receiver.drain();
        // Drained: the next short poll times out again.
        set.clear();
        set.push(receiver.fd(), true, false);
        assert_eq!(set.poll(Some(Duration::from_millis(10))).unwrap(), 0);
    }

    #[test]
    fn line_scanner_frames_across_arbitrary_chunk_boundaries() {
        let mut scanner = LineScanner::new();
        let mut events = Vec::new();
        let input = b"hello\nwor";
        assert!(scanner.push(input, 1024, |e| {
            events.push(format!("{e:?}"));
            true
        }));
        assert!(scanner.push(b"ld\n", 1024, |e| {
            events.push(format!("{e:?}"));
            true
        }));
        assert_eq!(events, [r#"Line("hello")"#, r#"Line("world")"#]);
    }

    #[test]
    fn line_scanner_discards_oversized_and_resynchronizes() {
        let mut scanner = LineScanner::new();
        let mut events = Vec::new();
        // 10-byte limit; a 32-byte line arrives in two chunks, then a
        // short line follows on the same chunk as the resync newline.
        let long = [b'x'; 32];
        assert!(scanner.push(&long[..16], 10, |_| panic!("no event mid-line")));
        assert!(scanner.push(&long[16..], 10, |_| panic!("still mid-line")));
        assert!(scanner.push(b"\nok\n", 10, |e| {
            events.push(format!("{e:?}"));
            true
        }));
        assert_eq!(events, ["Oversized", r#"Line("ok")"#]);
        // Exactly at the limit passes.
        let mut exact = Vec::new();
        assert!(scanner.push(b"0123456789\n", 10, |e| {
            exact.push(format!("{e:?}"));
            true
        }));
        assert_eq!(exact, [r#"Line("0123456789")"#]);
    }

    #[test]
    fn line_scanner_reports_invalid_utf8_per_line() {
        let mut scanner = LineScanner::new();
        let mut events = Vec::new();
        assert!(scanner.push(b"bad \xff byte\nnext\n", 1024, |e| {
            events.push(format!("{e:?}"));
            true
        }));
        assert_eq!(events, ["InvalidUtf8", r#"Line("next")"#]);
    }
}
