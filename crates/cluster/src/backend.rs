//! Per-backend state: address, circuit breaker, rendezvous placement.
//!
//! # Circuit breaker
//!
//! Each backend carries a three-state breaker:
//!
//! * **Closed** — healthy; eligible for dispatch.
//! * **Open** — `failure_threshold` consecutive failures tripped it; no
//!   requests are routed here.  After `open_cooldown` the backend's link
//!   moves it to half-open.
//! * **Half-open** — still excluded from dispatch, but the link dials
//!   and sends a trial ping; its pong closes the breaker (readmission),
//!   a failure re-opens it and restarts the cooldown.
//!
//! Requests never probe an open circuit themselves — only the backend's
//! link does — so a dead backend costs the cluster one trial per
//! `open_cooldown` instead of one timeout per request.
//!
//! # Rendezvous placement
//!
//! Replica sets come from highest-random-weight (rendezvous) hashing of
//! `(fingerprint, backend)` through the platform-stable
//! [`StableHasher`](crosslight_neural::fingerprint::StableHasher): every
//! router instance, on any platform, derives the same preference order
//! for a key, and removing a backend only reassigns the keys that lived
//! on it.  The order is *health-independent*; health is applied at
//! dispatch time so a recovered backend slots back into exactly the
//! shards it owned before.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crosslight_neural::fingerprint::fingerprint;

/// The observable states of a backend's circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitState {
    /// Healthy: requests are routed here.
    Closed,
    /// Tripped: excluded from routing until the cooldown elapses.
    Open,
    /// Probation: excluded from routing, but health probes may readmit it.
    HalfOpen,
}

impl CircuitState {
    /// Stable wire/metric name (`closed`, `open`, `half_open`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Closed => "closed",
            Self::Open => "open",
            Self::HalfOpen => "half_open",
        }
    }

    /// Gauge encoding: closed = 0, open = 1, half-open = 2.
    #[must_use]
    pub fn as_gauge(self) -> i64 {
        match self {
            Self::Closed => 0,
            Self::Open => 1,
            Self::HalfOpen => 2,
        }
    }

    fn from_u8(value: u8) -> Self {
        match value {
            1 => Self::Open,
            2 => Self::HalfOpen,
            _ => Self::Closed,
        }
    }
}

/// What a circuit transition changed, so the caller can count it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// The state did not change.
    None,
    /// The breaker tripped (→ open).
    Opened,
    /// The cooldown elapsed (open → half-open).
    Probation,
    /// A half-open probe succeeded (→ closed): the backend is readmitted.
    Readmitted,
}

/// One backend's mutable state.  I/O lives in the router; this is pure
/// bookkeeping, so it can be unit-tested without sockets.
#[derive(Debug)]
pub struct BackendState {
    /// Index in the router's backend list (also the routing identity —
    /// rendezvous hashes the index, so a restarted backend keeps its
    /// shards even on a new address).
    pub index: usize,
    addr: Mutex<SocketAddr>,
    state: AtomicU8,
    consecutive_failures: AtomicU32,
    /// Instant the breaker last opened; meaningful only while open.
    opened_at: Mutex<Instant>,
    /// Connection epoch: bumped when the breaker opens or the address
    /// changes, so the backend's link drops a socket dialed before the
    /// outage instead of blaming the recovered backend for writes to a
    /// socket its dead predecessor owned.
    generation: AtomicU64,
    failure_threshold: u32,
    open_cooldown: Duration,
}

impl BackendState {
    /// A closed-circuit backend at `addr`.
    #[must_use]
    pub fn new(
        index: usize,
        addr: SocketAddr,
        failure_threshold: u32,
        open_cooldown: Duration,
    ) -> Self {
        Self {
            index,
            addr: Mutex::new(addr),
            state: AtomicU8::new(0),
            consecutive_failures: AtomicU32::new(0),
            opened_at: Mutex::new(Instant::now()),
            generation: AtomicU64::new(0),
            failure_threshold: failure_threshold.max(1),
            open_cooldown,
        }
    }

    /// The current dial address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        *self.addr.lock().expect("backend addr lock poisoned")
    }

    /// Repoints the backend (e.g. a process restarted on a new ephemeral
    /// port).  Routing identity — the index — is unchanged; the breaker is
    /// left as-is, so a dead backend is still readmitted through half-open
    /// probing rather than trusted immediately.
    pub fn set_addr(&self, addr: SocketAddr) {
        *self.addr.lock().expect("backend addr lock poisoned") = addr;
        self.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// The current connection epoch.  A pooled connection stamped with an
    /// older generation predates the last outage or re-address and must
    /// be discarded, not written to.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The breaker's current state.
    #[must_use]
    pub fn state(&self) -> CircuitState {
        CircuitState::from_u8(self.state.load(Ordering::Acquire))
    }

    /// Whether dispatch may route a request here.
    #[must_use]
    pub fn available(&self) -> bool {
        self.state() == CircuitState::Closed
    }

    fn set_state(&self, state: CircuitState) {
        self.state.store(state.as_gauge() as u8, Ordering::Release);
    }

    /// Records a failed exchange (transport fault or failed probe).
    pub fn record_failure(&self) -> Transition {
        let failures = self.consecutive_failures.fetch_add(1, Ordering::AcqRel) + 1;
        match self.state() {
            CircuitState::Closed if failures >= self.failure_threshold => self.open(),
            // A half-open backend that fails its probe goes straight back
            // to open and restarts the cooldown.
            CircuitState::HalfOpen => self.open(),
            _ => Transition::None,
        }
    }

    fn open(&self) -> Transition {
        self.set_state(CircuitState::Open);
        *self
            .opened_at
            .lock()
            .expect("backend opened_at lock poisoned") = Instant::now();
        self.generation.fetch_add(1, Ordering::AcqRel);
        Transition::Opened
    }

    /// Records a successful exchange (request answered or probe ponged).
    pub fn record_success(&self) -> Transition {
        self.consecutive_failures.store(0, Ordering::Release);
        match self.state() {
            CircuitState::HalfOpen => {
                self.set_state(CircuitState::Closed);
                Transition::Readmitted
            }
            _ => Transition::None,
        }
    }

    /// Moves an open breaker whose cooldown has elapsed into half-open;
    /// called by the backend's link on each pass of its loop.
    pub fn tick_probation(&self) -> Transition {
        if self.state() == CircuitState::Open {
            let opened_at = *self
                .opened_at
                .lock()
                .expect("backend opened_at lock poisoned");
            if opened_at.elapsed() >= self.open_cooldown {
                self.set_state(CircuitState::HalfOpen);
                return Transition::Probation;
            }
        }
        Transition::None
    }
}

/// Backend indices ordered by rendezvous weight for `key_fingerprint`,
/// highest first.  The first `replication` entries are the key's replica
/// set; the rest are the spillover order when replicas are down.
#[must_use]
pub fn rendezvous_order(key_fingerprint: u64, backends: usize) -> Vec<usize> {
    let mut weighted: Vec<(u64, usize)> = (0..backends)
        .map(|index| (fingerprint(&(key_fingerprint, index as u64)), index))
        .collect();
    // Sort by weight descending; the index tiebreak is unreachable for
    // distinct indices but keeps the order total.
    weighted.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    weighted.into_iter().map(|(_, index)| index).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_backend(threshold: u32, cooldown: Duration) -> BackendState {
        BackendState::new(0, "127.0.0.1:1".parse().unwrap(), threshold, cooldown)
    }

    #[test]
    fn breaker_walks_closed_open_half_open_closed() {
        let backend = test_backend(3, Duration::from_millis(0));
        assert_eq!(backend.state(), CircuitState::Closed);
        assert_eq!(backend.record_failure(), Transition::None);
        assert_eq!(backend.record_failure(), Transition::None);
        assert_eq!(backend.record_failure(), Transition::Opened);
        assert_eq!(backend.state(), CircuitState::Open);
        assert!(!backend.available());
        // Zero cooldown: the next tick starts probation.
        assert_eq!(backend.tick_probation(), Transition::Probation);
        assert_eq!(backend.state(), CircuitState::HalfOpen);
        assert!(
            !backend.available(),
            "half-open backends take probes, not traffic"
        );
        assert_eq!(backend.record_success(), Transition::Readmitted);
        assert_eq!(backend.state(), CircuitState::Closed);
        assert!(backend.available());
    }

    #[test]
    fn failed_probe_reopens_a_half_open_breaker() {
        let backend = test_backend(1, Duration::from_millis(0));
        assert_eq!(backend.record_failure(), Transition::Opened);
        assert_eq!(backend.tick_probation(), Transition::Probation);
        assert_eq!(backend.record_failure(), Transition::Opened);
        assert_eq!(backend.state(), CircuitState::Open);
    }

    #[test]
    fn cooldown_gates_probation() {
        let backend = test_backend(1, Duration::from_secs(3600));
        assert_eq!(backend.record_failure(), Transition::Opened);
        assert_eq!(backend.tick_probation(), Transition::None);
        assert_eq!(backend.state(), CircuitState::Open);
    }

    #[test]
    fn successes_reset_the_failure_streak() {
        let backend = test_backend(3, Duration::from_millis(0));
        for _ in 0..10 {
            assert_eq!(backend.record_failure(), Transition::None);
            assert_eq!(backend.record_success(), Transition::None);
            assert_eq!(backend.record_failure(), Transition::None);
            assert_eq!(backend.record_success(), Transition::None);
        }
        assert_eq!(backend.state(), CircuitState::Closed);
    }

    #[test]
    fn generation_bumps_on_open_and_readdress_but_not_on_recovery() {
        let backend = test_backend(1, Duration::from_millis(0));
        let initial = backend.generation();
        assert_eq!(backend.record_failure(), Transition::Opened);
        assert_eq!(
            backend.generation(),
            initial + 1,
            "opening the breaker must invalidate pooled connections"
        );
        assert_eq!(backend.tick_probation(), Transition::Probation);
        assert_eq!(backend.record_success(), Transition::Readmitted);
        assert_eq!(
            backend.generation(),
            initial + 1,
            "readmission itself mints no new epoch — fresh dials already \
             carry the post-outage generation"
        );
        backend.set_addr("127.0.0.1:2".parse().unwrap());
        assert_eq!(backend.generation(), initial + 2);
    }

    #[test]
    fn rendezvous_order_is_stable_total_and_minimally_disruptive() {
        let order = rendezvous_order(0xdead_beef, 5);
        assert_eq!(order, rendezvous_order(0xdead_beef, 5));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4], "a permutation of all backends");
        // Shrinking the pool only removes the dropped backend from the
        // order — the relative order of survivors is untouched (the HRW
        // minimal-disruption property).
        let shrunk = rendezvous_order(0xdead_beef, 4);
        let survivors: Vec<usize> = order.iter().copied().filter(|&b| b < 4).collect();
        assert_eq!(shrunk, survivors);
        // Different keys spread across different primaries somewhere.
        assert!(
            (0..64u64).any(|key| rendezvous_order(key, 5)[0] != order[0]),
            "primaries must vary by key"
        );
    }
}
