//! Sampled per-request phase tracing.
//!
//! A [`RequestTrace`] is a small owned timeline: the request's id, a
//! monotonic origin instant, and one [`Span`] per lifecycle phase recorded
//! as nanosecond offsets from the origin.  The trace travels *with* the
//! request — from the event loop that reads it, through the cache probe or
//! evaluation, to the socket flush — so recording never synchronizes
//! between threads; only the finished trace is folded into shared
//! histograms and the export ring by whichever thread finishes it.
//!
//! The caller decides which requests carry a trace; an untraced request
//! pays nothing — not even a clock read.  A bounded [`SpanRing`] keeps the
//! finished timelines as they are and renders each as one JSON line only
//! when the `metrics` wire op's `spans` format drains it, so no request
//! formats text for its span.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The request lifecycle phases, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Waiting for + reading the request frame off the socket.
    Read,
    /// Wire decode and architecture/workload resolution.
    Decode,
    /// Admission-control acquisition.
    Admission,
    /// Waiting in a worker's submission queue.
    Queue,
    /// Result-cache probe (hit or miss).
    CacheLookup,
    /// Analytical-model preparation on a cache miss.
    Prepare,
    /// Simulator evaluation on a cache miss.
    Evaluate,
    /// Response encoding.
    Serialize,
    /// Waiting in the connection's write queue.
    WriteQueue,
    /// Socket write + flush.
    Write,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 10] = [
        Phase::Read,
        Phase::Decode,
        Phase::Admission,
        Phase::Queue,
        Phase::CacheLookup,
        Phase::Prepare,
        Phase::Evaluate,
        Phase::Serialize,
        Phase::WriteQueue,
        Phase::Write,
    ];

    /// Stable wire/label name.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Read => "read",
            Phase::Decode => "decode",
            Phase::Admission => "admission",
            Phase::Queue => "queue",
            Phase::CacheLookup => "cache_lookup",
            Phase::Prepare => "prepare",
            Phase::Evaluate => "evaluate",
            Phase::Serialize => "serialize",
            Phase::WriteQueue => "write_queue",
            Phase::Write => "write",
        }
    }

    /// Position in [`Phase::ALL`] (stable array index for per-phase state).
    pub fn index(self) -> usize {
        match self {
            Phase::Read => 0,
            Phase::Decode => 1,
            Phase::Admission => 2,
            Phase::Queue => 3,
            Phase::CacheLookup => 4,
            Phase::Prepare => 5,
            Phase::Evaluate => 6,
            Phase::Serialize => 7,
            Phase::WriteQueue => 8,
            Phase::Write => 9,
        }
    }
}

/// One recorded phase interval, as nanosecond offsets from the trace
/// origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which lifecycle phase.
    pub phase: Phase,
    /// Offset of the phase start from the trace origin.
    pub start_ns: u64,
    /// Offset of the phase end from the trace origin.
    pub end_ns: u64,
}

impl Span {
    /// Phase duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An owned per-request phase timeline.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    id: u64,
    origin: Instant,
    spans: Vec<Span>,
}

impl RequestTrace {
    /// Starts a trace for request `id` with the origin at `origin` (the
    /// earliest instant the trace will reference, typically read start).
    pub fn with_origin(id: u64, origin: Instant) -> Self {
        Self {
            id,
            origin,
            spans: Vec::with_capacity(Phase::ALL.len()),
        }
    }

    /// Starts a trace for request `id` with the origin at "now".
    pub fn new(id: u64) -> Self {
        Self::with_origin(id, Instant::now())
    }

    /// The traced request id.
    pub fn id(&self) -> u64 {
        self.id
    }

    fn offset_ns(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a phase interval `[start, end]`.
    pub fn record(&mut self, phase: Phase, start: Instant, end: Instant) {
        let span = Span {
            phase,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
        };
        self.spans.push(span);
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total recorded duration of `phase`, or `None` if never recorded.
    pub fn phase_ns(&self, phase: Phase) -> Option<u64> {
        let mut total = None;
        for span in &self.spans {
            if span.phase == phase {
                *total.get_or_insert(0) += span.duration_ns();
            }
        }
        total
    }

    /// Start offset of the first span of `phase`.
    pub fn first_start_ns(&self, phase: Phase) -> Option<u64> {
        self.spans
            .iter()
            .filter(|s| s.phase == phase)
            .map(|s| s.start_ns)
            .min()
    }

    /// End offset of the last-ending span.
    pub fn latest_end_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.end_ns).max().unwrap_or(0)
    }

    /// Renders the trace as one JSON line for the span export ring.
    pub fn to_json_line(&self) -> String {
        let mut out = format!("{{\"id\":{},\"spans\":[", self.id);
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"phase\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                span.phase.as_str(),
                span.start_ns,
                span.duration_ns()
            );
        }
        out.push_str("]}");
        out
    }
}

/// Default capacity of the span export ring.
pub const SPAN_RING_CAPACITY: usize = 1024;

/// A bounded drop-oldest ring of finished timelines, rendered as JSON
/// lines only when drained.
#[derive(Debug)]
pub struct SpanRing {
    capacity: usize,
    traces: Mutex<VecDeque<Box<RequestTrace>>>,
    dropped: AtomicU64,
}

impl Default for SpanRing {
    fn default() -> Self {
        Self::new(SPAN_RING_CAPACITY)
    }
}

impl SpanRing {
    /// Creates a ring holding at most `capacity` timelines (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            traces: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Appends a finished timeline, evicting the oldest when full.
    pub fn push(&self, trace: Box<RequestTrace>) {
        let mut traces = self.traces.lock().expect("span ring lock poisoned");
        if traces.len() == self.capacity {
            traces.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        traces.push_back(trace);
    }

    /// Removes every buffered timeline and returns each one's
    /// [`RequestTrace::to_json_line`], oldest first.  The lines are
    /// rendered after the lock is released.
    pub fn drain(&self) -> Vec<String> {
        let traces = std::mem::take(&mut *self.traces.lock().expect("span ring lock poisoned"));
        traces.iter().map(|trace| trace.to_json_line()).collect()
    }

    /// Number of buffered timelines.
    pub fn len(&self) -> usize {
        self.traces.lock().expect("span ring lock poisoned").len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Timelines evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn trace_records_offsets_from_origin() {
        let origin = Instant::now();
        let mut trace = RequestTrace::with_origin(7, origin);
        let start = origin + Duration::from_nanos(100);
        let end = origin + Duration::from_nanos(350);
        trace.record(Phase::Queue, start, end);
        trace.record(Phase::Evaluate, end, origin + Duration::from_nanos(1_350));
        assert_eq!(trace.id(), 7);
        assert_eq!(trace.phase_ns(Phase::Queue), Some(250));
        assert_eq!(trace.phase_ns(Phase::Evaluate), Some(1_000));
        assert_eq!(trace.phase_ns(Phase::Write), None);
        assert_eq!(trace.first_start_ns(Phase::Queue), Some(100));
        assert_eq!(trace.latest_end_ns(), 1_350);
    }

    #[test]
    fn instants_before_the_origin_saturate_to_zero() {
        let origin = Instant::now();
        let mut trace = RequestTrace::with_origin(1, origin + Duration::from_secs(1));
        trace.record(Phase::Read, origin, origin);
        assert_eq!(trace.spans()[0].start_ns, 0);
        assert_eq!(trace.spans()[0].duration_ns(), 0);
    }

    #[test]
    fn json_line_is_stable() {
        let origin = Instant::now();
        let mut trace = RequestTrace::with_origin(42, origin);
        trace.record(
            Phase::CacheLookup,
            origin + Duration::from_nanos(10),
            origin + Duration::from_nanos(25),
        );
        assert_eq!(
            trace.to_json_line(),
            "{\"id\":42,\"spans\":[{\"phase\":\"cache_lookup\",\"start_ns\":10,\"dur_ns\":15}]}"
        );
    }

    #[test]
    fn phase_index_matches_all_order() {
        for (i, phase) in Phase::ALL.iter().enumerate() {
            assert_eq!(phase.index(), i);
        }
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let origin = Instant::now();
        let timeline = |id: u64| {
            let mut trace = RequestTrace::with_origin(id, origin);
            trace.record(
                Phase::Decode,
                origin + Duration::from_nanos(id),
                origin + Duration::from_nanos(10 * id),
            );
            Box::new(trace)
        };
        let ring = SpanRing::new(2);
        for id in 1..=3 {
            ring.push(timeline(id));
        }
        assert_eq!(ring.dropped(), 1);
        assert_eq!(ring.len(), 2);
        assert_eq!(
            ring.drain(),
            vec![timeline(2).to_json_line(), timeline(3).to_json_line()]
        );
        assert!(ring.is_empty());
        assert!(ring.drain().is_empty());
        assert_eq!(ring.capacity(), 2);
    }
}
