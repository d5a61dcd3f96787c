//! Lock-free metric primitives: [`Counter`], [`Gauge`] and a log-linear
//! bucketed [`Histogram`].
//!
//! All three are cheap cloneable handles (`Arc` over atomic cores): cloning
//! shares the underlying series, so the same counter can live in a registry
//! *and* in the hot path that increments it.  A counter or gauge update is
//! one atomic RMW and a histogram record four; none takes a lock or
//! allocates.
//!
//! ## Memory ordering
//!
//! Increments publish with `Release` and reads observe with `Acquire`.  On
//! x86-64 this compiles to exactly the same code as `Relaxed` (`lock xadd`
//! is a full barrier; an `Acquire` load is a plain `mov`), so it is free on
//! the platforms this repo targets — but it gives snapshot readers a real
//! guarantee: if a snapshot observes effect *B* of a thread, it also
//! observes every counter update that thread made before *B*.  The runtime
//! and server stats paths exploit this by reading "downstream" counters
//! (completed, evals_ok) *before* "upstream" ones (submitted,
//! requests_total), which makes invariants like `submitted ≥ completed`
//! hold for live-traffic snapshots, not just quiescent ones.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing `u64` counter handle.
///
/// Clones share the same underlying atomic, so a counter can be registered
/// once and incremented from any number of threads.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Creates a counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments the counter by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments the counter by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Release);
    }

    /// Rolls back `n` previously added units.
    ///
    /// Counters are semantically monotone; this exists only for the
    /// submit-rollback paths (a request counted as submitted whose enqueue
    /// then failed was never really submitted).
    #[inline]
    pub fn sub(&self, n: u64) {
        self.value.fetch_sub(n, Ordering::AcqRel);
    }

    /// Overwrites the counter value.
    ///
    /// Only for scrape-time mirrors of counters owned by a layer that does
    /// not link against this crate (e.g. the core `ModelCache` hit/miss
    /// totals, copied into the registry just before a snapshot).
    #[inline]
    pub fn store(&self, value: u64) {
        self.value.store(value, Ordering::Release);
    }

    /// Current value (`Acquire`; see the module docs on snapshot ordering).
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Acquire)
    }
}

/// A signed gauge handle for instantaneous values (queue depths, entry
/// counts, in-flight requests).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// Creates a gauge starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the gauge.
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Release);
    }

    /// Subtracts `n` from the gauge.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Release);
    }

    /// Sets the gauge to `value`.
    #[inline]
    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Release);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Acquire)
    }
}

/// Sub-bucket resolution: 2^4 = 16 linear sub-buckets per power of two,
/// bounding the relative quantile error at 1/16 = 6.25%.
const SUB_BITS: u32 = 4;
const SUBS: u64 = 1 << SUB_BITS;

/// Total bucket count covering the full `u64` range: the top index is
/// reached by `u64::MAX` at `(63 - 4) * 16 + 31 = 975`, so 976 buckets.
pub(crate) const NUM_BUCKETS: usize = ((64 - SUB_BITS + 1) as usize) * (SUBS as usize);

/// Maps a recorded value to its bucket index.
///
/// Values below 16 get exact singleton buckets; larger values index by
/// `(octave - 4) * 16 + top-4-mantissa-bits`, the classic log-linear (HDR)
/// layout.
#[inline]
pub(crate) fn bucket_index(value: u64) -> usize {
    if value < SUBS {
        value as usize
    } else {
        let octave = 63 - value.leading_zeros();
        let shift = octave - SUB_BITS;
        ((shift as usize) << SUB_BITS) + (value >> shift) as usize
    }
}

/// Inclusive `[lower, upper]` value range of a bucket.
pub(crate) fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < SUBS as usize {
        (index as u64, index as u64)
    } else {
        let shift = (index >> SUB_BITS) as u32 - 1;
        let mantissa = (index - ((shift as usize) << SUB_BITS)) as u64;
        let lower = mantissa << shift;
        (lower, lower + ((1u64 << shift) - 1))
    }
}

/// A lock-free log-linear histogram handle.
///
/// Recording is four relaxed atomic RMWs: the bucket, the sum, and a
/// `fetch_min` and `fetch_max` (on x86 each of those two is a locked
/// compare-exchange loop, run even when the value changes nothing).
/// Snapshotting walks the bucket array without stopping writers.  Relative
/// quantile error is bounded by the 6.25% bucket width.  Clones share the
/// same cells, which is how per-worker recording into one series works.
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

#[derive(Debug)]
struct HistogramCore {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Self {
            core: Arc::new(HistogramCore {
                buckets: buckets.into_boxed_slice(),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        let core = &*self.core;
        core.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
        core.min.fetch_min(value, Ordering::Relaxed);
        core.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Takes a point-in-time snapshot.
    ///
    /// The reported `count` is the sum of the bucket counts read during the
    /// walk, so "bucket counts sum to the sample count" holds by
    /// construction even while writers are racing; `sum`/`min`/`max` may
    /// then lag the buckets by in-flight observations.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let core = &*self.core;
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (index, cell) in core.buckets.iter().enumerate() {
            let n = cell.load(Ordering::Acquire);
            if n > 0 {
                count += n;
                buckets.push((index, n));
            }
        }
        HistogramSnapshot {
            count,
            sum: core.sum.load(Ordering::Acquire),
            min: core.min.load(Ordering::Acquire),
            max: core.max.load(Ordering::Acquire),
            buckets,
        }
    }
}

/// Plain-data result of [`Histogram::snapshot`]: bucket occupancies plus
/// sum/min/max, with quantile and merge queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    count: u64,
    sum: u64,
    /// `u64::MAX` when empty.
    min: u64,
    max: u64,
    /// `(bucket index, occupancy)` pairs, ascending by index, zero-count
    /// buckets omitted.
    buckets: Vec<(usize, u64)>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// The snapshot of a histogram with no observations.
    pub fn empty() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: Vec::new(),
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean of the recorded values; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the inclusive upper bound of
    /// the bucket holding the `⌈q·count⌉`-th smallest observation (so the
    /// true quantile is overestimated by at most the 6.25% bucket width),
    /// capped at `max` but never below that bucket's lower bound — a `max`
    /// that lags the buckets (a live snapshot racing writers, or a peer's
    /// page) cannot pull a quantile under the observations it counts.
    /// Returns `0` when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(index, n) in &self.buckets {
            seen = seen.saturating_add(n);
            if seen >= rank {
                let (lower, upper) = bucket_bounds(index);
                return upper.min(self.max).max(lower);
            }
        }
        self.max
    }

    /// Median (see [`Self::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Combines two snapshots as if every observation had been recorded
    /// into a single histogram.  Occupancies and the count saturate at
    /// `u64::MAX`.
    pub fn merge(&self, other: &Self) -> Self {
        let mut merged: Vec<(usize, u64)> = Vec::with_capacity(self.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, na)), Some(&&(ib, nb))) => {
                    if ia < ib {
                        merged.push((ia, na));
                        a.next();
                    } else if ib < ia {
                        merged.push((ib, nb));
                        b.next();
                    } else {
                        merged.push((ia, na.saturating_add(nb)));
                        a.next();
                        b.next();
                    }
                }
                (Some(&&pair), None) => {
                    merged.push(pair);
                    a.next();
                }
                (None, Some(&&pair)) => {
                    merged.push(pair);
                    b.next();
                }
                (None, None) => break,
            }
        }
        Self {
            count: self.count.saturating_add(other.count),
            // The live accumulator is a wrapping atomic add, so merging
            // wraps the same way instead of panicking in debug builds.
            sum: self.sum.wrapping_add(other.sum),
            min: self.min.min(other.min),
            max: self.max.max(other.max),
            buckets: merged,
        }
    }

    /// Occupied buckets as `(inclusive upper bound, occupancy)` pairs,
    /// ascending — the wire/exposition form of the distribution.
    pub fn le_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .map(|&(index, n)| (bucket_bounds(index).1, n))
    }

    /// Rebuilds a snapshot from its wire form: `(upper bound, occupancy)`
    /// pairs as produced by [`Self::le_buckets`] plus the `sum`/`min`/`max`
    /// scalars.  Pairs may arrive in any order; duplicates accumulate.
    /// Occupancies and the count saturate at `u64::MAX`, as merges do: a
    /// peer's page may hold any counts.
    pub fn from_le_buckets(pairs: &[(u64, u64)], sum: u64, min: Option<u64>, max: u64) -> Self {
        let mut by_index: Vec<(usize, u64)> = Vec::with_capacity(pairs.len());
        for &(le, n) in pairs {
            if n == 0 {
                continue;
            }
            let index = bucket_index(le);
            match by_index.binary_search_by_key(&index, |&(i, _)| i) {
                Ok(pos) => by_index[pos].1 = by_index[pos].1.saturating_add(n),
                Err(pos) => by_index.insert(pos, (index, n)),
            }
        }
        let count = by_index
            .iter()
            .fold(0u64, |sum, &(_, n)| sum.saturating_add(n));
        Self {
            count,
            sum,
            min: min.unwrap_or(u64::MAX),
            max,
            buckets: by_index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bounds_are_inverse() {
        for value in (0..2048u64).chain([u64::MAX, u64::MAX - 1, 1 << 40, (1 << 40) + 12345]) {
            let index = bucket_index(value);
            let (lower, upper) = bucket_bounds(index);
            assert!(
                lower <= value && value <= upper,
                "value {value} outside bucket {index} bounds [{lower}, {upper}]"
            );
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(15), 15);
        assert_eq!(bucket_index(16), 16);
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        for value in [100u64, 1_000, 65_536, 1 << 30, 1 << 50] {
            let (lower, upper) = bucket_bounds(bucket_index(value));
            let width = (upper - lower) as f64;
            assert!(
                width / lower as f64 <= 1.0 / 15.0,
                "bucket too wide at {value}"
            );
        }
    }

    #[test]
    fn counter_and_gauge_roundtrip() {
        let counter = Counter::new();
        counter.inc();
        counter.add(9);
        assert_eq!(counter.get(), 10);
        counter.sub(3);
        assert_eq!(counter.get(), 7);
        counter.store(42);
        assert_eq!(counter.get(), 42);

        let gauge = Gauge::new();
        gauge.add(5);
        gauge.sub(8);
        assert_eq!(gauge.get(), -3);
        gauge.set(12);
        assert_eq!(gauge.get(), 12);
    }

    #[test]
    fn clones_share_the_same_cell() {
        let counter = Counter::new();
        let clone = counter.clone();
        clone.add(3);
        counter.add(4);
        assert_eq!(counter.get(), 7);
        assert_eq!(clone.get(), 7);
    }

    #[test]
    fn histogram_snapshot_reports_exact_small_values() {
        let histogram = Histogram::new();
        for value in [3u64, 3, 3, 7] {
            histogram.record(value);
        }
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count(), 4);
        assert_eq!(snapshot.sum(), 16);
        assert_eq!(snapshot.min(), Some(3));
        assert_eq!(snapshot.max(), Some(7));
        assert_eq!(snapshot.p50(), 3);
        assert_eq!(snapshot.quantile(1.0), 7);
        assert!((snapshot.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_snapshot_is_inert() {
        let snapshot = Histogram::new().snapshot();
        assert_eq!(snapshot, HistogramSnapshot::empty());
        assert_eq!(snapshot.count(), 0);
        assert_eq!(snapshot.min(), None);
        assert_eq!(snapshot.max(), None);
        assert_eq!(snapshot.mean(), 0.0);
        assert_eq!(snapshot.p50(), 0);
    }

    #[test]
    fn quantiles_are_within_bucket_error() {
        let histogram = Histogram::new();
        for value in 1..=10_000u64 {
            histogram.record(value);
        }
        let snapshot = histogram.snapshot();
        for (q, exact) in [(0.5, 5_000.0), (0.9, 9_000.0), (0.99, 9_900.0)] {
            let estimate = snapshot.quantile(q) as f64;
            assert!(
                estimate >= exact && estimate <= exact * 1.07,
                "q={q}: estimate {estimate} vs exact {exact}"
            );
        }
    }

    #[test]
    fn merge_equals_recording_the_union() {
        let (left, right, both) = (Histogram::new(), Histogram::new(), Histogram::new());
        for value in [1u64, 50, 50, 7_000] {
            left.record(value);
            both.record(value);
        }
        for value in [2u64, 50, 1 << 33] {
            right.record(value);
            both.record(value);
        }
        assert_eq!(left.snapshot().merge(&right.snapshot()), both.snapshot());
        // Merging with an empty snapshot is the identity.
        assert_eq!(
            left.snapshot().merge(&HistogramSnapshot::empty()),
            left.snapshot()
        );
    }

    #[test]
    fn wire_roundtrip_preserves_the_snapshot() {
        let histogram = Histogram::new();
        for value in [0u64, 1, 15, 16, 1_000, 123_456_789] {
            histogram.record(value);
        }
        let snapshot = histogram.snapshot();
        let pairs: Vec<(u64, u64)> = snapshot.le_buckets().collect();
        let rebuilt = HistogramSnapshot::from_le_buckets(
            &pairs,
            snapshot.sum(),
            snapshot.min(),
            snapshot.max().unwrap_or(0),
        );
        assert_eq!(rebuilt, snapshot);

        let empty = HistogramSnapshot::empty();
        assert_eq!(HistogramSnapshot::from_le_buckets(&[], 0, None, 0), empty);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let histogram = Histogram::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let handle = histogram.clone();
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        handle.record(t * 10_000 + i);
                    }
                });
            }
        });
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count(), 40_000);
        assert_eq!(snapshot.min(), Some(0));
    }
}
