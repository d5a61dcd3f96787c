//! Order statistics, time slicing, and readings of the program's own
//! telemetry registries.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crosslight_telemetry::{Histogram, HistogramSnapshot, RegistrySnapshot, SeriesValue};

/// Quantile `q` of `values` with linear interpolation between order
/// statistics (0 when empty).  Sorts `values` in place.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Latencies of one window, one log-linear histogram (ns) per time slice.
///
/// Its size is fixed by the window's length, not by how many operations
/// complete, so the benchmark's bookkeeping adds the same few hundred KiB of
/// resident memory however fast the program runs.
#[derive(Debug)]
pub struct SliceRecorder {
    start: Instant,
    slice_s: f64,
    slices: Vec<Histogram>,
}

impl SliceRecorder {
    /// Slices of `slice_s` from `start` covering `seconds`, plus one for
    /// the operations that complete while the load drains.
    pub fn new(start: Instant, seconds: f64, slice_s: f64) -> Self {
        let count = (seconds / slice_s).ceil() as usize + 1;
        Self {
            start,
            slice_s,
            slices: (0..count).map(|_| Histogram::new()).collect(),
        }
    }

    /// Records one operation that completed at `done` after `latency`.
    pub fn record(&self, done: Instant, latency: Duration) {
        let at = (done.duration_since(self.start).as_secs_f64() / self.slice_s) as usize;
        if let Some(slice) = self.slices.get(at) {
            slice.record(u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Per-slice snapshots of several recorders of one window, merged.
    pub fn merged(recorders: &[SliceRecorder]) -> Vec<HistogramSnapshot> {
        let count = recorders.iter().map(|r| r.slices.len()).max().unwrap_or(0);
        (0..count)
            .map(|i| {
                recorders
                    .iter()
                    .filter_map(|r| r.slices.get(i))
                    .fold(HistogramSnapshot::empty(), |acc, h| {
                        acc.merge(&h.snapshot())
                    })
            })
            .collect()
    }
}

/// Share of a slice's CPU time the host may steal before the slice is left
/// out.
const STEAL_LIMIT: f64 = 0.05;

/// Throughput and latency of one measured window.
///
/// The window is cut into equal time slices.  A slice is left out only when
/// the hypervisor stole more than `STEAL_LIMIT` of its CPU time
/// (`/proc/stat`): a vCPU taken away stalls every request it was serving,
/// which says nothing about the program.  A slice is never left out for
/// being slow.  When more than half the slices were stolen from, the half
/// with the least stolen time is kept.  Throughput is the operations of the
/// kept slices over their length; p50 and p99 are taken over every latency
/// of the kept slices together.
#[derive(Debug, Clone)]
pub struct WindowFigures {
    pub throughput_rps: f64,
    pub latency_p50_us: f64,
    pub latency_p99_us: f64,
    /// Mean latency of the kept slices.
    pub latency_mean_us: f64,
    /// Latencies behind the p50 and p99 (those of the kept slices).
    pub samples: u64,
    /// Whole slices, and how many of them were kept.
    pub slice_count: usize,
    pub kept_slices: usize,
    /// Per-slice `(throughput, p50, p99, stolen ticks)`, for the detail
    /// line.
    pub slices: Vec<(f64, f64, f64, u64)>,
    /// Latency deciles (p10 … p90) over the whole window, for the detail
    /// line.
    pub deciles_us: Vec<f64>,
}

/// Figures of a window `elapsed_s` long, from its per-slice latency
/// histograms (ns) of `slice_s` each; a trailing partial slice is left out.
/// Every recorded latency counts as one successful operation.  `stolen[i]`
/// is the host's stolen time during slice `i` (see [`StealClock`]).
pub fn window_figures(
    slices: &[HistogramSnapshot],
    elapsed_s: f64,
    slice_s: f64,
    stolen: &[u64],
) -> WindowFigures {
    let whole = ((elapsed_s / slice_s) as usize).clamp(1, slices.len().max(1));
    let empty = HistogramSnapshot::empty();
    let slice = |i: usize| slices.get(i).unwrap_or(&empty);
    let stolen_in = |i: usize| stolen.get(i).copied().unwrap_or(0);
    let per_slice: Vec<(f64, f64, f64, u64)> = (0..whole)
        .map(|i| {
            let h = slice(i);
            (
                h.count() as f64 / slice_s,
                histogram_quantile(h, 0.5) * 1e-3,
                histogram_quantile(h, 0.99) * 1e-3,
                stolen_in(i),
            )
        })
        .collect();
    let all = (0..whole).fold(HistogramSnapshot::empty(), |acc, i| acc.merge(slice(i)));
    let deciles_us = (1..10)
        .map(|d| histogram_quantile(&all, f64::from(d) / 10.0) * 1e-3)
        .collect();

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let limit = STEAL_LIMIT * slice_s * cpus as f64 * TICKS_PER_SECOND;
    let mut kept: Vec<usize> = (0..whole)
        .filter(|&i| stolen_in(i) as f64 <= limit)
        .collect();
    if kept.len() < whole.div_ceil(2) {
        kept = (0..whole).collect();
        kept.sort_by_key(|&i| stolen_in(i));
        kept.truncate(whole.div_ceil(2));
    }
    let calm = kept
        .iter()
        .fold(HistogramSnapshot::empty(), |acc, &i| acc.merge(slice(i)));
    WindowFigures {
        throughput_rps: calm.count() as f64 / (kept.len() as f64 * slice_s),
        latency_p50_us: histogram_quantile(&calm, 0.5) * 1e-3,
        latency_p99_us: histogram_quantile(&calm, 0.99) * 1e-3,
        latency_mean_us: calm.mean() * 1e-3,
        samples: calm.count(),
        slice_count: whole,
        kept_slices: kept.len(),
        slices: per_slice,
        deciles_us,
    }
}

/// Clock ticks per second of `/proc/stat` (`USER_HZ`, 100 on Linux).
const TICKS_PER_SECOND: f64 = 100.0;

/// CPU time the hypervisor stole from this machine so far, summed over
/// CPUs, in clock ticks (0 where `/proc/stat` does not report it).
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Reads the stolen-time counter at every slice boundary of a window, on a
/// thread of its own.
#[derive(Debug)]
pub struct StealClock {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<u64>>,
}

impl StealClock {
    /// Starts sampling at `start`, then every `slice_s`.
    pub fn start(start: Instant, slice_s: f64) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut marks = vec![steal_ticks()];
                while !stop.load(Ordering::Relaxed) {
                    let boundary = start + Duration::from_secs_f64(slice_s * marks.len() as f64);
                    let now = Instant::now();
                    if now >= boundary {
                        marks.push(steal_ticks());
                    } else {
                        std::thread::sleep((boundary - now).min(Duration::from_millis(20)));
                    }
                }
                marks
                    .windows(2)
                    .map(|w| w[1].saturating_sub(w[0]))
                    .collect()
            })
        };
        Self { stop, handle }
    }

    /// Stops sampling; returns the stolen ticks of every whole slice.
    pub fn finish(self) -> Vec<u64> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("the steal sampler panicked")
    }
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|err| format!("cannot read /proc/self/status: {err}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn series<'a>(
    snapshot: &'a RegistrySnapshot,
    name: &str,
) -> impl Iterator<Item = (&'a [(String, String)], &'a SeriesValue)> {
    snapshot
        .family(name)
        .into_iter()
        .flat_map(|family| family.series.iter())
        .map(|s| (s.labels.as_slice(), &s.value))
}

fn labels_match(labels: &[(String, String)], want: &[(&str, &str)]) -> bool {
    want.iter()
        .all(|(k, v)| labels.iter().any(|(lk, lv)| lk == k && lv == v))
}

/// The histogram `name`, merged over every series whose labels include
/// `want` (empty when the family is absent).
pub fn histogram(
    snapshot: &RegistrySnapshot,
    name: &str,
    want: &[(&str, &str)],
) -> HistogramSnapshot {
    series(snapshot, name)
        .filter(|(labels, _)| labels_match(labels, want))
        .fold(HistogramSnapshot::empty(), |acc, (_, value)| match value {
            SeriesValue::Histogram(h) => acc.merge(h),
            _ => acc,
        })
}

/// Every counter or gauge reading of family `name`, one per series.
pub fn readings(snapshot: &RegistrySnapshot, name: &str) -> Vec<i64> {
    series(snapshot, name)
        .filter_map(|(_, value)| match value {
            SeriesValue::Counter(c) => i64::try_from(*c).ok(),
            SeriesValue::Gauge(g) => Some(*g),
            SeriesValue::Histogram(_) => None,
        })
        .collect()
}

/// Sum of a counter family over its series.
pub fn counter(snapshot: &RegistrySnapshot, name: &str) -> f64 {
    readings(snapshot, name).iter().map(|&v| v as f64).sum()
}

/// Observations recorded between two snapshots of one histogram.
pub fn histogram_delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let earlier: Vec<(u64, u64)> = before.le_buckets().collect();
    let pairs: Vec<(u64, u64)> = after
        .le_buckets()
        .map(|(le, n)| {
            let old = earlier
                .iter()
                .find(|(ble, _)| *ble == le)
                .map_or(0, |(_, bn)| *bn);
            (le, n.saturating_sub(old))
        })
        .collect();
    HistogramSnapshot::from_le_buckets(
        &pairs,
        after.sum().wrapping_sub(before.sum()),
        None,
        after.max().unwrap_or(0),
    )
}

/// Lower bound of the log-linear bucket whose inclusive upper bound is `le`
/// (16 sub-buckets per octave, singletons below 32).
fn bucket_lower(le: u64) -> u64 {
    if le < 32 {
        le
    } else {
        let shift = 63 - le.leading_zeros() - 4;
        le & !((1u64 << shift) - 1)
    }
}

/// Quantile `q` of a histogram, interpolated linearly inside the bucket
/// that holds it (the registry's own quantile returns bucket bounds, which
/// would read identically across runs).  0 when empty.
pub fn histogram_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    let count = h.count();
    if count == 0 {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * count as f64).max(f64::MIN_POSITIVE);
    let mut seen = 0u64;
    for (le, n) in h.le_buckets() {
        if (seen + n) as f64 >= rank {
            let lower = bucket_lower(le);
            let width = (le - lower + 1) as f64;
            return lower as f64 + width * (rank - seen as f64) / n as f64;
        }
        seen += n;
    }
    h.max().unwrap_or(0) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crosslight_telemetry::Histogram;

    #[test]
    fn interpolated_quantiles_stay_inside_their_bucket() {
        let h = Histogram::new();
        for v in [5u64, 40, 1000, 1001, 1002, 70_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        let p50 = histogram_quantile(&snap, 0.5);
        assert!((960.0..=1024.0).contains(&p50), "p50 {p50}");
        assert_eq!(histogram_quantile(&HistogramSnapshot::empty(), 0.5), 0.0);
        let later = Histogram::new();
        for v in [5u64, 40, 1000, 1001, 1002, 70_000, 3, 3] {
            later.record(v);
        }
        let delta = histogram_delta(&later.snapshot(), &snap);
        assert_eq!(delta.count(), 2);
        assert_eq!(delta.sum(), 6);
    }

    #[test]
    fn window_figures_keep_slow_slices_and_drop_stolen_ones() {
        let start = Instant::now();
        let recorder = SliceRecorder::new(start, 1.0, 0.1);
        for i in 0..1000u32 {
            let done = start + Duration::from_micros(u64::from(i) * 1000 + 1);
            // Slice 3 is slow (every latency 100x); slice 7 was stolen from.
            let latency_us = match i / 100 {
                3 => 200,
                7 => 50,
                _ => 2,
            };
            recorder.record(done, Duration::from_micros(latency_us));
        }
        let slices = SliceRecorder::merged(std::slice::from_ref(&recorder));
        let mut stolen = vec![0; 10];
        stolen[7] = 1000;
        let figures = window_figures(&slices, 1.0, 0.1, &stolen);
        assert_eq!((figures.slice_count, figures.kept_slices), (10, 9));
        assert_eq!(figures.samples, 900);
        assert!((figures.throughput_rps - 1000.0).abs() < 1e-9);
        assert!((figures.latency_p50_us - 2.0).abs() < 0.2, "{figures:?}");
        // The slow slice is 1/9 of the kept latencies, so it sets the p99.
        assert!(figures.latency_p99_us > 150.0, "{figures:?}");

        // When the host stole from every slice, the half with the least
        // stolen time is kept.
        let stolen: Vec<u64> = (0..10).map(|i| 1000 + i).collect();
        let figures = window_figures(&slices, 1.0, 0.1, &stolen);
        assert_eq!(figures.kept_slices, 5);
        assert_eq!(figures.samples, 500);
    }
}
