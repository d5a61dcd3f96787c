//! The evaluation service: every request served on the thread that asks
//! for it, and a batch served by shard on the [`sweep`] engine.
//!
//! [`EvalService`] owns no thread.  Each request is counted as its
//! *shard*, the platform-stable fingerprint of its cache key modulo
//! `workers`: answers name the shard as their `worker`, and
//! [`RuntimeStats::per_worker`] counts requests by it.
//! [`EvalService::submit`] serves one request on the calling thread.
//! [`EvalService::submit_batch`] groups a batch by shard, in request order
//! within each group, and serves the groups on up to `workers` scoped
//! threads, so identical requests always share a group — within one batch
//! the first occurrence computes and every later duplicate is a cache hit,
//! never a redundant recomputation racing on another thread.
//!
//! [`EvalService::answer`] serves one request on the calling thread too,
//! but answers a hit with the caller's encoding memoized on the cache
//! entry; the network front-end's event loops answer every eval through
//! it.
//!
//! Two memoization layers serve the hot loop:
//!
//! 1. a service-wide [`ShardedCache`] of finished `(config, workload)`
//!    reports, bounded by a byte budget;
//! 2. a service-wide [`ModelCache`] of the workload-independent analytical
//!    models (per-unit power reports, prepared simulators, resolutions), so
//!    a report-cache miss for a configuration *or sub-configuration* seen
//!    before only recomputes the per-workload inference metrics.
//!
//! Both layers are transparent: the simulator is deterministic, so responses
//! are bit-identical to serial `CrossLightSimulator::evaluate` calls
//! regardless of worker count, batch partitioning, or hit pattern.

use std::any::Any;
use std::convert::Infallible;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Instant;

use crosslight_baselines::ArchSpec;
use crosslight_core::cache::ModelCache;
use crosslight_core::simulator::{CrossLightSimulator, SimulationReport};
use crosslight_telemetry::{
    Counter, Gauge, Histogram, Phase, Registry, RegistrySnapshot, RequestTrace,
};

use crate::cache::{CacheKey, Cached, ShardedCache};
use crate::error::{Result, RuntimeError};
use crate::request::{EvalRequest, EvalResponse, KeyedRequest};
use crate::sweep;

/// Independent shards of the result cache.
const CACHE_SHARDS: usize = 16;

/// Tuning knobs of the evaluation service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeOptions {
    /// Number of workers (clamped to at least 1): the shards answers name,
    /// and the most threads a batch is served on.
    pub workers: usize,
}

impl RuntimeOptions {
    /// Returns a copy with a different worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }
}

impl Default for RuntimeOptions {
    /// One worker per available core (falling back to 4).
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4),
        }
    }
}

/// Point-in-time snapshot of the service counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Requests accepted, by any submission method.
    pub submitted: u64,
    /// Requests fully answered.
    pub completed: u64,
    /// Responses served from the result cache.
    pub cache_hits: u64,
    /// Responses that required a fresh evaluation.
    pub cache_misses: u64,
    /// Distinct `(config, workload)` reports currently cached.
    pub cached_entries: usize,
    /// Configurations whose prepared simulator the service-wide
    /// [`ModelCache`]'s bounded memo currently holds.
    pub prepared_configs: usize,
    /// Requests served for each worker (shard), indexed by worker id.
    pub per_worker: Vec<u64>,
    /// One zero per worker: every request is served by the thread that
    /// takes it, so nothing queues (the `stats` frame keeps the field).
    pub queue_depths: Vec<u64>,
}

impl RuntimeStats {
    /// Fraction of completed lookups served from the cache (0 when idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Requests accepted but not yet answered.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.submitted.saturating_sub(self.completed)
    }
}

/// What [`EvalService::answer`] gives back for one request.
#[derive(Debug)]
pub enum Answer {
    /// A result-cache hit: the caller's encoding of the cached report.
    Hit(Arc<String>),
    /// A miss, evaluated and cached on the calling thread.
    Miss(EvalResponse),
}

/// The service's metric handles, registered once at construction; the hot
/// paths touch only the lock-free handles, never the registry.
#[derive(Debug)]
struct Telemetry {
    registry: Arc<Registry>,
    submitted: Counter,
    completed: Counter,
    panics: Counter,
    per_worker: Vec<Counter>,
    cache_lookup_hit_ns: Histogram,
    cache_lookup_miss_ns: Histogram,
    prepare_ns: Histogram,
    evaluate_ns: Histogram,
    // Scrape-time mirrors of state owned by layers without registry access
    // (see `EvalService::telemetry_snapshot`).
    result_cache_entries: Gauge,
    model_cache_hits: Counter,
    model_cache_misses: Counter,
    model_cache_entries: Gauge,
}

impl Telemetry {
    fn new(workers: usize, cache: &ShardedCache) -> Self {
        let registry = Arc::new(Registry::new());
        let mut per_worker = Vec::with_capacity(workers);
        for worker in 0..workers {
            let label = worker.to_string();
            per_worker.push(registry.counter_with(
                "runtime_worker_completed_total",
                "Requests answered for each worker (the shard a key routes to).",
                &[("worker", &label)],
            ));
            registry.gauge_with(
                "runtime_queue_depth",
                "Requests waiting for each worker (always zero: every request is \
                 served by the thread that takes it).",
                &[("worker", &label)],
            );
            registry.counter_with(
                "runtime_worker_busy_ns_total",
                "Nanoseconds each worker spent serving traced requests (always \
                 zero: the service has no worker threads).",
                &[("worker", &label)],
            );
        }
        registry
            .register_counter(
                "runtime_result_cache_hits_total",
                "Result-cache lookups answered from the cache.",
                &[],
                cache.hit_counter(),
            )
            .expect("static metric registration is infallible");
        registry
            .register_counter(
                "runtime_result_cache_misses_total",
                "Result-cache lookups that required a fresh evaluation.",
                &[],
                cache.miss_counter(),
            )
            .expect("static metric registration is infallible");
        registry
            .register_counter(
                "runtime_result_cache_evictions_total",
                "Result-cache entries evicted to admit a key on its second touch \
                 once the cache's byte budget is full.",
                &[],
                cache.eviction_counter(),
            )
            .expect("static metric registration is infallible");
        registry
            .gauge(
                "runtime_workers",
                "Number of workers: the shards answers name, not threads.",
            )
            .set(workers as i64);
        registry.histogram(
            "runtime_queue_wait_ns",
            "Time traced requests spent waiting for a worker (always empty: \
             nothing queues).",
        );
        Self {
            submitted: registry.counter("runtime_submitted_total", "Requests accepted."),
            completed: registry.counter("runtime_completed_total", "Requests fully answered."),
            panics: registry.counter(
                "runtime_worker_panics_total",
                "Evaluations that panicked, each answered with an evaluation error.",
            ),
            per_worker,
            cache_lookup_hit_ns: registry.histogram_with(
                "runtime_cache_lookup_ns",
                "Result-cache probe latency for traced requests, split by outcome.",
                &[("outcome", "hit")],
            ),
            cache_lookup_miss_ns: registry.histogram_with(
                "runtime_cache_lookup_ns",
                "Result-cache probe latency for traced requests, split by outcome.",
                &[("outcome", "miss")],
            ),
            prepare_ns: registry.histogram(
                "runtime_prepare_ns",
                "Analytical-model preparation time for traced cache misses.",
            ),
            evaluate_ns: registry.histogram(
                "runtime_evaluate_ns",
                "Simulator evaluation and result-cache insert time for traced cache misses.",
            ),
            result_cache_entries: registry.gauge(
                "runtime_result_cache_entries",
                "Distinct (architecture, workload) reports currently cached.",
            ),
            model_cache_hits: registry.counter(
                "runtime_model_cache_hits_total",
                "Model-cache hits (mirrored from the core ModelCache at scrape time).",
            ),
            model_cache_misses: registry.counter(
                "runtime_model_cache_misses_total",
                "Model-cache misses (mirrored from the core ModelCache at scrape time).",
            ),
            model_cache_entries: registry.gauge(
                "runtime_model_cache_entries",
                "Prepared configurations held in the model cache's bounded memo.",
            ),
            registry,
        }
    }
}

/// The concurrent batched evaluation service.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use crosslight_runtime::pool::{EvalService, RuntimeOptions};
/// use crosslight_runtime::request::EvalRequest;
/// use crosslight_core::config::CrossLightConfig;
/// use crosslight_core::simulator::CrossLightSimulator;
/// use crosslight_neural::workload::NetworkWorkload;
/// use crosslight_neural::zoo::PaperModel;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let service = EvalService::new(RuntimeOptions::default().with_workers(2));
/// let config = CrossLightConfig::paper_best();
/// let workload = Arc::new(NetworkWorkload::from_spec(&PaperModel::Lenet5SignMnist.spec())?);
///
/// let batch = vec![
///     EvalRequest::new(config, Arc::clone(&workload)),
///     EvalRequest::new(config, Arc::clone(&workload)), // duplicate → cache hit
/// ];
/// let responses = service.submit_batch(batch)?;
///
/// let serial = CrossLightSimulator::new(config).evaluate(&workload)?;
/// assert_eq!(responses[0].report, serial); // bit-identical to serial
/// assert!(responses[1].cache_hit);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EvalService {
    cache: ShardedCache,
    model_cache: ModelCache,
    telemetry: Telemetry,
}

impl EvalService {
    /// Creates a service with `options.workers` workers and empty caches.
    #[must_use]
    pub fn new(options: RuntimeOptions) -> Self {
        let cache = ShardedCache::new(CACHE_SHARDS);
        Self {
            telemetry: Telemetry::new(options.workers.max(1), &cache),
            cache,
            model_cache: ModelCache::new(),
        }
    }

    /// Number of workers: the shards answers name as their `worker`, and
    /// the most threads [`EvalService::submit_batch`] serves a batch on.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.telemetry.per_worker.len()
    }

    /// The worker (shard) `key` routes to.
    fn shard(&self, key: &CacheKey) -> usize {
        (key.fingerprint() % self.workers() as u64) as usize
    }

    /// Evaluates one request on the calling thread.
    ///
    /// # Errors
    ///
    /// The request's evaluation error, or [`RuntimeError::Panicked`].
    pub fn submit(&self, request: EvalRequest) -> Result<EvalResponse> {
        self.serve(&request.into())
    }

    /// Serves a batch and returns the responses in request order.  The
    /// requests are grouped by the worker their key routes to, in request
    /// order within a group, and the groups are served on up to `workers`
    /// scoped threads ([`sweep::fold`]): identical requests share a group,
    /// so the first occurrence misses and every later one hits.  Results
    /// are bit-identical to evaluating each request serially with
    /// [`CrossLightSimulator::evaluate`], for any worker count and any
    /// partitioning of the stream into batches.
    ///
    /// # Errors
    ///
    /// The error of the lowest failing request index.  Every request of
    /// the batch is served and counted before the call returns.
    pub fn submit_batch(&self, requests: Vec<EvalRequest>) -> Result<Vec<EvalResponse>> {
        let mut groups: Vec<Vec<(usize, KeyedRequest)>> =
            (0..self.workers()).map(|_| Vec::new()).collect();
        for (index, request) in requests.into_iter().enumerate() {
            let request = KeyedRequest::from(request);
            groups[self.shard(&request.key)].push((index, request));
        }
        // An empty group would still cost a thread; a batch whose requests
        // share one group is served on the calling thread.
        groups.retain(|group| !group.is_empty());
        let Ok(parts) = sweep::fold(&groups, self.workers(), Vec::new, |served, _, group| {
            served.extend(
                group
                    .iter()
                    .map(|(index, request)| (*index, self.serve(request))),
            );
            Ok::<_, Infallible>(())
        });
        let mut served: Vec<_> = parts.into_iter().flatten().collect();
        served.sort_unstable_by_key(|&(index, _)| index);
        served.into_iter().map(|(_, response)| response).collect()
    }

    /// Serves one request on the calling thread: a result-cache hit, or a
    /// miss evaluated and cached here, counted as its worker's.
    fn serve(&self, request: &KeyedRequest) -> Result<EvalResponse> {
        self.telemetry.submitted.inc();
        let worker = self.shard(&request.key);
        let response = match self.cache.get(&request.key) {
            Some(report) => Ok(EvalResponse {
                id: request.request.id,
                report,
                cache_hit: true,
                worker,
            }),
            None => self.evaluate_miss(request, worker, None),
        };
        self.telemetry.per_worker[worker].inc();
        self.telemetry.completed.inc();
        response
    }

    /// Answers `request` on the calling thread.
    ///
    /// A hit returns the caller's encoding of the report: `encode` makes
    /// it from the report and the worker the key routes to
    /// (`fingerprint % workers`) on the entry's first hit here, and the
    /// entry keeps it for every later one while the cache's memo budget
    /// lasts (past it, a hit on an entry without one is encoded afresh).
    /// A miss is prepared, evaluated and cached here, as
    /// [`EvalService::submit`] does it; a panic in it is answered with
    /// [`RuntimeError::Panicked`] and counted in
    /// `runtime_worker_panics_total`, and the calling thread lives on.
    ///
    /// Either counts exactly as [`EvalService::submit`] does: one cache
    /// hit or miss, one `per_worker` request, and `submitted` before
    /// `completed`, which [`EvalService::stats`]'s ordered read needs.
    ///
    /// `trace` is a sampled request's timeline and its phase cursor.  Each
    /// span runs from the cursor to its own end, where it moves the cursor:
    /// `cache_lookup` (feeding `runtime_cache_lookup_ns`), then on a miss
    /// `prepare` (CrossLight only) and `evaluate`, which covers the cache
    /// insert.  A first hit's `encode` runs after them, so the caller's
    /// next span carries it.
    ///
    /// # Errors
    ///
    /// The request's evaluation error, or [`RuntimeError::Panicked`].
    pub fn answer(
        &self,
        request: &KeyedRequest,
        mut trace: Option<(&mut RequestTrace, &mut Instant)>,
        encode: impl FnOnce(&SimulationReport, usize) -> Arc<String>,
    ) -> Result<Answer> {
        let telemetry = &self.telemetry;
        let cached = self.cache.get_inline(&request.key);
        let lookup_ns = match cached {
            Some(_) => &telemetry.cache_lookup_hit_ns,
            None => &telemetry.cache_lookup_miss_ns,
        };
        close_span(&mut trace, Phase::CacheLookup, lookup_ns);
        telemetry.submitted.inc();
        let worker = self.shard(&request.key);
        let answer = match cached {
            Some(Cached::Encoded(encoded)) => Ok(Answer::Hit(encoded)),
            Some(Cached::Report(report)) => {
                let encoded = encode(&report, worker);
                self.cache.memoize(&request.key, &encoded);
                Ok(Answer::Hit(encoded))
            }
            None => self.evaluate_miss(request, worker, trace).map(Answer::Miss),
        };
        telemetry.per_worker[worker].inc();
        telemetry.completed.inc();
        answer
    }

    /// Snapshot of the service counters.
    ///
    /// The snapshot is *ordered*: `completed` is read before `submitted`.
    /// A request increments `completed` only after its `submitted`
    /// increment, on the one thread that serves it, and counter reads are
    /// `Acquire`, so the later `submitted` read observes at least every
    /// submission whose completion was already counted — live-traffic
    /// snapshots always satisfy `submitted >= completed`, not just
    /// quiescent ones.
    #[must_use]
    pub fn stats(&self) -> RuntimeStats {
        let completed = self.telemetry.completed.get();
        let submitted = self.telemetry.submitted.get();
        RuntimeStats {
            submitted,
            completed,
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cached_entries: self.cache.len(),
            prepared_configs: self.model_cache.stats().prepared_configs,
            per_worker: self.telemetry.per_worker.iter().map(Counter::get).collect(),
            queue_depths: vec![0; self.workers()],
        }
    }

    /// The runtime's metrics registry (live handles; see
    /// [`EvalService::telemetry_snapshot`] for the scrape path).
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.telemetry.registry
    }

    /// Scrape-consistent snapshot of every runtime metric family.
    ///
    /// Before snapshotting, the mirrors for state owned outside the
    /// registry (result-cache entry count, core `ModelCache` totals) are
    /// synced, so a scrape always sees current values.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> RegistrySnapshot {
        let telemetry = &self.telemetry;
        telemetry.result_cache_entries.set(self.cache.len() as i64);
        let model_stats = self.model_cache.stats();
        telemetry.model_cache_hits.store(model_stats.hits);
        telemetry.model_cache_misses.store(model_stats.misses);
        telemetry
            .model_cache_entries
            .set(model_stats.prepared_configs as i64);
        telemetry.registry.snapshot()
    }

    /// Drops the service: it owns no thread, so nothing waits.
    pub fn shutdown(self) {}

    /// The work of a result-cache miss, counted as `worker`'s: prepares and
    /// evaluates the request and caches its report.  It runs under
    /// `catch_unwind`, and no lock is held across simulator code, so a
    /// panic poisons nothing: it is counted and answered with
    /// [`RuntimeError::Panicked`].  `trace` gets the spans
    /// [`EvalService::answer`] documents.
    fn evaluate_miss(
        &self,
        request: &KeyedRequest,
        worker: usize,
        mut trace: Option<(&mut RequestTrace, &mut Instant)>,
    ) -> Result<EvalResponse> {
        let telemetry = &self.telemetry;
        let KeyedRequest { request, key } = request;
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| -> Result<SimulationReport> {
            panic_if_armed();
            let report = match request.arch {
                // The service-wide ModelCache shares the workload-independent
                // breakdowns (and their sub-config unit reports) across every
                // caller, so only the per-workload inference metrics remain
                // per-request work.
                ArchSpec::CrossLight(config) => {
                    let prepared =
                        CrossLightSimulator::new(config).prepare_with(&self.model_cache)?;
                    close_span(&mut trace, Phase::Prepare, &telemetry.prepare_ns);
                    prepared.evaluate(&request.workload)?
                }
                // The zoo backends are closed-form analytical models; their
                // workload-independent parts are cheap enough that the result
                // cache alone carries the memoization.
                spec => spec.simulate(&request.workload)?,
            };
            self.cache.insert(key.clone(), report);
            close_span(&mut trace, Phase::Evaluate, &telemetry.evaluate_ns);
            Ok(report)
        }));
        let report = outcome.unwrap_or_else(|payload| {
            telemetry.panics.inc();
            Err(RuntimeError::Panicked(panic_message(payload.as_ref())))
        })?;
        Ok(EvalResponse {
            id: request.id,
            report,
            cache_hit: false,
            worker,
        })
    }
}

/// Ends a traced request's next span: `phase` from the cursor to now, fed
/// to `histogram`, with the cursor moved to its end.  Untraced requests
/// never read the clock.
fn close_span(
    trace: &mut Option<(&mut RequestTrace, &mut Instant)>,
    phase: Phase,
    histogram: &Histogram,
) {
    if let Some((trace, cursor)) = trace {
        let end = Instant::now();
        histogram.record(end.saturating_duration_since(**cursor).as_nanos() as u64);
        trace.record(phase, **cursor, end);
        **cursor = end;
    }
}

/// The text a panic was raised with (empty when it carries none).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    match payload.downcast_ref::<&str>() {
        Some(text) => (*text).to_string(),
        None => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default(),
    }
}

/// The containment test's fault hook: a no-op outside the unit tests.
#[cfg(not(test))]
fn panic_if_armed() {}

#[cfg(test)]
use tests::panic_if_armed;

#[cfg(test)]
mod tests {
    use super::*;
    use crosslight_core::config::CrossLightConfig;
    use crosslight_core::error::ArchitectureError;
    use crosslight_core::variants::CrossLightVariant;
    use crosslight_neural::workload::NetworkWorkload;
    use crosslight_neural::zoo::PaperModel;
    use std::cell::Cell;

    thread_local! {
        /// Makes the next miss evaluated on this thread panic.
        static PANIC_NEXT_MISS: Cell<bool> = const { Cell::new(false) };
    }

    /// Panics when [`PANIC_NEXT_MISS`] is armed on this thread.
    pub(super) fn panic_if_armed() {
        if PANIC_NEXT_MISS.take() {
            panic!("forced");
        }
    }

    fn paper_requests() -> Vec<EvalRequest> {
        let mut requests = Vec::new();
        for variant in CrossLightVariant::all() {
            for model in PaperModel::all() {
                let workload = Arc::new(NetworkWorkload::from_spec(&model.spec()).unwrap());
                requests.push(EvalRequest::new(variant.config(), workload));
            }
        }
        requests
    }

    #[test]
    fn batched_responses_match_serial_evaluation_bit_for_bit() {
        let requests = paper_requests();
        let serial: Vec<_> = requests
            .iter()
            .map(|r| {
                CrossLightSimulator::new(r.config().unwrap())
                    .evaluate(&r.workload)
                    .unwrap()
            })
            .collect();
        for workers in [1, 2, 4, 7] {
            let service = EvalService::new(RuntimeOptions::default().with_workers(workers));
            let responses = service.submit_batch(requests.clone()).unwrap();
            assert_eq!(responses.len(), serial.len());
            for (response, expected) in responses.iter().zip(&serial) {
                assert_eq!(response.report, *expected);
                assert!(!response.cache_hit, "first pass must be all misses");
                assert!(response.worker < workers);
            }
            service.shutdown();
        }
    }

    #[test]
    fn duplicate_traffic_is_served_from_the_cache() {
        let service = EvalService::new(RuntimeOptions::default().with_workers(4));
        let requests = paper_requests();
        let first = service.submit_batch(requests.clone()).unwrap();
        let second = service.submit_batch(requests).unwrap();
        assert!(second.iter().all(|r| r.cache_hit));
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.report, b.report);
        }
        let stats = service.stats();
        assert_eq!(stats.submitted, 32);
        assert_eq!(stats.completed, 32);
        assert_eq!(stats.cache_hits, 16);
        assert_eq!(stats.cache_misses, 16);
        assert_eq!(stats.cached_entries, 16);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(stats.per_worker.iter().sum::<u64>(), 32);
    }

    #[test]
    fn duplicates_within_one_batch_hit_after_the_first_occurrence() {
        let distinct = paper_requests();
        // Each distinct key three times, its duplicates interleaved with
        // other keys.
        let picks: Vec<usize> = (0..distinct.len())
            .flat_map(|i| [i, i / 2, (i * 5) % distinct.len()])
            .collect();
        let batch: Vec<EvalRequest> = picks.iter().map(|&i| distinct[i].clone()).collect();
        for workers in 1..=8 {
            let service = EvalService::new(RuntimeOptions::default().with_workers(workers));
            let responses = service.submit_batch(batch.clone()).unwrap();
            // Grouping by shard serves identical requests in order on one
            // thread, so exactly the first occurrence of each key misses.
            let mut seen = vec![false; distinct.len()];
            for (&i, response) in picks.iter().zip(&responses) {
                assert_eq!(response.cache_hit, seen[i], "key {i} on {workers} workers");
                seen[i] = true;
            }
            let stats = service.stats();
            assert_eq!(
                stats.cache_misses,
                distinct.len() as u64,
                "{workers} workers"
            );
            assert_eq!(stats.cache_misses, stats.cached_entries as u64);
            assert_eq!(stats.cache_hits, (batch.len() - distinct.len()) as u64);
        }
    }

    #[test]
    fn a_batch_returns_the_lowest_failing_index_after_serving_every_request() {
        let workload =
            Arc::new(NetworkWorkload::from_spec(&PaperModel::CnnCifar10.spec()).unwrap());
        let failing = |config| EvalRequest::new(config, Arc::clone(&workload));
        let no_units = failing(CrossLightConfig {
            conv_units: 0,
            ..CrossLightConfig::paper_best()
        });
        let no_chunk = failing(CrossLightConfig {
            conv_unit_size: 0,
            ..CrossLightConfig::paper_best()
        });
        let invalid = |name| {
            move |outcome: &Result<Vec<EvalResponse>>| {
                matches!(
                    outcome,
                    Err(RuntimeError::Evaluation(ArchitectureError::InvalidConfig { name: n, .. }))
                        if *n == name
                )
            }
        };
        for (first, second, lower) in [
            (&no_units, &no_chunk, invalid("units")),
            (&no_chunk, &no_units, invalid("chunk")),
        ] {
            let mut batch = paper_requests();
            batch.insert(3, first.clone());
            batch.insert(11, second.clone());
            for workers in 1..=8 {
                let service = EvalService::new(RuntimeOptions::default().with_workers(workers));
                let outcome = service.submit_batch(batch.clone());
                assert!(lower(&outcome), "{workers} workers: {outcome:?}");
                let stats = service.stats();
                assert_eq!(
                    (stats.submitted, stats.completed),
                    (batch.len() as u64, batch.len() as u64),
                    "{workers} workers"
                );
            }
        }
    }

    #[test]
    fn single_submit_and_empty_batches_work() {
        let service = EvalService::new(RuntimeOptions::default().with_workers(2));
        assert!(service.submit_batch(Vec::new()).unwrap().is_empty());
        let workload =
            Arc::new(NetworkWorkload::from_spec(&PaperModel::CnnCifar10.spec()).unwrap());
        let response = service
            .submit(EvalRequest::new(CrossLightConfig::paper_best(), workload).with_id(42))
            .unwrap();
        assert_eq!(response.id, 42);
        assert!(!response.cache_hit);
        assert_eq!(service.workers(), 2);
    }

    #[test]
    fn one_model_cache_serves_every_worker_and_the_caller() {
        let service = EvalService::new(RuntimeOptions::default().with_workers(4));
        // Warm the cache outside any batch…
        CrossLightSimulator::new(CrossLightConfig::paper_best())
            .prepare_with(&service.model_cache)
            .unwrap();
        let responses = service.submit_batch(paper_requests()).unwrap();
        assert_eq!(responses.len(), 16);
        let stats = service.stats();
        // Four paper variants → four prepared configurations, one of which
        // was prepared by the caller before the batch ran.
        assert_eq!(stats.prepared_configs, 4);
        assert!(service.model_cache.stats().hits > 0);
    }

    #[test]
    fn single_submits_match_serial_and_queue_depths_read_zero() {
        let service = EvalService::new(RuntimeOptions::default().with_workers(3));
        for request in paper_requests() {
            let serial = CrossLightSimulator::new(request.config().unwrap())
                .evaluate(&request.workload)
                .unwrap();
            assert_eq!(service.submit(request).unwrap().report, serial);
        }
        let stats = service.stats();
        assert_eq!(stats.submitted, 16);
        assert_eq!(stats.completed, 16);
        assert_eq!(stats.in_flight(), 0);
        // Nothing ever queues.
        assert_eq!(stats.queue_depths.len(), 3);
        assert!(stats.queue_depths.iter().all(|&d| d == 0));
    }

    /// The phases of a trace that started at `origin`, checked to tile its
    /// timeline up to `cursor`: each span starts where the previous one
    /// ended.
    fn tiled_phases(trace: &RequestTrace, origin: Instant, cursor: Instant) -> Vec<Phase> {
        let mut end = 0;
        for span in trace.spans() {
            assert_eq!(span.start_ns, end, "{:?} leaves a gap", span.phase);
            end = span.end_ns;
        }
        assert_eq!(end, cursor.duration_since(origin).as_nanos() as u64);
        trace.spans().iter().map(|span| span.phase).collect()
    }

    #[test]
    fn answers_count_and_trace_like_batches() {
        const WORKERS: u64 = 3;
        let options = RuntimeOptions::default().with_workers(WORKERS as usize);
        let service = EvalService::new(options);
        let requests = paper_requests();
        let batched = EvalService::new(options)
            .submit_batch(requests.clone())
            .unwrap();
        let keyed: Vec<KeyedRequest> = requests.iter().cloned().map(KeyedRequest::from).collect();

        // First pass: every answer is a miss evaluated on this thread, the
        // batch's response exactly.
        for (request, expected) in keyed.iter().zip(&batched) {
            let origin = Instant::now();
            let mut trace = RequestTrace::with_origin(0, origin);
            let mut cursor = origin;
            let answer = service
                .answer(request, Some((&mut trace, &mut cursor)), |_, _| {
                    unreachable!("a miss encodes nothing")
                })
                .unwrap();
            let Answer::Miss(response) = answer else {
                panic!("a cold key misses: {answer:?}");
            };
            assert_eq!(response, *expected);
            assert_eq!(
                tiled_phases(&trace, origin, cursor),
                [Phase::CacheLookup, Phase::Prepare, Phase::Evaluate]
            );
        }

        // Then hits: one encoding per entry, on its first hit.
        let mut encodings = 0;
        for _ in 0..2 {
            for (request, response) in keyed.iter().zip(&batched) {
                let origin = Instant::now();
                let mut trace = RequestTrace::with_origin(0, origin);
                let mut cursor = origin;
                let mut encoded_at = None;
                let answer = service
                    .answer(
                        request,
                        Some((&mut trace, &mut cursor)),
                        |report, worker| {
                            encodings += 1;
                            encoded_at = Some(Instant::now());
                            Arc::new(format!("{worker}/{}", report.metrics.fps))
                        },
                    )
                    .unwrap();
                let Answer::Hit(encoded) = answer else {
                    panic!("a warm key hits: {answer:?}");
                };
                // The cursor ends the `cache_lookup` span; a first hit's
                // encoding comes after it.
                assert!(encoded_at.is_none_or(|at| at >= cursor));
                let worker = request.key.fingerprint() % WORKERS;
                assert_eq!(worker, response.worker as u64);
                assert_eq!(
                    *encoded,
                    format!("{worker}/{}", response.report.metrics.fps)
                );
                assert_eq!(tiled_phases(&trace, origin, cursor), [Phase::CacheLookup]);
            }
        }
        assert_eq!(encodings, 16, "one encoding per entry");

        let stats = service.stats();
        assert_eq!((stats.submitted, stats.completed), (48, 48));
        assert_eq!((stats.cache_hits, stats.cache_misses), (32, 16));
        let mut per_worker = vec![0; WORKERS as usize];
        for request in &keyed {
            per_worker[(request.key.fingerprint() % WORKERS) as usize] += 3;
        }
        assert_eq!(stats.per_worker, per_worker);
        assert!(stats.queue_depths.iter().all(|&d| d == 0));

        let snapshot = service.telemetry_snapshot();
        let histogram_count = |name: &str| match snapshot.value(name) {
            Some(crosslight_telemetry::SeriesValue::Histogram(h)) => h.count(),
            other => panic!("{name}: unexpected {other:?}"),
        };
        assert_eq!(histogram_count("runtime_prepare_ns"), 16);
        assert_eq!(histogram_count("runtime_evaluate_ns"), 16);
        assert_eq!(histogram_count("runtime_queue_wait_ns"), 0);
        // The hit/miss lookup split matches the cache counters.
        let lookups = snapshot.family("runtime_cache_lookup_ns").unwrap();
        let by_outcome: Vec<(String, u64)> = lookups
            .series
            .iter()
            .map(|s| match &s.value {
                crosslight_telemetry::SeriesValue::Histogram(h) => {
                    (s.labels[0].1.clone(), h.count())
                }
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(by_outcome, [("hit".into(), 32), ("miss".into(), 16)]);
    }

    #[test]
    fn a_panicking_miss_is_an_evaluation_error_and_the_thread_lives_on() {
        let service = EvalService::new(RuntimeOptions::default().with_workers(2));
        let request = KeyedRequest::from(paper_requests().remove(0));
        PANIC_NEXT_MISS.set(true);
        let outcome = service.answer(&request, None, |_, _| unreachable!());
        assert!(
            matches!(&outcome, Err(RuntimeError::Panicked(message)) if message == "forced"),
            "{outcome:?}"
        );
        let panics = || match service
            .telemetry_snapshot()
            .value("runtime_worker_panics_total")
        {
            Some(crosslight_telemetry::SeriesValue::Counter(n)) => *n,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(panics(), 1);
        let stats = service.stats();
        assert_eq!((stats.submitted, stats.completed), (1, 1));
        assert_eq!(stats.cached_entries, 0, "a panicked miss caches nothing");

        // The next call on this thread evaluates the same key.
        let Answer::Miss(response) = service
            .answer(&request, None, |_, _| unreachable!())
            .unwrap()
        else {
            panic!("the key is still cold");
        };
        let serial = CrossLightSimulator::new(request.request.config().unwrap())
            .evaluate(&request.request.workload)
            .unwrap();
        assert_eq!(response.report, serial);
        assert_eq!(panics(), 1);
        let stats = service.stats();
        assert_eq!((stats.submitted, stats.completed), (2, 2));
    }

    #[test]
    fn zoo_requests_are_served_identically_to_direct_simulation() {
        let workload =
            Arc::new(NetworkWorkload::from_spec(&PaperModel::CnnCifar10.spec()).unwrap());
        let requests: Vec<EvalRequest> = ArchSpec::zoo_defaults()
            .iter()
            .map(|spec| EvalRequest::for_arch(*spec, Arc::clone(&workload)))
            .collect();
        let direct: Vec<_> = ArchSpec::zoo_defaults()
            .iter()
            .map(|spec| spec.simulate(&workload).unwrap())
            .collect();
        for workers in [1, 3] {
            let service = EvalService::new(RuntimeOptions::default().with_workers(workers));
            let responses = service.submit_batch(requests.clone()).unwrap();
            assert_eq!(responses.len(), direct.len());
            for (response, expected) in responses.iter().zip(&direct) {
                assert_eq!(response.report, *expected);
                assert!(!response.cache_hit);
            }
            // A replay of the mixed-architecture batch is all cache hits.
            let again = service.submit_batch(requests.clone()).unwrap();
            assert!(again.iter().all(|r| r.cache_hit));
            service.shutdown();
        }
    }

    #[test]
    fn stats_order_keeps_submitted_ahead_of_completed_under_load() {
        let service = Arc::new(EvalService::new(RuntimeOptions::default().with_workers(2)));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let submitter = {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let workload = Arc::new(
                    NetworkWorkload::from_spec(&PaperModel::Lenet5SignMnist.spec()).unwrap(),
                );
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let batch: Vec<EvalRequest> = (0..8)
                        .map(|_| {
                            EvalRequest::new(CrossLightConfig::paper_best(), Arc::clone(&workload))
                        })
                        .collect();
                    service.submit_batch(batch).unwrap();
                }
            })
        };
        for _ in 0..2_000 {
            let stats = service.stats();
            assert!(
                stats.submitted >= stats.completed,
                "snapshot went backwards: {} submitted < {} completed",
                stats.submitted,
                stats.completed
            );
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        submitter.join().unwrap();
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        let service = EvalService::new(RuntimeOptions { workers: 0 });
        assert_eq!(service.workers(), 1);
        let workload = Arc::new(NetworkWorkload::from_spec(&PaperModel::CnnStl10.spec()).unwrap());
        let response = service
            .submit(EvalRequest::new(CrossLightConfig::paper_best(), workload))
            .unwrap();
        assert_eq!(response.worker, 0);
    }
}
