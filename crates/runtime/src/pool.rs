//! The sharded worker pool behind the evaluation service, and the answer
//! path that needs no worker.
//!
//! [`EvalService`] owns `N` OS threads, each with its own job channel.
//! [`EvalService::submit_batch`] routes each request to a worker by the
//! platform-stable fingerprint of its cache key, so identical requests
//! always land on the same worker — within one batch the first occurrence
//! computes and every later duplicate is a cache hit, never a redundant
//! recomputation racing on another thread.  [`EvalService::submit`] is a
//! one-request batch.
//!
//! [`EvalService::answer`] serves one request on the calling thread
//! instead; the network front-end's event loops answer every eval through
//! it.  A hit returns the caller's encoding memoized on the cache entry, a
//! miss is prepared, evaluated and cached right there, and either counts
//! as the worker its key routes to would, so answers and counters read the
//! same as the pool's.
//!
//! Two memoization layers serve the hot loop:
//!
//! 1. a pool-wide [`ShardedCache`] of finished `(config, workload)` reports,
//!    bounded by a byte budget;
//! 2. a pool-wide [`ModelCache`] of the workload-independent analytical
//!    models (per-unit power reports, prepared simulators, resolutions), so a
//!    report-cache miss for a configuration *or sub-configuration* any worker
//!    has seen only recomputes the per-workload inference metrics.  The cache
//!    is shared across workers — and can be shared with callers via
//!    [`EvalService::with_model_cache`] — so batched evaluation, serial
//!    sweeps and parallel sweeps all draw from one set of memoized models.
//!
//! Both layers are transparent: the simulator is deterministic, so responses
//! are bit-identical to serial `CrossLightSimulator::evaluate` calls
//! regardless of worker count, batch partitioning, or hit pattern.

use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
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

/// Independent shards of the result cache.
const CACHE_SHARDS: usize = 16;

/// Tuning knobs of the evaluation service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeOptions {
    /// Number of worker threads (clamped to at least 1).
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
    /// Configurations whose prepared simulator the pool-wide
    /// [`ModelCache`]'s bounded memo currently holds.
    pub prepared_configs: usize,
    /// Requests handled by each worker, indexed by worker id.
    pub per_worker: Vec<u64>,
    /// Jobs dispatched to each worker's channel but not yet picked up,
    /// indexed by worker id (a gauge, so the network front-end can report
    /// backlog per shard).
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

/// One request of a [`EvalService::submit_batch`] on its way to a worker,
/// with its position in the batch and the channel its outcome goes back on.
struct Job {
    index: usize,
    key: CacheKey,
    request: EvalRequest,
    reply: Sender<(usize, Result<EvalResponse>)>,
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
    queued: Vec<Gauge>,
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
        let mut queued = Vec::with_capacity(workers);
        for worker in 0..workers {
            let label = worker.to_string();
            per_worker.push(registry.counter_with(
                "runtime_worker_completed_total",
                "Requests answered by each worker.",
                &[("worker", &label)],
            ));
            queued.push(registry.gauge_with(
                "runtime_queue_depth",
                "Jobs dispatched to each worker's channel but not yet picked up.",
                &[("worker", &label)],
            ));
            registry.counter_with(
                "runtime_worker_busy_ns_total",
                "Nanoseconds each worker spent serving traced requests (always \
                 zero: only `EvalService::answer` traces, and it needs no worker).",
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
            .gauge("runtime_workers", "Number of worker threads.")
            .set(workers as i64);
        registry.histogram(
            "runtime_queue_wait_ns",
            "Time traced requests spent waiting in a worker's queue (always \
             empty: only `EvalService::answer` traces, and it queues nothing).",
        );
        Self {
            submitted: registry.counter("runtime_submitted_total", "Requests accepted."),
            completed: registry.counter("runtime_completed_total", "Requests fully answered."),
            panics: registry.counter(
                "runtime_worker_panics_total",
                "Evaluations that panicked, each answered with an evaluation error.",
            ),
            per_worker,
            queued,
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
    senders: Vec<Sender<Vec<Job>>>,
    handles: Vec<JoinHandle<()>>,
    cache: Arc<ShardedCache>,
    model_cache: Arc<ModelCache>,
    telemetry: Arc<Telemetry>,
}

impl EvalService {
    /// Spawns the worker pool with a fresh pool-wide [`ModelCache`].
    #[must_use]
    pub fn new(options: RuntimeOptions) -> Self {
        Self::with_model_cache(options, Arc::new(ModelCache::new()))
    }

    /// Spawns the worker pool around an existing [`ModelCache`], so batched
    /// evaluation shares memoized analytical models with work done outside
    /// the pool (a warm-up sweep, a sibling pool, a serial pre-pass).
    #[must_use]
    pub fn with_model_cache(options: RuntimeOptions, model_cache: Arc<ModelCache>) -> Self {
        let workers = options.workers.max(1);
        let cache = Arc::new(ShardedCache::new(CACHE_SHARDS));
        let telemetry = Arc::new(Telemetry::new(workers, &cache));
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for worker in 0..workers {
            let (tx, rx) = mpsc::channel::<Vec<Job>>();
            let cache = Arc::clone(&cache);
            let models = Arc::clone(&model_cache);
            let telemetry = Arc::clone(&telemetry);
            let handle = std::thread::Builder::new()
                .name(format!("crosslight-runtime-{worker}"))
                .spawn(move || worker_loop(worker, &rx, &cache, &models, &telemetry))
                .expect("spawning a runtime worker thread succeeds");
            senders.push(tx);
            handles.push(handle);
        }
        Self {
            senders,
            handles,
            cache,
            model_cache,
            telemetry,
        }
    }

    /// The pool-wide cache of workload-independent analytical models.
    #[must_use]
    pub fn model_cache(&self) -> &Arc<ModelCache> {
        &self.model_cache
    }

    /// The pool-wide memoized result cache.  Exposed so serving layers can
    /// snapshot it for warm-state handoff and restore a transported
    /// snapshot into a freshly started service.
    #[must_use]
    pub fn result_cache(&self) -> &Arc<ShardedCache> {
        &self.cache
    }

    /// Number of workers: the pool's threads, and the worker ids answers
    /// name.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.telemetry.per_worker.len()
    }

    /// Evaluates one request (sugar for a one-element batch).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors; [`RuntimeError::WorkerLost`] if the
    /// pool's threads died.
    pub fn submit(&self, request: EvalRequest) -> Result<EvalResponse> {
        let mut responses = self.submit_batch(vec![request])?;
        responses.pop().ok_or(RuntimeError::WorkerLost)
    }

    /// Fans a batch across the workers and returns the responses in request
    /// order.  Jobs are grouped by target worker, so each worker is woken
    /// by one channel send per batch.  Results are bit-identical to
    /// evaluating each request serially with
    /// [`CrossLightSimulator::evaluate`], for any worker count and any
    /// partitioning of the stream into batches.
    ///
    /// # Errors
    ///
    /// Returns the first evaluation error, or
    /// [`RuntimeError::WorkerLost`] if the pool was shut down or a worker
    /// thread died mid-batch.
    pub fn submit_batch(&self, requests: Vec<EvalRequest>) -> Result<Vec<EvalResponse>> {
        let expected = requests.len();
        let (reply_tx, reply_rx) = mpsc::channel();
        let mut groups: Vec<Vec<Job>> = self.senders.iter().map(|_| Vec::new()).collect();
        for (index, request) in requests.into_iter().enumerate() {
            let KeyedRequest { request, key } = request.into();
            let worker = (key.fingerprint() % self.workers() as u64) as usize;
            // A shut-down pool has no group to take the job; dropping it
            // leaves its index unanswered.
            if let Some(group) = groups.get_mut(worker) {
                group.push(Job {
                    index,
                    key,
                    request,
                    reply: reply_tx.clone(),
                });
            }
        }
        drop(reply_tx);
        for (worker, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let n = group.len();
            self.telemetry.submitted.add(n as u64);
            self.telemetry.queued[worker].add(n as i64);
            if self.senders[worker].send(group).is_err() {
                // The group never reached the worker: roll the counters
                // back so the gauges cannot drift on a dying pool.
                self.telemetry.queued[worker].sub(n as i64);
                self.telemetry.submitted.sub(n as u64);
            }
        }

        let mut responses: Vec<Option<EvalResponse>> = vec![None; expected];
        let mut received = 0;
        while let Ok((index, outcome)) = reply_rx.recv() {
            responses[index] = Some(outcome?);
            received += 1;
        }
        if received != expected {
            return Err(RuntimeError::WorkerLost);
        }
        Ok(responses
            .into_iter()
            .map(|r| r.expect("every index answered exactly once"))
            .collect())
    }

    /// Answers `request` on the calling thread, with no worker involved.
    ///
    /// A hit returns the caller's encoding of the report: `encode` makes
    /// it from the report and the worker the key routes to
    /// (`fingerprint % workers`) on the entry's first hit here, and the
    /// entry keeps it for every later one while the cache's memo budget
    /// lasts (past it, a hit on an entry without one is encoded afresh).
    /// A miss is prepared, evaluated and cached here, with the code a
    /// worker runs; a panic in it is answered with
    /// [`RuntimeError::Panicked`] and counted in
    /// `runtime_worker_panics_total`, and the calling thread lives on.
    ///
    /// Either counts exactly as the worker the key routes to would: one
    /// cache hit or miss, one `per_worker` request, and `submitted` before
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
        let telemetry = &*self.telemetry;
        let cached = self.cache.get_inline(&request.key);
        let lookup_ns = match cached {
            Some(_) => &telemetry.cache_lookup_hit_ns,
            None => &telemetry.cache_lookup_miss_ns,
        };
        close_span(&mut trace, Phase::CacheLookup, lookup_ns);
        telemetry.submitted.inc();
        let worker = (request.key.fingerprint() % self.workers() as u64) as usize;
        let answer = match cached {
            Some(Cached::Encoded(encoded)) => Ok(Answer::Hit(encoded)),
            Some(Cached::Report(report)) => {
                let encoded = encode(&report, worker);
                self.cache.memoize(&request.key, &encoded);
                Ok(Answer::Hit(encoded))
            }
            None => evaluate_miss(
                &request.request,
                &request.key,
                &self.cache,
                &self.model_cache,
                telemetry,
                trace,
            )
            .map(|report| {
                Answer::Miss(EvalResponse {
                    id: request.request.id,
                    report,
                    cache_hit: false,
                    worker,
                })
            }),
        };
        telemetry.per_worker[worker].inc();
        telemetry.completed.inc();
        answer
    }

    /// Snapshot of the service counters.
    ///
    /// The snapshot is *ordered*: `completed` is read before `submitted`.
    /// A request increments `completed` only after its `submitted`
    /// increment (program order on the submitting thread, then the job
    /// channel's happens-before edge to the worker), and counter reads are
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
            queue_depths: self
                .telemetry
                .queued
                .iter()
                .map(|gauge| gauge.get().max(0) as u64)
                .collect(),
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

    /// Stops the workers and waits for them to exit.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for EvalService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn worker_loop(
    worker: usize,
    jobs: &Receiver<Vec<Job>>,
    cache: &ShardedCache,
    models: &ModelCache,
    telemetry: &Telemetry,
) {
    while let Ok(group) = jobs.recv() {
        for Job {
            index,
            key,
            request,
            reply,
        } in group
        {
            telemetry.queued[worker].sub(1);
            let outcome = match cache.get(&key) {
                Some(report) => Ok((report, true)),
                None => evaluate_miss(&request, &key, cache, models, telemetry, None)
                    .map(|report| (report, false)),
            };
            telemetry.per_worker[worker].inc();
            telemetry.completed.inc();
            // A send error means the batch's collector already returned on
            // an earlier error.
            let _ = reply.send((
                index,
                outcome.map(|(report, cache_hit)| EvalResponse {
                    id: request.id,
                    report,
                    cache_hit,
                    worker,
                }),
            ));
        }
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

/// The work of a result-cache miss, on a worker or on the caller's thread:
/// prepares and evaluates the request and caches its report.  It runs under
/// `catch_unwind`, and no lock is held across simulator code, so a panic
/// poisons nothing: it is counted and answered with
/// [`RuntimeError::Panicked`].  `trace` gets the spans
/// [`EvalService::answer`] documents.
fn evaluate_miss(
    request: &EvalRequest,
    key: &CacheKey,
    cache: &ShardedCache,
    models: &ModelCache,
    telemetry: &Telemetry,
    mut trace: Option<(&mut RequestTrace, &mut Instant)>,
) -> Result<SimulationReport> {
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| -> Result<SimulationReport> {
        panic_if_armed();
        let report = match request.arch {
            // The pool-wide ModelCache shares the workload-independent
            // breakdowns (and their sub-config unit reports) across every
            // caller, so only the per-workload inference metrics remain
            // per-request work.
            ArchSpec::CrossLight(config) => {
                let prepared = CrossLightSimulator::new(config).prepare_with(models)?;
                close_span(&mut trace, Phase::Prepare, &telemetry.prepare_ns);
                prepared.evaluate(&request.workload)?
            }
            // The zoo backends are closed-form analytical models; their
            // workload-independent parts are cheap enough that the result
            // cache alone carries the memoization.
            spec => spec.simulate(&request.workload)?,
        };
        cache.insert(key.clone(), report);
        close_span(&mut trace, Phase::Evaluate, &telemetry.evaluate_ns);
        Ok(report)
    }));
    outcome.unwrap_or_else(|payload| {
        telemetry.panics.inc();
        Err(RuntimeError::Panicked(panic_message(payload.as_ref())))
    })
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
        let service = EvalService::new(RuntimeOptions::default().with_workers(3));
        let workload =
            Arc::new(NetworkWorkload::from_spec(&PaperModel::Lenet5SignMnist.spec()).unwrap());
        let request = EvalRequest::new(CrossLightConfig::paper_best(), workload);
        let responses = service
            .submit_batch(vec![request.clone(), request.clone(), request])
            .unwrap();
        // Key-sharded dispatch serializes identical requests on one worker,
        // so exactly one response computed and two hit.
        let hits = responses.iter().filter(|r| r.cache_hit).count();
        assert_eq!(hits, 2);
        assert_eq!(responses[0].report, responses[1].report);
        assert_eq!(responses[1].report, responses[2].report);
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
    fn pool_shares_one_model_cache_across_workers_and_callers() {
        let models = Arc::new(ModelCache::new());
        // Warm the cache outside the pool…
        CrossLightSimulator::new(CrossLightConfig::paper_best())
            .prepare_with(&models)
            .unwrap();
        let service =
            EvalService::with_model_cache(RuntimeOptions::default().with_workers(4), models);
        let responses = service.submit_batch(paper_requests()).unwrap();
        assert_eq!(responses.len(), 16);
        let stats = service.stats();
        // Four paper variants → four prepared configurations, one of which
        // was prepared by the caller before the pool ever ran.
        assert_eq!(stats.prepared_configs, 4);
        assert!(service.model_cache().stats().hits > 0);
    }

    #[test]
    fn one_item_batches_match_serial_and_settle_queue_gauges() {
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
        // Once every answer has been received, no job is waiting anywhere.
        assert_eq!(stats.queue_depths.len(), 3);
        assert!(stats.queue_depths.iter().all(|&d| d == 0));
    }

    #[test]
    fn a_shut_down_pool_answers_every_batch_with_worker_lost() {
        let mut service = EvalService::new(RuntimeOptions::default().with_workers(2));
        service.shutdown_in_place();
        let request = paper_requests().remove(0);
        assert_eq!(
            service.submit_batch(vec![request.clone(); 3]),
            Err(RuntimeError::WorkerLost)
        );
        assert_eq!(service.submit(request), Err(RuntimeError::WorkerLost));
        let stats = service.stats();
        assert_eq!(stats.submitted, 0);
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
    fn answers_count_and_trace_like_the_pool() {
        const WORKERS: u64 = 3;
        let options = RuntimeOptions::default().with_workers(WORKERS as usize);
        let service = EvalService::new(options);
        let requests = paper_requests();
        let pool = EvalService::new(options)
            .submit_batch(requests.clone())
            .unwrap();
        let keyed: Vec<KeyedRequest> = requests.iter().cloned().map(KeyedRequest::from).collect();

        // First pass: every answer is a miss evaluated on this thread, the
        // pool's response exactly.
        for (request, expected) in keyed.iter().zip(&pool) {
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
            for (request, response) in keyed.iter().zip(&pool) {
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
