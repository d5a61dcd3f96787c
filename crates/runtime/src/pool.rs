//! The sharded worker pool behind the evaluation service.
//!
//! [`EvalService`] owns `N` OS threads, each with its own job channel.
//! Requests are dispatched to workers by the platform-stable fingerprint of
//! their cache key, so identical requests always land on the same worker —
//! within one batch the first occurrence computes and every later duplicate
//! is a cache hit, never a redundant recomputation racing on another thread.
//!
//! There is one routing path, [`EvalService::submit_detached_batch`]: every
//! [`BatchItem`] carries its own [`Reply`], called exactly once with the
//! outcome.  [`EvalService::submit`] and [`EvalService::submit_batch`] are
//! collectors over it, and the network front-end hands it each event-loop
//! wake's admitted evals.  Before that, the front-end offers each eval to
//! [`EvalService::answer_cached`], which answers a result-cache hit on the
//! calling thread and counts it as the worker its key routes to would.
//!
//! Two memoization layers serve the hot loop:
//!
//! 1. a pool-wide [`ShardedCache`] of finished `(config, workload)` reports;
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

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
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
    /// Requests that reached a worker's queue, by any submission method.
    pub submitted: u64,
    /// Requests fully answered.
    pub completed: u64,
    /// Responses served from the result cache.
    pub cache_hits: u64,
    /// Responses that required a fresh evaluation.
    pub cache_misses: u64,
    /// Distinct `(config, workload)` reports currently cached.
    pub cached_entries: usize,
    /// Distinct configurations whose workload-independent models are
    /// memoized in the pool-wide [`ModelCache`].
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

/// A shared cancellation flag travelling with detached submissions.
///
/// Cancellation is *advisory and queue-level*: a worker checks the token
/// once, at pickup.  A cancelled job is answered with
/// [`RuntimeError::Cancelled`] instead of being evaluated — the hook the
/// network front-end uses to stop burning worker time on requests whose
/// connection already died.  A job that a worker already started is never
/// interrupted (evaluations are short and side-effect-free), so results
/// remain bit-identical whether or not a token races the worker.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Flags every job carrying this token for cancellation.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether the token has been cancelled.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Where one request's outcome goes: called exactly once, on the worker
/// that served it, or on the submitting thread with
/// [`RuntimeError::WorkerLost`] when no worker can take it.
pub type Reply = Box<dyn FnOnce(Result<EvalResponse>) + Send>;

struct Job {
    key: CacheKey,
    request: EvalRequest,
    /// Present only for sampled requests; untraced jobs pay one `None`.
    trace: Option<Box<TracedJob>>,
    cancel: Option<CancelToken>,
    reply: Reply,
}

/// One request of a [`EvalService::submit_detached_batch`] submission.
pub struct BatchItem {
    /// The evaluation to run, with its cache key (`request.into()` hashes
    /// a plain [`EvalRequest`]).
    pub request: KeyedRequest,
    /// Caller-built trace: the worker closes its queue, cache-lookup,
    /// prepare and evaluate spans on it (also feeding the runtime phase
    /// histograms) and hands it back on the response's `trace` field.
    pub trace: Option<Box<RequestTrace>>,
    /// Advisory cancellation token, checked once at pickup.
    pub cancel: Option<CancelToken>,
    /// Receives the outcome.
    pub reply: Reply,
}

impl fmt::Debug for BatchItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BatchItem")
            .field("request", &self.request)
            .field("trace", &self.trace)
            .field("cancel", &self.cancel)
            .finish_non_exhaustive()
    }
}

/// A trace travelling with a job, plus the enqueue instant the worker needs
/// to close the queue-wait span.
struct TracedJob {
    trace: RequestTrace,
    enqueued: Instant,
}

/// The service's metric handles, registered once at construction; the hot
/// paths touch only the lock-free handles, never the registry.
#[derive(Debug)]
struct Telemetry {
    registry: Arc<Registry>,
    submitted: Counter,
    completed: Counter,
    cancelled: Counter,
    per_worker: Vec<Counter>,
    queued: Vec<Gauge>,
    worker_busy_ns: Vec<Counter>,
    queue_wait_ns: Histogram,
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
        let mut worker_busy_ns = Vec::with_capacity(workers);
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
            worker_busy_ns.push(registry.counter_with(
                "runtime_worker_busy_ns_total",
                "Nanoseconds each worker spent serving traced requests.",
                &[("worker", &label)],
            ));
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
                "Result-cache evictions (always zero: the cache is unbounded today).",
                &[],
                cache.eviction_counter(),
            )
            .expect("static metric registration is infallible");
        registry
            .gauge("runtime_workers", "Number of worker threads.")
            .set(workers as i64);
        Self {
            submitted: registry.counter(
                "runtime_submitted_total",
                "Requests that reached a worker's queue.",
            ),
            completed: registry.counter("runtime_completed_total", "Requests fully answered."),
            cancelled: registry.counter(
                "runtime_cancelled_total",
                "Jobs answered with Cancelled because their token fired before pickup.",
            ),
            per_worker,
            queued,
            worker_busy_ns,
            queue_wait_ns: registry.histogram(
                "runtime_queue_wait_ns",
                "Time traced requests spent waiting in a worker's queue.",
            ),
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
                "Simulator evaluation time for traced cache misses.",
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
                "Distinct configurations with memoized analytical models.",
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

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.senders.len()
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
    /// order.  Results are bit-identical to evaluating each request serially
    /// with [`CrossLightSimulator::evaluate`], for any worker count and any
    /// partitioning of the stream into batches.
    ///
    /// # Errors
    ///
    /// Returns the first evaluation error, or
    /// [`RuntimeError::WorkerLost`] if a worker thread died mid-batch.
    pub fn submit_batch(&self, requests: Vec<EvalRequest>) -> Result<Vec<EvalResponse>> {
        let expected = requests.len();
        let (reply_tx, reply_rx) = mpsc::channel();
        let items = requests
            .into_iter()
            .enumerate()
            .map(|(index, request)| {
                let reply_tx = reply_tx.clone();
                BatchItem {
                    trace: None,
                    request: request.into(),
                    cancel: None,
                    // A send error means this collector already returned on
                    // an earlier error; the answer has nowhere to go.
                    reply: Box::new(move |outcome| {
                        let _ = reply_tx.send((index, outcome));
                    }),
                }
            })
            .collect();
        drop(reply_tx);
        self.submit_detached_batch(items);

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

    /// Routes a batch of requests to their fingerprint-sharded workers
    /// without waiting for the answers: the service's one routing path.
    /// Jobs are grouped by target worker, so each worker is woken by a
    /// single channel send per call however many items it serves.  Routing,
    /// caching, tracing and counters do not depend on how a request stream
    /// is cut into calls, so responses are bit-identical for any
    /// partitioning.
    ///
    /// Every item's [`Reply`] is called exactly once: by its worker (with
    /// [`RuntimeError::Cancelled`] if the item's token fired before
    /// pickup), or — when the pool is shut down or a worker died — right
    /// here with [`RuntimeError::WorkerLost`].  Returns the number of items
    /// that reached a live worker's queue.
    pub fn submit_detached_batch(&self, items: Vec<BatchItem>) -> usize {
        let workers = self.senders.len();
        if workers == 0 {
            // The pool has been shut down in place.
            for item in items {
                (item.reply)(Err(RuntimeError::WorkerLost));
            }
            return 0;
        }
        let mut groups: Vec<Vec<Job>> = (0..workers).map(|_| Vec::new()).collect();
        for item in items {
            let KeyedRequest { request, key } = item.request;
            let worker = (key.fingerprint() % workers as u64) as usize;
            groups[worker].push(Job {
                key,
                request,
                trace: item.trace.map(|trace| {
                    Box::new(TracedJob {
                        trace: *trace,
                        enqueued: Instant::now(),
                    })
                }),
                cancel: item.cancel,
                reply: item.reply,
            });
        }
        let mut enqueued = 0;
        for (worker, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let n = group.len();
            self.telemetry.submitted.add(n as u64);
            self.telemetry.queued[worker].add(n as i64);
            match self.senders[worker].send(group) {
                Ok(()) => enqueued += n,
                Err(mpsc::SendError(jobs)) => {
                    // The group never reached the worker: roll the counters
                    // back so the gauges cannot drift on a dying pool, and
                    // answer each job so the caller's accounting settles.
                    self.telemetry.queued[worker].sub(n as i64);
                    self.telemetry.submitted.sub(n as u64);
                    for job in jobs {
                        (job.reply)(Err(RuntimeError::WorkerLost));
                    }
                }
            }
        }
        enqueued
    }

    /// Answers `request` from the result cache on the calling thread when
    /// it is cached.  `None` leaves it to
    /// [`EvalService::submit_detached_batch`], which reuses its key.
    ///
    /// A hit returns the caller's encoding of the report: `encode` makes
    /// it from the report and the worker the key routes to
    /// (`fingerprint % workers`) on the entry's first inline hit, and the
    /// entry keeps it for every later one while the cache's memo budget
    /// lasts (past it, a hit on an entry without one is encoded afresh).
    /// The hit counts exactly as that worker serving it would: one cache
    /// hit, one `per_worker` request, and `submitted` before `completed`,
    /// which [`EvalService::stats`]'s ordered read needs.  The probe never
    /// counts a miss; the worker that serves a miss counts its own lookup.
    /// A shut-down pool answers nothing here, so the request meets
    /// `WorkerLost` on the normal path.
    ///
    /// `trace` is a sampled request's timeline and its phase cursor: a hit
    /// records its `cache_lookup` span from the cursor to the end of the
    /// probe, moves the cursor there, and feeds
    /// `runtime_cache_lookup_ns{outcome="hit"}`.  A first hit's `encode`
    /// runs after that, so the caller's next span carries it.  A miss
    /// records nothing.
    pub fn answer_cached(
        &self,
        request: &KeyedRequest,
        trace: Option<(&mut RequestTrace, &mut Instant)>,
        encode: impl FnOnce(&SimulationReport, usize) -> Arc<String>,
    ) -> Option<Arc<String>> {
        let workers = self.senders.len();
        if workers == 0 {
            return None;
        }
        let cached = self.cache.get_inline(&request.key)?;
        if let Some((trace, cursor)) = trace {
            let end = Instant::now();
            self.telemetry
                .cache_lookup_hit_ns
                .record(end.saturating_duration_since(*cursor).as_nanos() as u64);
            trace.record(Phase::CacheLookup, *cursor, end);
            *cursor = end;
        }
        let worker = (request.key.fingerprint() % workers as u64) as usize;
        let encoded = match cached {
            Cached::Encoded(encoded) => encoded,
            Cached::Report(report) => {
                let encoded = encode(&report, worker);
                self.cache.memoize(&request.key, &encoded);
                encoded
            }
        };
        let telemetry = &self.telemetry;
        telemetry.submitted.inc();
        telemetry.per_worker[worker].inc();
        telemetry.completed.inc();
        Some(encoded)
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
        for job in group {
            run_job(worker, job, cache, models, telemetry);
        }
    }
}

fn run_job(
    worker: usize,
    mut job: Job,
    cache: &ShardedCache,
    models: &ModelCache,
    telemetry: &Telemetry,
) {
    telemetry.queued[worker].sub(1);
    // Cancellation is checked exactly once, at pickup: queued work for
    // a peer that already vanished is skipped without touching the
    // simulator, and the (cheap) answer still flows through the job's
    // reply so completion accounting stays exact.
    if job.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
        telemetry.cancelled.inc();
        telemetry.per_worker[worker].inc();
        telemetry.completed.inc();
        (job.reply)(Err(RuntimeError::Cancelled));
        return;
    }
    // Untraced jobs never read the clock: the trace check is the only
    // per-job overhead on the hot path.
    let picked_up = job.trace.as_ref().map(|_| Instant::now());
    if let (Some(traced), Some(now)) = (job.trace.as_mut(), picked_up) {
        telemetry
            .queue_wait_ns
            .record(now.saturating_duration_since(traced.enqueued).as_nanos() as u64);
        traced.trace.record(Phase::Queue, traced.enqueued, now);
    }
    let outcome = serve(worker, &mut job, cache, models, telemetry);
    if let Some(picked_up) = picked_up {
        telemetry.worker_busy_ns[worker].add(picked_up.elapsed().as_nanos() as u64);
    }
    telemetry.per_worker[worker].inc();
    telemetry.completed.inc();
    (job.reply)(outcome);
}

/// Moves the finished trace out of the job and into the response.
fn take_trace(job: &mut Job) -> Option<Box<RequestTrace>> {
    job.trace.take().map(|traced| Box::new(traced.trace))
}

fn serve(
    worker: usize,
    job: &mut Job,
    cache: &ShardedCache,
    models: &ModelCache,
    telemetry: &Telemetry,
) -> Result<EvalResponse> {
    let lookup_start = job.trace.as_ref().map(|_| Instant::now());
    let cached = cache.get(&job.key);
    if let Some(start) = lookup_start {
        let end = Instant::now();
        let lookup_ns = end.saturating_duration_since(start).as_nanos() as u64;
        if cached.is_some() {
            telemetry.cache_lookup_hit_ns.record(lookup_ns);
        } else {
            telemetry.cache_lookup_miss_ns.record(lookup_ns);
        }
        if let Some(traced) = job.trace.as_mut() {
            traced.trace.record(Phase::CacheLookup, start, end);
        }
    }
    if let Some(report) = cached {
        return Ok(EvalResponse {
            id: job.request.id,
            report,
            cache_hit: true,
            worker,
            trace: take_trace(job),
        });
    }
    let report = match job.request.arch {
        // The pool-wide ModelCache shares the workload-independent breakdowns
        // (and their sub-config unit reports) across all workers, so only the
        // per-workload inference metrics remain per-request work.
        ArchSpec::CrossLight(config) => {
            let prepare_start = job.trace.as_ref().map(|_| Instant::now());
            let prepared = CrossLightSimulator::new(config).prepare_with(models)?;
            let evaluate_start = prepare_start.map(|start| {
                let end = Instant::now();
                telemetry
                    .prepare_ns
                    .record(end.saturating_duration_since(start).as_nanos() as u64);
                if let Some(traced) = job.trace.as_mut() {
                    traced.trace.record(Phase::Prepare, start, end);
                }
                end
            });
            let report = prepared.evaluate(&job.request.workload)?;
            if let Some(start) = evaluate_start {
                let end = Instant::now();
                telemetry
                    .evaluate_ns
                    .record(end.saturating_duration_since(start).as_nanos() as u64);
                if let Some(traced) = job.trace.as_mut() {
                    traced.trace.record(Phase::Evaluate, start, end);
                }
            }
            report
        }
        // The zoo backends are closed-form analytical models; their
        // workload-independent parts are cheap enough that the result cache
        // alone carries the memoization.
        spec => {
            let evaluate_start = job.trace.as_ref().map(|_| Instant::now());
            let report = spec.simulate(&job.request.workload)?;
            if let Some(start) = evaluate_start {
                let end = Instant::now();
                telemetry
                    .evaluate_ns
                    .record(end.saturating_duration_since(start).as_nanos() as u64);
                if let Some(traced) = job.trace.as_mut() {
                    traced.trace.record(Phase::Evaluate, start, end);
                }
            }
            report
        }
    };
    cache.insert(job.key.clone(), report);
    Ok(EvalResponse {
        id: job.request.id,
        report,
        cache_hit: false,
        worker,
        trace: take_trace(job),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crosslight_core::config::CrossLightConfig;
    use crosslight_core::variants::CrossLightVariant;
    use crosslight_neural::workload::NetworkWorkload;
    use crosslight_neural::zoo::PaperModel;

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

    /// A batch item whose reply sends `(tag, outcome)` on `tx`.
    fn tagged(
        tag: u64,
        request: EvalRequest,
        tx: &Sender<(u64, Result<EvalResponse>)>,
    ) -> BatchItem {
        let tx = tx.clone();
        BatchItem {
            request: request.into(),
            trace: None,
            cancel: None,
            reply: Box::new(move |outcome| {
                let _ = tx.send((tag, outcome));
            }),
        }
    }

    #[test]
    fn one_item_detached_submissions_match_serial_and_settle_queue_gauges() {
        let service = EvalService::new(RuntimeOptions::default().with_workers(3));
        let requests = paper_requests();
        let serial: Vec<_> = requests
            .iter()
            .map(|r| {
                CrossLightSimulator::new(r.config().unwrap())
                    .evaluate(&r.workload)
                    .unwrap()
            })
            .collect();
        let (reply_tx, reply_rx) = mpsc::channel();
        for (i, request) in requests.into_iter().enumerate() {
            let item = tagged(1_000 + i as u64, request, &reply_tx);
            assert_eq!(service.submit_detached_batch(vec![item]), 1);
        }
        drop(reply_tx);
        let mut answered = 0;
        while let Ok((tag, outcome)) = reply_rx.recv() {
            let index = (tag - 1_000) as usize;
            assert_eq!(outcome.unwrap().report, serial[index]);
            answered += 1;
        }
        assert_eq!(answered, serial.len());
        let stats = service.stats();
        assert_eq!(stats.submitted, 16);
        assert_eq!(stats.completed, 16);
        assert_eq!(stats.in_flight(), 0);
        // Once every reply has been received, no job is waiting anywhere.
        assert_eq!(stats.queue_depths.len(), 3);
        assert!(stats.queue_depths.iter().all(|&d| d == 0));
    }

    #[test]
    fn detached_batches_match_serial_and_carry_their_traces() {
        let requests = paper_requests();
        let serial: Vec<_> = requests
            .iter()
            .map(|r| {
                CrossLightSimulator::new(r.config().unwrap())
                    .evaluate(&r.workload)
                    .unwrap()
            })
            .collect();
        for workers in [1, 3] {
            let service = EvalService::new(RuntimeOptions::default().with_workers(workers));
            let (reply_tx, reply_rx) = mpsc::channel();
            let items: Vec<BatchItem> = requests
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, request)| BatchItem {
                    trace: Some(Box::new(RequestTrace::new(i as u64))),
                    cancel: Some(CancelToken::new()),
                    ..tagged(i as u64, request, &reply_tx)
                })
                .collect();
            let enqueued = service.submit_detached_batch(items);
            assert_eq!(enqueued, requests.len());
            drop(reply_tx);
            let mut answered: Vec<Option<EvalResponse>> = vec![None; requests.len()];
            while let Ok((tag, outcome)) = reply_rx.recv() {
                let previous = answered[tag as usize].replace(outcome.unwrap());
                assert!(previous.is_none(), "tag {tag} answered twice");
            }
            for (response, expected) in answered.iter().zip(&serial) {
                let response = response.as_ref().expect("every tag answered");
                assert_eq!(response.report, *expected);
                // The worker closed the queue-wait span on the carried trace.
                let trace = response.trace.as_ref().expect("trace travels with job");
                assert!(trace.phase_ns(Phase::Queue).is_some());
            }
            let stats = service.stats();
            assert_eq!(stats.submitted, 16);
            assert_eq!(stats.completed, 16);
            assert!(stats.queue_depths.iter().all(|&d| d == 0));
            service.shutdown();
        }
    }

    #[test]
    fn a_shut_down_pool_answers_every_item_with_worker_lost() {
        let mut service = EvalService::new(RuntimeOptions::default().with_workers(2));
        service.shutdown_in_place();
        let workload =
            Arc::new(NetworkWorkload::from_spec(&PaperModel::Lenet5SignMnist.spec()).unwrap());
        let request = EvalRequest::new(CrossLightConfig::paper_best(), workload);
        let (reply_tx, reply_rx) = mpsc::channel();
        let items: Vec<BatchItem> = (0..3)
            .map(|tag| tagged(tag, request.clone(), &reply_tx))
            .collect();
        let enqueued = service.submit_detached_batch(items);
        assert_eq!(enqueued, 0);
        drop(reply_tx);
        let mut tags = Vec::new();
        while let Ok((tag, outcome)) = reply_rx.recv() {
            assert_eq!(outcome, Err(RuntimeError::WorkerLost));
            tags.push(tag);
        }
        tags.sort_unstable();
        assert_eq!(tags, [0, 1, 2]);
        // The collectors over the same path report the loss as an error.
        assert_eq!(service.submit(request), Err(RuntimeError::WorkerLost));
        let stats = service.stats();
        assert_eq!(stats.submitted, 0);
        assert!(stats.queue_depths.iter().all(|&d| d == 0));
    }

    #[test]
    fn inline_hits_count_like_worker_hits_and_probes_count_no_miss() {
        const WORKERS: u64 = 3;
        let service = EvalService::new(RuntimeOptions::default().with_workers(WORKERS as usize));
        let requests = paper_requests();
        let keyed: Vec<KeyedRequest> = requests.iter().cloned().map(KeyedRequest::from).collect();
        for request in &keyed {
            assert!(service
                .answer_cached(request, None, |_, _| unreachable!())
                .is_none());
        }
        let cold = service.stats();
        assert_eq!(
            (cold.submitted, cold.cache_hits, cold.cache_misses),
            (0, 0, 0)
        );

        let reports = service.submit_batch(requests.clone()).unwrap();
        let mut encodings = 0;
        for _ in 0..2 {
            for (request, response) in keyed.iter().zip(&reports) {
                let mut trace = RequestTrace::new(0);
                let mut cursor = Instant::now();
                let mut encoded_at = None;
                let encoded = service
                    .answer_cached(
                        request,
                        Some((&mut trace, &mut cursor)),
                        |report, worker| {
                            encodings += 1;
                            encoded_at = Some(Instant::now());
                            Arc::new(format!("{worker}/{}", report.metrics.fps))
                        },
                    )
                    .expect("a warm key hits");
                // The cursor ends the `cache_lookup` span; a first hit's
                // encoding comes after it.
                assert!(encoded_at.is_none_or(|at| at >= cursor));
                let worker = request.key.fingerprint() % WORKERS;
                assert_eq!(worker, response.worker as u64);
                assert_eq!(
                    *encoded,
                    format!("{worker}/{}", response.report.metrics.fps)
                );
                assert_eq!(trace.spans().len(), 1);
                assert_eq!(trace.spans()[0].phase, Phase::CacheLookup);
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
        // The first `runtime_cache_lookup_ns` series is `outcome="hit"`.
        match service
            .telemetry_snapshot()
            .value("runtime_cache_lookup_ns")
        {
            Some(crosslight_telemetry::SeriesValue::Histogram(hits)) => {
                assert_eq!(hits.count(), 32)
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_shut_down_pool_serves_no_inline_hit() {
        let mut service = EvalService::new(RuntimeOptions::default().with_workers(2));
        let request = paper_requests().remove(0);
        service.submit(request.clone()).unwrap();
        service.shutdown_in_place();
        let keyed = KeyedRequest::from(request.clone());
        assert!(service
            .answer_cached(&keyed, None, |_, _| unreachable!())
            .is_none());
        let (reply_tx, reply_rx) = mpsc::channel();
        service.submit_detached_batch(vec![tagged(0, request, &reply_tx)]);
        drop(reply_tx);
        assert_eq!(reply_rx.recv().unwrap().1, Err(RuntimeError::WorkerLost));
        let stats = service.stats();
        assert_eq!((stats.submitted, stats.cache_hits), (1, 0));
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
    fn sampled_traces_cover_the_worker_phases_and_feed_the_registry() {
        let service = EvalService::new(RuntimeOptions::default().with_workers(2));
        // One pass of the paper requests, each carrying a trace, answered
        // in submission order.
        let traced_pass = || -> Vec<EvalResponse> {
            let (reply_tx, reply_rx) = mpsc::channel();
            let items = (paper_requests().into_iter().enumerate())
                .map(|(i, request)| BatchItem {
                    trace: Some(Box::new(RequestTrace::new(i as u64))),
                    ..tagged(i as u64, request, &reply_tx)
                })
                .collect();
            service.submit_detached_batch(items);
            drop(reply_tx);
            let mut answered: Vec<(u64, Result<EvalResponse>)> = reply_rx.iter().collect();
            answered.sort_by_key(|(tag, _)| *tag);
            answered.into_iter().map(|(_, r)| r.unwrap()).collect()
        };
        let first = traced_pass();
        let second = traced_pass();
        // Every response carries a trace; misses add prepare/evaluate spans.
        for response in first.iter().chain(&second) {
            let trace = response.trace.as_ref().expect("every item carried one");
            assert!(trace.phase_ns(Phase::Queue).is_some());
            assert!(trace.phase_ns(Phase::CacheLookup).is_some());
            assert_eq!(
                trace.phase_ns(Phase::Evaluate).is_some(),
                !response.cache_hit
            );
        }
        let snapshot = service.telemetry_snapshot();
        let histogram_count = |name: &str| match snapshot.value(name) {
            Some(crosslight_telemetry::SeriesValue::Histogram(h)) => h.count(),
            other => panic!("{name}: unexpected {other:?}"),
        };
        assert_eq!(histogram_count("runtime_queue_wait_ns"), 32);
        assert_eq!(histogram_count("runtime_evaluate_ns"), 16);
        assert_eq!(histogram_count("runtime_prepare_ns"), 16);
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
        assert_eq!(by_outcome, [("hit".into(), 16), ("miss".into(), 16)]);
        match snapshot.value("runtime_result_cache_hits_total") {
            Some(crosslight_telemetry::SeriesValue::Counter(16)) => {}
            other => panic!("unexpected {other:?}"),
        }
        // Traced and untraced results are the same reports.
        let untraced = EvalService::new(RuntimeOptions::default().with_workers(2));
        let plain = untraced.submit_batch(paper_requests()).unwrap();
        assert_eq!(first, plain);
        assert!(plain.iter().all(|r| r.trace.is_none()));
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
    fn cancelled_tokens_skip_queued_jobs_and_keep_accounting_exact() {
        let service = EvalService::new(RuntimeOptions::default().with_workers(1));
        let workload =
            Arc::new(NetworkWorkload::from_spec(&PaperModel::Lenet5SignMnist.spec()).unwrap());
        let request = EvalRequest::new(CrossLightConfig::paper_best(), Arc::clone(&workload));
        let (reply_tx, reply_rx) = mpsc::channel();

        // A pre-cancelled token: every job carrying it is answered with
        // Cancelled, never evaluated.
        let cancelled = CancelToken::new();
        cancelled.cancel();
        assert!(cancelled.is_cancelled());
        let mut items: Vec<BatchItem> = (0..4)
            .map(|tag| BatchItem {
                cancel: Some(cancelled.clone()),
                ..tagged(tag, request.clone(), &reply_tx)
            })
            .collect();
        // A live token evaluates normally.
        let live = CancelToken::new();
        items.push(BatchItem {
            cancel: Some(live.clone()),
            ..tagged(99, request.clone(), &reply_tx)
        });
        assert_eq!(service.submit_detached_batch(items), 5);
        drop(reply_tx);

        let mut cancelled_seen = 0;
        let mut ok_seen = 0;
        while let Ok((tag, outcome)) = reply_rx.recv() {
            match outcome {
                Err(RuntimeError::Cancelled) => {
                    assert!(tag < 4);
                    cancelled_seen += 1;
                }
                Ok(response) => {
                    assert_eq!(tag, 99);
                    assert_eq!(
                        response.report,
                        CrossLightSimulator::new(CrossLightConfig::paper_best())
                            .evaluate(&workload)
                            .unwrap()
                    );
                    ok_seen += 1;
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert_eq!((cancelled_seen, ok_seen), (4, 1));
        assert!(!live.is_cancelled());
        let stats = service.stats();
        // Cancelled jobs still count as completed, so in_flight settles.
        assert_eq!(stats.submitted, 5);
        assert_eq!(stats.completed, 5);
        assert_eq!(stats.in_flight(), 0);
        // Nothing cancelled ever touched the caches.
        assert_eq!(stats.cache_misses, 1);
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
