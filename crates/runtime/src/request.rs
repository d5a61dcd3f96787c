//! The request/response vocabulary of the evaluation service.
//!
//! An [`EvalRequest`] names one `(architecture, workload)` point; the
//! service answers each with an [`EvalResponse`] carrying the full
//! [`SimulationReport`] plus provenance (which worker, cache hit or miss).
//! The architecture is an [`ArchSpec`], so the same request stream can mix
//! CrossLight design points with any other backend in the zoo; the
//! [`EvalRequest::new`] constructor keeps the original CrossLight-only
//! calling convention working unchanged.  Workloads are shared via [`Arc`]
//! so a sweep over thousands of configurations does not clone the per-layer
//! job lists thousands of times.

use std::sync::Arc;

use crosslight_baselines::ArchSpec;
use crosslight_core::config::CrossLightConfig;
use crosslight_core::simulator::SimulationReport;
use crosslight_neural::workload::NetworkWorkload;

use crate::cache::CacheKey;

/// One evaluation request: an architecture applied to a workload.
#[derive(Debug, Clone)]
pub struct EvalRequest {
    /// Caller-chosen correlation id, echoed verbatim on the response.  The
    /// service itself orders responses by submission position, so the id is
    /// purely for stream bookkeeping (the planner assigns sequential ids).
    pub id: u64,
    /// Accelerator architecture to simulate.
    pub arch: ArchSpec,
    /// Workload to evaluate, shared across requests.
    pub workload: Arc<NetworkWorkload>,
}

impl EvalRequest {
    /// Creates a CrossLight request with id 0.
    #[must_use]
    pub fn new(config: CrossLightConfig, workload: Arc<NetworkWorkload>) -> Self {
        Self::for_arch(ArchSpec::CrossLight(config), workload)
    }

    /// Creates a request for any architecture in the zoo, with id 0.
    #[must_use]
    pub fn for_arch(arch: ArchSpec, workload: Arc<NetworkWorkload>) -> Self {
        Self {
            id: 0,
            arch,
            workload,
        }
    }

    /// Returns a copy with the given correlation id.
    #[must_use]
    pub fn with_id(mut self, id: u64) -> Self {
        self.id = id;
        self
    }

    /// The CrossLight configuration of this request, when it names a
    /// CrossLight design point.
    #[must_use]
    pub fn config(&self) -> Option<CrossLightConfig> {
        self.arch.crosslight_config().copied()
    }

    /// The canonical cache key of this request.
    #[must_use]
    pub fn key(&self) -> CacheKey {
        CacheKey::for_arch(&self.arch, Arc::clone(&self.workload))
    }
}

/// An [`EvalRequest`] with its cache key, hashed once by `From`.  This is
/// what `EvalService::answer` takes, so a caller that hashed a request to
/// route it does not hash it again.  The key is private: it always belongs
/// to the request beside it.
#[derive(Debug, Clone)]
pub struct KeyedRequest {
    pub(crate) request: EvalRequest,
    pub(crate) key: CacheKey,
}

impl From<EvalRequest> for KeyedRequest {
    fn from(request: EvalRequest) -> Self {
        let key = request.key();
        Self { request, key }
    }
}

/// The service's answer to one [`EvalRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct EvalResponse {
    /// Correlation id copied from the request.
    pub id: u64,
    /// The simulation result — bit-identical to a direct
    /// `CrossLightSimulator::evaluate` call for CrossLight requests, and to
    /// `ArchSpec::simulate` for every other backend.
    pub report: SimulationReport,
    /// Whether the report was served from the memoizing cache.
    pub cache_hit: bool,
    /// Index of the worker (shard) the request's key routes to, whatever
    /// thread served it.
    pub worker: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crosslight_neural::zoo::PaperModel;

    #[test]
    fn requests_share_workloads_and_carry_ids() {
        let workload =
            Arc::new(NetworkWorkload::from_spec(&PaperModel::Lenet5SignMnist.spec()).unwrap());
        let a = EvalRequest::new(CrossLightConfig::paper_best(), Arc::clone(&workload)).with_id(7);
        let b = EvalRequest::new(CrossLightConfig::paper_best(), Arc::clone(&workload));
        assert_eq!(a.id, 7);
        assert_eq!(b.id, 0);
        assert_eq!(a.key(), b.key());
        assert_eq!(Arc::strong_count(&workload), 3);
    }

    #[test]
    fn crosslight_requests_expose_their_config_and_zoo_requests_do_not() {
        let workload =
            Arc::new(NetworkWorkload::from_spec(&PaperModel::CnnCifar10.spec()).unwrap());
        let crosslight = EvalRequest::new(CrossLightConfig::paper_best(), Arc::clone(&workload));
        assert_eq!(crosslight.config(), Some(CrossLightConfig::paper_best()));
        // The compat constructor and the generic one agree on keys.
        let generic = EvalRequest::for_arch(
            ArchSpec::CrossLight(CrossLightConfig::paper_best()),
            Arc::clone(&workload),
        );
        assert_eq!(crosslight.key(), generic.key());

        let zoo = EvalRequest::for_arch(ArchSpec::zoo_defaults()[1], Arc::clone(&workload));
        assert_eq!(zoo.config(), None);
        assert_ne!(zoo.key(), crosslight.key());
    }
}
