//! Per-service counters and latency/stage histograms.

use ps_trace::StageSnapshot;
use std::time::Duration;

/// A point-in-time snapshot of a service's counters, returned by
/// [`crate::Service::stats`].
#[derive(Clone, Debug, Default)]
pub struct ServiceStats {
    /// Requests accepted by `submit` (including ones still queued).
    pub requests: u64,
    /// Requests shed by `submit` because the queue was at
    /// [`crate::ServiceOptions::queue_cap`] (resolved to
    /// [`crate::SolveError::Busy`], never queued).
    pub rejected: u64,
    /// Responses delivered (success or error).
    pub responses: u64,
    /// Responses that carried an error (compile, runtime, or panic).
    pub errors: u64,
    /// Requests whose solve panicked (isolated at the request boundary).
    pub panics: u64,
    /// Requests resolved to [`crate::SolveError::DeadlineExceeded`]: shed
    /// unexecuted at dequeue, or cancelled mid-solve (a subset of
    /// `errors`).
    pub deadline_expired: u64,
    /// Worker micro-batches executed.
    pub batches: u64,
    /// Largest micro-batch executed so far.
    pub max_batch: u64,
    /// Requests currently queued (a gauge, racy by nature).
    pub queue_depth: u64,
    /// Programs compiled into the registry.
    pub compiles: u64,
    /// Registry lookups served from cache.
    pub cache_hits: u64,
    /// Registry entries evicted to stay within capacity.
    pub cache_evictions: u64,
    /// Median submit→response latency (geometric-midpoint interpolated).
    pub p50: Duration,
    /// 99th-percentile submit→response latency (interpolated).
    pub p99: Duration,
    /// Mean submit→response latency.
    pub mean: Duration,
    /// Per-stage duration histograms (queue wait, compile, specialize,
    /// solve, reply), recorded only while [`ps_trace::enabled`]. The
    /// `reply` stage is filled by the TCP front-end; it stays empty for
    /// embedded services.
    pub stages: StageSnapshot,
}
