//! The concurrent solve service: a request queue, worker threads with
//! micro-batching, and panic isolation at the request boundary.

use crate::registry::{ProgramKey, Registry};
use crate::stats::ServiceStats;
use crate::{ServiceError, SolveError};
use ps_executor::{CancelToken, Cancelled, Executor, Sequential, ThreadPool};
use ps_runtime::{Inputs, Outputs, RuntimeOptions};
use ps_support::faults::{FaultInjector, FaultPoint};
use ps_support::rng::panic_message;
use ps_trace::{EvKind, Histogram, Phase, Stage, StageSet};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Knobs for [`Service::new`].
#[derive(Clone, Debug)]
pub struct ServiceOptions {
    /// Worker threads draining the request queue (clamped to ≥ 1). Each
    /// worker serves one micro-batch at a time, so this is the service's
    /// request-level parallelism.
    pub workers: usize,
    /// Intra-solve `DOALL` parallelism: 1 runs each solve sequentially on
    /// its worker (the right default for many small solves); above 1 the
    /// workers share one [`ThreadPool`] handle of this size.
    pub solve_threads: usize,
    /// Programs the registry caches before LRU eviction (clamped to ≥ 1).
    pub registry_capacity: usize,
    /// Most requests a worker batches per program pickup (clamped to ≥ 1).
    pub batch_max: usize,
    /// Admission control: most requests the queue holds before `submit`
    /// sheds load with [`SolveError::Busy`] instead of growing without
    /// bound (clamped to ≥ 1). Shed requests are counted in
    /// [`ServiceStats::rejected`] and never reach a worker.
    pub queue_cap: usize,
    /// Runtime options used by the [`Service::register`] convenience
    /// (requests carry their own options inside their [`ProgramKey`]).
    pub runtime: RuntimeOptions,
    /// Deadline applied to every [`Service::submit`] (none by default).
    /// `submit_with_deadline` overrides it per request. A request past its
    /// deadline at dequeue is shed with [`SolveError::DeadlineExceeded`];
    /// one that expires mid-solve is cancelled at executor chunk
    /// boundaries.
    pub default_deadline: Option<Duration>,
    /// How long [`Service::shutdown`] keeps serving the already-accepted
    /// backlog before answering the remainder with
    /// [`SolveError::Shutdown`] (30 s by default). Bounds shutdown's
    /// wall-clock however deep the queue is.
    pub drain_timeout: Duration,
    /// Seeded fault injection for chaos testing (disabled by default):
    /// worker panics, slow solves, and registry compile failures fire at
    /// the spec's per-mille rates.
    pub faults: FaultInjector,
}

impl Default for ServiceOptions {
    fn default() -> ServiceOptions {
        ServiceOptions {
            workers: 2,
            solve_threads: 1,
            registry_capacity: 32,
            batch_max: 8,
            queue_cap: 1024,
            runtime: RuntimeOptions::default(),
            default_deadline: None,
            drain_timeout: Duration::from_secs(30),
            faults: FaultInjector::disabled(),
        }
    }
}

/// One solve request: which program (by registry key) and its inputs.
#[derive(Clone, Debug)]
pub struct SolveRequest {
    pub key: ProgramKey,
    pub inputs: Inputs,
}

impl SolveRequest {
    pub fn new(key: ProgramKey, inputs: Inputs) -> SolveRequest {
        SolveRequest { key, inputs }
    }
}

/// The filled-exactly-once response cell a handle waits on. `Taken` is a
/// distinct terminal state so a `wait` after `try_take` fails loudly
/// instead of parking on a condvar that can never fire again.
#[derive(Default)]
enum ResponseCell {
    #[default]
    Pending,
    Ready(Result<Outputs, SolveError>),
    Taken,
}

#[derive(Default)]
struct ResponseState {
    cell: Mutex<ResponseCell>,
    ready: Condvar,
}

impl ResponseState {
    fn fulfill(&self, result: Result<Outputs, SolveError>) {
        let mut cell = self.cell.lock().expect("response cell poisoned");
        debug_assert!(
            matches!(*cell, ResponseCell::Pending),
            "a response is fulfilled exactly once"
        );
        *cell = ResponseCell::Ready(result);
        self.ready.notify_all();
    }
}

/// A typed handle to one in-flight solve: block on [`wait`], poll with
/// [`try_take`], or probe with [`is_ready`].
///
/// [`wait`]: ResponseHandle::wait
/// [`try_take`]: ResponseHandle::try_take
/// [`is_ready`]: ResponseHandle::is_ready
pub struct ResponseHandle {
    state: Arc<ResponseState>,
    /// Clone of the request's cancel token ([`ResponseHandle::cancel`]).
    cancel: CancelToken,
    /// The request's trace span id (0 when tracing was disabled at
    /// submit); ties the caller's view to the request's trace events.
    span: u64,
}

impl ResponseHandle {
    /// Block until the response arrives and return it.
    ///
    /// # Panics
    /// When the response was already consumed by [`try_take`] — waiting
    /// for it again would otherwise park forever.
    ///
    /// [`try_take`]: ResponseHandle::try_take
    pub fn wait(self) -> Result<Outputs, SolveError> {
        let mut cell = self.state.cell.lock().expect("response cell poisoned");
        loop {
            match std::mem::replace(&mut *cell, ResponseCell::Taken) {
                ResponseCell::Ready(result) => return result,
                ResponseCell::Taken => {
                    panic!("response was already consumed by try_take")
                }
                ResponseCell::Pending => {
                    *cell = ResponseCell::Pending;
                    cell = self.state.ready.wait(cell).expect("response cell poisoned");
                }
            }
        }
    }

    /// Take the response if it already arrived (non-blocking; returns
    /// `None` both while pending and after the response was taken).
    pub fn try_take(&self) -> Option<Result<Outputs, SolveError>> {
        let mut cell = self.state.cell.lock().expect("response cell poisoned");
        match std::mem::replace(&mut *cell, ResponseCell::Taken) {
            ResponseCell::Ready(result) => Some(result),
            other => {
                *cell = other;
                None
            }
        }
    }

    /// Whether the response has arrived — `true` even after it was
    /// consumed by [`try_take`] (so pollers can distinguish "still
    /// pending" from "done").
    ///
    /// [`try_take`]: ResponseHandle::try_take
    pub fn is_ready(&self) -> bool {
        !matches!(
            *self.state.cell.lock().expect("response cell poisoned"),
            ResponseCell::Pending
        )
    }

    /// Block for at most `timeout` and take the response if it arrived
    /// (`None` on timeout; the handle stays usable, so callers can keep
    /// polling or [`cancel`](ResponseHandle::cancel) and walk away).
    ///
    /// # Panics
    /// When the response was already consumed by
    /// [`try_take`](ResponseHandle::try_take).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Outputs, SolveError>> {
        let deadline = Instant::now() + timeout;
        let mut cell = self.state.cell.lock().expect("response cell poisoned");
        loop {
            match std::mem::replace(&mut *cell, ResponseCell::Taken) {
                ResponseCell::Ready(result) => return Some(result),
                ResponseCell::Taken => {
                    panic!("response was already consumed by try_take")
                }
                ResponseCell::Pending => {
                    *cell = ResponseCell::Pending;
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    let (guard, _) = self
                        .state
                        .ready
                        .wait_timeout(cell, deadline.saturating_duration_since(now))
                        .expect("response cell poisoned");
                    cell = guard;
                }
            }
        }
    }

    /// Cancel this request: if still queued it is shed at dequeue; if
    /// mid-solve it stops at the next executor chunk boundary. Either way
    /// the handle resolves to [`SolveError::DeadlineExceeded`]. A no-op
    /// once the solve already finished.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// The trace span id minted for this request at submit (0 when
    /// tracing was disabled). Every `Enqueue`/`Dequeue`/`QueueWait`/
    /// `Solve` event of the request carries it, so a caller holding the
    /// handle can find its request in an exported trace.
    pub fn trace_span(&self) -> u64 {
        self.span
    }
}

/// One queued request.
struct Pending {
    key: ProgramKey,
    inputs: Inputs,
    state: Arc<ResponseState>,
    submitted: Instant,
    /// The request's deadline/cancellation token, shared with its handle.
    cancel: CancelToken,
    /// Trace span id (0 when tracing was disabled at submit).
    span: u64,
}

/// State shared between the handle type, the workers, and the queue.
struct Inner {
    queue: Mutex<VecDeque<Pending>>,
    nonempty: Condvar,
    /// Once set, `submit` rejects and workers exit after draining.
    closed: AtomicBool,
    registry: Registry,
    batch_max: usize,
    queue_cap: usize,
    depth: AtomicU64,
    requests: AtomicU64,
    rejected: AtomicU64,
    responses: AtomicU64,
    errors: AtomicU64,
    panics: AtomicU64,
    deadline_expired: AtomicU64,
    batches: AtomicU64,
    max_batch: AtomicU64,
    /// Submit→response latency: lock-free log₂ buckets, so workers never
    /// contend on a lock for bookkeeping.
    latency: Histogram,
    /// Per-stage duration histograms, shared with the registry (compile),
    /// each artifact (specialize), and the TCP front-end (reply). Recorded
    /// only while tracing is enabled.
    stages: Arc<StageSet>,
    faults: FaultInjector,
    drain_timeout: Duration,
    /// Set by `shutdown` (under the queue lock): when the drain runs past
    /// this instant, workers answer the remaining backlog with `Shutdown`.
    drain_deadline: Mutex<Option<Instant>>,
}

impl Inner {
    fn respond(&self, p: Pending, result: Result<Outputs, SolveError>) {
        if result.is_err() {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.latency.record(p.submitted.elapsed());
        self.responses.fetch_add(1, Ordering::Relaxed);
        p.state.fulfill(result);
    }
}

/// An embeddable concurrent solve service.
///
/// `Service::new` spawns the worker threads; [`Service::submit`] enqueues
/// a request and returns a [`ResponseHandle`] immediately. Requests that
/// share a program are micro-batched onto one pooled run-slot session, and
/// a request that panics mid-solve is isolated at the request boundary:
/// its handle resolves to [`SolveError::Panicked`] while the worker — and
/// every other request — carries on. Dropping the service (or calling
/// [`Service::shutdown`]) drains the queue and joins the workers.
pub struct Service {
    inner: Arc<Inner>,
    executor: Arc<dyn Executor>,
    /// The concrete pool behind `executor` when `solve_threads > 1`,
    /// kept so its counters stay observable through the trait object.
    pool: Option<Arc<ThreadPool>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    default_runtime: RuntimeOptions,
    default_deadline: Option<Duration>,
}

impl Service {
    pub fn new(options: ServiceOptions) -> Service {
        let stages = Arc::new(StageSet::new());
        let inner = Arc::new(Inner {
            queue: Mutex::new(VecDeque::new()),
            nonempty: Condvar::new(),
            closed: AtomicBool::new(false),
            registry: Registry::new(
                options.registry_capacity,
                options.faults.clone(),
                Some(Arc::clone(&stages)),
            ),
            batch_max: options.batch_max.max(1),
            queue_cap: options.queue_cap.max(1),
            depth: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            responses: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            latency: Histogram::new(),
            stages,
            faults: options.faults.clone(),
            drain_timeout: options.drain_timeout,
            drain_deadline: Mutex::new(None),
        });
        // One executor shared by every worker: a `ThreadPool` handle when
        // intra-solve parallelism was requested, otherwise `Sequential`
        // (requests are the parallelism).
        let pool = (options.solve_threads > 1).then(|| ThreadPool::shared(options.solve_threads));
        let executor: Arc<dyn Executor> = match &pool {
            Some(pool) => Arc::clone(pool) as Arc<dyn Executor>,
            None => Arc::new(Sequential),
        };
        let workers = (0..options.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                let executor = Arc::clone(&executor);
                std::thread::Builder::new()
                    .name(format!("ps-service-worker-{i}"))
                    .spawn(move || worker_loop(&inner, &*executor))
                    .expect("spawn service worker")
            })
            .collect();
        Service {
            inner,
            executor,
            pool,
            workers: Mutex::new(workers),
            default_runtime: options.runtime,
            default_deadline: options.default_deadline,
        }
    }

    /// Compile `source` into the registry (warming it) under the service's
    /// default runtime options and return the key for submitting requests.
    pub fn register(&self, source: &str) -> Result<ProgramKey, ServiceError> {
        self.register_with(source, self.default_runtime)
    }

    /// Like [`Service::register`] with explicit runtime options.
    pub fn register_with(
        &self,
        source: &str,
        options: RuntimeOptions,
    ) -> Result<ProgramKey, ServiceError> {
        let key = ProgramKey::new(source, options);
        self.inner.registry.get_or_compile(&key)?;
        Ok(key)
    }

    /// Enqueue one request; returns immediately. The program compiles
    /// lazily on first pickup if it was never registered. The service's
    /// [`ServiceOptions::default_deadline`] (if any) applies.
    pub fn submit(&self, request: SolveRequest) -> ResponseHandle {
        self.submit_inner(request, self.default_deadline)
    }

    /// Like [`Service::submit`] with an explicit deadline (measured from
    /// now, overriding the service default). Past it, the request is shed
    /// at dequeue or cancelled mid-solve, and the handle resolves to
    /// [`SolveError::DeadlineExceeded`].
    pub fn submit_with_deadline(
        &self,
        request: SolveRequest,
        deadline: Duration,
    ) -> ResponseHandle {
        self.submit_inner(request, Some(deadline))
    }

    fn submit_inner(&self, request: SolveRequest, deadline: Option<Duration>) -> ResponseHandle {
        let state = Arc::new(ResponseState::default());
        let cancel = match deadline {
            Some(d) => CancelToken::after(d),
            None => CancelToken::new(),
        };
        // The request's trace span id, carried by every lifecycle event
        // from enqueue to reply (0 while tracing is disabled).
        let span = if ps_trace::enabled() {
            ps_trace::new_span()
        } else {
            0
        };
        {
            // The closed check happens *under the queue lock* — `shutdown`
            // flips the flag under the same lock, so a request can never
            // slip into the queue after the workers were told to drain
            // (it would hang forever with nobody left to serve it).
            let mut queue = self.inner.queue.lock().expect("request queue poisoned");
            if self.inner.closed.load(Ordering::Acquire) {
                drop(queue);
                state.fulfill(Err(SolveError::Shutdown));
                return ResponseHandle {
                    state,
                    cancel,
                    span,
                };
            }
            // Admission control: at capacity the request is shed *now*
            // (cheap, bounded memory) rather than queued behind work the
            // workers may never catch up with.
            if queue.len() >= self.inner.queue_cap {
                drop(queue);
                self.inner.rejected.fetch_add(1, Ordering::Relaxed);
                state.fulfill(Err(SolveError::Busy));
                return ResponseHandle {
                    state,
                    cancel,
                    span,
                };
            }
            self.inner.requests.fetch_add(1, Ordering::Relaxed);
            self.inner.depth.fetch_add(1, Ordering::Relaxed);
            queue.push_back(Pending {
                key: request.key,
                inputs: request.inputs,
                state: Arc::clone(&state),
                submitted: Instant::now(),
                cancel: cancel.clone(),
                span,
            });
            ps_trace::emit(
                EvKind::Enqueue,
                Phase::Instant,
                span,
                span,
                queue.len() as u64,
            );
        }
        self.inner.nonempty.notify_one();
        ResponseHandle {
            state,
            cancel,
            span,
        }
    }

    /// Submit and block for the response (convenience).
    pub fn solve(&self, key: &ProgramKey, inputs: Inputs) -> Result<Outputs, SolveError> {
        self.submit(SolveRequest::new(key.clone(), inputs)).wait()
    }

    /// A point-in-time counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        let inner = &self.inner;
        ServiceStats {
            requests: inner.requests.load(Ordering::Relaxed),
            rejected: inner.rejected.load(Ordering::Relaxed),
            responses: inner.responses.load(Ordering::Relaxed),
            errors: inner.errors.load(Ordering::Relaxed),
            panics: inner.panics.load(Ordering::Relaxed),
            deadline_expired: inner.deadline_expired.load(Ordering::Relaxed),
            batches: inner.batches.load(Ordering::Relaxed),
            max_batch: inner.max_batch.load(Ordering::Relaxed),
            queue_depth: inner.depth.load(Ordering::Relaxed),
            compiles: inner.registry.compiles(),
            cache_hits: inner.registry.hits(),
            cache_evictions: inner.registry.evictions(),
            p50: Duration::from_nanos(inner.latency.quantile_ns(0.5)),
            p99: Duration::from_nanos(inner.latency.quantile_ns(0.99)),
            mean: Duration::from_nanos(inner.latency.mean_ns()),
            stages: inner.stages.snapshot(),
        }
    }

    /// The service's shared per-stage histogram set. The TCP front-end
    /// records its `Reply` stage here so one snapshot covers the whole
    /// request lifecycle; embedders can do the same for their own reply
    /// path. Stage recording happens only while [`ps_trace::enabled`].
    pub fn stages(&self) -> Arc<StageSet> {
        Arc::clone(&self.inner.stages)
    }

    /// The executor solves run on (the shared pool handle when
    /// `solve_threads > 1`).
    pub fn executor(&self) -> &Arc<dyn Executor> {
        &self.executor
    }

    /// Counters of the shared solve pool, or `None` when
    /// `solve_threads <= 1` (solves run on `Sequential`). The pool's
    /// `max_live_regions` high-water mark is the service's observable
    /// proof that solves from different workers genuinely overlapped.
    pub fn pool_stats(&self) -> Option<ps_executor::PoolStatsSnapshot> {
        self.pool.as_ref().map(|p| p.stats())
    }

    /// Stop accepting requests, drain the queue, and join the workers.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        {
            // Flip the flag while holding the queue mutex: a worker that
            // just observed `closed == false` still holds the lock, so its
            // subsequent `Condvar::wait` releases it *before* this
            // notification fires — the wakeup cannot be lost (and `join`
            // below cannot deadlock on a sleeping worker).
            let _queue = self.inner.queue.lock().expect("request queue poisoned");
            self.inner.closed.store(true, Ordering::Release);
            // Arm the drain budget: workers keep serving the backlog until
            // this instant, then answer the rest with `Shutdown`.
            let mut drain = self
                .inner
                .drain_deadline
                .lock()
                .expect("drain deadline poisoned");
            if drain.is_none() {
                *drain = Some(Instant::now() + self.inner.drain_timeout);
            }
        }
        self.inner.nonempty.notify_all();
        let handles: Vec<JoinHandle<()>> = {
            let mut workers = self.workers.lock().expect("worker table poisoned");
            workers.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Drain the queue until the service closes *and* the queue is empty:
/// shutdown never abandons an accepted request.
fn worker_loop(inner: &Inner, executor: &dyn Executor) {
    loop {
        let batch = {
            let mut queue = inner.queue.lock().expect("request queue poisoned");
            loop {
                if let Some(first) = queue.pop_front() {
                    let mut batch = vec![first];
                    // Micro-batch: pull later requests for the *same*
                    // program, leaving other keys in arrival order. All
                    // batched requests share one registry lookup and one
                    // pooled run-slot session below.
                    let mut i = 0;
                    while batch.len() < inner.batch_max && i < queue.len() {
                        if queue[i].key == batch[0].key {
                            batch.push(queue.remove(i).expect("index checked"));
                        } else {
                            i += 1;
                        }
                    }
                    break batch;
                }
                if inner.closed.load(Ordering::Acquire) {
                    return;
                }
                queue = inner.nonempty.wait(queue).expect("request queue poisoned");
            }
        };
        inner.depth.fetch_sub(batch.len() as u64, Ordering::Relaxed);
        inner.batches.fetch_add(1, Ordering::Relaxed);
        inner
            .max_batch
            .fetch_max(batch.len() as u64, Ordering::Relaxed);
        if ps_trace::enabled() {
            // Dequeue + queue-wait per request, stamped on the worker that
            // picked the batch up.
            let depth = inner.depth.load(Ordering::Relaxed);
            for p in &batch {
                let waited = p.submitted.elapsed();
                ps_trace::emit(EvKind::Dequeue, Phase::Instant, p.span, p.span, depth);
                ps_trace::emit(
                    EvKind::QueueWait,
                    Phase::Complete,
                    p.span,
                    waited.as_nanos() as u64,
                    p.span,
                );
                inner.stages.record(Stage::QueueWait, waited);
            }
        }
        // Bounded drain: once shutdown's budget is spent, the backlog is
        // answered (with `Shutdown`) instead of executed — every handle
        // still resolves, but a deep queue can no longer hold the process.
        if inner.closed.load(Ordering::Acquire) {
            let drain_expired = inner
                .drain_deadline
                .lock()
                .expect("drain deadline poisoned")
                .is_some_and(|d| Instant::now() >= d);
            if drain_expired {
                for p in batch {
                    inner.respond(p, Err(SolveError::Shutdown));
                }
                continue;
            }
        }
        // The compiler runs inside the unwind boundary too: a panic in it
        // (nothing is locked or half-published during a compile) is a
        // compile failure of this batch, not the end of the worker.
        let compiled = catch_unwind(AssertUnwindSafe(|| {
            inner.registry.get_or_compile(&batch[0].key)
        }));
        let compiled = compiled.unwrap_or_else(|payload| {
            inner.panics.fetch_add(1, Ordering::Relaxed);
            let msg = format!("compiler panicked: {}", panic_message(payload));
            Err(ServiceError::Compile(msg))
        });
        match compiled {
            Err(err) => {
                // The whole batch shares the program, so it shares the
                // compile failure.
                let msg = err.to_string();
                for p in batch {
                    inner.respond(p, Err(SolveError::Compile(msg.clone())));
                }
            }
            Ok(entry) => {
                ps_trace::emit(
                    EvKind::Batch,
                    Phase::Instant,
                    0,
                    batch.len() as u64,
                    entry.trace_label(),
                );
                let mut session = entry.session();
                for (i, p) in batch.into_iter().enumerate() {
                    // A request already past its deadline is shed here, at
                    // dequeue — it never executes at all.
                    if p.cancel.is_cancelled() {
                        inner.deadline_expired.fetch_add(1, Ordering::Relaxed);
                        inner.respond(p, Err(SolveError::DeadlineExceeded));
                        continue;
                    }
                    // The request boundary: a panicking solve resolves
                    // *this* handle to an error; the session drops the
                    // claimed slot and the worker carries on. The cancel
                    // scope lets a mid-solve expiry stop the solve at the
                    // executor's next chunk boundary.
                    let _scope = p.cancel.enter();
                    let tracing = ps_trace::enabled();
                    let solve_span =
                        ps_trace::span_with(EvKind::Solve, p.span, entry.trace_label(), i as u64);
                    let solve_t0 = tracing.then(Instant::now);
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        if inner.faults.should_fire(FaultPoint::WorkerPanic) {
                            ps_trace::emit(
                                EvKind::Fault,
                                Phase::Instant,
                                p.span,
                                ps_trace::label_if_enabled("worker_panic"),
                                0,
                            );
                            panic!("injected fault: worker panic");
                        }
                        if inner.faults.should_fire(FaultPoint::SlowSolve) {
                            ps_trace::emit(
                                EvKind::Fault,
                                Phase::Instant,
                                p.span,
                                ps_trace::label_if_enabled("slow_solve"),
                                0,
                            );
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        session.run(&p.inputs, executor)
                    }));
                    drop(solve_span);
                    drop(_scope);
                    if let (Some(t0), Ok(_)) = (solve_t0, &outcome) {
                        inner.stages.record(Stage::Solve, t0.elapsed());
                    }
                    let result = match outcome {
                        Ok(Ok(outputs)) => Ok(outputs),
                        Ok(Err(e)) => Err(SolveError::Runtime(e.to_string())),
                        Err(payload) if payload.is::<Cancelled>() => {
                            // Mid-solve cancellation is a deadline event,
                            // not a crash: the pool skipped the region's
                            // remaining chunks and stays healthy.
                            inner.deadline_expired.fetch_add(1, Ordering::Relaxed);
                            Err(SolveError::DeadlineExceeded)
                        }
                        Err(payload) => {
                            inner.panics.fetch_add(1, Ordering::Relaxed);
                            let msg = panic_message(payload);
                            if tracing {
                                // Postmortem: the dump's event tail names
                                // the thread, the request span, and (via
                                // Region events) the equation being solved.
                                ps_trace::emit(
                                    EvKind::Panic,
                                    Phase::Instant,
                                    p.span,
                                    entry.trace_label(),
                                    p.span,
                                );
                                ps_trace::flight::record(&format!(
                                    "worker panic serving request span {} ({msg})",
                                    p.span
                                ));
                            }
                            Err(SolveError::Panicked(msg))
                        }
                    };
                    inner.respond(p, result);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RECURRENCE: &str = "Compound: module (rate: real; n: int): [final: real];
        type K = 2 .. n;
        var balance: array [1 .. n] of real;
        define
            balance[1] = 1.0;
            balance[K] = balance[K-1] * (1.0 + rate);
            final = balance[n];
        end Compound;";

    /// Integer division panics on a zero divisor — the deliberate panic
    /// injection used by the isolation tests.
    const DIVIDER: &str = "Divider: module (p: int; q: int): [y: int];
        define y = p div q; end Divider;";

    fn service() -> Service {
        Service::new(ServiceOptions::default())
    }

    #[test]
    fn submit_and_wait_round_trip() {
        let svc = service();
        let key = svc.register(RECURRENCE).unwrap();
        let out = svc
            .solve(&key, Inputs::new().set_real("rate", 0.5).set_int("n", 10))
            .unwrap();
        assert!((out.scalar("final").as_real() - 1.5f64.powi(9)).abs() < 1e-9);
        let stats = svc.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.responses, 1);
        assert_eq!(stats.compiles, 1);
        assert!(stats.p50 > Duration::from_nanos(0));
    }

    use std::time::Duration;

    #[test]
    fn batching_shares_one_registry_hit() {
        let svc = service();
        let key = svc.register(RECURRENCE).unwrap();
        let handles: Vec<ResponseHandle> = (0..16)
            .map(|i| {
                svc.submit(SolveRequest::new(
                    key.clone(),
                    Inputs::new()
                        .set_real("rate", 0.5)
                        .set_int("n", 4 + (i % 3)),
                ))
            })
            .collect();
        for h in handles {
            h.wait().unwrap();
        }
        let stats = svc.stats();
        assert_eq!(stats.responses, 16);
        assert!(
            stats.cache_hits > stats.compiles,
            "warm path: hits {} > compiles {}",
            stats.cache_hits,
            stats.compiles
        );
    }

    #[test]
    fn a_panicking_request_is_isolated() {
        let svc = service();
        let key = svc.register(DIVIDER).unwrap();
        let ok1 = svc.solve(&key, Inputs::new().set_int("p", 7).set_int("q", 2));
        assert_eq!(ok1.unwrap().scalar("y").as_int(), 3);
        let boom = svc.solve(&key, Inputs::new().set_int("p", 7).set_int("q", 0));
        match boom {
            Err(SolveError::Panicked(msg)) => assert!(msg.contains("div"), "{msg}"),
            other => panic!("expected a panic response, got {other:?}"),
        }
        // The same worker keeps serving correct answers afterwards.
        for _ in 0..4 {
            let ok = svc
                .solve(&key, Inputs::new().set_int("p", 9).set_int("q", 3))
                .unwrap();
            assert_eq!(ok.scalar("y").as_int(), 3);
        }
        let stats = svc.stats();
        assert_eq!(stats.panics, 1);
        assert_eq!(stats.errors, 1);
    }

    #[test]
    fn missing_input_is_a_runtime_error_not_a_crash() {
        let svc = service();
        let key = svc.register(RECURRENCE).unwrap();
        let r = svc.solve(&key, Inputs::new().set_real("rate", 0.5));
        match r {
            Err(SolveError::Runtime(msg)) => assert!(msg.contains("missing input"), "{msg}"),
            other => panic!("expected runtime error, got {other:?}"),
        }
    }

    #[test]
    fn compile_errors_reach_every_batched_request() {
        let svc = service();
        let bad = ProgramKey::new("garbage ???", RuntimeOptions::default());
        let handles: Vec<ResponseHandle> = (0..3)
            .map(|_| svc.submit(SolveRequest::new(bad.clone(), Inputs::new())))
            .collect();
        for h in handles {
            match h.wait() {
                Err(SolveError::Compile(_)) => {}
                other => panic!("expected compile error, got {other:?}"),
            }
        }
    }

    /// A front-end-legal program the static verifier rejects (`a[K-2]` at
    /// `K = 2` reads `a[0]`) is a compile *error*, not a worker death: the
    /// handle resolves, and the same workers keep serving other programs.
    #[test]
    fn verifier_rejection_is_a_compile_error_and_the_service_survives() {
        use ps_runtime::AnalysisLevel;
        const OUT_OF_BOUNDS: &str = "Lag: module (n: int): [y: real];
            type K = 2 .. n;
            var a: array [1 .. n] of real;
            define
                a[1] = 1.0;
                a[K] = a[K-2] + 1.0;
                y = a[n];
            end Lag;";
        let svc = service();
        let rejected = ProgramKey::new(
            OUT_OF_BOUNDS,
            RuntimeOptions {
                analysis: AnalysisLevel::Verify,
                ..Default::default()
            },
        );
        let h = svc.submit(SolveRequest::new(rejected, Inputs::new().set_int("n", 8)));
        // Bounded: this request used to kill its worker and never resolve.
        match h.wait_timeout(Duration::from_secs(60)) {
            Some(Err(SolveError::Compile(msg))) => assert!(msg.contains("E0602"), "{msg}"),
            other => panic!("expected a compile error naming E0602, got {other:?}"),
        }
        let key = ProgramKey::new(RECURRENCE, RuntimeOptions::default());
        let h = svc.submit(SolveRequest::new(
            key,
            Inputs::new().set_real("rate", 0.5).set_int("n", 10),
        ));
        let out = h
            .wait_timeout(Duration::from_secs(60))
            .expect("a healthy program still gets a worker")
            .unwrap();
        assert!((out.scalar("final").as_real() - 1.5f64.powi(9)).abs() < 1e-9);
        let stats = svc.stats();
        assert_eq!((stats.errors, stats.panics), (1, 0));
    }

    #[test]
    fn try_take_then_wait_fails_loudly_instead_of_hanging() {
        let svc = service();
        let key = svc.register(RECURRENCE).unwrap();
        let h = svc.submit(SolveRequest::new(
            key,
            Inputs::new().set_real("rate", 0.5).set_int("n", 6),
        ));
        let taken = loop {
            if let Some(result) = h.try_take() {
                break result;
            }
            std::thread::yield_now();
        };
        taken.unwrap();
        assert!(h.is_ready(), "consumed responses still read as done");
        assert!(h.try_take().is_none(), "a response is taken at most once");
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || h.wait()));
        assert!(outcome.is_err(), "waiting on a consumed response panics");
    }

    #[test]
    fn full_queue_sheds_load_with_busy() {
        let svc = Service::new(ServiceOptions {
            workers: 1,
            queue_cap: 2,
            ..Default::default()
        });
        let key = svc.register(RECURRENCE).unwrap();
        // Occupy the single worker with a slow solve, and wait until it is
        // actually picked up (the queue gauge drops to zero) so later
        // submissions sit in the queue behind it.
        let slow = svc.submit(SolveRequest::new(
            key.clone(),
            Inputs::new().set_real("rate", 1e-9).set_int("n", 4_000_000),
        ));
        while svc.stats().queue_depth > 0 {
            std::thread::yield_now();
        }
        // Fill the queue to its cap, then overflow it.
        let queued: Vec<ResponseHandle> = (0..2)
            .map(|_| {
                svc.submit(SolveRequest::new(
                    key.clone(),
                    Inputs::new().set_real("rate", 0.5).set_int("n", 4),
                ))
            })
            .collect();
        let shed = svc.submit(SolveRequest::new(
            key.clone(),
            Inputs::new().set_real("rate", 0.5).set_int("n", 4),
        ));
        match shed.wait() {
            Err(SolveError::Busy) => {}
            other => panic!("expected Busy, got {other:?}"),
        }
        let stats = svc.stats();
        assert_eq!(stats.rejected, 1, "the shed request is counted");
        // Accepted requests still resolve normally.
        slow.wait().unwrap();
        for h in queued {
            h.wait().unwrap();
        }
        assert_eq!(svc.stats().responses, 3, "shed requests never queue");
    }

    #[test]
    fn expired_deadline_is_shed_at_dequeue_without_executing() {
        let svc = Service::new(ServiceOptions {
            workers: 1,
            ..Default::default()
        });
        let key = svc.register(RECURRENCE).unwrap();
        // Occupy the single worker so the doomed request sits queued past
        // its (already-expired) deadline.
        let slow = svc.submit(SolveRequest::new(
            key.clone(),
            Inputs::new().set_real("rate", 1e-9).set_int("n", 4_000_000),
        ));
        while svc.stats().queue_depth > 0 {
            std::thread::yield_now();
        }
        let doomed = svc.submit_with_deadline(
            SolveRequest::new(
                key.clone(),
                Inputs::new().set_real("rate", 0.5).set_int("n", 4),
            ),
            Duration::ZERO,
        );
        match doomed.wait() {
            Err(SolveError::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        slow.wait().unwrap();
        let stats = svc.stats();
        assert_eq!(stats.deadline_expired, 1);
        // A generous deadline still succeeds.
        let ok = svc.submit_with_deadline(
            SolveRequest::new(key, Inputs::new().set_real("rate", 0.5).set_int("n", 4)),
            Duration::from_secs(120),
        );
        ok.wait().unwrap();
    }

    #[test]
    fn wait_timeout_times_out_then_delivers() {
        let svc = service();
        let key = svc.register(RECURRENCE).unwrap();
        let h = svc.submit(SolveRequest::new(
            key,
            Inputs::new().set_real("rate", 1e-9).set_int("n", 4_000_000),
        ));
        // A 0-length wait on a multi-million-step solve times out...
        assert!(h.wait_timeout(Duration::ZERO).is_none());
        // ...and a patient one takes the same response the handle owns.
        let out = h
            .wait_timeout(Duration::from_secs(120))
            .expect("solve finishes well within the bound");
        out.unwrap();
        assert!(h.try_take().is_none(), "wait_timeout consumed the response");
    }

    #[test]
    fn handle_cancel_sheds_a_queued_request() {
        let svc = Service::new(ServiceOptions {
            workers: 1,
            ..Default::default()
        });
        let key = svc.register(RECURRENCE).unwrap();
        let slow = svc.submit(SolveRequest::new(
            key.clone(),
            Inputs::new().set_real("rate", 1e-9).set_int("n", 4_000_000),
        ));
        while svc.stats().queue_depth > 0 {
            std::thread::yield_now();
        }
        let victim = svc.submit(SolveRequest::new(
            key,
            Inputs::new().set_real("rate", 0.5).set_int("n", 4),
        ));
        victim.cancel();
        match victim.wait() {
            Err(SolveError::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        slow.wait().unwrap();
        assert_eq!(svc.stats().deadline_expired, 1);
    }

    #[test]
    fn injected_worker_panics_are_counted_and_isolated() {
        use ps_support::faults::FaultSpec;
        let svc = Service::new(ServiceOptions {
            workers: 1,
            // Rate 1000‰: every request hits the injected panic.
            faults: FaultInjector::new(FaultSpec::seeded(3).rate(FaultPoint::WorkerPanic, 1000)),
            ..Default::default()
        });
        let key = svc.register(RECURRENCE).unwrap();
        match svc.solve(&key, Inputs::new().set_real("rate", 0.5).set_int("n", 4)) {
            Err(SolveError::Panicked(msg)) => assert!(msg.contains("injected fault"), "{msg}"),
            other => panic!("expected injected panic, got {other:?}"),
        }
        let stats = svc.stats();
        assert_eq!(stats.panics, 1);
        assert_eq!(stats.responses, 1, "the worker survived its own fault");
    }

    /// A panic inside the compiler (here the injected one; a lowering bug
    /// would do the same) strikes before any solve's unwind boundary. It
    /// used to kill the worker and strand the batch: the first wait below
    /// timed out. Now the batch resolves to a compile error, the panic is
    /// counted, and the one worker lives to answer the next request.
    #[test]
    fn a_compiler_panic_fails_the_batch_and_spares_the_worker() {
        use ps_support::faults::FaultSpec;
        let faults = FaultInjector::new(FaultSpec::seeded(5).rate(FaultPoint::CompilePanic, 1000));
        let svc = Service::new(ServiceOptions {
            workers: 1,
            faults: faults.clone(),
            ..Default::default()
        });
        // Not registered: the worker's lookup is the registry's first miss.
        let key = ProgramKey::new(RECURRENCE, RuntimeOptions::default());
        for round in 1..=2 {
            let inputs = Inputs::new().set_real("rate", 0.5).set_int("n", 4);
            let handle = svc.submit(SolveRequest::new(key.clone(), inputs));
            match handle.wait_timeout(Duration::from_secs(30)) {
                Some(Err(SolveError::Compile(msg))) => {
                    assert!(msg.contains("compiler panicked: injected fault"), "{msg}")
                }
                other => panic!("round {round}: expected a compile error, got {other:?}"),
            }
            assert_eq!(svc.stats().panics, round);
            assert_eq!(faults.fired(FaultPoint::CompilePanic), round);
        }
        assert_eq!(svc.stats().responses, 2);
    }

    #[test]
    fn shutdown_races_with_submitters_without_losing_requests() {
        // Hammer the submit/shutdown race: every handle must resolve —
        // either with a real response (enqueued before the close) or with
        // a Shutdown rejection — never by hanging on a request that
        // slipped into a queue nobody drains.
        for round in 0..24 {
            let svc = Service::new(ServiceOptions {
                workers: 2,
                ..Default::default()
            });
            let key = svc.register(RECURRENCE).unwrap();
            std::thread::scope(|scope| {
                for t in 0..3 {
                    let svc = &svc;
                    let key = key.clone();
                    scope.spawn(move || {
                        for i in 0..8 {
                            let h = svc.submit(SolveRequest::new(
                                key.clone(),
                                Inputs::new()
                                    .set_real("rate", 0.25)
                                    .set_int("n", 3 + ((t + i) % 5) as i64),
                            ));
                            match h.wait() {
                                Ok(_) | Err(SolveError::Shutdown) => {}
                                other => panic!("unexpected outcome {other:?}"),
                            }
                        }
                    });
                }
                if round % 2 == 0 {
                    std::thread::yield_now();
                }
                svc.shutdown();
            });
        }
    }

    #[test]
    fn shutdown_drains_then_rejects() {
        let svc = service();
        let key = svc.register(RECURRENCE).unwrap();
        let pending: Vec<ResponseHandle> = (0..8)
            .map(|_| {
                svc.submit(SolveRequest::new(
                    key.clone(),
                    Inputs::new().set_real("rate", 0.1).set_int("n", 50),
                ))
            })
            .collect();
        svc.shutdown();
        // Accepted requests were served, not abandoned.
        for h in pending {
            h.wait().unwrap();
        }
        // New requests are rejected immediately.
        match svc.solve(&key, Inputs::new().set_real("rate", 0.1).set_int("n", 5)) {
            Err(SolveError::Shutdown) => {}
            other => panic!("expected shutdown rejection, got {other:?}"),
        }
    }
}
