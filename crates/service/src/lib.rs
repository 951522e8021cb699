//! `ps-service` — an embeddable concurrent solve service over the
//! compile-once / run-many execution stack.
//!
//! The paper's scheduling model analyzes a nonprocedural program once and
//! executes it many times; `ps_runtime::Program` is that artifact, and
//! this crate is the subsystem that multiplexes **many independent solve
//! requests from many clients** over a cache of such artifacts:
//!
//! * [`Registry`] — the compile-once cache of owned
//!   `ps_runtime::Program`s, keyed by `(source, RuntimeOptions)`. It is a
//!   [`ps_support::cache::LruCache`], the same bounded table each program
//!   keeps its parameter-layout specializations in: hits share the read
//!   lock, a miss compiles with no lock held and takes the write lock
//!   only to publish (see [`registry`]), and evicted programs stay alive
//!   for their in-flight requests through `Arc`s.
//! * [`Service`] — a request queue drained by worker threads.
//!   [`Service::submit`] returns a [`ResponseHandle`] immediately;
//!   requests sharing a program are **micro-batched** onto one pooled
//!   run-slot session, and a panicking request is isolated at the request
//!   boundary (its handle resolves to [`SolveError::Panicked`]; the
//!   worker, the slot pool, and every other request carry on).
//! * [`ServiceStats`] — per-service counters: compiles, cache hits and
//!   evictions, queue depth, batch sizes, and p50/p99 latency from a
//!   lock-free log₂ histogram.
//! * [`proto`] — the newline-delimited wire protocol the `ps-serve` TCP
//!   front-end speaks (requests and load generation live in
//!   `ps-core/src/bin/ps_serve.rs`).
//!
//! # Deadlines, shedding, and fault injection
//!
//! Every request can carry a deadline — per service via
//! [`ServiceOptions::default_deadline`], per request via
//! [`Service::submit_with_deadline`] — backed by a
//! [`ps_executor::CancelToken`]:
//!
//! * a request whose deadline passed while it was still **queued** is shed
//!   at dequeue with [`SolveError::DeadlineExceeded`] and never executes
//!   (counted in [`ServiceStats::deadline_expired`]);
//! * a request that times out **mid-solve** is cancelled cooperatively at
//!   the executor's chunk boundaries — the pool's `cancelled_chunks`
//!   counter records the skipped work, and the shared pool is *not*
//!   poisoned: the next solve runs normally;
//! * [`ResponseHandle::wait_timeout`] bounds the caller's wait without
//!   consuming the handle, and [`ResponseHandle::cancel`] abandons a
//!   request explicitly.
//!
//! [`Service::shutdown`] still drains every accepted request, but the
//! drain is bounded by [`ServiceOptions::drain_timeout`]: past it, the
//! remaining queue is answered with [`SolveError::Shutdown`] instead of
//! holding the process hostage.
//!
//! To *prove* the degradation story, [`ServiceOptions::faults`] takes a
//! seeded [`ps_support::faults::FaultInjector`]: worker panics, slow
//! solves, and registry compile failures fire at configured per-mille
//! rates from one LCG, so the chaos suite (`tests/chaos.rs`) can replay
//! any failing schedule from its seed.
//!
//! # Observability
//!
//! The service is instrumented end to end with [`ps_trace`], and the
//! instrumentation is **always compiled in**: while tracing is disabled
//! (the default) every probe is a single relaxed atomic load with zero
//! allocation, so there is no feature flag to forget and no "debug build"
//! to reproduce on.
//!
//! Call [`ps_trace::enable`] (or run `ps-serve --trace-out FILE`) and the
//! full request lifecycle lands in per-thread lock-free rings:
//!
//! * **submit** mints a span id ([`ResponseHandle::trace_span`]) and emits
//!   `Enqueue`; the worker that picks the request up emits `Dequeue`,
//!   `QueueWait`, and `Batch`;
//! * the **registry** emits `RegistryHit`/`RegistryMiss` instants and a
//!   `Compile` span; the runtime artifact emits `SpecHit`/`SpecBuild` for
//!   its parameter-layout cache;
//! * each **solve** runs under a `Solve` span carrying the request's span
//!   id and the program's interned module-name label; inside it the
//!   executor emits per-region `Region`/`Publish` spans and per-chunk
//!   `Chunk`/`Steal`/`Cancel` events;
//! * injected **faults** emit `Fault` instants, and a panicking solve
//!   emits `Panic` and triggers the [`ps_trace::flight`] recorder: the
//!   last events of every thread become a structured postmortem dump.
//!
//! Aggregates ride along in two forms: [`ServiceStats::stages`] exposes
//! per-stage log₂ histograms (queue wait, compile, specialize, solve,
//! reply) with geometric-midpoint p50/p99, and `ps-serve` carries the
//! same snapshot in its wire `stats` reply. Traces written by
//! `--trace-out` are Chrome `trace_event` JSON — open them in
//! `chrome://tracing`/Perfetto or summarize with the `ps-trace` CLI.
//! See `examples/trace_a_request.rs` in `ps-core` for a guided walk
//! through one request's span tree.
//!
//! # Embedding the service
//!
//! ```
//! use ps_service::{Service, ServiceOptions, SolveRequest};
//! use ps_runtime::Inputs;
//!
//! let service = Service::new(ServiceOptions {
//!     workers: 2,
//!     ..Default::default()
//! });
//!
//! // Compile once (warms the registry), submit many.
//! let key = service
//!     .register(
//!         "Compound: module (rate: real; n: int): [final: real];
//!          type K = 2 .. n;
//!          var balance: array [1 .. n] of real;
//!          define
//!             balance[1] = 1.0;
//!             balance[K] = balance[K-1] * (1.0 + rate);
//!             final = balance[n];
//!          end Compound;",
//!     )
//!     .unwrap();
//!
//! let handles: Vec<_> = (1..=8)
//!     .map(|i| {
//!         service.submit(SolveRequest::new(
//!             key.clone(),
//!             Inputs::new().set_real("rate", 0.5).set_int("n", 2 + i),
//!         ))
//!     })
//!     .collect();
//! for (i, h) in handles.into_iter().enumerate() {
//!     let out = h.wait().unwrap();
//!     let expected = 1.5f64.powi(i as i32 + 2);
//!     assert!((out.scalar("final").as_real() - expected).abs() < 1e-9);
//! }
//!
//! let stats = service.stats();
//! assert_eq!(stats.compiles, 1, "one artifact served every request");
//! assert_eq!(stats.responses, 8);
//! assert!(stats.cache_hits >= 1, "warm path hits the registry");
//! ```

#![forbid(unsafe_code)]

pub mod proto;
pub mod registry;
pub mod service;
pub mod stats;

pub use registry::{ProgramKey, Registry};
pub use service::{ResponseHandle, Service, ServiceOptions, SolveRequest};
pub use stats::ServiceStats;

/// Failure compiling a program into the registry.
#[derive(Clone, Debug)]
pub enum ServiceError {
    /// Front end, scheduler or static verifier rejected the source
    /// (rendered diagnostics).
    Compile(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Compile(msg) => write!(f, "compile: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Per-request failure delivered through a [`ResponseHandle`].
#[derive(Clone, Debug)]
pub enum SolveError {
    /// The request's program failed to compile.
    Compile(String),
    /// The solve reported a runtime error (missing input, bad bound, ...).
    Runtime(String),
    /// The solve panicked; the panic was caught at the request boundary.
    Panicked(String),
    /// The request queue was full ([`ServiceOptions::queue_cap`]); the
    /// request was shed instead of growing the queue without bound.
    Busy,
    /// The request's deadline passed before it completed: shed unexecuted
    /// at dequeue, or cancelled mid-solve at an executor chunk boundary.
    DeadlineExceeded,
    /// The service was shut down before the request was accepted.
    Shutdown,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Compile(msg) => write!(f, "compile: {msg}"),
            SolveError::Runtime(msg) => write!(f, "runtime: {msg}"),
            SolveError::Panicked(msg) => write!(f, "panicked: {msg}"),
            SolveError::Busy => write!(f, "service queue is full"),
            SolveError::DeadlineExceeded => write!(f, "deadline exceeded"),
            SolveError::Shutdown => write!(f, "service is shut down"),
        }
    }
}

impl std::error::Error for SolveError {}
