//! ps-trace integration proofs: the disabled path allocates nothing, the
//! rings never lose the newest events, exported traces are valid
//! monotone JSON, per-stage histograms reconcile with `ServiceStats`,
//! and an injected worker panic leaves a flight-recorder dump naming the
//! thread, the request span, and the program.
//!
//! Tracing's enable flag is process-global, so every test here serializes
//! on one lock and restores the disabled state before releasing it.

use ps_core::{FaultInjector, FaultSpec, Service, ServiceOptions, SolveError, SolveRequest};
use ps_trace::{EvKind, Phase, Stage};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes tests that flip the process-global tracing flag.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn trace_lock() -> MutexGuard<'static, ()> {
    TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const RECURRENCE: &str = "Compound: module (rate: real; n: int): [final: real];
    type K = 2 .. n;
    var balance: array [1 .. n] of real;
    define
        balance[1] = 1.0;
        balance[K] = balance[K-1] * (1.0 + rate);
        final = balance[n];
    end Compound;";

fn inputs(n: i64) -> ps_core::Inputs {
    ps_core::Inputs::new().set_real("rate", 0.5).set_int("n", n)
}

/// The headline claim of the tentpole: while tracing is disabled, an
/// instrumentation site costs one relaxed load — no allocation, no
/// thread-local, no clock. 10k emits and span guards must not allocate a
/// single time.
#[test]
fn disabled_path_is_allocation_free() {
    let _l = trace_lock();
    ps_trace::disable();
    // Min over a few attempts: the harness may spawn a test thread (which
    // allocates) concurrently with one window, but not with all of them.
    let allocs = (0..3)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            for i in 0..10_000u64 {
                ps_trace::emit(EvKind::Steal, Phase::Instant, i, i, i);
                let _g = ps_trace::span_with(EvKind::Solve, i, i, 0);
                let _h = ps_trace::span_with(EvKind::Region, i, 0, i);
            }
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .min()
        .unwrap();
    assert_eq!(
        allocs, 0,
        "disabled tracing must not allocate (got {allocs} allocations \
         across 30k instrumentation sites)"
    );
}

/// Overflowing the ring drops the *oldest* events: after pushing
/// RING_CAP + K distinguishable events, exactly RING_CAP remain and they
/// are the newest RING_CAP, oldest first.
#[test]
fn ring_wraparound_keeps_the_newest_events() {
    let _l = trace_lock();
    ps_trace::enable();
    let total = (ps_trace::RING_CAP + 257) as u64;
    let base = 0x5EED_0000u64;
    for i in 0..total {
        ps_trace::emit(EvKind::Chunk, Phase::Complete, 1, base + i, i);
    }
    let events = ps_trace::current_thread_events();
    ps_trace::disable();
    assert_eq!(events.len(), ps_trace::RING_CAP, "ring holds exactly CAP");
    let first = events.first().expect("nonempty").a;
    let last = events.last().expect("nonempty").a;
    assert_eq!(
        last,
        base + total - 1,
        "the newest event survives the wraparound"
    );
    assert_eq!(
        first,
        base + total - ps_trace::RING_CAP as u64,
        "exactly the oldest events were dropped"
    );
    // Oldest→newest with no gaps.
    for (i, e) in events.iter().enumerate() {
        assert_eq!(e.a, first + i as u64, "contiguous at index {i}");
    }
}

/// The Chrome exporter emits valid JSON (checked by ps-trace's own
/// parser, the same one behind the CLI) whose records are sorted by
/// start timestamp.
#[test]
fn exported_trace_is_valid_json_with_monotone_timestamps() {
    let _l = trace_lock();
    ps_trace::enable();
    // A little multi-thread traffic so the exporter has to merge rings.
    {
        let _g = ps_trace::span(EvKind::Solve, 0, 0);
        ps_trace::emit(EvKind::Batch, Phase::Instant, 0, 3, 0);
    }
    std::thread::spawn(|| {
        let _g = ps_trace::span(EvKind::Region, 0, 64);
        ps_trace::emit(EvKind::Chunk, Phase::Complete, 9, 1_000, 0);
    })
    .join()
    .expect("emitter thread");
    let json = ps_trace::chrome_trace_json(&ps_trace::snapshot());
    ps_trace::disable();
    ps_trace::validate_json(&json).expect("exporter output is valid JSON");
    let records = ps_trace::parse_trace(&json).expect("parses as a trace");
    assert!(records.len() >= 5, "all emitted events exported");
    for w in records.windows(2) {
        assert!(
            w[0].ts_us <= w[1].ts_us,
            "timestamps sorted: {} > {}",
            w[0].ts_us,
            w[1].ts_us
        );
    }
}

/// With tracing on, the per-stage histograms reconcile with the service's
/// own counters: one queue-wait and one solve sample per response.
#[test]
fn stage_histograms_reconcile_with_service_stats() {
    let _l = trace_lock();
    ps_trace::enable();
    let svc = Service::new(ServiceOptions {
        workers: 1,
        ..Default::default()
    });
    let key = svc.register(RECURRENCE).expect("registers");
    let handles: Vec<_> = (0..6)
        .map(|i| svc.submit(SolveRequest::new(key.clone(), inputs(4 + (i % 3)))))
        .collect();
    let spans: Vec<u64> = handles.iter().map(|h| h.trace_span()).collect();
    let traced: Vec<_> = handles
        .into_iter()
        .map(|h| h.wait().expect("solves succeed"))
        .collect();
    let stats = svc.stats();
    ps_trace::disable();
    let untraced = svc.solve(&key, inputs(4)).expect("untraced solve");
    svc.shutdown();
    assert_eq!(
        traced[0].scalar("final").as_real().to_bits(),
        untraced.scalar("final").as_real().to_bits(),
        "tracing must not change results"
    );
    assert!(spans.iter().all(|&s| s != 0), "live tracing mints spans");
    assert_eq!(stats.responses, 6);
    let solve = stats.stages.get(Stage::Solve);
    let wait = stats.stages.get(Stage::QueueWait);
    assert_eq!(solve.count, 6, "one solve sample per response");
    assert_eq!(wait.count, 6, "one queue-wait sample per response");
    assert!(solve.quantile_ns(0.99) >= solve.quantile_ns(0.5));
    let wire = stats.stages.wire_form();
    assert!(
        wire.contains("solve:6:"),
        "wire form carries counts: {wire}"
    );
}

/// A seeded injected worker panic triggers the flight recorder: the dump
/// names the worker thread, the request's span id, and the program label.
#[test]
fn injected_worker_panic_leaves_a_flight_dump() {
    let _l = trace_lock();
    ps_trace::enable();
    let _ = ps_trace::flight::take_dumps(); // drop earlier tests' dumps
    let svc = Service::new(ServiceOptions {
        workers: 1,
        // Rate 1000‰: the injected panic fires on the first solve.
        faults: FaultInjector::new(
            FaultSpec::seeded(7).rate(ps_core::FaultPoint::WorkerPanic, 1000),
        ),
        ..Default::default()
    });
    let key = svc.register(RECURRENCE).expect("registers");
    let handle = svc.submit(SolveRequest::new(key, inputs(5)));
    let span = handle.trace_span();
    assert_ne!(span, 0, "tracing was on at submit");
    match handle.wait_timeout(Duration::from_secs(60)) {
        Some(Err(SolveError::Panicked(msg))) => {
            assert!(msg.contains("injected fault"), "{msg}")
        }
        other => panic!("expected injected panic, got {other:?}"),
    }
    svc.shutdown();
    ps_trace::disable();
    let dumps = ps_trace::flight::take_dumps();
    let dump = dumps
        .iter()
        .find(|d| d.contains("worker panic serving request span"))
        .unwrap_or_else(|| panic!("no panic dump among {} dumps", dumps.len()));
    assert!(
        dump.contains(&format!("request span {span}")),
        "dump names the request span {span}:\n{dump}"
    );
    assert!(
        dump.contains("ps-service-worker-"),
        "dump names the worker thread:\n{dump}"
    );
    assert!(
        dump.contains("[Compound]"),
        "dump resolves the program label:\n{dump}"
    );
    assert!(dump.contains("fault"), "the Fault event is in the tail");
}
