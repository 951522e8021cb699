//! The micro rows the repo benchmark (`benchmark/`) cannot see. Everything
//! a workload there measures end to end or per layer — compile stages,
//! Jacobi and wavefront runs, the service, tracing's share of a request —
//! is measured there and only there; this file keeps the three costs that
//! are too small or too internal to show up in an op.
//!
//! **`dispatch/*` — per-region dispatch latency of the executor.** The
//! paper's speedups live in DOALL regions whose iterations are cheap (a
//! handful of flops), so the time to *launch* a parallel region — wake
//! workers, publish the closure, detect completion — bounds how small a
//! region can profitably go parallel. Each call drives `REGIONS` back-to-
//! back regions of 1, 4 or 64 iterations with a near-empty body, so
//! `quiet / REGIONS` is almost pure dispatch cost. `seq` and `par1` (zero
//! workers, inline) set the floor. The `parN_concurrent` rows split the
//! same region count across two submitter threads sharing one pool: each
//! publishes on its own lane, so their regions are in flight at once; a
//! pool that admits only one live region serializes them on the submit
//! lock and comes out *dearer* than the single-submitter row. Pool rows
//! mean nothing without the document's `nproc`.
//!
//! **`trace/emit_{off,on}` — the cost of one instrumentation site.**
//! ps-trace is compiled into release builds and stays in the hot path, so
//! its *disabled* cost (one relaxed load) is a standing tax on every
//! request. Full mode asserts `emit_off` ≤ [`EMIT_OFF_BUDGET_NS`] per
//! site. `emit_on` (clock read + ring write) is for the record.
//!
//! **`checked/pipeline/*` — what checked writes cost and what the static
//! verifier buys back.** Every array of the pipeline program proves safe,
//! so `AnalysisLevel::Verify` drops all tag allocations and per-write tag
//! swaps; the residual gap to `unchecked` is what the verifier cannot
//! remove.

use ps_bench::Harness;
use ps_core::ps_trace::{self, EvKind, Phase};
use ps_core::{
    compile, programs, AnalysisLevel, CompileOptions, Executor, Inputs, OwnedArray, Program,
    RuntimeOptions, Sequential, ThreadPool,
};
use std::sync::atomic::{AtomicI64, Ordering};

/// Regions per timed call: enough to amortise `Instant` resolution while
/// keeping one sample well under a millisecond at the expected latencies.
const REGIONS: usize = 256;

/// Emits per timed call.
const EMITS: u64 = 1024;

/// Disabled-site budget. A request crosses ~15 sites; over-counted to 64
/// this is 128 ns, 2 % of a 6.4 µs warm in-process request.
const EMIT_OFF_BUDGET_NS: f64 = 2.0;

/// Drive `REGIONS` regions of `size` iterations and return the checksum.
fn dispatch_burst(ex: &dyn Executor, size: i64) -> i64 {
    let sink = AtomicI64::new(0);
    for _ in 0..REGIONS {
        ex.for_range(0, size - 1, &|i| {
            sink.fetch_add(i + 1, Ordering::Relaxed);
        });
    }
    sink.load(Ordering::Relaxed)
}

/// Split `REGIONS` regions of `size` iterations across `submitters`
/// concurrent threads sharing `pool`; returns the combined checksum.
fn concurrent_burst(pool: &ThreadPool, size: i64, submitters: usize) -> i64 {
    let total = AtomicI64::new(0);
    std::thread::scope(|s| {
        for _ in 0..submitters {
            s.spawn(|| {
                let sink = AtomicI64::new(0);
                for _ in 0..REGIONS / submitters {
                    pool.for_range(0, size - 1, &|i| {
                        sink.fetch_add(i + 1, Ordering::Relaxed);
                    });
                }
                total.fetch_add(sink.load(Ordering::Relaxed), Ordering::Relaxed);
            });
        }
    });
    total.load(Ordering::Relaxed)
}

fn dispatch_rows(g: &mut Harness) {
    let pools: Vec<(String, Box<dyn Executor>)> = vec![
        ("seq".into(), Box::new(Sequential)),
        ("par1".into(), Box::new(ThreadPool::new(1))),
        ("par2".into(), Box::new(ThreadPool::new(2))),
        ("par4".into(), Box::new(ThreadPool::new(4))),
    ];
    for &size in &[1i64, 4, 64] {
        // Every iteration of every region must run exactly once — checked
        // inside the benched closure, so every warmup and timed sample is
        // validated (an intermittent loss cannot hide behind a clean rerun).
        let expected = REGIONS as i64 * (size * (size + 1) / 2);
        for (name, ex) in &pools {
            g.bench(&format!("dispatch/{name}/m{size}"), REGIONS as u64, || {
                let got = dispatch_burst(ex.as_ref(), size);
                assert_eq!(got, expected, "{name}/m{size} lost iterations");
            });
        }
    }
    // Multi-submitter rows: the same total region count, two racing
    // submitter lanes (thread spawn cost is part of the shape and is
    // identical across pool widths, so the rows stay comparable).
    for &threads in &[2usize, 4] {
        let pool = ThreadPool::new(threads);
        for &size in &[4i64, 64] {
            let expected = REGIONS as i64 * (size * (size + 1) / 2);
            g.bench(
                &format!("dispatch/par{threads}_concurrent/m{size}"),
                REGIONS as u64,
                || {
                    let got = concurrent_burst(&pool, size, 2);
                    assert_eq!(
                        got, expected,
                        "par{threads}_concurrent/m{size} lost iterations"
                    );
                },
            );
        }
    }
}

fn emit_burst() {
    for i in 0..EMITS {
        ps_trace::emit(EvKind::Steal, Phase::Instant, i, i, i);
        std::hint::black_box(i);
    }
}

fn trace_rows(g: &mut Harness) {
    assert!(
        !ps_trace::enabled(),
        "bench must start with tracing disabled"
    );
    // The production-path cost: one relaxed load per site.
    let emit_off = g.bench("trace/emit_off", EMITS, emit_burst);

    // The enabled cost: clock read + five relaxed stores + head bump.
    ps_trace::enable();
    emit_burst(); // first emit on this thread allocates its ring
    g.bench("trace/emit_on", EMITS, emit_burst);
    ps_trace::disable();

    if let Some(emit_off) = emit_off {
        let per_site = emit_off.quiet.as_secs_f64() * 1e9 / EMITS as f64;
        assert!(
            per_site <= EMIT_OFF_BUDGET_NS,
            "a disabled trace site must cost <= {EMIT_OFF_BUDGET_NS} ns, got {per_site:.2} ns"
        );
    }
}

fn checked_rows(g: &mut Harness) {
    let pipe = compile(programs::PIPELINE, CompileOptions::default()).unwrap();
    let n = 16384i64;
    let xs: Vec<f64> = (0..n).map(|i| ((i % 97) as f64) * 0.25 - 12.0).collect();
    let inputs = Inputs::new()
        .set_int("n", n)
        .set_array("xs", OwnedArray::real(vec![(1, n)], xs));
    let rows: [(&str, bool, AnalysisLevel); 3] = [
        ("unchecked", false, AnalysisLevel::Off),
        ("checked", true, AnalysisLevel::Off),
        ("checked_elide", true, AnalysisLevel::Verify),
    ];
    let baseline = {
        let prog = Program::compile(&pipe, RuntimeOptions::default());
        prog.run(&inputs, &Sequential).unwrap()
    };
    for (name, check_writes, analysis) in rows {
        let prog = Program::compile(
            &pipe,
            RuntimeOptions {
                check_writes,
                analysis,
                ..Default::default()
            },
        );
        if analysis == AnalysisLevel::Verify {
            assert!(prog.verified_arrays() > 0, "pipeline arrays must elide");
        }
        g.bench(&format!("checked/pipeline/{name}/{n}"), n as u64, || {
            let out = prog.run(&inputs, &Sequential).unwrap();
            assert_eq!(
                out.array("out").max_abs_diff(baseline.array("out")),
                0.0,
                "checked modes must agree bitwise"
            );
            out
        });
    }
}

fn main() {
    let mut g = Harness::new("micro");
    dispatch_rows(&mut g);
    trace_rows(&mut g);
    checked_rows(&mut g);
    g.finish();
}
