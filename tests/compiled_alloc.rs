//! Allocation accounting for the compiled engine's hot path.
//!
//! A counting `GlobalAlloc` wraps the system allocator; the key property is
//! that the number of heap allocations during a `run_module` is
//! **independent of the iteration count**: growing the grid side (more
//! `DOALL` elements per region) or the time extent (more `DO` iterations,
//! each dispatching the same regions) must not change — or, for regions,
//! must only linearly shift — the allocation count. Array buffers are
//! single allocations whatever their length, so store setup cancels out and
//! any per-iteration allocation in the tape walk would show up directly.

use ps_core::{
    analyze, compile, execute, programs, Compilation, CompileOptions, Inputs, OwnedArray, Program,
    RuntimeOptions, Sequential, StorageMode,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

#[path = "generators.rs"]
mod generators;

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

fn allocs_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

fn grid_inputs(m: i64, maxk: i64) -> Inputs {
    let side = (m + 2) as usize;
    let data: Vec<f64> = (0..side * side)
        .map(|i| ((i * 31 + 7) % 101) as f64 * 0.25)
        .collect();
    Inputs::new()
        .set_int("M", m)
        .set_int("maxK", maxk)
        .set_array(
            "InitialA",
            OwnedArray::real(vec![(0, m + 1), (0, m + 1)], data),
        )
}

fn run(comp: &Compilation, inputs: &Inputs) {
    execute(comp, inputs, &Sequential, RuntimeOptions::default()).unwrap();
}

/// Same region structure, vastly different element counts: the compiled
/// engine must allocate exactly as much for a 26×26 grid as for a 10×10
/// one (buffers are one allocation regardless of length), proving the
/// steady-state `DOALL` element loop allocates nothing.
#[test]
fn doall_elements_are_allocation_free() {
    let comp = compile(programs::RELAXATION_V1, CompileOptions::default()).unwrap();
    let maxk = 6;
    let small = grid_inputs(8, maxk);
    let large = grid_inputs(24, maxk);
    // Warm both shapes once: first-use interning and lazy one-time setup
    // must not pollute the measured runs.
    run(&comp, &small);
    run(&comp, &large);

    let a_small = allocs_during(|| run(&comp, &small));
    let a_large = allocs_during(|| run(&comp, &large));
    assert_eq!(
        a_small, a_large,
        "allocation count must not depend on the DOALL element count \
         (10×10 vs 26×26 grid, {maxk} planes)"
    );
}

/// Compile-once / run-many: after the first run of a `Program` with a
/// given parameter vector, later runs perform **zero lowering or
/// validation allocations** — the tapes were lowered at `Program::compile`,
/// the address specialization is a cache hit, and the store draws every
/// buffer from the run arena. Observable two ways: the per-run allocation
/// count reaches a fixed point immediately (run 2 == run 3 == run 4), and
/// it sits far below the compile-per-call path, whose every call re-lowers
/// and re-validates each tape.
#[test]
fn program_second_run_does_no_lowering_allocations() {
    let comp = compile(programs::RELAXATION_V1, CompileOptions::default()).unwrap();
    let inputs = grid_inputs(8, 6);
    let prog = Program::compile(&comp, RuntimeOptions::default());
    prog.run(&inputs, &Sequential).unwrap(); // first run: specialize + fill pools
    let steady: Vec<usize> = (0..3)
        .map(|_| {
            allocs_during(|| {
                prog.run(&inputs, &Sequential).unwrap();
            })
        })
        .collect();
    assert_eq!(
        steady[0], steady[1],
        "second and third runs allocate identically: {steady:?}"
    );
    assert_eq!(steady[1], steady[2], "the fixed point holds: {steady:?}");
    assert_eq!(
        prog.specialization_count(),
        1,
        "repeat runs never re-lower or re-specialize"
    );
    // The compile-per-call path pays lowering + validation + fresh-store
    // allocation on every call.
    run(&comp, &inputs); // warm interning etc.
    let per_call = allocs_during(|| run(&comp, &inputs));
    assert!(
        steady[0] * 2 < per_call,
        "pooled Program::run ({}) must allocate less than half of the \
         compile-per-call path ({per_call})",
        steady[0]
    );
}

/// Growing the DO extent adds parallel regions (each region costs a
/// constant: one frames clone per chunk) but no per-element allocations:
/// the count must grow exactly linearly in the number of DO iterations.
/// `A` is windowed (2 planes), so storage does not grow with `maxK`.
#[test]
fn do_iterations_cost_constant_allocations() {
    let comp = compile(programs::RELAXATION_V1, CompileOptions::default()).unwrap();
    let a = comp.module.data_by_name("A").unwrap();
    assert_eq!(
        comp.schedule.memory.window(a, 0),
        Some(2),
        "A must be windowed so storage is maxK-independent"
    );
    let m = 8;
    let inputs: Vec<Inputs> = [8, 16, 32, 64].iter().map(|&k| grid_inputs(m, k)).collect();
    for i in &inputs {
        run(&comp, i);
    }
    let counts: Vec<usize> = inputs
        .iter()
        .map(|i| allocs_during(|| run(&comp, i)))
        .collect();
    // Per-DO-iteration deltas: 8→16, 16→32, 32→64 double the added
    // iterations, so the deltas must double too (pure linearity).
    let d1 = counts[1] - counts[0];
    let d2 = counts[2] - counts[1];
    let d3 = counts[3] - counts[2];
    assert_eq!(
        d2,
        2 * d1,
        "superlinear allocation growth in DO: {counts:?}"
    );
    assert_eq!(
        d3,
        2 * d2,
        "superlinear allocation growth in DO: {counts:?}"
    );
}

/// Strip paths are chosen per rectangle of the nest, not per run: a body
/// whose plane splits into five column bands over three paths (one of them
/// a gather with stride 0 along rows) allocates the same for 12-cell rows
/// as for 200-cell ones, and for 4 rows as for 40 or 400 — cutting the
/// nest, selecting a path, placing its accesses and anchoring its address
/// classes all happen in scratch the frames own.
#[test]
fn strip_path_selection_is_allocation_free() {
    let src = "P: module (init: array[I,J] of real; col: array[I] of real;
                          rows: int; n: int; maxK: int): [out: array[I,J] of real];
         type I = 0 .. rows-1; J = 0 .. n-1; K = 2 .. maxK;
         var g: array [1 .. maxK] of array[I,J] of real;
         define
            g[1] = init;
            out = g[maxK];
            g[K,I,J] = if (J = 0) or (J = n-1) then g[K-1,I,J]
                       else if J = 5 then col[I]
                       else (g[K-1,I,J-1] + g[K-1,I,J+1]) / 2 + real(J);
         end P;";
    let comp = compile(src, CompileOptions::default()).unwrap();
    let prog = Program::compile(&comp, RuntimeOptions::default());
    let eq3 = prog.strip_report().into_iter().find(|(l, _)| l == "eq.3");
    let verdict = eq3.expect("eq.3 is scheduled").1.to_string();
    assert!(verdict.contains("3 paths"), "{verdict}");
    let inputs = |rows: i64, n: i64| {
        let data: Vec<f64> = (0..rows * n).map(|i| (i % 17) as f64 * 0.5).collect();
        Inputs::new()
            .set_int("rows", rows)
            .set_int("n", n)
            .set_int("maxK", 5)
            .set_array(
                "init",
                OwnedArray::real(vec![(0, rows - 1), (0, n - 1)], data),
            )
            .set_array(
                "col",
                OwnedArray::real(vec![(0, rows - 1)], vec![1.5; rows as usize]),
            )
    };
    // Short wide rectangles run along rows, tall narrow ones down columns.
    let shapes = [
        inputs(4, 12),
        inputs(4, 200),
        inputs(40, 200),
        inputs(400, 12),
    ];
    for shape in &shapes {
        prog.run(shape, &Sequential).unwrap(); // specialize, fill the pools
    }
    let counts: Vec<usize> = shapes
        .iter()
        .map(|shape| allocs_during(|| drop(prog.run(shape, &Sequential).unwrap())))
        .collect();
    assert_eq!(counts[0], counts[1], "per row length: {counts:?}");
    assert_eq!(counts[1], counts[2], "per row count: {counts:?}");
    assert_eq!(counts[2], counts[3], "per rectangle shape: {counts:?}");
}

/// One cold sweep as a `psc` user or a registry miss pays it: `compile`,
/// `analyze` and the `Program` artifact for the eight builtins plus the two
/// hyperplane variants the goldens pin.
fn cold_sweep() {
    let variants = [
        (programs::RELAXATION_V2, StorageMode::Windowed),
        (programs::TABLE_2D, StorageMode::Full),
    ];
    for (_, src) in programs::ALL {
        let comp = compile(src, CompileOptions::default()).unwrap();
        assert!(!analyze(&comp).has_errors());
        Program::try_compile(&comp, RuntimeOptions::default()).unwrap();
    }
    for (src, mode) in variants {
        let options = CompileOptions {
            hyperplane: Some(mode),
            ..Default::default()
        };
        let comp = compile(src, options).unwrap();
        assert!(!analyze(&comp).has_errors());
        Program::compile_transformed(&comp, RuntimeOptions::default());
    }
}

/// The cold path's allocation count repeats exactly and stays at most
/// 70 % of what it was while `compile` emitted C eagerly and the verifier
/// cloned its state per tape step and formatted its report as it went:
/// 17 368 allocations per sweep then, 10 440 once both stopped (60 %) — and
/// at most 8 400 since the scheduler stopped cloning the dependence graph,
/// hashing node sets and formatting the Figure-5 table nobody asked for,
/// and the front end stopped copying its source for diagnostics it does not
/// print (7 803 measured at that change). At most 5 400 since tape
/// validation formats only faults, `Affine` and subscript terms sit inline,
/// and the verifier borrows the tapes it checks instead of copying them
/// (5 094 measured at that change). At most 5 078, measured, since the
/// verifier walks the tapes' own instructions instead of a step list built
/// per equation.
#[test]
fn cold_compile_allocation_budget() {
    const EAGER_SWEEP: usize = 17_368;
    const GRAPH_CLONING_SWEEP: usize = 10_440;
    const COPIED_VERIFIER_IR_SWEEP: usize = 7_803;
    const STEP_LIST_SWEEP: usize = 5_094;
    cold_sweep(); // first-use interning
    let first = allocs_during(cold_sweep);
    let second = allocs_during(cold_sweep);
    assert_eq!(first, second, "a cold sweep's allocation count repeats");
    assert!(
        first * 10 <= EAGER_SWEEP * 7,
        "a cold sweep allocates {first} times, over 70 % of {EAGER_SWEEP}"
    );
    assert!(
        first <= 8_400,
        "a cold sweep allocates {first} times, over 8 400 ({GRAPH_CLONING_SWEEP} before)"
    );
    assert!(
        first <= 5_400,
        "a cold sweep allocates {first} times, over 5 400 ({COPIED_VERIFIER_IR_SWEEP} before)"
    );
    assert!(
        first <= 5_078,
        "a cold sweep allocates {first} times, over 5 078 ({STEP_LIST_SWEEP} before)"
    );
}

/// The verifier allocates per program and per equation only for what its
/// report keeps: its per-equation buffers are one scratch reused across
/// equations, and the IR borrows the tapes' instructions and address
/// tables. `ps_core::analyze` on `chain64` (lowering included) allocates at
/// most 45 % of the 3 973 it made while it copied every tape into a second
/// IR, and at most the 946 measured once it stopped building a step list
/// per equation (1 017 before); `chain256` at most 4.2 × `chain64` (3 463,
/// 3.7 ×).
#[test]
fn verifier_allocations_are_per_program() {
    const COPIED_IR_CHAIN64: usize = 3_973;
    const STEP_LIST_CHAIN64: usize = 1_017;
    let verify_allocs = |n: usize| {
        let comp = compile(&generators::chain_source(n), CompileOptions::default()).unwrap();
        let run = || assert!(!analyze(&comp).has_errors());
        run(); // first-use interning
        allocs_during(run)
    };
    let (chain64, chain256) = (verify_allocs(64), verify_allocs(256));
    assert!(
        chain64 * 100 <= COPIED_IR_CHAIN64 * 45,
        "chain64 verifies in {chain64} allocations, over 45 % of {COPIED_IR_CHAIN64}"
    );
    assert!(
        chain64 <= 946,
        "chain64 verifies in {chain64} allocations, over 946 ({STEP_LIST_CHAIN64} before)"
    );
    assert!(
        chain256 * 10 <= chain64 * 42,
        "chain256 verifies in {chain256} allocations, over 4.2 x chain64's {chain64}"
    );
}

/// Schedule-Graph allocates per component it schedules, not per node of
/// the graph it is a part of: on `chain64` (67 equations, 135 nodes) at
/// most a third of the 4 701 allocations it made while every recursion
/// re-ran SCC over the whole graph through hash sets (606 measured now),
/// and four times the equations cost about four times as much (`chain256`:
/// 2 160, 3.6 ×; 18 675 before, 4.0 × — it was the time, not the count,
/// that grew faster than the program).
#[test]
fn schedule_allocations_are_linear_and_lean() {
    const WHOLE_GRAPH_SCC_CHAIN64: usize = 4_701;
    let schedule_allocs = |n: usize| {
        let module = ps_core::frontend(&generators::chain_source(n)).unwrap();
        let dg = ps_core::build_depgraph(&module);
        let run = || {
            ps_core::schedule_module(&module, &dg, Default::default()).unwrap();
        };
        run(); // first-use interning
        allocs_during(run)
    };
    let (chain64, chain256) = (schedule_allocs(64), schedule_allocs(256));
    assert!(
        chain64 * 3 <= WHOLE_GRAPH_SCC_CHAIN64,
        "chain64 schedules in {chain64} allocations, over a third of {WHOLE_GRAPH_SCC_CHAIN64}"
    );
    assert!(
        chain256 * 10 <= chain64 * 42,
        "chain256 schedules in {chain256} allocations, over 4.2 x chain64's {chain64}"
    );
}
