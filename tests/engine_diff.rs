//! Differential property suite: the scheduled engine against the oracle.
//!
//! Random PS programs — 1-D recurrences with mixed real/int/bool bodies
//! (if-chains, short-circuit `and`/`or`, builtins, guarded `div`/`mod`,
//! dynamic subscripts, windowed and full storage) plus 2-D guarded grids —
//! run through the compiled engine (on `Sequential`, on a thread pool, and
//! with `check_writes`) and through `run_naive`, which evaluates the
//! equations on demand with no schedule, window or tape. Outputs must be
//! **bit-identical**: a tape performs an equation's operations in the
//! post-order of its `HExpr`, as the oracle does, so even NaN/infinity
//! propagation must match to the last bit — and because the oracle shares
//! neither the flowchart nor the memory plan, a wrong schedule or an
//! undersized window shows up here too.
//!
//! Driven by the shrinking `ps_support::rng::check` harness: a failure is
//! greedily minimized (operator chains halved, then bisected) and reported
//! with the `Lcg` state that replays it. The generators themselves are
//! shared with the analyzer property suite (see `generators.rs`).

#[path = "generators.rs"]
mod generators;

use generators::{arb_chain, arb_grid, assert_bits_eq, shrink_chain, shrink_grid, GridProgram};
use ps_core::{
    compile, execute, run_naive, Compilation, CompileOptions, Inputs, Outputs, OwnedArray, Program,
    RuntimeOptions, Sequential, ThreadPool,
};
use ps_support::rng::{check, shrink_vec};
use ps_support::Lcg;

/// Run `comp` compiled/sequential, compiled/pooled and compiled with
/// `check_writes`; all three must agree bit-for-bit with the oracle.
fn run_all_engines(comp: &Compilation, inputs: &Inputs) -> Result<(), String> {
    let naive = run_naive(&comp.module, inputs).map_err(|e| format!("naive: {e}"))?;
    let pool = ThreadPool::new(3);
    let plain = RuntimeOptions::default();
    let checked = RuntimeOptions {
        check_writes: true,
        ..plain
    };
    let legs: [(&str, &dyn ps_core::Executor, RuntimeOptions); 3] = [
        ("compiled", &Sequential, plain),
        ("compiled pooled", &pool, plain),
        ("compiled checked", &Sequential, checked),
    ];
    for (leg, executor, options) in legs {
        let out = execute(comp, inputs, executor, options).map_err(|e| format!("{leg}: {e}"))?;
        assert_bits_eq(&format!("{leg} vs naive"), &out, &naive)?;
    }
    Ok(())
}

#[test]
fn random_chains_are_bit_identical_across_engines() {
    check(0xd1ff_e4e1, 64, arb_chain, shrink_chain, |prog| {
        let src = prog.source();
        let comp = compile(&src, CompileOptions::default()).map_err(|e| format!("{e}\n{src}"))?;
        run_all_engines(&comp, &prog.inputs()).map_err(|e| format!("{e}\n{src}"))
    });
}

// ---- compile-once / run-many ----

/// A random batch of parameter vectors for the fixed grid program: one
/// `Program` must serve all of them — sequentially *and* concurrently —
/// each run bit-identical to the oracle's answer for that vector.
#[derive(Clone, Debug)]
struct ParamBatch {
    vecs: Vec<(i64, i64)>,
}

fn grid_param_inputs(m: i64, maxk: i64) -> Inputs {
    let side = (m + 2) as usize;
    let data: Vec<f64> = (0..side * side)
        .map(|i| ((i * 17 + 5) % 29) as f64 * 0.375)
        .collect();
    Inputs::new()
        .set_int("M", m)
        .set_int("maxK", maxk)
        .set_array("init", OwnedArray::real(vec![(0, m + 1), (0, m + 1)], data))
}

#[test]
fn one_program_many_runs_bit_identical() {
    let arb = |rng: &mut Lcg| ParamBatch {
        vecs: rng.vec_of(8, 12, |r| (r.int(2, 6), r.int(2, 6))),
    };
    let shrink = |p: &ParamBatch| {
        shrink_vec(&p.vecs, 8)
            .into_iter()
            .map(|vecs| ParamBatch { vecs })
            .collect()
    };
    // A fixed stencil: the randomness here is in the *parameter vectors*,
    // not the program — exactly the many-small-solves serving shape.
    let src = GridProgram {
        reads: vec![(0, 0), (-1, 0), (0, 1)],
    }
    .source();
    let comp = compile(&src, CompileOptions::default()).expect("grid compiles");
    check(0xd1ff_e4e3, 6, arb, shrink, |batch| {
        let prog = Program::compile(&comp, RuntimeOptions::default());
        let oracles: Vec<Outputs> = batch
            .vecs
            .iter()
            .map(|&(m, maxk)| {
                run_naive(&comp.module, &grid_param_inputs(m, maxk)).expect("oracle runs")
            })
            .collect();
        // Sequential pass: every vector twice (the second run of each
        // exercises the pooled-storage and specialization-cache paths).
        for round in 0..2 {
            for (ix, &(m, maxk)) in batch.vecs.iter().enumerate() {
                let out = prog
                    .run(&grid_param_inputs(m, maxk), &Sequential)
                    .map_err(|e| format!("program run: {e}"))?;
                assert_bits_eq(
                    &format!("program vs naive (round {round}, vec {ix})"),
                    &out,
                    &oracles[ix],
                )?;
            }
        }
        // Concurrent pass: 4 threads share the artifact; each runs the
        // whole batch. A pooled executor inside one thread mixes in the
        // parallel DOALL path.
        let results: Vec<Result<(), String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let prog = &prog;
                    let oracles = &oracles;
                    let vecs = &batch.vecs;
                    scope.spawn(move || -> Result<(), String> {
                        let pool;
                        let executor: &dyn ps_core::Executor = if t == 0 {
                            pool = ThreadPool::new(2);
                            &pool
                        } else {
                            &Sequential
                        };
                        for (ix, &(m, maxk)) in vecs.iter().enumerate() {
                            let out = prog
                                .run(&grid_param_inputs(m, maxk), executor)
                                .map_err(|e| format!("thread {t}: {e}"))?;
                            assert_bits_eq(&format!("thread {t}, vec {ix}"), &out, &oracles[ix])?;
                        }
                        Ok(())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in results {
            r?;
        }
        Ok(())
    });
}

#[test]
fn random_grids_are_bit_identical_across_engines() {
    check(0xd1ff_e4e2, 24, arb_grid, shrink_grid, |prog| {
        let src = prog.source();
        let comp = compile(&src, CompileOptions::default()).map_err(|e| format!("{e}\n{src}"))?;
        run_all_engines(&comp, &generators::grid_inputs(5, 5)).map_err(|e| format!("{e}\n{src}"))
    });
}

/// Fixed operands the generators never draw: negative divisors and
/// dividends under `div`/`mod`, every comparison against a NaN, an `and`
/// guard whose right side decides, signed zeros and infinities through
/// `min`/`max`/`abs`/`sqrt`.
#[test]
fn semantic_corners_match_the_oracle() {
    let src = "Corners: module (xs: array[I] of real; ys: array[I] of real;
                         ps: array[I] of int; qs: array[I] of int; n: int):
             [q: array[I] of int; r: array[I] of int; cmp: array[I] of int;
              lo: array[I] of real; hi: array[I] of real; mag: array[I] of real;
              root: array[I] of real; ilo: array[I] of int; ihi: array[I] of int];
         type I = 1 .. n;
         define
            q[I] = ps[I] div qs[I];
            r[I] = ps[I] mod qs[I];
            cmp[I] = (if xs[I] = ys[I] then 1 else 0) + (if xs[I] <> ys[I] then 2 else 0)
                   + (if xs[I] < ys[I] then 4 else 0) + (if xs[I] <= ys[I] then 8 else 0)
                   + (if xs[I] > ys[I] then 16 else 0) + (if xs[I] >= ys[I] then 32 else 0)
                   + (if (xs[I] < ys[I]) and (ps[I] > qs[I]) then 64 else 0);
            lo[I] = min(xs[I], ys[I]);
            hi[I] = max(xs[I], ys[I]);
            mag[I] = abs(xs[I]);
            root[I] = sqrt(ys[I]);
            ilo[I] = min(ps[I], abs(qs[I]));
            ihi[I] = max(ps[I], -qs[I]);
         end Corners;";
    let comp = compile(src, CompileOptions::default()).expect("corners compile");
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    let xs = vec![nan, 1.0, nan, -0.0, 0.0, inf, -inf, -2.5];
    let ys = vec![nan, nan, 1.0, 0.0, -0.0, inf, inf, -1.0];
    let ps = vec![7, -7, 7, -7, 0, -1, i64::MAX, i64::MIN + 1];
    let qs = vec![2, 2, -2, -2, -5, 3, -1, 7];
    let n = xs.len() as i64;
    let inputs = Inputs::new()
        .set_int("n", n)
        .set_array("xs", OwnedArray::real(vec![(1, n)], xs))
        .set_array("ys", OwnedArray::real(vec![(1, n)], ys))
        .set_array("ps", OwnedArray::int(vec![(1, n)], ps))
        .set_array("qs", OwnedArray::int(vec![(1, n)], qs));
    run_all_engines(&comp, &inputs).unwrap_or_else(|e| panic!("{e}"));
}
