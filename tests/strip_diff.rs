//! Differential suite for the strip walker (`crates/runtime/src/strip.rs`).
//!
//! Every case names the equations that must run strip-mined (checked
//! against `Program::strip_report`, so a change to the eligibility rule
//! cannot silently turn the suite into a scalar-vs-scalar comparison) and
//! then demands **bit-identical** outputs from the compiled engine on
//! `Sequential` (twice, the second run on pooled frames) and on
//! `ThreadPool::new(2)` and from the scheduler-independent `run_naive`
//! oracle.
//!
//! Sizes straddle the strip width — rows of 1, 2, 3 and one below, at and
//! above W and 2W cells — so segments end on, before and after strip edges,
//! with the index-set splitting exercised by guards at both edges, one
//! edge, an interior column, inequality bands, and no guard at all, and the
//! path lowering by nested and sequential `if`s whose arms differ in the
//! arrays they load, in stride, and in what runs between the branches.

#[path = "generators.rs"]
mod generators;

use generators::assert_bits_eq;
use ps_core::{
    compile, programs, run_naive, CompileOptions, Inputs, OwnedArray, Program, RuntimeOptions,
    ScalarReason, Sequential, StripVerdict, ThreadPool,
};

/// The strip walker's lane count (`ps_runtime`'s private `strip::W`).
const W: i64 = 64;

const WIDTHS: [i64; 9] = [1, 2, 3, W - 1, W, W + 1, 2 * W - 1, 2 * W, 2 * W + 1];

fn reals(n: usize, seed: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 37 + seed * 11 + 5) % 53) as f64 * 0.375 - 4.0)
        .collect()
}

/// Run `src` every way there is and compare bit for bit; `stripped` are
/// the labels that must be strip-mined, every other scheduled equation
/// must be scalar.
fn check(case: &str, src: &str, inputs: &Inputs, stripped: &[&str]) {
    let comp = compile(src, CompileOptions::default()).unwrap_or_else(|e| panic!("{case}: {e}"));
    let prog = Program::compile(&comp, RuntimeOptions::default());
    for (label, verdict) in prog.strip_report() {
        let is_stripped = matches!(verdict, StripVerdict::Stripped { .. });
        assert_eq!(
            is_stripped,
            stripped.contains(&label.as_str()),
            "{case}: {label} is `{verdict}`"
        );
    }
    let naive = run_naive(&comp.module, inputs).unwrap_or_else(|e| panic!("{case}: naive: {e}"));
    let seq = prog
        .run(inputs, &Sequential)
        .unwrap_or_else(|e| panic!("{case}: strips: {e}"));
    let pool = ThreadPool::new(2);
    let par = prog
        .run(inputs, &pool)
        .unwrap_or_else(|e| panic!("{case}: strips on a pool: {e}"));
    // A second sequential run reuses the pooled frames and their lanes.
    let again = prog.run(inputs, &Sequential).unwrap();
    for (what, got) in [("sequential", &seq), ("pooled", &par), ("rerun", &again)] {
        assert_bits_eq(&format!("{case}: {what} strips vs naive"), got, &naive)
            .unwrap_or_else(|e| panic!("{e}"));
    }
}

/// A `DO K (DOALL I (DOALL J))` relaxation over `rows × n` cells whose
/// interior expression and guard are the case under test.
fn guarded_grid(guard_and_body: &str) -> String {
    format!(
        "G: module (init: array[I,J] of real; rows: int; n: int; c: int; maxK: int):
             [out: array[I,J] of real];
         type I = 0 .. rows-1; J = 0 .. n-1; K = 2 .. maxK;
         var g: array [1 .. maxK] of array[I,J] of real;
         define
            g[1] = init;
            out = g[maxK];
            g[K,I,J] = {guard_and_body};
         end G;"
    )
}

fn grid_inputs(rows: i64, n: i64) -> Inputs {
    Inputs::new()
        .set_int("rows", rows)
        .set_int("n", n)
        .set_int("c", n / 2)
        .set_int("maxK", 4)
        .set_array(
            "init",
            OwnedArray::real(
                vec![(0, rows - 1), (0, n - 1)],
                reals((rows * n) as usize, n as usize),
            ),
        )
}

#[test]
fn guarded_rows_of_every_width_match_the_oracles() {
    let bodies = [
        (
            "both edges (and the outer counter)",
            "if (I = 0) or (J = 0) or (J = n-1) then g[K-1,I,J]
             else (g[K-1,I,J-1] + g[K-1,I-1,J] + g[K-1,I,J+1]) / 3",
        ),
        (
            "one edge",
            "if J = 0 then g[K-1,I,J] else g[K-1,I,J-1] * 0.5 + g[K-1,I,J]",
        ),
        (
            "an interior column",
            "if J = c then 0.0 - g[K-1,I,J] else g[K-1,I,J] * 1.25 + 0.5",
        ),
        (
            "inequality bands",
            "if (J < 2) or (J > n-3) then g[K-1,I,J] + 1.0
             else max(g[K-1,I,J-2], g[K-1,I,J+2]) - min(g[K-1,I,J-1], g[K-1,I,J+1])",
        ),
        (
            "not (J <> c): a jump-when-true branch",
            "if not (J <> c) then g[K-1,I,J] else g[K-1,I,J] - 2.5",
        ),
        ("no guard", "abs(g[K-1,I,J]) * 0.5 - 1.0"),
    ];
    for (name, body) in bodies {
        let src = guarded_grid(body);
        for n in WIDTHS {
            check(
                &format!("{name}, row width {n}"),
                &src,
                &grid_inputs(3, n),
                &["eq.1", "eq.2", "eq.3"],
            );
        }
    }
}

/// [`guarded_grid`] with more to load: `other[I,J]`, the transposed
/// `tr[J,I]` (stride `rows` along `J`) and the row-invariant `col[I]`
/// (stride 0).
fn multi_path_grid(body: &str) -> String {
    format!(
        "P: module (init: array[I,J] of real; other: array[I,J] of real;
                    tr: array[J,I] of real; col: array[I] of real;
                    rows: int; n: int; c: int; maxK: int):
             [out: array[I,J] of real];
         type I = 0 .. rows-1; J = 0 .. n-1; K = 2 .. maxK;
         var g: array [1 .. maxK] of array[I,J] of real;
         define
            g[1] = init;
            out = g[maxK];
            g[K,I,J] = {body};
         end P;"
    )
}

fn multi_path_inputs(rows: i64, n: i64) -> Inputs {
    let cells = (rows * n) as usize;
    grid_inputs(rows, n)
        .set_array(
            "other",
            OwnedArray::real(vec![(0, rows - 1), (0, n - 1)], reals(cells, 3)),
        )
        .set_array(
            "tr",
            OwnedArray::real(vec![(0, n - 1), (0, rows - 1)], reals(cells, 6)),
        )
        .set_array(
            "col",
            OwnedArray::real(vec![(0, rows - 1)], reals(rows as usize, 10)),
        )
}

#[test]
fn multi_path_rows_of_every_width_match_the_oracles() {
    let bodies = [
        (
            "an else-if chain: four paths, one a copy",
            "if J = 0 then g[K-1,I,J]
             else if J < c then g[K-1,I,J-1] + other[I,J]
             else if J = n-1 then other[I,J] * 2.0
             else g[K-1,I,J+1] - g[K-1,I,J-1]",
        ),
        (
            "an `if` nested in a then-arm",
            "if J > 0 then (if J < n-1 then g[K-1,I,J-1] + g[K-1,I,J+1] else 0.5 - g[K-1,I,J])
             else g[K-1,I,J] * 3.0",
        ),
        (
            "two copies of different arrays",
            "if J < c then init[I,J] else other[I,J]",
        ),
        (
            "a guard on the outer counter only: one segment per row",
            "if I = 0 then g[K-1,I,J] else g[K-1,I-1,J] * 0.5 + other[I,J]",
        ),
        (
            "an iota on one path, a broadcast on both",
            "if J < c then real(J) * 0.5 + g[K-1,I,J] else real(I) - real(J)",
        ),
        (
            "a row-invariant load as operand and as the whole arm",
            "if J = c then col[I] else g[K-1,I,J] * col[I] + col[I]",
        ),
        (
            "a transposed load as the whole arm and as operand",
            "if J = 0 then tr[J,I] else tr[J,I] + g[K-1,I,J-1]",
        ),
        (
            "straight-line code before, between and after the branches",
            "g[K-1,I,J] * 0.5 + (if J = c then 1.0 else other[I,J])
             + (if J < 2 then col[I] else tr[J,I]) - other[I,J]",
        ),
        (
            "four sequential guards: sixteen ways, the most a plan holds",
            "(if J < 1 then 1.0 else init[I,J]) + (if J < 2 then 2.0 else other[I,J])
             + (if J > c then 4.0 else tr[J,I]) + (if I = 1 then col[I] else 8.0)",
        ),
    ];
    for (name, body) in bodies {
        let src = multi_path_grid(body);
        for n in WIDTHS {
            // A square grid makes the transposed stride the row length.
            let square = (body.contains("tr[J,I]") && n <= W + 1).then_some(n);
            for rows in [Some(3), square].into_iter().flatten() {
                check(
                    &format!("{name}, {rows} rows of width {n}"),
                    &src,
                    &multi_path_inputs(rows, n),
                    &["eq.1", "eq.2", "eq.3"],
                );
            }
        }
    }
}

#[test]
fn a_body_past_the_path_cap_keeps_the_scalar_walker_and_still_matches() {
    let src = multi_path_grid(
        "(if J < 1 then 1.0 else init[I,J]) + (if J < 2 then 2.0 else other[I,J])
         + (if J > c then 4.0 else tr[J,I]) + (if I = 1 then col[I] else 8.0)
         + (if J = c then g[K-1,I,J] else 16.0)",
    );
    let comp = compile(&src, CompileOptions::default()).unwrap();
    let report = Program::compile(&comp, RuntimeOptions::default()).strip_report();
    let eq3 = report.iter().find(|(label, _)| label == "eq.3").unwrap();
    assert_eq!(eq3.1, StripVerdict::Scalar(ScalarReason::TooManyPaths));
    assert_eq!(eq3.1.to_string(), "scalar: too many paths");
    for n in [1, W - 1, 2 * W + 1] {
        check(
            &format!("five sequential guards, width {n}"),
            &src,
            &multi_path_inputs(3, n),
            &["eq.1", "eq.2"],
        );
    }
}

#[test]
fn an_empty_inner_range_runs_no_strip() {
    // Columns 2..n of `b` are a DOALL over an empty range when n = 1;
    // column 1 strips along I, a store with stride n.
    let src = "E: module (xs: array[I,J] of real; m: int; n: int): [b: array[I,J] of real];
         type I = 1 .. m; J = 1 .. n; T = 2 .. n;
         define
            b[I,1] = xs[I,1];
            b[I,T] = xs[I,T] * 2.0 + xs[I,T-1];
         end E;";
    for n in [1, 2, W + 2] {
        let inputs = Inputs::new().set_int("m", 3).set_int("n", n).set_array(
            "xs",
            OwnedArray::real(vec![(1, 3), (1, n)], reals((3 * n) as usize, 3)),
        );
        check(
            &format!("empty range, n = {n}"),
            src,
            &inputs,
            &["eq.1", "eq.2"],
        );
    }
}

#[test]
fn a_transposed_read_gathers_with_a_non_unit_stride() {
    let src = "T: module (a: array[I,J] of real; n: int): [b: array[I,J] of real];
         type I, J = 1 .. n;
         define b[I,J] = a[J,I] - a[I,J] * 0.25;
         end T;";
    for n in [1, W - 1, W + 1] {
        let inputs = Inputs::new().set_int("n", n).set_array(
            "a",
            OwnedArray::real(vec![(1, n), (1, n)], reals((n * n) as usize, 7)),
        );
        check(&format!("transpose, n = {n}"), src, &inputs, &["eq.1"]);
    }
}

#[test]
fn real_of_the_inner_counter_is_an_iota_and_of_an_outer_one_a_broadcast() {
    let src = "C: module (m: int; n: int; bias: real): [c: array[I,J] of real];
         type I = 1 .. m; J = -3 .. n;
         define c[I,J] = real(J) * bias + real(I) * 3.25 + real(n);
         end C;";
    for n in [0, W - 5, 2 * W] {
        let inputs = Inputs::new()
            .set_int("m", 3)
            .set_int("n", n)
            .set_real("bias", 0.5);
        check(&format!("real(J), n = {n}"), src, &inputs, &["eq.1"]);
    }
}

#[test]
fn a_local_scalar_is_broadcast_into_the_strip() {
    let src = "S: module (xs: array[I] of real; n: int; gain: real): [out: array[I] of real];
         type I = 1 .. n;
         var scale: real;
         define
            scale = gain * gain + 1.0;
            out[I] = xs[I] * scale - gain;
         end S;";
    let n = W + 3;
    let inputs = Inputs::new()
        .set_int("n", n)
        .set_real("gain", 1.5)
        .set_array("xs", OwnedArray::real(vec![(1, n)], reals(n as usize, 9)));
    check("local scalar", src, &inputs, &["eq.2"]);
}

/// Every element-wise f-op the tape has, on operands that reach the
/// corners (negative under `sqrt`/`ln` for NaNs, zero divisors for
/// infinities, signed zeros): the lane arithmetic must not drift from the
/// scalar walkers' by a bit.
#[test]
fn every_f_op_agrees_bit_for_bit_lane_by_lane() {
    let src = "F: module (xs: array[I] of real; ys: array[I] of real; n: int):
            [out: array[I] of real];
         type I = 1 .. n;
         define
            out[I] = min(xs[I] + ys[I], xs[I] - ys[I]) * max(xs[I], -ys[I]) / ys[I]
                   + sqrt(xs[I]) + ln(abs(ys[I])) + exp(xs[I] * 0.125)
                   + sin(xs[I]) * cos(ys[I]) + real(I) / xs[I];
         end F;";
    let n = 2 * W + 5;
    let mut xs = reals(n as usize, 5);
    let mut ys = reals(n as usize, 8);
    (xs[3], ys[3]) = (0.0, 0.0);
    (xs[W as usize], ys[W as usize]) = (-0.0, 1.5);
    (xs[7], ys[7]) = (f64::INFINITY, -0.0);
    let inputs = Inputs::new()
        .set_int("n", n)
        .set_array("xs", OwnedArray::real(vec![(1, n)], xs))
        .set_array("ys", OwnedArray::real(vec![(1, n)], ys));
    check("every f-op", src, &inputs, &["eq.1"]);
}

#[test]
fn pipeline_and_heat_builtins_match_the_oracles() {
    // Unary ops (`sqrt(abs(..))`) and three back-to-back 1-D DOALLs.
    let n = 2 * W + 2;
    let inputs = Inputs::new()
        .set_int("n", n)
        .set_array("xs", OwnedArray::real(vec![(1, n)], reals(n as usize, 1)));
    check(
        "pipeline",
        programs::PIPELINE,
        &inputs,
        &["eq.1", "eq.2", "eq.3"],
    );
    // A DO around a guarded DOALL, windowed in time.
    let m = 2 * W + 1;
    let inputs = Inputs::new()
        .set_int("M", m)
        .set_int("maxK", 6)
        .set_real("alpha", 0.125)
        .set_array(
            "u0",
            OwnedArray::real(vec![(0, m + 1)], reals((m + 2) as usize, 2)),
        );
    check(
        "heat_1d",
        programs::HEAT_1D,
        &inputs,
        &["eq.1", "eq.2", "eq.3"],
    );
}

#[test]
fn gather_keeps_the_scalar_walker_and_still_matches() {
    let n = W + 1;
    let perm: Vec<i64> = (0..n).map(|i| (i * 7 + 3) % n + 1).collect();
    let inputs = Inputs::new()
        .set_int("n", n)
        .set_array("xs", OwnedArray::real(vec![(1, n)], reals(n as usize, 4)))
        .set_array("perm", OwnedArray::int(vec![(1, n)], perm));
    check("gather", programs::GATHER, &inputs, &[]);
}
