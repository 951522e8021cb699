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
//! above W and 2W cells, and 1, 2, 3 and W+1 of them — so rectangles end
//! on, before and after strip edges in both directions, with the index-set
//! splitting exercised by guards on either counter and on both: at both
//! edges, one edge, an interior row or column, inequality bands, counters
//! compared with each other (which walk the nest row by row), and no guard
//! at all; the path lowering by nested and sequential `if`s whose arms
//! differ in the arrays they load, in stride, and in what runs between the
//! branches; and the passes by fused pairs on either side of an op that
//! does not commute, temporaries that fuse with nothing, and last passes
//! that write the store's cells or, for a column, lanes.

#[path = "generators.rs"]
mod generators;

use generators::assert_bits_eq;
use ps_core::{
    compile, programs, run_naive, CompileOptions, Inputs, OwnedArray, Program, RuntimeOptions,
    ScalarReason, Sequential, StripVerdict, ThreadPool, STRIP_LANES,
};

/// The strip walker's lane count.
const W: i64 = STRIP_LANES as i64;

const WIDTHS: [i64; 9] = [1, 2, 3, W - 1, W, W + 1, 2 * W - 1, 2 * W, 2 * W + 1];

/// Row counts of a grid: a column strip of one, two and three cells, and
/// one past a whole strip.
const ROWS: [i64; 4] = [1, 2, 3, W + 1];

fn reals(n: usize, seed: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 37 + seed * 11 + 5) % 53) as f64 * 0.375 - 4.0)
        .collect()
}

/// Run `src` every way there is and compare bit for bit; `stripped` are
/// the labels that must be strip-mined, every other scheduled equation
/// must be scalar.
fn check(case: &str, src: &str, inputs: &Inputs, stripped: &[&str]) {
    check_shapes(src, &[(case.to_string(), inputs.clone())], stripped);
}

/// [`check`] for one program on several inputs, compiled once.
fn check_shapes(src: &str, shapes: &[(String, Inputs)], stripped: &[&str]) {
    let case = shapes.first().map_or("no shape", |(case, _)| case.as_str());
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
    let pool = ThreadPool::new(2);
    for (case, inputs) in shapes {
        let naive =
            run_naive(&comp.module, inputs).unwrap_or_else(|e| panic!("{case}: naive: {e}"));
        let seq = prog
            .run(inputs, &Sequential)
            .unwrap_or_else(|e| panic!("{case}: strips: {e}"));
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
}

/// How `label` of `src` walks its nest: the strip report's annotation
/// between the counter and the paths (` within I`, `, row by row`).
fn nest_walk(src: &str, label: &str) -> String {
    let comp = compile(src, CompileOptions::default()).unwrap();
    let report = Program::compile(&comp, RuntimeOptions::default()).strip_report();
    let verdict = report.into_iter().find(|(l, _)| l == label).unwrap().1;
    let text = verdict.to_string();
    let walk = text
        .strip_prefix("stripped along J")
        .expect("stripped along J");
    walk.split(" — ").next().unwrap().to_string()
}

/// A `DO K (DOALL I (DOALL J))` relaxation over `rows × n` cells whose
/// interior expression and guard are the case under test; `c` and `r` are
/// an interior column and row.
fn guarded_grid(guard_and_body: &str) -> String {
    format!(
        "G: module (init: array[I,J] of real; rows: int; n: int; c: int; r: int; maxK: int):
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
        .set_int("r", rows / 2)
        .set_int("maxK", 4)
        .set_array(
            "init",
            OwnedArray::real(
                vec![(0, rows - 1), (0, n - 1)],
                reals((rows * n) as usize, n as usize),
            ),
        )
}

/// Every row count of [`ROWS`] by every width of [`WIDTHS`], named. The
/// tall grids compute one plane, not three: reusing a window across planes
/// is the short grids' to check, and the oracle's time goes as the cells.
fn grids(name: &str, inputs: impl Fn(i64, i64) -> Inputs) -> Vec<(String, Inputs)> {
    let shapes = ROWS.iter().flat_map(|&rows| WIDTHS.map(|n| (rows, n)));
    let named = |(rows, n)| {
        let inputs = inputs(rows, n);
        let inputs = if rows > 3 {
            inputs.set_int("maxK", 2)
        } else {
            inputs
        };
        (format!("{name}, {rows} rows of width {n}"), inputs)
    };
    shapes.map(named).collect()
}

#[test]
fn guarded_rows_of_every_width_match_the_oracles() {
    let bodies = [
        (
            "both edges of J (and one of I)",
            "if (I = 0) or (J = 0) or (J = n-1) then g[K-1,I,J]
             else (g[K-1,I,J-1] + g[K-1,I-1,J] + g[K-1,I,J+1]) / 3",
        ),
        (
            "both edges of both: nine rectangles",
            "if (I = 0) or (J = 0) or (I = rows-1) or (J = n-1) then g[K-1,I,J]
             else (g[K-1,I,J-1] + g[K-1,I-1,J] + g[K-1,I,J+1] + g[K-1,I+1,J]) / 4",
        ),
        (
            "one edge",
            "if J = 0 then g[K-1,I,J] else g[K-1,I,J-1] * 0.5 + g[K-1,I,J]",
        ),
        (
            "one edge of each",
            "if (I = 0) or (J = 0) then g[K-1,I,J] * 0.5
             else g[K-1,I-1,J] * 0.5 + g[K-1,I,J-1]",
        ),
        (
            "an interior column",
            "if J = c then 0.0 - g[K-1,I,J] else g[K-1,I,J] * 1.25 + 0.5",
        ),
        (
            "an interior row",
            "if I = r then 0.0 - g[K-1,I,J] else g[K-1,I,J] * 1.25 + 0.5",
        ),
        (
            "inequality bands",
            "if (J < 2) or (J > n-3) then g[K-1,I,J] + 1.0
             else max(g[K-1,I,J-2], g[K-1,I,J+2]) - min(g[K-1,I,J-1], g[K-1,I,J+1])",
        ),
        (
            "inequality bands of I",
            "if (I < 2) or (I > rows-3) then g[K-1,I,J] + 1.0
             else max(g[K-1,I-2,J], g[K-1,I+2,J]) - g[K-1,I-1,J]",
        ),
        (
            "inequality bands of both",
            "if (I < 2) or (J > n-3) then g[K-1,I,J] + 1.0
             else if (J < 1) or (I >= rows-1) then g[K-1,I,J] * 2.0
             else g[K-1,I-2,J] + g[K-1,I,J+2] - g[K-1,I+1,J-1]",
        ),
        (
            "not (J <> c): a jump-when-true branch",
            "if not (J <> c) then g[K-1,I,J] else g[K-1,I,J] - 2.5",
        ),
        ("no guard", "abs(g[K-1,I,J]) * 0.5 - 1.0"),
    ];
    for (name, body) in bodies {
        let src = guarded_grid(body);
        assert_eq!(nest_walk(&src, "eq.3"), " within I", "{name}");
        check_shapes(&src, &grids(name, grid_inputs), &["eq.1", "eq.2", "eq.3"]);
    }
}

/// A branch comparing the two counters changes outcome along a diagonal,
/// which no rectangle follows: such a nest is walked row by row, and
/// inside a row the compare is one of `J` with a fixed value again.
#[test]
fn counters_compared_with_each_other_walk_row_by_row() {
    let bodies = [
        (
            "I = J",
            "if I = J then g[K-1,I,J] * 2.0 else g[K-1,I,J] - 1.0",
        ),
        (
            "J < I, and an edge",
            "if J < I then g[K-1,I,J] + real(I) else if I = 0 then 0.5
             else g[K-1,I-1,J] * 0.5",
        ),
    ];
    for (name, body) in bodies {
        let src = guarded_grid(body);
        assert_eq!(nest_walk(&src, "eq.3"), ", row by row", "{name}");
        assert_eq!(nest_walk(&src, "eq.1"), " within I", "{name}");
        check_shapes(&src, &grids(name, grid_inputs), &["eq.1", "eq.2", "eq.3"]);
    }
}

/// Rows 2..m of `b` are a nest over an empty outer range when m = 1; see
/// [`an_empty_inner_range_runs_no_strip`] for an empty inner one.
#[test]
fn an_empty_outer_range_runs_no_rectangle() {
    let src = "E: module (xs: array[I,J] of real; m: int; n: int): [b: array[I,J] of real];
         type I = 1 .. m; J = 1 .. n; S = 2 .. m;
         define
            b[1,J] = xs[1,J];
            b[S,J] = if J = 1 then xs[S,J] else xs[S,J] * 2.0 + xs[S-1,J-1];
         end E;";
    assert_eq!(nest_walk(src, "eq.2"), " within S");
    let sizes = [1, 2, W + 2];
    let shapes = sizes
        .iter()
        .flat_map(|&m| sizes.map(|n| (m, n)))
        .map(|(m, n)| {
            let xs = OwnedArray::real(vec![(1, m), (1, n)], reals((m * n) as usize, 3));
            let inputs = Inputs::new().set_int("m", m).set_int("n", n);
            (format!("{m} rows of width {n}"), inputs.set_array("xs", xs))
        });
    check_shapes(src, &shapes.collect::<Vec<_>>(), &["eq.1", "eq.2"]);
}

/// [`guarded_grid`] with more to load: `other[I,J]`, the transposed
/// `tr[J,I]` (stride `rows` along `J`) and the row-invariant `col[I]`
/// (stride 0).
fn multi_path_grid(body: &str) -> String {
    format!(
        "P: module (init: array[I,J] of real; other: array[I,J] of real;
                    tr: array[J,I] of real; col: array[I] of real;
                    rows: int; n: int; c: int; r: int; maxK: int):
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
        (
            "real(I), an iota, and real(J), a broadcast, down the edge columns",
            "if (J = 0) or (J = n-1) then real(I) * 0.5 + real(J) else g[K-1,I,J]",
        ),
        (
            "the transposed and the row-invariant load down an edge column",
            "if J = 0 then tr[J,I] + col[I] else if J = n-1 then col[I] else g[K-1,I,J]",
        ),
        (
            "a band two columns wide, copied down",
            "if J < 2 then other[I,J] else g[K-1,I,J] - tr[J,I]",
        ),
    ];
    for (name, body) in bodies {
        let src = multi_path_grid(body);
        let mut shapes = grids(name, multi_path_inputs);
        // A square grid makes the transposed stride the row length.
        for n in WIDTHS
            .into_iter()
            .filter(|&n| body.contains("tr[J,I]") && n <= W + 1)
        {
            let case = format!("{name}, square of width {n}");
            shapes.push((case, multi_path_inputs(n, n)));
        }
        check_shapes(&src, &shapes, &["eq.1", "eq.2", "eq.3"]);
    }
}

/// Passes: an arithmetic op fused with the next, the temporary on either
/// side of a second op that does not commute; a temporary that the next op
/// does not read, so it fuses with nothing; and a last pass that writes
/// the store's cells — a plane of `g`, whose time dimension is windowed —
/// unless they are a column, a one-column rectangle down `I`, where it
/// writes lanes the store then scatters.
#[test]
fn passes_match_the_oracles() {
    let bodies = [
        (
            "the temporary right of a subtract: c - a*b",
            "if (I = 0) or (J = 0) then g[K-1,I,J]
             else other[I,J] - g[K-1,I,J-1] * g[K-1,I-1,J]",
        ),
        (
            "the temporary right of a divide: c / (a - b)",
            "if J = 0 then g[K-1,I,J] else other[I,J] / (g[K-1,I,J] - g[K-1,I,J-1])",
        ),
        (
            "the temporary left of a divide, right of a subtract",
            "(g[K-1,I,J] - other[I,J]) / col[I] - (other[I,J] + tr[J,I]) * g[K-1,I,J]",
        ),
        (
            "a temporary the next op does not read",
            "(g[K-1,I,J] + other[I,J]) * (col[I] - g[K-1,I,J]) / (other[I,J] - col[I])",
        ),
        (
            "a pair sunk down the edge columns, strided",
            "if (J = 0) or (J = n-1) then col[I] - other[I,J] * g[K-1,I,J]
             else g[K-1,I,J] * 0.5",
        ),
    ];
    for (name, body) in bodies {
        let src = multi_path_grid(body);
        let comp = compile(&src, CompileOptions::default()).unwrap();
        let g = comp.module.data_by_name("g").unwrap();
        assert_eq!(comp.schedule.memory.window(g, 0), Some(2), "{name}");
        check_shapes(
            &src,
            &grids(name, multi_path_inputs),
            &["eq.1", "eq.2", "eq.3"],
        );
    }
}

/// A store into a column of a row-major array steps a whole row per
/// iteration: the last pass writes lanes, the store scatters them.
#[test]
fn a_column_store_keeps_its_lanes() {
    let src = "S: module (xs: array[I,J] of real; m: int): [b: array[I,J] of real];
         type I = 1 .. m; J = 1 .. 2;
         define
            b[I,1] = 0.5 - xs[I,1] * xs[I,2];
            b[I,2] = xs[I,2] / (xs[I,1] - 1.5);
         end S;";
    for m in [1, 2, W - 1, W, W + 1, 2 * W + 1] {
        let inputs = Inputs::new().set_int("m", m).set_array(
            "xs",
            OwnedArray::real(vec![(1, m), (1, 2)], reals((2 * m) as usize, 4)),
        );
        check(
            &format!("column store, m = {m}"),
            src,
            &inputs,
            &["eq.1", "eq.2"],
        );
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
