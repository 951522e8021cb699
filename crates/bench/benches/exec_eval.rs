//! Perf D (PR 3): per-iteration evaluation cost of the compiled engine.
//!
//! PR 2 made region dispatch nearly free, so a DOALL iteration's cost is
//! now the equation body itself. This bench times the typed register tapes
//! (strength-reduced subscripts, strip-mined innermost loops) on the
//! sequential executor, so the figure is pure per-iteration evaluation
//! cost:
//!
//! * `jacobi/*` — Relaxation v1's guarded five-point stencil body
//!   (Figure 6), the paper's flagship DOALL loop;
//! * `wavefront/*` — the transformed Gauss–Seidel body (Section 4), whose
//!   general affine subscripts (`K' - 2I' - J'`-style) are exactly the
//!   addressing the strength reduction targets.
//!
//! Throughput is in grid cells. Every run is asserted bit-identical to
//! `run_naive` — for the wavefront on the *untransformed* module, so the
//! row also checks the transform — and in smoke mode each row runs once,
//! so the bench doubles as a regression test against the oracle.

use ps_bench::{compile_v1, compile_v2, relaxation_inputs, Harness};
use ps_core::{
    compile, execute, execute_transformed, programs, run_naive, AnalysisLevel, CompileOptions,
    Inputs, OwnedArray, Program, RuntimeOptions, Sequential, StorageMode,
};

fn main() {
    let mut g = Harness::new("exec_eval");

    let v1 = compile_v1();
    for &m in &[32i64, 64] {
        let maxk = 8i64;
        let inputs = relaxation_inputs(m, maxk);
        let cells = ((m + 2) * (m + 2) * maxk) as u64;
        let baseline = run_naive(&v1.module, &inputs).unwrap();
        g.bench_with_elements(&format!("jacobi/compiled/{m}"), cells, || {
            let out = execute(&v1, &inputs, &Sequential, RuntimeOptions::default()).unwrap();
            assert_eq!(
                out.array("newA").max_abs_diff(baseline.array("newA")),
                0.0,
                "the tapes must agree bitwise with the oracle"
            );
            out
        });
    }

    let v2 = compile_v2(Some(StorageMode::Windowed));
    for &m in &[48i64] {
        let maxk = 8i64;
        let inputs = relaxation_inputs(m, maxk);
        let cells = ((m + 2) * (m + 2) * maxk) as u64;
        let baseline = run_naive(&v2.module, &inputs).unwrap();
        g.bench_with_elements(&format!("wavefront/compiled/{m}"), cells, || {
            let out =
                execute_transformed(&v2, &inputs, &Sequential, RuntimeOptions::default()).unwrap();
            assert_eq!(
                out.array("newA").max_abs_diff(baseline.array("newA")),
                0.0,
                "the wavefront must agree bitwise with the oracle on the original module"
            );
            out
        });
    }

    // Perf F (PR 6): checked-writes cost, with and without static
    // elision. Every array of the pipeline program proves safe, so
    // `AnalysisLevel::Verify` drops all tag allocations and per-write
    // tag swaps; the residual gap to the unchecked row is what the
    // verifier cannot remove (instantiation, output copies).
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
        g.bench_with_elements(&format!("pipeline/{name}/{n}"), n as u64, || {
            let out = prog.run(&inputs, &Sequential).unwrap();
            assert_eq!(
                out.array("out").max_abs_diff(baseline.array("out")),
                0.0,
                "checked modes must agree bitwise"
            );
            out
        });
    }

    g.finish();
}
