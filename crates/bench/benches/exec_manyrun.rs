//! Perf E (PR 4): amortized per-run latency of the compile-once /
//! run-many path.
//!
//! The serving shape the ROADMAP's north star implies — many small solves
//! against one compiled module — used to pay full compilation on every
//! call: `run_module` re-laid the store and re-lowered every tape,
//! folding the live parameter values in. `Program` splits that: lowering
//! happens once, each parameter layout is specialized once (then cached),
//! and run state (frames, buffers, slot tables) is pooled.
//!
//! Two workloads, each at small problem sizes M ∈ {4, 8, 16} so the gap
//! *is* the per-call overhead the split removes:
//!
//! * `chain/*` — an 18-equation pointwise pipeline over length-M arrays
//!   (`ps_bench::synthetic_chain(16)`): the many-equations / small-data
//!   shape where compilation dominates a solve. `M` is the array length
//!   `n`.
//! * `jacobi/*` — Relaxation v1 on an (M+2)² grid, 6 planes: few
//!   equations, more compute per solve, so the amortization margin is
//!   structurally smaller.
//!
//! Variants: `percall` (today's baseline — `execute` per call: store
//! build + tape lowering + validation + run) vs `program`
//! (`Program::run` on a pre-built artifact; the first run, which builds
//! the address specialization, happens before timing).
//!
//! Each variant is asserted bit-identical to the `run_naive` oracle — in
//! smoke mode inside the (single-run) closures, in full timing mode
//! outside them so verification never inflates the measured latencies.

use ps_bench::{compile_v1, relaxation_inputs, synthetic_chain, Harness};
use ps_core::{
    compile, execute, run_naive, CompileOptions, Inputs, OwnedArray, Program, RuntimeOptions,
    Sequential,
};

fn main() {
    let mut g = Harness::new("exec_manyrun");

    // Many equations, tiny data: the compile-overhead-dominated shape.
    let chain = compile(&synthetic_chain(16), CompileOptions::default()).expect("chain compiles");
    for &m in &[4i64, 8, 16] {
        let xs: Vec<f64> = (0..m).map(|i| (i % 7) as f64 * 0.5 - 1.0).collect();
        let inputs = Inputs::new()
            .set_int("n", m)
            .set_array("xs", OwnedArray::real(vec![(1, m)], xs));
        let baseline = run_naive(&chain.module, &inputs).unwrap();
        let elems = (18 * m) as u64;

        // Verification stays outside the timed closures (smoke mode runs
        // each closure exactly once, so it still checks every variant).
        let verify = |out: &ps_core::Outputs, label: &str| {
            assert_eq!(
                out.scalar("y").as_real().to_bits(),
                baseline.scalar("y").as_real().to_bits(),
                "{label} must agree bitwise with the oracle"
            );
        };
        let full = g.is_full();
        verify(
            &execute(&chain, &inputs, &Sequential, RuntimeOptions::default()).unwrap(),
            "per-call",
        );
        g.bench_with_elements(&format!("chain/percall/m{m}"), elems, || {
            let out = execute(&chain, &inputs, &Sequential, RuntimeOptions::default()).unwrap();
            if !full {
                verify(&out, "per-call");
            }
            out
        });

        let prog = Program::compile(&chain, RuntimeOptions::default());
        prog.run(&inputs, &Sequential).unwrap(); // specialize + fill pools
        verify(&prog.run(&inputs, &Sequential).unwrap(), "pooled run");
        g.bench_with_elements(&format!("chain/program/m{m}"), elems, || {
            let out = prog.run(&inputs, &Sequential).unwrap();
            if !full {
                verify(&out, "pooled run");
            }
            out
        });
        assert_eq!(
            prog.specialization_count(),
            1,
            "steady-state serving never re-specializes"
        );
    }

    // Few equations, real stencil compute: the margin is smaller because
    // the solve itself dominates even at small M.
    let jacobi = compile_v1();
    for &m in &[4i64, 8, 16] {
        let maxk = 6i64;
        let inputs = relaxation_inputs(m, maxk);
        let cells = ((m + 2) * (m + 2) * maxk) as u64;
        let baseline = run_naive(&jacobi.module, &inputs).unwrap();

        let verify = |out: &ps_core::Outputs, label: &str| {
            assert_eq!(
                out.array("newA").max_abs_diff(baseline.array("newA")),
                0.0,
                "{label} must agree bitwise with the oracle"
            );
        };
        let full = g.is_full();
        verify(
            &execute(&jacobi, &inputs, &Sequential, RuntimeOptions::default()).unwrap(),
            "per-call",
        );
        g.bench_with_elements(&format!("jacobi/percall/m{m}"), cells, || {
            let out = execute(&jacobi, &inputs, &Sequential, RuntimeOptions::default()).unwrap();
            if !full {
                verify(&out, "per-call");
            }
            out
        });

        let prog = Program::compile(&jacobi, RuntimeOptions::default());
        prog.run(&inputs, &Sequential).unwrap();
        verify(&prog.run(&inputs, &Sequential).unwrap(), "pooled run");
        g.bench_with_elements(&format!("jacobi/program/m{m}"), cells, || {
            let out = prog.run(&inputs, &Sequential).unwrap();
            if !full {
                verify(&out, "pooled run");
            }
            out
        });
        assert_eq!(prog.specialization_count(), 1);
    }

    g.finish();
}
