//! End-to-end differential tests: the scheduled parallel interpreter, the
//! sequential interpreter, the demand-driven oracle, and the hyperplane
//! wavefront must all agree on the computed values.

use ps_core::{
    compile, execute, execute_transformed, programs, run_naive, CompileOptions, Inputs, OwnedArray,
    RuntimeOptions, Sequential, StorageMode, ThreadPool,
};

fn grid(m: i64, pattern: impl Fn(i64, i64) -> f64) -> OwnedArray {
    let side = (m + 2) as usize;
    let mut data = vec![0.0f64; side * side];
    for i in 0..side as i64 {
        for j in 0..side as i64 {
            data[(i * side as i64 + j) as usize] = pattern(i, j);
        }
    }
    OwnedArray::real(vec![(0, m + 1), (0, m + 1)], data)
}

fn relaxation_inputs(m: i64, maxk: i64) -> Inputs {
    Inputs::new()
        .set_int("M", m)
        .set_int("maxK", maxk)
        .set_array(
            "InitialA",
            grid(m, |i, j| ((i * 31 + j * 17) % 23) as f64 * 0.5),
        )
}

#[test]
fn jacobi_scheduled_matches_oracle() {
    let comp = compile(programs::RELAXATION_V1, CompileOptions::default()).unwrap();
    let inputs = relaxation_inputs(8, 10);
    let scheduled = execute(
        &comp,
        &inputs,
        &Sequential,
        RuntimeOptions {
            check_writes: true,
            ..Default::default()
        },
    )
    .unwrap();
    let oracle = run_naive(&comp.module, &inputs).unwrap();
    let diff = scheduled.array("newA").max_abs_diff(oracle.array("newA"));
    assert!(diff < 1e-12, "scheduled vs oracle diff {diff}");
}

#[test]
fn jacobi_parallel_matches_sequential() {
    let comp = compile(programs::RELAXATION_V1, CompileOptions::default()).unwrap();
    let inputs = relaxation_inputs(16, 12);
    let seq = execute(&comp, &inputs, &Sequential, RuntimeOptions::default()).unwrap();
    for threads in [2, 4, 8] {
        let pool = ThreadPool::new(threads);
        let par = execute(&comp, &inputs, &pool, RuntimeOptions::default()).unwrap();
        let diff = seq.array("newA").max_abs_diff(par.array("newA"));
        assert_eq!(diff, 0.0, "threads={threads}");
    }
}

#[test]
fn gauss_seidel_scheduled_matches_oracle() {
    let comp = compile(programs::RELAXATION_V2, CompileOptions::default()).unwrap();
    let inputs = relaxation_inputs(8, 10);
    let scheduled = execute(
        &comp,
        &inputs,
        &Sequential,
        RuntimeOptions {
            check_writes: true,
            ..Default::default()
        },
    )
    .unwrap();
    let oracle = run_naive(&comp.module, &inputs).unwrap();
    let diff = scheduled.array("newA").max_abs_diff(oracle.array("newA"));
    assert!(diff < 1e-12, "diff {diff}");
}

/// The headline result: the windowed hyperplane wavefront computes exactly
/// the same grid as the untransformed Gauss-Seidel program — sequentially,
/// in parallel, and with the write checker on.
#[test]
fn wavefront_matches_untransformed() {
    let comp = compile(
        programs::RELAXATION_V2,
        CompileOptions {
            hyperplane: Some(StorageMode::Windowed),
            ..Default::default()
        },
    )
    .unwrap();
    let inputs = relaxation_inputs(10, 9);

    let base = execute(&comp, &inputs, &Sequential, RuntimeOptions::default()).unwrap();
    let wave_checked = execute_transformed(
        &comp,
        &inputs,
        &Sequential,
        RuntimeOptions {
            check_writes: true,
            ..Default::default()
        },
    )
    .unwrap();
    let diff = base.array("newA").max_abs_diff(wave_checked.array("newA"));
    assert!(diff < 1e-12, "wavefront vs Gauss-Seidel diff {diff}");

    let pool = ThreadPool::new(4);
    let wave_par = execute_transformed(&comp, &inputs, &pool, RuntimeOptions::default()).unwrap();
    let pdiff = wave_checked
        .array("newA")
        .max_abs_diff(wave_par.array("newA"));
    assert_eq!(pdiff, 0.0, "parallel wavefront is deterministic");
}

/// Full-storage mode agrees with windowed mode.
#[test]
fn full_mode_matches_windowed() {
    let inputs = relaxation_inputs(6, 7);
    let windowed = compile(
        programs::RELAXATION_V2,
        CompileOptions {
            hyperplane: Some(StorageMode::Windowed),
            ..Default::default()
        },
    )
    .unwrap();
    let full = compile(
        programs::RELAXATION_V2,
        CompileOptions {
            hyperplane: Some(StorageMode::Full),
            ..Default::default()
        },
    )
    .unwrap();
    let a =
        execute_transformed(&windowed, &inputs, &Sequential, RuntimeOptions::default()).unwrap();
    let b = execute_transformed(&full, &inputs, &Sequential, RuntimeOptions::default()).unwrap();
    assert!(a.array("newA").max_abs_diff(b.array("newA")) < 1e-12);
}

#[test]
fn heat_1d_agrees_with_oracle_across_sizes() {
    let comp = compile(programs::HEAT_1D, CompileOptions::default()).unwrap();
    for (m, maxk) in [(4i64, 3i64), (16, 10), (33, 21)] {
        let rod: Vec<f64> = (0..(m + 2))
            .map(|i| (i as f64 * 0.37).sin() + 1.0)
            .collect();
        let inputs = Inputs::new()
            .set_int("M", m)
            .set_int("maxK", maxk)
            .set_real("alpha", 0.2)
            .set_array("u0", OwnedArray::real(vec![(0, m + 1)], rod));
        let scheduled = execute(&comp, &inputs, &Sequential, RuntimeOptions::default()).unwrap();
        let oracle = run_naive(&comp.module, &inputs).unwrap();
        let diff = scheduled.array("uT").max_abs_diff(oracle.array("uT"));
        assert!(diff < 1e-12, "M={m} maxK={maxk}: diff {diff}");
    }
}

/// The scheduler never puts two equations in one `DOALL`, but a flowchart
/// built by hand may: `pipeline`'s three `DOALL`s merged into one runs
/// pooled and write-checked, bit-identical to the oracle, on the scalar
/// walker the strip planner leaves a multi-equation body to.
#[test]
fn hand_merged_doall_runs_pooled_and_checked() {
    use ps_scheduler::Descriptor;
    let comp = compile(programs::PIPELINE, CompileOptions::default()).unwrap();
    let mut loops = comp.schedule.flowchart.items.clone().into_iter();
    let Some(Descriptor::Loop(mut merged)) = loops.next() else {
        panic!("pipeline starts with a DOALL");
    };
    for item in loops {
        let Descriptor::Loop(l) = item else {
            panic!("pipeline is three DOALLs");
        };
        merged.bindings.extend(l.bindings);
        merged.body.extend(l.body);
    }
    let flowchart = ps_scheduler::Flowchart {
        items: vec![Descriptor::Loop(merged)],
    };
    assert_eq!(flowchart.loop_counts(), (0, 1));

    let n = 97;
    let xs: Vec<f64> = (0..n).map(|i| (i as f64) * 0.25 - 7.5).collect();
    let inputs = Inputs::new()
        .set_int("n", n)
        .set_array("xs", OwnedArray::real(vec![(1, n)], xs));
    let merged = ps_core::run_module(
        &comp.module,
        &flowchart,
        &comp.schedule.memory,
        &inputs,
        &ThreadPool::new(4),
        RuntimeOptions {
            check_writes: true,
            ..Default::default()
        },
    )
    .unwrap();
    let oracle = run_naive(&comp.module, &inputs).unwrap();
    assert_eq!(merged.array("out").max_abs_diff(oracle.array("out")), 0.0);

    let prog = ps_runtime::Program::new(
        &comp.module,
        &flowchart,
        &comp.schedule.memory,
        RuntimeOptions::default(),
    );
    let report: Vec<String> = prog
        .strip_report()
        .iter()
        .map(|(label, verdict)| format!("{label}: {verdict}"))
        .collect();
    assert_eq!(
        report,
        [
            "eq.1: scalar: multi-equation body",
            "eq.2: scalar: multi-equation body",
            "eq.3: scalar: multi-equation body",
        ]
    );
}

#[test]
fn table_2d_wavefront_matches_oracle() {
    let comp = compile(
        programs::TABLE_2D,
        CompileOptions {
            hyperplane: Some(StorageMode::Full),
            ..Default::default()
        },
    )
    .unwrap();
    let inputs = Inputs::new().set_int("n", 12);
    let oracle = run_naive(&comp.module, &inputs).unwrap();
    let base = execute(&comp, &inputs, &Sequential, RuntimeOptions::default()).unwrap();
    let wave = execute_transformed(
        &comp,
        &inputs,
        &ThreadPool::new(4),
        RuntimeOptions::default(),
    )
    .unwrap();
    let c0 = oracle.scalar("corner").as_real();
    assert!((base.scalar("corner").as_real() - c0).abs() < 1e-12);
    assert!((wave.scalar("corner").as_real() - c0).abs() < 1e-12);
}

/// The eqfront translator produces modules that behave identically to the
/// hand-written Figure-1 module.
#[test]
fn eqfront_output_matches_handwritten() {
    let generated = ps_core::translate_equation(
        "A^{k}_{i,j} = (A^{k-1}_{i,j-1} + A^{k-1}_{i-1,j} + A^{k-1}_{i,j+1} + A^{k-1}_{i+1,j}) / 4",
        "Relaxation",
    )
    .unwrap();
    let gen_comp = compile(&generated, CompileOptions::default()).unwrap();
    let hand_comp = compile(programs::RELAXATION_V1, CompileOptions::default()).unwrap();
    assert_eq!(gen_comp.compact_flowchart(), hand_comp.compact_flowchart());

    let inputs = relaxation_inputs(6, 5);
    let a = execute(&gen_comp, &inputs, &Sequential, RuntimeOptions::default()).unwrap();
    let b = execute(&hand_comp, &inputs, &Sequential, RuntimeOptions::default()).unwrap();
    assert_eq!(a.array("newA").max_abs_diff(b.array("newA")), 0.0);
}

/// Sweep: every built-in program that schedules also runs under the write
/// checker without violations.
#[test]
fn all_builtins_run_checked() {
    for (name, src) in programs::ALL {
        let comp = compile(src, CompileOptions::default()).unwrap();
        let inputs = match *name {
            "relaxation_v1" | "relaxation_v2" => relaxation_inputs(5, 4),
            "heat_1d" => Inputs::new()
                .set_int("M", 6)
                .set_int("maxK", 5)
                .set_real("alpha", 0.1)
                .set_array("u0", OwnedArray::real(vec![(0, 7)], vec![1.0; 8])),
            "recurrence_1d" => Inputs::new().set_real("rate", 0.1).set_int("n", 12),
            "pipeline" => Inputs::new()
                .set_int("n", 9)
                .set_array("xs", OwnedArray::real(vec![(1, 9)], vec![2.0; 9])),
            "gather" => Inputs::new()
                .set_int("n", 3)
                .set_array("xs", OwnedArray::real(vec![(1, 3)], vec![1.0, 2.0, 3.0]))
                .set_array("perm", OwnedArray::int(vec![(1, 3)], vec![2, 3, 1])),
            "table_2d" => Inputs::new().set_int("n", 6),
            "wave_1d" => Inputs::new()
                .set_int("M", 6)
                .set_int("maxK", 5)
                .set_real("c2", 0.3)
                .set_array("u0", OwnedArray::real(vec![(0, 7)], vec![0.5; 8])),
            other => panic!("unhandled builtin {other}"),
        };
        execute(
            &comp,
            &inputs,
            &Sequential,
            RuntimeOptions {
                check_writes: true,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// A drain's inverse transform that names a parameter no input binds is a
/// compiler bug and stops the run with the form in the message, as its
/// bounds do — it used to evaluate to 0 and drain the wrong cells.
#[test]
fn drain_with_an_unevaluable_inverse_transform_names_the_form() {
    use ps_scheduler::Descriptor;
    fn drain(items: &mut [Descriptor]) -> Option<&mut ps_scheduler::DrainSpec> {
        items.iter_mut().find_map(|d| match d {
            Descriptor::Drain(spec) => Some(&mut **spec),
            Descriptor::Loop(l) => drain(&mut l.body),
            Descriptor::Equation(_) => None,
        })
    }
    let comp = compile(
        programs::RELAXATION_V2,
        CompileOptions {
            hyperplane: Some(StorageMode::Windowed),
            ..Default::default()
        },
    )
    .unwrap();
    let t = comp.transformed.as_ref().unwrap();
    let mut flowchart = t.schedule.flowchart.clone();
    let spec = drain(&mut flowchart.items).expect("windowed mode drains");
    spec.original[0].1 = ps_lang::Affine::param(ps_support::Symbol::intern("unbound"));
    let run = std::panic::catch_unwind(|| {
        ps_core::run_module(
            &t.result.module,
            &flowchart,
            &t.schedule.memory,
            &relaxation_inputs(4, 3),
            &Sequential,
            RuntimeOptions::default(),
        )
    });
    let panic = run.expect_err("the drain must not guess a value");
    let message = panic.downcast_ref::<String>().expect("a formatted panic");
    assert_eq!(message, "cannot evaluate unbound");
}
