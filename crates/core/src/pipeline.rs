//! The end-to-end compile pipeline.

use ps_codegen::{emit_module, CodegenOptions};
use ps_depgraph::{build_depgraph, DepGraph};
use ps_executor::Executor;
use ps_hyperplane::{
    find_recursive_target, hyperplane_transform, schedule_transformed, HyperplaneError,
    HyperplaneResult, StorageMode,
};
use ps_lang::HirModule;
use ps_runtime::store::RuntimeError;
use ps_runtime::{run_module, Inputs, Outputs, RuntimeOptions, StripVerdict};
use ps_scheduler::{schedule_module, ScheduleError, ScheduleOptions, ScheduleResult};

/// Options for [`compile`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CompileOptions {
    pub schedule: ScheduleOptions,
    /// Apply the Section-4 hyperplane transformation to the (unique)
    /// recursive array, producing [`Compilation::transformed`].
    pub hyperplane: Option<StorageMode>,
    /// Not read by [`compile`], which emits no C; pass it to
    /// [`Compilation::emit_c`].
    pub codegen: CodegenOptions,
}

/// Pipeline failure.
#[derive(Debug)]
pub enum CompileError {
    /// Lexing / parsing / type checking failed; rendered diagnostics.
    Frontend(String),
    Schedule(ScheduleError),
    Hyperplane(HyperplaneError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Frontend(s) => write!(f, "front end:\n{s}"),
            CompileError::Schedule(e) => write!(f, "scheduler: {e}"),
            CompileError::Hyperplane(e) => write!(f, "hyperplane: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Artifacts of the hyperplane transformation.
pub struct TransformedArtifacts {
    pub result: HyperplaneResult,
    pub schedule: ScheduleResult,
    /// Left empty by [`compile`]: C is produced on demand by
    /// [`TransformedArtifacts::emit_c`]. The field remains only for the
    /// frozen benchmark's struct literals.
    pub c_code: String,
}

impl TransformedArtifacts {
    /// Emit C for the transformed (wavefront) program.
    pub fn emit_c(&self, options: CodegenOptions) -> String {
        let schedule = &self.schedule;
        let module = &self.result.module;
        emit_module(module, &schedule.flowchart, &schedule.memory, options)
    }
}

/// Everything produced for one module.
pub struct Compilation {
    pub module: HirModule,
    pub depgraph: DepGraph,
    pub schedule: ScheduleResult,
    /// Left empty by [`compile`]: C is produced on demand by
    /// [`Compilation::emit_c`]. The field remains only for the frozen
    /// benchmark's struct literals.
    pub c_code: String,
    pub transformed: Option<TransformedArtifacts>,
}

impl Compilation {
    /// Emit C for the scheduled module. A compile writes none: only `psc
    /// --emit c`, the examples and `codegen_e2e` read it.
    pub fn emit_c(&self, options: CodegenOptions) -> String {
        let schedule = &self.schedule;
        emit_module(&self.module, &schedule.flowchart, &schedule.memory, options)
    }

    /// One-line flowchart with `eq.N` labels (Figure 6/7 compact form).
    pub fn compact_flowchart(&self) -> String {
        self.schedule
            .flowchart
            .compact(&|e| self.module.equations[e].label.clone())
    }

    /// Compact flowchart of the transformed program, when present.
    pub fn transformed_flowchart(&self) -> Option<String> {
        self.transformed.as_ref().map(|t| {
            t.schedule
                .flowchart
                .compact(&|e| t.result.module.equations[e].label.clone())
        })
    }
}

/// Compile a single-module source string through the full pipeline: front
/// end, dependence graph, schedule and (when asked) the hyperplane
/// transform. No text is generated; see [`Compilation::emit_c`].
pub fn compile(source: &str, options: CompileOptions) -> Result<Compilation, CompileError> {
    let module = ps_lang::frontend(source).map_err(CompileError::Frontend)?;

    let depgraph = build_depgraph(&module);
    let schedule =
        schedule_module(&module, &depgraph, options.schedule).map_err(CompileError::Schedule)?;

    let transformed = match options.hyperplane {
        None => None,
        Some(mode) => {
            let target = find_recursive_target(&module)
                .ok_or(CompileError::Hyperplane(HyperplaneError::NoRecursiveArray))?;
            let result =
                hyperplane_transform(&module, target, mode).map_err(CompileError::Hyperplane)?;
            let schedule = schedule_transformed(&result, options.schedule)
                .map_err(CompileError::Hyperplane)?;
            Some(TransformedArtifacts {
                result,
                schedule,
                c_code: String::new(),
            })
        }
    };

    Ok(Compilation {
        module,
        depgraph,
        schedule,
        c_code: String::new(),
        transformed,
    })
}

/// A reusable, shareable execution artifact: compile once, run many.
///
/// Wraps [`ps_runtime::Program`] over a [`Compilation`]'s scheduled (or
/// transformed) module. Construction performs store layout planning and
/// tape lowering exactly once; [`Program::run`] binds parameters,
/// instantiates pooled storage, and executes. `&Program` is
/// `Send + Sync`, so independent runs may execute concurrently from
/// multiple threads sharing one artifact.
///
/// ```
/// use ps_core::{compile, programs, CompileOptions, Program};
/// use ps_core::{Inputs, RuntimeOptions, Sequential};
///
/// let comp = compile(programs::RECURRENCE_1D, CompileOptions::default()).unwrap();
/// let prog = Program::compile(&comp, RuntimeOptions::default());
/// let a = prog
///     .run(&Inputs::new().set_real("rate", 0.5).set_int("n", 10), &Sequential)
///     .unwrap();
/// let b = prog
///     .run(&Inputs::new().set_real("rate", 0.25).set_int("n", 20), &Sequential)
///     .unwrap();
/// assert!((a.scalar("final").as_real() - 1.5f64.powi(9)).abs() < 1e-9);
/// assert!((b.scalar("final").as_real() - 1.25f64.powi(19)).abs() < 1e-9);
/// ```
pub struct Program<'c> {
    inner: ps_runtime::Program<'c>,
}

impl<'c> Program<'c> {
    /// Layout planning, lowering and (under `Verify`) the static verifier
    /// for one scheduled module; a rejection is the rendered diagnostics.
    fn lower(
        module: &'c HirModule,
        schedule: &'c ScheduleResult,
        options: RuntimeOptions,
    ) -> Result<Program<'c>, RuntimeError> {
        let (flowchart, memory) = (&schedule.flowchart, &schedule.memory);
        let inner = ps_runtime::Program::try_new(module, flowchart, memory, options)?;
        Ok(Program { inner })
    }

    /// Compile the reusable artifact for `comp`'s scheduled module.
    ///
    /// Panics if [`ps_runtime::AnalysisLevel::Verify`] rejects the
    /// program; use [`Program::try_compile`] to receive the diagnostics.
    pub fn compile(comp: &'c Compilation, options: RuntimeOptions) -> Program<'c> {
        Program::try_compile(comp, options)
            .unwrap_or_else(|e| panic!("static analysis rejected program: {e}"))
    }

    /// Like [`Program::compile`], but surfaces static-verifier
    /// rejections (rendered `E06xx` diagnostics) as an error.
    pub fn try_compile(
        comp: &'c Compilation,
        options: RuntimeOptions,
    ) -> Result<Program<'c>, RuntimeError> {
        Program::lower(&comp.module, &comp.schedule, options)
    }

    /// Number of arrays the static verifier proved safe for tag elision
    /// (zero when analysis is off).
    pub fn verified_arrays(&self) -> usize {
        self.inner.verified_arrays()
    }

    /// Compile the artifact for `comp`'s hyperplane-transformed module.
    ///
    /// # Panics
    /// When `comp` was compiled without [`CompileOptions::hyperplane`], or
    /// [`ps_runtime::AnalysisLevel::Verify`] rejects the transformed
    /// program; [`Program::try_compile_transformed`] returns both as errors.
    pub fn compile_transformed(comp: &'c Compilation, options: RuntimeOptions) -> Program<'c> {
        Program::try_compile_transformed(comp, options)
            .unwrap_or_else(|e| panic!("cannot compile the transformed program: {e}"))
    }

    /// Like [`Program::compile_transformed`], but a compilation without
    /// transformed artifacts and a static-verifier rejection (rendered
    /// `E06xx` diagnostics) are errors, not panics.
    pub fn try_compile_transformed(
        comp: &'c Compilation,
        options: RuntimeOptions,
    ) -> Result<Program<'c>, RuntimeError> {
        let t = comp
            .transformed
            .as_ref()
            .ok_or_else(|| RuntimeError("compilation has no transformed artifacts".into()))?;
        Program::lower(&t.result.module, &t.schedule, options)
    }

    /// Execute one run. Reentrant and thread-safe.
    pub fn run(&self, inputs: &Inputs, executor: &dyn Executor) -> Result<Outputs, RuntimeError> {
        self.inner.run(inputs, executor)
    }

    /// Number of parameter layouts specialized so far (1 in a steady
    /// serving loop over one shape).
    pub fn specialization_count(&self) -> usize {
        self.inner.specialization_count()
    }

    /// Which equations run strip-mined and why the others do not; see
    /// [`ps_runtime::Program::strip_report`].
    pub fn strip_report(&self) -> Vec<(String, StripVerdict)> {
        self.inner.strip_report()
    }
}

/// Run the `ps-analyze` static verifier over `comp`'s scheduled module:
/// def-before-use, in-bounds addressing, and `DOALL` write-disjointness,
/// proven per scheduled region from the compiled tapes. The report
/// carries one verdict per array plus any `E06xx` diagnostics.
pub fn analyze(comp: &Compilation) -> ps_runtime::AnalysisReport {
    ps_runtime::analyze_compiled(
        &comp.module,
        &comp.schedule.flowchart,
        &comp.schedule.memory,
    )
}

/// Execute a compiled module on the given inputs (compile-and-run-once;
/// hold a [`Program`] to amortize over many runs).
pub fn execute(
    comp: &Compilation,
    inputs: &Inputs,
    executor: &dyn Executor,
    options: RuntimeOptions,
) -> Result<Outputs, RuntimeError> {
    run_module(
        &comp.module,
        &comp.schedule.flowchart,
        &comp.schedule.memory,
        inputs,
        executor,
        options,
    )
}

/// Execute the transformed (wavefront) program of a compilation.
pub fn execute_transformed(
    comp: &Compilation,
    inputs: &Inputs,
    executor: &dyn Executor,
    options: RuntimeOptions,
) -> Result<Outputs, RuntimeError> {
    let t = comp
        .transformed
        .as_ref()
        .expect("compilation has no transformed artifacts");
    run_module(
        &t.result.module,
        &t.schedule.flowchart,
        &t.schedule.memory,
        inputs,
        executor,
        options,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;
    use ps_executor::Sequential;
    use ps_runtime::OwnedArray;

    #[test]
    fn full_pipeline_v1() {
        let comp = compile(programs::RELAXATION_V1, CompileOptions::default()).unwrap();
        assert_eq!(
            comp.compact_flowchart(),
            "DOALL I (DOALL J (eq.1)); DO K (DOALL I (DOALL J (eq.3))); \
             DOALL I (DOALL J (eq.2))"
        );
        assert!(comp.c_code.is_empty(), "a compile emits no C");
        let c = comp.emit_c(CodegenOptions::default());
        assert!(c.contains("void ps_Relaxation"));
        assert!(comp.transformed.is_none());
    }

    #[test]
    fn full_pipeline_v2_with_hyperplane() {
        let comp = compile(
            programs::RELAXATION_V2,
            CompileOptions {
                hyperplane: Some(StorageMode::Windowed),
                ..Default::default()
            },
        )
        .unwrap();
        // Untransformed: Figure 7 (fully iterative).
        assert!(comp
            .compact_flowchart()
            .contains("DO K (DO I (DO J (eq.3)))"));
        // Transformed: wavefront with a drain.
        let t = comp.transformed_flowchart().unwrap();
        assert!(
            t.contains("DO K' (DOALL I' (DOALL J' (eq.3)); DRAIN K')"),
            "{t}"
        );
        let art = comp.transformed.as_ref().unwrap();
        assert_eq!(art.result.pi, vec![2, 1, 1]);
        assert!(art.c_code.is_empty(), "a compile emits no C");
        let c = art.emit_c(CodegenOptions::default());
        assert!(c.contains("ps_Relaxation2"));
    }

    /// The verifier falsely rejects the windowed wavefront (its guarded
    /// loads look out of bounds to the interval domain; ROADMAP item 1a):
    /// that is an `Err` naming `E0602`, never a panic, and with analysis
    /// off the program still runs bit-identical to the oracle.
    #[test]
    fn verify_rejecting_the_transformed_program_is_an_error() {
        let options = CompileOptions {
            hyperplane: Some(StorageMode::Windowed),
            ..Default::default()
        };
        let comp = compile(programs::RELAXATION_V2, options).unwrap();
        let verify = RuntimeOptions {
            analysis: ps_runtime::AnalysisLevel::Verify,
            ..Default::default()
        };
        let Err(err) = Program::try_compile_transformed(&comp, verify) else {
            panic!("the transformed relaxation_v2 verifies: drop ROADMAP 1(a)'s note");
        };
        assert!(err.0.contains("E0602"), "{err}");

        let plain = compile(programs::RELAXATION_V2, CompileOptions::default()).unwrap();
        let Err(err) = Program::try_compile_transformed(&plain, RuntimeOptions::default()) else {
            panic!("no transformed artifacts to compile");
        };
        assert!(err.0.contains("no transformed artifacts"), "{err}");

        let (m, side) = (5i64, 7usize);
        let init: Vec<f64> = (0..side * side).map(|i| (i % 13) as f64 * 0.75).collect();
        let inputs = Inputs::new().set_int("M", m).set_int("maxK", 6).set_array(
            "InitialA",
            OwnedArray::real(vec![(0, m + 1), (0, m + 1)], init),
        );
        let wave = Program::try_compile_transformed(&comp, RuntimeOptions::default())
            .unwrap()
            .run(&inputs, &Sequential)
            .unwrap();
        let oracle = ps_runtime::run_naive(&comp.module, &inputs).unwrap();
        let bits = |o: &Outputs| -> Vec<u64> {
            let a = o.array("newA").as_real_slice();
            a.iter().map(|x| x.to_bits()).collect()
        };
        assert_eq!(bits(&wave), bits(&oracle));
    }

    #[test]
    fn execute_pipeline_end_to_end() {
        let comp = compile(programs::RECURRENCE_1D, CompileOptions::default()).unwrap();
        let out = execute(
            &comp,
            &Inputs::new().set_real("rate", 0.5).set_int("n", 10),
            &Sequential,
            RuntimeOptions::default(),
        )
        .unwrap();
        let expected = 1.5f64.powi(9);
        assert!((out.scalar("final").as_real() - expected).abs() < 1e-9);
    }

    #[test]
    fn frontend_errors_are_reported() {
        let Err(err) = compile(
            "T: module (): [y: int]; define y = zzz; end T;",
            Default::default(),
        ) else {
            panic!("expected a frontend error");
        };
        match err {
            CompileError::Frontend(s) => assert!(s.contains("E0246"), "{s}"),
            other => panic!("expected frontend error, got {other}"),
        }
    }

    #[test]
    fn gather_program_executes() {
        let comp = compile(programs::GATHER, CompileOptions::default()).unwrap();
        let out = execute(
            &comp,
            &Inputs::new()
                .set_int("n", 4)
                .set_array(
                    "xs",
                    OwnedArray::real(vec![(1, 4)], vec![10.0, 20.0, 30.0, 40.0]),
                )
                .set_array("perm", OwnedArray::int(vec![(1, 4)], vec![4, 3, 2, 1])),
            &Sequential,
            RuntimeOptions::default(),
        )
        .unwrap();
        assert_eq!(out.array("out").as_real_slice(), &[40.0, 30.0, 20.0, 10.0]);
    }

    #[test]
    fn table_2d_full_mode_transform() {
        let comp = compile(
            programs::TABLE_2D,
            CompileOptions {
                hyperplane: Some(StorageMode::Full),
                ..Default::default()
            },
        )
        .unwrap();
        let art = comp.transformed.as_ref().unwrap();
        assert_eq!(art.result.pi, vec![1, 1], "anti-diagonal wavefront");
        // Executing both versions gives the same corner value.
        let inputs = Inputs::new().set_int("n", 8);
        let base = execute(&comp, &inputs, &Sequential, RuntimeOptions::default()).unwrap();
        let wave =
            execute_transformed(&comp, &inputs, &Sequential, RuntimeOptions::default()).unwrap();
        assert_eq!(
            base.scalar("corner").as_real(),
            wave.scalar("corner").as_real()
        );
    }
}
