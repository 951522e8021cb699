//! The end-to-end compile pipeline.

use ps_codegen::{emit_module, CodegenOptions};
use ps_depgraph::{build_depgraph, DepGraph};
use ps_executor::Executor;
use ps_hyperplane::{
    find_recursive_target, hyperplane_transform, schedule_transformed, HyperplaneError,
    HyperplaneResult, StorageMode,
};
use ps_lang::HirModule;
use ps_runtime::{run_module, Inputs, Outputs, RuntimeOptions, StripVerdict};
use ps_scheduler::{schedule_module, ScheduleError, ScheduleOptions, ScheduleResult};
use ps_support::{DiagnosticSink, SourceMap};

/// Options for [`compile`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CompileOptions {
    pub schedule: ScheduleOptions,
    /// Apply the Section-4 hyperplane transformation to the (unique)
    /// recursive array, producing [`Compilation::transformed`].
    pub hyperplane: Option<StorageMode>,
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
    pub c_code: String,
}

/// Everything produced for one module.
pub struct Compilation {
    pub module: HirModule,
    pub depgraph: DepGraph,
    pub schedule: ScheduleResult,
    pub c_code: String,
    pub transformed: Option<TransformedArtifacts>,
}

impl Compilation {
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

/// Compile a single-module source string through the full pipeline.
pub fn compile(source: &str, options: CompileOptions) -> Result<Compilation, CompileError> {
    let mut sources = SourceMap::new();
    let file = sources.add_file("<input>", source);
    let sink = DiagnosticSink::new();
    let tokens = ps_lang::lexer::lex(source, &sink);
    let program = ps_lang::parser::parse_program(&tokens, &sink);
    if sink.has_errors() {
        return Err(CompileError::Frontend(sink.render_all(file, &sources)));
    }
    let Some(ast) = program.modules.into_iter().next() else {
        return Err(CompileError::Frontend("no module in source".into()));
    };
    let module = ps_lang::check::check_module(&ast, &sink);
    if sink.has_errors() {
        return Err(CompileError::Frontend(sink.render_all(file, &sources)));
    }
    let module = module.expect("no errors implies a module");

    let depgraph = build_depgraph(&module);
    let schedule =
        schedule_module(&module, &depgraph, options.schedule).map_err(CompileError::Schedule)?;
    let c_code = emit_module(
        &module,
        &schedule.flowchart,
        &schedule.memory,
        options.codegen,
    );

    let transformed = match options.hyperplane {
        None => None,
        Some(mode) => {
            let target = find_recursive_target(&module)
                .ok_or(CompileError::Hyperplane(HyperplaneError::NoRecursiveArray))?;
            let result =
                hyperplane_transform(&module, target, mode).map_err(CompileError::Hyperplane)?;
            let tsched = schedule_transformed(&result, options.schedule)
                .map_err(CompileError::Hyperplane)?;
            let tc = emit_module(
                &result.module,
                &tsched.flowchart,
                &tsched.memory,
                options.codegen,
            );
            Some(TransformedArtifacts {
                result,
                schedule: tsched,
                c_code: tc,
            })
        }
    };

    Ok(Compilation {
        module,
        depgraph,
        schedule,
        c_code,
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
    /// Compile the reusable artifact for `comp`'s scheduled module.
    ///
    /// Panics if [`ps_runtime::AnalysisLevel::Verify`] rejects the
    /// program; use [`Program::try_compile`] to receive the diagnostics.
    pub fn compile(comp: &'c Compilation, options: RuntimeOptions) -> Program<'c> {
        Program {
            inner: ps_runtime::Program::new(
                &comp.module,
                &comp.schedule.flowchart,
                &comp.schedule.memory,
                options,
            ),
        }
    }

    /// Like [`Program::compile`], but surfaces static-verifier
    /// rejections (rendered `E06xx` diagnostics) as an error.
    pub fn try_compile(
        comp: &'c Compilation,
        options: RuntimeOptions,
    ) -> Result<Program<'c>, ps_runtime::store::RuntimeError> {
        Ok(Program {
            inner: ps_runtime::Program::try_new(
                &comp.module,
                &comp.schedule.flowchart,
                &comp.schedule.memory,
                options,
            )?,
        })
    }

    /// Number of arrays the static verifier proved safe for tag elision
    /// (zero when analysis is off).
    pub fn verified_arrays(&self) -> usize {
        self.inner.verified_arrays()
    }

    /// Compile the artifact for `comp`'s hyperplane-transformed module.
    ///
    /// # Panics
    /// When `comp` was compiled without [`CompileOptions::hyperplane`].
    pub fn compile_transformed(comp: &'c Compilation, options: RuntimeOptions) -> Program<'c> {
        let t = comp
            .transformed
            .as_ref()
            .expect("compilation has no transformed artifacts");
        Program {
            inner: ps_runtime::Program::new(
                &t.result.module,
                &t.schedule.flowchart,
                &t.schedule.memory,
                options,
            ),
        }
    }

    /// Execute one run. Reentrant and thread-safe.
    pub fn run(
        &self,
        inputs: &Inputs,
        executor: &dyn Executor,
    ) -> Result<Outputs, ps_runtime::store::RuntimeError> {
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
) -> Result<Outputs, ps_runtime::store::RuntimeError> {
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
) -> Result<Outputs, ps_runtime::store::RuntimeError> {
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
        assert!(comp.c_code.contains("void ps_Relaxation"));
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
        assert!(art.c_code.contains("ps_Relaxation2"));
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
