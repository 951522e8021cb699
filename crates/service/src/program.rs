//! The compile artifact cached by the [`crate::Registry`].
//!
//! A serving registry must *own* what it caches, so [`CompiledProgram`]
//! compiles its source into a `ps_runtime::Program<'static>` — the owning
//! form built by [`ps_runtime::Program::try_owned`], which holds the HIR
//! module and flowchart by value — and adds what only the service needs:
//! the source text and options a registry key is compared against, the
//! registry's LRU tick, and the trace label. It is an ordinary struct
//! shared through `Arc`s: whoever holds one keeps the whole artifact
//! alive, eviction or registry teardown notwithstanding.

use crate::ServiceError;
use ps_depgraph::build_depgraph;
use ps_executor::Executor;
use ps_lang::{frontend, HirModule};
use ps_runtime::store::RuntimeError;
use ps_runtime::{Inputs, Outputs, Program, RunSession, RuntimeOptions};
use ps_scheduler::{schedule_module, ScheduleOptions};
use ps_trace::StageSet;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// One compiled, reusable, *owned* solve artifact: the tape-lowered
/// [`ps_runtime::Program`] together with the module and flowchart it
/// executes.
///
/// Construction runs the front end, dependence analysis, scheduling, store
/// layout planning, and tape lowering exactly once; [`CompiledProgram::run`]
/// and [`CompiledProgram::session`] then serve any number of concurrent
/// requests (`&CompiledProgram` is `Send + Sync`).
pub struct CompiledProgram {
    program: Program<'static>,
    source: Arc<str>,
    /// Last-use tick maintained by the registry (its LRU key).
    pub(crate) touched: AtomicU64,
    /// Interned [`ps_trace::label`] id of the module name, carried by the
    /// artifact's `Solve`/`Panic` trace events.
    trace_label: u64,
}

/// Workers on different threads share one artifact.
#[allow(dead_code)]
fn _assert_send_sync() {
    fn takes<T: Send + Sync>() {}
    takes::<CompiledProgram>();
}

impl CompiledProgram {
    /// Compile `source` through the pipeline (front end → dependence graph
    /// → schedule → tape lowering) into an owned artifact. A `sink` (the
    /// registry passes its service's [`StageSet`]) receives the inner
    /// program's specialization timings.
    pub fn compile(
        source: Arc<str>,
        options: RuntimeOptions,
        sink: Option<Arc<StageSet>>,
    ) -> Result<Arc<CompiledProgram>, ServiceError> {
        let module = frontend(&source).map_err(ServiceError::Compile)?;
        let trace_label = ps_trace::label(module.name.as_str());
        let depgraph = build_depgraph(&module);
        let sched = schedule_module(&module, &depgraph, ScheduleOptions::default())
            .map_err(|e| ServiceError::Compile(e.to_string()))?;
        // A verifier rejection (`AnalysisLevel::Verify`) comes back as
        // rendered E06xx diagnostics, like any other compile error.
        let program = Program::try_owned(module, sched, options)
            .map_err(|e| ServiceError::Compile(e.to_string()))?;
        if let Some(sink) = sink {
            program.set_stage_sink(sink);
        }
        Ok(Arc::new(CompiledProgram {
            program,
            source,
            touched: AtomicU64::new(0),
            trace_label,
        }))
    }

    /// The interned [`ps_trace::label()`] id of this artifact's module name.
    pub fn trace_label(&self) -> u64 {
        self.trace_label
    }

    /// Execute one run. Reentrant and thread-safe; run state is pooled
    /// inside the artifact.
    pub fn run(&self, inputs: &Inputs, executor: &dyn Executor) -> Result<Outputs, RuntimeError> {
        self.program.run(inputs, executor)
    }

    /// Claim a pooled run slot for a sequence of runs (a worker's
    /// micro-batch); see [`ps_runtime::Program::session`].
    pub fn session(&self) -> RunSession<'_, 'static> {
        self.program.session()
    }

    /// The checked HIR module this artifact executes.
    pub fn module(&self) -> &HirModule {
        self.program.module()
    }

    /// The source text this artifact was compiled from.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The runtime options this artifact was compiled with.
    pub fn options(&self) -> RuntimeOptions {
        self.program.options()
    }

    /// Parameter layouts specialized so far (delegates to the inner
    /// program).
    pub fn specialization_count(&self) -> usize {
        self.program.specialization_count()
    }

    /// Parameter layouts currently cached (bounded by
    /// [`ps_runtime::SPEC_CACHE_CAP`]).
    pub fn spec_cached(&self) -> usize {
        self.program.spec_cached()
    }

    /// Specializations evicted from the bounded per-layout cache.
    pub fn spec_evictions(&self) -> usize {
        self.program.spec_evictions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_executor::Sequential;

    const RECURRENCE: &str = "Compound: module (rate: real; n: int): [final: real];
        type K = 2 .. n;
        var balance: array [1 .. n] of real;
        define
            balance[1] = 1.0;
            balance[K] = balance[K-1] * (1.0 + rate);
            final = balance[n];
        end Compound;";

    #[test]
    fn owned_artifact_runs_after_moves() {
        let prog =
            CompiledProgram::compile(RECURRENCE.into(), RuntimeOptions::default(), None).unwrap();
        // Move the Arc around (into an array, out again).
        let held = [prog];
        let prog = &held[0];
        for (rate, n) in [(0.5f64, 10i64), (0.25, 20)] {
            let out = prog
                .run(
                    &Inputs::new().set_real("rate", rate).set_int("n", n),
                    &Sequential,
                )
                .unwrap();
            let expected = (1.0 + rate).powi(n as i32 - 1);
            assert!((out.scalar("final").as_real() - expected).abs() < 1e-9);
        }
        assert_eq!(prog.specialization_count(), 2, "n ∈ {{10, 20}}");
    }

    #[test]
    fn compile_errors_are_reported_not_cached() {
        let Err(err) =
            CompiledProgram::compile("not a module".into(), RuntimeOptions::default(), None)
        else {
            panic!("garbage must not compile");
        };
        let ServiceError::Compile(msg) = err;
        assert!(!msg.is_empty());
    }

    #[test]
    fn sessions_share_the_artifact_across_threads() {
        let prog =
            CompiledProgram::compile(RECURRENCE.into(), RuntimeOptions::default(), None).unwrap();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let prog = &prog;
                scope.spawn(move || {
                    let mut session = prog.session();
                    for i in 0..4 {
                        let n = 4 + ((t + i) % 3) as i64;
                        let out = session
                            .run(
                                &Inputs::new().set_real("rate", 1.0).set_int("n", n),
                                &Sequential,
                            )
                            .unwrap();
                        assert!(
                            (out.scalar("final").as_real() - 2.0f64.powi(n as i32 - 1)).abs()
                                < 1e-9
                        );
                    }
                });
            }
        });
    }
}
