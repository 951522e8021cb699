//! The three stencil workloads: warm `Program::run` of the paper's two
//! relaxation programs at a fixed, L2-resident size (a 128² plane is
//! 128 KiB; at ≈ 70 ns/cell the interpreter, not memory, is the limit).

use crate::gen::{grid, relaxation_inputs, side, Rng};
use crate::kernels::{gauss_seidel, jacobi, same_bits};
use ps_core::ps_trace::{Stage, StageSet};
use ps_core::{
    compile, programs, Compilation, CompileOptions, Inputs, Program, RuntimeOptions, Sequential,
    StorageMode, ThreadPool,
};
use std::sync::Arc;
use std::time::Instant;

/// Interior size of both relaxation problems.
pub const M: i64 = 126;
/// Planes of the Jacobi problem (`stencil_seq`, `stencil_par`).
pub const JACOBI_PLANES: i64 = 64;
/// Planes of the Gauss–Seidel problem (`wavefront_par`).
pub const SEIDEL_PLANES: i64 = 16;

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Problem {
    /// `relaxation_v1` (Figure 6): a few large DOALL regions per op.
    Jacobi,
    /// `relaxation_v2` as scheduled (Figure 7): fully iterative.
    GaussSeidel,
    /// `relaxation_v2` after the Section-4 transform, windowed storage:
    /// hundreds of small guarded regions and a drain per plane.
    Wavefront,
}

pub struct Stencil {
    comp: &'static Compilation,
    program: Program<'static>,
    inputs: Inputs,
    initial: Vec<f64>,
    /// Native kernel's `newA` for these inputs.
    reference: Vec<f64>,
    pool: Option<ThreadPool>,
    problem: Problem,
}

impl Stencil {
    /// Generate the grid, compile, and build the artifact (no run yet).
    /// `threads: None` runs on `Sequential`.
    pub fn new(problem: Problem, threads: Option<usize>, seed: u64) -> Result<Stencil, String> {
        let initial = grid(&mut Rng::new(seed), M);
        let (source, planes, hyperplane) = match problem {
            Problem::Jacobi => (programs::RELAXATION_V1, JACOBI_PLANES, None),
            Problem::GaussSeidel => (programs::RELAXATION_V2, SEIDEL_PLANES, None),
            Problem::Wavefront => (
                programs::RELAXATION_V2,
                SEIDEL_PLANES,
                Some(StorageMode::Windowed),
            ),
        };
        let comp = compile(
            source,
            CompileOptions {
                hyperplane,
                ..Default::default()
            },
        )
        .map_err(|e| e.to_string())?;
        // `Program` borrows its `Compilation`; both live until the process
        // exits, so the compilation is leaked rather than self-referenced.
        let comp: &'static Compilation = Box::leak(Box::new(comp));
        let program = match problem {
            Problem::Wavefront => Program::compile_transformed(comp, RuntimeOptions::default()),
            _ => Program::try_compile(comp, RuntimeOptions::default()).map_err(|e| e.0)?,
        };
        let reference = match problem {
            Problem::Jacobi => jacobi(&initial, M, planes),
            _ => gauss_seidel(&initial, M, planes),
        };
        Ok(Stencil {
            comp,
            program,
            inputs: relaxation_inputs(&initial, M, planes),
            initial,
            reference,
            pool: threads.map(ThreadPool::new),
            problem,
        })
    }

    /// Grid cells computed per op (`side² × planes`).
    pub fn cells(&self) -> u64 {
        let planes = match self.problem {
            Problem::Jacobi => JACOBI_PLANES,
            _ => SEIDEL_PLANES,
        };
        (side(M) * side(M)) as u64 * planes as u64
    }

    /// One op: `Program::run`, then the bit-for-bit check against the
    /// native kernel. Returns (ns in `run`, correct).
    pub fn run(&self) -> (u64, bool) {
        let started = Instant::now();
        let result = match &self.pool {
            Some(pool) => self.program.run(&self.inputs, pool),
            None => self.program.run(&self.inputs, &Sequential),
        };
        let ns = started.elapsed().as_nanos() as u64;
        let ok = match result {
            Ok(out) => same_bits(out.array("newA").as_real_slice(), &self.reference),
            Err(e) => {
                eprintln!("{:?}: {}", self.problem, e.0);
                false
            }
        };
        (ns, ok)
    }

    /// One run of the native reference kernel on the same grid; returns ns.
    pub fn run_native(&self) -> u64 {
        let started = Instant::now();
        let out = match self.problem {
            Problem::Jacobi => jacobi(std::hint::black_box(&self.initial), M, JACOBI_PLANES),
            _ => gauss_seidel(std::hint::black_box(&self.initial), M, SEIDEL_PLANES),
        };
        std::hint::black_box(out);
        started.elapsed().as_nanos() as u64
    }

    /// What the first run of a fresh artifact pays for specialization, in
    /// µs, as the runtime times it itself (which it does only while
    /// `ps_trace` is enabled). The artifact is built the way
    /// `Program::try_compile` builds it, one level down, where the runtime
    /// takes a sink for its stage timings.
    ///
    /// # Panics
    /// On the transformed problem.
    pub fn specialize_us(&self) -> Result<f64, String> {
        assert_ne!(self.problem, Problem::Wavefront);
        let fresh = ps_runtime::Program::try_new(
            &self.comp.module,
            &self.comp.schedule.flowchart,
            &self.comp.schedule.memory,
            RuntimeOptions::default(),
        )
        .map_err(|e| e.0)?;
        let stages = Arc::new(StageSet::new());
        fresh.set_stage_sink(Arc::clone(&stages));
        fresh.run(&self.inputs, &Sequential).map_err(|e| e.0)?;
        let specialize = stages.get(Stage::Specialize);
        Ok((specialize.mean_ns() * specialize.count()) as f64 / 1e3)
    }

    /// The pool of the parallel workloads (`None` on `Sequential`).
    pub fn pool(&self) -> Option<&ThreadPool> {
        self.pool.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_problem_matches_its_native_kernel_on_both_executors() {
        for problem in [Problem::Jacobi, Problem::GaussSeidel, Problem::Wavefront] {
            for threads in [None, Some(2)] {
                let s = Stencil::new(problem, threads, 1987).expect("compiles");
                assert!(s.run().1, "{problem:?} on {threads:?}");
                assert!(s.run().1, "{problem:?} on {threads:?}, warm");
            }
        }
    }
}
