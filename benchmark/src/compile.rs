//! `compile_cold`: one op is one sweep of the whole compile pipeline plus a
//! tiny first run over the twelve-program corpus. Every source carries a
//! trailing comment unique to the op, so no cache — present or future — can
//! answer from memory: this is what a registry miss or a `psc` user pays.

use crate::gen::{corpus, CorpusEntry};
use crate::kernels::same_bits;
use crate::trace::{SpanId, Tracer, NO_PARENT};
use ps_core::{
    compile, Compilation, CompileOptions, Outputs, Program, RuntimeOptions, Sequential,
    TransformedArtifacts,
};
use ps_runtime::value::OwnedBuffer;
use ps_support::DiagnosticSink;
use std::time::Instant;

/// Figure 6, exactly.
const FLOWCHART_V1: &str = "DOALL I (DOALL J (eq.1)); DO K (DOALL I (DOALL J (eq.3))); \
                            DOALL I (DOALL J (eq.2))";
/// Figure 7, exactly.
const FLOWCHART_V2: &str = "DOALL I (DOALL J (eq.1)); DO K (DO I (DO J (eq.3))); \
                            DOALL I (DOALL J (eq.2))";
/// Section 4's wavefront: the transform must recover the inner DOALLs.
const WAVEFRONT_V2: &str = "DO K' (DOALL I' (DOALL J' (eq.3)); DRAIN K')";

struct Prepared {
    entry: CorpusEntry,
    /// From `run_naive` on the untransformed module, once, before timing.
    reference: Outputs,
}

pub struct CompileCold {
    programs: Vec<Prepared>,
}

/// Exact counts gathered by a layer-by-layer sweep (identical on every
/// sweep).
#[derive(Default, Debug, PartialEq, Clone, Copy)]
pub struct SweepCounts {
    pub source_bytes: u64,
    pub depgraph_nodes: u64,
    pub depgraph_edges: u64,
    pub doall_loops: u64,
    pub do_loops: u64,
    pub c_bytes: u64,
    pub proven_arrays: u64,
}

/// Span names of the compile layers, in pipeline order (crate.step).
pub const LAYERS: [&str; 10] = [
    "lang.lex",
    "lang.parse",
    "lang.check",
    "depgraph.build",
    "scheduler.schedule",
    "hyperplane.transform",
    "codegen.emit",
    "runtime.lower",
    "analyze.verify",
    "runtime.first_run",
];

fn same_outputs(a: &Outputs, b: &Outputs) -> bool {
    use ps_core::Value;
    let same_value = |x: &Value, y: &Value| match (x, y) {
        (Value::Real(x), Value::Real(y)) => x.to_bits() == y.to_bits(),
        _ => x == y,
    };
    a.scalars.len() == b.scalars.len()
        && a.arrays.len() == b.arrays.len()
        && a.scalars
            .iter()
            .all(|(k, v)| b.scalars.get(k).is_some_and(|w| same_value(v, w)))
        && a.arrays.iter().all(|(k, v)| {
            b.arrays.get(k).is_some_and(|w| {
                v.dims == w.dims
                    && match (&v.data, &w.data) {
                        (OwnedBuffer::Real(x), OwnedBuffer::Real(y)) => same_bits(x, y),
                        (x, y) => x == y,
                    }
            })
        })
}

impl CompileCold {
    pub fn new(seed: u64) -> Result<CompileCold, String> {
        let mut programs = Vec::new();
        for entry in corpus(seed) {
            let module = ps_core::frontend(&entry.source)?;
            let reference = ps_core::run_naive(&module, &entry.inputs)
                .map_err(|e| format!("{}: oracle: {}", entry.name, e.0))?;
            programs.push(Prepared { entry, reference });
        }
        Ok(CompileCold { programs })
    }

    fn source(p: &Prepared, op: u64) -> String {
        format!("{}(* cold {op} *)\n", p.entry.source)
    }

    fn options(p: &Prepared) -> CompileOptions {
        CompileOptions {
            hyperplane: p.entry.hyperplane,
            ..Default::default()
        }
    }

    /// The artifact's first run, and every check this op makes on one
    /// program: outputs equal to the oracle's, flowcharts equal to the
    /// paper's figures.
    fn check(p: &Prepared, comp: &Compilation, out: &Outputs) -> bool {
        let pinned = match p.entry.name.as_str() {
            "relaxation_v1" => comp.compact_flowchart() == FLOWCHART_V1,
            "relaxation_v2" => comp.compact_flowchart() == FLOWCHART_V2,
            "relaxation_v2.hyperplane" => {
                comp.compact_flowchart() == FLOWCHART_V2
                    && comp
                        .transformed_flowchart()
                        .is_some_and(|t| t.contains(WAVEFRONT_V2))
            }
            _ => true,
        };
        pinned && same_outputs(out, &p.reference)
    }

    /// One op through the crates' one-call entry points, as `psc` or a
    /// registry miss makes them: what the end-to-end run times. Returns (ns
    /// in the calls, all twelve programs correct).
    pub fn sweep(&self, op: u64) -> (u64, bool) {
        let mut ok = true;
        let mut ns = 0;
        for p in &self.programs {
            let source = Self::source(p, op);
            let started = Instant::now();
            let result = (|| -> Result<(Compilation, Outputs), String> {
                let comp = compile(&source, Self::options(p)).map_err(|e| e.to_string())?;
                let report = ps_core::analyze(&comp);
                if report.has_errors() {
                    return Err("verifier rejected the program".into());
                }
                let out = {
                    let program = if p.entry.hyperplane.is_some() {
                        Program::compile_transformed(&comp, RuntimeOptions::default())
                    } else {
                        Program::try_compile(&comp, RuntimeOptions::default()).map_err(|e| e.0)?
                    };
                    program.run(&p.entry.inputs, &Sequential).map_err(|e| e.0)?
                };
                Ok((comp, out))
            })();
            ns += started.elapsed().as_nanos() as u64;
            ok &= match result {
                Ok((comp, out)) => Self::check(p, &comp, &out),
                Err(e) => {
                    eprintln!("compile_cold: {}: {e}", p.entry.name);
                    false
                }
            };
        }
        (ns, ok)
    }

    /// The same sweep taken apart: layer by layer through each crate's
    /// public function, with a span around every call. The traced run uses
    /// it for both its phases, `ps_trace` off and on. Each program's
    /// pipeline runs inside a `compile.program` span; checks and counting
    /// happen outside it, as in [`CompileCold::sweep`]. Returns (ns in the
    /// program spans, correct, exact counts).
    pub fn sweep_layers(&self, op: u64, tracer: &mut Tracer) -> (u64, bool, SweepCounts) {
        let mut ok = true;
        let mut ns = 0;
        let mut counts = SweepCounts::default();
        let root = tracer.begin("compile.sweep", NO_PARENT, op);
        for p in &self.programs {
            let source = Self::source(p, op);
            counts.source_bytes += source.len() as u64;
            let program = tracer.begin("compile.program", root, op);
            let result = Self::layers(p, &source, op, program, tracer);
            tracer.end(program);
            ns += tracer.spans[program].end_ns - tracer.spans[program].start_ns;
            match result {
                Ok((comp, proven, out)) => {
                    ok &= Self::check(p, &comp, &out);
                    counts.proven_arrays += proven;
                    counts.add(&comp);
                }
                Err(e) => {
                    eprintln!("compile_cold: {}: {e}", p.entry.name);
                    ok = false;
                }
            }
        }
        tracer.end(root);
        (ns, ok, counts)
    }

    /// One program through the pipeline; every span is a child of `parent`.
    fn layers(
        p: &Prepared,
        source: &str,
        op: u64,
        parent: SpanId,
        t: &mut Tracer,
    ) -> Result<(Compilation, u64, Outputs), String> {
        let options = Self::options(p);
        let sink = DiagnosticSink::new();
        let tokens = t.call("lang.lex", parent, op, || {
            ps_lang::lexer::lex(source, &sink)
        });
        let ast = t.call("lang.parse", parent, op, || {
            ps_lang::parser::parse_program(&tokens, &sink)
        });
        let ast = ast.modules.into_iter().next().ok_or("no module")?;
        let module = t
            .call("lang.check", parent, op, || {
                ps_lang::check::check_module(&ast, &sink)
            })
            .filter(|_| !sink.has_errors())
            .ok_or("front end reported errors")?;
        let depgraph = t.call("depgraph.build", parent, op, || {
            ps_core::build_depgraph(&module)
        });
        let schedule = t
            .call("scheduler.schedule", parent, op, || {
                ps_core::schedule_module(&module, &depgraph, options.schedule)
            })
            .map_err(|e| e.to_string())?;
        let c_code = t.call("codegen.emit", parent, op, || {
            ps_core::emit_module(
                &module,
                &schedule.flowchart,
                &schedule.memory,
                options.codegen,
            )
        });
        let transformed = match options.hyperplane {
            None => None,
            Some(mode) => {
                let (result, tsched) = t.call("hyperplane.transform", parent, op, || {
                    let target =
                        ps_core::find_recursive_target(&module).ok_or("no recursive array")?;
                    let result = ps_core::hyperplane_transform(&module, target, mode)
                        .map_err(|e| e.to_string())?;
                    let tsched = ps_core::schedule_transformed(&result, options.schedule)
                        .map_err(|e| e.to_string())?;
                    Ok::<_, String>((result, tsched))
                })?;
                let tc = t.call("codegen.emit", parent, op, || {
                    ps_core::emit_module(
                        &result.module,
                        &tsched.flowchart,
                        &tsched.memory,
                        options.codegen,
                    )
                });
                Some(TransformedArtifacts {
                    result,
                    schedule: tsched,
                    c_code: tc,
                })
            }
        };
        let comp = Compilation {
            module,
            depgraph,
            schedule,
            c_code,
            transformed,
        };
        let report = t.call("analyze.verify", parent, op, || ps_core::analyze(&comp));
        if report.has_errors() {
            return Err("verifier rejected the program".into());
        }
        let proven = report.arrays.iter().filter(|a| a.verified).count() as u64;
        let out = {
            let program = t.call("runtime.lower", parent, op, || {
                if p.entry.hyperplane.is_some() {
                    Ok(Program::compile_transformed(
                        &comp,
                        RuntimeOptions::default(),
                    ))
                } else {
                    Program::try_compile(&comp, RuntimeOptions::default()).map_err(|e| e.0)
                }
            })?;
            t.call("runtime.first_run", parent, op, || {
                program.run(&p.entry.inputs, &Sequential)
            })
            .map_err(|e| e.0)?
        };
        Ok((comp, proven, out))
    }
}

impl SweepCounts {
    fn add(&mut self, comp: &Compilation) {
        let stats = ps_depgraph::stats::stats(&comp.depgraph);
        self.depgraph_nodes += stats.total_nodes() as u64;
        self.depgraph_edges += stats.total_edges() as u64;
        self.c_bytes += comp.c_code.len() as u64;
        let mut flowcharts = vec![&comp.schedule.flowchart];
        if let Some(tr) = &comp.transformed {
            self.c_bytes += tr.c_code.len() as u64;
            flowcharts.push(&tr.schedule.flowchart);
        }
        for fc in flowcharts {
            let (do_n, doall_n) = fc.loop_counts();
            self.do_loops += do_n as u64;
            self.doall_loops += doall_n as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_sweeps_pass_their_checks_and_counts_repeat() {
        let w = CompileCold::new(1987).expect("corpus compiles");
        assert_eq!(w.programs.len(), 12);
        assert!(w.sweep(0).1, "one-call sweep is correct");
        let mut tracer = Tracer::new();
        let (_, ok, a) = w.sweep_layers(1, &mut tracer);
        assert!(ok, "layer-by-layer sweep is correct");
        let (_, _, b) = w.sweep_layers(2, &mut tracer);
        // Op ids 1 and 2 have equally long comments, so bytes repeat too.
        assert_eq!(a, b, "counts are exact");
        assert!(a.doall_loops > 0 && a.do_loops > 0 && a.proven_arrays > 0 && a.c_bytes > 0);
        for layer in LAYERS {
            assert!(
                tracer.micros_per_op(layer, 1..3).iter().all(|us| *us > 0.0),
                "{layer} has spans in both sweeps"
            );
        }
    }

    #[test]
    fn a_wrong_output_is_caught() {
        let mut w = CompileCold::new(7).expect("corpus compiles");
        let victim = w
            .programs
            .iter_mut()
            .find(|p| p.entry.name == "recurrence_1d")
            .unwrap();
        *victim.reference.scalars.get_mut("final").unwrap() = ps_core::Value::Real(0.0);
        assert!(!w.sweep(0).1);
    }
}
