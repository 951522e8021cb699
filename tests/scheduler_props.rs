//! Property tests for the scheduler: on randomly generated stencil systems
//! the scheduler either produces a flowchart that passes the conservative
//! replay validator, or reports a clean `NotSchedulable` error — it must
//! never emit an invalid schedule.
//!
//! Driven by the shrinking `ps_support::rng::check` harness (no
//! `proptest`): the same 48 stencil and 24 grid programs replay on every
//! run; a failure is greedily minimized (offset vectors halved, then
//! bisected) and reported with the `Lcg` state that replays it.

use ps_core::{
    compile, execute, run_naive, CompileError, CompileOptions, Inputs, RuntimeOptions, Sequential,
    ThreadPool,
};
use ps_scheduler::{Descriptor, LoopKind};
use ps_support::rng::{check, shrink_vec};
use ps_support::{FxHashMap, Lcg, Symbol};

/// A randomly generated 1-D two-array stencil program.
#[derive(Debug, Clone)]
struct StencilProgram {
    /// Offsets (≥1) with which `a[K]` reads `a[K-off]`.
    a_self: Vec<i64>,
    /// Offsets with which `a[K]` reads `b[K-off]` (0 = same iteration).
    a_from_b: Vec<i64>,
    /// Offsets (≥1) with which `b[K]` reads `a[K-off]`.
    b_from_a: Vec<i64>,
    init_planes: i64,
}

impl StencilProgram {
    fn max_offset(&self) -> i64 {
        self.a_self
            .iter()
            .chain(&self.a_from_b)
            .chain(&self.b_from_a)
            .copied()
            .max()
            .unwrap_or(1)
            .max(1)
    }

    fn source(&self) -> String {
        let lo = self.init_planes + 1;
        let mut eqs = String::new();
        for p in 1..=self.init_planes {
            eqs.push_str(&format!("    a[{p}] = {p}.0;\n    b[{p}] = {}.5;\n", p));
        }
        let mut a_terms: Vec<String> = self.a_self.iter().map(|o| format!("a[K-{o}]")).collect();
        a_terms.extend(self.a_from_b.iter().map(|o| {
            if *o == 0 {
                "b[K]".to_string()
            } else {
                format!("b[K-{o}]")
            }
        }));
        a_terms.push("1.0".to_string());
        let mut b_terms: Vec<String> = self.b_from_a.iter().map(|o| format!("a[K-{o}]")).collect();
        b_terms.push("0.5".to_string());
        eqs.push_str(&format!("    a[K] = {};\n", a_terms.join(" + ")));
        eqs.push_str(&format!("    b[K] = {};\n", b_terms.join(" + ")));
        format!(
            "Gen: module (n: int): [y: real];
             type K = {lo} .. n;
             var a, b: array [1 .. n] of real;
             define
             {eqs}
                 y = a[n] + b[n];
             end Gen;"
        )
    }
}

/// Mirrors the original proptest strategy: 1–2 self offsets in 1..=3,
/// 0–2 `b` offsets in 0..=2, 0–2 cross offsets in 1..=3.
fn arb_stencil(rng: &mut Lcg) -> StencilProgram {
    let a_self = rng.vec_of(1, 2, |r| r.int(1, 3));
    let a_from_b = rng.vec_of(0, 2, |r| r.int(0, 2));
    let b_from_a = rng.vec_of(0, 2, |r| r.int(1, 3));
    let mut p = StencilProgram {
        a_self,
        a_from_b,
        b_from_a,
        init_planes: 0,
    };
    p.init_planes = p.max_offset();
    p
}

/// Shrink candidates: thin out each offset vector (the recursive `a_self`
/// list must stay nonempty), recomputing the derived init-plane count.
fn shrink_stencil(p: &StencilProgram) -> Vec<StencilProgram> {
    let rebuild = |a_self: Vec<i64>, a_from_b: Vec<i64>, b_from_a: Vec<i64>| {
        let mut q = StencilProgram {
            a_self,
            a_from_b,
            b_from_a,
            init_planes: 0,
        };
        q.init_planes = q.max_offset();
        q
    };
    let mut out = Vec::new();
    for cand in shrink_vec(&p.a_self, 1) {
        out.push(rebuild(cand, p.a_from_b.clone(), p.b_from_a.clone()));
    }
    for cand in shrink_vec(&p.a_from_b, 0) {
        out.push(rebuild(p.a_self.clone(), cand, p.b_from_a.clone()));
    }
    for cand in shrink_vec(&p.b_from_a, 0) {
        out.push(rebuild(p.a_self.clone(), p.a_from_b.clone(), cand));
    }
    out
}

/// Every `DOALL` in `items` has a one-item body. A `DOALL` deletes no
/// edge, so its body decomposes back into the one MSCC it came from; a
/// post-pass that merges loops would break this.
fn doall_bodies_are_single(items: &[Descriptor]) -> Result<(), String> {
    for d in items {
        if let Descriptor::Loop(l) = d {
            if l.kind == LoopKind::Doall && l.body.len() != 1 {
                return Err(format!("DOALL {} has {} body items", l.name, l.body.len()));
            }
            doall_bodies_are_single(&l.body)?;
        }
    }
    Ok(())
}

/// Whatever the offsets, the schedule validates and the scheduled
/// interpreter agrees with the oracle (a[K] reading b[K] in the same
/// iteration is legal: b's equation runs first, inside the same `DO K`
/// when a and b form one MSCC).
#[test]
fn random_stencils_schedule_correctly() {
    check(0x5c11ed0, 48, arb_stencil, shrink_stencil, |prog| {
        let src = prog.source();
        let n = 8 + prog.max_offset();
        match compile(&src, CompileOptions::default()) {
            Ok(comp) => {
                doall_bodies_are_single(&comp.schedule.flowchart.items)
                    .map_err(|e| format!("{e}\n{src}"))?;

                // 1. The replay validator accepts the flowchart.
                let mut params = FxHashMap::default();
                params.insert(Symbol::intern("n"), n);
                ps_core::validate_flowchart(&comp.module, &comp.schedule.flowchart, &params)
                    .map_err(|e| format!("schedule must validate: {e:?}\n{src}"))?;

                // 2. Scheduled execution (with the write checker) matches
                //    the demand-driven oracle.
                let inputs = Inputs::new().set_int("n", n);
                let scheduled = execute(
                    &comp,
                    &inputs,
                    &Sequential,
                    RuntimeOptions {
                        check_writes: true,
                        ..Default::default()
                    },
                )
                .map_err(|e| format!("runs: {e}\n{src}"))?;
                let oracle =
                    run_naive(&comp.module, &inputs).map_err(|e| format!("oracle: {e}\n{src}"))?;
                let s = scheduled.scalar("y").as_real();
                let o = oracle.scalar("y").as_real();
                if (s - o).abs() >= 1e-9 {
                    return Err(format!("scheduled {s} vs oracle {o}\n{src}"));
                }
                Ok(())
            }
            Err(CompileError::Schedule(_)) => {
                // Clean refusal is acceptable (e.g. same-iteration cycles).
                Ok(())
            }
            Err(other) => Err(format!("{other}\n{src}")),
        }
    });
}

/// Random 2-D grid programs built from a safe offset menu: always
/// schedulable; parallel equals sequential equals oracle.
#[derive(Debug, Clone)]
struct GridProgram {
    /// Spatial offsets (di, dj) read at iteration K-1.
    prev_reads: Vec<(i64, i64)>,
}

fn arb_grid(rng: &mut Lcg) -> GridProgram {
    let prev_reads = rng.vec_of(1, 4, |r| (r.int(-1, 1), r.int(-1, 1)));
    GridProgram { prev_reads }
}

impl GridProgram {
    fn source(&self) -> String {
        let terms: Vec<String> = self
            .prev_reads
            .iter()
            .map(|(di, dj)| {
                let i = match di.cmp(&0) {
                    std::cmp::Ordering::Equal => "I".to_string(),
                    std::cmp::Ordering::Greater => format!("I+{di}"),
                    std::cmp::Ordering::Less => format!("I-{}", -di),
                };
                let j = match dj.cmp(&0) {
                    std::cmp::Ordering::Equal => "J".to_string(),
                    std::cmp::Ordering::Greater => format!("J+{dj}"),
                    std::cmp::Ordering::Less => format!("J-{}", -dj),
                };
                format!("g[K-1,{i},{j}]")
            })
            .collect();
        let sum = terms.join(" + ");
        let count = terms.len();
        format!(
            "Grid: module (init: array[I,J] of real; M: int; maxK: int):
                 [out: array[I,J] of real];
             type I, J = 0 .. M+1; K = 2 .. maxK;
             var g: array [1 .. maxK] of array[I,J] of real;
             define
                g[1] = init;
                out = g[maxK];
                g[K,I,J] = if (I = 0) or (J = 0) or (I = M+1) or (J = M+1)
                           then g[K-1,I,J]
                           else ({sum}) / {count};
             end Grid;"
        )
    }
}

#[test]
fn random_grids_parallel_equals_oracle() {
    let shrink = |p: &GridProgram| {
        shrink_vec(&p.prev_reads, 1)
            .into_iter()
            .map(|prev_reads| GridProgram { prev_reads })
            .collect()
    };
    check(0x5c11ed1, 24, arb_grid, shrink, |prog| {
        let src = prog.source();
        let comp = compile(&src, CompileOptions::default()).map_err(|e| format!("{e}\n{src}"))?;
        doall_bodies_are_single(&comp.schedule.flowchart.items)
            .map_err(|e| format!("{e}\n{src}"))?;
        // Jacobi shape: outer DO, inner DOALLs.
        let (do_n, doall_n) = comp.schedule.flowchart.loop_counts();
        if do_n != 1 || doall_n < 4 {
            return Err(format!(
                "unexpected shape {do_n} DO / {doall_n} DOALL\n{src}"
            ));
        }

        let m = 5i64;
        let side = (m + 2) as usize;
        let data: Vec<f64> = (0..side * side).map(|i| (i % 13) as f64 * 0.5).collect();
        let inputs = Inputs::new().set_int("M", m).set_int("maxK", 4).set_array(
            "init",
            ps_core::OwnedArray::real(vec![(0, m + 1), (0, m + 1)], data),
        );
        let pool = ThreadPool::new(3);
        let par = execute(&comp, &inputs, &pool, RuntimeOptions::default())
            .map_err(|e| format!("parallel: {e}\n{src}"))?;
        let oracle = run_naive(&comp.module, &inputs).map_err(|e| format!("oracle: {e}\n{src}"))?;
        let diff = par.array("out").max_abs_diff(oracle.array("out"));
        if diff >= 1e-9 {
            return Err(format!("diff {diff}\n{src}"));
        }
        Ok(())
    });
}
