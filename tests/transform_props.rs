//! Property tests for the hyperplane machinery: the time-vector solver and
//! unimodular completion on random dependence sets, and the full transform
//! on random Gauss–Seidel-like stencils.
//!
//! Driven by the shrinking `ps_support::rng::check` harness (no
//! `proptest`): each property replays the same cases (64 solver, 64
//! completion, 16 stencil) on every run, and failures are minimized by
//! halving/bisecting the dependence or offset lists before reporting.

use ps_core::{
    compile, execute, execute_transformed, CompileOptions, Inputs, RuntimeOptions, Sequential,
    StorageMode, ThreadPool,
};
use ps_hyperplane::imat::unimodular_completion;
use ps_hyperplane::solve_time_vector;
use ps_support::rng::{check, shrink_vec};
use ps_support::Lcg;

#[path = "generators.rs"]
mod generators;

/// Dependence vectors guaranteed feasible: each has a strictly positive
/// first component (a "time-like" axis exists). 1–5 vectors, first
/// component 1..=2, remaining components -2..=2 (the proptest strategy).
fn feasible_deps(rng: &mut Lcg, dims: usize) -> Vec<Vec<i64>> {
    rng.vec_of(1, 5, |r| {
        let mut v = vec![r.int(1, 2)];
        for _ in 1..dims {
            v.push(r.int(-2, 2));
        }
        v
    })
}

/// The solved time vector satisfies every inequality, is nonnegative,
/// and is sum-minimal (no vector with a smaller coefficient sum works).
#[test]
fn solver_is_sound_and_minimal() {
    check(
        0x44f0,
        64,
        |rng| feasible_deps(rng, 3),
        |deps| shrink_vec(deps, 1),
        |deps| {
            let pi =
                solve_time_vector(deps).map_err(|e| format!("feasible by construction: {e:?}"))?;
            if pi.iter().any(|&c| c < 0) {
                return Err(format!("negative coefficient in {pi:?}"));
            }
            for d in deps {
                let dot: i64 = pi.iter().zip(d).map(|(a, b)| a * b).sum();
                if dot < 1 {
                    return Err(format!("pi {pi:?} fails {d:?}"));
                }
            }
            // Minimality: brute-force all vectors with smaller sum.
            let sum: i64 = pi.iter().sum();
            for a in 0..sum {
                for b in 0..(sum - a) {
                    let c = sum - 1 - a - b;
                    if c < 0 {
                        continue;
                    }
                    let cand = [a, b, c];
                    let ok = deps
                        .iter()
                        .all(|d| cand.iter().zip(d).map(|(x, y)| x * y).sum::<i64>() >= 1);
                    if ok {
                        return Err(format!("smaller vector {cand:?} also works (pi {pi:?})"));
                    }
                }
            }
            Ok(())
        },
    );
}

/// Unimodular completion: first row is pi, |det| = 1, exact inverse.
#[test]
fn completion_is_unimodular() {
    check(
        0x44f1,
        64,
        |rng| feasible_deps(rng, 4),
        |deps| shrink_vec(deps, 1),
        |deps| {
            let pi = solve_time_vector(deps).map_err(|e| format!("feasible: {e:?}"))?;
            // The solver result may share a factor only if gcd > 1 is optimal —
            // the minimal solution always has gcd 1 (dividing by the gcd keeps
            // all inequalities, contradicting minimality otherwise).
            let t = unimodular_completion(&pi);
            assert_eq!(t.row(0), pi.as_slice());
            let det = t.det();
            if det != 1 && det != -1 {
                return Err(format!("det {det} not unimodular (pi {pi:?})"));
            }
            let inv = t.unimodular_inverse();
            let prod = t.mul(&inv);
            for i in 0..4 {
                for j in 0..4 {
                    if prod[(i, j)] != i64::from(i == j) {
                        return Err(format!("T * T^-1 != I at ({i},{j})"));
                    }
                }
            }
            // Every transformed dependence moves strictly forward in time.
            for d in deps {
                if t.mul_vec(d)[0] < 1 {
                    return Err(format!("dependence {d:?} not time-forward"));
                }
            }
            Ok(())
        },
    );
}

/// Random Gauss–Seidel-style stencils: mix of same-iteration reads from the
/// "past" quadrant and previous-iteration reads from anywhere nearby.
#[derive(Debug, Clone)]
struct GsProgram {
    /// Same-iteration reads: (di, dj) with di + dj < 0 lexicographically
    /// safe offsets drawn from {(0,-1), (-1,0), (-1,-1), (-1,1)}.
    current: Vec<(i64, i64)>,
    /// Previous-iteration reads: any |di|,|dj| ≤ 1.
    previous: Vec<(i64, i64)>,
}

fn arb_gs(rng: &mut Lcg) -> GsProgram {
    let menu = [(0i64, -1i64), (-1, 0), (-1, -1), (-1, 1)];
    let current = rng.subsequence(&menu, 1, 3);
    let previous = rng.vec_of(1, 3, |r| (r.int(-1, 1), r.int(-1, 1)));
    GsProgram { current, previous }
}

fn offset(base: &str, d: i64) -> String {
    match d.cmp(&0) {
        std::cmp::Ordering::Equal => base.to_string(),
        std::cmp::Ordering::Greater => format!("{base}+{d}"),
        std::cmp::Ordering::Less => format!("{base}-{}", -d),
    }
}

impl GsProgram {
    fn source(&self) -> String {
        let mut terms = Vec::new();
        for (di, dj) in &self.current {
            terms.push(format!("g[K,{},{}]", offset("I", *di), offset("J", *dj)));
        }
        for (di, dj) in &self.previous {
            terms.push(format!("g[K-1,{},{}]", offset("I", *di), offset("J", *dj)));
        }
        let n = terms.len();
        format!(
            "GS: module (init: array[I,J] of real; M: int; maxK: int):
                 [out: array[I,J] of real];
             type I, J = 0 .. M+1; K = 2 .. maxK;
             var g: array [1 .. maxK] of array[I,J] of real;
             define
                g[1] = init;
                out = g[maxK];
                g[K,I,J] = if (I = 0) or (J = 0) or (I = M+1) or (J = M+1)
                           then g[K-1,I,J]
                           else ({}) / {n};
             end GS;",
            terms.join(" + ")
        )
    }
}

/// Shrink candidates: thin out the same-iteration and previous-iteration
/// read lists (both stay nonempty, preserving the Gauss–Seidel shape).
fn shrink_gs(p: &GsProgram) -> Vec<GsProgram> {
    let mut out = Vec::new();
    for current in shrink_vec(&p.current, 1) {
        out.push(GsProgram {
            current,
            previous: p.previous.clone(),
        });
    }
    for previous in shrink_vec(&p.previous, 1) {
        out.push(GsProgram {
            current: p.current.clone(),
            previous,
        });
    }
    out
}

/// The windowed wavefront transform preserves semantics on random
/// Gauss–Seidel stencils bit for bit: sequentially with the write checker
/// enabled, in parallel, and against full storage, which differs from
/// windowed storage only in where the gather runs and in `g'`'s window.
#[test]
fn random_gs_transform_preserves_semantics() {
    check(0x44f2, 16, arb_gs, shrink_gs, |prog| {
        let src = prog.source();
        let transformed = |mode| {
            let options = CompileOptions {
                hyperplane: Some(mode),
                ..Default::default()
            };
            compile(&src, options).map_err(|e| format!("transformable ({mode:?}): {e}\n{src}"))
        };
        let comp = transformed(StorageMode::Windowed)?;
        let art = comp.transformed.as_ref().unwrap();
        // Legality: all transformed deps step forward in time.
        for d in &art.result.transformed_deps {
            if d[0] < 1 {
                return Err(format!("transformed dep {d:?} not time-forward\n{src}"));
            }
        }
        // Window = 1 + max time offset.
        let max_t = art
            .result
            .transformed_deps
            .iter()
            .map(|d| d[0])
            .max()
            .unwrap();
        if art.result.window != 1 + max_t {
            return Err(format!(
                "window {} != 1 + max time offset {max_t}\n{src}",
                art.result.window
            ));
        }

        let m = 5i64;
        let side = (m + 2) as usize;
        let data: Vec<f64> = (0..side * side).map(|i| ((i * 7) % 11) as f64).collect();
        let inputs = Inputs::new().set_int("M", m).set_int("maxK", 4).set_array(
            "init",
            ps_core::OwnedArray::real(vec![(0, m + 1), (0, m + 1)], data),
        );
        let base = execute(&comp, &inputs, &Sequential, RuntimeOptions::default())
            .map_err(|e| format!("base runs: {e}\n{src}"))?;
        let wave = execute_transformed(
            &comp,
            &inputs,
            &Sequential,
            RuntimeOptions {
                check_writes: true,
                ..Default::default()
            },
        )
        .map_err(|e| format!("wavefront runs: {e}\n{src}"))?;
        generators::assert_bits_eq("windowed vs untransformed", &base, &wave)
            .map_err(|e| format!("{e}\n{src}"))?;

        let pool = ThreadPool::new(3);
        let wave_par = execute_transformed(&comp, &inputs, &pool, RuntimeOptions::default())
            .map_err(|e| format!("parallel wavefront runs: {e}\n{src}"))?;
        generators::assert_bits_eq("pooled vs sequential windowed", &wave, &wave_par)
            .map_err(|e| format!("{e}\n{src}"))?;

        let full = transformed(StorageMode::Full)?;
        let full_out = execute_transformed(&full, &inputs, &Sequential, RuntimeOptions::default())
            .map_err(|e| format!("full-storage wavefront runs: {e}\n{src}"))?;
        generators::assert_bits_eq("full vs windowed", &full_out, &wave)
            .map_err(|e| format!("{e}\n{src}"))
    });
}
