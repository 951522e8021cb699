//! The scheduled flowchart walker.
//!
//! `DO` loops run in order; `DOALL` loops are handed to the executor. A
//! `DOALL` becomes one region over its own counter, each chunk walking its
//! slice the way the sequential executor walks the whole loop. When the
//! counter's range is narrower than the pool and the body is a single
//! inner `DOALL`, the inner loop is published once per outer value
//! instead, so a `DOALL I (DOALL J)` nest with few rows still fills the
//! pool. Nothing inside a chunk publishes: the pool enforces it, running
//! a `for_chunks` made from inside a chunk inline on that chunk's thread.
//! The only `for_chunks` call not made by `publish_doall` is the drain's,
//! which runs from the hyperplane's time loop, outermost in every
//! transformed flowchart.
//!
//! Equations execute as typed register tapes (`compiled.rs`) —
//! lowered **once per [`crate::Program`]**, specialized per parameter
//! layout, and reused across runs — with strength-reduced addressing and
//! zero per-iteration allocations. The one thing here that is not a tape
//! is the windowed-hyperplane drain, which copies element by element
//! through [`crate::ndarray::ArrayInstance`]'s checked accessors.
//!
//! `check_writes` is the tapes' checked mode: every load and store
//! re-derives its logical index and maintains the store's per-slot tags
//! inline, the transitions the checked accessors perform for a drain.
//!
//! [`run_module`] is a thin compile-and-run-once wrapper over
//! [`crate::Program`]; callers serving many runs should hold a `Program`.

use crate::compiled::{ExecProg, Frames};
use crate::program::Program;
use crate::store::{Inputs, Outputs, RuntimeError, Store};
use ps_executor::Executor;
use ps_lang::hir::HirModule;
use ps_lang::EqId;
use ps_scheduler::{Descriptor, DrainSpec, Flowchart, LoopDescriptor, LoopKind, MemoryPlan};
use ps_support::idx::Idx;
use ps_trace::EvKind;

/// How much static verification [`crate::Program`] construction performs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AnalysisLevel {
    /// No static analysis beyond structural tape validation.
    #[default]
    Off,
    /// Run the `ps-analyze` verifier over the compiled tapes: prove
    /// def-before-use, in-bounds addressing, and write-disjointness for
    /// every admissible parameter vector. Construction fails on any
    /// provable violation; arrays whose accesses are fully proven skip the
    /// `check_writes` tag machinery.
    Verify,
}

/// Knobs for [`run_module`] / [`crate::Program`].
///
/// `PartialEq`/`Eq` make options usable as part of a compile-cache key
/// (a serving registry caches one `Program` per `(source, options)`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuntimeOptions {
    /// Track logical tags per physical slot, catching double writes and
    /// window evictions (slow; for tests).
    pub check_writes: bool,
    /// Static verification level (off by default).
    pub analysis: AnalysisLevel,
}

/// Execute a scheduled module: compile a [`Program`] and run it once.
///
/// For compile-once / run-many workloads, build the [`Program`] yourself
/// and call [`Program::run`] repeatedly — that amortizes lowering and
/// reuses pooled run state.
pub fn run_module(
    module: &HirModule,
    flowchart: &Flowchart,
    plan: &MemoryPlan,
    inputs: &Inputs,
    executor: &dyn Executor,
    options: RuntimeOptions,
) -> Result<Outputs, RuntimeError> {
    Program::new(module, flowchart, plan, options).run(inputs, executor)
}

pub(crate) struct Interp<'a, 'm> {
    pub(crate) store: &'a Store<'m>,
    pub(crate) executor: &'a dyn Executor,
    /// Trace label per equation (see [`crate::Program`]); empty slices are
    /// fine — region events then carry label 0 ("unnamed").
    pub(crate) eq_labels: &'a [u64],
}

/// Every equation reachable in `items` (loop bodies included), in order.
fn collect_equations(items: &[Descriptor]) -> Vec<EqId> {
    let mut out = Vec::new();
    fn go(items: &[Descriptor], out: &mut Vec<EqId>) {
        for d in items {
            match d {
                Descriptor::Equation(eq) => out.push(*eq),
                Descriptor::Loop(l) => go(&l.body, out),
                Descriptor::Drain(_) => {}
            }
        }
    }
    go(items, &mut out);
    out
}

impl<'a, 'm> Interp<'a, 'm> {
    /// Open a trace span for a parallel region about to be handed to the
    /// executor, labelled with the first of the equations it runs (so
    /// profiles and flight dumps name the equation, not just an epoch);
    /// its count is `width`, the published range's. `None` — and zero
    /// work — while tracing is disabled.
    fn region_span(&self, body_eqs: &[EqId], width: i64) -> Option<ps_trace::SpanGuard> {
        if !ps_trace::enabled() {
            return None;
        }
        let label = body_eqs
            .first()
            .and_then(|eq| self.eq_labels.get(eq.index()).copied())
            .unwrap_or(0);
        Some(ps_trace::span(EvKind::Region, label, width as u64))
    }

    fn bounds(&self, sr: ps_lang::SubrangeId) -> (i64, i64) {
        self.store.subrange_bounds(sr)
    }

    /// Run a whole flowchart. A `DOALL` may publish a region only when the
    /// executor has someone to hand it to.
    pub(crate) fn run(&self, prog: &ExecProg<'_, 'm>, items: &[Descriptor], frames: &mut Frames) {
        self.run_items(prog, items, frames, self.executor.threads() > 1, None);
    }

    /// Walk `items` in order. With `publish`, a `DOALL` met here becomes
    /// a region on the executor; without it — on the sequential executor,
    /// and everywhere inside a region's chunk — it runs on the current
    /// thread. `time` is the counter of the `DO` loop whose body `items`
    /// is, when it is one: what a drain needs.
    fn run_items(
        &self,
        prog: &ExecProg<'_, 'm>,
        items: &[Descriptor],
        frames: &mut Frames,
        publish: bool,
        time: Option<i64>,
    ) {
        for d in items {
            match (d, time) {
                (Descriptor::Equation(eq), _) => prog.run_eq(*eq, frames),
                (Descriptor::Loop(l), _) => self.run_loop(prog, l, frames, publish),
                (Descriptor::Drain(spec), Some(t)) => self.run_drain(spec, t),
                (Descriptor::Drain(spec), None) => {
                    panic!("drain over {} reached outside a time loop", spec.time_name)
                }
            }
        }
    }

    fn run_loop(
        &self,
        prog: &ExecProg<'_, 'm>,
        l: &LoopDescriptor,
        frames: &mut Frames,
        publish: bool,
    ) {
        let (lo, hi) = self.bounds(l.subrange);
        match l.kind {
            LoopKind::Do => {
                for i in lo..=hi {
                    // Counters live in flat per-equation slots: binding is
                    // an indexed store, no environment structure at all.
                    for &(eq, iv) in &l.bindings {
                        frames.set_iv(eq, iv, i);
                    }
                    self.run_items(prog, &l.body, frames, publish, Some(i));
                }
            }
            LoopKind::Doall if publish => self.publish_doall(prog, l, frames),
            LoopKind::Doall => self.run_inline(prog, l, lo, hi, frames),
        }
    }

    /// Run `DOALL l` over `lo..=hi` of its counter on this thread, binding
    /// counters in `frames` and allocating nothing: the whole loop on the
    /// sequential executor, one chunk's slice of it in a published region.
    /// Nothing in the slice publishes again. Iterations are independent, so
    /// every split of the range gives the same bits.
    fn run_inline(
        &self,
        prog: &ExecProg<'_, 'm>,
        l: &LoopDescriptor,
        lo: i64,
        hi: i64,
        frames: &mut Frames,
    ) {
        match &l.body[..] {
            // A single-equation body (the common innermost case) hoists the
            // tape lookup out of the element loop.
            [Descriptor::Equation(eq)] => {
                return prog.run_eq_range(*eq, &l.bindings, lo, hi, frames)
            }
            // So does a single stripped equation two `DOALL`s deep, whose
            // nest is one walk over the rectangles its branches cut.
            [Descriptor::Loop(inner)] => match inner.body[..] {
                [Descriptor::Equation(eq)] if prog.strips_nest(eq) => {
                    return prog.run_nest(eq, (lo, hi), self.bounds(inner.subrange), frames)
                }
                _ => {}
            },
            _ => {}
        }
        for i in lo..=hi {
            for &(eq, iv) in &l.bindings {
                frames.set_iv(eq, iv, i);
            }
            self.run_items(prog, &l.body, frames, false, None);
        }
    }

    /// Hand `DOALL l` to the executor as one region over its own counter.
    /// Each chunk clones its body's frames once (inheriting outer `DO`
    /// counters and preloaded constants) and runs its slice with
    /// [`Interp::run_inline`], so a pooled chunk takes the same nest walk,
    /// strip path or generic walk as the sequential executor.
    ///
    /// One shape would leave workers idle: a range narrower than the pool
    /// whose body is a single inner `DOALL`. There the counter is bound
    /// here and the inner loop published once per value. Any other narrow
    /// range is one region like the rest.
    fn publish_doall(&self, prog: &ExecProg<'_, 'm>, l: &LoopDescriptor, frames: &mut Frames) {
        let (lo, hi) = self.bounds(l.subrange);
        if hi < lo {
            return;
        }
        if let [Descriptor::Loop(inner)] = &l.body[..] {
            if inner.kind == LoopKind::Doall && hi - lo + 1 < self.executor.threads() as i64 {
                for i in lo..=hi {
                    for &(eq, iv) in &l.bindings {
                        frames.set_iv(eq, iv, i);
                    }
                    self.publish_doall(prog, inner, frames);
                }
                return;
            }
        }
        let body_eqs = collect_equations(&l.body);
        let _rspan = self.region_span(&body_eqs, hi - lo + 1);
        let frames = &*frames;
        self.executor.for_chunks(lo, hi, &|start, stop| {
            let mut local = frames.clone_for(&body_eqs);
            self.run_inline(prog, l, start, stop - 1, &mut local);
        });
    }

    /// The windowed-hyperplane drain: copy finished elements of the
    /// transformed array into the destination while plane `t` is current.
    fn run_drain(&self, spec: &DrainSpec, t: i64) {
        let ranges: Vec<(i64, i64)> = spec.inner.iter().map(|&sr| self.bounds(sr)).collect();
        let widths: Vec<i64> = ranges
            .iter()
            .map(|&(lo, hi)| (hi - lo + 1).max(0))
            .collect();
        let total: i64 = widths.iter().product();
        if total <= 0 {
            return;
        }
        let eval = |a: &ps_lang::Affine| {
            a.eval(&self.store.params)
                .unwrap_or_else(|| panic!("cannot evaluate {a}"))
        };
        let bounds: Vec<(i64, i64)> = spec
            .original_bounds
            .iter()
            .map(|(lo, hi)| (eval(lo), eval(hi)))
            .collect();
        let rests: Vec<i64> = spec.original.iter().map(|(_, rest)| eval(rest)).collect();

        self.executor.for_chunks(0, total - 1, &|start, stop| {
            let n_inner = widths.len();
            // Transformed point [t, inner...]: the loop values and the
            // source index are the same vector.
            let mut src_index = vec![0i64; 1 + n_inner];
            src_index[0] = t;
            let mut original = vec![0i64; spec.original.len()];
            let mut dst_index = Vec::with_capacity(spec.original.len());
            'elem: for flat in start..stop {
                let mut rem = flat;
                for k in (0..n_inner).rev() {
                    src_index[1 + k] = ranges[k].0 + rem % widths[k];
                    rem /= widths[k];
                }
                // Through the inverse transform: original coordinates.
                for ((o, (coeffs, _)), rest) in original.iter_mut().zip(&spec.original).zip(&rests)
                {
                    let dot: i64 = coeffs.iter().zip(&src_index).map(|(c, v)| c * v).sum();
                    *o = rest + dot;
                }
                for (k, &(lo, hi)) in bounds.iter().enumerate() {
                    if original[k] < lo || original[k] > hi {
                        continue 'elem;
                    }
                }
                if original[spec.drain_dim] != bounds[spec.drain_dim].1 {
                    continue 'elem;
                }
                let v = self.store.array(spec.src).read(&src_index);
                dst_index.clear();
                dst_index.extend(
                    (original.iter().enumerate())
                        .filter(|(k, _)| *k != spec.drain_dim)
                        .map(|(_, &x)| x),
                );
                self.store.array(spec.dst).write(&dst_index, v);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{OwnedArray, Value};
    use ps_depgraph::build_depgraph;
    use ps_executor::{Sequential, ThreadPool};
    use ps_lang::frontend;
    use ps_scheduler::{schedule_module, ScheduleOptions};

    const RELAXATION_V1: &str = "
        Relaxation: module (InitialA: array[I,J] of real;
                            M: int; maxK: int):
                    [newA: array[I,J] of real];
        type I, J = 0 .. M+1; K = 2 .. maxK;
        var A: array [1 .. maxK] of array[I,J] of real;
        define
            A[1] = InitialA;
            newA = A[maxK];
            A[K,I,J] = if (I = 0) or (J = 0) or (I = M+1) or (J = M+1)
                       then A[K-1,I,J]
                       else ( A[K-1,I,J-1] + A[K-1,I-1,J]
                            + A[K-1,I,J+1] + A[K-1,I+1,J] ) / 4;
        end Relaxation;
    ";

    fn grid_inputs(m_size: i64, maxk: i64) -> Inputs {
        let side = (m_size + 2) as usize;
        let mut data = vec![0.0f64; side * side];
        // Hot interior spot.
        for i in 1..=m_size {
            for j in 1..=m_size {
                data[(i as usize) * side + j as usize] =
                    if i == m_size / 2 + 1 && j == m_size / 2 + 1 {
                        100.0
                    } else {
                        1.0
                    };
            }
        }
        Inputs::new()
            .set_int("M", m_size)
            .set_int("maxK", maxk)
            .set_array(
                "InitialA",
                OwnedArray::real(vec![(0, m_size + 1), (0, m_size + 1)], data),
            )
    }

    fn run_relaxation(executor: &dyn Executor, check: bool) -> Outputs {
        let m = frontend(RELAXATION_V1).unwrap();
        let dg = build_depgraph(&m);
        let sched = schedule_module(&m, &dg, ScheduleOptions::default()).unwrap();
        run_module(
            &m,
            &sched.flowchart,
            &sched.memory,
            &grid_inputs(6, 8),
            executor,
            RuntimeOptions {
                check_writes: check,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn relaxation_runs_sequentially() {
        let out = run_relaxation(&Sequential, true);
        let a = out.array("newA");
        // Boundary padded with zeros, interior smoothed but positive.
        assert_eq!(a.get(&[0, 0]), Value::Real(0.0));
        assert!(a.get(&[3, 3]).as_real() > 0.0);
    }

    #[test]
    fn parallel_matches_sequential() {
        let seq = run_relaxation(&Sequential, false);
        let pool = ThreadPool::new(4);
        let par = run_relaxation(&pool, false);
        let diff = seq.array("newA").max_abs_diff(par.array("newA"));
        assert_eq!(
            diff, 0.0,
            "bitwise identical: same operations, same order per element"
        );
    }

    /// Run `src` once on `pool`; the outputs must equal the oracle's bit
    /// for bit. Returns how many regions the run published.
    fn pooled_regions(pool: &ThreadPool, src: &str, inputs: &Inputs, out: &str) -> u64 {
        let m = frontend(src).unwrap();
        let dg = build_depgraph(&m);
        let sched = schedule_module(&m, &dg, ScheduleOptions::default()).unwrap();
        let before = pool.stats().regions;
        let got = run_module(
            &m,
            &sched.flowchart,
            &sched.memory,
            inputs,
            pool,
            RuntimeOptions::default(),
        )
        .unwrap();
        let regions = pool.stats().regions - before;
        let want = crate::naive::run_naive(&m, inputs).unwrap();
        let bits = |o: &Outputs| -> Vec<u64> {
            let a = o.array(out).as_real_slice();
            a.iter().map(|x| x.to_bits()).collect()
        };
        assert_eq!(bits(&got), bits(&want), "{out} differs from the oracle");
        regions
    }

    /// A `DOALL` publishes one region over its own counter; only a nest
    /// whose outer range is narrower than the pool publishes its inner
    /// loop once per outer value instead.
    #[test]
    fn a_doall_publishes_over_its_own_counter() {
        const NEST: &str = "
            T: module (X: array[I,J] of real; m: int; n: int): [Y: array[I,J] of real];
            type I = 1 .. m; J = 1 .. n;
            define Y[I,J] = X[I,J] * 0.5 + real(I) - real(J) / 3.0;
            end T;";
        const LINE: &str = "
            T: module (xs: array[I] of real; n: int): [ys: array[I] of real];
            type I = 1 .. n;
            define ys[I] = xs[I] / 3.0 + 1.0;
            end T;";
        let pool = ThreadPool::new(4);
        let n = 37;
        for m in [1i64, 3, 6] {
            let data = (0..m * n).map(|k| k as f64 * 0.25 - 7.0).collect();
            let inputs = Inputs::new()
                .set_int("m", m)
                .set_int("n", n)
                .set_array("X", OwnedArray::real(vec![(1, m), (1, n)], data));
            let want = if m < 4 { m as u64 } else { 1 };
            assert_eq!(pooled_regions(&pool, NEST, &inputs, "Y"), want, "m = {m}");
        }
        for n in [2i64, 300] {
            let data = (0..n).map(|k| k as f64 * 0.75 - 9.0).collect();
            let inputs = Inputs::new()
                .set_int("n", n)
                .set_array("xs", OwnedArray::real(vec![(1, n)], data));
            assert_eq!(pooled_regions(&pool, LINE, &inputs, "ys"), 1, "n = {n}");
        }
    }

    #[test]
    fn compiled_and_naive_agree_bitwise() {
        let m = frontend(RELAXATION_V1).unwrap();
        let naive = crate::naive::run_naive(&m, &grid_inputs(6, 8)).unwrap();
        let compiled = run_relaxation(&Sequential, false);
        assert_eq!(
            compiled.array("newA").max_abs_diff(naive.array("newA")),
            0.0,
            "same operations in the same order, bit-identical"
        );
    }

    #[test]
    fn windowed_storage_is_used_and_correct() {
        // The memory plan gives A window 2; the checker validates reads.
        let out = run_relaxation(&Sequential, true);
        // Smoothing conserves interior mass towards uniformity; sanity only.
        let total: f64 = out.array("newA").as_real_slice().iter().sum();
        assert!(total > 0.0);
    }

    #[test]
    fn scalar_chain_runs() {
        let m = frontend(
            "T: module (x: int): [y: int];
             var a, b: int;
             define
                a = x * 2;
                b = a + 1;
                y = b * b;
             end T;",
        )
        .unwrap();
        let dg = build_depgraph(&m);
        let sched = schedule_module(&m, &dg, ScheduleOptions::default()).unwrap();
        let out = run_module(
            &m,
            &sched.flowchart,
            &sched.memory,
            &Inputs::new().set_int("x", 3),
            &Sequential,
            RuntimeOptions::default(),
        )
        .unwrap();
        assert_eq!(out.scalar("y"), Value::Int(49));
    }

    #[test]
    fn record_fields_and_enums_run() {
        let m = frontend(
            "T: module (): [y: real];
             type Color = (red, green, blue);
                  Pt = record a: real; b: real; end;
             var c: Color; p: Pt;
             define
                c = blue;
                p.a = 1.5;
                p.b = p.a * 2.0;
                y = p.b + real(ord(c));
             end T;",
        )
        .unwrap();
        let dg = build_depgraph(&m);
        let sched = schedule_module(&m, &dg, ScheduleOptions::default()).unwrap();
        let out = run_module(
            &m,
            &sched.flowchart,
            &sched.memory,
            &Inputs::new(),
            &Sequential,
            RuntimeOptions::default(),
        )
        .unwrap();
        assert_eq!(out.scalar("y"), Value::Real(5.0));
    }

    #[test]
    fn fibonacci_window_three() {
        let m = frontend(
            "T: module (n: int): [y: int];
             type K = 3 .. n;
             var a: array [1 .. n] of int;
             define
                a[1] = 1;
                a[2] = 1;
                a[K] = a[K-1] + a[K-2];
                y = a[n];
             end T;",
        )
        .unwrap();
        let dg = build_depgraph(&m);
        let sched = schedule_module(&m, &dg, ScheduleOptions::default()).unwrap();
        let a = m.data_by_name("a").unwrap();
        assert_eq!(sched.memory.window(a, 0), Some(3));
        let out = run_module(
            &m,
            &sched.flowchart,
            &sched.memory,
            &Inputs::new().set_int("n", 30),
            &Sequential,
            RuntimeOptions {
                check_writes: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(out.scalar("y"), Value::Int(832040), "fib(30)");
    }

    #[test]
    fn dynamic_subscripts_run() {
        let m = frontend(
            "T: module (n: int; idx: array[1..3] of int): [y: int];
             type I = 1 .. 3;
             var a: array [I] of int;
             define
                a[I] = I * 10;
                y = a[idx[2]];
             end T;",
        )
        .unwrap();
        let dg = build_depgraph(&m);
        let sched = schedule_module(&m, &dg, ScheduleOptions::default()).unwrap();
        let out = run_module(
            &m,
            &sched.flowchart,
            &sched.memory,
            &Inputs::new()
                .set_int("n", 3)
                .set_array("idx", OwnedArray::int(vec![(1, 3)], vec![3, 1, 2])),
            &Sequential,
            RuntimeOptions::default(),
        )
        .unwrap();
        assert_eq!(out.scalar("y"), Value::Int(10), "a[idx[2]] = a[1] = 10");
    }
}
