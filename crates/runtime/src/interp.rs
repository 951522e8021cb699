//! The scheduled flowchart walker.
//!
//! `DO` loops run in order; `DOALL` loops are handed to the executor.
//! Perfectly nested `DOALL` chains are flattened into a single
//! `parallel_for` over the product index space so a `DOALL I (DOALL J)`
//! nest saturates the pool even when the outer extent is small.
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

/// Pool workers switch from the flattened per-element walk to chunking the
/// *outer* `DOALL` range once each outer iteration carries at least this
/// many inner elements: above the threshold a chunk runs the inner nest
/// with the sequential inline walk (`run_eq_range` innermost fast path, no
/// per-element `div`/`mod` index decomposition).
const INLINE_NEST_MIN_INNER: i64 = 8;

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

/// Flatten a perfectly nested `DOALL` chain starting at `l`; returns the
/// chain, per-level `(lo, hi)` ranges and widths, the flattened iteration
/// count, and the innermost body.
fn flatten_doall<'l>(
    l: &'l LoopDescriptor,
    bounds: impl Fn(ps_lang::SubrangeId) -> (i64, i64),
) -> (
    Vec<&'l LoopDescriptor>,
    Vec<(i64, i64)>,
    Vec<i64>,
    i64,
    &'l [Descriptor],
) {
    let mut chain: Vec<&LoopDescriptor> = vec![l];
    let mut body: &[Descriptor] = &l.body;
    while let [Descriptor::Loop(inner)] = body {
        if inner.kind != LoopKind::Doall {
            break;
        }
        chain.push(inner);
        body = &inner.body;
    }
    let ranges: Vec<(i64, i64)> = chain.iter().map(|c| bounds(c.subrange)).collect();
    let widths: Vec<i64> = ranges
        .iter()
        .map(|&(lo, hi)| (hi - lo + 1).max(0))
        .collect();
    let total: i64 = widths.iter().product();
    (chain, ranges, widths, total, body)
}

impl<'a, 'm> Interp<'a, 'm> {
    /// Open a trace span for a parallel region about to be handed to the
    /// executor, labelled with the first of the equations it runs (so
    /// profiles and flight dumps name the equation, not just an epoch).
    /// `None` — and zero work — while tracing is disabled.
    fn region_span(&self, body_eqs: &[EqId], total: i64) -> Option<ps_trace::SpanGuard> {
        if !ps_trace::enabled() {
            return None;
        }
        let label = body_eqs
            .first()
            .and_then(|eq| self.eq_labels.get(eq.index()).copied())
            .unwrap_or(0);
        Some(ps_trace::span(EvKind::Region, label, total as u64))
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
    /// and everywhere inside an outer-range chunk — it runs on the current
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

    /// Run `DOALL l` over `lo..=hi` of its counter on this thread: no
    /// flattening, no chunk teardown, no allocation — bind counters in the
    /// caller's frames and walk the nest. Iterations are independent, so
    /// any order gives the flattened walk's bits; this is what keeps small
    /// solves cheap in compile-once / run-many serving.
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

    /// Hand the `DOALL` nest rooted at `l` to the executor as one region.
    fn publish_doall(&self, prog: &ExecProg<'_, 'm>, l: &LoopDescriptor, frames: &Frames) {
        let (chain, ranges, widths, total, innermost_body) = flatten_doall(l, |sr| self.bounds(sr));
        if total <= 0 {
            return;
        }
        // Nested chains with enough work per outer iteration skip the
        // flattened decomposition: workers claim chunks of the *outer*
        // range and each chunk walks its slice of the nest inline (the
        // strip nest walk, or the `run_eq_range` innermost fast path) — one
        // frame clone per chunk, no per-element `div`/`mod`. The
        // work-stealing pool does allow reentrant `for_chunks` from inside
        // a running chunk (it publishes a nested region), but the outer
        // region already saturates the pool, so nested publication would
        // add latch and steal traffic without exposing new parallelism.
        let inner_per_outer = total / widths[0].max(1);
        if chain.len() > 1
            && inner_per_outer >= INLINE_NEST_MIN_INNER
            && widths[0] >= self.executor.threads() as i64
        {
            let body_eqs = collect_equations(&l.body);
            let (lo0, hi0) = ranges[0];
            let _rspan = self.region_span(&body_eqs, total);
            self.executor.for_chunks(lo0, hi0, &|start, stop| {
                let mut local = frames.clone_for(&body_eqs);
                self.run_inline(prog, l, start, stop - 1, &mut local);
            });
            return;
        }
        // Each chunk clones the body equations' frames once (inheriting
        // outer DO counters and preloaded constants); the element loop
        // then runs allocation-free.
        let body_eqs = collect_equations(innermost_body);
        let _rspan = self.region_span(&body_eqs, total);
        self.executor.for_chunks(0, total - 1, &|start, stop| {
            let mut local = frames.clone_for(&body_eqs);
            for flat in start..stop {
                let mut rem = flat;
                for k in (0..chain.len()).rev() {
                    let idx = ranges[k].0 + rem % widths[k];
                    rem /= widths[k];
                    for &(eq, iv) in &chain[k].bindings {
                        local.set_iv(eq, iv, idx);
                    }
                }
                self.run_items(prog, innermost_body, &mut local, true, None);
            }
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
