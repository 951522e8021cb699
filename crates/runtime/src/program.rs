//! The compile-once / run-many execution artifact.
//!
//! [`Program`] packages everything derivable from a scheduled module
//! *without* knowing parameter values: the immutable store layout
//! ([`StorePlan`]), the parameter-independent instruction tapes, and two
//! interior-mutability side tables —
//!
//! * a **specialization cache**: per distinct integer parameter vector,
//!   the symbolic addresses folded against that layout (built on first
//!   sight of a vector, reused thereafter) — a [`LruCache`], the same
//!   bounded table the solve service's registry keeps its programs in;
//! * a **run arena**: pooled per-run state (register frames, array
//!   buffers, tag tables, scalar-slot tables) recycled between runs.
//!
//! [`Program::run`] therefore costs: evaluate array bounds, bind
//! parameters, `memset` pooled buffers, execute. No lowering, no
//! validation, no tape allocation after the first run with a given
//! parameter layout.
//!
//! `&Program` is `Send + Sync`: independent runs may execute concurrently
//! from multiple threads sharing one artifact — each run owns its store
//! and frames; the cache and arena are touched only under brief locks.
//!
//! **Ownership.** The module and flowchart are held as [`Cow`]s. A caller
//! with a `Compilation` on the stack borrows them ([`Program::new`] /
//! [`Program::try_new`]: nothing is cloned, and the artifact lives no
//! longer than `'m`); a cache that must outlive its caller moves them in
//! ([`Program::try_owned`]) and gets a `Program<'static>` that owns
//! everything it reads. Everything else in the artifact — the store plan,
//! the tapes, the side tables — is owned data either way; only a running
//! [`Store`] borrows the module, for the length of one run.

use crate::analysis::analyze_tapes;
use crate::compiled::{compile_tapes, specialize, ExecProg, Frames, Spec, Tapes};
use crate::interp::{AnalysisLevel, Interp, RuntimeOptions};
use crate::store::{Inputs, Outputs, RuntimeError, Store, StoreArena, StorePlan};
use crate::strip::StripVerdict;
use ps_executor::Executor;
use ps_lang::hir::HirModule;
use ps_scheduler::{Flowchart, MemoryPlan, ScheduleResult};
use ps_support::{LruCache, Symbol};
use ps_trace::{EvKind, Phase, Stage, StageSet};
use std::borrow::Cow;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Upper bound on pooled run slots (each holds one run's recyclable
/// storage); more than a handful only matters under heavy concurrency.
const RUN_POOL_CAP: usize = 16;

/// Upper bound on the per-integer-parameter-layout specializations one
/// [`Program`] caches. Past it, the least-recently-used layout is evicted
/// (see [`Program::spec_evictions`]), so adversarial parameter diversity
/// under serving load cannot grow memory without bound.
pub const SPEC_CACHE_CAP: usize = 64;

/// One run's worth of recyclable state. `frames` is `None` until the
/// slot's first run builds them.
#[derive(Default)]
struct RunSlot {
    arena: StoreArena,
    frames: Option<Frames>,
}

/// A reusable, shareable execution artifact for one scheduled module.
///
/// Construction performs schedule analysis, store layout planning, and
/// tape lowering exactly once; [`Program::run`] only binds parameters,
/// instantiates (pooled) storage, and executes.
pub struct Program<'m> {
    module: Cow<'m, HirModule>,
    flowchart: Cow<'m, Flowchart>,
    plan: StorePlan,
    options: RuntimeOptions,
    tapes: Tapes,
    /// Per-`DataId` tag-elision mask from [`AnalysisLevel::Verify`]:
    /// arrays the static verifier proved safe skip checked-write tags
    /// and runtime bounds dims. `None` when analysis is off.
    verified: Option<Vec<bool>>,
    /// Symbols whose values determine array layouts (scalar int params);
    /// their value vector keys the specialization cache.
    key_syms: Vec<Symbol>,
    specs: LruCache<Vec<i64>, Spec>,
    pool: Mutex<Vec<RunSlot>>,
    /// Trace label id of the module name, carried by a service's
    /// `Batch`/`Solve`/`Panic` events for this program.
    trace_label: u64,
    /// Trace label id per equation (the LHS data item's name), indexed by
    /// `EqId`; lets region events and flight dumps name the equation they
    /// were running.
    eq_labels: Vec<u64>,
    /// Optional per-stage histogram sink (the owning service's set):
    /// spec-cache builds record their duration as [`Stage::Specialize`].
    stage_sink: Mutex<Option<Arc<StageSet>>>,
}

impl<'m> Program<'m> {
    /// Compile the reusable artifact: layout planning plus tape lowering
    /// and validation.
    ///
    /// Panics if [`AnalysisLevel::Verify`] rejects the program; use
    /// [`Program::try_new`] to receive the diagnostics instead.
    pub fn new(
        module: &'m HirModule,
        flowchart: &'m Flowchart,
        memory: &MemoryPlan,
        options: RuntimeOptions,
    ) -> Program<'m> {
        match Program::try_new(module, flowchart, memory, options) {
            Ok(p) => p,
            Err(e) => panic!("static analysis rejected program: {e}"),
        }
    }

    /// Like [`Program::new`], but surfaces static-verifier rejections
    /// (`E06xx` diagnostics, rendered) as an error instead of panicking.
    pub fn try_new(
        module: &'m HirModule,
        flowchart: &'m Flowchart,
        memory: &MemoryPlan,
        options: RuntimeOptions,
    ) -> Result<Program<'m>, RuntimeError> {
        Program::build(
            Cow::Borrowed(module),
            Cow::Borrowed(flowchart),
            memory,
            options,
        )
    }

    /// Like [`Program::try_new`], but the artifact takes ownership of the
    /// module and the schedule's flowchart, so it borrows from nobody and
    /// can be cached, sent and kept for as long as anyone holds it.
    pub fn try_owned(
        module: HirModule,
        schedule: ScheduleResult,
        options: RuntimeOptions,
    ) -> Result<Program<'static>, RuntimeError> {
        Program::build(
            Cow::Owned(module),
            Cow::Owned(schedule.flowchart),
            &schedule.memory,
            options,
        )
    }

    fn build(
        module: Cow<'m, HirModule>,
        flowchart: Cow<'m, Flowchart>,
        memory: &MemoryPlan,
        options: RuntimeOptions,
    ) -> Result<Program<'m>, RuntimeError> {
        let plan = StorePlan::new(&module, memory);
        let mut tapes = compile_tapes(&module, &plan, &flowchart, options.check_writes);
        tapes.plan_strips(&module, &plan, &flowchart);
        let verified = match options.analysis {
            AnalysisLevel::Verify => {
                let outcome = analyze_tapes(&module, &flowchart, &plan, &tapes);
                if outcome.report.has_errors() {
                    return Err(RuntimeError(outcome.report.render()));
                }
                Some(outcome.verified)
            }
            AnalysisLevel::Off => None,
        };
        let key_syms = module
            .scalar_int_params()
            .into_iter()
            .map(|d| module.data[d].name)
            .collect();
        // Intern the trace labels once, at compile time — event emission
        // must never touch the intern table.
        let trace_label = ps_trace::label(module.name.as_str());
        let eq_labels = module
            .equations
            .iter()
            .map(|e| ps_trace::label(module.data[e.lhs].name.as_str()))
            .collect();
        Ok(Program {
            module,
            flowchart,
            plan,
            options,
            tapes,
            verified,
            key_syms,
            specs: LruCache::new(SPEC_CACHE_CAP),
            pool: Mutex::new(Vec::with_capacity(RUN_POOL_CAP)),
            trace_label,
            eq_labels,
            stage_sink: Mutex::new(None),
        })
    }

    /// Install a per-stage histogram sink (typically the owning service's
    /// [`StageSet`]); spec-cache builds then record [`Stage::Specialize`]
    /// durations into it.
    pub fn set_stage_sink(&self, sink: Arc<StageSet>) {
        *self.stage_sink.lock().expect("stage sink poisoned") = Some(sink);
    }

    /// Number of arrays the static verifier proved safe for tag elision
    /// (zero when analysis is off).
    pub fn verified_arrays(&self) -> usize {
        self.verified
            .as_ref()
            .map_or(0, |m| m.iter().filter(|&&v| v).count())
    }

    /// How each scheduled equation runs inside its innermost loop, in
    /// execution order: `(label, verdict)`, the verdict reading
    /// `stripped along J within I — 2 paths: copy(1), compute(2)` (the
    /// nest walked as one, the straight-line bodies its branches select
    /// between and the passes a strip dispatches for each) or
    /// `scalar: <reason>` — the strip walker's eligibility decision, taken
    /// once when the tapes were lowered.
    pub fn strip_report(&self) -> Vec<(String, StripVerdict)> {
        self.tapes.strip_report(&self.module, &self.flowchart)
    }

    /// The module this program executes.
    pub fn module(&self) -> &HirModule {
        &self.module
    }

    /// The options this program was compiled with.
    pub fn options(&self) -> RuntimeOptions {
        self.options
    }

    /// The interned [`ps_trace::label()`] id of the module name.
    pub fn trace_label(&self) -> u64 {
        self.trace_label
    }

    /// Number of parameter layouts specialized *and cached* so far. A
    /// steady-state serving loop over one parameter shape sits at 1; a
    /// layout rebuilt after LRU eviction counts again (the cache itself
    /// never exceeds [`SPEC_CACHE_CAP`] entries).
    pub fn specialization_count(&self) -> usize {
        self.specs.built() as usize
    }

    /// Number of specializations evicted from the cache so far (LRU
    /// replacement under adversarial parameter diversity).
    pub fn spec_evictions(&self) -> usize {
        self.specs.evictions() as usize
    }

    /// Number of specializations currently cached (≤ [`SPEC_CACHE_CAP`]).
    pub fn spec_cached(&self) -> usize {
        self.specs.len()
    }

    /// Execute one run against `inputs`: a one-run [`RunSession`].
    /// Reentrant: any number of runs may execute concurrently on one
    /// shared `&Program`.
    pub fn run(&self, inputs: &Inputs, executor: &dyn Executor) -> Result<Outputs, RuntimeError> {
        self.session().run(inputs, executor)
    }

    fn run_in_slot(
        &self,
        inputs: &Inputs,
        executor: &dyn Executor,
        slot: &mut RunSlot,
    ) -> Result<Outputs, RuntimeError> {
        // Frames (and their lane files) live as long as the slot: built
        // before the store's buffers, for the reason given where
        // `instantiate_masked` sizes the result maps.
        let tapes = &self.tapes;
        let frames = slot.frames.get_or_insert_with(|| Frames::new(tapes));
        let store = self.plan.instantiate_masked(
            &self.module,
            inputs,
            self.options.check_writes,
            self.verified.as_deref(),
            &mut slot.arena,
        )?;
        let spec = self.spec_for(tapes, &store)?;
        frames.bind_params(tapes, &store.param_values(tapes.params()));
        {
            let view = ExecProg::new(tapes, &spec, &store);
            let cx = Interp {
                store: &store,
                executor,
                eq_labels: &self.eq_labels,
            };
            cx.run(&view, &self.flowchart.items, frames);
        }
        Ok(store.into_outputs_into(&mut slot.arena))
    }

    /// The specialization for this run's parameter layout: cache hit in
    /// the common case, a cheap address-folding pass on first sight. The
    /// cache is bounded by [`SPEC_CACHE_CAP`]; at capacity
    /// the least-recently-used layout is replaced (its `Arc` keeps
    /// in-flight runs of the evicted spec alive).
    fn spec_for(&self, tapes: &Tapes, store: &Store<'_>) -> Result<Arc<Spec>, RuntimeError> {
        let key: Vec<i64> = self
            .key_syms
            .iter()
            .map(|s| store.params.get(s).copied().unwrap_or(i64::MIN))
            .collect();
        if let Some(spec) = self.specs.get(&key) {
            if ps_trace::enabled() {
                let cached = self.specs.len() as u64;
                ps_trace::emit(EvKind::SpecHit, Phase::Instant, 0, cached, 0);
            }
            return Ok(spec);
        }
        let build_t0 = Instant::now();
        let built = specialize(
            tapes,
            &self.plan,
            &self.module,
            &store.params,
            self.verified.as_deref(),
        )?;
        // A lost build race adopts the winner's spec: no `SpecBuild`.
        let (spec, adopted) = self.specs.insert(key, built);
        if !adopted && ps_trace::enabled() {
            let build_dur = build_t0.elapsed();
            // The size the build found: this spec not counted.
            let cached = self.specs.len().saturating_sub(1) as u64;
            ps_trace::emit(
                EvKind::SpecBuild,
                Phase::Complete,
                0,
                build_dur.as_nanos() as u64,
                cached,
            );
            if let Some(sink) = &*self.stage_sink.lock().expect("stage sink poisoned") {
                sink.record(Stage::Specialize, build_dur);
            }
        }
        Ok(spec)
    }
}

impl<'m> Program<'m> {
    /// Claim a pooled run slot for a *sequence* of runs: a service worker
    /// holding a session across a micro-batch touches the slot pool lock
    /// once per batch instead of twice per request. Dropping the session
    /// returns the slot.
    pub fn session(&self) -> RunSession<'_, 'm> {
        let slot = self.pool.lock().expect("run pool poisoned").pop();
        RunSession { prog: self, slot }
    }
}

/// A claimed run slot bound to its [`Program`]; see [`Program::session`].
///
/// Panic-safe by construction: the slot is moved *out* of the session for
/// the duration of each run, so a panicking request drops it (the next
/// call simply starts a fresh slot) and the pool itself — whose lock is
/// never held across user code — cannot be poisoned.
pub struct RunSession<'p, 'm> {
    prog: &'p Program<'m>,
    slot: Option<RunSlot>,
}

impl<'p, 'm> RunSession<'p, 'm> {
    /// Execute one run, reusing this session's claimed slot.
    pub fn run(
        &mut self,
        inputs: &Inputs,
        executor: &dyn Executor,
    ) -> Result<Outputs, RuntimeError> {
        let mut slot = self.slot.take().unwrap_or_default();
        let result = self.prog.run_in_slot(inputs, executor, &mut slot);
        // Only reached when the run did not panic; errors still recycle
        // the slot (a failing request must not degrade later runs'
        // pooling).
        self.slot = Some(slot);
        result
    }
}

impl Drop for RunSession<'_, '_> {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            // `lock()` cannot normally fail here (the pool lock is never
            // held across user code); swallow a poisoned pool rather than
            // double-panicking during unwind.
            if let Ok(mut pool) = self.prog.pool.lock() {
                if pool.len() < RUN_POOL_CAP {
                    pool.push(slot);
                }
            }
        }
    }
}

/// Independent runs execute concurrently on a shared `&Program`.
#[allow(dead_code)]
fn _assert_program_send_sync(p: &Program<'_>) {
    fn takes<T: Send + Sync>(_: &T) {}
    takes(p);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use ps_depgraph::build_depgraph;
    use ps_executor::Sequential;
    use ps_lang::frontend;
    use ps_scheduler::{schedule_module, ScheduleOptions};

    const RECURRENCE: &str = "T: module (n: int; bias: real): [y: real];
         type K = 2 .. n;
         var a: array [1 .. n] of real;
         define
            a[1] = bias;
            a[K] = a[K-1] + bias * real(K);
            y = a[n];
         end T;";

    fn expected(n: i64, bias: f64) -> f64 {
        let mut a = bias;
        for k in 2..=n {
            a += bias * k as f64;
        }
        a
    }

    #[test]
    fn one_program_many_parameter_vectors() {
        let m = frontend(RECURRENCE).unwrap();
        let dg = build_depgraph(&m);
        let sched = schedule_module(&m, &dg, ScheduleOptions::default()).unwrap();
        let prog = Program::new(
            &m,
            &sched.flowchart,
            &sched.memory,
            RuntimeOptions::default(),
        );
        for (n, bias) in [(4i64, 0.5f64), (9, 1.25), (4, 2.0), (17, -0.75)] {
            let out = prog
                .run(
                    &Inputs::new().set_int("n", n).set_real("bias", bias),
                    &Sequential,
                )
                .unwrap();
            assert_eq!(out.scalar("y"), Value::Real(expected(n, bias)));
        }
        // Three distinct layouts (n ∈ {4, 9, 17}); bias never forces one.
        assert_eq!(prog.specialization_count(), 3);
    }

    /// The borrowed constructors clone nothing (a cold compile must not
    /// pay for a module copy); only `try_owned` holds its own values, and
    /// it outlives the compilation it was built from.
    #[test]
    fn borrowed_constructor_borrows_and_owned_constructor_owns() {
        let m = frontend(RECURRENCE).unwrap();
        let dg = build_depgraph(&m);
        let sched = schedule_module(&m, &dg, ScheduleOptions::default()).unwrap();
        let borrowed = Program::try_new(
            &m,
            &sched.flowchart,
            &sched.memory,
            RuntimeOptions::default(),
        )
        .unwrap();
        assert!(matches!(borrowed.module, Cow::Borrowed(_)));
        assert!(matches!(borrowed.flowchart, Cow::Borrowed(_)));
        drop(borrowed);
        let owned: Program<'static> =
            Program::try_owned(m, sched, RuntimeOptions::default()).unwrap();
        assert!(matches!(owned.module, Cow::Owned(_)));
        assert!(matches!(owned.flowchart, Cow::Owned(_)));
        let out = owned
            .run(
                &Inputs::new().set_int("n", 9).set_real("bias", 1.25),
                &Sequential,
            )
            .unwrap();
        assert_eq!(out.scalar("y"), Value::Real(expected(9, 1.25)));
    }

    #[test]
    fn concurrent_runs_share_one_program() {
        let m = frontend(RECURRENCE).unwrap();
        let dg = build_depgraph(&m);
        let sched = schedule_module(&m, &dg, ScheduleOptions::default()).unwrap();
        let prog = Program::new(
            &m,
            &sched.flowchart,
            &sched.memory,
            RuntimeOptions::default(),
        );
        std::thread::scope(|scope| {
            for t in 0..4 {
                let prog = &prog;
                scope.spawn(move || {
                    for i in 0..8 {
                        let n = 3 + ((t + i) % 5) as i64;
                        let bias = 0.25 * (t + 1) as f64;
                        let out = prog
                            .run(
                                &Inputs::new().set_int("n", n).set_real("bias", bias),
                                &Sequential,
                            )
                            .unwrap();
                        assert_eq!(out.scalar("y"), Value::Real(expected(n, bias)));
                    }
                });
            }
        });
        assert_eq!(prog.specialization_count(), 5, "n ∈ 3..=7");
    }

    #[test]
    fn spec_cache_evicts_least_recently_used() {
        let m = frontend(RECURRENCE).unwrap();
        let dg = build_depgraph(&m);
        let sched = schedule_module(&m, &dg, ScheduleOptions::default()).unwrap();
        let prog = Program::new(
            &m,
            &sched.flowchart,
            &sched.memory,
            RuntimeOptions::default(),
        );
        let run = |n: i64| {
            let out = prog
                .run(
                    &Inputs::new().set_int("n", n).set_real("bias", 1.0),
                    &Sequential,
                )
                .unwrap();
            assert_eq!(out.scalar("y"), Value::Real(expected(n, 1.0)));
        };
        let cap = SPEC_CACHE_CAP as i64;
        for n in 3..3 + cap {
            run(n); // cache: {3, …, cap + 2}
        }
        assert_eq!(prog.spec_evictions(), 0);
        assert_eq!(prog.spec_cached(), SPEC_CACHE_CAP);
        run(4); // touch 4, so 3 is now the LRU
        run(3 + cap); // evicts 3
        assert_eq!(prog.spec_evictions(), 1);
        assert_eq!(
            prog.spec_cached(),
            SPEC_CACHE_CAP,
            "cache never exceeds its cap"
        );
        run(4); // still cached: no new build
        assert_eq!(prog.specialization_count(), SPEC_CACHE_CAP + 1);
        run(3); // rebuilt after eviction (evicting the LRU, 5)
        assert_eq!(prog.specialization_count(), SPEC_CACHE_CAP + 2);
        assert_eq!(prog.spec_evictions(), 2);
        assert_eq!(prog.spec_cached(), SPEC_CACHE_CAP);
        // Adversarial diversity: memory stays bounded at the cap, and
        // every new layout evicts one.
        for n in 100..100 + 2 * cap {
            run(n);
        }
        assert_eq!(prog.spec_cached(), SPEC_CACHE_CAP);
        assert_eq!(prog.spec_evictions(), 2 + 2 * SPEC_CACHE_CAP);
    }

    #[test]
    fn session_reuses_one_slot_across_runs() {
        let m = frontend(RECURRENCE).unwrap();
        let dg = build_depgraph(&m);
        let sched = schedule_module(&m, &dg, ScheduleOptions::default()).unwrap();
        let prog = Program::new(
            &m,
            &sched.flowchart,
            &sched.memory,
            RuntimeOptions::default(),
        );
        {
            let mut session = prog.session();
            for (n, bias) in [(4i64, 0.5f64), (9, 1.25), (4, 2.0)] {
                let out = session
                    .run(
                        &Inputs::new().set_int("n", n).set_real("bias", bias),
                        &Sequential,
                    )
                    .unwrap();
                assert_eq!(out.scalar("y"), Value::Real(expected(n, bias)));
            }
            // The pool is empty while the session holds the slot.
            assert_eq!(prog.pool.lock().unwrap().len(), 0);
        }
        // Dropping the session returned the slot.
        assert_eq!(prog.pool.lock().unwrap().len(), 1);
    }

    #[test]
    fn checked_compiled_program_runs() {
        let m = frontend(RECURRENCE).unwrap();
        let dg = build_depgraph(&m);
        let sched = schedule_module(&m, &dg, ScheduleOptions::default()).unwrap();
        let prog = Program::new(
            &m,
            &sched.flowchart,
            &sched.memory,
            RuntimeOptions {
                check_writes: true,
                ..Default::default()
            },
        );
        // Two runs: the second reuses pooled (tagged) storage, so stale
        // tags from run one must not trip the checker.
        for _ in 0..2 {
            let out = prog
                .run(
                    &Inputs::new().set_int("n", 12).set_real("bias", 1.0),
                    &Sequential,
                )
                .unwrap();
            assert_eq!(out.scalar("y"), Value::Real(expected(12, 1.0)));
        }
    }
}
