//! The compile-once Program registry.
//!
//! A solve service looks up "the program for this request's
//! `(source, options)` key" once per micro-batch, from every worker. The
//! registry keeps owned programs ([`Program::try_owned`]: module and
//! flowchart held by value) in a [`LruCache`], the table each program also
//! keeps its parameter-layout specializations in. A hit shares the read
//! lock; a miss compiles with no lock held, inside the registry's fault
//! hooks, `Compile` span and stage timing, then publishes, and the loser of
//! a compile race adopts the winner's program. At capacity the
//! least-recently-used program is evicted; whoever holds its `Arc` can
//! still run it, after eviction or registry teardown. Keys compare source
//! hash, options and source text, so two programs never alias.

use crate::ServiceError;
use ps_depgraph::build_depgraph;
use ps_lang::frontend;
use ps_runtime::{Program, RuntimeOptions};
use ps_scheduler::{schedule_module, ScheduleOptions};
use ps_support::faults::{FaultInjector, FaultPoint};
use ps_support::LruCache;
use ps_trace::{EvKind, Phase, Stage, StageSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A precomputed registry key: the program source, the runtime options the
/// program must be compiled with, and the source hash (computed once at
/// key construction, not per lookup).
#[derive(Clone, Debug)]
pub struct ProgramKey {
    source: Arc<str>,
    options: RuntimeOptions,
    hash: u64,
}

impl ProgramKey {
    pub fn new(source: impl Into<Arc<str>>, options: RuntimeOptions) -> ProgramKey {
        let source = source.into();
        let mut h = std::collections::hash_map::DefaultHasher::new();
        source.hash(&mut h);
        ProgramKey {
            hash: h.finish(),
            source,
            options,
        }
    }

    pub fn source(&self) -> &Arc<str> {
        &self.source
    }

    pub fn options(&self) -> RuntimeOptions {
        self.options
    }
}

impl PartialEq for ProgramKey {
    fn eq(&self, other: &ProgramKey) -> bool {
        self.hash == other.hash && self.options == other.options && self.source == other.source
    }
}

impl Eq for ProgramKey {}

/// The bounded compile-once cache. See the module docs for the locking
/// shape.
pub struct Registry {
    programs: LruCache<ProgramKey, Program<'static>>,
    /// Chaos hook: lets the seeded injector turn a compile into a failure.
    faults: FaultInjector,
    /// Shared per-stage histograms (compile time lands here); also wired
    /// into each compiled program so specialization builds report too.
    stages: Option<Arc<StageSet>>,
}

/// Compile `key`'s source through the pipeline (front end → dependence
/// graph → schedule → tape lowering) into an owned program whose
/// specialization timings go to `stages`.
fn compile(
    key: &ProgramKey,
    stages: Option<&Arc<StageSet>>,
) -> Result<Program<'static>, ServiceError> {
    let module = frontend(&key.source).map_err(ServiceError::Compile)?;
    let depgraph = build_depgraph(&module);
    let sched = schedule_module(&module, &depgraph, ScheduleOptions::default())
        .map_err(|e| ServiceError::Compile(e.to_string()))?;
    // A verifier rejection (`AnalysisLevel::Verify`) comes back as
    // rendered E06xx diagnostics, like any other compile error.
    let program = Program::try_owned(module, sched, key.options)
        .map_err(|e| ServiceError::Compile(e.to_string()))?;
    if let Some(stages) = stages {
        program.set_stage_sink(Arc::clone(stages));
    }
    Ok(program)
}

impl Registry {
    /// An empty registry holding at most `capacity` compiled programs
    /// (clamped to at least 1). `faults`' `CompileFail` and `CompilePanic`
    /// points fire on a cache miss, before any real compilation work
    /// ([`FaultInjector::disabled`] for none); `stages`, when given (the
    /// service passes its per-instance set), receives compile and
    /// specialization durations.
    pub fn new(capacity: usize, faults: FaultInjector, stages: Option<Arc<StageSet>>) -> Registry {
        Registry {
            programs: LruCache::new(capacity),
            faults,
            stages,
        }
    }

    /// The fast path: find `key`'s program under the read lock. Counts a
    /// cache hit and stamps the entry's LRU tick when found.
    pub fn lookup(&self, key: &ProgramKey) -> Option<Arc<Program<'static>>> {
        let program = self.programs.get(key)?;
        ps_trace::emit(EvKind::RegistryHit, Phase::Instant, 0, key.hash, 0);
        Some(program)
    }

    /// Return the cached program for `key`, compiling (and publishing) it
    /// on first sight. At capacity the least-recently-used entry is
    /// evicted; in-flight users of the evicted program keep it alive
    /// through their `Arc`s. Compile failures are returned, not cached.
    pub fn get_or_compile(&self, key: &ProgramKey) -> Result<Arc<Program<'static>>, ServiceError> {
        if let Some(program) = self.lookup(key) {
            return Ok(program);
        }
        ps_trace::emit(EvKind::RegistryMiss, Phase::Instant, 0, key.hash, 0);
        if self.faults.should_fire(FaultPoint::CompileFail) {
            if ps_trace::enabled() {
                ps_trace::emit(
                    EvKind::Fault,
                    Phase::Instant,
                    0,
                    ps_trace::label("compile_fail"),
                    0,
                );
                ps_trace::flight::record("injected registry compile failure");
            }
            return Err(ServiceError::Compile(
                "injected fault: registry compile failure".into(),
            ));
        }
        if self.faults.should_fire(FaultPoint::CompilePanic) {
            panic!("injected fault: compiler panic");
        }
        let compile_t0 = std::time::Instant::now();
        let compile_span = ps_trace::span(EvKind::Compile, key.hash, 0);
        let program = compile(key, self.stages.as_ref())?;
        drop(compile_span);
        if ps_trace::enabled() {
            if let Some(stages) = &self.stages {
                stages.record(Stage::Compile, compile_t0.elapsed());
            }
        }
        let (program, adopted) = self.programs.insert(key.clone(), program);
        if adopted {
            // Lost the compile race: another thread published this key
            // while we compiled — theirs is served (a hit), ours dropped.
            ps_trace::emit(EvKind::RegistryHit, Phase::Instant, 0, key.hash, 0);
        }
        Ok(program)
    }

    /// Programs compiled (and published) so far.
    pub fn compiles(&self) -> u64 {
        self.programs.built()
    }

    /// Lookups served from the table.
    pub fn hits(&self) -> u64 {
        self.programs.hits()
    }

    /// Entries evicted to stay within capacity.
    pub fn evictions(&self) -> u64 {
        self.programs.evictions()
    }

    /// Number of programs currently cached (≤ capacity).
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.programs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_executor::Sequential;
    use ps_runtime::Inputs;
    use std::sync::atomic::{AtomicU64, Ordering};

    const RECURRENCE: &str = "Compound: module (rate: real; n: int): [final: real];
        type K = 2 .. n;
        var balance: array [1 .. n] of real;
        define
            balance[1] = 1.0;
            balance[K] = balance[K-1] * (1.0 + rate);
            final = balance[n];
        end Compound;";

    fn src(tag: i64) -> String {
        format!(
            "P{tag}: module (x: real): [y: real];
             define y = x * {tag}.0; end P{tag};"
        )
    }

    #[test]
    fn compile_once_then_hit() {
        let reg = Registry::new(4, FaultInjector::disabled(), None);
        let key = ProgramKey::new(src(2), RuntimeOptions::default());
        assert!(reg.lookup(&key).is_none());
        let a = reg.get_or_compile(&key).unwrap();
        let b = reg.get_or_compile(&key).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second call is a cache hit");
        assert_eq!(reg.compiles(), 1);
        assert_eq!(reg.hits(), 1);
    }

    #[test]
    fn options_are_part_of_the_key() {
        let reg = Registry::new(4, FaultInjector::disabled(), None);
        let source: Arc<str> = src(3).into();
        let fast = ProgramKey::new(Arc::clone(&source), RuntimeOptions::default());
        let checked = ProgramKey::new(
            source,
            RuntimeOptions {
                check_writes: true,
                ..Default::default()
            },
        );
        let a = reg.get_or_compile(&fast).unwrap();
        let b = reg.get_or_compile(&checked).unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "same source, different options");
        assert_eq!(reg.compiles(), 2);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let reg = Registry::new(2, FaultInjector::disabled(), None);
        let keys: Vec<ProgramKey> = (0..3)
            .map(|i| ProgramKey::new(src(i), RuntimeOptions::default()))
            .collect();
        reg.get_or_compile(&keys[0]).unwrap();
        reg.get_or_compile(&keys[1]).unwrap();
        reg.lookup(&keys[0]); // touch 0 so 1 is the LRU
        reg.get_or_compile(&keys[2]).unwrap(); // evicts 1
        assert_eq!(reg.evictions(), 1);
        assert_eq!(reg.len(), 2);
        assert!(reg.lookup(&keys[0]).is_some(), "recently used survives");
        assert!(reg.lookup(&keys[1]).is_none(), "LRU entry evicted");
        // An evicted program recompiles on demand.
        reg.get_or_compile(&keys[1]).unwrap();
        assert_eq!(reg.compiles(), 4);
    }

    #[test]
    fn concurrent_lookups_and_compiles_are_safe() {
        let reg = Arc::new(Registry::new(3, FaultInjector::disabled(), None));
        let keys: Vec<ProgramKey> = (0..6)
            .map(|i| ProgramKey::new(src(i), RuntimeOptions::default()))
            .collect();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let reg = Arc::clone(&reg);
                let keys = &keys;
                scope.spawn(move || {
                    for i in 0..60 {
                        // Six keys over a 3-entry cache: constant churn of
                        // concurrent compiles, evictions, and lookups.
                        let k = (t * 7 + i) % keys.len();
                        let entry = reg.get_or_compile(&keys[k]).unwrap();
                        assert_eq!(entry.module().name.as_str(), format!("P{k}"));
                    }
                });
            }
        });
        assert!(reg.len() <= 3, "capacity respected under churn");
        // A working set that *fits* then hits the cache from every thread.
        let (warm_base, hits_base) = (reg.compiles(), reg.hits());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let reg = Arc::clone(&reg);
                let keys = &keys;
                scope.spawn(move || {
                    for i in 0..40 {
                        reg.get_or_compile(&keys[i % 2]).unwrap();
                    }
                });
            }
        });
        let (warm_compiles, warm_hits) = (reg.compiles() - warm_base, reg.hits() - hits_base);
        assert!(
            warm_compiles <= 2,
            "a fitting working set compiles each program at most once more"
        );
        assert!(warm_hits > warm_compiles, "warm traffic hits the cache");
    }

    #[test]
    fn publish_completes_while_a_reader_hammers_get() {
        // Reader traffic must not starve the write lock: with reader
        // threads doing back-to-back lookups, every publish still
        // completes.
        use std::sync::atomic::AtomicBool;
        let reg = Arc::new(Registry::new(8, FaultInjector::disabled(), None));
        let hot = ProgramKey::new(src(100), RuntimeOptions::default());
        reg.get_or_compile(&hot).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let lookups = Arc::new(AtomicU64::new(0));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (reg, stop, hot) = (Arc::clone(&reg), Arc::clone(&stop), hot.clone());
                let lookups = Arc::clone(&lookups);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        // `hot` may get LRU-evicted by the writer's churn;
                        // the point is sustained read traffic.
                        let _ = reg.lookup(&hot);
                        lookups.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        // Don't start publishing until the readers demonstrably hammer.
        while lookups.load(Ordering::Relaxed) < 100 {
            std::thread::yield_now();
        }
        // 30 publishes against the hammering readers; each must finish
        // well inside the deadline.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        for i in 0..30 {
            let key = ProgramKey::new(src(i), RuntimeOptions::default());
            reg.get_or_compile(&key).unwrap();
            assert!(
                std::time::Instant::now() < deadline,
                "publish {i} stalled behind the readers"
            );
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        let last = ProgramKey::new(src(999), RuntimeOptions::default());
        reg.get_or_compile(&last).unwrap();
        assert!(reg.lookup(&last).is_some(), "entries survive the churn");
    }

    #[test]
    fn owned_artifact_runs_after_moves() {
        let reg = Registry::new(1, FaultInjector::disabled(), None);
        let prog = reg
            .get_or_compile(&ProgramKey::new(RECURRENCE, RuntimeOptions::default()))
            .unwrap();
        drop(reg);
        // Move the Arc around (into an array, out again) past its registry.
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
        let reg = Registry::new(4, FaultInjector::disabled(), None);
        let key = ProgramKey::new("not a module", RuntimeOptions::default());
        for _ in 0..2 {
            // Each call is a miss that compiles again: a cached failure
            // would be a hit.
            let Err(ServiceError::Compile(msg)) = reg.get_or_compile(&key) else {
                panic!("garbage must not compile");
            };
            assert!(!msg.is_empty());
        }
        assert_eq!((reg.compiles(), reg.hits(), reg.len()), (0, 0, 0));
        assert!(reg.lookup(&key).is_none());
    }

    #[test]
    fn sessions_share_the_artifact_across_threads() {
        let reg = Registry::new(4, FaultInjector::disabled(), None);
        let key = ProgramKey::new(RECURRENCE, RuntimeOptions::default());
        let first = reg.get_or_compile(&key).unwrap();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (reg, key, first) = (&reg, &key, &first);
                scope.spawn(move || {
                    let prog = reg.get_or_compile(key).unwrap();
                    assert!(Arc::ptr_eq(&prog, first), "one shared artifact");
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
        assert_eq!((reg.compiles(), reg.hits()), (1, 4));
    }
}
