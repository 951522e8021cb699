//! The compile-once Program registry: a lock-guarded, LRU-bounded table.
//!
//! A solve service looks up "the artifact for this request's
//! `(source, options)` key" once per micro-batch, from every worker. The
//! table is a `RwLock<Vec<…>>` of `Arc`ed artifacts, in the same cache
//! shape `ps_runtime::Program` uses for its specializations:
//!
//! * a **hit** takes the read lock, scans (capacity is small, a linear
//!   probe beats hashing), clones the entry's `Arc` and releases — readers
//!   share the lock, and the LRU tick is a relaxed atomic store;
//! * a **miss** compiles with *no lock held* — compilation is the slow
//!   part, and a failure or panic inside it can poison nothing — then takes
//!   the write lock only to double-check, evict and push. Racing cold
//!   misses of one key may each compile; exactly one result is published
//!   and counted, the losers adopt it and drop their own.
//!
//! Entry `Arc`s make eviction safe for in-flight requests: an evicted
//! program dies only when its last holder lets go.
//!
//! The table is bounded: at capacity the least-recently-used entry is
//! evicted, so adversarial source diversity cannot grow memory without
//! bound. Keys are `(source hash, RuntimeOptions)`; hash collisions are
//! disambiguated by comparing the source text itself, so two programs can
//! never alias.

use crate::program::CompiledProgram;
use crate::ServiceError;
use ps_runtime::RuntimeOptions;
use ps_support::faults::{FaultInjector, FaultPoint};
use ps_trace::{EvKind, Phase, Stage, StageSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A precomputed registry key: the program source, the runtime options the
/// artifact must be compiled with, and the source hash (computed once at
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
    /// `(source hash, artifact)`, at most `capacity` of them.
    entries: RwLock<Vec<(u64, Arc<CompiledProgram>)>>,
    capacity: usize,
    /// LRU clock: lookups stamp entries with `clock++` (relaxed).
    clock: AtomicU64,
    compiles: AtomicU64,
    hits: AtomicU64,
    evictions: AtomicU64,
    /// Chaos hook: lets the seeded injector turn a compile into a failure.
    faults: FaultInjector,
    /// Shared per-stage histograms (compile time lands here); also wired
    /// into each compiled artifact so specialization builds report too.
    stages: Option<Arc<StageSet>>,
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
            entries: RwLock::new(Vec::new()),
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            faults,
            stages,
        }
    }

    fn touch(&self, entry: &CompiledProgram) {
        entry.touched.store(
            self.clock.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
    }

    /// `key`'s artifact among `entries`, counted as a cache hit and
    /// stamped with a fresh LRU tick when found.
    fn hit(
        &self,
        entries: &[(u64, Arc<CompiledProgram>)],
        key: &ProgramKey,
    ) -> Option<Arc<CompiledProgram>> {
        let (_, e) = entries.iter().find(|(h, e)| {
            *h == key.hash && e.options() == key.options && e.source() == &*key.source
        })?;
        self.touch(e);
        self.hits.fetch_add(1, Ordering::Relaxed);
        ps_trace::emit(EvKind::RegistryHit, Phase::Instant, 0, key.hash, 0);
        Some(Arc::clone(e))
    }

    /// The fast path: find `key`'s artifact under the read lock. Counts a
    /// cache hit and stamps the entry's LRU tick when found.
    pub fn lookup(&self, key: &ProgramKey) -> Option<Arc<CompiledProgram>> {
        self.hit(&self.entries.read().expect("registry poisoned"), key)
    }

    /// Return the cached artifact for `key`, compiling (and publishing) it
    /// on first sight. At capacity the least-recently-used entry is
    /// evicted; in-flight users of the evicted artifact keep it alive
    /// through their `Arc`s. Compile failures are returned, not cached.
    pub fn get_or_compile(&self, key: &ProgramKey) -> Result<Arc<CompiledProgram>, ServiceError> {
        if let Some(e) = self.lookup(key) {
            return Ok(e);
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
        let entry =
            CompiledProgram::compile(Arc::clone(&key.source), key.options, self.stages.clone())?;
        drop(compile_span);
        if ps_trace::enabled() {
            if let Some(stages) = &self.stages {
                stages.record(Stage::Compile, compile_t0.elapsed());
            }
        }
        let mut entries = self.entries.write().expect("registry poisoned");
        if let Some(theirs) = self.hit(&entries, key) {
            // Lost the compile race: another thread published this key
            // while we compiled — use (and count) theirs, drop ours.
            return Ok(theirs);
        }
        // Insert under the write lock: a concurrent duplicate compile is
        // never double-counted, and the table never exceeds its capacity.
        if entries.len() >= self.capacity {
            let lru = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, e))| e.touched.load(Ordering::Relaxed))
                .map(|(i, _)| i)
                .expect("capacity >= 1 implies entries is nonempty here");
            entries.swap_remove(lru);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        self.touch(&entry);
        entries.push((key.hash, Arc::clone(&entry)));
        self.compiles.fetch_add(1, Ordering::Relaxed);
        Ok(entry)
    }

    /// Programs compiled (and published) so far.
    pub fn compiles(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }

    /// Lookups served from the table.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Entries evicted to stay within capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of programs currently cached (≤ capacity).
    pub fn len(&self) -> usize {
        self.entries.read().expect("registry poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
                        let key = &keys[(t * 7 + i) % keys.len()];
                        let entry = reg.get_or_compile(key).unwrap();
                        assert_eq!(entry.source(), &**key.source());
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
}
