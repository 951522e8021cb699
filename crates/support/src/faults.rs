//! Seeded fault injection: a registry of named injection points driven by
//! the deterministic [`Lcg`].
//!
//! Robustness claims ("the service survives worker panics", "the TCP
//! front-end rides out mid-frame disconnects") are only testable if the
//! faults themselves are *injectable on demand and reproducible by seed*.
//! This module is the shared switchboard: production code asks
//! [`FaultInjector::should_fire`] at each injection point; the injector is
//! disabled (and branch-cheap) by default, and when enabled it draws from
//! one seeded LCG so a failing chaos run is replayed by its seed alone.
//!
//! The points themselves live where the faults strike — the service worker
//! loop (panic / slow solve), the registry compile path (failure / panic),
//! and the `ps-serve` connection writer (socket stall / mid-frame
//! disconnect). This module only owns the decision logic and the per-point
//! `checked`/`fired` counters the chaos suite asserts against.

use crate::rng::Lcg;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of distinct injection points (the length of [`FaultPoint::ALL`]).
pub const FAULT_POINTS: usize = 6;

/// One named injection point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPoint {
    /// The service worker panics instead of running the solve (isolated at
    /// the request boundary like any user panic).
    WorkerPanic = 0,
    /// The service worker sleeps briefly before the solve (queue pressure,
    /// deadline expiry).
    SlowSolve = 1,
    /// The registry reports a compile failure instead of compiling.
    CompileFail = 2,
    /// The connection writer stalls briefly before writing a reply.
    SocketStall = 3,
    /// The connection writer sends half a reply, then drops the socket.
    MidFrameDisconnect = 4,
    /// The registry panics instead of compiling (a compiler bug: the
    /// batch resolves to a compile error and the worker survives).
    CompilePanic = 5,
}

impl FaultPoint {
    /// Every injection point, in counter order.
    pub const ALL: [FaultPoint; FAULT_POINTS] = [
        FaultPoint::WorkerPanic,
        FaultPoint::SlowSolve,
        FaultPoint::CompileFail,
        FaultPoint::SocketStall,
        FaultPoint::MidFrameDisconnect,
        FaultPoint::CompilePanic,
    ];

    /// The spec-string key for this point (`panic=50`, `slow=20`, ...).
    pub fn key(self) -> &'static str {
        match self {
            FaultPoint::WorkerPanic => "panic",
            FaultPoint::SlowSolve => "slow",
            FaultPoint::CompileFail => "compile",
            FaultPoint::SocketStall => "stall",
            FaultPoint::MidFrameDisconnect => "disconnect",
            FaultPoint::CompilePanic => "compile_panic",
        }
    }
}

/// A parsed fault plan: the seed plus a per-mille firing rate for every
/// injection point. `Default` is all-zero (nothing ever fires).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultSpec {
    /// Seed of the LCG that decides each `should_fire` draw.
    pub seed: u64,
    /// Firing rate per 1000 draws, indexed by `FaultPoint as usize`.
    pub per_mille: [u16; FAULT_POINTS],
}

impl FaultSpec {
    /// A spec with `seed` and no faults enabled yet.
    pub fn seeded(seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            ..FaultSpec::default()
        }
    }

    /// Builder: set one point's per-mille rate (clamped to 1000).
    pub fn rate(mut self, point: FaultPoint, per_mille: u16) -> FaultSpec {
        self.per_mille[point as usize] = per_mille.min(1000);
        self
    }

    /// `true` when every rate is zero (the injector can stay disabled).
    pub fn is_quiet(&self) -> bool {
        self.per_mille.iter().all(|&r| r == 0)
    }

    /// Parse a `--chaos` spec string: comma-separated `key=value` pairs
    /// where the keys are `seed` plus the [`FaultPoint::key`] names and
    /// the values are per-mille rates, e.g.
    /// `seed=42,panic=50,slow=100,stall=80,disconnect=40,compile=5`.
    pub fn parse(spec: &str) -> Result<FaultSpec, String> {
        let mut out = FaultSpec::default();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec: `{part}` is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            if key == "seed" {
                out.seed = value
                    .parse()
                    .map_err(|_| format!("fault spec: bad seed `{value}`"))?;
                continue;
            }
            let point = FaultPoint::ALL
                .iter()
                .find(|p| p.key() == key)
                .copied()
                .ok_or_else(|| {
                    format!("fault spec: unknown point `{key}` (seed, panic, slow, compile, stall, disconnect, compile_panic)")
                })?;
            let rate: u16 = value
                .parse()
                .map_err(|_| format!("fault spec: `{key}` rate `{value}` is not 0..=1000"))?;
            if rate > 1000 {
                return Err(format!(
                    "fault spec: `{key}` rate {rate} exceeds 1000 per mille"
                ));
            }
            out.per_mille[point as usize] = rate;
        }
        Ok(out)
    }
}

struct InjectorInner {
    spec: FaultSpec,
    rng: Mutex<Lcg>,
    checked: [AtomicU64; FAULT_POINTS],
    fired: [AtomicU64; FAULT_POINTS],
}

/// A cloneable handle to one seeded fault plan, shared by every layer that
/// injects (service workers, registry, connection writers).
///
/// The default/disabled injector holds no state at all: `should_fire` is a
/// single `Option` test, so production paths pay nothing for carrying the
/// hook.
#[derive(Clone, Default)]
pub struct FaultInjector {
    inner: Option<Arc<InjectorInner>>,
}

impl FaultInjector {
    /// The no-op injector (same as `Default`): never fires.
    pub fn disabled() -> FaultInjector {
        FaultInjector::default()
    }

    /// An injector executing `spec`. A quiet spec (all rates zero) still
    /// counts draws, so tests can assert an injection point was consulted.
    pub fn new(spec: FaultSpec) -> FaultInjector {
        FaultInjector {
            inner: Some(Arc::new(InjectorInner {
                spec,
                rng: Mutex::new(Lcg::new(spec.seed)),
                checked: std::array::from_fn(|_| AtomicU64::new(0)),
                fired: std::array::from_fn(|_| AtomicU64::new(0)),
            })),
        }
    }

    /// `true` when a spec is loaded (even a quiet one).
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The spec this injector executes, if enabled.
    pub fn spec(&self) -> Option<FaultSpec> {
        self.inner.as_ref().map(|i| i.spec)
    }

    /// Decide whether `point` fires this time. Deterministic in the draw
    /// *sequence*: with one seed, the n-th draw across all points is fixed
    /// (which request it lands on depends on thread interleaving, so chaos
    /// tests assert on counters and invariants, not on which request
    /// faulted).
    pub fn should_fire(&self, point: FaultPoint) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        inner.checked[point as usize].fetch_add(1, Ordering::Relaxed);
        let rate = inner.spec.per_mille[point as usize];
        if rate == 0 {
            return false;
        }
        let draw = {
            let mut rng = inner.rng.lock().expect("fault rng poisoned");
            rng.next_u64() % 1000
        };
        let fire = draw < rate as u64;
        if fire {
            inner.fired[point as usize].fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// How many times `point` was consulted.
    pub fn checked(&self, point: FaultPoint) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.checked[point as usize].load(Ordering::Relaxed))
    }

    /// How many times `point` actually fired.
    pub fn fired(&self, point: FaultPoint) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.fired[point as usize].load(Ordering::Relaxed))
    }

    /// Total faults fired across all points.
    pub fn total_fired(&self) -> u64 {
        FaultPoint::ALL.iter().map(|&p| self.fired(p)).sum()
    }

    /// One-token summary (`panic=3/120,slow=0/120,...`) for stats lines
    /// and load reports.
    pub fn summary(&self) -> String {
        FaultPoint::ALL
            .iter()
            .map(|&p| format!("{}={}/{}", p.key(), self.fired(p), self.checked(p)))
            .collect::<Vec<_>>()
            .join(",")
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "FaultInjector(disabled)"),
            Some(i) => write!(f, "FaultInjector({:?})", i.spec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_never_fires_and_counts_nothing() {
        let inj = FaultInjector::disabled();
        assert!(!inj.is_enabled());
        for _ in 0..100 {
            assert!(!inj.should_fire(FaultPoint::WorkerPanic));
        }
        assert_eq!(inj.checked(FaultPoint::WorkerPanic), 0);
        assert_eq!(inj.total_fired(), 0);
    }

    #[test]
    fn rates_are_respected_statistically() {
        let inj = FaultInjector::new(FaultSpec::seeded(42).rate(FaultPoint::WorkerPanic, 100));
        let fired = (0..5000)
            .filter(|_| inj.should_fire(FaultPoint::WorkerPanic))
            .count();
        // 10% nominal; the LCG is uniform enough for a wide tolerance.
        assert!((250..=750).contains(&fired), "fired {fired}/5000 at 10%");
        assert_eq!(inj.checked(FaultPoint::WorkerPanic), 5000);
        assert_eq!(inj.fired(FaultPoint::WorkerPanic), fired as u64);
        // A zero-rate point consults but never fires (and never draws, so
        // it cannot perturb the other points' sequence).
        assert!(!inj.should_fire(FaultPoint::SlowSolve));
        assert_eq!(inj.fired(FaultPoint::SlowSolve), 0);
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let spec = FaultSpec::seeded(7)
            .rate(FaultPoint::SocketStall, 300)
            .rate(FaultPoint::MidFrameDisconnect, 300);
        let a = FaultInjector::new(spec);
        let b = FaultInjector::new(spec);
        for _ in 0..200 {
            assert_eq!(
                a.should_fire(FaultPoint::SocketStall),
                b.should_fire(FaultPoint::SocketStall)
            );
            assert_eq!(
                a.should_fire(FaultPoint::MidFrameDisconnect),
                b.should_fire(FaultPoint::MidFrameDisconnect)
            );
        }
    }

    #[test]
    fn spec_parses_and_rejects() {
        let spec = FaultSpec::parse("seed=42,panic=50,slow=100,disconnect=1000").unwrap();
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.per_mille[FaultPoint::WorkerPanic as usize], 50);
        assert_eq!(spec.per_mille[FaultPoint::SlowSolve as usize], 100);
        assert_eq!(
            spec.per_mille[FaultPoint::MidFrameDisconnect as usize],
            1000
        );
        assert_eq!(spec.per_mille[FaultPoint::CompileFail as usize], 0);
        assert!(!spec.is_quiet());
        assert!(FaultSpec::parse("").unwrap().is_quiet());
        assert!(FaultSpec::parse("panic").is_err(), "missing =");
        assert!(FaultSpec::parse("warp=9").is_err(), "unknown point");
        assert!(FaultSpec::parse("panic=1001").is_err(), "rate > 1000");
        assert!(FaultSpec::parse("seed=x").is_err(), "bad seed");
    }

    #[test]
    fn builder_clamps_and_summarizes() {
        let inj = FaultInjector::new(FaultSpec::seeded(1).rate(FaultPoint::CompileFail, 2000));
        assert_eq!(
            inj.spec().unwrap().per_mille[FaultPoint::CompileFail as usize],
            1000
        );
        inj.should_fire(FaultPoint::CompileFail);
        let summary = inj.summary();
        assert!(summary.contains("compile=1/1"), "{summary}");
        assert!(!summary.contains(' '), "summary is one token: {summary}");
    }
}
