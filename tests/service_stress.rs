//! Concurrent-client stress suite for `ps-service`.
//!
//! Seeded request mixes (N client threads × M requests across several
//! programs with random parameter vectors) are fired at a shared
//! [`Service`] and every response is asserted **bit-identical** to a
//! direct `Program::run` oracle computed outside the service — including
//! while injected panicking requests (integer `div` by zero) bounce off
//! the request boundary. Failures shrink to a minimal request vector via
//! `ps_support::rng::check`.

use ps_core::{
    compile, execute, CompileOptions, FaultInjector, Inputs, OwnedArray, Program, ProgramKey,
    Registry, RuntimeOptions, Sequential, Service, ServiceOptions, SolveError, SolveRequest,
    SPEC_CACHE_CAP,
};
use ps_support::rng::{check, shrink_vec, Lcg};

const COMPOUND: &str = "Compound: module (rate: real; n: int): [final: real];
    type K = 2 .. n;
    var balance: array [1 .. n] of real;
    define
        balance[1] = 1.0;
        balance[K] = balance[K-1] * (1.0 + rate);
        final = balance[n];
    end Compound;";

const PIPELINE: &str = "Pipeline: module (xs: array[I] of real; n: int): [out: array[I] of real];
    type I, L, T = 1 .. n;
    var scaled, shifted: array [1 .. n] of real;
    define
        scaled[I] = xs[I] * 2.0;
        shifted[L] = scaled[L] + 1.0;
        out[T] = sqrt(abs(shifted[T]));
    end Pipeline;";

/// `q = 0` panics inside the solve — the deliberate fault injection.
const DIVIDER: &str = "Divider: module (p: int; q: int): [y: int];
    define y = p div q; end Divider;";

const SOURCES: [&str; 3] = [COMPOUND, PIPELINE, DIVIDER];

/// One generated request: which program plus two raw parameter draws the
/// program-specific input builders interpret.
#[derive(Clone, Debug)]
struct Req {
    prog: usize,
    a: i64,
    b: i64,
}

fn gen_req(rng: &mut Lcg) -> Req {
    Req {
        prog: rng.index(SOURCES.len()),
        a: rng.int(-8, 8),
        b: rng.int(0, 24),
    }
}

fn inputs_for(req: &Req) -> Inputs {
    match req.prog {
        0 => Inputs::new()
            .set_real("rate", req.a as f64 * 0.125)
            .set_int("n", 2 + req.b % 12),
        1 => {
            let n = 1 + req.b % 6;
            let xs: Vec<f64> = (0..n).map(|i| (req.a + i) as f64 * 0.75 - 1.0).collect();
            Inputs::new()
                .set_int("n", n)
                .set_array("xs", OwnedArray::real(vec![(1, n)], xs))
        }
        _ => Inputs::new().set_int("p", req.a).set_int("q", req.b % 4),
    }
}

/// `true` when the request is the injected fault (divide by zero panics).
fn expect_panic(req: &Req) -> bool {
    req.prog == 2 && req.b % 4 == 0
}

/// Direct compile-once oracles, one per program, built outside the
/// service.
struct Oracle {
    comps: Vec<ps_core::Compilation>,
}

impl Oracle {
    fn new() -> Oracle {
        Oracle {
            comps: SOURCES
                .iter()
                .map(|s| compile(s, CompileOptions::default()).expect("stress program compiles"))
                .collect(),
        }
    }

    /// Run one request directly and return its bit-comparable summary.
    fn run(&self, programs: &[Program<'_>], req: &Req) -> Vec<u64> {
        let out = programs[req.prog]
            .run(&inputs_for(req), &Sequential)
            .expect("oracle run succeeds");
        match req.prog {
            0 => vec![out.scalar("final").as_real().to_bits()],
            1 => out
                .array("out")
                .as_real_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect(),
            _ => vec![out.scalar("y").as_int() as u64],
        }
    }
}

fn response_bits(req: &Req, out: &ps_core::Outputs) -> Vec<u64> {
    match req.prog {
        0 => vec![out.scalar("final").as_real().to_bits()],
        1 => out
            .array("out")
            .as_real_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect(),
        _ => vec![out.scalar("y").as_int() as u64],
    }
}

/// Fire `reqs` at a fresh service from `client_threads` concurrent client
/// threads; every response must match the oracle bit-for-bit, and every
/// injected fault must come back as a panic error. `solve_threads > 1`
/// runs every solve on the service's shared work-stealing pool — the
/// oracle stays `Sequential`, so this also proves parallel solves are
/// bit-identical to serial ones.
fn run_mix(
    reqs: &[Req],
    client_threads: usize,
    workers: usize,
    solve_threads: usize,
) -> Result<(), String> {
    let oracle = Oracle::new();
    let programs: Vec<Program<'_>> = oracle
        .comps
        .iter()
        .map(|c| Program::compile(c, RuntimeOptions::default()))
        .collect();
    let expected: Vec<Option<Vec<u64>>> = reqs
        .iter()
        .map(|r| (!expect_panic(r)).then(|| oracle.run(&programs, r)))
        .collect();

    let service = Service::new(ServiceOptions {
        workers,
        solve_threads,
        batch_max: 4,
        ..Default::default()
    });
    let keys: Vec<ProgramKey> = SOURCES
        .iter()
        .map(|s| service.register(s).expect("service compiles the program"))
        .collect();

    let failures: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..client_threads)
            .map(|t| {
                let service = &service;
                let keys = &keys;
                let expected = &expected;
                scope.spawn(move || {
                    let mut failures = Vec::new();
                    // Client t owns requests t, t+T, t+2T, ... — together
                    // the threads cover every request exactly once.
                    for (i, req) in reqs
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % client_threads == t)
                    {
                        let got = service
                            .submit(SolveRequest::new(keys[req.prog].clone(), inputs_for(req)))
                            .wait();
                        match (&expected[i], got) {
                            (None, Err(SolveError::Panicked(_))) => {}
                            (None, other) => failures.push(format!(
                                "request {i} ({req:?}): expected panic error, got {other:?}"
                            )),
                            (Some(bits), Ok(out)) => {
                                if &response_bits(req, &out) != bits {
                                    failures.push(format!(
                                        "request {i} ({req:?}): response differs from direct \
                                         Program::run"
                                    ));
                                }
                            }
                            (Some(_), Err(e)) => failures
                                .push(format!("request {i} ({req:?}): unexpected error {e}")),
                        }
                    }
                    failures
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });

    if !failures.is_empty() {
        return Err(failures.join("\n"));
    }
    let stats = service.stats();
    if stats.responses != reqs.len() as u64 {
        return Err(format!(
            "responses {} != requests {}",
            stats.responses,
            reqs.len()
        ));
    }
    let faults = reqs.iter().filter(|r| expect_panic(r)).count() as u64;
    if stats.panics != faults {
        return Err(format!(
            "panic counter {} != injected faults {faults}",
            stats.panics
        ));
    }
    Ok(())
}

#[test]
fn seeded_mixed_load_is_bit_identical_to_direct_runs() {
    check(
        0x5e41_ce01,
        6,
        |rng| rng.vec_of(8, 40, gen_req),
        |reqs| shrink_vec(reqs, 1),
        |reqs| run_mix(reqs, 4, 4, 1),
    );
}

#[test]
fn panic_heavy_mix_never_poisons_workers() {
    // Every other request is the injected fault; two workers serve them
    // all, so each worker repeatedly survives a panicking solve.
    check(
        0xdead_beef,
        4,
        |rng| {
            let mut reqs = rng.vec_of(10, 24, gen_req);
            for (i, r) in reqs.iter_mut().enumerate() {
                if i % 2 == 0 {
                    r.prog = 2;
                    r.b = 0; // q = 0 → div-by-zero panic
                }
            }
            reqs
        },
        |reqs| shrink_vec(reqs, 1),
        |reqs| run_mix(reqs, 4, 2, 1),
    );
}

/// The full mixed load again, but with `solve_threads: 2` so every solve
/// runs its `DOALL` regions on the shared work-stealing pool while two
/// workers submit concurrently. Responses must stay bit-identical to the
/// `Sequential` oracle — parallel chunking may not perturb a single bit —
/// and injected panics now unwind out of pool chunks instead of a plain
/// loop, exercising the region abort path end to end.
#[test]
fn parallel_solves_are_bit_identical_to_sequential_oracle() {
    check(
        0x5e41_ce02,
        5,
        |rng| rng.vec_of(8, 32, gen_req),
        |reqs| shrink_vec(reqs, 1),
        |reqs| run_mix(reqs, 4, 2, 2),
    );
}

/// An artifact belongs to whoever holds it, not to the registry: evicted,
/// and with the registry itself gone, a held `Arc` and its open session
/// keep solving — bit-identical to a direct `execute`.
#[test]
fn evicted_artifact_outlives_its_registry() {
    let registry = Registry::new(1, FaultInjector::disabled(), None);
    let held_key = ProgramKey::new(PIPELINE, RuntimeOptions::default());
    let held = registry.get_or_compile(&held_key).unwrap();
    let mut session = held.session();
    registry
        .get_or_compile(&ProgramKey::new(COMPOUND, RuntimeOptions::default()))
        .unwrap();
    assert_eq!(registry.evictions(), 1);
    assert!(registry.lookup(&held_key).is_none(), "capacity 1: evicted");
    drop(registry);

    let comp = compile(PIPELINE, CompileOptions::default()).unwrap();
    for (a, b) in [(3, 5), (-2, 4)] {
        let req = Req { prog: 1, a, b };
        let inputs = inputs_for(&req);
        let got = session.run(&inputs, &Sequential).unwrap();
        let want = execute(&comp, &inputs, &Sequential, RuntimeOptions::default()).unwrap();
        assert_eq!(response_bits(&req, &got), response_bits(&req, &want));
    }
}

#[test]
fn warm_registry_hits_exceed_compiles() {
    let service = Service::new(ServiceOptions {
        workers: 4,
        ..Default::default()
    });
    let keys: Vec<ProgramKey> = SOURCES
        .iter()
        .map(|s| service.register(s).unwrap())
        .collect();
    let mut rng = Lcg::new(41);
    let reqs: Vec<Req> = (0..64)
        .map(|_| {
            let mut r = gen_req(&mut rng);
            r.b = 1 + r.b % 3; // keep the divider on the non-panicking path
            r
        })
        .collect();
    let handles: Vec<_> = reqs
        .iter()
        .map(|r| service.submit(SolveRequest::new(keys[r.prog].clone(), inputs_for(r))))
        .collect();
    for h in handles {
        h.wait().unwrap();
    }
    let stats = service.stats();
    assert_eq!(stats.responses, 64);
    assert_eq!(stats.compiles, 3, "one compile per program");
    assert!(
        stats.cache_hits > stats.compiles,
        "warm path: hits {} must exceed compiles {}",
        stats.cache_hits,
        stats.compiles
    );
    assert!(stats.batches <= stats.requests);
}

#[test]
fn spec_cache_stays_bounded_under_adversarial_diversity() {
    // Registry-level view: a parameter sweep past the per-program spec
    // cache's cap keeps memory bounded and counts evictions, while every
    // answer stays correct.
    let registry = Registry::new(4, FaultInjector::disabled(), None);
    let key = ProgramKey::new(COMPOUND, RuntimeOptions::default());
    let entry = registry.get_or_compile(&key).unwrap();
    let layouts = SPEC_CACHE_CAP + 38;
    for n in 2..2 + layouts as i64 {
        let out = entry
            .run(
                &Inputs::new().set_real("rate", 1.0).set_int("n", n),
                &Sequential,
            )
            .unwrap();
        assert_eq!(
            out.scalar("final").as_real(),
            2.0f64.powi(n as i32 - 1),
            "n = {n}"
        );
    }
    assert_eq!(
        entry.spec_cached(),
        SPEC_CACHE_CAP,
        "cache bounded at its cap"
    );
    assert_eq!(
        entry.spec_evictions(),
        38,
        "each layout past the cap evicts one"
    );
}

/// With `solve_threads: 2` and two service workers, concurrent solves
/// must *observably* overlap inside the shared pool: the pool's
/// `max_live_regions` high-water mark reaches ≥ 2 (two workers' `DOALL`
/// regions in flight at once) — the exact scenario the old one-region
/// broadcast executor serialized. Overlap is schedule-dependent on a
/// loaded box, so waves of wide solves are retried under a deadline
/// until the mark is observed; `batch_max: 1` keeps the two workers on
/// separate requests instead of micro-batching them onto one.
#[test]
fn parallel_solves_observably_overlap_in_the_shared_pool() {
    use std::time::{Duration, Instant};

    let service = Service::new(ServiceOptions {
        workers: 2,
        solve_threads: 2,
        batch_max: 1,
        ..Default::default()
    });
    let key = service.register(PIPELINE).unwrap();
    let mut rng = Lcg::new(0x0ae8_1a9);
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        // One wave: 8 wide solves (three n-element DOALL regions each)
        // racing through 2 workers onto the shared pool.
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let n = 200_000;
                let base = rng.int(-4, 4) as f64 * 0.5;
                let xs: Vec<f64> = (0..n).map(|i| base + i as f64 * 1e-5).collect();
                let inputs = Inputs::new()
                    .set_int("n", n)
                    .set_array("xs", OwnedArray::real(vec![(1, n)], xs));
                service.submit(SolveRequest::new(key.clone(), inputs))
            })
            .collect();
        for h in handles {
            h.wait().expect("wide solve succeeds");
        }
        let pool = service
            .pool_stats()
            .expect("solve_threads > 1 exposes the shared pool");
        assert!(pool.regions > 0, "solves dispatched DOALL regions");
        if pool.max_live_regions >= 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no overlap observed before the deadline: {pool}"
        );
    }
}
