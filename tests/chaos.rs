//! Seeded fault-injection (chaos) suite for the solve service and the
//! `ps-serve` TCP front-end.
//!
//! Every scenario runs the service under `ps_support::faults` injection —
//! worker panics, slow solves, compile failures, socket stalls, mid-frame
//! disconnects — with **fixed seeds**, and asserts the strong invariants:
//! the service stays live, the stats counters reconcile exactly with the
//! injector's fired counts, every *non-faulted* response is bit-identical
//! to a direct `Program::run` oracle, deadline-expired work is shed (at
//! dequeue, or mid-solve at a pool chunk boundary) without poisoning
//! anything, and the TCP listener survives hostile clients.

use ps_core::{
    compile, CompileOptions, FaultInjector, FaultPoint, FaultSpec, Inputs, OwnedArray, Program,
    RuntimeOptions, Sequential, Service, ServiceError, ServiceOptions, SolveError, SolveRequest,
};
use std::time::{Duration, Instant};

const SEEDS: [u64; 3] = [0xA11CE, 0xB0B_5EED, 0xC4A05];

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

fn compound_inputs(i: usize) -> Inputs {
    Inputs::new()
        .set_real("rate", (i % 7) as f64 * 0.125)
        .set_int("n", 2 + (i % 12) as i64)
}

fn pipeline_inputs(i: usize) -> Inputs {
    let n = 1 + (i % 6) as i64;
    let xs: Vec<f64> = (0..n).map(|j| (i as i64 + j) as f64 * 0.75 - 1.0).collect();
    Inputs::new()
        .set_int("n", n)
        .set_array("xs", OwnedArray::real(vec![(1, n)], xs))
}

/// Bit-comparable summary of one response (chosen per program).
fn bits(prog: usize, out: &ps_core::Outputs) -> Vec<u64> {
    if prog == 0 {
        vec![out.scalar("final").as_real().to_bits()]
    } else {
        out.array("out")
            .as_real_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect()
    }
}

/// Storm of requests through a panic/slow-injecting service: every
/// response is either bit-identical to the direct oracle or an injected
/// panic, the counters reconcile exactly with the injector, and the
/// workers stay alive through it all.
fn panic_slow_storm(seed: u64) {
    const N: usize = 120;
    let faults = FaultInjector::new(
        FaultSpec::seeded(seed)
            .rate(FaultPoint::WorkerPanic, 80) // 8 %
            .rate(FaultPoint::SlowSolve, 30), // 3 %
    );
    let service = Service::new(ServiceOptions {
        workers: 4,
        batch_max: 4,
        faults: faults.clone(),
        ..Default::default()
    });
    let keys = [
        service.register(COMPOUND).expect("compound compiles"),
        service.register(PIPELINE).expect("pipeline compiles"),
    ];

    // Direct compile-once oracle, outside the service and its faults.
    let comps: Vec<_> = [COMPOUND, PIPELINE]
        .iter()
        .map(|s| compile(s, CompileOptions::default()).expect("oracle compiles"))
        .collect();
    let programs: Vec<Program<'_>> = comps
        .iter()
        .map(|c| Program::compile(c, RuntimeOptions::default()))
        .collect();
    let expected: Vec<Vec<u64>> = (0..N)
        .map(|i| {
            let prog = i % 2;
            let inputs = if prog == 0 {
                compound_inputs(i)
            } else {
                pipeline_inputs(i)
            };
            let out = programs[prog]
                .run(&inputs, &Sequential)
                .expect("oracle run succeeds");
            bits(prog, &out)
        })
        .collect();

    let handles: Vec<_> = (0..N)
        .map(|i| {
            let prog = i % 2;
            let inputs = if prog == 0 {
                compound_inputs(i)
            } else {
                pipeline_inputs(i)
            };
            service.submit(SolveRequest::new(keys[prog].clone(), inputs))
        })
        .collect();

    let mut oks = 0u64;
    let mut injected = 0u64;
    for (i, h) in handles.into_iter().enumerate() {
        match h.wait() {
            Ok(out) => {
                assert_eq!(
                    bits(i % 2, &out),
                    expected[i],
                    "seed {seed:#x} request {i}: non-faulted response must be \
                     bit-identical to the direct run"
                );
                oks += 1;
            }
            Err(SolveError::Panicked(msg)) => {
                assert!(
                    msg.contains("injected fault"),
                    "seed {seed:#x} request {i}: unexpected real panic: {msg}"
                );
                injected += 1;
            }
            Err(other) => panic!("seed {seed:#x} request {i}: unexpected error {other}"),
        }
    }

    let stats = service.stats();
    assert_eq!(stats.requests, N as u64, "seed {seed:#x}");
    assert_eq!(stats.responses, N as u64, "every handle resolved");
    assert_eq!(
        stats.panics,
        faults.fired(FaultPoint::WorkerPanic),
        "seed {seed:#x}: panic counter reconciles with the injector"
    );
    assert_eq!(stats.panics, injected, "seed {seed:#x}");
    assert_eq!(oks + injected, N as u64);
    assert!(
        oks > injected,
        "seed {seed:#x}: an 8% fault rate must leave most requests healthy \
         (got {oks} ok / {injected} injected)"
    );

    // Liveness after the storm: the next submit still resolves (it may
    // itself draw an injected panic — that is fine, it must just answer).
    match service.solve(&keys[0], compound_inputs(1)) {
        Ok(_) | Err(SolveError::Panicked(_)) => {}
        Err(other) => panic!("seed {seed:#x}: service wedged after storm: {other}"),
    }
}

#[test]
fn panic_slow_storm_is_bit_identical_under_three_seeds() {
    for seed in SEEDS {
        panic_slow_storm(seed);
    }
}

/// A burst of already-expired requests behind a long occupying solve is
/// shed at dequeue — none of them execute — and the service then serves
/// generously-deadlined work normally.
#[test]
fn deadline_storm_sheds_expired_requests_without_executing() {
    const SHED: usize = 16;
    let service = Service::new(ServiceOptions {
        workers: 1,
        ..Default::default()
    });
    let key = service.register(COMPOUND).expect("compound compiles");

    // Occupy the single worker so the storm queues behind it.
    let occupy = service.submit(SolveRequest::new(
        key.clone(),
        Inputs::new().set_real("rate", 1e-7).set_int("n", 4_000_000),
    ));
    let storm: Vec<_> = (0..SHED)
        .map(|i| {
            service.submit_with_deadline(
                SolveRequest::new(key.clone(), compound_inputs(i)),
                Duration::ZERO,
            )
        })
        .collect();

    for (i, h) in storm.into_iter().enumerate() {
        match h.wait() {
            Err(SolveError::DeadlineExceeded) => {}
            other => panic!("storm request {i}: expected DeadlineExceeded, got {other:?}"),
        }
    }
    occupy.wait().expect("occupying solve still completes");

    let stats = service.stats();
    assert_eq!(stats.deadline_expired, SHED as u64);
    assert_eq!(stats.responses, SHED as u64 + 1, "every handle resolved");
    assert_eq!(stats.panics, 0, "shedding is not a crash");

    // Normal work with a generous deadline flows again.
    let out = service
        .submit_with_deadline(
            SolveRequest::new(key, Inputs::new().set_real("rate", 0.5).set_int("n", 10)),
            Duration::from_secs(60),
        )
        .wait()
        .expect("post-storm solve succeeds");
    assert!((out.scalar("final").as_real() - 1.5f64.powi(9)).abs() < 1e-9);
}

/// Mid-solve expiry: a deadline that trips *while* the solve is running
/// on the shared pool stops it at a chunk boundary — `cancelled_chunks`
/// moves, the request resolves to `DeadlineExceeded`, and the pool then
/// produces a bit-identical answer for the same inputs.
#[test]
fn mid_solve_deadline_cancels_at_pool_chunk_boundaries() {
    let service = Service::new(ServiceOptions {
        workers: 1,
        solve_threads: 2,
        ..Default::default()
    });
    let key = service.register(PIPELINE).expect("pipeline compiles");

    let n = 4_000_000i64;
    let xs: Vec<f64> = (0..n).map(|i| i as f64 * 1e-6 - 1.0).collect();
    let inputs = Inputs::new()
        .set_int("n", n)
        .set_array("xs", OwnedArray::real(vec![(1, n)], xs.clone()));

    // Oracle for the final bit-identical check.
    let comp = compile(PIPELINE, CompileOptions::default()).expect("oracle compiles");
    let program = Program::compile(&comp, RuntimeOptions::default());
    let expected: Vec<u64> = program
        .run(&inputs, &Sequential)
        .expect("oracle run succeeds")
        .array("out")
        .as_real_slice()
        .iter()
        .map(|x| x.to_bits())
        .collect();

    // Timing-dependent: retry with the same short deadline until one
    // attempt demonstrably expires mid-solve (cancelled chunks moved and
    // the handle resolved to DeadlineExceeded).
    let overall = Instant::now() + Duration::from_secs(120);
    for attempt in 1.. {
        let before = service
            .pool_stats()
            .expect("solve_threads > 1 exposes the pool")
            .cancelled_chunks;
        let got = service
            .submit_with_deadline(
                SolveRequest::new(key.clone(), inputs.clone()),
                Duration::from_millis(4),
            )
            .wait();
        let after = service
            .pool_stats()
            .expect("pool stays exposed")
            .cancelled_chunks;
        match got {
            Err(SolveError::DeadlineExceeded) if after > before => {
                eprintln!("mid-solve cancellation on attempt {attempt}");
                break;
            }
            Err(SolveError::DeadlineExceeded) | Ok(_) => {
                // Shed at dequeue before starting, or finished under the
                // wire — keep trying for the mid-solve interleaving.
                assert!(
                    Instant::now() < overall,
                    "never observed a mid-solve cancellation in {attempt} attempts \
                     (cancelled_chunks {after})"
                );
            }
            Err(other) => panic!("unexpected error {other}"),
        }
    }

    // The pool was not poisoned: the same solve, undeadlined, is
    // bit-identical to the Sequential oracle.
    let out = service
        .submit(SolveRequest::new(key, inputs))
        .wait()
        .expect("post-cancel solve succeeds");
    let got: Vec<u64> = out
        .array("out")
        .as_real_slice()
        .iter()
        .map(|x| x.to_bits())
        .collect();
    assert_eq!(got, expected, "pool output identical after a cancellation");
}

/// Injected registry compile failures surface as structured
/// `ServiceError::Compile` errors, reconcile with the injector, and never
/// stick: the program is not cached as failed, so a later attempt
/// compiles and solves normally.
#[test]
fn injected_compile_failures_are_structured_and_transient() {
    for seed in SEEDS {
        let faults = FaultInjector::new(
            FaultSpec::seeded(seed).rate(FaultPoint::CompileFail, 500), // 50 %
        );
        let service = Service::new(ServiceOptions {
            workers: 1,
            faults: faults.clone(),
            ..Default::default()
        });

        let mut failures = 0u64;
        let mut key = None;
        for _ in 0..64 {
            match service.register(COMPOUND) {
                Ok(k) => {
                    key = Some(k);
                    break;
                }
                Err(ServiceError::Compile(msg)) => {
                    assert!(msg.contains("injected fault"), "seed {seed:#x}: {msg}");
                    failures += 1;
                }
            }
        }
        let key =
            key.unwrap_or_else(|| panic!("seed {seed:#x}: 64 attempts at 50% never compiled"));
        assert_eq!(
            failures,
            faults.fired(FaultPoint::CompileFail),
            "seed {seed:#x}: failures reconcile with the injector"
        );

        // Once compiled, the cache answers: solves never redraw the
        // compile fault and the service works normally.
        let fired_before = faults.fired(FaultPoint::CompileFail);
        let out = service
            .solve(&key, Inputs::new().set_real("rate", 0.5).set_int("n", 10))
            .unwrap_or_else(|e| panic!("seed {seed:#x}: warm solve failed: {e}"));
        assert!((out.scalar("final").as_real() - 1.5f64.powi(9)).abs() < 1e-9);
        assert_eq!(
            faults.fired(FaultPoint::CompileFail),
            fired_before,
            "seed {seed:#x}: cache hits never consult the compile fault point"
        );
    }
}

// ---- TCP front-end under hostile clients and socket chaos ----

#[path = "serve_harness.rs"]
mod serve_harness;

mod tcp {
    use super::serve_harness::Server;
    use super::SEEDS;
    use std::io::{BufWriter, Write};
    use std::net::{Shutdown, TcpStream};

    const SOLVE: &str = "solve recurrence_1d rate=0.5 n=4";
    const SOLVED: &str = "ok final=3.375";

    /// Oversized frames, lying array headers, binary junk, and a
    /// mid-frame disconnect — the same listener survives all of them and
    /// still serves clean requests.
    #[test]
    fn hostile_clients_cannot_take_down_the_listener() {
        let mut server = Server::spawn(&["--max-frame", "4096", "--io-timeout", "5"]);

        // (1) An oversized frame gets a structured error and the
        // connection keeps working.
        let mut c = server.connect();
        let huge = "x".repeat(20_000);
        c.send(&huge);
        let reply = c.read_line();
        assert!(
            reply.starts_with("err frame exceeds 4096 bytes"),
            "oversized frame must be answered, got {reply:?}"
        );
        c.send(SOLVE);
        assert_eq!(
            c.read_line(),
            SOLVED,
            "connection survives the oversized frame"
        );

        // (2) A lying array header is rejected before any allocation —
        // also on the same connection.
        c.send("solve recurrence_1d rate=0.5 n=4 u0=@1:99999999999999:1");
        let reply = c.read_line();
        assert!(
            reply.starts_with("err") && reply.contains("frame limit"),
            "hostile header must be a structured error, got {reply:?}"
        );
        c.send(SOLVE);
        assert_eq!(
            c.read_line(),
            SOLVED,
            "connection survives the hostile header"
        );

        // (3) Binary junk gets an err line, not a disconnect.
        c.send("\u{1}\u{2}garbage command");
        assert!(c.read_line().starts_with("err "), "junk gets an err line");
        c.send(SOLVE);
        assert_eq!(c.read_line(), SOLVED, "connection survives binary junk");
        c.send("quit");

        // (4) A client that dies mid-frame (no newline ever arrives).
        {
            let stream = TcpStream::connect(&server.addr).expect("connect");
            let mut w = BufWriter::new(stream.try_clone().expect("clone"));
            w.write_all(b"solve recurrence_1d rate=0.5")
                .expect("half frame");
            w.flush().expect("flush half frame");
            stream.shutdown(Shutdown::Both).expect("abandon mid-frame");
        }

        // The listener still accepts and serves.
        let mut d = server.connect();
        d.send(SOLVE);
        assert_eq!(
            d.read_line(),
            SOLVED,
            "listener alive after hostile clients"
        );
        d.send("shutdown");
        assert_eq!(d.read_line(), "ok bye");
        assert!(server.wait_exit(), "clean exit after the hostile parade");
    }

    /// Service-side slow solves plus server-side socket chaos (stalls +
    /// mid-frame disconnects) under three seeds: two concurrent clients
    /// with reconnect-and-retry get every request answered exactly, the
    /// stats line carries the chaos summary, and the server drains
    /// cleanly afterwards.
    #[test]
    fn socket_chaos_is_survivable_with_retries_under_three_seeds() {
        for seed in SEEDS {
            let spec = format!("seed={seed},slow=60,stall=80,disconnect=50");
            let mut server = Server::spawn(&[
                "--chaos",
                &spec,
                "--io-timeout",
                "10",
                "--max-frame",
                "4096",
            ]);

            // Two client threads split the 40 requests; a dropped
            // connection surfaces as EOF or a partial line, and the
            // harness redials and resends until every request is answered.
            server.on_clients(2, |client, c| {
                for i in 0..20 {
                    assert_eq!(
                        server.request(c, SOLVE, 10),
                        SOLVED,
                        "seed {seed:#x} client {client} request {i}: responses stay exact under chaos"
                    );
                }
            });

            // The stats line flows through the same chaotic writer; retry
            // it the same way, then shut down for a clean exit.
            let stats = server.request(&mut server.connect(), "stats", 20);
            assert!(
                stats.contains(" chaos=") && stats.contains("requests="),
                "seed {seed:#x}: stats reports the chaos summary: {stats}"
            );

            // The `ok bye` acknowledgement is written outside the chaotic
            // writer.
            let mut d = server.connect();
            d.send("shutdown");
            assert_eq!(d.read_line(), "ok bye", "seed {seed:#x}");
            assert!(server.wait_exit(), "seed {seed:#x}: clean exit under chaos");
        }
    }
}
