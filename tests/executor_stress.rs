//! Deterministic schedule-stress suite for the work-stealing executor.
//!
//! The work-stealing pool (see `ps_executor::pool`) publishes each
//! submitter's region on its own lane, one epoch-validated slot; idle
//! workers steal chunks off any live region's cursor, several regions can
//! be in flight at once, and a `for_range` made from inside a running
//! chunk runs inline on that chunk's thread. The safety argument leans
//! on globally-unique epochs, a store-load announce handshake at retire,
//! and an item-counted completion latch. This suite is the safety net:
//! thousands of mixed-size regions — empty, singleton, reentrant, stolen,
//! overlapping, and concurrently submitted from several threads and
//! several pools — each asserting that every iteration runs **exactly
//! once**.
//!
//! Driven by a seeded LCG so every run replays the same schedule shapes
//! (failing cases shrink to a minimal region vector via
//! `ps_support::rng::check`); sizes are drawn from mixes that
//! deliberately hammer the regimes the protocol distinguishes: inline
//! short-circuit, publication with idle workers, steal-heavy skew, and
//! multiple live regions.

use ps_core::{Executor, Sequential, ThreadPool};
use ps_support::rng::{check, shrink_vec, Lcg};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Draw a region size from a mix biased toward the dispatch-bound regimes:
/// empty, singleton, tiny, medium, and the occasional large region.
fn mixed_size(rng: &mut Lcg) -> i64 {
    match rng.index(10) {
        0 => 0,
        1 => 1,
        2..=5 => rng.int(2, 8),
        6..=8 => rng.int(9, 64),
        _ => rng.int(65, 700),
    }
}

/// Run `regions` regions on `ex` with sizes drawn from `rng`, asserting
/// exactly-once execution of every iteration. Returns total iterations.
fn drive_exactly_once(ex: &dyn Executor, rng: &mut Lcg, regions: usize, tag: &str) -> u64 {
    let mut total = 0u64;
    for r in 0..regions {
        let size = mixed_size(rng);
        let lo = rng.int(-100, 100);
        let hi = lo + size - 1; // size 0 => hi < lo (empty region)
        let hits: Vec<AtomicU32> = (0..size).map(|_| AtomicU32::new(0)).collect();
        ex.for_range(lo, hi, &|i| {
            hits[(i - lo) as usize].fetch_add(1, Ordering::Relaxed);
        });
        for (k, h) in hits.iter().enumerate() {
            let n = h.load(Ordering::Relaxed);
            assert_eq!(
                n, 1,
                "{tag}: region {r} (lo {lo}, size {size}): index {k} ran {n} times"
            );
        }
        total += size as u64;
    }
    total
}

/// 1200 mixed-size regions on pools of width 1..=4 plus `Sequential`:
/// every iteration of every region runs exactly once.
#[test]
fn mixed_regions_exactly_once() {
    let mut rng = Lcg::new(0x57e55_0);
    let seq_total = drive_exactly_once(&Sequential, &mut Lcg::new(0x57e55_0), 200, "seq");
    assert!(seq_total > 0);
    for threads in 1..=4usize {
        let pool = ThreadPool::new(threads);
        let total = drive_exactly_once(&pool, &mut rng, 250, &format!("par{threads}"));
        let stats = pool.stats();
        assert_eq!(
            stats.items, total,
            "par{threads}: stats must account every requested iteration"
        );
        assert!(stats.inline_regions <= stats.regions);
    }
}

/// Zero- and one-iteration regions by the thousand: empty regions are
/// no-ops, singletons run inline, and the pool survives the churn.
#[test]
fn degenerate_regions() {
    let pool = ThreadPool::new(3);
    let count = AtomicUsize::new(0);
    for r in 0..1000i64 {
        if r % 2 == 0 {
            // Empty: hi < lo, body must never run.
            pool.for_range(r, r - 1, &|_| {
                count.fetch_add(1000, Ordering::Relaxed);
            });
        } else {
            pool.for_range(r, r, &|i| {
                assert_eq!(i, r);
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
    }
    assert_eq!(count.load(Ordering::Relaxed), 500);
    let stats = pool.stats();
    assert_eq!(stats.regions, 500, "empty regions are not even counted");
    assert_eq!(stats.inline_regions, 500, "singletons all run inline");
    assert_eq!(stats.items, 500);
}

/// Nested `for_range` reentry: outer region bodies call the same pool
/// again, from the submitting thread and from workers alike. Every inner
/// call runs inline on its chunk's thread, so the accounting is exact: one
/// inline region per non-empty inner call, and never more than the one
/// outer region live. Every (outer, inner) pair runs exactly once.
#[test]
fn nested_reentry_exactly_once() {
    let mut rng = Lcg::new(0x57e55_1);
    let pool = ThreadPool::new(4);
    let mut inner_calls = 0u64;
    for r in 0..150 {
        let outer = rng.int(2, 12);
        let inner = rng.int(0, 8);
        let hits: Vec<AtomicU32> = (0..outer * inner.max(1))
            .map(|_| AtomicU32::new(0))
            .collect();
        pool.for_range(0, outer - 1, &|o| {
            pool.for_range(0, inner - 1, &|i| {
                hits[(o * inner + i) as usize].fetch_add(1, Ordering::Relaxed);
            });
        });
        if inner > 0 {
            inner_calls += outer as u64;
            for (k, h) in hits.iter().enumerate() {
                let n = h.load(Ordering::Relaxed);
                assert_eq!(n, 1, "region {r}: pair {k} ran {n} times");
            }
        }
    }
    let s = pool.stats();
    assert_eq!(s.inline_regions, inner_calls, "every inner call ran inline");
    assert_eq!(s.regions, 150 + inner_calls);
    assert_eq!(s.max_live_regions, 1, "reentry published nothing");
}

/// Three levels of nesting, mixing `for_range` and `for_chunks`: only the
/// outermost level publishes, the 6 + 36 calls below it run inline, and
/// the count still comes out exact.
#[test]
fn deep_nesting_exactly_once() {
    let pool = ThreadPool::new(3);
    let count = AtomicUsize::new(0);
    pool.for_range(0, 5, &|_| {
        pool.for_chunks(0, 5, &|lo, hi| {
            for _ in lo..hi {
                pool.for_range(0, 5, &|_| {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
    });
    assert_eq!(count.load(Ordering::Relaxed), 6 * 6 * 6);
    let s = pool.stats();
    assert_eq!((s.regions, s.inline_regions), (43, 42));
    assert_eq!(s.max_live_regions, 1);
}

/// Several pools live at once on separate threads, each drained through
/// the full mixed-size schedule. Pools share nothing but the process.
#[test]
fn concurrent_pools() {
    let handles: Vec<_> = (0..3usize)
        .map(|t| {
            std::thread::spawn(move || {
                let pool = ThreadPool::new(t + 2);
                let mut rng = Lcg::new(0x57e55_2 + t as u64);
                drive_exactly_once(&pool, &mut rng, 150, &format!("pool{t}"))
            })
        })
        .collect();
    for h in handles {
        assert!(h.join().expect("no stress thread may panic") > 0);
    }
}

/// One shared pool, four submitter threads racing 150 regions each into
/// disjoint slices of one hit array: each submitter publishes into its
/// own claimed lane, regions overlap freely, and nothing is lost or
/// doubled.
#[test]
fn concurrent_submitters_exactly_once() {
    const SUBMITTERS: usize = 4;
    const REGIONS: usize = 150;
    const SLICE: usize = 512;
    let pool = Arc::new(ThreadPool::new(3));
    let hits: Arc<Vec<AtomicU32>> =
        Arc::new((0..SUBMITTERS * SLICE).map(|_| AtomicU32::new(0)).collect());
    let handles: Vec<_> = (0..SUBMITTERS)
        .map(|t| {
            let pool = pool.clone();
            let hits = hits.clone();
            std::thread::spawn(move || {
                let mut rng = Lcg::new(0x57e55_3 + t as u64);
                let base = (t * SLICE) as i64;
                let mut expected = vec![0u32; SLICE];
                for _ in 0..REGIONS {
                    let size = mixed_size(&mut rng).min(SLICE as i64);
                    let lo = base + rng.int(0, SLICE as i64 - size.max(1));
                    pool.for_range(lo, lo + size - 1, &|i| {
                        hits[i as usize].fetch_add(1, Ordering::Relaxed);
                    });
                    for k in 0..size {
                        expected[(lo - base + k) as usize] += 1;
                    }
                }
                expected
            })
        })
        .collect();
    for (t, h) in handles.into_iter().enumerate() {
        let expected = h.join().expect("submitter thread must not panic");
        for (k, want) in expected.iter().enumerate() {
            let got = hits[t * SLICE + k].load(Ordering::Relaxed);
            assert_eq!(got, *want, "submitter {t}, index {k}");
        }
    }
}

/// Panic recovery under churn: a panicking iteration aborts its region
/// (propagating to the submitter) without poisoning the pool — the very
/// next region still runs every iteration exactly once.
#[test]
fn panicking_regions_do_not_poison_the_pool() {
    let mut rng = Lcg::new(0x57e55_4);
    let pool = ThreadPool::new(3);
    for round in 0..25 {
        let size = rng.int(8, 80);
        let bad = rng.int(0, size - 1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.for_range(0, size - 1, &|i| {
                if i == bad {
                    panic!("scheduled failure {round} at {i}");
                }
            });
        }));
        assert!(result.is_err(), "round {round}: panic must propagate");

        // Clean region right after: exactly-once still holds.
        let hits: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        pool.for_range(0, 63, &|i| {
            hits[i as usize].fetch_add(1, Ordering::Relaxed);
        });
        assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
            "round {round}: pool unusable after panic"
        );
    }
}

/// The whole suite above at a fixed seed is the regression net; this case
/// additionally replays one seed on two identical pools and checks the
/// *stats* agree — the publication protocol must be deterministic in what
/// it requests, even though chunk claiming (and hence stealing) is racy.
#[test]
fn replayed_schedule_has_deterministic_accounting() {
    let run = || {
        let pool = ThreadPool::new(3);
        let mut rng = Lcg::new(0x57e55_5);
        let total = drive_exactly_once(&pool, &mut rng, 300, "replay");
        let s = pool.stats();
        (total, s.regions, s.items, s.inline_regions)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed, same requested schedule");
}

/// Like [`drive_exactly_once`] but returns a shrink-friendly `Err`
/// instead of panicking, so `rng::check` can minimize a failing size
/// vector.
fn run_sizes(ex: &dyn Executor, sizes: &[i64], tag: &str) -> Result<(), String> {
    for (r, &size) in sizes.iter().enumerate() {
        let hits: Vec<AtomicU32> = (0..size).map(|_| AtomicU32::new(0)).collect();
        ex.for_range(0, size - 1, &|i| {
            hits[i as usize].fetch_add(1, Ordering::Relaxed);
        });
        for (k, h) in hits.iter().enumerate() {
            let n = h.load(Ordering::Relaxed);
            if n != 1 {
                return Err(format!(
                    "{tag}: region {r} (size {size}): index {k} ran {n} times"
                ));
            }
        }
    }
    Ok(())
}

/// Two submitters on one shared pool force their first regions to be
/// live *simultaneously* — each region's first iteration parks until the
/// other region has demonstrably started — then race a seeded mixed-size
/// tail. Exactly-once must hold throughout, and the pool's high-water
/// mark must have seen ≥ 2 live regions: the overlap the old
/// single-slot broadcast pool could never produce.
#[test]
fn overlapping_submitters_exactly_once() {
    check(
        0x57e55_6,
        4,
        |rng| rng.vec_of(4, 24, mixed_size),
        |sizes| shrink_vec(sizes, 1),
        |sizes| {
            let pool = Arc::new(ThreadPool::new(3));
            let started: Arc<[AtomicBool; 2]> =
                Arc::new([AtomicBool::new(false), AtomicBool::new(false)]);
            let handles: Vec<_> = (0..2usize)
                .map(|t| {
                    let pool = Arc::clone(&pool);
                    let started = Arc::clone(&started);
                    let sizes = sizes.to_vec();
                    std::thread::spawn(move || -> Result<(), String> {
                        // Rendezvous region: iteration 0 (its own chunk at
                        // this size) spins until the other submitter's
                        // region has started, proving both were in flight
                        // at once. Bounded so a regression fails loudly
                        // instead of hanging the suite.
                        let deadline = Instant::now() + Duration::from_secs(30);
                        pool.for_range(0, 7, &|i| {
                            if i == 0 {
                                started[t].store(true, Ordering::SeqCst);
                                while !started[1 - t].load(Ordering::SeqCst) {
                                    assert!(
                                        Instant::now() < deadline,
                                        "overlap rendezvous timed out"
                                    );
                                    std::thread::yield_now();
                                }
                            }
                        });
                        run_sizes(&*pool, &sizes, &format!("submitter {t}"))
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("submitter thread must not panic")?;
            }
            let live = pool.stats().max_live_regions;
            if live < 2 {
                return Err(format!(
                    "rendezvous regions completed but max_live_regions is {live}"
                ));
            }
            Ok(())
        },
    );
}

/// Seeded nested-spawn shapes: outer regions whose bodies call the same
/// pool again. Every (outer, inner) pair runs exactly once, and every
/// non-empty inner call is accounted as an *inline* region — reentry
/// publishes nothing, so only one region is ever live.
#[test]
fn reentrant_spawn_runs_inline_under_check() {
    check(
        0x57e55_7,
        4,
        |rng| rng.vec_of(3, 12, |rng| (rng.int(2, 10), rng.int(0, 8))),
        |shapes| shrink_vec(shapes, 1),
        |shapes| {
            let pool = ThreadPool::new(3);
            for (r, &(outer, inner)) in shapes.iter().enumerate() {
                let hits: Vec<AtomicU32> = (0..outer * inner.max(1))
                    .map(|_| AtomicU32::new(0))
                    .collect();
                pool.for_range(0, outer - 1, &|o| {
                    pool.for_range(0, inner - 1, &|i| {
                        hits[(o * inner + i) as usize].fetch_add(1, Ordering::Relaxed);
                    });
                });
                if inner > 0 {
                    for (k, h) in hits.iter().enumerate() {
                        let n = h.load(Ordering::Relaxed);
                        if n != 1 {
                            return Err(format!(
                                "shape {r} ({outer}×{inner}): pair {k} ran {n} times"
                            ));
                        }
                    }
                }
            }
            // Schedule-independent: one inline region per outer iteration
            // whose inner range is non-empty (empty ones are not counted).
            let want: u64 = shapes
                .iter()
                .filter(|&&(_, inner)| inner >= 1)
                .map(|&(outer, _)| outer as u64)
                .sum();
            let s = pool.stats();
            if s.inline_regions != want {
                return Err(format!(
                    "inline_regions {} != non-empty inner calls {want}",
                    s.inline_regions
                ));
            }
            if s.max_live_regions != 1 {
                return Err(format!(
                    "max_live_regions {} with one submitter",
                    s.max_live_regions
                ));
            }
            Ok(())
        },
    );
}

/// Steal-heavy skew: occasional huge regions amid swarms of tiny ones,
/// raced by two submitters sharing a 4-thread pool. Huge regions are
/// where thieves concentrate; exactly-once and the items accounting must
/// be indifferent to who claimed each chunk (the steal *count* itself is
/// schedule-dependent and deliberately not asserted).
#[test]
fn steal_heavy_skewed_mix_exactly_once() {
    check(
        0x57e55_8,
        4,
        |rng| {
            rng.vec_of(6, 20, |rng| {
                if rng.index(4) == 0 {
                    rng.int(1500, 6000)
                } else {
                    rng.int(0, 8)
                }
            })
        },
        |sizes| shrink_vec(sizes, 1),
        |sizes| {
            let pool = Arc::new(ThreadPool::new(4));
            let handles: Vec<_> = (0..2usize)
                .map(|t| {
                    let pool = Arc::clone(&pool);
                    let sizes = sizes.to_vec();
                    std::thread::spawn(move || run_sizes(&*pool, &sizes, &format!("skew {t}")))
                })
                .collect();
            for h in handles {
                h.join().expect("skew thread must not panic")?;
            }
            let want_items: u64 = 2 * sizes.iter().map(|&s| s as u64).sum::<u64>();
            let s = pool.stats();
            if s.items != want_items {
                return Err(format!("items {} != requested {want_items}", s.items));
            }
            Ok(())
        },
    );
}
