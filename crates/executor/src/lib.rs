//! MIMD surrogate: a from-scratch persistent worker pool with chunked,
//! dynamically scheduled `parallel_for`.
//!
//! The paper targets MIMD machines whose compilers consume annotated
//! `DOALL` loops. This crate is the executable stand-in: the runtime maps
//! each `DOALL` loop onto [`Executor::for_range`], which a [`ThreadPool`]
//! serves with worker threads grabbing chunks off a shared atomic counter
//! (self-scheduling, in the spirit of the era's *guided self-scheduling*
//! literature the paper cites).
//!
//! Built strictly from the standard library — a lock-free work-stealing
//! pool admits many concurrent in-flight regions: each submitter
//! publishes its region on its own *lane* (one epoch-validated slot),
//! idle workers steal chunks off every live region's atomic cursor, and
//! an item-counted mutex/condvar latch detects completion (see [`pool`]
//! for the full protocol) — following the construction patterns of *Rust
//! Atomics and Locks*. Concurrent submitters never serialize, and workers
//! publish nothing: a `DOALL` started from inside a running chunk runs
//! inline on that chunk's thread, as the paper's one-parallel-loop-at-a-
//! time machine would. The workspace carries zero external dependencies.

pub mod cancel;
pub mod latch;
pub mod pool;
pub mod stats;

pub use cancel::{CancelScope, CancelToken, Cancelled};
pub use pool::{Sequential, ThreadPool};
pub use stats::PoolStatsSnapshot;

/// Something that can run an index range, possibly concurrently.
///
/// The contract mirrors a `DOALL` loop: `f` is invoked exactly once for
/// every index in `lo..=hi`, in unspecified order, possibly from several
/// threads concurrently. `f` must therefore only perform disjoint writes —
/// which the scheduler guarantees for single-assignment equations.
pub trait Executor: Send + Sync {
    /// Number of worker threads (1 for sequential execution).
    fn threads(&self) -> usize;

    /// Run `f(i)` for every `i` in `lo..=hi` (empty when `hi < lo`): one
    /// [`Executor::for_chunks`] whose chunks walk their indices.
    fn for_range(&self, lo: i64, hi: i64, f: &(dyn Fn(i64) + Sync)) {
        self.for_chunks(lo, hi, &|start, stop| {
            for i in start..stop {
                f(i);
            }
        });
    }

    /// Run `f(start, stop)` over disjoint half-open chunks covering
    /// `lo..=hi`. Lets callers hoist per-iteration setup (index
    /// environments, buffers) out of the element loop.
    fn for_chunks(&self, lo: i64, hi: i64, f: &(dyn Fn(i64, i64) + Sync));
}

/// References delegate, so a shared executor can serve concurrent
/// compile-once / run-many callers without wrapper types.
impl<E: Executor + ?Sized> Executor for &E {
    fn threads(&self) -> usize {
        (**self).threads()
    }

    fn for_chunks(&self, lo: i64, hi: i64, f: &(dyn Fn(i64, i64) + Sync)) {
        (**self).for_chunks(lo, hi, f)
    }
}

/// `Arc`-owned executors delegate too: long-lived services hand each
/// worker thread an `Arc<ThreadPool>` (or `Arc<dyn Executor>`) next to a
/// shared `&Program`.
impl<E: Executor + ?Sized> Executor for std::sync::Arc<E> {
    fn threads(&self) -> usize {
        (**self).threads()
    }

    fn for_chunks(&self, lo: i64, hi: i64, f: &(dyn Fn(i64, i64) + Sync)) {
        (**self).for_chunks(lo, hi, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};

    fn check_covers_all(ex: &dyn Executor) {
        let n = 10_000i64;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        ex.for_range(0, n - 1, &|i| {
            hits[i as usize].fetch_add(1, Ordering::Relaxed);
        });
        assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
            "every index must run exactly once"
        );
    }

    #[test]
    fn sequential_covers_all() {
        check_covers_all(&Sequential);
    }

    #[test]
    fn pool_covers_all() {
        check_covers_all(&ThreadPool::new(4));
    }

    #[test]
    fn pool_matches_sequential_sum() {
        let pool = ThreadPool::new(3);
        let total = AtomicI64::new(0);
        pool.for_range(1, 1000, &|i| {
            total.fetch_add(i * i, Ordering::Relaxed);
        });
        let expected: i64 = (1..=1000).map(|i| i * i).sum();
        assert_eq!(total.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn empty_and_singleton_ranges() {
        let pool = ThreadPool::new(2);
        let count = AtomicUsize::new(0);
        pool.for_range(5, 4, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 0);
        pool.for_range(7, 7, &|i| {
            assert_eq!(i, 7);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn negative_bounds() {
        let pool = ThreadPool::new(2);
        let total = AtomicI64::new(0);
        pool.for_range(-10, 10, &|i| {
            total.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn nested_parallel_for_runs_parallel() {
        // A DOALL inside a DOALL must not deadlock: the outer loop is one
        // published region, and each inner loop runs inline on the thread
        // that runs its enclosing outer chunk.
        let pool = ThreadPool::new(4);
        let total = AtomicI64::new(0);
        let moved = AtomicUsize::new(0);
        pool.for_range(0, 9, &|_| {
            let outer = std::thread::current().id();
            pool.for_range(0, 9, &|j| {
                total.fetch_add(j, Ordering::Relaxed);
                if std::thread::current().id() != outer {
                    moved.fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 45 * 10);
        assert_eq!(moved.load(Ordering::Relaxed), 0, "inner ran off-thread");
        let s = pool.stats();
        assert_eq!((s.regions, s.inline_regions), (11, 10), "inner inline");
    }

    #[test]
    fn panic_propagates() {
        let pool = ThreadPool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.for_range(0, 100, &|i| {
                if i == 37 {
                    panic!("boom at {i}");
                }
            });
        }));
        assert!(result.is_err(), "worker panic must reach the caller");
        // The pool stays usable afterwards.
        let count = AtomicUsize::new(0);
        pool.for_range(0, 9, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn stats_accumulate() {
        let pool = ThreadPool::new(2);
        pool.for_range(0, 999, &|_| {});
        let s = pool.stats();
        assert_eq!(s.regions, 1);
        assert_eq!(s.items, 1000);
        assert!(s.chunks >= 1);
    }

    #[test]
    fn ref_and_arc_delegate() {
        let arc: std::sync::Arc<dyn Executor> = std::sync::Arc::new(ThreadPool::new(2));
        assert_eq!(arc.threads(), 2);
        let total = AtomicI64::new(0);
        arc.for_range(1, 100, &|i| {
            total.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 5050);
        // A reference is itself an executor (generic call sites).
        fn run_on<E: Executor>(e: E) -> usize {
            let hits = AtomicUsize::new(0);
            e.for_chunks(0, 9, &|start, stop| {
                hits.fetch_add((stop - start) as usize, Ordering::Relaxed);
            });
            hits.load(Ordering::Relaxed)
        }
        assert_eq!(run_on(&Sequential), 10);
        assert_eq!(run_on(&arc), 10);
    }

    #[test]
    fn many_small_regions() {
        let pool = ThreadPool::new(4);
        let total = AtomicI64::new(0);
        for _ in 0..500 {
            pool.for_range(0, 3, &|i| {
                total.fetch_add(i, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 6 * 500);
    }
}
