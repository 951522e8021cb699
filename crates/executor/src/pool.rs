//! The worker pool and the sequential executor.
//!
//! ## Work-stealing multi-region design
//!
//! The pool admits **many concurrent in-flight regions**, one per
//! submitting thread. Every region is published on a *lane* — a single
//! publication slot — and drained cooperatively by its submitter plus any
//! idle workers:
//!
//! * **Lanes.** A bounded set of `(2n).max(8)` lanes serves submitting
//!   threads: a thread claims one with a single CAS for the duration of a
//!   region and releases it on retire. Submitters beyond the budget run
//!   their region inline (correct, just serial).
//! * **Publish** (lane owner): store the region pointer, then a globally
//!   unique odd *epoch* into the lane, bump the pool version and wake
//!   sleepers only if any worker actually parked. No mutex is taken on the
//!   fast path, and concurrent submitters never serialize — each publishes
//!   on its own lane.
//! * **Steal** (idle workers): scan every lane for a nonzero epoch,
//!   *announce* that epoch in a padded per-worker cell, re-check the lane
//!   still carries it (a seqcst store-load handshake), and only then drain
//!   the region. Epochs are never reused, so the re-check can never
//!   confuse two publications on the same lane (no ABA).
//! * **Drain** (chunk-granularity stealing): all participants claim
//!   `[next, next+chunk)` slices off the region's atomic cursor, so uneven
//!   wavefront rows rebalance across workers at chunk granularity.
//!   Completion stays *item-counted*: whoever retires the last iteration
//!   signals the region's one-shot [`CountLatch`]. A worker that never
//!   wakes for a short region cannot delay it.
//! * **Reentry runs inline.** A thread running a chunk of a published
//!   region publishes nothing: a `for_range`/`for_chunks` it makes — on
//!   this pool or any other — runs on that thread, inside the chunk. The
//!   paper's machine runs one `DOALL` at a time as one parallel loop, and
//!   the runtime never nests regions, so workers only ever steal.
//! * **Retire** (lane owner, after the latch): clear the lane's epoch,
//!   then wait until no worker still *announces* the retired epoch. The
//!   announce/re-check handshake guarantees the scan cannot return while
//!   any worker can still touch the stack-held `Region`, so the region —
//!   and the user closure it borrows — may live on the submitter's stack
//!   with zero per-region allocations.
//!
//! Progress does not depend on workers at all: every submitter drains its
//! own region's cursor to exhaustion before waiting on the latch, so a
//! fully busy (or 0-worker) pool still completes every region.
//!
//! `ThreadPool::new(1)` spawns no workers and short-circuits every region
//! to inline execution — same behaviour as [`Sequential`], plus counters.

#![deny(unsafe_op_in_unsafe_fn)]

use crate::cancel::{CancelToken, Cancelled};
use crate::latch::CountLatch;
use crate::stats::{PoolStats, PoolStatsSnapshot};
use crate::Executor;
use ps_trace::{EvKind, Phase};
use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Executes ranges inline on the calling thread.
pub struct Sequential;

impl Executor for Sequential {
    fn threads(&self) -> usize {
        1
    }

    fn for_chunks(&self, lo: i64, hi: i64, f: &(dyn Fn(i64, i64) + Sync)) {
        crate::cancel::check_current();
        if hi >= lo {
            f(lo, hi + 1);
        }
    }
}

/// Shared state of one `for_range` region.
///
/// Lives on the submitting thread's stack: the retire scan in
/// [`ThreadPool::for_chunks`] guarantees no worker dereferences the
/// published pointer after the submitter returns.
struct Region {
    /// Next index to hand out.
    next: AtomicI64,
    /// One past the last index.
    end: i64,
    /// Total number of iterations (`end - lo`).
    total: i64,
    /// Chunk width.
    chunk: i64,
    /// The region's unique publication epoch — also its trace span id, so
    /// chunk/steal/cancel events correlate with the publish span.
    epoch: u64,
    /// Iterations retired (executed, or skipped after a panic). The region
    /// completes when this reaches `total`.
    completed: AtomicI64,
    /// The user chunk closure `f(start, stop)`. Lifetime-erased: the caller
    /// of `for_range`/`for_chunks` blocks on `latch` (and then the retire
    /// scan) before returning, so the borrow outlives all uses.
    func: *const (dyn Fn(i64, i64) + Sync),
    /// One-shot completion latch, signalled by whichever participant
    /// retires the final iteration.
    latch: CountLatch,
    /// Set when any invocation panicked.
    panicked: AtomicBool,
    /// Cancel token captured from the submitter's [`CancelToken::enter`]
    /// scope, checked at every chunk boundary by all participants.
    cancel: Option<CancelToken>,
    /// Set when the region stopped because `cancel` fired (distinct from
    /// `panicked`: the submitter re-raises [`Cancelled`], not a pool
    /// panic, and the pool is not considered poisoned).
    cancelled: AtomicBool,
}

// SAFETY: `func` points to a `Sync` closure that outlives the region (the
// submitting thread waits on `latch` and then the retire scan before
// returning); all other fields are atomics or immutable.
unsafe impl Sync for Region {}

impl Region {
    /// Drain chunks until the cursor passes `end`. Returns the number of
    /// iterations this participant retired (0 = the visit was
    /// unproductive: every chunk was already claimed).
    fn drain(&self, stats: &PoolStats, stolen: bool) -> i64 {
        // SAFETY: see the `Sync` justification above; the announce
        // handshake (thieves) or ownership (submitter) keeps the borrow
        // alive for the whole drain.
        let f = unsafe { &*self.func };
        // Participants (the submitter, and thieves) install the region's
        // token so a reentrant call from inside its chunks observes
        // cancellation too.
        let _scope = self.cancel.as_ref().map(|t| t.enter());
        let mut done = 0i64;
        loop {
            // Chunk-boundary cancellation: stop claiming.
            if self.cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
                self.skip_rest(stats, 0, true);
                return done;
            }
            let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.end {
                return done;
            }
            let stop = (start + self.chunk).min(self.end);
            stats.record_chunk(stolen);
            let chunk_t0 = if ps_trace::enabled() {
                ps_trace::now_ns()
            } else {
                0
            };
            // The flag is clear here (a chunk never drains), and
            // `catch_unwind` lets it be cleared again on every exit.
            IN_CHUNK.set(true);
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                f(start, stop);
            }));
            IN_CHUNK.set(false);
            if chunk_t0 != 0 {
                ps_trace::emit(
                    EvKind::Chunk,
                    Phase::Complete,
                    self.epoch,
                    ps_trace::now_ns().saturating_sub(chunk_t0),
                    start as u64,
                );
            }
            if let Err(payload) = result {
                // A `Cancelled` unwind (a reentrant call observed the
                // token) stops the range like a panic but is reported as
                // cancellation, not poisoning.
                self.skip_rest(stats, stop - start, payload.is::<Cancelled>());
                return done + (stop - start);
            }
            self.retire(stop - start);
            done += stop - start;
        }
    }

    /// Stop the region after a cancellation or a panic: flag which, claim
    /// whatever is still unclaimed and retire it as skipped — together
    /// with the `held` iterations of the caller's own failed chunk — so the
    /// latch still completes. Concurrently claimed chunks are retired by
    /// their claimers; anything past `end` was never real work.
    fn skip_rest(&self, stats: &PoolStats, held: i64, cancelled: bool) {
        if cancelled {
            self.cancelled.store(true, Ordering::Release);
        } else {
            self.panicked.store(true, Ordering::Release);
        }
        let unclaimed = self.next.swap(self.end, Ordering::Relaxed);
        let skipped = (self.end - unclaimed).max(0);
        if cancelled && skipped > 0 {
            stats.record_cancelled(((skipped + self.chunk - 1) / self.chunk) as u64);
            ps_trace::emit(
                EvKind::Cancel,
                Phase::Instant,
                self.epoch,
                self.epoch,
                skipped as u64,
            );
        }
        self.retire(held + skipped);
    }

    /// Account `n` finished iterations; the last one signals the latch.
    ///
    /// `AcqRel` chains the retiring participants together so the final
    /// retirer (and, through the latch, the submitter) observes every
    /// write the user closure made.
    fn retire(&self, n: i64) {
        if n == 0 {
            return;
        }
        if self.completed.fetch_add(n, Ordering::AcqRel) + n == self.total {
            self.latch.count_down();
        }
    }
}

/// Worker announce cell, padded to its own cache line so the retire scan
/// and the announce stores do not false-share.
#[repr(align(128))]
struct AnnounceCell(AtomicU64);

/// Announce value meaning "not draining any stolen region".
const IDLE: u64 = 0;

/// One publication lane: a single slot holding the live region of the
/// one submitter that claimed it. Padded so thieves scanning one lane do
/// not false-share with owners publishing on a neighbour.
#[repr(align(128))]
struct Lane {
    /// 0 = empty; otherwise the unique odd epoch of the published region.
    /// Epochs come from a pool-wide counter and are never reused, so a
    /// thief's announce/re-check can never confuse two publications.
    epoch: AtomicU64,
    /// Pointer to the live region while `epoch` is nonzero. Stored
    /// *before* the epoch on publish; a thief therefore validates the
    /// (epoch, pointer) pair by re-checking the epoch after reading both.
    region: AtomicPtr<Region>,
    /// Held by one submitting thread for the duration of its region.
    claimed: AtomicBool,
}

/// A claimed lane, released on drop — after the retire scan, or on unwind.
struct LaneClaim<'a>(&'a Lane);

impl Drop for LaneClaim<'_> {
    fn drop(&mut self) {
        self.0.claimed.store(false, Ordering::Release);
    }
}

struct Shared {
    lanes: Box<[Lane]>,
    /// One announce cell per worker (thieves only; submitters never steal).
    announces: Box<[AnnounceCell]>,
    /// Epoch allocator: starts at 1, steps by 2 — every publish gets a
    /// fresh odd epoch, pool-wide.
    epoch_gen: AtomicU64,
    /// Bumped on every publish; idle workers spin on it and park when it
    /// stops moving.
    version: AtomicU64,
    /// Regions currently published (a gauge feeding the
    /// `max_live_regions` high-water stat).
    live: AtomicU64,
    /// Workers currently parked (or about to park) on `cond`.
    sleepers: AtomicU64,
    /// Sleep/wake plumbing; the mutex protects no data, only the condvar
    /// protocol (workers re-check `version` under it before waiting).
    mutex: Mutex<()>,
    cond: Condvar,
    shutdown: AtomicBool,
    stats: PoolStats,
}

thread_local! {
    /// This thread is running a chunk of a published region (of any
    /// pool), so a `for_chunks` it makes runs inline.
    static IN_CHUNK: Cell<bool> = const { Cell::new(false) };
}

/// A fixed-size pool of persistent worker threads with per-lane region
/// publication and chunk-granularity work stealing.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    n_threads: usize,
}

/// Spin iterations on the version counter before yielding, and yields
/// before parking on the condvar. Short regions complete in well under the
/// spin window, so a busy pool rarely touches the futex at all.
const SPINS: usize = 128;
const YIELDS: usize = 32;

/// Scan every lane for a region with unclaimed chunks and drain the first
/// one found. Returns `true` if any iterations were executed.
///
/// Scan order: lanes rotated by the worker index, spreading thieves over
/// concurrent submitters.
fn try_steal(shared: &Shared, me: usize) -> bool {
    let n = shared.lanes.len();
    let announce = &shared.announces[me].0;
    for k in 0..n {
        let lane = &shared.lanes[(me + k) % n];
        let e = lane.epoch.load(Ordering::SeqCst);
        if e == 0 {
            continue;
        }
        // Validate the (epoch, pointer) pair: read both, announce the
        // epoch, then re-check the lane still carries it. The seqcst
        // announce/re-check pair means the owner's retire scan either
        // sees our announce and waits for us, or already cleared the
        // epoch — in which case the re-check fails and we never touch
        // the pointer. Unique epochs rule out ABA across republishes.
        let ptr = lane.region.load(Ordering::SeqCst);
        announce.store(e, Ordering::SeqCst);
        let mut done = 0i64;
        if lane.epoch.load(Ordering::SeqCst) == e && !ptr.is_null() {
            // SAFETY: the announce/re-check handshake above plus the
            // owner's retire scan keep the region alive while we
            // drain it.
            let region = unsafe { &*ptr };
            done = region.drain(&shared.stats, true);
        }
        announce.store(IDLE, Ordering::SeqCst);
        if done > 0 {
            ps_trace::emit(EvKind::Steal, Phase::Instant, e, e, done as u64);
            return true;
        }
    }
    false
}

fn worker_loop(shared: &Shared, me: usize) {
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Snapshot the version *before* scanning: a publish that lands
        // mid-scan moves it, so the idle path below rescans instead of
        // sleeping through it.
        let v = shared.version.load(Ordering::SeqCst);
        if try_steal(shared, me) {
            continue;
        }
        // Nothing productive at version v: spin, then yield, then park
        // until a new region is published.
        let mut moved = false;
        for spin in 0..(SPINS + YIELDS) {
            if spin < SPINS {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
            if shared.version.load(Ordering::SeqCst) != v || shared.shutdown.load(Ordering::Acquire)
            {
                moved = true;
                break;
            }
        }
        if moved {
            continue;
        }
        shared.sleepers.fetch_add(1, Ordering::SeqCst);
        {
            let mut guard = shared.mutex.lock().unwrap_or_else(|e| e.into_inner());
            while shared.version.load(Ordering::SeqCst) == v
                && !shared.shutdown.load(Ordering::Acquire)
            {
                guard = shared.cond.wait(guard).unwrap_or_else(|e| e.into_inner());
            }
        }
        shared.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

impl ThreadPool {
    /// Create a pool wrapped in an [`Arc`] — the shape long-lived services
    /// want: every service worker thread holds a clone of the handle next
    /// to its shared `&Program`, and the `Executor for Arc<E>` impl makes
    /// the handle itself an executor. One pool serves all workers, and
    /// concurrent submitters genuinely overlap: each publishes regions on
    /// its own lane while idle workers steal chunks from all of them.
    pub fn shared(n: usize) -> Arc<ThreadPool> {
        Arc::new(ThreadPool::new(n))
    }

    /// Create a pool with `n` worker threads (minimum 1). The calling
    /// thread also participates in every region, so the effective
    /// parallelism of `for_range` is `n - 1` (workers) + 1 (caller),
    /// capped by the chunk count. `n = 1` spawns no workers at all and
    /// runs every region inline.
    pub fn new(n: usize) -> ThreadPool {
        let n = n.max(1);
        // The caller participates, so spawn n-1 workers for n-way
        // parallelism.
        let n_workers = n - 1;
        // Lanes bound how many threads can have live regions at once;
        // extra submitters fall back to inline execution.
        let n_lanes = (2 * n).max(8);
        let shared = Arc::new(Shared {
            lanes: (0..n_lanes)
                .map(|_| Lane {
                    epoch: AtomicU64::new(0),
                    region: AtomicPtr::new(std::ptr::null_mut()),
                    claimed: AtomicBool::new(false),
                })
                .collect(),
            announces: (0..n_workers)
                .map(|_| AnnounceCell(AtomicU64::new(IDLE)))
                .collect(),
            epoch_gen: AtomicU64::new(1),
            version: AtomicU64::new(0),
            live: AtomicU64::new(0),
            sleepers: AtomicU64::new(0),
            mutex: Mutex::new(()),
            cond: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stats: PoolStats::default(),
        });
        let handles = (0..n_workers)
            .map(|w| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("ps-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn worker")
            })
            .collect();
        ThreadPool {
            shared,
            handles,
            n_threads: n,
        }
    }

    /// A pool sized to the machine (`available_parallelism`).
    pub fn with_default_size() -> ThreadPool {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ThreadPool::new(n)
    }

    /// Cumulative execution statistics.
    pub fn stats(&self) -> PoolStatsSnapshot {
        self.shared.stats.snapshot()
    }
}

impl Executor for ThreadPool {
    fn threads(&self) -> usize {
        self.n_threads
    }

    fn for_chunks(&self, lo: i64, hi: i64, f: &(dyn Fn(i64, i64) + Sync)) {
        if hi < lo {
            return;
        }
        let total = hi - lo + 1;
        let shared = &*self.shared;
        shared.stats.record_region(total as u64);

        // A token already fired before any work was claimed: shed the
        // whole region (this also covers the inline fallbacks below).
        let cancel = CancelToken::current();
        if cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
            shared.stats.record_cancelled(1);
            ps_trace::emit(EvKind::Cancel, Phase::Instant, 0, 0, total as u64);
            std::panic::panic_any(Cancelled);
        }

        // Run inline when parallelism cannot help, or when this thread is
        // inside a chunk already (reentry publishes nothing), or when every
        // lane is busy. A 1-thread pool takes this path for every region:
        // no latch, no lane traffic, no wakeups.
        let lane_idx = if self.handles.is_empty() || total < 2 || IN_CHUNK.get() {
            None
        } else {
            shared.lanes.iter().position(|lane| {
                lane.claimed
                    .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            })
        };
        let Some(lane_idx) = lane_idx else {
            shared.stats.record_inline();
            f(lo, hi + 1);
            return;
        };
        let lane = &shared.lanes[lane_idx];
        let claim = LaneClaim(lane);

        // Aim for several chunks per participant so imbalanced iterations
        // still spread out (and thieves have something to steal).
        let participants = self.n_threads as i64;
        let chunk = (total / (participants * 4)).max(1);
        let epoch = shared.epoch_gen.fetch_add(2, Ordering::Relaxed);
        debug_assert!(epoch % 2 == 1, "epochs are odd");

        let region = Region {
            next: AtomicI64::new(lo),
            end: hi + 1,
            total,
            chunk,
            epoch,
            completed: AtomicI64::new(0),
            // SAFETY: erased to 'static; the latch wait + retire scan
            // below keep the borrow live for every dereference.
            func: unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(i64, i64) + Sync),
                    *const (dyn Fn(i64, i64) + Sync),
                >(f as *const _)
            },
            latch: CountLatch::new(1),
            panicked: AtomicBool::new(false),
            cancel,
            cancelled: AtomicBool::new(false),
        };

        // Publish: pointer first, then the fresh odd epoch, then bump the
        // version and wake workers only if any are actually parked.
        ps_trace::emit(
            EvKind::Publish,
            Phase::Begin,
            epoch,
            total as u64,
            lane_idx as u64,
        );
        lane.region
            .store(&region as *const Region as *mut Region, Ordering::SeqCst);
        lane.epoch.store(epoch, Ordering::SeqCst);
        shared
            .stats
            .record_live(shared.live.fetch_add(1, Ordering::Relaxed) + 1);
        shared.version.fetch_add(1, Ordering::SeqCst);
        if shared.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = shared.mutex.lock().unwrap_or_else(|e| e.into_inner());
            shared.cond.notify_all();
        }

        // The caller works too, then waits for the last iteration.
        region.drain(&shared.stats, false);
        region.latch.wait();

        // Retire: clear the epoch (new thieves now fail the re-check),
        // then make sure no worker still announces the retired epoch (it
        // would be inside `drain`, typically for nanoseconds — the cursor
        // is already exhausted).
        lane.epoch.store(0, Ordering::SeqCst);
        lane.region.store(std::ptr::null_mut(), Ordering::Relaxed);
        shared.live.fetch_sub(1, Ordering::Relaxed);
        for cell in shared.announces.iter() {
            let mut tries = 0usize;
            while cell.0.load(Ordering::SeqCst) == epoch {
                tries += 1;
                if tries > SPINS {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
        ps_trace::emit(EvKind::Publish, Phase::End, epoch, 0, 0);
        drop(claim);

        if region.panicked.load(Ordering::Acquire) {
            panic!("a DOALL iteration panicked (see worker output above)");
        }
        // A genuine panic wins over cancellation: the region may have both
        // (a chunk crashed while the token fired), and the crash is the
        // information the caller must not lose.
        if region.cancelled.load(Ordering::Acquire) {
            std::panic::panic_any(Cancelled);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Move the version so every spinner re-checks the flag and exits.
        self.shared.version.fetch_add(1, Ordering::SeqCst);
        {
            let _guard = self.shared.mutex.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.cond.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        let count = AtomicUsize::new(0);
        pool.for_range(0, 99, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 100);
        // The inline short-circuit: no workers, no publication, all
        // regions counted as inline.
        assert!(pool.handles.is_empty());
        let s = pool.stats();
        assert_eq!(s.regions, 1);
        assert_eq!(s.inline_regions, 1);
        assert_eq!(s.chunks, 0, "inline execution claims no chunks");
    }

    #[test]
    fn drop_joins_workers() {
        let pool = ThreadPool::new(8);
        pool.for_range(0, 100, &|_| {});
        drop(pool); // must not hang
    }

    #[test]
    fn chunk_sizing_covers_uneven_ranges() {
        let pool = ThreadPool::new(3);
        for total in [1i64, 2, 3, 5, 7, 11, 97, 1000, 1001] {
            let count = AtomicUsize::new(0);
            pool.for_range(0, total - 1, &|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed) as i64, total);
        }
    }

    #[test]
    fn default_size_pool_works() {
        let pool = ThreadPool::with_default_size();
        assert!(pool.threads() >= 1);
        let count = AtomicUsize::new(0);
        pool.for_range(1, 64, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn concurrent_submitters_share_one_pool() {
        // Two threads submit regions to the same pool concurrently — each
        // on its own lane, with live regions overlapping — and every
        // iteration still runs exactly once.
        let pool = Arc::new(ThreadPool::new(3));
        let hits: Arc<Vec<AtomicUsize>> =
            Arc::new((0..2000).map(|_| AtomicUsize::new(0)).collect());
        let mut handles = Vec::new();
        for t in 0..2 {
            let pool = pool.clone();
            let hits = hits.clone();
            handles.push(std::thread::spawn(move || {
                let lo = t * 1000;
                for _ in 0..10 {
                    pool.for_range(lo, lo + 99, &|i| {
                        hits[i as usize].fetch_add(1, Ordering::Relaxed);
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for (i, h) in hits.iter().enumerate() {
            let n = h.load(Ordering::Relaxed);
            let expected = if i % 1000 < 100 { 10 } else { 0 };
            assert_eq!(n, expected, "index {i} ran {n} times");
        }
    }

    #[test]
    fn nested_spawn_runs_inline_on_its_chunks_thread() {
        // A for_range from inside a chunk publishes nothing: it runs on
        // the thread that runs the enclosing chunk, exactly once.
        let pool = ThreadPool::new(2);
        let count = AtomicUsize::new(0);
        let moved = AtomicUsize::new(0);
        pool.for_range(0, 3, &|_| {
            let outer = std::thread::current().id();
            pool.for_range(0, 63, &|_| {
                count.fetch_add(1, Ordering::Relaxed);
                if std::thread::current().id() != outer {
                    moved.fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 4 * 64);
        assert_eq!(moved.load(Ordering::Relaxed), 0, "inner ran off-thread");
        let s = pool.stats();
        assert_eq!(s.regions, 5, "outer + 4 inner");
        assert_eq!(s.inline_regions, 4, "every inner region ran inline");
        assert_eq!(s.chunks, 4, "only the outer region was chunked");
        assert_eq!(s.max_live_regions, 1);
    }

    #[test]
    fn deep_reentry_runs_inline_exactly_once() {
        let pool = ThreadPool::new(2);
        let count = AtomicUsize::new(0);
        fn recurse(pool: &ThreadPool, depth: usize, count: &AtomicUsize) {
            if depth == 0 {
                count.fetch_add(1, Ordering::Relaxed);
                return;
            }
            pool.for_range(0, 1, &|_| recurse(pool, depth - 1, count));
        }
        // Eleven levels of two iterations: the top level publishes, the
        // 2^11 - 2 calls below it run inline, and every leaf runs once.
        recurse(&pool, 11, &count);
        assert_eq!(count.load(Ordering::Relaxed), 1 << 11);
        let s = pool.stats();
        assert_eq!(s.regions, (1 << 11) - 1);
        assert_eq!(s.inline_regions, (1 << 11) - 2);
    }

    #[test]
    fn cross_pool_reentry_runs_inline() {
        // Reentry is per thread, not per pool: a chunk of `outer` calling
        // `inner` runs the inner range inline too.
        let outer = ThreadPool::new(2);
        let inner = ThreadPool::new(2);
        let count = AtomicUsize::new(0);
        outer.for_range(0, 3, &|_| {
            inner.for_range(0, 24, &|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 4 * 25);
        assert_eq!(inner.stats().regions, 4);
        assert_eq!(inner.stats().inline_regions, 4, "reentry inlines");
        assert_eq!(inner.stats().chunks, 0);
        assert_eq!(outer.stats().inline_regions, 0);
    }

    #[test]
    fn lane_slots_clear_after_retire() {
        let pool = ThreadPool::new(2);
        pool.for_range(0, 9, &|_| {});
        for lane in pool.shared.lanes.iter() {
            assert_eq!(lane.epoch.load(Ordering::SeqCst), 0, "slot retired");
            assert!(lane.region.load(Ordering::SeqCst).is_null());
            assert!(!lane.claimed.load(Ordering::SeqCst), "lane released");
        }
    }

    #[test]
    fn reentrant_call_after_cancel_unwinds_as_cancelled() {
        // A chunk fires the token, then calls back into the pool: the
        // inner call sheds with `Cancelled`, the chunk unwinds with it, and
        // the region reports cancellation — not a panic.
        let pool = ThreadPool::new(2);
        let token = CancelToken::new();
        let inner_ran = AtomicUsize::new(0);
        {
            let _scope = token.enter();
            let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.for_range(0, 99_999, &|i| {
                    if i == 0 {
                        token.cancel();
                        pool.for_range(0, 9, &|_| {
                            inner_ran.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }))
            .expect_err("cancellation must unwind to the submitter");
            assert!(
                payload.is::<Cancelled>(),
                "payload is Cancelled, not a panic"
            );
        }
        assert_eq!(inner_ran.load(Ordering::Relaxed), 0, "the inner call shed");
        assert!(pool.stats().cancelled_chunks > 0, "skipped chunks counted");
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        pool.for_range(0, 63, &|i| {
            hits[i as usize].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn panic_in_a_reentrant_call_reaches_the_submitter() {
        let pool = ThreadPool::new(2);
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.for_range(0, 99, &|i| {
                pool.for_range(0, 9, &|j| {
                    if i == 37 && j == 5 {
                        panic!("boom at {i}/{j}");
                    }
                });
            });
        }))
        .expect_err("the panic must reach the submitter");
        assert!(!payload.is::<Cancelled>(), "a panic, not a cancellation");
        // Not poisoned: the next region, reentry included, runs once.
        let count = AtomicUsize::new(0);
        pool.for_range(0, 9, &|_| {
            pool.for_range(0, 9, &|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn cancelled_token_stops_region_early_without_poisoning() {
        let pool = ThreadPool::new(2);
        let token = CancelToken::new();
        let count = AtomicUsize::new(0);
        {
            let _scope = token.enter();
            let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.for_range(0, 99_999, &|i| {
                    if i == 0 {
                        token.cancel();
                    }
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }))
            .expect_err("cancellation must unwind to the submitter");
            assert!(
                payload.is::<Cancelled>(),
                "payload is Cancelled, not a panic"
            );
        }
        let ran = count.load(Ordering::Relaxed);
        assert!(ran < 100_000, "cancellation skipped work (ran {ran})");
        assert!(pool.stats().cancelled_chunks > 0, "skipped chunks counted");
        // The pool is not poisoned: a fresh region runs normally.
        let again = AtomicUsize::new(0);
        pool.for_range(0, 9, &|_| {
            again.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(again.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn pre_cancelled_token_sheds_the_whole_region() {
        let pool = ThreadPool::new(2);
        let token = CancelToken::new();
        token.cancel();
        let _scope = token.enter();
        let count = AtomicUsize::new(0);
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.for_range(0, 999, &|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }))
        .expect_err("pre-cancelled region must not run");
        assert!(payload.is::<Cancelled>());
        assert_eq!(count.load(Ordering::Relaxed), 0, "no iteration executed");
        assert!(pool.stats().cancelled_chunks >= 1);
    }

    #[test]
    fn sequential_respects_current_token() {
        let token = CancelToken::new();
        token.cancel();
        let _scope = token.enter();
        let count = AtomicUsize::new(0);
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
            Sequential.for_range(0, 99, &|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }))
        .expect_err("sequential execution checks the token at entry");
        assert!(payload.is::<Cancelled>());
        assert_eq!(count.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn real_panic_wins_over_cancellation() {
        // When a chunk crashes and the token fires, the submitter must see
        // the panic (the bug), not the quieter Cancelled payload.
        let pool = ThreadPool::new(2);
        let token = CancelToken::new();
        let _scope = token.enter();
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.for_range(0, 9_999, &|i| {
                if i % 1000 == 7 {
                    token.cancel();
                    panic!("real bug at {i}");
                }
            });
        }))
        .expect_err("panic must propagate");
        assert!(!payload.is::<Cancelled>(), "panic outranks cancellation");
    }

    #[test]
    fn overlapping_regions_make_progress_together() {
        // Two submitters publish regions whose first iterations wait for
        // *each other* — impossible unless both regions are live at once.
        let pool = Arc::new(ThreadPool::new(2));
        let flags: Arc<[AtomicBool; 2]> =
            Arc::new([AtomicBool::new(false), AtomicBool::new(false)]);
        let mut handles = Vec::new();
        for t in 0..2usize {
            let pool = pool.clone();
            let flags = flags.clone();
            handles.push(std::thread::spawn(move || {
                pool.for_range(0, 3, &|i| {
                    flags[t].store(true, Ordering::SeqCst);
                    if i == 0 {
                        // Wait (bounded) until the other submitter's
                        // region has started too.
                        let deadline =
                            std::time::Instant::now() + std::time::Duration::from_secs(20);
                        while !flags[1 - t].load(Ordering::SeqCst) {
                            assert!(
                                std::time::Instant::now() < deadline,
                                "regions never overlapped"
                            );
                            std::thread::yield_now();
                        }
                    }
                });
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(flags[0].load(Ordering::SeqCst) && flags[1].load(Ordering::SeqCst));
        assert!(
            pool.stats().max_live_regions >= 2,
            "both regions were live at once"
        );
    }
}
