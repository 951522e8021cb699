//! Execution counters for the pool (cheap relaxed atomics).

use std::sync::atomic::{AtomicU64, Ordering};

/// Internal counters shared by all workers.
#[derive(Default)]
pub struct PoolStats {
    regions: AtomicU64,
    chunks: AtomicU64,
    items: AtomicU64,
    inline_regions: AtomicU64,
    steals: AtomicU64,
    max_live_regions: AtomicU64,
    cancelled_chunks: AtomicU64,
}

impl PoolStats {
    pub(crate) fn record_region(&self, items: u64) {
        self.regions.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(items, Ordering::Relaxed);
    }

    /// A chunk claimed off a region's cursor; `stolen` when the claimer
    /// is an idle worker rather than the region's submitter.
    pub(crate) fn record_chunk(&self, stolen: bool) {
        self.chunks.fetch_add(1, Ordering::Relaxed);
        if stolen {
            self.steals.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A region executed inline (too small, called from inside a chunk,
    /// lane budget exhausted, or a 1-thread pool) instead of being
    /// published.
    pub(crate) fn record_inline(&self) {
        self.inline_regions.fetch_add(1, Ordering::Relaxed);
    }

    /// High-water mark of simultaneously live regions, observed at
    /// publish time.
    pub(crate) fn record_live(&self, live_now: u64) {
        self.max_live_regions.fetch_max(live_now, Ordering::Relaxed);
    }

    /// `n` chunks skipped because a region's cancel token fired before
    /// they were claimed.
    pub(crate) fn record_cancelled(&self, n: u64) {
        self.cancelled_chunks.fetch_add(n, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> PoolStatsSnapshot {
        PoolStatsSnapshot {
            regions: self.regions.load(Ordering::Relaxed),
            chunks: self.chunks.load(Ordering::Relaxed),
            items: self.items.load(Ordering::Relaxed),
            inline_regions: self.inline_regions.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            max_live_regions: self.max_live_regions.load(Ordering::Relaxed),
            cancelled_chunks: self.cancelled_chunks.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of the pool counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolStatsSnapshot {
    /// `for_range` invocations.
    pub regions: u64,
    /// Chunks claimed by participants (published regions only).
    pub chunks: u64,
    /// Total loop iterations requested.
    pub items: u64,
    /// Regions short-circuited to inline execution (a subset of
    /// `regions`): single-iteration ranges, reentrant calls from inside a
    /// running chunk (on any pool), submitters past the lane budget, and
    /// everything on a 1-thread pool.
    pub inline_regions: u64,
    /// Chunks drained by an idle worker rather than the region's own
    /// submitter (a subset of `chunks`). Inherently schedule-dependent.
    pub steals: u64,
    /// High-water mark of regions live at once (counted at publish;
    /// ≥ 2 proves concurrent submitters genuinely overlapped). Inherently
    /// schedule-dependent.
    pub max_live_regions: u64,
    /// Chunks skipped because a region's cancel token fired before they
    /// were claimed (whole pre-cancelled regions count once). Nonzero
    /// proves a timed-out solve genuinely stopped early instead of
    /// running to completion.
    pub cancelled_chunks: u64,
}

impl std::fmt::Display for PoolStatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} regions ({} inline), {} chunks ({} stolen), {} items, {} cancelled",
            self.regions,
            self.inline_regions,
            self.chunks,
            self.steals,
            self.items,
            self.cancelled_chunks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_counters() {
        let s = PoolStats::default();
        s.record_region(10);
        s.record_chunk(false);
        s.record_chunk(true);
        s.record_inline();
        let snap = s.snapshot();
        assert_eq!(snap.regions, 1);
        assert_eq!(snap.chunks, 2);
        assert_eq!(snap.items, 10);
        assert_eq!(snap.inline_regions, 1);
        assert_eq!(snap.steals, 1);
        assert_eq!(
            format!("{snap}"),
            "1 regions (1 inline), 2 chunks (1 stolen), 10 items, 0 cancelled"
        );
    }
}
