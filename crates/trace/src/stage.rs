//! Per-stage duration histograms over the request lifecycle.
//!
//! A [`StageSet`] bundles one lock-free [`Histogram`] per pipeline stage
//! (queue wait, compile, specialize, solve, reply). The service owns one
//! per instance and threads it down to the registry (compile) and runtime
//! artifact (specialize); the TCP front-end records reply time into the
//! same set, so one snapshot covers the whole lifecycle.

use crate::hist::{Histogram, HistogramSnapshot};
use std::time::Duration;

/// A request-lifecycle stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Submit → dequeue by a worker.
    QueueWait = 0,
    /// Source → owned `Program`, built on a registry miss (the registry's
    /// compile-once cache; a lost compile race still records its build).
    Compile = 1,
    /// Parameter-layout specialization build (spec-cache miss; a lost
    /// build race records nothing).
    Specialize = 2,
    /// Worker solve (session run, including executor time).
    Solve = 3,
    /// Reply serialization + socket write in the front-end.
    Reply = 4,
}

impl Stage {
    pub const COUNT: usize = 5;

    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::QueueWait,
        Stage::Compile,
        Stage::Specialize,
        Stage::Solve,
        Stage::Reply,
    ];

    /// Stable short name (used in the wire `stats` reply and the CLI).
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Compile => "compile",
            Stage::Specialize => "specialize",
            Stage::Solve => "solve",
            Stage::Reply => "reply",
        }
    }
}

/// One histogram per [`Stage`], recorded lock-free from any thread.
#[derive(Debug, Default)]
pub struct StageSet {
    hists: [Histogram; Stage::COUNT],
}

impl StageSet {
    pub const fn new() -> StageSet {
        StageSet {
            hists: [const { Histogram::new() }; Stage::COUNT],
        }
    }

    #[inline]
    pub fn record(&self, stage: Stage, d: Duration) {
        self.hists[stage as usize].record(d);
    }

    #[inline]
    pub fn record_ns(&self, stage: Stage, ns: u64) {
        self.hists[stage as usize].record_ns(ns);
    }

    pub fn get(&self, stage: Stage) -> &Histogram {
        &self.hists[stage as usize]
    }

    pub fn snapshot(&self) -> StageSnapshot {
        StageSnapshot {
            stages: Stage::ALL.map(|s| self.hists[s as usize].snapshot()),
        }
    }
}

/// Frozen per-stage histograms, indexable by [`Stage`].
#[derive(Clone, Copy, Debug, Default)]
pub struct StageSnapshot {
    stages: [HistogramSnapshot; Stage::COUNT],
}

impl StageSnapshot {
    pub fn get(&self, stage: Stage) -> &HistogramSnapshot {
        &self.stages[stage as usize]
    }

    /// `name:count:p50_us:p99_us` per stage, comma-joined — the compact
    /// wire form carried by the ps-serve `stats` reply.
    pub fn wire_form(&self) -> String {
        Stage::ALL
            .iter()
            .map(|&s| {
                let h = self.get(s);
                format!(
                    "{}:{}:{}:{}",
                    s.name(),
                    h.count,
                    h.quantile_ns(0.5) / 1_000,
                    h.quantile_ns(0.99) / 1_000
                )
            })
            .collect::<Vec<_>>()
            .join(",")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_record_independently() {
        let set = StageSet::new();
        set.record(Stage::Solve, Duration::from_micros(5));
        set.record(Stage::Solve, Duration::from_micros(5));
        set.record(Stage::QueueWait, Duration::from_micros(1));
        let snap = set.snapshot();
        assert_eq!(snap.get(Stage::Solve).count, 2);
        assert_eq!(snap.get(Stage::QueueWait).count, 1);
        assert_eq!(snap.get(Stage::Compile).count, 0);
        let wire = snap.wire_form();
        assert!(wire.contains("solve:2:"), "wire = {wire}");
        assert!(wire.starts_with("queue_wait:1:"), "wire = {wire}");
    }
}
