//! The fixed-size event model shared by every ring buffer.
//!
//! An event is five 64-bit words: a nanosecond timestamp (monotonic,
//! relative to the process trace epoch), a packed kind+phase word, a span
//! id, and two payload words whose meaning is per-kind (see the table on
//! [`EvKind`]). Thread identity is implied by the ring an event lives in.

/// What happened. Payload conventions (`a`/`b` are [`Event::a`] /
/// [`Event::b`]; "label" means an id from [`crate::label()`]):
///
/// | kind          | phase     | `a`                   | `b`              |
/// |---------------|-----------|-----------------------|------------------|
/// | `FrameRead`   | instant   | frame bytes           | connection id    |
/// | `Parse`       | complete  | duration ns           | connection id    |
/// | `Reply`       | complete  | duration ns           | request span     |
/// | `Enqueue`     | instant   | request span          | queue depth      |
/// | `Dequeue`     | instant   | request span          | queue depth      |
/// | `QueueWait`   | complete  | duration ns           | request span     |
/// | `Batch`       | instant   | batch size            | program label    |
/// | `RegistryHit` | instant   | key hash              | 0                |
/// | `RegistryMiss`| instant   | key hash              | 0                |
/// | `Compile`     | begin/end | key hash              | 0                |
/// | `SpecHit`     | instant   | spec-cache size       | 0                |
/// | `SpecBuild`   | complete  | duration ns           | spec-cache size  |
/// | `Solve`       | begin/end | program label         | batch index      |
/// | `Region`      | begin/end | equation label        | total items      |
/// | `Publish`     | begin/end | total items           | lane index       |
/// | `Chunk`       | complete  | duration ns           | chunk start idx  |
/// | `Steal`       | instant   | region epoch          | items drained    |
/// | `Cancel`      | instant   | region epoch          | items skipped    |
/// | `Fault`       | instant   | fault-point label     | 0                |
/// | `Panic`       | instant   | program label         | request span     |
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EvKind {
    FrameRead = 1,
    Parse = 2,
    Reply = 3,
    Enqueue = 4,
    Dequeue = 5,
    QueueWait = 6,
    Batch = 7,
    RegistryHit = 8,
    RegistryMiss = 9,
    Compile = 10,
    SpecHit = 11,
    SpecBuild = 12,
    Solve = 13,
    Region = 14,
    Publish = 15,
    Chunk = 16,
    Steal = 17,
    // 18 stays unassigned (a retired kind), so no other kind changes its
    // ring encoding.
    Cancel = 19,
    Fault = 20,
    Panic = 21,
}

impl EvKind {
    /// Stable lowercase name, used by the exporter and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            EvKind::FrameRead => "frame_read",
            EvKind::Parse => "parse",
            EvKind::Reply => "reply",
            EvKind::Enqueue => "enqueue",
            EvKind::Dequeue => "dequeue",
            EvKind::QueueWait => "queue_wait",
            EvKind::Batch => "batch",
            EvKind::RegistryHit => "registry_hit",
            EvKind::RegistryMiss => "registry_miss",
            EvKind::Compile => "compile",
            EvKind::SpecHit => "spec_hit",
            EvKind::SpecBuild => "spec_build",
            EvKind::Solve => "solve",
            EvKind::Region => "region",
            EvKind::Publish => "publish",
            EvKind::Chunk => "chunk",
            EvKind::Steal => "steal",
            EvKind::Cancel => "cancel",
            EvKind::Fault => "fault",
            EvKind::Panic => "panic",
        }
    }

    pub fn from_u8(v: u8) -> Option<EvKind> {
        Some(match v {
            1 => EvKind::FrameRead,
            2 => EvKind::Parse,
            3 => EvKind::Reply,
            4 => EvKind::Enqueue,
            5 => EvKind::Dequeue,
            6 => EvKind::QueueWait,
            7 => EvKind::Batch,
            8 => EvKind::RegistryHit,
            9 => EvKind::RegistryMiss,
            10 => EvKind::Compile,
            11 => EvKind::SpecHit,
            12 => EvKind::SpecBuild,
            13 => EvKind::Solve,
            14 => EvKind::Region,
            15 => EvKind::Publish,
            16 => EvKind::Chunk,
            17 => EvKind::Steal,
            19 => EvKind::Cancel,
            20 => EvKind::Fault,
            21 => EvKind::Panic,
            _ => return None,
        })
    }

    /// Whether payload `a` is a [`crate::label()`] id worth resolving for
    /// humans (exporter args, flight dumps, CLI summaries).
    pub fn a_is_label(self) -> bool {
        matches!(
            self,
            EvKind::Solve | EvKind::Region | EvKind::Fault | EvKind::Panic
        )
    }
}

/// How an event relates to time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// A span opens at this timestamp (matched by an `End` on the same
    /// thread; spans on one thread nest by time).
    Begin = 0,
    /// The innermost open span of this kind on this thread closes.
    End = 1,
    /// A point event.
    Instant = 2,
    /// A completed interval recorded after the fact: payload `a` holds the
    /// duration in nanoseconds and the timestamp marks the *end*.
    Complete = 3,
}

impl Phase {
    pub fn from_u8(v: u8) -> Option<Phase> {
        Some(match v {
            0 => Phase::Begin,
            1 => Phase::End,
            2 => Phase::Instant,
            3 => Phase::Complete,
            _ => return None,
        })
    }
}

/// A decoded event, as returned by ring snapshots.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Nanoseconds since the process trace epoch.
    pub ts: u64,
    pub kind: EvKind,
    pub phase: Phase,
    pub span: u64,
    pub a: u64,
    pub b: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [EvKind; 20] = [
        EvKind::FrameRead,
        EvKind::Parse,
        EvKind::Reply,
        EvKind::Enqueue,
        EvKind::Dequeue,
        EvKind::QueueWait,
        EvKind::Batch,
        EvKind::RegistryHit,
        EvKind::RegistryMiss,
        EvKind::Compile,
        EvKind::SpecHit,
        EvKind::SpecBuild,
        EvKind::Solve,
        EvKind::Region,
        EvKind::Publish,
        EvKind::Chunk,
        EvKind::Steal,
        EvKind::Cancel,
        EvKind::Fault,
        EvKind::Panic,
    ];

    #[test]
    fn every_kind_round_trips_its_ring_encoding() {
        for k in ALL {
            assert_eq!(EvKind::from_u8(k as u8), Some(k), "{}", k.name());
        }
        // Nothing else decodes: `ALL` is every kind, and 18 stays retired.
        let decoded = (0..=u8::MAX).filter_map(EvKind::from_u8).count();
        assert_eq!(decoded, ALL.len());
        assert_eq!(EvKind::from_u8(18), None);
    }
}
