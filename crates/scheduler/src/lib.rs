//! The scheduling phase of the PS compiler (paper Section 3).
//!
//! Implements the two mutually recursive procedures of Section 3.3:
//!
//! * **Schedule-Graph** — decompose the (sub)graph into Maximally Strongly
//!   Connected Components and schedule each in topological order;
//! * **Schedule-Component** — pick an unscheduled dimension, verify it
//!   appears in a consistent position in every node of the component with
//!   only `I` / `I - constant` subscript forms, delete the `I - constant`
//!   edges, emit a loop descriptor (**DO** if edges were deleted, **DOALL**
//!   otherwise), and recurse.
//!
//! **Cost model.** Schedule-Component recurses once per loop level, and
//! each level decomposes only the component it is inside
//! (`ps_graph::SccScratch::components` over that component's nodes: work ∝
//! its nodes + their edges; a one-node subgraph skips the call). So
//! Schedule-Graph costs Σ over loop levels of the size of the component
//! scheduled at that level — linear in the program for a fixed nesting
//! depth (`chain16 … chain1024`: ≈ 0.4 µs and ≈ 9 allocations per equation
//! throughout). Edge deletion (step 4) is a bit in the scheduler's own
//! mask, `SchedState`: the [`ps_depgraph::DepGraph`] is borrowed, never
//! cloned or modified. Scheduled
//! dimensions, component membership and the matcher's assignment are dense
//! per-node tables that empty by bumping a stamp. The Figure-5 table is not
//! formatted while scheduling: [`ScheduleResult::components`] holds node
//! ids, and [`render::component_rows`] names them when asked.
//!
//! On top of the core algorithm this crate provides:
//!
//! * [`virtualdim`] — the Section 3.4 analysis marking dimensions *virtual*
//!   (allocated as a sliding window) and the resulting [`memory::MemoryPlan`],
//! * [`validate`] — a conservative checker that replays a flowchart and
//!   verifies every (affine) read happens after the corresponding write,
//! * [`render`] — the Figure 5/6/7 textual renderings.
//!
//! Loops are not merged (the paper lists that as future work): a merged
//! `DOALL` body runs on the scalar walker, so fusing `pipeline`'s three
//! loops made a `Sequential` run at n = 65 536 14× slower (3.9 ms against
//! 0.27 ms on a 2-vCPU Xeon).

#![forbid(unsafe_code)]

pub mod dims;
pub mod flowchart;
pub mod memory;
pub mod render;
pub mod schedule;
pub mod validate;
pub mod virtualdim;

pub use flowchart::{Descriptor, DrainSpec, Flowchart, LoopDescriptor, LoopKind};
pub use memory::{DimAlloc, MemoryPlan};
pub use render::ComponentInfo;
pub use schedule::{schedule_module, PickPolicy, ScheduleError, ScheduleOptions, ScheduleResult};
pub use validate::{validate_flowchart, ValidationError};

/// Shared test programs (the paper's two Relaxation variants).
#[cfg(test)]
pub(crate) mod testprogs {
    pub const RELAXATION_V1: &str = "
        Relaxation: module (InitialA: array[I,J] of real;
                            M: int; maxK: int):
                    [newA: array[I,J] of real];
        type I, J = 0 .. M+1; K = 2 .. maxK;
        var A: array [1 .. maxK] of array[I,J] of real;
        define
            A[1] = InitialA;
            newA = A[maxK];
            A[K,I,J] = if (I = 0) or (J = 0) or (I = M+1) or (J = M+1)
                       then A[K-1,I,J]
                       else ( A[K-1,I,J-1] + A[K-1,I-1,J]
                            + A[K-1,I,J+1] + A[K-1,I+1,J] ) / 4;
        end Relaxation;
    ";

    pub const RELAXATION_V2: &str = "
        Relaxation2: module (InitialA: array[I,J] of real;
                             M: int; maxK: int):
                    [newA: array[I,J] of real];
        type I, J = 0 .. M+1; K = 2 .. maxK;
        var A: array [1 .. maxK] of array[I,J] of real;
        define
            A[1] = InitialA;
            newA = A[maxK];
            A[K,I,J] = if (I = 0) or (J = 0) or (I = M+1) or (J = M+1)
                       then A[K-1,I,J]
                       else ( A[K,I,J-1] + A[K,I-1,J]
                            + A[K-1,I,J+1] + A[K-1,I+1,J] ) / 4;
        end Relaxation2;
    ";
}
