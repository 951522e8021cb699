//! The restructuring transformation of Section 4: Lamport's hyperplane
//! method applied to recursively defined PS arrays.
//!
//! Given a recursive component (an array `A` and its defining recurrence),
//! the transform:
//!
//! 1. extracts the **dependence vectors** `d` from the recursive array
//!    references (`A[K,I,J]` reading `A[K,I-1,J]` gives `d = (0,1,0)`),
//! 2. solves for the least nonnegative integer **time vector** `π` with
//!    `π·d ≥ 1` for every dependence (for the revised relaxation:
//!    `π = (2,1,1)`, i.e. `t = 2K + I + J`),
//! 3. completes `π` to a **unimodular matrix** `T` (preferring unit-vector
//!    rows, which reproduces the paper's `K' = 2K+I+J, I' = K, J' = I`),
//! 4. rewrites the recurrence over a new array `A'` in transformed
//!    coordinates — every reference `A[s]` becomes `A'[T·s]`, turning all
//!    recursive offsets into *backward offsets in the time dimension only*,
//!    so the scheduler emits `DO K' (DOALL I' (DOALL J'))`,
//! 5. computes the **window** (`1 + max π·d`, 3 for the example) and
//!    rewrites the result-gather equation through `T`; in
//!    [`StorageMode::Windowed`] the gather becomes the *drain*, run inside
//!    the wavefront loop on each plane's diagonal (the paper's preferred
//!    "rotate / unrotate" implementation choice).

#![forbid(unsafe_code)]

pub mod depvec;
pub mod imat;
pub mod solve;
pub mod transform;

pub use depvec::{extract_dependences, DependenceInfo};
pub use imat::IMat;
pub use solve::solve_time_vector;
pub use transform::{
    find_recursive_target, hyperplane_transform, schedule_transformed, HyperplaneError,
    HyperplaneResult, StorageMode,
};
