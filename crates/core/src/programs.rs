//! Built-in PS programs: the paper's two Relaxation variants plus a small
//! library of example modules used by tests, examples, and benches.

/// Figure 1: point relaxation with all reads from the previous iteration
/// (Jacobi). Schedules to Figure 6: `DO K (DOALL I (DOALL J))`.
pub const RELAXATION_V1: &str = "
Relaxation: module (InitialA: array[I,J] of real;
                    M: int; maxK: int):
            [newA: array[I,J] of real];
type
    I, J = 0 .. M+1;
    K = 2 .. maxK;
var
    A: array [1 .. maxK] of array[I,J] of real;
define
    (*eq.1*) A[1] = InitialA;            (* the first grid is input *)
    (*eq.2*) newA = A[maxK];             (* the grid returned is from the last iteration *)
    (*eq.3*) A[K,I,J] = if (I = 0) or (J = 0) or (I = M+1) or (J = M+1)
                        then A[K-1,I,J]  (* carry over boundary points *)
                        else ( A[K-1,I,J-1]
                             + A[K-1,I-1,J]
                             + A[K-1,I,J+1]
                             + A[K-1,I+1,J] ) / 4;
end Relaxation;
";

/// Section 4's revised equation 3 (Gauss–Seidel): two reads from the
/// *current* iteration. Schedules to Figure 7: fully iterative
/// `DO K (DO I (DO J))` — until the hyperplane transform recovers
/// `DO K' (DOALL I' (DOALL J'))`.
pub const RELAXATION_V2: &str = "
Relaxation2: module (InitialA: array[I,J] of real;
                     M: int; maxK: int):
             [newA: array[I,J] of real];
type
    I, J = 0 .. M+1;
    K = 2 .. maxK;
var
    A: array [1 .. maxK] of array[I,J] of real;
define
    (*eq.1*) A[1] = InitialA;
    (*eq.2*) newA = A[maxK];
    (*eq.3*) A[K,I,J] = if (I = 0) or (J = 0) or (I = M+1) or (J = M+1)
                        then A[K-1,I,J]
                        else ( A[K,I,J-1]
                             + A[K,I-1,J]
                             + A[K-1,I,J+1]
                             + A[K-1,I+1,J] ) / 4;
end Relaxation2;
";

/// 1-D heat diffusion (explicit scheme): a Jacobi-style recurrence over a
/// rod, used by the heat example and the 1-D benches.
pub const HEAT_1D: &str = "
Heat: module (u0: array[X] of real; M: int; maxK: int; alpha: real):
      [uT: array[X] of real];
type
    X = 0 .. M+1;
    K = 2 .. maxK;
var
    u: array [1 .. maxK] of array[X] of real;
define
    u[1] = u0;
    uT = u[maxK];
    u[K,X] = if (X = 0) or (X = M+1)
             then u[K-1,X]
             else u[K-1,X] + alpha * (u[K-1,X-1] - 2.0 * u[K-1,X] + u[K-1,X+1]);
end Heat;
";

/// First-order linear recurrence (prefix product): inherently sequential in
/// its single dimension; window 2.
pub const RECURRENCE_1D: &str = "
Compound: module (rate: real; n: int): [final: real];
type
    K = 2 .. n;
var
    balance: array [1 .. n] of real;
define
    balance[1] = 1.0;
    balance[K] = balance[K-1] * (1.0 + rate);
    final = balance[n];
end Compound;
";

/// A chain of three pointwise stages: three 1-D `DOALL`s, one per equation.
pub const PIPELINE: &str = "
Pipeline: module (xs: array[I] of real; n: int): [out: array[I] of real];
type
    I, L, T = 1 .. n;
var
    scaled, shifted: array [1 .. n] of real;
define
    scaled[I] = xs[I] * 2.0;
    shifted[L] = scaled[L] + 1.0;
    out[T] = sqrt(abs(shifted[T]));
end Pipeline;
";

/// Smoothing with a dynamic (indirect) gather — exercises `other`-form
/// subscripts and dynamic reads.
pub const GATHER: &str = "
Gather: module (xs: array[I] of real; perm: array[I] of int; n: int):
        [out: array[I] of real];
type
    I = 1 .. n;
define
    out[I] = xs[perm[I]];
end Gather;
";

/// Wavefront over a 2-D table (longest-common-subsequence shape): both
/// spatial dimensions carry dependences, so the untransformed schedule is
/// fully iterative and the hyperplane transform finds `t = i + j`.
pub const TABLE_2D: &str = "
Table: module (n: int): [corner: real];
type
    I, J = 2 .. n;
var
    t: array [1 .. n, 1 .. n] of real;
define
    t[1] = 1.0;
    t[I, 1] = 1.0;
    t[I, J] = (t[I-1, J] + t[I, J-1]) / 2.0;
    corner = t[n, n];
end Table;
";

/// 1-D wave equation (second order in time): reads both `K-1` and `K-2`
/// planes, so the window analysis allocates three rod-length planes.
pub const WAVE_1D: &str = "
Wave: module (u0: array[X] of real; M: int; maxK: int; c2: real):
      [uT: array[X] of real];
type
    X = 0 .. M+1;
    K = 3 .. maxK;
var
    u: array [1 .. maxK] of array[X] of real;
define
    u[1] = u0;
    u[2] = u0;
    uT = u[maxK];
    u[K,X] = if (X = 0) or (X = M+1)
             then u[K-1,X]
             else 2.0 * u[K-1,X] - u[K-2,X]
                + c2 * (u[K-1,X-1] - 2.0 * u[K-1,X] + u[K-1,X+1]);
end Wave;
";

/// All built-in programs with names, for CLI listing and sweep tests.
pub const ALL: &[(&str, &str)] = &[
    ("relaxation_v1", RELAXATION_V1),
    ("relaxation_v2", RELAXATION_V2),
    ("heat_1d", HEAT_1D),
    ("recurrence_1d", RECURRENCE_1D),
    ("pipeline", PIPELINE),
    ("gather", GATHER),
    ("table_2d", TABLE_2D),
    ("wave_1d", WAVE_1D),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_programs_pass_the_frontend() {
        for (name, src) in ALL {
            ps_lang::frontend(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn table_2d_region_shape() {
        // t is defined by three equations: row 1, column 1, interior.
        let m = ps_lang::frontend(TABLE_2D).unwrap();
        let t = m.data_by_name("t").unwrap();
        assert_eq!(m.defs_of(t).len(), 3);
    }
}
