//! Ablation: the dimension pick policy changes loop nesting (declaration
//! order vs prefer-parallel), both producing valid schedules.

use ps_depgraph::build_depgraph;
use ps_lang::frontend;
use ps_scheduler::{schedule_module, validate_flowchart, PickPolicy, ScheduleOptions};
use ps_support::{FxHashMap, Symbol};

/// Recursive in I only; J is free. Declaration order schedules I first
/// (inner DOALL J); prefer-parallel hoists the DOALL J outside.
const COLUMN_RECURRENCE: &str = "
    T: module (n: int; init: array[J] of real): [y: real];
    type I = 2 .. n; J = 1 .. n;
    var a: array [1 .. n, 1 .. n] of real;
    define
        a[1] = init;
        a[I, J] = a[I-1, J] * 0.5;
        y = a[n, n];
    end T;
";

fn compact(
    src: &str,
    pick: PickPolicy,
) -> (ps_lang::HirModule, String, ps_scheduler::ScheduleResult) {
    let m = frontend(src).unwrap();
    let dg = build_depgraph(&m);
    let r = schedule_module(&m, &dg, ScheduleOptions { pick }).unwrap();
    let s = r.flowchart.compact(&|e| m.equations[e].label.clone());
    (m, s, r)
}

#[test]
fn declaration_order_puts_do_outside() {
    let (_, s, _) = compact(COLUMN_RECURRENCE, PickPolicy::DeclarationOrder);
    assert!(s.contains("DO I (DOALL J (eq.2))"), "{s}");
}

#[test]
fn prefer_parallel_hoists_doall() {
    let (_, s, _) = compact(COLUMN_RECURRENCE, PickPolicy::PreferParallel);
    assert!(s.contains("DOALL J (DO I (eq.2))"), "{s}");
}

#[test]
fn both_policies_validate() {
    let mut params = FxHashMap::default();
    params.insert(Symbol::intern("n"), 7i64);
    for pick in [PickPolicy::DeclarationOrder, PickPolicy::PreferParallel] {
        let (m, _, r) = compact(COLUMN_RECURRENCE, pick);
        validate_flowchart(&m, &r.flowchart, &params).unwrap_or_else(|e| panic!("{pick:?}: {e}"));
    }
}

#[test]
fn policies_agree_when_no_choice_exists() {
    // Relaxation v1 (Jacobi): K must come first either way (I/J have
    // I+1/J+1 refs). Relaxation v2 (Gauss-Seidel, Figure 7): every
    // dimension of the recursive component deletes edges, so
    // prefer-parallel cannot rescue it: same flowchart, same loop counts.
    let jacobi = "A[K-1,I,J-1] + A[K-1,I-1,J]";
    let gauss_seidel = "A[K,I,J-1] + A[K,I-1,J]";
    for west_north in [jacobi, gauss_seidel] {
        let src = format!(
            "
        R: module (InitialA: array[I,J] of real; M: int; maxK: int):
            [newA: array[I,J] of real];
        type I, J = 0 .. M+1; K = 2 .. maxK;
        var A: array [1 .. maxK] of array[I,J] of real;
        define
            A[1] = InitialA;
            newA = A[maxK];
            A[K,I,J] = if (I = 0) or (J = 0) or (I = M+1) or (J = M+1)
                       then A[K-1,I,J]
                       else ( {west_north}
                            + A[K-1,I,J+1] + A[K-1,I+1,J] ) / 4;
        end R;
    "
        );
        let (_, a, _) = compact(&src, PickPolicy::DeclarationOrder);
        let (_, b, _) = compact(&src, PickPolicy::PreferParallel);
        assert_eq!(a, b, "{west_north}");
    }
}
