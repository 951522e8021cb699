//! Loop-fusion post-pass.
//!
//! The paper notes its algorithm "performs poorly in [...] combining into a
//! single loop those equations which though not recursively related,
//! nevertheless depend on the same subscript(s)" and lists scheduler
//! improvement as implementation focus. This pass merges *adjacent sibling
//! loops* when:
//!
//! * both have the same kind (`DO`+`DO` or `DOALL`+`DOALL`),
//! * their subranges have provably equal bounds,
//! * every dataflow dependence from the first loop's equations to the
//!   second loop's equations is aligned at the fused dimension: the read
//!   subscript must be the identity (`I`), or — for `DO` loops only — a
//!   backward offset (`I - c`), which the iterative order already satisfies.
//!
//! Everything else (constant subscripts, forward offsets, dynamic
//! subscripts, scalar channels) conservatively blocks fusion.

use crate::flowchart::{Descriptor, Flowchart, LoopDescriptor, LoopKind};
use ps_depgraph::DepGraph;
use ps_lang::hir::{HirModule, LhsSub, SubscriptExpr};
use ps_lang::{EqId, IvId};

/// Fuse adjacent compatible loops throughout the flowchart.
pub fn fuse(module: &HirModule, dg: &DepGraph, fc: Flowchart) -> Flowchart {
    let _ = dg; // legality is re-derived from the HIR directly
    Flowchart {
        items: fuse_items(module, fc.items),
    }
}

fn fuse_items(module: &HirModule, items: Vec<Descriptor>) -> Vec<Descriptor> {
    // First fuse recursively inside loop bodies.
    let mut items: Vec<Descriptor> = items
        .into_iter()
        .map(|d| match d {
            Descriptor::Loop(mut l) => {
                l.body = fuse_items(module, l.body);
                Descriptor::Loop(l)
            }
            other => other,
        })
        .collect();

    // Then repeatedly merge adjacent sibling pairs.
    let mut i = 0;
    while i + 1 < items.len() {
        let can = match (&items[i], &items[i + 1]) {
            (Descriptor::Loop(a), Descriptor::Loop(b)) => can_fuse(module, a, b),
            _ => false,
        };
        if can {
            let Descriptor::Loop(b) = items.remove(i + 1) else {
                unreachable!()
            };
            let Descriptor::Loop(a) = &mut items[i] else {
                unreachable!()
            };
            a.bindings.extend(b.bindings);
            a.body.extend(b.body);
            a.body = fuse_items(module, std::mem::take(&mut a.body));
            // Stay at i: the merged loop may fuse with the next sibling too.
        } else {
            i += 1;
        }
    }
    items
}

fn can_fuse(module: &HirModule, a: &LoopDescriptor, b: &LoopDescriptor) -> bool {
    if a.kind != b.kind {
        return false;
    }
    let sra = &module.subranges[a.subrange];
    let srb = &module.subranges[b.subrange];
    if a.subrange != b.subrange && !sra.same_bounds(srb) {
        return false;
    }

    let writers = equations_of(&a.body);
    let readers = equations_of(&b.body);

    for &w in &writers {
        let weq = &module.equations[w];
        // Position of the fused dimension in the written array.
        let Some(&(_, wiv)) = a.bindings.iter().find(|(e, _)| *e == w) else {
            // An equation in the body not bound to this loop: scalar channel
            // or deeper structure we do not analyze — be conservative.
            return false;
        };
        let Some(wpos) = weq
            .lhs_subs
            .iter()
            .position(|s| matches!(s, LhsSub::Var(iv) if *iv == wiv))
        else {
            return false;
        };

        for &r in &readers {
            let req = &module.equations[r];
            let riv: Option<IvId> = b.bindings.iter().find(|(e, _)| *e == r).map(|&(_, iv)| iv);
            for (array, subs) in req.rhs.array_reads() {
                if array != weq.lhs {
                    continue;
                }
                let Some(riv) = riv else {
                    return false;
                };
                match subs.get(wpos) {
                    Some(SubscriptExpr::Var(iv)) if *iv == riv => {}
                    Some(SubscriptExpr::VarOffset(iv, d))
                        if *iv == riv && *d < 0 && a.kind == LoopKind::Do => {}
                    _ => return false,
                }
            }
            // Scalar reads of values defined in A's body block fusion only
            // if A defines scalars — impossible inside a loop, so nothing to
            // check here.
        }
    }
    true
}

fn equations_of(items: &[Descriptor]) -> Vec<EqId> {
    let fc = Flowchart {
        items: items.to_vec(),
    };
    fc.equations()
}

#[cfg(test)]
mod tests {

    use crate::schedule::{schedule_module, ScheduleOptions};
    use ps_depgraph::build_depgraph;
    use ps_lang::frontend;

    fn fused_compact(src: &str) -> String {
        compact(src, true)
    }

    fn compact(src: &str, fuse_loops: bool) -> String {
        let m = frontend(src).unwrap();
        let dg = build_depgraph(&m);
        let opts = ScheduleOptions {
            fuse_loops,
            ..Default::default()
        };
        let r = schedule_module(&m, &dg, opts).unwrap();
        r.flowchart.compact(&|e| m.equations[e].label.clone())
    }

    #[test]
    fn independent_doalls_fuse() {
        let s = fused_compact(
            "T: module (n: int; b: array[1..n] of real): [y: real];
             type I, L = 1 .. n;
             var a, c: array [1..n] of real;
             define
                a[I] = b[I] * 2.0;
                c[L] = b[L] + 1.0;
                y = a[1] + c[1];
             end T;",
        );
        assert_eq!(s, "DOALL I (eq.1; eq.2); eq.3");
    }

    #[test]
    fn identity_dependence_fuses() {
        let s = fused_compact(
            "T: module (n: int; b: array[1..n] of real): [y: real];
             type I, L = 1 .. n;
             var a, c: array [1..n] of real;
             define
                a[I] = b[I] * 2.0;
                c[L] = a[L] + 1.0;
                y = c[1];
             end T;",
        );
        assert_eq!(s, "DOALL I (eq.1; eq.2); eq.3");
        // A longer chain is one loop per equation unfused and exactly one
        // fused: fusing a pair must leave the result fusable with the next
        // neighbour.
        let chain = "T: module (n: int; b: array[1..n] of real): [y: real];
             type I = 1 .. n;
             var a0, a1, a2, a3: array [1..n] of real;
             define
                a0[I] = b[I] * 2.0 + 1.0;
                a1[I] = a0[I] * 2.0 + 1.0;
                a2[I] = a1[I] * 2.0 + 1.0;
                a3[I] = a2[I] * 2.0 + 1.0;
                y = a3[1];
             end T;";
        assert_eq!(
            compact(chain, false),
            "DOALL I (eq.1); DOALL I (eq.2); DOALL I (eq.3); DOALL I (eq.4); eq.5"
        );
        assert_eq!(
            compact(chain, true),
            "DOALL I (eq.1; eq.2; eq.3; eq.4); eq.5"
        );
    }

    #[test]
    fn offset_dependence_blocks_doall_fusion() {
        let s = fused_compact(
            "T: module (n: int; b: array[0..n] of real): [y: real];
             type I, L = 1 .. n;
             var a: array [0..n] of real; c: array [1..n] of real;
             define
                a[0] = 0.0;
                a[I] = b[I] * 2.0;
                c[L] = a[L-1] + 1.0;
                y = c[1];
             end T;",
        );
        // a's loop and c's loop must stay separate: c[L] reads a[L-1].
        assert!(
            s.contains("DOALL I (eq.2); DOALL L (eq.3)"),
            "unexpected fusion: {s}"
        );
    }

    #[test]
    fn different_bounds_block_fusion() {
        let s = fused_compact(
            "T: module (n: int; b: array[1..n+1] of real): [y: real];
             type I = 1 .. n; L = 1 .. n+1;
             var a: array [1..n] of real; c: array [1..n+1] of real;
             define
                a[I] = b[I] * 2.0;
                c[L] = b[L] + 1.0;
                y = a[1] + c[1];
             end T;",
        );
        assert!(s.contains("DOALL I (eq.1); DOALL L (eq.2)"), "{s}");
    }

    #[test]
    fn relaxation_unchanged_by_fusion() {
        // The three loop nests of Figure 6 must not merge: eq.1/eq.3 and
        // eq.3/eq.2 communicate through constant/upper-bound planes.
        let s = fused_compact(crate::testprogs::RELAXATION_V1);
        assert_eq!(
            s,
            "DOALL I (DOALL J (eq.1)); DO K (DOALL I (DOALL J (eq.3))); \
             DOALL I (DOALL J (eq.2))"
        );
    }
}
