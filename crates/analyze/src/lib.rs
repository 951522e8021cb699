//! `ps-analyze` — static verification of compiled PS tapes.
//!
//! The paper's contribution is a *static* legality argument: loop-level
//! parallelism is safe because the compiler proves loop iterations
//! independent before scheduling them. This crate re-proves that argument
//! on the compiled artifact itself — a branch-aware abstract interpretation
//! of the register tapes the runtime actually executes — so the engine's
//! assumptions become theorems rather than trust. Three analyses
//! run over an [`AProgram`]:
//!
//! 1. **Def-before-use** — a forward definite-assignment pass over every
//!    f64/i64/bool register file. Tape control flow is forward-only, so one
//!    pass with intersection joins covers all control paths through the
//!    fused compare-and-branch guards.
//! 2. **In-bounds addressing** — interval analysis with [`ps_lang::Affine`]
//!    endpoints over the integer registers. Loop counters seed from their
//!    schedule ranges, guard edges refine intervals (`I ≠ 0` excludes an
//!    endpoint, `I = M+1` pins a value), and every affine address is
//!    compared against the array's declared bounds for *all admissible
//!    parameter vectors* — using the fact base that declared dimensions
//!    are non-empty whenever the program instantiates at all.
//! 3. **Write-disjointness** — the paper's independence condition: store
//!    addresses must be injective in the loop induction registers (greedy
//!    triangular pinning over the affine coefficients), plus pairwise
//!    interval disjointness across equations targeting the same array.
//!
//! Verdicts are three-valued: `Proven`, `RuntimeChecks` (undecidable —
//! e.g. dynamic subscripts — left to the runtime's checked mode), and
//! `Rejected` (provably violated, an `E06xx` error diagnostic naming
//! equation, region and instruction). Arrays whose every access is proven
//! may skip the runtime's checked-writes shadow tags entirely; see
//! [`Report::verified_mask`].
//!
//! [`analyze`] computes verdicts, counts, store intervals and the text of
//! any diagnostic it emits — nothing else is formatted on a clean run. The
//! per-equation and per-array lines exist as text only in
//! [`Report::render`], built from the facts the [`Report`] keeps.
//!
//! The tape instruction set is defined here, in `ir.rs`, not in the runtime
//! that executes it: [`Insn`], [`Reg`] and [`CmpOp`] have one definition,
//! and [`Insn::operands`] is the one place each variant's operands are
//! listed. The analysis walks the runtime's own instructions through that
//! accessor.
//!
//! The [`AProgram`] borrows the producer's tables rather than copying
//! them: an [`EqTape`] holds the producer's instructions and, per entry of
//! its address table, the array and the producer's own subscripts (the
//! runtime keeps them as [`ADim`]s); labels, names and declared bounds are
//! the producer's. [`analyze`] runs every equation in one [`EqScratch`], so
//! its dataflow states, load verdicts and pinning buffers are allocated per
//! program, not per equation; the fact base holds references to the bounds
//! it reasons with.

#![forbid(unsafe_code)]

mod eq;
mod interval;
mod ir;
mod report;

pub use eq::{analyze_eq, EqOutcome, EqScratch, LoadOutcome, LoopCtx, StoreOutcome};
pub use interval::{fmt_affine, Facts, Ival};
pub use ir::{
    ADim, AProgram, ArrayInfo, ArrayIx, CmpOp, DimInfo, EqIx, EqTape, Flow, IVal, Insn, Kind, Mem,
    Node, Operands, Reg,
};
pub use report::{ArrayReport, EqReport, LoopRec, Region, Report, Verdict};

use ps_lang::Affine;

/// Per-array load counts gathered while walking the schedule.
#[derive(Clone, Default)]
struct LoadTally {
    total: usize,
    proven: usize,
    rejected: bool,
}

/// The report under construction (its `arrays` are summarized last), the
/// per-array load counts that summary needs, and the working storage every
/// equation's analysis reuses.
struct Acc<'a> {
    report: Report,
    loads: Vec<LoadTally>,
    /// The loops enclosing the equation in progress, as it binds them.
    loops: Vec<LoopCtx<'a>>,
    scratch: EqScratch,
}

struct StackLoop<'a> {
    /// This loop's entry in [`Report::loops`].
    rec: usize,
    parallel: bool,
    name: &'a str,
    lo: &'a Affine,
    hi: &'a Affine,
    bindings: &'a [(EqIx, u16)],
}

/// Run all three analyses over `p`.
pub fn analyze(p: &AProgram) -> Report {
    // Premise base: every declared array dimension `lo..hi` is non-empty
    // for any parameter vector the runtime accepts (instantiation fails
    // otherwise), so `lo ≤ hi` are global facts.
    let mut facts = Facts::new();
    for a in &p.arrays {
        for d in &a.dims {
            facts.push(d.lo, d.hi);
        }
    }
    let mut acc = Acc {
        report: Report::default(),
        loads: vec![LoadTally::default(); p.arrays.len()],
        loops: Vec::new(),
        scratch: EqScratch::default(),
    };
    let mut stack = Vec::new();
    // Every loop truncates its own premise on the way out, so after the
    // walk `facts` is the global base again.
    walk(p, &p.schedule, &mut stack, &mut facts, &mut acc);

    // Every store, grouped by target array (in report order within one):
    // the summary takes each array's group off the front.
    let mut stores: Vec<(ArrayIx, &str, &StoreOutcome)> = acc
        .report
        .eqs
        .iter()
        .filter_map(|e| e.store.as_ref().map(|s| (s.array, e.label.as_str(), s)))
        .collect();
    stores.sort_by_key(|&(array, ..)| array);
    let mut rest = &stores[..];
    let mut arrays = Vec::with_capacity(p.arrays.len());
    for (aix, info) in p.arrays.iter().enumerate() {
        let loads = &acc.loads[aix];
        let (stores, tail) = rest.split_at(rest.partition_point(|&(array, ..)| array == aix));
        rest = tail;
        let rejected = loads.rejected
            || stores
                .iter()
                .any(|(_, _, s)| s.in_bounds == Verdict::Rejected || s.overlap.is_some());
        let mut writes_ok = stores
            .iter()
            .all(|(_, _, s)| s.in_bounds == Verdict::Proven && s.injective && s.overlap.is_none());
        // Cross-equation disjointness: two equations targeting the same
        // array must be separated in at least one dimension. Only the
        // global fact base applies here (loop-local facts are conditional
        // on that loop running).
        let mut overlaps = Vec::new();
        for (i, (_, label_i, a)) in stores.iter().enumerate() {
            for (_, label_j, b) in &stores[i + 1..] {
                if !dims_disjoint(&a.dims, &b.dims, &facts) {
                    writes_ok = false;
                    overlaps.push((label_i.to_string(), label_j.to_string()));
                }
            }
        }
        let reads_ok = loads.proven == loads.total;
        let verdict = if rejected {
            Verdict::Rejected
        } else if writes_ok && reads_ok {
            Verdict::Proven
        } else {
            Verdict::RuntimeChecks
        };
        arrays.push(ArrayReport {
            name: info.name.to_string(),
            verdict,
            // Windowed arrays keep their tags even when proven: the tags
            // also catch window evictions, which the interval domain does
            // not model.
            verified: info.elidable && !info.windowed && verdict == Verdict::Proven,
            writes: stores.len(),
            loads: loads.total,
            input: info.input,
            windowed: info.windowed,
            overlaps,
        });
    }
    acc.report.arrays = arrays;
    acc.report
}

/// Provable disjointness of two write regions: separated in some dimension.
fn dims_disjoint(a: &[Ival], b: &[Ival], facts: &Facts) -> bool {
    let lt = |h: &Option<Affine>, l: &Option<Affine>| matches!((h, l), (Some(h), Some(l)) if facts.lt(h, l));
    a.iter()
        .zip(b)
        .any(|(x, y)| lt(&x.hi, &y.lo) || lt(&y.hi, &x.lo))
}

fn walk<'a>(
    p: &'a AProgram<'a>,
    nodes: &'a [Node<'a>],
    stack: &mut Vec<StackLoop<'a>>,
    facts: &mut Facts<'a>,
    acc: &mut Acc<'a>,
) {
    for node in nodes {
        match node {
            Node::Eq(ix) => {
                acc.loops.clear();
                acc.loops.extend(stack.iter().filter_map(|l| {
                    l.bindings
                        .iter()
                        .find(|(e, _)| e == ix)
                        .map(|&(_, reg)| LoopCtx {
                            parallel: l.parallel,
                            name: l.name,
                            lo: l.lo,
                            hi: l.hi,
                            counter: reg,
                        })
                }));
                let region = stack.last().map(|l| l.rec);
                let out = analyze_eq(
                    p,
                    *ix,
                    &acc.loops,
                    facts,
                    &Region(&acc.report.loops, region),
                    &mut acc.scratch,
                );
                acc.report.diags.extend(out.diags);
                let mut loads_proven = 0;
                for l in out.loads {
                    let proven = usize::from(l.verdict == Verdict::Proven);
                    let tally = &mut acc.loads[l.array];
                    tally.total += 1;
                    tally.proven += proven;
                    tally.rejected |= l.verdict == Verdict::Rejected;
                    loads_proven += proven;
                }
                acc.report.eqs.push(EqReport {
                    label: p.eqs[*ix].label.to_string(),
                    region,
                    store: out.store,
                    loads: out.loads.len(),
                    loads_proven,
                });
            }
            Node::Loop {
                parallel,
                name,
                lo,
                hi,
                bindings,
                body,
            } => {
                // Inside the loop its range is non-empty: a sound extra
                // premise for the body only.
                let mark = facts.len();
                facts.push(lo, hi);
                acc.report.loops.push(LoopRec {
                    parent: stack.last().map(|l| l.rec),
                    parallel: *parallel,
                    name: name.to_string(),
                });
                stack.push(StackLoop {
                    rec: acc.report.loops.len() - 1,
                    parallel: *parallel,
                    name,
                    lo,
                    hi,
                    bindings,
                });
                walk(p, body, stack, facts, acc);
                stack.pop();
                facts.truncate(mark);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_support::{SmallVec, Symbol};

    fn param(name: &str) -> Affine {
        Affine::param(Symbol::intern(name))
    }

    fn dim(base: i64, terms: &[(u16, i64)]) -> ADim {
        ADim {
            base,
            terms: terms.into(),
        }
    }

    fn arr<'a>(name: &'a str, dims: &'a [(Affine, Affine)]) -> ArrayInfo<'a> {
        ArrayInfo {
            name,
            dims: dims.iter().map(|(lo, hi)| DimInfo { lo, hi }).collect(),
            windowed: false,
            elidable: true,
            input: false,
        }
    }

    /// Corruption class 1: a register defined on only one branch path.
    #[test]
    fn branch_path_use_before_def_is_rejected() {
        let eq = EqTape {
            label: "eq.1",
            n_f: 2,
            n_i: 0,
            n_b: 1,
            entry_f: [0].into(),
            entry_b: [0].into(),
            ivals: vec![],
            insns: &[
                Insn::JumpIfNot { cond: 0, target: 2 },
                Insn::CopyF { src: 0, dst: 1 },
                // f1 is defined only on the fall-through path.
                Insn::NegF { a: 1, dst: 1 },
            ],
            addrs: &[],
            store: None,
            result: Reg::F(1),
        };
        let p = AProgram {
            arrays: vec![],
            eqs: vec![eq],
            schedule: vec![Node::Eq(0)],
        };
        let r = analyze(&p);
        // The diagnostic's text is formatted lazily; pin it to the parent's.
        assert_eq!(
            r.render(),
            include_str!("../../../tests/golden/analyze_e0601.txt")
        );
        assert!(
            r.diags
                .iter()
                .any(|d| d.code == "E0601" && d.message.contains("f1")),
            "{}",
            r.render()
        );
    }

    /// Corruption class 2: an affine store address escaping its bounds.
    #[test]
    fn out_of_bounds_affine_store_is_rejected() {
        // a: array [1..n]; DOALL I = 0..n writes a[I] — index 0 underflows.
        let (zero, n) = (Affine::constant(0), param("n"));
        let a = [(Affine::constant(1), n.clone())];
        let eq = EqTape {
            label: "eq.1",
            n_f: 1,
            n_i: 1,
            n_b: 0,
            entry_f: [0].into(),
            entry_b: SmallVec::new(),
            ivals: vec![IVal::Counter],
            insns: &[],
            addrs: &[(0, &[dim(0, &[(0, 1)])])],
            store: Some(0),
            result: Reg::F(0),
        };
        let p = AProgram {
            arrays: vec![arr("a", &a)],
            eqs: vec![eq],
            schedule: vec![Node::Loop {
                parallel: true,
                name: "I",
                lo: &zero,
                hi: &n,
                bindings: vec![(0, 0)],
                body: vec![Node::Eq(0)],
            }],
        };
        let r = analyze(&p);
        // The diagnostic's text is formatted lazily; pin it to the parent's.
        assert_eq!(
            r.render(),
            include_str!("../../../tests/golden/analyze_e0602.txt")
        );
        assert!(r.diags.iter().any(|d| d.code == "E0602"), "{}", r.render());
        assert_eq!(r.arrays[0].verdict, Verdict::Rejected);
        assert!(!r.verified_mask()[0]);
    }

    /// Corruption class 3: DOALL iterations all writing the same element.
    #[test]
    fn overlapping_doall_writes_are_rejected() {
        let (one, n) = (Affine::constant(1), param("n"));
        let a = [(one.clone(), n.clone())];
        let eq = EqTape {
            label: "eq.1",
            n_f: 1,
            n_i: 1,
            n_b: 0,
            entry_f: [0].into(),
            entry_b: SmallVec::new(),
            ivals: vec![IVal::Counter],
            insns: &[],
            addrs: &[(0, &[dim(3, &[])])],
            store: Some(0),
            result: Reg::F(0),
        };
        let p = AProgram {
            arrays: vec![arr("a", &a)],
            eqs: vec![eq],
            schedule: vec![Node::Loop {
                parallel: true,
                name: "I",
                lo: &one,
                hi: &n,
                bindings: vec![(0, 0)],
                body: vec![Node::Eq(0)],
            }],
        };
        let r = analyze(&p);
        // The diagnostic's text is formatted lazily; pin it to the parent's.
        assert_eq!(
            r.render(),
            include_str!("../../../tests/golden/analyze_e0603.txt")
        );
        assert!(
            r.diags
                .iter()
                .any(|d| d.code == "E0603" && d.message.contains('I')),
            "{}",
            r.render()
        );
        assert_eq!(r.arrays[0].verdict, Verdict::Rejected);
    }

    /// Guard refinement: `if I = 0 then a[1] else a[I]` with `I ∈ 0..M+1`
    /// and `a: 1..M+1` — safe only because the else-edge excludes `I = 0`.
    #[test]
    fn guard_refinement_proves_interior_access() {
        let (zero, m1) = (Affine::constant(0), param("M").add_const(1));
        let a = [(Affine::constant(1), m1.clone())];
        let (one, at_i) = ([dim(1, &[])], [dim(0, &[(0, 1)])]);
        let eq = EqTape {
            label: "eq.1",
            n_f: 1,
            n_i: 2,
            n_b: 0,
            entry_f: SmallVec::new(),
            entry_b: SmallVec::new(),
            ivals: vec![IVal::Counter, IVal::Exact(Affine::constant(0))],
            insns: &[
                // Fused guard: fall through when I = 0, jump when I ≠ 0.
                Insn::JumpCmpINot {
                    op: CmpOp::Eq,
                    a: 0,
                    b: 1,
                    target: 3,
                },
                Insn::LoadF {
                    buf: 0,
                    addr: 0,
                    dst: 0,
                },
                Insn::Jump { target: 4 },
                Insn::LoadF {
                    buf: 0,
                    addr: 1,
                    dst: 0,
                },
            ],
            addrs: &[(0, &one), (0, &at_i)],
            store: None,
            result: Reg::F(0),
        };
        let p = AProgram {
            arrays: vec![arr("a", &a)],
            eqs: vec![eq],
            schedule: vec![Node::Loop {
                parallel: true,
                name: "I",
                lo: &zero,
                hi: &m1,
                bindings: vec![(0, 0)],
                body: vec![Node::Eq(0)],
            }],
        };
        let r = analyze(&p);
        assert!(!r.has_errors(), "{}", r.render());
        assert_eq!(r.arrays[0].verdict, Verdict::Proven, "{}", r.render());
    }

    /// Recurrence shape: `a[1] = c; DO K = 2..n: a[K] = a[K-1]` — injective,
    /// cross-equation disjoint, in-bounds through the non-empty-dim fact.
    #[test]
    fn recurrence_writes_verify_for_elision() {
        let (two, n) = (Affine::constant(2), param("n"));
        let a = [(Affine::constant(1), n.clone())];
        let eq1 = EqTape {
            label: "eq.1",
            n_f: 1,
            n_i: 0,
            n_b: 0,
            entry_f: [0].into(),
            entry_b: SmallVec::new(),
            ivals: vec![],
            insns: &[],
            addrs: &[(0, &[dim(1, &[])])],
            store: Some(0),
            result: Reg::F(0),
        };
        let previous = [dim(-1, &[(0, 1)])];
        let eq2 = EqTape {
            label: "eq.2",
            n_f: 1,
            n_i: 1,
            n_b: 0,
            entry_f: SmallVec::new(),
            entry_b: SmallVec::new(),
            ivals: vec![IVal::Counter],
            insns: &[Insn::LoadF {
                buf: 0,
                addr: 0,
                dst: 0,
            }],
            addrs: &[(0, &previous), (0, &[dim(0, &[(0, 1)])])],
            store: Some(1),
            result: Reg::F(0),
        };
        let p = AProgram {
            arrays: vec![arr("a", &a)],
            eqs: vec![eq1, eq2],
            schedule: vec![
                Node::Eq(0),
                Node::Loop {
                    parallel: false,
                    name: "K",
                    lo: &two,
                    hi: &n,
                    bindings: vec![(1, 0)],
                    body: vec![Node::Eq(1)],
                },
            ],
        };
        let r = analyze(&p);
        assert!(!r.has_errors(), "{}", r.render());
        assert_eq!(r.arrays[0].verdict, Verdict::Proven, "{}", r.render());
        assert!(r.verified_mask()[0], "{}", r.render());
        assert_eq!(r.eqs.len(), 2);
    }

    /// Windowed arrays report proven but never elide their tags.
    #[test]
    fn windowed_array_keeps_runtime_tags() {
        let (one, n) = (Affine::constant(1), param("n"));
        let bounds = [(one.clone(), n.clone())];
        let eq = EqTape {
            label: "eq.1",
            n_f: 1,
            n_i: 1,
            n_b: 0,
            entry_f: [0].into(),
            entry_b: SmallVec::new(),
            ivals: vec![IVal::Counter],
            insns: &[],
            addrs: &[(0, &[dim(0, &[(0, 1)])])],
            store: Some(0),
            result: Reg::F(0),
        };
        let mut a = arr("a", &bounds);
        a.windowed = true;
        a.elidable = false;
        let p = AProgram {
            arrays: vec![a],
            eqs: vec![eq],
            schedule: vec![Node::Loop {
                parallel: false,
                name: "K",
                lo: &one,
                hi: &n,
                bindings: vec![(0, 0)],
                body: vec![Node::Eq(0)],
            }],
        };
        let r = analyze(&p);
        assert!(!r.has_errors(), "{}", r.render());
        assert_eq!(r.arrays[0].verdict, Verdict::Proven);
        assert!(!r.verified_mask()[0]);
    }

    /// A dynamic subscript downgrades to RuntimeChecks — never an error.
    #[test]
    fn dynamic_subscript_needs_runtime_checks() {
        // out[I] = xs[ks[I]]: the xs load address flows through a loaded
        // integer register with unknown interval.
        let (at_i, at_k) = ([dim(0, &[(0, 1)])], [dim(0, &[(1, 1)])]);
        let eq = EqTape {
            label: "eq.1",
            n_f: 1,
            n_i: 2,
            n_b: 0,
            entry_f: SmallVec::new(),
            entry_b: SmallVec::new(),
            ivals: vec![IVal::Counter, IVal::Temp],
            insns: &[
                Insn::LoadI {
                    buf: 0,
                    addr: 0,
                    dst: 1,
                },
                Insn::LoadF {
                    buf: 0,
                    addr: 1,
                    dst: 0,
                },
            ],
            addrs: &[(2, &at_i), (1, &at_k), (0, &at_i)],
            store: Some(2),
            result: Reg::F(0),
        };
        let (one, n) = (Affine::constant(1), param("n"));
        let bounds = [(one.clone(), n.clone())];
        let mut xs = arr("xs", &bounds);
        xs.input = true;
        let mut ks = arr("ks", &bounds);
        ks.input = true;
        let p = AProgram {
            arrays: vec![arr("out", &bounds), xs, ks],
            eqs: vec![eq],
            schedule: vec![Node::Loop {
                parallel: true,
                name: "I",
                lo: &one,
                hi: &n,
                bindings: vec![(0, 0)],
                body: vec![Node::Eq(0)],
            }],
        };
        let r = analyze(&p);
        assert!(!r.has_errors(), "{}", r.render());
        // The gathered-from array cannot be proven...
        assert_eq!(r.arrays[1].verdict, Verdict::RuntimeChecks);
        // ...but the written array still verifies and elides.
        assert_eq!(r.arrays[0].verdict, Verdict::Proven);
        assert!(r.verified_mask()[0]);
        assert!(r.verified_mask()[2], "ks reads are affine and proven");
    }
}
