//! Per-equation forward dataflow: definite assignment + interval analysis.
//!
//! Tape control flow is forward-only (every branch target points past the
//! branch), so instruction order is a topological order of the CFG and a
//! single forward pass with per-edge state joins computes, for every
//! instruction (a *step*):
//!
//! * which registers are *definitely assigned* on **all** paths reaching
//!   it (meet = intersection over incoming edges), and
//! * a symbolic interval for every integer register (join = convex hull),
//!   refined along the edges of fused compare-and-branch guards.
//!
//! The pass reads each instruction through [`crate::Insn::operands`]; the
//! only instruction it treats apart is `CopyI`, whose source interval
//! carries over.

use crate::interval::{fmt_affine, refine, Facts, Ival};
use crate::ir::{ADim, AProgram, ArrayIx, CmpOp, EqIx, EqTape, Flow, IVal, Insn, Reg};
use crate::report::Verdict;
use ps_lang::Affine;
use ps_support::diag::Diagnostic;
use std::collections::HashSet;
use std::fmt;

/// One enclosing scheduled loop, as seen by one equation.
pub struct LoopCtx<'a> {
    pub parallel: bool,
    pub name: &'a str,
    pub lo: &'a Affine,
    pub hi: &'a Affine,
    /// The i-register this equation binds the counter to.
    pub counter: u16,
}

/// Verdict for one array load.
pub struct LoadOutcome {
    pub array: ArrayIx,
    pub verdict: Verdict,
}

/// Everything the driver needs to know about an equation's final store.
#[derive(Clone, Debug)]
pub struct StoreOutcome {
    pub array: ArrayIx,
    pub in_bounds: Verdict,
    /// Injective over *every* enclosing counter: two distinct iteration
    /// vectors of the enclosing loop nest never write the same element
    /// (per-equation single assignment).
    pub injective: bool,
    /// Injective over the parallel (DOALL) counters alone, with the
    /// sequential counters held fixed — the paper's independence condition
    /// for the innermost parallel nest.
    pub doall_injective: bool,
    /// An enclosing counter the address provably does not depend on —
    /// iterations overwrite each other (reported as E0603).
    pub overlap: Option<String>,
    /// Write interval per logical dimension, at tape exit.
    pub dims: Vec<Ival>,
}

/// Result of analyzing one equation in one scheduled region. The load
/// verdicts live in the [`EqScratch`] the analysis ran in.
pub struct EqOutcome<'s> {
    pub diags: Vec<Diagnostic>,
    pub loads: &'s [LoadOutcome],
    pub store: Option<StoreOutcome>,
}

/// Working storage of [`analyze_eq`]. Keep one and pass it to every
/// equation: its buffers grow to the largest equation seen and are reused,
/// so analyzing a program allocates per equation only for what the
/// [`EqOutcome`] keeps.
#[derive(Default)]
pub struct EqScratch {
    /// Per step, the state reaching it (`None`: not reached yet).
    states: Vec<Option<State>>,
    /// States no step holds any more, kept for their buffers.
    spare: Vec<State>,
    /// Registers already reported as read before assignment.
    reported: HashSet<(u8, u16)>,
    loads: Vec<LoadOutcome>,
    /// Per-dimension intervals of the load last checked.
    dims: Vec<Ival>,
    /// Counters of [`injective_in`], pinned ones first.
    pins: Vec<u16>,
}

/// Dataflow state at one program point.
#[derive(Default)]
struct State {
    /// Definite assignment of every register: the f-file, then the i-file
    /// from `at_i`, then the b-file from `at_b`.
    def: Vec<bool>,
    at_i: usize,
    at_b: usize,
    iv: Vec<Ival>,
}

impl State {
    fn slot(&self, reg: Reg) -> usize {
        match reg {
            Reg::F(r) => r as usize,
            Reg::I(r) => self.at_i + r as usize,
            Reg::B(r) => self.at_b + r as usize,
        }
    }

    fn defined(&self, reg: Reg) -> bool {
        self.def[self.slot(reg)]
    }

    /// Mark `reg` assigned, keeping whatever interval it has.
    fn set(&mut self, reg: Reg) {
        let slot = self.slot(reg);
        self.def[slot] = true;
    }

    fn define(&mut self, reg: Reg) {
        self.set(reg);
        if let Reg::I(r) = reg {
            self.iv[r as usize] = Ival::top();
        }
    }

    /// Meet definedness (intersection), join intervals (hull).
    fn merge_from(&mut self, other: &State, facts: &Facts) {
        for (d, s) in self.def.iter_mut().zip(&other.def) {
            *d &= s;
        }
        for (d, s) in self.iv.iter_mut().zip(&other.iv) {
            d.join(s, facts);
        }
    }
}

/// A state from `spare` with `st`'s contents.
fn copy_of(spare: &mut Vec<State>, st: &State) -> State {
    let mut out = spare.pop().unwrap_or_default();
    out.def.clone_from(&st.def);
    out.iv.clone_from(&st.iv);
    (out.at_i, out.at_b) = (st.at_i, st.at_b);
    out
}

/// Bring `st` to step `target`: it becomes the state there, or is met with
/// the state already there and returns to `spare`.
fn merge(
    states: &mut [Option<State>],
    spare: &mut Vec<State>,
    target: usize,
    st: State,
    facts: &Facts,
) {
    match &mut states[target] {
        Some(cur) => {
            cur.merge_from(&st, facts);
            spare.push(st);
        }
        slot => *slot = Some(st),
    }
}

/// Move `st` onto the edge where `a op b` effectively holds, refining the
/// interval of either operand when the other is a known single value (both
/// refinements read the state as it reached the branch).
fn refine_edge(mut st: State, operands: [Option<Reg>; 2], op: CmpOp) -> State {
    if let [Some(Reg::I(a)), Some(Reg::I(b))] = operands {
        let (a, b) = (a as usize, b as usize);
        let new_a = st.iv[b].singleton().map(|k| refine(&st.iv[a], op, k));
        let new_b = st.iv[a]
            .singleton()
            .map(|k| refine(&st.iv[b], op.swap(), k));
        if let Some(iv) = new_a {
            st.iv[a] = iv;
        }
        if let Some(iv) = new_b {
            st.iv[b] = iv;
        }
    }
    st
}

/// Interval of one address dimension under `st`.
fn dim_interval(d: &ADim, st: &State) -> Ival {
    let mut lo = Some(Affine::constant(d.base));
    let mut hi = Some(Affine::constant(d.base));
    for &(r, c) in &d.terms {
        let iv = &st.iv[r as usize];
        let (end_lo, end_hi) = if c >= 0 {
            (&iv.lo, &iv.hi)
        } else {
            (&iv.hi, &iv.lo)
        };
        let plus = |acc: Option<Affine>, end: &Option<Affine>| {
            let (mut acc, x) = acc.zip(end.as_ref())?;
            acc.add_scaled(x, c);
            Some(acc)
        };
        lo = plus(lo, end_lo);
        hi = plus(hi, end_hi);
    }
    Ival { lo, hi }
}

/// Prove every dimension of an access inside its declared bounds.
/// Returns the combined verdict and leaves the per-dimension intervals in
/// `ivals`; provable violations are emitted as `E0602` diagnostics.
#[allow(clippy::too_many_arguments)]
fn access_check(
    p: &AProgram,
    array: ArrayIx,
    dims: &[ADim],
    st: &State,
    facts: &Facts,
    eq_label: &str,
    what: &str,
    region: &dyn fmt::Display,
    diags: &mut Vec<Diagnostic>,
    ivals: &mut Vec<Ival>,
) -> Verdict {
    let info = &p.arrays[array];
    let mut verdict = Verdict::Proven;
    ivals.clear();
    for (d, (adim, dim)) in dims.iter().zip(&info.dims).enumerate() {
        let iv = dim_interval(adim, st);
        let mut side = |end: &Option<Affine>, declared: &Affine, below: bool| {
            // Proven: end inside the declared bound for all admissible
            // parameter vectors. Rejected: provably outside by a constant
            // margin. Otherwise: leave to the runtime checks.
            let proven = match end {
                Some(e) if below => facts.le(declared, e),
                Some(e) => facts.le(e, declared),
                None => false,
            };
            if proven {
                return;
            }
            let exceeded = match end {
                Some(e) if below => {
                    matches!(declared.const_difference(e), Some(k) if k > 0)
                }
                Some(e) => matches!(e.const_difference(declared), Some(k) if k > 0),
                None => false,
            };
            if exceeded {
                verdict = Verdict::Rejected;
                let word = if below { "below" } else { "above" };
                diags.push(Diagnostic::error(
                    "E0602",
                    format!(
                        "{eq_label}: {what} of {} dimension {d} reaches index {} — \
                         {word} the declared bounds {}..{} (region: {region})",
                        info.name,
                        end.as_ref().map(|e| fmt_affine(e)).unwrap_or_default(),
                        fmt_affine(dim.lo),
                        fmt_affine(dim.hi),
                    ),
                ));
            } else if verdict == Verdict::Proven {
                verdict = Verdict::RuntimeChecks;
            }
        };
        side(&iv.lo, dim.lo, true);
        side(&iv.hi, dim.hi, false);
        ivals.push(iv);
    }
    verdict
}

/// Greedy triangular pinning: the store address is injective in `counters`
/// if we can repeatedly find a dimension whose terms involve exactly one
/// unpinned counter (nonzero coefficient) and otherwise only pinned
/// counters or iteration-invariant registers. Equal addresses then force
/// the counters equal one at a time. (A dimension that pinned its counter
/// never qualifies again: it has no unpinned counter left.)
fn injective_in<'a>(
    dims: &[ADim],
    counters: impl Iterator<Item = &'a LoopCtx<'a>>,
    invariant: &dyn Fn(u16) -> bool,
    pins: &mut Vec<u16>,
) -> bool {
    // `pins[..k]` are pinned, `pins[k..]` not yet.
    pins.clear();
    pins.extend(counters.map(|l| l.counter));
    let mut k = 0;
    while k < pins.len() {
        let (pinned, unpinned) = pins.split_at(k);
        let pick = dims.iter().find_map(|d| {
            let mut sole: Option<u16> = None;
            for &(r, c) in &d.terms {
                if unpinned.contains(&r) {
                    if c == 0 {
                        continue;
                    }
                    match sole {
                        None => sole = Some(r),
                        Some(s) if s == r => {}
                        Some(_) => return None,
                    }
                } else if !(pinned.contains(&r) || invariant(r)) {
                    // A register that may vary between iterations without
                    // being a counter (e.g. a dynamic subscript).
                    return None;
                }
            }
            sole
        });
        let Some(r) = pick else { return false };
        let mut i = k;
        while i < pins.len() {
            if pins[i] == r {
                pins.swap(i, k);
                k += 1;
            }
            i += 1;
        }
    }
    true
}

/// Analyze one equation occurrence under its enclosing loop context.
/// `region` names that context in diagnostics; it is formatted only when
/// one is emitted.
pub fn analyze_eq<'s>(
    p: &AProgram,
    eq_ix: EqIx,
    loops: &[LoopCtx<'_>],
    facts: &Facts,
    region: &dyn fmt::Display,
    scratch: &'s mut EqScratch,
) -> EqOutcome<'s> {
    let eq: &EqTape = &p.eqs[eq_ix];
    let n = eq.insns.len();
    let mut diags = Vec::new();
    let EqScratch {
        states,
        spare,
        reported,
        loads,
        dims,
        pins,
    } = scratch;
    reported.clear();
    loads.clear();

    // --- entry state ---
    let (at_i, at_b) = (eq.n_f as usize, eq.n_f as usize + eq.n_i as usize);
    let mut entry = spare.pop().unwrap_or_default();
    (entry.at_i, entry.at_b) = (at_i, at_b);
    entry.def.clear();
    entry.def.resize(at_b + eq.n_b as usize, false);
    entry.iv.clear();
    entry.iv.resize(eq.n_i as usize, Ival::top());
    for &r in &eq.entry_f {
        entry.set(Reg::F(r));
    }
    for &r in &eq.entry_b {
        entry.set(Reg::B(r));
    }
    for (r, v) in eq.ivals.iter().enumerate() {
        match v {
            IVal::Counter => {
                // Defined only when some enclosing loop actually binds it;
                // a counter no loop binds is a schedule defect and shows up
                // as use-before-assignment below.
                if let Some(lc) = loops.iter().find(|l| l.counter == r as u16) {
                    entry.set(Reg::I(r as u16));
                    entry.iv[r] = Ival::range(lc.lo.clone(), lc.hi.clone());
                }
            }
            IVal::Exact(a) => {
                entry.set(Reg::I(r as u16));
                entry.iv[r] = Ival::exact(a.clone());
            }
            IVal::Opaque => entry.set(Reg::I(r as u16)),
            IVal::Temp => {}
        }
    }

    let mut check_use = |st: &State, reg: Reg, at: fmt::Arguments, diags: &mut Vec<Diagnostic>| {
        if st.defined(reg) {
            return;
        }
        let key = match reg {
            Reg::F(r) => (0u8, r),
            Reg::I(r) => (1, r),
            Reg::B(r) => (2, r),
        };
        if reported.insert(key) {
            diags.push(Diagnostic::error(
                "E0601",
                format!(
                    "{}: register {reg} may be read before assignment at {at} \
                     — some control path reaches it without a definition \
                     (region: {region})",
                    eq.label
                ),
            ));
        }
    };

    // --- forward pass ---
    // Control flow is forward-only, so once step `ix` runs nothing merges
    // into `states[ix]` again: each state is moved out, and copied only
    // onto a branch's jump edge.
    states.clear();
    states.resize_with(n + 1, || None);
    states[0] = Some(entry);
    for ix in 0..n {
        let Some(mut st) = states[ix].take() else {
            continue; // unreachable step
        };
        let insn = eq.insns[ix];
        let ops = insn.operands();
        for &u in ops.uses.iter().flatten() {
            check_use(&st, u, format_args!("step {ix}"), &mut diags);
        }
        if let Some(mem) = ops.mem {
            let (array, addr) = eq.addrs[mem.addr as usize];
            for &(r, _) in addr.iter().flat_map(|dim| &dim.terms) {
                let at = format_args!("step {ix} (address)");
                check_use(&st, Reg::I(r), at, &mut diags);
            }
            let verdict = access_check(
                p, array, addr, &st, facts, eq.label, "load", region, &mut diags, dims,
            );
            loads.push(LoadOutcome { array, verdict });
        }
        match (insn, ops.def) {
            (Insn::CopyI { src, dst }, _) => {
                st.set(Reg::I(dst));
                st.iv[dst as usize] = st.iv[src as usize].clone();
            }
            (_, Some(d)) => st.define(d),
            (_, None) => {}
        }
        match ops.flow {
            Flow::Next => merge(states, spare, ix + 1, st, facts),
            Flow::Jump(target) => merge(states, spare, target as usize, st, facts),
            Flow::Branch { target, cmp } => {
                // The jump edge takes a copy; the fall-through edge keeps
                // the state that reached the branch.
                let jump_st = copy_of(spare, &st);
                let (jump_st, fall_st) = match cmp {
                    Some((op, jump_on_true)) => {
                        let jop = if jump_on_true { op } else { op.negate() };
                        (
                            refine_edge(jump_st, ops.uses, jop),
                            refine_edge(st, ops.uses, jop.negate()),
                        )
                    }
                    None => (jump_st, st),
                };
                merge(states, spare, target as usize, jump_st, facts);
                merge(states, spare, ix + 1, fall_st, facts);
            }
        }
    }

    // --- exit: result + final store ---
    let exit = states[n].take();
    let store = match (eq.store, &exit) {
        (_, None) => None, // no path reaches exit: vacuous (empty tape only)
        (store, Some(exit)) => {
            check_use(
                exit,
                eq.result,
                format_args!("tape exit (result)"),
                &mut diags,
            );
            store.map(|at| {
                let (array, addr) = eq.addrs[at as usize];
                for &(r, _) in addr.iter().flat_map(|dim| &dim.terms) {
                    let at = format_args!("tape exit (store address)");
                    check_use(exit, Reg::I(r), at, &mut diags);
                }
                // The store's per-dimension intervals stay in the report.
                let mut dims = Vec::with_capacity(addr.len());
                let in_bounds = access_check(
                    p, array, addr, exit, facts, eq.label, "store", region, &mut diags, &mut dims,
                );
                let invariant = |r: u16| {
                    matches!(
                        eq.ivals.get(r as usize),
                        Some(IVal::Exact(_)) | Some(IVal::Opaque)
                    )
                };
                let varies = |c: u16| {
                    let mut terms = addr.iter().flat_map(|d| &d.terms);
                    terms.any(|&(r, k)| r == c && k != 0)
                };
                let overlap = loops.iter().find(|l| !varies(l.counter));
                let overlap = overlap.map(|l| l.name.to_string());
                if let Some(name) = &overlap {
                    diags.push(Diagnostic::error(
                        "E0603",
                        format!(
                            "{}: store address into {} never varies with enclosing \
                             counter {name} — loop iterations overwrite the same \
                             elements (region: {region})",
                            eq.label, p.arrays[array].name
                        ),
                    ));
                }
                let injective = injective_in(addr, loops.iter(), &invariant, pins);
                // Sequential counters are fixed while a DOALL nest runs.
                let par = loops.iter().filter(|l| l.parallel);
                let seq = |r| loops.iter().any(|l| !l.parallel && l.counter == r);
                let par_invariant = |r| invariant(r) || seq(r);
                let doall_injective = injective_in(addr, par, &par_invariant, pins);
                StoreOutcome {
                    array,
                    in_bounds,
                    injective,
                    doall_injective,
                    overlap,
                    dims,
                }
            })
        }
    };

    spare.extend(exit);
    EqOutcome {
        diags,
        loads,
        store,
    }
}
