//! Strip-mined tape execution for innermost `DOALL`s: a second *walker*
//! for the same validated tapes as `compiled::ExecProg::exec_tape`.
//!
//! The scalar walker dispatches every tape instruction once per cell and
//! re-derives every address (window `mod` included) once per cell. For a
//! single-equation innermost `DOALL` body this walker instead runs **strips**
//! of up to [`W`] consecutive iterations: `f`-registers become lanes (`W`
//! values each), an op is dispatched once and applied to all lanes in a
//! counted loop, and an address is found once per rectangle of the nest
//! (see *Control flow*) and advanced by its counter strides — a unit stride
//! is read in place or copied as one range.
//!
//! # Legality
//!
//! The scheduler marks a loop `DOALL` exactly when no iteration reads a
//! cell another iteration of the same loop writes, and single assignment
//! means no two iterations write the same cell — the contract
//! `ParVec::set` already rests on. In a nest of two `DOALL`s that holds for
//! any two iterations `(i, j)` of the pair (Nuriyev's "independent steps"),
//! so the order rectangles, rows and columns run in is free. Running
//! op-major over a strip (every load of the strip before its one store)
//! therefore reorders only accesses that are independent, and each lane
//! performs the scalar tape's operations in the scalar tape's order, so
//! results are bit-identical (no reassociation, no fused multiply-add).
//! Memory safety does not depend on any of this: every access is
//! range-checked against its buffer, once per strip for a unit stride and
//! per lane otherwise.
//!
//! # Eligibility
//!
//! Decided once per equation at lowering time ([`plan_tapes`]), never per
//! call; the verdict is the `strip` field of each `CompiledEq` and is what
//! [`crate::Program::strip_report`] prints. An equation strips along the
//! counter of its enclosing loop when
//!
//! * that loop is a `DOALL` whose whole body is this one equation;
//! * the tapes are not `checked` (tag transitions are per cell);
//! * the result is a store into a real array;
//! * every subscript is affine over registers the tape never writes
//!   (counters, constants, parameter and derived registers);
//! * every instruction is an element-wise `f`-op, an `f` load, a scalar
//!   read into an `f`-register (broadcast), or a branch that is `Jump` or
//!   an integer compare-and-branch — whose operands are then necessarily
//!   never-written registers, because nothing writes an `i`/`b` register;
//! * the inner counter appears in no dimension the memory plan windowed;
//! * its branches can be taken in at most [`MAX_PATHS`] ways.
//!
//! When that `DOALL` is in turn the whole body of an outer `DOALL`, the
//! equation strips as a **nest** `DOALL I (DOALL J (eq))`, walked as one
//! (`stripped along J within I`). Its rectangles are one row high
//! (`along J, row by row`) when a branch compares the two counters, or when
//! the outer counter indexes a windowed dimension (a `mod` does not step by
//! a stride). Everything else keeps the scalar loop, which pays one branch
//! per row.
//!
//! # Control flow
//!
//! Branches are handled by **index-set splitting**, not predication (the
//! untaken arm of a boundary guard reads out of bounds). A branch that
//! compares a counter with a value `v` fixed across the nest can change
//! outcome only at `v` and `v + 1` of that counter, so the cuts of all such
//! branches on `I` and on `J` split the nest into **rectangles** inside each
//! of which every branch has one outcome and the nest executes one
//! straight-line body. A tape only jumps forward, so it has finitely many
//! bodies, and [`plan`] enumerates them when the tapes are lowered: the
//! branches become a decision tree ([`Node`]) and each distinct body a
//! **path** ([`Path`]) of fused ops ([`StripOp`]) — a load is no op but the
//! memory operand of its consumer, so `load → store` is one range copy,
//! and constants stay preset lanes.
//!
//! [`StripPlan::run`] walks the tree once per rectangle, at its corner, to
//! pick the path; evaluates each address class's anchor once per nest (per
//! row when rectangles are one row high); and runs strips that see no
//! branch and evaluate no address: rows along `J`, stepping every access by
//! its `I`-stride from row to row, except that a one-column rectangle runs
//! down `I` as strided strips. A Jacobi plane is nine rectangles:
//! four one-cell corners, two edge rows, two edge columns of one strided
//! copy per 64 rows, and the interior of two five-op strips per row. A
//! `DOALL` that is not a nest — a 1-D loop, or one inside a `DO` — is the
//! height-1 case: one row, cut along `J` alone.

use crate::compiled::{Addr, CompiledEq, ExecProg, Frame, OutSpec, SymAddr, Tapes};
use crate::ndarray::ParVec;
use crate::value::Value;
use ps_analyze::{ADim, Flow, Insn, Reg};
use ps_lang::{DataId, EqId, HirModule, IvId};
use ps_scheduler::{Descriptor, Flowchart, LoopDescriptor, LoopKind};
use ps_support::idx::{Idx, IndexVec};
use std::cell::Cell;
use std::fmt;

/// Lanes per strip. 64 doubles are 512 bytes per register: the lane file
/// of Figure 6's `eq.3` (nine `f`-registers) is 4.5 KB and stays in L1.
pub(crate) const W: usize = 64;

/// The most ways through its branches a stripped tape may have (the leaves
/// of its decision tree): five independent `if`s in a row exceed it.
const MAX_PATHS: usize = 16;

/// Why an equation keeps the scalar walker — one tape walk per cell —
/// instead of running its innermost `DOALL` in strips.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScalarReason {
    /// Its innermost enclosing loop is a `DO`, or it has none.
    NoDoall,
    /// Its `DOALL` body holds more than this one equation.
    MultiEquationBody,
    /// The program checks writes: tag transitions are per cell.
    Checked,
    /// The result is a scalar, not an array element.
    ScalarOut,
    /// The tape writes an `i`/`b` register (or stores a non-real value).
    NonFWrite,
    /// A subscript depends on a value the tape computes.
    DynamicSubscript,
    /// A branch tests something other than never-written integers.
    DataDependentBranch,
    /// The inner counter indexes a windowed dimension.
    WindowedInnerDimension,
    /// The branches can be taken in more ways than a plan will enumerate.
    TooManyPaths,
}

impl fmt::Display for ScalarReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ScalarReason::NoDoall => "not a DOALL body",
            ScalarReason::MultiEquationBody => "multi-equation body",
            ScalarReason::Checked => "checked",
            ScalarReason::ScalarOut => "scalar-out",
            ScalarReason::NonFWrite => "non-f write",
            ScalarReason::DynamicSubscript => "dynamic subscript",
            ScalarReason::DataDependentBranch => "data-dependent branch",
            ScalarReason::WindowedInnerDimension => "windowed inner dimension",
            ScalarReason::TooManyPaths => "too many paths",
        })
    }
}

/// How one scheduled equation executes inside its innermost loop: in
/// strips (each op dispatched once per 64 iterations of a `DOALL` and
/// applied to 64 lanes) or one tape walk per cell. Decided once, when the
/// tapes are lowered; see [`crate::Program::strip_report`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StripVerdict {
    /// Strip-mined along the named loop counter, `within` the outer
    /// counter of a `DOALL` nest walked as one — `by_row` when its
    /// rectangles are one row high. `paths` are the distinct bodies its
    /// branches select between: `copy` for one range copy, else `compute`,
    /// each with the number of ops a strip dispatches.
    Stripped {
        along: String,
        within: Option<String>,
        by_row: bool,
        paths: Vec<(&'static str, usize)>,
    },
    /// One tape walk per cell.
    Scalar(ScalarReason),
}

impl fmt::Display for StripVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StripVerdict::Stripped {
                along,
                within,
                by_row,
                paths,
            } => {
                let list: Vec<_> = paths.iter().map(|(k, ops)| format!("{k}({ops})")).collect();
                let s = if list.len() == 1 { "" } else { "s" };
                let (n, list) = (list.len(), list.join(", "));
                let nest = match within {
                    Some(_) if *by_row => ", row by row".to_string(),
                    Some(outer) => format!(" within {outer}"),
                    None => String::new(),
                };
                write!(f, "stripped along {along}{nest} — {n} path{s}: {list}")
            }
            StripVerdict::Scalar(why) => write!(f, "scalar: {why}"),
        }
    }
}

/// An operand of a strip op.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Src {
    /// The lanes of an `f`-register.
    Lane(u16),
    /// An access of the path (an index into [`Path::accs`]) read in place:
    /// the register's last write on the path is that access's `LoadF`.
    Mem(u16),
}

/// One array access of a path: its `f`-buffer, its entry in the
/// equation's address table, and the register whose lanes receive it
/// whenever it cannot be read in place.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Access {
    buf: u16,
    addr: u16,
    reg: u16,
}

/// What a strip dispatches once for all its lanes. A `LoadF` is not among
/// them: its consumers read the access.
#[derive(Clone, Copy, PartialEq, Debug)]
enum StripOp {
    /// `ReadScalar`: a live scalar slot, broadcast.
    Scalar { slot: u32, dst: u16 },
    /// `CastIF`: an iota of the counter a strip runs along, a broadcast of
    /// any other.
    Widen { a: u16, dst: u16 },
    /// The element-wise `f`-op `insn` on resolved operands.
    F {
        insn: Insn,
        a: Src,
        b: Option<Src>,
        dst: u16,
    },
    /// The equation's store, last on every path.
    Store { src: Src, acc: u16 },
}

/// One straight-line body of a stripped tape.
#[derive(PartialEq, Debug)]
struct Path {
    accs: Vec<Access>,
    ops: Vec<StripOp>,
}

/// The branches of a stripped tape as a decision tree; node 0 is its root.
#[derive(Clone, Copy, Debug)]
enum Node {
    /// Compare `i`-registers `a` and `b`: bit 0, 1 or 2 of `jump` is set
    /// when `a < b`, `a = b` or `a > b` goes on at `next[1]`, not `next[0]`.
    Branch {
        a: u16,
        b: u16,
        jump: u8,
        next: [u16; 2],
    },
    /// Run [`StripPlan::paths`]`[_]`.
    Leaf(u16),
}

/// The parameter-independent half of a strip: which `i`-registers are the
/// nest's counters, what selects a rectangle's path, and the paths.
#[derive(Debug)]
pub(crate) struct StripPlan {
    inner: u16,
    /// The outer counter when the equation's `DOALL` is the whole body of
    /// another, and the two are walked as one nest.
    outer: Option<u16>,
    /// Whether the nest's rectangles are one row high (see *Eligibility*).
    by_row: bool,
    tree: Vec<Node>,
    paths: Vec<Path>,
    /// Per entry of the equation's address table, the first entry of its
    /// class: addresses of one array whose subscripts differ by constants,
    /// and in a windowed dimension (whose `mod` is not linear) not at all.
    /// Through a nest they move together, a constant apart.
    class: Vec<u16>,
}

/// Record on every equation lowered under `items` whether it strips (see
/// *Eligibility* in the module docs). `enclosing` is the loop `items` is
/// the body of, and `around` the loop whose whole body `enclosing` is;
/// `windowed(array, dim)` is the memory plan's window decision.
pub(crate) fn plan_tapes(
    eqs: &mut IndexVec<EqId, Option<CompiledEq>>,
    module: &HirModule,
    items: &[Descriptor],
    [enclosing, around]: [Option<&LoopDescriptor>; 2],
    checked: bool,
    windowed: &dyn Fn(DataId, usize) -> bool,
) {
    let counter = |l: Option<&LoopDescriptor>, eq| match l.map(|l| (l.kind, &l.bindings[..])) {
        Some((LoopKind::Doall, &[(bound, iv)])) if bound == eq => Some(iv.index() as u16),
        _ => None,
    };
    for d in items {
        match d {
            Descriptor::Loop(l) => {
                let loops = [Some(l), enclosing.filter(|_| items.len() == 1)];
                plan_tapes(eqs, module, &l.body, loops, checked, windowed)
            }
            Descriptor::Drain(_) => {}
            Descriptor::Equation(eq) => {
                let ceq = eqs[*eq].as_mut().expect("scheduled equations are lowered");
                let n_counters = module.equations[*eq].ivs.len();
                ceq.strip = match (enclosing.map(|l| l.kind), counter(enclosing, *eq)) {
                    (Some(LoopKind::Doall), Some(inner)) if items.len() == 1 => {
                        let outer = counter(around, *eq);
                        plan(ceq, n_counters, inner, outer, checked, windowed)
                    }
                    (Some(LoopKind::Doall), _) => Err(ScalarReason::MultiEquationBody),
                    _ => Err(ScalarReason::NoDoall),
                };
            }
        }
    }
}

fn plan(
    ceq: &CompiledEq,
    n_counters: usize,
    inner: u16,
    outer: Option<u16>,
    checked: bool,
    windowed: &dyn Fn(DataId, usize) -> bool,
) -> Result<StripPlan, ScalarReason> {
    if checked {
        return Err(ScalarReason::Checked);
    }
    if matches!(ceq.out, OutSpec::Scalar { .. }) {
        return Err(ScalarReason::ScalarOut);
    }
    // The registers no instruction may write: counters and the entry
    // tables. Everything else in the i-file is a tape temporary.
    let fixed = |r: u16| {
        (r as usize) < n_counters
            || ceq.consts_i.iter().any(|&(c, _)| c == r)
            || ceq.preload_i.iter().any(|&(p, _)| p == r)
            || ceq.derived_i.iter().any(|(d, _)| *d == r)
    };
    // Whether some `(dimension, register)` term of some access satisfies
    // `pred`.
    let any_term = |pred: &dyn Fn(&SymAddr, usize, u16) -> bool| {
        ceq.sym_addrs.iter().any(|a| {
            let mut dims = ceq.dims(a).iter().enumerate();
            dims.any(|(d, dim)| dim.terms.iter().any(|&(r, c)| c != 0 && pred(a, d, r)))
        })
    };
    if any_term(&|_, _, r| !fixed(r)) {
        return Err(ScalarReason::DynamicSubscript);
    }
    for insn in &ceq.insns {
        let ops = insn.operands();
        match ops.flow {
            // An integer branch's operands are fixed across the nest or its
            // counters: nothing on an eligible tape writes either.
            Flow::Branch { .. } if !ops.uses.iter().flatten().all(|r| matches!(r, Reg::I(_))) => {
                return Err(ScalarReason::DataDependentBranch)
            }
            Flow::Next if !matches!(ops.def, Some(Reg::F(_))) => {
                return Err(ScalarReason::NonFWrite)
            }
            _ => {}
        }
    }
    if !matches!(ceq.out, OutSpec::ArrayF { .. }) {
        return Err(ScalarReason::NonFWrite);
    }
    if any_term(&|a, d, r| r == inner && windowed(a.array, d)) {
        return Err(ScalarReason::WindowedInnerDimension);
    }
    let alike = |a: &SymAddr, b: &SymAddr| {
        let mut dims = ceq.dims(a).iter().zip(ceq.dims(b)).enumerate();
        let apart = |d, x: &ADim, y: &ADim| x.base == y.base || !windowed(a.array, d);
        a.array == b.array && dims.all(|(d, (x, y))| x.terms == y.terms && apart(d, x, y))
    };
    let addrs = &ceq.sym_addrs;
    let class = |a| addrs.iter().position(|b| alike(a, b)).expect("like itself");
    let mut plan = StripPlan {
        inner,
        outer,
        by_row: false,
        tree: Vec::new(),
        paths: Vec::new(),
        class: addrs.iter().map(|a| class(a) as u16).collect(),
    };
    plan.walk(ceq, 0, &mut (Vec::new(), vec![None; ceq.n_f as usize]))?;
    plan.by_row = outer.is_some_and(|o| {
        let both = |n: &Node| {
            matches!(*n, Node::Branch { a, b, .. } if [a, b] == [inner, o] || [b, a] == [inner, o])
        };
        plan.tree.iter().any(both) || any_term(&|a, d, r| r == o && windowed(a.array, d))
    });
    Ok(plan)
}

impl StripPlan {
    /// Whether the plan walks a nest of two `DOALL`s as one.
    pub(crate) fn is_nest(&self) -> bool {
        self.outer.is_some()
    }

    /// Add the subtree for the tape from `pc` on; the result is its root.
    /// `scratch.0` is the body: the instructions that ran before `pc`
    /// (restored on return). A tape only jumps forward, so this ends.
    fn walk(
        &mut self,
        ceq: &CompiledEq,
        mut pc: usize,
        scratch: &mut (Vec<usize>, Vec<Option<u16>>),
    ) -> Result<u16, ScalarReason> {
        let (at, entry) = (self.tree.len(), scratch.0.len());
        if at + 1 >= 2 * MAX_PATHS {
            return Err(ScalarReason::TooManyPaths);
        }
        self.tree.push(Node::Leaf(0));
        self.tree[at] = loop {
            let ops = ceq.insns.get(pc).map(Insn::operands);
            match ops.map(|o| (o.flow, o.uses)) {
                Some((Flow::Jump(target), _)) => pc = target as usize,
                Some((Flow::Branch { target, cmp }, [Some(Reg::I(a)), Some(Reg::I(b))])) => {
                    let (op, when) = cmp.expect("integer branches fuse their compare");
                    let jump = (0..3).map(|o| ((op.eval(o, 1) == when) as u8) << o).sum();
                    // Not jumping first: paths come out in source order.
                    let fall = self.walk(ceq, pc + 1, scratch)?;
                    let next = [fall, self.walk(ceq, target as usize, scratch)?];
                    break Node::Branch { a, b, jump, next };
                }
                Some(_) => {
                    scratch.0.push(pc);
                    pc += 1;
                }
                None => {
                    let path = lower_path(ceq, &scratch.0, &mut scratch.1);
                    let known = self.paths.iter().position(|p| *p == path);
                    if known.is_none() {
                        self.paths.push(path);
                    }
                    break Node::Leaf(known.unwrap_or(self.paths.len() - 1) as u16);
                }
            }
        };
        scratch.0.truncate(entry);
        Ok(at as u16)
    }

    /// The path of the iteration `frame` holds.
    fn path(&self, frame: &Frame) -> &Path {
        let mut at = 0;
        loop {
            match self.tree[at] {
                Node::Leaf(path) => return &self.paths[path as usize],
                Node::Branch { a, b, jump, next } => {
                    let (x, y) = (frame.gi(a), frame.gi(b));
                    let order = (x >= y) as u8 + (x > y) as u8;
                    at = next[(jump >> order & 1) as usize] as usize;
                }
            }
        }
    }

    /// The last value, up to `last`, of counter `r` at which every branch
    /// goes the way it goes at `first`: one comparing `r` with a value `v`
    /// that `frame` holds can turn only where `r` is `v` or `v + 1`.
    fn cut(&self, frame: &Frame, r: u16, first: i64, last: i64) -> i64 {
        self.tree.iter().fold(last, |last, node| match *node {
            Node::Branch { a, b, .. } if (a == r) != (b == r) => {
                let v = frame.gi(if a == r { b } else { a });
                let cuts = [v, v.saturating_add(1)].into_iter().filter(|&c| c > first);
                cuts.fold(last, |last, c| last.min(c - 1))
            }
            _ => last,
        })
    }
}

/// Lower one body of an eligible tape to strip ops. `loaded` is scratch:
/// the access whose `LoadF` wrote each register last, if a load did —
/// reading the register is then reading the access.
fn lower_path(ceq: &CompiledEq, body: &[usize], loaded: &mut [Option<u16>]) -> Path {
    let mut path = Path {
        accs: Vec::with_capacity(body.len() + 1),
        ops: Vec::with_capacity(body.len() + 1),
    };
    loaded.fill(None);
    let src = |r: u16, loaded: &[Option<u16>]| loaded[r as usize].map_or(Src::Lane(r), Src::Mem);
    for &pc in body {
        let (op, dst) = match ceq.insns[pc] {
            Insn::LoadF { buf, addr, dst } => {
                loaded[dst as usize] = Some(path.accs.len() as u16);
                let reg = dst;
                path.accs.push(Access { buf, addr, reg });
                continue;
            }
            Insn::ReadScalar {
                slot,
                dst: Reg::F(dst),
            } => (StripOp::Scalar { slot, dst }, dst),
            Insn::CastIF { a, dst } => (StripOp::Widen { a, dst }, dst),
            insn => {
                let ops = insn.operands();
                let (Some(Reg::F(dst)), [Some(a), b]) = (ops.def, ops.uses) else {
                    unreachable!("strip plans hold f-ops, not {insn:?}")
                };
                let (a, b) = (src(a.index(), loaded), b.map(|b| src(b.index(), loaded)));
                (StripOp::F { insn, a, b, dst }, dst)
            }
        };
        loaded[dst as usize] = None;
        path.ops.push(op);
    }
    let (OutSpec::ArrayF { buf, addr }, Reg::F(reg)) = (ceq.out, ceq.src) else {
        unreachable!("strip plans store into a real array")
    };
    let (src, acc) = (src(reg, loaded), path.accs.len() as u16);
    path.accs.push(Access { buf, addr, reg });
    path.ops.push(StripOp::Store { src, acc });
    path
}

/// How one folded address moves through a nest: `by[0]` and `by[1]` are
/// its strides along the inner and the outer counter (0 when it does not
/// move with one, and along the outer one of a nest walked row by row),
/// `apart` its distance from the first address of its class.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) struct Stride {
    by: [i64; 2],
    apart: i64,
}

/// The per-layout half of a strip: each folded address's [`Stride`].
pub(crate) fn strides(plan: &StripPlan, addrs: &[Addr]) -> Vec<Stride> {
    let counters = [Some(plan.inner), plan.outer.filter(|_| !plan.by_row)];
    let coeff = |terms: &[(u16, i64)], r: Option<u16>| {
        let at = terms.iter().find(|&&(t, _)| Some(t) == r);
        at.map_or(0, |&(_, c)| c)
    };
    let strides = addrs.iter().zip(&plan.class).map(|(a, &class)| {
        // `fold_addr` makes a dimension special only when the memory
        // plan windowed it, and `plan` kept the counters out of those.
        assert!(
            (a.special.iter()).all(|w| counters.iter().all(|&r| coeff(&w.value.terms, r) == 0)),
            "counter in a windowed dimension of a stripped equation"
        );
        let first = &addrs[class as usize];
        debug_assert_eq!(a.lin, first.lin, "a class folds alike");
        let by = counters.map(|r| coeff(&a.lin, r));
        let apart = a.base.wrapping_sub(first.base);
        Stride { by, apart }
    });
    strides.collect()
}

impl Tapes {
    /// One verdict per scheduled equation, in execution order.
    pub(crate) fn strip_report(
        &self,
        module: &HirModule,
        flowchart: &Flowchart,
    ) -> Vec<(String, StripVerdict)> {
        let shape = |p: &Path| match p.ops[..] {
            [StripOp::Store {
                src: Src::Mem(_), ..
            }] => ("copy", 1),
            _ => ("compute", p.ops.len()),
        };
        // Counters are the leading i-registers in `IvId` order.
        let name = |eq: EqId, r: u16| {
            module.equations[eq].ivs[IvId::new(r as usize)]
                .name
                .to_string()
        };
        let verdict = |eq: EqId| match &self.eqs[eq].as_ref().expect("lowered").strip {
            Ok(plan) => StripVerdict::Stripped {
                along: name(eq, plan.inner),
                within: plan.outer.map(|r| name(eq, r)),
                by_row: plan.by_row,
                paths: plan.paths.iter().map(shape).collect(),
            },
            Err(why) => StripVerdict::Scalar(*why),
        };
        let eqs = flowchart.equations().into_iter();
        eqs.map(|eq| (module.equations[eq].label.clone(), verdict(eq)))
            .collect()
    }
}

/// The arithmetic of every `f`-op, defined once: the scalar walker
/// (`ExecProg::exec_tape`) applies these to one value per register, the
/// strip walker ([`apply_f`]) to a lane file, so the two cannot drift.
pub(crate) mod fop {
    macro_rules! f_ops {
        ($($name:ident($($x:ident),+) = $value:expr;)*) => {$(
            #[inline(always)]
            pub(crate) fn $name($($x: f64),+) -> f64 {
                $value
            }
        )*};
    }
    f_ops! {
        copy(x) = x;
        add(x, y) = x + y;
        sub(x, y) = x - y;
        mul(x, y) = x * y;
        div(x, y) = x / y;
        min(x, y) = x.min(y);
        max(x, y) = x.max(y);
        neg(x) = -x;
        abs(x) = x.abs();
        sqrt(x) = x.sqrt();
        exp(x) = x.exp();
        ln(x) = x.ln();
        sin(x) = x.sin();
        cos(x) = x.cos();
    }

    /// `CastIF`: `int → real` widening.
    #[inline(always)]
    pub(crate) fn widen(i: i64) -> f64 {
        i as f64
    }
}

/// Execute `insn` on `lanes` if it is an element-wise `f`-op (register
/// operands in, one `f`-register out); `false`, untouched, otherwise.
#[inline(always)]
fn apply_f(insn: Insn, lanes: &Lanes) -> bool {
    match insn {
        Insn::CopyF { .. } => lanes.un(fop::copy),
        Insn::AddF { .. } => lanes.bin(fop::add),
        Insn::SubF { .. } => lanes.bin(fop::sub),
        Insn::MulF { .. } => lanes.bin(fop::mul),
        Insn::DivF { .. } => lanes.bin(fop::div),
        Insn::MinF { .. } => lanes.bin(fop::min),
        Insn::MaxF { .. } => lanes.bin(fop::max),
        Insn::NegF { .. } => lanes.un(fop::neg),
        Insn::AbsF { .. } => lanes.un(fop::abs),
        Insn::SqrtF { .. } => lanes.un(fop::sqrt),
        Insn::ExpF { .. } => lanes.un(fop::exp),
        Insn::LnF { .. } => lanes.un(fop::ln),
        Insn::SinF { .. } => lanes.un(fop::sin),
        Insn::CosF { .. } => lanes.un(fop::cos),
        _ => return false,
    }
    true
}

impl Frame {
    /// Set an `f`-register no instruction writes (a constant or a preloaded
    /// parameter): the scalar value and, when this equation strips, its
    /// broadcast across the register's lanes — once, not per strip.
    pub(crate) fn preset_f(&mut self, r: u16, v: f64) {
        self.f[r as usize] = v;
        if !self.lanes.is_empty() {
            self.lanes[r as usize * W..][..W].fill(v);
        }
    }
}

/// The operands one [`StripOp::F`] resolved: lanes or cells of an array,
/// one per iteration of the strip. An op may write the register it reads
/// and an array is shared with other workers, so all are shared cells.
struct Lanes<'a> {
    a: &'a [Cell<f64>],
    b: &'a [Cell<f64>],
    dst: &'a [Cell<f64>],
}

impl Lanes<'_> {
    #[inline(always)]
    fn un(&self, f: impl Fn(f64) -> f64) {
        for (d, x) in self.dst.iter().zip(self.a) {
            d.set(f(x.get()));
        }
    }

    #[inline(always)]
    fn bin(&self, f: impl Fn(f64, f64) -> f64) {
        for (d, (x, y)) in self.dst.iter().zip(self.a.iter().zip(self.b)) {
            d.set(f(x.get(), y.get()));
        }
    }
}

/// One line of a rectangle — a row or a column — bound to a run.
struct Line<'a, 'r, 'm> {
    /// The counter the line runs along, and which of [`Stride::by`] steps
    /// its accesses.
    along: u16,
    by: usize,
    path: &'a Path,
    prog: &'a ExecProg<'r, 'm>,
    /// The run's [`strides`], its lanes and its `i`-registers.
    strides: &'a [Stride],
    lanes: &'a [Cell<f64>],
    ints: &'a [i64],
}

impl StripPlan {
    /// Run equation `eq` of `prog`, whose plan this is, over `cols` of its
    /// `DOALL`'s counter: on `rows` of the outer counter when the plan is a
    /// nest's, else on the one row the frame's counters stand on.
    pub(crate) fn run(
        &self,
        prog: &ExecProg,
        eq: EqId,
        frame: &mut Frame,
        rows: Option<(i64, i64)>,
        (lo, hi): (i64, i64),
    ) {
        debug_assert!(rows.is_none() || self.outer.is_some(), "rows of no nest");
        let (addrs, strides) = (&prog.spec.addrs[eq], &prog.spec.strides[eq][..]);
        let at = self.outer.map_or(0, |r| frame.gi(r));
        let (top, bottom) = rows.unwrap_or((at, at));
        let mut i0 = top;
        while i0 <= bottom && lo <= hi {
            // A band of rows every branch on `I` takes one way, across
            // which the anchors hold — one row when they step by no stride.
            let i1 = match self.outer {
                Some(r) if !self.by_row => self.cut(frame, r, i0, bottom),
                _ => i0,
            };
            let origin = [lo, if self.by_row { i0 } else { top }];
            if i0 == top || self.by_row {
                frame.anchors.fill(None);
            }
            let mut j0 = lo;
            loop {
                frame.si(self.inner, j0);
                if let Some(r) = self.outer {
                    frame.si(r, i0);
                }
                let j1 = self.cut(frame, self.inner, j0, hi);
                let path = self.path(frame);
                for (k, acc) in path.accs.iter().enumerate() {
                    // One evaluation per class: the anchor is where the
                    // class's first address would stand at `origin`,
                    // wherever one of the class is first needed.
                    let Stride { by, apart } = strides[acc.addr as usize];
                    let down = by[1].wrapping_mul(i0.wrapping_sub(origin[1]));
                    let across = by[0].wrapping_mul(j0.wrapping_sub(origin[0]));
                    let here = apart.wrapping_add(across).wrapping_add(down);
                    let class = self.class[acc.addr as usize] as usize;
                    let anchor = frame.anchors[class].unwrap_or_else(|| {
                        let off = ExecProg::eval_addr(&addrs[acc.addr as usize], frame);
                        (off as i64).wrapping_sub(here)
                    });
                    frame.anchors[class] = Some(anchor);
                    frame.offs[k] = anchor.wrapping_add(here) as usize;
                }
                self.rect(prog, path, strides, frame, [(j0, j1), (i0, i1)]);
                match j1.checked_add(1) {
                    Some(next) if next <= hi => j0 = next,
                    _ => break,
                }
            }
            match i1.checked_add(1) {
                Some(next) => i0 = next,
                None => return,
            }
        }
    }

    /// Run `path` over the rectangle `span` — its `J` and its `I` range —
    /// whose corner `frame.offs` places, one line at a time: rows along
    /// `J`, where strides are usually 1 and loads read in place, unless it
    /// is one column of several rows, which runs down `I` in strided
    /// strips instead of one-cell ones.
    fn rect(
        &self,
        prog: &ExecProg,
        path: &Path,
        strides: &[Stride],
        frame: &mut Frame,
        span: [(i64, i64); 2],
    ) {
        let one = |(first, last): (i64, i64)| first == last;
        let by = usize::from(one(span[0]) && !one(span[1]));
        let counters = [Some(self.inner), self.outer];
        let ((start, end), (x0, x1)) = (span[by], span[1 - by]);
        for x in x0..=x1 {
            if let Some(r) = counters[1 - by] {
                frame.si(r, x);
            }
            let line = Line {
                along: counters[by].expect("only a nest has columns"),
                by,
                path,
                prog,
                strides,
                lanes: Cell::from_mut(&mut frame.lanes[..]).as_slice_of_cells(),
                ints: &frame.i,
            };
            let mut first = start;
            loop {
                let n = end.abs_diff(first).min(W as u64 - 1) as usize + 1;
                line.strip(&frame.offs, first.abs_diff(start) as usize, first, n);
                match first.checked_add(n as i64) {
                    Some(next) if next <= end => first = next,
                    _ => break,
                }
            }
            for (off, acc) in frame.offs.iter_mut().zip(&path.accs) {
                *off = ParVec::<f64>::strided(*off, strides[acc.addr as usize].by[1 - by], 1);
            }
        }
    }
}

impl Line<'_, '_, '_> {
    /// Run the path for the `n ≤ W` iterations from `first` on, `step`
    /// iterations into the line: access `k` of the path starts the line at
    /// `offs[k]`.
    fn strip(&self, offs: &[usize], step: usize, first: i64, n: usize) {
        let lane = |r: u16| &self.lanes[r as usize * W..][..n];
        let place = |acc: u16| {
            let Access { buf, addr, reg } = self.path.accs[acc as usize];
            let stride = self.strides[addr as usize].by[self.by];
            let off = ParVec::<f64>::strided(offs[acc as usize], stride, step);
            (buf, off, stride, reg)
        };
        let src = |s: Src| match s {
            Src::Lane(r) => lane(r),
            Src::Mem(acc) => match place(acc) {
                (buf, off, 1, _) => self.prog.view_strip(buf, off, n),
                (buf, off, stride, reg) => {
                    self.prog.bufs_f[buf as usize].get_range(off, stride, lane(reg));
                    lane(reg)
                }
            },
        };
        for &op in &self.path.ops {
            match op {
                StripOp::Scalar { slot, dst } => match self.prog.store.read_slot(slot as usize) {
                    Some(Value::Real(x)) => lane(dst).iter().for_each(|d| d.set(x)),
                    other => panic!("scalar slot {slot} holds {other:?}, tape expects a real"),
                },
                StripOp::Widen { a, dst } => {
                    // `real(J)` of the counter the line runs along differs
                    // per lane.
                    let along = (a == self.along) as usize;
                    let (at, step) = [(self.ints[a as usize], 0), (first, 1)][along];
                    for (l, d) in lane(dst).iter().enumerate() {
                        d.set(fop::widen(at + step * l as i64));
                    }
                }
                StripOp::F { insn, a, b, dst } => {
                    let (a, dst) = (src(a), lane(dst));
                    let b = b.map_or(a, src);
                    let known = apply_f(insn, &Lanes { a, b, dst });
                    assert!(known, "strip path holds {insn:?}");
                }
                StripOp::Store { src: vals, acc } => {
                    let (buf, off, stride, _) = place(acc);
                    self.prog.store_strip(buf, off, stride, src(vals));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::tests::{build, JACOBI};
    use crate::compiled::{compile_tapes, fold_addr};
    use crate::ndarray::{DimSpec, NdSpec};
    use crate::store::StorePlan;
    use ps_analyze::ADim;

    /// The strip verdict of `label` in `src`, lowered as the runtime would.
    fn verdict(src: &str, label: &str, checked: bool) -> StripVerdict {
        let (m, sched) = build(src);
        let plan = StorePlan::new(&m, &sched.memory);
        let mut tapes = compile_tapes(&m, &plan, &sched.flowchart, checked);
        tapes.plan_strips(&m, &plan, &sched.flowchart);
        let report = tapes.strip_report(&m, &sched.flowchart);
        let found = report.into_iter().find(|(l, _)| l == label);
        found.unwrap_or_else(|| panic!("{label} not scheduled")).1
    }

    const GATHER: &str = "G: module (xs: array[I] of real; perm: array[I] of int; n: int):
            [out: array[I] of real];
        type I = 1 .. n;
        define out[I] = xs[perm[I]];
        end G;";

    const INT_ARRAY: &str = "T: module (cs: array[I] of int; n: int): [w: array[I] of int];
        type I = 1 .. n;
        define w[I] = cs[I] + 1;
        end T;";

    /// Figure 6 is two whole-plane copies around the guarded stencil: one
    /// copy for the four boundary guards together, and an interior of three
    /// adds, the multiply `/ 4` lowers to and the store — its four loads
    /// are operands, not ops.
    #[test]
    fn jacobi_strips_every_equation_along_j() {
        let paths = |label| match verdict(JACOBI, label, false) {
            StripVerdict::Stripped {
                along,
                within: Some(outer),
                by_row: false,
                paths,
            } if (&along[..], &outer[..]) == ("J", "I") => paths,
            other => panic!("{label}: {other}"),
        };
        assert_eq!(paths("eq.1"), [("copy", 1)]);
        assert_eq!(paths("eq.2"), [("copy", 1)]);
        assert_eq!(paths("eq.3"), [("copy", 1), ("compute", 5)]);
    }

    /// Lowering gives every array read its own load, so each has one
    /// consumer and none is an op — not even the one into a join register,
    /// which is the store's operand on its own path.
    #[test]
    fn loads_are_operands_not_ops() {
        let src = "T: module (xs: array[I] of real; ys: array[I] of real; n: int):
                [out: array[I] of real];
            type I = 1 .. n;
            define out[I] = if I < 3 then ys[I] else xs[I] * xs[I] + ys[I];
            end T;";
        let (m, sched) = build(src);
        let plan = StorePlan::new(&m, &sched.memory);
        let mut tapes = compile_tapes(&m, &plan, &sched.flowchart, false);
        tapes.plan_strips(&m, &plan, &sched.flowchart);
        let eq = m.equation_by_label("eq.1").unwrap();
        let plan = tapes.eqs[eq].as_ref().unwrap().strip.as_ref().unwrap();
        let [copy, compute] = &plan.paths[..] else {
            panic!("two paths: {:?}", plan.paths)
        };
        assert!(matches!(
            copy.ops[..],
            [StripOp::Store {
                src: Src::Mem(0),
                acc: 1
            }]
        ));
        // `xs[I] * xs[I]` lowers to two loads with one consumer each.
        let in_place = |op: &StripOp| match *op {
            StripOp::F { a, b, .. } => [Some(a), b]
                .iter()
                .filter(|s| matches!(s, Some(Src::Mem(_))))
                .count(),
            _ => 0,
        };
        assert_eq!(compute.ops.iter().map(in_place).sum::<usize>(), 3);
        assert_eq!(compute.ops.len(), 3, "multiply, add, store");
    }

    #[test]
    fn ineligible_bodies_stay_scalar_and_say_why() {
        let scalar = StripVerdict::Scalar;
        assert_eq!(
            verdict(GATHER, "eq.1", false),
            scalar(ScalarReason::DynamicSubscript)
        );
        assert_eq!(
            verdict(INT_ARRAY, "eq.1", false),
            scalar(ScalarReason::NonFWrite)
        );
        assert_eq!(verdict(JACOBI, "eq.3", true), scalar(ScalarReason::Checked));
        // A recurrence is a DO; its scalar result is not in a loop at all.
        let fib = "T: module (n: int): [y: real];
             type K = 2 .. n;
             var a: array [1 .. n] of real;
             define
                a[1] = 1.0;
                a[K] = a[K-1] * 2.0;
                y = a[n];
             end T;";
        for label in ["eq.2", "eq.3"] {
            assert_eq!(
                verdict(fib, label, false),
                scalar(ScalarReason::NoDoall),
                "{label}"
            );
        }
    }

    /// No scheduled program puts a `DOALL` counter in a windowed dimension
    /// (windows belong to the `DO` that carries the recurrence), so the
    /// rule is exercised with a memory plan that claims one.
    #[test]
    fn inner_counter_in_a_windowed_dimension_stays_scalar() {
        let src = "T: module (xs: array[I] of real; n: int): [out: array[I] of real];
            type I = 1 .. n;
            define out[I] = xs[I] * 2.0;
            end T;";
        let (m, sched) = build(src);
        let plan = StorePlan::new(&m, &sched.memory);
        let mut tapes = compile_tapes(&m, &plan, &sched.flowchart, false);
        tapes.plan_strips(&m, &plan, &sched.flowchart);
        let eq = m.equation_by_label("eq.1").unwrap();
        assert!(tapes.eqs[eq].as_ref().unwrap().strip.is_ok());
        let xs = m.data_by_name("xs").unwrap();
        plan_tapes(
            &mut tapes.eqs,
            &m,
            &sched.flowchart.items,
            [None, None],
            false,
            &|a, _| a == xs,
        );
        assert_eq!(
            tapes.eqs[eq].as_ref().unwrap().strip.as_ref().unwrap_err(),
            &ScalarReason::WindowedInnerDimension
        );
    }

    /// The same rule for a nest: the inner counter in a windowed dimension
    /// keeps the scalar walker, the outer counter walks the nest row by
    /// row.
    #[test]
    fn outer_counter_in_a_windowed_dimension_walks_row_by_row() {
        let src = "T: module (xs: array[I,J] of real; n: int): [out: array[I,J] of real];
            type I, J = 1 .. n;
            define out[I,J] = xs[I,J] * 2.0;
            end T;";
        let (m, sched) = build(src);
        let plan = StorePlan::new(&m, &sched.memory);
        let mut tapes = compile_tapes(&m, &plan, &sched.flowchart, false);
        let eq = m.equation_by_label("eq.1").unwrap();
        let xs = m.data_by_name("xs").unwrap();
        let mut walk = |window: Option<usize>| {
            let windowed = |a, d| a == xs && Some(d) == window;
            let items = &sched.flowchart.items;
            plan_tapes(&mut tapes.eqs, &m, items, [None, None], false, &windowed);
            let strip = &tapes.eqs[eq].as_ref().unwrap().strip;
            strip
                .as_ref()
                .map(|p| (p.is_nest(), p.by_row))
                .map_err(|e| *e)
        };
        assert_eq!(walk(None), Ok((true, false)));
        assert_eq!(walk(Some(0)), Ok((true, true)));
        assert_eq!(walk(Some(1)), Err(ScalarReason::WindowedInnerDimension));
    }

    /// Inside one row, `I = J` compares `J` with a fixed value again.
    #[test]
    fn a_branch_on_both_counters_walks_the_nest_row_by_row() {
        let src = "T: module (xs: array[I,J] of real; n: int): [out: array[I,J] of real];
            type I, J = 1 .. n;
            define out[I,J] = if I = J then 1.0 else xs[I,J];
            end T;";
        assert_eq!(
            verdict(src, "eq.1", false).to_string(),
            "stripped along J, row by row — 2 paths: compute(2), copy(1)"
        );
    }

    #[test]
    #[should_panic(expected = "windowed dimension")]
    fn strides_refuse_a_counter_under_a_window_mod() {
        let dims = [ADim {
            base: 0,
            terms: [(0, 1)].into(),
        }];
        let layout = NdSpec {
            dims: vec![DimSpec {
                lo: 1,
                hi: 10,
                window: Some(2),
            }],
        };
        let plan = StripPlan {
            inner: 0,
            outer: None,
            by_row: false,
            tree: Vec::new(),
            paths: Vec::new(),
            class: vec![0, 1, 2],
        };
        strides(&plan, &[fold_addr(&dims, &layout, false)]);
    }

    #[test]
    fn strides_follow_the_physical_layout() {
        // Over a 4×5 array in a nest with inner counter 0 and outer
        // counter 1: `a[c0, c1]` steps 5 along c0 and 1 along c1,
        // `a[c1, c0]` the other way round, and the diagonal `a[c1, c1]`
        // not at all along c0.
        let dims = |terms: [(u16, i64); 2]| {
            terms.map(|t| ADim {
                base: 0,
                terms: [t].into(),
            })
        };
        let dim = |lo, hi| DimSpec {
            lo,
            hi,
            window: None,
        };
        let layout = NdSpec {
            dims: vec![dim(1, 4), dim(1, 5)],
        };
        let mut plan = StripPlan {
            inner: 0,
            outer: Some(1),
            by_row: false,
            tree: Vec::new(),
            paths: Vec::new(),
            class: vec![0, 1, 2],
        };
        let addrs = [
            fold_addr(&dims([(0, 1), (1, 1)]), &layout, false),
            fold_addr(&dims([(1, 1), (0, 1)]), &layout, false),
            fold_addr(&dims([(1, 1), (1, 1)]), &layout, false),
        ];
        let stride = |by, apart| Stride { by, apart };
        let nest = [stride([5, 1], 0), stride([1, 5], 0), stride([0, 6], 0)];
        assert_eq!(strides(&plan, &addrs), nest);
        // Row by row, nothing steps along the outer counter.
        plan.by_row = true;
        let rows = [stride([5, 0], 0), stride([1, 0], 0), stride([0, 0], 0)];
        assert_eq!(strides(&plan, &addrs), rows);
    }

    /// Figure 6's guard cuts both counters of a plane with a one-cell rim
    /// the same way, into three: the plane is nine rectangles.
    #[test]
    fn cuts_split_a_nest_into_rectangles() {
        let (m, sched) = build(JACOBI);
        let plan = StorePlan::new(&m, &sched.memory);
        let mut tapes = compile_tapes(&m, &plan, &sched.flowchart, false);
        tapes.plan_strips(&m, &plan, &sched.flowchart);
        let eq = m.equation_by_label("eq.3").unwrap();
        let ceq = tapes.eqs[eq].as_ref().unwrap();
        let plan = ceq.strip.as_ref().unwrap();
        let (inner, outer) = (plan.inner, plan.outer.expect("a nest"));
        let mut frame = Frame::default();
        frame.i = vec![0; ceq.n_i as usize];
        for &(r, v) in &ceq.consts_i {
            frame.i[r as usize] = v;
        }
        // M = 8: the one derived register is `M+1`.
        let [(m_plus_1, _)] = &ceq.derived_i[..] else {
            panic!("{:?}", ceq.derived_i)
        };
        frame.i[*m_plus_1 as usize] = 9;
        let intervals = |r| {
            let (mut first, mut out) = (0, Vec::new());
            while first <= 9 {
                let last = plan.cut(&frame, r, first, 9);
                out.push((first, last));
                first = last + 1;
            }
            out
        };
        let three = [(0, 0), (1, 8), (9, 9)];
        assert_eq!(intervals(inner), three);
        assert_eq!(intervals(outer), three);
        assert!(!plan.by_row);
    }
}
