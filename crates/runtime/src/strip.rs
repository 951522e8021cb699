//! Strip-mined tape execution for innermost `DOALL`s: a second *walker*
//! for the same validated tapes as `compiled::ExecProg::exec_tape`.
//!
//! The scalar walker dispatches every tape instruction once per cell and
//! re-derives every address (window `mod` included) once per cell. For a
//! single-equation innermost `DOALL` body this walker instead runs **strips**
//! of up to [`W`] consecutive iterations: `f`-registers become lanes (`W`
//! values each), a **pass** — one op of the tape, or two fused — is
//! dispatched once and applied to all lanes in a counted loop, and an
//! address is found once per rectangle of the nest (see *Control flow*)
//! and advanced by its counter strides — a unit stride is read in place or
//! copied as one range.
//!
//! # Passes
//!
//! A path's ops are fused into passes when its tapes are lowered
//! ([`lower_path`]). An arithmetic op (`+`, `-`, `*`, `/`) whose result
//! only the next op reads, once, and which is arithmetic too, becomes one
//! pass with it, `g(f(a, b), c)` or `g(c, f(a, b))`: one of 4 × 4 × 2
//! kernels, and the temporary never reaches a lane. Every other op is a
//! pass of its own. Each lane still rounds after `f` and after `g`, in the
//! tape's order — no reassociation, no fused multiply-add. When the store
//! alone reads the last pass's result, that pass **sinks**: it writes the
//! store's cells itself whenever their stride along the line is 1 at run
//! time, and the store is no pass; otherwise it writes its lanes and the
//! store copies them out. Figure 6's interior is two passes, `(a + b) + c`
//! into lanes and then `(t + d) · 0.25` into `A[K]`.
//!
//! # Strip width
//!
//! [`W`] is 128, so that a row of Figure 6's 128-wide plane, and its 126
//! interior cells, is one strip and not two: the costs paid once per strip
//! (resolving operands, matching the pass, the alias checks ahead of each
//! lane loop) are paid once per row. A lane is 1 KB, and a worker holds
//! one lane file for all its equations, as wide as the widest stripped one
//! (`max n_f × W` doubles; see `compiled::Frames`): only one strip runs at
//! a time on a worker, so lanes are scratch, and a run broadcasts the
//! constants and parameters it reads as lanes before its first strip.
//!
//! # Legality
//!
//! The scheduler marks a loop `DOALL` exactly when no iteration reads a
//! cell another iteration of the same loop writes, and single assignment
//! means no two iterations write the same cell — the contract
//! `ParVec::set` already rests on. In a nest of two `DOALL`s that holds for
//! any two iterations `(i, j)` of the pair (Nuriyev's "independent steps"),
//! so the order rectangles, rows and columns run in is free. Running
//! pass-major over a strip — every lane's loads for a pass before any of
//! the next pass's — therefore reorders only accesses that are independent.
//! So does a sink, whose lane `l` stores its cell before lanes `l + 1 …`
//! of the same pass load theirs: the cell belongs to iteration `l` alone,
//! which no other iteration of the loop reads, and which iteration `l`
//! itself reads only if its value depended on itself, which single
//! assignment rules out. Each lane performs the scalar tape's operations in
//! the scalar tape's order, so results are bit-identical. Memory safety
//! does not depend on any of this: every access is range-checked against
//! its buffer, once per strip for a unit stride and per lane otherwise.
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
//! **path** ([`Path`]) of passes ([`Pass`]) — a load is no op but the
//! memory operand of its consumer, so `load → store` is one range copy,
//! and constants are lanes broadcast once per run.
//!
//! [`StripPlan::run`] walks the tree once per rectangle, at its corner, to
//! pick the path; evaluates each address class's anchor once per nest (per
//! row when rectangles are one row high); and runs strips that see no
//! branch and evaluate no address: rows along `J`, stepping every access by
//! its `I`-stride from row to row, except that a one-column rectangle runs
//! down `I` as strided strips. A Jacobi plane is nine rectangles:
//! four one-cell corners, two edge rows, two edge columns of one strided
//! copy per 128 rows, and the interior of one two-pass strip per row. A
//! `DOALL` that is not a nest — a 1-D loop, or one inside a `DO` — is the
//! height-1 case: one row, cut along `J` alone.

use crate::compiled::{Addr, CompiledEq, ExecProg, Frame, OutSpec, SymAddr, Tapes};
use crate::ndarray::ParVec;
use crate::value::Value;
use ps_analyze::{ADim, Flow, Insn, Reg};
use ps_lang::{DataId, EqId, HirModule, IvId};
use ps_scheduler::{Descriptor, Flowchart, LoopDescriptor, LoopKind};
use ps_support::idx::{Idx, IndexVec};
use ps_support::SmallVec;
use std::cell::Cell;
use std::fmt;

/// Lanes per strip: a 128-cell row of Figure 6's plane is one strip, its
/// 126 interior cells too. 128 doubles are 1 KB per register, so the lane
/// file of Figure 6's `eq.3` (nine `f`-registers) is 9 KB and stays in L1;
/// a worker holds one lane file, the widest stripped equation's.
pub const W: usize = 128;

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
/// strips (each pass dispatched once per [`W`] iterations of a `DOALL` and
/// applied to `W` lanes) or one tape walk per cell. Decided once, when the
/// tapes are lowered; see [`crate::Program::strip_report`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StripVerdict {
    /// Strip-mined along the named loop counter, `within` the outer
    /// counter of a `DOALL` nest walked as one — `by_row` when its
    /// rectangles are one row high. `paths` are the distinct bodies its
    /// branches select between: `copy` for one range copy, else `compute`,
    /// each with the number of passes a strip dispatches (a store its last
    /// pass sinks into counts as none).
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

/// The four arithmetic `f`-ops, which a pass can fuse in pairs.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Arith {
    Add,
    Sub,
    Mul,
    Div,
}

impl Arith {
    fn of(insn: Insn) -> Option<Arith> {
        match insn {
            Insn::AddF { .. } => Some(Arith::Add),
            Insn::SubF { .. } => Some(Arith::Sub),
            Insn::MulF { .. } => Some(Arith::Mul),
            Insn::DivF { .. } => Some(Arith::Div),
            _ => None,
        }
    }
}

/// What a strip dispatches once for all its lanes: one op of the tape, or
/// two fused. A `LoadF` is neither: its consumers read the access.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Pass {
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
    /// `g(f(a, b), c)`, or `g(c, f(a, b))` when `swap`: an arithmetic op
    /// and the next, the only reader of its result, which no lane holds.
    Pair {
        f: Arith,
        g: Arith,
        a: Src,
        b: Src,
        c: Src,
        swap: bool,
        dst: u16,
    },
}

impl Pass {
    /// The register whose lanes the pass writes.
    fn dst(&self) -> u16 {
        match *self {
            Pass::Scalar { dst, .. }
            | Pass::Widen { dst, .. }
            | Pass::F { dst, .. }
            | Pass::Pair { dst, .. } => dst,
        }
    }

    /// The `f` operands the pass reads.
    fn reads(&self) -> [Option<Src>; 3] {
        match *self {
            Pass::Scalar { .. } | Pass::Widen { .. } => [None; 3],
            Pass::F { a, b, .. } => [Some(a), b, None],
            Pass::Pair { a, b, c, .. } => [Some(a), Some(b), Some(c)],
        }
    }
}

/// One straight-line body of a stripped tape: its accesses, the store's
/// last, and the passes that compute what the store writes.
#[derive(PartialEq, Debug)]
struct Path {
    accs: Vec<Access>,
    passes: Vec<Pass>,
    /// The values the store writes into the last access.
    store: Src,
}

impl Path {
    /// Whether the store alone reads the last pass's result: the pass then
    /// writes the store's cells itself wherever they are contiguous.
    fn sinks(&self) -> bool {
        let last = self.passes.last().map(|p| Src::Lane(p.dst()));
        last.is_some_and(|last| last == self.store)
    }

    /// The access the store writes.
    fn sink(&self) -> u16 {
        self.accs.len() as u16 - 1
    }
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
    /// The `f`-registers no instruction writes (constants and parameters)
    /// that some path reads as lanes: each run broadcasts them first.
    presets: SmallVec<u16>,
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
        presets: SmallVec::new(),
    };
    plan.walk(ceq, 0, &mut (Vec::new(), vec![None; ceq.n_f as usize]))?;
    let read = |r: u16| {
        let lane = Some(Src::Lane(r));
        let mut paths = plan.paths.iter();
        paths.any(|p| p.store == Src::Lane(r) || p.passes.iter().any(|o| o.reads().contains(&lane)))
    };
    let fixed_f = ceq.consts_f.iter().map(|&(r, _)| r);
    let fixed_f = fixed_f.chain(ceq.preload_f.iter().map(|&(r, _)| r));
    plan.presets = fixed_f.filter(|&r| read(r)).collect();
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

/// Lower one body of an eligible tape to passes. `loaded` is scratch: the
/// access whose `LoadF` wrote each register last, if a load did — reading
/// the register is then reading the access.
fn lower_path(ceq: &CompiledEq, body: &[usize], loaded: &mut [Option<u16>]) -> Path {
    let mut accs = Vec::with_capacity(body.len() + 1);
    let mut ops = Vec::with_capacity(body.len() + 1);
    loaded.fill(None);
    let src = |r: u16, loaded: &[Option<u16>]| loaded[r as usize].map_or(Src::Lane(r), Src::Mem);
    for &pc in body {
        let op = match ceq.insns[pc] {
            Insn::LoadF { buf, addr, dst } => {
                loaded[dst as usize] = Some(accs.len() as u16);
                let reg = dst;
                accs.push(Access { buf, addr, reg });
                continue;
            }
            Insn::ReadScalar {
                slot,
                dst: Reg::F(dst),
            } => Pass::Scalar { slot, dst },
            Insn::CastIF { a, dst } => Pass::Widen { a, dst },
            insn => {
                let ops = insn.operands();
                let (Some(Reg::F(dst)), [Some(a), b]) = (ops.def, ops.uses) else {
                    unreachable!("strip plans hold f-ops, not {insn:?}")
                };
                let (a, b) = (src(a.index(), loaded), b.map(|b| src(b.index(), loaded)));
                Pass::F { insn, a, b, dst }
            }
        };
        loaded[op.dst() as usize] = None;
        ops.push(op);
    }
    let (OutSpec::ArrayF { buf, addr }, Reg::F(reg)) = (ceq.out, ceq.src) else {
        unreachable!("strip plans store into a real array")
    };
    let store = src(reg, loaded);
    accs.push(Access { buf, addr, reg });
    // Fuse in place: pass `w` is written only once ops `w..` are read.
    let (mut read, mut w) = (0, 0);
    while read < ops.len() {
        let pair = pair(&ops[read..], store);
        ops[w] = pair.unwrap_or(ops[read]);
        (read, w) = (read + 1 + usize::from(pair.is_some()), w + 1);
    }
    ops.truncate(w);
    Path {
        accs,
        passes: ops,
        store,
    }
}

/// `ops[0]` and `ops[1]` as one pass, when both are arithmetic and the
/// second is the only read of the first's result (the store being the
/// last). Each lane still computes `f` and then `g`, rounding after each,
/// as the tape does. A path writes each register once, so the accesses
/// the pair gathers land in distinct lanes.
fn pair(ops: &[Pass], store: Src) -> Option<Pass> {
    let (
        Pass::F {
            insn: f,
            a,
            b: Some(b),
            dst: t,
        },
        Some(&Pass::F {
            insn: g,
            a: x,
            b: Some(y),
            dst,
        }),
    ) = (ops[0], ops.get(1))
    else {
        return None;
    };
    let (f, g, tmp) = (Arith::of(f)?, Arith::of(g)?, Src::Lane(t));
    let (swap, c) = match (x == tmp, y == tmp) {
        (true, false) => (false, y),
        (false, true) => (true, x),
        _ => return None,
    };
    let mut later = ops[2..].iter().flat_map(Pass::reads);
    if store == tmp || later.any(|s| s == Some(tmp)) {
        return None;
    }
    Some(Pass::Pair {
        f,
        g,
        a,
        b,
        c,
        swap,
        dst,
    })
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
        // A store its last pass sinks into is no pass of its own.
        let shape = |p: &Path| match (&p.passes[..], p.store) {
            ([], Src::Mem(_)) => ("copy", 1),
            (passes, _) => ("compute", passes.len() + usize::from(!p.sinks())),
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

/// The operands one pass resolved and where it writes: lanes or cells of
/// an array, one per iteration of the strip. A pass may write the register
/// it reads and an array is shared with other workers, so all are shared
/// cells.
struct Lanes<'a> {
    a: &'a [Cell<f64>],
    b: &'a [Cell<f64>],
    c: &'a [Cell<f64>],
    out: &'a [Cell<f64>],
}

impl Lanes<'_> {
    #[inline(always)]
    fn un(&self, f: impl Fn(f64) -> f64) {
        for (d, x) in self.out.iter().zip(self.a) {
            d.set(f(x.get()));
        }
    }

    #[inline(always)]
    fn bin(&self, f: impl Fn(f64, f64) -> f64) {
        for (d, (x, y)) in self.out.iter().zip(self.a.iter().zip(self.b)) {
            d.set(f(x.get(), y.get()));
        }
    }

    /// `g(f(a, b), c)` lane by lane — `g(c, f(a, b))` when `swap`.
    #[inline(always)]
    fn pair(&self, f: impl Fn(f64, f64) -> f64, g: impl Fn(f64, f64) -> f64, swap: bool) {
        let lanes = self.out.iter().zip(self.a.iter().zip(self.b).zip(self.c));
        if swap {
            for (d, ((x, y), z)) in lanes {
                d.set(g(z.get(), f(x.get(), y.get())));
            }
        } else {
            for (d, ((x, y), z)) in lanes {
                d.set(g(f(x.get(), y.get()), z.get()));
            }
        }
    }
}

/// Bind `$f` to the [`fop`] of the arithmetic op `$op` in `$body`: one
/// copy of `$body` per op, so a pair's two nested in each other make one
/// kernel for each of the 4 × 4 pairs.
macro_rules! with_arith {
    ($op:expr, |$f:ident| $body:expr) => {
        match $op {
            Arith::Add => {
                let $f = fop::add;
                $body
            }
            Arith::Sub => {
                let $f = fop::sub;
                $body
            }
            Arith::Mul => {
                let $f = fop::mul;
                $body
            }
            Arith::Div => {
                let $f = fop::div;
                $body
            }
        }
    };
}

/// One line of a rectangle — a row or a column — bound to a run.
struct Line<'a, 'r, 'm> {
    /// The counter the line runs along, and which of [`Stride::by`] steps
    /// its accesses.
    along: u16,
    by: usize,
    path: &'a Path,
    prog: &'a ExecProg<'r, 'm>,
    /// The run's [`strides`], the worker's lanes and the `i`-registers.
    strides: &'a [Stride],
    lanes: &'a [Cell<f64>],
    ints: &'a [i64],
}

impl StripPlan {
    /// Run equation `eq` of `prog`, whose plan this is, over `cols` of its
    /// `DOALL`'s counter: on `rows` of the outer counter when the plan is a
    /// nest's, else on the one row the frame's counters stand on. `lanes`
    /// is the worker's lane file, at least [`W`] per `f`-register of `eq`.
    pub(crate) fn run(
        &self,
        prog: &ExecProg,
        eq: EqId,
        frame: &mut Frame,
        lanes: &mut [f64],
        rows: Option<(i64, i64)>,
        (lo, hi): (i64, i64),
    ) {
        debug_assert!(rows.is_none() || self.outer.is_some(), "rows of no nest");
        // The lane file is any equation's scratch between runs: the
        // registers no instruction writes are broadcast again.
        for &r in &self.presets {
            lanes[r as usize * W..][..W].fill(frame.f[r as usize]);
        }
        let lanes = Cell::from_mut(lanes).as_slice_of_cells();
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
                self.rect(prog, path, strides, frame, lanes, [(j0, j1), (i0, i1)]);
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
        lanes: &[Cell<f64>],
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
                lanes,
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
        // The last pass writes the store's cells in place when the store
        // alone reads it and they are contiguous; else its lanes, which the
        // store then copies out.
        let (buf, off, stride, _) = place(self.path.sink());
        let sunk = (self.path.sinks() && stride == 1).then(|| self.prog.sink_strip(buf, off, n));
        let last = self.path.passes.len().wrapping_sub(1);
        for (k, &pass) in self.path.passes.iter().enumerate() {
            let out = match sunk {
                Some(cells) if k == last => cells,
                _ => lane(pass.dst()),
            };
            match pass {
                Pass::Scalar { slot, .. } => match self.prog.store.read_slot(slot as usize) {
                    Some(Value::Real(x)) => out.iter().for_each(|d| d.set(x)),
                    other => panic!("scalar slot {slot} holds {other:?}, tape expects a real"),
                },
                Pass::Widen { a, .. } => {
                    // `real(J)` of the counter the line runs along differs
                    // per lane.
                    let along = (a == self.along) as usize;
                    let (at, step) = [(self.ints[a as usize], 0), (first, 1)][along];
                    for (l, d) in out.iter().enumerate() {
                        d.set(fop::widen(at + step * l as i64));
                    }
                }
                Pass::F { insn, a, b, .. } => {
                    let a = src(a);
                    let b = b.map_or(a, src);
                    let known = apply_f(insn, &Lanes { a, b, c: a, out });
                    assert!(known, "strip path holds {insn:?}");
                }
                Pass::Pair {
                    f,
                    g,
                    a,
                    b,
                    c,
                    swap,
                    ..
                } => {
                    let (a, b, c) = (src(a), src(b), src(c));
                    let lanes = Lanes { a, b, c, out };
                    with_arith!(f, |f| with_arith!(g, |g| lanes.pair(f, g, swap)))
                }
            }
        }
        if sunk.is_none() {
            self.prog
                .store_strip(buf, off, stride, src(self.path.store));
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
    /// copy for the four boundary guards together, and an interior of two
    /// passes — three adds and the multiply `/ 4` lowers to, fused in
    /// pairs, the second writing the store's cells; its four loads are
    /// operands, not ops.
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
        assert_eq!(paths("eq.3"), [("copy", 1), ("compute", 2)]);
    }

    /// The paths of `label` in `src`, lowered as the runtime would.
    fn paths_of(src: &str, label: &str) -> Vec<Path> {
        let (m, sched) = build(src);
        let plan = StorePlan::new(&m, &sched.memory);
        let mut tapes = compile_tapes(&m, &plan, &sched.flowchart, false);
        tapes.plan_strips(&m, &plan, &sched.flowchart);
        let eq = m.equation_by_label(label).unwrap();
        let ceq = tapes.eqs[eq].take().unwrap();
        ceq.strip.unwrap().paths
    }

    /// Figure 6's interior is two passes: `(a + b) + c` into the lanes of
    /// the second add, then `(t + d) · 0.25` straight into `A[K]`, the
    /// store's cells — four loads read in place, the constant broadcast.
    /// Its boundary is one range copy.
    #[test]
    fn jacobi_interior_is_two_passes_and_its_boundary_one_copy() {
        let [copy, interior] = &paths_of(JACOBI, "eq.3")[..] else {
            panic!("two paths")
        };
        assert_eq!((&copy.passes[..], copy.store), (&[][..], Src::Mem(0)));
        let [Pass::Pair {
            f: Arith::Add,
            g: Arith::Add,
            a: Src::Mem(0),
            b: Src::Mem(1),
            c: Src::Mem(2),
            swap: false,
            dst: t,
        }, Pass::Pair {
            f: Arith::Add,
            g: Arith::Mul,
            a: Src::Lane(t2),
            b: Src::Mem(3),
            c: Src::Lane(quarter),
            swap: false,
            dst,
        }] = interior.passes[..]
        else {
            panic!("{:?}", interior.passes)
        };
        assert_eq!(t, t2);
        assert_ne!(quarter, t);
        assert_eq!(interior.store, Src::Lane(dst));
        assert!(interior.sinks() && !copy.sinks());
        assert_eq!(interior.sink(), 4);
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
        let [copy, compute] = &paths_of(src, "eq.1")[..] else {
            panic!("two paths")
        };
        assert_eq!((&copy.passes[..], copy.store), (&[][..], Src::Mem(0)));
        assert_eq!(copy.sink(), 1);
        // `xs[I] * xs[I]` lowers to two loads with one consumer each, and
        // the multiply and the add are one pass the store sinks.
        assert!(matches!(
            compute.passes[..],
            [Pass::Pair {
                f: Arith::Mul,
                g: Arith::Add,
                a: Src::Mem(0),
                b: Src::Mem(1),
                c: Src::Mem(2),
                swap: false,
                ..
            }]
        ));
        assert!(compute.sinks());
    }

    /// A pair fuses an op only into the next one, the single reader of its
    /// result, on either side of that reader; a result read twice, or read
    /// by an op further on, stays in its lanes.
    #[test]
    fn a_pair_fuses_a_result_read_once_and_next() {
        let grid = |body: &str| {
            format!(
                "T: module (a: array[I] of real; b: array[I] of real; c: array[I] of real;
                        n: int): [out: array[I] of real];
                    type I = 1 .. n;
                    define out[I] = {body};
                    end T;"
            )
        };
        let shape = |body: &str| {
            let [path] = &paths_of(&grid(body), "eq.1")[..] else {
                panic!("one path")
            };
            let kinds = path.passes.iter().map(|p| match *p {
                Pass::Pair { swap: false, .. } => "g(f, c)",
                Pass::Pair { swap: true, .. } => "g(c, f)",
                _ => "op",
            });
            (kinds.collect::<Vec<_>>(), path.sinks())
        };
        assert_eq!(shape("c[I] - a[I] * b[I]"), (vec!["g(c, f)"], true));
        assert_eq!(shape("c[I] / (a[I] - b[I])"), (vec!["g(c, f)"], true));
        // The next op does not read the first product: it stays in lanes.
        assert_eq!(
            shape("(a[I] * b[I]) + (b[I] * c[I])"),
            (vec!["op", "g(c, f)"], true)
        );
        // A unary op neither fuses nor is fused, and still sinks.
        assert_eq!(shape("abs(a[I] + b[I])"), (vec!["op", "op"], true));
        assert_eq!(shape("a[I] + b[I] + c[I]"), (vec!["g(f, c)"], true));
        // A lone op sinks; a store of a constant has no pass to sink.
        assert_eq!(shape("a[I] * 2.0"), (vec!["op"], true));
        assert_eq!(shape("1.5"), (vec![], false));
    }

    /// Lowered tapes are trees, so no temporary has two readers; the rule
    /// for one that has is pinned on hand-built ops.
    #[test]
    fn a_result_read_again_later_is_no_pairs_f() {
        let f = |insn, a, b, dst| Pass::F {
            insn,
            a,
            b: Some(b),
            dst,
        };
        let (x, y, z) = (Src::Mem(0), Src::Mem(1), Src::Mem(2));
        let add = Insn::AddF { a: 0, b: 0, dst: 0 };
        let mul = Insn::MulF { a: 0, b: 0, dst: 0 };
        let (t, u, v) = (Src::Lane(10), Src::Lane(11), Src::Lane(12));
        // t = x + y; u = t * z; v = u + t: `t` is read again after `u`.
        let ops = [f(add, x, y, 10), f(mul, t, z, 11), f(add, u, t, 12)];
        assert_eq!(pair(&ops, v), None);
        // ... and so it is when the store reads it.
        assert_eq!(pair(&ops[..2], t), None);
        assert!(pair(&ops[..2], u).is_some());
        // `t * t` reads it twice in one op.
        assert_eq!(pair(&[ops[0], f(mul, t, t, 11)], u), None);
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
            "stripped along J, row by row — 2 paths: compute(1), copy(1)"
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
            presets: SmallVec::new(),
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
            presets: SmallVec::new(),
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
