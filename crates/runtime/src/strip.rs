//! Strip-mined tape execution for innermost `DOALL`s: a second *walker*
//! over the same validated tapes as `compiled::ExecProg::exec_tape`.
//!
//! The scalar walker dispatches every tape instruction once per cell and
//! re-derives every address (window `mod` included) once per cell. For a
//! single-equation innermost `DOALL` body this walker instead runs the
//! tape once per **strip** of up to [`W`] consecutive iterations:
//! `f`-registers become lanes (`W` values each), an instruction is
//! dispatched once and applied to all lanes in a counted loop, and an
//! address is evaluated at the strip's first iteration and advanced by its
//! inner-counter stride — a unit stride is one range copy.
//!
//! # Legality
//!
//! The scheduler marks a loop `DOALL` exactly when no iteration reads a
//! cell another iteration of the same loop writes, and single assignment
//! means no two iterations write the same cell — the contract
//! `ParVec::set` already rests on. Running instruction-major over a strip
//! (all loads of the strip, then all arithmetic, then all stores) therefore
//! reorders only accesses that are independent, and each lane performs the
//! scalar tape's operations in the scalar tape's order, so results are
//! bit-identical (no reassociation, no fused multiply-add). Memory safety
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
//! * the inner counter appears in no dimension the memory plan windowed.
//!
//! Everything else keeps the scalar loop, which pays one branch per row.
//!
//! # Control flow
//!
//! Branches are handled by **index-set splitting**, not predication (the
//! untaken arm of a boundary guard reads out of bounds). A branch compares
//! the inner counter with a value `v` that is fixed along the row, so its
//! outcome can only change at `v` and `v + 1`; [`Row::run`] cuts the row
//! there. Between cuts every branch has one outcome, which the walker
//! reads off the scalar frame holding the strip's first iteration, and
//! the path through the tape is straight-line for the whole strip. A
//! Jacobi row splits into `[0]`, `[1..M]`, `[M+1]`.

use crate::compiled::{Addr, CompiledEq, ExecProg, Frame, Insn, OutSpec, Reg, SymAddr, Tapes};
use crate::value::Value;
use ps_lang::{DataId, EqId, HirModule, IvId};
use ps_scheduler::{Descriptor, Flowchart, LoopDescriptor, LoopKind};
use ps_support::idx::{Idx, IndexVec};
use std::cell::Cell;
use std::fmt;

/// Lanes per strip. 64 doubles are 512 bytes per register: the lane file
/// of Figure 6's `eq.3` (nine `f`-registers) is 4.5 KB and stays in L1.
pub(crate) const W: usize = 64;

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
        })
    }
}

/// How one scheduled equation executes inside its innermost loop: in
/// strips (each tape instruction dispatched once per 64 iterations of a
/// `DOALL` and applied to 64 lanes) or one tape walk per cell. Decided
/// once, when the tapes are lowered; see [`crate::Program::strip_report`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StripVerdict {
    /// Strip-mined along the named loop counter.
    Stripped { along: String },
    /// One tape walk per cell.
    Scalar(ScalarReason),
}

impl fmt::Display for StripVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StripVerdict::Stripped { along } => write!(f, "stripped along {along}"),
            StripVerdict::Scalar(why) => write!(f, "scalar: {why}"),
        }
    }
}

/// The parameter-independent half of a strip: which `i`-register is the
/// inner counter and where rows must be cut.
#[derive(Debug)]
pub(crate) struct StripPlan {
    inner: u16,
    /// Registers some branch compares the inner counter with; each holds a
    /// value `v` fixed along a row, and rows are cut at `v` and `v + 1`.
    cuts: Vec<u16>,
}

/// Record on every equation lowered under `items` whether it strips (see
/// *Eligibility* in the module docs). `enclosing` is the loop `items` is
/// the body of; `windowed(array, dim)` is the memory plan's window
/// decision.
pub(crate) fn plan_tapes(
    eqs: &mut IndexVec<EqId, Option<CompiledEq>>,
    module: &HirModule,
    items: &[Descriptor],
    enclosing: Option<&LoopDescriptor>,
    checked: bool,
    windowed: &dyn Fn(DataId, usize) -> bool,
) {
    for d in items {
        match d {
            Descriptor::Loop(l) => plan_tapes(eqs, module, &l.body, Some(l), checked, windowed),
            Descriptor::Drain(_) => {}
            Descriptor::Equation(eq) => {
                let ceq = eqs[*eq].as_mut().expect("scheduled equations are lowered");
                let n_counters = module.equations[*eq].ivs.len();
                ceq.strip = match enclosing {
                    Some(l) if l.kind == LoopKind::Doall => match l.bindings[..] {
                        [(bound, iv)] if items.len() == 1 && bound == *eq => {
                            let inner = iv.index() as u16;
                            plan(ceq, n_counters, inner, checked, windowed)
                        }
                        _ => Err(ScalarReason::MultiEquationBody),
                    },
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
            let mut dims = a.dims.iter().enumerate();
            dims.any(|(d, dim)| dim.terms.iter().any(|&(r, c)| c != 0 && pred(a, d, r)))
        })
    };
    if any_term(&|_, _, r| !fixed(r)) {
        return Err(ScalarReason::DynamicSubscript);
    }
    let mut cuts = Vec::new();
    for insn in &ceq.insns {
        match *insn {
            Insn::Jump { .. } | Insn::LoadF { .. } | Insn::CastIF { .. } => {}
            Insn::ReadScalar { dst: Reg::F(_), .. } => {}
            Insn::JumpCmpI { a, b, .. } | Insn::JumpCmpINot { a, b, .. } => {
                // Both operands are fixed along a row or the counter
                // itself: nothing on an eligible tape writes an i-register.
                let other = if a == inner { b } else { a };
                if (a == inner) != (b == inner) && !cuts.contains(&other) {
                    cuts.push(other);
                }
            }
            Insn::JumpIf { .. }
            | Insn::JumpIfNot { .. }
            | Insn::JumpCmpF { .. }
            | Insn::JumpCmpFNot { .. } => return Err(ScalarReason::DataDependentBranch),
            f_op if is_f_op(f_op) => {}
            _ => return Err(ScalarReason::NonFWrite),
        }
    }
    if !matches!(ceq.out, OutSpec::ArrayF { .. }) {
        return Err(ScalarReason::NonFWrite);
    }
    if any_term(&|a, d, r| r == inner && windowed(a.array, d)) {
        return Err(ScalarReason::WindowedInnerDimension);
    }
    Ok(StripPlan { inner, cuts })
}

/// The per-layout half of a strip: each folded address's stride along the
/// inner counter (0 when the access does not move with it).
pub(crate) fn inner_strides(plan: &StripPlan, addrs: &[Addr]) -> Vec<i64> {
    let coeff = |terms: &[(u16, i64)]| {
        let at = terms.iter().find(|&&(r, _)| r == plan.inner);
        at.map_or(0, |&(_, c)| c)
    };
    addrs
        .iter()
        .map(|a| {
            // `fold_addr` makes a dimension special only when the memory
            // plan windowed it, and `plan` kept the counter out of those.
            assert!(
                a.special.iter().all(|w| coeff(&w.value.terms) == 0),
                "inner counter in a windowed dimension of a stripped equation"
            );
            coeff(&a.lin)
        })
        .collect()
}

impl Tapes {
    /// One verdict per scheduled equation, in execution order.
    pub(crate) fn strip_report(
        &self,
        module: &HirModule,
        flowchart: &Flowchart,
    ) -> Vec<(String, StripVerdict)> {
        // Counters are the leading i-registers in `IvId` order.
        let verdict = |eq: EqId| match &self.eqs[eq].as_ref().expect("lowered").strip {
            Ok(plan) => StripVerdict::Stripped {
                along: module.equations[eq].ivs[IvId::new(plan.inner as usize)]
                    .name
                    .to_string(),
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

/// Where an element-wise `f`-op finds its operands in a strip: the
/// [`Lanes`], or nowhere when [`plan`] only asks whether it is one.
trait FRegs {
    fn un(&mut self, a: u16, dst: u16, f: impl Fn(f64) -> f64);
    fn bin(&mut self, a: u16, b: u16, dst: u16, f: impl Fn(f64, f64) -> f64);
}

fn is_f_op(insn: Insn) -> bool {
    struct Probe;
    impl FRegs for Probe {
        fn un(&mut self, _: u16, _: u16, _: impl Fn(f64) -> f64) {}
        fn bin(&mut self, _: u16, _: u16, _: u16, _: impl Fn(f64, f64) -> f64) {}
    }
    apply_f(insn, &mut Probe)
}

/// Execute `insn` on `regs` if it is an element-wise `f`-op (register
/// operands in, one `f`-register out); `false`, untouched, otherwise.
#[inline(always)]
fn apply_f(insn: Insn, regs: &mut impl FRegs) -> bool {
    match insn {
        Insn::CopyF { src, dst } => regs.un(src, dst, fop::copy),
        Insn::AddF { a, b, dst } => regs.bin(a, b, dst, fop::add),
        Insn::SubF { a, b, dst } => regs.bin(a, b, dst, fop::sub),
        Insn::MulF { a, b, dst } => regs.bin(a, b, dst, fop::mul),
        Insn::DivF { a, b, dst } => regs.bin(a, b, dst, fop::div),
        Insn::MinF { a, b, dst } => regs.bin(a, b, dst, fop::min),
        Insn::MaxF { a, b, dst } => regs.bin(a, b, dst, fop::max),
        Insn::NegF { a, dst } => regs.un(a, dst, fop::neg),
        Insn::AbsF { a, dst } => regs.un(a, dst, fop::abs),
        Insn::SqrtF { a, dst } => regs.un(a, dst, fop::sqrt),
        Insn::ExpF { a, dst } => regs.un(a, dst, fop::exp),
        Insn::LnF { a, dst } => regs.un(a, dst, fop::ln),
        Insn::SinF { a, dst } => regs.un(a, dst, fop::sin),
        Insn::CosF { a, dst } => regs.un(a, dst, fop::cos),
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

/// The first `n` lanes of every `f`-register of one strip. Operands and
/// destination may be the same register, so lanes are shared cells.
struct Lanes<'a> {
    cells: &'a [Cell<f64>],
    n: usize,
}

impl<'a> Lanes<'a> {
    fn new(lanes: &'a mut [f64], n: usize) -> Lanes<'a> {
        Lanes {
            cells: Cell::from_mut(lanes).as_slice_of_cells(),
            n,
        }
    }

    #[inline(always)]
    fn reg(&self, r: u16) -> &'a [Cell<f64>] {
        &self.cells[r as usize * W..][..self.n]
    }
}

impl FRegs for Lanes<'_> {
    #[inline(always)]
    fn un(&mut self, a: u16, dst: u16, f: impl Fn(f64) -> f64) {
        for (d, x) in self.reg(dst).iter().zip(self.reg(a)) {
            d.set(f(x.get()));
        }
    }

    #[inline(always)]
    fn bin(&mut self, a: u16, b: u16, dst: u16, f: impl Fn(f64, f64) -> f64) {
        let operands = self.reg(a).iter().zip(self.reg(b));
        for (d, (x, y)) in self.reg(dst).iter().zip(operands) {
            d.set(f(x.get(), y.get()));
        }
    }
}

/// One stripped equation bound to a run: its tape and plan, the run's
/// specialized addresses and their [`inner_strides`].
pub(crate) struct Row<'a, 'r, 'm> {
    prog: &'a ExecProg<'r, 'm>,
    ceq: &'a CompiledEq,
    plan: &'a StripPlan,
    addrs: &'a [Addr],
    strides: &'a [i64],
}

impl<'a, 'r, 'm> Row<'a, 'r, 'm> {
    pub(crate) fn new(
        prog: &'a ExecProg<'r, 'm>,
        eq: EqId,
        ceq: &'a CompiledEq,
        plan: &'a StripPlan,
    ) -> Row<'a, 'r, 'm> {
        Row {
            prog,
            ceq,
            plan,
            addrs: &prog.spec.addrs[eq],
            strides: &prog.spec.strides[eq],
        }
    }

    /// Run the equation over the counter range `lo..=hi` of its `DOALL`.
    pub(crate) fn run(&self, frame: &mut Frame, lo: i64, hi: i64) {
        let mut first = lo;
        while first <= hi {
            // The segment starting at `first` ends just before the next cut.
            let mut last = hi;
            for &r in &self.plan.cuts {
                let v = frame.gi(r);
                for cut in [v, v.saturating_add(1)] {
                    if cut > first && cut - 1 < last {
                        last = cut - 1;
                    }
                }
            }
            while first <= last {
                let n = last.abs_diff(first).min(W as u64 - 1) as usize + 1;
                frame.si(self.plan.inner, first);
                self.strip(frame, n);
                match first.checked_add(n as i64) {
                    Some(next) => first = next,
                    None => return,
                }
            }
        }
    }

    /// Walk the tape once for the `n ≤ W` iterations starting at the one
    /// the scalar `frame` holds.
    fn strip(&self, frame: &mut Frame, n: usize) {
        let Row {
            prog,
            ceq,
            plan,
            addrs,
            strides,
        } = *self;
        let mut pc = 0usize;
        while let Some(&insn) = ceq.insns.get(pc) {
            pc += 1;
            match insn {
                Insn::Jump { target } => pc = target as usize,
                Insn::JumpCmpI { op, a, b, target } => {
                    if op.eval(frame.gi(a), frame.gi(b)) {
                        pc = target as usize;
                    }
                }
                Insn::JumpCmpINot { op, a, b, target } => {
                    if !op.eval(frame.gi(a), frame.gi(b)) {
                        pc = target as usize;
                    }
                }
                Insn::LoadF { buf, addr, dst } => {
                    let off = ExecProg::eval_addr(&addrs[addr as usize], frame);
                    let src = prog.bufs_f[buf as usize];
                    let out = &mut frame.lanes[dst as usize * W..][..n];
                    src.get_range(off, strides[addr as usize], out);
                }
                Insn::ReadScalar {
                    slot,
                    dst: Reg::F(dst),
                } => match prog.store.read_slot(slot as usize) {
                    Some(Value::Real(x)) => frame.lanes[dst as usize * W..][..n].fill(x),
                    other => panic!("scalar slot {slot} holds {other:?}, tape expects a real"),
                },
                Insn::CastIF { a, dst } => {
                    let v = frame.gi(a);
                    let out = &mut frame.lanes[dst as usize * W..][..n];
                    if a == plan.inner {
                        // `real(J)` of the inner counter differs per lane.
                        for (l, o) in out.iter_mut().enumerate() {
                            *o = fop::widen(v + l as i64);
                        }
                    } else {
                        out.fill(fop::widen(v));
                    }
                }
                f_op => {
                    let known = apply_f(f_op, &mut Lanes::new(&mut frame.lanes, n));
                    assert!(known, "strip plan admitted {f_op:?}");
                }
            }
        }
        let (OutSpec::ArrayF { buf, addr }, Reg::F(src)) = (ceq.out, ceq.src) else {
            unreachable!("strip plans require a real array store")
        };
        let off = ExecProg::eval_addr(&addrs[addr as usize], frame);
        let vals = &frame.lanes[src as usize * W..][..n];
        prog.store_strip(buf, off, strides[addr as usize], vals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::tests::{build, JACOBI};
    use crate::compiled::{compile_tapes, fold_addr, AffDim, SymAddr};
    use crate::ndarray::{DimSpec, NdSpec};
    use crate::store::StorePlan;

    /// The strip verdict of `label` in `src`, lowered as the runtime would.
    fn verdict(src: &str, label: &str, checked: bool) -> StripVerdict {
        let (m, sched) = build(src);
        let plan = StorePlan::new(&m, &sched.memory);
        let tapes = compile_tapes(&m, &plan, &sched.flowchart, checked, true);
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

    fn along(name: &str) -> StripVerdict {
        StripVerdict::Stripped {
            along: name.to_string(),
        }
    }

    #[test]
    fn jacobi_strips_every_equation_along_j() {
        for label in ["eq.1", "eq.2", "eq.3"] {
            assert_eq!(verdict(JACOBI, label, false), along("J"), "{label}");
        }
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
        let mut tapes = compile_tapes(&m, &plan, &sched.flowchart, false, true);
        let eq = m.equation_by_label("eq.1").unwrap();
        assert!(tapes.eqs[eq].as_ref().unwrap().strip.is_ok());
        let xs = m.data_by_name("xs").unwrap();
        plan_tapes(
            &mut tapes.eqs,
            &m,
            &sched.flowchart.items,
            None,
            false,
            &|a, _| a == xs,
        );
        assert_eq!(
            tapes.eqs[eq].as_ref().unwrap().strip.as_ref().unwrap_err(),
            &ScalarReason::WindowedInnerDimension
        );
    }

    #[test]
    #[should_panic(expected = "windowed dimension")]
    fn strides_refuse_a_counter_under_a_window_mod() {
        let sym = SymAddr {
            array: DataId::new(0),
            dims: vec![AffDim {
                base: 0,
                terms: vec![(0, 1)],
            }],
        };
        let layout = NdSpec {
            dims: vec![DimSpec {
                lo: 1,
                hi: 10,
                window: Some(2),
            }],
        };
        let plan = StripPlan {
            inner: 0,
            cuts: Vec::new(),
        };
        inner_strides(&plan, &[fold_addr(&sym, &layout, false)]);
    }

    #[test]
    fn strides_follow_the_physical_layout() {
        // a[J, I] read in an I-loop over a 4×5 array: stride 5; a[I] in a
        // J-loop: stride 0 along J.
        let sym = |terms: Vec<Vec<(u16, i64)>>| SymAddr {
            array: DataId::new(0),
            dims: terms
                .into_iter()
                .map(|terms| AffDim { base: 0, terms })
                .collect(),
        };
        let dim = |lo, hi| DimSpec {
            lo,
            hi,
            window: None,
        };
        let layout = NdSpec {
            dims: vec![dim(1, 4), dim(1, 5)],
        };
        let plan = StripPlan {
            inner: 0,
            cuts: Vec::new(),
        };
        let addrs = [
            fold_addr(&sym(vec![vec![(0, 1)], vec![(1, 1)]]), &layout, false),
            fold_addr(&sym(vec![vec![(1, 1)], vec![(0, 1)]]), &layout, false),
            fold_addr(&sym(vec![vec![(1, 1)], vec![(1, 1)]]), &layout, false),
        ];
        assert_eq!(inner_strides(&plan, &addrs), vec![5, 1, 0]);
    }
}
