//! The compiled evaluation engine: typed register bytecode, split along
//! the compile-once / run-many seam.
//!
//! Lowering happens **once per [`crate::Program`]**, not once per run.
//! Every equation scheduled in the flowchart is lowered to a flat
//! postorder instruction tape over *typed, untagged* registers — separate
//! `f64` / `i64` / `bool` files, with types synthesized ahead of time by
//! `HirModule::expr_scalar_ty`. An iteration of a `DO`/`DOALL` body then
//! executes as a non-recursive tape walk with direct buffer loads and
//! stores. The instruction set itself — [`Insn`] over [`Reg`]s, with
//! [`CmpOp`] — is defined once, in `ps_analyze::ir`, below this crate: the
//! verifier reads the very tapes this module executes, and every pass that
//! reads a tape without running it (`validate`, the strip planner, the
//! verifier) learns an instruction's operands from [`Insn::operands`]. Only
//! the walkers here and in [`crate::strip`] match on variants, to give them
//! their meaning. The artifact splits in three:
//!
//! * [`Tapes`] — the parameter-*independent* program: instruction tapes,
//!   register-file sizes, constant pools, the parameter-register preload
//!   table, and *symbolic* addresses ([`SymAddr`]: per-dimension affine
//!   forms over registers, not yet folded against any layout).
//! * [`Spec`] — one cheap per-parameter-layout *specialization*: every
//!   symbolic address folded against the concrete array layouts into
//!   strength-reduced physical offsets. Cached per distinct integer
//!   parameter vector, so repeat runs skip it entirely.
//! * [`ExecProg`] — one run's execution view: the tapes + spec + the live
//!   store's typed buffers resolved by index.
//!
//! The engine's invariants:
//!
//! * **No tagged dispatch**: every instruction knows its operand types, so
//!   there is no per-node `Value` matching.
//! * **Counters are registers**: the first `i64` registers of each
//!   equation's frame *are* its loop counters — binding a `DO`/`DOALL`
//!   index is one store, and reading `I` in an expression costs nothing.
//! * **Parameters are registers too**: a module parameter read costs
//!   nothing per iteration — each equation's frame preloads the live
//!   parameter values once per run ([`Frames::bind_params`]), and
//!   pure-integer parameter expressions (`M+1` in a boundary guard) are
//!   hoisted into *derived* registers evaluated once per run, so the tape
//!   is exactly as short as the old fold-parameters-as-constants lowering.
//! * **Strength-reduced subscripts**: each array access is folded (at
//!   specialization time) against the array's *physical* layout into
//!   `base + Σ cᵢ·regᵢ` (coefficients pre-multiplied by physical strides;
//!   dynamic subscripts and parameter terms join the dot product through
//!   the register holding their value); the window `mod` survives only for
//!   genuinely windowed dimensions.
//! * **Branch-lowered guards**: `if` conditions emit conditional jumps
//!   directly (short-circuit `and`/`or` become control flow), so boundary
//!   guards never materialize intermediate booleans.
//! * **Zero per-iteration allocations**: registers — and one lane file
//!   for the equations that strip — live in per-worker reusable
//!   [`Frames`]; the tape only indexes into them — with *unchecked*
//!   indexing, justified by a full validation pass over every lowered tape
//!   (`validate`) at compile time.
//! * **Innermost `DOALL`s run in strips** ([`crate::strip`], a second
//!   walker for the same tapes): a single-equation `DOALL` body whose
//!   tape is unchecked, stores into a real array, writes only
//!   `f`-registers, subscripts only never-written registers, branches only
//!   on integer compares, and keeps its counter out of windowed dimensions
//!   is lowered once more, into the straight-line paths its branches select
//!   between; a nest of two `DOALL`s picks a path per rectangle its
//!   branches cut it into (a lone `DOALL`, per row segment) and dispatches
//!   its passes — one op, or two arithmetic ops fused, the last writing the
//!   store's cells when they are contiguous — once per 128 iterations,
//!   each applied to 128 lanes. Legal because a `DOALL`'s iterations
//!   neither read nor write each other's cells (the contract `ParVec::set`
//!   rests on), so pass-major order reorders only independent accesses;
//!   bit-identical because each lane runs the scalar tape's operations in
//!   its order. Eligibility is decided
//!   once at lowering, never per call; everything else runs the scalar
//!   walker below.
//! * **Optional checked mode**: when built with `check_writes`, every load
//!   and store re-derives its *logical* index from the same affine forms
//!   and performs the tag transitions of `ArrayInstance`'s checked
//!   accessors (double-write and window-eviction detection) against the
//!   store's tag tables.
//!
//! Operation order is the post-order of the equation's `HExpr`, with
//! `and`/`or` and `if` evaluating only the side taken — the order
//! [`crate::naive`] evaluates in, so the differential suites can assert
//! bit-identical outputs against it.

#![deny(unsafe_op_in_unsafe_fn)]

use crate::ndarray::{NdSpec, ParVec, SharedBuffer};
use crate::store::{RuntimeError, Store, StorePlan};
use crate::strip::{self, fop, ScalarReason, StripPlan};
use crate::value::Value;
use ps_analyze::{ADim, CmpOp, Flow, Insn, Kind, Mem, Reg};
use ps_lang::ast::{BinOp, UnOp};
use ps_lang::hir::{Builtin, DataKind, Equation, HExpr, LhsSub, SubscriptExpr};
use ps_lang::{DataId, EqId, HirModule, IvId, ScalarTy, Ty};
use ps_scheduler::Flowchart;
use ps_support::diag::Diagnostic;
use ps_support::idx::{Idx, IndexVec};
use ps_support::{FxHashMap, SmallVec, Symbol};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicI64, Ordering};

/// The register kind of a scalar type: `char` and enumeration values are
/// carried as integers, mirroring [`Value`].
fn kind_of(ty: ScalarTy) -> Kind {
    match ty {
        ScalarTy::Real => Kind::F,
        ScalarTy::Int | ScalarTy::Char => Kind::I,
        ScalarTy::Bool => Kind::B,
    }
}

/// One array access before layout folding: the target array plus one
/// affine form per dimension ([`ADim`], `base + Σ cᵢ·regᵢ` over the
/// `i64` registers — the verifier reads these very forms), which sit in
/// the equation's one dimension table ([`CompiledEq::dims`]). Produced at
/// lowering time (parameter-free, zero coefficients dropped), folded into
/// an [`Addr`] per specialization.
#[derive(Clone, Copy, Debug)]
pub(super) struct SymAddr {
    pub(super) array: DataId,
    /// The access's dimensions are `addr_dims[first..first + rank]`.
    first: u32,
    rank: u32,
}

/// A windowed dimension: physical index is
/// `(value − lo).rem_euclid(window) · stride`.
#[derive(Clone, Debug)]
pub(super) struct WinDim {
    stride: i64,
    lo: i64,
    window: i64,
    pub(super) value: ADim,
}

/// One dimension's pre-fold affine value plus its logical bounds and
/// logical stride. Carried when the program checks writes (to re-derive
/// the logical index for the tag tables) and in debug builds (to assert
/// in-range subscripts with the same strictness as `NdSpec::offset`).
#[derive(Clone, Debug)]
struct ChkDim {
    value: ADim,
    lo: i64,
    hi: i64,
    lstride: i64,
}

/// A strength-reduced physical address: `base + Σ cᵢ·regᵢ` (coefficients
/// pre-multiplied by physical strides; constants, subscript offsets and
/// parameter-register terms folded in) plus the windowed remainder
/// dimensions. For any access into an unwindowed array — affine *or*
/// dynamic — `special` is empty and the address is a single dot product.
#[derive(Clone, Debug, Default)]
pub(super) struct Addr {
    pub(super) base: i64,
    pub(super) lin: Vec<(u16, i64)>,
    pub(super) special: Vec<WinDim>,
    /// Per-dimension logical views; empty in unchecked release builds.
    chk: Vec<ChkDim>,
}

/// A pure-integer expression over module parameters and constants.
///
/// Lowering hoists any such subexpression out of the per-iteration tape
/// into a *derived register* evaluated once per run
/// ([`Frames::bind_params`]) — the parameter-register generalisation of
/// constant folding: `M+1` in the jacobi boundary guard costs zero tape
/// instructions, for every value of `M`. Only total operators are
/// admitted (`div`/`mod` stay on the tape, where guards can protect
/// them), and arithmetic wraps — hoisting may evaluate an expression the
/// tape's guards would have skipped, so evaluation must never panic
/// (wrapping matches the release-mode semantics of the tape itself).
#[derive(Clone, Debug, PartialEq)]
pub(super) enum PInt {
    Const(i64),
    /// Index into the program's parameter table.
    Param(u16),
    Add(Box<PInt>, Box<PInt>),
    Sub(Box<PInt>, Box<PInt>),
    Mul(Box<PInt>, Box<PInt>),
    Min(Box<PInt>, Box<PInt>),
    Max(Box<PInt>, Box<PInt>),
    Neg(Box<PInt>),
    Abs(Box<PInt>),
}

impl PInt {
    /// Fold constant operands eagerly so a parameter-free expression
    /// collapses to `Const` (and lands in the constant pool instead).
    fn bin(op: BinOp, a: PInt, b: PInt) -> PInt {
        if let (PInt::Const(x), PInt::Const(y)) = (&a, &b) {
            return PInt::Const(match op {
                BinOp::Add => x.wrapping_add(*y),
                BinOp::Sub => x.wrapping_sub(*y),
                BinOp::Mul => x.wrapping_mul(*y),
                other => panic!("{other:?} is not a static int op"),
            });
        }
        match op {
            BinOp::Add => PInt::Add(Box::new(a), Box::new(b)),
            BinOp::Sub => PInt::Sub(Box::new(a), Box::new(b)),
            BinOp::Mul => PInt::Mul(Box::new(a), Box::new(b)),
            other => panic!("{other:?} is not a static int op"),
        }
    }

    fn min_max(is_min: bool, a: PInt, b: PInt) -> PInt {
        if let (PInt::Const(x), PInt::Const(y)) = (&a, &b) {
            return PInt::Const(if is_min { *x.min(y) } else { *x.max(y) });
        }
        if is_min {
            PInt::Min(Box::new(a), Box::new(b))
        } else {
            PInt::Max(Box::new(a), Box::new(b))
        }
    }

    fn neg(a: PInt) -> PInt {
        match a {
            PInt::Const(x) => PInt::Const(x.wrapping_neg()),
            a => PInt::Neg(Box::new(a)),
        }
    }

    fn abs(a: PInt) -> PInt {
        match a {
            PInt::Const(x) => PInt::Const(x.wrapping_abs()),
            a => PInt::Abs(Box::new(a)),
        }
    }

    /// Evaluate under the run's parameter values. Wrapping on purpose:
    /// this may run for an expression the tape's guards would have
    /// skipped, so it must be panic-free even in debug builds.
    fn eval(&self, params: &[Value]) -> i64 {
        match self {
            PInt::Const(v) => *v,
            PInt::Param(ix) => params[*ix as usize].as_int(),
            PInt::Add(a, b) => a.eval(params).wrapping_add(b.eval(params)),
            PInt::Sub(a, b) => a.eval(params).wrapping_sub(b.eval(params)),
            PInt::Mul(a, b) => a.eval(params).wrapping_mul(b.eval(params)),
            PInt::Min(a, b) => a.eval(params).min(b.eval(params)),
            PInt::Max(a, b) => a.eval(params).max(b.eval(params)),
            PInt::Neg(a) => a.eval(params).wrapping_neg(),
            PInt::Abs(a) => a.eval(params).wrapping_abs(),
        }
    }

    /// Visit every parameter reference, left to right (tape validation
    /// range-checks them).
    fn for_each_param(&self, visit: &impl Fn(u16)) {
        match self {
            PInt::Const(_) => {}
            PInt::Param(ix) => visit(*ix),
            PInt::Add(a, b)
            | PInt::Sub(a, b)
            | PInt::Mul(a, b)
            | PInt::Min(a, b)
            | PInt::Max(a, b) => {
                a.for_each_param(visit);
                b.for_each_param(visit);
            }
            PInt::Neg(a) | PInt::Abs(a) => a.for_each_param(visit),
        }
    }
}

/// The compiled result store of one equation.
#[derive(Clone, Copy, Debug)]
pub(super) enum OutSpec {
    Scalar { slot: u32 },
    ArrayF { buf: u16, addr: u16 },
    ArrayI { buf: u16, addr: u16 },
    ArrayB { buf: u16, addr: u16 },
}

impl OutSpec {
    /// The store's typed buffer and address-table entry, when it writes an
    /// array element.
    pub(super) fn mem(self) -> Option<Mem> {
        let (kind, buf, addr) = match self {
            OutSpec::Scalar { .. } => return None,
            OutSpec::ArrayF { buf, addr } => (Kind::F, buf, addr),
            OutSpec::ArrayI { buf, addr } => (Kind::I, buf, addr),
            OutSpec::ArrayB { buf, addr } => (Kind::B, buf, addr),
        };
        Some(Mem { kind, buf, addr })
    }
}

/// One lowered equation: instruction tape, symbolic address table,
/// register-file sizes, preloaded constants, the per-run preload tables
/// (parameter registers and derived integer registers), and the final
/// store. The first `n_counters` `i64` registers are the equation's loop
/// counters in [`IvId`] order.
pub(super) struct CompiledEq {
    pub(super) insns: Vec<Insn>,
    pub(super) sym_addrs: Vec<SymAddr>,
    /// Every access's dimensions, in address-table order.
    addr_dims: Vec<ADim>,
    pub(super) n_f: u16,
    pub(super) n_i: u16,
    pub(super) n_b: u16,
    pub(super) consts_f: Vec<(u16, f64)>,
    pub(super) consts_i: Vec<(u16, i64)>,
    pub(super) consts_b: Vec<(u16, bool)>,
    /// `(register, parameter-table index)` pairs filled per run.
    pub(super) preload_f: Vec<(u16, u16)>,
    pub(super) preload_i: Vec<(u16, u16)>,
    pub(super) preload_b: Vec<(u16, u16)>,
    /// Derived integer registers: hoisted pure-parameter expressions,
    /// evaluated once per run.
    pub(super) derived_i: Vec<(u16, PInt)>,
    pub(super) out: OutSpec,
    pub(super) src: Reg,
    /// Whether the equation's innermost `DOALL` runs in strips, decided
    /// once by [`Tapes::plan_strips`] when a `Program` is built.
    pub(super) strip: Result<StripPlan, ScalarReason>,
}

impl CompiledEq {
    /// The per-dimension affine forms of access `a`.
    pub(super) fn dims(&self, a: &SymAddr) -> &[ADim] {
        &self.addr_dims[a.first as usize..][..a.rank as usize]
    }

    /// Range-check every register, address, buffer, parameter and jump
    /// reference in the tape. Running this once at compile time makes the
    /// unchecked frame access in [`ExecProg::run_eq`] sound: execution can
    /// only touch indices this pass has seen. Specialization only *folds*
    /// the validated affine forms (it introduces no new registers), so
    /// specialized addresses need no second pass.
    ///
    /// Returns the list of faults (empty means the tape is well-formed);
    /// each names the offending instruction or table section, so the
    /// caller can surface a structural diagnostic instead of a bare index
    /// panic. The walk keeps only a position; text — the instruction's
    /// `Debug` form included — is built only for a fault, so a clean tape
    /// costs no formatting at all.
    fn validate(&self, n_bufs: [usize; 3], n_slots: usize, n_params: usize) -> Vec<String> {
        /// Where the walk stands: an instruction, or a table section.
        #[derive(Clone, Copy)]
        enum At {
            Insn(usize),
            Section(&'static str),
        }
        let faults: RefCell<Vec<String>> = RefCell::new(Vec::new());
        let at = Cell::new(At::Section("tape"));
        let fault = |msg: String| {
            let text = match at.get() {
                At::Insn(ix) => format!("insn {ix} `{:?}`: {msg}", self.insns[ix]),
                At::Section(name) => format!("{name}: {msg}"),
            };
            faults.borrow_mut().push(text);
        };
        let reg = |r: Reg| {
            let (file, r, n) = match r {
                Reg::F(r) => ('f', r, self.n_f),
                Reg::I(r) => ('i', r, self.n_i),
                Reg::B(r) => ('b', r, self.n_b),
            };
            if r >= n {
                fault(format!("{file}-register {r} out of range"));
            }
        };
        let mem = |m: Mem| {
            let (file, n) = match m.kind {
                Kind::F => ('f', n_bufs[0]),
                Kind::I => ('i', n_bufs[1]),
                Kind::B => ('b', n_bufs[2]),
            };
            if (m.buf as usize) >= n {
                fault(format!("{file}-buffer {} out of range", m.buf));
            }
            if (m.addr as usize) >= self.sym_addrs.len() {
                fault(format!("addr {} out of range", m.addr));
            }
        };
        let slot_ok = |slot: u32| {
            if (slot as usize) >= n_slots {
                fault(format!("slot {slot} out of range"));
            }
        };
        for (ix, insn) in self.insns.iter().enumerate() {
            at.set(At::Insn(ix));
            let ops = insn.operands();
            if let Some(slot) = ops.slot {
                slot_ok(slot);
            }
            if let Some(m) = ops.mem {
                mem(m);
            }
            for &r in ops.uses.iter().chain([&ops.def]).flatten() {
                reg(r);
            }
            if let Flow::Jump(t) | Flow::Branch { target: t, .. } = ops.flow {
                if (t as usize) > self.insns.len() {
                    fault(format!("jump {t} out of range"));
                }
            }
        }
        at.set(At::Section("address table"));
        for d in &self.addr_dims {
            for &(r, _) in &d.terms {
                reg(Reg::I(r));
            }
        }
        at.set(At::Section("constant pool"));
        self.consts_f.iter().for_each(|&(r, _)| reg(Reg::F(r)));
        self.consts_i.iter().for_each(|&(r, _)| reg(Reg::I(r)));
        self.consts_b.iter().for_each(|&(r, _)| reg(Reg::B(r)));
        at.set(At::Section("preload table"));
        let param = |p: u16| {
            if (p as usize) >= n_params {
                fault(format!("param {p} out of range"));
            }
        };
        let preload = |file: fn(u16) -> Reg, table: &[(u16, u16)]| {
            for &(r, p) in table {
                reg(file(r));
                param(p);
            }
        };
        preload(Reg::F, &self.preload_f);
        preload(Reg::I, &self.preload_i);
        preload(Reg::B, &self.preload_b);
        at.set(At::Section("derived registers"));
        for (r, p) in &self.derived_i {
            reg(Reg::I(*r));
            p.for_each_param(&param);
        }
        at.set(At::Section("output"));
        reg(self.src);
        if let OutSpec::Scalar { slot } = self.out {
            slot_ok(slot);
        }
        if let Some(m) = self.out.mem() {
            mem(m);
        }
        faults.into_inner()
    }
}

/// The parameter-independent compiled program: every scheduled equation's
/// tape plus the tables shared across runs. Immutable once built; one
/// [`Tapes`] serves any number of (possibly concurrent) runs.
pub(crate) struct Tapes {
    pub(super) eqs: IndexVec<EqId, Option<CompiledEq>>,
    /// Which array each typed buffer index refers to; resolved against the
    /// live store per run ([`ExecProg::new`]).
    buf_f: Vec<DataId>,
    buf_i: Vec<DataId>,
    buf_b: Vec<DataId>,
    /// The parameter-register table: scalar parameters in declaration
    /// order ([`HirModule::scalar_params`]).
    params: Vec<DataId>,
    /// Tape-level checked-writes mode: loads and stores perform the
    /// logical-tag transitions of `ArrayInstance`'s checked accessors.
    pub(crate) checked: bool,
}

impl Tapes {
    pub(crate) fn params(&self) -> &[DataId] {
        &self.params
    }

    /// Decide which equations run their innermost `DOALL` in strips
    /// ([`strip::plan_tapes`]). Only a [`crate::Program`] executes tapes, so
    /// only its construction pays for the plans; the verifier reads the
    /// instructions alone.
    pub(crate) fn plan_strips(&mut self, module: &HirModule, plan: &StorePlan, fc: &Flowchart) {
        let windowed = |array, dim| plan.dim_has_window(array, dim);
        strip::plan_tapes(
            &mut self.eqs,
            module,
            &fc.items,
            [None, None],
            self.checked,
            &windowed,
        );
    }

    /// Lowering statistics for one equation, used by tests: instruction
    /// count and address-table size.
    #[cfg(test)]
    fn stats(&self, eq: EqId) -> (usize, usize) {
        let ceq = self.eqs[eq].as_ref().expect("lowered");
        (ceq.insns.len(), ceq.sym_addrs.len())
    }
}

/// One specialization of a [`Tapes`]: every symbolic address folded
/// against the concrete array layouts induced by one integer parameter
/// vector. Building one is cheap — a few arithmetic folds per array
/// access — and the result is cached per vector, so the second run with
/// the same parameters does no lowering, validation, or folding at all.
pub(crate) struct Spec {
    pub(super) addrs: IndexVec<EqId, Vec<Addr>>,
    /// Per stripped equation, each address's strides along the inner and
    /// the outer counter of its nest and its offset in its class
    /// ([`strip::strides`]); empty for scalar equations.
    pub(super) strides: IndexVec<EqId, Vec<strip::Stride>>,
}

impl Spec {
    /// How many addresses of `eq` kept a windowed special dimension.
    #[cfg(test)]
    fn special_count(&self, eq: EqId) -> usize {
        self.addrs[eq].iter().map(|a| a.special.len()).sum()
    }
}

/// Fold one access's per-dimension affine subscripts against `spec`'s
/// physical layout into a strength-reduced [`Addr`] (the old per-run
/// lowering's `push_addr`, now executed once per parameter layout).
pub(super) fn fold_addr(dims: &[ADim], spec: &NdSpec, with_chk: bool) -> Addr {
    assert_eq!(dims.len(), spec.dims.len(), "subscript rank mismatch");
    let n = spec.dims.len();
    let mut strides = vec![1i64; n];
    let mut lstrides = vec![1i64; n];
    for d in (0..n.saturating_sub(1)).rev() {
        strides[d] = strides[d + 1] * spec.dims[d + 1].physical_width();
        lstrides[d] = lstrides[d + 1] * spec.dims[d + 1].logical_width();
    }
    let mut addr = Addr::default();
    for (d, value) in dims.iter().enumerate() {
        let ds = &spec.dims[d];
        let stride = strides[d];
        if with_chk {
            addr.chk.push(ChkDim {
                value: value.clone(),
                lo: ds.lo,
                hi: ds.hi,
                lstride: lstrides[d],
            });
        }
        match ds.window {
            // Genuinely windowed: the mod is load-bearing.
            Some(w) if w < ds.logical_width() => addr.special.push(WinDim {
                stride,
                lo: ds.lo,
                window: w,
                value: value.clone(),
            }),
            // Plain dimension: fold into the linear form.
            _ => {
                addr.base += (value.base - ds.lo) * stride;
                for &(r, c) in &value.terms {
                    match addr.lin.iter_mut().find(|(v, _)| *v == r) {
                        Some((_, existing)) => *existing += c * stride,
                        None => addr.lin.push((r, c * stride)),
                    }
                }
            }
        }
    }
    addr.lin.retain(|&(_, c)| c != 0);
    addr
}

/// Build the [`Spec`] for one parameter environment: evaluate each
/// referenced array's layout once, then fold every symbolic address.
pub(crate) fn specialize(
    tapes: &Tapes,
    plan: &StorePlan,
    module: &HirModule,
    params: &FxHashMap<Symbol, i64>,
    verified: Option<&[bool]>,
) -> Result<Spec, RuntimeError> {
    let mut layouts: IndexVec<DataId, Option<NdSpec>> = module.data.iter().map(|_| None).collect();
    let mut addrs: IndexVec<EqId, Vec<Addr>> = tapes.eqs.iter().map(|_| Vec::new()).collect();
    let mut strides: IndexVec<EqId, Vec<_>> = tapes.eqs.iter().map(|_| Vec::new()).collect();
    for (eq, opt) in tapes.eqs.iter_enumerated() {
        let Some(ceq) = opt else { continue };
        let mut folded = Vec::with_capacity(ceq.sym_addrs.len());
        for sym in &ceq.sym_addrs {
            if layouts[sym.array].is_none() {
                layouts[sym.array] = Some(plan.nd_spec(module, sym.array, params)?);
            }
            // Checked runs need the logical views — except for arrays the
            // static analysis fully verified, whose tags are elided along
            // with the per-access logical re-derivation. Debug builds keep
            // them regardless so `eval_addr` can assert in-range
            // subscripts with the same strictness as `NdSpec::offset`.
            let elided = verified.is_some_and(|m| m[sym.array.index()]);
            let with_chk = (tapes.checked && !elided) || cfg!(debug_assertions);
            folded.push(fold_addr(
                ceq.dims(sym),
                layouts[sym.array].as_ref().expect("just filled"),
                with_chk,
            ));
        }
        if let Ok(plan) = &ceq.strip {
            strides[eq] = strip::strides(plan, &folded);
        }
        addrs[eq] = folded;
    }
    Ok(Spec { addrs, strides })
}

/// One run's execution view: tapes + specialized addresses + the live
/// store's typed buffers (and, in checked mode, their tag tables)
/// resolved by index. Constructed per run; cheap (three short `Vec`s).
pub(crate) struct ExecProg<'r, 'm> {
    pub(super) store: &'r Store<'m>,
    tapes: &'r Tapes,
    pub(super) spec: &'r Spec,
    pub(super) bufs_f: Vec<&'r ParVec<f64>>,
    bufs_i: Vec<&'r ParVec<i64>>,
    bufs_b: Vec<&'r ParVec<bool>>,
    tags_f: Vec<Option<&'r [AtomicI64]>>,
    tags_i: Vec<Option<&'r [AtomicI64]>>,
    tags_b: Vec<Option<&'r [AtomicI64]>>,
}

/// Per-equation register file. The first `i`-registers are the equation's
/// loop counters; the rest (and all `f`/`b` registers) are tape
/// temporaries and preloaded constants. Reused across every iteration the
/// owning worker executes — the hot path never allocates. An equation that
/// strips keeps its lanes not here but in the worker's one lane file
/// ([`Frames`]).
#[derive(Clone, Default)]
pub(super) struct Frame {
    pub(super) f: Vec<f64>,
    pub(super) i: Vec<i64>,
    b: Vec<bool>,
    /// Where each access of the strip path in progress stands at the start
    /// of the rectangle line in progress and, per address class, its anchor
    /// — where it stands at the nest's first cell (the row's, when the nest
    /// is walked row by row); both as long as the address table. They are
    /// empty exactly when the equation does not strip: one that does has
    /// an address, its store's. A nest's rectangles are cut on the fly, so
    /// these are all the per-equation scratch a walk needs.
    pub(super) offs: Vec<usize>,
    pub(super) anchors: Vec<Option<i64>>,
}

impl Frame {
    #[inline(always)]
    pub(super) fn gf(&self, r: u16) -> f64 {
        debug_assert!((r as usize) < self.f.len());
        // SAFETY: validated against n_f, and self.f.len() == n_f.
        unsafe { *self.f.get_unchecked(r as usize) }
    }

    #[inline(always)]
    pub(super) fn gi(&self, r: u16) -> i64 {
        debug_assert!((r as usize) < self.i.len());
        // SAFETY: validated against n_i.
        unsafe { *self.i.get_unchecked(r as usize) }
    }

    #[inline(always)]
    fn gb(&self, r: u16) -> bool {
        debug_assert!((r as usize) < self.b.len());
        // SAFETY: validated against n_b.
        unsafe { *self.b.get_unchecked(r as usize) }
    }

    #[inline(always)]
    pub(super) fn sf(&mut self, r: u16, v: f64) {
        debug_assert!((r as usize) < self.f.len());
        // SAFETY: validated against n_f.
        unsafe { *self.f.get_unchecked_mut(r as usize) = v }
    }

    #[inline(always)]
    pub(super) fn si(&mut self, r: u16, v: i64) {
        debug_assert!((r as usize) < self.i.len());
        // SAFETY: validated against n_i.
        unsafe { *self.i.get_unchecked_mut(r as usize) = v }
    }

    #[inline(always)]
    fn sb(&mut self, r: u16, v: bool) {
        debug_assert!((r as usize) < self.b.len());
        // SAFETY: validated against n_b.
        unsafe { *self.b.get_unchecked_mut(r as usize) = v }
    }
}

/// All equations' frames for one worker, and its lane file. Cloned per
/// `DOALL` chunk (so concurrent workers own disjoint counters) with
/// constants preserved.
pub(crate) struct Frames {
    frames: IndexVec<EqId, Frame>,
    /// [`strip::W`] lanes per `f`-register of the widest equation that
    /// strips. Only one strip runs at a time on a worker, so its equations
    /// share the file as scratch: a run broadcasts the constants and
    /// parameters it reads as lanes before its first strip, and every
    /// other lane a strip reads it has written first. Lane memory is the
    /// widest equation's, not the sum over equations.
    lanes: Vec<f64>,
}

/// The lanes a stripped equation's frame needs: none when it does not strip.
fn lane_len(frame: &Frame) -> usize {
    if frame.offs.is_empty() {
        0
    } else {
        frame.f.len() * strip::W
    }
}

impl Frames {
    pub(crate) fn new(tapes: &Tapes) -> Frames {
        let frames: IndexVec<EqId, Frame> = tapes
            .eqs
            .iter()
            .map(|opt| match opt {
                None => Frame::default(),
                Some(ceq) => {
                    let offs = usize::from(ceq.strip.is_ok()) * ceq.sym_addrs.len();
                    let mut fr = Frame {
                        f: vec![0.0; ceq.n_f as usize],
                        i: vec![0; ceq.n_i as usize],
                        b: vec![false; ceq.n_b as usize],
                        offs: vec![0; offs],
                        anchors: vec![None; offs],
                    };
                    for &(r, v) in &ceq.consts_f {
                        fr.f[r as usize] = v;
                    }
                    for &(r, v) in &ceq.consts_i {
                        fr.i[r as usize] = v;
                    }
                    for &(r, v) in &ceq.consts_b {
                        fr.b[r as usize] = v;
                    }
                    fr
                }
            })
            .collect();
        let lanes = vec![0.0; frames.iter().map(lane_len).max().unwrap_or(0)];
        Frames { frames, lanes }
    }

    /// Bind this run's parameter values: fill every equation's parameter
    /// registers and evaluate its derived integer registers. Constants
    /// persist from [`Frames::new`], so a pooled `Frames` only needs this
    /// call to be ready for the next run.
    pub(crate) fn bind_params(&mut self, tapes: &Tapes, values: &[Value]) {
        for (eq, opt) in tapes.eqs.iter_enumerated() {
            let Some(ceq) = opt else { continue };
            let fr = &mut self.frames[eq];
            for &(r, p) in &ceq.preload_f {
                fr.f[r as usize] = values[p as usize].widen_real();
            }
            for &(r, p) in &ceq.preload_i {
                fr.i[r as usize] = values[p as usize].as_int();
            }
            for &(r, p) in &ceq.preload_b {
                fr.b[r as usize] = values[p as usize].as_bool();
            }
            for (r, pint) in &ceq.derived_i {
                fr.i[*r as usize] = pint.eval(values);
            }
        }
    }

    /// Bind loop counter `iv` of `eq` — counters are the leading
    /// `i`-registers, so this is a single indexed store.
    #[inline]
    pub(crate) fn set_iv(&mut self, eq: EqId, iv: IvId, value: i64) {
        self.frames[eq].i[iv.index()] = value;
    }

    /// Clone only the frames of `eqs` (the equations a `DOALL` chunk will
    /// execute); every other equation gets an empty frame, and the lane
    /// file is a fresh one as wide as the widest of `eqs` needs — lanes are
    /// scratch, so none are copied. Keeps the per-chunk cost proportional
    /// to the loop body, not the module.
    pub(crate) fn clone_for(&self, eqs: &[EqId]) -> Frames {
        let mut frames: IndexVec<EqId, Frame> =
            self.frames.iter().map(|_| Frame::default()).collect();
        for &eq in eqs {
            frames[eq] = self.frames[eq].clone();
        }
        let widest = eqs.iter().map(|&eq| lane_len(&frames[eq])).max();
        let lanes = vec![0.0; widest.unwrap_or(0)];
        Frames { frames, lanes }
    }
}

/// `1 / d` when `d` is `±2^k` and so is its reciprocal, both normal:
/// `x / d` and `x * (1 / d)` then round the same real number, `x · 2^-k`,
/// so they agree bit for bit for every `x` (subnormal, infinite and NaN
/// included), and the multiply is several times cheaper.
fn exact_reciprocal(d: f64) -> Option<f64> {
    let power_of_two = d.is_normal() && d.to_bits() << 12 == 0;
    (power_of_two && (1.0 / d).is_normal()).then_some(1.0 / d)
}

/// Typed buffer table shared by all equations of one program. Buffer
/// *indices* are assigned at compile time from declared element types;
/// the live `ParVec`s are resolved per run.
struct BufTable {
    refs: Vec<Option<(Kind, u16)>>,
    f: Vec<DataId>,
    i: Vec<DataId>,
    b: Vec<DataId>,
}

impl BufTable {
    fn new(n_data: usize) -> BufTable {
        BufTable {
            refs: vec![None; n_data],
            f: Vec::new(),
            i: Vec::new(),
            b: Vec::new(),
        }
    }

    fn resolve(&mut self, module: &HirModule, id: DataId) -> (Kind, u16) {
        if let Some(r) = self.refs[id.index()] {
            return r;
        }
        let kind = kind_of(module.runtime_scalar_ty(&module.data[id].ty));
        let r = match kind {
            Kind::F => {
                self.f.push(id);
                (Kind::F, (self.f.len() - 1) as u16)
            }
            Kind::I => {
                self.i.push(id);
                (Kind::I, (self.i.len() - 1) as u16)
            }
            Kind::B => {
                self.b.push(id);
                (Kind::B, (self.b.len() - 1) as u16)
            }
        };
        self.refs[id.index()] = Some(r);
        r
    }
}

/// The parameter table: scalar parameters with a symbol lookup side-map
/// (affine subscript remainders name parameters by symbol).
struct ParamTable {
    ids: Vec<DataId>,
    by_sym: FxHashMap<Symbol, u16>,
}

impl ParamTable {
    fn new(module: &HirModule) -> ParamTable {
        let ids = module.scalar_params();
        let by_sym = ids
            .iter()
            .enumerate()
            .map(|(ix, &d)| (module.data[d].name, ix as u16))
            .collect();
        ParamTable { ids, by_sym }
    }

    fn index_of(&self, d: DataId) -> Option<u16> {
        self.ids.iter().position(|&p| p == d).map(|ix| ix as u16)
    }
}

/// Lower every equation the flowchart executes. Parameter-independent:
/// the result can be reused for any number of runs with any inputs.
pub(crate) fn compile_tapes(
    module: &HirModule,
    plan: &StorePlan,
    flowchart: &Flowchart,
    checked: bool,
) -> Tapes {
    let mut lowerer = Lowerer::new(module, plan);
    let mut eqs: IndexVec<EqId, Option<CompiledEq>> =
        module.equations.iter().map(|_| None).collect();
    for eq_id in flowchart.equations() {
        eqs[eq_id] = Some(lowerer.lower_equation(eq_id));
    }
    let Lowerer { bufs, params, .. } = lowerer;
    let tapes = Tapes {
        eqs,
        buf_f: bufs.f,
        buf_i: bufs.i,
        buf_b: bufs.b,
        params: params.ids,
        checked,
    };
    tapes.assert_valid(module, plan.slot_count());
    tapes
}

impl Tapes {
    /// [`CompiledEq::validate`] every tape against the program-wide tables.
    fn faults(&self, ceq: &CompiledEq, n_slots: usize) -> Vec<String> {
        let n_bufs = [self.buf_f.len(), self.buf_i.len(), self.buf_b.len()];
        ceq.validate(n_bufs, n_slots, self.params.len())
    }

    /// Panic with an `E0604` diagnostic if any tape is malformed.
    fn assert_valid(&self, module: &HirModule, n_slots: usize) {
        for (eq_id, opt) in self.eqs.iter_enumerated() {
            let Some(ceq) = opt else { continue };
            let faults = self.faults(ceq, n_slots);
            if faults.is_empty() {
                continue;
            }
            // A malformed tape is a lowering bug, not a user error: still
            // fatal, but surfaced as a structural diagnostic naming the
            // equation, its target, and the offending instruction rather
            // than a bare index panic deep in the validator.
            let eq = &module.equations[eq_id];
            let mut diag = Diagnostic::error(
                "E0604",
                format!(
                    "internal tape fault in {} (writes `{}`): {}",
                    eq.label, module.data[eq.lhs].name, faults[0]
                ),
            );
            for extra in &faults[1..] {
                diag = diag.with_note(extra.clone(), None);
            }
            let notes: String = diag
                .notes
                .iter()
                .map(|(n, _)| format!("\n  = note: {n}"))
                .collect();
            panic!("{}[{}]: {}{notes}", diag.severity, diag.code, diag.message);
        }
    }
}

/// Lowers a program one equation at a time. The tables that grow with a
/// tape's length — instructions, accesses, their dimensions — are buffers
/// the whole program reuses: [`Lowerer::lower_equation`] fills them and
/// moves their contents out into exact-size vectors, so each costs a tape
/// one allocation whatever its length. The short tables (constants,
/// preloads, derived registers) move out as they are.
struct Lowerer<'a, 'm> {
    module: &'m HirModule,
    plan: &'a StorePlan,
    params: ParamTable,
    bufs: BufTable,
    /// The equation being lowered.
    eq_id: EqId,
    insns: Vec<Insn>,
    sym_addrs: Vec<SymAddr>,
    addr_dims: Vec<ADim>,
    /// Dimensions of the accesses being lowered, innermost last: a
    /// dynamic subscript may read an array itself, so an access's
    /// dimensions are gathered here until all of them are lowered.
    staged: Vec<ADim>,
    n_f: u16,
    n_i: u16,
    n_b: u16,
    consts_f: Vec<(u16, f64)>,
    consts_i: Vec<(u16, i64)>,
    consts_b: Vec<(u16, bool)>,
    /// Memoized parameter registers, indexed by parameter-table index.
    param_regs: Vec<Option<Reg>>,
    preload_f: Vec<(u16, u16)>,
    preload_i: Vec<(u16, u16)>,
    preload_b: Vec<(u16, u16)>,
    derived_i: Vec<(u16, PInt)>,
}

/// `v`'s items in a vector of their own, exactly as long; `v` keeps its
/// buffer for the next equation (which `mem::take` would hand away).
#[allow(clippy::drain_collect)]
fn take_exact<T>(v: &mut Vec<T>) -> Vec<T> {
    v.drain(..).collect()
}

impl<'a, 'm> Lowerer<'a, 'm> {
    fn new(module: &'m HirModule, plan: &'a StorePlan) -> Lowerer<'a, 'm> {
        let params = ParamTable::new(module);
        Lowerer {
            module,
            plan,
            param_regs: vec![None; params.ids.len()],
            params,
            bufs: BufTable::new(module.data.len()),
            eq_id: EqId(0),
            insns: Vec::new(),
            sym_addrs: Vec::new(),
            addr_dims: Vec::new(),
            staged: Vec::new(),
            n_f: 0,
            n_i: 0,
            n_b: 0,
            consts_f: Vec::new(),
            consts_i: Vec::new(),
            consts_b: Vec::new(),
            preload_f: Vec::new(),
            preload_i: Vec::new(),
            preload_b: Vec::new(),
            derived_i: Vec::new(),
        }
    }

    /// The (preloaded) register holding parameter `pidx`, allocating it on
    /// first use. Reading a parameter in a hot body is thereafter free —
    /// the run-time generalization of the old constant folding.
    fn param_reg(&mut self, pidx: u16) -> Reg {
        if let Some(r) = self.param_regs[pidx as usize] {
            return r;
        }
        let item = &self.module.data[self.params.ids[pidx as usize]];
        let r = match kind_of(self.module.runtime_scalar_ty(&item.ty)) {
            Kind::F => {
                let r = self.alloc_f(None);
                self.preload_f.push((r, pidx));
                Reg::F(r)
            }
            Kind::I => {
                let r = self.alloc_i(None);
                self.preload_i.push((r, pidx));
                Reg::I(r)
            }
            Kind::B => {
                let r = self.alloc_b(None);
                self.preload_b.push((r, pidx));
                Reg::B(r)
            }
        };
        self.param_regs[pidx as usize] = Some(r);
        r
    }

    /// The `i64` register for the parameter named `sym` (affine subscript
    /// remainders name parameters by symbol).
    fn param_i_reg_by_sym(&mut self, sym: Symbol) -> u16 {
        let pidx = *self
            .params
            .by_sym
            .get(&sym)
            .unwrap_or_else(|| panic!("parameter `{sym}` not in table"));
        let r = self.param_reg(pidx);
        self.expect_i(r)
    }

    /// Decompose a parameter-affine form into a register-affine one:
    /// the constant part stays a constant, each parameter term becomes a
    /// `(param register, coefficient)` entry.
    fn affine_dim(&mut self, a: &ps_lang::Affine) -> ADim {
        let mut dim = ADim {
            base: a.constant_part(),
            terms: SmallVec::new(),
        };
        for (sym, c) in a.terms() {
            let reg = self.param_i_reg_by_sym(sym);
            dim.terms.push((reg, c));
        }
        dim
    }

    fn eq(&self) -> &'m Equation {
        &self.module.equations[self.eq_id]
    }

    fn lower_equation(&mut self, eq_id: EqId) -> CompiledEq {
        self.eq_id = eq_id;
        let eq = self.eq();
        self.n_f = 0;
        // Counters occupy the leading i-registers, one per index var.
        self.n_i = u16::try_from(eq.ivs.len()).expect("too many index variables");
        self.n_b = 0;
        self.param_regs.fill(None);
        let mut src = self.lower(&eq.rhs);
        let out = match eq.lhs_field {
            Some(fidx) => OutSpec::Scalar {
                slot: self.plan.slot_index(eq.lhs, fidx + 1) as u32,
            },
            None if eq.lhs_subs.is_empty() => OutSpec::Scalar {
                slot: self.plan.slot_index(eq.lhs, 0) as u32,
            },
            None => {
                let mark = self.staged.len();
                for s in &eq.lhs_subs {
                    let dim = match s {
                        LhsSub::Const(a) => self.affine_dim(a),
                        LhsSub::Var(iv) => ADim {
                            base: 0,
                            terms: [(iv.index() as u16, 1)].into(),
                        },
                    };
                    self.staged.push(dim);
                }
                let (kind, buf) = self.bufs.resolve(self.module, eq.lhs);
                let addr = self.push_addr(eq.lhs, mark);
                // Int results widen into real arrays, mirroring
                // `ArrayInstance::write`.
                if kind == Kind::F {
                    if let Reg::I(r) = src {
                        src = Reg::F(self.cast_if(r, None));
                    }
                }
                match (kind, src) {
                    (Kind::F, Reg::F(_)) => OutSpec::ArrayF { buf, addr },
                    (Kind::I, Reg::I(_)) => OutSpec::ArrayI { buf, addr },
                    (Kind::B, Reg::B(_)) => OutSpec::ArrayB { buf, addr },
                    (k, s) => panic!("type mismatch writing {s:?} into {k:?} array"),
                }
            }
        };
        CompiledEq {
            insns: take_exact(&mut self.insns),
            sym_addrs: take_exact(&mut self.sym_addrs),
            addr_dims: take_exact(&mut self.addr_dims),
            n_f: self.n_f,
            n_i: self.n_i,
            n_b: self.n_b,
            consts_f: std::mem::take(&mut self.consts_f),
            consts_i: std::mem::take(&mut self.consts_i),
            consts_b: std::mem::take(&mut self.consts_b),
            preload_f: std::mem::take(&mut self.preload_f),
            preload_i: std::mem::take(&mut self.preload_i),
            preload_b: std::mem::take(&mut self.preload_b),
            derived_i: std::mem::take(&mut self.derived_i),
            out,
            src,
            strip: Err(ScalarReason::NoDoall),
        }
    }

    // ---- static integer folding (over the parameter-register form) ----

    /// Classify `e` as a pure-integer expression over parameters and
    /// constants, if it is one. Only total operators are admitted and
    /// [`PInt::eval`] wraps, so hoisting the evaluation to run start
    /// cannot introduce a panic a guard would have prevented.
    fn static_int(&self, e: &HExpr) -> Option<PInt> {
        Some(match e {
            HExpr::Int(v) => PInt::Const(*v),
            HExpr::Char(c) => PInt::Const(*c as i64),
            HExpr::EnumConst(_, ord) => PInt::Const(*ord as i64),
            HExpr::ReadScalar(d) => {
                let item = &self.module.data[*d];
                if item.kind != DataKind::Param || item.ty != Ty::Scalar(ScalarTy::Int) {
                    return None;
                }
                PInt::Param(self.params.index_of(*d)?)
            }
            HExpr::Binary { op, lhs, rhs }
                if matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul) =>
            {
                PInt::bin(*op, self.static_int(lhs)?, self.static_int(rhs)?)
            }
            HExpr::Unary {
                op: UnOp::Neg,
                operand,
            } => PInt::neg(self.static_int(operand)?),
            HExpr::Call { builtin, args } => match builtin {
                Builtin::Abs => PInt::abs(self.static_int(&args[0])?),
                Builtin::Min => {
                    PInt::min_max(true, self.static_int(&args[0])?, self.static_int(&args[1])?)
                }
                Builtin::Max => PInt::min_max(
                    false,
                    self.static_int(&args[0])?,
                    self.static_int(&args[1])?,
                ),
                _ => return None,
            },
            _ => return None,
        })
    }

    /// The register holding static expression `p`: constants go to the
    /// constant pool, bare parameters to their parameter register, and
    /// everything else to a (deduplicated) derived register.
    fn static_reg(&mut self, p: PInt) -> u16 {
        match p {
            PInt::Const(v) => self.const_i(v),
            PInt::Param(ix) => {
                let r = self.param_reg(ix);
                self.expect_i(r)
            }
            p => {
                if let Some(&(r, _)) = self.derived_i.iter().find(|(_, q)| *q == p) {
                    return r;
                }
                let r = self.alloc_i(None);
                self.derived_i.push((r, p));
                r
            }
        }
    }

    /// A fresh register — or `to`, when the caller wants an expression's
    /// *root* instruction to write an `if` join register of this kind.
    fn alloc_f(&mut self, to: Option<Reg>) -> u16 {
        if let Some(Reg::F(r)) = to {
            return r;
        }
        let r = self.n_f;
        self.n_f = self.n_f.checked_add(1).expect("f64 register file overflow");
        r
    }

    fn alloc_i(&mut self, to: Option<Reg>) -> u16 {
        if let Some(Reg::I(r)) = to {
            return r;
        }
        let r = self.n_i;
        self.n_i = self.n_i.checked_add(1).expect("i64 register file overflow");
        r
    }

    fn alloc_b(&mut self, to: Option<Reg>) -> u16 {
        if let Some(Reg::B(r)) = to {
            return r;
        }
        let r = self.n_b;
        self.n_b = self
            .n_b
            .checked_add(1)
            .expect("bool register file overflow");
        r
    }

    fn alloc(&mut self, kind: Kind, to: Option<Reg>) -> Reg {
        match kind {
            Kind::F => Reg::F(self.alloc_f(to)),
            Kind::I => Reg::I(self.alloc_i(to)),
            Kind::B => Reg::B(self.alloc_b(to)),
        }
    }

    /// `int → real` of register `a`. An integer *constant* folds into the
    /// f constant pool (the same conversion, done once at lowering).
    fn cast_if(&mut self, a: u16, to: Option<Reg>) -> u16 {
        if let Some(&(_, v)) = self.consts_i.iter().find(|&&(r, _)| r == a) {
            return self.const_f(v as f64);
        }
        let dst = self.alloc_f(to);
        self.insns.push(Insn::CastIF { a, dst });
        dst
    }

    fn const_f(&mut self, v: f64) -> u16 {
        if let Some(&(r, _)) = self
            .consts_f
            .iter()
            .find(|(_, x)| x.to_bits() == v.to_bits())
        {
            return r;
        }
        let r = self.alloc_f(None);
        self.consts_f.push((r, v));
        r
    }

    fn const_i(&mut self, v: i64) -> u16 {
        if let Some(&(r, _)) = self.consts_i.iter().find(|&&(_, x)| x == v) {
            return r;
        }
        let r = self.alloc_i(None);
        self.consts_i.push((r, v));
        r
    }

    fn const_b(&mut self, v: bool) -> u16 {
        if let Some(&(r, _)) = self.consts_b.iter().find(|&&(_, x)| x == v) {
            return r;
        }
        let r = self.alloc_b(None);
        self.consts_b.push((r, v));
        r
    }

    /// Emit a jump placeholder; returns its index for [`Lowerer::patch`].
    fn emit_jump(&mut self, insn: Insn) -> usize {
        self.insns.push(insn);
        self.insns.len() - 1
    }

    /// Point the jump at `at` to the current end of the tape.
    fn patch(&mut self, at: usize) {
        let here = self.insns.len() as u32;
        match &mut self.insns[at] {
            Insn::Jump { target }
            | Insn::JumpIfNot { target, .. }
            | Insn::JumpIf { target, .. }
            | Insn::JumpCmpFNot { target, .. }
            | Insn::JumpCmpINot { target, .. }
            | Insn::JumpCmpF { target, .. }
            | Insn::JumpCmpI { target, .. } => *target = here,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn expect_b(&self, r: Reg) -> u16 {
        match r {
            Reg::B(x) => x,
            other => panic!("expected bool operand, got {other:?}"),
        }
    }

    fn expect_i(&self, r: Reg) -> u16 {
        match r {
            Reg::I(x) => x,
            other => panic!("expected int operand, got {other:?}"),
        }
    }

    fn expect_f(&self, r: Reg) -> u16 {
        match r {
            Reg::F(x) => x,
            other => panic!("expected real operand, got {other:?}"),
        }
    }

    fn emit_copy(&mut self, src: Reg, dst: Reg) {
        match (src, dst) {
            (Reg::F(s), Reg::F(d)) => self.insns.push(Insn::CopyF { src: s, dst: d }),
            (Reg::I(s), Reg::I(d)) => self.insns.push(Insn::CopyI { src: s, dst: d }),
            (Reg::B(s), Reg::B(d)) => self.insns.push(Insn::CopyB { src: s, dst: d }),
            (s, d) => panic!("arm type mismatch: {s:?} into {d:?}"),
        }
    }

    /// One `if` arm: compute `e` straight into the join register `dst`,
    /// copying only when the value already lives elsewhere.
    fn lower_arm(&mut self, e: &HExpr, dst: Reg) {
        let v = self.lower_to(e, Some(dst));
        if v != dst {
            self.emit_copy(v, dst);
        }
    }

    fn lower_bool(&mut self, e: &HExpr) -> u16 {
        let r = self.lower(e);
        self.expect_b(r)
    }

    /// Branch-lower condition `e`: after the emitted code, control *falls
    /// through* iff `e` is true; every returned placeholder must be
    /// patched to the false target. Short-circuit `and`/`or` become pure
    /// control flow and comparisons fuse into compare-and-branch
    /// instructions, so guards never materialize booleans. Operands are
    /// evaluated left to right, and the right side of an `and`/`or` only
    /// when the left does not decide.
    fn lower_cond(&mut self, e: &HExpr) -> Vec<usize> {
        match e {
            HExpr::Binary {
                op: BinOp::And,
                lhs,
                rhs,
            } => {
                let mut false_jumps = self.lower_cond(lhs);
                false_jumps.extend(self.lower_cond(rhs));
                false_jumps
            }
            HExpr::Binary {
                op: BinOp::Or,
                lhs,
                rhs,
            } => {
                let lhs_false = self.lower_cond(lhs);
                // lhs true: the whole `or` is true — skip the rhs.
                let skip_rhs = self.emit_jump(Insn::Jump { target: u32::MAX });
                for j in lhs_false {
                    self.patch(j);
                }
                let false_jumps = self.lower_cond(rhs);
                self.patch(skip_rhs);
                false_jumps
            }
            HExpr::Binary { op, lhs, rhs }
                if matches!(
                    op,
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
                ) =>
            {
                let cmp = CmpOp::from_binop(*op);
                let l = self.lower(lhs);
                let r = self.lower(rhs);
                let insn = match (l, r) {
                    (Reg::F(a), Reg::F(b)) => Insn::JumpCmpFNot {
                        op: cmp,
                        a,
                        b,
                        target: u32::MAX,
                    },
                    (Reg::I(a), Reg::I(b)) => Insn::JumpCmpINot {
                        op: cmp,
                        a,
                        b,
                        target: u32::MAX,
                    },
                    // Bool comparisons are rare: materialize.
                    (Reg::B(a), Reg::B(b)) => {
                        let dst = self.alloc_b(None);
                        self.insns.push(Insn::CmpB { op: cmp, a, b, dst });
                        Insn::JumpIfNot {
                            cond: dst,
                            target: u32::MAX,
                        }
                    }
                    (l, r) => panic!("comparison type mismatch: {l:?} vs {r:?}"),
                };
                vec![self.emit_jump(insn)]
            }
            // `not (a ⋈ b)`: fall through iff the comparison is false —
            // fuse to a jump-when-true branch.
            HExpr::Unary {
                op: UnOp::Not,
                operand,
            } if matches!(
                **operand,
                HExpr::Binary {
                    op: BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge,
                    ..
                }
            ) =>
            {
                let HExpr::Binary { op, lhs, rhs } = &**operand else {
                    unreachable!()
                };
                let cmp = CmpOp::from_binop(*op);
                let l = self.lower(lhs);
                let r = self.lower(rhs);
                let insn = match (l, r) {
                    (Reg::F(a), Reg::F(b)) => Insn::JumpCmpF {
                        op: cmp,
                        a,
                        b,
                        target: u32::MAX,
                    },
                    (Reg::I(a), Reg::I(b)) => Insn::JumpCmpI {
                        op: cmp,
                        a,
                        b,
                        target: u32::MAX,
                    },
                    // Bool comparisons are rare: materialize and negate.
                    (Reg::B(a), Reg::B(b)) => {
                        let dst = self.alloc_b(None);
                        self.insns.push(Insn::CmpB { op: cmp, a, b, dst });
                        Insn::JumpIf {
                            cond: dst,
                            target: u32::MAX,
                        }
                    }
                    (l, r) => panic!("comparison type mismatch: {l:?} vs {r:?}"),
                };
                vec![self.emit_jump(insn)]
            }
            // Anything else (bool reads, constants, nested `not`):
            // evaluate as a value and branch on it.
            other => {
                let cond = self.lower_bool(other);
                vec![self.emit_jump(Insn::JumpIfNot {
                    cond,
                    target: u32::MAX,
                })]
            }
        }
    }

    fn lower(&mut self, e: &HExpr) -> Reg {
        self.lower_to(e, None)
    }

    /// Lower `e`; its root instruction writes `to` when given (see
    /// [`Lowerer::alloc_f`]). Values that need no instruction (constants,
    /// parameters, counters) come back in their own register instead.
    fn lower_to(&mut self, e: &HExpr, to: Option<Reg>) -> Reg {
        // Pure-integer parameter expressions vanish from the tape: they
        // evaluate once per run into a derived register.
        if let Some(p) = self.static_int(e) {
            return Reg::I(self.static_reg(p));
        }
        match e {
            HExpr::Int(v) => Reg::I(self.const_i(*v)),
            HExpr::Real(v) => Reg::F(self.const_f(*v)),
            HExpr::Bool(v) => Reg::B(self.const_b(*v)),
            HExpr::Char(c) => Reg::I(self.const_i(*c as i64)),
            HExpr::EnumConst(_, ord) => Reg::I(self.const_i(*ord as i64)),
            HExpr::ReadScalar(d) => self.lower_read_scalar(*d, to),
            HExpr::ReadField(d, idx) => {
                let slot = self.plan.slot_index(*d, *idx + 1) as u32;
                let kind = kind_of(self.module.expr_scalar_ty(self.eq(), e));
                let dst = self.alloc(kind, to);
                self.insns.push(Insn::ReadScalar { slot, dst });
                dst
            }
            // Loop counters are the leading i-registers: reading one is
            // free.
            HExpr::Iv(iv) => Reg::I(iv.index() as u16),
            HExpr::ReadArray { array, subs, .. } => {
                let mark = self.staged.len();
                for s in subs {
                    let dim = self.lower_sub(s);
                    self.staged.push(dim);
                }
                let (kind, buf) = self.bufs.resolve(self.module, *array);
                let addr = self.push_addr(*array, mark);
                match kind {
                    Kind::F => {
                        let dst = self.alloc_f(to);
                        self.insns.push(Insn::LoadF { buf, addr, dst });
                        Reg::F(dst)
                    }
                    Kind::I => {
                        let dst = self.alloc_i(to);
                        self.insns.push(Insn::LoadI { buf, addr, dst });
                        Reg::I(dst)
                    }
                    Kind::B => {
                        let dst = self.alloc_b(to);
                        self.insns.push(Insn::LoadB { buf, addr, dst });
                        Reg::B(dst)
                    }
                }
            }
            HExpr::Binary { op, lhs, rhs } => self.lower_binary(*op, lhs, rhs, to),
            HExpr::Unary { op, operand } => {
                let v = self.lower(operand);
                match (op, v) {
                    (UnOp::Neg, Reg::F(a)) => {
                        let dst = self.alloc_f(to);
                        self.insns.push(Insn::NegF { a, dst });
                        Reg::F(dst)
                    }
                    (UnOp::Neg, Reg::I(a)) => {
                        let dst = self.alloc_i(to);
                        self.insns.push(Insn::NegI { a, dst });
                        Reg::I(dst)
                    }
                    (UnOp::Not, Reg::B(a)) => {
                        let dst = self.alloc_b(to);
                        self.insns.push(Insn::NotB { a, dst });
                        Reg::B(dst)
                    }
                    (op, v) => panic!("bad unary {op:?} on {v:?}"),
                }
            }
            HExpr::If { arms, else_ } => {
                let kind = kind_of(self.module.expr_scalar_ty(self.eq(), else_));
                // A nested `if` in arm position joins in the outer register.
                let dst = self.alloc(kind, to);
                let mut end_jumps = Vec::with_capacity(arms.len());
                for (cond, val) in arms {
                    let false_jumps = self.lower_cond(cond);
                    self.lower_arm(val, dst);
                    end_jumps.push(self.emit_jump(Insn::Jump { target: u32::MAX }));
                    for j in false_jumps {
                        self.patch(j);
                    }
                }
                self.lower_arm(else_, dst);
                for j in end_jumps {
                    self.patch(j);
                }
                dst
            }
            HExpr::Call { builtin, args } => self.lower_call(*builtin, args, to),
            HExpr::CastReal(inner) => {
                let v = self.lower(inner);
                match v {
                    Reg::F(_) => v,
                    Reg::I(a) => Reg::F(self.cast_if(a, to)),
                    Reg::B(_) => panic!("cannot widen bool to real"),
                }
            }
        }
    }

    fn lower_read_scalar(&mut self, d: DataId, to: Option<Reg>) -> Reg {
        let item = &self.module.data[d];
        if item.kind == DataKind::Param && !item.is_array() {
            // Parameters live in preloaded registers: reading one costs
            // nothing per iteration (this is what keeps `M`/`maxK` guard
            // reads out of hot DOALL bodies), yet the tape stays valid
            // for every future parameter binding.
            let pidx = self
                .params
                .index_of(d)
                .expect("scalar param is in the table");
            return self.param_reg(pidx);
        }
        if item.kind != DataKind::Param && item.is_array() {
            panic!("array `{}` read as scalar", item.name);
        }
        let slot = self.plan.slot_index(d, 0) as u32;
        let kind = kind_of(self.module.runtime_scalar_ty(&item.ty));
        let dst = self.alloc(kind, to);
        self.insns.push(Insn::ReadScalar { slot, dst });
        dst
    }

    fn lower_binary(&mut self, op: BinOp, lhs: &HExpr, rhs: &HExpr, to: Option<Reg>) -> Reg {
        match op {
            BinOp::And => {
                let dst = self.alloc_b(to);
                let la = self.lower_bool(lhs);
                let to_false = self.emit_jump(Insn::JumpIfNot {
                    cond: la,
                    target: u32::MAX,
                });
                let rb = self.lower_bool(rhs);
                self.insns.push(Insn::CopyB { src: rb, dst });
                let to_end = self.emit_jump(Insn::Jump { target: u32::MAX });
                self.patch(to_false);
                let cfalse = self.const_b(false);
                self.insns.push(Insn::CopyB { src: cfalse, dst });
                self.patch(to_end);
                return Reg::B(dst);
            }
            BinOp::Or => {
                let dst = self.alloc_b(to);
                let la = self.lower_bool(lhs);
                let to_true = self.emit_jump(Insn::JumpIf {
                    cond: la,
                    target: u32::MAX,
                });
                let rb = self.lower_bool(rhs);
                self.insns.push(Insn::CopyB { src: rb, dst });
                let to_end = self.emit_jump(Insn::Jump { target: u32::MAX });
                self.patch(to_true);
                let ctrue = self.const_b(true);
                self.insns.push(Insn::CopyB { src: ctrue, dst });
                self.patch(to_end);
                return Reg::B(dst);
            }
            _ => {}
        }
        let l = self.lower(lhs);
        let r = self.lower(rhs);
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul => match (l, r) {
                (Reg::F(a), Reg::F(b)) => {
                    let dst = self.alloc_f(to);
                    self.insns.push(match op {
                        BinOp::Add => Insn::AddF { a, b, dst },
                        BinOp::Sub => Insn::SubF { a, b, dst },
                        _ => Insn::MulF { a, b, dst },
                    });
                    Reg::F(dst)
                }
                (Reg::I(a), Reg::I(b)) => {
                    let dst = self.alloc_i(to);
                    self.insns.push(match op {
                        BinOp::Add => Insn::AddI { a, b, dst },
                        BinOp::Sub => Insn::SubI { a, b, dst },
                        _ => Insn::MulI { a, b, dst },
                    });
                    Reg::I(dst)
                }
                (l, r) => panic!("{op:?} type mismatch: {l:?} vs {r:?}"),
            },
            BinOp::Div => {
                let (a, b) = (self.expect_f(l), self.expect_f(r));
                let dst = self.alloc_f(to);
                let divisor = self.consts_f.iter().find(|&&(r, _)| r == b);
                let inv = divisor.and_then(|&(_, d)| exact_reciprocal(d));
                let inv = inv.map(|inv| self.const_f(inv));
                self.insns.push(match inv {
                    Some(b) => Insn::MulF { a, b, dst },
                    None => Insn::DivF { a, b, dst },
                });
                Reg::F(dst)
            }
            BinOp::IntDiv | BinOp::Mod => {
                let (a, b) = (self.expect_i(l), self.expect_i(r));
                let dst = self.alloc_i(to);
                self.insns.push(if op == BinOp::IntDiv {
                    Insn::DivI { a, b, dst }
                } else {
                    Insn::ModI { a, b, dst }
                });
                Reg::I(dst)
            }
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let cmp = CmpOp::from_binop(op);
                let dst = self.alloc_b(to);
                self.insns.push(match (l, r) {
                    (Reg::F(a), Reg::F(b)) => Insn::CmpF { op: cmp, a, b, dst },
                    (Reg::I(a), Reg::I(b)) => Insn::CmpI { op: cmp, a, b, dst },
                    (Reg::B(a), Reg::B(b)) => Insn::CmpB { op: cmp, a, b, dst },
                    (l, r) => panic!("comparison type mismatch: {l:?} vs {r:?}"),
                });
                Reg::B(dst)
            }
            BinOp::And | BinOp::Or => unreachable!("handled via short-circuit"),
        }
    }

    fn lower_call(&mut self, builtin: Builtin, args: &[HExpr], to: Option<Reg>) -> Reg {
        let regs: Vec<Reg> = args.iter().map(|a| self.lower(a)).collect();
        match builtin {
            Builtin::Abs => match regs[0] {
                Reg::F(a) => {
                    let dst = self.alloc_f(to);
                    self.insns.push(Insn::AbsF { a, dst });
                    Reg::F(dst)
                }
                Reg::I(a) => {
                    let dst = self.alloc_i(to);
                    self.insns.push(Insn::AbsI { a, dst });
                    Reg::I(dst)
                }
                v => panic!("abs on {v:?}"),
            },
            Builtin::Min | Builtin::Max => match (regs[0], regs[1]) {
                (Reg::F(a), Reg::F(b)) => {
                    let dst = self.alloc_f(to);
                    self.insns.push(if builtin == Builtin::Min {
                        Insn::MinF { a, b, dst }
                    } else {
                        Insn::MaxF { a, b, dst }
                    });
                    Reg::F(dst)
                }
                (Reg::I(a), Reg::I(b)) => {
                    let dst = self.alloc_i(to);
                    self.insns.push(if builtin == Builtin::Min {
                        Insn::MinI { a, b, dst }
                    } else {
                        Insn::MaxI { a, b, dst }
                    });
                    Reg::I(dst)
                }
                (l, r) => panic!("{builtin:?} type mismatch: {l:?} vs {r:?}"),
            },
            Builtin::Sqrt | Builtin::Exp | Builtin::Ln | Builtin::Sin | Builtin::Cos => {
                let a = self.expect_f(regs[0]);
                let dst = self.alloc_f(to);
                self.insns.push(match builtin {
                    Builtin::Sqrt => Insn::SqrtF { a, dst },
                    Builtin::Exp => Insn::ExpF { a, dst },
                    Builtin::Ln => Insn::LnF { a, dst },
                    Builtin::Sin => Insn::SinF { a, dst },
                    _ => Insn::CosF { a, dst },
                });
                Reg::F(dst)
            }
            Builtin::Trunc | Builtin::Round => {
                let a = self.expect_f(regs[0]);
                let dst = self.alloc_i(to);
                self.insns.push(if builtin == Builtin::Trunc {
                    Insn::TruncFI { a, dst }
                } else {
                    Insn::RoundFI { a, dst }
                });
                Reg::I(dst)
            }
            Builtin::RealFn => {
                let a = self.expect_i(regs[0]);
                Reg::F(self.cast_if(a, to))
            }
            // `ord` is the identity on the runtime int representation.
            Builtin::Ord => Reg::I(self.expect_i(regs[0])),
        }
    }

    /// Lower one RHS subscript to an affine form over `i64` registers.
    /// Loop counters *are* registers, a parameter term contributes its
    /// preloaded parameter register, and a dynamic subscript contributes
    /// the register its value lands in — so every subscript shape
    /// uniformly becomes `base + Σ c·reg` with no parameter values baked
    /// in.
    fn lower_sub(&mut self, s: &SubscriptExpr) -> ADim {
        match s {
            SubscriptExpr::Var(iv) => ADim {
                base: 0,
                terms: [(iv.index() as u16, 1)].into(),
            },
            SubscriptExpr::VarOffset(iv, d) => ADim {
                base: *d,
                terms: [(iv.index() as u16, 1)].into(),
            },
            SubscriptExpr::Affine(a) => {
                let mut dim = self.affine_dim(&a.rest);
                let ivs = a.iv_terms.iter().filter(|&&(_, c)| c != 0);
                dim.terms.extend(ivs.map(|&(iv, c)| (iv.index() as u16, c)));
                dim
            }
            SubscriptExpr::Dynamic(e) => {
                let r = self.lower(e);
                ADim {
                    base: 0,
                    terms: [(self.expect_i(r), 1)].into(),
                }
            }
        }
    }

    /// Record one symbolic array access, its dimensions the ones staged
    /// from `mark` on; folding against the physical layout happens per
    /// specialization ([`fold_addr`]).
    fn push_addr(&mut self, array: DataId, mark: usize) -> u16 {
        let first = self.addr_dims.len();
        self.addr_dims.extend(self.staged.drain(mark..));
        let rank = self.addr_dims.len() - first;
        assert_eq!(
            rank,
            self.module.data[array].dims().len(),
            "subscript rank mismatch"
        );
        let (first, rank) = (first as u32, rank as u32);
        self.sym_addrs.push(SymAddr { array, first, rank });
        u16::try_from(self.sym_addrs.len() - 1).expect("address table overflow")
    }
}

impl<'r, 'm> ExecProg<'r, 'm> {
    /// Resolve the tapes' buffer indices against one run's live store.
    pub(crate) fn new(tapes: &'r Tapes, spec: &'r Spec, store: &'r Store<'m>) -> ExecProg<'r, 'm> {
        fn buf_f<'r>(store: &'r Store<'_>, id: DataId) -> &'r ParVec<f64> {
            match store.array(id).buffer() {
                SharedBuffer::Real(p) => p,
                _ => panic!("buffer kind mismatch for f64 table"),
            }
        }
        fn buf_i<'r>(store: &'r Store<'_>, id: DataId) -> &'r ParVec<i64> {
            match store.array(id).buffer() {
                SharedBuffer::Int(p) => p,
                _ => panic!("buffer kind mismatch for i64 table"),
            }
        }
        fn buf_b<'r>(store: &'r Store<'_>, id: DataId) -> &'r ParVec<bool> {
            match store.array(id).buffer() {
                SharedBuffer::Bool(p) => p,
                _ => panic!("buffer kind mismatch for bool table"),
            }
        }
        let tags = |ids: &[DataId]| -> Vec<Option<&'r [AtomicI64]>> {
            if tapes.checked {
                ids.iter().map(|&id| store.array(id).tags()).collect()
            } else {
                Vec::new()
            }
        };
        ExecProg {
            store,
            tapes,
            spec,
            bufs_f: tapes.buf_f.iter().map(|&id| buf_f(store, id)).collect(),
            bufs_i: tapes.buf_i.iter().map(|&id| buf_i(store, id)).collect(),
            bufs_b: tapes.buf_b.iter().map(|&id| buf_b(store, id)).collect(),
            tags_f: tags(&tapes.buf_f),
            tags_i: tags(&tapes.buf_i),
            tags_b: tags(&tapes.buf_b),
        }
    }

    #[inline(always)]
    pub(super) fn eval_addr(addr: &Addr, frame: &Frame) -> usize {
        // Debug builds re-derive each dimension's logical index and bounds
        // check it, matching `NdSpec::offset`'s strictness; release builds
        // rely on the schedule (plus the physical-buffer bounds check).
        #[cfg(debug_assertions)]
        for c in &addr.chk {
            let mut v = c.value.base;
            for &(r, cc) in &c.value.terms {
                v += cc * frame.gi(r);
            }
            assert!(
                v >= c.lo && v <= c.hi,
                "index {v} outside {}..{} (compiled subscript)",
                c.lo,
                c.hi
            );
        }
        let mut off = addr.base;
        for &(r, c) in &addr.lin {
            off += c * frame.gi(r);
        }
        for w in &addr.special {
            let mut v = w.value.base;
            for &(r, c) in &w.value.terms {
                v += c * frame.gi(r);
            }
            off += (v - w.lo).rem_euclid(w.window) * w.stride;
        }
        // A schedule bug that produced a negative offset wraps to a huge
        // usize here and trips the buffer bounds check — memory safe.
        off as usize
    }

    /// The *logical* flat index of an access (checked mode): re-derives
    /// each dimension from its affine form, bounds-asserting like
    /// `NdSpec::offset`.
    fn logical_of(addr: &Addr, frame: &Frame) -> i64 {
        let mut off = 0i64;
        for c in &addr.chk {
            let mut v = c.value.base;
            for &(r, cc) in &c.value.terms {
                v += cc * frame.gi(r);
            }
            assert!(
                v >= c.lo && v <= c.hi,
                "index {v} outside {}..{} (checked compiled subscript)",
                c.lo,
                c.hi
            );
            off += (v - c.lo) * c.lstride;
        }
        off
    }

    /// Checked-mode load: the slot must currently hold exactly the logical
    /// element being read (same transition as `ArrayInstance::read`).
    fn check_read(tags: Option<&[AtomicI64]>, addr: &Addr, frame: &Frame, off: usize) {
        // Tag-less arrays (analysis-verified, or parameter inputs) skip the
        // logical re-derivation entirely — that skip *is* the elision win.
        if let Some(tags) = tags {
            let logical = Self::logical_of(addr, frame);
            let tag = tags[off].load(Ordering::Acquire);
            assert!(
                tag == logical,
                "read of logical index {logical}: slot holds logical {tag} — \
                 element missing or evicted from its window"
            );
        }
    }

    /// Checked-mode store: tag the slot with the logical element, panic on
    /// a double write (same transition as `ArrayInstance::write`).
    fn check_write(tags: Option<&[AtomicI64]>, addr: &Addr, frame: &Frame, off: usize) {
        if let Some(tags) = tags {
            let logical = Self::logical_of(addr, frame);
            let prev = tags[off].swap(logical, Ordering::AcqRel);
            assert!(
                prev != logical,
                "double write of logical index {logical} (single assignment violated)"
            );
        }
    }

    /// Execute one equation's tape in `frames` and store the result.
    pub(crate) fn run_eq(&self, eq_id: EqId, frames: &mut Frames) {
        let ceq = self.tapes.eqs[eq_id]
            .as_ref()
            .unwrap_or_else(|| panic!("{eq_id:?} was not lowered"));
        let addrs = &self.spec.addrs[eq_id];
        let frame = &mut frames.frames[eq_id];
        self.exec_tape(ceq, addrs, frame);
    }

    /// Run one equation over a whole counter range (the single-equation
    /// `DOALL` body on a sequential executor): the tape, address table and
    /// frame are fetched once, not per element.
    pub(crate) fn run_eq_range(
        &self,
        eq_id: EqId,
        bindings: &[(EqId, IvId)],
        lo: i64,
        hi: i64,
        frames: &mut Frames,
    ) {
        let ceq = self.tapes.eqs[eq_id]
            .as_ref()
            .unwrap_or_else(|| panic!("{eq_id:?} was not lowered"));
        let addrs = &self.spec.addrs[eq_id];
        let frame = &mut frames.frames[eq_id];
        debug_assert!(bindings.iter().all(|&(eq, _)| eq == eq_id));
        if let Ok(plan) = &ceq.strip {
            return plan.run(self, eq_id, frame, &mut frames.lanes, None, (lo, hi));
        }
        for i in lo..=hi {
            for &(_, iv) in bindings {
                frame.i[iv.index()] = i;
            }
            self.exec_tape(ceq, addrs, frame);
        }
    }

    /// Whether `eq` strips as the body of a nest of two `DOALL`s, walked
    /// as one by [`ExecProg::run_nest`].
    pub(crate) fn strips_nest(&self, eq: EqId) -> bool {
        let ceq = self.tapes.eqs[eq].as_ref();
        ceq.is_some_and(|ceq| ceq.strip.as_ref().is_ok_and(StripPlan::is_nest))
    }

    /// Run the nest of two `DOALL`s whose body `eq` is over `rows` of the
    /// outer counter and `cols` of the inner one.
    pub(crate) fn run_nest(
        &self,
        eq: EqId,
        rows: (i64, i64),
        cols: (i64, i64),
        frames: &mut Frames,
    ) {
        let ceq = self.tapes.eqs[eq]
            .as_ref()
            .expect("scheduled equations are lowered");
        let plan = ceq
            .strip
            .as_ref()
            .expect("only a stripped nest runs as one");
        let Frames { frames, lanes } = frames;
        plan.run(self, eq, &mut frames[eq], lanes, Some(rows), cols);
    }

    /// A strip's store: `vals[l]` goes to `off + l·stride` of f-buffer
    /// `buf` (here, not in `strip.rs`, which stays free of `unsafe`).
    pub(super) fn store_strip(&self, buf: u16, off: usize, stride: i64, vals: &[Cell<f64>]) {
        // SAFETY: the lanes are distinct iterations of one `DOALL` (or nest
        // of them), which write disjoint offsets that nothing reads until
        // the loop ends — the contract of the scalar store in `exec_tape`.
        unsafe { self.bufs_f[buf as usize].set_range(off, stride, vals) }
    }

    /// A strip's unit-stride load, read in place: the `n` cells of
    /// f-buffer `buf` from `off` on.
    pub(super) fn view_strip(&self, buf: u16, off: usize, n: usize) -> &'r [Cell<f64>] {
        // SAFETY: the strip walker only reads through the view, and what a
        // `DOALL` iteration reads no iteration of the loop writes — the
        // contract of the scalar load in `exec_tape`.
        unsafe { self.bufs_f[buf as usize].cells(off, n) }
    }

    /// Where a strip's last pass writes the store's values itself when its
    /// stride is 1: the `n` cells of f-buffer `buf` from `off` on.
    pub(super) fn sink_strip(&self, buf: u16, off: usize, n: usize) -> &'r [Cell<f64>] {
        // SAFETY: the cells are the stores of `n` distinct iterations of
        // one `DOALL` (or nest of them): each is written by its iteration
        // alone and read by none of the loop — the contract of
        // `store_strip`. That a lane's store lands before a later lane's
        // loads is therefore invisible to them.
        unsafe { self.bufs_f[buf as usize].cells(off, n) }
    }

    fn exec_tape(&self, ceq: &CompiledEq, addrs: &[Addr], frame: &mut Frame) {
        let checked = self.tapes.checked;
        let insns = &ceq.insns;
        let mut pc = 0usize;
        while pc < insns.len() {
            // SAFETY: `pc < insns.len()` is checked by the loop condition;
            // jump targets are validated to be ≤ len.
            match *unsafe { insns.get_unchecked(pc) } {
                Insn::CopyF { src, dst } => frame.sf(dst, fop::copy(frame.gf(src))),
                Insn::CopyI { src, dst } => frame.si(dst, frame.gi(src)),
                Insn::CopyB { src, dst } => frame.sb(dst, frame.gb(src)),
                Insn::ReadScalar { slot, dst } => {
                    let v = self
                        .store
                        .read_slot(slot as usize)
                        .unwrap_or_else(|| panic!("scalar slot {slot} read before definition"));
                    match (dst, v) {
                        (Reg::F(r), Value::Real(x)) => frame.sf(r, x),
                        (Reg::I(r), Value::Int(x)) => frame.si(r, x),
                        (Reg::B(r), Value::Bool(x)) => frame.sb(r, x),
                        (d, v) => panic!("scalar slot holds {v:?}, tape expects {d:?}"),
                    }
                }
                Insn::LoadF { buf, addr, dst } => {
                    let a = &addrs[addr as usize];
                    let off = Self::eval_addr(a, frame);
                    if checked {
                        Self::check_read(self.tags_f[buf as usize], a, frame, off);
                    }
                    frame.sf(dst, self.bufs_f[buf as usize].get(off));
                }
                Insn::LoadI { buf, addr, dst } => {
                    let a = &addrs[addr as usize];
                    let off = Self::eval_addr(a, frame);
                    if checked {
                        Self::check_read(self.tags_i[buf as usize], a, frame, off);
                    }
                    frame.si(dst, self.bufs_i[buf as usize].get(off));
                }
                Insn::LoadB { buf, addr, dst } => {
                    let a = &addrs[addr as usize];
                    let off = Self::eval_addr(a, frame);
                    if checked {
                        Self::check_read(self.tags_b[buf as usize], a, frame, off);
                    }
                    frame.sb(dst, self.bufs_b[buf as usize].get(off));
                }
                Insn::AddF { a, b, dst } => frame.sf(dst, fop::add(frame.gf(a), frame.gf(b))),
                Insn::SubF { a, b, dst } => frame.sf(dst, fop::sub(frame.gf(a), frame.gf(b))),
                Insn::MulF { a, b, dst } => frame.sf(dst, fop::mul(frame.gf(a), frame.gf(b))),
                Insn::DivF { a, b, dst } => frame.sf(dst, fop::div(frame.gf(a), frame.gf(b))),
                Insn::MinF { a, b, dst } => frame.sf(dst, fop::min(frame.gf(a), frame.gf(b))),
                Insn::MaxF { a, b, dst } => frame.sf(dst, fop::max(frame.gf(a), frame.gf(b))),
                Insn::AddI { a, b, dst } => frame.si(dst, frame.gi(a) + frame.gi(b)),
                Insn::SubI { a, b, dst } => frame.si(dst, frame.gi(a) - frame.gi(b)),
                Insn::MulI { a, b, dst } => frame.si(dst, frame.gi(a) * frame.gi(b)),
                Insn::DivI { a, b, dst } => {
                    let d = frame.gi(b);
                    assert!(d != 0, "div by zero");
                    frame.si(dst, frame.gi(a).div_euclid(d));
                }
                Insn::ModI { a, b, dst } => {
                    let d = frame.gi(b);
                    assert!(d != 0, "mod by zero");
                    frame.si(dst, frame.gi(a).rem_euclid(d));
                }
                Insn::MinI { a, b, dst } => frame.si(dst, frame.gi(a).min(frame.gi(b))),
                Insn::MaxI { a, b, dst } => frame.si(dst, frame.gi(a).max(frame.gi(b))),
                Insn::NegF { a, dst } => frame.sf(dst, fop::neg(frame.gf(a))),
                Insn::NegI { a, dst } => frame.si(dst, -frame.gi(a)),
                Insn::AbsF { a, dst } => frame.sf(dst, fop::abs(frame.gf(a))),
                Insn::AbsI { a, dst } => frame.si(dst, frame.gi(a).abs()),
                Insn::NotB { a, dst } => frame.sb(dst, !frame.gb(a)),
                Insn::SqrtF { a, dst } => frame.sf(dst, fop::sqrt(frame.gf(a))),
                Insn::ExpF { a, dst } => frame.sf(dst, fop::exp(frame.gf(a))),
                Insn::LnF { a, dst } => frame.sf(dst, fop::ln(frame.gf(a))),
                Insn::SinF { a, dst } => frame.sf(dst, fop::sin(frame.gf(a))),
                Insn::CosF { a, dst } => frame.sf(dst, fop::cos(frame.gf(a))),
                Insn::CastIF { a, dst } => frame.sf(dst, fop::widen(frame.gi(a))),
                Insn::TruncFI { a, dst } => frame.si(dst, frame.gf(a).trunc() as i64),
                Insn::RoundFI { a, dst } => frame.si(dst, frame.gf(a).round() as i64),
                Insn::CmpF { op, a, b, dst } => frame.sb(dst, op.eval(frame.gf(a), frame.gf(b))),
                Insn::CmpI { op, a, b, dst } => frame.sb(dst, op.eval(frame.gi(a), frame.gi(b))),
                Insn::CmpB { op, a, b, dst } => frame.sb(dst, op.eval(frame.gb(a), frame.gb(b))),
                Insn::Jump { target } => {
                    pc = target as usize;
                    continue;
                }
                Insn::JumpIfNot { cond, target } => {
                    if !frame.gb(cond) {
                        pc = target as usize;
                        continue;
                    }
                }
                Insn::JumpIf { cond, target } => {
                    if frame.gb(cond) {
                        pc = target as usize;
                        continue;
                    }
                }
                Insn::JumpCmpFNot { op, a, b, target } => {
                    if !op.eval(frame.gf(a), frame.gf(b)) {
                        pc = target as usize;
                        continue;
                    }
                }
                Insn::JumpCmpINot { op, a, b, target } => {
                    if !op.eval(frame.gi(a), frame.gi(b)) {
                        pc = target as usize;
                        continue;
                    }
                }
                Insn::JumpCmpF { op, a, b, target } => {
                    if op.eval(frame.gf(a), frame.gf(b)) {
                        pc = target as usize;
                        continue;
                    }
                }
                Insn::JumpCmpI { op, a, b, target } => {
                    if op.eval(frame.gi(a), frame.gi(b)) {
                        pc = target as usize;
                        continue;
                    }
                }
            }
            pc += 1;
        }
        match ceq.out {
            OutSpec::Scalar { slot } => {
                let v = match ceq.src {
                    Reg::F(r) => Value::Real(frame.gf(r)),
                    Reg::I(r) => Value::Int(frame.gi(r)),
                    Reg::B(r) => Value::Bool(frame.gb(r)),
                };
                self.store.write_slot(slot as usize, v);
            }
            OutSpec::ArrayF { buf, addr } => {
                let a = &addrs[addr as usize];
                let off = Self::eval_addr(a, frame);
                if checked {
                    Self::check_write(self.tags_f[buf as usize], a, frame, off);
                }
                let Reg::F(r) = ceq.src else { unreachable!() };
                // SAFETY: the single-assignment schedule guarantees
                // concurrent DOALL iterations write disjoint offsets (same
                // contract as `ArrayInstance::write`).
                unsafe { self.bufs_f[buf as usize].set(off, frame.gf(r)) };
            }
            OutSpec::ArrayI { buf, addr } => {
                let a = &addrs[addr as usize];
                let off = Self::eval_addr(a, frame);
                if checked {
                    Self::check_write(self.tags_i[buf as usize], a, frame, off);
                }
                let Reg::I(r) = ceq.src else { unreachable!() };
                // SAFETY: as above.
                unsafe { self.bufs_i[buf as usize].set(off, frame.gi(r)) };
            }
            OutSpec::ArrayB { buf, addr } => {
                let a = &addrs[addr as usize];
                let off = Self::eval_addr(a, frame);
                if checked {
                    Self::check_write(self.tags_b[buf as usize], a, frame, off);
                }
                let Reg::B(r) = ceq.src else { unreachable!() };
                // SAFETY: as above.
                unsafe { self.bufs_b[buf as usize].set(off, frame.gb(r)) };
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::store::{Inputs, StoreArena};
    use ps_depgraph::build_depgraph;
    use ps_lang::frontend;
    use ps_scheduler::{schedule_module, ScheduleOptions, ScheduleResult};

    /// Figure 6 (the Jacobi relaxation), shared with the strip tests.
    pub(crate) const JACOBI: &str = "Relaxation: module (InitialA: array[I,J] of real;
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
        end Relaxation;";

    pub(crate) fn build(src: &str) -> (HirModule, ScheduleResult) {
        let m = frontend(src).unwrap();
        let dg = build_depgraph(&m);
        let sched = schedule_module(&m, &dg, ScheduleOptions::default()).unwrap();
        (m, sched)
    }

    /// A worker's lanes are one file, the widest stripped equation's: a
    /// chain of 16 pointwise groups (one wider than the rest) holds
    /// `max n_f × W` lanes per `Frames`, not the sum over its equations,
    /// and a chunk's clone holds its own equation's width.
    #[test]
    fn lane_memory_is_the_widest_equation_not_the_sum() {
        let mut src = String::from("Chain: module (xs: array[I] of real; n: int): [y: real];\n");
        src.push_str("type I = 1 .. n; K = 2 .. n;\nvar\n");
        for g in 0..16 {
            src.push_str(&format!("a{g}: array [1 .. n] of real;\n"));
        }
        src.push_str("r: array [1 .. n] of real;\ndefine\na0[I] = xs[I] * 2.0 + 1.0;\n");
        for g in 1..16 {
            let wide = if g == 9 {
                " * a0[I] - sqrt(abs(xs[I])) / 3.0"
            } else {
                ""
            };
            src.push_str(&format!("a{g}[I] = a{}[I] * 0.5 + 1.0{wide};\n", g - 1));
        }
        src.push_str("r[1] = a15[1];\nr[K] = r[K-1] + a15[K];\ny = r[n];\nend Chain;");
        let (m, sched) = build(&src);
        let plan = StorePlan::new(&m, &sched.memory);
        let mut tapes = compile_tapes(&m, &plan, &sched.flowchart, false);
        tapes.plan_strips(&m, &plan, &sched.flowchart);
        let stripped: Vec<(EqId, usize)> = (tapes.eqs.iter_enumerated())
            .filter_map(|(eq, c)| c.as_ref().filter(|c| c.strip.is_ok()).map(|c| (eq, c)))
            .map(|(eq, c)| (eq, c.n_f as usize * strip::W))
            .collect();
        assert_eq!(stripped.len(), 16, "every group strips");
        let widest = stripped.iter().map(|&(_, n)| n).max().unwrap();
        let sum: usize = stripped.iter().map(|&(_, n)| n).sum();
        assert!(sum > 16 * strip::W * 3 && widest > stripped[0].1);
        let frames = Frames::new(&tapes);
        assert_eq!(frames.lanes.len(), widest);
        let eq9 = m.equation_by_label("eq.10").unwrap();
        let one = frames.clone_for(&[stripped[0].0]);
        assert_eq!(one.lanes.len(), stripped[0].1);
        assert_eq!(frames.clone_for(&[eq9]).lanes.len(), widest);
        assert!(frames.clone_for(&[]).lanes.is_empty());
    }

    /// Compile tapes and one specialization against `inputs`.
    fn compile_all<'m>(
        m: &'m HirModule,
        sched: &ScheduleResult,
        inputs: &Inputs,
    ) -> (StorePlan, Tapes, Store<'m>, Spec) {
        let plan = StorePlan::new(m, &sched.memory);
        let tapes = compile_tapes(m, &plan, &sched.flowchart, false);
        let store = plan
            .instantiate(m, inputs, false, &mut StoreArena::default())
            .unwrap();
        let spec = specialize(&tapes, &plan, m, &store.params, None).unwrap();
        (plan, tapes, store, spec)
    }

    #[test]
    fn affine_subscripts_fold_to_linear_form() {
        // Unwindowed 2-D array: every access strength-reduces to base+Σc·iv
        // with no special dims.
        let src = "T: module (n: int): [out: array[1..n,1..n] of real];
             type I, J = 1 .. n;
             var a: array [I,J] of real;
             define
                a[I,J] = real(I) + real(J) * 2.0;
                out[I,J] = a[I,J] * 0.5;
             end T;";
        let inputs = Inputs::new().set_int("n", 4);
        let (m, sched) = build(src);
        let (_plan, tapes, _store, spec) = compile_all(&m, &sched, &inputs);
        let eq2 = m.equation_by_label("eq.2").unwrap();
        let (_, addrs) = tapes.stats(eq2);
        assert_eq!(addrs, 2, "one load + one store address");
        assert_eq!(
            spec.special_count(eq2),
            0,
            "fully linear: no window, no dynamic dims"
        );
    }

    #[test]
    fn windowed_dim_keeps_its_mod() {
        // fib with window 3: the K dimension must stay special.
        let src = "T: module (n: int): [y: int];
             type K = 3 .. n;
             var a: array [1 .. n] of int;
             define
                a[1] = 1;
                a[2] = 1;
                a[K] = a[K-1] + a[K-2];
                y = a[n];
             end T;";
        let inputs = Inputs::new().set_int("n", 10);
        let (m, sched) = build(src);
        let a = m.data_by_name("a").unwrap();
        assert_eq!(sched.memory.window(a, 0), Some(3), "planner windows a");
        let (_plan, tapes, _store, spec) = compile_all(&m, &sched, &inputs);
        let eq3 = m.equation_by_label("eq.3").unwrap();
        let (_, addrs) = tapes.stats(eq3);
        assert_eq!(addrs, 3, "two loads + one store");
        assert_eq!(
            spec.special_count(eq3),
            3,
            "every access of the windowed dim needs mod"
        );
    }

    #[test]
    fn guards_lower_to_fused_branches() {
        // A guarded body: the `if` condition must produce fused
        // compare-and-branch instructions, not materialized booleans.
        let src = "T: module (n: int): [out: array[1..n] of int];
             type I = 1 .. n;
             define
                out[I] = if (I = 1) or (I = n) then 0 else I;
             end T;";
        let inputs = Inputs::new().set_int("n", 8);
        let (m, sched) = build(src);
        let (_plan, tapes, _store, _spec) = compile_all(&m, &sched, &inputs);
        let eq1 = m.equation_by_label("eq.1").unwrap();
        let ceq = tapes.eqs[eq1].as_ref().unwrap();
        assert!(
            ceq.insns
                .iter()
                .any(|i| matches!(i, Insn::JumpCmpINot { .. })),
            "guard comparisons fuse into branches: {:?}",
            ceq.insns
        );
        assert!(
            !ceq.insns.iter().any(|i| matches!(i, Insn::CmpI { .. })),
            "no materialized guard booleans: {:?}",
            ceq.insns
        );
    }

    #[test]
    fn tape_executes_a_scalar_chain() {
        let src = "T: module (x: int): [y: int];
             var a, b: int;
             define
                a = x * 2;
                b = a + 1;
                y = b * b;
             end T;";
        let inputs = Inputs::new().set_int("x", 3);
        let (m, sched) = build(src);
        let (_plan, tapes, store, spec) = compile_all(&m, &sched, &inputs);
        let mut frames = Frames::new(&tapes);
        frames.bind_params(&tapes, &store.param_values(tapes.params()));
        {
            let view = ExecProg::new(&tapes, &spec, &store);
            for eq in sched.flowchart.equations() {
                view.run_eq(eq, &mut frames);
            }
        }
        let out = store.into_outputs();
        assert_eq!(out.scalar("y"), Value::Int(49));
    }

    #[test]
    fn pint_folds_constants_and_evaluates() {
        let five = PInt::bin(BinOp::Add, PInt::Const(2), PInt::Const(3));
        assert_eq!(five, PInt::Const(5), "const-const folds at build time");
        assert_eq!(PInt::neg(PInt::Const(4)), PInt::Const(-4));
        assert_eq!(PInt::abs(PInt::Const(-4)), PInt::Const(4));
        assert_eq!(
            PInt::min_max(true, PInt::Const(2), PInt::Const(9)),
            PInt::Const(2)
        );
        // M*2 + 1 under M = 8.
        let e = PInt::bin(
            BinOp::Add,
            PInt::bin(BinOp::Mul, PInt::Param(0), PInt::Const(2)),
            PInt::Const(1),
        );
        assert_eq!(e.eval(&[Value::Int(8)]), 17);
    }

    /// Static integer folding over the parameter-register representation:
    /// the `M+1` / `n-1` parameter expressions of the jacobi and
    /// wavefront-style bodies vanish into derived registers, leaving tapes
    /// of exactly these lengths.
    #[test]
    fn static_folding_shortens_jacobi_and_wavefront_tapes() {
        let wavefront = "W: module (n: int; xs: array[1..n] of real):
                [out: array[1..n] of real];
            type K = 2 .. n;
            var a: array [1 .. n] of real;
            define
                a[1] = xs[1] * real(n - 1);
                a[K] = a[K-1] + xs[n+1-K] * real(n - 1);
                out = a;
            end W;";
        for (name, src, label, len) in [
            ("jacobi", JACOBI, "eq.3", 17),
            ("wavefront", wavefront, "eq.2", 5),
        ] {
            let (m, sched) = build(src);
            let plan = StorePlan::new(&m, &sched.memory);
            let tapes = compile_tapes(&m, &plan, &sched.flowchart, false);
            let eq = m.equation_by_label(label).unwrap();
            assert_eq!(tapes.stats(eq).0, len, "{name}: folded tape length");
            assert!(
                !tapes.eqs[eq].as_ref().unwrap().derived_i.is_empty(),
                "{name}: the parameter expression becomes a derived register"
            );
        }
    }

    /// Eq.3 of Figure 6 pays for nothing it can avoid: `real(4)` is an f
    /// constant (no per-cell `CastIF`) and both `if` arms compute straight
    /// into the join register (no trailing `CopyF`): 7 guard instructions,
    /// load + jump, four loads + three adds + the multiply `/ 4` became.
    #[test]
    fn jacobi_tape_has_no_avoidable_instructions() {
        let (m, sched) = build(JACOBI);
        let plan = StorePlan::new(&m, &sched.memory);
        let tapes = compile_tapes(&m, &plan, &sched.flowchart, false);
        let eq3 = m.equation_by_label("eq.3").unwrap();
        assert_eq!(tapes.stats(eq3).0, 17);
        let insns = &tapes.eqs[eq3].as_ref().unwrap().insns;
        let avoidable = |i: &&Insn| {
            matches!(
                i,
                Insn::CastIF { .. } | Insn::CopyF { .. } | Insn::DivF { .. }
            )
        };
        assert_eq!(insns.iter().filter(avoidable).count(), 0, "{insns:?}");
    }

    /// `x / ±2^k` lowers to an exact multiply; any other divisor — not a
    /// power of two, a reciprocal that is not normal, not a constant —
    /// stays a `DivF`. The two agree bit for bit on every kind of dividend.
    #[test]
    fn division_by_a_power_of_two_constant_lowers_to_an_exact_multiply() {
        let dividends = [
            0.0,
            -0.0,
            1.0,
            -3.0,
            0.1,
            1e308,
            -1e-308,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for k in [
            -1022, -1021, -600, -52, -1, 0, 1, 2, 10, 52, 600, 1021, 1022,
        ] {
            for d in [2f64.powi(k), -(2f64.powi(k))] {
                let inv = exact_reciprocal(d).unwrap_or_else(|| panic!("2^{k} qualifies"));
                for x in dividends {
                    assert_eq!((x / d).to_bits(), (x * inv).to_bits(), "{x:e} / {d:e}");
                }
            }
        }
        let kept = [
            3.0,
            10.0,
            0.1,
            1.5,
            0.0,
            -0.0,
            2f64.powi(1023),
            2f64.powi(-1023),
            5e-324,
            f64::INFINITY,
            f64::NAN,
        ];
        for d in kept {
            assert_eq!(exact_reciprocal(d), None, "{d:e} keeps its division");
        }
        let ops = |body: &str| {
            let src = format!(
                "T: module (xs: array[I] of real; n: int; p: real): [out: array[I] of real];
                 type I = 1 .. n;
                 define out[I] = {body};
                 end T;"
            );
            let (m, sched) = build(&src);
            let plan = StorePlan::new(&m, &sched.memory);
            let tapes = compile_tapes(&m, &plan, &sched.flowchart, false);
            let eq = m.equation_by_label("eq.1").unwrap();
            let insns = &tapes.eqs[eq].as_ref().unwrap().insns;
            let count = |f: fn(&Insn) -> bool| insns.iter().filter(|i| f(i)).count();
            (
                count(|i| matches!(i, Insn::MulF { .. })),
                count(|i| matches!(i, Insn::DivF { .. })),
            )
        };
        assert_eq!(ops("xs[I] / 4"), (1, 0), "an int literal is widened first");
        assert_eq!(ops("xs[I] / 0.125 / 2.0"), (2, 0));
        assert_eq!(ops("xs[I] / 3.0 / 10"), (0, 2), "not powers of two");
        assert_eq!(ops("xs[I] / p"), (0, 1), "a parameter is not a constant");
        assert_eq!(ops("4.0 / xs[I]"), (0, 1), "only the divisor counts");
    }

    /// Tapes and specs are parameter-separable: one set of tapes, two
    /// specializations, bit-correct results under both parameter vectors.
    #[test]
    fn one_tape_two_specializations() {
        let src = "T: module (n: int): [y: int];
             type K = 2 .. n;
             var a: array [1 .. n] of int;
             define
                a[1] = 1;
                a[K] = a[K-1] + n;
                y = a[n];
             end T;";
        let (m, sched) = build(src);
        let plan = StorePlan::new(&m, &sched.memory);
        let tapes = compile_tapes(&m, &plan, &sched.flowchart, false);
        for n in [3i64, 7] {
            let inputs = Inputs::new().set_int("n", n);
            let store = plan
                .instantiate(&m, &inputs, false, &mut StoreArena::default())
                .unwrap();
            let spec = specialize(&tapes, &plan, &m, &store.params, None).unwrap();
            let mut frames = Frames::new(&tapes);
            frames.bind_params(&tapes, &store.param_values(tapes.params()));
            {
                let view = ExecProg::new(&tapes, &spec, &store);
                for eq in sched.flowchart.equations() {
                    if matches!(m.equations[eq].label.as_str(), "eq.2") {
                        for k in 2..=n {
                            frames.set_iv(eq, IvId(0), k);
                            view.run_eq(eq, &mut frames);
                        }
                    } else {
                        view.run_eq(eq, &mut frames);
                    }
                }
            }
            let out = store.into_outputs();
            assert_eq!(out.scalar("y"), Value::Int(1 + (n - 1) * n), "n = {n}");
        }
    }

    /// Five corruptions of Figure 6's eq.3 tape, one per table `validate`
    /// walks: each fault names its instruction or table section, in walk
    /// order, and `compile_tapes`' `E0604` panic carries the first as its
    /// message and the rest as notes.
    #[test]
    fn tape_faults_name_their_instruction_or_table() {
        let (m, sched) = build(JACOBI);
        let plan = StorePlan::new(&m, &sched.memory);
        let mut tapes = compile_tapes(&m, &plan, &sched.flowchart, false);
        let eq3 = m.equation_by_label("eq.3").unwrap();
        let ceq = tapes.eqs[eq3].as_mut().unwrap();
        let (n_f, n_i, len) = (ceq.n_f, ceq.n_i, ceq.insns.len() as u32);
        let add = ceq
            .insns
            .iter()
            .position(|i| matches!(i, Insn::AddF { .. }));
        if let Some(Insn::AddF { b, .. }) = ceq.insns.get_mut(add.unwrap()) {
            *b = n_f + 2;
        }
        let jump = ceq
            .insns
            .iter()
            .position(|i| matches!(i, Insn::Jump { .. }));
        ceq.insns[jump.unwrap()] = Insn::Jump { target: len + 1 };
        ceq.addr_dims[1].terms.push((n_i + 3, 1));
        ceq.preload_i.push((0, 7));
        if let OutSpec::ArrayF { buf, .. } = &mut ceq.out {
            *buf = 5;
        }
        let faults = [
            "insn 1 `Jump { target: 18 }`: jump 18 out of range",
            "insn 11 `AddF { a: 1, b: 12, dst: 3 }`: f-register 12 out of range",
            "address table: i-register 9 out of range",
            "preload table: param 7 out of range",
            "output: f-buffer 5 out of range",
        ];
        let ceq = tapes.eqs[eq3].as_ref().unwrap();
        assert_eq!(tapes.faults(ceq, plan.slot_count()), faults);
        let panic = std::panic::catch_unwind(|| tapes.assert_valid(&m, plan.slot_count()));
        let text = *panic.unwrap_err().downcast::<String>().unwrap();
        let notes: String = faults[1..]
            .iter()
            .map(|f| format!("\n  = note: {f}"))
            .collect();
        assert_eq!(
            text,
            format!(
                "error[E0604]: internal tape fault in eq.3 (writes `A`): {}{notes}",
                faults[0]
            )
        );
    }

    /// One line per instruction in the form the verifier reads it: the
    /// registers read, then `-> def` for a straight-line instruction (with
    /// the loaded array and its subscripts for a load, `(copy)` for the one
    /// copy whose interval carries over), or the jump, its target and the
    /// fused compare it branches on.
    fn verifier_view(tapes: &Tapes, m: &HirModule, eq: EqId) -> String {
        let ceq = tapes.eqs[eq].as_ref().unwrap();
        let access = |sym: &SymAddr| (sym.array.index(), ceq.dims(sym));
        let addrs: Vec<_> = ceq.sym_addrs.iter().map(access).collect();
        let tape = crate::analysis::eq_tape(m, tapes, eq, ceq, &addrs);
        let insn = tape.insns[0];
        let ops = insn.operands();
        let regs: String = ops.uses.iter().flatten().map(|r| format!("{r} ")).collect();
        let dims = |dims: &[ADim]| -> String {
            let term = |&(r, c): &(u16, i64)| format!("{c:+}i{r}");
            let dim =
                |d: &ADim| format!("{}{}", d.base, d.terms.iter().map(term).collect::<String>());
            dims.iter().map(dim).collect::<Vec<_>>().join(", ")
        };
        match (ops.flow, ops.mem, ops.def) {
            (Flow::Next, None, Some(def)) if matches!(insn, Insn::CopyI { .. }) => {
                format!("{regs}-> {def} (copy)")
            }
            (Flow::Next, Some(mem), Some(def)) => {
                let (array, addr) = tape.addrs[mem.addr as usize];
                format!("-> {def} load a{array}[{}]", dims(addr))
            }
            (Flow::Next, None, Some(def)) => format!("{regs}-> {def}"),
            (Flow::Jump(target), ..) => format!("jump {target}"),
            (Flow::Branch { target, cmp }, ..) => {
                let cmp = cmp.map_or(String::new(), |(op, jump_on_true)| {
                    let when = if jump_on_true { "" } else { "not " };
                    let [a, b] = ops.uses.map(Option::unwrap);
                    format!(" if {when}{op:?} {a} {b}")
                });
                format!("{regs}? jump {target}{cmp}")
            }
            other => panic!("{insn:?} reads as {other:?}"),
        }
    }

    /// Every instruction variant with every operand out of range, pinned
    /// before the instruction set left this file: the verifier's reading of
    /// it (its address table padded so the load resolves) and the exact
    /// faults `validate` names, in walk order. Also the instruction's size.
    #[test]
    fn every_insn_variant_reads_and_validates_as_pinned() {
        #[rustfmt::skip]
        let table: &[(Insn, &str, &[&str])] = &[
            (Insn::CopyF { src: 40, dst: 42 }, "f40 -> f42",
             &["f-register 40 out of range", "f-register 42 out of range"]),
            (Insn::CopyI { src: 40, dst: 42 }, "i40 -> i42 (copy)",
             &["i-register 40 out of range", "i-register 42 out of range"]),
            (Insn::CopyB { src: 40, dst: 42 }, "b40 -> b42",
             &["b-register 40 out of range", "b-register 42 out of range"]),
            (Insn::ReadScalar { slot: 90, dst: Reg::F(42) }, "-> f42",
             &["slot 90 out of range", "f-register 42 out of range"]),
            (Insn::ReadScalar { slot: 90, dst: Reg::I(42) }, "-> i42",
             &["slot 90 out of range", "i-register 42 out of range"]),
            (Insn::ReadScalar { slot: 90, dst: Reg::B(42) }, "-> b42",
             &["slot 90 out of range", "b-register 42 out of range"]),
            (Insn::LoadF { buf: 7, addr: 70, dst: 42 }, "-> f42 load a4[-1+1i0, 0+1i1, 0+1i2]",
             &["f-buffer 7 out of range", "addr 70 out of range", "f-register 42 out of range"]),
            (Insn::LoadI { buf: 7, addr: 70, dst: 42 }, "-> i42 load a4[-1+1i0, 0+1i1, 0+1i2]",
             &["i-buffer 7 out of range", "addr 70 out of range", "i-register 42 out of range"]),
            (Insn::LoadB { buf: 7, addr: 70, dst: 42 }, "-> b42 load a4[-1+1i0, 0+1i1, 0+1i2]",
             &["b-buffer 7 out of range", "addr 70 out of range", "b-register 42 out of range"]),
            (Insn::AddF { a: 40, b: 41, dst: 42 }, "f40 f41 -> f42",
             &["f-register 40 out of range", "f-register 41 out of range", "f-register 42 out of range"]),
            (Insn::SubF { a: 40, b: 41, dst: 42 }, "f40 f41 -> f42",
             &["f-register 40 out of range", "f-register 41 out of range", "f-register 42 out of range"]),
            (Insn::MulF { a: 40, b: 41, dst: 42 }, "f40 f41 -> f42",
             &["f-register 40 out of range", "f-register 41 out of range", "f-register 42 out of range"]),
            (Insn::DivF { a: 40, b: 41, dst: 42 }, "f40 f41 -> f42",
             &["f-register 40 out of range", "f-register 41 out of range", "f-register 42 out of range"]),
            (Insn::MinF { a: 40, b: 41, dst: 42 }, "f40 f41 -> f42",
             &["f-register 40 out of range", "f-register 41 out of range", "f-register 42 out of range"]),
            (Insn::MaxF { a: 40, b: 41, dst: 42 }, "f40 f41 -> f42",
             &["f-register 40 out of range", "f-register 41 out of range", "f-register 42 out of range"]),
            (Insn::AddI { a: 40, b: 41, dst: 42 }, "i40 i41 -> i42",
             &["i-register 40 out of range", "i-register 41 out of range", "i-register 42 out of range"]),
            (Insn::SubI { a: 40, b: 41, dst: 42 }, "i40 i41 -> i42",
             &["i-register 40 out of range", "i-register 41 out of range", "i-register 42 out of range"]),
            (Insn::MulI { a: 40, b: 41, dst: 42 }, "i40 i41 -> i42",
             &["i-register 40 out of range", "i-register 41 out of range", "i-register 42 out of range"]),
            (Insn::DivI { a: 40, b: 41, dst: 42 }, "i40 i41 -> i42",
             &["i-register 40 out of range", "i-register 41 out of range", "i-register 42 out of range"]),
            (Insn::ModI { a: 40, b: 41, dst: 42 }, "i40 i41 -> i42",
             &["i-register 40 out of range", "i-register 41 out of range", "i-register 42 out of range"]),
            (Insn::MinI { a: 40, b: 41, dst: 42 }, "i40 i41 -> i42",
             &["i-register 40 out of range", "i-register 41 out of range", "i-register 42 out of range"]),
            (Insn::MaxI { a: 40, b: 41, dst: 42 }, "i40 i41 -> i42",
             &["i-register 40 out of range", "i-register 41 out of range", "i-register 42 out of range"]),
            (Insn::NegF { a: 40, dst: 42 }, "f40 -> f42",
             &["f-register 40 out of range", "f-register 42 out of range"]),
            (Insn::NegI { a: 40, dst: 42 }, "i40 -> i42",
             &["i-register 40 out of range", "i-register 42 out of range"]),
            (Insn::AbsF { a: 40, dst: 42 }, "f40 -> f42",
             &["f-register 40 out of range", "f-register 42 out of range"]),
            (Insn::AbsI { a: 40, dst: 42 }, "i40 -> i42",
             &["i-register 40 out of range", "i-register 42 out of range"]),
            (Insn::NotB { a: 40, dst: 42 }, "b40 -> b42",
             &["b-register 40 out of range", "b-register 42 out of range"]),
            (Insn::SqrtF { a: 40, dst: 42 }, "f40 -> f42",
             &["f-register 40 out of range", "f-register 42 out of range"]),
            (Insn::ExpF { a: 40, dst: 42 }, "f40 -> f42",
             &["f-register 40 out of range", "f-register 42 out of range"]),
            (Insn::LnF { a: 40, dst: 42 }, "f40 -> f42",
             &["f-register 40 out of range", "f-register 42 out of range"]),
            (Insn::SinF { a: 40, dst: 42 }, "f40 -> f42",
             &["f-register 40 out of range", "f-register 42 out of range"]),
            (Insn::CosF { a: 40, dst: 42 }, "f40 -> f42",
             &["f-register 40 out of range", "f-register 42 out of range"]),
            (Insn::CastIF { a: 40, dst: 42 }, "i40 -> f42",
             &["i-register 40 out of range", "f-register 42 out of range"]),
            (Insn::TruncFI { a: 40, dst: 42 }, "f40 -> i42",
             &["f-register 40 out of range", "i-register 42 out of range"]),
            (Insn::RoundFI { a: 40, dst: 42 }, "f40 -> i42",
             &["f-register 40 out of range", "i-register 42 out of range"]),
            (Insn::CmpF { op: CmpOp::Lt, a: 40, b: 41, dst: 42 }, "f40 f41 -> b42",
             &["f-register 40 out of range", "f-register 41 out of range", "b-register 42 out of range"]),
            (Insn::CmpI { op: CmpOp::Ge, a: 40, b: 41, dst: 42 }, "i40 i41 -> b42",
             &["i-register 40 out of range", "i-register 41 out of range", "b-register 42 out of range"]),
            (Insn::CmpB { op: CmpOp::Ne, a: 40, b: 41, dst: 42 }, "b40 b41 -> b42",
             &["b-register 40 out of range", "b-register 41 out of range", "b-register 42 out of range"]),
            (Insn::Jump { target: 99 }, "jump 99",
             &["jump 99 out of range"]),
            (Insn::JumpIfNot { cond: 40, target: 99 }, "b40 ? jump 99",
             &["b-register 40 out of range", "jump 99 out of range"]),
            (Insn::JumpIf { cond: 40, target: 99 }, "b40 ? jump 99",
             &["b-register 40 out of range", "jump 99 out of range"]),
            (Insn::JumpCmpFNot { op: CmpOp::Le, a: 40, b: 41, target: 99 }, "f40 f41 ? jump 99 if not Le f40 f41",
             &["f-register 40 out of range", "f-register 41 out of range", "jump 99 out of range"]),
            (Insn::JumpCmpINot { op: CmpOp::Eq, a: 40, b: 41, target: 99 }, "i40 i41 ? jump 99 if not Eq i40 i41",
             &["i-register 40 out of range", "i-register 41 out of range", "jump 99 out of range"]),
            (Insn::JumpCmpF { op: CmpOp::Gt, a: 40, b: 41, target: 99 }, "f40 f41 ? jump 99 if Gt f40 f41",
             &["f-register 40 out of range", "f-register 41 out of range", "jump 99 out of range"]),
            (Insn::JumpCmpI { op: CmpOp::Lt, a: 40, b: 41, target: 99 }, "i40 i41 ? jump 99 if Lt i40 i41",
             &["i-register 40 out of range", "i-register 41 out of range", "jump 99 out of range"]),
        ];
        let (m, sched) = build(JACOBI);
        let plan = StorePlan::new(&m, &sched.memory);
        let mut tapes = compile_tapes(&m, &plan, &sched.flowchart, false);
        let eq3 = m.equation_by_label("eq.3").unwrap();
        let n_addrs = tapes.eqs[eq3].as_ref().unwrap().sym_addrs.len();
        for &(insn, reads, faults) in table {
            let ceq = tapes.eqs[eq3].as_mut().unwrap();
            ceq.insns = vec![insn];
            ceq.sym_addrs.truncate(n_addrs);
            let ceq = tapes.eqs[eq3].as_ref().unwrap();
            let want: Vec<String> = faults
                .iter()
                .map(|f| format!("insn 0 `{insn:?}`: {f}"))
                .collect();
            assert_eq!(tapes.faults(ceq, plan.slot_count()), want);
            let ceq = tapes.eqs[eq3].as_mut().unwrap();
            let first = ceq.sym_addrs[0];
            ceq.sym_addrs.resize(71, first);
            assert_eq!(verifier_view(&tapes, &m, eq3), reads, "{insn:?}");
        }
        assert_eq!(
            table.len(),
            45,
            "every variant, `ReadScalar` into each file"
        );
        assert_eq!(std::mem::size_of::<Insn>(), 12);
    }
}
