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
//! their meaning. The artifact splits in three, and the files with it:
//!
//! * [`Tapes`] — the parameter-*independent* program: instruction tapes,
//!   register-file sizes, constant pools, the parameter-register preload
//!   table, and *symbolic* addresses ([`SymAddr`]: per-dimension affine
//!   forms over registers, not yet folded against any layout):
//!   `lower.rs`, checked by `validate.rs`.
//! * [`Spec`] — one cheap per-parameter-layout *specialization*: every
//!   symbolic address folded against the concrete array layouts into
//!   strength-reduced physical offsets. Cached per distinct integer
//!   parameter vector, so repeat runs skip it entirely: `spec.rs`.
//! * [`ExecProg`] — one run's execution view: the tapes + spec + the live
//!   store's typed buffers resolved by index, and the scalar walker:
//!   `exec.rs`, the one file here with `unsafe`.
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
//!   [`Frames`]; the tape only indexes into them, with ordinary bounds
//!   checks. A full validation pass over every lowered tape (`validate`)
//!   proves each index in range at compile time, so a lowering bug is a
//!   named `E0604` fault there rather than an index panic in some later
//!   run; memory safety does not rest on it.
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
//!   and checks it against the store's tag tables: a load must find its
//!   element in the slot, a store must not find it there already
//!   (window-eviction and double-write detection).
//!
//! Operation order is the post-order of the equation's `HExpr`, with
//! `and`/`or` and `if` evaluating only the side taken — the order
//! [`crate::naive`] evaluates in, so the differential suites can assert
//! bit-identical outputs against it.

mod exec;
mod lower;
mod spec;
mod validate;

pub(crate) use exec::{ExecProg, Frame, Frames};
pub(crate) use lower::compile_tapes;
#[cfg(test)]
pub(crate) use spec::fold_addr;
pub(crate) use spec::specialize;

use crate::store::StorePlan;
use crate::strip::{self, ScalarReason, StripPlan};
use crate::value::Value;
use ps_analyze::{ADim, Insn, Kind, Mem, Reg};
use ps_lang::ast::BinOp;
use ps_lang::{DataId, EqId, HirModule, ScalarTy};
use ps_scheduler::{Flowchart, LoopDescriptor};
use ps_support::idx::IndexVec;

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
    /// Tape-level checked-writes mode: loads and stores maintain the
    /// store's logical tags (`ArrayInstance::tags`).
    pub(crate) checked: bool,
    /// How many enclosing counters loop bounds name: one past the deepest
    /// depth a narrowing form reads, 0 when no loop is narrowed.
    pub(crate) counters: usize,
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
    /// Every loop of the flowchart, in preorder.
    loops: Vec<LoopSpec>,
    /// The evaluated `rest` of every narrowing form, loop by loop.
    rests: Vec<i64>,
}

/// One flowchart loop's bounds under one parameter vector.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LoopSpec {
    /// The box, evaluated.
    lo: i64,
    hi: i64,
    /// The preorder index one past the loop's last descendant: the next
    /// loop of the body the loop sits in.
    pub(crate) end: u32,
    /// How many loops enclose it: the slot of [`Frames`]' counters its
    /// counter fills.
    pub(crate) depth: u16,
    /// Where its narrowing forms' rests start in [`Spec`]'s table.
    rests: u32,
}

impl Spec {
    /// Loop `id`'s entry in the preorder table.
    #[inline]
    pub(crate) fn loop_spec(&self, id: u32) -> LoopSpec {
        self.loops[id as usize]
    }

    /// The range loop `l`, entry `s` of the table, runs over: its box, one
    /// table read, narrowed by its forms at the enclosing `counters`.
    #[inline]
    pub(crate) fn loop_range(
        &self,
        l: &LoopDescriptor,
        s: LoopSpec,
        counters: &[i64],
    ) -> (i64, i64) {
        let mut range = (s.lo, s.hi);
        if !l.bounds.narrow.is_empty() {
            let rests = &self.rests[s.rests as usize..];
            for (f, &rest) in l.bounds.narrow.iter().zip(rests) {
                range = f.clamp(rest, counters, range);
            }
        }
        range
    }

    /// How many addresses of `eq` kept a windowed special dimension.
    #[cfg(test)]
    fn special_count(&self, eq: EqId) -> usize {
        self.addrs[eq].iter().map(|a| a.special.len()).sum()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::store::{Inputs, Store, StoreArena};
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

    /// Compile tapes and one specialization against `inputs`.
    pub(crate) fn compile_all<'m>(
        m: &'m HirModule,
        sched: &ScheduleResult,
        inputs: &Inputs,
    ) -> (StorePlan, Tapes, Store<'m>, Spec) {
        let plan = StorePlan::new(m, &sched.memory);
        let tapes = compile_tapes(m, &plan, &sched.flowchart, false);
        let store = plan
            .instantiate_masked(m, inputs, false, None, &mut StoreArena::default())
            .unwrap();
        let spec = specialize(&tapes, &plan, m, &sched.flowchart, &store.params, None).unwrap();
        (plan, tapes, store, spec)
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
}
