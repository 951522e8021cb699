//! Lowering every scheduled equation to a typed register tape
//! ([`compile_tapes`]); one [`Lowerer`] owns all lowering state.

use super::{kind_of, CompiledEq, OutSpec, PInt, SymAddr, Tapes};
use crate::store::StorePlan;
use crate::strip::ScalarReason;
use ps_analyze::{ADim, CmpOp, Insn, Kind, Reg};
use ps_lang::ast::{BinOp, UnOp};
use ps_lang::hir::{Builtin, DataKind, Equation, HExpr, LhsSub, SubscriptExpr};
use ps_lang::{DataId, EqId, HirModule, ScalarTy, Ty};
use ps_scheduler::{Descriptor, Flowchart};
use ps_support::idx::{Idx, IndexVec};
use ps_support::{FxHashMap, SmallVec, Symbol};

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
        counters: named_depth(&flowchart.items),
    };
    tapes.assert_valid(module, plan.slot_count());
    tapes
}

/// How many enclosing counters the bounds of the loops in `items` name:
/// one past the deepest a narrowing form reads.
fn named_depth(items: &[Descriptor]) -> usize {
    let named = |d: &Descriptor| match d {
        Descriptor::Loop(l) => {
            let forms = l.bounds.narrow.iter().flat_map(|f| &f.counters);
            let deepest = forms.map(|&(d, _)| d as usize + 1).max();
            deepest.unwrap_or(0).max(named_depth(&l.body))
        }
        Descriptor::Equation(_) => 0,
    };
    items.iter().map(named).max().unwrap_or(0)
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
                // Int results widen into real arrays.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Inputs;
    use crate::tape::tests::{build, compile_all, JACOBI};

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
}
