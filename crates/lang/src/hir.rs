//! High-level IR: the checked, normalized form of a PS module.
//!
//! Normalizations performed by the checker (all load-bearing for the
//! scheduler):
//!
//! * nested array types are flattened, so the paper's
//!   `array [1..maxK] of array [I,J] of real` becomes a rank-3 array;
//! * implicit slice equations are expanded with synthesized index variables:
//!   `A[1] = InitialA` becomes `A[1, i, j] = InitialA[i, j]` with `i: I`,
//!   `j: J` — this is what lets the scheduler emit Figure 5's
//!   `DOALL I (DOALL J (eq.1))`;
//! * every array subscript is classified into the Figure-2 forms:
//!   [`SubscriptExpr::Var`] (`I`), [`SubscriptExpr::VarOffset`]
//!   (`I ± constant`), [`SubscriptExpr::Affine`] (affine in several index
//!   variables and parameters — e.g. the transformed `K' - 2I' - J'`), or
//!   [`SubscriptExpr::Dynamic`] (anything else);
//! * `int → real` widenings are explicit [`HExpr::CastReal`] nodes, so the
//!   evaluator and C emitter never re-derive typing.

use crate::ast::{BinOp, UnOp};
use crate::bounds::Affine;
use crate::types::{EnumDef, EnumId, RecordDef, RecordId, ScalarTy, Subrange, SubrangeId, Ty};
use ps_support::idx::IndexVec;
use ps_support::{new_index_type, Span, Symbol};

new_index_type! {
    /// Handle to a [`DataItem`] (parameter, result, or local variable).
    pub struct DataId; "d"
}
new_index_type! {
    /// Handle to an [`Equation`].
    pub struct EqId; "eq"
}
new_index_type! {
    /// Handle to an [`IndexVar`] *within one equation*.
    pub struct IvId; "iv"
}

/// What role a data item plays in the module interface.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DataKind {
    /// Module input parameter.
    Param,
    /// Module result.
    Result,
    /// Local variable from the `var` section.
    Local,
}

/// A named data item of the module.
#[derive(Clone, Debug)]
pub struct DataItem {
    pub name: Symbol,
    pub kind: DataKind,
    pub ty: Ty,
    pub span: Span,
}

impl DataItem {
    /// Dimension subranges for arrays; empty for scalars.
    pub fn dims(&self) -> &[SubrangeId] {
        match &self.ty {
            Ty::Array { dims, .. } => dims,
            _ => &[],
        }
    }

    pub fn is_array(&self) -> bool {
        !self.dims().is_empty()
    }

    /// Scalar element type (for arrays, the element; for scalars, the type).
    pub fn elem_scalar(&self) -> Option<ScalarTy> {
        match &self.ty {
            Ty::Array { elem, .. } => Some(*elem),
            Ty::Scalar(s) => Some(*s),
            _ => None,
        }
    }
}

/// An index variable bound by an equation's left-hand side.
///
/// `A[K, I, J] = ...` binds three index variables; `A[1] = InitialA` binds
/// two *implicit* ones covering the sliced dimensions.
#[derive(Clone, Debug)]
pub struct IndexVar {
    /// Display name; synthesized variables reuse the subrange name.
    pub name: Symbol,
    /// The subrange the variable iterates over.
    pub subrange: SubrangeId,
    /// True when synthesized for an implicit slice dimension.
    pub implicit: bool,
}

/// One dimension of an equation's left-hand side.
#[derive(Clone, Debug)]
pub enum LhsSub {
    /// A fixed plane: `A[1, ...]` or `A[maxK, ...]` (affine in parameters).
    Const(Affine),
    /// A full-range dimension bound to an index variable.
    Var(IvId),
}

/// An affine combination of index variables and parameters:
/// `Σ coeffᵢ·ivᵢ + (params + const)`.
#[derive(Clone, Debug, PartialEq)]
pub struct AffineIx {
    /// Index-variable terms with nonzero coefficients, sorted by id.
    pub iv_terms: Vec<(IvId, i64)>,
    /// Parameter-and-constant remainder.
    pub rest: Affine,
}

impl AffineIx {
    pub fn constant(rest: Affine) -> AffineIx {
        AffineIx {
            iv_terms: Vec::new(),
            rest,
        }
    }

    pub fn from_iv(iv: IvId) -> AffineIx {
        AffineIx {
            iv_terms: vec![(iv, 1)],
            rest: Affine::constant(0),
        }
    }

    pub fn is_constant(&self) -> bool {
        self.iv_terms.is_empty()
    }

    /// Coefficient of `iv` (0 when absent).
    pub fn coeff(&self, iv: IvId) -> i64 {
        self.iv_terms
            .iter()
            .find(|(v, _)| *v == iv)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }

    pub fn add(&self, other: &AffineIx) -> AffineIx {
        let mut terms: Vec<(IvId, i64)> = self.iv_terms.clone();
        for &(iv, c) in &other.iv_terms {
            match terms.iter_mut().find(|(v, _)| *v == iv) {
                Some((_, existing)) => *existing += c,
                None => terms.push((iv, c)),
            }
        }
        terms.retain(|(_, c)| *c != 0);
        terms.sort_by_key(|(v, _)| *v);
        AffineIx {
            iv_terms: terms,
            rest: self.rest.add(&other.rest),
        }
    }

    pub fn scale(&self, k: i64) -> AffineIx {
        if k == 0 {
            return AffineIx::constant(Affine::constant(0));
        }
        AffineIx {
            iv_terms: self.iv_terms.iter().map(|&(v, c)| (v, c * k)).collect(),
            rest: self.rest.scale(k),
        }
    }

    pub fn sub(&self, other: &AffineIx) -> AffineIx {
        self.add(&other.scale(-1))
    }

    pub fn add_const(&self, k: i64) -> AffineIx {
        AffineIx {
            iv_terms: self.iv_terms.clone(),
            rest: self.rest.add_const(k),
        }
    }
}

/// A classified array subscript (the paper's Figure 2 edge-label forms).
#[derive(Clone, Debug)]
pub enum SubscriptExpr {
    /// Exactly `I` — the identity form.
    Var(IvId),
    /// `I + delta` with `delta != 0`. Negative `delta` is the paper's
    /// "I - constant" (deletable recursive reference); positive `delta`
    /// ("I + constant") counts as *other* for scheduling.
    VarOffset(IvId, i64),
    /// General affine form (several index variables and/or parameter terms),
    /// e.g. `maxK` or the transformed `K' - 2I' - J'`.
    Affine(AffineIx),
    /// Anything non-affine.
    Dynamic(Box<HExpr>),
}

impl SubscriptExpr {
    /// Canonicalize an [`AffineIx`] into the cheapest subscript form.
    pub fn from_affine(a: AffineIx) -> SubscriptExpr {
        if a.iv_terms.len() == 1 && a.iv_terms[0].1 == 1 {
            if let Some(delta) = a.rest.as_constant() {
                let iv = a.iv_terms[0].0;
                return if delta == 0 {
                    SubscriptExpr::Var(iv)
                } else {
                    SubscriptExpr::VarOffset(iv, delta)
                };
            }
        }
        SubscriptExpr::Affine(a)
    }

    /// View as an affine form, when possible.
    pub fn as_affine(&self) -> Option<AffineIx> {
        match self {
            SubscriptExpr::Var(iv) => Some(AffineIx::from_iv(*iv)),
            SubscriptExpr::VarOffset(iv, d) => Some(AffineIx::from_iv(*iv).add_const(*d)),
            SubscriptExpr::Affine(a) => Some(a.clone()),
            SubscriptExpr::Dynamic(_) => None,
        }
    }
}

/// Builtin scalar functions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Builtin {
    Abs,
    Min,
    Max,
    Sqrt,
    Exp,
    Ln,
    Sin,
    Cos,
    /// `trunc(real) -> int`
    Trunc,
    /// `round(real) -> int`
    Round,
    /// `real(int) -> real`
    RealFn,
    /// `ord(enum | char) -> int`
    Ord,
}

impl Builtin {
    pub fn lookup(name: &str) -> Option<Builtin> {
        Some(match name {
            "abs" => Builtin::Abs,
            "min" => Builtin::Min,
            "max" => Builtin::Max,
            "sqrt" => Builtin::Sqrt,
            "exp" => Builtin::Exp,
            "ln" => Builtin::Ln,
            "sin" => Builtin::Sin,
            "cos" => Builtin::Cos,
            "trunc" => Builtin::Trunc,
            "round" => Builtin::Round,
            "real" => Builtin::RealFn,
            "ord" => Builtin::Ord,
            _ => return None,
        })
    }

    pub fn name(&self) -> &'static str {
        match self {
            Builtin::Abs => "abs",
            Builtin::Min => "min",
            Builtin::Max => "max",
            Builtin::Sqrt => "sqrt",
            Builtin::Exp => "exp",
            Builtin::Ln => "ln",
            Builtin::Sin => "sin",
            Builtin::Cos => "cos",
            Builtin::Trunc => "trunc",
            Builtin::Round => "round",
            Builtin::RealFn => "real",
            Builtin::Ord => "ord",
        }
    }

    pub fn arity(&self) -> usize {
        match self {
            Builtin::Min | Builtin::Max => 2,
            _ => 1,
        }
    }
}

/// A checked expression. Every node is scalar-typed; the checker records the
/// result type where it is not derivable from the operands alone.
#[derive(Clone, Debug)]
pub enum HExpr {
    Int(i64),
    Real(f64),
    Bool(bool),
    Char(char),
    /// A variant of an enumeration, by ordinal.
    EnumConst(EnumId, usize),
    /// Read of a scalar parameter, result, or local.
    ReadScalar(DataId),
    /// Read of a record field.
    ReadField(DataId, usize),
    /// Current value of an index variable (an `int`).
    Iv(IvId),
    /// Full-rank array element read.
    ReadArray {
        array: DataId,
        subs: Vec<SubscriptExpr>,
        span: Span,
    },
    Binary {
        op: BinOp,
        lhs: Box<HExpr>,
        rhs: Box<HExpr>,
    },
    Unary {
        op: UnOp,
        operand: Box<HExpr>,
    },
    /// `if c₁ then v₁ elsif c₂ then v₂ ... else e`.
    If {
        arms: Vec<(HExpr, HExpr)>,
        else_: Box<HExpr>,
    },
    Call {
        builtin: Builtin,
        args: Vec<HExpr>,
    },
    /// Explicit `int → real` widening inserted by the checker.
    CastReal(Box<HExpr>),
}

impl HExpr {
    /// Walk the expression tree, visiting every node (preorder).
    pub fn visit(&self, f: &mut impl FnMut(&HExpr)) {
        f(self);
        match self {
            HExpr::ReadArray { subs, .. } => {
                for s in subs {
                    if let SubscriptExpr::Dynamic(e) = s {
                        e.visit(f);
                    }
                }
            }
            HExpr::Binary { lhs, rhs, .. } => {
                lhs.visit(f);
                rhs.visit(f);
            }
            HExpr::Unary { operand, .. } => operand.visit(f),
            HExpr::If { arms, else_ } => {
                for (c, v) in arms {
                    c.visit(f);
                    v.visit(f);
                }
                else_.visit(f);
            }
            HExpr::Call { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
            HExpr::CastReal(e) => e.visit(f),
            _ => {}
        }
    }

    /// Collect every array read in the expression (including those inside
    /// dynamic subscripts).
    pub fn array_reads(&self) -> Vec<(DataId, &[SubscriptExpr])> {
        let mut out: Vec<(DataId, &[SubscriptExpr])> = Vec::new();
        // Manual traversal because `visit` borrows nodes individually.
        fn go<'a>(e: &'a HExpr, out: &mut Vec<(DataId, &'a [SubscriptExpr])>) {
            match e {
                HExpr::ReadArray { array, subs, .. } => {
                    out.push((*array, subs.as_slice()));
                    for s in subs {
                        if let SubscriptExpr::Dynamic(inner) = s {
                            go(inner, out);
                        }
                    }
                }
                HExpr::Binary { lhs, rhs, .. } => {
                    go(lhs, out);
                    go(rhs, out);
                }
                HExpr::Unary { operand, .. } => go(operand, out),
                HExpr::If { arms, else_ } => {
                    for (c, v) in arms {
                        go(c, out);
                        go(v, out);
                    }
                    go(else_, out);
                }
                HExpr::Call { args, .. } => {
                    for a in args {
                        go(a, out);
                    }
                }
                HExpr::CastReal(inner) => go(inner, out),
                _ => {}
            }
        }
        go(self, &mut out);
        out
    }

    /// Collect every scalar data read (params, scalar locals/results,
    /// record fields).
    pub fn scalar_reads(&self) -> Vec<DataId> {
        let mut out = Vec::new();
        self.visit(&mut |e| match e {
            HExpr::ReadScalar(d) | HExpr::ReadField(d, _) => out.push(*d),
            _ => {}
        });
        out
    }

    /// Collect record-field reads as `(record, field index)` pairs.
    pub fn field_reads(&self) -> Vec<(DataId, usize)> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let HExpr::ReadField(d, idx) = e {
                out.push((*d, *idx));
            }
        });
        out
    }
}

/// A checked, normalized equation.
#[derive(Clone, Debug)]
pub struct Equation {
    /// Paper-style label: `eq.1`, `eq.2`, ... in source order.
    pub label: String,
    /// The data item defined by this equation.
    pub lhs: DataId,
    /// Record field index when the target is `R.field`.
    pub lhs_field: Option<usize>,
    /// One entry per dimension of the LHS array (empty for scalars).
    pub lhs_subs: Vec<LhsSub>,
    /// Index variables bound by the LHS, in dimension order.
    pub ivs: IndexVec<IvId, IndexVar>,
    pub rhs: HExpr,
    pub span: Span,
}

/// A fully checked module.
#[derive(Clone, Debug)]
pub struct HirModule {
    pub name: Symbol,
    pub data: IndexVec<DataId, DataItem>,
    pub params: Vec<DataId>,
    pub results: Vec<DataId>,
    pub subranges: IndexVec<SubrangeId, Subrange>,
    pub enums: IndexVec<EnumId, EnumDef>,
    pub records: IndexVec<RecordId, RecordDef>,
    pub equations: IndexVec<EqId, Equation>,
}

impl HirModule {
    /// The *runtime* scalar type of a declared type: enumerations and
    /// characters are carried as integers by the evaluators and the C
    /// emitter, arrays report their element type. Records have no scalar
    /// runtime type (fields are read individually via [`HExpr::ReadField`]).
    pub fn runtime_scalar_ty(&self, ty: &Ty) -> ScalarTy {
        match ty {
            Ty::Scalar(ScalarTy::Char) => ScalarTy::Int,
            Ty::Scalar(s) => *s,
            Ty::Enum(_) => ScalarTy::Int,
            Ty::Array { elem, .. } => {
                if *elem == ScalarTy::Char {
                    ScalarTy::Int
                } else {
                    *elem
                }
            }
            Ty::Record(_) | Ty::Error => {
                panic!("type {ty:?} has no scalar runtime representation")
            }
        }
    }

    /// Synthesize the runtime scalar type of `e`, a (sub)expression of
    /// `eq`'s right-hand side.
    ///
    /// The checker guarantees every `HExpr` is scalar-typed and inserts
    /// explicit [`HExpr::CastReal`] widenings, so the type is derivable
    /// bottom-up without an environment. This is the type information an
    /// ahead-of-time lowering (e.g. `ps-runtime`'s compiled engine, which
    /// assigns every node a typed untagged register) needs from the front
    /// end. Characters and enumeration values report [`ScalarTy::Int`],
    /// matching their runtime representation.
    pub fn expr_scalar_ty(&self, eq: &Equation, e: &HExpr) -> ScalarTy {
        match e {
            HExpr::Int(_) | HExpr::Char(_) | HExpr::EnumConst(..) | HExpr::Iv(_) => ScalarTy::Int,
            HExpr::Real(_) | HExpr::CastReal(_) => ScalarTy::Real,
            HExpr::Bool(_) => ScalarTy::Bool,
            HExpr::ReadScalar(d) => self.runtime_scalar_ty(&self.data[*d].ty),
            HExpr::ReadField(d, idx) => match &self.data[*d].ty {
                Ty::Record(rid) => self.runtime_scalar_ty(&self.records[*rid].fields[*idx].1),
                other => panic!("field read of non-record type {other:?}"),
            },
            HExpr::ReadArray { array, .. } => self.runtime_scalar_ty(&self.data[*array].ty),
            HExpr::Binary { op, lhs, .. } => match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul => self.expr_scalar_ty(eq, lhs),
                BinOp::Div => ScalarTy::Real,
                BinOp::IntDiv | BinOp::Mod => ScalarTy::Int,
                BinOp::Eq
                | BinOp::Ne
                | BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
                | BinOp::And
                | BinOp::Or => ScalarTy::Bool,
            },
            HExpr::Unary { op, operand } => match op {
                UnOp::Neg => self.expr_scalar_ty(eq, operand),
                UnOp::Not => ScalarTy::Bool,
            },
            // The checker widens arms to a common type, so any arm works;
            // the `else` branch is always present.
            HExpr::If { else_, .. } => self.expr_scalar_ty(eq, else_),
            HExpr::Call { builtin, args } => match builtin {
                Builtin::Abs | Builtin::Min | Builtin::Max => self.expr_scalar_ty(eq, &args[0]),
                Builtin::Sqrt
                | Builtin::Exp
                | Builtin::Ln
                | Builtin::Sin
                | Builtin::Cos
                | Builtin::RealFn => ScalarTy::Real,
                Builtin::Trunc | Builtin::Round | Builtin::Ord => ScalarTy::Int,
            },
        }
    }

    /// Look a data item up by name.
    pub fn data_by_name(&self, name: &str) -> Option<DataId> {
        let sym = Symbol::intern(name);
        self.data
            .iter_enumerated()
            .find(|(_, d)| d.name == sym)
            .map(|(id, _)| id)
    }

    /// Look an equation up by its `eq.N` label.
    pub fn equation_by_label(&self, label: &str) -> Option<EqId> {
        self.equations
            .iter_enumerated()
            .find(|(_, e)| e.label == label)
            .map(|(id, _)| id)
    }

    /// Scalar integer parameters (the symbols usable in affine bounds).
    pub fn scalar_int_params(&self) -> Vec<DataId> {
        self.params
            .iter()
            .copied()
            .filter(|&d| self.data[d].ty == Ty::Scalar(ScalarTy::Int))
            .collect()
    }

    /// Every scalar (non-array) parameter, in declaration order.
    ///
    /// This is the runtime's *parameter-register table*: a compiled
    /// artifact that wants to be reusable across runs assigns each of
    /// these a slot, binds the slot from the live [`Inputs`] at run time,
    /// and lowers parameter reads to slot references instead of folding
    /// the current value in as a constant.
    ///
    /// [`Inputs`]: DataKind::Param
    pub fn scalar_params(&self) -> Vec<DataId> {
        self.params
            .iter()
            .copied()
            .filter(|&d| !self.data[d].is_array())
            .collect()
    }

    /// All equations defining `target`.
    pub fn defs_of(&self, target: DataId) -> Vec<EqId> {
        self.equations
            .iter_enumerated()
            .filter(|(_, e)| e.lhs == target)
            .map(|(id, _)| id)
            .collect()
    }

    pub fn subrange(&self, id: SubrangeId) -> &Subrange {
        &self.subranges[id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_ix_algebra() {
        let a = AffineIx::from_iv(IvId(0)).scale(2); // 2K
        let b = AffineIx::from_iv(IvId(1)); // I
        let sum = a.add(&b).add_const(3); // 2K + I + 3
        assert_eq!(sum.coeff(IvId(0)), 2);
        assert_eq!(sum.coeff(IvId(1)), 1);
        assert_eq!(sum.coeff(IvId(2)), 0);
        assert_eq!(sum.rest.as_constant(), Some(3));
        let cancelled = sum.sub(&sum);
        assert!(cancelled.is_constant());
        assert_eq!(cancelled.rest.as_constant(), Some(0));
    }

    #[test]
    fn subscript_canonicalization() {
        // iv + 0 → Var
        let v = SubscriptExpr::from_affine(AffineIx::from_iv(IvId(1)));
        assert!(matches!(v, SubscriptExpr::Var(IvId(1))));
        // iv - 1 → VarOffset(-1), the paper's "I - constant"
        let off = SubscriptExpr::from_affine(AffineIx::from_iv(IvId(0)).add_const(-1));
        assert!(matches!(off, SubscriptExpr::VarOffset(IvId(0), -1)));
        // 2iv → general affine
        let aff = SubscriptExpr::from_affine(AffineIx::from_iv(IvId(0)).scale(2));
        assert!(matches!(aff, SubscriptExpr::Affine(_)));
        // param-only → constant affine
        let c =
            SubscriptExpr::from_affine(AffineIx::constant(Affine::param(Symbol::intern("maxK"))));
        assert!(matches!(c, SubscriptExpr::Affine(a) if a.is_constant()));
    }

    #[test]
    fn builtin_lookup() {
        assert_eq!(Builtin::lookup("sqrt"), Some(Builtin::Sqrt));
        assert_eq!(Builtin::lookup("nope"), None);
        assert_eq!(Builtin::Min.arity(), 2);
        assert_eq!(Builtin::Abs.arity(), 1);
    }

    #[test]
    fn expr_scalar_ty_synthesis() {
        let m = crate::frontend(
            "T: module (n: int): [y: real];
             type I = 1 .. n; Color = (red, green);
             var a: array [I] of real; c: array [I] of int;
             f: bool; col: Color;
             define
                a[I] = real(I) / 2.0 + 1.0;
                c[I] = if I > 1 then I mod 2 else abs(I - 2);
                f = a[1] < a[n];
                col = green;
                y = a[n] + real(c[n] + ord(col));
             end T;",
        )
        .unwrap();
        let rhs_ty = |label: &str| {
            let id = m.equation_by_label(label).unwrap();
            let eq = &m.equations[id];
            m.expr_scalar_ty(eq, &eq.rhs)
        };
        assert_eq!(rhs_ty("eq.1"), ScalarTy::Real, "real arithmetic");
        assert_eq!(rhs_ty("eq.2"), ScalarTy::Int, "if/mod/abs over ints");
        assert_eq!(rhs_ty("eq.3"), ScalarTy::Bool, "comparison");
        assert_eq!(rhs_ty("eq.4"), ScalarTy::Int, "enum carried as int");
        assert_eq!(rhs_ty("eq.5"), ScalarTy::Real, "cast + call");
    }

    #[test]
    fn array_reads_walks_nested() {
        // B[ A[iv0] ] — dynamic subscript containing a read.
        let inner = HExpr::ReadArray {
            array: DataId(0),
            subs: vec![SubscriptExpr::Var(IvId(0))],
            span: Span::DUMMY,
        };
        let outer = HExpr::ReadArray {
            array: DataId(1),
            subs: vec![SubscriptExpr::Dynamic(Box::new(inner))],
            span: Span::DUMMY,
        };
        let reads = outer.array_reads();
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[0].0, DataId(1));
        assert_eq!(reads[1].0, DataId(0));
    }
}
