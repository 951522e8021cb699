//! The demand-driven oracle interpreter.
//!
//! Executes the nonprocedural semantics directly: the value of an array
//! element is computed by finding the defining equation whose left-hand
//! region contains the element, binding its index variables, and
//! recursively evaluating the right-hand side with memoization. No
//! scheduling, no parallelism, no windows — the ground truth that the
//! scheduled interpreter is differentially tested against.

use crate::store::{Inputs, Outputs, RuntimeError, Store};
use crate::value::{OwnedArray, OwnedBuffer, Value};
use ps_lang::ast::{BinOp, UnOp};
use ps_lang::hir::{Builtin, DataKind, Equation, HExpr, HirModule, LhsSub, SubscriptExpr};
use ps_lang::{DataId, EqId, IvId, ScalarTy};
use ps_support::{FxHashMap, Symbol};
use std::cell::RefCell;

/// Run a module under the oracle semantics.
pub fn run_naive(module: &HirModule, inputs: &Inputs) -> Result<Outputs, RuntimeError> {
    let params = inputs.param_env();
    let oracle = Oracle {
        module,
        inputs,
        params: params.clone(),
        memo: RefCell::new(FxHashMap::default()),
        in_progress: RefCell::new(ps_support::FxHashSet::default()),
        scratch: RefCell::new(Vec::new()),
    };

    let mut out = Outputs::default();
    for &id in &module.results {
        let item = &module.data[id];
        if item.is_array() {
            let bounds = Store::bounds_of(module, &params, id)?;
            let elem = item.elem_scalar().expect("scalar element");
            let mut index: Vec<i64> = bounds.iter().map(|&(lo, _)| lo).collect();
            let count: usize = bounds
                .iter()
                .map(|&(lo, hi)| (hi - lo + 1) as usize)
                .product();
            let mut reals = Vec::new();
            let mut ints = Vec::new();
            let mut bools = Vec::new();
            for _ in 0..count {
                match oracle.demand(id, &index)? {
                    Value::Real(v) => reals.push(v),
                    Value::Int(v) => ints.push(v),
                    Value::Bool(v) => bools.push(v),
                }
                // Odometer increment (row-major, last dim fastest).
                for k in (0..index.len()).rev() {
                    index[k] += 1;
                    if index[k] <= bounds[k].1 {
                        break;
                    }
                    index[k] = bounds[k].0;
                }
            }
            let data = match elem {
                ScalarTy::Real => OwnedBuffer::Real(reals),
                ScalarTy::Int | ScalarTy::Char => OwnedBuffer::Int(ints),
                ScalarTy::Bool => OwnedBuffer::Bool(bools),
            };
            out.arrays
                .insert(item.name.to_string(), OwnedArray { dims: bounds, data });
        } else {
            out.scalars
                .insert(item.name.to_string(), oracle.demand(id, &[])?);
        }
    }
    Ok(out)
}

struct Oracle<'m> {
    module: &'m HirModule,
    inputs: &'m Inputs,
    params: FxHashMap<Symbol, i64>,
    memo: RefCell<FxHashMap<(DataId, Vec<i64>), Value>>,
    in_progress: RefCell<ps_support::FxHashSet<(DataId, Vec<i64>)>>,
    /// Reusable subscript buffers (a pool, not one buffer: dynamic
    /// subscripts recurse into `eval_expr` while an outer index is live).
    scratch: RefCell<Vec<Vec<i64>>>,
}

impl<'m> Oracle<'m> {
    /// The value of `data[index]` (empty index for scalars).
    fn demand(&self, data: DataId, index: &[i64]) -> Result<Value, RuntimeError> {
        let item = &self.module.data[data];
        if item.kind == DataKind::Param {
            return if item.is_array() {
                let arr = self
                    .inputs
                    .array(item.name)
                    .ok_or_else(|| RuntimeError(format!("missing input array `{}`", item.name)))?;
                Ok(arr.get(index))
            } else {
                self.inputs
                    .scalar(item.name)
                    .ok_or_else(|| RuntimeError(format!("missing input `{}`", item.name)))
            };
        }

        let key = (data, index.to_vec());
        if let Some(v) = self.memo.borrow().get(&key) {
            return Ok(*v);
        }
        if !self.in_progress.borrow_mut().insert(key.clone()) {
            return Err(RuntimeError(format!(
                "cyclic definition: `{}`{index:?} depends on itself",
                item.name
            )));
        }

        // Find the defining equation whose region contains `index`.
        let result = (|| {
            for eq_id in self.module.defs_of(data) {
                let eq = &self.module.equations[eq_id];
                if eq.lhs_field.is_some() {
                    continue; // fields are handled via demand_field
                }
                if let Some(env) = self.region_match(eq, index)? {
                    return self.eval(eq_id, eq, &env);
                }
            }
            Err(RuntimeError(format!(
                "no equation defines `{}`{index:?}",
                item.name
            )))
        })();

        self.in_progress.borrow_mut().remove(&key);
        if let Ok(v) = result {
            self.memo.borrow_mut().insert(key, v);
        }
        result
    }

    fn demand_field(&self, data: DataId, field: usize) -> Result<Value, RuntimeError> {
        let key = (data, vec![-(field as i64) - 1]);
        if let Some(v) = self.memo.borrow().get(&key) {
            return Ok(*v);
        }
        if !self.in_progress.borrow_mut().insert(key.clone()) {
            return Err(RuntimeError(format!(
                "cyclic definition of field {field} of `{}`",
                self.module.data[data].name
            )));
        }
        let result = (|| {
            for eq_id in self.module.defs_of(data) {
                let eq = &self.module.equations[eq_id];
                if eq.lhs_field == Some(field) {
                    return self.eval(eq_id, eq, &FxHashMap::default());
                }
            }
            Err(RuntimeError(format!(
                "no equation defines field {field} of `{}`",
                self.module.data[data].name
            )))
        })();
        self.in_progress.borrow_mut().remove(&key);
        if let Ok(v) = result {
            self.memo.borrow_mut().insert(key, v);
        }
        result
    }

    /// Does `eq`'s left-hand region contain `index`? If so, return the
    /// index-variable bindings.
    fn region_match(
        &self,
        eq: &Equation,
        index: &[i64],
    ) -> Result<Option<FxHashMap<IvId, i64>>, RuntimeError> {
        if eq.lhs_subs.len() != index.len() {
            return Ok(None);
        }
        let mut env = FxHashMap::default();
        for (s, &i) in eq.lhs_subs.iter().zip(index) {
            match s {
                LhsSub::Const(a) => {
                    let c = a
                        .eval(&self.params)
                        .ok_or_else(|| RuntimeError(format!("cannot evaluate {a}")))?;
                    if c != i {
                        return Ok(None);
                    }
                }
                LhsSub::Var(iv) => {
                    let sr = &self.module.subranges[eq.ivs[*iv].subrange];
                    let lo = sr
                        .lo
                        .eval(&self.params)
                        .ok_or_else(|| RuntimeError(format!("cannot evaluate {}", sr.lo)))?;
                    let hi = sr
                        .hi
                        .eval(&self.params)
                        .ok_or_else(|| RuntimeError(format!("cannot evaluate {}", sr.hi)))?;
                    if i < lo || i > hi {
                        return Ok(None);
                    }
                    env.insert(*iv, i);
                }
            }
        }
        Ok(Some(env))
    }

    fn eval(
        &self,
        eq_id: EqId,
        eq: &Equation,
        env: &FxHashMap<IvId, i64>,
    ) -> Result<Value, RuntimeError> {
        self.eval_expr(eq_id, eq, env, &eq.rhs)
    }

    fn eval_expr(
        &self,
        eq_id: EqId,
        eq: &Equation,
        env: &FxHashMap<IvId, i64>,
        e: &HExpr,
    ) -> Result<Value, RuntimeError> {
        Ok(match e {
            HExpr::Int(v) => Value::Int(*v),
            HExpr::Real(v) => Value::Real(*v),
            HExpr::Bool(v) => Value::Bool(*v),
            HExpr::Char(c) => Value::Int(*c as i64),
            HExpr::EnumConst(_, ord) => Value::Int(*ord as i64),
            HExpr::ReadScalar(d) => self.demand(*d, &[])?,
            HExpr::ReadField(d, idx) => self.demand_field(*d, *idx)?,
            HExpr::Iv(iv) => Value::Int(env[iv]),
            HExpr::ReadArray { array, subs, .. } => {
                let mut index = self.scratch.borrow_mut().pop().unwrap_or_default();
                for s in subs {
                    index.push(self.resolve_sub(eq_id, eq, env, s)?);
                }
                let v = self.demand(*array, &index);
                index.clear();
                self.scratch.borrow_mut().push(index);
                v?
            }
            HExpr::Binary { op, lhs, rhs } => {
                // Short-circuit logic.
                match op {
                    BinOp::And => {
                        return Ok(if self.eval_expr(eq_id, eq, env, lhs)?.as_bool() {
                            self.eval_expr(eq_id, eq, env, rhs)?
                        } else {
                            Value::Bool(false)
                        });
                    }
                    BinOp::Or => {
                        return Ok(if self.eval_expr(eq_id, eq, env, lhs)?.as_bool() {
                            Value::Bool(true)
                        } else {
                            self.eval_expr(eq_id, eq, env, rhs)?
                        });
                    }
                    _ => {}
                }
                let l = self.eval_expr(eq_id, eq, env, lhs)?;
                let r = self.eval_expr(eq_id, eq, env, rhs)?;
                naive_binary(*op, l, r)
            }
            HExpr::Unary { op, operand } => {
                let v = self.eval_expr(eq_id, eq, env, operand)?;
                match (op, v) {
                    (UnOp::Neg, Value::Int(x)) => Value::Int(-x),
                    (UnOp::Neg, Value::Real(x)) => Value::Real(-x),
                    (UnOp::Not, Value::Bool(x)) => Value::Bool(!x),
                    (op, v) => panic!("bad unary {op:?} on {v:?}"),
                }
            }
            HExpr::If { arms, else_ } => {
                for (c, v) in arms {
                    if self.eval_expr(eq_id, eq, env, c)?.as_bool() {
                        return self.eval_expr(eq_id, eq, env, v);
                    }
                }
                self.eval_expr(eq_id, eq, env, else_)?
            }
            HExpr::Call { builtin, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval_expr(eq_id, eq, env, a)?);
                }
                naive_call(*builtin, &vals)
            }
            HExpr::CastReal(inner) => {
                Value::Real(self.eval_expr(eq_id, eq, env, inner)?.widen_real())
            }
        })
    }

    fn resolve_sub(
        &self,
        eq_id: EqId,
        eq: &Equation,
        env: &FxHashMap<IvId, i64>,
        s: &SubscriptExpr,
    ) -> Result<i64, RuntimeError> {
        Ok(match s {
            SubscriptExpr::Var(iv) => env[iv],
            SubscriptExpr::VarOffset(iv, d) => env[iv] + d,
            SubscriptExpr::Affine(a) => {
                let mut total = a
                    .rest
                    .eval(&self.params)
                    .ok_or_else(|| RuntimeError(format!("cannot evaluate {}", a.rest)))?;
                for &(iv, c) in &a.iv_terms {
                    total += c * env[&iv];
                }
                total
            }
            SubscriptExpr::Dynamic(e) => self.eval_expr(eq_id, eq, env, e)?.as_int(),
        })
    }
}

fn naive_binary(op: BinOp, l: Value, r: Value) -> Value {
    // The language's scalar semantics on tagged values; the tapes state
    // the same table on typed registers, sharing no code with this one.
    use Value::*;
    match op {
        BinOp::Add => match (l, r) {
            (Int(a), Int(b)) => Int(a + b),
            (Real(a), Real(b)) => Real(a + b),
            _ => panic!("add type mismatch"),
        },
        BinOp::Sub => match (l, r) {
            (Int(a), Int(b)) => Int(a - b),
            (Real(a), Real(b)) => Real(a - b),
            _ => panic!("sub type mismatch"),
        },
        BinOp::Mul => match (l, r) {
            (Int(a), Int(b)) => Int(a * b),
            (Real(a), Real(b)) => Real(a * b),
            _ => panic!("mul type mismatch"),
        },
        BinOp::Div => match (l, r) {
            (Real(a), Real(b)) => Real(a / b),
            _ => panic!("`/` requires reals"),
        },
        BinOp::IntDiv => Int(l.as_int().div_euclid(r.as_int())),
        BinOp::Mod => Int(l.as_int().rem_euclid(r.as_int())),
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let ord = match (l, r) {
                (Int(a), Int(b)) => a.partial_cmp(&b),
                (Real(a), Real(b)) => a.partial_cmp(&b),
                (Bool(a), Bool(b)) => a.partial_cmp(&b),
                _ => panic!("comparison type mismatch"),
            };
            let Some(ord) = ord else {
                return Bool(op == BinOp::Ne);
            };
            Bool(match op {
                BinOp::Eq => ord.is_eq(),
                BinOp::Ne => !ord.is_eq(),
                BinOp::Lt => ord.is_lt(),
                BinOp::Le => ord.is_le(),
                BinOp::Gt => ord.is_gt(),
                BinOp::Ge => ord.is_ge(),
                _ => unreachable!(),
            })
        }
        BinOp::And | BinOp::Or => unreachable!("short-circuited"),
    }
}

fn naive_call(builtin: Builtin, args: &[Value]) -> Value {
    use Value::*;
    match builtin {
        Builtin::Abs => match args[0] {
            Int(x) => Int(x.abs()),
            Real(x) => Real(x.abs()),
            v => panic!("abs on {v:?}"),
        },
        Builtin::Min => match (args[0], args[1]) {
            (Int(a), Int(b)) => Int(a.min(b)),
            (Real(a), Real(b)) => Real(a.min(b)),
            _ => panic!("min mismatch"),
        },
        Builtin::Max => match (args[0], args[1]) {
            (Int(a), Int(b)) => Int(a.max(b)),
            (Real(a), Real(b)) => Real(a.max(b)),
            _ => panic!("max mismatch"),
        },
        Builtin::Sqrt => Real(args[0].as_real().sqrt()),
        Builtin::Exp => Real(args[0].as_real().exp()),
        Builtin::Ln => Real(args[0].as_real().ln()),
        Builtin::Sin => Real(args[0].as_real().sin()),
        Builtin::Cos => Real(args[0].as_real().cos()),
        Builtin::Trunc => Int(args[0].as_real().trunc() as i64),
        Builtin::Round => Int(args[0].as_real().round() as i64),
        Builtin::RealFn => Real(args[0].as_int() as f64),
        Builtin::Ord => Int(args[0].as_int()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_semantics() {
        use Value::{Bool, Int, Real};
        assert_eq!(naive_binary(BinOp::Add, Int(2), Int(3)), Int(5));
        assert_eq!(naive_binary(BinOp::Div, Real(1.0), Real(4.0)), Real(0.25));
        // `div`/`mod` are euclidean: the remainder is never negative,
        // whatever the signs of the operands.
        let cases = [
            (7, 2, 3, 1),
            (-7, 2, -4, 1),
            (7, -2, -3, 1),
            (-7, -2, 4, 1),
            (-1, 3, -1, 2),
        ];
        for (a, b, q, r) in cases {
            assert_eq!(naive_binary(BinOp::IntDiv, Int(a), Int(b)), Int(q));
            assert_eq!(naive_binary(BinOp::Mod, Int(a), Int(b)), Int(r));
        }
        assert_eq!(naive_binary(BinOp::Le, Real(1.0), Real(1.0)), Bool(true));
        assert_eq!(naive_binary(BinOp::Lt, Bool(false), Bool(true)), Bool(true));
    }

    #[test]
    fn builtins() {
        use Value::{Int, Real};
        assert_eq!(naive_call(Builtin::Abs, &[Int(-3)]), Int(3));
        assert_eq!(naive_call(Builtin::Abs, &[Real(-0.0)]), Real(0.0));
        assert_eq!(naive_call(Builtin::Max, &[Real(1.0), Real(2.0)]), Real(2.0));
        assert_eq!(naive_call(Builtin::Min, &[Int(-4), Int(3)]), Int(-4));
        // `min`/`max` drop a NaN operand, as `f64::min`/`f64::max` do.
        assert_eq!(
            naive_call(Builtin::Min, &[Real(f64::NAN), Real(2.0)]),
            Real(2.0)
        );
        assert_eq!(
            naive_call(Builtin::Max, &[Real(2.0), Real(f64::NAN)]),
            Real(2.0)
        );
        assert_eq!(naive_call(Builtin::Sqrt, &[Real(9.0)]), Real(3.0));
        assert!(naive_call(Builtin::Sqrt, &[Real(-1.0)]).as_real().is_nan());
        assert_eq!(naive_call(Builtin::Round, &[Real(2.6)]), Int(3));
        assert_eq!(naive_call(Builtin::Trunc, &[Real(-2.6)]), Int(-2));
        assert_eq!(naive_call(Builtin::RealFn, &[Int(2)]), Real(2.0));
    }

    #[test]
    fn nan_comparisons() {
        let nan = Value::Real(f64::NAN);
        let one = Value::Real(1.0);
        assert_eq!(naive_binary(BinOp::Ne, nan, nan), Value::Bool(true));
        for op in [BinOp::Eq, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge] {
            assert_eq!(naive_binary(op, nan, nan), Value::Bool(false));
            assert_eq!(naive_binary(op, nan, one), Value::Bool(false));
            assert_eq!(naive_binary(op, one, nan), Value::Bool(false));
        }
    }

    #[test]
    fn oracle_computes_recurrence() {
        let m = ps_lang::frontend(
            "T: module (n: int): [y: int];
             type K = 3 .. n;
             var a: array [1 .. n] of int;
             define
                a[1] = 1;
                a[2] = 1;
                a[K] = a[K-1] + a[K-2];
                y = a[n];
             end T;",
        )
        .unwrap();
        let out = run_naive(&m, &Inputs::new().set_int("n", 10)).unwrap();
        assert_eq!(out.scalar("y"), Value::Int(55), "fib(10)");
    }

    #[test]
    fn oracle_detects_cycles() {
        // Bypass region checks by building a legal-looking but cyclic
        // program: a[I] depends on a[I] via b.
        let m = ps_lang::frontend(
            "T: module (n: int): [y: real];
             type I = 1 .. n;
             var a, b: array [I] of real;
             define
                a[I] = b[I] + 1.0;
                b[I] = a[I] * 2.0;
                y = a[1];
             end T;",
        )
        .unwrap();
        let err = run_naive(&m, &Inputs::new().set_int("n", 2)).unwrap_err();
        assert!(err.0.contains("cyclic"), "{err}");
    }

    #[test]
    fn oracle_handles_regions() {
        let m = ps_lang::frontend(
            "T: module (n: int): [out: array[1..n] of int];
             type K = 2 .. n;
             var a: array [1 .. n] of int;
             define
                a[1] = 7;
                a[K] = a[K-1] * 2;
                out = a;
             end T;",
        )
        .unwrap();
        let out = run_naive(&m, &Inputs::new().set_int("n", 4)).unwrap();
        assert_eq!(
            out.array("out"),
            &OwnedArray::int(vec![(1, 4)], vec![7, 14, 28, 56])
        );
    }
}
