//! Specialization: one integer parameter vector folds every symbolic
//! address of a [`Tapes`] into a strength-reduced physical [`Addr`]
//! ([`specialize`]), cached per vector by [`crate::Program`].

use super::{Addr, ChkDim, LoopSpec, Spec, Tapes, WinDim};
use crate::ndarray::NdSpec;
use crate::store::{RuntimeError, StorePlan};
use crate::strip;
use ps_analyze::ADim;
use ps_lang::{Affine, DataId, EqId, HirModule};
use ps_scheduler::{Descriptor, Flowchart};
use ps_support::idx::{Idx, IndexVec};
use ps_support::{FxHashMap, Symbol};

/// Fold one access's per-dimension affine subscripts against `spec`'s
/// physical layout into a strength-reduced [`Addr`] (the old per-run
/// lowering's `push_addr`, now executed once per parameter layout).
pub(crate) fn fold_addr(dims: &[ADim], spec: &NdSpec, with_chk: bool) -> Addr {
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
/// referenced array's layout once, then fold every symbolic address, then
/// evaluate every loop bound of `flowchart`.
pub(crate) fn specialize(
    tapes: &Tapes,
    plan: &StorePlan,
    module: &HirModule,
    flowchart: &Flowchart,
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
    let (mut loops, mut rests) = (Vec::new(), Vec::new());
    spec_loops(&flowchart.items, 0, params, &mut loops, &mut rests)?;
    Ok(Spec {
        addrs,
        strides,
        loops,
        rests,
    })
}

/// Append the loops of `items`, `depth` deep, to the preorder table
/// `loops`, each with its box and its narrowing forms' rests evaluated.
fn spec_loops(
    items: &[Descriptor],
    depth: u16,
    params: &FxHashMap<Symbol, i64>,
    loops: &mut Vec<LoopSpec>,
    rests: &mut Vec<i64>,
) -> Result<(), RuntimeError> {
    let eval = |a: &Affine| {
        (a.eval(params)).ok_or_else(|| RuntimeError(format!("cannot evaluate bound {a}")))
    };
    for d in items {
        let Descriptor::Loop(l) = d else { continue };
        let at = loops.len();
        loops.push(LoopSpec {
            lo: eval(&l.bounds.lo)?,
            hi: eval(&l.bounds.hi)?,
            end: 0,
            depth,
            rests: rests.len() as u32,
        });
        for f in &l.bounds.narrow {
            rests.push(eval(&f.rest)?);
        }
        spec_loops(&l.body, depth + 1, params, loops, rests)?;
        loops[at].end = loops.len() as u32;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Inputs, StoreArena};
    use crate::tape::tests::{build, compile_all};
    use crate::tape::{compile_tapes, ExecProg, Frames};
    use crate::value::Value;
    use ps_lang::IvId;

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
                .instantiate_masked(&m, &inputs, false, None, &mut StoreArena::default())
                .unwrap();
            let spec =
                specialize(&tapes, &plan, &m, &sched.flowchart, &store.params, None).unwrap();
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
            let out = store.into_outputs_into(&mut StoreArena::default());
            assert_eq!(out.scalar("y"), Value::Int(1 + (n - 1) * n), "n = {n}");
        }
    }
}
