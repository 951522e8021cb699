//! The coordinate transformation: rewrite a recursive PS array and its
//! equations into hyperplane ("wavefront") form.
//!
//! For the paper's revised relaxation this produces, in transformed
//! coordinates `K' = 2K + I + J`, `I' = K`, `J' = I`:
//!
//! ```text
//! A'[K',I',J'] =
//!   if <out of wavefront: K'-2I'-J' outside 0..M+1> then 0.0
//!   elsif I' = 1 then InitialA[J', K'-2I'-J']            (merged eq.1)
//!   elsif <boundary>  then A'[K'-2, I'-1, J']            (carry-over)
//!   else (A'[K'-1,I',J'] + A'[K'-1,I',J'-1]
//!       + A'[K'-1,I'-1,J'] + A'[K'-1,I'-1,J'+1]) / 4     (interior)
//! ```
//!
//! All recursive references now step backwards in `K'` only, so the
//! scheduler emits `DO K' (DOALL I' (DOALL J'))` — "the schedule is
//! identical to that of Figure 6" — and the window analysis allocates
//! **3** planes instead of the full array.

use crate::depvec::{extract_dependences, DepVecError};
use crate::imat::{unimodular_completion, IMat};
use crate::solve::{solve_time_vector, SolveError};
use ps_depgraph::build_depgraph;
use ps_lang::ast::BinOp;
use ps_lang::bounds::Affine;
use ps_lang::hir::{
    AffineIx, DataItem, DataKind, Equation, HExpr, HirModule, IndexVar, LhsSub, SubscriptExpr,
};
use ps_lang::types::{ScalarTy, Subrange, Ty};
use ps_lang::{DataId, EqId, IvId, SubrangeId};
use ps_scheduler::{
    schedule_module, BoundForm, Descriptor, LoopDescriptor, ScheduleError, ScheduleOptions,
    ScheduleResult,
};
use ps_support::idx::IndexVec;
use ps_support::{SmallVec, Span, Symbol};

/// How the transformed array is stored.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StorageMode {
    /// Keep only `window` time planes; the result is *drained* inside the
    /// wavefront loop (the paper's preferred alternative): the gather runs
    /// on each plane's diagonal, while the plane is in the window. Requires
    /// the one outside reader of the array to be a pure upper-bound-plane
    /// gather.
    Windowed,
    /// Allocate every time plane; outside readers are rewritten through the
    /// transform. Simple but allocates `O(tmax · plane)` storage.
    Full,
}

/// Everything the transformation produced.
#[derive(Clone, Debug)]
pub struct HyperplaneResult {
    /// The transformed module (shares `DataId`s with the original; the
    /// transformed array is appended).
    pub module: HirModule,
    /// The original recursive array.
    pub target: DataId,
    /// The new array `A'` in `module`.
    pub new_array: DataId,
    /// The time vector π.
    pub pi: Vec<i64>,
    /// The unimodular transform `T` (first row π).
    pub t_mat: IMat,
    /// `T⁻¹` (original coordinates from transformed ones).
    pub t_inv: IMat,
    /// Original dependence vectors.
    pub dep_vectors: Vec<Vec<i64>>,
    /// `T·d` for each dependence (first components are the time offsets).
    pub transformed_deps: Vec<Vec<i64>>,
    /// Window for the time dimension: `1 + max time offset`.
    pub window: i64,
    /// Subrange of the new outer (time) loop.
    pub time_subrange: SubrangeId,
    /// Subranges of the inner transformed dimensions.
    pub inner_subranges: Vec<SubrangeId>,
    /// Windowed mode, when the final cells lie on many planes: the gather
    /// equation that [`schedule_transformed`] moves into the time loop as
    /// the drain, and the original dimension it reads at its upper bound.
    pub drain: Option<(EqId, usize)>,
    pub mode: StorageMode,
    /// Label of the merged recurrence equation.
    pub merged_label: String,
}

/// Why the transformation could not be applied.
#[derive(Debug)]
pub enum HyperplaneError {
    NoRecursiveArray,
    Unsupported(String),
    Infeasible(String),
    Schedule(ScheduleError),
}

impl std::fmt::Display for HyperplaneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HyperplaneError::NoRecursiveArray => {
                write!(f, "the module has no recursively defined array")
            }
            HyperplaneError::Unsupported(s) => write!(f, "unsupported shape: {s}"),
            HyperplaneError::Infeasible(s) => write!(f, "no legal time vector: {s}"),
            HyperplaneError::Schedule(e) => write!(f, "transformed module unschedulable: {e}"),
        }
    }
}

impl std::error::Error for HyperplaneError {}

impl From<DepVecError> for HyperplaneError {
    fn from(e: DepVecError) -> Self {
        HyperplaneError::Unsupported(e.0)
    }
}

impl From<SolveError> for HyperplaneError {
    fn from(e: SolveError) -> Self {
        HyperplaneError::Infeasible(e.0)
    }
}

/// Find the (unique) recursively defined local array of a module, if any.
pub fn find_recursive_target(module: &HirModule) -> Option<DataId> {
    let mut found = None;
    for (id, item) in module.data.iter_enumerated() {
        if !item.is_array() || item.kind == DataKind::Param {
            continue;
        }
        let recursive = module.defs_of(id).iter().any(|&e| {
            module.equations[e]
                .rhs
                .array_reads()
                .iter()
                .any(|(a, _)| *a == id)
        });
        if recursive {
            if found.is_some() {
                return None; // ambiguous: caller must specify
            }
            found = Some(id);
        }
    }
    found
}

/// Apply the hyperplane transformation to `target`.
pub fn hyperplane_transform(
    module: &HirModule,
    target: DataId,
    mode: StorageMode,
) -> Result<HyperplaneResult, HyperplaneError> {
    let info = extract_dependences(module, target)?;
    let pi = solve_time_vector(&info.vectors)?;
    let n = module.data[target].dims().len();
    let t_mat = unimodular_completion(&pi);
    let t_inv = t_mat.unimodular_inverse();
    let transformed_deps: Vec<Vec<i64>> = info.vectors.iter().map(|d| t_mat.mul_vec(d)).collect();
    for (d, td) in info.vectors.iter().zip(&transformed_deps) {
        assert!(
            td[0] >= 1,
            "legality: π·d ≥ 1 must hold for {d:?} (got {})",
            td[0]
        );
    }
    let window = 1 + transformed_deps.iter().map(|d| d[0]).max().unwrap_or(0);

    let mut new_module = module.clone();

    // Original dimension bounds (lo, hi) as affine forms.
    let orig_bounds: Vec<(Affine, Affine)> = module.data[target]
        .dims()
        .iter()
        .map(|&sr| {
            let s = &module.subranges[sr];
            (s.lo.clone(), s.hi.clone())
        })
        .collect();

    // New subranges: interval arithmetic over the rows of T.
    let mut new_srs: Vec<SubrangeId> = Vec::with_capacity(n);
    let iv_names = transformed_iv_names(module, &info.equations, n);
    for (k, row) in t_mat.rows().enumerate() {
        let mut lo = Affine::constant(0);
        let mut hi = Affine::constant(0);
        for (d, &c) in row.iter().enumerate() {
            let (dlo, dhi) = &orig_bounds[d];
            if c >= 0 {
                lo = lo.add(&dlo.scale(c));
                hi = hi.add(&dhi.scale(c));
            } else {
                lo = lo.add(&dhi.scale(c));
                hi = hi.add(&dlo.scale(c));
            }
        }
        let sr = new_module.subranges.push(Subrange {
            name: Some(iv_names[k]),
            lo,
            hi,
            span: Span::DUMMY,
        });
        new_srs.push(sr);
    }
    let time_subrange = new_srs[0];
    let inner_subranges = new_srs[1..].to_vec();

    // The transformed array A'.
    let elem = module.data[target]
        .elem_scalar()
        .ok_or_else(|| HyperplaneError::Unsupported("target has no scalar element".into()))?;
    let new_name = Symbol::intern(&format!("{}'", module.data[target].name));
    let new_array = new_module.data.push(DataItem {
        name: new_name,
        kind: DataKind::Local,
        ty: Ty::Array {
            dims: new_srs.clone(),
            elem,
        },
        span: Span::DUMMY,
    });

    // Build the merged recurrence equation.
    let defs = module.defs_of(target);
    let merged = build_merged_equation(
        module,
        &new_module,
        target,
        new_array,
        &defs,
        &new_srs,
        &iv_names,
        &t_mat,
        &t_inv,
        &orig_bounds,
        elem,
    )?;
    let merged_label = merged.label.clone();

    // Rebuild the equation list: drop definitions of `target`, splice the
    // merged equation at the first definition site, and rewrite readers
    // through T (each keeps its own index variables).
    let mut merged = Some(merged);
    let mut gather: Option<(EqId, usize)> = None;
    let mut new_equations: IndexVec<EqId, Equation> = IndexVec::new();
    for (_, eq) in module.equations.iter_enumerated() {
        if eq.lhs == target {
            if let Some(merged) = merged.take() {
                new_equations.push(merged);
            }
            continue;
        }
        if !eq.rhs.array_reads().iter().any(|(a, _)| *a == target) {
            new_equations.push(eq.clone());
            continue;
        }
        if mode == StorageMode::Windowed {
            if gather.is_some() {
                return Err(HyperplaneError::Unsupported(
                    "windowed mode supports a single gather equation".into(),
                ));
            }
            let drain_dim = gather_drain_dim(eq, target, &orig_bounds)?;
            gather = Some((new_equations.next_index(), drain_dim));
        }
        let subst = |iv| AffineIx::from_iv(iv);
        new_equations.push(Equation {
            label: eq.label.clone(),
            lhs: eq.lhs,
            lhs_field: eq.lhs_field,
            lhs_subs: eq.lhs_subs.clone(),
            ivs: eq.ivs.clone(),
            rhs: rewrite_expr(&eq.rhs, &subst, target, new_array, &t_mat)?,
            span: eq.span,
        });
    }
    let gathered_pi = |d: usize| (0..n).filter(move |&k| k != d).map(|k| pi[k]);
    let drain = match (mode, gather) {
        (StorageMode::Full, _) => None,
        (StorageMode::Windowed, None) => {
            return Err(HyperplaneError::Unsupported(
                "windowed mode requires a gather equation reading the final plane".into(),
            ))
        }
        // Every cell the gather reads lies on one plane, the last: the
        // window still holds it after the time loop, where full storage
        // runs the gather too.
        (_, Some((_, d))) if gathered_pi(d).all(|c| c == 0) => None,
        (_, Some((_, d))) if gathered_pi(d).all(|c| c.abs() != 1) => {
            return Err(HyperplaneError::Unsupported(format!(
                "windowed mode pins the drain to a plane by a gathered dimension with \
                 a unit time coefficient, and pi = {pi:?} has none"
            )))
        }
        (_, drain) => drain,
    };
    new_module.equations = new_equations;

    Ok(HyperplaneResult {
        module: new_module,
        target,
        new_array,
        pi,
        t_mat,
        t_inv,
        dep_vectors: info.vectors,
        transformed_deps,
        window,
        time_subrange,
        inner_subranges,
        drain,
        mode,
        merged_label,
    })
}

/// Schedule the transformed module. In windowed mode the gather the
/// scheduler placed after the time loop moves into it as the drain, and
/// `A'` keeps `window` planes: every reader of its time dimension then runs
/// inside the time loop, the gather on the current plane.
pub fn schedule_transformed(
    result: &HyperplaneResult,
    options: ScheduleOptions,
) -> Result<ScheduleResult, HyperplaneError> {
    let dg = build_depgraph(&result.module);
    let mut sched =
        schedule_module(&result.module, &dg, options).map_err(HyperplaneError::Schedule)?;
    let Some((gather, drain_dim)) = result.drain else {
        return Ok(sched);
    };
    let binds = |d: &Descriptor, eq: EqId| matches!(d, Descriptor::Loop(l) if l.bindings.iter().any(|&(e, _)| e == eq));
    let merged = result.module.defs_of(result.new_array)[0];
    let items = &sched.flowchart.items;
    let (Some(time), Some(at)) = (
        items.iter().position(|d| binds(d, merged)),
        items.iter().position(|d| binds(d, gather)),
    ) else {
        return Err(HyperplaneError::Unsupported(
            "windowed mode needs the time loop and the gather at the top level".into(),
        ));
    };
    let Descriptor::Loop(nest) = sched.remove_item(at) else {
        unreachable!("the gather's item binds it")
    };
    let time = time - usize::from(at < time);
    let Descriptor::Loop(time_loop) = &mut sched.flowchart.items[time] else {
        unreachable!("the time loop's item binds the merged equation")
    };
    let plane = result.module.equations[merged].ivs[IvId(0)].name;
    let drain = pin_to_plane(result, nest, gather, drain_dim, plane)?;
    time_loop.body.push(Descriptor::Loop(drain));
    sched.memory.set_window(result.new_array, 0, result.window);
    Ok(sched)
}

/// Bound the gather nest `nest` of `gather` (a perfect nest, one loop per
/// gathered dimension) to the cells whose final value is on the current
/// plane of the top-level time loop `plane`: those with `π·x = K'` and
/// `x[drain_dim]` at its upper bound. With `g` the gathered coordinates in
/// nest order and `R = K' − π[drain_dim]·hi`, that is `Σ π_g·g = R`. One
/// coordinate with a unit coefficient, moved innermost, is solved from it:
/// its loop runs once, at `lo = hi = ±(R − Σ outer π_g·g)`, or not at all.
/// Every other coordinate with a unit coefficient gets the exact range
/// that leaves the inner ones a solution in their boxes; the rest keep
/// their boxes.
fn pin_to_plane(
    result: &HyperplaneResult,
    nest: LoopDescriptor,
    gather: EqId,
    drain_dim: usize,
    plane: Symbol,
) -> Result<LoopDescriptor, HyperplaneError> {
    let module = &result.module;
    // The nest's loops, outermost first, each with its coordinate's π.
    let eq = &module.equations[gather];
    let gathered: Vec<usize> = (0..result.pi.len()).filter(|&d| d != drain_dim).collect();
    let mut loops: Vec<(LoopDescriptor, i64)> = Vec::with_capacity(gathered.len());
    let mut next = Some(nest);
    while let Some(mut l) = next.take() {
        let &[(_, iv)] = &l.bindings[..] else {
            return Err(HyperplaneError::Unsupported(
                "the gather's loops must bind it alone".into(),
            ));
        };
        let p = eq
            .lhs_subs
            .iter()
            .position(|s| matches!(s, LhsSub::Var(v) if *v == iv));
        let pi = result.pi[gathered[p.expect("a gather binds its left-hand variables")]];
        match std::mem::take(&mut l.body).pop() {
            Some(Descriptor::Loop(inner)) => next = Some(inner),
            Some(Descriptor::Equation(_)) | None => {}
        }
        loops.push((l, pi));
    }
    let pinned = (loops.iter().rposition(|&(_, pi)| pi.abs() == 1))
        .expect("the transform checked for a unit coefficient");
    let last = loops.remove(pinned);
    loops.push(last);

    // R = K' − π[drain_dim]·hi, then each loop's range from the inner boxes.
    let hi = &module
        .subrange(module.data[result.target].dims()[drain_dim])
        .hi;
    let r = BoundForm {
        upper: false,
        rest: hi.scale(-result.pi[drain_dim]),
        counters: [(0, 1)].into(),
    };
    let mut inner_min = Affine::constant(0);
    let mut inner_max = Affine::constant(0);
    let mut forms: Vec<Option<(BoundForm, BoundForm)>> = vec![None; loops.len()];
    for (j, (l, pi)) in loops.iter().enumerate().rev() {
        if pi.abs() == 1 {
            // π·g ∈ [R − S − max(inner), R − S − min(inner)], S the outer sum.
            let mut at = r.clone();
            let outer = loops[..j].iter().enumerate().filter(|(_, (_, p))| *p != 0);
            at.counters
                .extend(outer.map(|(i, (_, p))| (i as u16 + 1, -p)));
            let (mut lo, mut up) = (at.clone(), at);
            lo.rest.add_scaled(&inner_max, -1);
            up.rest.add_scaled(&inner_min, -1);
            if *pi == -1 {
                (lo, up) = (negate(up), negate(lo));
            }
            up.upper = true;
            forms[j] = Some((lo, up));
        }
        let (lo, hi) = (l.bounds.lo.scale(*pi), l.bounds.hi.scale(*pi));
        let (small, large) = if *pi >= 0 { (lo, hi) } else { (hi, lo) };
        inner_min.add_scaled(&small, 1);
        inner_max.add_scaled(&large, 1);
    }

    // Rebuild the nest, outermost first, marked for display as the drain.
    let mut body = vec![Descriptor::Equation(gather)];
    for ((mut l, _), form) in loops.into_iter().zip(forms).rev() {
        if let Some((lo, up)) = form {
            l.bounds.narrow = vec![lo, up];
        }
        l.body = body;
        body = vec![Descriptor::Loop(l)];
    }
    let Some(Descriptor::Loop(mut drain)) = body.pop() else {
        unreachable!("a gather has a dimension")
    };
    drain.drain_of = Some(plane);
    Ok(drain)
}

fn negate(f: BoundForm) -> BoundForm {
    BoundForm {
        upper: f.upper,
        rest: f.rest.scale(-1),
        counters: f
            .counters
            .iter()
            .map(|&(d, c)| (d, -c))
            .collect::<SmallVec<_>>(),
    }
}

/// Pick display names for the transformed index variables: the recursive
/// equation's iv names with a prime (`K` → `K'`).
fn transformed_iv_names(module: &HirModule, eqs: &[EqId], n: usize) -> Vec<Symbol> {
    if let Some(&eq) = eqs.first() {
        let eq = &module.equations[eq];
        if eq.ivs.len() == n {
            return eq
                .ivs
                .iter()
                .map(|iv| Symbol::intern(&format!("{}'", iv.name)))
                .collect();
        }
    }
    (0..n).map(|k| Symbol::intern(&format!("t{k}'"))).collect()
}

#[allow(clippy::too_many_arguments)]
fn build_merged_equation(
    module: &HirModule,
    new_module: &HirModule,
    target: DataId,
    new_array: DataId,
    defs: &[EqId],
    new_srs: &[SubrangeId],
    iv_names: &[Symbol],
    t_mat: &IMat,
    t_inv: &IMat,
    orig_bounds: &[(Affine, Affine)],
    elem: ScalarTy,
) -> Result<Equation, HyperplaneError> {
    let n = new_srs.len();

    // Index variables of the merged equation.
    let mut ivs: IndexVec<IvId, IndexVar> = IndexVec::new();
    for (k, &sr) in new_srs.iter().enumerate() {
        ivs.push(IndexVar {
            name: iv_names[k],
            subrange: sr,
            implicit: false,
        });
    }
    let new_iv = |k: usize| IvId(k as u32);

    // Original coordinates as affine forms over the new index variables:
    // x = T⁻¹ · x'.
    let x_of: Vec<AffineIx> = (0..n)
        .map(|d| {
            let mut acc = AffineIx::constant(Affine::constant(0));
            for k in 0..n {
                let c = t_inv[(d, k)];
                if c != 0 {
                    acc = acc.add(&AffineIx::from_iv(new_iv(k)).scale(c));
                }
            }
            acc
        })
        .collect();

    // Out-of-wavefront guard: a dimension needs a bounds check unless its
    // T⁻¹ row is a unit vector pointing at a loop whose subrange equals the
    // dimension's range (then the loop bounds already guarantee it).
    let mut violations: Vec<HExpr> = Vec::new();
    for d in 0..n {
        let row: Vec<i64> = (0..n).map(|k| t_inv[(d, k)]).collect();
        let unit_at = row
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .collect::<Vec<_>>();
        if let [(k, &1)] = unit_at.as_slice() {
            let loop_sr = &new_module.subranges[new_srs[*k]];
            let dim_lo = &orig_bounds[d].0;
            let dim_hi = &orig_bounds[d].1;
            if loop_sr.lo.const_difference(dim_lo) == Some(0)
                && loop_sr.hi.const_difference(dim_hi) == Some(0)
            {
                continue;
            }
        }
        let xe = affine_ix_to_hexpr(module, &x_of[d]);
        violations.push(HExpr::Binary {
            op: BinOp::Lt,
            lhs: Box::new(xe.clone()),
            rhs: Box::new(affine_to_hexpr(module, &orig_bounds[d].0)),
        });
        violations.push(HExpr::Binary {
            op: BinOp::Gt,
            lhs: Box::new(xe),
            rhs: Box::new(affine_to_hexpr(module, &orig_bounds[d].1)),
        });
    }

    let dummy = match elem {
        ScalarTy::Real => HExpr::Real(0.0),
        ScalarTy::Int => HExpr::Int(0),
        ScalarTy::Bool => HExpr::Bool(false),
        ScalarTy::Char => HExpr::Char('\0'),
    };

    // Order the defining equations: constant-plane initializations first
    // (they become guarded arms), the recurrence last (the `else`).
    let mut ordered: Vec<EqId> = defs.to_vec();
    ordered.sort_by_key(|&e| {
        let has_const = module.equations[e]
            .lhs_subs
            .iter()
            .any(|s| matches!(s, LhsSub::Const(_)));
        (!has_const) as u8 // consts first, stable within groups
    });

    let mut arms: Vec<(HExpr, HExpr)> = Vec::new();
    if !violations.is_empty() {
        let guard = or_chain(violations);
        arms.push((guard, dummy));
    }

    let mut else_rhs: Option<HExpr> = None;
    for (idx, &eq_id) in ordered.iter().enumerate() {
        let eq = &module.equations[eq_id];
        // Substitution: the old equation's iv at LHS dimension d becomes
        // x_d over the new ivs.
        let subst = |iv: IvId| -> AffineIx {
            let d = eq
                .lhs_subs
                .iter()
                .position(|s| matches!(s, LhsSub::Var(v) if *v == iv))
                .expect("every iv appears on the LHS");
            x_of[d].clone()
        };
        let rewritten = rewrite_expr(&eq.rhs, &subst, target, new_array, t_mat)?;

        if idx + 1 == ordered.len() {
            else_rhs = Some(rewritten);
        } else {
            // Region guard: equality at each constant dimension, plus range
            // guards for variable dimensions whose subrange is narrower
            // than the declared dimension (e.g. `I = 2..n` over `1..n`).
            let mut conds = Vec::new();
            for (d, s) in eq.lhs_subs.iter().enumerate() {
                match s {
                    LhsSub::Const(c) => conds.push(HExpr::Binary {
                        op: BinOp::Eq,
                        lhs: Box::new(affine_ix_to_hexpr(module, &x_of[d])),
                        rhs: Box::new(affine_to_hexpr(module, c)),
                    }),
                    LhsSub::Var(iv) => {
                        let sr = &module.subranges[eq.ivs[*iv].subrange];
                        if sr.lo.const_difference(&orig_bounds[d].0) != Some(0) {
                            conds.push(HExpr::Binary {
                                op: BinOp::Ge,
                                lhs: Box::new(affine_ix_to_hexpr(module, &x_of[d])),
                                rhs: Box::new(affine_to_hexpr(module, &sr.lo)),
                            });
                        }
                        if sr.hi.const_difference(&orig_bounds[d].1) != Some(0) {
                            conds.push(HExpr::Binary {
                                op: BinOp::Le,
                                lhs: Box::new(affine_ix_to_hexpr(module, &x_of[d])),
                                rhs: Box::new(affine_to_hexpr(module, &sr.hi)),
                            });
                        }
                    }
                }
            }
            if conds.is_empty() {
                return Err(HyperplaneError::Unsupported(format!(
                    "{}: cannot order region guards for multiple range definitions",
                    eq.label
                )));
            }
            arms.push((and_chain(conds), rewritten));
        }
    }
    let else_rhs = else_rhs
        .ok_or_else(|| HyperplaneError::Unsupported("target has no defining equations".into()))?;

    let rhs = if arms.is_empty() {
        else_rhs
    } else {
        HExpr::If {
            arms,
            else_: Box::new(else_rhs),
        }
    };

    // Label: reuse the recurrence's label so Figure-6 comparisons read the
    // same ("the schedule is identical to that of Figure 6").
    let label = ordered
        .last()
        .map(|&e| module.equations[e].label.clone())
        .unwrap_or_else(|| "eq.t".to_string());

    Ok(Equation {
        label,
        lhs: new_array,
        lhs_field: None,
        lhs_subs: (0..n).map(|k| LhsSub::Var(new_iv(k))).collect(),
        ivs,
        rhs,
        span: Span::DUMMY,
    })
}

/// Rewrite an expression: substitute old index variables and redirect reads
/// of `target` through the transform (`A[s] → A'[T·s]`).
fn rewrite_expr(
    e: &HExpr,
    subst: &dyn Fn(IvId) -> AffineIx,
    target: DataId,
    new_array: DataId,
    t_mat: &IMat,
) -> Result<HExpr, HyperplaneError> {
    Ok(match e {
        HExpr::Iv(iv) => affine_ix_to_hexpr_raw(&subst(*iv)),
        HExpr::ReadArray { array, subs, span } => {
            // Substitute into every subscript first.
            let subbed: Result<Vec<AffineIx>, HyperplaneError> = subs
                .iter()
                .map(|s| {
                    let a = s.as_affine().ok_or_else(|| {
                        HyperplaneError::Unsupported(
                            "dynamic subscripts cannot be transformed".into(),
                        )
                    })?;
                    Ok(substitute_affine(&a, subst))
                })
                .collect();
            if *array == target {
                let s_vec = subbed?;
                let n = t_mat.n();
                if s_vec.len() != n {
                    return Err(HyperplaneError::Unsupported(
                        "partial reference to the recursive array".into(),
                    ));
                }
                let mut new_subs = Vec::with_capacity(n);
                for k in 0..n {
                    let mut acc = AffineIx::constant(Affine::constant(0));
                    for (d, s) in s_vec.iter().enumerate() {
                        let c = t_mat[(k, d)];
                        if c != 0 {
                            acc = acc.add(&s.scale(c));
                        }
                    }
                    new_subs.push(SubscriptExpr::from_affine(acc));
                }
                HExpr::ReadArray {
                    array: new_array,
                    subs: new_subs,
                    span: *span,
                }
            } else {
                // Non-target arrays: keep, with substituted subscripts.
                // Dynamic subscripts are rewritten recursively instead.
                let mut new_subs = Vec::with_capacity(subs.len());
                for s in subs {
                    match s.as_affine() {
                        Some(a) => {
                            new_subs.push(SubscriptExpr::from_affine(substitute_affine(&a, subst)))
                        }
                        None => {
                            let SubscriptExpr::Dynamic(inner) = s else {
                                unreachable!("non-affine is dynamic");
                            };
                            new_subs.push(SubscriptExpr::Dynamic(Box::new(rewrite_expr(
                                inner, subst, target, new_array, t_mat,
                            )?)));
                        }
                    }
                }
                HExpr::ReadArray {
                    array: *array,
                    subs: new_subs,
                    span: *span,
                }
            }
        }
        HExpr::Binary { op, lhs, rhs } => HExpr::Binary {
            op: *op,
            lhs: Box::new(rewrite_expr(lhs, subst, target, new_array, t_mat)?),
            rhs: Box::new(rewrite_expr(rhs, subst, target, new_array, t_mat)?),
        },
        HExpr::Unary { op, operand } => HExpr::Unary {
            op: *op,
            operand: Box::new(rewrite_expr(operand, subst, target, new_array, t_mat)?),
        },
        HExpr::If { arms, else_ } => {
            let mut new_arms = Vec::with_capacity(arms.len());
            for (c, v) in arms {
                new_arms.push((
                    rewrite_expr(c, subst, target, new_array, t_mat)?,
                    rewrite_expr(v, subst, target, new_array, t_mat)?,
                ));
            }
            HExpr::If {
                arms: new_arms,
                else_: Box::new(rewrite_expr(else_, subst, target, new_array, t_mat)?),
            }
        }
        HExpr::Call { builtin, args } => HExpr::Call {
            builtin: *builtin,
            args: args
                .iter()
                .map(|a| rewrite_expr(a, subst, target, new_array, t_mat))
                .collect::<Result<_, _>>()?,
        },
        HExpr::CastReal(inner) => HExpr::CastReal(Box::new(rewrite_expr(
            inner, subst, target, new_array, t_mat,
        )?)),
        leaf => leaf.clone(),
    })
}

fn substitute_affine(a: &AffineIx, subst: &dyn Fn(IvId) -> AffineIx) -> AffineIx {
    let mut acc = AffineIx::constant(a.rest.clone());
    for &(iv, c) in &a.iv_terms {
        acc = acc.add(&subst(iv).scale(c));
    }
    acc
}

/// Validate that `eq` is a pure gather `dst[vars...] = target[hi, vars...]`
/// and return the dimension read at its upper bound `hi`.
fn gather_drain_dim(
    eq: &Equation,
    target: DataId,
    orig_bounds: &[(Affine, Affine)],
) -> Result<usize, HyperplaneError> {
    let unsupported = |msg: &str| -> HyperplaneError {
        HyperplaneError::Unsupported(format!(
            "{}: windowed mode requires a pure gather of the final plane ({msg})",
            eq.label
        ))
    };

    // RHS must be exactly a read of the target (modulo nothing at all —
    // even a cast would change the values the drain copies).
    let HExpr::ReadArray { array, subs, .. } = &eq.rhs else {
        return Err(unsupported("right-hand side is not a plain reference"));
    };
    if *array != target {
        return Err(unsupported("reads a different array"));
    }

    // Exactly one constant subscript at the declared upper bound; the rest
    // identity variables in LHS order.
    let mut drain_dim: Option<usize> = None;
    let mut var_ivs: Vec<IvId> = Vec::new();
    for (d, s) in subs.iter().enumerate() {
        match s {
            SubscriptExpr::Var(iv) => var_ivs.push(*iv),
            SubscriptExpr::Affine(a) if a.is_constant() => {
                if orig_bounds[d].1.const_difference(&a.rest) != Some(0) {
                    return Err(unsupported("constant subscript is not the upper bound"));
                }
                if drain_dim.replace(d).is_some() {
                    return Err(unsupported("more than one constant dimension"));
                }
            }
            _ => return Err(unsupported("subscripts must be plain variables")),
        }
    }
    let Some(drain_dim) = drain_dim else {
        return Err(unsupported("no constant upper-bound dimension"));
    };
    let lhs_vars: Vec<IvId> = eq
        .lhs_subs
        .iter()
        .filter_map(|s| match s {
            LhsSub::Var(iv) => Some(*iv),
            LhsSub::Const(_) => None,
        })
        .collect();
    if lhs_vars != var_ivs {
        return Err(unsupported(
            "gather must copy dimensions in order (dst[i,j] = A[hi,i,j])",
        ));
    }
    Ok(drain_dim)
}

// ---- HExpr builders -------------------------------------------------------

fn affine_to_hexpr(module: &HirModule, a: &Affine) -> HExpr {
    let mut acc: Option<HExpr> = None;
    for (sym, c) in a.terms() {
        let data = module
            .data_by_name(sym.as_str())
            .expect("affine bound references a known parameter");
        let read = HExpr::ReadScalar(data);
        let term = if c == 1 {
            read
        } else {
            HExpr::Binary {
                op: BinOp::Mul,
                lhs: Box::new(HExpr::Int(c)),
                rhs: Box::new(read),
            }
        };
        acc = Some(match acc {
            None => term,
            Some(prev) => HExpr::Binary {
                op: BinOp::Add,
                lhs: Box::new(prev),
                rhs: Box::new(term),
            },
        });
    }
    let k = a.constant_part();
    match acc {
        None => HExpr::Int(k),
        Some(e) if k == 0 => e,
        Some(e) => HExpr::Binary {
            op: if k > 0 { BinOp::Add } else { BinOp::Sub },
            lhs: Box::new(e),
            rhs: Box::new(HExpr::Int(k.abs())),
        },
    }
}

fn affine_ix_to_hexpr(module: &HirModule, a: &AffineIx) -> HExpr {
    let mut acc: Option<HExpr> = None;
    for &(iv, c) in &a.iv_terms {
        let read = HExpr::Iv(iv);
        let term = if c == 1 {
            read
        } else if c == -1 {
            HExpr::Unary {
                op: ps_lang::ast::UnOp::Neg,
                operand: Box::new(read),
            }
        } else {
            HExpr::Binary {
                op: BinOp::Mul,
                lhs: Box::new(HExpr::Int(c)),
                rhs: Box::new(read),
            }
        };
        acc = Some(match acc {
            None => term,
            Some(prev) => HExpr::Binary {
                op: BinOp::Add,
                lhs: Box::new(prev),
                rhs: Box::new(term),
            },
        });
    }
    let rest = affine_to_hexpr(module, &a.rest);
    match acc {
        None => rest,
        Some(e) => {
            if a.rest.as_constant() == Some(0) {
                e
            } else {
                HExpr::Binary {
                    op: BinOp::Add,
                    lhs: Box::new(e),
                    rhs: Box::new(rest),
                }
            }
        }
    }
}

/// Like [`affine_ix_to_hexpr`] but without parameter lookups (used inside
/// rewrite where `rest` is constant-only).
fn affine_ix_to_hexpr_raw(a: &AffineIx) -> HExpr {
    let mut acc: Option<HExpr> = None;
    for &(iv, c) in &a.iv_terms {
        let read = HExpr::Iv(iv);
        let term = if c == 1 {
            read
        } else if c == -1 {
            HExpr::Unary {
                op: ps_lang::ast::UnOp::Neg,
                operand: Box::new(read),
            }
        } else {
            HExpr::Binary {
                op: BinOp::Mul,
                lhs: Box::new(HExpr::Int(c)),
                rhs: Box::new(read),
            }
        };
        acc = Some(match acc {
            None => term,
            Some(prev) => HExpr::Binary {
                op: BinOp::Add,
                lhs: Box::new(prev),
                rhs: Box::new(term),
            },
        });
    }
    debug_assert!(
        a.rest.terms().count() == 0,
        "raw affine conversion cannot reference parameters"
    );
    let k = a.rest.constant_part();
    match acc {
        None => HExpr::Int(k),
        Some(e) if k == 0 => e,
        Some(e) => HExpr::Binary {
            op: if k > 0 { BinOp::Add } else { BinOp::Sub },
            lhs: Box::new(e),
            rhs: Box::new(HExpr::Int(k.abs())),
        },
    }
}

fn or_chain(mut exprs: Vec<HExpr>) -> HExpr {
    let first = exprs.remove(0);
    exprs.into_iter().fold(first, |acc, e| HExpr::Binary {
        op: BinOp::Or,
        lhs: Box::new(acc),
        rhs: Box::new(e),
    })
}

fn and_chain(mut exprs: Vec<HExpr>) -> HExpr {
    let first = exprs.remove(0);
    exprs.into_iter().fold(first, |acc, e| HExpr::Binary {
        op: BinOp::And,
        lhs: Box::new(acc),
        rhs: Box::new(e),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_lang::frontend;
    use ps_scheduler::validate_flowchart;
    use ps_support::FxHashMap;

    const RELAXATION_V2: &str = "
        Relaxation2: module (InitialA: array[I,J] of real; M: int; maxK: int):
             [newA: array[I,J] of real];
         type I, J = 0 .. M+1; K = 2 .. maxK;
         var A: array [1 .. maxK] of array[I,J] of real;
         define
            A[1] = InitialA;
            newA = A[maxK];
            A[K,I,J] = if (I = 0) or (J = 0) or (I = M+1) or (J = M+1)
                       then A[K-1,I,J]
                       else ( A[K,I,J-1] + A[K,I-1,J]
                            + A[K-1,I,J+1] + A[K-1,I+1,J] ) / 4;
         end Relaxation2;
    ";

    fn transform(mode: StorageMode) -> HyperplaneResult {
        let m = frontend(RELAXATION_V2).unwrap();
        let target = find_recursive_target(&m).expect("A is recursive");
        hyperplane_transform(&m, target, mode).expect("transform")
    }

    #[test]
    fn section4_derivation_matches_paper() {
        let r = transform(StorageMode::Windowed);
        // π = (2, 1, 1): t = 2K + I + J.
        assert_eq!(r.pi, vec![2, 1, 1]);
        // T = [[2,1,1],[1,0,0],[0,1,0]]: K' = 2K+I+J, I' = K, J' = I.
        assert_eq!(r.t_mat.row(0), &[2, 1, 1]);
        assert_eq!(r.t_mat.row(1), &[1, 0, 0]);
        assert_eq!(r.t_mat.row(2), &[0, 1, 0]);
        // Inverse: K = I', I = J', J = K' - 2I' - J'.
        assert_eq!(r.t_inv.row(0), &[0, 1, 0]);
        assert_eq!(r.t_inv.row(1), &[0, 0, 1]);
        assert_eq!(r.t_inv.row(2), &[1, -2, -1]);
        // Window 3 ("we can allocate an array 3 × maxK × M").
        assert_eq!(r.window, 3);
        // Transformed dependences: time offsets 1,1,1,1 and 2 (boundary).
        let mut time_offsets: Vec<i64> = r.transformed_deps.iter().map(|d| d[0]).collect();
        time_offsets.sort();
        assert_eq!(time_offsets, vec![1, 1, 1, 1, 2]);
        // The paper's four interior references.
        for expected in [
            vec![1, 0, 0],  // A'[K'-1, I', J']
            vec![1, 0, 1],  // A'[K'-1, I', J'-1]
            vec![1, 1, 0],  // A'[K'-1, I'-1, J']
            vec![1, 1, -1], // A'[K'-1, I'-1, J'+1]
            vec![2, 1, 0],  // A'[K'-2, I'-1, J'] (boundary carry-over)
        ] {
            assert!(
                r.transformed_deps.contains(&expected),
                "missing transformed dep {expected:?} in {:?}",
                r.transformed_deps
            );
        }
    }

    #[test]
    fn transformed_subranges() {
        let r = transform(StorageMode::Windowed);
        let m = &r.module;
        // Time range: 2K+I+J over K∈[1,maxK], I,J∈[0,M+1] → [2, 2maxK+2M+2].
        let t = &m.subranges[r.time_subrange];
        assert_eq!(format!("{}", t.lo), "2");
        // 2·maxK + 2·(M+1) (terms print in symbol order).
        assert_eq!(format!("{}", t.hi), "2*M + 2*maxK + 2");
        // Inner dims: I' = K ∈ [1, maxK]; J' = I ∈ [0, M+1].
        let i1 = &m.subranges[r.inner_subranges[0]];
        assert_eq!(format!("{}", i1.lo), "1");
        assert_eq!(format!("{}", i1.hi), "maxK");
        let j1 = &m.subranges[r.inner_subranges[1]];
        assert_eq!(format!("{}", j1.lo), "0");
        assert_eq!(format!("{}", j1.hi), "M + 1");
    }

    #[test]
    fn windowed_schedule_is_wavefront() {
        let r = transform(StorageMode::Windowed);
        let sched = schedule_transformed(&r, ScheduleOptions::default()).unwrap();
        let s = sched
            .flowchart
            .compact(&|e| r.module.equations[e].label.clone());
        assert_eq!(
            s,
            "DOALL I (DOALL J (eq.1)); DO K' (DOALL I' (DOALL J' (eq.3)); DRAIN K')"
                .replace("DOALL I (DOALL J (eq.1)); ", ""),
            "schedule: {s}"
        );
        // Window 3 on the time dimension of A'.
        assert_eq!(sched.memory.window(r.new_array, 0), Some(3));
        assert_eq!(sched.memory.window(r.new_array, 1), None);
    }

    #[test]
    fn windowed_schedule_validates() {
        let r = transform(StorageMode::Windowed);
        let sched = schedule_transformed(&r, ScheduleOptions::default()).unwrap();
        let mut params = FxHashMap::default();
        params.insert(Symbol::intern("M"), 4);
        params.insert(Symbol::intern("maxK"), 5);
        validate_flowchart(&r.module, &sched.flowchart, &params)
            .expect("wavefront schedule is dependence-correct");
    }

    #[test]
    fn full_mode_schedule_validates() {
        let r = transform(StorageMode::Full);
        assert!(r.drain.is_none());
        let sched = schedule_transformed(&r, ScheduleOptions::default()).unwrap();
        let s = sched
            .flowchart
            .compact(&|e| r.module.equations[e].label.clone());
        assert!(s.contains("DO K' (DOALL I' (DOALL J' (eq.3)))"), "{s}");
        assert!(s.contains("eq.2"), "gather survives in full mode: {s}");
        // Full mode: A' physical in time (outside affine reads).
        assert_eq!(sched.memory.window(r.new_array, 0), None);
        let mut params = FxHashMap::default();
        params.insert(Symbol::intern("M"), 3);
        params.insert(Symbol::intern("maxK"), 4);
        validate_flowchart(&r.module, &sched.flowchart, &params).expect("full mode validates");
    }

    #[test]
    fn jacobi_transform_keeps_outer_time_only() {
        // Version 1 (all reads at K-1): π = (1,0,0), T = identity-ish; the
        // transform is legal and the schedule stays DO t (DOALL, DOALL).
        let v1 = RELAXATION_V2
            .replace("A[K,I,J-1]", "A[K-1,I,J-1]")
            .replace("A[K,I-1,J]", "A[K-1,I-1,J]");
        let m = frontend(&v1).unwrap();
        let target = find_recursive_target(&m).unwrap();
        let r = hyperplane_transform(&m, target, StorageMode::Windowed).unwrap();
        assert_eq!(r.pi, vec![1, 0, 0]);
        assert_eq!(r.window, 2);
        let sched = schedule_transformed(&r, ScheduleOptions::default()).unwrap();
        let (do_n, doall_n) = sched.flowchart.loop_counts();
        assert_eq!(do_n, 1);
        assert!(doall_n >= 2);
    }

    #[test]
    fn non_recursive_module_has_no_target() {
        let m = frontend(
            "T: module (n: int; b: array[1..n] of real): [y: real];
             type I = 1 .. n;
             var a: array [I] of real;
             define a[I] = b[I]; y = a[n]; end T;",
        )
        .unwrap();
        assert!(find_recursive_target(&m).is_none());
    }

    #[test]
    fn windowed_rejects_non_gather_reader() {
        let src = RELAXATION_V2.replace("newA = A[maxK];", "newA = A[1];");
        let m = frontend(&src).unwrap();
        let target = find_recursive_target(&m).unwrap();
        let err = hyperplane_transform(&m, target, StorageMode::Windowed).unwrap_err();
        assert!(matches!(err, HyperplaneError::Unsupported(_)), "{err}");
    }

    #[test]
    fn first_order_recurrence_transforms() {
        // 1-D: a[K] = a[K-1]*2 → π=(1), T=(1), trivial wavefront.
        let m = frontend(
            "T: module (n: int): [y: real];
             type K = 2 .. n;
             var a: array [1 .. n] of real;
             define
                a[1] = 1.0;
                a[K] = a[K-1] * 2.0;
                y = a[n];
             end T;",
        )
        .unwrap();
        let target = find_recursive_target(&m).unwrap();
        let r = hyperplane_transform(&m, target, StorageMode::Windowed).unwrap();
        assert_eq!(r.pi, vec![1]);
        assert_eq!(r.window, 2);
        let sched = schedule_transformed(&r, ScheduleOptions::default()).unwrap();
        let mut params = FxHashMap::default();
        params.insert(Symbol::intern("n"), 9);
        validate_flowchart(&r.module, &sched.flowchart, &params).unwrap();
    }
}
