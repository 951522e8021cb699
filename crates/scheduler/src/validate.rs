//! Conservative schedule validation by abstract replay.
//!
//! Walks a flowchart with concrete parameter values, tracking which array
//! elements have been defined, and checks that
//!
//! * every (affine, in-bounds) read finds its element already written,
//! * no element is written twice (single assignment),
//! * every `DOALL` loop is order-independent: the replay runs twice, once
//!   iterating DOALLs forward and once backward — any cross-iteration
//!   dependence with nonzero distance fails in one of the two directions.
//!
//! Reads through dynamic subscripts and reads that fall outside the declared
//! bounds (assumed guarded by `if` expressions, like the Relaxation boundary
//! rows) are skipped. The checker is intentionally independent of the real
//! runtime so it can validate schedules without executing arithmetic.

use crate::flowchart::{Descriptor, Flowchart};
use crate::LoopKind;
use ps_lang::hir::{HExpr, HirModule, LhsSub, SubscriptExpr};
use ps_lang::{DataId, EqId, IvId};
use ps_support::{FxHashMap, FxHashSet, Symbol};

/// A dependence violation found during replay.
#[derive(Clone, Debug)]
pub struct ValidationError {
    pub message: String,
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ValidationError {}

/// Validate `fc` under the given parameter values.
pub fn validate_flowchart(
    module: &HirModule,
    fc: &Flowchart,
    params: &FxHashMap<Symbol, i64>,
) -> Result<(), ValidationError> {
    for reverse_doall in [false, true] {
        let mut replay = Replay {
            module,
            params,
            reverse_doall,
            defined: FxHashSet::default(),
            env: FxHashMap::default(),
            loop_stack: Vec::new(),
        };
        replay.walk(&fc.items)?;
        // Every non-param data item fully written is not checked here (the
        // region analysis covers coverage); we only verify ordering.
    }
    Ok(())
}

struct Replay<'a> {
    module: &'a HirModule,
    params: &'a FxHashMap<Symbol, i64>,
    reverse_doall: bool,
    /// Written elements: (data, index-vector). Scalars use an empty vector;
    /// record fields use a one-element vector.
    defined: FxHashSet<(DataId, Vec<i64>)>,
    env: FxHashMap<(EqId, IvId), i64>,
    /// The enclosing loops' counters, outermost first: what loop bounds
    /// name.
    loop_stack: Vec<i64>,
}

impl<'a> Replay<'a> {
    fn err(&self, message: String) -> ValidationError {
        ValidationError { message }
    }

    fn walk(&mut self, items: &[Descriptor]) -> Result<(), ValidationError> {
        for d in items {
            match d {
                Descriptor::Equation(eq) => self.run_equation(*eq)?,
                Descriptor::Loop(l) => {
                    let (lo, hi) = (l.bounds)
                        .eval(self.params, &self.loop_stack)
                        .map_err(|form| self.err(format!("cannot evaluate bound {form}")))?;
                    let indices: Vec<i64> = if l.kind == LoopKind::Doall && self.reverse_doall {
                        (lo..=hi).rev().collect()
                    } else {
                        (lo..=hi).collect()
                    };
                    for i in indices {
                        for &(eq, iv) in &l.bindings {
                            self.env.insert((eq, iv), i);
                        }
                        self.loop_stack.push(i);
                        self.walk(&l.body)?;
                        self.loop_stack.pop();
                    }
                    for &(eq, iv) in &l.bindings {
                        self.env.remove(&(eq, iv));
                    }
                }
            }
        }
        Ok(())
    }

    fn run_equation(&mut self, eq_id: EqId) -> Result<(), ValidationError> {
        let eq = &self.module.equations[eq_id];

        // Reads first (they must precede the write even for self-recursive
        // equations — those always reference earlier iterations).
        for (array, subs) in eq.rhs.array_reads() {
            if self.module.data[array].kind == ps_lang::hir::DataKind::Param {
                continue;
            }
            let Some(index) = self.resolve_subs(eq_id, subs) else {
                continue; // dynamic subscript: unknowable, skip
            };
            if !self.in_bounds(array, &index) {
                continue; // assumed guarded
            }
            if !self.defined.contains(&(array, index.clone())) {
                return Err(self.err(format!(
                    "{} reads {}{index:?} before it is written",
                    eq.label, self.module.data[array].name
                )));
            }
        }
        for d in eq.rhs.scalar_reads() {
            if self.module.data[d].kind == ps_lang::hir::DataKind::Param {
                continue;
            }
            // Record fields tracked per-field via ReadField index.
            let key = (d, Vec::new());
            let field_read = matches!(&self.module.data[d].ty, ps_lang::types::Ty::Record(_));
            if field_read {
                // Conservatively require at least the specific field; the
                // scalar_reads API flattens fields, so check any-field here
                // via the per-field keys inserted on writes.
                continue; // handled below via explicit field visit
            }
            if !self.defined.contains(&key) {
                return Err(self.err(format!(
                    "{} reads scalar {} before it is written",
                    eq.label, self.module.data[d].name
                )));
            }
        }
        // Field reads need the field index, which scalar_reads drops; visit.
        let mut field_err: Option<String> = None;
        eq.rhs.visit(&mut |e| {
            if let HExpr::ReadField(d, idx) = e {
                if self.module.data[*d].kind != ps_lang::hir::DataKind::Param
                    && !self.defined.contains(&(*d, vec![*idx as i64]))
                    && field_err.is_none()
                {
                    field_err = Some(format!(
                        "{} reads field {}#{idx} before it is written",
                        eq.label, self.module.data[*d].name
                    ));
                }
            }
        });
        if let Some(msg) = field_err {
            return Err(self.err(msg));
        }

        // Write.
        let index: Vec<i64> = match eq.lhs_field {
            Some(fidx) => vec![fidx as i64],
            None => {
                let mut out = Vec::with_capacity(eq.lhs_subs.len());
                for s in &eq.lhs_subs {
                    let v = match s {
                        LhsSub::Const(a) => a.eval(self.params).ok_or_else(|| {
                            self.err(format!("cannot evaluate LHS subscript {a}"))
                        })?,
                        LhsSub::Var(iv) => *self.env.get(&(eq_id, *iv)).ok_or_else(|| {
                            self.err(format!(
                                "{}: index variable {} unbound at execution",
                                eq.label, eq.ivs[*iv].name
                            ))
                        })?,
                    };
                    out.push(v);
                }
                out
            }
        };
        if !self.defined.insert((eq.lhs, index.clone())) {
            return Err(self.err(format!(
                "{} writes {}{index:?} twice (single assignment violated)",
                eq.label, self.module.data[eq.lhs].name
            )));
        }
        Ok(())
    }

    fn resolve_subs(&self, eq: EqId, subs: &[SubscriptExpr]) -> Option<Vec<i64>> {
        subs.iter()
            .map(|s| match s {
                SubscriptExpr::Var(iv) => self.env.get(&(eq, *iv)).copied(),
                SubscriptExpr::VarOffset(iv, d) => self.env.get(&(eq, *iv)).map(|v| v + d),
                SubscriptExpr::Affine(a) => {
                    let mut total = a.rest.eval(self.params)?;
                    for &(iv, c) in &a.iv_terms {
                        total += c * self.env.get(&(eq, iv)).copied()?;
                    }
                    Some(total)
                }
                SubscriptExpr::Dynamic(_) => None,
            })
            .collect()
    }

    fn in_bounds(&self, data: DataId, index: &[i64]) -> bool {
        let dims = self.module.data[data].dims();
        if dims.len() != index.len() {
            return false;
        }
        for (&sr, &i) in dims.iter().zip(index) {
            let s = &self.module.subranges[sr];
            let lo = s.lo.eval(self.params).unwrap_or(i64::MIN);
            let hi = s.hi.eval(self.params).unwrap_or(i64::MAX);
            if i < lo || i > hi {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowchart::LoopDescriptor;
    use crate::schedule::{schedule_module, ScheduleOptions};
    use ps_depgraph::build_depgraph;
    use ps_lang::frontend;

    fn params(pairs: &[(&str, i64)]) -> FxHashMap<Symbol, i64> {
        pairs.iter().map(|&(n, v)| (Symbol::intern(n), v)).collect()
    }

    #[test]
    fn relaxation_v1_schedule_validates() {
        let m = frontend(crate::testprogs::RELAXATION_V1).unwrap();
        let dg = build_depgraph(&m);
        let r = schedule_module(&m, &dg, ScheduleOptions::default()).unwrap();
        validate_flowchart(&m, &r.flowchart, &params(&[("M", 4), ("maxK", 5)]))
            .expect("Figure 6 schedule is valid");
    }

    #[test]
    fn relaxation_v2_schedule_validates() {
        let m = frontend(crate::testprogs::RELAXATION_V2).unwrap();
        let dg = build_depgraph(&m);
        let r = schedule_module(&m, &dg, ScheduleOptions::default()).unwrap();
        validate_flowchart(&m, &r.flowchart, &params(&[("M", 4), ("maxK", 5)]))
            .expect("Figure 7 schedule is valid");
    }

    #[test]
    fn wrong_doall_is_caught() {
        // Build an intentionally wrong schedule for Gauss–Seidel: parallel I
        // where the dependence demands iteration.
        let m = frontend(crate::testprogs::RELAXATION_V2).unwrap();
        let dg = build_depgraph(&m);
        let r = schedule_module(&m, &dg, ScheduleOptions::default()).unwrap();
        let mut fc = r.flowchart.clone();
        // Flip every DO to DOALL.
        fn flip(items: &mut [Descriptor]) {
            for d in items {
                if let Descriptor::Loop(LoopDescriptor { kind, body, .. }) = d {
                    *kind = LoopKind::Doall;
                    flip(body);
                }
            }
        }
        flip(&mut fc.items);
        let err = validate_flowchart(&m, &fc, &params(&[("M", 4), ("maxK", 5)]))
            .expect_err("flipped schedule must fail");
        assert!(err.message.contains("before it is written"), "{err}");
    }

    #[test]
    fn reordered_equations_are_caught() {
        let m = frontend(
            "T: module (n: int): [y: real];
             var a, b: real;
             define
                a = 1.0;
                b = a + 1.0;
                y = b;
             end T;",
        )
        .unwrap();
        let dg = build_depgraph(&m);
        let r = schedule_module(&m, &dg, ScheduleOptions::default()).unwrap();
        validate_flowchart(&m, &r.flowchart, &params(&[("n", 1)])).unwrap();
        // Reverse the order: b reads a before it is written.
        let mut fc = r.flowchart.clone();
        fc.items.reverse();
        assert!(validate_flowchart(&m, &fc, &params(&[("n", 1)])).is_err());
    }
}
