//! Symbolic intervals with affine endpoints, and the inequality prover.
//!
//! Endpoints are [`Affine`] forms over the module's integer parameters.
//! Two affine forms compare only when their difference is constant
//! ([`Affine::const_difference`]); everything else is answered
//! conservatively. The [`Facts`] base widens that reach: every declared
//! array dimension `lo..hi` must be non-empty for the program to
//! instantiate at all, and an enclosing loop's range is non-empty whenever
//! its body runs, so `p ≤ q` pairs from both sources are sound premises
//! for chaining (`a ≤ p ≤ q ≤ b`).

use crate::ir::CmpOp;
use ps_lang::Affine;

/// Render an affine form compactly: `maxK-1`, `2`, `n+M+3` (delegates to
/// [`Affine::compact`]).
pub fn fmt_affine(a: &Affine) -> String {
    a.compact()
}

/// An inclusive interval with affine endpoints; `None` means unknown in
/// that direction.
#[derive(Clone, Debug, Default)]
pub struct Ival {
    pub lo: Option<Affine>,
    pub hi: Option<Affine>,
}

impl Ival {
    pub fn top() -> Ival {
        Ival::default()
    }

    pub fn exact(a: Affine) -> Ival {
        Ival {
            lo: Some(a.clone()),
            hi: Some(a),
        }
    }

    pub fn range(lo: Affine, hi: Affine) -> Ival {
        Ival {
            lo: Some(lo),
            hi: Some(hi),
        }
    }

    /// The single value of a width-one interval.
    pub fn singleton(&self) -> Option<&Affine> {
        match (&self.lo, &self.hi) {
            (Some(lo), Some(hi)) if lo.const_difference(hi) == Some(0) => Some(lo),
            _ => None,
        }
    }

    /// Widen `self` to the convex hull with `other`: the loosest interval
    /// covering both. Endpoint order is decided by the prover (constant
    /// differences plus the non-empty-dim / loop-range premises in `facts`
    /// — joining the two arms of an `I = 0 or I = M+1` boundary guard needs
    /// `0 ≤ M+1`); endpoints it cannot order widen to unknown. An endpoint
    /// that already covers `other`'s stays as it is, uncopied.
    pub fn join(&mut self, other: &Ival, facts: &Facts) {
        match (&self.lo, &other.lo) {
            (Some(a), Some(b)) if facts.le(a, b) => {}
            (Some(a), Some(b)) if facts.le(b, a) => self.lo = Some(b.clone()),
            _ => self.lo = None,
        }
        match (&self.hi, &other.hi) {
            (Some(a), Some(b)) if a == b => {}
            (Some(a), Some(b)) if facts.le(a, b) => self.hi = Some(b.clone()),
            (Some(a), Some(b)) if facts.le(b, a) => {}
            _ => self.hi = None,
        }
    }

    pub fn render(&self) -> String {
        let side = |b: &Option<Affine>| b.as_ref().map(|a| fmt_affine(a)).unwrap_or("?".into());
        format!("{}..{}", side(&self.lo), side(&self.hi))
    }
}

/// Tighten an upper bound to `min(cur, k)`; incomparable keeps `cur`
/// (always sound — the interval only ever over-approximates).
fn tighten_hi(cur: &Option<Affine>, k: Affine) -> Option<Affine> {
    match cur {
        Some(h) if !matches!(h.const_difference(&k), Some(d) if d > 0) => Some(h.clone()),
        _ => Some(k),
    }
}

/// Tighten a lower bound to `max(cur, k)`.
fn tighten_lo(cur: &Option<Affine>, k: Affine) -> Option<Affine> {
    match cur {
        Some(l) if !matches!(l.const_difference(&k), Some(d) if d < 0) => Some(l.clone()),
        _ => Some(k),
    }
}

/// Refine `iv` with the constraint `r op k` (the guard edge just taken).
pub fn refine(iv: &Ival, op: CmpOp, k: &Affine) -> Ival {
    let (lo, hi) = (&iv.lo, &iv.hi);
    match op {
        CmpOp::Eq => Ival::exact(k.clone()),
        CmpOp::Ne => {
            // Endpoint exclusion: `≠` only helps when `k` sits exactly on
            // a known endpoint (the boundary-guard pattern).
            let on = |end: &Affine| end.const_difference(k) == Some(0);
            Ival {
                lo: lo.as_ref().map(|l| l.add_const(i64::from(on(l)))),
                hi: hi.as_ref().map(|h| h.add_const(-i64::from(on(h)))),
            }
        }
        CmpOp::Le => Ival {
            lo: lo.clone(),
            hi: tighten_hi(hi, k.clone()),
        },
        CmpOp::Lt => Ival {
            lo: lo.clone(),
            hi: tighten_hi(hi, k.add_const(-1)),
        },
        CmpOp::Ge => Ival {
            lo: tighten_lo(lo, k.clone()),
            hi: hi.clone(),
        },
        CmpOp::Gt => Ival {
            lo: tighten_lo(lo, k.add_const(1)),
            hi: hi.clone(),
        },
    }
}

/// A base of `p ≤ q` premises holding for every admissible parameter
/// vector (plus, per region, the enclosing loops' non-empty ranges).
#[derive(Clone, Debug, Default)]
pub struct Facts {
    pairs: Vec<(Affine, Affine)>,
}

impl Facts {
    pub fn new() -> Facts {
        Facts::default()
    }

    /// Record the premise `p ≤ q`.
    pub fn push(&mut self, p: Affine, q: Affine) {
        self.pairs.push((p, q));
    }

    /// Number of recorded premises (used to truncate region-local facts).
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    pub fn truncate(&mut self, len: usize) {
        self.pairs.truncate(len);
    }

    /// Prove `a ≤ b`: directly when `b - a` is a non-negative constant,
    /// else through one premise `p ≤ q` with `a ≤ p` and `q ≤ b` both
    /// constant-decidable.
    pub fn le(&self, a: &Affine, b: &Affine) -> bool {
        if let Some(d) = b.const_difference(a) {
            return d >= 0;
        }
        self.pairs.iter().any(|(p, q)| {
            matches!(p.const_difference(a), Some(d) if d >= 0)
                && matches!(b.const_difference(q), Some(d) if d >= 0)
        })
    }

    /// Prove `a < b`.
    pub fn lt(&self, a: &Affine, b: &Affine) -> bool {
        self.le(&a.add_const(1), b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_support::Symbol;

    fn param(name: &str) -> Affine {
        Affine::param(Symbol::intern(name))
    }

    #[test]
    fn facts_chain_through_nonempty_dims() {
        let mut f = Facts::new();
        // array [1 .. maxK] exists ⇒ 1 ≤ maxK.
        f.push(Affine::constant(1), param("maxK"));
        assert!(f.le(&Affine::constant(1), &param("maxK")));
        assert!(f.le(&Affine::constant(0), &param("maxK")));
        assert!(f.le(&Affine::constant(1), &param("maxK").add_const(2)));
        // Unprovable: maxK ≤ 1 and facts about other params.
        assert!(!f.le(&param("maxK"), &Affine::constant(1)));
        assert!(!f.le(&Affine::constant(1), &param("n")));
        // Constant differences need no facts.
        assert!(f.le(&param("n").add_const(-1), &param("n")));
        assert!(!f.lt(&param("n"), &param("n")));
    }

    #[test]
    fn join_widens_incomparable_endpoints() {
        let none = Facts::new();
        let a = Ival::range(Affine::constant(0), param("M").add_const(1));
        let b = Ival::range(Affine::constant(2), param("M"));
        let mut j = a.clone();
        j.join(&b, &none);
        assert_eq!(j.lo.unwrap().as_constant(), Some(0));
        assert_eq!(j.hi.unwrap().const_difference(&param("M")), Some(1));
        let c = Ival::range(param("n"), param("n"));
        let mut j2 = Ival::range(Affine::constant(3), Affine::constant(3));
        j2.join(&c, &none);
        assert!(j2.lo.is_none() && j2.hi.is_none());
        // A boundary-guard join (I = 0 joined with I = M+1) orders its
        // endpoints through the non-empty-range premise 0 ≤ M+1.
        let m1 = param("M").add_const(1);
        let mut f = Facts::new();
        f.push(Affine::constant(0), m1.clone());
        let mut g = Ival::exact(Affine::constant(0));
        g.join(&Ival::exact(m1.clone()), &f);
        assert_eq!(g.lo.unwrap().as_constant(), Some(0));
        assert_eq!(g.hi.unwrap().const_difference(&m1), Some(0));
    }

    #[test]
    fn refinement_excludes_guard_endpoints() {
        let m1 = param("M").add_const(1);
        let iv = Ival::range(Affine::constant(0), m1.clone());
        // I ≠ 0 ⇒ 1..M+1; then I ≠ M+1 ⇒ 1..M.
        let r = refine(&iv, CmpOp::Ne, &Affine::constant(0));
        assert_eq!(r.render(), format!("1..{}", fmt_affine(&m1)));
        let r2 = refine(&r, CmpOp::Ne, &m1);
        assert_eq!(r2.render(), "1..M");
        // Equality pins the value.
        let e = refine(&iv, CmpOp::Eq, &Affine::constant(0));
        assert_eq!(e.singleton().unwrap().as_constant(), Some(0));
        // Interior exclusion does not split the interval (sound no-op).
        let mid = refine(&iv, CmpOp::Ne, &Affine::constant(5));
        assert_eq!(mid.render(), iv.render());
    }

    #[test]
    fn affine_formatting() {
        assert_eq!(fmt_affine(&Affine::constant(-3)), "-3");
        assert_eq!(fmt_affine(&param("n").add_const(1)), "n+1");
        assert_eq!(fmt_affine(&param("n").scale(2).add_const(-1)), "2n-1");
        assert_eq!(fmt_affine(&param("M").scale(-1)), "-M");
    }
}
