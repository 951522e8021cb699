//! Affine expressions over integer module parameters.
//!
//! Subrange bounds in PS are expressions like `M+1` or `maxK`; the scheduler
//! and the hyperplane transform need to *reason* about them symbolically
//! (e.g. "is the subscript `maxK` equal to the upper bound of dimension K?",
//! Section 3.4 rule 2). [`Affine`] is a linear form `c + Σ kᵢ·pᵢ` over
//! parameter symbols, with exact comparison where provable.

use ps_support::{FxHashMap, Symbol};
use std::collections::BTreeMap;
use std::fmt;

/// An affine form `konst + Σ coeff·param` with `i64` coefficients.
///
/// Terms are kept sorted by symbol so equality and hashing are structural.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Affine {
    /// Parameter terms with nonzero coefficients, sorted by symbol.
    terms: BTreeMap<Symbol, i64>,
    konst: i64,
}

impl Affine {
    /// The constant form `k`.
    pub fn constant(k: i64) -> Affine {
        Affine {
            terms: BTreeMap::new(),
            konst: k,
        }
    }

    /// The form `1·param`.
    pub fn param(p: Symbol) -> Affine {
        let mut terms = BTreeMap::new();
        terms.insert(p, 1);
        Affine { terms, konst: 0 }
    }

    /// True when the form is a plain constant.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// The constant value, if [`Affine::is_constant`].
    pub fn as_constant(&self) -> Option<i64> {
        self.is_constant().then_some(self.konst)
    }

    /// The constant part.
    pub fn constant_part(&self) -> i64 {
        self.konst
    }

    /// Iterate `(param, coefficient)` terms.
    pub fn terms(&self) -> impl Iterator<Item = (Symbol, i64)> + '_ {
        self.terms.iter().map(|(&s, &c)| (s, c))
    }

    /// Parameters appearing with nonzero coefficient.
    pub fn params(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.terms.keys().copied()
    }

    pub fn add(&self, other: &Affine) -> Affine {
        let mut out = self.clone();
        out.add_scaled(other, 1);
        out
    }

    /// `self += k·other`, in place: no form is built for `k·other`.
    pub fn add_scaled(&mut self, other: &Affine, k: i64) {
        self.konst += k * other.konst;
        for (&p, &c) in &other.terms {
            let e = self.terms.entry(p).or_insert(0);
            *e += k * c;
            if *e == 0 {
                self.terms.remove(&p);
            }
        }
    }

    pub fn sub(&self, other: &Affine) -> Affine {
        self.add(&other.scale(-1))
    }

    pub fn scale(&self, k: i64) -> Affine {
        if k == 0 {
            return Affine::constant(0);
        }
        Affine {
            terms: self.terms.iter().map(|(&p, &c)| (p, c * k)).collect(),
            konst: self.konst * k,
        }
    }

    pub fn add_const(&self, k: i64) -> Affine {
        let mut out = self.clone();
        out.konst += k;
        out
    }

    /// Multiply two affine forms when the result stays affine (at least one
    /// side constant). Returns `None` for `param * param`.
    pub fn mul(&self, other: &Affine) -> Option<Affine> {
        if let Some(k) = self.as_constant() {
            return Some(other.scale(k));
        }
        if let Some(k) = other.as_constant() {
            return Some(self.scale(k));
        }
        None
    }

    /// `self - other` when the difference is a provable constant.
    ///
    /// This is the workhorse comparison: `maxK - maxK = 0` proves the
    /// upper-bound rule, `(M+1) - 0` proves range widths, etc. `terms`
    /// holds only nonzero coefficients, so the parameter terms cancel
    /// exactly when the two maps are equal: no form is built to find out.
    pub fn const_difference(&self, other: &Affine) -> Option<i64> {
        (self.terms == other.terms).then(|| self.konst - other.konst)
    }

    /// Evaluate under a parameter environment. `None` if a parameter is
    /// missing from `env`.
    /// Compact single-token rendering for diagnostics and reports:
    /// `maxK-1`, `2`, `n+M+3` — no spaces, no `*` on unit coefficients
    /// (contrast [`fmt::Display`], which spaces terms for source-level
    /// printing).
    pub fn compact(&self) -> String {
        let mut out = String::new();
        for (sym, c) in self.terms() {
            let name = sym.as_str();
            match c {
                0 => {}
                1 if out.is_empty() => out.push_str(name),
                1 => out.push_str(&format!("+{name}")),
                -1 => out.push_str(&format!("-{name}")),
                c if c < 0 => out.push_str(&format!("{c}{name}")),
                c if out.is_empty() => out.push_str(&format!("{c}{name}")),
                c => out.push_str(&format!("+{c}{name}")),
            }
        }
        let k = self.constant_part();
        if out.is_empty() {
            return k.to_string();
        }
        match k {
            0 => {}
            k if k > 0 => out.push_str(&format!("+{k}")),
            k => out.push_str(&k.to_string()),
        }
        out
    }

    pub fn eval(&self, env: &FxHashMap<Symbol, i64>) -> Option<i64> {
        let mut total = self.konst;
        for (&p, &c) in &self.terms {
            total += c * env.get(&p)?;
        }
        Some(total)
    }
}

impl fmt::Debug for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wrote = false;
        for (&p, &c) in &self.terms {
            if c == 0 {
                continue;
            }
            if wrote {
                write!(f, "{}", if c > 0 { " + " } else { " - " })?;
            } else if c < 0 {
                write!(f, "-")?;
            }
            let mag = c.unsigned_abs();
            if mag != 1 {
                write!(f, "{mag}*")?;
            }
            write!(f, "{p}")?;
            wrote = true;
        }
        if self.konst != 0 || !wrote {
            if wrote {
                write!(
                    f,
                    " {} {}",
                    if self.konst >= 0 { "+" } else { "-" },
                    self.konst.unsigned_abs()
                )?;
            } else {
                write!(f, "{}", self.konst)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    #[test]
    fn arithmetic() {
        let m = Affine::param(sym("M"));
        let m_plus_1 = m.add_const(1);
        let two_m = m.scale(2);
        assert_eq!(m_plus_1.sub(&m).as_constant(), Some(1));
        assert_eq!(two_m.sub(&m), m);
        assert_eq!(m.sub(&m), Affine::constant(0));
    }

    #[test]
    fn cancellation_removes_terms() {
        let m = Affine::param(sym("M"));
        let zero = m.sub(&m);
        assert!(zero.is_constant());
        assert_eq!(zero.terms().count(), 0);
    }

    #[test]
    fn mul_rules() {
        let m = Affine::param(sym("M"));
        let k3 = Affine::constant(3);
        assert_eq!(m.mul(&k3), Some(m.scale(3)));
        assert_eq!(k3.mul(&m), Some(m.scale(3)));
        assert_eq!(m.mul(&m), None, "param * param is not affine");
    }

    #[test]
    fn const_difference_proves_equality() {
        let a = Affine::param(sym("maxK"));
        let b = Affine::param(sym("maxK"));
        assert_eq!(a.const_difference(&b), Some(0));
        let c = Affine::param(sym("M"));
        assert_eq!(a.const_difference(&c), None, "different params: unprovable");
    }

    /// The map comparison answers exactly as building `self - other` did,
    /// on forms whose terms cancel fully, partly and not at all.
    #[test]
    fn const_difference_agrees_with_subtraction() {
        use ps_support::rng::{check, shrink_vec};
        let params = ["M", "N", "maxK", "n"].map(sym);
        let form = |terms: &[(usize, i64)], konst: i64| {
            let sum = terms.iter().fold(Affine::constant(konst), |acc, &(p, c)| {
                acc.add(&Affine::param(params[p]).scale(c))
            });
            assert!(sum.terms.values().all(|&c| c != 0), "{sum:?}");
            sum
        };
        check(
            0x5eed_0016,
            2_000,
            |rng| {
                let term = |rng: &mut ps_support::Lcg| (rng.index(4), rng.int(-2, 2));
                let a = rng.vec_of(0, 4, term);
                // Half the time `b` starts from `a`, so differences are
                // often constant and coefficients often cancel.
                let mut b = if rng.bool() { a.clone() } else { Vec::new() };
                b.extend(rng.vec_of(0, 2, term));
                (a, rng.int(-9, 9), b, rng.int(-9, 9))
            },
            |(a, ka, b, kb)| {
                let shrunk_a = shrink_vec(a, 0)
                    .into_iter()
                    .map(|a| (a, *ka, b.clone(), *kb));
                let shrunk_b = shrink_vec(b, 0)
                    .into_iter()
                    .map(|b| (a.clone(), *ka, b, *kb));
                shrunk_a.chain(shrunk_b).collect()
            },
            |(a, ka, b, kb)| {
                let (a, b) = (form(a, *ka), form(b, *kb));
                let (got, want) = (a.const_difference(&b), a.sub(&b).as_constant());
                (got == want)
                    .then_some(())
                    .ok_or_else(|| format!("({a}) - ({b}): {got:?}, subtraction says {want:?}"))
            },
        );
    }

    #[test]
    fn eval_under_env() {
        let mut env = FxHashMap::default();
        env.insert(sym("M"), 8);
        let e = Affine::param(sym("M")).scale(2).add_const(1);
        assert_eq!(e.eval(&env), Some(17));
        let missing = Affine::param(sym("Q"));
        assert_eq!(missing.eval(&env), None);
    }

    #[test]
    fn display_formatting() {
        let m = Affine::param(sym("M"));
        assert_eq!(format!("{}", m.add_const(1)), "M + 1");
        assert_eq!(format!("{}", m.scale(2).add_const(-3)), "2*M - 3");
        assert_eq!(format!("{}", Affine::constant(0)), "0");
        assert_eq!(format!("{}", m.scale(-1)), "-M");
    }
}
