//! Shared random-program generators and bit-exact comparison helpers for
//! the property suites (`engine_diff`, `analyzer_prop`).
//!
//! Included per-suite via `#[path = "generators.rs"] mod generators;` —
//! each integration test is its own crate, so this is the idiomatic way
//! to share test-only code without publishing it from a library.

#![allow(dead_code)]

use ps_core::{Inputs, Outputs, OwnedArray};
use ps_runtime::value::OwnedBuffer;
use ps_support::rng::shrink_vec;
use ps_support::Lcg;

// ---- bit-exact output comparison ----

pub fn bits_of(v: ps_core::Value) -> (u8, u64) {
    match v {
        ps_core::Value::Int(i) => (0, i as u64),
        ps_core::Value::Real(r) => (1, r.to_bits()),
        ps_core::Value::Bool(b) => (2, b as u64),
    }
}

pub fn buffer_bits(b: &OwnedBuffer) -> Vec<u64> {
    match b {
        OwnedBuffer::Real(v) => v.iter().map(|x| x.to_bits()).collect(),
        OwnedBuffer::Int(v) => v.iter().map(|&x| x as u64).collect(),
        OwnedBuffer::Bool(v) => v.iter().map(|&x| x as u64).collect(),
    }
}

/// Compare two output sets bit-for-bit (NaN == NaN, +0.0 != -0.0).
pub fn assert_bits_eq(label: &str, a: &Outputs, b: &Outputs) -> Result<(), String> {
    if a.scalars.len() != b.scalars.len() || a.arrays.len() != b.arrays.len() {
        return Err(format!("{label}: output sets differ in shape"));
    }
    for (name, &va) in &a.scalars {
        let vb = b.scalars[name];
        if bits_of(va) != bits_of(vb) {
            return Err(format!("{label}: scalar {name}: {va:?} vs {vb:?}"));
        }
    }
    for (name, arr_a) in &a.arrays {
        let arr_b = &b.arrays[name];
        if arr_a.dims != arr_b.dims {
            return Err(format!("{label}: array {name}: dims differ"));
        }
        let (ba, bb) = (buffer_bits(&arr_a.data), buffer_bits(&arr_b.data));
        if let Some(i) = (0..ba.len()).find(|&i| ba[i] != bb[i]) {
            return Err(format!(
                "{label}: array {name} differs at flat index {i}: \
                 {:#x} vs {:#x}",
                ba[i], bb[i]
            ));
        }
    }
    Ok(())
}

// ---- random 1-D recurrence programs ----

/// A linear chain genome: the real and int recurrence bodies are built by
/// folding `(op, leaf)` pairs onto a seed leaf, which keeps the case
/// shrinkable with `shrink_vec` while still exercising every instruction
/// kind the lowering emits.
#[derive(Clone, Debug)]
pub struct ChainProgram {
    /// Initialisation planes (1..=3); recursive offsets stay within them.
    init: i64,
    real_ops: Vec<(u8, u8)>,
    int_ops: Vec<(u8, u8)>,
    /// Export `a` in full (forces unwindowed storage); otherwise only
    /// `a[n]` is read and the planner may window `a`.
    export_a: bool,
}

pub const N: i64 = 12;

impl ChainProgram {
    fn real_leaf(&self, code: u8) -> String {
        let off = (code as i64 % self.init) + 1;
        match code % 7 {
            0 => "xs[K]".into(),
            1 => "xs[ks[K]]".into(),
            2 => format!("a[K-{off}]"),
            3 => format!("real(c[K-{off}])"),
            4 => "real(K)".into(),
            5 => format!("{}.25", code % 4),
            _ => "sqrt(abs(xs[K]))".into(),
        }
    }

    fn int_leaf(&self, code: u8) -> String {
        let off = (code as i64 % self.init) + 1;
        match code % 5 {
            0 => format!("c[K-{off}]"),
            1 => "ks[K]".into(),
            2 => "K".into(),
            3 => format!("{}", 1 + code % 9),
            _ => format!("abs(c[K-{off}] - 7)"),
        }
    }

    fn real_body(&self) -> String {
        let mut e = self.real_leaf(11);
        for &(op, leaf) in &self.real_ops {
            let l = self.real_leaf(leaf);
            e = match op % 8 {
                0 => format!("({e} + {l})"),
                1 => format!("({e} - {l})"),
                2 => format!("({e} * 0.5 + {l})"),
                3 => format!("({e} / (abs({l}) + 1.0))"),
                4 => format!("min({e}, {l})"),
                5 => format!("max({e}, {l})"),
                6 => format!("(if {l} < {e} then ({e} - {l}) else ({l} + 0.125))"),
                _ => format!(
                    "(if ({l} < {e}) and ((not ({e} < 0.0)) or ({l} > 1.0)) \
                     then {e} else {l})"
                ),
            };
        }
        e
    }

    fn int_body(&self) -> String {
        let mut e = self.int_leaf(3);
        for &(op, leaf) in &self.int_ops {
            let l = self.int_leaf(leaf);
            e = match op % 7 {
                0 => format!("({e} + {l})"),
                1 => format!("({e} - {l})"),
                2 => format!("({e} * {l})"),
                3 => format!("({e} div (abs({l}) + 1))"),
                4 => format!("({e} mod (abs({l}) + 1))"),
                5 => format!("min({e}, {l})"),
                _ => format!("(if ({e} mod 2) = 0 then ({e} + {l}) else max({e}, {l}))"),
            };
        }
        e
    }

    pub fn source(&self) -> String {
        let lo = self.init + 1;
        let mut eqs = String::new();
        for p in 1..=self.init {
            eqs.push_str(&format!("    a[{p}] = {p}.25;\n    c[{p}] = {p};\n"));
        }
        eqs.push_str(&format!("    a[K] = {};\n", self.real_body()));
        eqs.push_str(&format!("    c[K] = ({}) mod 97;\n", self.int_body()));
        let (z_result, z_eq) = if self.export_a {
            ("; z: array[1..n] of real", "    z = a;\n")
        } else {
            ("", "")
        };
        format!(
            "Gen: module (n: int; xs: array[1..n] of real;
                          ks: array[1..n] of int):
                 [y: real; t: bool; w: array[1..n] of int{z_result}];
             type K = {lo} .. n;
             var a: array [1 .. n] of real;
                 c: array [1 .. n] of int;
             define
             {eqs}{z_eq}
                 w = c;
                 y = a[n] + real(c[n]);
                 t = (a[n] < a[1]) or (c[n] = 0);
             end Gen;"
        )
    }

    pub fn inputs(&self) -> Inputs {
        let xs: Vec<f64> = (0..N)
            .map(|i| ((i * 37 + 11) % 23) as f64 * 0.375 - 3.0)
            .collect();
        let ks: Vec<i64> = (0..N).map(|i| (i * 7 + 3) % N + 1).collect();
        Inputs::new()
            .set_int("n", N)
            .set_array("xs", OwnedArray::real(vec![(1, N)], xs))
            .set_array("ks", OwnedArray::int(vec![(1, N)], ks))
    }
}

pub fn arb_chain(rng: &mut Lcg) -> ChainProgram {
    ChainProgram {
        init: rng.int(1, 3),
        real_ops: rng.vec_of(1, 6, |r| (r.int(0, 255) as u8, r.int(0, 255) as u8)),
        int_ops: rng.vec_of(1, 5, |r| (r.int(0, 255) as u8, r.int(0, 255) as u8)),
        export_a: rng.bool(),
    }
}

pub fn shrink_chain(p: &ChainProgram) -> Vec<ChainProgram> {
    let mut out = Vec::new();
    for cand in shrink_vec(&p.real_ops, 0) {
        out.push(ChainProgram {
            real_ops: cand,
            ..p.clone()
        });
    }
    for cand in shrink_vec(&p.int_ops, 0) {
        out.push(ChainProgram {
            int_ops: cand,
            ..p.clone()
        });
    }
    if p.export_a {
        out.push(ChainProgram {
            export_a: false,
            ..p.clone()
        });
    }
    out
}

// ---- random 2-D guarded grids ----

/// Jacobi-style grids with a random neighbour stencil behind the boundary
/// guard: exercises multi-dimensional strength reduction, the flattened
/// `DOALL I (DOALL J ...)` chain, and parameter constant folding.
#[derive(Clone, Debug)]
pub struct GridProgram {
    pub reads: Vec<(i64, i64)>,
}

impl GridProgram {
    pub fn source(&self) -> String {
        let terms: Vec<String> = self
            .reads
            .iter()
            .map(|(di, dj)| {
                let ix = |v: &str, d: i64| match d {
                    0 => v.to_string(),
                    d if d > 0 => format!("{v}+{d}"),
                    d => format!("{v}-{}", -d),
                };
                format!("g[K-1,{},{}]", ix("I", *di), ix("J", *dj))
            })
            .collect();
        format!(
            "Grid: module (init: array[I,J] of real; M: int; maxK: int):
                 [out: array[I,J] of real];
             type I, J = 0 .. M+1; K = 2 .. maxK;
             var g: array [1 .. maxK] of array[I,J] of real;
             define
                g[1] = init;
                out = g[maxK];
                g[K,I,J] = if (I = 0) or (J = 0) or (I = M+1) or (J = M+1)
                           then g[K-1,I,J]
                           else ({sum}) / {count};
             end Grid;",
            sum = terms.join(" + "),
            count = terms.len()
        )
    }
}

pub fn arb_grid(rng: &mut Lcg) -> GridProgram {
    GridProgram {
        reads: rng.vec_of(1, 4, |r| (r.int(-1, 1), r.int(-1, 1))),
    }
}

pub fn shrink_grid(p: &GridProgram) -> Vec<GridProgram> {
    shrink_vec(&p.reads, 1)
        .into_iter()
        .map(|reads| GridProgram { reads })
        .collect()
}

/// Deterministic inputs for a [`GridProgram`] of the given size.
pub fn grid_inputs(m: i64, maxk: i64) -> Inputs {
    let side = (m + 2) as usize;
    let data: Vec<f64> = (0..side * side).map(|i| (i % 13) as f64 * 0.5).collect();
    Inputs::new()
        .set_int("M", m)
        .set_int("maxK", maxk)
        .set_array("init", OwnedArray::real(vec![(0, m + 1), (0, m + 1)], data))
}

// ---- fixed-shape scaling input ----

/// `chain<n>`: `n` identity-dependent pointwise equations feeding one
/// recurrence — the source behind the scheduler's scaling rows (`chain16`,
/// `chain64`, …) and the `sched_chain*.txt` goldens.
pub fn chain_source(n: usize) -> String {
    let mut eqs = String::new();
    let mut vars = String::new();
    for g in 0..n {
        vars.push_str(&format!("    a{g}: array [1 .. n] of real;\n"));
        if g == 0 {
            eqs.push_str("    a0[I] = xs[I] * 2.0 + 1.0;\n");
        } else {
            eqs.push_str(&format!("    a{g}[I] = a{}[I] * 2.0 + 1.0;\n", g - 1));
        }
    }
    format!(
        "Chain: module (xs: array[I] of real; n: int): [y: real];
         type I = 1 .. n; K = 2 .. n;
         var
         {vars}
             r: array [1 .. n] of real;
         define
         {eqs}
             r[1] = a{last}[1];
             r[K] = r[K-1] + a{last}[K];
             y = r[n];
         end Chain;",
        last = n - 1
    )
}
