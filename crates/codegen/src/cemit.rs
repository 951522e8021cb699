//! The C emitter.

use crate::ctypes::{infer, CTy};
use crate::names::{sanitize, Mangler};
use ps_lang::ast::{BinOp, UnOp};
use ps_lang::bounds::Affine;
use ps_lang::hir::{Builtin, DataKind, Equation, HExpr, HirModule, LhsSub, SubscriptExpr};
use ps_lang::{DataId, EqId, IvId, ScalarTy, Ty};
use ps_scheduler::{BoundForm, Descriptor, Flowchart, LoopDescriptor, LoopKind, MemoryPlan};
use ps_support::pretty::PrettyWriter;
use ps_support::FxHashMap;

/// Emitter knobs.
#[derive(Clone, Copy, Debug)]
pub struct CodegenOptions {
    /// Emit `#pragma omp parallel for` on DOALL loops (in addition to the
    /// annotation comment).
    pub openmp: bool,
}

impl Default for CodegenOptions {
    fn default() -> Self {
        CodegenOptions { openmp: true }
    }
}

/// Emit a scheduled module as a C translation unit (function definition
/// plus the shared helper prelude).
pub fn emit_module(
    module: &HirModule,
    flowchart: &Flowchart,
    plan: &MemoryPlan,
    options: CodegenOptions,
) -> String {
    let mut e = Emitter::new(module, plan, options);
    e.prelude();
    e.function(flowchart);
    e.w.finish()
}

struct Emitter<'m> {
    module: &'m HirModule,
    plan: &'m MemoryPlan,
    options: CodegenOptions,
    mangler: Mangler,
    field_names: FxHashMap<(DataId, usize), String>,
    env: FxHashMap<(EqId, IvId), String>,
    /// The counters of the loops being emitted, outermost first.
    counters: Vec<String>,
    w: PrettyWriter,
}

impl<'m> Emitter<'m> {
    fn new(module: &'m HirModule, plan: &'m MemoryPlan, options: CodegenOptions) -> Emitter<'m> {
        let mut mangler = Mangler::for_module(module);
        let mut field_names = FxHashMap::default();
        for (id, item) in module.data.iter_enumerated() {
            if let Ty::Record(rid) = &item.ty {
                for (fidx, (fname, _)) in module.records[*rid].fields.iter().enumerate() {
                    let name =
                        mangler.fresh(&format!("{}_{}", item.name, sanitize(fname.as_str())));
                    field_names.insert((id, fidx), name);
                }
            }
        }
        Emitter {
            module,
            plan,
            options,
            mangler,
            field_names,
            env: FxHashMap::default(),
            counters: Vec::new(),
            w: PrettyWriter::new(),
        }
    }

    fn prelude(&mut self) {
        self.w.line(&format!(
            "/* Generated by psc from PS module `{}`. */",
            self.module.name
        ));
        self.w.line("#include <stdlib.h>");
        self.w.line("#include <math.h>");
        self.w.blank();
        self.w
            .line("/* Euclidean division, matching PS `div`/`mod`. */");
        self.w.line(
            "static long ps_mod(long a, long b) { long r = a % b; \
             return r < 0 ? r + (b < 0 ? -b : b) : r; }",
        );
        self.w
            .line("static long ps_div(long a, long b) { return (a - ps_mod(a, b)) / b; }");
        self.w
            .line("static long ps_lmin(long a, long b) { return a < b ? a : b; }");
        self.w
            .line("static long ps_lmax(long a, long b) { return a > b ? a : b; }");
        self.w
            .line("static double ps_fmin(double a, double b) { return a < b ? a : b; }");
        self.w
            .line("static double ps_fmax(double a, double b) { return a > b ? a : b; }");
        self.w.blank();
    }

    fn c_scalar(&self, ty: &Ty) -> &'static str {
        match ty {
            Ty::Scalar(s) => CTy::of_scalar(*s).c_name(),
            Ty::Enum(_) => "long",
            Ty::Array { elem, .. } => CTy::of_scalar(*elem).c_name(),
            _ => "long",
        }
    }

    /// The exported function name for the module.
    fn fn_name(&self) -> String {
        format!("ps_{}", sanitize(self.module.name.as_str()))
    }

    fn signature(&self) -> String {
        let mut parts = Vec::new();
        for &p in &self.module.params {
            let item = &self.module.data[p];
            if item.is_array() {
                parts.push(format!(
                    "const {} *{}",
                    self.c_scalar(&item.ty),
                    self.mangler.data(p)
                ));
            } else {
                parts.push(format!(
                    "{} {}",
                    self.c_scalar(&item.ty),
                    self.mangler.data(p)
                ));
            }
        }
        for &r in &self.module.results {
            let item = &self.module.data[r];
            // Out-parameters: arrays caller-allocated at full extent,
            // scalars by pointer.
            parts.push(format!(
                "{} *{}",
                self.c_scalar(&item.ty),
                self.mangler.data(r)
            ));
        }
        format!("void {}({})", self.fn_name(), parts.join(", "))
    }

    fn affine_c(&self, a: &Affine) -> String {
        let mut parts = Vec::new();
        for (sym, c) in a.terms() {
            let data = self
                .module
                .data_by_name(sym.as_str())
                .expect("bound parameter exists");
            let name = self.mangler.data(data);
            parts.push(if c == 1 {
                name.to_string()
            } else {
                format!("{c}*{name}")
            });
        }
        let k = a.constant_part();
        if k != 0 || parts.is_empty() {
            parts.push(k.to_string());
        }
        let joined = parts.join(" + ").replace("+ -", "- ");
        if parts.len() > 1 {
            format!("({joined})")
        } else {
            joined
        }
    }

    /// Emit extent constants and the indexing macro for one array.
    fn array_layout(&mut self, id: DataId) {
        let item = &self.module.data[id];
        let name = self.mangler.data(id).to_string();
        let rank = item.dims().len();
        let windowed = item.kind == DataKind::Local;
        for (d, &sr) in item.dims().iter().enumerate() {
            let s = &self.module.subranges[sr];
            let lo = self.affine_c(&s.lo);
            let hi = self.affine_c(&s.hi);
            self.w.line(&format!("const long {name}_lo{d} = {lo};"));
            let full = format!("({hi}) - ({lo}) + 1");
            match self.plan.window(id, d).filter(|_| windowed) {
                Some(win) => {
                    // Window never exceeds the declared extent; indexing
                    // wraps modulo the *physical* extent, which is the
                    // identity when the window covers the whole range.
                    self.w
                        .line(&format!("const long {name}_e{d} = ps_lmin({win}, {full});"));
                }
                None => {
                    self.w.line(&format!("const long {name}_e{d} = {full};"));
                }
            }
        }
        // PS_AT_<name>(i0, .., ik): flat offset with window mapping.
        let args: Vec<String> = (0..rank).map(|d| format!("i{d}")).collect();
        let mut offset = String::new();
        for d in 0..rank {
            let rel = format!("((i{d}) - {name}_lo{d})");
            let phys = if self.plan.window(id, d).is_some() && windowed {
                format!("ps_mod({rel}, {name}_e{d})")
            } else {
                rel
            };
            offset = if d == 0 {
                phys
            } else {
                format!("({offset}) * {name}_e{d} + {phys}")
            };
        }
        self.w.line(&format!(
            "#define PS_AT_{name}({}) {name}[{offset}]",
            args.join(", ")
        ));
    }

    fn function(&mut self, flowchart: &Flowchart) {
        let sig = self.signature();
        self.w.line(&format!("{sig} {{"));
        self.w.indent();

        // Layouts for every array, allocation for locals, declarations for
        // scalar locals and record fields.
        let data_ids: Vec<DataId> = self.module.data.indices().collect();
        for id in data_ids {
            let item = self.module.data[id].clone();
            if item.is_array() {
                self.array_layout(id);
                if item.kind == DataKind::Local {
                    let name = self.mangler.data(id).to_string();
                    let ty = self.c_scalar(&item.ty);
                    let extent = (0..item.dims().len())
                        .map(|d| format!("{name}_e{d}"))
                        .collect::<Vec<_>>()
                        .join(" * ");
                    self.w.line(&format!(
                        "{ty} *{name} = ({ty} *)calloc((size_t)({extent}), sizeof({ty}));"
                    ));
                }
            } else if item.kind != DataKind::Param {
                match &item.ty {
                    Ty::Record(rid) => {
                        let fields = self.module.records[*rid].fields.clone();
                        for (fidx, (_, fty)) in fields.iter().enumerate() {
                            let fname = self.field_names[&(id, fidx)].clone();
                            let ty = self.c_scalar(fty);
                            self.w.line(&format!("{ty} {fname} = 0;"));
                        }
                    }
                    ty => {
                        // Result scalars are out-pointers; locals are plain.
                        if item.kind == DataKind::Local {
                            let name = self.mangler.data(id).to_string();
                            let cty = self.c_scalar(ty);
                            self.w.line(&format!("{cty} {name}_v = 0;"));
                        }
                    }
                }
            }
        }
        self.w.blank();

        let items = flowchart.items.clone();
        self.items(&items);

        // Free local arrays.
        self.w.blank();
        for (id, item) in self.module.data.iter_enumerated() {
            if item.kind == DataKind::Local && item.is_array() {
                self.w.line(&format!("free({});", self.mangler.data(id)));
            }
        }
        // Undefine macros so several modules can share a file.
        for (id, item) in self.module.data.iter_enumerated() {
            if item.is_array() {
                self.w
                    .line(&format!("#undef PS_AT_{}", self.mangler.data(id)));
            }
        }
        self.w.dedent();
        self.w.line("}");
    }

    fn items(&mut self, items: &[Descriptor]) {
        for d in items {
            match d {
                Descriptor::Equation(eq) => self.equation(*eq),
                Descriptor::Loop(l) => self.loop_(l),
            }
        }
    }

    fn loop_(&mut self, l: &LoopDescriptor) {
        let lo = self.bound_c(l, false);
        let hi = self.bound_c(l, true);
        let var = sanitize(&l.name);
        match l.kind {
            LoopKind::Do => {
                self.w.line(&format!("/* DO {} (iterative) */", l.name));
            }
            LoopKind::Doall => {
                self.w.line(&format!("/* DOALL {} (concurrent) */", l.name));
                if self.options.openmp {
                    self.w.line("#pragma omp parallel for");
                }
            }
        }
        self.w.line(&format!(
            "for (long {var} = {lo}; {var} <= {hi}; ++{var}) {{"
        ));
        self.w.indent();
        for &(eq, iv) in &l.bindings {
            self.env.insert((eq, iv), var.clone());
        }
        self.counters.push(var);
        let body = l.body.clone();
        self.items(&body);
        self.counters.pop();
        for &(eq, iv) in &l.bindings {
            self.env.remove(&(eq, iv));
        }
        self.w.dedent();
        self.w.line("}");
    }

    /// One end of `l`'s range: its box's, under `ps_lmax` (`ps_lmin` for
    /// the `upper` end) of every form narrowing that end.
    fn bound_c(&self, l: &LoopDescriptor, upper: bool) -> String {
        let (mut c, clamp) = match upper {
            false => (self.affine_c(&l.bounds.lo), "ps_lmax"),
            true => (self.affine_c(&l.bounds.hi), "ps_lmin"),
        };
        for f in l.bounds.narrow.iter().filter(|f| f.upper == upper) {
            c = format!("{clamp}({c}, {})", self.form_c(f));
        }
        c
    }

    /// A narrowing form over the enclosing counters and the parameters.
    fn form_c(&self, f: &BoundForm) -> String {
        let counter = |&(d, c): &(u16, i64)| {
            let v = &self.counters[d as usize];
            match c {
                1 => v.clone(),
                -1 => format!("-{v}"),
                c => format!("{c}*{v}"),
            }
        };
        let mut terms: Vec<String> = f.counters.iter().map(counter).collect();
        if f.rest.as_constant() != Some(0) || terms.is_empty() {
            terms.push(self.affine_c(&f.rest));
        }
        terms.join(" + ").replace("+ -", "- ")
    }

    fn equation(&mut self, eq_id: EqId) {
        let eq = self.module.equations[eq_id].clone();
        let rhs = self.expr(eq_id, &eq, &eq.rhs);
        self.w.line(&format!("/* {} */", eq.label));
        match eq.lhs_field {
            Some(fidx) => {
                let fname = self.field_names[&(eq.lhs, fidx)].clone();
                self.w.line(&format!("{fname} = {rhs};"));
            }
            None if eq.lhs_subs.is_empty() => {
                let item = &self.module.data[eq.lhs];
                let name = self.mangler.data(eq.lhs).to_string();
                if item.kind == DataKind::Result {
                    self.w.line(&format!("*{name} = {rhs};"));
                } else {
                    self.w.line(&format!("{name}_v = {rhs};"));
                }
            }
            None => {
                let name = self.mangler.data(eq.lhs).to_string();
                let subs: Vec<String> = eq
                    .lhs_subs
                    .iter()
                    .map(|s| match s {
                        LhsSub::Const(a) => self.affine_c(a),
                        LhsSub::Var(iv) => self.env[&(eq_id, *iv)].clone(),
                    })
                    .collect();
                self.w
                    .line(&format!("PS_AT_{name}({}) = {rhs};", subs.join(", ")));
            }
        }
    }

    fn subscript(&self, eq_id: EqId, eq: &Equation, s: &SubscriptExpr) -> String {
        match s {
            SubscriptExpr::Var(iv) => self.env[&(eq_id, *iv)].clone(),
            SubscriptExpr::VarOffset(iv, d) => {
                let v = &self.env[&(eq_id, *iv)];
                if *d >= 0 {
                    format!("{v} + {d}")
                } else {
                    format!("{v} - {}", -d)
                }
            }
            SubscriptExpr::Affine(a) => {
                let mut terms: Vec<String> = a
                    .iv_terms
                    .iter()
                    .map(|&(iv, c)| {
                        let v = &self.env[&(eq_id, iv)];
                        if c == 1 {
                            v.clone()
                        } else {
                            format!("{c}*{v}")
                        }
                    })
                    .collect();
                if a.rest.as_constant() != Some(0) || terms.is_empty() {
                    terms.push(self.affine_c(&a.rest));
                }
                terms.join(" + ").replace("+ -", "- ")
            }
            SubscriptExpr::Dynamic(e) => self.expr(eq_id, eq, e),
        }
    }

    fn expr(&self, eq_id: EqId, eq: &Equation, e: &HExpr) -> String {
        match e {
            HExpr::Int(v) => format!("{v}"),
            HExpr::Real(v) => {
                let s = format!("{v:?}"); // Debug keeps the decimal point
                s
            }
            HExpr::Bool(v) => if *v { "1" } else { "0" }.to_string(),
            HExpr::Char(c) => format!("{}", *c as i64),
            HExpr::EnumConst(_, ord) => format!("{ord}"),
            HExpr::ReadScalar(d) => {
                let item = &self.module.data[*d];
                let name = self.mangler.data(*d);
                match item.kind {
                    DataKind::Param => name.to_string(),
                    DataKind::Result => format!("(*{name})"),
                    DataKind::Local => format!("{name}_v"),
                }
            }
            HExpr::ReadField(d, idx) => self.field_names[&(*d, *idx)].clone(),
            HExpr::Iv(iv) => self.env[&(eq_id, *iv)].clone(),
            HExpr::ReadArray { array, subs, .. } => {
                let name = self.mangler.data(*array);
                let parts: Vec<String> =
                    subs.iter().map(|s| self.subscript(eq_id, eq, s)).collect();
                format!("PS_AT_{name}({})", parts.join(", "))
            }
            HExpr::Binary { op, lhs, rhs } => {
                let l = self.expr(eq_id, eq, lhs);
                let r = self.expr(eq_id, eq, rhs);
                match op {
                    BinOp::IntDiv => format!("ps_div({l}, {r})"),
                    BinOp::Mod => format!("ps_mod({l}, {r})"),
                    BinOp::Eq => format!("({l} == {r})"),
                    BinOp::Ne => format!("({l} != {r})"),
                    BinOp::And => format!("({l} && {r})"),
                    BinOp::Or => format!("({l} || {r})"),
                    BinOp::Add => format!("({l} + {r})"),
                    BinOp::Sub => format!("({l} - {r})"),
                    BinOp::Mul => format!("({l} * {r})"),
                    BinOp::Div => format!("({l} / {r})"),
                    BinOp::Lt => format!("({l} < {r})"),
                    BinOp::Le => format!("({l} <= {r})"),
                    BinOp::Gt => format!("({l} > {r})"),
                    BinOp::Ge => format!("({l} >= {r})"),
                }
            }
            HExpr::Unary { op, operand } => {
                let v = self.expr(eq_id, eq, operand);
                match op {
                    UnOp::Neg => format!("(-{v})"),
                    UnOp::Not => format!("(!{v})"),
                }
            }
            HExpr::If { arms, else_ } => {
                let mut out = String::new();
                for (c, v) in arms {
                    out.push_str(&format!(
                        "({} ? {} : ",
                        self.expr(eq_id, eq, c),
                        self.expr(eq_id, eq, v)
                    ));
                }
                out.push_str(&self.expr(eq_id, eq, else_));
                out.push_str(&")".repeat(arms.len()));
                out
            }
            HExpr::Call { builtin, args } => {
                let a: Vec<String> = args.iter().map(|x| self.expr(eq_id, eq, x)).collect();
                match builtin {
                    Builtin::Abs => match infer(self.module, eq, &args[0]) {
                        CTy::Real => format!("fabs({})", a[0]),
                        _ => format!("labs({})", a[0]),
                    },
                    Builtin::Min => match infer(self.module, eq, &args[0]) {
                        CTy::Real => format!("ps_fmin({}, {})", a[0], a[1]),
                        _ => format!("ps_lmin({}, {})", a[0], a[1]),
                    },
                    Builtin::Max => match infer(self.module, eq, &args[0]) {
                        CTy::Real => format!("ps_fmax({}, {})", a[0], a[1]),
                        _ => format!("ps_lmax({}, {})", a[0], a[1]),
                    },
                    Builtin::Sqrt => format!("sqrt({})", a[0]),
                    Builtin::Exp => format!("exp({})", a[0]),
                    Builtin::Ln => format!("log({})", a[0]),
                    Builtin::Sin => format!("sin({})", a[0]),
                    Builtin::Cos => format!("cos({})", a[0]),
                    Builtin::Trunc => format!("(long)({})", a[0]),
                    Builtin::Round => format!("(long)llround({})", a[0]),
                    Builtin::RealFn => format!("(double)({})", a[0]),
                    Builtin::Ord => format!("({})", a[0]),
                }
            }
            HExpr::CastReal(inner) => format!("(double)({})", self.expr(eq_id, eq, inner)),
        }
    }
}

/// Emit a `main` that binds the given scalar parameters, fills array inputs
/// with the deterministic pattern `value(flat) = (flat mod 97)/4 + 1`
/// (reals) or `flat mod 97` (ints), calls the module function, and prints a
/// `%.17g` checksum per result.
pub fn emit_main(module: &HirModule, scalar_params: &[(&str, i64)]) -> String {
    let mangler = Mangler::for_module(module);
    let mut w = PrettyWriter::new();
    w.line("#include <stdio.h>");
    w.blank();
    w.line("int main(void) {");
    w.indent();
    let env: FxHashMap<&str, i64> = scalar_params.iter().copied().collect();
    let affine_env: FxHashMap<ps_support::Symbol, i64> = scalar_params
        .iter()
        .map(|&(n, v)| (ps_support::Symbol::intern(n), v))
        .collect();
    for &p in &module.params {
        let item = &module.data[p];
        let name = mangler.data(p);
        if item.is_array() {
            let extent: i64 = item
                .dims()
                .iter()
                .map(|&sr| {
                    let s = &module.subranges[sr];
                    let lo = s.lo.eval(&affine_env).expect("bound evaluates");
                    let hi = s.hi.eval(&affine_env).expect("bound evaluates");
                    (hi - lo + 1).max(0)
                })
                .product();
            let elem = item.elem_scalar().expect("scalar elem");
            let cty = CTy::of_scalar(elem).c_name();
            w.line(&format!(
                "{cty} *{name} = ({cty} *)malloc((size_t){extent} * sizeof({cty}));"
            ));
            w.line(&format!("for (long i = 0; i < {extent}; ++i) {{"));
            w.indented(|w| match elem {
                ScalarTy::Real => w.line(&format!("{name}[i] = (double)(i % 97) * 0.25 + 1.0;")),
                _ => w.line(&format!("{name}[i] = i % 97;")),
            });
            w.line("}");
        } else {
            let v = env
                .get(item.name.as_str())
                .copied()
                .unwrap_or_else(|| panic!("missing value for parameter {}", item.name));
            match &item.ty {
                Ty::Scalar(ScalarTy::Real) => w.line(&format!("double {name} = {v}.0;")),
                Ty::Scalar(ScalarTy::Bool) => w.line(&format!("int {name} = {};", (v != 0) as i64)),
                _ => w.line(&format!("long {name} = {v};")),
            }
        }
    }
    for &r in &module.results {
        let item = &module.data[r];
        let name = mangler.data(r);
        if item.is_array() {
            let extent: i64 = item
                .dims()
                .iter()
                .map(|&sr| {
                    let s = &module.subranges[sr];
                    let lo = s.lo.eval(&affine_env).expect("bound evaluates");
                    let hi = s.hi.eval(&affine_env).expect("bound evaluates");
                    (hi - lo + 1).max(0)
                })
                .product();
            let cty = CTy::of_scalar(item.elem_scalar().expect("elem")).c_name();
            w.line(&format!(
                "{cty} *{name} = ({cty} *)calloc((size_t){extent}, sizeof({cty}));"
            ));
        } else {
            let cty = match &item.ty {
                Ty::Scalar(s) => CTy::of_scalar(*s).c_name(),
                _ => "long",
            };
            w.line(&format!("{cty} {name} = 0;"));
        }
    }
    // Call.
    let mut args: Vec<String> = module
        .params
        .iter()
        .map(|&p| mangler.data(p).to_string())
        .collect();
    for &r in &module.results {
        let item = &module.data[r];
        let name = mangler.data(r);
        args.push(if item.is_array() {
            name.to_string()
        } else {
            format!("&{name}")
        });
    }
    w.line(&format!(
        "ps_{}({});",
        sanitize(module.name.as_str()),
        args.join(", ")
    ));
    // Checksums.
    for &r in &module.results {
        let item = &module.data[r];
        let name = mangler.data(r);
        if item.is_array() {
            let extent: i64 = item
                .dims()
                .iter()
                .map(|&sr| {
                    let s = &module.subranges[sr];
                    let lo = s.lo.eval(&affine_env).expect("bound evaluates");
                    let hi = s.hi.eval(&affine_env).expect("bound evaluates");
                    (hi - lo + 1).max(0)
                })
                .product();
            w.line("{");
            w.indented(|w| {
                w.line("double ps_sum = 0;");
                w.line(&format!(
                    "for (long i = 0; i < {extent}; ++i) ps_sum += (double){name}[i];"
                ));
                w.line(&format!("printf(\"{}=%.17g\\n\", ps_sum);", item.name));
            });
            w.line("}");
        } else {
            w.line(&format!(
                "printf(\"{}=%.17g\\n\", (double){name});",
                item.name
            ));
        }
    }
    w.line("return 0;");
    w.dedent();
    w.line("}");
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_depgraph::build_depgraph;
    use ps_lang::frontend;
    use ps_scheduler::{schedule_module, ScheduleOptions};

    const RELAXATION_V1: &str = "
        Relaxation: module (InitialA: array[I,J] of real;
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
        end Relaxation;
    ";

    fn emit(src: &str) -> String {
        let m = frontend(src).unwrap();
        let dg = build_depgraph(&m);
        let sched = schedule_module(&m, &dg, ScheduleOptions::default()).unwrap();
        emit_module(
            &m,
            &sched.flowchart,
            &sched.memory,
            CodegenOptions::default(),
        )
    }

    #[test]
    fn relaxation_c_structure() {
        let c = emit(RELAXATION_V1);
        // Signature with array params and out array.
        assert!(
            c.contains(
                "void ps_Relaxation(const double *InitialA, long M, long maxK, double *newA)"
            ),
            "{c}"
        );
        // DOALL annotation + pragma; DO annotation for K.
        assert!(c.contains("/* DOALL I (concurrent) */"), "{c}");
        assert!(c.contains("#pragma omp parallel for"));
        assert!(c.contains("/* DO K (iterative) */"));
        // Windowed allocation for A: window 2 on dim 0.
        assert!(
            c.contains("const long A_e0 = ps_lmin(2, (maxK) - (1) + 1);"),
            "{c}"
        );
        assert!(c.contains("ps_mod(((i0) - A_lo0), A_e0)"), "{c}");
        // Boundary if compiles to a conditional expression.
        assert!(c.contains("?"));
        // Locals freed.
        assert!(c.contains("free(A);"));
    }

    #[test]
    fn openmp_can_be_disabled() {
        let m = frontend(RELAXATION_V1).unwrap();
        let dg = build_depgraph(&m);
        let sched = schedule_module(&m, &dg, ScheduleOptions::default()).unwrap();
        let c = emit_module(
            &m,
            &sched.flowchart,
            &sched.memory,
            CodegenOptions { openmp: false },
        );
        assert!(!c.contains("#pragma omp"));
        assert!(c.contains("/* DOALL"));
    }

    #[test]
    fn scalar_and_builtin_emission() {
        let c = emit(
            "T: module (x: int; ys: array[1..4] of real): [z: real];
             type I = 1 .. 4;
             var s: real;
             define
                s = max(ys[1], abs(ys[2]));
                z = s + real(x div 2) + sqrt(ys[3]);
             end T;",
        );
        assert!(c.contains("ps_fmax("), "{c}");
        assert!(c.contains("fabs("), "{c}");
        assert!(c.contains("ps_div(x, 2)"), "{c}");
        assert!(c.contains("sqrt("), "{c}");
        assert!(c.contains("*z = "), "{c}");
    }

    #[test]
    fn main_harness_emits_checksum() {
        let m = frontend(RELAXATION_V1).unwrap();
        let main = emit_main(&m, &[("M", 8), ("maxK", 10)]);
        assert!(main.contains("int main(void)"));
        assert!(
            main.contains("ps_Relaxation(InitialA, M, maxK, newA);"),
            "{main}"
        );
        assert!(main.contains("newA=%.17g"));
        // Input extent: (8+2)^2 = 100.
        assert!(main.contains("100"), "{main}");
    }

    #[test]
    fn euclidean_helpers_present() {
        let c = emit("T: module (a: int): [y: int]; define y = a mod 3; end T;");
        assert!(c.contains("static long ps_mod"));
        assert!(c.contains("ps_mod(a, 3)"));
    }
}
