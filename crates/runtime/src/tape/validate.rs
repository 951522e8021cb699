//! Tape validation: a lowering bug becomes an `E0604` fault named at
//! compile time. Memory safety does not rest on it; the walkers index with
//! bounds checks.

use super::{CompiledEq, OutSpec, Tapes};
use ps_analyze::{Flow, Kind, Mem, Reg};
use ps_lang::HirModule;
use ps_support::diag::Diagnostic;
use std::cell::{Cell, RefCell};

impl CompiledEq {
    /// Range-check every register, address, buffer, parameter and jump
    /// reference in the tape. Specialization only *folds* the validated
    /// affine forms (it introduces no new registers), so specialized
    /// addresses need no second pass. The walkers bounds-check every index
    /// they use, so this pass is not what keeps them memory safe; it is
    /// what turns a lowering bug into a fault named at compile time.
    ///
    /// Returns the list of faults (empty means the tape is well-formed);
    /// each names the offending instruction or table section, so the
    /// caller can surface a structural diagnostic instead of a bare index
    /// panic. The walk keeps only a position; text — the instruction's
    /// `Debug` form included — is built only for a fault, so a clean tape
    /// costs no formatting at all.
    fn validate(&self, n_bufs: [usize; 3], n_slots: usize, n_params: usize) -> Vec<String> {
        /// Where the walk stands: an instruction, or a table section.
        #[derive(Clone, Copy)]
        enum At {
            Insn(usize),
            Section(&'static str),
        }
        let faults: RefCell<Vec<String>> = RefCell::new(Vec::new());
        let at = Cell::new(At::Section("tape"));
        let fault = |msg: String| {
            let text = match at.get() {
                At::Insn(ix) => format!("insn {ix} `{:?}`: {msg}", self.insns[ix]),
                At::Section(name) => format!("{name}: {msg}"),
            };
            faults.borrow_mut().push(text);
        };
        let reg = |r: Reg| {
            let (file, r, n) = match r {
                Reg::F(r) => ('f', r, self.n_f),
                Reg::I(r) => ('i', r, self.n_i),
                Reg::B(r) => ('b', r, self.n_b),
            };
            if r >= n {
                fault(format!("{file}-register {r} out of range"));
            }
        };
        let mem = |m: Mem| {
            let (file, n) = match m.kind {
                Kind::F => ('f', n_bufs[0]),
                Kind::I => ('i', n_bufs[1]),
                Kind::B => ('b', n_bufs[2]),
            };
            if (m.buf as usize) >= n {
                fault(format!("{file}-buffer {} out of range", m.buf));
            }
            if (m.addr as usize) >= self.sym_addrs.len() {
                fault(format!("addr {} out of range", m.addr));
            }
        };
        let slot_ok = |slot: u32| {
            if (slot as usize) >= n_slots {
                fault(format!("slot {slot} out of range"));
            }
        };
        for (ix, insn) in self.insns.iter().enumerate() {
            at.set(At::Insn(ix));
            let ops = insn.operands();
            if let Some(slot) = ops.slot {
                slot_ok(slot);
            }
            if let Some(m) = ops.mem {
                mem(m);
            }
            for &r in ops.uses.iter().chain([&ops.def]).flatten() {
                reg(r);
            }
            if let Flow::Jump(t) | Flow::Branch { target: t, .. } = ops.flow {
                if (t as usize) > self.insns.len() {
                    fault(format!("jump {t} out of range"));
                }
            }
        }
        at.set(At::Section("address table"));
        for d in &self.addr_dims {
            for &(r, _) in &d.terms {
                reg(Reg::I(r));
            }
        }
        at.set(At::Section("constant pool"));
        self.consts_f.iter().for_each(|&(r, _)| reg(Reg::F(r)));
        self.consts_i.iter().for_each(|&(r, _)| reg(Reg::I(r)));
        self.consts_b.iter().for_each(|&(r, _)| reg(Reg::B(r)));
        at.set(At::Section("preload table"));
        let param = |p: u16| {
            if (p as usize) >= n_params {
                fault(format!("param {p} out of range"));
            }
        };
        let preload = |file: fn(u16) -> Reg, table: &[(u16, u16)]| {
            for &(r, p) in table {
                reg(file(r));
                param(p);
            }
        };
        preload(Reg::F, &self.preload_f);
        preload(Reg::I, &self.preload_i);
        preload(Reg::B, &self.preload_b);
        at.set(At::Section("derived registers"));
        for (r, p) in &self.derived_i {
            reg(Reg::I(*r));
            p.for_each_param(&param);
        }
        at.set(At::Section("output"));
        reg(self.src);
        if let OutSpec::Scalar { slot } = self.out {
            slot_ok(slot);
        }
        if let Some(m) = self.out.mem() {
            mem(m);
        }
        faults.into_inner()
    }
}

impl Tapes {
    /// [`CompiledEq::validate`] every tape against the program-wide tables.
    fn faults(&self, ceq: &CompiledEq, n_slots: usize) -> Vec<String> {
        let n_bufs = [self.buf_f.len(), self.buf_i.len(), self.buf_b.len()];
        ceq.validate(n_bufs, n_slots, self.params.len())
    }

    /// Panic with an `E0604` diagnostic if any tape is malformed.
    pub(super) fn assert_valid(&self, module: &HirModule, n_slots: usize) {
        for (eq_id, opt) in self.eqs.iter_enumerated() {
            let Some(ceq) = opt else { continue };
            let faults = self.faults(ceq, n_slots);
            if faults.is_empty() {
                continue;
            }
            // A malformed tape is a lowering bug, not a user error: still
            // fatal, but surfaced as a structural diagnostic naming the
            // equation, its target, and the offending instruction rather
            // than a bare index panic deep in the validator.
            let eq = &module.equations[eq_id];
            let mut diag = Diagnostic::error(
                "E0604",
                format!(
                    "internal tape fault in {} (writes `{}`): {}",
                    eq.label, module.data[eq.lhs].name, faults[0]
                ),
            );
            for extra in &faults[1..] {
                diag = diag.with_note(extra.clone(), None);
            }
            let notes: String = diag
                .notes
                .iter()
                .map(|(n, _)| format!("\n  = note: {n}"))
                .collect();
            panic!("{}[{}]: {}{notes}", diag.severity, diag.code, diag.message);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StorePlan;
    use crate::tape::tests::{build, JACOBI};
    use crate::tape::{compile_tapes, SymAddr};
    use ps_analyze::{ADim, CmpOp, Insn};
    use ps_lang::EqId;
    use ps_support::idx::Idx;

    /// Five corruptions of Figure 6's eq.3 tape, one per table `validate`
    /// walks: each fault names its instruction or table section, in walk
    /// order, and `compile_tapes`' `E0604` panic carries the first as its
    /// message and the rest as notes.
    #[test]
    fn tape_faults_name_their_instruction_or_table() {
        let (m, sched) = build(JACOBI);
        let plan = StorePlan::new(&m, &sched.memory);
        let mut tapes = compile_tapes(&m, &plan, &sched.flowchart, false);
        let eq3 = m.equation_by_label("eq.3").unwrap();
        let ceq = tapes.eqs[eq3].as_mut().unwrap();
        let (n_f, n_i, len) = (ceq.n_f, ceq.n_i, ceq.insns.len() as u32);
        let add = ceq
            .insns
            .iter()
            .position(|i| matches!(i, Insn::AddF { .. }));
        if let Some(Insn::AddF { b, .. }) = ceq.insns.get_mut(add.unwrap()) {
            *b = n_f + 2;
        }
        let jump = ceq
            .insns
            .iter()
            .position(|i| matches!(i, Insn::Jump { .. }));
        ceq.insns[jump.unwrap()] = Insn::Jump { target: len + 1 };
        ceq.addr_dims[1].terms.push((n_i + 3, 1));
        ceq.preload_i.push((0, 7));
        if let OutSpec::ArrayF { buf, .. } = &mut ceq.out {
            *buf = 5;
        }
        let faults = [
            "insn 1 `Jump { target: 18 }`: jump 18 out of range",
            "insn 11 `AddF { a: 1, b: 12, dst: 3 }`: f-register 12 out of range",
            "address table: i-register 9 out of range",
            "preload table: param 7 out of range",
            "output: f-buffer 5 out of range",
        ];
        let ceq = tapes.eqs[eq3].as_ref().unwrap();
        assert_eq!(tapes.faults(ceq, plan.slot_count()), faults);
        let panic = std::panic::catch_unwind(|| tapes.assert_valid(&m, plan.slot_count()));
        let text = *panic.unwrap_err().downcast::<String>().unwrap();
        let notes: String = faults[1..]
            .iter()
            .map(|f| format!("\n  = note: {f}"))
            .collect();
        assert_eq!(
            text,
            format!(
                "error[E0604]: internal tape fault in eq.3 (writes `A`): {}{notes}",
                faults[0]
            )
        );
    }

    /// One line per instruction in the form the verifier reads it: the
    /// registers read, then `-> def` for a straight-line instruction (with
    /// the loaded array and its subscripts for a load, `(copy)` for the one
    /// copy whose interval carries over), or the jump, its target and the
    /// fused compare it branches on.
    fn verifier_view(tapes: &Tapes, m: &HirModule, eq: EqId) -> String {
        let ceq = tapes.eqs[eq].as_ref().unwrap();
        let access = |sym: &SymAddr| (sym.array.index(), ceq.dims(sym));
        let addrs: Vec<_> = ceq.sym_addrs.iter().map(access).collect();
        let tape = crate::analysis::eq_tape(m, tapes, eq, ceq, &addrs);
        let insn = tape.insns[0];
        let ops = insn.operands();
        let regs: String = ops.uses.iter().flatten().map(|r| format!("{r} ")).collect();
        let dims = |dims: &[ADim]| -> String {
            let term = |&(r, c): &(u16, i64)| format!("{c:+}i{r}");
            let dim =
                |d: &ADim| format!("{}{}", d.base, d.terms.iter().map(term).collect::<String>());
            dims.iter().map(dim).collect::<Vec<_>>().join(", ")
        };
        match (ops.flow, ops.mem, ops.def) {
            (Flow::Next, None, Some(def)) if matches!(insn, Insn::CopyI { .. }) => {
                format!("{regs}-> {def} (copy)")
            }
            (Flow::Next, Some(mem), Some(def)) => {
                let (array, addr) = tape.addrs[mem.addr as usize];
                format!("-> {def} load a{array}[{}]", dims(addr))
            }
            (Flow::Next, None, Some(def)) => format!("{regs}-> {def}"),
            (Flow::Jump(target), ..) => format!("jump {target}"),
            (Flow::Branch { target, cmp }, ..) => {
                let cmp = cmp.map_or(String::new(), |(op, jump_on_true)| {
                    let when = if jump_on_true { "" } else { "not " };
                    let [a, b] = ops.uses.map(Option::unwrap);
                    format!(" if {when}{op:?} {a} {b}")
                });
                format!("{regs}? jump {target}{cmp}")
            }
            other => panic!("{insn:?} reads as {other:?}"),
        }
    }

    /// Every instruction variant with every operand out of range, pinned
    /// before the instruction set left this file: the verifier's reading of
    /// it (its address table padded so the load resolves) and the exact
    /// faults `validate` names, in walk order. Also the instruction's size.
    #[test]
    fn every_insn_variant_reads_and_validates_as_pinned() {
        #[rustfmt::skip]
        let table: &[(Insn, &str, &[&str])] = &[
            (Insn::CopyF { src: 40, dst: 42 }, "f40 -> f42",
             &["f-register 40 out of range", "f-register 42 out of range"]),
            (Insn::CopyI { src: 40, dst: 42 }, "i40 -> i42 (copy)",
             &["i-register 40 out of range", "i-register 42 out of range"]),
            (Insn::CopyB { src: 40, dst: 42 }, "b40 -> b42",
             &["b-register 40 out of range", "b-register 42 out of range"]),
            (Insn::ReadScalar { slot: 90, dst: Reg::F(42) }, "-> f42",
             &["slot 90 out of range", "f-register 42 out of range"]),
            (Insn::ReadScalar { slot: 90, dst: Reg::I(42) }, "-> i42",
             &["slot 90 out of range", "i-register 42 out of range"]),
            (Insn::ReadScalar { slot: 90, dst: Reg::B(42) }, "-> b42",
             &["slot 90 out of range", "b-register 42 out of range"]),
            (Insn::LoadF { buf: 7, addr: 70, dst: 42 }, "-> f42 load a4[-1+1i0, 0+1i1, 0+1i2]",
             &["f-buffer 7 out of range", "addr 70 out of range", "f-register 42 out of range"]),
            (Insn::LoadI { buf: 7, addr: 70, dst: 42 }, "-> i42 load a4[-1+1i0, 0+1i1, 0+1i2]",
             &["i-buffer 7 out of range", "addr 70 out of range", "i-register 42 out of range"]),
            (Insn::LoadB { buf: 7, addr: 70, dst: 42 }, "-> b42 load a4[-1+1i0, 0+1i1, 0+1i2]",
             &["b-buffer 7 out of range", "addr 70 out of range", "b-register 42 out of range"]),
            (Insn::AddF { a: 40, b: 41, dst: 42 }, "f40 f41 -> f42",
             &["f-register 40 out of range", "f-register 41 out of range", "f-register 42 out of range"]),
            (Insn::SubF { a: 40, b: 41, dst: 42 }, "f40 f41 -> f42",
             &["f-register 40 out of range", "f-register 41 out of range", "f-register 42 out of range"]),
            (Insn::MulF { a: 40, b: 41, dst: 42 }, "f40 f41 -> f42",
             &["f-register 40 out of range", "f-register 41 out of range", "f-register 42 out of range"]),
            (Insn::DivF { a: 40, b: 41, dst: 42 }, "f40 f41 -> f42",
             &["f-register 40 out of range", "f-register 41 out of range", "f-register 42 out of range"]),
            (Insn::MinF { a: 40, b: 41, dst: 42 }, "f40 f41 -> f42",
             &["f-register 40 out of range", "f-register 41 out of range", "f-register 42 out of range"]),
            (Insn::MaxF { a: 40, b: 41, dst: 42 }, "f40 f41 -> f42",
             &["f-register 40 out of range", "f-register 41 out of range", "f-register 42 out of range"]),
            (Insn::AddI { a: 40, b: 41, dst: 42 }, "i40 i41 -> i42",
             &["i-register 40 out of range", "i-register 41 out of range", "i-register 42 out of range"]),
            (Insn::SubI { a: 40, b: 41, dst: 42 }, "i40 i41 -> i42",
             &["i-register 40 out of range", "i-register 41 out of range", "i-register 42 out of range"]),
            (Insn::MulI { a: 40, b: 41, dst: 42 }, "i40 i41 -> i42",
             &["i-register 40 out of range", "i-register 41 out of range", "i-register 42 out of range"]),
            (Insn::DivI { a: 40, b: 41, dst: 42 }, "i40 i41 -> i42",
             &["i-register 40 out of range", "i-register 41 out of range", "i-register 42 out of range"]),
            (Insn::ModI { a: 40, b: 41, dst: 42 }, "i40 i41 -> i42",
             &["i-register 40 out of range", "i-register 41 out of range", "i-register 42 out of range"]),
            (Insn::MinI { a: 40, b: 41, dst: 42 }, "i40 i41 -> i42",
             &["i-register 40 out of range", "i-register 41 out of range", "i-register 42 out of range"]),
            (Insn::MaxI { a: 40, b: 41, dst: 42 }, "i40 i41 -> i42",
             &["i-register 40 out of range", "i-register 41 out of range", "i-register 42 out of range"]),
            (Insn::NegF { a: 40, dst: 42 }, "f40 -> f42",
             &["f-register 40 out of range", "f-register 42 out of range"]),
            (Insn::NegI { a: 40, dst: 42 }, "i40 -> i42",
             &["i-register 40 out of range", "i-register 42 out of range"]),
            (Insn::AbsF { a: 40, dst: 42 }, "f40 -> f42",
             &["f-register 40 out of range", "f-register 42 out of range"]),
            (Insn::AbsI { a: 40, dst: 42 }, "i40 -> i42",
             &["i-register 40 out of range", "i-register 42 out of range"]),
            (Insn::NotB { a: 40, dst: 42 }, "b40 -> b42",
             &["b-register 40 out of range", "b-register 42 out of range"]),
            (Insn::SqrtF { a: 40, dst: 42 }, "f40 -> f42",
             &["f-register 40 out of range", "f-register 42 out of range"]),
            (Insn::ExpF { a: 40, dst: 42 }, "f40 -> f42",
             &["f-register 40 out of range", "f-register 42 out of range"]),
            (Insn::LnF { a: 40, dst: 42 }, "f40 -> f42",
             &["f-register 40 out of range", "f-register 42 out of range"]),
            (Insn::SinF { a: 40, dst: 42 }, "f40 -> f42",
             &["f-register 40 out of range", "f-register 42 out of range"]),
            (Insn::CosF { a: 40, dst: 42 }, "f40 -> f42",
             &["f-register 40 out of range", "f-register 42 out of range"]),
            (Insn::CastIF { a: 40, dst: 42 }, "i40 -> f42",
             &["i-register 40 out of range", "f-register 42 out of range"]),
            (Insn::TruncFI { a: 40, dst: 42 }, "f40 -> i42",
             &["f-register 40 out of range", "i-register 42 out of range"]),
            (Insn::RoundFI { a: 40, dst: 42 }, "f40 -> i42",
             &["f-register 40 out of range", "i-register 42 out of range"]),
            (Insn::CmpF { op: CmpOp::Lt, a: 40, b: 41, dst: 42 }, "f40 f41 -> b42",
             &["f-register 40 out of range", "f-register 41 out of range", "b-register 42 out of range"]),
            (Insn::CmpI { op: CmpOp::Ge, a: 40, b: 41, dst: 42 }, "i40 i41 -> b42",
             &["i-register 40 out of range", "i-register 41 out of range", "b-register 42 out of range"]),
            (Insn::CmpB { op: CmpOp::Ne, a: 40, b: 41, dst: 42 }, "b40 b41 -> b42",
             &["b-register 40 out of range", "b-register 41 out of range", "b-register 42 out of range"]),
            (Insn::Jump { target: 99 }, "jump 99",
             &["jump 99 out of range"]),
            (Insn::JumpIfNot { cond: 40, target: 99 }, "b40 ? jump 99",
             &["b-register 40 out of range", "jump 99 out of range"]),
            (Insn::JumpIf { cond: 40, target: 99 }, "b40 ? jump 99",
             &["b-register 40 out of range", "jump 99 out of range"]),
            (Insn::JumpCmpFNot { op: CmpOp::Le, a: 40, b: 41, target: 99 }, "f40 f41 ? jump 99 if not Le f40 f41",
             &["f-register 40 out of range", "f-register 41 out of range", "jump 99 out of range"]),
            (Insn::JumpCmpINot { op: CmpOp::Eq, a: 40, b: 41, target: 99 }, "i40 i41 ? jump 99 if not Eq i40 i41",
             &["i-register 40 out of range", "i-register 41 out of range", "jump 99 out of range"]),
            (Insn::JumpCmpF { op: CmpOp::Gt, a: 40, b: 41, target: 99 }, "f40 f41 ? jump 99 if Gt f40 f41",
             &["f-register 40 out of range", "f-register 41 out of range", "jump 99 out of range"]),
            (Insn::JumpCmpI { op: CmpOp::Lt, a: 40, b: 41, target: 99 }, "i40 i41 ? jump 99 if Lt i40 i41",
             &["i-register 40 out of range", "i-register 41 out of range", "jump 99 out of range"]),
        ];
        let (m, sched) = build(JACOBI);
        let plan = StorePlan::new(&m, &sched.memory);
        let mut tapes = compile_tapes(&m, &plan, &sched.flowchart, false);
        let eq3 = m.equation_by_label("eq.3").unwrap();
        let n_addrs = tapes.eqs[eq3].as_ref().unwrap().sym_addrs.len();
        for &(insn, reads, faults) in table {
            let ceq = tapes.eqs[eq3].as_mut().unwrap();
            ceq.insns = vec![insn];
            ceq.sym_addrs.truncate(n_addrs);
            let ceq = tapes.eqs[eq3].as_ref().unwrap();
            let want: Vec<String> = faults
                .iter()
                .map(|f| format!("insn 0 `{insn:?}`: {f}"))
                .collect();
            assert_eq!(tapes.faults(ceq, plan.slot_count()), want);
            let ceq = tapes.eqs[eq3].as_mut().unwrap();
            let first = ceq.sym_addrs[0];
            ceq.sym_addrs.resize(71, first);
            assert_eq!(verifier_view(&tapes, &m, eq3), reads, "{insn:?}");
        }
        assert_eq!(
            table.len(),
            45,
            "every variant, `ReadScalar` into each file"
        );
        assert_eq!(std::mem::size_of::<Insn>(), 12);
    }
}
