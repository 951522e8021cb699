//! One run's execution view ([`ExecProg`]), the per-worker register files
//! ([`Frames`]), the scalar walker and the strip walker's buffer hooks.
//! `unsafe` is left at the six [`ParVec`] calls: the walker's three scalar
//! stores and the three hooks. `crate::ndarray` gives their argument and
//! what the `UnsafeCell` buffer buys over a safe atomic one.

use super::{Addr, CompiledEq, OutSpec, Spec, Tapes};
use crate::ndarray::{ParVec, SharedBuffer};
use crate::store::Store;
use crate::strip::{self, fop, StripPlan};
use crate::value::Value;
use ps_analyze::{Insn, Reg};
use ps_lang::{DataId, EqId, IvId};
use ps_support::idx::{Idx, IndexVec};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

/// One run's execution view: tapes + specialized addresses + the live
/// store's typed buffers (and, in checked mode, their tag tables)
/// resolved by index. Constructed per run; cheap (three short `Vec`s).
pub(crate) struct ExecProg<'r, 'm> {
    pub(crate) store: &'r Store<'m>,
    tapes: &'r Tapes,
    pub(crate) spec: &'r Spec,
    pub(crate) bufs_f: Vec<&'r ParVec<f64>>,
    bufs_i: Vec<&'r ParVec<i64>>,
    bufs_b: Vec<&'r ParVec<bool>>,
    tags_f: Vec<Option<&'r [AtomicI64]>>,
    tags_i: Vec<Option<&'r [AtomicI64]>>,
    tags_b: Vec<Option<&'r [AtomicI64]>>,
}

/// Per-equation register file. The first `i`-registers are the equation's
/// loop counters; the rest (and all `f`/`b` registers) are tape
/// temporaries and preloaded constants. Reused across every iteration the
/// owning worker executes — the hot path never allocates. An equation that
/// strips keeps its lanes not here but in the worker's one lane file
/// ([`Frames`]).
#[derive(Clone, Default)]
pub(crate) struct Frame {
    pub(crate) f: Vec<f64>,
    pub(crate) i: Vec<i64>,
    b: Vec<bool>,
    /// Where each access of the strip path in progress stands at the start
    /// of the rectangle line in progress and, per address class, its anchor
    /// — where it stands at the nest's first cell (the row's, when the nest
    /// is walked row by row); both as long as the address table. They are
    /// empty exactly when the equation does not strip: one that does has
    /// an address, its store's. A nest's rectangles are cut on the fly, so
    /// these are all the per-equation scratch a walk needs.
    pub(crate) offs: Vec<usize>,
    pub(crate) anchors: Vec<Option<i64>>,
}

impl Frame {
    #[inline(always)]
    pub(crate) fn gf(&self, r: u16) -> f64 {
        self.f[r as usize]
    }

    #[inline(always)]
    pub(crate) fn gi(&self, r: u16) -> i64 {
        self.i[r as usize]
    }

    #[inline(always)]
    fn gb(&self, r: u16) -> bool {
        self.b[r as usize]
    }

    #[inline(always)]
    pub(crate) fn sf(&mut self, r: u16, v: f64) {
        self.f[r as usize] = v;
    }

    #[inline(always)]
    pub(crate) fn si(&mut self, r: u16, v: i64) {
        self.i[r as usize] = v;
    }

    #[inline(always)]
    fn sb(&mut self, r: u16, v: bool) {
        self.b[r as usize] = v;
    }
}

/// All equations' frames for one worker, and its lane file. Cloned per
/// `DOALL` chunk (so concurrent workers own disjoint counters) with
/// constants preserved.
pub(crate) struct Frames {
    frames: IndexVec<EqId, Frame>,
    /// [`strip::W`] lanes per `f`-register of the widest equation that
    /// strips. Only one strip runs at a time on a worker, so its equations
    /// share the file as scratch: a run broadcasts the constants and
    /// parameters it reads as lanes before its first strip, and every
    /// other lane a strip reads it has written first. Lane memory is the
    /// widest equation's, not the sum over equations.
    lanes: Vec<f64>,
    /// The counters of the enclosing loops that loop bounds name, by
    /// depth (empty unless some loop is narrowed).
    pub(crate) counters: Vec<i64>,
}

/// The lanes a stripped equation's frame needs: none when it does not strip.
fn lane_len(frame: &Frame) -> usize {
    if frame.offs.is_empty() {
        0
    } else {
        frame.f.len() * strip::W
    }
}

impl Frames {
    pub(crate) fn new(tapes: &Tapes) -> Frames {
        let frames: IndexVec<EqId, Frame> = tapes
            .eqs
            .iter()
            .map(|opt| match opt {
                None => Frame::default(),
                Some(ceq) => {
                    let offs = usize::from(ceq.strip.is_ok()) * ceq.sym_addrs.len();
                    let mut fr = Frame {
                        f: vec![0.0; ceq.n_f as usize],
                        i: vec![0; ceq.n_i as usize],
                        b: vec![false; ceq.n_b as usize],
                        offs: vec![0; offs],
                        anchors: vec![None; offs],
                    };
                    for &(r, v) in &ceq.consts_f {
                        fr.f[r as usize] = v;
                    }
                    for &(r, v) in &ceq.consts_i {
                        fr.i[r as usize] = v;
                    }
                    for &(r, v) in &ceq.consts_b {
                        fr.b[r as usize] = v;
                    }
                    fr
                }
            })
            .collect();
        let lanes = vec![0.0; frames.iter().map(lane_len).max().unwrap_or(0)];
        let counters = vec![0; tapes.counters];
        Frames {
            frames,
            lanes,
            counters,
        }
    }

    /// Bind this run's parameter values: fill every equation's parameter
    /// registers and evaluate its derived integer registers. Constants
    /// persist from [`Frames::new`], so a pooled `Frames` only needs this
    /// call to be ready for the next run.
    pub(crate) fn bind_params(&mut self, tapes: &Tapes, values: &[Value]) {
        for (eq, opt) in tapes.eqs.iter_enumerated() {
            let Some(ceq) = opt else { continue };
            let fr = &mut self.frames[eq];
            for &(r, p) in &ceq.preload_f {
                fr.f[r as usize] = values[p as usize].widen_real();
            }
            for &(r, p) in &ceq.preload_i {
                fr.i[r as usize] = values[p as usize].as_int();
            }
            for &(r, p) in &ceq.preload_b {
                fr.b[r as usize] = values[p as usize].as_bool();
            }
            for (r, pint) in &ceq.derived_i {
                fr.i[*r as usize] = pint.eval(values);
            }
        }
    }

    /// Bind loop counter `iv` of `eq` — counters are the leading
    /// `i`-registers, so this is a single indexed store.
    #[inline]
    pub(crate) fn set_iv(&mut self, eq: EqId, iv: IvId, value: i64) {
        self.frames[eq].i[iv.index()] = value;
    }

    /// Clone only the frames of `eqs` (the equations a `DOALL` chunk will
    /// execute); every other equation gets an empty frame, and the lane
    /// file is a fresh one as wide as the widest of `eqs` needs — lanes are
    /// scratch, so none are copied. Keeps the per-chunk cost proportional
    /// to the loop body, not the module. The enclosing counters come along.
    pub(crate) fn clone_for(&self, eqs: &[EqId]) -> Frames {
        let mut frames: IndexVec<EqId, Frame> =
            self.frames.iter().map(|_| Frame::default()).collect();
        for &eq in eqs {
            frames[eq] = self.frames[eq].clone();
        }
        let widest = eqs.iter().map(|&eq| lane_len(&frames[eq])).max();
        let lanes = vec![0.0; widest.unwrap_or(0)];
        let counters = self.counters.clone();
        Frames {
            frames,
            lanes,
            counters,
        }
    }
}

impl<'r, 'm> ExecProg<'r, 'm> {
    /// Resolve the tapes' buffer indices against one run's live store.
    pub(crate) fn new(tapes: &'r Tapes, spec: &'r Spec, store: &'r Store<'m>) -> ExecProg<'r, 'm> {
        fn buf_f<'r>(store: &'r Store<'_>, id: DataId) -> &'r ParVec<f64> {
            match store.array(id).buffer() {
                SharedBuffer::Real(p) => p,
                _ => panic!("buffer kind mismatch for f64 table"),
            }
        }
        fn buf_i<'r>(store: &'r Store<'_>, id: DataId) -> &'r ParVec<i64> {
            match store.array(id).buffer() {
                SharedBuffer::Int(p) => p,
                _ => panic!("buffer kind mismatch for i64 table"),
            }
        }
        fn buf_b<'r>(store: &'r Store<'_>, id: DataId) -> &'r ParVec<bool> {
            match store.array(id).buffer() {
                SharedBuffer::Bool(p) => p,
                _ => panic!("buffer kind mismatch for bool table"),
            }
        }
        let tags = |ids: &[DataId]| -> Vec<Option<&'r [AtomicI64]>> {
            if tapes.checked {
                ids.iter().map(|&id| store.array(id).tags()).collect()
            } else {
                Vec::new()
            }
        };
        ExecProg {
            store,
            tapes,
            spec,
            bufs_f: tapes.buf_f.iter().map(|&id| buf_f(store, id)).collect(),
            bufs_i: tapes.buf_i.iter().map(|&id| buf_i(store, id)).collect(),
            bufs_b: tapes.buf_b.iter().map(|&id| buf_b(store, id)).collect(),
            tags_f: tags(&tapes.buf_f),
            tags_i: tags(&tapes.buf_i),
            tags_b: tags(&tapes.buf_b),
        }
    }

    #[inline(always)]
    pub(crate) fn eval_addr(addr: &Addr, frame: &Frame) -> usize {
        // Debug builds re-derive each dimension's logical index and bounds
        // check it, matching `NdSpec::offset`'s strictness; release builds
        // rely on the schedule (plus the physical-buffer bounds check).
        #[cfg(debug_assertions)]
        for c in &addr.chk {
            let mut v = c.value.base;
            for &(r, cc) in &c.value.terms {
                v += cc * frame.gi(r);
            }
            assert!(
                v >= c.lo && v <= c.hi,
                "index {v} outside {}..{} (compiled subscript)",
                c.lo,
                c.hi
            );
        }
        let mut off = addr.base;
        for &(r, c) in &addr.lin {
            off += c * frame.gi(r);
        }
        for w in &addr.special {
            let mut v = w.value.base;
            for &(r, c) in &w.value.terms {
                v += c * frame.gi(r);
            }
            off += (v - w.lo).rem_euclid(w.window) * w.stride;
        }
        // A schedule bug that produced a negative offset wraps to a huge
        // usize here and trips the buffer bounds check — memory safe.
        off as usize
    }

    /// The *logical* flat index of an access (checked mode): re-derives
    /// each dimension from its affine form, bounds-asserting like
    /// `NdSpec::offset`.
    fn logical_of(addr: &Addr, frame: &Frame) -> i64 {
        let mut off = 0i64;
        for c in &addr.chk {
            let mut v = c.value.base;
            for &(r, cc) in &c.value.terms {
                v += cc * frame.gi(r);
            }
            assert!(
                v >= c.lo && v <= c.hi,
                "index {v} outside {}..{} (checked compiled subscript)",
                c.lo,
                c.hi
            );
            off += (v - c.lo) * c.lstride;
        }
        off
    }

    /// Checked-mode load: the slot must currently hold exactly the logical
    /// element being read: it is missing or evicted from its window
    /// otherwise.
    fn check_read(tags: Option<&[AtomicI64]>, addr: &Addr, frame: &Frame, off: usize) {
        // Tag-less arrays (analysis-verified, or parameter inputs) skip the
        // logical re-derivation entirely — that skip *is* the elision win.
        if let Some(tags) = tags {
            let logical = Self::logical_of(addr, frame);
            let tag = tags[off].load(Ordering::Acquire);
            assert!(
                tag == logical,
                "read of logical index {logical}: slot holds logical {tag} — \
                 element missing or evicted from its window"
            );
        }
    }

    /// Checked-mode store: tag the slot with the logical element, panic on
    /// a double write.
    fn check_write(tags: Option<&[AtomicI64]>, addr: &Addr, frame: &Frame, off: usize) {
        if let Some(tags) = tags {
            let logical = Self::logical_of(addr, frame);
            let prev = tags[off].swap(logical, Ordering::AcqRel);
            assert!(
                prev != logical,
                "double write of logical index {logical} (single assignment violated)"
            );
        }
    }

    /// Execute one equation's tape in `frames` and store the result.
    pub(crate) fn run_eq(&self, eq_id: EqId, frames: &mut Frames) {
        let ceq = self.tapes.eqs[eq_id]
            .as_ref()
            .unwrap_or_else(|| panic!("{eq_id:?} was not lowered"));
        let addrs = &self.spec.addrs[eq_id];
        let frame = &mut frames.frames[eq_id];
        self.exec_tape(ceq, addrs, frame);
    }

    /// Run one equation over a whole counter range (the single-equation
    /// `DOALL` body on a sequential executor): the tape, address table and
    /// frame are fetched once, not per element.
    pub(crate) fn run_eq_range(
        &self,
        eq_id: EqId,
        bindings: &[(EqId, IvId)],
        lo: i64,
        hi: i64,
        frames: &mut Frames,
    ) {
        let ceq = self.tapes.eqs[eq_id]
            .as_ref()
            .unwrap_or_else(|| panic!("{eq_id:?} was not lowered"));
        let addrs = &self.spec.addrs[eq_id];
        let frame = &mut frames.frames[eq_id];
        debug_assert!(bindings.iter().all(|&(eq, _)| eq == eq_id));
        if let Ok(plan) = &ceq.strip {
            return plan.run(self, eq_id, frame, &mut frames.lanes, None, (lo, hi));
        }
        for i in lo..=hi {
            for &(_, iv) in bindings {
                frame.i[iv.index()] = i;
            }
            self.exec_tape(ceq, addrs, frame);
        }
    }

    /// Whether `eq` strips as the body of a nest of two `DOALL`s, walked
    /// as one by [`ExecProg::run_nest`].
    pub(crate) fn strips_nest(&self, eq: EqId) -> bool {
        let ceq = self.tapes.eqs[eq].as_ref();
        ceq.is_some_and(|ceq| ceq.strip.as_ref().is_ok_and(StripPlan::is_nest))
    }

    /// Run the nest of two `DOALL`s whose body `eq` is over `rows` of the
    /// outer counter and `cols` of the inner one.
    pub(crate) fn run_nest(
        &self,
        eq: EqId,
        rows: (i64, i64),
        cols: (i64, i64),
        frames: &mut Frames,
    ) {
        let ceq = self.tapes.eqs[eq]
            .as_ref()
            .expect("scheduled equations are lowered");
        let plan = ceq
            .strip
            .as_ref()
            .expect("only a stripped nest runs as one");
        let Frames { frames, lanes, .. } = frames;
        plan.run(self, eq, &mut frames[eq], lanes, Some(rows), cols);
    }

    /// A strip's store: `vals[l]` goes to `off + l·stride` of f-buffer
    /// `buf` (here, not in `strip.rs`, which stays free of `unsafe`).
    pub(crate) fn store_strip(&self, buf: u16, off: usize, stride: i64, vals: &[Cell<f64>]) {
        // SAFETY: the lanes are distinct iterations of one `DOALL` (or nest
        // of them), which write disjoint offsets that nothing reads until
        // the loop ends — the contract of the scalar store in `exec_tape`.
        unsafe { self.bufs_f[buf as usize].set_range(off, stride, vals) }
    }

    /// A strip's unit-stride load, read in place: the `n` cells of
    /// f-buffer `buf` from `off` on.
    pub(crate) fn view_strip(&self, buf: u16, off: usize, n: usize) -> &'r [Cell<f64>] {
        // SAFETY: the strip walker only reads through the view, and what a
        // `DOALL` iteration reads no iteration of the loop writes — the
        // contract of the scalar load in `exec_tape`.
        unsafe { self.bufs_f[buf as usize].cells(off, n) }
    }

    /// Where a strip's last pass writes the store's values itself when its
    /// stride is 1: the `n` cells of f-buffer `buf` from `off` on.
    pub(crate) fn sink_strip(&self, buf: u16, off: usize, n: usize) -> &'r [Cell<f64>] {
        // SAFETY: the cells are the stores of `n` distinct iterations of
        // one `DOALL` (or nest of them): each is written by its iteration
        // alone and read by none of the loop — the contract of
        // `store_strip`. That a lane's store lands before a later lane's
        // loads is therefore invisible to them.
        unsafe { self.bufs_f[buf as usize].cells(off, n) }
    }

    fn exec_tape(&self, ceq: &CompiledEq, addrs: &[Addr], frame: &mut Frame) {
        let checked = self.tapes.checked;
        let insns = &ceq.insns;
        let mut pc = 0usize;
        while pc < insns.len() {
            match insns[pc] {
                Insn::CopyF { src, dst } => frame.sf(dst, fop::copy(frame.gf(src))),
                Insn::CopyI { src, dst } => frame.si(dst, frame.gi(src)),
                Insn::CopyB { src, dst } => frame.sb(dst, frame.gb(src)),
                Insn::ReadScalar { slot, dst } => {
                    let v = self
                        .store
                        .read_slot(slot as usize)
                        .unwrap_or_else(|| panic!("scalar slot {slot} read before definition"));
                    match (dst, v) {
                        (Reg::F(r), Value::Real(x)) => frame.sf(r, x),
                        (Reg::I(r), Value::Int(x)) => frame.si(r, x),
                        (Reg::B(r), Value::Bool(x)) => frame.sb(r, x),
                        (d, v) => panic!("scalar slot holds {v:?}, tape expects {d:?}"),
                    }
                }
                Insn::LoadF { buf, addr, dst } => {
                    let a = &addrs[addr as usize];
                    let off = Self::eval_addr(a, frame);
                    if checked {
                        Self::check_read(self.tags_f[buf as usize], a, frame, off);
                    }
                    frame.sf(dst, self.bufs_f[buf as usize].get(off));
                }
                Insn::LoadI { buf, addr, dst } => {
                    let a = &addrs[addr as usize];
                    let off = Self::eval_addr(a, frame);
                    if checked {
                        Self::check_read(self.tags_i[buf as usize], a, frame, off);
                    }
                    frame.si(dst, self.bufs_i[buf as usize].get(off));
                }
                Insn::LoadB { buf, addr, dst } => {
                    let a = &addrs[addr as usize];
                    let off = Self::eval_addr(a, frame);
                    if checked {
                        Self::check_read(self.tags_b[buf as usize], a, frame, off);
                    }
                    frame.sb(dst, self.bufs_b[buf as usize].get(off));
                }
                Insn::AddF { a, b, dst } => frame.sf(dst, fop::add(frame.gf(a), frame.gf(b))),
                Insn::SubF { a, b, dst } => frame.sf(dst, fop::sub(frame.gf(a), frame.gf(b))),
                Insn::MulF { a, b, dst } => frame.sf(dst, fop::mul(frame.gf(a), frame.gf(b))),
                Insn::DivF { a, b, dst } => frame.sf(dst, fop::div(frame.gf(a), frame.gf(b))),
                Insn::MinF { a, b, dst } => frame.sf(dst, fop::min(frame.gf(a), frame.gf(b))),
                Insn::MaxF { a, b, dst } => frame.sf(dst, fop::max(frame.gf(a), frame.gf(b))),
                Insn::AddI { a, b, dst } => frame.si(dst, frame.gi(a) + frame.gi(b)),
                Insn::SubI { a, b, dst } => frame.si(dst, frame.gi(a) - frame.gi(b)),
                Insn::MulI { a, b, dst } => frame.si(dst, frame.gi(a) * frame.gi(b)),
                Insn::DivI { a, b, dst } => {
                    let d = frame.gi(b);
                    assert!(d != 0, "div by zero");
                    frame.si(dst, frame.gi(a).div_euclid(d));
                }
                Insn::ModI { a, b, dst } => {
                    let d = frame.gi(b);
                    assert!(d != 0, "mod by zero");
                    frame.si(dst, frame.gi(a).rem_euclid(d));
                }
                Insn::MinI { a, b, dst } => frame.si(dst, frame.gi(a).min(frame.gi(b))),
                Insn::MaxI { a, b, dst } => frame.si(dst, frame.gi(a).max(frame.gi(b))),
                Insn::NegF { a, dst } => frame.sf(dst, fop::neg(frame.gf(a))),
                Insn::NegI { a, dst } => frame.si(dst, -frame.gi(a)),
                Insn::AbsF { a, dst } => frame.sf(dst, fop::abs(frame.gf(a))),
                Insn::AbsI { a, dst } => frame.si(dst, frame.gi(a).abs()),
                Insn::NotB { a, dst } => frame.sb(dst, !frame.gb(a)),
                Insn::SqrtF { a, dst } => frame.sf(dst, fop::sqrt(frame.gf(a))),
                Insn::ExpF { a, dst } => frame.sf(dst, fop::exp(frame.gf(a))),
                Insn::LnF { a, dst } => frame.sf(dst, fop::ln(frame.gf(a))),
                Insn::SinF { a, dst } => frame.sf(dst, fop::sin(frame.gf(a))),
                Insn::CosF { a, dst } => frame.sf(dst, fop::cos(frame.gf(a))),
                Insn::CastIF { a, dst } => frame.sf(dst, fop::widen(frame.gi(a))),
                Insn::TruncFI { a, dst } => frame.si(dst, frame.gf(a).trunc() as i64),
                Insn::RoundFI { a, dst } => frame.si(dst, frame.gf(a).round() as i64),
                Insn::CmpF { op, a, b, dst } => frame.sb(dst, op.eval(frame.gf(a), frame.gf(b))),
                Insn::CmpI { op, a, b, dst } => frame.sb(dst, op.eval(frame.gi(a), frame.gi(b))),
                Insn::CmpB { op, a, b, dst } => frame.sb(dst, op.eval(frame.gb(a), frame.gb(b))),
                Insn::Jump { target } => {
                    pc = target as usize;
                    continue;
                }
                Insn::JumpIfNot { cond, target } => {
                    if !frame.gb(cond) {
                        pc = target as usize;
                        continue;
                    }
                }
                Insn::JumpIf { cond, target } => {
                    if frame.gb(cond) {
                        pc = target as usize;
                        continue;
                    }
                }
                Insn::JumpCmpFNot { op, a, b, target } => {
                    if !op.eval(frame.gf(a), frame.gf(b)) {
                        pc = target as usize;
                        continue;
                    }
                }
                Insn::JumpCmpINot { op, a, b, target } => {
                    if !op.eval(frame.gi(a), frame.gi(b)) {
                        pc = target as usize;
                        continue;
                    }
                }
                Insn::JumpCmpF { op, a, b, target } => {
                    if op.eval(frame.gf(a), frame.gf(b)) {
                        pc = target as usize;
                        continue;
                    }
                }
                Insn::JumpCmpI { op, a, b, target } => {
                    if op.eval(frame.gi(a), frame.gi(b)) {
                        pc = target as usize;
                        continue;
                    }
                }
            }
            pc += 1;
        }
        match ceq.out {
            OutSpec::Scalar { slot } => {
                let v = match ceq.src {
                    Reg::F(r) => Value::Real(frame.gf(r)),
                    Reg::I(r) => Value::Int(frame.gi(r)),
                    Reg::B(r) => Value::Bool(frame.gb(r)),
                };
                self.store.write_slot(slot as usize, v);
            }
            OutSpec::ArrayF { buf, addr } => {
                let a = &addrs[addr as usize];
                let off = Self::eval_addr(a, frame);
                if checked {
                    Self::check_write(self.tags_f[buf as usize], a, frame, off);
                }
                let Reg::F(r) = ceq.src else { unreachable!() };
                // SAFETY: the single-assignment schedule guarantees
                // concurrent DOALL iterations write disjoint offsets (the
                // contract of `ParVec::set`).
                unsafe { self.bufs_f[buf as usize].set(off, frame.gf(r)) };
            }
            OutSpec::ArrayI { buf, addr } => {
                let a = &addrs[addr as usize];
                let off = Self::eval_addr(a, frame);
                if checked {
                    Self::check_write(self.tags_i[buf as usize], a, frame, off);
                }
                let Reg::I(r) = ceq.src else { unreachable!() };
                // SAFETY: as above.
                unsafe { self.bufs_i[buf as usize].set(off, frame.gi(r)) };
            }
            OutSpec::ArrayB { buf, addr } => {
                let a = &addrs[addr as usize];
                let off = Self::eval_addr(a, frame);
                if checked {
                    Self::check_write(self.tags_b[buf as usize], a, frame, off);
                }
                let Reg::B(r) = ceq.src else { unreachable!() };
                // SAFETY: as above.
                unsafe { self.bufs_b[buf as usize].set(off, frame.gb(r)) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Inputs, StoreArena, StorePlan};
    use crate::tape::compile_tapes;
    use crate::tape::tests::{build, compile_all};

    /// A worker's lanes are one file, the widest stripped equation's: a
    /// chain of 16 pointwise groups (one wider than the rest) holds
    /// `max n_f × W` lanes per `Frames`, not the sum over its equations,
    /// and a chunk's clone holds its own equation's width.
    #[test]
    fn lane_memory_is_the_widest_equation_not_the_sum() {
        let mut src = String::from("Chain: module (xs: array[I] of real; n: int): [y: real];\n");
        src.push_str("type I = 1 .. n; K = 2 .. n;\nvar\n");
        for g in 0..16 {
            src.push_str(&format!("a{g}: array [1 .. n] of real;\n"));
        }
        src.push_str("r: array [1 .. n] of real;\ndefine\na0[I] = xs[I] * 2.0 + 1.0;\n");
        for g in 1..16 {
            let wide = if g == 9 {
                " * a0[I] - sqrt(abs(xs[I])) / 3.0"
            } else {
                ""
            };
            src.push_str(&format!("a{g}[I] = a{}[I] * 0.5 + 1.0{wide};\n", g - 1));
        }
        src.push_str("r[1] = a15[1];\nr[K] = r[K-1] + a15[K];\ny = r[n];\nend Chain;");
        let (m, sched) = build(&src);
        let plan = StorePlan::new(&m, &sched.memory);
        let mut tapes = compile_tapes(&m, &plan, &sched.flowchart, false);
        tapes.plan_strips(&m, &plan, &sched.flowchart);
        let stripped: Vec<(EqId, usize)> = (tapes.eqs.iter_enumerated())
            .filter_map(|(eq, c)| c.as_ref().filter(|c| c.strip.is_ok()).map(|c| (eq, c)))
            .map(|(eq, c)| (eq, c.n_f as usize * strip::W))
            .collect();
        assert_eq!(stripped.len(), 16, "every group strips");
        let widest = stripped.iter().map(|&(_, n)| n).max().unwrap();
        let sum: usize = stripped.iter().map(|&(_, n)| n).sum();
        assert!(sum > 16 * strip::W * 3 && widest > stripped[0].1);
        let frames = Frames::new(&tapes);
        assert_eq!(frames.lanes.len(), widest);
        let eq9 = m.equation_by_label("eq.10").unwrap();
        let one = frames.clone_for(&[stripped[0].0]);
        assert_eq!(one.lanes.len(), stripped[0].1);
        assert_eq!(frames.clone_for(&[eq9]).lanes.len(), widest);
        assert!(frames.clone_for(&[]).lanes.is_empty());
    }

    #[test]
    fn tape_executes_a_scalar_chain() {
        let src = "T: module (x: int): [y: int];
             var a, b: int;
             define
                a = x * 2;
                b = a + 1;
                y = b * b;
             end T;";
        let inputs = Inputs::new().set_int("x", 3);
        let (m, sched) = build(src);
        let (_plan, tapes, store, spec) = compile_all(&m, &sched, &inputs);
        let mut frames = Frames::new(&tapes);
        frames.bind_params(&tapes, &store.param_values(tapes.params()));
        {
            let view = ExecProg::new(&tapes, &spec, &store);
            for eq in sched.flowchart.equations() {
                view.run_eq(eq, &mut frames);
            }
        }
        let out = store.into_outputs_into(&mut StoreArena::default());
        assert_eq!(out.scalar("y"), Value::Int(49));
    }
}
