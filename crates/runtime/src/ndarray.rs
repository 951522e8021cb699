//! Strided N-d array storage with per-dimension windows and interior
//! mutability for disjoint parallel writes.
//!
//! # Why the shared buffer is an `UnsafeCell`
//!
//! A `DOALL`'s iterations write disjoint cells of one shared array and
//! read no cell another iteration of the loop writes: the paper's
//! condition for a `DOALL`, Nuriyev's "independent steps". `ParVec`
//! rests on that condition and on nothing else. Its `Sync` impl (SAFETY
//! argument below) and its `unsafe fn`s are the whole claim, and every
//! `unsafe` call into it from outside this file is in `tape/exec.rs`.
//!
//! The safe form is a slice of relaxed atomics (`AtomicU64` holding the
//! `f64` bits, `AtomicI64`, `AtomicBool`). The strip walker's lanes must
//! then be atomics too, because a pass reads lanes and array cells
//! through one slice type. Relaxed loads and stores are plain moves on
//! x86-64, but the compiler does not combine them into packed-double ops,
//! so every lane loop of a strip runs one lane at a time. Against this
//! file, with every bounds check kept on both sides,
//! `stencil_seq.quiet_ops_per_s` reads (median [q1 q3] of 20 alternating
//! pairs per seed of `benchmark/run.sh --workload stencil_seq --trace 0`,
//! each side built in its own checkout, 2-vCPU x86-64 Xeon, rustc 1.95):
//!
//! | seed | `UnsafeCell` | relaxed atomics | per-pair ratio | pairs atomics won |
//! |---|---|---|---|---|
//! | 7 | 960.7 [720.8 1007] | 654.6 [586.1 687.8] | 0.673 [0.660 0.742] | 1 of 20 |
//! | 1987 | 599.2 [583.0 605.4] | 471.1 [454.1 477.5] | 0.777 [0.772 0.792] | 0 of 20 |
//!
//! The box ran in a ≈ 600 and a ≈ 1 000 ops/s phase over these runs,
//! which widens the medians' quartiles; the per-pair ratio (atomics over
//! `UnsafeCell`, both runs of a pair in one phase) does not see it. Both
//! atomic medians sit below the `UnsafeCell` side's lower quartile, so
//! the cells stay.

#![deny(unsafe_op_in_unsafe_fn)]

use crate::value::{OwnedArray, OwnedBuffer};
use ps_lang::ScalarTy;
use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::AtomicI64;

/// One dimension: inclusive logical bounds plus optional window.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DimSpec {
    pub(crate) lo: i64,
    pub(crate) hi: i64,
    /// `Some(w)`: only `w` planes are allocated; logical index `i` maps to
    /// physical `(i - lo) mod w` — the paper's virtual dimension.
    pub(crate) window: Option<i64>,
}

impl DimSpec {
    pub(crate) fn logical_width(&self) -> i64 {
        (self.hi - self.lo + 1).max(0)
    }

    pub(crate) fn physical_width(&self) -> i64 {
        match self.window {
            Some(w) => w.min(self.logical_width()),
            None => self.logical_width(),
        }
    }
}

/// Layout of an array instance.
#[derive(Clone, Debug)]
pub(crate) struct NdSpec {
    pub(crate) dims: Vec<DimSpec>,
}

impl NdSpec {
    pub(crate) fn physical_len(&self) -> usize {
        self.dims
            .iter()
            .map(|d| d.physical_width() as usize)
            .product()
    }

    pub(crate) fn is_windowed(&self) -> bool {
        self.dims
            .iter()
            .any(|d| matches!(d.window, Some(w) if w < d.logical_width()))
    }
}

/// Element-wise `UnsafeCell` buffer for disjoint parallel writes.
pub(crate) struct ParVec<T> {
    data: Box<[UnsafeCell<T>]>,
}

// SAFETY: all mutation goes through `set`, `set_range` and `cells`, whose
// callers (the tape walkers) guarantee distinct indices across threads — the single-assignment
// property checked by the front end and validated by the scheduler. Reads
// of a slot racing with its own write cannot occur for the same reason (a
// value is never read before the schedule has written it). What a safe
// atomic buffer would cost instead is measured in the module docs.
unsafe impl<T: Send> Sync for ParVec<T> {}

impl<T: Copy> ParVec<T> {
    fn new(v: Vec<T>) -> Self {
        ParVec {
            data: v.into_iter().map(UnsafeCell::new).collect(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.data.len()
    }

    /// Overwrite every element (requires `&mut`, so no concurrent access).
    /// Used when a pooled buffer is reissued to a new run: reused storage
    /// must start from the same all-zero state a fresh allocation has, or
    /// runs would not be bit-identical to fresh-store runs.
    fn reset(&mut self, v: T) {
        for c in self.data.iter_mut() {
            *c.get_mut() = v;
        }
    }

    /// Copy `src` in wholesale (requires `&mut`; lengths must match).
    fn fill_from(&mut self, src: &[T]) {
        assert_eq!(self.data.len(), src.len());
        for (c, &v) in self.data.iter_mut().zip(src) {
            *c.get_mut() = v;
        }
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> T {
        // SAFETY: `&self` plus the schedule's single-assignment discipline
        // (see the `Sync` impl above) rule out a concurrent `set` to `i`;
        // the cell pointer is valid for the indexed element.
        unsafe { *self.data[i].get() }
    }

    /// # Safety
    /// No concurrent write to the same `i`, and no concurrent read of `i`.
    #[inline]
    pub(crate) unsafe fn set(&self, i: usize, v: T) {
        unsafe {
            *self.data[i].get() = v;
        }
    }

    /// Index of element `l` of a run that starts at `start` and advances by
    /// `stride`. Wraps rather than overflows: a bad index then fails the
    /// bounds check of the access that uses it.
    #[inline(always)]
    pub(crate) fn strided(start: usize, stride: i64, l: usize) -> usize {
        (start as i64).wrapping_add((l as i64).wrapping_mul(stride)) as usize
    }

    /// Borrow elements `start .. start + len` in place, behind one slice
    /// range check (the strip walker's unit-stride access).
    ///
    /// # Safety
    /// As [`ParVec::get`] for every element read through the result and as
    /// [`ParVec::set`] for every element written through it, for as long
    /// as it lives.
    #[inline]
    pub(crate) unsafe fn cells(&self, start: usize, len: usize) -> &[Cell<T>] {
        let range: *const [UnsafeCell<T>] = &self.data[start..][..len];
        // SAFETY: `Cell<T>` is a transparent wrapper of `UnsafeCell<T>`,
        // the range is in bounds and borrowed from `self`; that no other
        // thread touches an element while this one does is the caller's
        // obligation.
        unsafe { &*(range as *const [Cell<T>]) }
    }

    /// Copy elements `start`, `start + stride`, … into `out` (the strip
    /// walker's load when the stride is not 1).
    #[inline]
    pub(crate) fn get_range(&self, start: usize, stride: i64, out: &[Cell<T>]) {
        for (l, o) in out.iter().enumerate() {
            o.set(self.get(Self::strided(start, stride, l)));
        }
    }

    /// Overwrite elements `start`, `start + stride`, … with `src` (the
    /// strip walker's store).
    ///
    /// # Safety
    /// As [`ParVec::set`], for every index written.
    #[inline]
    pub(crate) unsafe fn set_range(&self, start: usize, stride: i64, src: &[Cell<T>]) {
        if stride == 1 {
            // SAFETY: exclusivity of every index is the caller's obligation.
            let cells = unsafe { self.cells(start, src.len()) };
            for (c, v) in cells.iter().zip(src) {
                c.set(v.get());
            }
        } else {
            for (l, v) in src.iter().enumerate() {
                // SAFETY: the caller's obligation, index by index.
                unsafe { self.set(Self::strided(start, stride, l), v.get()) };
            }
        }
    }

    fn into_inner(self) -> Vec<T> {
        self.data
            .into_vec()
            .into_iter()
            .map(|c| c.into_inner())
            .collect()
    }
}

pub(crate) enum SharedBuffer {
    Real(ParVec<f64>),
    Int(ParVec<i64>),
    Bool(ParVec<bool>),
}

/// Keep at most this many spare buffers per element kind; beyond it,
/// recycled buffers are simply dropped. Bounds the arena's footprint when
/// a long-lived `Program` sees many distinct array shapes.
const POOL_CAP: usize = 32;

/// Recycled array storage, keyed by exact physical length.
///
/// A compile-once / run-many workload allocates the same buffer shapes on
/// every run; pooling them turns per-run array setup into a `memset` of
/// existing storage. Buffers whose length matches no request simply age
/// out ([`POOL_CAP`]).
#[derive(Default)]
pub(crate) struct BufferPool {
    f: Vec<ParVec<f64>>,
    i: Vec<ParVec<i64>>,
    b: Vec<ParVec<bool>>,
    tags: Vec<Vec<AtomicI64>>,
    /// Recycled (emptied) dimension vectors, so per-run `NdSpec`
    /// construction reuses capacity instead of allocating per array.
    dims: Vec<Vec<DimSpec>>,
}

fn take_buf<T: Copy>(pool: &mut Vec<ParVec<T>>, len: usize, zero: T) -> ParVec<T> {
    match pool.iter().position(|p| p.len() == len) {
        Some(ix) => {
            let mut v = pool.swap_remove(ix);
            v.reset(zero);
            v
        }
        None => ParVec::new(vec![zero; len]),
    }
}

/// Like [`take_buf`] but *without* the zero-reset — for callers that fully
/// overwrite the buffer anyway (input copies), avoiding a second pass.
fn take_buf_dirty<T: Copy>(pool: &mut Vec<ParVec<T>>, len: usize, zero: T) -> ParVec<T> {
    match pool.iter().position(|p| p.len() == len) {
        Some(ix) => pool.swap_remove(ix),
        None => ParVec::new(vec![zero; len]),
    }
}

/// Raise `list`'s capacity to `n` if it is below it.
pub(crate) fn make_room<T>(list: &mut Vec<T>, n: usize) {
    if list.capacity() < n {
        list.reserve_exact(n - list.len());
    }
}

fn put_buf<T>(pool: &mut Vec<ParVec<T>>, buf: ParVec<T>) {
    if pool.len() < POOL_CAP {
        pool.push(buf);
    }
}

impl BufferPool {
    /// Give every recycling list room for a run that holds `n` arrays, so
    /// that recycling them does not grow a list. A no-op once the lists
    /// have that capacity, i.e. on every run but an arena's first.
    pub(crate) fn make_room(&mut self, n: usize) {
        let n = n.min(POOL_CAP);
        make_room(&mut self.f, n);
        make_room(&mut self.i, n);
        make_room(&mut self.b, n);
        make_room(&mut self.tags, n);
        make_room(&mut self.dims, n);
    }

    fn take(&mut self, elem: ScalarTy, len: usize) -> SharedBuffer {
        match elem {
            ScalarTy::Real => SharedBuffer::Real(take_buf(&mut self.f, len, 0.0)),
            ScalarTy::Int | ScalarTy::Char => SharedBuffer::Int(take_buf(&mut self.i, len, 0)),
            ScalarTy::Bool => SharedBuffer::Bool(take_buf(&mut self.b, len, false)),
        }
    }

    fn take_tags(&mut self, len: usize) -> Vec<AtomicI64> {
        match self.tags.iter().position(|t| t.len() == len) {
            Some(ix) => {
                let mut t = self.tags.swap_remove(ix);
                for tag in t.iter_mut() {
                    *tag.get_mut() = -1;
                }
                t
            }
            None => (0..len).map(|_| AtomicI64::new(-1)).collect(),
        }
    }

    fn put(&mut self, buf: SharedBuffer, tags: Option<Vec<AtomicI64>>) {
        match buf {
            SharedBuffer::Real(v) => put_buf(&mut self.f, v),
            SharedBuffer::Int(v) => put_buf(&mut self.i, v),
            SharedBuffer::Bool(v) => put_buf(&mut self.b, v),
        }
        if let Some(t) = tags {
            if self.tags.len() < POOL_CAP {
                self.tags.push(t);
            }
        }
    }

    /// An empty dimension vector with recycled capacity.
    pub(crate) fn take_dims(&mut self) -> Vec<DimSpec> {
        self.dims.pop().unwrap_or_default()
    }
}

/// A live array instance: layout + shared buffer + optional write checker.
pub(crate) struct ArrayInstance {
    pub(crate) spec: NdSpec,
    buf: SharedBuffer,
    /// Write-check tags: for every *physical* slot, the logical flat index
    /// currently stored there (−1 = empty). Catches double writes and
    /// reads of evicted window planes.
    tags: Option<Vec<AtomicI64>>,
}

impl ArrayInstance {
    /// Allocate an instance laid out as `spec`, drawing storage from `pool`
    /// when a buffer of the right length is available (reset to zero
    /// either way).
    pub(crate) fn new_pooled(
        spec: NdSpec,
        elem: ScalarTy,
        check_writes: bool,
        pool: &mut BufferPool,
    ) -> ArrayInstance {
        let len = spec.physical_len();
        let buf = pool.take(elem, len);
        let tags = check_writes.then(|| pool.take_tags(len));
        ArrayInstance { spec, buf, tags }
    }

    /// Build from caller-provided input data (always physical), copying it
    /// into pooled storage instead of allocating a fresh clone per run.
    pub(crate) fn from_owned_pooled(owned: &OwnedArray, pool: &mut BufferPool) -> ArrayInstance {
        let mut dims = pool.take_dims();
        dims.extend(owned.dims.iter().map(|&(lo, hi)| DimSpec {
            lo,
            hi,
            window: None,
        }));
        let spec = NdSpec { dims };
        let buf = match &owned.data {
            OwnedBuffer::Real(v) => {
                let mut p = take_buf_dirty(&mut pool.f, v.len(), 0.0);
                p.fill_from(v);
                SharedBuffer::Real(p)
            }
            OwnedBuffer::Int(v) => {
                let mut p = take_buf_dirty(&mut pool.i, v.len(), 0);
                p.fill_from(v);
                SharedBuffer::Int(p)
            }
            OwnedBuffer::Bool(v) => {
                let mut p = take_buf_dirty(&mut pool.b, v.len(), false);
                p.fill_from(v);
                SharedBuffer::Bool(p)
            }
        };
        // Inputs are fully defined: tag them as such when checking.
        ArrayInstance {
            spec,
            buf,
            tags: None,
        }
    }

    /// Return this instance's storage (buffer, tags, dimension vector) to
    /// `pool` for a later run.
    pub(crate) fn recycle(self, pool: &mut BufferPool) {
        pool.put(self.buf, self.tags);
        let mut dims = self.spec.dims;
        if pool.dims.len() < POOL_CAP {
            dims.clear();
            pool.dims.push(dims);
        }
    }

    /// The write-checker tag table, when this instance checks writes: per
    /// physical slot, the logical index it holds (−1 for none). The
    /// compiled engine's checked mode reads and swaps it at every load and
    /// store.
    pub(crate) fn tags(&self) -> Option<&[AtomicI64]> {
        self.tags.as_deref()
    }

    /// Direct typed access to the shared buffer. The compiled engine
    /// resolves each array reference to its typed `ParVec` once at lowering
    /// time; the per-element disjointness obligations of [`ParVec::set`]
    /// carry over unchanged.
    pub(crate) fn buffer(&self) -> &SharedBuffer {
        &self.buf
    }

    /// Extract the full logical content (only for non-windowed arrays).
    pub(crate) fn into_owned_array(self) -> OwnedArray {
        assert!(
            !self.spec.is_windowed(),
            "cannot export a windowed array in full"
        );
        let dims: Vec<(i64, i64)> = self.spec.dims.iter().map(|d| (d.lo, d.hi)).collect();
        let data = match self.buf {
            SharedBuffer::Real(v) => OwnedBuffer::Real(v.into_inner()),
            SharedBuffer::Int(v) => OwnedBuffer::Int(v.into_inner()),
            SharedBuffer::Bool(v) => OwnedBuffer::Bool(v.into_inner()),
        };
        OwnedArray { dims, data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{run_module, RuntimeOptions};
    use crate::store::Inputs;
    use crate::tape::{fold_addr, ExecProg, Frame};
    use crate::value::Value;
    use ps_analyze::ADim;
    use ps_depgraph::build_depgraph;
    use ps_executor::Sequential;
    use ps_lang::{frontend, HirModule};
    use ps_scheduler::{schedule_module, MemoryPlan, ScheduleOptions, ScheduleResult};
    use std::sync::atomic::Ordering;

    fn spec2(lo0: i64, hi0: i64, w0: Option<i64>, lo1: i64, hi1: i64) -> NdSpec {
        NdSpec {
            dims: vec![
                DimSpec {
                    lo: lo0,
                    hi: hi0,
                    window: w0,
                },
                DimSpec {
                    lo: lo1,
                    hi: hi1,
                    window: None,
                },
            ],
        }
    }

    /// The physical slot the tapes address for a constant logical index.
    fn offset(spec: &NdSpec, index: &[i64]) -> usize {
        let constant = |&base: &i64| ADim {
            base,
            terms: Default::default(),
        };
        let dims: Vec<ADim> = index.iter().map(constant).collect();
        ExecProg::eval_addr(&fold_addr(&dims, spec, false), &Frame::default())
    }

    /// The value in physical slot `off`.
    fn get(a: &ArrayInstance, off: usize) -> Value {
        match a.buffer() {
            SharedBuffer::Real(v) => Value::Real(v.get(off)),
            SharedBuffer::Int(v) => Value::Int(v.get(off)),
            SharedBuffer::Bool(v) => Value::Bool(v.get(off)),
        }
    }

    /// Run `src` with checked writes on `inputs` after `edit` changed its
    /// schedule, and return its output `y`.
    fn run_checked(
        src: &str,
        inputs: &Inputs,
        edit: impl FnOnce(&HirModule, &mut ScheduleResult),
    ) -> Value {
        let m = frontend(src).unwrap();
        let dg = build_depgraph(&m);
        let mut sched = schedule_module(&m, &dg, ScheduleOptions::default()).unwrap();
        edit(&m, &mut sched);
        let options = RuntimeOptions {
            check_writes: true,
            ..Default::default()
        };
        let out = run_module(
            &m,
            &sched.flowchart,
            &sched.memory,
            inputs,
            &Sequential,
            options,
        );
        out.unwrap().scalar("y")
    }

    /// Fibonacci: `a[K]` reads the two planes before it.
    const FIB: &str = "T: module (n: int): [y: int];
         type K = 3 .. n;
         var a: array [1 .. n] of int;
         define
            a[1] = 1;
            a[2] = 1;
            a[K] = a[K-1] + a[K-2];
            y = a[n];
         end T;";

    #[test]
    fn physical_allocation_respects_window() {
        let full = spec2(1, 10, None, 0, 4);
        assert_eq!(full.physical_len(), 50);
        let win = spec2(1, 10, Some(2), 0, 4);
        assert_eq!(win.physical_len(), 10);
        assert_eq!(win.dims[0].logical_width(), 10);
        assert!(win.is_windowed());
        assert!(!full.is_windowed());
    }

    #[test]
    fn window_mapping_wraps() {
        let win = spec2(1, 10, Some(2), 0, 4);
        // Plane 1 and plane 3 share physical slots; 1 and 2 do not.
        assert_eq!(offset(&win, &[1, 0]), offset(&win, &[3, 0]));
        assert_ne!(offset(&win, &[1, 0]), offset(&win, &[2, 0]));
    }

    #[test]
    fn read_back_written_values() {
        // A checked store, then a checked load of the element it wrote.
        let src = "T: module (): [y: real];
             type I = 0 .. 3;
             var a: array [I] of real;
             define
                a[I] = real(I) * 6.5;
                y = a[2];
             end T;";
        assert_eq!(
            run_checked(src, &Inputs::new(), |_, _| {}),
            Value::Real(13.0)
        );
    }

    #[test]
    fn windowed_rotation_works() {
        // A hundred planes of `a` rotate through the two the schedule
        // allocates, each read checked against the plane its slot holds.
        let src = "T: module (n: int): [y: real];
             type K = 2 .. n;
             var a: array [1 .. n] of real;
             define
                a[1] = 1.0;
                a[K] = a[K-1] + 1.0;
                y = a[n];
             end T;";
        let y = run_checked(src, &Inputs::new().set_int("n", 100), |m, s| {
            let a = m.data_by_name("a").unwrap();
            assert_eq!(s.memory.window(a, 0), Some(2));
        });
        assert_eq!(y, Value::Real(100.0));
    }

    /// The message `run` panics with; fails the test if it returns.
    fn panic_text(run: impl FnOnce() -> Value) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
            .expect_err("the checker must stop the run");
        match payload.downcast::<String>() {
            Ok(text) => *text,
            Err(payload) => payload.downcast::<&str>().unwrap().to_string(),
        }
    }

    #[test]
    fn checker_catches_double_write() {
        // `a[1] = 1` scheduled twice.
        let text = panic_text(|| {
            run_checked(FIB, &Inputs::new().set_int("n", 6), |_, s| {
                let first = s.flowchart.items[0].clone();
                s.flowchart.items.insert(0, first);
            })
        });
        assert!(text.contains("double write of logical index 0"), "{text}");
    }

    #[test]
    fn checker_catches_window_eviction() {
        // One plane of `a` where `a[K]` reads two back: `a[2]` evicts
        // `a[1]` before `a[3]` reads it.
        let text = panic_text(|| {
            run_checked(FIB, &Inputs::new().set_int("n", 6), |m, s| {
                let mut memory = MemoryPlan::new();
                memory.set_window(m.data_by_name("a").unwrap(), 0, 1);
                s.memory = memory;
            })
        });
        assert!(text.contains("evicted from its window"), "{text}");
    }

    #[test]
    fn export_round_trip() {
        let input = OwnedArray::real(vec![(0, 1), (0, 1)], vec![1.0, 2.0, 3.0, 4.0]);
        let a = ArrayInstance::from_owned_pooled(&input, &mut BufferPool::default());
        let owned = a.into_owned_array();
        assert_eq!(owned.dims, vec![(0, 1), (0, 1)]);
        assert_eq!(owned.as_real_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn from_owned_reads_input() {
        let input = OwnedArray::real(vec![(0, 1)], vec![5.0, 6.0]);
        let inst = ArrayInstance::from_owned_pooled(&input, &mut BufferPool::default());
        assert_eq!(get(&inst, 1), Value::Real(6.0));
    }

    #[test]
    fn buffer_pool_reuses_and_resets() {
        let mut pool = BufferPool::default();
        let spec = || spec2(0, 3, None, 0, 0);
        let a = ArrayInstance::new_pooled(spec(), ScalarTy::Real, true, &mut pool);
        a.tags().unwrap()[2].store(2, Ordering::Relaxed);
        a.recycle(&mut pool);
        // Same length: the buffer comes back zeroed with fresh tags.
        let b = ArrayInstance::new_pooled(spec(), ScalarTy::Real, true, &mut pool);
        assert!(pool.f.is_empty(), "the pooled buffer was reissued");
        let tags = b.tags().unwrap();
        assert!(
            tags.iter().all(|t| t.load(Ordering::Relaxed) == -1),
            "no stale tag"
        );
        // A different length misses the pool and allocates fresh.
        b.recycle(&mut pool);
        let c = ArrayInstance::new_pooled(
            NdSpec {
                dims: vec![DimSpec {
                    lo: 0,
                    hi: 9,
                    window: None,
                }],
            },
            ScalarTy::Real,
            false,
            &mut pool,
        );
        assert_eq!(c.spec.physical_len(), 10);
        assert_eq!(pool.f.len(), 1, "the 4-element buffer stays pooled");
    }

    #[test]
    fn pooled_input_copy_matches_owned() {
        let mut pool = BufferPool::default();
        let input = OwnedArray::int(vec![(1, 3)], vec![7, 8, 9]);
        let inst = ArrayInstance::from_owned_pooled(&input, &mut pool);
        assert_eq!(get(&inst, 2), Value::Int(9));
        inst.recycle(&mut pool);
        // Reissue: the copy fully overwrites the recycled contents.
        let other = OwnedArray::int(vec![(1, 3)], vec![1, 2, 3]);
        let inst2 = ArrayInstance::from_owned_pooled(&other, &mut pool);
        assert_eq!(get(&inst2, 0), Value::Int(1));
        assert_eq!(get(&inst2, 2), Value::Int(3));
    }
}
