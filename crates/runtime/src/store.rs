//! Input bindings, the compile-time store layout, the live per-run data
//! store, and module outputs.
//!
//! The store is split along the compile-once / run-many seam:
//!
//! * `StorePlan` — computed once per `(module, memory plan)` pair: the
//!   flat scalar-slot layout plus each array's window decisions. It holds
//!   no parameter values and no reference to the module it was laid out
//!   for — plain owned data, so the artifact that keeps it can own or
//!   borrow its module as it likes; the methods that need the module take
//!   it as an argument.
//! * `Store` — one run's live data, instantiated from the plan against a
//!   concrete [`Inputs`]: evaluated array bounds, allocated (or pooled)
//!   buffers, and bound parameter slots. It borrows the module for the
//!   length of that one run.
//!
//! `StoreArena` recycles the per-run storage (buffers, tag tables, the
//! scalar-slot table) between runs of the same plan, so steady-state
//! instantiation is layout evaluation plus `memset`, not allocation.

use crate::ndarray::{make_room, ArrayInstance, BufferPool, DimSpec, NdSpec};
use crate::value::{OwnedArray, Value};
use ps_lang::hir::{DataKind, HirModule};
use ps_lang::{DataId, ScalarTy, SubrangeId, Ty};
use ps_scheduler::MemoryPlan;
use ps_support::idx::{Idx, IndexVec};
use ps_support::{FxHashMap, Symbol};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Parameter bindings supplied by the caller.
#[derive(Clone, Debug, Default)]
pub struct Inputs {
    scalars: FxHashMap<Symbol, Value>,
    arrays: FxHashMap<Symbol, OwnedArray>,
}

impl Inputs {
    pub fn new() -> Inputs {
        Inputs::default()
    }

    pub fn set_int(mut self, name: &str, v: i64) -> Inputs {
        self.scalars.insert(Symbol::intern(name), Value::Int(v));
        self
    }

    pub fn set_real(mut self, name: &str, v: f64) -> Inputs {
        self.scalars.insert(Symbol::intern(name), Value::Real(v));
        self
    }

    pub fn set_bool(mut self, name: &str, v: bool) -> Inputs {
        self.scalars.insert(Symbol::intern(name), Value::Bool(v));
        self
    }

    pub fn set_array(mut self, name: &str, a: OwnedArray) -> Inputs {
        self.arrays.insert(Symbol::intern(name), a);
        self
    }

    pub fn scalar(&self, name: Symbol) -> Option<Value> {
        self.scalars.get(&name).copied()
    }

    pub fn array(&self, name: Symbol) -> Option<&OwnedArray> {
        self.arrays.get(&name)
    }

    /// The affine-parameter environment (scalar ints only).
    pub fn param_env(&self) -> FxHashMap<Symbol, i64> {
        self.scalars
            .iter()
            .filter_map(|(&s, v)| match v {
                Value::Int(i) => Some((s, *i)),
                _ => None,
            })
            .collect()
    }
}

/// Module results returned by the interpreter or oracle.
#[derive(Clone, Debug, Default)]
pub struct Outputs {
    pub scalars: FxHashMap<String, Value>,
    pub arrays: FxHashMap<String, OwnedArray>,
}

impl Outputs {
    pub fn array(&self, name: &str) -> &OwnedArray {
        &self.arrays[name]
    }

    pub fn scalar(&self, name: &str) -> Value {
        self.scalars[name]
    }
}

/// Setup failure (missing input, unevaluable bound, shape mismatch).
#[derive(Clone, Debug)]
pub struct RuntimeError(pub String);

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for RuntimeError {}

/// One lock-free scalar cell: a type tag plus the value bits.
///
/// The tag is stored *after* the bits (both release), and read *before*
/// them (both acquire), so a reader that observes a set tag also observes
/// the matching bits. Equations are single-assignment, so each cell is
/// written at most once per execution; writes happen outside parallel
/// regions and are made visible to workers by the executor's region
/// publish/complete synchronization.
#[derive(Default)]
struct ScalarSlot {
    /// 0 = unset, 1 = int, 2 = real, 3 = bool.
    tag: AtomicU8,
    bits: AtomicU64,
}

impl ScalarSlot {
    /// Return the slot to the "never written" state (pooled reuse).
    fn reset(&self) {
        self.tag.store(0, Ordering::Relaxed);
        self.bits.store(0, Ordering::Relaxed);
    }

    fn write(&self, v: Value) {
        let (tag, bits) = match v {
            Value::Int(i) => (1, i as u64),
            Value::Real(r) => (2, r.to_bits()),
            Value::Bool(b) => (3, b as u64),
        };
        self.bits.store(bits, Ordering::Release);
        self.tag.store(tag, Ordering::Release);
    }

    fn read(&self) -> Option<Value> {
        let tag = self.tag.load(Ordering::Acquire);
        let bits = self.bits.load(Ordering::Acquire);
        match tag {
            0 => None,
            1 => Some(Value::Int(bits as i64)),
            2 => Some(Value::Real(f64::from_bits(bits))),
            3 => Some(Value::Bool(bits != 0)),
            _ => unreachable!("corrupt scalar tag {tag}"),
        }
    }
}

/// Evaluate one subrange's bounds, naming the bound that failed: the
/// single source of truth for an array's "cannot evaluate bound" errors,
/// at instantiation and in [`Store::bounds_of`].
fn eval_subrange(
    module: &HirModule,
    params: &FxHashMap<Symbol, i64>,
    sr: SubrangeId,
) -> Result<(i64, i64), RuntimeError> {
    let s = &module.subranges[sr];
    let lo =
        s.lo.eval(params)
            .ok_or_else(|| RuntimeError(format!("cannot evaluate bound {}", s.lo)))?;
    let hi =
        s.hi.eval(params)
            .ok_or_else(|| RuntimeError(format!("cannot evaluate bound {}", s.hi)))?;
    Ok((lo, hi))
}

/// The "declared dimension is empty" error shared by the array paths.
fn empty_dim_error(module: &HirModule, id: DataId, lo: i64, hi: i64) -> RuntimeError {
    RuntimeError(format!(
        "empty dimension {lo}..{hi} for `{}`",
        module.data[id].name
    ))
}

/// Recycled per-run storage: array buffers, checker tag tables, and
/// scalar-slot tables. One arena serves repeated
/// [`StorePlan::instantiate_masked`] calls; everything it holds is reset
/// before reuse.
#[derive(Default)]
pub(crate) struct StoreArena {
    pub(crate) bufs: BufferPool,
    slots: Vec<Box<[ScalarSlot]>>,
}

/// How many spare scalar-slot tables to keep (they are all the same size
/// for one plan; more than a few only helps heavily concurrent runs).
const SLOT_POOL_CAP: usize = 16;

/// The immutable store layout for one `(module, memory plan)` pair.
///
/// Holds everything about storage that does *not* depend on parameter
/// values: the flat scalar-slot layout and each array dimension's window
/// decision. Instantiating it against concrete [`Inputs`] yields a
/// [`Store`]; the bounds themselves (`0..M+1`) are evaluated per run.
/// Every method that takes a module must be given the one the plan was
/// built from.
pub(crate) struct StorePlan {
    /// Slot `i` of item `d` lives at `scalar_base[d] + i` (field 0 is the
    /// scalar itself; record fields follow). Shared with every [`Store`]
    /// instantiated from this plan.
    scalar_base: Arc<[u32]>,
    n_slots: u32,
    /// Per-array window decisions copied out of the [`MemoryPlan`]
    /// (empty for scalars).
    windows: IndexVec<DataId, Vec<Option<i64>>>,
}

impl StorePlan {
    /// Lay out the scalar slot table and capture window decisions. One
    /// slot per scalar item plus one per record field (arrays get an
    /// unused slot; the waste is a few bytes and keeps the base map a
    /// plain vector).
    pub fn new(module: &HirModule, plan: &MemoryPlan) -> StorePlan {
        let mut scalar_base = Vec::with_capacity(module.data.len());
        let mut windows: IndexVec<DataId, Vec<Option<i64>>> =
            IndexVec::with_capacity(module.data.len());
        let mut next_slot = 0u32;
        for (id, item) in module.data.iter_enumerated() {
            scalar_base.push(next_slot);
            let fields = match &item.ty {
                Ty::Record(rid) => module.records[*rid].fields.len() as u32,
                _ => 0,
            };
            next_slot += 1 + fields;
            windows.push((0..item.dims().len()).map(|d| plan.window(id, d)).collect());
        }
        StorePlan {
            scalar_base: scalar_base.into(),
            n_slots: next_slot,
            windows,
        }
    }

    /// Flat index of scalar `field` of `id` in the slot table.
    pub(crate) fn slot_index(&self, id: DataId, field: usize) -> usize {
        self.scalar_base[id.index()] as usize + field
    }

    /// Total number of scalar slots (for tape validation).
    pub(crate) fn slot_count(&self) -> usize {
        self.n_slots as usize
    }

    /// The concrete layout of array `id` under `params`: declared bounds
    /// evaluated, window decisions applied. Used both to allocate the
    /// instance and to specialize compiled address arithmetic, so the two
    /// agree by construction.
    pub(crate) fn nd_spec(
        &self,
        module: &HirModule,
        id: DataId,
        params: &FxHashMap<Symbol, i64>,
    ) -> Result<NdSpec, RuntimeError> {
        let bounds = Store::bounds_of(module, params, id)?;
        Ok(NdSpec {
            dims: bounds
                .iter()
                .enumerate()
                .map(|(d, &(lo, hi))| DimSpec {
                    lo,
                    hi,
                    window: self.windows[id][d],
                })
                .collect(),
        })
    }

    /// Whether any dimension of array `id` received a window decision
    /// (used by the static analysis: windowed arrays never elide their
    /// runtime tags — the tags also catch window evictions).
    pub(crate) fn is_windowed(&self, id: DataId) -> bool {
        self.windows[id].iter().any(|w| w.is_some())
    }

    /// Whether dimension `dim` of array `id` received a window decision
    /// (the strip eligibility rule keeps inner counters out of those).
    pub(crate) fn dim_has_window(&self, id: DataId, dim: usize) -> bool {
        self.windows[id][dim].is_some()
    }

    /// Bind `inputs` and allocate every array, drawing reusable storage
    /// from `arena`. `verified` is a per-array tag-elision mask (indexed
    /// by `DataId`): under `check_writes`, arrays the static analysis fully
    /// verified skip tag allocation (and the O(n) per-run tag reset)
    /// entirely.
    pub(crate) fn instantiate_masked<'r>(
        &self,
        module: &'r HirModule,
        inputs: &Inputs,
        check_writes: bool,
        verified: Option<&[bool]>,
        arena: &mut StoreArena,
    ) -> Result<Store<'r>, RuntimeError> {
        let params = inputs.param_env();
        let dim_bounds = |id: DataId, sr: SubrangeId| -> Result<(i64, i64), RuntimeError> {
            let (lo, hi) = eval_subrange(module, &params, sr)?;
            if hi < lo {
                return Err(empty_dim_error(module, id, lo, hi));
            }
            Ok((lo, hi))
        };
        let mut arrays: IndexVec<DataId, Option<ArrayInstance>> =
            IndexVec::with_capacity(module.data.len());
        // Everything that outlives the run's array buffers is sized before
        // the first of them is allocated: the result maps the caller will
        // own, and the arena's recycling lists. A result buffer is the one
        // big block freed *outside* the run; a small block allocated after
        // it (a map table, a list growing on the first recycle) would sit
        // above it in the heap and keep the freed block from merging back,
        // leaving a buffer-sized hole for the life of the process.
        let n_arrays = module.data.iter().filter(|d| d.is_array()).count();
        make_room(&mut arena.slots, 1);
        arena.bufs.make_room(n_arrays);
        let mut outputs = Outputs::default();
        outputs.arrays.reserve(module.results.len());
        outputs.scalars.reserve(module.results.len());

        let scalar_slots: Box<[ScalarSlot]> = match arena
            .slots
            .iter()
            .position(|s| s.len() == self.n_slots as usize)
        {
            Some(ix) => {
                let s = arena.slots.swap_remove(ix);
                for slot in s.iter() {
                    slot.reset();
                }
                s
            }
            None => (0..self.n_slots).map(|_| ScalarSlot::default()).collect(),
        };
        let write_param = |id: DataId, v: Value| {
            scalar_slots[self.scalar_base[id.index()] as usize].write(v);
        };

        for (id, item) in module.data.iter_enumerated() {
            arrays.push(None);
            match item.kind {
                DataKind::Param => {
                    if item.is_array() {
                        let owned = inputs.array(item.name).ok_or_else(|| {
                            RuntimeError(format!("missing input array `{}`", item.name))
                        })?;
                        // Validate the declared shape (allocation-free in
                        // the match case).
                        let dims = item.dims();
                        let mut ok = owned.dims.len() == dims.len();
                        for (k, &sr) in dims.iter().enumerate() {
                            if !ok {
                                break;
                            }
                            ok = owned.dims[k] == dim_bounds(id, sr)?;
                        }
                        if !ok {
                            let declared: Vec<(i64, i64)> = dims
                                .iter()
                                .map(|&sr| dim_bounds(id, sr))
                                .collect::<Result<_, _>>()?;
                            return Err(RuntimeError(format!(
                                "input `{}` has dims {:?}, declared {:?}",
                                item.name, owned.dims, declared
                            )));
                        }
                        arrays[id] = Some(ArrayInstance::from_owned_pooled(owned, &mut arena.bufs));
                    } else {
                        let v = inputs.scalar(item.name).ok_or_else(|| {
                            RuntimeError(format!("missing input `{}`", item.name))
                        })?;
                        // Widen ints handed to real params.
                        let v = match (&item.ty, v) {
                            (Ty::Scalar(ScalarTy::Real), Value::Int(i)) => Value::Real(i as f64),
                            _ => v,
                        };
                        write_param(id, v);
                    }
                }
                DataKind::Local | DataKind::Result => {
                    if item.is_array() {
                        let mut dims = arena.bufs.take_dims();
                        for (d, &sr) in item.dims().iter().enumerate() {
                            let (lo, hi) = dim_bounds(id, sr)?;
                            dims.push(DimSpec {
                                lo,
                                hi,
                                window: self.windows[id][d],
                            });
                        }
                        let elem = item.elem_scalar().ok_or_else(|| {
                            RuntimeError(format!("`{}` has no scalar element", item.name))
                        })?;
                        let elided = verified.is_some_and(|m| m[id.index()]);
                        arrays[id] = Some(ArrayInstance::new_pooled(
                            NdSpec { dims },
                            elem,
                            check_writes && !elided,
                            &mut arena.bufs,
                        ));
                    }
                }
            }
        }

        Ok(Store {
            module,
            outputs,
            params,
            arrays,
            scalar_base: Arc::clone(&self.scalar_base),
            scalar_slots,
        })
    }
}

/// The live data store for one module execution.
pub(crate) struct Store<'m> {
    pub module: &'m HirModule,
    /// The result maps [`Store::into_outputs_into`] fills, sized up front.
    outputs: Outputs,
    pub params: FxHashMap<Symbol, i64>,
    /// Dense per-item array table (`None` for scalars): lookups on the hot
    /// path are a single indexed load, no hashing.
    arrays: IndexVec<DataId, Option<ArrayInstance>>,
    /// Flat scalar slots, one per `(data item, field)` pair. Guards in hot
    /// DOALL bodies read parameters like `M`/`maxK` millions of times, so
    /// every read is two atomic loads — no lock, no hashing. The layout is
    /// the plan's ([`StorePlan::slot_index`]).
    scalar_base: Arc<[u32]>,
    scalar_slots: Box<[ScalarSlot]>,
}

impl<'m> Store<'m> {
    /// Evaluate the declared inclusive bounds of an array.
    pub fn bounds_of(
        module: &HirModule,
        params: &FxHashMap<Symbol, i64>,
        id: DataId,
    ) -> Result<Vec<(i64, i64)>, RuntimeError> {
        module.data[id]
            .dims()
            .iter()
            .map(|&sr| {
                let (lo, hi) = eval_subrange(module, params, sr)?;
                if hi < lo {
                    return Err(empty_dim_error(module, id, lo, hi));
                }
                Ok((lo, hi))
            })
            .collect()
    }

    pub fn array(&self, id: DataId) -> &ArrayInstance {
        self.arrays[id]
            .as_ref()
            .unwrap_or_else(|| panic!("array `{}` not allocated", self.module.data[id].name))
    }

    /// Flat index of scalar `field` of `id` in the slot table. The compiled
    /// engine resolves slots once at lowering time and reads them by index.
    pub(crate) fn slot_index(&self, id: DataId, field: usize) -> usize {
        self.scalar_base[id.index()] as usize + field
    }

    /// Read a slot by flat index (`None` when never written).
    pub(crate) fn read_slot(&self, slot: usize) -> Option<Value> {
        self.scalar_slots[slot].read()
    }

    /// Write a slot by flat index.
    pub(crate) fn write_slot(&self, slot: usize, v: Value) {
        self.scalar_slots[slot].write(v);
    }

    /// Read scalar `field` of `id` — two atomic loads, no lock.
    pub fn read_scalar(&self, id: DataId, field: usize) -> Value {
        self.read_slot(self.slot_index(id, field))
            .unwrap_or_else(|| {
                panic!(
                    "scalar `{}` read before definition",
                    self.module.data[id].name
                )
            })
    }

    /// The current values of the scalar parameters in `table` order (the
    /// compiled engine's parameter-register preload source).
    pub(crate) fn param_values(&self, table: &[DataId]) -> Vec<Value> {
        table.iter().map(|&d| self.read_scalar(d, 0)).collect()
    }

    /// Extract results into [`Outputs`] and recycle the remaining storage
    /// into `arena` for the next run.
    pub(crate) fn into_outputs_into(mut self, arena: &mut StoreArena) -> Outputs {
        let module = self.module;
        let mut out = std::mem::take(&mut self.outputs);
        for &id in &module.results {
            let item = &module.data[id];
            if item.is_array() {
                let inst = self.arrays[id].take().expect("result array was allocated");
                out.arrays
                    .insert(item.name.to_string(), inst.into_owned_array());
            } else {
                let v = self.read_scalar(id, 0);
                out.scalars.insert(item.name.to_string(), v);
            }
        }
        // Result arrays left with the caller; everything else (local and
        // input buffers, the slot table) feeds the next run.
        for opt in self.arrays.iter_mut() {
            if let Some(inst) = opt.take() {
                inst.recycle(&mut arena.bufs);
            }
        }
        if arena.slots.len() < SLOT_POOL_CAP {
            arena.slots.push(self.scalar_slots);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_lang::frontend;

    #[test]
    fn inputs_builder_and_env() {
        let inputs = Inputs::new()
            .set_int("n", 5)
            .set_real("x", 1.5)
            .set_bool("flag", true);
        assert_eq!(inputs.scalar(Symbol::intern("n")), Some(Value::Int(5)));
        let env = inputs.param_env();
        assert_eq!(env.get(&Symbol::intern("n")), Some(&5));
        assert!(!env.contains_key(&Symbol::intern("x")), "reals not affine");
    }

    #[test]
    fn scalar_slots_round_trip_all_types() {
        let s = ScalarSlot::default();
        assert_eq!(s.read(), None, "unset slot reads as None");
        s.write(Value::Int(-42));
        assert_eq!(s.read(), Some(Value::Int(-42)));
        s.write(Value::Real(-0.5));
        assert_eq!(s.read(), Some(Value::Real(-0.5)));
        s.write(Value::Bool(true));
        assert_eq!(s.read(), Some(Value::Bool(true)));
        // NaN bits survive the round trip (no Value comparison: NaN != NaN).
        s.write(Value::Real(f64::NAN));
        match s.read() {
            Some(Value::Real(r)) => assert!(r.is_nan()),
            other => panic!("expected NaN, got {other:?}"),
        }
    }

    #[test]
    fn store_allocates_and_validates() {
        let m = frontend(
            "T: module (n: int; init: array[1..n] of real): [y: real];
             type K = 2 .. n;
             var a: array [1 .. n] of real;
             define
                a[1] = init[1];
                a[K] = a[K-1] + 1.0;
                y = a[n];
             end T;",
        )
        .unwrap();
        let plan = MemoryPlan::new();
        let inputs = Inputs::new()
            .set_int("n", 4)
            .set_array("init", OwnedArray::real(vec![(1, 4)], vec![1.0; 4]));
        let build = |inputs: &Inputs| {
            StorePlan::new(&m, &plan).instantiate_masked(
                &m,
                inputs,
                false,
                None,
                &mut StoreArena::default(),
            )
        };
        let store = build(&inputs).unwrap();
        let a = m.data_by_name("a").unwrap();
        assert_eq!(store.array(a).spec.physical_len(), 4);

        // Shape mismatch rejected.
        let bad = Inputs::new()
            .set_int("n", 4)
            .set_array("init", OwnedArray::real(vec![(1, 3)], vec![1.0; 3]));
        assert!(build(&bad).is_err());

        // Missing scalar rejected.
        let missing = Inputs::new().set_array("init", OwnedArray::real(vec![(1, 4)], vec![1.0; 4]));
        assert!(build(&missing).is_err());
    }
}
