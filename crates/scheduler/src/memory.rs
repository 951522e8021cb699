//! Memory plans: which dimensions are windowed, and how much storage the
//! generated program needs (the Section 3.4 / Section 4 space accounting).

use ps_lang::hir::HirModule;
use ps_lang::DataId;
use ps_support::{FxHashMap, Symbol};

/// Allocation decision for one dimension of one array.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DimAlloc {
    /// Allocate the declared extent.
    Physical,
    /// Allocate a sliding window of `window` planes, indexed modulo the
    /// window ("the k'th dimension of A can be thought of as a *virtual*
    /// dimension rather than one physically allocated in its entirety").
    Virtual { window: i64 },
}

/// Per-array, per-dimension allocation plan.
#[derive(Clone, Debug, Default)]
pub struct MemoryPlan {
    windows: FxHashMap<(DataId, usize), i64>,
}

impl MemoryPlan {
    pub fn new() -> MemoryPlan {
        MemoryPlan::default()
    }

    /// Allocate `window` planes of dimension `dim` of `data`: the
    /// Section 3.4 analysis's decision, or a transform's that knows every
    /// reader of the dimension.
    pub fn set_window(&mut self, data: DataId, dim: usize, window: i64) {
        // Multiple components may analyze the same dimension (it can only
        // happen with identical results); keep the larger window defensively.
        let entry = self.windows.entry((data, dim)).or_insert(window);
        *entry = (*entry).max(window);
    }

    /// The window for `(data, dim)`, or `None` when physical.
    pub fn window(&self, data: DataId, dim: usize) -> Option<i64> {
        self.windows.get(&(data, dim)).copied()
    }

    pub fn alloc(&self, data: DataId, dim: usize) -> DimAlloc {
        match self.window(data, dim) {
            Some(window) => DimAlloc::Virtual { window },
            None => DimAlloc::Physical,
        }
    }

    /// Number of windowed dimensions in the plan.
    pub fn virtual_dim_count(&self) -> usize {
        self.windows.len()
    }

    /// Element count for an array under this plan, given parameter values.
    /// `None` when a bound cannot be evaluated.
    pub fn alloc_elements(
        &self,
        module: &HirModule,
        data: DataId,
        params: &FxHashMap<Symbol, i64>,
    ) -> Option<u64> {
        let item = &module.data[data];
        let mut total: u64 = 1;
        for (dim, &sr) in item.dims().iter().enumerate() {
            let subrange = &module.subranges[sr];
            let lo = subrange.lo.eval(params)?;
            let hi = subrange.hi.eval(params)?;
            let full = (hi - lo + 1).max(0) as u64;
            let width = match self.alloc(data, dim) {
                DimAlloc::Physical => full,
                DimAlloc::Virtual { window } => (window as u64).min(full),
            };
            total = total.checked_mul(width)?;
        }
        Some(total)
    }

    /// Element count without any windowing (the "physically allocated in its
    /// entirety" baseline).
    pub fn full_elements(
        module: &HirModule,
        data: DataId,
        params: &FxHashMap<Symbol, i64>,
    ) -> Option<u64> {
        MemoryPlan::new().alloc_elements(module, data, params)
    }

    /// Total bytes of local-array storage under this plan, assuming 8-byte
    /// elements.
    pub fn total_local_bytes(
        &self,
        module: &HirModule,
        params: &FxHashMap<Symbol, i64>,
    ) -> Option<u64> {
        let mut total = 0u64;
        for (id, item) in module.data.iter_enumerated() {
            if item.kind == ps_lang::hir::DataKind::Local && item.is_array() {
                total += self.alloc_elements(module, id, params)? * 8;
            }
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_lang::frontend;

    #[test]
    fn alloc_elements_respects_windows() {
        let m = frontend(
            "T: module (n: int): [y: real];
             type K = 2 .. n;
             var a: array [1 .. n] of array [0 .. n+1] of real;
             define
                a[1] = 0.0;
                a[K] = a[K-1] + 1.0;
                y = a[n, 0];
             end T;",
        )
        .unwrap();
        let a = m.data_by_name("a").unwrap();
        let mut params = FxHashMap::default();
        params.insert(Symbol::intern("n"), 10);

        let mut plan = MemoryPlan::new();
        assert_eq!(plan.alloc_elements(&m, a, &params), Some(10 * 12));
        plan.set_window(a, 0, 2);
        assert_eq!(plan.alloc_elements(&m, a, &params), Some(2 * 12));
        assert_eq!(MemoryPlan::full_elements(&m, a, &params), Some(120));
        assert_eq!(plan.alloc(a, 0), DimAlloc::Virtual { window: 2 });
        assert_eq!(plan.alloc(a, 1), DimAlloc::Physical);
        assert_eq!(plan.total_local_bytes(&m, &params), Some(2 * 12 * 8));
    }

    #[test]
    fn window_never_exceeds_extent() {
        let m = frontend(
            "T: module (): [y: real];
             var a: array [1 .. 2] of real;
             define
                a[1] = 0.0; a[2] = 1.0;
                y = a[2];
             end T;",
        )
        .unwrap();
        let a = m.data_by_name("a").unwrap();
        let mut plan = MemoryPlan::new();
        plan.set_window(a, 0, 5);
        let params = FxHashMap::default();
        assert_eq!(plan.alloc_elements(&m, a, &params), Some(2));
    }

    #[test]
    fn set_window_keeps_max() {
        let mut plan = MemoryPlan::new();
        plan.set_window(DataId(0), 0, 2);
        plan.set_window(DataId(0), 0, 3);
        plan.set_window(DataId(0), 0, 1);
        assert_eq!(plan.window(DataId(0), 0), Some(3));
        assert_eq!(plan.virtual_dim_count(), 1);
    }
}
