//! Global string interning.
//!
//! Identifiers flow through every stage of the compiler (AST, HIR, dependency
//! graph, scheduler, code generator), so they are interned once into
//! copyable [`Symbol`]s. Deduplication still goes through a `RwLock`-guarded
//! map (interning a *new* string is rare after startup), but resolution is
//! lock-free: [`Symbol::as_str`] is two once-cell loads from an append-only
//! segmented arena, so rendering, `Display` and `Ord` comparisons never
//! touch a lock.

use crate::fxhash::FxHashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned string. Cheap to copy, hash and compare; ordering compares the
/// underlying strings so rendered output is deterministic.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

/// First segment holds `1 << SEG0_BITS` entries; each next segment doubles.
const SEG0_BITS: u32 = 6;
/// 26 doubling segments cover the whole `u32` id space.
const N_SEGMENTS: usize = 26;

/// Append-only symbol arena: segment `k` is a lazily allocated, never-freed
/// block of `64 << k` once-cells. A slot is set exactly once — under the
/// interner write lock, before its id leaves [`Symbol::intern`] — and never
/// moves, so readers resolve it with two `get`s and no lock.
static ARENA: [OnceLock<Box<[OnceLock<&'static str>]>>; N_SEGMENTS] =
    [const { OnceLock::new() }; N_SEGMENTS];

/// Map an id to its (segment, offset) pair.
#[inline]
fn locate(id: u32) -> (usize, usize) {
    let n = id + (1 << SEG0_BITS);
    let k = 31 - n.leading_zeros();
    ((k - SEG0_BITS) as usize, (n - (1u32 << k)) as usize)
}

/// Slot count of segment `seg`.
#[inline]
fn seg_len(seg: usize) -> usize {
    1usize << (seg as u32 + SEG0_BITS)
}

/// Deduplication map (string → id). Only [`Symbol::intern`] takes this lock.
struct Interner {
    map: FxHashMap<&'static str, u32>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            map: FxHashMap::default(),
        })
    })
}

impl Symbol {
    /// Intern `s`, returning its symbol. Repeated calls with equal strings
    /// return equal symbols.
    pub fn intern(s: &str) -> Symbol {
        {
            let guard = interner().read().unwrap_or_else(|e| e.into_inner());
            if let Some(&id) = guard.map.get(s) {
                return Symbol(id);
            }
        }
        let mut guard = interner().write().unwrap_or_else(|e| e.into_inner());
        if let Some(&id) = guard.map.get(s) {
            return Symbol(id);
        }
        // Leaking is bounded by the set of distinct identifiers in the
        // session; this is the standard rustc-style interner trade-off.
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        // Ids are dense: the map holds exactly the ids handed out so far.
        let id = guard.map.len() as u32;
        let (seg, off) = locate(id);
        let segment =
            ARENA[seg].get_or_init(|| (0..seg_len(seg)).map(|_| OnceLock::new()).collect());
        segment[off]
            .set(leaked)
            .expect("a fresh id's arena slot is empty");
        guard.map.insert(leaked, id);
        Symbol(id)
    }

    /// Resolve back to the interned string — a lock-free arena load.
    pub fn as_str(&self) -> &'static str {
        let (seg, off) = locate(self.0);
        // A `Symbol` only comes from `intern`, which sets its slot before
        // returning it.
        ARENA[seg]
            .get()
            .and_then(|segment| segment[off].get())
            .expect("symbol id outside the arena")
    }

    /// The raw interner index (stable within a process run only).
    pub fn index(&self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("relaxation");
        let b = Symbol::intern("relaxation");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "relaxation");
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        let a = Symbol::intern("K");
        let b = Symbol::intern("K'");
        assert_ne!(a, b);
    }

    #[test]
    fn ordering_is_lexicographic() {
        // Intern in reverse order to make sure ordering is not by id.
        let z = Symbol::intern("zzz_order_test");
        let a = Symbol::intern("aaa_order_test");
        assert!(a < z);
    }

    #[test]
    fn display_round_trips() {
        let s = Symbol::intern("newA");
        assert_eq!(format!("{s}"), "newA");
        assert_eq!(format!("{s:?}"), "\"newA\"");
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| Symbol::intern("shared-name").index()))
            .collect();
        let ids: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn locate_maps_segment_boundaries() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(63), (0, 63));
        assert_eq!(locate(64), (1, 0));
        assert_eq!(locate(191), (1, 127));
        assert_eq!(locate(192), (2, 0));
        // Every id maps inside its segment, and consecutive ids are
        // contiguous within a segment.
        for id in 0..100_000u32 {
            let (seg, off) = locate(id);
            assert!(off < seg_len(seg), "id {id}: off {off} seg {seg}");
        }
    }

    #[test]
    fn arena_survives_segment_growth() {
        // Intern enough distinct strings to force several segment
        // allocations, then resolve all of them back.
        let syms: Vec<(Symbol, String)> = (0..300)
            .map(|i| {
                let s = format!("growth_test_{i}");
                (Symbol::intern(&s), s)
            })
            .collect();
        for (sym, s) in &syms {
            assert_eq!(sym.as_str(), s);
        }
    }

    #[test]
    fn concurrent_readers_and_writers() {
        // Writers intern fresh strings while readers resolve existing
        // symbols; exercises the publication ordering under load.
        let base: Vec<Symbol> = (0..64)
            .map(|i| Symbol::intern(&format!("rw_base_{i}")))
            .collect();
        let writers: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let s = format!("rw_new_{t}_{i}");
                        assert_eq!(Symbol::intern(&s).as_str(), s);
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let base = base.clone();
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        for (i, s) in base.iter().enumerate() {
                            assert_eq!(s.as_str(), format!("rw_base_{i}"));
                        }
                    }
                })
            })
            .collect();
        for h in writers.into_iter().chain(readers) {
            h.join().unwrap();
        }
    }
}
