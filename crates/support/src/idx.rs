//! Strongly-typed indices and index-keyed vectors.
//!
//! Every arena-style table in the compiler (AST nodes, graph nodes, data
//! items, equations) is keyed by a newtype index so indices from different
//! tables cannot be confused. [`crate::new_index_type!`] generates the newtype and
//! [`IndexVec`] provides a `Vec` addressed by it.

use std::fmt;
use std::marker::PhantomData;

/// Trait implemented by index newtypes generated with [`crate::new_index_type!`].
pub trait Idx: Copy + Eq + std::hash::Hash + fmt::Debug + 'static {
    fn new(value: usize) -> Self;
    fn index(self) -> usize;
}

/// Define an index newtype: `new_index_type!(pub struct NodeId; "n")`.
/// The string is a short prefix used in `Debug` output (`n3`).
#[macro_export]
macro_rules! new_index_type {
    ($(#[$meta:meta])* $vis:vis struct $name:ident ; $prefix:literal) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        $vis struct $name(pub u32);

        impl $crate::idx::Idx for $name {
            #[inline]
            fn new(value: usize) -> Self {
                debug_assert!(value <= u32::MAX as usize);
                $name(value as u32)
            }
            #[inline]
            fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl ::std::fmt::Debug for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    };
}

/// A `Vec<T>` addressed by a typed index `I`.
#[derive(Clone, PartialEq, Eq)]
pub struct IndexVec<I: Idx, T> {
    raw: Vec<T>,
    _marker: PhantomData<fn(I)>,
}

impl<I: Idx, T> IndexVec<I, T> {
    pub fn new() -> Self {
        IndexVec {
            raw: Vec::new(),
            _marker: PhantomData,
        }
    }

    pub fn with_capacity(cap: usize) -> Self {
        IndexVec {
            raw: Vec::with_capacity(cap),
            _marker: PhantomData,
        }
    }

    /// Push a value, returning the index it was stored at.
    pub fn push(&mut self, value: T) -> I {
        let idx = I::new(self.raw.len());
        self.raw.push(value);
        idx
    }

    pub fn len(&self) -> usize {
        self.raw.len()
    }

    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    pub fn get(&self, index: I) -> Option<&T> {
        self.raw.get(index.index())
    }

    pub fn get_mut(&mut self, index: I) -> Option<&mut T> {
        self.raw.get_mut(index.index())
    }

    /// Iterate `(index, &value)` pairs in index order.
    pub fn iter_enumerated(&self) -> impl Iterator<Item = (I, &T)> {
        self.raw.iter().enumerate().map(|(i, v)| (I::new(i), v))
    }

    /// Iterate all valid indices.
    pub fn indices(&self) -> impl Iterator<Item = I> + 'static {
        (0..self.raw.len()).map(I::new)
    }

    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.raw.iter()
    }

    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.raw.iter_mut()
    }

    /// The index the next `push` would return.
    pub fn next_index(&self) -> I {
        I::new(self.raw.len())
    }

    pub fn raw(&self) -> &[T] {
        &self.raw
    }
}

impl<I: Idx, T> Default for IndexVec<I, T> {
    fn default() -> Self {
        IndexVec::new()
    }
}

impl<I: Idx, T> std::ops::Index<I> for IndexVec<I, T> {
    type Output = T;
    #[inline]
    fn index(&self, index: I) -> &T {
        &self.raw[index.index()]
    }
}

impl<I: Idx, T> std::ops::IndexMut<I> for IndexVec<I, T> {
    #[inline]
    fn index_mut(&mut self, index: I) -> &mut T {
        &mut self.raw[index.index()]
    }
}

impl<I: Idx, T: fmt::Debug> fmt::Debug for IndexVec<I, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter_enumerated()).finish()
    }
}

impl<I: Idx, T> FromIterator<T> for IndexVec<I, T> {
    fn from_iter<It: IntoIterator<Item = T>>(iter: It) -> Self {
        IndexVec {
            raw: iter.into_iter().collect(),
            _marker: PhantomData,
        }
    }
}

impl<'a, I: Idx, T> IntoIterator for &'a IndexVec<I, T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.raw.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    new_index_type! { struct TestId; "t" }

    #[test]
    fn push_returns_sequential_indices() {
        let mut v: IndexVec<TestId, &str> = IndexVec::new();
        let a = v.push("a");
        let b = v.push("b");
        assert_eq!(a, TestId(0));
        assert_eq!(b, TestId(1));
        assert_eq!(v[a], "a");
        assert_eq!(v[b], "b");
    }

    #[test]
    fn enumerated_iteration() {
        let v: IndexVec<TestId, i32> = [10, 20, 30].into_iter().collect();
        let pairs: Vec<_> = v.iter_enumerated().map(|(i, &x)| (i.0, x)).collect();
        assert_eq!(pairs, vec![(0, 10), (1, 20), (2, 30)]);
    }

    #[test]
    fn debug_uses_prefix() {
        assert_eq!(format!("{:?}", TestId(7)), "t7");
    }

    #[test]
    fn next_index_matches_push() {
        let mut v: IndexVec<TestId, u8> = IndexVec::new();
        let predicted = v.next_index();
        let actual = v.push(0);
        assert_eq!(predicted, actual);
    }

    #[test]
    fn get_bounds() {
        let v: IndexVec<TestId, u8> = [1].into_iter().collect();
        assert_eq!(v.get(TestId(0)), Some(&1));
        assert_eq!(v.get(TestId(1)), None);
    }
}
