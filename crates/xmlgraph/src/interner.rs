//! String interner for edge labels.
//!
//! Every index structure in this workspace keys on labels millions of
//! times; interning turns label comparisons and hash lookups into `u32`
//! operations and keeps extents compact (see the Rust Performance Book's
//! advice on shrinking hot types).

#![deny(clippy::indexing_slicing, clippy::unreachable)]

use std::collections::HashMap;

use crate::model::LabelId;

/// Bidirectional `String ⇄ LabelId` map.
///
/// `LabelId`s are dense and start at 0, so downstream code can index
/// per-label `Vec`s directly.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    by_name: HashMap<Box<str>, LabelId>,
    names: Vec<Box<str>>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its stable id.
    pub fn intern(&mut self, name: &str) -> LabelId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = LabelId(self.names.len() as u32);
        let boxed: Box<str> = name.into();
        self.names.push(boxed.clone());
        self.by_name.insert(boxed, id);
        id
    }

    /// Looks up an already-interned label.
    pub fn get(&self, name: &str) -> Option<LabelId> {
        self.by_name.get(name).copied()
    }

    /// Returns the string for `id`.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this interner.
    #[expect(
        clippy::indexing_slicing,
        reason = "LabelIds are minted by this interner and index `names` by construction; a foreign id is the documented panic"
    )]
    pub fn resolve(&self, id: LabelId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Number of distinct labels interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no label has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(LabelId, &str)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (LabelId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, s)| (LabelId(i as u32), s.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("movie");
        let b = i.intern("movie");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_resolvable() {
        let mut i = Interner::new();
        let ids: Vec<_> = ["a", "b", "c"].iter().map(|s| i.intern(s)).collect();
        assert_eq!(ids, vec![LabelId(0), LabelId(1), LabelId(2)]);
        assert_eq!(i.resolve(LabelId(1)), "b");
        assert_eq!(i.get("c"), Some(LabelId(2)));
        assert_eq!(i.get("d"), None);
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut i = Interner::new();
        i.intern("x");
        i.intern("y");
        let v: Vec<_> = i.iter().map(|(id, s)| (id.0, s.to_string())).collect();
        assert_eq!(v, vec![(0, "x".to_string()), (1, "y".to_string())]);
    }
}
