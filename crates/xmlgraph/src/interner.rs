//! The one string-table type of the data graph: labels, declared ids
//! and node values each live in an [`Interner`], so comparing or hashing
//! one is a `u32` operation and no string is held twice.

#![deny(clippy::indexing_slicing, clippy::unreachable)]

use std::collections::HashMap;
use std::hash::BuildHasher;

/// Dense `u32` ids for distinct strings in first-intern order, the
/// strings back to back in one `String`, found through hash chains. The
/// graph's value dictionary is in byte order instead, without chains.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    /// The strings in id order, back to back.
    text: String,
    /// Per id: its end in `text` (it starts where the previous one ends).
    ends: Vec<usize>,
    /// A string's hash → the newest id with that hash.
    newest: HashMap<u64, u32>,
    /// Per id: the previous id with the same hash, or `u32::MAX`. Empty
    /// in byte order.
    prev: Vec<u32>,
}

impl Interner {
    /// Interns `s`, returning its stable id.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(id) = self.get(s) {
            return id;
        }
        let id = self.len() as u32;
        let prev = self.newest.insert(self.newest.hasher().hash_one(s), id);
        self.prev.push(prev.unwrap_or(u32::MAX));
        self.text.push_str(s);
        self.ends.push(self.text.len());
        id
    }

    /// The id of `s`, if interned.
    pub fn get(&self, s: &str) -> Option<u32> {
        if self.prev.len() != self.len() {
            // In byte order, without chains: bisect.
            let (mut lo, mut hi) = (0, self.len());
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if self.resolve(mid as u32) < s {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            return (lo < self.len() && self.resolve(lo as u32) == s).then_some(lo as u32);
        }
        let mut at = self.newest.get(&self.newest.hasher().hash_one(s)).copied();
        while let Some(id) = at.filter(|&id| id != u32::MAX) {
            if self.resolve(id) == s {
                return Some(id);
            }
            at = self.prev.get(id as usize).copied();
        }
        None
    }

    /// The string of `id`; empty for an id this table did not mint.
    pub fn resolve(&self, id: u32) -> &str {
        let i = id as usize;
        let start = i.checked_sub(1).and_then(|p| self.ends.get(p));
        let end = self.ends.get(i);
        end.and_then(|&e| self.text.get(*start.unwrap_or(&0)..e))
            .unwrap_or_default()
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterates over `(id, &str)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        (0..self.len() as u32).map(|id| (id, self.resolve(id)))
    }

    /// This table renumbered in byte order, so ids compare as their
    /// strings do, without hash chains. Each of `ids` this table minted
    /// is rewritten to its new number; others are left as they are.
    pub(crate) fn into_byte_order(self, ids: &mut [u32]) -> Interner {
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        order.sort_unstable_by_key(|&id| self.resolve(id));
        let mut rank = vec![0; order.len()];
        let mut sorted = Interner {
            text: String::with_capacity(self.text.len()),
            ends: Vec::with_capacity(order.len()),
            ..Interner::default()
        };
        for (r, &id) in order.iter().enumerate() {
            if let Some(slot) = rank.get_mut(id as usize) {
                *slot = r as u32;
            }
            sorted.text.push_str(self.resolve(id));
            sorted.ends.push(sorted.text.len());
        }
        for id in ids {
            if let Some(&r) = rank.get(*id as usize) {
                *id = r;
            }
        }
        sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::default();
        let a = i.intern("movie");
        let b = i.intern("movie");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_resolvable() {
        let mut i = Interner::default();
        let ids: Vec<_> = ["a", "b", "c"].iter().map(|s| i.intern(s)).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(i.resolve(1), "b");
        assert_eq!(i.get("c"), Some(2));
        assert_eq!(i.get("d"), None);
        assert_eq!(i.resolve(3), "", "an id the table did not mint");
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut i = Interner::default();
        i.intern("x");
        i.intern("y");
        let v: Vec<_> = i.iter().map(|(id, s)| (id, s.to_string())).collect();
        assert_eq!(v, vec![(0, "x".to_string()), (1, "y".to_string())]);
    }

    #[test]
    fn strings_are_found_among_many_and_the_empty_one_is_a_string() {
        let mut i = Interner::default();
        let ids: Vec<u32> = (0..2_000).map(|k| i.intern(&format!("v{k}"))).collect();
        let empty = i.intern("");
        assert_eq!(i.intern(""), empty);
        assert_eq!(i.resolve(empty), "");
        for (k, &id) in ids.iter().enumerate() {
            assert_eq!(i.get(&format!("v{k}")), Some(id));
        }
        assert_eq!(i.len(), 2_001);
    }

    #[test]
    fn byte_order_renumbers_ids_and_search_bisects() {
        let mut i = Interner::default();
        let words = ["pear", "", "apple", "fig", "apple"];
        let mut ids: Vec<u32> = words.iter().map(|w| i.intern(w)).collect();
        ids.push(u32::MAX);
        let sorted = i.into_byte_order(&mut ids);
        let strings: Vec<&str> = sorted.iter().map(|(_, s)| s).collect();
        assert_eq!(strings, ["", "apple", "fig", "pear"]);
        for (w, &id) in words.iter().zip(&ids) {
            assert_eq!(sorted.resolve(id), *w);
            assert_eq!(sorted.get(w), Some(id));
        }
        assert_eq!(ids.last(), Some(&u32::MAX), "a foreign id is left alone");
        assert_eq!(sorted.get("kiwi"), None);
        assert_eq!(sorted.get("zzz"), None);
    }
}
