//! A bounded map with generational eviction, shared by the board's report
//! memo and the learned oracle's stem cache.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// A map holding at most `bound` entries with O(1) amortized eviction.
/// Entries live in two generations: inserts go to the young one, and once
/// it holds half the bound it becomes the old one, dropping the previous
/// old generation whole. A hit in the old generation moves the entry back
/// to the young one, so an entry in use survives. A bound of 1 keeps no
/// old generation. Meant for memos of pure functions, where an eviction
/// only costs a recomputation.
#[derive(Debug, Clone)]
pub struct GenerationalMap<K, V> {
    young: HashMap<K, V>,
    old: HashMap<K, V>,
    half: usize,
    keep_old: bool,
}

impl<K: Eq + Hash, V: Clone> GenerationalMap<K, V> {
    /// An empty map holding at most `bound` entries.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn new(bound: usize) -> Self {
        assert!(bound > 0, "a generational map needs a positive bound");
        Self {
            young: HashMap::new(),
            old: HashMap::new(),
            half: (bound / 2).max(1),
            keep_old: bound > 1,
        }
    }

    /// The value under `key`, moving an old-generation entry back to the
    /// young one.
    pub fn get<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if let Some(value) = self.young.get(key) {
            return Some(value.clone());
        }
        let (key, value) = self.old.remove_entry(key)?;
        self.insert(key, value.clone());
        Some(value)
    }

    /// Inserts into the young generation, turning the generations over
    /// first when it is full.
    pub fn insert(&mut self, key: K, value: V) {
        if self.young.len() >= self.half {
            let young = std::mem::take(&mut self.young);
            self.old = if self.keep_old { young } else { HashMap::new() };
        }
        self.young.insert(key, value);
    }

    /// Entries held, both generations.
    pub fn len(&self) -> usize {
        self.young.len() + self.old.len()
    }

    /// Whether the map holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_bounded_and_keeps_an_entry_in_use() {
        let mut map: GenerationalMap<u32, u32> = GenerationalMap::new(8);
        map.insert(0, 0);
        for i in 1..100 {
            map.insert(i, i);
            assert!(map.len() <= 8);
            if i % 3 == 0 {
                assert_eq!(map.get(&0), Some(0), "an entry read every 3 inserts survives");
            }
        }
        assert_eq!(map.get(&1), None, "an entry never read again is evicted");
    }

    #[test]
    fn a_bound_of_one_holds_only_the_newest_entry() {
        let mut map: GenerationalMap<u32, u32> = GenerationalMap::new(1);
        map.insert(0, 0);
        map.insert(1, 1);
        assert_eq!(map.len(), 1);
        assert_eq!(map.get(&0), None);
        assert_eq!(map.get(&1), Some(1));
    }
}
