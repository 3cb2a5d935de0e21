//! A sorted association row with inline small-row storage.
//!
//! [`Row`] is the coefficient-map representation behind affine
//! expressions: an ordered map from a key (a variable id) to an [`Int`]
//! coefficient. It mirrors the [`Int`] small-value fast path one level
//! up: rows with at most [`INLINE`] entries — the overwhelmingly common
//! case for constraint coefficients — live inline in the struct with no
//! heap allocation for the spine, and spill to a sorted `Vec` only when
//! they grow past that.
//!
//! The observable semantics are exactly those of a
//! `BTreeMap<K, Int>`: entries iterate in ascending key order, and
//! `Eq`/`Ord`/`Hash` are defined over that ordered entry sequence — so
//! swapping a `BTreeMap` field for a `Row` changes no derived
//! comparison, no canonical sort, and no rendered output.

use crate::Int;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Rows with at most this many entries are stored inline.
pub const INLINE: usize = 4;

/// A sorted `K -> Int` map with inline storage for small rows.
pub struct Row<K> {
    store: Store<K>,
}

enum Store<K> {
    /// Sorted by key; the first `len` slots are `Some`.
    Inline {
        len: u8,
        slots: [Option<(K, Int)>; INLINE],
    },
    /// Sorted by key. Entered when a row outgrows the inline slots;
    /// never demoted (rows that grew once tend to grow again).
    Spilled(Vec<(K, Int)>),
}

impl<K: Ord + Clone> Row<K> {
    /// Creates an empty row.
    pub fn new() -> Row<K> {
        Row {
            store: Store::Inline {
                len: 0,
                slots: [None, None, None, None],
            },
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Inline { len, .. } => *len as usize,
            Store::Spilled(v) => v.len(),
        }
    }

    /// True when the row has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sorted entries as a slice-like view for binary search.
    fn entries(&self) -> EntriesRef<'_, K> {
        match &self.store {
            Store::Inline { len, slots } => EntriesRef::Inline(&slots[..*len as usize]),
            Store::Spilled(v) => EntriesRef::Spilled(v),
        }
    }

    fn search(&self, key: &K) -> Result<usize, usize> {
        match self.entries() {
            EntriesRef::Inline(slots) => {
                slots.binary_search_by(|s| s.as_ref().expect("slot within len is Some").0.cmp(key))
            }
            EntriesRef::Spilled(v) => v.binary_search_by(|(k, _)| k.cmp(key)),
        }
    }

    /// Returns the coefficient for `key`, if present.
    pub fn get(&self, key: &K) -> Option<&Int> {
        let i = self.search(key).ok()?;
        Some(match &self.store {
            Store::Inline { slots, .. } => &slots[i].as_ref().expect("found slot is Some").1,
            Store::Spilled(v) => &v[i].1,
        })
    }

    /// Returns a mutable reference to the coefficient for `key`.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut Int> {
        let i = self.search(key).ok()?;
        Some(match &mut self.store {
            Store::Inline { slots, .. } => &mut slots[i].as_mut().expect("found slot is Some").1,
            Store::Spilled(v) => &mut v[i].1,
        })
    }

    /// True when `key` has an entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.search(key).is_ok()
    }

    /// Inserts `key -> value`, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: Int) -> Option<Int> {
        match self.search(&key) {
            Ok(i) => {
                let slot = match &mut self.store {
                    Store::Inline { slots, .. } => {
                        &mut slots[i].as_mut().expect("found slot is Some").1
                    }
                    Store::Spilled(v) => &mut v[i].1,
                };
                Some(std::mem::replace(slot, value))
            }
            Err(i) => {
                self.insert_at(i, key, value);
                None
            }
        }
    }

    fn insert_at(&mut self, i: usize, key: K, value: Int) {
        match &mut self.store {
            Store::Inline { len, slots } => {
                let n = *len as usize;
                if n < INLINE {
                    slots[i..=n].rotate_right(1);
                    slots[i] = Some((key, value));
                    *len += 1;
                } else {
                    // Spill: move the inline entries into a Vec.
                    let mut v: Vec<(K, Int)> = slots
                        .iter_mut()
                        .map(|s| s.take().expect("full row"))
                        .collect();
                    v.insert(i, (key, value));
                    self.store = Store::Spilled(v);
                }
            }
            Store::Spilled(v) => v.insert(i, (key, value)),
        }
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<Int> {
        let i = self.search(key).ok()?;
        match &mut self.store {
            Store::Inline { len, slots } => {
                let n = *len as usize;
                let (_, value) = slots[i].take().expect("found slot is Some");
                slots[i..n].rotate_left(1);
                *len -= 1;
                Some(value)
            }
            Store::Spilled(v) => Some(v.remove(i).1),
        }
    }

    /// Keeps only the entries for which `pred` returns true.
    pub fn retain(&mut self, mut pred: impl FnMut(&K, &mut Int) -> bool) {
        match &mut self.store {
            Store::Inline { len, slots } => {
                let n = *len as usize;
                let mut kept = 0usize;
                for i in 0..n {
                    let (k, v) = slots[i].as_mut().expect("slot within len");
                    if pred(k, v) {
                        if kept != i {
                            slots[kept] = slots[i].take();
                        }
                        kept += 1;
                    } else {
                        slots[i] = None;
                    }
                }
                *len = kept as u8;
            }
            Store::Spilled(v) => v.retain_mut(|(k, val)| pred(k, val)),
        }
    }

    /// Iterates the entries in ascending key order.
    pub fn iter(&self) -> RowIter<'_, K> {
        RowIter {
            entries: self.entries(),
            pos: 0,
        }
    }

    /// Iterates the keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates the values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &Int> + '_ {
        self.iter().map(|(_, v)| v)
    }

    /// Iterates the values mutably in ascending key order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut Int> + '_ {
        let (inline, spilled) = match &mut self.store {
            Store::Inline { len, slots } => (&mut slots[..*len as usize], &mut [][..]),
            Store::Spilled(v) => (&mut [][..], v.as_mut_slice()),
        };
        inline
            .iter_mut()
            .map(|s| &mut s.as_mut().expect("slot within len").1)
            .chain(spilled.iter_mut().map(|(_, v)| v))
    }
}

/// Copies only the live entries: the slots past `len` are always
/// `None`, so the clone builds them fresh instead of copying them.
impl<K: Clone> Clone for Row<K> {
    fn clone(&self) -> Row<K> {
        let store = match &self.store {
            Store::Inline { len, slots } => {
                let mut out = [None, None, None, None];
                for (dst, src) in out.iter_mut().zip(&slots[..*len as usize]) {
                    *dst = src.clone();
                }
                Store::Inline {
                    len: *len,
                    slots: out,
                }
            }
            Store::Spilled(v) => Store::Spilled(v.clone()),
        };
        Row { store }
    }
}

impl<K: Ord + Clone> Default for Row<K> {
    fn default() -> Row<K> {
        Row::new()
    }
}

enum EntriesRef<'a, K> {
    Inline(&'a [Option<(K, Int)>]),
    Spilled(&'a [(K, Int)]),
}

/// Ordered iterator over a [`Row`]'s entries.
pub struct RowIter<'a, K> {
    entries: EntriesRef<'a, K>,
    pos: usize,
}

impl<'a, K> Iterator for RowIter<'a, K> {
    type Item = (&'a K, &'a Int);

    fn next(&mut self) -> Option<(&'a K, &'a Int)> {
        let item = match &self.entries {
            EntriesRef::Inline(slots) => {
                let (k, v) = slots.get(self.pos)?.as_ref().expect("slot within len");
                (k, v)
            }
            EntriesRef::Spilled(v) => {
                let (k, val) = v.get(self.pos)?;
                (k, val)
            }
        };
        self.pos += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match &self.entries {
            EntriesRef::Inline(slots) => slots.len(),
            EntriesRef::Spilled(v) => v.len(),
        };
        let left = n - self.pos;
        (left, Some(left))
    }
}

impl<'a, K: Ord + Clone> IntoIterator for &'a Row<K> {
    type Item = (&'a K, &'a Int);
    type IntoIter = RowIter<'a, K>;
    fn into_iter(self) -> RowIter<'a, K> {
        self.iter()
    }
}

/// Consuming iterator over a [`Row`]'s entries.
pub struct RowIntoIter<K> {
    inner: std::vec::IntoIter<(K, Int)>,
}

impl<K> Iterator for RowIntoIter<K> {
    type Item = (K, Int);
    fn next(&mut self) -> Option<(K, Int)> {
        self.inner.next()
    }
}

impl<K: Ord + Clone> IntoIterator for Row<K> {
    type Item = (K, Int);
    type IntoIter = RowIntoIter<K>;
    fn into_iter(self) -> RowIntoIter<K> {
        let v: Vec<(K, Int)> = match self.store {
            Store::Inline { len, mut slots } => slots[..len as usize]
                .iter_mut()
                .map(|s| s.take().expect("slot within len"))
                .collect(),
            Store::Spilled(v) => v,
        };
        RowIntoIter {
            inner: v.into_iter(),
        }
    }
}

impl<K: Ord + Clone> FromIterator<(K, Int)> for Row<K> {
    fn from_iter<I: IntoIterator<Item = (K, Int)>>(iter: I) -> Row<K> {
        let mut row = Row::new();
        for (k, v) in iter {
            row.insert(k, v);
        }
        row
    }
}

impl<K: Ord + Clone> Extend<(K, Int)> for Row<K> {
    fn extend<I: IntoIterator<Item = (K, Int)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

// Eq / Ord / Hash are defined over the ordered entry sequence, exactly
// matching the derived semantics of a BTreeMap field.

impl<K: Ord + Clone> PartialEq for Row<K> {
    fn eq(&self, other: &Row<K>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}
impl<K: Ord + Clone> Eq for Row<K> {}

impl<K: Ord + Clone> PartialOrd for Row<K> {
    fn partial_cmp(&self, other: &Row<K>) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord + Clone> Ord for Row<K> {
    fn cmp(&self, other: &Row<K>) -> Ordering {
        self.iter().cmp(other.iter())
    }
}

impl<K: Ord + Clone + Hash> Hash for Row<K> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len().hash(state);
        for (k, v) in self.iter() {
            k.hash(state);
            v.hash(state);
        }
    }
}

impl<K: Ord + Clone + fmt::Debug> fmt::Debug for Row<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn int(v: i64) -> Int {
        Int::from(v)
    }

    #[test]
    fn inline_insert_get_remove() {
        let mut r: Row<u32> = Row::new();
        assert!(r.is_empty());
        assert_eq!(r.insert(5, int(50)), None);
        assert_eq!(r.insert(1, int(10)), None);
        assert_eq!(r.insert(3, int(30)), None);
        assert_eq!(r.get(&3), Some(&int(30)));
        assert_eq!(r.insert(3, int(33)), Some(int(30)));
        assert_eq!(r.len(), 3);
        let keys: Vec<u32> = r.keys().copied().collect();
        assert_eq!(keys, [1, 3, 5], "ascending key order");
        assert_eq!(r.remove(&1), Some(int(10)));
        assert_eq!(r.remove(&1), None);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn spill_preserves_order_and_contents() {
        let mut r: Row<u32> = Row::new();
        for k in [9u32, 2, 7, 4, 5, 1, 8] {
            r.insert(k, int(k as i64 * 10));
        }
        assert_eq!(r.len(), 7);
        let keys: Vec<u32> = r.keys().copied().collect();
        assert_eq!(keys, [1, 2, 4, 5, 7, 8, 9]);
        assert_eq!(r.get(&7), Some(&int(70)));
        assert_eq!(r.remove(&4), Some(int(40)));
        assert_eq!(r.len(), 6);
    }

    #[test]
    fn retain_filters_in_both_representations() {
        for n in [3usize, 10] {
            let mut r: Row<u32> = (0..n as u32).map(|k| (k, int(k as i64))).collect();
            r.retain(|k, _| k % 2 == 0);
            let keys: Vec<u32> = r.keys().copied().collect();
            let want: Vec<u32> = (0..n as u32).filter(|k| k % 2 == 0).collect();
            assert_eq!(keys, want, "n={n}");
        }
    }

    #[test]
    fn values_mut_reaches_every_entry() {
        for n in [3u32, 10] {
            let mut r: Row<u32> = (0..n).map(|k| (k, int(k as i64))).collect();
            for v in r.values_mut() {
                *v *= &int(-2);
            }
            let got: Vec<(u32, Int)> = r.iter().map(|(k, v)| (*k, v.clone())).collect();
            let want: Vec<(u32, Int)> = (0..n).map(|k| (k, int(-2 * k as i64))).collect();
            assert_eq!(got, want, "n={n}");
        }
    }

    proptest! {
        /// The row is observationally identical to a BTreeMap under a
        /// random operation sequence — same entries, same order, same
        /// Eq/Ord between snapshots.
        #[test]
        fn behaves_like_btreemap(ops in proptest::collection::vec(
            (0u8..3, 0u32..12, -50i64..50), 0..40))
        {
            let mut row: Row<u32> = Row::new();
            let mut map: BTreeMap<u32, Int> = BTreeMap::new();
            let mut snapshots: Vec<(Row<u32>, BTreeMap<u32, Int>)> = Vec::new();
            for (op, k, v) in ops {
                match op {
                    0 => {
                        prop_assert_eq!(row.insert(k, int(v)), map.insert(k, int(v)));
                    }
                    1 => {
                        prop_assert_eq!(row.remove(&k), map.remove(&k));
                    }
                    _ => {
                        prop_assert_eq!(row.get(&k), map.get(&k));
                    }
                }
                prop_assert_eq!(row.len(), map.len());
                let rv: Vec<(u32, Int)> = row.iter().map(|(k, v)| (*k, v.clone())).collect();
                let mv: Vec<(u32, Int)> = map.iter().map(|(k, v)| (*k, v.clone())).collect();
                prop_assert_eq!(rv, mv, "ordered entries match");
                // A clone taken mid-sequence, inline or spilled, equals
                // its source...
                let snapshot = row.clone();
                prop_assert_eq!(&snapshot, &row);
                snapshots.push((snapshot, map.clone()));
            }
            // ...and later operations on the source leave it unchanged.
            for (snapshot, at) in &snapshots {
                let sv: Vec<(u32, Int)> = snapshot.iter().map(|(k, v)| (*k, v.clone())).collect();
                let mv: Vec<(u32, Int)> = at.iter().map(|(k, v)| (*k, v.clone())).collect();
                prop_assert_eq!(sv, mv, "clone independent of its source");
            }
        }

        /// Ord over rows matches Ord over the equivalent BTreeMaps
        /// (lexicographic on the ordered entry sequence) — the property
        /// the canonical conjunct ordering depends on.
        #[test]
        fn ord_matches_btreemap(a in proptest::collection::vec((0u32..8, -9i64..9), 0..7),
                                b in proptest::collection::vec((0u32..8, -9i64..9), 0..7))
        {
            let ra: Row<u32> = a.iter().map(|&(k, v)| (k, int(v))).collect();
            let rb: Row<u32> = b.iter().map(|&(k, v)| (k, int(v))).collect();
            let ma: BTreeMap<u32, Int> = a.iter().map(|&(k, v)| (k, int(v))).collect();
            let mb: BTreeMap<u32, Int> = b.iter().map(|&(k, v)| (k, int(v))).collect();
            prop_assert_eq!(ra.cmp(&rb), ma.cmp(&mb));
            prop_assert_eq!(ra == rb, ma == mb);
        }
    }
}
