//! Key-sorted row tables: the engine's running-task and failure-point
//! tables.
//!
//! The engine walks its running tasks several times per step, always in
//! ascending key order, and changes them only in batches: a heartbeat
//! round launches, a phase completes or kills. A [`RowTable`] keeps the
//! rows in one sorted `Vec`, so a walk is a slice walk, and defers every
//! change to the next [`RowTable::settle`]: a launch is staged, a
//! retirement (completion, failure, kill) marks its row, and the settle
//! compacts the marked rows out and merges the staged ones in, O(n + m log
//! m) for m changes, where a sorted `Vec` changed in place would move the
//! table once per change.
//!
//! Between a change and the next settle, lookups see staged rows and do
//! not see retired ones; walks are only defined on a settled table.

use serde::{Deserialize, Serialize};

/// A table of `(key, value)` rows in strictly ascending key order, with
/// batched launches and retirements (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct RowTable<K, V> {
    rows: Vec<(K, V)>,
    /// Empty, or one flag per row: set on a retired row awaiting
    /// compaction.
    retired: Vec<bool>,
    /// Rows staged since the last settle, in staging order.
    staged: Vec<(K, V)>,
}

impl<K, V> Default for RowTable<K, V> {
    fn default() -> Self {
        RowTable {
            rows: Vec::new(),
            retired: Vec::new(),
            staged: Vec::new(),
        }
    }
}

impl<K, V> RowTable<K, V> {
    /// No staged or retired row awaits the next settle.
    fn is_settled(&self) -> bool {
        self.retired.is_empty() && self.staged.is_empty()
    }
}

impl<K: Ord + Copy, V> RowTable<K, V> {
    /// The rows in ascending key order. The table must be settled.
    pub(crate) fn rows(&self) -> &[(K, V)] {
        debug_assert!(self.is_settled(), "walk over an unsettled table");
        &self.rows
    }

    /// [`RowTable::rows`], with mutable values.
    pub(crate) fn rows_mut(&mut self) -> &mut [(K, V)] {
        debug_assert!(self.is_settled(), "walk over an unsettled table");
        &mut self.rows
    }

    /// Row count of a settled table.
    pub(crate) fn len(&self) -> usize {
        self.rows().len()
    }

    /// Position of the live (not retired) settled row at `key`.
    fn position(&self, key: &K) -> Option<usize> {
        let i = self.rows.binary_search_by(|r| r.0.cmp(key)).ok()?;
        (!self.retired.get(i).copied().unwrap_or(false)).then_some(i)
    }

    /// The live value at `key`, staged rows included.
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        match self.position(key) {
            Some(i) => Some(&self.rows[i].1),
            None => self.staged.iter().find(|r| r.0 == *key).map(|r| &r.1),
        }
    }

    pub(crate) fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Exchange the table's staging buffer with `buf`, both empty. A
    /// stepping call lends each table an arena buffer and takes it back
    /// when it ends, so a run's launches reuse the capacity earlier runs
    /// grew instead of growing a fresh buffer.
    pub(crate) fn swap_staging(&mut self, buf: &mut Vec<(K, V)>) {
        debug_assert!(self.staged.is_empty() && buf.is_empty());
        std::mem::swap(&mut self.staged, buf);
    }

    /// Make room to stage `launches` more rows without regrowing.
    pub(crate) fn reserve_staging(&mut self, launches: usize) {
        self.staged.reserve(launches);
    }

    /// Stage a new row for the next settle. `key` must not be live.
    pub(crate) fn stage(&mut self, key: K, value: V) {
        debug_assert!(!self.contains_key(&key), "staging a live key");
        self.staged.push((key, value));
    }

    /// Retire the live row at `key` and return `read` of its value, or
    /// `None` when no row is live there. A settled row is marked and
    /// compacted out by the next settle; a staged one is dropped at once.
    pub(crate) fn retire<R>(&mut self, key: &K, read: impl FnOnce(&V) -> R) -> Option<R> {
        if let Some(i) = self.position(key) {
            if self.retired.is_empty() {
                self.retired.resize(self.rows.len(), false);
            }
            self.retired[i] = true;
            return Some(read(&self.rows[i].1));
        }
        let j = self.staged.iter().position(|r| r.0 == *key)?;
        let (_, value) = self.staged.swap_remove(j);
        Some(read(&value))
    }

    /// Apply every pending change: compact the retired rows out, then
    /// merge the staged rows in by key. `spare` is a reusable merge
    /// buffer, left empty. A table with nothing pending costs two
    /// branches.
    pub(crate) fn settle(&mut self, spare: &mut Vec<(K, V)>) {
        if !self.retired.is_empty() {
            let mut retired = self.retired.iter();
            self.rows
                .retain(|_| !retired.next().copied().unwrap_or(false));
            self.retired.clear();
        }
        if self.staged.is_empty() {
            return;
        }
        self.staged.sort_unstable_by_key(|r| r.0);
        if self
            .rows
            .last()
            .is_none_or(|last| last.0 < self.staged[0].0)
        {
            // every launch lands past the last row: append in place
            self.rows.append(&mut self.staged);
        } else {
            spare.clear();
            spare.append(&mut self.rows);
            let mut staged = self.staged.drain(..).peekable();
            for row in spare.drain(..) {
                while let Some(new) = staged.next_if(|new| new.0 < row.0) {
                    self.rows.push(new);
                }
                debug_assert!(staged.peek().is_none_or(|new| new.0 != row.0));
                self.rows.push(row);
            }
            self.rows.extend(staged);
        }
        // the flags grow with the table, not at a phase's first retirement
        self.retired.reserve(self.rows.len());
    }
}

/// A table travels as its `[key, value]` pair list in key order, the
/// encoding capsules have always used for the engine's struct-keyed maps.
impl<K: Serialize, V: Serialize> Serialize for RowTable<K, V> {
    fn to_value(&self) -> serde::Value {
        debug_assert!(self.is_settled(), "serializing an unsettled table");
        self.rows.to_value()
    }
}

/// Refuses a pair list whose keys are out of order or repeated: such a
/// list is no table the engine wrote.
impl<K: Deserialize + Ord, V: Deserialize> Deserialize for RowTable<K, V> {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        let rows: Vec<(K, V)> = Deserialize::deserialize(v)?;
        if let Some(i) = rows.windows(2).position(|w| w[0].0 >= w[1].0) {
            return Err(serde::Error::new(format!(
                "table row {} repeats or precedes the key before it",
                i + 1
            )));
        }
        Ok(RowTable {
            rows,
            ..RowTable::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::btree_map::Entry;
    use std::collections::BTreeMap;

    const KEYS: u32 = 48;

    proptest::proptest! {
        /// The table agrees with a `BTreeMap` under random batches of
        /// launches (below, between and above the live rows, and onto keys
        /// retired earlier in the batch), retirements (of live, staged,
        /// retired and absent keys) and settles: every lookup after every
        /// operation, and the rows in order after every settle.
        #[test]
        fn table_matches_a_btree_reference(
            ops in proptest::collection::vec((0usize..8, 0u32..KEYS), 1..200),
        ) {
            let mut table: RowTable<u32, u64> = RowTable::default();
            let mut reference: BTreeMap<u32, u64> = BTreeMap::new();
            let mut spare = Vec::new();
            for (n, (kind, key)) in ops.into_iter().enumerate() {
                let value = n as u64;
                match kind {
                    0..=2 => {
                        if let Entry::Vacant(free) = reference.entry(key) {
                            table.stage(key, value);
                            free.insert(value);
                        }
                    }
                    3..=5 => {
                        let got = table.retire(&key, |v| *v);
                        proptest::prop_assert_eq!(got, reference.remove(&key));
                    }
                    _ => {
                        table.settle(&mut spare);
                        proptest::prop_assert!(table.is_settled() && spare.is_empty());
                        let rows: Vec<(u32, u64)> = table.rows().to_vec();
                        let want: Vec<(u32, u64)> =
                            reference.iter().map(|(k, v)| (*k, *v)).collect();
                        proptest::prop_assert_eq!(rows, want);
                    }
                }
                for k in 0..KEYS {
                    proptest::prop_assert_eq!(table.get(&k), reference.get(&k));
                }
            }
        }
    }
}
