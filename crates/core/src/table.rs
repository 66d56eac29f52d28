//! The size-change table `m ∈ v ⇀ ⃗v × ⃗g` (Figure 3), in the two flavors the
//! paper evaluates in §5.
//!
//! * [`ScTable`] is **persistent**: `update` returns a new table and leaves
//!   the old one intact. The continuation-mark strategy stores one of these
//!   per mark; returning from a call discards the mark, restoring the
//!   caller's table — the dynamic-extent threading of rule [SC-App-Clo]
//!   with no undo machinery and with proper tail calls preserved.
//! * [`MutScTable`] is **imperative**: `update_mut` mutates a hash map in
//!   place and returns a [`TableUndo`] that the interpreter stashes in a
//!   restore continuation frame. Cheap lookups, but every application now
//!   pushes a frame — exactly how the imperative strategy "breaks proper
//!   tail calls" (§5).
//!
//! Both flavors are generic in the closure key `K` (the interpreter uses a
//! structural closure fingerprint per §5's "hash the closure") and the
//! argument snapshot `V`.

use crate::graph::ScGraph;
use crate::intern::FxBuildHasher;
use crate::order::WellFoundedOrder;
use crate::seq::{CallSeq, ScViolation};
use sct_persist::PMap;
use std::collections::HashMap;
use std::hash::Hash;
use std::rc::Rc;

/// A table entry: the most recent arguments a function was applied to in
/// the current dynamic extent, plus its accumulated graph sequence.
#[derive(Debug)]
pub struct FnEntry<V> {
    /// Arguments of the most recent call (`⃗vₙ`).
    pub last_args: Rc<[V]>,
    /// The graph sequence `⃗g`, as suffix composites.
    pub seq: CallSeq,
}

impl<V> Clone for FnEntry<V> {
    fn clone(&self) -> Self {
        FnEntry {
            last_args: Rc::clone(&self.last_args),
            seq: self.seq.clone(),
        }
    }
}

impl<V> FnEntry<V> {
    /// A fresh entry for a function's first observed call: the paper's
    /// `m[v ↦ (⃗vₙ, [])]`.
    pub fn first_call(args: Rc<[V]>) -> FnEntry<V> {
        FnEntry {
            last_args: args,
            seq: CallSeq::new(),
        }
    }

    /// Steps the entry with new arguments: computes `graph(⃗vₙ₋₁, ⃗vₙ)` and
    /// pushes it through the `prog?` check. The order runs before the
    /// push touches the graph pool.
    ///
    /// # Errors
    ///
    /// Propagates the [`ScViolation`] when the extended sequence violates
    /// the size-change principle.
    pub fn step<O: WellFoundedOrder<V> + ?Sized>(
        &self,
        args: Rc<[V]>,
        order: &O,
    ) -> Result<FnEntry<V>, ScViolation> {
        let g = ScGraph::from_args(order, &self.last_args, &args);
        let seq = self.seq.push(g)?;
        Ok(FnEntry {
            last_args: args,
            seq,
        })
    }

    /// Steps the entry without checking (`ext` of Figure 6).
    pub fn step_unchecked<O: WellFoundedOrder<V> + ?Sized>(
        &self,
        args: Rc<[V]>,
        order: &O,
    ) -> FnEntry<V> {
        let g = ScGraph::from_args(order, &self.last_args, &args);
        FnEntry {
            last_args: args,
            seq: self.seq.push_unchecked(g),
        }
    }
}

/// The persistent size-change table used by the continuation-mark strategy.
///
/// # Examples
///
/// ```
/// use sct_core::order::AbsIntOrder;
/// use sct_core::table::ScTable;
/// use std::rc::Rc;
///
/// let t0: ScTable<&str, i64> = ScTable::new();
/// let t1 = t0.update("f", Rc::from(vec![3i64]), &AbsIntOrder).unwrap();
/// let t2 = t1.update("f", Rc::from(vec![2i64]), &AbsIntOrder).unwrap();
/// assert!(t2.update("f", Rc::from(vec![2i64]), &AbsIntOrder).is_err()); // no descent
/// assert!(t1.update("f", Rc::from(vec![1i64]), &AbsIntOrder).is_ok());  // t1 unharmed
/// ```
pub struct ScTable<K, V> {
    map: PMap<K, FnEntry<V>>,
}

impl<K: Hash + Eq + Clone + std::fmt::Debug, V: std::fmt::Debug> std::fmt::Debug for ScTable<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.map.iter()).finish()
    }
}

impl<K, V> Clone for ScTable<K, V> {
    fn clone(&self) -> Self {
        ScTable {
            map: self.map.clone(),
        }
    }
}

impl<K, V> Default for ScTable<K, V>
where
    K: Hash + Eq + Clone,
{
    fn default() -> Self {
        ScTable::new()
    }
}

impl<K: Hash + Eq + Clone, V> ScTable<K, V> {
    /// The empty table `{}`.
    pub fn new() -> ScTable<K, V> {
        ScTable { map: PMap::new() }
    }

    /// Number of functions tracked.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no function is tracked.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The entry for a function, if it has been applied in this extent.
    pub fn get(&self, key: &K) -> Option<&FnEntry<V>> {
        self.map.get(key)
    }

    /// Figure 4's `upd(m, v, ⃗vₙ)`: records the call and checks `prog?`.
    ///
    /// # Errors
    ///
    /// [`ScViolation`] when the function's extended graph sequence violates
    /// the size-change principle — the caller turns this into `errorSC`.
    pub fn update<O: WellFoundedOrder<V> + ?Sized>(
        &self,
        key: K,
        args: Rc<[V]>,
        order: &O,
    ) -> Result<ScTable<K, V>, ScViolation> {
        let entry = match self.map.get(&key) {
            None => FnEntry::first_call(args),
            Some(prev) => prev.step(args, order)?,
        };
        Ok(ScTable {
            map: self.map.insert(key, entry),
        })
    }

    /// Figure 6's `ext(m, v, ⃗vₙ)`: records the call without checking.
    #[must_use = "ScTable is persistent; extend_unchecked returns the new table"]
    pub fn extend_unchecked<O: WellFoundedOrder<V> + ?Sized>(
        &self,
        key: K,
        args: Rc<[V]>,
        order: &O,
    ) -> ScTable<K, V> {
        let entry = match self.map.get(&key) {
            None => FnEntry::first_call(args),
            Some(prev) => prev.step_unchecked(args, order),
        };
        ScTable {
            map: self.map.insert(key, entry),
        }
    }

    /// Iterates over tracked functions and entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &FnEntry<V>)> {
        self.map.iter()
    }
}

/// Undo record returned by [`MutScTable::update_mut`]; the interpreter keeps
/// it in a restore frame and applies it when the call returns.
#[derive(Debug)]
pub struct TableUndo<K, V> {
    key: K,
    prev: Option<FnEntry<V>>,
}

/// The imperative size-change table of §5's first strategy: one global
/// mutable map, updated on call and *restored* on return.
///
/// # Examples
///
/// ```
/// use sct_core::order::AbsIntOrder;
/// use sct_core::table::MutScTable;
/// use std::rc::Rc;
///
/// let mut t: MutScTable<&str, i64> = MutScTable::new();
/// let undo = t.update_mut("f", Rc::from(vec![3i64]), &AbsIntOrder).unwrap();
/// assert_eq!(t.len(), 1);
/// t.restore(undo); // the call returned: f's entry reverts
/// assert_eq!(t.len(), 0);
/// ```
pub struct MutScTable<K, V> {
    map: HashMap<K, FnEntry<V>, FxBuildHasher>,
}

impl<K: Hash + Eq + std::fmt::Debug, V: std::fmt::Debug> std::fmt::Debug for MutScTable<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.map.iter()).finish()
    }
}

impl<K, V> Default for MutScTable<K, V>
where
    K: Hash + Eq + Clone,
{
    fn default() -> Self {
        MutScTable::new()
    }
}

impl<K: Hash + Eq + Clone, V> MutScTable<K, V> {
    /// The empty table.
    pub fn new() -> MutScTable<K, V> {
        MutScTable {
            map: HashMap::default(),
        }
    }

    /// Number of functions tracked.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no function is tracked.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The entry for a function, if present.
    pub fn get(&self, key: &K) -> Option<&FnEntry<V>> {
        self.map.get(key)
    }

    /// In-place `upd`: on success the table holds the new entry and the
    /// returned [`TableUndo`] restores the previous state; on violation the
    /// table is left unchanged.
    ///
    /// # Errors
    ///
    /// [`ScViolation`] when the extended sequence violates the size-change
    /// principle.
    pub fn update_mut<O: WellFoundedOrder<V> + ?Sized>(
        &mut self,
        key: K,
        args: Rc<[V]>,
        order: &O,
    ) -> Result<TableUndo<K, V>, ScViolation> {
        match self.map.entry(key.clone()) {
            std::collections::hash_map::Entry::Occupied(mut slot) => {
                let next = slot.get().step(args, order)?;
                let prev = slot.insert(next);
                Ok(TableUndo {
                    key,
                    prev: Some(prev),
                })
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(FnEntry::first_call(args));
                Ok(TableUndo { key, prev: None })
            }
        }
    }

    /// In-place `ext` (Figure 6): records the call *without* the `prog?`
    /// check, for the call-sequence semantics. Returns the undo record and
    /// whether the extended sequence would have violated the principle —
    /// the information the completeness theorems quantify over.
    pub fn extend_unchecked_mut<O: WellFoundedOrder<V> + ?Sized>(
        &mut self,
        key: K,
        args: Rc<[V]>,
        order: &O,
    ) -> (TableUndo<K, V>, Option<ScViolation>) {
        let entry = match self.map.get(&key) {
            None => FnEntry::first_call(args),
            Some(prev) => prev.step_unchecked(args, order),
        };
        let violation = entry.seq.check().err();
        let prev = self.map.insert(key.clone(), entry);
        (TableUndo { key, prev }, violation)
    }

    /// Reverts an update when its call's dynamic extent ends.
    pub fn restore(&mut self, undo: TableUndo<K, V>) {
        match undo.prev {
            Some(entry) => {
                self.map.insert(undo.key, entry);
            }
            None => {
                self.map.remove(&undo.key);
            }
        }
    }

    /// Drops all entries (used when leaving a contract's dynamic extent).
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::AbsIntOrder;

    fn args(xs: &[i64]) -> Rc<[i64]> {
        Rc::from(xs.to_vec())
    }

    #[test]
    fn persistent_ack_trace() {
        // The (ack 2 0) spine of Figure 1 through the real table API.
        let t: ScTable<u32, i64> = ScTable::new();
        let t = t.update(7, args(&[2, 0]), &AbsIntOrder).unwrap();
        let t = t.update(7, args(&[1, 1]), &AbsIntOrder).unwrap();
        let t = t.update(7, args(&[1, 0]), &AbsIntOrder).unwrap();
        let t = t.update(7, args(&[0, 1]), &AbsIntOrder).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&7).unwrap().seq.len(), 3);
    }

    #[test]
    fn persistent_update_does_not_touch_old() {
        let t0: ScTable<u32, i64> = ScTable::new();
        let t1 = t0.update(1, args(&[5]), &AbsIntOrder).unwrap();
        let t2 = t1.update(1, args(&[4]), &AbsIntOrder).unwrap();
        assert!(t0.is_empty());
        assert_eq!(t1.get(&1).unwrap().seq.len(), 0);
        assert_eq!(t2.get(&1).unwrap().seq.len(), 1);
    }

    #[test]
    fn violation_reported_with_witness() {
        let t: ScTable<u32, i64> = ScTable::new();
        let t = t.update(1, args(&[5]), &AbsIntOrder).unwrap();
        let err = t.update(1, args(&[5]), &AbsIntOrder).unwrap_err();
        assert!(err.witness.is_idempotent());
        assert!(!err.witness.has_self_descent());
    }

    #[test]
    fn distinct_keys_are_independent() {
        // §2.2: SCP is only checked between calls to the *same* closure.
        let t: ScTable<u32, i64> = ScTable::new();
        let t = t.update(1, args(&[5]), &AbsIntOrder).unwrap();
        // Key 2 called with ascending values: fine, it's a different entry.
        let t = t.update(2, args(&[1]), &AbsIntOrder).unwrap();
        let t = t.update(2, args(&[2]), &AbsIntOrder);
        assert!(t.is_err(), "same key must still descend");
        let t2: ScTable<u32, i64> = ScTable::new()
            .update(1, args(&[5]), &AbsIntOrder)
            .unwrap()
            .update(2, args(&[100]), &AbsIntOrder)
            .unwrap();
        assert_eq!(t2.len(), 2);
    }

    #[test]
    fn mutable_update_and_restore() {
        let mut t: MutScTable<u32, i64> = MutScTable::new();
        let u1 = t.update_mut(1, args(&[5]), &AbsIntOrder).unwrap();
        let u2 = t.update_mut(1, args(&[4]), &AbsIntOrder).unwrap();
        assert_eq!(t.get(&1).unwrap().seq.len(), 1);
        t.restore(u2);
        assert_eq!(t.get(&1).unwrap().seq.len(), 0);
        // After restoring, a non-descending call relative to [5] fails...
        assert!(t.update_mut(1, args(&[6]), &AbsIntOrder).is_err());
        // ...and the failed update leaves the table unchanged.
        assert_eq!(t.get(&1).unwrap().seq.len(), 0);
        t.restore(u1);
        assert!(t.is_empty());
    }

    #[test]
    fn unchecked_extension_records_violation() {
        let t: ScTable<u32, i64> = ScTable::new()
            .extend_unchecked(1, args(&[5]), &AbsIntOrder)
            .extend_unchecked(1, args(&[5]), &AbsIntOrder);
        assert!(t.get(&1).unwrap().seq.check().is_err());
    }

    #[test]
    fn restore_interleaving_is_stack_like() {
        // Simulates f(5) -> f(4) -> return -> f(3): the table must track
        // the dynamic extent, not the global history.
        let mut t: MutScTable<u32, i64> = MutScTable::new();
        let u_outer = t.update_mut(1, args(&[5]), &AbsIntOrder).unwrap();
        let u_inner = t.update_mut(1, args(&[4]), &AbsIntOrder).unwrap();
        t.restore(u_inner);
        // Back in f(5)'s extent: calling f(3) compares against [5], len 1.
        let u_inner2 = t.update_mut(1, args(&[3]), &AbsIntOrder).unwrap();
        assert_eq!(t.get(&1).unwrap().seq.len(), 1);
        t.restore(u_inner2);
        t.restore(u_outer);
        assert!(t.is_empty());
    }
}
