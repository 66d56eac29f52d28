//! The size-change table `m ∈ v ⇀ ⃗v × ⃗g` (Figure 3), in the two flavors the
//! paper evaluates in §5.
//!
//! * [`ScTable`] is **persistent**: `update` returns a new table and leaves
//!   the old one intact. The continuation-mark strategy stores one of these
//!   per mark; returning from a call discards the mark, restoring the
//!   caller's table — the dynamic-extent threading of rule [SC-App-Clo]
//!   with no undo machinery and with proper tail calls preserved.
//! * [`MonitorStack`] is **imperative**: one LIFO stack of the checked
//!   calls still in their dynamic extent. A call pushes a frame (its
//!   arguments go into one shared arena) and the interpreter pushes a
//!   payload-free restore continuation frame that pops it on return.
//!   Cheap lookups and no allocation per call, but every application now
//!   pushes a frame — exactly how the imperative strategy "breaks proper
//!   tail calls" (§5).
//!
//! Both flavors are generic in the closure key `K` (the interpreter uses a
//! structural closure fingerprint per §5's "hash the closure") and the
//! argument value `V`.

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

/// Marks "no frame": a slot with no pending call, or a frame whose call
/// shadows no earlier call of its function.
const NONE: u32 = u32::MAX;

/// Slack of the slot map: once it holds more than twice the pending
/// frames plus this many keys, the keys with no pending call are dropped
/// before the next one is added, so functions whose calls have all
/// returned cannot grow it without bound.
const SLOT_SLACK: usize = 1024;

/// One checked call still inside its dynamic extent.
struct Frame {
    /// Dense slot of the callee's key.
    slot: u32,
    /// Where the call's arguments start in the shared arena; they end
    /// where the next frame's start (or at the arena's end).
    args_start: u32,
    /// The slot's previous innermost frame, which this call shadows and
    /// which becomes the slot's entry again when it returns.
    prev: u32,
    /// The callee's graph sequence including this call.
    seq: CallSeq,
}

/// A function's entry in a [`MonitorStack`], borrowed from its innermost
/// pending call.
#[derive(Debug)]
pub struct StackEntry<'a, V> {
    /// Arguments of the most recent call (`⃗vₙ`).
    pub last_args: &'a [V],
    /// The graph sequence `⃗g`, as suffix composites.
    pub seq: &'a CallSeq,
}

/// The imperative size-change table of §5's first strategy, kept as one
/// LIFO stack of the checked calls still in their dynamic extent.
///
/// A checked call pushes a frame holding its callee's slot, its graph
/// sequence and a link to the slot's previous frame, and copies its
/// arguments into one shared arena; the matching return pops it, which
/// makes the previous frame the slot's entry again. Keys resolve to
/// dense slots through an insert-only map (compacted in bulk once keys
/// with no pending call outnumber the frames), so a call makes one hash
/// lookup, a return none, and neither allocates once the stack has grown
/// to its working depth.
///
/// # Examples
///
/// ```
/// use sct_core::order::AbsIntOrder;
/// use sct_core::table::MonitorStack;
///
/// let mut t: MonitorStack<&str, i64> = MonitorStack::new();
/// t.push("f", &[3], &AbsIntOrder).unwrap();
/// t.push("f", &[2], &AbsIntOrder).unwrap();
/// assert!(t.push("f", &[2], &AbsIntOrder).is_err()); // no descent
/// t.pop(); // f(2) returned: f's entry is f(3) again
/// assert_eq!(t.get(&"f").unwrap().last_args, &[3]);
/// t.pop();
/// assert!(t.is_empty());
/// ```
pub struct MonitorStack<K, V> {
    slots: HashMap<K, u32, FxBuildHasher>,
    /// Per slot, its innermost pending frame, or `NONE`.
    heads: Vec<u32>,
    frames: Vec<Frame>,
    args: Vec<V>,
}

impl<K: Hash + Eq + std::fmt::Debug, V: std::fmt::Debug> std::fmt::Debug for MonitorStack<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(self.slots.iter().filter_map(|(key, &slot)| {
                let head = self.heads[slot as usize];
                (head != NONE).then(|| (key, self.entry(head)))
            }))
            .finish()
    }
}

impl<K, V> Default for MonitorStack<K, V> {
    fn default() -> Self {
        MonitorStack {
            slots: HashMap::default(),
            heads: Vec::new(),
            frames: Vec::new(),
            args: Vec::new(),
        }
    }
}

impl<K: Hash + Eq, V> MonitorStack<K, V> {
    /// The empty table.
    pub fn new() -> MonitorStack<K, V> {
        MonitorStack::default()
    }

    /// Number of checked calls still pending.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// True when no checked call is pending, so no function is tracked.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The entry for a function: its innermost pending call, if any.
    pub fn get(&self, key: &K) -> Option<StackEntry<'_, V>> {
        let head = self.heads[*self.slots.get(key)? as usize];
        (head != NONE).then(|| self.entry(head))
    }

    fn entry(&self, frame: u32) -> StackEntry<'_, V> {
        let i = frame as usize;
        let end = self
            .frames
            .get(i + 1)
            .map_or(self.args.len(), |next| next.args_start as usize);
        StackEntry {
            last_args: &self.args[self.frames[i].args_start as usize..end],
            seq: &self.frames[i].seq,
        }
    }

    /// Figure 4's `upd(m, v, ⃗vₙ)` in place: on success a frame for the
    /// call is pushed; on violation the table is left unchanged.
    ///
    /// # Errors
    ///
    /// [`ScViolation`] when the function's extended graph sequence violates
    /// the size-change principle — the caller turns this into `errorSC`.
    pub fn push<O: WellFoundedOrder<V> + ?Sized>(
        &mut self,
        key: K,
        args: &[V],
        order: &O,
    ) -> Result<(), ScViolation>
    where
        V: Clone,
    {
        let slot = self.slot(key);
        let prev = self.heads[slot as usize];
        let seq = match self.graph_from(prev, args, order) {
            None => CallSeq::new(),
            Some((seq, g)) => seq.push(g)?,
        };
        self.push_frame(slot, prev, seq, args);
        Ok(())
    }

    /// Figure 6's `ext(m, v, ⃗vₙ)` in place: pushes a frame for the call
    /// *without* the `prog?` check, for the call-sequence semantics, and
    /// returns whether the extended sequence violates the principle — the
    /// information the completeness theorems quantify over.
    pub fn push_unchecked<O: WellFoundedOrder<V> + ?Sized>(
        &mut self,
        key: K,
        args: &[V],
        order: &O,
    ) -> Option<ScViolation>
    where
        V: Clone,
    {
        let slot = self.slot(key);
        let prev = self.heads[slot as usize];
        let seq = match self.graph_from(prev, args, order) {
            None => CallSeq::new(),
            Some((seq, g)) => seq.push_unchecked(g),
        };
        let violation = seq.check().err();
        self.push_frame(slot, prev, seq, args);
        violation
    }

    /// Ends the innermost pending call's dynamic extent: its function's
    /// entry reverts to the call it shadowed.
    ///
    /// # Panics
    ///
    /// Panics when no call is pending — a return without its call.
    pub fn pop(&mut self) {
        let frame = self
            .frames
            .pop()
            .expect("MonitorStack::pop matches an earlier push");
        self.args.truncate(frame.args_start as usize);
        self.heads[frame.slot as usize] = frame.prev;
    }

    /// The graph from the call in frame `prev` (when there is one) to
    /// `args`, with the sequence it extends.
    fn graph_from<O: WellFoundedOrder<V> + ?Sized>(
        &self,
        prev: u32,
        args: &[V],
        order: &O,
    ) -> Option<(&CallSeq, ScGraph)> {
        (prev != NONE).then(|| {
            let entry = self.entry(prev);
            (entry.seq, ScGraph::from_args(order, entry.last_args, args))
        })
    }

    fn push_frame(&mut self, slot: u32, prev: u32, seq: CallSeq, args: &[V])
    where
        V: Clone,
    {
        self.heads[slot as usize] = index(self.frames.len());
        self.frames.push(Frame {
            slot,
            args_start: index(self.args.len()),
            prev,
            seq,
        });
        self.args.extend_from_slice(args);
    }

    /// The key's dense slot, registering the key on first sight.
    fn slot(&mut self, key: K) -> u32 {
        if self.slots.len() > 2 * self.frames.len() + SLOT_SLACK {
            self.compact();
        }
        let fresh = index(self.heads.len());
        let slot = *self.slots.entry(key).or_insert(fresh);
        if slot == fresh {
            self.heads.push(NONE);
        }
        slot
    }

    /// Drops the keys with no pending call and renumbers the others.
    fn compact(&mut self) {
        let mut renumber = vec![NONE; self.heads.len()];
        let mut heads = Vec::new();
        let old_heads = &self.heads;
        self.slots.retain(|_, slot| {
            let head = old_heads[*slot as usize];
            if head == NONE {
                return false;
            }
            renumber[*slot as usize] = index(heads.len());
            *slot = index(heads.len());
            heads.push(head);
            true
        });
        for frame in &mut self.frames {
            frame.slot = renumber[frame.slot as usize];
        }
        self.heads = heads;
    }
}

/// A frame, slot or arena position as a `u32` index.
fn index(n: usize) -> u32 {
    u32::try_from(n).expect("monitor stack index fits in u32")
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
        let mut t: MonitorStack<u32, i64> = MonitorStack::new();
        t.push(1, &[5], &AbsIntOrder).unwrap();
        t.push(1, &[4], &AbsIntOrder).unwrap();
        assert_eq!(t.get(&1).unwrap().seq.len(), 1);
        t.pop();
        assert_eq!(t.get(&1).unwrap().seq.len(), 0);
        // After restoring, a non-descending call relative to [5] fails...
        assert!(t.push(1, &[6], &AbsIntOrder).is_err());
        // ...and the failed update leaves the table unchanged.
        assert_eq!(t.get(&1).unwrap().seq.len(), 0);
        t.pop();
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
        let mut t: MonitorStack<u32, i64> = MonitorStack::new();
        t.push(1, &[5], &AbsIntOrder).unwrap();
        t.push(1, &[4], &AbsIntOrder).unwrap();
        t.pop();
        // Back in f(5)'s extent: calling f(3) compares against [5], len 1.
        t.push(1, &[3], &AbsIntOrder).unwrap();
        assert_eq!(t.get(&1).unwrap().seq.len(), 1);
        t.pop();
        t.pop();
        assert!(t.is_empty());
    }

    #[test]
    fn keys_with_no_pending_call_are_compacted_away() {
        // One pending outer call, then many distinct keys called and
        // returned: the slot map stays bounded and the outer entry holds.
        let mut t: MonitorStack<u32, i64> = MonitorStack::new();
        t.push(0, &[100], &AbsIntOrder).unwrap();
        for key in 1..=(4 * SLOT_SLACK as u32) {
            t.push(key, &[1, 2], &AbsIntOrder).unwrap();
            t.pop();
        }
        assert!(t.slots.len() <= 2 * t.depth() + SLOT_SLACK + 1);
        assert_eq!(t.get(&0).unwrap().last_args, &[100]);
        assert!(t.get(&7).is_none());
        t.push(0, &[99], &AbsIntOrder).unwrap();
        assert_eq!(t.get(&0).unwrap().seq.len(), 1);
        t.pop();
        t.pop();
        assert!(t.is_empty());
    }
}
