//! Call sequences and the incremental `prog?` check (Figure 4).
//!
//! `prog?(gₙ…g₁) = ⋀_{1≤i≤j≤n} desc?(gᵢ;…;gⱼ)` — every contiguous
//! subsequence of the graphs observed so far, composed, must pass `desc?`.
//! Re-checking all O(n²) subsequences on every call would be hopeless, so
//! [`CallSeq`] maintains the *set* of composite graphs of contiguous
//! suffixes: when graph `gₙ` arrives,
//!
//! ```text
//! Sₙ = { c ; gₙ | c ∈ Sₙ₋₁ } ∪ { gₙ }
//! ```
//!
//! and only the members of `Sₙ` need a `desc?` check — subsequences ending
//! earlier were checked when they were the suffix. Because graphs over a
//! fixed arity form a *finite* set, `Sₙ` is bounded and deduplicated, so a
//! long-running loop reaches a fixed point and monitoring cost per call
//! stops growing. The equivalence with the naive definition is tested by
//! property tests in `tests/seq_props.rs`.
//!
//! # Representation and cost model
//!
//! The suffix composites are held as a **sorted vector of interned
//! [`GraphId`]s** — inline (no heap) up to four composites, spilling to a
//! shared `Rc<[GraphId]>` beyond that. All graph work is delegated to the
//! thread's graph [`Pool`]: composition is a memo-table hit and `desc?` is
//! a cached bit once a graph has been seen. Three consequences for the
//! monitor's hot path:
//!
//! * [`push`](CallSeq::push) only runs `desc?` on composites **newly
//!   created** by that push — carried-over members were checked when they
//!   first appeared (and `desc?` is memoized besides);
//! * when the composite set reaches its fixed point (`Sₙ = Sₙ₋₁`, which
//!   every terminating loop reaches because the semiring is finite), `push`
//!   returns a structurally shared sequence: no allocation, no checks, just
//!   K memo lookups for K composites;
//! * `CallSeq` remains a persistent value — [`push`](CallSeq::push) returns
//!   a new sequence and the old one stays valid, which is what the
//!   continuation-mark table strategy requires — but cloning is now a
//!   `Copy` of at most four words or one `Rc` bump.

use crate::graph::ScGraph;
use crate::intern::{self, GraphId, Pool};
use std::fmt;
use std::rc::Rc;

/// Witness that a call sequence violates the size-change principle: a
/// composite graph that is idempotent yet lacks a strict self-descent arc,
/// i.e. a loop shape that could repeat forever without progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScViolation {
    /// The offending composite graph.
    pub witness: ScGraph,
}

impl fmt::Display for ScViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "size-change violation: composite graph {} is idempotent with no self-descending arc",
            self.witness
        )
    }
}

impl std::error::Error for ScViolation {}

/// Composites stay inline (stack-only) up to this many ids.
const INLINE: usize = 4;

/// Stack scratch size for building the next composite set; pushes touching
/// more composites than this fall back to one heap allocation.
const SCRATCH: usize = 32;

#[derive(Clone)]
enum Composites {
    Inline { len: u8, ids: [GraphId; INLINE] },
    Heap(Rc<[GraphId]>),
}

impl Composites {
    fn empty() -> Composites {
        Composites::Inline {
            len: 0,
            ids: [GraphId::DUMMY; INLINE],
        }
    }

    fn from_sorted(ids: &[GraphId]) -> Composites {
        if ids.len() <= INLINE {
            let mut buf = [GraphId::DUMMY; INLINE];
            buf[..ids.len()].copy_from_slice(ids);
            Composites::Inline {
                len: ids.len() as u8,
                ids: buf,
            }
        } else {
            Composites::Heap(Rc::from(ids))
        }
    }

    fn as_slice(&self) -> &[GraphId] {
        match self {
            Composites::Inline { len, ids } => &ids[..*len as usize],
            Composites::Heap(ids) => ids,
        }
    }
}

/// The per-function sequence of size-change graphs `⃗g`, kept as the sorted
/// set of interned suffix-composite ids (see module docs). The ids live in
/// the pool of the thread that built the sequence, and a sequence never
/// leaves that thread (it is neither `Send` nor `Sync`).
///
/// # Examples
///
/// ```
/// use sct_core::graph::{Change, ScGraph};
/// use sct_core::seq::CallSeq;
///
/// let descend = ScGraph::from_arcs(1, 1, [(0, Change::Descend, 0)]);
/// let stay = ScGraph::from_arcs(1, 1, [(0, Change::NonAscend, 0)]);
///
/// // Strict descent forever is fine...
/// let mut seq = CallSeq::new();
/// for _ in 0..100 {
///     seq = seq.push(descend.clone()).expect("descent maintains prog?");
/// }
/// // ...but one stagnating self-call is caught at once.
/// assert!(seq.push(stay).is_err());
/// ```
#[derive(Clone)]
pub struct CallSeq {
    composites: Composites,
    len: usize,
}

impl Default for CallSeq {
    fn default() -> Self {
        CallSeq::new()
    }
}

impl CallSeq {
    /// The empty sequence (`⃗g = []`, stored for a function's first call).
    pub fn new() -> CallSeq {
        CallSeq {
            composites: Composites::empty(),
            len: 0,
        }
    }

    /// Number of graphs pushed so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no graph has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct suffix composites currently tracked; bounded by
    /// the (finite) number of graphs at this arity.
    pub fn composite_count(&self) -> usize {
        self.composites.as_slice().len()
    }

    /// The sorted interned ids of the current suffix composites.
    pub fn composite_ids(&self) -> &[GraphId] {
        self.composites.as_slice()
    }

    /// The current suffix composites, resolved against the thread's pool.
    pub fn composites(&self) -> Vec<ScGraph> {
        intern::with(|pool| {
            let ids = self.composites.as_slice();
            ids.iter().map(|&id| pool.graph(id).clone()).collect()
        })
    }

    /// Shared-structure successor: same composites, one more call.
    fn share_extended(&self) -> CallSeq {
        CallSeq {
            composites: self.composites.clone(),
            len: self.len + 1,
        }
    }

    /// Appends `g`: computes `Sₙ = { c ; g | c ∈ Sₙ₋₁ } ∪ { g }` and, when
    /// `checked`, runs `desc?` on the composites that are new to `Sₙ` —
    /// carried-over members passed when they first appeared, and at the
    /// fixed point no check runs at all. One borrow of the pool covers the
    /// whole step.
    fn extend(&self, g: ScGraph, checked: bool) -> Result<CallSeq, ScViolation> {
        intern::with(|pool| {
            let g = pool.intern(g);
            let old = self.composites.as_slice();
            let n = old.len() + 1;
            let mut stack_buf = [GraphId::DUMMY; SCRATCH];
            let mut heap_buf: Vec<GraphId> = Vec::new();
            let slots: &mut [GraphId] = if n <= SCRATCH {
                &mut stack_buf[..n]
            } else {
                heap_buf.resize(n, GraphId::DUMMY);
                &mut heap_buf[..]
            };
            let g_rows = pool.rows(g);
            let mut m = 0;
            slots[m] = g;
            m += 1;
            for &c in old {
                // Arity-incompatible composites cannot extend through g;
                // they are dropped, exactly as in the set-of-graphs
                // formulation.
                if pool.cols(c) == g_rows {
                    slots[m] = pool.compose(c, g);
                    m += 1;
                }
            }
            let filled = &mut slots[..m];
            filled.sort_unstable();
            let mut w = 1;
            for r in 1..m {
                if filled[r] != filled[w - 1] {
                    filled[w] = filled[r];
                    w += 1;
                }
            }
            let new_ids = &filled[..w];
            if new_ids == old {
                // Fixed point: the steady state of every long-running loop.
                return Ok(self.share_extended());
            }
            if checked {
                first_new_violation(pool, new_ids, old)?;
            }
            Ok(CallSeq {
                composites: Composites::from_sorted(new_ids),
                len: self.len + 1,
            })
        })
    }

    /// Appends a graph *with* the `prog?` check — the `upd` path of
    /// Figure 4. Only composites *new* to this push are `desc?`-checked.
    ///
    /// # Errors
    ///
    /// [`ScViolation`] when some contiguous subsequence composes to an
    /// idempotent graph with no strict self-descent, carrying the first
    /// new failing composite.
    pub fn push(&self, g: ScGraph) -> Result<CallSeq, ScViolation> {
        self.extend(g, true)
    }

    /// Appends a graph *without* checking — the `ext` function of the
    /// call-sequence semantics (Figure 6), used to state completeness.
    pub fn push_unchecked(&self, g: ScGraph) -> CallSeq {
        self.extend(g, false)
            .expect("unchecked extension never fails")
    }

    /// Checks `prog?` over **all** suffix composites currently tracked
    /// (unlike [`push`](CallSeq::push), which trusts carried-over members —
    /// this is the entry point after unchecked extension).
    ///
    /// # Errors
    ///
    /// [`ScViolation`] carrying the first failing composite found.
    pub fn check(&self) -> Result<(), ScViolation> {
        intern::with(|pool| first_new_violation(pool, self.composites.as_slice(), &[]))
    }
}

/// The first member of the sorted `ids` that is not in the sorted
/// `carried` and fails `desc?`, as a violation.
fn first_new_violation(
    pool: &Pool,
    ids: &[GraphId],
    carried: &[GraphId],
) -> Result<(), ScViolation> {
    // Both slices are sorted: walk them together and check only the ids
    // that were not already members.
    let mut oi = 0;
    for &id in ids {
        while oi < carried.len() && carried[oi] < id {
            oi += 1;
        }
        let carried_over = oi < carried.len() && carried[oi] == id;
        if !carried_over && !pool.desc_ok(id) {
            return Err(ScViolation {
                witness: pool.graph(id).clone(),
            });
        }
    }
    Ok(())
}

impl fmt::Debug for CallSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CallSeq(len={}, composite_ids={:?})",
            self.len,
            self.composites.as_slice()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Change;
    use crate::order::AbsIntOrder;

    fn g(arcs: &[(usize, Change, usize)]) -> ScGraph {
        ScGraph::from_arcs(2, 2, arcs.iter().copied())
    }

    #[test]
    fn ack_2_0_full_trace_passes() {
        // Figure 1's left spine plus the post-return sibling call.
        let steps: [(&[i64; 2], &[i64; 2]); 3] =
            [(&[2, 0], &[1, 1]), (&[1, 1], &[1, 0]), (&[1, 0], &[0, 1])];
        let mut seq = CallSeq::new();
        for (old, new) in steps {
            let graph = ScGraph::from_args(&AbsIntOrder, old, new);
            seq = seq.push(graph).expect("ack trace maintains prog?");
        }
        assert_eq!(seq.len(), 3);
    }

    #[test]
    fn buggy_ack_caught() {
        // §2.1: (ack 2 0) ↝ (ack 1 1) ↝ (ack 1 2) — last graph is
        // {(m→=m),(n→=m)}: idempotent, no self-descent.
        let seq = CallSeq::new();
        let seq = seq
            .push(ScGraph::from_args(&AbsIntOrder, &[2i64, 0], &[1, 1]))
            .unwrap();
        let err = seq
            .push(ScGraph::from_args(&AbsIntOrder, &[1i64, 1], &[1, 2]))
            .expect_err("non-descending call must violate");
        assert!(err.witness.is_idempotent());
        assert!(!err.witness.has_self_descent());
    }

    #[test]
    fn composites_reach_fixed_point() {
        // A two-graph alternation closes to finitely many composites and
        // the count stops growing.
        let a = g(&[(0, Change::Descend, 0), (1, Change::NonAscend, 1)]);
        let b = g(&[(0, Change::NonAscend, 0), (1, Change::Descend, 1)]);
        let mut seq = CallSeq::new();
        for i in 0..64 {
            let next = if i % 2 == 0 { a.clone() } else { b.clone() };
            seq = seq.push(next).unwrap();
        }
        assert!(seq.composite_count() <= 4, "composites stay bounded");
        assert_eq!(seq.len(), 64);
    }

    #[test]
    fn violation_found_across_composition() {
        // Each individual graph passes desc?, but their composition is the
        // identity-shaped swap loop: g_ab swaps 0→=1, 1→=0 — g;g is
        // idempotent with no descent.
        let swap = g(&[(0, Change::NonAscend, 1), (1, Change::NonAscend, 0)]);
        assert!(swap.desc_ok(), "swap alone passes desc? (not idempotent)");
        let seq = CallSeq::new().push(swap.clone()).unwrap();
        // Second swap: composite swap;swap = {0→=0, 1→=1} fails.
        assert!(seq.push(swap).is_err());
    }

    #[test]
    fn unchecked_extension_then_check() {
        let stay = g(&[(0, Change::NonAscend, 0)]);
        let seq = CallSeq::new().push_unchecked(stay);
        assert!(
            seq.check().is_err(),
            "ext records the violation for later inspection"
        );
        assert_eq!(seq.len(), 1);
    }

    #[test]
    fn persistence() {
        let descend = g(&[(0, Change::Descend, 0)]);
        let stay = g(&[(0, Change::NonAscend, 0)]);
        let s0 = CallSeq::new();
        let s1 = s0.push(descend).unwrap();
        let _err = s1.push(stay.clone()).unwrap_err();
        // s1 unchanged by the failed push; s0 still empty.
        assert_eq!(s1.len(), 1);
        assert!(s0.is_empty());
        assert!(s1.check().is_ok());
    }

    #[test]
    fn violation_display() {
        let stay = g(&[(0, Change::NonAscend, 0)]);
        let err = CallSeq::new().push(stay).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("size-change violation"), "got: {msg}");
    }

    #[test]
    fn fixed_point_push_shares_structure() {
        let descend = g(&[(0, Change::Descend, 0)]);
        let s1 = CallSeq::new().push(descend.clone()).unwrap();
        let s2 = s1.push(descend.clone()).unwrap();
        // Same single composite id, length advanced.
        assert_eq!(s1.composite_ids(), s2.composite_ids());
        assert_eq!(s2.len(), 2);
        // Large composite sets share the heap allocation at the fixed point.
        let mut seq = CallSeq::new();
        // Arity-8 rotation generates > INLINE distinct composites.
        let rot = ScGraph::from_arcs(8, 8, (0..8).map(|i| (i, Change::Descend, (i + 1) % 8)));
        for _ in 0..20 {
            seq = seq.push(rot.clone()).unwrap();
        }
        let before = seq.composite_ids().to_vec();
        let next = seq.push(rot.clone()).unwrap();
        assert_eq!(next.composite_ids(), &before[..]);
        assert!(before.len() > INLINE, "exercises the heap variant");
    }

    #[test]
    fn fresh_thread_pool_matches_warm_pool() {
        // The same pushes behave the same on a warm pool and on the empty
        // pool of a new thread.
        let run = || {
            let stay = g(&[(0, Change::NonAscend, 0)]);
            let descend = g(&[(0, Change::Descend, 0)]);
            let seq = CallSeq::new().push(descend).unwrap();
            (
                seq.check().is_ok(),
                seq.push(stay).is_err(),
                seq.composites().len(),
            )
        };
        let warm = run();
        assert_eq!(warm, (true, true, 1));
        assert_eq!(std::thread::spawn(run).join().unwrap(), warm);
    }
}
