//! Hash-consing of size-change graphs with memoized closure properties.
//!
//! Ben-Amram's survey observes that size-change graphs over fixed arities
//! form a *finite* composition semiring — which is exactly the structure
//! that rewards interning: a long-running loop cycles through a tiny set
//! of distinct graphs, so after a warm-up period every graph the monitor
//! sees is already known. The graph [`Pool`] exploits this three ways:
//!
//! 1. **Hash-consing**: every distinct [`ScGraph`] is stored once and
//!    identified by a `Copy` [`GraphId`]; graph equality on the hot path
//!    becomes integer equality.
//! 2. **Intern-time property memoization**: `desc?` (an idempotence check
//!    requiring a full self-composition) and `is_idempotent` are computed
//!    **once per distinct graph** when it is first interned; afterwards
//!    [`Pool::desc_ok`] is an array load.
//! 3. **Composition memoization**: `(GraphId, GraphId) → GraphId` is
//!    cached, so once a [`crate::seq::CallSeq`] reaches its fixed point,
//!    extending it performs only cache lookups — zero allocation and zero
//!    matrix work per monitored call.
//!
//! # One pool per thread
//!
//! Each thread owns exactly one pool, reached through [`with`]; there is
//! no handle to pass around and no way to build a second pool. Every call
//! sequence and size-change table on a thread interns into it, so graphs
//! warmed by one monitored run are free for the next. An id names a graph
//! only on the thread that interned it, which is why [`GraphId`] is
//! neither `Send` nor `Sync`. [`with`] borrows the pool for the whole
//! closure: a caller does all the pool work of one step inside one call
//! (one thread-local access, one `RefCell` borrow) and must not call back
//! into user code, such as a well-founded order, while it holds the pool.
//!
//! # Examples
//!
//! ```
//! use sct_core::graph::{Change, ScGraph};
//! use sct_core::intern;
//!
//! let g = ScGraph::from_arcs(2, 2, [(0, Change::Descend, 0)]);
//! intern::with(|pool| {
//!     let id = pool.intern(g.clone());
//!     assert_eq!(pool.intern(g), id);        // hash-consed
//!     assert!(pool.desc_ok(id));             // memoized at intern time
//!     let sq = pool.compose(id, id);         // memoized composition
//!     assert_eq!(pool.compose(id, id), sq);  // pure: same answer, cached
//! });
//! ```

use crate::graph::ScGraph;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::marker::PhantomData;

/// The workspace's table hasher, shared with the reader's symbol table.
pub use sct_sexpr::{FxBuildHasher, FxHasher};

/// Interned handle to a size-change graph: `Copy`, word-sized, and totally
/// ordered (by interning sequence, which is stable within a pool) so sets
/// of graphs can be kept as sorted id vectors.
///
/// An id is meaningful only in the pool of the thread that interned it,
/// so it cannot cross threads:
///
/// ```compile_fail
/// fn send<T: Send>() {}
/// send::<sct_core::intern::GraphId>();
/// ```
///
/// ```compile_fail
/// fn sync<T: Sync>() {}
/// sync::<sct_core::intern::GraphId>();
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GraphId(u32, PhantomData<*const ()>);

impl GraphId {
    /// Placeholder for not-yet-filled slots in fixed-size id buffers; never
    /// a valid pool index (pools cap out before `u32::MAX`).
    pub(crate) const DUMMY: GraphId = GraphId(u32::MAX, PhantomData);

    /// Index of this id in its pool (dense, starting at 0).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for GraphId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GraphId({})", self.0)
    }
}

struct Entry {
    graph: ScGraph,
    rows: u16,
    cols: u16,
    desc_ok: bool,
    idempotent: bool,
}

/// A thread's graph pool: hash-conses [`ScGraph`]s into [`GraphId`]s and
/// memoizes `desc?`, idempotence, and binary composition. Reached only
/// through [`with`].
pub struct Pool {
    entries: Vec<Entry>,
    ids: HashMap<ScGraph, GraphId, FxBuildHasher>,
    /// `(a « 32) | b → a ; b`.
    compose: HashMap<u64, GraphId, FxBuildHasher>,
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool {
        entries: Vec::new(),
        ids: HashMap::default(),
        compose: HashMap::default(),
    });
}

/// Runs `f` on this thread's pool.
///
/// # Panics
///
/// Panics when `f` calls `with` again.
pub fn with<R>(f: impl FnOnce(&mut Pool) -> R) -> R {
    POOL.with(|pool| f(&mut pool.borrow_mut()))
}

impl Pool {
    /// Interns a graph, computing `desc?`/idempotence if it is new.
    pub fn intern(&mut self, g: ScGraph) -> GraphId {
        if let Some(&id) = self.ids.get(&g) {
            return id;
        }
        let index = u32::try_from(self.entries.len()).expect("graph pool overflow");
        let id = GraphId(index, PhantomData);
        // Closure properties are computed exactly once, here.
        let idempotent = g.is_idempotent();
        let desc_ok = !idempotent || g.has_self_descent();
        self.entries.push(Entry {
            rows: g.rows() as u16,
            cols: g.cols() as u16,
            desc_ok,
            idempotent,
            graph: g.clone(),
        });
        self.ids.insert(g, id);
        id
    }

    /// The interned graph.
    pub fn graph(&self, id: GraphId) -> &ScGraph {
        &self.entries[id.index()].graph
    }

    /// Memoized `desc?` (Figure 4) — an array load after interning.
    pub fn desc_ok(&self, id: GraphId) -> bool {
        self.entries[id.index()].desc_ok
    }

    /// Memoized idempotence.
    pub fn is_idempotent(&self, id: GraphId) -> bool {
        self.entries[id.index()].idempotent
    }

    /// Arity of the earlier call of the interned graph.
    pub fn rows(&self, id: GraphId) -> usize {
        self.entries[id.index()].rows as usize
    }

    /// Arity of the later call of the interned graph.
    pub fn cols(&self, id: GraphId) -> usize {
        self.entries[id.index()].cols as usize
    }

    /// Memoized sequential composition `a ; b`.
    ///
    /// # Panics
    ///
    /// Panics when the arities don't line up, exactly like
    /// [`ScGraph::compose`].
    pub fn compose(&mut self, a: GraphId, b: GraphId) -> GraphId {
        let key = ((a.0 as u64) << 32) | b.0 as u64;
        if let Some(&id) = self.compose.get(&key) {
            return id;
        }
        let composed = self.entries[a.index()]
            .graph
            .compose(&self.entries[b.index()].graph);
        let id = self.intern(composed);
        self.compose.insert(key, id);
        id
    }

    /// Number of distinct graphs interned so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of memoized compositions (for tests and diagnostics).
    pub fn compose_cache_len(&self) -> usize {
        self.compose.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Change;

    fn d(i: usize, j: usize) -> (usize, Change, usize) {
        (i, Change::Descend, j)
    }

    fn e(i: usize, j: usize) -> (usize, Change, usize) {
        (i, Change::NonAscend, j)
    }

    #[test]
    fn interning_dedupes() {
        with(|pool| {
            let before = pool.len();
            let a = pool.intern(ScGraph::from_arcs(2, 2, [d(0, 0)]));
            let b = pool.intern(ScGraph::from_arcs(2, 2, [d(0, 0)]));
            let c = pool.intern(ScGraph::from_arcs(2, 2, [e(0, 0)]));
            assert_eq!(a, b);
            assert_ne!(a, c);
            assert_eq!(pool.len(), before + 2);
        });
    }

    #[test]
    fn properties_memoized_at_intern_time() {
        with(|pool| {
            let good = pool.intern(ScGraph::from_arcs(1, 1, [d(0, 0)]));
            let bad = pool.intern(ScGraph::from_arcs(1, 1, [e(0, 0)]));
            assert!(pool.desc_ok(good) && pool.is_idempotent(good));
            assert!(!pool.desc_ok(bad) && pool.is_idempotent(bad));
            assert_eq!(pool.rows(good), 1);
            assert_eq!(pool.cols(good), 1);
        });
    }

    #[test]
    fn composition_memoized_and_correct() {
        with(|pool| {
            let g1 = ScGraph::from_arcs(2, 2, [d(0, 0)]);
            let g2 = ScGraph::from_arcs(2, 2, [e(0, 0), d(1, 1)]);
            let a = pool.intern(g1.clone());
            let b = pool.intern(g2.clone());
            let (graphs, memo) = (pool.len(), pool.compose_cache_len());
            let ab = pool.compose(a, b);
            assert_eq!(pool.graph(ab), &g1.compose(&g2));
            // §2.1: the composite equals g1, so no new graph was interned.
            assert_eq!(ab, a);
            assert_eq!(pool.len(), graphs);
            // Second call hits the cache (observational purity checked by
            // the property tests; here just the id stability).
            assert_eq!(pool.compose(a, b), ab);
            assert_eq!(pool.compose_cache_len(), memo + 1);
        });
    }

    #[test]
    fn each_thread_has_one_pool() {
        // Two borrows on one thread reach the same pool...
        let id = with(|pool| pool.intern(ScGraph::empty(1, 1)));
        assert_eq!(with(|pool| pool.intern(ScGraph::empty(1, 1))), id);
        // ...and a new thread starts from an empty pool of its own.
        let fresh = std::thread::spawn(|| {
            with(|pool| (pool.is_empty(), pool.intern(ScGraph::empty(2, 2)).index()))
        })
        .join()
        .unwrap();
        assert_eq!(fresh, (true, 0));
    }

    #[test]
    fn fx_hasher_spreads_small_keys() {
        // Sanity: distinct u64 keys land on distinct hashes (no collisions
        // among a small dense range — the compose-cache key shape).
        use std::collections::HashSet;
        use std::hash::Hasher;
        let mut seen = HashSet::new();
        for a in 0u64..64 {
            for b in 0u64..64 {
                let mut h = FxHasher::default();
                h.write_u64((a << 32) | b);
                seen.insert(h.finish());
            }
        }
        assert_eq!(seen.len(), 64 * 64);
    }
}
