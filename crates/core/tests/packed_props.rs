//! Property tests for the bit-packed graph representation and the graph
//! interner.
//!
//! The packed form (two `u64` masks, arities ≤ 8) and the dense byte
//! matrix must be *observationally identical*: every operation the monitor
//! uses — `compose`, `desc_ok`, `is_idempotent`, `from_args`, `Hash`/`Eq`
//! — is checked here on random graphs at every arity pair in 1–8, running
//! the packed graph against its `force_dense()` twin (which exercises the
//! fallback code path at small arities, where normal construction would
//! always pack).
//!
//! The interner tests establish that hash-consing and the composition
//! memo table are pure caches: interning is idempotent, memoized answers
//! equal direct computation, and repetition changes nothing. They run on
//! the thread's graph pool, which earlier cases have already warmed; the
//! call-sequence property compares it with the empty pool of a new thread.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sct_core::graph::{Change, ScGraph};
use sct_core::intern;
use sct_core::order::AbsIntOrder;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Builds an `r × c` graph from a 64-entry cell sheet (stride 8, values
/// taken mod 3: empty / non-ascend / descend).
fn build(rows: usize, cols: usize, cells: &[u8]) -> ScGraph {
    let mut g = ScGraph::empty(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            match cells[i * 8 + j] {
                1 => g.add_arc(i, Change::NonAscend, j),
                2 => g.add_arc(i, Change::Descend, j),
                _ => {}
            }
        }
    }
    g
}

fn cells64() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..3, 64)
}

fn hash_of(g: &ScGraph) -> u64 {
    let mut h = DefaultHasher::new();
    g.hash(&mut h);
    h.finish()
}

/// Cell-by-cell agreement via the public accessor.
fn same_cells(a: &ScGraph, b: &ScGraph) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && (0..a.rows()).all(|i| (0..a.cols()).all(|j| a.get(i, j) == b.get(i, j)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn packed_and_dense_compose_agree(
        dims in (1usize..=8, 1usize..=8, 1usize..=8),
        cells_a in cells64(),
        cells_b in cells64(),
    ) {
        let (r, m, c) = dims;
        let a = build(r, m, &cells_a);
        let b = build(m, c, &cells_b);
        prop_assert!(!a.is_dense_repr(), "small arities must pack");
        let packed = a.compose(&b);
        let dense = a.force_dense().compose(&b.force_dense());
        prop_assert!(dense.is_dense_repr(), "dense composition stays dense");
        prop_assert!(same_cells(&packed, &dense), "{packed:?} vs {dense:?}");
        prop_assert_eq!(&packed, &dense);
        // Mixed representations take the fallback path and still agree.
        let mixed = a.force_dense().compose(&b);
        prop_assert_eq!(&packed, &mixed);
    }

    #[test]
    fn packed_and_dense_closure_properties_agree(
        n in 1usize..=8,
        cells in cells64(),
    ) {
        let g = build(n, n, &cells);
        let d = g.force_dense();
        prop_assert_eq!(g.is_idempotent(), d.is_idempotent());
        prop_assert_eq!(g.has_self_descent(), d.has_self_descent());
        prop_assert_eq!(g.desc_ok(), d.desc_ok());
    }

    #[test]
    fn non_square_dims_never_idempotent(
        dims in (1usize..=8, 1usize..=8),
        cells in cells64(),
    ) {
        let (r, c) = dims;
        let g = build(r, c, &cells);
        if r != c {
            prop_assert!(!g.is_idempotent());
            prop_assert!(!g.has_self_descent());
            prop_assert!(g.desc_ok());
        }
    }

    #[test]
    fn from_args_matches_cellwise_reference(
        old in proptest::collection::vec(-20i64..20, 1..=8),
        new in proptest::collection::vec(-20i64..20, 1..=8),
    ) {
        use sct_core::order::{SizeChange, WellFoundedOrder};
        let g = ScGraph::from_args(&AbsIntOrder, &old, &new);
        prop_assert_eq!(g.rows(), old.len());
        prop_assert_eq!(g.cols(), new.len());
        for (i, vi) in old.iter().enumerate() {
            for (j, vj) in new.iter().enumerate() {
                let expect = match AbsIntOrder.relate(vi, vj) {
                    SizeChange::Descend => Some(Change::Descend),
                    SizeChange::Equal => Some(Change::NonAscend),
                    SizeChange::Unknown => None,
                };
                prop_assert_eq!(g.get(i, j), expect, "cell ({}, {})", i, j);
            }
        }
        // The packed result round-trips through the dense representation.
        prop_assert_eq!(&g.force_dense(), &g);
    }

    #[test]
    fn hash_and_eq_are_representation_independent(
        dims in (1usize..=8, 1usize..=8),
        cells_a in cells64(),
        cells_b in cells64(),
    ) {
        let (r, c) = dims;
        let a = build(r, c, &cells_a);
        let b = build(r, c, &cells_b);
        let (da, db) = (a.force_dense(), b.force_dense());
        // Same graph, different representation: equal both ways, same hash.
        prop_assert_eq!(&a, &da);
        prop_assert_eq!(&da, &a);
        prop_assert_eq!(hash_of(&a), hash_of(&da));
        // Different graphs stay different across representations; equal
        // graphs hash equal across representations.
        prop_assert_eq!(a == b, da == db);
        prop_assert_eq!(a == b, a == db);
        if a == b {
            prop_assert_eq!(hash_of(&a), hash_of(&db));
        }
    }

    #[test]
    fn interner_hash_consing_is_idempotent(
        dims in (1usize..=8, 1usize..=8),
        cells in cells64(),
    ) {
        let (r, c) = dims;
        let g = build(r, c, &cells);
        intern::with(|pool| {
            let id = pool.intern(g.clone());
            prop_assert_eq!(pool.intern(g.clone()), id);
            prop_assert_eq!(pool.intern(g.force_dense()), id, "dense twin interns to the same id");
            prop_assert_eq!(pool.graph(id), &g);
            prop_assert_eq!(pool.rows(id), g.rows());
            prop_assert_eq!(pool.cols(id), g.cols());
            prop_assert_eq!(pool.desc_ok(id), g.desc_ok());
            prop_assert_eq!(pool.is_idempotent(id), g.is_idempotent());
            Ok::<(), TestCaseError>(())
        })?;
    }

    #[test]
    fn interner_compose_memoization_is_observationally_pure(
        m in 1usize..=8,
        sheets in proptest::collection::vec(cells64(), 1..6),
    ) {
        // Square graphs at one arity so every pair composes.
        let graphs: Vec<ScGraph> = sheets.iter().map(|s| build(m, m, s)).collect();
        intern::with(|pool| {
            let ids: Vec<_> = graphs.iter().map(|g| pool.intern(g.clone())).collect();
            // First pass: record every pairwise composition.
            let mut first = Vec::new();
            for (&a, ga) in ids.iter().zip(&graphs) {
                for (&b, gb) in ids.iter().zip(&graphs) {
                    let ab = pool.compose(a, b);
                    // Memoized answer equals direct computation...
                    prop_assert_eq!(pool.graph(ab), &ga.compose(gb));
                    // ...and its memoized properties match the graph's.
                    prop_assert_eq!(pool.desc_ok(ab), ga.compose(gb).desc_ok());
                    first.push(ab);
                }
            }
            let graphs_before = pool.len();
            let cache_before = pool.compose_cache_len();
            // Second pass in reverse order: pure cache hits, identical ids,
            // and no growth of either table.
            let mut second = Vec::new();
            for &a in ids.iter() {
                for &b in ids.iter() {
                    second.push(pool.compose(a, b));
                }
            }
            prop_assert_eq!(first, second);
            prop_assert_eq!(pool.len(), graphs_before);
            prop_assert_eq!(pool.compose_cache_len(), cache_before);
            Ok::<(), TestCaseError>(())
        })?;
    }

    #[test]
    fn callseq_over_private_pool_matches_global(
        sheets in proptest::collection::vec(cells64(), 0..10),
    ) {
        use sct_core::seq::{CallSeq, ScViolation};
        // The same push sequence must accept/reject identically on this
        // thread's warm pool and on the empty pool of a new thread. Each
        // run reports per push its composite count, or the witness of the
        // violation that ended it.
        let graphs: Vec<ScGraph> = sheets.iter().map(|s| build(2, 2, s)).collect();
        let run = |graphs: Vec<ScGraph>| -> Vec<Result<usize, ScViolation>> {
            let mut seq = CallSeq::new();
            let mut out = Vec::new();
            for g in graphs {
                match seq.push(g) {
                    Ok(next) => {
                        out.push(Ok(next.composite_count()));
                        seq = next;
                    }
                    Err(e) => {
                        out.push(Err(e));
                        break;
                    }
                }
            }
            out
        };
        let private = {
            let graphs = graphs.clone();
            std::thread::spawn(move || run(graphs)).join().unwrap()
        };
        let global = run(graphs);
        prop_assert_eq!(global.len(), private.len(), "pools disagree on where the run stops");
        for (a, b) in global.iter().zip(&private) {
            match (a, b) {
                (Ok(ca), Ok(cb)) => prop_assert_eq!(ca, cb),
                (Err(ea), Err(eb)) => {
                    // Which failing composite is reported first depends on
                    // id order, which is pool-local; both witnesses must
                    // still be genuine violations.
                    prop_assert!(!ea.witness.desc_ok());
                    prop_assert!(!eb.witness.desc_ok());
                }
                (a, b) => prop_assert!(false, "pools disagree: {:?} vs {:?}", a.is_ok(), b.is_ok()),
            }
        }
    }
}
