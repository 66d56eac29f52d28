//! Differential property tests for the Figure 5 value orders and `equal?`.
//!
//! The production walks are iterative and prune by cached sizes and
//! hashes; the specs here are the naive recursive definitions:
//!
//! * `v ≺ (a, d)` iff `v ⪯ a` or `v ⪯ d` (subterm rule), `n₁ ≺ n₂` iff
//!   `|n₁| < |n₂|` on integers, equal values relate by `⪯`;
//! * [`ExtendedOrder`] adds the pointwise rule on pairs and on hashes with
//!   the same keys;
//! * `equal?` compares pairs and hashes structurally, strings by content,
//!   closures by lambda and captured-environment fingerprint.
//!
//! Generated values share substructure, mix fixnums, bignums, strings,
//! symbols, closures and hashes, and are related to needles that equal
//! the haystack, sit inside it (shared or freshly copied), or lie outside.

use proptest::prelude::*;
use sct_core::order::{SizeChange, WellFoundedOrder};
use sct_interp::value::HashData;
use sct_interp::{equal, eval_str, DefaultOrder, ExtendedOrder, Value};
use sct_persist::PMap;
use std::rc::Rc;

/// Atoms, closures and hashes the generated structures are built from:
/// equal-but-distinct closures (`(adder 1)` twice), bignums of both signs,
/// and hashes that are pointwise related, equal, or differently keyed.
const PALETTE: &str = "
(define (adder k) (lambda (x) (+ x k)))
(define big (* 4294967296 4294967296))
(list 0 3 -3 7 big (- 0 big) (+ big 1) \"ab\" \"ab\" \"abc\" 'a 'b '() #t #\\c
      (adder 1) (adder 1) (adder 2) (lambda (y) y) car
      (hash 'n 3 'f 'g) (hash 'n 2 'f 'g) (hash 'n 3 'f 'g) (hash 1 '(1 2)))";

fn spec_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Pair(p), Value::Pair(q)) => {
            spec_equal(&p.car, &q.car) && spec_equal(&p.cdr, &q.cdr)
        }
        (Value::Hash(h), Value::Hash(g)) => {
            h.map.len() == g.map.len()
                && h.map.iter().all(|(k, v)| {
                    g.map
                        .iter()
                        .any(|(k2, v2)| spec_equal(k, k2) && spec_equal(v, v2))
                })
        }
        (Value::Fix(_) | Value::Big(_), Value::Fix(_) | Value::Big(_)) => a.to_int() == b.to_int(),
        (Value::Str(s), Value::Str(t)) | (Value::Sym(s), Value::Sym(t)) => s[..] == t[..],
        (Value::Closure(c), Value::Closure(d)) => {
            c.def.id == d.def.id && c.fingerprint == d.fingerprint
        }
        (Value::Prim(x), Value::Prim(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Char(x), Value::Char(y)) => x == y,
        (Value::Nil, Value::Nil) => true,
        _ => false,
    }
}

/// `needle ≺ haystack` by the subterm rule alone.
fn spec_subterm(needle: &Value, haystack: &Value) -> bool {
    match haystack {
        Value::Pair(p) => [&p.car, &p.cdr]
            .into_iter()
            .any(|part| spec_equal(needle, part) || spec_subterm(needle, part)),
        _ => false,
    }
}

fn spec_int(old: &Value, new: &Value) -> Option<SizeChange> {
    let (a, b) = (old.to_int()?, new.to_int()?);
    Some(if a == b {
        SizeChange::Equal
    } else if b.cmp_abs(&a) == std::cmp::Ordering::Less {
        SizeChange::Descend
    } else {
        SizeChange::Unknown
    })
}

fn spec_default(old: &Value, new: &Value) -> SizeChange {
    if let Some(sc) = spec_int(old, new) {
        sc
    } else if spec_equal(old, new) {
        SizeChange::Equal
    } else if spec_subterm(new, old) {
        SizeChange::Descend
    } else {
        SizeChange::Unknown
    }
}

fn weakly_below(sc: SizeChange) -> bool {
    matches!(sc, SizeChange::Descend | SizeChange::Equal)
}

fn spec_extended(old: &Value, new: &Value) -> SizeChange {
    if let Some(sc) = spec_int(old, new) {
        return sc;
    }
    if spec_equal(old, new) {
        return SizeChange::Equal;
    }
    if spec_subterm(new, old) {
        return SizeChange::Descend;
    }
    match (old, new) {
        (Value::Pair(p), Value::Pair(q))
            if weakly_below(spec_extended(&p.car, &q.car))
                && weakly_below(spec_extended(&p.cdr, &q.cdr)) =>
        {
            SizeChange::Descend
        }
        (Value::Hash(h), Value::Hash(g)) if h.map.len() == g.map.len() => {
            let all_below = h.map.iter().all(|(k, v)| {
                g.map
                    .iter()
                    .any(|(k2, v2)| spec_equal(k, k2) && weakly_below(spec_extended(v, v2)))
            });
            // Not equal overall (checked above), so some value descends.
            if all_below {
                SizeChange::Descend
            } else {
                SizeChange::Unknown
            }
        }
        _ => SizeChange::Unknown,
    }
}

/// A structurally equal copy sharing no pairs or hashes with `v`.
fn fresh_copy(v: &Value) -> Value {
    match v {
        Value::Pair(p) => Value::cons(fresh_copy(&p.car), fresh_copy(&p.cdr)),
        Value::Hash(h) => {
            let map = h.map.iter().fold(PMap::new(), |m, (k, v)| {
                m.insert(fresh_copy(k), fresh_copy(v))
            });
            Value::Hash(Rc::new(HashData::new(map)))
        }
        other => other.clone(),
    }
}

/// The subterm of `v` reached by following car/cdr choices from `path`.
fn subterm_at(v: &Value, mut path: u64) -> Value {
    let mut cur = v.clone();
    while path > 1 {
        let Value::Pair(p) = &cur else { break };
        let next = if path & 1 == 0 {
            p.car.clone()
        } else {
            p.cdr.clone()
        };
        cur = next;
        path >>= 1;
    }
    cur
}

/// Builds a pool of values from the palette by `ops`: conses of earlier
/// values (sharing them), fresh copies, three-element lists, subterms, and
/// hashes whose values come from the pool.
fn build_pool(palette: &[Value], ops: &[u64]) -> Vec<Value> {
    let mut pool: Vec<Value> = palette.to_vec();
    for &op in ops {
        let pick = |k: u32| pool[((op >> (8 + 12 * k)) as usize) % pool.len()].clone();
        let v = match op % 6 {
            0 | 1 => Value::cons(pick(0), pick(1)),
            2 => fresh_copy(&pick(0)),
            3 => Value::list(vec![pick(0), pick(1), pick(2)]),
            4 => subterm_at(&pick(0), op >> 40),
            _ => {
                let map = PMap::new()
                    .insert(Value::sym("n"), pick(0))
                    .insert(Value::sym("f"), pick(1));
                Value::Hash(Rc::new(HashData::new(map)))
            }
        };
        pool.push(v);
    }
    pool
}

/// A needle for `haystack`: itself, a fresh copy of it, a shared or copied
/// subterm, or an arbitrary pool value.
fn needle_for(haystack: &Value, pool: &[Value], choice: u64) -> Value {
    match choice % 5 {
        0 => haystack.clone(),
        1 => fresh_copy(haystack),
        2 => subterm_at(haystack, choice >> 3),
        3 => fresh_copy(&subterm_at(haystack, choice >> 3)),
        _ => pool[(choice >> 3) as usize % pool.len()].clone(),
    }
}

fn palette() -> Vec<Value> {
    eval_str(PALETTE)
        .expect("palette evaluates")
        .list_to_vec()
        .expect("palette is a list")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn orders_and_equal_match_the_naive_specs(
        ops in proptest::collection::vec(any::<u64>(), 1..24),
        choices in proptest::collection::vec(any::<u64>(), 8),
    ) {
        let palette = palette();
        let pool = build_pool(&palette, &ops);
        let built = &pool[palette.len()..];
        for pair in choices.chunks(2) {
            let haystack = &built[pair[0] as usize % built.len()];
            let needle = needle_for(haystack, &pool, pair[1]);
            for (old, new) in [(haystack, &needle), (&needle, haystack)] {
                prop_assert_eq!(equal(old, new), spec_equal(old, new), "equal {:?} {:?}", old, new);
                prop_assert_eq!(
                    DefaultOrder.relate(old, new),
                    spec_default(old, new),
                    "default order, old {:?} new {:?}", old, new
                );
                prop_assert_eq!(
                    ExtendedOrder.relate(old, new),
                    spec_extended(old, new),
                    "extended order, old {:?} new {:?}", old, new
                );
            }
        }
    }
}
