//! The default well-founded partial order on λSCT values (Figure 5), plus
//! customizable alternatives (§3.3 allows replacing the default).

use crate::value::{equal, value_hash, value_size, PairData, Value};
use sct_core::order::{SizeChange, WellFoundedOrder};
use std::rc::Rc;

/// Figure 5's order:
///
/// * `n₁ ≺ n₂` iff `|n₁| < |n₂|` on integers;
/// * a field of a data structure is smaller than any structure containing
///   it (the tail of a list is less than the list);
/// * equal values relate by `⪯` (emitting a `→=` arc);
/// * closures are mutually incomparable (§2.2), relating only when they are
///   the *same* closure.
#[derive(Debug, Clone, Copy, Default)]
pub struct DefaultOrder;

/// `|new| < |old|` on two integer values (`None` when either is not an
/// integer), with a direct `i64` path for two fixnums.
fn int_abs_rel(old: &Value, new: &Value) -> Option<SizeChange> {
    match (old, new) {
        (Value::Fix(a), Value::Fix(b)) => Some(if a == b {
            SizeChange::Equal
        } else if b.unsigned_abs() < a.unsigned_abs() {
            SizeChange::Descend
        } else {
            SizeChange::Unknown
        }),
        (Value::Fix(_) | Value::Big(_), Value::Fix(_) | Value::Big(_)) => {
            let a = old.to_int().expect("matched integer");
            let b = new.to_int().expect("matched integer");
            Some(if a == b {
                SizeChange::Equal
            } else if b.cmp_abs(&a) == std::cmp::Ordering::Less {
                SizeChange::Descend
            } else {
                SizeChange::Unknown
            })
        }
        _ => None,
    }
}

impl WellFoundedOrder<Value> for DefaultOrder {
    fn relate(&self, old: &Value, new: &Value) -> SizeChange {
        if let Some(sc) = int_abs_rel(old, new) {
            return sc;
        }
        match (old, new) {
            // Structural containment: new ≺ old when new is a proper
            // subterm of the pair old; one walk answers both the equality
            // and the subterm question.
            (Value::Pair(_), _) => match subterm_rel(new, old) {
                SubtermRel::Equal => SizeChange::Equal,
                SubtermRel::Proper => SizeChange::Descend,
                SubtermRel::Unrelated => SizeChange::Unknown,
            },
            _ => {
                if equal(old, new) {
                    SizeChange::Equal
                } else {
                    SizeChange::Unknown
                }
            }
        }
    }
}

/// How `needle` sits inside `haystack` under Figure 5's structural
/// decomposition: equal to it, a proper subterm (`v ≺ (a, d)` if `v ⪯ a`
/// or `v ⪯ d`), or neither.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SubtermRel {
    Equal,
    Proper,
    Unrelated,
}

/// One walk answering both `needle = haystack` and `needle ≺ haystack`.
///
/// Equal values have equal node counts, so the cached sizes split the
/// question: at `size(needle) == size(haystack)` only equality is possible;
/// at `size(needle) < size(haystack)` only proper containment is.
fn subterm_rel(needle: &Value, haystack: &Value) -> SubtermRel {
    let size = value_size(needle);
    let haystack_size = value_size(haystack);
    if size == haystack_size && same_size_equal(needle, haystack) {
        SubtermRel::Equal
    } else if size < haystack_size && occurs_within(needle, size, haystack) {
        SubtermRel::Proper
    } else {
        SubtermRel::Unrelated
    }
}

/// Whether `needle` (of node count `size`) equals a proper subterm of
/// `haystack`, which is strictly larger.
///
/// The cdr spine is walked in a loop and a car is entered only when its
/// cached size is at least `size`, so the walk is linear in the distance
/// between the two terms, recurses only in the car direction, and never
/// allocates.
fn occurs_within(needle: &Value, size: u64, haystack: &Value) -> bool {
    let mut cur = haystack;
    // Every node on the spine is strictly larger than the needle, and a
    // needle has at least one node, so only pairs are reached here.
    while let Value::Pair(p) = cur {
        let car_size = value_size(&p.car);
        if (car_size == size && same_size_equal(needle, &p.car))
            || (car_size > size && occurs_within(needle, size, &p.car))
        {
            return true;
        }
        let cdr_size = value_size(&p.cdr);
        if cdr_size <= size {
            return cdr_size == size && same_size_equal(needle, &p.cdr);
        }
        cur = &p.cdr;
    }
    false
}

/// `equal` for two values of the same node count: fixnums by value, pairs
/// through `equal` (pointer, then cached hash and size, then the walk),
/// other atoms pre-filtered by their structural hash.
fn same_size_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Fix(x), Value::Fix(y)) => x == y,
        (Value::Pair(_), Value::Pair(_)) => equal(a, b),
        _ => value_hash(a) == value_hash(b) && equal(a, b),
    }
}

/// Figure 5's order extended *pointwise* to pairs and hashes: in addition
/// to the subterm rule, `(a′, d′) ≺ (a, d)` when `a′ ⪯ a` and `d′ ⪯ d`
/// with at least one strict, and hash `h′ ≺ h` when both have the same
/// keys, every value relates by `⪯`, and at least one descends.
///
/// This is still well-founded: any infinite descending chain must either
/// descend infinitely often by the size-reducing rules (impossible: node
/// counts are well-ordered) or eventually keep a fixed shape, where the
/// pointwise rule is a finite product of well-founded orders.
///
/// The extension is what lets an *interpreter's* environments descend when
/// the interpreted program's variables descend — e.g. the environment
/// `((n . 2) . ρ)` is pointwise-below `((n . 3) . ρ)`. The paper's §2.4 /
/// Table-1 `scheme` benchmarks (a monitored interpreter running factorial,
/// sum, and merge-sort) rely on the interpreter's chains carrying exactly
/// this kind of descent; we document the substitution under "Value orders"
/// in `docs/ARCHITECTURE.md` and use this order for those rows.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExtendedOrder;

/// One step of [`ExtendedOrder::compare`]: settled, or the pointwise pair
/// rule still to apply to these two pairs.
enum Step<'a> {
    Done(SizeChange),
    Pointwise(&'a PairData, &'a PairData),
}

/// `new ⪯ old`: the answers the pointwise rule accepts for a coordinate.
fn weakly_below(sc: SizeChange) -> bool {
    matches!(sc, SizeChange::Descend | SizeChange::Equal)
}

impl ExtendedOrder {
    /// `new ⪯ old` under the extended order, with the strictness recorded.
    ///
    /// The pointwise rule recurses into cars and loops along the cdrs, so
    /// two long lists compare without deep recursion.
    fn compare(&self, old: &Value, new: &Value) -> SizeChange {
        let (mut p, mut q) = match self.step(old, new) {
            Step::Done(sc) => return sc,
            Step::Pointwise(p, q) => (p, q),
        };
        // Equality of the whole was excluded by the subterm walk, so once
        // every coordinate relates by ⪯ at least one is strict.
        loop {
            if !weakly_below(self.compare(&p.car, &q.car)) {
                return SizeChange::Unknown;
            }
            match self.step(&p.cdr, &q.cdr) {
                Step::Done(sc) if weakly_below(sc) => return SizeChange::Descend,
                Step::Done(_) => return SizeChange::Unknown,
                Step::Pointwise(p2, q2) => (p, q) = (p2, q2),
            }
        }
    }

    /// Every rule but the pointwise pair rule, which is handed back.
    fn step<'a>(&self, old: &'a Value, new: &'a Value) -> Step<'a> {
        if let Some(sc) = int_abs_rel(old, new) {
            return Step::Done(sc);
        }
        match (old, new) {
            // Subterm rule first (cheap for list tails); the same walk
            // settles equality.
            (Value::Pair(p), _) => match (subterm_rel(new, old), new) {
                (SubtermRel::Equal, _) => Step::Done(SizeChange::Equal),
                (SubtermRel::Proper, _) => Step::Done(SizeChange::Descend),
                (SubtermRel::Unrelated, Value::Pair(q)) => Step::Pointwise(p, q),
                (SubtermRel::Unrelated, _) => Step::Done(SizeChange::Unknown),
            },
            (Value::Hash(h), Value::Hash(g)) => {
                if h.map.len() != g.map.len() {
                    return Step::Done(SizeChange::Unknown);
                }
                let mut strict = false;
                for (k, old_v) in h.map.iter() {
                    let Some(new_v) = g.map.get(k) else {
                        return Step::Done(SizeChange::Unknown);
                    };
                    match self.compare(old_v, new_v) {
                        SizeChange::Descend => strict = true,
                        SizeChange::Equal => {}
                        SizeChange::Unknown => return Step::Done(SizeChange::Unknown),
                    }
                }
                Step::Done(if strict {
                    SizeChange::Descend
                } else {
                    SizeChange::Equal
                })
            }
            _ => Step::Done(if equal(old, new) {
                SizeChange::Equal
            } else {
                SizeChange::Unknown
            }),
        }
    }
}

impl WellFoundedOrder<Value> for ExtendedOrder {
    fn relate(&self, old: &Value, new: &Value) -> SizeChange {
        self.compare(old, new)
    }
}

/// The *reverse* order on integers: `n₁ ≺ n₂` iff `n₁ > n₂`. Not
/// well-founded on all of ℤ — the user asserts the program descends toward
/// a bound, as `lh-range` / `acl2-fig-2` in Table 1 require ("custom
/// partial order" annotations). Non-integers fall back to the default.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReverseIntOrder;

impl WellFoundedOrder<Value> for ReverseIntOrder {
    fn relate(&self, old: &Value, new: &Value) -> SizeChange {
        match (old, new) {
            (Value::Fix(a), Value::Fix(b)) => {
                if a == b {
                    SizeChange::Equal
                } else if b > a {
                    SizeChange::Descend
                } else {
                    SizeChange::Unknown
                }
            }
            (Value::Fix(_) | Value::Big(_), Value::Fix(_) | Value::Big(_)) => {
                let a = old.to_int().expect("matched integer");
                let b = new.to_int().expect("matched integer");
                if a == b {
                    SizeChange::Equal
                } else if b > a {
                    SizeChange::Descend
                } else {
                    SizeChange::Unknown
                }
            }
            _ => DefaultOrder.relate(old, new),
        }
    }
}

/// The comparison function type wrapped by [`CustomOrder`].
pub type OrderFn = Rc<dyn Fn(&Value, &Value) -> SizeChange>;

/// A custom order wrapping a closure over values, for per-program orders.
pub struct CustomOrder {
    f: OrderFn,
}

impl CustomOrder {
    /// Wraps `f` as the monitor's order.
    pub fn new(f: impl Fn(&Value, &Value) -> SizeChange + 'static) -> CustomOrder {
        CustomOrder { f: Rc::new(f) }
    }
}

impl WellFoundedOrder<Value> for CustomOrder {
    fn relate(&self, old: &Value, new: &Value) -> SizeChange {
        (self.f)(old, new)
    }
}

/// A boxed order handle carried in the machine configuration.
#[derive(Clone)]
pub struct OrderHandle(Rc<dyn WellFoundedOrder<Value>>);

impl OrderHandle {
    /// Wraps any order.
    pub fn new(order: impl WellFoundedOrder<Value> + 'static) -> OrderHandle {
        OrderHandle(Rc::new(order))
    }

    /// The Figure 5 default.
    pub fn default_order() -> OrderHandle {
        OrderHandle::new(DefaultOrder)
    }
}

impl std::fmt::Debug for OrderHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("OrderHandle(..)")
    }
}

impl WellFoundedOrder<Value> for OrderHandle {
    fn relate(&self, old: &Value, new: &Value) -> SizeChange {
        self.0.relate(old, new)
    }
}

impl Default for OrderHandle {
    fn default() -> Self {
        OrderHandle::default_order()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(old: &Value, new: &Value) -> SizeChange {
        DefaultOrder.relate(old, new)
    }

    #[test]
    fn extended_order_pointwise_pairs() {
        let o = ExtendedOrder;
        // ((n . 2) . rho) ≺ ((n . 3) . rho): the interpreter-env pattern.
        let rho = Value::list(vec![Value::sym("genv")]);
        let env3 = Value::cons(Value::cons(Value::sym("n"), Value::int(3)), rho.clone());
        let env2 = Value::cons(Value::cons(Value::sym("n"), Value::int(2)), rho.clone());
        assert_eq!(o.relate(&env3, &env2), SizeChange::Descend);
        assert_eq!(o.relate(&env3, &env3.clone()), SizeChange::Equal);
        assert_eq!(
            o.relate(&env2, &env3),
            SizeChange::Unknown,
            "ascent is not descent"
        );
        // Mixed: one coordinate descends, another ascends → unrelated.
        let bad = Value::cons(
            Value::cons(Value::sym("n"), Value::int(2)),
            Value::list(vec![Value::sym("genv"), Value::sym("extra")]),
        );
        assert_eq!(o.relate(&env3, &bad), SizeChange::Unknown);
        // Subterm still works.
        let l = Value::list(vec![Value::int(1), Value::int(2)]);
        let Value::Pair(p) = &l else { unreachable!() };
        assert_eq!(o.relate(&l, &p.cdr), SizeChange::Descend);
    }

    #[test]
    fn extended_order_pointwise_hashes() {
        use crate::value::HashData;
        use sct_persist::PMap;
        use std::rc::Rc;
        let mk = |n: i64| {
            let m = PMap::new()
                .insert(Value::sym("f"), Value::sym("const"))
                .insert(Value::sym("n"), Value::int(n));
            Value::Hash(Rc::new(HashData::new(m)))
        };
        let o = ExtendedOrder;
        assert_eq!(o.relate(&mk(3), &mk(2)), SizeChange::Descend);
        assert_eq!(o.relate(&mk(3), &mk(3)), SizeChange::Equal);
        assert_eq!(o.relate(&mk(2), &mk(3)), SizeChange::Unknown);
        // Different key sets are unrelated.
        let other = Value::Hash(Rc::new(HashData::new(
            PMap::new().insert(Value::sym("k"), Value::int(0)),
        )));
        assert_eq!(o.relate(&mk(3), &other), SizeChange::Unknown);
    }

    #[test]
    fn integer_abs_order() {
        assert_eq!(rel(&Value::int(5), &Value::int(4)), SizeChange::Descend);
        assert_eq!(rel(&Value::int(5), &Value::int(5)), SizeChange::Equal);
        assert_eq!(rel(&Value::int(5), &Value::int(-4)), SizeChange::Descend);
        assert_eq!(rel(&Value::int(-5), &Value::int(5)), SizeChange::Unknown);
        assert_eq!(rel(&Value::int(4), &Value::int(5)), SizeChange::Unknown);
    }

    #[test]
    fn list_tail_descends() {
        let l = Value::list(vec![Value::int(1), Value::int(2), Value::int(3)]);
        let Value::Pair(p) = &l else { unreachable!() };
        let tail = p.cdr.clone();
        assert_eq!(rel(&l, &tail), SizeChange::Descend);
        assert_eq!(
            rel(&l, &p.car),
            SizeChange::Descend,
            "car is also a subterm"
        );
        assert_eq!(
            rel(&tail, &l),
            SizeChange::Unknown,
            "growing is not descent"
        );
        assert_eq!(rel(&l, &l.clone()), SizeChange::Equal);
    }

    #[test]
    fn equal_but_not_subterm_lists() {
        // A freshly consed copy of the tail still counts: Figure 5's order
        // is on values, not allocations.
        let l = Value::list(vec![Value::int(1), Value::int(2)]);
        let fresh_tail = Value::list(vec![Value::int(2)]);
        assert_eq!(rel(&l, &fresh_tail), SizeChange::Descend);
    }

    #[test]
    fn unrelated_structures() {
        let l = Value::list(vec![Value::int(1)]);
        let m = Value::list(vec![Value::int(9), Value::int(9)]);
        assert_eq!(rel(&l, &m), SizeChange::Unknown);
        assert_eq!(rel(&Value::sym("a"), &Value::sym("a")), SizeChange::Equal);
        assert_eq!(rel(&Value::sym("a"), &Value::sym("b")), SizeChange::Unknown);
        assert_eq!(
            rel(&Value::str("ab"), &Value::str("a")),
            SizeChange::Unknown,
            "strings are atomic in the Figure 5 order"
        );
    }

    /// Runs `f` on a thread with the default 2 MiB test stack.
    fn on_small_stack(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .expect("spawn")
            .join()
            .expect("no stack overflow");
    }

    fn int_list(len: i64, last: i64) -> Value {
        Value::list(
            (0..len)
                .map(|i| Value::int(if i == len - 1 { last } else { i }))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn long_list_against_fixnum_walks_without_recursing_on_the_spine() {
        on_small_stack(|| {
            let l = int_list(500_000, -1);
            assert_eq!(rel(&l, &Value::int(7)), SizeChange::Descend, "an element");
            assert_eq!(rel(&l, &Value::int(500_000)), SizeChange::Unknown);
            assert_eq!(
                ExtendedOrder.relate(&l, &Value::int(500_000)),
                SizeChange::Unknown
            );
            assert_eq!(rel(&Value::int(500_000), &l), SizeChange::Unknown);
        });
    }

    #[test]
    fn long_lists_compare_pointwise_without_recursing_on_the_spine() {
        on_small_stack(|| {
            let (old, new) = (int_list(500_000, 5), int_list(500_000, 4));
            assert_eq!(ExtendedOrder.relate(&old, &new), SizeChange::Descend);
            assert_eq!(ExtendedOrder.relate(&new, &old), SizeChange::Unknown);
            assert_eq!(
                ExtendedOrder.relate(&old, &int_list(500_000, 5)),
                SizeChange::Equal
            );
            assert_eq!(rel(&old, &new), SizeChange::Unknown, "not a subterm");
        });
    }

    #[test]
    fn reverse_int_order() {
        let o = ReverseIntOrder;
        assert_eq!(
            o.relate(&Value::int(3), &Value::int(4)),
            SizeChange::Descend
        );
        assert_eq!(o.relate(&Value::int(4), &Value::int(4)), SizeChange::Equal);
        assert_eq!(
            o.relate(&Value::int(4), &Value::int(3)),
            SizeChange::Unknown
        );
    }

    #[test]
    fn custom_order_applies() {
        // Order strings by length.
        let o = CustomOrder::new(|old, new| match (old, new) {
            (Value::Str(a), Value::Str(b)) => {
                if a == b {
                    SizeChange::Equal
                } else if b.len() < a.len() {
                    SizeChange::Descend
                } else {
                    SizeChange::Unknown
                }
            }
            _ => SizeChange::Unknown,
        });
        assert_eq!(
            o.relate(&Value::str("ab"), &Value::str("a")),
            SizeChange::Descend
        );
    }
}
