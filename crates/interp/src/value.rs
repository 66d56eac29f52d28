//! Run-time values of λSCT (Figure 3's `v`), extended with the richer data
//! the evaluation corpus needs: characters, strings, symbols, immutable
//! hashes (Figure 2), first-class contracts, and contract-wrapped
//! procedures (Figure 7's `term/c⟨…⟩` values).
//!
//! Every compound value caches a structural hash at construction, so the
//! monitor can fingerprint a closure's captured environment in time
//! proportional to the number of free variables — the implementation trick
//! behind §5's "we hash the closure".

use sct_bignum::{BigInt, Int};
use sct_lang::{LambdaDef, Prim};
use sct_persist::PMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

/// A λSCT run-time value.
///
/// Exact integers are split across two variants mirroring
/// [`Int`]'s canonical form: [`Value::Fix`] for `i64`-range fixnums
/// (tagged inline — no allocation, no double dispatch through a nested
/// enum) and [`Value::Big`] for everything else. The canonical-form
/// invariant — `Big` never holds a value in `i64` range — is what makes
/// single-variant matches, structural equality, and hashing correct.
#[derive(Clone)]
pub enum Value {
    /// Exact integer in `i64` range (canonical: [`Value::Big`] is never
    /// used for these).
    Fix(i64),
    /// Exact integer outside `i64` range.
    Big(Rc<BigInt>),
    /// Boolean.
    Bool(bool),
    /// Character.
    Char(char),
    /// Immutable string.
    Str(Rc<str>),
    /// Symbol.
    Sym(Rc<str>),
    /// The empty list `'()`.
    Nil,
    /// The unspecified value returned by `(void)` and effects.
    Void,
    /// A pair.
    Pair(Rc<PairData>),
    /// A closure `(⃗x, e, ρ)`.
    Closure(Rc<Closure>),
    /// A primitive operation `o`.
    Prim(Prim),
    /// An immutable hash table (Figure 2's `hash` values).
    Hash(Rc<HashData>),
    /// A first-class contract (`flat/c`, `->/c`, `and/c`, `terminating/c`).
    Contract(Rc<ContractData>),
    /// A contract-wrapped procedure (Figure 7's wrapped closures).
    Wrapped(Rc<WrappedData>),
    /// The pre-initialization value of `letrec` slots; touching it is a
    /// run-time error.
    Undefined,
}

/// A cons cell with cached structural hash and node count.
pub struct PairData {
    /// The `car`.
    pub car: Value,
    /// The `cdr`.
    pub cdr: Value,
    hash: u64,
    size: u64,
}

impl PairData {
    /// Cached structural hash.
    pub fn hash_code(&self) -> u64 {
        self.hash
    }

    /// Total node count (pairs plus atoms), used to prune subterm search.
    pub fn size(&self) -> u64 {
        self.size
    }
}

impl Drop for PairData {
    /// Iterative teardown of long cdr-chains so dropping a million-element
    /// list does not overflow the Rust stack.
    fn drop(&mut self) {
        let mut cdr = std::mem::replace(&mut self.cdr, Value::Nil);
        while let Value::Pair(p) = cdr {
            match Rc::try_unwrap(p) {
                Ok(mut inner) => cdr = std::mem::replace(&mut inner.cdr, Value::Nil),
                Err(_) => break,
            }
        }
    }
}

/// A closure: compiled lambda plus captured environment.
pub struct Closure {
    /// The compiled lambda.
    pub def: Rc<LambdaDef>,
    /// The captured environment (the lambda's defining environment).
    pub env: ClosureEnv,
    /// Fresh identity assigned at allocation; the default size-change table
    /// key (the paper's implementation keys on Racket's `eq?` closure hash).
    pub alloc_id: u64,
    /// Structural fingerprint: hash of the lambda id and the values of the
    /// captured free variables at allocation time.
    pub fingerprint: u64,
}

/// One binding slot of the IR machine: a plain value, or — for bindings
/// the compiler assignment-converted because they are both captured by a
/// nested lambda and mutated (`set!` target or `letrec` binding) — a
/// shared mutable cell. Cells never escape as first-class values: every
/// cell-addressed instruction dereferences them, so user code only ever
/// sees their contents.
#[derive(Debug, Clone)]
pub enum Slot {
    /// An immutable (or at least unaliased) binding.
    Val(Value),
    /// A shared cell: mutation through any alias is visible to all.
    Cell(Rc<std::cell::RefCell<Value>>),
}

impl Slot {
    /// The slot's current value (cells are dereferenced).
    pub fn get(&self) -> Value {
        match self {
            Slot::Val(v) => v.clone(),
            Slot::Cell(c) => c.borrow().clone(),
        }
    }

    /// Structural hash of the current value — what closure fingerprints
    /// use, matching the tree-walker's hash-at-capture-time semantics.
    pub fn hash_current(&self) -> u64 {
        match self {
            Slot::Val(v) => value_hash(v),
            Slot::Cell(c) => value_hash(&c.borrow()),
        }
    }
}

/// The two closure-environment representations, one per machine. The
/// reference tree-walker chains frames; the IR machine stores a flat
/// capture list ordered exactly as [`LambdaDef::free`] (which is what
/// keeps the two machines' fingerprints — and therefore their structural
/// size-change-table keys — identical). Values never flow between
/// machines, so each machine only ever sees its own representation.
pub enum ClosureEnv {
    /// Chained frames (reference tree-walker).
    Chain(crate::env::Env),
    /// Flat captures (IR machine), one [`Slot`] per free variable.
    Flat(Rc<[Slot]>),
}

/// An immutable hash table value.
pub struct HashData {
    /// Key → value entries.
    pub map: PMap<Value, Value>,
    hash: std::cell::Cell<Option<u64>>,
}

impl HashData {
    /// Wraps a persistent map as a hash value.
    pub fn new(map: PMap<Value, Value>) -> HashData {
        HashData {
            map,
            hash: std::cell::Cell::new(None),
        }
    }

    /// Order-independent structural hash, computed lazily and cached.
    pub fn hash_code(&self) -> u64 {
        if let Some(h) = self.hash.get() {
            return h;
        }
        let mut acc = 0x4a5f_u64;
        for (k, v) in self.map.iter() {
            // XOR of entry hashes: independent of iteration order.
            acc ^= mix2(value_hash(k), value_hash(v));
        }
        let h = mix2(acc, self.map.len() as u64);
        self.hash.set(Some(h));
        h
    }
}

/// A contract value.
pub enum ContractData {
    /// `(flat/c pred)` — accepts values satisfying the predicate.
    Flat(Value),
    /// `(->/c dom ... rng)` — function contract.
    Arrow {
        /// Domain contracts, one per argument.
        doms: Vec<Value>,
        /// Range contract.
        rng: Value,
    },
    /// `(and/c c ...)` — conjunction.
    And(Vec<Value>),
    /// `terminating/c` used as a combinator.
    Terminating,
}

/// How a procedure is wrapped.
pub enum WrapKind {
    /// `term/c⟨…⟩`: applying the wrapped closure enforces size-change
    /// termination for the call's dynamic extent, blaming `label`.
    Terminating {
        /// Blame label (§2.3).
        label: Rc<str>,
    },
    /// An `->/c` wrapper: checks domain contracts on the way in, the range
    /// contract on the way out.
    Arrow {
        /// Domain contracts.
        doms: Vec<Value>,
        /// Range contract.
        rng: Value,
        /// Party blamed when the function breaks its promise (range,
        /// termination).
        positive: Rc<str>,
        /// Party blamed when the caller breaks the contract (domain).
        negative: Rc<str>,
    },
}

/// A wrapped procedure.
pub struct WrappedData {
    /// The underlying procedure (closure, primitive, or another wrapper).
    pub inner: Value,
    /// The wrapper semantics.
    pub kind: WrapKind,
}

impl Value {
    /// Builds an integer value from `i64`.
    pub fn int(n: i64) -> Value {
        Value::Fix(n)
    }

    /// Builds an integer value from an [`Int`], preserving canonical form.
    pub fn from_int(n: Int) -> Value {
        match n {
            Int::Small(n) => Value::Fix(n),
            Int::Big(b) => Value::Big(b),
        }
    }

    /// The value as an [`Int`], when it is an integer.
    pub fn to_int(&self) -> Option<Int> {
        match self {
            Value::Fix(n) => Some(Int::Small(*n)),
            Value::Big(b) => Some(Int::Big(b.clone())),
            _ => None,
        }
    }

    /// Builds a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Rc::from(s.as_ref()))
    }

    /// Builds a symbol value.
    pub fn sym(s: impl AsRef<str>) -> Value {
        Value::Sym(Rc::from(s.as_ref()))
    }

    /// Conses a pair, computing the cached hash and size.
    pub fn cons(car: Value, cdr: Value) -> Value {
        let hash = mix2(mix2(0xC0_4599, value_hash(&car)), value_hash(&cdr));
        let size = 1 + value_size(&car) + value_size(&cdr);
        Value::Pair(Rc::new(PairData {
            car,
            cdr,
            hash,
            size,
        }))
    }

    /// Builds a proper list from values.
    ///
    /// ```
    /// use sct_interp::Value;
    /// let l = Value::list(vec![Value::int(1), Value::int(2)]);
    /// assert_eq!(l.to_write_string(), "(1 2)");
    /// ```
    pub fn list(items: impl IntoIterator<Item = Value, IntoIter: DoubleEndedIterator>) -> Value {
        let mut acc = Value::Nil;
        for v in items.into_iter().rev() {
            acc = Value::cons(v, acc);
        }
        acc
    }

    /// Scheme truthiness: everything but `#f` is true.
    pub fn is_truthy(&self) -> bool {
        !matches!(self, Value::Bool(false))
    }

    /// True for procedures (closures, primitives, wrapped procedures).
    pub fn is_procedure(&self) -> bool {
        matches!(self, Value::Closure(_) | Value::Prim(_) | Value::Wrapped(_))
    }

    /// Collects a proper list into a vector; `None` when improper.
    pub fn list_to_vec(&self) -> Option<Vec<Value>> {
        let mut out = Vec::new();
        let mut cur = self.clone();
        loop {
            match cur {
                Value::Nil => return Some(out),
                Value::Pair(p) => {
                    out.push(p.car.clone());
                    cur = p.cdr.clone();
                }
                _ => return None,
            }
        }
    }

    /// Type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Fix(_) | Value::Big(_) => "integer",
            Value::Bool(_) => "boolean",
            Value::Char(_) => "char",
            Value::Str(_) => "string",
            Value::Sym(_) => "symbol",
            Value::Nil => "empty list",
            Value::Void => "void",
            Value::Pair(_) => "pair",
            Value::Closure(_) => "procedure",
            Value::Prim(_) => "primitive",
            Value::Hash(_) => "hash",
            Value::Contract(_) => "contract",
            Value::Wrapped(_) => "wrapped procedure",
            Value::Undefined => "undefined",
        }
    }

    /// `write`-style rendering (strings quoted, chars as `#\x`).
    pub fn to_write_string(&self) -> String {
        let mut s = String::new();
        write_value(&mut s, self, true);
        s
    }

    /// `display`-style rendering (strings and chars raw).
    pub fn to_display_string(&self) -> String {
        let mut s = String::new();
        write_value(&mut s, self, false);
        s
    }
}

/// Structural hash of any value (cached on compound values).
pub fn value_hash(v: &Value) -> u64 {
    match v {
        Value::Fix(n) => mix2(1, *n as u64),
        Value::Big(b) => {
            // Canonical form keeps Fix and Big disjoint, so only
            // in-process consistency for equal bignums is needed.
            let mut h = std::collections::hash_map::DefaultHasher::new();
            b.hash(&mut h);
            mix2(1, h.finish())
        }
        Value::Bool(b) => mix2(2, *b as u64),
        Value::Char(c) => mix2(3, *c as u64),
        Value::Str(s) => mix2(4, str_hash(s)),
        Value::Sym(s) => mix2(5, str_hash(s)),
        Value::Nil => 6,
        Value::Void => 7,
        Value::Pair(p) => p.hash_code(),
        Value::Closure(c) => mix2(8, c.fingerprint),
        Value::Prim(p) => mix2(9, *p as u64),
        Value::Hash(h) => h.hash_code(),
        Value::Contract(c) => mix2(10, Rc::as_ptr(c) as u64),
        Value::Wrapped(w) => mix2(11, Rc::as_ptr(w) as u64),
        Value::Undefined => 12,
    }
}

/// Node count of a value (pairs cached; everything else 1).
pub fn value_size(v: &Value) -> u64 {
    match v {
        Value::Pair(p) => p.size(),
        _ => 1,
    }
}

fn str_hash(s: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// 64-bit mixing function (splitmix-style).
pub(crate) fn mix2(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// `eqv?`: identity, except numbers / chars / booleans / symbols compare by
/// value.
pub fn eqv(a: &Value, b: &Value) -> bool {
    match (a, b) {
        // Canonical form: an i64-range integer is always Fix, so a
        // Fix/Big cross pairing is never equal and falls to the catchall.
        (Value::Fix(x), Value::Fix(y)) => x == y,
        (Value::Big(x), Value::Big(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Char(x), Value::Char(y)) => x == y,
        (Value::Sym(x), Value::Sym(y)) => x == y,
        (Value::Nil, Value::Nil) | (Value::Void, Value::Void) => true,
        (Value::Str(x), Value::Str(y)) => Rc::ptr_eq(x, y),
        (Value::Pair(x), Value::Pair(y)) => Rc::ptr_eq(x, y),
        (Value::Closure(x), Value::Closure(y)) => Rc::ptr_eq(x, y),
        (Value::Prim(x), Value::Prim(y)) => x == y,
        (Value::Hash(x), Value::Hash(y)) => Rc::ptr_eq(x, y),
        (Value::Contract(x), Value::Contract(y)) => Rc::ptr_eq(x, y),
        (Value::Wrapped(x), Value::Wrapped(y)) => Rc::ptr_eq(x, y),
        (Value::Undefined, Value::Undefined) => true,
        _ => false,
    }
}

/// `eq?`: we implement it as [`eqv`], which is a legal refinement (R5RS
/// leaves `eq?` on numbers and chars unspecified).
pub fn eq(a: &Value, b: &Value) -> bool {
    eqv(a, b)
}

/// `equal?`: structural equality. Pair comparison short-circuits via cached
/// hashes and sizes and is iterative along cdr chains. The work stack
/// starts empty (`Vec::new` does not allocate), so atoms, pointer-equal
/// pairs and pairs whose hash or size differs answer without touching the
/// heap.
pub fn equal(a: &Value, b: &Value) -> bool {
    let mut pending = Vec::new();
    if !equal_step(a, b, &mut pending) {
        return false;
    }
    while let Some((p, q)) = pending.pop() {
        if !equal_step(&p.car, &q.car, &mut pending) || !equal_step(&p.cdr, &q.cdr, &mut pending) {
            return false;
        }
    }
    true
}

/// Compares `x` and `y` one level deep: `false` on a mismatch, otherwise
/// `true` with any pair of pairs still to be compared pushed on `pending`.
fn equal_step<'a>(
    x: &'a Value,
    y: &'a Value,
    pending: &mut Vec<(&'a PairData, &'a PairData)>,
) -> bool {
    match (x, y) {
        (Value::Pair(p), Value::Pair(q)) => {
            if !Rc::ptr_eq(p, q) {
                if p.hash_code() != q.hash_code() || p.size() != q.size() {
                    return false;
                }
                pending.push((p, q));
            }
            true
        }
        (Value::Str(s), Value::Str(t)) => s == t,
        (Value::Hash(hx), Value::Hash(hy)) => {
            Rc::ptr_eq(hx, hy)
                || (hx.map.len() == hy.map.len()
                    && hx
                        .map
                        .iter()
                        .all(|(k, v)| hy.map.get(k).is_some_and(|w| equal(v, w))))
        }
        // Structural closure equality: same lambda and captured
        // environment fingerprint (the formal model's (⃗x,e,ρ) = (⃗x,e,ρ′)
        // approximated as in §5 by hashing).
        (Value::Closure(c), Value::Closure(d)) => {
            c.def.id == d.def.id && c.fingerprint == d.fingerprint
        }
        _ => eqv(x, y),
    }
}

/// `PartialEq`/`Hash` for [`Value`] use *structural* semantics (`equal?` and
/// [`value_hash`]) so values can key persistent maps.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        equal(self, other)
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(value_hash(self));
    }
}

fn write_value(out: &mut String, v: &Value, write_mode: bool) {
    match v {
        Value::Fix(n) => out.push_str(&n.to_string()),
        Value::Big(b) => out.push_str(&b.to_string()),
        Value::Bool(true) => out.push_str("#t"),
        Value::Bool(false) => out.push_str("#f"),
        Value::Char(c) => {
            if write_mode {
                match c {
                    ' ' => out.push_str("#\\space"),
                    '\n' => out.push_str("#\\newline"),
                    '\t' => out.push_str("#\\tab"),
                    c => {
                        out.push_str("#\\");
                        out.push(*c);
                    }
                }
            } else {
                out.push(*c);
            }
        }
        Value::Str(s) => {
            if write_mode {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c => out.push(c),
                    }
                }
                out.push('"');
            } else {
                out.push_str(s);
            }
        }
        Value::Sym(s) => out.push_str(s),
        Value::Nil => out.push_str("()"),
        Value::Void => out.push_str("#<void>"),
        Value::Pair(p) => {
            out.push('(');
            write_value(out, &p.car, write_mode);
            let mut cur = p.cdr.clone();
            loop {
                match cur {
                    Value::Nil => break,
                    Value::Pair(q) => {
                        out.push(' ');
                        write_value(out, &q.car, write_mode);
                        cur = q.cdr.clone();
                    }
                    other => {
                        out.push_str(" . ");
                        write_value(out, &other, write_mode);
                        break;
                    }
                }
            }
            out.push(')');
        }
        Value::Closure(c) => {
            out.push_str("#<procedure:");
            out.push_str(&c.def.describe());
            out.push('>');
        }
        Value::Prim(p) => {
            out.push_str("#<primitive:");
            out.push_str(p.name());
            out.push('>');
        }
        Value::Hash(h) => {
            out.push_str("#<hash");
            let mut entries: Vec<String> = h
                .map
                .iter()
                .map(|(k, v)| {
                    let mut s = String::new();
                    s.push_str(" (");
                    write_value(&mut s, k, true);
                    s.push_str(" . ");
                    write_value(&mut s, v, true);
                    s.push(')');
                    s
                })
                .collect();
            entries.sort();
            for e in entries {
                out.push_str(&e);
            }
            out.push('>');
        }
        Value::Contract(c) => match c.as_ref() {
            ContractData::Flat(_) => out.push_str("#<contract:flat/c>"),
            ContractData::Arrow { .. } => out.push_str("#<contract:->/c>"),
            ContractData::And(_) => out.push_str("#<contract:and/c>"),
            ContractData::Terminating => out.push_str("#<contract:terminating/c>"),
        },
        Value::Wrapped(w) => match &w.kind {
            WrapKind::Terminating { label } => {
                out.push_str("#<terminating/c ");
                out.push_str(label);
                out.push('>');
            }
            WrapKind::Arrow { .. } => out.push_str("#<->/c-wrapped>"),
        },
        Value::Undefined => out.push_str("#<undefined>"),
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_write_string())
    }
}

impl fmt::Display for Value {
    /// `display` form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_display_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::Bool(false).is_truthy());
        assert!(Value::Bool(true).is_truthy());
        assert!(Value::int(0).is_truthy(), "0 is true in Scheme");
        assert!(Value::Nil.is_truthy());
    }

    #[test]
    fn list_roundtrip() {
        let l = Value::list(vec![Value::int(1), Value::sym("a"), Value::Nil]);
        assert_eq!(l.to_write_string(), "(1 a ())");
        let v = l.list_to_vec().unwrap();
        assert_eq!(v.len(), 3);
        let improper = Value::cons(Value::int(1), Value::int(2));
        assert_eq!(improper.to_write_string(), "(1 . 2)");
        assert!(improper.list_to_vec().is_none());
    }

    #[test]
    fn equal_structural() {
        let a = Value::list(vec![Value::int(1), Value::str("x")]);
        let b = Value::list(vec![Value::int(1), Value::str("x")]);
        assert!(equal(&a, &b));
        assert!(!eqv(&a, &b), "distinct allocations are not eqv?");
        assert!(eqv(&a, &a.clone()));
        let c = Value::list(vec![Value::int(2), Value::str("x")]);
        assert!(!equal(&a, &c));
    }

    #[test]
    fn eqv_on_atoms() {
        assert!(eqv(&Value::int(42), &Value::int(42)));
        assert!(eqv(&Value::sym("a"), &Value::sym("a")));
        assert!(!eqv(&Value::int(1), &Value::Bool(true)));
        assert!(eqv(&Value::Char('x'), &Value::Char('x')));
    }

    #[test]
    fn hashes_agree_with_equal() {
        let a = Value::list(vec![Value::int(1), Value::list(vec![Value::sym("q")])]);
        let b = Value::list(vec![Value::int(1), Value::list(vec![Value::sym("q")])]);
        assert_eq!(value_hash(&a), value_hash(&b));
    }

    #[test]
    fn sizes_cached() {
        let l = Value::list(vec![Value::int(1), Value::int(2), Value::int(3)]);
        // (1 2 3) = 3 pairs + 3 atoms + nil = 7 nodes.
        assert_eq!(value_size(&l), 7);
        assert_eq!(value_size(&Value::int(5)), 1);
    }

    #[test]
    fn display_vs_write() {
        let v = Value::list(vec![Value::str("hi"), Value::Char('c')]);
        assert_eq!(v.to_write_string(), "(\"hi\" #\\c)");
        assert_eq!(v.to_display_string(), "(hi c)");
    }

    #[test]
    fn deep_list_drop_does_not_overflow() {
        let mut l = Value::Nil;
        for i in 0..200_000 {
            l = Value::cons(Value::int(i), l);
        }
        drop(l); // must not overflow the stack
    }

    #[test]
    fn hash_values() {
        let h0 = Value::Hash(Rc::new(HashData::new(PMap::new())));
        let Value::Hash(hd) = &h0 else { unreachable!() };
        let m1 = hd.map.insert(Value::sym("x"), Value::int(1));
        let h1 = Value::Hash(Rc::new(HashData::new(m1.clone())));
        let h1b = Value::Hash(Rc::new(HashData::new(m1)));
        assert!(equal(&h1, &h1b));
        assert!(!equal(&h0, &h1));
        assert_eq!(value_hash(&h1), value_hash(&h1b));
    }
}
