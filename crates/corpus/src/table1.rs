//! The 28 terminating programs of Table 1.
//!
//! Sources: the size-change examples of Lee–Jones–Ben-Amram (`sct-*`), the
//! higher-order SCT literature (`ho-*`), the Isabelle / ACL2 / Liquid
//! Haskell benchmark families, and the larger Scheme benchmarks (`dderiv`,
//! `deriv`, `destruct`, `div`, `nfa`, `scheme`). Each is reconstructed
//! from its published description; the paper's reported verdicts ride
//! along so the Table-1 harness can print paper-vs-measured.

use crate::scheme_interp;
use crate::{CorpusProgram, Domain, OrderSpec, PaperRow, StaticSpec, Verdict};

use Verdict::{
    Fail, NoHigherOrder, NotReported, NotTypable, Pass, PassAnnotated, PassCustomOrder,
    PassRewritten,
};

const fn row(
    dynamic: Verdict,
    static_: Verdict,
    lh: Verdict,
    isa: Verdict,
    acl2: Verdict,
) -> PaperRow {
    PaperRow {
        dynamic,
        static_,
        liquid_haskell: lh,
        isabelle: isa,
        acl2,
    }
}

/// `sct-1`: list reverse with an accumulator (LJB example 1).
pub const SCT_1: CorpusProgram = CorpusProgram {
    id: "sct-1",
    description: "reverse with accumulator (Lee-Jones-Ben-Amram ex. 1)",
    source: "
(define (rev ls a)
  (if (null? ls) a (rev (cdr ls) (cons (car ls) a))))
(rev '(1 2 3 4 5) '())",
    order: OrderSpec::Default,
    expected: Some("(5 4 3 2 1)"),
    paper: row(Pass, Pass, PassRewritten, Pass, Pass),
    static_spec: Some(StaticSpec {
        function: "rev",
        domains: &[Domain::List, Domain::Any],
        result: Domain::Any,
    }),
};

/// `sct-2`: mutual recursion accumulating a heterogeneous structure
/// (LJB example 2) — untypable as written, hence LH's ✗.
pub const SCT_2: CorpusProgram = CorpusProgram {
    id: "sct-2",
    description: "mutual recursion building a heterogeneous list (LJB ex. 2)",
    source: "
(define (f2 i x) (if (null? i) x (g2 (cdr i) x i)))
(define (g2 a b c) (f2 a (cons b c)))
(f2 '(q w e) '())",
    order: OrderSpec::Default,
    expected: None,
    paper: row(Pass, Pass, Fail, PassRewritten, Pass),
    static_spec: Some(StaticSpec {
        function: "f2",
        domains: &[Domain::List, Domain::Any],
        result: Domain::Any,
    }),
};

/// `sct-3`: the Ackermann function (§2.1, Figure 1).
pub const SCT_3: CorpusProgram = CorpusProgram {
    id: "sct-3",
    description: "Ackermann (LJB ex. 3, the paper's running example)",
    source: "
(define (ack m n)
  (cond [(= 0 m) (+ 1 n)]
        [(= 0 n) (ack (- m 1) 1)]
        [else (ack (- m 1) (ack m (- n 1)))]))
(ack 2 3)",
    order: OrderSpec::Default,
    expected: Some("9"),
    paper: row(Pass, Pass, PassAnnotated, Pass, Pass),
    static_spec: Some(StaticSpec {
        function: "ack",
        domains: &[Domain::Nat, Domain::Nat],
        result: Domain::Nat,
    }),
};

/// `sct-4`: permuted parameters with guards (LJB ex. 4).
pub const SCT_4: CorpusProgram = CorpusProgram {
    id: "sct-4",
    description: "permuted parameters with guards (LJB ex. 4)",
    source: "
(define (p4 m n r)
  (cond [(> r 0) (p4 m (- r 1) n)]
        [(> n 0) (p4 r (- n 1) m)]
        [else m]))
(p4 2 3 4)",
    order: OrderSpec::Default,
    expected: Some("2"),
    paper: row(Pass, Pass, Fail, Pass, Pass),
    static_spec: Some(StaticSpec {
        function: "p4",
        domains: &[Domain::Nat, Domain::Nat, Domain::Nat],
        result: Domain::Nat,
    }),
};

/// `sct-5`: descent alternating between two parameters (LJB ex. 5).
pub const SCT_5: CorpusProgram = CorpusProgram {
    id: "sct-5",
    description: "alternating descent over two lists (LJB ex. 5)",
    source: "
(define (f5 x y)
  (cond [(null? y) x]
        [(null? x) (f5 y (cdr y))]
        [else (f5 (cdr x) y)]))
(f5 '(1 2) '(3 4 5))",
    order: OrderSpec::Default,
    expected: None,
    paper: row(Pass, Pass, Fail, Pass, Pass),
    static_spec: Some(StaticSpec {
        function: "f5",
        domains: &[Domain::List, Domain::List],
        result: Domain::Any,
    }),
};

/// `sct-6`: reverse twice through a helper (LJB ex. 6).
pub const SCT_6: CorpusProgram = CorpusProgram {
    id: "sct-6",
    description: "double reversal through a helper (LJB ex. 6)",
    source: "
(define (f6 a b)
  (if (null? b) (g6 a '()) (f6 (cons (car b) a) (cdr b))))
(define (g6 c d)
  (if (null? c) d (g6 (cdr c) (cons (car c) d))))
(f6 '() '(1 2 3))",
    order: OrderSpec::Default,
    expected: Some("(1 2 3)"),
    paper: row(Pass, Pass, Fail, Pass, Pass),
    static_spec: Some(StaticSpec {
        function: "f6",
        domains: &[Domain::List, Domain::List],
        result: Domain::Any,
    }),
};

/// `ho-sc-ack`: Ackermann through the Y combinator — self-application is
/// untypable (LH, Isabelle) and higher-order (ACL2).
pub const HO_SC_ACK: CorpusProgram = CorpusProgram {
    id: "ho-sc-ack",
    description: "Ackermann via the Y combinator (self-application)",
    source: "
(define Y
  (lambda (h)
    ((lambda (x) (h (lambda (v1 v2) ((x x) v1 v2))))
     (lambda (x) (h (lambda (v1 v2) ((x x) v1 v2)))))))
(define ack
  (Y (lambda (self)
       (lambda (m n)
         (cond [(= 0 m) (+ 1 n)]
               [(= 0 n) (self (- m 1) 1)]
               [else (self (- m 1) (self m (- n 1)))])))))
(ack 2 2)",
    order: OrderSpec::Default,
    expected: Some("7"),
    paper: row(Pass, Fail, NotTypable, NotTypable, NoHigherOrder),
    static_spec: Some(StaticSpec {
        function: "ack",
        domains: &[Domain::Nat, Domain::Nat],
        result: Domain::Nat,
    }),
};

/// `ho-sct-fg`: higher-order descent in the Sereni–Jones style.
pub const HO_SCT_FG: CorpusProgram = CorpusProgram {
    id: "ho-sct-fg",
    description: "higher-order f/g pair (Sereni-Jones style)",
    source: "
(define (fh n g) (if (zero? n) (g 0) (fh (- n 1) (lambda (m) (g (+ m 1))))))
(fh 5 (lambda (x) x))",
    order: OrderSpec::Default,
    expected: Some("5"),
    paper: row(Pass, Pass, Pass, Pass, NoHigherOrder),
    static_spec: Some(StaticSpec {
        function: "fh",
        domains: &[Domain::Nat, Domain::Any],
        result: Domain::Any,
    }),
};

/// `ho-sct-fold`: folds.
pub const HO_SCT_FOLD: CorpusProgram = CorpusProgram {
    id: "ho-sct-fold",
    description: "left and right folds over lists",
    source: "
(define (foldl2 f acc xs)
  (if (null? xs) acc (foldl2 f (f acc (car xs)) (cdr xs))))
(define (foldr2 f acc xs)
  (if (null? xs) acc (f (car xs) (foldr2 f acc (cdr xs)))))
(foldl2 + (foldr2 * 1 '(1 2 3)) '(4 5 6))",
    order: OrderSpec::Default,
    expected: Some("21"),
    paper: row(Pass, Pass, PassAnnotated, Pass, NoHigherOrder),
    static_spec: Some(StaticSpec {
        function: "foldl2",
        domains: &[Domain::Any, Domain::Any, Domain::List],
        result: Domain::Any,
    }),
};

/// `isabelle-perm`: permutation test via deletion.
pub const ISABELLE_PERM: CorpusProgram = CorpusProgram {
    id: "isabelle-perm",
    description: "permutation check via element deletion",
    source: "
(define (del x xs)
  (cond [(null? xs) '()]
        [(equal? x (car xs)) (cdr xs)]
        [else (cons (car xs) (del x (cdr xs)))]))
(define (perm? xs ys)
  (cond [(null? xs) (null? ys)]
        [(member (car xs) ys) (perm? (cdr xs) (del (car xs) ys))]
        [else #f]))
(perm? '(1 2 3 4) '(4 3 1 2))",
    order: OrderSpec::Default,
    expected: Some("#t"),
    paper: row(Pass, Pass, Fail, Pass, Pass),
    static_spec: Some(StaticSpec {
        function: "perm?",
        domains: &[Domain::List, Domain::List],
        result: Domain::Any,
    }),
};

/// `isabelle-f`: nested recursion `f(f(n-1))` — the inner result defeats
/// static size reasoning.
pub const ISABELLE_F: CorpusProgram = CorpusProgram {
    id: "isabelle-f",
    description: "nested recursion f(f(n-1))",
    source: "
(define (fnest n) (if (zero? n) 0 (fnest (fnest (- n 1)))))
(fnest 6)",
    order: OrderSpec::Default,
    expected: Some("0"),
    paper: row(Pass, Fail, Fail, Pass, Pass),
    static_spec: Some(StaticSpec {
        function: "fnest",
        domains: &[Domain::Nat],
        result: Domain::Nat,
    }),
};

/// `isabelle-foo`: logarithmic descent via quotient — nonlinear for the
/// static solver.
pub const ISABELLE_FOO: CorpusProgram = CorpusProgram {
    id: "isabelle-foo",
    description: "logarithmic descent by halving",
    source: "
(define (foo n) (if (< n 2) n (foo (quotient n 2))))
(foo 1000000)",
    order: OrderSpec::Default,
    expected: Some("1"),
    paper: row(Pass, Fail, Fail, Pass, Pass),
    static_spec: Some(StaticSpec {
        function: "foo",
        domains: &[Domain::Nat],
        result: Domain::Nat,
    }),
};

/// `isabelle-bar`: subtractive gcd.
pub const ISABELLE_BAR: CorpusProgram = CorpusProgram {
    id: "isabelle-bar",
    description: "subtractive gcd",
    source: "
(define (bar a b)
  (cond [(= a b) a]
        [(< a b) (bar a (- b a))]
        [else (bar (- a b) b)]))
(bar 21 6)",
    order: OrderSpec::Default,
    expected: Some("3"),
    paper: row(Pass, Fail, Fail, Pass, Pass),
    static_spec: Some(StaticSpec {
        function: "bar",
        domains: &[Domain::Pos, Domain::Pos],
        result: Domain::Any,
    }),
};

/// `isabelle-poly`: a closure builder whose termination argument crosses
/// higher-order returns — every static tool in Table 1 fails it.
pub const ISABELLE_POLY: CorpusProgram = CorpusProgram {
    id: "isabelle-poly",
    description: "polymorphic closure builder",
    source: "
(define (build k)
  (if (zero? k) (lambda (x) x) (lambda (x) ((build (- k 1)) (+ x 1)))))
((build 4) 10)",
    order: OrderSpec::Default,
    expected: Some("14"),
    paper: row(Pass, Fail, Fail, Fail, Fail),
    static_spec: Some(StaticSpec {
        function: "build",
        domains: &[Domain::Nat],
        result: Domain::Any,
    }),
};

/// `acl2-fig-2`: ascent toward a bound — dynamic checking needs a custom
/// order (Table 1's `O`).
pub const ACL2_FIG_2: CorpusProgram = CorpusProgram {
    id: "acl2-fig-2",
    description: "count up to a bound (needs custom order)",
    source: "
(define (upto i n) (if (>= i n) 0 (+ 1 (upto (+ i 1) n))))
(upto 0 8)",
    order: OrderSpec::ReverseInt,
    expected: Some("8"),
    paper: row(PassCustomOrder, Fail, Fail, Fail, Fail),
    static_spec: Some(StaticSpec {
        function: "upto",
        domains: &[Domain::Nat, Domain::Nat],
        result: Domain::Nat,
    }),
};

/// `acl2-fig-6`: guarded mutual recursion.
pub const ACL2_FIG_6: CorpusProgram = CorpusProgram {
    id: "acl2-fig-6",
    description: "guarded mutual recursion",
    source: "
(define (dec-even n) (if (zero? n) 0 (dec-odd (- n 1))))
(define (dec-odd n) (if (zero? n) 1 (dec-even (- n 1))))
(dec-even 30)",
    order: OrderSpec::Default,
    expected: Some("0"),
    paper: row(Pass, Pass, Fail, Fail, Fail),
    static_spec: Some(StaticSpec {
        function: "dec-even",
        domains: &[Domain::Nat],
        result: Domain::Nat,
    }),
};

/// `acl2-fig-7`: descent by a gcd-sized step — needs gcd bounds statically.
pub const ACL2_FIG_7: CorpusProgram = CorpusProgram {
    id: "acl2-fig-7",
    description: "descent by gcd-sized steps",
    source: "
(define (shrink x) (if (zero? x) 0 (shrink (- x (gcd x 12)))))
(shrink 100)",
    order: OrderSpec::Default,
    expected: Some("0"),
    paper: row(Pass, Fail, Fail, Fail, Pass),
    static_spec: Some(StaticSpec {
        function: "shrink",
        domains: &[Domain::Nat],
        result: Domain::Nat,
    }),
};

/// `lh-gcd`: Euclid's algorithm — static needs `|a mod b| < |b|`.
pub const LH_GCD: CorpusProgram = CorpusProgram {
    id: "lh-gcd",
    description: "Euclid's gcd via remainder",
    source: "
(define (euclid a b) (if (zero? b) a (euclid b (remainder a b))))
(euclid 252 105)",
    order: OrderSpec::Default,
    expected: Some("21"),
    paper: row(Pass, Fail, Pass, Pass, Pass),
    static_spec: Some(StaticSpec {
        function: "euclid",
        domains: &[Domain::Nat, Domain::Nat],
        result: Domain::Nat,
    }),
};

/// `lh-map`: structural map with a functional argument.
pub const LH_MAP: CorpusProgram = CorpusProgram {
    id: "lh-map",
    description: "map over a list",
    source: "
(define (my-map f xs)
  (if (null? xs) '() (cons (f (car xs)) (my-map f (cdr xs)))))
(my-map (lambda (x) (* x x)) '(1 2 3 4))",
    order: OrderSpec::Default,
    expected: Some("(1 4 9 16)"),
    paper: row(Pass, Pass, Pass, Pass, NoHigherOrder),
    static_spec: Some(StaticSpec {
        function: "my-map",
        domains: &[Domain::Any, Domain::List],
        result: Domain::List,
    }),
};

/// `lh-merge`: merging sorted lists — lexicographic descent, the classic
/// LJB-provable shape.
pub const LH_MERGE: CorpusProgram = CorpusProgram {
    id: "lh-merge",
    description: "merge of two sorted lists",
    source: "
(define (merge xs ys)
  (cond [(null? xs) ys]
        [(null? ys) xs]
        [(< (car xs) (car ys)) (cons (car xs) (merge (cdr xs) ys))]
        [else (cons (car ys) (merge xs (cdr ys)))]))
(merge '(1 3 5) '(2 4 6))",
    order: OrderSpec::Default,
    expected: Some("(1 2 3 4 5 6)"),
    paper: row(Pass, Pass, PassAnnotated, Pass, Pass),
    static_spec: Some(StaticSpec {
        function: "merge",
        domains: &[Domain::List, Domain::List],
        result: Domain::List,
    }),
};

/// `lh-range`: ascending range — dynamic needs a custom order.
pub const LH_RANGE: CorpusProgram = CorpusProgram {
    id: "lh-range",
    description: "ascending integer range (needs custom order)",
    source: "
(define (range lo hi) (if (>= lo hi) '() (cons lo (range (+ lo 1) hi))))
(range 0 8)",
    order: OrderSpec::ReverseInt,
    expected: Some("(0 1 2 3 4 5 6 7)"),
    paper: row(PassCustomOrder, Fail, PassAnnotated, Fail, Pass),
    static_spec: Some(StaticSpec {
        function: "range",
        domains: &[Domain::Nat, Domain::Nat],
        result: Domain::List,
    }),
};

/// `lh-tfact`: tail factorial with an accumulator.
pub const LH_TFACT: CorpusProgram = CorpusProgram {
    id: "lh-tfact",
    description: "tail-recursive factorial",
    source: "
(define (tfact n acc) (if (zero? n) acc (tfact (- n 1) (* n acc))))
(tfact 10 1)",
    order: OrderSpec::Default,
    expected: Some("3628800"),
    paper: row(Pass, Pass, Pass, Pass, Pass),
    static_spec: Some(StaticSpec {
        function: "tfact",
        domains: &[Domain::Nat, Domain::Int],
        result: Domain::Int,
    }),
};

/// `dderiv`: table-driven symbolic differentiation (Gabriel benchmark).
pub const DDERIV: CorpusProgram = CorpusProgram {
    id: "dderiv",
    description: "table-driven symbolic differentiation (Gabriel)",
    source: "
(define (map-f f l) (if (null? l) '() (cons (f (car l)) (map-f f (cdr l)))))
(define (dd+ a) (cons '+ (map-f dderiv (cdr a))))
(define (dd- a) (cons '- (map-f dderiv (cdr a))))
(define (dd* a) (list '* a (cons '+ (map-f (lambda (b) (list '/ (dderiv b) b)) (cdr a)))))
(define ops (list (cons '+ dd+) (cons '- dd-) (cons '* dd*)))
(define (dderiv a)
  (if (not (pair? a))
      (if (eq? a 'x) 1 0)
      ((cdr (assq (car a) ops)) a)))
(dderiv '(+ (* 3 x x) (* a x x) (* b x) 5))",
    order: OrderSpec::Default,
    expected: None,
    paper: row(Pass, Pass, NotReported, NotReported, NotReported),
    static_spec: Some(StaticSpec {
        function: "dderiv",
        domains: &[Domain::Any],
        result: Domain::Any,
    }),
};

/// `deriv`: direct symbolic differentiation (Gabriel benchmark).
pub const DERIV: CorpusProgram = CorpusProgram {
    id: "deriv",
    description: "symbolic differentiation (Gabriel)",
    source: "
(define (map-f f l) (if (null? l) '() (cons (f (car l)) (map-f f (cdr l)))))
(define (deriv a)
  (cond [(not (pair? a)) (if (eq? a 'x) 1 0)]
        [(eq? (car a) '+) (cons '+ (map-f deriv (cdr a)))]
        [(eq? (car a) '-) (cons '- (map-f deriv (cdr a)))]
        [(eq? (car a) '*) (list '* a (cons '+ (map-f (lambda (b) (list '/ (deriv b) b)) (cdr a))))]
        [else (error 'deriv \"unknown operator\")]))
(deriv '(+ (* 3 x x) (* a x x) (* b x) 5))",
    order: OrderSpec::Default,
    expected: None,
    paper: row(Pass, Fail, NotReported, NotReported, NotReported),
    static_spec: Some(StaticSpec {
        function: "deriv",
        domains: &[Domain::Any],
        result: Domain::Any,
    }),
};

/// `destruct`: list surgery loops (functional analog of the Gabriel
/// destructive benchmark; see "Value orders" in `docs/ARCHITECTURE.md` on
/// the mutation substitution).
pub const DESTRUCT: CorpusProgram = CorpusProgram {
    id: "destruct",
    description: "list rotation and rebuilding (Gabriel destruct, functional analog)",
    source: "
(define (iota n) (if (zero? n) '() (cons n (iota (- n 1)))))
(define (rot l n)
  (if (zero? n) l (rot (append (cdr l) (list (car l))) (- n 1))))
(define (churn l k)
  (if (zero? k) (length l) (churn (rot l k) (- k 1))))
(churn (iota 8) 8)",
    order: OrderSpec::Default,
    expected: Some("8"),
    paper: row(Pass, Fail, NotReported, NotReported, NotReported),
    static_spec: Some(StaticSpec {
        function: "churn",
        domains: &[Domain::List, Domain::Nat],
        result: Domain::Any,
    }),
};

/// `div`: dividing list lengths by two (Gabriel benchmark).
pub const DIV: CorpusProgram = CorpusProgram {
    id: "div",
    description: "list halving, iterative and recursive (Gabriel div)",
    source: "
(define (create-n n) (if (zero? n) '() (cons '() (create-n (- n 1)))))
(define (iterative-div2 l) (if (null? l) '() (cons (car l) (iterative-div2 (cddr l)))))
(define (recursive-div2 l) (if (null? l) '() (cons (car l) (recursive-div2 (cddr l)))))
(+ (length (iterative-div2 (create-n 20))) (length (recursive-div2 (create-n 20))))",
    order: OrderSpec::Default,
    expected: Some("20"),
    paper: row(Pass, Pass, NotReported, NotReported, NotReported),
    static_spec: Some(StaticSpec {
        function: "iterative-div2",
        domains: &[Domain::List],
        result: Domain::List,
    }),
};

/// `nfa`: the decades-old automaton benchmark of §5.1.2 — here with the
/// bug *fixed* (the diverging original lives in the diverging corpus).
pub const NFA: CorpusProgram = CorpusProgram {
    id: "nfa",
    description: "NFA for ((a|c)*bcd)|(a*bc) on a^133 bc (fixed version)",
    source: "
(define (state1 input)
  (and (not (null? input))
       (or (and (char=? (car input) #\\a) (state1 (cdr input)))
           (and (char=? (car input) #\\c) (state1 (cdr input)))
           (state2 input))))
(define (state2 input)
  (and (not (null? input)) (char=? (car input) #\\b) (state3 (cdr input))))
(define (state3 input)
  (and (not (null? input)) (char=? (car input) #\\c) (state4 (cdr input))))
(define (state4 input)
  (and (not (null? input)) (char=? (car input) #\\d) (null? (cdr input))))
(define (stateA input)
  (and (not (null? input))
       (or (and (char=? (car input) #\\a) (stateA (cdr input)))
           (stateB input))))
(define (stateB input)
  (and (not (null? input)) (char=? (car input) #\\b) (stateC (cdr input))))
(define (stateC input)
  (and (not (null? input)) (char=? (car input) #\\c) (null? (cdr input))))
(define (run-nfa input) (or (state1 input) (stateA input)))
(define (make-input n)
  (if (zero? n) (list #\\b #\\c) (cons #\\a (make-input (- n 1)))))
(run-nfa (make-input 133))",
    order: OrderSpec::Default,
    expected: Some("#t"),
    paper: row(Pass, Pass, NotReported, NotReported, NotReported),
    static_spec: Some(StaticSpec {
        function: "run-nfa",
        domains: &[Domain::List],
        result: Domain::Any,
    }),
};

/// `scheme`: the compiler-interpreter (Figure 2 style) running tree
/// merge-sort over strings — the paper's largest benchmark.
pub const SCHEME: CorpusProgram = CorpusProgram {
    id: "scheme",
    description: "Scheme interpreter (Figure-2 compile style) running merge-sort on strings",
    source: scheme_interp::SCHEME_ROW_SOURCE,
    order: OrderSpec::Extended,
    expected: None,
    paper: row(Pass, Fail, NotReported, NotReported, NotReported),
    static_spec: None,
};

/// All Table-1 rows in the paper's order.
pub fn all() -> Vec<CorpusProgram> {
    vec![
        SCT_1,
        SCT_2,
        SCT_3,
        SCT_4,
        SCT_5,
        SCT_6,
        HO_SC_ACK,
        HO_SCT_FG,
        HO_SCT_FOLD,
        ISABELLE_PERM,
        ISABELLE_F,
        ISABELLE_FOO,
        ISABELLE_BAR,
        ISABELLE_POLY,
        ACL2_FIG_2,
        ACL2_FIG_6,
        ACL2_FIG_7,
        LH_GCD,
        LH_MAP,
        LH_MERGE,
        LH_RANGE,
        LH_TFACT,
        DDERIV,
        DERIV,
        DESTRUCT,
        DIV,
        NFA,
        SCHEME,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_rows_present_and_distinct() {
        let rows = all();
        assert_eq!(rows.len(), 28, "all 28 paper rows present");
        let mut ids: Vec<&str> = rows.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), rows.len(), "duplicate row id");
    }

    #[test]
    fn paper_dynamic_column_all_pass() {
        // Table 1 reports the dynamic check passing (possibly with a custom
        // order) on every row.
        for row in all() {
            assert!(row.paper.dynamic.is_pass(), "{}", row.id);
        }
    }
}
