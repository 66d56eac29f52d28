//! A Scheme interpreter written *in* λSCT, in the compile-to-closures
//! style of Figure 2.
//!
//! §2.4 demonstrates dynamic enforcement on an interpreter that "first
//! compiles the term to a procedure and then applies this procedure to an
//! environment"; the paper's largest benchmark (`scheme`, 1,100 lines of
//! R5RS) follows the same architecture. This is the corresponding
//! substrate, scaled to what the Figure-10 workloads need:
//!
//! * `comp` compiles an expression (S-expression data) to a λSCT closure
//!   taking an environment hash — structural recursion, trivially SCT.
//! * Interpreted lambdas of arity 1–3 compile to host closures of the
//!   *same* arity, so the monitor sees interpreted arguments as separate
//!   host arguments and interpreted descent (e.g. `n − 1`) becomes host
//!   argument descent.
//! * Environments are immutable hashes; the per-body compiled closures are
//!   re-applied along interpreted recursion with pointwise-descending
//!   environments, which the `ExtendedOrder` recognizes (see "Value
//!   orders" in `docs/ARCHITECTURE.md`).
//! * Globals live in a `set!`-updated table built before `main` runs.
//!
//! Interpreted programs avoid `let` in recursive paths (a `let` would put
//! unrelated intermediate values into the environment and break the
//! pointwise descent — the same restriction the paper's Figure 2 dialect
//! has, since its λ-calculus has no `let` at all).

/// The interpreter: defines `(run-program prog arg)` which installs the
/// program's `define`s and calls its `main` with `arg`.
pub const INTERPRETER: &str = r#"
;; ----------------------------------------------------------------------
;; Figure-2-style compiler-interpreter.
;; ----------------------------------------------------------------------
(define genv (hash))

(define (prim-1? s)
  (memq s '(zero? null? pair? not car cdr length)))
(define (prim-2? s)
  (memq s '(+ - * quotient remainder = < <= cons string<? string=? eq?)))

(define (apply-prim-1 s a)
  (cond [(eq? s 'zero?) (zero? a)]
        [(eq? s 'null?) (null? a)]
        [(eq? s 'pair?) (pair? a)]
        [(eq? s 'not) (not a)]
        [(eq? s 'car) (car a)]
        [(eq? s 'cdr) (cdr a)]
        [(eq? s 'length) (length a)]
        [else (error 'interp "unknown unary primitive")]))

(define (apply-prim-2 s a b)
  (cond [(eq? s '+) (+ a b)]
        [(eq? s '-) (- a b)]
        [(eq? s '*) (* a b)]
        [(eq? s 'quotient) (quotient a b)]
        [(eq? s 'remainder) (remainder a b)]
        [(eq? s '=) (= a b)]
        [(eq? s '<) (< a b)]
        [(eq? s '<=) (<= a b)]
        [(eq? s 'cons) (cons a b)]
        [(eq? s 'string<?) (string<? a b)]
        [(eq? s 'string=?) (string=? a b)]
        [(eq? s 'eq?) (eq? a b)]
        [else (error 'interp "unknown binary primitive")]))

;; comp : expr -> (env-hash -> value)
(define (comp e)
  (cond
    [(number? e) (lambda (r) e)]
    [(string? e) (lambda (r) e)]
    [(boolean? e) (lambda (r) e)]
    [(symbol? e) (comp-var e)]
    [(eq? (car e) 'quote) (comp-quote (cadr e))]
    [(eq? (car e) 'lambda) (comp-lambda (cadr e) (caddr e))]
    [(eq? (car e) 'if) (comp-if (comp (cadr e)) (comp (caddr e)) (comp (cadddr e)))]
    [(prim-1? (car e)) (comp-prim-1 (car e) (comp (cadr e)))]
    [(prim-2? (car e)) (comp-prim-2 (car e) (comp (cadr e)) (comp (caddr e)))]
    [else (comp-app e)]))

(define (comp-var x)
  (lambda (r) (if (hash-has-key? r x) (hash-ref r x) (hash-ref genv x))))

(define (comp-quote d)
  (lambda (r) d))

(define (comp-if cc ct cf)
  (lambda (r) (if (cc r) (ct r) (cf r))))

(define (comp-prim-1 op c1)
  (lambda (r) (apply-prim-1 op (c1 r))))

(define (comp-prim-2 op c1 c2)
  (lambda (r) (apply-prim-2 op (c1 r) (c2 r))))

;; Interpreted lambdas of arity 1..3 become host closures of the same
;; arity, so interpreted argument descent is host argument descent.
(define (comp-lambda params body)
  (comp-lambda-arity params (comp body)))

(define (comp-lambda-arity params c)
  (cond
    [(null? (cdr params))
     (lambda (r)
       (lambda (z1) (c (hash-set r (car params) z1))))]
    [(null? (cddr params))
     (lambda (r)
       (lambda (z1 z2)
         (c (hash-set (hash-set r (car params) z1) (cadr params) z2))))]
    [else
     (lambda (r)
       (lambda (z1 z2 z3)
         (c (hash-set (hash-set (hash-set r (car params) z1)
                                (cadr params) z2)
                      (caddr params) z3))))]))

(define (comp-app e)
  (cond
    [(null? (cddr e))
     (comp-app-1 (comp (car e)) (comp (cadr e)))]
    [(null? (cdddr e))
     (comp-app-2 (comp (car e)) (comp (cadr e)) (comp (caddr e)))]
    [else
     (comp-app-3 (comp (car e)) (comp (cadr e)) (comp (caddr e)) (comp (cadddr e)))]))

(define (comp-app-1 cf c1)
  (lambda (r) ((cf r) (c1 r))))
(define (comp-app-2 cf c1 c2)
  (lambda (r) ((cf r) (c1 r) (c2 r))))
(define (comp-app-3 cf c1 c2 c3)
  (lambda (r) ((cf r) (c1 r) (c2 r) (c3 r))))

;; Top level: a program is a list of (define (f params...) body) followed
;; by nothing; run-program installs them and calls main.
(define (install-defines defs)
  (if (null? defs)
      'done
      (begin
        (set! genv
              (hash-set genv
                        (car (cadr (car defs)))
                        ((comp-lambda (cdr (cadr (car defs))) (caddr (car defs)))
                         (hash))))
        (install-defines (cdr defs)))))

(define (run-program prog arg)
  (begin
    (set! genv (hash))
    (install-defines prog)
    ((hash-ref genv 'main) arg)))
"#;

/// Interpreted factorial (the "Interpreted Factorial" series of Fig. 10).
pub const TARGET_FACT: &str = "
(define (main n) (if (zero? n) 1 (* n (main (- n 1)))))";

/// Interpreted sum, non-accumulating so the interpreted environment
/// descends pointwise ("Interpreted Sum" of Fig. 10).
pub const TARGET_SUM: &str = "
(define (main n) (if (zero? n) 0 (+ n (main (- n 1)))))";

/// Interpreted merge-sort over a pre-split *tree* of strings: leaves are
/// strings, nodes are pairs; recursion is on subterms, which keeps the
/// interpreter's environment chains descending ("Interpreted Merge-sort").
pub const TARGET_MSORT: &str = "
(define (merge2 a b)
  (if (null? a) b
      (if (null? b) a
          (if (string<? (car a) (car b))
              (cons (car a) (merge2 (cdr a) b))
              (cons (car b) (merge2 a (cdr b)))))))
(define (main t)
  (if (pair? t)
      (merge2 (main (car t)) (main (cdr t)))
      (cons t '())))";

/// Composes the interpreter with a target program: the resulting λSCT
/// source defines `(go arg)` that runs the target's `main` on `arg`.
pub fn compose(target: &str) -> String {
    format!(
        "{INTERPRETER}\n(define target-prog '({target}\n))\n(define (go x) (run-program target-prog x))\n"
    )
}

/// The Table-1 `scheme` row: the interpreter sorting a small tree of
/// strings, exercised end to end.
pub const SCHEME_ROW_SOURCE: &str = concat!(
    r#"
;; ----------------------------------------------------------------------
;; Figure-2-style compiler-interpreter.
;; ----------------------------------------------------------------------
(define genv (hash))

(define (prim-1? s)
  (memq s '(zero? null? pair? not car cdr length)))
(define (prim-2? s)
  (memq s '(+ - * quotient remainder = < <= cons string<? string=? eq?)))

(define (apply-prim-1 s a)
  (cond [(eq? s 'zero?) (zero? a)]
        [(eq? s 'null?) (null? a)]
        [(eq? s 'pair?) (pair? a)]
        [(eq? s 'not) (not a)]
        [(eq? s 'car) (car a)]
        [(eq? s 'cdr) (cdr a)]
        [(eq? s 'length) (length a)]
        [else (error 'interp "unknown unary primitive")]))

(define (apply-prim-2 s a b)
  (cond [(eq? s '+) (+ a b)]
        [(eq? s '-) (- a b)]
        [(eq? s '*) (* a b)]
        [(eq? s 'quotient) (quotient a b)]
        [(eq? s 'remainder) (remainder a b)]
        [(eq? s '=) (= a b)]
        [(eq? s '<) (< a b)]
        [(eq? s '<=) (<= a b)]
        [(eq? s 'cons) (cons a b)]
        [(eq? s 'string<?) (string<? a b)]
        [(eq? s 'string=?) (string=? a b)]
        [(eq? s 'eq?) (eq? a b)]
        [else (error 'interp "unknown binary primitive")]))

(define (comp e)
  (cond
    [(number? e) (lambda (r) e)]
    [(string? e) (lambda (r) e)]
    [(boolean? e) (lambda (r) e)]
    [(symbol? e) (comp-var e)]
    [(eq? (car e) 'quote) (comp-quote (cadr e))]
    [(eq? (car e) 'lambda) (comp-lambda (cadr e) (caddr e))]
    [(eq? (car e) 'if) (comp-if (comp (cadr e)) (comp (caddr e)) (comp (cadddr e)))]
    [(prim-1? (car e)) (comp-prim-1 (car e) (comp (cadr e)))]
    [(prim-2? (car e)) (comp-prim-2 (car e) (comp (cadr e)) (comp (caddr e)))]
    [else (comp-app e)]))

(define (comp-var x)
  (lambda (r) (if (hash-has-key? r x) (hash-ref r x) (hash-ref genv x))))

(define (comp-quote d)
  (lambda (r) d))

(define (comp-if cc ct cf)
  (lambda (r) (if (cc r) (ct r) (cf r))))

(define (comp-prim-1 op c1)
  (lambda (r) (apply-prim-1 op (c1 r))))

(define (comp-prim-2 op c1 c2)
  (lambda (r) (apply-prim-2 op (c1 r) (c2 r))))

(define (comp-lambda params body)
  (comp-lambda-arity params (comp body)))

(define (comp-lambda-arity params c)
  (cond
    [(null? (cdr params))
     (lambda (r)
       (lambda (z1) (c (hash-set r (car params) z1))))]
    [(null? (cddr params))
     (lambda (r)
       (lambda (z1 z2)
         (c (hash-set (hash-set r (car params) z1) (cadr params) z2))))]
    [else
     (lambda (r)
       (lambda (z1 z2 z3)
         (c (hash-set (hash-set (hash-set r (car params) z1)
                                (cadr params) z2)
                      (caddr params) z3))))]))

(define (comp-app e)
  (cond
    [(null? (cddr e))
     (comp-app-1 (comp (car e)) (comp (cadr e)))]
    [(null? (cdddr e))
     (comp-app-2 (comp (car e)) (comp (cadr e)) (comp (caddr e)))]
    [else
     (comp-app-3 (comp (car e)) (comp (cadr e)) (comp (caddr e)) (comp (cadddr e)))]))

(define (comp-app-1 cf c1)
  (lambda (r) ((cf r) (c1 r))))
(define (comp-app-2 cf c1 c2)
  (lambda (r) ((cf r) (c1 r) (c2 r))))
(define (comp-app-3 cf c1 c2 c3)
  (lambda (r) ((cf r) (c1 r) (c2 r) (c3 r))))

(define (install-defines defs)
  (if (null? defs)
      'done
      (begin
        (set! genv
              (hash-set genv
                        (car (cadr (car defs)))
                        ((comp-lambda (cdr (cadr (car defs))) (caddr (car defs)))
                         (hash))))
        (install-defines (cdr defs)))))

(define (run-program prog arg)
  (begin
    (set! genv (hash))
    (install-defines prog)
    ((hash-ref genv 'main) arg)))
"#,
    r#"
;; The interpreted program: tree merge-sort over strings.
(define target-prog
  '((define (merge2 a b)
      (if (null? a) b
          (if (null? b) a
              (if (string<? (car a) (car b))
                  (cons (car a) (merge2 (cdr a) b))
                  (cons (car b) (merge2 a (cdr b)))))))
    (define (main t)
      (if (pair? t)
          (merge2 (main (car t)) (main (cdr t)))
          (cons t '())))))
(run-program target-prog
             (cons (cons "delta" "alpha") (cons (cons "echo" "bravo") "charlie")))
"#
);

#[cfg(test)]
mod tests {
    use super::*;
    use sct_interp::eval_str;

    #[test]
    fn interpreter_runs_fact_standard() {
        let src = format!("{}\n(go 10)", compose(TARGET_FACT));
        let v = eval_str(&src).unwrap();
        assert_eq!(v.to_write_string(), "3628800");
    }

    #[test]
    fn interpreter_runs_sum_standard() {
        let src = format!("{}\n(go 100)", compose(TARGET_SUM));
        let v = eval_str(&src).unwrap();
        assert_eq!(v.to_write_string(), "5050");
    }

    #[test]
    fn interpreter_runs_msort_standard() {
        // Tree ((d . a) . ((e . b) . c)) sorts to (a b c d e).
        let src = format!(
            "{}\n(go (cons (cons \"d\" \"a\") (cons (cons \"e\" \"b\") \"c\")))",
            compose(TARGET_MSORT)
        );
        let v = eval_str(&src).unwrap();
        assert_eq!(v.to_write_string(), "(\"a\" \"b\" \"c\" \"d\" \"e\")");
    }

    #[test]
    fn scheme_row_source_runs_standard() {
        let v = eval_str(SCHEME_ROW_SOURCE).unwrap();
        assert_eq!(
            v.to_write_string(),
            "(\"alpha\" \"bravo\" \"charlie\" \"delta\" \"echo\")"
        );
    }
}
