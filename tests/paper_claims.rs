//! Cross-crate integration tests pinning the paper's headline claims.
//!
//! Each test names the claim it checks; together they are the repository's
//! executable summary of the reproduction.

use sct_contracts::{run, run_monitored, verify, EvalError, PlanDomain, TableStrategy, Value};
use sct_corpus::{diverging, run_dynamic, run_standard, table1};

const ACK: &str = "
(define (ack m n)
  (cond [(= 0 m) (+ 1 n)]
        [(= 0 n) (ack (- m 1) 1)]
        [else (ack (- m 1) (ack m (- n 1)))]))";

/// Theorem 3.1 — all programs terminate under the monitored semantics:
/// the diverging corpus ends in errorSC instead of running forever.
#[test]
fn theorem_3_1_totality() {
    for p in diverging::all() {
        let r = run_dynamic(&p, TableStrategy::Imperative);
        assert!(matches!(r, Err(EvalError::Sc(_))), "{}: {r:?}", p.id);
    }
}

/// Theorem 3.2 — soundness: a value produced under monitoring is the value
/// the standard semantics produces.
#[test]
fn theorem_3_2_soundness() {
    for p in table1::all() {
        let monitored = run_dynamic(&p, TableStrategy::Imperative).unwrap();
        let standard = run_standard(&p, Some(200_000_000)).unwrap();
        assert!(
            sct_interp::equal(&monitored, &standard),
            "{}: monitored {} vs standard {}",
            p.id,
            monitored.to_write_string(),
            standard.to_write_string()
        );
    }
}

/// Corollary 3.3 — divergence is caught: the §2.1 buggy Ackermann stops
/// exactly as the worked example describes (on the (ack 1 2) call).
#[test]
fn corollary_3_3_buggy_ack() {
    let buggy = "
(define (ack m n)
  (cond [(= 0 m) (+ 1 n)]
        [(= 0 n) (ack (- m 1) 1)]
        [else (ack m (ack m (- n 1)))]))
(ack 2 0)";
    let err = run_monitored(buggy).unwrap_err();
    let EvalError::Sc(info) = err else { panic!() };
    // The witness graph of §2.1: {(m→=m), (n→=m)} — idempotent, no descent.
    assert!(info.violation.witness.is_idempotent());
    assert!(!info.violation.witness.has_self_descent());
}

/// §2.2 — closures stay distinct: CPS code accumulating continuations
/// passes, even though every static conflation of those closures fails.
#[test]
fn section_2_2_cps_len() {
    let src = "
(define (len l) (loop l (lambda (x) x)))
(define (loop l k)
  (cond [(empty? l) (k 0)]
        [(cons? l) (loop (rest l) (lambda (n) (k (+ 1 n))))]))
(len '(a b c d))";
    assert_eq!(run_monitored(src).unwrap(), Value::int(4));
}

/// §2.3 — blame: the party named by the innermost violated contract is
/// reported.
#[test]
fn section_2_3_blame() {
    let err = run("
(define f (terminating/c (lambda (x) (f x)) \"party-f\"))
(f 1)")
    .unwrap_err();
    let EvalError::Sc(info) = err else { panic!() };
    assert_eq!(info.blame.as_deref(), Some("party-f"));
}

/// §2.4 / Figure 2 — the checked λ-calculus compiler: c1 runs, c2 is
/// caught.
#[test]
fn section_2_4_figure_2() {
    let compiler = "
(define comp
  (terminating/c
   (lambda (e)
     (cond
       [(symbol? e) (lambda (rho) (hash-ref rho e))]
       [(eq? (car e) 'lam) (comp-lam (cadr e) (comp (caddr e)))]
       [else (comp-app (comp (car e)) (comp (cadr e)))]))))
(define (comp-lam x c)
  (lambda (rho) (lambda (z) (c (hash-set rho x z)))))
(define (comp-app c1 c2)
  (lambda (rho) ((c1 rho) (c2 rho))))";
    let ok = run(&format!(
        "{compiler}
         (define c1 (terminating/c (comp '((lam x (x x)) (lam y y)))))
         (c1 (hash))"
    ));
    assert!(ok.is_ok(), "c1 should terminate: {:?}", ok.err());
    let err = run(&format!(
        "{compiler}
         (define c2 (terminating/c (comp '((lam x (x x)) (lam y (y y))))))
         (c2 (hash))"
    ))
    .unwrap_err();
    assert!(matches!(err, EvalError::Sc(_)), "c2 must be caught: {err}");
}

/// §3.6 / Figure 7 — selective enforcement: the same code is allowed to
/// violate SCT outside a contract and stopped inside one.
#[test]
fn figure_7_selective_enforcement() {
    // climb ascends: fine unmonitored, rejected under contract.
    let free = "
(define (climb n) (if (< n 3) (climb (+ n 1)) n))
(climb 0)";
    assert_eq!(run(free).unwrap(), Value::int(3));
    let contracted = "
(define (climb n) (if (< n 3) (climb (+ n 1)) n))
((terminating/c climb) 0)";
    assert!(matches!(run(contracted), Err(EvalError::Sc(_))));
}

/// §4.2 / Figure 9 — the static checker discovers exactly ack's two
/// size-change graphs and verifies it.
#[test]
fn figure_9_static_ack() {
    let verdict = verify(
        ACK,
        "ack",
        &[PlanDomain::Nat, PlanDomain::Nat],
        PlanDomain::Nat,
    )
    .unwrap();
    match verdict {
        sct_contracts::StaticVerdict::Verified { graphs } => {
            assert_eq!(graphs, vec![("ack".to_string(), 2)]);
        }
        other => panic!("ack should verify: {other}"),
    }
}

/// §5 — the two implementation strategies agree on all corpus answers.
#[test]
fn strategies_agree_on_corpus() {
    for p in table1::all() {
        let imp = run_dynamic(&p, TableStrategy::Imperative).unwrap();
        let cm = run_dynamic(&p, TableStrategy::ContinuationMark).unwrap();
        assert!(sct_interp::equal(&imp, &cm), "{}", p.id);
    }
}

/// §5.1.2 — detection is fast: every diverging program is caught within a
/// bounded number of machine steps (no proportionality to a would-be
/// infinite run).
#[test]
fn divergence_detected_quickly() {
    for p in diverging::all() {
        let prog = sct_lang::compile_program(p.source).unwrap();
        let config = sct_contracts::MachineConfig {
            mode: sct_contracts::SemanticsMode::Monitored,
            order: p.order.handle(),
            ..sct_contracts::MachineConfig::monitored(TableStrategy::Imperative)
        };
        let mut m = sct_contracts::Machine::new(&prog, config);
        let r = m.run();
        assert!(matches!(r, Err(EvalError::Sc(_))), "{}", p.id);
        assert!(
            m.stats.steps < 1_000_000,
            "{}: took {} steps to detect",
            p.id,
            m.stats.steps
        );
    }
}

/// The soundness gap the formal semantics closes: with *allocation*
/// closure keys (pure identity), Y-combinator loops slip past the monitor
/// because every unfolding allocates fresh closures; the default
/// structural keys (the formal model's equality) catch them.
#[test]
fn structural_keys_catch_y_combinator_divergence() {
    let omega_y = "
(define Y
  (lambda (h)
    ((lambda (x) (h (lambda (v) ((x x) v))))
     (lambda (x) (h (lambda (v) ((x x) v)))))))
(define spin (Y (lambda (self) (lambda (n) (self n)))))
(spin 5)";
    let prog = sct_lang::compile_program(omega_y).unwrap();

    // Structural keys (default): caught.
    let mut m = sct_contracts::Machine::new(
        &prog,
        sct_contracts::MachineConfig::monitored(TableStrategy::Imperative),
    );
    assert!(matches!(m.run(), Err(EvalError::Sc(_))));

    // Allocation keys: every closure is fresh, nothing recurs, fuel runs out.
    let mut cfg = sct_contracts::MachineConfig::monitored(TableStrategy::Imperative);
    cfg.monitor.key_strategy = sct_contracts::KeyStrategy::Allocation;
    cfg.fuel = Some(500_000);
    let mut m = sct_contracts::Machine::new(&prog, cfg);
    assert!(
        matches!(m.run(), Err(EvalError::OutOfFuel)),
        "allocation keys must miss Y-combinator recursion (the documented trade-off)"
    );
}

/// Figure 10 — merge-sort's monitoring overhead is a constant factor, not
/// a function of input size: on the committed `BENCH_fig10.json`, the
/// imperative and continuation-mark slowdowns at the largest n are at
/// most 2× their slowdowns at the smallest n. The order walk relating
/// list arguments to fixnum arguments must stay cheap for this to hold.
#[test]
fn committed_fig10_msort_overhead_is_flat_in_n() {
    use sct_contracts::core::json::{parse, Json};
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_fig10.json");
    let doc = parse(&std::fs::read_to_string(path).unwrap()).expect("artifact parses");
    let entries = doc.get("entries").and_then(Json::as_arr).unwrap();
    for setup in ["imperative", "continuation-mark"] {
        // (n, slowdown) rows in sweep order.
        let rows: Vec<(u64, f64)> = entries
            .iter()
            .filter(|e| {
                e.get("workload").and_then(Json::as_str) == Some("msort")
                    && e.get("setup").and_then(Json::as_str) == Some(setup)
            })
            .map(|e| {
                let n = e.get("n").and_then(Json::as_u64).unwrap();
                (n, e.get("slowdown").and_then(Json::as_f64).unwrap())
            })
            .collect();
        let smallest = rows.iter().min_by_key(|r| r.0).expect("msort rows");
        let largest = rows.iter().max_by_key(|r| r.0).unwrap();
        assert!(largest.0 > smallest.0, "{setup}: a single size swept");
        assert!(
            largest.1 <= 2.0 * smallest.1,
            "{setup}: slowdown {:.2}x at n={} vs {:.2}x at n={}",
            largest.1,
            largest.0,
            smallest.1,
            smallest.0
        );
    }
}
