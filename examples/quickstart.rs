//! Quick start: termination contracts in five minutes.
//!
//! Run: `cargo run --example quickstart`

use sct_contracts::{run, run_monitored, verify, EvalError, PlanDomain};

fn main() {
    // 1. Partial programs run as usual; a terminating/c contract makes a
    //    function's dynamic extent subject to size-change monitoring.
    let v = run("
      (define (ack m n)
        (cond [(= 0 m) (+ 1 n)]
              [(= 0 n) (ack (- m 1) 1)]
              [else (ack (- m 1) (ack m (- n 1)))]))
      (define checked-ack (terminating/c ack \"ack contract\"))
      (checked-ack 2 3)")
    .expect("ack terminates");
    println!("(checked-ack 2 3) = {v}");

    // 2. A buggy loop under contract is stopped, and the contract's blame
    //    party is reported (§2.3).
    let err = run("
      (define spin (terminating/c (lambda (x) (spin x)) \"the spin module\"))
      (spin 'go)")
    .unwrap_err();
    match err {
        EvalError::Sc(info) => {
            println!("caught: {info}");
        }
        other => panic!("expected a size-change error, got {other}"),
    }

    // 3. Whole-program monitoring (λSCT): *everything* terminates, one way
    //    or the other (Theorem 3.1).
    let err = run_monitored("(define (up n) (up (+ n 1))) (up 0)").unwrap_err();
    println!("whole-program monitor said: {err}");

    // 4. The same property, statically (§4): no run-time cost at all.
    let verdict = verify(
        "(define (ack m n)
           (cond [(= 0 m) (+ 1 n)]
                 [(= 0 n) (ack (- m 1) 1)]
                 [else (ack (- m 1) (ack m (- n 1)))]))",
        "ack",
        &[PlanDomain::Nat, PlanDomain::Nat],
        PlanDomain::Nat,
    )
    .expect("compiles");
    println!("static verdict for ack: {verdict}");
}
