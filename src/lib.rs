//! # sct-contracts
//!
//! Size-change termination as a contract: dynamic and static enforcement
//! of termination for higher-order programs — a Rust reproduction of
//! Nguyễn, Gilray, Tobin-Hochstadt & Van Horn, PLDI 2019.
//!
//! The workspace provides, and this crate re-exports:
//!
//! * [`lang`] — the λSCT language front end (Scheme subset → core AST);
//! * [`core`] — size-change graphs, `prog?`, well-founded orders, tables,
//!   blame: the paper's §3 machinery;
//! * [`interp`] — one CEK machine running the standard ⇓, monitored ⬇, and
//!   call-sequence ↓↓ semantics, with `terminating/c` contracts and both
//!   §5 table strategies;
//! * [`symbolic`] — the §4 static verifier (symbolic execution + built-in
//!   solver + Lee–Jones–Ben-Amram closure check);
//! * [`corpus`] — the paper's evaluation programs and workloads.
//!
//! # Quick start
//!
//! Dynamically enforce termination of one function:
//!
//! ```
//! use sct_contracts::{run, EvalError};
//!
//! // ack is wrapped in terminating/c: its dynamic extent is monitored.
//! let v = run("
//!   (define (ack m n)
//!     (cond [(= 0 m) (+ 1 n)]
//!           [(= 0 n) (ack (- m 1) 1)]
//!           [else (ack (- m 1) (ack m (- n 1)))]))
//!   (define checked-ack (terminating/c ack))
//!   (checked-ack 2 3)").unwrap();
//! assert_eq!(v.to_write_string(), "9");
//!
//! // A diverging function under contract is stopped, with blame.
//! let err = run("
//!   (define f (terminating/c (lambda (x) (f x)) \"my-party\"))
//!   (f 1)").unwrap_err();
//! assert!(matches!(err, EvalError::Sc(_)));
//! ```
//!
//! Statically verify the same function (§4):
//!
//! ```
//! use sct_contracts::{verify, PlanDomain};
//!
//! let verdict = verify(
//!     "(define (ack m n)
//!        (cond [(= 0 m) (+ 1 n)]
//!              [(= 0 n) (ack (- m 1) 1)]
//!              [else (ack (- m 1) (ack m (- n 1)))]))",
//!     "ack",
//!     &[PlanDomain::Nat, PlanDomain::Nat],
//!     PlanDomain::Nat,
//! ).unwrap();
//! assert!(verdict.is_verified());
//! ```
//!
//! Or combine the two regimes — statically discharge what the verifier can
//! prove, monitor only the residual ([`run_hybrid`]; see
//! `docs/GUIDE.md` for the full walkthrough):
//!
//! ```
//! use sct_contracts::run_hybrid;
//!
//! let v = run_hybrid("
//!   (define (ack m n)
//!     (cond [(= 0 m) (+ 1 n)]
//!           [(= 0 n) (ack (- m 1) 1)]
//!           [else (ack (- m 1) (ack m (- n 1)))]))
//!   (ack 2 3)").unwrap();
//! assert_eq!(v.to_write_string(), "9");
//! ```

pub mod serve;

pub use sct_cache as cache;
pub use sct_core as core;
pub use sct_corpus as corpus;
pub use sct_interp as interp;
pub use sct_ir as ir;
pub use sct_lang as lang;
pub use sct_sexpr as sexpr;
pub use sct_symbolic as symbolic;

pub use sct_cache::{CacheStats, DiskCache, MemStore};
pub use sct_core::monitor::{BackoffPolicy, KeyStrategy, MonitorConfig, TableStrategy};
pub use sct_core::plan::{Decision, EnforcementPlan, FnDecision, PlanDomain};
pub use sct_interp::{EvalError, Machine, MachineConfig, SemanticsMode, Value};
pub use sct_symbolic::{plan_program, IncrementalStats, NullStore, PlanConfig, StaticVerdict};
pub use serve::{serve_stdio, serve_unix, ServeOptions, Server};

use sct_core::seq::ScViolation;
use sct_interp::{RtError, ScErrorInfo};
use std::rc::Rc;

/// Runs a program under the standard semantics — `terminating/c` extents
/// are monitored, everything else runs unchecked (λCSCT).
///
/// # Errors
///
/// Compile errors are reported as [`EvalError::Rt`]; monitored extents can
/// raise [`EvalError::Sc`].
pub fn run(source: &str) -> Result<Value, EvalError> {
    sct_interp::eval_str(source)
}

/// Runs a program under the fully monitored semantics ⬇ (λSCT): every
/// closure application is checked, so evaluation always terminates —
/// either with the value or with `errorSC` (Theorem 3.1).
///
/// # Errors
///
/// As [`run`], plus [`EvalError::Sc`] on any size-change violation.
pub fn run_monitored(source: &str) -> Result<Value, EvalError> {
    sct_interp::eval_str_monitored(source, TableStrategy::Imperative)
}

/// Runs a program under the *hybrid* enforcement pipeline: a static
/// pre-pass ([`plan_program`]) discharges `terminating/c` for every
/// `define` it can prove, the monitor guards only the residual, and a
/// statically *refuted* function is reported — with the same blame label
/// the monitor would produce at run time — before the program runs.
///
/// ```
/// use sct_contracts::run_hybrid;
///
/// // sum is statically discharged (nat-guarded): the monitored run skips
/// // its checks entirely and executes at ~unchecked speed.
/// let v = run_hybrid(
///     "(define (sum i acc) (if (zero? i) acc (sum (- i 1) (+ acc i))))
///      (sum 1000 0)").unwrap();
/// assert_eq!(v.to_write_string(), "500500");
///
/// // A statically refuted function is blamed before running.
/// use sct_contracts::EvalError;
/// let err = run_hybrid(
///     "(define f (terminating/c (lambda (x) (f x)) \"my-party\")) (f 1)")
///     .unwrap_err();
/// assert!(matches!(err, EvalError::Sc(info) if info.blame.as_deref() == Some("my-party")));
/// ```
///
/// # Errors
///
/// As [`run_monitored`], plus the eager [`EvalError::Sc`] refutation
/// report described above.
pub fn run_hybrid(source: &str) -> Result<Value, EvalError> {
    let prog = sct_lang::compile_program(source)
        .map_err(|e| EvalError::Rt(RtError::new(format!("compile error: {e}"))))?;
    let plan = plan_program(&prog, &PlanConfig::default(), &mut NullStore).0;
    if let Some(err) = refutation_error(&plan) {
        return Err(err);
    }
    let config = MachineConfig {
        plan: Some(Rc::new(plan)),
        ..MachineConfig::monitored(TableStrategy::Imperative)
    };
    Machine::new(&prog, config).run()
}

/// The eager refutation report for a plan: the first statically refuted
/// function rendered as the `errorSC` the dynamic monitor would raise —
/// same violation witness, same function name, same blame label.
pub fn refutation_error(plan: &EnforcementPlan) -> Option<EvalError> {
    plan.refuted().next().map(|d| {
        let Decision::Refuted { witness, culprit } = &d.decision else {
            unreachable!("refuted() yields only Refuted decisions");
        };
        EvalError::Sc(ScErrorInfo {
            blame: d.blame.as_deref().map(Rc::from),
            function: culprit.clone(),
            violation: ScViolation {
                witness: witness.clone(),
            },
        })
    })
}

/// Statically verifies that `function` terminates on all inputs in the
/// given domains (§4).
///
/// # Errors
///
/// Returns the compile error message when the source does not compile.
pub fn verify(
    source: &str,
    function: &str,
    domains: &[PlanDomain],
    result: PlanDomain,
) -> Result<StaticVerdict, String> {
    let prog = sct_lang::compile_program(source).map_err(|e| e.to_string())?;
    Ok(sct_symbolic::verify_function(
        &prog,
        function,
        domains,
        result,
        &sct_symbolic::ExecConfig::default(),
    ))
}
