//! Static size-change-termination verification (§4 of the paper).
//!
//! The verifier is the dynamic monitor run under higher-order symbolic
//! execution: no termination-specific abstraction, just (1) symbolic
//! values and path conditions (Figure 8), (2) a solver proving the
//! must-descend / must-equal facts that Figure 4's `graph` needs — here a
//! built-in Fourier–Motzkin linear-arithmetic core plus structural subterm
//! reasoning, standing in for an SMT back end — and (3) the classic
//! Lee–Jones–Ben-Amram criterion over the finitely many discovered
//! self-call graphs (Figure 9).
//!
//! Beyond per-function verification ([`verify_function`]), the [`pipeline`]
//! module is the entry point of the *hybrid* enforcement regime: it plans a
//! whole program — statically discharging what it can, leaving the residual
//! to the dynamic monitor, and eagerly refuting definite violations — into
//! an [`EnforcementPlan`](sct_core::plan::EnforcementPlan) the interpreter
//! consumes.
//!
//! # Examples
//!
//! Verifying Ackermann on symbolic naturals (§4.2):
//!
//! ```
//! use sct_lang::compile_program;
//! use sct_core::plan::PlanDomain;
//! use sct_symbolic::{verify_function, ExecConfig};
//!
//! let prog = compile_program(
//!     "(define (ack m n)
//!        (cond [(= 0 m) (+ 1 n)]
//!              [(= 0 n) (ack (- m 1) 1)]
//!              [else (ack (- m 1) (ack m (- n 1)))]))",
//! ).unwrap();
//! let verdict = verify_function(
//!     &prog, "ack", &[PlanDomain::Nat, PlanDomain::Nat], PlanDomain::Nat,
//!     &ExecConfig::default());
//! assert!(verdict.is_verified(), "{verdict}");
//! ```

#![deny(missing_docs)]

pub mod digest;
pub mod exec;
pub mod linear;
pub mod pipeline;
pub mod solver;
pub mod sym;
pub mod verify;

pub use digest::ProgramDigests;
pub use exec::{ExecConfig, Executor};
pub use linear::{entails, unsat, Lin, LinCon};
pub use pipeline::{plan_program, DecisionStore, IncrementalStats, NullStore, PlanConfig, PlanObs};
#[doc(hidden)]
pub use pipeline::{plan_program_incremental, PlanCache};
/// The former name of [`PlanDomain`](sct_core::plan::PlanDomain), kept
/// only because the benchmark driver (`perfbench/src/exec_fig10.rs`)
/// still names it.
pub use sct_core::plan::PlanDomain as SymDomain;
pub use solver::Solver;
pub use sym::{AtomKind, Path, SValue};
pub use verify::{verify_function, StaticVerdict};
