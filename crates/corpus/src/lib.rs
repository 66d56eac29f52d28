//! The evaluation corpus of the PLDI'19 paper.
//!
//! * [`table1`] — the 28 terminating programs of Table 1, with the paper's
//!   reported verdicts for the dynamic check, the static analysis, and the
//!   three external tools (Liquid Haskell, Isabelle, ACL2 — reproduced as
//!   reported constants, since those systems cannot be run here).
//! * [`diverging`] — the §5.1.2 non-terminating programs: sabotaged
//!   versions of correct programs plus the historic `nfa` bug.
//! * [`scheme_interp`] — a Figure-2-style compiler-interpreter written *in*
//!   λSCT (the `scheme` row of Table 1 and the "Interpreted *" series of
//!   Figure 10).
//! * [`workloads`] — the six Figure-10 workloads (factorial, sum,
//!   merge-sort; direct and interpreted) with size-parameterized input
//!   generators.

pub mod diverging;
pub mod scheme_interp;
pub mod table1;
pub mod workloads;

use sct_core::monitor::TableStrategy;
use sct_interp::{
    EvalError, ExtendedOrder, Machine, MachineConfig, OrderHandle, ReverseIntOrder, SemanticsMode,
    Value,
};
use sct_lang::compile_program;

/// Which well-founded order a program needs (§3.3; Table 1's `O`
/// annotations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderSpec {
    /// The Figure 5 default.
    Default,
    /// Reversed integer order for ascending-toward-a-bound loops
    /// (`lh-range`, `acl2-fig-2`).
    ReverseInt,
    /// Figure 5 extended pointwise to pairs and hashes (used by the
    /// interpreter rows; see "Value orders" in `docs/ARCHITECTURE.md`).
    Extended,
}

impl OrderSpec {
    /// Materializes the order.
    pub fn handle(self) -> OrderHandle {
        match self {
            OrderSpec::Default => OrderHandle::default_order(),
            OrderSpec::ReverseInt => OrderHandle::new(ReverseIntOrder),
            OrderSpec::Extended => OrderHandle::new(ExtendedOrder),
        }
    }
}

/// A verdict as reported in Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// ✓
    Pass,
    /// ✓ with termination annotations (`A`).
    PassAnnotated,
    /// ✓ with a custom partial order (`O`).
    PassCustomOrder,
    /// ✓ after rewriting to pattern matching (`R`).
    PassRewritten,
    /// ✗
    Fail,
    /// Tool does not support higher-order functions (`-H`).
    NoHigherOrder,
    /// Program is not typable in the tool (`-T`).
    NotTypable,
    /// The paper reports no entry for this cell.
    NotReported,
}

impl Verdict {
    /// True when the verdict counts as a success (with or without help).
    pub fn is_pass(self) -> bool {
        matches!(
            self,
            Verdict::Pass
                | Verdict::PassAnnotated
                | Verdict::PassCustomOrder
                | Verdict::PassRewritten
        )
    }

    /// The compact cell text used in the paper's table.
    pub fn cell(self) -> &'static str {
        match self {
            Verdict::Pass => "Y",
            Verdict::PassAnnotated => "YA",
            Verdict::PassCustomOrder => "YO",
            Verdict::PassRewritten => "YR",
            Verdict::Fail => "N",
            Verdict::NoHigherOrder => "-H",
            Verdict::NotTypable => "-T",
            Verdict::NotReported => ".",
        }
    }
}

/// One row of paper-reported verdicts.
#[derive(Debug, Clone, Copy)]
pub struct PaperRow {
    /// The paper's dynamic-checking verdict.
    pub dynamic: Verdict,
    /// The paper's static-analysis verdict.
    pub static_: Verdict,
    /// Liquid Haskell column.
    pub liquid_haskell: Verdict,
    /// Isabelle column.
    pub isabelle: Verdict,
    /// ACL2 column.
    pub acl2: Verdict,
}

/// Domain constraint on a symbolic argument for static verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// A natural number (n ≥ 0).
    Nat,
    /// A strictly positive integer.
    Pos,
    /// Any integer.
    Int,
    /// A proper list.
    List,
    /// Any value (including functions).
    Any,
}

/// What to verify statically: apply `function` to symbolic values drawn
/// from `domains` (§4.2's "apply the function on symbolic natural numbers
/// that have passed the precondition").
#[derive(Debug, Clone, Copy)]
pub struct StaticSpec {
    /// Global function name to verify.
    pub function: &'static str,
    /// One domain per parameter.
    pub domains: &'static [Domain],
    /// Result domain, assumed at summarized recursive calls (the range of
    /// the function's total-correctness contract; see "Hybrid enforcement"
    /// in `docs/ARCHITECTURE.md`).
    pub result: Domain,
}

/// One corpus program.
#[derive(Debug, Clone, Copy)]
pub struct CorpusProgram {
    /// Row id as in Table 1 (e.g. `"sct-3"`).
    pub id: &'static str,
    /// What the program is / where it came from.
    pub description: &'static str,
    /// Full source: definitions plus one exercising top-level expression.
    pub source: &'static str,
    /// The order the dynamic monitor needs.
    pub order: OrderSpec,
    /// Expected value of the final expression in `write` form, when it is
    /// convenient to pin down.
    pub expected: Option<&'static str>,
    /// Paper-reported verdicts.
    pub paper: PaperRow,
    /// Static-verification request, when the row has one.
    pub static_spec: Option<StaticSpec>,
}

/// Runs a corpus program under the fully monitored semantics with its
/// declared order and the given table strategy.
///
/// # Errors
///
/// Whatever the machine reports — for Table-1 programs a [`EvalError::Sc`]
/// means the dynamic check rejected a terminating program.
pub fn run_dynamic(program: &CorpusProgram, strategy: TableStrategy) -> Result<Value, EvalError> {
    let prog = compile_program(program.source).map_err(|e| {
        EvalError::Rt(sct_interp::RtError::new(format!(
            "compile error in {}: {e}",
            program.id
        )))
    })?;
    let config = MachineConfig {
        mode: SemanticsMode::Monitored,
        order: program.order.handle(),
        ..MachineConfig::monitored(strategy)
    };
    Machine::new(&prog, config).run()
}

/// Runs a corpus program under the standard semantics with the given fuel.
///
/// # Errors
///
/// As [`run_dynamic`], plus [`EvalError::OutOfFuel`].
pub fn run_standard(program: &CorpusProgram, fuel: Option<u64>) -> Result<Value, EvalError> {
    let prog = compile_program(program.source).map_err(|e| {
        EvalError::Rt(sct_interp::RtError::new(format!(
            "compile error in {}: {e}",
            program.id
        )))
    })?;
    let config = MachineConfig {
        fuel,
        ..MachineConfig::standard()
    };
    Machine::new(&prog, config).run()
}
