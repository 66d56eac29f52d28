//! # sct-fuzz
//!
//! Differential termination fuzzer for the whole enforcement stack, in
//! the mold of mutation-based circuit fuzzers: *generate* programs whose
//! termination verdict is known by construction, *mutate* them with
//! operators of declared effect, and *assert* the paper's soundness
//! lattice across every layer — planner, plan cache, IR compiler,
//! dispatch VM, reference walker, and dynamic monitor.
//!
//! The pipeline per case:
//!
//! 1. [`gen_case`] emits 1–3 structurally descending recursion schemas
//!    (nat, accumulator, list, tree, mutual, higher-order) and applies
//!    one [`Mutation`] to a target instance. Descent-preserving
//!    mutations keep the *terminating* oracle; descent-breaking ones
//!    yield *diverging with blame in a known group at a known label*.
//! 2. [`check_case`] plans the program cold and warm, runs it on both
//!    machines under three monitored configurations, and checks the
//!    lattice: `Static ⇒ never blamed`, `Refuted ⇒ same-label blame`,
//!    `diverging ⇒ caught within budget`, `VM ≡ walker`,
//!    `warm ≡ cold`, and that permuting the defines changes no decision.
//! 3. Any [`Violation`] is shrunk by the delta-debugging [`minimize()`] pass
//!    before reporting.
//!
//! [`run_campaign`] drives N seeded cases under a wall-clock budget and
//! renders a machine-readable `sct-fuzz/1` summary line; the `sct fuzz`
//! subcommand and the CI step are thin wrappers around it.

pub mod gen;
pub mod harness;
pub mod minimize;
pub mod mutate;

pub use gen::{gen_case, ExprGen, GenCase, Oracle, Rng, SchemaKind};
pub use harness::{
    check_case, check_consistency, order_free_view, permute_defines, run_reference,
    run_reference_full, run_vm, run_vm_full, CaseReport, FuzzConfig, Outcome, Violation,
    ViolationKind,
};
pub use minimize::minimize;
pub use mutate::Mutation;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Campaign options, mirroring `sct fuzz --seed S --cases N --budget-ms B`.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Base seed; case `i` derives its own seed from it.
    pub seed: u64,
    /// Number of cases to attempt.
    pub cases: u64,
    /// Wall-clock budget; the campaign stops early (but cleanly) when it
    /// is exhausted. `None` runs all cases.
    pub budget: Option<Duration>,
    /// Delta-debug violations before reporting.
    pub minimize: bool,
    /// Print each violation as it is found.
    pub verbose: bool,
}

impl Default for FuzzOptions {
    fn default() -> FuzzOptions {
        FuzzOptions {
            seed: 1,
            cases: 100,
            budget: None,
            minimize: true,
            verbose: false,
        }
    }
}

/// Campaign result: tallies plus every (minimized) violation.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Base seed the campaign ran with (echoed into the summary).
    pub seed: u64,
    /// Cases requested.
    pub requested: u64,
    /// Cases actually run (≤ requested under a wall-clock budget).
    pub ran: u64,
    /// Cases per target schema, in [`SchemaKind::ALL`] order.
    pub schemas: Vec<(&'static str, u64)>,
    /// Cases per mutation, in [`Mutation::ALL`] order.
    pub mutations: Vec<(&'static str, u64)>,
    /// Constructed-terminating cases.
    pub terminating: u64,
    /// Constructed-diverging cases.
    pub diverging: u64,
    /// Planner `Static` decisions across all cases.
    pub plan_static: u64,
    /// Planner `Monitor` decisions across all cases.
    pub plan_monitor: u64,
    /// Planner `Refuted` decisions across all cases.
    pub plan_refuted: u64,
    /// Every violated invariant (minimized when the campaign asked).
    pub violations: Vec<Violation>,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

impl FuzzReport {
    /// The machine-readable summary line (`sct-fuzz/1`): one JSON object
    /// with case tallies, the per-schema and per-mutation splits, the
    /// planner decision split, and the violation count by kind (every
    /// kind listed, zero included). All keys
    /// are fixed and ordered, so CI and `BENCH_*` trajectories can parse
    /// it with a plain JSON parser or a regex.
    pub fn summary_json(&self) -> String {
        let counts = |pairs: &[(&'static str, u64)]| {
            let items: Vec<String> = pairs
                .iter()
                .map(|(name, n)| format!("\"{name}\":{n}"))
                .collect();
            items.join(",")
        };
        let mut by_kind: BTreeMap<&'static str, u64> =
            ViolationKind::ALL.iter().map(|k| (k.name(), 0)).collect();
        for v in &self.violations {
            *by_kind.entry(v.kind.name()).or_insert(0) += 1;
        }
        let kinds: Vec<String> = by_kind
            .iter()
            .map(|(k, n)| format!("\"{k}\":{n}"))
            .collect();
        format!(
            "{{\"schema\":\"sct-fuzz/1\",\"seed\":{},\"requested\":{},\"ran\":{},\
             \"elapsed_ms\":{},\"oracles\":{{\"terminating\":{},\"diverging\":{}}},\
             \"schemas\":{{{}}},\"mutations\":{{{}}},\
             \"plan\":{{\"static\":{},\"monitor\":{},\"refuted\":{}}},\
             \"violations\":{},\"violation_kinds\":{{{}}}}}",
            self.seed,
            self.requested,
            self.ran,
            self.elapsed.as_millis(),
            self.terminating,
            self.diverging,
            counts(&self.schemas),
            counts(&self.mutations),
            self.plan_static,
            self.plan_monitor,
            self.plan_refuted,
            self.violations.len(),
            kinds.join(",")
        )
    }
}

/// Derives case `i`'s seed from the campaign seed: a fixed odd multiplier
/// (the 64-bit golden ratio) decorrelates consecutive cases while keeping
/// every case reproducible as `gen_case(case_seed(seed, i))`.
pub fn case_seed(seed: u64, i: u64) -> u64 {
    seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Budget for minimizing one violation, in predicate evaluations. Each
/// evaluation re-plans and re-runs the candidate, so this bounds
/// worst-case shrink time to a couple of seconds.
const MINIMIZE_BUDGET: usize = 300;

/// Shrinks one violation. Oracle-free kinds re-derive the predicate from
/// the candidate program alone and may shrink sub-expressions;
/// oracle-bound kinds (wrong blame, missed divergence, …) only drop
/// whole top-level forms, re-judging the shrunk program against the
/// *same* construction oracle.
fn minimize_violation(v: &Violation, case: Option<&GenCase>, cfg: &FuzzConfig) -> Option<String> {
    let kind = v.kind;
    if kind.oracle_free() {
        let predicate = |candidate: &str| {
            if kind == ViolationKind::CompileError {
                return sct_lang::compile_program(candidate).is_err();
            }
            check_consistency(candidate, cfg)
                .iter()
                .any(|w| w.kind == kind)
        };
        return Some(minimize::minimize(
            &v.source,
            predicate,
            true,
            MINIMIZE_BUDGET,
        ));
    }
    let case = case?;
    let predicate = |candidate: &str| {
        let shrunk = GenCase {
            source: candidate.to_string(),
            ..case.clone()
        };
        check_case(&shrunk, cfg)
            .violations
            .iter()
            .any(|w| w.kind == kind)
    };
    Some(minimize::minimize(
        &v.source,
        predicate,
        false,
        MINIMIZE_BUDGET,
    ))
}

/// Runs a fuzz campaign: `opts.cases` seeded cases (stopping early at the
/// wall-clock budget), each generated by [`gen_case`] and judged by
/// [`check_case`]; violations are minimized before they land in the
/// report.
pub fn run_campaign(opts: &FuzzOptions, cfg: &FuzzConfig) -> FuzzReport {
    let start = Instant::now();
    let mut report = FuzzReport {
        requested: opts.cases,
        seed: opts.seed,
        schemas: SchemaKind::ALL.iter().map(|k| (k.name(), 0)).collect(),
        mutations: Mutation::ALL.iter().map(|m| (m.name(), 0)).collect(),
        ..FuzzReport::default()
    };
    for i in 0..opts.cases {
        if let Some(budget) = opts.budget {
            if start.elapsed() >= budget {
                break;
            }
        }
        let case = gen_case(case_seed(opts.seed, i));
        let case_report = check_case(&case, cfg);
        report.ran += 1;
        if let Some(slot) = report
            .schemas
            .iter_mut()
            .find(|(name, _)| *name == case.schema.name())
        {
            slot.1 += 1;
        }
        if let Some(slot) = report
            .mutations
            .iter_mut()
            .find(|(name, _)| *name == case.mutation.name())
        {
            slot.1 += 1;
        }
        match case.oracle {
            Oracle::Terminating => report.terminating += 1,
            Oracle::Diverging { .. } => report.diverging += 1,
        }
        report.plan_static += case_report.plan_static;
        report.plan_monitor += case_report.plan_monitor;
        report.plan_refuted += case_report.plan_refuted;
        for mut v in case_report.violations {
            if opts.minimize {
                v.minimized = minimize_violation(&v, Some(&case), cfg);
            }
            if opts.verbose {
                eprintln!("{v}");
            }
            report.violations.push(v);
        }
    }
    report.elapsed = start.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seeds are cheap enough to sweep a band in unit tests; the heavier
    /// sweeps live in `tests/` and in the CI fuzz step.
    #[test]
    fn small_campaign_is_clean() {
        let opts = FuzzOptions {
            seed: 7,
            cases: 12,
            budget: None,
            minimize: true,
            verbose: false,
        };
        let report = run_campaign(&opts, &FuzzConfig::default());
        assert_eq!(report.ran, 12);
        let rendered: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
        assert!(
            rendered.is_empty(),
            "violations:\n{}",
            rendered.join("\n\n")
        );
        let summary = report.summary_json();
        assert!(summary.contains("\"schema\":\"sct-fuzz/1\""), "{summary}");
        assert!(summary.contains("\"violations\":0"), "{summary}");
        assert!(summary.contains("\"plan-nondeterminism\":0"), "{summary}");
    }

    #[test]
    fn permute_defines_moves_only_lambda_defines() {
        let src = "(define (f x) x)\n(define k (f 1))\n(f k)\n(define g (lambda (y) y))";
        let reversed = permute_defines(src, |k| (0..k).rev().collect()).unwrap();
        assert_eq!(
            reversed,
            "(define g (lambda (y) y))\n(define k (f 1))\n(f k)\n(define (f x) x)"
        );
        assert_eq!(permute_defines(src, |_| vec![0, 0]), None);
    }

    #[test]
    fn diverging_oracles_are_exercised() {
        // Across a seed band, both oracle polarities and several schemas
        // must appear — a generator that silently stopped producing
        // breaking mutations would hollow the campaign out.
        let mut terminating = 0;
        let mut diverging = 0;
        for i in 0..40 {
            match gen_case(case_seed(11, i)).oracle {
                Oracle::Terminating => terminating += 1,
                Oracle::Diverging { .. } => diverging += 1,
            }
        }
        assert!(terminating >= 5, "terminating {terminating}");
        assert!(diverging >= 5, "diverging {diverging}");
    }

    #[test]
    fn cases_reproduce_from_their_seed() {
        for i in 0..10 {
            let seed = case_seed(3, i);
            let a = gen_case(seed);
            let b = gen_case(seed);
            assert_eq!(a.source, b.source);
            assert_eq!(a.oracle, b.oracle);
        }
    }
}
