//! The invariant harness: runs one program through every layer of the
//! system and asserts the full enforcement lattice.
//!
//! Per program, the harness checks:
//!
//! * **VM ≡ walker** — the flat-IR dispatch VM and the reference CEK
//!   machine agree on the rendered answer (blame labels and witnesses
//!   included), console output, and the semantic counters, under both
//!   table strategies and under the hybrid plan.
//! * **PIC ≡ no-PIC** — the VM re-run with inline caches disabled
//!   produces the identical outcome (answer, output, blame, semantic
//!   counters) under every monitored configuration, and the cached run's
//!   `pic_hits + pic_misses` accounts for every generic-site application.
//! * **warm ≡ cold** — re-planning against a warm [`MemStore`] is
//!   structurally equal to the cold plan, with zero verifier misses.
//! * **define order is irrelevant** — re-planning with the λ-defines
//!   permuted by the case seed gives every define the same decision
//!   ([`order_free_view`]).
//! * **Static ⇒ no blame** — a function the planner discharged
//!   *unconditionally* is never blamed by any monitored run. (A
//!   domain-guarded discharge may legitimately fall back to the monitor
//!   on out-of-domain calls, so only trivial guards participate.)
//! * **Refuted ⇒ same-label blame** — when the planner refutes and the
//!   monitored run blames, they must name the same culprit and label
//!   (checked against the construction oracle for generated cases).
//! * **diverging ⇒ caught** — a case constructed to diverge must be
//!   blamed dynamically, inside the known define group, at the known
//!   label, within the fuel budget; fuel exhaustion under monitoring is
//!   itself a violation of Theorem 3.1.
//! * **terminating ⇒ clean** — a case constructed to terminate must
//!   produce a value (no blame, no refutation, no run-time error).
//!
//! [`check_case`] asserts all of it against a generated [`GenCase`]'s
//! oracle; [`check_consistency`] asserts the oracle-free subset on any
//! source text (the regression-replay entry point, and the predicate the
//! minimizer shrinks against).

use crate::gen::{GenCase, Oracle, Rng};
use sct_cache::MemStore;
use sct_core::monitor::TableStrategy;
use sct_core::plan::{Decision, EnforcementPlan, PlanDomain};
use sct_interp::{reference, EvalError, Machine, MachineConfig, ScErrorInfo, Stats, Value};
use sct_lang::ast::Program;
use sct_symbolic::{plan_program_incremental, PlanCache, PlanConfig};
use std::fmt;
use std::rc::Rc;

/// Harness configuration: the planner budget and the monitored-run fuel.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Planner configuration (a tight budget keeps throughput high; plan
    /// *quality* never affects soundness — unproven stays monitored).
    pub plan: PlanConfig,
    /// Step budget per machine run. Theorem 3.1 guarantees monitored runs
    /// terminate, so exhausting this generous budget is reported as a
    /// violation rather than tolerated.
    pub fuel: u64,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        let mut plan = PlanConfig::default();
        plan.exec.step_budget = 30_000;
        FuzzConfig {
            plan,
            fuel: 2_000_000,
        }
    }
}

/// One rendered machine outcome: the full display of the answer (blame
/// labels and witnesses included), the console output, and the semantic
/// counters. Representation-bound counters (steps, high-water marks) are
/// deliberately excluded — they differ between the machines by design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// `ok: <value>` or `err: <error>`, fully rendered.
    pub answer: String,
    /// Buffered console output.
    pub output: String,
    /// Closure applications performed.
    pub applications: u64,
    /// Applications that reached the monitor.
    pub monitored_calls: u64,
    /// Calls whose size-change table was extended and checked.
    pub checks: u64,
    /// Monitored applications that took the static fast path.
    pub static_skips: u64,
    /// Rendered size-change violations, in discovery order.
    pub violations: Vec<String>,
}

fn render(r: &Result<Value, EvalError>) -> String {
    match r {
        Ok(v) => format!("ok: {}", v.to_write_string()),
        Err(e) => format!("err: {e}"),
    }
}

impl Outcome {
    /// Renders one finished run of either machine.
    fn of(
        r: &Result<Value, EvalError>,
        output: &str,
        stats: &Stats,
        violations: &[ScErrorInfo],
    ) -> Outcome {
        Outcome {
            answer: render(r),
            output: output.to_string(),
            applications: stats.applications,
            monitored_calls: stats.monitored_calls,
            checks: stats.checks,
            static_skips: stats.static_skips,
            violations: violations.iter().map(|v| v.to_string()).collect(),
        }
    }
}

/// Runs the flat-IR VM, returning the rendered outcome and the result.
pub fn run_vm_full(prog: &Program, config: MachineConfig) -> (Outcome, Result<Value, EvalError>) {
    let mut m = Machine::new(prog, config);
    let r = m.run();
    (Outcome::of(&r, &m.output, &m.stats, &m.violations), r)
}

/// Runs the reference CEK walker, returning the rendered outcome and the
/// result.
pub fn run_reference_full(
    prog: &Program,
    config: MachineConfig,
) -> (Outcome, Result<Value, EvalError>) {
    let mut m = reference::Machine::new(prog, config);
    let r = m.run();
    (Outcome::of(&r, &m.output, &m.stats, &m.violations), r)
}

/// Runs the flat-IR VM under `config` and returns the rendered outcome.
pub fn run_vm(prog: &Program, config: MachineConfig) -> Outcome {
    run_vm_full(prog, config).0
}

/// Runs the flat-IR VM and returns the rendered outcome together with the
/// raw machine counters — the form the PIC-transparency checks use, since
/// `Outcome` deliberately excludes the cache-bound counters
/// (`generic_calls`, `pic_hits`, `pic_misses`, `pic_invalidations`): the
/// reference walker has no inline caches to compare them against.
pub fn run_vm_stats(prog: &Program, config: MachineConfig) -> (Outcome, Stats) {
    let mut m = Machine::new(prog, config);
    let r = m.run();
    (Outcome::of(&r, &m.output, &m.stats, &m.violations), m.stats)
}

/// Asserts PIC transparency on one program/config: the VM with inline
/// caches disabled must produce the *identical* outcome (answer, output,
/// blame, and semantic counters) as the VM with caches enabled, the
/// enabled run's `pic_hits + pic_misses` must account for every
/// `Generic`-site application, and the disabled run must never touch a
/// cache. Returns the PIC-on outcome so callers can chain the usual
/// VM ≡ walker comparison without a third run.
pub fn assert_pic_transparent(prog: &Program, config: &MachineConfig, what: &str) -> Outcome {
    let (on, on_stats) = run_vm_stats(prog, config.clone());
    let off_config = MachineConfig {
        disable_pics: true,
        ..config.clone()
    };
    let (off, off_stats) = run_vm_stats(prog, off_config);
    assert_eq!(on, off, "{what}: PIC-on and PIC-off outcomes diverge");
    assert_eq!(
        on_stats.pic_hits + on_stats.pic_misses,
        on_stats.generic_calls,
        "{what}: PIC probes must account for every generic-site application"
    );
    assert_eq!(
        (
            off_stats.pic_hits,
            off_stats.pic_misses,
            off_stats.pic_invalidations
        ),
        (0, 0, 0),
        "{what}: disabled caches must never be consulted"
    );
    on
}

/// Runs the reference walker under `config` and returns the rendered
/// outcome.
pub fn run_reference(prog: &Program, config: MachineConfig) -> Outcome {
    run_reference_full(prog, config).0
}

/// What a violated invariant was, in one word. Kinds are ordered roughly
/// by severity; [`ViolationKind::name`] is the stable kebab-case tag the
/// summary line and artifact filenames use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ViolationKind {
    /// The generator emitted a program the front end rejects.
    CompileError,
    /// VM and reference walker disagreed on an outcome.
    MachineMismatch,
    /// The VM with inline caches disabled disagreed with the cached VM,
    /// or the cache counters failed to reconcile (`pic_hits + pic_misses`
    /// must equal the generic-site application count).
    PicMismatch,
    /// Warm re-plan differed from the cold plan (or re-verified).
    CacheMismatch,
    /// A plan built with contract summaries (verified callees stubbed at
    /// their application sites) differed structurally from the
    /// full-descent plan — the summary machinery changed a verdict.
    SummaryMismatch,
    /// Re-planning with the λ-defines permuted (by the case seed) changed
    /// some define's decision — a plan must depend on content only.
    PlanNondeterminism,
    /// A monitored run exhausted its fuel — Theorem 3.1 says it must
    /// terminate (for generated cases: also a terminating oracle that ran
    /// away).
    UncaughtDivergence,
    /// The planner refuted a function in a program that runs clean (or
    /// refuted outside the constructed blame group).
    FalseRefutation,
    /// A function the planner discharged unconditionally was blamed.
    StaticBlamed,
    /// A constructed-diverging case completed without blame.
    MissedDivergence,
    /// Blame landed outside the constructed group, or at the wrong label,
    /// or refutation and dynamic blame disagreed.
    BlameMismatch,
    /// A constructed-terminating case was blamed at run time.
    UnexpectedBlame,
    /// A constructed-terminating case hit a run-time or contract error.
    UnexpectedOutcome,
}

impl ViolationKind {
    /// Every kind, in declaration order (the `sct-fuzz/1` summary lists
    /// each one, at zero when it never fired).
    pub const ALL: [ViolationKind; 13] = [
        ViolationKind::CompileError,
        ViolationKind::MachineMismatch,
        ViolationKind::PicMismatch,
        ViolationKind::CacheMismatch,
        ViolationKind::SummaryMismatch,
        ViolationKind::PlanNondeterminism,
        ViolationKind::UncaughtDivergence,
        ViolationKind::FalseRefutation,
        ViolationKind::StaticBlamed,
        ViolationKind::MissedDivergence,
        ViolationKind::BlameMismatch,
        ViolationKind::UnexpectedBlame,
        ViolationKind::UnexpectedOutcome,
    ];

    /// Stable kebab-case tag.
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::CompileError => "compile-error",
            ViolationKind::MachineMismatch => "machine-mismatch",
            ViolationKind::PicMismatch => "pic-mismatch",
            ViolationKind::CacheMismatch => "cache-mismatch",
            ViolationKind::SummaryMismatch => "summary-mismatch",
            ViolationKind::PlanNondeterminism => "plan-nondeterminism",
            ViolationKind::UncaughtDivergence => "uncaught-divergence",
            ViolationKind::FalseRefutation => "false-refutation",
            ViolationKind::StaticBlamed => "static-blamed",
            ViolationKind::MissedDivergence => "missed-divergence",
            ViolationKind::BlameMismatch => "blame-mismatch",
            ViolationKind::UnexpectedBlame => "unexpected-blame",
            ViolationKind::UnexpectedOutcome => "unexpected-outcome",
        }
    }

    /// True when the kind is decidable from the program alone (no
    /// construction oracle needed) — these are the kinds
    /// [`check_consistency`] can re-derive, which in turn decides how far
    /// the minimizer may shrink (see `crate::minimize`).
    /// [`ViolationKind::PlanNondeterminism`] is excluded: it reproduces
    /// only under the case seed's permutation, so it shrinks through
    /// [`check_case`].
    pub fn oracle_free(self) -> bool {
        matches!(
            self,
            ViolationKind::CompileError
                | ViolationKind::MachineMismatch
                | ViolationKind::PicMismatch
                | ViolationKind::CacheMismatch
                | ViolationKind::SummaryMismatch
                | ViolationKind::UncaughtDivergence
                | ViolationKind::FalseRefutation
                | ViolationKind::StaticBlamed
        )
    }
}

/// One violated invariant, with enough context to reproduce it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// Human-readable description (run label, expected vs. got).
    pub detail: String,
    /// The offending program text.
    pub source: String,
    /// The generator seed, for generated cases.
    pub seed: Option<u64>,
    /// The delta-debugged program, once the minimizer has run.
    pub minimized: Option<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind.name(), self.detail)?;
        if let Some(seed) = self.seed {
            write!(f, " (seed {seed})")?;
        }
        let shown = self.minimized.as_deref().unwrap_or(&self.source);
        write!(f, "\n{shown}")
    }
}

/// Per-case result: the plan split plus any violations.
#[derive(Debug, Clone, Default)]
pub struct CaseReport {
    /// `Static` decisions in the case's plan.
    pub plan_static: u64,
    /// `Monitor` decisions in the case's plan.
    pub plan_monitor: u64,
    /// `Refuted` decisions in the case's plan.
    pub plan_refuted: u64,
    /// Violated invariants (empty on a clean case).
    pub violations: Vec<Violation>,
}

/// One monitored run pair: both machines' outcomes plus the VM's result
/// for structured inspection (once machine agreement is checked, either
/// result is canonical).
struct RunPair {
    label: &'static str,
    vm: Outcome,
    walker: Outcome,
    result: Result<Value, EvalError>,
    /// The VM re-run with inline caches disabled — must match `vm`.
    vm_pic_off: Outcome,
    /// Whether `pic_hits + pic_misses == generic_calls` held on the
    /// cached run (and the uncached run never touched a cache).
    pic_accounted: bool,
}

impl RunPair {
    fn fuel_out(&self) -> bool {
        // The walker's fuel exhaustion renders identically, so matching
        // either machine's answer string covers both.
        matches!(self.result, Err(EvalError::OutOfFuel))
            || self.walker.answer == render(&Err(EvalError::OutOfFuel))
    }
}

/// Everything [`check_case`] / [`check_consistency`] judge: the cold
/// plan, the warm-replan verdict, and the three monitored run pairs
/// (imperative, continuation-mark, hybrid-with-plan).
struct Evaluated {
    plan: Rc<EnforcementPlan>,
    warm_structural: bool,
    warm_misses: usize,
    /// The first define whose decision changed when the λ-defines were
    /// permuted, if any.
    order_drift: Option<String>,
    /// Whether the plan built with contract summaries enabled equals the
    /// full-descent plan (summaries force the same verdicts by
    /// construction; this is the differential check that they did).
    summary_structural: bool,
    runs: Vec<RunPair>,
}

/// A plan's decisions as define order must leave them: sorted by define
/// name, each with its decision (tag, guard, witness), covers count,
/// blame and detail. λ ids follow source order and timing varies, so
/// both are left out.
pub fn order_free_view(
    plan: &EnforcementPlan,
) -> Vec<(String, Decision, usize, Option<String>, String)> {
    let mut view: Vec<_> = plan
        .decisions
        .iter()
        .map(|d| {
            let covers = d.covers.len();
            (
                d.name.clone(),
                d.decision.clone(),
                covers,
                d.blame.clone(),
                d.detail.clone(),
            )
        })
        .collect();
    view.sort_by(|a, b| a.0.cmp(&b.0));
    view
}

/// Re-renders `source` with its λ-valued `define` forms rearranged among
/// their own slots: slot `i` takes the define `order(k)[i]`, `k` being
/// their count. Every other top-level form keeps its position, and so
/// does every other `define`, whose initializer may run code when it is
/// defined. `None` when `source` does not parse or `order` returns no
/// permutation of `0..k`.
pub fn permute_defines(source: &str, order: impl FnOnce(usize) -> Vec<usize>) -> Option<String> {
    use sct_sexpr::Datum;
    fn is_lambda(d: &Datum) -> bool {
        match d {
            Datum::List(xs) => match xs.first().and_then(Datum::as_sym) {
                Some("lambda") => true,
                Some("terminating/c") => xs.get(1).is_some_and(is_lambda),
                _ => false,
            },
            _ => false,
        }
    }
    let mut forms = sct_sexpr::parse_all(source).ok()?;
    let slots: Vec<usize> = (0..forms.len())
        .filter(|&i| match &forms[i] {
            Datum::List(xs) if xs.first().and_then(Datum::as_sym) == Some("define") => {
                match xs.get(1) {
                    Some(Datum::List(_) | Datum::Improper(..)) => true,
                    Some(Datum::Sym(_)) => xs.get(2).is_some_and(is_lambda),
                    _ => false,
                }
            }
            _ => false,
        })
        .collect();
    let order = order(slots.len());
    let mut sorted = order.clone();
    sorted.sort_unstable();
    if sorted != (0..slots.len()).collect::<Vec<_>>() {
        return None;
    }
    let defines: Vec<Datum> = slots.iter().map(|&i| forms[i].clone()).collect();
    for (&slot, &from) in slots.iter().zip(&order) {
        forms[slot] = defines[from].clone();
    }
    let lines: Vec<String> = forms.iter().map(Datum::to_string).collect();
    Some(lines.join("\n"))
}

fn evaluate(source: &str, cfg: &FuzzConfig, seed: u64) -> Result<Evaluated, Violation> {
    let prog = sct_lang::compile_program(source).map_err(|e| Violation {
        kind: ViolationKind::CompileError,
        detail: format!("compile error: {e}"),
        source: source.to_string(),
        seed: None,
        minimized: None,
    })?;
    // Cold plan against a fresh store, then a warm re-plan against the
    // same store: the warm plan must be structurally identical and must
    // not re-run the verifier.
    let mut store = MemStore::new();
    let (plan, _) = plan_program_incremental(&prog, &cfg.plan, &mut PlanCache::new(), &mut store);
    let (warm, warm_stats) =
        plan_program_incremental(&prog, &cfg.plan, &mut PlanCache::new(), &mut store);
    // Differential A/B on the summary machinery: the same program planned
    // with the opposite `summaries` setting (against a fresh store) must
    // produce a structurally identical plan — stubbing verified callees
    // is an optimization, never a verdict change.
    let flipped = PlanConfig {
        summaries: !cfg.plan.summaries,
        ..cfg.plan.clone()
    };
    let (alt, _) =
        plan_program_incremental(&prog, &flipped, &mut PlanCache::new(), &mut MemStore::new());
    // The same program with its λ-defines shuffled by `seed`: every
    // define must keep its decision.
    let shuffled = permute_defines(source, |k| {
        let mut order: Vec<usize> = (0..k).collect();
        Rng::new(seed).shuffle(&mut order);
        order
    });
    let order_drift = match shuffled.as_deref().map(sct_lang::compile_program) {
        Some(Ok(permuted)) => {
            let (other, _) = plan_program_incremental(
                &permuted,
                &cfg.plan,
                &mut PlanCache::new(),
                &mut MemStore::new(),
            );
            let (a, b) = (order_free_view(&plan), order_free_view(&other));
            (a != b).then(|| match a.iter().zip(&b).find(|(x, y)| x != y) {
                Some((x, y)) => format!("{x:?} vs {y:?}"),
                None => format!("{} vs {} decisions", a.len(), b.len()),
            })
        }
        _ => Some("the program with permuted defines does not compile".to_string()),
    };
    let plan = Rc::new(plan);
    let fueled = |mut config: MachineConfig| {
        config.fuel = Some(cfg.fuel);
        config
    };
    let configs: Vec<(&'static str, MachineConfig)> = vec![
        (
            "imperative",
            fueled(MachineConfig::monitored(TableStrategy::Imperative)),
        ),
        (
            "cm",
            fueled(MachineConfig::monitored(TableStrategy::ContinuationMark)),
        ),
        (
            "hybrid",
            fueled(MachineConfig {
                plan: Some(plan.clone()),
                ..MachineConfig::monitored(TableStrategy::Imperative)
            }),
        ),
    ];
    let runs = configs
        .into_iter()
        .map(|(label, config)| {
            let mut m = Machine::new(&prog, config.clone());
            let result = m.run();
            let vm = Outcome::of(&result, &m.output, &m.stats, &m.violations);
            let (vm_pic_off, off_stats) = run_vm_stats(
                &prog,
                MachineConfig {
                    disable_pics: true,
                    ..config.clone()
                },
            );
            let pic_accounted = m.stats.pic_hits + m.stats.pic_misses == m.stats.generic_calls
                && (
                    off_stats.pic_hits,
                    off_stats.pic_misses,
                    off_stats.pic_invalidations,
                ) == (0, 0, 0);
            let walker = run_reference(&prog, config);
            RunPair {
                label,
                vm,
                walker,
                result,
                vm_pic_off,
                pic_accounted,
            }
        })
        .collect();
    Ok(Evaluated {
        warm_structural: warm.structurally_eq(plan.as_ref()),
        warm_misses: warm_stats.misses(),
        order_drift,
        summary_structural: alt.structurally_eq(plan.as_ref()),
        plan,
        runs,
    })
}

/// The names of decisions discharged with a trivial (all-`Any`) guard:
/// the fast path is unconditional for these, so *no* monitored run may
/// ever blame them. Guarded discharges are excluded — an out-of-domain
/// call legitimately falls back to the monitor.
fn unconditional_static(plan: &EnforcementPlan) -> Vec<&str> {
    plan.decisions
        .iter()
        .filter(|d| match &d.decision {
            Decision::Static { guard } => guard.iter().all(|g| *g == PlanDomain::Any),
            _ => false,
        })
        .map(|d| d.name.as_str())
        .collect()
}

fn violation(kind: ViolationKind, detail: String, source: &str) -> Violation {
    Violation {
        kind,
        detail,
        source: source.to_string(),
        seed: None,
        minimized: None,
    }
}

/// The oracle-free invariants on an evaluated program.
fn consistency_violations(ev: &Evaluated, source: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    if !ev.warm_structural || ev.warm_misses > 0 {
        out.push(violation(
            ViolationKind::CacheMismatch,
            format!(
                "warm re-plan {} cold plan ({} verifier misses on warm replay)",
                if ev.warm_structural {
                    "structurally equals"
                } else {
                    "differs from"
                },
                ev.warm_misses
            ),
            source,
        ));
    }
    if !ev.summary_structural {
        out.push(violation(
            ViolationKind::SummaryMismatch,
            "plan with contract summaries differs structurally from the full-descent plan"
                .to_string(),
            source,
        ));
    }
    if let Some(drift) = &ev.order_drift {
        out.push(violation(
            ViolationKind::PlanNondeterminism,
            format!("permuting the defines changed a decision: {drift}"),
            source,
        ));
    }
    let static_names = unconditional_static(&ev.plan);
    for run in &ev.runs {
        if run.fuel_out() {
            out.push(violation(
                ViolationKind::UncaughtDivergence,
                format!(
                    "{}: monitored run exhausted its fuel budget (Theorem 3.1 says it terminates)",
                    run.label
                ),
                source,
            ));
            continue;
        }
        if run.vm != run.walker {
            out.push(violation(
                ViolationKind::MachineMismatch,
                format!(
                    "{}: VM and walker disagree\n  vm:     {:?}\n  walker: {:?}",
                    run.label, run.vm, run.walker
                ),
                source,
            ));
        }
        if run.vm != run.vm_pic_off {
            out.push(violation(
                ViolationKind::PicMismatch,
                format!(
                    "{}: PIC-on and PIC-off VM runs disagree\n  on:  {:?}\n  off: {:?}",
                    run.label, run.vm, run.vm_pic_off
                ),
                source,
            ));
        }
        if !run.pic_accounted {
            out.push(violation(
                ViolationKind::PicMismatch,
                format!(
                    "{}: pic_hits + pic_misses failed to account for every \
                     generic-site application (or a disabled cache was consulted)",
                    run.label
                ),
                source,
            ));
        }
        if let Err(EvalError::Sc(info)) = &run.result {
            if static_names.contains(&info.function.as_str()) {
                out.push(violation(
                    ViolationKind::StaticBlamed,
                    format!(
                        "{}: {} was discharged unconditionally yet blamed at run time",
                        run.label, info.function
                    ),
                    source,
                ));
            }
        }
    }
    // A refuted plan for a program whose monitored run completes with a
    // value: the refutation witnessed a recursion the program actually
    // exercises cleanly. (A refuted function the program never *applies*
    // is deliberately stricter than the monitor — regression sources must
    // apply what they define, see tests/fuzz_regressions/.)
    let clean = ev
        .runs
        .iter()
        .any(|r| r.label == "imperative" && r.result.is_ok());
    if clean {
        if let Some(d) = ev.plan.refuted().next() {
            out.push(violation(
                ViolationKind::FalseRefutation,
                format!(
                    "planner refuted {} but the monitored run completed cleanly",
                    d.name
                ),
                source,
            ));
        }
    }
    out
}

/// Checks the oracle-free invariant subset on arbitrary source text:
/// VM ≡ walker under three monitored configurations, warm ≡ cold
/// planning, no fuel exhaustion under monitoring, no blame on
/// unconditional static discharges, no refutation of a cleanly
/// completing program, define order irrelevant (permuted by seed 0).
/// This is the regression-replay entry point.
pub fn check_consistency(source: &str, cfg: &FuzzConfig) -> Vec<Violation> {
    match evaluate(source, cfg, 0) {
        Ok(ev) => consistency_violations(&ev, source),
        Err(v) => vec![v],
    }
}

/// Checks the full lattice on a generated case: everything
/// [`check_consistency`] checks, plus the construction oracle
/// (terminating ⇒ clean value; diverging ⇒ blamed in-group at the known
/// label, with refutation — when the planner finds one — agreeing with
/// the dynamic blame).
pub fn check_case(case: &GenCase, cfg: &FuzzConfig) -> CaseReport {
    let mut report = CaseReport::default();
    let ev = match evaluate(&case.source, cfg, case.seed) {
        Ok(ev) => ev,
        Err(mut v) => {
            v.seed = Some(case.seed);
            report.violations.push(v);
            return report;
        }
    };
    report.plan_static = ev.plan.count("static") as u64;
    report.plan_monitor = ev.plan.count("monitor") as u64;
    report.plan_refuted = ev.plan.count("refuted") as u64;
    let mut violations = consistency_violations(&ev, &case.source);

    match &case.oracle {
        Oracle::Terminating => {
            if let Some(d) = ev.plan.refuted().next() {
                violations.push(violation(
                    ViolationKind::FalseRefutation,
                    format!(
                        "planner refuted {} in a constructed-terminating case ({} {})",
                        d.name,
                        case.schema.name(),
                        case.mutation.name()
                    ),
                    &case.source,
                ));
            }
            for run in &ev.runs {
                match &run.result {
                    Ok(_) => {}
                    Err(EvalError::OutOfFuel) => {} // already UncaughtDivergence
                    Err(EvalError::Sc(info)) => violations.push(violation(
                        ViolationKind::UnexpectedBlame,
                        format!(
                            "{}: constructed-terminating case blamed {} ({} {})",
                            run.label,
                            info.function,
                            case.schema.name(),
                            case.mutation.name()
                        ),
                        &case.source,
                    )),
                    Err(e) => violations.push(violation(
                        ViolationKind::UnexpectedOutcome,
                        format!(
                            "{}: constructed-terminating case errored: {e} ({} {})",
                            run.label,
                            case.schema.name(),
                            case.mutation.name()
                        ),
                        &case.source,
                    )),
                }
            }
        }
        Oracle::Diverging { group, label } => {
            // Refutation, when the planner achieves one, must stay inside
            // the broken group and agree with the dynamic blame label.
            for d in ev.plan.refuted() {
                if !group.iter().any(|g| g == &d.name) {
                    violations.push(violation(
                        ViolationKind::FalseRefutation,
                        format!(
                            "planner refuted {} outside the broken group {:?}",
                            d.name, group
                        ),
                        &case.source,
                    ));
                }
            }
            for run in &ev.runs {
                match &run.result {
                    Err(EvalError::OutOfFuel) => {} // already UncaughtDivergence
                    Err(EvalError::Sc(info)) => {
                        if !group.iter().any(|g| g == &info.function) {
                            violations.push(violation(
                                ViolationKind::BlameMismatch,
                                format!(
                                    "{}: blamed {} outside the broken group {:?}",
                                    run.label, info.function, group
                                ),
                                &case.source,
                            ));
                        }
                        if info.blame.as_deref() != label.as_deref() {
                            violations.push(violation(
                                ViolationKind::BlameMismatch,
                                format!(
                                    "{}: blame label {:?}, oracle says {:?}",
                                    run.label, info.blame, label
                                ),
                                &case.source,
                            ));
                        }
                    }
                    Ok(v) => violations.push(violation(
                        ViolationKind::MissedDivergence,
                        format!(
                            "{}: constructed-diverging case ({} {}) completed with {}",
                            run.label,
                            case.schema.name(),
                            case.mutation.name(),
                            v.to_write_string()
                        ),
                        &case.source,
                    )),
                    Err(e) => violations.push(violation(
                        ViolationKind::MissedDivergence,
                        format!(
                            "{}: constructed-diverging case ({} {}) stopped early: {e}",
                            run.label,
                            case.schema.name(),
                            case.mutation.name()
                        ),
                        &case.source,
                    )),
                }
            }
        }
    }
    for v in &mut violations {
        v.seed = Some(case.seed);
    }
    report.violations = violations;
    report
}
