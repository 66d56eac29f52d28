//! Agreement between the hybrid enforcement pipeline and pure dynamic
//! monitoring.
//!
//! The hybrid regime must be an *optimization* of λSCT, never a
//! weakening: statically discharged functions may skip their checks, but
//! the observable outcomes — values of terminating programs, the
//! catching of diverging ones, and the blame labels of refutations — have
//! to agree with what the monitor alone produces. The one deliberate
//! divergence is eager refutation itself: a refuted function the program
//! never applies still rejects the program up front (documented in
//! `sct_core::plan`), which is the hybrid regime's reject-before-run
//! contract, not an accident.

use sct_bench::{CompiledWorkload, Setup};
use sct_contracts::corpus::{diverging, table1};
use sct_contracts::{
    plan_program, refutation_error, EvalError, Machine, MachineConfig, NullStore, PlanConfig,
    SemanticsMode, TableStrategy, Value,
};
use std::rc::Rc;

/// A fast plan configuration for sweeping many corpus programs in debug
/// builds: smaller fuel. Plan *quality* is irrelevant to the agreement
/// properties — anything unproven just stays monitored.
fn quick_plan_config() -> PlanConfig {
    let mut cfg = PlanConfig::default();
    cfg.exec.step_budget = 30_000;
    cfg
}

/// Runs a source program the way `sct hybrid` does: plan, report eagerly
/// when refuted, otherwise run fully monitored with the plan's fast path.
fn run_hybrid_with(
    source: &str,
    order: sct_contracts::interp::OrderHandle,
    cfg: &PlanConfig,
) -> Result<Value, EvalError> {
    let prog = sct_contracts::lang::compile_program(source)
        .unwrap_or_else(|e| panic!("compile error: {e}"));
    let plan = plan_program(&prog, cfg, &mut NullStore).0;
    if let Some(err) = refutation_error(&plan) {
        return Err(err);
    }
    let config = MachineConfig {
        mode: SemanticsMode::Monitored,
        order,
        plan: Some(Rc::new(plan)),
        ..MachineConfig::monitored(TableStrategy::Imperative)
    };
    Machine::new(&prog, config).run()
}

fn run_monitored_with(
    source: &str,
    order: sct_contracts::interp::OrderHandle,
) -> Result<Value, EvalError> {
    let prog = sct_contracts::lang::compile_program(source)
        .unwrap_or_else(|e| panic!("compile error: {e}"));
    let config = MachineConfig {
        mode: SemanticsMode::Monitored,
        order,
        ..MachineConfig::monitored(TableStrategy::Imperative)
    };
    Machine::new(&prog, config).run()
}

/// A statically refuted function must be blamed exactly as the dynamic
/// monitor blames it at run time: same blame label, same function name.
#[test]
fn refuted_blame_label_matches_dynamic_monitor() {
    let source = "(define f (terminating/c (lambda (x) (f x)) \"my-party\"))\n(f 1)";

    // Dynamic: standard semantics — the terminating/c extent is monitored
    // and blames its label.
    let Err(EvalError::Sc(dynamic)) = sct_contracts::run(source) else {
        panic!("dynamic run should raise errorSC");
    };
    // Dynamic, fully monitored semantics: same blame.
    let Err(EvalError::Sc(monitored)) = sct_contracts::run_monitored(source) else {
        panic!("monitored run should raise errorSC");
    };
    // Hybrid: the pre-pass refutes before running.
    let Err(EvalError::Sc(hybrid)) = sct_contracts::run_hybrid(source) else {
        panic!("hybrid run should refute eagerly");
    };

    assert_eq!(hybrid.blame.as_deref(), Some("my-party"));
    assert_eq!(hybrid.blame, dynamic.blame);
    assert_eq!(hybrid.blame, monitored.blame);
    assert_eq!(hybrid.function, dynamic.function);
    assert_eq!(hybrid.function, monitored.function);
}

/// Without a `terminating/c` label (whole-program monitoring) both
/// regimes report no blame party.
#[test]
fn refuted_unlabeled_agrees_on_no_blame() {
    let source = "(define (f x) (f x))\n(f 1)";
    let Err(EvalError::Sc(monitored)) = sct_contracts::run_monitored(source) else {
        panic!("monitored run should raise errorSC");
    };
    let Err(EvalError::Sc(hybrid)) = sct_contracts::run_hybrid(source) else {
        panic!("hybrid run should refute eagerly");
    };
    assert_eq!(monitored.blame, None);
    assert_eq!(hybrid.blame, None);
    assert_eq!(hybrid.function, monitored.function);
}

/// Hybrid and plain monitored execution agree on final values across the
/// whole Figure-10 corpus (`run_once` also asserts each workload's result
/// checker), and the pre-pass really discharges the workloads the paper's
/// static column proves.
#[test]
fn fig10_hybrid_agrees_with_monitored() {
    let mut static_workloads = Vec::new();
    for w in sct_contracts::corpus::workloads::fig10() {
        let id = w.id;
        let compiled = CompiledWorkload::new(w);
        if compiled.plan.count("static") > 0 {
            static_workloads.push(id);
        }
        assert_eq!(
            compiled.plan.count("refuted"),
            0,
            "{id}: spurious refutation"
        );
        for n in [3, 12] {
            compiled.run_once(n, Setup::Imperative);
            compiled.run_once(n, Setup::Hybrid);
        }
    }
    for expected in ["fact", "sum", "ack"] {
        assert!(
            static_workloads.contains(&expected),
            "{expected} should be statically discharged; got {static_workloads:?}"
        );
    }
}

/// Table 1's terminating programs: wherever the plain monitor accepts the
/// program, the hybrid pipeline must produce the *same value*. (Where the
/// monitor false-positives, hybrid may legitimately do better — skipping
/// a check the verifier proved unnecessary — so no constraint there.)
#[test]
fn table1_hybrid_value_agreement() {
    for p in table1::all() {
        let mut cfg = quick_plan_config();
        // Refutation presumes the default order, exactly as `sct hybrid
        // --order …` disables it for custom-order monitors.
        cfg.refute = matches!(p.order, sct_contracts::corpus::OrderSpec::Default);
        let order = p.order.handle();
        let monitored = run_monitored_with(p.source, order.clone());
        let hybrid = run_hybrid_with(p.source, order, &cfg);
        match (monitored, hybrid) {
            (Ok(m), Ok(h)) => assert!(
                sct_contracts::interp::equal(&m, &h),
                "{}: monitored {} vs hybrid {}",
                p.id,
                m.to_write_string(),
                h.to_write_string()
            ),
            (Ok(m), Err(e)) => {
                panic!(
                    "{}: monitored accepted ({}) but hybrid failed: {e}",
                    p.id,
                    m.to_write_string()
                )
            }
            (Err(_), _) => {} // dynamic false positive; hybrid unconstrained
        }
    }
}

/// The soundness cornerstone: every diverging corpus program is still
/// caught under hybrid enforcement — eagerly by refutation or at run time
/// by the residual monitor — never allowed to run away on the fast path.
#[test]
fn diverging_corpus_still_caught_by_hybrid() {
    let cfg = quick_plan_config();
    for p in diverging::all() {
        let r = run_hybrid_with(p.source, p.order.handle(), &cfg);
        assert!(
            matches!(r, Err(EvalError::Sc(_))),
            "{}: expected errorSC under hybrid, got {r:?}",
            p.id
        );
    }
}

/// The fast path is visible in the machine counters: a discharged
/// workload runs with zero checks, while the same program without a plan
/// checks every call.
#[test]
fn fast_path_skips_all_checks_for_discharged_function() {
    let source = "(define (sum i acc) (if (zero? i) acc (sum (- i 1) (+ acc i))))\n(sum 50 0)";
    let prog = sct_contracts::lang::compile_program(source).unwrap();
    let plan = Rc::new(plan_program(&prog, &PlanConfig::default(), &mut NullStore).0);
    assert_eq!(plan.count("static"), 1);

    let mut with_plan = Machine::new(
        &prog,
        MachineConfig {
            plan: Some(plan),
            ..MachineConfig::monitored(TableStrategy::Imperative)
        },
    );
    let v = with_plan.run().unwrap();
    assert_eq!(v, Value::int(1275));
    assert_eq!(with_plan.stats.checks, 0);
    assert!(with_plan.stats.static_skips >= 50);

    let mut without = Machine::new(&prog, MachineConfig::monitored(TableStrategy::Imperative));
    assert_eq!(without.run().unwrap(), Value::int(1275));
    assert!(without.stats.checks > 0);
    assert_eq!(without.stats.static_skips, 0);
}

/// The automatic ladder must never *assume* an unverified result domain:
/// here the recursive result is actually −1, so a `nat`-result assumption
/// would prune the `(< r 0)` branch as infeasible, hide the
/// non-descending `(f x)` self-call, and put a diverging function on the
/// fast path. The ladder uses result `any`, so the self-call is seen and
/// the function is refuted (or, at worst, monitored) — either way the
/// run must end in `errorSC`.
#[test]
fn ladder_never_assumes_unverified_result_domain() {
    let source = "(define (f x) (if (= x 0) -1 (if (< (f (- x 1)) 0) (f x) 0)))\n(f 1)";
    let monitored = sct_contracts::run_monitored(source);
    assert!(matches!(monitored, Err(EvalError::Sc(_))), "{monitored:?}");
    let hybrid = sct_contracts::run_hybrid(source);
    assert!(
        matches!(hybrid, Err(EvalError::Sc(_))),
        "hybrid must not discharge f via a result-domain assumption, got {hybrid:?}"
    );
}

/// Nested `terminating/c` wrappers: the machine blames `blames.last()`
/// (the innermost label), and the eager refutation must agree.
#[test]
fn refuted_nested_wrappers_blame_innermost() {
    let source = "(define f (terminating/c (terminating/c (lambda (x) (f x)) \"inner\") \
                  \"outer\"))\n(f 1)";
    let Err(EvalError::Sc(monitored)) = sct_contracts::run_monitored(source) else {
        panic!("monitored run should raise errorSC");
    };
    let Err(EvalError::Sc(hybrid)) = sct_contracts::run_hybrid(source) else {
        panic!("hybrid run should refute eagerly");
    };
    assert_eq!(monitored.blame.as_deref(), Some("inner"));
    assert_eq!(hybrid.blame, monitored.blame);
}

/// A nat-guarded discharge falls back to the monitor on out-of-domain
/// arguments: `(sum -1 0)` diverges toward -∞, and the guard must hand it
/// to the monitor, which stops it.
#[test]
fn guarded_fast_path_falls_back_out_of_domain() {
    let source = "(define (sum i acc) (if (zero? i) acc (sum (- i 1) (+ acc i))))\n(sum -1 0)";
    let r = sct_contracts::run_hybrid(source);
    assert!(
        matches!(r, Err(EvalError::Sc(_))),
        "out-of-domain call must stay monitored and be caught, got {r:?}"
    );
}

/// A shadowed `define` must not inherit its replacement's proof: the
/// executor's global table keeps the *last* binding, but `(g 1)` here
/// runs the diverging *first* one, so its λ must stay monitored (the
/// pre-pass pins each define's own λ id when exploring).
#[test]
fn shadowed_define_does_not_inherit_replacement_proof() {
    let source = "(define (g x) (g x))\n(g 1)\n(define (g x) 0)";
    let monitored = sct_contracts::run_monitored(source);
    assert!(matches!(monitored, Err(EvalError::Sc(_))), "{monitored:?}");
    let hybrid = sct_contracts::run_hybrid(source);
    assert!(
        matches!(hybrid, Err(EvalError::Sc(_))),
        "the first g must stay monitored despite the terminating rebinding, got {hybrid:?}"
    );
}

/// A discharge must not survive global mutation: `f`'s proof descends
/// through `dec`, but a top-level `set!` swaps `dec` for the identity, so
/// `f` must stay monitored and the run must be stopped.
#[test]
fn set_bang_invalidated_discharge_stays_monitored() {
    let source = "(define (dec x) (- x 1))
                  (define (f x) (if (zero? x) 0 (f (dec x))))
                  (set! dec (lambda (x) x))
                  (f 3)";
    let r = sct_contracts::run_hybrid(source);
    assert!(
        matches!(r, Err(EvalError::Sc(_))),
        "mutated-helper divergence must be caught, got {r:?}"
    );
}

/// The one deliberate divergence from the monitored semantics: a refuted
/// function the program never applies still rejects the program up front
/// (the hybrid regime's reject-before-run contract; see `sct_core::plan`).
#[test]
fn refutation_is_eager_even_if_never_applied() {
    let source = "(define f (terminating/c (lambda (x) (f x)) \"p\"))\n42";
    assert_eq!(
        sct_contracts::run_monitored(source).unwrap(),
        Value::int(42),
        "the monitor lets a never-applied refuted function pass"
    );
    let hybrid = sct_contracts::run_hybrid(source);
    assert!(
        matches!(hybrid, Err(EvalError::Sc(ref info)) if info.blame.as_deref() == Some("p")),
        "hybrid rejects before running, with blame, got {hybrid:?}"
    );
}

/// Fuel alone bounds each define's planning: with no wall clock in the
/// planner, no define of the Table 1 corpus, the Figure 10 workloads or a
/// fixed-seed batch of fuzz cases takes a second to plan under the
/// default configuration.
#[test]
fn fuel_bounds_every_define_planning_time() {
    let mut sources: Vec<(String, String)> = table1::all()
        .into_iter()
        .map(|p| (p.id.to_string(), p.source.to_string()))
        .collect();
    sources.extend(
        sct_contracts::corpus::workloads::fig10()
            .into_iter()
            .map(|w| (w.id.to_string(), w.source)),
    );
    sources.extend((0..100).map(|i| {
        let case = sct_fuzz::gen_case(sct_fuzz::case_seed(1, i));
        (format!("fuzz case {}", case.seed), case.source)
    }));
    for (label, source) in sources {
        let prog = sct_contracts::lang::compile_program(&source).expect(&label);
        for d in plan_program(&prog, &PlanConfig::default(), &mut NullStore)
            .0
            .decisions
        {
            assert!(
                d.micros < 1_000_000,
                "{label}/{} took {} µs to plan",
                d.name,
                d.micros
            );
        }
    }
}

/// Planning never interns into the thread's graph pool. Planning and
/// execution share a thread in `sct hybrid` and in every `sct serve`
/// request; a pool warmed by planning would renumber the run's graph ids,
/// and with them which failing composite the monitor reports as the
/// violation witness.
#[test]
fn planning_leaves_the_thread_graph_pool_unchanged() {
    let graphs = || sct_contracts::core::intern::with(|pool| pool.len());
    let source = "(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))
                  (define spin (terminating/c (lambda (x) (spin x)) \"p\"))
                  (len '(1 2 3))";
    let prog = sct_contracts::lang::compile_program(source).unwrap();
    let before = graphs();
    let plan = plan_program(&prog, &quick_plan_config(), &mut NullStore).0;
    assert_eq!(
        (plan.count("static"), plan.count("refuted")),
        (1, 1),
        "{plan}"
    );
    assert_eq!(
        graphs(),
        before,
        "planning interned into the monitor's pool"
    );
    // The monitored run of the same program does intern its graphs.
    let value = run_monitored_with(source, sct_contracts::interp::OrderHandle::default());
    assert_eq!(value.unwrap().to_write_string(), "3");
    assert!(graphs() > before);
}
