//! Regression tests for the polymorphic inline caches on `Generic` call
//! sites — specifically the *invalidation* story: a PIC entry caches the
//! resolved fast path (skip / domain guard / monitor) stamped with the
//! installed plan's fingerprint mixed with the global-store epoch, and a
//! stale stamp must force re-resolution, never a silently cached skip.
//!
//! The scenario that motivated the stamp (and this file): an incremental
//! re-plan flips a define from `Static` to `Monitor` while a machine with
//! warm caches keeps running. If the old `Skip` entry survived, the
//! monitor would never see the calls and a genuine divergence would run
//! away unchecked — enforcement soundness, not performance, is what the
//! stamp protects.

use sct_contracts::{
    plan_program, Decision, EvalError, Machine, MachineConfig, PlanConfig, TableStrategy,
};
use std::rc::Rc;

/// `(f f n)` terminates for small `n` (decrements below 5) but diverges
/// for `n >= 5` (increments forever). Self-application keeps the call
/// site first-class, so it compiles to a `Generic` site with a PIC.
const SELF_APP: &str = r#"
(define (f self n)
  (if (zero? n)
      0
      (self self (if (< n 5) (- n 1) (+ n 1)))))
"#;

fn quick_plan_config() -> PlanConfig {
    let mut cfg = PlanConfig::default();
    cfg.exec.step_budget = 30_000;
    cfg
}

/// The planner's real plan for `SELF_APP`, with `f`'s decision replaced.
fn plan_with_f(decision: Decision) -> Rc<sct_contracts::EnforcementPlan> {
    let prog = sct_contracts::lang::compile_program(SELF_APP).expect("compiles");
    let mut plan = plan_program(&prog, &quick_plan_config());
    let d = plan
        .decisions
        .iter_mut()
        .find(|d| d.name == "f")
        .expect("plan has a decision for f");
    d.decision = decision;
    Rc::new(plan)
}

/// After an incremental re-plan flips `f` from `Static` to `Monitor`, the
/// stale `Skip` entry cached during the static phase must be invalidated
/// — observed via `pic_invalidations` — and the monitor must still blame
/// the divergence the new plan no longer discharges.
#[test]
fn stale_pic_entry_never_skips_after_replan_flips_static_to_monitor() {
    let prog = sct_contracts::lang::compile_program(SELF_APP).expect("compiles");
    let plan_static = plan_with_f(Decision::Static { guard: vec![] });
    let plan_monitor = plan_with_f(Decision::Monitor {
        reason: "re-plan flipped the verdict".to_string(),
    });

    let config = MachineConfig {
        plan: Some(plan_static),
        ..MachineConfig::monitored(TableStrategy::Imperative)
    };
    let mut m = Machine::new(&prog, config);
    m.run().expect("defines evaluate");
    let f = m.global("f").expect("f is defined");

    // Phase A: under the static plan the generic site caches `Skip`.
    let v = m
        .call(f.clone(), vec![f.clone(), sct_contracts::Value::int(3)])
        .expect("terminating call succeeds");
    assert_eq!(v.to_write_string(), "0");
    assert!(m.stats.pic_hits > 0, "warm cache must serve the skip path");
    assert!(
        m.stats.static_skips > 0,
        "the static plan discharges the recursion"
    );
    assert_eq!(m.stats.checks, 0, "no table checks under the static plan");
    assert_eq!(m.stats.pic_invalidations, 0);

    // Phase B: the re-plan flips f to Monitor. The cached Skip entries
    // carry the old stamp; the first generic call must re-resolve.
    m.install_plan(Some(plan_monitor));
    let r = m.call(f.clone(), vec![f, sct_contracts::Value::int(10)]);
    match r {
        Err(EvalError::Sc(info)) => {
            assert_eq!(info.function, "f", "blame names the diverging function");
        }
        other => panic!("divergence must be blamed, got {other:?}"),
    }
    assert!(
        m.stats.pic_invalidations >= 1,
        "the stale Skip entry must be stamped out, not reused"
    );
    assert!(
        m.stats.checks > 0,
        "the monitor must actually check the calls the old plan skipped"
    );
    // Accounting stays exact across the flip: every generic-site
    // application was a hit or a miss.
    assert_eq!(m.stats.pic_hits + m.stats.pic_misses, m.stats.generic_calls);
}

/// Re-installing a plan with the *same* decisions fingerprint must keep
/// the caches warm: no invalidation, no extra misses — a no-op re-plan
/// (the common incremental case) costs nothing.
#[test]
fn noop_replan_keeps_pic_caches_warm() {
    let prog = sct_contracts::lang::compile_program(SELF_APP).expect("compiles");
    let plan = plan_with_f(Decision::Static { guard: vec![] });

    let config = MachineConfig {
        plan: Some(plan.clone()),
        ..MachineConfig::monitored(TableStrategy::Imperative)
    };
    let mut m = Machine::new(&prog, config);
    m.run().expect("defines evaluate");
    let f = m.global("f").expect("f is defined");
    m.call(f.clone(), vec![f.clone(), sct_contracts::Value::int(4)])
        .expect("terminating call succeeds");
    let misses_before = m.stats.pic_misses;

    // Structurally identical plan object: same fingerprint, warm caches.
    m.install_plan(Some(plan));
    m.call(f.clone(), vec![f, sct_contracts::Value::int(4)])
        .expect("terminating call succeeds");
    assert_eq!(
        m.stats.pic_invalidations, 0,
        "no-op re-plan invalidates nothing"
    );
    assert_eq!(
        m.stats.pic_misses, misses_before,
        "second run is served entirely from the warm cache"
    );
}

/// A `set!` that rebinds a monitored global bumps the store epoch, so
/// every cached entry resolved before the store changed is re-resolved —
/// the conservative rule that keeps first-class rebinding sound without
/// tracking which global each cache observed.
#[test]
fn set_rebind_bumps_epoch_and_invalidates_pics() {
    let source = r#"
(define (g n) (if (zero? n) 0 (g (- n 1))))
(define (h n) (if (zero? n) 1 (h (- n 1))))
(define (k n) (if (zero? n) 2 (k (- n 1))))
(define (call fn n) (fn n))
(define (drive n) (+ (call g n) (call k n)))
(drive 6)
(set! g h)
(drive 6)
"#;
    let prog = sct_contracts::lang::compile_program(source).expect("compiles");
    let mut m = Machine::new(&prog, MachineConfig::monitored(TableStrategy::Imperative));
    m.run().expect("program runs clean");
    assert!(m.stats.generic_calls > 0, "call's site is first-class");
    assert!(
        m.stats.pic_invalidations >= 1,
        "the set! must stamp out entries cached before the store changed"
    );
    assert_eq!(m.stats.pic_hits + m.stats.pic_misses, m.stats.generic_calls);
}

/// The PIC identity, observed the way a dashboard would: through the
/// `sct-obs` registry snapshot after `Stats::publish`, not the machine's
/// own fields. `vm.pic_hits + vm.pic_misses == vm.generic_calls` must
/// hold in the exported numbers — the export is a faithful copy, not a
/// re-derivation that could drift.
#[test]
fn pic_identity_holds_in_the_registry_snapshot() {
    let source = r#"
(define (g n) (if (zero? n) 0 (g (- n 1))))
(define (h n) (if (zero? n) 1 (h (- n 1))))
(define (call fn n) (fn n))
(define (drive n) (+ (call g n) (call h n)))
(drive 6)
(drive 6)
"#;
    let prog = sct_contracts::lang::compile_program(source).expect("compiles");
    let mut m = Machine::new(&prog, MachineConfig::monitored(TableStrategy::Imperative));
    m.run().expect("program runs clean");
    assert!(m.stats.generic_calls > 0, "call's site is first-class");

    let registry = sct_obs::Registry::new();
    m.stats.publish(&registry);
    let snap = registry.snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("no {name} in snapshot"))
            .1
    };
    let (hits, misses, generic) = (
        counter("vm.pic_hits"),
        counter("vm.pic_misses"),
        counter("vm.generic_calls"),
    );
    assert!(hits > 0, "second drive is served from the warm caches");
    assert_eq!(
        hits + misses,
        generic,
        "every generic-site application is a hit or a miss, as exported"
    );
    // And the export matches the machine's own accounting exactly.
    assert_eq!(hits, m.stats.pic_hits);
    assert_eq!(misses, m.stats.pic_misses);
    assert_eq!(generic, m.stats.generic_calls);
}
