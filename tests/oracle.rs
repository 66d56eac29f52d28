//! Differential oracle: the flat-IR dispatch VM ≡ the reference
//! tree-walking CEK machine.
//!
//! PR 5 replaced the evaluator under every regime of the paper. The
//! contract of that refactor is *observational equivalence*: on any
//! program, under any semantics/strategy/plan configuration, the two
//! machines must produce
//!
//! * the same answer (value, `errorRT`, `errorSC`, contract violation —
//!   compared by full rendering, which includes blame labels, violation
//!   witnesses, and function names),
//! * the same console output, and
//! * the same *semantic* monitor counters: `applications`,
//!   `monitored_calls`, `checks`, and `static_skips`. (Representation-
//!   bound counters — `steps`, continuation high-water marks,
//!   `env_frames_allocated` — legitimately differ: steps count IR
//!   instructions on one side and CEK transitions on the other.)
//!
//! Coverage: the whole Figure-10 workload corpus (all four bench setups
//! plus call-sequence collection), all 28 Table 1 programs under both
//! table strategies, every diverging program (identical violation and
//! blame), and a seeded random-program sweep whose generator — the
//! [`sct_fuzz::ExprGen`] module shared with the `sct fuzz` campaign, so
//! the oracle sweep and the fuzzer grow coverage in one place — exercises
//! closures (captured, mutated, `letrec`-recursive), shadowing, variadic
//! lambdas, `apply`, contracts, and `terminating/c` extents. Generated
//! programs run fully monitored, so Theorem 3.1 guarantees termination
//! without a fuel bound (a fuel bound would itself diverge between the
//! machines, since their step granularities differ).
//!
//! First-class call sites get cases of their own: one site dispatching
//! to many callees, with a `set!` rebinding a callee between sweeps, so a
//! generic site must read each callee's verdict from the per-λ table
//! afresh, under the hybrid plan too.

use proptest::prelude::*;
use sct_contracts::corpus::{diverging, table1, workloads};
use sct_contracts::{
    plan_program, Machine, MachineConfig, NullStore, PlanConfig, SemanticsMode, TableStrategy,
};
use sct_fuzz::harness::{run_reference, run_vm, Outcome};
use sct_fuzz::ExprGen;
use std::rc::Rc;

/// Runs `source` through both machines under `config` and returns both
/// outcomes, for the caller to compare.
fn outcomes(source: &str, config: &MachineConfig) -> (Outcome, Outcome) {
    let prog = sct_contracts::lang::compile_program(source)
        .unwrap_or_else(|e| panic!("compile failed: {e}\n{source}"));
    (
        run_vm(&prog, config.clone()),
        run_reference(&prog, config.clone()),
    )
}

fn assert_agree(source: &str, config: &MachineConfig, what: &str) {
    let (vm, reference) = outcomes(source, config);
    assert_eq!(vm, reference, "{what}:\n{source}");
}

/// A fast plan configuration (see `tests/hybrid.rs`): plan *quality* is
/// irrelevant to machine agreement — anything unproven stays monitored.
fn quick_plan_config() -> PlanConfig {
    let mut cfg = PlanConfig::default();
    cfg.exec.step_budget = 30_000;
    cfg
}

// ---------------------------------------------------------------------
// Corpus sweeps.
// ---------------------------------------------------------------------

/// Every Figure-10 workload, whole-program (body + a small entry call
/// appended), under unchecked, both monitored strategies, the hybrid
/// plan, and call-sequence collection. Each workload runs twice: its entry
/// called directly, and called first-class through a `Generic` site, where
/// the hybrid run must skip a discharged entry through the per-λ table
/// exactly as the walker does.
#[test]
fn fig10_corpus_agrees_under_every_setup() {
    for w in workloads::fig10() {
        let n: u64 = match w.id {
            "ack" => 16,
            "msort" | "interp-msort" => 48,
            _ => 60,
        };
        let args: Vec<String> = (w.make_args)(n)
            .iter()
            .map(|v| {
                let s = v.to_write_string();
                if s.starts_with('(') {
                    format!("'{s}")
                } else {
                    s
                }
            })
            .collect();
        let args = args.join(" ");
        for (call, source) in [
            ("direct", format!("{}\n({} {args})", w.source, w.entry)),
            (
                "first-class",
                format!("{}\n((lambda (g) (g {args})) {})", w.source, w.entry),
            ),
        ] {
            let prog = sct_contracts::lang::compile_program(&source).expect("workload compiles");
            let plan = Rc::new(plan_program(&prog, &quick_plan_config(), &mut NullStore).0);
            let configs: Vec<(&str, MachineConfig)> = vec![
                ("unchecked", MachineConfig::standard()),
                (
                    "cm",
                    MachineConfig {
                        order: w.order.handle(),
                        ..MachineConfig::monitored(TableStrategy::ContinuationMark)
                    },
                ),
                (
                    "imperative",
                    MachineConfig {
                        order: w.order.handle(),
                        ..MachineConfig::monitored(TableStrategy::Imperative)
                    },
                ),
                (
                    "hybrid",
                    MachineConfig {
                        order: w.order.handle(),
                        plan: Some(plan.clone()),
                        ..MachineConfig::monitored(TableStrategy::Imperative)
                    },
                ),
                (
                    "callseq",
                    MachineConfig {
                        mode: SemanticsMode::CallSeqCollect,
                        order: w.order.handle(),
                        ..MachineConfig::default()
                    },
                ),
            ];
            for (label, config) in configs {
                let (vm, reference) = outcomes(&source, &config);
                assert_eq!(vm, reference, "{} called {call} under {label}", w.id);
            }
        }
    }
}

/// All 28 Table 1 programs under both table strategies (values and
/// answers, monitored end to end).
#[test]
fn table1_corpus_agrees_under_both_strategies() {
    for p in table1::all() {
        for strategy in [TableStrategy::Imperative, TableStrategy::ContinuationMark] {
            let config = MachineConfig {
                order: p.order.handle(),
                ..MachineConfig::monitored(strategy)
            };
            assert_agree(p.source, &config, p.id);
        }
    }
}

/// Every diverging program is caught by both machines with the *same*
/// violation witness, function name, and blame label.
#[test]
fn diverging_corpus_agrees_on_blame() {
    for p in diverging::all() {
        let config = MachineConfig {
            order: p.order.handle(),
            ..MachineConfig::monitored(TableStrategy::Imperative)
        };
        let (vm, reference) = outcomes(p.source, &config);
        assert_eq!(vm, reference, "{}", p.id);
        assert!(
            vm.answer.contains("termination contract violation"),
            "{}: expected errorSC, got {}",
            p.id,
            vm.answer
        );
    }
}

// ---------------------------------------------------------------------
// First-class call sites.
// ---------------------------------------------------------------------

/// A megamorphic first-class call site — one `Generic` site dispatching
/// to five distinct callees — plus a `set!` rebinding mid-run.
const MEGA_SWEEP: &str = r#"
(define (f1 n) (if (zero? n) 0 (f1 (- n 1))))
(define (f2 n) (if (zero? n) 0 (f2 (- n 1))))
(define (f3 n) (if (zero? n) 1 (f3 (- n 1))))
(define (f4 n) (if (zero? n) 1 (f4 (- n 1))))
(define (f5 n) (if (zero? n) 2 (f5 (- n 1))))
(define (call f n) (f n))
(define (sweep k)
  (if (zero? k)
      0
      (+ (call f1 k) (call f2 k) (call f3 k) (call f4 k) (call f5 k)
         (sweep (- k 1)))))
(display (sweep 12))
(set! f3 f5)
(display (sweep 12))
"#;

/// A first-class callee whose global is `set!`-rebound between two runs
/// of the same generic site.
const SET_REBIND: &str = r#"
(define (g n) (if (zero? n) 0 (g (- n 1))))
(define (h n) (if (zero? n) 1 (h (- n 1))))
(define (k n) (if (zero? n) 2 (k (- n 1))))
(define (call fn n) (fn n))
(define (drive n) (+ (call g n) (call k n)))
(drive 6)
(set! g h)
(drive 6)
"#;

/// First-class call sites with `set!`-rebound callees — [`MEGA_SWEEP`],
/// [`SET_REBIND`] and the pinned `mega-set-rebind` fuzzer regression —
/// agree with the walker on value, output, blame and the semantic
/// counters under both monitored strategies and under the hybrid plan,
/// whose discharged callees the generic sites skip through the per-λ
/// table.
#[test]
fn rebound_first_class_callees_agree_and_skip_through_the_table() {
    let mega = include_str!("fuzz_regressions/mega-set-rebind.sct");
    for (what, source) in [
        ("megamorphic sweep", MEGA_SWEEP),
        ("set-rebind", SET_REBIND),
        ("mega-set-rebind", mega),
    ] {
        let prog = sct_contracts::lang::compile_program(source).expect("compiles");
        let plan = Rc::new(plan_program(&prog, &quick_plan_config(), &mut NullStore).0);
        let hybrid = MachineConfig {
            plan: Some(plan),
            ..MachineConfig::monitored(TableStrategy::Imperative)
        };
        for config in [
            MachineConfig::monitored(TableStrategy::Imperative),
            MachineConfig::monitored(TableStrategy::ContinuationMark),
            hybrid.clone(),
        ] {
            let vm = run_vm(&prog, config.clone());
            let reference = run_reference(&prog, config);
            assert_eq!(vm, reference, "{what}");
            assert!(vm.answer.starts_with("ok: "), "{what}: {}", vm.answer);
        }
        let mut m = Machine::new(&prog, hybrid);
        m.run().expect("runs clean");
        assert!(m.stats.generic_calls > 0, "{what}: no generic-site call");
        assert!(m.stats.static_skips > 0, "{what}: the plan skipped nothing");
    }
}

// ---------------------------------------------------------------------
// Seeded random-program sweep.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Generated programs agree under both monitored strategies and under
    /// the hybrid plan. Monitoring guarantees termination (Theorem 3.1),
    /// so no fuel bound is needed — and none is wanted, since the two
    /// machines count steps at different granularities.
    #[test]
    fn generated_programs_agree(seed in any::<u64>()) {
        let source = ExprGen::new(seed).program(seed % 1000);
        let prog = match sct_contracts::lang::compile_program(&source) {
            Ok(p) => p,
            Err(e) => panic!("generator produced an uncompilable program: {e}\n{source}"),
        };
        for strategy in [TableStrategy::Imperative, TableStrategy::ContinuationMark] {
            let config = MachineConfig::monitored(strategy);
            let vm = run_vm(&prog, config.clone());
            let reference = run_reference(&prog, config);
            prop_assert_eq!(&vm, &reference, "strategy {:?}\n{}", strategy, &source);
        }
        let plan = Rc::new(plan_program(&prog, &quick_plan_config(), &mut NullStore).0);
        let config = MachineConfig {
            plan: Some(plan),
            ..MachineConfig::monitored(TableStrategy::Imperative)
        };
        let vm = run_vm(&prog, config.clone());
        let reference = run_reference(&prog, config);
        prop_assert_eq!(&vm, &reference, "hybrid\n{}", &source);
    }
}
