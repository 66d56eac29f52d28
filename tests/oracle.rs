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
//! Since PR 8 every differential case additionally runs the VM twice —
//! polymorphic inline caches enabled and disabled — asserting the two
//! runs produce identical values, output, blame, and semantic counters,
//! and that `pic_hits + pic_misses` accounts for every `Generic`-site
//! application. The caches are a pure dispatch optimization; any
//! divergence they introduce is an enforcement-soundness bug.

use proptest::prelude::*;
use sct_contracts::corpus::{diverging, table1, workloads};
use sct_contracts::{plan_program, MachineConfig, PlanConfig, SemanticsMode, TableStrategy};
use sct_fuzz::harness::{assert_pic_transparent, run_reference, run_vm_stats, Outcome};
use sct_fuzz::ExprGen;
use std::rc::Rc;

/// Runs `source` through both machines under `config` and asserts (or,
/// for the proptest driver, returns) outcome equality. Every case runs
/// the VM *twice* — inline caches enabled and disabled — and asserts the
/// two runs agree on values, output, blame, and the semantic counters,
/// with `pic_hits + pic_misses` accounting for every `Generic`-site
/// application (see `assert_pic_transparent`).
fn outcomes(source: &str, config: &MachineConfig) -> (Outcome, Outcome) {
    let prog = sct_contracts::lang::compile_program(source)
        .unwrap_or_else(|e| panic!("compile failed: {e}\n{source}"));
    (
        assert_pic_transparent(&prog, config, "oracle case"),
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
    cfg.verify.exec.step_budget = 30_000;
    cfg
}

// ---------------------------------------------------------------------
// Corpus sweeps.
// ---------------------------------------------------------------------

/// Every Figure-10 workload, whole-program (body + a small entry call
/// appended), under unchecked, both monitored strategies, the hybrid
/// plan, and call-sequence collection.
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
        let source = format!("{}\n({} {})", w.source, w.entry, args.join(" "));
        let prog = sct_contracts::lang::compile_program(&source).expect("workload compiles");
        let plan = Rc::new(plan_program(&prog, &quick_plan_config()));
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
            assert_eq!(vm, reference, "{} under {label}", w.id);
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
// PIC transparency.
// ---------------------------------------------------------------------

/// A megamorphic first-class call site — one `Generic` site dispatching
/// to five distinct callees, overflowing the 4-way cache — plus a `set!`
/// rebinding mid-run: the canonical PIC fill/overflow/invalidation
/// shapes, checked on top of the per-case transparency sweep that
/// [`outcomes`] already applies everywhere. Counter arithmetic is
/// asserted exactly: every generic-site application is a hit or a miss,
/// and a `set!` of a monitored global forces re-resolution (stamp
/// invalidation) rather than a silently stale fast path.
#[test]
fn pic_on_off_outcomes_agree_and_counters_reconcile() {
    let source = r#"
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
    let prog = sct_contracts::lang::compile_program(source).expect("compiles");
    for strategy in [TableStrategy::Imperative, TableStrategy::ContinuationMark] {
        let config = MachineConfig::monitored(strategy);
        let vm = assert_pic_transparent(&prog, &config, "megamorphic sweep");
        let reference = run_reference(&prog, config.clone());
        assert_eq!(vm, reference, "megamorphic sweep under {strategy:?}");
        let (_, stats) = run_vm_stats(&prog, config);
        assert!(
            stats.generic_calls > 0,
            "the sweep must exercise generic sites"
        );
        assert_eq!(
            stats.pic_hits + stats.pic_misses,
            stats.generic_calls,
            "every generic-site application is a hit or a miss"
        );
        assert!(
            stats.pic_misses >= 5,
            "five distinct callees through one site cannot all hit"
        );
        assert!(
            stats.pic_invalidations > 0,
            "the set! rebinding must invalidate cached entries"
        );
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
            let vm = assert_pic_transparent(&prog, &config, "generated");
            let reference = run_reference(&prog, config);
            prop_assert_eq!(&vm, &reference, "strategy {:?}\n{}", strategy, &source);
        }
        let plan = Rc::new(plan_program(&prog, &quick_plan_config()));
        let config = MachineConfig {
            plan: Some(plan),
            ..MachineConfig::monitored(TableStrategy::Imperative)
        };
        let vm = assert_pic_transparent(&prog, &config, "generated hybrid");
        let reference = run_reference(&prog, config);
        prop_assert_eq!(&vm, &reference, "hybrid\n{}", &source);
    }
}
