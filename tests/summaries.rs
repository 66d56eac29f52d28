//! The contract-summary soundness oracle: planning with verified-callee
//! stubbing enabled must produce plans *structurally equal* (decision,
//! guard, covers, blame, and detail — everything but timing) to planning
//! with full body descent, across
//!
//! * the Figure-10 workload corpus (each workload alone and the
//!   fig10-scale ten-define composite, with and without signature pins),
//! * a 128-case seeded sweep of the fuzz generator's schemas (the same
//!   `sct_fuzz::gen_case` space the `sct fuzz` campaign patrols — its
//!   `summary-mismatch` differential runs this check on every fuzzed
//!   case forever after).
//!
//! The `order_*` tests pin the other half of "a plan is a function of
//! program content only": the same defines in source order, reversed, and
//! shuffled plan to the same decision per define and stub the same number
//! of callee applications (the fuzz campaign's `plan-nondeterminism` kind
//! patrols the same property).
//!
//! Equality rather than mere agreement-on-verdict is deliberate: the
//! summary machinery is a pure optimization of *how* the verifier reaches
//! a decision, so any observable drift — a different rung, different
//! covers, different blame — is a bug in the stubbing soundness
//! conditions, not an acceptable improvement. (One known, pinned
//! exception class exists where modular proofs are strictly stronger than
//! whole-body descent; see `stub_proofs_are_never_weaker_than_descent`
//! in `sct-symbolic`. The corpora here are the shapes the system
//! supports, and on them the plans are bit-identical.)

use sct_cache::MemStore;
use sct_contracts::{plan_program, plan_program_incremental, PlanCache, PlanConfig, PlanDomain};
use sct_core::plan::EnforcementPlan;
use sct_corpus::workloads;
use sct_fuzz::{gen_case, order_free_view, permute_defines, Rng};
use sct_obs::Registry;
use sct_symbolic::PlanObs;
use std::sync::Arc;

/// Plans `source` twice — summaries on (against a fresh `MemStore`, so
/// the in-pass table *and* the persisted round-trip are exercised) and
/// summaries off — and returns both plans.
fn plan_both(source: &str, base: &PlanConfig) -> (EnforcementPlan, EnforcementPlan) {
    let prog = sct_lang::compile_program(source).expect(source);
    let on_cfg = PlanConfig {
        summaries: true,
        ..base.clone()
    };
    let off_cfg = PlanConfig {
        summaries: false,
        ..base.clone()
    };
    let mut store = MemStore::new();
    let (on, _) = plan_program_incremental(&prog, &on_cfg, &mut PlanCache::new(), &mut store);
    // A second summaries-on pass against the now-warm store: every
    // decision hits, and stubbing for any *edited* caller would come from
    // the persisted summaries. Here nothing changed, so it must replay.
    let (replay, _) = plan_program_incremental(&prog, &on_cfg, &mut PlanCache::new(), &mut store);
    assert!(
        on.structurally_eq(&replay),
        "warm summary replay drifted:\n{source}"
    );
    let (off, _) =
        plan_program_incremental(&prog, &off_cfg, &mut PlanCache::new(), &mut MemStore::new());
    (on, off)
}

fn assert_modes_agree(source: &str, base: &PlanConfig, tag: &str) {
    let (on, off) = plan_both(source, base);
    assert!(
        on.structurally_eq(&off),
        "{tag}: summary-stubbed plan differs from full descent\n\
         with summaries: {on}\nfull descent:  {off}\nprogram:\n{source}"
    );
}

/// A fig10-scale composite: every direct Figure-10 workload's defines in
/// one program, so cross-define applications (merge-sort's helpers, the
/// interpreters' dispatch) plan against already-summarized callees.
fn fig10_composite() -> String {
    workloads::fig10()
        .iter()
        .filter(|w| !w.id.starts_with("interp"))
        .map(|w| w.source.as_str())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn fig10_workloads_plan_identically_with_summaries() {
    for w in workloads::fig10() {
        assert_modes_agree(&w.source, &PlanConfig::default(), w.id);
    }
}

#[test]
fn fig10_workloads_with_signature_pins_plan_identically() {
    for w in workloads::fig10() {
        let mut cfg = PlanConfig::default();
        if let Some((params, result)) = w.sig {
            cfg.signatures
                .insert(w.entry.to_string(), (params.to_vec(), result));
        }
        assert_modes_agree(&w.source, &cfg, w.id);
    }
}

#[test]
fn fig10_composite_plans_identically_with_summaries() {
    assert_modes_agree(
        &fig10_composite(),
        &PlanConfig::default(),
        "fig10-composite",
    );
}

/// The committed `BENCH_plan.json` artifact must carry the scaling
/// story the summary subsystem exists to win: schema `sct-plan-bench/1`,
/// a ≥5× cold-plan speedup on the smallest corpus, warm and
/// summaries-on planning beating full descent at every size,
/// sub-quadratic cold-plan and warm-replay growth across corpus sizes,
/// and a front end growing below size^1.25 — the rules of
/// `sct_bench::check_plan_json`, which CI's `report_plan --check` runs.
#[test]
fn committed_plan_bench_artifact_pins_summary_speedup() {
    let text = std::fs::read_to_string(sct_bench::plan_json_path())
        .expect("BENCH_plan.json at the repo root");
    // `fast: false`: the committed artifact is a full run, so the
    // speedup and growth gates apply.
    if let Err(why) = sct_bench::check_plan_json(&text, false) {
        panic!("committed BENCH_plan.json: {why}");
    }
}

/// The layered call DAG `plan-cold` plans: every define above layer 0
/// stubs three callees whose own summaries stub three more, so a
/// define's exploration reaches summaries many layers down. Callees
/// precede callers in source order; the reversed order makes the planner
/// reorder every define.
///
/// Every define is pinned to `list -> any`. Unpinned, the corpus falls in
/// the divergence class `stub_proofs_are_never_weaker_than_descent` pins:
/// whole-body descent of a define that applies several list recursions
/// to `(cdr l)` trips the executor's kind check at the `Any` rung and
/// ends on a vacuous `Nat` guard, while the stubbed proof holds at `Any`.
#[test]
fn layered_corpus_plans_identically_with_summaries() {
    let source = sct_bench::layered_corpus(300, 7, 0);
    let mut cfg = PlanConfig::default();
    for i in 0..300 {
        cfg.signatures
            .insert(format!("f{i}"), (vec![PlanDomain::List], PlanDomain::Any));
    }
    assert_modes_agree(&source, &cfg, "layered-300");
    let reversed = permute_defines(&source, |k| (0..k).rev().collect()).unwrap();
    assert_modes_agree(&reversed, &cfg, "layered-300 reversed");
}

/// A define's cache entry grows with its own body, not with everything it
/// reaches: the top define of a 1000-define layered corpus reaches about
/// 130 summaries, and its entry must not list them.
#[test]
fn layered_corpus_entries_stay_small() {
    let prog = sct_lang::compile_program(&sct_bench::layered_corpus(1000, 7, 0)).unwrap();
    let mut store = MemStore::new();
    plan_program_incremental(
        &prog,
        &PlanConfig::default(),
        &mut PlanCache::new(),
        &mut store,
    );
    let top = store
        .entries()
        .values()
        .find(|e| e.name == "f999")
        .expect("the top define has an entry");
    let bytes = sct_core::plan_codec::encode_entry(top).len();
    assert!(bytes <= 1024, "top entry is {bytes} bytes: {}", top.detail);
}

#[test]
fn fuzz_schema_sweep_plans_identically_with_summaries() {
    // 128 seeded cases across every generator schema and mutation — the
    // same space `sct fuzz` draws from, pinned here so the invariant is
    // checked in tier-1 even without running the campaign binary.
    for seed in 0..128u64 {
        let case = gen_case(seed);
        assert_modes_agree(
            &case.source,
            &PlanConfig::default(),
            &format!("seed {seed} ({})", case.schema.name()),
        );
    }
}

/// Plans `source` (summaries on) and returns the order-free view of its
/// decisions plus `plan.summary.stubbed_applications`.
fn order_free_plan(source: &str) -> (Vec<impl PartialEq + std::fmt::Debug>, u64) {
    let reg = Arc::new(Registry::new());
    let cfg = PlanConfig {
        obs: PlanObs::registered(reg.clone()),
        ..PlanConfig::default()
    };
    let plan = plan_program(&sct_lang::compile_program(source).expect(source), &cfg);
    let stubs = reg.snapshot().counter("plan.summary.stubbed_applications");
    (order_free_view(&plan), stubs.unwrap_or(0))
}

/// Asserts that `source` plans identically in source order, reversed,
/// and in six seeded shuffles of its defines.
fn assert_order_independent(source: &str, tag: &str) {
    let (reference, stubs) = order_free_plan(source);
    let mut orders = vec![(
        "reversed".to_string(),
        permute_defines(source, |k| (0..k).rev().collect()).unwrap(),
    )];
    for seed in 1..=6u64 {
        let shuffled = permute_defines(source, |k| {
            let mut order: Vec<usize> = (0..k).collect();
            Rng::new(seed).shuffle(&mut order);
            order
        });
        orders.push((format!("shuffle {seed}"), shuffled.unwrap()));
    }
    for (label, permuted) in orders {
        let (view, permuted_stubs) = order_free_plan(&permuted);
        assert_eq!(
            view, reference,
            "{tag}, {label}: decisions depend on define order"
        );
        assert_eq!(
            permuted_stubs, stubs,
            "{tag}, {label}: stubbed applications depend on define order"
        );
    }
}

#[test]
fn order_of_defines_does_not_change_the_layered_corpus_plan() {
    assert_order_independent(&sct_bench::layered_corpus(200, 7, 0), "layered-200");
}

#[test]
fn order_of_defines_does_not_change_the_fig10_composite_plan() {
    assert_order_independent(&fig10_composite(), "fig10-composite");
}

#[test]
fn mutual_recursion_through_a_non_lambda_define_is_never_stubbed() {
    // `f` and `h` recurse through `g`, whose λ comes out of a `let`: `g`
    // is not planned itself, but its initializer puts all three in one
    // component of the reference graph. Whichever of `f` and `h` plans
    // first, the other must descend into it rather than stub it, or the
    // cycle would vanish from its own exploration.
    let defs = [
        "(define (f l) (if (null? l) 0 (+ 1 (g (cdr l)))))",
        "(define g (let ((k 1)) (lambda (l) (if (null? l) k (h (cdr l))))))",
        "(define (h l) (if (null? l) 0 (f (cdr l))))",
    ];
    for order in [[0, 1, 2], [2, 1, 0]] {
        let source: Vec<&str> = order.iter().map(|&i| defs[i]).collect();
        let prog = sct_lang::compile_program(&source.join("\n")).unwrap();
        let reg = Arc::new(Registry::new());
        let on = PlanConfig {
            obs: PlanObs::registered(reg.clone()),
            ..PlanConfig::default()
        };
        let off = PlanConfig {
            summaries: false,
            ..PlanConfig::default()
        };
        let (stubbed, full) = (plan_program(&prog, &on), plan_program(&prog, &off));
        assert_eq!(
            reg.snapshot().counter("plan.summary.stubbed_applications"),
            Some(0),
            "order {order:?}: a component member was stubbed"
        );
        assert!(
            stubbed.structurally_eq(&full),
            "order {order:?}: differs from full descent\n{stubbed}\n{full}"
        );
        assert_eq!(stubbed.decisions.len(), 2, "f and h are planned, g is not");
    }
}

/// `plan.summary.merge_visits` after planning `source` with summaries on.
fn merge_visits(source: &str) -> u64 {
    let prog = sct_lang::compile_program(source).unwrap();
    let reg = Arc::new(Registry::new());
    let cfg = PlanConfig {
        obs: PlanObs::registered(reg.clone()),
        ..PlanConfig::default()
    };
    plan_program(&prog, &cfg);
    let snap = reg.snapshot();
    assert!(
        snap.counter("plan.summary.stubbed_applications").unwrap() > 0,
        "no summary was stubbed"
    );
    snap.counter("plan.summary.merge_visits")
        .expect("the counter is registered")
}

/// A layered corpus only ever stubs summaries whose graph sets belong to
/// their own defines, so merging them walks nothing, in either order.
#[test]
fn layered_corpus_merges_without_walking_summaries() {
    let source = sct_bench::layered_corpus(1000, 7, 0);
    let reversed = permute_defines(&source, |k| (0..k).rev().collect()).unwrap();
    for (tag, s) in [("source order", &source), ("reversed", &reversed)] {
        assert_eq!(merge_visits(s), 0, "{tag}");
    }
}

/// An exploration that descends into another define's recursion (`cnt`
/// is only summarized for naturals, and `f`'s first rung passes it any
/// value) owns a foreign set, so its merge walks the summaries it
/// stubbed — and still plans exactly as full descent does.
#[test]
fn a_foreign_set_makes_the_merge_walk() {
    let source = "(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))
                  (define (cnt n) (if (zero? n) 0 (cnt (- n 1))))
                  (define (f l x) (+ (len l) (cnt x)))";
    assert!(merge_visits(source) > 0);
    assert_modes_agree(source, &PlanConfig::default(), "foreign");
}
