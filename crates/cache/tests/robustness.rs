//! Cache robustness: a hit must be indistinguishable from a fresh
//! computation, and *nothing* on disk may ever crash the planner or leak
//! a stale decision.
//!
//! The property test drives randomly assembled programs (terminating,
//! refuted, opaque, helper-calling, and `set!`-tainted defines in random
//! combinations) through `plan_program_incremental` twice — cold into an
//! empty store, then warm out of it — and asserts the warm plan is
//! structurally equal to the cold one with every define a hit. The
//! regression tests then vandalize the on-disk entries in every way the
//! codec guards against (truncation, corruption, version skew) and assert
//! the planner silently recomputes the same plan.

use proptest::prelude::*;
use sct_cache::{DiskCache, MemStore};
use sct_core::plan_codec::decode_entry;
use sct_lang::compile_program;
use sct_symbolic::{plan_program_incremental, NullStore, PlanCache, PlanConfig, PlanObs};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "sct-robustness-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// One generated `define` (or helper pair), chosen from the
/// decision-relevant shapes: discharged (guarded and unconditional),
/// refuted (blamed and bare), opaque, and helper-calling.
fn define_src(i: usize, choice: u8, k: u64, b: i64, labeled: bool) -> String {
    let name = |tag: &str| format!("{tag}{i}");
    match choice % 6 {
        // Nat-guarded discharge.
        0 => format!(
            "(define ({f} x) (if (zero? x) 0 ({f} (- x {k}))))",
            f = name("count")
        ),
        // Unconditional structural discharge.
        1 => format!(
            "(define ({f} l) (if (null? l) 0 (+ 1 ({f} (cdr l)))))",
            f = name("len")
        ),
        // Two-parameter accumulator.
        2 => format!(
            "(define ({f} i acc) (if (zero? i) (+ acc {b}) ({f} (- i 1) (+ acc i))))",
            f = name("sum")
        ),
        // Statically refuted self-loop, with and without blame.
        3 => {
            if labeled {
                format!(
                    "(define {f} (terminating/c (lambda (x) ({f} x)) \"party-{i}\"))",
                    f = name("spin")
                )
            } else {
                format!("(define ({f} x) ({f} x))", f = name("spin"))
            }
        }
        // Opaque higher-order application: stays monitored.
        4 => format!("(define ({f} g x) (g x))", f = name("call")),
        // A helper and a function descending through it.
        _ => format!(
            "(define ({h} x) (- x {k}))
             (define ({f} x) (if (zero? x) 0 ({f} ({h} x))))",
            h = name("dec"),
            f = name("via")
        ),
    }
}

/// A program: 1–6 generated defines, optionally with a trailing `set!`
/// taint on the first one.
fn program_strategy() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec((0u8..6, 1u64..4, 0i64..10, any::<bool>()), 1..6),
        any::<bool>(),
    )
        .prop_map(|(specs, taint)| {
            let mut src = specs
                .iter()
                .enumerate()
                .map(|(i, &(c, k, b, l))| define_src(i, c, k, b, l))
                .collect::<Vec<_>>()
                .join("\n");
            if taint {
                // Taint whatever global happens to be defined first; its
                // dependents must stay monitored — and must *cache* as
                // monitored, identically cold and warm.
                if let Some(first) = first_defined_name(&src) {
                    src.push_str(&format!("\n(set! {first} (lambda (x) x))"));
                }
            }
            src
        })
}

fn first_defined_name(src: &str) -> Option<String> {
    let after = src.split("(define ").nth(1)?;
    let after = after.strip_prefix('(').unwrap_or(after);
    let name: String = after
        .chars()
        .take_while(|c| !c.is_whitespace() && *c != ')' && *c != '(')
        .collect();
    (!name.is_empty()).then_some(name)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Warm replay out of a `MemStore` is structurally identical to the
    /// cold computation, and matches a from-scratch plan with no store at
    /// all — for every decision shape the planner can produce.
    #[test]
    fn cache_hit_equals_fresh_plan(src in program_strategy()) {
        let program = compile_program(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));
        let cfg = PlanConfig::default();
        let mut store = MemStore::new();
        let (cold, s1) =
            plan_program_incremental(&program, &cfg, &mut PlanCache::new(), &mut store);
        prop_assert_eq!(s1.hits(), 0, "first pass must be all misses: {}", src);
        let (warm, s2) =
            plan_program_incremental(&program, &cfg, &mut PlanCache::new(), &mut store);
        prop_assert_eq!(s2.misses(), 0, "second pass must be all hits: {}", src);
        prop_assert!(cold.structurally_eq(&warm), "warm differs from cold:\n{}", src);
        let (fresh, _) =
            plan_program_incremental(&program, &cfg, &mut PlanCache::new(), &mut NullStore);
        prop_assert!(fresh.structurally_eq(&warm), "warm differs from storeless:\n{}", src);
    }

    /// The same property through the real on-disk store, across two
    /// separate cache handles (two "processes").
    #[test]
    fn disk_hit_equals_fresh_plan(src in program_strategy()) {
        let dir = scratch_dir("prop");
        let program = compile_program(&src).unwrap();
        let cfg = PlanConfig::default();
        let (cold, s1) = plan_program_incremental(
            &program, &cfg, &mut PlanCache::new(), &mut DiskCache::open(&dir).unwrap());
        prop_assert_eq!(s1.hits(), 0);
        let (warm, s2) = plan_program_incremental(
            &program, &cfg, &mut PlanCache::new(), &mut DiskCache::open(&dir).unwrap());
        prop_assert_eq!(s2.misses(), 0, "cross-handle pass must be all hits:\n{}", src);
        prop_assert!(cold.structurally_eq(&warm), "{}", src);
        fs::remove_dir_all(&dir).ok();
    }
}

const PROGRAM: &str = "(define (inc x) (+ x 1))
    (define (sum i acc) (if (zero? i) acc (sum (- i 1) (+ acc i))))
    (define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))
    (define spin (terminating/c (lambda (x) (spin x)) \"spin-party\"))";

/// Plans `PROGRAM` through a `DiskCache` at `dir`, returning the plan and
/// (hits, misses).
fn plan_disk(
    dir: &PathBuf,
) -> (
    sct_cache::DiskCache,
    sct_core::plan::EnforcementPlan,
    usize,
    usize,
) {
    let program = compile_program(PROGRAM).unwrap();
    let mut disk = DiskCache::open(dir).unwrap();
    let (plan, stats) = plan_program_incremental(
        &program,
        &PlanConfig::default(),
        &mut PlanCache::new(),
        &mut disk,
    );
    let (h, m) = (stats.hits(), stats.misses());
    (disk, plan, h, m)
}

/// Applies `vandalize` to every entry file in the cache — each a `.plan`
/// carrying its define's decision and, when it has one, its contract
/// summary — returning how many entries were touched.
fn vandalize_entries(dir: &PathBuf, vandalize: impl Fn(&str) -> Option<String>) -> usize {
    let mut touched = 0;
    for shard in fs::read_dir(dir).unwrap().flatten() {
        for file in fs::read_dir(shard.path()).unwrap().flatten() {
            let path = file.path();
            assert!(
                path.extension().is_some_and(|e| e == "plan"),
                "only entries may exist: {path:?}"
            );
            let text = fs::read_to_string(&path).unwrap();
            match vandalize(&text) {
                Some(new_text) => fs::write(&path, new_text).unwrap(),
                None => fs::remove_file(&path).unwrap(),
            }
            touched += 1;
        }
    }
    touched
}

/// The shared regression shape: populate, vandalize every entry, re-plan.
/// Must not crash, must recompute everything (no stale decisions — the
/// vandalized bytes can never be decoded), and must produce a plan
/// structurally equal to the original.
fn assert_recovers(tag: &str, vandalize: impl Fn(&str) -> Option<String>) {
    let dir = scratch_dir(tag);
    let (_, baseline, h0, m0) = plan_disk(&dir);
    assert_eq!((h0, m0), (0, 4), "{tag}: cold run shape");
    let touched = vandalize_entries(&dir, vandalize);
    assert_eq!(touched, 4, "{tag}: all four entries should exist on disk");
    let (disk, replanned, h1, m1) = plan_disk(&dir);
    assert_eq!((h1, m1), (0, 4), "{tag}: every vandalized entry must miss");
    assert!(
        baseline.structurally_eq(&replanned),
        "{tag}: recomputed plan differs"
    );
    assert!(disk.stats().rejected > 0 || tag == "deleted", "{tag}");
    // And the rewritten entries serve hits again afterwards.
    let (_, _, h2, m2) = plan_disk(&dir);
    assert_eq!((h2, m2), (4, 0), "{tag}: cache must heal after recompute");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_entries_fall_back_to_recompute() {
    assert_recovers("truncated", |text| Some(text[..text.len() / 2].to_string()));
}

#[test]
fn corrupt_entries_fall_back_to_recompute() {
    assert_recovers("corrupt", |text| {
        Some(text.replace("\"decision\"", "\"dec!sion\""))
    });
}

#[test]
fn binary_garbage_falls_back_to_recompute() {
    assert_recovers("garbage", |_| {
        Some("\u{0}\u{1}\u{2}not json at all".to_string())
    });
}

#[test]
fn version_mismatch_falls_back_to_recompute() {
    // Both a downgrade and an upgrade of the schema tag must be treated
    // as foreign: never a stale replay from a different codec version.
    assert_recovers("version-old", |text| {
        Some(text.replace("sct-plan/3", "sct-plan/2"))
    });
    assert_recovers("version-new", |text| {
        Some(text.replace("sct-plan/3", "sct-plan/4"))
    });
}

#[test]
fn deleted_entries_fall_back_to_recompute() {
    assert_recovers("deleted", |_| None);
}

/// A summary lives and dies with its entry: tearing an entry that carries
/// one quarantines both together, the recompute republishes both, and the
/// healed cache replays every summary the cold run stored.
#[test]
fn torn_summarized_entry_is_quarantined_with_its_summary() {
    let dir = scratch_dir("torn-summary");
    let (disk, ..) = plan_disk(&dir);
    let summarized: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .flat_map(|shard| fs::read_dir(shard.path()).unwrap().flatten())
        .map(|f| f.path())
        .filter(|p| {
            decode_entry(&fs::read_to_string(p).unwrap())
                .unwrap()
                .summary
                .is_some()
        })
        .collect();
    assert_eq!(summarized.len(), 2, "sum and len carry summaries");
    let text = fs::read_to_string(&summarized[0]).unwrap();
    fs::write(&summarized[0], &text[..text.len() / 2]).unwrap();
    drop(disk);

    let (disk, _, h1, m1) = plan_disk(&dir);
    assert_eq!((h1, m1), (3, 1), "only the torn entry recomputes");
    let s = disk.stats();
    assert_eq!((s.rejected, s.quarantined), (1, 1), "{s:?}");
    assert_eq!(disk.quarantine_count(), 1);

    let reg = std::sync::Arc::new(sct_obs::Registry::new());
    let cfg = PlanConfig {
        obs: PlanObs::registered(reg.clone()),
        ..PlanConfig::default()
    };
    let (_, stats) = plan_program_incremental(
        &compile_program(PROGRAM).unwrap(),
        &cfg,
        &mut PlanCache::new(),
        &mut DiskCache::open(&dir).unwrap(),
    );
    assert_eq!(stats.misses(), 0);
    let snap = reg.snapshot();
    assert_eq!(
        snap.counter("plan.summary.hits"),
        Some(summarized.len() as u64)
    );
    fs::remove_dir_all(&dir).ok();
}

/// Config changes must re-key (miss), not replay decisions computed under
/// other knobs — a "stale plan" in the configuration dimension.
#[test]
fn config_change_never_replays_old_decisions() {
    let dir = scratch_dir("config");
    let program = compile_program(PROGRAM).unwrap();
    let mut disk = DiskCache::open(&dir).unwrap();
    let (_, s1) = plan_program_incremental(
        &program,
        &PlanConfig::default(),
        &mut PlanCache::new(),
        &mut disk,
    );
    assert_eq!(s1.misses(), 4);
    let no_refute = PlanConfig {
        refute: false,
        ..PlanConfig::default()
    };
    let (plan, s2) =
        plan_program_incremental(&program, &no_refute, &mut PlanCache::new(), &mut disk);
    assert_eq!(s2.hits(), 0, "different config must never hit");
    assert_eq!(plan.count("refuted"), 0, "refute=false must hold");
    fs::remove_dir_all(&dir).ok();
}
