//! End-to-end incrementality: for a Figure-10-scale program, editing one
//! `define` re-verifies exactly that define — every untouched define is a
//! persisted-cache hit — and the warm plan is structurally identical to a
//! fresh one. Also pins the committed `BENCH_fig10.json` planning
//! trajectory: warm planning must be measurably faster than cold. And
//! `sct serve` plans a program exactly as the CLI does, under any number
//! of concurrent requests, cold or warm, so the daemon and the CLI can
//! share a cache.

use sct_contracts::core::json::{parse, Json};
use sct_contracts::core::plan_codec::{decode_entry, encode_plan, PortableDecision};
use sct_contracts::symbolic::{DecisionStore, NullStore, PlanObs};
use sct_contracts::{plan_program, DiskCache, PlanConfig, ServeOptions, Server};
use sct_fuzz::{permute_defines, Rng};
use sct_obs::Registry;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "sct-incr-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A fig10-scale program: the sweep's direct workloads side by side —
/// factorial, sum, Ackermann, and merge-sort with its helper stack — plus
/// a couple of independent list functions. 10 defines.
fn fig10_scale(sum_body_constant: i64) -> String {
    format!(
        "(define (fact n) (if (zero? n) 1 (* n (fact (- n 1)))))
         (define (sum i acc) (if (zero? i) (+ acc {sum_body_constant}) (sum (- i 1) (+ acc i))))
         (define (ack m n)
           (cond [(= 0 m) (+ 1 n)]
                 [(= 0 n) (ack (- m 1) 1)]
                 [else (ack (- m 1) (ack m (- n 1)))]))
         (define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))
         (define (take l n) (if (or (zero? n) (null? l)) '() (cons (car l) (take (cdr l) (- n 1)))))
         (define (drop l n) (if (or (zero? n) (null? l)) l (drop (cdr l) (- n 1))))
         (define (merge a b)
           (cond [(null? a) b]
                 [(null? b) a]
                 [(< (car a) (car b)) (cons (car a) (merge (cdr a) b))]
                 [else (cons (car b) (merge a (cdr b)))]))
         (define (msort l)
           (if (or (null? l) (null? (cdr l)))
               l
               (let ([half (quotient (len l) 2)])
                 (merge (msort (take l half)) (msort (drop l half))))))
         (define (rev-app l acc) (if (null? l) acc (rev-app (cdr l) (cons (car l) acc))))
         (define (last l) (if (null? (cdr l)) (car l) (last (cdr l))))"
    )
}

#[test]
fn editing_one_define_reverifies_exactly_that_define() {
    let dir = scratch_dir("edit");
    let cfg = PlanConfig::default();

    // Cold: everything misses and lands on disk.
    let before = sct_lang::compile_program(&fig10_scale(0)).unwrap();
    let mut disk = DiskCache::open(&dir).unwrap();
    let (cold_plan, cold) = plan_program(&before, &cfg, &mut disk);
    assert_eq!((cold.hits(), cold.misses()), (0, 10), "{cold:?}");

    // Unchanged replay: all hits, structurally the same plan.
    let (warm_plan, warm) = plan_program(&before, &cfg, &mut disk);
    assert_eq!((warm.hits(), warm.misses()), (10, 0), "{warm:?}");
    assert!(cold_plan.structurally_eq(&warm_plan));

    // Edit exactly one define (sum's base constant). Nothing references
    // sum, so exactly sum must re-verify; the other nine defines hit even
    // though every λ id after sum shifted in the recompile.
    let after = sct_lang::compile_program(&fig10_scale(1)).unwrap();
    let (edited_plan, edited) = plan_program(&after, &cfg, &mut disk);
    assert_eq!((edited.hits(), edited.misses()), (9, 1), "{edited:?}");
    assert_eq!(edited.missed_names(), vec!["sum"], "{edited:?}");

    // The edited program's warm plan equals its fresh plan.
    let (fresh_plan, _) = plan_program(&after, &cfg, &mut sct_symbolic::NullStore);
    assert!(edited_plan.structurally_eq(&fresh_plan));
    // And sum's decision survived the edit semantically: still discharged.
    assert_eq!(edited_plan.count("static"), cold_plan.count("static"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn editing_a_shared_helper_reverifies_its_dependents_only() {
    let dir = scratch_dir("helper");
    let cfg = PlanConfig::default();
    let before = fig10_scale(0);
    // `len` is read by `msort` (and by nothing else outside the msort
    // cluster): editing it must re-verify len + msort, not take/drop/
    // merge/fact/sum/ack/rev-app/last.
    let after = before.replace(
        "(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))",
        "(define (len l) (if (null? l) 1 (+ 1 (len (cdr l)))))",
    );
    assert_ne!(before, after);

    let mut disk = DiskCache::open(&dir).unwrap();
    let p1 = sct_lang::compile_program(&before).unwrap();
    plan_program(&p1, &cfg, &mut disk);

    let p2 = sct_lang::compile_program(&after).unwrap();
    let (_, stats) = plan_program(&p2, &cfg, &mut disk);
    assert_eq!(stats.missed_names(), vec!["len", "msort"], "{stats:?}");
    assert_eq!(stats.hits(), 8, "{stats:?}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reordering_the_defines_keeps_every_key() {
    // A key is a function of content, not of define order: a store warmed
    // in source order answers every decision of the same defines
    // reversed or shuffled, and the replayed plan equals a fresh one.
    let cfg = PlanConfig::default();
    let source = sct_bench::layered_corpus(200, 7, 0);
    let mut store = sct_cache::MemStore::new();
    let prog = sct_lang::compile_program(&source).unwrap();
    let (_, cold) = plan_program(&prog, &cfg, &mut store);
    assert_eq!(cold.misses(), 200, "{cold:?}");
    let mut orders = vec![(
        "reversed".to_string(),
        permute_defines(&source, |k| (0..k).rev().collect()).unwrap(),
    )];
    for seed in 1..=3u64 {
        let shuffled = permute_defines(&source, |k| {
            let mut order: Vec<usize> = (0..k).collect();
            Rng::new(seed).shuffle(&mut order);
            order
        });
        orders.push((format!("shuffle {seed}"), shuffled.unwrap()));
    }
    for (label, permuted) in orders {
        let prog = sct_lang::compile_program(&permuted).unwrap();
        let (warm_plan, warm) = plan_program(&prog, &cfg, &mut store);
        assert_eq!(
            (warm.hits(), warm.misses()),
            (200, 0),
            "{label}: missed {:?}",
            warm.missed_names()
        );
        let (fresh, _) = plan_program(&prog, &cfg, &mut NullStore);
        assert!(warm_plan.structurally_eq(&fresh), "{label}: replay drifted");
    }
}

#[test]
fn a_forward_reference_replays_the_plan_of_its_own_order() {
    // `a`'s initializer reads `b` before `b` is defined in order A, so it
    // fails there and `f`, which reads `a`, stays monitored; in order B
    // `b` comes first and `f` is static. The same defines in both orders
    // must not share `f`'s entry: a store warmed in order B replays order
    // A exactly as planning order A without a store does.
    let f = "(define (f x) (if (<= x 0) a (f (- x 1))))";
    for init in ["(define (g) b) (define a (g))", "(define a b)"] {
        let order_a = format!("{init}\n(define b 5)\n{f}\n(f 3)");
        let order_b = format!("(define b 5)\n{init}\n{f}\n(f 3)");
        let cfg = PlanConfig::default();
        let plan = |source: &str, store: &mut dyn DecisionStore| {
            let prog = sct_lang::compile_program(source).unwrap();
            plan_program(&prog, &cfg, store).0
        };
        let f_tag = |plan: &sct_contracts::EnforcementPlan| {
            let f = plan.decisions.iter().find(|d| d.name == "f").unwrap();
            f.decision.tag()
        };
        let storeless = plan(&order_a, &mut NullStore);
        assert_eq!(f_tag(&storeless), "monitor", "{init}");
        let mut store = sct_cache::MemStore::new();
        assert_eq!(f_tag(&plan(&order_b, &mut store)), "static", "{init}");
        let replayed = plan(&order_a, &mut store);
        assert!(
            replayed.structurally_eq(&storeless),
            "{init}: {replayed:?}\nvs {storeless:?}"
        );
    }
}

#[test]
fn an_unread_initializer_does_not_renumber_a_readers_atoms() {
    // `f`'s reason names an atom of its own exploration. An initializer
    // `f` does not read — one that fails, one that succeeds with an atom —
    // is outside `f`'s key, so it must not change that atom's name either:
    // a store warmed without it replays exactly what planning with it and
    // no store says.
    let f = "(define (f xs) (if (null? xs) 0 (f (cons 1 xs))))\n(f '())";
    let cfg = PlanConfig::default();
    let plan = |source: &str, store: &mut dyn DecisionStore| {
        let prog = sct_lang::compile_program(source).unwrap();
        plan_program(&prog, &cfg, store)
    };
    for unread in [
        "(define junk (flat/c number?))",
        "(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))\n(define n (len '(1 2 3)))",
    ] {
        let mut store = sct_cache::MemStore::new();
        let (alone, _) = plan(f, &mut store);
        assert!(
            alone.decisions[0].detail.contains("(cons 1 α0)"),
            "{alone:?}"
        );
        let with_unread = format!("{unread}\n{f}");
        let (storeless, _) = plan(&with_unread, &mut NullStore);
        let (replayed, stats) = plan(&with_unread, &mut store);
        assert!(stats.hits() >= 1, "{unread}: f's entry is shared");
        assert!(
            replayed.structurally_eq(&storeless),
            "{unread}: {replayed:?}\nvs {storeless:?}"
        );
    }
}

/// The layered corpus the slice-locality oracles plan, with its entry
/// call.
fn layered_program(n: usize) -> String {
    format!("{}\n(f0 '(1 2 3))", sct_bench::layered_corpus(n, 7, 0))
}

/// Cold-plans `source` into a fresh store and returns the entries by key,
/// with the planning time zeroed.
fn planned_entries(source: &str) -> HashMap<String, PortableDecision> {
    let prog = sct_lang::compile_program(source).unwrap();
    let mut store = sct_cache::MemStore::new();
    plan_program(&prog, &PlanConfig::default(), &mut store);
    store
        .entries()
        .iter()
        .map(|(key, entry)| {
            let entry = PortableDecision {
                micros: 0,
                ..entry.clone()
            };
            (key.clone(), entry)
        })
        .collect()
}

#[test]
fn adding_an_unrelated_define_keeps_every_other_key_and_decision() {
    // A define's key and decision depend only on what it reaches: adding
    // a define, λ or not, before or after the others, re-keys and
    // re-plans nothing else, and a warm store answers every old define.
    let corpus = layered_program(200);
    let base = planned_entries(&corpus);
    assert_eq!(base.len(), 200);
    for (extra, new_lambda) in [
        ("(define unrelated 5)", None),
        ("(define (unrel x) x)", Some("unrel")),
    ] {
        for source in [format!("{extra}\n{corpus}"), format!("{corpus}\n{extra}")] {
            let edited = planned_entries(&source);
            assert_eq!(edited.len(), 200 + usize::from(new_lambda.is_some()));
            for (key, entry) in &base {
                assert_eq!(edited.get(key), Some(entry), "{} drifted", entry.name);
            }
            let mut warm = sct_cache::MemStore::new();
            for (key, entry) in &base {
                warm.store(key, entry);
            }
            let prog = sct_lang::compile_program(&source).unwrap();
            let (_, stats) = plan_program(&prog, &PlanConfig::default(), &mut warm);
            assert_eq!(
                stats.hits(),
                200,
                "{extra}: missed {:?}",
                stats.missed_names()
            );
            assert_eq!(stats.missed_names(), Vec::from_iter(new_lambda), "{extra}");
        }
    }
}

#[test]
fn fuel_per_define_does_not_grow_with_program_size() {
    // An exploration starts from zero steps and draws fuel only for what
    // it reaches, so the mean fuel per define of two layered corpora
    // three times apart in size is the same, up to the layers' slightly
    // different proportions.
    let fuel_per_define = |n: usize| {
        let reg = Arc::new(Registry::new());
        let cfg = PlanConfig {
            obs: PlanObs::registered(reg.clone()),
            ..PlanConfig::default()
        };
        let prog = sct_lang::compile_program(&layered_program(n)).unwrap();
        plan_program(&prog, &cfg, &mut NullStore);
        let snapshot = reg.snapshot();
        let fuel = snapshot.counter("plan.fuel_used").unwrap();
        let defines = snapshot.counter("plan.defines").unwrap();
        assert_eq!(defines, n as u64);
        fuel as f64 / defines as f64
    };
    let (small, large) = (fuel_per_define(100), fuel_per_define(300));
    assert!(
        (small - large).abs() < 0.01 * small,
        "fuel per define {small:.2} at 100 defines vs {large:.2} at 300"
    );
}

#[test]
fn editing_a_helper_recomputes_exactly_its_dependents_summaries() {
    // Contract summaries ride inside the decision entries, so the same
    // invalidation frontier applies: editing `len` re-keys len
    // and its dependent msort. Of the two, only len is *summarizable*
    // (msort discharges vacuously under its Nat rung — no self-recursion
    // graphs survive, and only recursive Static defines carry a summary),
    // so exactly one new summary key must appear, and it must be len's.
    let cfg = PlanConfig::default();
    let mut store = sct_cache::MemStore::new();

    let before = sct_lang::compile_program(&fig10_scale(0)).unwrap();
    plan_program(&before, &cfg, &mut store);
    let summaries = |store: &sct_cache::MemStore| -> Vec<(String, String)> {
        store
            .entries()
            .iter()
            .filter_map(|(k, e)| Some((k.clone(), e.summary.as_ref()?.name.clone())))
            .collect()
    };
    let initial: std::collections::HashMap<String, String> =
        summaries(&store).into_iter().collect();
    // The fig10-scale program's summarizable defines: every recursive
    // Static one. (ack stays monitored; msort's discharge is vacuous.)
    let mut names: Vec<&str> = initial.values().map(String::as_str).collect();
    names.sort_unstable();
    assert_eq!(
        names,
        ["drop", "fact", "last", "len", "merge", "rev-app", "sum", "take"],
        "summarizable set drifted"
    );

    let after = sct_lang::compile_program(&fig10_scale(0).replace(
        "(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))",
        "(define (len l) (if (null? l) 1 (+ 1 (len (cdr l)))))",
    ))
    .unwrap();
    let (_, stats) = plan_program(&after, &cfg, &mut store);
    assert_eq!(stats.missed_names(), vec!["len", "msort"], "{stats:?}");
    let recomputed: Vec<String> = summaries(&store)
        .into_iter()
        .filter(|(k, _)| !initial.contains_key(k))
        .map(|(_, name)| name)
        .collect();
    assert_eq!(
        recomputed,
        vec!["len"],
        "exactly the edited helper's summary recomputes"
    );
}

/// The committed benchmark artifact must carry the planning trajectory:
/// schema `sct-fig10/6` with warm planning measurably faster than cold on
/// every workload (the number the persistence subsystem exists to win) —
/// and generic dispatch on the interpreter workloads' eval rows.
#[test]
fn committed_bench_artifact_pins_warm_planning_speedup() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_fig10.json");
    let text = std::fs::read_to_string(&path).expect("BENCH_fig10.json at the repo root");
    let doc = sct_contracts::core::json::parse(&text).expect("artifact parses");
    assert_eq!(
        doc.get("schema").and_then(|s| s.as_str()),
        Some("sct-fig10/6"),
        "schema drifted"
    );
    let planning = doc
        .get("planning")
        .and_then(|p| p.as_arr())
        .expect("planning array present");
    assert!(!planning.is_empty());
    for p in planning {
        let workload = p.get("workload").and_then(|w| w.as_str()).unwrap();
        let cold = p.get("plan_ms").and_then(|v| v.as_f64()).unwrap();
        let warm = p.get("plan_warm_ms").and_then(|v| v.as_f64()).unwrap();
        assert!(cold > 0.0 && warm > 0.0, "{workload}: non-positive timings");
        assert!(
            warm < cold,
            "{workload}: warm planning ({warm}ms) not faster than cold ({cold}ms)"
        );
    }
    // Every eval row counts its generic-site calls, and the
    // meta-circular interpreter workloads (the only ones with hot
    // first-class dispatch) have some.
    let evals = doc
        .get("eval")
        .and_then(|e| e.as_arr())
        .expect("eval array present");
    assert!(!evals.is_empty());
    for e in evals {
        let workload = e.get("workload").and_then(|w| w.as_str()).unwrap();
        let generic = e.get("generic_calls").and_then(|v| v.as_f64()).unwrap();
        if workload.starts_with("interp-") {
            assert!(generic > 0.0, "{workload}: no generic dispatch");
        }
    }
}

/// Every file under a cache directory's two-level layout.
fn files_under(dir: &std::path::Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .flat_map(|shard| std::fs::read_dir(shard.path()).unwrap().flatten())
        .map(|f| f.path())
        .collect()
}

/// An `sct-plan/3` plan document without its timing field.
fn untimed(doc: &Json) -> Vec<Json> {
    let functions = doc.get("functions").and_then(Json::as_arr).unwrap_or(&[]);
    functions
        .iter()
        .map(|f| match f {
            Json::Obj(members) => Json::Obj(
                members
                    .iter()
                    .filter(|(k, _)| k != "micros")
                    .cloned()
                    .collect(),
            ),
            other => other.clone(),
        })
        .collect()
}

#[test]
fn serve_plans_equal_the_cli_plan_under_concurrent_requests() {
    // A shuffled 60-define layered corpus: many callers precede their
    // callees in the source.
    let source = permute_defines(&sct_bench::layered_corpus(60, 11, 0), |k| {
        let mut order: Vec<usize> = (0..k).collect();
        Rng::new(5).shuffle(&mut order);
        order
    })
    .unwrap();
    let program = sct_lang::compile_program(&source).unwrap();
    let cfg = PlanConfig::default();
    let (cli, _) = plan_program(&program, &cfg, &mut NullStore);
    let expected = untimed(&parse(&encode_plan(&cli)).unwrap());
    let request = Json::Obj(vec![
        ("op".into(), Json::str("plan")),
        ("source".into(), Json::str(&source)),
    ])
    .to_string();
    for clients in [1, 2, 8] {
        let dir = scratch_dir(&format!("serve-{clients}"));
        let server = Server::new(ServeOptions {
            cache_dir: Some(dir.clone()),
            ..ServeOptions::default()
        })
        .unwrap();
        for warm in [false, true] {
            // Every client sends the same program at once.
            let start = Barrier::new(clients);
            let responses: Vec<String> = thread::scope(|s| {
                let handles: Vec<_> = (0..clients)
                    .map(|_| {
                        s.spawn(|| {
                            start.wait();
                            server.handle_line(&request).response.unwrap()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let mut warm_flags = Vec::new();
            for line in &responses {
                let response = parse(line).unwrap();
                assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{line}");
                let plan = response.get("plan").unwrap();
                assert!(
                    untimed(plan) == expected,
                    "{clients} clients, warm {warm}: serve plan differs from the CLI plan"
                );
                let cache = response.get("cache").unwrap();
                warm_flags.push(cache.get("warm") == Some(&Json::Bool(true)));
            }
            if warm {
                // Every define was persisted by the cold round.
                assert!(
                    warm_flags.iter().all(|&w| w),
                    "{clients} clients: {responses:?}"
                );
            } else {
                // Concurrent cold clients may hit what a faster one
                // stored, but someone planned every define.
                assert!(
                    !warm_flags.iter().all(|&w| w),
                    "{clients} clients: {responses:?}"
                );
            }
            // One entry per λ-define, summaries inside: no other file.
            let files = files_under(&dir);
            assert_eq!(files.len(), cli.decisions.len(), "{clients} clients");
            assert!(
                files
                    .iter()
                    .all(|f| f.extension().is_some_and(|e| e == "plan")),
                "{clients} clients: {files:?}"
            );
        }
        drop(server);
        let summarized = files_under(&dir)
            .iter()
            .filter(|f| {
                let text = std::fs::read_to_string(f).unwrap();
                decode_entry(&text).unwrap().summary.is_some()
            })
            .count();
        assert!(summarized > 0, "{clients} clients: no summaries persisted");
        // The CLI replays what the daemon persisted: every define hits,
        // every persisted summary rebinds, and the plan is the one it
        // would have computed itself.
        let reg = Arc::new(Registry::new());
        let warm_cfg = PlanConfig {
            obs: PlanObs::registered(reg.clone()),
            ..PlanConfig::default()
        };
        let mut disk = DiskCache::open(&dir).unwrap();
        let (replayed, stats) = plan_program(&program, &warm_cfg, &mut disk);
        assert_eq!(stats.misses(), 0, "{clients} clients");
        assert_eq!(
            reg.snapshot().counter("plan.summary.hits"),
            Some(summarized as u64),
            "{clients} clients"
        );
        assert!(replayed.structurally_eq(&cli), "{clients} clients");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
