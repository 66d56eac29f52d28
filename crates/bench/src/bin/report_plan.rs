//! Contract-summary scaling driver: generates layered call-DAG corpora
//! (every `define` a single-parameter list recursion that also applies a
//! few defines from the layer below), plans each corpus with verified
//! contract summaries on and off, and reports the scaling trajectory.
//! The result is recorded as `BENCH_plan.json` at the repo root (schema
//! `sct-plan-bench/1`):
//!
//! ```json
//! {
//!   "schema": "sct-plan-bench/1",
//!   "fast": false, "layers": 6, "fanout": 3, "seed": 7, "reps": 3,
//!   "corpora": [
//!     { "defines": 1000, "compile_ms": 12.0,
//!       "cold_full_ms": 1234.5, "cold_summary_ms": 56.7,
//!       "speedup": 21.8,
//!       "warm_ms": 12.3, "incremental_ms": 4.5,
//!       "incremental_misses": 9,
//!       "summary_hits": 1000, "summary_misses": 0,
//!       "stubbed_applications": 2500,
//!       "static_summary": 1000, "static_full": 1000 }
//!   ]
//! }
//! ```
//!
//! One entry per corpus size. `compile_ms` is the best of `reps` runs of
//! the front end (`sct_lang::compile_program`: parse, desugar, resolve)
//! on the corpus. `cold_full_ms` is a fresh plan with full
//! body descent (`summaries: false`, no store), `cold_summary_ms` the
//! same fresh plan with summary stubbing on — the tentpole number;
//! `speedup` is their ratio (`null` for sizes where the full-descent
//! pass was skipped as too slow, in which case `cold_full_ms` is `null`
//! too). `warm_ms` replans the unchanged corpus against a store populated
//! by a prior summaries-on pass (every decision a content-address hit,
//! every summary replayed — `summary_hits`/`summary_misses` are the
//! `plan.summary.*` counters from that run). `incremental_ms` edits one
//! base-layer helper and replans warm: exactly the edited define and its
//! transitive dependents miss (`incremental_misses`).
//! `stubbed_applications` counts callee applications answered by a
//! summary during the cold summaries-on pass. `static_*` are the
//! discharged-decision counts per mode — on this corpus the summary mode
//! is *stronger*, not just faster: whole-body descent of a
//! multiple-callee body trips the executor's recursive-value kind check
//! at the `Any` rung and falls to a vacuous guarded discharge, while the
//! modular proof discharges at `Any` with real size-change graphs (the
//! pinned strictly-stronger class — see
//! `stub_proofs_are_never_weaker_than_descent` in `sct-symbolic`).
//!
//! Sub-quadratic check: `cold_summary_ms` must grow no worse than
//! `defines^1.5` across successive corpus sizes — with summaries each
//! define's exploration is local (its own body plus one stub per
//! callee), so whole-program planning is near-linear; without them the
//! per-define cost multiplies through the callee closure. A full run is
//! also checked for near-linear `compile_ms` (below `defines^1.25`) and
//! `warm_ms` (below `defines^1.5`) growth; `sct_bench::check_plan_json`
//! holds every rule.
//!
//! Run: `cargo run --release -p sct-bench --bin report_plan
//! [--fast] [--out PATH]`
//!
//! `--fast` is the CI smoke mode (64/128-define corpora, 1 rep).
//! `--check PATH` runs no sweep: it validates the document at `PATH`
//! (a fast one when `--fast` is given too) and exits 0 (valid) or 1
//! (invalid).

use sct_bench::{layered_corpus, FANOUT, LAYERS};
use sct_contracts::{plan_program_incremental, PlanCache, PlanConfig};
use sct_core::plan::EnforcementPlan;
use sct_lang::ast::Program;
use sct_obs::Registry;
use sct_symbolic::{NullStore, PlanObs};
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 7;

fn cfg_with(summaries: bool, reg: &Arc<Registry>) -> PlanConfig {
    PlanConfig {
        summaries,
        obs: PlanObs::registered(reg.clone()),
        ..PlanConfig::default()
    }
}

fn counter(reg: &Registry, name: &str) -> u64 {
    reg.snapshot().counter(name).unwrap_or(0)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

struct Row {
    defines: usize,
    compile_ms: f64,
    cold_full_ms: Option<f64>,
    cold_summary_ms: f64,
    warm_ms: f64,
    incremental_ms: f64,
    incremental_misses: usize,
    summary_hits: u64,
    summary_misses: u64,
    stubbed_applications: u64,
    static_summary: usize,
    static_full: Option<usize>,
}

fn time_plan(
    prog: &Program,
    cfg: &PlanConfig,
    store: &mut dyn sct_symbolic::DecisionStore,
) -> (f64, EnforcementPlan, usize) {
    let t = Instant::now();
    let (plan, stats) = plan_program_incremental(prog, cfg, &mut PlanCache::new(), store);
    (t.elapsed().as_secs_f64() * 1e3, plan, stats.misses())
}

fn measure(n: usize, reps: usize, skip_full: bool) -> Row {
    let src = layered_corpus(n, SEED, 0);
    let prog = sct_lang::compile_program(&src).expect("generated corpus compiles");

    // The front end alone, best of `reps`.
    let compile_ms = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(sct_lang::compile_program(&src).unwrap());
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min);

    // Cold, summaries on, no store: the tentpole number. The stub counter
    // comes from the last rep's registry.
    let mut cold_summary = Vec::new();
    let mut stubbed = 0;
    let mut static_summary = 0;
    for _ in 0..reps {
        let reg = Arc::new(Registry::new());
        let (ms, plan, _) = time_plan(&prog, &cfg_with(true, &reg), &mut NullStore);
        cold_summary.push(ms);
        stubbed = counter(&reg, "plan.summary.stubbed_applications");
        static_summary = plan.count("static");
    }

    // Cold, full descent, no store: the baseline the summaries replace.
    let (cold_full_ms, static_full) = if skip_full {
        (None, None)
    } else {
        let reg = Arc::new(Registry::new());
        let (ms, plan, _) = time_plan(&prog, &cfg_with(false, &reg), &mut NullStore);
        (Some(ms), Some(plan.count("static")))
    };

    // Warm: populate a MemStore once (unmeasured), then replan the
    // unchanged corpus — every decision hits, every summary replays.
    let mut store = sct_cache::MemStore::new();
    let reg = Arc::new(Registry::new());
    time_plan(&prog, &cfg_with(true, &reg), &mut store);
    let mut warm = Vec::new();
    let mut summary_hits = 0;
    let mut summary_misses = 0;
    for _ in 0..reps {
        let reg = Arc::new(Registry::new());
        let (ms, _, misses) = time_plan(&prog, &cfg_with(true, &reg), &mut store);
        assert_eq!(misses, 0, "warm replay must hit every decision");
        warm.push(ms);
        summary_hits = counter(&reg, "plan.summary.hits");
        summary_misses = counter(&reg, "plan.summary.misses");
    }

    // Incremental: edit f0's base constant, replan against the warm
    // store. Exactly f0 and its transitive dependents miss.
    let edited = sct_lang::compile_program(&layered_corpus(n, SEED, 1)).unwrap();
    let reg = Arc::new(Registry::new());
    let (incremental_ms, _, incremental_misses) =
        time_plan(&edited, &cfg_with(true, &reg), &mut store);
    assert!(
        incremental_misses > 0 && incremental_misses < n,
        "the edit must invalidate some but not all defines \
         ({incremental_misses} of {n} missed)"
    );

    Row {
        defines: n,
        compile_ms,
        cold_full_ms,
        cold_summary_ms: median(cold_summary),
        warm_ms: median(warm),
        incremental_ms,
        incremental_misses,
        summary_hits,
        summary_misses,
        stubbed_applications: stubbed,
        static_summary,
        static_full,
    }
}

fn json_num(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.3}"),
        None => "null".into(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    if let Some(path) = flag_value("--check") {
        let verdict = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| sct_bench::check_plan_json(&text, fast));
        match verdict {
            Ok(summary) => println!("{path}: {summary}"),
            Err(why) => {
                eprintln!("{path}: {why}");
                std::process::exit(1);
            }
        }
        return;
    }
    let out_path = flag_value("--out")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(sct_bench::plan_json_path);

    let (sizes, reps): (&[usize], usize) = if fast {
        (&[64, 128], 1)
    } else {
        (&[1000, 3000, 10000], 3)
    };

    println!("contract-summary scaling (layers={LAYERS}, fanout={FANOUT}, reps={reps})\n");
    println!(
        "{:>8} {:>10} {:>14} {:>16} {:>9} {:>10} {:>13} {:>8} {:>9}",
        "defines",
        "compile",
        "cold full",
        "cold summaries",
        "speedup",
        "warm",
        "incremental",
        "misses",
        "stubs"
    );

    let mut rows = Vec::new();
    for &n in sizes {
        let row = measure(n, reps, false);
        let speedup = row.cold_full_ms.map(|f| f / row.cold_summary_ms);
        println!(
            "{:>8} {:>10} {:>14} {:>16} {:>9} {:>10} {:>13} {:>8} {:>9}",
            row.defines,
            format!("{:.1}ms", row.compile_ms),
            row.cold_full_ms
                .map(|v| format!("{v:.1}ms"))
                .unwrap_or_else(|| "—".into()),
            format!("{:.1}ms", row.cold_summary_ms),
            speedup
                .map(|v| format!("{v:.1}x"))
                .unwrap_or_else(|| "—".into()),
            format!("{:.1}ms", row.warm_ms),
            format!("{:.1}ms", row.incremental_ms),
            row.incremental_misses,
            row.stubbed_applications,
        );
        rows.push(row);
    }

    // Machine-readable trajectory document.
    let mut doc = String::new();
    doc.push_str("{\n");
    doc.push_str("  \"schema\": \"sct-plan-bench/1\",\n");
    doc.push_str(&format!("  \"fast\": {fast},\n"));
    doc.push_str(&format!(
        "  \"layers\": {LAYERS},\n  \"fanout\": {FANOUT},\n  \"seed\": {SEED},\n  \"reps\": {reps},\n"
    ));
    doc.push_str("  \"corpora\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let speedup = r.cold_full_ms.map(|f| f / r.cold_summary_ms);
        doc.push_str(&format!(
            "    {{ \"defines\": {}, \"compile_ms\": {:.3}, \"cold_full_ms\": {}, \
             \"cold_summary_ms\": {:.3}, \
             \"speedup\": {}, \"warm_ms\": {:.3}, \"incremental_ms\": {:.3}, \
             \"incremental_misses\": {}, \"summary_hits\": {}, \"summary_misses\": {}, \
             \"stubbed_applications\": {}, \"static_summary\": {}, \"static_full\": {} }}{}\n",
            r.defines,
            r.compile_ms,
            json_num(r.cold_full_ms),
            r.cold_summary_ms,
            json_num(speedup),
            r.warm_ms,
            r.incremental_ms,
            r.incremental_misses,
            r.summary_hits,
            r.summary_misses,
            r.stubbed_applications,
            r.static_summary,
            r.static_full
                .map(|v| v.to_string())
                .unwrap_or_else(|| "null".into()),
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    doc.push_str("  ]\n}\n");
    std::fs::write(&out_path, &doc).expect("write BENCH_plan.json");
    println!("\nwrote {}", out_path.display());
}
