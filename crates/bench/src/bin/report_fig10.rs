//! Regenerates Figure 10: monitoring slowdown for Ackermann, factorial,
//! sum, and merge-sort — direct and interpreted — across input sizes,
//! under the three paper configurations (unchecked, continuation-mark,
//! imperative) plus the *hybrid* ablation (static pre-pass discharges
//! provably terminating functions; the monitor guards only the residual),
//! and records the sweep as `BENCH_fig10.json` at the repo root so future
//! PRs can track the performance trajectory (schema `sct-fig10/6` in the
//! `sct_bench` crate docs).
//!
//! The paper's absolute sizes targeted Racket on the authors' machine; the
//! sweep here uses scaled decades. The claims to check are the *shapes*:
//!
//! * factorial: overhead negligible (bignum work dominates);
//! * ack / sum: large overhead in tight loops — the monitor hot path laid
//!   bare, and the curves the graph-interning work is measured against;
//! * merge-sort: overhead from the order walk relating each call's list
//!   argument to its fixnum arguments. The walk is linear in the list and
//!   allocation-free, so the slowdown grows slowly with n: at the largest
//!   n it stays within 2× of the smallest (`tests/paper_claims.rs`);
//! * interpreted rows: the interpreter's own monitored calls multiply the
//!   cost but stay within a constant factor as input grows;
//! * hybrid: workloads the §4 verifier proves (fact, sum, ack) collapse
//!   to ~unchecked speed; residual workloads track the imperative curve.
//!
//! Run: `cargo run --release -p sct-bench --bin report_fig10 [--scale N]
//! [--reps N] [--fast] [--only ID] [--out PATH]`
//!
//! `--fast` is the CI smoke mode: smallest size per workload, one rep;
//! `--only ID` restricts the sweep to one workload (e.g. `--only ack`).
//! `--check PATH` runs no sweep: it validates an existing `sct-fig10/6`
//! document and exits 0 when it holds, 1 when it does not.

use sct_bench::{
    fig10_json, fig10_json_path, CompiledWorkload, EvalTiming, Fig10Entry, PlanTiming, Setup,
};
use sct_corpus::workloads;
use std::time::Duration;

/// Median cold/warm planning cost over `reps` measurements (each rep
/// plans from a fresh cache, then re-plans through it).
fn median_plan_cost(compiled: &CompiledWorkload, reps: usize) -> (Duration, Duration) {
    let mut colds = Vec::new();
    let mut warms = Vec::new();
    for _ in 0..reps.max(1) {
        let (cold, warm) = compiled.plan_cost_once();
        colds.push(cold);
        warms.push(warm);
    }
    colds.sort_unstable();
    warms.sort_unstable();
    (colds[colds.len() / 2], warms[warms.len() / 2])
}

fn sizes_for(id: &str, scale: u64, fast: bool) -> Vec<u64> {
    let base: &[u64] = match id {
        "fact" => &[200, 400, 800, 1600],
        "sum" => &[2_000, 8_000, 32_000, 128_000],
        "ack" => &[40, 80, 160, 320],
        "msort" => &[200, 400, 800, 1600],
        "interp-fact" => &[60, 120, 240, 480],
        "interp-sum" => &[100, 200, 400, 800],
        "interp-msort" => &[64, 128, 256, 512],
        _ => &[100, 200],
    };
    let take = if fast { 1 } else { base.len() };
    base.iter().take(take).map(|n| n * scale).collect()
}

/// Median of `reps` timed runs per setup, with the setups *interleaved*:
/// each rep times all four setups back-to-back before the next rep
/// starts. A transient load burst on the host then inflates the same
/// rep of every column rather than one setup's whole block, so the
/// slowdown *ratios* — the numbers the figure is about — stay stable on
/// noisy machines even when absolute times wander.
fn median_times(compiled: &CompiledWorkload, n: u64, reps: usize) -> [Duration; 4] {
    const SETUPS: [Setup; 4] = [
        Setup::Unchecked,
        Setup::ContinuationMark,
        Setup::Imperative,
        Setup::Hybrid,
    ];
    let mut times: [Vec<Duration>; 4] = [vec![], vec![], vec![], vec![]];
    for _ in 0..reps.max(1) {
        for (i, &setup) in SETUPS.iter().enumerate() {
            times[i].push(compiled.run_once(n, setup).0);
        }
    }
    times.map(|mut t| {
        t.sort_unstable();
        t[t.len() / 2]
    })
}

/// The unchecked-baseline evaluator row: reference tree-walker vs. the
/// flat-IR VM at the workload's largest sweep size (median of `reps`).
/// The generic-call count comes from one *hybrid* run at the same size:
/// generic sites are only told apart while monitoring is active, so the
/// unchecked timing runs cannot observe them.
fn eval_timing(compiled: &CompiledWorkload, n: u64, reps: usize) -> EvalTiming {
    let mut vm: Vec<(Duration, u64)> = (0..reps.max(1))
        .map(|_| {
            let (d, stats) = compiled.run_once(n, Setup::Unchecked);
            (d, stats.steps)
        })
        .collect();
    let mut reference: Vec<Duration> = (0..reps.max(1))
        .map(|_| compiled.run_once_reference(n).0)
        .collect();
    vm.sort_unstable_by_key(|(d, _)| *d);
    reference.sort_unstable();
    let (vm_t, vm_steps) = vm[vm.len() / 2];
    let ref_t = reference[reference.len() / 2];
    let (_, hybrid_stats) = compiled.run_once(n, Setup::Hybrid);
    EvalTiming {
        workload: compiled.workload.id,
        n,
        reference_ns: ref_t.as_nanos(),
        vm_ns: vm_t.as_nanos(),
        speedup: ref_t.as_secs_f64() / vm_t.as_secs_f64().max(1e-9),
        steps_per_sec: vm_steps as f64 / vm_t.as_secs_f64().max(1e-9),
        generic_calls: hybrid_stats.generic_calls,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag_value = |name: &str| -> Option<&String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    if let Some(path) = flag_value("--check") {
        let verdict = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| sct_bench::check_fig10_json(&text));
        match verdict {
            Ok(summary) => println!("{path}: {summary}"),
            Err(why) => {
                eprintln!("{path}: {why}");
                std::process::exit(1);
            }
        }
        return;
    }
    let fast = args.iter().any(|a| a == "--fast");
    let scale: u64 = flag_value("--scale")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let reps: usize = flag_value("--reps")
        .and_then(|s| s.parse().ok())
        .unwrap_or(if fast { 1 } else { 3 });
    let out_path = flag_value("--out")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(fig10_json_path);
    let only = flag_value("--only").cloned();
    if let Some(id) = &only {
        let known: Vec<&str> = workloads::fig10().iter().map(|w| w.id).collect();
        if !known.contains(&id.as_str()) {
            eprintln!("unknown workload {id:?}; expected one of {known:?}");
            std::process::exit(2);
        }
    }

    let mut entries: Vec<Fig10Entry> = Vec::new();
    let mut planning: Vec<PlanTiming> = Vec::new();
    let mut eval: Vec<EvalTiming> = Vec::new();
    println!("Figure 10 — slowdown of monitoring (times in ms; slowdown vs unchecked)\n");
    for w in workloads::fig10() {
        if only.as_deref().is_some_and(|id| id != w.id) {
            continue;
        }
        let label = w.label;
        let id = w.id;
        let compiled = CompiledWorkload::new(w);
        let (plan_cold, plan_warm) = median_plan_cost(&compiled, reps);
        planning.push(PlanTiming {
            workload: id,
            plan_ms: plan_cold.as_secs_f64() * 1e3,
            plan_warm_ms: plan_warm.as_secs_f64() * 1e3,
        });
        println!("== {label} ==");
        println!(
            "   plan: {}   (pre-pass: cold {}, warm {})",
            compiled.plan,
            sct_bench::fmt_ms(plan_cold),
            sct_bench::fmt_ms(plan_warm)
        );
        println!(
            "{:>10} {:>12} {:>16} {:>9} {:>16} {:>9} {:>16} {:>9}",
            "n", "unchecked", "cont-mark", "x", "imperative", "x", "hybrid", "x"
        );
        let sizes = sizes_for(id, scale, fast);
        for &n in &sizes {
            let [t_unchecked, t_cm, t_imp, t_hyb] = median_times(&compiled, n, reps);
            let base = t_unchecked.as_secs_f64().max(1e-9);
            for (setup, t) in [
                (Setup::Unchecked, t_unchecked),
                (Setup::ContinuationMark, t_cm),
                (Setup::Imperative, t_imp),
                (Setup::Hybrid, t_hyb),
            ] {
                entries.push(Fig10Entry {
                    workload: id,
                    setup: setup.label(),
                    n,
                    median_ns: t.as_nanos(),
                    slowdown: t.as_secs_f64() / base,
                });
            }
            println!(
                "{:>10} {:>12} {:>16} {:>8.1}x {:>16} {:>8.1}x {:>16} {:>8.1}x",
                n,
                sct_bench::fmt_ms(t_unchecked),
                sct_bench::fmt_ms(t_cm),
                t_cm.as_secs_f64() / base,
                sct_bench::fmt_ms(t_imp),
                t_imp.as_secs_f64() / base,
                sct_bench::fmt_ms(t_hyb),
                t_hyb.as_secs_f64() / base,
            );
        }
        // The evaluator row: reference walker vs. VM, unchecked, at the
        // largest size — plus the VM's dispatch throughput.
        let n_eval = *sizes.last().expect("at least one size");
        let e = eval_timing(&compiled, n_eval, reps);
        println!(
            "   eval (n={}): reference {}  vm {}  speedup {:.2}x  ({:.1}M steps/s)  \
             {} generic calls",
            e.n,
            sct_bench::fmt_ms(Duration::from_nanos(e.reference_ns as u64)),
            sct_bench::fmt_ms(Duration::from_nanos(e.vm_ns as u64)),
            e.speedup,
            e.steps_per_sec / 1e6,
            e.generic_calls,
        );
        eval.push(e);
        println!();
    }
    println!("paper shape check: factorial ~1x; ack/sum/msort overhead large and");
    println!(
        "roughly flat in n (constant factor), continuation-mark >= imperative on tight loops."
    );
    println!("hybrid shape check: statically discharged workloads (fact, sum, ack) ~1x;");
    println!("residual workloads track the imperative curve.");

    println!("planning shape check: plan_warm_ms well under plan_ms on every workload");
    println!("(the memoized pre-pass is what `sct serve` and `--cache-dir` amortize).");
    println!("eval shape check: the flat-IR VM beats the reference tree-walker on the");
    println!("unchecked baseline of every workload (the PR 5 dispatch-loop win).");

    let json = fig10_json(&entries, &planning, &eval, fast, scale, reps);
    std::fs::write(&out_path, &json)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", out_path.display()));
    println!(
        "\nwrote {} entries to {}",
        entries.len(),
        out_path.display()
    );
}
