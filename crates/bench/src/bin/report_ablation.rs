//! Ablation report for the §5 design choices: how each optimization and
//! configuration knob changes the cost and the check count of a fully
//! monitored tight loop.
//!
//! Run: `cargo run --release -p sct-bench --bin report_ablation`

use sct_core::monitor::{BackoffPolicy, KeyStrategy, MonitorConfig, TableStrategy};
use sct_interp::{Machine, MachineConfig, SemanticsMode, Value};
use sct_lang::compile_program;
use std::time::Instant;

const SUM: &str = "
(define (sum i acc) (if (zero? i) acc (sum (- i 1) (+ acc i))))";

fn measure(label: &str, config: MachineConfig, n: i64, base_ms: Option<f64>) -> f64 {
    let prog = compile_program(SUM).unwrap();
    let mut m = Machine::new(&prog, config);
    m.run().unwrap();
    let f = m.global("sum").unwrap();
    let start = Instant::now();
    let v = m.call(f, vec![Value::int(n), Value::int(0)]).unwrap();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(v, Value::int(n * (n + 1) / 2));
    let rel = base_ms.map(|b| ms / b).unwrap_or(1.0);
    println!(
        "{:<28} {:>10.2}ms {:>7.2}x   checks={:<8} monitored={:<8} max-kont={}",
        label, ms, rel, m.stats.checks, m.stats.monitored_calls, m.stats.max_kont_depth
    );
    ms
}

fn main() {
    let n = 50_000i64;
    println!("Ablations on (sum {n} 0), fully monitored\n");

    let unchecked = MachineConfig::standard();
    let base = measure("unchecked", unchecked, n, None);

    let monitored = MachineConfig {
        mode: SemanticsMode::Monitored,
        monitor: MonitorConfig::default(),
        ..MachineConfig::default()
    };
    measure("monitored (imperative)", monitored.clone(), n, Some(base));

    let mut cm = monitored.clone();
    cm.monitor.strategy = TableStrategy::ContinuationMark;
    measure("monitored (cont-mark)", cm, n, Some(base));

    let mut backoff = monitored.clone();
    backoff.monitor.backoff = BackoffPolicy::Exponential { factor: 2 };
    measure("  + exponential backoff", backoff.clone(), n, Some(base));

    let mut loops = monitored.clone();
    loops.monitor.loop_entries_only = true;
    measure("  + loop entries only", loops, n, Some(base));

    let mut both = backoff;
    both.monitor.loop_entries_only = true;
    measure("  + both", both, n, Some(base));

    let mut wl = monitored.clone();
    wl.monitor = wl.monitor.whitelisting("sum");
    measure("  + whitelist sum", wl, n, Some(base));

    let mut lam = monitored.clone();
    lam.monitor.key_strategy = KeyStrategy::LambdaOnly;
    measure("key: lambda-only", lam, n, Some(base));

    let mut alloc = monitored;
    alloc.monitor.key_strategy = KeyStrategy::Allocation;
    measure("key: allocation", alloc, n, Some(base));

    println!("\nthe key-strategy rows trade soundness/precision, not just speed:");
    println!("lambda-only spuriously rejects CPS code (§2.2), which structural keys accept:");
    println!("  crates/interp/tests/semantics.rs::len_cps_fails_if_closures_conflated,");
    println!("  tests/paper_claims.rs::section_2_2_cps_len;");
    println!("allocation keys miss Y-combinator divergence:");
    println!("  tests/paper_claims.rs::structural_keys_catch_y_combinator_divergence.");
}
