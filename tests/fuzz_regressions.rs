//! Replay of pinned fuzzer counterexamples.
//!
//! Every `.sct` file in `tests/fuzz_regressions/` is auto-discovered and
//! replayed through the oracle-free invariant harness
//! ([`sct_fuzz::check_consistency`]): VM ≡ reference walker under three
//! monitored configurations, warm re-plan ≡ cold plan, no fuel
//! exhaustion under monitoring, no blame on unconditionally discharged
//! functions, and no refutation of a program whose monitored run
//! completes cleanly.
//!
//! The directory convention (see ARCHITECTURE.md): whenever the fuzzer
//! finds a violation, its *minimized* counterexample is committed here —
//! alongside the fix — and pinned forever. File names describe the shape
//! (`machine-mismatch-seed42.sct`, `apply1.sct`, …); a leading `;`
//! comment says what broke and when. Regression sources must *apply*
//! what they define: a defined-but-never-called refuted function is
//! rejected eagerly by design, which the clean-completion check here
//! would misread as a false refutation.

use sct_fuzz::{check_consistency, FuzzConfig};
use std::path::PathBuf;

fn regressions_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fuzz_regressions")
}

#[test]
fn every_pinned_counterexample_replays_clean() {
    let dir = regressions_dir();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "sct"))
        .collect();
    entries.sort();
    assert!(
        entries.len() >= 3,
        "expected the seeded regressions in {}, found {entries:?}",
        dir.display()
    );
    let cfg = FuzzConfig::default();
    let mut failures = Vec::new();
    for path in &entries {
        let source = std::fs::read_to_string(path).expect("readable regression");
        for v in check_consistency(&source, &cfg) {
            failures.push(format!("{}: {v}", path.display()));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

/// The seeded shapes keep their *semantic* pins, not just consistency:
/// apply1 must still be blamed dynamically, and the two Isabelle shapes
/// must still complete monitored with their known values.
#[test]
fn seeded_shapes_keep_their_verdicts() {
    let dir = regressions_dir();
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).expect("seeded regression");
    let apply1 = sct_contracts::run_monitored(&read("apply1.sct"));
    assert!(
        matches!(&apply1, Err(sct_contracts::EvalError::Sc(info)) if info.function == "apply1"),
        "apply1: {apply1:?}"
    );
    let bar = sct_contracts::run_monitored(&read("isabelle-bar.sct")).expect("bar terminates");
    assert_eq!(bar.to_write_string(), "3");
    let poly = sct_contracts::run_monitored(&read("isabelle-poly.sct")).expect("poly terminates");
    assert_eq!(poly.to_write_string(), "14");

    // The megamorphic tower keeps its value: five distinct callees
    // through one generic site and a mid-run `set!` of one of them.
    let mega = read("mega-set-rebind.sct");
    let prog = sct_contracts::lang::compile_program(&mega).expect("mega compiles");
    let mut m = sct_contracts::Machine::new(
        &prog,
        sct_contracts::MachineConfig::monitored(sct_contracts::TableStrategy::Imperative),
    );
    let v = m.run().expect("mega terminates");
    assert_eq!(v.to_write_string(), "346");
}
