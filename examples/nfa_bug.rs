//! §5.1.2's war story: a divergence bug that sat in a decades-old Scheme
//! benchmark because its standard input never triggered it. The static
//! checker flags the buggy `state1` without running it; the dynamic
//! monitor catches it instantly on a triggering input; and the *fixed*
//! version both verifies and runs.
//!
//! Run: `cargo run --example nfa_bug`

use sct_contracts::{PlanDomain, TableStrategy};
use sct_corpus::{diverging, run_dynamic, run_standard, table1};
use sct_symbolic::{verify_function, ExecConfig};

fn main() {
    let buggy = diverging::BUGGY_NFA;
    let fixed = table1::NFA;

    // Static: the bug is found without any input at all.
    let prog = sct_lang::compile_program(buggy.source).unwrap();
    let verdict = verify_function(
        &prog,
        "state1",
        &[PlanDomain::List],
        PlanDomain::Any,
        &ExecConfig::default(),
    );
    println!("static analysis of buggy state1: {verdict}");
    assert!(!verdict.is_verified());

    // Static: the fixed version verifies.
    let prog = sct_lang::compile_program(fixed.source).unwrap();
    let verdict = verify_function(
        &prog,
        "run-nfa",
        &[PlanDomain::List],
        PlanDomain::Any,
        &ExecConfig::default(),
    );
    println!("static analysis of fixed run-nfa: {verdict}");
    assert!(verdict.is_verified());

    // Dynamic: on the triggering input ("cbcd"), the monitor stops the
    // buggy automaton at once.
    let err = run_dynamic(&buggy, TableStrategy::Imperative).unwrap_err();
    println!("dynamic monitor on buggy nfa: {err}");

    // And the benchmark's historic input (a^133 bc) runs fine — which is
    // exactly why the bug survived for decades.
    let v = run_standard(&fixed, Some(50_000_000)).unwrap();
    println!("fixed nfa on a^133 bc: {v}");
}
