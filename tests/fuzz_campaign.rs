//! The budgeted soundness campaign, end to end: `sct fuzz --seed 1
//! --cases 500 --budget-ms 60000 --out fuzz-out` must run every case,
//! find no violation, exercise every schema and oracle polarity, and split
//! its plans exactly as pinned. CI runs this test against the release
//! binary; a failing campaign leaves its minimized counterexamples in
//! `fuzz-out/` at the repository root for the artifact upload.

use sct_core::json::{parse, Json};
use std::process::Command;

fn count(summary: &Json, path: &[&str]) -> u64 {
    let mut v = summary;
    for key in path {
        v = v
            .get(key)
            .unwrap_or_else(|| panic!("summary has no {path:?}: {summary:?}"));
    }
    v.as_u64()
        .unwrap_or_else(|| panic!("{path:?} is not a count: {v:?}"))
}

#[test]
fn seed_1_campaign_is_clean_and_plans_the_pinned_split() {
    let out = Command::new(env!("CARGO_BIN_EXE_sct"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args("fuzz --seed 1 --cases 500 --budget-ms 60000 --out fuzz-out".split(' '))
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit {:?}\n{stderr}", out.status);
    let last = stdout.lines().last().expect("a summary line");
    let summary = parse(last).unwrap_or_else(|e| panic!("{e:?}: {last}"));

    assert_eq!(
        summary.get("schema").and_then(Json::as_str),
        Some("sct-fuzz/1")
    );
    assert_eq!(count(&summary, &["seed"]), 1);
    assert_eq!(count(&summary, &["requested"]), 500);
    assert_eq!(
        count(&summary, &["ran"]),
        500,
        "the budget cut the run short"
    );
    assert_eq!(count(&summary, &["violations"]), 0, "{stderr}");
    assert_eq!(
        count(&summary, &["violation_kinds", "plan-nondeterminism"]),
        0
    );
    assert!(count(&summary, &["oracles", "diverging"]) > 0);
    let Some(Json::Obj(schemas)) = summary.get("schemas") else {
        panic!("no schema counts: {last}");
    };
    assert!(
        schemas
            .iter()
            .all(|(_, n)| n.as_u64().is_some_and(|n| n > 0)),
        "a schema never ran: {last}"
    );
    assert!(count(&summary, &["schemas", "mega"]) > 0);
    assert!(count(&summary, &["mutations", "set-rebind"]) > 0);
    // The whole lattice's verdicts over the 500 cases: a planner change
    // that moves any of them shows here first.
    let split = ["static", "monitor", "refuted"].map(|k| count(&summary, &["plan", k]));
    assert_eq!(split, [1377, 441, 40], "plan split moved: {last}");
}
