//! Smoke test for the `docs/GUIDE.md` transcripts: every CLI session the
//! guide shows is replayed against the real binary and the shown output
//! asserted (up to values that legitimately vary, like microsecond
//! timings). A drift between the guide and the implementation fails CI.

use std::path::Path;
use std::process::{Command, Output};

fn sct(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sct"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawning sct")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn guide_examples_exist() {
    for f in [
        "ack.sct",
        "spin.sct",
        "sum.sct",
        "pair.sct",
        "pair-edit.sct",
        "iterate.sct",
    ] {
        let p = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("examples/guide")
            .join(f);
        assert!(p.exists(), "guide example missing: {}", p.display());
    }
}

/// §2 of the guide: `sct run` and `sct monitor` on ack.
#[test]
fn guide_dynamic_ack() {
    let run = sct(&["run", "examples/guide/ack.sct"]);
    assert!(run.status.success(), "{}", stderr(&run));
    assert_eq!(stdout(&run).trim(), "9");

    let mon = sct(&["monitor", "examples/guide/ack.sct"]);
    assert!(mon.status.success(), "{}", stderr(&mon));
    assert_eq!(stdout(&mon).trim(), "9");
    assert!(
        stderr(&mon).contains("applications=44 monitored=44 checks=44"),
        "guide counters drifted: {}",
        stderr(&mon)
    );
}

/// §2: the labeled diverging program is stopped with blame at the second
/// application.
#[test]
fn guide_dynamic_spin_blamed() {
    let mon = sct(&["monitor", "examples/guide/spin.sct"]);
    assert!(!mon.status.success());
    let err = stderr(&mon);
    assert!(err.contains("applications=2"), "{err}");
    assert!(
        err.contains("idempotent with no self-descending arc in calls to spin"),
        "{err}"
    );
    assert!(err.contains("blaming spin.sct"), "{err}");
}

/// §3: static verification of ack with the Figure 9 graph count.
#[test]
fn guide_static_verify_ack() {
    let v = sct(&["verify", "examples/guide/ack.sct", "ack", "nat,nat -> nat"]);
    assert!(v.status.success(), "{}", stderr(&v));
    assert_eq!(stdout(&v).trim(), "verified (ack: 2 graphs)");
}

/// §4: hybrid on sum — statically discharged, zero checks at run time.
#[test]
fn guide_hybrid_sum_discharged() {
    let h = sct(&["hybrid", "examples/guide/sum.sct"]);
    assert!(h.status.success(), "{}", stderr(&h));
    assert_eq!(stdout(&h).trim(), "5000050000");
    let err = stderr(&h);
    assert!(
        err.contains("plan: 1 static, 0 monitored, 0 refuted"),
        "{err}"
    );
    assert!(
        err.contains("monitored=0 checks=0 static-skips=100001"),
        "guide counters drifted: {err}"
    );

    // The plain monitor pays for every one of those calls.
    let mon = sct(&["monitor", "examples/guide/sum.sct"]);
    assert!(
        stderr(&mon).contains("monitored=100001 checks=100001"),
        "{}",
        stderr(&mon)
    );
}

/// §5, "Observability" subsection: `--metrics` prints the registry
/// snapshot after the answer, and the counter values the guide shows
/// replay deterministically — exact step, skip, rung, and fuel counts.
#[test]
fn guide_hybrid_metrics_replays_deterministically() {
    let h = sct(&["hybrid", "examples/guide/sum.sct", "--metrics"]);
    assert!(h.status.success(), "{}", stderr(&h));
    // The answer stays on stdout; the snapshot is stderr diagnostics.
    assert_eq!(stdout(&h).trim(), "5000050000");
    let err = stderr(&h);
    for line in [
        "; metric plan.defines 1",
        "; metric plan.fuel_used 30",
        "; metric plan.rung.nat.attempts 1",
        "; metric plan.rung.nat.discharged 1",
        "; metric vm.runs 1",
        "; metric vm.applications 100001",
        "; metric vm.static_skips 100001",
        "; metric vm.steps 800011",
        "; metric vm.checks 0",
        "; metric plan.define_us.count 1",
    ] {
        assert!(
            err.contains(line),
            "guide metric drifted, wanted {line:?} in: {err}"
        );
    }
    // The metrics print after the answer's own diagnostics: a consumer
    // can split the stream at the first `; metric`.
    let first_metric = err.find("; metric").expect("metric lines present");
    assert!(
        err[..first_metric].contains("; plan: 100001 static skips"),
        "snapshot must follow the standard report: {err}"
    );

    // Without the flag, nothing changes — no metric lines at all.
    let plain = sct(&["hybrid", "examples/guide/sum.sct"]);
    assert!(!stderr(&plain).contains("; metric"), "{}", stderr(&plain));

    // `sct run --metrics` snapshots the fully dynamic regime: every ack
    // application monitored and checked, pinned to the guide's counts.
    let r = sct(&["run", "examples/guide/ack.sct", "--metrics"]);
    assert!(r.status.success(), "{}", stderr(&r));
    assert_eq!(stdout(&r).trim(), "9");
    let err = stderr(&r);
    for line in [
        "; metric vm.monitored_calls 44",
        "; metric vm.checks 44",
        "; metric vm.steps 450",
        "; metric vm.max_kont_depth 18",
    ] {
        assert!(
            err.contains(line),
            "guide metric drifted, wanted {line:?} in: {err}"
        );
    }
}

/// §4: the `--plan` document, with the nat guard the guide explains.
#[test]
fn guide_hybrid_plan_json() {
    let p = sct(&["hybrid", "examples/guide/sum.sct", "--plan"]);
    assert!(p.status.success(), "{}", stderr(&p));
    let json = stdout(&p);
    let lines: Vec<&str> = json.lines().collect();
    assert_eq!(lines.len(), 2, "{json}");
    assert_eq!(
        lines[0], "{\"schema\":\"sct-plan/3\",\"functions\":[",
        "{json}"
    );
    assert!(
        lines[1].starts_with(
            "{\"name\":\"sum\",\"lambda\":0,\"decision\":\"static\",\"guard\":[\"nat\",\"nat\"],\
             \"covers\":[],\"blame\":null,\"detail\":\"verified (sum: 1 graphs)\",\"micros\":"
        ) && lines[1].ends_with("}]}"),
        "{json}"
    );
}

/// §4: the `--dump-ir` listing — the plan-directed IR with the `nat nat`
/// guard baked into both `sum` call sites, exactly as the guide shows.
#[test]
fn guide_hybrid_dump_ir() {
    let d = sct(&["hybrid", "examples/guide/sum.sct", "--dump-ir"]);
    assert!(d.status.success(), "{}", stderr(&d));
    let ir = stdout(&d);
    assert!(
        ir.contains("1 templates, 3 consts, 2 sites (1 specialized), plan-directed"),
        "{ir}"
    );
    assert!(
        ir.contains("lambda 0 (sum; params 2, frame 2, captures [])"),
        "{ir}"
    );
    assert!(
        ir.matches("site=guarded(lambda 0 [nat nat])").count() == 2,
        "both sum call sites carry the inline guard: {ir}"
    );
    assert!(ir.contains("tail-call"), "{ir}");
    assert!(
        ir.contains("load-local+call-prim") && ir.contains("const+call-prim"),
        "the guide shows the fused superinstructions: {ir}"
    );
}

/// §5 of the guide: the edit → incremental re-plan loop. Replays the
/// three-command transcript verbatim — cold (2 misses), warm (2 hits),
/// and the one-define edit (exactly 1 miss) — against a fresh cache dir.
#[test]
fn guide_incremental_replan_loop() {
    let cache_dir = std::env::temp_dir().join(format!("sct-guide-cache-{}", std::process::id()));
    std::fs::remove_dir_all(&cache_dir).ok();
    let dir = cache_dir.to_str().unwrap();

    let cold = sct(&["hybrid", "examples/guide/pair.sct", "--cache-dir", dir]);
    assert!(cold.status.success(), "{}", stderr(&cold));
    assert_eq!(stdout(&cold).trim(), "6");
    let err = stderr(&cold);
    assert!(err.contains("cache: 0 hits, 2 misses"), "{err}");
    assert!(
        err.contains("plan: 2 static, 0 monitored, 0 refuted"),
        "{err}"
    );
    assert!(
        err.contains("applications=8 monitored=0 checks=0 static-skips=8"),
        "guide counters drifted: {err}"
    );

    let warm = sct(&["hybrid", "examples/guide/pair.sct", "--cache-dir", dir]);
    assert!(
        stderr(&warm).contains("cache: 2 hits, 0 misses"),
        "warm run must be pure hits: {}",
        stderr(&warm)
    );

    let edited = sct(&["hybrid", "examples/guide/pair-edit.sct", "--cache-dir", dir]);
    assert!(edited.status.success(), "{}", stderr(&edited));
    assert_eq!(stdout(&edited).trim(), "10");
    assert!(
        stderr(&edited).contains("cache: 1 hits, 1 misses"),
        "editing one define must re-verify exactly one: {}",
        stderr(&edited)
    );

    std::fs::remove_dir_all(&cache_dir).ok();
}

/// `--metrics` with `--cache-dir`: the store counts into the same
/// per-invocation registry as the planner and the VM, once per event.
#[test]
fn guide_cache_dir_metrics_count_store_traffic() {
    let cache_dir = std::env::temp_dir().join(format!("sct-guide-metrics-{}", std::process::id()));
    std::fs::remove_dir_all(&cache_dir).ok();
    let dir = cache_dir.to_str().unwrap();
    let args = [
        "hybrid",
        "examples/guide/pair.sct",
        "--cache-dir",
        dir,
        "--metrics",
    ];
    let cold = sct(&args);
    assert!(cold.status.success(), "{}", stderr(&cold));
    let err = stderr(&cold);
    for line in ["; metric cache.misses 2", "; metric cache.stores 2"] {
        assert!(err.contains(line), "wanted {line:?} in: {err}");
    }
    let warm = sct(&args);
    let err = stderr(&warm);
    for line in ["; metric cache.hits 2", "; metric cache.stores 0"] {
        assert!(err.contains(line), "wanted {line:?} in: {err}");
    }
    std::fs::remove_dir_all(&cache_dir).ok();
}

/// `--cache-dir` with `--plan`: a cold run then a warm one. The warm run
/// is pure hits, and the store holds exactly one `sct-plan/3` entry per
/// define, each `static` and carrying its contract summary, with no
/// sidecar files.
#[test]
fn guide_cache_round_trip_entries() {
    use sct_core::json::{parse, Json};
    let cache_dir = std::env::temp_dir().join(format!("sct-guide-entries-{}", std::process::id()));
    std::fs::remove_dir_all(&cache_dir).ok();
    let dir = cache_dir.to_str().unwrap();
    let args = [
        "hybrid",
        "examples/guide/pair.sct",
        "--cache-dir",
        dir,
        "--plan",
    ];
    let cold = sct(&args);
    assert!(cold.status.success(), "{}", stderr(&cold));
    assert!(
        stderr(&cold).contains("cache: 0 hits, 2 misses"),
        "{}",
        stderr(&cold)
    );
    let warm = sct(&args);
    assert!(warm.status.success(), "{}", stderr(&warm));
    assert!(
        stderr(&warm).contains("cache: 2 hits, 0 misses"),
        "{}",
        stderr(&warm)
    );

    let doc = parse(&stdout(&warm)).expect("--plan prints JSON");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("sct-plan/3"));
    assert_eq!(
        doc.get("functions")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(2)
    );

    let files: Vec<_> = std::fs::read_dir(&cache_dir)
        .unwrap()
        .flatten()
        .filter(|shard| shard.path().is_dir())
        .flat_map(|shard| std::fs::read_dir(shard.path()).unwrap().flatten())
        .map(|f| f.path())
        .collect();
    let has_ext = |p: &Path, ext: &str| p.extension().is_some_and(|e| e == ext);
    assert!(!files.iter().any(|p| has_ext(p, "sum")), "{files:?}");
    let entries: Vec<_> = files.iter().filter(|p| has_ext(p, "plan")).collect();
    assert_eq!(entries.len(), 2, "{files:?}");
    let mut names = Vec::new();
    for path in entries {
        let entry = parse(&std::fs::read_to_string(path).unwrap()).expect("entry is JSON");
        assert_eq!(
            entry.get("schema").and_then(Json::as_str),
            Some("sct-plan/3")
        );
        assert_eq!(entry.get("decision").and_then(Json::as_str), Some("static"));
        assert!(entry.get("covers_idx").is_some() && entry.get("detail").is_some());
        // sum and len are both recursive: each entry carries its summary.
        let summary = entry.get("summary").expect("a contract summary");
        assert!(summary.get("guard").is_some() && summary.get("graphs").is_some());
        names.push(
            entry
                .get("name")
                .and_then(Json::as_str)
                .unwrap()
                .to_string(),
        );
    }
    names.sort();
    assert_eq!(names, ["len", "sum"]);
    std::fs::remove_dir_all(&cache_dir).ok();
}

/// §5: the `sct serve` one-liner — a stdio plan request answers with the
/// embedded sct-plan/3 plan document and cold-miss cache counters.
#[test]
fn guide_serve_stdio_transcript() {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_sct"))
        .arg("serve")
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning sct serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(
            b"{\"op\":\"plan\",\"source\":\"(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))\"}\n",
        )
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let line = String::from_utf8_lossy(&out.stdout);
    assert!(line.contains("\"ok\":true"), "{line}");
    assert!(line.contains("\"schema\":\"sct-plan/3\""), "{line}");
    assert!(
        line.contains("\"cache\":{\"hits\":0,\"misses\":1,\"warm\":false}"),
        "{line}"
    );
    assert!(line.contains("[[\"len\",false]]"), "{line}");
}

/// §4, "First-class call sites" subsection: the iterate transcript and
/// the `site=generic` IR annotation of its first-class `(f x)` site.
#[test]
fn guide_hybrid_pic_transcript() {
    let h = sct(&["hybrid", "examples/guide/iterate.sct"]);
    assert!(h.status.success(), "{}", stderr(&h));
    assert_eq!(stdout(&h).trim(), "1035");
    let err = stderr(&h);
    assert!(
        err.contains("applications=42 monitored=22 checks=22 static-skips=20"),
        "guide counters drifted: {err}"
    );

    let d = sct(&["hybrid", "examples/guide/iterate.sct", "--dump-ir"]);
    assert!(d.status.success(), "{}", stderr(&d));
    let ir = stdout(&d);
    assert!(
        ir.contains("site=generic\n"),
        "the (f x) site is first class: {ir}"
    );
}

/// §4: hybrid refutes spin before running, with the monitor's blame label.
#[test]
fn guide_hybrid_spin_refuted_eagerly() {
    let h = sct(&["hybrid", "examples/guide/spin.sct"]);
    assert!(!h.status.success());
    let err = stderr(&h);
    assert!(
        err.contains("plan: 0 static, 0 monitored, 1 refuted"),
        "{err}"
    );
    assert!(err.contains("blaming spin.sct"), "{err}");
    assert!(err.contains("(statically refuted before running)"), "{err}");
    // Refuted before running: no machine counters were printed.
    assert!(!err.contains("applications="), "{err}");
}
