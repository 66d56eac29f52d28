//! Chaos suite: the serve daemon under deterministic fault injection.
//!
//! Every test arms `sct-faults` failpoints and asserts the daemon's
//! robustness invariants instead of a happy path:
//!
//! * the daemon survives every armed failpoint — no request is left
//!   unanswered, no wedge, no cascading death;
//! * a planning panic is detected immediately (the answer arrives in
//!   under a second, not after the 300 s reply timeout) and the next
//!   request plans normally on a fresh thread;
//! * a stalled planner holds up only its own request, never another
//!   client's;
//! * deadline-degraded decisions are always `monitor`, never `static`,
//!   and never persisted under content keys — a later unfaulted replay
//!   self-heals to the real verdict;
//! * the disk cache self-heals after torn and failed writes, counting
//!   the corrupt entries it quarantines.
//!
//! The failpoint registry is process-global, so in-process tests
//! serialize on [`SERIAL`]. `SCT_CHAOS_SEED` (CI runs several values)
//! varies the deterministic fault schedule of the probabilistic test.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use sct_contracts::serve::{ServeOptions, Server};
use sct_core::json::{parse, Json};

/// Serializes tests that arm the process-global failpoint registry.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed chaos test must not wedge the rest of the suite.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Seed for the probabilistic schedules; CI sweeps several values.
fn chaos_seed() -> u64 {
    std::env::var("SCT_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "sct-chaos-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn respond(server: &Server, line: &str) -> Json {
    let out = server.handle_line(line);
    let response = out
        .response
        .unwrap_or_else(|| panic!("no response to {line}"));
    parse(&response).unwrap_or_else(|e| panic!("unparseable response {response}: {e}"))
}

fn ok(doc: &Json) -> bool {
    doc.get("ok").and_then(Json::as_bool) == Some(true)
}

fn error_text(doc: &Json) -> &str {
    doc.get("error").and_then(Json::as_str).unwrap_or("")
}

fn stat(doc: &Json, group: &str, key: &str) -> i64 {
    doc.get(group)
        .and_then(|g| g.get(key))
        .and_then(Json::as_i64)
        .unwrap_or_else(|| panic!("stats missing {group}.{key}: {doc:?}"))
}

/// Every planned function in a response, as `(decision, detail)`.
fn decisions(doc: &Json) -> Vec<(String, String)> {
    doc.get("plan")
        .and_then(|p| p.get("functions"))
        .and_then(Json::as_arr)
        .map(|fns| {
            fns.iter()
                .map(|f| {
                    (
                        f.get("decision")
                            .and_then(Json::as_str)
                            .unwrap()
                            .to_string(),
                        f.get("detail")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                    )
                })
                .collect()
        })
        .unwrap_or_default()
}

/// The ladder invariant: any decision degraded by a deadline must be
/// `monitor` — never `static`, never `refuted`.
fn assert_degraded_never_static(doc: &Json) {
    for (decision, detail) in decisions(doc) {
        if detail.starts_with("planning deadline exceeded") || detail.contains("worker lost") {
            assert_eq!(
                decision, "monitor",
                "degraded decision must be monitor, got {decision} ({detail})"
            );
        }
    }
}

// Two statically verifiable defines → two cache keys per pass, both
// expected to plan `static` when no fault interferes.
const COUNTDOWN: &str =
    "(define (decA n) (if (zero? n) 0 (decA (- n 1)))) (define (decB n) (if (zero? n) 0 (decB (- n 1))))";

fn plan_line(source: &str) -> String {
    format!(r#"{{"op":"plan","source":"{source}"}}"#)
}

/// A panic on the planning thread drops its reply sender: the request
/// answers immediately with a distinct error (not after the 300 s reply
/// timeout), and the next request plans normally on a fresh thread.
#[test]
fn worker_death_answers_fast_and_pool_respawns() {
    let _lock = serial();
    let server = Server::new(ServeOptions::default()).unwrap();
    let _armed = sct_faults::scoped("serve.plan=panic*1").unwrap();

    let started = Instant::now();
    let doc = respond(&server, &plan_line(COUNTDOWN));
    let elapsed = started.elapsed();
    assert!(!ok(&doc), "a planning panic is an error, got {doc:?}");
    assert!(
        error_text(&doc).contains("planning thread panicked"),
        "distinct planning-panic error, got: {}",
        error_text(&doc)
    );
    assert!(
        elapsed < Duration::from_secs(1),
        "a planning panic must be detected immediately, took {elapsed:?}"
    );

    let doc = respond(&server, &plan_line(COUNTDOWN));
    assert!(ok(&doc), "the next request must plan normally: {doc:?}");
    assert!(
        decisions(&doc).iter().all(|(d, _)| d == "static"),
        "{doc:?}"
    );
    let stats = respond(&server, r#"{"op":"stats"}"#);
    assert_eq!(stat(&stats, "requests", "plan"), 2, "{stats:?}");
}

/// A panic just before execution, after the plan was delivered, drops
/// the serving thread's execution sender: the request answers at once
/// with a distinct error, and the next request — whose plan the
/// panicked one already stored — runs normally and plans warm.
#[test]
fn execution_panic_answers_fast_then_recovers() {
    let _lock = serial();
    let server = Server::new(ServeOptions::default()).unwrap();
    let line = format!(r#"{{"op":"hybrid","source":"{COUNTDOWN} (decA 10)"}}"#);

    {
        let _armed = sct_faults::scoped("serve.execute=panic*1").unwrap();
        let started = Instant::now();
        let doc = respond(&server, &line);
        let elapsed = started.elapsed();
        assert!(!ok(&doc), "an execution panic is an error, got {doc:?}");
        assert!(
            error_text(&doc).contains("execution thread panicked"),
            "distinct execution-panic error, got: {}",
            error_text(&doc)
        );
        assert!(
            elapsed < Duration::from_secs(1),
            "an execution panic must be detected immediately, took {elapsed:?}"
        );
    }

    let doc = respond(&server, &line);
    assert!(ok(&doc), "the next request must run normally: {doc:?}");
    assert_eq!(
        doc.get("value").and_then(Json::as_str),
        Some("0"),
        "{doc:?}"
    );
    assert_eq!(
        doc.get("cache").and_then(|c| c.get("warm")),
        Some(&Json::Bool(true)),
        "the panicked request's plan was stored: {doc:?}"
    );
}

/// A panic deep inside a planning job — in the middle of a cache store,
/// while the planning thread holds the daemon's shared store lock —
/// answers fast with the planning-panic error, and the daemon recovers
/// in place: the poisoned lock is taken over, the next request plans and
/// persists normally, and the one after it replays warm from disk.
#[test]
fn panic_inside_a_job_is_recovered_in_place() {
    let _lock = serial();
    let server = Server::new(ServeOptions {
        cache_dir: Some(scratch("job-panic")),
        ..ServeOptions::default()
    })
    .unwrap();

    {
        let _armed = sct_faults::scoped("cache.store.dir=panic*1").unwrap();
        let started = Instant::now();
        let doc = respond(&server, &plan_line(COUNTDOWN));
        assert!(!ok(&doc), "a panic mid-store is an error, got {doc:?}");
        assert!(
            error_text(&doc).contains("planning thread panicked"),
            "got: {}",
            error_text(&doc)
        );
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    let doc = respond(&server, &plan_line(COUNTDOWN));
    assert!(
        ok(&doc),
        "the store must survive a panic under its lock: {doc:?}"
    );
    assert!(
        decisions(&doc).iter().all(|(d, _)| d == "static"),
        "{doc:?}"
    );
    let doc = respond(&server, &plan_line(COUNTDOWN));
    assert_eq!(
        doc.get("cache").and_then(|c| c.get("warm")),
        Some(&Json::Bool(true)),
        "the replan after the panic must have been persisted: {doc:?}"
    );
    // The panicked store wrote nothing; the replan stored both defines.
    let stats = respond(&server, r#"{"op":"stats"}"#);
    assert_eq!(stat(&stats, "cache", "stores"), 2, "{stats:?}");
    assert_eq!(stat(&stats, "cache", "quarantined"), 0, "{stats:?}");
}

/// One client's stalled plan must not delay another's: every request is
/// planned on a thread of its own, so client B answers while client A's
/// planner is still stalled, whatever `threads` says.
#[test]
fn stalled_plan_does_not_hold_up_other_clients() {
    let _lock = serial();
    let server = Arc::new(
        Server::new(ServeOptions {
            threads: 1,
            ..ServeOptions::default()
        })
        .unwrap(),
    );
    let _armed = sct_faults::scoped("serve.plan=stall-1500*1").unwrap();

    let a = {
        let server = Arc::clone(&server);
        thread::spawn(move || respond(&server, &plan_line(COUNTDOWN)))
    };
    // Let A's planner take the stall before B arrives.
    thread::sleep(Duration::from_millis(200));
    let b = {
        let server = Arc::clone(&server);
        thread::spawn(move || {
            let started = Instant::now();
            let doc = respond(
                &server,
                &plan_line("(define (other n) (if (zero? n) 0 (other (- n 1))))"),
            );
            (doc, started.elapsed())
        })
    };
    let (doc, elapsed) = b.join().expect("client B answers");
    assert!(ok(&doc), "client B must plan normally: {doc:?}");
    assert!(
        elapsed < Duration::from_secs(1),
        "client B must not wait behind A's stalled plan, took {elapsed:?}"
    );
    let doc = a.join().expect("client A answers");
    assert!(ok(&doc), "the stalled request still answers: {doc:?}");
}

/// A stalled planner pushes the request past its deadline: the response
/// arrives on time anyway, degraded to `monitor` (never `static`), and
/// is not persisted — the stalled planner's honest verdict still lands
/// in the store, and a replay self-heals to `static`.
#[test]
fn stalled_worker_degrades_on_deadline_then_selfheals() {
    let _lock = serial();
    let server = Server::new(ServeOptions::default()).unwrap();
    let _armed = sct_faults::scoped("serve.plan=stall-1200*1").unwrap();

    let started = Instant::now();
    let line = format!(r#"{{"op":"plan","source":"{COUNTDOWN}","deadline_ms":200}}"#);
    let doc = respond(&server, &line);
    let elapsed = started.elapsed();
    assert!(ok(&doc), "deadline degrades, never errors: {doc:?}");
    assert!(
        doc.get("degraded").and_then(Json::as_i64).unwrap_or(0) >= 1,
        "expected degraded decisions: {doc:?}"
    );
    assert_degraded_never_static(&doc);
    let all = decisions(&doc);
    assert!(
        all.iter().all(|(d, _)| d == "monitor"),
        "the stalled plan covers every define: {all:?}"
    );
    assert!(
        elapsed < Duration::from_secs(1),
        "deadline must bound the wait (200ms + grace), took {elapsed:?}"
    );

    // Self-heal: the degraded verdicts were never persisted, so an
    // unbounded replay (on a fresh planning thread, while the stalled
    // one may still sleep) is free to recompute the honest verdict —
    // not poisoned by a cached `monitor` — and its stores make the pass
    // after it fully warm.
    let doc = respond(&server, &plan_line(COUNTDOWN));
    assert!(ok(&doc), "{doc:?}");
    assert!(
        decisions(&doc).iter().all(|(d, _)| d == "static"),
        "replay after the stall self-heals to the honest verdict: {doc:?}"
    );
    let doc = respond(&server, &plan_line(COUNTDOWN));
    assert!(
        doc.get("cache")
            .and_then(|c| c.get("hits"))
            .and_then(Json::as_i64)
            .unwrap_or(0)
            >= 1,
        "the honest replan must have been persisted: {doc:?}"
    );
    let stats = respond(&server, r#"{"op":"stats"}"#);
    assert!(stat(&stats, "requests", "deadline_exceeded") >= 1);
}

/// Torn and failed cache writes through the daemon: requests keep
/// succeeding, the corrupt entry is quarantined on the next load, and
/// the store converges back to warm hits.
#[test]
fn disk_cache_selfheals_after_torn_writes() {
    let _lock = serial();
    let cache_dir = scratch("cache");
    let server = Server::new(ServeOptions {
        cache_dir: Some(cache_dir.clone()),
        ..ServeOptions::default()
    })
    .unwrap();

    // Every store of the first request writes only half its bytes.
    {
        let _armed = sct_faults::scoped("cache.store.write=torn").unwrap();
        let doc = respond(&server, &plan_line(COUNTDOWN));
        assert!(ok(&doc), "torn stores must not fail the request: {doc:?}");
        assert!(decisions(&doc).iter().all(|(d, _)| d == "static"));
    }

    // Unfaulted replay: the torn entries fail to decode, get renamed to
    // quarantine, and the functions are honestly replanned and stored.
    let doc = respond(&server, &plan_line(COUNTDOWN));
    assert!(ok(&doc), "{doc:?}");
    assert!(decisions(&doc).iter().all(|(d, _)| d == "static"));
    let stats = respond(&server, r#"{"op":"stats"}"#);
    assert!(
        stat(&stats, "cache", "quarantined") >= 1,
        "torn entries must be quarantined: {stats:?}"
    );

    // Third pass: the healed store answers from disk.
    let doc = respond(&server, &plan_line(COUNTDOWN));
    assert!(
        doc.get("cache")
            .and_then(|c| c.get("hits"))
            .and_then(Json::as_i64)
            .unwrap_or(0)
            >= 1,
        "store must converge to warm hits after healing: {doc:?}"
    );

    // ENOSPC on the atomic rename: the store is skipped entirely — a
    // later request just replans; nothing corrupt is left behind.
    {
        let _armed = sct_faults::scoped("cache.store.rename=enospc").unwrap();
        let doc = respond(
            &server,
            &plan_line("(define (third n) (if (zero? n) 0 (third (- n 1))))"),
        );
        assert!(ok(&doc), "ENOSPC must not fail the request: {doc:?}");
    }
    let doc = respond(
        &server,
        &plan_line("(define (third n) (if (zero? n) 0 (third (- n 1))))"),
    );
    assert!(ok(&doc), "{doc:?}");
    assert!(decisions(&doc).iter().all(|(d, _)| d == "static"));

    std::fs::remove_dir_all(&cache_dir).ok();
}

/// The headline invariant: under a seeded mix of probabilistic faults —
/// failing cache reads and writes, stalling stores, panicking planning
/// threads — every concurrent request gets exactly one well-formed
/// answer, no degraded decision is ever `static`, and the daemon still
/// answers when the dust settles.
#[test]
fn every_request_gets_exactly_one_answer_under_probabilistic_faults() {
    let _lock = serial();
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 6;
    let seed = chaos_seed();
    let cache_dir = scratch("mixed");
    let server = Arc::new(
        Server::new(ServeOptions {
            cache_dir: Some(cache_dir.clone()),
            ..ServeOptions::default()
        })
        .unwrap(),
    );
    // A site holds one action, so the stall that races the deadlines
    // sits on the store path, leaving `serve.plan` to the panics.
    let spec = format!(
        "seed={seed};cache.store.write=enospc@250;cache.load.read=error@250;\
         cache.store.dir=stall-300@150;serve.plan=panic@80"
    );
    let armed = sct_faults::scoped(&spec).unwrap();

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let server = Arc::clone(&server);
            thread::spawn(move || {
                let mut answered = 0usize;
                for round in 0..ROUNDS {
                    // Unique program per (client, round) so every request
                    // does real planning work under its own cache keys.
                    let src = format!(
                        "(define (f{c}x{round} n) (if (zero? n) 0 (f{c}x{round} (- n 1))))"
                    );
                    let op = if round % 2 == 0 { "plan" } else { "hybrid" };
                    let source = if op == "hybrid" {
                        format!("{src} (f{c}x{round} 10)")
                    } else {
                        src
                    };
                    // Half the requests carry a tight deadline, racing the
                    // stall failpoint into the degradation ladder.
                    let deadline = if round % 2 == 0 {
                        r#","deadline_ms":100"#
                    } else {
                        ""
                    };
                    let line = format!(r#"{{"op":"{op}","source":"{source}"{deadline}}}"#);
                    let out = server.handle_line(&line);
                    let response = out.response.expect("every request gets an answer");
                    let doc = parse(&response)
                        .unwrap_or_else(|e| panic!("malformed answer {response}: {e}"));
                    assert!(
                        doc.get("ok").and_then(Json::as_bool).is_some(),
                        "answer must carry ok: {response}"
                    );
                    // Under faults a request may fail (planning panicked)
                    // — but a *successful* plan obeys the ladder.
                    if ok(&doc) {
                        assert_degraded_never_static(&doc);
                    }
                    answered += 1;
                }
                answered
            })
        })
        .collect();

    let mut total = 0;
    for client in clients {
        total += client.join().expect("client thread survived the chaos");
    }
    assert_eq!(total, CLIENTS * ROUNDS, "exactly one answer per request");

    drop(armed);
    // The daemon is still standing: stats answers, and a clean request
    // succeeds.
    let stats = respond(&server, r#"{"op":"stats"}"#);
    assert!(ok(&stats), "{stats:?}");
    let doc = respond(&server, &plan_line(COUNTDOWN));
    assert!(
        ok(&doc),
        "daemon must serve normally after the storm: {doc:?}"
    );

    // Planning threads may still be inside a 300 ms stall from the
    // storm; let them drain before the next test re-arms the global
    // registry.
    drop(server);
    thread::sleep(Duration::from_millis(600));
    std::fs::remove_dir_all(&cache_dir).ok();
}

/// Load shedding under a stalled planner: a second concurrent request is
/// refused with a well-formed `shed` response while the admitted one
/// completes normally.
#[test]
fn shed_answers_wellformed_while_admitted_request_completes() {
    let _lock = serial();
    let server = Arc::new(
        Server::new(ServeOptions {
            max_queue: 1,
            ..ServeOptions::default()
        })
        .unwrap(),
    );
    let _armed = sct_faults::scoped("serve.plan=stall-1500*1").unwrap();

    let slow = {
        let server = Arc::clone(&server);
        thread::spawn(move || respond(&server, &plan_line(COUNTDOWN)))
    };
    // Let the slow request win admission before contending.
    thread::sleep(Duration::from_millis(400));

    let doc = respond(
        &server,
        &plan_line("(define (other n) (if (zero? n) 0 (other (- n 1))))"),
    );
    assert!(!ok(&doc), "past max_queue the request is shed: {doc:?}");
    assert_eq!(doc.get("shed").and_then(Json::as_bool), Some(true));
    assert!(
        error_text(&doc).contains("overloaded"),
        "got: {}",
        error_text(&doc)
    );

    let slow_doc = slow.join().expect("admitted request completes");
    assert!(
        ok(&slow_doc),
        "the admitted request must still answer: {slow_doc:?}"
    );

    let stats = respond(&server, r#"{"op":"stats"}"#);
    assert!(stat(&stats, "requests", "shed") >= 1);
    assert_eq!(
        stat(&stats, "requests", "errors"),
        0,
        "shedding is not an error: {stats:?}"
    );
}

/// Socket-level faults through the real binary and `--faults`: a failed
/// accept drops one connection, a failed client read drops another —
/// the daemon keeps accepting, serves a third connection normally, and
/// shuts down cleanly.
#[test]
fn daemon_binary_survives_accept_and_read_faults() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    use std::process::{Command, Stdio};

    let socket = scratch("sock").with_extension("socket");
    let mut child = Command::new(env!("CARGO_BIN_EXE_sct"))
        .args([
            "serve",
            "--socket",
            socket.to_str().unwrap(),
            "--faults",
            "serve.accept=error*1;serve.client.read=error*1",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning sct serve --faults");

    let connect = || {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match UnixStream::connect(&socket) {
                Ok(s) => return s,
                Err(e) => {
                    assert!(
                        Instant::now() < deadline,
                        "socket {} never came up: {e}",
                        socket.display()
                    );
                    thread::sleep(Duration::from_millis(25));
                }
            }
        }
    };

    // Connection 1 is killed by the accept failpoint, connection 2 by
    // the read failpoint: both observe a clean close (EOF), never a
    // daemon crash. The fault budget is then spent.
    for expected_victim in ["accept", "read"] {
        let mut stream = connect();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        // Writing may fail once the daemon has dropped its end; that is
        // the observable fault, not a test failure.
        let _ = writeln!(stream, r#"{{"op":"stats"}}"#);
        let _ = stream.flush();
        let mut line = String::new();
        let n = reader.read_line(&mut line).unwrap_or(0);
        assert_eq!(
            n, 0,
            "{expected_victim} fault must close the connection, got: {line}"
        );
    }

    // Connection 3 works end to end.
    let mut stream = connect();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    writeln!(stream, "{}", plan_line(COUNTDOWN)).unwrap();
    stream.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains(r#""ok":true"#), "got: {line}");
    writeln!(stream, r#"{{"op":"shutdown"}}"#).unwrap();
    stream.flush().unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains(r#""op":"shutdown""#), "got: {line}");

    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match child.try_wait().unwrap() {
            Some(status) => {
                assert!(status.success(), "daemon exited {status:?}");
                break;
            }
            None if Instant::now() > deadline => {
                child.kill().ok();
                panic!("daemon did not exit after shutdown");
            }
            None => thread::sleep(Duration::from_millis(25)),
        }
    }
    std::fs::remove_file(&socket).ok();
}
