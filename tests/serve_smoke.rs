//! `sct serve` end-to-end: the stdio request/response mode CI smokes, a
//! multi-client Unix-socket stress test asserting concurrent clients
//! receive correct, *independent* blame/plan results, and load shedding
//! under a stalled planner.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "sct-serve-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn sct() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sct"))
}

/// Assert a needle in a response line, with the line in the panic message.
fn assert_line(line: &str, needle: &str) {
    assert!(line.contains(needle), "wanted {needle:?} in: {line}");
}

#[test]
fn stdio_mode_answers_all_ops() {
    let mut requests: Vec<u8> = concat!(
        r#"{"op":"plan","id":1,"source":"(define (sum i a) (if (zero? i) a (sum (- i 1) (+ a i))))"}"#,
        "\n",
        r#"{"op":"plan","id":2,"source":"(define (sum i a) (if (zero? i) a (sum (- i 1) (+ a i))))"}"#,
        "\n",
        r#"{"op":"hybrid","id":3,"source":"(define (sum i a) (if (zero? i) a (sum (- i 1) (+ a i)))) (sum 100 0)"}"#,
        "\n",
        r#"{"op":"run","id":4,"source":"(define f (terminating/c (lambda (x) (f x)) \"p1\")) (f 1)"}"#,
        "\n",
        "this is not json\n",
    )
    .as_bytes()
    .to_vec();
    // A line that is not even UTF-8 must get an error response, not kill
    // the session.
    requests.extend_from_slice(b"\xff\xfe not utf8\n");
    requests.extend_from_slice(
        concat!(
            r#"{"op":"stats","id":5}"#,
            "\n",
            r#"{"op":"shutdown"}"#,
            "\n"
        )
        .as_bytes(),
    );
    let mut child = sct()
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning sct serve");
    child.stdin.take().unwrap().write_all(&requests).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "serve exited {:?}", out.status);
    let lines: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_owned)
        .collect();
    assert_eq!(lines.len(), 8, "one response per request: {lines:#?}");

    // Cold plan, then warm plan: misses then hits out of the warm store.
    assert_line(&lines[0], r#""id":1"#);
    assert_line(&lines[0], r#""cache":{"hits":0,"misses":1,"warm":false}"#);
    assert_line(&lines[0], r#""schema":"sct-plan/3""#);
    assert_line(&lines[1], r#""cache":{"hits":1,"misses":0,"warm":true}"#);
    // Hybrid runs with the static fast path.
    assert_line(&lines[2], r#""value":"5050""#);
    assert_line(&lines[2], r#""checks":0"#);
    // Dynamic blame, delivered as data.
    assert_line(&lines[3], r#""ok":false"#);
    assert_line(&lines[3], r#""blame":"p1""#);
    // Malformed lines (bad JSON, bad UTF-8) → error responses, session
    // continues.
    assert_line(&lines[4], r#""ok":false"#);
    assert_line(&lines[4], "bad request");
    assert_line(&lines[5], r#""ok":false"#);
    // Stats reflect the traffic.
    assert_line(&lines[6], r#""plan":2"#);
    assert_line(&lines[6], r#""errors":2"#);
    assert_line(&lines[7], r#""op":"shutdown""#);
}

/// The stdio session's responses as documents: plan, hybrid, stats and
/// metrics agree with each other, and every response carries its own
/// 16-hex trace id.
#[test]
fn stdio_metrics_reconcile_with_stats_and_trace_ids_are_distinct() {
    use sct_core::json::{parse, Json};

    let requests = concat!(
        r#"{"op":"plan","id":1,"source":"(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))"}"#,
        "\n",
        r#"{"op":"hybrid","id":2,"source":"(define (sum i a) (if (zero? i) a (sum (- i 1) (+ a i)))) (sum 100 0)"}"#,
        "\n",
        r#"{"op":"stats","id":3}"#,
        "\n",
        r#"{"op":"metrics","id":4}"#,
        "\n",
        r#"{"op":"shutdown"}"#,
        "\n",
    );
    let mut child = sct()
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning sct serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(requests.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "serve exited {:?}", out.status);
    let docs: Vec<Json> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| parse(l).unwrap_or_else(|e| panic!("response is not JSON ({e}): {l}")))
        .collect();
    assert_eq!(docs.len(), 5, "one response per request: {docs:#?}");
    let at = |doc: &Json, path: &[&str]| -> Json {
        let mut v = doc;
        for key in path {
            v = v
                .get(key)
                .unwrap_or_else(|| panic!("no {path:?} in {doc:?}"));
        }
        v.clone()
    };
    let int = |doc: &Json, path: &[&str]| at(doc, path).as_i64().unwrap();
    let (plan, hybrid, stats, metrics) = (&docs[0], &docs[1], &docs[2], &docs[3]);
    for doc in &docs {
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{doc:?}");
    }

    assert_eq!(at(plan, &["plan", "schema"]).as_str(), Some("sct-plan/3"));
    assert_eq!(int(plan, &["cache", "hits"]), 0);
    assert_eq!(int(plan, &["cache", "misses"]), 1);
    assert_eq!(at(plan, &["cache", "warm"]), Json::Bool(false));

    assert_eq!(at(hybrid, &["value"]).as_str(), Some("5050"));
    assert_eq!(int(hybrid, &["stats", "checks"]), 0);
    assert!(int(hybrid, &["stats", "static_skips"]) > 0, "{hybrid:?}");
    assert!(at(hybrid, &["cache", "warm"]).as_bool().is_some());
    assert!(hybrid.get("compiled").is_none(), "{hybrid:?}");

    assert_eq!(int(stats, &["requests", "plan"]), 1);
    assert!(int(stats, &["cache", "stores"]) >= 2, "{stats:?}");
    assert!(int(stats, &["plan", "static_skips"]) > 0, "{stats:?}");

    // The metrics snapshot and the stats view read the same counters.
    let counter = |name: &str| int(metrics, &["metrics", "counters", name]);
    assert_eq!(
        counter("serve.requests.plan"),
        int(stats, &["requests", "plan"])
    );
    assert_eq!(
        counter("serve.requests.hybrid"),
        int(stats, &["requests", "hybrid"])
    );
    assert_eq!(counter("cache.stores"), int(stats, &["cache", "stores"]));
    for pre_registered in ["serve.shed", "serve.deadline_exceeded", "cache.quarantined"] {
        counter(pre_registered);
    }
    let latency = at(
        metrics,
        &["metrics", "histograms", "serve.latency.hybrid_us"],
    );
    assert_eq!(int(&latency, &["count"]), 1);
    assert!(int(&latency, &["p50"]) >= 0);

    let traces: Vec<String> = docs
        .iter()
        .map(|doc| at(doc, &["trace"]).as_str().unwrap().to_owned())
        .collect();
    for trace in &traces {
        assert_eq!(trace.len(), 16, "{trace}");
        assert!(trace.chars().all(|c| c.is_ascii_hexdigit()), "{trace}");
    }
    let distinct: std::collections::HashSet<&String> = traces.iter().collect();
    assert_eq!(distinct.len(), traces.len(), "{traces:?}");
}

/// Protocol fuzz: mutated, truncated, and overlong NDJSON lines. Every
/// non-empty line must get exactly one response — an error for the
/// malformed ones — and the session must survive all of them and still
/// answer a well-formed request at the end.
#[test]
fn stdio_mode_survives_adversarial_lines() {
    let valid =
        r#"{"op":"plan","id":1,"source":"(define (dec n) (if (zero? n) 0 (dec (- n 1))))"}"#;
    let mut lines: Vec<Vec<u8>> = Vec::new();
    // Truncations at awkward byte offsets (mid-key, mid-string, mid-escape).
    for cut in [1, 7, 20, valid.len() / 2, valid.len() - 2] {
        lines.push(valid.as_bytes()[..cut].to_vec());
    }
    // Single-byte mutations: flip one byte of the valid request to a
    // brace, a quote, a NUL, and a high bit.
    for (pos, byte) in [(2u8, b'}'), (10, b'"'), (30, 0u8), (40, 0xffu8)] {
        let mut m = valid.as_bytes().to_vec();
        m[pos as usize] = byte;
        lines.push(m);
    }
    // Structurally wrong JSON: wrong types, unknown ops, nested junk.
    for bad in [
        r#"{"op":42}"#,
        r#"{"op":"warp","id":3}"#,
        r#"{"op":"plan","id":"three","source":17}"#,
        r#"{"op":{"op":"plan"}}"#,
        r#"[1,2,3]"#,
        r#""just a string""#,
        "}}}}{{{{",
    ] {
        lines.push(bad.as_bytes().to_vec());
    }
    // An overlong line: a syntactically valid request whose source is a
    // megabyte of open parens (compile error, not a crash), plus a
    // megabyte of raw garbage.
    let huge_src = "(".repeat(1 << 20);
    lines.push(format!(r#"{{"op":"run","id":9,"source":"{huge_src}"}}"#).into_bytes());
    lines.push(vec![b'x'; 1 << 20]);
    let adversarial = lines.len();

    let mut requests: Vec<u8> = Vec::new();
    for line in &lines {
        requests.extend_from_slice(line);
        requests.push(b'\n');
    }
    // The session must still answer real work after all of that.
    requests.extend_from_slice(valid.as_bytes());
    requests.push(b'\n');
    requests.extend_from_slice(b"{\"op\":\"stats\",\"id\":99}\n{\"op\":\"shutdown\"}\n");

    let mut child = sct()
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning sct serve");
    child.stdin.take().unwrap().write_all(&requests).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "serve exited {:?}", out.status);
    let responses: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_owned)
        .collect();
    assert_eq!(
        responses.len(),
        adversarial + 3,
        "one response per request: {responses:#?}"
    );
    // The megabyte-of-parens request was well-formed JSON; whether it
    // compiles is the language front end's business — the daemon's
    // contract is just a response per line. Every *malformed* line must
    // be answered with ok:false.
    for (i, r) in responses[..adversarial].iter().enumerate() {
        assert_line(r, r#""ok":"#);
        if !r.contains(r#""ok":true"#) {
            assert_line(r, r#""ok":false"#);
        }
        assert!(!r.is_empty(), "empty response for adversarial line {i}");
    }
    // The trailing well-formed plan still works.
    assert_line(&responses[adversarial], r#""id":1"#);
    assert_line(&responses[adversarial], r#""ok":true"#);
    assert_line(&responses[adversarial], r#""name":"dec""#);
    assert_line(&responses[adversarial + 1], r#""id":99"#);
    assert_line(&responses[adversarial + 2], r#""op":"shutdown""#);
}

fn connect_with_retry(path: &PathBuf) -> UnixStream {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return s,
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "socket {} never came up: {e}",
                    path.display()
                );
                thread::sleep(Duration::from_millis(25));
            }
        }
    }
}

fn request(stream: &mut UnixStream, reader: &mut BufReader<UnixStream>, line: &str) -> String {
    writeln!(stream, "{line}").unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    assert!(!response.is_empty(), "connection closed on: {line}");
    response
}

/// Many concurrent clients, each interleaving its own programs — a
/// client-specific hybrid computation, a client-specific blamed
/// divergence, and plans — over one daemon with a shared disk cache.
/// Every client must get exactly its own answers back, in order.
#[test]
fn socket_stress_concurrent_clients_get_independent_results() {
    let socket = scratch("sock").with_extension("socket");
    let cache_dir = scratch("cache");
    let mut child: Child = sct()
        .args([
            "serve",
            "--socket",
            socket.to_str().unwrap(),
            "--cache-dir",
            cache_dir.to_str().unwrap(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning sct serve --socket");
    // Make sure the daemon is accepting before fanning out.
    drop(connect_with_retry(&socket));

    const CLIENTS: usize = 8;
    const ROUNDS: usize = 4;
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let socket = socket.clone();
            thread::spawn(move || {
                let mut stream = connect_with_retry(&socket);
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                for round in 0..ROUNDS {
                    // A value computation unique to (client, round):
                    // sum 0..n for n = 100·(c+1)+round.
                    let n = 100 * (c as u64 + 1) + round as u64;
                    let expect = n * (n + 1) / 2;
                    let hybrid = format!(
                        r#"{{"op":"hybrid","id":{c},"source":"(define (sum{c} i a) (if (zero? i) a (sum{c} (- i 1) (+ a i)))) (sum{c} {n} 0)"}}"#
                    );
                    let resp = request(&mut stream, &mut reader, &hybrid);
                    assert_line(&resp, &format!(r#""value":"{expect}""#));
                    assert_line(&resp, &format!(r#""id":{c}"#));
                    assert_line(&resp, r#""ok":true"#);

                    // A divergence blamed with a client-specific label:
                    // the blame each client sees must be its own.
                    let spin = format!(
                        r#"{{"op":"run","source":"(define f{c} (terminating/c (lambda (x) (f{c} x)) \"party-{c}\")) (f{c} 1)"}}"#
                    );
                    let resp = request(&mut stream, &mut reader, &spin);
                    assert_line(&resp, r#""ok":false"#);
                    assert_line(&resp, &format!(r#""blame":"party-{c}""#));

                    // Plans stay well-formed under concurrency.
                    let plan = format!(
                        r#"{{"op":"plan","source":"(define (len{c} l) (if (null? l) 0 (+ 1 (len{c} (cdr l)))))"}}"#
                    );
                    let resp = request(&mut stream, &mut reader, &plan);
                    assert_line(&resp, r#""ok":true"#);
                    assert_line(&resp, &format!(r#""name":"len{c}""#));
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread panicked");
    }

    // An idle client that never sends a request and never disconnects:
    // shutdown must still terminate the daemon (its blocked read is
    // unblocked by the server closing the connection).
    let _idle = connect_with_retry(&socket);

    // A warm client replaying one of the programs hits the shared cache.
    {
        let mut stream = connect_with_retry(&socket);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let replay =
            r#"{"op":"plan","source":"(define (len0 l) (if (null? l) 0 (+ 1 (len0 (cdr l)))))"}"#;
        let resp = request(&mut stream, &mut reader, replay);
        assert_line(&resp, r#""cache":{"hits":1,"misses":0,"warm":true}"#);
        let stats = request(&mut stream, &mut reader, r#"{"op":"stats"}"#);
        assert_line(&stats, r#""ok":true"#);
        // 8 clients × 4 rounds × (1 hybrid + 1 run + 1 plan) + this
        // replay: the daemon must have counted every request.
        assert_line(&stats, r#""plan":33,"run":32,"hybrid":32"#);
        // The latency histograms account for every request too.
        let stats = sct_core::json::parse(&stats).unwrap();
        let latency = stats.get("latency").unwrap();
        for (op, requests) in [("plan", 33), ("run", 32), ("hybrid", 32)] {
            let count = latency.get(op).and_then(|h| h.get("count"));
            assert_eq!(count.and_then(|c| c.as_i64()), Some(requests), "{op}");
        }
        let shutdown = request(&mut stream, &mut reader, r#"{"op":"shutdown"}"#);
        assert_line(&shutdown, r#""ok":true"#);
    }

    // The daemon exits cleanly after shutdown (bounded wait, then kill).
    let deadline = Instant::now() + Duration::from_secs(20);
    let status = loop {
        match child.try_wait().unwrap() {
            Some(status) => break Some(status),
            None if Instant::now() > deadline => break None,
            None => thread::sleep(Duration::from_millis(25)),
        }
    };
    match status {
        Some(status) => assert!(status.success(), "daemon exited {status:?}"),
        None => {
            child.kill().ok();
            panic!("daemon did not exit after shutdown");
        }
    }
    std::fs::remove_dir_all(&cache_dir).ok();
    std::fs::remove_file(&socket).ok();
}

/// Load shedding over the socket: with one admission slot held by a plan
/// whose planner stalls for 3 s, a second request is refused at once with
/// a well-formed `shed` response, the admitted request still completes,
/// the stats count exactly that one shed request and no error, and the
/// daemon shuts down cleanly.
#[test]
fn socket_load_shedding_refuses_the_second_request_while_the_first_completes() {
    use sct_core::json::{parse, Json};

    let socket = scratch("shed").with_extension("socket");
    let mut child: Child = sct()
        .args([
            "serve",
            "--socket",
            socket.to_str().unwrap(),
            "--max-queue",
            "1",
            "--faults",
            "serve.plan=stall-3000*1",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning sct serve --socket");
    drop(connect_with_retry(&socket));

    let source = "(define (dec n) (if (zero? n) 0 (dec (- n 1))))";
    let plan = |id: u32| format!(r#"{{"op":"plan","id":{id},"source":"{source}"}}"#);
    let ask = |line: String| {
        let mut stream = connect_with_retry(&socket);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        parse(&request(&mut stream, &mut reader, &line)).unwrap()
    };
    let field = |json: &Json, key: &str| json.get(key).cloned().unwrap_or(Json::Null);

    // The first plan takes the single admission slot and stalls in it.
    let slow = thread::spawn({
        let line = plan(1);
        let socket = socket.clone();
        move || {
            let mut stream = connect_with_retry(&socket);
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            request(&mut stream, &mut reader, &line)
        }
    });
    // `metrics` is not admitted, so it can watch the slot fill.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let snapshot = ask(r#"{"op":"metrics"}"#.to_string());
        let gauges = field(&field(&snapshot, "metrics"), "gauges");
        if field(&gauges, "serve.inflight").as_i64() == Some(1) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the first plan was never admitted"
        );
        thread::sleep(Duration::from_millis(10));
    }
    let shed = ask(plan(2));
    assert_eq!(field(&shed, "ok"), Json::Bool(false), "{shed}");
    assert_eq!(field(&shed, "shed"), Json::Bool(true), "{shed}");
    let error = field(&shed, "error");
    assert!(
        error.as_str().is_some_and(|e| e.contains("overloaded")),
        "{shed}"
    );
    let admitted = parse(&slow.join().expect("slow client panicked")).unwrap();
    assert_eq!(field(&admitted, "ok"), Json::Bool(true), "{admitted}");

    let stats = ask(r#"{"op":"stats"}"#.to_string());
    let requests = field(&stats, "requests");
    assert_eq!(field(&requests, "shed").as_i64(), Some(1), "{stats}");
    assert_eq!(field(&requests, "errors").as_i64(), Some(0), "{stats}");

    let shutdown = ask(r#"{"op":"shutdown"}"#.to_string());
    assert_eq!(field(&shutdown, "ok"), Json::Bool(true), "{shutdown}");
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

/// The `metrics` op over the socket: a well-formed registry snapshot.
/// The self-healing counters (`shed`, `deadline_exceeded`,
/// `quarantined`) are pre-registered, so they appear
/// even at zero, and the per-op latency histograms account for the
/// traffic that preceded the snapshot.
#[test]
fn socket_metrics_op_returns_registry_snapshot() {
    use sct_core::json::{parse, Json};

    let socket = scratch("metrics").with_extension("socket");
    let cache_dir = scratch("metrics-cache");
    let mut child: Child = sct()
        .args([
            "serve",
            "--socket",
            socket.to_str().unwrap(),
            "--cache-dir",
            cache_dir.to_str().unwrap(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning sct serve --socket");
    let mut stream = connect_with_retry(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // Real traffic first, so the histograms have something to show.
    let resp = request(
        &mut stream,
        &mut reader,
        r#"{"op":"hybrid","source":"(define (sum i a) (if (zero? i) a (sum (- i 1) (+ a i)))) (sum 50 0)"}"#,
    );
    assert_line(&resp, r#""value":"1275""#);
    let resp = request(
        &mut stream,
        &mut reader,
        r#"{"op":"plan","source":"(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))"}"#,
    );
    assert_line(&resp, r#""ok":true"#);

    let line = request(&mut stream, &mut reader, r#"{"op":"metrics"}"#);
    let doc = parse(line.trim()).expect("metrics response must be well-formed JSON");
    assert_eq!(
        doc.get("ok"),
        Some(&Json::Bool(true)),
        "metrics op failed: {line}"
    );
    let metrics = doc.get("metrics").expect("metrics payload");
    let counters = metrics.get("counters").expect("counters in snapshot");
    // The self-healing story is only observable if its counters exist
    // *before* anything goes wrong — a dashboard reading zero is not the
    // same as a dashboard reading nothing.
    for key in ["serve.shed", "serve.deadline_exceeded", "cache.quarantined"] {
        assert!(
            counters.get(key).and_then(Json::as_i64).is_some(),
            "pre-registered counter {key} missing from snapshot: {line}"
        );
    }
    // This healthy session sheds nothing.
    assert_eq!(counters.get("serve.shed").and_then(Json::as_i64), Some(0));
    let gauges = metrics.get("gauges").expect("gauges in snapshot");
    assert!(
        gauges
            .get("serve.inflight")
            .and_then(Json::as_i64)
            .is_some(),
        "gauge serve.inflight missing from snapshot: {line}"
    );
    let hists = metrics.get("histograms").expect("histograms in snapshot");
    for op in ["hybrid", "plan"] {
        let h = hists
            .get(&format!("serve.latency.{op}_us"))
            .unwrap_or_else(|| panic!("no latency histogram for {op}: {line}"));
        assert_eq!(
            h.get("count").and_then(Json::as_i64),
            Some(1),
            "one {op} request was served: {line}"
        );
        assert!(
            h.get("p50").and_then(Json::as_i64).is_some(),
            "a non-empty histogram reports quantiles: {line}"
        );
    }

    let shutdown = request(&mut stream, &mut reader, r#"{"op":"shutdown"}"#);
    assert_line(&shutdown, r#""ok":true"#);
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
    std::fs::remove_dir_all(&cache_dir).ok();
    std::fs::remove_file(&socket).ok();
}

/// Chaos run under the tracer: inject a one-shot planning panic with
/// `--faults` while `--trace-out` records the session. The daemon must
/// absorb the panic (answer the panicked request with an error, then
/// every later request normally), and the
/// trace file must be parseable JSONL whose spans nest correctly —
/// every `end`/`event` names a span that was `start`ed in the same
/// trace, every child's parent exists — with the per-response trace ids
/// resolving to root `serve.request` spans in the file.
#[test]
fn chaos_run_with_trace_out_emits_well_nested_jsonl() {
    use sct_core::json::{parse, Json};
    use std::collections::{HashMap, HashSet};

    let trace_path = scratch("trace").with_extension("jsonl");
    let requests = concat!(
        r#"{"op":"plan","id":1,"source":"(define (dec n) (if (zero? n) 0 (dec (- n 1))))"}"#,
        "\n",
        r#"{"op":"plan","id":2,"source":"(define (dec n) (if (zero? n) 0 (dec (- n 1))))"}"#,
        "\n",
        r#"{"op":"hybrid","id":3,"source":"(define (sum i a) (if (zero? i) a (sum (- i 1) (+ a i)))) (sum 10 0)"}"#,
        "\n",
        r#"{"op":"metrics","id":4}"#,
        "\n",
        r#"{"op":"shutdown"}"#,
        "\n",
    );
    let mut child = sct()
        .args([
            "serve",
            "--faults",
            "seed=3;serve.plan=panic*1",
            "--trace-out",
            trace_path.to_str().unwrap(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning sct serve with faults and tracer");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(requests.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "serve exited {:?}", out.status);
    let lines: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_owned)
        .collect();
    assert_eq!(lines.len(), 5, "one response per request: {lines:#?}");

    // Every dispatched response echoes a 16-hex trace id.
    let mut response_traces: Vec<String> = Vec::new();
    for line in &lines {
        let doc = parse(line).expect("response is JSON");
        let trace = doc
            .get("trace")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("no trace id in response: {line}"));
        assert_eq!(trace.len(), 16, "{line}");
        assert!(trace.chars().all(|c| c.is_ascii_hexdigit()), "{line}");
        response_traces.push(trace.to_owned());
    }

    // The injected panic was absorbed: the panicked request got an
    // error, and the session went on to answer everything, including a
    // healthy replan.
    assert_line(&lines[0], r#""ok":false"#);
    assert_line(&lines[0], "planning thread panicked");
    assert_line(&lines[1], r#""ok":true"#);
    assert_line(&lines[1], r#""name":"dec""#);
    assert_line(&lines[2], r#""value":"55""#);
    assert_line(&lines[3], r#""ok":true"#);

    // The trace file: parseable JSONL, correctly nesting spans.
    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    assert!(!text.is_empty(), "tracer produced no events");
    let mut started: HashMap<i64, (String, String)> = HashMap::new(); // span → (trace, name)
    let mut ended: HashSet<i64> = HashSet::new();
    for line in text.lines() {
        let ev = parse(line).unwrap_or_else(|e| panic!("unparseable trace line ({e}): {line}"));
        assert!(
            ev.get("ts_us").and_then(Json::as_i64).is_some(),
            "no monotonic timestamp: {line}"
        );
        let kind = ev.get("ev").and_then(Json::as_str).expect("ev kind");
        let trace = ev.get("trace").and_then(Json::as_str).expect("trace id");
        let span = ev.get("span").and_then(Json::as_i64).expect("span id");
        let name = ev.get("name").and_then(Json::as_str).expect("span name");
        match kind {
            "start" => {
                if let Some(parent) = ev.get("parent").and_then(Json::as_i64) {
                    let (parent_trace, _) = started
                        .get(&parent)
                        .unwrap_or_else(|| panic!("parent {parent} never started: {line}"));
                    assert_eq!(parent_trace, trace, "child crossed traces: {line}");
                }
                started.insert(span, (trace.to_owned(), name.to_owned()));
            }
            "event" => {
                let (span_trace, _) = started
                    .get(&span)
                    .unwrap_or_else(|| panic!("event on unopened span: {line}"));
                assert_eq!(span_trace, trace, "event crossed traces: {line}");
            }
            "end" => {
                let (span_trace, span_name) = started
                    .get(&span)
                    .unwrap_or_else(|| panic!("end without start: {line}"));
                assert_eq!(span_trace, trace, "end crossed traces: {line}");
                assert_eq!(span_name, name, "end renamed its span: {line}");
                assert!(
                    ev.get("dur_us").and_then(Json::as_i64).is_some(),
                    "no duration on end: {line}"
                );
                assert!(ended.insert(span), "span ended twice: {line}");
            }
            other => panic!("unknown event kind {other:?}: {line}"),
        }
    }
    assert_eq!(
        started.len(),
        ended.len(),
        "every span that started also ended"
    );
    // Each response's trace id resolves to a root serve.request span.
    let root_traces: HashSet<&str> = started
        .values()
        .filter(|(_, name)| name == "serve.request")
        .map(|(trace, _)| trace.as_str())
        .collect();
    for trace in &response_traces {
        assert!(
            root_traces.contains(trace.as_str()),
            "response trace {trace} has no serve.request span in the file"
        );
    }
    std::fs::remove_file(&trace_path).ok();
}

/// A traced `hybrid` request records its two phases: a `plan` span and
/// then an `execute` span, both children of the request's root span, the
/// plan ending before the execution starts.
#[test]
fn traced_hybrid_emits_plan_then_execute_under_the_request_span() {
    use sct_core::json::{parse, Json};

    let trace_path = scratch("phases").with_extension("jsonl");
    let requests = concat!(
        r#"{"op":"hybrid","source":"(define (sum i a) (if (zero? i) a (sum (- i 1) (+ a i)))) (sum 10 0)"}"#,
        "\n",
        r#"{"op":"shutdown"}"#,
        "\n",
    );
    let mut child = sct()
        .args(["serve", "--trace-out", trace_path.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning sct serve with the tracer");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(requests.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "serve exited {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let first = stdout.lines().next().expect("a hybrid response");
    assert_line(first, r#""value":"55""#);
    let trace = parse(first)
        .unwrap()
        .get("trace")
        .and_then(Json::as_str)
        .expect("trace id")
        .to_owned();

    // (name, span, parent, ev, ts) of every record in the hybrid's trace.
    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    let records: Vec<(String, i64, Option<i64>, String, i64)> = text
        .lines()
        .map(|line| parse(line).unwrap_or_else(|e| panic!("bad trace line ({e}): {line}")))
        .filter(|ev| ev.get("trace").and_then(Json::as_str) == Some(trace.as_str()))
        .map(|ev| {
            (
                ev.get("name").and_then(Json::as_str).unwrap().to_owned(),
                ev.get("span").and_then(Json::as_i64).unwrap(),
                ev.get("parent").and_then(Json::as_i64),
                ev.get("ev").and_then(Json::as_str).unwrap().to_owned(),
                ev.get("ts_us").and_then(Json::as_i64).unwrap(),
            )
        })
        .collect();
    let find = |name: &str, ev: &str| {
        records
            .iter()
            .find(|r| r.0 == name && r.3 == ev)
            .unwrap_or_else(|| panic!("no {ev} of {name} in {records:#?}"))
    };
    let root = find("serve.request", "start");
    assert_eq!(root.2, None, "the request span is a root: {root:?}");
    let plan = find("plan", "start");
    let execute = find("execute", "start");
    assert_eq!(plan.2, Some(root.1), "plan is the request's child");
    assert_eq!(execute.2, Some(root.1), "execute is the request's child");
    let plan_end = find("plan", "end");
    assert!(
        plan_end.4 <= execute.4,
        "plan must end before execute starts: {records:#?}"
    );
    std::fs::remove_file(&trace_path).ok();
}
