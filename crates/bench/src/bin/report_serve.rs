//! Load driver for the `sct serve` daemon: starts a real daemon on a
//! Unix socket, hammers it from concurrent clients with a mixed
//! `hybrid`/`plan`/`run` workload, and reports throughput plus per-op
//! latency — every latency number read back from the daemon's own
//! `metrics` op (the `sct-obs` histograms), not measured client-side.
//! The result is recorded as `BENCH_serve.json` at the repo root
//! (schema `sct-serve/1`):
//!
//! ```json
//! {
//!   "schema": "sct-serve/1",
//!   "fast": false, "clients": 8, "requests": 2000,
//!   "duration_ms": 1234.5, "throughput_rps": 1620.1,
//!   "warm_hit_rate": 0.99,
//!   "ops": [ { "op": "hybrid", "count": 800, "p50_us": 120, "p99_us": 900 }, … ]
//! }
//! ```
//!
//! `warm_hit_rate` is the decision-store hit fraction
//! (`cache.hits / (cache.hits + cache.misses)`): the workload repeats a
//! small source set, so after each source's first plan every later
//! request should load its decisions warm — the daemon's whole point.
//!
//! Run: `cargo run --release -p sct-bench --bin report_serve
//! [--fast] [--clients N] [--requests N] [--out PATH]`
//!
//! `--fast` is the CI smoke mode (2 clients × 25 requests);
//! `--requests` is per client.

use sct_contracts::serve::{serve_unix, ServeOptions, Server};
use sct_core::json::{parse, Json};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The request mix, cycled per client: two plan-heavy ops that exercise
/// the decision store (same sources every time, so the store warms after
/// the first pass) and one pure-execution op.
const MIX: [&str; 3] = [
    r#"{"op":"hybrid","source":"(define (sum i a) (if (zero? i) a (sum (- i 1) (+ a i)))) (sum 200 0)"}"#,
    r#"{"op":"plan","source":"(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))"}"#,
    r#"{"op":"run","source":"(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 12)","fuel":1000000}"#,
];

/// One client connection driving `requests` pipelimited (send, read,
/// repeat) requests through the socket. Returns how many responses came
/// back `"ok":true`.
fn client_loop(path: &std::path::Path, requests: usize, who: usize) -> usize {
    let stream = UnixStream::connect(path).expect("connect to bench daemon");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut ok = 0;
    for i in 0..requests {
        let req = MIX[(who + i) % MIX.len()];
        writeln!(writer, "{req}").expect("write request");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        if line.contains("\"ok\":true") {
            ok += 1;
        }
    }
    ok
}

/// Asks the daemon for its registry snapshot, parsed.
fn fetch_metrics(path: &std::path::Path) -> Json {
    let stream = UnixStream::connect(path).expect("connect for metrics");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    writeln!(writer, r#"{{"op":"metrics"}}"#).expect("write metrics request");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read metrics response");
    let doc = parse(line.trim()).expect("metrics response is JSON");
    assert_eq!(
        doc.get("ok"),
        Some(&Json::Bool(true)),
        "metrics op failed: {line}"
    );
    doc.get("metrics").expect("metrics payload").clone()
}

struct OpRow {
    op: &'static str,
    count: i64,
    p50_us: i64,
    p99_us: i64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag_value = |name: &str| -> Option<&String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let fast = args.iter().any(|a| a == "--fast");
    let clients: usize = flag_value("--clients")
        .and_then(|s| s.parse().ok())
        .unwrap_or(if fast { 2 } else { 8 });
    let per_client: usize = flag_value("--requests")
        .and_then(|s| s.parse().ok())
        .unwrap_or(if fast { 25 } else { 250 });
    let out_path = flag_value("--out")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(sct_bench::serve_json_path);

    let socket = std::env::temp_dir().join(format!("sct-bench-serve-{}.sock", std::process::id()));
    let server = Arc::new(Server::new(ServeOptions::default()).expect("start bench daemon"));
    let daemon = {
        let server = Arc::clone(&server);
        let socket = socket.clone();
        std::thread::spawn(move || serve_unix(server, &socket))
    };
    // The listener binds on the daemon thread; wait for the socket file.
    let bound = Instant::now();
    while !socket.exists() {
        assert!(
            bound.elapsed() < Duration::from_secs(10),
            "daemon never bound {}",
            socket.display()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    println!(
        "sct serve load driver: {clients} clients x {per_client} requests (mix: hybrid/plan/run)"
    );
    let started = Instant::now();
    let socket_ref = &socket;
    let oks: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|who| s.spawn(move || client_loop(socket_ref, per_client, who)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client")).sum()
    });
    let elapsed = started.elapsed();
    let total = clients * per_client;
    assert_eq!(oks, total, "every request in the mix must succeed");

    // Latency comes from the daemon's own histograms, post-hoc — the
    // load phase pays zero instrumentation cost beyond the atomics.
    let metrics = fetch_metrics(&socket);
    let hists = metrics.get("histograms").expect("histograms in snapshot");
    let ops: Vec<OpRow> = ["hybrid", "plan", "run"]
        .into_iter()
        .map(|op| {
            let h = hists
                .get(&format!("serve.latency.{op}_us"))
                .unwrap_or_else(|| panic!("no latency histogram for {op}"));
            let int = |k: &str| h.get(k).and_then(Json::as_i64).unwrap_or(0);
            OpRow {
                op,
                count: int("count"),
                p50_us: int("p50"),
                p99_us: int("p99"),
            }
        })
        .collect();
    let counters = metrics.get("counters").expect("counters in snapshot");
    let counter = |k: &str| {
        counters
            .get(k)
            .and_then(Json::as_i64)
            .unwrap_or_else(|| panic!("no counter {k}"))
    };
    let (hits, misses) = (counter("cache.hits"), counter("cache.misses"));
    let warm_hit_rate = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    let served: i64 = ops.iter().map(|o| o.count).sum();
    assert_eq!(
        served, total as i64,
        "daemon histograms must account for every request sent"
    );

    // Shut the daemon down over the protocol, like any client would.
    {
        let stream = UnixStream::connect(&socket).expect("connect for shutdown");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut writer = stream;
        writeln!(writer, r#"{{"op":"shutdown"}}"#).expect("write shutdown");
        let mut line = String::new();
        let _ = reader.read_line(&mut line);
    }
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon exited cleanly");

    let duration_ms = elapsed.as_secs_f64() * 1e3;
    let throughput = total as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "{total} requests in {duration_ms:.1}ms = {throughput:.0} req/s, \
         warm hit rate {:.1}%",
        warm_hit_rate * 100.0
    );
    for o in &ops {
        println!(
            "  {:>6}: count {:>6}  p50 {:>7}us  p99 {:>7}us",
            o.op, o.count, o.p50_us, o.p99_us
        );
    }
    println!(
        "shape check: warm hit rate near 1.0 (the mix repeats {} sources,",
        MIX.len()
    );
    println!("so only the first pass plans cold) and hybrid p50 well under its p99");
    println!("(the cold plans live in the tail).");

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"sct-serve/1\",\n");
    json.push_str(&format!("  \"fast\": {fast},\n"));
    json.push_str(&format!("  \"clients\": {clients},\n"));
    json.push_str(&format!("  \"requests\": {total},\n"));
    json.push_str(&format!("  \"duration_ms\": {duration_ms:.1},\n"));
    json.push_str(&format!("  \"throughput_rps\": {throughput:.1},\n"));
    json.push_str(&format!("  \"warm_hit_rate\": {warm_hit_rate:.4},\n"));
    json.push_str("  \"ops\": [\n");
    for (i, o) in ops.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"op\": \"{}\", \"count\": {}, \"p50_us\": {}, \"p99_us\": {} }}{}\n",
            o.op,
            o.count,
            o.p50_us,
            o.p99_us,
            if i + 1 < ops.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", out_path.display()));
    println!("\nwrote {}", out_path.display());
}
