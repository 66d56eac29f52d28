//! `serve-edit`: an in-process `Server` (one planning thread, decisions
//! in its in-memory store) behind `serve_unix`, with one client on the
//! Unix socket. Set-up warms the cache with the source-ordered corpus;
//! each op then sends one `hybrid` request whose program changes the base
//! constant of one top-layer define to a value not used before and calls
//! it. So each request explores exactly one define and loads every other
//! one from the cache: cache reads, the front end, digests and the
//! daemon's own per-request work dominate.
//!
//! The daemon has no `cache_dir`. Warming a disk cache creates 2000 files
//! per set-up, and on the host the benchmark was tuned on file creation
//! slowed down run after run as earlier runs deleted their caches: five
//! runs in a row took 0.8, 1.3, 1.5, 1.9 and 2.2 s to set up.

use crate::corpus::{Corpus, ARG};
use crate::pipeline::{Counts, DaemonTimes, OpResult, Workload};
use sct_contracts::serve::{serve_unix, ServeOptions, Server};
use sct_core::json::{escape, parse, Json};
use sct_interp::{reference, MachineConfig};
use sct_obs::trace::Span;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Defines per corpus.
const DEFINES: usize = 1000;

pub struct ServeEdit {
    corpus: Corpus,
    defines: Vec<String>,
    top: Vec<usize>,
    /// Reference answer of each top-layer define at base 0.
    answers: Vec<i64>,
    daemon: Option<JoinHandle<io::Result<()>>>,
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    warm: Counts,
    /// The daemon's metrics when set-up finished.
    after_setup: Json,
}

/// A `metrics` snapshot of the daemon.
fn counter(m: &Json, name: &str) -> u64 {
    m.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

fn histogram(m: &Json, name: &str, field: &str) -> u64 {
    m.get("histograms")
        .and_then(|h| h.get(name))
        .and_then(|h| h.get(field))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

fn counter_sum(m: &Json, prefix: &str, suffix: &str) -> u64 {
    match m.get("counters") {
        Some(Json::Obj(members)) => members
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .filter_map(|(_, v)| v.as_u64())
            .sum(),
        _ => 0,
    }
}

/// The daemon's own counts between two snapshots.
fn daemon_counts(before: &Json, after: &Json) -> Counts {
    let d = |name: &str| counter(after, name) - counter(before, name);
    let rung = |suffix: &str| {
        counter_sum(after, "plan.rung.", suffix) - counter_sum(before, "plan.rung.", suffix)
    };
    Counts {
        steps: d("vm.steps"),
        env_frames: d("vm.env_frames"),
        monitored_calls: d("vm.monitored_calls"),
        checks: d("vm.checks"),
        static_skips: d("vm.static_skips"),
        generic_calls: d("vm.generic_calls"),
        pic_hits: d("vm.pic_hits"),
        hybrid_skips: d("vm.static_skips"),
        hybrid_monitored: d("vm.monitored_calls"),
        defines_explored: d("cache.misses"),
        rung_attempts: rung(".attempts"),
        rung_discharged: rung(".discharged"),
        stubbed: d("plan.summary.stubbed_applications"),
        cache_loads: histogram(after, "cache.load_us", "count")
            - histogram(before, "cache.load_us", "count"),
        cache_hits: d("cache.hits"),
        cache_stores: d("cache.stores"),
        ..Counts::default()
    }
}

fn int_field(doc: &Json, path: &[&str]) -> u64 {
    let mut cur = doc;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return 0,
        }
    }
    cur.as_u64().unwrap_or(0)
}

/// Reference answers (tree-walker) of `calls` on the given defines.
fn reference_answers(defines: &[String], calls: &[usize]) -> Result<Vec<i64>, String> {
    let list: Vec<String> = calls.iter().map(|k| format!("(f{k} {ARG})")).collect();
    let src = defines.concat() + &format!("(list {})\n", list.join(" "));
    let program = sct_lang::compile_program(&src).map_err(|e| e.to_string())?;
    let value = reference::Machine::new(&program, MachineConfig::standard())
        .run()
        .map_err(|e| format!("reference walker: {e}"))?;
    value
        .list_to_vec()
        .ok_or("reference answer is not a list")?
        .iter()
        .map(|v| {
            v.to_write_string()
                .parse::<i64>()
                .map_err(|e| format!("reference answer: {e}"))
        })
        .collect()
}

pub fn setup(seed: u64, dir: &Path) -> Result<ServeEdit, String> {
    let corpus = Corpus::generate(DEFINES, seed);
    let defines = corpus.defines();
    let top: Vec<usize> = corpus.top().collect();
    let answers = reference_answers(&defines, &top)?;

    // An edit adds its new base to the define's answer once (the base
    // case is reached once per call). Pin that against the walker on the
    // first edit, so every later expected answer is a walker answer too.
    let mut edited = defines.clone();
    edited[top[0]] = corpus.define(top[0], base(0));
    let direct = reference_answers(&edited, &top[..1])?;
    if direct[0] != answers[0] + base(0) {
        return Err(format!(
            "edit model disagrees with the reference walker: {} vs {}",
            direct[0],
            answers[0] + base(0)
        ));
    }

    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let server = Arc::new(
        Server::new(ServeOptions {
            threads: 1,
            ..ServeOptions::default()
        })
        .map_err(|e| format!("daemon: {e}"))?,
    );
    let socket = dir.join("sock");
    let daemon = {
        let socket = socket.clone();
        std::thread::spawn(move || serve_unix(server, &socket))
    };
    let bound = Instant::now();
    let stream = loop {
        match UnixStream::connect(&socket) {
            Ok(s) => break s,
            Err(_) if bound.elapsed() < Duration::from_secs(10) && !daemon.is_finished() => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => {
                return Err(format!(
                    "daemon never listened on {}: {e}",
                    socket.display()
                ))
            }
        }
    };
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut bench = ServeEdit {
        corpus,
        defines,
        top,
        answers,
        daemon: Some(daemon),
        reader,
        writer: stream,
        warm: Counts::default(),
        after_setup: Json::Null,
    };

    // Warm the cache: the unedited corpus, calling the first top define.
    let warm_src = bench.defines.concat() + &format!("(f{} {ARG})\n", bench.top[0]);
    let response = bench.round_trip(&hybrid_request(&warm_src))?;
    let doc = parse(response.trim()).map_err(|e| format!("warm-up response: {e}"))?;
    if doc.get("value").and_then(Json::as_str) != Some(&bench.answers[0].to_string()) {
        return Err(format!("warm-up request failed: {response}"));
    }
    for i in 0..crate::WARMUP_OPS {
        let r = bench.op(i, true);
        if !r.ok {
            return Err("serve-edit warm-up op failed".into());
        }
        bench.warm.add(&r.counts);
    }
    bench.after_setup = bench.metrics()?;
    Ok(bench)
}

/// The base constant of edit `i`: distinct for every edit, so every
/// request carries a define the cache has never seen.
fn base(i: usize) -> i64 {
    i as i64 + 1
}

fn hybrid_request(source: &str) -> String {
    format!("{{\"op\":\"hybrid\",\"source\":{}}}\n", escape(source))
}

impl ServeEdit {
    fn round_trip(&mut self, request: &str) -> Result<String, String> {
        self.writer
            .write_all(request.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    fn metrics(&mut self) -> Result<Json, String> {
        let line = self.round_trip("{\"op\":\"metrics\"}\n")?;
        let doc = parse(line.trim()).map_err(|e| format!("metrics response: {e}"))?;
        doc.get("metrics")
            .cloned()
            .ok_or_else(|| format!("metrics op failed: {line}"))
    }

    /// Edit `i`'s request and its expected value.
    fn edit(&self, i: usize) -> (String, String) {
        let t = i % self.top.len();
        let k = self.top[t];
        let mut src =
            String::with_capacity(self.defines.iter().map(String::len).sum::<usize>() + 64);
        for (j, line) in self.defines.iter().enumerate() {
            if j == k {
                src.push_str(&self.corpus.define(k, base(i)));
            } else {
                src.push_str(line);
            }
        }
        src.push_str(&format!("(f{k} {ARG})\n"));
        (
            hybrid_request(&src),
            (self.answers[t] + base(i)).to_string(),
        )
    }
}

/// Checks a `hybrid` response; returns the parsed document.
fn check(response: &Result<String, String>, expected: &str) -> Result<Json, String> {
    let line = response.as_ref().map_err(Clone::clone)?;
    let doc = parse(line.trim()).map_err(|e| format!("bad response: {e}"))?;
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("request failed: {}", line.trim()));
    }
    match doc.get("value").and_then(Json::as_str) {
        Some(v) if v == expected => Ok(doc),
        other => Err(format!("got {other:?}, expected {expected}")),
    }
}

impl Workload for ServeEdit {
    fn op(&mut self, i: usize, obs: bool) -> OpResult {
        let (request, expected) = self.edit(i);
        let before = if obs { self.metrics().ok() } else { None };
        let start = Instant::now();
        let op = Span::root("bench.op", &[("workload", "serve-edit")]);
        let response = {
            let _s = op.child("serve.client", &[]);
            self.round_trip(&request)
        };
        drop(op);
        let latency = start.elapsed();
        let response_bytes = response.as_ref().map_or(0, String::len) as f64;
        let checked = check(&response, &expected);
        let ok = match &checked {
            Ok(_) => true,
            Err(e) => {
                eprintln!("serve-edit op {i}: {e}");
                false
            }
        };
        let doc = checked.unwrap_or(Json::Null);
        // Observed ops count from the daemon's own registry.
        let mut counts = Counts::default();
        let mut daemon = DaemonTimes {
            response_bytes,
            ..DaemonTimes::default()
        };
        let observed = before.and_then(|b| self.metrics().ok().map(|a| (b, a)));
        if let Some((before, after)) = observed {
            counts = daemon_counts(&before, &after);
            let ms = |name: &str| {
                (histogram(&after, name, "sum") - histogram(&before, name, "sum")) as f64 / 1e3
            };
            daemon.request_ms = ms("serve.latency.hybrid_us");
            daemon.cache_load_ms = ms("cache.load_us");
        }
        counts.defines = ["static", "monitor", "refuted"]
            .iter()
            .map(|k| int_field(&doc, &["plan_summary", k]))
            .sum();
        counts.static_defines = int_field(&doc, &["plan_summary", "static"]);
        OpResult {
            ok,
            latency,
            counts,
            daemon,
        }
    }

    fn warmup_counts(&self) -> Counts {
        self.warm
    }

    fn close(mut self: Box<Self>) -> Option<(u64, u64)> {
        let since_setup = self
            .metrics()
            .ok()
            .map(|now| daemon_counts(&self.after_setup, &now))
            .map(|c| (c.hybrid_skips, c.hybrid_monitored));
        let _ = self.round_trip("{\"op\":\"shutdown\"}\n");
        if let Some(daemon) = self.daemon.take() {
            let _ = self.writer.shutdown(std::net::Shutdown::Both);
            let _ = daemon.join();
        }
        // The socket's directory goes with the run's scratch tree.
        since_setup
    }
}
