//! The `sct serve` daemon: amortize planning across requests and clients.
//!
//! `sct hybrid` pays compile + plan + run per invocation. For the
//! production posture the ROADMAP aims at — many programs, many edits,
//! many clients — the expensive part (symbolic exploration + the
//! Lee–Jones–Ben-Amram closure check) should be paid *once per distinct
//! define*, ever. This module provides the long-running form:
//!
//! * a [`Server`] holds one warm process state — a persistent
//!   [`DecisionStore`] (on-disk via `--cache-dir`, in-memory otherwise)
//!   shared by every request;
//! * each `plan`/`run`/`hybrid` request is served end to end on a
//!   short-lived thread of its own, exactly as `sct hybrid` runs:
//!   compile once, plan whole ([`plan_program`], callees before
//!   callers; skipped for `run`), check
//!   for a refutation, compile the IR, execute (skipped for `plan`). A
//!   plan depends on the program alone — never on scheduling or on other
//!   requests — and nothing of a request outlives its thread;
//! * any number of clients connect over a Unix socket (or a single client
//!   over stdio) and receive independent, correct results — requests
//!   share nothing but the content-addressed store, which is safe by
//!   construction, and parallelism comes from concurrent requests.
//!
//! # Wire protocol
//!
//! Newline-delimited JSON: one request object per line in, one response
//! object per line out, in order. Requests:
//!
//! ```json
//! {"op":"plan",   "source":"(define (f x) …) …", "id":7}
//! {"op":"run",    "source":"…", "fuel":100000}
//! {"op":"hybrid", "source":"…"}
//! {"op":"stats"}
//! {"op":"metrics"}
//! {"op":"shutdown"}
//! ```
//!
//! `id` (any JSON value) is echoed back verbatim for client correlation;
//! `fuel` optionally bounds `run`/`hybrid` executions. Two more optional
//! request fields feed the robustness machinery: `"deadline_ms"` bounds
//! this request's wall-clock budget (capped by the server-wide
//! [`ServeOptions::deadline_ms`] when both are set), and `"client"` names
//! the quota bucket for [`ServeOptions::max_inflight_per_client`]
//! (defaulting to the connection identity). Responses always carry
//! `"ok"` and `"op"`:
//!
//! * `plan` → `{"ok":true,"op":"plan","plan":<sct-plan/3 plan doc>,
//!   "cache":{"hits":H,"misses":M,"warm":bool},"defines":[["name",hit?],…]}`
//!   — `warm` is true when every define loaded from the decision store
//!   (zero symbolic exploration on this request).
//! * `run` / `hybrid` → `{"ok":true,…,"value":"…","output":"…",
//!   "stats":{…}}`, or on failure
//!   `{"ok":false,…,"error":"…","blame":"…"|null,"refuted":bool}` (a
//!   `hybrid` refutation is reported without running, `refuted` =
//!   `true`). `hybrid` responses also carry the `cache` object (so
//!   daemon clients can observe warm-plan behavior per request),
//!   `plan_summary` and `degraded`.
//! * `stats` → request counters, aggregate cache traffic
//!   (`"cache":{"hits":…,"misses":…,"rejected":…,"stores":…,
//!   "quarantined":…}`), the aggregate plan effect
//!   (`"plan":{"static_skips":…,"monitored_calls":…}`) summed over
//!   every execution served, uptime, and per-op latency
//!   summaries (`"latency":{"plan":{"count":…,"p50_us":…,…},…}`).
//!   It is a view of one snapshot of the server's registry — each member
//!   reads one `serve.*`, `cache.*` or `vm.*` metric — so it reconciles
//!   with `metrics` by construction: there is no second ledger.
//! * `metrics` → `{"ok":true,"op":"metrics","metrics":<sct-obs
//!   snapshot>}` — the server's full [`sct_obs::Registry`] snapshot:
//!   every `serve.*`, `cache.*`, `plan.*`, and `vm.*` counter, gauge,
//!   and histogram, coherent at one point in time. With
//!   `"format":"prometheus"` the snapshot arrives instead as
//!   Prometheus-style exposition text under `"text"`.
//! * `shutdown` → `{"ok":true,"op":"shutdown"}`, then the daemon exits
//!   (stdio: the loop returns; socket: the process terminates).
//!
//! Every response also carries `"trace"`: the 16-hex-digit trace id of
//! the request's root span. With `--trace-out FILE` the daemon appends
//! one JSONL event per span start/end (and per notable event — shed
//! decisions, monitor blame with the call-sequence witness) to `FILE`;
//! the echoed id is the join key between a response and its spans.
//!
//! Malformed lines never kill the connection: they produce
//! `{"ok":false,"error":…}` and the daemon keeps reading.
//!
//! # Failure domains and the degradation ladder
//!
//! Every failure is contained to the smallest domain that can absorb it
//! (see `docs/ARCHITECTURE.md` for the full ladder):
//!
//! * **A request's serving thread** is the one panic domain for its
//!   planning and its execution: it lives for one request and shares
//!   nothing but the store. It replies twice — the plan, then the run —
//!   and a panic in either phase drops the pending reply's sender, so
//!   the waiting request sees the disconnect *immediately* — not after
//!   a timeout — and answers with a distinct error. Nothing needs
//!   resetting or respawning; the next request gets a fresh thread.
//! * **A deadline** ([`ServeOptions::deadline_ms`] or the request's
//!   `deadline_ms`) degrades instead of erroring: the planner degrades
//!   the `define`s it reaches past the deadline, and if the serving
//!   thread has not sent a plan at all by then, the request thread
//!   compiles the program, fabricates the whole plan as
//!   `Decision::Monitor` — sound, maximally pessimistic, and never
//!   persisted under content keys — and runs it itself; the plan
//!   channel is a rendezvous, so the serving thread then never runs it.
//!   Fabrication covers planning only: a run stops at the deadline with
//!   a `deadline exceeded` error. A stalled serving thread's late real
//!   answer still lands in the store, so the next request self-heals to
//!   the precise plan.
//! * **Overload** is shed at admission: past
//!   [`ServeOptions::max_queue`] globally or
//!   [`ServeOptions::max_inflight_per_client`] per client, expensive
//!   requests get an immediate well-formed
//!   `{"ok":false,"shed":true,…}` instead of queueing without bound.
//! * **A client connection** failing (read error, thread panic) ends
//!   only that connection; panics are counted in `errors`.
//! * **A poisoned lock** (some thread panicked while holding it) is
//!   recovered, not propagated: every lock in this module protects
//!   plain counters or cache state that is valid under torn updates.
//!
//! The `stats` op exposes the self-healing counters: `requests.shed`,
//! `requests.deadline_exceeded`, and the cache's `quarantined` count.
//!
//! # Examples
//!
//! In-process (no I/O): drive the server with protocol lines directly.
//!
//! ```
//! use sct_contracts::serve::{Server, ServeOptions};
//!
//! let server = Server::new(ServeOptions::default()).unwrap();
//! let req = r#"{"op":"hybrid","source":"(define (len l) (if (null? l) 0 (+ 1 (len (cdr l))))) (len '(1 2 3))"}"#;
//! let out = server.handle_line(req).response.unwrap();
//! assert!(out.contains("\"ok\":true"), "{out}");
//! assert!(out.contains("\"value\":\"3\""), "{out}");
//! ```

use sct_cache::{CacheObs, DiskCache, MemStore};
use sct_core::json::{parse, Json};
use sct_core::monitor::TableStrategy;
use sct_core::plan::{Decision, EnforcementPlan};
use sct_core::plan_codec::encode_plan;
use sct_interp::{EvalError, Machine, MachineConfig, SemanticsMode, Stats};
use sct_lang::ast::Program;
use sct_obs::{trace, Counter, Gauge, Histogram, HistogramSnapshot, Registry};
use sct_symbolic::pipeline::{
    monitor_fallback_decisions, plan_program, DecisionStore, IncrementalStats, PlanConfig, PlanObs,
    DEADLINE_REASON,
};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// How long a request waits for its serving thread's plan before
/// concluding it is wedged, when no deadline bounds it (a defensive bound;
/// planning normally finishes in milliseconds and is budget-capped by
/// [`PlanConfig`]). A planning *panic* is detected immediately regardless
/// — the reply channel disconnects — so this bound only covers a
/// silently stalled planner.
const PLAN_REPLY_TIMEOUT: Duration = Duration::from_secs(300);

/// How long past an expired request deadline the request still accepts
/// the serving thread's plan before fabricating a degraded plan.
/// Long enough for a reply already in flight (store hits, the planner's
/// own in-pass degradation — microseconds) to land; short enough that a
/// genuinely stalled planner cannot stretch the request much past its
/// deadline.
const DEADLINE_GRACE: Duration = Duration::from_millis(100);

/// Locks `m`, recovering from poisoning. Every mutex in this module
/// protects plain counters or cache/state maps that remain valid under a
/// torn update (the worst a panicking holder can leave behind is a lost
/// counter increment or a stale cache entry, both benign), so inheriting
/// a panicked thread's poison — and taking the daemon down with it —
/// would turn a contained failure into total unavailability.
fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Cap on s-expression nesting depth in request sources. The reader,
/// resolver, and digest walks all recurse per nesting level, and a stack
/// overflow is an *abort* — it would take every client down, which the
/// protocol's "malformed lines never kill the daemon" posture forbids.
/// Real programs nest a few dozen levels; the scan is conservative
/// (bracket characters inside string literals count toward the depth).
const MAX_SOURCE_DEPTH: i64 = 1_000;

/// Rejects sources whose bracket nesting could overflow the recursive
/// compile/digest walks. A linear, non-recursive scan.
fn source_depth_ok(source: &str) -> Result<(), String> {
    let mut depth = 0i64;
    let mut max = 0i64;
    for c in source.chars() {
        match c {
            '(' | '[' => {
                depth += 1;
                max = max.max(depth);
            }
            // Clamp at zero: real nesting can never go below zero, but
            // close-brackets hidden where the lexer ignores them (line
            // comments, string literals) could otherwise drive the tally
            // negative and mask arbitrarily deep real nesting from this
            // guard.
            ')' | ']' => depth = (depth - 1).max(0),
            _ => {}
        }
    }
    if max > MAX_SOURCE_DEPTH {
        Err(format!(
            "source nesting depth {max} exceeds the daemon limit of {MAX_SOURCE_DEPTH}"
        ))
    } else {
        Ok(())
    }
}

/// Configuration for [`Server::new`].
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Ignored: every `plan`/`hybrid` request is planned on a thread of
    /// its own, and [`ServeOptions::max_queue`] bounds how many run at
    /// once. Kept only because the benchmark harness still sets it; it
    /// will be removed with the next benchmark change.
    pub threads: usize,
    /// Directory for the persistent plan cache; `None` keeps decisions in
    /// memory only (still warm across requests, lost on exit).
    pub cache_dir: Option<PathBuf>,
    /// Wall-clock budget per `plan`/`run`/`hybrid` request, in
    /// milliseconds. Planning past the deadline degrades to
    /// `Decision::Monitor` (never an error, never persisted); execution
    /// past it stops with a `deadline exceeded` error. `None` leaves
    /// requests unbounded (a request's own `"deadline_ms"` still
    /// applies; with both set the smaller wins).
    pub deadline_ms: Option<u64>,
    /// Admission bound on concurrently executing expensive requests
    /// (`plan`/`run`/`hybrid`) across all clients; past it requests are
    /// shed with `{"ok":false,"shed":true}` instead of queueing. `0`
    /// disables the bound.
    pub max_queue: usize,
    /// Admission bound per client (the request's `"client"` field, else
    /// the connection). `0` disables the bound.
    pub max_inflight_per_client: usize,
}

/// A [`DecisionStore`] view over the shared store: serving threads lock
/// per operation, so store I/O serializes but exploration (the expensive
/// part) runs fully in parallel.
struct SharedStore(Arc<Mutex<Box<dyn DecisionStore + Send>>>);

impl DecisionStore for SharedStore {
    fn load(&mut self, key: &str) -> Option<sct_core::plan_codec::PortableDecision> {
        lock_or_recover(&self.0).load(key)
    }
    fn store(&mut self, key: &str, entry: &sct_core::plan_codec::PortableDecision) {
        lock_or_recover(&self.0).store(key, entry)
    }
}

/// The three expensive ops, each served end to end on a thread of its own.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    Plan,
    Run,
    Hybrid,
}

/// One request as its serving thread needs it.
struct Job {
    op: Op,
    source: String,
    /// The planner's configuration; its `deadline` also bounds execution.
    config: PlanConfig,
    fuel: Option<u64>,
}

/// The serving thread's first reply: the plan as response members
/// (none for `run`, which plans nothing).
#[derive(Default)]
struct Planned {
    members: Vec<(String, Json)>,
    /// How many decisions a deadline degraded to `Monitor`.
    degraded: usize,
    /// True when the request ends at the plan: `plan`, or a refuted
    /// `hybrid`.
    ends: bool,
}

/// The serving thread's second reply: one execution as plain data (the
/// VM's values are `Rc`-based and stay on the thread that ran them).
struct Executed {
    members: Vec<(String, Json)>,
    stats: Stats,
    deadline: bool,
    /// `[function, blame, witness]` of a size-change violation.
    violation: Option<[String; 3]>,
}

/// The plan's response members for `op`.
fn plan_reply(op: Op, plan: &EnforcementPlan, stats: &IncrementalStats) -> Planned {
    // Decisions a deadline degraded, in the planner's own pass or in a
    // fabricated plan: both carry [`DEADLINE_REASON`].
    let degraded = plan
        .decisions
        .iter()
        .filter(|d| matches!(&d.decision, Decision::Monitor { reason } if reason.starts_with(DEADLINE_REASON)))
        .count();
    let degraded_json = ("degraded".into(), Json::Int(degraded as i64));
    if op == Op::Plan {
        let members = vec![
            ("ok".into(), Json::Bool(true)),
            (
                "plan".into(),
                parse(&encode_plan(plan)).expect("plan document is well-formed"),
            ),
            ("cache".into(), cache_json(stats)),
            ("defines".into(), defines_json(stats)),
            degraded_json,
        ];
        return Planned {
            members,
            degraded,
            ends: true,
        };
    }
    // Per-request warm-plan observability: store hits/misses plus the
    // warm bit (a fully warm plan did zero symbolic exploration).
    let mut members = vec![
        ("cache".into(), cache_json(stats)),
        (
            "plan_summary".into(),
            Json::Obj(vec![
                ("static".into(), Json::Int(plan.count("static") as i64)),
                ("monitor".into(), Json::Int(plan.count("monitor") as i64)),
                ("refuted".into(), Json::Int(plan.count("refuted") as i64)),
            ]),
        ),
        degraded_json,
    ];
    let refutation = crate::refutation_error(plan);
    if let Some(err) = &refutation {
        let blame = match err {
            EvalError::Sc(info) => info.blame.as_deref(),
            _ => None,
        };
        members.extend(fail(&format!("{err} (statically refuted before running)")));
        members.push(("refuted".into(), Json::Bool(true)));
        members.push(("blame".into(), opt_str(blame)));
    }
    Planned {
        members,
        degraded,
        ends: refutation.is_some(),
    }
}

/// Compiles `program` to IR and runs it: monitored under `plan` when
/// there is one, under the standard semantics otherwise.
fn execute(
    program: &Program,
    plan: Option<EnforcementPlan>,
    fuel: Option<u64>,
    deadline: Option<Instant>,
) -> Executed {
    let config = match plan {
        Some(plan) => MachineConfig {
            mode: SemanticsMode::Monitored,
            fuel,
            deadline,
            plan: Some(Rc::new(plan)),
            ..MachineConfig::monitored(TableStrategy::Imperative)
        },
        None => MachineConfig {
            fuel,
            deadline,
            ..MachineConfig::standard()
        },
    };
    let mut machine = Machine::new(program, config);
    let result = machine.run();
    let mut violation = None;
    let mut members = match &result {
        Ok(v) => vec![
            ("ok".into(), Json::Bool(true)),
            ("value".into(), Json::str(v.to_write_string())),
        ],
        Err(e) => {
            let mut blame = None;
            if let EvalError::Sc(info) = e {
                blame = info.blame.as_deref();
                violation = Some([
                    info.function.clone(),
                    blame.unwrap_or("whole-program").to_owned(),
                    info.violation.to_string(),
                ]);
            }
            let mut members = fail(&e.to_string());
            members.push(("blame".into(), opt_str(blame)));
            members.push(("refuted".into(), Json::Bool(false)));
            members
        }
    };
    members.push(("output".into(), Json::str(&machine.output)));
    members.push(("stats".into(), stats_json(&machine.stats)));
    Executed {
        members,
        stats: machine.stats,
        deadline: matches!(result, Err(EvalError::Deadline)),
        violation,
    }
}

/// The body of a request's serving thread: compile once, plan (not for
/// `run`), send the plan, then — unless the plan ends the request —
/// compile the IR, run, and send the result. The program, its plan and
/// its IR all die with the thread.
fn serve_job(
    job: Job,
    mut store: SharedStore,
    plan_tx: mpsc::SyncSender<Result<Planned, String>>,
    exec_tx: mpsc::Sender<Executed>,
) {
    if job.op != Op::Run {
        // Fault-injection site: a `panic` here unwinds the thread and
        // drops the plan sender — the disconnect the first wait must
        // detect immediately.
        sct_faults::act("serve.plan");
    }
    let program = match sct_lang::compile_program(&job.source) {
        Ok(program) => program,
        Err(e) => {
            let _ = plan_tx.send(Err(format!("compile error: {e}")));
            return;
        }
    };
    let plan = (job.op != Op::Run).then(|| plan_program(&program, &job.config, &mut store));
    let planned = plan
        .as_ref()
        .map_or_else(Planned::default, |(p, s)| plan_reply(job.op, p, s));
    let ends = planned.ends;
    // The plan channel is a rendezvous: a failed send means the request
    // stopped waiting and runs a fabricated plan itself, so this thread
    // must not run the program too.
    if plan_tx.send(Ok(planned)).is_err() || ends {
        return;
    }
    // Fault-injection site: a `panic` here drops the execution sender
    // after the plan was delivered.
    sct_faults::act("serve.execute");
    let plan = plan.map(|(plan, _)| plan);
    let _ = exec_tx.send(execute(&program, plan, job.fuel, job.config.deadline));
}

/// Waits for the serving thread's plan. `Ok(None)` means `deadline`
/// passed with no plan even after a short grace: the caller fabricates
/// the all-`Decision::Monitor` plan (the degradation ladder) instead of
/// failing the request. Without a deadline, only a panic (immediate) or
/// the defensive [`PLAN_REPLY_TIMEOUT`] ends the wait early, both as
/// distinct errors.
fn await_plan(
    rx: &mpsc::Receiver<Result<Planned, String>>,
    deadline: Option<Instant>,
) -> Result<Option<Planned>, String> {
    let mut in_grace = false;
    loop {
        let timeout = match deadline {
            Some(d) => match d.checked_duration_since(Instant::now()) {
                Some(left) => left.min(PLAN_REPLY_TIMEOUT),
                // Past the deadline, a reply already in flight gets one
                // short grace to land: an expired deadline still honors
                // store hits and the planner's own (fast) in-pass
                // degradation — fabrication is only for a serving
                // thread that is truly stuck.
                None => {
                    in_grace = true;
                    DEADLINE_GRACE
                }
            },
            None => PLAN_REPLY_TIMEOUT,
        };
        match rx.recv_timeout(timeout) {
            Ok(reply) => return reply.map(Some),
            // The sender is gone without a reply: the thread panicked.
            // Fail *now* with the real cause — waiting out a timeout
            // would wedge the client for minutes on a lost request.
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err("planning thread panicked (retry the request)".to_string());
            }
            Err(mpsc::RecvTimeoutError::Timeout) if in_grace => return Ok(None),
            Err(mpsc::RecvTimeoutError::Timeout) if deadline.is_none() => {
                return Err("planning thread did not answer".to_string());
            }
            // The deadline passed during this wait; loop again to enter
            // the grace window.
            Err(mpsc::RecvTimeoutError::Timeout) => {}
        }
    }
}

/// The daemon's metric handles, registered once at construction on the
/// server's **own** [`Registry`] (the test suite runs many servers in one
/// process, and their counts must not bleed into each other). The
/// registry is the daemon's only ledger: the `stats` op and the
/// `metrics` op both read it, so their numbers reconcile exactly.
struct ServerMetrics {
    /// The server's registry — also handed to the cache ([`CacheObs`])
    /// and the planner ([`PlanObs`]), and published to by the VM after
    /// each execution, so one snapshot covers every layer.
    registry: Arc<Registry>,
    plan: Counter,
    run: Counter,
    hybrid: Counter,
    stats: Counter,
    metrics: Counter,
    errors: Counter,
    /// Requests refused at admission (queue or per-client bound).
    shed: Counter,
    /// Requests whose deadline fired — a degraded plan or a stopped run.
    deadline_exceeded: Counter,
    /// Expensive requests currently admitted, across all clients: the
    /// level admission control checks against [`ServeOptions::max_queue`].
    inflight: Gauge,
    /// Per-op request latency, microseconds, whole-request (parse to
    /// response).
    latency_plan: Histogram,
    latency_run: Histogram,
    latency_hybrid: Histogram,
    latency_stats: Histogram,
    latency_metrics: Histogram,
}

impl ServerMetrics {
    fn register(registry: Arc<Registry>) -> ServerMetrics {
        ServerMetrics {
            plan: registry.counter("serve.requests.plan"),
            run: registry.counter("serve.requests.run"),
            hybrid: registry.counter("serve.requests.hybrid"),
            stats: registry.counter("serve.requests.stats"),
            metrics: registry.counter("serve.requests.metrics"),
            errors: registry.counter("serve.errors"),
            shed: registry.counter("serve.shed"),
            deadline_exceeded: registry.counter("serve.deadline_exceeded"),
            inflight: registry.gauge("serve.inflight"),
            latency_plan: registry.histogram("serve.latency.plan_us"),
            latency_run: registry.histogram("serve.latency.run_us"),
            latency_hybrid: registry.histogram("serve.latency.hybrid_us"),
            latency_stats: registry.histogram("serve.latency.stats_us"),
            latency_metrics: registry.histogram("serve.latency.metrics_us"),
            registry,
        }
    }

    /// The latency histogram for a known op (`None` for `shutdown`,
    /// unknown ops, and unparseable lines).
    fn latency_for(&self, op: &str) -> Option<&Histogram> {
        match op {
            "plan" => Some(&self.latency_plan),
            "run" => Some(&self.latency_run),
            "hybrid" => Some(&self.latency_hybrid),
            "stats" => Some(&self.latency_stats),
            "metrics" => Some(&self.latency_metrics),
            _ => None,
        }
    }
}

/// The daemon state: shared decision store, admission, metrics. One
/// `Server` serves any number of sequential or concurrent clients; see
/// the module docs for the protocol.
pub struct Server {
    store: Arc<Mutex<Box<dyn DecisionStore + Send>>>,
    metrics: ServerMetrics,
    cache_dir: Option<PathBuf>,
    deadline_ms: Option<u64>,
    max_queue: usize,
    max_inflight_per_client: usize,
    /// Admitted-request count per client bucket.
    per_client: Mutex<HashMap<String, usize>>,
    started: Instant,
    quitting: AtomicBool,
}

/// RAII token for one admitted expensive request: dropping it releases
/// the global and per-client in-flight slots, however the request ends
/// (success, error, or panic unwinding through the client thread).
struct Admitted<'a> {
    server: &'a Server,
    client: String,
}

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        self.server.metrics.inflight.dec();
        let mut per = lock_or_recover(&self.server.per_client);
        match per.get_mut(&self.client) {
            Some(n) if *n > 1 => *n -= 1,
            _ => {
                per.remove(&self.client);
            }
        }
    }
}

/// What [`Server::handle_line`] produced: at most one response line, plus
/// whether the daemon was asked to shut down.
#[derive(Debug, Clone)]
pub struct LineOutcome {
    /// The response to write back (`None` for blank input lines).
    pub response: Option<String>,
    /// True after a `shutdown` request: stop reading.
    pub quit: bool,
}

impl Server {
    /// Builds the daemon state: opens (or creates) the cache directory
    /// when one is configured.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when `cache_dir` cannot be created.
    pub fn new(options: ServeOptions) -> io::Result<Server> {
        // The server's own registry — every layer below (cache, planner,
        // VM publishes) reports into it, so one `metrics` snapshot covers
        // the whole daemon, and `stats` is a view of it.
        let registry = Arc::new(Registry::new());
        let metrics = ServerMetrics::register(Arc::clone(&registry));
        let obs = CacheObs::register(&registry);
        let store: Box<dyn DecisionStore + Send> = match &options.cache_dir {
            Some(dir) => Box::new(DiskCache::open(dir)?.with_obs(obs)),
            None => Box::new(MemStore::new().with_obs(obs)),
        };
        let store = Arc::new(Mutex::new(store));
        Ok(Server {
            store,
            metrics,
            cache_dir: options.cache_dir,
            deadline_ms: options.deadline_ms,
            max_queue: options.max_queue,
            max_inflight_per_client: options.max_inflight_per_client,
            per_client: Mutex::new(HashMap::new()),
            started: Instant::now(),
            quitting: AtomicBool::new(false),
        })
    }

    /// Admission control for expensive requests. Checks the global bound
    /// first (it protects the process), then the per-client quota, under
    /// one lock so concurrent admissions cannot both sneak past a bound:
    /// the `serve.inflight` gauge only grows under that lock.
    fn admit(&self, client: &str) -> Result<Admitted<'_>, String> {
        let mut per = lock_or_recover(&self.per_client);
        let inflight = self.metrics.inflight.get();
        if self.max_queue > 0 && inflight >= self.max_queue as i64 {
            return Err(format!(
                "overloaded: {inflight} requests in flight (max {}); retry later",
                self.max_queue
            ));
        }
        let mine = per.get(client).copied().unwrap_or(0);
        if self.max_inflight_per_client > 0 && mine >= self.max_inflight_per_client {
            return Err(format!(
                "client {client:?} quota exceeded: {mine} requests in flight (max {})",
                self.max_inflight_per_client
            ));
        }
        *per.entry(client.to_string()).or_insert(0) += 1;
        self.metrics.inflight.inc();
        Ok(Admitted {
            server: self,
            client: client.to_string(),
        })
    }

    /// The wall-clock budget for one request: the server-wide option,
    /// the request's own `"deadline_ms"`, or (when both are set) the
    /// smaller — a client may tighten the server bound, never loosen it.
    fn request_deadline(&self, req: &Json) -> Option<Instant> {
        let from_req = req.get("deadline_ms").and_then(Json::as_u64);
        let ms = match (self.deadline_ms, from_req) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        ms.map(|ms| Instant::now() + Duration::from_millis(ms))
    }

    /// Handles one protocol line. Never panics on malformed input; blank
    /// lines are ignored (keep-alive friendly). Equivalent to
    /// [`Server::handle_line_as`] with the `"local"` client identity.
    pub fn handle_line(&self, line: &str) -> LineOutcome {
        self.handle_line_as("local", line)
    }

    /// [`Server::handle_line`] on behalf of a named client connection:
    /// `client` is the quota bucket for
    /// [`ServeOptions::max_inflight_per_client`] unless the request
    /// carries its own `"client"` field.
    pub fn handle_line_as(&self, client: &str, line: &str) -> LineOutcome {
        let line = line.trim();
        if line.is_empty() {
            return LineOutcome {
                response: None,
                quit: false,
            };
        }
        let (response, quit) = match parse(line) {
            Ok(req) => self.dispatch(&req, client),
            Err(e) => {
                self.metrics.errors.inc();
                (
                    Json::Obj(vec![
                        ("ok".into(), Json::Bool(false)),
                        // The protocol promises "op" on every response;
                        // an unparseable line has no op to echo.
                        ("op".into(), Json::Null),
                        ("error".into(), Json::str(format!("bad request: {e}"))),
                    ]),
                    false,
                )
            }
        };
        LineOutcome {
            response: Some(response.to_string()),
            quit,
        }
    }

    fn dispatch(&self, req: &Json, client: &str) -> (Json, bool) {
        let op = req.get("op").and_then(Json::as_str).unwrap_or("");
        let id = req.get("id").cloned();
        let started = Instant::now();
        // One root span per request. Ids are always allocated (the trace
        // id is echoed in the response either way); events only reach the
        // sink when `--trace-out` armed it.
        let span = trace::Span::root("serve.request", &[("op", op), ("client", client)]);
        let mut quit = false;
        let mut members: Vec<(String, Json)> = Vec::new();
        match op {
            "plan" | "run" | "hybrid" => {
                // Admission first: a shed request is accounted once,
                // under `shed`, and never reaches a planner or a machine.
                let bucket = req.get("client").and_then(Json::as_str).unwrap_or(client);
                match self.admit(bucket) {
                    Ok(_slot) => {
                        let (requests, op) = match op {
                            "plan" => (&self.metrics.plan, Op::Plan),
                            "run" => (&self.metrics.run, Op::Run),
                            _ => (&self.metrics.hybrid, Op::Hybrid),
                        };
                        requests.inc();
                        members = self.op_serve(op, req, &span);
                    }
                    Err(reason) => {
                        self.metrics.shed.inc();
                        span.event("shed", &[("reason", &reason)]);
                        members.push(("ok".into(), Json::Bool(false)));
                        members.push(("error".into(), Json::str(reason)));
                        members.push(("shed".into(), Json::Bool(true)));
                    }
                }
            }
            "stats" => {
                self.metrics.stats.inc();
                members = self.op_stats();
            }
            "metrics" => {
                self.metrics.metrics.inc();
                members = self.op_metrics(req);
            }
            "shutdown" => {
                self.quitting.store(true, Ordering::SeqCst);
                members.push(("ok".into(), Json::Bool(true)));
                quit = true;
            }
            other => {
                self.metrics.errors.inc();
                members.push(("ok".into(), Json::Bool(false)));
                members.push((
                    "error".into(),
                    Json::str(format!(
                        "unknown op {other:?} (expected plan|run|hybrid|stats|metrics|shutdown)"
                    )),
                ));
            }
        }
        let mut full = vec![(
            "op".into(),
            if op.is_empty() {
                Json::Null
            } else {
                Json::str(op)
            },
        )];
        if let Some(id) = id {
            full.push(("id".into(), id));
        }
        full.extend(members);
        // Per-request correlation: the response always names its trace id
        // so a client can find this request's spans in the JSONL sink.
        full.push(("trace".into(), Json::str(span.trace_hex())));
        // Normalize: "ok" first for human eyeballs on the wire.
        full.sort_by_key(|(k, _)| k != "ok");
        if let Some(h) = self.metrics.latency_for(op) {
            h.record_elapsed_us(started);
        }
        (Json::Obj(full), quit)
    }

    /// Serves one `plan`/`run`/`hybrid` request end to end on a
    /// short-lived thread of its own ([`serve_job`]): one compile, the
    /// plan (not for `run`), then the run (not for `plan`). This thread
    /// only waits on the two replies, inside the `plan` and `execute`
    /// spans; it compiles only when it fabricates the deadline fallback
    /// plan, which it then runs itself.
    fn op_serve(&self, op: Op, req: &Json, span: &trace::Span) -> Vec<(String, Json)> {
        let Some(source) = req.get("source").and_then(Json::as_str) else {
            return fail("missing \"source\"");
        };
        // Guard the recursive compile/digest walks before any compile.
        if let Err(e) = source_depth_ok(source) {
            return fail(&e);
        }
        // One deadline spans the whole request: planning spends from the
        // same budget the execution finishes on.
        let deadline = self.request_deadline(req);
        let fuel = req.get("fuel").and_then(Json::as_u64);
        let job = Job {
            op,
            source: source.to_string(),
            config: PlanConfig {
                deadline,
                obs: PlanObs::registered(Arc::clone(&self.metrics.registry)),
                ..PlanConfig::default()
            },
            fuel,
        };
        let store = SharedStore(Arc::clone(&self.store));
        let (plan_tx, plan_rx) = mpsc::sync_channel(0);
        let (exec_tx, exec_rx) = mpsc::channel();
        if let Err(e) = thread::Builder::new()
            .name("sct-serve".into())
            .spawn(move || serve_job(job, store, plan_tx, exec_tx))
        {
            return fail(&format!("cannot start a serving thread: {e}"));
        }
        let plan_span = span.child("plan", &[]);
        // `run` plans nothing, so there is nothing to fabricate: its
        // deadline bounds the execution only.
        let waited = await_plan(&plan_rx, deadline.filter(|_| op != Op::Run));
        drop(plan_span);
        let (planned, fallback) = match waited {
            Ok(Some(planned)) => (planned, None),
            Ok(None) => {
                // The degradation ladder's bottom rung: a sound, maximally
                // pessimistic plan, never persisted (no store call here),
                // so one slow moment cannot pin pessimism under a content
                // key. Dropping the receiver first makes the serving
                // thread's late plan send fail, so it never runs too.
                drop(plan_rx);
                let program = match sct_lang::compile_program(source) {
                    Ok(program) => program,
                    Err(e) => return fail(&format!("compile error: {e}")),
                };
                let (plan, stats) = monitor_fallback_decisions(&program, DEADLINE_REASON);
                (plan_reply(op, &plan, &stats), Some((program, plan)))
            }
            Err(e) => return fail(&e),
        };
        if planned.degraded > 0 {
            self.metrics.deadline_exceeded.inc();
        }
        if planned.ends {
            return planned.members;
        }
        let exec_span = span.child("execute", &[]);
        let executed = match fallback {
            Some((program, plan)) => Ok(execute(&program, Some(plan), fuel, deadline)),
            None => exec_rx.recv(),
        };
        drop(exec_span);
        match executed {
            Ok(executed) => {
                let mut out = self.note_run(executed, span);
                out.extend(planned.members);
                out
            }
            // The execution sender is gone without a reply: the run
            // panicked. Answered at once, like a planning panic.
            Err(_) => fail("execution thread panicked (retry the request)"),
        }
    }

    /// Accounts one execution in the daemon's metrics and returns its
    /// response members.
    fn note_run(&self, executed: Executed, span: &trace::Span) -> Vec<(String, Json)> {
        if executed.deadline {
            self.metrics.deadline_exceeded.inc();
        }
        // The per-run VM statistics land in the registry, so `vm.*`
        // aggregates every execution this daemon served; the `stats` op
        // reads its `plan` object from there.
        executed.stats.publish(&self.metrics.registry);
        if let Some([function, blame, witness]) = &executed.violation {
            // The monitor's verdict as a trace event, carrying the
            // call-sequence witness that convicted the function.
            span.event(
                "monitor.blame",
                &[
                    ("function", function),
                    ("blame", blame),
                    ("witness", witness),
                ],
            );
        }
        executed.members
    }

    /// The `stats` op: a view of one registry snapshot, so every number
    /// in it reconciles with the `metrics` op by construction.
    fn op_stats(&self) -> Vec<(String, Json)> {
        let snap = self.metrics.registry.snapshot();
        // An object whose members read the named counters.
        let counters = |members: &[(&str, &str)]| {
            Json::Obj(
                members
                    .iter()
                    .map(|&(member, name)| {
                        let v = snap.counter(name).unwrap_or(0);
                        (member.into(), Json::Int(v.min(i64::MAX as u64) as i64))
                    })
                    .collect(),
            )
        };
        vec![
            ("ok".into(), Json::Bool(true)),
            (
                "requests".into(),
                counters(&[
                    ("plan", "serve.requests.plan"),
                    ("run", "serve.requests.run"),
                    ("hybrid", "serve.requests.hybrid"),
                    ("stats", "serve.requests.stats"),
                    ("metrics", "serve.requests.metrics"),
                    ("errors", "serve.errors"),
                    ("shed", "serve.shed"),
                    ("deadline_exceeded", "serve.deadline_exceeded"),
                ]),
            ),
            (
                "cache".into(),
                counters(&[
                    ("hits", "cache.hits"),
                    ("misses", "cache.misses"),
                    ("rejected", "cache.rejected"),
                    ("stores", "cache.stores"),
                    ("quarantined", "cache.quarantined"),
                ]),
            ),
            (
                // Aggregate run-time plan effect, mirroring the CLI's
                // `; plan: S static skips, M monitored calls` line.
                "plan".into(),
                counters(&[
                    ("static_skips", "vm.static_skips"),
                    ("monitored_calls", "vm.monitored_calls"),
                ]),
            ),
            (
                "cache_dir".into(),
                opt_str(self.cache_dir.as_ref().and_then(|p| p.to_str())),
            ),
            (
                "uptime_ms".into(),
                Json::Int(self.started.elapsed().as_millis().min(i64::MAX as u128) as i64),
            ),
            (
                // Per-op request latency summaries from the same
                // histograms the `metrics` op exposes in full.
                "latency".into(),
                Json::Obj(
                    ["plan", "run", "hybrid", "stats", "metrics"]
                        .into_iter()
                        .map(|op| {
                            let h = snap.histogram(&format!("serve.latency.{op}_us"));
                            (op.to_string(), latency_json(h))
                        })
                        .collect(),
                ),
            ),
        ]
    }

    /// The `metrics` op: a coherent point-in-time snapshot of the
    /// server's whole registry — every counter, gauge, and histogram
    /// across serve, cache, planner, and VM — as the `sct-obs` JSON
    /// document, or as Prometheus-style text when the request carries
    /// `"format":"prometheus"`.
    fn op_metrics(&self, req: &Json) -> Vec<(String, Json)> {
        let snap = self.metrics.registry.snapshot();
        let mut out = vec![("ok".into(), Json::Bool(true))];
        match req.get("format").and_then(Json::as_str) {
            Some("prometheus") => {
                out.push(("format".into(), Json::str("prometheus")));
                out.push(("text".into(), Json::str(snap.to_prometheus())));
            }
            _ => {
                let doc = parse(&snap.to_json()).expect("snapshot JSON is well-formed");
                out.push(("metrics".into(), doc));
            }
        }
        out
    }
}

fn fail(message: &str) -> Vec<(String, Json)> {
    vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::str(message)),
    ]
}

fn opt_str(s: Option<&str>) -> Json {
    match s {
        Some(s) => Json::str(s),
        None => Json::Null,
    }
}

/// `{count, p50_us, p90_us, p99_us}` for one latency histogram; the
/// quantile keys are omitted while the histogram is empty.
fn latency_json(snap: Option<&HistogramSnapshot>) -> Json {
    let count = snap.map_or(0, |h| h.count);
    let mut members = vec![("count".into(), Json::Int(count.min(i64::MAX as u64) as i64))];
    for (key, q) in [("p50_us", 0.50), ("p90_us", 0.90), ("p99_us", 0.99)] {
        if let Some(v) = snap.and_then(|h| h.quantile(q)) {
            members.push((key.into(), Json::Int(v.min(i64::MAX as u64) as i64)));
        }
    }
    Json::Obj(members)
}

fn cache_json(stats: &IncrementalStats) -> Json {
    Json::Obj(vec![
        ("hits".into(), Json::Int(stats.hits() as i64)),
        ("misses".into(), Json::Int(stats.misses() as i64)),
        // A fully warm request re-verified nothing: every define loaded
        // from the decision store.
        ("warm".into(), Json::Bool(stats.misses() == 0)),
    ])
}

fn defines_json(stats: &IncrementalStats) -> Json {
    Json::Arr(
        stats
            .defines
            .iter()
            .map(|(name, hit)| Json::Arr(vec![Json::str(name), Json::Bool(*hit)]))
            .collect(),
    )
}

fn stats_json(s: &Stats) -> Json {
    Json::Obj(vec![
        ("steps".into(), Json::Int(s.steps as i64)),
        ("applications".into(), Json::Int(s.applications as i64)),
        ("monitored".into(), Json::Int(s.monitored_calls as i64)),
        ("checks".into(), Json::Int(s.checks as i64)),
        ("static_skips".into(), Json::Int(s.static_skips as i64)),
        ("max_kont".into(), Json::Int(s.max_kont_depth as i64)),
    ])
}

/// Cap on one request line. The JSON parser's depth guard protects the
/// stack; this protects the heap — without it, a client streaming bytes
/// with no newline would grow the daemon's memory without bound.
const MAX_LINE_BYTES: u64 = 8 * 1024 * 1024;

/// One read attempt's outcome.
enum RequestLine {
    /// A complete line (newline included), lossily decoded.
    Line(String),
    /// The line exceeded [`MAX_LINE_BYTES`]: answer with an error and
    /// close the connection (draining an unbounded line would keep the
    /// daemon busy on the abuser's behalf).
    TooLong,
    /// EOF or a read error: stop reading.
    Eof,
}

/// Reads one `\n`-terminated line as *bytes* and lossily decodes it.
/// `lines()` would error out (and kill the session) on invalid UTF-8;
/// here such a line reaches `handle_line` as replacement-charactered
/// text, fails JSON parsing, and gets the documented `{"ok":false}`
/// response instead.
fn read_request_line<R: BufRead>(reader: &mut R) -> RequestLine {
    let mut bytes = Vec::new();
    // `&mut R` is itself a reader, so `take` borrows rather than consumes.
    let mut limited = io::Read::take(&mut *reader, MAX_LINE_BYTES);
    match limited.read_until(b'\n', &mut bytes) {
        Ok(0) | Err(_) => RequestLine::Eof,
        Ok(n) if n as u64 >= MAX_LINE_BYTES && !bytes.ends_with(b"\n") => RequestLine::TooLong,
        Ok(_) => RequestLine::Line(String::from_utf8_lossy(&bytes).into_owned()),
    }
}

/// The response sent for a [`RequestLine::TooLong`] read.
fn too_long_response() -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        (
            "error".into(),
            Json::str(format!("request line exceeds {MAX_LINE_BYTES} bytes")),
        ),
    ])
    .to_string()
}

/// Serves one client over stdin/stdout, returning at EOF or `shutdown`.
/// This is `sct serve`'s default mode — the shape scripts and editors
/// pipe into.
///
/// # Errors
///
/// Propagates stdout write failures (a broken pipe ends the session).
pub fn serve_stdio(server: &Server) -> io::Result<()> {
    let stdin = io::stdin();
    let mut reader = stdin.lock();
    let mut stdout = io::stdout().lock();
    loop {
        let line = match read_request_line(&mut reader) {
            RequestLine::Line(line) => line,
            RequestLine::TooLong => {
                writeln!(stdout, "{}", too_long_response())?;
                stdout.flush()?;
                break;
            }
            RequestLine::Eof => break,
        };
        let outcome = server.handle_line_as("stdio", &line);
        if let Some(response) = outcome.response {
            writeln!(stdout, "{response}")?;
            stdout.flush()?;
        }
        if outcome.quit {
            break;
        }
    }
    Ok(())
}

fn serve_client(server: &Server, stream: UnixStream, client: &str) {
    let Ok(read) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read);
    let mut writer = stream;
    loop {
        // Fault-injection site: a read fault drops this one connection —
        // the connection is its own failure domain, the daemon and every
        // other client keep going.
        if sct_faults::io_check("serve.client.read").is_err() {
            break;
        }
        let line = match read_request_line(&mut reader) {
            RequestLine::Line(line) => line,
            RequestLine::TooLong => {
                let _ = writeln!(writer, "{}", too_long_response());
                break;
            }
            RequestLine::Eof => break,
        };
        let outcome = server.handle_line_as(client, &line);
        if let Some(response) = outcome.response {
            if writeln!(writer, "{response}")
                .and_then(|()| writer.flush())
                .is_err()
            {
                break;
            }
        }
        if outcome.quit {
            break;
        }
    }
}

/// Binds `path` and serves clients until a `shutdown` request arrives.
/// Each accepted connection gets its own thread, each `plan`/`run`/
/// `hybrid` request a serving thread of its own, and the persistent
/// store is safe under the concurrency (atomic publishes, content-
/// addressed keys).
///
/// An existing socket file at `path` is removed first (the daemon owns
/// its rendezvous path, and a stale file from a dead daemon would
/// otherwise block every restart).
///
/// On `shutdown`, every open client connection is closed (a blocked read
/// sees EOF) and in-flight requests are allowed to finish before the
/// function returns. One inherent caveat: an in-flight `run` of a
/// non-terminating program with no `fuel` bound cannot be interrupted —
/// monitored (`hybrid`) runs always terminate, but the standard
/// semantics does not, so operators exposing `run` to untrusted clients
/// should require `fuel`.
///
/// # Errors
///
/// Propagates bind errors; per-connection I/O errors only end that
/// connection.
pub fn serve_unix(server: Arc<Server>, path: &std::path::Path) -> io::Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    eprintln!("sct serve: listening on {}", path.display());
    // Poll accept with a timeout so a `shutdown` from one client stops
    // the accept loop too (not just that client's thread).
    listener.set_nonblocking(true)?;
    // Live connections: the thread plus a stream handle shutdown uses to
    // unblock its read. Finished entries are *joined* each loop iteration
    // — not just dropped — so a long-running daemon neither leaks one fd
    // per past client nor loses track of a client thread that panicked
    // (a daemon bug worth counting, never worth dying for).
    let mut clients: Vec<(thread::JoinHandle<()>, UnixStream)> = Vec::new();
    let mut accept_errors = 0u32;
    let mut next_client = 0u64;
    while !server.quitting.load(Ordering::SeqCst) {
        let mut i = 0;
        while i < clients.len() {
            if clients[i].0.is_finished() {
                let (handle, _) = clients.swap_remove(i);
                if handle.join().is_err() {
                    server.metrics.errors.inc();
                    eprintln!("sct serve: client thread panicked; connection dropped");
                }
            } else {
                i += 1;
            }
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                accept_errors = 0;
                // Fault-injection site: an accept fault drops just this
                // connection (the client sees EOF); the listener lives.
                if sct_faults::io_check("serve.accept").is_err() {
                    continue;
                }
                // The listener's O_NONBLOCK must not leak onto the
                // connection: BSD-derived platforms (macOS) inherit it
                // through accept, which would make every client read fail
                // with WouldBlock. Linux does not inherit; setting it
                // explicitly is correct on both.
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                let Ok(handle) = stream.try_clone() else {
                    continue;
                };
                let server = Arc::clone(&server);
                let client = format!("conn-{next_client}");
                next_client += 1;
                clients.push((
                    thread::spawn(move || serve_client(&server, stream, &client)),
                    handle,
                ));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(20));
            }
            Err(_) => {
                // Transient accept failures (ECONNABORTED, EMFILE while a
                // burst drains) must not take the daemon down; only a
                // persistently failing listener stops the loop.
                accept_errors += 1;
                if accept_errors > 64 {
                    break;
                }
                thread::sleep(Duration::from_millis(20));
            }
        }
    }
    // Shutdown: close the *read* half of every client connection so reads
    // blocked in `read_request_line` see EOF — otherwise joining below
    // would hang until every idle client chose to disconnect. The write
    // half stays open so a response to an in-flight request still drains.
    for (_, stream) in &clients {
        let _ = stream.shutdown(std::net::Shutdown::Read);
    }
    for (handle, _) in clients {
        let _ = handle.join();
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> Server {
        Server::new(ServeOptions::default()).unwrap()
    }

    fn ok_line(s: &Server, req: &str) -> Json {
        let out = s.handle_line(req).response.unwrap();
        parse(&out).unwrap_or_else(|e| panic!("bad response {out}: {e}"))
    }

    #[test]
    fn plan_twice_hits_warm_store() {
        let s = server();
        let req = r#"{"op":"plan","source":"(define (inc x) (+ x 1)) (define (sum i a) (if (zero? i) a (sum (- i 1) (+ a i))))"}"#;
        let first = ok_line(&s, req);
        assert_eq!(first.get("ok"), Some(&Json::Bool(true)));
        let c = first.get("cache").unwrap();
        assert_eq!(c.get("hits").and_then(Json::as_i64), Some(0));
        assert_eq!(c.get("misses").and_then(Json::as_i64), Some(2));
        let second = ok_line(&s, req);
        let c = second.get("cache").unwrap();
        assert_eq!(c.get("hits").and_then(Json::as_i64), Some(2));
        assert_eq!(c.get("misses").and_then(Json::as_i64), Some(0));
        // The plan payload is the sct-plan/3 plan document.
        let doc = second.get("plan").unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("sct-plan/3"));
    }

    #[test]
    fn hybrid_runs_and_reports_skips() {
        let s = server();
        let out = ok_line(
            &s,
            r#"{"op":"hybrid","id":41,"source":"(define (sum i a) (if (zero? i) a (sum (- i 1) (+ a i)))) (sum 100 0)"}"#,
        );
        assert_eq!(out.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(out.get("id").and_then(Json::as_i64), Some(41));
        assert_eq!(out.get("value").and_then(Json::as_str), Some("5050"));
        let stats = out.get("stats").unwrap();
        assert_eq!(stats.get("checks").and_then(Json::as_i64), Some(0));
        assert!(stats.get("static_skips").and_then(Json::as_i64).unwrap() > 0);
    }

    #[test]
    fn hybrid_refutes_eagerly_with_blame() {
        let s = server();
        let out = ok_line(
            &s,
            r#"{"op":"hybrid","source":"(define f (terminating/c (lambda (x) (f x)) \"my-party\")) (f 1)"}"#,
        );
        assert_eq!(out.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(out.get("refuted"), Some(&Json::Bool(true)));
        assert_eq!(out.get("blame").and_then(Json::as_str), Some("my-party"));
    }

    #[test]
    fn run_reports_dynamic_blame() {
        let s = server();
        let out = ok_line(
            &s,
            r#"{"op":"run","source":"(define f (terminating/c (lambda (x) (f x)) \"p\")) (f 1)"}"#,
        );
        assert_eq!(out.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(out.get("blame").and_then(Json::as_str), Some("p"));
        assert_eq!(out.get("refuted"), Some(&Json::Bool(false)));
    }

    #[test]
    fn bad_lines_do_not_kill_the_session() {
        let s = server();
        for bad in ["garbage", "{\"op\":\"nope\"}", "{\"op\":\"plan\"}"] {
            let out = ok_line(&s, bad);
            assert_eq!(out.get("ok"), Some(&Json::Bool(false)), "{bad}");
        }
        // Still serving afterwards.
        let out = ok_line(&s, r#"{"op":"stats"}"#);
        assert_eq!(out.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            out.get("requests")
                .and_then(|r| r.get("errors"))
                .and_then(Json::as_i64),
            Some(2)
        );
    }

    #[test]
    fn depth_guard_survives_comment_hidden_closers() {
        // Close-brackets inside a `;` line comment are invisible to the
        // lexer but once drove the guard's tally negative, masking the
        // real nesting that follows — a reproduced daemon abort.
        let s = server();
        let depth = 200_000;
        let source = format!(
            ";{}\\n{}1{}",
            ")".repeat(depth),
            "(".repeat(depth),
            ")".repeat(depth)
        );
        let out = ok_line(&s, &format!(r#"{{"op":"plan","source":"{source}"}}"#));
        assert_eq!(out.get("ok"), Some(&Json::Bool(false)), "{out:?}");
        assert!(
            out.get("error")
                .and_then(Json::as_str)
                .unwrap()
                .contains("nesting depth"),
            "{out:?}"
        );
        let out = ok_line(&s, r#"{"op":"stats"}"#);
        assert_eq!(out.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn deeply_nested_source_is_rejected_not_fatal() {
        // The recursive reader/resolver/digest walks would overflow the
        // stack (an abort) on pathological nesting; the daemon must
        // reject such sources up front and keep serving.
        let s = server();
        let depth = 200_000;
        let bomb = format!(
            r#"{{"op":"plan","source":"{}1{}"}}"#,
            "(".repeat(depth),
            ")".repeat(depth)
        );
        for op in ["plan", "run", "hybrid"] {
            let req = bomb.replace("\"plan\"", &format!("{op:?}"));
            let out = ok_line(&s, &req);
            assert_eq!(out.get("ok"), Some(&Json::Bool(false)), "{op}");
            assert!(
                out.get("error")
                    .and_then(Json::as_str)
                    .unwrap()
                    .contains("nesting depth"),
                "{op}: {out:?}"
            );
        }
        // Still alive and serving.
        let out = ok_line(&s, r#"{"op":"stats"}"#);
        assert_eq!(out.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn admission_bounds_global_then_per_client() {
        let s = Server::new(ServeOptions {
            max_queue: 2,
            max_inflight_per_client: 1,
            ..ServeOptions::default()
        })
        .unwrap();
        let alice = s.admit("alice").unwrap();
        let _bob = s.admit("bob").unwrap();
        // Global bound fires first: even a fresh client is refused.
        let e = s.admit("carol").err().unwrap();
        assert!(e.contains("overloaded"), "{e}");
        drop(alice);
        // Below the global bound the per-client quota still holds…
        let e = s.admit("bob").err().unwrap();
        assert!(e.contains("quota"), "{e}");
        // …and releasing is per-client.
        let _alice = s.admit("alice").unwrap();
    }

    #[test]
    fn shed_response_is_well_formed_and_counted() {
        let s = Server::new(ServeOptions {
            max_queue: 1,
            ..ServeOptions::default()
        })
        .unwrap();
        // Occupy the only slot, as a concurrent in-flight request would.
        let _slot = s.admit("other").unwrap();
        let out = ok_line(
            &s,
            r#"{"op":"hybrid","id":9,"source":"(define (f x) x) (f 1)"}"#,
        );
        assert_eq!(out.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(out.get("shed"), Some(&Json::Bool(true)));
        assert_eq!(out.get("id").and_then(Json::as_i64), Some(9));
        assert!(
            out.get("error")
                .and_then(Json::as_str)
                .unwrap()
                .contains("overloaded"),
            "{out:?}"
        );
        drop(_slot);
        // The slot freed: the same request now succeeds, and the stats
        // carry the shed (not an error, not a hybrid).
        let out = ok_line(
            &s,
            r#"{"op":"hybrid","id":9,"source":"(define (f x) x) (f 1)"}"#,
        );
        assert_eq!(out.get("ok"), Some(&Json::Bool(true)));
        let stats = ok_line(&s, r#"{"op":"stats"}"#);
        let req = stats.get("requests").unwrap();
        assert_eq!(req.get("shed").and_then(Json::as_i64), Some(1));
        assert_eq!(req.get("hybrid").and_then(Json::as_i64), Some(1));
        assert_eq!(req.get("errors").and_then(Json::as_i64), Some(0));
    }

    #[test]
    fn expired_deadline_degrades_plan_to_monitor_not_error() {
        let s = server();
        let src = "(define (sum i a) (if (zero? i) a (sum (- i 1) (+ a i))))";
        // deadline_ms 0: already expired when planning starts. The
        // request still succeeds — degraded, never refused.
        let out = ok_line(
            &s,
            &format!(r#"{{"op":"plan","deadline_ms":0,"source":"{src}"}}"#),
        );
        assert_eq!(out.get("ok"), Some(&Json::Bool(true)), "{out:?}");
        assert_eq!(out.get("degraded").and_then(Json::as_i64), Some(1));
        let doc = out.get("plan").unwrap().to_string();
        assert!(doc.contains("monitor"), "{doc}");
        assert!(!doc.contains("static"), "degraded must never be Static");
        // Nothing was persisted: the undegraded replay is a miss, plans
        // Static, and only *its* decision lands in the store.
        let out = ok_line(&s, &format!(r#"{{"op":"plan","source":"{src}"}}"#));
        let c = out.get("cache").unwrap();
        assert_eq!(c.get("hits").and_then(Json::as_i64), Some(0), "{out:?}");
        assert_eq!(c.get("misses").and_then(Json::as_i64), Some(1));
        assert_eq!(out.get("degraded").and_then(Json::as_i64), Some(0));
        assert!(out.get("plan").unwrap().to_string().contains("static"));
        // Store hits are honored past the deadline: replaying with the
        // expired deadline now hits warm and stays Static.
        let out = ok_line(
            &s,
            &format!(r#"{{"op":"plan","deadline_ms":0,"source":"{src}"}}"#),
        );
        let c = out.get("cache").unwrap();
        assert_eq!(c.get("hits").and_then(Json::as_i64), Some(1), "{out:?}");
        assert_eq!(out.get("degraded").and_then(Json::as_i64), Some(0));
        let stats = ok_line(&s, r#"{"op":"stats"}"#);
        assert_eq!(
            stats
                .get("requests")
                .and_then(|r| r.get("deadline_exceeded"))
                .and_then(Json::as_i64),
            Some(1)
        );
    }

    #[test]
    fn run_deadline_stops_unfueled_divergence() {
        let s = server();
        let started = Instant::now();
        let out = ok_line(
            &s,
            r#"{"op":"run","deadline_ms":100,"source":"(define (spin x) (spin x)) (spin 1)"}"#,
        );
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "deadline must bound the request, took {:?}",
            started.elapsed()
        );
        assert_eq!(out.get("ok"), Some(&Json::Bool(false)));
        assert!(
            out.get("error")
                .and_then(Json::as_str)
                .unwrap()
                .contains("deadline exceeded"),
            "{out:?}"
        );
        let stats = ok_line(&s, r#"{"op":"stats"}"#);
        assert_eq!(
            stats
                .get("requests")
                .and_then(|r| r.get("deadline_exceeded"))
                .and_then(Json::as_i64),
            Some(1)
        );
    }

    /// The plan-reply bound covers planning only: a `hybrid` request that
    /// plans in time and then runs past its deadline answers with the
    /// run's `deadline exceeded` error, its real plan undegraded, and the
    /// deadline counted once.
    #[test]
    fn hybrid_deadline_during_execution_stops_the_run_not_the_plan() {
        let s = server();
        // A statically terminating countdown from 10^12: no fuel bounds
        // it, so only the deadline ends the run.
        let src = "(define (count i) (if (zero? i) 0 (count (- i 1)))) (count 1000000000000)";
        // Warm the store first, so the deadline request's plan is a
        // store hit and lands well inside its deadline.
        let out = ok_line(&s, &format!(r#"{{"op":"plan","source":"{src}"}}"#));
        assert_eq!(out.get("ok"), Some(&Json::Bool(true)), "{out:?}");
        let started = Instant::now();
        let out = ok_line(
            &s,
            &format!(r#"{{"op":"hybrid","deadline_ms":300,"source":"{src}"}}"#),
        );
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "deadline must bound the run, took {:?}",
            started.elapsed()
        );
        assert_eq!(out.get("ok"), Some(&Json::Bool(false)), "{out:?}");
        assert!(
            out.get("error")
                .and_then(Json::as_str)
                .unwrap()
                .contains("deadline exceeded"),
            "{out:?}"
        );
        assert_eq!(out.get("refuted"), Some(&Json::Bool(false)), "{out:?}");
        assert_eq!(out.get("degraded").and_then(Json::as_i64), Some(0));
        assert_eq!(
            out.get("plan_summary")
                .and_then(|p| p.get("static"))
                .and_then(Json::as_i64),
            Some(1),
            "{out:?}"
        );
        let stats = ok_line(&s, r#"{"op":"stats"}"#);
        assert_eq!(
            stats
                .get("requests")
                .and_then(|r| r.get("deadline_exceeded"))
                .and_then(Json::as_i64),
            Some(1)
        );
    }

    #[test]
    fn server_wide_deadline_caps_request_deadline() {
        let s = Server::new(ServeOptions {
            deadline_ms: Some(0),
            ..ServeOptions::default()
        })
        .unwrap();
        // The request asks for an hour; the server bound of 0 wins, so
        // planning degrades immediately.
        let out = ok_line(
            &s,
            r#"{"op":"plan","deadline_ms":3600000,"source":"(define (id x) x)"}"#,
        );
        assert_eq!(out.get("ok"), Some(&Json::Bool(true)), "{out:?}");
        assert_eq!(out.get("degraded").and_then(Json::as_i64), Some(1));
    }

    #[test]
    fn shutdown_quits() {
        let s = server();
        let outcome = s.handle_line(r#"{"op":"shutdown"}"#);
        assert!(outcome.quit);
        assert!(outcome.response.unwrap().contains("\"ok\":true"));
        assert!(s.handle_line("").response.is_none());
    }

    /// The acceptance criterion: `stats` is a view of the registry, so a
    /// snapshot taken on a quiet daemon reconciles with the `stats`
    /// counters *exactly* — not approximately.
    #[test]
    fn metrics_snapshot_reconciles_with_stats_counters() {
        let s = server();
        ok_line(
            &s,
            r#"{"op":"hybrid","source":"(define (sum i a) (if (zero? i) a (sum (- i 1) (+ a i)))) (sum 50 0)"}"#,
        );
        // A first-class call site under a monitored caller: generic-site
        // calls for `vm.generic_calls`.
        ok_line(
            &s,
            r#"{"op":"hybrid","source":"(define (g n) (if (zero? n) 0 (g (- n 1)))) (define (h n) (if (zero? n) 1 (h (- n 1)))) (define (call fn n) (fn n)) (define (drive n) (+ (call g n) (call h n))) (drive 6) (drive 6)"}"#,
        );
        ok_line(&s, r#"{"op":"plan","source":"(define (id x) x)"}"#);
        ok_line(&s, "definitely not json");
        let stats = ok_line(&s, r#"{"op":"stats"}"#);
        let snap = ok_line(&s, r#"{"op":"metrics"}"#);
        assert_eq!(snap.get("ok"), Some(&Json::Bool(true)), "{snap:?}");
        let m = snap.get("metrics").unwrap();
        let counters = m.get("counters").unwrap();
        let counter = |name: &str| counters.get(name).and_then(Json::as_i64).unwrap_or(0);
        let req = stats.get("requests").unwrap();
        let stat = |obj: &Json, name: &str| obj.get(name).and_then(Json::as_i64).unwrap();
        assert_eq!(counter("serve.requests.plan"), stat(req, "plan"));
        assert_eq!(counter("serve.requests.hybrid"), stat(req, "hybrid"));
        assert_eq!(counter("serve.requests.stats"), stat(req, "stats"));
        assert_eq!(counter("serve.errors"), stat(req, "errors"));
        assert_eq!(counter("serve.shed"), stat(req, "shed"));
        let plan = stats.get("plan").unwrap();
        assert_eq!(counter("vm.static_skips"), stat(plan, "static_skips"));
        assert_eq!(counter("vm.monitored_calls"), stat(plan, "monitored_calls"));
        assert!(stat(plan, "monitored_calls") > 0, "{stats:?}");
        let cache = stats.get("cache").unwrap();
        assert_eq!(counter("cache.hits"), stat(cache, "hits"));
        assert_eq!(counter("cache.misses"), stat(cache, "misses"));
        assert_eq!(counter("cache.stores"), stat(cache, "stores"));
        assert_eq!(counter("cache.rejected"), stat(cache, "rejected"));
        assert_eq!(counter("cache.quarantined"), stat(cache, "quarantined"));
        // The VM published into the same registry: the hybrid run above
        // took steps and skipped checks statically.
        assert!(counter("vm.runs") >= 1, "{m:?}");
        assert!(counter("vm.steps") > 0, "{m:?}");
        assert!(counter("vm.static_skips") > 0, "{m:?}");
        assert!(counter("vm.generic_calls") > 0, "{m:?}");
        // The planner reported its ladder work.
        assert!(counter("plan.defines") >= 2, "{m:?}");
        // Latency histograms saw every op this test issued.
        let hists = m.get("histograms").unwrap();
        for op in ["plan", "hybrid", "stats"] {
            let h = hists.get(&format!("serve.latency.{op}_us")).unwrap();
            assert!(
                h.get("count").and_then(Json::as_i64).unwrap() >= 1,
                "{op}: {h:?}"
            );
        }
    }

    /// With `--cache-dir`, every persisted byte goes through the one
    /// instrumented store path: the `cache.stores` counter, the `stats`
    /// op and the files on disk agree, summaries included (one entry per
    /// define, whether or not it carries a summary).
    #[test]
    fn cache_dir_stores_reconcile_with_files_on_disk() {
        let dir = std::env::temp_dir().join(format!("sct-serve-stores-{}", std::process::id()));
        let s = Server::new(ServeOptions {
            cache_dir: Some(dir.clone()),
            ..ServeOptions::default()
        })
        .unwrap();
        ok_line(
            &s,
            r#"{"op":"plan","source":"(define (inc x) (+ x 1)) (define (sum i a) (if (zero? i) a (sum (- i 1) (+ a i)))) (define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))"}"#,
        );
        let stats = ok_line(&s, r#"{"op":"stats"}"#);
        let snap = ok_line(&s, r#"{"op":"metrics"}"#);
        let stores = snap
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get("cache.stores"))
            .and_then(Json::as_i64);
        let files = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .flat_map(|shard| std::fs::read_dir(shard.path()).unwrap().flatten())
            .count();
        assert_eq!(files, 3, "one file per define");
        assert_eq!(stores, Some(3), "{snap:?}");
        let cache = stats.get("cache").unwrap();
        assert_eq!(cache.get("stores").and_then(Json::as_i64), Some(3));
        drop(s);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Two servers in one process must not share counters: the registry
    /// is per-server, not process-global.
    #[test]
    fn servers_do_not_share_metrics() {
        let a = server();
        let b = server();
        ok_line(&a, r#"{"op":"plan","source":"(define (id x) x)"}"#);
        let snap = ok_line(&b, r#"{"op":"metrics"}"#);
        let counters = snap.get("metrics").unwrap().get("counters").unwrap();
        assert_eq!(
            counters
                .get("serve.requests.plan")
                .and_then(Json::as_i64)
                .unwrap_or(0),
            0
        );
    }

    #[test]
    fn metrics_prometheus_format_renders_text() {
        let s = server();
        ok_line(&s, r#"{"op":"stats"}"#);
        let out = ok_line(&s, r#"{"op":"metrics","format":"prometheus"}"#);
        assert_eq!(out.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(out.get("format").and_then(Json::as_str), Some("prometheus"));
        let text = out.get("text").and_then(Json::as_str).unwrap();
        assert!(
            text.contains("# TYPE serve_requests_stats counter"),
            "{text}"
        );
        assert!(text.contains("serve_requests_stats 1"), "{text}");
    }

    #[test]
    fn responses_echo_a_trace_id() {
        let s = server();
        let out = ok_line(&s, r#"{"op":"stats"}"#);
        let trace = out.get("trace").and_then(Json::as_str).unwrap();
        assert_eq!(trace.len(), 16, "{trace}");
        assert!(trace.chars().all(|c| c.is_ascii_hexdigit()), "{trace}");
        // Distinct requests get distinct ids.
        let out2 = ok_line(&s, r#"{"op":"stats"}"#);
        assert_ne!(out2.get("trace").and_then(Json::as_str).unwrap(), trace);
    }
}
