//! `sct` — command-line front end for the termination-contract system.
//!
//! ```text
//! sct run <file.sct> [--metrics]           # standard semantics (λCSCT)
//! sct monitor <file.sct> [options]         # fully monitored (λSCT)
//! sct hybrid <file.sct> [--plan] [--dump-ir] [options] # static pre-pass + residual monitor
//! sct verify <file.sct> <function> [sig]   # static verification (§4)
//! sct trace <file.sct>                     # monitored run + Figure-1 trace
//! sct serve [--socket PATH] [--cache-dir DIR] [--deadline-ms MS]
//!           [--max-queue N] [--max-inflight-per-client N]
//!           [--faults SPEC] [--trace-out FILE]
//! sct fuzz [--seed S] [--cases N] [--budget-ms B] [--no-minimize] [--out DIR]
//! ```
//!
//! Options for `monitor`/`trace`/`hybrid`:
//!   --strategy imperative|cm      table strategy (default imperative)
//!   --order default|reverse-int|extended
//!   --backoff N                   exponential backoff factor
//!   --loop-entries                monitor loop entries only
//!   --fuel N                      step budget
//!   --cache-dir DIR               (hybrid) persistent plan cache
//!   --metrics                     print the final `sct-obs` registry
//!                                 snapshot as `; metric NAME VALUE`
//!                                 lines after the answer (plan time,
//!                                 ladder rungs, cache traffic, VM
//!                                 counters; histogram counts only —
//!                                 durations are nondeterministic)
//!
//! `hybrid` first plans the program: every `define` is run through the §4
//! verifier (with a fuel budget); proved functions skip the monitor at run
//! time, refuted ones are reported — with blame — before running, and the
//! rest stay monitored. `--plan` prints the decisions as `sct-plan/1` JSON
//! (schema in `sct_core::plan::EnforcementPlan::to_json`) instead of
//! running; `--dump-ir` prints the plan-directed IR listing (each call
//! site annotated with its baked-in skip/guarded/monitored decision; see
//! the `sct-ir` crate) instead of running. After a hybrid run a
//! `; plan: S static skips, M monitored calls` line summarizes what the
//! static proofs absorbed at run time. With `--cache-dir`, decisions
//! persist across invocations (content-addressed `sct-plan/3` entries;
//! see `sct-cache`) and a `; cache: H hits, M misses` line reports the
//! reuse.
//!
//! `serve` starts the long-running daemon: newline-delimited JSON
//! requests (`plan`, `run`, `hybrid`, `stats`, `metrics`, `shutdown`)
//! over stdio or a Unix socket, each request's program planned whole on
//! a thread of its own — see `sct_contracts::serve` for the wire
//! protocol.
//! `--deadline-ms` bounds each request's wall clock (planning past it
//! degrades to monitored decisions; execution past it stops with a
//! `deadline exceeded` error), `--max-queue` /
//! `--max-inflight-per-client` shed excess load with
//! `{"ok":false,"shed":true}` responses, and `--faults SPEC` (or the
//! `SCT_FAULTS` env var) arms the deterministic fault-injection layer
//! (`sct-faults`) for chaos testing, e.g.
//! `--faults 'cache.store.write=enospc@500;seed=7'`. `--trace-out FILE`
//! arms the structured tracer (`sct_obs::trace`): one JSONL event per
//! request span start/end, appended to `FILE`; every response's
//! `"trace"` field names its spans' trace id.
//!
//! `fuzz` runs the differential soundness campaign (`sct-fuzz`): `N`
//! seeded cases with constructed termination oracles, each checked
//! against the full enforcement lattice; violations are delta-debugged
//! and, with `--out DIR`, written as `.sct` counterexample files. The
//! last stdout line is the machine-readable `sct-fuzz/1` JSON summary.
//! Exit 0 when every case held, 1 when any invariant broke.
//!
//! `verify` signatures: a comma-separated parameter domain list and an
//! optional `-> result` domain, e.g. `nat,nat -> nat` (domains: nat, pos,
//! int, list, any; default any).
//!
//! Exit codes, uniform across subcommands: `0` success; `1` the program
//! (or verification obligation) failed — a size-change blame, a static
//! refutation, a runtime error, `not verified`; `2` usage or I/O — bad
//! flags, unreadable files, compile errors, bind failures.

use sct_cache::CacheObs;
use sct_contracts::interp::{ExtendedOrder, OrderHandle, ReverseIntOrder};
use sct_contracts::serve::{serve_stdio, serve_unix, ServeOptions, Server};
use sct_contracts::{
    plan_program_incremental, refutation_error, BackoffPolicy, DiskCache, EvalError, Machine,
    MachineConfig, PlanCache, PlanConfig, SemanticsMode, SymDomain, TableStrategy, VerifyConfig,
};
use sct_obs::{trace, Registry};
use sct_symbolic::pipeline::PlanObs;
use sct_symbolic::NullStore as SymNullStore;
use std::process::ExitCode;
use std::rc::Rc;
use std::sync::Arc;

/// Success.
const EXIT_OK: u8 = 0;
/// The program or obligation failed (blame, refutation, runtime error).
const EXIT_FAIL: u8 = 1;
/// Usage or I/O problem (flags, files, compile, bind).
const EXIT_USAGE: u8 = 2;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  sct run <file> [--metrics]\n  sct monitor <file> [--strategy imperative|cm] \
         [--order default|reverse-int|extended] [--backoff N] [--loop-entries] [--fuel N]\n  \
         sct hybrid <file> [--plan] [--dump-ir] [--cache-dir DIR] [--metrics] \
         [monitor options]\n  \
         sct verify <file> <function> [domains [-> result]]\n  sct trace <file>\n  \
         sct serve [--socket PATH] [--cache-dir DIR] [--deadline-ms MS] \
         [--max-queue N] [--max-inflight-per-client N] [--faults SPEC] [--trace-out FILE]\n  \
         sct fuzz [--seed S] [--cases N] [--budget-ms B] [--no-minimize] [--verbose] [--out DIR]"
    );
    ExitCode::from(EXIT_USAGE)
}

struct Options {
    strategy: TableStrategy,
    order: OrderHandle,
    backoff: BackoffPolicy,
    loop_entries: bool,
    fuel: Option<u64>,
    plan_only: bool,
    dump_ir: bool,
    custom_order: bool,
    cache_dir: Option<String>,
    metrics: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            strategy: TableStrategy::Imperative,
            order: OrderHandle::default_order(),
            backoff: BackoffPolicy::EveryCall,
            loop_entries: false,
            fuel: None,
            plan_only: false,
            dump_ir: false,
            custom_order: false,
            cache_dir: None,
            metrics: false,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--strategy" => {
                    o.strategy = match it.next().map(String::as_str) {
                        Some("imperative") => TableStrategy::Imperative,
                        Some("cm") | Some("continuation-mark") => TableStrategy::ContinuationMark,
                        other => return Err(format!("bad --strategy {other:?}")),
                    }
                }
                "--order" => {
                    o.order = match it.next().map(String::as_str) {
                        Some("default") => OrderHandle::default_order(),
                        Some("reverse-int") => {
                            o.custom_order = true;
                            OrderHandle::new(ReverseIntOrder)
                        }
                        Some("extended") => {
                            o.custom_order = true;
                            OrderHandle::new(ExtendedOrder)
                        }
                        other => return Err(format!("bad --order {other:?}")),
                    }
                }
                "--backoff" => {
                    let n: u32 = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("bad --backoff value")?;
                    o.backoff = BackoffPolicy::Exponential { factor: n };
                }
                "--loop-entries" => o.loop_entries = true,
                "--plan" => o.plan_only = true,
                "--dump-ir" => o.dump_ir = true,
                "--fuel" => {
                    o.fuel = Some(
                        it.next()
                            .and_then(|s| s.parse().ok())
                            .ok_or("bad --fuel value")?,
                    )
                }
                "--cache-dir" => {
                    o.cache_dir = Some(it.next().ok_or("missing --cache-dir value")?.clone())
                }
                "--metrics" => o.metrics = true,
                other => return Err(format!("unknown option {other}")),
            }
        }
        Ok(o)
    }

    /// The monitored-run machine configuration all of `monitor`, `trace`,
    /// and `hybrid` share (the former duplicated setup blocks).
    fn machine_config(&self, trace: bool) -> MachineConfig {
        let mut config = MachineConfig {
            mode: SemanticsMode::Monitored,
            order: self.order.clone(),
            fuel: self.fuel,
            trace,
            ..MachineConfig::monitored(self.strategy)
        };
        config.monitor.backoff = self.backoff;
        config.monitor.loop_entries_only = self.loop_entries;
        config
    }
}

/// The flags of `run`/`monitor`/`trace`/`hybrid` that take a value.
const VALUE_FLAGS: [&str; 5] = [
    "--strategy",
    "--order",
    "--backoff",
    "--fuel",
    "--cache-dir",
];

/// Splits a subcommand's arguments into its `<file>` and its flags. The
/// file is the one argument that is neither a flag nor a flag's value,
/// wherever it appears; none, or more than one, is a usage error.
fn split_file(args: &[String]) -> Result<(&String, Vec<String>), String> {
    let (mut files, mut flags) = (Vec::new(), Vec::new());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            files.push(a);
            continue;
        }
        flags.push(a.clone());
        if VALUE_FLAGS.contains(&a.as_str()) {
            flags.extend(it.next().cloned());
        }
    }
    match files.as_slice() {
        [file] => Ok((file, flags)),
        [] => Err("missing <file>".into()),
        _ => Err(format!("expected one <file>, got {}", files.len())),
    }
}

fn parse_domain(s: &str) -> Result<SymDomain, String> {
    match s.trim() {
        "nat" => Ok(SymDomain::Nat),
        "pos" => Ok(SymDomain::Pos),
        "int" => Ok(SymDomain::Int),
        "list" => Ok(SymDomain::List),
        "any" | "" => Ok(SymDomain::Any),
        other => Err(format!("unknown domain {other} (nat|pos|int|list|any)")),
    }
}

/// Prints buffered program output plus the result; exit 0 on a value,
/// 1 on any evaluation error (blame included).
fn report(result: Result<sct_contracts::Value, EvalError>, output: &str) -> ExitCode {
    print!("{output}");
    match result {
        Ok(v) => {
            println!("{}", v.to_write_string());
            ExitCode::from(EXIT_OK)
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(EXIT_FAIL)
        }
    }
}

/// Publishes a run's VM `stats` to the invocation's `registry`, then
/// prints its snapshot as
/// `; metric NAME VALUE` lines on stderr, one per counter and gauge (in
/// name order — the snapshot is sorted), plus each histogram's
/// observation count as `NAME.count`. Histogram durations are elapsed
/// wall-clock and vary run to run, so only the deterministic count is
/// printed — the smoke tests replay these lines verbatim.
fn print_metrics(registry: &Registry, stats: &sct_contracts::interp::Stats) {
    stats.publish(registry);
    let snap = registry.snapshot();
    for (name, v) in &snap.counters {
        eprintln!("; metric {name} {v}");
    }
    for (name, v) in &snap.gauges {
        eprintln!("; metric {name} {v}");
    }
    for (name, h) in &snap.histograms {
        eprintln!("; metric {name}.count {}", h.count);
    }
}

/// Runs the machine and prints the shared `; applications=… …` counter
/// line (with the hybrid-only `static-skips` column when a plan is
/// active), then reports the result. With a `metrics` registry, its
/// snapshot is printed after the counter lines.
fn run_and_report(
    program: &sct_contracts::lang::ast::Program,
    config: MachineConfig,
    metrics: Option<&Registry>,
) -> ExitCode {
    let hybrid = config.plan.is_some();
    let trace = config.trace;
    let mut m = Machine::new(program, config);
    let r = m.run();
    if trace {
        for e in &m.trace_events {
            let graph = e.graph.as_deref().unwrap_or("[table seeded]");
            println!("({} {})    {}", e.function, e.args.join(" "), graph);
        }
    }
    if hybrid {
        eprintln!(
            "; applications={} monitored={} checks={} static-skips={} max-kont={}",
            m.stats.applications,
            m.stats.monitored_calls,
            m.stats.checks,
            m.stats.static_skips,
            m.stats.max_kont_depth
        );
        // The run-time effect of the plan, in one human-readable line:
        // how many calls the static proofs absorbed vs. how many the
        // residual monitor still paid for.
        eprintln!(
            "; plan: {} static skips, {} monitored calls",
            m.stats.static_skips, m.stats.monitored_calls
        );
        // The inline caches on generic (first-class) call sites.
        eprintln!(
            "; pic: {} hits, {} misses, {} invalidations",
            m.stats.pic_hits, m.stats.pic_misses, m.stats.pic_invalidations
        );
    } else {
        eprintln!(
            "; applications={} monitored={} checks={} max-kont={}",
            m.stats.applications, m.stats.monitored_calls, m.stats.checks, m.stats.max_kont_depth
        );
    }
    let out = m.output.clone();
    let code = report(r, &out);
    if let Some(registry) = metrics {
        print_metrics(registry, &m.stats);
    }
    code
}

fn serve_cmd(rest: &[String]) -> ExitCode {
    let mut socket: Option<String> = None;
    let mut options = ServeOptions::default();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => match it.next() {
                Some(p) => socket = Some(p.clone()),
                None => {
                    eprintln!("missing --socket value");
                    return usage();
                }
            },
            "--cache-dir" => match it.next() {
                Some(d) => options.cache_dir = Some(d.into()),
                None => {
                    eprintln!("missing --cache-dir value");
                    return usage();
                }
            },
            "--deadline-ms" => match it.next().and_then(|s| s.parse().ok()) {
                Some(ms) => options.deadline_ms = Some(ms),
                None => {
                    eprintln!("bad --deadline-ms value");
                    return usage();
                }
            },
            "--max-queue" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => options.max_queue = n,
                None => {
                    eprintln!("bad --max-queue value");
                    return usage();
                }
            },
            "--max-inflight-per-client" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => options.max_inflight_per_client = n,
                None => {
                    eprintln!("bad --max-inflight-per-client value");
                    return usage();
                }
            },
            "--faults" => match it.next() {
                Some(spec) => {
                    if let Err(e) = sct_faults::arm(spec) {
                        eprintln!("bad --faults spec: {e}");
                        return usage();
                    }
                }
                None => {
                    eprintln!("missing --faults value");
                    return usage();
                }
            },
            "--trace-out" => match it.next() {
                Some(path) => {
                    if let Err(e) = trace::to_file(std::path::Path::new(path)) {
                        eprintln!("cannot open trace file {path}: {e}");
                        return ExitCode::from(EXIT_USAGE);
                    }
                }
                None => {
                    eprintln!("missing --trace-out value");
                    return usage();
                }
            },
            other => {
                eprintln!("unknown option {other}");
                return usage();
            }
        }
    }
    // Chaos runs can also arm failpoints via SCT_FAULTS / SCT_FAULTS_SEED
    // without touching the command line.
    match sct_faults::arm_from_env() {
        Ok(Some(spec)) => eprintln!("sct serve: failpoints armed from SCT_FAULTS: {spec}"),
        Ok(None) => {}
        Err(e) => {
            eprintln!("bad SCT_FAULTS spec: {e}");
            return usage();
        }
    }
    let server = match Server::new(options) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot start server: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let served = match socket {
        Some(path) => serve_unix(Arc::new(server), std::path::Path::new(&path)),
        None => serve_stdio(&server),
    };
    // Drain the trace sink's buffer before exiting — a bounded buffer
    // holds up to 32 KiB of events that have not hit the file yet.
    trace::flush();
    if trace::dropped() > 0 {
        eprintln!(
            "sct serve: {} trace events dropped (sink write failures)",
            trace::dropped()
        );
    }
    match served {
        Ok(()) => ExitCode::from(EXIT_OK),
        Err(e) => {
            eprintln!("serve failed: {e}");
            ExitCode::from(EXIT_USAGE)
        }
    }
}

fn fuzz_cmd(rest: &[String]) -> ExitCode {
    let mut opts = sct_fuzz::FuzzOptions {
        seed: 1,
        cases: 100,
        budget: None,
        minimize: true,
        verbose: false,
    };
    let mut out_dir: Option<String> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => opts.seed = s,
                None => {
                    eprintln!("bad --seed value");
                    return usage();
                }
            },
            "--cases" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => opts.cases = n,
                None => {
                    eprintln!("bad --cases value");
                    return usage();
                }
            },
            "--budget-ms" => match it.next().and_then(|s| s.parse().ok()) {
                Some(ms) => opts.budget = Some(std::time::Duration::from_millis(ms)),
                None => {
                    eprintln!("bad --budget-ms value");
                    return usage();
                }
            },
            "--no-minimize" => opts.minimize = false,
            "--verbose" => opts.verbose = true,
            "--out" => match it.next() {
                Some(d) => out_dir = Some(d.clone()),
                None => {
                    eprintln!("missing --out value");
                    return usage();
                }
            },
            other => {
                eprintln!("unknown option {other}");
                return usage();
            }
        }
    }
    let report = sct_fuzz::run_campaign(&opts, &sct_fuzz::FuzzConfig::default());
    for v in &report.violations {
        eprintln!("{v}\n");
    }
    // Minimized counterexamples as replayable `.sct` files — the CI step
    // uploads these as artifacts, and fixed ones get committed to
    // tests/fuzz_regressions/.
    if let Some(dir) = &out_dir {
        if !report.violations.is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {dir}: {e}");
                return ExitCode::from(EXIT_USAGE);
            }
            for (i, v) in report.violations.iter().enumerate() {
                let seed = v.seed.map_or_else(String::new, |s| format!("-seed{s}"));
                let path = format!("{dir}/{}{seed}-{i}.sct", v.kind.name());
                let program = v.minimized.as_deref().unwrap_or(&v.source);
                let body = format!("; {}\n{program}\n", v.detail.replace('\n', "\n; "));
                if let Err(e) = std::fs::write(&path, body) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::from(EXIT_USAGE);
                }
                eprintln!("wrote {path}");
            }
        }
    }
    println!("{}", report.summary_json());
    if report.violations.is_empty() {
        ExitCode::from(EXIT_OK)
    } else {
        ExitCode::from(EXIT_FAIL)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => return usage(),
    };
    if cmd == "serve" {
        return serve_cmd(rest);
    }
    if cmd == "fuzz" {
        return fuzz_cmd(rest);
    }
    // `verify` takes positional arguments after the file; every other
    // subcommand takes one file anywhere among its flags.
    let (file, flags) = if cmd == "verify" {
        match rest.split_first() {
            Some((file, _)) => (file, Vec::new()),
            None => return usage(),
        }
    } else {
        match split_file(rest) {
            Ok(split) => split,
            Err(e) => {
                eprintln!("{e}");
                return usage();
            }
        }
    };
    let source = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {file}: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let program = match sct_lang::compile_program(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("compile error: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };

    match cmd {
        "run" => {
            let mut metrics = false;
            for a in &flags {
                match a.as_str() {
                    "--metrics" => metrics = true,
                    other => {
                        eprintln!("unknown option {other}");
                        return usage();
                    }
                }
            }
            let mut m = Machine::new(&program, MachineConfig::standard());
            let r = m.run();
            let out = m.output.clone();
            let code = report(r, &out);
            if metrics {
                print_metrics(&Registry::new(), &m.stats);
            }
            code
        }
        "monitor" | "trace" | "hybrid" => {
            let opts = match Options::parse(&flags) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            };
            // `--metrics`: the registry the planner, store and VM count into.
            let registry = opts.metrics.then(|| Arc::new(Registry::new()));
            if cmd != "hybrid" {
                if opts.plan_only {
                    eprintln!("--plan is only valid with `sct hybrid`");
                    return usage();
                }
                if opts.dump_ir {
                    eprintln!("--dump-ir is only valid with `sct hybrid`");
                    return usage();
                }
                if opts.cache_dir.is_some() {
                    eprintln!("--cache-dir is only valid with `sct hybrid` and `sct serve`");
                    return usage();
                }
                let config = opts.machine_config(cmd == "trace");
                return run_and_report(&program, config, registry.as_deref());
            }

            // Eager refutation presumes the default order of Figure 5; a
            // custom monitor order may accept graphs the verifier's order
            // rejects, so only the proof side of the plan is kept then.
            let plan_config = PlanConfig {
                refute: !opts.custom_order,
                // `--metrics` routes planner observability (plan time,
                // ladder rungs, fuel) into the registry the final
                // snapshot prints from.
                obs: registry
                    .clone()
                    .map_or_else(PlanObs::disabled, PlanObs::registered),
                ..PlanConfig::default()
            };
            let mut disk;
            let mut null = SymNullStore;
            let store: &mut dyn sct_symbolic::DecisionStore = match &opts.cache_dir {
                Some(dir) => match DiskCache::open(dir) {
                    Ok(c) => {
                        disk = match &registry {
                            Some(r) => c.with_obs(CacheObs::register(r)),
                            None => c,
                        };
                        &mut disk
                    }
                    Err(e) => {
                        eprintln!("cannot open cache dir {dir}: {e}");
                        return ExitCode::from(EXIT_USAGE);
                    }
                },
                None => &mut null,
            };
            let (plan, stats) =
                plan_program_incremental(&program, &plan_config, &mut PlanCache::new(), store);
            if opts.cache_dir.is_some() {
                eprintln!("; {stats}");
            }
            if opts.plan_only {
                print!("{}", plan.to_json());
                return ExitCode::from(EXIT_OK);
            }
            if opts.dump_ir {
                // The plan-directed IR: each call site shows the baked-in
                // enforcement decision (skip / guarded / monitored /
                // generic).
                let compiled = sct_contracts::ir::compile(&program, Some(&plan));
                print!("{}", sct_contracts::ir::dump(&compiled));
                return ExitCode::from(EXIT_OK);
            }
            eprintln!("; {plan}");
            if let Some(err) = refutation_error(&plan) {
                // [Decision::Refuted]: the monitor would blame this at run
                // time; the hybrid regime reports it before running.
                eprintln!("{err} (statically refuted before running)");
                return ExitCode::from(EXIT_FAIL);
            }
            let mut config = opts.machine_config(false);
            config.plan = Some(Rc::new(plan));
            run_and_report(&program, config, registry.as_deref())
        }
        "verify" => {
            let Some(function) = rest.get(1) else {
                return usage();
            };
            let sig = rest.get(2).map(String::as_str).unwrap_or("");
            let (doms_text, result_text) = match sig.split_once("->") {
                Some((d, r)) => (d.trim(), r.trim()),
                None => (sig.trim(), "any"),
            };
            let domains: Vec<SymDomain> = if doms_text.is_empty() {
                // No signature: a nullary function.
                Vec::new()
            } else {
                match doms_text.split(',').map(parse_domain).collect() {
                    Ok(d) => d,
                    Err(e) => {
                        eprintln!("{e}");
                        return usage();
                    }
                }
            };
            let result = match parse_domain(result_text) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            };
            let verdict = sct_contracts::symbolic::verify_function(
                &program,
                function,
                &domains,
                result,
                &VerifyConfig::default(),
            );
            println!("{verdict}");
            if verdict.is_verified() {
                ExitCode::from(EXIT_OK)
            } else {
                ExitCode::from(EXIT_FAIL)
            }
        }
        _ => usage(),
    }
}
