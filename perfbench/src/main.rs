//! perfbench: the repository's benchmark. Three closed-loop workloads,
//! one client each, that each put most of the work in a different layer:
//!
//! * `exec-fig10` — the VM and the size-change monitor;
//! * `plan-cold` — the front end, planner and cache writes;
//! * `serve-edit` — the daemon, cache reads and the front end.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan-cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--workload all` runs the three in turn, each in its own process.
//! Untraced runs (`--trace 0`) report the end-to-end metrics; traced runs
//! (`--trace 1`) report the per-layer ones. The last line of standard
//! output is one JSON object. See `perfbench/README.md`.

mod corpus;
mod exec_fig10;
mod pipeline;
mod plan_cold;
mod serve_edit;
mod spans;

use pipeline::{Counts, DaemonTimes, OpResult, Workload};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const WORKLOADS: [&str; 3] = ["exec-fig10", "plan-cold", "serve-edit"];
/// Set-ups per run: `setup_s` is their median, and their warm-up counts
/// must agree exactly (the determinism self-check).
const SETUPS: usize = 5;
/// Warm-up ops per set-up; timed ops are numbered after them.
pub const WARMUP_OPS: usize = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} value {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}|all> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    // Scratch space (the daemon's socket) lives under the working
    // directory and is removed on the way out.
    let scratch = PathBuf::from(".perfbench-tmp").join(std::process::id().to_string());
    let result = std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("{}: {e}", scratch.display()))
        .and_then(|()| run(&args, process_start, &scratch));
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".perfbench-tmp");
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}

fn setup(name: &str, seed: u64, dir: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "exec-fig10" => Box::new(exec_fig10::setup(seed)?),
        "plan-cold" => Box::new(plan_cold::setup(seed)?),
        _ => Box::new(serve_edit::setup(seed, dir)?),
    })
}

fn run(args: &Args, process_start: Instant, scratch: &Path) -> Result<(), String> {
    println!(
        "perfbench workload={} seed={} seconds={} trace={} cores={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    // The first set-up is timed from process start. The others run
    // between ops at even intervals of the timed region, outside op
    // time, so `setup_s` samples the host across the run like the ops.
    let mut setup_s = Vec::new();
    let mut warm: Vec<Counts> = Vec::new();
    let mut bench = setup(&args.workload, args.seed, &scratch.join("setup-0"))?;
    setup_s.push(process_start.elapsed().as_secs_f64());
    warm.push(bench.warmup_counts());

    // The timed closed loop. In a traced run every second op is traced,
    // so traced and untraced ops interleave and their cost difference is
    // the tracing overhead.
    let capture = spans::Capture::default();
    let mut ops: Vec<(OpResult, bool)> = Vec::new();
    let mut cpu_ms = 0.0;
    let region = Instant::now();
    loop {
        let elapsed = region.elapsed().as_secs_f64();
        let k = setup_s.len();
        if k < SETUPS && elapsed >= args.seconds * k as f64 / SETUPS as f64 {
            let t = Instant::now();
            let extra = setup(
                &args.workload,
                args.seed,
                &scratch.join(format!("setup-{k}")),
            )?;
            setup_s.push(t.elapsed().as_secs_f64());
            warm.push(extra.warmup_counts());
            extra.close();
            continue;
        }
        if !ops.is_empty() && elapsed >= args.seconds {
            break;
        }
        let traced = args.trace && ops.len() % 2 == 1;
        if traced {
            capture.arm();
        }
        let cpu0 = process_cpu_ms();
        let r = bench.op(WARMUP_OPS + ops.len(), traced);
        cpu_ms += process_cpu_ms() - cpu0;
        if traced {
            capture.disarm();
        }
        ops.push((r, traced));
    }
    let program_skips = bench.close();

    let key = warm[0].determinism_key();
    for (k, w) in warm.iter().enumerate().skip(1) {
        if w.determinism_key() != key {
            return Err(format!(
                "determinism self-check failed: set-up {k} counted {:?}, set-up 0 counted {key:?}",
                w.determinism_key()
            ));
        }
    }
    let mut line = String::from("determinism ok:");
    for (name, v) in key {
        let _ = write!(line, " {name}={v}");
    }
    println!("{line}");

    let attempted = ops.len();
    let failed = ops.iter().filter(|(r, _)| !r.ok).count();
    let mut totals = Counts::default();
    for (r, _) in &ops {
        totals.add(&r.counts);
    }
    let (skips, monitored) =
        program_skips.unwrap_or((totals.hybrid_skips, totals.hybrid_monitored));
    let mut lat: Vec<f64> = ops.iter().map(|(r, _)| ms(r.latency)).collect();
    lat.sort_by(f64::total_cmp);
    // Printed, but not part of the JSON result. The host alternates
    // between a fast and a ~1.5x slower state every few seconds; the
    // median, the mean throughput and the CPU time per op follow the
    // share of the run spent in each state, too unsteadily to bound,
    // while the 90th percentile sits in the slow state in every run.
    // `failed` carries the errors.
    let busy_s: f64 = lat.iter().sum::<f64>() / 1e3;
    println!("ops attempted={attempted} failed={failed}");
    println!(
        "metric error_share {} share",
        failed as f64 / attempted as f64
    );
    println!("metric latency_p50_ms {} ms", quantile(&lat, 0.5));
    println!("metric ops_per_s {} 1/s", attempted as f64 / busy_s);
    println!("metric cpu_ms_per_op {} ms", cpu_ms / attempted as f64);

    let metrics = if args.trace {
        per_layer(&ops, &capture)?
    } else {
        vec![
            ("setup_s", median(&setup_s), "s"),
            ("latency_p90_ms", quantile(&lat, 0.9), "ms"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
            (
                "static_skip_share",
                share(skips, skips + monitored),
                "share",
            ),
            (
                "ok_share",
                (attempted - failed) as f64 / attempted as f64,
                "share",
            ),
        ]
    };

    let mut json = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        println!("metric {name} {value} {unit}");
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        failed == 0
    );
    Ok(())
}

type Metric = (&'static str, f64, &'static str);

/// The per-layer metrics of a traced run, from the traced ops' spans and
/// counts. Every metric is printed for every workload; a layer the
/// workload does not reach reads 0.
fn per_layer(ops: &[(OpResult, bool)], capture: &spans::Capture) -> Result<Vec<Metric>, String> {
    let traced: Vec<&OpResult> = ops.iter().filter(|(_, t)| *t).map(|(r, _)| r).collect();
    let untraced: Vec<&OpResult> = ops.iter().filter(|(_, t)| !*t).map(|(r, _)| r).collect();
    if traced.is_empty() {
        return Err("the traced run ended before its first traced op".into());
    }
    let n = traced.len() as f64;
    let acc = spans::account(capture);
    if acc.ops != traced.len() {
        return Err(format!(
            "found {} op spans for {} traced ops",
            acc.ops,
            traced.len()
        ));
    }

    let mut c = Counts::default();
    let mut d = DaemonTimes::default();
    let mut wall_ms = 0.0;
    for r in &traced {
        c.add(&r.counts);
        d.request_ms += r.daemon.request_ms;
        d.cache_load_ms += r.daemon.cache_load_ms;
        d.response_bytes += r.daemon.response_bytes;
        wall_ms += ms(r.latency);
    }
    let self_ms = |name: &str| acc.self_us.get(name).copied().unwrap_or(0) as f64 / 1e3 / n;
    let total_ms = |name: &str| acc.total_us.get(name).copied().unwrap_or(0) as f64 / 1e3 / n;

    // Reconciliation: layer self times plus the unattributed remainder
    // account for each op's wall time, so the layers may not claim more
    // than the time the ops took.
    let layers_ms: f64 = acc.self_us.values().sum::<u64>() as f64 / 1e3 / n;
    let op_wall_ms = wall_ms / n;
    let unattributed = (op_wall_ms - layers_ms) / op_wall_ms;
    println!(
        "reconcile: op wall {op_wall_ms:.3} ms = layers {layers_ms:.3} ms + unattributed {:.3} ms",
        op_wall_ms - layers_ms
    );
    if unattributed < -1e-3 {
        return Err("layer self times exceed the ops' wall time".into());
    }

    let mean_ms =
        |rs: &[&OpResult]| rs.iter().map(|r| ms(r.latency)).sum::<f64>() / rs.len() as f64;
    let trace_overhead = if untraced.is_empty() {
        0.0
    } else {
        1.0 - mean_ms(&untraced) / mean_ms(&traced)
    };

    let serve = d.request_ms > 0.0;
    let client_ms = total_ms("serve.client");
    let execute_ms =
        self_ms("interp.execute_hybrid") + self_ms("interp.execute_monitor") + self_ms("execute");
    let steps_per_us = if execute_ms > 0.0 {
        c.steps as f64 / n / (execute_ms * 1e3)
    } else {
        0.0
    };
    let per_op = |v: u64| v as f64 / n;
    Ok(vec![
        ("sexpr.parse_ms", self_ms("sexpr.parse"), "ms"),
        ("lang.desugar_ms", self_ms("lang.desugar"), "ms"),
        ("lang.resolve_ms", self_ms("lang.resolve"), "ms"),
        ("symbolic.plan_self_ms", self_ms("symbolic.plan"), "ms"),
        (
            "symbolic.defines_explored",
            per_op(c.defines_explored),
            "count",
        ),
        ("symbolic.rung_attempts", per_op(c.rung_attempts), "count"),
        (
            "symbolic.rung_yield",
            share(c.rung_discharged, c.rung_attempts),
            "share",
        ),
        ("symbolic.stubbed_applications", per_op(c.stubbed), "count"),
        (
            "symbolic.static_define_share",
            share(c.static_defines, c.defines),
            "share",
        ),
        ("cache.store_ms", self_ms("cache.store"), "ms"),
        ("cache.stores", per_op(c.cache_stores), "count"),
        (
            "cache.load_ms",
            if serve {
                d.cache_load_ms / n
            } else {
                self_ms("cache.load")
            },
            "ms",
        ),
        ("cache.loads", per_op(c.cache_loads), "count"),
        (
            "cache.hit_ratio",
            share(c.cache_hits, c.cache_loads),
            "share",
        ),
        ("ir.compile_ms", self_ms("ir.compile"), "ms"),
        ("interp.execute_ms", execute_ms, "ms"),
        (
            "interp.execute_hybrid_ms",
            self_ms("interp.execute_hybrid"),
            "ms",
        ),
        (
            "interp.execute_monitor_ms",
            self_ms("interp.execute_monitor"),
            "ms",
        ),
        ("interp.steps", per_op(c.steps), "count"),
        ("interp.steps_per_us", steps_per_us, "1/us"),
        ("interp.env_frames_allocated", per_op(c.env_frames), "count"),
        ("interp.monitored_calls", per_op(c.monitored_calls), "count"),
        ("interp.checks", per_op(c.checks), "count"),
        (
            "interp.pic_hit_ratio",
            share(c.pic_hits, c.generic_calls),
            "share",
        ),
        ("interp.static_skips", per_op(c.static_skips), "count"),
        ("serve.client_ms", client_ms, "ms"),
        ("serve.daemon_ms", d.request_ms / n, "ms"),
        (
            "serve.transport_ms",
            if serve {
                client_ms - d.request_ms / n
            } else {
                0.0
            },
            "ms",
        ),
        ("serve.plan_ms", self_ms("plan"), "ms"),
        ("serve.execute_ms", self_ms("execute"), "ms"),
        ("serve.daemon_other_ms", self_ms("serve.request"), "ms"),
        ("serve.response_bytes", d.response_bytes / n, "bytes"),
        ("bench.unattributed_share", unattributed, "share"),
        ("bench.trace_overhead_share", trace_overhead, "share"),
    ])
}

/// Runs every workload in its own process, one after another, and
/// prints each one's end-to-end (or per-layer) metrics.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut code = ExitCode::SUCCESS;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            other => {
                eprintln!("perfbench: workload {w} failed: {other:?}");
                code = ExitCode::from(1);
            }
        }
    }
    code
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Linearly interpolated quantile of sorted samples.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// User plus system CPU time of this process, all threads, in ms
/// (`/proc/self/stat`, clock ticks of 10 ms).
fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) * 10.0
}

/// Peak resident set size (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
