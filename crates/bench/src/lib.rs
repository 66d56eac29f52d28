//! Shared harness code for regenerating the paper's tables and figures.
//!
//! The binaries in `src/bin/` print paper-shaped reports:
//!
//! * `report_table1` — Table 1 (dynamic + static verdicts vs. the paper's).
//! * `report_fig10` — Figure 10 (monitoring slowdown across input sizes
//!   for the six workloads under unchecked / continuation-mark /
//!   imperative configurations).
//! * `report_divergence` — §5.1.2 (steps and time to catch divergence).
//! * `report_ablation` — how each monitor configuration knob changes the
//!   cost and check count of a monitored tight loop.
//! * `report_plan` — planning time with contract summaries on and off
//!   across layered corpora of growing size.
//!
//! # The `BENCH_fig10.json` trajectory file
//!
//! `report_fig10` additionally writes a machine-readable summary to
//! `BENCH_fig10.json` at the repository root so successive PRs can track
//! the performance trajectory. The schema (`sct-fig10/6`):
//!
//! ```json
//! {
//!   "schema": "sct-fig10/6",
//!   "fast": false,
//!   "scale": 1,
//!   "reps": 3,
//!   "entries": [
//!     { "workload": "sum", "setup": "imperative", "n": 8000,
//!       "median_ns": 5958000, "slowdown": 1.24 }
//!   ],
//!   "planning": [
//!     { "workload": "sum", "plan_ms": 1.207, "plan_warm_ms": 0.164 }
//!   ],
//!   "eval": [
//!     { "workload": "sum", "n": 128000, "reference_ns": 114740000,
//!       "vm_ns": 18020000, "speedup": 6.37, "steps_per_sec": 92000000,
//!       "generic_calls": 0 }
//!   ]
//! }
//! ```
//!
//! One entry per *workload × setup × input size*. `median_ns` is the
//! median wall time in nanoseconds of `reps` timed entry calls (setup,
//! compilation, and the hybrid pre-pass excluded); `slowdown` is
//! `median_ns` divided by the unchecked median at the same
//! `(workload, n)` — `1.0` for the unchecked rows themselves. `fast`
//! records whether the sweep ran in the CI smoke mode, whose numbers are
//! indicative only. Workload ids and setup labels match [`Setup::label`]
//! and `sct_corpus::workloads::fig10`.
//!
//! `planning` has one entry per workload: `plan_ms` is the median
//! wall-clock cost of the hybrid pre-pass into an empty [`MemStore`],
//! `plan_warm_ms` the median cost of planning the *same program again*
//! through the same store: every define hits its stored entry, so no verifier
//! runs (the path a warm `sct serve` daemon or `--cache-dir` pays).
//! The perf trajectory therefore tracks planning cost — the paper's
//! PSPACE-hard pre-pass — alongside run cost, and the warm column pins
//! the amortization claim: warm must stay well under cold.
//!
//! `eval` has one entry per workload, measured at the workload's largest
//! sweep size under the *unchecked* standard semantics: `reference_ns` is
//! the retained reference tree-walker (`sct_interp::reference`, the
//! evaluator every PR before the flat-IR VM measured against),
//! `vm_ns` the dispatch VM, `speedup` their ratio, and `steps_per_sec`
//! the VM's instruction throughput during the timed call. This is the
//! row that keeps the evaluator win itself — not just monitoring
//! overhead — in the trajectory. `generic_calls` counts the first-class
//! applications of one *hybrid* run at the same size
//! ([`Stats::generic_calls`]; generic sites are only told apart while
//! monitoring is active, so the unchecked timing runs cannot observe
//! them) — 0 for workloads whose call sites are all statically bound.
//!
//! Schema history: `sct-fig10/6` replaced the inline-cache hit, miss
//! and hit-rate columns of `eval` rows with `generic_calls` (generic
//! call sites no longer cache their callees' verdicts); `sct-fig10/5`
//! switched the hybrid column to the full production monitor config
//! (loop-entry designation + exponential backoff on the residual) and
//! added the inline-cache columns to `eval` rows; `sct-fig10/4` added
//! the top-level `"eval"` array (the reference-walker vs. flat-IR VM
//! unchecked baseline); `sct-fig10/3`
//! added the top-level `"planning"` array (cold vs. warm pre-pass cost
//! per workload); `sct-fig10/2` added the `"hybrid"` setup rows (the
//! hybrid enforcement ablation — statically discharged functions skip the
//! monitor); the per-entry shape is unchanged from `sct-fig10/1`.
//!
//! # Sweep-control flags
//!
//! `report_fig10` accepts:
//!
//! * `--fast` — CI smoke mode: the smallest size per workload and one rep
//!   (overridable with `--reps`); also recorded in the JSON as
//!   `"fast": true`.
//! * `--only ID` — restrict the sweep to one workload id (e.g. `--only
//!   ack`); unknown ids list the valid ones and exit 2. The JSON then
//!   contains only that workload's entries, so don't commit a `--only`
//!   artifact as the repo-root trajectory file.
//! * `--scale N` — multiply every input size by `N`.
//! * `--reps N` — timed repetitions per point (median reported).
//! * `--out PATH` — write the JSON somewhere other than the repo root.
//! * `--check PATH` — run no sweep; validate the document at `PATH` with
//!   [`check_fig10_json`] and exit 0 (valid) or 1 (invalid).

use sct_cache::MemStore;
use sct_core::json::{parse, Json};
use sct_core::monitor::{BackoffPolicy, TableStrategy};
use sct_core::plan::EnforcementPlan;
use sct_corpus::workloads::Workload;
use sct_interp::{reference, EvalError, Machine, MachineConfig, SemanticsMode, Stats, Value};
use sct_ir::CompiledProgram;
use sct_lang::ast::Program;
use sct_symbolic::{plan_program, NullStore, PlanConfig};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// The Figure-10 configurations, plus the hybrid ablation column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Setup {
    /// Standard semantics, no monitoring.
    Unchecked,
    /// Monitored with the persistent continuation-mark table.
    ContinuationMark,
    /// Monitored with the imperative table plus restore frames.
    Imperative,
    /// The full production stack: the hybrid enforcement plan (statically
    /// discharged functions skip the monitor) *plus* the §5 overhead
    /// reductions for the residual — loop-entry-only designation and
    /// exponential backoff. Workloads the verifier proves (Table 1 rows
    /// where the static column passes) land at ~unchecked speed; residual
    /// workloads pay the amortized monitor, not the every-call ablation
    /// cost that the `imperative` column isolates.
    Hybrid,
}

impl Setup {
    /// All setups, in the figure's legend order (hybrid last).
    pub fn all() -> [Setup; 4] {
        [
            Setup::Unchecked,
            Setup::ContinuationMark,
            Setup::Imperative,
            Setup::Hybrid,
        ]
    }

    /// Legend label.
    pub fn label(self) -> &'static str {
        match self {
            Setup::Unchecked => "unchecked",
            Setup::ContinuationMark => "continuation-mark",
            Setup::Imperative => "imperative",
            Setup::Hybrid => "hybrid",
        }
    }
}

/// A workload compiled once, runnable many times.
pub struct CompiledWorkload {
    /// The workload metadata (entry name, input builder, checker).
    pub workload: Workload,
    /// The compiled program.
    pub program: Program,
    /// The hybrid enforcement plan, computed once at compile time (what
    /// the [`Setup::Hybrid`] runs consume). Pre-pass cost is setup, not
    /// run time — exactly as `sct hybrid` amortizes it over a whole run.
    pub plan: Rc<EnforcementPlan>,
    /// The flat-IR image without a plan (unchecked / cm / imperative
    /// setups), compiled once and shared across repetitions — the same
    /// amortization `sct serve` performs.
    pub code: Rc<CompiledProgram>,
    /// The plan-directed flat-IR image (hybrid setup): call sites bake in
    /// the plan's skip/guarded/monitored decisions.
    pub code_hybrid: Rc<CompiledProgram>,
}

/// The [`PlanConfig`] a workload is planned under: the default ladder,
/// with the workload's declared signature pinned when it has one. Shared
/// by [`CompiledWorkload::new`] and the planning-cost measurements so the
/// timed pre-pass is exactly the one the hybrid column runs.
pub fn plan_config_for(workload: &Workload) -> PlanConfig {
    let mut plan_config = PlanConfig::default();
    if let Some((domains, result)) = workload.sig {
        plan_config
            .signatures
            .insert(workload.entry.to_string(), (domains.to_vec(), result));
    }
    plan_config
}

impl CompiledWorkload {
    /// Compiles a Figure-10 workload and runs the hybrid pre-pass over it
    /// (pinning the workload's declared signature, when it has one).
    ///
    /// # Panics
    ///
    /// Panics when the workload source fails to compile (corpus bug).
    pub fn new(workload: Workload) -> CompiledWorkload {
        let program = sct_lang::compile_program(&workload.source)
            .unwrap_or_else(|e| panic!("workload {} failed to compile: {e}", workload.id));
        let plan_config = plan_config_for(&workload);
        let plan = Rc::new(plan_program(&program, &plan_config, &mut NullStore).0);
        let code = Rc::new(sct_ir::compile(&program, None));
        let code_hybrid = Rc::new(sct_ir::compile(&program, Some(&plan)));
        CompiledWorkload {
            workload,
            program,
            plan,
            code,
            code_hybrid,
        }
    }

    /// Measures the hybrid pre-pass: `(cold, warm)` wall time. Cold plans
    /// through an empty decision store (every `define` runs the full
    /// symbolic exploration); warm immediately re-plans the same program
    /// through the now-populated store — all hits, zero exploration, the
    /// path a `--cache-dir` re-invocation or the `sct serve` daemon pays.
    ///
    /// # Panics
    ///
    /// Panics when the warm replay is not structurally identical to the
    /// cold plan, or when any define misses on the warm pass — either
    /// would falsify the incrementality the cache subsystem promises.
    pub fn plan_cost_once(&self) -> (Duration, Duration) {
        let config = plan_config_for(&self.workload);
        let mut store = MemStore::new();
        let t0 = Instant::now();
        let (cold_plan, cold_stats) = plan_program(&self.program, &config, &mut store);
        let cold = t0.elapsed();
        let t1 = Instant::now();
        let (warm_plan, warm_stats) = plan_program(&self.program, &config, &mut store);
        let warm = t1.elapsed();
        assert_eq!(
            (cold_stats.hits(), warm_stats.misses()),
            (0, 0),
            "{}: cold must all-miss and warm must all-hit",
            self.workload.id
        );
        assert!(
            cold_plan.structurally_eq(&warm_plan),
            "{}: warm re-plan diverged from cold",
            self.workload.id
        );
        (cold, warm)
    }

    fn config(&self, setup: Setup) -> MachineConfig {
        let (mode, strategy) = match setup {
            Setup::Unchecked => (SemanticsMode::Standard, TableStrategy::Imperative),
            Setup::ContinuationMark => (SemanticsMode::Monitored, TableStrategy::ContinuationMark),
            Setup::Imperative | Setup::Hybrid => {
                (SemanticsMode::Monitored, TableStrategy::Imperative)
            }
        };
        let mut config = MachineConfig {
            mode,
            order: self.workload.order.handle(),
            plan: (setup == Setup::Hybrid).then(|| self.plan.clone()),
            ..MachineConfig::monitored(strategy)
        };
        if setup == Setup::Hybrid {
            // The hybrid column benchmarks the full production stack: the
            // residual that the plan cannot discharge runs under the §5
            // overhead reductions (loop-entry designation + exponential
            // backoff), not the every-call formal semantics that the
            // `imperative` column isolates.
            config.monitor = config
                .monitor
                .with_loop_entries_only(true)
                .with_backoff(BackoffPolicy::Exponential { factor: 2 });
        }
        config
    }

    /// Runs once at size `n`, returning the wall time of the entry call
    /// (setup excluded) and the machine stats. The flat-IR image is
    /// reused across calls (compiled once in [`CompiledWorkload::new`]).
    ///
    /// # Panics
    ///
    /// Panics if evaluation fails or the result check rejects the output.
    pub fn run_once(&self, n: u64, setup: Setup) -> (Duration, Stats) {
        let code = match setup {
            Setup::Hybrid => self.code_hybrid.clone(),
            _ => self.code.clone(),
        };
        let mut m = Machine::with_code(&self.program, code, self.config(setup));
        m.run()
            .unwrap_or_else(|e| panic!("{}: program body failed: {e}", self.workload.id));
        let f = m
            .global(self.workload.entry)
            .unwrap_or_else(|| panic!("{}: no entry {}", self.workload.id, self.workload.entry));
        let args = (self.workload.make_args)(n);
        let start = Instant::now();
        let v = m
            .call(f, args)
            .unwrap_or_else(|e| panic!("{} (n={n}, {setup:?}): {e}", self.workload.id));
        let elapsed = start.elapsed();
        assert!(
            (self.workload.check)(n, &v),
            "{} (n={n}, {setup:?}): wrong result {}",
            self.workload.id,
            v.to_write_string()
        );
        (elapsed, m.stats)
    }

    /// Runs once at size `n` under the *unchecked* standard semantics on
    /// the retained reference tree-walker — the "before" of the `eval`
    /// trajectory rows, so `BENCH_fig10.json` pins the VM win against the
    /// machine it replaced.
    ///
    /// # Panics
    ///
    /// As [`CompiledWorkload::run_once`].
    pub fn run_once_reference(&self, n: u64) -> (Duration, Stats) {
        let mut m = reference::Machine::new(&self.program, MachineConfig::standard());
        m.run()
            .unwrap_or_else(|e| panic!("{}: program body failed: {e}", self.workload.id));
        let f = m
            .global(self.workload.entry)
            .unwrap_or_else(|| panic!("{}: no entry {}", self.workload.id, self.workload.entry));
        let args = (self.workload.make_args)(n);
        let start = Instant::now();
        let v = m
            .call(f, args)
            .unwrap_or_else(|e| panic!("{} (n={n}, reference): {e}", self.workload.id));
        let elapsed = start.elapsed();
        assert!(
            (self.workload.check)(n, &v),
            "{} (n={n}, reference): wrong result {}",
            self.workload.id,
            v.to_write_string()
        );
        (elapsed, m.stats)
    }
}

/// Runs a diverging corpus program under monitoring, returning the time
/// and machine steps until the size-change error fires.
///
/// # Panics
///
/// Panics if the program is *not* caught (that would falsify §5.1.2).
pub fn time_to_detection(
    program: &sct_corpus::CorpusProgram,
    strategy: TableStrategy,
) -> (Duration, u64) {
    let prog = sct_lang::compile_program(program.source).expect("diverging program compiles");
    let config = MachineConfig {
        mode: SemanticsMode::Monitored,
        order: program.order.handle(),
        ..MachineConfig::monitored(strategy)
    };
    let mut m = Machine::new(&prog, config);
    let start = Instant::now();
    let r = m.run();
    let elapsed = start.elapsed();
    match r {
        Err(EvalError::Sc(_)) => (elapsed, m.stats.steps),
        other => panic!("{}: expected errorSC, got {other:?}", program.id),
    }
}

/// One measured point of the Figure-10 sweep, as serialized into
/// `BENCH_fig10.json` (see the crate docs for the schema).
#[derive(Debug, Clone)]
pub struct Fig10Entry {
    /// Workload id (`"sum"`, `"ack"`, `"interp-msort"`, …).
    pub workload: &'static str,
    /// Setup label (one of [`Setup::label`]).
    pub setup: &'static str,
    /// Input size.
    pub n: u64,
    /// Median wall time of the timed entry calls, in nanoseconds.
    pub median_ns: u128,
    /// `median_ns` relative to the unchecked median at the same
    /// `(workload, n)`.
    pub slowdown: f64,
}

/// Cold vs. warm pre-pass cost for one workload, as serialized into the
/// `planning` array of `BENCH_fig10.json` (see the crate docs).
#[derive(Debug, Clone)]
pub struct PlanTiming {
    /// Workload id.
    pub workload: &'static str,
    /// Median cold planning cost (empty store), milliseconds.
    pub plan_ms: f64,
    /// Median warm re-planning cost (same process, populated cache),
    /// milliseconds.
    pub plan_warm_ms: f64,
}

/// Unchecked-baseline evaluator comparison for one workload: the retained
/// reference tree-walker ("before") against the flat-IR dispatch VM
/// ("after") at the workload's largest sweep size. Serialized into the
/// `eval` array of `BENCH_fig10.json` so the perf trajectory captures the
/// evaluator win itself, independent of monitoring.
#[derive(Debug, Clone)]
pub struct EvalTiming {
    /// Workload id.
    pub workload: &'static str,
    /// Input size the comparison ran at.
    pub n: u64,
    /// Median reference tree-walker wall time, nanoseconds.
    pub reference_ns: u128,
    /// Median flat-IR VM wall time, nanoseconds.
    pub vm_ns: u128,
    /// `reference_ns / vm_ns`.
    pub speedup: f64,
    /// VM dispatch throughput: instructions per second during the timed
    /// call (steps from [`Stats::steps`] over the median wall time).
    pub steps_per_sec: f64,
    /// First-class applications during a hybrid run at the same size
    /// ([`Stats::generic_calls`]).
    pub generic_calls: u64,
}

/// Serializes the sweep into the `sct-fig10/6` JSON document (see the
/// crate docs for the schema and its history). Hand-rolled because the
/// workspace builds offline (no serde); all strings involved are static
/// identifiers needing no escaping.
pub fn fig10_json(
    entries: &[Fig10Entry],
    planning: &[PlanTiming],
    eval: &[EvalTiming],
    fast: bool,
    scale: u64,
    reps: usize,
) -> String {
    let mut out =
        String::with_capacity(160 + entries.len() * 96 + planning.len() * 72 + eval.len() * 128);
    out.push_str("{\n  \"schema\": \"sct-fig10/6\",\n");
    out.push_str(&format!("  \"fast\": {fast},\n"));
    out.push_str(&format!("  \"scale\": {scale},\n"));
    out.push_str(&format!("  \"reps\": {reps},\n"));
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"workload\": \"{}\", \"setup\": \"{}\", \"n\": {}, \
             \"median_ns\": {}, \"slowdown\": {:.4} }}{}\n",
            e.workload,
            e.setup,
            e.n,
            e.median_ns,
            e.slowdown,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"planning\": [\n");
    for (i, p) in planning.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"workload\": \"{}\", \"plan_ms\": {:.4}, \"plan_warm_ms\": {:.4} }}{}\n",
            p.workload,
            p.plan_ms,
            p.plan_warm_ms,
            if i + 1 < planning.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"eval\": [\n");
    for (i, e) in eval.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"workload\": \"{}\", \"n\": {}, \"reference_ns\": {}, \"vm_ns\": {}, \
             \"speedup\": {:.4}, \"steps_per_sec\": {:.0}, \"generic_calls\": {} }}{}\n",
            e.workload,
            e.n,
            e.reference_ns,
            e.vm_ns,
            e.speedup,
            e.steps_per_sec,
            e.generic_calls,
            if i + 1 < eval.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Validates an `sct-fig10/6` document: the schema tag, a hybrid column,
/// positive medians and slowdowns, warm planning no slower than cold,
/// well-formed eval rows, and generic dispatch on the `interp-*`
/// workloads (`generic_calls > 0`; deterministic, so it holds even for a
/// one-rep `--fast` sweep).
/// Returns a one-line summary, or the first violated property.
///
/// # Errors
///
/// A message naming the violated property and the offending row.
pub fn check_fig10_json(text: &str) -> Result<String, String> {
    let doc = parse_schema(text, "sct-fig10/6")?;
    let entries = rows(&doc, "entries")?;
    let mut setups: Vec<&str> = Vec::new();
    for e in entries {
        let setup = e.get("setup").and_then(Json::as_str).unwrap_or_default();
        if !setups.contains(&setup) {
            setups.push(setup);
        }
        ensure(
            num(e, "median_ns")? > 0.0 && num(e, "slowdown")? > 0.0,
            "non-positive median or slowdown",
            e,
        )?;
    }
    if !setups.contains(&"hybrid") {
        return Err(format!("hybrid ablation column missing: {setups:?}"));
    }
    let planning = rows(&doc, "planning")?;
    for p in planning {
        let (cold, warm) = (num(p, "plan_ms")?, num(p, "plan_warm_ms")?);
        ensure(cold > 0.0 && warm > 0.0, "non-positive planning time", p)?;
        ensure(warm <= cold, "warm planning slower than cold", p)?;
    }
    let evals = rows(&doc, "eval")?;
    for e in evals {
        ensure(
            num(e, "reference_ns")? > 0.0 && num(e, "vm_ns")? > 0.0,
            "non-positive evaluator time",
            e,
        )?;
        ensure(
            num(e, "steps_per_sec")? > 0.0 && num(e, "speedup")? > 0.0,
            "non-positive throughput or speedup",
            e,
        )?;
        let generic = num(e, "generic_calls")?;
        let workload = e.get("workload").and_then(Json::as_str).unwrap_or_default();
        if workload.starts_with("interp-") {
            ensure(
                generic > 0.0,
                "interpreter workload without generic dispatch",
                e,
            )?;
        }
    }
    setups.sort_unstable();
    Ok(format!(
        "ok: {} entries, setups={setups:?}, {} planning rows, {} eval rows",
        entries.len(),
        planning.len(),
        evals.len()
    ))
}

/// Parses a bench document and checks its `schema` tag.
fn parse_schema(text: &str, schema: &str) -> Result<Json, String> {
    let doc = parse(text).map_err(|e| format!("not JSON: {e}"))?;
    let found = doc.get("schema").and_then(Json::as_str);
    if found != Some(schema) {
        return Err(format!("schema is {found:?}, expected {schema:?}"));
    }
    Ok(doc)
}

/// The non-empty array `doc[key]`.
fn rows<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match doc.get(key).and_then(Json::as_arr) {
        Some(rows) if !rows.is_empty() => Ok(rows),
        _ => Err(format!("no {key:?} rows recorded")),
    }
}

/// The number `row[key]`.
fn num(row: &Json, key: &str) -> Result<f64, String> {
    row.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{key:?} missing or not a number in {row}"))
}

/// `Err("what: row")` unless `ok`.
fn ensure(ok: bool, what: &str, row: &Json) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("{what}: {row}"))
    }
}

/// Validates an `sct-plan-bench/1` document (see `report_plan`): the
/// schema tag, a `fast` flag equal to `fast`, and per corpus positive
/// timings, `0 < incremental_misses < defines`, every define a summary
/// hit and statically discharged, some stubbed applications, and — where
/// full descent was measured — summary-stubbed and warm planning both
/// faster than it. A full run (`fast` false) must also show the ≥ 5×
/// cold-plan speedup on the smallest corpus and, between successive
/// sizes, cold summary planning and warm replay growing below
/// `size^1.5` and the front end below `size^1.25`. Returns a one-line
/// summary, or the first violated property.
///
/// # Errors
///
/// A message naming the violated property and the offending row.
pub fn check_plan_json(text: &str, fast: bool) -> Result<String, String> {
    let doc = parse_schema(text, "sct-plan-bench/1")?;
    let recorded = doc.get("fast").and_then(Json::as_bool);
    if recorded != Some(fast) {
        return Err(format!("fast is {recorded:?}, expected {fast}"));
    }
    let corpora = rows(&doc, "corpora")?;
    let mut prev: Option<&Json> = None;
    for (i, c) in corpora.iter().enumerate() {
        let defines = num(c, "defines")?;
        ensure(defines > 0.0, "no defines", c)?;
        let (cold, warm) = (num(c, "cold_summary_ms")?, num(c, "warm_ms")?);
        ensure(
            cold > 0.0 && warm > 0.0 && num(c, "compile_ms")? > 0.0,
            "non-positive timing",
            c,
        )?;
        ensure(num(c, "incremental_ms")? > 0.0, "non-positive timing", c)?;
        let misses = num(c, "incremental_misses")?;
        ensure(
            0.0 < misses && misses < defines,
            "incremental misses outside (0, defines)",
            c,
        )?;
        ensure(
            num(c, "summary_hits")? == defines && num(c, "static_summary")? == defines,
            "a define missed its summary or was not discharged",
            c,
        )?;
        ensure(
            num(c, "stubbed_applications")? > 0.0,
            "no stubbed applications",
            c,
        )?;
        if let Some(full) = c.get("cold_full_ms").and_then(Json::as_f64) {
            ensure(
                cold < full && warm < full,
                "summaries or warm replay not faster than full descent",
                c,
            )?;
            if !fast && i == 0 {
                ensure(num(c, "speedup")? >= 5.0, "cold-plan speedup below 5x", c)?;
            }
        }
        if let (Some(p), false) = (prev, fast) {
            let size = defines / num(p, "defines")?;
            for (key, exponent) in [
                ("cold_summary_ms", 1.5),
                ("compile_ms", 1.25),
                ("warm_ms", 1.5),
            ] {
                ensure(
                    num(c, key)? / num(p, key)? < size.powf(exponent),
                    &format!("{key} grew faster than defines^{exponent}"),
                    c,
                )?;
            }
        }
        prev = Some(c);
    }
    Ok(format!(
        "ok: {} corpora, largest {defines} defines",
        corpora.len(),
        defines = num(&corpora[corpora.len() - 1], "defines")?
    ))
}

/// Default output path for `BENCH_fig10.json`: the repository root,
/// located relative to this crate's manifest so `cargo run` works from any
/// working directory.
pub fn fig10_json_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_fig10.json")
}

/// Default output path for `BENCH_plan.json` (the `report_plan` contract
/// summary scaling driver's `sct-plan-bench/1` document), repo root as
/// above.
pub fn plan_json_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_plan.json")
}

/// Layered corpus structure: depth of the call DAG and callees per
/// define. Six layers of fanout three keep every define's reachable
/// closure bounded (≤ 3 + 9 + … + 243 defines regardless of corpus
/// width), so content digests and summary registration stay linear in
/// corpus size while full descent pays the multiplied closure walk.
pub const LAYERS: usize = 6;
/// Callees per define above layer 0 (see [`LAYERS`]).
pub const FANOUT: usize = 3;

/// Generates a layered call-DAG corpus of `n` single-parameter list
/// recursions, one `define` per line, callees before callers: layer 0 is
/// `len` clones, and each define in layer `k > 0` applies [`FANOUT`]
/// distinct defines from layer `k - 1` to `(cdr l)` alongside its own
/// self-recursion. `base` is the base-case constant of define `f0` — the
/// knob `report_plan`'s incremental measurement edits.
pub fn layered_corpus(n: usize, seed: u64, base: i64) -> String {
    let mut rng = sct_fuzz::Rng::new(seed);
    let per = (n / LAYERS).max(FANOUT);
    let mut prev: Vec<usize> = Vec::new();
    let mut out = String::new();
    let mut idx = 0usize;
    for layer in 0..LAYERS {
        let count = if layer == LAYERS - 1 {
            n.saturating_sub(idx).max(per)
        } else {
            per
        };
        let mut ids = Vec::with_capacity(count);
        for _ in 0..count {
            let name = format!("f{idx}");
            if layer == 0 {
                let b = if idx == 0 { base } else { 0 };
                out.push_str(&format!(
                    "(define ({name} l) (if (null? l) {b} (+ 1 ({name} (cdr l)))))\n"
                ));
            } else {
                let mut callees: Vec<usize> = Vec::with_capacity(FANOUT);
                while callees.len() < FANOUT {
                    let c = prev[rng.below(prev.len() as u64) as usize];
                    if !callees.contains(&c) {
                        callees.push(c);
                    }
                }
                let calls: Vec<String> =
                    callees.iter().map(|c| format!("(f{c} (cdr l))")).collect();
                out.push_str(&format!(
                    "(define ({name} l) (if (null? l) 0 (+ {} ({name} (cdr l)))))\n",
                    calls.join(" ")
                ));
            }
            ids.push(idx);
            idx += 1;
        }
        prev = ids;
        if idx >= n {
            break;
        }
    }
    out
}

/// Formats a duration in the paper's milliseconds-with-log-axis spirit.
pub fn fmt_ms(d: Duration) -> String {
    let ms = d.as_secs_f64() * 1e3;
    if ms < 1.0 {
        format!("{:.3}ms", ms)
    } else if ms < 100.0 {
        format!("{:.2}ms", ms)
    } else {
        format!("{:.0}ms", ms)
    }
}

/// Result checker used by tests: value must be truthy.
pub fn check_truthy(v: &Value) -> bool {
    v.is_truthy()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal valid document, as `fig10_json` writes it.
    fn valid() -> String {
        let entries: Vec<Fig10Entry> = Setup::all()
            .iter()
            .map(|s| Fig10Entry {
                workload: "interp-sum",
                setup: s.label(),
                n: 100,
                median_ns: 1_000,
                slowdown: 1.5,
            })
            .collect();
        let planning = [PlanTiming {
            workload: "interp-sum",
            plan_ms: 2.0,
            plan_warm_ms: 0.5,
        }];
        let eval = [EvalTiming {
            workload: "interp-sum",
            n: 100,
            reference_ns: 3_000,
            vm_ns: 1_000,
            speedup: 3.0,
            steps_per_sec: 1e6,
            generic_calls: 100,
        }];
        fig10_json(&entries, &planning, &eval, true, 1, 1)
    }

    #[test]
    fn fig10_check_accepts_the_writer_output_and_the_committed_artifact() {
        check_fig10_json(&valid()).unwrap();
        let committed = std::fs::read_to_string(fig10_json_path()).unwrap();
        check_fig10_json(&committed).unwrap();
    }

    #[test]
    fn fig10_check_rejects_each_violated_property() {
        let doc = valid();
        for (from, to, why) in [
            ("sct-fig10/6", "sct-fig10/5", "schema"),
            ("\"hybrid\"", "\"hybrid-x\"", "hybrid"),
            ("\"median_ns\": 1000", "\"median_ns\": 0", "median"),
            (
                "\"plan_warm_ms\": 0.5000",
                "\"plan_warm_ms\": 2.5",
                "warm planning",
            ),
            ("\"vm_ns\": 1000", "\"vm_ns\": 0", "evaluator time"),
            (
                "\"generic_calls\": 100",
                "\"generic_calls\": 0",
                "generic dispatch",
            ),
        ] {
            assert!(doc.contains(from), "{from} not in {doc}");
            let err = check_fig10_json(&doc.replace(from, to)).unwrap_err();
            assert!(err.contains(why), "{why}: got {err}");
        }
    }

    /// A minimal valid full-run document, in `report_plan`'s layout.
    const PLAN: &str = r#"{ "schema": "sct-plan-bench/1", "fast": false, "corpora": [
    { "defines": 100, "compile_ms": 1.0, "cold_full_ms": 60.0, "cold_summary_ms": 10.0, "speedup": 6.0, "warm_ms": 2.0, "incremental_ms": 3.0, "incremental_misses": 5, "summary_hits": 100, "summary_misses": 0, "stubbed_applications": 250, "static_summary": 100, "static_full": 100 },
    { "defines": 300, "compile_ms": 3.0, "cold_full_ms": null, "cold_summary_ms": 30.0, "speedup": null, "warm_ms": 6.0, "incremental_ms": 9.0, "incremental_misses": 7, "summary_hits": 300, "summary_misses": 0, "stubbed_applications": 750, "static_summary": 300, "static_full": null }
  ] }"#;

    #[test]
    fn plan_check_accepts_a_valid_document_and_the_committed_artifact() {
        check_plan_json(PLAN, false).unwrap();
        // A fast run skips the speedup and growth gates.
        let fast = PLAN
            .replace("\"fast\": false", "\"fast\": true")
            .replace("\"speedup\": 6.0", "\"speedup\": 1.0")
            .replace("\"compile_ms\": 3.0", "\"compile_ms\": 30.0");
        check_plan_json(&fast, true).unwrap();
        let committed = std::fs::read_to_string(plan_json_path()).unwrap();
        check_plan_json(&committed, false).unwrap();
    }

    #[test]
    fn plan_check_rejects_each_violated_property() {
        for (from, to, why) in [
            ("sct-plan-bench/1", "sct-plan-bench/2", "schema"),
            ("\"fast\": false", "\"fast\": true", "fast"),
            ("\"warm_ms\": 2.0", "\"warm_ms\": 0", "non-positive"),
            ("\"compile_ms\": 1.0", "\"compile_ms\": 0", "non-positive"),
            (
                "\"incremental_ms\": 3.0",
                "\"incremental_ms\": 0",
                "non-positive",
            ),
            (
                "\"incremental_misses\": 5",
                "\"incremental_misses\": 0",
                "incremental",
            ),
            (
                "\"incremental_misses\": 5",
                "\"incremental_misses\": 100",
                "incremental",
            ),
            ("\"summary_hits\": 100", "\"summary_hits\": 99", "summary"),
            (
                "\"static_summary\": 100",
                "\"static_summary\": 99",
                "discharged",
            ),
            (
                "\"stubbed_applications\": 250",
                "\"stubbed_applications\": 0",
                "stubbed",
            ),
            (
                "\"cold_full_ms\": 60.0",
                "\"cold_full_ms\": 9.0",
                "full descent",
            ),
            ("\"warm_ms\": 2.0", "\"warm_ms\": 61.0", "full descent"),
            ("\"speedup\": 6.0", "\"speedup\": 4.9", "speedup"),
            (
                "\"cold_summary_ms\": 30.0",
                "\"cold_summary_ms\": 52.0",
                "cold_summary_ms grew",
            ),
            (
                "\"compile_ms\": 3.0",
                "\"compile_ms\": 4.0",
                "compile_ms grew",
            ),
            ("\"warm_ms\": 6.0", "\"warm_ms\": 11.0", "warm_ms grew"),
        ] {
            assert!(PLAN.contains(from), "{from} not in {PLAN}");
            let err = check_plan_json(&PLAN.replacen(from, to, 1), false).unwrap_err();
            assert!(err.contains(why), "{why}: got {err}");
        }
    }
}
