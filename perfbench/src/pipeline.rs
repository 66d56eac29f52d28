//! What the workloads share: the per-op counts, the `sct hybrid` pipeline
//! stages wrapped in layer spans, and the timing store wrapper.

use sct_core::plan::EnforcementPlan;
use sct_core::plan_codec::{decode_entry, encode_entry, PortableDecision};
use sct_core::summary_codec::{decode_summary, encode_summary, PortableSummary};
use sct_interp::Stats;
use sct_ir::CompiledProgram;
use sct_lang::ast::Program;
use sct_obs::trace::Span;
use sct_obs::Registry;
use sct_symbolic::pipeline::{DecisionStore, IncrementalStats};
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

/// Work counts of one op. All of them are functions of the op's input
/// only, so the determinism self-check can compare them exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub steps: u64,
    pub env_frames: u64,
    pub monitored_calls: u64,
    pub checks: u64,
    pub static_skips: u64,
    pub generic_calls: u64,
    pub pic_hits: u64,
    /// `static_skips` and `monitored_calls` of hybrid executions only:
    /// the inputs of `static_skip_share`.
    pub hybrid_skips: u64,
    pub hybrid_monitored: u64,
    pub defines: u64,
    pub defines_explored: u64,
    pub static_defines: u64,
    pub rung_attempts: u64,
    pub rung_discharged: u64,
    pub stubbed: u64,
    pub cache_loads: u64,
    pub cache_hits: u64,
    pub cache_stores: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.steps += o.steps;
        self.env_frames += o.env_frames;
        self.monitored_calls += o.monitored_calls;
        self.checks += o.checks;
        self.static_skips += o.static_skips;
        self.generic_calls += o.generic_calls;
        self.pic_hits += o.pic_hits;
        self.hybrid_skips += o.hybrid_skips;
        self.hybrid_monitored += o.hybrid_monitored;
        self.defines += o.defines;
        self.defines_explored += o.defines_explored;
        self.static_defines += o.static_defines;
        self.rung_attempts += o.rung_attempts;
        self.rung_discharged += o.rung_discharged;
        self.stubbed += o.stubbed;
        self.cache_loads += o.cache_loads;
        self.cache_hits += o.cache_hits;
        self.cache_stores += o.cache_stores;
    }

    /// Adds one machine run's counters.
    pub fn add_run(&mut self, s: &Stats, hybrid: bool) {
        self.steps += s.steps;
        self.env_frames += s.env_frames_allocated;
        self.monitored_calls += s.monitored_calls;
        self.checks += s.checks;
        self.static_skips += s.static_skips;
        self.generic_calls += s.generic_calls;
        self.pic_hits += s.pic_hits;
        if hybrid {
            self.hybrid_skips += s.static_skips;
            self.hybrid_monitored += s.monitored_calls;
        }
    }

    /// Adds one planning pass: its decisions and, when `reg` recorded
    /// it, the ladder and summary counters.
    pub fn add_plan(&mut self, plan: &EnforcementPlan, stats: &IncrementalStats, reg: &Registry) {
        self.defines += stats.defines.len() as u64;
        self.defines_explored += stats.misses() as u64;
        self.static_defines += plan.count("static") as u64;
        let snap = reg.snapshot();
        for (name, v) in &snap.counters {
            if name.starts_with("plan.rung.") {
                if name.ends_with(".attempts") {
                    self.rung_attempts += v;
                } else if name.ends_with(".discharged") {
                    self.rung_discharged += v;
                }
            }
        }
        self.stubbed += snap
            .counter("plan.summary.stubbed_applications")
            .unwrap_or(0);
    }

    /// The counts the determinism self-check requires to repeat exactly.
    pub fn determinism_key(&self) -> [(&'static str, u64); 7] {
        [
            ("interp.steps", self.steps),
            ("symbolic.defines_explored", self.defines_explored),
            ("symbolic.rung_attempts", self.rung_attempts),
            ("cache.stores", self.cache_stores),
            ("cache.loads", self.cache_loads),
            ("static_skips", self.hybrid_skips),
            ("monitored_calls", self.hybrid_monitored),
        ]
    }
}

/// Layer times the daemon measures itself (serve-edit only), per op.
#[derive(Clone, Copy, Debug, Default)]
pub struct DaemonTimes {
    /// `serve.latency.hybrid_us`: the daemon's whole-request time.
    pub request_ms: f64,
    /// `cache.load_us`: decision loads.
    pub cache_load_ms: f64,
    pub response_bytes: f64,
}

/// One op's outcome.
pub struct OpResult {
    /// The output was produced and was correct.
    pub ok: bool,
    /// Wall time of the op itself; excludes input preparation and
    /// clean-up outside it.
    pub latency: Duration,
    pub counts: Counts,
    pub daemon: DaemonTimes,
}

/// A workload after set-up: runs ops until closed.
pub trait Workload {
    /// Runs op `i`. `obs` records the planner's ladder counters for this
    /// op (warm-up and traced ops); timed untraced ops plan like the CLI,
    /// with planner metrics off.
    fn op(&mut self, i: usize, obs: bool) -> OpResult;
    /// Counts summed over set-up's warm-up ops.
    fn warmup_counts(&self) -> Counts;
    /// Stops everything set-up started. Returns the hybrid
    /// `(static_skips, monitored_calls)` behind `static_skip_share`, when
    /// the workload counts them otherwise than as the sum over its ops.
    fn close(self: Box<Self>) -> Option<(u64, u64)>;
}

/// parse → desugar → resolve, one span per stage.
pub fn front_end(op: &Span, src: &str) -> Result<Program, String> {
    let data = {
        let _s = op.child("sexpr.parse", &[]);
        sct_sexpr::parse_all(src).map_err(|e| format!("parse error: {e}"))?
    };
    let forms = {
        let _s = op.child("lang.desugar", &[]);
        sct_lang::desugar::desugar_top_level(&data).map_err(|e| format!("desugar error: {e}"))?
    };
    let _s = op.child("lang.resolve", &[]);
    sct_lang::resolve::resolve_program(&forms).map_err(|e| format!("resolve error: {e}"))
}

/// `sct_ir::compile`, in an `ir.compile` span.
pub fn compile(
    op: &Span,
    program: &Program,
    plan: Option<&EnforcementPlan>,
) -> Rc<CompiledProgram> {
    let _s = op.child("ir.compile", &[]);
    Rc::new(sct_ir::compile(program, plan))
}

/// The cache `plan-cold` plans into: a map from content key to the text
/// `DiskCache` would write to the key's file (`plan_codec::encode_entry`,
/// `summary_codec::encode_summary`), decoded again on load. Every call is
/// counted and runs in a child span of the planning span: `cache.load` for
/// decision and summary reads, `cache.store` for decision and summary
/// writes.
///
/// The entries stay in memory because on the host the benchmark was tuned
/// on, creating a file cost anywhere from 10 µs to 0.5 ms of kernel time,
/// depending on how many files had been deleted shortly before, by this
/// run or an earlier one. With about 2000 new files per op, `plan-cold`
/// measured the file system's recent history more than the program.
pub struct TimedStore<'a> {
    decisions: HashMap<String, String>,
    summaries: HashMap<String, String>,
    parent: &'a Span,
    pub loads: u64,
    pub hits: u64,
    pub stores: u64,
}

impl<'a> TimedStore<'a> {
    /// An empty store.
    pub fn new(parent: &'a Span) -> TimedStore<'a> {
        TimedStore {
            decisions: HashMap::new(),
            summaries: HashMap::new(),
            parent,
            loads: 0,
            hits: 0,
            stores: 0,
        }
    }

    fn loaded<T>(&mut self, r: Option<T>) -> Option<T> {
        self.loads += 1;
        self.hits += u64::from(r.is_some());
        r
    }
}

impl DecisionStore for TimedStore<'_> {
    fn load(&mut self, key: &str) -> Option<PortableDecision> {
        let _s = self.parent.child("cache.load", &[]);
        let r = self
            .decisions
            .get(key)
            .and_then(|text| decode_entry(text).ok());
        self.loaded(r)
    }

    fn store(&mut self, key: &str, entry: &PortableDecision) {
        let _s = self.parent.child("cache.store", &[]);
        self.stores += 1;
        self.decisions.insert(key.to_string(), encode_entry(entry));
    }

    fn load_summary(&mut self, key: &str) -> Option<PortableSummary> {
        let _s = self.parent.child("cache.load", &[]);
        let r = self
            .summaries
            .get(key)
            .and_then(|text| decode_summary(text).ok());
        self.loaded(r)
    }

    fn store_summary(&mut self, key: &str, summary: &PortableSummary) {
        let _s = self.parent.child("cache.store", &[]);
        self.stores += 1;
        self.summaries
            .insert(key.to_string(), encode_summary(summary));
    }
}
