//! The hybrid enforcement pre-pass: statically discharge what §4 can
//! prove, leave the residual to §3's monitor, and refute eagerly.
//!
//! [`plan_program`] runs the symbolic exploration behind
//! [`verify_function`](crate::verify::verify_function) over every
//! `define` in a program and folds the outcomes into an
//! [`EnforcementPlan`]:
//!
//! * A function whose exploration is exhaustive and whose every discovered
//!   graph set passes the Lee–Jones–Ben-Amram check becomes
//!   [`Decision::Static`] — the monitor's fast path skips it entirely.
//! * A function whose exploration hits the fuel budget or an unsupported
//!   feature becomes [`Decision::Monitor`]: the *fuel-budget fallback*. The plan never weakens Theorem 3.1 — anything
//!   unproven keeps full dynamic monitoring.
//! * A function for which *every* attempted domain assignment yields an
//!   exhaustive exploration with a definite graph-set violation becomes
//!   [`Decision::Refuted`]: the witness is exactly what the monitor would
//!   blame the moment that recursion executes, so the hybrid driver
//!   reports it — with the same blame label, read off a surrounding
//!   `terminating/c` wrapper — before running the program (deliberately
//!   stricter than the monitor for a refuted function that is never
//!   applied; see `sct_core::plan`).
//!
//! # The domain ladder
//!
//! `verify_function` needs argument domains, but a bare `(define (f x) …)`
//! declares none. The pre-pass therefore tries a short ladder per
//! function: first all-[`PlanDomain::Any`] (a proof needing no run-time
//! guard), then all-[`PlanDomain::Nat`], then all-[`PlanDomain::Pos`]. A
//! proof under a non-trivial domain is sound only for in-domain calls, so
//! the resulting [`Decision::Static`] carries the rung's domains as a
//! guard the machine re-checks per call (a constant-time integer test;
//! out-of-domain calls fall back to the monitor). Callers that *know*
//! signatures (the Table 1 harness, the benchmark driver) can pin them
//! via [`PlanConfig::signatures`]. Refutation requires *every* ladder
//! attempt to end in a violation whose witness is a discovered (level-1)
//! graph of the *entry* λ — a bad *composite* alone never refutes,
//! because an actual run may never realize it as a call sequence
//! (subtractive gcd passes the monitor even though its closure contains a
//! bad composite), and a nested λ's static self-call may never share a
//! dynamic closure key (the `isabelle-poly` closure builder).
//!
//! # Memoized re-verification
//!
//! The Lee–Jones–Ben-Amram stage is memoized through
//! [`LjbCache`](sct_core::plan::LjbCache), keyed by the interned graph
//! set: planning the same program twice (benchmark repetitions, repeated
//! `sct hybrid` runs in one process) pays the closure computation once.
//! Pass a [`PlanCache`] to [`plan_program_incremental`] to share the memo
//! across calls.
//!
//! # Examples
//!
//! ```
//! use sct_lang::compile_program;
//! use sct_symbolic::pipeline::{plan_program, PlanConfig};
//!
//! let prog = compile_program(
//!     "(define (sum i acc) (if (zero? i) acc (sum (- i 1) (+ acc i))))",
//! ).unwrap();
//! let plan = plan_program(&prog, &PlanConfig::default());
//! assert_eq!(plan.count("static"), 1);
//! // sum only terminates on naturals, so the discharge is nat-guarded.
//! let (_, guard) = plan.static_lambdas().next().unwrap();
//! assert!(guard.is_some());
//! ```

use crate::digest::ProgramDigests;
use crate::exec::{CalleeSummary, ExecConfig, GlobalSnapshot, SummaryTable};
use crate::verify::{explore_with_index, Exploration};
use sct_core::ljb::ClosureResult;
use sct_core::plan::{Decision, EnforcementPlan, FnDecision, PlanDomain};
use sct_core::plan_codec::PortableDecision;
use sct_core::summary_codec::{LambdaRef, PortableSummary};
use sct_core::ScGraph;
use sct_lang::ast::{Expr, LambdaDef, LambdaId, Program, TopForm};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::time::Instant;

/// A declared verification signature: one domain per parameter plus the
/// result domain assumed at summarized self-calls.
pub type Signature = (Vec<PlanDomain>, PlanDomain);

/// Observability hook for the planner: when armed with a registry, the
/// hybrid pre-pass records per-define plan time (`plan.define_us`),
/// per-ladder-rung attempt/discharge counters
/// (`plan.rung.<any|nat|pos|signature>.{attempts,discharged}`),
/// symbolic-executor fuel (`plan.fuel_used`), and the `plan.summary.*`
/// family (store hits and misses, stubbed applications, and the summaries
/// `merge_summaries` walked, `plan.summary.merge_visits`). The disabled
/// default records nothing. Carried inside [`PlanConfig`], so it crosses planning
/// threads with the config clone; excluded from the cache content key
/// (`digest::hash_config` selects fields explicitly) because metrics
/// wiring cannot change a decision.
#[derive(Debug, Clone, Default)]
pub struct PlanObs {
    reg: Option<std::sync::Arc<sct_obs::Registry>>,
}

impl PlanObs {
    /// The inert hook: every record is a no-op.
    pub fn disabled() -> PlanObs {
        PlanObs::default()
    }

    /// A hook recording into `reg` (a serve daemon's or a CLI
    /// invocation's own registry).
    pub fn registered(reg: std::sync::Arc<sct_obs::Registry>) -> PlanObs {
        PlanObs { reg: Some(reg) }
    }

    /// The registry this hook records into, when armed.
    pub fn registry(&self) -> Option<&sct_obs::Registry> {
        self.reg.as_deref()
    }

    fn define_done(&self, micros: u64) {
        if let Some(r) = self.registry() {
            r.counter("plan.defines").inc();
            r.histogram("plan.define_us").record(micros);
        }
    }

    fn rung_attempt(&self, rung: &str) {
        if let Some(r) = self.registry() {
            r.counter(&format!("plan.rung.{rung}.attempts")).inc();
        }
    }

    fn rung_discharged(&self, rung: &str) {
        if let Some(r) = self.registry() {
            r.counter(&format!("plan.rung.{rung}.discharged")).inc();
        }
    }

    fn fuel(&self, steps: u64) {
        if let Some(r) = self.registry() {
            r.counter("plan.fuel_used").add(steps);
        }
    }

    /// Pre-registers the `plan.summary.*` family so a `metrics` snapshot
    /// shows the counters (at zero) even before any summary traffic.
    fn summary_touch(&self) {
        if let Some(r) = self.registry() {
            r.counter("plan.summary.hits").add(0);
            r.counter("plan.summary.misses").add(0);
            r.counter("plan.summary.stubbed_applications").add(0);
            r.counter("plan.summary.merge_visits").add(0);
        }
    }

    fn summary_hit(&self) {
        if let Some(r) = self.registry() {
            r.counter("plan.summary.hits").inc();
        }
    }

    fn summary_miss(&self) {
        if let Some(r) = self.registry() {
            r.counter("plan.summary.misses").inc();
        }
    }

    fn merge_visits(&self, n: u64) {
        if n > 0 {
            if let Some(r) = self.registry() {
                r.counter("plan.summary.merge_visits").add(n);
            }
        }
    }

    fn summary_stubbed(&self, n: u64) {
        if n > 0 {
            if let Some(r) = self.registry() {
                r.counter("plan.summary.stubbed_applications").add(n);
            }
        }
    }
}

/// Configuration for [`plan_program`].
#[derive(Debug, Clone)]
pub struct PlanConfig {
    /// Per-attempt executor limits — [`ExecConfig::step_budget`] is the
    /// *fuel budget*: an exploration that exhausts it reports incomplete
    /// and the function falls back to [`Decision::Monitor`].
    pub exec: ExecConfig,
    /// When true (the default), definite violations become
    /// [`Decision::Refuted`]; when false they degrade to
    /// [`Decision::Monitor`]. Refutation presumes the monitor runs the
    /// *default* well-founded order of Figure 5 — the same assumption the
    /// §4 verifier makes — so drivers configuring a custom order (`sct
    /// hybrid --order …`) must turn it off: a graph that fails the
    /// default order may descend under a replacement order (§3.3).
    /// *Discharges*, by contrast, survive any order: a
    /// [`Decision::Static`] asserts genuine termination, which no choice
    /// of order can contradict — so under a custom order the hybrid run
    /// may skip calls that order's monitor would (falsely) blame. That is
    /// the same precision win Table 1 reports for rows where the dynamic
    /// check fails but the static one passes.
    pub refute: bool,
    /// Pinned signatures by `define`d name, overriding the ladder.
    pub signatures: HashMap<String, Signature>,
    /// Absolute wall-clock deadline for the whole planning pass. A
    /// `define` reached after the deadline is not explored: it degrades to
    /// [`Decision::Monitor`] with a deadline reason — the same fuel-budget
    /// fallback rung, so the plan stays sound, just maximally pessimistic.
    /// Store hits are still honored past the deadline (a load is cheap and
    /// a persisted decision is load-independent). Deadline-degraded
    /// decisions are *never persisted*: they reflect machine load, not
    /// program content, and the content key must not pin one slow
    /// moment's pessimism. Excluded from the content key
    /// for the same reason (see `digest::hash_config`).
    pub deadline: Option<Instant>,
    /// Metrics hook — [`PlanObs::disabled`] by default. Excluded from
    /// the content key like `deadline`: observability wiring reflects
    /// the host process, not program content.
    pub obs: PlanObs,
    /// When true (the default), already-planned `Static` recursive defines
    /// are registered as contract summaries and later explorations *stub*
    /// applications of them with the summary graphs instead of descending
    /// into their bodies — making per-define exploration local and
    /// whole-program planning near-linear. Sound by construction (only
    /// verified callees are stubbed, only for provably in-domain
    /// arguments), and any non-verified outcome of a stubbed ladder is
    /// re-derived stub-free, so Monitor/Refuted verdicts are bit-identical
    /// to full descent. Excluded from the content key: both modes compute
    /// the same decisions, so they may share persisted entries.
    pub summaries: bool,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            exec: ExecConfig::default(),
            refute: true,
            signatures: HashMap::new(),
            deadline: None,
            obs: PlanObs::disabled(),
            summaries: true,
        }
    }
}

/// State shared across [`plan_program_incremental`] calls: the memoized
/// closure checks. Reusing one cache makes re-planning an unchanged
/// program (or a program sharing helper graphs) skip every closure
/// computation whose graph set was seen before.
#[derive(Debug, Default)]
pub struct PlanCache {
    /// The graph-set-keyed Lee–Jones–Ben-Amram memo.
    pub ljb: sct_core::plan::LjbCache,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }
}

/// Plans a whole program with a fresh [`PlanCache`] and no store. See the
/// module docs.
///
/// Every `define` whose initializer is a λ (possibly under `terminating/c`
/// wrappers, whose blame label is recorded) gets a decision; other
/// top-level forms are irrelevant to enforcement and are skipped.
pub fn plan_program(program: &Program, config: &PlanConfig) -> EnforcementPlan {
    plan_program_incremental(program, config, &mut PlanCache::new(), &mut NullStore).0
}

/// A persistence back end for per-`define` enforcement decisions, keyed by
/// the content address of [`ProgramDigests::key_at`](crate::digest::ProgramDigests).
/// `sct-cache` provides the on-disk implementation; [`NullStore`] turns
/// persistence off.
///
/// Contract: `load(key)` may return an entry only if it was previously
/// `store`d under exactly `key` (content addressing makes the entry valid
/// for every compile that reproduces the key). A store is free to lose
/// entries at any time — a lost entry is a recompute, never an error.
pub trait DecisionStore {
    /// Fetch the entry persisted under `key`, if any survives (decodable,
    /// right schema version).
    fn load(&mut self, key: &str) -> Option<PortableDecision>;
    /// Persist `entry` under `key`. Failures must be swallowed (a cache
    /// that cannot write degrades to recompute-every-time).
    fn store(&mut self, key: &str, entry: &PortableDecision);
    /// False when this store never hits and never persists ([`NullStore`]):
    /// the planner then skips content-address computation entirely, so
    /// non-persistent planning pays no digest overhead.
    fn wants_keys(&self) -> bool {
        true
    }
    /// Unused: a define's contract summary travels inside its entry
    /// ([`PortableDecision::summary`]), and the planner never calls this.
    /// Kept only because `perfbench`'s `TimedStore` implements it.
    fn load_summary(&mut self, _key: &str) -> Option<PortableSummary> {
        None
    }
    /// Unused, like [`DecisionStore::load_summary`]; kept only because
    /// `perfbench`'s `TimedStore` implements it.
    fn store_summary(&mut self, _key: &str, _summary: &PortableSummary) {}
}

/// The no-op [`DecisionStore`]: never hits, never persists.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullStore;

impl DecisionStore for NullStore {
    fn load(&mut self, _key: &str) -> Option<PortableDecision> {
        None
    }
    fn store(&mut self, _key: &str, _entry: &PortableDecision) {}
    fn wants_keys(&self) -> bool {
        false
    }
}

/// Per-run accounting of [`plan_program_incremental`]: which `define`s
/// were answered from the store and which had to be re-verified.
#[derive(Debug, Default, Clone)]
pub struct IncrementalStats {
    /// `(define name, hit?)` in program order, one entry per decision.
    pub defines: Vec<(String, bool)>,
}

impl IncrementalStats {
    /// Number of decisions answered from the store.
    pub fn hits(&self) -> usize {
        self.defines.iter().filter(|(_, hit)| *hit).count()
    }

    /// Number of decisions that ran the verifier.
    pub fn misses(&self) -> usize {
        self.defines.len() - self.hits()
    }

    /// Names of the `define`s that were re-verified (the misses), in
    /// program order.
    pub fn missed_names(&self) -> Vec<&str> {
        self.defines
            .iter()
            .filter(|(_, hit)| !*hit)
            .map(|(n, _)| n.as_str())
            .collect()
    }
}

impl fmt::Display for IncrementalStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cache: {} hits, {} misses", self.hits(), self.misses())
    }
}

/// Plans a whole program, memoizing closure checks in `cache` and
/// persisting decisions in `store`: every `define` is first looked up by
/// its content address ([`ProgramDigests`] key — resolved AST +
/// reachable defines + mutation taint + planner config + codec version);
/// hits replay the persisted decision (λ ids rebound to the current
/// compile), misses run the verifier and persist the result. Editing one
/// `define` therefore re-verifies only that define and its (transitive)
/// referers; everything untouched is a hit.
///
/// Defines are planned callees first (components of the global reference
/// graph in topological order), so every verified callee's contract
/// summary exists before any caller explores it, and the plan depends on
/// program content only — not on the order the defines appear in.
/// Decisions come back in program order.
pub fn plan_program_incremental(
    program: &Program,
    config: &PlanConfig,
    cache: &mut PlanCache,
    store: &mut dyn DecisionStore,
) -> (EnforcementPlan, IncrementalStats) {
    let mut out = Vec::new();
    // The one walk over the program: references, `set!` targets,
    // components, λ ids and names, shared by everything below.
    let index = ProgramIndex::build(program);
    // One evaluation of the top-level environment, shared by every
    // exploration below — re-evaluating all N definitions per define
    // made whole-program planning quadratic.
    let snapshot = GlobalSnapshot::build(program, &config.exec);
    // Content addressing costs a structural hash of the whole program;
    // skip it when the store cannot use keys anyway (NullStore).
    let digests = store
        .wants_keys()
        .then(|| ProgramDigests::new(program, &index, &snapshot, config));
    let pass = Pass {
        program,
        config,
        index: &index,
        snapshot: &snapshot,
    };
    // Contract summaries: already-planned `Static` recursive defines are
    // registered here, and later explorations in this same pass stub
    // applications of them (see `Executor::try_stub`). The table lives
    // for this pass; the store carries summaries *across* passes inside
    // the defines' decision entries.
    let summaries_on = config.summaries;
    if summaries_on {
        config.obs.summary_touch();
    }
    let mut summary_table: SummaryTable = HashMap::new();
    // The λ-defines in source order. Occurrence counter per global: a
    // shadowed name yields one decision per `define` form, and those must
    // not alias in the store — counted in source order, because the
    // counter feeds the content key.
    let mut occurrence: HashMap<u32, u32> = HashMap::new();
    let mut defines: Vec<_> = lambda_defines(program)
        .map(|(pos, global, def, blame)| {
            let occ = occurrence.entry(*global).or_insert(0);
            *occ += 1;
            (pos, *global, def, blame, *occ - 1)
        })
        .collect();
    // Callees first (components in emission order); a stable sort keeps
    // the members of one component, and shadowing defines of one global,
    // in source order.
    defines.sort_by_key(|d| index.component_of(d.1));
    for (pos, global, def, blame, occ) in defines {
        let name = &program.global_names[global as usize];
        let key = digests.as_ref().map(|d| d.key_at(program, global, occ));
        // The define's own λ comes first, then the λs nested in it.
        let nested = &index.lambdas_at(pos)[1..];
        if let Some(key) = &key {
            if let Some(mut entry) = store.load(key) {
                let summary = entry.summary.take();
                // The content address commits to the define's structure,
                // so a rebind failure can only mean corruption — fall
                // through to recompute.
                if let Some(decision) = entry.rebind(def.id, nested) {
                    // A hit decision needs no verification, but its
                    // summary (Static defines only) still feeds later
                    // defines' stubs — that is what makes a warm
                    // incremental replan near-linear.
                    if summaries_on && matches!(decision.decision, Decision::Static { .. }) {
                        match summary
                            .and_then(|p| rebind_summary(p, def, &index, global, &summary_table))
                        {
                            Some(s) => {
                                config.obs.summary_hit();
                                summary_table.insert(def.id, Rc::new(s));
                            }
                            None => config.obs.summary_miss(),
                        }
                    }
                    out.push((pos, decision, true));
                    continue;
                }
            }
        }
        // Past the pass-wide deadline (store hits above still count — a
        // load is load-independent): degrade down the enforcement ladder
        // to Monitor instead of exploring. Never persisted — the verdict
        // reflects the wall clock, not the content the key commits to.
        if config.deadline.is_some_and(|d| Instant::now() >= d) {
            let entry = monitor_fallback(name, blame, DEADLINE_REASON);
            out.push((pos, bind(entry, def, nested), false));
            continue;
        }
        // A proof is only as durable as the bindings it reads: if this
        // function can (transitively) reach a global that *anything* in
        // the program `set!`s, a later rebinding could invalidate the
        // discharge at run time — e.g. a helper swapped for one that no
        // longer descends. Such functions stay monitored.
        let (mut entry, summary) = if let Some(g) = index.tainted_by(global) {
            let reason = format!(
                "depends on global {} which the program mutates (set!); \
                 a run-time rebinding could invalidate the proof",
                program.global_names[g as usize]
            );
            (monitor_fallback(name, blame, &reason), None)
        } else {
            plan_function(
                &pass,
                cache,
                global,
                def,
                blame,
                nested,
                summaries_on.then_some(&summary_table),
            )
        };
        // The summary is persisted inside the decision's entry, which is
        // then bound exactly as a store hit's is.
        if let Some(key) = &key {
            entry.summary = summary
                .as_ref()
                .and_then(|s| portable_summary(name, s, &index));
            store.store(key, &entry);
        }
        if let Some(s) = summary {
            summary_table.insert(def.id, Rc::new(s));
        }
        out.push((pos, bind(entry, def, nested), false));
    }
    out.sort_by_key(|(pos, ..)| *pos);
    let mut plan = EnforcementPlan::new();
    let mut stats = IncrementalStats::default();
    for (_, decision, hit) in out {
        stats.defines.push((decision.name.clone(), hit));
        plan.decisions.push(decision);
    }
    (plan, stats)
}

/// The reason recorded on decisions degraded by [`PlanConfig::deadline`].
/// Stable prefix so drivers (the serve daemon's stats, the chaos suite)
/// can distinguish deadline degradation from other monitor fallbacks.
pub const DEADLINE_REASON: &str = "planning deadline exceeded";

/// Binds an entry the planner has just derived: its cover indices come
/// from `nested` itself, so they are always in range.
fn bind(entry: PortableDecision, def: &LambdaDef, nested: &[LambdaId]) -> FnDecision {
    entry
        .rebind(def.id, nested)
        .expect("a planned entry covers only its own nested λs")
}

/// Fabricates the maximally pessimistic (and always sound) entry for a
/// λ-bound `define`: keep full dynamic monitoring, prove nothing, refute
/// nothing.
fn monitor_fallback(name: &str, blame: Option<String>, reason: &str) -> PortableDecision {
    PortableDecision {
        name: name.to_string(),
        decision: Decision::Monitor {
            reason: reason.to_string(),
        },
        covers_idx: Vec::new(),
        blame,
        detail: reason.to_string(),
        micros: 0,
        summary: None,
    }
}

/// Fabricates a degraded plan — [`Decision::Monitor`] for every λ-bound
/// `define`, in program order — without running any verification: the
/// bottom rung of the degradation ladder, for drivers whose *planner
/// itself* is unavailable (a planning thread past the request deadline).
/// It answers for exactly the defines [`plan_program_incremental`] would,
/// with every `hit?` flag `false`. The decisions must never be persisted:
/// they reflect scheduler state, not program content.
pub fn monitor_fallback_decisions(
    program: &Program,
    reason: &str,
) -> (EnforcementPlan, IncrementalStats) {
    let mut plan = EnforcementPlan::new();
    let mut stats = IncrementalStats::default();
    for (_, index, def, blame) in lambda_defines(program) {
        let name = &program.global_names[*index as usize];
        stats.defines.push((name.clone(), false));
        let entry = monitor_fallback(name, blame, reason);
        plan.decisions.push(bind(entry, def, &[]));
    }
    (plan, stats)
}

/// The strongly connected components of the static reference graph over
/// all globals, callees first: Tarjan's algorithm (iterative) emits a
/// component only after every component it references. A caller is
/// therefore planned after all of its callees, so each callee's contract
/// summary is registered by the time the caller's exploration reaches it —
/// whatever order the defines appear in. A plain DFS postorder would not
/// do: entered through a cycle, it can finish a cycle member before a
/// callee that a later member of the same cycle references. Members of
/// one component (mutually recursive defines) never stub each other
/// (`Executor::try_stub`), so their relative order is immaterial; each
/// component's members come back sorted by index.
fn callee_first(refs: &[Vec<u32>]) -> Vec<Rc<[u32]>> {
    const UNSEEN: u32 = u32::MAX;
    let n = refs.len();
    let (mut number, mut low, mut on_stack) = (vec![UNSEEN; n], vec![0; n], vec![false; n]);
    let (mut stack, mut components, mut next) = (Vec::new(), Vec::new(), 0);
    // DFS frames: (global, index of its next reference to follow); the
    // frame stack and the member list are reused across roots.
    let (mut frames, mut members) = (Vec::new(), Vec::new());
    for root in 0..n as u32 {
        if number[root as usize] != UNSEEN {
            continue;
        }
        frames.push((root, 0usize));
        while let Some((v, i)) = frames.pop() {
            let vu = v as usize;
            if i == 0 {
                (number[vu], low[vu], next) = (next, next, next + 1);
                stack.push(v);
                on_stack[vu] = true;
            }
            if let Some(&w) = refs[vu].get(i) {
                frames.push((v, i + 1));
                if number[w as usize] == UNSEEN {
                    frames.push((w, 0));
                } else if on_stack[w as usize] {
                    low[vu] = low[vu].min(number[w as usize]);
                }
                continue;
            }
            if let Some(&(parent, _)) = frames.last() {
                low[parent as usize] = low[parent as usize].min(low[vu]);
            }
            if low[vu] == number[vu] {
                // `v` roots a component: emit all of it.
                members.clear();
                while let Some(w) = stack.pop() {
                    on_stack[w as usize] = false;
                    members.push(w);
                    if w == v {
                        break;
                    }
                }
                members.sort_unstable();
                components.push(Rc::from(&members[..]));
            }
        }
    }
    components
}

/// Encodes a summary for persistence, or `None` when some graph set or
/// stubbed callee belongs to a λ without a portable address (see
/// [`ProgramIndex::lambda_ref`]).
fn portable_summary(
    name: &str,
    summary: &CalleeSummary,
    index: &ProgramIndex,
) -> Option<PortableSummary> {
    let mut graphs = Vec::with_capacity(summary.graphs.len());
    for (id, set) in &summary.graphs {
        graphs.push((index.lambda_ref(*id)?, set.clone()));
    }
    let mut callees = Vec::with_capacity(summary.callees.len());
    for c in &summary.callees {
        callees.push(index.lambda_ref(c.id)?.global);
    }
    Some(PortableSummary {
        name: name.to_string(),
        guard: summary.domains.clone(),
        result: summary.result,
        graphs,
        callees,
    })
}

/// Binds a loaded summary to the current compile, moving its guard and
/// graph sets, or `None` when it does not fit this define (treated as a
/// miss). The content address makes a true mismatch corruption, exactly as
/// for decisions. Its stubbed callees must already be registered in
/// `table` — callees are planned first, so a missing one means its own
/// summary was lost.
fn rebind_summary(
    p: PortableSummary,
    def: &LambdaDef,
    index: &ProgramIndex,
    global: u32,
    table: &SummaryTable,
) -> Option<CalleeSummary> {
    if def.variadic || p.guard.len() != def.params as usize {
        return None;
    }
    let mut graphs = Vec::with_capacity(p.graphs.len());
    let mut foreign = Vec::new();
    for (lr, set) in p.graphs {
        let id = index.resolve(&lr.global, lr.idx)?;
        if index.owner(id) != Some(global) {
            foreign.push(id);
        }
        graphs.push((id, set));
    }
    let mut callees: Vec<Rc<CalleeSummary>> = Vec::with_capacity(p.callees.len());
    for callee in &p.callees {
        let summary = table.get(&index.resolve(callee, 0)?)?;
        foreign.extend_from_slice(&summary.foreign);
        callees.push(summary.clone());
    }
    foreign.sort_unstable();
    foreign.dedup();
    // Only recursive summaries are persisted (only they are worth
    // stubbing); anything else is corruption.
    if !graphs
        .iter()
        .any(|(id, set)| *id == def.id && !set.is_empty())
    {
        return None;
    }
    Some(CalleeSummary {
        id: def.id,
        domains: p.guard,
        result: p.result,
        graphs,
        callees,
        foreign,
        component: index.members_of(global).clone(),
    })
}

/// The planner's fact sheet about one program, filled in by one walk over
/// its top-level forms ([`Expr::walk`]) and one pass over the global
/// reference graph: which globals are `set!` anywhere (top level, define
/// initializers, nested λs), the reference graph's components callees
/// first with their mutation taint, and every form's λs. It borrows the
/// program's names and λs rather than copying them: a display name is read
/// off its λ only when a message needs one. [`plan_program_incremental`]
/// builds it once per pass, plans callees first from it, refuses to
/// discharge any function whose proof a run-time rebinding could
/// invalidate, and lends it to [`ProgramDigests`]. Nothing here ever walks
/// a define's reachable set.
#[derive(Debug)]
pub struct ProgramIndex<'p> {
    /// Global names, by index.
    global_names: &'p [String],
    /// Globals that are a `set!` target anywhere in the program.
    mutated: Vec<bool>,
    /// The components of the reference graph, callees first.
    components: Vec<Component>,
    /// `component_of[i]` = the index in `components` of global `i`'s.
    component_of: Vec<u32>,
    /// Every λ id, form by form, each form's in source pre-order — so a
    /// λ-define's own λ leads its nested ones. Top-level form `i` owns
    /// `lambdas[form_start[i]..form_start[i + 1]]`. The order is
    /// persisted (as [`LambdaRef::idx`] and as cover indices), so it must
    /// never change.
    lambdas: Vec<LambdaId>,
    form_start: Vec<usize>,
    /// Every λ, by id: the source of its display name.
    defs: Vec<Option<&'p LambdaDef>>,
    /// The top-level position of each global's *last* λ-define: only its
    /// λs have a portable address (see [`ProgramIndex::lambda_ref`]).
    last_define: Vec<Option<usize>>,
    /// Those portable addresses, `(global, idx)`, by λ id.
    portable: Vec<Option<(u32, u32)>>,
    /// Global name → index, because [`Program::global_index`] is a linear
    /// scan: resolving the hundreds of [`LambdaRef`]s in each of N
    /// summaries through it made warm replay quadratic in program size.
    global_of: HashMap<&'p str, u32>,
}

/// One strongly connected component of the global reference graph.
#[derive(Debug)]
pub(crate) struct Component {
    /// The member globals, sorted by index, shared with every contract
    /// summary of a member ([`CalleeSummary::component`]).
    pub(crate) members: Rc<[u32]>,
    /// The other components the members reference, deduplicated. Each
    /// precedes this one in [`ProgramIndex::components`].
    pub(crate) callees: Vec<u32>,
    /// The smallest-named mutated global reachable from the component.
    taint: Option<u32>,
}

impl<'p> ProgramIndex<'p> {
    /// Indexes `program` in one walk.
    pub fn build(program: &'p Program) -> ProgramIndex<'p> {
        let n = program.global_names.len();
        // `refs[i]` = globals referenced (read or written) by global `i`'s
        // defining expression(s); every `define` of the index contributes.
        // Top-level expressions define nothing: only their `set!` targets
        // and λs matter.
        let mut refs: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut mutated = vec![false; n];
        let mut lambdas = Vec::with_capacity(program.lambda_count as usize);
        let mut form_start = Vec::with_capacity(program.top_level.len() + 1);
        let mut defs = vec![None; program.lambda_count as usize];
        let mut last_define = vec![None; n];
        let mut sink = Vec::new();
        for (pos, form) in program.top_level.iter().enumerate() {
            form_start.push(lambdas.len());
            let out = match form {
                TopForm::Define { index, expr } => {
                    if unwrap_termc(expr).is_some() {
                        last_define[*index as usize] = Some(pos);
                    }
                    &mut refs[*index as usize]
                }
                TopForm::Expr(_) => &mut sink,
            };
            form.expr().walk(&mut |e| match e {
                Expr::Global(i) => out.push(*i),
                Expr::SetGlobal { index, .. } => {
                    mutated[*index as usize] = true;
                    out.push(*index);
                }
                Expr::Lambda(def) => {
                    lambdas.push(def.id);
                    defs[def.id as usize] = Some(&**def);
                }
                _ => {}
            });
            sink.clear();
        }
        form_start.push(lambdas.len());
        let found = callee_first(&refs);
        let mut component_of = vec![0u32; n];
        for (c, members) in found.iter().enumerate() {
            for &g in members.iter() {
                component_of[g as usize] = c as u32;
            }
        }
        // Callees first, so every callee component's taint is final by the
        // time a caller folds it in.
        let name = |g: u32| &program.global_names[g as usize];
        let mut components: Vec<Component> = Vec::with_capacity(found.len());
        for (c, members) in found.into_iter().enumerate() {
            let mut callees: Vec<u32> = members
                .iter()
                .flat_map(|&g| refs[g as usize].iter())
                .map(|&w| component_of[w as usize])
                .filter(|&k| k as usize != c)
                .collect();
            callees.sort_unstable();
            callees.dedup();
            let taint = members
                .iter()
                .copied()
                .filter(|&g| mutated[g as usize])
                .chain(callees.iter().filter_map(|&k| components[k as usize].taint))
                .min_by(|&a, &b| name(a).cmp(name(b)));
            components.push(Component {
                members,
                callees,
                taint,
            });
        }
        let mut portable = vec![None; defs.len()];
        for (g, pos) in last_define.iter().enumerate() {
            let Some(pos) = *pos else { continue };
            let own = &lambdas[form_start[pos]..form_start[pos + 1]];
            for (idx, &id) in own.iter().enumerate() {
                portable[id as usize] = Some((g as u32, idx as u32));
            }
        }
        let global_of = program
            .global_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i as u32))
            .collect();
        ProgramIndex {
            global_names: &program.global_names,
            mutated,
            components,
            component_of,
            lambdas,
            form_start,
            defs,
            last_define,
            portable,
            global_of,
        }
    }

    /// True when global `i` is a `set!` target anywhere in the program.
    pub(crate) fn is_mutated(&self, i: u32) -> bool {
        self.mutated[i as usize]
    }

    /// The components of the reference graph, callees first.
    pub(crate) fn components(&self) -> &[Component] {
        &self.components
    }

    /// The index in [`ProgramIndex::components`] of global `i`'s component.
    pub(crate) fn component_of(&self, i: u32) -> u32 {
        self.component_of[i as usize]
    }

    /// The members of global `i`'s component, sorted by index.
    fn members_of(&self, i: u32) -> &Rc<[u32]> {
        &self.components[self.component_of(i) as usize].members
    }

    /// The smallest-named mutated global that global `i` can transitively
    /// reach, if any.
    fn tainted_by(&self, i: u32) -> Option<u32> {
        self.components[self.component_of(i) as usize].taint
    }

    /// The λ ids of top-level form `pos`, in source pre-order: a
    /// λ-define's own λ first, then the λs nested in it.
    pub(crate) fn lambdas_at(&self, pos: usize) -> &[LambdaId] {
        &self.lambdas[self.form_start[pos]..self.form_start[pos + 1]]
    }

    /// The display name of λ `id` (its `define`/`letrec` hint).
    pub(crate) fn name_of(&self, id: LambdaId) -> String {
        match self.defs.get(id as usize).copied().flatten() {
            Some(def) => def.describe(),
            None => format!("lambda#{id}"),
        }
    }

    /// The compile-independent address of λ `id` for summary persistence:
    /// `(global, idx)` where idx indexes [`ProgramIndex::lambdas_at`] of
    /// the global's *last* λ-define. λs of shadowed earlier defines and
    /// of top-level expressions have none (the executor's global table
    /// keeps the last binding, so only it can be applied by name); a
    /// summary mentioning one stays in memory for the current pass
    /// instead of being persisted.
    fn lambda_ref(&self, id: LambdaId) -> Option<LambdaRef> {
        let (global, idx) = self.portable.get(id as usize).copied().flatten()?;
        Some(LambdaRef {
            global: self.global_names[global as usize].clone(),
            idx,
        })
    }

    /// The global whose λ-define owns λ `id`: the global of its portable
    /// address, `None` for a λ without one.
    pub(crate) fn owner(&self, id: LambdaId) -> Option<u32> {
        let (global, _) = self.portable.get(id as usize).copied().flatten()?;
        Some(global)
    }

    /// The inverse of [`ProgramIndex::lambda_ref`] in the current compile:
    /// the λ at `idx` in `global`'s last λ-define.
    fn resolve(&self, global: &str, idx: u32) -> Option<LambdaId> {
        let pos = self.last_define[*self.global_of.get(global)? as usize]?;
        self.lambdas_at(pos).get(idx as usize).copied()
    }
}

/// The λ-bound `define` forms in program order, as `(top-level position,
/// global index, λ, blame label)`; every other top-level form is
/// irrelevant to enforcement.
fn lambda_defines(
    program: &Program,
) -> impl Iterator<Item = (usize, &u32, &Rc<LambdaDef>, Option<String>)> + '_ {
    program
        .top_level
        .iter()
        .enumerate()
        .filter_map(|(pos, form)| {
            let TopForm::Define { index, expr } = form else {
                return None;
            };
            let (def, blame) = unwrap_termc(expr)?;
            Some((pos, index, def, blame))
        })
}

/// Peels `terminating/c` wrappers off a define's initializer, returning
/// the underlying λ and the innermost wrapper's blame label (the label the
/// dynamic monitor would report, since it pushes labels innermost-first).
fn unwrap_termc(expr: &Expr) -> Option<(&Rc<LambdaDef>, Option<String>)> {
    let mut e = expr;
    let mut blame = None;
    loop {
        match e {
            Expr::TermC { body, label } => {
                // Later (deeper) wrappers overwrite: the machine pushes
                // labels outermost-first and blames `blames.last()`, so
                // the innermost label is the one a violation reports.
                blame = Some(label.to_string());
                e = body;
            }
            Expr::Lambda(def) => return Some((def, blame)),
            _ => return None,
        }
    }
}

/// One attempt's distilled outcome.
enum Attempt {
    /// Exhaustive and every graph set passes.
    Verified,
    /// Exhaustive with a graph-set violation. `definite` is true only when
    /// (a) the witness is one of the *discovered* graphs — a single
    /// feasible recursion step the monitor rejects the moment it executes,
    /// rather than a closure composite, which may never materialize as an
    /// actual call sequence (subtractive gcd is the classic case: both
    /// branch graphs descend, only their composition loses the common
    /// descent) — and (b) the culprit is the *entry* λ itself: the
    /// symbolic executor keys self-calls by λ id, but the monitor keys by
    /// closure, so a nested λ's static "self-call" (e.g. the closure
    /// builder `isabelle-poly` re-allocating its inner λ each round) never
    /// forms one dynamic call sequence. Only the entry λ, whose global
    /// closure is allocated once, matches dynamically.
    Violation {
        witness: ScGraph,
        culprit: String,
        definite: bool,
    },
    /// Anything inconclusive: budget, unsupported feature, overflow.
    Inconclusive { reason: String },
}

/// What every exploration of one planning pass shares.
struct Pass<'a> {
    program: &'a Program,
    config: &'a PlanConfig,
    index: &'a ProgramIndex<'a>,
    snapshot: &'a GlobalSnapshot,
}

fn run_attempt(
    pass: &Pass,
    cache: &mut PlanCache,
    name: &str,
    entry_id: LambdaId,
    (domains, result): &Signature,
    summaries: Option<&SummaryTable>,
    caller_global: Option<u32>,
) -> (Attempt, Option<Exploration>) {
    let config = pass.config;
    let exploration = match explore_with_index(
        pass.program,
        name,
        domains,
        *result,
        &config.exec,
        pass.index,
        Some(entry_id),
        summaries,
        caller_global,
        pass.snapshot,
    ) {
        Ok(e) => e,
        Err(reason) => return (Attempt::Inconclusive { reason }, None),
    };
    if exploration.opaque_calls > 0 {
        // The proof would be modular ("terminates provided its opaque
        // callees do") — sound for §4's verdict but not for dropping the
        // monitor: an unmonitored mutual loop through opaque calls (e.g.
        // (define (apply1 f) (f f)) applied to itself) would go uncaught.
        return (
            Attempt::Inconclusive {
                reason: format!(
                    "applies an opaque value {} time(s); the proof is modular, \
                     so monitoring is kept",
                    exploration.opaque_calls
                ),
            },
            Some(exploration),
        );
    }
    for (id, graphs) in &exploration.graphs {
        match cache.ljb.check(graphs, crate::verify::LJB_CAP) {
            ClosureResult::Ok { .. } => {}
            ClosureResult::Violation(v) => {
                let culprit = pass.index.name_of(*id);
                let definite = graphs.contains(&v.witness) && *id == entry_id;
                return (
                    Attempt::Violation {
                        witness: v.witness,
                        culprit,
                        definite,
                    },
                    Some(exploration),
                );
            }
            ClosureResult::Overflow => {
                return (
                    Attempt::Inconclusive {
                        reason: "graph closure overflow".into(),
                    },
                    Some(exploration),
                );
            }
        }
    }
    (Attempt::Verified, Some(exploration))
}

/// One complete pass over the candidate ladder.
struct LadderOutcome {
    /// The winning rung and its exploration: everything needed to build
    /// both the `Static` decision and the define's contract summary.
    verified: Option<(Signature, Exploration)>,
    violations: Vec<(ScGraph, String, bool)>,
    last_reason: String,
    /// Whether any attempt answered an application from a callee summary.
    /// A non-verified outcome with stubs is re-derived stub-free so that
    /// Monitor/Refuted verdicts stay bit-identical to full descent.
    stubbed: bool,
}

fn run_ladder(
    pass: &Pass,
    cache: &mut PlanCache,
    name: &str,
    def: &Rc<LambdaDef>,
    candidates: &[Signature],
    summaries: Option<&SummaryTable>,
    caller_global: Option<u32>,
) -> LadderOutcome {
    let config = pass.config;
    let mut out = LadderOutcome {
        verified: None,
        violations: Vec::new(),
        last_reason: String::new(),
        stubbed: false,
    };
    for candidate in candidates {
        let rung = if config.signatures.contains_key(name) {
            "signature"
        } else {
            match candidate.0.first() {
                Some(PlanDomain::Nat) => "nat",
                Some(PlanDomain::Pos) => "pos",
                _ => "any",
            }
        };
        config.obs.rung_attempt(rung);
        let (attempt, exploration) = run_attempt(
            pass,
            cache,
            name,
            def.id,
            candidate,
            summaries,
            caller_global,
        );
        match &exploration {
            Some(ex) => {
                config.obs.fuel(ex.steps);
                config.obs.merge_visits(ex.merge_visits);
                config.obs.summary_stubbed(ex.stubbed);
                out.stubbed |= ex.stubbed > 0;
            }
            // The exploration itself errored, so its stub count is lost.
            // With a live summary table the error text can embed
            // stub-influenced symbolic-atom numbering, so conservatively
            // flag the run as stubbed: the stub-free fallback then
            // re-derives the canonical reason (and if no stub actually
            // fired, the re-run is identical — just redundant).
            None => out.stubbed |= summaries.is_some_and(|t| !t.is_empty()),
        }
        match attempt {
            Attempt::Verified => {
                config.obs.rung_discharged(rung);
                let exploration = exploration.expect("verified attempt has an exploration");
                out.verified = Some((candidate.clone(), exploration));
                break;
            }
            Attempt::Violation {
                witness,
                culprit,
                definite,
            } => {
                out.violations.push((witness, culprit, definite));
            }
            Attempt::Inconclusive { reason } => {
                out.last_reason = reason;
            }
        }
    }
    out
}

/// Plans one define: its entry and, for a recursive `Static` define
/// while summaries are on, the contract summary the pass registers.
fn plan_function(
    pass: &Pass,
    cache: &mut PlanCache,
    global: u32,
    def: &Rc<LambdaDef>,
    blame: Option<String>,
    nested: &[LambdaId],
    summaries: Option<&SummaryTable>,
) -> (PortableDecision, Option<CalleeSummary>) {
    let (name, config) = (&pass.program.global_names[global as usize], pass.config);
    let start = Instant::now();
    let finish = |decision: Decision, covers_idx: Vec<u32>, detail: String| {
        let micros = start.elapsed().as_micros();
        config
            .obs
            .define_done(micros.min(u128::from(u64::MAX)) as u64);
        PortableDecision {
            name: name.to_string(),
            decision,
            covers_idx,
            blame,
            detail,
            micros,
            summary: None,
        }
    };

    if def.variadic {
        let reason = "variadic functions are not statically analyzed".to_string();
        let detail = reason.clone();
        return (
            finish(Decision::Monitor { reason }, Vec::new(), detail),
            None,
        );
    }

    let params = def.params as usize;
    // The candidate ladder: a declared signature wins; otherwise Any…,
    // then Nat… and Pos… with a run-time guard. Automatic
    // rungs always use result domain Any: a non-trivial result domain is
    // an *assumption* the executor does not verify against actual return
    // values, and a wrong one prunes feasible continuation paths — hiding
    // e.g. a non-descending self-call behind a branch on a "can't happen"
    // negative result — which would put a diverging function on the fast
    // path. Only a *declared* signature (a trusted total-correctness
    // contract, exactly §4.2's "the range of the function's contract")
    // may assume more; that is the same trust the Table 1 `StaticSpec`
    // harness extends.
    let candidates: Vec<Signature> = match config.signatures.get(name) {
        Some(sig) => vec![sig.clone()],
        None => {
            let mut c = vec![(vec![PlanDomain::Any; params], PlanDomain::Any)];
            if params > 0 {
                c.push((vec![PlanDomain::Nat; params], PlanDomain::Any));
                c.push((vec![PlanDomain::Pos; params], PlanDomain::Any));
            }
            c
        }
    };

    let mut outcome = run_ladder(pass, cache, name, def, &candidates, summaries, Some(global));
    // Stubbing may only ever *improve* a verdict (it prunes paths and
    // borrows the callee's already-verified graphs), so a Verified rung
    // stands. But a non-Static verdict reached via stubs could differ from
    // full descent in witness/reason wording, so re-derive it stub-free.
    if outcome.verified.is_none() && outcome.stubbed {
        outcome = run_ladder(pass, cache, name, def, &candidates, None, None);
    }

    if let Some(((domains, result), exploration)) = outcome.verified {
        let unconditional = domains.iter().all(|g| *g == PlanDomain::Any);
        // Helper λs nested inside this define are covered by the
        // same exploration, as indices into `nested`; λ ids belonging
        // to *other* globals are not (they may be called from
        // unexplored contexts).
        let covers_idx = if unconditional {
            exploration
                .graphs
                .iter()
                .filter_map(|(id, _)| nested.iter().position(|n| n == id))
                .map(|i| i as u32)
                .collect()
        } else {
            Vec::new()
        };
        // The detail lists the λs the decision is about — the entry and
        // the λs nested in it — never a callee's: the text is the same
        // whether callees were stubbed or descended into.
        let mut sets: Vec<String> = exploration
            .graphs
            .iter()
            .filter(|(id, _)| *id == def.id || nested.contains(id))
            .map(|(id, set)| format!("{}: {} graphs", pass.index.name_of(*id), set.len()))
            .collect();
        sets.sort();
        let detail = format!("verified ({})", sets.join(", "));
        let decision = Decision::Static {
            guard: domains.clone(),
        };
        // Only *recursive* defines are registered as contract summaries:
        // a non-recursive body is cheap to descend, and its concrete
        // results can be load-bearing for a caller's own descent proof.
        // (Only `Static` decisions get here: opaque-tainted defines end
        // Inconclusive and mutation-tainted ones Monitor, so neither is
        // ever stubbed.)
        let recursive = exploration
            .own_graphs
            .iter()
            .any(|(id, set)| *id == def.id && !set.is_empty());
        let summary = (summaries.is_some() && recursive).then(|| CalleeSummary {
            id: def.id,
            domains,
            result,
            graphs: exploration.own_graphs,
            callees: exploration.stubs,
            foreign: exploration.foreign,
            component: pass.index.members_of(global).clone(),
        });
        return (finish(decision, covers_idx, detail), summary);
    }

    let LadderOutcome {
        mut violations,
        mut last_reason,
        ..
    } = outcome;
    let refutable = config.refute
        && violations.len() == candidates.len()
        && violations.iter().all(|(_, _, definite)| *definite);
    if refutable {
        // Every domain assignment agreed on a *direct* violating graph:
        // the function's own recursion step breaks prog? the moment it
        // executes, under any guard we could offer. Report the most
        // general witness (the first candidate's) eagerly, with blame.
        let (witness, culprit, _) = violations.swap_remove(0);
        let detail = format!("{culprit}: graph {witness} is idempotent with no self-descent");
        (
            finish(Decision::Refuted { witness, culprit }, Vec::new(), detail),
            None,
        )
    } else {
        if last_reason.is_empty() {
            last_reason = match violations.first() {
                Some((w, c, _)) => format!(
                    "possible violation in {c} ({w}); not definite under every \
                     domain assignment, so the monitor keeps it"
                ),
                None => "no verification attempt ran".into(),
            };
        }
        let detail = last_reason.clone();
        let decision = Decision::Monitor {
            reason: last_reason,
        };
        (finish(decision, Vec::new(), detail), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sct_lang::compile_program;
    use std::collections::HashSet;
    use std::time::Duration;

    #[test]
    fn index_lists_lambdas_in_source_pre_order() {
        // Persisted cover indices and summary addresses count in this
        // order, so it must stay source pre-order whatever order the
        // resolver numbers λs in (it numbers each after its body).
        let prog = compile_program(
            "(define (f x) (let ([g (lambda (y) (lambda (z) z))] [h (lambda (w) w)]) x))
             (define k (terminating/c (lambda (n) n) \"k\"))
             ((lambda (q) q) 1)",
        )
        .unwrap();
        let index = ProgramIndex::build(&prog);
        let named = |pos: usize| -> Vec<String> {
            index
                .lambdas_at(pos)
                .iter()
                .map(|&id| index.name_of(id))
                .collect()
        };
        assert_eq!(named(0), ["f", "g", "lambda#0", "h"]);
        assert_eq!(index.lambdas_at(0)[1..], [1, 0, 2]);
        assert_eq!(named(1), ["k"]);
        assert_eq!(named(2), ["lambda#5"]);
    }

    #[test]
    fn sum_is_nat_guarded_static() {
        let prog =
            compile_program("(define (sum i acc) (if (zero? i) acc (sum (- i 1) (+ acc i))))")
                .unwrap();
        let plan = plan_program(&prog, &PlanConfig::default());
        assert_eq!(plan.decisions.len(), 1);
        let d = &plan.decisions[0];
        assert_eq!(d.name, "sum");
        let Decision::Static { guard } = &d.decision else {
            panic!("sum should be static: {:?}", d.decision);
        };
        assert_eq!(guard, &vec![PlanDomain::Nat, PlanDomain::Nat]);
    }

    #[test]
    fn structural_recursion_is_unconditional_static() {
        let prog =
            compile_program("(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))").unwrap();
        let plan = plan_program(&prog, &PlanConfig::default());
        let d = &plan.decisions[0];
        let Decision::Static { guard } = &d.decision else {
            panic!("len should be static: {:?}", d.decision);
        };
        assert!(guard.iter().all(|g| *g == PlanDomain::Any), "{guard:?}");
    }

    #[test]
    fn self_loop_is_refuted_with_blame() {
        let prog =
            compile_program("(define f (terminating/c (lambda (x) (f x)) \"my-party\")) (f 1)")
                .unwrap();
        let plan = plan_program(&prog, &PlanConfig::default());
        let d = &plan.decisions[0];
        assert_eq!(d.blame.as_deref(), Some("my-party"));
        assert!(
            matches!(d.decision, Decision::Refuted { .. }),
            "{:?}",
            d.decision
        );
        let json = plan.to_json();
        assert!(json.contains("\"decision\": \"refuted\""), "{json}");
    }

    #[test]
    fn opaque_higher_order_stays_monitored() {
        // Applying an arbitrary function argument cannot be proven
        // terminating: the fuel-budget fallback keeps it monitored.
        let prog = compile_program("(define (call f x) (f x))").unwrap();
        let plan = plan_program(&prog, &PlanConfig::default());
        assert!(
            matches!(plan.decisions[0].decision, Decision::Monitor { .. }),
            "{:?}",
            plan.decisions[0].decision
        );
    }

    #[test]
    fn cache_makes_replanning_hit_memo() {
        let prog =
            compile_program("(define (sum i acc) (if (zero? i) acc (sum (- i 1) (+ acc i))))")
                .unwrap();
        let mut cache = PlanCache::new();
        let cfg = PlanConfig::default();
        let (first, _) = plan_program_incremental(&prog, &cfg, &mut cache, &mut NullStore);
        let misses = cache.ljb.misses();
        assert!(misses > 0);
        let (second, _) = plan_program_incremental(&prog, &cfg, &mut cache, &mut NullStore);
        assert_eq!(cache.ljb.misses(), misses, "re-plan must be pure memo hits");
        assert!(cache.ljb.hits() > 0);
        assert_eq!(first.count("static"), second.count("static"));
    }

    #[test]
    fn pinned_signature_overrides_ladder() {
        let prog =
            compile_program("(define (sum i acc) (if (zero? i) acc (sum (- i 1) (+ acc i))))")
                .unwrap();
        let mut cfg = PlanConfig::default();
        cfg.signatures.insert(
            "sum".into(),
            (vec![PlanDomain::Nat, PlanDomain::Int], PlanDomain::Int),
        );
        let plan = plan_program(&prog, &cfg);
        let Decision::Static { guard } = &plan.decisions[0].decision else {
            panic!("{:?}", plan.decisions[0].decision);
        };
        assert_eq!(guard, &vec![PlanDomain::Nat, PlanDomain::Int]);
    }

    /// A map-backed [`DecisionStore`] for tests (sct-cache's MemStore
    /// lives downstream of this crate).
    #[derive(Default)]
    struct TestStore {
        map: HashMap<String, PortableDecision>,
    }

    impl TestStore {
        /// The contract summaries carried by the stored entries.
        fn summaries(&self) -> Vec<&PortableSummary> {
            self.map
                .values()
                .filter_map(|e| e.summary.as_ref())
                .collect()
        }
    }

    impl DecisionStore for TestStore {
        fn load(&mut self, key: &str) -> Option<PortableDecision> {
            self.map.get(key).cloned()
        }
        fn store(&mut self, key: &str, entry: &PortableDecision) {
            self.map.insert(key.to_string(), entry.clone());
        }
    }

    #[test]
    fn persisted_summaries_stub_edited_callers() {
        // Cold-plan a program whose caller `f` folds over a recursive
        // helper `len`; then edit only `f` and re-plan against the same
        // store. The helper's decision hits; its persisted summary rebinds
        // (one `plan.summary.hits`); and re-planning the edited caller
        // answers `(len l)` from the summary instead of descending
        // (`plan.summary.stubbed_applications` > 0).
        let v1 = "(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))
                  (define (f l) (if (null? l) 0 (+ (len (cdr l)) (f (cdr l)))))";
        let v2 = "(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))
                  (define (f l) (if (null? l) 0 (+ 1 (len (cdr l)) (f (cdr l)))))";
        let mut store = TestStore::default();
        let cold = compile_program(v1).unwrap();
        let (plan, _) = plan_program_incremental(
            &cold,
            &PlanConfig::default(),
            &mut PlanCache::new(),
            &mut store,
        );
        assert_eq!(plan.count("static"), 2, "{:?}", plan.decisions);
        assert_eq!(store.summaries().len(), 2, "both defines are recursive");

        let reg = std::sync::Arc::new(sct_obs::Registry::new());
        let cfg = PlanConfig {
            obs: PlanObs::registered(reg.clone()),
            ..PlanConfig::default()
        };
        let edited = compile_program(v2).unwrap();
        let (replanned, stats) =
            plan_program_incremental(&edited, &cfg, &mut PlanCache::new(), &mut store);
        assert_eq!((stats.hits(), stats.misses()), (1, 1), "only f re-plans");
        assert_eq!(replanned.count("static"), 2, "{:?}", replanned.decisions);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("plan.summary.hits"), Some(1), "len rebinds");
        assert!(
            snap.counter("plan.summary.stubbed_applications").unwrap() > 0,
            "f's re-plan must answer (len l) from the summary"
        );

        // The stubbed plan must be structurally identical to full descent.
        let descent = PlanConfig {
            summaries: false,
            ..PlanConfig::default()
        };
        let full = plan_program(&edited, &descent);
        assert!(replanned.structurally_eq(&full));
    }

    #[test]
    fn persisted_summaries_rebind_their_stubbed_callees() {
        // `mid` stubs `len`, and `top` stubs `mid`: `mid`'s persisted
        // summary names `len` instead of copying its graphs. Editing only
        // `top` must reload both summaries, rebuild the chain, stub it in
        // `top`'s exploration, and give `top` the decision a fresh plan
        // derives.
        let v1 = "(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))
                  (define (mid l) (if (null? l) 0 (+ (len l) (mid (cdr l)))))
                  (define (top l) (if (null? l) 0 (+ (mid l) (top (cdr l)))))";
        let v2 = v1.replace("(+ (mid l)", "(+ 1 (mid l)");
        let mut store = TestStore::default();
        let cold = compile_program(v1).unwrap();
        plan_program_incremental(
            &cold,
            &PlanConfig::default(),
            &mut PlanCache::new(),
            &mut store,
        );
        let mid = *store
            .summaries()
            .iter()
            .find(|s| s.name == "mid")
            .expect("mid is summarized");
        assert_eq!(mid.callees, vec!["len".to_string()]);
        assert!(mid.graphs.iter().all(|(lr, _)| lr.global == "mid"));

        let reg = std::sync::Arc::new(sct_obs::Registry::new());
        let cfg = PlanConfig {
            obs: PlanObs::registered(reg.clone()),
            ..PlanConfig::default()
        };
        let edited = compile_program(&v2).unwrap();
        let cold_keys: HashSet<String> = store.map.keys().cloned().collect();
        let (replanned, stats) =
            plan_program_incremental(&edited, &cfg, &mut PlanCache::new(), &mut store);
        assert_eq!(stats.missed_names(), vec!["top"]);
        let snap = reg.snapshot();
        // `len` rebinds first, then `mid`, whose callee link needs `len`.
        assert_eq!(snap.counter("plan.summary.hits"), Some(2));
        // Only `top` was explored, and it answered `(mid l)` from the
        // rebound summary: its fresh entry names `mid` as its callee.
        assert!(snap.counter("plan.summary.stubbed_applications").unwrap() > 0);
        let fresh_top: Vec<_> = store
            .map
            .iter()
            .filter(|(k, _)| !cold_keys.contains(*k))
            .filter_map(|(_, e)| e.summary.as_ref())
            .collect();
        assert_eq!(fresh_top.len(), 1, "only top's entry is new");
        assert_eq!(fresh_top[0].name, "top");
        assert_eq!(fresh_top[0].callees, vec!["mid".to_string()]);
        let fresh = plan_program(&edited, &PlanConfig::default());
        assert!(
            replanned.structurally_eq(&fresh),
            "{replanned:?}\n{fresh:?}"
        );
    }

    #[test]
    fn stub_proofs_are_never_weaker_than_descent() {
        // A modular proof can be strictly *stronger* than whole-body
        // descent: here full descent of `f` dies on an executor
        // limitation at the Any rung (the callee's recursion argument
        // changes kind under the caller's path constraints) and only
        // discharges under a Nat guard, while the stubbed exploration
        // discharges unconditionally. Both are sound; the stub side must
        // never be the weaker one (a *verdict downgrade* would be a bug,
        // and an upgrade past Static is impossible). The fuzz harness's
        // `summary-mismatch` differential keeps divergence like this out
        // of the generated corpus entirely.
        let src = "(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))
                   (define (f l acc) (if (null? l) acc (f (cdr l) (+ acc (len l)))))";
        let prog = compile_program(src).unwrap();
        let on = plan_program(&prog, &PlanConfig::default());
        let off = plan_program(
            &prog,
            &PlanConfig {
                summaries: false,
                ..PlanConfig::default()
            },
        );
        let rank = |d: &Decision| match d {
            Decision::Static { guard } if guard.iter().all(|g| *g == PlanDomain::Any) => 3,
            Decision::Static { .. } => 2,
            Decision::Monitor { .. } => 1,
            Decision::Refuted { .. } => 0,
        };
        for (a, b) in on.decisions.iter().zip(off.decisions.iter()) {
            assert!(
                rank(&a.decision) >= rank(&b.decision),
                "{}: stubbed {:?} weaker than descent {:?}",
                a.name,
                a.decision,
                b.decision
            );
        }
        // And this program is exactly the strictly-stronger case.
        assert!(matches!(&on.decisions[1].decision,
            Decision::Static { guard } if guard.iter().all(|g| *g == PlanDomain::Any)));
        assert!(matches!(&off.decisions[1].decision,
            Decision::Static { guard } if guard.iter().any(|g| *g != PlanDomain::Any)));
    }

    #[test]
    fn small_fuel_budget_plans_a_large_program() {
        // Each exploration draws fuel only for what it reaches, so a
        // budget that covers one define covers any number of them.
        let source: String = (0..600)
            .map(|i| format!("(define (len{i} l) (if (null? l) 0 (+ 1 (len{i} (cdr l)))))\n"))
            .collect();
        let prog = compile_program(&source).unwrap();
        let mut cfg = PlanConfig::default();
        cfg.exec.step_budget = 500;
        let plan = plan_program(&prog, &cfg);
        assert_eq!(plan.count("static"), 600, "{:?}", plan.decisions[0]);
    }

    #[test]
    fn a_failed_initializer_taints_only_its_readers() {
        // `bad` does not evaluate to a value. `sum` never reads it and
        // stays Static; a define that reads `bad`, or reads a global whose
        // initializer reads `bad`, stays Monitor and says which
        // definition failed.
        let prog = compile_program(
            "(define (sum i acc) (if (zero? i) acc (sum (- i 1) (+ acc i))))
             (define bad (car '()))
             (define worse (cons bad '()))
             (define (reads-bad l) (if (null? l) bad (reads-bad (cdr l))))
             (define (reads-worse l) (if (null? l) worse (reads-worse (cdr l))))",
        )
        .unwrap();
        let plan = plan_program(&prog, &PlanConfig::default());
        let decision = |name: &str| {
            let d = plan.decisions.iter().find(|d| d.name == name).unwrap();
            d.decision.clone()
        };
        assert!(
            matches!(decision("sum"), Decision::Static { .. }),
            "{:?}",
            decision("sum")
        );
        for (name, failed) in [("reads-bad", "bad"), ("reads-worse", "worse")] {
            let Decision::Monitor { reason } = decision(name) else {
                panic!("{name}: {:?}", decision(name));
            };
            let expected = format!("definition of {failed} did not evaluate");
            assert!(reason.contains(&expected), "{name}: {reason}");
        }
    }

    #[test]
    fn expired_deadline_degrades_to_monitor_and_never_persists() {
        // The pass-wide deadline is the serve daemon's request-latency
        // bound: once past it every remaining define degrades to Monitor
        // (sound, pessimistic), never Static, never Refuted — and nothing
        // degraded may land in the store under a content key.
        let prog = compile_program(
            "(define (sum i acc) (if (zero? i) acc (sum (- i 1) (+ acc i))))
             (define (up x) (up (+ x 1)))",
        )
        .unwrap();
        let expired = PlanConfig {
            deadline: Some(Instant::now() - Duration::from_secs(1)),
            ..PlanConfig::default()
        };
        let mut store = TestStore::default();
        let (plan, stats) =
            plan_program_incremental(&prog, &expired, &mut PlanCache::new(), &mut store);
        assert_eq!(plan.count("monitor"), 2, "{:?}", plan.decisions);
        assert_eq!(plan.count("static"), 0);
        assert_eq!(plan.count("refuted"), 0);
        for d in &plan.decisions {
            assert!(
                matches!(&d.decision, Decision::Monitor { reason } if reason.contains(DEADLINE_REASON)),
                "{:?}",
                d.decision
            );
        }
        assert!(store.map.is_empty(), "degraded decisions must not persist");
        assert!(
            store.summaries().is_empty(),
            "deadline-degraded passes must not publish contract summaries"
        );
        assert_eq!(stats.hits(), 0);

        // Store hits are honored even past the deadline: persist with a
        // live deadline, then replan with an expired one.
        let live = PlanConfig::default();
        let (_, warm) = plan_program_incremental(&prog, &live, &mut PlanCache::new(), &mut store);
        assert_eq!(warm.misses(), 2);
        assert_eq!(store.map.len(), 2);
        let (replayed, stats) =
            plan_program_incremental(&prog, &expired, &mut PlanCache::new(), &mut store);
        assert_eq!(stats.hits(), 2, "loads are load-independent");
        assert_eq!(replayed.count("static"), 1, "{:?}", replayed.decisions);
    }

    #[test]
    fn monitor_fallback_decisions_mirror_the_planned_defines() {
        // The serve daemon fabricates these when a planner stalls past the
        // deadline: they must answer for exactly the λ-defines the planner
        // would, in the same order, carry the caller's reason, and claim
        // no hit.
        let prog = compile_program(
            "(define limit 10)
             (define (sum i acc) (if (zero? i) acc (sum (- i 1) (+ acc i))))
             (+ 1 2)
             (define (id x) x)",
        )
        .unwrap();
        let (fabricated, stats) = monitor_fallback_decisions(&prog, "worker lost");
        let planned = plan_program(&prog, &PlanConfig::default());
        assert_eq!(fabricated.decisions.len(), planned.decisions.len());
        assert_eq!(stats.misses(), planned.decisions.len());
        for (d, pd) in fabricated.decisions.iter().zip(&planned.decisions) {
            assert_eq!(d.name, pd.name);
            assert_eq!(d.lambda, pd.lambda);
            assert!(
                matches!(&d.decision, Decision::Monitor { reason } if reason == "worker lost"),
                "{:?}",
                d.decision
            );
        }
    }

    #[test]
    fn callers_plan_after_callees_in_any_source_order() {
        // `a` reaches the recursive helper `len` only through its cycle
        // partner `b`, and `b` applies `a` before `len`. Entered at `b`, a
        // plain DFS postorder would finish `a` before visiting `len`;
        // callee-first (component) order must still plan `len` before
        // both, so every source order stubs `len` alike.
        let defs = [
            "(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))",
            "(define (a l) (if (null? l) 0 (b (cdr l))))",
            "(define (b l) (if (pair? l) (a (cdr l)) (len l)))",
            "(define (top l) (if (null? l) 0 (+ (a l) (top (cdr l)))))",
        ];
        let plan_of = |order: &[usize]| {
            let src: Vec<&str> = order.iter().map(|&i| defs[i]).collect();
            let prog = compile_program(&src.join("\n")).unwrap();
            let reg = std::sync::Arc::new(sct_obs::Registry::new());
            let cfg = PlanConfig {
                obs: PlanObs::registered(reg.clone()),
                ..PlanConfig::default()
            };
            let mut plan = plan_program(&prog, &cfg);
            plan.decisions.sort_by(|x, y| x.name.cmp(&y.name));
            let view: Vec<_> = plan
                .decisions
                .into_iter()
                .map(|d| (d.name, d.decision, d.detail))
                .collect();
            let stubs = reg.snapshot().counter("plan.summary.stubbed_applications");
            (view, stubs)
        };
        let forward = plan_of(&[0, 1, 2, 3]);
        for order in [[3, 2, 1, 0], [2, 1, 0, 3], [2, 3, 1, 0]] {
            assert_eq!(plan_of(&order), forward, "order {order:?}");
        }
    }

    #[test]
    fn set_bang_taints_transitive_dependents() {
        // f's proof reads dec, and the program set!s dec, so f must not
        // be discharged: a run-time rebinding could stop the descent.
        let prog = compile_program(
            "(define (dec x) (- x 1))
             (define (f x) (if (zero? x) 0 (f (dec x))))
             (define (lone l) (if (null? l) 0 (lone (cdr l))))
             (set! dec (lambda (x) x))",
        )
        .unwrap();
        let plan = plan_program(&prog, &PlanConfig::default());
        let by_name = |n: &str| {
            plan.decisions
                .iter()
                .find(|d| d.name == n)
                .unwrap_or_else(|| panic!("no decision for {n}"))
        };
        assert!(
            matches!(&by_name("dec").decision, Decision::Monitor { reason } if reason.contains("set!")),
            "{:?}",
            by_name("dec").decision
        );
        assert!(
            matches!(&by_name("f").decision, Decision::Monitor { reason } if reason.contains("set!")),
            "{:?}",
            by_name("f").decision
        );
        // A function not touching any mutated global keeps its discharge.
        assert!(
            matches!(by_name("lone").decision, Decision::Static { .. }),
            "{:?}",
            by_name("lone").decision
        );
    }
}
