//! The hybrid enforcement plan: which functions the monitor may skip.
//!
//! The paper's central claim is that *one* size-change principle supports
//! *two* enforcement regimes: §3's dynamic monitor and §4's static
//! verifier. An [`EnforcementPlan`] is the artifact that connects them —
//! the output of a static pre-pass over a program's `define`s, recording
//! per function which regime is responsible for it:
//!
//! * [`Decision::Static`] — the verifier discharged termination ahead of
//!   time; the monitor takes the unmonitored fast path for this λ (no
//!   graph construction, no `CallSeq` push). When the proof assumed
//!   non-trivial argument domains, the decision carries a [`PlanDomain`]
//!   guard per parameter: a call takes the fast path only when every
//!   argument is in its domain, and falls back to the monitor otherwise.
//! * [`Decision::Monitor`] — the residual: the verifier ran out of fuel,
//!   met an unsupported feature, or could not prove the obligation; the
//!   existing packed-graph monitor keeps guarding every call.
//! * [`Decision::Refuted`] — exhaustive symbolic exploration found a
//!   feasible call sequence whose composite graph is idempotent with no
//!   self-descent: the very witness the dynamic monitor would blame the
//!   moment that recursion executes, reported immediately — with the same
//!   blame label — before the program runs. Note that this is
//!   deliberately *stricter* than the monitored semantics for a refuted
//!   function the program never applies: the monitor would let such a
//!   program run to its value, while the hybrid regime rejects it up
//!   front, the way a compiler rejects dead code that cannot type-check.
//!
//! The three decisions form the lattice `Static ⊑ Monitor ⊒ Refuted`
//! ordered by how much run-time work they imply: `Static` means zero
//! per-call work (or one cheap domain test), `Monitor` means the full
//! packed-graph update, and `Refuted` means the program is rejected
//! up front. Any doubt anywhere degrades toward `Monitor` — the plan is
//! an *optimization*, never a weakening, of Theorem 3.1's guarantee.
//!
//! This module also provides [`LjbCache`], a memo for the
//! Lee–Jones–Ben-Amram closure check keyed by the *graph set* (sorted ids
//! from the cache's own graph table): Ben-Amram's closure analysis (LMCS 2010) shows
//! the closure and its ranking structure depend only on the graph set, so
//! re-verifying a function whose discovered graphs are unchanged — across
//! pre-pass runs, benchmark repetitions, or REPL reloads — costs one hash
//! lookup instead of a closure computation.

use crate::intern::FxBuildHasher;
use crate::json::{escape, Json};
use crate::ljb::{closure_check, ClosureResult};
use crate::ScGraph;
use std::collections::HashMap;
use std::fmt;

/// Argument-domain guard for a statically discharged function, mirroring
/// the symbolic domains the §4 verifier accepts. A proof obtained under a
/// non-trivial domain is sound only for in-domain calls, so the machine
/// re-checks membership — a constant-time test per argument, orders of
/// magnitude cheaper than a graph construction — before taking the fast
/// path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanDomain {
    /// A non-negative integer (`n ≥ 0`).
    Nat,
    /// A strictly positive integer (`n ≥ 1`).
    Pos,
    /// Any integer.
    Int,
    /// A (shallowly checked) list: `'()` or a pair. Pair values are
    /// immutable finite trees in λSCT, so structural descent is
    /// well-founded on *every* value and the shallow check suffices for
    /// the fast path.
    List,
    /// Any value — no run-time check needed.
    Any,
}

impl PlanDomain {
    /// The label used in the `--plan` JSON dump and in [`fmt::Display`].
    pub fn label(self) -> &'static str {
        match self {
            PlanDomain::Nat => "nat",
            PlanDomain::Pos => "pos",
            PlanDomain::Int => "int",
            PlanDomain::List => "list",
            PlanDomain::Any => "any",
        }
    }
}

impl fmt::Display for PlanDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The plan's verdict for one function (see the module docs for the
/// decision lattice).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Termination statically discharged: skip monitoring for calls whose
    /// arguments satisfy `guard` (one domain per parameter; an empty or
    /// all-[`PlanDomain::Any`] guard means the fast path is unconditional).
    Static {
        /// Per-parameter domain assumptions of the proof.
        guard: Vec<PlanDomain>,
    },
    /// Could not be discharged; the dynamic monitor keeps guarding it.
    Monitor {
        /// Why the verifier passed (budget, unsupported feature, …).
        reason: String,
    },
    /// Statically refuted: exhaustive exploration produced this witness,
    /// which the dynamic monitor would also blame at run time.
    Refuted {
        /// The idempotent, non-descending composite graph.
        witness: ScGraph,
        /// Name of the function whose graph set is violated — what the
        /// monitor's `errorSC` would name in `in calls to …`. Usually the
        /// planned function itself, but a statically caught violation in a
        /// helper it calls names the helper.
        culprit: String,
    },
}

impl Decision {
    /// Short tag used in the JSON dump: `"static"`, `"monitor"`, or
    /// `"refuted"`.
    pub fn tag(&self) -> &'static str {
        match self {
            Decision::Static { .. } => "static",
            Decision::Monitor { .. } => "monitor",
            Decision::Refuted { .. } => "refuted",
        }
    }
}

/// One function's entry in the [`EnforcementPlan`].
#[derive(Debug, Clone)]
pub struct FnDecision {
    /// The `define`d name the decision is about.
    pub name: String,
    /// λ id of the function itself.
    pub lambda: u32,
    /// Additional λ ids (helper lambdas nested inside the definition)
    /// covered by the same proof; populated only for unconditional
    /// discharges, since a guarded proof covers nested λs only during
    /// in-domain invocations of the entry.
    pub covers: Vec<u32>,
    /// The verdict.
    pub decision: Decision,
    /// Blame label from a `terminating/c` wrapper around the definition,
    /// when there is one — [`Decision::Refuted`] reports it, matching the
    /// label the dynamic monitor would blame.
    pub blame: Option<String>,
    /// Human-readable summary of the verifier outcome (graph counts,
    /// failure reason, …).
    pub detail: String,
    /// Wall-clock microseconds the pre-pass spent on this function.
    pub micros: u128,
}

impl FnDecision {
    /// Structural equality: every field except `micros` (timing is the one
    /// field that legitimately varies between a fresh computation and a
    /// cache replay of the same inputs).
    pub fn structurally_eq(&self, other: &FnDecision) -> bool {
        self.name == other.name
            && self.lambda == other.lambda
            && self.covers == other.covers
            && self.decision == other.decision
            && self.blame == other.blame
            && self.detail == other.detail
    }
}

/// The output of the hybrid pre-pass: per-function enforcement decisions
/// for a whole program. Built by `sct-symbolic`'s `plan_program`, consumed
/// by the interpreter's `Machine` (fast path) and the `sct hybrid` CLI
/// (`--plan` dump, eager refutation reports).
#[derive(Debug, Clone, Default)]
pub struct EnforcementPlan {
    /// Decisions in program (`define`) order.
    pub decisions: Vec<FnDecision>,
}

impl EnforcementPlan {
    /// An empty plan (everything stays monitored).
    pub fn new() -> EnforcementPlan {
        EnforcementPlan::default()
    }

    /// All λ ids the monitor may skip, each with the guard the fast path
    /// must re-check (`None` means unconditional).
    pub fn static_lambdas(&self) -> impl Iterator<Item = (u32, Option<&[PlanDomain]>)> + '_ {
        self.decisions.iter().flat_map(|d| {
            let mut out: Vec<(u32, Option<&[PlanDomain]>)> = Vec::new();
            if let Decision::Static { guard } = &d.decision {
                let trivial = guard.iter().all(|g| *g == PlanDomain::Any);
                out.push((d.lambda, if trivial { None } else { Some(&guard[..]) }));
                if trivial {
                    out.extend(d.covers.iter().map(|&id| (id, None)));
                }
            }
            out
        })
    }

    /// The statically refuted entries, to be reported before running.
    pub fn refuted(&self) -> impl Iterator<Item = &FnDecision> + '_ {
        self.decisions
            .iter()
            .filter(|d| matches!(d.decision, Decision::Refuted { .. }))
    }

    /// Structural equality of whole plans: same decisions in the same
    /// order, ignoring only per-entry timing (see
    /// [`FnDecision::structurally_eq`]).
    pub fn structurally_eq(&self, other: &EnforcementPlan) -> bool {
        self.decisions.len() == other.decisions.len()
            && self
                .decisions
                .iter()
                .zip(&other.decisions)
                .all(|(a, b)| a.structurally_eq(b))
    }

    /// Stable structural fingerprint of the plan's decisions — exactly
    /// the fields [`EnforcementPlan::structurally_eq`] compares (timing
    /// excluded), hashed with the versioned [`crate::stable`] mix. Two
    /// plans agree on this fingerprint iff (modulo hashing) they would
    /// bake identical call-site decisions, so it serves as the plan
    /// identity token for compiled-IR caching and for the machine's
    /// image/config agreement check.
    pub fn decisions_fingerprint(&self) -> u64 {
        let mut h = crate::stable::StableHasher::new();
        h.write_u64(self.decisions.len() as u64);
        for d in &self.decisions {
            h.write_str(&d.name);
            h.write_u32(d.lambda);
            h.write_u64(d.covers.len() as u64);
            for c in &d.covers {
                h.write_u32(*c);
            }
            match &d.blame {
                Some(b) => {
                    h.write_u8(1);
                    h.write_str(b);
                }
                None => h.write_u8(0),
            }
            h.write_str(&d.detail);
            match &d.decision {
                Decision::Static { guard } => {
                    h.write_u8(0);
                    h.write_u64(guard.len() as u64);
                    for g in guard {
                        h.write_str(g.label());
                    }
                }
                Decision::Monitor { reason } => {
                    h.write_u8(1);
                    h.write_str(reason);
                }
                Decision::Refuted { witness, culprit } => {
                    h.write_u8(2);
                    h.write_str(&format!("{witness:?}"));
                    h.write_str(culprit);
                }
            }
        }
        h.finish128().hi
    }

    /// Count of entries with the given decision tag.
    pub fn count(&self, tag: &str) -> usize {
        self.decisions
            .iter()
            .filter(|d| d.decision.tag() == tag)
            .count()
    }

    /// The plan as the `sct-plan/1` JSON document — the one definition of
    /// its field set, shared by the `sct hybrid --plan` dump
    /// ([`EnforcementPlan::to_json`]) and the `sct serve` `plan` response:
    ///
    /// ```json
    /// {
    ///   "schema": "sct-plan/1",
    ///   "functions": [
    ///     { "name": "sum", "lambda": 0, "decision": "static",
    ///       "guard": ["nat", "nat"], "covers": [], "blame": null,
    ///       "detail": "verified (sum: 1 graphs)", "micros": 312 }
    ///   ]
    /// }
    /// ```
    ///
    /// `guard` is present only for `"static"` decisions and `culprit` only
    /// for `"refuted"` ones; `blame` is the `terminating/c` label the
    /// refutation (or the run-time monitor) blames, or `null`.
    pub fn to_json_value(&self) -> Json {
        let function = |d: &FnDecision| {
            let mut m = vec![
                ("name".to_string(), Json::str(&d.name)),
                ("lambda".to_string(), Json::Int(i64::from(d.lambda))),
                ("decision".to_string(), Json::str(d.decision.tag())),
            ];
            match &d.decision {
                Decision::Static { guard } => m.push((
                    "guard".to_string(),
                    Json::Arr(guard.iter().map(|g| Json::str(g.label())).collect()),
                )),
                Decision::Refuted { culprit, .. } => {
                    m.push(("culprit".to_string(), Json::str(culprit)))
                }
                Decision::Monitor { .. } => {}
            }
            let covers = d.covers.iter().map(|c| Json::Int(i64::from(*c)));
            m.push(("covers".to_string(), Json::Arr(covers.collect())));
            m.push((
                "blame".to_string(),
                d.blame.as_ref().map_or(Json::Null, Json::str),
            ));
            m.push(("detail".to_string(), Json::str(&d.detail)));
            let micros = i64::try_from(d.micros).unwrap_or(i64::MAX);
            m.push(("micros".to_string(), Json::Int(micros)));
            Json::Obj(m)
        };
        Json::Obj(vec![
            ("schema".to_string(), Json::str("sct-plan/1")),
            (
                "functions".to_string(),
                Json::Arr(self.decisions.iter().map(function).collect()),
            ),
        ])
    }

    /// Renders [`EnforcementPlan::to_json_value`] the way `sct hybrid
    /// --plan` dumps it: one function per line, `"key": value` members
    /// separated by `", "`.
    pub fn to_json(&self) -> String {
        let doc = self.to_json_value();
        let spaced = |v: &Json| match v {
            Json::Arr(items) => {
                let items: Vec<String> = items.iter().map(Json::to_string).collect();
                format!("[{}]", items.join(", "))
            }
            v => v.to_string(),
        };
        let functions = doc.get("functions").and_then(Json::as_arr).unwrap_or(&[]);
        let mut out = format!(
            "{{\n  \"schema\": {},\n  \"functions\": [\n",
            doc.get("schema").unwrap_or(&Json::Null)
        );
        for (i, f) in functions.iter().enumerate() {
            let Json::Obj(members) = f else { continue };
            let members: Vec<String> = members
                .iter()
                .map(|(k, v)| format!("{}: {}", escape(k), spaced(v)))
                .collect();
            let sep = if i + 1 < functions.len() { "," } else { "" };
            out.push_str(&format!("    {{ {} }}{sep}\n", members.join(", ")));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

impl fmt::Display for EnforcementPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "plan: {} static, {} monitored, {} refuted",
            self.count("static"),
            self.count("monitor"),
            self.count("refuted")
        )
    }
}

/// A memoized Lee–Jones–Ben-Amram closure check.
///
/// Keys are the *graph set*: each [`ScGraph`] is numbered in the cache's
/// own graph table and the sorted, deduplicated id vector identifies the
/// set. The table is private to the cache, never the thread's monitor pool
/// ([`crate::intern`]): planning must not change the ids, and so the
/// witness order, of a monitored run on the same thread. Since the closure result depends only on the set,
/// re-verifying a function whose discovered graphs are unchanged is one
/// hash lookup — which is what makes the hybrid pre-pass free to re-run
/// (per benchmark repetition, per `sct hybrid` invocation on an unchanged
/// file, or across the many `define`s of a program that share helper
/// graphs).
///
/// # Examples
///
/// ```
/// use sct_core::graph::{Change, ScGraph};
/// use sct_core::plan::LjbCache;
///
/// let mut cache = LjbCache::new();
/// let g = ScGraph::from_arcs(1, 1, [(0, Change::Descend, 0)]);
/// assert!(cache.check(&[g.clone()], 10_000).is_ok());
/// assert_eq!(cache.hits(), 0);
/// assert!(cache.check(&[g], 10_000).is_ok()); // memoized
/// assert_eq!(cache.hits(), 1);
/// ```
#[derive(Debug, Default)]
pub struct LjbCache {
    ids: HashMap<ScGraph, u32, FxBuildHasher>,
    memo: HashMap<Vec<u32>, ClosureResult, FxBuildHasher>,
    hits: u64,
    misses: u64,
}

impl LjbCache {
    /// An empty cache.
    pub fn new() -> LjbCache {
        LjbCache::default()
    }

    /// Memoized [`closure_check`]: numbers `graphs`, sorts and dedups the
    /// ids, and reuses a previous verdict for the same set when one exists.
    ///
    /// The cap participates in correctness only for [`ClosureResult::Overflow`]
    /// results, which are cached too; callers should use one cap per cache.
    pub fn check(&mut self, graphs: &[ScGraph], cap: usize) -> ClosureResult {
        let mut ids: Vec<u32> = graphs
            .iter()
            .map(|g| {
                let next = self.ids.len() as u32;
                *self.ids.entry(g.clone()).or_insert(next)
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        if let Some(cached) = self.memo.get(&ids) {
            self.hits += 1;
            return cached.clone();
        }
        self.misses += 1;
        let result = closure_check(graphs, cap);
        self.memo.insert(ids, result.clone());
        result
    }

    /// Number of lookups answered from the memo.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of lookups that had to run the closure.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Change;

    fn d(i: usize, j: usize) -> (usize, Change, usize) {
        (i, Change::Descend, j)
    }

    fn e(i: usize, j: usize) -> (usize, Change, usize) {
        (i, Change::NonAscend, j)
    }

    fn static_entry(name: &str, lambda: u32, guard: Vec<PlanDomain>) -> FnDecision {
        FnDecision {
            name: name.into(),
            lambda,
            covers: Vec::new(),
            decision: Decision::Static { guard },
            blame: None,
            detail: "verified".into(),
            micros: 1,
        }
    }

    #[test]
    fn static_lambdas_reports_guards() {
        let mut plan = EnforcementPlan::new();
        plan.decisions
            .push(static_entry("f", 0, vec![PlanDomain::Any]));
        plan.decisions
            .push(static_entry("g", 1, vec![PlanDomain::Nat, PlanDomain::Any]));
        plan.decisions.push(FnDecision {
            name: "h".into(),
            lambda: 2,
            covers: Vec::new(),
            decision: Decision::Monitor {
                reason: "budget".into(),
            },
            blame: None,
            detail: "not verified".into(),
            micros: 1,
        });
        let fast: Vec<_> = plan.static_lambdas().collect();
        assert_eq!(fast.len(), 2);
        assert_eq!(fast[0], (0, None));
        assert_eq!(fast[1].0, 1);
        assert_eq!(fast[1].1.unwrap(), &[PlanDomain::Nat, PlanDomain::Any]);
        assert_eq!(plan.count("static"), 2);
        assert_eq!(plan.count("monitor"), 1);
        assert_eq!(plan.refuted().count(), 0);
    }

    #[test]
    fn covers_extend_only_unconditional_discharges() {
        let mut plan = EnforcementPlan::new();
        let mut unconditional = static_entry("f", 0, vec![PlanDomain::Any]);
        unconditional.covers = vec![5, 6];
        plan.decisions.push(unconditional);
        let mut guarded = static_entry("g", 1, vec![PlanDomain::Nat]);
        guarded.covers = vec![7];
        plan.decisions.push(guarded);
        let ids: Vec<u32> = plan.static_lambdas().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![0, 5, 6, 1]);
    }

    #[test]
    fn json_dump_shape() {
        let mut plan = EnforcementPlan::new();
        plan.decisions
            .push(static_entry("su\"m", 0, vec![PlanDomain::Nat]));
        plan.decisions.push(FnDecision {
            name: "spin".into(),
            lambda: 1,
            covers: Vec::new(),
            decision: Decision::Refuted {
                witness: ScGraph::from_arcs(1, 1, [e(0, 0)]),
                culprit: "spin".into(),
            },
            blame: Some("my-party".into()),
            detail: "refuted".into(),
            micros: 2,
        });
        let json = plan.to_json();
        assert!(json.contains("\"schema\": \"sct-plan/1\""), "{json}");
        assert!(json.contains("\"name\": \"su\\\"m\""), "{json}");
        assert!(json.contains("\"guard\": [\"nat\"]"), "{json}");
        assert!(json.contains("\"decision\": \"refuted\""), "{json}");
        assert!(json.contains("\"blame\": \"my-party\""), "{json}");
        assert!(plan.to_string().contains("1 static"), "{plan}");
    }

    #[test]
    fn json_dump_layout_is_one_function_per_line() {
        let mut plan = EnforcementPlan::new();
        let mut guarded = static_entry("f", 0, vec![PlanDomain::Nat, PlanDomain::Any]);
        guarded.covers = vec![5, 6];
        plan.decisions.push(guarded);
        plan.decisions.push(FnDecision {
            name: "g".into(),
            lambda: 7,
            covers: Vec::new(),
            decision: Decision::Monitor {
                reason: "budget".into(),
            },
            blame: Some("p".into()),
            detail: "budget".into(),
            micros: 3,
        });
        let json = plan.to_json();
        assert_eq!(
            json,
            "{\n  \"schema\": \"sct-plan/1\",\n  \"functions\": [\n    \
             { \"name\": \"f\", \"lambda\": 0, \"decision\": \"static\", \"guard\": [\"nat\", \"any\"], \
             \"covers\": [5, 6], \"blame\": null, \"detail\": \"verified\", \"micros\": 1 },\n    \
             { \"name\": \"g\", \"lambda\": 7, \"decision\": \"monitor\", \"covers\": [], \
             \"blame\": \"p\", \"detail\": \"budget\", \"micros\": 3 }\n  ]\n}\n"
        );
        assert_eq!(crate::json::parse(&json).unwrap(), plan.to_json_value());
        assert_eq!(
            EnforcementPlan::new().to_json(),
            "{\n  \"schema\": \"sct-plan/1\",\n  \"functions\": [\n  ]\n}\n"
        );
    }

    #[test]
    fn ljb_cache_memoizes_by_set() {
        let mut cache = LjbCache::new();
        let good = ScGraph::from_arcs(2, 2, [d(0, 0)]);
        let also = ScGraph::from_arcs(2, 2, [e(0, 0), d(1, 1)]);
        assert!(cache.check(&[good.clone(), also.clone()], 10_000).is_ok());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        // Same set, different order and multiplicity: cache hit.
        assert!(cache
            .check(&[also.clone(), good.clone(), good.clone()], 10_000)
            .is_ok());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // A violating set is cached as a violation.
        let bad = ScGraph::from_arcs(1, 1, [e(0, 0)]);
        let v1 = cache.check(std::slice::from_ref(&bad), 10_000);
        let v2 = cache.check(&[bad], 10_000);
        assert!(matches!(v1, ClosureResult::Violation(_)));
        assert_eq!(v1, v2);
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
    }
}
