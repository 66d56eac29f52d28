//! The static termination verifier (§4): symbolic execution of the
//! monitored semantics plus the Lee–Jones–Ben-Amram check over the
//! discovered graph sets.

use crate::exec::{
    merge_summaries, CalleeSummary, EntryInvariant, ExecConfig, Executor, GlobalSnapshot, Merged,
    SOut, SummaryTable,
};
use crate::pipeline::ProgramIndex;
use crate::sym::{Path, SValue};
use sct_core::graph::ScGraph;
use sct_core::ljb::{closure_check, ClosureResult};
use sct_core::plan::PlanDomain;
use sct_lang::ast::{LambdaId, Program};
use std::fmt;
use std::rc::Rc;

/// The verifier's answer for one function.
#[derive(Debug, Clone)]
pub enum StaticVerdict {
    /// Exploration was exhaustive and every discovered graph set satisfies
    /// the size-change principle: the function terminates on all inputs in
    /// the declared domains.
    Verified {
        /// Number of distinct self-call graphs found per λ (by display
        /// name), mirroring Figure 9's summary.
        graphs: Vec<(String, usize)>,
    },
    /// Not verified — either a graph-set violation (a composition that is
    /// idempotent without self-descent) or an incomplete exploration.
    NotVerified {
        /// Human-readable reason.
        reason: String,
    },
}

impl StaticVerdict {
    /// True when verified.
    pub fn is_verified(&self) -> bool {
        matches!(self, StaticVerdict::Verified { .. })
    }
}

impl fmt::Display for StaticVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaticVerdict::Verified { graphs } => {
                write!(f, "verified (")?;
                for (i, (name, n)) in graphs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{name}: {n} graphs")?;
                }
                write!(f, ")")
            }
            StaticVerdict::NotVerified { reason } => write!(f, "not verified: {reason}"),
        }
    }
}

/// Depth to which closures escaping in the result are applied with fresh
/// inputs (§3.6: a `term/c`d value may be used arbitrarily by its
/// context).
pub(crate) const RESULT_HAVOC_DEPTH: u32 = 2;
/// Cap on the LJB closure size.
pub(crate) const LJB_CAP: usize = 20_000;

/// The result of an exhaustive symbolic exploration (the first half of
/// [`verify_function`]): every way each λ may call itself, as size-change
/// graph sets. The second half is a Lee–Jones–Ben-Amram closure check
/// over each graph set — memoizable via
/// [`sct_core::plan::LjbCache`], which is how the hybrid pre-pass
/// (`crate::pipeline`) makes re-verification free.
#[derive(Debug, Clone)]
pub(crate) struct Exploration {
    /// The self-call graph sets the LJB check must pass, in λ-id order:
    /// each set the exploration discovered itself, unioned with the sets
    /// its stubbed callee summaries carry for the same λ, plus the union
    /// for any λ that two different summaries carry. A λ whose graphs all
    /// come from one summary's set is left out — that set already passed
    /// (see `merge_summaries`). Without stubs this is `own_graphs`.
    pub graphs: Vec<(LambdaId, Vec<ScGraph>)>,
    /// The sets the exploration discovered itself, in λ-id order.
    pub own_graphs: Vec<(LambdaId, Vec<ScGraph>)>,
    /// The callee summaries it stubbed (see [`Executor::stubs`]).
    pub stubs: Vec<Rc<CalleeSummary>>,
    /// The foreign set a summary of this exploration carries (see
    /// [`CalleeSummary::foreign`]).
    pub foreign: Vec<LambdaId>,
    /// How many summaries `merge_summaries` visited to build `graphs`:
    /// zero unless some stub or own set is foreign. The hybrid pre-pass
    /// sums it into the `plan.summary.merge_visits` metric.
    pub merge_visits: u64,
    /// How many times an *opaque* value (unknown function) was applied and
    /// havocked as a terminating black box. Zero means the termination
    /// proof is self-contained; nonzero means it is modular — sufficient
    /// for [`verify_function`]'s §4 verdict, insufficient for the hybrid
    /// pipeline to skip run-time monitoring.
    pub opaque_calls: u64,
    /// Symbolic-executor steps this exploration consumed — the *fuel*
    /// drawn against the per-attempt step budget. The hybrid pre-pass
    /// sums it into the `plan.fuel_used` metric so a `metrics` snapshot
    /// shows where verification effort went.
    pub steps: u64,
    /// How many applications were answered from a registered callee
    /// summary instead of body descent (zero unless the caller passed a
    /// [`SummaryTable`]). Unlike `opaque_calls` this is not a soundness
    /// taint — each stub carries its callee's termination proof — but the
    /// hybrid pipeline re-derives any *non*-verified outcome without stubs
    /// so Monitor/Refuted verdicts stay bit-identical to full descent.
    pub stubbed: u64,
}

/// Runs the symbolic executor over `function` applied to arguments from
/// `domains`, havocs escaping closures, and returns the discovered graph
/// sets — or `Err(reason)` when exploration was not exhaustive (missing
/// global, non-closure, arity mismatch, exhausted budget, or an
/// unsupported feature). Treat any `Err` as "not verified", never as a
/// refutation.
///
/// This is [`verify_function`] minus the closure check, which callers
/// that verify many functions (the hybrid pre-pass) run through a memo.
/// It takes a prebuilt [`ProgramIndex`] (so callers that explore one
/// program many times — the hybrid pre-pass: every `define` × every
/// ladder rung — walk the AST for λ owners once instead of per attempt),
/// and an optional λ-id pin: when `expected_entry` is set, the global
/// must still resolve to *that* λ. The hybrid pre-pass
/// pins each `define`'s own λ, because the executor's global table keeps
/// the *last* binding — without the pin, a shadowed earlier definition
/// would inherit a proof of its replacement and skip monitoring unsoundly.
///
/// When `summaries` is set, applications of already-summarized callees are
/// stubbed with their contract summaries instead of descending (see
/// [`Executor::set_summaries`]); `caller_global` is the explored define's
/// global index, used to refuse stubs that could reach back into it.
/// `snapshot` is the program's evaluated globals, built once per planning
/// pass.
#[allow(clippy::too_many_arguments)]
pub(crate) fn explore_with_index(
    program: &Program,
    function: &str,
    domains: &[PlanDomain],
    result: PlanDomain,
    config: &ExecConfig,
    index: &ProgramIndex,
    expected_entry: Option<LambdaId>,
    summaries: Option<&SummaryTable>,
    caller_global: Option<u32>,
    snapshot: &GlobalSnapshot,
) -> Result<Exploration, String> {
    let mut ex = Executor::with_snapshot(program, config.clone(), snapshot);
    if let Some(table) = summaries {
        ex.set_summaries(table, caller_global);
    }

    // `caller_global` is the already-resolved index of `function` when
    // the caller is a planning pass; prefer it over the linear name scan.
    let entry_lookup = match caller_global {
        Some(gi) => ex.global_at(gi),
        None => ex.global(function),
    };
    let Some(entry_value) = entry_lookup else {
        return Err(format!("no global named {function}"));
    };
    let SValue::SClosure(ref clo) = entry_value else {
        return Err(format!("{function} is not a closure"));
    };
    if expected_entry.is_some_and(|id| clo.def.id != id) {
        return Err(format!(
            "{function} is rebound after this definition; the final binding is what runs"
        ));
    }
    if clo.def.params as usize != domains.len() || clo.def.variadic {
        return Err(format!(
            "{function} expects {}{} parameters but the spec declares {}",
            clo.def.params,
            if clo.def.variadic { "+" } else { "" },
            domains.len()
        ));
    }
    ex.set_entry(EntryInvariant {
        id: clo.def.id,
        domains: domains.to_vec(),
        result,
    });

    // Build the symbolic arguments and the initial path condition.
    let mut path = Path::new();
    let mut args = Vec::new();
    for d in domains {
        let (a, p) = ex.fresh_in_domain(*d, &path);
        path = p;
        args.push(a);
    }

    // Run, then havoc whatever escapes.
    let outcomes = ex.apply(&entry_value, args, path, &sct_persist::PMap::new());
    for (p, out) in &outcomes {
        if let SOut::Val(v) = out {
            havoc_escaping(&mut ex, v, p, RESULT_HAVOC_DEPTH);
        }
    }

    if let Some(reason) = ex.incomplete.clone() {
        return Err(reason);
    }

    // The define under exploration owns what its entry λ's global owns.
    let home = index.owner(clo.def.id);
    let owns = |id| home.is_some() && index.owner(id) == home;
    let Merged {
        checked,
        foreign,
        visits,
    } = merge_summaries(&ex.graphs, &ex.stubs, clo.def.id, owns);
    let mut own_graphs: Vec<_> = std::mem::take(&mut ex.graphs).into_iter().collect();
    own_graphs.sort_by_key(|(id, _)| *id);
    Ok(Exploration {
        graphs: checked,
        own_graphs,
        stubs: std::mem::take(&mut ex.stubs),
        foreign,
        merge_visits: visits,
        opaque_calls: ex.opaque_applications,
        steps: ex.steps(),
        stubbed: ex.stubbed_applications,
    })
}

/// Verifies that `function`, applied to symbolic arguments from `domains`,
/// maintains size-change termination — the static analogue of wrapping it
/// in `terminating/c`.
///
/// Conservative by construction: any unsupported feature, exhausted
/// budget, or unprovable obligation yields [`StaticVerdict::NotVerified`].
pub fn verify_function(
    program: &Program,
    function: &str,
    domains: &[PlanDomain],
    result: PlanDomain,
    config: &ExecConfig,
) -> StaticVerdict {
    let index = ProgramIndex::build(program);
    let snapshot = GlobalSnapshot::build(program, config);
    let explored = explore_with_index(
        program, function, domains, result, config, &index, None, None, None, &snapshot,
    );
    let exploration = match explored {
        Ok(e) => e,
        Err(reason) => return StaticVerdict::NotVerified { reason },
    };

    // LJB check per function.
    let mut summary = Vec::new();
    for (id, graphs) in &exploration.graphs {
        match closure_check(graphs, LJB_CAP) {
            ClosureResult::Ok { .. } => {
                summary.push((index.name_of(*id), graphs.len()));
            }
            ClosureResult::Violation(v) => {
                return StaticVerdict::NotVerified {
                    reason: format!(
                        "{}: composition {} is idempotent with no self-descent",
                        index.name_of(*id),
                        v.witness
                    ),
                };
            }
            ClosureResult::Overflow => {
                return StaticVerdict::NotVerified {
                    reason: "graph closure overflow".into(),
                }
            }
        }
    }
    summary.sort();
    StaticVerdict::Verified { graphs: summary }
}

/// Applies closures reachable from an escaping result with fresh inputs —
/// the context of a `term/c`d function may call whatever it is handed.
fn havoc_escaping(ex: &mut Executor<'_>, v: &SValue, path: &Path, depth: u32) {
    if depth == 0 {
        return;
    }
    match path.resolve(v) {
        SValue::SClosure(clo) => {
            let mut p = path.clone();
            let mut args = Vec::new();
            for _ in 0..clo.def.frame_size().min(8) {
                let (a, p2) = ex.fresh_in_domain(PlanDomain::Any, &p);
                p = p2;
                args.push(a);
            }
            // Variadic closures get exactly their required count.
            args.truncate(clo.def.params as usize);
            let f = SValue::SClosure(clo);
            let outs = ex.apply(&f, args, p, &sct_persist::PMap::new());
            for (p2, out) in outs {
                if let SOut::Val(r) = out {
                    havoc_escaping(ex, &r, &p2, depth - 1);
                }
            }
        }
        SValue::SPair(pair) => {
            havoc_escaping(ex, &pair.0, path, depth);
            havoc_escaping(ex, &pair.1, path, depth);
        }
        _ => {}
    }
}
