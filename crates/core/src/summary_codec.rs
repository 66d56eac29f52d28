//! The contract-summary codec: the `"summary"` member of an `sct-plan/3`
//! cache entry.
//!
//! A *contract summary* is the reusable residue of one verified `define`:
//! the domain assumptions its proof was discharged under (the ladder rung's
//! guard), the result domain a call is known to land in, the size-change
//! graphs its own exploration discovered, and the names of the callees it
//! stubbed in turn, whose summaries carry the rest of its graphs —
//! everything a caller needs to *stub* an application of the callee with a
//! sound abstraction instead of re-descending into its body (Ben-Amram
//! 2010: a function's size-change behavior is fully captured by its set of
//! call-site graphs). Naming the stubbed callees instead of copying their
//! graphs keeps each summary proportional to its own body, not to its
//! reachable closure.
//!
//! A summary is persisted *inside* its define's decision entry
//! (`plan_codec`, one `sct-plan/3` document per content key of
//! `sct_symbolic::digest::ProgramDigests`), so editing a define
//! invalidates exactly its own summary and its transitive dependents', and
//! a decision hit never comes without the summary it was stored with.
//! This module defines the member's field layout once; `plan_codec`
//! embeds it. [`encode_summary`] / [`decode_summary`] write the same
//! members as a standalone, schema-tagged document.
//!
//! # Why [`LambdaRef`] instead of λ ids
//!
//! λ ids are assigned by a program-wide counter at compile time, so a
//! persisted summary must not mention them (see `plan_codec`'s module docs
//! for the same argument about `covers`). A summary's graph sets can span
//! *several* defines — an exploration descends into callees it cannot
//! stub — so the nested-λ-index trick is not enough: each graph set
//! is keyed by a [`LambdaRef`], the owning `define`'s *name* plus the λ's
//! index in that define's syntactic all-λ traversal (index 0 is the entry
//! λ itself). Both halves are stable for structurally unchanged defines,
//! and the content address commits to the reachable set, so a decodable
//! summary always rebinds against the compile that is loading it.
//!
//! # Corruption tolerance
//!
//! Decoding never panics; every malformation is an `Err`. Inside an entry
//! it rejects the whole entry, which the cache quarantines and recomputes
//! like any corrupt one.
//!
//! # Examples
//!
//! ```
//! use sct_core::graph::{Change, ScGraph};
//! use sct_core::plan::PlanDomain;
//! use sct_core::summary_codec::{decode_summary, encode_summary, LambdaRef, PortableSummary};
//!
//! let s = PortableSummary {
//!     name: "len".into(),
//!     guard: vec![PlanDomain::Any],
//!     result: PlanDomain::Any,
//!     graphs: vec![(
//!         LambdaRef { global: "len".into(), idx: 0 },
//!         vec![ScGraph::from_arcs(1, 1, [(0, Change::Descend, 0)])],
//!     )],
//!     callees: vec![],
//! };
//! let bytes = encode_summary(&s);
//! assert_eq!(decode_summary(&bytes).unwrap(), s);
//! assert!(decode_summary("corrupt garbage").is_err());
//! ```

use crate::graph::ScGraph;
use crate::json::{parse, Json};
use crate::plan::PlanDomain;
use crate::plan_codec::{graph_from_json, graph_to_json};

/// Schema tag of the standalone summary document ([`encode_summary`]).
/// Persisted summaries never carry it: the cache stores them inside the
/// define's `sct-plan/3` entry, versioned by that entry's schema.
pub const SUMMARY_CODEC_SCHEMA: &str = "sct-plan-summary/2";

/// A compile-independent name for one λ: the `define`d global that owns it
/// plus its index in that define's syntactic all-λ traversal (the entry λ
/// is index 0, nested λs follow in source order).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LambdaRef {
    /// The owning `define`'s name.
    pub global: String,
    /// Index into the define's all-λ traversal (0 = the entry λ).
    pub idx: u32,
}

/// A verified define's contract summary with compile-run-specific λ ids
/// factored out: the unit the summary store persists.
#[derive(Debug, Clone, PartialEq)]
pub struct PortableSummary {
    /// The summarized `define`'s name.
    pub name: String,
    /// Domain assumption per parameter — the ladder rung the proof was
    /// discharged at. A stub is sound only for arguments provably inside
    /// these domains.
    pub guard: Vec<PlanDomain>,
    /// The domain every application of the callee is known to land in
    /// (the stub returns a fresh value of this domain).
    pub result: PlanDomain,
    /// The size-change graph sets the verified exploration discovered
    /// itself, per λ. May span several defines (callees it descended
    /// into).
    pub graphs: Vec<(LambdaRef, Vec<ScGraph>)>,
    /// The `define`s whose summaries the exploration stubbed: their graph
    /// sets (transitively) complete this summary's.
    pub callees: Vec<String>,
}

/// The summary's members, in the field layout both encodings share: the
/// `"summary"` object of an `sct-plan/3` entry and, behind a schema tag,
/// the standalone document [`encode_summary`] writes.
pub(crate) fn summary_members(s: &PortableSummary) -> Vec<(String, Json)> {
    let graphs = s
        .graphs
        .iter()
        .map(|(lr, set)| {
            Json::Obj(vec![
                ("global".into(), Json::str(&lr.global)),
                ("idx".into(), Json::Int(i64::from(lr.idx))),
                (
                    "set".into(),
                    Json::Arr(set.iter().map(graph_to_json).collect()),
                ),
            ])
        })
        .collect();
    vec![
        ("name".into(), Json::str(&s.name)),
        (
            "guard".into(),
            Json::Arr(s.guard.iter().map(|d| Json::str(d.label())).collect()),
        ),
        ("result".into(), Json::str(s.result.label())),
        ("graphs".into(), Json::Arr(graphs)),
        (
            "callees".into(),
            Json::Arr(s.callees.iter().map(Json::str).collect()),
        ),
    ]
}

/// Encodes one portable summary as a standalone single-line
/// `sct-plan-summary/2` JSON document (newline-terminated). The cache
/// never writes this form; it is kept for `perfbench`'s in-memory store.
pub fn encode_summary(s: &PortableSummary) -> String {
    let mut members = vec![("schema".into(), Json::str(SUMMARY_CODEC_SCHEMA))];
    members.extend(summary_members(s));
    let mut out = Json::Obj(members).to_string();
    out.push('\n');
    out
}

/// Decodes a standalone `sct-plan-summary/2` document.
///
/// # Errors
///
/// Any malformation — bad JSON, wrong or missing schema, unknown domain
/// label, malformed graph, implausible sizes — is an `Err` with a reason.
pub fn decode_summary(text: &str) -> Result<PortableSummary, String> {
    let doc = parse(text.trim_end()).map_err(|e| e.to_string())?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(SUMMARY_CODEC_SCHEMA) => summary_from_json(&doc),
        Some(other) => Err(format!("schema mismatch: {other:?}")),
        None => Err("missing schema field".into()),
    }
}

/// Decodes the summary members of `doc` (the inverse of
/// [`summary_members`]).
///
/// # Errors
///
/// Any malformation — missing member, unknown domain label, malformed
/// graph, implausible sizes — is an `Err` with a reason. Callers treat
/// every `Err` as a miss.
pub(crate) fn summary_from_json(doc: &Json) -> Result<PortableSummary, String> {
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .ok_or("missing name")?
        .to_string();
    let mut guard = Vec::new();
    for g in doc
        .get("guard")
        .and_then(Json::as_arr)
        .ok_or("missing guard")?
    {
        let g = g.as_str().ok_or("guard: not a string")?;
        guard.push(PlanDomain::from_label(g).ok_or_else(|| format!("unknown domain label {g:?}"))?);
    }
    // Arity sanity, mirroring the graph decoder's 1024 cap.
    if guard.len() > 1024 {
        return Err(format!("implausible arity {}", guard.len()));
    }
    let result = doc
        .get("result")
        .and_then(Json::as_str)
        .ok_or("missing result")?;
    let result =
        PlanDomain::from_label(result).ok_or_else(|| format!("unknown domain label {result:?}"))?;
    let entries = doc
        .get("graphs")
        .and_then(Json::as_arr)
        .ok_or("missing graphs")?;
    // A summary's graph map covers reachable λs, not arbitrary data: a
    // hostile or corrupt size would balloon every consumer's merge step.
    if entries.len() > 4096 {
        return Err(format!("implausible graph-map size {}", entries.len()));
    }
    let mut graphs = Vec::with_capacity(entries.len());
    for e in entries {
        let global = e
            .get("global")
            .and_then(Json::as_str)
            .ok_or("graphs: missing global")?
            .to_string();
        let idx = u32::try_from(
            e.get("idx")
                .and_then(Json::as_u64)
                .ok_or("graphs: missing idx")?,
        )
        .map_err(|_| "graphs: idx out of range")?;
        let set_json = e
            .get("set")
            .and_then(Json::as_arr)
            .ok_or("graphs: missing set")?;
        if set_json.len() > 4096 {
            return Err(format!("implausible graph-set size {}", set_json.len()));
        }
        let mut set = Vec::with_capacity(set_json.len());
        for g in set_json {
            set.push(graph_from_json(g)?);
        }
        graphs.push((LambdaRef { global, idx }, set));
    }
    let callees = doc
        .get("callees")
        .and_then(Json::as_arr)
        .ok_or("missing callees")?;
    if callees.len() > 4096 {
        return Err(format!("implausible callee count {}", callees.len()));
    }
    let callees = callees
        .iter()
        .map(|c| {
            c.as_str()
                .map(str::to_string)
                .ok_or("callees: not a string")
        })
        .collect::<Result<_, _>>()?;
    Ok(PortableSummary {
        name,
        guard,
        result,
        graphs,
        callees,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Change;

    fn sample() -> PortableSummary {
        PortableSummary {
            name: "msort".into(),
            guard: vec![PlanDomain::Any, PlanDomain::Nat],
            result: PlanDomain::Any,
            graphs: vec![
                (
                    LambdaRef {
                        global: "msort".into(),
                        idx: 0,
                    },
                    vec![ScGraph::from_arcs(
                        2,
                        2,
                        [(0, Change::Descend, 0), (1, Change::NonAscend, 1)],
                    )],
                ),
                (
                    LambdaRef {
                        global: "len".into(),
                        idx: 0,
                    },
                    vec![
                        ScGraph::from_arcs(1, 1, [(0, Change::Descend, 0)]),
                        ScGraph::empty(1, 1),
                    ],
                ),
            ],
            callees: vec!["merge".into(), "take".into()],
        }
    }

    #[test]
    fn round_trips() {
        let s = sample();
        let enc = encode_summary(&s);
        assert!(enc.ends_with('\n'));
        assert_eq!(decode_summary(&enc).unwrap(), s, "{enc}");
        // An empty graph map (a non-recursive summary) round-trips too.
        let empty = PortableSummary {
            name: "k".into(),
            guard: vec![],
            result: PlanDomain::Nat,
            graphs: vec![],
            callees: vec![],
        };
        assert_eq!(decode_summary(&encode_summary(&empty)).unwrap(), empty);
    }

    #[test]
    fn rejects_truncation_and_corruption() {
        let enc = encode_summary(&sample());
        for cut in [0, 1, enc.len() / 2, enc.len() - 2] {
            assert!(decode_summary(&enc[..cut]).is_err(), "cut at {cut}");
        }
        assert!(decode_summary(&enc.replace("\"guard\"", "\"gu4rd\"")).is_err());
        assert!(decode_summary("\0\0\0\0").is_err());
    }

    #[test]
    fn rejects_version_mismatch() {
        let enc = encode_summary(&sample()).replace(SUMMARY_CODEC_SCHEMA, "sct-plan-summary/1");
        assert!(decode_summary(&enc)
            .unwrap_err()
            .contains("schema mismatch"));
    }

    #[test]
    fn rejects_bad_domains_and_graphs() {
        let enc = encode_summary(&sample());
        assert!(decode_summary(&enc.replace("\"nat\"", "\"gnat\"")).is_err());
        assert!(decode_summary(&enc.replace("\"d\"", "\"x\"")).is_err());
    }
}
