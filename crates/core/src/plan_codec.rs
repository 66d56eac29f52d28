//! The versioned `sct-plan/3` codec: persisted enforcement decisions.
//!
//! The persistent plan cache (`sct-cache`) stores one decision per
//! content-addressed file so that re-planning an edited program
//! re-verifies only the `define`s whose keys changed. This module is the
//! serialization layer: a [`PortableDecision`] is a decision with every
//! compile-run-specific identifier removed, encoded as a single-line JSON
//! document whose `schema` field is [`PLAN_CODEC_SCHEMA`]. A verified
//! recursive define's entry also carries its contract summary, as an
//! optional `"summary"` member laid out by `summary_codec`: one entry, one
//! file, one version per content key.
//!
//! The planner emits every decision in this form, planned or loaded, and
//! [`PortableDecision::rebind`] is the one way from an entry to a
//! [`FnDecision`]: it consumes the entry, moving its strings and verdict
//! into the plan, so a store hit and a fresh verdict bind alike. Nothing
//! converts the other way: a bound decision is never stripped back down.
//!
//! # Why "portable"
//!
//! λ ids are assigned by a program-wide counter at compile time: editing
//! one `define` shifts the ids of every later λ in the file. A persisted
//! decision must therefore not mention λ ids at all — instead:
//!
//! * the decision's own λ is implicit (the cache key identifies the
//!   `define`, and the loader rebinds to the current compile's id);
//! * `covers` (helper λs discharged by the same proof) are stored as
//!   **indices into the define's nested-λ list in syntactic traversal
//!   order**, which is stable for a structurally unchanged define, and
//!   rebound to concrete ids on load.
//!
//! # Corruption tolerance
//!
//! [`decode_entry`] never panics: truncated files, non-JSON bytes, wrong
//! schema versions, out-of-range arcs, missing fields, and a malformed
//! `"summary"` member all return `Err`, which the cache treats as a miss (recompute and overwrite).
//! A *stale* entry is impossible by construction — the content address
//! commits to the define's resolved AST, the planner configuration, and
//! the codec version, so a decode can only ever see bytes written for
//! exactly the inputs being planned.
//!
//! # Examples
//!
//! ```
//! use sct_core::plan::{Decision, PlanDomain};
//! use sct_core::plan_codec::{decode_entry, encode_entry, PortableDecision};
//!
//! let d = PortableDecision {
//!     name: "sum".into(),
//!     decision: Decision::Static { guard: vec![PlanDomain::Nat, PlanDomain::Nat] },
//!     covers_idx: vec![],
//!     blame: None,
//!     detail: "verified (sum: 1 graphs)".into(),
//!     micros: 412,
//!     summary: None,
//! };
//! let bytes = encode_entry(&d);
//! assert_eq!(decode_entry(&bytes).unwrap(), d);
//! assert!(decode_entry("corrupt garbage").is_err());
//! ```

use crate::graph::{Change, ScGraph};
use crate::json::{parse, Json, JsonWriter};
use crate::plan::{Decision, FnDecision};
use crate::summary_codec::{
    guard_from_json, summary_from_json, write_guard, write_summary_members, PortableSummary,
};

/// Schema tag of the persisted entry format. Decoders reject anything
/// else, so bumping this invalidates (falls back to recompute for) every
/// existing cache file.
pub const PLAN_CODEC_SCHEMA: &str = "sct-plan/3";

/// A [`FnDecision`] with compile-run-specific λ ids factored out (see the
/// module docs): the unit the plan cache persists.
#[derive(Debug, Clone, PartialEq)]
pub struct PortableDecision {
    /// The `define`d name.
    pub name: String,
    /// The verdict.
    pub decision: Decision,
    /// `covers` as indices into the define's nested-λ list (syntactic
    /// traversal order), rather than raw λ ids.
    pub covers_idx: Vec<u32>,
    /// `terminating/c` blame label, if any.
    pub blame: Option<String>,
    /// Human-readable verifier summary.
    pub detail: String,
    /// Planning cost of the original (cold) computation, microseconds.
    pub micros: u128,
    /// The define's contract summary, when it has one (verified recursive
    /// `Static` defines).
    pub summary: Option<PortableSummary>,
}

impl PortableDecision {
    /// Binds the entry to the *current* compile, consuming it: `lambda` is
    /// the define's entry λ id, `nested` its nested-λ ids in syntactic
    /// traversal order. The name, verdict, blame and detail move into the
    /// result; the summary, if any, is dropped (the planner takes it out
    /// first). Returns `None` when a stored cover index is out of range for
    /// `nested` — the define's body does not match the entry (which the
    /// content address should make impossible; treated as corruption, i.e.
    /// recompute).
    pub fn rebind(self, lambda: u32, nested: &[u32]) -> Option<FnDecision> {
        let mut covers = Vec::with_capacity(self.covers_idx.len());
        for &i in &self.covers_idx {
            covers.push(*nested.get(i as usize)?);
        }
        Some(FnDecision {
            name: self.name,
            lambda,
            covers,
            decision: self.decision,
            blame: self.blame,
            detail: self.detail,
            micros: self.micros,
        })
    }
}

/// Writes a size-change graph as `{"rows":…,"cols":…,"arcs":[[from,
/// "d"|"n",to],…]}`, the layout [`graph_from_json`] reads.
pub(crate) fn write_graph(w: &mut JsonWriter, g: &ScGraph) {
    w.obj(|w| {
        w.key("rows").int(g.rows() as i64);
        w.key("cols").int(g.cols() as i64);
        w.key("arcs").arr(|w| {
            for a in g.arcs() {
                w.arr(|w| {
                    w.int(a.from as i64);
                    w.str(match a.change {
                        Change::Descend => "d",
                        Change::NonAscend => "n",
                    });
                    w.int(a.to as i64);
                });
            }
        });
    });
}

pub(crate) fn graph_from_json(j: &Json) -> Result<ScGraph, String> {
    let rows = j
        .get("rows")
        .and_then(Json::as_u64)
        .ok_or("witness: missing rows")? as usize;
    let cols = j
        .get("cols")
        .and_then(Json::as_u64)
        .ok_or("witness: missing cols")? as usize;
    // Arity sanity: a hostile or corrupt size would allocate rows*cols
    // bytes; graphs in this system are function arities.
    if rows > 1024 || cols > 1024 {
        return Err(format!("witness: implausible arity {rows}x{cols}"));
    }
    let mut g = ScGraph::empty(rows, cols);
    for arc in j
        .get("arcs")
        .and_then(Json::as_arr)
        .ok_or("witness: missing arcs")?
    {
        let items = arc.as_arr().ok_or("witness: arc not an array")?;
        let [from, change, to] = items else {
            return Err("witness: arc arity".into());
        };
        let from = from.as_u64().ok_or("witness: bad from")? as usize;
        let to = to.as_u64().ok_or("witness: bad to")? as usize;
        if from >= rows || to >= cols {
            return Err("witness: arc out of range".into());
        }
        let change = match change.as_str() {
            Some("d") => Change::Descend,
            Some("n") => Change::NonAscend,
            _ => return Err("witness: bad change tag".into()),
        };
        g.add_arc(from, change, to);
    }
    Ok(g)
}

/// Encodes one portable decision as a single-line `sct-plan/3` JSON
/// document (newline-terminated).
pub fn encode_entry(d: &PortableDecision) -> String {
    let mut w = JsonWriter::new();
    w.obj(|w| {
        w.key("schema").str(PLAN_CODEC_SCHEMA);
        w.key("name").str(&d.name);
        w.key("decision").str(d.decision.tag());
        match &d.decision {
            Decision::Static { guard } => write_guard(w.key("guard"), guard),
            Decision::Monitor { reason } => w.key("reason").str(reason),
            Decision::Refuted { witness, culprit } => {
                write_graph(w.key("witness"), witness);
                w.key("culprit").str(culprit);
            }
        }
        w.key("covers_idx").arr(|w| {
            for &i in &d.covers_idx {
                w.int(i64::from(i));
            }
        });
        match &d.blame {
            Some(b) => w.key("blame").str(b),
            None => w.key("blame").null(),
        }
        w.key("detail").str(&d.detail);
        w.key("micros").int(d.micros.min(i64::MAX as u128) as i64);
        if let Some(s) = &d.summary {
            w.key("summary").obj(|w| write_summary_members(w, s));
        }
    });
    w.into_line()
}

/// Decodes a persisted `sct-plan/3` entry.
///
/// # Errors
///
/// Any malformation — bad JSON, wrong or missing schema, unknown decision
/// tag, malformed witness, missing fields, malformed summary — is an `Err`
/// with a reason.
/// Callers treat every `Err` as a cache miss.
pub fn decode_entry(text: &str) -> Result<PortableDecision, String> {
    let doc = parse(text.trim_end()).map_err(|e| e.to_string())?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(PLAN_CODEC_SCHEMA) => {}
        Some(other) => return Err(format!("schema mismatch: {other:?}")),
        None => return Err("missing schema field".into()),
    }
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .ok_or("missing name")?
        .to_string();
    let decision = match doc.get("decision").and_then(Json::as_str) {
        Some("static") => Decision::Static {
            guard: guard_from_json(&doc)?,
        },
        Some("monitor") => Decision::Monitor {
            reason: doc
                .get("reason")
                .and_then(Json::as_str)
                .ok_or("missing reason")?
                .to_string(),
        },
        Some("refuted") => Decision::Refuted {
            witness: graph_from_json(doc.get("witness").ok_or("missing witness")?)?,
            culprit: doc
                .get("culprit")
                .and_then(Json::as_str)
                .ok_or("missing culprit")?
                .to_string(),
        },
        Some(other) => return Err(format!("unknown decision tag {other:?}")),
        None => return Err("missing decision tag".into()),
    };
    let mut covers_idx = Vec::new();
    for c in doc
        .get("covers_idx")
        .and_then(Json::as_arr)
        .ok_or("missing covers_idx")?
    {
        covers_idx.push(
            u32::try_from(c.as_u64().ok_or("covers_idx: not an index")?)
                .map_err(|_| "covers_idx: out of range")?,
        );
    }
    let blame = match doc.get("blame") {
        Some(Json::Null) | None => None,
        Some(j) => Some(j.as_str().ok_or("blame: not a string")?.to_string()),
    };
    let detail = doc
        .get("detail")
        .and_then(Json::as_str)
        .ok_or("missing detail")?
        .to_string();
    let micros = u128::from(
        doc.get("micros")
            .and_then(Json::as_u64)
            .ok_or("missing micros")?,
    );
    let summary = doc.get("summary").map(summary_from_json).transpose()?;
    Ok(PortableDecision {
        name,
        decision,
        covers_idx,
        blame,
        detail,
        micros,
        summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanDomain;
    use crate::summary_codec::LambdaRef;

    fn refuted() -> PortableDecision {
        PortableDecision {
            name: "spin".into(),
            decision: Decision::Refuted {
                witness: ScGraph::from_arcs(
                    2,
                    2,
                    [(0, Change::NonAscend, 0), (1, Change::Descend, 0)],
                ),
                culprit: "spin".into(),
            },
            covers_idx: vec![],
            blame: Some("spin.sct:1:14".into()),
            detail: "graph is idempotent with no self-descent".into(),
            micros: 77,
            summary: None,
        }
    }

    fn summarized() -> PortableDecision {
        PortableDecision {
            name: "len".into(),
            decision: Decision::Static {
                guard: vec![PlanDomain::Any],
            },
            covers_idx: vec![],
            blame: None,
            detail: "verified".into(),
            micros: 12,
            summary: Some(PortableSummary {
                name: "len".into(),
                guard: vec![PlanDomain::Any],
                result: PlanDomain::Nat,
                graphs: vec![(
                    LambdaRef {
                        global: "len".into(),
                        idx: 0,
                    },
                    vec![ScGraph::from_arcs(1, 1, [(0, Change::Descend, 0)])],
                )],
                callees: vec!["dec".into()],
            }),
        }
    }

    #[test]
    fn round_trips_all_decision_kinds() {
        let cases = vec![
            PortableDecision {
                name: "sum".into(),
                decision: Decision::Static {
                    guard: vec![PlanDomain::Nat, PlanDomain::Any],
                },
                covers_idx: vec![0, 2],
                blame: None,
                detail: "verified \"quoted\"\nnewline".into(),
                micros: 123_456_789_012,
                summary: None,
            },
            summarized(),
            PortableDecision {
                name: "apply1".into(),
                decision: Decision::Monitor {
                    reason: "applies an opaque value 1 time(s)".into(),
                },
                covers_idx: vec![],
                blame: None,
                detail: "modular".into(),
                micros: 0,
                summary: None,
            },
            refuted(),
        ];
        for d in cases {
            let enc = encode_entry(&d);
            assert!(enc.ends_with('\n'));
            assert_eq!(decode_entry(&enc).unwrap(), d, "{enc}");
        }
    }

    #[test]
    fn rejects_truncation_and_corruption() {
        let enc = encode_entry(&refuted());
        for cut in [0, 1, enc.len() / 2, enc.len() - 2] {
            assert!(decode_entry(&enc[..cut]).is_err(), "cut at {cut}");
        }
        let flipped = enc.replace("\"decision\"", "\"decisi0n\"");
        assert!(decode_entry(&flipped).is_err());
        assert!(decode_entry("\0\0\0\0").is_err());
    }

    #[test]
    fn malformed_summary_rejects_the_whole_entry() {
        let enc = encode_entry(&summarized());
        assert!(decode_entry(&enc.replace("\"result\"", "\"resu1t\"")).is_err());
        assert!(decode_entry(&enc.replace("\"callees\":[\"dec\"]", "\"callees\":[7]")).is_err());
        assert!(decode_entry(&enc.replace("\"d\"", "\"x\"")).is_err());
    }

    #[test]
    fn rejects_version_mismatch() {
        let enc = encode_entry(&refuted()).replace("sct-plan/3", "sct-plan/2");
        assert!(decode_entry(&enc).unwrap_err().contains("schema mismatch"));
        let enc = encode_entry(&refuted()).replace("sct-plan/3", "sct-plan/4");
        assert!(decode_entry(&enc).unwrap_err().contains("schema mismatch"));
    }

    #[test]
    fn rejects_malformed_witness() {
        let bad_arc = r#"{"schema":"sct-plan/3","name":"f","decision":"refuted",
            "witness":{"rows":1,"cols":1,"arcs":[[5,"d",0]]},"culprit":"f",
            "covers_idx":[],"blame":null,"detail":"x","micros":1}"#
            .replace('\n', " ");
        assert!(decode_entry(&bad_arc).unwrap_err().contains("out of range"));
        let huge = bad_arc.replace("\"rows\":1", "\"rows\":99999");
        assert!(decode_entry(&huge).is_err());
    }

    #[test]
    fn rebind_maps_indices_to_current_ids() {
        let d = PortableDecision {
            name: "f".into(),
            decision: Decision::Static {
                guard: vec![PlanDomain::Any],
            },
            covers_idx: vec![0, 2],
            blame: Some("b".into()),
            detail: "verified".into(),
            micros: 9,
            summary: None,
        };
        // Out-of-range cover index = structural mismatch = corruption.
        assert!(d.clone().rebind(41, &[50]).is_none());
        let bound = d.rebind(41, &[50, 51, 52]).unwrap();
        assert_eq!(bound.lambda, 41);
        assert_eq!(bound.covers, vec![50, 52]);
        assert_eq!(bound.blame.as_deref(), Some("b"));
        assert_eq!(bound.micros, 9);
    }
}
