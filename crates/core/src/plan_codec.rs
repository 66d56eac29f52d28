//! The versioned `sct-plan/3` codec: persisted enforcement decisions and
//! the plan document.
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
//! The plan document ([`encode_plan`]: what `sct hybrid --plan` prints
//! and the `sct serve` `plan` op embeds) lists the same records, written
//! by the same record writer, bound to one compile: each adds its λ id as
//! `"lambda"`, and lists λ ids as `"covers"` in place of `"covers_idx"`.
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
use crate::plan::{Decision, EnforcementPlan, FnDecision};
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

/// The members one decision record shares between a cache entry and the
/// plan document; only `lambda` and the key of `covers` differ.
struct Record<'a> {
    name: &'a str,
    lambda: Option<u32>,
    decision: &'a Decision,
    covers: (&'static str, &'a [u32]),
    blame: Option<&'a str>,
    detail: &'a str,
    micros: u128,
}

/// Writes `r`'s members, in the one order both documents use: `name`,
/// `lambda` if bound, `decision` and its verdict members, the covers,
/// `blame`, `detail`, `micros`.
fn write_record(w: &mut JsonWriter, r: &Record) {
    w.key("name").str(r.name);
    if let Some(lambda) = r.lambda {
        w.key("lambda").int(i64::from(lambda));
    }
    w.key("decision").str(r.decision.tag());
    match r.decision {
        Decision::Static { guard } => write_guard(w.key("guard"), guard),
        Decision::Monitor { reason } => w.key("reason").str(reason),
        Decision::Refuted { witness, culprit } => {
            write_graph(w.key("witness"), witness);
            w.key("culprit").str(culprit);
        }
    }
    let (key, covers) = r.covers;
    w.key(key).arr(|w| {
        for &c in covers {
            w.int(i64::from(c));
        }
    });
    match r.blame {
        Some(b) => w.key("blame").str(b),
        None => w.key("blame").null(),
    }
    w.key("detail").str(r.detail);
    w.key("micros").int(r.micros.min(i64::MAX as u128) as i64);
}

/// Encodes one portable decision as a single-line `sct-plan/3` JSON
/// document (newline-terminated).
pub fn encode_entry(d: &PortableDecision) -> String {
    let mut w = JsonWriter::new();
    w.obj(|w| {
        w.key("schema").str(PLAN_CODEC_SCHEMA);
        let record = Record {
            name: &d.name,
            lambda: None,
            decision: &d.decision,
            covers: ("covers_idx", &d.covers_idx),
            blame: d.blame.as_deref(),
            detail: &d.detail,
            micros: d.micros,
        };
        write_record(w, &record);
        if let Some(s) = &d.summary {
            w.key("summary").obj(|w| write_summary_members(w, s));
        }
    });
    w.into_line()
}

/// Encodes a bound plan as the `sct-plan/3` plan document,
/// `{"schema":"sct-plan/3","functions":[…]}` with one record per line
/// (newline-terminated). A record is an entry's, less `schema` and
/// `summary`, with its λ id as `lambda` and `covers` as λ ids.
pub fn encode_plan(plan: &EnforcementPlan) -> String {
    let mut w = JsonWriter::new();
    w.obj(|w| {
        w.key("schema").str(PLAN_CODEC_SCHEMA);
        w.key("functions").arr(|w| {
            for d in &plan.decisions {
                w.newline();
                let record = Record {
                    name: &d.name,
                    lambda: Some(d.lambda),
                    decision: &d.decision,
                    covers: ("covers", &d.covers),
                    blame: d.blame.as_deref(),
                    detail: &d.detail,
                    micros: d.micros,
                };
                w.obj(|w| write_record(w, &record));
            }
        });
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

    fn monitored() -> PortableDecision {
        PortableDecision {
            name: "apply1".into(),
            decision: Decision::Monitor {
                reason: "applies an opaque value 1 time(s)".into(),
            },
            covers_idx: vec![],
            blame: Some("p".into()),
            detail: "modular".into(),
            micros: 3,
            summary: None,
        }
    }

    fn plan_of(entries: Vec<PortableDecision>) -> EnforcementPlan {
        let mut plan = EnforcementPlan::new();
        for (i, d) in entries.into_iter().enumerate() {
            let lambda = 10 * i as u32;
            plan.decisions
                .push(d.rebind(lambda, &[lambda + 1, lambda + 2]).unwrap());
        }
        plan
    }

    /// An entry and the plan document's record of the same decision carry
    /// one field set: they differ only in what binds a record to a compile
    /// (`lambda`, `covers` for `covers_idx`) or to the store (`schema`,
    /// `summary`).
    #[test]
    fn entry_and_plan_record_share_one_field_set() {
        let mut sum = summarized();
        sum.covers_idx = vec![1];
        let entries = vec![sum, monitored(), refuted()];
        let doc = parse(&encode_plan(&plan_of(entries.clone()))).unwrap();
        let records = doc.get("functions").and_then(Json::as_arr).unwrap();
        assert_eq!(records.len(), entries.len());
        let bound_only = ["schema", "lambda", "covers", "covers_idx", "summary"];
        let shared = |j: &Json| match j {
            Json::Obj(m) => m
                .iter()
                .filter(|(k, _)| !bound_only.contains(&k.as_str()))
                .cloned()
                .collect::<Vec<_>>(),
            _ => panic!("not an object: {j}"),
        };
        for (entry, record) in entries.iter().zip(records) {
            let e = parse(&encode_entry(entry)).unwrap();
            assert_eq!(shared(&e), shared(record), "{}", entry.name);
            assert!(e.get("covers_idx").is_some() && record.get("covers").is_some());
        }
        assert_eq!(records[0].get("lambda").and_then(Json::as_i64), Some(0));
        assert_eq!(records[0].get("covers").unwrap().to_string(), "[2]");
        assert!(records[1].get("reason").is_some(), "monitor reason");
        assert!(records[2].get("witness").is_some(), "refuted witness");
    }

    #[test]
    fn plan_document_shape() {
        let mut sum = summarized();
        sum.name = "su\"m".into();
        sum.decision = Decision::Static {
            guard: vec![PlanDomain::Nat],
        };
        let plan = plan_of(vec![sum, refuted()]);
        let json = encode_plan(&plan);
        assert!(json.contains("\"schema\":\"sct-plan/3\""), "{json}");
        assert!(json.contains("\"name\":\"su\\\"m\""), "{json}");
        assert!(json.contains("\"guard\":[\"nat\"]"), "{json}");
        assert!(json.contains("\"decision\":\"refuted\""), "{json}");
        assert!(json.contains("\"blame\":\"spin.sct:1:14\""), "{json}");
        assert!(!json.contains("summary"), "{json}");
        assert!(plan.to_string().contains("1 static"), "{plan}");
    }

    #[test]
    fn plan_document_is_one_record_per_line() {
        let guarded = PortableDecision {
            name: "f".into(),
            decision: Decision::Static {
                guard: vec![PlanDomain::Nat, PlanDomain::Any],
            },
            covers_idx: vec![0, 1],
            blame: None,
            detail: "verified".into(),
            micros: 1,
            summary: None,
        };
        let plan = plan_of(vec![guarded, monitored()]);
        let json = encode_plan(&plan);
        assert_eq!(
            json,
            "{\"schema\":\"sct-plan/3\",\"functions\":[\n\
             {\"name\":\"f\",\"lambda\":0,\"decision\":\"static\",\"guard\":[\"nat\",\"any\"],\
             \"covers\":[1,2],\"blame\":null,\"detail\":\"verified\",\"micros\":1},\n\
             {\"name\":\"apply1\",\"lambda\":10,\"decision\":\"monitor\",\
             \"reason\":\"applies an opaque value 1 time(s)\",\"covers\":[],\"blame\":\"p\",\
             \"detail\":\"modular\",\"micros\":3}]}\n"
        );
        // Line breaks sit between items: the document is one JSON value.
        assert_eq!(parse(&json).unwrap().to_string(), json.replace('\n', ""));
        assert_eq!(
            encode_plan(&EnforcementPlan::new()),
            "{\"schema\":\"sct-plan/3\",\"functions\":[]}\n"
        );
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
