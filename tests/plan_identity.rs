//! The planner's output is pinned byte for byte: a cold plan of the
//! Table 1 corpus, the Figure-10 programs and a 1000-define layered
//! corpus, each in source order and with its defines reversed, must keep
//! producing the same decisions and the same encoded cache entries.
//!
//! Two digests per corpus:
//!
//! * every decision in program order: name, λ id, kind, guard (or reason,
//!   or witness and culprit), covers, blame and detail;
//! * every entry the planner hands its store, `sct-plan/3`-encoded with
//!   `micros` zeroed, in the order it is stored, with its key.
//!
//! A third digest covers what the plan compiles to: every call-site
//! table `sct_ir::compile` bakes from the cold plan, site by site, with a
//! first-class site rendered as bare `generic`. The machine's dispatch
//! may change; the decisions it reads from this table must not.
//!
//! After its cold pass, each program is replayed through a store that
//! serves the recorded entries back through the codec: every define must
//! hit, every stored contract summary must rebind, and the replay's
//! decisions must digest to the same pin as the cold ones.
//!
//! A change to *how* the planner or the codec computes its output (which
//! summaries a merge visits, how an entry is written) must leave both
//! unchanged. A change that moves them changes verdicts or cache bytes,
//! and must re-pin here on purpose.

use sct_core::plan::{Decision, EnforcementPlan};
use sct_core::plan_codec::{decode_entry, encode_entry, PortableDecision};
use sct_corpus::{table1, workloads};
use sct_fuzz::permute_defines;
use sct_ir::SiteAction;
use sct_obs::Registry;
use sct_symbolic::pipeline::{plan_program, DecisionStore, PlanConfig, PlanObs};
use std::collections::HashMap;
use std::sync::Arc;

/// 64-bit FNV-1a: stable across platforms and releases, unlike
/// `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // A separator, so ("ab", "c") and ("a", "bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// A store that never hits, digests every entry it is asked to keep, and
/// keeps each one encoded, by key, for a warm replay.
struct Recorder {
    digest: Fnv,
    entries: HashMap<String, String>,
    summaries: u64,
}

impl DecisionStore for Recorder {
    fn load(&mut self, _key: &str) -> Option<PortableDecision> {
        None
    }

    fn store(&mut self, key: &str, entry: &PortableDecision) {
        let timeless = PortableDecision {
            micros: 0,
            ..entry.clone()
        };
        let encoded = encode_entry(&timeless);
        self.digest.write(key.as_bytes());
        self.digest.write(encoded.as_bytes());
        self.summaries += u64::from(entry.summary.is_some());
        self.entries.insert(key.to_string(), encoded);
    }
}

/// A store that serves a recorded cold pass, decoding each entry as a
/// disk cache would, and keeps nothing.
struct Replay<'a>(&'a HashMap<String, String>);

impl DecisionStore for Replay<'_> {
    fn load(&mut self, key: &str) -> Option<PortableDecision> {
        decode_entry(self.0.get(key)?).ok()
    }

    fn store(&mut self, key: &str, _entry: &PortableDecision) {
        panic!("a warm replay re-planned the define keyed {key}");
    }
}

fn digest_decisions(h: &mut Fnv, plan: &EnforcementPlan) {
    for d in &plan.decisions {
        let verdict = match &d.decision {
            Decision::Static { guard } => {
                let labels: Vec<_> = guard.iter().map(|g| g.label()).collect();
                labels.join(",")
            }
            Decision::Monitor { reason } => reason.clone(),
            Decision::Refuted { witness, culprit } => format!("{witness} {culprit}"),
        };
        h.write(
            format!(
                "{}|{}|{}|{}|{:?}|{:?}|{}",
                d.name,
                d.lambda,
                d.decision.tag(),
                verdict,
                d.covers,
                d.blame,
                d.detail
            )
            .as_bytes(),
        );
    }
}

fn digest_sites(h: &mut Fnv, program: &sct_lang::ast::Program, plan: &EnforcementPlan) {
    let labels = |doms: &[sct_core::plan::PlanDomain]| {
        let labels: Vec<_> = doms.iter().map(|d| d.label()).collect();
        labels.join(",")
    };
    for site in &sct_ir::compile(program, Some(plan)).sites {
        let line = match &site.action {
            SiteAction::Generic => "generic".to_string(),
            SiteAction::Skip { lambda } => format!("skip {lambda}"),
            SiteAction::Guarded { lambda, doms } => format!("guarded {lambda} {}", labels(doms)),
            SiteAction::Monitored { lambda } => format!("monitored {lambda}"),
        };
        h.write(line.as_bytes());
    }
}

/// The digests of a group of sources: (cold decisions, store entries,
/// warm-replay decisions, compiled call-site tables).
fn digests(sources: &[String]) -> (String, String, String, String) {
    let cfg = PlanConfig::default();
    let (mut cold, mut warm, mut sites) = (Fnv::new(), Fnv::new(), Fnv::new());
    let mut store = Recorder {
        digest: Fnv::new(),
        entries: HashMap::new(),
        summaries: 0,
    };
    for src in sources {
        let p = sct_lang::compile_program(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        store.entries.clear();
        store.summaries = 0;
        let (plan, _) = plan_program(&p, &cfg, &mut store);
        digest_decisions(&mut cold, &plan);
        digest_sites(&mut sites, &p, &plan);

        let reg = Arc::new(Registry::new());
        let replay_cfg = PlanConfig {
            obs: PlanObs::registered(Arc::clone(&reg)),
            ..PlanConfig::default()
        };
        let mut replay = Replay(&store.entries);
        let (plan, stats) = plan_program(&p, &replay_cfg, &mut replay);
        assert_eq!(stats.hits(), plan.decisions.len(), "every define hits");
        let hits = reg.snapshot().counter("plan.summary.hits");
        assert_eq!(hits, Some(store.summaries), "every stored summary rebinds");
        digest_decisions(&mut warm, &plan);
    }
    let hex = |h: Fnv| format!("{:016x}", h.0);
    (hex(cold), hex(store.digest), hex(warm), hex(sites))
}

/// Each source followed by its defines reversed.
fn both_orders(sources: Vec<String>) -> Vec<String> {
    sources
        .into_iter()
        .flat_map(|s| {
            let reversed = permute_defines(&s, |k| (0..k).rev().collect()).expect("parses");
            [s, reversed]
        })
        .collect()
}

/// The pinned digests of one corpus, both define orders.
struct Pins<'a> {
    decisions: &'a str,
    entries: &'a str,
    sites: &'a str,
}

fn assert_pinned(tag: &str, sources: Vec<String>, pins: Pins) {
    let (cold, stored, warm, sites) = digests(&both_orders(sources));
    assert_eq!(
        (cold.as_str(), stored.as_str()),
        (pins.decisions, pins.entries),
        "{tag}: (decision digest, store entry digest) moved"
    );
    assert_eq!(
        warm, pins.decisions,
        "{tag}: a warm replay's decisions moved"
    );
    assert_eq!(sites, pins.sites, "{tag}: a compiled call-site table moved");
}

#[test]
fn table1_plans_are_pinned() {
    let sources = table1::all().iter().map(|p| p.source.to_string()).collect();
    let pins = Pins {
        decisions: "7d1658b395eb9e88",
        entries: "4fbce1bbb1181d51",
        sites: "7ea6dc91de4f5ede",
    };
    assert_pinned("table1", sources, pins);
}

#[test]
fn fig10_plans_are_pinned() {
    let sources = workloads::fig10().into_iter().map(|w| w.source).collect();
    let pins = Pins {
        decisions: "0917a86e05734ee3",
        entries: "586265d40c3871ed",
        sites: "b704a66cd217403f",
    };
    assert_pinned("fig10", sources, pins);
}

#[test]
fn layered_corpus_plans_are_pinned() {
    let sources = vec![sct_bench::layered_corpus(1000, 7, 0)];
    let pins = Pins {
        decisions: "ec6959c258df4d29",
        entries: "0ac3e0966c5bf2df",
        sites: "f2dcd9aabb03b38b",
    };
    assert_pinned("layered-1000", sources, pins);
}
