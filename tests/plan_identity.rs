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
use sct_obs::Registry;
use sct_symbolic::pipeline::{
    plan_program_incremental, DecisionStore, PlanCache, PlanConfig, PlanObs,
};
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

/// The digests of a group of sources: (cold decisions, store entries,
/// warm-replay decisions).
fn digests(sources: &[String]) -> (String, String, String) {
    let cfg = PlanConfig::default();
    let (mut cold, mut warm) = (Fnv::new(), Fnv::new());
    let mut store = Recorder {
        digest: Fnv::new(),
        entries: HashMap::new(),
        summaries: 0,
    };
    for src in sources {
        let p = sct_lang::compile_program(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        store.entries.clear();
        store.summaries = 0;
        let (plan, _) = plan_program_incremental(&p, &cfg, &mut PlanCache::new(), &mut store);
        digest_decisions(&mut cold, &plan);

        let reg = Arc::new(Registry::new());
        let replay_cfg = PlanConfig {
            obs: PlanObs::registered(Arc::clone(&reg)),
            ..PlanConfig::default()
        };
        let mut replay = Replay(&store.entries);
        let (plan, stats) =
            plan_program_incremental(&p, &replay_cfg, &mut PlanCache::new(), &mut replay);
        assert_eq!(stats.hits(), plan.decisions.len(), "every define hits");
        let hits = reg.snapshot().counter("plan.summary.hits");
        assert_eq!(hits, Some(store.summaries), "every stored summary rebinds");
        digest_decisions(&mut warm, &plan);
    }
    let hex = |h: Fnv| format!("{:016x}", h.0);
    (hex(cold), hex(store.digest), hex(warm))
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

fn assert_pinned(tag: &str, sources: Vec<String>, decisions: &str, entries: &str) {
    let (cold, stored, warm) = digests(&both_orders(sources));
    assert_eq!(
        (cold.as_str(), stored.as_str()),
        (decisions, entries),
        "{tag}: (decision digest, store entry digest) moved"
    );
    assert_eq!(warm, decisions, "{tag}: a warm replay's decisions moved");
}

#[test]
fn table1_plans_are_pinned() {
    let sources = table1::all().iter().map(|p| p.source.to_string()).collect();
    assert_pinned("table1", sources, "7d1658b395eb9e88", "4fbce1bbb1181d51");
}

#[test]
fn fig10_plans_are_pinned() {
    let sources = workloads::fig10().into_iter().map(|w| w.source).collect();
    assert_pinned("fig10", sources, "0917a86e05734ee3", "586265d40c3871ed");
}

#[test]
fn layered_corpus_plans_are_pinned() {
    let sources = vec![sct_bench::layered_corpus(1000, 7, 0)];
    assert_pinned(
        "layered-1000",
        sources,
        "ec6959c258df4d29",
        "0ac3e0966c5bf2df",
    );
}
