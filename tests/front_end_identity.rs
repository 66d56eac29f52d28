//! The front end's output is pinned byte for byte: `compile_program` on
//! the Table 1 corpus, the Figure-10 programs and a 400-define layered
//! corpus, each in source order and with its defines reversed, must keep
//! producing the same `Program` and the same content keys.
//!
//! Two digests per corpus:
//!
//! * the `Debug` rendering of the whole `Program`, which fixes the global
//!   order, every λ id, the `Expr` shape and every name;
//! * every define's `ProgramDigests::key_at`, in program order, which
//!   fixes what the plan cache is addressed by.
//!
//! A change to how the front end builds its output (interning, moving
//! instead of cloning) must leave both unchanged. A change that moves
//! them changes what programs mean or re-keys every persisted plan, and
//! must re-pin here on purpose.

use sct_corpus::{table1, workloads};
use sct_fuzz::permute_defines;
use sct_lang::ast::TopForm;
use sct_symbolic::digest::ProgramDigests;
use sct_symbolic::exec::GlobalSnapshot;
use sct_symbolic::pipeline::{PlanConfig, ProgramIndex};

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

/// The two digests of a group of sources: (program shape, content keys).
fn digests(sources: &[String]) -> (String, String) {
    let cfg = PlanConfig::default();
    let mut shape = Fnv::new();
    let mut keys = Fnv::new();
    for src in sources {
        let p = sct_lang::compile_program(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        shape.write(format!("{p:?}").as_bytes());
        let index = ProgramIndex::build(&p);
        let snapshot = GlobalSnapshot::build(&p, &cfg.verify.exec);
        let d = ProgramDigests::new(&p, &index, &snapshot, &cfg);
        let mut seen = vec![0u32; p.global_names.len()];
        for form in &p.top_level {
            if let TopForm::Define { index, .. } = form {
                let occurrence = seen[*index as usize];
                seen[*index as usize] += 1;
                keys.write(d.key_at(&p, *index, occurrence).as_bytes());
            }
        }
    }
    (format!("{:016x}", shape.0), format!("{:016x}", keys.0))
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

fn assert_pinned(tag: &str, sources: Vec<String>, shape: &str, keys: &str) {
    let got = digests(&both_orders(sources));
    assert_eq!(
        got,
        (shape.to_string(), keys.to_string()),
        "{tag}: (program digest, key digest) moved"
    );
}

#[test]
fn table1_front_end_output_is_pinned() {
    let sources = table1::all().iter().map(|p| p.source.to_string()).collect();
    assert_pinned("table1", sources, "0b6a21b9b0af4149", "74b04c09a4b37eb7");
}

#[test]
fn fig10_front_end_output_is_pinned() {
    let sources = workloads::fig10().into_iter().map(|w| w.source).collect();
    assert_pinned("fig10", sources, "9f3a814e29afa4fb", "7197b8711693f5cd");
}

#[test]
fn layered_corpus_front_end_output_is_pinned() {
    let sources = vec![sct_bench::layered_corpus(400, 7, 0)];
    assert_pinned(
        "layered-400",
        sources,
        "2b315c579e74d0e1",
        "657069d3153fbeab",
    );
}
