//! The layered call-DAG corpus of `report_plan` (crates/bench): every
//! `define` is a single-parameter list recursion, and each define above
//! layer 0 also applies `FANOUT` distinct defines of the layer below to
//! `(cdr l)`. Same generator, same draws: for a given seed the base-0
//! text is byte-identical to `report_plan`'s.

use sct_corpus::workloads::Lcg;

/// Depth of the call DAG.
pub const LAYERS: usize = 6;
/// Callees per define above layer 0.
pub const FANOUT: usize = 3;
/// The argument every body applies the top-layer defines to.
pub const ARG: &str = "'(1 2 3)";

/// A generated corpus: the call structure, rendered on demand so one
/// define's base constant can be edited.
pub struct Corpus {
    callees: Vec<Vec<usize>>,
    top_start: usize,
}

impl Corpus {
    /// Generates `n` defines from `seed`.
    pub fn generate(n: usize, seed: u64) -> Corpus {
        let mut rng = Lcg::new(seed);
        let per = (n / LAYERS).max(FANOUT);
        let mut prev: Vec<usize> = Vec::new();
        let mut callees: Vec<Vec<usize>> = Vec::new();
        let mut top_start = 0;
        for layer in 0..LAYERS {
            let count = if layer == LAYERS - 1 {
                n.saturating_sub(callees.len()).max(per)
            } else {
                per
            };
            top_start = callees.len();
            let mut ids = Vec::with_capacity(count);
            for _ in 0..count {
                let mut mine: Vec<usize> = Vec::with_capacity(FANOUT);
                while layer > 0 && mine.len() < FANOUT {
                    let c = prev[(rng.next_u64() % prev.len() as u64) as usize];
                    if !mine.contains(&c) {
                        mine.push(c);
                    }
                }
                ids.push(callees.len());
                callees.push(mine);
            }
            prev = ids;
            if callees.len() >= n {
                break;
            }
        }
        Corpus { callees, top_start }
    }

    /// Number of defines.
    pub fn len(&self) -> usize {
        self.callees.len()
    }

    /// The top-layer defines: nothing calls them, so editing one changes
    /// exactly one content key.
    pub fn top(&self) -> std::ops::Range<usize> {
        self.top_start..self.callees.len()
    }

    /// The source line of define `idx` with base-case constant `base`.
    pub fn define(&self, idx: usize, base: i64) -> String {
        let calls = &self.callees[idx];
        if calls.is_empty() {
            format!("(define (f{idx} l) (if (null? l) {base} (+ 1 (f{idx} (cdr l)))))\n")
        } else {
            let calls: Vec<String> = calls.iter().map(|c| format!("(f{c} (cdr l))")).collect();
            format!(
                "(define (f{idx} l) (if (null? l) {base} (+ {} (f{idx} (cdr l)))))\n",
                calls.join(" ")
            )
        }
    }

    /// Every define at base 0, in source (callees-first) order.
    pub fn defines(&self) -> Vec<String> {
        (0..self.len()).map(|i| self.define(i, 0)).collect()
    }
}

/// A seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(n: usize, rng: &mut Lcg) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}
