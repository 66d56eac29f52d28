//! `plan-cold`: the `sct hybrid --cache-dir` pipeline on a 400-define
//! layered corpus, into a fresh empty cache every op. Each op takes the
//! next program of a seeded cycle of 48, each its own corpus with its
//! defines in a seeded order (the body stays last).
//! The cache encodes every entry as `DiskCache` does but keeps it in
//! memory (see `pipeline::TimedStore`). The front end, digests,
//! exploration, the LJB closure check and cache writes do the work; the VM
//! does almost none.

use crate::corpus::{self, Corpus, ARG};
use crate::pipeline::{self, Counts, DaemonTimes, OpResult, TimedStore, Workload};
use sct_core::monitor::TableStrategy;
use sct_corpus::workloads::Lcg;
use sct_interp::{reference, Machine, MachineConfig, SemanticsMode};
use sct_obs::trace::Span;
use sct_obs::Registry;
use sct_symbolic::{plan_program_incremental, PlanCache, PlanConfig, PlanObs};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Defines per corpus. A 1000-define op took 0.75 s on the 2-core host
/// the benchmark was tuned on; 400 defines take about 0.3 s, so a 35 s
/// run has over 100 ops and at least ten beyond its 90th percentile.
const DEFINES: usize = 400;
/// Length of the cycle of programs, each with its own seeded corpus and
/// define order. One program's hybrid skip share ranged from 0.02 to 0.11
/// with corpus and order, so `static_skip_share` averages over 48; a run
/// has about twice as many ops.
const CYCLE: usize = 48;

/// One program of the cycle.
struct Program {
    /// The corpus's defines in a seeded order, then the body.
    source: String,
    /// The body's value, from the reference tree-walker.
    expected: String,
}

pub struct PlanCold {
    programs: Vec<Program>,
    warm: Counts,
    /// Hybrid `(static_skips, monitored_calls)` of each program of the
    /// cycle, once it has run: the share counts every program once,
    /// however often the run repeated it.
    skips: [Option<(u64, u64)>; CYCLE],
}

/// The body: every top-layer define applied to `ARG`, summed.
fn body(corpus: &Corpus) -> String {
    let calls: Vec<String> = corpus.top().map(|k| format!("(f{k} {ARG})")).collect();
    format!("(+ {})\n", calls.join(" "))
}

/// A corpus generated from `corpus_seed`, its defines in a permutation
/// drawn from `rng`, and its answer.
fn program(corpus_seed: u64, rng: &mut Lcg) -> Result<Program, String> {
    let corpus = Corpus::generate(DEFINES, corpus_seed);
    let defines = corpus.defines();
    let body = body(&corpus);

    // The reference answer: the tree-walker on the source-ordered
    // program. Summing makes it independent of define order.
    let source_order = defines.concat() + &body;
    let compiled = sct_lang::compile_program(&source_order).map_err(|e| e.to_string())?;
    let expected = reference::Machine::new(&compiled, MachineConfig::standard())
        .run()
        .map_err(|e| format!("reference walker: {e}"))?
        .to_write_string();

    let order = corpus::permutation(defines.len(), rng);
    let mut source: String = order.iter().map(|&i| defines[i].as_str()).collect();
    source.push_str(&body);
    Ok(Program { source, expected })
}

pub fn setup(seed: u64) -> Result<PlanCold, String> {
    let mut rng = Lcg::new(seed ^ 0x5eed_0de5);
    let programs = (0..CYCLE)
        .map(|_| {
            let corpus_seed = rng.next_u64();
            program(corpus_seed, &mut rng)
        })
        .collect::<Result<_, _>>()?;
    let mut bench = PlanCold {
        programs,
        warm: Counts::default(),
        skips: [None; CYCLE],
    };
    for i in 0..crate::WARMUP_OPS {
        let r = bench.op(i, true);
        if !r.ok {
            return Err("plan-cold warm-up op failed".into());
        }
        bench.warm.add(&r.counts);
    }
    Ok(bench)
}

impl PlanCold {
    /// The op's pipeline; returns the body's value.
    fn pipeline(
        &self,
        op: &Span,
        src: &str,
        obs: bool,
        counts: &mut Counts,
    ) -> Result<String, String> {
        let program = pipeline::front_end(op, src)?;
        let reg = Arc::new(Registry::new());
        let config = PlanConfig {
            obs: if obs {
                PlanObs::registered(Arc::clone(&reg))
            } else {
                PlanObs::disabled()
            },
            ..PlanConfig::default()
        };
        let (plan, stats) = {
            let span = op.child("symbolic.plan", &[]);
            let mut store = TimedStore::new(&span);
            let planned =
                plan_program_incremental(&program, &config, &mut PlanCache::new(), &mut store);
            counts.cache_loads += store.loads;
            counts.cache_hits += store.hits;
            counts.cache_stores += store.stores;
            planned
        };
        counts.add_plan(&plan, &stats, &reg);
        if let Some(err) = sct_contracts::refutation_error(&plan) {
            return Err(format!("{err} (statically refuted)"));
        }
        let code = pipeline::compile(op, &program, Some(&plan));
        // `sct hybrid`'s default machine: imperative table, every call of
        // the residual checked.
        let config = MachineConfig {
            mode: SemanticsMode::Monitored,
            plan: Some(Rc::new(plan)),
            ..MachineConfig::monitored(TableStrategy::Imperative)
        };
        let _s = op.child("interp.execute_hybrid", &[]);
        let mut m = Machine::with_code(&program, code, config);
        let value = m.run().map_err(|e| format!("body failed: {e}"))?;
        counts.add_run(&m.stats, true);
        Ok(value.to_write_string())
    }
}

impl Workload for PlanCold {
    fn op(&mut self, i: usize, obs: bool) -> OpResult {
        let program = &self.programs[i % CYCLE];
        let mut counts = Counts::default();
        let start = Instant::now();
        let op = Span::root("bench.op", &[("workload", "plan-cold")]);
        let result = self.pipeline(&op, &program.source, obs, &mut counts);
        drop(op);
        let latency = start.elapsed();
        let ok = match result {
            Ok(v) if v == program.expected => true,
            Ok(v) => {
                eprintln!("plan-cold op {i}: got {v}, expected {}", program.expected);
                false
            }
            Err(e) => {
                eprintln!("plan-cold op {i}: {e}");
                false
            }
        };
        self.skips[i % CYCLE] = Some((counts.hybrid_skips, counts.hybrid_monitored));
        OpResult {
            ok,
            latency,
            counts,
            daemon: DaemonTimes::default(),
        }
    }

    fn warmup_counts(&self) -> Counts {
        self.warm
    }

    fn close(self: Box<Self>) -> Option<(u64, u64)> {
        Some(
            self.skips
                .iter()
                .flatten()
                .fold((0, 0), |(s, m), (ds, dm)| (s + ds, m + dm)),
        )
    }
}
