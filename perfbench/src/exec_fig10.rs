//! `exec-fig10`: one op runs the seven Figure-10 programs at their
//! second-largest sweep size, each once through the `sct hybrid` pipeline
//! (storeless plan, signature pinned where declared, `sct_ir::compile`
//! with the plan, production monitor config) and once under `sct
//! monitor` (imperative table, no plan). The VM and the monitor do
//! almost all the work.

use crate::pipeline::{self, Counts, DaemonTimes, OpResult, Workload};
use sct_core::monitor::{BackoffPolicy, TableStrategy};
use sct_corpus::workloads::{self, Lcg};
use sct_corpus::{Domain, OrderSpec};
use sct_interp::{Machine, MachineConfig, SemanticsMode, Value};
use sct_obs::trace::Span;
use sct_obs::Registry;
use sct_symbolic::{
    plan_program_incremental, NullStore, PlanCache, PlanConfig, PlanObs, SymDomain,
};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Second-largest sweep size of each program (`report_fig10`'s sizes).
const SIZES: [(&str, u64); 7] = [
    ("fact", 800),
    ("sum", 32_000),
    ("ack", 160),
    ("msort", 800),
    ("interp-fact", 240),
    ("interp-sum", 400),
    ("interp-msort", 256),
];

struct Program {
    workload: workloads::Workload,
    n: u64,
    args: Vec<Value>,
}

pub struct ExecFig10 {
    programs: Vec<Program>,
    warm: Counts,
}

fn sym_domain(d: Domain) -> SymDomain {
    match d {
        Domain::Nat => SymDomain::Nat,
        Domain::Pos => SymDomain::Pos,
        Domain::Int => SymDomain::Int,
        Domain::List => SymDomain::List,
        Domain::Any => SymDomain::Any,
    }
}

/// The sort inputs come from the seed; the other programs' inputs are
/// fixed by their size.
fn seeded_args(id: &str, n: u64, rng: &mut Lcg, default: Vec<Value>) -> Vec<Value> {
    match id {
        "msort" => {
            let items: Vec<Value> = (0..n)
                .map(|_| Value::int((rng.next_u64() % 100_000) as i64))
                .collect();
            vec![Value::list(items)]
        }
        "interp-msort" => {
            fn build(items: &[Value]) -> Value {
                match items.len() {
                    1 => items[0].clone(),
                    len => Value::cons(build(&items[..len / 2]), build(&items[len / 2..])),
                }
            }
            let items: Vec<Value> = (0..n)
                .map(|_| {
                    let mut v = rng.next_u64();
                    let s: String = (0..6)
                        .map(|_| {
                            let c = (b'a' + (v % 26) as u8) as char;
                            v /= 26;
                            c
                        })
                        .collect();
                    Value::str(s)
                })
                .collect();
            vec![build(&items)]
        }
        _ => default,
    }
}

pub fn setup(seed: u64) -> Result<ExecFig10, String> {
    let mut rng = Lcg::new(seed ^ 0xf1_6010);
    let mut programs = Vec::new();
    for w in workloads::fig10() {
        let &(_, n) = SIZES
            .iter()
            .find(|(id, _)| *id == w.id)
            .ok_or_else(|| format!("no size for fig10 workload {}", w.id))?;
        let args = seeded_args(w.id, n, &mut rng, (w.make_args)(n));
        programs.push(Program {
            workload: w,
            n,
            args,
        });
    }
    let mut bench = ExecFig10 {
        programs,
        warm: Counts::default(),
    };
    for i in 0..crate::WARMUP_OPS {
        let r = bench.op(i, true);
        if !r.ok {
            return Err("exec-fig10 warm-up op failed".into());
        }
        bench.warm.add(&r.counts);
    }
    Ok(bench)
}

/// Runs `entry` on a fresh machine and checks the answer.
fn execute(
    op: &Span,
    span: &'static str,
    p: &Program,
    program: &sct_lang::ast::Program,
    code: Rc<sct_ir::CompiledProgram>,
    config: MachineConfig,
    counts: &mut Counts,
) -> Result<(), String> {
    let hybrid = config.plan.is_some();
    let w = &p.workload;
    let (value, stats) = {
        let _s = op.child(span, &[]);
        let mut m = Machine::with_code(program, code, config);
        m.run().map_err(|e| format!("{}: body failed: {e}", w.id))?;
        let f = m
            .global(w.entry)
            .ok_or_else(|| format!("{}: no entry", w.id))?;
        let v = m
            .call(f, p.args.clone())
            .map_err(|e| format!("{}: {e}", w.id))?;
        (v, m.stats)
    };
    counts.add_run(&stats, hybrid);
    if (w.check)(p.n, &value) {
        Ok(())
    } else {
        Err(format!(
            "{}: wrong answer {}",
            w.id,
            value.to_write_string()
        ))
    }
}

impl ExecFig10 {
    fn run_program(
        &self,
        op: &Span,
        p: &Program,
        obs: bool,
        counts: &mut Counts,
    ) -> Result<(), String> {
        let w = &p.workload;
        let program = pipeline::front_end(op, &w.source)?;

        // `sct hybrid`: a storeless plan. Eager refutation presumes the
        // default order, as in the CLI.
        let reg = Arc::new(Registry::new());
        let mut config = PlanConfig {
            refute: w.order == OrderSpec::Default,
            obs: if obs {
                PlanObs::registered(Arc::clone(&reg))
            } else {
                PlanObs::disabled()
            },
            ..PlanConfig::default()
        };
        if let Some((domains, result)) = w.sig {
            config.signatures.insert(
                w.entry.to_string(),
                (
                    domains.iter().copied().map(sym_domain).collect(),
                    sym_domain(result),
                ),
            );
        }
        let (plan, stats) = {
            let _s = op.child("symbolic.plan", &[]);
            plan_program_incremental(&program, &config, &mut PlanCache::new(), &mut NullStore)
        };
        counts.add_plan(&plan, &stats, &reg);
        if let Some(err) = sct_contracts::refutation_error(&plan) {
            return Err(format!("{}: {err} (statically refuted)", w.id));
        }
        let code = pipeline::compile(op, &program, Some(&plan));
        let mut hybrid = MachineConfig {
            mode: SemanticsMode::Monitored,
            order: w.order.handle(),
            plan: Some(Rc::new(plan)),
            ..MachineConfig::monitored(TableStrategy::Imperative)
        };
        hybrid.monitor = hybrid
            .monitor
            .with_loop_entries_only(true)
            .with_backoff(BackoffPolicy::Exponential { factor: 2 });
        execute(
            op,
            "interp.execute_hybrid",
            p,
            &program,
            code,
            hybrid,
            counts,
        )?;

        // `sct monitor`: every call checked, no plan.
        let code = pipeline::compile(op, &program, None);
        let monitored = MachineConfig {
            mode: SemanticsMode::Monitored,
            order: w.order.handle(),
            ..MachineConfig::monitored(TableStrategy::Imperative)
        };
        execute(
            op,
            "interp.execute_monitor",
            p,
            &program,
            code,
            monitored,
            counts,
        )
    }
}

impl Workload for ExecFig10 {
    fn op(&mut self, _i: usize, obs: bool) -> OpResult {
        let mut counts = Counts::default();
        let start = Instant::now();
        let op = Span::root("bench.op", &[("workload", "exec-fig10")]);
        let mut ok = true;
        for p in &self.programs {
            if let Err(e) = self.run_program(&op, p, obs, &mut counts) {
                eprintln!("exec-fig10: {e}");
                ok = false;
            }
        }
        drop(op);
        OpResult {
            ok,
            latency: start.elapsed(),
            counts,
            daemon: DaemonTimes::default(),
        }
    }

    fn warmup_counts(&self) -> Counts {
        self.warm
    }

    fn close(self: Box<Self>) -> Option<(u64, u64)> {
        None
    }
}
