//! The retained *reference* tree-walking CEK machine for λSCT.
//!
//! This is the direct operational reading of the paper's rules — the
//! machine that executed every program before the flat-IR dispatch VM
//! ([`crate::machine::Machine`]) replaced it on the hot path. It is kept,
//! unoptimized and structurally close to Figures 3/6/7/13, as the
//! *differential oracle*: the root crate's oracle suite runs every corpus
//! and generated program through both machines and asserts identical
//! values, blame labels, and monitor-visible counters. When the VM and
//! this walker disagree, this walker is the specification.
//!
//! One machine implements all the semantics of the paper:
//!
//! * **Standard ⇓** ([`SemanticsMode::Standard`]): no monitoring, except
//!   inside the dynamic extent of a `terminating/c`-wrapped call, which is
//!   exactly λCSCT (Figure 7 / Figure 13).
//! * **Monitored ⬇** ([`SemanticsMode::Monitored`]): every closure
//!   application is guarded by `upd` (rule [SC-App-Clo] of Figure 3) — all
//!   programs terminate, by Theorem 3.1.
//! * **Call-sequence ↓↓** ([`SemanticsMode::CallSeqCollect`]): tables are
//!   extended with `ext` but never enforced (Figure 6); violations that
//!   *would* have fired are recorded in [`Machine::violations`].
//!
//! Because the continuation is an explicit heap vector, deep recursion
//! cannot overflow the Rust stack, and a tail call leaves the continuation
//! untouched — the same discipline the VM preserves.

use crate::env::{assign, lookup, Env, Frame};
use crate::error::{ContractErrorInfo, EvalError, RtError, ScErrorInfo};
use crate::machine::{
    arity_error, datum_to_value, in_domain, party_name, trace_graph, wrap_terminating, FastGuard,
    MachineConfig, SemanticsMode, Stats, TraceEvent,
};
use crate::prims::{call_prim, PrimEffect};
use crate::value::{
    mix2, value_hash, Closure, ClosureEnv, ContractData, Value, WrapKind, WrappedData,
};
use sct_core::intern::FxBuildHasher;
use sct_core::monitor::{Backoff, KeyStrategy, TableStrategy};
use sct_core::table::{MonitorStack, ScTable};
use sct_lang::ast::{Expr, Program, TopForm, VarRef};
use sct_lang::{LambdaDef, Prim};
use sct_sexpr::Datum;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;

enum Ctrl {
    Eval(Expr, Env),
    Val(Value),
}

struct MarkEntry {
    depth: usize,
    table: ScTable<u64, Value>,
}

enum Kont {
    If {
        then_branch: Expr,
        else_branch: Expr,
        env: Env,
    },
    Seq {
        exprs: Rc<[Expr]>,
        index: usize,
        env: Env,
    },
    AppFunc {
        exprs: Rc<[Expr]>,
        env: Env,
    },
    AppArgs {
        func: Value,
        exprs: Rc<[Expr]>,
        index: usize,
        done: Vec<Value>,
        env: Env,
    },
    SetLocal {
        var: VarRef,
        env: Env,
    },
    SetGlobal {
        index: u32,
    },
    LetInit {
        inits: Rc<[Expr]>,
        index: usize,
        done: Vec<Value>,
        body: Rc<Expr>,
        env: Env,
    },
    LetRecInit {
        inits: Rc<[Expr]>,
        index: usize,
        body: Rc<Expr>,
        env: Env,
    },
    TermCWrap {
        label: Rc<str>,
    },
    Restore,
    ContractExtent {
        saved: Option<MonitorStack<u64, Value>>,
        started: bool,
    },
    FlatCheck {
        original: Value,
        rest: VecDeque<Value>,
        pos: Rc<str>,
        neg: Rc<str>,
    },
    ArrowCall {
        inner: Value,
        doms: Vec<Value>,
        args: Vec<Value>,
        receiving: usize,
        checked: Vec<Value>,
        pos: Rc<str>,
        neg: Rc<str>,
    },
    ArrowRng {
        rng: Value,
        pos: Rc<str>,
        neg: Rc<str>,
    },
}

/// The reference tree-walking machine (the differential-oracle baseline).
///
/// # Examples
///
/// ```
/// use sct_interp::reference::Machine;
/// use sct_interp::{MachineConfig, Value};
/// use sct_lang::compile_program;
///
/// let prog = compile_program("(define (fact n) (if (zero? n) 1 (* n (fact (- n 1))))) (fact 10)")
///     .unwrap();
/// let mut m = Machine::new(&prog, MachineConfig::standard());
/// assert_eq!(m.run().unwrap(), Value::int(3628800));
/// ```
pub struct Machine<'p> {
    program: &'p Program,
    /// The active configuration.
    pub config: MachineConfig,
    globals: Vec<Value>,
    /// Accumulated `display`/`write`/`newline` output.
    pub output: String,
    /// Counters.
    pub stats: Stats,
    /// Violations recorded by the call-sequence semantics.
    pub violations: Vec<ScErrorInfo>,
    /// Trace of checked calls when tracing is on.
    pub trace_events: Vec<TraceEvent>,
    whitelist: HashSet<String>,
    // λ id → fast-path rule, compiled once from `config.plan`.
    fast_path: HashMap<u32, FastGuard, FxBuildHasher>,
    quote_cache: HashMap<*const Datum, Value>,
    alloc_counter: u64,
    backoff: Backoff<u64>,
    // Loop-entry detection state (§5).
    designated: HashSet<u64>,
    last_seen_tick: HashMap<u64, u64>,
    guard_tick: u64,
    // Imperative-strategy table (also used by CallSeqCollect).
    imp_table: MonitorStack<u64, Value>,
    // Continuation-mark-strategy table stack.
    marks: Vec<MarkEntry>,
    // Innermost-first blame labels for active terminating/c extents.
    blames: Vec<Rc<str>>,
    extent_depth: usize,
}

impl<'p> Machine<'p> {
    /// Creates a machine for a compiled program.
    pub fn new(program: &'p Program, config: MachineConfig) -> Machine<'p> {
        let whitelist = config.monitor.whitelist.iter().cloned().collect();
        let backoff = Backoff::new(config.monitor.backoff);
        let mut fast_path: HashMap<u32, FastGuard, FxBuildHasher> = HashMap::default();
        if let Some(plan) = &config.plan {
            for (id, guard) in plan.static_lambdas() {
                let rule = match guard {
                    None => FastGuard::Always,
                    Some(doms) => FastGuard::Domains(Rc::from(doms)),
                };
                fast_path.insert(id, rule);
            }
        }
        Machine {
            program,
            config,
            globals: vec![Value::Undefined; program.global_names.len()],
            output: String::new(),
            stats: Stats::default(),
            violations: Vec::new(),
            trace_events: Vec::new(),
            whitelist,
            fast_path,
            quote_cache: HashMap::new(),
            alloc_counter: 0,
            backoff,
            designated: HashSet::new(),
            last_seen_tick: HashMap::new(),
            guard_tick: 0,
            imp_table: MonitorStack::new(),
            marks: Vec::new(),
            blames: Vec::new(),
            extent_depth: 0,
        }
    }

    /// Runs all top-level forms; the result is the last expression's value
    /// (or void when the program ends with a definition).
    ///
    /// # Errors
    ///
    /// [`EvalError`] as the program's non-value answers: `errorRT`,
    /// `errorSC`, contract violations, or fuel exhaustion.
    pub fn run(&mut self) -> Result<Value, EvalError> {
        let mut last = Value::Void;
        for (i, form) in self.program.top_level.iter().enumerate() {
            let _ = i;
            match form {
                TopForm::Define { index, expr } => {
                    let v = self.run_ctrl(Ctrl::Eval(expr.clone(), None))?;
                    self.globals[*index as usize] = v;
                    last = Value::Void;
                }
                TopForm::Expr(expr) => {
                    last = self.run_ctrl(Ctrl::Eval(expr.clone(), None))?;
                }
            }
        }
        Ok(last)
    }

    /// Looks up a global's current value by name (after [`Machine::run`]).
    pub fn global(&self, name: &str) -> Option<Value> {
        let i = self.program.global_index(name)?;
        Some(self.globals[i as usize].clone())
    }

    /// Applies a procedure value to arguments under the machine's
    /// configuration — how the benchmark harness drives compiled programs.
    ///
    /// # Errors
    ///
    /// [`EvalError`] exactly as [`Machine::run`].
    pub fn call(&mut self, f: Value, args: Vec<Value>) -> Result<Value, EvalError> {
        let mut kont = Vec::new();
        let ctrl = self.apply_value(f, args, &mut kont)?;
        self.run_loop(ctrl, kont)
    }

    fn run_ctrl(&mut self, ctrl: Ctrl) -> Result<Value, EvalError> {
        self.run_loop(ctrl, Vec::new())
    }

    fn run_loop(&mut self, mut ctrl: Ctrl, mut kont: Vec<Kont>) -> Result<Value, EvalError> {
        loop {
            self.stats.steps += 1;
            if let Some(fuel) = self.config.fuel {
                if self.stats.steps > fuel {
                    return Err(EvalError::OutOfFuel);
                }
            }
            if kont.len() > self.stats.max_kont_depth {
                self.stats.max_kont_depth = kont.len();
            }
            ctrl = match ctrl {
                Ctrl::Eval(e, env) => self.step_eval(e, env, &mut kont)?,
                Ctrl::Val(v) => match kont.pop() {
                    None => {
                        // A tail call at depth 0 legitimately leaves a mark;
                        // the session is over, so drop it.
                        self.marks.clear();
                        debug_assert!(self.blames.is_empty());
                        return Ok(v);
                    }
                    Some(frame) => {
                        // Marks deeper than the continuation are stale: the
                        // calls that installed them have returned.
                        while self.marks.last().is_some_and(|m| m.depth > kont.len()) {
                            self.marks.pop();
                        }
                        self.step_kont(v, frame, &mut kont)?
                    }
                },
            };
        }
    }

    fn step_eval(&mut self, e: Expr, env: Env, kont: &mut Vec<Kont>) -> Result<Ctrl, EvalError> {
        Ok(match e {
            Expr::Quote(d) => Ctrl::Val(self.datum_value(&d)),
            Expr::Var(v) => {
                let value = lookup(&env, v.depth, v.slot);
                if matches!(value, Value::Undefined) {
                    return Err(RtError::new("variable used before initialization").into());
                }
                Ctrl::Val(value)
            }
            Expr::Global(i) => {
                let value = self.globals[i as usize].clone();
                if matches!(value, Value::Undefined) {
                    return Err(RtError::new(format!(
                        "global {} used before definition",
                        self.program.global_names[i as usize]
                    ))
                    .into());
                }
                Ctrl::Val(value)
            }
            Expr::PrimRef(p) => Ctrl::Val(Value::Prim(p)),
            Expr::Lambda(def) => Ctrl::Val(self.make_closure(def, &env)),
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                kont.push(Kont::If {
                    then_branch: (*then_branch).clone(),
                    else_branch: (*else_branch).clone(),
                    env: env.clone(),
                });
                Ctrl::Eval((*cond).clone(), env)
            }
            Expr::App { func, args } => {
                kont.push(Kont::AppFunc {
                    exprs: args,
                    env: env.clone(),
                });
                Ctrl::Eval((*func).clone(), env)
            }
            Expr::Seq(exprs) => {
                let first = exprs[0].clone();
                if exprs.len() > 1 {
                    kont.push(Kont::Seq {
                        exprs,
                        index: 1,
                        env: env.clone(),
                    });
                }
                Ctrl::Eval(first, env)
            }
            Expr::SetLocal { var, value } => {
                kont.push(Kont::SetLocal {
                    var,
                    env: env.clone(),
                });
                Ctrl::Eval((*value).clone(), env)
            }
            Expr::SetGlobal { index, value } => {
                kont.push(Kont::SetGlobal { index });
                Ctrl::Eval((*value).clone(), env)
            }
            Expr::Let { inits, body } => {
                if inits.is_empty() {
                    self.stats.env_frames_allocated += 1;
                    let new_env = Frame::extend(&env, Vec::new());
                    Ctrl::Eval((*body).clone(), new_env)
                } else {
                    let first = inits[0].clone();
                    kont.push(Kont::LetInit {
                        inits,
                        index: 0,
                        done: Vec::new(),
                        body,
                        env: env.clone(),
                    });
                    Ctrl::Eval(first, env)
                }
            }
            Expr::LetRec { inits, body } => {
                self.stats.env_frames_allocated += 1;
                let new_env = Frame::extend_undefined(&env, inits.len());
                if inits.is_empty() {
                    Ctrl::Eval((*body).clone(), new_env)
                } else {
                    let first = inits[0].clone();
                    kont.push(Kont::LetRecInit {
                        inits,
                        index: 0,
                        body,
                        env: new_env.clone(),
                    });
                    Ctrl::Eval(first, new_env)
                }
            }
            Expr::TermC { body, label } => {
                kont.push(Kont::TermCWrap { label });
                Ctrl::Eval((*body).clone(), env)
            }
        })
    }

    fn step_kont(
        &mut self,
        v: Value,
        frame: Kont,
        kont: &mut Vec<Kont>,
    ) -> Result<Ctrl, EvalError> {
        Ok(match frame {
            Kont::If {
                then_branch,
                else_branch,
                env,
            } => {
                if v.is_truthy() {
                    Ctrl::Eval(then_branch, env)
                } else {
                    Ctrl::Eval(else_branch, env)
                }
            }
            Kont::Seq { exprs, index, env } => {
                let next = exprs[index].clone();
                if index + 1 < exprs.len() {
                    kont.push(Kont::Seq {
                        exprs,
                        index: index + 1,
                        env: env.clone(),
                    });
                }
                Ctrl::Eval(next, env)
            }
            Kont::AppFunc { exprs, env } => {
                if exprs.is_empty() {
                    self.apply_value(v, Vec::new(), kont)?
                } else {
                    let first = exprs[0].clone();
                    kont.push(Kont::AppArgs {
                        func: v,
                        exprs,
                        index: 0,
                        done: Vec::new(),
                        env: env.clone(),
                    });
                    Ctrl::Eval(first, env)
                }
            }
            Kont::AppArgs {
                func,
                exprs,
                index,
                mut done,
                env,
            } => {
                done.push(v);
                if index + 1 < exprs.len() {
                    let next = exprs[index + 1].clone();
                    kont.push(Kont::AppArgs {
                        func,
                        exprs,
                        index: index + 1,
                        done,
                        env: env.clone(),
                    });
                    Ctrl::Eval(next, env)
                } else {
                    self.apply_value(func, done, kont)?
                }
            }
            Kont::SetLocal { var, env } => {
                assign(&env, var.depth, var.slot, v);
                Ctrl::Val(Value::Void)
            }
            Kont::SetGlobal { index } => {
                self.globals[index as usize] = v;
                Ctrl::Val(Value::Void)
            }
            Kont::LetInit {
                inits,
                index,
                mut done,
                body,
                env,
            } => {
                done.push(v);
                if index + 1 < inits.len() {
                    let next = inits[index + 1].clone();
                    kont.push(Kont::LetInit {
                        inits,
                        index: index + 1,
                        done,
                        body,
                        env: env.clone(),
                    });
                    Ctrl::Eval(next, env)
                } else {
                    self.stats.env_frames_allocated += 1;
                    let new_env = Frame::extend(&env, done);
                    Ctrl::Eval((*body).clone(), new_env)
                }
            }
            Kont::LetRecInit {
                inits,
                index,
                body,
                env,
            } => {
                // Name the slot: letrec frame is the innermost (depth 0).
                assign(&env, 0, index as u16, v);
                if index + 1 < inits.len() {
                    let next = inits[index + 1].clone();
                    kont.push(Kont::LetRecInit {
                        inits,
                        index: index + 1,
                        body,
                        env: env.clone(),
                    });
                    Ctrl::Eval(next, env)
                } else {
                    Ctrl::Eval((*body).clone(), env)
                }
            }
            Kont::TermCWrap { label } => Ctrl::Val(wrap_terminating(v, label)),
            Kont::Restore => {
                self.imp_table.pop();
                Ctrl::Val(v)
            }
            Kont::ContractExtent { saved, started } => {
                if let Some(table) = saved {
                    self.imp_table = table;
                }
                if started {
                    self.extent_depth -= 1;
                }
                self.blames.pop();
                Ctrl::Val(v)
            }
            Kont::FlatCheck {
                original,
                rest,
                pos,
                neg,
            } => {
                if v.is_truthy() {
                    self.attach_all(rest, original, pos, neg, kont)?
                } else {
                    return Err(EvalError::Contract(ContractErrorInfo {
                        blame: pos,
                        message: format!("predicate rejected {}", original.to_write_string()),
                    }));
                }
            }
            Kont::ArrowCall {
                inner,
                doms,
                args,
                receiving,
                mut checked,
                pos,
                neg,
            } => {
                checked.push(v);
                let next = receiving + 1;
                if next < args.len() {
                    let dom = doms[next].clone();
                    let arg = args[next].clone();
                    kont.push(Kont::ArrowCall {
                        inner,
                        doms,
                        args,
                        receiving: next,
                        checked,
                        pos: pos.clone(),
                        neg: neg.clone(),
                    });
                    // Domain obligations blame the caller: swap parties.
                    self.attach_all(VecDeque::from(vec![dom]), arg, neg, pos, kont)?
                } else {
                    self.apply_value(inner, checked, kont)?
                }
            }
            Kont::ArrowRng { rng, pos, neg } => {
                self.attach_all(VecDeque::from(vec![rng]), v, pos, neg, kont)?
            }
        })
    }

    // ----- values and environments -------------------------------------

    fn datum_value(&mut self, d: &Rc<Datum>) -> Value {
        let key = Rc::as_ptr(d);
        if let Some(v) = self.quote_cache.get(&key) {
            return v.clone();
        }
        let v = datum_to_value(d);
        self.quote_cache.insert(key, v.clone());
        v
    }

    fn make_closure(&mut self, def: Rc<LambdaDef>, env: &Env) -> Value {
        self.alloc_counter += 1;
        let mut fp = mix2(0x51_7e, def.id as u64);
        for fv in &def.free {
            fp = mix2(fp, value_hash(&lookup(env, fv.depth, fv.slot)));
        }
        Value::Closure(Rc::new(Closure {
            def,
            env: ClosureEnv::Chain(env.clone()),
            alloc_id: self.alloc_counter,
            fingerprint: fp,
        }))
    }

    // ----- application ---------------------------------------------------

    fn apply_value(
        &mut self,
        f: Value,
        args: Vec<Value>,
        kont: &mut Vec<Kont>,
    ) -> Result<Ctrl, EvalError> {
        match f {
            Value::Prim(p) => self.apply_prim(p, args, kont),
            Value::Closure(clo) => self.apply_closure(clo, args, kont),
            Value::Wrapped(w) => match &w.kind {
                WrapKind::Terminating { label } => {
                    let label = label.clone();
                    let inner = w.inner.clone();
                    self.apply_terminating(inner, label, args, kont)
                }
                WrapKind::Arrow {
                    doms,
                    rng,
                    positive,
                    negative,
                } => {
                    let (doms, rng) = (doms.clone(), rng.clone());
                    let (pos, neg) = (positive.clone(), negative.clone());
                    let inner = w.inner.clone();
                    self.apply_arrow(inner, doms, rng, pos, neg, args, kont)
                }
            },
            other => Err(RtError::new(format!(
                "application of non-procedure {}",
                other.to_write_string()
            ))
            .into()),
        }
    }

    fn apply_prim(
        &mut self,
        p: Prim,
        mut args: Vec<Value>,
        kont: &mut Vec<Kont>,
    ) -> Result<Ctrl, EvalError> {
        match p {
            Prim::Apply => {
                if args.len() < 2 {
                    return Err(RtError::new("apply: expects a procedure and a list").into());
                }
                let f = args.remove(0);
                let tail = args.pop().unwrap();
                let Some(spread) = tail.list_to_vec() else {
                    return Err(RtError::new("apply: last argument must be a list").into());
                };
                args.extend(spread);
                self.apply_value(f, args, kont)
            }
            Prim::Contract => {
                // (contract c v pos [neg])
                if !(args.len() == 3 || args.len() == 4) {
                    return Err(RtError::new("contract: expects contract, value, parties").into());
                }
                let neg = if args.len() == 4 {
                    party_name(&args.pop().unwrap())?
                } else {
                    Rc::from("the context")
                };
                let pos = party_name(&args.pop().unwrap())?;
                let value = args.pop().unwrap();
                let c = args.pop().unwrap();
                self.attach_all(VecDeque::from(vec![c]), value, pos, neg, kont)
            }
            Prim::TerminatingC => {
                if args.is_empty() || args.len() > 2 {
                    return Err(RtError::new("terminating/c: expects a value").into());
                }
                let label: Rc<str> = if args.len() == 2 {
                    party_name(&args.pop().unwrap())?
                } else {
                    Rc::from("terminating/c")
                };
                Ok(Ctrl::Val(wrap_terminating(args.pop().unwrap(), label)))
            }
            _ => match call_prim(p, &args)? {
                PrimEffect::Value(v) => Ok(Ctrl::Val(v)),
                PrimEffect::Output(text, v) => {
                    self.output.push_str(&text);
                    Ok(Ctrl::Val(v))
                }
            },
        }
    }

    fn apply_closure(
        &mut self,
        clo: Rc<Closure>,
        args: Vec<Value>,
        kont: &mut Vec<Kont>,
    ) -> Result<Ctrl, EvalError> {
        self.stats.applications += 1;
        if self.monitoring_active() && !self.whitelisted(&clo.def) {
            if self.statically_discharged(&clo.def, &args) {
                self.stats.static_skips += 1;
            } else {
                self.monitor_call(&clo, &args, kont)?;
            }
        }
        self.bind_and_enter(clo, args)
    }

    fn bind_and_enter(
        &mut self,
        clo: Rc<Closure>,
        mut args: Vec<Value>,
    ) -> Result<Ctrl, EvalError> {
        let def = &clo.def;
        let required = def.params as usize;
        if def.variadic {
            if args.len() < required {
                return Err(arity_error(def, args.len()));
            }
            let rest = Value::list(args.split_off(required));
            args.push(rest);
        } else if args.len() != required {
            return Err(arity_error(def, args.len()));
        }
        let ClosureEnv::Chain(chain) = &clo.env else {
            unreachable!("reference machine applied a flat (IR) closure");
        };
        self.stats.env_frames_allocated += 1;
        let env = Frame::extend(chain, args);
        Ok(Ctrl::Eval(def.body.clone(), env))
    }

    fn apply_terminating(
        &mut self,
        inner: Value,
        label: Rc<str>,
        args: Vec<Value>,
        kont: &mut Vec<Kont>,
    ) -> Result<Ctrl, EvalError> {
        // [App-Term]: outside a monitored extent, seed a *fresh* table;
        // [SC-App-Term]: inside one, keep the current table.
        let started = !self.monitoring_active();
        let saved = if started && !self.imp_table.is_empty() {
            Some(std::mem::take(&mut self.imp_table))
        } else {
            None
        };
        kont.push(Kont::ContractExtent { saved, started });
        self.blames.push(label);
        if started {
            self.extent_depth += 1;
        }
        self.apply_value(inner, args, kont)
    }

    #[allow(clippy::too_many_arguments)]
    fn apply_arrow(
        &mut self,
        inner: Value,
        doms: Vec<Value>,
        rng: Value,
        pos: Rc<str>,
        neg: Rc<str>,
        args: Vec<Value>,
        kont: &mut Vec<Kont>,
    ) -> Result<Ctrl, EvalError> {
        if args.len() != doms.len() {
            return Err(EvalError::Contract(ContractErrorInfo {
                blame: neg,
                message: format!("expected {} arguments, got {}", doms.len(), args.len()),
            }));
        }
        kont.push(Kont::ArrowRng {
            rng,
            pos: pos.clone(),
            neg: neg.clone(),
        });
        if args.is_empty() {
            self.apply_value(inner, Vec::new(), kont)
        } else {
            let dom = doms[0].clone();
            let arg = args[0].clone();
            kont.push(Kont::ArrowCall {
                inner,
                doms,
                args,
                receiving: 0,
                checked: Vec::new(),
                pos: pos.clone(),
                neg: neg.clone(),
            });
            self.attach_all(VecDeque::from(vec![dom]), arg, neg, pos, kont)
        }
    }

    /// Attaches a conjunction of contracts to a value. Completes pure
    /// attachments (wrapping, primitive predicates) inline; defers to a
    /// [`Kont::FlatCheck`] frame when a predicate is a user closure.
    fn attach_all(
        &mut self,
        mut contracts: VecDeque<Value>,
        value: Value,
        pos: Rc<str>,
        neg: Rc<str>,
        kont: &mut Vec<Kont>,
    ) -> Result<Ctrl, EvalError> {
        let mut current = value;
        while let Some(c) = contracts.pop_front() {
            // Bare `terminating/c` is usable as a combinator in and/c etc.
            if matches!(c, Value::Prim(Prim::TerminatingC)) {
                current = wrap_terminating(current, pos.clone());
                continue;
            }
            // A bare procedure is usable as a flat contract, Racket-style.
            let flat_pred: Option<Value> = match &c {
                Value::Contract(data) => match data.as_ref() {
                    ContractData::Flat(pred) => Some(pred.clone()),
                    ContractData::Arrow { doms, rng } => {
                        if current.is_procedure() {
                            current = Value::Wrapped(Rc::new(WrappedData {
                                inner: current,
                                kind: WrapKind::Arrow {
                                    doms: doms.clone(),
                                    rng: rng.clone(),
                                    positive: pos.clone(),
                                    negative: neg.clone(),
                                },
                            }));
                            continue;
                        }
                        return Err(EvalError::Contract(ContractErrorInfo {
                            blame: pos,
                            message: format!(
                                "->/c expected a procedure, got {}",
                                current.to_write_string()
                            ),
                        }));
                    }
                    ContractData::And(cs) => {
                        for sub in cs.iter().rev() {
                            contracts.push_front(sub.clone());
                        }
                        continue;
                    }
                    ContractData::Terminating => {
                        current = wrap_terminating(current, pos.clone());
                        continue;
                    }
                },
                Value::Prim(_) | Value::Closure(_) | Value::Wrapped(_) => Some(c.clone()),
                _ => None,
            };
            let Some(pred) = flat_pred else {
                return Err(
                    RtError::new(format!("not a contract: {}", c.to_write_string())).into(),
                );
            };
            match pred {
                Value::Prim(p) => {
                    let ok = match call_prim(p, std::slice::from_ref(&current))? {
                        PrimEffect::Value(v) => v.is_truthy(),
                        PrimEffect::Output(text, v) => {
                            self.output.push_str(&text);
                            v.is_truthy()
                        }
                    };
                    if !ok {
                        return Err(EvalError::Contract(ContractErrorInfo {
                            blame: pos,
                            message: format!(
                                "predicate {} rejected {}",
                                p.name(),
                                current.to_write_string()
                            ),
                        }));
                    }
                }
                pred => {
                    kont.push(Kont::FlatCheck {
                        original: current.clone(),
                        rest: contracts,
                        pos: pos.clone(),
                        neg,
                    });
                    return self.apply_value(pred, vec![current], kont);
                }
            }
        }
        Ok(Ctrl::Val(current))
    }

    // ----- monitoring ----------------------------------------------------

    fn monitoring_active(&self) -> bool {
        match self.config.mode {
            SemanticsMode::Monitored | SemanticsMode::CallSeqCollect => true,
            SemanticsMode::Standard => self.extent_depth > 0,
        }
    }

    /// True when the enforcement plan statically discharged this λ and the
    /// actual arguments satisfy the proof's domain guard — the hybrid fast
    /// path: no graph, no table, no `CallSeq` push.
    fn statically_discharged(&self, def: &LambdaDef, args: &[Value]) -> bool {
        match self.fast_path.get(&def.id) {
            None => false,
            Some(FastGuard::Always) => true,
            Some(FastGuard::Domains(doms)) => {
                args.len() == doms.len()
                    && args.iter().zip(doms.iter()).all(|(a, d)| in_domain(*d, a))
            }
        }
    }

    fn whitelisted(&self, def: &LambdaDef) -> bool {
        match &def.name {
            Some(n) => self.whitelist.contains(n),
            None => false,
        }
    }

    fn closure_key(&self, clo: &Closure) -> u64 {
        match self.config.monitor.key_strategy {
            KeyStrategy::Allocation => mix2(0xA110C, clo.alloc_id),
            KeyStrategy::Structural => clo.fingerprint,
            KeyStrategy::LambdaOnly => mix2(0x001A_3BDA, clo.def.id as u64),
        }
    }

    fn monitor_call(
        &mut self,
        clo: &Rc<Closure>,
        args: &[Value],
        kont: &mut Vec<Kont>,
    ) -> Result<(), EvalError> {
        self.stats.monitored_calls += 1;
        let key = self.closure_key(clo);

        if self.config.monitor.loop_entries_only && !self.designated.contains(&key) {
            // Loop-entry detection: designate a function only when it
            // recurs with no intervening check of an already-designated
            // entry — its loop is not already guarded (§5).
            match self.last_seen_tick.get(&key) {
                Some(&t) if t == self.guard_tick => {
                    self.designated.insert(key);
                }
                _ => {
                    self.last_seen_tick.insert(key, self.guard_tick);
                    return Ok(());
                }
            }
        }

        if !self.backoff.should_check(&key) {
            return Ok(());
        }
        self.stats.checks += 1;
        self.guard_tick += 1;

        if self.config.trace {
            self.record_trace(clo, key, args, kont.len());
        }

        match self.config.mode {
            SemanticsMode::CallSeqCollect => {
                let violation = self.imp_table.push_unchecked(key, args, &self.config.order);
                kont.push(Kont::Restore);
                if let Some(v) = violation {
                    self.violations.push(ScErrorInfo {
                        blame: self.blames.last().cloned(),
                        function: clo.def.describe(),
                        violation: v,
                    });
                }
                Ok(())
            }
            _ => match self.config.monitor.strategy {
                TableStrategy::Imperative => {
                    match self.imp_table.push(key, args, &self.config.order) {
                        Ok(()) => {
                            kont.push(Kont::Restore);
                            Ok(())
                        }
                        Err(violation) => Err(EvalError::Sc(ScErrorInfo {
                            blame: self.blames.last().cloned(),
                            function: clo.def.describe(),
                            violation,
                        })),
                    }
                }
                TableStrategy::ContinuationMark => {
                    let order = self.config.order.clone();
                    let current = match self.marks.last() {
                        Some(m) => m.table.clone(),
                        None => ScTable::new(),
                    };
                    match current.update(key, Rc::from(args), &order) {
                        Ok(table) => {
                            let depth = kont.len();
                            match self.marks.last_mut() {
                                Some(top) if top.depth == depth => {
                                    // Tail call: replace the mark in place.
                                    top.table = table;
                                }
                                _ => self.marks.push(MarkEntry { depth, table }),
                            }
                            if self.marks.len() > self.stats.max_marks {
                                self.stats.max_marks = self.marks.len();
                            }
                            Ok(())
                        }
                        Err(violation) => Err(EvalError::Sc(ScErrorInfo {
                            blame: self.blames.last().cloned(),
                            function: clo.def.describe(),
                            violation,
                        })),
                    }
                }
            },
        }
    }

    fn record_trace(&mut self, clo: &Rc<Closure>, key: u64, args: &[Value], depth: usize) {
        let graph = match self.config.monitor.strategy {
            TableStrategy::ContinuationMark => self
                .marks
                .last()
                .and_then(|m| m.table.get(&key))
                .map(|entry| trace_graph(&self.config.order, &entry.last_args, args)),
            TableStrategy::Imperative => self
                .imp_table
                .get(&key)
                .map(|entry| trace_graph(&self.config.order, entry.last_args, args)),
        };
        self.trace_events.push(TraceEvent {
            function: clo.def.describe(),
            args: args.iter().map(|a| a.to_write_string()).collect(),
            graph,
            kont_depth: depth,
        });
    }
}
