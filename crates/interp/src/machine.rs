//! The flat-IR dispatch machine for λSCT.
//!
//! [`Machine`] executes the instruction arena produced by `sct-ir` (see
//! that crate's docs for the compilation scheme): one contiguous code
//! vector, flat per-activation locals frames, flat-closure capture lists,
//! and call sites whose enforcement decisions were baked in at compile
//! time from the [`EnforcementPlan`]. The retained tree-walking CEK
//! machine lives in [`crate::reference`] and serves as the differential
//! oracle; this machine preserves its continuation, blame, and
//! size-change-table semantics bit-for-bit:
//!
//! * the continuation is still an explicit heap vector of continuation
//!   frames — return frames for non-tail calls, `Restore` frames for the
//!   imperative table strategy, contract extents, and contract-checking
//!   frames — so deep recursion cannot overflow the Rust stack and a tail
//!   call leaves the continuation untouched;
//! * the continuation-mark table strategy keys marks on continuation
//!   depth exactly as before (tail calls replace the top mark in place);
//! * monitor-visible counters ([`Stats::applications`],
//!   [`Stats::monitored_calls`], [`Stats::checks`],
//!   [`Stats::static_skips`]) are identical to the reference machine's on
//!   every program — the oracle suite asserts it. Representation-bound
//!   counters ([`Stats::steps`], the high-water marks,
//!   [`Stats::env_frames_allocated`]) legitimately differ.
//!
//! What changed is the per-step cost: no `Rc<Expr>` clones, no
//! continuation frame per evaluated argument, no environment-chain walk
//! per variable, and — at specialized call sites — no per-call decision
//! about whether the callee is discharged, guarded, or monitored.

use crate::error::{ContractErrorInfo, EvalError, RtError, ScErrorInfo};
use crate::order::OrderHandle;
use crate::prims::{call_prim, PrimEffect};
use crate::value::{mix2, Closure, ClosureEnv, ContractData, Slot, Value, WrapKind, WrappedData};
use sct_bignum::Int;
use sct_core::graph::ScGraph;
use sct_core::intern::FxBuildHasher;
use sct_core::monitor::{Backoff, KeyStrategy, MonitorConfig, TableStrategy};
use sct_core::plan::{EnforcementPlan, PlanDomain};
use sct_core::table::{MutScTable, ScTable, TableUndo};
use sct_ir::{CapSrc, CompiledProgram, Instr, SiteAction, TopCode};
use sct_lang::ast::Program;
use sct_lang::{LambdaDef, Prim};
use sct_sexpr::Datum;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;

/// Which of the paper's semantics the machine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SemanticsMode {
    /// The standard semantics ⇓ (monitoring only inside `terminating/c`
    /// extents).
    #[default]
    Standard,
    /// The terminating semantics ⬇ of Figure 3: every application checked.
    Monitored,
    /// The call-sequence semantics ↓↓ of Figure 6: tables extended, never
    /// enforced; would-be violations recorded.
    CallSeqCollect,
}

/// Step-count mask for wall-clock deadline checks: the clock is read when
/// `steps & MASK == 0`, i.e. once per 4096 dispatch steps.
pub const DEADLINE_CHECK_MASK: u64 = 0xFFF;

/// Complete machine configuration.
#[derive(Debug, Clone, Default)]
pub struct MachineConfig {
    /// Which semantics to run.
    pub mode: SemanticsMode,
    /// Monitor strategy and optimizations (§5).
    pub monitor: MonitorConfig,
    /// The well-founded order (Figure 5 by default, replaceable per §3.3).
    pub order: OrderHandle,
    /// Step budget; `None` is unbounded. Use for *unmonitored* runs of
    /// possibly-diverging programs.
    pub fuel: Option<u64>,
    /// Wall-clock deadline; `None` is unbounded. Checked every
    /// [`DEADLINE_CHECK_MASK`]+1 steps (one `Instant::now` per ~4k
    /// dispatches — noise next to an instruction), so a run ends within
    /// microseconds of the deadline with [`EvalError::Deadline`]. Servers
    /// use this to bound request latency even for `run` requests with no
    /// `fuel`, which fuel alone cannot do portably (steps/second varies
    /// with the program).
    pub deadline: Option<std::time::Instant>,
    /// When true, record a [`TraceEvent`] per checked call (Figure 1).
    pub trace: bool,
    /// The hybrid enforcement plan from the static pre-pass, when one was
    /// computed (`sct hybrid`, `run_hybrid`). [`Machine::new`] compiles the
    /// program against this plan, so statically discharged λs skip the
    /// monitor at specialized call sites with *zero* per-call decision
    /// work; first-class applications of discharged λs still take the
    /// per-λ fast path. `None` is plain monitoring.
    pub plan: Option<Rc<EnforcementPlan>>,
    /// When true, count dynamically adjacent instruction pairs (by
    /// mnemonic) so the superinstruction set can be justified against a
    /// real dispatch profile; see [`Machine::pair_profile`].
    pub profile_pairs: bool,
}

impl MachineConfig {
    /// Standard semantics, no fuel.
    pub fn standard() -> MachineConfig {
        MachineConfig::default()
    }

    /// Fully monitored semantics (λSCT proper) with the given strategy.
    pub fn monitored(strategy: TableStrategy) -> MachineConfig {
        MachineConfig {
            mode: SemanticsMode::Monitored,
            monitor: MonitorConfig {
                strategy,
                ..MonitorConfig::default()
            },
            ..MachineConfig::default()
        }
    }
}

/// Counters exposed for tests and the benchmark harness.
///
/// `applications`, `monitored_calls`, `checks`, and `static_skips` are
/// *semantic* counters: the IR machine and the reference tree-walker
/// produce identical values for them on every program (the differential
/// oracle asserts it). `steps`, the high-water marks, and
/// `env_frames_allocated` are representation-bound: steps count IR
/// instructions here but CEK transitions in the reference machine.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    /// Machine steps executed (IR instructions dispatched).
    pub steps: u64,
    /// Closure applications performed.
    pub applications: u64,
    /// Applications that reached the monitor (monitoring active, not
    /// whitelisted).
    pub monitored_calls: u64,
    /// Calls whose size-change table was actually extended and checked
    /// (after backoff and loop-entry filtering).
    pub checks: u64,
    /// Monitored-mode applications that took the static fast path: the
    /// enforcement plan proved the λ terminating, so the monitor was
    /// skipped (after the guard check, when the proof was domain-guarded).
    pub static_skips: u64,
    /// Environment frames allocated: one per activation here, one per
    /// `lambda`/`let`/`letrec` frame in the reference machine — the
    /// allocation win of flat frames, reported by `report_fig10`.
    pub env_frames_allocated: u64,
    /// Applications dispatched through a `Generic` call site (or a bound
    /// site whose runtime callee is not its λ) while monitoring was
    /// active: each one read its λ's verdict from the per-λ fast-path
    /// table.
    pub generic_calls: u64,
    /// Always 0: generic sites no longer cache their callees' verdicts.
    /// Kept because `perfbench` still reads it for its
    /// `interp.pic_hit_ratio`; it is not published.
    pub pic_hits: u64,
    /// High-water mark of the continuation stack.
    pub max_kont_depth: usize,
    /// High-water mark of the continuation-mark stack.
    pub max_marks: usize,
}

impl Stats {
    /// Mirror this run's counters into the `vm.*` metric family of an
    /// observability registry: one `vm.runs` bump plus the semantic
    /// counters and `vm.generic_calls`, so a `metrics` snapshot shows
    /// cumulative VM work. High-water marks are exported as gauges
    /// holding the maximum seen across published runs.
    pub fn publish(&self, reg: &sct_obs::Registry) {
        reg.counter("vm.runs").inc();
        for (name, v) in [
            ("vm.steps", self.steps),
            ("vm.applications", self.applications),
            ("vm.monitored_calls", self.monitored_calls),
            ("vm.checks", self.checks),
            ("vm.static_skips", self.static_skips),
            ("vm.env_frames", self.env_frames_allocated),
            ("vm.generic_calls", self.generic_calls),
        ] {
            reg.counter(name).add(v);
        }
        for (name, v) in [
            ("vm.max_kont_depth", self.max_kont_depth as i64),
            ("vm.max_marks", self.max_marks as i64),
        ] {
            let g = reg.gauge(name);
            g.set(g.get().max(v));
        }
    }
}

/// One record of a checked call, for Figure 1-style traces.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Name of the applied function.
    pub function: String,
    /// Rendered arguments.
    pub args: Vec<String>,
    /// Rendered size-change graph from the previous call, when one exists.
    pub graph: Option<String>,
    /// Continuation depth at the call (tail calls keep it flat).
    pub kont_depth: usize,
}

pub(crate) struct MarkEntry {
    pub(crate) depth: usize,
    pub(crate) table: ScTable<u64, Value>,
}

/// Per-λ fast-path rule compiled from the enforcement plan.
pub(crate) enum FastGuard {
    /// Skip the monitor unconditionally (proof assumed nothing).
    Always,
    /// Skip only when each argument is in the proof's assumed domain;
    /// out-of-domain calls fall back to the monitor.
    Domains(Rc<[PlanDomain]>),
}

/// Constant-time membership test backing the fast-path guard. `List` is a
/// shallow pair-or-nil check: pairs are immutable finite trees in λSCT, so
/// structural descent is well-founded on every value and the proof's
/// descent facts hold regardless of what the tail turns out to be.
pub(crate) fn in_domain(d: PlanDomain, v: &Value) -> bool {
    // A canonical Value::Big is always outside i64 range, hence nonzero,
    // so non-negative bigs are both Nat and Pos.
    match d {
        PlanDomain::Any => true,
        PlanDomain::Int => matches!(v, Value::Fix(_) | Value::Big(_)),
        PlanDomain::Nat => match v {
            Value::Fix(n) => *n >= 0,
            Value::Big(b) => !b.is_negative(),
            _ => false,
        },
        PlanDomain::Pos => match v {
            Value::Fix(n) => *n > 0,
            Value::Big(b) => !b.is_negative(),
            _ => false,
        },
        PlanDomain::List => matches!(v, Value::Nil | Value::Pair(_)),
    }
}

/// The whole domain guard of a static proof: the call matches the proved
/// arity and every argument is in its assumed domain. The one definition
/// behind the `Guarded` site action, the per-λ fast-path probe, and the
/// first-class application path.
pub(crate) fn guard_passes(doms: &[PlanDomain], args: &[Value]) -> bool {
    args.len() == doms.len() && args.iter().zip(doms.iter()).all(|(a, d)| in_domain(*d, a))
}

/// Applies a [`FastGuard`] rule to actual arguments.
pub(crate) fn fast_guard_passes(rule: Option<&FastGuard>, args: &[Value]) -> bool {
    match rule {
        None => false,
        Some(FastGuard::Always) => true,
        Some(FastGuard::Domains(doms)) => guard_passes(doms, args),
    }
}

/// Per-λ fast-path rules derived from an enforcement plan.
fn build_fast_path(plan: Option<&EnforcementPlan>, lambdas: usize) -> Vec<Option<FastGuard>> {
    let mut fast_path: Vec<Option<FastGuard>> = (0..lambdas).map(|_| None).collect();
    if let Some(plan) = plan {
        for (id, guard) in plan.static_lambdas() {
            let rule = match guard {
                None => FastGuard::Always,
                Some(doms) => FastGuard::Domains(Rc::from(doms)),
            };
            if let Some(entry) = fast_path.get_mut(id as usize) {
                *entry = Some(rule);
            }
        }
    }
    fast_path
}

/// The machine's continuation frames. `Return` replaces the tree-walker's
/// pending-expression frames (the caller's resumption is a program point,
/// not a subtree); everything else is carried over unchanged.
enum Kont {
    /// Resume the caller at `pc` with the callee's value on the stack.
    Return {
        pc: u32,
        locals_len: u32,
        locals_base: u32,
        caps: Rc<[Slot]>,
    },
    /// Undo an imperative-table extension when the checked call returns.
    Restore(TableUndo<u64, Value>),
    /// Leave a `terminating/c` extent ([App-Term]/[SC-App-Term]).
    ContractExtent {
        saved: Option<MutScTable<u64, Value>>,
        started: bool,
    },
    /// Pending flat-contract predicate result.
    FlatCheck {
        original: Value,
        rest: VecDeque<Value>,
        pos: Rc<str>,
        neg: Rc<str>,
    },
    /// Pending `->/c` domain checks.
    ArrowCall {
        inner: Value,
        doms: Vec<Value>,
        args: Vec<Value>,
        receiving: usize,
        checked: Vec<Value>,
        pos: Rc<str>,
        neg: Rc<str>,
    },
    /// Pending `->/c` range check.
    ArrowRng {
        rng: Value,
        pos: Rc<str>,
        neg: Rc<str>,
    },
}

/// Outcome of an application path: the machine either entered compiled
/// code (the dispatch loop continues) or produced a value immediately
/// (primitives, pure contract attachment) that must unwind the
/// continuation.
enum Step {
    Enter,
    Value(Value),
}

/// The λSCT machine: a dispatch loop over the plan-directed flat IR.
///
/// # Examples
///
/// ```
/// use sct_interp::{Machine, MachineConfig, Value};
/// use sct_lang::compile_program;
///
/// let prog = compile_program("(define (fact n) (if (zero? n) 1 (* n (fact (- n 1))))) (fact 10)")
///     .unwrap();
/// let mut m = Machine::new(&prog, MachineConfig::standard());
/// assert_eq!(m.run().unwrap(), Value::int(3628800));
/// ```
pub struct Machine<'p> {
    program: &'p Program,
    code: Rc<CompiledProgram>,
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
    // Constant pool, materialized once (shared per quote site, so `eq?`
    // semantics match the tree-walker's per-site cache).
    consts: Vec<Value>,
    // Per-λ whitelist membership and fast-path rule, both indexed by λ id
    // (a direct load instead of the tree-walker's per-call map probes).
    whitelisted: Vec<bool>,
    fast_path: Vec<Option<FastGuard>>,
    // Dynamic adjacent-pair dispatch profile (config.profile_pairs).
    pair_profile: HashMap<(&'static str, &'static str), u64>,
    prof_prev: Option<(usize, &'static str)>,
    // Dynamic state.
    stack: Vec<Value>,
    locals: Vec<Slot>,
    locals_base: usize,
    kont: Vec<Kont>,
    pc: usize,
    caps: Rc<[Slot]>,
    alloc_counter: u64,
    backoff: Backoff<u64>,
    // Loop-entry detection state (§5).
    designated: HashSet<u64, FxBuildHasher>,
    last_seen_tick: HashMap<u64, u64, FxBuildHasher>,
    guard_tick: u64,
    // Imperative-strategy table (also used by CallSeqCollect).
    imp_table: MutScTable<u64, Value>,
    // Continuation-mark-strategy table stack.
    marks: Vec<MarkEntry>,
    // Innermost-first blame labels for active terminating/c extents.
    blames: Vec<Rc<str>>,
    extent_depth: usize,
}

impl<'p> Machine<'p> {
    /// Creates a machine for a compiled program, lowering it to the flat
    /// IR against `config.plan` (when present).
    pub fn new(program: &'p Program, config: MachineConfig) -> Machine<'p> {
        let code = Rc::new(sct_ir::compile(program, config.plan.as_deref()));
        Machine::with_code(program, code, config)
    }

    /// Creates a machine over an already-compiled IR image — the entry
    /// point for the bench harnesses, which time compilation apart from
    /// execution or reuse one image across repetitions (the `sct serve`
    /// daemon compiles each request through [`Machine::new`]). The image
    /// must have been produced by [`sct_ir::compile`] from this `program`
    /// and the same plan as `config.plan`; compiling against one plan
    /// and running under another would bake stale decisions into the
    /// call sites, so the pairing is *checked* (in release builds too)
    /// via the plan identity token the compiler stamped into the image.
    ///
    /// # Panics
    ///
    /// Panics when the image's plan token does not match `config.plan`
    /// (decisions fingerprint) — a `Skip` site baked from another plan
    /// could otherwise bypass the monitor for a λ this plan left
    /// monitored — or when the image's shape (lambda/top-form counts)
    /// does not match `program`. The shape check catches gross
    /// mispairings; an image from a *different but identically shaped*
    /// program is the caller's responsibility to avoid.
    pub fn with_code(
        program: &'p Program,
        code: Rc<CompiledProgram>,
        config: MachineConfig,
    ) -> Machine<'p> {
        let config_token = config
            .plan
            .as_deref()
            .map_or(0, EnforcementPlan::decisions_fingerprint);
        assert_eq!(
            (code.planned, code.plan_token),
            (config.plan.is_some(), config_token),
            "IR image was compiled against a different plan than MachineConfig carries"
        );
        assert_eq!(
            (code.templates.len(), code.top.len()),
            (program.lambda_count as usize, program.top_level.len()),
            "IR image was compiled from a different program"
        );
        let whitelist: HashSet<&str> = config
            .monitor
            .whitelist
            .iter()
            .map(String::as_str)
            .collect();
        let whitelisted = code
            .templates
            .iter()
            .map(|t| match &t.def.name {
                Some(n) => whitelist.contains(n.as_str()),
                None => false,
            })
            .collect();
        let fast_path = build_fast_path(config.plan.as_deref(), code.templates.len());
        let consts = code.consts.iter().map(|d| datum_to_value(d)).collect();
        let backoff = Backoff::new(config.monitor.backoff);
        Machine {
            program,
            code,
            config,
            globals: vec![Value::Undefined; program.global_names.len()],
            output: String::new(),
            stats: Stats::default(),
            violations: Vec::new(),
            trace_events: Vec::new(),
            consts,
            whitelisted,
            fast_path,
            pair_profile: HashMap::new(),
            prof_prev: None,
            stack: Vec::new(),
            locals: Vec::new(),
            locals_base: 0,
            kont: Vec::new(),
            pc: 0,
            caps: Rc::from(Vec::new()),
            alloc_counter: 0,
            backoff,
            designated: HashSet::default(),
            last_seen_tick: HashMap::default(),
            guard_tick: 0,
            imp_table: MutScTable::new(),
            marks: Vec::new(),
            blames: Vec::new(),
            extent_depth: 0,
        }
    }

    /// The compiled IR image this machine dispatches over.
    pub fn compiled(&self) -> &CompiledProgram {
        &self.code
    }

    /// The dynamic adjacent-pair dispatch profile collected under
    /// [`MachineConfig::profile_pairs`], hottest pair first. Pairs are
    /// only counted when the second instruction was reached by falling
    /// through from the first (jump targets never pair with their
    /// predecessor), which is exactly the fusibility condition the
    /// linker's superinstruction pass needs.
    pub fn pair_profile(&self) -> Vec<((&'static str, &'static str), u64)> {
        let mut pairs: Vec<_> = self.pair_profile.iter().map(|(k, v)| (*k, *v)).collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        pairs
    }

    /// Runs all top-level forms; the result is the last expression's value
    /// (or void when the program ends with a definition).
    ///
    /// # Errors
    ///
    /// [`EvalError`] as the program's non-value answers: `errorRT`,
    /// `errorSC`, contract violations, or fuel exhaustion.
    pub fn run(&mut self) -> Result<Value, EvalError> {
        let code = self.code.clone();
        let mut last = Value::Void;
        for top in &code.top {
            let v = self.run_top(top)?;
            match top.define {
                Some(g) => {
                    self.globals[g as usize] = v;
                    last = Value::Void;
                }
                None => last = v,
            }
        }
        Ok(last)
    }

    fn run_top(&mut self, top: &TopCode) -> Result<Value, EvalError> {
        self.reset_activation_state();
        self.stats.env_frames_allocated += 1;
        self.locals
            .resize(top.frame_size as usize, Slot::Val(Value::Undefined));
        self.pc = top.entry as usize;
        self.execute()
    }

    /// Clears the per-evaluation dynamic state (a prior error may have
    /// left frames behind). The size-change `imp_table` deliberately
    /// survives — it is machine-level state, exactly as in the reference
    /// machine.
    fn reset_activation_state(&mut self) {
        self.kont.clear();
        self.stack.clear();
        self.locals.clear();
        self.locals_base = 0;
        self.caps = Rc::from(Vec::new());
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
        self.reset_activation_state();
        match self.apply_value(f, args)? {
            Step::Enter => self.execute(),
            Step::Value(v) => match self.unwind(v)? {
                Some(done) => Ok(done),
                None => self.execute(),
            },
        }
    }

    // ----- the dispatch loop ---------------------------------------------

    fn execute(&mut self) -> Result<Value, EvalError> {
        let code = self.code.clone();
        loop {
            self.stats.steps += 1;
            if let Some(fuel) = self.config.fuel {
                if self.stats.steps > fuel {
                    return Err(EvalError::OutOfFuel);
                }
            }
            if let Some(deadline) = self.config.deadline {
                // Amortized: one clock read per ~4k dispatches keeps the
                // configured-but-unexpired cost unmeasurable.
                if self.stats.steps & DEADLINE_CHECK_MASK == 0
                    && std::time::Instant::now() >= deadline
                {
                    return Err(EvalError::Deadline);
                }
            }
            let instr = code.code[self.pc];
            if self.config.profile_pairs {
                let at = self.pc;
                let m = instr.mnemonic();
                if let Some((prev_pc, prev_m)) = self.prof_prev {
                    // Only fall-through adjacency counts: a pair split by
                    // a taken jump could not be fused anyway.
                    if prev_pc + 1 == at {
                        *self.pair_profile.entry((prev_m, m)).or_insert(0) += 1;
                    }
                }
                self.prof_prev = Some((at, m));
            }
            self.pc += 1;
            match instr {
                Instr::Const(ix) => self.stack.push(self.consts[ix as usize].clone()),
                Instr::Void => self.stack.push(Value::Void),
                Instr::LoadLocal(i) => {
                    let slot = &self.locals[self.locals_base + i as usize];
                    let Slot::Val(v) = slot else {
                        unreachable!("plain load from cell slot");
                    };
                    self.stack.push(v.clone());
                }
                Instr::LoadLocalChecked(i) => {
                    let slot = &self.locals[self.locals_base + i as usize];
                    let Slot::Val(v) = slot else {
                        unreachable!("checked load from cell slot");
                    };
                    if matches!(v, Value::Undefined) {
                        return Err(uninitialized());
                    }
                    self.stack.push(v.clone());
                }
                Instr::LoadLocalCell(i) => {
                    let slot = &self.locals[self.locals_base + i as usize];
                    let Slot::Cell(c) = slot else {
                        unreachable!("cell load from plain slot");
                    };
                    let v = c.borrow().clone();
                    if matches!(v, Value::Undefined) {
                        return Err(uninitialized());
                    }
                    self.stack.push(v);
                }
                Instr::LoadCapture(i) => {
                    let Slot::Val(v) = &self.caps[i as usize] else {
                        unreachable!("plain capture load from cell");
                    };
                    self.stack.push(v.clone());
                }
                Instr::LoadCaptureCell(i) => {
                    let Slot::Cell(c) = &self.caps[i as usize] else {
                        unreachable!("cell capture load from plain slot");
                    };
                    let v = c.borrow().clone();
                    if matches!(v, Value::Undefined) {
                        return Err(uninitialized());
                    }
                    self.stack.push(v);
                }
                Instr::StoreLocal(i) => {
                    let v = self.stack.pop().expect("store operand");
                    self.locals[self.locals_base + i as usize] = Slot::Val(v);
                    self.stack.push(Value::Void);
                }
                Instr::StoreLocalCell(i) => {
                    let v = self.stack.pop().expect("store operand");
                    let Slot::Cell(c) = &self.locals[self.locals_base + i as usize] else {
                        unreachable!("cell store to plain slot");
                    };
                    *c.borrow_mut() = v;
                    self.stack.push(Value::Void);
                }
                Instr::StoreCaptureCell(i) => {
                    let v = self.stack.pop().expect("store operand");
                    let Slot::Cell(c) = &self.caps[i as usize] else {
                        unreachable!("cell store to plain capture");
                    };
                    *c.borrow_mut() = v;
                    self.stack.push(Value::Void);
                }
                Instr::LoadGlobal(g) => {
                    let v = self.globals[g as usize].clone();
                    if matches!(v, Value::Undefined) {
                        return Err(RtError::new(format!(
                            "global {} used before definition",
                            self.program.global_names[g as usize]
                        ))
                        .into());
                    }
                    self.stack.push(v);
                }
                Instr::StoreGlobal(g) => {
                    let v = self.stack.pop().expect("store operand");
                    self.globals[g as usize] = v;
                    self.stack.push(Value::Void);
                }
                Instr::PrimVal(p) => self.stack.push(Value::Prim(p)),
                Instr::MakeClosure(id) => self.make_closure(id),
                Instr::Jump(t) => self.pc = t as usize,
                Instr::JumpIfFalse(t) => {
                    let v = self.stack.pop().expect("branch operand");
                    if !v.is_truthy() {
                        self.pc = t as usize;
                    }
                }
                Instr::Pop => {
                    self.stack.pop();
                }
                Instr::PopLocal(i) => {
                    let v = self.stack.pop().expect("binding operand");
                    self.locals[self.locals_base + i as usize] = Slot::Val(v);
                }
                Instr::PopLocalCell(i) => {
                    let v = self.stack.pop().expect("binding operand");
                    self.locals[self.locals_base + i as usize] =
                        Slot::Cell(Rc::new(RefCell::new(v)));
                }
                Instr::InitLocalCell(i) => {
                    let v = self.stack.pop().expect("binding operand");
                    let Slot::Cell(c) = &self.locals[self.locals_base + i as usize] else {
                        unreachable!("letrec init to plain slot");
                    };
                    *c.borrow_mut() = v;
                }
                Instr::ClearLocal(i) => {
                    self.locals[self.locals_base + i as usize] = Slot::Val(Value::Undefined);
                }
                Instr::MakeCell(i) => {
                    self.locals[self.locals_base + i as usize] =
                        Slot::Cell(Rc::new(RefCell::new(Value::Undefined)));
                }
                Instr::BoxLocal(i) => {
                    let ix = self.locals_base + i as usize;
                    let old = std::mem::replace(&mut self.locals[ix], Slot::Val(Value::Undefined));
                    let Slot::Val(v) = old else {
                        unreachable!("boxing a cell slot");
                    };
                    self.locals[ix] = Slot::Cell(Rc::new(RefCell::new(v)));
                }
                Instr::WrapTerm(l) => {
                    let v = self.stack.pop().expect("wrap operand");
                    let label = self.code.labels[l as usize].clone();
                    self.stack.push(wrap_terminating(v, label));
                }
                Instr::CallPrim { prim, argc } => {
                    let args_start = self.stack.len() - argc as usize;
                    let result = call_prim(prim, &self.stack[args_start..])?;
                    self.stack.truncate(args_start);
                    match result {
                        PrimEffect::Value(v) => self.stack.push(v),
                        PrimEffect::Output(text, v) => {
                            self.output.push_str(&text);
                            self.stack.push(v);
                        }
                    }
                }
                Instr::Call { argc, site } => {
                    if let Some(done) = self.do_call(argc as usize, site as usize, false)? {
                        return Ok(done);
                    }
                }
                Instr::TailCall { argc, site } => {
                    if let Some(done) = self.do_call(argc as usize, site as usize, true)? {
                        return Ok(done);
                    }
                }
                Instr::Return => {
                    let v = self.stack.pop().expect("return value");
                    if let Some(done) = self.unwind(v)? {
                        return Ok(done);
                    }
                }
                // Superinstructions: each executes both fused operations
                // and then skips the intact second slot (`pc += 1`), so a
                // jump into that slot still runs the original instruction.
                Instr::LoadLocal2(a, b) => {
                    let base = self.locals_base;
                    let Slot::Val(va) = &self.locals[base + a as usize] else {
                        unreachable!("plain load from cell slot");
                    };
                    let va = va.clone();
                    let Slot::Val(vb) = &self.locals[base + b as usize] else {
                        unreachable!("plain load from cell slot");
                    };
                    let vb = vb.clone();
                    self.stack.push(va);
                    self.stack.push(vb);
                    self.pc += 1;
                }
                Instr::LoadLocalCallPrim { local, prim, argc } => {
                    let Slot::Val(v) = &self.locals[self.locals_base + local as usize] else {
                        unreachable!("plain load from cell slot");
                    };
                    self.stack.push(v.clone());
                    let args_start = self.stack.len() - argc as usize;
                    let result = call_prim(prim, &self.stack[args_start..])?;
                    self.stack.truncate(args_start);
                    match result {
                        PrimEffect::Value(v) => self.stack.push(v),
                        PrimEffect::Output(text, v) => {
                            self.output.push_str(&text);
                            self.stack.push(v);
                        }
                    }
                    self.pc += 1;
                }
                Instr::ConstCallPrim { cix, prim, argc } => {
                    self.stack.push(self.consts[cix as usize].clone());
                    let args_start = self.stack.len() - argc as usize;
                    let result = call_prim(prim, &self.stack[args_start..])?;
                    self.stack.truncate(args_start);
                    match result {
                        PrimEffect::Value(v) => self.stack.push(v),
                        PrimEffect::Output(text, v) => {
                            self.output.push_str(&text);
                            self.stack.push(v);
                        }
                    }
                    self.pc += 1;
                }
                Instr::CallPrimJumpIfFalse { prim, argc, target } => {
                    let args_start = self.stack.len() - argc as usize;
                    let result = call_prim(prim, &self.stack[args_start..])?;
                    self.stack.truncate(args_start);
                    let v = match result {
                        PrimEffect::Value(v) => v,
                        PrimEffect::Output(text, v) => {
                            self.output.push_str(&text);
                            v
                        }
                    };
                    if v.is_truthy() {
                        self.pc += 1;
                    } else {
                        self.pc = target as usize;
                    }
                }
                Instr::LoadLocalReturn(i) => {
                    let Slot::Val(v) = &self.locals[self.locals_base + i as usize] else {
                        unreachable!("plain load from cell slot");
                    };
                    let v = v.clone();
                    if let Some(done) = self.unwind(v)? {
                        return Ok(done);
                    }
                }
            }
        }
    }

    fn push_kont(&mut self, k: Kont) {
        self.kont.push(k);
        if self.kont.len() > self.stats.max_kont_depth {
            self.stats.max_kont_depth = self.kont.len();
        }
    }

    /// Unwinds the continuation with a value, exactly as the tree-walker's
    /// value steps: stale marks are trimmed as the continuation shrinks,
    /// `Restore`/extent frames replay their effects, contract frames may
    /// re-enter compiled code. Returns the final value once the
    /// continuation is empty, or `None` when execution resumes at `pc`.
    fn unwind(&mut self, mut v: Value) -> Result<Option<Value>, EvalError> {
        loop {
            let Some(frame) = self.kont.pop() else {
                // A tail call at depth 0 legitimately leaves a mark; the
                // session is over, so drop it.
                self.marks.clear();
                debug_assert!(self.blames.is_empty());
                return Ok(Some(v));
            };
            // Marks deeper than the continuation are stale: the calls
            // that installed them have returned.
            while self.marks.last().is_some_and(|m| m.depth > self.kont.len()) {
                self.marks.pop();
            }
            match frame {
                Kont::Return {
                    pc,
                    locals_len,
                    locals_base,
                    caps,
                } => {
                    self.locals.truncate(locals_len as usize);
                    self.locals_base = locals_base as usize;
                    self.caps = caps;
                    self.pc = pc as usize;
                    self.stack.push(v);
                    return Ok(None);
                }
                Kont::Restore(undo) => self.imp_table.restore(undo),
                Kont::ContractExtent { saved, started } => {
                    if let Some(table) = saved {
                        self.imp_table = table;
                    }
                    if started {
                        self.extent_depth -= 1;
                    }
                    self.blames.pop();
                }
                Kont::FlatCheck {
                    original,
                    rest,
                    pos,
                    neg,
                } => {
                    if v.is_truthy() {
                        match self.attach_all(rest, original, pos, neg)? {
                            Step::Enter => return Ok(None),
                            Step::Value(next) => v = next,
                        }
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
                    let step = if next < args.len() {
                        let dom = doms[next].clone();
                        let arg = args[next].clone();
                        self.push_kont(Kont::ArrowCall {
                            inner,
                            doms,
                            args,
                            receiving: next,
                            checked,
                            pos: pos.clone(),
                            neg: neg.clone(),
                        });
                        // Domain obligations blame the caller: swap parties.
                        self.attach_all(VecDeque::from(vec![dom]), arg, neg, pos)?
                    } else {
                        self.apply_value(inner, checked)?
                    };
                    match step {
                        Step::Enter => return Ok(None),
                        Step::Value(next_v) => v = next_v,
                    }
                }
                Kont::ArrowRng { rng, pos, neg } => {
                    match self.attach_all(VecDeque::from(vec![rng]), v, pos, neg)? {
                        Step::Enter => return Ok(None),
                        Step::Value(next_v) => v = next_v,
                    }
                }
            }
        }
    }

    // ----- values --------------------------------------------------------

    fn make_closure(&mut self, id: u32) {
        let tmpl = &self.code.templates[id as usize];
        let mut caps: Vec<Slot> = Vec::with_capacity(tmpl.captures.len());
        for c in &tmpl.captures {
            caps.push(match c {
                CapSrc::Local(i) => self.locals[self.locals_base + *i as usize].clone(),
                CapSrc::Capture(i) => self.caps[*i as usize].clone(),
            });
        }
        self.alloc_counter += 1;
        // Same fingerprint as the tree-walker: the capture list is ordered
        // exactly as `def.free`, and cells hash their current contents.
        let mut fp = mix2(0x51_7e, id as u64);
        for s in &caps {
            fp = mix2(fp, s.hash_current());
        }
        let value = Value::Closure(Rc::new(Closure {
            def: tmpl.def.clone(),
            env: ClosureEnv::Flat(Rc::from(caps)),
            alloc_id: self.alloc_counter,
            fingerprint: fp,
        }));
        self.stack.push(value);
    }

    // ----- application ---------------------------------------------------

    /// One `Call`/`TailCall` instruction. The stack holds
    /// `[callee, arg1..argN]`. Returns the final value when the call chain
    /// completed an empty continuation (tail position at depth 0).
    fn do_call(
        &mut self,
        argc: usize,
        site: usize,
        tail: bool,
    ) -> Result<Option<Value>, EvalError> {
        if !tail {
            self.push_kont(Kont::Return {
                pc: self.pc as u32,
                locals_len: self.locals.len() as u32,
                locals_base: self.locals_base as u32,
                caps: self.caps.clone(),
            });
        }
        let fpos = self.stack.len() - 1 - argc;
        if let Value::Closure(c) = &self.stack[fpos] {
            let clo = c.clone();
            self.call_closure_stack(clo, argc, site, tail)?;
            return Ok(None);
        }
        // Generic dispatch: primitives, wrapped procedures, non-procedure
        // errors. In tail position the current frame is dead — drop it so
        // wrapper chains keep tail space bounded.
        let args: Vec<Value> = self.stack.split_off(fpos + 1);
        let f = self.stack.pop().expect("callee");
        if tail {
            self.locals.truncate(self.locals_base);
        }
        match self.apply_value(f, args)? {
            Step::Enter => Ok(None),
            Step::Value(v) => self.unwind(v),
        }
    }

    /// The hot path: a closure callee with its arguments still on the
    /// operand stack. The call site's baked-in [`SiteAction`] replaces the
    /// tree-walker's per-call decision cascade whenever the runtime callee
    /// is the λ the compiler bound the site to.
    fn call_closure_stack(
        &mut self,
        clo: Rc<Closure>,
        argc: usize,
        site: usize,
        tail: bool,
    ) -> Result<(), EvalError> {
        self.stats.applications += 1;
        if self.monitoring_active() && !self.whitelisted[clo.def.id as usize] {
            let args_start = self.stack.len() - argc;
            match &self.code.sites[site].action {
                SiteAction::Skip { lambda } if *lambda == clo.def.id => {
                    self.stats.static_skips += 1;
                }
                SiteAction::Guarded { lambda, doms } if *lambda == clo.def.id => {
                    if guard_passes(doms, &self.stack[args_start..]) {
                        self.stats.static_skips += 1;
                    } else {
                        self.monitor_call_stack(&clo, args_start)?;
                    }
                }
                SiteAction::Monitored { lambda } if *lambda == clo.def.id => {
                    self.monitor_call_stack(&clo, args_start)?;
                }
                _ => {
                    // First-class callee (or a site whose static binding
                    // does not match): read the λ's verdict from the
                    // per-λ fast-path table.
                    self.stats.generic_calls += 1;
                    if self.probe_discharged(&clo, args_start) {
                        self.stats.static_skips += 1;
                    } else {
                        self.monitor_call_stack(&clo, args_start)?;
                    }
                }
            }
        }
        self.bind_stack_args(&clo, argc, tail)
    }

    /// True when the enforcement plan statically discharged this λ and the
    /// stacked arguments satisfy the proof's domain guard.
    fn probe_discharged(&self, clo: &Closure, args_start: usize) -> bool {
        fast_guard_passes(
            self.fast_path[clo.def.id as usize].as_ref(),
            &self.stack[args_start..],
        )
    }

    /// Binds stacked arguments into a fresh (or, for tail calls, reused)
    /// locals frame and enters the callee.
    fn bind_stack_args(
        &mut self,
        clo: &Rc<Closure>,
        argc: usize,
        tail: bool,
    ) -> Result<(), EvalError> {
        let def = &clo.def;
        let required = def.params as usize;
        if def.variadic {
            if argc < required {
                return Err(arity_error(def, argc));
            }
        } else if argc != required {
            return Err(arity_error(def, argc));
        }
        let tmpl = &self.code.templates[def.id as usize];
        let frame_size = tmpl.frame_size as usize;
        let entry = tmpl.entry as usize;
        let args_start = self.stack.len() - argc;
        if tail {
            self.locals.truncate(self.locals_base);
        } else {
            self.locals_base = self.locals.len();
        }
        self.stats.env_frames_allocated += 1;
        if def.variadic {
            let rest = Value::list(
                self.stack
                    .drain(args_start + required..)
                    .collect::<Vec<_>>(),
            );
            for v in self.stack.drain(args_start..) {
                self.locals.push(Slot::Val(v));
            }
            self.locals.push(Slot::Val(rest));
        } else {
            for v in self.stack.drain(args_start..) {
                self.locals.push(Slot::Val(v));
            }
        }
        self.locals
            .resize(self.locals_base + frame_size, Slot::Val(Value::Undefined));
        let callee = self.stack.pop();
        debug_assert!(matches!(callee, Some(Value::Closure(_))));
        let ClosureEnv::Flat(caps) = &clo.env else {
            unreachable!("IR machine applied a chained (reference) closure");
        };
        self.caps = caps.clone();
        self.pc = entry;
        Ok(())
    }

    /// Generic application of any value to a materialized argument vector:
    /// the `apply` primitive, contract machinery, wrapped procedures, and
    /// the [`Machine::call`] API.
    fn apply_value(&mut self, f: Value, args: Vec<Value>) -> Result<Step, EvalError> {
        match f {
            Value::Prim(p) => self.apply_prim(p, args),
            Value::Closure(clo) => {
                self.apply_closure_vec(clo, args)?;
                Ok(Step::Enter)
            }
            Value::Wrapped(w) => match &w.kind {
                WrapKind::Terminating { label } => {
                    let label = label.clone();
                    let inner = w.inner.clone();
                    self.apply_terminating(inner, label, args)
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
                    self.apply_arrow(inner, doms, rng, pos, neg, args)
                }
            },
            other => Err(RtError::new(format!(
                "application of non-procedure {}",
                other.to_write_string()
            ))
            .into()),
        }
    }

    fn apply_closure_vec(
        &mut self,
        clo: Rc<Closure>,
        mut args: Vec<Value>,
    ) -> Result<(), EvalError> {
        self.stats.applications += 1;
        if self.monitoring_active() && !self.whitelisted[clo.def.id as usize] {
            if fast_guard_passes(self.fast_path[clo.def.id as usize].as_ref(), &args) {
                self.stats.static_skips += 1;
            } else {
                self.monitor_call_slice(&clo, &args)?;
            }
        }
        // Bind the vector directly into a fresh frame.
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
        let tmpl = &self.code.templates[def.id as usize];
        let frame_size = tmpl.frame_size as usize;
        self.locals_base = self.locals.len();
        self.stats.env_frames_allocated += 1;
        for v in args {
            self.locals.push(Slot::Val(v));
        }
        self.locals
            .resize(self.locals_base + frame_size, Slot::Val(Value::Undefined));
        let ClosureEnv::Flat(caps) = &clo.env else {
            unreachable!("IR machine applied a chained (reference) closure");
        };
        self.caps = caps.clone();
        self.pc = tmpl.entry as usize;
        Ok(())
    }

    fn apply_prim(&mut self, p: Prim, mut args: Vec<Value>) -> Result<Step, EvalError> {
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
                self.apply_value(f, args)
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
                self.attach_all(VecDeque::from(vec![c]), value, pos, neg)
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
                Ok(Step::Value(wrap_terminating(args.pop().unwrap(), label)))
            }
            _ => match call_prim(p, &args)? {
                PrimEffect::Value(v) => Ok(Step::Value(v)),
                PrimEffect::Output(text, v) => {
                    self.output.push_str(&text);
                    Ok(Step::Value(v))
                }
            },
        }
    }

    fn apply_terminating(
        &mut self,
        inner: Value,
        label: Rc<str>,
        args: Vec<Value>,
    ) -> Result<Step, EvalError> {
        // [App-Term]: outside a monitored extent, seed a *fresh* table;
        // [SC-App-Term]: inside one, keep the current table.
        let started = !self.monitoring_active();
        let saved = if started && !self.imp_table.is_empty() {
            Some(std::mem::take(&mut self.imp_table))
        } else {
            None
        };
        self.push_kont(Kont::ContractExtent { saved, started });
        self.blames.push(label);
        if started {
            self.extent_depth += 1;
        }
        self.apply_value(inner, args)
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
    ) -> Result<Step, EvalError> {
        if args.len() != doms.len() {
            return Err(EvalError::Contract(ContractErrorInfo {
                blame: neg,
                message: format!("expected {} arguments, got {}", doms.len(), args.len()),
            }));
        }
        self.push_kont(Kont::ArrowRng {
            rng,
            pos: pos.clone(),
            neg: neg.clone(),
        });
        if args.is_empty() {
            self.apply_value(inner, Vec::new())
        } else {
            let dom = doms[0].clone();
            let arg = args[0].clone();
            self.push_kont(Kont::ArrowCall {
                inner,
                doms,
                args,
                receiving: 0,
                checked: Vec::new(),
                pos: pos.clone(),
                neg: neg.clone(),
            });
            self.attach_all(VecDeque::from(vec![dom]), arg, neg, pos)
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
    ) -> Result<Step, EvalError> {
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
                    self.push_kont(Kont::FlatCheck {
                        original: current.clone(),
                        rest: contracts,
                        pos: pos.clone(),
                        neg,
                    });
                    return self.apply_value(pred, vec![current]);
                }
            }
        }
        Ok(Step::Value(current))
    }

    // ----- monitoring ----------------------------------------------------

    fn monitoring_active(&self) -> bool {
        match self.config.mode {
            SemanticsMode::Monitored | SemanticsMode::CallSeqCollect => true,
            SemanticsMode::Standard => self.extent_depth > 0,
        }
    }

    fn closure_key(&self, clo: &Closure) -> u64 {
        match self.config.monitor.key_strategy {
            KeyStrategy::Allocation => mix2(0xA110C, clo.alloc_id),
            KeyStrategy::Structural => clo.fingerprint,
            KeyStrategy::LambdaOnly => mix2(0x001A_3BDA, clo.def.id as u64),
        }
    }

    /// Steps 1–5 of the tree-walker's `monitor_call`: counters, loop-entry
    /// designation, backoff. Returns the table key when the call must
    /// actually be checked.
    fn monitor_gate(&mut self, clo: &Rc<Closure>) -> Option<u64> {
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
                    return None;
                }
            }
        }

        if !self.backoff.should_check(&key) {
            return None;
        }
        self.stats.checks += 1;
        self.guard_tick += 1;
        Some(key)
    }

    fn monitor_call_stack(
        &mut self,
        clo: &Rc<Closure>,
        args_start: usize,
    ) -> Result<(), EvalError> {
        let Some(key) = self.monitor_gate(clo) else {
            return Ok(());
        };
        let snapshot: Rc<[Value]> = Rc::from(&self.stack[args_start..]);
        self.monitor_check(clo, key, snapshot)
    }

    fn monitor_call_slice(&mut self, clo: &Rc<Closure>, args: &[Value]) -> Result<(), EvalError> {
        let Some(key) = self.monitor_gate(clo) else {
            return Ok(());
        };
        let snapshot: Rc<[Value]> = Rc::from(args.to_vec());
        self.monitor_check(clo, key, snapshot)
    }

    /// Steps 6–7 of the tree-walker's `monitor_call`: trace, then extend
    /// the size-change table under the configured strategy.
    fn monitor_check(
        &mut self,
        clo: &Rc<Closure>,
        key: u64,
        snapshot: Rc<[Value]>,
    ) -> Result<(), EvalError> {
        if self.config.trace {
            self.record_trace(clo, key, &snapshot, self.kont.len());
        }

        match self.config.mode {
            SemanticsMode::CallSeqCollect => {
                let (undo, violation) =
                    self.imp_table
                        .extend_unchecked_mut(key, snapshot, &self.config.order.clone());
                self.push_kont(Kont::Restore(undo));
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
                    let order = self.config.order.clone();
                    match self.imp_table.update_mut(key, snapshot, &order) {
                        Ok(undo) => {
                            self.push_kont(Kont::Restore(undo));
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
                    match current.update(key, snapshot, &order) {
                        Ok(table) => {
                            let depth = self.kont.len();
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

    fn record_trace(&mut self, clo: &Rc<Closure>, key: u64, args: &Rc<[Value]>, depth: usize) {
        let prev_entry = match self.config.monitor.strategy {
            TableStrategy::ContinuationMark => {
                self.marks.last().and_then(|m| m.table.get(&key).cloned())
            }
            TableStrategy::Imperative => self.imp_table.get(&key).cloned(),
        };
        let graph = prev_entry.map(|entry| {
            let g = ScGraph::from_args(&self.config.order, &entry.last_args, args);
            let names: Vec<String> = (0..args.len().max(entry.last_args.len()))
                .map(|i| format!("x{i}"))
                .collect();
            let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            g.display_with(&name_refs, &name_refs)
        });
        self.trace_events.push(TraceEvent {
            function: clo.def.describe(),
            args: args.iter().map(|a| a.to_write_string()).collect(),
            graph,
            kont_depth: depth,
        });
    }
}

fn uninitialized() -> EvalError {
    RtError::new("variable used before initialization").into()
}

pub(crate) fn arity_error(def: &LambdaDef, got: usize) -> EvalError {
    RtError::new(format!(
        "{}: expected {}{} arguments, got {got}",
        def.describe(),
        def.params,
        if def.variadic { "+" } else { "" },
    ))
    .into()
}

pub(crate) fn party_name(v: &Value) -> Result<Rc<str>, EvalError> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        Value::Sym(s) => Ok(s.clone()),
        other => Err(RtError::new(format!(
            "blame party must be a string or symbol, got {}",
            other.to_write_string()
        ))
        .into()),
    }
}

/// Figure 7's wrapping rules: closures (and wrapped procedures) are
/// wrapped, primitives pass through ([Wrap-Prim]), and non-procedures are
/// returned as-is (§3.6).
pub fn wrap_terminating(v: Value, label: Rc<str>) -> Value {
    match v {
        Value::Closure(_) | Value::Wrapped(_) => Value::Wrapped(Rc::new(WrappedData {
            inner: v,
            kind: WrapKind::Terminating { label },
        })),
        other => other,
    }
}

/// Converts external representation (quoted data) into run-time values.
pub fn datum_to_value(d: &Datum) -> Value {
    match d {
        Datum::Int(n) => Value::int(*n),
        Datum::BigInt(s) => Value::from_int(s.parse::<Int>().expect("lexer produced valid bigint")),
        Datum::Bool(b) => Value::Bool(*b),
        Datum::Char(c) => Value::Char(*c),
        Datum::Str(s) => Value::str(s),
        Datum::Sym(s) => Value::Sym(Rc::clone(s)),
        Datum::List(items) => Value::list(items.iter().map(datum_to_value).collect::<Vec<_>>()),
        Datum::Improper(items, tail) => {
            let mut acc = datum_to_value(tail);
            for item in items.iter().rev() {
                acc = Value::cons(datum_to_value(item), acc);
            }
            acc
        }
    }
}
