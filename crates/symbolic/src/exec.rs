//! The symbolic executor: λSSCT (Figure 8).
//!
//! Mirrors the monitored semantics, but arguments may be symbolic values
//! constrained by a path condition. At every application of a closure
//! whose λ is already on the current (abstract) call chain, the executor
//! computes the *symbolic* size-change graph — arcs are must-descend /
//! must-equal facts proved by the solver — records it in the function's
//! graph set, and summarizes the call with a fresh symbolic result. This
//! is the finitization: each λ body is explored at most once per chain, so
//! the analysis terminates, and the recorded one-step graphs feed the
//! Lee–Jones–Ben-Amram closure check (Figure 9).

use crate::linear::LinCon;
use crate::solver::{Branch, Delta, Solver};
use crate::sym::{extend, lookup, AtomId, AtomKind, Path, SClosure, SEnv, SFrame, SValue};
use sct_core::graph::ScGraph;
use sct_core::order::{SizeChange, WellFoundedOrder};
use sct_core::plan::PlanDomain;
use sct_interp::{datum_to_value, Value};
use sct_lang::ast::{Expr, LambdaDef, Program, TopForm};
use sct_lang::{LambdaId, Prim};
use sct_persist::PMap;
use std::collections::HashMap;
use std::rc::Rc;

/// Resource limits for the exploration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Total `eval` invocations before giving up.
    pub step_budget: u64,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            step_budget: 200_000,
        }
    }
}

/// Cap on simultaneous outcomes of one expression.
pub(crate) const MAX_OUTCOMES: usize = 256;
/// Total budget for havoc callback applications, per exploration.
pub(crate) const HAVOC_BUDGET: u32 = 64;
/// Maximum abstract chain length (defensive; chains are bounded by the
/// number of λs anyway).
pub(crate) const MAX_CHAIN: usize = 64;

/// The entry function's invariant, re-checked at summarized self-calls
/// (§4.2: "symbolic execution can also prove that the new arguments are
/// natural numbers").
#[derive(Debug, Clone)]
pub struct EntryInvariant {
    /// λ id of the entry function.
    pub id: LambdaId,
    /// Declared parameter domains.
    pub domains: Vec<PlanDomain>,
    /// Declared result domain, assumed for summarized self-calls — the
    /// function's range contract, exactly as checked-contract semantics
    /// guarantees at run time (§4.2 uses it to type the nested ack call).
    pub result: PlanDomain,
}

/// A verified callee's contract summary, as consumed by the executor: the
/// domain assumptions its proof was discharged under, the result domain a
/// call lands in, and the size-change graph sets its own exploration
/// discovered (Ben-Amram 2010: a function's size-change behavior is fully
/// captured by its set of call-site graphs). `crate::pipeline` registers
/// one per already-planned `Static` define; the executor's application
/// path then *stubs* applications of the callee — recording the summary,
/// whose graphs `merge_summaries` later weighs against the caller's, and
/// returning a fresh `result`-domain value — instead of descending into
/// the body.
#[derive(Debug, Clone)]
pub struct CalleeSummary {
    /// The summarized define's entry λ.
    pub id: LambdaId,
    /// Domain assumption per parameter (the discharged ladder rung). A
    /// stub fires only when every argument is *provably* inside these.
    pub domains: Vec<PlanDomain>,
    /// The domain every application of the callee lands in.
    pub result: PlanDomain,
    /// Size-change graph sets the callee's own exploration discovered, per
    /// λ — possibly spanning several defines (callees it descended into).
    pub graphs: Vec<(LambdaId, Vec<ScGraph>)>,
    /// The summaries the callee's exploration stubbed. Its full graph map
    /// is `graphs` plus theirs, transitively: shared, not copied, so a
    /// summary costs memory in proportion to its own body.
    pub callees: Vec<Rc<CalleeSummary>>,
    /// The summary's *foreign* λs, sorted: those in `graphs` that its own
    /// define does not own (see `ProgramIndex::owner`), unioned with every
    /// callee's foreign set. Empty — and then allocation-free — unless the
    /// exploration descended into another define's recursion; while it is
    /// empty, every set in the summary's closure belongs to the define
    /// whose summary carries it, which is what lets `merge_summaries`
    /// skip its walk.
    pub foreign: Vec<LambdaId>,
    /// The global indices of the callee's component of the global
    /// reference graph, sorted. A caller in the same component (mutual
    /// recursion) must not stub it: the callee's graphs were discovered
    /// against *its* entry, and hiding the cycle from the caller's own
    /// exploration would lose the very self-calls being judged. Same
    /// component is exactly "the callee can reach back into the caller",
    /// because an exploration only applies callees its define statically
    /// reaches. Shared by every summary of the component.
    pub component: Rc<[u32]>,
}

/// Registered summaries, keyed by the summarized define's entry λ id.
pub type SummaryTable = HashMap<LambdaId, Rc<CalleeSummary>>;

/// What [`merge_summaries`] hands back: the sets to check, the foreign
/// set a summary of the exploration would carry, and how many summaries
/// the merge visited.
#[derive(Debug)]
pub(crate) struct Merged {
    /// The sets the LJB check must pass, in λ-id order.
    pub(crate) checked: Vec<(LambdaId, Vec<ScGraph>)>,
    /// The λs of `own` the exploring define does not own, unioned with
    /// every stub's [`CalleeSummary::foreign`]; sorted.
    pub(crate) foreign: Vec<LambdaId>,
    /// Summaries the walk visited: zero when `foreign` is empty.
    pub(crate) visits: u64,
}

/// The graph sets an exploration must LJB-check, in λ-id order: every set
/// it discovered itself (`own`), unioned with whatever its stubbed
/// summaries carry for the same λ, plus the union for any λ that two
/// *different* summaries carry a set for. `owns` tells whether the
/// exploring define owns a λ; `skip` is its entry λ, whose graphs it
/// derives itself, so summaries' sets for it are left out.
///
/// A λ whose graphs all come from one summary's set is neither copied
/// nor checked: that set passed the LJB check when its define was
/// planned (or was replayed from the store, which is trusted the same
/// way), and the check holds for every subset of a set that passes it,
/// because the closure of a subset is contained in the closure of the
/// set. For the same reason it cannot overflow a closure cap that the
/// whole set stayed under.
///
/// When the foreign set `F` (see [`Merged::foreign`]) is empty, no λ can
/// have two sources: every set in a stub's closure belongs to the define
/// whose summary carries it, those defines are distinct and none is the
/// explorer, and every set in `own` belongs to the explorer. The checked
/// sets are then exactly `own`, and nothing is walked. Otherwise `stubs`
/// is walked transitively — each summary's callees too — visiting each
/// summary once, and sets are told apart by identity (which summary holds
/// them), never by content.
pub(crate) fn merge_summaries(
    own: &HashMap<LambdaId, Vec<ScGraph>>,
    stubs: &[Rc<CalleeSummary>],
    skip: LambdaId,
    owns: impl Fn(LambdaId) -> bool,
) -> Merged {
    let mut foreign: Vec<LambdaId> = own
        .keys()
        .copied()
        .filter(|&id| !owns(id))
        .chain(stubs.iter().flat_map(|s| s.foreign.iter().copied()))
        .collect();
    foreign.sort_unstable();
    foreign.dedup();
    let mut checked = own.clone();
    let visits = if foreign.is_empty() {
        0
    } else {
        walk_summaries(&mut checked, stubs, skip)
    };
    Merged {
        checked: sorted(checked),
        foreign,
        visits,
    }
}

/// The walk of [`merge_summaries`]: visits every summary `stubs` reach,
/// each once, and unions into `checked` each carried set that can fail
/// (see there). Returns the number of summaries visited.
fn walk_summaries(
    checked: &mut HashMap<LambdaId, Vec<ScGraph>>,
    stubs: &[Rc<CalleeSummary>],
    skip: LambdaId,
) -> u64 {
    let mut seen = std::collections::HashSet::new();
    let mut stack: Vec<&Rc<CalleeSummary>> = stubs.iter().collect();
    let mut carried: Vec<(LambdaId, &[ScGraph])> = Vec::new();
    while let Some(s) = stack.pop() {
        if !seen.insert(Rc::as_ptr(s)) {
            continue;
        }
        carried.extend(
            s.graphs
                .iter()
                .filter(|(id, _)| *id != skip)
                .map(|(id, set)| (*id, set.as_slice())),
        );
        stack.extend(&s.callees);
    }
    carried.sort_by_key(|(id, _)| *id);
    for group in carried.chunk_by(|a, b| a.0 == b.0) {
        let id = group[0].0;
        if group.len() == 1 && !checked.contains_key(&id) {
            continue;
        }
        let set = checked.entry(id).or_default();
        for g in group.iter().flat_map(|(_, set)| set.iter()) {
            if !set.contains(g) {
                set.push(g.clone());
            }
        }
    }
    seen.len() as u64
}

fn sorted(sets: HashMap<LambdaId, Vec<ScGraph>>) -> Vec<(LambdaId, Vec<ScGraph>)> {
    let mut sets: Vec<_> = sets.into_iter().collect();
    sets.sort_by_key(|(id, _)| *id);
    sets
}

/// One evaluation outcome along a path.
#[derive(Debug, Clone)]
pub enum SOut {
    /// A value.
    Val(SValue),
    /// The path ended in a run-time error (which terminates the program,
    /// so it is benign for termination verification).
    Abort,
}

type Outcomes = Vec<(Path, SOut)>;
type Chain = PMap<LambdaId, Rc<[SValue]>>;

/// The symbolic executor.
pub struct Executor<'p> {
    program: &'p Program,
    /// Limits.
    pub config: ExecConfig,
    /// Kinds of allocated atoms.
    pub atom_kinds: Vec<AtomKind>,
    /// Discovered self-call graphs per λ.
    pub graphs: HashMap<LambdaId, Vec<ScGraph>>,
    /// When set, the exploration was not exhaustive and the verdict must
    /// be "not verified"; carries the first reason.
    pub incomplete: Option<String>,
    /// Number of applications of an *opaque* value (a symbolic atom or
    /// term standing for an unknown function), which the executor havocs
    /// as a terminating black box. The per-function verdict is then
    /// *modular* — "terminates provided its opaque callees do" — which is
    /// the paper's §4 claim but NOT enough for the hybrid pipeline to
    /// drop run-time monitoring (an unmonitored mutual loop through
    /// opaque calls would go uncaught); `crate::pipeline` keeps any
    /// function with a nonzero count on the monitored path.
    pub opaque_applications: u64,
    /// Number of applications answered from a registered [`CalleeSummary`]
    /// instead of body descent. Unlike opaque applications these carry no
    /// soundness debt — the summary *is* a termination proof for the
    /// callee — but the pipeline tracks the count for observability and
    /// to know when a non-verified outcome must be re-derived without
    /// stubs to stay bit-identical to full descent.
    pub stubbed_applications: u64,
    /// The distinct summaries those applications used, in first-use
    /// order; `merge_summaries` decides which of their graphs must be
    /// checked together with `graphs`.
    pub stubs: Vec<Rc<CalleeSummary>>,
    /// The evaluated top-level environment and its failed flags, shared
    /// with the [`GlobalSnapshot`] this executor started from.
    globals: Rc<Vec<SValue>>,
    failed: Rc<Vec<bool>>,
    /// Kinds of the snapshot's atoms, and what of the snapshot this
    /// exploration has read so far, renumbered (see [`Executor::import`]).
    snapshot_kinds: Rc<[AtomKind]>,
    imported: Imported,
    steps: u64,
    havoc_left: u32,
    entry: Option<EntryInvariant>,
    summaries: Option<&'p SummaryTable>,
    /// Global index of the define under exploration, for the
    /// mutual-recursion check against [`CalleeSummary::component`].
    caller_global: Option<u32>,
}

/// The evaluated top-level environment of a program, shared by every
/// exploration of one planning pass (or one verifier call) through
/// [`Executor::with_snapshot`].
///
/// Each `define` initializer is evaluated once, in source order, with a
/// step count and an incomplete marker of its own. A global whose
/// initializer does not end in exactly one complete value is *failed*:
/// an exploration that reads it stops there, incomplete, naming the
/// global. Nothing else carries over — an exploration starts at zero
/// steps and with no incomplete marker, so its fuel and verdict depend
/// only on the globals it actually reads. Neither do atom numbers: a non-λ
/// initializer can evaluate to an atom (`(define n (length xs))`), but an
/// exploration numbers its atoms from zero and gives a snapshot atom the
/// next number when it first reads a value holding it. Atom names in a
/// define's verdict therefore depend only on what the define reaches, not
/// on which other initializers allocated atoms.
pub struct GlobalSnapshot {
    globals: Rc<Vec<SValue>>,
    failed: Rc<Vec<bool>>,
    atom_kinds: Rc<[AtomKind]>,
}

/// The snapshot atoms, closures and frames one exploration has read, by
/// snapshot identity, mapped to their renumbered copies. Closures and
/// frames are keyed by pointer so that sharing, and the cycles of
/// `letrec` frames, survive the copy.
#[derive(Default)]
struct Imported {
    atoms: HashMap<AtomId, AtomId>,
    closures: HashMap<*const SClosure, Rc<SClosure>>,
    frames: HashMap<*const SFrame, Rc<SFrame>>,
}

impl GlobalSnapshot {
    /// Evaluates `program`'s definitions once.
    pub fn build(program: &Program, config: &ExecConfig) -> GlobalSnapshot {
        let n = program.global_names.len();
        let mut ex = Executor::with_snapshot(
            program,
            config.clone(),
            &GlobalSnapshot {
                globals: Rc::new(vec![SValue::Conc(Value::Undefined); n]),
                failed: Rc::new(vec![false; n]),
                atom_kinds: Rc::from([]),
            },
        );
        for form in &program.top_level {
            if let TopForm::Define { index, expr } = form {
                ex.steps = 0;
                ex.incomplete = None;
                ex.havoc_left = HAVOC_BUDGET;
                let outs = ex.eval(expr, &None, Path::new(), &PMap::new());
                let value = match (outs.as_slice(), &ex.incomplete) {
                    ([(_, SOut::Val(v))], None) => Some(v.clone()),
                    _ => None,
                };
                let i = *index as usize;
                Rc::make_mut(&mut ex.failed)[i] = value.is_none();
                Rc::make_mut(&mut ex.globals)[i] = value.unwrap_or(SValue::Conc(Value::Undefined));
            }
        }
        GlobalSnapshot {
            globals: ex.globals,
            failed: ex.failed,
            atom_kinds: Rc::from(ex.atom_kinds),
        }
    }

    /// Whether global `i`'s initializer failed to evaluate. The only fact
    /// here that source order decides: an initializer reading a global
    /// defined after it fails in that order alone.
    pub(crate) fn failed(&self, i: u32) -> bool {
        self.failed[i as usize]
    }
}

struct PathOrder<'a> {
    kinds: &'a [AtomKind],
    path: &'a Path,
}

impl<'a> WellFoundedOrder<SValue> for PathOrder<'a> {
    fn relate(&self, old: &SValue, new: &SValue) -> SizeChange {
        Solver::new(self.kinds).relate(self.path, old, new)
    }
}

impl<'p> Executor<'p> {
    /// Creates an executor over a [`GlobalSnapshot`] of the same program,
    /// at zero steps, with no incomplete marker and no atoms.
    pub fn with_snapshot(
        program: &'p Program,
        config: ExecConfig,
        snapshot: &GlobalSnapshot,
    ) -> Executor<'p> {
        Executor {
            program,
            config,
            atom_kinds: Vec::new(),
            graphs: HashMap::new(),
            incomplete: None,
            opaque_applications: 0,
            stubbed_applications: 0,
            stubs: Vec::new(),
            globals: snapshot.globals.clone(),
            failed: snapshot.failed.clone(),
            snapshot_kinds: snapshot.atom_kinds.clone(),
            imported: Imported::default(),
            steps: 0,
            havoc_left: HAVOC_BUDGET,
            entry: None,
            summaries: None,
            caller_global: None,
        }
    }

    /// Steps executed so far — the fuel drawn against
    /// [`ExecConfig::step_budget`].
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Sets the entry invariant checked at summarized entry self-calls.
    pub fn set_entry(&mut self, entry: EntryInvariant) {
        self.entry = Some(entry);
    }

    /// Registers verified callee summaries for this exploration.
    /// `caller_global` is the global index of the define under exploration
    /// (when it has one): a summary whose `component` contains it is
    /// never stubbed, so mutual recursion always descends.
    pub fn set_summaries(&mut self, table: &'p SummaryTable, caller_global: Option<u32>) {
        self.summaries = Some(table);
        self.caller_global = caller_global;
    }

    /// The current value of a global, by name.
    pub fn global(&mut self, name: &str) -> Option<SValue> {
        let i = self.program.global_index(name)?;
        self.global_at(i)
    }

    /// The current value of a global, by index — [`Executor::global`]
    /// without the linear name scan, for callers that already resolved
    /// the index (a planning pass visiting every define).
    pub fn global_at(&mut self, i: u32) -> Option<SValue> {
        let v = self.globals.get(i as usize)?.clone();
        Some(self.import(&v))
    }

    /// A snapshot value in this exploration's atom numbering: each
    /// snapshot atom gets the next exploration atom the first time it is
    /// read, and keeps it. Without snapshot atoms this is the identity.
    fn import(&mut self, v: &SValue) -> SValue {
        match v {
            _ if self.snapshot_kinds.is_empty() => v.clone(),
            SValue::Conc(_) => v.clone(),
            SValue::Atom(a) => {
                let next = self.atom_kinds.len() as AtomId;
                let b = *self.imported.atoms.entry(*a).or_insert(next);
                if b == next {
                    self.atom_kinds.push(self.snapshot_kinds[*a as usize]);
                }
                SValue::Atom(b)
            }
            SValue::Term(p, args) => {
                SValue::Term(*p, args.iter().map(|x| self.import(x)).collect())
            }
            SValue::SPair(pair) => {
                SValue::SPair(Rc::new((self.import(&pair.0), self.import(&pair.1))))
            }
            SValue::SClosure(c) if c.env.is_none() => v.clone(),
            SValue::SClosure(c) => {
                let key = Rc::as_ptr(c);
                if !self.imported.closures.contains_key(&key) {
                    let env = self.import_env(&c.env);
                    // Importing the environment may have reached this very
                    // closure through a `letrec` frame: keep that copy.
                    let copy = Rc::new(SClosure {
                        def: c.def.clone(),
                        env,
                    });
                    self.imported.closures.entry(key).or_insert(copy);
                }
                SValue::SClosure(self.imported.closures[&key].clone())
            }
        }
    }

    fn import_env(&mut self, env: &SEnv) -> SEnv {
        let frame = env.as_ref()?;
        let key = Rc::as_ptr(frame);
        if let Some(copy) = self.imported.frames.get(&key) {
            return Some(copy.clone());
        }
        let parent = self.import_env(&frame.parent);
        let copy = Rc::new(SFrame {
            slots: std::cell::RefCell::new(Vec::new()),
            parent,
        });
        // Registered before its slots are filled, so a slot that reaches
        // back to this frame finds the copy instead of recursing.
        self.imported.frames.insert(key, copy.clone());
        let slots = frame.slots.borrow().clone();
        let slots = slots.iter().map(|v| self.import(v)).collect();
        *copy.slots.borrow_mut() = slots;
        Some(copy)
    }

    /// Allocates a fresh atom.
    pub fn fresh(&mut self, kind: AtomKind) -> SValue {
        let id = self.atom_kinds.len() as AtomId;
        self.atom_kinds.push(kind);
        SValue::Atom(id)
    }

    /// Allocates an atom constrained by a domain, extending the path.
    pub fn fresh_in_domain(&mut self, d: PlanDomain, path: &Path) -> (SValue, Path) {
        match d {
            PlanDomain::Nat => {
                let a = self.fresh(AtomKind::Int);
                let SValue::Atom(id) = a else { unreachable!() };
                let p = path.assume(LinCon::ge0(crate::linear::Lin::var(id)));
                (a, p)
            }
            PlanDomain::Pos => {
                let a = self.fresh(AtomKind::Int);
                let SValue::Atom(id) = a else { unreachable!() };
                let p = path.assume(LinCon::gt0(crate::linear::Lin::var(id)));
                (a, p)
            }
            PlanDomain::Int => (self.fresh(AtomKind::Int), path.clone()),
            PlanDomain::List => (self.fresh(AtomKind::List), path.clone()),
            PlanDomain::Any => (self.fresh(AtomKind::Any), path.clone()),
        }
    }

    fn note_incomplete(&mut self, why: impl Into<String>) {
        if self.incomplete.is_none() {
            self.incomplete = Some(why.into());
        }
    }

    fn apply_delta(&mut self, path: &Path, d: &Delta) -> Option<Path> {
        match d {
            Delta::Lin(c) => {
                if Solver::new(&self.atom_kinds).sat_with(path, Some(c)) {
                    Some(path.assume(c.clone()))
                } else {
                    None
                }
            }
            Delta::BindNil(a) => Some(path.bind(*a, SValue::Conc(Value::Nil))),
            Delta::BindPair(a) => {
                let cdr_kind = if self.atom_kinds[*a as usize] == AtomKind::List {
                    AtomKind::List
                } else {
                    AtomKind::Any
                };
                let car = self.fresh(AtomKind::Any);
                let cdr = self.fresh(cdr_kind);
                Some(path.bind(*a, SValue::SPair(Rc::new((car, cdr)))))
            }
            Delta::None => Some(path.clone()),
        }
    }

    /// Evaluates an expression to a set of path/outcome pairs.
    pub fn eval(&mut self, e: &Expr, env: &SEnv, path: Path, chain: &Chain) -> Outcomes {
        self.steps += 1;
        if self.steps > self.config.step_budget {
            self.note_incomplete("step budget exhausted");
            return vec![(path, SOut::Abort)];
        }
        match e {
            Expr::Quote(d) => vec![(path, SOut::Val(SValue::Conc(datum_to_value(d))))],
            Expr::Var(v) => {
                let val = lookup(env, v.depth, v.slot);
                if matches!(val, SValue::Conc(Value::Undefined)) {
                    return vec![(path, SOut::Abort)];
                }
                vec![(path, SOut::Val(val))]
            }
            Expr::Global(i) => {
                if self.failed[*i as usize] {
                    self.note_incomplete(format!(
                        "definition of {} did not evaluate deterministically",
                        self.program.global_names[*i as usize]
                    ));
                    return vec![(path, SOut::Abort)];
                }
                let val = self.globals[*i as usize].clone();
                let val = self.import(&val);
                if matches!(val, SValue::Conc(Value::Undefined)) {
                    return vec![(path, SOut::Abort)];
                }
                vec![(path, SOut::Val(val))]
            }
            Expr::PrimRef(p) => vec![(path, SOut::Val(SValue::Conc(Value::Prim(*p))))],
            Expr::Lambda(def) => vec![(
                path,
                SOut::Val(SValue::SClosure(Rc::new(SClosure {
                    def: def.clone(),
                    env: env.clone(),
                }))),
            )],
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let mut out = Vec::new();
                for (p, o) in self.eval(cond, env, path, chain) {
                    match o {
                        SOut::Abort => out.push((p, SOut::Abort)),
                        SOut::Val(c) => {
                            let branch = Solver::new(&self.atom_kinds).classify(&p, &c);
                            match branch {
                                Branch::Det(true) => {
                                    out.extend(self.eval(then_branch, env, p, chain))
                                }
                                Branch::Det(false) => {
                                    out.extend(self.eval(else_branch, env, p, chain))
                                }
                                Branch::Split {
                                    then_delta,
                                    else_delta,
                                } => {
                                    if let Some(tp) = self.apply_delta(&p, &then_delta) {
                                        out.extend(self.eval(then_branch, env, tp, chain));
                                    }
                                    if let Some(ep) = self.apply_delta(&p, &else_delta) {
                                        out.extend(self.eval(else_branch, env, ep, chain));
                                    }
                                }
                                Branch::Opaque => {
                                    out.extend(self.eval(then_branch, env, p.clone(), chain));
                                    out.extend(self.eval(else_branch, env, p, chain));
                                }
                            }
                        }
                    }
                    if out.len() > MAX_OUTCOMES {
                        self.note_incomplete("outcome cap exceeded");
                        break;
                    }
                }
                out
            }
            Expr::App { func, args } => {
                let mut out = Vec::new();
                for (p, o) in self.eval(func, env, path, chain) {
                    match o {
                        SOut::Abort => out.push((p, SOut::Abort)),
                        SOut::Val(f) => {
                            for (p2, argres) in self.eval_args(args, env, p, chain) {
                                match argres {
                                    None => out.push((p2, SOut::Abort)),
                                    Some(vals) => {
                                        out.extend(self.apply(&f, vals, p2, chain));
                                    }
                                }
                            }
                        }
                    }
                    if out.len() > MAX_OUTCOMES {
                        self.note_incomplete("outcome cap exceeded");
                        break;
                    }
                }
                out
            }
            Expr::Seq(exprs) => {
                let mut states: Vec<(Path, SOut)> =
                    vec![(path, SOut::Val(SValue::Conc(Value::Void)))];
                for e in exprs.iter() {
                    let mut next = Vec::new();
                    for (p, o) in states {
                        match o {
                            SOut::Abort => next.push((p, SOut::Abort)),
                            SOut::Val(_) => next.extend(self.eval(e, env, p, chain)),
                        }
                    }
                    states = next;
                    if states.len() > MAX_OUTCOMES {
                        self.note_incomplete("outcome cap exceeded");
                        break;
                    }
                }
                states
            }
            Expr::SetLocal { .. } | Expr::SetGlobal { .. } => {
                self.note_incomplete("set! is not supported symbolically");
                vec![(path, SOut::Abort)]
            }
            Expr::Let { inits, body } => {
                let mut out = Vec::new();
                for (p, argres) in self.eval_args(inits, env, path, chain) {
                    match argres {
                        None => out.push((p, SOut::Abort)),
                        Some(vals) => {
                            let new_env = extend(env, vals);
                            out.extend(self.eval(body, &new_env, p, chain));
                        }
                    }
                }
                out
            }
            Expr::LetRec { inits, body } => {
                let new_env = extend(env, vec![SValue::Conc(Value::Undefined); inits.len()]);
                let mut p = path;
                for (i, init) in inits.iter().enumerate() {
                    let outs = self.eval(init, &new_env, p.clone(), chain);
                    match outs.into_iter().next() {
                        Some((p2, SOut::Val(v))) => {
                            new_env.as_ref().unwrap().slots.borrow_mut()[i] = v;
                            p = p2;
                        }
                        _ => {
                            self.note_incomplete("letrec initializer forked or aborted");
                            return vec![(p, SOut::Abort)];
                        }
                    }
                }
                self.eval(body, &new_env, p, chain)
            }
            Expr::TermC { body, .. } => self.eval(body, env, path, chain),
        }
    }

    /// Evaluates a list of expressions left to right, threading paths.
    /// `None` marks an aborted path.
    fn eval_args(
        &mut self,
        exprs: &[Expr],
        env: &SEnv,
        path: Path,
        chain: &Chain,
    ) -> Vec<(Path, Option<Vec<SValue>>)> {
        let mut states: Vec<(Path, Option<Vec<SValue>>)> = vec![(path, Some(Vec::new()))];
        for e in exprs {
            let mut next = Vec::new();
            for (p, acc) in states {
                match acc {
                    None => next.push((p, None)),
                    Some(vals) => {
                        for (p2, o) in self.eval(e, env, p.clone(), chain) {
                            match o {
                                SOut::Abort => next.push((p2, None)),
                                SOut::Val(v) => {
                                    let mut vs = vals.clone();
                                    vs.push(v);
                                    next.push((p2, Some(vs)));
                                }
                            }
                        }
                    }
                }
            }
            states = next;
            if states.len() > MAX_OUTCOMES {
                self.note_incomplete("outcome cap exceeded");
                states.truncate(MAX_OUTCOMES);
            }
        }
        states
    }

    /// Applies a (possibly symbolic) function value.
    pub fn apply(&mut self, f: &SValue, args: Vec<SValue>, path: Path, chain: &Chain) -> Outcomes {
        let f = path.resolve(f);
        match &f {
            SValue::SClosure(clo) => self.apply_closure(clo.clone(), args, path, chain),
            SValue::Conc(Value::Prim(p)) => self.apply_prim(*p, args, path, chain),
            SValue::Atom(_) | SValue::Term(..) => {
                // Unknown function: havoc. Closure arguments may be called
                // back with arbitrary inputs, so explore those too.
                self.opaque_applications += 1;
                for arg in &args {
                    if let SValue::SClosure(c) = path.resolve(arg) {
                        if self.havoc_left > 0 {
                            self.havoc_left -= 1;
                            let mut fresh_args = Vec::new();
                            let mut p = path.clone();
                            for _ in 0..c.def.params {
                                let (a, p2) = self.fresh_in_domain(PlanDomain::Any, &p);
                                p = p2;
                                fresh_args.push(a);
                            }
                            let _ = self.apply_closure(c.clone(), fresh_args, p, chain);
                        } else {
                            self.note_incomplete("havoc budget exhausted");
                        }
                    }
                }
                let r = self.fresh(AtomKind::Any);
                vec![(path, SOut::Val(r))]
            }
            _ => vec![(path, SOut::Abort)],
        }
    }

    fn apply_closure(
        &mut self,
        clo: Rc<SClosure>,
        mut args: Vec<SValue>,
        path: Path,
        chain: &Chain,
    ) -> Outcomes {
        let def = clo.def.clone();
        let required = def.params as usize;
        if def.variadic {
            if args.len() < required {
                return vec![(path, SOut::Abort)];
            }
            let rest = args.split_off(required);
            let mut tail = SValue::Conc(Value::Nil);
            for v in rest.into_iter().rev() {
                tail = SValue::SPair(Rc::new((v, tail)));
            }
            args.push(tail);
        } else if args.len() != required {
            return vec![(path, SOut::Abort)];
        }

        if let Some(prev) = chain.get(&def.id) {
            // Summarized self-call: record the symbolic size-change graph
            // and return a fresh result (the finitization step).
            let g = {
                let order = PathOrder {
                    kinds: &self.atom_kinds,
                    path: &path,
                };
                ScGraph::from_args(&order, prev, &args)
            };
            let set = self.graphs.entry(def.id).or_default();
            if !set.contains(&g) {
                set.push(g);
            }
            let prev_args = prev.clone();
            self.check_skip_invariant(def.id, &prev_args, &args, &path);
            let result_domain = match self.entry.as_ref() {
                Some(e) if e.id == def.id => e.result,
                _ => PlanDomain::Any,
            };
            let (r, path) = self.fresh_in_domain(result_domain, &path);
            return vec![(path, SOut::Val(r))];
        }
        if let Some(out) = self.try_stub(&def, &args, &path) {
            return out;
        }
        if chain.len() >= MAX_CHAIN {
            self.note_incomplete("chain depth cap exceeded");
            let r = self.fresh(AtomKind::Any);
            return vec![(path, SOut::Val(r))];
        }
        // Record the arguments *resolved at entry*: a later refinement of
        // an entry-arbitrary atom is case analysis, so an atom stored here
        // unrefined really did cover every value.
        let entry_view: Vec<SValue> = args.iter().map(|a| path.resolve(a)).collect();
        let chain2 = chain.insert(def.id, Rc::from(entry_view));
        let env = extend(&clo.env, args);
        self.eval(&def.body, &env, path, &chain2)
    }

    /// Answers an application from a registered [`CalleeSummary`] when
    /// that is sound, or `None` to descend into the body as usual.
    ///
    /// Soundness conditions (see ARCHITECTURE.md, "Contract summaries"):
    /// the callee must have a verified summary (only `Static` defines get
    /// one, so opaque- and mutation-tainted callees always descend); it
    /// must not be the entry λ (the entry's own self-calls are the very
    /// thing being judged) nor in the caller's component of the reference
    /// graph, i.e. able to reach back into it (mutual recursion must
    /// expose its cycle to the caller's exploration); the
    /// application must match the summarized arity exactly; and every
    /// argument must be *provably* inside the summary's guard domain on
    /// the current path — the same entailment the summarized self-call
    /// check uses, because the callee's proof only covers those inputs.
    ///
    /// The stub records the summary, whose graph sets `merge_summaries`
    /// weighs against the caller's discovered sets when the exploration
    /// ends (graph composition at the apply site, instead of rediscovery
    /// by descent) — except any set for the entry λ itself, which must
    /// only ever contain self-calls this exploration actually observed —
    /// and returns a fresh value in the summary's result domain, exactly
    /// like a summarized self-call returns a fresh value in the entry's
    /// declared result domain.
    fn try_stub(&mut self, def: &Rc<LambdaDef>, args: &[SValue], path: &Path) -> Option<Outcomes> {
        let s = self.summaries?.get(&def.id)?.clone();
        if def.variadic || args.len() != s.domains.len() {
            return None;
        }
        let entry_id = self.entry.as_ref().map(|e| e.id);
        if entry_id == Some(def.id) {
            return None;
        }
        if let Some(caller) = self.caller_global {
            if s.component.binary_search(&caller).is_ok() {
                return None;
            }
        }
        {
            let solver = Solver::new(&self.atom_kinds);
            for (d, arg) in s.domains.iter().zip(args.iter()) {
                if !in_domain(&solver, path, arg, *d, &self.atom_kinds) {
                    return None;
                }
            }
        }
        self.stubbed_applications += 1;
        let result = s.result;
        if !self.stubs.iter().any(|t| Rc::ptr_eq(t, &s)) {
            self.stubs.push(s);
        }
        let (r, path) = self.fresh_in_domain(result, path);
        Some(vec![(path, SOut::Val(r))])
    }

    /// At a summarized self-call, the one symbolic body execution covers
    /// all reachable entries only when the new arguments still satisfy the
    /// entry condition (§4.2). For the entry function we re-check the
    /// declared domains; for helpers we require kind-stability.
    fn check_skip_invariant(&mut self, id: LambdaId, prev: &[SValue], new: &[SValue], path: &Path) {
        let mut failures: Vec<String> = Vec::new();
        {
            let solver = Solver::new(&self.atom_kinds);
            if let Some(entry) = self.entry.as_ref() {
                if entry.id == id {
                    for (d, arg) in entry.domains.iter().zip(new.iter()) {
                        if !in_domain(&solver, path, arg, *d, &self.atom_kinds) {
                            failures.push(format!(
                                "recursive call argument {} may leave the entry domain {:?}",
                                arg.show(),
                                d
                            ));
                        }
                    }
                } else {
                    for (p, n) in prev.iter().zip(new.iter()) {
                        if !kind_stable(&solver, path, p, n, &self.atom_kinds) {
                            failures.push(format!(
                                "recursive call argument changed kind: {} vs {}",
                                p.show(),
                                n.show()
                            ));
                        }
                    }
                }
            } else {
                for (p, n) in prev.iter().zip(new.iter()) {
                    if !kind_stable(&solver, path, p, n, &self.atom_kinds) {
                        failures.push(format!(
                            "recursive call argument changed kind: {} vs {}",
                            p.show(),
                            n.show()
                        ));
                    }
                }
            }
        }
        for f in failures {
            self.note_incomplete(f);
        }
    }

    // ----- primitives ---------------------------------------------------

    fn apply_prim(&mut self, p: Prim, args: Vec<SValue>, path: Path, chain: &Chain) -> Outcomes {
        match p {
            Prim::TerminatingC => {
                // term/c is transparent to the static analysis: the wrapped
                // behavior is exactly what is being verified.
                match args.into_iter().next() {
                    Some(v) => return vec![(path, SOut::Val(v))],
                    None => return vec![(path, SOut::Abort)],
                }
            }
            Prim::Error => return vec![(path, SOut::Abort)],
            Prim::Apply => {
                let mut args = args;
                if args.len() < 2 {
                    return vec![(path, SOut::Abort)];
                }
                let f = args.remove(0);
                let tail = args.pop().unwrap();
                match list_elements(&path, &tail) {
                    Some(spread) => {
                        args.extend(spread);
                        return self.apply(&f, args, path, chain);
                    }
                    None => {
                        self.note_incomplete("apply with symbolic argument list");
                        let r = self.fresh(AtomKind::Any);
                        return vec![(path, SOut::Val(r))];
                    }
                }
            }
            Prim::Contract | Prim::FlatC | Prim::ArrowC | Prim::AndC => {
                self.note_incomplete("contract combinators are not modeled symbolically");
                let r = self.fresh(AtomKind::Any);
                return vec![(path, SOut::Val(r))];
            }
            _ => {}
        }

        // Fully concrete arguments: run the real primitive.
        if args
            .iter()
            .all(|a| matches!(path.resolve(a), SValue::Conc(_)))
        {
            let conc: Vec<Value> = args
                .iter()
                .map(|a| match path.resolve(a) {
                    SValue::Conc(v) => v,
                    _ => unreachable!(),
                })
                .collect();
            return match sct_interp::prims::call_prim(p, &conc) {
                Ok(effect) => {
                    let v = match effect {
                        sct_interp::prims::PrimEffect::Value(v) => v,
                        sct_interp::prims::PrimEffect::Output(_, v) => v,
                    };
                    vec![(path, SOut::Val(SValue::Conc(v)))]
                }
                Err(_) => vec![(path, SOut::Abort)],
            };
        }

        // Symbolic cases.
        match p {
            Prim::Cons => {
                let mut it = args.into_iter();
                match (it.next(), it.next()) {
                    (Some(a), Some(d)) => {
                        vec![(path, SOut::Val(SValue::SPair(Rc::new((a, d)))))]
                    }
                    _ => vec![(path, SOut::Abort)],
                }
            }
            Prim::List => {
                let mut tail = SValue::Conc(Value::Nil);
                for v in args.into_iter().rev() {
                    tail = SValue::SPair(Rc::new((v, tail)));
                }
                vec![(path, SOut::Val(tail))]
            }
            Prim::Car
            | Prim::Cdr
            | Prim::Caar
            | Prim::Cadr
            | Prim::Cdar
            | Prim::Cddr
            | Prim::Caddr
            | Prim::Cdddr
            | Prim::Cadddr => {
                if args.len() != 1 {
                    return vec![(path, SOut::Abort)];
                }
                let word = match p {
                    Prim::Car => "a",
                    Prim::Cdr => "d",
                    Prim::Caar => "aa",
                    Prim::Cadr => "ad",
                    Prim::Cdar => "da",
                    Prim::Cddr => "dd",
                    Prim::Caddr => "add",
                    Prim::Cdddr => "ddd",
                    _ => "addd",
                };
                let mut cur = args[0].clone();
                let mut cur_path = path;
                for c in word.chars().rev() {
                    match self.project(&cur, c == 'a', cur_path.clone()) {
                        Some((v, p2)) => {
                            cur = v;
                            cur_path = p2;
                        }
                        None => return vec![(cur_path, SOut::Abort)],
                    }
                }
                vec![(cur_path, SOut::Val(cur))]
            }
            // Arithmetic keeps symbolic structure for the solver.
            Prim::Add
            | Prim::Sub
            | Prim::Mul
            | Prim::Quotient
            | Prim::Remainder
            | Prim::Modulo
            | Prim::Abs
            | Prim::Min
            | Prim::Max
            | Prim::Add1
            | Prim::Sub1
            | Prim::Gcd
            | Prim::Expt => {
                vec![(path, SOut::Val(SValue::Term(p, Rc::from(args))))]
            }
            // Predicates and comparisons stay symbolic; `classify` gives
            // them meaning at branches.
            Prim::NumEq
            | Prim::Lt
            | Prim::Le
            | Prim::Gt
            | Prim::Ge
            | Prim::IsZero
            | Prim::IsNegative
            | Prim::IsPositive
            | Prim::IsEven
            | Prim::IsOdd
            | Prim::IsNumber
            | Prim::IsInteger
            | Prim::Not
            | Prim::IsNull
            | Prim::IsPair
            | Prim::IsBoolean
            | Prim::IsSymbol
            | Prim::IsString
            | Prim::IsChar
            | Prim::IsProcedure
            | Prim::IsVoid
            | Prim::IsEq
            | Prim::IsEqv
            | Prim::IsEqual
            | Prim::CharEq
            | Prim::CharLt
            | Prim::StringEq
            | Prim::StringLt
            | Prim::IsList => {
                vec![(path, SOut::Val(SValue::Term(p, Rc::from(args))))]
            }
            // Searches with a symbolic key over a known spine fork over
            // the possible hits (what `dderiv`'s dispatch table needs — its
            // table holds closures, so the hit must be the *actual* entry,
            // not a havoc atom, or the dispatched call goes unexplored).
            Prim::Assq | Prim::Assv | Prim::Assoc => {
                if let Some(entries) = list_elements(&path, &args[1]) {
                    let mut out: Outcomes = entries
                        .into_iter()
                        .map(|e| (path.clone(), SOut::Val(e)))
                        .collect();
                    out.push((path, SOut::Val(SValue::Conc(Value::Bool(false)))));
                    out
                } else {
                    let r = self.fresh(AtomKind::Any);
                    vec![(path, SOut::Val(r))]
                }
            }
            Prim::Memq | Prim::Memv | Prim::Member => match list_suffixes(&path, &args[1]) {
                Some(suffixes) => {
                    let mut out: Outcomes = suffixes
                        .into_iter()
                        .map(|sfx| (path.clone(), SOut::Val(sfx)))
                        .collect();
                    out.push((path, SOut::Val(SValue::Conc(Value::Bool(false)))));
                    out
                }
                None => {
                    let r = self.fresh(AtomKind::Any);
                    vec![(path, SOut::Val(r))]
                }
            },
            Prim::Length | Prim::StringLength | Prim::CharToInteger | Prim::HashCount => {
                let r = self.fresh(AtomKind::Int);
                vec![(path, SOut::Val(r))]
            }
            Prim::Append | Prim::Reverse | Prim::ListTail => {
                let kind = if args
                    .iter()
                    .all(|a| is_list_like(&path, a, &self.atom_kinds))
                {
                    AtomKind::List
                } else {
                    AtomKind::Any
                };
                let r = self.fresh(kind);
                vec![(path, SOut::Val(r))]
            }
            _ => {
                let r = self.fresh(AtomKind::Any);
                vec![(path, SOut::Val(r))]
            }
        }
    }

    /// Projects car/cdr out of a possibly symbolic pair, refining atoms.
    fn project(&mut self, v: &SValue, car: bool, path: Path) -> Option<(SValue, Path)> {
        match path.resolve(v) {
            SValue::SPair(p) => Some((if car { p.0.clone() } else { p.1.clone() }, path)),
            SValue::Conc(Value::Pair(p)) => Some((
                SValue::Conc(if car { p.car.clone() } else { p.cdr.clone() }),
                path,
            )),
            SValue::Atom(a) => {
                let kind = self.atom_kinds[a as usize];
                if kind == AtomKind::Int {
                    return None;
                }
                let cdr_kind = if kind == AtomKind::List {
                    AtomKind::List
                } else {
                    AtomKind::Any
                };
                let car_v = self.fresh(AtomKind::Any);
                let cdr_v = self.fresh(cdr_kind);
                let p2 = path.bind(a, SValue::SPair(Rc::new((car_v.clone(), cdr_v.clone()))));
                Some((if car { car_v } else { cdr_v }, p2))
            }
            _ => None,
        }
    }
}

/// Collects list elements through symbolic pairs when the spine is known.
fn list_elements(path: &Path, v: &SValue) -> Option<Vec<SValue>> {
    let mut out = Vec::new();
    let mut cur = path.resolve(v);
    loop {
        match cur {
            SValue::Conc(Value::Nil) => return Some(out),
            SValue::Conc(Value::Pair(p)) => {
                out.push(SValue::Conc(p.car.clone()));
                cur = SValue::Conc(p.cdr.clone());
            }
            SValue::SPair(p) => {
                out.push(p.0.clone());
                cur = path.resolve(&p.1);
            }
            _ => return None,
        }
    }
}

/// True when a value is integer-valued on every concretization: a linear
/// term, or any arithmetic primitive application (total on integers).
/// Is `v` *provably* inside domain `d` on `path`? The entailment behind
/// both the summarized-self-call invariant re-check (§4.2) and the
/// callee-stub guard check: `Nat`/`Pos` demand the path's linear facts
/// entail the sign, `Int`/`List` demand the matching kind evidence, `Any`
/// is trivially true. "Don't know" is `false` — the callers' fallbacks
/// (note incompleteness; descend into the body) are always sound.
fn in_domain(
    solver: &Solver<'_>,
    path: &Path,
    v: &SValue,
    d: PlanDomain,
    kinds: &[AtomKind],
) -> bool {
    match d {
        PlanDomain::Nat => solver
            .linearize(path, v)
            .is_some_and(|l| crate::linear::entails(&path.lin, &LinCon::ge0(l))),
        PlanDomain::Pos => solver
            .linearize(path, v)
            .is_some_and(|l| crate::linear::entails(&path.lin, &LinCon::gt0(l))),
        PlanDomain::Int => is_int_like(solver, path, v),
        PlanDomain::List => is_list_like(path, v, kinds),
        PlanDomain::Any => true,
    }
}

fn is_int_like(solver: &Solver<'_>, path: &Path, v: &SValue) -> bool {
    if solver.linearize(path, v).is_some() {
        return true;
    }
    matches!(
        path.resolve(v),
        SValue::Term(
            Prim::Add
                | Prim::Sub
                | Prim::Mul
                | Prim::Quotient
                | Prim::Remainder
                | Prim::Modulo
                | Prim::Abs
                | Prim::Min
                | Prim::Max
                | Prim::Add1
                | Prim::Sub1
                | Prim::Gcd
                | Prim::Expt,
            _
        )
    ) || matches!(path.resolve(v), SValue::Conc(Value::Fix(_) | Value::Big(_)))
}

/// All non-empty suffixes of a value with a fully known spine.
fn list_suffixes(path: &Path, v: &SValue) -> Option<Vec<SValue>> {
    let mut out = Vec::new();
    let mut cur = path.resolve(v);
    loop {
        match cur {
            SValue::Conc(Value::Nil) => return Some(out),
            SValue::Conc(Value::Pair(ref p)) => {
                out.push(cur.clone());
                cur = SValue::Conc(p.cdr.clone());
            }
            SValue::SPair(ref p) => {
                out.push(cur.clone());
                let next = path.resolve(&p.1);
                cur = next;
            }
            _ => return None,
        }
    }
}

fn is_list_like(path: &Path, v: &SValue, kinds: &[AtomKind]) -> bool {
    match path.resolve(v) {
        SValue::Conc(Value::Nil) => true,
        SValue::Conc(Value::Pair(_)) => true,
        SValue::SPair(_) => true,
        SValue::Atom(a) => kinds.get(a as usize).copied() == Some(AtomKind::List),
        _ => false,
    }
}

/// Coverage check for summarized calls of non-entry functions: the new
/// argument must have the same "kind" as the one the body was explored
/// with, so that the one exploration stands for all.
fn kind_stable(
    solver: &Solver<'_>,
    path: &Path,
    prev: &SValue,
    new: &SValue,
    kinds: &[AtomKind],
) -> bool {
    // The chain stores arguments as resolved at entry; an Any-kinded atom
    // there means the body was explored against a fully arbitrary value,
    // which covers any new argument.
    if let SValue::Atom(a) = prev {
        if kinds.get(*a as usize).copied() == Some(AtomKind::Any) {
            return true;
        }
    }
    if prev.syn_eq(&path.resolve(new)) || path.resolve(prev).syn_eq(&path.resolve(new)) {
        return true;
    }
    if is_int_like(solver, path, prev) && is_int_like(solver, path, new) {
        return true;
    }
    if is_list_like(path, prev, kinds) && is_list_like(path, new, kinds) {
        return true;
    }
    let clo = |v: &SValue| {
        matches!(
            path.resolve(v),
            SValue::SClosure(_) | SValue::Conc(Value::Prim(_))
        )
    };
    if clo(prev) && clo(new) {
        return true;
    }
    // Both fully concrete values of the same type are fine.
    if let (SValue::Conc(a), SValue::Conc(b)) = (path.resolve(prev), path.resolve(new)) {
        if a.type_name() == b.type_name() {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use sct_core::graph::Change;

    /// A summary of the define owning `id`, where every λ is owned by the
    /// define of the same number: its foreign set is every carried λ but
    /// its own, plus its callees'.
    fn summary(
        id: LambdaId,
        graphs: Vec<(LambdaId, Vec<ScGraph>)>,
        callees: Vec<Rc<CalleeSummary>>,
    ) -> Rc<CalleeSummary> {
        owned_summary(id, graphs, callees, |l| l)
    }

    fn owned_summary(
        id: LambdaId,
        graphs: Vec<(LambdaId, Vec<ScGraph>)>,
        callees: Vec<Rc<CalleeSummary>>,
        owner: impl Fn(LambdaId) -> LambdaId,
    ) -> Rc<CalleeSummary> {
        let mut foreign: Vec<LambdaId> = graphs
            .iter()
            .map(|(l, _)| *l)
            .filter(|&l| owner(l) != owner(id))
            .chain(callees.iter().flat_map(|c| c.foreign.iter().copied()))
            .collect();
        foreign.sort_unstable();
        foreign.dedup();
        Rc::new(CalleeSummary {
            id,
            domains: vec![PlanDomain::Any],
            result: PlanDomain::Any,
            graphs,
            callees,
            foreign,
            component: Rc::from([]),
        })
    }

    /// The merge as it ran before foreign sets existed: always walk every
    /// summary the stubs reach. `merge_summaries` must agree with it.
    fn merge_by_walk(
        own: &HashMap<LambdaId, Vec<ScGraph>>,
        stubs: &[Rc<CalleeSummary>],
        skip: LambdaId,
    ) -> Vec<(LambdaId, Vec<ScGraph>)> {
        let mut checked = own.clone();
        walk_summaries(&mut checked, stubs, skip);
        sorted(checked)
    }

    #[test]
    fn merge_materializes_only_sets_that_can_fail() {
        let down = ScGraph::from_arcs(1, 1, [(0, Change::Descend, 0)]);
        let keep = ScGraph::from_arcs(1, 1, [(0, Change::NonAscend, 0)]);
        // λ 0 explores; λ 1 and λ 2 are summarized callees that both
        // descended into the helper λ 7, each finding a different set;
        // `b` also reaches `a` through its own stub (a diamond). λ 9 is a
        // helper the exploration descended into itself, which `a` carries
        // too. `a`'s set for λ 0, the explorer's entry, is never used.
        let a = summary(
            1,
            vec![
                (0, vec![keep.clone()]),
                (1, vec![down.clone()]),
                (7, vec![down.clone()]),
                (9, vec![keep.clone()]),
            ],
            vec![],
        );
        let b = summary(
            2,
            vec![(2, vec![down.clone()]), (7, vec![keep.clone()])],
            vec![a.clone()],
        );
        let own = HashMap::from([(0, vec![down.clone()]), (9, vec![down.clone()])]);
        let merged = merge_summaries(&own, &[a, b], 0, |l| l == 0);
        assert_eq!(
            merged.checked,
            vec![
                (0, vec![down.clone()]),
                // Two different summaries' sets for one λ: their union.
                (7, vec![keep.clone(), down.clone()]),
                // An own set, unioned with what a summary carries for it.
                (9, vec![down, keep]),
            ],
            "λ 1 and λ 2 come from one summary each and are not copied"
        );
        assert_eq!(merged.foreign, vec![0, 7, 9]);
        assert_eq!(merged.visits, 2, "the walk visits a and b once each");
    }

    /// SplitMix64: a dependency-free, seeded source for the DAG test.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    #[test]
    fn merge_agrees_with_the_walk_on_random_summary_dags() {
        // Define d owns λs 4d..4d+3, its entry λ is 4d, and define 0
        // explores. Defines 1..DEFINES have summaries, each stubbing
        // earlier ones; a summary may carry sets for another define's λs
        // (a *foreign carry*) only when `foreign_carries` is on.
        const DEFINES: u64 = 12;
        let owner = |l: LambdaId| l / 4;
        let pool: Vec<ScGraph> = [
            [(0, Change::Descend, 0)].as_slice(),
            &[(0, Change::NonAscend, 0)],
            &[(0, Change::Descend, 1), (1, Change::NonAscend, 0)],
            &[(1, Change::Descend, 1)],
            &[],
        ]
        .iter()
        .map(|arcs| ScGraph::from_arcs(2, 2, arcs.iter().copied()))
        .collect();
        let mut rng = Mix(7);
        let (mut walked, mut skipped, mut unions) = (0, 0, 0);
        for case in 0..400 {
            let foreign_carries = case % 2 == 1;
            let random_sets = |rng: &mut Mix, d: u64| -> Vec<(LambdaId, Vec<ScGraph>)> {
                let mut sets: Vec<(LambdaId, Vec<ScGraph>)> = Vec::new();
                for _ in 0..rng.below(4) {
                    let d = if foreign_carries && rng.below(3) == 0 {
                        rng.below(DEFINES)
                    } else {
                        d
                    };
                    let l = (4 * d + rng.below(4)) as LambdaId;
                    if sets.iter().any(|(k, _)| *k == l) {
                        continue;
                    }
                    let set = (0..=rng.below(3))
                        .map(|_| pool[rng.below(pool.len() as u64) as usize].clone())
                        .collect();
                    sets.push((l, set));
                }
                sets
            };
            let mut summaries: Vec<Rc<CalleeSummary>> = Vec::new();
            for d in 1..DEFINES {
                let graphs = random_sets(&mut rng, d);
                let callees = summaries
                    .iter()
                    .filter(|_| rng.below(3) == 0)
                    .cloned()
                    .collect();
                summaries.push(owned_summary((4 * d) as LambdaId, graphs, callees, owner));
            }
            let own: HashMap<_, _> = random_sets(&mut rng, 0).into_iter().collect();
            let stubs: Vec<_> = summaries
                .iter()
                .filter(|_| rng.below(2) == 0)
                .cloned()
                .collect();
            let merged = merge_summaries(&own, &stubs, 0, |l| owner(l) == 0);
            assert_eq!(
                merged.checked,
                merge_by_walk(&own, &stubs, 0),
                "case {case}"
            );
            unions += usize::from(merged.checked != sorted(own));
            if merged.foreign.is_empty() {
                assert_eq!(merged.visits, 0, "case {case}");
                skipped += 1;
            } else {
                walked += 1;
            }
            if !foreign_carries {
                assert!(merged.foreign.is_empty(), "case {case}");
            }
        }
        // Both paths run, and the walk does materialize unions.
        assert!(
            walked > 100 && skipped >= 200 && unions > 50,
            "{walked} walked, {skipped} skipped, {unions} with unions"
        );
    }
}
